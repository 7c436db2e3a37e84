//! Vendored support shims so the workspace builds **offline** with zero
//! crates.io dependencies.
//!
//! Policy (see `CONTRIBUTING.md`): every external crate the workspace
//! used to pull from crates.io is replaced here by a narrow,
//! deterministic, from-scratch implementation of exactly the surface
//! the workspace needs:
//!
//! | was            | now                               |
//! |----------------|-----------------------------------|
//! | `rand`         | [`rand`] — xoshiro256** `StdRng` seeded via SplitMix64 |
//! | `libm`         | `std::f64` methods + [`mathx`] (`erf`/`erfc`) |
//! | `bytes`        | [`bytesx`] (`ByteReader`, `PutBytes`) |
//! | `serde`        | [`json`] (hand-rolled value model, writer, parser) |
//! | `rayon`        | [`par`] (`par_map` over `std::thread::scope`) |
//! | `crossbeam`    | `std::thread::scope` (call sites migrated directly) + [`spsc`] (lock-free bounded SPSC ring) |
//! | `parking_lot`  | `std::sync::Mutex` (call sites migrated directly) |
//! | `proptest`     | [`testkit`] (deterministic seeded property harness) |
//! | `criterion`    | [`timing`] (warmup + median-of-N bench harness) |
//!
//! Everything here is seeded and reproducible: the same seed produces
//! the same stream on every platform, which the workspace's regression
//! pins and determinism tests rely on.

pub mod bytesx;
pub mod json;
pub mod mathx;
pub mod mem;
pub mod par;
pub mod rand;
pub mod spsc;
pub mod testkit;
pub mod timing;
