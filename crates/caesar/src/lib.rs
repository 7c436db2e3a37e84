//! # caesar — Cache Assisted randomizEd ShAring counteRs (ICPP 2018)
//!
//! The paper's primary contribution: a two-level per-flow traffic
//! measurement architecture.
//!
//! **Construction phase** (online, §3.1): every packet updates an
//! on-chip cache entry `(flow_id, count)`; on eviction the partial
//! count `e` is split `e = p·k + q` and pushed to the flow's `k` fixed,
//! distinct off-chip SRAM counters — `p` to each, plus `q` single units
//! to uniformly random ones of the `k`. At the end of measurement the
//! cache is dumped.
//!
//! **Query phase** (offline, §3.2): the flow's `k` counter values are
//! read, the expected noise of sharing flows (`Q·μ/L = n/L`) is
//! removed, and the size is estimated with one of two estimators:
//!
//! * [`estimator::csm`] — Counter Sum estimation Method (moment
//!   estimator, Eq. 20), unbiased (Eq. 21), variance Eq. 22;
//! * [`estimator::mlm`] — Maximum Likelihood estimation Method under
//!   the Gaussian approximation (closed form below Eq. 28), variance
//!   from the Fisher information (Eq. 31).
//!
//! Both come with confidence intervals (Eqs. 26/32) via
//! [`gaussian::z_alpha`]. Every engine answers queries through one
//! trait, [`SketchRead`].
//!
//! ## Quick start
//!
//! ```
//! use caesar::{Caesar, CaesarConfig, SketchRead};
//!
//! let mut sketch = Caesar::new(CaesarConfig {
//!     cache_entries: 64,
//!     entry_capacity: 8,
//!     counters: 1024,
//!     k: 3,
//!     ..CaesarConfig::default()
//! });
//! for _ in 0..100 {
//!     sketch.record(42);
//! }
//! sketch.finish();
//! let est = sketch.query(42);
//! assert!((est - 100.0).abs() < 30.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic_sram;
mod checkpoint;
pub mod concurrent;
pub mod config;
pub mod epochs;
pub mod estimator;
pub mod gaussian;
pub mod heavy_hitters;
mod lane;
pub mod merge;
pub mod online;
pub mod packed;
pub mod pipeline;
pub mod query;
pub mod sram;
pub mod theory;
pub mod threaded;
pub mod update;

pub use atomic_sram::{AtomicCounterArray, WritebackBuffer};
pub use concurrent::{per_shard_entries, ConcurrentCaesar, IngestStats};
pub use epochs::EpochedCaesar;
pub use heavy_hitters::{DetectionReport, Hitter};
pub use lane::DEFAULT_RING_CAPACITY;
pub use merge::{MergeError, PayloadError, SketchDelta, SketchFingerprint, SketchPayload};
pub use online::{
    BackpressurePolicy, ChainError, DeltaError, FaultKind, FaultLog, FaultRecord, LaneStats,
    OnlineCaesar, OnlineStats, RestoreError, DEFAULT_EPOCH_LEN, DEFAULT_WATCHDOG_DEADLINE,
};
pub use packed::PackedCounterArray;
pub use config::{CaesarConfig, Estimator};
pub use estimator::{Estimate, EstimateParams};
pub use pipeline::{Caesar, CaesarCore, CaesarStats, PackedCaesar};
pub use query::{CounterView, QueryHealth, SketchRead};
pub use sram::{CounterArray, SramBacking, DIRTY_BLOCK_COUNTERS};
pub use threaded::{ThreadedCaesar, DEFAULT_HEARTBEAT_MS};
