//! Umbrella crate for the CAESAR reproduction workspace.
//!
//! Re-exports the public API of every member crate so that examples and
//! downstream users can depend on a single package:
//!
//! ```
//! use caesar_repro::prelude::*;
//! let cfg = CaesarConfig::default();
//! assert!(cfg.k >= 1);
//! ```

pub use baselines;
pub use cachesim;
pub use caesar;
pub use experiments;
pub use flowtrace;
pub use hashkit;
pub use memsim;
pub use metrics;
pub use service;

/// One-stop imports for the most common types.
pub mod prelude {
    pub use baselines::{case::Case, case::CaseConfig, rcs::Rcs, rcs::RcsConfig};
    pub use cachesim::{CachePolicy, CacheTable};
    pub use caesar::{
        Caesar, CaesarConfig, ConcurrentCaesar, Estimator, SketchPayload, SketchRead,
    };
    pub use flowtrace::{
        synth::{ArrivalOrder, SynthConfig, TraceGenerator},
        ExactCounter, FiveTuple, FlowId, Packet, Trace,
    };
    pub use memsim::{MemoryModel, Technology};
    pub use metrics::{AccuracyReport, RelativeError};
}
