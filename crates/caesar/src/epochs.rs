//! Epoch-rotated measurement.
//!
//! The paper measures one interval and queries offline. Production
//! deployments (and the sliding-window follow-up work the paper cites,
//! \[42\]) measure continuously: time is cut into epochs, each epoch gets
//! a fresh sketch, and queries address one epoch or a sliding window of
//! the most recent ones. This module provides that operational wrapper
//! over [`Caesar`] with bounded memory: at most `retained` finished
//! epochs are kept, oldest dropped first.

use crate::config::CaesarConfig;
use crate::pipeline::Caesar;
use crate::query::SketchRead;
use std::collections::VecDeque;

/// A finished epoch's sketch plus its identity.
#[derive(Debug)]
pub struct Epoch {
    /// Epoch sequence number (0-based).
    pub index: u64,
    /// The finished, queryable sketch.
    pub sketch: Caesar,
}

/// Continuously measuring, epoch-rotated CAESAR.
///
/// ```
/// use caesar::{CaesarConfig, EpochedCaesar};
/// let cfg = CaesarConfig { cache_entries: 32, entry_capacity: 8, counters: 1024, k: 3,
///                          ..CaesarConfig::default() };
/// let mut monitor = EpochedCaesar::new(cfg, 4);
/// for _ in 0..300 { monitor.record(7); }
/// monitor.rotate();
/// for _ in 0..100 { monitor.record(7); }
/// monitor.rotate();
/// let e0 = monitor.query_epoch(0, 7).expect("retained");
/// assert!((e0 - 300.0).abs() < 20.0);
/// assert!((monitor.query_window(7, 2) - 400.0).abs() < 30.0);
/// ```
#[derive(Debug)]
pub struct EpochedCaesar {
    cfg: CaesarConfig,
    retained: usize,
    current: Caesar,
    current_index: u64,
    finished: VecDeque<Epoch>,
}

impl EpochedCaesar {
    /// Start measuring epoch 0. Keeps at most `retained` finished
    /// epochs (≥ 1).
    ///
    /// # Panics
    /// Panics if `retained == 0` or the configuration is invalid.
    pub fn new(cfg: CaesarConfig, retained: usize) -> Self {
        assert!(retained >= 1, "must retain at least one finished epoch");
        Self {
            current: Caesar::new(derive_epoch_config(&cfg, 0)),
            cfg,
            retained,
            current_index: 0,
            finished: VecDeque::new(),
        }
    }

    /// Record one packet into the current epoch.
    pub fn record(&mut self, flow: u64) {
        self.current.record(flow);
    }

    /// Close the current epoch and open the next. The closed epoch's
    /// cache is dumped (it becomes queryable); the oldest retained
    /// epoch is evicted if the buffer is full.
    pub fn rotate(&mut self) {
        let next_index = self.current_index + 1;
        let mut done = std::mem::replace(
            &mut self.current,
            Caesar::new(derive_epoch_config(&self.cfg, next_index)),
        );
        done.finish();
        self.finished.push_back(Epoch {
            index: self.current_index,
            sketch: done,
        });
        self.current_index = next_index;
        while self.finished.len() > self.retained {
            self.finished.pop_front();
        }
    }

    /// Index of the epoch currently being recorded.
    pub fn current_epoch(&self) -> u64 {
        self.current_index
    }

    /// The finished epochs, oldest first.
    pub fn epochs(&self) -> impl Iterator<Item = &Epoch> {
        self.finished.iter()
    }

    /// Query one finished epoch by index (`None` if not retained).
    pub fn query_epoch(&self, epoch: u64, flow: u64) -> Option<f64> {
        self.finished
            .iter()
            .find(|e| e.index == epoch)
            .map(|e| e.sketch.query(flow))
    }

    /// Sliding-window query: summed estimate over the most recent
    /// `window` finished epochs (fewer if not that many are retained).
    pub fn query_window(&self, flow: u64, window: usize) -> f64 {
        self.finished
            .iter()
            .rev()
            .take(window)
            .map(|e| e.sketch.query(flow))
            .sum()
    }
}

/// Every epoch must hash and scatter independently or a flow's counters
/// would correlate across epochs; derive a per-epoch seed.
fn derive_epoch_config(cfg: &CaesarConfig, epoch: u64) -> CaesarConfig {
    CaesarConfig {
        seed: cfg.seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..*cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CaesarConfig {
        CaesarConfig {
            cache_entries: 64,
            entry_capacity: 8,
            counters: 2048,
            k: 3,
            ..CaesarConfig::default()
        }
    }

    #[test]
    fn per_epoch_isolation() {
        let mut e = EpochedCaesar::new(cfg(), 4);
        for _ in 0..500 {
            e.record(1);
        }
        e.rotate();
        for _ in 0..100 {
            e.record(1);
        }
        e.rotate();
        let epoch0 = e.query_epoch(0, 1).expect("epoch 0 retained");
        let epoch1 = e.query_epoch(1, 1).expect("epoch 1 retained");
        assert!((epoch0 - 500.0).abs() < 15.0, "epoch0 = {epoch0}");
        assert!((epoch1 - 100.0).abs() < 15.0, "epoch1 = {epoch1}");
        assert!(e.query_epoch(2, 1).is_none(), "epoch 2 still recording");
    }

    #[test]
    fn window_query_sums_recent_epochs() {
        let mut e = EpochedCaesar::new(cfg(), 8);
        for round in 0..4u64 {
            for _ in 0..100 * (round + 1) {
                e.record(7);
            }
            e.rotate();
        }
        // Last two epochs: 300 + 400 = 700.
        let w2 = e.query_window(7, 2);
        assert!((w2 - 700.0).abs() < 30.0, "w2 = {w2}");
        // Full window: 1000.
        let w4 = e.query_window(7, 10);
        assert!((w4 - 1000.0).abs() < 40.0, "w4 = {w4}");
    }

    #[test]
    fn retention_evicts_oldest() {
        let mut e = EpochedCaesar::new(cfg(), 2);
        for _ in 0..5 {
            e.record(1);
            e.rotate();
        }
        assert_eq!(e.epochs().count(), 2);
        assert!(e.query_epoch(0, 1).is_none());
        assert!(e.query_epoch(3, 1).is_some());
        assert!(e.query_epoch(4, 1).is_some());
        assert_eq!(e.current_epoch(), 5);
    }

    #[test]
    fn epochs_use_independent_hash_mappings() {
        let mut e = EpochedCaesar::new(cfg(), 2);
        e.rotate();
        e.rotate();
        let mut it = e.epochs();
        let a = it.next().expect("epoch 0");
        let b = it.next().expect("epoch 1");
        let differs = (0..32u64).any(|f| a.sketch.counters_of(f) != b.sketch.counters_of(f));
        // counters_of returns values (all zero here); compare the index
        // mapping via the configs' seeds instead.
        let _ = differs;
        assert_ne!(a.sketch.config().seed, b.sketch.config().seed);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_retention_rejected() {
        EpochedCaesar::new(cfg(), 0);
    }
}
