//! The full CAESAR pipeline: cache → split-`k` eviction → SRAM →
//! estimator.

use crate::concurrent::ShardWorker;
use crate::config::{CaesarConfig, Estimator};
use crate::estimator::Estimate;
use crate::query::SketchRead;
use crate::sram::{CounterArray, CounterArrayStats};
use cachesim::CacheStats;
use hashkit::KCounterMap;

/// Aggregate statistics of a CAESAR run.
#[derive(Debug, Clone, Copy)]
pub struct CaesarStats {
    /// Cache-side counters (hits, misses, evictions by kind).
    pub cache: CacheStats,
    /// SRAM-side counters (accesses, saturations, totals).
    pub sram: CounterArrayStats,
    /// Eviction events pushed off-chip.
    pub evictions: u64,
    /// Coalesced SRAM counter writes performed.
    pub sram_writes: u64,
}

/// Cache Assisted randomizEd ShAring counteRs (see crate docs).
///
/// The sketch is one `ShardWorker` — the same construction kernel
/// every sharded engine runs per shard — whose evictions apply directly
/// to its own [`CounterArray`], plus the flow→counter map the query
/// phase reads.
#[derive(Debug)]
pub struct Caesar {
    cfg: CaesarConfig,
    kmap: KCounterMap,
    worker: ShardWorker<CounterArray>,
    ev_buf: Vec<cachesim::Eviction>,
    finished: bool,
}

impl Caesar {
    /// Build the two-level structure for `cfg`.
    ///
    /// # Panics
    /// Panics on invalid configurations (see
    /// [`CaesarConfig::validate`]).
    pub fn new(cfg: CaesarConfig) -> Self {
        cfg.validate();
        let sram = CounterArray::new(cfg.counters, cfg.counter_bits);
        Self {
            kmap: KCounterMap::new(cfg.k, cfg.counters, cfg.seed ^ 0x5EED_5EED),
            worker: ShardWorker::new(&cfg, 0, cfg.cache_entries, sram),
            ev_buf: Vec::new(),
            finished: false,
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CaesarConfig {
        &self.cfg
    }

    /// Construction phase: process one packet of `flow` (§3.1).
    ///
    /// # Panics
    /// Panics if called after [`Caesar::finish`]; a finished sketch is
    /// read-only.
    pub fn record(&mut self, flow: u64) {
        assert!(!self.finished, "record() after finish(): the sketch is read-only");
        self.worker.record(flow, &(), &self.kmap);
    }

    /// Process a whole slice of packets.
    pub fn record_all(&mut self, flows: impl IntoIterator<Item = u64>) {
        for f in flows {
            self.record(f);
        }
    }

    /// Batch construction: record `flows` in order through the shard
    /// worker's probe-one-ahead hot path (slot hints carried one packet
    /// ahead, and SRAM prefetches when the counter array is too big to
    /// stay cache-resident). Strictly equivalent to
    /// `for f in flows { self.record(f) }`; the recorded sketch is
    /// byte-identical.
    ///
    /// # Panics
    /// Panics if called after [`Caesar::finish`].
    // `#[inline]` here, on `finish` and on `estimate_all` lets the
    // calling crate instantiate the generic worker and query kernels
    // with its own inlining; compiled in this crate instead, sequential
    // ingest measured ~5% slower in `perfbench`.
    #[inline]
    pub fn record_batch(&mut self, flows: &[u64]) {
        assert!(!self.finished, "record_batch() after finish(): the sketch is read-only");
        self.worker.record_batch(flows, &(), &self.kmap);
    }

    /// Construction phase for **flow volume**: one packet of `flow`
    /// carrying `units` (typically its byte length). The paper counts
    /// "either packets or bytes" in the same structure (§3.1); queries
    /// then estimate total units instead of packet counts.
    ///
    /// # Panics
    /// Panics if called after [`Caesar::finish`].
    pub fn record_weighted(&mut self, flow: u64, units: u64) {
        assert!(!self.finished, "record_weighted() after finish(): the sketch is read-only");
        // Reuse the eviction buffer; a single weighted packet can spill
        // several entry-capacity chunks.
        let mut evs = std::mem::take(&mut self.ev_buf);
        evs.clear();
        let k = self.cfg.k;
        let w = &mut self.worker;
        if let Some(r) = w.cache.record_weighted_slotted(flow, units, &mut evs) {
            let start = r.slot as usize * k;
            // A replacement eviction (previous occupant, emitted first)
            // consumes the slot's old memo row; the new flow's row is
            // written before its own overflow evictions are spread.
            let mut refreshed = !r.inserted;
            for &ev in &evs {
                if !refreshed && ev.flow == flow {
                    self.kmap.fill_indices(flow, &mut w.memo[start..start + k]);
                    refreshed = true;
                }
                debug_assert_eq!(w.memo[start..start + k], self.kmap.indices(ev.flow)[..]);
                w.spread_row(start, ev.value, &());
            }
            if !refreshed {
                self.kmap.fill_indices(flow, &mut w.memo[start..start + k]);
            }
        }
        self.ev_buf = evs;
    }

    /// End of measurement: dump all cache entries to SRAM (§3.1). Safe
    /// to call more than once; only the first call does work.
    #[inline]
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        // Each dumped entry's memoized row replaces the per-eviction
        // re-hash; emission order (and hence the RNG draw order) is
        // identical to `cache.drain()`.
        self.worker.drain_cache(&(), &self.kmap);
        self.finished = true;
    }

    /// The raw values of `flow`'s `k` mapped counters.
    pub fn counters_of(&self, flow: u64) -> Vec<u64> {
        self.kmap
            .indices(flow)
            .into_iter()
            .map(|i| self.sram().get(i))
            .collect()
    }

    /// [`SketchRead::estimate_all`], callable without importing the
    /// trait.
    #[inline]
    pub fn estimate_all(&self, flows: &[u64], estimator: Estimator) -> Vec<Estimate> {
        SketchRead::estimate_all(self, flows, estimator)
    }

    /// Estimate plus the `alpha`-reliability confidence interval
    /// (Eqs. 26/32).
    ///
    /// **Caveat** (erratum E2, DESIGN.md): the paper's model variance
    /// omits the counter-selection noise, so these intervals are far
    /// too narrow under heavy-tailed traffic. Use
    /// [`Caesar::query_with_empirical_ci`] for intervals calibrated
    /// from the observed counter distribution.
    pub fn query_with_ci(&self, flow: u64, alpha: f64) -> (f64, (f64, f64)) {
        let e = self.estimate(flow, self.cfg.estimator);
        (e.clamped(), e.confidence_interval(alpha))
    }

    /// Sample variance of the SRAM counter values — an empirical
    /// stand-in for the per-counter noise variance that the paper's
    /// model (Eq. 16) understates: a random counter's value *is* a
    /// draw from the marginal noise-plus-share distribution, selection
    /// term included.
    pub fn empirical_counter_variance(&self) -> f64 {
        let counters = self.sram().as_slice();
        let n = counters.len() as f64;
        let mean = counters.iter().map(|&c| c as f64).sum::<f64>() / n;
        counters
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n
    }

    /// CSM estimate with an **empirically calibrated** confidence
    /// interval: the variance of the counter sum is taken as `k` times
    /// the observed per-counter variance instead of the paper's model
    /// value. For mice (whose own share is negligible next to the
    /// noise) the coverage is close to nominal; for elephants the
    /// interval is conservative (their own mass inflates the pooled
    /// variance).
    pub fn query_with_empirical_ci(&self, flow: u64, alpha: f64) -> (f64, (f64, f64)) {
        let mut e = self.estimate(flow, Estimator::Csm);
        e.variance = self.cfg.k as f64 * self.empirical_counter_variance();
        (e.clamped(), e.confidence_interval(alpha))
    }

    /// Run statistics.
    pub fn stats(&self) -> CaesarStats {
        CaesarStats {
            cache: self.worker.cache.stats(),
            sram: self.sram().stats(),
            evictions: self.worker.evictions,
            sram_writes: self.worker.sram_writes,
        }
    }

    /// Borrow the SRAM counter array (read-only diagnostics / sweeps).
    pub fn sram(&self) -> &CounterArray {
        &self.worker.sink
    }

    /// Merge another **finished** sketch with the **same configuration
    /// and seed** into this one — the distributed-collector operation:
    /// several taps measure disjoint packet streams with identical
    /// hash mappings, then the counter arrays are summed and queried
    /// as one.
    ///
    /// # Panics
    /// Panics if either sketch is unfinished or the configurations
    /// (including seeds — the hash mappings must match) differ.
    pub fn merge(&mut self, other: &Caesar) {
        assert!(
            self.finished && other.finished,
            "merge requires both sketches to be finished"
        );
        let a = self.cfg;
        let b = other.cfg;
        assert!(
            a.counters == b.counters
                && a.k == b.k
                && a.entry_capacity == b.entry_capacity
                && a.counter_bits == b.counter_bits
                && a.seed == b.seed,
            "merge requires identical geometry and seed"
        );
        self.worker.sink.merge(other.sram());
        self.worker.evictions += other.worker.evictions;
        self.worker.sram_writes += other.worker.sram_writes;
    }
}

impl SketchRead for Caesar {
    type Counters = CounterArray;

    fn config(&self) -> &CaesarConfig {
        &self.cfg
    }

    fn kmap(&self) -> &KCounterMap {
        &self.kmap
    }

    fn counters(&self) -> &CounterArray {
        self.sram()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachesim::CachePolicy;

    fn small_cfg() -> CaesarConfig {
        CaesarConfig {
            cache_entries: 64,
            entry_capacity: 8,
            counters: 4096,
            k: 3,
            ..CaesarConfig::default()
        }
    }

    #[test]
    fn single_flow_exact_recovery() {
        // One flow, no sharing noise: CSM must recover the size almost
        // exactly (the only "noise" subtracted is the flow itself).
        let mut c = Caesar::new(small_cfg());
        for _ in 0..1000 {
            c.record(7);
        }
        c.finish();
        // n == x: noise subtraction removes k·x/L ≈ 0.7.
        let est = c.query(7);
        assert!((est - 1000.0).abs() < 5.0, "est = {est}");
    }

    #[test]
    fn conservation_into_sram() {
        let mut c = Caesar::new(small_cfg());
        for i in 0..5000u64 {
            c.record(i % 97);
        }
        c.finish();
        assert_eq!(c.sram().total_added(), 5000);
        assert_eq!(c.sram().sum(), 5000);
    }

    #[test]
    fn finish_is_idempotent() {
        let mut c = Caesar::new(small_cfg());
        c.record(1);
        c.finish();
        let n1 = c.sram().total_added();
        c.finish();
        assert_eq!(c.sram().total_added(), n1);
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn record_after_finish_panics() {
        let mut c = Caesar::new(small_cfg());
        c.finish();
        c.record(1);
    }

    #[test]
    fn unseen_flow_estimates_near_zero() {
        let mut c = Caesar::new(small_cfg());
        for i in 0..2000u64 {
            c.record(i % 50);
        }
        c.finish();
        // A flow that never appeared reads only sharing noise.
        let est = c.query(0xFFFF_FFFF);
        assert!(est < 40.0, "est = {est}");
    }

    #[test]
    fn estimates_unbiased_over_many_flows() {
        // 200 flows of 64 packets each; the mean signed error of CSM
        // must be near zero (unbiasedness, Eq. 21).
        let mut c = Caesar::new(CaesarConfig {
            cache_entries: 32, // force heavy replacement churn
            ..small_cfg()
        });
        let flows: Vec<u64> = (0..200).collect();
        for _round in 0..64 {
            for &f in &flows {
                c.record(f);
            }
        }
        c.finish();
        let mean_err: f64 = flows
            .iter()
            .map(|&f| c.estimate(f, Estimator::Csm).value - 64.0)
            .sum::<f64>()
            / flows.len() as f64;
        assert!(mean_err.abs() < 2.0, "mean signed error = {mean_err}");
    }

    #[test]
    fn csm_and_mlm_agree_on_large_flows() {
        let mut c = Caesar::new(small_cfg());
        for _ in 0..10_000 {
            c.record(1);
        }
        for i in 0..2000u64 {
            c.record(100 + i % 40);
        }
        c.finish();
        let csm = c.estimate(1, Estimator::Csm).value;
        let mlm = c.estimate(1, Estimator::Mlm).value;
        assert!(
            (csm - mlm).abs() / csm < 0.05,
            "CSM {csm} vs MLM {mlm} diverge"
        );
    }

    #[test]
    fn empirical_ci_is_wider_than_model_ci_under_sharing() {
        // Many flows with a heavy spread: the empirical interval must
        // dominate the paper's model interval (erratum E2).
        let mut c = Caesar::new(CaesarConfig {
            cache_entries: 64,
            entry_capacity: 8,
            counters: 512,
            k: 3,
            ..CaesarConfig::default()
        });
        for f in 0..200u64 {
            let size = if f % 20 == 0 { 2000 } else { 5 };
            for _ in 0..size {
                c.record(f);
            }
        }
        c.finish();
        let (_, (mlo, mhi)) = c.query_with_ci(3, 0.95);
        let (_, (elo, ehi)) = c.query_with_empirical_ci(3, 0.95);
        assert!(ehi - elo > mhi - mlo, "empirical {} vs model {}", ehi - elo, mhi - mlo);
        assert!(c.empirical_counter_variance() > 0.0);
    }

    #[test]
    fn ci_brackets_point_estimate() {
        let mut c = Caesar::new(small_cfg());
        for _ in 0..500 {
            c.record(3);
        }
        c.finish();
        let (est, (lo, hi)) = c.query_with_ci(3, 0.95);
        assert!(lo <= est && est <= hi);
    }

    #[test]
    fn random_policy_also_works() {
        let mut c = Caesar::new(CaesarConfig {
            policy: CachePolicy::Random,
            cache_entries: 16,
            ..small_cfg()
        });
        for i in 0..3000u64 {
            c.record(i % 40);
        }
        c.finish();
        let est = c.query(0);
        assert!((est - 75.0).abs() < 40.0, "est = {est}");
    }

    #[test]
    fn merge_of_disjoint_streams_queries_as_one() {
        // Two taps each see half of each flow's packets; the merged
        // sketch must estimate the totals.
        let mut a = Caesar::new(small_cfg());
        let mut b = Caesar::new(small_cfg());
        for i in 0..4000u64 {
            let flow = i % 20;
            if i % 2 == 0 {
                a.record(flow);
            } else {
                b.record(flow);
            }
        }
        a.finish();
        b.finish();
        a.merge(&b);
        assert_eq!(a.sram().total_added(), 4000);
        let est = a.query(3);
        assert!((est - 200.0).abs() < 30.0, "est = {est}");
    }

    #[test]
    #[should_panic(expected = "finished")]
    fn merge_requires_finish() {
        let mut a = Caesar::new(small_cfg());
        let b = Caesar::new(small_cfg());
        a.finish();
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "identical geometry")]
    fn merge_rejects_mismatched_seed() {
        let mut a = Caesar::new(small_cfg());
        let mut b = Caesar::new(CaesarConfig { seed: 999, ..small_cfg() });
        a.finish();
        b.finish();
        a.merge(&b);
    }

    #[test]
    fn weighted_volume_recovery() {
        // Flow-volume mode: one flow sends 500 packets of 1000 bytes.
        let mut c = Caesar::new(CaesarConfig {
            entry_capacity: 2 * 27_000, // y scaled to byte units
            ..small_cfg()
        });
        for _ in 0..500 {
            c.record_weighted(7, 1000);
        }
        for i in 0..100u64 {
            c.record_weighted(100 + i, 300);
        }
        c.finish();
        let est = c.query(7);
        assert!(
            (est - 500_000.0).abs() / 500_000.0 < 0.02,
            "volume estimate = {est}"
        );
    }

    #[test]
    fn weighted_conserves_units() {
        let mut c = Caesar::new(small_cfg());
        let mut total = 0u64;
        for i in 0..2_000u64 {
            let w = i % 97 + 1;
            total += w;
            c.record_weighted(i % 31, w);
        }
        c.finish();
        assert_eq!(c.sram().total_added(), total);
    }

    #[test]
    fn stats_report_consistent_accounting() {
        let mut c = Caesar::new(small_cfg());
        for i in 0..1000u64 {
            c.record(i % 10);
        }
        c.finish();
        let st = c.stats();
        assert_eq!(st.cache.packets(), 1000);
        assert_eq!(st.evictions, st.cache.total_evictions());
        assert!(st.sram_writes <= st.evictions * 3);
        assert_eq!(st.sram.total_added, 1000);
    }
}
