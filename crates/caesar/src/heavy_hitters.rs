//! Heavy-hitter detection on top of the sketch.
//!
//! The paper motivates per-flow measurement with applications like
//! intrusion detection and scheduling (§1.1) — operationally those are
//! threshold queries: "which flows exceed T packets?". A shared-counter
//! sketch answers them for any candidate set (the sketch stores no
//! flow IDs; candidates come from the cache, a sampler, or the query
//! workload itself), and the detection quality is a direct function of
//! the estimator's noise floor.

use crate::config::Estimator;
use crate::pipeline::Caesar;
use crate::query::SketchRead;

/// A flow flagged as a heavy hitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hitter {
    /// The flow ID.
    pub flow: u64,
    /// Estimated size.
    pub estimate: f64,
}

/// Detection quality against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionReport {
    /// Correctly flagged hitters.
    pub true_positives: usize,
    /// Flagged flows that are not hitters.
    pub false_positives: usize,
    /// Hitters that were missed.
    pub false_negatives: usize,
}

impl DetectionReport {
    /// Precision in `[0, 1]` (1.0 when nothing was flagged).
    pub fn precision(&self) -> f64 {
        let flagged = self.true_positives + self.false_positives;
        if flagged == 0 {
            1.0
        } else {
            self.true_positives as f64 / flagged as f64
        }
    }

    /// Recall in `[0, 1]` (1.0 when there are no hitters).
    pub fn recall(&self) -> f64 {
        let actual = self.true_positives + self.false_negatives;
        if actual == 0 {
            1.0
        } else {
            self.true_positives as f64 / actual as f64
        }
    }

    /// F1 score.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

impl Caesar {
    /// Flag every candidate whose estimate reaches `threshold`,
    /// descending by estimate. Call [`Caesar::finish`] first.
    pub fn heavy_hitters(
        &self,
        candidates: impl IntoIterator<Item = u64>,
        threshold: f64,
        estimator: Estimator,
    ) -> Vec<Hitter> {
        let mut out: Vec<Hitter> = candidates
            .into_iter()
            .filter_map(|flow| {
                let estimate = self.estimate(flow, estimator).clamped();
                (estimate >= threshold).then_some(Hitter { flow, estimate })
            })
            .collect();
        out.sort_by(|a, b| {
            b.estimate
                .partial_cmp(&a.estimate)
                .expect("estimates are finite")
                .then(a.flow.cmp(&b.flow))
        });
        out
    }

    /// The top `k` candidates by estimated size.
    pub fn top_k(
        &self,
        candidates: impl IntoIterator<Item = u64>,
        k: usize,
        estimator: Estimator,
    ) -> Vec<Hitter> {
        let mut all = self.heavy_hitters(candidates, f64::MIN, estimator);
        all.truncate(k);
        all
    }
}

/// Score a detection against ground truth: `truth` yields
/// `(flow, actual_size)` for every real flow.
pub fn score_detection(
    flagged: &[Hitter],
    truth: impl IntoIterator<Item = (u64, u64)>,
    threshold: u64,
) -> DetectionReport {
    use hashkit::IdHashSet;
    let flagged_set: IdHashSet = flagged.iter().map(|h| h.flow).collect();
    let mut report = DetectionReport {
        true_positives: 0,
        false_positives: 0,
        false_negatives: 0,
    };
    let mut real_hitters = IdHashSet::default();
    for (flow, actual) in truth {
        if actual >= threshold {
            real_hitters.insert(flow);
            if flagged_set.contains(&flow) {
                report.true_positives += 1;
            } else {
                report.false_negatives += 1;
            }
        }
    }
    report.false_positives = flagged
        .iter()
        .filter(|h| !real_hitters.contains(&h.flow))
        .count();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CaesarConfig;

    fn build() -> (Caesar, Vec<(u64, u64)>) {
        // Flows 0..50 with sizes 100·(i+1); flows 40+ are the hitters.
        let mut c = Caesar::new(CaesarConfig {
            cache_entries: 64,
            entry_capacity: 54,
            counters: 8192,
            k: 3,
            ..CaesarConfig::default()
        });
        let mut truth = Vec::new();
        for f in 0..50u64 {
            let size = 100 * (f + 1);
            truth.push((f, size));
            for _ in 0..size {
                c.record(f);
            }
        }
        c.finish();
        (c, truth)
    }

    #[test]
    fn detects_exactly_the_large_flows() {
        let (c, truth) = build();
        let hitters = c.heavy_hitters(0..50u64, 4050.0, Estimator::Csm);
        let report = score_detection(&hitters, truth.iter().copied(), 4050);
        assert_eq!(report.false_negatives, 0, "{report:?}");
        assert!(report.precision() > 0.85, "{report:?}");
        assert!(report.f1() > 0.9, "{report:?}");
        // Sorted descending.
        for w in hitters.windows(2) {
            assert!(w[0].estimate >= w[1].estimate);
        }
    }

    #[test]
    fn top_k_returns_the_biggest() {
        let (c, _) = build();
        let top = c.top_k(0..50u64, 3, Estimator::Csm);
        assert_eq!(top.len(), 3);
        // Sharing noise can reorder near-equal flows; the top-3 *set*
        // must still be the three biggest.
        let mut flows: Vec<u64> = top.iter().map(|h| h.flow).collect();
        flows.sort_unstable();
        assert_eq!(flows, vec![47, 48, 49]);
    }

    #[test]
    fn empty_candidates_yield_empty_report() {
        let (c, truth) = build();
        let hitters = c.heavy_hitters(std::iter::empty(), 100.0, Estimator::Csm);
        assert!(hitters.is_empty());
        let report = score_detection(&hitters, truth.iter().copied(), 100);
        assert_eq!(report.precision(), 1.0);
        assert_eq!(report.recall(), 0.0);
    }

    #[test]
    fn report_arithmetic() {
        let r = DetectionReport { true_positives: 8, false_positives: 2, false_negatives: 2 };
        assert!((r.precision() - 0.8).abs() < 1e-12);
        assert!((r.recall() - 0.8).abs() < 1e-12);
        assert!((r.f1() - 0.8).abs() < 1e-12);
    }
}
