//! Empirical validation of the paper's §4 analysis.
//!
//! Not a paper figure, but the reproduction's due diligence: each
//! analytic claim the estimators rest on is measured against the
//! simulator and reported as theory vs measured. Three findings are
//! encoded here (full discussion in DESIGN.md / EXPERIMENTS.md):
//!
//! * **Eqs. 6–10 are regime-dependent.** "Eviction values are uniform
//!   on `1..y`, so a flow is evicted `2x/y` times" holds only when an
//!   entry survives long enough to accumulate — the high-locality
//!   (bursty) regime. Under uniform-shuffled arrivals the cache evicts
//!   mice almost immediately, eviction values collapse toward 1, and
//!   the eviction count is several times `2n/y`. Estimator
//!   *unbiasedness is unaffected* (conservation guarantees the evicted
//!   values of a flow sum to `x` regardless); only the variance model
//!   degrades. Both regimes are reported; the bursty one is asserted.
//! * **Erratum E3:** the paper's Eq. 14 own-share variance is `k×` too
//!   large; the corrected `x(k−1)²/(yk²)` matches simulation within a
//!   few percent.
//! * **Erratum E2:** the 95% CI coverage collapses on small flows
//!   (model variance omits sharing-selection noise) and recovers on
//!   large ones.

use crate::report::{f, pct, Csv, TextTable};
use crate::runner::{bursty_trace_for, caesar_config, run_caesar, trace_for};
use crate::scale::{Scale, LARGE_FLOW_THRESHOLD};
use caesar::theory;
use caesar::update::spread_eviction;
use caesar::{CounterArray, Estimator, SketchRead};
use cachesim::{CacheConfig, CacheTable};
use support::rand::{rngs::StdRng, Rng, SeedableRng};

/// One theory-vs-measured row.
#[derive(Debug, Clone)]
pub struct Check {
    /// What is being checked (with the paper equation).
    pub name: String,
    /// The analytic value.
    pub theory: f64,
    /// The measured value.
    pub measured: f64,
    /// Acceptable relative deviation for [`Check::passes`].
    pub tolerance: f64,
    /// Informational rows document a known deviation instead of
    /// gating; they always pass.
    pub informational: bool,
}

impl Check {
    /// Whether the measurement is within tolerance of the theory.
    pub fn passes(&self) -> bool {
        if self.informational {
            return true;
        }
        if self.theory == 0.0 {
            return self.measured.abs() <= self.tolerance;
        }
        ((self.measured - self.theory) / self.theory).abs() <= self.tolerance
    }
}

/// The full validation result.
#[derive(Debug, Clone)]
pub struct TheoryResult {
    /// All checks.
    pub checks: Vec<Check>,
    /// Model-variance 95%-CI coverage over all flows.
    pub ci_coverage_all: f64,
    /// Model-variance 95%-CI coverage over flows ≥ the large cutoff.
    pub ci_coverage_large: f64,
    /// Empirically calibrated 95%-CI coverage over all flows
    /// (`Caesar::query_with_empirical_ci`).
    pub ci_coverage_empirical: f64,
}

/// Eviction statistics of one trace replayed through the cache.
struct EvictionProfile {
    total: u64,
    value_sum: u64,
    full_capacity: u64,
}

fn profile_evictions(trace: &flowtrace::Trace, entries: usize, y: u64) -> EvictionProfile {
    let mut cache = CacheTable::new(CacheConfig::lru(entries, y));
    let mut p = EvictionProfile { total: 0, value_sum: 0, full_capacity: 0 };
    let tally = |value: u64, p: &mut EvictionProfile| {
        p.total += 1;
        p.value_sum += value;
        if value == y {
            p.full_capacity += 1;
        }
    };
    for pk in &trace.packets {
        if let Some(ev) = cache.record(pk.flow) {
            tally(ev.value, &mut p);
        }
    }
    for ev in cache.drain() {
        tally(ev.value, &mut p);
    }
    p
}

/// Run the validation at the given scale.
pub fn run(scale: Scale) -> TheoryResult {
    let mut checks = Vec::new();

    // --- Eviction model (Eqs. 6-10), both arrival regimes --------------
    for (regime, shared, informational) in [
        ("bursty", bursty_trace_for(scale), false),
        ("shuffled", trace_for(scale), true),
    ] {
        let trace = &shared.0;
        let y = (2.0 * trace.mean_flow_size()).floor() as u64;
        let p = profile_evictions(trace, scale.cache_entries(), y);
        checks.push(Check {
            name: format!("[{regime}] mean eviction value = y/2 (Eqs. 6-7)"),
            theory: y as f64 / 2.0,
            measured: p.value_sum as f64 / p.total as f64,
            tolerance: 0.45,
            informational,
        });
        checks.push(Check {
            name: format!("[{regime}] total evictions = 2n/y (Eq. 10)"),
            theory: 2.0 * trace.num_packets() as f64 / y as f64,
            measured: p.total as f64,
            tolerance: 0.6,
            informational,
        });
        checks.push(Check {
            name: format!("[{regime}] full-capacity eviction fraction (§6.2, small)"),
            theory: 0.0,
            measured: p.full_capacity as f64 / p.total as f64,
            tolerance: 0.5,
            informational,
        });
    }

    // --- Own-share mean/variance per counter (Eqs. 12 & 14) -----------
    let x = 540u64;
    let y = 55u64;
    let k = 3usize;
    let trials = 4_000;
    let mut rng = StdRng::seed_from_u64(0x7E07);
    let mut first_counter = Vec::with_capacity(trials);
    for _ in 0..trials {
        let mut sram = CounterArray::new(k, 32);
        // Evictions of an isolated flow: i.i.d. uniform values on
        // 1..=y until the mass is spent (the E_i sequence of §4.2).
        let mut remaining = x;
        while remaining > 0 {
            let e = rng.gen_range(1..=y).min(remaining);
            spread_eviction(&mut sram, &[0, 1, 2], e, &mut rng);
            remaining -= e;
        }
        first_counter.push(sram.get(0) as f64);
    }
    let mean = first_counter.iter().sum::<f64>() / trials as f64;
    let var = first_counter.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / trials as f64;
    checks.push(Check {
        name: "own share per counter E(Y) = x/k (Eq. 12)".into(),
        theory: theory::expected_own_share(x, k),
        measured: mean,
        tolerance: 0.05,
        informational: false,
    });
    checks.push(Check {
        name: "own share variance, corrected x(k−1)²/(yk²) (erratum E3)".into(),
        theory: theory::own_share_variance_corrected(x, y, k),
        measured: var,
        tolerance: 0.15,
        informational: false,
    });
    checks.push(Check {
        name: "own share variance as printed, x(k−1)²/(yk) (Eq. 14: k× too large)".into(),
        theory: theory::own_share_variance(x, y, k),
        measured: var,
        tolerance: 0.0,
        informational: true,
    });

    // --- Remainder Bernoulli (Eq. 4) -----------------------------------
    let mut hits = 0u64;
    let reps = 60_000;
    for _ in 0..reps {
        let mut sram = CounterArray::new(k, 32);
        spread_eviction(&mut sram, &[0, 1, 2], 1, &mut rng);
        hits += sram.get(0);
    }
    checks.push(Check {
        name: "remainder unit hits counter w.p. 1/k (Eq. 4)".into(),
        theory: theory::remainder_hit_probability(k),
        measured: hits as f64 / reps as f64,
        tolerance: 0.05,
        informational: false,
    });

    // --- Noise per counter (corrected Eq. 15) ---------------------------
    let shared = trace_for(scale);
    let (trace, truth) = (&shared.0, &shared.1);
    let sketch = run_caesar(caesar_config(scale), trace);
    let n = sketch.sram().total_added();
    let l = sketch.config().counters;
    checks.push(Check {
        name: "mean counter value = n/L (corrected Eq. 15, erratum E1)".into(),
        theory: theory::expected_noise_per_counter(n, l),
        measured: sketch.sram().sum() as f64 / l as f64,
        tolerance: 0.01,
        informational: false,
    });

    // --- CI coverage (erratum E2) ---------------------------------------
    // Coverage is a Monte Carlo estimate over the sketch's sharing
    // randomness, and the large-flow population is small (tens of
    // flows at Small scale), so a single sketch seed is under-powered:
    // averaging over several independent sharing layouts gives the
    // per-flow coverage probabilities enough samples to be stable.
    const COVERAGE_SKETCH_SEEDS: u64 = 5;
    let mut pairs: Vec<(u64, u64)> = truth.iter().map(|(&f, &x)| (f, x)).collect();
    pairs.sort_unstable();
    let mut cover_all = (0usize, 0usize);
    let mut cover_large = (0usize, 0usize);
    let mut cover_emp = (0usize, 0usize);
    let k = sketch.config().k as f64;
    for seed_off in 0..COVERAGE_SKETCH_SEEDS {
        let reseeded;
        let sketch = if seed_off == 0 {
            &sketch
        } else {
            let mut cfg = caesar_config(scale);
            cfg.seed = cfg.seed.wrapping_add(seed_off);
            reseeded = run_caesar(cfg, trace);
            &reseeded
        };
        let emp_var = sketch.empirical_counter_variance();
        let half_emp = caesar::gaussian::z_alpha(0.95) * (k * emp_var).sqrt();
        for &(flow, actual) in &pairs {
            let est = sketch.estimate(flow, Estimator::Csm);
            let (lo, hi) = est.confidence_interval(0.95);
            let inside = (lo..=hi).contains(&(actual as f64));
            cover_all.1 += 1;
            cover_all.0 += inside as usize;
            if actual >= LARGE_FLOW_THRESHOLD {
                cover_large.1 += 1;
                cover_large.0 += inside as usize;
            }
            let inside_emp =
                (est.value - half_emp..=est.value + half_emp).contains(&(actual as f64));
            cover_emp.1 += 1;
            cover_emp.0 += inside_emp as usize;
        }
    }

    TheoryResult {
        checks,
        ci_coverage_all: cover_all.0 as f64 / cover_all.1.max(1) as f64,
        ci_coverage_large: cover_large.0 as f64 / cover_large.1.max(1) as f64,
        ci_coverage_empirical: cover_emp.0 as f64 / cover_emp.1.max(1) as f64,
    }
}

impl TheoryResult {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["check", "theory", "measured", "status"]);
        for c in &self.checks {
            let status = if c.informational {
                "info"
            } else if c.passes() {
                "ok"
            } else {
                "FAIL"
            };
            t.row(vec![c.name.clone(), f(c.theory), f(c.measured), status.to_string()]);
        }
        format!(
            "Theory validation (§4)\n{}\
             95% model-CI coverage: {} over all flows, {} over flows >= {}\n\
             (collapses because the paper's model variance omits the\n\
             sharing-selection term — erratum E2)\n\
             95% empirically-calibrated CI coverage: {} — the repaired\n\
             interval from Caesar::query_with_empirical_ci\n",
            t.render(),
            pct(self.ci_coverage_all),
            pct(self.ci_coverage_large),
            LARGE_FLOW_THRESHOLD,
            pct(self.ci_coverage_empirical),
        )
    }

    /// CSV export.
    pub fn to_csv(&self) -> Vec<(String, String)> {
        let mut c = Csv::new(&["check", "theory", "measured", "status"]);
        for ch in &self.checks {
            c.row(&[
                ch.name.clone(),
                format!("{:.6}", ch.theory),
                format!("{:.6}", ch.measured),
                if ch.informational { "info".into() } else { ch.passes().to_string() },
            ]);
        }
        vec![("theory_checks.csv".into(), c.to_string())]
    }

    /// True when every gating check passes.
    pub fn all_pass(&self) -> bool {
        self.checks.iter().all(Check::passes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section4_claims_hold_at_small_scale() {
        let r = run(Scale::Small);
        assert!(r.all_pass(), "{}", r.render());
    }

    #[test]
    fn ci_coverage_recovers_on_large_flows() {
        let r = run(Scale::Small);
        assert!(
            r.ci_coverage_large > r.ci_coverage_all,
            "large {} vs all {}",
            r.ci_coverage_large,
            r.ci_coverage_all
        );
    }

    #[test]
    fn empirical_ci_repairs_the_coverage() {
        let r = run(Scale::Small);
        // The model CI covers almost nothing; the empirically
        // calibrated CI must be near its nominal 95%.
        assert!(r.ci_coverage_all < 0.2, "model coverage {}", r.ci_coverage_all);
        assert!(
            r.ci_coverage_empirical > 0.85,
            "empirical coverage {}",
            r.ci_coverage_empirical
        );
    }

    #[test]
    fn shuffled_regime_documents_eviction_collapse() {
        // The informational shuffled-regime rows must actually show the
        // collapse (mean eviction value well below y/2).
        let r = run(Scale::Tiny);
        let row = r
            .checks
            .iter()
            .find(|c| c.name.contains("[shuffled] mean eviction value"))
            .expect("row present");
        assert!(row.measured < 0.5 * row.theory, "{row:?}");
    }

    #[test]
    fn render_nonempty() {
        let r = run(Scale::Tiny);
        assert!(r.render().contains("Theory validation"));
        assert_eq!(r.to_csv().len(), 1);
    }
}
