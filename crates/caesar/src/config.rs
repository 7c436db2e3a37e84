//! Configuration of the CAESAR pipeline.

use cachesim::CachePolicy;
use support::json::{Json, ToJson};

/// Which de-noising estimator the query phase uses (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimator {
    /// Counter Sum estimation Method — the paper's default (§6.3.1).
    Csm,
    /// Maximum Likelihood estimation Method — slightly better on small
    /// flows, slightly costlier.
    Mlm,
}

/// Full configuration of a [`crate::Caesar`] instance.
///
/// Notation maps to the paper's Table 1: `cache_entries = M`,
/// `entry_capacity = y`, `counters = L`, `k = k`,
/// `counter_bits = log2(l)`.
#[derive(Debug, Clone, Copy)]
pub struct CaesarConfig {
    /// Number of on-chip cache entries `M`.
    pub cache_entries: usize,
    /// Per-entry capacity `y`; the paper recommends `y = ⌊2·n/Q⌋`
    /// so that overflows are negligible (§6.2).
    pub entry_capacity: u64,
    /// Cache replacement policy (LRU or random in the paper).
    pub policy: CachePolicy,
    /// Number of off-chip SRAM counters `L`.
    pub counters: usize,
    /// Mapped counters per flow `k` (the paper uses small `k`, e.g. 3).
    pub k: usize,
    /// Bits per SRAM counter (`l = 2^counter_bits − 1` max value).
    pub counter_bits: u32,
    /// Default estimator for [`crate::SketchRead::query`].
    pub estimator: Estimator,
    /// Master seed (hash family, remainder scattering, random policy).
    pub seed: u64,
}

impl Default for CaesarConfig {
    /// Defaults mirror the paper's simulation operating point at 1/10
    /// scale: `k = 3`, 32-bit counters, LRU, `y = 54 ≈ 2·27.3`.
    fn default() -> Self {
        Self {
            cache_entries: 20_000,
            entry_capacity: 54,
            policy: CachePolicy::Lru,
            counters: 23_438,
            k: 3,
            counter_bits: 32,
            estimator: Estimator::Csm,
            seed: 0xCAE5A12D,
        }
    }
}

impl CaesarConfig {
    /// Off-chip SRAM size in KB: `L · log2(l) / (1024·8)` (§6.2).
    pub fn sram_kb(&self) -> f64 {
        self.counters as f64 * self.counter_bits as f64 / (1024.0 * 8.0)
    }

    /// On-chip cache size in KB with the given per-entry tag width.
    pub fn cache_kb(&self, tag_bits: u32) -> f64 {
        let counter_bits = 64 - (self.entry_capacity.max(2) - 1).leading_zeros();
        self.cache_entries as f64 * (counter_bits + tag_bits) as f64 / (1024.0 * 8.0)
    }

    /// Choose `L` to fit an SRAM budget in KB at this counter width.
    pub fn counters_for_sram_kb(kb: f64, counter_bits: u32) -> usize {
        ((kb * 1024.0 * 8.0) / counter_bits as f64).floor() as usize
    }

    /// Validate invariants, panicking with a clear message otherwise.
    pub fn validate(&self) {
        assert!(self.cache_entries > 0, "cache_entries (M) must be positive");
        assert!(self.entry_capacity >= 2, "entry_capacity (y) must be >= 2");
        assert!(self.counters > 0, "counters (L) must be positive");
        assert!(self.k >= 1, "k must be at least 1");
        assert!(
            self.k <= self.counters,
            "k ({}) cannot exceed the number of counters L ({})",
            self.k,
            self.counters
        );
        assert!(
            (1..=63).contains(&self.counter_bits),
            "counter_bits must be in 1..=63"
        );
    }
}

impl Estimator {
    /// Stable lowercase name (the CLI flag / JSON value).
    pub fn name(self) -> &'static str {
        match self {
            Estimator::Csm => "csm",
            Estimator::Mlm => "mlm",
        }
    }

    /// Parse [`Estimator::name`] back.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "csm" => Some(Estimator::Csm),
            "mlm" => Some(Estimator::Mlm),
            _ => None,
        }
    }
}

fn policy_name(p: CachePolicy) -> &'static str {
    match p {
        CachePolicy::Lru => "lru",
        CachePolicy::Random => "random",
        CachePolicy::Fifo => "fifo",
    }
}

fn policy_from_name(s: &str) -> Option<CachePolicy> {
    match s {
        "lru" => Some(CachePolicy::Lru),
        "random" => Some(CachePolicy::Random),
        "fifo" => Some(CachePolicy::Fifo),
        _ => None,
    }
}

impl ToJson for CaesarConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cache_entries", self.cache_entries.into()),
            ("entry_capacity", self.entry_capacity.into()),
            ("policy", policy_name(self.policy).into()),
            ("counters", self.counters.into()),
            ("k", self.k.into()),
            ("counter_bits", u64::from(self.counter_bits).into()),
            ("estimator", self.estimator.name().into()),
            ("seed", self.seed.into()),
        ])
    }
}

impl CaesarConfig {
    /// Rebuild a config from [`ToJson::to_json`] output. Returns `None`
    /// when a field is missing or malformed.
    pub fn from_json(j: &Json) -> Option<Self> {
        Some(Self {
            cache_entries: j.get("cache_entries")?.as_u64()? as usize,
            entry_capacity: j.get("entry_capacity")?.as_u64()?,
            policy: policy_from_name(j.get("policy")?.as_str()?)?,
            counters: j.get("counters")?.as_u64()? as usize,
            k: j.get("k")?.as_u64()? as usize,
            counter_bits: j.get("counter_bits")?.as_u64()? as u32,
            estimator: Estimator::from_name(j.get("estimator")?.as_str()?)?,
            seed: j.get("seed")?.as_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        CaesarConfig::default().validate();
    }

    #[test]
    fn json_roundtrip() {
        let cfg = CaesarConfig {
            cache_entries: 512,
            entry_capacity: 54,
            policy: CachePolicy::Random,
            counters: 2048,
            k: 5,
            counter_bits: 20,
            estimator: Estimator::Mlm,
            seed: 0xDEADBEEF,
        };
        let text = cfg.to_json_string();
        let parsed = support::json::parse(&text).expect("valid json");
        let back = CaesarConfig::from_json(&parsed).expect("all fields");
        assert_eq!(back.cache_entries, cfg.cache_entries);
        assert_eq!(back.entry_capacity, cfg.entry_capacity);
        assert_eq!(back.policy, cfg.policy);
        assert_eq!(back.counters, cfg.counters);
        assert_eq!(back.k, cfg.k);
        assert_eq!(back.counter_bits, cfg.counter_bits);
        assert_eq!(back.estimator, cfg.estimator);
        assert_eq!(back.seed, cfg.seed);
    }

    #[test]
    fn sram_kb_matches_paper_formula() {
        // The paper's Fig. 4 SRAM point: 91.55 KB with 32-bit counters
        // is about 23,437 counters.
        let cfg = CaesarConfig {
            counters: 23_437,
            counter_bits: 32,
            ..CaesarConfig::default()
        };
        assert!((cfg.sram_kb() - 91.55).abs() < 0.05, "{}", cfg.sram_kb());
    }

    #[test]
    fn counters_for_budget_inverts_sram_kb() {
        let l = CaesarConfig::counters_for_sram_kb(91.55, 32);
        let cfg = CaesarConfig {
            counters: l,
            counter_bits: 32,
            ..CaesarConfig::default()
        };
        assert!(cfg.sram_kb() <= 91.55);
        assert!(cfg.sram_kb() > 91.0);
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn k_bigger_than_l_invalid() {
        CaesarConfig {
            k: 10,
            counters: 5,
            ..CaesarConfig::default()
        }
        .validate();
    }
}
