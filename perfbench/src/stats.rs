//! Order statistics over samples, and the process's peak RSS.

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`.
///
/// # Panics
/// Panics on an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Quantile `q` of each repetition's samples; the median of those. A
/// slow spell that covers a few repetitions moves their own quantiles
/// only.
pub fn median_of_reps(reps: &[Vec<f64>], q: f64) -> f64 {
    let per_rep: Vec<f64> = reps
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| quantile(r, q))
        .collect();
    median(&per_rep)
}

/// Segment times of passes that each run the same sequence of
/// segments (drain batches, epochs).
#[derive(Debug, Default, Clone)]
pub struct Segments {
    passes: Vec<Vec<f64>>,
}

impl Segments {
    pub fn push(&mut self, pass: Vec<f64>) {
        debug_assert!(self.passes.first().is_none_or(|p| p.len() == pass.len()));
        self.passes.push(pass);
    }

    /// Each pass's total.
    pub fn totals(&self) -> Vec<f64> {
        self.passes.iter().map(|p| p.iter().sum()).collect()
    }

    /// For each segment position, quantile `q` of its times over the
    /// passes; summed. A neighbour that steals the processor during part
    /// of a pass slows a few segments of that pass; a low per-position
    /// quantile ignores them, where a quantile of pass totals would
    /// absorb the slowdown.
    pub fn total_at(&self, q: f64) -> f64 {
        let Some(first) = self.passes.first() else {
            return f64::NAN;
        };
        (0..first.len())
            .map(|i| quantile(&self.passes.iter().map(|p| p[i]).collect::<Vec<_>>(), q))
            .sum()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn per_position_quantiles_vote_out_slow_segments() {
        let mut s = Segments::default();
        s.push(vec![1.0, 2.0]);
        s.push(vec![9.0, 2.0]);
        s.push(vec![1.0, 2.0]);
        s.push(vec![1.0, 8.0]);
        assert_eq!(s.totals(), vec![3.0, 11.0, 3.0, 9.0]);
        assert_eq!(s.total_at(0.5), 3.0);
        assert_eq!(s.total_at(0.0), 3.0);
        assert_eq!(s.total_at(1.0), 17.0);
    }
}
