//! Summaries of measured samples, answer-check bookkeeping, and the
//! metric readings a run prints.
//!
//! Every rank goes through `fairsw_serve::percentile`, the workspace's
//! one nearest-rank percentile. A percentile is reported only when at
//! least [`MIN_BEYOND`] samples lie beyond its rank; otherwise the
//! reading is missing and the run counts as incorrect.

use fairsw_serve::percentile::{nearest_rank, percentile_sorted};

/// Samples that must lie beyond a percentile's rank for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-th percentile of a **sorted** sample, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond its rank.
pub fn guarded_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let idx = nearest_rank(sorted.len(), q)?;
    (sorted.len() - 1 - idx >= MIN_BEYOND).then(|| percentile_sorted(sorted, q))
}

/// `num / den`, or `None` when the quotient is not a finite number
/// (a zero, negative or non-finite base).
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (num.is_finite() && den.is_finite() && den > 0.0).then(|| num / den)
}

/// The arithmetic mean, or `None` for an empty sample.
pub fn mean(xs: &[f64]) -> Option<f64> {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// One metric's samples (a latency in one unit, a setup time, ...).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl From<Vec<f64>> for Samples {
    fn from(values: Vec<f64>) -> Self {
        Samples {
            values,
            sorted: false,
        }
    }
}

impl Samples {
    /// Adds one sample.
    #[inline]
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The guarded `q`-th percentile (see [`guarded_percentile`]).
    pub fn percentile(&mut self, q: f64) -> Option<f64> {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        guarded_percentile(&self.values, q)
    }

    /// The `q`-th quantile of a small sample (repeated set-ups):
    /// reported without the [`MIN_BEYOND`] guard, which is meant for the
    /// latency samples themselves.
    pub fn small_quantile(&mut self, q: f64) -> Option<f64> {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        nearest_rank(self.values.len(), q).map(|_| percentile_sorted(&self.values, q))
    }

    /// The median of a small sample: [`Samples::small_quantile`] at 0.5.
    pub fn small_median(&mut self) -> Option<f64> {
        self.small_quantile(0.5)
    }

    /// The arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        mean(&self.values)
    }
}

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value; `None` when it could not be measured.
    pub value: Option<f64>,
    /// How many samples the value summarizes.
    pub samples: usize,
}

impl Reading {
    /// A reading of `value` over `samples` samples.
    pub fn new(name: &'static str, unit: &'static str, value: Option<f64>, samples: usize) -> Self {
        Reading {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// Answer-check bookkeeping: every operation is attempted, and either
/// passes its check or counts as failed.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose answer was refused, failed or wrong.
    pub failed: u64,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
}

impl Ledger {
    /// Records one operation that passed or failed its check.
    #[inline]
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure that is not itself an attempted operation (a
    /// bound the run as a whole must meet).
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 10 {
            self.problems.push(what);
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problem(what);
    }

    /// Share of attempted operations that passed.
    pub fn ok_frac(&self) -> Option<f64> {
        ratio((self.attempted - self.failed) as f64, self.attempted as f64)
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, where the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of n samples sits at index ceil(0.99 n) - 1: 1000 samples
        // leave exactly 10 above it, 999 leave 9.
        let sorted: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(guarded_percentile(&sorted, 0.99), Some(989.0));
        assert_eq!(guarded_percentile(&sorted[..999], 0.99), None);
        // p50 of 21 samples leaves 10 above the median; 20 leave 10 too
        // (index 9), 19 leave 9.
        assert_eq!(guarded_percentile(&sorted[..21], 0.5), Some(10.0));
        assert_eq!(guarded_percentile(&sorted[..20], 0.5), Some(9.0));
        assert_eq!(guarded_percentile(&sorted[..19], 0.5), None);
        assert_eq!(guarded_percentile(&[], 0.5), None);
    }

    #[test]
    fn samples_sort_before_ranking() {
        let mut s = Samples::default();
        for v in (0..100).rev() {
            s.push(f64::from(v));
        }
        assert_eq!(s.len(), 100);
        assert_eq!(s.percentile(0.5), Some(49.0));
        assert_eq!(s.percentile(0.99), None);
        s.push(-1.0);
        assert_eq!(s.percentile(0.5), Some(49.0));
    }

    #[test]
    fn small_median_skips_the_tail_guard() {
        let mut s = Samples::default();
        assert_eq!(s.small_median(), None);
        for v in [0.3, 0.1, 0.2] {
            s.push(v);
        }
        assert_eq!(s.small_median(), Some(0.2));
        s.push(0.4);
        assert_eq!(s.small_quantile(0.25), Some(0.1));
        assert_eq!(s.small_quantile(0.75), Some(0.3));
    }

    #[test]
    fn ratio_refuses_a_bad_base() {
        assert_eq!(ratio(3.0, 2.0), Some(1.5));
        assert_eq!(ratio(0.0, 2.0), Some(0.0));
        assert_eq!(ratio(1.0, 0.0), None);
        assert_eq!(ratio(1.0, -1.0), None);
        assert_eq!(ratio(f64::INFINITY, 1.0), None);
        assert_eq!(ratio(1.0, f64::NAN), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn ledger_counts_failures_against_attempts() {
        let mut l = Ledger::default();
        assert_eq!(l.ok_frac(), None);
        l.check(true, || unreachable!());
        l.check(false, || "bad".into());
        l.check(true, || unreachable!());
        l.check(true, || unreachable!());
        assert_eq!((l.attempted, l.failed), (4, 1));
        assert_eq!(l.ok_frac(), Some(0.75));
        assert_eq!(l.problems, vec!["bad".to_string()]);
    }
}
