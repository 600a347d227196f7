//! The benchmark's own arithmetic: percentiles, medians, the tail
//! window, failure accounting and fingerprint comparison. Everything
//! here is pure so the tests below can pin it.

use std::collections::BTreeMap;

/// Samples a reported percentile must leave beyond itself; a rarer tail
/// than this is noise, not a percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least a `q` share of all samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `(0, 1]`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the `q` percentile's rank among `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The highest of `candidates` that leaves at least
/// [`MIN_SAMPLES_BEYOND`] of `n` samples beyond it, or `None` when even
/// the lowest candidate does not.
pub fn tail_quantile(n: usize, candidates: &[f64]) -> Option<f64> {
    let mut best: Option<f64> = None;
    for &q in candidates {
        if samples_beyond(n, q) >= MIN_SAMPLES_BEYOND && best.is_none_or(|b| q > b) {
            best = Some(q);
        }
    }
    best
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Index of the first op of the tail window: the final tenth of `n`
/// ops, and never fewer than one op.
pub fn tail_start(n: u64) -> u64 {
    n - (n / 10).max(1).min(n)
}

/// Ops per second, or zero when no time passed.
pub fn rate(ops: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        ops as f64 / secs
    } else {
        0.0
    }
}

/// Where every record of a run went: applied cleanly, applied with an
/// error, or never applied because the host deadline stopped the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Records the trace holds, all of which the run set out to replay.
    pub attempted: u64,
    /// Records applied, whether or not the operation succeeded.
    pub replayed: u64,
    /// Applied records whose operation returned an error.
    pub op_errors: u64,
}

impl Accounting {
    /// Records the deadline left unapplied.
    pub fn unreplayed(&self) -> u64 {
        self.attempted - self.replayed
    }

    /// Failed plus unreplayed records.
    pub fn failed(&self) -> u64 {
        self.op_errors + self.unreplayed()
    }

    /// Failed plus unreplayed records over records attempted.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Whether every record is either replayed or counted as failed
    /// and the counts are consistent with each other.
    pub fn is_balanced(&self) -> bool {
        self.replayed <= self.attempted && self.op_errors <= self.replayed
    }

    /// Sums two runs' accounts.
    pub fn add(self, other: Accounting) -> Accounting {
        Accounting {
            attempted: self.attempted + other.attempted,
            replayed: self.replayed + other.replayed,
            op_errors: self.op_errors + other.op_errors,
        }
    }
}

/// A run's simulated state in exact integers: the final SimTime plus
/// every layer counter. Two runs of the same records must agree on all
/// of it, whatever the host did.
pub type Fingerprint = BTreeMap<String, u64>;

/// Every key on which `a` and `b` disagree, with both values; a key
/// present on one side only counts as a disagreement.
pub fn fingerprint_diff(a: &Fingerprint, b: &Fingerprint) -> Vec<String> {
    let mut out = Vec::new();
    for (k, va) in a {
        match b.get(k) {
            Some(vb) if vb == va => {}
            Some(vb) => out.push(format!("{k}: {va} != {vb}")),
            None => out.push(format!("{k}: {va} != (absent)")),
        }
    }
    for (k, vb) in b {
        if !a.contains_key(k) {
            out.push(format!("{k}: (absent) != {vb}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), 500);
        assert_eq!(percentile(&v, 0.999), 999);
        assert_eq!(percentile(&v, 1.0), 1000);
        assert_eq!(percentile(&[7], 0.999), 7);
        // A fraction of a rank rounds up, never down.
        assert_eq!(percentile(&[1, 2, 3], 0.5), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.51), 3);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        let q = [0.999, 0.99, 0.9];
        // 150k samples leave 150 beyond p99.9.
        assert_eq!(tail_quantile(150_000, &q), Some(0.999));
        assert_eq!(samples_beyond(150_000, 0.999), 150);
        // 10k leave exactly ten beyond p99.9, which is enough.
        assert_eq!(tail_quantile(10_000, &q), Some(0.999));
        // 9,999 leave nine, so the choice drops to p99.
        assert_eq!(samples_beyond(9_999, 0.999), 9);
        assert_eq!(tail_quantile(9_999, &q), Some(0.99));
        assert_eq!(tail_quantile(200, &q), Some(0.9));
        assert_eq!(tail_quantile(50, &q), None);
        // Candidate order does not matter.
        assert_eq!(tail_quantile(150_000, &[0.9, 0.999, 0.99]), Some(0.999));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn tail_window_is_the_final_tenth() {
        assert_eq!(tail_start(150_000), 135_000);
        assert_eq!(tail_start(20_001), 18_001);
        // Short runs still get a one-op tail.
        assert_eq!(tail_start(9), 8);
        assert_eq!(tail_start(1), 0);
        assert_eq!(rate(15_000, 0.5), 30_000.0);
        assert_eq!(rate(10, 0.0), 0.0);
    }

    #[test]
    fn failure_share_counts_errors_and_deadline_aborts() {
        let clean = Accounting {
            attempted: 1_000,
            replayed: 1_000,
            op_errors: 0,
        };
        assert_eq!(clean.failed(), 0);
        assert_eq!(clean.failed_share(), 0.0);
        // The deadline stopped the run after 600 records, 5 of which
        // failed: the 400 never applied count as failed too.
        let aborted = Accounting {
            attempted: 1_000,
            replayed: 600,
            op_errors: 5,
        };
        assert_eq!(aborted.unreplayed(), 400);
        assert_eq!(aborted.failed(), 405);
        assert_eq!(aborted.failed_share(), 0.405);
        assert!(aborted.is_balanced());
        let both = clean.add(aborted);
        assert_eq!(both.attempted, 2_000);
        assert_eq!(both.failed(), 405);
        assert_eq!(both.failed_share(), 405.0 / 2_000.0);
        let broken = Accounting {
            attempted: 10,
            replayed: 4,
            op_errors: 5,
        };
        assert!(!broken.is_balanced());
    }

    #[test]
    fn fingerprint_diff_names_every_disagreement() {
        let mut a = Fingerprint::new();
        a.insert("sim_time_ns".into(), 10);
        a.insert("flash.programs".into(), 3);
        let mut b = a.clone();
        assert!(fingerprint_diff(&a, &b).is_empty());
        b.insert("flash.programs".into(), 4);
        b.insert("storage.gc_runs".into(), 1);
        let d = fingerprint_diff(&a, &b);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].starts_with("flash.programs: 3 != 4"));
        assert!(d[1].starts_with("storage.gc_runs: (absent)"));
    }
}
