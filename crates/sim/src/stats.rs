//! Latency and occupancy statistics for the metrics layer.
//!
//! * [`Histogram`] — log₂-bucketed histogram with quantile estimation,
//!   suitable for latency distributions spanning nanoseconds to seconds;
//!   replay percentiles and the metrics registry use it.
//! * [`TimeWeighted`] — time-weighted average of a level signal (e.g. DRAM
//!   pages occupied), integrated against the simulation clock.

use crate::report::{field, FromReport, ReportError, ToReport, Value};
use crate::time::{SimDuration, SimTime};

/// Log₂-bucketed histogram of non-negative integer values.
///
/// Bucket `i` holds values in `[2^(i-1), 2^i)` for `i ≥ 1`, bucket 0 holds
/// zero and one. Quantiles are estimated by linear interpolation within the
/// bucket, which is plenty for "p99 latency"-style reporting across the
/// nine orders of magnitude the devices span.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Number of buckets: one for `{0, 1}`, one per power of two up to
    /// `2^63`, and a top bucket reaching `u64::MAX`.
    pub const BUCKETS: usize = 65;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; Self::BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Inclusive value range `[lo, hi]` of bucket `i` — the structural
    /// boundaries `obs-diff` compares distributions by, and the labels
    /// `trace-dump` renders. The top bucket ends at `u64::MAX`, not
    /// `2^64` (which does not exist in `u64`).
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ BUCKETS`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < Self::BUCKETS, "bucket index {i} out of range");
        if i == 0 {
            (0, 1)
        } else if i == Self::BUCKETS - 1 {
            ((1u64 << 63) + 1, u64::MAX)
        } else {
            ((1u64 << (i - 1)) + 1, 1u64 << i)
        }
    }

    /// Per-bucket counts, indexed consistently with
    /// [`Self::bucket_bounds`].
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    fn bucket_of(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            64 - (v - 1).leading_zeros() as usize
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of recorded values, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0 ≤ q ≤ 1`), or 0 if empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                // Bucket 64 holds (2^63, u64::MAX]; `1 << 64` would wrap.
                let hi = if i == 0 {
                    1
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                let frac = (target - seen) as f64 / c as f64;
                // The f64 round-trip can land one past `hi` at the top
                // bucket; saturate rather than wrap.
                return lo.saturating_add(((hi - lo) as f64 * frac) as u64);
            }
            seen += c;
        }
        1u64 << 63
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Time-weighted average of a level signal.
///
/// Call [`TimeWeighted::set`] whenever the level changes; the accumulator
/// integrates `level × dt` so that, e.g., "average DRAM pages in use" is
/// weighted by how long each occupancy lasted, not by how often it changed.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    level: f64,
    last_change: SimTime,
    integral: f64,
    start: SimTime,
    peak: f64,
}

impl TimeWeighted {
    /// Creates an accumulator starting at `level` at instant `now`.
    pub fn new(now: SimTime, level: f64) -> Self {
        TimeWeighted {
            level,
            last_change: now,
            integral: 0.0,
            start: now,
            peak: level,
        }
    }

    /// Updates the level at instant `now`.
    pub fn set(&mut self, now: SimTime, level: f64) {
        debug_assert!(now >= self.last_change, "time went backwards");
        self.integral += self.level * now.since(self.last_change).as_nanos() as f64;
        self.last_change = now;
        self.level = level;
        self.peak = self.peak.max(level);
    }

    /// Adds `delta` to the current level at instant `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let next = self.level + delta;
        self.set(now, next);
    }

    /// Current level.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Peak level observed.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-weighted mean level over `[start, now]`, or the current level if
    /// no time has elapsed.
    pub fn mean(&self, now: SimTime) -> f64 {
        let total = now.since(self.start).as_nanos() as f64;
        if total == 0.0 {
            return self.level;
        }
        let integral = self.integral + self.level * now.since(self.last_change).as_nanos() as f64;
        integral / total
    }
}

impl ToReport for Histogram {
    fn to_report(&self) -> Value {
        // Bucket upper bounds ride along so a decoded snapshot can be
        // compared structurally (bucket-by-bucket) without trusting that
        // both sides were built with the same bucketing scheme.
        let bounds: Vec<u64> = (0..Self::BUCKETS)
            .map(|i| Self::bucket_bounds(i).1)
            .collect();
        Value::object(vec![
            ("buckets", self.buckets.to_report()),
            ("count", self.count.to_report()),
            ("sum", self.sum.to_report()),
            ("bounds", bounds.to_report()),
        ])
    }
}

impl FromReport for Histogram {
    fn from_report(v: &Value) -> Result<Self, ReportError> {
        let h = Histogram {
            buckets: field(v, "buckets")?,
            count: field(v, "count")?,
            sum: field(v, "sum")?,
        };
        if h.buckets.len() != Self::BUCKETS {
            return Err(ReportError::schema(format!(
                "histogram has {} buckets, expected {}",
                h.buckets.len(),
                Self::BUCKETS
            )));
        }
        // Older artifacts omit "bounds"; when present it must match this
        // build's bucketing scheme or per-bucket comparisons would lie.
        if let Some(b) = v.get("bounds") {
            let got: Vec<u64> = FromReport::from_report(b)?;
            let want: Vec<u64> = (0..Self::BUCKETS)
                .map(|i| Self::bucket_bounds(i).1)
                .collect();
            if got != want {
                return Err(ReportError::schema("histogram bucket bounds mismatch"));
            }
        }
        Ok(h)
    }
}

impl ToReport for TimeWeighted {
    fn to_report(&self) -> Value {
        Value::object(vec![
            ("level", self.level.to_report()),
            ("last_change", self.last_change.to_report()),
            ("integral", self.integral.to_report()),
            ("start", self.start.to_report()),
            ("peak", self.peak.to_report()),
        ])
    }
}

impl FromReport for TimeWeighted {
    fn from_report(v: &Value) -> Result<Self, ReportError> {
        Ok(TimeWeighted {
            level: field(v, "level")?,
            last_change: field(v, "last_change")?,
            integral: field(v, "integral")?,
            start: field(v, "start")?,
            peak: field(v, "peak")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(5), 3);
        assert_eq!(Histogram::bucket_of(1024), 10);
        assert_eq!(Histogram::bucket_of(1025), 11);
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((256..=1024).contains(&p50), "p50 was {p50}");
        assert!(p99 >= p50);
        assert!((h.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_observation_is_every_quantile() {
        let mut h = Histogram::new();
        h.record(7);
        assert_eq!(h.quantile(0.0), 7);
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.quantile(1.0), 7);
        // Bucket 0 holds both 0 and 1, so a lone zero reads back within
        // the bucket, not exactly.
        let mut z = Histogram::new();
        z.record(0);
        assert!(z.quantile(0.5) <= 1);
    }

    #[test]
    fn top_bucket_saturates_instead_of_overflowing() {
        // u64::MAX lands in bucket 64, whose upper bound must clamp to
        // u64::MAX rather than compute `1 << 64`.
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record((1u64 << 63) + 1);
        let p100 = h.quantile(1.0);
        assert!(p100 > 1u64 << 63, "p100 was {p100}");
        let p1 = h.quantile(0.01);
        assert!(p1 >= 1u64 << 63, "p1 was {p1}");
        assert_eq!(h.count(), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "time went backwards")]
    fn time_weighted_rejects_backwards_time() {
        let mut w = TimeWeighted::new(SimTime::from_nanos(100), 1.0);
        w.set(SimTime::from_nanos(50), 2.0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn time_weighted_mean_is_duration_weighted() {
        let t = |s: u64| SimTime::from_nanos(s * 1_000_000_000);
        let mut w = TimeWeighted::new(t(0), 0.0);
        w.set(t(1), 10.0); // level 0 for 1 s
        w.set(t(3), 0.0); // level 10 for 2 s
                          // Over [0, 4]: (0*1 + 10*2 + 0*1) / 4 = 5.
        assert!((w.mean(t(4)) - 5.0).abs() < 1e-9);
        assert_eq!(w.peak(), 10.0);
        assert_eq!(w.level(), 0.0);
    }

    #[test]
    fn time_weighted_zero_span_returns_level() {
        let now = SimTime::from_nanos(5);
        let w = TimeWeighted::new(now, 3.0);
        assert_eq!(w.mean(now), 3.0);
    }

    #[test]
    fn bucket_bounds_partition_the_u64_range() {
        // Every bucket starts one past the previous bucket's end, and the
        // top bucket ends at u64::MAX — not a phantom 2^64.
        assert_eq!(Histogram::bucket_bounds(0), (0, 1));
        assert_eq!(Histogram::bucket_bounds(1), (2, 2));
        assert_eq!(Histogram::bucket_bounds(2), (3, 4));
        assert_eq!(
            Histogram::bucket_bounds(Histogram::BUCKETS - 1),
            ((1u64 << 63) + 1, u64::MAX)
        );
        for i in 1..Histogram::BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(lo, Histogram::bucket_bounds(i - 1).1 + 1, "bucket {i}");
            assert!(hi >= lo, "bucket {i}");
        }
    }

    #[test]
    fn bucket_bounds_agree_with_record() {
        let mut h = Histogram::new();
        for i in 0..Histogram::BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            h = Histogram::new();
            h.record(lo);
            h.record(hi);
            assert_eq!(h.bucket_counts()[i], 2, "bucket {i} holds its bounds");
        }
        let _ = h;
    }

    #[test]
    fn histogram_snapshot_carries_bounds_and_tolerates_their_absence() {
        let mut h = Histogram::new();
        h.record(7);
        h.record(u64::MAX);
        let v = h.to_report();
        assert!(v.get("bounds").is_some());
        let back = Histogram::from_report(&v).expect("round trip");
        assert_eq!(back.bucket_counts(), h.bucket_counts());

        // Pre-bounds artifacts (no "bounds" key) still decode.
        let old = Value::object(vec![
            ("buckets", h.bucket_counts().to_vec().to_report()),
            ("count", h.count().to_report()),
            ("sum", h.sum().to_report()),
        ]);
        assert!(Histogram::from_report(&old).is_ok());

        // A mismatched scheme is rejected, not silently miscompared.
        let bogus: Vec<u64> = (0..Histogram::BUCKETS as u64).collect();
        let bad = Value::object(vec![
            ("buckets", h.bucket_counts().to_vec().to_report()),
            ("count", h.count().to_report()),
            ("sum", h.sum().to_report()),
            ("bounds", bogus.to_report()),
        ]);
        assert!(Histogram::from_report(&bad).is_err());
    }
}
