//! The metrics vocabulary every serving layer shares: the log₂ bucket
//! shape, the concurrent [`LogHistogram`] built on it, and the typed
//! errors a snapshot diff can raise.
//!
//! Recording is one relaxed `fetch_add` — no locks, no allocation.
//! Percentiles are computed at *snapshot* time from the bucket counts;
//! bucket `b` holds durations in `[2^(b-1), 2^b)` nanoseconds, so a
//! reported quantile is exact to within a factor of 2. The shape is
//! defined once, here: [`HIST_BUCKETS`] buckets, [`log2_bucket`] (value
//! → bucket), [`bucket_upper_ns`] (bucket → upper edge). Recording,
//! quantiles, the Prometheus `le` labels and slow-log exemplars all go
//! through them, so a finer shape is a change to this file alone.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::export::{PromWriter, SlowLog};

/// Number of log₂ buckets: covers 1 ns up to ~584 years.
pub const HIST_BUCKETS: usize = 64;

/// A duration as whole nanoseconds, saturating at `u64::MAX` (~584
/// years): the unit histograms, records and counters carry.
#[must_use]
pub fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The bucket a nanosecond value falls in: its bit length, so 0 →
/// bucket 0 and `ns ∈ [2^(b-1), 2^b)` → bucket `b`, with everything
/// from `2^62` up absorbed by the open-ended top bucket.
#[must_use]
pub fn log2_bucket(ns: u64) -> usize {
    ((u64::BITS - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// The upper edge of a bucket in nanoseconds: `2^bucket`. The top
/// bucket is open-ended, so its nominal edge `2^63` is a *lower* bound
/// on what it holds (see [`HistogramSnapshot::quantile`]); indexes past
/// it clamp to it.
#[must_use]
pub fn bucket_upper_ns(bucket: usize) -> u64 {
    1u64 << bucket.min(HIST_BUCKETS - 1)
}

/// A concurrent log₂-bucket histogram of durations, shared by every
/// layer that records a latency distribution.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    /// Records one duration. Wait-free: a single relaxed increment.
    pub fn record(&self, d: Duration) {
        let ns = saturating_ns(d);
        self.buckets[log2_bucket(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// An immutable copy of the current bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// An immutable copy of a [`LogHistogram`]'s bucket counts.
///
/// Bucket `b` counts durations in `[2^(b-1), 2^b)` nanoseconds (bucket 0
/// counts exact zeros), so quantiles are upper bounds tight to 2×.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Raw bucket counts, by log₂(nanoseconds).
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistogramSnapshot {
    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The duration below which a fraction `q` (in `[0, 1]`) of samples
    /// fall, reported as the upper bound of the containing bucket (so the
    /// true quantile lies within 2× below the returned value). Returns
    /// `None` when the histogram is empty.
    ///
    /// **Top bucket**: bucket 63 is open-ended — it absorbs every
    /// duration of `2^62` ns (~146 years) and beyond, including the
    /// `Duration::MAX` / `u64::MAX`-nanosecond saturation of
    /// [`LogHistogram::record`]. A quantile landing there reports
    /// `Duration::from_nanos(1 << 63)`, the bucket's nominal upper
    /// bound; unlike every other bucket this is a *lower* bound on the
    /// true value. It deliberately never reports `Duration::MAX`, so
    /// arithmetic on the result cannot overflow.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Duration::from_nanos(bucket_upper_ns(b)));
            }
        }
        None
    }

    /// Bucket-wise difference `self - earlier` — the histogram of
    /// samples recorded between two snapshots of one histogram.
    ///
    /// # Errors
    /// [`SnapshotDiffError`] when any bucket of `earlier` exceeds the
    /// corresponding bucket of `self` — i.e. the snapshots are not an
    /// (earlier, later) pair of the same monotone histogram. The old
    /// behavior silently saturated such mismatches to zero, which made
    /// a swapped-argument bug read as "an idle interval".
    pub fn minus(
        &self,
        earlier: &HistogramSnapshot,
    ) -> Result<HistogramSnapshot, SnapshotDiffError> {
        for (b, (&later, &early)) in self.buckets.iter().zip(earlier.buckets.iter()).enumerate() {
            if early > later {
                let (field, bucket) = ("histogram", Some(b));
                return Err(SnapshotDiffError { field, bucket, later, earlier: early });
            }
        }
        Ok(HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i] - earlier.buckets[i]),
        })
    }

    /// Bucket-wise accumulation `self += other`, saturating at
    /// `u64::MAX` — the dual of [`HistogramSnapshot::minus`], for
    /// folding many replica histograms into one cluster view.
    ///
    /// Merged snapshots keep the per-snapshot quantile semantics: an
    /// all-zero merge result is *empty* (`quantile` returns `None`, it
    /// never invents a duration), and samples pooled into bucket 63 stay
    /// open-ended (a quantile landing there reports `2^63` ns as a
    /// lower bound — see [`HistogramSnapshot::quantile`]).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
    }
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; HIST_BUCKETS] }
    }
}

/// A diff was asked of two snapshots that are not an (earlier, later)
/// pair of one source: a series that only grows shrank between them.
/// Raised by [`HistogramSnapshot::minus`] and by the `minus` that
/// [`counter_set!`](macro@crate::counter_set) generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotDiffError {
    /// The first *delta* field that shrank, as its descriptor row names
    /// it; `"histogram"` for a histogram diffed on its own.
    pub field: &'static str,
    /// The first shrinking bucket when `field` is a histogram.
    pub bucket: Option<usize>,
    /// The series' (or that bucket's) value in the claimed later snapshot.
    pub later: u64,
    /// Its value in the claimed earlier snapshot.
    pub earlier: u64,
}

impl fmt::Display for SnapshotDiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (field, bucket) = (self.field, self.bucket.map(|b| format!(" bucket {b}")));
        write!(
            f,
            "{field}{} shrank from {} to {}: snapshots are not an (earlier, later) pair",
            bucket.unwrap_or_default(),
            self.earlier,
            self.later
        )
    }
}

impl std::error::Error for SnapshotDiffError {}

// The vendored serde derive writes structs as objects and has no
// fixed-size array impl, so the bucket array serializes by hand — as a
// bare JSON array, the obvious wire shape. This is the one hand-written
// codec under `crates/` (a CI grep keeps it so).
impl serde::Serialize for HistogramSnapshot {
    fn serialize_json(&self, out: &mut String) {
        use std::fmt::Write;
        out.push('[');
        for (i, b) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{b}").expect("infallible");
        }
        out.push(']');
    }
}

impl serde::Deserialize for HistogramSnapshot {
    fn deserialize_json(parser: &mut serde::de::Parser<'_>) -> Result<Self, serde::de::Error> {
        let counts: Vec<u64> = serde::Deserialize::deserialize_json(parser)?;
        if counts.len() != HIST_BUCKETS {
            return Err(serde::de::Error::custom(format!(
                "histogram must have exactly {HIST_BUCKETS} buckets, got {}",
                counts.len()
            )));
        }
        Ok(HistogramSnapshot { buckets: std::array::from_fn(|i| counts[i]) })
    }
}

/// Writes one log₂ histogram in Prometheus text form: sparse cumulative
/// `_bucket` lines (with exemplars where `slow` has one for the
/// bucket), then the `+Inf` bucket and `_count`. `le` is the bucket's
/// upper edge in nanoseconds.
pub fn prom_histogram(
    w: &mut PromWriter,
    name: &str,
    help: &str,
    h: &HistogramSnapshot,
    slow: Option<&SlowLog>,
) {
    w.header(name, help, "histogram");
    let bucket_name = format!("{name}_bucket");
    let mut cumulative = 0u64;
    for (b, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cumulative += c;
        let le = bucket_upper_ns(b).to_string();
        let exemplar = slow.map_or(0, |s| s.exemplar(b));
        if exemplar != 0 {
            w.sample_with_exemplar(&bucket_name, &[("le", &le)], cumulative, exemplar);
        } else {
            w.sample(&bucket_name, &[("le", &le)], cumulative);
        }
    }
    w.sample(&bucket_name, &[("le", "+Inf")], cumulative);
    w.sample(&format!("{name}_count"), &[], cumulative);
}

/// Renders a latency quantile for the human-readable metric summaries
/// (`-` when the histogram is empty).
pub fn fmt_dur(d: Option<Duration>) -> String {
    match d {
        None => "-".to_string(),
        Some(d) if d.as_nanos() < 1_000 => format!("{}ns", d.as_nanos()),
        Some(d) if d.as_nanos() < 1_000_000 => format!("{:.1}µs", d.as_nanos() as f64 / 1e3),
        Some(d) if d.as_nanos() < 1_000_000_000 => format!("{:.1}ms", d.as_nanos() as f64 / 1e6),
        Some(d) => format!("{:.2}s", d.as_secs_f64()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        let h = LogHistogram::new();
        h.record(Duration::from_nanos(0)); // bucket 0
        h.record(Duration::from_nanos(1)); // bucket 1
        h.record(Duration::from_nanos(2)); // bucket 2
        h.record(Duration::from_nanos(3)); // bucket 2
        h.record(Duration::from_nanos(4)); // bucket 3
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets[3], 1);
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn quantiles_are_two_x_upper_bounds() {
        let h = LogHistogram::new();
        for _ in 0..99 {
            h.record(Duration::from_nanos(100)); // bucket 7, upper 128
        }
        h.record(Duration::from_micros(100)); // bucket 17, upper 131072
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), Some(Duration::from_nanos(128)));
        assert_eq!(s.quantile(0.99), Some(Duration::from_nanos(128)));
        assert_eq!(s.quantile(1.0), Some(Duration::from_nanos(131072)));
        // True value (100ns) within 2x below the reported bound.
        assert!(s.quantile(0.5).unwrap() <= Duration::from_nanos(200));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let s = LogHistogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), None);
    }

    #[test]
    fn absurd_durations_saturate_the_top_bucket() {
        // Durations beyond 2^63 ns (~292 years) — including the u64::MAX
        // nanosecond clamp of Duration::MAX — land in the last bucket
        // instead of indexing out of bounds, and quantiles report that
        // bucket's upper bound.
        let h = LogHistogram::new();
        h.record(Duration::MAX);
        h.record(Duration::from_secs(u64::MAX));
        h.record(Duration::from_nanos(u64::MAX));
        let s = h.snapshot();
        assert_eq!(s.buckets[HIST_BUCKETS - 1], 3);
        assert_eq!(s.count(), 3);
        assert_eq!(s.quantile(1.0), Some(Duration::from_nanos(1u64 << 63)));
        // Saturated buckets still diff and pool without overflow.
        let mut pooled = s;
        pooled.merge(&s);
        assert_eq!(pooled.buckets[HIST_BUCKETS - 1], 6);
        assert_eq!(s.minus(&s).expect("same snapshot diffs cleanly").count(), 0);
    }

    #[test]
    fn p999_is_meaningful_below_1000_observations() {
        // With 10 samples the 0.999-quantile target rounds up to the
        // 10th sample: the single outlier *is* the p999, not an
        // extrapolation and not a panic.
        let h = LogHistogram::new();
        for _ in 0..9 {
            h.record(Duration::from_nanos(100)); // bucket 7, upper 128
        }
        h.record(Duration::from_millis(1)); // bucket 20, upper ~2.1ms
        let s = h.snapshot();
        assert_eq!(s.quantile(0.999), Some(Duration::from_nanos(1 << 20)));
        assert_eq!(s.quantile(0.9), Some(Duration::from_nanos(128)));
        // A single observation answers every quantile with its bucket.
        let one = LogHistogram::new();
        one.record(Duration::from_nanos(100));
        let s = one.snapshot();
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(s.quantile(q), Some(Duration::from_nanos(128)), "q = {q}");
        }
    }

    #[test]
    fn snapshot_diff_meters_an_interval() {
        let h = LogHistogram::new();
        h.record(Duration::from_nanos(10));
        let before = h.snapshot();
        h.record(Duration::from_nanos(10));
        h.record(Duration::from_nanos(10));
        let delta = h.snapshot().minus(&before).expect("later minus earlier");
        assert_eq!(delta.count(), 2);

        // Swapped arguments are a caller bug and must surface as an
        // error naming the shrinking bucket, not read as "idle".
        let err = before.minus(&h.snapshot()).expect_err("earlier minus later");
        assert_eq!(err.bucket, Some(4)); // 10ns -> bucket 4
        assert_eq!((err.earlier, err.later), (3, 1));
        assert!(err.to_string().contains("bucket 4"));
    }

    #[test]
    fn merge_is_the_in_place_plus_and_minus_recovers_it() {
        let h = LogHistogram::new();
        h.record(Duration::from_nanos(10));
        h.record(Duration::from_micros(10));
        let a = h.snapshot();
        let g = LogHistogram::new();
        g.record(Duration::from_nanos(10));
        g.record(Duration::from_millis(10));
        g.record(Duration::from_secs(10));
        let b = g.snapshot();

        // Bucket-wise add commutes.
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), a.count() + b.count());

        // merge is the dual of minus: subtracting one operand recovers
        // the other exactly.
        assert_eq!(ab.minus(&b).expect("merged minus operand"), a);
        assert_eq!(ab.minus(&a).expect("merged minus operand"), b);

        // Saturation, not wraparound, at the counter ceiling.
        let mut top = HistogramSnapshot { buckets: [u64::MAX - 1; HIST_BUCKETS] };
        top.merge(&b);
        assert!(top.buckets.iter().all(|&c| c == u64::MAX || c == u64::MAX - 1));
    }

    proptest::proptest! {
        /// Property: for arbitrary bucket counts, merge is the
        /// bucket-wise sum, commutes, saturates instead of wrapping, and
        /// `minus` undoes it whenever no bucket saturated.
        #[test]
        fn merge_matches_plus_for_arbitrary_buckets(
            a in proptest::collection::vec(0u64..=u64::MAX - 1, HIST_BUCKETS),
            b in proptest::collection::vec(0u64..=u64::MAX - 1, HIST_BUCKETS),
        ) {
            let a = HistogramSnapshot { buckets: std::array::from_fn(|i| a[i]) };
            let b = HistogramSnapshot { buckets: std::array::from_fn(|i| b[i]) };
            let mut merged = a;
            merged.merge(&b);
            let sum = HistogramSnapshot {
                buckets: std::array::from_fn(|i| a.buckets[i].saturating_add(b.buckets[i])),
            };
            proptest::prop_assert_eq!(merged, sum);
            let mut flipped = b;
            flipped.merge(&a);
            proptest::prop_assert_eq!(merged, flipped);
            let saturated = a.buckets.iter().zip(b.buckets.iter()).any(|(&x, &y)| x.checked_add(y).is_none());
            if !saturated {
                proptest::prop_assert_eq!(merged.minus(&b).expect("no saturation"), a);
            }
        }
    }

    #[test]
    fn merged_snapshot_quantile_edges() {
        // All-zero merge result: still an *empty* histogram — quantiles
        // are None at every q, exactly like a fresh snapshot. A merged
        // cluster view over idle replicas must not invent a latency.
        let mut zero = HistogramSnapshot::default();
        zero.merge(&HistogramSnapshot::default());
        assert_eq!(zero.count(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(zero.quantile(q), None, "q = {q}");
        }

        // Top-bucket-only merge: every quantile reports bucket 63's
        // nominal upper bound 2^63 ns — a documented *lower* bound on
        // the true value (the bucket is open-ended) — and never
        // Duration::MAX, so downstream arithmetic cannot overflow.
        let h = LogHistogram::new();
        h.record(Duration::MAX);
        let one = h.snapshot();
        let mut pooled = one;
        pooled.merge(&one);
        assert_eq!(pooled.count(), 2);
        assert_eq!(pooled.buckets[HIST_BUCKETS - 1], 2);
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(pooled.quantile(q), Some(Duration::from_nanos(1u64 << 63)), "q = {q}");
        }
    }

    #[test]
    fn bucket_edges_bracket_their_values() {
        for ns in [0u64, 1, 2, 3, 4, 127, 128, 1 << 40, (1 << 62) - 1] {
            let b = log2_bucket(ns);
            assert!(ns < bucket_upper_ns(b) && (b == 0 || ns >= bucket_upper_ns(b - 1)), "{ns}");
        }
        // The open-ended top bucket: its edge is nominal, and indexes clamp to it.
        assert_eq!(bucket_upper_ns(log2_bucket(u64::MAX)), 1 << 63);
        assert_eq!(bucket_upper_ns(usize::MAX), 1 << 63);
    }
}
