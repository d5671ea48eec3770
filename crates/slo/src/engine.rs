//! The multi-window SLO burn-rate engine.
//!
//! An [`Objective`] states "at least `target` of queries finish within
//! `threshold`". The engine watches a *cumulative* log₂ latency
//! histogram per tracked key (a shard), snapshotted on every
//! observation, and evaluates the objective over two sliding windows by
//! interval diffing: the bad fraction inside a window is read from
//! `latest.minus(baseline-at-window-start)` — no per-query state, just
//! the histograms the metrics layer already keeps.
//!
//! The **burn rate** of a window is `(bad / total) / (1 - target)`:
//! burning exactly the error budget is rate 1.0, and a rate of `r`
//! exhausts the budget `r`× faster than allowed. An objective alerts
//! only when *both* its fast and slow windows burn above their
//! thresholds — the standard multi-window guard that rejects
//! short-lived blips (fast-only) and long-dead incidents (slow-only).
//!
//! Time comes from an [`iqs_testkit::ClockHandle`], so on a virtual
//! clock the whole evaluation is deterministic to the byte.

use std::collections::VecDeque;
use std::fmt;
use std::time::{Duration, Instant};

use iqs_obs::{saturating_ns, HistogramSnapshot, PromWriter};
use iqs_testkit::ClockHandle;

use crate::error::SloError;

/// What a sliding-window objective is attached to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SloKey {
    /// A shard's pooled latency across its replicas.
    Shard(u32),
}

impl fmt::Display for SloKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SloKey::Shard(shard) => write!(f, "shard:{shard}"),
        }
    }
}

/// A latency objective: `target` fraction of queries within
/// `threshold`, evaluated over a fast and a slow sliding window.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Latency threshold a "good" query finishes within.
    pub threshold: Duration,
    /// Target good fraction, strictly inside `(0, 1)`.
    pub target: f64,
    /// Short window for fast incident detection.
    pub fast_window: Duration,
    /// Long window guarding against alerting on blips.
    pub slow_window: Duration,
    /// Fast-window burn-rate alert threshold (> 0).
    pub fast_burn: f64,
    /// Slow-window burn-rate alert threshold (> 0).
    pub slow_burn: f64,
}

impl Objective {
    /// Validates the objective's parameters.
    ///
    /// # Errors
    /// [`SloError::Config`] naming the first impossible parameter.
    pub fn validate(&self) -> Result<(), SloError> {
        if !(self.target > 0.0 && self.target < 1.0) {
            return Err(SloError::Config("target must be strictly inside (0, 1)"));
        }
        if self.threshold.is_zero() {
            return Err(SloError::Config("threshold must be positive"));
        }
        if self.fast_window.is_zero() || self.slow_window.is_zero() {
            return Err(SloError::Config("windows must be positive"));
        }
        if self.fast_window > self.slow_window {
            return Err(SloError::Config("fast window must not exceed the slow window"));
        }
        // `partial_cmp` so NaN thresholds are rejected, not silently accepted.
        let positive = |v: f64| v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        if !positive(self.fast_burn) || !positive(self.slow_burn) {
            return Err(SloError::Config("burn-rate thresholds must be positive"));
        }
        Ok(())
    }

    /// The threshold the log₂ histogram can actually enforce: the
    /// configured threshold rounded **up** to its bucket's upper bound
    /// (a bucket holds `[2^(b-1), 2^b)` ns, so samples sharing the
    /// threshold's bucket cannot be split). Queries are counted bad
    /// only when they land strictly above this bucket.
    #[must_use]
    pub fn effective_threshold(&self) -> Duration {
        Duration::from_nanos(iqs_obs::bucket_upper_ns(self.threshold_bucket()))
    }

    /// Bucket index of the effective threshold; buckets strictly above
    /// it count as bad.
    fn threshold_bucket(&self) -> usize {
        iqs_obs::log2_bucket(saturating_ns(self.threshold))
    }
}

/// One tracked key's evaluation in a [`HealthReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// What the objective is attached to.
    pub key: SloKey,
    /// Fast-window burn rate (0.0 when the window saw no queries).
    pub fast_burn: f64,
    /// Slow-window burn rate.
    pub slow_burn: f64,
    /// Queries inside the fast window.
    pub fast_total: u64,
    /// Queries inside the slow window.
    pub slow_total: u64,
    /// Whether both windows burn above their thresholds.
    pub alerting: bool,
}

/// The typed health picture `iqs-ctl` consumes alongside load share:
/// every tracked objective's burn rates and alert state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthReport {
    /// One status per tracked objective, in tracking order.
    pub statuses: Vec<SloStatus>,
}

impl HealthReport {
    /// Statuses currently alerting.
    pub fn alerting(&self) -> impl Iterator<Item = &SloStatus> {
        self.statuses.iter().filter(|s| s.alerting)
    }

    /// Shard indices whose objectives are alerting, in tracking order.
    #[must_use]
    pub fn alerting_shards(&self) -> Vec<u32> {
        self.alerting()
            .map(|s| match s.key {
                SloKey::Shard(shard) => shard,
            })
            .collect()
    }

    /// The status burning fastest in its fast window, if any status
    /// has traffic.
    #[must_use]
    pub fn worst(&self) -> Option<&SloStatus> {
        self.statuses
            .iter()
            .filter(|s| s.fast_total > 0 || s.slow_total > 0)
            .max_by(|a, b| a.fast_burn.total_cmp(&b.fast_burn))
    }

    /// The status tracked for `shard`, if one exists.
    #[must_use]
    pub fn shard_status(&self, shard: u32) -> Option<&SloStatus> {
        self.statuses.iter().find(|s| s.key == SloKey::Shard(shard))
    }

    /// Renders the report as Prometheus-style text exposition:
    /// `iqs_slo_burn_rate{key,window}`, `iqs_slo_window_total` and
    /// `iqs_slo_alerting{key}` families.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut w = PromWriter::new();
        w.header("iqs_slo_burn_rate", "SLO burn rate per key and window", "gauge");
        for s in &self.statuses {
            let key = s.key.to_string();
            w.sample_f64("iqs_slo_burn_rate", &[("key", &key), ("window", "fast")], s.fast_burn);
            w.sample_f64("iqs_slo_burn_rate", &[("key", &key), ("window", "slow")], s.slow_burn);
        }
        w.header("iqs_slo_window_total", "Queries inside each SLO window", "gauge");
        for s in &self.statuses {
            let key = s.key.to_string();
            w.sample("iqs_slo_window_total", &[("key", &key), ("window", "fast")], s.fast_total);
            w.sample("iqs_slo_window_total", &[("key", &key), ("window", "slow")], s.slow_total);
        }
        w.header("iqs_slo_alerting", "Whether the objective currently alerts", "gauge");
        for s in &self.statuses {
            let key = s.key.to_string();
            w.sample("iqs_slo_alerting", &[("key", &key)], u64::from(s.alerting));
        }
        w.finish()
    }
}

/// One tracked objective's state: the cumulative-histogram series the
/// windows diff against.
#[derive(Debug)]
struct Series {
    key: SloKey,
    objective: Objective,
    /// `(observed at, cumulative histogram)`, oldest first. Pruned to
    /// the slow window plus one preceding baseline.
    points: VecDeque<(Instant, HistogramSnapshot)>,
}

impl Series {
    /// The interval histogram of the window ending now: latest minus
    /// the newest point at or before `now - window`. A series younger
    /// than the window diffs against a zero baseline — everything
    /// since tracking began falls inside the window.
    fn window_interval(
        &self,
        now: Instant,
        window: Duration,
    ) -> Result<HistogramSnapshot, SloError> {
        let Some((_, latest)) = self.points.back() else {
            return Ok(HistogramSnapshot::default());
        };
        let start = now.checked_sub(window);
        let baseline = start
            .and_then(|start| self.points.iter().rev().find(|(t, _)| *t <= start).map(|(_, h)| h));
        match baseline {
            Some(baseline) => Ok(latest.minus(baseline)?),
            None => Ok(*latest),
        }
    }

    fn evaluate(&self, now: Instant) -> Result<SloStatus, SloError> {
        let fast = self.window_interval(now, self.objective.fast_window)?;
        let slow = self.window_interval(now, self.objective.slow_window)?;
        let rate = |interval: &HistogramSnapshot| {
            let total = interval.count();
            if total == 0 {
                return (0.0, 0);
            }
            let cut = self.objective.threshold_bucket();
            let bad: u64 = interval.buckets.iter().skip(cut + 1).sum();
            ((bad as f64 / total as f64) / (1.0 - self.objective.target), total)
        };
        let (fast_burn, fast_total) = rate(&fast);
        let (slow_burn, slow_total) = rate(&slow);
        Ok(SloStatus {
            key: self.key.clone(),
            fast_burn,
            slow_burn,
            fast_total,
            slow_total,
            alerting: fast_burn >= self.objective.fast_burn
                && slow_burn >= self.objective.slow_burn
                && fast_total > 0,
        })
    }

    fn prune(&mut self, now: Instant) {
        let start = now.checked_sub(self.objective.slow_window).unwrap_or(now);
        // Keep one point at or before the slow-window start as the
        // baseline; everything older is dead weight.
        while self.points.len() > 1 && self.points[1].0 <= start {
            self.points.pop_front();
        }
    }
}

/// The engine: tracked objectives over cumulative histogram series,
/// evaluated into a [`HealthReport`] on demand.
#[derive(Debug)]
pub struct SloEngine {
    clock: ClockHandle,
    series: Vec<Series>,
}

impl SloEngine {
    /// An engine reading time from `clock` (deterministic on a
    /// [`iqs_testkit::VirtualClock`] handle).
    #[must_use]
    pub fn new(clock: &ClockHandle) -> SloEngine {
        SloEngine { clock: clock.clone(), series: Vec::new() }
    }

    /// Tracks (or replaces) the objective for `key`.
    ///
    /// # Errors
    /// [`SloError::Config`] when the objective is invalid.
    pub fn set_objective(&mut self, key: SloKey, objective: Objective) -> Result<(), SloError> {
        objective.validate()?;
        match self.series.iter_mut().find(|s| s.key == key) {
            Some(series) => series.objective = objective,
            None => self.series.push(Series { key, objective, points: VecDeque::new() }),
        }
        Ok(())
    }

    /// Feeds the current *cumulative* histogram for `key` (e.g. a
    /// shard's pooled latency from the telemetry collector). Unknown
    /// keys are ignored — objectives declare what is watched.
    pub fn observe(&mut self, key: &SloKey, cumulative: HistogramSnapshot) {
        let now = self.clock.now();
        if let Some(series) = self.series.iter_mut().find(|s| s.key == *key) {
            series.points.push_back((now, cumulative));
            series.prune(now);
        }
    }

    /// Evaluates every tracked objective at the current clock reading.
    ///
    /// # Errors
    /// [`SloError::Window`] when an observed series is not monotone —
    /// the caller fed interval diffs where cumulative snapshots belong.
    pub fn evaluate(&self) -> Result<HealthReport, SloError> {
        let now = self.clock.now();
        let statuses =
            self.series.iter().map(|s| s.evaluate(now)).collect::<Result<Vec<_>, _>>()?;
        Ok(HealthReport { statuses })
    }
}

#[cfg(test)]
mod tests {
    use iqs_testkit::VirtualClock;

    use super::*;

    fn objective() -> Objective {
        Objective {
            threshold: Duration::from_micros(1),
            target: 0.9,
            fast_window: Duration::from_secs(5),
            slow_window: Duration::from_secs(30),
            fast_burn: 2.0,
            slow_burn: 1.0,
        }
    }

    /// A cumulative histogram with `good` fast and `bad` slow samples.
    fn cumulative(good: u64, bad: u64) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        h.buckets[iqs_obs::log2_bucket(500)] = good; // well under 1 µs
        h.buckets[iqs_obs::log2_bucket(50_000)] = bad; // 50 µs: bad
        h
    }

    #[test]
    fn objective_validation_names_the_failure() {
        for (broken, what) in [
            (Objective { target: 0.0, ..objective() }, "target"),
            (Objective { target: 1.0, ..objective() }, "target"),
            (Objective { threshold: Duration::ZERO, ..objective() }, "threshold"),
            (Objective { fast_window: Duration::ZERO, ..objective() }, "windows"),
            (Objective { fast_window: Duration::from_secs(60), ..objective() }, "fast window"),
            (Objective { fast_burn: 0.0, ..objective() }, "burn-rate"),
        ] {
            let err = broken.validate().expect_err(what);
            assert!(err.to_string().contains(what), "{err} should mention {what}");
        }
        objective().validate().expect("the reference objective is valid");
    }

    #[test]
    fn effective_threshold_rounds_up_to_the_bucket_bound() {
        // 1 µs = 1000 ns → bucket 10 ([512, 1024)), upper bound 1024 ns.
        assert_eq!(objective().effective_threshold(), Duration::from_nanos(1024));
        // Exact powers of two sit at their own bucket's upper bound...
        let exact = Objective { threshold: Duration::from_nanos(1024), ..objective() };
        assert_eq!(exact.effective_threshold(), Duration::from_nanos(2048));
        // ...because bucket b is [2^(b-1), 2^b): 1024 opens bucket 11.
        let top = Objective { threshold: Duration::from_secs(u64::MAX), ..objective() };
        assert_eq!(top.effective_threshold(), Duration::from_nanos(1u64 << 63));
    }

    #[test]
    fn burn_rate_trips_only_when_both_windows_burn() {
        let vc = VirtualClock::new();
        let clock = vc.handle();
        let mut engine = SloEngine::new(&clock);
        let key = SloKey::Shard(0);
        engine.set_objective(key.clone(), objective()).expect("valid");

        // Healthy traffic for 30 s: 100 queries/s, 2% bad — a burn rate
        // of 0.2, well under both thresholds.
        let mut good = 0;
        let mut bad = 0;
        for _ in 0..30 {
            good += 98;
            bad += 2;
            engine.observe(&key, cumulative(good, bad));
            vc.advance(Duration::from_secs(1));
        }
        let report = engine.evaluate().expect("monotone");
        let status = report.shard_status(0).expect("tracked");
        assert!(!status.alerting);
        assert!((status.slow_burn - 0.2).abs() < 0.05, "slow burn {}", status.slow_burn);

        // A regression: 60% of queries go bad. The fast window crosses
        // within seconds; the slow window follows; only then alert.
        let mut ticks_to_alert = 0;
        loop {
            good += 40;
            bad += 60;
            engine.observe(&key, cumulative(good, bad));
            vc.advance(Duration::from_secs(1));
            ticks_to_alert += 1;
            let report = engine.evaluate().expect("monotone");
            if report.shard_status(0).expect("tracked").alerting {
                break;
            }
            assert!(ticks_to_alert < 30, "burn alert never fired");
        }
        // Fast window (5 s) saturates at burn 6.0 immediately; the slow
        // window needs enough bad seconds to cross 1.0: detection lands
        // in a handful of ticks, deterministically.
        assert!(ticks_to_alert <= 10, "took {ticks_to_alert} ticks");
        let report = engine.evaluate().expect("monotone");
        assert_eq!(report.alerting_shards(), vec![0]);
        assert!(report.worst().expect("traffic").fast_burn > 2.0);

        // Recovery: traffic goes clean again; the fast window clears
        // first and the alert drops even while the slow window still
        // remembers the incident.
        for _ in 0..10 {
            good += 100;
            engine.observe(&key, cumulative(good, bad));
            vc.advance(Duration::from_secs(1));
        }
        let report = engine.evaluate().expect("monotone");
        let status = report.shard_status(0).expect("tracked");
        assert!(!status.alerting, "fast window must clear the alert");
        assert!(status.slow_burn > 0.0, "slow window still remembers");
    }

    #[test]
    fn idle_windows_burn_nothing_and_non_monotone_series_error() {
        let vc = VirtualClock::new();
        let mut engine = SloEngine::new(&vc.handle());
        let key = SloKey::Shard(0);
        engine.set_objective(key.clone(), objective()).expect("valid");
        // No observations at all: zero burn, no alert, no traffic.
        let report = engine.evaluate().expect("empty is fine");
        let status = &report.statuses[0];
        assert_eq!((status.fast_total, status.slow_total), (0, 0));
        assert_eq!(status.fast_burn, 0.0);
        assert!(!status.alerting);
        assert!(report.worst().is_none());

        // Observations for unknown keys are ignored, not tracked.
        engine.observe(&SloKey::Shard(9), cumulative(1, 0));
        assert_eq!(engine.evaluate().expect("fine").statuses.len(), 1);

        // A shrinking "cumulative" series is a caller bug surfaced as a
        // window error once the fast window diffs across the shrink.
        engine.observe(&key, cumulative(10, 1));
        vc.advance(Duration::from_secs(6));
        engine.observe(&key, cumulative(5, 0));
        assert!(matches!(engine.evaluate(), Err(SloError::Window(_))));
    }

    #[test]
    fn report_renders_prometheus_families() {
        let vc = VirtualClock::new();
        let mut engine = SloEngine::new(&vc.handle());
        engine.set_objective(SloKey::Shard(1), objective()).expect("valid");
        engine.set_objective(SloKey::Shard(2), objective()).expect("valid");
        engine.observe(&SloKey::Shard(1), cumulative(9, 1));
        let text = engine.evaluate().expect("monotone").to_prometheus();
        assert!(text.contains("# TYPE iqs_slo_burn_rate gauge"));
        assert!(text.contains("iqs_slo_burn_rate{key=\"shard:1\",window=\"fast\"}"));
        assert!(text.contains("iqs_slo_window_total{key=\"shard:1\",window=\"slow\"} 10"));
        assert!(text.contains("iqs_slo_alerting{key=\"shard:2\"} 0"));
    }
}
