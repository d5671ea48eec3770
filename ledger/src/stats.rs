//! Order statistics over latencies and per-segment values.

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no values");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median with its quartiles: `(p25, p50, p75)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
}

impl Quartiles {
    /// A value measured once (a count, or a difference of medians).
    pub fn point(v: f64) -> Quartiles {
        Quartiles { p25: v, p50: v, p75: v }
    }
}

pub fn quartiles(values: &[f64]) -> Quartiles {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Quartiles {
        p25: quantile_sorted(&v, 0.25),
        p50: quantile_sorted(&v, 0.5),
        p75: quantile_sorted(&v, 0.75),
    }
}

/// Which end of a metric's range is the good one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

/// Mean of the best tenth of `values` (at least one of them).
pub fn best_tenth(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "best tenth of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if better == Better::Higher {
        v.reverse();
    }
    let keep = (v.len() / 10).max(1);
    v[..keep].iter().sum::<f64>() / keep as f64
}

/// Median of latencies recorded in nanoseconds.
pub fn median_ns(lat: &[u32]) -> f64 {
    if lat.is_empty() {
        return 0.0;
    }
    let mut v = lat.to_vec();
    let mid = v.len() / 2;
    let (_, &mut hi, _) = v.select_nth_unstable(mid);
    if v.len() % 2 == 1 {
        return f64::from(hi);
    }
    let lo = *v[..mid].iter().max().expect("even length >= 2");
    (f64::from(lo) + f64::from(hi)) / 2.0
}

/// The tail percentile a pool of `n` samples supports: 99 when at least
/// ten samples lie beyond it, else the highest that does.
pub fn tail_q(n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    (1.0 - 10.0 / n as f64).clamp(0.0, 0.99)
}

/// Nearest-rank value at [`tail_q`] of the pooled latencies, in ns.
pub fn tail_ns(lat: &[u32]) -> f64 {
    if lat.is_empty() {
        return 0.0;
    }
    let mut v = lat.to_vec();
    let rank = ((tail_q(v.len()) * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    f64::from(*v.select_nth_unstable(rank).1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_median_and_quartiles_on_hand_built_values() {
        // Five segments; the outlier does not move the median.
        let q = quartiles(&[10.0, 12.0, 11.0, 500.0, 9.0]);
        assert_eq!(q, Quartiles { p25: 10.0, p50: 11.0, p75: 12.0 });
        // Even count interpolates.
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((q.p25, q.p50, q.p75), (1.75, 2.5, 3.25));
        assert_eq!(quartiles(&[7.0]).p50, 7.0);
    }

    #[test]
    fn best_tenth_averages_the_good_end_and_ignores_disturbed_segments() {
        // 20 segments: two clean levels near 6.6, the rest disturbed.
        let mut p50: Vec<f64> = vec![9.5; 18];
        p50.extend([6.5, 6.7]);
        assert_eq!(best_tenth(&p50, Better::Lower), 6.6);
        let qps: Vec<f64> = p50.iter().map(|us| 1e6 / us).collect();
        assert_eq!(best_tenth(&qps, Better::Higher), (1e6 / 6.5 + 1e6 / 6.7) / 2.0);
        // Fewer than ten values: the single best one.
        assert_eq!(best_tenth(&[3.0, 1.0, 2.0], Better::Lower), 1.0);
        assert_eq!(best_tenth(&[3.0, 1.0, 2.0], Better::Higher), 3.0);
    }

    #[test]
    fn latency_median_handles_odd_even_and_empty() {
        assert_eq!(median_ns(&[]), 0.0);
        assert_eq!(median_ns(&[5]), 5.0);
        assert_eq!(median_ns(&[9, 1, 5]), 5.0);
        assert_eq!(median_ns(&[9, 1, 5, 7]), 6.0);
    }

    #[test]
    fn pooled_tail_needs_ten_samples_beyond_it() {
        // 2000 samples: p99 has 20 beyond it.
        assert_eq!(tail_q(2000), 0.99);
        let lat: Vec<u32> = (1..=2000).collect();
        assert_eq!(tail_ns(&lat), 1980.0);
        // 100 samples: only p90 leaves ten beyond.
        assert!((tail_q(100) - 0.9).abs() < 1e-12);
        let lat: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(tail_ns(&lat), 90.0);
        // Fewer than ten samples: the minimum is all that qualifies.
        assert_eq!(tail_q(5), 0.0);
        assert_eq!(tail_ns(&[3, 1, 2]), 1.0);
        assert_eq!(tail_ns(&[]), 0.0);
    }
}
