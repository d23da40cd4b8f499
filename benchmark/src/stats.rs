//! Order statistics over timing samples: medians, quartiles, percentiles.
//!
//! Quartiles use the same rule as Python's `statistics.quantiles(values,
//! n=4)` (the "exclusive" method), because that is what the acceptance
//! driver computes over the per-run values; using one rule on both sides
//! keeps the spread this crate prints comparable with the one it is judged
//! by.

/// The `q`-quantile (`0 < q < 1`) of `sorted` by the exclusive method:
/// position `q·(n+1)` on a 1-based axis, linearly interpolated and clamped
/// to the sample range. `sorted` must be ascending and non-empty.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let pos = q * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    quantile_sorted(&sorted(values), 0.5)
}

/// `(q1, median, q3)`; all `NaN` for an empty slice, all equal for one
/// sample.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    if values.is_empty() {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    let s = sorted(values);
    (
        quantile_sorted(&s, 0.25),
        quantile_sorted(&s, 0.5),
        quantile_sorted(&s, 0.75),
    )
}

/// Interquartile range as a share of the median (`0` when the median is 0).
pub fn iqr_rel(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 || med.is_nan() {
        0.0
    } else {
        (q3 - q1) / med
    }
}

/// Nearest rank of the `per_mille / 10`-th percentile among `n` samples:
/// the 1-based index of the smallest sample with at least that share of
/// the samples at or below it. Integer arithmetic, so that "ten samples
/// beyond p90 of a hundred" does not hinge on `1.0 - 0.9`.
fn nearest_rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).clamp(1, n)
}

/// The `p`-th percentile (`0..=100`, resolved to a tenth) by nearest rank.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let s = sorted(values);
    s[nearest_rank(s.len(), (p * 10.0).round() as usize) - 1]
}

/// The highest of the usual tail percentiles (99.9, 99, 95, 90, 75) that
/// still has at least ten samples beyond it, with its value — the tail a
/// sample of this size can actually support. `None` below 40 samples (not
/// even p75 has ten beyond it).
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|&pm| n > 0 && n - nearest_rank(n, pm) >= 10)
        .map(|pm| {
            let p = pm as f64 / 10.0;
            (p, percentile(values, p))
        })
}

/// A named sample set with its summary, as the human-readable report prints
/// it.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Highest supportable tail percentile and its value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `values`.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, median, q3) = quartiles(values);
        Summary {
            n: values.len(),
            q1,
            median,
            q3,
            tail: tail_percentile(values),
        }
    }
}
