//! Small order statistics over host-time samples.

/// Nearest-rank quantile of an ascending slice (`q` in [0, 1]); 0 when
/// empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank quantile of unsorted samples (sorts a copy).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// Mean of the slowest `1 - q` share of an ascending slice (at least one
/// value): a tail figure that, unlike a quantile, does not sit on one of
/// the few discrete service times a simulated device model produces.
pub fn tail_mean_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let k = (((1.0 - q) * sorted.len() as f64).round() as usize).clamp(1, sorted.len());
    mean(&sorted[sorted.len() - k..])
}

/// Median (mean of the two middle values for even counts); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean of the samples ranked between quantiles `lo` and `hi` of an
/// ascending slice (at least one sample).
pub fn band_mean_sorted(sorted: &[f64], lo: f64, hi: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let a = ((lo * n as f64).round() as usize).min(n - 1);
    let b = ((hi * n as f64).round() as usize).clamp(a + 1, n);
    mean(&sorted[a..b])
}

/// Share of the slowest samples a tail figure averages.
pub const TAIL_SHARE: f64 = 0.05;

/// `(p50, tail)` in microseconds of nanosecond samples. The p50 is the
/// mean of the 40–60th percentile band, so a figure made of
/// whole-nanosecond samples does not sit on one integer; the tail is the
/// mean of the slowest [`TAIL_SHARE`], which moves smoothly with the mix
/// of slow and fast calls where a single quantile jumps between modes.
fn p50_tail_us(mut ns: Vec<f64>) -> (f64, f64) {
    ns.sort_by(f64::total_cmp);
    (band_mean_sorted(&ns, 0.40, 0.60) / 1e3, tail_mean_sorted(&ns, 1.0 - TAIL_SHARE) / 1e3)
}

/// `[read p50, read tail, write p50, write tail]` in microseconds of
/// host-time samples `(is_read, ns, pages)`: a read call is one sample,
/// and every page a write call carried is a sample of that call's time.
pub fn latency_pcts(samples: impl IntoIterator<Item = (bool, f64, u32)>) -> [f64; 4] {
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for (is_read, ns, pages) in samples {
        let into = if is_read { &mut reads } else { &mut writes };
        into.extend(std::iter::repeat_n(ns, pages as usize));
    }
    let ((r50, r_tail), (w50, w_tail)) = (p50_tail_us(reads), p50_tail_us(writes));
    [r50, r_tail, w50, w_tail]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(tail_mean_sorted(&v, 0.99), 100.0);
        assert_eq!(tail_mean_sorted(&v, 0.98), 99.5);
        assert_eq!(band_mean_sorted(&v, 0.45, 0.55), 50.5);
        assert_eq!(band_mean_sorted(&[7.0], 0.45, 0.55), 7.0);
    }
}
