//! Small statistics helpers: medians and quantiles.

use streamloc_engine::obs::HistogramSnapshot;

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile (0..=1) of `samples` by nearest rank; NaN when
/// empty. Sorts `samples`.
pub fn quantile(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    f64::from(samples[rank.clamp(1, samples.len()) - 1])
}

/// Median of a registry histogram with log2 bucket bounds, linearly
/// interpolated inside the bucket that holds it, so that it moves with
/// the distribution instead of jumping between bucket bounds (2x
/// apart). NaN when empty.
pub fn registry_p50(h: &HistogramSnapshot) -> f64 {
    if h.total == 0 {
        return f64::NAN;
    }
    let half = h.total as f64 / 2.0;
    let mut seen = 0.0;
    for (i, &c) in h.counts.iter().enumerate() {
        let c = c as f64;
        if seen + c >= half && c > 0.0 {
            let lo = if i == 0 { 0.0 } else { h.bounds[i - 1] as f64 };
            let hi = h.bounds.get(i).map_or(lo * 2.0, |&b| b as f64);
            return lo + (hi - lo) * (half - seen) / c;
        }
        seen += c;
    }
    f64::NAN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_by_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.9), 90.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert!(quantile(&mut [], 0.5).is_nan());
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
