//! Order statistics over timing samples.

/// Nearest-rank percentile (`q` in 0..=1) of `samples`; NaN when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples`; NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `part / whole`, or 0 when nothing was counted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Seconds per measurement window of a timed phase.
const WINDOW_S: f64 = 2.0;

/// The equal windows `[0, seconds)` splits into: about `WINDOW_S` each,
/// at least one.
fn windows(seconds: f64) -> (usize, f64) {
    let n = ((seconds / WINDOW_S).floor() as usize).max(1);
    (n, seconds / n as f64)
}

/// Median over the windows of `stat` applied to the values that fell in
/// each window (`samples` are `(seconds since start, value)`); samples
/// at or past `seconds` and empty windows are skipped. A slow spell of
/// the host then moves a few windows, not the reported figure.
pub fn windowed(samples: &[(f64, f64)], seconds: f64, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let (n, width) = windows(seconds);
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &(at, value) in samples {
        if at >= 0.0 && at < seconds {
            buckets[((at / width) as usize).min(n - 1)].push(value);
        }
    }
    let per_window: Vec<f64> = buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| stat(b))
        .collect();
    median(&per_window)
}

/// Median over the windows of completions per second (`times` are
/// completion times in seconds since start).
pub fn windowed_rate(times: &[f64], seconds: f64) -> f64 {
    let (n, width) = windows(seconds);
    let mut counts = vec![0u64; n];
    for &at in times {
        if at >= 0.0 && at < seconds {
            counts[((at / width) as usize).min(n - 1)] += 1;
        }
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), 50.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn windows_take_medians() {
        assert_eq!(windows(20.0), (10, 2.0));
        assert_eq!(windows(1.0), (1, 1.0));
        // Ten 2-second windows; one slow spell triples the fifth window.
        let samples: Vec<(f64, f64)> = (0..200)
            .map(|i| {
                (
                    i as f64 / 10.0,
                    if (80..100).contains(&i) { 3.0 } else { 1.0 },
                )
            })
            .collect();
        assert_eq!(windowed(&samples, 20.0, median), 1.0);
        let times: Vec<f64> = (0..200).map(|i| i as f64 / 10.0).collect();
        assert_eq!(windowed_rate(&times, 20.0), 10.0);
    }
}
