//! Order statistics used by the run summary and by compare mode.

/// Median of `xs` (mean of the two middle values for even lengths);
/// 0.0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones an external checker computes.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let ld = s.len();
    match ld {
        0 => (0.0, 0.0),
        1 => (s[0], s[0]),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// The tail figure of a sample: the highest whole percentile whose
/// nearest-rank value still has at least ten samples strictly above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (1..=99), or 100 when no percentile qualifies.
    pub percentile: u32,
    /// The sample value at that percentile.
    pub value: f64,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

/// Samples that must lie beyond the reported tail value.
const TAIL_BEYOND: usize = 10;

/// Selects the tail percentile of `xs` (see [`Tail`]). With fewer than
/// `TAIL_BEYOND + 1` distinct-enough samples no percentile qualifies and
/// the maximum is reported as p100 with nothing beyond it.
pub fn tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    for q in (1..=99u32).rev() {
        let rank = (q as usize * n).div_ceil(100);
        if rank == 0 {
            continue;
        }
        let value = s[rank - 1];
        let beyond = n - s.partition_point(|&x| x <= value);
        if beyond >= TAIL_BEYOND {
            return Tail {
                percentile: q,
                value,
                beyond,
            };
        }
    }
    Tail {
        percentile: 100,
        value: s.last().copied().unwrap_or(0.0),
        beyond: 0,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending on purpose: selection must not rely on input order.
        let mut v: Vec<f64> = (1..=n).map(|x| x as f64).collect();
        v.reverse();
        v
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: with two
        // samples Python extrapolates past the data.
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), (1.5, 4.5));
    }

    #[test]
    fn tail_of_twenty_is_p50() {
        let t = tail(&ramp(20));
        assert_eq!(
            t,
            Tail {
                percentile: 50,
                value: 10.0,
                beyond: 10
            }
        );
    }

    #[test]
    fn tail_of_hundred_is_p90() {
        let t = tail(&ramp(100));
        assert_eq!((t.percentile, t.value, t.beyond), (90, 90.0, 10));
    }

    #[test]
    fn tail_of_thousand_stops_at_p99() {
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.value, t.beyond), (99, 990.0, 10));
    }

    #[test]
    fn tail_of_eleven_is_the_minimum() {
        let t = tail(&ramp(11));
        assert_eq!((t.percentile, t.value, t.beyond), (9, 1.0, 10));
    }

    #[test]
    fn tail_without_enough_samples_reports_max() {
        let t = tail(&ramp(10));
        assert_eq!((t.percentile, t.value, t.beyond), (100, 10.0, 0));
        assert_eq!(tail(&[]).percentile, 100);
    }

    #[test]
    fn tail_counts_only_strictly_greater_samples() {
        // Thirty ties: nothing is ever strictly beyond a tied value.
        let t = tail(&[1.0; 30]);
        assert_eq!((t.percentile, t.value, t.beyond), (100, 1.0, 0));
        // Twenty ties then ten larger values: the tail sits on the ties.
        let mut xs = vec![1.0; 20];
        xs.extend((0..10).map(|i| 2.0 + i as f64));
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value, t.beyond), (66, 1.0, 10));
    }
}
