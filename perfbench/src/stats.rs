//! Summary statistics and the metric-name rules the benchmark reports
//! by.

/// The median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The first and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method); `None` with fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// The percentiles a timing may be reported at, highest first.
const PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest of [`PERCENTILES`] that has at least ten samples
/// beyond it, with its nearest-rank value; `None` when even the
/// median has fewer than ten samples above it (under 20 samples).
#[must_use]
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let n = data.len();
    PERCENTILES.iter().find_map(|&p| {
        // The epsilon keeps 99.9 % of 10 000 at rank 9990 despite f64
        // rounding.
        let rank = ((p * n as f64) / 100.0 - 1e-9).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| (p, data[rank - 1]))
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Whether `name` is a legal metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// The attack time no probe accounts for: the attack engine, forge,
/// delta loading, resilience and supervision, which sit between the
/// session entry point and the probes and cannot be separated from
/// outside the program. By construction
/// `stack + encrypted_self + device_busy == attack`.
#[must_use]
pub fn stack_self_ms(attack_ms: f64, device_busy_ms: f64, encrypted_self_ms: f64) -> f64 {
    attack_ms - device_busy_ms - encrypted_self_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&v(19)), None);
        assert_eq!(tail_percentile(&v(20)), Some((50.0, 10.0)));
        assert_eq!(tail_percentile(&v(40)), Some((75.0, 30.0)));
        assert_eq!(tail_percentile(&v(100)), Some((90.0, 90.0)));
        assert_eq!(tail_percentile(&v(1000)), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&v(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn names_follow_the_registry_rule() {
        for ok in ["attack_s", "device.busy_ms", "phase.key-independent_ms", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn accounting_identity_reconstructs_attack_time() {
        for (attack, device, enc) in [(100.0, 55.0, 20.0), (812.5, 790.25, 0.0), (3.0, 3.0, 0.0)] {
            let stack = stack_self_ms(attack, device, enc);
            assert!((stack + enc + device - attack).abs() < 1e-9);
        }
    }
}
