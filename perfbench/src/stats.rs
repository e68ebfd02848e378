//! Order statistics and the result line's grammar.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, so spreads printed here match the
/// ones computed over whole runs.
///
/// # Panics
///
/// Panics if `xs` holds fewer than two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two values");
    let at = |j: usize| -> f64 {
        // Position j·(n+1)/4, one-based, linearly interpolated and
        // clamped to the sample's ends.
        let m = (n + 1) as f64;
        let pos = j as f64 * m / 4.0;
        let k = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - k as f64;
        s[k - 1] + (s[k] - s[k - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median: the spread the
/// benchmark's bounds are judged against. `0` for fewer than two values.
pub fn spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

/// Nearest-rank percentile: the smallest sample such that at least
/// `q` percent of the samples are at or below it.
///
/// # Panics
///
/// Panics if `xs` is empty or `q` is outside `(0, 100]`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    assert!(q > 0.0 && q <= 100.0, "percentile {q} out of range");
    let s = sorted(xs);
    s[rank(s.len(), q) - 1]
}

/// One-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank position of percentile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Whether `n` samples support reporting percentile `q`: at least ten
/// samples must lie beyond it, so one outlier cannot set it.
pub fn supports(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= 10
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Whether `name` obeys the metric-name grammar: starts with a letter or
/// digit, at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` obeys the unit grammar: 1 to 16 characters of letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
///
/// # Panics
///
/// Panics on a metric that breaks the name or unit grammar, a repeated
/// name, or a non-finite value: those are bugs in the benchmark.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut seen = std::collections::BTreeSet::new();
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        assert!(valid_name(m.name), "bad metric name {:?}", m.name);
        assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
        assert!(seen.insert(m.name), "metric {} reported twice", m.name);
        assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
        // `{:?}` prints the shortest round-tripping decimal: every digit
        // the measurement has, none invented.
        body.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        // Rank rounds up: the 50th percentile of 5 samples is the 3rd.
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 50.0), 3.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn ten_samples_beyond_the_percentile() {
        // p90 needs 100 samples: ranks 91..=100 lie beyond rank 90.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert!(!supports(0, 50.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "sweep_s",
            "sim.run_s",
            "trace.unattributed_s",
            "a-b",
            "9x",
            "p.q_r-s",
        ] {
            assert!(valid_name(ok), "{ok} should be valid");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "ms/op",
            "é",
            "a+b",
        ] {
            assert!(!valid_name(bad), "{bad:?} should be invalid");
        }
        assert!(valid_name(&"a".repeat(64)));
        assert!(!valid_name(&"a".repeat(65)));
        for ok in ["ms", "s", "1/s", "count", "%", "MB", "count/100jobs"] {
            assert!(valid_unit(ok), "{ok} should be valid");
        }
        assert!(!valid_unit(""));
        assert!(!valid_unit("m s"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(
            3,
            0,
            &[Metric {
                name: "sweep_s",
                value: 0.125,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"sweep_s\": {\"value\": 0.125, \"unit\": \"s\"}}}"
        );
        assert!(result_line(3, 1, &[]).starts_with("{\"correct\": false,"));
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn result_line_refuses_a_bad_name() {
        result_line(
            1,
            0,
            &[Metric {
                name: "bad name",
                value: 1.0,
                unit: "s",
            }],
        );
    }
}
