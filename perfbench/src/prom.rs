//! Prometheus text exposition (`GET /metrics`): samples and histogram
//! sum/count deltas between two scrapes.

/// One sample line: metric name, raw label set (the text between the
/// braces, empty when none) and value.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: String,
    pub value: f64,
}

/// Parse every sample line; comments and blank lines are skipped.
/// Values that do not parse as `f64` (never emitted by the server) are
/// skipped rather than guessed at.
pub fn parse(text: &str) -> Vec<Sample> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => continue,
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => (name, rest.trim_end_matches('}')),
            None => (series, ""),
        };
        out.push(Sample {
            name: name.to_string(),
            labels: labels.to_string(),
            value,
        });
    }
    out
}

/// Sum of every sample of `name` whose label set contains all `labels`
/// (`key="value"` strings); 0 when none match.
pub fn sum_of(samples: &[Sample], name: &str, labels: &[&str]) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name && labels.iter().all(|l| s.labels.split(',').any(|x| x == *l)))
        .map(|s| s.value)
        .sum()
}

/// Growth of a histogram's `_sum` and `_count` between two scrapes,
/// over the series matching `labels`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistDelta {
    pub sum: f64,
    pub count: f64,
}

impl HistDelta {
    pub fn between(before: &[Sample], after: &[Sample], family: &str, labels: &[&str]) -> Self {
        let sum = format!("{family}_sum");
        let count = format!("{family}_count");
        HistDelta {
            sum: sum_of(after, &sum, labels) - sum_of(before, &sum, labels),
            count: sum_of(after, &count, labels) - sum_of(before, &count, labels),
        }
    }

    /// Mean observation over the window, 0 when nothing was observed.
    pub fn mean(self) -> f64 {
        if self.count > 0.0 {
            self.sum / self.count
        } else {
            0.0
        }
    }

    pub fn add(self, other: HistDelta) -> HistDelta {
        HistDelta {
            sum: self.sum + other.sum,
            count: self.count + other.count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# HELP tpn_request_duration_seconds Handler latency.
# TYPE tpn_request_duration_seconds histogram
tpn_request_duration_seconds_bucket{endpoint=\"analyze\",le=\"0.001\"} 2
tpn_request_duration_seconds_sum{endpoint=\"analyze\"} 0.000674908
tpn_request_duration_seconds_count{endpoint=\"analyze\"} 2
tpn_request_duration_seconds_sum{endpoint=\"stats\"} 0.5
tpn_request_duration_seconds_count{endpoint=\"stats\"} 1
tpn_stage_build_seconds_sum{stage=\"trg\"} 0.000160356
tpn_stage_build_seconds_count{stage=\"trg\"} 1
tpn_uptime_seconds 3
";

    const AFTER: &str = "\
tpn_request_duration_seconds_sum{endpoint=\"analyze\"} 1.000674908
tpn_request_duration_seconds_count{endpoint=\"analyze\"} 202
tpn_request_duration_seconds_sum{endpoint=\"sweep\"} 2.5
tpn_request_duration_seconds_count{endpoint=\"sweep\"} 5
tpn_request_duration_seconds_sum{endpoint=\"stats\"} 0.75
tpn_request_duration_seconds_count{endpoint=\"stats\"} 2
tpn_stage_build_seconds_sum{stage=\"trg\"} 0.000160356
tpn_stage_build_seconds_count{stage=\"trg\"} 1
";

    #[test]
    fn parses_names_labels_and_values() {
        let s = parse(BEFORE);
        assert_eq!(s.len(), 8);
        assert_eq!(s[0].name, "tpn_request_duration_seconds_bucket");
        assert_eq!(s[0].labels, "endpoint=\"analyze\",le=\"0.001\"");
        assert_eq!(s[7].labels, "");
        assert_eq!(s[7].value, 3.0);
    }

    #[test]
    fn histogram_delta_per_label() {
        let (b, a) = (parse(BEFORE), parse(AFTER));
        let fam = "tpn_request_duration_seconds";
        let d = HistDelta::between(&b, &a, fam, &["endpoint=\"analyze\""]);
        assert!((d.sum - 1.0).abs() < 1e-9);
        assert_eq!(d.count, 200.0);
        assert!((d.mean() - 0.005).abs() < 1e-12);
        // A series absent before the window counts from zero.
        let s = HistDelta::between(&b, &a, fam, &["endpoint=\"sweep\""]);
        assert_eq!((s.sum, s.count), (2.5, 5.0));
        assert_eq!(d.add(s).count, 205.0);
    }

    #[test]
    fn unchanged_histogram_has_zero_mean() {
        let (b, a) = (parse(BEFORE), parse(AFTER));
        let d = HistDelta::between(&b, &a, "tpn_stage_build_seconds", &["stage=\"trg\""]);
        assert_eq!((d.sum, d.count), (0.0, 0.0));
        assert_eq!(d.mean(), 0.0);
    }

    #[test]
    fn no_label_filter_sums_every_series() {
        let (b, a) = (parse(BEFORE), parse(AFTER));
        let d = HistDelta::between(&b, &a, "tpn_request_duration_seconds", &[]);
        assert_eq!(d.count, 206.0);
    }
}
