//! The one snapshot type: every value and histogram under its dotted
//! name.

use crate::histogram::HistogramSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A point-in-time reading of every metric a source exports, keyed by
/// stable dotted names (`refmon.mode.read`, `audit.pipeline.shed`,
/// `server.reactor.polls`). It is the only snapshot anything prints or
/// ships: its `Display` is the text exposition, its serde form the JSON
/// document the wire `Telemetry` reply carries.
///
/// A name is built when the snapshot is taken, never on a recording
/// path, and is exported once: setting a name twice is a bug, caught by
/// a debug assertion.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metrics {
    /// Counters and gauges.
    pub values: BTreeMap<String, u64>,
    /// Distributions; the unit is the name's suffix (`_ns`, `_bytes`).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Metrics {
    /// The value named `name`, if exported.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.values.get(name).copied()
    }

    /// The histogram named `name`, if exported.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Exports `value` under `name`.
    pub fn set(&mut self, name: impl Into<String>, value: u64) {
        let name = name.into();
        debug_assert!(self.is_new(&name), "metric {name} exported twice");
        self.values.insert(name, value);
    }

    /// Exports `histogram` under `name`.
    pub fn set_histogram(&mut self, name: impl Into<String>, histogram: HistogramSnapshot) {
        let name = name.into();
        debug_assert!(self.is_new(&name), "metric {name} exported twice");
        self.histograms.insert(name, histogram);
    }

    /// Adds every metric of `other`; the two sources must export
    /// disjoint names.
    pub fn extend(&mut self, other: Metrics) {
        for (name, value) in other.values {
            self.set(name, value);
        }
        for (name, histogram) in other.histograms {
            self.set_histogram(name, histogram);
        }
    }

    fn is_new(&self, name: &str) -> bool {
        !self.values.contains_key(name) && !self.histograms.contains_key(name)
    }
}

/// One line per metric, in name order: a value prints as `name value`,
/// a histogram as `name count=… mean=… p50=… p99=… max=…`.
impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let values = self.values.iter().map(|(name, v)| (name, v.to_string()));
        let histograms = self.histograms.iter().map(|(name, h)| {
            let (mean, p50, p99) = (h.mean(), h.quantile(0.5), h.quantile(0.99));
            let line = format!(
                "count={} mean={mean} p50={p50} p99={p99} max={}",
                h.count, h.max
            );
            (name, line)
        });
        let mut lines: Vec<_> = values.chain(histograms).collect();
        lines.sort();
        for (name, line) in lines {
            writeln!(f, "{name} {line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    fn sample() -> Metrics {
        let hist = Histogram::new();
        hist.record(900);
        let mut metrics = Metrics::default();
        metrics.set("refmon.mode.read", 3);
        metrics.set_histogram("refmon.stage.check_ns", hist.snapshot());
        metrics
    }

    #[test]
    fn json_round_trips() {
        let metrics = sample();
        let json = serde_json::to_string(&metrics).unwrap();
        let parsed: Metrics = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, metrics);
        assert_eq!(parsed.get("refmon.mode.read"), Some(3));
        assert_eq!(parsed.histogram("refmon.stage.check_ns").unwrap().count, 1);
        assert_eq!(parsed.get("refmon.mode.write"), None);
    }

    #[test]
    fn display_prints_one_line_per_metric_in_name_order() {
        let text = sample().to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "refmon.mode.read 3",
                "refmon.stage.check_ns count=1 mean=900 p50=1024 p99=1024 max=900",
            ]
        );
    }

    #[test]
    fn extend_merges_disjoint_sources() {
        let mut metrics = sample();
        let mut server = Metrics::default();
        server.set("server.reactor.polls", 2);
        metrics.extend(server);
        assert_eq!(metrics.get("server.reactor.polls"), Some(2));
        assert_eq!(metrics.values.len(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exported twice")]
    fn a_name_is_exported_once() {
        let mut metrics = sample();
        metrics.extend(sample());
    }
}
