//! Labeled metric registry with Prometheus text exposition and a JSON
//! snapshot.
//!
//! Registration is get-or-create: asking for `("vfl_stage_ns",
//! [("stage", "settlement")])` twice returns handles to the same cell,
//! so independent components can share a family without coordinating.
//! The registry lock is held only during registration and rendering —
//! never on the recording path, which goes straight to the cloned
//! handle's atomics.
//!
//! [`Registry::render`] follows the Prometheus text exposition format:
//! one `# HELP` / `# TYPE` header per family, then one line per series
//! (`name{label="value"} n`). Histograms render the cumulative
//! `_bucket{le="..."}` convention — empty interior buckets are skipped
//! (the format permits sparse buckets; cumulative counts stay monotone)
//! and the `+Inf` bucket, `_sum`, and `_count` are always present.

use crate::histogram::{bucket_upper_edge, Histogram};
use crate::lock;
use crate::metric::{Counter, Gauge};
use std::fmt::Write as _;
use std::sync::Mutex;

/// Kind tag for a family; families are homogeneous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Series {
    labels: Vec<(String, String)>,
    metric: Metric,
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: Kind,
    series: Vec<Series>,
}

/// Owns metric families and renders them. Families and series appear in
/// output in registration order, so renders are deterministic.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create an unlabeled counter family.
    ///
    /// # Panics
    /// Panics if `name` is already registered with a different kind —
    /// that is a programming error, not a runtime condition.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Get-or-create a counter series with the given labels.
    ///
    /// # Panics
    /// Panics on a kind collision for `name` (see [`Registry::counter`]).
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_create(name, help, labels, Kind::Counter, || {
            Metric::Counter(Counter::new())
        }) {
            Metric::Counter(c) => c,
            _ => unreachable!("kind checked by get_or_create"),
        }
    }

    /// Get-or-create an unlabeled gauge family.
    ///
    /// # Panics
    /// Panics on a kind collision for `name` (see [`Registry::counter`]).
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Get-or-create a gauge series with the given labels.
    ///
    /// # Panics
    /// Panics on a kind collision for `name` (see [`Registry::counter`]).
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_create(name, help, labels, Kind::Gauge, || {
            Metric::Gauge(Gauge::new())
        }) {
            Metric::Gauge(g) => g,
            _ => unreachable!("kind checked by get_or_create"),
        }
    }

    /// Get-or-create an unlabeled histogram family.
    ///
    /// # Panics
    /// Panics on a kind collision for `name` (see [`Registry::counter`]).
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Get-or-create a histogram series with the given labels.
    ///
    /// # Panics
    /// Panics on a kind collision for `name` (see [`Registry::counter`]).
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.get_or_create(name, help, labels, Kind::Histogram, || {
            Metric::Histogram(Histogram::new())
        }) {
            Metric::Histogram(h) => h,
            _ => unreachable!("kind checked by get_or_create"),
        }
    }

    fn get_or_create(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: Kind,
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut families = lock(&self.families);
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(family) => {
                assert_eq!(
                    family.kind,
                    kind,
                    "metric family {name:?} registered as {} but requested as {}",
                    family.kind.as_str(),
                    kind.as_str()
                );
                family
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(series) = family.series.iter().find(|s| label_eq(&s.labels, labels)) {
            return series.metric.clone();
        }
        let metric = make();
        family.series.push(Series {
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            metric: metric.clone(),
        });
        metric
    }

    /// Render every family in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for family in lock(&self.families).iter() {
            let _ = writeln!(out, "# HELP {} {}", family.name, escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.as_str());
            for series in &family.series {
                match &series.metric {
                    Metric::Counter(c) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            family.name,
                            label_block(&series.labels, None),
                            c.get()
                        );
                    }
                    Metric::Gauge(g) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            family.name,
                            label_block(&series.labels, None),
                            g.get()
                        );
                    }
                    Metric::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cumulative = 0u64;
                        for (i, &n) in snap.buckets.iter().enumerate() {
                            cumulative = cumulative.saturating_add(n);
                            // Sparse rendering: only emit a bucket line
                            // when it is non-empty (or the +Inf bucket,
                            // emitted unconditionally below).
                            if n == 0 {
                                continue;
                            }
                            if let Some(edge) = bucket_upper_edge(i) {
                                let edge = edge.to_string();
                                let _ = writeln!(
                                    out,
                                    "{}_bucket{} {}",
                                    family.name,
                                    label_block(&series.labels, Some(&edge)),
                                    cumulative
                                );
                            }
                        }
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            family.name,
                            label_block(&series.labels, Some("+Inf")),
                            snap.count
                        );
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            family.name,
                            label_block(&series.labels, None),
                            snap.sum
                        );
                        let _ = writeln!(
                            out,
                            "{}_count{} {}",
                            family.name,
                            label_block(&series.labels, None),
                            snap.count
                        );
                    }
                }
            }
        }
        out
    }

    /// Render every family as a JSON document: arrays of counter, gauge,
    /// and histogram objects (the latter carrying count/sum/min/max and
    /// p50/p95/p99), in registration order. All values are integers, so
    /// the output is stable across platforms.
    pub fn render_json(&self) -> String {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for family in lock(&self.families).iter() {
            for series in &family.series {
                let id = json_string(&series_id(&family.name, &series.labels));
                match &series.metric {
                    Metric::Counter(c) => {
                        counters.push(format!("{{\"name\":{id},\"value\":{}}}", c.get()));
                    }
                    Metric::Gauge(g) => {
                        gauges.push(format!("{{\"name\":{id},\"value\":{}}}", g.get()));
                    }
                    Metric::Histogram(h) => {
                        let s = h.snapshot();
                        histograms.push(format!(
                            "{{\"name\":{id},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                            s.count,
                            s.sum,
                            s.min,
                            s.max,
                            s.p50(),
                            s.p95(),
                            s.p99()
                        ));
                    }
                }
            }
        }
        format!(
            "{{\"counters\":[{}],\"gauges\":[{}],\"histograms\":[{}]}}",
            counters.join(","),
            gauges.join(","),
            histograms.join(",")
        )
    }
}

fn label_eq(owned: &[(String, String)], query: &[(&str, &str)]) -> bool {
    owned.len() == query.len()
        && owned
            .iter()
            .zip(query.iter())
            .all(|((ok, ov), (qk, qv))| ok == qk && ov == qv)
}

/// `{k="v",le="..."}` or the empty string when there is nothing to emit.
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Flat series id for JSON output: `name` or `name{k="v"}`.
fn series_id(name: &str, labels: &[(String, String)]) -> String {
    format!("{name}{}", label_block(labels, None))
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_shares_the_cell() {
        let reg = Registry::new();
        let a = reg.counter("requests_total", "Requests.");
        let b = reg.counter("requests_total", "Requests.");
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let reg = Registry::new();
        let hit = reg.counter_with("cache_total", "Cache.", &[("kind", "hit")]);
        let miss = reg.counter_with("cache_total", "Cache.", &[("kind", "miss")]);
        hit.inc();
        hit.inc();
        miss.inc();
        let text = reg.render();
        assert!(text.contains("# TYPE cache_total counter"), "{text}");
        assert!(text.contains("cache_total{kind=\"hit\"} 2"), "{text}");
        assert!(text.contains("cache_total{kind=\"miss\"} 1"), "{text}");
        // HELP/TYPE once per family, not per series.
        assert_eq!(text.matches("# HELP cache_total").count(), 1);
    }

    #[test]
    #[should_panic(expected = "registered as counter but requested as gauge")]
    fn kind_collision_panics() {
        let reg = Registry::new();
        let _ = reg.counter("x_total", "X.");
        let _ = reg.gauge("x_total", "X.");
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("latency_ns", "Latency.");
        h.record(1); // bucket 1, edge 1
        h.record(3); // bucket 2, edge 3
        h.record(3);
        let text = reg.render();
        assert!(text.contains("# TYPE latency_ns histogram"), "{text}");
        assert!(text.contains("latency_ns_bucket{le=\"1\"} 1"), "{text}");
        assert!(text.contains("latency_ns_bucket{le=\"3\"} 3"), "{text}");
        assert!(text.contains("latency_ns_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("latency_ns_sum 7"), "{text}");
        assert!(text.contains("latency_ns_count 3"), "{text}");
    }

    #[test]
    fn gauge_renders_negative_levels() {
        let reg = Registry::new();
        let g = reg.gauge("depth", "Depth.");
        g.set(-2);
        assert!(reg.render().contains("depth -2"));
    }

    #[test]
    fn json_snapshot_carries_quantiles() {
        let reg = Registry::new();
        reg.counter("a_total", "A.").add(5);
        reg.gauge("b_depth", "B.").set(3);
        let h = reg.histogram_with("c_ns", "C.", &[("stage", "x")]);
        for _ in 0..10 {
            h.record(100);
        }
        let json = reg.render_json();
        assert!(
            json.contains("{\"name\":\"a_total\",\"value\":5}"),
            "{json}"
        );
        assert!(
            json.contains("{\"name\":\"b_depth\",\"value\":3}"),
            "{json}"
        );
        assert!(
            json.contains("\"name\":\"c_ns{stage=\\\"x\\\"}\""),
            "{json}"
        );
        assert!(json.contains("\"count\":10"), "{json}");
        // 100 lands in bucket 7 (edge 127); every quantile reads the
        // edge clamped to the observed max.
        assert!(json.contains("\"p50\":100"), "{json}");
        assert!(json.contains("\"p99\":100"), "{json}");
    }

    #[test]
    fn render_order_is_registration_order() {
        let reg = Registry::new();
        reg.counter("zzz_total", "Z.");
        reg.counter("aaa_total", "A.");
        let text = reg.render();
        let z = text.find("zzz_total").unwrap();
        let a = text.find("aaa_total").unwrap();
        assert!(z < a, "families render in registration order:\n{text}");
    }
}
