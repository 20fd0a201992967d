//! A registry of named metrics with deterministic iteration order.
//!
//! Counters, gauges and histograms accumulated during one traced
//! execution. Keys are dotted paths (`link.chebi.messages`,
//! `engine.join_probes`, `sched.queue_depth`); the registry is a
//! `BTreeMap`, so rendering and export order is independent of insertion
//! order — a requirement of the byte-identical-trace contract.

use std::collections::BTreeMap;

/// Nearest-rank percentile over an ascending-sorted slice: the smallest
/// element whose rank `⌈q·n⌉` covers quantile `q` (`q` in `[0, 1]`).
/// Returns 0 on an empty slice.
///
/// This is the **one** quantile definition in the workspace —
/// `ServeReport`'s p50/p95/p99 and the watchdog's per-template windows
/// both call it, so the two can never disagree at small `n` (the old
/// failure mode when each carried its own copy).
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One metric value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Monotone event count.
    Counter(u64),
    /// Last-written value plus the maximum ever written.
    Gauge {
        /// Most recent value.
        last: u64,
        /// Largest value observed.
        max: u64,
    },
    /// Distribution summary of observed samples.
    Histogram {
        /// Samples observed.
        count: u64,
        /// Sum of samples.
        sum: u64,
        /// Smallest sample.
        min: u64,
        /// Largest sample.
        max: u64,
    },
}

/// Named metrics for one execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    entries: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the counter `name` (created at zero). Like every write,
    /// it names its kind: a key last written as another kind starts over
    /// as this one.
    pub(crate) fn counter_add(&mut self, name: &str, v: u64) {
        match self.entries.get_mut(name) {
            Some(Metric::Counter(c)) => *c += v,
            _ => self.put(name, Metric::Counter(v)),
        }
    }

    /// Sets the gauge `name` to `v`, tracking its maximum.
    pub(crate) fn gauge_set(&mut self, name: &str, v: u64) {
        match self.entries.get_mut(name) {
            Some(Metric::Gauge { last, max }) => {
                *last = v;
                *max = (*max).max(v);
            }
            _ => self.put(name, Metric::Gauge { last: v, max: v }),
        }
    }

    /// Records one sample `v` in the histogram `name`.
    pub(crate) fn observe(&mut self, name: &str, v: u64) {
        match self.entries.get_mut(name) {
            Some(Metric::Histogram { count, sum, min, max }) => {
                *count += 1;
                *sum += v;
                *min = (*min).min(v);
                *max = (*max).max(v);
            }
            _ => self.put(name, Metric::Histogram { count: 1, sum: v, min: v, max: v }),
        }
    }

    /// Sets `name` to `metric`, whatever it held before.
    fn put(&mut self, name: &str, metric: Metric) {
        self.entries.insert(name.to_string(), metric);
    }

    /// The metric named `name`, if any.
    pub fn get(&self, name: &str) -> Option<Metric> {
        self.entries.get(name).copied()
    }

    /// The counter `name`, or zero when absent.
    pub fn counter(&self, name: &str) -> u64 {
        match self.entries.get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// All metrics in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds every metric of `other` into this registry: counters add,
    /// gauges take the other's last value and the joint maximum,
    /// histograms combine their summaries. Deterministic (key order), and
    /// the merge of per-session registries equals the registry a single
    /// combined recording would have produced.
    ///
    /// When the same key names different metric kinds in the two
    /// registries, the other's metric replaces this one's — the rule of
    /// the typed writers, where the later write decides the kind.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, metric) in other.iter() {
            match (self.entries.get_mut(name), metric) {
                (Some(Metric::Counter(c)), Metric::Counter(o)) => *c += o,
                (Some(Metric::Gauge { last, max }), Metric::Gauge { last: ol, max: om }) => {
                    *last = *ol;
                    *max = (*max).max(*om);
                }
                (
                    Some(Metric::Histogram { count, sum, min, max }),
                    Metric::Histogram { count: oc, sum: os, min: omin, max: omax },
                ) => {
                    *count += oc;
                    *sum += os;
                    *min = (*min).min(*omin);
                    *max = (*max).max(*omax);
                }
                _ => self.put(name, *metric),
            }
        }
    }

    /// Prometheus-style text exposition of the registry: dotted keys
    /// become `fedlake_`-prefixed snake-case metric names, counters and
    /// gauge values export directly, histograms export their summary as
    /// `_count`/`_sum`/`_min`/`_max` series. Output is deterministic (key
    /// order) — the byte-identity contract of the serve determinism
    /// suite.
    pub fn prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 8);
            out.push_str("fedlake_");
            for c in name.chars() {
                if c.is_ascii_alphanumeric() {
                    out.push(c);
                } else {
                    out.push('_');
                }
            }
            out
        }
        let mut out = String::new();
        for (name, metric) in self.iter() {
            let prom = sanitize(name);
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("# TYPE {prom} counter\n{prom} {c}\n"));
                }
                Metric::Gauge { last, max } => {
                    out.push_str(&format!(
                        "# TYPE {prom} gauge\n{prom} {last}\n{prom}_max {max}\n"
                    ));
                }
                Metric::Histogram { count, sum, min, max } => {
                    out.push_str(&format!(
                        "# TYPE {prom} summary\n{prom}_count {count}\n{prom}_sum {sum}\n{prom}_min {min}\n{prom}_max {max}\n"
                    ));
                }
            }
        }
        out
    }

    /// One `name value` line per metric, in key order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, metric) in self.iter() {
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{name} {c}\n")),
                Metric::Gauge { last, max } => {
                    out.push_str(&format!("{name} last={last} max={max}\n"))
                }
                Metric::Histogram { count, sum, min, max } => out.push_str(&format!(
                    "{name} count={count} sum={sum} min={min} max={max}\n"
                )),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.counter_add("a.b", 2);
        m.counter_add("a.b", 3);
        assert_eq!(m.get("a.b"), Some(Metric::Counter(5)));
        assert_eq!(m.counter("a.b"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn gauges_track_max() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("depth", 3);
        m.gauge_set("depth", 7);
        m.gauge_set("depth", 2);
        assert_eq!(m.get("depth"), Some(Metric::Gauge { last: 2, max: 7 }));
    }

    #[test]
    fn histograms_summarize() {
        let mut m = MetricsRegistry::new();
        for v in [4, 1, 9] {
            m.observe("h", v);
        }
        assert_eq!(m.get("h"), Some(Metric::Histogram { count: 3, sum: 14, min: 1, max: 9 }));
    }

    #[test]
    fn nearest_rank_is_exact() {
        assert_eq!(nearest_rank(&[], 0.5), 0);
        assert_eq!(nearest_rank(&[7], 0.5), 7);
        assert_eq!(nearest_rank(&[7], 0.99), 7);
        // n = 4: p50 → rank ⌈2⌉ = 2nd element, p95 → rank ⌈3.8⌉ = 4th.
        assert_eq!(nearest_rank(&[10, 20, 30, 40], 0.50), 20);
        assert_eq!(nearest_rank(&[10, 20, 30, 40], 0.95), 40);
        assert_eq!(nearest_rank(&[10, 20, 30, 40], 0.99), 40);
        // n = 100: p95 is exactly the 95th element.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.50), 50);
        assert_eq!(nearest_rank(&v, 0.95), 95);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&v, 1.0), 100);
        // q = 0 clamps to the first element rather than underflowing.
        assert_eq!(nearest_rank(&v, 0.0), 1);
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = MetricsRegistry::new();
        a.counter_add("c", 2);
        a.gauge_set("g", 5);
        a.observe("h", 10);
        a.counter_add("k", 1);
        let mut b = MetricsRegistry::new();
        b.counter_add("c", 3);
        b.counter_add("only_b", 1);
        b.gauge_set("g", 3);
        b.observe("h", 2);
        b.observe("h", 20);
        b.gauge_set("k", 4);

        let mut merged = a.clone();
        merged.merge(&b);

        let mut combined = MetricsRegistry::new();
        combined.counter_add("c", 2);
        combined.gauge_set("g", 5);
        combined.observe("h", 10);
        combined.counter_add("k", 1);
        combined.counter_add("c", 3);
        combined.counter_add("only_b", 1);
        combined.gauge_set("g", 3);
        combined.observe("h", 2);
        combined.observe("h", 20);
        combined.gauge_set("k", 4);
        assert_eq!(merged, combined);
        assert_eq!(merged.counter("c"), 5);
        assert_eq!(merged.get("g"), Some(Metric::Gauge { last: 3, max: 5 }));
        assert_eq!(merged.get("h"), Some(Metric::Histogram { count: 3, sum: 32, min: 2, max: 20 }));
        // A key of two kinds takes the later write's kind.
        assert_eq!(merged.get("k"), Some(Metric::Gauge { last: 4, max: 4 }));
    }

    #[test]
    fn prometheus_exposition_is_stable() {
        let mut m = MetricsRegistry::new();
        m.counter_add("link.chebi#r1.messages", 4);
        m.gauge_set("sched.queue_depth", 2);
        m.observe("serve.latency_us", 120);
        let text = m.prometheus();
        assert!(text.contains("# TYPE fedlake_link_chebi_r1_messages counter\n"));
        assert!(text.contains("fedlake_link_chebi_r1_messages 4\n"));
        assert!(text.contains("fedlake_sched_queue_depth 2\n"));
        assert!(text.contains("fedlake_sched_queue_depth_max 2\n"));
        assert!(text.contains("fedlake_serve_latency_us_count 1\n"));
        assert!(text.contains("fedlake_serve_latency_us_sum 120\n"));
        // Rendering twice is byte-identical.
        assert_eq!(text, m.prometheus());
    }

    #[test]
    fn render_is_sorted_regardless_of_insertion() {
        let mut a = MetricsRegistry::new();
        a.counter_add("z", 1);
        a.counter_add("a", 1);
        let mut b = MetricsRegistry::new();
        b.counter_add("a", 1);
        b.counter_add("z", 1);
        assert_eq!(a.render(), b.render());
        assert!(a.render().starts_with("a 1\n"));
        assert_eq!(a.entries.len(), 2);
    }
}
