//! Deterministic SLO/anomaly watchdog over a flight recording.
//!
//! The watchdog is a *pure fold*: it takes a [`FlightRecording`] (already
//! ordered by `(time, seq)`) plus a [`WatchdogConfig`] and produces
//! windowed rollups and typed [`Anomaly`] records. It never touches the
//! clock, the RNG, or the engine — running it zero or many times over the
//! same recording yields byte-identical reports, and *not* running it
//! changes nothing about an execution. All arithmetic is integer
//! (microsecond latencies, q-errors scaled ×100), so there is no
//! float-accumulation order to worry about.
//!
//! Three anomaly families are raised per window:
//!
//! * **Misestimate** — a `source-rows` event whose q-error (estimated vs
//!   actual service rows) reaches `misestimate_x100`. This is the signal
//!   the roadmap's adaptive re-optimization consumes: the plan was built
//!   on statistics the execution just falsified.
//! * **LinkDegraded** — a logical source whose endpoints' faulted
//!   transfers in the window reach `link_fault_threshold` together, or any
//!   failover away from one of them (a failover is always anomalous: the
//!   primary replica died mid-query).
//! * **AdmissionPressure** — the admission queue held at least
//!   `queue_breach_threshold` jobs past `queue_wait` in the window.

use super::metrics::nearest_rank;
use super::recorder::{CompletionKind, FleetEventKind, FlightRecording};
use crate::lake::logical_source_id;
use std::collections::BTreeMap;
use std::time::Duration;

/// Thresholds and window width for one watchdog pass.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogConfig {
    /// Rollup window width on the simulated clock.
    pub window: Duration,
    /// q-error ×100 at which a `source-rows` event becomes a
    /// [`AnomalyKind::Misestimate`] (800 = estimate off by 8×).
    pub misestimate_x100: u64,
    /// Faulted transfers on one logical source's links within a window at
    /// which the source is flagged [`AnomalyKind::LinkDegraded`].
    pub link_fault_threshold: u64,
    /// Admission wait a job may sit in the queue before it counts as a
    /// queue breach.
    pub queue_wait: Duration,
    /// Queue breaches within a window at which the fleet is flagged
    /// [`AnomalyKind::AdmissionPressure`].
    pub queue_breach_threshold: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            window: Duration::from_secs(1),
            misestimate_x100: 800,
            link_fault_threshold: 3,
            queue_wait: Duration::from_millis(50),
            queue_breach_threshold: 3,
        }
    }
}

/// Latency summary for one query template within one window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemplateLatency {
    /// Completions folded into the summary.
    pub count: u64,
    /// Median latency, microseconds (nearest rank).
    pub p50_us: u64,
    /// 95th-percentile latency, microseconds (nearest rank).
    pub p95_us: u64,
    /// 99th-percentile latency, microseconds (nearest rank).
    pub p99_us: u64,
}

/// q-error histogram for one source within one window. Buckets are
/// `≤2×, ≤4×, ≤8×, ≤16×, >16×` over the scaled q-error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QErrorHistogram {
    /// Bucket counts: `[≤200, ≤400, ≤800, ≤1600, >1600]` (q-error ×100).
    pub buckets: [u64; 5],
    /// Worst q-error ×100 observed in the window.
    pub max_x100: u64,
}

impl QErrorHistogram {
    fn observe(&mut self, x100: u64) {
        let idx = match x100 {
            0..=200 => 0,
            201..=400 => 1,
            401..=800 => 2,
            801..=1600 => 3,
            _ => 4,
        };
        self.buckets[idx] += 1;
        self.max_x100 = self.max_x100.max(x100);
    }

    /// Total samples across all buckets.
    pub(crate) fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// One window of folded fleet activity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowRollup {
    /// Window ordinal (window 0 starts at the simulated epoch).
    pub index: u64,
    /// Inclusive window start on the simulated clock.
    pub start: Duration,
    /// Queries admitted in the window.
    pub admitted: u64,
    /// Queries completed (any outcome) in the window.
    pub completed: u64,
    /// Completions that missed their deadline.
    pub deadline_misses: u64,
    /// Completions that failed outright.
    pub failures: u64,
    /// Completions that degraded (partial answers accepted).
    pub degraded: u64,
    /// Deadline-expiry events (deadline risk: fired even when the query
    /// then degrades instead of failing).
    pub deadline_hits: u64,
    /// Per-template latency percentiles over completions in the window.
    pub latency: BTreeMap<String, TemplateLatency>,
    /// Per-source q-error histograms over `source-rows` events.
    pub qerror: BTreeMap<String, QErrorHistogram>,
    /// Per-link faulted-transfer counts.
    pub link_faults: BTreeMap<String, u64>,
    /// Per-logical-source failover counts.
    pub failovers: BTreeMap<String, u64>,
    /// Admissions whose queue wait exceeded the configured threshold.
    pub queue_breaches: u64,
    /// Longest admission wait seen in the window, microseconds.
    pub max_queued_us: u64,
}

/// What went wrong, with enough context to act on it.
#[derive(Debug, Clone, PartialEq)]
pub enum AnomalyKind {
    /// A service's cardinality estimate was falsified by execution.
    Misestimate {
        /// Logical source whose estimate missed.
        source: String,
        /// Template of the query that exposed the miss.
        template: String,
        /// Observed q-error ×100.
        qerror_x100: u64,
        /// Planner's row estimate for the service.
        estimated_rows: f64,
        /// Rows the service actually produced.
        actual_rows: u64,
    },
    /// A link accumulated faults past the threshold, or a failover fired.
    LinkDegraded {
        /// Logical source of the degraded link.
        source: String,
        /// Faulted transfers in the window.
        faulted: u64,
        /// Failovers away from the source's endpoints in the window.
        failovers: u64,
    },
    /// The admission queue held jobs past the wait threshold.
    AdmissionPressure {
        /// Queue breaches in the window.
        breaches: u64,
        /// Longest admission wait in the window, microseconds.
        max_queued_us: u64,
    },
}

impl AnomalyKind {
    /// Stable wire name of the anomaly family.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            AnomalyKind::Misestimate { .. } => "misestimate",
            AnomalyKind::LinkDegraded { .. } => "link-degraded",
            AnomalyKind::AdmissionPressure { .. } => "admission-pressure",
        }
    }
}

/// One raised anomaly, pinned to the window that raised it.
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// Window ordinal the anomaly belongs to.
    pub window: u64,
    /// Window start time (simulated clock).
    pub at: Duration,
    /// The typed finding.
    pub kind: AnomalyKind,
}

/// The watchdog's verdict over one recording.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WatchdogReport {
    /// Non-empty windows, ascending by index.
    pub windows: Vec<WindowRollup>,
    /// Raised anomalies, ordered by window then by raise order within the
    /// window (misestimates in event order, then links, then admission).
    pub anomalies: Vec<Anomaly>,
    /// Ring evictions in the source recording: when non-zero the oldest
    /// events were dropped and early windows undercount.
    pub dropped_events: u64,
}

impl WatchdogReport {
    /// Anomalies of one family, in raise order.
    pub fn of_kind<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Anomaly> + 'a {
        self.anomalies.iter().filter(move |a| a.kind.name() == name)
    }

    /// Renders the report as a compact text summary, one line per window
    /// and one per anomaly. Deterministic.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for w in &self.windows {
            out.push_str(&format!(
                "window {} @{}us: admitted={} completed={} deadline_misses={} failures={} degraded={}\n",
                w.index,
                w.start.as_micros(),
                w.admitted,
                w.completed,
                w.deadline_misses,
                w.failures,
                w.degraded,
            ));
            for (template, l) in &w.latency {
                out.push_str(&format!(
                    "  latency {template}: n={} p50={}us p95={}us p99={}us\n",
                    l.count, l.p50_us, l.p95_us, l.p99_us
                ));
            }
            for (source, h) in &w.qerror {
                out.push_str(&format!(
                    "  qerror {source}: n={} max={:.2}x buckets={:?}\n",
                    h.count(),
                    h.max_x100 as f64 / 100.0,
                    h.buckets
                ));
            }
        }
        for a in &self.anomalies {
            out.push_str(&format!("anomaly [{}] window {}: {:?}\n", a.kind.name(), a.window, a.kind));
        }
        out
    }
}

/// Per-window scratch accumulated while scanning events.
#[derive(Default)]
struct WindowScratch {
    rollup: WindowRollup,
    /// template → latency samples (µs), in completion order.
    latencies: BTreeMap<String, Vec<u64>>,
    /// Misestimate anomalies in event order.
    misestimates: Vec<AnomalyKind>,
}

/// Folds a recording into windowed rollups and typed anomalies.
///
/// Events are scanned once in ring order (which is `(time, seq)` order by
/// construction); everything downstream is `BTreeMap`s and integer math,
/// so the report is a pure deterministic function of its inputs.
pub fn watch(recording: &FlightRecording, cfg: &WatchdogConfig) -> WatchdogReport {
    let window_us = (cfg.window.as_micros() as u64).max(1);
    let mut windows: BTreeMap<u64, WindowScratch> = BTreeMap::new();

    for ev in &recording.events {
        let t_us = ev.time.as_micros() as u64;
        let idx = t_us / window_us;
        let scratch = windows.entry(idx).or_default();
        let w = &mut scratch.rollup;
        match &ev.kind {
            FleetEventKind::Submit => {}
            FleetEventKind::Admit { queued } => {
                w.admitted += 1;
                let q_us = queued.as_micros() as u64;
                w.max_queued_us = w.max_queued_us.max(q_us);
                if *queued > cfg.queue_wait {
                    w.queue_breaches += 1;
                }
            }
            FleetEventKind::Plan { .. } | FleetEventKind::FirstRow | FleetEventKind::Retry { .. } => {}
            FleetEventKind::Failover { logical, .. } => {
                *w.failovers.entry(logical.clone()).or_default() += 1;
            }
            FleetEventKind::Transfer { link, faulted, .. } => {
                if *faulted {
                    *w.link_faults.entry(link.clone()).or_default() += 1;
                }
            }
            FleetEventKind::Deadline => w.deadline_hits += 1,
            FleetEventKind::SourceRows { source, estimated, rows } => {
                let x100 = (super::analyze::q_error(*estimated, *rows) * 100.0) as u64;
                w.qerror.entry(source.clone()).or_default().observe(x100);
                if x100 >= cfg.misestimate_x100 {
                    let template = recording
                        .meta(ev.job)
                        .map_or_else(String::new, |m| m.template.clone());
                    scratch.misestimates.push(AnomalyKind::Misestimate {
                        source: source.clone(),
                        template,
                        qerror_x100: x100,
                        estimated_rows: *estimated,
                        actual_rows: *rows,
                    });
                }
            }
            FleetEventKind::Complete { outcome, latency, .. } => {
                w.completed += 1;
                match outcome {
                    CompletionKind::Ok => {}
                    CompletionKind::Degraded => w.degraded += 1,
                    CompletionKind::DeadlineMiss => w.deadline_misses += 1,
                    CompletionKind::Failed => w.failures += 1,
                }
                let template = recording
                    .meta(ev.job)
                    .map_or_else(String::new, |m| m.template.clone());
                scratch
                    .latencies
                    .entry(template)
                    .or_default()
                    .push(latency.as_micros() as u64);
            }
        }
    }

    let mut report = WatchdogReport { dropped_events: recording.dropped, ..Default::default() };
    for (idx, mut scratch) in windows {
        let start = Duration::from_micros(idx * window_us);
        scratch.rollup.index = idx;
        scratch.rollup.start = start;
        for (template, mut samples) in std::mem::take(&mut scratch.latencies) {
            samples.sort_unstable();
            scratch.rollup.latency.insert(
                template,
                TemplateLatency {
                    count: samples.len() as u64,
                    p50_us: nearest_rank(&samples, 0.50),
                    p95_us: nearest_rank(&samples, 0.95),
                    p99_us: nearest_rank(&samples, 0.99),
                },
            );
        }

        for kind in std::mem::take(&mut scratch.misestimates) {
            report.anomalies.push(Anomaly { window: idx, at: start, kind });
        }
        // Link anomalies, per logical source: its endpoints' faults summed
        // past the threshold, or any failover away from one of them
        // (keyed and iterated in BTreeMap order).
        let mut sources: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (link, faults) in &scratch.rollup.link_faults {
            sources.entry(logical_source_id(link)).or_default().0 += faults;
        }
        for (logical, n) in &scratch.rollup.failovers {
            sources.entry(logical.as_str()).or_default().1 = *n;
        }
        for (source, (faulted, failovers)) in sources {
            if faulted < cfg.link_fault_threshold && failovers == 0 {
                continue;
            }
            report.anomalies.push(Anomaly {
                window: idx,
                at: start,
                kind: AnomalyKind::LinkDegraded { source: source.to_string(), faulted, failovers },
            });
        }
        if scratch.rollup.queue_breaches >= cfg.queue_breach_threshold {
            report.anomalies.push(Anomaly {
                window: idx,
                at: start,
                kind: AnomalyKind::AdmissionPressure {
                    breaches: scratch.rollup.queue_breaches,
                    max_queued_us: scratch.rollup.max_queued_us,
                },
            });
        }
        report.windows.push(scratch.rollup);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::super::recorder::NO_JOB;
    use super::*;
    use FleetEventKind::*;

    fn cfg() -> WatchdogConfig {
        WatchdogConfig {
            window: Duration::from_millis(100),
            misestimate_x100: 800,
            link_fault_threshold: 2,
            queue_wait: Duration::from_millis(10),
            queue_breach_threshold: 2,
        }
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn fault(link: &str) -> FleetEventKind {
        Transfer { link: link.into(), rows: 0, faulted: true }
    }

    #[test]
    fn empty_recording_yields_empty_report() {
        let report = watch(&FlightRecording::by_hand(&[], Vec::new()), &cfg());
        assert!(report.windows.is_empty());
        assert!(report.anomalies.is_empty());
        assert_eq!(report.dropped_events, 0);
    }

    #[test]
    fn misestimate_and_latency_fold_into_windows() {
        let complete = Complete {
            outcome: CompletionKind::Ok,
            latency: ms(40),
            estimated_rows: 1010.0,
            rows: 62,
        };
        let source_rows =
            |source: &str, estimated, rows| SourceRows { source: source.into(), estimated, rows };
        let recording = FlightRecording::by_hand(
            &[(0, "stars[7]", "dp", None)],
            vec![
                (ms(0), 0, Submit),
                (ms(5), 0, Admit { queued: ms(5) }),
                // chebi estimate 1000 vs actual 50 → q-error 20× (2000 x100).
                (ms(40), 0, source_rows("chebi", 1000.0, 50)),
                // drugbank estimate 10 vs actual 12 → 1.2×, below threshold.
                (ms(40), 0, source_rows("drugbank", 10.0, 12)),
                (ms(40), 0, complete),
            ],
        );
        let report = watch(&recording, &cfg());

        assert_eq!(report.windows.len(), 1);
        let w = &report.windows[0];
        assert_eq!(w.index, 0);
        assert_eq!((w.admitted, w.completed), (1, 1));
        assert_eq!(w.latency["stars"].count, 1);
        assert_eq!(w.latency["stars"].p50_us, 40_000);
        assert_eq!(w.qerror["chebi"].max_x100, 2000);
        assert_eq!(w.qerror["chebi"].buckets, [0, 0, 0, 0, 1]);
        assert_eq!(w.qerror["drugbank"].buckets, [1, 0, 0, 0, 0]);

        let miss: Vec<_> = report.of_kind("misestimate").collect();
        assert_eq!(miss.len(), 1);
        match &miss[0].kind {
            AnomalyKind::Misestimate { source, template, qerror_x100, actual_rows, .. } => {
                assert_eq!(source, "chebi");
                assert_eq!(template, "stars");
                assert_eq!(*qerror_x100, 2000);
                assert_eq!(*actual_rows, 50);
            }
            other => panic!("wrong anomaly: {other:?}"),
        }
    }

    #[test]
    fn link_faults_and_failovers_flag_degraded_logical_sources() {
        let failover =
            Failover { logical: "kegg".into(), from: "kegg#r0".into(), to: "kegg#r1".into() };
        let recording = FlightRecording::by_hand(
            &[(1, "fo", "heuristic", None)],
            vec![
                // One faulted transfer on each replica of chebi in window 0:
                // together at the threshold.
                (ms(10), NO_JOB, fault("chebi#r0")),
                (ms(30), NO_JOB, fault("chebi#r1")),
                // One fault on drugbank → below threshold, no anomaly.
                (ms(10), NO_JOB, fault("drugbank")),
                // A failover on kegg flags it even with zero recorded faults.
                (ms(40), 0, failover),
            ],
        );
        let report = watch(&recording, &cfg());

        let degraded: Vec<_> = report.of_kind("link-degraded").map(|a| a.kind.clone()).collect();
        assert_eq!(
            degraded,
            [
                AnomalyKind::LinkDegraded { source: "chebi".into(), faulted: 2, failovers: 0 },
                AnomalyKind::LinkDegraded { source: "kegg".into(), faulted: 0, failovers: 1 },
            ]
        );
    }

    #[test]
    fn admission_pressure_needs_repeated_breaches() {
        let jobs: Vec<_> = (0..3).map(|client| (client, "w", "heuristic", None)).collect();
        let mut events = Vec::new();
        for (job, wait) in [(0, ms(20)), (1, ms(30)), (2, ms(2))] {
            events.push((Duration::ZERO, job, Submit));
            events.push((wait, job, Admit { queued: wait }));
        }
        let report = watch(&FlightRecording::by_hand(&jobs, events), &cfg());
        let w = &report.windows[0];
        assert_eq!(w.admitted, 3);
        assert_eq!(w.queue_breaches, 2);
        assert_eq!(w.max_queued_us, 30_000);
        let pressure: Vec<_> = report.of_kind("admission-pressure").collect();
        assert_eq!(pressure.len(), 1);
        match &pressure[0].kind {
            AnomalyKind::AdmissionPressure { breaches, max_queued_us } => {
                assert_eq!((*breaches, *max_queued_us), (2, 30_000));
            }
            other => panic!("wrong anomaly: {other:?}"),
        }
    }

    #[test]
    fn watch_is_deterministic_and_windows_split_by_time() {
        let complete =
            |outcome| Complete { outcome, latency: ms(40), estimated_rows: 1.0, rows: 1 };
        let recording = FlightRecording::by_hand(
            &[(0, "a", "heuristic", None), (1, "a", "heuristic", None)],
            vec![
                (ms(0), 0, Submit),
                (ms(0), 0, Admit { queued: Duration::ZERO }),
                (ms(40), 0, complete(CompletionKind::Ok)),
                (ms(150), 1, Submit),
                (ms(150), 1, Admit { queued: Duration::ZERO }),
                (ms(190), 1, complete(CompletionKind::Degraded)),
            ],
        );
        let a = watch(&recording, &cfg());
        let b = watch(&recording, &cfg());
        assert_eq!(a, b);
        assert_eq!(a.windows.len(), 2);
        assert_eq!(a.windows[0].index, 0);
        assert_eq!(a.windows[1].index, 1);
        assert_eq!(a.windows[1].degraded, 1);
        assert_eq!(a.render(), b.render());
    }
}
