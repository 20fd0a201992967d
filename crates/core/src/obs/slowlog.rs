//! Slow-query log: stable JSON records for queries that breached a
//! latency or estimation-quality threshold.
//!
//! Records are built after the fact from a [`FlightRecording`] — one scan
//! per job over its lifecycle events — and optionally enriched with the
//! session's [`TraceReport`] for per-operator actuals and the per-link
//! wait breakdown. Building the log is read-only and deterministic: the
//! same recording (and traces) always serializes to the same bytes, which
//! is what lets `tier1.sh` pin a golden snapshot of one.

use super::analyze::q_error;
use super::recorder::{FleetEventKind, FlightRecording, NO_JOB};
use super::span::TraceReport;
use crate::results::json_escape as esc;
use std::time::Duration;

/// Breach thresholds for the slow-query log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowLogConfig {
    /// Latency (arrival → completion) at or past which a query is logged.
    /// `None` disables the latency criterion.
    pub latency: Option<Duration>,
    /// q-error ×100 at or past which a query is logged — the worst
    /// per-service q-error, or the whole-query estimate-vs-answers
    /// q-error, whichever is larger. 800 = off by 8×.
    pub qerror_x100: u64,
}

impl Default for SlowLogConfig {
    fn default() -> Self {
        SlowLogConfig { latency: None, qerror_x100: 800 }
    }
}

/// One service leaf's estimate against what it actually produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowSource {
    /// Logical source id of the service.
    pub source: String,
    /// Planner's row estimate.
    pub estimated_rows: f64,
    /// Rows the service emitted.
    pub actual_rows: u64,
    /// q-error ×100 between the two.
    pub qerror_x100: u64,
}

/// One operator's actuals, copied from the trace report.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowOperator {
    /// The operator's EXPLAIN line (indented by depth already).
    pub label: String,
    /// Planner's estimated output rows of the subtree.
    pub estimated_rows: f64,
    /// Rows the operator emitted.
    pub rows_out: u64,
    /// q-error ×100 between the two.
    pub qerror_x100: u64,
}

/// One link's share of the query's waiting, copied from the trace report.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowLink {
    /// Endpoint id (replicas keep their `#rK` suffix).
    pub endpoint: String,
    /// Messages delivered.
    pub messages: u64,
    /// Rows transferred.
    pub rows: u64,
    /// Simulated network delay injected on the link, microseconds.
    pub wait_us: u64,
    /// Failed transfer attempts.
    pub faults: u64,
    /// Wrapper retries against the source.
    pub retries: u64,
}

/// Everything the log captures about one breaching query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SlowQueryRecord {
    /// Issuing client.
    pub client: usize,
    /// Job label (`Q3[cat-12]`).
    pub label: String,
    /// Query template (label with the instance suffix stripped).
    pub template: String,
    /// Plan strategy (`heuristic`, `dp`, `greedy-cost`).
    pub strategy: String,
    /// Completion outcome wire name (`ok`, `degraded`, `deadline-miss`,
    /// `failed`).
    pub outcome: String,
    /// Thresholds that fired (`latency`, `qerror`), in that order.
    pub breached: Vec<String>,
    /// Simulated submit time, microseconds.
    pub submitted_us: u64,
    /// Time spent queued before admission, microseconds.
    pub queued_us: u64,
    /// Arrival → completion latency, microseconds.
    pub latency_us: u64,
    /// First answer relative to submit, microseconds, when any.
    pub first_row_us: Option<u64>,
    /// Relative deadline, microseconds, when one applied.
    pub deadline_us: Option<u64>,
    /// Answers produced.
    pub answers: u64,
    /// Planner's whole-query row estimate.
    pub estimated_rows: f64,
    /// Whole-query q-error ×100 (estimate vs answers).
    pub qerror_x100: u64,
    /// Candidate plans the planner costed.
    pub plans_costed: u64,
    /// Bind joins in the chosen plan.
    pub bind_joins: u64,
    /// Wrapper retries, as `endpoint#attempt` strings in event order.
    pub retries: Vec<String>,
    /// Replica failovers, as `logical: from->to` strings in event order.
    pub route: Vec<String>,
    /// Per-service estimates vs actuals, in plan pre-order.
    pub sources: Vec<SlowSource>,
    /// Per-operator actuals (trace enrichment; empty when untraced).
    pub operators: Vec<SlowOperator>,
    /// Per-link wait breakdown (trace enrichment; empty when untraced).
    pub links: Vec<SlowLink>,
}

/// `f64` as stable JSON: integral values print without a fraction
/// (`120`), everything else with Rust's shortest round-trip formatting.
fn num(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |x| x.to_string())
}

fn str_array(items: &[String]) -> String {
    let body: Vec<String> = items.iter().map(|s| format!("\"{}\"", esc(s))).collect();
    format!("[{}]", body.join(","))
}

impl SlowQueryRecord {
    /// Copies per-operator actuals and the per-link wait breakdown out of
    /// the session's trace report.
    pub fn attach_trace(&mut self, report: &TraceReport) {
        self.operators = report
            .nodes
            .iter()
            .map(|n| SlowOperator {
                label: n.label.clone(),
                estimated_rows: n.estimated,
                rows_out: n.rows_out,
                qerror_x100: (q_error(n.estimated, n.rows_out) * 100.0) as u64,
            })
            .collect();
        self.links = report
            .sources
            .iter()
            .map(|(endpoint, s)| SlowLink {
                endpoint: endpoint.clone(),
                messages: s.link.messages,
                rows: s.link.rows,
                wait_us: s.link.delay.as_micros() as u64,
                faults: s.link.faults(),
                retries: s.retries,
            })
            .collect();
    }

    /// Serializes the record as one stable JSON object (key order fixed,
    /// no whitespace beyond single spaces after colons... none at all, in
    /// fact — the bytes are the contract).
    pub(crate) fn to_json(&self) -> String {
        let sources: Vec<String> = self
            .sources
            .iter()
            .map(|s| {
                format!(
                    "{{\"source\":\"{}\",\"estimated_rows\":{},\"actual_rows\":{},\"qerror_x100\":{}}}",
                    esc(&s.source),
                    num(s.estimated_rows),
                    s.actual_rows,
                    s.qerror_x100,
                )
            })
            .collect();
        let operators: Vec<String> = self
            .operators
            .iter()
            .map(|o| {
                format!(
                    "{{\"label\":\"{}\",\"estimated_rows\":{},\"rows_out\":{},\"qerror_x100\":{}}}",
                    esc(&o.label),
                    num(o.estimated_rows),
                    o.rows_out,
                    o.qerror_x100,
                )
            })
            .collect();
        let links: Vec<String> = self
            .links
            .iter()
            .map(|l| {
                format!(
                    "{{\"endpoint\":\"{}\",\"messages\":{},\"rows\":{},\"wait_us\":{},\"faults\":{},\"retries\":{}}}",
                    esc(&l.endpoint),
                    l.messages,
                    l.rows,
                    l.wait_us,
                    l.faults,
                    l.retries,
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"client\":{},\"label\":\"{}\",\"template\":\"{}\",\"strategy\":\"{}\",",
                "\"outcome\":\"{}\",\"breached\":{},",
                "\"submitted_us\":{},\"queued_us\":{},\"latency_us\":{},\"first_row_us\":{},",
                "\"deadline_us\":{},\"answers\":{},\"estimated_rows\":{},\"qerror_x100\":{},",
                "\"plans_costed\":{},\"bind_joins\":{},\"retries\":{},\"route\":{},",
                "\"sources\":[{}],\"operators\":[{}],\"links\":[{}]}}"
            ),
            self.client,
            esc(&self.label),
            esc(&self.template),
            esc(&self.strategy),
            esc(&self.outcome),
            str_array(&self.breached),
            self.submitted_us,
            self.queued_us,
            self.latency_us,
            opt(self.first_row_us),
            opt(self.deadline_us),
            self.answers,
            num(self.estimated_rows),
            self.qerror_x100,
            self.plans_costed,
            self.bind_joins,
            str_array(&self.retries),
            str_array(&self.route),
            sources.join(","),
            operators.join(","),
            links.join(","),
        )
    }
}

/// Renders a slow-query log as a JSON array, one record per line.
pub fn slow_log_json(records: &[SlowQueryRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&r.to_json());
    }
    out.push_str("\n]\n");
    out
}

/// Scans a recording and returns one record per query that breached a
/// threshold, in job order. Jobs without a `complete` event (still in
/// flight when the snapshot was taken, or evicted from the ring) are
/// skipped.
pub fn slow_queries(recording: &FlightRecording, cfg: &SlowLogConfig) -> Vec<SlowQueryRecord> {
    let mut out = Vec::new();
    for (job, meta) in recording.jobs.iter().enumerate() {
        let job = job as u32;
        if job == NO_JOB {
            break; // 4 billion jobs: the sentinel is no longer unambiguous.
        }
        let mut rec = SlowQueryRecord {
            client: meta.client,
            label: meta.label.clone(),
            template: meta.template.clone(),
            strategy: meta.strategy.to_string(),
            deadline_us: meta.deadline.map(|d| d.as_micros() as u64),
            ..SlowQueryRecord::default()
        };
        let mut submitted = Duration::ZERO;
        let mut completed = false;
        for ev in recording.events_for(job) {
            match &ev.kind {
                FleetEventKind::Submit => submitted = ev.time,
                FleetEventKind::Admit { queued } => rec.queued_us = queued.as_micros() as u64,
                FleetEventKind::Plan { plans_costed, bind_joins, .. } => {
                    rec.plans_costed = *plans_costed;
                    rec.bind_joins = *bind_joins;
                }
                FleetEventKind::FirstRow => {
                    rec.first_row_us =
                        Some(ev.time.saturating_sub(submitted).as_micros() as u64);
                }
                FleetEventKind::Retry { endpoint, attempt } => {
                    rec.retries.push(format!("{endpoint}#{attempt}"));
                }
                FleetEventKind::Failover { logical, from, to } => {
                    rec.route.push(format!("{logical}: {from}->{to}"));
                }
                FleetEventKind::Transfer { .. } | FleetEventKind::Deadline => {}
                FleetEventKind::SourceRows { source, estimated, rows } => {
                    rec.sources.push(SlowSource {
                        source: source.clone(),
                        estimated_rows: *estimated,
                        actual_rows: *rows,
                        qerror_x100: (q_error(*estimated, *rows) * 100.0) as u64,
                    });
                }
                FleetEventKind::Complete { outcome, latency, estimated_rows, rows } => {
                    completed = true;
                    rec.outcome = outcome.name().to_string();
                    rec.latency_us = latency.as_micros() as u64;
                    rec.answers = *rows;
                    rec.estimated_rows = *estimated_rows;
                    rec.qerror_x100 = (q_error(*estimated_rows, *rows) * 100.0) as u64;
                }
            }
        }
        if !completed {
            continue;
        }
        rec.submitted_us = submitted.as_micros() as u64;
        let worst_qerror = rec
            .sources
            .iter()
            .map(|s| s.qerror_x100)
            .chain([rec.qerror_x100])
            .max()
            .unwrap_or(0);
        if let Some(limit) = cfg.latency {
            if Duration::from_micros(rec.latency_us) >= limit {
                rec.breached.push("latency".to_string());
            }
        }
        if worst_qerror >= cfg.qerror_x100 {
            rec.breached.push("qerror".to_string());
        }
        if !rec.breached.is_empty() {
            out.push(rec);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::recorder::CompletionKind;
    use super::*;
    use FleetEventKind::*;

    fn seed_recording() -> FlightRecording {
        let ms = Duration::from_millis;
        let chebi = |estimated, rows| SourceRows { source: "chebi".into(), estimated, rows };
        let complete = |outcome, latency, estimated_rows, rows| Complete {
            outcome,
            latency,
            estimated_rows,
            rows,
        };
        let failover =
            Failover { logical: "chebi".into(), from: "chebi#r0".into(), to: "chebi#r1".into() };
        FlightRecording::by_hand(
            &[(0, "Q1[a]", "heuristic", None), (2, "Q3[cat-12]", "dp", Some(ms(500)))],
            vec![
                // Job 0: fast and well-estimated — never logged.
                (ms(0), 0, Submit),
                (ms(0), 0, Admit { queued: Duration::ZERO }),
                (ms(5), 0, chebi(10.0, 9)),
                (ms(5), 0, complete(CompletionKind::Ok, ms(5), 10.0, 9)),
                // Job 1: slow AND badly estimated.
                (ms(10), 1, Submit),
                (ms(14), 1, Admit { queued: ms(4) }),
                (ms(60), 1, FirstRow),
                (ms(70), 1, Retry { endpoint: "chebi#r0".into(), attempt: 1 }),
                (ms(80), 1, failover),
                (ms(210), 1, chebi(1000.0, 40)),
                (ms(210), 1, complete(CompletionKind::Degraded, ms(200), 1000.0, 40)),
            ],
        )
    }

    #[test]
    fn only_breaching_completed_queries_are_logged() {
        let recording = seed_recording();
        let records = slow_queries(
            &recording,
            &SlowLogConfig { latency: Some(Duration::from_millis(100)), qerror_x100: 800 },
        );
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.breached, vec!["latency".to_string(), "qerror".to_string()]);
        assert_eq!((r.client, r.label.as_str(), r.template.as_str()), (2, "Q3[cat-12]", "Q3"));
        assert_eq!((r.strategy.as_str(), r.outcome.as_str()), ("dp", "degraded"));
        assert_eq!((r.submitted_us, r.queued_us, r.latency_us), (10_000, 4_000, 200_000));
        assert_eq!(r.first_row_us, Some(50_000));
        assert_eq!(r.deadline_us, Some(500_000));
        assert_eq!(r.retries, vec!["chebi#r0#1".to_string()]);
        assert_eq!(r.route, vec!["chebi: chebi#r0->chebi#r1".to_string()]);
        assert_eq!(r.sources.len(), 1);
        assert_eq!(r.sources[0].qerror_x100, 2500); // 1000 est vs 40 actual.
    }

    #[test]
    fn qerror_alone_triggers_without_a_latency_limit() {
        let recording = seed_recording();
        let records = slow_queries(&recording, &SlowLogConfig::default());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].breached, vec!["qerror".to_string()]);
    }

    #[test]
    fn json_is_stable_and_escapes() {
        let recording = seed_recording();
        let records = slow_queries(&recording, &SlowLogConfig::default());
        let a = slow_log_json(&records);
        let b = slow_log_json(&records);
        assert_eq!(a, b);
        assert!(a.starts_with("[\n{\"client\":2,\"label\":\"Q3[cat-12]\""));
        assert!(a.contains("\"breached\":[\"qerror\"]"));
        assert!(a.contains("\"estimated_rows\":1000"));
        assert!(a.contains("\"sources\":[{\"source\":\"chebi\""));
        assert!(a.ends_with("}\n]\n"));
        assert_eq!(num(2.5), "2.5");
        assert_eq!(num(1000.0), "1000");
    }

    #[test]
    fn trace_enrichment_copies_operator_and_link_actuals() {
        use crate::obs::span::TraceReport;
        let recording = seed_recording();
        let mut records = slow_queries(&recording, &SlowLogConfig::default());
        let report = TraceReport {
            plan_label: "aware".into(),
            network: "wan",
            spans: Vec::new(),
            nodes: vec![crate::obs::NodeReport {
                depth: 0,
                label: "join".into(),
                source: None,
                service: false,
                estimated: 100.0,
                rows_out: 10,
                first: None,
                done: None,
            }],
            sources: std::iter::once((
                "chebi#r1".to_string(),
                crate::obs::SourceReport {
                    link: fedlake_netsim::link::LinkStats {
                        messages: 6,
                        rows: 40,
                        delay: Duration::from_millis(30),
                        ..Default::default()
                    },
                    retries: 1,
                },
            ))
            .collect(),
            metrics: Default::default(),
            answers: Vec::new(),
            total_time: Duration::from_millis(200),
            answers_total: 40,
            messages: 6,
            rows_transferred: 40,
            retries: 1,
        };
        records[0].attach_trace(&report);
        let r = &records[0];
        assert_eq!(r.operators.len(), 1);
        assert_eq!((r.operators[0].rows_out, r.operators[0].qerror_x100), (10, 1000));
        assert_eq!(r.links.len(), 1);
        assert_eq!((r.links[0].endpoint.as_str(), r.links[0].wait_us), ("chebi#r1", 30_000));
        assert!(r.to_json().contains("\"links\":[{\"endpoint\":\"chebi#r1\""));
    }
}
