//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! One process (`fedlake`), one thread lane per span lane (`engine`, each
//! `src:<id>`, each `op:<n> <name>`), lanes numbered in first-appearance
//! order. Spans become `"ph":"X"` complete events; answers become
//! `"ph":"i"` instants. Timestamps are microseconds with nanosecond
//! fractions, formatted from the integer nanosecond count — no float
//! round-tripping — so equal simulated times always export as equal bytes.
//!
//! Replica endpoints share their logical source's lane: spans recorded on
//! `src:chebi#r1` land in lane `src:chebi` with `[#r1]` appended to the
//! event name, so a failover reads as one lane changing replica rather
//! than three near-empty lanes per source.
//!
//! [`serve_chrome_trace`] and [`serve_timeline_html`] render a fleet
//! [`FlightRecording`]: one lane per client plus one per logical link.

use crate::lake::logical_source_id;
use crate::obs::recorder::{CompletionKind, FleetEventKind, FlightRecording, NO_JOB};
use crate::obs::span::{Span, SpanKind, TraceReport};
use crate::results::json_escape as esc;
use std::time::Duration;

/// Splits a span lane into its display lane and replica sub-label:
/// `src:chebi#r1` → (`src:chebi`, `Some("#r1")`); everything else passes
/// through unchanged.
fn lane_parts(lane: &str) -> (String, Option<&str>) {
    if let Some(endpoint) = lane.strip_prefix("src:") {
        let logical = logical_source_id(endpoint);
        if logical.len() != endpoint.len() {
            return (format!("src:{logical}"), Some(&endpoint[logical.len()..]));
        }
    }
    (lane.to_string(), None)
}

/// Microseconds with three fractional digits, from integer nanos.
fn fmt_us(d: Duration) -> String {
    let ns = d.as_nanos();
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn event(span: &Span, tid: usize, replica: Option<&str>, out: &mut String) {
    let name = match replica {
        Some(r) => format!("{} [{r}]", span.label),
        None => span.label.clone(),
    };
    let common = format!(
        "\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{tid},\"ts\":{}",
        esc(&name),
        span.kind.name(),
        fmt_us(span.start),
    );
    let args = format!(
        "\"args\":{{\"rows\":{},\"span\":{},\"parent\":{}}}",
        span.rows,
        span.id,
        span.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
    );
    if span.kind == SpanKind::Answer {
        out.push_str(&format!("{{{common},\"ph\":\"i\",\"s\":\"t\",{args}}}"));
    } else {
        out.push_str(&format!(
            "{{{common},\"dur\":{},\"ph\":\"X\",{args}}}",
            fmt_us(span.end.saturating_sub(span.start)),
        ));
    }
}

/// Serializes a traced execution as Chrome trace-event JSON.
pub fn chrome_trace(report: &TraceReport) -> String {
    // Display lanes (replicas folded into their logical source) in
    // first-appearance order; `tid` is 1-based.
    let mut lanes: Vec<String> = Vec::new();
    for s in &report.spans {
        let (lane, _) = lane_parts(&s.lane);
        if !lanes.contains(&lane) {
            lanes.push(lane);
        }
    }
    let tid_of = |lane: &str| lanes.iter().position(|l| l == lane).unwrap_or(0) + 1;

    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"fedlake\"}}",
    );
    for (i, lane) in lanes.iter().enumerate() {
        out.push_str(&format!(
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            i + 1,
            esc(lane),
        ));
    }
    for span in &report.spans {
        let (lane, replica) = lane_parts(&span.lane);
        out.push_str(",\n");
        event(span, tid_of(&lane), replica, &mut out);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Per-job lifecycle milestones extracted from a recording, in job order.
struct JobSpan {
    submit: Duration,
    admit: Duration,
    complete: Option<(Duration, CompletionKind, u64)>,
}

fn job_spans(recording: &FlightRecording) -> Vec<JobSpan> {
    let mut spans: Vec<JobSpan> = recording
        .jobs
        .iter()
        .map(|_| JobSpan { submit: Duration::ZERO, admit: Duration::ZERO, complete: None })
        .collect();
    for ev in &recording.events {
        if ev.job == NO_JOB {
            continue;
        }
        let Some(j) = spans.get_mut(ev.job as usize) else { continue };
        match &ev.kind {
            FleetEventKind::Submit => j.submit = ev.time,
            FleetEventKind::Admit { .. } => j.admit = ev.time,
            FleetEventKind::Complete { outcome, rows, .. } => {
                j.complete = Some((ev.time, *outcome, *rows));
            }
            _ => {}
        }
    }
    spans
}

/// Serializes a fleet recording as Chrome trace-event JSON: one lane per
/// client (`client:N`, ascending) and one per logical link
/// (`link:<source>`, sorted). Queries render as a `queued` span
/// (submit → admit, when non-empty) plus a run span (admit → complete)
/// named by their label; first rows, deadline expiries, retries and
/// failovers are instants on the client lane; transfers are instants on
/// their link lane.
pub fn serve_chrome_trace(recording: &FlightRecording) -> String {
    let spans = job_spans(recording);
    let mut clients: Vec<usize> = recording.jobs.iter().map(|m| m.client).collect();
    clients.sort_unstable();
    clients.dedup();
    let mut links: Vec<String> = recording
        .events
        .iter()
        .filter_map(|ev| match &ev.kind {
            FleetEventKind::Transfer { link, .. } => {
                Some(format!("link:{}", logical_source_id(link)))
            }
            _ => None,
        })
        .collect();
    links.sort_unstable();
    links.dedup();
    let mut lanes: Vec<String> = clients.iter().map(|c| format!("client:{c}")).collect();
    lanes.extend(links);
    let tid_of = |lane: &str| lanes.iter().position(|l| l == lane).unwrap_or(0) + 1;
    let client_tid = |job: u32| {
        recording.meta(job).map_or(1, |m| tid_of(&format!("client:{}", m.client)))
    };

    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"fedlake-serve\"}}",
    );
    for (i, lane) in lanes.iter().enumerate() {
        out.push_str(&format!(
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            i + 1,
            esc(lane),
        ));
    }
    let instant = |out: &mut String, name: &str, tid: usize, at: Duration, args: &str| {
        out.push_str(&format!(
            ",\n{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"args\":{{{args}}}}}",
            esc(name),
            fmt_us(at),
        ));
    };
    for ev in &recording.events {
        match &ev.kind {
            FleetEventKind::Admit { queued } => {
                let Some(j) = spans.get(ev.job as usize) else { continue };
                if !queued.is_zero() {
                    let label =
                        recording.meta(ev.job).map_or("", |m| m.label.as_str());
                    out.push_str(&format!(
                        ",\n{{\"name\":\"queued {}\",\"cat\":\"queue\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"job\":{}}}}}",
                        esc(label),
                        client_tid(ev.job),
                        fmt_us(j.submit),
                        fmt_us(j.admit.saturating_sub(j.submit)),
                        ev.job,
                    ));
                }
            }
            FleetEventKind::Complete { outcome, latency, rows, .. } => {
                let Some(j) = spans.get(ev.job as usize) else { continue };
                let meta = recording.meta(ev.job);
                out.push_str(&format!(
                    ",\n{{\"name\":\"{}\",\"cat\":\"query\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"job\":{},\"outcome\":\"{}\",\"rows\":{},\"strategy\":\"{}\",\"latency_us\":{}}}}}",
                    esc(meta.map_or("", |m| m.label.as_str())),
                    client_tid(ev.job),
                    fmt_us(j.admit),
                    fmt_us(ev.time.saturating_sub(j.admit)),
                    ev.job,
                    outcome.name(),
                    rows,
                    meta.map_or("", |m| m.strategy),
                    latency.as_micros(),
                ));
            }
            FleetEventKind::FirstRow => {
                instant(&mut out, "first-row", client_tid(ev.job), ev.time, &format!("\"job\":{}", ev.job));
            }
            FleetEventKind::Deadline => {
                instant(&mut out, "deadline", client_tid(ev.job), ev.time, &format!("\"job\":{}", ev.job));
            }
            FleetEventKind::Retry { endpoint, attempt } => {
                instant(
                    &mut out,
                    &format!("retry {endpoint}"),
                    client_tid(ev.job),
                    ev.time,
                    &format!("\"job\":{},\"attempt\":{attempt}", ev.job),
                );
            }
            FleetEventKind::Failover { logical, from, to } => {
                instant(
                    &mut out,
                    &format!("failover {from}->{to}"),
                    client_tid(ev.job),
                    ev.time,
                    &format!("\"job\":{},\"source\":\"{}\"", ev.job, esc(logical)),
                );
            }
            FleetEventKind::Transfer { link, rows, faulted } => {
                instant(
                    &mut out,
                    if *faulted { "fault" } else { "xfer" },
                    tid_of(&format!("link:{}", logical_source_id(link))),
                    ev.time,
                    &format!("\"endpoint\":\"{}\",\"rows\":{rows}", esc(link)),
                );
            }
            _ => {}
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Renders a fleet recording as one static HTML page with an inline SVG
/// timeline: one row per client (query bars colored by outcome, queueing
/// hatched grey) and one per logical link (fault ticks in red). Pure
/// string building from the recording — byte-identical across reruns.
pub fn serve_timeline_html(recording: &FlightRecording) -> String {
    const WIDTH: u64 = 1000;
    const ROW_H: u64 = 22;
    let spans = job_spans(recording);
    let makespan_us = recording
        .events
        .iter()
        .map(|e| e.time.as_micros() as u64)
        .max()
        .unwrap_or(0)
        .max(1);
    let x = |t: Duration| (t.as_micros() as u64 * WIDTH) / makespan_us;

    let mut clients: Vec<usize> = recording.jobs.iter().map(|m| m.client).collect();
    clients.sort_unstable();
    clients.dedup();
    let mut links: Vec<String> = recording
        .events
        .iter()
        .filter_map(|ev| match &ev.kind {
            FleetEventKind::Transfer { link, .. } => Some(logical_source_id(link).to_string()),
            _ => None,
        })
        .collect();
    links.sort_unstable();
    links.dedup();
    let rows = clients.len() + links.len();
    let height = (rows as u64 + 1) * ROW_H + 20;

    let mut svg = String::new();
    let row_y = |i: usize| 10 + i as u64 * ROW_H;
    for (i, c) in clients.iter().enumerate() {
        svg.push_str(&format!(
            "<text x=\"0\" y=\"{}\" class=\"lbl\">client:{c}</text>\n",
            row_y(i) + 14
        ));
    }
    for (i, l) in links.iter().enumerate() {
        svg.push_str(&format!(
            "<text x=\"0\" y=\"{}\" class=\"lbl\">link:{}</text>\n",
            row_y(clients.len() + i) + 14,
            esc(l)
        ));
    }
    const LANE_X: u64 = 90;
    for (job, j) in spans.iter().enumerate() {
        let Some((end, outcome, rows_out)) = j.complete else { continue };
        let Some(meta) = recording.meta(job as u32) else { continue };
        let row = clients.iter().position(|c| *c == meta.client).unwrap_or(0);
        let y = row_y(row);
        if j.admit > j.submit {
            svg.push_str(&format!(
                "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" class=\"queued\"/>\n",
                LANE_X + x(j.submit),
                y + 4,
                (x(j.admit) - x(j.submit)).max(1),
                ROW_H - 8,
            ));
        }
        let class = match outcome {
            CompletionKind::Ok => "ok",
            CompletionKind::Degraded => "degraded",
            CompletionKind::DeadlineMiss => "miss",
            CompletionKind::Failed => "failed",
        };
        svg.push_str(&format!(
            "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" class=\"{class}\"><title>{} job {job}: {} ({} rows)</title></rect>\n",
            LANE_X + x(j.admit),
            y + 2,
            (x(end) - x(j.admit)).max(1),
            ROW_H - 4,
            esc(&meta.label),
            class,
            rows_out,
        ));
    }
    for ev in &recording.events {
        if let FleetEventKind::Transfer { link, faulted, .. } = &ev.kind {
            let logical = logical_source_id(link);
            let Some(i) = links.iter().position(|l| l == logical) else { continue };
            let y = row_y(clients.len() + i);
            svg.push_str(&format!(
                "<line x1=\"{0}\" y1=\"{1}\" x2=\"{0}\" y2=\"{2}\" class=\"{3}\"/>\n",
                LANE_X + x(ev.time),
                y + 4,
                y + ROW_H - 4,
                if *faulted { "fault" } else { "tick" },
            ));
        }
    }

    format!(
        concat!(
            "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>fedlake serve timeline</title>\n",
            "<style>\n",
            "body{{font:13px monospace;background:#fff;color:#222}}\n",
            ".lbl{{font:11px monospace;fill:#444}}\n",
            ".queued{{fill:#bbb;opacity:0.6}}\n",
            ".ok{{fill:#4c9f70}}.degraded{{fill:#e0a500}}.miss{{fill:#d9534f}}.failed{{fill:#8b1a1a}}\n",
            ".tick{{stroke:#7aa6c2;stroke-width:1}}.fault{{stroke:#d9534f;stroke-width:2}}\n",
            "</style></head><body>\n",
            "<h1>fedlake serve timeline</h1>\n",
            "<p>{jobs} jobs, {events} events, makespan {makespan} µs, {dropped} events dropped</p>\n",
            "<svg width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\">\n{svg}</svg>\n",
            "</body></html>\n"
        ),
        jobs = recording.jobs.len(),
        events = recording.events.len(),
        makespan = makespan_us,
        dropped = recording.dropped,
        w = LANE_X + WIDTH + 10,
        h = height,
        svg = svg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_format_from_integer_nanos() {
        assert_eq!(fmt_us(Duration::ZERO), "0.000");
        assert_eq!(fmt_us(Duration::from_nanos(1)), "0.001");
        assert_eq!(fmt_us(Duration::from_micros(1500)), "1500.000");
        assert_eq!(fmt_us(Duration::from_nanos(1_234_567)), "1234.567");
    }

    #[test]
    fn spans_become_complete_events_and_answers_instants() {
        let x = Span {
            id: 0,
            parent: None,
            kind: SpanKind::Transfer,
            lane: "src:a".into(),
            label: "message (3 rows)".into(),
            start: Duration::from_micros(10),
            end: Duration::from_micros(25),
            rows: 3,
        };
        let mut out = String::new();
        event(&x, 2, None, &mut out);
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"ts\":10.000"));
        assert!(out.contains("\"dur\":15.000"));
        assert!(out.contains("\"tid\":2"));
        let i = Span { kind: SpanKind::Answer, end: x.start, ..x };
        let mut out = String::new();
        event(&i, 1, None, &mut out);
        assert!(out.contains("\"ph\":\"i\""));
        assert!(!out.contains("\"dur\""));
    }

    #[test]
    fn replica_lanes_fold_into_their_logical_source() {
        assert_eq!(lane_parts("engine"), ("engine".to_string(), None));
        assert_eq!(lane_parts("src:chebi"), ("src:chebi".to_string(), None));
        assert_eq!(lane_parts("src:chebi#r1"), ("src:chebi".to_string(), Some("#r1")));
        // `#r` without digits is part of the source id, not a replica.
        assert_eq!(lane_parts("src:we#rd"), ("src:we#rd".to_string(), None));

        // A replica span exports into the logical lane with the replica
        // as a name sub-label.
        let mk = |lane: &str| Span {
            id: 0,
            parent: None,
            kind: SpanKind::Transfer,
            lane: lane.into(),
            label: "message (3 rows)".into(),
            start: Duration::from_micros(10),
            end: Duration::from_micros(25),
            rows: 3,
        };
        let report = TraceReport {
            plan_label: "aware".into(),
            network: "wan",
            spans: vec![mk("src:chebi#r0"), mk("src:chebi#r1"), mk("src:drugbank")],
            nodes: Vec::new(),
            sources: Default::default(),
            metrics: Default::default(),
            answers: Vec::new(),
            total_time: Duration::from_micros(25),
            answers_total: 0,
            messages: 3,
            rows_transferred: 9,
            retries: 0,
        };
        let json = chrome_trace(&report);
        // Two logical lanes, not three replica lanes.
        assert!(json.contains("\"args\":{\"name\":\"src:chebi\"}"));
        assert!(json.contains("\"args\":{\"name\":\"src:drugbank\"}"));
        assert!(!json.contains("\"name\":\"src:chebi#r0\"}"));
        assert!(json.contains("\"name\":\"message (3 rows) [#r0]\""));
        assert!(json.contains("\"name\":\"message (3 rows) [#r1]\""));
    }

    #[test]
    fn serve_exports_render_clients_and_links() {
        let ms = Duration::from_millis;
        let done = FleetEventKind::Complete {
            outcome: CompletionKind::Ok,
            latency: ms(9),
            estimated_rows: 4.0,
            rows: 4,
        };
        let xfer = FleetEventKind::Transfer { link: "chebi#r1".into(), rows: 4, faulted: false };
        let recording = FlightRecording::by_hand(
            &[(3, "Q1[a]", "dp", None)],
            vec![
                (ms(0), 0, FleetEventKind::Submit),
                (ms(2), 0, FleetEventKind::Admit { queued: ms(2) }),
                (ms(5), 0, FleetEventKind::FirstRow),
                (ms(9), 0, done),
                (ms(4), NO_JOB, xfer),
            ],
        );

        let json = serve_chrome_trace(&recording);
        assert!(json.contains("\"name\":\"client:3\""));
        assert!(json.contains("\"name\":\"link:chebi\""));
        assert!(json.contains("\"name\":\"queued Q1[a]\""));
        assert!(json.contains("\"outcome\":\"ok\""));
        assert!(json.contains("\"name\":\"first-row\""));
        assert!(json.contains("\"endpoint\":\"chebi#r1\""));
        assert_eq!(json, serve_chrome_trace(&recording));

        let html = serve_timeline_html(&recording);
        assert!(html.contains("client:3"));
        assert!(html.contains("link:chebi"));
        assert!(html.contains("class=\"ok\""));
        assert!(html.contains("class=\"queued\""));
        assert_eq!(html, serve_timeline_html(&recording));
    }
}
