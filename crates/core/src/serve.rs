//! Concurrent multi-query serving on the discrete-event scheduler.
//!
//! [`FederatedEngine::serve`] drives many planned queries against one
//! engine over a **single shared virtual clock** and a **single shared
//! link map**: every session's transfers queue on each link's private
//! occupancy timeline, so concurrent queries contend for the simulated
//! network exactly like concurrent clients contend for a real endpoint.
//! Admission control bounds the number of in-flight sessions; a seeded
//! arrival process staggers the offered load; each session can carry a
//! deadline relative to its arrival.
//!
//! The whole run is a pure function of its inputs: job order, arrival
//! times, admission order, poll order and every RNG draw are derived from
//! the configured seeds, so re-running the same spec reproduces the same
//! outcomes bit for bit. Answers are timing-independent (the operators
//! are symmetric and set-preserving), so each query's answer *set* equals
//! its solo execution even though shared-link queuing changes all
//! timings.
//!
//! The serve loop never asks for the serialized schedule policy
//! (`ExecCtx::serialized`) — a wait sat out by one
//! session would stall the whole server on that session's I/O — and
//! always steps row-at-a-time, because deadlines are checked between rows. Engine-side operator work advances
//! the shared clock directly: the model is a single-threaded engine core
//! multiplexing sessions, which keeps the schedule deterministic.

use crate::config::PlanConfig;
use crate::engine::{FederatedEngine, Session, Step};
use crate::error::FedError;
use crate::obs::{FlightRecording, MetricsRegistry, TraceReport};
use crate::operators::EngineStats;
use crate::planner::PlannedQuery;
use crate::wrapper::{links_for, total_traffic};
use fedlake_netsim::clock::{nanos, shared_virtual};
use fedlake_netsim::EventTime;
use fedlake_prng::Prng;
use fedlake_sparql::binding::{Row, Var};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Server-level configuration for one serve run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Seed of the arrival process (independent of the link seed in
    /// [`PlanConfig::seed`], so the same network schedule can be offered
    /// different load patterns).
    pub seed: u64,
    /// Maximum concurrently admitted sessions; further arrivals queue in
    /// FIFO order. Zero means unbounded.
    pub max_in_flight: usize,
    /// Mean of the exponential inter-arrival distribution. `ZERO` makes
    /// every job arrive at simulated time zero (a closed batch).
    pub mean_interarrival: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 7,
            max_in_flight: 8,
            mean_interarrival: Duration::ZERO,
        }
    }
}

/// One query submitted to the server.
#[derive(Debug, Clone)]
pub struct ServeJob {
    /// Issuing client (used for fairness accounting; jobs of one client
    /// are independent).
    pub client: usize,
    /// Display label, e.g. `Q3[cat-12]`.
    pub label: String,
    /// The planned query to execute.
    pub planned: PlannedQuery,
    /// The job's deadline, relative to its arrival; `None` falls back to
    /// the engine's [`PlanConfig::deadline`], as a solo execution does.
    pub deadline: Option<Duration>,
    /// The planned query was replayed from the plan cache
    /// (`false` for cold plans and whenever the cache is off). Annotation
    /// only: execution is byte-identical either way.
    pub cached: bool,
}

/// Deterministic per-session measurements (all timing-independent
/// counters live in [`EngineStats`]; link traffic is shared across
/// sessions and reported only in the server rollup).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeQueryStats {
    /// Engine-side counters of this session only.
    pub engine: EngineStats,
    /// Answers returned (after solution modifiers).
    pub answers: u64,
}

/// The outcome of one served query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Issuing client.
    pub client: usize,
    /// Job label.
    pub label: String,
    /// Simulated arrival time.
    pub arrival: Duration,
    /// Simulated admission time (`>= arrival`; later when the in-flight
    /// bound queued the job).
    pub admitted: Duration,
    /// Simulated completion time.
    pub finish: Duration,
    /// `finish - arrival` (queueing included).
    pub latency: Duration,
    /// First answer, relative to arrival, when any.
    pub first_answer: Option<Duration>,
    /// Projected variables.
    pub vars: Arc<[Var]>,
    /// Answer rows (empty on a hard failure).
    pub rows: Vec<Row>,
    /// Per-session statistics.
    pub stats: ServeQueryStats,
    /// The per-query failure, when the session failed hard
    /// ([`FedError::Timeout`] past its deadline, [`FedError::SourceUnavailable`]
    /// past the retry budget). Other sessions are unaffected.
    pub error: Option<FedError>,
    /// The answers are partial: a fault or the deadline fired under
    /// [`PlanConfig::degraded_ok`].
    pub degraded: bool,
    /// Per-session trace report, when [`PlanConfig::tracing`] is set.
    pub obs: Option<TraceReport>,
}

impl QueryOutcome {
    /// True when the session produced its complete answer set.
    pub fn completed(&self) -> bool {
        self.error.is_none() && !self.degraded
    }
}

/// The result of one serve run.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Per-job outcomes, in job order.
    pub outcomes: Vec<QueryOutcome>,
    /// Simulated time at which the last session finished.
    pub makespan: Duration,
    /// Server-level rollup: admission/completion/timeout/degraded
    /// counters, the in-flight gauge (its `max` proves the admission
    /// bound), a latency histogram, and the shared links' total traffic.
    pub metrics: MetricsRegistry,
    /// Snapshot of the engine's flight recording at the end of the run,
    /// when [`PlanConfig::recorder`] is set. The ring is session-wide, so
    /// it also retains events of earlier runs on the same engine.
    pub recording: Option<FlightRecording>,
}

/// A session admitted to the serve loop.
struct Admitted<'a> {
    job: usize,
    session: Session<'a>,
    admitted: Duration,
}

/// When an admitted session next needs a poll, in the clock's integer
/// nanoseconds. The sweep keeps one per session in a dense array beside
/// the sessions, so deciding to skip one reads 16 bytes and builds no
/// `Duration`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Wake {
    /// `min(event_ns, deadline)`: until then another poll could only
    /// return the same `Pending` — the whole operator tree is pending on
    /// the event (a poll of a pending [`crate::operators::SymHashJoin`],
    /// `LeftHashJoin`, `UnionOp`, `BindJoinOp`, leaf stream or delivery
    /// changes nothing and returns the same earliest event until that
    /// event is due) and no deadline has passed that the poll would have
    /// to notice. 0 before the session's first poll.
    wake_ns: u64,
    /// The event of the `Pending` the session last returned.
    event_ns: u64,
}

impl Wake {
    /// A session not polled yet: due at once.
    const UNPOLLED: Wake = Wake { wake_ns: 0, event_ns: 0 };

    /// A session that last returned `Pending(ev)` under `deadline`.
    fn on(ev: EventTime, deadline: Option<Duration>) -> Wake {
        let event_ns = ev.nanos();
        Wake { wake_ns: deadline.map_or(event_ns, |d| event_ns.min(nanos(d))), event_ns }
    }

    /// The event the session is still waiting on at `now`, when a poll
    /// would be a no-op; `None` when it is due for one. A deadline makes
    /// it due but is never returned: it does not pull the clock forward.
    #[inline]
    fn waiting(self, now: u64) -> Option<u64> {
        (self.wake_ns > now).then_some(self.event_ns)
    }
}

/// What one poll sweep did to a session.
enum SweepStep {
    /// Produced at least one answer row, then went pending on the event;
    /// poll again before advancing time, once the event is due.
    Progress(EventTime),
    /// Waiting on in-flight I/O.
    Pending(EventTime),
    /// Finished (success, degradation or per-query failure).
    Finished,
}

impl FederatedEngine {
    /// Serves `jobs` concurrently under `serve_cfg`. See the module
    /// documentation for the execution model and determinism contract.
    ///
    /// Per-query failures (deadline, exhausted retries) are captured in
    /// the job's [`QueryOutcome`] and never abort the run; only internal
    /// errors (scheduler stalls — bugs by contract) propagate as `Err`.
    pub fn serve(
        &self,
        jobs: &[ServeJob],
        serve_cfg: &ServeConfig,
    ) -> Result<ServeOutcome, FedError> {
        let config: &PlanConfig = self.config();
        let clock = shared_virtual();
        // The shared link map: one link per endpoint for the whole run,
        // so sessions queue behind each other's transfers. Its attempts
        // are fleet events — per-link lanes are a solo-execution feature;
        // serve traces are per-session span trees.
        let links = links_for(
            self.lake(),
            config.network,
            Arc::clone(&clock),
            config.cost,
            config.seed,
            &self.fault_plans(),
            self.delays(),
            &self.recorder().fleet(),
        );

        // Seeded arrival process: exponential inter-arrival gaps, rounded
        // to integer nanoseconds. Job order is arrival order. The loop
        // keeps every time in the clock's nanoseconds; a `Duration` is
        // made only where a job leaves it (admission, open, finalize).
        let mut rng = Prng::seed_from_u64(serve_cfg.seed);
        let mean_ns = serve_cfg.mean_interarrival.as_nanos() as f64;
        let mut at = 0u64;
        let arrivals: Vec<u64> = jobs
            .iter()
            .map(|_| {
                if mean_ns > 0.0 {
                    let u = rng.next_f64();
                    at += (-(1.0 - u).ln() * mean_ns) as u64;
                }
                at
            })
            .collect();

        let mut metrics = MetricsRegistry::new();
        let mut outcomes: Vec<Option<QueryOutcome>> = (0..jobs.len()).map(|_| None).collect();
        let mut next_job = 0usize; // FIFO admission cursor
        let mut polls = 0u64; // `sweep_session` calls: the loop's work count
        let mut active: Vec<Admitted<'_>> = Vec::new();
        // Parallel to `active`: when each session next needs a poll.
        let mut wakes: Vec<Wake> = Vec::new();
        let bound = if serve_cfg.max_in_flight == 0 {
            usize::MAX
        } else {
            serve_cfg.max_in_flight
        };

        while next_job < jobs.len() || !active.is_empty() {
            // Admission: FIFO, bounded, only once the arrival is due.
            while next_job < jobs.len()
                && active.len() < bound
                && arrivals[next_job] <= clock.now_nanos()
            {
                let arrival = Duration::from_nanos(arrivals[next_job]);
                let job = &jobs[next_job];
                let deadline = job.deadline.or(config.deadline);
                // The lifecycle: the submit event carries the arrival
                // time, admit the FIFO wait, plan the planner's report —
                // all stamped at points the unrecorded loop reaches anyway.
                let obs =
                    self.recorder().begin_query(job.client, &job.label, &job.planned, deadline);
                obs.admit(arrival, clock.now(), job.cached);
                // Never serialized: a wait sat out by one session would
                // stall the whole server.
                let session = Session::open(
                    self,
                    &job.planned,
                    &clock,
                    &links,
                    obs,
                    arrival,
                    deadline,
                    false,
                )?;
                active.push(Admitted {
                    job: next_job,
                    session,
                    admitted: clock.now(),
                });
                wakes.push(Wake::UNPOLLED);
                metrics.counter_add("serve.admitted", 1);
                // Planner rollups: what the admitted plans' planner did.
                let report = &job.planned.report;
                metrics.counter_add(
                    &format!("serve.planner.strategy.{}", report.strategy.label()),
                    1,
                );
                metrics.counter_add("serve.planner.plans_costed", report.plans_costed);
                metrics.counter_add("serve.planner.bind_joins", report.bind_joins);
                if report.cost_based {
                    metrics.counter_add("serve.planner.cost_based", 1);
                }
                metrics.counter_add(
                    if job.cached {
                        "serve.plancache.job_hits"
                    } else {
                        "serve.plancache.job_misses"
                    },
                    1,
                );
                metrics.gauge_set("serve.in_flight", active.len() as u64);
                next_job += 1;
            }

            if active.is_empty() {
                // Nothing running: jump to the next arrival.
                clock.advance_to_nanos(arrivals[next_job]);
                continue;
            }

            // One sweep: in admission order, poll every active session
            // whose wake time has come, draining ready rows; a session
            // still waiting on the event it last reported only contributes
            // that event's time. Any answer may have advanced the shared
            // clock (engine work), so sweeps repeat until every session is
            // pending before time jumps forward.
            let mut progressed = false;
            let mut min_pending: Option<u64> = None;
            let mut i = 0;
            while i < active.len() {
                if let Some(event_ns) = wakes[i].waiting(clock.now_nanos()) {
                    min_pending = Some(min_pending.map_or(event_ns, |t| t.min(event_ns)));
                    i += 1;
                    continue;
                }
                polls += 1;
                match Self::sweep_session(&mut active[i].session)? {
                    SweepStep::Progress(ev) => {
                        wakes[i] = Wake::on(ev, active[i].session.ctx.deadline);
                        progressed = true;
                        i += 1;
                    }
                    SweepStep::Pending(ev) => {
                        let wake = Wake::on(ev, active[i].session.ctx.deadline);
                        wakes[i] = wake;
                        min_pending =
                            Some(min_pending.map_or(wake.event_ns, |t| t.min(wake.event_ns)));
                        i += 1;
                    }
                    SweepStep::Finished => {
                        let Admitted { job, session, admitted } = active.remove(i);
                        wakes.remove(i);
                        outcomes[job] = Some(self.finalize_session(
                            session,
                            &jobs[job],
                            Duration::from_nanos(arrivals[job]),
                            admitted,
                            &mut metrics,
                        )?);
                        metrics.gauge_set("serve.in_flight", active.len() as u64);
                        progressed = true;
                    }
                }
            }
            if progressed {
                continue;
            }

            // Every session is pending on strictly-future I/O: advance to
            // the earliest completion — or to the next arrival, when a
            // free admission slot would fill first.
            let mut next_time = min_pending;
            if next_job < jobs.len() && active.len() < bound {
                let arr = arrivals[next_job];
                next_time = Some(next_time.map_or(arr, |t| t.min(arr)));
            }
            match next_time {
                Some(t) => clock.advance_to_nanos(t),
                None => {
                    return Err(FedError::Internal(
                        "serve stalled: every session pending with no scheduled event".into(),
                    ))
                }
            }
        }

        let makespan = clock.now();
        let (messages, rows_transferred, network_delay) = total_traffic(&links);
        metrics.counter_add("serve.link.messages", messages);
        metrics.counter_add("serve.link.rows_transferred", rows_transferred);
        metrics.counter_add("serve.link.delay_ns", network_delay.as_nanos() as u64);
        metrics.gauge_set("serve.makespan_ns", makespan.as_nanos() as u64);
        metrics.counter_add("serve.polls", polls);
        // Feed the shared links into the session health registry exactly
        // once: link stats are cumulative over the whole run, so a
        // per-session record would double-count every earlier session.
        self.health().record_links(&links);
        // Export the session health counters into the rollup, so the
        // exposition snapshot carries endpoint health next to the serve
        // counters. Recorder-independent and read-only — passivity holds.
        self.health().fold_into(&mut metrics);
        // Plan-cache rollup: the engine-lifetime counters at the end of
        // this run (gauges — a counter would double-add across runs on
        // the same engine).
        let pc = self.plan_cache_stats();
        metrics.gauge_set("serve.plancache.lookups", pc.lookups);
        metrics.gauge_set("serve.plancache.hits", pc.hits);
        metrics.gauge_set("serve.plancache.misses", pc.misses);
        metrics.gauge_set("serve.plancache.evictions", pc.evictions);
        metrics.gauge_set("serve.plancache.invalidations", pc.invalidations);
        // The source-result cache: same gauge semantics.
        let lc = self.lifts().stats();
        metrics.gauge_set("serve.liftcache.lookups", lc.lookups);
        metrics.gauge_set("serve.liftcache.hits", lc.hits);
        metrics.gauge_set("serve.liftcache.misses", lc.misses);
        metrics.gauge_set("serve.liftcache.stale", lc.stale);
        metrics.gauge_set("serve.liftcache.evictions", lc.evictions);

        let outcomes = outcomes
            .into_iter()
            .map(|o| o.ok_or_else(|| FedError::Internal("serve ended with a job not finalized".into())))
            .collect::<Result<_, _>>()?;
        Ok(ServeOutcome {
            outcomes,
            makespan,
            metrics,
            recording: self.recorder().snapshot(),
        })
    }

    /// Steps one session until it is pending or finished (success,
    /// degradation or per-query failure — a fault is not a run error: it
    /// stays in the session and the others continue).
    fn sweep_session(s: &mut Session<'_>) -> Result<SweepStep, FedError> {
        let mut produced = false;
        loop {
            match s.step()? {
                Step::Answered => produced = true,
                Step::Pending(ev) if produced => return Ok(SweepStep::Progress(ev)),
                Step::Pending(ev) => return Ok(SweepStep::Pending(ev)),
                Step::Finished => return Ok(SweepStep::Finished),
            }
        }
    }

    /// Closes one session into its [`QueryOutcome`].
    fn finalize_session(
        &self,
        mut s: Session<'_>,
        job: &ServeJob,
        arrival: Duration,
        admitted: Duration,
        metrics: &mut MetricsRegistry,
    ) -> Result<QueryOutcome, FedError> {
        let config = self.config();
        let now = s.ctx.clock.now();
        let rows = s.finish()?;
        let error = s.error.take();

        let latency = now.saturating_sub(arrival);
        match &error {
            Some(FedError::Timeout(_)) => metrics.counter_add("serve.timeouts", 1),
            Some(_) => metrics.counter_add("serve.failed", 1),
            None if s.degraded => metrics.counter_add("serve.degraded", 1),
            None => metrics.counter_add("serve.completed", 1),
        }
        metrics.counter_add("serve.answers", rows.len() as u64);
        metrics.observe("serve.latency_ns", latency.as_nanos() as u64);

        let stats = ServeQueryStats { engine: s.ctx.stats, answers: rows.len() as u64 };
        let first_answer = s.trace.first_answer().map(|t| t.saturating_sub(arrival));
        // Per-session trace report: span tree + per-session stats. Link
        // traffic is shared across sessions, so the report carries none.
        let obs = s.ctx.obs.trace_report(
            &HashMap::new(),
            &crate::engine::FedStats {
                execution_time: latency,
                first_answer,
                ..crate::engine::FedStats::assemble(
                    config,
                    &job.planned,
                    &HashMap::new(),
                    &stats.engine,
                    &s.trace,
                    rows.len() as u64,
                    s.degraded,
                )
            },
        );

        Ok(QueryOutcome {
            client: job.client,
            label: job.label.clone(),
            arrival,
            admitted,
            finish: now,
            latency,
            first_answer,
            vars: Arc::clone(&job.planned.projection),
            rows,
            stats,
            error,
            degraded: s.degraded,
            obs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The skip check the dense wake times replaced, kept as the reference
    /// they are held to: the event a session is still waiting on at `now`
    /// when a poll would be a no-op — it last returned `Pending` on
    /// `waiting_on`, that event is not due and no deadline has passed.
    fn still_waiting(
        waiting_on: Option<EventTime>,
        deadline: Option<Duration>,
        now: Duration,
    ) -> Option<EventTime> {
        waiting_on.filter(|ev| ev.time > now && deadline.is_none_or(|d| now < d))
    }

    #[test]
    fn a_wake_time_skips_exactly_what_still_waiting_skipped() {
        // Fixed instants (the clock's start and its saturated end among
        // them) plus seeded draws: every event, deadline and `now` comes
        // from one set, so each meets each of the others exactly, early
        // and late.
        let mut rng = Prng::seed_from_u64(51);
        let mut times = vec![0, 1, 2, 999, 1_000, 1_001, 25_000_000];
        times.extend([u64::MAX - 2, u64::MAX - 1, u64::MAX]);
        times.extend((0..6).map(|_| rng.gen_range(0..30_000_000u64)));
        times.extend((0..3).map(|_| u64::MAX - rng.gen_range(0..1_000u64)));
        let at = Duration::from_nanos;
        let events = std::iter::once(None).chain(times.iter().map(|&t| Some(t)));
        // A deadline past the clock's last nanosecond never passes.
        let deadlines: Vec<Option<Duration>> = std::iter::once(None)
            .chain(times.iter().map(|&t| Some(at(t))))
            .chain([Some(Duration::MAX)])
            .collect();

        let mut seen = [0usize; 6];
        for ev in events {
            for &deadline in &deadlines {
                for &now in &times {
                    let event = ev.map(|t| EventTime { time: at(t), seq: 3 });
                    let wake = event.map_or(Wake::UNPOLLED, |e| Wake::on(e, deadline));
                    let reference = still_waiting(event, deadline, at(now));
                    assert_eq!(
                        wake.waiting(now),
                        reference.map(|e| e.time.as_nanos() as u64),
                        "event {ev:?}, deadline {deadline:?}, now {now}"
                    );
                    let d = deadline.map(nanos);
                    seen[0] += usize::from(ev == Some(now));
                    seen[1] += usize::from(d == Some(now));
                    seen[2] += usize::from(ev.zip(d).is_some_and(|(e, d)| d < e));
                    seen[3] += usize::from(ev.is_some() && d.is_none());
                    seen[4] += usize::from(ev.is_none());
                    seen[5] += usize::from(ev.is_some_and(|e| e > u64::MAX - 1_000));
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "the grid misses a case: {seen:?}");

        // A deadline makes a session due, but the next wake-up it offers
        // is its event: the deadline never pulls the clock forward.
        let wake = Wake::on(EventTime { time: at(900), seq: 0 }, Some(at(400)));
        assert_eq!(wake.waiting(399), Some(900));
        assert_eq!(wake.waiting(400), None);
    }
}
