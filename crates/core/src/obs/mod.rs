//! Observability: one recorder, and the views over what it keeps.
//!
//! Every hook — in the executor, the serve loop, the wrapper streams and
//! (as a passive `NetObserver`) netsim's links and event queue — appends
//! one event to the recorder ([`recorder`]), stamped by the simulated
//! clock. [`crate::PlanConfig::recorder`] keeps the lifecycle events in a
//! session-wide ring ([`FlightRecording`]); [`crate::PlanConfig::tracing`]
//! keeps each query's detail, folded into its [`TraceReport`] ([`span`]).
//! Everything else is a view: the metrics registry ([`metrics`]), the
//! analyzed plan tree ([`analyze`]), the Chrome traces and the serve
//! timeline ([`export`]), the slow-query log ([`slowlog`]) and the SLO
//! watchdog ([`watchdog`]). Recording is passive — keeping either part
//! never changes answers, stats, or RNG streams.

pub mod analyze;
pub mod export;
pub mod metrics;
pub mod recorder;
pub mod slowlog;
pub mod span;
pub mod watchdog;

pub use analyze::{explain_analyze, plan_nodes};
pub use export::{chrome_trace, serve_chrome_trace, serve_timeline_html};
pub use metrics::{nearest_rank, Metric, MetricsRegistry};
pub(crate) use recorder::{QueryObs, Recorder, SourceSpan};
pub use recorder::{CompletionKind, FleetEvent, FleetEventKind, FlightRecording, JobMeta, NO_JOB};
pub use slowlog::{slow_log_json, slow_queries, SlowLogConfig, SlowQueryRecord};
pub use span::{NodeReport, SourceReport, Span, SpanKind, TraceReport};
pub use watchdog::{watch, Anomaly, AnomalyKind, WatchdogConfig, WatchdogReport, WindowRollup};
