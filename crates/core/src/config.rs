//! Planner configuration: plan modes, heuristics, network setting, and
//! the executor's fault/retry/deadline behaviour.
//!
//! No field chooses how the engine joins two sub-queries. The heuristic
//! planner joins them by symmetric hash joins; the cost-based planner
//! ([`PlanConfig::cost_based`]) picks a hash or a bind join per edge from
//! the statistics catalog. The only other bind join is
//! [`MergeTranslation::Naive`]'s lowering of a merged pair, of batch 1.

use crate::decompose::DecompositionStrategy;
use fedlake_netsim::{CostModel, FaultPlan, NetworkProfile};
use std::time::Duration;

/// Retry behaviour of the wrapper streams when a link message attempt
/// fails (see [`fedlake_netsim::FaultPlan`]).
///
/// Every failed attempt charges the receiver's detection `timeout` to the
/// simulated clock; every retry additionally charges an exponentially
/// growing backoff (`backoff`, `2*backoff`, `4*backoff`, …), so retries
/// are visible in answer traces exactly like the network delays they
/// react to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per message, the first try included (min 1).
    pub max_attempts: u32,
    /// Simulated time the receiver waits before declaring an attempt
    /// failed; charged once per failed attempt.
    pub timeout: Duration,
    /// Base backoff before re-issuing; doubles with every further retry.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            timeout: Duration::from_millis(10),
            backoff: Duration::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// The attempt budget, never below one.
    pub(crate) fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// The backoff charged after the failed attempt `attempt` (0-based):
    /// `backoff * 2^attempt`, saturating.
    pub(crate) fn backoff_after(&self, attempt: u32) -> Duration {
        self.backoff.saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX))
    }
}

/// How merged (Heuristic 1) sub-queries are translated to SQL.
///
/// The paper reports that Ontario's translation *"is not optimized for
/// combining star-shaped sub-queries. This leads to an increase in the
/// query execution time if the join is pushed down. Forcing Ontario to
/// send the optimized SQL query for Q2 approx. halves the execution time"*
/// (§3). Both behaviours are modeled:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeTranslation {
    /// One flat SQL query joining the stars' tables (`… JOIN … ON …`) —
    /// the "forced optimized SQL" of §3.
    #[default]
    Optimized,
    /// Ontario's unoptimized translation, an N+1 dependent join: the
    /// planner lowers the pair to a same-source bind join of batch 1 — the
    /// first star as one SQL service, then one SQL query for the second
    /// star per binding of the join variable. The join still happens at
    /// the source, but every binding pays a request round trip.
    Naive,
}

/// Where a star's instantiation filters are evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterPlacement {
    /// Always at the engine — the unaware behaviour, and the
    /// H2-without-index-or-fast-network case.
    Engine,
    /// Pushed into the source SQL whenever the filtered attribute is
    /// indexed — the paper's **experimental** physical-design-aware QEP
    /// ("using indexes whenever possible", Fig. 2b).
    #[default]
    PushIndexed,
    /// The full **Heuristic 2** as stated in §2.2: push only when the
    /// attribute is indexed *and* the network is slow; otherwise evaluate
    /// at the engine.
    Heuristic2,
    /// Push every translatable filter regardless of indexes — the
    /// classical push-selections-to-sources baseline, used in ablations.
    PushAll,
}

/// The two plan types compared in the experiment (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// *Physical-Design-Unaware QEP*: ignores indexes; performs as many
    /// operations as possible at the query-engine level. Every SSQ becomes
    /// its own source request; all `FILTER`s and all inter-SSQ joins run at
    /// the engine.
    Unaware,
    /// *Physical-Design-Aware QEP*: exploits the sources' physical design.
    Aware {
        /// Heuristic 1: merge SSQs over the same RDB endpoint when the
        /// join attribute is indexed.
        h1_join_pushdown: bool,
        /// Filter-placement policy (see [`FilterPlacement`]).
        filters: FilterPlacement,
    },
}

impl PlanMode {
    /// The paper's experimental aware plan: H1 on, indexed filters pushed.
    pub const AWARE: PlanMode = PlanMode::Aware {
        h1_join_pushdown: true,
        filters: FilterPlacement::PushIndexed,
    };

    /// The aware plan following Heuristic 2's network condition.
    pub const AWARE_H2: PlanMode = PlanMode::Aware {
        h1_join_pushdown: true,
        filters: FilterPlacement::Heuristic2,
    };

    /// A short label for tables and traces.
    pub fn label(&self) -> String {
        match self {
            PlanMode::Unaware => "unaware".to_string(),
            PlanMode::Aware { h1_join_pushdown, filters } => {
                let f = match filters {
                    FilterPlacement::Engine => "engine-filters",
                    FilterPlacement::PushIndexed => "push-indexed",
                    FilterPlacement::Heuristic2 => "h2",
                    FilterPlacement::PushAll => "push-all",
                };
                if *h1_join_pushdown {
                    format!("aware({f})")
                } else {
                    format!("aware(no-h1,{f})")
                }
            }
        }
    }
}

/// Full planner/executor configuration for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanConfig {
    /// Plan type under evaluation.
    pub mode: PlanMode,
    /// Simulated network setting; also the input to Heuristic 2's
    /// slow-network test.
    pub network: NetworkProfile,
    /// Cost model converting work to simulated time.
    pub cost: CostModel,
    /// SQL translation quality for merged sub-queries.
    pub merge_translation: MergeTranslation,
    /// How the basic graph pattern is decomposed into sub-queries
    /// (star-shaped per the paper; triple-based per its §5 future work).
    pub decomposition: DecompositionStrategy,
    /// Rows per message on the wrapper links (the paper delays each
    /// retrieval of "the next answer", i.e. one row per message).
    pub rows_per_message: usize,
    /// RNG seed for the per-link delay streams.
    pub seed: u64,
    /// Fault schedule injected on every wrapper link ([`FaultPlan::NONE`]
    /// keeps the links reliable, as in the paper's experiment).
    pub faults: FaultPlan,
    /// Retry behaviour when a link attempt fails.
    pub retry: RetryPolicy,
    /// Per-query deadline on the simulated clock, relative to the query's
    /// start (a served job's arrival); `None` disables it. A served job's
    /// own `ServeJob::deadline` takes its place.
    pub deadline: Option<Duration>,
    /// Overlapped source I/O: drive the plan with the event scheduler so
    /// independent sources transfer concurrently. `false` keeps the
    /// serialized schedule (one transfer at a time, as in the paper's
    /// single-threaded wrapper loop). Answers are identical either way;
    /// only the simulated timing differs.
    pub overlap: bool,
    /// Graceful degradation: when a source becomes unavailable (or the
    /// deadline fires) return the answers produced so far with
    /// `FedStats::degraded` set, instead of failing the whole query.
    pub degraded_ok: bool,
    /// Keep each query's detail in the recorder: the deterministic trace
    /// — spans, metrics, the analyzed plan and a Chrome trace — returned
    /// on [`crate::FedResult::obs`]. Recording is passive — answers, stats
    /// and RNG streams are byte-identical with it on or off.
    pub tracing: bool,
    /// Statistics-driven cost-based planning: order the joins between
    /// star-shaped sub-queries by minimizing a [`crate::FederationCost`]
    /// estimate (DP enumeration, greedy above
    /// [`crate::planner::DP_UNIT_LIMIT`] units) and pick bind-join vs
    /// hash-join per edge from estimated input cardinalities (a bind join
    /// ships [`crate::planner::BIND_BATCH`] keys per batch). `false` keeps
    /// the paper's heuristic ordering, all hash joins. Answers are
    /// identical either way; only the plan shape (and thus timing/traffic)
    /// differs.
    pub cost_based: bool,
    /// Fleet flight recording: keep the recorder's structured lifecycle
    /// events (submit/admit/plan/first-row/retry/failover/deadline/
    /// complete) of every query the engine runs in a bounded,
    /// deterministic session ring, read back through
    /// [`crate::FederatedEngine::flight_recording`]. The same passivity
    /// contract as tracing: answers, stats and RNG streams are
    /// byte-identical with it on or off.
    pub recorder: bool,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            mode: PlanMode::AWARE,
            network: NetworkProfile::NO_DELAY,
            cost: CostModel::default(),
            merge_translation: MergeTranslation::Optimized,
            decomposition: DecompositionStrategy::default(),
            rows_per_message: 1,
            seed: 0xFED_1A4E,
            faults: FaultPlan::NONE,
            retry: RetryPolicy::default(),
            deadline: None,
            overlap: false,
            degraded_ok: false,
            tracing: false,
            cost_based: false,
            recorder: false,
        }
    }
}

impl PlanConfig {
    /// Convenience: a config with the given mode and network.
    pub fn new(mode: PlanMode, network: NetworkProfile) -> Self {
        PlanConfig { mode, network, ..Default::default() }
    }

    /// Convenience: the unaware baseline under `network`.
    pub fn unaware(network: NetworkProfile) -> Self {
        Self::new(PlanMode::Unaware, network)
    }

    /// Convenience: the paper's experimental aware plan under `network`.
    pub fn aware(network: NetworkProfile) -> Self {
        Self::new(PlanMode::AWARE, network)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(PlanMode::Unaware.label(), "unaware");
        assert_eq!(PlanMode::AWARE.label(), "aware(push-indexed)");
        assert_eq!(PlanMode::AWARE_H2.label(), "aware(h2)");
        assert_eq!(
            PlanMode::Aware {
                h1_join_pushdown: false,
                filters: FilterPlacement::PushAll
            }
            .label(),
            "aware(no-h1,push-all)"
        );
    }

    #[test]
    fn default_config() {
        let c = PlanConfig::default();
        assert_eq!(c.mode, PlanMode::AWARE);
        assert_eq!(c.rows_per_message, 1);
        assert_eq!(c.merge_translation, MergeTranslation::Optimized);
        assert_eq!(c.decomposition, DecompositionStrategy::StarShaped);
        assert!(!c.faults.is_active(), "default links are reliable");
        assert_eq!(c.deadline, None);
        assert!(!c.degraded_ok);
        assert!(!c.tracing, "tracing is opt-in");
        assert!(!c.overlap, "the paper's serialized schedule is the default");
        assert!(!c.cost_based, "cost-based planning is opt-in");
        assert!(!c.recorder, "the flight recorder is opt-in");
    }

    #[test]
    fn retry_policy_backoff_doubles() {
        let p = RetryPolicy {
            max_attempts: 5,
            timeout: Duration::from_millis(10),
            backoff: Duration::from_millis(2),
        };
        assert_eq!(p.backoff_after(0), Duration::from_millis(2));
        assert_eq!(p.backoff_after(1), Duration::from_millis(4));
        assert_eq!(p.backoff_after(3), Duration::from_millis(16));
        // Saturates instead of overflowing for absurd attempt counts.
        assert!(p.backoff_after(200) > Duration::from_secs(1));
        assert_eq!(RetryPolicy { max_attempts: 0, ..p }.attempts(), 1);
    }

    #[test]
    fn constructors() {
        let c = PlanConfig::unaware(NetworkProfile::GAMMA2);
        assert_eq!(c.mode, PlanMode::Unaware);
        assert_eq!(c.network.name, "Gamma2");
        let c = PlanConfig::aware(NetworkProfile::GAMMA1);
        assert_eq!(c.mode, PlanMode::AWARE);
    }
}
