//! Deterministic fault injection for simulated links.
//!
//! The paper's network settings only make links *slow*; this module makes
//! them *unreliable* as well, in the way real federation engines (FedX,
//! ANAPSID) must cope with: messages are lost, payloads arrive truncated,
//! latency spikes, and sources suffer outages lasting several messages.
//!
//! Faults are driven by the same seeded [`fedlake_prng`] stream as the
//! link's latency sampling, so a `(seed, FaultPlan)` pair fully determines
//! the fault schedule: identical runs observe identical faults at
//! identical attempts, which is what makes chaos testing reproducible.
//! A link with [`FaultPlan::NONE`] consumes exactly the same RNG stream as
//! a pre-fault link, so fault-free runs are bit-identical to the seed
//! behaviour.

use std::fmt;

/// A fault observed on one message attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// The message was lost in transit; the receiver times out waiting.
    Dropped,
    /// The message arrived but its payload was truncated and is unusable.
    /// Unlike a drop, the transit delay was already paid.
    Truncated,
    /// The source is down and does not answer at all.
    SourceDown,
}

impl fmt::Display for LinkFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkFault::Dropped => write!(f, "message dropped"),
            LinkFault::Truncated => write!(f, "result stream truncated"),
            LinkFault::SourceDown => write!(f, "source outage"),
        }
    }
}

/// A per-link fault schedule.
///
/// Probabilities apply independently per message attempt, in priority
/// order drop > truncate > spike (a single uniform draw is partitioned,
/// so at most one fires per attempt). The outage window is positional:
/// attempts `outage_after .. outage_after + outage_len` fail with
/// [`LinkFault::SourceDown`] regardless of the probabilistic faults, which
/// models an N-message outage whose recoverability depends on the retry
/// policy's attempt budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability a message attempt is dropped in transit.
    pub drop_prob: f64,
    /// Probability a message attempt arrives truncated.
    pub truncate_prob: f64,
    /// Probability a message attempt suffers a latency spike.
    pub spike_prob: f64,
    /// Multiplier applied to the sampled delay during a spike.
    pub spike_factor: f64,
    /// Attempt index (0-based, per link) at which the source goes down.
    pub outage_after: Option<u64>,
    /// Number of consecutive attempts that fail during the outage.
    pub outage_len: u64,
}

impl FaultPlan {
    /// No faults: the link behaves exactly like a pre-fault link.
    pub const NONE: FaultPlan = FaultPlan {
        drop_prob: 0.0,
        truncate_prob: 0.0,
        spike_prob: 0.0,
        spike_factor: 1.0,
        outage_after: None,
        outage_len: 0,
    };

    /// True when any fault can ever fire. Inactive plans skip the
    /// per-attempt fault draw entirely, preserving the RNG stream.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.truncate_prob > 0.0
            || self.spike_prob > 0.0
            || (self.outage_after.is_some() && self.outage_len > 0)
    }

    /// True when `attempt` falls inside the outage window.
    pub(crate) fn in_outage(&self, attempt: u64) -> bool {
        match self.outage_after {
            Some(start) => attempt >= start && attempt - start < self.outage_len,
            None => false,
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::NONE
    }
}

/// A correlated outage: several links go down over the *same* simulated
/// window.
///
/// The fault model is positional (outages are windows of per-link attempt
/// indices), so "the same window" means every member link observes the
/// outage starting at the same attempt index — the shared start is drawn
/// deterministically from the group's own seed, independent of the member
/// links' RNG streams. This models a shared failure domain (one rack, one
/// provider region) taking all replicas of a source down together, the
/// scenario replica failover cannot rescue.
#[derive(Debug, Clone, PartialEq)]
pub struct OutageGroup {
    /// Link ids (source or replica-endpoint ids) that go down together.
    pub members: Vec<String>,
    /// Seed the shared outage start is drawn from.
    pub seed: u64,
    /// The start attempt is drawn uniformly from `0..window` (a window of
    /// zero or one pins the outage to attempt 0).
    pub window: u64,
    /// Consecutive attempts each member fails for (`u64::MAX` = forever).
    pub len: u64,
}

impl OutageGroup {
    /// The attempt index at which every member's outage begins — a pure
    /// function of the group's seed, so re-runs observe the same window.
    pub(crate) fn start(&self) -> u64 {
        let mut rng = fedlake_prng::Prng::seed_from_u64(self.seed ^ 0x9E6D_62C9_4D0C_F5A3);
        rng.next_u64() % self.window.max(1)
    }

    /// True when `link_id` belongs to this group.
    pub(crate) fn applies_to(&self, link_id: &str) -> bool {
        self.members.iter().any(|m| m == link_id)
    }
}

/// Fault plans for a whole federation: a uniform default plus per-source
/// overrides, so a chaos schedule can make exactly one endpoint flaky
/// while the rest of the lake stays healthy. Correlated [`OutageGroup`]s
/// overlay a shared outage window on all their member links on top of
/// whatever per-link plan resolved.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlans {
    /// Plan applied to every source without an override.
    pub default: FaultPlan,
    /// Per-source-id overrides (keyed by the lake's source ids; replica
    /// endpoints may be keyed individually or fall back to their logical
    /// source's override).
    pub overrides: std::collections::BTreeMap<String, FaultPlan>,
    /// Correlated outages, applied after override resolution. The first
    /// group containing a link wins.
    pub groups: Vec<OutageGroup>,
}

impl FaultPlans {
    /// The same plan on every link (the pre-per-source behaviour).
    pub(crate) fn uniform(plan: FaultPlan) -> Self {
        FaultPlans {
            default: plan,
            overrides: std::collections::BTreeMap::new(),
            groups: Vec::new(),
        }
    }

    /// The plan in effect for one replica endpoint of a logical source:
    /// an endpoint-keyed override wins, then the logical source's
    /// override, then the default — after which the first outage group
    /// containing either id overlays its shared outage window.
    pub fn for_endpoint(&self, endpoint: &str, logical: &str) -> FaultPlan {
        let mut plan = self
            .overrides
            .get(endpoint)
            .or_else(|| self.overrides.get(logical))
            .copied()
            .unwrap_or(self.default);
        for g in &self.groups {
            if g.applies_to(endpoint) || g.applies_to(logical) {
                plan.outage_after = Some(g.start());
                plan.outage_len = g.len;
                break;
            }
        }
        plan
    }
}

impl From<FaultPlan> for FaultPlans {
    fn from(plan: FaultPlan) -> Self {
        FaultPlans::uniform(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive() {
        assert!(!FaultPlan::NONE.is_active());
        assert!(!FaultPlan::default().is_active());
        assert!(!FaultPlan::NONE.in_outage(0));
    }

    #[test]
    fn any_probability_activates() {
        assert!(FaultPlan { drop_prob: 0.1, ..FaultPlan::NONE }.is_active());
        assert!(FaultPlan { truncate_prob: 0.1, ..FaultPlan::NONE }.is_active());
        assert!(FaultPlan { spike_prob: 0.1, ..FaultPlan::NONE }.is_active());
        assert!(FaultPlan {
            outage_after: Some(0),
            outage_len: 1,
            ..FaultPlan::NONE
        }
        .is_active());
        // A zero-length outage never fires.
        assert!(!FaultPlan { outage_after: Some(0), ..FaultPlan::NONE }.is_active());
    }

    #[test]
    fn outage_window_is_half_open() {
        let p = FaultPlan { outage_after: Some(3), outage_len: 2, ..FaultPlan::NONE };
        assert!(!p.in_outage(2));
        assert!(p.in_outage(3));
        assert!(p.in_outage(4));
        assert!(!p.in_outage(5));
    }

    #[test]
    fn plans_override_per_source() {
        let flaky = FaultPlan { drop_prob: 0.5, ..FaultPlan::NONE };
        let mut plans = FaultPlans::uniform(FaultPlan::NONE);
        plans.overrides.insert("tcga".into(), flaky);
        assert_eq!(plans.for_endpoint("tcga", "tcga"), flaky);
        assert_eq!(plans.for_endpoint("chebi", "chebi"), FaultPlan::NONE);
        let uniform: FaultPlans = flaky.into();
        assert_eq!(uniform.for_endpoint("anything", "anything"), flaky);
    }

    #[test]
    fn endpoint_resolution_falls_back_to_logical_override() {
        let flaky = FaultPlan { drop_prob: 0.5, ..FaultPlan::NONE };
        let targeted = FaultPlan { truncate_prob: 0.9, ..FaultPlan::NONE };
        let mut plans = FaultPlans::uniform(FaultPlan::NONE);
        plans.overrides.insert("tcga".into(), flaky);
        plans.overrides.insert("tcga#r1".into(), targeted);
        // Endpoint override wins over the logical source's override.
        assert_eq!(plans.for_endpoint("tcga#r1", "tcga"), targeted);
        // A replica without its own override inherits the logical plan.
        assert_eq!(plans.for_endpoint("tcga#r0", "tcga"), flaky);
        assert_eq!(plans.for_endpoint("chebi#r0", "chebi"), FaultPlan::NONE);
    }

    #[test]
    fn outage_groups_share_one_window() {
        let g = OutageGroup {
            members: vec!["a#r0".into(), "a#r1".into()],
            seed: 7,
            window: 50,
            len: 3,
        };
        let start = g.start();
        assert!(start < 50);
        assert_eq!(g.start(), start, "the shared start is a pure function of the seed");
        let plans = FaultPlans { groups: vec![g.clone()], ..FaultPlans::default() };
        for member in ["a#r0", "a#r1"] {
            let plan = plans.for_endpoint(member, "a");
            assert_eq!(plan.outage_after, Some(start), "every member shares the window");
            assert_eq!(plan.outage_len, 3);
        }
        // Non-members are untouched.
        assert_eq!(plans.for_endpoint("b#r0", "b"), FaultPlan::NONE);
        // A window of 1 pins the outage to attempt 0 regardless of seed.
        let pinned = OutageGroup { members: vec!["x".into()], seed: 999, window: 1, len: 1 };
        assert_eq!(pinned.start(), 0);
        // Matching on the logical id downs all of its replicas at once.
        let by_logical = FaultPlans {
            groups: vec![OutageGroup { members: vec!["a".into()], seed: 1, window: 1, len: 2 }],
            ..FaultPlans::default()
        };
        assert_eq!(by_logical.for_endpoint("a#r1", "a").outage_after, Some(0));
    }

    #[test]
    fn fault_display() {
        assert_eq!(LinkFault::Dropped.to_string(), "message dropped");
        assert_eq!(LinkFault::Truncated.to_string(), "result stream truncated");
        assert_eq!(LinkFault::SourceDown.to_string(), "source outage");
    }
}
