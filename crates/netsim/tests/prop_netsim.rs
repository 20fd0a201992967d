//! Randomized tests for the network simulation: sampler positivity and
//! scaling laws, link accounting invariants, and virtual-clock
//! arithmetic. Deterministically seeded via the in-repo PRNG.

use fedlake_netsim::clock::shared_virtual;
use fedlake_netsim::{CostModel, DelayModel, FaultPlan, GammaSampler, Link, NetworkProfile};
use fedlake_prng::Prng;
use std::sync::Arc;
use std::time::Duration;

fn random_fault_plan(rng: &mut Prng) -> FaultPlan {
    FaultPlan {
        drop_prob: rng.gen_range(0.0..0.4),
        truncate_prob: rng.gen_range(0.0..0.3),
        spike_prob: rng.gen_range(0.0..0.3),
        spike_factor: rng.gen_range(0.0..20.0),
        outage_after: rng.gen_bool(0.5).then(|| rng.gen_range(0u64..40)),
        outage_len: rng.gen_range(0u64..10),
    }
}

/// Gamma samples are always strictly positive and finite.
#[test]
fn gamma_samples_positive() {
    let mut meta = Prng::seed_from_u64(0x4e75_0001);
    for _ in 0..48 {
        let alpha = meta.gen_range(0.1f64..20.0);
        let beta = meta.gen_range(0.01f64..10.0);
        let seed = meta.next_u64();
        let g = GammaSampler::new(alpha, beta);
        let mut rng = Prng::seed_from_u64(seed);
        for _ in 0..200 {
            let x = g.sample(&mut rng);
            assert!(x.is_finite());
            assert!(x > 0.0, "sample {x} for α={alpha}, β={beta}");
        }
    }
}

/// Scaling law: gamma(α, c·β) has the same distribution as
/// c · gamma(α, β); with identical RNG streams the samples relate by
/// exactly the scale factor.
#[test]
fn gamma_scale_linearity() {
    let mut meta = Prng::seed_from_u64(0x4e75_0002);
    for _ in 0..64 {
        let alpha = meta.gen_range(0.5f64..10.0);
        let beta = meta.gen_range(0.1f64..5.0);
        let c = meta.gen_range(0.1f64..10.0);
        let seed = meta.next_u64();
        let g1 = GammaSampler::new(alpha, beta);
        let g2 = GammaSampler::new(alpha, beta * c);
        let mut r1 = Prng::seed_from_u64(seed);
        let mut r2 = Prng::seed_from_u64(seed);
        for _ in 0..50 {
            let a = g1.sample(&mut r1) * c;
            let b = g2.sample(&mut r2);
            assert!((a - b).abs() <= a.abs() * 1e-12 + 1e-12);
        }
    }
}

/// Link accounting: messages and rows add up, delay is zero exactly for
/// the NoDelay profile, and the clock never runs backwards.
#[test]
fn link_accounting() {
    let mut meta = Prng::seed_from_u64(0x4e75_0003);
    for _ in 0..64 {
        let batches: Vec<usize> = {
            let n = meta.gen_range(1usize..20);
            (0..n).map(|_| meta.gen_range(0usize..50)).collect()
        };
        let profile = NetworkProfile::ALL[meta.gen_range(0usize..4)];
        let seed = meta.next_u64();
        let clock = shared_virtual();
        let link = Link::new(profile, Arc::clone(&clock), CostModel::default(), seed);
        let mut last = Duration::ZERO;
        let mut total_rows = 0u64;
        for &n in &batches {
            assert!(link.try_transfer_message(n).is_ok());
            total_rows += n as u64;
            let now = clock.now();
            assert!(now >= last);
            last = now;
        }
        let stats = link.stats();
        assert_eq!(stats.messages, batches.len() as u64);
        assert_eq!(stats.rows, total_rows);
        if profile.name == "NoDelay" {
            assert_eq!(stats.delay, Duration::ZERO);
        } else {
            assert!(stats.delay > Duration::ZERO);
        }
        // The clock includes the non-latency transfer cost too.
        assert!(clock.now() >= stats.delay);
    }
}

/// transfer_rows(n, batch) sends ceil(n/batch) messages (or exactly one
/// empty message for n = 0) and exactly n rows.
#[test]
fn batching_message_count() {
    let mut meta = Prng::seed_from_u64(0x4e75_0004);
    for _ in 0..128 {
        let total = meta.gen_range(0usize..500);
        let batch = meta.gen_range(1usize..64);
        let clock = shared_virtual();
        let link = Link::new(
            NetworkProfile::GAMMA1,
            Arc::clone(&clock),
            CostModel::default(),
            1,
        );
        link.transfer_rows(total, batch).unwrap();
        let stats = link.stats();
        let expected = if total == 0 { 1 } else { total.div_ceil(batch) as u64 };
        assert_eq!(stats.messages, expected);
        assert_eq!(stats.rows, total as u64);
    }
}

/// Fault accounting: on an active plan every attempt is counted exactly
/// once, as either a delivered message or one of the fault kinds, and the
/// clock never falls behind the injected delay.
#[test]
fn fault_accounting_invariant() {
    let mut meta = Prng::seed_from_u64(0x4e75_0007);
    for _ in 0..64 {
        let plan = random_fault_plan(&mut meta);
        let n = meta.gen_range(1usize..120);
        let profile = NetworkProfile::ALL[meta.gen_range(0usize..4)];
        let seed = meta.next_u64();
        let clock = shared_virtual();
        let link =
            Link::with_faults(profile, Arc::clone(&clock), CostModel::default(), seed, plan);
        let mut delivered = 0u64;
        for _ in 0..n {
            if link.try_transfer_message(meta.gen_range(0usize..5)).is_ok() {
                delivered += 1;
            }
        }
        let s = link.stats();
        if plan.is_active() {
            assert_eq!(s.attempts, n as u64);
        } else {
            assert_eq!(s.attempts, 0);
        }
        assert_eq!(s.messages, delivered);
        if plan.is_active() {
            assert_eq!(s.attempts, s.messages + s.faults());
        } else {
            assert_eq!(s.faults(), 0);
        }
        assert!(clock.now() >= s.delay);
    }
}

/// Determinism: a `(seed, plan)` pair fully determines the fault schedule
/// and the accumulated stats.
#[test]
fn fault_schedules_are_deterministic() {
    let mut meta = Prng::seed_from_u64(0x4e75_0008);
    for _ in 0..48 {
        let plan = random_fault_plan(&mut meta);
        let profile = NetworkProfile::ALL[meta.gen_range(0usize..4)];
        let seed = meta.next_u64();
        let mk = || {
            Link::with_faults(profile, shared_virtual(), CostModel::default(), seed, plan)
        };
        let (a, b) = (mk(), mk());
        let ra: Vec<_> = (0..96).map(|i| a.try_transfer_message(i % 4)).collect();
        let rb: Vec<_> = (0..96).map(|i| b.try_transfer_message(i % 4)).collect();
        assert_eq!(ra, rb);
        assert_eq!(a.stats(), b.stats());
    }
}

/// Waiting for every message (`try_transfer_message`: schedule at the
/// clock's time, advance to the completion) and scheduling the same
/// sequence back-to-back without ever waiting must agree draw-for-draw —
/// identical fault outcomes, identical stats (the injected delay is
/// attributed once per attempt), and a local timeline equal to the clock
/// that was waited on.
#[test]
fn scheduled_transfers_mirror_serialized_stats() {
    let mut meta = Prng::seed_from_u64(0x4e75_0009);
    for _ in 0..48 {
        let plan = random_fault_plan(&mut meta);
        let profile = NetworkProfile::ALL[meta.gen_range(0usize..4)];
        let seed = meta.next_u64();
        let serialized =
            Link::with_faults(profile, shared_virtual(), CostModel::default(), seed, plan);
        let scheduled =
            Link::with_faults(profile, shared_virtual(), CostModel::default(), seed, plan);
        let mut start = Duration::ZERO;
        for i in 0..96usize {
            let a = serialized.try_transfer_message(i % 4);
            let (done, b) = scheduled.schedule_message(i % 4, start);
            assert_eq!(a, b, "attempt {i}: fault outcomes diverge");
            start = done;
        }
        assert_eq!(serialized.stats(), scheduled.stats());
        // Drops and outages occupy no link time in either path, so the
        // back-to-back timeline equals the serialized clock exactly.
        assert_eq!(serialized.clock().now(), scheduled.local_time());
    }
}

/// Delay attribution under retries: a dropped message contributes *no*
/// network delay (the loss is paid as the receiver's timeout, not link
/// delay), and each retried attempt that does transit — truncated or
/// delivered — charges its sampled delay exactly once. A
/// dropped-then-retried message therefore never double-counts.
#[test]
fn retried_drop_attributes_delay_once() {
    // All attempts dropped: whatever the retry count, zero delay.
    let all_drop = FaultPlan { drop_prob: 1.0, ..FaultPlan::NONE };
    let l = Link::with_faults(
        NetworkProfile::GAMMA3,
        shared_virtual(),
        CostModel::default(),
        7,
        all_drop,
    );
    let mut at = Duration::ZERO;
    for _ in 0..8 {
        assert!(l.try_transfer_message(3).is_err());
        let (done, r) = l.schedule_message(3, at);
        assert!(r.is_err());
        at = done;
    }
    assert_eq!(l.stats().delay, Duration::ZERO, "dropped attempts must charge no delay");
    assert_eq!(l.stats().dropped, 16);

    // All attempts truncated: delay grows by exactly one sample per
    // attempt — the serialized and scheduled halves of the same link see
    // the same per-attempt charge, never a doubled one.
    let all_trunc = FaultPlan { truncate_prob: 1.0, ..FaultPlan::NONE };
    let l = Link::with_faults(
        NetworkProfile::GAMMA3,
        shared_virtual(),
        CostModel::default(),
        7,
        all_trunc,
    );
    let mut prev = Duration::ZERO;
    let mut at = Duration::ZERO;
    for i in 0..8 {
        let charged = if i % 2 == 0 {
            assert!(l.try_transfer_message(3).is_err());
            l.stats().delay
        } else {
            let (done, r) = l.schedule_message(3, at);
            assert!(r.is_err());
            at = done;
            l.stats().delay
        };
        assert!(charged > prev, "attempt {i}: exactly one new delay sample expected");
        prev = charged;
    }
    assert_eq!(l.stats().truncated, 8);

    // Mixed drop-then-deliver retry chains: total delay equals the sum
    // over transiting attempts only (messages + truncations), which the
    // clock/timeline must dominate.
    let mixed = FaultPlan { drop_prob: 0.5, truncate_prob: 0.2, ..FaultPlan::NONE };
    let l = Link::with_faults(
        NetworkProfile::GAMMA2,
        shared_virtual(),
        CostModel::default(),
        11,
        mixed,
    );
    for _ in 0..64 {
        let _ = l.try_transfer_message(2);
    }
    let s = l.stats();
    assert_eq!(s.attempts, 64);
    assert!(s.dropped > 0, "p=0.5 over 64 attempts must drop something");
    assert!(l.clock().now() >= s.delay);
}

/// The mean of a DelayModel matches its analytic value.
#[test]
fn delay_model_mean() {
    let mut meta = Prng::seed_from_u64(0x4e75_0005);
    for _ in 0..128 {
        let ms = meta.gen_range(0.0f64..10.0);
        let c = DelayModel::Constant { ms };
        assert_eq!(c.mean_ms(), ms);
        let g = DelayModel::Gamma { alpha: 2.0, beta_ms: ms.max(0.01) };
        assert!((g.mean_ms() - 2.0 * ms.max(0.01)).abs() < 1e-12);
    }
}

/// Cost-model time conversions are monotone in their counters.
#[test]
fn cost_model_monotonicity() {
    use fedlake_netsim::cost::fedlake_relational_cost::CostStats;
    let mut meta = Prng::seed_from_u64(0x4e75_0006);
    for _ in 0..128 {
        let a = meta.gen_range(0u64..100_000);
        let b = meta.gen_range(0u64..100_000);
        let m = CostModel::default();
        let (lo, hi) = (a.min(b), a.max(b));
        let t_lo = m.rdb_time(&CostStats { rows_scanned: lo, ..Default::default() });
        let t_hi = m.rdb_time(&CostStats { rows_scanned: hi, ..Default::default() });
        assert!(t_lo <= t_hi);
        assert!(m.engine_filter_time(lo) <= m.engine_filter_time(hi));
        assert!(m.message_time(lo as usize) <= m.message_time(hi as usize));
    }
}
