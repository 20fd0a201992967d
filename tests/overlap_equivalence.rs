//! Scheduler-equivalence suite: the overlapped (event-driven) schedule
//! must return byte-identical answers, identical link traffic and
//! identical SQL counts to the serialized schedule for every workload
//! query and network profile — only the *timing* may differ, and it may
//! only improve. The schedule digest at the end pins the timing of both to
//! the nanosecond.
//!
//! The schedule is this suite's subject, so each test sets it itself and
//! takes the other axes — planner, observers, replicas — from the cells
//! of the shared matrix (`tests/common/mod.rs`).

mod common;

use common::for_each_cell;
use fedlake_core::{FedResult, FederatedEngine, PlanConfig, PlanMode};
use fedlake_datagen::{build_lake_with, workload, LakeConfig};
use fedlake_netsim::NetworkProfile;
use fedlake_sparql::parser::parse_query;

fn sorted_rows(r: &FedResult) -> Vec<String> {
    let mut v: Vec<String> = r.rows.iter().map(|row| row.to_string()).collect();
    v.sort();
    v
}

/// Everything except timing must be schedule-invariant.
fn assert_same_answers(label: &str, ser: &FedResult, ovl: &FedResult) {
    assert_eq!(sorted_rows(ser), sorted_rows(ovl), "{label}: answer rows diverge");
    assert_eq!(ser.stats.answers, ovl.stats.answers, "{label}: answers");
    assert_eq!(
        ser.trace.count(),
        ovl.trace.count(),
        "{label}: trace answer counts"
    );
    assert_eq!(ser.stats.messages, ovl.stats.messages, "{label}: messages");
    assert_eq!(
        ser.stats.rows_transferred, ovl.stats.rows_transferred,
        "{label}: rows_transferred"
    );
    assert_eq!(ser.stats.sql_queries, ovl.stats.sql_queries, "{label}: sql_queries");
    assert_eq!(ser.stats.network_delay, ovl.stats.network_delay, "{label}: network_delay");
    assert_eq!(ser.stats.retries, ovl.stats.retries, "{label}: retries");
    assert_eq!(
        ser.stats.source_failures, ovl.stats.source_failures,
        "{label}: source_failures"
    );
}

#[test]
fn overlapped_schedule_is_answer_identical_and_no_slower() {
    for_each_cell(|cell| {
        let lake_cfg = LakeConfig { scale: 0.1, ..Default::default() };
        for mode in [PlanMode::Unaware, PlanMode::AWARE] {
            for q in workload::experiment_queries() {
                let mut lake = build_lake_with(&lake_cfg, q.datasets);
                cell.replicate(&mut lake);
                let ast = parse_query(&q.sparql).unwrap();
                for network in NetworkProfile::ALL {
                    // Multi-row messages too: message boundaries, not rows,
                    // are what the two schedules must agree on.
                    for rows_per_message in [1, 8] {
                        let mut ser_cfg = cell.config(PlanConfig::new(mode, network));
                        ser_cfg.overlap = false;
                        ser_cfg.rows_per_message = rows_per_message;
                        let mut ovl_cfg = ser_cfg;
                        ovl_cfg.overlap = true;
                        let ser_engine = FederatedEngine::new(lake.clone(), ser_cfg);
                        let planned = ser_engine.plan(&ast).unwrap();
                        let ser = ser_engine.execute_planned(&planned).unwrap();
                        let ovl_engine = FederatedEngine::new(lake.clone(), ovl_cfg);
                        let ovl = ovl_engine.execute_planned(&planned).unwrap();

                        let label = format!(
                            "{}/{}/{}/{rows_per_message} rows per message",
                            q.id, ser.stats.plan_label, network.name
                        );
                        assert!(ser.stats.answers > 0, "{label}: query returned no rows");
                        assert_same_answers(&label, &ser, &ovl);

                        // Overlap can only hide latency, never add it.
                        assert!(
                            ovl.stats.execution_time <= ser.stats.execution_time,
                            "{label}: overlapped slower ({:?} > {:?})",
                            ovl.stats.execution_time,
                            ser.stats.execution_time
                        );
                        let services = planned.plan.service_count();
                        if services == 1 {
                            // A single source has nothing to overlap with: the
                            // scheduled chain replays the serialized clock exactly.
                            assert_eq!(
                                ser.stats.execution_time, ovl.stats.execution_time,
                                "{label}: single-service timing must match"
                            );
                            assert_eq!(
                                ser.stats.first_answer, ovl.stats.first_answer,
                                "{label}: single-service first answer must match"
                            );
                        } else if network.delay.mean_ms() > 0.0
                            && planned.plan.independent_service_count() > 1
                        {
                            // Independent sources with real latency must overlap:
                            // the critical path is strictly shorter than the sum.
                            // (Bind-join right sides are dependent fetches with
                            // nothing to overlap, hence the independent count.)
                            assert!(
                                ovl.stats.execution_time < ser.stats.execution_time,
                                "{label}: {services} services under {} should overlap \
                                 ({:?} !< {:?})",
                                network.name,
                                ovl.stats.execution_time,
                                ser.stats.execution_time
                            );
                        }
                    }
                }
            }
        }
    });
}

/// The overlapped schedule is a deterministic function of the plan and the
/// seed: re-running the same planned query must reproduce the full
/// statistics *and the unsorted answer order* byte-for-byte. This pins the
/// `(time, seq)` re-poll tie-break in UNION and the hash joins — under
/// NO_DELAY especially, many source events share a completion time, and
/// any order left to an unstable tie-break would shuffle answers between
/// runs.
#[test]
fn overlapped_schedule_is_deterministic_across_reruns() {
    for_each_cell(|cell| {
        let lake_cfg = LakeConfig { scale: 0.1, ..Default::default() };
        for q in workload::experiment_queries() {
            let mut lake = build_lake_with(&lake_cfg, q.datasets);
            cell.replicate(&mut lake);
            let ast = parse_query(&q.sparql).unwrap();
            for network in [NetworkProfile::NO_DELAY, NetworkProfile::GAMMA1] {
                let mut cfg = cell.config(PlanConfig::new(PlanMode::AWARE, network));
                cfg.overlap = true;
                let engine = FederatedEngine::new(lake.clone(), cfg);
                let planned = engine.plan(&ast).unwrap();
                let first = engine.execute_planned(&planned).unwrap();
                let unsorted: Vec<String> =
                    first.rows.iter().map(|row| row.to_string()).collect();
                for run in 0..3 {
                    let again = engine.execute_planned(&planned).unwrap();
                    let label = format!("{}/rerun {run}/{}", q.id, network.name);
                    assert_eq!(again.stats, first.stats, "{label}: stats diverge");
                    assert_eq!(
                        again.rows.iter().map(|r| r.to_string()).collect::<Vec<_>>(),
                        unsorted,
                        "{label}: answer order diverges"
                    );
                }
            }
        }
    });
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One line per execution: the readable headline plus a hash of the whole
/// [`fedlake_core::FedStats`] (every field, through `Debug`), every
/// [`fedlake_core::AnswerTrace`] point and the sorted CSV.
fn digest_line(label: &str, r: &FedResult) -> String {
    let mut h = fnv1a(0xcbf2_9ce4_8422_2325, format!("{:?}", r.stats).as_bytes());
    for (t, n) in r.trace.points() {
        h = fnv1a(h, &t.as_nanos().to_le_bytes());
        h = fnv1a(h, &n.to_le_bytes());
    }
    h = fnv1a(h, &r.trace.total_time().as_nanos().to_le_bytes());
    let mut rows = r.rows.clone();
    rows.sort_by_cached_key(|row| row.to_string());
    h = fnv1a(h, fedlake_core::results::to_sparql_csv(&r.vars, &rows).as_bytes());
    format!(
        "{label} answers={} exec_ns={} first_ns={} digest={h:016x}\n",
        r.stats.answers,
        r.stats.execution_time.as_nanos(),
        r.stats.first_answer.map_or(0, |t| t.as_nanos()),
    )
}

/// The schedule digest: Q1–Q5 + QM × {unaware, aware} × the four networks
/// × the six matrix cells, each execution hashed whole — statistics,
/// answer timestamps and answers — then Q1–Q5 under a fault plan on both
/// schedules, then Q1–Q5 with eight rows per message on both schedules
/// with one and two replicas. This file, not a second executor, is
/// what pins the paper's serialized timing (and the overlapped one) to the
/// last nanosecond: `tests/golden/schedule_digest.txt` was generated at the
/// commit before the blocking pull protocol was removed and must stay
/// byte-identical. Regenerate only deliberately, with
///
/// ```text
/// BLESS_SCHEDULE_DIGEST=1 cargo test --test overlap_equivalence schedule_digest
/// ```
///
/// — a harness knob like `CHAOS_ITERS`, and deliberately not `BLESS_GOLDEN`:
/// re-blessing the answer snapshots must never move the timing pin with it.
#[test]
fn schedule_digest_matches_golden() {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/schedule_digest.txt");
    let lake_cfg = LakeConfig { scale: 0.1, ..Default::default() };
    let mut digest = String::new();
    for q in workload::all() {
        let ast = parse_query(&q.sparql).unwrap();
        for (i, cell) in common::CELLS.iter().enumerate() {
            let mut lake = build_lake_with(&lake_cfg, q.datasets);
            cell.replicate(&mut lake);
            for (mode, mode_name) in [(PlanMode::Unaware, "unaware"), (PlanMode::AWARE, "aware")] {
                for network in NetworkProfile::ALL {
                    let config = cell.config(PlanConfig::new(mode, network));
                    let engine = FederatedEngine::new(lake.clone(), config);
                    let label = format!("{}/{mode_name}/{}/cell{i}", q.id, network.name);
                    let line = digest_line(&label, &engine.execute(&ast).unwrap());
                    // The second execution reads its delays from the tapes
                    // the first one drew (and its plan and leaves from the
                    // caches): the same line, to the nanosecond.
                    let again = digest_line(&label, &engine.execute(&ast).unwrap());
                    assert_eq!(again, line, "a warm engine's rerun moved");
                    digest.push_str(&line);
                }
            }
        }
    }
    // Faults too: once both schedules run one retry chain, its timing on
    // the serialized schedule has no second body to be compared against.
    let faults = fedlake_core::FaultPlan {
        drop_prob: 0.08,
        truncate_prob: 0.05,
        spike_prob: 0.10,
        spike_factor: 8.0,
        outage_after: Some(40),
        outage_len: 2,
    };
    for q in workload::experiment_queries() {
        let lake = build_lake_with(&lake_cfg, q.datasets);
        let ast = parse_query(&q.sparql).unwrap();
        for network in [NetworkProfile::NO_DELAY, NetworkProfile::GAMMA2] {
            for overlap in [false, true] {
                let mut config = PlanConfig::new(PlanMode::AWARE, network);
                config.overlap = overlap;
                config.faults = faults;
                config.retry = fedlake_core::RetryPolicy { max_attempts: 6, ..Default::default() };
                let label = format!("{}/faults/{}/overlap={overlap}", q.id, network.name);
                match FederatedEngine::new(lake.clone(), config).execute(&ast) {
                    Ok(result) => digest.push_str(&digest_line(&label, &result)),
                    Err(e) => digest.push_str(&format!("{label} error={e}\n")),
                }
            }
        }
    }
    // Multi-row messages: eight rows per message, so message boundaries no
    // longer coincide with rows, on both schedules and with one or two
    // replicas per source.
    for q in workload::experiment_queries() {
        let ast = parse_query(&q.sparql).unwrap();
        for overlap in [false, true] {
            for replicas in [1u32, 2] {
                let mut lake = build_lake_with(&lake_cfg, q.datasets);
                common::Cell { replicas, ..common::CELLS[0] }.replicate(&mut lake);
                let mut config = PlanConfig::new(PlanMode::AWARE, NetworkProfile::GAMMA1);
                config.overlap = overlap;
                config.rows_per_message = 8;
                let label = format!("{}/messages/overlap={overlap}/replicas={replicas}", q.id);
                let engine = FederatedEngine::new(lake, config);
                digest.push_str(&digest_line(&label, &engine.execute(&ast).unwrap()));
            }
        }
    }
    if std::env::var_os("BLESS_SCHEDULE_DIGEST").is_some() {
        std::fs::write(&path, &digest).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing {path:?} ({e}); it is generated once, see this test's doc")
    });
    for (got, want) in digest.lines().zip(want.lines()) {
        assert_eq!(got, want, "schedule digest diverges from {path:?}");
    }
    assert_eq!(digest.lines().count(), want.lines().count(), "schedule digest line count");
}
