//! The latency/throughput/fairness report of one serve run.
//!
//! All durations are integer simulated nanoseconds and the two floats
//! (`qps_sim`, `jain`) are formatted with fixed precision from the same
//! deterministic inputs, so rendering a report is bit-stable across
//! reruns of the same seed — the property `tests/serve_determinism.rs` holds.

use fedlake_core::obs::nearest_rank;
use fedlake_core::serve::ServeOutcome;
use std::collections::BTreeMap;

/// Summary of one serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Distinct clients that submitted jobs.
    pub clients: usize,
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs that returned their complete answer set.
    pub completed: u64,
    /// Jobs that failed on their deadline.
    pub timeouts: u64,
    /// Jobs that returned partial answers under `degraded_ok`.
    pub degraded: u64,
    /// Jobs that failed hard for another reason (exhausted retries).
    pub failed: u64,
    /// Total answer rows across all jobs.
    pub answers: u64,
    /// Simulated time at which the last job finished, in ns.
    pub makespan_ns: u64,
    /// Jobs per simulated second.
    pub qps_sim: f64,
    /// Latency percentiles (arrival → finish, queueing included), in ns.
    pub p50_ns: u64,
    /// 95th percentile latency, ns.
    pub p95_ns: u64,
    /// 99th percentile latency, ns.
    pub p99_ns: u64,
    /// Jain fairness index over per-client mean latency:
    /// `(Σx)² / (n·Σx²)` — 1.0 when every client experiences the same
    /// mean latency, approaching `1/n` as one client absorbs all delay.
    pub jain: f64,
}

impl ServeReport {
    /// Summarizes one run.
    pub fn from_outcome(outcome: &ServeOutcome) -> ServeReport {
        let mut latencies: Vec<u64> =
            outcome.outcomes.iter().map(|o| o.latency.as_nanos() as u64).collect();
        latencies.sort_unstable();
        let mut per_client: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
        for o in &outcome.outcomes {
            let e = per_client.entry(o.client).or_insert((0, 0));
            e.0 += o.latency.as_nanos() as u64;
            e.1 += 1;
        }
        let means: Vec<f64> =
            per_client.values().map(|(sum, n)| *sum as f64 / (*n).max(1) as f64).collect();
        let jain = if means.is_empty() || means.iter().all(|m| *m == 0.0) {
            1.0
        } else {
            let s: f64 = means.iter().sum();
            let s2: f64 = means.iter().map(|m| m * m).sum();
            (s * s) / (means.len() as f64 * s2)
        };
        let makespan_ns = outcome.makespan.as_nanos() as u64;
        ServeReport {
            clients: per_client.len(),
            jobs: outcome.outcomes.len(),
            completed: outcome.metrics.counter("serve.completed"),
            timeouts: outcome.metrics.counter("serve.timeouts"),
            degraded: outcome.metrics.counter("serve.degraded"),
            failed: outcome.metrics.counter("serve.failed"),
            answers: outcome.metrics.counter("serve.answers"),
            makespan_ns,
            qps_sim: if makespan_ns == 0 {
                0.0
            } else {
                outcome.outcomes.len() as f64 * 1e9 / makespan_ns as f64
            },
            p50_ns: nearest_rank(&latencies, 0.50),
            p95_ns: nearest_rank(&latencies, 0.95),
            p99_ns: nearest_rank(&latencies, 0.99),
            jain,
        }
    }

    /// One JSON object (no trailing newline), bit-stable for a given run.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"clients\": {}, \"jobs\": {}, \"completed\": {}, \"timeouts\": {}, \
             \"degraded\": {}, \"failed\": {}, \"answers\": {}, \"makespan_ns\": {}, \
             \"qps_sim\": {:.6}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \
             \"jain\": {:.6}}}",
            self.clients,
            self.jobs,
            self.completed,
            self.timeouts,
            self.degraded,
            self.failed,
            self.answers,
            self.makespan_ns,
            self.qps_sim,
            self.p50_ns,
            self.p95_ns,
            self.p99_ns,
            self.jain,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        // The report's percentiles are the shared `nearest_rank` — assert
        // the exact values it must produce so a drift in the helper (or a
        // reintroduced private copy) fails here.
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 0.50), 50);
        assert_eq!(nearest_rank(&s, 0.95), 95);
        assert_eq!(nearest_rank(&s, 0.99), 99);
        assert_eq!(nearest_rank(&s, 1.0), 100);
        assert_eq!(nearest_rank(&[42], 0.5), 42);
        assert_eq!(nearest_rank(&[], 0.5), 0);
    }
}
