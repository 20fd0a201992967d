//! Answer traces: the generation of answers over (simulated) time.
//!
//! The paper's Figure 2 plots *answer traces* — cumulative answers against
//! time — for each plan type and network setting. [`AnswerTrace`] records
//! exactly those points during execution.

use std::time::Duration;

/// A cumulative answer trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnswerTrace {
    points: Vec<(Duration, u64)>,
    completed_at: Option<Duration>,
}

impl AnswerTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the production of one answer at time `t`.
    pub fn record(&mut self, t: Duration) {
        let count = self.count() + 1;
        self.points.push((t, count));
    }

    /// Marks query completion at time `t` (the trace may end after the
    /// last answer: the engine only knows it is done once sources drain).
    pub(crate) fn complete(&mut self, t: Duration) {
        self.completed_at = Some(t);
    }

    /// Number of answers recorded.
    pub fn count(&self) -> u64 {
        self.points.last().map_or(0, |&(_, c)| c)
    }

    /// Time of the first answer.
    pub fn first_answer(&self) -> Option<Duration> {
        self.points.first().map(|&(t, _)| t)
    }

    /// Total execution time: completion if marked, else the last answer.
    pub fn total_time(&self) -> Duration {
        self.completed_at
            .or_else(|| self.points.last().map(|&(t, _)| t))
            .unwrap_or(Duration::ZERO)
    }

    /// The raw `(time, cumulative answers)` points.
    pub fn points(&self) -> &[(Duration, u64)] {
        &self.points
    }

    /// Cumulative answers at time `t` (for comparing traces pointwise).
    pub fn answers_at(&self, t: Duration) -> u64 {
        match self.points.binary_search_by(|&(pt, _)| pt.cmp(&t)) {
            Ok(mut i) => {
                // Several answers can share a timestamp; take the last.
                while i + 1 < self.points.len() && self.points[i + 1].0 == t {
                    i += 1;
                }
                self.points[i].1
            }
            Err(0) => 0,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Serializes the trace as `seconds,answers` CSV lines.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_s,answers\n");
        for &(t, c) in &self.points {
            out.push_str(&format!("{:.6},{c}\n", t.as_secs_f64()));
        }
        out
    }

    /// Downsamples the trace to roughly `n` points for plotting (at most
    /// `n + 1`: the final point is always kept). `n == 0` disables
    /// downsampling and returns the full trace.
    pub fn downsample(&self, n: usize) -> Vec<(Duration, u64)> {
        let Some(&last) = self.points.last() else {
            return Vec::new();
        };
        if self.points.len() <= n || n == 0 {
            return self.points.clone();
        }
        let step = self.points.len() as f64 / n as f64;
        let mut out: Vec<(Duration, u64)> = (0..n)
            .map(|i| self.points[(i as f64 * step) as usize])
            .collect();
        if out.last() != Some(&last) {
            out.push(last);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn record_accumulates() {
        let mut t = AnswerTrace::new();
        t.record(ms(1));
        t.record(ms(5));
        t.record(ms(5));
        assert_eq!(t.count(), 3);
        assert_eq!(t.first_answer(), Some(ms(1)));
        assert_eq!(t.total_time(), ms(5));
    }

    #[test]
    fn completion_extends_total_time() {
        let mut t = AnswerTrace::new();
        t.record(ms(2));
        t.complete(ms(10));
        assert_eq!(t.total_time(), ms(10));
    }

    #[test]
    fn answers_at_interpolates_stepwise() {
        let mut t = AnswerTrace::new();
        t.record(ms(1));
        t.record(ms(5));
        t.record(ms(5));
        t.record(ms(9));
        assert_eq!(t.answers_at(ms(0)), 0);
        assert_eq!(t.answers_at(ms(1)), 1);
        assert_eq!(t.answers_at(ms(5)), 3);
        assert_eq!(t.answers_at(ms(7)), 3);
        assert_eq!(t.answers_at(ms(100)), 4);
    }

    #[test]
    fn csv_format() {
        let mut t = AnswerTrace::new();
        t.record(Duration::from_micros(1500));
        let csv = t.to_csv();
        assert!(csv.starts_with("time_s,answers\n"));
        assert!(csv.contains("0.001500,1"));
    }

    #[test]
    fn empty_trace() {
        let t = AnswerTrace::new();
        assert_eq!(t.count(), 0);
        assert_eq!(t.first_answer(), None);
        assert_eq!(t.total_time(), Duration::ZERO);
        assert_eq!(t.answers_at(ms(5)), 0);
    }

    #[test]
    fn answers_at_edge_cases() {
        // A timestamp shared by the very first answers: the probe must
        // see all of them, and anything earlier must see none.
        let mut t = AnswerTrace::new();
        t.record(ms(4));
        t.record(ms(4));
        t.record(ms(4));
        assert_eq!(t.answers_at(ms(3)), 0);
        assert_eq!(t.answers_at(Duration::ZERO), 0);
        assert_eq!(t.answers_at(ms(4)), 3);
        assert_eq!(t.answers_at(ms(4) + Duration::from_nanos(1)), 3);
        // A single-point trace behaves the same way.
        let mut one = AnswerTrace::new();
        one.record(ms(7));
        assert_eq!(one.answers_at(ms(6)), 0);
        assert_eq!(one.answers_at(ms(7)), 1);
        assert_eq!(one.answers_at(ms(8)), 1);
    }

    #[test]
    fn downsample_edge_cases() {
        // Empty traces downsample to nothing at any budget.
        let empty = AnswerTrace::new();
        assert!(empty.downsample(0).is_empty());
        assert!(empty.downsample(16).is_empty());
        let mut t = AnswerTrace::new();
        for i in 0..100 {
            t.record(ms(i));
        }
        // n == 0 disables downsampling.
        assert_eq!(t.downsample(0).len(), 100);
        // A budget at or above the trace length returns it untouched.
        assert_eq!(t.downsample(100).len(), 100);
        assert_eq!(t.downsample(1000), t.points().to_vec());
        // n == 1 keeps the first point plus the appended final point.
        assert_eq!(t.downsample(1), vec![(ms(0), 1), (ms(99), 100)]);
        // Downsampled points are a monotone subsequence of the trace.
        let d = t.downsample(7);
        assert!(d.len() <= 8);
        assert!(d.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
        assert!(d.iter().all(|p| t.points().contains(p)));
    }

    #[test]
    fn csv_precision() {
        // Microsecond precision survives the fixed 6-decimal format, and
        // the full serialization is byte-stable (the trace invariants
        // suite relies on trace exports being reproducible bytes).
        let mut t = AnswerTrace::new();
        t.record(Duration::from_nanos(1)); // below the printed precision
        t.record(Duration::from_micros(1));
        t.record(Duration::from_millis(1) + Duration::from_micros(234));
        t.record(Duration::from_secs(3600));
        assert_eq!(
            t.to_csv(),
            "time_s,answers\n0.000000,1\n0.000001,2\n0.001234,3\n3600.000000,4\n"
        );
        assert_eq!(AnswerTrace::new().to_csv(), "time_s,answers\n");
    }

    #[test]
    fn downsample_preserves_envelope() {
        // Downsampling keeps the first and last points, so the plotted
        // curve starts and ends exactly where the real trace does — and
        // every kept point still reports the true cumulative count.
        let mut t = AnswerTrace::new();
        for i in 0..357 {
            t.record(ms(2 * i + 1));
        }
        for n in [1, 2, 3, 10, 356] {
            let d = t.downsample(n);
            assert!(d.len() <= n + 1, "budget {n} produced {} points", d.len());
            assert_eq!(d.first(), t.points().first(), "budget {n} moved the start");
            assert_eq!(d.last(), t.points().last(), "budget {n} lost the end");
            for &(time, count) in &d {
                assert_eq!(count, t.answers_at(time), "budget {n} broke a point");
            }
        }
    }

    #[test]
    fn downsample_keeps_last() {
        let mut t = AnswerTrace::new();
        for i in 0..1000 {
            t.record(ms(i));
        }
        let d = t.downsample(10);
        assert!(d.len() <= 11);
        assert_eq!(d.last(), Some(&(ms(999), 1000)));
        // Untouched when already small.
        let mut small = AnswerTrace::new();
        small.record(ms(1));
        assert_eq!(small.downsample(10).len(), 1);
    }
}
