//! The host-speed reference: a fixed kernel, timed between the rounds of a
//! workload, whose slowdown against its nominal time divides every host
//! timing of that round.
//!
//! Why: the sandbox is a small VM whose speed drifts by ±25 % over minutes
//! (a dependent-ALU loop keeps its pace throughout while allocation- and
//! hash-heavy code slows down, so it is contention for the core, not clock
//! rate). Sizing runs: the round time of `paper_matrix`, in 20-second
//! buckets over ten minutes, had an interquartile spread of 25 % raw and of
//! 5–7 % once divided by a kernel of this shape measured alongside; three
//! other kernels (ALU only, pointer chasing, hashing only) tracked it worse.
//! Without this no bound the contract allows would hold between two sets of
//! runs of the same code.
//!
//! The kernel is std only and does in miniature what a query does: mint
//! IRI-like strings, intern them in a hash map, build rows of ids, index and
//! probe them like a hash join, sort the distinct keys.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// One [`kernel`] call on the sandbox in its quiet state, in µs. Only a
/// scale: it makes normalised timings read like the quiet machine's
/// wall-clock. Frozen — changing it rescales every host metric.
pub const NOMINAL_US: f64 = 1000.0;

const ROWS: usize = 3000;

pub fn kernel() -> usize {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut dict: HashMap<String, u32> = HashMap::new();
    let mut rows: Vec<Vec<u32>> = Vec::with_capacity(ROWS);
    for i in 0..ROWS {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let key = format!("http://example.org/entity/{}", state % (ROWS as u64 / 2));
        let next = dict.len() as u32;
        let id = *dict.entry(key).or_insert(next);
        rows.push(vec![id, i as u32, (state >> 32) as u32]);
    }
    let mut index: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, row) in rows.iter().enumerate() {
        index.entry(row[0]).or_default().push(i);
    }
    let matches: usize = rows.iter().filter_map(|row| index.get(&row[0])).map(Vec::len).sum();
    let mut keys: Vec<&String> = dict.keys().collect();
    keys.sort();
    matches + keys.len()
}

/// `n` kernel timings, in µs.
pub fn sample(n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let start = Instant::now();
            black_box(kernel());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// How much slower than nominal the host ran while `timings` were taken
/// (1.0 = nominal): their median over [`NOMINAL_US`].
pub fn slowdown(timings: &[f64]) -> f64 {
    crate::stats::median(timings) / NOMINAL_US
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_slowdown_positive() {
        assert_eq!(kernel(), kernel());
        assert!(slowdown(&sample(3)) > 0.0);
    }
}
