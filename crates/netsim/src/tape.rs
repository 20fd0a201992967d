//! Delay tapes: the delays a fault-free link draws, drawn once.
//!
//! A link under [`crate::FaultPlan::NONE`] makes exactly one draw per
//! message — the delay — from its own seeded stream, so its k-th delay is
//! a pure function of (link seed, delay model, k). A [`DelayTape`] holds
//! those delays in draw order and is extended on demand; every link opened
//! with the same seed and model reads the same tape, each by its own draw
//! counter. Which message takes draw k is still decided by the link's
//! callers, exactly as before, so no simulated number moves — the tape only
//! spares a warm engine recomputing the same gamma draws on every run.
//!
//! A link with an active fault plan never reads a tape: its delays
//! interleave with its fault draws on one stream.

use crate::parking_lot_shim::Mutex;
use crate::profile::{DelayModel, DelaySampler};
use fedlake_prng::Prng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// The most entries a tape reserves at once. A tape grows by a quarter of
/// its length, at least 64 entries and at most this many — not by
/// doubling — so its slack stays under a quarter of it and under 16 KiB.
const GROWTH_STEP: usize = 4096;

/// The delays of one (seed, gamma model) stream, in draw order.
pub struct DelayTape {
    delay: DelaySampler,
    state: Mutex<Tape>,
}

struct Tape {
    /// Delays in nanoseconds: 4 B per draw. A draw of 2³² ns (4.29 s) or
    /// more does not fit and seals the tape instead.
    ns: Vec<u32>,
    /// The stream's state after the last entry.
    rng: Prng,
    /// A draw did not fit: nothing more is appended, and a reader past the
    /// end continues live from `rng`, so no delay is ever rounded.
    sealed: bool,
}

impl Tape {
    /// Draws the next delay onto the tape, or seals it.
    fn extend(&mut self, delay: &DelaySampler) {
        if self.ns.len() == self.ns.capacity() {
            self.ns.reserve_exact((self.ns.len() / 4).clamp(64, GROWTH_STEP));
        }
        let mut rng = self.rng.clone();
        match u32::try_from(delay.sample(&mut rng).as_nanos()) {
            Ok(ns) => {
                self.ns.push(ns);
                self.rng = rng;
            }
            Err(_) => self.sealed = true,
        }
    }
}

impl DelayTape {
    fn new(seed: u64, delay: DelaySampler) -> Self {
        DelayTape {
            delay,
            state: Mutex::new(Tape {
                ns: Vec::new(),
                rng: Prng::seed_from_u64(seed),
                sealed: false,
            }),
        }
    }

    /// Delays drawn onto the tape so far.
    pub(crate) fn draws(&self) -> usize {
        self.state.lock().ns.len()
    }

    /// True once a draw did not fit in 32 bits of nanoseconds.
    #[cfg(test)]
    pub(crate) fn is_sealed(&self) -> bool {
        self.state.lock().sealed
    }
}

/// The most entries a reader copies out of its tape under one lock.
pub(crate) const WINDOW: usize = 32;

/// One link's place on its tape: the delays it takes, in order, from the
/// first. What the tape already holds is copied out up to [`WINDOW`]
/// entries at a time, so a warm link takes the tape's lock once per
/// window, not once per message. A reader that needs an entry not drawn
/// yet draws a whole window onto the tape first, so a cold link also
/// locks once per window; a tape holds at most `WINDOW - 1` delays no
/// link has taken.
pub(crate) struct TapeReader {
    tape: Arc<DelayTape>,
    /// The tape index of `window[len]`: the first entry not copied out.
    next: usize,
    window: [u32; WINDOW],
    /// `window[pos..len]` are the reader's next delays.
    pos: usize,
    len: usize,
    /// Read past the end of a sealed tape: every further delay is drawn
    /// live.
    live: bool,
}

impl TapeReader {
    pub(crate) fn new(tape: Arc<DelayTape>) -> Self {
        TapeReader { tape, next: 0, window: [0; WINDOW], pos: 0, len: 0, live: false }
    }

    /// The reader's next delay. `live` is the link's own stream, seeded
    /// like the tape's: past the end of a sealed tape it takes the tape's
    /// state and the delay is drawn from it.
    #[inline]
    pub(crate) fn next_delay(&mut self, live: &mut Prng) -> Duration {
        if self.pos == self.len && !self.live {
            self.refill(live);
        }
        if self.live {
            return self.tape.delay.sample(live);
        }
        let ns = self.window[self.pos];
        self.pos += 1;
        Duration::from_nanos(u64::from(ns))
    }

    fn refill(&mut self, live: &mut Prng) {
        let mut tape = self.tape.state.lock();
        if tape.ns.len() <= self.next {
            while tape.ns.len() < self.next + WINDOW && !tape.sealed {
                tape.extend(&self.tape.delay);
            }
        }
        let held = tape.ns.get(self.next..).unwrap_or_default();
        if held.is_empty() {
            // Sealed at `next`: the tape's state is the stream's there.
            *live = tape.rng.clone();
            self.live = true;
            return;
        }
        let n = held.len().min(WINDOW);
        self.window[..n].copy_from_slice(&held[..n]);
        (self.pos, self.len) = (0, n);
        self.next += n;
    }
}

impl std::fmt::Debug for TapeReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TapeReader")
            .field("taken", &(self.next - (self.len - self.pos)))
            .field("live", &self.live)
            .finish()
    }
}

impl std::fmt::Debug for DelayTape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tape = self.state.lock();
        f.debug_struct("DelayTape")
            .field("delay", &self.delay)
            .field("draws", &tape.ns.len())
            .field("sealed", &tape.sealed)
            .finish()
    }
}

/// What an engine's tapes hold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TapeStats {
    /// Tapes opened: one per (link seed, gamma model) a link asked for.
    pub tapes: usize,
    /// Delays drawn onto them, summed.
    pub draws: u64,
}

/// One engine's tapes, by (link seed, α bits, β bits) — never by seed
/// alone, since two models on one seed are two streams of delays.
#[derive(Debug, Default)]
pub struct DelayTapes {
    tapes: Mutex<HashMap<(u64, u64, u64), Arc<DelayTape>>>,
}

impl DelayTapes {
    /// The tape of a link seeded with `seed` under `model`, opened on first
    /// ask; `None` for a model that draws nothing (no delay, a constant).
    pub fn tape(&self, seed: u64, model: DelayModel) -> Option<Arc<DelayTape>> {
        let DelayModel::Gamma { alpha, beta_ms } = model else {
            return None;
        };
        let key = (seed, alpha.to_bits(), beta_ms.to_bits());
        let mut tapes = self.tapes.lock();
        let tape =
            tapes.entry(key).or_insert_with(|| Arc::new(DelayTape::new(seed, model.sampler())));
        Some(Arc::clone(tape))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TapeStats {
        let tapes = self.tapes.lock();
        TapeStats { tapes: tapes.len(), draws: tapes.values().map(|t| t.draws() as u64).sum() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::NetworkProfile;

    /// `n` delays through a fresh reader of `tape`, with the stream a link
    /// seeded with `seed` would bring.
    fn read(tape: &Arc<DelayTape>, seed: u64, n: usize) -> Vec<Duration> {
        let mut reader = TapeReader::new(Arc::clone(tape));
        let mut live = Prng::seed_from_u64(seed);
        (0..n).map(|_| reader.next_delay(&mut live)).collect()
    }

    #[test]
    fn a_tape_replays_the_stream_it_was_drawn_from() {
        let tapes = DelayTapes::default();
        let tape = tapes.tape(0x5eedcafe, NetworkProfile::GAMMA2.delay).unwrap();
        let sampler = NetworkProfile::GAMMA2.delay.sampler();
        let mut rng = Prng::seed_from_u64(0x5eedcafe);
        let want: Vec<Duration> = (0..300).map(|_| sampler.sample(&mut rng)).collect();
        // The first reader draws a window at a time; the next one reads
        // those back and draws the rest.
        assert_eq!(read(&tape, 0x5eedcafe, 45), want[..45]);
        assert_eq!(tapes.stats(), TapeStats { tapes: 1, draws: 2 * WINDOW as u64 });
        assert_eq!(read(&tape, 0x5eedcafe, 300), want);
        assert_eq!(
            tapes.stats(),
            TapeStats { tapes: 1, draws: 300_u64.next_multiple_of(WINDOW as u64) }
        );
    }

    #[test]
    fn each_gamma_model_on_a_seed_gets_its_own_tape() {
        let tapes = DelayTapes::default();
        let g2 = tapes.tape(7, NetworkProfile::GAMMA2.delay).unwrap();
        let g3 = tapes.tape(7, NetworkProfile::GAMMA3.delay).unwrap();
        assert!(!Arc::ptr_eq(&g2, &g3), "Gamma2 and Gamma3 share α = 3 and the seed");
        assert!(Arc::ptr_eq(&g2, &tapes.tape(7, NetworkProfile::GAMMA2.delay).unwrap()));
        assert!(!Arc::ptr_eq(&g2, &tapes.tape(8, NetworkProfile::GAMMA2.delay).unwrap()));
        assert_ne!(read(&g2, 7, 1), read(&g3, 7, 1));
        assert_eq!(tapes.stats().tapes, 3);
    }

    #[test]
    fn a_model_that_draws_nothing_has_no_tape() {
        let tapes = DelayTapes::default();
        assert!(tapes.tape(7, DelayModel::None).is_none());
        assert!(tapes.tape(7, DelayModel::Constant { ms: 2.0 }).is_none());
        assert_eq!(tapes.stats(), TapeStats::default());
    }

    #[test]
    fn growth_is_stepped_not_doubled() {
        let tape = Arc::new(DelayTape::new(3, NetworkProfile::GAMMA1.delay.sampler()));
        for len in [40, 300, 3 * GROWTH_STEP + 10, 6 * GROWTH_STEP] {
            read(&tape, 3, len);
            let t = tape.state.lock();
            let slack = t.ns.capacity() - t.ns.len();
            assert!(slack <= (len / 4).clamp(64, GROWTH_STEP), "{len} entries, slack {slack}");
        }
    }
}
