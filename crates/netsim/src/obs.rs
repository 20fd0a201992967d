//! Observation hooks for the simulated network.
//!
//! The recorder lives in `fedlake-core` (which depends on this crate), so
//! netsim cannot name it directly. Instead it exposes a minimal observer
//! trait: a [`Link`](crate::Link) or
//! [`EventQueue`](crate::EventQueue) carrying an observer reports every
//! transfer attempt (serialized *and* scheduled) and every queue-depth
//! change to it. Observers are strictly passive — they are handed times
//! that the link already computed, they never draw from the link's RNG,
//! never advance any clock, and never influence an outcome — so attaching
//! one cannot perturb a run. When no observer is attached the hooks cost
//! one `Option` check.

use crate::fault::LinkFault;
use std::time::Duration;

/// A passive observer of simulated network activity.
///
/// `start`/`end` are absolute virtual times on the timeline the reporting
/// component uses: the shared clock for serialized transfers, the link's
/// private timeline for scheduled ones. A faulted attempt reports the
/// fault it suffered; `end == start` when the fault consumed no link time
/// (drops, outages).
pub trait NetObserver: std::fmt::Debug + Send + Sync {
    /// One message transfer attempt on the link labelled `link` carrying
    /// `rows` rows, occupying `[start, end]`, with its outcome.
    fn on_transfer(
        &self,
        link: &str,
        rows: usize,
        start: Duration,
        end: Duration,
        fault: Option<LinkFault>,
    );

    /// The event queue's pending-event count changed to `depth`.
    fn on_queue_depth(&self, depth: usize) {
        let _ = depth;
    }
}
