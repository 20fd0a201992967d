//! # fedlake-netsim
//!
//! Network and cost simulation for the data-lake experiments.
//!
//! The paper simulates network conditions *inside the SQL wrapper*: each
//! retrieval of the next answer from a source is delayed by a sample from a
//! gamma distribution (`numpy.random.gamma` + `time.sleep`). This crate
//! reproduces that design with three improvements needed for a reproducible
//! benchmark harness:
//!
//! * a virtual [`clock::Clock`]: delays are accounted in simulated time,
//!   so runs are deterministic and fast (the paper sleeps);
//! * a [`gamma`] sampler (Marsaglia–Tsang) built on `fedlake-prng`'s
//!   seeded splitmix64 stream, with the three gamma profiles of §3
//!   predefined in [`profile`];
//! * an explicit [`cost::CostModel`] that converts the relational engine's
//!   work counters and the federated engine's operator counters into
//!   simulated time — making the "engine-level string filters are faster
//!   than RDB filters" observation an explicit, tunable assumption.
//!
//! A fault-free link's delays are a pure function of its seed and delay
//! model, so an engine memoizes them in [`tape::DelayTapes`] and its links
//! read them back instead of drawing them again.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod clock;
pub mod cost;
pub mod fault;
pub mod gamma;
pub mod link;
pub mod obs;
pub mod profile;
pub mod sched;
pub mod tape;

pub use clock::{Clock, SharedClock};
pub use cost::CostModel;
pub use fault::{FaultPlan, FaultPlans, LinkFault, OutageGroup};
pub use gamma::GammaSampler;
pub use link::Link;
pub use obs::NetObserver;
pub use profile::{DelayModel, DelaySampler, NetworkProfile};
pub use sched::{EventQueue, EventTime};
pub use tape::{DelayTape, DelayTapes, TapeStats};

// `parking_lot` is only linked by crates that already depend on it; keep
// netsim dependency-light with a std shim exposing the same call shape.
mod parking_lot_shim {
    /// `std::sync::Mutex` with `parking_lot`-style (non-poisoning) `lock()`.
    #[derive(Debug, Default)]
    pub struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        pub(crate) fn new(v: T) -> Self {
            Mutex(std::sync::Mutex::new(v))
        }

        pub(crate) fn lock(&self) -> std::sync::MutexGuard<'_, T> {
            self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
        }
    }
}
