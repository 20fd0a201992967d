//! # fedlake-netsim
//!
//! Network and cost simulation for the data-lake experiments.
//!
//! The paper simulates network conditions *inside the SQL wrapper*: each
//! retrieval of the next answer from a source is delayed by a sample from a
//! gamma distribution (`numpy.random.gamma` + `time.sleep`). This crate
//! reproduces that design with two improvements needed for a reproducible
//! benchmark harness:
//!
//! * a virtual [`clock::Clock`]: delays are accounted in simulated time,
//!   so runs are deterministic and fast (the paper sleeps);
//! * a [`gamma`] sampler (Marsaglia–Tsang) built directly on `rand`, with
//!   the three gamma profiles of §3 predefined in [`profile`];
//! * an explicit [`cost::CostModel`] that converts the relational engine's
//!   work counters and the federated engine's operator counters into
//!   simulated time — making the "engine-level string filters are faster
//!   than RDB filters" observation an explicit, tunable assumption.

pub mod clock;
pub mod cost;
pub mod fault;
pub mod gamma;
pub mod link;
pub mod obs;
pub mod profile;
pub mod sched;

pub use clock::{Clock, SharedClock};
pub use cost::CostModel;
pub use fault::{FaultPlan, FaultPlans, LinkFault, OutageGroup};
pub use gamma::GammaSampler;
pub use link::Link;
pub use obs::NetObserver;
pub use profile::{DelayModel, DelaySampler, NetworkProfile};
pub use sched::{EventQueue, EventTime};
