#![warn(missing_docs)]

//! Discrete-event simulation substrate for the ElasticRMI reproduction.
//!
//! The paper's evaluation runs each experiment for 450–500 *minutes* of wall
//! clock. This crate provides the pieces that let the same elasticity logic
//! run in virtual time instead: a monotonic [`SimTime`] timestamp, a
//! [`Clock`] abstraction implemented both by the [`VirtualClock`] used in
//! experiments and by the [`SystemClock`] used by the threaded runtime,
//! [`TimeSeries`] for the recorded curves, and deterministic RNG helpers so
//! every experiment is reproducible from a seed. What happens when is the
//! production code's own business: the cluster manager books when each
//! grant becomes ready, and the harness steps the pool runtime at those
//! instants.
//!
//! # Example
//!
//! ```
//! use erm_sim::{Clock, SimDuration, SimTime, VirtualClock};
//!
//! let clock = VirtualClock::new();
//! let ready_at = clock.now() + SimDuration::from_secs(30);
//! clock.advance_to(ready_at);
//! assert_eq!(clock.now(), SimTime::from_secs(30));
//! ```

mod clock;
mod rng;
mod series;
mod time;

pub use clock::{Clock, SharedClock, SystemClock, VirtualClock};
pub use rng::{derive_seed, seeded_rng};
pub use series::TimeSeries;
pub use time::{SimDuration, SimTime};
