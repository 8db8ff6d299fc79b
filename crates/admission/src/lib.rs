#![warn(missing_docs)]

//! Admission control and overload management for elastic object pools.
//!
//! The paper's elasticity masks load balancing and provisioning from
//! clients (§4.3), but during a provisioning window (minutes, Fig. 8a) an
//! abrupt burst has nowhere to go: skeletons queue unboundedly and every
//! request eventually dies by deadline instead of being rejected early.
//! This crate provides the two halves of the standard production answer:
//!
//! * **Server side** — [`AdmissionQueue`]: a bounded per-skeleton run queue
//!   with a pluggable [`Discipline`] (FIFO or deadline-aware EDF) and
//!   expired-entry culling, so a member sheds load *early* (an explicit
//!   `Overloaded` rejection with a retry hint) instead of burning its
//!   capacity on answers nobody is waiting for.
//! * **Client side** — [`AimdLimiter`]: an additive-increase /
//!   multiplicative-decrease concurrency limiter that backs off when the
//!   pool signals overload (or deadlines expire) and re-opens on success,
//!   keeping the offered load near what the pool can actually absorb while
//!   the scaling engine provisions capacity.
//!
//! Everything here is pure data-structure code driven by explicit
//! `SimTime`/`SimDuration` values, so it is deterministic under the
//! workspace's `VirtualClock` and directly reusable by both the threaded
//! runtime and the fluid experiment harness.

mod aimd;
mod queue;

pub use aimd::{AimdConfig, AimdLimiter, AimdSnapshot};
pub use queue::{
    suggest_retry_after, AdmissionConfig, AdmissionQueue, AdmissionStats, Admitted, Discipline,
    RejectReason, Rejected,
};
