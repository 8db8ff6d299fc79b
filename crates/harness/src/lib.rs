#![warn(missing_docs)]

//! Experiment harness for the ElasticRMI reproduction (paper §5).
//!
//! Connects the substrates into the paper's evaluation: the four
//! [`Deployment`] scenarios (§5.4), the [`run_experiment`] runner producing
//! SPEC agility and provisioning-interval reports (§5.5–5.6), the figure
//! renderers regenerating Fig. 7a–7j and Fig. 8a/8b, and the summary grid
//! behind the prose statistics of §5.5.
//!
//! The control loop under test is the *real* middleware: every scenario
//! and every figure runs the production pool runtime
//! ([`elasticrmi::PoolRuntime`]) with production `PoolConfig`s on a virtual
//! clock. The figures' members are fluid (a `FluidPool`, `fluid.rs`): they
//! answer the runtime's load polls with utilization computed from the
//! offered rate instead of executing requests, so a 500-minute experiment
//! runs in well under a second. The scenarios run real skeletons on the
//! shared [`rig`]. See DESIGN.md for the substitution table.

pub mod churn;
pub mod deployment;
pub mod experiment;
pub mod figures;
mod fluid;
pub mod invariants;
pub mod overload;
pub mod rig;
pub mod scalability;
pub mod shard;
pub mod sockets;
pub mod summary;
pub mod telemetry;
pub mod tiered;
pub mod warmpool;

pub use churn::{run_churn, ChurnRun};
pub use deployment::Deployment;
pub use experiment::{run_experiment, ExperimentConfig, ExperimentResult};
pub use figures::{agility_results, sparkline, FigureId};
pub use invariants::{Invariants, Quiesce, Violations};
pub use overload::{render_overload, run_overload, OverloadConfig, OverloadResult};
pub use scalability::{
    render_scalability, scalability_curve, ScalabilityPoint, SharedStateProfile,
};
pub use shard::{run_sharded, ShardEnforcement, ShardScalePoint, ShardedRun};
pub use sockets::{run_socket_overload, Outcomes, SocketOverloadRun};
pub use summary::{format_summary, summary_table, SummaryRow};
pub use telemetry::{render_why_scaled, run_elastic_overload, ElasticOverloadRun};
pub use tiered::{render_tiered, run_tiered, TierCoordination, TieredResult};
pub use warmpool::{run_warmpool, WarmpoolRun, WarmpoolVariant};
