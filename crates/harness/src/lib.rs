#![warn(missing_docs)]

//! Experiment harness for the ElasticRMI reproduction (paper §5).
//!
//! Connects the substrates into the paper's evaluation: the four
//! [`Deployment`] scenarios (§5.4), the fluid-time [`run_experiment`] runner
//! producing SPEC agility and provisioning-interval reports (§5.5–5.6), the
//! figure renderers regenerating Fig. 7a–7j and Fig. 8a/8b, and the summary
//! grid behind the prose statistics of §5.5.
//!
//! The control logic under test is the *real* middleware
//! ([`elasticrmi::ScalingEngine`] with production `PoolConfig`s); only the
//! request execution is fluid-modelled so a 500-minute experiment runs in
//! milliseconds. See DESIGN.md for the substitution table.

pub mod churn;
pub mod deployment;
pub mod experiment;
pub mod figures;
pub mod invariants;
pub mod openloop;
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
pub use openloop::{
    format_open_loop, open_loop_json, run_open_loop, run_open_loop_grid, OpenLoopConfig,
    OpenLoopGrid, OpenLoopPoint, OPEN_LOOP_MEMBER_COUNTS, OPEN_LOOP_SERVICE,
};
pub use overload::{render_overload, run_overload, OverloadConfig, OverloadResult};
pub use scalability::{
    render_scalability, scalability_curve, ScalabilityPoint, SharedStateProfile,
};
pub use shard::{run_sharded, ShardEnforcement, ShardScalePoint, ShardedRun};
pub use sockets::{run_socket_overload, Outcomes, SocketOverloadRun, TransportKind};
pub use summary::{format_summary, summary_table, SummaryRow};
pub use telemetry::{render_why_scaled, run_elastic_overload, ElasticOverloadRun};
pub use tiered::{render_tiered, run_tiered, TierCoordination, TieredResult};
pub use warmpool::{run_warmpool, WarmpoolRun, WarmpoolVariant};
