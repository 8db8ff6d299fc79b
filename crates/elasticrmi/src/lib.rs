#![warn(missing_docs)]

//! # ElasticRMI — elastic remote methods in Rust
//!
//! A reproduction of *Elastic Remote Methods* (K. R. Jayaram,
//! MIDDLEWARE 2013): remote method invocation against an **elastic object
//! pool** that grows and shrinks with its workload while clients keep
//! talking to what looks like a single remote object.
//!
//! ## The model
//!
//! * An **elastic class** is a type implementing [`ElasticService`]. The
//!   runtime instantiates it into a *pool* of objects, one per cluster slice
//!   (JVM-per-Mesos-slice in the paper), each behind a [`Skeleton`].
//! * Clients hold a [`Stub`]: a proxy for the *whole pool*. Invocations are
//!   unicast — the stub picks one member (round-robin or random), retries on
//!   failure/redirect, and only surfaces an error when the entire pool is
//!   unreachable.
//! * Shared instance/static fields live in an external strongly consistent
//!   store, accessed through [`ServiceContext::shared`];
//!   `synchronized` methods become [`ServiceContext::synchronized`].
//! * Every burst interval the runtime aggregates member load into a
//!   [`PoolSample`] and asks the [`ScalingEngine`] for a decision; policies
//!   are implicit CPU thresholds, explicit coarse-grained CPU/RAM
//!   thresholds, fine-grained `changePoolSize` votes, or an application
//!   level [`Decider`].
//! * The lowest-uid member is the **sentinel** — the pool's contact point
//!   and server-side load balancer (first-fit bin packing of pending
//!   invocations). Sentinel failure triggers re-election by lowest uid.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use elasticrmi::{
//!     ClientLb, ElasticPool, ElasticService, PoolConfig, PoolDeps, RemoteError,
//!     ServiceContext,
//! };
//! use erm_cluster::{ClusterConfig, ClusterHandle, LatencyModel, ResourceManager};
//! use erm_kvstore::{Store, StoreConfig};
//! use erm_sim::SystemClock;
//! use erm_transport::InProcNetwork;
//!
//! struct Counter;
//! impl ElasticService for Counter {
//!     fn dispatch(
//!         &mut self,
//!         method: &str,
//!         _args: &[u8],
//!         ctx: &mut ServiceContext,
//!     ) -> Result<Vec<u8>, RemoteError> {
//!         match method {
//!             "increment" => {
//!                 let n = ctx.shared::<u64>("count").update(|| 0, |n| { *n += 1; *n });
//!                 elasticrmi::encode_result(&n)
//!             }
//!             other => Err(RemoteError::no_such_method(other)),
//!         }
//!     }
//! }
//!
//! let deps = PoolDeps {
//!     cluster: ClusterHandle::new(ResourceManager::new(ClusterConfig {
//!         provisioning: LatencyModel::instant(),
//!         ..ClusterConfig::default()
//!     })),
//!     net: Arc::new(InProcNetwork::new()),
//!     store: Arc::new(Store::new(StoreConfig::default())),
//!     clock: Arc::new(SystemClock::new()),
//!     trace: erm_metrics::TraceHandle::disabled(),
//!     metrics: erm_metrics::MetricsHandle::disabled(),
//! };
//! let config = PoolConfig::builder("Counter").build()?;
//! let mut pool = ElasticPool::instantiate(config, Arc::new(|| Box::new(Counter)), deps, None)?;
//! let mut stub = pool.stub(ClientLb::RoundRobin)?;
//! let n: u64 = stub.invoke("increment", &())?;
//! assert_eq!(n, 1);
//! pool.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Crate map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`api`] | §3.1 | [`ElasticService`], [`ServiceContext`], [`MethodCallStats`] |
//! | [`config`] | §3.2–3.3 | [`PoolConfig`], [`ScalingPolicy`], [`Thresholds`] |
//! | [`scaling`] | §2.5, §3 | [`ScalingEngine`], [`PoolSample`], [`ScalingDecision`] |
//! | [`state`] | §4.1 | [`SharedField`], `synchronized`, `C1$x` key mangling |
//! | [`balance`] | §4.3 | first-fit bin-packing redirect planner |
//! | [`shard`] | — | consistent-hash ring + key extractors (wire v5) |
//! | [`stub`] / [`skeleton`] | §2.3, §4.3 | client proxy with failover; server dispatch with drain |
//! | [`pool`] | §2.4–2.5, §4.4 | runtime, sentinel election, provisioning, shutdown |
//! | [`message`] | — | the wire protocol |

pub mod api;
pub mod balance;
pub mod config;
pub mod error;
pub mod message;
pub mod pool;
pub mod registry;
pub mod scaling;
pub mod shard;
pub mod skeleton;
pub mod state;
pub mod stub;

pub use api::{decode_args, encode_result, ElasticService, MethodCallStats, ServiceContext};
pub use config::{ConfigError, PoolConfig, PoolConfigBuilder, ScalingPolicy, Thresholds};
pub use erm_admission::{AdmissionConfig, AdmissionStats, AimdConfig, AimdLimiter, Discipline};
pub use erm_semantics::{DedupStats, ReplyCache, ReplyCacheConfig, Semantics, SemanticsTable};
pub use error::{PoolError, RemoteError, RmiError};
pub use message::{InvocationContext, LoadReport, MemberState, MethodStat, RmiMessage};
pub use pool::{
    Decider, ElasticPool, Launch, PoolDeps, PoolHandle, PoolRuntime, PoolStats, ServiceFactory,
};
pub use registry::{RegistryClient, RegistryServer};
pub use scaling::{DecisionExplanation, PoolSample, ScalingDecision, ScalingEngine};
pub use shard::{hash_bytes, KeyExtractor, ShardRing, ShardingTable};
pub use skeleton::Skeleton;
pub use state::{field_key, SharedField};
pub use stub::{ClientLb, Stub, StubStats};
