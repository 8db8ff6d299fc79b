//! The production pool runtime with fluid members, for the 450-minute
//! experiments of paper §5.5–§5.6 and the two-tier study of §3.3.
//!
//! A [`FluidPool`] runs the real [`PoolRuntime`] on a [`VirtualClock`] as a
//! cluster tenant: grants, joins, the load poll, the scaling decision, the
//! drain handshake and every release are the runtime's own. Only the
//! members are fluid: each keeps its mailbox but never runs its skeleton,
//! and [`FluidPool::answer`] replies with a load its caller computed from
//! the offered rate. Stepped on its caller's tick and at each grant's
//! ready instant, a 450-minute run takes a few thousand steps.

use std::collections::BTreeMap;
use std::sync::Arc;

use elasticrmi::{
    Decider, ElasticService, LoadReport, PoolConfig, PoolDeps, PoolHandle, PoolRuntime,
    RemoteError, RmiMessage, ServiceContext, ServiceFactory,
};
use erm_cluster::ClusterHandle;
use erm_kvstore::{Store, StoreConfig};
use erm_metrics::{MetricsHandle, TraceHandle};
use erm_sim::{Clock, SharedClock, SimTime, VirtualClock};
use erm_transport::{InProcNetwork, Mailbox, Network};

/// A [`PoolRuntime`] whose members answer with caller-computed load.
pub(crate) struct FluidPool {
    runtime: PoolRuntime,
    handle: PoolHandle,
    clock: Arc<VirtualClock>,
    net: InProcNetwork,
    /// Each launched member's mailbox, by uid, until it acked its drain.
    members: BTreeMap<u64, Mailbox>,
    /// When the runtime asked for its next turn; `None` once shut down.
    due: Option<SimTime>,
}

impl FluidPool {
    /// Starts the runtime for `config` as a new tenant of `cluster`, which
    /// it asks for the `min_pool_size` initial slices at the clock's time,
    /// with `decider` as [`PoolRuntime::start`] takes it.
    ///
    /// # Panics
    ///
    /// Panics if the master is down or the cluster has no free slice.
    pub(crate) fn start(
        config: PoolConfig,
        cluster: &ClusterHandle,
        clock: &Arc<VirtualClock>,
        net: &InProcNetwork,
        trace: &TraceHandle,
        decider: Option<Box<dyn Decider>>,
    ) -> FluidPool {
        let deps = PoolDeps {
            cluster: cluster.clone(),
            net: Arc::new(net.clone()),
            store: Arc::new(Store::new(StoreConfig::default())),
            clock: Arc::<VirtualClock>::clone(clock) as SharedClock,
            trace: trace.clone(),
            metrics: MetricsHandle::disabled(),
        };
        let factory: ServiceFactory = Arc::new(|| Box::new(Fluid));
        let runtime = PoolRuntime::start(config, factory, deps, decider).expect("the pool starts");
        FluidPool {
            handle: runtime.handle(),
            runtime,
            clock: Arc::clone(clock),
            net: net.clone(),
            members: BTreeMap::new(),
            due: Some(clock.now()),
        }
    }

    /// Members in the rotation: the published pool size.
    pub(crate) fn size(&self) -> u32 {
        self.handle.size()
    }

    /// One turn of the runtime at `now`, with the clock moved there: grants
    /// ready by then join, and a due poll goes out. Does nothing once the
    /// shutdown has completed.
    pub(crate) fn step(&mut self, now: SimTime) {
        if self.due.is_none() {
            return;
        }
        self.clock.advance_to(now);
        let (launched, due) = self.runtime.step(now);
        self.due = due;
        self.members
            .extend(launched.into_iter().map(|l| (l.uid, l.mailbox)));
    }

    /// Answers what the runtime sent the members — a `PollLoad` with
    /// `report(uid)`, a `Shutdown` with `ShutdownReady` — and drops every
    /// other message (the broadcasts) undecoded. Then steps again at `now`,
    /// so a poll answered now is decided now.
    pub(crate) fn answer(&mut self, now: SimTime, report: impl Fn(u64) -> LoadReport) {
        let (poll, drain) = (RmiMessage::PollLoad.encode(), RmiMessage::Shutdown.encode());
        self.members.retain(|&uid, mailbox| {
            let mut serving = true;
            while let Ok(d) = mailbox.try_recv() {
                let reply = if d.payload == poll {
                    RmiMessage::Load(report(uid))
                } else if d.payload == drain {
                    serving = false;
                    RmiMessage::ShutdownReady { uid }
                } else {
                    continue;
                };
                let _ = self.net.send(mailbox.id(), d.from, reply.encode());
            }
            serving
        });
        self.step(now);
    }

    /// Ends the pool through the runtime's own shutdown, from `now`: every
    /// member drains and acknowledges, and the runtime releases its slices.
    pub(crate) fn shut_down(&mut self, now: SimTime) {
        self.handle.shutdown();
        let mut at = Some(now);
        while let Some(now) = at {
            self.answer(now, |uid| load(uid, 0.0, None));
            at = self.due;
        }
    }
}

/// A fluid member's load report: `busy` percent of CPU, RAM at 0.8 × that
/// (buffers scale with in-flight work), and its `changePoolSize` vote.
pub(crate) fn load(uid: u64, busy: f32, fine_vote: Option<i32>) -> LoadReport {
    let ram = busy * 0.8;
    LoadReport {
        uid,
        busy,
        ram,
        fine_vote,
        ..LoadReport::default()
    }
}

/// What a fluid member hosts: never dispatched, as its skeleton never runs.
struct Fluid;

impl ElasticService for Fluid {
    fn dispatch(
        &mut self,
        method: &str,
        _args: &[u8],
        _ctx: &mut ServiceContext,
    ) -> Result<Vec<u8>, RemoteError> {
        Err(RemoteError::no_such_method(method))
    }
}
