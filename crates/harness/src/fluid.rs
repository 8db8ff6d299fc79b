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
    /// What `answer` dropped: each message's member uid and payload.
    #[cfg(test)]
    dropped: Vec<(u64, Vec<u8>)>,
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
            #[cfg(test)]
            dropped: Vec::new(),
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
    /// other message (the view broadcasts) undecoded. A member holds no
    /// view, so its report names the one the pool published: it is never
    /// behind. Then steps again at `now`, so a poll answered now is decided
    /// now.
    pub(crate) fn answer(&mut self, now: SimTime, report: impl Fn(u64) -> LoadReport) {
        let (poll, drain) = (RmiMessage::PollLoad.encode(), RmiMessage::Shutdown.encode());
        let epoch = self.handle.stats().epoch;
        self.members.retain(|&uid, mailbox| {
            let mut serving = true;
            while let Ok(d) = mailbox.try_recv() {
                let reply = if d.payload == poll {
                    RmiMessage::Load(LoadReport {
                        epoch,
                        ..report(uid)
                    })
                } else if d.payload == drain {
                    serving = false;
                    RmiMessage::ShutdownReady { uid }
                } else {
                    #[cfg(test)]
                    self.dropped.push((uid, d.payload));
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

#[cfg(test)]
mod tests {
    use super::*;
    use erm_cluster::{ClusterConfig, LatencyModel, ResourceManager};
    use erm_sim::SimDuration;

    #[test]
    fn a_fluid_member_is_sent_a_view_only_when_it_changes() {
        // A pool that grows (by promotion and by grant), shrinks and shuts
        // down. Every message its members drop is a view. A member gets the
        // view it already holds again only in a broadcast for a join (a
        // standby's changes no view) or a drain ack. Any other re-sent view
        // would be either a timer's or the repair of a report that looked
        // behind.
        let cluster = ClusterHandle::new(ResourceManager::new(ClusterConfig {
            nodes: 6,
            slices_per_node: 1,
            provisioning: LatencyModel::Fixed(SimDuration::from_secs(15)),
            ..ClusterConfig::default()
        }));
        let config = PoolConfig::builder("Fluid")
            .min_pool_size(2)
            .max_pool_size(5)
            .warm_standby(1)
            .burst_interval(SimDuration::from_secs(10))
            .build()
            .unwrap();
        let clock = Arc::new(VirtualClock::new());
        let net = InProcNetwork::new();
        let trace = TraceHandle::disabled();
        let mut pool = FluidPool::start(config, &cluster, &clock, &net, &trace, None);
        let (mut held, mut events) = (BTreeMap::<u64, u64>::new(), 0);
        let (mut views, mut repeats) = (0, 0);
        let mut turn = |pool: &mut FluidPool, at: SimTime, busy: f32| {
            let before: Vec<u64> = pool.members.keys().copied().collect();
            pool.answer(at, |uid| load(uid, busy, None));
            let mut got = BTreeMap::<u64, u64>::new();
            for (uid, payload) in std::mem::take(&mut pool.dropped) {
                let Ok(RmiMessage::StateBroadcast { epoch, .. }) = RmiMessage::decode(&payload)
                else {
                    panic!("member {uid} was sent something other than a view");
                };
                let last = held.insert(uid, epoch);
                assert!(
                    last <= Some(epoch),
                    "member {uid} sent epoch {epoch} after {last:?}"
                );
                if last == Some(epoch) {
                    *got.entry(uid).or_default() += 1;
                }
                views += 1;
            }
            // The views dropped now were sent by the previous turn's step,
            // which applied the acks that turn's answer sent and brought up
            // that turn's joins.
            for (uid, n) in got {
                assert!(n <= events, "member {uid} re-sent epoch {:?}", held[&uid]);
                repeats += n;
            }
            let acked = before.iter().filter(|u| !pool.members.contains_key(u));
            let joined = pool.members.keys().filter(|u| !before.contains(u));
            events = (acked.count() + joined.count()) as u64;
        };
        for s in 0..240 {
            let busy = if s < 100 { 95.0 } else { 10.0 };
            turn(&mut pool, SimTime::from_secs(s), busy);
        }
        pool.handle.shutdown();
        while let Some(at) = pool.due {
            turn(&mut pool, at, 0.0);
        }
        let stats = pool.handle.stats();
        assert!(stats.promoted > 0 && stats.grown > stats.promoted && stats.shrunk > 0);
        assert!(views > 0, "the views were counted");
        assert!(repeats > 0, "joins and drain acks re-send the view");
    }
}
