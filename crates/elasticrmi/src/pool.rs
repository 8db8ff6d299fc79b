//! The elastic object pool runtime (paper §2.4–§2.5, §4).
//!
//! `ElasticPool::instantiate` plays the role of constructing an elastic
//! class in ElasticRMI: it asks the cluster manager for `min_pool_size`
//! slices (accepting `l < k` under scarcity), starts one skeleton-hosted
//! service instance per granted slice, elects the lowest-uid member
//! sentinel, and then runs the control loop that the paper's runtime system
//! performs:
//!
//! * polls every member for load each burst interval,
//! * feeds the aggregated [`PoolSample`] to the [`ScalingEngine`],
//! * grows by requesting new slices (members join as provisioning
//!   completes) and shrinks via the two-phase drain handshake,
//! * broadcasts membership (epoch, sentinel, members) to all skeletons
//!   when it changes, and re-sends it to a member whose load report shows
//!   it missed one,
//! * plans server-side rebalancing with first-fit bin packing, and
//! * detects member crashes, re-electing the sentinel by lowest uid.
//!
//! That loop is [`PoolRuntime::step`], and it has two drivers: the pool
//! thread behind [`ElasticPool`], which runs each member on its own thread,
//! and a simulated driver that steps the runtime and its members on a
//! virtual clock (the harness's `SimRig::drive_pool`).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use erm_cluster::{ClusterHandle, LeaseId, SliceGrant, SliceId, TenantId};
use erm_kvstore::{LockOwner, Store};
use erm_metrics::{Histogram, MetricsHandle, TraceEvent, TraceHandle};
use erm_semantics::SemanticsTable;
use erm_sim::{SharedClock, SimDuration, SimTime};
use erm_transport::{EndpointId, Host, Mailbox, Network};
use parking_lot::{Mutex, RwLock};

use crate::api::{ElasticService, ServiceContext};
use crate::balance::{plan_redirects, planned_total, MemberLoad};
use crate::config::{PoolConfig, ScalingPolicy};
use crate::error::PoolError;
use crate::message::{LoadReport, MemberState, RmiMessage};
use crate::scaling::{PoolSample, ScalingDecision, ScalingEngine};
use crate::shard::{hash_bytes, ShardRing, ShardingTable};
use crate::stub::{ClientLb, Stub};

/// Creates one service instance per pool member.
pub type ServiceFactory = Arc<dyn Fn() -> Box<dyn ElasticService> + Send + Sync>;

/// Application-level scaling decisions (the paper's `Decider`, §3.3): an
/// external component with a global view dictates each pool's desired size.
pub trait Decider: Send + 'static {
    /// Returns the desired pool size given the latest aggregated sample.
    fn desired_pool_size(&mut self, sample: &PoolSample) -> u32;
}

impl<F: FnMut(&PoolSample) -> u32 + Send + 'static> Decider for F {
    fn desired_pool_size(&mut self, sample: &PoolSample) -> u32 {
        self(sample)
    }
}

/// External dependencies of a pool: the cluster, the network host, the
/// shared store, the clock, and the (optional) trace sink.
#[derive(Clone)]
pub struct PoolDeps {
    /// The Mesos-like resource manager granting slices.
    pub cluster: ClusterHandle,
    /// The network to host skeleton endpoints on.
    pub net: Arc<dyn Host>,
    /// The HyperDex-like store for shared state.
    pub store: Arc<Store>,
    /// Time source (system clock in production, virtual in tests).
    pub clock: SharedClock,
    /// Trace sink for invocation and elasticity events (disabled by
    /// default; see [`erm_metrics::TraceSink`]).
    pub trace: TraceHandle,
    /// Metrics registry the pool's skeletons register their instruments on
    /// (`skeleton.queue.delay`, `skeleton.service.time`). Disabled by
    /// default; see [`erm_metrics::Registry`].
    pub metrics: MetricsHandle,
}

impl std::fmt::Debug for PoolDeps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolDeps").finish_non_exhaustive()
    }
}

/// Lifetime counters for one pool.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolStats {
    /// Members added to the rotation after initial instantiation (cold
    /// provisioning and standby promotions both count).
    pub grown: u32,
    /// Warm standbys promoted into the rotation by a route-flip.
    pub promoted: u32,
    /// Members removed by scale-in.
    pub shrunk: u32,
    /// Members lost to crashes.
    pub crashed: u32,
    /// Sentinel re-elections.
    pub elections: u32,
    /// Current membership epoch.
    pub epoch: u64,
    /// `Overloaded` rejections reported by members across all burst
    /// intervals.
    pub rejected: u64,
}

#[derive(Debug)]
struct PoolShared {
    sentinel: RwLock<EndpointId>,
    members: RwLock<Vec<EndpointId>>,
    size: Arc<AtomicU32>,
    stats: Mutex<PoolStats>,
    last_reports: Mutex<Vec<LoadReport>>,
    shutdown: AtomicBool,
    /// What [`PoolHandle::open_stub`] wires a client to: the pool's host,
    /// clock and trace, and its semantics and sharding tables.
    deps: PoolDeps,
    semantics: SemanticsTable,
    sharding: ShardingTable,
}

/// The driver-independent face of a [`PoolRuntime`]: its published view,
/// its counters and the shutdown request. Clones share one runtime.
#[derive(Debug, Clone)]
pub struct PoolHandle(Arc<PoolShared>);

impl PoolHandle {
    /// Current number of live members — the paper's `getPoolSize()`.
    pub fn size(&self) -> u32 {
        self.0.size.load(Ordering::SeqCst)
    }

    /// The sentinel's invocation endpoint: what a client needs to connect.
    pub fn sentinel(&self) -> EndpointId {
        *self.0.sentinel.read()
    }

    /// Current member endpoints.
    pub fn members(&self) -> Vec<EndpointId> {
        self.0.members.read().clone()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PoolStats {
        self.0.stats.lock().clone()
    }

    /// The load reports collected at the most recent burst interval — what
    /// the sentinel saw when it last made a scaling decision (per-member
    /// pending counts, busy/RAM utilization, fine votes, method stats).
    pub fn last_reports(&self) -> Vec<LoadReport> {
        self.0.last_reports.lock().clone()
    }

    /// Asks the runtime to shut down: sets the flag its next step reads.
    /// That step tells every member to drain; later steps finalize them as
    /// they ack or exit and release their slices, force-releasing whatever
    /// is left after 5 s of sim time. Nothing is woken: the pool thread
    /// sees the flag at its next due step ([`ElasticPool::shutdown`] wakes
    /// it at once), and a simulated driver at its next turn.
    pub fn shutdown(&self) {
        self.0.shutdown.store(true, Ordering::SeqCst);
    }

    /// Opens a client stub on this pool without waiting for its membership
    /// ([`Stub::open`]): a fresh endpoint on the pool's host, the pool's
    /// clock and trace, and the pool's declared per-method semantics (wire
    /// v4) and routing keys (wire v5), so at-most-once and keyed methods
    /// are honoured end to end with no per-caller wiring.
    ///
    /// # Errors
    ///
    /// [`crate::RmiError::SentinelUnreachable`] if the discovery request
    /// cannot be sent.
    pub fn open_stub(&self, lb: ClientLb) -> Result<Stub, crate::RmiError> {
        let deps = &self.0.deps;
        let (ep, mailbox) = deps.net.open();
        let net: Arc<dyn Network> = Arc::clone(&deps.net) as Arc<dyn Network>;
        let clock = Arc::clone(&deps.clock);
        let mut stub = Stub::open(net, ep, mailbox, self.sentinel(), lb, clock)?;
        stub.set_trace(deps.trace.clone());
        stub.set_semantics(self.0.semantics.clone());
        stub.set_sharding(self.0.sharding.clone());
        Ok(stub)
    }
}

/// Handle to a running elastic object pool: a [`PoolHandle`] (its size,
/// sentinel, members and counters) whose runtime the pool thread drives.
///
/// Dropping the handle shuts the pool down (draining members and releasing
/// their slices).
pub struct ElasticPool {
    handle: PoolHandle,
    /// The runtime's control endpoint, which the pool thread blocks on.
    ctl: EndpointId,
    driver: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ElasticPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElasticPool")
            .field("size", &self.size())
            .field("sentinel", &self.sentinel())
            .finish()
    }
}

impl ElasticPool {
    /// Instantiates the pool: requests `min_pool_size` slices, starts one
    /// member per granted slice (fewer than requested is accepted, §4.2),
    /// and launches the control loop.
    ///
    /// Returns once the pool thread has taken its first step with a
    /// non-empty view: the members are running and each already has that
    /// view's `StateBroadcast` queued, so a stub that connects now learns
    /// the whole membership from the sentinel. The wait is bounded by 30 s
    /// of the injected clock's time: under a virtual clock, provisioning
    /// fails only when the driving harness advances time past the bound,
    /// never because wall time leaked into protocol logic.
    ///
    /// `decider` supplies application-level decisions and is required
    /// exactly when the policy is [`ScalingPolicy::AppLevel`].
    ///
    /// # Errors
    ///
    /// [`PoolError::NoCapacity`] when the cluster grants no slices at all;
    /// [`PoolError::Cluster`] when the cluster master is down, or when no
    /// member came up within the bound.
    ///
    /// # Panics
    ///
    /// Panics if `decider` presence does not match the policy.
    pub fn instantiate(
        config: PoolConfig,
        factory: ServiceFactory,
        deps: PoolDeps,
        decider: Option<Box<dyn Decider>>,
    ) -> Result<ElasticPool, PoolError> {
        let provision_by = deps.clock.now() + SimDuration::from_secs(30);
        let runtime = PoolRuntime::start(config, factory, deps, decider)?;
        let (handle, ctl) = (runtime.handle(), runtime.ctl);
        let (ready, first_view) = sync_channel(1);
        let driver = std::thread::Builder::new()
            .name("elasticrmi-pool".to_string())
            .spawn(move || drive_threads(runtime, provision_by, ready))
            .expect("spawn pool runtime");

        // On an error, dropping the pool shuts the runtime down and joins
        // its thread.
        let pool = ElasticPool {
            handle,
            ctl,
            driver: Some(driver),
        };
        match first_view.recv() {
            Ok(Ok(())) => Ok(pool),
            Ok(Err(e)) => Err(e),
            Err(_) => Err(PoolError::Cluster(
                "pool runtime stopped before its first view".to_string(),
            )),
        }
    }

    /// Opens a client stub against this pool ([`PoolHandle::open_stub`])
    /// and waits for its membership, as [`Stub::connect`] does.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::RmiError::SentinelUnreachable`] if discovery
    /// fails.
    pub fn stub(&self, lb: ClientLb) -> Result<Stub, crate::RmiError> {
        let mut stub = self.handle.open_stub(lb)?;
        stub.await_members()?;
        Ok(stub)
    }

    /// Shuts the pool down: drains every member and releases all slices.
    /// Idempotent; also performed on drop.
    pub fn shutdown(&mut self) {
        self.handle.shutdown();
        if let Some(driver) = self.driver.take() {
            // Wake the pool thread, so the drain starts now rather than at
            // its next due step. The runtime ignores the datagram itself.
            let net = &self.handle.0.deps.net;
            let _ = net.send(self.ctl, self.ctl, RmiMessage::Shutdown.encode());
            let _ = driver.join();
        }
    }
}

impl std::ops::Deref for ElasticPool {
    type Target = PoolHandle;

    fn deref(&self) -> &PoolHandle {
        &self.handle
    }
}

impl Drop for ElasticPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The pool thread: steps the runtime, runs each launched member on a
/// thread of its own, and reports the threads that end. Between steps it
/// blocks on the control mailbox until the step's next due time; a
/// datagram that lands earlier (a member's `Load` report or drain ack,
/// or [`ElasticPool::shutdown`]'s wake-up) is applied at once and the
/// runtime steps again. Member exits, grants and revocations are seen at
/// the next step.
///
/// `ready` hears exactly once: `Ok` after the first step that published,
/// and so broadcast, a non-empty view, or an error if none did by
/// `provision_by`.
fn drive_threads(
    mut runtime: PoolRuntime,
    provision_by: SimTime,
    ready: SyncSender<Result<(), PoolError>>,
) {
    let clock = Arc::clone(&runtime.deps.clock);
    let mut ready = Some(ready);
    let mut threads: Vec<(u64, JoinHandle<()>)> = Vec::new();
    loop {
        for (uid, thread) in threads.extract_if(.., |(_, t)| t.is_finished()) {
            let _ = thread.join(); // a panic is an exit like any other
            runtime.member_exited(uid);
        }
        let (launched, next_due) = runtime.step(clock.now());
        for l in launched {
            let thread = std::thread::Builder::new()
                .name(format!("erm-member-{}", l.uid))
                .spawn(move || l.skeleton.run(l.mailbox))
                .expect("spawn member thread");
            threads.push((l.uid, thread));
        }
        let up = runtime.shared.size.load(Ordering::SeqCst) > 0;
        if let Some(ready) = ready.take_if(|_| up || clock.now() > provision_by) {
            let _ = ready.send(if up {
                Ok(())
            } else {
                Err(PoolError::Cluster(
                    "initial members failed to provision in time".to_string(),
                ))
            });
        }
        let Some(next_due) = next_due else {
            return; // a member stuck past the deadline finishes on its own
        };
        // A timeout is the due step. The control endpoint is closed only by
        // the last shutdown step, which returns no next step.
        let wait = Duration::from(next_due.saturating_since(clock.now()));
        if let Ok(d) = runtime.ctl_mailbox.recv_timeout(wait) {
            runtime.apply_ctl(&d.payload);
        }
    }
}

/// A member the runtime brought up, for its driver to run: the skeleton,
/// the mailbox it serves, and the slice it occupies.
pub struct Launch {
    /// The member's uid (lowest uid in rotation is the sentinel).
    pub uid: u64,
    /// The slice the member was granted.
    pub slice: SliceId,
    /// The member's event loop and hosted service.
    pub skeleton: crate::skeleton::Skeleton,
    /// The member's invocation endpoint.
    pub mailbox: Mailbox,
}

struct Member {
    endpoint: EndpointId,
    /// The cluster's lease on the member's slice, released when it goes.
    lease: LeaseId,
    draining: bool,
    /// When this member's endpoint was taken down by a slice revocation
    /// (node failure): the crash time its recovery lags count from.
    crashed_at: Option<SimTime>,
    /// Warm standby: fully provisioned and answering the load poll, but
    /// outside the LB rotation and the scaling sample until promoted by a
    /// route-flip.
    standby: bool,
}

impl Member {
    /// Whether this member serves requests: neither draining nor parked in
    /// the warm-standby tier.
    fn in_rotation(&self) -> bool {
        !self.draining && !self.standby
    }

    /// Whether this is a warm standby a grow can promote: parked outside
    /// the rotation, not draining, and not taken down by a revocation.
    fn warm(&self) -> bool {
        self.standby && !self.draining && self.crashed_at.is_none()
    }
}

/// Tracks open crash-recovery windows and records their lags (§4.4: a
/// failure should "affect the cluster only during the outage window" — these
/// histograms measure that window).
struct RecoveryTracker {
    /// `pool.recovery.reelection.lag`: sentinel crash → new sentinel elected.
    reelection_lag: Histogram,
    /// `pool.recovery.capacity.lag`: crash → live size back at the pre-crash
    /// target (clamped to `min_pool_size`, the level the scaling engine is
    /// obliged to restore).
    capacity_lag: Histogram,
    /// Earliest unrecovered crash and the live size that closes the window.
    pending_capacity: Option<(SimTime, u32)>,
}

impl RecoveryTracker {
    fn new(metrics: &MetricsHandle) -> Self {
        RecoveryTracker {
            reelection_lag: metrics.histogram("pool.recovery.reelection.lag"),
            capacity_lag: metrics.histogram("pool.recovery.capacity.lag"),
            pending_capacity: None,
        }
    }

    fn on_crash(&mut self, crashed_at: SimTime, target_live: u32) {
        match &mut self.pending_capacity {
            Some((_, target)) => *target = (*target).max(target_live),
            None => self.pending_capacity = Some((crashed_at, target_live)),
        }
    }

    fn check_capacity(&mut self, live: u32, now: SimTime) {
        if let Some((crashed_at, target)) = self.pending_capacity {
            if live >= target {
                self.capacity_lag.record(now.saturating_since(crashed_at));
                self.pending_capacity = None;
            }
        }
    }
}

/// The pool's control loop as a state machine: every grant, reap, election,
/// broadcast and scaling decision happens in [`PoolRuntime::step`]; its
/// driver runs the launched members and reports their exits.
pub struct PoolRuntime {
    config: PoolConfig,
    deps: PoolDeps,
    factory: ServiceFactory,
    decider: Option<Box<dyn Decider>>,
    shared: Arc<PoolShared>,
    ctl: EndpointId,
    ctl_mailbox: Mailbox,
    members: BTreeMap<u64, Member>,
    /// Members whose skeletons stopped running, applied at the next step.
    exited: BTreeSet<u64>,
    /// Members brought up since the last step, for the driver to run.
    launched: Vec<Launch>,
    next_uid: u64,
    epoch: u64,
    reports: BTreeMap<u64, LoadReport>,
    engine: ScalingEngine,
    /// The outstanding load poll: the sim-time deadline of its collection
    /// round, and the view epoch it was sent at. `None` when no poll is
    /// outstanding.
    collecting: Option<(SimTime, u64)>,
    /// The pool's account with the cluster: its leases, pending grants and
    /// revocations are booked there, not here.
    tenant: TenantId,
    /// Requests whose grants join the warm tier; any other joins the
    /// rotation. Cleared once none of them has a grant provisioning.
    standby_requests: BTreeSet<u64>,
    /// When the warm tier last asked the cluster for a replacement standby;
    /// unforced refills are throttled to one ask per `STANDBY_REFILL_EVERY`
    /// so a saturated cluster is not spammed with doomed requests every
    /// tick.
    standby_requested_at: Option<SimTime>,
    /// The in-rotation membership `(uid, endpoint)` seats as of the last
    /// `publish()`. `sync_view` diffs against this to bump the epoch exactly
    /// once per view change and to drive shard handoff when sharding is on.
    last_view: Vec<(u64, EndpointId)>,
    recovery: RecoveryTracker,
    /// Set once shutdown began: when leftover members are force-released.
    shutdown_deadline: Option<SimTime>,
}

/// Control-loop pacing: how often the runtime polls the cluster for grants
/// and revocations and sees its members' exits. `step` asks for its next
/// turn this far ahead; the pool thread waits that long on the control
/// mailbox, and a simulated driver steps it once its clock gets there.
const TICK: SimDuration = SimDuration::from_millis(2);
/// How long (sim time) the sentinel waits for load reports after a poll.
const COLLECT_GRACE: SimDuration = SimDuration::from_millis(100);
/// The least time between two unforced asks for a replacement standby.
const STANDBY_REFILL_EVERY: SimDuration = SimDuration::from_millis(500);

impl PoolRuntime {
    /// Builds the runtime of [`ElasticPool::instantiate`], failing and
    /// panicking as it does: asks the cluster for `min_pool_size` slices and
    /// opens the control endpoint. The members come up in later steps.
    pub fn start(
        config: PoolConfig,
        factory: ServiceFactory,
        deps: PoolDeps,
        decider: Option<Box<dyn Decider>>,
    ) -> Result<PoolRuntime, PoolError> {
        assert_eq!(
            matches!(config.policy(), ScalingPolicy::AppLevel),
            decider.is_some(),
            "a Decider must be supplied iff the policy is AppLevel"
        );
        let now = deps.clock.now();
        let tenant = deps.cluster.add_tenant();
        let outcome = deps
            .cluster
            .request_slices(tenant, config.min_pool_size(), now)
            .map_err(|e| PoolError::Cluster(e.to_string()))?;
        if outcome.granted == 0 {
            return Err(PoolError::NoCapacity);
        }
        let (ctl, ctl_mailbox) = deps.net.open();
        let shared = Arc::new(PoolShared {
            sentinel: RwLock::new(EndpointId(u64::MAX)),
            members: RwLock::new(Vec::new()),
            size: Arc::new(AtomicU32::new(0)),
            stats: Mutex::new(PoolStats::default()),
            last_reports: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            deps: deps.clone(),
            semantics: config.semantics().clone(),
            sharding: config.sharding().clone(),
        });
        Ok(PoolRuntime {
            engine: ScalingEngine::new(config.clone(), now),
            recovery: RecoveryTracker::new(&deps.metrics),
            config,
            deps,
            factory,
            decider,
            shared,
            ctl,
            ctl_mailbox,
            members: BTreeMap::new(),
            exited: BTreeSet::new(),
            launched: Vec::new(),
            next_uid: 0,
            epoch: 0,
            reports: BTreeMap::new(),
            collecting: None,
            tenant,
            standby_requests: BTreeSet::new(),
            standby_requested_at: None,
            last_view: Vec::new(),
            shutdown_deadline: None,
        })
    }

    /// The handle its driver and callers read the pool through.
    pub fn handle(&self) -> PoolHandle {
        PoolHandle(Arc::clone(&self.shared))
    }

    /// Reports that member `uid`'s skeleton stopped running. The next step
    /// applies it after draining the control mailbox: a member whose drain
    /// ack is in was finalized as drained by then, any other one crashed.
    pub fn member_exited(&mut self, uid: u64) {
        self.exited.insert(uid);
    }

    /// One turn of the control loop at `now`. Returns the members the
    /// driver must start running, and when the runtime needs its next
    /// turn — `None` once shutdown has completed.
    pub fn step(&mut self, now: SimTime) -> (Vec<Launch>, Option<SimTime>) {
        if self.shutdown_deadline.is_none() && self.shared.shutdown.load(Ordering::SeqCst) {
            let all: Vec<u64> = self.members.keys().copied().collect();
            self.drain(&all);
            // Drain deadline in sim time: under a virtual clock the pool
            // waits for its members however long the wall takes, and
            // force-reaps only once the driver lets 5 sim-seconds pass.
            self.shutdown_deadline = Some(now + SimDuration::from_secs(5));
        }
        // 1. Control messages from members.
        while let Ok(d) = self.ctl_mailbox.try_recv() {
            if let Ok(msg) = RmiMessage::decode(&d.payload) {
                self.on_ctl(msg);
            }
        }
        if let Some(deadline) = self.shutdown_deadline {
            return (Vec::new(), self.shutdown_step(now, deadline));
        }
        // 2. This pool's newly provisioned slices become members.
        let grants = self.deps.cluster.take_ready(self.tenant, now);
        let grew = !grants.is_empty();
        for grant in grants {
            self.spawn_member(grant);
        }
        // 3. Crash detection + sentinel re-election. This pool's revoked
        // leases (node failures) kill their members too.
        let revoked = self.deps.cluster.take_revocations(self.tenant);
        for m in self.members.values_mut() {
            if revoked.contains(&m.lease) {
                // Take the endpoint down; the skeleton exits on its
                // closed mailbox and reaping does the rest.
                m.crashed_at = Some(now);
                self.deps.net.close(m.endpoint);
            }
        }
        let crashed = self.reap_crashed();
        if grew || crashed {
            self.publish();
            self.broadcast();
        }
        let live = self
            .members
            .values()
            .filter(|m| m.in_rotation() && m.crashed_at.is_none())
            .count() as u32;
        self.recovery.check_capacity(live, now);
        // 4. Keep the warm tier topped up (initial fill, and refills
        // after a standby crash or promotion).
        self.replenish_standbys(now, false);
        // 5. Burst-interval scaling.
        self.scaling_step(now);
        (std::mem::take(&mut self.launched), Some(now + TICK))
    }

    /// Applies one datagram from the control mailbox, as `step`'s drain
    /// does; what is not a control message is dropped.
    fn apply_ctl(&mut self, payload: &[u8]) {
        if let Ok(msg) = RmiMessage::decode(payload) {
            self.on_ctl(msg);
        }
    }

    fn on_ctl(&mut self, msg: RmiMessage) {
        match msg {
            RmiMessage::Load(report) => {
                // Links are FIFO, so a member that answers a poll with an
                // epoch below the one polled at lost a view sent before
                // the poll. Only that member gets it again.
                let behind = self
                    .collecting
                    .is_some_and(|(_, polled)| report.epoch < polled);
                if behind {
                    if let Some(m) = self.members.get(&report.uid) {
                        let _ = self.deps.net.send(self.ctl, m.endpoint, self.view());
                    }
                }
                if report.rejected > 0 {
                    self.shared.stats.lock().rejected += u64::from(report.rejected);
                }
                self.reports.insert(report.uid, report);
            }
            RmiMessage::ShutdownReady { uid } => {
                self.finalize_member(uid, false);
                self.publish();
                self.broadcast();
            }
            _ => {}
        }
    }

    fn spawn_member(&mut self, grant: SliceGrant) {
        let uid = self.next_uid;
        self.next_uid += 1;
        let (endpoint, mailbox) = self.deps.net.open();
        let ctx = ServiceContext::new(
            Arc::clone(&self.deps.store),
            self.config.class_name(),
            uid,
            Arc::clone(&self.deps.clock),
            Arc::clone(&self.shared.size),
        );
        let net: Arc<dyn Network> = Arc::clone(&self.deps.net) as Arc<dyn Network>;
        let mut skeleton = crate::skeleton::Skeleton::new(
            uid,
            endpoint,
            self.ctl,
            net,
            Arc::clone(&self.deps.clock),
            (self.factory)(),
            ctx,
            self.deps.trace.clone(),
            self.config.admission_config(),
        );
        if let Some(reply_cache) = self.config.reply_cache_config() {
            skeleton.set_reply_cache(reply_cache);
        }
        skeleton.set_metrics(&self.deps.metrics);
        skeleton.set_sharding(self.config.sharding().clone());
        self.launched.push(Launch {
            uid,
            slice: grant.slice,
            skeleton,
            mailbox,
        });
        let standby = self.standby_requests.contains(&grant.request_id);
        self.members.insert(
            uid,
            Member {
                endpoint,
                lease: grant.lease,
                draining: false,
                crashed_at: None,
                standby,
            },
        );
        let event = if standby {
            TraceEvent::StandbyJoined { uid }
        } else {
            TraceEvent::MemberJoined { uid }
        };
        self.deps.trace.emit(self.deps.clock.now(), event);
    }

    /// Removes a member from all books; `crashed` distinguishes failure from
    /// orderly drain. Exactly-once: a member already finalized (by either
    /// path — drain ack or crash reap) is gone from `members`, so a second
    /// call is a no-op.
    fn finalize_member(&mut self, uid: u64, crashed: bool) {
        let Some(member) = self.members.remove(&uid) else {
            return;
        };
        self.deps.net.close(member.endpoint);
        let now = self.deps.clock.now();
        // A revoked lease frees nothing: its slice went back at the
        // revocation and may have been granted again since.
        let _ = self.deps.cluster.release(member.lease, now);
        self.reports.remove(&uid);
        let mut stats = self.shared.stats.lock();
        if crashed {
            // Reclaim the dead member's kv locks and fence its owner, so
            // `synchronized` methods stop stalling on a holder that will
            // never unlock (§4.4) and a stale resurrected member cannot
            // unlock what it no longer owns.
            let _ = self.deps.store.release_owner(LockOwner::new(uid), now);
            self.deps.trace.emit(now, TraceEvent::MemberCrashed { uid });
            stats.crashed += 1;
        } else if member.draining {
            self.deps.trace.emit(now, TraceEvent::MemberDrained { uid });
            stats.shrunk += 1;
        }
    }

    fn reap_crashed(&mut self) -> bool {
        // Exits are applied after the control mailbox was drained, so a
        // draining member whose ShutdownReady ack came in is gone already.
        // Anything still here died without one — a crash, draining or not
        // (a panic mid-drain, or a slice revoked under it) — and must give
        // its slice back rather than hold it forever.
        let dead: Vec<u64> = std::mem::take(&mut self.exited)
            .into_iter()
            .filter(|uid| self.members.contains_key(uid))
            .collect();
        if dead.is_empty() {
            return false;
        }
        let now = self.deps.clock.now();
        let old_sentinel = self.sentinel_uid();
        let live_before = self.members.values().filter(|m| m.in_rotation()).count() as u32;
        // Revocation-killed members carry their actual crash time; for
        // panic-killed members detection time is the best bound we have.
        let crashed_at = dead
            .iter()
            .filter_map(|uid| self.members.get(uid).and_then(|m| m.crashed_at))
            .min()
            .unwrap_or(now);
        for uid in dead {
            self.finalize_member(uid, true);
        }
        self.recovery.on_crash(
            crashed_at,
            live_before.min(self.config.min_pool_size().max(1)),
        );
        if self.sentinel_uid() != old_sentinel {
            // §4.4: sentinel failure triggers leader election; lowest uid
            // (the royal hierarchy) wins, which BTreeMap order gives us.
            self.shared.stats.lock().elections += 1;
            if let Some(uid) = self.sentinel_uid() {
                let (lag, epoch) = (now.saturating_since(crashed_at), self.epoch + 1);
                self.recovery.reelection_lag.record(lag);
                let elected = TraceEvent::SentinelElected { uid, epoch };
                self.deps.trace.emit(now, elected);
            }
        }
        // The epoch bump itself happens once, in the `publish()` that always
        // follows a reap: `self.epoch + 1` is the epoch survivors will see.
        true
    }

    fn sentinel_uid(&self) -> Option<u64> {
        self.members
            .iter()
            .find(|(_, m)| m.in_rotation())
            .map(|(&uid, _)| uid)
    }

    /// §4.2: "ElasticRMI may add additional nodes to HyperDex as necessary."
    /// One store node per eight published members keeps the modelled store
    /// capacity ahead of the pool's shared-state traffic.
    fn scale_store(&self) {
        let target = 1 + self.last_view.len() as u32 / 8;
        let current = self.deps.store.nodes();
        if current < target {
            self.deps.store.add_nodes(target - current);
        }
    }

    /// Detects in-rotation membership changes since the last `publish()`.
    /// The epoch is bumped here — exactly once per view change, no matter
    /// how many grow/shrink/crash events landed in the same tick — and,
    /// when sharding is enabled, the ring delta drives a key-range handoff
    /// before the new view becomes visible to stubs.
    fn sync_view(&mut self) {
        let view: Vec<(u64, EndpointId)> = self
            .members
            .iter()
            .filter(|(_, m)| m.in_rotation())
            .map(|(&uid, m)| (uid, m.endpoint))
            .collect();
        if view == self.last_view {
            return;
        }
        let old = std::mem::replace(&mut self.last_view, view);
        self.epoch += 1;
        // Bootstrap (empty → first members) and shutdown (members → empty)
        // reassign nothing: there is no pair of rings to move ranges
        // between, and a "handoff" would just report moved == total.
        if self.config.sharding().is_enabled() && !old.is_empty() && !self.last_view.is_empty() {
            let new = self.last_view.clone();
            self.shard_handoff(&old, &new);
        }
    }

    /// Moves ownership of exactly the key ranges whose owner changed between
    /// the old and new rings: releases kvstore locks whose name hashes out of
    /// a live member's ranges (late unlocks from the old owner are fenced),
    /// and accounts how much of the keyspace moved.
    ///
    /// A lock's key range is `hash_bytes(name)`, not the routing key of the
    /// method that takes it: a keyed method guarding key `k` under the lock
    /// `key/{k}` is owned by the ring owner of `k`, but its lock moves with
    /// the owner of `hash_bytes("key/{k}")`. The two rules disagree often:
    /// for 200 such locks at a 2 → 3 join, the routing-key rule moves 70 and
    /// this one releases 31, and they agree on only 123 of the 200. A
    /// member that wants its locks to move with its keys names them so that
    /// the name hashes into the key's range.
    fn shard_handoff(&mut self, old: &[(u64, EndpointId)], new: &[(u64, EndpointId)]) {
        let old_ring = ShardRing::from_members(old);
        let new_ring = ShardRing::from_members(new);
        let now = self.deps.clock.now();
        // Locks held by members that kept their uid but lost the key range:
        // release just those names so the new owner can acquire them. Locks
        // of *departed* members are reclaimed wholesale by the existing
        // crash path (`release_owner` fences the owner); double-releasing
        // here would be harmless but noisy, so skip uids not in `new`.
        let mut by_owner: BTreeMap<LockOwner, Vec<String>> = BTreeMap::new();
        for (name, owner) in self.deps.store.held_locks() {
            let key = hash_bytes(name.as_bytes());
            let uid = owner.id();
            let still_live = new.iter().any(|&(u, _)| u == uid);
            if still_live && old_ring.owns(uid, key) && !new_ring.owns(uid, key) {
                by_owner.entry(owner).or_default().push(name);
            }
        }
        for (owner, names) in by_owner {
            self.deps.store.release_named(&owner, &names, now);
        }
        // Conservation bookkeeping over the shared store: how many entries
        // changed ring owner. `moved <= total` always; the harness gate
        // additionally checks moved stays near K/N per single-member change.
        let keys = self.deps.store.keys_with_prefix("");
        let total = keys.len() as u64;
        let moved = keys
            .iter()
            .filter(|k| {
                let key = hash_bytes(k.as_bytes());
                old_ring.owner_uid(key) != new_ring.owner_uid(key)
            })
            .count() as u64;
        self.deps.metrics.counter("shard.handoff.moved").add(moved);
        self.deps.trace.emit(
            now,
            TraceEvent::ShardHandoff {
                epoch: self.epoch,
                moved,
                total,
            },
        );
    }

    /// Refreshes the shared snapshot read by handles and stubs. Standbys are
    /// deliberately absent: a stub must never route to a member the
    /// membership view does not advertise as serving.
    fn publish(&mut self) {
        self.sync_view();
        let live: Vec<EndpointId> = self.last_view.iter().map(|&(_, ep)| ep).collect();
        let sentinel = live.first().copied().unwrap_or(EndpointId(u64::MAX));
        self.shared.size.store(live.len() as u32, Ordering::SeqCst);
        *self.shared.members.write() = live;
        *self.shared.sentinel.write() = sentinel;
        self.shared.stats.lock().epoch = self.epoch;
        self.scale_store();
    }

    /// The published view as a `StateBroadcast`: the rotation, its
    /// sentinel and its epoch. Standbys exist to the control plane but not
    /// to routing, so they are not in it.
    fn view(&self) -> Vec<u8> {
        let seats = self.last_view.iter();
        RmiMessage::StateBroadcast {
            epoch: self.epoch,
            sentinel_uid: self.last_view.first().map_or(0, |&(uid, _)| uid),
            members: seats
                .map(|&(uid, endpoint)| MemberState { endpoint, uid })
                .collect(),
        }
        .encode()
    }

    /// Sends the view just published to *every* member, standbys included,
    /// so a standby holds a current view the instant it is promoted.
    fn broadcast(&self) {
        let (encoded, net) = (self.view(), &self.deps.net);
        for m in self.members.values() {
            let _ = net.send(self.ctl, m.endpoint, encoded.clone());
        }
    }

    fn scaling_step(&mut self, now: SimTime) {
        match self.collecting {
            None => {
                if self.engine.is_due(now) && !self.members.is_empty() {
                    // Burst boundary: poll all members — standbys included,
                    // their reply is the warm tier's heartbeat — then decide
                    // once the reports are in (or the grace period lapses).
                    self.reports.clear();
                    let poll = RmiMessage::PollLoad.encode();
                    for m in self.members.values().filter(|m| !m.draining) {
                        let _ = self.deps.net.send(self.ctl, m.endpoint, poll.clone());
                    }
                    self.collecting = Some((now + COLLECT_GRACE, self.epoch));
                }
            }
            Some((deadline, _)) => {
                let live = self.members.values().filter(|m| !m.draining).count();
                if self.reports.len() >= live || now >= deadline {
                    self.collecting = None;
                    self.decide_and_act(now);
                }
            }
        }
    }

    fn decide_and_act(&mut self, now: SimTime) {
        // Standby reports are heartbeats, not load: an idle warm member must
        // not dilute the averages the scaling rules fire on.
        let live: Vec<&LoadReport> = self
            .reports
            .iter()
            .filter(|(uid, _)| self.members.get(uid).is_some_and(Member::in_rotation))
            .map(|(_, r)| r)
            .collect();
        let pool_size = self.members.values().filter(|m| m.in_rotation()).count() as u32;
        let standbys = self.members.values().filter(|m| m.warm()).count() as u32;
        let n = live.len().max(1) as f32;
        let mut sample = PoolSample {
            pool_size,
            avg_cpu: live.iter().map(|r| r.busy).sum::<f32>() / n,
            avg_ram: live.iter().map(|r| r.ram).sum::<f32>() / n,
            fine_votes: live.iter().filter_map(|r| r.fine_vote).collect(),
            desired_size: None,
            // Queueing delay is a worst-member signal: one saturated member
            // is enough reason to grow, since bin packing can only shuffle
            // load that fits somewhere.
            queue_delay_p99: SimDuration::from_micros(
                live.iter().map(|r| r.queue_delay_p99_us).max().unwrap_or(0),
            ),
            rejected: live.iter().map(|r| r.rejected).sum(),
            standbys,
        };
        if let Some(decider) = self.decider.as_mut() {
            sample.desired_size = Some(decider.desired_pool_size(&sample));
        }
        *self.shared.last_reports.lock() = self.reports.values().cloned().collect();
        let (decision, why) = self.engine.poll_explained(now, &sample);
        // The rule explanation precedes the decision in the trace so span
        // reconstruction can pair each ScaleDecision with its cause.
        if let Some(why) = why {
            self.deps.trace.emit(
                now,
                TraceEvent::RuleFired {
                    rule: why.rule,
                    observed_milli: why.observed_milli,
                    threshold_milli: why.threshold_milli,
                },
            );
        }
        if decision != ScalingDecision::Hold {
            let delta = decision.delta();
            let decided = TraceEvent::ScaleDecision { pool_size, delta };
            self.deps.trace.emit(now, decided);
        }
        match decision {
            ScalingDecision::Grow(k) => {
                // Route-flip scale-up: promote warm standbys first — they
                // are provisioned, connected, and hold a current membership
                // view, so the broadcast below is all it takes to make them
                // capacity. Only the shortfall pays the offer → grant →
                // provision round trip.
                let promoted = self.promote_standbys(k, now);
                if promoted > 0 {
                    self.publish();
                    self.broadcast();
                }
                self.request_members(k - promoted, false, now);
                // Backfill the tier behind the flip so the next burst finds
                // warm capacity again.
                self.replenish_standbys(now, true);
            }
            ScalingDecision::Shrink(k) => {
                // Remove the youngest in-rotation members first and never
                // the sentinel; standbys are not rotation capacity, so
                // scale-in does not touch the warm tier.
                let sentinel = self.sentinel_uid();
                let victims: Vec<u64> = self
                    .members
                    .iter()
                    .rev()
                    .filter(|(uid, m)| m.in_rotation() && Some(**uid) != sentinel)
                    .take(k as usize)
                    .map(|(&uid, _)| uid)
                    .collect();
                self.drain(&victims);
                self.broadcast();
            }
            ScalingDecision::Hold => {}
        }
        // Server-side load balancing from the same reports (§4.3).
        self.rebalance();
    }

    fn rebalance(&mut self) {
        // Standbys are invisible to the balancer: they are not bins the
        // planner may pack load into until a promotion flips them live.
        let loads: Vec<MemberLoad> = self
            .members
            .iter()
            .filter(|(_, m)| m.in_rotation())
            .filter_map(|(uid, m)| {
                self.reports.get(uid).map(|r| MemberLoad {
                    endpoint: m.endpoint,
                    pending: r.pending,
                })
            })
            .collect();
        if loads.len() < 2 {
            return;
        }
        // Per-member target: the configured overload capacity when set,
        // otherwise the legacy mean-pending heuristic.
        let capacity = self.config.overload_capacity().unwrap_or_else(|| {
            let total: u32 = loads.iter().map(|l| l.pending).sum();
            total.div_ceil(loads.len() as u32)
        });
        let plan = plan_redirects(&loads, capacity.max(1));
        if self.config.sharding().is_enabled() {
            // Keyed load is pinned to its ring owner: splicing it to another
            // member would only bounce back as WrongShard redirects. The
            // plan is counted (so operators can see the pressure the ring is
            // absorbing) but never executed across shard boundaries.
            let skipped = planned_total(&plan);
            if skipped > 0 {
                let metrics = &self.deps.metrics;
                metrics.counter("balance.shard_skipped").add(skipped);
            }
            return;
        }
        for entry in plan {
            let _ = self.deps.net.send(
                self.ctl,
                entry.from,
                RmiMessage::Rebalance {
                    to: entry.to,
                    count: entry.count,
                }
                .encode(),
            );
        }
    }

    /// Promotes up to `k` warm standbys into the rotation (lowest uid first,
    /// for determinism) and returns how many flipped. The caller is
    /// responsible for publishing + broadcasting the new view.
    fn promote_standbys(&mut self, k: u32, now: SimTime) -> u32 {
        let picks: Vec<u64> = self
            .members
            .iter()
            .filter(|(_, m)| m.warm())
            .take(k as usize)
            .map(|(&uid, _)| uid)
            .collect();
        let trace = &self.deps.trace;
        for &uid in &picks {
            if let Some(m) = self.members.get_mut(&uid) {
                m.standby = false;
            }
            trace.emit(now, TraceEvent::MemberPromoted { uid });
        }
        let promoted = picks.len() as u32;
        let mut stats = self.shared.stats.lock();
        stats.grown += promoted;
        stats.promoted += promoted;
        promoted
    }

    /// Every slice this pool is answerable for: members not yet finalized,
    /// standbys included, plus grants still provisioning.
    fn slice_footprint(&self) -> u32 {
        self.members.len() as u32 + self.deps.cluster.pending_of(self.tenant, |_| true)
    }

    /// Requests `count` slices for the rotation or the warm tier. Returns
    /// how many the cluster granted.
    fn request_members(&mut self, count: u32, standby: bool, now: SimTime) -> u32 {
        if count == 0 {
            return 0;
        }
        let Ok(outcome) = self.deps.cluster.request_slices(self.tenant, count, now) else {
            return 0;
        };
        if outcome.granted == 0 {
            return 0;
        }
        if standby {
            self.standby_requests.insert(outcome.request_id);
        } else {
            self.shared.stats.lock().grown += outcome.granted;
        }
        outcome.granted
    }

    /// Tops the warm tier back up to `config.warm_standby()`, within the
    /// pool's slice budget. Unforced calls (the per-tick background refill)
    /// are throttled; `force` is used right after a promotion, where the
    /// replacement request is the second half of the route-flip.
    fn replenish_standbys(&mut self, now: SimTime, force: bool) {
        let want = self.config.warm_standby();
        if want == 0 {
            return;
        }
        let have = self.members.values().filter(|m| m.warm()).count() as u32;
        if have >= want {
            return;
        }
        let standby = &self.standby_requests;
        let inbound = self
            .deps
            .cluster
            .pending_of(self.tenant, |r| standby.contains(&r));
        if inbound == 0 {
            self.standby_requests.clear();
        }
        let deficit = want.saturating_sub(have + inbound);
        if deficit == 0 {
            return;
        }
        if !force {
            if let Some(last) = self.standby_requested_at {
                if now.saturating_since(last) < STANDBY_REFILL_EVERY {
                    return;
                }
            }
        }
        self.standby_requested_at = Some(now);
        let headroom = self
            .config
            .max_pool_size()
            .saturating_sub(self.slice_footprint());
        self.request_members(deficit.min(headroom), true, now);
    }

    /// Tells `uids` to drain (the §2.5 two-phase shutdown) and publishes
    /// the view without them.
    fn drain(&mut self, uids: &[u64]) {
        for uid in uids {
            if let Some(m) = self.members.get_mut(uid) {
                m.draining = true;
                let shutdown = RmiMessage::Shutdown.encode();
                let _ = self.deps.net.send(self.ctl, m.endpoint, shutdown);
            }
        }
        self.publish();
    }

    /// The shutdown state: acks were applied by `on_ctl`, exits are reaped,
    /// late grants go straight back, and once every member is gone (or the
    /// deadline passed) the rest is force-released.
    fn shutdown_step(&mut self, now: SimTime, deadline: SimTime) -> Option<SimTime> {
        for grant in self.deps.cluster.take_ready(self.tenant, now) {
            let _ = self.deps.cluster.release(grant.lease, now);
        }
        self.reap_crashed();
        if !self.members.is_empty() && now < deadline {
            return Some(deadline.min(now + TICK));
        }
        let leftovers: Vec<u64> = self.members.keys().copied().collect();
        for uid in leftovers {
            self.finalize_member(uid, true);
        }
        self.deps.net.close(self.ctl);
        self.publish();
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RemoteError;
    use erm_cluster::{ClusterConfig, LatencyModel, NodeId, ResourceManager};
    use erm_kvstore::StoreConfig;
    use erm_sim::{Clock, VirtualClock};
    use erm_transport::InProcNetwork;

    struct Idle;
    impl ElasticService for Idle {
        fn dispatch(
            &mut self,
            method: &str,
            _args: &[u8],
            _ctx: &mut ServiceContext,
        ) -> Result<Vec<u8>, RemoteError> {
            Err(RemoteError::no_such_method(method))
        }
    }

    /// A tiny cluster (1 node unless asked otherwise) with instant
    /// provisioning, so grants are collectable immediately.
    fn cluster(nodes: u32) -> ClusterHandle {
        ClusterHandle::new(ResourceManager::new(ClusterConfig {
            nodes,
            slices_per_node: 1,
            provisioning: LatencyModel::instant(),
            ..ClusterConfig::default()
        }))
    }

    /// Builds the runtime the way `ElasticPool::instantiate` does, with a
    /// virtual clock and no driver: its members are launched but never run,
    /// so a test decides when one "dies" (`member_exited`).
    fn runtime(
        cluster: &ClusterHandle,
        clock: &VirtualClock,
        metrics: MetricsHandle,
    ) -> PoolRuntime {
        let config = PoolConfig::builder("Churn").build().unwrap();
        let deps = deps(cluster, clock, metrics);
        PoolRuntime::start(config, Arc::new(|| Box::new(Idle)), deps, None).unwrap()
    }

    fn deps(cluster: &ClusterHandle, clock: &VirtualClock, metrics: MetricsHandle) -> PoolDeps {
        PoolDeps {
            cluster: cluster.clone(),
            net: Arc::new(InProcNetwork::new()),
            store: Arc::new(Store::new(StoreConfig::default())),
            clock: Arc::new(clock.clone()),
            trace: TraceHandle::disabled(),
            metrics,
        }
    }

    /// Brings up every ready grant of the runtime's requests as a member,
    /// publishing the new view as `step` does after its grants.
    fn join_initial(rt: &mut PoolRuntime, cluster: &ClusterHandle, at: SimTime) {
        for grant in cluster.take_ready(rt.tenant, at) {
            rt.spawn_member(grant);
        }
        rt.publish();
    }

    /// Steps `rt` once a tick until the clock reads `until`, as a simulated
    /// driver would, except that its members never run.
    fn step_until(rt: &mut PoolRuntime, clock: &VirtualClock, until: SimTime) {
        while clock.now() < until {
            clock.advance(TICK);
            rt.step(clock.now());
        }
    }

    #[test]
    fn finalize_of_a_revoked_member_frees_nothing() {
        // Regression: a crashed member's slice was revoked by fail_node and
        // immediately re-granted after repair. Releasing it again during
        // finalize would free the new holder's slice underneath it.
        let cluster = cluster(1);
        let clock = VirtualClock::new();
        let mut rt = runtime(&cluster, &clock, MetricsHandle::disabled());
        join_initial(&mut rt, &cluster, SimTime::ZERO);

        cluster.fail_node(NodeId(0));
        cluster.repair_node(NodeId(0));
        let other = cluster.add_tenant();
        cluster
            .request_slices(other, 1, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(cluster.take_ready(other, SimTime::from_secs(1)).len(), 1);

        rt.finalize_member(0, true);
        assert_eq!(
            cluster.slices_in_use(),
            1,
            "finalize must not release a slice the cluster already revoked"
        );
    }

    #[test]
    fn a_pool_takes_only_its_own_revocations() {
        // Regression: the revocations of every pool on the cluster went to
        // whichever pool stepped first, so the other pool's members kept
        // serving on slices the cluster had freed.
        let cluster = ClusterHandle::new(ResourceManager::new(ClusterConfig {
            nodes: 2,
            slices_per_node: 2,
            provisioning: LatencyModel::instant(),
            ..ClusterConfig::default()
        }));
        let clock = VirtualClock::new();
        let mut a = runtime(&cluster, &clock, MetricsHandle::disabled());
        let mut b = runtime(&cluster, &clock, MetricsHandle::disabled());
        a.step(clock.now());
        b.step(clock.now());
        assert_eq!((a.members.len(), b.members.len()), (2, 2));
        // B holds both slices of node 1.
        cluster.fail_node(NodeId(1));
        clock.advance(TICK);
        a.step(clock.now());
        b.step(clock.now());
        assert!(a.members.values().all(|m| m.crashed_at.is_none()));
        assert!(
            b.members.values().all(|m| m.crashed_at.is_some()),
            "both of B's members lost their slices"
        );
    }

    #[test]
    fn a_standby_revoked_while_provisioning_is_asked_for_again() {
        // Regression: the pool kept its own count of grants still due, and a
        // revocation before the grant arrived left that count at 1 forever:
        // the warm tier stayed empty, its slice budget spent on a ghost.
        let cluster = ClusterHandle::new(ResourceManager::new(ClusterConfig {
            nodes: 3,
            slices_per_node: 1,
            provisioning: LatencyModel::Fixed(SimDuration::from_secs(1)),
            ..ClusterConfig::default()
        }));
        let clock = VirtualClock::new();
        let mut rt = runtime(&cluster, &clock, MetricsHandle::disabled());
        rt.config = PoolConfig::builder("Churn")
            .min_pool_size(2)
            .max_pool_size(3)
            .warm_standby(1)
            .build()
            .unwrap();
        // The first step asks for the standby, on the third node.
        rt.step(clock.now());
        cluster.fail_node(NodeId(2));
        step_until(
            &mut rt,
            &clock,
            SimTime::ZERO + SimDuration::from_millis(500),
        );
        cluster.repair_node(NodeId(2));
        step_until(&mut rt, &clock, SimTime::from_secs(6));
        assert_eq!(rt.members.values().filter(|m| m.warm()).count(), 1);
        assert_eq!(rt.slice_footprint(), 3);
        assert_eq!(cluster.slices_in_use(), 3);
    }

    #[test]
    fn a_release_deferred_by_an_outage_survives_a_node_failure() {
        // Regression: a member's release, deferred by a master outage, and
        // the failure of its node both freed its slice, so after recovery
        // the cluster listed the slice free twice and granted it twice.
        let cluster = cluster(2);
        let clock = VirtualClock::new();
        let mut rt = runtime(&cluster, &clock, MetricsHandle::disabled());
        rt.step(clock.now());
        assert_eq!(rt.members.len(), 2);
        cluster.fail_master_until(SimTime::from_secs(2));
        rt.member_exited(1);
        step_until(
            &mut rt,
            &clock,
            SimTime::ZERO + SimDuration::from_millis(500),
        );
        assert_eq!(rt.members.len(), 1, "member 1 reaped, its release deferred");
        cluster.fail_node(NodeId(1));
        cluster.repair_node(NodeId(1));
        // Past recovery, growing by two finds only the one freed slice.
        step_until(&mut rt, &clock, SimTime::from_secs(3));
        assert_eq!(rt.request_members(2, false, clock.now()), 1);
        step_until(&mut rt, &clock, SimTime::from_secs(4));
        assert_eq!(rt.members.len(), 2);
        assert_eq!(
            (cluster.slices_in_use(), cluster.free_slices()),
            (2, 0),
            "every slice is held once and none is listed free"
        );
        assert!((0.0..=1.0).contains(&cluster.utilization()));
    }

    #[test]
    fn a_sharded_pool_boots_at_epoch_one_without_a_handoff() {
        // Regression: every grant published a view of its own, so a sharded
        // two-member pool booted at epoch 2 after a handoff between the
        // first member and the pair, reassigning keys nobody had used.
        let cluster = cluster(2);
        let clock = VirtualClock::new();
        let (trace, sink) = TraceHandle::buffered(64);
        let mut rt = runtime(&cluster, &clock, MetricsHandle::disabled());
        rt.config = sharded_config();
        rt.deps.trace = trace;
        rt.step(clock.now());
        assert_eq!(rt.members.len(), 2);
        assert_eq!(rt.epoch, 1);
        let handoffs = sink
            .snapshot()
            .into_iter()
            .filter(|r| matches!(r.event, TraceEvent::ShardHandoff { .. }))
            .count();
        assert_eq!(handoffs, 0);
    }

    #[test]
    fn a_decider_is_not_told_of_a_revoked_standby() {
        // Regression: the sample counted a standby whose slice was revoked
        // as warm until its member was reaped, though it can never promote.
        let cluster = cluster(3);
        let clock = VirtualClock::new();
        let told = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&told);
        let config = PoolConfig::builder("Churn")
            .policy(ScalingPolicy::AppLevel)
            .burst_interval(SimDuration::from_secs(1))
            .warm_standby(1)
            .build()
            .unwrap();
        let decider = move |sample: &PoolSample| {
            seen.lock().push(sample.standbys);
            sample.pool_size
        };
        let deps = deps(&cluster, &clock, MetricsHandle::disabled());
        let factory: ServiceFactory = Arc::new(|| Box::new(Idle));
        let mut rt = PoolRuntime::start(config, factory, deps, Some(Box::new(decider))).unwrap();
        step_until(
            &mut rt,
            &clock,
            SimTime::ZERO + SimDuration::from_millis(500),
        );
        assert_eq!(rt.members.values().filter(|m| m.warm()).count(), 1);
        // The standby's node fails; its member never exits, so it is not
        // reaped, but it is no longer warm.
        cluster.fail_node(NodeId(2));
        told.lock().clear();
        step_until(
            &mut rt,
            &clock,
            SimTime::ZERO + SimDuration::from_millis(2_500),
        );
        let told = told.lock().clone();
        assert!(!told.is_empty(), "the decider was asked");
        assert!(told.iter().all(|&n| n == 0), "told {told:?}");
    }

    #[test]
    fn a_member_cut_off_across_a_view_change_catches_up_at_the_next_poll() {
        // Views are sent when they change. A member whose link from the
        // runtime is cut while one goes out answers the next poll it hears
        // with the epoch it holds, and the runtime re-sends it the view:
        // within one burst interval plus the collect grace of the link's
        // return, not at a timer's next re-broadcast.
        let cluster = cluster(3);
        let clock = VirtualClock::new();
        let net = InProcNetwork::new();
        let burst = SimDuration::from_millis(200);
        let config = PoolConfig::builder("Churn")
            .min_pool_size(3)
            .max_pool_size(3)
            .burst_interval(burst)
            .build()
            .unwrap();
        let deps = PoolDeps {
            net: Arc::new(net.clone()),
            ..deps(&cluster, &clock, MetricsHandle::disabled())
        };
        let mut rt = PoolRuntime::start(config, Arc::new(|| Box::new(Idle)), deps, None).unwrap();
        let mut members: Vec<Launch> = Vec::new();
        // A tick of the runtime, then every member's mailbox, as the pool
        // thread and its member threads would run them.
        let run_until = |rt: &mut PoolRuntime, members: &mut Vec<Launch>, until| {
            while clock.now() < until {
                clock.advance(TICK);
                members.extend(rt.step(clock.now()).0);
                for m in members.iter_mut() {
                    while let Ok(d) = m.mailbox.try_recv() {
                        m.skeleton.ingest_datagram(d, &m.mailbox);
                    }
                }
            }
        };
        let (probe, replies) = net.open();
        let view_of = |m: &mut Launch| {
            m.skeleton
                .handle(probe, RmiMessage::PoolInfoRequest, &m.mailbox);
            match RmiMessage::decode(&replies.try_recv().unwrap().payload).unwrap() {
                RmiMessage::PoolInfo {
                    epoch,
                    members,
                    uids,
                    ..
                } => (epoch, uids.into_iter().zip(members).collect::<Vec<_>>()),
                other => panic!("unexpected {other:?}"),
            }
        };
        run_until(&mut rt, &mut members, SimTime::from_micros(50_000));
        assert_eq!((members.len(), rt.epoch), (3, 1));
        // Member 2's node fails while member 1's link from the runtime is
        // cut: the view without member 2 reaches member 0 only.
        let cut = members[1].mailbox.id();
        net.set_link_cut(rt.ctl, cut, true);
        cluster.fail_node(NodeId(2));
        rt.member_exited(2);
        members.truncate(2);
        let back = SimTime::from_micros(600_000);
        run_until(&mut rt, &mut members, back);
        let now = (rt.epoch, rt.last_view.clone());
        assert_eq!(now.0, 2);
        assert_eq!(view_of(&mut members[0]), now);
        assert_eq!(view_of(&mut members[1]).0, 1, "the cut member missed it");
        net.set_link_cut(rt.ctl, cut, false);
        run_until(&mut rt, &mut members, back + burst + COLLECT_GRACE);
        assert_eq!(view_of(&mut members[1]), now, "caught up at the poll");
        assert_eq!(rt.epoch, 2, "no view changed meanwhile");
    }

    #[test]
    fn finalize_releases_unrevoked_slices_normally() {
        let cluster = cluster(1);
        let clock = VirtualClock::new();
        let mut rt = runtime(&cluster, &clock, MetricsHandle::disabled());
        join_initial(&mut rt, &cluster, SimTime::ZERO);
        rt.finalize_member(0, true);
        assert_eq!(cluster.slices_in_use(), 0);
        assert_eq!(cluster.free_slices(), 1);
    }

    #[test]
    fn draining_and_revoked_member_is_reaped_exactly_once() {
        // A member mid scale-in whose node dies: it can never ack its drain,
        // so the crash path must finalize it — once.
        let cluster = cluster(1);
        let clock = VirtualClock::new();
        let mut rt = runtime(&cluster, &clock, MetricsHandle::disabled());
        join_initial(&mut rt, &cluster, SimTime::ZERO);
        let member = rt.members.get_mut(&0).unwrap();
        member.draining = true;
        member.crashed_at = Some(SimTime::ZERO);
        rt.member_exited(0);
        cluster.fail_node(NodeId(0));

        assert!(rt.reap_crashed(), "draining+revoked member must be reaped");
        assert!(rt.members.is_empty());
        assert!(!rt.reap_crashed(), "second reap finds nothing");
        // A drain ack arriving after the reap must be a no-op.
        rt.finalize_member(0, false);
        let stats = rt.shared.stats.lock().clone();
        assert_eq!((stats.crashed, stats.shrunk), (1, 0));
    }

    /// A runtime whose only member was told to drain, plus the member's
    /// endpoint (for acking as it would).
    fn draining_member(cluster: &ClusterHandle) -> (PoolRuntime, EndpointId) {
        let clock = VirtualClock::new();
        let mut rt = runtime(cluster, &clock, MetricsHandle::disabled());
        join_initial(&mut rt, cluster, SimTime::ZERO);
        rt.drain(&[0]);
        let ep = rt.members[&0].endpoint;
        (rt, ep)
    }

    #[test]
    fn draining_member_that_acked_finalizes_as_drained() {
        // The two-phase drain stays intact: a drained member whose skeleton
        // has exited finalizes through its ShutdownReady ack, not the crash
        // path — the ack is in the control mailbox before the exit applies.
        let cluster = cluster(1);
        let (mut rt, ep) = draining_member(&cluster);
        let ack = RmiMessage::ShutdownReady { uid: 0 }.encode();
        rt.deps.net.send(ep, rt.ctl, ack).unwrap();
        rt.member_exited(0);
        rt.step(SimTime::ZERO);
        assert!(rt.members.is_empty());
        let stats = rt.shared.stats.lock().clone();
        assert_eq!((stats.crashed, stats.shrunk), (0, 1));
        assert_eq!(cluster.slices_in_use(), 0);
    }

    #[test]
    fn draining_member_that_exits_without_an_ack_is_reaped_as_crashed() {
        // Regression: a member that died mid-drain (no ShutdownReady, slice
        // not revoked) used to be skipped by the reap forever, keeping its
        // slice and counting in `slice_footprint`.
        let cluster = cluster(1);
        let (mut rt, _ep) = draining_member(&cluster);
        rt.member_exited(0);
        rt.step(SimTime::ZERO);
        assert!(rt.members.is_empty());
        let stats = rt.shared.stats.lock().clone();
        assert_eq!((stats.crashed, stats.shrunk), (1, 0));
        assert_eq!(cluster.slices_in_use(), 0, "its slice is released");
        assert_eq!(cluster.free_slices(), 1);
    }

    #[test]
    fn reap_reclaims_crashed_members_locks() {
        let cluster = cluster(1);
        let clock = VirtualClock::new();
        let mut rt = runtime(&cluster, &clock, MetricsHandle::disabled());
        join_initial(&mut rt, &cluster, SimTime::ZERO);
        let store = Arc::clone(&rt.deps.store);
        let ttl = SimDuration::from_secs(3600);
        // The member dies holding its class lock, TTL far in the future.
        assert!(store.try_lock("Churn", LockOwner::new(0), clock.now(), ttl));
        rt.member_exited(0);

        assert!(rt.reap_crashed());
        assert!(store.held_locks().is_empty(), "orphaned lock reclaimed");
        // Waiters proceed immediately; the ghost is fenced out.
        assert!(store.try_lock("Churn", LockOwner::new(1), clock.now(), ttl));
        assert!(!store.try_lock("Churn", LockOwner::new(0), clock.now(), ttl));
    }

    fn sharded_config() -> PoolConfig {
        PoolConfig::builder("Churn")
            .sharding(crate::ShardingTable::new().method("incr", crate::KeyExtractor::FirstU64))
            .build()
            .unwrap()
    }

    fn load(uid: u64, pending: u32) -> LoadReport {
        LoadReport {
            uid,
            pending,
            busy: 0.0,
            ram: 0.0,
            fine_vote: None,
            expired: 0,
            method_stats: Vec::new(),
            rejected: 0,
            queue_delay_p50_us: 0,
            queue_delay_p99_us: 0,
            epoch: 0,
        }
    }

    #[test]
    fn publish_bumps_epoch_exactly_once_per_view_change() {
        let cluster = cluster(1);
        let clock = VirtualClock::new();
        let mut rt = runtime(&cluster, &clock, MetricsHandle::disabled());
        assert_eq!(rt.epoch, 0);
        join_initial(&mut rt, &cluster, SimTime::ZERO);
        assert_eq!(rt.epoch, 1, "bootstrap view change bumps once");
        rt.publish();
        assert_eq!(rt.epoch, 1, "republishing an unchanged view is a no-op");
        // Crash: the reap no longer bumps by itself — the following publish
        // sees the view shrink and bumps exactly once, matching the
        // `epoch + 1` stamped on any SentinelElected event.
        rt.member_exited(0);
        assert!(rt.reap_crashed());
        rt.publish();
        assert_eq!(
            rt.epoch, 2,
            "crash bumps once, via the publish that follows"
        );
        assert_eq!(rt.shared.stats.lock().epoch, 2);
    }

    #[test]
    fn shard_handoff_releases_only_the_moved_ranges_of_live_members() {
        let cluster = cluster(2);
        let clock = VirtualClock::new();
        let mut rt = runtime(&cluster, &clock, MetricsHandle::disabled());
        rt.config = sharded_config();
        let store = Arc::clone(&rt.deps.store);
        let ttl = SimDuration::from_secs(3600);

        let mut grants = cluster.take_ready(rt.tenant, SimTime::ZERO).into_iter();
        rt.spawn_member(grants.next().unwrap());
        rt.publish(); // bootstrap: epoch 1, no handoff possible
        let e0 = rt.members[&0].endpoint;

        // The sole member holds locks across the whole keyspace.
        let names: Vec<String> = (0..200).map(|i| format!("k{i}")).collect();
        for name in &names {
            assert!(store.try_lock(name, LockOwner::new(0), clock.now(), ttl));
        }

        // Grow: a second member takes over part of the ring.
        rt.spawn_member(grants.next().unwrap());
        rt.publish();
        assert_eq!(rt.epoch, 2);
        let e1 = rt.members[&1].endpoint;

        let old_ring = ShardRing::from_members(&[(0, e0)]);
        let new_ring = ShardRing::from_members(&[(0, e0), (1, e1)]);
        let (moved, retained): (Vec<&String>, Vec<&String>) = names
            .iter()
            .partition(|n| !new_ring.owns(0, hash_bytes(n.as_bytes())));
        assert!(
            !moved.is_empty() && !retained.is_empty(),
            "split is non-trivial"
        );
        assert!(
            moved
                .iter()
                .all(|n| old_ring.owns(0, hash_bytes(n.as_bytes()))),
            "everything started on member 0"
        );

        // Exactly the moved ranges were released — and without fencing:
        // member 0 still holds (and can still unlock) everything it kept.
        let held = store.held_locks();
        assert_eq!(held.len(), retained.len());
        assert!(held.iter().all(|(n, o)| {
            *o == LockOwner::new(0) && new_ring.owns(0, hash_bytes(n.as_bytes()))
        }));
        assert_eq!(store.fenced_epoch(LockOwner::new(0)), None);
        // The new owner can pick the moved locks up immediately.
        for name in moved {
            assert!(store.try_lock(name, LockOwner::new(1), clock.now(), ttl));
        }
    }

    #[test]
    fn rebalance_is_suppressed_and_counted_when_sharding_is_on() {
        let cluster = cluster(2);
        let (metrics, registry) = MetricsHandle::shared();
        let mut rt = runtime(&cluster, &VirtualClock::new(), metrics);
        rt.config = sharded_config();
        join_initial(&mut rt, &cluster, SimTime::ZERO);
        // Grossly imbalanced: the planner would move work — but keyed load
        // is pinned to its ring owner, so the plan is counted, not executed.
        rt.reports.insert(0, load(0, 40));
        rt.reports.insert(1, load(1, 0));
        rt.rebalance();
        let snap = registry.snapshot(SimTime::ZERO);
        let skipped = snap
            .counters
            .iter()
            .find(|(name, _)| *name == "balance.shard_skipped")
            .map_or(0, |(_, v)| *v);
        assert!(skipped > 0, "suppressed migration is visible in metrics");
    }

    #[test]
    fn members_carry_their_requests_time() {
        // Every grant of a request joins, however late the pool takes it.
        let cluster = cluster(4);
        let clock = VirtualClock::new();
        clock.advance(SimDuration::from_secs(1));
        let mut rt = runtime(&cluster, &clock, MetricsHandle::disabled());
        let t0 = clock.now();
        join_initial(&mut rt, &cluster, t0);
        assert_eq!(rt.request_members(2, false, t0), 2);
        assert_eq!(cluster.pending_of(rt.tenant, |_| true), 2);
        clock.advance(SimDuration::from_secs(1));
        join_initial(&mut rt, &cluster, clock.now());
        assert_eq!(cluster.pending_of(rt.tenant, |_| true), 0);
        assert_eq!(rt.members.len(), 4);
    }

    #[test]
    fn standbys_join_outside_the_rotation_and_promote_on_grow() {
        let cluster = cluster(4);
        let clock = VirtualClock::new();
        let mut rt = runtime(&cluster, &clock, MetricsHandle::disabled());
        rt.config = PoolConfig::builder("Churn")
            .min_pool_size(2)
            .max_pool_size(4)
            .warm_standby(1)
            .build()
            .unwrap();
        let t0 = clock.now();
        join_initial(&mut rt, &cluster, t0);
        rt.request_members(1, true, t0);
        join_initial(&mut rt, &cluster, t0);
        assert_eq!(rt.members.len(), 3);
        assert_eq!(
            rt.members.values().filter(|m| m.standby).count(),
            1,
            "the standby request produced a standby member"
        );
        let active_uid = rt.sentinel_uid().expect("active member is sentinel");
        assert!(!rt.members[&active_uid].standby);
        assert_eq!(
            rt.shared.size.load(Ordering::SeqCst),
            2,
            "the published view hides the standby"
        );
        assert_eq!(rt.shared.members.read().len(), 2);

        // Route-flip: the standby becomes rotation capacity without any
        // cluster round trip.
        clock.advance(SimDuration::from_millis(5));
        assert_eq!(rt.promote_standbys(1, clock.now()), 1);
        rt.publish();
        assert_eq!(rt.shared.size.load(Ordering::SeqCst), 3);
        assert!(rt.members.values().all(|m| !m.standby));
        let stats = rt.shared.stats.lock().clone();
        assert_eq!(stats.promoted, 1);
        assert_eq!(stats.grown, 1, "a promotion counts as growth");

        // The forced refill (second half of the flip) replaces the standby.
        rt.replenish_standbys(clock.now(), true);
        join_initial(&mut rt, &cluster, clock.now());
        assert_eq!(rt.members.values().filter(|m| m.standby).count(), 1);
    }

    #[test]
    fn promotion_skips_crashed_standbys_and_respects_k() {
        let cluster = cluster(3);
        let clock = VirtualClock::new();
        let mut rt = runtime(&cluster, &clock, MetricsHandle::disabled());
        join_initial(&mut rt, &cluster, SimTime::ZERO);
        rt.request_members(1, true, SimTime::ZERO);
        join_initial(&mut rt, &cluster, SimTime::ZERO);
        for (uid, m) in &mut rt.members {
            m.standby = true;
            if *uid == 0 {
                m.crashed_at = Some(SimTime::ZERO);
            }
        }
        assert_eq!(rt.promote_standbys(1, clock.now()), 1, "promotes exactly k");
        assert!(
            rt.members[&0].standby,
            "a crashed standby is never promoted"
        );
        assert!(!rt.members[&1].standby, "lowest healthy uid wins");
        assert!(rt.members[&2].standby);
    }

    #[test]
    fn crashed_standby_slice_follows_the_revocation_books() {
        // A standby was never in rotation, but its slice bookkeeping must be
        // identical to an active's: revoked ⇒ no release, otherwise release.
        let cluster = cluster(1);
        let clock = VirtualClock::new();
        let mut rt = runtime(&cluster, &clock, MetricsHandle::disabled());
        join_initial(&mut rt, &cluster, SimTime::ZERO);
        let standby = rt.members.get_mut(&0).unwrap();
        standby.standby = true;
        standby.crashed_at = Some(SimTime::ZERO);
        rt.member_exited(0);
        cluster.fail_node(NodeId(0));
        assert!(rt.reap_crashed());
        assert_eq!(
            cluster.slices_in_use(),
            0,
            "revoked standby slice returned by the cluster, not leaked"
        );
        cluster.repair_node(NodeId(0));
        assert_eq!(cluster.free_slices(), 1);
    }

    #[test]
    fn replenish_is_throttled_but_force_bypasses() {
        let cluster = cluster(8);
        let clock = VirtualClock::new();
        let mut rt = runtime(&cluster, &clock, MetricsHandle::disabled());
        rt.config = PoolConfig::builder("Churn")
            .min_pool_size(2)
            .max_pool_size(8)
            .warm_standby(2)
            .build()
            .unwrap();
        let t0 = clock.now();
        join_initial(&mut rt, &cluster, t0);
        let pending = |rt: &PoolRuntime| cluster.pending_of(rt.tenant, |_| true);
        rt.replenish_standbys(t0, false);
        assert_eq!(pending(&rt), 2, "initial fill is immediate");
        // Spawn them, then kill one: the refill ask is rate-limited...
        join_initial(&mut rt, &cluster, t0);
        assert_eq!(rt.members.values().filter(|m| m.warm()).count(), 2);
        rt.finalize_member(2, true);
        rt.replenish_standbys(t0, false);
        assert_eq!(
            pending(&rt),
            0,
            "unforced refill waits out the throttle window"
        );
        // ...until the window passes or the caller forces it.
        clock.advance(STANDBY_REFILL_EVERY);
        rt.replenish_standbys(clock.now(), false);
        assert_eq!(pending(&rt), 1);
    }

    #[test]
    fn recovery_lags_are_recorded() {
        let cluster = cluster(2);
        let (metrics, registry) = MetricsHandle::shared();
        let clock = VirtualClock::new();
        let mut rt = runtime(&cluster, &clock, metrics);
        join_initial(&mut rt, &cluster, SimTime::ZERO);
        // Sentinel (uid 0) crashed at t=0; reaped at t=2s with uid 1 alive.
        rt.members.get_mut(&0).unwrap().crashed_at = Some(SimTime::ZERO);
        rt.member_exited(0);
        clock.advance(SimDuration::from_secs(2));
        assert!(rt.reap_crashed());
        // Capacity is restored once the live count is back at the pre-crash
        // target (min_pool_size, here 2): one second later the replacement
        // member is up.
        clock.advance(SimDuration::from_secs(1));
        rt.recovery.check_capacity(1, clock.now());
        assert_eq!(
            registry
                .snapshot(clock.now())
                .histograms
                .iter()
                .find(|(n, _)| *n == "pool.recovery.capacity.lag")
                .unwrap()
                .1
                .count(),
            0,
            "window stays open below the pre-crash target"
        );
        rt.recovery.check_capacity(2, clock.now());

        let snap = registry.snapshot(clock.now());
        let find = |name: &str| {
            snap.histograms
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("{name} registered"))
                .1
                .clone()
        };
        let reelection = find("pool.recovery.reelection.lag");
        assert_eq!(reelection.count(), 1);
        assert_eq!(reelection.max(), Some(SimDuration::from_secs(2)));
        let capacity = find("pool.recovery.capacity.lag");
        assert_eq!(capacity.count(), 1);
        assert_eq!(capacity.max(), Some(SimDuration::from_secs(3)));
        assert_eq!(rt.shared.stats.lock().elections, 1);
    }
}
