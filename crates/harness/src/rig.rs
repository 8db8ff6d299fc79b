//! The one virtual-clock rig the discrete-event scenarios are built from.
//!
//! [`crate::overload`], [`crate::telemetry`], [`crate::warmpool`],
//! [`crate::churn`] and [`crate::shard`] all run the production pool runtime
//! ([`PoolRuntime`]) and its real [`Skeleton`]s on an in-process network
//! under a [`VirtualClock`]. What they share lives here as plain parts each
//! scenario calls from its own drive loop:
//!
//! * [`SimRig`] — network, clock, trace sink, metrics registry, store and
//!   cluster manager wired together;
//! * [`SimPool`] — the pool runtime and the members it launches, started by
//!   [`SimRig::start_pool`] and stepped on the virtual clock by
//!   [`SimRig::drive_pool`]: membership, broadcasts, shard handoff and load
//!   polls are the runtime's own;
//! * [`JitteredService`] — the hosted service: occupies the member for
//!   0.8–1.2 × a mean on the virtual clock, optionally inside a class-lock
//!   critical section;
//! * [`arrival_schedule`] — the pre-computed ±50 % jittered arrivals;
//! * [`SimPool::stub`] — the production client [`Stub`] on the pool, the
//!   only client any scenario runs, pumped on the virtual clock by
//!   [`SimRig::serve`] (or a scenario's own loop): its routing, retries,
//!   pins, backoff, `WrongShard` follow and limiter are what the scenarios
//!   exercise;
//! * [`SimRig::check`] — hands the run's trace and quiesce counts to the
//!   shared [`Invariants`] checker.
//!
//! [`Skeleton`]: elasticrmi::Skeleton

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use elasticrmi::{
    ClientLb, Decider, ElasticService, Launch, PoolConfig, PoolDeps, PoolHandle, PoolRuntime,
    RemoteError, RmiMessage, ServiceContext, ServiceFactory, Stub,
};
use erm_cluster::{ClusterConfig, ClusterHandle, LatencyModel, ResourceManager};
use erm_kvstore::{Store, StoreConfig};
use erm_metrics::{MetricsHandle, Registry, TraceHandle, TraceRecord, TraceSink};
use erm_sim::{seeded_rng, Clock, SharedClock, SimDuration, SimTime, VirtualClock};
use erm_transport::{EndpointId, Host, InProcNetwork, Mailbox, Network, RecvError, SendError};
use rand::rngs::StdRng;
use rand::Rng;

use crate::invariants::{attempts_by_uid, Invariants, Quiesce, Violations};

/// Trace ring capacity: above every scenario's event count, so runs are
/// lossless and the checker sees all of each.
const SINK_CAPACITY: usize = 1 << 18;

/// The unkeyed method most scenarios invoke.
pub const WORK: &str = "work";

/// A duration in fractional milliseconds, for report rendering.
pub fn ms(d: SimDuration) -> f64 {
    d.as_micros() as f64 / 1000.0
}

/// The substrates of one virtual-clock run, wired to one trace sink and one
/// metrics registry: the pool runtime, its skeletons, store locks and the
/// cluster manager all emit into `trace` (backed by `sink`) and register in
/// `registry` (through `metrics`).
pub struct SimRig {
    pub(crate) net: InProcNetwork,
    /// The run's only clock; services advance it by their service time.
    pub(crate) clock: Arc<VirtualClock>,
    pub(crate) sink: Arc<TraceSink>,
    pub(crate) trace: TraceHandle,
    pub(crate) metrics: MetricsHandle,
    pub(crate) registry: Arc<Registry>,
    pub(crate) store: Arc<Store>,
    pub(crate) cluster: ClusterHandle,
    provisioning: SimDuration,
    /// Endpoint id → uid of every member a [`SimPool`] launched: the real
    /// stub names its attempts' targets by endpoint, the checker by uid.
    uids: RefCell<BTreeMap<u64, u64>>,
}

impl SimRig {
    /// A rig over a cluster of `nodes` × `slices_per_node` slices with
    /// fixed `provisioning` latency.
    pub fn new(nodes: u32, slices_per_node: u32, provisioning: SimDuration) -> SimRig {
        let (trace, sink) = TraceHandle::buffered(SINK_CAPACITY);
        let (metrics, registry) = MetricsHandle::shared();
        let store = Arc::new(Store::new(StoreConfig::default()));
        store.install_lock_metrics(&metrics);
        let cluster = ClusterHandle::new(ResourceManager::new(ClusterConfig {
            nodes,
            slices_per_node,
            provisioning: LatencyModel::Fixed(provisioning),
            ..ClusterConfig::default()
        }));
        cluster.set_telemetry(trace.clone(), &metrics);
        SimRig {
            net: InProcNetwork::new(),
            clock: Arc::new(VirtualClock::new()),
            sink,
            trace,
            metrics,
            registry,
            store,
            cluster,
            provisioning,
            uids: RefCell::new(BTreeMap::new()),
        }
    }

    fn shared_clock(&self) -> SharedClock {
        Arc::<VirtualClock>::clone(&self.clock) as SharedClock
    }

    /// The run's virtual clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// The in-process network every member, runtime and client sends
    /// through; its counters see every frame of the run.
    pub fn network(&self) -> &InProcNetwork {
        &self.net
    }

    /// Idles until the earliest of `events` — always at least one
    /// microsecond, so a due-but-unserviceable event cannot wedge the loop.
    pub fn idle_until(&self, events: &[Option<SimTime>]) {
        let now = self.clock.now();
        let target = events.iter().flatten().min().expect("an event is due");
        self.clock
            .advance_to((*target).max(now + SimDuration::from_micros(1)));
    }

    /// Runs the shared checker over `trace` with the leak counts: locks the
    /// store still holds, slices the cluster still counts, and the
    /// reply-cache entries the scenario found after its TTL sweep. Attempts
    /// name endpoints (the real stub's): they are translated to the uids of
    /// the members behind them first.
    pub fn check(
        &self,
        facts: &Invariants,
        trace: &[TraceRecord],
        leaked_cache_entries: usize,
    ) -> Violations {
        assert_eq!(self.sink.dropped(), 0, "sink sized for a lossless run");
        let quiesce = Quiesce {
            leaked_locks: self.store.held_locks().len(),
            leaked_slices: self.cluster.slices_in_use() + self.cluster.pending_slices(),
            leaked_cache_entries,
        };
        facts.check(&attempts_by_uid(trace, &self.uids.borrow()), &quiesce)
    }

    /// Starts the production pool runtime for `config` on this rig's
    /// cluster, store, trace and metrics, each member hosting the service
    /// `service(clock, n)` builds for the `n`-th member, with `decider`
    /// making the decisions of an [`elasticrmi::ScalingPolicy::AppLevel`]
    /// pool (as [`PoolRuntime::start`] takes it). Drives the pool until its
    /// initial members (and warm tier) are up, or as many of them as the
    /// cluster has slices for.
    pub fn start_pool<S: ElasticService + 'static>(
        &self,
        config: PoolConfig,
        service: impl Fn(&Arc<VirtualClock>, u64) -> S + Send + Sync + 'static,
        decider: Option<Box<dyn Decider>>,
    ) -> SimPool {
        let host = Arc::new(SimHost {
            net: self.net.clone(),
            clock: Arc::clone(&self.clock),
            turn: AtomicU64::new(u64::MAX),
            held: Mutex::new(Vec::new()),
            reply_drop: Mutex::new(None),
        });
        let (clock, built) = (Arc::clone(&self.clock), AtomicU64::new(0));
        let factory: ServiceFactory =
            Arc::new(move || Box::new(service(&clock, built.fetch_add(1, Ordering::SeqCst))));
        let deps = PoolDeps {
            cluster: self.cluster.clone(),
            net: Arc::clone(&host) as Arc<dyn Host>,
            store: Arc::clone(&self.store),
            clock: self.shared_clock(),
            trace: self.trace.clone(),
            metrics: self.metrics.clone(),
        };
        let floor = ((config.min_pool_size() + config.warm_standby()) as usize)
            .min(self.cluster.total_slices());
        let runtime = PoolRuntime::start(config, factory, deps, decider).expect("pool starts");
        let mut pool = SimPool {
            handle: runtime.handle(),
            runtime,
            host,
            seats: BTreeMap::new(),
            due: Some(self.clock.now()),
        };
        self.drive_pool_until(&mut pool, |pool| pool.seats.len() >= floor);
        pool
    }

    /// Drives `pool`, idling to its next event whenever a round finds
    /// nothing to do, until `done` holds.
    pub fn drive_pool_until(&self, pool: &mut SimPool, done: impl Fn(&SimPool) -> bool) {
        while !done(pool) {
            if !self.drive_pool(pool) {
                self.idle_until(&[pool.next_event()]);
            }
        }
    }

    /// One round of the pool on the virtual clock: delivers the members'
    /// sends that have come due, steps the runtime if its turn has come,
    /// then gives every free member a turn in uid order: its whole mailbox
    /// ingested, then one admitted request executed or
    /// [`Skeleton::idle`](elasticrmi::Skeleton::idle). A turn runs from the
    /// round's instant on the member's own stretch of time (service time
    /// advances the clock); the clock is rewound after it, and the member
    /// stays busy, its sends held, until the rig's clock catches up — so
    /// members serve in parallel. A member whose mailbox closed, whose
    /// drain finished or whose service panicked is reported to the runtime
    /// as exited, as its thread's end would be. Returns whether anything
    /// happened.
    pub fn drive_pool(&self, pool: &mut SimPool) -> bool {
        let now = self.clock.now();
        let mut progress = pool.host.deliver(now);
        if pool.due.is_some_and(|due| due <= now) {
            let (launched, due) = pool.runtime.step(now);
            pool.due = due;
            for mut member in launched {
                member.skeleton.start();
                let ep = member.mailbox.id();
                self.uids.borrow_mut().insert(ep.0, member.uid);
                let seat = Seat {
                    member,
                    free_at: now,
                };
                pool.seats.insert(seat.member.uid, seat);
            }
            progress = true;
        }
        let mut exited = Vec::new();
        for (&uid, seat) in pool.seats.iter_mut().filter(|(_, s)| s.free_at <= now) {
            pool.host.turn.store(now.as_micros(), Ordering::SeqCst);
            let turn = std::panic::catch_unwind(AssertUnwindSafe(|| seat.turn()));
            let (did, done) = turn.unwrap_or((true, true));
            seat.free_at = self.clock.now();
            self.clock.rewind_to(now);
            pool.host.turn.store(u64::MAX, Ordering::SeqCst);
            progress |= did || done;
            if done {
                exited.push(uid);
            }
        }
        for uid in exited {
            pool.seats.remove(&uid);
            pool.runtime.member_exited(uid);
        }
        progress
    }

    /// Serves an open-loop workload from `pool` through a real client: a
    /// round-robin [`Stub`] opened on the pool, each arrival in `schedule`
    /// an invocation of [`WORK`] due `budget` later. The stub is
    /// pumped every round; its routing, retries and deadlines are its own.
    /// `tick.1` runs every `tick.0` from now. Returns once every invocation
    /// ended and the clock passed `end`.
    pub fn serve(
        &self,
        pool: &mut SimPool,
        schedule: Vec<SimTime>,
        budget: SimDuration,
        end: SimTime,
        (period, mut tick): (SimDuration, impl FnMut(SimTime)),
    ) {
        let mut stub = pool.stub(ClientLb::RoundRobin);
        stub.set_invocation_budget(budget);
        let mut arrivals = schedule.into_iter().peekable();
        let mut next_tick = self.clock.now() + period;
        loop {
            let now = self.clock.now();
            if arrivals.next_if(|&at| at <= now).is_some() {
                let begun = stub.invoke_begin_raw(WORK, Vec::new());
                begun.expect("no limiter");
                continue;
            }
            stub.drain_completed();
            if now >= next_tick {
                next_tick += period;
                tick(now);
                continue;
            }
            if self.drive_pool(pool) {
                continue;
            }
            if arrivals.peek().is_none() && stub.in_flight() == 0 && now >= end {
                return;
            }
            self.idle_until(&[
                Some(next_tick),
                arrivals.peek().copied(),
                stub.next_due(),
                pool.next_event(),
            ]);
        }
    }

    /// Quiesces `pool` through the runtime's own shutdown. First the clock
    /// moves on by `settle` (at least the provisioning latency, so no grant
    /// is still in flight) and every member's reply cache is swept; then
    /// the shutdown is driven to its end. Returns the reply-cache entries
    /// still alive after the sweep.
    pub fn quiesce_pool(&self, pool: &mut SimPool, settle: SimDuration) -> usize {
        self.clock.advance(settle.max(self.provisioning));
        let leaked = pool
            .seats
            .values_mut()
            .map(|seat| seat.member.skeleton.sweep_reply_cache())
            .sum();
        pool.handle.shutdown();
        self.drive_pool_until(pool, |pool| pool.due.is_none());
        leaked
    }
}

/// The network a [`SimPool`]'s members, runtime and client send through: a
/// send made during a member's turn, stamped later than the round's
/// instant, waits until the rig's clock reaches it.
struct SimHost {
    net: InProcNetwork,
    clock: Arc<VirtualClock>,
    /// The round's instant (µs) while a member's turn runs, else `MAX`.
    turn: AtomicU64,
    /// Held sends, in send order.
    held: Mutex<Vec<HeldSend>>,
    /// The reply-drop fault, when armed: the percentage of `Response`
    /// frames lost on their way to the client, and the RNG deciding which.
    reply_drop: Mutex<Option<(u64, StdRng)>>,
}

/// A send made ahead of the rig's clock: `(due, from, to, payload)`.
type HeldSend = (SimTime, EndpointId, EndpointId, Vec<u8>);

impl SimHost {
    /// Delivers the held sends due by `now`, oldest first; says if any were.
    fn deliver(&self, now: SimTime) -> bool {
        let mut held = self.held.lock().expect("held lock");
        held.sort_by_key(|&(due, ..)| due);
        let ready = held.partition_point(|&(due, ..)| due <= now);
        for (_, from, to, payload) in held.drain(..ready) {
            let _ = self.forward(from, to, payload);
        }
        ready > 0
    }

    /// Hands a send to the network, unless the reply-drop fault loses it:
    /// the member executed and answered, but the answer never arrives.
    fn forward(&self, from: EndpointId, to: EndpointId, payload: Vec<u8>) -> Result<(), SendError> {
        if let Some((pct, rng)) = &mut *self.reply_drop.lock().expect("fault lock") {
            let response = matches!(
                RmiMessage::decode(&payload),
                Ok(RmiMessage::Response { .. })
            );
            if response && rng.gen_range(0..100u64) < *pct {
                return Ok(());
            }
        }
        self.net.send(from, to, payload)
    }
}

impl Network for SimHost {
    fn send(&self, from: EndpointId, to: EndpointId, payload: Vec<u8>) -> Result<(), SendError> {
        let at = self.clock.now();
        if at.as_micros() > self.turn.load(Ordering::SeqCst) {
            let mut held = self.held.lock().expect("held lock");
            held.push((at, from, to, payload));
            return Ok(());
        }
        self.forward(from, to, payload)
    }

    fn endpoint_open(&self, id: EndpointId) -> bool {
        self.net.is_open(id)
    }
}

impl Host for SimHost {
    fn open(&self) -> (EndpointId, Mailbox) {
        self.net.open_endpoint()
    }

    fn close(&self, id: EndpointId) {
        self.net.close_endpoint(id);
    }
}

/// One member a [`SimPool`] runs: what the runtime launched, and when the
/// member is next free (its last turn's service time ran until then).
pub(crate) struct Seat {
    pub(crate) member: Launch,
    free_at: SimTime,
}

impl Seat {
    /// One turn of the member: the intake of a member thread (its whole
    /// mailbox ingested), then one admitted request executed — one, so
    /// arrivals interleave with service — or, with nothing to run,
    /// [`Skeleton::idle`](elasticrmi::Skeleton::idle). Returns whether it
    /// did anything, and whether the member is finished.
    fn turn(&mut self) -> (bool, bool) {
        let (skeleton, mailbox) = (&mut self.member.skeleton, &self.member.mailbox);
        let (mut ingested, mut done) = (false, false);
        loop {
            match mailbox.try_recv() {
                Ok(d) => {
                    ingested = true;
                    done |= skeleton.ingest_datagram(d, mailbox);
                }
                Err(RecvError::Timeout) => break,
                Err(RecvError::Closed) => {
                    done = true;
                    break;
                }
            }
        }
        let worked = !done && skeleton.step();
        (
            ingested || worked,
            done || (!worked && skeleton.idle(mailbox)),
        )
    }
}

/// The production pool runtime and its members on the virtual clock; see
/// [`SimRig::start_pool`] and [`SimRig::drive_pool`].
pub struct SimPool {
    runtime: PoolRuntime,
    /// The pool's published view, counters and shutdown request.
    pub(crate) handle: PoolHandle,
    host: Arc<SimHost>,
    /// Running members by uid.
    pub(crate) seats: BTreeMap<u64, Seat>,
    /// The runtime's next turn; `None` once it has shut down.
    due: Option<SimTime>,
}

impl SimPool {
    /// Opens the production client stub on the pool
    /// ([`PoolHandle::open_stub`]): its discovery request is answered, and
    /// its view installed, as the rig drives the pool and pumps the stub.
    pub fn stub(&self, lb: ClientLb) -> Stub {
        self.handle
            .open_stub(lb)
            .expect("the sentinel is reachable")
    }

    /// Arms the reply-drop fault: `pct` percent of the `Response` frames
    /// members send (only clients receive them) are lost in the network,
    /// chosen by an RNG seeded with `seed`.
    pub fn drop_replies(&self, pct: u64, seed: u64) {
        *self.host.reply_drop.lock().expect("fault lock") = Some((pct, seeded_rng(seed)));
    }

    /// The published rotation as `(uid, endpoint)`, in uid order.
    pub fn view(&self) -> Vec<(u64, EndpointId)> {
        let published = self.handle.members();
        self.seats
            .iter()
            .filter(|(_, seat)| published.contains(&seat.member.mailbox.id()))
            .map(|(&uid, seat)| (uid, seat.member.mailbox.id()))
            .collect()
    }

    /// When the pool next needs a round although nothing else happens: the
    /// runtime's turn, a held send coming due, or a busy member with work
    /// waiting becoming free.
    pub fn next_event(&self) -> Option<SimTime> {
        let busy = self
            .seats
            .values()
            .filter(|seat| {
                !seat.member.mailbox.is_empty() || seat.member.skeleton.queue_depth() > 0
            })
            .map(|seat| seat.free_at);
        let held = self.host.held.lock().expect("held lock");
        let sends = held.iter().map(|&(due, ..)| due);
        self.due.into_iter().chain(sends).chain(busy).min()
    }
}

/// A bounded or unbounded spin on the class lock around the service time,
/// the way a `synchronized` elastic method serializes on shared state. The
/// spin advances *virtual* time: `ServiceContext::synchronized` backs off
/// with a real sleep, which under a [`VirtualClock`] would never let a
/// contender's TTL lapse.
#[derive(Debug, Clone, Copy)]
pub struct ClassLock {
    /// Lock name (the elastic class).
    pub(crate) class: &'static str,
    /// Only this method takes the lock; `None` locks every method.
    pub(crate) method: Option<&'static str>,
    /// Virtual time burned per failed acquire.
    pub(crate) spin: SimDuration,
    /// Give up with a `LockBusy` remote error after waiting this long: a
    /// lock orphaned by a crash must fail the request (the client retries)
    /// rather than stall the pool until TTL expiry. `None` waits forever.
    pub(crate) max_wait: Option<SimDuration>,
}

impl ClassLock {
    /// Every method serializes on `class`, waiting as long as it takes.
    pub const fn every_method(class: &'static str) -> ClassLock {
        ClassLock {
            class,
            method: None,
            spin: SimDuration::from_micros(200),
            max_wait: None,
        }
    }
}

/// The hosted service of every scenario: does no computation, but
/// *occupies* the member for a seeded 0.8–1.2 × `mean` by advancing the
/// shared virtual clock.
pub struct JitteredService {
    clock: Arc<VirtualClock>,
    rng: rand::rngs::StdRng,
    mean: SimDuration,
    lock: Option<ClassLock>,
}

impl JitteredService {
    /// A service burning `mean` ± 20 % per request, jitter seeded by `seed`.
    pub fn new(clock: &Arc<VirtualClock>, seed: u64, mean: SimDuration) -> Self {
        JitteredService {
            clock: Arc::clone(clock),
            rng: seeded_rng(seed),
            mean,
            lock: None,
        }
    }

    /// Runs the service time inside a class-lock critical section.
    pub fn locking(mut self, lock: ClassLock) -> Self {
        self.lock = Some(lock);
        self
    }
}

impl ElasticService for JitteredService {
    fn dispatch(
        &mut self,
        method: &str,
        _args: &[u8],
        ctx: &mut ServiceContext,
    ) -> Result<Vec<u8>, RemoteError> {
        let factor: f64 = self.rng.gen_range(0.8..=1.2);
        let busy = SimDuration::from_micros((self.mean.as_micros() as f64 * factor) as u64);
        let Some(lock) = self
            .lock
            .filter(|l| l.method.is_none_or(|only| only == method))
        else {
            self.clock.advance(busy);
            return Ok(Vec::new());
        };
        let (store, owner) = (ctx.store(), ctx.lock_owner());
        let start = self.clock.now();
        let ttl = SimDuration::from_secs(1);
        while !store.try_lock(lock.class, owner, self.clock.now(), ttl) {
            if lock
                .max_wait
                .is_some_and(|max| self.clock.now().saturating_since(start) >= max)
            {
                return Err(RemoteError::new(
                    "LockBusy",
                    "class lock held past the bounded wait",
                ));
            }
            self.clock.advance(lock.spin);
        }
        self.clock.advance(busy);
        let _ = store.unlock_at(lock.class, owner, self.clock.now());
        Ok(Vec::new())
    }
}

/// Pre-computes an arrival schedule over `[start, end)` so the event loop
/// has no RNG state of its own: spacing is 1/rate with ±50 % seeded jitter,
/// and `burst = (from, to, multiplier)` scales the rate inside `[from, to)`.
pub fn arrival_schedule(
    seed: u64,
    start: SimTime,
    end: SimTime,
    base_rate: f64,
    burst: Option<(SimTime, SimTime, f64)>,
) -> Vec<SimTime> {
    let mut rng = seeded_rng(seed);
    let mut schedule: Vec<SimTime> = Vec::new();
    let mut t = start;
    loop {
        let rate = match burst {
            Some((from, to, multiplier)) if t >= from && t < to => base_rate * multiplier,
            _ => base_rate,
        };
        let gap: f64 = 1_000_000.0 / rate * rng.gen_range(0.5..=1.5);
        t += SimDuration::from_micros(gap as u64);
        if t >= end {
            break;
        }
        schedule.push(t);
    }
    schedule
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicI32;

    use elasticrmi::{MethodCallStats, ScalingPolicy};
    use erm_metrics::TraceEvent;

    use super::*;

    /// Votes the pool size the test asks for; member 2 dies inside its
    /// drain, before its `ShutdownReady` ack is sent.
    struct DiesDraining(Arc<AtomicI32>);

    impl ElasticService for DiesDraining {
        fn dispatch(
            &mut self,
            _method: &str,
            _args: &[u8],
            _ctx: &mut ServiceContext,
        ) -> Result<Vec<u8>, RemoteError> {
            Ok(Vec::new())
        }

        fn change_pool_size(&mut self, _stats: &MethodCallStats, _ctx: &mut ServiceContext) -> i32 {
            self.0.load(Ordering::SeqCst)
        }

        fn on_shutdown(&mut self, ctx: &mut ServiceContext) {
            assert_ne!(ctx.uid(), 2, "member 2 dies mid-drain");
        }
    }

    #[test]
    fn a_member_that_dies_mid_drain_is_reaped_and_gives_its_slice_back() {
        let rig = SimRig::new(4, 1, SimDuration::from_millis(10));
        let vote = Arc::new(AtomicI32::new(1));
        let config = PoolConfig::builder("Drain")
            .min_pool_size(2)
            .max_pool_size(3)
            .policy(ScalingPolicy::FineGrained)
            .burst_interval(SimDuration::from_millis(100))
            .build()
            .unwrap();
        let votes = Arc::clone(&vote);
        let service = move |_: &_, _| DiesDraining(Arc::clone(&votes));
        let mut pool = rig.start_pool(config, service, None);
        let deadline = SimTime::from_secs(10);
        rig.drive_pool_until(&mut pool, |p| p.handle.size() == 3);
        // Shrink: the youngest member, 2, is told to drain and dies before
        // it can ack. The runtime must still reap it, as a crash.
        vote.store(-1, Ordering::SeqCst);
        let reaped = |p: &SimPool| p.handle.stats().crashed == 1 || rig.clock.now() > deadline;
        rig.drive_pool_until(&mut pool, reaped);
        let stats = pool.handle.stats();
        assert_eq!((stats.crashed, stats.shrunk), (1, 0), "{stats:?}");
        assert_eq!(pool.handle.size(), 2);
        assert_eq!(rig.cluster.slices_in_use(), 2, "the victim's slice is back");

        vote.store(0, Ordering::SeqCst);
        rig.quiesce_pool(&mut pool, SimDuration::ZERO);
        assert_eq!(
            rig.cluster.slices_in_use() + rig.cluster.pending_slices(),
            0
        );
    }

    /// The open-loop knee, exactly: a pinned pool of n members, each busy
    /// 2 ms per request, serves n × 500 requests a second once offered
    /// more, and loses nothing either side of the knee.
    #[test]
    fn a_pinned_pool_serves_members_times_its_member_rate_and_loses_nothing() {
        let mean = SimDuration::from_millis(2);
        let per_member = 1_000_000 / mean.as_micros();
        for members in [2u32, 4, 8] {
            let capacity = u64::from(members) * per_member;
            for load in [0.5, 1.25] {
                let rig = SimRig::new(members, 1, SimDuration::from_millis(10));
                let config = PoolConfig::builder("Knee")
                    .min_pool_size(members)
                    .max_pool_size(members)
                    .build()
                    .unwrap();
                let service = move |clock: &_, n| JitteredService::new(clock, 7 ^ n, mean);
                let mut pool = rig.start_pool(config, service, None);
                let start = rig.clock.now();
                let end = start + SimDuration::from_secs(1);
                let schedule = arrival_schedule(7, start, end, capacity as f64 * load, None);
                let arrivals = schedule.len();
                let budget = SimDuration::from_secs(2);
                rig.serve(&mut pool, schedule, budget, end, (budget, |_| {}));
                rig.quiesce_pool(&mut pool, SimDuration::ZERO);

                let trace = rig.sink.snapshot();
                let cell = format!("{members} members at {load}x");
                let violations = rig.check(&Invariants::default(), &trace, 0);
                assert!(violations.is_clean(), "{cell}: {violations:?}");
                if load < 1.0 {
                    let ok = trace
                        .iter()
                        .filter(|r| {
                            matches!(r.event, TraceEvent::InvocationCompleted { ok: true, .. })
                        })
                        .count();
                    assert_eq!(ok, arrivals, "{cell}: every arrival completes ok");
                } else {
                    let executed = trace
                        .iter()
                        .filter(|r| {
                            r.at < end && matches!(r.event, TraceEvent::RequestExecuted { .. })
                        })
                        .count() as f64;
                    let error = (executed - capacity as f64).abs() / capacity as f64;
                    assert!(
                        error <= 0.01,
                        "{cell}: executed {executed} in the window, capacity {capacity}"
                    );
                }
            }
        }
    }
}
