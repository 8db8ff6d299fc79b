//! The one virtual-clock rig the discrete-event scenarios are built from.
//!
//! [`crate::overload`], [`crate::telemetry`], [`crate::warmpool`],
//! [`crate::churn`] and [`crate::shard`] all drive *real* [`Skeleton`]s on
//! an in-process network under a [`VirtualClock`]. What they share lives
//! here as plain parts each scenario calls from its own drive loop:
//!
//! * [`SimRig`] — network, clock, trace sink, metrics registry, store and
//!   cluster manager wired together, plus [`SimRig::spawn_member`], the one
//!   place a scenario skeleton is constructed;
//! * [`JitteredService`] — the hosted service: occupies the member for
//!   0.8–1.2 × a mean on the virtual clock, optionally inside a class-lock
//!   critical section;
//! * [`arrival_schedule`] — the pre-computed ±50 % jittered arrivals;
//! * [`SimClient`] — the modelled stub: call ids, the pending map, the
//!   retry queue, and the one mapping from replies to terminal trace
//!   events;
//! * [`SimRig::check`] — hands the run's trace and quiesce counts to the
//!   shared [`Invariants`] checker.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use elasticrmi::{
    AdmissionConfig, ElasticService, InvocationContext, LoadReport, PoolSample, RemoteError,
    ReplyCacheConfig, RmiMessage, ScalingDecision, ScalingEngine, Semantics, ServiceContext,
    Skeleton,
};
use erm_cluster::{ClusterConfig, LatencyModel, ResourceManager, SliceGrant};
use erm_kvstore::{Store, StoreConfig};
use erm_metrics::{MetricsHandle, Registry, TraceEvent, TraceHandle, TraceRecord, TraceSink};
use erm_sim::{seeded_rng, Clock, SharedClock, SimDuration, SimTime, VirtualClock};
use erm_transport::{EndpointId, InProcNetwork, Mailbox};
use rand::Rng;

use crate::invariants::{Invariants, Quiesce, Violations};

/// Trace ring capacity: above every scenario's event count, so runs are
/// lossless and the checker sees all of each.
const SINK_CAPACITY: usize = 1 << 18;

/// A retry is only worth scheduling if it can land this long before the
/// invocation's deadline.
const RETRY_MARGIN: SimDuration = SimDuration::from_millis(5);

/// A duration in fractional milliseconds, for report rendering.
pub fn ms(d: SimDuration) -> f64 {
    d.as_micros() as f64 / 1000.0
}

/// The substrates of one virtual-clock run, wired to one trace sink and one
/// metrics registry: skeletons, store locks and the cluster manager all
/// emit into `trace` (backed by `sink`) and register in `registry` (through
/// `metrics`).
pub struct SimRig {
    pub(crate) net: InProcNetwork,
    /// The run's only clock; services advance it by their service time.
    pub(crate) clock: Arc<VirtualClock>,
    pub(crate) sink: Arc<TraceSink>,
    pub(crate) trace: TraceHandle,
    pub(crate) metrics: MetricsHandle,
    pub(crate) registry: Arc<Registry>,
    pub(crate) store: Arc<Store>,
    pub(crate) cluster: ResourceManager,
    /// The pool size every member's [`ServiceContext`] reads.
    pub(crate) pool_size: Arc<AtomicU32>,
    class: &'static str,
    provisioning: SimDuration,
    /// The pool runtime's control endpoint, opened with the first member.
    runtime: Option<(EndpointId, Mailbox)>,
}

/// One real pool member: the production [`Skeleton`] (ingest, cull,
/// dispatch) and its transport identity.
pub struct SimMember {
    pub(crate) uid: u64,
    pub(crate) ep: EndpointId,
    pub(crate) mb: Mailbox,
    pub(crate) skeleton: Skeleton,
}

impl SimRig {
    /// A rig for elastic class `class` over a cluster of `nodes` ×
    /// `slices_per_node` slices with fixed `provisioning` latency.
    pub fn new(
        class: &'static str,
        nodes: u32,
        slices_per_node: u32,
        provisioning: SimDuration,
    ) -> SimRig {
        let (trace, sink) = TraceHandle::buffered(SINK_CAPACITY);
        let (metrics, registry) = MetricsHandle::shared();
        let store = Arc::new(Store::new(StoreConfig::default()));
        store.install_lock_metrics(&metrics);
        let mut cluster = ResourceManager::new(ClusterConfig {
            nodes,
            slices_per_node,
            provisioning: LatencyModel::Fixed(provisioning),
            ..ClusterConfig::default()
        });
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
            pool_size: Arc::new(AtomicU32::new(0)),
            class,
            provisioning,
            runtime: None,
        }
    }

    fn shared_clock(&self) -> SharedClock {
        Arc::<VirtualClock>::clone(&self.clock) as SharedClock
    }

    /// The pool runtime's control endpoint (skeletons report to it; the
    /// sharded scenario broadcasts membership from it).
    pub fn runtime_ep(&mut self) -> EndpointId {
        let net = &self.net;
        self.runtime.get_or_insert_with(|| net.open_endpoint()).0
    }

    /// Brings up member `uid` hosting `service`, with metrics installed. Its
    /// endpoint is opened first, so a run's first member is endpoint 0.
    pub fn spawn_member(
        &mut self,
        uid: u64,
        service: JitteredService,
        admission: Option<AdmissionConfig>,
        reply_cache: Option<ReplyCacheConfig>,
    ) -> SimMember {
        let (ep, mb) = self.net.open_endpoint();
        let ctx = ServiceContext::new(
            Arc::clone(&self.store),
            self.class,
            uid,
            self.shared_clock(),
            Arc::clone(&self.pool_size),
        );
        let mut skeleton = Skeleton::new(
            uid,
            ep,
            self.runtime_ep(),
            Arc::new(self.net.clone()),
            self.shared_clock(),
            Box::new(service),
            ctx,
            self.trace.clone(),
            admission,
        );
        if let Some(config) = reply_cache {
            skeleton.set_reply_cache(config);
        }
        skeleton.set_metrics(&self.metrics);
        SimMember {
            uid,
            ep,
            mb,
            skeleton,
        }
    }

    /// Requests `n` slices at time zero and advances the clock to the
    /// instant they finish provisioning.
    pub fn bootstrap(&mut self, n: u32) -> Vec<SliceGrant> {
        self.cluster
            .request_slices(n, self.clock.now())
            .expect("bootstrap slices");
        self.clock.advance_to(SimTime::ZERO + self.provisioning);
        self.cluster.poll_ready(self.clock.now())
    }

    /// One control-loop tick of the real [`ScalingEngine`] on a member's
    /// load report. The rule explanation precedes the decision in the trace
    /// so span reconstruction can pair them.
    pub fn scaling_tick(
        &self,
        engine: &mut ScalingEngine,
        report: &LoadReport,
        pool_size: u32,
        standbys: u32,
    ) -> ScalingDecision {
        let now = self.clock.now();
        let sample = PoolSample {
            pool_size,
            avg_cpu: report.busy,
            avg_ram: report.ram,
            fine_votes: Vec::new(),
            desired_size: None,
            queue_delay_p99: SimDuration::from_micros(report.queue_delay_p99_us),
            rejected: report.rejected,
            standbys,
        };
        let (decision, why) = engine.poll_explained(now, &sample);
        if let Some(w) = why {
            self.trace.emit(
                now,
                TraceEvent::RuleFired {
                    rule: w.rule,
                    observed_milli: w.observed_milli,
                    threshold_milli: w.threshold_milli,
                },
            );
        }
        let delta = match decision {
            ScalingDecision::Grow(k) => i64::from(k),
            ScalingDecision::Shrink(k) => -i64::from(k),
            ScalingDecision::Hold => return decision,
        };
        self.trace
            .emit(now, TraceEvent::ScaleDecision { pool_size, delta });
        decision
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
    /// reply-cache entries the scenario found after its TTL sweep.
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
        facts.check(trace, &quiesce)
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

/// The hosted service of every scenario: does no computation, but
/// *occupies* the member for a seeded 0.8–1.2 × `mean` by advancing the
/// shared virtual clock.
pub struct JitteredService {
    clock: Arc<VirtualClock>,
    rng: rand::rngs::StdRng,
    mean: SimDuration,
    share_load: bool,
    lock: Option<ClassLock>,
}

impl JitteredService {
    /// A service burning `mean` ± 20 % per request, jitter seeded by `seed`.
    pub fn new(clock: &Arc<VirtualClock>, seed: u64, mean: SimDuration) -> Self {
        JitteredService {
            clock: Arc::clone(clock),
            rng: seeded_rng(seed),
            mean,
            share_load: false,
            lock: None,
        }
    }

    /// Divides the service time by the live pool size: one real skeleton
    /// stands in for the whole pool, and a bigger pool shares the load.
    pub fn sharing_load(mut self) -> Self {
        self.share_load = true;
        self
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
        let members = if self.share_load {
            ctx.pool_size().max(1)
        } else {
            1
        };
        let busy = SimDuration::from_micros(
            (self.mean.as_micros() as f64 * factor / f64::from(members)) as u64,
        );
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

/// What one invocation calls: the method, its execution guarantee, and the
/// routing key a sharded stub would extract from the arguments (the key,
/// when present, is also the encoded argument).
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub(crate) method: &'static str,
    pub(crate) semantics: Semantics,
    pub(crate) key: Option<u64>,
}

impl Call {
    /// The unkeyed, at-least-once `work` method most scenarios invoke.
    pub const WORK: Call = Call {
        method: "work",
        semantics: Semantics::AtLeastOnce,
        key: None,
    };
}

/// One attempt of one invocation; also what the retry queue holds. The
/// invocation id and the absolute deadline are stable across attempts; the
/// attempt counter is 1-based.
#[derive(Debug, Clone, Copy)]
pub struct Attempt {
    pub(crate) invocation: u64,
    pub(crate) attempt: u32,
    pub(crate) deadline: SimTime,
    pub(crate) call: Call,
}

/// A sent attempt awaiting its reply.
#[derive(Debug, Clone, Copy)]
pub struct Pending {
    /// Wire correlation id (fresh per attempt).
    pub(crate) id: u64,
    pub(crate) a: Attempt,
    /// The member uid the attempt's `AttemptStarted` named.
    pub(crate) target: u64,
    pub(crate) sent: SimTime,
}

/// The modelled stub: every scenario's client side. Retry *policy* (when,
/// where, how often) stays in the scenario's script; the bookkeeping and
/// the trace vocabulary live here so all scenarios speak it identically —
/// in particular, every started invocation ends in exactly one terminal
/// event, including the ones the client gives up on.
pub struct SimClient {
    /// The client's endpoint (the `origin` of every request).
    ep: EndpointId,
    mb: Mailbox,
    clock: Arc<VirtualClock>,
    trace: TraceHandle,
    max_attempts: u32,
    next_invocation: u64,
    next_call: u64,
    /// Attempts awaiting a reply, by wire call id.
    pub(crate) pending: HashMap<u64, Pending>,
    /// Scheduled retries as `(due, attempt to send)`.
    retries: Vec<(SimTime, Attempt)>,
    /// What the checker needs to know about the traffic sent.
    pub(crate) facts: Invariants,
}

impl SimClient {
    /// A client on `rig`'s network investing at most `max_attempts`
    /// attempts in one invocation.
    pub fn new(rig: &SimRig, max_attempts: u32) -> SimClient {
        let (ep, mb) = rig.net.open_endpoint();
        SimClient {
            ep,
            mb,
            clock: Arc::clone(&rig.clock),
            trace: rig.trace.clone(),
            max_attempts,
            next_invocation: 0,
            next_call: 0,
            pending: HashMap::new(),
            retries: Vec::new(),
            facts: Invariants::default(),
        }
    }

    /// The first attempt of a fresh invocation of `call`, due by `deadline`.
    pub fn begin(&mut self, call: Call, deadline: SimTime) -> Attempt {
        self.next_invocation += 1;
        Attempt {
            invocation: self.next_invocation - 1,
            attempt: 1,
            deadline,
            call,
        }
    }

    /// Invocations begun so far.
    pub fn invocations(&self) -> usize {
        self.next_invocation as usize
    }

    fn emit(&self, event: TraceEvent) {
        self.trace.emit(self.clock.now(), event);
    }

    fn started(&self, a: &Attempt, target: u64) {
        self.emit(TraceEvent::AttemptStarted {
            invocation: a.invocation,
            attempt: a.attempt,
            target,
            deadline: a.deadline,
        });
    }

    /// Emits the `AttemptStarted` anchor naming `target` — the uid of the
    /// member the balancer picked, real or modelled — and hands the request
    /// to `member`'s skeleton.
    pub fn send_attempt(&mut self, member: &mut SimMember, target: u64, a: Attempt) {
        let id = self.next_call;
        self.next_call += 1;
        self.started(&a, target);
        let sent = self.clock.now();
        self.pending.insert(
            id,
            Pending {
                id,
                a,
                target,
                sent,
            },
        );
        if a.call.semantics == Semantics::AtMostOnce {
            self.facts.at_most_once.insert(a.invocation);
        }
        let args = match a.call.key {
            Some(key) => {
                self.facts.keys.insert(a.invocation, key);
                erm_transport::to_bytes(&key).expect("u64 args encode")
            }
            None => Vec::new(),
        };
        let context = InvocationContext {
            semantics: a.call.semantics,
            id: a.invocation,
            deadline: a.deadline,
            attempt: a.attempt,
            origin: self.ep,
            routing_key: a.call.key,
        };
        let request = RmiMessage::Request {
            call: id,
            context,
            method: a.call.method.into(),
            args,
        };
        member.skeleton.ingest(self.ep, request, &member.mb);
    }

    /// Pulls `member`'s load report for the closing burst interval, exactly
    /// like the sentinel's `PollLoad` would. The mailbox must be drained:
    /// the report is the next message in it.
    pub fn poll_load(&mut self, member: &mut SimMember) -> Option<LoadReport> {
        member
            .skeleton
            .ingest(self.ep, RmiMessage::PollLoad, &member.mb);
        match RmiMessage::decode(&self.mb.try_recv().ok()?.payload) {
            Ok(RmiMessage::Load(report)) => Some(report),
            _ => None,
        }
    }

    /// The next reply (`Response`, `Overloaded` or `WrongShard`) in the
    /// client's mailbox, with the pending attempt it answers — already
    /// removed from the map. Answers to attempts no longer pending are
    /// skipped.
    pub fn recv(&mut self) -> Option<(Pending, RmiMessage)> {
        while let Ok(d) = self.mb.try_recv() {
            let Ok(msg) = RmiMessage::decode(&d.payload) else {
                continue;
            };
            let (RmiMessage::Response { call, .. }
            | RmiMessage::Overloaded { call, .. }
            | RmiMessage::WrongShard { call, .. }) = msg
            else {
                continue;
            };
            if let Some(p) = self.pending.remove(&call) {
                return Some((p, msg));
            }
        }
        None
    }

    /// Removes and returns the pending attempts `select` picks, in call-id
    /// order (the map's own order is not deterministic).
    pub fn take_pending(&mut self, select: impl Fn(&Pending) -> bool) -> Vec<Pending> {
        let mut taken: Vec<Pending> = self
            .pending
            .values()
            .filter(|p| select(p))
            .copied()
            .collect();
        taken.sort_unstable_by_key(|p| p.id);
        for p in &taken {
            self.pending.remove(&p.id);
        }
        taken
    }

    fn completed(&self, a: &Attempt, ok: bool) {
        self.emit(TraceEvent::InvocationCompleted {
            invocation: a.invocation,
            attempts: a.attempt,
            ok,
        });
    }

    /// The reply → terminal-event mapping: a normal return completes the
    /// invocation, a deadline error expires it, any other remote error
    /// completes it as failed.
    pub fn complete(&self, a: &Attempt, outcome: &Result<Vec<u8>, RemoteError>) {
        match outcome {
            Err(e) if e.is_deadline_exceeded() => self.expire(a),
            _ => self.completed(a, outcome.is_ok()),
        }
    }

    /// Ends the invocation as expired.
    pub fn expire(&self, a: &Attempt) {
        self.emit(TraceEvent::InvocationExpired {
            invocation: a.invocation,
            attempts: a.attempt,
        });
    }

    /// No more retry budget: the single terminal event for the invocation
    /// is an expiry at or past its deadline, a failed completion before it.
    pub fn give_up(&self, a: &Attempt) {
        if self.clock.now() >= a.deadline {
            self.expire(a);
        } else {
            self.completed(a, false);
        }
    }

    /// Schedules the next attempt at `due` if the attempt budget and the
    /// deadline allow it; says whether it did.
    pub fn try_retry(&mut self, a: Attempt, due: SimTime) -> bool {
        let affordable = a.attempt < self.max_attempts && due + RETRY_MARGIN < a.deadline;
        if affordable {
            let attempt = a.attempt + 1;
            self.retries.push((due, Attempt { attempt, ..a }));
        }
        affordable
    }

    /// Retries at `due` if the budget allows; otherwise gives up.
    pub fn retry_or_give_up(&mut self, a: Attempt, due: SimTime) {
        if !self.try_retry(a, due) {
            self.give_up(&a);
        }
    }

    /// An attempt was refused with `Overloaded`: records it and retries
    /// after the server's hint, budget permitting.
    pub fn overloaded(&mut self, p: &Pending, retry_after: SimDuration) {
        self.emit(TraceEvent::AttemptOverloaded {
            invocation: p.a.invocation,
            attempt: p.a.attempt,
            target: p.target,
            retry_after,
        });
        self.retry_or_give_up(p.a, self.clock.now() + retry_after);
    }

    /// An attempt got no usable answer from `target` (closed endpoint,
    /// reply timeout): records it and retries after `backoff`.
    pub fn failed(&mut self, a: Attempt, target: u64, backoff: SimDuration) {
        self.emit(TraceEvent::AttemptFailed {
            invocation: a.invocation,
            attempt: a.attempt,
            target,
        });
        self.retry_or_give_up(a, self.clock.now() + backoff);
    }

    /// The stub's `ConnectionClosed` fast path: the attempt is anchored in
    /// the trace but fails without ever being sent.
    pub fn refused(&mut self, a: Attempt, target: u64, backoff: SimDuration) {
        self.started(&a, target);
        self.failed(a, target, backoff);
    }

    /// Removes and returns one retry that has come due.
    pub fn due_retry(&mut self) -> Option<Attempt> {
        let now = self.clock.now();
        let idx = self.retries.iter().position(|&(due, _)| due <= now)?;
        Some(self.retries.swap_remove(idx).1)
    }

    /// When the earliest scheduled retry comes due.
    pub fn next_retry(&self) -> Option<SimTime> {
        self.retries.iter().map(|&(due, _)| due).min()
    }

    /// Nothing in flight and nothing scheduled.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.retries.is_empty()
    }
}

/// The modelled pool around one real skeleton (`telemetry`, `warmpool`):
/// which member uids the balancer rotates over and which sit in the warm
/// tier, kept exactly as `ElasticPool` keeps them — standbys are
/// provisioned and heartbeating but outside the rotation and the scaling
/// samples until promoted. The rotation size is `rig.pool_size`, which a
/// load-sharing [`JitteredService`] divides its service time by.
#[derive(Default)]
pub struct ModelledPool {
    next_uid: u64,
    /// Members in the load-balancing rotation, with their slices.
    pub(crate) rotation: Vec<(u64, SliceGrant)>,
    /// Warm standbys, with their slices.
    pub(crate) standbys: Vec<(u64, SliceGrant)>,
    rr: usize,
    /// Standbys promoted into the rotation so far.
    pub(crate) promotions: usize,
}

impl ModelledPool {
    fn fresh_uid(&mut self) -> u64 {
        self.next_uid += 1;
        self.next_uid - 1
    }

    /// Puts a member into the rotation. `event` is emitted *before* the
    /// balancer can pick the member: a flip that routed first would show
    /// up as a standby-routed attempt.
    fn rotate_in(&mut self, rig: &SimRig, uid: u64, grant: SliceGrant, event: TraceEvent) {
        rig.trace.emit(rig.clock.now(), event);
        rig.pool_size.fetch_add(1, Ordering::SeqCst);
        self.rotation.push((uid, grant));
    }

    /// A fresh grant joins the rotation.
    pub fn join(&mut self, rig: &SimRig, grant: SliceGrant) {
        let uid = self.fresh_uid();
        self.rotate_in(rig, uid, grant, TraceEvent::MemberJoined { uid });
    }

    /// A fresh grant parks in the warm tier.
    pub fn standby(&mut self, rig: &SimRig, grant: SliceGrant) {
        let uid = self.fresh_uid();
        rig.trace
            .emit(rig.clock.now(), TraceEvent::StandbyJoined { uid });
        self.standbys.push((uid, grant));
    }

    /// The oldest standby is promoted into the rotation (the route-flip).
    pub fn promote(&mut self, rig: &SimRig) {
        let (uid, grant) = self.standbys.remove(0);
        self.rotate_in(rig, uid, grant, TraceEvent::MemberPromoted { uid });
        self.promotions += 1;
    }

    /// Round-robin over the rotation, exactly like the pool's balancer.
    pub fn route(&mut self) -> u64 {
        let (uid, _) = self.rotation[self.rr % self.rotation.len()];
        self.rr += 1;
        uid
    }

    fn drained(rig: &mut SimRig, uid: u64, grant: SliceGrant) {
        let now = rig.clock.now();
        rig.trace.emit(now, TraceEvent::MemberDrained { uid });
        let _ = rig.cluster.release(grant.slice, now);
    }

    /// Drains up to `k` members from the tail of the rotation — never
    /// member 0, which is the real skeleton.
    pub fn shrink(&mut self, rig: &mut SimRig, k: u32) {
        for _ in 0..k {
            if self.rotation.len() <= 1 {
                break;
            }
            let (uid, grant) = self.rotation.pop().expect("checked non-empty");
            rig.pool_size.fetch_sub(1, Ordering::SeqCst);
            Self::drained(rig, uid, grant);
        }
    }

    /// Quiesce: drains the whole rotation and hands back the warm tier's
    /// slices too. Anything the cluster still counts afterwards is a leak.
    pub fn release_all(&mut self, rig: &mut SimRig) {
        for (uid, grant) in self.rotation.drain(..) {
            Self::drained(rig, uid, grant);
        }
        for (_, grant) in self.standbys.drain(..) {
            let _ = rig.cluster.release(grant.slice, rig.clock.now());
        }
    }
}
