//! The skeleton: server-side representative of one pool member (paper §2.3).
//!
//! Beyond a classic Java RMI skeleton's unmarshal-dispatch-marshal duty, an
//! ElasticRMI skeleton also:
//!
//! * tracks per-method call statistics for the burst interval
//!   (`getMethodCallStats`),
//! * reports load (pending invocations, busy fraction, RAM, fine-grained
//!   vote) when the runtime polls it,
//! * obeys sentinel rebalance directives by redirecting a portion of
//!   incoming invocations to designated members, and
//! * executes the two-phase shutdown drain of §2.5: finish what is pending,
//!   redirect everything newer, then acknowledge readiness.
//!
//! Request intake and execution are split into two halves. [`Skeleton::ingest`]
//! takes a request through five stages, in order: (1) shard refusal, (2) the
//! reply cache's TTL sweep and duplicate lookup (replay, or park behind the
//! in-flight original), (3) the §2.5 drain (force what was pending at
//! `Shutdown`, shed the rest), (4) the rebalance shed, and (5) admission into
//! the bounded [`AdmissionQueue`] (admitted, expired, or `Overloaded`).
//! [`Skeleton::step`] culls queued requests whose deadline passed, then
//! executes one admitted request per the discipline, re-checking its shard
//! owner first. The event loop batch-drains the mailbox through `ingest`
//! before stepping, so under a burst the queue bound and EDF ordering apply
//! across the whole backlog rather than one message at a time.
//!
//! Each stage passes a request on or ends it, and every ending goes through
//! one answer path, `settle`: it completes or aborts the at-most-once
//! reply-cache entry and sends the same answer to the origin and to every
//! duplicate parked behind it.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use erm_admission::{
    suggest_retry_after, AdmissionConfig, AdmissionQueue, AdmissionStats, Admitted, RejectReason,
    Rejected,
};
use erm_metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsHandle, TraceEvent, TraceHandle,
};
use erm_semantics::{DedupStats, Lookup, ReplyCache, ReplyCacheConfig, Semantics};
use erm_sim::{SharedClock, SimDuration, SimTime};
use erm_transport::{buffers, Datagram, EndpointId, Mailbox, Network, RecvError};
use serde::Serialize;

use crate::api::{ElasticService, MethodCallStats, ServiceContext};
use crate::error::RemoteError;
use crate::message::{
    InvocationContext, LoadReport, MemberState, MethodStat, RequestHead, RmiMessage,
};
use crate::shard::{ShardRing, ShardingTable};

/// How long the receive loop blocks before re-checking control state.
const POLL_TICK: Duration = Duration::from_millis(5);

/// One attempt of an invocation, from its arrival until `settle` answers it.
/// The request stays in the payload it was delivered in; the method name
/// and the arguments are read where they lie.
#[derive(Debug)]
struct Attempt {
    from: EndpointId,
    call: u64,
    context: InvocationContext,
    payload: Vec<u8>,
    method: Range<usize>,
    args: Range<usize>,
}

impl Attempt {
    fn new(from: EndpointId, head: RequestHead, payload: Vec<u8>) -> Attempt {
        Attempt {
            from,
            call: head.call,
            context: head.context,
            payload,
            method: head.method,
            args: head.args,
        }
    }

    /// The method name. `request_head` checked it at intake, so this
    /// cannot fail; re-checking its few bytes keeps the crate free of
    /// `unsafe`.
    fn method(&self) -> &str {
        std::str::from_utf8(&self.payload[self.method.clone()]).expect("checked at intake")
    }

    fn args(&self) -> &[u8] {
        &self.payload[self.args.clone()]
    }
}

/// How an attempt ends. `settle` sends the message it makes to the origin
/// and to every duplicate parked behind it.
#[derive(Debug, Clone)]
enum Ending {
    /// Dispatched (or replayed from the reply cache): a `Response`.
    Executed(Result<Vec<u8>, RemoteError>),
    /// Its deadline passed before it ran: a deadline-exceeded `Response`.
    Expired(RemoteError),
    /// Its key's ring owner is another member: `WrongShard`.
    Misrouted { owner_uid: u64, owner: EndpointId },
    /// Shed to other members by the drain or a rebalance: `Redirected`.
    Shed(Vec<EndpointId>),
    /// The run queue is full: `Overloaded`.
    Overloaded {
        queue_depth: u32,
        retry_after: SimDuration,
    },
}

#[derive(Debug, Default)]
struct IntervalStats {
    methods: HashMap<String, (u64, u64)>, // (calls, total latency µs)
    busy_micros: u64,
    expired: u32,
    rejected: u32,
    queue_delay: HistogramSnapshot,
    started_at: Option<SimTime>,
}

impl IntervalStats {
    fn record(&mut self, method: &str, latency_us: u64) {
        match self.methods.get_mut(method) {
            Some((calls, total)) => {
                *calls += 1;
                *total += latency_us;
            }
            None => {
                self.methods.insert(method.to_string(), (1, latency_us));
            }
        }
        self.busy_micros += latency_us;
    }

    fn snapshot(&self) -> Vec<(String, MethodStat)> {
        self.methods
            .iter()
            .map(|(name, &(calls, total))| {
                (
                    name.clone(),
                    MethodStat {
                        calls,
                        mean_latency_us: (total / calls.max(1)),
                    },
                )
            })
            .collect()
    }
}

/// Runs one pool member: the skeleton event loop plus the hosted service.
///
/// Created by the pool runtime, one per granted slice, each on its own
/// thread. Public only for integration tests and custom runtimes; normal use
/// goes through `ElasticPool`.
pub struct Skeleton {
    uid: u64,
    endpoint: EndpointId,
    runtime_ctl: EndpointId,
    net: Arc<dyn Network>,
    clock: SharedClock,
    service: Box<dyn ElasticService>,
    ctx: ServiceContext,
    // Control state.
    epoch: u64,
    sentinel_uid: u64,
    members: Vec<MemberState>,
    draining: bool,
    finished: bool,
    drain_budget: usize,
    redirect_quota: Vec<(EndpointId, u32)>,
    interval: IntervalStats,
    served_since_start: u64,
    trace: TraceHandle,
    queue: AdmissionQueue<Attempt>,
    admission: AdmissionStats,
    /// Duplicate-suppression cache for `AtMostOnce` methods (wire v4),
    /// consulted *before* admission so suppressed attempts never occupy a
    /// run-queue slot.
    reply_cache: ReplyCache<Result<Vec<u8>, RemoteError>>,
    /// Last cache stats published to the shared metrics instruments; the
    /// diff is what gets added, so pool members aggregate correctly.
    published_dedup: DedupStats,
    published_cache_len: usize,
    /// Which methods carry a routing key (wire v5). Empty table = sharding
    /// off: `routing_key` is ignored and every member serves every key.
    sharding: ShardingTable,
    /// Consistent-hash ring rebuilt from each installed `StateBroadcast`.
    /// Only consulted when `sharding` is enabled.
    ring: ShardRing,
    /// Keyed requests refused with `WrongShard` since start.
    misrouted: u64,
    // Registry instruments; disabled (no-op) unless `set_metrics` was called.
    queue_delay_hist: Histogram,
    service_time_hist: Histogram,
    dedup_hits: Counter,
    dedup_replayed: Counter,
    dedup_evicted: Counter,
    dedup_size: Gauge,
    shard_misrouted: Counter,
}

impl Skeleton {
    /// Assembles a skeleton for member `uid` listening on `endpoint`.
    /// `admission` bounds the run queue; `None` keeps the legacy unbounded
    /// FIFO behaviour (no `Overloaded` rejections).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        uid: u64,
        endpoint: EndpointId,
        runtime_ctl: EndpointId,
        net: Arc<dyn Network>,
        clock: SharedClock,
        service: Box<dyn ElasticService>,
        ctx: ServiceContext,
        trace: TraceHandle,
        admission: Option<AdmissionConfig>,
    ) -> Self {
        Skeleton {
            uid,
            endpoint,
            runtime_ctl,
            net,
            clock,
            service,
            ctx,
            trace,
            epoch: 0,
            sentinel_uid: uid,
            members: Vec::new(),
            draining: false,
            finished: false,
            drain_budget: 0,
            redirect_quota: Vec::new(),
            interval: IntervalStats::default(),
            served_since_start: 0,
            queue: admission.map_or_else(AdmissionQueue::unbounded_fifo, AdmissionQueue::new),
            admission: AdmissionStats::default(),
            reply_cache: ReplyCache::new(ReplyCacheConfig::default()),
            published_dedup: DedupStats::default(),
            published_cache_len: 0,
            sharding: ShardingTable::default(),
            ring: ShardRing::default(),
            misrouted: 0,
            queue_delay_hist: Histogram::disabled(),
            service_time_hist: Histogram::disabled(),
            dedup_hits: Counter::disabled(),
            dedup_replayed: Counter::disabled(),
            dedup_evicted: Counter::disabled(),
            dedup_size: Gauge::disabled(),
            shard_misrouted: Counter::disabled(),
        }
    }

    /// Replaces the reply-cache tuning (grace window, entry/byte caps).
    /// Call before the skeleton starts serving; swapping the cache mid-run
    /// would forget in-flight suppression state.
    pub fn set_reply_cache(&mut self, config: ReplyCacheConfig) {
        self.reply_cache = ReplyCache::new(config);
    }

    /// Installs the pool's per-method routing-key table (wire v5). With a
    /// non-empty table the skeleton enforces key affinity: a keyed request
    /// whose ring owner is another member is refused with `WrongShard`
    /// instead of executed. Call before the skeleton starts serving.
    pub fn set_sharding(&mut self, table: ShardingTable) {
        self.sharding = table;
    }

    /// Keyed requests refused with `WrongShard` since start.
    pub fn misrouted(&self) -> u64 {
        self.misrouted
    }

    /// Registers this skeleton's instruments (`skeleton.queue.delay`,
    /// `skeleton.service.time`) on `metrics`. All pool members share the
    /// same named histograms, so the registry aggregates across the pool.
    pub fn set_metrics(&mut self, metrics: &MetricsHandle) {
        self.queue_delay_hist = metrics.histogram("skeleton.queue.delay");
        self.service_time_hist = metrics.histogram("skeleton.service.time");
        // Duplicate-suppression instruments (wire v4). Registered eagerly so
        // they appear in CSV exports even before the first suppression; the
        // gauge is updated by deltas so it sums across pool members.
        self.dedup_hits = metrics.counter("rmi.dedup.hits");
        self.dedup_replayed = metrics.counter("rmi.dedup.replayed");
        self.dedup_evicted = metrics.counter("rmi.dedup.evicted");
        self.dedup_size = metrics.gauge("rmi.dedup.cache.size");
        // Keyed-routing refusals (wire v5); summed across pool members.
        self.shard_misrouted = metrics.counter("rmi.shard.misrouted");
    }

    /// This member's uid.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Total requests served since start (used in tests).
    pub fn served(&self) -> u64 {
        self.served_since_start
    }

    /// Requests currently admitted and waiting in the run queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Admission decisions taken since start.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission
    }

    /// Duplicate-suppression counters for this member's reply cache.
    pub fn dedup_stats(&self) -> DedupStats {
        self.reply_cache.stats()
    }

    /// Runs a deterministic TTL sweep at the current sim time and returns
    /// the live entries left. Harnesses call this at quiesce to prove the
    /// cache drains to zero once every deadline (+ grace) has passed.
    pub fn sweep_reply_cache(&mut self) -> usize {
        let now = self.clock.now();
        self.reply_cache.expire(now);
        self.sync_dedup_metrics();
        self.reply_cache.len()
    }

    /// Publishes the diff between the cache's internal counters and what was
    /// last pushed to the shared metrics instruments. `ingest`, `step` and
    /// `sweep_reply_cache` each end with it, so the registry is current
    /// between calls.
    fn sync_dedup_metrics(&mut self) {
        let s = self.reply_cache.stats();
        let len = self.reply_cache.len();
        // Nothing changes for an at-least-once request: leave the shared
        // atomics alone.
        if s == self.published_dedup && len == self.published_cache_len {
            return;
        }
        self.dedup_hits.add(s.hits - self.published_dedup.hits);
        self.dedup_replayed
            .add(s.replayed - self.published_dedup.replayed);
        self.dedup_evicted
            .add(s.evicted - self.published_dedup.evicted);
        self.published_dedup = s;
        self.dedup_size
            .add(len as i64 - self.published_cache_len as i64);
        self.published_cache_len = len;
    }

    /// Runs the event loop until shutdown completes or the mailbox closes.
    /// This is the thread body of a pool member.
    pub fn run(mut self, mailbox: Mailbox) {
        self.start();
        loop {
            match mailbox.recv_timeout(POLL_TICK) {
                Ok(datagram) => {
                    self.ingest_datagram(datagram, &mailbox);
                    // Batch-drain every queued arrival before executing, so
                    // the admission bound and run-queue discipline apply
                    // across the whole backlog of a burst.
                    while let Ok(d) = mailbox.try_recv() {
                        self.ingest_datagram(d, &mailbox);
                    }
                    while self.step() {}
                    if self.finished {
                        break;
                    }
                }
                Err(RecvError::Timeout) => {
                    if self.idle(&mailbox) {
                        break;
                    }
                }
                Err(RecvError::Closed) => break,
            }
        }
    }

    /// The member's prologue: the service's `on_start`, and the first
    /// burst interval opens. Every driver calls it once before serving.
    pub fn start(&mut self) {
        self.service.on_start(&mut self.ctx);
        self.interval.started_at = Some(self.clock.now());
    }

    /// What a member does when its mailbox is quiet: executes everything
    /// admitted, then, if it is draining and nothing is left, finishes its
    /// shutdown. Returns `true` once the skeleton is done.
    pub fn idle(&mut self, mailbox: &Mailbox) -> bool {
        while self.step() {}
        if !self.finished && self.draining && mailbox.is_empty() && self.queue.is_empty() {
            self.finish_shutdown();
        }
        self.finished
    }

    /// The one way a request enters the skeleton: a `Request` is kept in
    /// the payload it was delivered in and goes through the five intake
    /// stages (see the module doc); anything else is decoded and applied as
    /// [`Skeleton::ingest`] applies it. A malformed datagram is dropped.
    /// Returns `true` when the skeleton should exit.
    pub fn ingest_datagram(&mut self, datagram: Datagram, mailbox: &Mailbox) -> bool {
        let Datagram { from, payload } = datagram;
        if let Some(head) = RmiMessage::request_head(&payload) {
            let pending = self.spend_drain_budget();
            self.on_request(Attempt::new(from, head, payload), pending);
            return self.end_intake();
        }
        match RmiMessage::decode(&payload) {
            Ok(msg) => self.ingest_control(from, msg, mailbox),
            Err(_) => false, // malformed datagrams are dropped
        }
    }

    /// Handles one message to completion: admits it via [`Skeleton::ingest`]
    /// and then pumps [`Skeleton::step`] until the run queue is empty.
    /// Returns `true` when the skeleton should exit. Exposed for
    /// deterministic unit tests; a `Request` is encoded first, as
    /// [`Skeleton::ingest`] says.
    pub fn handle(&mut self, from: EndpointId, msg: RmiMessage, mailbox: &Mailbox) -> bool {
        self.ingest(from, msg, mailbox);
        while self.step() {}
        self.finished
    }

    /// The intake half of the skeleton for a decoded message: control
    /// messages are applied immediately; a `Request` is encoded and goes
    /// through [`Skeleton::ingest_datagram`], the one request intake, which
    /// runs the five intake stages (see the module doc) but does **not**
    /// execute it. Returns `true` when the skeleton should exit.
    pub fn ingest(&mut self, from: EndpointId, msg: RmiMessage, mailbox: &Mailbox) -> bool {
        if let RmiMessage::Request { .. } = msg {
            let payload = msg.encode();
            return self.ingest_datagram(Datagram { from, payload }, mailbox);
        }
        self.ingest_control(from, msg, mailbox)
    }

    /// §2.5: every message that sat in the mailbox when `Shutdown` arrived
    /// spends one unit of the drain budget, whatever its kind. Returns
    /// whether this one spent a unit: a request that did was pending, and
    /// is still executed.
    fn spend_drain_budget(&mut self) -> bool {
        let pending = self.drain_budget > 0;
        self.drain_budget = self.drain_budget.saturating_sub(1);
        pending
    }

    /// What every intake ends with. Spending the last unit of the drain
    /// budget, or a `Shutdown` with nothing pending, may end the drain.
    fn end_intake(&mut self) -> bool {
        self.check_drain_done();
        self.sync_dedup_metrics();
        self.finished
    }

    /// Applies one message of the discovery and control planes.
    fn ingest_control(&mut self, from: EndpointId, msg: RmiMessage, mailbox: &Mailbox) -> bool {
        self.spend_drain_budget();
        match msg {
            RmiMessage::PoolInfoRequest => {
                let members: Vec<EndpointId> = self.members.iter().map(|m| m.endpoint).collect();
                let uids: Vec<u64> = self.members.iter().map(|m| m.uid).collect();
                let sentinel = self
                    .members
                    .iter()
                    .find(|m| m.uid == self.sentinel_uid)
                    .map_or(self.endpoint, |m| m.endpoint);
                self.send(
                    from,
                    RmiMessage::PoolInfo {
                        epoch: self.epoch,
                        sentinel,
                        members,
                        uids,
                    },
                );
            }
            RmiMessage::PollLoad => {
                // Pending = undrained mailbox plus *live* queued work;
                // deadline-expired entries are excluded so the sentinel's
                // redirect planner never moves dead work.
                let pending = mailbox.len() as u32 + self.queue.live_len(self.clock.now());
                let report = self.make_load_report(pending);
                self.send(from, RmiMessage::Load(report));
            }
            RmiMessage::StateBroadcast {
                epoch,
                sentinel_uid,
                members,
            } => {
                if epoch >= self.epoch {
                    self.epoch = epoch;
                    self.sentinel_uid = sentinel_uid;
                    self.members = members;
                    // Scope the reply cache to the membership epoch: entries
                    // stay valid (the at-most-once contract is per
                    // invocation), but carryover across re-elections is
                    // counted so churn-era suppression stays observable.
                    self.reply_cache.set_epoch(epoch);
                    // The ring is a pure function of the membership, so
                    // every member (and every stub) derives the same one
                    // from the same broadcast — the epoch is the ring
                    // version and handoff needs no extra coordination.
                    let seats: Vec<(u64, EndpointId)> =
                        self.members.iter().map(|m| (m.uid, m.endpoint)).collect();
                    self.ring = ShardRing::from_members(&seats);
                }
            }
            // A zero quota sheds nothing; queued, it would wrap on the
            // first take and shed without end.
            RmiMessage::Rebalance { to, count } => {
                if count > 0 {
                    self.redirect_quota.push((to, count));
                }
            }
            RmiMessage::Shutdown => {
                // §2.5: acknowledge, finish pending invocations (those
                // already queued in the mailbox or admitted to the run
                // queue), then notify readiness. Work already admitted
                // executes via `step` without spending the budget.
                self.draining = true;
                self.drain_budget = mailbox.len();
            }
            // Requests come in through `ingest_datagram`; the rest are
            // messages a skeleton never consumes.
            RmiMessage::Request { .. }
            | RmiMessage::Response { .. }
            | RmiMessage::Redirected { .. }
            | RmiMessage::Overloaded { .. }
            | RmiMessage::WrongShard { .. }
            | RmiMessage::PoolInfo { .. }
            | RmiMessage::Load(_)
            | RmiMessage::ShutdownReady { .. }
            | RmiMessage::Retired11
            | RmiMessage::Retired12 => {}
        }
        self.end_intake()
    }

    /// The five intake stages, in order. Each either passes the attempt on
    /// or ends it through `settle` (via `expire` or `shed` where those
    /// count and trace the ending first).
    fn on_request(&mut self, attempt: Attempt, pending: bool) {
        let now = self.clock.now();
        let context = attempt.context;
        // 1. Shard refusal. Key affinity comes first: a misrouted request
        // must never touch the reply cache or an admission slot on a
        // non-owner — executing it here would defeat the locality sharding
        // exists to provide.
        if let Some(refusal) = self.shard_refusal(&context) {
            return self.settle(&attempt, false, refusal);
        }
        // 2. TTL sweep first so a dead entry can never shadow live work,
        // then the duplicate check — *before* any admission decision, so a
        // suppressed attempt never occupies a run-queue slot and a draining
        // member replays cached replies instead of redirecting duplicates.
        self.reply_cache.expire(now);
        if context.semantics == Semantics::AtMostOnce {
            match self.reply_cache.lookup(
                context.origin,
                context.id,
                attempt.from,
                attempt.call,
                now,
            ) {
                Lookup::Miss => {}
                // A duplicate of an in-flight invocation: merged into the
                // first execution, settled with it.
                Lookup::Parked => return,
                // A duplicate of a finished one: answered as a parked
                // duplicate would have been.
                Lookup::Replay(outcome) => {
                    return self.answer(
                        attempt.from,
                        attempt.call,
                        &context,
                        Ending::Executed(outcome),
                        true,
                    );
                }
            }
        }
        // 3. Drain (§2.5). A request that was pending at `Shutdown` is still
        // executed, so it bypasses the capacity check — but not the
        // deadline. Anything newer goes to the other members.
        if pending {
            return match self.queue.force(now, context.deadline, attempt) {
                Ok(_) => self.begin_dedup(&context),
                Err(rejected) => self.refuse_at_door(now, rejected),
            };
        }
        if self.draining {
            let others = self
                .members
                .iter()
                .filter(|m| m.uid != self.uid)
                .map(|m| m.endpoint)
                .collect();
            return self.shed(now, attempt, others);
        }
        // 4. Rebalance shed: the sentinel told this member to shed a portion
        // of incoming invocations.
        if let Some(target) = self.take_redirect_quota() {
            return self.shed(now, attempt, vec![target]);
        }
        // 5. Admission.
        match self.queue.offer(now, context.deadline, attempt) {
            Ok(depth) => {
                self.admission.admitted += 1;
                self.begin_dedup(&context);
                self.trace.emit(
                    now,
                    TraceEvent::RequestAdmitted {
                        uid: self.uid,
                        invocation: context.id,
                        depth,
                    },
                );
            }
            Err(rejected) => self.refuse_at_door(now, rejected),
        }
    }

    /// Answers an attempt the run queue would not take: expired on arrival,
    /// or refused `Overloaded` *before* queueing — an early, explicit
    /// rejection with a retry hint beats letting the request die by
    /// deadline behind a full queue.
    fn refuse_at_door(&mut self, now: SimTime, rejected: Rejected<Attempt>) {
        let attempt = rejected.item;
        match rejected.reason {
            RejectReason::Expired { late_by } => self.expire(now, attempt, late_by, false),
            RejectReason::QueueFull { depth } => {
                self.interval.rejected += 1;
                self.admission.rejected += 1;
                let retry_after = suggest_retry_after(depth, self.mean_service());
                self.trace.emit(
                    now,
                    TraceEvent::RequestOverloaded {
                        uid: self.uid,
                        invocation: attempt.context.id,
                        queue_depth: depth,
                        retry_after,
                    },
                );
                let overloaded = Ending::Overloaded {
                    queue_depth: depth,
                    retry_after,
                };
                self.settle(&attempt, false, overloaded);
            }
        }
    }

    /// The refusal of a keyed request this member does not own, naming the
    /// ring owner so the stub can retry there directly. `None` unless
    /// sharding is enabled, the context carries a routing key, and a
    /// membership view has been installed (an empty ring means this member
    /// has not yet heard who owns what — refusing would deadlock bootstrap).
    fn shard_refusal(&self, context: &InvocationContext) -> Option<Ending> {
        if !self.sharding.is_enabled() {
            return None;
        }
        let key = context.routing_key?;
        if self.ring.is_empty() || self.ring.owns(self.uid, key) {
            return None;
        }
        let owner_uid = self.ring.owner_uid(key)?;
        let owner = self.ring.endpoint_of(owner_uid)?;
        Some(Ending::Misrouted { owner_uid, owner })
    }

    /// Executes at most one admitted request: culls (and answers) every
    /// queued entry whose deadline passed, then pops the next runnable one
    /// per the discipline and dispatches it. Returns `true` if any work was
    /// done (a cull or a dispatch), `false` when the queue is idle.
    pub fn step(&mut self) -> bool {
        let now = self.clock.now();
        let culled = self.queue.cull(now);
        let mut worked = !culled.is_empty();
        for dead in culled {
            // The invocation died unexecuted: its in-progress cache entry
            // is dropped (a fresh retry would be legal — it just can't beat
            // the deadline).
            self.expire(now, dead.item, now.saturating_since(dead.deadline), true);
        }
        if let Some(admitted) = self.queue.pop(now) {
            self.dispatch(admitted);
            worked = true;
        }
        if worked {
            self.check_drain_done();
        }
        self.sync_dedup_metrics();
        worked
    }

    fn dispatch(&mut self, admitted: Admitted<Attempt>) {
        let queue_delay = admitted.queue_delay;
        let mut attempt = admitted.item;
        // Re-check ownership at dispatch time: a handoff can land between
        // admission and execution, and running the method then would be a
        // misrouted execution — the invariant the sharded harness gates at
        // zero. Refuse late rather than execute on a non-owner.
        if let Some(refusal) = self.shard_refusal(&attempt.context) {
            return self.settle(&attempt, true, refusal);
        }
        self.interval.queue_delay.record(queue_delay);
        self.queue_delay_hist.record(queue_delay);
        let start = self.clock.now();
        self.ctx.set_invocation(Some(attempt.context));
        let outcome = self
            .service
            .dispatch(attempt.method(), attempt.args(), &mut self.ctx);
        self.ctx.set_invocation(None);
        let end = self.clock.now();
        let latency = end.saturating_since(start);
        self.interval.record(attempt.method(), latency.as_micros());
        // The request still sits in the buffer the transport delivered it
        // in; the next inbound payload of that size reuses it.
        buffers::recycle(std::mem::take(&mut attempt.payload));
        self.service_time_hist.record(latency);
        self.served_since_start += 1;
        // Server-side span anchor: lets trace consumers reconstruct the
        // queue-wait and execute children of this attempt.
        self.trace.emit(
            end,
            TraceEvent::RequestExecuted {
                uid: self.uid,
                invocation: attempt.context.id,
                queued_for: queue_delay,
                ran_for: latency,
            },
        );
        self.settle(&attempt, true, Ending::Executed(outcome));
    }

    /// Records an admitted `AtMostOnce` invocation as in flight. Called only
    /// after admission accepted the request — an entry for a rejected
    /// attempt would blackhole legitimate retries until its TTL.
    fn begin_dedup(&mut self, context: &InvocationContext) {
        if context.semantics == Semantics::AtMostOnce {
            self.reply_cache
                .begin(context.origin, context.id, context.deadline);
        }
    }

    /// Ends an attempt whose deadline passed before it ran: on arrival, or
    /// culled from the run queue (`admitted`).
    fn expire(&mut self, now: SimTime, attempt: Attempt, late_by: SimDuration, admitted: bool) {
        self.interval.expired += 1;
        if admitted {
            self.admission.culled += 1;
        }
        self.trace.emit(
            now,
            TraceEvent::RequestExpired {
                uid: self.uid,
                invocation: attempt.context.id,
                late_by,
            },
        );
        let error = RemoteError::deadline_exceeded(attempt.method(), late_by);
        self.settle(&attempt, admitted, Ending::Expired(error));
    }

    /// Sheds an attempt sideways to `members`: the drain's redirect or a
    /// rebalance.
    fn shed(&mut self, now: SimTime, attempt: Attempt, members: Vec<EndpointId>) {
        self.admission.shed += 1;
        self.trace.emit(
            now,
            TraceEvent::RequestShed {
                uid: self.uid,
                invocation: attempt.context.id,
            },
        );
        self.settle(&attempt, false, Ending::Shed(members));
    }

    /// The one answer path. An `admitted` at-most-once attempt holds its
    /// reply-cache entry: executing completes it (the reply is cached for
    /// future duplicates, charged by payload size), any other ending aborts
    /// it (a retry is legal again, because the invocation never ran). Every
    /// duplicate parked on the entry then gets the origin's answer under its
    /// own call id — after the origin for a refusal, before it otherwise.
    fn settle(&mut self, attempt: &Attempt, admitted: bool, ending: Ending) {
        let context = &attempt.context;
        let parked = if admitted && context.semantics == Semantics::AtMostOnce {
            match &ending {
                Ending::Executed(outcome) => {
                    let bytes = outcome.as_ref().map_or(0, Vec::len);
                    self.reply_cache
                        .complete(context.origin, context.id, outcome.clone(), bytes)
                }
                _ => self.reply_cache.abort(context.origin, context.id),
            }
        } else {
            Vec::new()
        };
        let origin_first = matches!(ending, Ending::Misrouted { .. });
        if origin_first {
            self.answer(attempt.from, attempt.call, context, ending.clone(), false);
        }
        for p in parked {
            self.answer(p.from, p.call, context, ending.clone(), true);
        }
        if !origin_first {
            self.answer(attempt.from, attempt.call, context, ending, false);
        }
    }

    /// Sends `ending`'s message for one attempt of `context`'s invocation;
    /// a `duplicate`'s `Response` is flagged `replayed`.
    fn answer(
        &mut self,
        to: EndpointId,
        call: u64,
        context: &InvocationContext,
        ending: Ending,
        duplicate: bool,
    ) {
        let msg = match ending {
            Ending::Executed(outcome) => RmiMessage::Response {
                call,
                outcome,
                replayed: duplicate,
            },
            Ending::Expired(error) => RmiMessage::Response {
                call,
                outcome: Err(error),
                replayed: duplicate,
            },
            Ending::Misrouted { owner_uid, owner } => {
                self.misrouted += 1;
                self.shard_misrouted.add(1);
                self.trace.emit(
                    self.clock.now(),
                    TraceEvent::RequestMisrouted {
                        uid: self.uid,
                        invocation: context.id,
                        owner_uid,
                    },
                );
                // Carry the current epoch so the stub can tell a fresher
                // view from its own.
                RmiMessage::WrongShard {
                    call,
                    epoch: self.epoch,
                    owner,
                    deadline: context.deadline,
                }
            }
            // Echo the deadline so the follow-up attempt runs under the
            // remaining budget, never a fresh one.
            Ending::Shed(members) => RmiMessage::Redirected {
                call,
                members,
                deadline: context.deadline,
            },
            Ending::Overloaded {
                queue_depth,
                retry_after,
            } => RmiMessage::Overloaded {
                call,
                queue_depth,
                retry_after,
            },
        };
        self.send(to, msg);
    }

    fn check_drain_done(&mut self) {
        if self.draining && self.drain_budget == 0 && self.queue.is_empty() {
            self.finish_shutdown();
        }
    }

    /// Mean service latency over the current burst interval, used to size
    /// `Overloaded` retry hints.
    fn mean_service(&self) -> SimDuration {
        let calls: u64 = self.interval.methods.values().map(|&(c, _)| c).sum();
        self.interval
            .busy_micros
            .checked_div(calls)
            .map_or(SimDuration::ZERO, SimDuration::from_micros)
    }

    fn take_redirect_quota(&mut self) -> Option<EndpointId> {
        let (target, remaining) = self.redirect_quota.first_mut().map(|(t, c)| {
            *c -= 1;
            (*t, *c)
        })?;
        if remaining == 0 {
            self.redirect_quota.remove(0);
        }
        Some(target)
    }

    fn make_load_report(&mut self, pending: u32) -> LoadReport {
        let now = self.clock.now();
        let elapsed = self
            .interval
            .started_at
            .map_or(SimDuration::ZERO, |t| now.saturating_since(t));
        let busy = if elapsed.is_zero() {
            0.0
        } else {
            (self.interval.busy_micros as f64 / elapsed.as_micros() as f64 * 100.0).min(100.0)
                as f32
        };
        let stats_vec = self.interval.snapshot();
        let stats = MethodCallStats::new(elapsed, stats_vec.iter().cloned().collect())
            .with_expired(self.interval.expired);
        let vote = self.service.change_pool_size(&stats, &mut self.ctx);
        let delay_us = |q| {
            let quantile = self.interval.queue_delay.quantile(q);
            quantile.map_or(0, SimDuration::as_micros)
        };
        let report = LoadReport {
            uid: self.uid,
            pending,
            busy,
            ram: self.service.ram_utilization(),
            fine_vote: Some(vote),
            expired: self.interval.expired,
            method_stats: stats_vec,
            rejected: self.interval.rejected,
            queue_delay_p50_us: delay_us(0.5),
            queue_delay_p99_us: delay_us(0.99),
            epoch: self.epoch,
        };
        // Burst interval rolls over after each poll.
        self.interval = IntervalStats {
            started_at: Some(now),
            ..IntervalStats::default()
        };
        report
    }

    fn finish_shutdown(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.service.on_shutdown(&mut self.ctx);
        self.send(
            self.runtime_ctl,
            RmiMessage::ShutdownReady { uid: self.uid },
        );
    }

    fn send(&self, to: EndpointId, msg: RmiMessage) {
        // A result is encoded into a buffer of its exact size (variant,
        // call, `Ok` tag, byte run, `replayed`), never regrown.
        let len = match &msg {
            RmiMessage::Response {
                outcome: Ok(bytes), ..
            } => 4 + 8 + 4 + 4 + bytes.len() + 1,
            _ => 0,
        };
        let mut payload = buffers::take(len);
        msg.serialize(&mut payload);
        debug_assert!(len == 0 || payload.len() == len, "result sized exactly");
        let _ = self.net.send(self.endpoint, to, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::decode_args;
    use crate::error::RemoteError;
    use erm_kvstore::{Store, StoreConfig};
    use erm_sim::VirtualClock;
    use erm_transport::{Host, InProcNetwork};
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Echo service: returns its argument; "fail" raises a remote error.
    struct Echo;
    impl ElasticService for Echo {
        fn dispatch(
            &mut self,
            method: &str,
            args: &[u8],
            _ctx: &mut ServiceContext,
        ) -> Result<Vec<u8>, RemoteError> {
            match method {
                "echo" => {
                    let s: String = decode_args(method, args)?;
                    crate::api::encode_result(&s)
                }
                "fail" => Err(RemoteError::new("AppError", "requested failure")),
                other => Err(RemoteError::no_such_method(other)),
            }
        }
        fn ram_utilization(&self) -> f32 {
            37.5
        }
    }

    /// Non-idempotent service: every dispatch increments a shared counter
    /// and returns the post-increment value, so a duplicate execution is
    /// visible both in the counter and in the divergent reply payloads.
    struct CountingService {
        executions: Arc<AtomicU32>,
    }
    impl ElasticService for CountingService {
        fn dispatch(
            &mut self,
            _method: &str,
            _args: &[u8],
            _ctx: &mut ServiceContext,
        ) -> Result<Vec<u8>, RemoteError> {
            let n = self.executions.fetch_add(1, Ordering::SeqCst) + 1;
            crate::api::encode_result(&n)
        }
    }

    struct Rig {
        net: InProcNetwork,
        clock: Arc<VirtualClock>,
        skeleton: Skeleton,
        skeleton_mailbox: Mailbox,
        client: EndpointId,
        client_mailbox: Mailbox,
        runtime: EndpointId,
        runtime_mailbox: Mailbox,
    }

    fn rig() -> Rig {
        rig_with_admission(None)
    }

    fn rig_with_admission(admission: Option<AdmissionConfig>) -> Rig {
        rig_with_service(admission, Box::new(Echo))
    }

    fn rig_with_service(
        admission: Option<AdmissionConfig>,
        service: Box<dyn ElasticService>,
    ) -> Rig {
        let net = InProcNetwork::new();
        let (skel_ep, skel_mb) = net.open();
        let (client, client_mb) = net.open();
        let (runtime, runtime_mb) = net.open();
        let clock = Arc::new(VirtualClock::new());
        let store = Arc::new(Store::new(StoreConfig::default()));
        let ctx = ServiceContext::new(
            store,
            "Echo",
            0,
            Arc::<VirtualClock>::clone(&clock) as SharedClock,
            Arc::new(AtomicU32::new(1)),
        );
        let skeleton = Skeleton::new(
            0,
            skel_ep,
            runtime,
            Arc::new(net.clone()),
            Arc::<VirtualClock>::clone(&clock) as SharedClock,
            service,
            ctx,
            TraceHandle::disabled(),
            admission,
        );
        Rig {
            net,
            clock,
            skeleton,
            skeleton_mailbox: skel_mb,
            client,
            client_mailbox: client_mb,
            runtime,
            runtime_mailbox: runtime_mb,
        }
    }

    fn recv(mb: &Mailbox) -> RmiMessage {
        RmiMessage::decode(&mb.try_recv().expect("message expected").payload).unwrap()
    }

    /// A context with plenty of budget left on the rig's virtual clock.
    fn live_ctx(id: u64) -> InvocationContext {
        InvocationContext {
            semantics: Semantics::AtLeastOnce,
            id,
            deadline: SimTime::from_secs(1_000),
            attempt: 1,
            origin: EndpointId(500),
            routing_key: None,
        }
    }

    #[test]
    fn dispatches_and_responds() {
        let mut r = rig();
        let args = erm_transport::to_bytes(&"hi".to_string()).unwrap();
        r.skeleton.handle(
            r.client,
            RmiMessage::Request {
                call: 1,
                context: live_ctx(1),
                method: "echo".into(),
                args,
            },
            &r.skeleton_mailbox,
        );
        match recv(&r.client_mailbox) {
            RmiMessage::Response {
                replayed: _,
                call: 1,
                outcome: Ok(bytes),
            } => {
                let s: String = erm_transport::from_bytes(&bytes).unwrap();
                assert_eq!(s, "hi");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.skeleton.served(), 1);
    }

    #[test]
    fn remote_errors_propagate() {
        let mut r = rig();
        r.skeleton.handle(
            r.client,
            RmiMessage::Request {
                call: 2,
                context: live_ctx(2),
                method: "fail".into(),
                args: vec![],
            },
            &r.skeleton_mailbox,
        );
        match recv(&r.client_mailbox) {
            RmiMessage::Response {
                replayed: _,
                call: 2,
                outcome: Err(e),
            } => assert_eq!(e.kind, "AppError"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_method_is_remote_error() {
        let mut r = rig();
        r.skeleton.handle(
            r.client,
            RmiMessage::Request {
                call: 3,
                context: live_ctx(3),
                method: "nope".into(),
                args: vec![],
            },
            &r.skeleton_mailbox,
        );
        match recv(&r.client_mailbox) {
            RmiMessage::Response {
                outcome: Err(e), ..
            } => assert_eq!(e.kind, "NoSuchMethod"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dropped_reply_retry_executes_twice_without_protection() {
        // The failing half of the duplicate-execution repro: a lost reply
        // makes the stub retransmit, and under the default `AtLeastOnce`
        // contract the skeleton happily runs the method again — one
        // invocation, two executions, divergent replies.
        let executions = Arc::new(AtomicU32::new(0));
        let mut r = rig_with_service(
            None,
            Box::new(CountingService {
                executions: Arc::clone(&executions),
            }),
        );
        let mut ctx = live_ctx(1);
        assert_eq!(ctx.semantics, Semantics::AtLeastOnce);
        r.skeleton.handle(
            r.client,
            RmiMessage::Request {
                call: 1,
                context: ctx,
                method: "incr".into(),
                args: vec![],
            },
            &r.skeleton_mailbox,
        );
        // The network "drops" the first reply; the stub's retry arrives with
        // the same invocation id and a bumped attempt counter.
        let _lost = recv(&r.client_mailbox);
        ctx.attempt = 2;
        r.skeleton.handle(
            r.client,
            RmiMessage::Request {
                call: 2,
                context: ctx,
                method: "incr".into(),
                args: vec![],
            },
            &r.skeleton_mailbox,
        );
        match recv(&r.client_mailbox) {
            RmiMessage::Response {
                call: 2,
                outcome: Ok(bytes),
                replayed: false,
            } => {
                let n: u32 = erm_transport::from_bytes(&bytes).unwrap();
                assert_eq!(n, 2, "retry observed the second execution");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            executions.load(Ordering::SeqCst),
            2,
            "unprotected retry re-executed the non-idempotent method"
        );
    }

    #[test]
    fn at_most_once_suppresses_duplicate_and_replays_cached_reply() {
        // The fixed half: the same dropped-reply scenario under `AtMostOnce`
        // executes once; the duplicate is answered from the reply cache with
        // a byte-identical payload and the `replayed` flag set.
        let executions = Arc::new(AtomicU32::new(0));
        let mut r = rig_with_service(
            None,
            Box::new(CountingService {
                executions: Arc::clone(&executions),
            }),
        );
        let mut ctx = live_ctx(1);
        ctx.semantics = Semantics::AtMostOnce;
        r.skeleton.handle(
            r.client,
            RmiMessage::Request {
                call: 1,
                context: ctx,
                method: "incr".into(),
                args: vec![],
            },
            &r.skeleton_mailbox,
        );
        let first = match recv(&r.client_mailbox) {
            RmiMessage::Response {
                call: 1,
                outcome: Ok(bytes),
                replayed: false,
            } => bytes,
            other => panic!("unexpected {other:?}"),
        };
        ctx.attempt = 2;
        r.skeleton.handle(
            r.client,
            RmiMessage::Request {
                call: 2,
                context: ctx,
                method: "incr".into(),
                args: vec![],
            },
            &r.skeleton_mailbox,
        );
        match recv(&r.client_mailbox) {
            RmiMessage::Response {
                call: 2,
                outcome: Ok(bytes),
                replayed: true,
            } => assert_eq!(bytes, first, "replay must be byte-identical"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(executions.load(Ordering::SeqCst), 1, "executed once");
        let stats = r.skeleton.dedup_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.replayed, 1);
    }

    #[test]
    fn poll_load_reports_and_resets_interval() {
        let mut r = rig();
        let args = erm_transport::to_bytes(&"x".to_string()).unwrap();
        for call in 0..5 {
            r.skeleton.handle(
                r.client,
                RmiMessage::Request {
                    call,
                    context: live_ctx(call),
                    method: "echo".into(),
                    args: args.clone(),
                },
                &r.skeleton_mailbox,
            );
        }
        while r.client_mailbox.try_recv().is_ok() {}
        r.skeleton
            .handle(r.runtime, RmiMessage::PollLoad, &r.skeleton_mailbox);
        match recv(&r.runtime_mailbox) {
            RmiMessage::Load(report) => {
                assert_eq!(report.uid, 0);
                assert_eq!(report.ram, 37.5);
                assert_eq!(report.fine_vote, Some(0));
                let echo = report
                    .method_stats
                    .iter()
                    .find(|(m, _)| m == "echo")
                    .expect("echo stats");
                assert_eq!(echo.1.calls, 5);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Second poll: interval was reset.
        r.skeleton
            .handle(r.runtime, RmiMessage::PollLoad, &r.skeleton_mailbox);
        match recv(&r.runtime_mailbox) {
            RmiMessage::Load(report) => assert!(report.method_stats.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn state_broadcast_updates_membership_and_pool_info() {
        let mut r = rig();
        let members = vec![
            MemberState {
                endpoint: EndpointId(90),
                uid: 0,
            },
            MemberState {
                endpoint: EndpointId(91),
                uid: 1,
            },
        ];
        r.skeleton.handle(
            r.runtime,
            RmiMessage::StateBroadcast {
                epoch: 4,
                sentinel_uid: 0,
                members: members.clone(),
            },
            &r.skeleton_mailbox,
        );
        r.skeleton
            .handle(r.client, RmiMessage::PoolInfoRequest, &r.skeleton_mailbox);
        match recv(&r.client_mailbox) {
            RmiMessage::PoolInfo {
                epoch,
                sentinel,
                members,
                uids,
            } => {
                assert_eq!(epoch, 4);
                assert_eq!(sentinel, EndpointId(90));
                assert_eq!(members, vec![EndpointId(90), EndpointId(91)]);
                assert_eq!(uids, vec![0, 1], "v5 info aligns uids with members");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The load report names the view the member holds (v6).
        r.skeleton
            .handle(r.runtime, RmiMessage::PollLoad, &r.skeleton_mailbox);
        match recv(&r.runtime_mailbox) {
            RmiMessage::Load(report) => assert_eq!(report.epoch, 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stale_broadcast_is_ignored() {
        let mut r = rig();
        r.skeleton.handle(
            r.runtime,
            RmiMessage::StateBroadcast {
                epoch: 5,
                sentinel_uid: 1,
                members: vec![],
            },
            &r.skeleton_mailbox,
        );
        r.skeleton.handle(
            r.runtime,
            RmiMessage::StateBroadcast {
                epoch: 3,
                sentinel_uid: 9,
                members: vec![MemberState {
                    endpoint: EndpointId(1),
                    uid: 9,
                }],
            },
            &r.skeleton_mailbox,
        );
        r.skeleton
            .handle(r.client, RmiMessage::PoolInfoRequest, &r.skeleton_mailbox);
        match recv(&r.client_mailbox) {
            RmiMessage::PoolInfo { epoch, members, .. } => {
                assert_eq!(epoch, 5);
                assert!(members.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rebalance_redirects_the_requested_count() {
        let mut r = rig();
        r.skeleton.handle(
            r.runtime,
            RmiMessage::Rebalance {
                to: EndpointId(77),
                count: 2,
            },
            &r.skeleton_mailbox,
        );
        let args = erm_transport::to_bytes(&"x".to_string()).unwrap();
        let mut redirects = 0;
        let mut responses = 0;
        for call in 0..4 {
            r.skeleton.handle(
                r.client,
                RmiMessage::Request {
                    call,
                    context: live_ctx(call),
                    method: "echo".into(),
                    args: args.clone(),
                },
                &r.skeleton_mailbox,
            );
            match recv(&r.client_mailbox) {
                RmiMessage::Redirected { members, .. } => {
                    assert_eq!(members, vec![EndpointId(77)]);
                    redirects += 1;
                }
                RmiMessage::Response { .. } => responses += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(redirects, 2, "exactly the rebalance count is shed");
        assert_eq!(responses, 2);
        let stats = r.skeleton.admission_stats();
        assert_eq!((stats.shed, stats.rejected, stats.culled), (2, 0, 0));
    }

    #[test]
    fn a_rebalance_of_zero_sheds_nothing() {
        // The planner never asks for zero, but ingest takes any message
        // that decodes: a zero quota must not wrap into 2^32 redirects.
        let mut r = rig();
        r.skeleton.handle(
            r.runtime,
            RmiMessage::Rebalance {
                to: EndpointId(77),
                count: 0,
            },
            &r.skeleton_mailbox,
        );
        let args = erm_transport::to_bytes(&"x".to_string()).unwrap();
        for call in 0..4 {
            r.skeleton.handle(
                r.client,
                RmiMessage::Request {
                    call,
                    context: live_ctx(call),
                    method: "echo".into(),
                    args: args.clone(),
                },
                &r.skeleton_mailbox,
            );
            match recv(&r.client_mailbox) {
                RmiMessage::Response { .. } => {}
                other => panic!("a zero rebalance shed a request: {other:?}"),
            }
        }
        assert_eq!(r.skeleton.admission_stats().shed, 0);
    }

    #[test]
    fn shutdown_with_empty_queue_acks_immediately() {
        let mut r = rig();
        let done = r
            .skeleton
            .handle(r.runtime, RmiMessage::Shutdown, &r.skeleton_mailbox);
        assert!(done);
        match recv(&r.runtime_mailbox) {
            RmiMessage::ShutdownReady { uid } => assert_eq!(uid, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shutdown_finishes_pending_then_redirects_new() {
        let mut r = rig();
        let args = erm_transport::to_bytes(&"x".to_string()).unwrap();
        // Two requests already queued in the mailbox at shutdown time.
        for call in [10, 11] {
            r.net
                .send(
                    r.client,
                    r.skeleton_mailbox.id(),
                    RmiMessage::Request {
                        call,
                        context: live_ctx(call),
                        method: "echo".into(),
                        args: args.clone(),
                    }
                    .encode(),
                )
                .unwrap();
        }
        r.skeleton
            .handle(r.runtime, RmiMessage::Shutdown, &r.skeleton_mailbox);
        // Drain the two pending: they execute normally.
        for _ in 0..2 {
            let d = r.skeleton_mailbox.try_recv().unwrap();
            let msg = RmiMessage::decode(&d.payload).unwrap();
            r.skeleton.handle(d.from, msg, &r.skeleton_mailbox);
        }
        let mut got = Vec::new();
        while let Ok(d) = r.client_mailbox.try_recv() {
            got.push(RmiMessage::decode(&d.payload).unwrap());
        }
        assert!(got.iter().all(|m| matches!(m, RmiMessage::Response { .. })));
        assert_eq!(got.len(), 2);
        // Runtime got the readiness ack.
        match recv(&r.runtime_mailbox) {
            RmiMessage::ShutdownReady { uid } => assert_eq!(uid, 0),
            other => panic!("unexpected {other:?}"),
        }
        // A request arriving after the drain is redirected.
        r.skeleton.handle(
            r.client,
            RmiMessage::Request {
                call: 12,
                context: live_ctx(12),
                method: "echo".into(),
                args,
            },
            &r.skeleton_mailbox,
        );
        assert!(matches!(
            recv(&r.client_mailbox),
            RmiMessage::Redirected { .. }
        ));
    }

    #[test]
    fn control_messages_queued_before_shutdown_spend_the_drain_budget() {
        // A `PollLoad` and a request sit in the mailbox when `Shutdown`
        // arrives: both were pending, so both spend the drain budget. Were
        // the poll free, its unit would let a request sent after the drain
        // execute, and `ShutdownReady` would wait for it.
        let mut r = rig();
        let args = erm_transport::to_bytes(&"x".to_string()).unwrap();
        let skeleton = r.skeleton_mailbox.id();
        r.net
            .send(r.runtime, skeleton, RmiMessage::PollLoad.encode())
            .unwrap();
        let request = |call| RmiMessage::Request {
            call,
            context: live_ctx(call),
            method: "echo".into(),
            args: args.clone(),
        };
        r.net
            .send(r.client, skeleton, request(10).encode())
            .unwrap();
        r.skeleton
            .handle(r.runtime, RmiMessage::Shutdown, &r.skeleton_mailbox);
        for _ in 0..2 {
            let d = r.skeleton_mailbox.try_recv().unwrap();
            let msg = RmiMessage::decode(&d.payload).unwrap();
            r.skeleton.handle(d.from, msg, &r.skeleton_mailbox);
        }
        assert!(matches!(recv(&r.runtime_mailbox), RmiMessage::Load(_)));
        assert!(matches!(
            recv(&r.runtime_mailbox),
            RmiMessage::ShutdownReady { uid: 0 }
        ));
        assert!(matches!(
            recv(&r.client_mailbox),
            RmiMessage::Response { call: 10, .. }
        ));
        r.skeleton
            .handle(r.client, request(11), &r.skeleton_mailbox);
        assert!(matches!(
            recv(&r.client_mailbox),
            RmiMessage::Redirected { call: 11, .. }
        ));
    }

    #[test]
    fn expired_request_is_rejected_without_dispatch() {
        let mut r = rig();
        let (trace, _sink) = TraceHandle::buffered(16);
        r.skeleton.trace = trace.clone();
        let args = erm_transport::to_bytes(&"hi".to_string()).unwrap();
        // The rig's virtual clock sits at t=0; a deadline of 0 is expired.
        r.skeleton.handle(
            r.client,
            RmiMessage::Request {
                call: 8,
                context: InvocationContext {
                    semantics: Semantics::AtLeastOnce,
                    id: 70,
                    deadline: SimTime::ZERO,
                    attempt: 1,
                    origin: EndpointId(500),
                    routing_key: None,
                },
                method: "echo".into(),
                args,
            },
            &r.skeleton_mailbox,
        );
        match recv(&r.client_mailbox) {
            RmiMessage::Response {
                replayed: _,
                call: 8,
                outcome: Err(e),
            } => {
                assert!(e.is_deadline_exceeded());
            }
            other => panic!("unexpected {other:?}"),
        }
        // Never dispatched: served counter untouched, expiry traced and
        // counted in the next load report.
        assert_eq!(r.skeleton.served(), 0);
        assert!(trace
            .snapshot()
            .iter()
            .any(|rec| matches!(rec.event, TraceEvent::RequestExpired { invocation: 70, .. })));
        r.skeleton
            .handle(r.runtime, RmiMessage::PollLoad, &r.skeleton_mailbox);
        match recv(&r.runtime_mailbox) {
            RmiMessage::Load(report) => assert_eq!(report.expired, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn drain_redirect_echoes_the_request_deadline() {
        let mut r = rig();
        r.skeleton.handle(
            r.runtime,
            RmiMessage::StateBroadcast {
                epoch: 1,
                sentinel_uid: 1,
                members: vec![MemberState {
                    endpoint: EndpointId(91),
                    uid: 1,
                }],
            },
            &r.skeleton_mailbox,
        );
        // Drain with nothing pending, then send a fresh request: redirected.
        r.skeleton
            .handle(r.runtime, RmiMessage::Shutdown, &r.skeleton_mailbox);
        let mut ctx = live_ctx(21);
        ctx.deadline = SimTime::from_secs(77);
        r.skeleton.handle(
            r.client,
            RmiMessage::Request {
                call: 21,
                context: ctx,
                method: "echo".into(),
                args: vec![],
            },
            &r.skeleton_mailbox,
        );
        match recv(&r.client_mailbox) {
            RmiMessage::Redirected {
                deadline, members, ..
            } => {
                assert_eq!(deadline, SimTime::from_secs(77));
                assert_eq!(members, vec![EndpointId(91)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn request(call: u64, deadline: SimTime) -> RmiMessage {
        RmiMessage::Request {
            call,
            context: InvocationContext {
                semantics: Semantics::AtLeastOnce,
                id: call,
                deadline,
                attempt: 1,
                origin: EndpointId(500),
                routing_key: None,
            },
            method: "echo".into(),
            args: erm_transport::to_bytes(&"x".to_string()).unwrap(),
        }
    }

    #[test]
    fn full_queue_is_refused_with_overloaded() {
        let mut r = rig_with_admission(Some(AdmissionConfig::fifo(2)));
        for call in 0..3 {
            r.skeleton.ingest(
                r.client,
                request(call, SimTime::from_secs(1_000)),
                &r.skeleton_mailbox,
            );
        }
        // Third arrival refused before queueing, with a retry hint.
        match recv(&r.client_mailbox) {
            RmiMessage::Overloaded {
                call,
                queue_depth,
                retry_after,
            } => {
                assert_eq!(call, 2);
                assert_eq!(queue_depth, 2);
                assert!(!retry_after.is_zero());
            }
            other => panic!("unexpected {other:?}"),
        }
        // The two admitted requests still execute.
        while r.skeleton.step() {}
        let mut ok = 0;
        while let Ok(d) = r.client_mailbox.try_recv() {
            match RmiMessage::decode(&d.payload).unwrap() {
                RmiMessage::Response { outcome: Ok(_), .. } => ok += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(ok, 2);
        let stats = r.skeleton.admission_stats();
        assert_eq!((stats.admitted, stats.rejected), (2, 1));
        // The rejection lands in the next load report.
        r.skeleton
            .handle(r.runtime, RmiMessage::PollLoad, &r.skeleton_mailbox);
        match recv(&r.runtime_mailbox) {
            RmiMessage::Load(report) => assert_eq!(report.rejected, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn edf_discipline_dispatches_nearest_deadline_first() {
        let mut r = rig_with_admission(Some(AdmissionConfig::edf(8)));
        for (call, deadline_s) in [(0, 300u64), (1, 10), (2, 50)] {
            r.skeleton.ingest(
                r.client,
                request(call, SimTime::from_secs(deadline_s)),
                &r.skeleton_mailbox,
            );
        }
        while r.skeleton.step() {}
        let mut order = Vec::new();
        while let Ok(d) = r.client_mailbox.try_recv() {
            match RmiMessage::decode(&d.payload).unwrap() {
                RmiMessage::Response { call, .. } => order.push(call),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(order, vec![1, 2, 0], "EDF runs the most urgent first");
    }

    #[test]
    fn expired_queued_work_is_culled_not_dispatched() {
        let mut r = rig_with_admission(Some(AdmissionConfig::edf(8)));
        r.skeleton.ingest(
            r.client,
            request(0, SimTime::ZERO + SimDuration::from_millis(10)),
            &r.skeleton_mailbox,
        );
        r.skeleton.ingest(
            r.client,
            request(1, SimTime::from_secs(1_000)),
            &r.skeleton_mailbox,
        );
        r.clock.advance(SimDuration::from_millis(20));
        while r.skeleton.step() {}
        let first = recv(&r.client_mailbox);
        match first {
            RmiMessage::Response {
                replayed: _,
                call: 0,
                outcome: Err(e),
            } => assert!(e.is_deadline_exceeded()),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            recv(&r.client_mailbox),
            RmiMessage::Response {
                replayed: _,
                call: 1,
                outcome: Ok(_),
            }
        ));
        assert_eq!(r.skeleton.served(), 1, "culled work is never dispatched");
        assert_eq!(r.skeleton.admission_stats().culled, 1);
    }

    #[test]
    fn pending_count_excludes_expired_queued_requests() {
        let mut r = rig_with_admission(Some(AdmissionConfig::fifo(8)));
        r.skeleton.ingest(
            r.client,
            request(0, SimTime::ZERO + SimDuration::from_millis(10)),
            &r.skeleton_mailbox,
        );
        r.skeleton.ingest(
            r.client,
            request(1, SimTime::from_secs(1_000)),
            &r.skeleton_mailbox,
        );
        r.clock.advance(SimDuration::from_millis(20));
        // Poll without pumping the queue: only the live request counts.
        r.skeleton
            .ingest(r.runtime, RmiMessage::PollLoad, &r.skeleton_mailbox);
        match recv(&r.runtime_mailbox) {
            RmiMessage::Load(report) => assert_eq!(report.pending, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    use crate::shard::KeyExtractor;

    /// Smallest key the given ring assigns to `uid`.
    fn key_owned_by(ring: &ShardRing, uid: u64) -> u64 {
        (0..200_000u64)
            .find(|k| ring.owns(uid, *k))
            .expect("some key maps to the member")
    }

    fn seats(pairs: &[(u64, u64)]) -> Vec<MemberState> {
        pairs
            .iter()
            .map(|&(uid, ep)| MemberState {
                endpoint: EndpointId(ep),
                uid,
            })
            .collect()
    }

    fn sharded_rig(members: &[(u64, u64)]) -> (Rig, Arc<AtomicU32>) {
        let executions = Arc::new(AtomicU32::new(0));
        let mut r = rig_with_service(
            None,
            Box::new(CountingService {
                executions: Arc::clone(&executions),
            }),
        );
        r.skeleton
            .set_sharding(ShardingTable::new().method("incr", KeyExtractor::FirstU64));
        r.skeleton.handle(
            r.runtime,
            RmiMessage::StateBroadcast {
                epoch: 3,
                sentinel_uid: 0,
                members: seats(members),
            },
            &r.skeleton_mailbox,
        );
        (r, executions)
    }

    fn keyed_request(call: u64, key: u64) -> RmiMessage {
        let mut ctx = live_ctx(call);
        ctx.routing_key = Some(key);
        RmiMessage::Request {
            call,
            context: ctx,
            method: "incr".into(),
            args: key.to_le_bytes().to_vec(),
        }
    }

    /// How the queued original of a parked duplicate ends.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Ending {
        Executed,
        Culled,
        RefusedAtDispatch,
    }

    /// `msg`'s call id, and its answer with the call id and `replayed` flag
    /// blanked, so an origin's answer and a duplicate's compare equal.
    fn blanked(msg: RmiMessage) -> (u64, RmiMessage) {
        match msg {
            RmiMessage::Response { call, outcome, .. } => (
                call,
                RmiMessage::Response {
                    call: 0,
                    outcome,
                    replayed: false,
                },
            ),
            RmiMessage::WrongShard {
                call,
                epoch,
                owner,
                deadline,
            } => (
                call,
                RmiMessage::WrongShard {
                    call: 0,
                    epoch,
                    owner,
                    deadline,
                },
            ),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_of_in_flight_invocation_parks_and_merges() {
        // Duplicates arriving while the first attempt is still queued must
        // not enter the run queue; they park on the in-progress entry and
        // get the origin's answer however the origin ends: executed, culled
        // past its deadline, or refused at dispatch after a handoff.
        let two = ShardRing::from_members(&[(0, EndpointId(90)), (1, EndpointId(91))]);
        let three = ShardRing::from_members(&[
            (0, EndpointId(90)),
            (1, EndpointId(91)),
            (2, EndpointId(92)),
        ]);
        let key = (0..200_000u64)
            .find(|k| two.owns(0, *k) && three.owns(2, *k))
            .expect("some key moves from 0 to 2");
        for ending in [Ending::Executed, Ending::Culled, Ending::RefusedAtDispatch] {
            let (mut r, executions) = sharded_rig(&[(0, 90), (1, 91)]);
            let attempt = |call: u64| {
                let RmiMessage::Request {
                    mut context,
                    method,
                    args,
                    ..
                } = keyed_request(1, key)
                else {
                    unreachable!()
                };
                context.semantics = Semantics::AtMostOnce;
                context.deadline = SimTime::ZERO + SimDuration::from_millis(10);
                context.attempt = call as u32;
                RmiMessage::Request {
                    call,
                    context,
                    method,
                    args,
                }
            };
            // The origin is admitted, two duplicates park behind it.
            for call in 1..=3 {
                r.skeleton
                    .ingest(r.client, attempt(call), &r.skeleton_mailbox);
            }
            assert!(
                r.client_mailbox.try_recv().is_err(),
                "{ending:?}: parked duplicates are not answered before the origin ends"
            );
            assert_eq!(r.skeleton.queue_depth(), 1, "{ending:?}");
            assert_eq!(r.skeleton.dedup_stats().parked, 2, "{ending:?}");
            match ending {
                Ending::Executed => {}
                Ending::Culled => r.clock.advance(SimDuration::from_millis(20)),
                Ending::RefusedAtDispatch => {
                    r.skeleton.ingest(
                        r.runtime,
                        RmiMessage::StateBroadcast {
                            epoch: 4,
                            sentinel_uid: 0,
                            members: seats(&[(0, 90), (1, 91), (2, 92)]),
                        },
                        &r.skeleton_mailbox,
                    );
                }
            }
            while r.skeleton.step() {}
            let mut answers = std::collections::BTreeMap::new();
            let mut replayed = std::collections::BTreeMap::new();
            while let Ok(d) = r.client_mailbox.try_recv() {
                let msg = RmiMessage::decode(&d.payload).unwrap();
                if let RmiMessage::Response {
                    call, replayed: f, ..
                } = msg
                {
                    replayed.insert(call, f);
                }
                let (call, answer) = blanked(msg);
                answers.insert(call, answer);
            }
            assert_eq!(
                answers.keys().copied().collect::<Vec<_>>(),
                vec![1, 2, 3],
                "{ending:?}: the origin and both duplicates are answered once"
            );
            assert_eq!(answers[&2], answers[&1], "{ending:?}");
            assert_eq!(answers[&3], answers[&1], "{ending:?}");
            match (ending, &answers[&1]) {
                (Ending::Executed, RmiMessage::Response { outcome: Ok(_), .. }) => {
                    assert_eq!(replayed, [(1, false), (2, true), (3, true)].into());
                }
                (
                    Ending::Culled,
                    RmiMessage::Response {
                        outcome: Err(e), ..
                    },
                ) => {
                    assert!(e.is_deadline_exceeded());
                    assert_eq!(replayed, [(1, false), (2, true), (3, true)].into());
                }
                (Ending::RefusedAtDispatch, RmiMessage::WrongShard { owner, .. }) => {
                    assert_eq!(*owner, EndpointId(92));
                    assert_eq!(r.skeleton.misrouted(), 3, "each attempt's own refusal");
                }
                (ending, answer) => panic!("{ending:?} answered {answer:?}"),
            }
            let ran = u32::from(ending == Ending::Executed);
            assert_eq!(executions.load(Ordering::SeqCst), ran, "{ending:?}");
            // A later retry replays the executed reply; after an abort the
            // entry is gone, so the retry is new work: a cache miss.
            if ending == Ending::RefusedAtDispatch {
                // The key's range returns to this member.
                r.skeleton.ingest(
                    r.runtime,
                    RmiMessage::StateBroadcast {
                        epoch: 5,
                        sentinel_uid: 0,
                        members: seats(&[(0, 90), (1, 91)]),
                    },
                    &r.skeleton_mailbox,
                );
            }
            let hits = r.skeleton.dedup_stats().hits;
            r.skeleton.handle(r.client, attempt(4), &r.skeleton_mailbox);
            let RmiMessage::Response {
                call: 4, replayed, ..
            } = recv(&r.client_mailbox)
            else {
                panic!("{ending:?}: the retry gets a response")
            };
            let hit = ending == Ending::Executed;
            assert_eq!(
                r.skeleton.dedup_stats().hits - hits,
                u64::from(hit),
                "{ending:?}"
            );
            assert_eq!(replayed, hit, "{ending:?}");
        }
    }

    #[test]
    fn misrouted_keyed_request_is_refused_with_wrong_shard() {
        // Member uid 0; uid 1 lives at endpoint 91.
        let (mut r, executions) = sharded_rig(&[(0, 90), (1, 91)]);
        let ring = ShardRing::from_members(&[(0, EndpointId(90)), (1, EndpointId(91))]);
        let key = key_owned_by(&ring, 1);
        r.skeleton
            .handle(r.client, keyed_request(7, key), &r.skeleton_mailbox);
        match recv(&r.client_mailbox) {
            RmiMessage::WrongShard {
                call,
                epoch,
                owner,
                deadline,
            } => {
                assert_eq!(call, 7);
                assert_eq!(epoch, 3, "refusal carries the member's view epoch");
                assert_eq!(owner, EndpointId(91), "names the ring owner");
                assert_eq!(deadline, SimTime::from_secs(1_000), "echoes the budget");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(executions.load(Ordering::SeqCst), 0, "never dispatched");
        assert_eq!(r.skeleton.served(), 0);
        assert_eq!(r.skeleton.misrouted(), 1);
    }

    #[test]
    fn owner_executes_keyed_request_and_unkeyed_bypasses_check() {
        let (mut r, executions) = sharded_rig(&[(0, 90), (1, 91)]);
        let ring = ShardRing::from_members(&[(0, EndpointId(90)), (1, EndpointId(91))]);
        let key = key_owned_by(&ring, 0);
        r.skeleton
            .handle(r.client, keyed_request(1, key), &r.skeleton_mailbox);
        assert!(matches!(
            recv(&r.client_mailbox),
            RmiMessage::Response { outcome: Ok(_), .. }
        ));
        // An unkeyed invocation of the same pool is served by anyone.
        r.skeleton.handle(
            r.client,
            RmiMessage::Request {
                call: 2,
                context: live_ctx(2),
                method: "incr".into(),
                args: vec![],
            },
            &r.skeleton_mailbox,
        );
        assert!(matches!(
            recv(&r.client_mailbox),
            RmiMessage::Response { outcome: Ok(_), .. }
        ));
        assert_eq!(executions.load(Ordering::SeqCst), 2);
        assert_eq!(r.skeleton.misrouted(), 0);
    }

    #[test]
    fn handoff_between_admission_and_dispatch_refuses_instead_of_executing() {
        // Find a key owned by uid 0 in the two-member ring but by uid 2 once
        // the third member joins — the reassigned range of a grow handoff.
        let two = ShardRing::from_members(&[(0, EndpointId(90)), (1, EndpointId(91))]);
        let three = ShardRing::from_members(&[
            (0, EndpointId(90)),
            (1, EndpointId(91)),
            (2, EndpointId(92)),
        ]);
        let key = (0..200_000u64)
            .find(|k| two.owns(0, *k) && three.owns(2, *k))
            .expect("some key moves from 0 to 2");
        let (mut r, executions) = sharded_rig(&[(0, 90), (1, 91)]);
        // Admit while this member owns the key, but do not step yet.
        r.skeleton
            .ingest(r.client, keyed_request(9, key), &r.skeleton_mailbox);
        assert_eq!(r.skeleton.queue_depth(), 1, "admitted under the old ring");
        // The grow broadcast lands before the queue drains.
        r.skeleton.handle(
            r.runtime,
            RmiMessage::StateBroadcast {
                epoch: 4,
                sentinel_uid: 0,
                members: seats(&[(0, 90), (1, 91), (2, 92)]),
            },
            &r.skeleton_mailbox,
        );
        match recv(&r.client_mailbox) {
            RmiMessage::WrongShard {
                call, owner, epoch, ..
            } => {
                assert_eq!(call, 9);
                assert_eq!(owner, EndpointId(92), "refusal names the new owner");
                assert_eq!(epoch, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            executions.load(Ordering::SeqCst),
            0,
            "a handed-off key is never executed by the old owner"
        );
        assert_eq!(r.skeleton.served(), 0);
        assert_eq!(r.skeleton.misrouted(), 1);
    }

    #[test]
    fn load_report_carries_queue_delay_percentiles() {
        let mut r = rig_with_admission(Some(AdmissionConfig::fifo(8)));
        r.skeleton.ingest(
            r.client,
            request(0, SimTime::from_secs(1_000)),
            &r.skeleton_mailbox,
        );
        r.clock.advance(SimDuration::from_millis(8));
        while r.skeleton.step() {}
        r.skeleton
            .handle(r.runtime, RmiMessage::PollLoad, &r.skeleton_mailbox);
        match recv(&r.runtime_mailbox) {
            RmiMessage::Load(report) => {
                assert_eq!(report.queue_delay_p50_us, 8_000);
                assert_eq!(report.queue_delay_p99_us, 8_000);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
