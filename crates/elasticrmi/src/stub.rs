//! The client stub: local proxy for a whole elastic object pool (§2.3, §4.3).
//!
//! To the client application the pool is a single remote object; the stub is
//! where the pool's plurality is known. It
//!
//! * discovers membership from the sentinel on first contact,
//! * load-balances invocations across members (round-robin or random),
//! * marshals arguments, awaits and unmarshals results,
//! * on send failure, timeout or an explicit refusal (`Redirected`,
//!   `Overloaded`, `WrongShard`), retries the invocation on other members
//!   *including the sentinel*,
//! * refreshes its member list from the sentinel (or, with the sentinel
//!   gone, from any live member) when an attempt fails or a member refuses
//!   it, since a busy pool may have grown, and
//! * propagates the failure to the application only when every member has
//!   been tried.
//!
//! Invocations are **pipelined**: [`Stub::invoke_begin`] injects an
//! invocation and returns its id immediately, and the stub keeps the
//! retry/failover/deadline state of every outstanding invocation in a
//! pending map instead of on the call stack, so hundreds of requests can be
//! in flight on one endpoint at once — the property the virtual-clock rig's
//! open-loop arrivals and the benchmark's pipelined clients rely on.
//! [`Stub::poll_complete`] (or [`Stub::drain_completed`]) pumps the
//! mailbox, advances every pending state machine, and surfaces finished
//! results correlated by invocation id. The blocking
//! [`Stub::invoke`] is a thin begin-then-wait wrapper over the same engine,
//! so its semantics (and every pre-existing test) are unchanged.
//!
//! Each of those jobs is one function of the engine:
//!
//! * every invocation ends in `finish` — a reply, its deadline, a lost
//!   at-most-once pin, or a walk run out — which counts the ending, emits
//!   the terminal trace event, returns the limiter slot and stores the
//!   result;
//! * every attempt that gets no answer, because its target closed or stayed
//!   mute, goes through `on_attempt_failed`;
//! * every explicit refusal — proof the request did not execute — releases
//!   the at-most-once pin and idles the invocation through `release`; an
//!   `Overloaded`, or a redirect naming a member outside the view, also
//!   asks for a view, without waiting for it;
//! * every `PoolInfoRequest` is sent by `request_view`;
//! * `Pending::due` is the one rule for when an invocation has work without
//!   a message arriving; [`Stub::next_due`] and the pump both apply it.
//!
//! Past the wire payload and the result, an invocation's bookkeeping reuses
//! what earlier ones left. Each attempt's call id is derived from its
//! invocation id and attempt counter, and a reply is live only while its
//! invocation waits on exactly that call id: no map mirrors the waiting
//! states. Pending entries are boxed in an id-ordered map (the pump advances
//! in id order) and reused with their walks; method names are shared;
//! results wait in a `Vec` that [`Stub::drain_completed`] sorts by id.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use erm_admission::AimdLimiter;
use erm_metrics::{TraceEvent, TraceHandle};
use erm_semantics::{Semantics, SemanticsTable};
use erm_sim::{seeded_rng, SharedClock, SimDuration, SimTime};
use erm_transport::{buffers, Datagram, EndpointId, Mailbox, Network, RecvError};
use rand::rngs::StdRng;
use rand::Rng;
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::error::{RemoteError, RmiError};
use crate::message::{InvocationContext, RmiMessage};
use crate::shard::{ShardRing, ShardingTable};

/// How often the wait loops re-check the (possibly virtual) clock while
/// polling the mailbox.
const POLL_TICK: Duration = Duration::from_millis(1);

/// Argument buffers a stub keeps from completed invocations for reuse.
const SPARE_ARGS: usize = 32;

/// Pending entries a stub keeps for reuse: deeper than clients pipeline.
const SPARE_PENDING: usize = 1024;

/// Client-side load-balancing discipline (§4.3: "randomly or in a
/// round-robin fashion").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientLb {
    /// Rotate through members in order.
    RoundRobin,
    /// Pick a member uniformly at random (seeded, for reproducibility).
    Random {
        /// RNG seed.
        seed: u64,
    },
}

/// Counters the stub keeps about its own behaviour; useful in tests and for
/// application-level metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StubStats {
    /// Completed invocations (success or remote error).
    pub invocations: u64,
    /// Extra attempts beyond the first for any invocation.
    pub retries: u64,
    /// `Redirected` replies followed.
    pub redirects_followed: u64,
    /// Membership view requests (`PoolInfoRequest`) sent: on connect, after
    /// a failed or refused attempt, and again while invocations wait on an
    /// unanswered one. Each goes to the sentinel or, with the sentinel's
    /// endpoint closed, to the first live member; failed sends count too.
    pub refreshes: u64,
    /// Invocations abandoned because their deadline passed.
    pub expired: u64,
    /// `Overloaded` rejections received from members.
    pub overloaded: u64,
    /// Invocations refused locally by the AIMD limiter before any send.
    pub throttled: u64,
    /// Attempts that failed fast because the target endpoint was closed
    /// (member crash), rather than waiting out the reply timeout.
    pub connections_closed: u64,
    /// Replies served from a skeleton's reply cache — a duplicate attempt
    /// suppressed instead of re-executed (wire v4).
    pub replays: u64,
    /// At-most-once invocations terminated with
    /// [`RmiError::OutcomeUnknown`]: a fresh membership view proved their
    /// committed member was finalized out of the pool — or, under sharding,
    /// that a handoff moved their key range off the committed member.
    pub pins_lost: u64,
    /// `WrongShard` refusals received — invocations that reached a member
    /// which did not own their routing key (wire v5).
    pub wrong_shard: u64,
    /// Redirect/WrongShard target suggestions dropped because the suggested
    /// member had already departed the pool (per a strictly newer membership
    /// view) or its endpoint was closed. Splicing them would burn the
    /// deadline on silence.
    pub stale_redirects: u64,
}

/// A stub bound to one elastic object pool.
///
/// Not `Clone`: like a socket, each client thread opens its own stub (its
/// own endpoint) against the same pool.
pub struct Stub {
    net: Arc<dyn Network>,
    endpoint: EndpointId,
    mailbox: Mailbox,
    sentinel: EndpointId,
    members: Vec<EndpointId>,
    lb: ClientLb,
    rr_next: usize,
    rng: StdRng,
    next_invocation: u64,
    clock: SharedClock,
    reply_timeout: SimDuration,
    invocation_budget: SimDuration,
    trace: TraceHandle,
    stats: StubStats,
    limiter: Option<Arc<AimdLimiter>>,
    /// Per-method invocation semantics; default all-`AtLeastOnce`.
    semantics: SemanticsTable,
    /// Outstanding invocations by id — the call-stack state of the old
    /// blocking retry loop, one entry per in-flight invocation. Boxed, so
    /// the map moves pointers, not entries, as it grows and shrinks.
    pending: BTreeMap<u64, Box<Pending>>,
    /// Finished invocations awaiting [`Stub::poll_complete`] or
    /// [`Stub::drain_completed`], in the order they finished.
    completed: Vec<(u64, Result<Vec<u8>, RmiError>)>,
    /// Every method name invoked so far, each allocated once.
    methods: Vec<Arc<str>>,
    /// Argument buffers of completed invocations, for the next
    /// [`Stub::invoke_begin`] to encode into (at most [`SPARE_ARGS`]).
    spare_args: Vec<Vec<u8>>,
    /// Entries of completed invocations, walks emptied, for the next begin
    /// (at most [`SPARE_PENDING`]); reusing the boxes is the point.
    #[allow(clippy::vec_box)]
    spare_pending: Vec<Box<Pending>>,
    /// Deadline of the outstanding async membership refresh, if any.
    refresh_inflight: Option<SimTime>,
    /// Highest membership epoch seen in a `PoolInfo`. Commitments are
    /// stamped with it; a strictly newer view is proof the pool
    /// reconfigured *after* a commitment was made, which is what licenses
    /// failing a pinned invocation whose member the new view omits.
    epoch: u64,
    /// Per-method routing-key extractors (wire v5); empty = unsharded.
    sharding: ShardingTable,
    /// The consistent-hash ring for the current membership view, rebuilt
    /// whenever a `PoolInfo` carries uids. Empty when the pool is unsharded
    /// or predates wire v5.
    ring: ShardRing,
    /// Members removed by a strictly newer membership view. A redirect
    /// suggesting one of these is stale: following it would send an
    /// invocation to a corpse. Pruned when an endpoint rejoins.
    departed: BTreeSet<EndpointId>,
    /// [`Stub::pump`]'s scratch, kept for the next turn: the invocations it
    /// found due, and the transport's verdict on each target it asked about.
    due: Vec<u64>,
    target_open: Vec<(EndpointId, bool)>,
}

impl std::fmt::Debug for Stub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stub")
            .field("endpoint", &self.endpoint)
            .field("sentinel", &self.sentinel)
            .field("members", &self.members)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Stub {
    /// Connects to the pool whose sentinel listens at `sentinel`, fetching
    /// the member list ("while contacting the sentinel for the first time,
    /// the stub requests the identities of the other skeletons"). All
    /// timeout and deadline arithmetic runs on `clock` — the pool's
    /// simulation clock — so virtual-time tests get deterministic timeouts
    /// and every hop of an invocation agrees on its deadline.
    ///
    /// # Errors
    ///
    /// [`RmiError::SentinelUnreachable`] when the sentinel cannot be reached
    /// or does not answer within the reply timeout.
    pub fn connect(
        net: Arc<dyn Network>,
        endpoint: EndpointId,
        mailbox: Mailbox,
        sentinel: EndpointId,
        lb: ClientLb,
        clock: SharedClock,
    ) -> Result<Stub, RmiError> {
        let mut stub = Stub::open(net, endpoint, mailbox, sentinel, lb, clock)?;
        stub.await_members()?;
        Ok(stub)
    }

    /// [`Stub::connect`] without the wait: asks the sentinel for the member
    /// list and returns at once. The view installs on the first pump after
    /// the `PoolInfo` arrives; until then every invocation targets the
    /// sentinel. This is the shape a driver that owns the clock needs — it
    /// cannot block while the pool it drives is the one to answer.
    ///
    /// # Errors
    ///
    /// [`RmiError::SentinelUnreachable`] when the transport refuses the
    /// request.
    pub fn open(
        net: Arc<dyn Network>,
        endpoint: EndpointId,
        mailbox: Mailbox,
        sentinel: EndpointId,
        lb: ClientLb,
        clock: SharedClock,
    ) -> Result<Stub, RmiError> {
        let rng = match lb {
            ClientLb::Random { seed } => seeded_rng(seed),
            ClientLb::RoundRobin => seeded_rng(0),
        };
        let mut stub = Stub {
            net,
            endpoint,
            mailbox,
            sentinel,
            members: Vec::new(),
            lb,
            rr_next: 0,
            rng,
            next_invocation: 0,
            clock,
            reply_timeout: SimDuration::from_millis(500),
            invocation_budget: SimDuration::from_secs(30),
            trace: TraceHandle::disabled(),
            stats: StubStats::default(),
            limiter: None,
            semantics: SemanticsTable::default(),
            pending: BTreeMap::new(),
            completed: Vec::new(),
            methods: Vec::new(),
            spare_args: Vec::new(),
            spare_pending: Vec::new(),
            refresh_inflight: None,
            epoch: 0,
            sharding: ShardingTable::default(),
            ring: ShardRing::default(),
            departed: BTreeSet::new(),
            due: Vec::new(),
            target_open: Vec::new(),
        };
        if !stub.request_view() {
            return Err(RmiError::SentinelUnreachable(sentinel));
        }
        Ok(stub)
    }

    /// Overrides the per-attempt reply timeout (default 500 ms of clock
    /// time).
    pub fn set_reply_timeout(&mut self, timeout: SimDuration) {
        self.reply_timeout = timeout;
    }

    /// Overrides the end-to-end invocation budget (default 30 s of clock
    /// time). Each `invoke` gets `now + budget` as its absolute deadline;
    /// retries and followed redirects all run under that one deadline, and
    /// the call fails with [`RmiError::DeadlineExceeded`] when it passes.
    pub fn set_invocation_budget(&mut self, budget: SimDuration) {
        self.invocation_budget = budget;
    }

    /// Routes this stub's trace events into `trace`.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Installs a client-side AIMD concurrency limiter. Every `invoke` must
    /// then acquire a slot before sending: when the limiter's window is full
    /// or it is inside a backoff period the call fails fast with
    /// [`RmiError::Throttled`] instead of adding to a pool that is already
    /// refusing work. `Overloaded` rejections and deadline expiries shrink
    /// the window multiplicatively; completed invocations re-open it
    /// additively. Sharing one `Arc` across a process's stubs gives the
    /// process a single congestion view of the pool.
    pub fn set_limiter(&mut self, limiter: Arc<AimdLimiter>) {
        self.limiter = Some(limiter);
    }

    /// The installed AIMD limiter, if any.
    pub fn limiter(&self) -> Option<&Arc<AimdLimiter>> {
        self.limiter.as_ref()
    }

    /// Declares per-method invocation semantics (wire v4). The chosen
    /// [`Semantics`] rides inside each invocation's context, and the stub's
    /// retry policy changes accordingly:
    ///
    /// * `AtLeastOnce` (default) — today's behavior: retry anywhere.
    /// * `AtMostOnce` — once an attempt is *delivered* to a member, the
    ///   invocation commits to that member: silence (timeout, broken
    ///   connection) re-asks the same member, whose reply cache suppresses
    ///   the duplicate; only an explicit refusal (`Redirected`,
    ///   `Overloaded`) — proof the request never executed — releases the
    ///   commitment and resumes failover.
    /// * `Maybe` — one wire attempt, no retransmission ever.
    pub fn set_semantics(&mut self, table: SemanticsTable) {
        self.semantics = table;
    }

    /// Declares per-method routing keys (wire v5). Keyed methods are routed
    /// to the consistent-hash owner of their extracted key instead of by
    /// load; `WrongShard` refusals re-route to the member the refusing
    /// skeleton named. An empty table (the default) keeps load routing.
    pub fn set_sharding(&mut self, table: ShardingTable) {
        self.sharding = table;
    }

    /// The member endpoints the stub currently knows.
    pub fn members(&self) -> &[EndpointId] {
        &self.members
    }

    /// Behaviour counters.
    pub fn stats(&self) -> StubStats {
        self.stats
    }

    /// Invokes `method` with `args` on the pool, returning the decoded
    /// result — the ElasticRMI analogue of calling a method on a Java RMI
    /// stub. Unicast: exactly one member executes the invocation.
    ///
    /// # Errors
    ///
    /// * [`RmiError::Remote`] — the method executed and raised,
    /// * [`RmiError::PoolUnreachable`] — every member (sentinel included)
    ///   failed to answer,
    /// * [`RmiError::Encode`]/[`RmiError::Decode`] — marshalling failures.
    pub fn invoke<A, R>(&mut self, method: &str, args: &A) -> Result<R, RmiError>
    where
        A: Serialize + ?Sized,
        R: DeserializeOwned,
    {
        let encoded = erm_transport::to_bytes(args).map_err(|e| RmiError::Encode(e.to_string()))?;
        let outcome = self.invoke_raw(method, encoded)?;
        erm_transport::from_bytes(&outcome).map_err(|e| RmiError::Decode(e.to_string()))
    }

    /// Like [`Stub::invoke`] but with pre-encoded arguments and an encoded
    /// result — the layer generated stubs would call. A thin wrapper over
    /// the pipelined engine: [`Stub::invoke_begin_raw`] plus a blocking
    /// wait for that one invocation (other outstanding invocations keep
    /// being driven while it waits).
    ///
    /// # Errors
    ///
    /// As for [`Stub::invoke`], minus `Decode`, plus
    /// [`RmiError::Throttled`] (limiter refused the slot locally) and
    /// [`RmiError::Overloaded`] (every attempted member rejected with a
    /// full admission queue).
    pub fn invoke_raw(&mut self, method: &str, args: Vec<u8>) -> Result<Vec<u8>, RmiError> {
        let invocation = self.invoke_begin_raw(method, args)?;
        self.wait_complete(invocation)
    }

    /// Begins a pipelined invocation and returns its invocation id without
    /// waiting for the result. The first attempt is sent immediately;
    /// retries, redirects, failover and deadline enforcement then happen
    /// inside the engine whenever the stub is pumped ([`Stub::poll_complete`],
    /// [`Stub::drain_completed`], or a blocking [`Stub::invoke`]). Any
    /// number of invocations may be outstanding at once — this is what lets
    /// one connection carry hundreds of in-flight requests.
    ///
    /// # Errors
    ///
    /// [`RmiError::Throttled`] when the AIMD limiter refuses the slot (the
    /// invocation is not injected).
    pub fn invoke_begin<A>(&mut self, method: &str, args: &A) -> Result<u64, RmiError>
    where
        A: Serialize + ?Sized,
    {
        // Into the buffer a completed invocation left behind, when there
        // is one: it is kept until this one completes in turn.
        let mut encoded = self.spare_args.pop().unwrap_or_default();
        args.serialize(&mut encoded);
        self.invoke_begin_raw(method, encoded)
    }

    /// [`Stub::invoke_begin`] with pre-encoded arguments.
    ///
    /// Creates the invocation's [`InvocationContext`] once — id, absolute
    /// deadline (`now + invocation budget`), attempt counter — and re-sends
    /// it with every retry and followed redirect, so every skeleton that
    /// sees the invocation enforces the same deadline.
    ///
    /// # Errors
    ///
    /// [`RmiError::Throttled`] when the AIMD limiter refuses the slot.
    pub fn invoke_begin_raw(&mut self, method: &str, args: Vec<u8>) -> Result<u64, RmiError> {
        let invocation = self.next_invocation;
        self.next_invocation += 1;
        let now = self.clock.now();
        let mut holds_slot = false;
        if let Some(limiter) = &self.limiter {
            if !limiter.try_acquire(now) {
                let retry_after = limiter.blocked_for(now);
                self.stats.throttled += 1;
                self.trace.emit(
                    now,
                    TraceEvent::InvocationThrottled {
                        invocation,
                        retry_after,
                    },
                );
                return Err(RmiError::Throttled { retry_after });
            }
            holds_slot = true;
        }
        // `attempt: 0` is the never-sent sentinel, not a wire value:
        // `fire_attempt` stamps the 1-based, strictly-increasing attempt
        // counter onto the context before every send (first attempt and
        // every resend alike), so skeletons only ever see attempt >= 1.
        let routing_key = self.sharding.routing_key_for(method, &args);
        let context = InvocationContext {
            id: invocation,
            deadline: now + self.invocation_budget,
            attempt: 0,
            origin: self.endpoint,
            semantics: self.semantics.semantics_for(method),
            routing_key,
        };
        let method = self.method_name(method);
        // A completed invocation's entry and walk, when there is one.
        let mut spare = self.spare_pending.pop();
        let mut targets = spare
            .as_mut()
            .map(|p| std::mem::take(&mut p.targets))
            .unwrap_or_default();
        self.target_order(&mut targets);
        // A keyed invocation goes to the ring owner first; the LB walk
        // stays behind it as failover (a misroute there is answered by a
        // WrongShard redirect, not executed).
        if let Some(owner) = routing_key.and_then(|key| self.ring.owner(key)) {
            targets.retain(|m| *m != owner);
            targets.insert(0, owner);
        }
        let pending = Pending {
            context,
            method,
            args,
            targets,
            next_target: 0,
            overload_hint: None,
            refreshed: false,
            awaiting_refresh: false,
            holds_slot,
            committed: None,
            committed_epoch: 0,
            state: PendingState::Idle { not_before: now },
        };
        let entry = match spare {
            Some(mut entry) => {
                *entry = pending;
                entry
            }
            None => Box::new(pending),
        };
        self.pending.insert(invocation, entry);
        self.advance_one(invocation);
        Ok(invocation)
    }

    /// The stub's one copy of `method`'s name.
    fn method_name(&mut self, method: &str) -> Arc<str> {
        if let Some(name) = self.methods.iter().find(|name| ***name == *method) {
            return Arc::clone(name);
        }
        let name: Arc<str> = Arc::from(method);
        self.methods.push(Arc::clone(&name));
        name
    }

    /// Pumps the engine and takes the result of `invocation` if it has
    /// finished. `None` means still in flight — keep the (possibly virtual)
    /// clock moving and poll again.
    pub fn poll_complete(&mut self, invocation: u64) -> Option<Result<Vec<u8>, RmiError>> {
        self.pump();
        self.take_completed(invocation)
    }

    /// Pumps the engine and takes *every* finished invocation as
    /// `(invocation id, result)` pairs in id order — the bulk-harvest shape
    /// an open-loop load generator wants.
    pub fn drain_completed(&mut self) -> Vec<(u64, Result<Vec<u8>, RmiError>)> {
        self.pump();
        self.completed.sort_unstable_by_key(|&(id, _)| id);
        std::mem::take(&mut self.completed)
    }

    /// Takes `invocation`'s result if it has finished.
    fn take_completed(&mut self, invocation: u64) -> Option<Result<Vec<u8>, RmiError>> {
        let at = self
            .completed
            .iter()
            .position(|&(id, _)| id == invocation)?;
        Some(self.completed.swap_remove(at).1)
    }

    /// Number of invocations begun but not yet finished.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// When the stub next has work to do if no message arrives: the earliest
    /// due time of any invocation (`Pending::due`), or the membership refresh
    /// deadline. `None` with nothing pending. A driver that owns the clock
    /// advances to it and pumps ([`Stub::drain_completed`]).
    pub fn next_due(&self) -> Option<SimTime> {
        let refreshing = self.refresh_inflight.is_some();
        self.pending
            .values()
            .map(|pending| pending.due(refreshing))
            .chain(self.refresh_inflight)
            .min()
    }

    /// Blocks until `invocation` finishes, sleeping on the mailbox between
    /// engine turns so a reply wakes the stub immediately.
    fn wait_complete(&mut self, invocation: u64) -> Result<Vec<u8>, RmiError> {
        loop {
            self.pump();
            if let Some(result) = self.take_completed(invocation) {
                return result;
            }
            match self.mailbox.recv_timeout(POLL_TICK) {
                Ok(datagram) => {
                    self.process_datagram(datagram);
                }
                Err(RecvError::Timeout) => {}
                // Own endpoint closed: nothing will ever arrive; let the
                // pending deadlines run out instead of busy-spinning.
                Err(RecvError::Closed) => std::thread::sleep(POLL_TICK),
            }
        }
    }

    /// One engine turn: drain the mailbox, then advance the pending
    /// invocations that have something to do — fire due attempts, fail over
    /// from closed endpoints, time out mute members, expire blown deadlines.
    fn pump(&mut self) {
        while let Ok(datagram) = self.mailbox.try_recv() {
            self.process_datagram(datagram);
        }
        // Exactly the invocations `advance_one` would not return from
        // untouched, in id order; the transport is asked once per target.
        let now = self.clock.now();
        let refreshing = self.refresh_inflight.is_some();
        let mut due = std::mem::take(&mut self.due);
        let (net, target_open) = (&self.net, &mut self.target_open);
        target_open.clear();
        let mut is_open = |target: EndpointId| {
            if let Some(&(_, open)) = target_open.iter().find(|(t, _)| *t == target) {
                return open;
            }
            let open = net.endpoint_open(target);
            target_open.push((target, open));
            open
        };
        for (&id, pending) in &self.pending {
            if now >= pending.due(refreshing)
                || matches!(pending.state, PendingState::Waiting { target, .. } if !is_open(target))
            {
                due.push(id);
            }
        }
        for &id in &due {
            self.advance_one(id);
        }
        due.clear();
        self.due = due;
        // An async refresh nobody answered. While invocations are still
        // waiting on it, keep asking (one request per reply timeout) — they
        // retry until their own deadlines expire, as the blocking loop did.
        // Only a pool the transport refuses outright ends the wait early
        // (pool unreachable).
        if self
            .refresh_inflight
            .is_some_and(|deadline| self.clock.now() >= deadline)
        {
            self.refresh_inflight = None;
            if self.pending.values().any(|p| p.awaiting_refresh) {
                if self.request_view() {
                    self.refresh_inflight = Some(self.clock.now() + self.reply_timeout);
                } else {
                    for pending in self.pending.values_mut() {
                        pending.awaiting_refresh = false;
                    }
                }
            }
        }
    }

    /// Routes one inbound message to the pending invocation it belongs to,
    /// and returns whether it was a membership view. A reply is live only
    /// while its invocation waits on exactly its call id ([`Stub::live`]);
    /// any other is stale — its attempt was abandoned (timeout, crash
    /// failover) or its invocation finished — and is dropped, exactly as
    /// the blocking loop used to skip them.
    fn process_datagram(&mut self, datagram: Datagram) -> bool {
        let decoded = RmiMessage::decode(&datagram.payload);
        buffers::recycle(datagram.payload);
        let Ok(msg) = decoded else {
            return false;
        };
        match msg {
            RmiMessage::Response {
                call,
                outcome,
                replayed,
            } => {
                let Some(invocation) = self.live(call) else {
                    return false;
                };
                if replayed {
                    // Served from the skeleton's reply cache: a duplicate of
                    // ours was suppressed rather than re-executed.
                    self.stats.replays += 1;
                }
                self.finish(invocation, End::Replied(outcome));
            }
            RmiMessage::Redirected {
                call,
                members,
                deadline,
            } => {
                let Some(invocation) = self.live(call) else {
                    return false;
                };
                self.on_redirected(invocation, members, deadline, false);
                self.advance_one(invocation);
            }
            RmiMessage::Overloaded {
                call, retry_after, ..
            } => {
                let Some(invocation) = self.live(call) else {
                    return false;
                };
                self.on_overloaded(invocation, retry_after);
                self.advance_one(invocation);
            }
            RmiMessage::WrongShard {
                call,
                epoch,
                owner,
                deadline,
            } => {
                let Some(invocation) = self.live(call) else {
                    return false;
                };
                self.stats.wrong_shard += 1;
                // A refusing member that knows a newer membership than ours
                // proves our ring stale: re-derive it before routing more
                // keyed work.
                self.on_redirected(invocation, vec![owner], deadline, epoch > self.epoch);
                self.advance_one(invocation);
            }
            RmiMessage::PoolInfo {
                epoch,
                sentinel,
                members,
                uids,
            } => {
                self.on_pool_info(epoch, sentinel, members, uids);
                return true;
            }
            // Requests and pool-control traffic: not for a client endpoint.
            _ => {}
        }
        false
    }

    /// A membership view arrived: install it, extend the walks that waited
    /// for it, and end the at-most-once pins it proves lost.
    fn on_pool_info(
        &mut self,
        epoch: u64,
        sentinel: EndpointId,
        members: Vec<EndpointId>,
        uids: Vec<u64>,
    ) {
        self.refresh_inflight = None;
        self.sentinel = sentinel;
        let view_installed = !members.is_empty();
        let newer = epoch > self.epoch;
        if view_installed {
            if newer {
                // Members the newer view dropped are departed: a later
                // redirect naming them is stale by construction.
                for old in &self.members {
                    if !members.contains(old) {
                        self.departed.insert(*old);
                    }
                }
            }
            for m in &members {
                self.departed.remove(m);
            }
            self.members = members;
            self.rr_next = 0;
            // Rebuild the shard ring when the view carries uids (wire v5); a
            // uid-less view leaves sharded routing off.
            self.ring = if uids.len() == self.members.len() {
                let pairs: Vec<(u64, EndpointId)> = uids
                    .iter()
                    .copied()
                    .zip(self.members.iter().copied())
                    .collect();
                ShardRing::from_members(&pairs)
            } else {
                ShardRing::default()
            };
        }
        // Invocations that asked for this refresh get the fresh members
        // appended to their remaining walk.
        for pending in self.pending.values_mut() {
            if !pending.awaiting_refresh {
                continue;
            }
            pending.awaiting_refresh = false;
            for m in &self.members {
                if !pending.targets.contains(m) {
                    pending.targets.push(*m);
                }
            }
        }
        // A strictly newer epoch is proof the pool reconfigured after
        // anything committed under an older view. A pinned at-most-once
        // invocation whose member this view omits can never be answered (the
        // reply cache died with the member) and must not retry elsewhere (see
        // `Pending::committed`): fail it fast rather than ride the pin to the
        // deadline. Under sharding the same holds when a handoff moved the
        // invocation's key range off the pinned member — the member
        // survives, but its reply cache can no longer dedup the key, so a
        // retry there (or anywhere) risks a second execution.
        if !newer {
            return;
        }
        self.epoch = epoch;
        if !view_installed {
            return;
        }
        // Purge departed members from the unvisited tail of every pending
        // walk: the view proved they are gone.
        if !self.departed.is_empty() {
            let departed = &self.departed;
            for pending in self.pending.values_mut() {
                let mut i = pending.targets.len();
                while i > pending.next_target {
                    i -= 1;
                    if departed.contains(&pending.targets[i]) {
                        pending.targets.remove(i);
                    }
                }
            }
        }
        let lost: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| {
                p.committed_epoch < epoch
                    && p.committed.is_some_and(|m| {
                        !self.members.contains(&m)
                            || p.context.routing_key.is_some_and(|key| {
                                self.ring.owner(key).is_some_and(|owner| owner != m)
                            })
                    })
            })
            .map(|(&id, _)| id)
            .collect();
        for invocation in lost {
            self.finish(invocation, End::PinLost);
        }
    }

    /// The invocation `call` names, if it waits on exactly that call id: the
    /// newest begun with the low 32 bits [`call_id`] put there, as fewer
    /// than 2^32 are ever in flight.
    fn live(&self, call: u64) -> Option<u64> {
        let newest = self.next_invocation.wrapping_sub(1);
        let back = (newest as u32).wrapping_sub((call >> 32) as u32);
        let invocation = newest.wrapping_sub(u64::from(back));
        let pending = self.pending.get(&invocation)?;
        let waiting = matches!(pending.state, PendingState::Waiting { .. });
        (waiting && call_id(invocation, pending.context.attempt) == call).then_some(invocation)
    }

    /// Runs `invocation`'s state machine until it blocks (waiting on a
    /// reply or a backoff) or finishes — the target walk of the old retry
    /// loop, kept in the pending map instead of on the call stack.
    fn advance_one(&mut self, invocation: u64) {
        loop {
            let now = self.clock.now();
            let Some(pending) = self.pending.get(&invocation) else {
                return;
            };
            let state = pending.state;
            let due = pending.due(self.refresh_inflight.is_some());
            let expired = pending.context.is_expired(now);
            let exhausted = pending.exhausted();
            // A member that died *after* accepting the request never
            // replies; detecting the closed endpoint here fails over
            // immediately instead of burning the whole reply timeout.
            if let PendingState::Waiting { target, .. } = state {
                if !self.net.endpoint_open(target) {
                    self.on_attempt_failed(invocation, target, true);
                    continue;
                }
            }
            if now < due {
                return;
            }
            if expired {
                self.finish(invocation, End::Expired);
                return;
            }
            match state {
                PendingState::Waiting { target, .. } => {
                    self.on_attempt_failed(invocation, target, false);
                }
                PendingState::Idle { .. } if exhausted => {
                    self.finish(invocation, End::Unreachable);
                    return;
                }
                PendingState::Idle { .. } => {
                    // A sent attempt waits, unless its target closed since
                    // (a host may hold sends) or its timeout is already due.
                    if let Some((target, attempt_deadline)) = self.fire_attempt(invocation, now) {
                        if !self.net.endpoint_open(target) {
                            self.on_attempt_failed(invocation, target, true);
                        } else if now < attempt_deadline {
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Sends the next attempt of `invocation` to its next target at `now`;
    /// once the transport took it, returns the target and reply deadline.
    fn fire_attempt(&mut self, invocation: u64, now: SimTime) -> Option<(EndpointId, SimTime)> {
        let pending = self.pending.get_mut(&invocation)?;
        // A committed at-most-once invocation is pinned to the member that
        // already took delivery — its reply cache is the only thing that
        // can answer without a second execution. Everyone else walks the
        // target order.
        let target = match pending.committed {
            Some(member) => member,
            None => {
                let t = pending.targets[pending.next_target];
                pending.next_target += 1;
                t
            }
        };
        // The wire attempt counter is 1-based and strictly increasing
        // across every resend path (timeout retry, fast-failover, redirect
        // splice) — the regression contract of wire v4.
        pending.context.attempt += 1;
        let (attempt, deadline) = (pending.context.attempt, pending.context.deadline);
        let call = call_id(invocation, attempt);
        let payload =
            RmiMessage::encode_request(call, &pending.context, &pending.method, &pending.args);
        if attempt > 1 {
            self.stats.retries += 1;
        }
        self.trace.emit(
            now,
            TraceEvent::AttemptStarted {
                invocation,
                attempt,
                target: target.0,
                deadline,
            },
        );
        if self.net.send(self.endpoint, target, payload).is_err() {
            // The transport knows the endpoint is gone — not a silent
            // timeout, an immediate failover signal.
            self.on_attempt_failed(invocation, target, true);
            return None;
        }
        if pending.context.semantics == Semantics::AtMostOnce {
            // Delivered: the member may execute it at any point from here
            // on, so the invocation commits to this member, under the
            // membership view current right now.
            pending.committed = Some(target);
            pending.committed_epoch = self.epoch;
        }
        // The attempt waits until its reply timeout or the invocation's
        // deadline, whichever comes first — on the injected clock.
        let attempt_deadline = (now + self.reply_timeout).min(deadline);
        pending.state = PendingState::Waiting {
            target,
            attempt_deadline,
        };
        Some((target, attempt_deadline))
    }

    /// The attempt got no answer: its target is gone (`closed`: the send
    /// was refused, or the endpoint closed mid-wait) or stayed mute for the
    /// whole reply timeout. The invocation stops waiting, so a late reply
    /// is stale. A `Maybe` invocation ends here — strictly one wire attempt,
    /// never a retransmission. Any other asks for a fresh view and moves on:
    /// after a jittered backoff when the target died, at once when it may
    /// just be slow.
    fn on_attempt_failed(&mut self, invocation: u64, target: EndpointId, closed: bool) {
        if closed {
            self.stats.connections_closed += 1;
        }
        let Some(pending) = self.pending.get(&invocation) else {
            return;
        };
        let maybe = pending.context.semantics == Semantics::Maybe;
        self.trace.emit(
            self.clock.now(),
            TraceEvent::AttemptFailed {
                invocation,
                attempt: pending.context.attempt,
                target: target.0,
            },
        );
        if maybe {
            self.finish(invocation, End::Unreachable);
            return;
        }
        self.refresh(invocation, true);
        let now = self.clock.now();
        let Some(pending) = self.pending.get_mut(&invocation) else {
            return;
        };
        let mut not_before = now;
        if closed && !pending.exhausted() {
            // Fast failover is a stampede risk: every client that was
            // waiting on the dead member retries at once. A seeded,
            // jittered, exponentially growing delay (1 ms base, 16 ms cap,
            // uniform in [step/2, step]) spreads the herd before it hits
            // the survivors — bounded by the invocation deadline, all on
            // the injected clock.
            let step_us = (1_000u64 << u64::from(pending.context.attempt.min(4))).min(16_000);
            let wait_us = self.rng.gen_range(step_us / 2..=step_us);
            not_before = (now + SimDuration::from_micros(wait_us)).min(pending.context.deadline);
        }
        pending.state = PendingState::Idle { not_before };
    }

    /// The step every explicit refusal (`Redirected`, `Overloaded`,
    /// `WrongShard`) shares. A refusal proves the request never executed at
    /// the refusing member, so an at-most-once pin is released and the
    /// invocation idles for an immediate retry. A `Maybe` invocation ends
    /// instead; then this returns false.
    fn release(&mut self, invocation: u64) -> bool {
        let now = self.clock.now();
        let Some(pending) = self.pending.get_mut(&invocation) else {
            return false;
        };
        if pending.context.semantics == Semantics::Maybe {
            self.finish(invocation, End::Unreachable);
            return false;
        }
        pending.committed = None;
        pending.state = PendingState::Idle { not_before: now };
        true
    }

    /// A member refused the call and named where to go instead
    /// (`Redirected`, or the owner a `WrongShard` names): try the suggested
    /// members next (before our possibly stale list), never extending the
    /// budget. `stale_view`: the refusing member's view is newer than ours.
    fn on_redirected(
        &mut self,
        invocation: u64,
        mut suggested: Vec<EndpointId>,
        deadline: SimTime,
        stale_view: bool,
    ) {
        if !self.release(invocation) {
            return;
        }
        self.stats.redirects_followed += 1;
        let now = self.clock.now();
        // Validate the suggestions before splicing: a redirect computed
        // under an older membership view can name a member that has since
        // departed (or whose endpoint is already closed). Splicing such a
        // target used to send the follow-up attempt to a corpse and burn
        // the remaining budget waiting on silence — fatal for at-most-once,
        // which commits to whichever member takes delivery. Stale targets
        // are dropped and counted; if nothing valid survives, fall back to
        // a membership refresh instead.
        let suggested_len = suggested.len();
        suggested.retain(|m| !self.departed.contains(m) && self.net.endpoint_open(*m));
        let dropped = suggested_len - suggested.len();
        self.stats.stale_redirects += dropped as u64;
        let all_stale = dropped > 0 && suggested.is_empty();
        let names_new = suggested.iter().any(|m| !self.members.contains(m));
        let Some(pending) = self.pending.get_mut(&invocation) else {
            return;
        };
        // A redirect never extends the budget: the follow-up attempt
        // inherits whichever deadline is tighter.
        pending.context.deadline = pending.context.deadline.min(deadline);
        let i = pending.next_target;
        suggested.retain(|m| !pending.targets[i..].contains(m));
        for (k, m) in suggested.into_iter().enumerate() {
            pending.targets.insert(i + k, m);
        }
        let (attempt, remaining) = (pending.context.attempt, pending.context.remaining(now));
        if stale_view || all_stale {
            // The refusing member's view and ours disagree; get a fresh one
            // so the walk can continue somewhere real.
            pending.refreshed = false;
            self.refresh(invocation, true);
        } else if names_new {
            // A member our view lacks: the pool grew. The view lets later
            // invocations spread onto it; this one has it spliced already.
            self.refresh(invocation, false);
        }
        self.trace.emit(
            now,
            TraceEvent::AttemptRedirected {
                invocation,
                attempt,
                remaining,
            },
        );
    }

    /// A member rejected the call with a full admission queue: remember the
    /// soonest retry hint and keep walking — another member may have room.
    fn on_overloaded(&mut self, invocation: u64, retry_after: SimDuration) {
        self.stats.overloaded += 1;
        let now = self.clock.now();
        if let Some(limiter) = &self.limiter {
            limiter.on_congestion(now, Some(retry_after));
        }
        let Some(pending) = self.pending.get_mut(&invocation) else {
            return;
        };
        let target = match pending.state {
            PendingState::Waiting { target, .. } => target.0,
            PendingState::Idle { .. } => 0,
        };
        let attempt = pending.context.attempt;
        pending.overload_hint = Some(retry_after.min(pending.overload_hint.unwrap_or(retry_after)));
        if !self.release(invocation) {
            return;
        }
        // A busy pool may have grown a member this stub does not know yet.
        self.refresh(invocation, false);
        self.trace.emit(
            now,
            TraceEvent::AttemptOverloaded {
                invocation,
                attempt,
                target,
                retry_after,
            },
        );
    }

    /// Once per invocation, asks for a fresh membership view
    /// ([`Stub::request_view`]) — asynchronously, so the other pending
    /// invocations keep flowing while the `PoolInfo` is in flight.
    /// Concurrent asks share one outstanding request. With `wait` (a member
    /// gone or mute, or a view proved stale) the invocation waits on the
    /// view once its walk runs out, and the view extends the walk. Without
    /// it (a refusal: the pool is busy or has grown) the invocation walks
    /// on and ends as it would have; the view serves later invocations.
    fn refresh(&mut self, invocation: u64, wait: bool) {
        if self.pending.get(&invocation).is_none_or(|p| p.refreshed) {
            return;
        }
        if self.refresh_inflight.is_none() {
            if !self.request_view() {
                // Nobody reachable: leave `refreshed` false so a later
                // failure of this invocation may try again.
                return;
            }
            self.refresh_inflight = Some(self.clock.now() + self.reply_timeout);
        }
        if let Some(pending) = self.pending.get_mut(&invocation) {
            pending.refreshed = true;
            pending.awaiting_refresh |= wait;
        }
    }

    /// Sends a `PoolInfoRequest` — the only place one is sent — and counts
    /// it, failed sends included. It goes to the sentinel or, when the
    /// sentinel's endpoint is closed, to the first live member: every
    /// member answers with its view, and the view names the new sentinel.
    /// Returns whether the transport took the request.
    fn request_view(&mut self) -> bool {
        self.stats.refreshes += 1;
        let net = &self.net;
        let ask = std::iter::once(self.sentinel)
            .chain(self.members.iter().copied())
            .find(|&m| net.endpoint_open(m))
            .unwrap_or(self.sentinel);
        net.send(self.endpoint, ask, RmiMessage::PoolInfoRequest.encode())
            .is_ok()
    }

    /// Ends `invocation` — the one place that removes its pending entry
    /// (so a reply to an attempt still on the wire is stale), counts the
    /// ending, emits the terminal trace event, returns the limiter slot and
    /// stores the result for [`Stub::poll_complete`].
    fn finish(&mut self, invocation: u64, end: End) {
        let Some(mut pending) = self.pending.remove(&invocation) else {
            return;
        };
        let now = self.clock.now();
        let attempts = pending.context.attempt;
        // `expired`: the terminal event is `InvocationExpired`, not
        // `InvocationCompleted`.
        let (result, expired) = match end {
            End::Replied(outcome) => {
                self.stats.invocations += 1;
                (outcome.map_err(RmiError::Remote), false)
            }
            End::Expired => {
                // Congestion too: the pool could not serve it in time.
                self.stats.expired += 1;
                if let Some(limiter) = &self.limiter {
                    limiter.on_congestion(now, None);
                }
                (Err(RmiError::DeadlineExceeded { attempts }), true)
            }
            End::PinLost => {
                self.stats.pins_lost += 1;
                let member = pending.committed.unwrap_or(EndpointId(u64::MAX));
                (Err(RmiError::OutcomeUnknown { attempts, member }), true)
            }
            End::Unreachable => {
                let error = match pending.overload_hint {
                    Some(retry_after) => RmiError::Overloaded {
                        attempts,
                        retry_after,
                    },
                    None => RmiError::PoolUnreachable { attempts },
                };
                (Err(error), false)
            }
        };
        let event = if expired {
            TraceEvent::InvocationExpired {
                invocation,
                attempts,
            }
        } else {
            TraceEvent::InvocationCompleted {
                invocation,
                attempts,
                ok: result.is_ok(),
            }
        };
        self.trace.emit(now, event);
        if pending.holds_slot {
            if let Some(limiter) = &self.limiter {
                limiter.release();
                // A completed round trip — even one that raised an
                // application error — proves the pool had capacity: widen
                // the window. Congestion signals (Overloaded, deadline
                // expiry) already shrank it closest to the evidence, but a
                // skeleton's deadline reply is one too: the pool could not
                // serve the invocation in time.
                match &result {
                    Err(RmiError::Remote(e)) if e.is_deadline_exceeded() => {
                        limiter.on_congestion(now, None);
                    }
                    Ok(_) | Err(RmiError::Remote(_)) => limiter.on_success(),
                    Err(_) => {}
                }
            }
        }
        self.completed.push((invocation, result));
        // Taken out even when not kept: a spare entry holds no argument
        // buffer, so the cap on spare arguments bounds their memory.
        let mut args = std::mem::take(&mut pending.args);
        if self.spare_args.len() < SPARE_ARGS {
            args.clear();
            self.spare_args.push(args);
        }
        if self.spare_pending.len() < SPARE_PENDING {
            pending.targets.clear();
            self.spare_pending.push(pending);
        }
    }

    /// Writes the attempt order for one invocation into the empty `order`:
    /// the LB-chosen member first, then the remaining members, then the
    /// sentinel (always last resort, §4.3: "retries the invocation on other
    /// objects including the sentinel").
    fn target_order(&mut self, order: &mut Vec<EndpointId>) {
        if !self.members.is_empty() {
            let start = match self.lb {
                ClientLb::RoundRobin => {
                    let s = self.rr_next % self.members.len();
                    self.rr_next = self.rr_next.wrapping_add(1);
                    s
                }
                ClientLb::Random { .. } => self.rng.gen_range(0..self.members.len()),
            };
            for k in 0..self.members.len() {
                order.push(self.members[(start + k) % self.members.len()]);
            }
        }
        if !order.contains(&self.sentinel) {
            order.push(self.sentinel);
        }
    }

    /// Blocks until a `PoolInfo` arrives, for at most the reply timeout.
    ///
    /// The bound is on the injected clock alone: a run on a `VirtualClock`
    /// is decided by clock advances, a run on the `SystemClock` by wall
    /// time, and the two never mix — a harness that pauses its clock
    /// forever gets the hang it asked for.
    pub(crate) fn await_members(&mut self) -> Result<(), RmiError> {
        let deadline = self.clock.now() + self.reply_timeout;
        loop {
            if self.clock.now() >= deadline {
                return Err(RmiError::SentinelUnreachable(self.sentinel));
            }
            match self.mailbox.recv_timeout(POLL_TICK) {
                // Everything routes through the engine — a `Response`
                // arriving here belongs to some pending pipelined invocation
                // and must not be swallowed by the refresh.
                Ok(datagram) => {
                    if self.process_datagram(datagram) {
                        return Ok(());
                    }
                }
                Err(RecvError::Timeout) => continue,
                Err(RecvError::Closed) => return Err(RmiError::SentinelUnreachable(self.sentinel)),
            }
        }
    }
}

/// One outstanding invocation: everything the old blocking retry loop kept
/// on the call stack, parked in [`Stub`]'s pending map so hundreds of
/// invocations can be in flight at once. The only record of its attempts:
/// a reply is live only while this is `Waiting` on exactly its call id.
struct Pending {
    /// The context re-sent with every attempt — id, absolute deadline,
    /// attempt counter, origin endpoint.
    context: InvocationContext,
    /// The stub's shared copy of the method name.
    method: Arc<str>,
    args: Vec<u8>,
    /// The walk order: LB-chosen member first, remaining members, sentinel
    /// last; extended in place by redirects and membership refreshes.
    targets: Vec<EndpointId>,
    /// Index of the next target to try.
    next_target: usize,
    /// Soonest `retry_after` hint seen across `Overloaded` rejections.
    overload_hint: Option<SimDuration>,
    /// Whether this invocation already asked for a membership refresh
    /// (at most one per invocation, as in the blocking loop).
    refreshed: bool,
    /// Whether this invocation is waiting for a `PoolInfo` to extend its
    /// target walk.
    awaiting_refresh: bool,
    /// Whether this invocation holds an AIMD limiter slot to return.
    holds_slot: bool,
    /// `AtMostOnce` only: the member a request was *delivered* to. From
    /// then on every resend goes back to that member (its reply cache
    /// dedups); an explicit refusal (`Redirected`/`Overloaded`) proves the
    /// request never executed and clears the commitment.
    ///
    /// The commitment is deliberately **never** released for a retry when
    /// the member merely *dies* (closed endpoint, removal from a membership
    /// broadcast). A crash is not proof of non-execution: the member may
    /// have executed the method — shared-store side effects included — and
    /// crashed before replying. Reply caches are per-member and not
    /// replicated, so a replacement member cannot suppress the duplicate;
    /// retrying there could execute the invocation a second time, which is
    /// exactly what at-most-once forbids. The one thing member death does
    /// license is giving up *early*: once a `PoolInfo` with a strictly
    /// newer epoch (see [`Pending::committed_epoch`]) omits the pinned
    /// member, the stub fails the invocation with
    /// [`RmiError::OutcomeUnknown`] instead of re-asking a corpse until the
    /// deadline — the same information, minus the wait.
    committed: Option<EndpointId>,
    /// The stub's membership epoch at the moment `committed` was set. Only
    /// a view strictly newer than this proves the pool reconfigured after
    /// delivery; the view current at commit time trivially lacks no one the
    /// invocation was sent to.
    committed_epoch: u64,
    state: PendingState,
}

impl Pending {
    /// Whether the walk has run out. A committed at-most-once invocation
    /// never runs out of targets: it re-asks its member until the deadline.
    fn exhausted(&self) -> bool {
        self.committed.is_none() && self.next_target >= self.targets.len()
    }

    /// The due rule: the first instant this invocation has work if no
    /// message arrives. While an attempt is on the wire, its reply
    /// deadline; otherwise the backoff end or the invocation deadline,
    /// whichever comes first — and only the deadline once the walk has run
    /// out and the invocation waits on the membership refresh in flight
    /// (`refreshing`), which only the `PoolInfo`, a message, ends sooner. A
    /// waiting attempt whose target closed has work at once; only the
    /// transport knows that.
    fn due(&self, refreshing: bool) -> SimTime {
        match self.state {
            PendingState::Waiting {
                attempt_deadline, ..
            } => attempt_deadline,
            PendingState::Idle { .. }
                if refreshing && self.awaiting_refresh && self.exhausted() =>
            {
                self.context.deadline
            }
            PendingState::Idle { not_before } => not_before.min(self.context.deadline),
        }
    }
}

/// How an invocation ends; [`Stub::finish`] gives each its counter, its
/// terminal trace event and its result.
enum End {
    /// A member answered: the method's return value or its exception.
    Replied(Result<Vec<u8>, RemoteError>),
    /// The invocation's budget ran out.
    Expired,
    /// A strictly newer view omitted the member an at-most-once invocation
    /// is pinned to, or moved its key off that member: the outcome is
    /// unknowable and a retry elsewhere is forbidden, so the invocation ends
    /// now with the verdict its deadline would eventually deliver.
    PinLost,
    /// Every target (sentinel included) was tried, or the one `Maybe`
    /// attempt failed: nobody answered, or everybody refused.
    Unreachable,
}

/// The wire call id of `invocation`'s attempt `attempt`: the invocation's
/// low 32 bits above the attempt counter ([`Stub::live`] inverts it).
fn call_id(invocation: u64, attempt: u32) -> u64 {
    (invocation << 32) | u64::from(attempt)
}

/// Where one pending invocation is in its attempt cycle.
#[derive(Debug, Clone, Copy)]
enum PendingState {
    /// No attempt outstanding; the next one may fire at `not_before`
    /// (backoff after a connection-closed failover, or immediately).
    Idle {
        /// Earliest clock time the next attempt may be sent.
        not_before: SimTime,
    },
    /// An attempt is on the wire awaiting its reply, which must carry
    /// `call_id(id, context.attempt)`.
    Waiting {
        /// The member the attempt went to.
        target: EndpointId,
        /// When to give up on this attempt (reply timeout, capped by the
        /// invocation deadline).
        attempt_deadline: SimTime,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RemoteError;
    use erm_sim::SystemClock;
    use erm_transport::{Host, InProcNetwork};
    use std::collections::HashMap;

    /// A scripted fake member that answers from a queue of behaviours.
    struct FakeMember {
        net: InProcNetwork,
        endpoint: EndpointId,
        mailbox: Mailbox,
    }

    impl FakeMember {
        fn new(net: &InProcNetwork) -> Self {
            let (endpoint, mailbox) = net.open();
            FakeMember {
                net: net.clone(),
                endpoint,
                mailbox,
            }
        }

        /// Answer the next queued request with `f(call) -> RmiMessage`.
        /// Discovery requests arriving in between are served transparently.
        fn answer(&self, f: impl Fn(u64) -> RmiMessage) {
            loop {
                let d = self
                    .mailbox
                    .recv_timeout(Duration::from_secs(5))
                    .expect("request expected");
                match RmiMessage::decode(&d.payload).unwrap() {
                    RmiMessage::Request { call, .. } => {
                        self.net
                            .send(self.endpoint, d.from, f(call).encode())
                            .unwrap();
                        return;
                    }
                    RmiMessage::PoolInfoRequest => {
                        let info = RmiMessage::PoolInfo {
                            epoch: 99,
                            sentinel: self.endpoint,
                            members: Vec::new(),
                            uids: Vec::new(),
                        };
                        self.net.send(self.endpoint, d.from, info.encode()).unwrap();
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
    }

    fn pool_info(sentinel: &FakeMember, members: &[&FakeMember]) -> RmiMessage {
        RmiMessage::PoolInfo {
            epoch: 1,
            sentinel: sentinel.endpoint,
            members: members.iter().map(|m| m.endpoint).collect(),
            uids: (0..members.len() as u64).collect(),
        }
    }

    fn connect(net: &InProcNetwork, sentinel: &FakeMember, members: &[&FakeMember]) -> Stub {
        connect_on(net, sentinel, members, Arc::new(SystemClock::new()))
    }

    fn connect_on(
        net: &InProcNetwork,
        sentinel: &FakeMember,
        members: &[&FakeMember],
        clock: SharedClock,
    ) -> Stub {
        // Serve the discovery request inline, then pump: the view installs.
        let mut stub = open_on(net, sentinel, clock);
        let d = sentinel.mailbox.recv().expect("discovery request");
        let info = pool_info(sentinel, members).encode();
        net.send(sentinel.endpoint, d.from, info).unwrap();
        assert!(stub.drain_completed().is_empty());
        stub
    }

    fn open_on(net: &InProcNetwork, sentinel: &FakeMember, clock: SharedClock) -> Stub {
        let (ep, mailbox) = net.open();
        let lb = ClientLb::RoundRobin;
        Stub::open(
            Arc::new(net.clone()),
            ep,
            mailbox,
            sentinel.endpoint,
            lb,
            clock,
        )
        .unwrap()
    }

    #[test]
    fn connect_discovers_members() {
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let stub = connect(&net, &sentinel, &[&sentinel, &m1]);
        assert_eq!(stub.members(), &[sentinel.endpoint, m1.endpoint]);
    }

    #[test]
    fn open_returns_before_the_view_and_installs_it_on_the_next_pump() {
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let mut stub = open_on(&net, &sentinel, Arc::new(SystemClock::new()));
        assert!(stub.members().is_empty(), "no PoolInfo yet");

        // Begun before the view arrives, an invocation targets the
        // sentinel: the only member the stub knows.
        stub.invoke_begin("m", &()).unwrap();
        let request = |m: &FakeMember| RmiMessage::decode(&m.mailbox.try_recv().unwrap().payload);
        assert!(matches!(
            request(&sentinel),
            Ok(RmiMessage::PoolInfoRequest)
        ));
        assert!(matches!(request(&sentinel), Ok(RmiMessage::Request { .. })));

        // The view is a message like any other: it installs when pumped.
        net.send(
            sentinel.endpoint,
            stub.endpoint,
            pool_info(&sentinel, &[&m1, &sentinel]).encode(),
        )
        .unwrap();
        assert!(stub.members().is_empty(), "not before the pump");
        assert!(stub.drain_completed().is_empty());
        assert_eq!(stub.members(), &[m1.endpoint, sentinel.endpoint]);
        assert_eq!(stub.stats().refreshes, 1, "open asked exactly once");
    }

    #[test]
    fn next_due_is_the_first_instant_a_pump_has_work() {
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let clock = Arc::new(erm_sim::VirtualClock::new());
        let mut stub = connect_on(&net, &sentinel, &[&m1], clock.clone());
        stub.set_reply_timeout(SimDuration::from_millis(100));
        assert_eq!(stub.next_due(), None, "nothing pending");
        let at = |us| SimTime::ZERO + SimDuration::from_micros(us);
        // Attempts in flight at m1 since t = 0 and since t = 30 ms.
        let early: Vec<u64> = (0..3)
            .map(|_| stub.invoke_begin("m", &()).unwrap())
            .collect();
        clock.advance_to(at(30_000));
        stub.invoke_begin("m", &()).unwrap();
        let attempts = |m: &FakeMember| {
            let mut seen = BTreeSet::new();
            while let Ok(d) = m.mailbox.try_recv() {
                if let RmiMessage::Request { context, .. } = RmiMessage::decode(&d.payload).unwrap()
                {
                    seen.insert((context.id, context.attempt));
                }
            }
            seen
        };
        assert_eq!(attempts(&m1).len(), 4);
        assert_eq!(stub.next_due(), Some(at(100_000)));

        // One microsecond early, a pump changes nothing.
        clock.advance_to(at(99_999));
        assert!(stub.drain_completed().is_empty());
        assert_eq!(stub.stats().retries, 0);
        assert!(attempts(&m1).is_empty() && attempts(&sentinel).is_empty());
        assert_eq!(stub.next_due(), Some(at(100_000)));

        // On the instant, exactly the t = 0 attempts time out and move on
        // to the sentinel, the next target of their walk.
        clock.advance_to(at(100_000));
        assert!(stub.drain_completed().is_empty());
        let retried: BTreeSet<(u64, u32)> = early.iter().map(|&id| (id, 2)).collect();
        assert_eq!(attempts(&sentinel), retried);
        assert_eq!(stub.stats().retries, 3);
        assert_eq!(stub.next_due(), Some(at(130_000)));
        assert_eq!(stub.in_flight(), 4);
    }

    #[test]
    fn invoke_round_robins_across_members() {
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let mut stub = connect(&net, &sentinel, &[&sentinel, &m1]);

        // First invocation goes to member 0 (sentinel), second to member 1.
        let h = std::thread::spawn(move || {
            let a: u32 = stub.invoke("m", &()).unwrap();
            let b: u32 = stub.invoke("m", &()).unwrap();
            (a, b, stub.stats())
        });
        let ok = |call: u64| RmiMessage::Response {
            replayed: false,
            call,
            outcome: Ok(erm_transport::to_bytes(&1u32).unwrap()),
        };
        sentinel.answer(ok);
        m1.answer(ok);
        let (a, b, stats) = h.join().unwrap();
        assert_eq!((a, b), (1, 1));
        assert_eq!(stats.invocations, 2);
        assert_eq!(stats.retries, 0);
    }

    #[test]
    fn invoke_fails_over_to_next_member_on_crash() {
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let mut stub = connect(&net, &sentinel, &[&m1, &sentinel]);
        stub.set_reply_timeout(SimDuration::from_millis(200));
        // Kill m1: sends to it now fail immediately.
        net.close_endpoint(m1.endpoint);
        let h = std::thread::spawn(move || {
            let v: u32 = stub.invoke("m", &()).unwrap();
            (v, stub.stats())
        });
        sentinel.answer(|call| RmiMessage::Response {
            replayed: false,
            call,
            outcome: Ok(erm_transport::to_bytes(&9u32).unwrap()),
        });
        let (v, stats) = h.join().unwrap();
        assert_eq!(v, 9);
        assert!(stats.retries >= 1, "failover must count as retry");
        assert_eq!(
            stats.connections_closed, 1,
            "a dead endpoint is a connection-closed failure, not a timeout"
        );
    }

    #[test]
    fn endpoint_closed_mid_wait_fails_over_without_burning_reply_timeout() {
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let mut stub = connect(&net, &sentinel, &[&m1, &sentinel]);
        // A timeout long enough that burning it would fail the elapsed
        // assertion below by an order of magnitude.
        stub.set_reply_timeout(SimDuration::from_secs(10));
        let h = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            let v: u32 = stub.invoke("m", &()).unwrap();
            (v, start.elapsed(), stub.stats())
        });
        // m1 accepts the request, then crashes before replying.
        let d = m1.mailbox.recv().expect("request reaches m1");
        assert!(matches!(
            RmiMessage::decode(&d.payload).unwrap(),
            RmiMessage::Request { .. }
        ));
        net.close_endpoint(m1.endpoint);
        sentinel.answer(|call| RmiMessage::Response {
            replayed: false,
            call,
            outcome: Ok(erm_transport::to_bytes(&4u32).unwrap()),
        });
        let (v, elapsed, stats) = h.join().unwrap();
        assert_eq!(v, 4);
        assert!(
            elapsed < Duration::from_secs(5),
            "fail-fast, not a 10 s timeout burn: {elapsed:?}"
        );
        assert_eq!(stats.connections_closed, 1);
        assert!(stats.retries >= 1);
    }

    #[test]
    fn refresh_asks_a_live_member_once_the_sentinel_is_dead() {
        // Every member answers `PoolInfoRequest`, so the view survives the
        // sentinel: asking only it would leave the stub walking corpses
        // once later crashes took the rest of its view.
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let m2 = FakeMember::new(&net);
        let clock = Arc::new(erm_sim::VirtualClock::new());
        let mut stub = connect_on(&net, &sentinel, &[&sentinel, &m1], clock);
        net.close_endpoint(sentinel.endpoint);

        // Round-robin picks the dead sentinel first: the send is refused
        // and the failure asks for a fresh view — from m1, which is alive.
        stub.invoke_begin("m", &()).unwrap();
        let d = m1
            .mailbox
            .try_recv()
            .expect("the refresh reaches a live member");
        assert!(matches!(
            RmiMessage::decode(&d.payload).unwrap(),
            RmiMessage::PoolInfoRequest
        ));
        let view = RmiMessage::PoolInfo {
            epoch: 2,
            sentinel: m1.endpoint,
            members: vec![m1.endpoint, m2.endpoint],
            uids: vec![1, 2],
        };
        net.send(m1.endpoint, d.from, view.encode()).unwrap();
        assert!(stub.drain_completed().is_empty());
        assert_eq!(stub.members(), &[m1.endpoint, m2.endpoint]);
        assert_eq!(
            stub.sentinel, m1.endpoint,
            "the view names the new sentinel"
        );
        assert_eq!(stub.stats().refreshes, 2);
    }

    #[test]
    fn an_unanswered_refresh_is_asked_again_of_a_live_member() {
        // The sentinel is dead and m1 loses the first refresh's reply while
        // staying mute on its attempt. The re-ask must go where the first
        // request went, not to the dead sentinel: the view m1 returns names
        // m2, which answers.
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let m2 = FakeMember::new(&net);
        let clock = Arc::new(erm_sim::VirtualClock::new());
        let mut stub = connect_on(&net, &sentinel, &[&sentinel, &m1], clock.clone());
        net.close_endpoint(sentinel.endpoint);

        let id = stub.invoke_begin("m", &()).unwrap();
        let mut view_requests = 0;
        let result = loop {
            if let Some((done, result)) = stub.drain_completed().pop() {
                assert_eq!(done, id);
                break result;
            }
            while let Ok(d) = m1.mailbox.try_recv() {
                if let RmiMessage::PoolInfoRequest = RmiMessage::decode(&d.payload).unwrap() {
                    view_requests += 1;
                    if view_requests > 1 {
                        let view = RmiMessage::PoolInfo {
                            epoch: 2,
                            sentinel: m1.endpoint,
                            members: vec![m1.endpoint, m2.endpoint],
                            uids: vec![1, 2],
                        };
                        net.send(m1.endpoint, d.from, view.encode()).unwrap();
                    }
                }
            }
            while let Ok(d) = m2.mailbox.try_recv() {
                if let RmiMessage::Request { call, .. } = RmiMessage::decode(&d.payload).unwrap() {
                    let reply = RmiMessage::Response {
                        replayed: false,
                        call,
                        outcome: Ok(erm_transport::to_bytes(&2u32).unwrap()),
                    };
                    net.send(m2.endpoint, d.from, reply.encode()).unwrap();
                }
            }
            if !stub.mailbox.is_empty() {
                continue;
            }
            clock.advance_to(stub.next_due().expect("the invocation is pending"));
        };
        assert_eq!(view_requests, 2, "the re-ask reached m1");
        let v: u32 = erm_transport::from_bytes(&result.expect("m2 answers")).unwrap();
        assert_eq!(v, 2);
        assert_eq!(stub.stats().refreshes, 3, "open, the failure, the re-ask");
        assert_eq!(stub.members(), &[m1.endpoint, m2.endpoint]);
    }

    #[test]
    fn retry_backoff_is_jittered_and_seed_deterministic() {
        let draws = |seed: u64| {
            let mut rng = seeded_rng(seed);
            // Mirror backoff_before_retry's draw for the first 4 attempts.
            (1..=4u32)
                .map(|attempt| {
                    let step_us = (1_000u64 << u64::from(attempt.min(4))).min(16_000);
                    rng.gen_range(step_us / 2..=step_us)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7), "same seed, same backoff schedule");
        assert_ne!(draws(7), draws(8), "different seeds de-synchronize");
        for (attempt, wait) in draws(7).iter().enumerate() {
            let step = (1_000u64 << (attempt as u64 + 1)).min(16_000);
            assert!((step / 2..=step).contains(wait));
        }
    }

    #[test]
    fn redirected_reply_is_followed() {
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let m2 = FakeMember::new(&net);
        let mut stub = connect(&net, &sentinel, &[&m1]);
        let m2_ep = m2.endpoint;
        let h = std::thread::spawn(move || {
            let v: u32 = stub.invoke("m", &()).unwrap();
            (v, stub.stats())
        });
        m1.answer(move |call| RmiMessage::Redirected {
            call,
            members: vec![m2_ep],
            deadline: SimTime::from_secs(1_000_000),
        });
        m2.answer(|call| RmiMessage::Response {
            replayed: false,
            call,
            outcome: Ok(erm_transport::to_bytes(&5u32).unwrap()),
        });
        let (v, stats) = h.join().unwrap();
        assert_eq!(v, 5);
        assert_eq!(stats.redirects_followed, 1);
    }

    #[test]
    fn remote_error_propagates_without_retry() {
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let mut stub = connect(&net, &sentinel, &[&sentinel]);
        let h = std::thread::spawn(move || stub.invoke::<(), u32>("m", &()));
        sentinel.answer(|call| RmiMessage::Response {
            replayed: false,
            call,
            outcome: Err(RemoteError::new("AppError", "no")),
        });
        let err = h.join().unwrap().unwrap_err();
        assert!(matches!(err, RmiError::Remote(e) if e.kind == "AppError"));
    }

    #[test]
    fn all_members_down_propagates_pool_unreachable() {
        // §4.3: "If all attempts to communicate with the elastic object pool
        // fail, the exception is propagated to the client application."
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let mut stub = connect(&net, &sentinel, &[&sentinel, &m1]);
        stub.set_reply_timeout(SimDuration::from_millis(50));
        net.close_endpoint(sentinel.endpoint);
        net.close_endpoint(m1.endpoint);
        let err = stub.invoke::<(), u32>("m", &()).unwrap_err();
        assert!(matches!(err, RmiError::PoolUnreachable { attempts } if attempts >= 2));
    }

    #[test]
    fn stale_responses_are_ignored() {
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let mut stub = connect(&net, &sentinel, &[&sentinel]);
        let h = std::thread::spawn(move || {
            let v: u32 = stub.invoke("m", &()).unwrap();
            v
        });
        // Answer with a bogus call id first, then the real one.
        let d = sentinel.mailbox.recv().unwrap();
        let call = match RmiMessage::decode(&d.payload).unwrap() {
            RmiMessage::Request { call, .. } => call,
            other => panic!("unexpected {other:?}"),
        };
        net.send(
            sentinel.endpoint,
            d.from,
            RmiMessage::Response {
                replayed: false,
                call: call + 999,
                outcome: Ok(erm_transport::to_bytes(&0u32).unwrap()),
            }
            .encode(),
        )
        .unwrap();
        net.send(
            sentinel.endpoint,
            d.from,
            RmiMessage::Response {
                replayed: false,
                call,
                outcome: Ok(erm_transport::to_bytes(&7u32).unwrap()),
            }
            .encode(),
        )
        .unwrap();
        assert_eq!(h.join().unwrap(), 7);
    }

    /// Takes the request waiting at `m`, skipping view requests: its call id
    /// and sender.
    fn take_request(m: &FakeMember) -> (u64, EndpointId) {
        loop {
            let d = m.mailbox.try_recv().expect("a request is waiting");
            match RmiMessage::decode(&d.payload).unwrap() {
                RmiMessage::Request { call, .. } => return (call, d.from),
                RmiMessage::PoolInfoRequest => {}
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    /// `m` answers `call` with `v`.
    fn answer_with(net: &InProcNetwork, m: &FakeMember, (call, to): (u64, EndpointId), v: u32) {
        let reply = RmiMessage::Response {
            replayed: false,
            call,
            outcome: Ok(erm_transport::to_bytes(&v).unwrap()),
        };
        net.send(m.endpoint, to, reply.encode()).unwrap();
    }

    #[test]
    fn drain_completed_returns_ascending_ids_whatever_order_replies_arrive_in() {
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let clock = Arc::new(erm_sim::VirtualClock::new());
        let mut stub = connect_on(&net, &sentinel, &[&sentinel], clock);
        let ids: Vec<u64> = (0..3)
            .map(|_| stub.invoke_begin("m", &()).unwrap())
            .collect();
        let requests: Vec<_> = (0..3).map(|_| take_request(&sentinel)).collect();
        // All three replies wait in the mailbox, newest first, for one pump.
        for (k, &request) in requests.iter().enumerate().rev() {
            answer_with(&net, &sentinel, request, k as u32);
        }
        let done = stub.drain_completed();
        let drained: Vec<u64> = done.iter().map(|(id, _)| *id).collect();
        assert_eq!(drained, ids, "id order, not arrival order");
        for (k, (_, result)) in done.into_iter().enumerate() {
            let v: u32 = erm_transport::from_bytes(&result.unwrap()).unwrap();
            assert_eq!(v, k as u32, "each result stays with its invocation");
        }
    }

    #[test]
    fn a_reply_to_an_attempt_retried_after_its_timeout_is_stale() {
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let clock = Arc::new(erm_sim::VirtualClock::new());
        let mut stub = connect_on(&net, &sentinel, &[&m1], clock.clone());
        stub.set_reply_timeout(SimDuration::from_millis(100));
        let id = stub.invoke_begin("m", &()).unwrap();
        let first = take_request(&m1);
        // m1 stays mute past the reply timeout: attempt 2 goes to the
        // sentinel, the next target of the walk.
        clock.advance_to(SimTime::ZERO + SimDuration::from_millis(100));
        assert!(stub.drain_completed().is_empty());
        let second = take_request(&sentinel);
        assert_ne!(first.0, second.0, "each attempt has its own call id");

        // The first attempt's late reply is dropped...
        answer_with(&net, &m1, first, 1);
        assert!(stub.drain_completed().is_empty());
        assert_eq!(stub.in_flight(), 1);
        // ... and the second's completes the invocation.
        answer_with(&net, &sentinel, second, 2);
        let done = stub.drain_completed();
        assert!(
            matches!(done.as_slice(), [(done_id, Ok(bytes))]
                if *done_id == id && erm_transport::from_bytes::<u32>(bytes).unwrap() == 2),
            "the live attempt's reply completes it: {done:?}"
        );
        assert_eq!(stub.stats().invocations, 1);
        assert_eq!(stub.stats().retries, 1);
    }

    #[test]
    fn a_reply_to_a_finished_invocation_is_dropped() {
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let clock = Arc::new(erm_sim::VirtualClock::new());
        let mut stub = connect_on(&net, &sentinel, &[&sentinel], clock);
        let finished = stub.invoke_begin("m", &()).unwrap();
        let request = take_request(&sentinel);
        stub.invoke_begin("m", &()).unwrap();
        answer_with(&net, &sentinel, request, 1);
        let done = stub.drain_completed();
        assert!(matches!(done.as_slice(), [(id, Ok(_))] if *id == finished));

        // The same reply again: its invocation is gone.
        let stats = stub.stats();
        answer_with(&net, &sentinel, request, 1);
        assert!(stub.drain_completed().is_empty());
        assert_eq!(stub.in_flight(), 1, "the other invocation still waits");
        assert_eq!(stub.stats(), stats);
    }

    #[test]
    fn overloaded_member_is_skipped_for_the_next_one() {
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let m2 = FakeMember::new(&net);
        let mut stub = connect(&net, &sentinel, &[&m1, &m2]);
        let h = std::thread::spawn(move || {
            let v: u32 = stub.invoke("m", &()).unwrap();
            (v, stub.stats())
        });
        m1.answer(|call| RmiMessage::Overloaded {
            call,
            queue_depth: 8,
            retry_after: SimDuration::from_millis(20),
        });
        m2.answer(|call| RmiMessage::Response {
            replayed: false,
            call,
            outcome: Ok(erm_transport::to_bytes(&3u32).unwrap()),
        });
        let (v, stats) = h.join().unwrap();
        assert_eq!(v, 3);
        assert_eq!(stats.overloaded, 1);
        assert_eq!(stats.retries, 1, "overload rejection costs one retry");
    }

    #[test]
    fn all_members_overloaded_surfaces_soonest_retry_hint() {
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let mut stub = connect(&net, &sentinel, &[&m1, &sentinel]);
        let h = std::thread::spawn(move || stub.invoke::<(), u32>("m", &()));
        m1.answer(|call| RmiMessage::Overloaded {
            call,
            queue_depth: 8,
            retry_after: SimDuration::from_millis(50),
        });
        sentinel.answer(|call| RmiMessage::Overloaded {
            call,
            queue_depth: 3,
            retry_after: SimDuration::from_millis(20),
        });
        let err = h.join().unwrap().unwrap_err();
        assert!(
            matches!(
                err,
                RmiError::Overloaded {
                    attempts: 2,
                    retry_after
                } if retry_after == SimDuration::from_millis(20)
            ),
            "unexpected {err:?}"
        );
    }

    #[test]
    fn a_refusal_asks_for_the_view_that_names_a_grown_member() {
        // The pool grew a member the stub has not heard of, and every member
        // it knows refuses. The first refusal asks for a view; the
        // invocation does not wait for it and still ends Overloaded, and
        // the view puts the new member on the next invocation's walk.
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let m2 = FakeMember::new(&net);
        let clock = Arc::new(erm_sim::VirtualClock::new());
        let mut stub = connect_on(&net, &sentinel, &[&sentinel, &m1], clock);
        // Answers the request waiting at `m`, skipping view requests.
        let reply = |m: &FakeMember, f: &dyn Fn(u64) -> RmiMessage| loop {
            let d = m.mailbox.try_recv().expect("a request is waiting");
            if let RmiMessage::Request { call, .. } = RmiMessage::decode(&d.payload).unwrap() {
                net.send(m.endpoint, d.from, f(call).encode()).unwrap();
                return;
            }
        };
        let overloaded = |call| RmiMessage::Overloaded {
            call,
            queue_depth: 8,
            retry_after: SimDuration::from_millis(5),
        };
        let ok = |call| RmiMessage::Response {
            replayed: false,
            call,
            outcome: Ok(erm_transport::to_bytes(&3u32).unwrap()),
        };

        let first = stub.invoke_begin("m", &()).unwrap();
        reply(&sentinel, &overloaded);
        assert!(stub.drain_completed().is_empty());
        let ask = sentinel
            .mailbox
            .try_recv()
            .expect("the refusal asks for a view");
        assert!(matches!(
            RmiMessage::decode(&ask.payload),
            Ok(RmiMessage::PoolInfoRequest)
        ));
        reply(&m1, &overloaded);
        let done = stub.drain_completed();
        assert!(
            matches!(
                done.as_slice(),
                [(id, Err(RmiError::Overloaded { attempts: 2, .. }))] if *id == first
            ),
            "the refused invocation does not wait for the view: {done:?}"
        );

        let grown = RmiMessage::PoolInfo {
            epoch: 2,
            sentinel: sentinel.endpoint,
            members: vec![sentinel.endpoint, m1.endpoint, m2.endpoint],
            uids: vec![0, 1, 2],
        };
        net.send(sentinel.endpoint, ask.from, grown.encode())
            .unwrap();
        assert!(stub.drain_completed().is_empty());
        assert_eq!(
            stub.members(),
            &[sentinel.endpoint, m1.endpoint, m2.endpoint]
        );

        let second = stub.invoke_begin("m", &()).unwrap();
        reply(&sentinel, &overloaded);
        assert!(stub.drain_completed().is_empty());
        reply(&m1, &overloaded);
        assert!(stub.drain_completed().is_empty());
        reply(&m2, &ok);
        let done = stub.drain_completed();
        assert!(
            matches!(done.as_slice(), [(id, Ok(_))] if *id == second),
            "the grown member answers: {done:?}"
        );
    }

    #[test]
    fn limiter_backs_off_on_overloaded_then_throttles() {
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let mut stub = connect(&net, &sentinel, &[&sentinel]);
        let limiter = Arc::new(erm_admission::AimdLimiter::new(
            erm_admission::AimdConfig::default(),
        ));
        stub.set_limiter(Arc::clone(&limiter));
        let limit_before = limiter.current_limit();
        let h = std::thread::spawn(move || {
            let first = stub.invoke::<(), u32>("m", &());
            // The Overloaded reply set blocked_until one minute out; the
            // real-time test clock cannot get there, so the gate refuses
            // the second invocation locally without touching the network.
            let second = stub.invoke::<(), u32>("m", &());
            (first, second, stub.stats())
        });
        sentinel.answer(|call| RmiMessage::Overloaded {
            call,
            queue_depth: 64,
            retry_after: SimDuration::from_secs(60),
        });
        let (first, second, stats) = h.join().unwrap();
        assert!(matches!(first, Err(RmiError::Overloaded { .. })));
        assert!(matches!(second, Err(RmiError::Throttled { .. })));
        assert_eq!(stats.throttled, 1);
        assert!(
            limiter.current_limit() < limit_before,
            "congestion must shrink the window ({} -> {})",
            limit_before,
            limiter.current_limit()
        );
        assert_eq!(limiter.in_flight(), 0, "slots released on every path");
    }

    #[test]
    fn limiter_reopens_on_success() {
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let mut stub = connect(&net, &sentinel, &[&sentinel]);
        let limiter = Arc::new(erm_admission::AimdLimiter::new(erm_admission::AimdConfig {
            min_limit: 1,
            max_limit: 4,
            increase_milli: 1_000,
            backoff_milli: 500,
        }));
        // Start from a congested window.
        limiter.on_congestion(SimTime::ZERO, None);
        limiter.on_congestion(SimTime::ZERO, None);
        let shrunk = limiter.current_limit();
        stub.set_limiter(Arc::clone(&limiter));
        let h = std::thread::spawn(move || stub.invoke::<(), u32>("m", &()));
        sentinel.answer(|call| RmiMessage::Response {
            replayed: false,
            call,
            outcome: Ok(erm_transport::to_bytes(&1u32).unwrap()),
        });
        h.join().unwrap().unwrap();
        assert!(
            limiter.current_limit() > shrunk,
            "success must re-open the window ({shrunk} -> {})",
            limiter.current_limit()
        );
    }

    #[test]
    fn limiter_shrinks_on_a_skeleton_deadline_reply() {
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let mut stub = connect(&net, &sentinel, &[&sentinel]);
        let limiter = Arc::new(erm_admission::AimdLimiter::new(
            erm_admission::AimdConfig::default(),
        ));
        let limit_before = limiter.current_limit();
        stub.set_limiter(Arc::clone(&limiter));
        let h = std::thread::spawn(move || stub.invoke::<(), u32>("m", &()));
        sentinel.answer(|call| RmiMessage::Response {
            replayed: false,
            call,
            outcome: Err(RemoteError::deadline_exceeded("m", "1ms")),
        });
        let outcome = h.join().unwrap();
        assert!(
            matches!(&outcome, Err(RmiError::Remote(e)) if e.is_deadline_exceeded()),
            "{outcome:?}"
        );
        assert!(
            limiter.current_limit() < limit_before,
            "a deadline reply is congestion ({limit_before} -> {})",
            limiter.current_limit()
        );
        assert_eq!(limiter.in_flight(), 0, "the slot is released");
    }

    #[test]
    fn random_lb_is_seed_deterministic() {
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let mut a = connect(&net, &sentinel, &[&sentinel, &m1]);
        a.lb = ClientLb::Random { seed: 42 };
        a.rng = seeded_rng(42);
        let first = |stub: &mut Stub| {
            let mut order = Vec::new();
            stub.target_order(&mut order);
            order[0]
        };
        let seq_a: Vec<EndpointId> = (0..8).map(|_| first(&mut a)).collect();
        let mut b = connect(&net, &sentinel, &[&sentinel, &m1]);
        b.lb = ClientLb::Random { seed: 42 };
        b.rng = seeded_rng(42);
        let seq_b: Vec<EndpointId> = (0..8).map(|_| first(&mut b)).collect();
        assert_eq!(seq_a, seq_b);
    }

    /// Polls `stub.poll_complete(id)` until it yields, bounded so a broken
    /// engine fails the test instead of hanging it.
    fn poll_until(stub: &mut Stub, id: u64) -> Result<Vec<u8>, RmiError> {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(result) = stub.poll_complete(id) {
                return result;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "invocation {id} never completed"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn pipelined_invocations_complete_out_of_order() {
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let mut stub = connect(&net, &sentinel, &[&sentinel]);

        // Three invocations injected back to back, none awaited yet.
        let i0 = stub.invoke_begin("m", &()).unwrap();
        let i1 = stub.invoke_begin("m", &()).unwrap();
        let i2 = stub.invoke_begin("m", &()).unwrap();
        assert_eq!(stub.in_flight(), 3);

        // All three requests are already on the wire — pipelined, not
        // serialized behind each other's replies.
        let mut reqs = Vec::new();
        for _ in 0..3 {
            let d = sentinel
                .mailbox
                .recv_timeout(Duration::from_secs(5))
                .unwrap();
            match RmiMessage::decode(&d.payload).unwrap() {
                RmiMessage::Request { call, .. } => reqs.push((call, d.from)),
                other => panic!("unexpected {other:?}"),
            }
        }

        // Answer the *last* request first.
        let reply = |(call, from): (u64, EndpointId), v: u32| {
            let msg = RmiMessage::Response {
                replayed: false,
                call,
                outcome: Ok(erm_transport::to_bytes(&v).unwrap()),
            };
            net.send(sentinel.endpoint, from, msg.encode()).unwrap();
        };
        reply(reqs[2], 30);
        let v2: u32 = erm_transport::from_bytes(&poll_until(&mut stub, i2).unwrap()).unwrap();
        assert_eq!(v2, 30);
        assert!(
            stub.poll_complete(i0).is_none(),
            "earlier invocation must still be pending"
        );
        assert_eq!(stub.in_flight(), 2);

        reply(reqs[0], 10);
        reply(reqs[1], 20);
        let v0: u32 = erm_transport::from_bytes(&poll_until(&mut stub, i0).unwrap()).unwrap();
        let v1: u32 = erm_transport::from_bytes(&poll_until(&mut stub, i1).unwrap()).unwrap();
        assert_eq!((v0, v1), (10, 20));
        assert_eq!(stub.in_flight(), 0);
        assert_eq!(stub.stats().invocations, 3);
    }

    #[test]
    fn hundreds_of_outstanding_invocations_complete_on_one_endpoint() {
        const N: u32 = 300;
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let mut stub = connect(&net, &sentinel, &[&sentinel]);

        // An echo member: replies to every request with its own argument.
        let member_net = net.clone();
        let member_ep = sentinel.endpoint;
        let member_mb = sentinel.mailbox;
        let member = std::thread::spawn(move || {
            for _ in 0..N {
                let d = member_mb.recv_timeout(Duration::from_secs(10)).unwrap();
                match RmiMessage::decode(&d.payload).unwrap() {
                    RmiMessage::Request { call, args, .. } => {
                        let msg = RmiMessage::Response {
                            replayed: false,
                            call,
                            outcome: Ok(args),
                        };
                        member_net.send(member_ep, d.from, msg.encode()).unwrap();
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        });

        let mut ids = HashMap::new();
        for k in 0..N {
            let id = stub.invoke_begin("echo", &k).unwrap();
            ids.insert(id, k);
        }
        assert!(stub.in_flight() > 0);

        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut done = 0u32;
        while done < N {
            for (id, result) in stub.drain_completed() {
                let expected = ids.remove(&id).expect("unknown invocation completed");
                let got: u32 = erm_transport::from_bytes(&result.unwrap()).unwrap();
                assert_eq!(got, expected, "reply correlated to wrong invocation");
                done += 1;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "only {done}/{N} invocations completed"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        member.join().unwrap();
        assert_eq!(stub.in_flight(), 0);
        assert_eq!(stub.stats().invocations, u64::from(N));
        assert_eq!(
            stub.stats().retries,
            0,
            "no spurious retries under pipelining"
        );
    }

    #[test]
    fn pump_advances_exactly_the_invocations_with_work() {
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let m2 = FakeMember::new(&net);
        let clock = Arc::new(erm_sim::VirtualClock::new());
        let mut stub = connect_on(&net, &sentinel, &[&m1, &m2], clock.clone());
        stub.set_reply_timeout(SimDuration::from_millis(100));
        let at_ms = |ms| clock.advance_to(SimTime::ZERO + SimDuration::from_millis(ms));
        // (invocation, attempt) of every request waiting at `m`.
        let requests = |m: &FakeMember| {
            let mut seen = BTreeSet::new();
            while let Ok(d) = m.mailbox.try_recv() {
                if let RmiMessage::Request { context, .. } = RmiMessage::decode(&d.payload).unwrap()
                {
                    seen.insert((context.id, context.attempt));
                }
            }
            seen
        };
        let next_attempt = |sent: &BTreeSet<(u64, u32)>| -> BTreeSet<(u64, u32)> {
            sent.iter()
                .map(|&(id, attempt)| (id, attempt + 1))
                .collect()
        };

        // Round-robin: even invocations try m1 first, odd ones m2.
        for k in 0..200u32 {
            stub.invoke_begin("m", &k).unwrap();
        }
        let (at_m1, at_m2) = (requests(&m1), requests(&m2));
        assert_eq!((at_m1.len(), at_m2.len()), (100, 100));

        // Closing m2 fails over exactly its invocations on the next pump...
        net.close_endpoint(m2.endpoint);
        assert!(stub.drain_completed().is_empty());
        assert_eq!(stub.stats().connections_closed, 100);
        // ... and after their backoff they reach m1 as second attempts.
        at_ms(50);
        assert!(stub.drain_completed().is_empty());
        assert_eq!(requests(&m1), next_attempt(&at_m2));

        // Passing the first attempts' reply timeout retries exactly those
        // still waiting since t = 0: m1's own. Their next target is the
        // closed m2, so they back off once more and then ask the sentinel.
        at_ms(100);
        assert!(stub.drain_completed().is_empty());
        assert_eq!(stub.stats().retries, 200);
        at_ms(110);
        assert!(stub.drain_completed().is_empty());
        assert_eq!(requests(&sentinel), next_attempt(&next_attempt(&at_m1)));
        assert!(
            requests(&m1).is_empty(),
            "the failed-over attempts still wait"
        );
        assert_eq!(stub.in_flight(), 200);
    }

    #[test]
    fn attempt_counter_is_strictly_increasing_across_resend_paths() {
        // Regression for the attempt-counter propagation bug: the stub used
        // to seed `attempt` differently from the registry client and not
        // every resend path bumped it. The invariant now: `attempt: 0` is a
        // stub-internal never-sent sentinel, the first wire attempt is 1,
        // and every resend — reply-timeout retry, crash fast-failover,
        // followed redirect — carries a strictly larger value so skeletons
        // can tell replays from new work.
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let m2 = FakeMember::new(&net);
        let m3 = FakeMember::new(&net);
        let m4 = FakeMember::new(&net);
        let mut stub = connect(&net, &sentinel, &[&m1, &m2, &m3]);
        stub.set_reply_timeout(SimDuration::from_millis(100));

        let h = std::thread::spawn(move || {
            let v: u32 = stub.invoke("m", &()).unwrap();
            (v, stub.stats())
        });

        let recv_request = |m: &FakeMember| {
            let d = m.mailbox.recv_timeout(Duration::from_secs(5)).unwrap();
            match RmiMessage::decode(&d.payload).unwrap() {
                RmiMessage::Request { call, context, .. } => (call, d.from, context.attempt),
                other => panic!("unexpected {other:?}"),
            }
        };

        // Attempt 1: m1 swallows the request -> reply-timeout retry.
        let (_c1, _f1, a1) = recv_request(&m1);
        // Attempt 2: m2 receives it, then crashes mid-wait -> fast failover.
        let (_c2, _f2, a2) = recv_request(&m2);
        net.close_endpoint(m2.endpoint);
        // Attempt 3: m3 refuses with a redirect splicing m4 into the walk.
        let (c3, f3, a3) = recv_request(&m3);
        net.send(
            m3.endpoint,
            f3,
            RmiMessage::Redirected {
                call: c3,
                members: vec![m4.endpoint],
                deadline: SimTime::from_secs(1_000_000),
            }
            .encode(),
        )
        .unwrap();
        // Attempt 4: m4 finally answers.
        let (c4, f4, a4) = recv_request(&m4);
        net.send(
            m4.endpoint,
            f4,
            RmiMessage::Response {
                call: c4,
                outcome: Ok(erm_transport::to_bytes(&6u32).unwrap()),
                replayed: false,
            }
            .encode(),
        )
        .unwrap();

        let (v, stats) = h.join().unwrap();
        assert_eq!(v, 6);
        let attempts = [a1, a2, a3, a4];
        assert_eq!(a1, 1, "first wire attempt is 1, never the 0 sentinel");
        assert!(
            attempts.windows(2).all(|w| w[0] < w[1]),
            "wire attempts must strictly increase: {attempts:?}"
        );
        assert!(stats.retries >= 3, "three resends happened: {stats:?}");
    }

    #[test]
    fn pinned_invocation_holds_through_crash_and_fails_fast_on_fresh_epoch() {
        // The satellite-4 contract, both halves. (1) A committed at-most-once
        // invocation whose member crashes is NOT released to retry elsewhere:
        // the member may have executed before dying and no other reply cache
        // can suppress a re-execution. (2) Once a PoolInfo with a strictly
        // newer epoch omits the pinned member — the pool provably finalized
        // the crash — the stub fails fast with OutcomeUnknown instead of
        // re-asking the corpse until the deadline.
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let mut stub = connect(&net, &sentinel, &[&m1, &sentinel]);
        // A reply timeout and budget far longer than the test: only the
        // epoch-gated fast path can finish the invocation in time.
        stub.set_reply_timeout(SimDuration::from_secs(10));
        stub.set_semantics(SemanticsTable::new().method("m", Semantics::AtMostOnce));

        let id = stub.invoke_begin("m", &()).unwrap();
        // m1 takes delivery — the invocation commits — then crashes mute.
        let d = m1.mailbox.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(
            RmiMessage::decode(&d.payload).unwrap(),
            RmiMessage::Request { .. }
        ));
        net.close_endpoint(m1.endpoint);

        // Half 1: the stub observes the closed endpoint but stays pinned.
        // The only thing it may send the sentinel is a membership refresh —
        // a Request arriving there would be a forbidden failover. (The stub
        // engine only advances when pumped, so poll while watching the
        // sentinel's mailbox.)
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let refresh_from = loop {
            assert!(
                stub.poll_complete(id).is_none(),
                "no terminal verdict before membership proves the member gone"
            );
            if let Ok(d) = sentinel.mailbox.try_recv() {
                match RmiMessage::decode(&d.payload).unwrap() {
                    RmiMessage::PoolInfoRequest => break d.from,
                    other => panic!(
                        "a committed invocation must never fail over to \
                         another member, got {other:?}"
                    ),
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "stub never asked for a membership refresh"
            );
            std::thread::sleep(Duration::from_millis(1));
        };

        // A same-epoch view changes nothing: it cannot prove the pool
        // reconfigured after the commit.
        net.send(
            sentinel.endpoint,
            refresh_from,
            RmiMessage::PoolInfo {
                epoch: 1,
                sentinel: sentinel.endpoint,
                members: vec![sentinel.endpoint],
                uids: vec![0],
            }
            .encode(),
        )
        .unwrap();
        for _ in 0..10 {
            assert!(stub.poll_complete(id).is_none());
            std::thread::sleep(Duration::from_millis(1));
        }

        // Half 2: a strictly newer epoch without m1 → fail fast.
        net.send(
            sentinel.endpoint,
            refresh_from,
            RmiMessage::PoolInfo {
                epoch: 2,
                sentinel: sentinel.endpoint,
                members: vec![sentinel.endpoint],
                uids: vec![0],
            }
            .encode(),
        )
        .unwrap();
        let err = poll_until(&mut stub, id).unwrap_err();
        assert!(
            matches!(err, RmiError::OutcomeUnknown { member, .. } if member == m1.endpoint),
            "expected OutcomeUnknown for the lost pin, got {err:?}"
        );
        assert_eq!(stub.stats().pins_lost, 1);
        assert_eq!(stub.in_flight(), 0);
    }

    #[test]
    fn blocking_invoke_coexists_with_pending_pipelined_invocation() {
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let mut stub = connect(&net, &sentinel, &[&m1, &sentinel]);

        let h = std::thread::spawn(move || {
            // Round-robin: the pipelined invocation goes to m1, the blocking
            // one to the sentinel.
            let a = stub.invoke_begin("m", &()).unwrap();
            let b: u32 = stub.invoke("m", &()).unwrap();
            let va: u32 = erm_transport::from_bytes(&poll_until(&mut stub, a).unwrap()).unwrap();
            (va, b, stub.stats())
        });
        // Reply to the pipelined invocation *first*: the blocking wait must
        // route it to its pending entry, not swallow it as stale.
        m1.answer(|call| RmiMessage::Response {
            replayed: false,
            call,
            outcome: Ok(erm_transport::to_bytes(&7u32).unwrap()),
        });
        sentinel.answer(|call| RmiMessage::Response {
            replayed: false,
            call,
            outcome: Ok(erm_transport::to_bytes(&8u32).unwrap()),
        });
        let (va, b, stats) = h.join().unwrap();
        assert_eq!((va, b), (7, 8));
        assert_eq!(stats.invocations, 2);
        assert_eq!(stats.retries, 0);
    }

    #[test]
    fn stale_redirect_to_departed_member_is_dropped_not_spliced() {
        // Regression (shard-aware redirect sweep): a Redirected reply
        // computed under an old membership view can name a member a
        // strictly newer view has since removed. The stub used to splice it
        // unchecked and burn the remaining budget waiting on a corpse; now
        // the target is validated against the latest view, dropped, and the
        // stub falls back to a refresh while the walk continues.
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let m2 = FakeMember::new(&net);
        let mut stub = connect(&net, &sentinel, &[&m1, &m2]);

        // Epoch 2 removes m2 from the pool.
        net.send(
            sentinel.endpoint,
            stub.endpoint,
            RmiMessage::PoolInfo {
                epoch: 2,
                sentinel: sentinel.endpoint,
                members: vec![m1.endpoint],
                uids: vec![0],
            }
            .encode(),
        )
        .unwrap();
        let _ = stub.drain_completed(); // pump: install the view
        assert_eq!(stub.members(), &[m1.endpoint]);

        let m2_ep = m2.endpoint;
        let h = std::thread::spawn(move || {
            let v: u32 = stub.invoke("m", &()).unwrap();
            (v, stub.stats())
        });
        // m1 answers with a stale redirect naming the departed m2.
        m1.answer(move |call| RmiMessage::Redirected {
            call,
            members: vec![m2_ep],
            deadline: SimTime::from_secs(1_000_000),
        });
        // The walk must skip m2 entirely and land on the sentinel.
        sentinel.answer(|call| RmiMessage::Response {
            replayed: false,
            call,
            outcome: Ok(erm_transport::to_bytes(&11u32).unwrap()),
        });
        let (v, stats) = h.join().unwrap();
        assert_eq!(v, 11);
        assert_eq!(stats.stale_redirects, 1, "the departed target was dropped");
        assert!(
            m2.mailbox.try_recv().is_err(),
            "no request may reach the departed member"
        );
    }

    #[test]
    fn keyed_invocation_routes_to_ring_owner() {
        use crate::shard::KeyExtractor;
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let m2 = FakeMember::new(&net);
        let mut stub = connect(&net, &sentinel, &[&m1, &m2]);
        stub.set_sharding(ShardingTable::new().method("m", KeyExtractor::FirstU64));

        // The stub's ring is built from the PoolInfo uids [0, 1]; find a
        // key m2 owns so round-robin (which would pick m1 first) cannot
        // mask the keyed routing.
        let ring = ShardRing::from_members(&[(0, m1.endpoint), (1, m2.endpoint)]);
        let key = (0..10_000u64)
            .find(|k| ring.owner(*k) == Some(m2.endpoint))
            .expect("some key hashes to m2");

        let id = stub.invoke_begin("m", &key).unwrap();
        let d = m2.mailbox.recv_timeout(Duration::from_secs(5)).unwrap();
        let (call, context) = match RmiMessage::decode(&d.payload).unwrap() {
            RmiMessage::Request { call, context, .. } => (call, context),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(
            context.routing_key,
            Some(key),
            "the extracted key rides in the wire context"
        );
        net.send(
            m2.endpoint,
            d.from,
            RmiMessage::Response {
                call,
                outcome: Ok(erm_transport::to_bytes(&1u32).unwrap()),
                replayed: false,
            }
            .encode(),
        )
        .unwrap();
        poll_until(&mut stub, id).unwrap();
        assert!(
            m1.mailbox.try_recv().is_err(),
            "the non-owner must not see the keyed invocation"
        );
    }

    #[test]
    fn wrong_shard_reply_reroutes_to_named_owner() {
        use crate::shard::KeyExtractor;
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let m2 = FakeMember::new(&net);
        let mut stub = connect(&net, &sentinel, &[&m1, &m2]);
        stub.set_sharding(ShardingTable::new().method("m", KeyExtractor::FirstU64));
        let ring = ShardRing::from_members(&[(0, m1.endpoint), (1, m2.endpoint)]);
        let key = (0..10_000u64)
            .find(|k| ring.owner(*k) == Some(m1.endpoint))
            .expect("some key hashes to m1");

        let m2_ep = m2.endpoint;
        let h = std::thread::spawn(move || {
            let v: u32 = stub.invoke("m", &key).unwrap();
            (v, stub.stats())
        });
        // m1 believes (say, after a handoff) that m2 owns the key.
        m1.answer(move |call| RmiMessage::WrongShard {
            call,
            epoch: 1,
            owner: m2_ep,
            deadline: SimTime::from_secs(1_000_000),
        });
        m2.answer(|call| RmiMessage::Response {
            replayed: false,
            call,
            outcome: Ok(erm_transport::to_bytes(&5u32).unwrap()),
        });
        let (v, stats) = h.join().unwrap();
        assert_eq!(v, 5);
        assert_eq!(stats.wrong_shard, 1);
    }

    /// Rig for the two shard-handoff pin tests: members m1/m2 at uids 0/1,
    /// epoch 2 adds m3 at uid 2, and `key` is chosen so the handoff moves
    /// its ownership from m1 to m3 while m1 stays in the pool.
    fn handoff_rig(m1: &FakeMember, m2: &FakeMember, m3: &FakeMember) -> u64 {
        let before = ShardRing::from_members(&[(0, m1.endpoint), (1, m2.endpoint)]);
        let after =
            ShardRing::from_members(&[(0, m1.endpoint), (1, m2.endpoint), (2, m3.endpoint)]);
        (0..100_000u64)
            .find(|k| before.owner(*k) == Some(m1.endpoint) && after.owner(*k) == Some(m3.endpoint))
            .expect("some key moves from m1 to the joining m3")
    }

    #[test]
    fn sharded_pin_fails_fast_when_handoff_moves_key_before_retry() {
        // Satellite: an at-most-once pin must fast-fail OutcomeUnknown when
        // a handoff moves the invocation's key range off the pinned member,
        // even though the member itself is alive and still in the view —
        // its reply cache can no longer dedup the key, so re-asking it (or
        // anyone) risks a second execution. Here the handoff lands while
        // the stub is between retries (pin re-ask loop).
        use crate::shard::KeyExtractor;
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let m2 = FakeMember::new(&net);
        let m3 = FakeMember::new(&net);
        let key = handoff_rig(&m1, &m2, &m3);
        let mut stub = connect(&net, &sentinel, &[&m1, &m2]);
        stub.set_sharding(ShardingTable::new().method("m", KeyExtractor::FirstU64));
        stub.set_semantics(SemanticsTable::new().method("m", Semantics::AtMostOnce));
        stub.set_reply_timeout(SimDuration::from_millis(50));

        let id = stub.invoke_begin("m", &key).unwrap();
        // m1 takes delivery (the pin commits) and stays mute; wait for the
        // pin to re-ask m1 at least once so the handoff provably lands
        // between retries.
        for _ in 0..2 {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                assert!(stub.poll_complete(id).is_none(), "no verdict yet");
                if let Ok(d) = m1.mailbox.try_recv() {
                    assert!(matches!(
                        RmiMessage::decode(&d.payload).unwrap(),
                        RmiMessage::Request { .. }
                    ));
                    break;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "pinned retry never reached m1"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        // Epoch 2: m3 joins and the ring hands the key range to it.
        net.send(
            sentinel.endpoint,
            stub.endpoint,
            RmiMessage::PoolInfo {
                epoch: 2,
                sentinel: sentinel.endpoint,
                members: vec![m1.endpoint, m2.endpoint, m3.endpoint],
                uids: vec![0, 1, 2],
            }
            .encode(),
        )
        .unwrap();
        let err = poll_until(&mut stub, id).unwrap_err();
        assert!(
            matches!(err, RmiError::OutcomeUnknown { member, .. } if member == m1.endpoint),
            "expected OutcomeUnknown for the handoff-lost pin, got {err:?}"
        );
        assert_eq!(stub.stats().pins_lost, 1);
        assert!(
            m3.mailbox.try_recv().is_err(),
            "the new owner must never see a retry of the pinned invocation"
        );
    }

    #[test]
    fn sharded_pin_fails_fast_on_handoff_mid_flight() {
        // Same contract with the attempt still on the wire: the handoff
        // arrives while the stub is Waiting on m1's (never coming) reply.
        // The waiting call is abandoned and the invocation terminates
        // immediately instead of burning the 10 s reply timeout.
        use crate::shard::KeyExtractor;
        let net = InProcNetwork::new();
        let sentinel = FakeMember::new(&net);
        let m1 = FakeMember::new(&net);
        let m2 = FakeMember::new(&net);
        let m3 = FakeMember::new(&net);
        let key = handoff_rig(&m1, &m2, &m3);
        let mut stub = connect(&net, &sentinel, &[&m1, &m2]);
        stub.set_sharding(ShardingTable::new().method("m", KeyExtractor::FirstU64));
        stub.set_semantics(SemanticsTable::new().method("m", Semantics::AtMostOnce));
        stub.set_reply_timeout(SimDuration::from_secs(10));

        let id = stub.invoke_begin("m", &key).unwrap();
        let d = m1.mailbox.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(
            RmiMessage::decode(&d.payload).unwrap(),
            RmiMessage::Request { .. }
        ));

        let start = std::time::Instant::now();
        net.send(
            sentinel.endpoint,
            stub.endpoint,
            RmiMessage::PoolInfo {
                epoch: 2,
                sentinel: sentinel.endpoint,
                members: vec![m1.endpoint, m2.endpoint, m3.endpoint],
                uids: vec![0, 1, 2],
            }
            .encode(),
        )
        .unwrap();
        let err = poll_until(&mut stub, id).unwrap_err();
        assert!(
            matches!(err, RmiError::OutcomeUnknown { member, .. } if member == m1.endpoint),
            "expected OutcomeUnknown mid-flight, got {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "fast-fail, not a reply-timeout burn"
        );
        assert_eq!(stub.stats().pins_lost, 1);
        assert_eq!(stub.in_flight(), 0);
    }
}
