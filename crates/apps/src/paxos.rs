//! Multi-instance Paxos on ElasticRMI (paper §5.2), following the roles of
//! Kirsch & Amir's *Paxos for Systems Builders*.
//!
//! Each pool member is a **proposer/learner**; **acceptors** are a fixed
//! odd-sized group whose durable state (promised ballot, accepted
//! ⟨ballot, value⟩) lives in the strongly consistent shared store — the same
//! place ElasticRMI keeps all elastic-object state. Linearizable
//! compare-and-put on an acceptor's cell is exactly the "process one message
//! at a time" behaviour of an acceptor process, so the protocol logic
//! (ballot ordering, majority quorums, adopting the highest-ballot accepted
//! value) is the real thing and its safety property — all learners agree —
//! is testable under concurrency.
//!
//! Remote methods:
//!
//! * `propose(instance, value)` — run Phase 1/Phase 2 for a log instance;
//!   returns the *chosen* value, which may be an earlier proposer's
//!   (classic Paxos semantics).
//! * `propose_next(value)` — replicated-log append: finds the lowest free
//!   instance and proposes there, retrying forward until *this* command is
//!   chosen somewhere (multi-Paxos without a distinguished leader).
//! * `read_log(instance)` / `read_log_range(from, to)` — learned values.
//! * `decided_count` — how many instances this replica has learned.
//!
//! A proposer knows its own value by the [`Entry::command`] it carries,
//! never by its bytes: two invocations may carry equal bytes, and a retry
//! after a lost reply is one invocation arriving twice. An append whose
//! command is already chosen — a rival adopted it, or an earlier dispatch
//! got it in — answers with that instance instead of appending it again.
//!
//! The fine-grained elasticity metric is the consensus-round rate.

use std::sync::atomic::{AtomicU64, Ordering};

use elasticrmi::{
    decode_args, encode_result, ElasticService, MethodCallStats, RemoteError, ServiceContext,
};
use serde::{Deserialize, Serialize};

use crate::model::{demand_vote, AppKind};

/// A proposed value and the command that proposed it: what acceptors
/// accept and learners learn.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Entry {
    /// The proposing invocation's `(origin endpoint, invocation id)`, which
    /// stays the same across its retries; `(u64::MAX, n)` with a
    /// process-unique `n` for a call made outside a remote dispatch.
    pub command: (u64, u64),
    /// The proposed bytes.
    pub value: Vec<u8>,
}

impl Entry {
    fn of(ctx: &ServiceContext, value: Vec<u8>) -> Entry {
        static LOCAL: AtomicU64 = AtomicU64::new(0);
        let command = match ctx.invocation() {
            Some(inv) => (inv.origin.0, inv.id),
            None => (u64::MAX, LOCAL.fetch_add(1, Ordering::Relaxed)),
        };
        Entry { command, value }
    }
}

/// Durable acceptor state for one (instance, acceptor) pair.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AcceptorState {
    /// Highest ballot this acceptor has promised.
    pub promised: u64,
    /// Highest-ballot proposal this acceptor has accepted.
    pub accepted: Option<(u64, Entry)>,
}

/// Outcome of a `propose` call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProposeResult {
    /// The value actually chosen for the instance.
    pub chosen: Vec<u8>,
    /// Whether the chosen value is the one this call proposed.
    pub was_ours: bool,
    /// Ballot the value was chosen at.
    pub ballot: u64,
}

/// The elastic Paxos replica service.
#[derive(Debug)]
pub struct PaxosReplica {
    /// Size of the acceptor group (odd; default 3).
    acceptors: u32,
    /// Next ballot round for this proposer.
    round: u64,
    decided_here: u64,
    /// Lowest instance this replica believes may be free (advances as it
    /// observes decided slots; purely an optimization for `propose_next`).
    next_free_hint: u64,
}

impl Default for PaxosReplica {
    fn default() -> Self {
        Self::new(3)
    }
}

impl PaxosReplica {
    /// Creates a replica with an acceptor group of `acceptors` cells.
    ///
    /// # Panics
    ///
    /// Panics unless `acceptors` is odd and at least 3 (majority quorums).
    pub fn new(acceptors: u32) -> Self {
        assert!(
            acceptors >= 3 && acceptors % 2 == 1,
            "acceptor group must be odd and >= 3, got {acceptors}"
        );
        PaxosReplica {
            acceptors,
            round: 0,
            decided_here: 0,
            next_free_hint: 0,
        }
    }

    /// The elastic class name.
    pub const CLASS: &'static str = "Paxos";

    fn quorum(&self) -> u32 {
        self.acceptors / 2 + 1
    }

    fn acceptor_key(instance: u64, acceptor: u32) -> String {
        format!("paxos/acc/{instance}/{acceptor}")
    }

    fn log_key(instance: u64) -> String {
        format!("paxos/log/{instance}")
    }

    /// Where the instance a command was chosen at is recorded, so a retry
    /// that reaches any replica finds it without walking the log.
    fn command_key((origin, id): (u64, u64)) -> String {
        format!("paxos/cmd/{origin}/{id}")
    }

    fn learned(ctx: &ServiceContext, instance: u64) -> Option<Entry> {
        let v = ctx.store().get(&Self::log_key(instance))?;
        Some(erm_transport::from_bytes(&v.value).expect("log entry decodes"))
    }

    /// Atomically applies `f` to an acceptor cell (CAS retry loop) and
    /// returns `f`'s verdict together with the pre-update state.
    fn acceptor_rmw(
        ctx: &ServiceContext,
        key: &str,
        f: impl Fn(&mut AcceptorState) -> bool,
    ) -> (bool, AcceptorState) {
        loop {
            let current = ctx.store().get(key);
            let (expected, mut state) = match &current {
                Some(v) => (
                    Some(v.version),
                    erm_transport::from_bytes::<AcceptorState>(&v.value)
                        .expect("acceptor state decodes"),
                ),
                None => (None, AcceptorState::default()),
            };
            let before = state.clone();
            let granted = f(&mut state);
            let bytes = erm_transport::to_bytes(&state).expect("acceptor state encodes");
            if ctx.store().compare_and_put(key, expected, bytes).is_ok() {
                return (granted, before);
            }
        }
    }

    /// One Paxos attempt at ballot `ballot`. Returns the chosen value on
    /// success.
    fn attempt(
        &self,
        ctx: &ServiceContext,
        instance: u64,
        ballot: u64,
        value: &Entry,
    ) -> Option<(Entry, u64)> {
        // Phase 1: prepare/promise.
        let mut promises = 0u32;
        let mut best_accepted: Option<(u64, Entry)> = None;
        for a in 0..self.acceptors {
            let key = Self::acceptor_key(instance, a);
            let (granted, _) = Self::acceptor_rmw(ctx, &key, |s| {
                if ballot > s.promised {
                    s.promised = ballot;
                    true
                } else {
                    false
                }
            });
            if granted {
                promises += 1;
                // Re-read the accepted value recorded at promise time.
                if let Some(v) = ctx.store().get(&key) {
                    let s: AcceptorState =
                        erm_transport::from_bytes(&v.value).expect("acceptor state decodes");
                    if let Some((ab, av)) = s.accepted {
                        if best_accepted.as_ref().is_none_or(|(bb, _)| ab > *bb) {
                            best_accepted = Some((ab, av));
                        }
                    }
                }
            }
        }
        if promises < self.quorum() {
            return None;
        }
        // Phase 2: accept with the highest-ballot accepted value, if any
        // (the core Paxos safety rule), else our own.
        let chosen_value = best_accepted.map_or_else(|| value.clone(), |(_, v)| v);
        let mut accepts = 0u32;
        for a in 0..self.acceptors {
            let key = Self::acceptor_key(instance, a);
            let v = chosen_value.clone();
            let (granted, _) = Self::acceptor_rmw(ctx, &key, move |s| {
                if ballot >= s.promised {
                    s.promised = ballot;
                    s.accepted = Some((ballot, v.clone()));
                    true
                } else {
                    false
                }
            });
            if granted {
                accepts += 1;
            }
        }
        if accepts < self.quorum() {
            return None;
        }
        Some((chosen_value, ballot))
    }

    fn learn(ctx: &ServiceContext, instance: u64, entry: &Entry) {
        let key = Self::log_key(instance);
        let bytes = erm_transport::to_bytes(entry).expect("log entry encodes");
        match ctx.store().compare_and_put(&key, None, bytes) {
            Ok(_) => {
                let at = erm_transport::to_bytes(&instance).expect("u64 encodes");
                let _ = ctx
                    .store()
                    .compare_and_put(&Self::command_key(entry.command), None, at);
            }
            Err(_) => {
                // Someone learned first. Paxos safety says it must be the
                // same value; a mismatch would be a protocol violation.
                assert_eq!(
                    Self::learned(ctx, instance).as_ref(),
                    Some(entry),
                    "Paxos safety violation: two different values learned for instance {instance}"
                );
            }
        }
    }
}

impl ElasticService for PaxosReplica {
    fn dispatch(
        &mut self,
        method: &str,
        args: &[u8],
        ctx: &mut ServiceContext,
    ) -> Result<Vec<u8>, RemoteError> {
        match method {
            "propose" => {
                let (instance, value): (u64, Vec<u8>) = decode_args(method, args)?;
                let entry = Entry::of(ctx, value);
                // Fast path: already decided.
                if let Some(existing) = Self::learned(ctx, instance) {
                    return encode_result(&ProposeResult {
                        was_ours: existing.command == entry.command,
                        chosen: existing.value,
                        ballot: 0,
                    });
                }
                // Ballots unique per proposer: round * stride + uid.
                const STRIDE: u64 = 4096;
                for _ in 0..64 {
                    self.round += 1;
                    let ballot = self.round * STRIDE + ctx.uid() % STRIDE + 1;
                    if let Some((chosen, ballot)) = self.attempt(ctx, instance, ballot, &entry) {
                        Self::learn(ctx, instance, &chosen);
                        self.decided_here += 1;
                        return encode_result(&ProposeResult {
                            was_ours: chosen.command == entry.command,
                            chosen: chosen.value,
                            ballot,
                        });
                    }
                }
                Err(RemoteError::new(
                    "ConsensusTimeout",
                    format!("instance {instance}: no quorum after 64 ballots"),
                ))
            }
            "propose_next" => {
                let entry = Entry::of(ctx, decode_args(method, args)?);
                let ours = |instance: u64, ballot: u64| {
                    let chosen = entry.value.clone();
                    let result = ProposeResult {
                        chosen,
                        was_ours: true,
                        ballot,
                    };
                    encode_result(&(instance, result))
                };
                // A retry of a command already chosen gets its instance.
                if let Some(at) = ctx.store().get(&Self::command_key(entry.command)) {
                    let at: u64 = erm_transport::from_bytes(&at.value).expect("u64 decodes");
                    return ours(at, 0);
                }
                // Walk the log from the lowest instance this replica has
                // not yet seen decided, proposing until our command wins
                // one. An instance already holding it — a rival adopted it
                // in Phase 1 and learned it — is ours too.
                let mut instance = self.next_free_hint;
                for _ in 0..4096 {
                    if let Some(existing) = Self::learned(ctx, instance) {
                        if existing.command == entry.command {
                            return ours(instance, 0);
                        }
                        instance += 1;
                        continue;
                    }
                    const STRIDE: u64 = 4096;
                    self.round += 1;
                    let ballot = self.round * STRIDE + ctx.uid() % STRIDE + 1;
                    if let Some((chosen, ballot)) = self.attempt(ctx, instance, ballot, &entry) {
                        Self::learn(ctx, instance, &chosen);
                        self.decided_here += 1;
                        self.next_free_hint = instance;
                        if chosen.command == entry.command {
                            return ours(instance, ballot);
                        }
                        // Another proposer's value took this slot; move on.
                        instance += 1;
                    }
                    // Quorum lost: retry the same instance at a higher
                    // ballot on the next iteration.
                }
                Err(RemoteError::new(
                    "ConsensusTimeout",
                    "propose_next found no free instance in 4096 steps",
                ))
            }
            "read_log_range" => {
                let (from, to): (u64, u64) = decode_args(method, args)?;
                if to < from || to - from > 4096 {
                    return Err(RemoteError::new(
                        "IllegalArgument",
                        format!("bad range {from}..{to}"),
                    ));
                }
                let entries: Vec<Option<Vec<u8>>> = (from..to)
                    .map(|i| Self::learned(ctx, i).map(|e| e.value))
                    .collect();
                encode_result(&entries)
            }
            "read_log" => {
                let instance: u64 = decode_args(method, args)?;
                let value = Self::learned(ctx, instance).map(|e| e.value);
                encode_result(&value)
            }
            "decided_count" => encode_result(&self.decided_here),
            other => Err(RemoteError::no_such_method(other)),
        }
    }

    fn change_pool_size(&mut self, stats: &MethodCallStats, ctx: &mut ServiceContext) -> i32 {
        let model = AppKind::Paxos.model();
        let pool_rate = stats.rate("propose") * f64::from(ctx.pool_size().max(1));
        demand_vote(pool_rate, model.per_object_capacity, ctx.pool_size(), 1.0)
            .max(i32::try_from(model.min_objects).expect("small") - ctx.pool_size() as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erm_kvstore::{Store, StoreConfig};
    use erm_sim::VirtualClock;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    fn member(store: &Arc<Store>, uid: u64) -> (PaxosReplica, ServiceContext) {
        (
            PaxosReplica::default(),
            ServiceContext::new(
                Arc::clone(store),
                PaxosReplica::CLASS,
                uid,
                Arc::new(VirtualClock::new()),
                Arc::new(AtomicU32::new(3)),
            ),
        )
    }

    fn propose(
        replica: &mut PaxosReplica,
        ctx: &mut ServiceContext,
        instance: u64,
        value: &[u8],
    ) -> ProposeResult {
        let args = erm_transport::to_bytes(&(instance, value.to_vec())).unwrap();
        let out = replica.dispatch("propose", &args, ctx).unwrap();
        erm_transport::from_bytes(&out).unwrap()
    }

    #[test]
    fn single_proposer_decides_its_value() {
        let store = Arc::new(Store::new(StoreConfig::default()));
        let (mut r, mut ctx) = member(&store, 0);
        let res = propose(&mut r, &mut ctx, 0, b"alpha");
        assert!(res.was_ours);
        assert_eq!(res.chosen, b"alpha");
    }

    #[test]
    fn second_proposer_learns_the_decided_value() {
        let store = Arc::new(Store::new(StoreConfig::default()));
        let (mut r0, mut ctx0) = member(&store, 0);
        let (mut r1, mut ctx1) = member(&store, 1);
        let first = propose(&mut r0, &mut ctx0, 7, b"alpha");
        assert!(first.was_ours);
        let second = propose(&mut r1, &mut ctx1, 7, b"beta");
        assert!(!second.was_ours, "instance already decided");
        assert_eq!(second.chosen, b"alpha");
    }

    #[test]
    fn distinct_instances_are_independent() {
        let store = Arc::new(Store::new(StoreConfig::default()));
        let (mut r, mut ctx) = member(&store, 0);
        assert_eq!(propose(&mut r, &mut ctx, 1, b"a").chosen, b"a");
        assert_eq!(propose(&mut r, &mut ctx, 2, b"b").chosen, b"b");
    }

    #[test]
    fn read_log_reflects_decisions() {
        let store = Arc::new(Store::new(StoreConfig::default()));
        let (mut r, mut ctx) = member(&store, 0);
        let args = erm_transport::to_bytes(&3u64).unwrap();
        let before: Option<Vec<u8>> =
            erm_transport::from_bytes(&r.dispatch("read_log", &args, &mut ctx).unwrap()).unwrap();
        assert!(before.is_none());
        propose(&mut r, &mut ctx, 3, b"x");
        let after: Option<Vec<u8>> =
            erm_transport::from_bytes(&r.dispatch("read_log", &args, &mut ctx).unwrap()).unwrap();
        assert_eq!(after.unwrap(), b"x");
    }

    #[test]
    fn concurrent_proposers_agree() {
        // The safety property: many proposers race on the same instances;
        // every learner must observe a single value per instance.
        let store = Arc::new(Store::new(StoreConfig::default()));
        let mut handles = Vec::new();
        for uid in 0..4u64 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let (mut r, mut ctx) = member(&store, uid);
                let mut outcomes = Vec::new();
                for instance in 0..20u64 {
                    let value = format!("v-{uid}-{instance}").into_bytes();
                    let res = propose(&mut r, &mut ctx, instance, &value);
                    outcomes.push((instance, res.chosen));
                }
                outcomes
            }));
        }
        let all: Vec<Vec<(u64, Vec<u8>)>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for instance in 0..20u64 {
            let mut values: Vec<&Vec<u8>> = all
                .iter()
                .flat_map(|o| o.iter().filter(|(i, _)| *i == instance).map(|(_, v)| v))
                .collect();
            values.dedup();
            assert_eq!(
                values.len(),
                1,
                "instance {instance} decided multiple values: {values:?}"
            );
        }
    }

    #[test]
    fn ballots_are_unique_across_proposers() {
        // Two proposers with different uids never generate the same ballot.
        let b = |round: u64, uid: u64| round * 4096 + uid % 4096 + 1;
        for round in 1..50 {
            for other in 1..10 {
                assert_ne!(b(round, 0), b(round, other));
            }
        }
    }

    #[test]
    #[should_panic(expected = "odd and >= 3")]
    fn even_acceptor_group_rejected() {
        let _ = PaxosReplica::new(4);
    }

    #[test]
    fn decided_count_tracks_local_decisions() {
        let store = Arc::new(Store::new(StoreConfig::default()));
        let (mut r, mut ctx) = member(&store, 0);
        propose(&mut r, &mut ctx, 1, b"a");
        propose(&mut r, &mut ctx, 2, b"b");
        let n: u64 = erm_transport::from_bytes(
            &r.dispatch(
                "decided_count",
                &erm_transport::to_bytes(&()).unwrap(),
                &mut ctx,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(n, 2);
    }
}

#[cfg(test)]
mod log_tests {
    use super::*;
    use erm_kvstore::{Store, StoreConfig};
    use erm_sim::VirtualClock;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    fn member(store: &Arc<Store>, uid: u64) -> (PaxosReplica, ServiceContext) {
        (
            PaxosReplica::default(),
            ServiceContext::new(
                Arc::clone(store),
                PaxosReplica::CLASS,
                uid,
                Arc::new(VirtualClock::new()),
                Arc::new(AtomicU32::new(3)),
            ),
        )
    }

    fn propose_next(
        r: &mut PaxosReplica,
        ctx: &mut ServiceContext,
        value: &[u8],
    ) -> (u64, ProposeResult) {
        let out = r
            .dispatch(
                "propose_next",
                &erm_transport::to_bytes(&value.to_vec()).unwrap(),
                ctx,
            )
            .unwrap();
        erm_transport::from_bytes(&out).unwrap()
    }

    #[test]
    fn appends_take_consecutive_instances() {
        let store = Arc::new(Store::new(StoreConfig::default()));
        let (mut r, mut ctx) = member(&store, 0);
        let (i0, res0) = propose_next(&mut r, &mut ctx, b"a");
        let (i1, res1) = propose_next(&mut r, &mut ctx, b"b");
        assert!(res0.was_ours && res1.was_ours);
        assert_eq!((i0, i1), (0, 1));
    }

    #[test]
    fn concurrent_appenders_get_distinct_slots() {
        let store = Arc::new(Store::new(StoreConfig::default()));
        let mut handles = Vec::new();
        for uid in 0..4u64 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let (mut r, mut ctx) = member(&store, uid);
                let mut slots = Vec::new();
                for i in 0..10 {
                    let value = format!("{uid}-{i}").into_bytes();
                    let (slot, res) = propose_next(&mut r, &mut ctx, &value);
                    assert!(res.was_ours, "propose_next must persist until ours wins");
                    assert_eq!(res.chosen, value);
                    slots.push(slot);
                }
                slots
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "two appends landed in the same log slot");
        // The log is dense: 40 appends occupy instances 0..40.
        assert_eq!(*all.last().unwrap(), n as u64 - 1);
    }

    fn invocation(id: u64) -> elasticrmi::InvocationContext {
        elasticrmi::InvocationContext {
            id,
            deadline: erm_sim::SimTime::from_secs(10),
            attempt: 1,
            origin: erm_transport::EndpointId(9),
            semantics: elasticrmi::Semantics::AtLeastOnce,
            routing_key: None,
        }
    }

    #[test]
    fn an_invocation_dispatched_twice_appends_once() {
        // A retry after a lost reply reaches a replica as the same
        // invocation again, the same one or another after later appends:
        // it answers with the slot its command already holds.
        let store = Arc::new(Store::new(StoreConfig::default()));
        let (mut a, mut ctx_a) = member(&store, 0);
        let (mut b, mut ctx_b) = member(&store, 1);
        ctx_a.set_invocation(Some(invocation(1)));
        let (first, _) = propose_next(&mut a, &mut ctx_a, b"a");
        let (again, _) = propose_next(&mut a, &mut ctx_a, b"a");
        for id in 2..5 {
            ctx_b.set_invocation(Some(invocation(id)));
            propose_next(&mut b, &mut ctx_b, b"b");
        }
        ctx_b.set_invocation(Some(invocation(1)));
        let (elsewhere, res) = propose_next(&mut b, &mut ctx_b, b"a");
        assert!(res.was_ours);
        assert_eq!(
            (first, again, elsewhere),
            (0, 0, 0),
            "one invocation, one slot"
        );
    }

    #[test]
    fn two_invocations_with_equal_bytes_get_two_slots() {
        let store = Arc::new(Store::new(StoreConfig::default()));
        let (mut r, mut ctx) = member(&store, 0);
        ctx.set_invocation(Some(invocation(1)));
        let (first, _) = propose_next(&mut r, &mut ctx, b"a");
        ctx.set_invocation(Some(invocation(2)));
        let (second, res) = propose_next(&mut r, &mut ctx, b"a");
        assert!(res.was_ours);
        assert_eq!((first, second), (0, 1));
    }

    #[test]
    fn read_log_range_returns_dense_prefix() {
        let store = Arc::new(Store::new(StoreConfig::default()));
        let (mut r, mut ctx) = member(&store, 0);
        for v in [b"x".as_slice(), b"y", b"z"] {
            propose_next(&mut r, &mut ctx, v);
        }
        let out = r
            .dispatch(
                "read_log_range",
                &erm_transport::to_bytes(&(0u64, 5u64)).unwrap(),
                &mut ctx,
            )
            .unwrap();
        let entries: Vec<Option<Vec<u8>>> = erm_transport::from_bytes(&out).unwrap();
        assert_eq!(entries.len(), 5);
        assert_eq!(entries[0].as_deref(), Some(b"x".as_slice()));
        assert_eq!(entries[2].as_deref(), Some(b"z".as_slice()));
        assert!(entries[3].is_none() && entries[4].is_none());
    }

    #[test]
    fn read_log_range_validates_bounds() {
        let store = Arc::new(Store::new(StoreConfig::default()));
        let (mut r, mut ctx) = member(&store, 0);
        let err = r
            .dispatch(
                "read_log_range",
                &erm_transport::to_bytes(&(5u64, 1u64)).unwrap(),
                &mut ctx,
            )
            .unwrap_err();
        assert_eq!(err.kind, "IllegalArgument");
    }
}
