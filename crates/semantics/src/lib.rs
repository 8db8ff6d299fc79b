//! Invocation semantics for elastic object pools (wire v4).
//!
//! The pipelined stub retries aggressively — fast-failover on
//! `ConnectionClosed`, jittered backoff after timeouts, redirect splicing —
//! so a non-idempotent method can execute twice whenever a *reply* is lost
//! after the *request* landed. That is fine for echo and fatal for order
//! routing. This crate supplies the two pieces that turn retries into a
//! correctness feature instead of a hazard:
//!
//! - a per-method **semantics menu** ([`Semantics`], [`SemanticsTable`]):
//!   `AtMostOnce` / `AtLeastOnce` (the pre-v4 behavior) / `Maybe`, declared
//!   where methods are registered and carried on the wire inside the
//!   invocation context so every hop (stub, sentinel redirect, skeleton)
//!   agrees on the contract; and
//! - a per-skeleton **reply cache** ([`ReplyCache`]) keyed by
//!   `(origin, invocation id)` that records in-progress and completed
//!   invocations. Duplicate attempts of a completed invocation replay the
//!   cached reply; duplicates of an in-flight one park and are answered when
//!   the first execution finishes. Either way the duplicate never occupies a
//!   run-queue slot.
//!
//! The cache is deliberately boring where it matters: entries expire
//! deterministically on the injected clock (TTL = the invocation's deadline
//! plus a grace window), memory is bounded by an entry cap *and* a byte cap
//! with LRU eviction (evictions are counted, never silent), and entries are
//! tagged with the membership epoch they were created in so churn-era
//! suppression remains observable after a crash-recovery re-election.
//!
//! The crate is dependency-light on purpose: it knows about simulated time
//! (`erm-sim`) and endpoint identity (`erm-transport`) but **not** about the
//! RMI message or error types — the cached reply is a caller-chosen generic
//! `R`, so `elasticrmi` caches `Result<Vec<u8>, RemoteError>` without a
//! dependency cycle.

use std::collections::{BTreeMap, BTreeSet};

use erm_sim::SimTime;
use erm_transport::EndpointId;
use serde::{Deserialize, Serialize};

/// What the middleware guarantees about how many times one logical
/// invocation runs, regardless of how many wire attempts it took.
///
/// Encoded on the wire (v4) as a u32 enum index inside the invocation
/// context; the order of variants is therefore append-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Semantics {
    /// The method executes **at most one** time. The stub commits to the
    /// first member a request was delivered to and re-asks *that* member on
    /// silence (timeout / broken connection); the skeleton's reply cache
    /// suppresses the duplicates, replaying the reply if the first attempt
    /// already ran. Explicit refusals (`Redirected`, `Overloaded`) prove the
    /// request never executed, so failover to another member stays legal.
    AtMostOnce,
    /// The pre-v4 contract: retry anywhere until the deadline. Lost replies
    /// can re-execute the method, so it must be idempotent.
    AtLeastOnce,
    /// Best effort: one wire attempt, no retransmission ever. Zero or one
    /// executions; any silence or refusal after the send is a client error.
    Maybe,
}

impl Default for Semantics {
    /// `AtLeastOnce` is the default because it is exactly the behavior every
    /// existing method was written against.
    fn default() -> Self {
        Semantics::AtLeastOnce
    }
}

impl Semantics {
    /// Human name used in reports and docs.
    pub fn name(self) -> &'static str {
        match self {
            Semantics::AtMostOnce => "at-most-once",
            Semantics::AtLeastOnce => "at-least-once",
            Semantics::Maybe => "maybe",
        }
    }
}

/// Per-method semantics declarations: a default plus per-method overrides.
///
/// Declared once (alongside the method registry / pool config) and consulted
/// by the stub when it opens an invocation; the chosen [`Semantics`] then
/// rides inside the invocation context so skeletons never have to guess.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SemanticsTable {
    default: Semantics,
    methods: BTreeMap<String, Semantics>,
}

impl SemanticsTable {
    /// All methods `AtLeastOnce` — the pre-v4 world.
    pub fn new() -> Self {
        Self::default()
    }

    /// Change the fallback used for methods without an explicit entry.
    pub fn with_default(mut self, semantics: Semantics) -> Self {
        self.default = semantics;
        self
    }

    /// Declare one method's semantics (builder-style).
    pub fn method(mut self, name: impl Into<String>, semantics: Semantics) -> Self {
        self.methods.insert(name.into(), semantics);
        self
    }

    /// The semantics a given method was declared with.
    pub fn semantics_for(&self, method: &str) -> Semantics {
        self.methods.get(method).copied().unwrap_or(self.default)
    }

    /// Iterate declared overrides (for docs/report rendering).
    pub fn overrides(&self) -> impl Iterator<Item = (&str, Semantics)> {
        self.methods.iter().map(|(m, s)| (m.as_str(), *s))
    }
}

/// Tuning for one skeleton's [`ReplyCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplyCacheConfig {
    /// How long a completed reply outlives the invocation's deadline. The
    /// deadline itself bounds how late a duplicate can still be admitted, so
    /// a small grace window is enough to cover clock skew between the last
    /// admissible duplicate and the expiry sweep.
    pub grace: erm_sim::SimDuration,
    /// Maximum number of cache entries (in-progress + completed).
    pub max_entries: usize,
    /// Maximum bytes of cached reply payloads. In-progress entries count 0;
    /// completed entries count the caller-reported reply size.
    pub max_bytes: usize,
}

impl Default for ReplyCacheConfig {
    fn default() -> Self {
        Self {
            grace: erm_sim::SimDuration::from_millis(1_000),
            max_entries: 1_024,
            max_bytes: 1 << 20,
        }
    }
}

/// A duplicate attempt that arrived while the first execution was still in
/// flight. Answered (with the cached reply) when the execution completes or
/// aborts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParkedAttempt {
    /// Who to answer.
    pub from: EndpointId,
    /// The wire call id of the *duplicate* attempt — replies must echo the
    /// attempt's own call id or the stub will drop them as stale.
    pub call: u64,
}

/// Outcome of consulting the cache for an arriving attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup<R> {
    /// No live entry: this is new work. Admit it, and on successful
    /// admission call [`ReplyCache::begin`].
    Miss,
    /// The invocation is executing (or queued) right now; the attempt was
    /// parked and will be answered on completion.
    Parked,
    /// The invocation already completed; replay this cached reply.
    Replay(R),
}

/// Counters for one cache. Monotonic over the cache's lifetime (epoch
/// changes never reset them — suppression stats survive re-election).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Duplicate attempts suppressed (parked + replayed).
    pub hits: u64,
    /// Cached replies sent in place of a re-execution (immediate replays
    /// plus parked attempts answered at completion).
    pub replayed: u64,
    /// Attempts parked against an in-flight execution.
    pub parked: u64,
    /// Entries evicted by the LRU/byte bound (never silently).
    pub evicted: u64,
    /// Entries removed by deterministic TTL expiry.
    pub expired: u64,
    /// Live entries created in an earlier membership epoch than the current
    /// one (they stay valid — at-most-once is a per-invocation contract, not
    /// a per-epoch one — but churn-era carryover stays observable).
    pub epoch_carryover: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    origin: EndpointId,
    invocation: u64,
}

#[derive(Debug)]
enum State<R> {
    InProgress { parked: Vec<ParkedAttempt> },
    Completed { reply: R, bytes: usize },
}

#[derive(Debug)]
struct Entry<R> {
    state: State<R>,
    /// Deterministic TTL: invocation deadline + grace.
    expires: SimTime,
    /// Membership epoch the entry was created in.
    epoch: u64,
    /// LRU tick of the last touch.
    touched: u64,
}

/// Per-skeleton duplicate-suppression cache keyed by `(origin, invocation)`.
///
/// Bounded (entry cap + byte cap, LRU eviction of *completed* entries only —
/// evicting an in-progress entry would orphan parked attempts), with
/// deterministic expiry on the injected clock. Generic over the cached reply
/// type `R` so the RMI layer can cache its own outcome type without a
/// dependency cycle.
#[derive(Debug)]
pub struct ReplyCache<R> {
    config: ReplyCacheConfig,
    entries: BTreeMap<Key, Entry<R>>,
    /// LRU index: touch tick → key. Ticks are unique (monotone counter).
    lru: BTreeMap<u64, Key>,
    /// Expiry index so the per-request TTL sweep is O(expired), not O(live).
    expiry: BTreeSet<(SimTime, Key)>,
    tick: u64,
    bytes: usize,
    epoch: u64,
    stats: DedupStats,
}

impl<R: Clone> ReplyCache<R> {
    pub fn new(config: ReplyCacheConfig) -> Self {
        Self {
            config,
            entries: BTreeMap::new(),
            lru: BTreeMap::new(),
            expiry: BTreeSet::new(),
            tick: 0,
            bytes: 0,
            epoch: 0,
            stats: DedupStats::default(),
        }
    }

    /// Live entries (in-progress + completed).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes of cached reply payloads currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    pub fn stats(&self) -> DedupStats {
        self.stats
    }

    /// Record a membership-epoch advance (re-election, join/leave
    /// broadcast). Existing entries stay valid — the at-most-once contract
    /// is per invocation, not per epoch — but entries from older epochs are
    /// counted so churn-era suppression stays visible in reports.
    pub fn set_epoch(&mut self, epoch: u64) {
        if epoch > self.epoch {
            self.epoch = epoch;
            self.stats.epoch_carryover +=
                self.entries.values().filter(|e| e.epoch < epoch).count() as u64;
        }
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Consult the cache for an arriving attempt. Called *before* admission:
    /// a suppressed duplicate must never occupy a run-queue slot.
    ///
    /// `Miss` performs no mutation beyond the expiry check — record the
    /// in-progress entry with [`begin`](Self::begin) only once admission
    /// actually accepted the request.
    pub fn lookup(
        &mut self,
        origin: EndpointId,
        invocation: u64,
        from: EndpointId,
        call: u64,
        now: SimTime,
    ) -> Lookup<R> {
        let key = Key { origin, invocation };
        // Lazily drop an expired entry rather than replaying stale state.
        if self.entries.get(&key).is_some_and(|e| e.expires <= now) {
            self.remove(key);
            self.stats.expired += 1;
        }
        let tick = self.next_tick();
        let Some(entry) = self.entries.get_mut(&key) else {
            return Lookup::Miss;
        };
        self.lru.remove(&entry.touched);
        entry.touched = tick;
        self.lru.insert(tick, key);
        self.stats.hits += 1;
        match &mut entry.state {
            State::InProgress { parked } => {
                parked.push(ParkedAttempt { from, call });
                self.stats.parked += 1;
                Lookup::Parked
            }
            State::Completed { reply, .. } => {
                self.stats.replayed += 1;
                Lookup::Replay(reply.clone())
            }
        }
    }

    /// Record that an admitted invocation is now in flight. TTL is the
    /// invocation's own deadline plus the configured grace window, so the
    /// entry outlives every attempt the stub could still legally send.
    pub fn begin(&mut self, origin: EndpointId, invocation: u64, deadline: SimTime) {
        let key = Key { origin, invocation };
        let tick = self.next_tick();
        self.remove(key); // defensive: begin twice must not leak an LRU slot
        let expires = deadline + self.config.grace;
        self.entries.insert(
            key,
            Entry {
                state: State::InProgress { parked: Vec::new() },
                expires,
                epoch: self.epoch,
                touched: tick,
            },
        );
        self.lru.insert(tick, key);
        self.expiry.insert((expires, key));
        self.enforce_bounds();
    }

    /// The first execution finished: cache the reply for future duplicates
    /// and return every attempt that parked while it ran (each must be
    /// answered with this same reply under its own call id).
    ///
    /// `bytes` is the caller-reported payload size charged against the byte
    /// cap. No-op (returning no waiters) if the entry expired or was evicted
    /// while the request sat in the run queue.
    pub fn complete(
        &mut self,
        origin: EndpointId,
        invocation: u64,
        reply: R,
        bytes: usize,
    ) -> Vec<ParkedAttempt> {
        let key = Key { origin, invocation };
        let Some(entry) = self.entries.get_mut(&key) else {
            return Vec::new();
        };
        let waiters = match std::mem::replace(&mut entry.state, State::Completed { reply, bytes }) {
            State::InProgress { parked } => parked,
            State::Completed { bytes: old, .. } => {
                // Re-completing (shouldn't happen) must not double-charge.
                self.bytes = self.bytes.saturating_sub(old);
                Vec::new()
            }
        };
        self.bytes += bytes;
        self.stats.replayed += waiters.len() as u64;
        self.enforce_bounds();
        waiters
    }

    /// The in-progress execution was abandoned before it produced a reply
    /// (culled at its deadline, shed during drain, crashed member). Drops
    /// the entry and returns the parked attempts so the caller can answer
    /// them with the same failure it gave the original. A later retry is
    /// admitted as new work — which is safe precisely because the original
    /// never executed.
    pub fn abort(&mut self, origin: EndpointId, invocation: u64) -> Vec<ParkedAttempt> {
        let key = Key { origin, invocation };
        match self.remove(key) {
            Some(Entry {
                state: State::InProgress { parked },
                ..
            }) => parked,
            Some(completed) => {
                // Aborting a completed entry would forget a reply that a
                // duplicate may still need; put it back untouched (same
                // expiry and epoch, fresh LRU tick).
                let tick = self.next_tick();
                if let State::Completed { bytes, .. } = &completed.state {
                    self.bytes += bytes;
                }
                self.expiry.insert((completed.expires, key));
                self.entries.insert(
                    key,
                    Entry {
                        touched: tick,
                        ..completed
                    },
                );
                self.lru.insert(tick, key);
                Vec::new()
            }
            None => Vec::new(),
        }
    }

    /// Deterministic TTL sweep on the injected clock: remove every entry
    /// whose `deadline + grace` has passed. Returns how many were removed.
    /// O(expired) via the expiry index, so it is safe on the request path.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let dead: Vec<Key> = self
            .expiry
            .iter()
            .take_while(|(expires, _)| *expires <= now)
            .map(|(_, k)| *k)
            .collect();
        let n = dead.len();
        for key in dead {
            self.remove(key);
        }
        self.stats.expired += n as u64;
        n
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn remove(&mut self, key: Key) -> Option<Entry<R>> {
        let entry = self.entries.remove(&key)?;
        self.lru.remove(&entry.touched);
        self.expiry.remove(&(entry.expires, key));
        if let State::Completed { bytes, .. } = &entry.state {
            self.bytes = self.bytes.saturating_sub(*bytes);
        }
        Some(entry)
    }

    /// LRU eviction down to the entry and byte caps. Only *completed*
    /// entries are evictable: evicting an in-progress entry would orphan its
    /// parked attempts and re-admit a live duplicate. Every eviction is
    /// counted in [`DedupStats::evicted`].
    fn enforce_bounds(&mut self) {
        while self.entries.len() > self.config.max_entries || self.bytes > self.config.max_bytes {
            let victim = self
                .lru
                .values()
                .copied()
                .find(|k| matches!(self.entries[k].state, State::Completed { .. }));
            match victim {
                Some(key) => {
                    self.remove(key);
                    self.stats.evicted += 1;
                }
                // Nothing evictable (all in-progress): the entry cap yields
                // rather than break the at-most-once contract.
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erm_sim::SimDuration;

    const GRACE: SimDuration = SimDuration::from_millis(1_000);

    fn cache(max_entries: usize, max_bytes: usize) -> ReplyCache<&'static str> {
        ReplyCache::new(ReplyCacheConfig {
            grace: GRACE,
            max_entries,
            max_bytes,
        })
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    const ORIGIN: EndpointId = EndpointId(500);
    const FROM: EndpointId = EndpointId(501);

    #[test]
    fn menu_defaults_to_at_least_once() {
        let table = SemanticsTable::new().method("route", Semantics::AtMostOnce);
        assert_eq!(table.semantics_for("route"), Semantics::AtMostOnce);
        assert_eq!(table.semantics_for("echo"), Semantics::AtLeastOnce);
        let maybe_all = SemanticsTable::new().with_default(Semantics::Maybe);
        assert_eq!(maybe_all.semantics_for("anything"), Semantics::Maybe);
    }

    #[test]
    fn miss_then_park_then_replay() {
        let mut c = cache(8, 1 << 20);
        assert_eq!(c.lookup(ORIGIN, 1, FROM, 10, t(0)), Lookup::Miss);
        c.begin(ORIGIN, 1, t(400));
        // Attempt 2 while attempt 1 is queued: parked, not re-admitted.
        assert_eq!(c.lookup(ORIGIN, 1, FROM, 11, t(10)), Lookup::Parked);
        let waiters = c.complete(ORIGIN, 1, "ok", 2);
        assert_eq!(
            waiters,
            vec![ParkedAttempt {
                from: FROM,
                call: 11
            }]
        );
        // Attempt 3 after completion: replayed from cache.
        assert_eq!(c.lookup(ORIGIN, 1, FROM, 12, t(20)), Lookup::Replay("ok"));
        let s = c.stats();
        assert_eq!((s.hits, s.parked, s.replayed), (2, 1, 2));
    }

    #[test]
    fn entries_expire_at_deadline_plus_grace() {
        let mut c = cache(8, 1 << 20);
        c.begin(ORIGIN, 1, t(400));
        c.complete(ORIGIN, 1, "ok", 2);
        // One micro before expiry the reply is still replayable.
        assert_eq!(c.expire(t(1_400) - SimDuration::from_micros(1)), 0);
        assert_eq!(c.expire(t(1_400)), 1);
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
        // A post-expiry duplicate is new work (admission will reject it as
        // past its deadline anyway).
        assert_eq!(c.lookup(ORIGIN, 1, FROM, 13, t(1_401)), Lookup::Miss);
        assert_eq!(c.stats().expired, 1);
    }

    #[test]
    fn lookup_lazily_expires() {
        let mut c = cache(8, 1 << 20);
        c.begin(ORIGIN, 1, t(400));
        c.complete(ORIGIN, 1, "stale", 5);
        assert_eq!(c.lookup(ORIGIN, 1, FROM, 10, t(2_000)), Lookup::Miss);
        assert_eq!(c.stats().expired, 1);
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn lru_evicts_completed_only_and_counts() {
        let mut c = cache(2, 1 << 20);
        c.begin(ORIGIN, 1, t(400));
        c.complete(ORIGIN, 1, "a", 1);
        c.begin(ORIGIN, 2, t(400)); // in progress — not evictable
        c.begin(ORIGIN, 3, t(400)); // over the cap: evicts completed #1
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evicted, 1);
        assert_eq!(c.lookup(ORIGIN, 1, FROM, 10, t(10)), Lookup::Miss);
        assert_eq!(c.lookup(ORIGIN, 2, FROM, 11, t(10)), Lookup::Parked);
        assert_eq!(c.lookup(ORIGIN, 3, FROM, 12, t(10)), Lookup::Parked);
        // All remaining entries are in-progress: the cap yields instead of
        // orphaning parked attempts.
        c.begin(ORIGIN, 4, t(400));
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().evicted, 1);
    }

    #[test]
    fn byte_cap_evicts_lru_first() {
        let mut c = cache(64, 10);
        for inv in 1..=3u64 {
            c.begin(ORIGIN, inv, t(400));
            c.complete(ORIGIN, inv, "x", 4);
        }
        // 12 bytes > 10: the least-recently-touched entry (#1) goes.
        assert_eq!(c.bytes(), 8);
        assert_eq!(c.stats().evicted, 1);
        assert_eq!(c.lookup(ORIGIN, 1, FROM, 10, t(10)), Lookup::Miss);
        assert_eq!(c.lookup(ORIGIN, 2, FROM, 11, t(10)), Lookup::Replay("x"));
    }

    #[test]
    fn replay_touches_lru_order() {
        let mut c = cache(2, 1 << 20);
        c.begin(ORIGIN, 1, t(400));
        c.complete(ORIGIN, 1, "a", 1);
        c.begin(ORIGIN, 2, t(400));
        c.complete(ORIGIN, 2, "b", 1);
        // Touch #1 so #2 becomes the LRU victim.
        assert_eq!(c.lookup(ORIGIN, 1, FROM, 10, t(10)), Lookup::Replay("a"));
        c.begin(ORIGIN, 3, t(400));
        assert_eq!(c.lookup(ORIGIN, 2, FROM, 11, t(10)), Lookup::Miss);
        assert_eq!(c.lookup(ORIGIN, 1, FROM, 12, t(10)), Lookup::Replay("a"));
    }

    #[test]
    fn abort_returns_waiters_and_forgets_entry() {
        let mut c = cache(8, 1 << 20);
        c.begin(ORIGIN, 1, t(400));
        assert_eq!(c.lookup(ORIGIN, 1, FROM, 10, t(5)), Lookup::Parked);
        let waiters = c.abort(ORIGIN, 1);
        assert_eq!(
            waiters,
            vec![ParkedAttempt {
                from: FROM,
                call: 10
            }]
        );
        // The original never executed, so a retry is legitimately new work.
        assert_eq!(c.lookup(ORIGIN, 1, FROM, 11, t(6)), Lookup::Miss);
    }

    #[test]
    fn epoch_carryover_counts_surviving_entries() {
        let mut c = cache(8, 1 << 20);
        c.begin(ORIGIN, 1, t(400));
        c.complete(ORIGIN, 1, "ok", 2);
        c.begin(ORIGIN, 2, t(400));
        c.set_epoch(3);
        assert_eq!(c.stats().epoch_carryover, 2);
        // Entries survive the epoch change: replay still works and stats
        // are monotonic (nothing reset by re-election).
        assert_eq!(c.lookup(ORIGIN, 1, FROM, 10, t(10)), Lookup::Replay("ok"));
        // Stale epoch broadcasts are ignored.
        c.set_epoch(2);
        assert_eq!(c.epoch(), 3);
        assert_eq!(c.stats().epoch_carryover, 2);
    }

    #[test]
    fn distinct_origins_do_not_collide() {
        let mut c = cache(8, 1 << 20);
        c.begin(ORIGIN, 1, t(400));
        c.complete(ORIGIN, 1, "a", 1);
        assert_eq!(
            c.lookup(EndpointId(900), 1, FROM, 10, t(10)),
            Lookup::Miss,
            "same invocation id from another origin is different work"
        );
    }
}
