//! Key-affinity sharding experiment: enforcement scan + Zipf-skew scaling.
//!
//! Two parts, one run:
//!
//! 1. **Enforcement** — three real [`Skeleton`](elasticrmi::Skeleton)s behind a consistent-hash
//!    ring, driven through a membership change with requests deliberately
//!    misrouted and a queue caught mid-handoff. The run then hands the raw
//!    trace to the shared [`crate::invariants`] checker and gates the
//!    sharding invariants at zero:
//!
//!    * no invocation is ever *executed* by a member that was not the
//!      ring owner of its key at execution time — every
//!      [`TraceEvent::RequestExecuted`] record is checked against the ring
//!      that was in force at that point of the trace;
//!    * every misroute is refused with `WrongShard` (ingest-time for fresh
//!      requests, dispatch-time for requests caught in the queue by a
//!      grow), and the client's retry at the named owner succeeds;
//!    * shard handoff conserves locks: the ring diff over the held set
//!      partitions it into *moved* (released via
//!      [`Store::release_named`](erm_kvstore::Store::release_named), no fencing) and *retained* (still held
//!      by a member that still owns the range), with nothing lost and
//!      nothing leaked at quiesce;
//!    * terminal conservation as in [`crate::warmpool`]: every injected
//!      invocation reaches exactly one terminal event.
//!
//! 2. **Scaling** — a deterministic queueing model contrasting the two
//!    routing disciplines on hot `kv.lock.*` traffic, Zipf(1.1) keys:
//!
//!    * *unsharded*: the balancer spreads requests round-robin, so every
//!      member touching a key must take its lock in the shared store —
//!      one acquire round trip per request, and a contended handoff costs
//!      the lock manager's polling-discovery latency while the waiting
//!      member sits *blocked* (it runs nothing else, exactly like the
//!      spin-loop in the skeleton's `synchronized` path);
//!    * *sharded*: the stub routes each key to its ring owner, which
//!      serializes the key implicitly in its own run queue — no store
//!      round trip, no lock, no blocked members.
//!
//!    Both modes replay the identical key/service-time sequence per seed.
//!    The figure is throughput vs pool size for members 1/2/4/8: sharded
//!    scales until the hottest *member* saturates, while unsharded
//!    plateaus as soon as the hottest *key*'s lock chain saturates —
//!    the collapse the paper's locality argument predicts.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;

use elasticrmi::{
    AdmissionConfig, KeyExtractor, MemberState, RmiMessage, ShardRing, ShardingTable,
};
use erm_kvstore::LockOwner;
use erm_metrics::{snapshots_to_csv, MetricsHandle, TraceEvent};
use erm_sim::{seeded_rng, Clock, SimDuration, SimTime};
use erm_transport::EndpointId;
use erm_workloads::ZipfKeys;
use rand::Rng;

use crate::invariants::Violations;
use crate::rig::{Attempt, Call, JitteredService, RawClient, SimMember, SimRig};

/// Class name shared by the skeletons, the store locks, and the report.
const CLASS: &str = "Sharded";

/// The keyed method under test.
const METHOD: &str = "incr";

/// Key universe for both parts; Zipf(1.1) puts ~13% of traffic on key 0.
const KEYS: u64 = 1024;

/// Zipf exponent: the hot-key skew both parts run under.
const ZIPF_S: f64 = 1.1;

/// Pool sizes the scaling grid sweeps.
const GRID_MEMBERS: [u32; 4] = [1, 2, 4, 8];

/// Mean service time of one `kv.lock.*`-class operation, microseconds.
const SERVICE_US: u64 = 100;

/// One acquire round trip to the shared store (unsharded mode only).
const LOCK_RTT_US: u64 = 100;

/// Contended-handoff latency: the waiter discovers the release at the
/// lock manager's polling granularity, on top of the hold itself.
const HANDOFF_US: u64 = 400;

/// Enforcement-part outcome: the invariants the sharded pool must hold
/// through misroutes and a mid-queue membership change.
#[derive(Debug, Clone)]
pub struct ShardEnforcement {
    /// Invocations injected.
    pub invocations: usize,
    /// `RequestExecuted` records scanned.
    pub executed: usize,
    /// `WrongShard` refusals the client received (and retried at the owner).
    pub redirects: usize,
    /// `RequestMisrouted` events skeletons emitted (must equal `redirects`).
    pub misrouted_refusals: usize,
    /// The shared checker's verdict (must be clean): in particular no
    /// execution by a non-owner of the key at execution time, no lost or
    /// doubly-terminated invocation, and no lock still held at quiesce
    /// after the rightful owners released theirs.
    pub violations: Violations,
    /// Locks whose key range moved rings at the membership change.
    pub handoff_moved: usize,
    /// Locks held when the handoff ran.
    pub handoff_total: usize,
    /// Locks actually released by the handoff (must equal `handoff_moved`).
    pub handoff_released: usize,
    /// Retained locks whose holder no longer owned the range (must be 0).
    pub misplaced_retained: usize,
}

impl ShardEnforcement {
    /// True when every sharding invariant held.
    pub fn clean(&self) -> bool {
        self.violations.is_clean()
            && self.handoff_released == self.handoff_moved
            && self.misplaced_retained == 0
    }
}

/// One row of the scaling grid: both modes at one pool size.
#[derive(Debug, Clone)]
pub struct ShardScalePoint {
    /// Pool size.
    pub members: u32,
    /// Sharded (key-affinity routed) throughput, ops/s.
    pub ops_sharded: f64,
    /// Unsharded (round-robin + store locks) throughput, ops/s.
    pub ops_unsharded: f64,
    /// Mean lock wait per request in the unsharded mode, microseconds.
    pub lock_wait_us: f64,
}

/// Artifacts of one sharded-pool run.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// Human-readable report.
    pub report: String,
    /// Final `shard.*` gauges as CSV, for CI assertions.
    pub metrics_csv: String,
    /// The enforcement-part outcome.
    pub enforcement: ShardEnforcement,
    /// The scaling grid, one row per pool size (1, 2, 4, 8 members).
    pub scaling: Vec<ShardScalePoint>,
}

/// The enforcement rig: real skeletons behind one ring, one client.
struct Enforcement {
    rig: SimRig,
    members: Vec<SimMember>,
    client: RawClient,
    /// The ring in force right now (installed by the last broadcast).
    ring: ShardRing,
    redirects: usize,
}

impl Enforcement {
    /// Installs the membership view `0..live` on every live skeleton.
    /// Members new to the view are announced in the trace, which is where
    /// the checker learns the ring in force at each execution.
    fn broadcast(&mut self, epoch: u64, live: usize) {
        let states: Vec<MemberState> = self.members[..live]
            .iter()
            .map(|m| MemberState {
                endpoint: m.ep,
                uid: m.uid,
                pending: 0,
            })
            .collect();
        let runtime_ep = self.rig.runtime_ep();
        for m in &mut self.members[..live] {
            m.skeleton.ingest(
                runtime_ep,
                RmiMessage::StateBroadcast {
                    epoch,
                    sentinel_uid: 0,
                    members: states.clone(),
                },
                &m.mb,
            );
        }
        for uid in self.ring.len() as u64..live as u64 {
            self.rig
                .trace
                .emit(self.rig.clock.now(), TraceEvent::MemberJoined { uid });
        }
        let seats: Vec<(u64, EndpointId)> = states.iter().map(|m| (m.uid, m.endpoint)).collect();
        self.ring = ShardRing::from_members(&seats);
    }

    /// The member the ring in force assigns `key` to.
    fn owner(&self, key: u64) -> usize {
        self.ring.owner_uid(key).expect("non-empty ring") as usize
    }

    /// Sends one attempt to member `target`.
    fn send(&mut self, target: usize, attempt: Attempt) {
        self.client
            .send_attempt(&mut self.members[target], target as u64, attempt);
    }

    /// Sends the first attempt of a fresh invocation of `key` to `target`.
    /// The stub's extractor output for FirstU64 args is the raw key; the
    /// client stamps what `Stub::invoke` would.
    fn inject(&mut self, target: usize, key: u64) {
        let call = Call {
            method: METHOD,
            key: Some(key),
        };
        let deadline = self.rig.clock.now() + SimDuration::from_secs(60);
        let attempt = self.client.begin(call, deadline);
        self.send(target, attempt);
    }

    /// Steps the first `live` skeletons and drains the client mailbox until
    /// the run is quiescent. `WrongShard` refusals are retried at the named
    /// owner, exactly as the stub's redirect path does.
    fn pump(&mut self, live: usize) {
        loop {
            let mut progress = false;
            for m in &mut self.members[..live] {
                while m.skeleton.step() {
                    progress = true;
                }
            }
            while let Some((p, reply)) = self.client.recv() {
                progress = true;
                match reply {
                    RmiMessage::Response { outcome, .. } => self.client.complete(&p.a, &outcome),
                    RmiMessage::WrongShard { owner, .. } => {
                        self.redirects += 1;
                        let target = self
                            .members
                            .iter()
                            .position(|m| m.ep == owner)
                            .expect("owner endpoint is a pool member");
                        let attempt = p.a.attempt + 1;
                        self.send(target, Attempt { attempt, ..p.a });
                    }
                    _ => {}
                }
            }
            if !progress {
                break;
            }
        }
    }
}

/// The key a `key/<k>` lock name guards.
fn lock_key(name: &str) -> u64 {
    name.strip_prefix("key/")
        .and_then(|s| s.parse().ok())
        .expect("lock names carry their key")
}

/// Runs the enforcement part and hands the trace to the shared checker.
fn run_enforcement(seed: u64, quick: bool) -> ShardEnforcement {
    let (fresh, queued, locks) = if quick { (80, 40, 64) } else { (400, 160, 200) };
    // Membership is scripted, not provisioned: the cluster is never asked.
    let mut rig = SimRig::new(CLASS, 1, 1, SimDuration::ZERO);
    rig.pool_size.store(2, Ordering::SeqCst);
    let client = RawClient::new(&rig);
    let table = ShardingTable::new().method(METHOD, KeyExtractor::FirstU64);
    let members = (0..3u64)
        .map(|uid| {
            // The run measures routing, not compute: a short service time.
            let service =
                JitteredService::new(&rig.clock, seed ^ uid, SimDuration::from_micros(300));
            let mut member = rig.spawn_member(uid, service, Some(AdmissionConfig::edf(256)), None);
            member.skeleton.set_sharding(table.clone());
            member
        })
        .collect();
    let mut run = Enforcement {
        rig,
        members,
        client,
        ring: ShardRing::default(),
        redirects: 0,
    };

    // Epoch 1: two members. Every fifth request is deliberately sent to
    // the *other* member — the ingest-time refusal path under test.
    run.broadcast(1, 2);
    let mut zipf = ZipfKeys::new(KEYS, ZIPF_S, seed);
    for i in 0..fresh {
        let key = zipf.next_key();
        let owner = run.owner(key);
        let target = if i % 5 == 0 { 1 - owner } else { owner };
        run.inject(target, key);
        run.pump(2);
    }

    // Phase B setup: the epoch-1 owners take locks over a dense key range
    // (the `kv.lock.*` hot set), and a batch of correctly-routed requests
    // is parked in the members' queues *without stepping*.
    let store = std::sync::Arc::clone(&run.rig.store);
    let ring1 = run.ring.clone();
    let lock_ttl = SimDuration::from_secs(120);
    for k in 0..locks as u64 {
        let uid = ring1.owner_uid(k).expect("two-member ring");
        let name = format!("key/{k}");
        assert!(
            store.try_lock(&name, LockOwner::new(uid), run.rig.clock.now(), lock_ttl),
            "fresh lock must be free"
        );
    }
    for _ in 0..queued {
        let key = zipf.next_key();
        run.inject(run.owner(key), key);
    }

    // Epoch 2: member 2 joins. Queued requests whose keys moved now hit
    // the dispatch-time recheck; the handoff below releases exactly the
    // moved lock ranges, mirroring `ElasticPool`'s `shard_handoff`.
    run.rig.clock.advance(SimDuration::from_millis(5));
    run.broadcast(2, 3);
    let now = run.rig.clock.now();
    let ring2 = run.ring.clone();
    let held = store.held_locks();
    let handoff_total = held.len();
    let mut by_owner: HashMap<u64, Vec<String>> = HashMap::new();
    let mut handoff_moved = 0usize;
    for (name, owner) in &held {
        let k = lock_key(name);
        if ring1.owner_uid(k) != ring2.owner_uid(k) {
            handoff_moved += 1;
            by_owner.entry(owner.id()).or_default().push(name.clone());
        }
    }
    let mut handoff_released = 0usize;
    for (uid, names) in &by_owner {
        handoff_released += store.release_named(&LockOwner::new(*uid), names, now).len();
    }
    run.rig.trace.emit(
        now,
        TraceEvent::ShardHandoff {
            epoch: 2,
            moved: handoff_moved as u64,
            total: handoff_total as u64,
        },
    );
    // Conservation: everything still held must sit with a holder that
    // still owns the range under the new ring.
    let misplaced_retained = store
        .held_locks()
        .iter()
        .filter(|(name, owner)| ring2.owner_uid(lock_key(name)) != Some(owner.id()))
        .count();

    run.pump(3);

    // A fresh tail of traffic under the three-member ring, misroutes
    // included, so the new member executes and refuses like the others.
    for i in 0..fresh / 2 {
        let key = zipf.next_key();
        let owner = run.owner(key);
        let target = if i % 5 == 0 { (owner + 1) % 3 } else { owner };
        run.inject(target, key);
        run.pump(3);
    }
    run.pump(3);

    // Quiesce: rightful owners release their retained locks; anything the
    // store still counts afterwards leaked through the handoff.
    for (name, owner) in store.held_locks() {
        let _ = store.release_named(&owner, &[name], run.rig.clock.now());
    }

    // The ownership check is the tentpole gate: the shared checker judges
    // each `RequestExecuted` record against the ring in force at that point
    // of the trace, not the final one.
    let records = run.rig.sink.snapshot();
    let violations = run.rig.check(&run.client.facts, &records, 0);
    let count =
        |select: fn(&TraceEvent) -> bool| records.iter().filter(|r| select(&r.event)).count();

    ShardEnforcement {
        invocations: run.client.invocations(),
        executed: count(|e| matches!(e, TraceEvent::RequestExecuted { .. })),
        redirects: run.redirects,
        misrouted_refusals: count(|e| matches!(e, TraceEvent::RequestMisrouted { .. })),
        violations,
        handoff_moved,
        handoff_total,
        handoff_released,
        misplaced_retained,
    }
}

/// One grid point of the scaling model. Both modes replay the identical
/// key and service-time sequences for the seed; only routing differs.
fn grid_point(members: u32, sharded: bool, seed: u64, reqs: usize) -> (f64, f64) {
    let mut zipf = ZipfKeys::new(KEYS, ZIPF_S, seed);
    let mut jitter = seeded_rng(seed ^ 0x51ab_77ee);
    let seats: Vec<(u64, EndpointId)> = (0..u64::from(members))
        .map(|uid| (uid, EndpointId(1000 + uid)))
        .collect();
    let ring = ShardRing::from_members(&seats);
    let mut member_free = vec![0u64; members as usize];
    let mut key_free: HashMap<u64, u64> = HashMap::new();
    let mut makespan = 0u64;
    let mut wait_total = 0u64;
    for i in 0..reqs {
        let key = zipf.next_key();
        let pct: u64 = jitter.gen_range(80..=120);
        let service = SERVICE_US * pct / 100;
        if sharded {
            // The ring owner serializes the key in its own run queue: no
            // store round trip, no lock, and the member never idles.
            let m = ring.owner_uid(key).expect("non-empty ring") as usize;
            let end = member_free[m] + service;
            member_free[m] = end;
            makespan = makespan.max(end);
        } else {
            // Round-robin spread: the member pays one acquire round trip,
            // and — when the key is held elsewhere — blocks until the
            // polling lock manager hands it over. Blocked time is member
            // time: nothing else runs on it meanwhile.
            let m = i % members as usize;
            let asked = member_free[m] + LOCK_RTT_US;
            let free = key_free.get(&key).copied().unwrap_or(0);
            let exec = if free <= asked {
                asked
            } else {
                free + HANDOFF_US
            };
            wait_total += exec - asked;
            let end = exec + service;
            member_free[m] = end;
            key_free.insert(key, end);
            makespan = makespan.max(end);
        }
    }
    let ops = reqs as f64 / (makespan as f64 / 1e6);
    (ops, wait_total as f64 / reqs as f64)
}

/// Gauge names are `&'static str`; one per grid row and mode.
const SHARDED_OPS_GAUGES: [&str; 4] = [
    "shard.zipf.sharded.m1.ops",
    "shard.zipf.sharded.m2.ops",
    "shard.zipf.sharded.m4.ops",
    "shard.zipf.sharded.m8.ops",
];
const UNSHARDED_OPS_GAUGES: [&str; 4] = [
    "shard.zipf.unsharded.m1.ops",
    "shard.zipf.unsharded.m2.ops",
    "shard.zipf.unsharded.m4.ops",
    "shard.zipf.unsharded.m8.ops",
];

/// Runs both parts under one seed and renders the report. `quick`
/// shortens the workload for CI smoke runs.
pub fn run_sharded(seed: u64, quick: bool) -> ShardedRun {
    let enforcement = run_enforcement(seed, quick);
    let reqs = if quick { 4_000 } else { 30_000 };
    let scaling: Vec<ShardScalePoint> = GRID_MEMBERS
        .iter()
        .map(|&members| {
            let (ops_sharded, _) = grid_point(members, true, seed, reqs);
            let (ops_unsharded, lock_wait_us) = grid_point(members, false, seed, reqs);
            ShardScalePoint {
                members,
                ops_sharded,
                ops_unsharded,
                lock_wait_us,
            }
        })
        .collect();

    let (metrics, registry) = MetricsHandle::shared();
    let gauge = |name, value: i64| metrics.gauge(name).set(value);
    let (e, found) = (&enforcement, &enforcement.violations);
    gauge("shard.enforce.invocations", e.invocations as i64);
    gauge("shard.enforce.redirects", e.redirects as i64);
    gauge(
        "shard.enforce.misrouted.refusals",
        e.misrouted_refusals as i64,
    );
    gauge(
        "shard.enforce.misrouted.executions",
        found.misrouted_executions.len() as i64,
    );
    gauge("shard.enforce.lost", found.lost.len() as i64);
    gauge(
        "shard.enforce.terminal.duplicates",
        found.duplicate_terminals.len() as i64,
    );
    gauge(
        "shard.enforce.locks.leaked",
        found.leaks.leaked_locks as i64,
    );
    gauge("shard.handoff.moved", e.handoff_moved as i64);
    gauge("shard.handoff.total", e.handoff_total as i64);
    gauge("shard.handoff.released", e.handoff_released as i64);
    gauge("shard.handoff.misplaced", e.misplaced_retained as i64);
    for (i, p) in scaling.iter().enumerate() {
        gauge(SHARDED_OPS_GAUGES[i], p.ops_sharded as i64);
        gauge(UNSHARDED_OPS_GAUGES[i], p.ops_unsharded as i64);
    }
    let first = &scaling[0];
    let last = &scaling[scaling.len() - 1];
    let ratio_x100 = |num: f64, den: f64| {
        if den > 0.0 {
            (num / den * 100.0) as i64
        } else {
            -1
        }
    };
    gauge(
        "shard.zipf.sharded.scaling_x100",
        ratio_x100(last.ops_sharded, first.ops_sharded),
    );
    gauge(
        "shard.zipf.unsharded.scaling_x100",
        ratio_x100(last.ops_unsharded, first.ops_unsharded),
    );
    gauge(
        "shard.zipf.advantage_x100",
        ratio_x100(last.ops_sharded, last.ops_unsharded),
    );
    gauge(
        "shard.zipf.unsharded.m8.lock_wait_us",
        last.lock_wait_us as i64,
    );
    let metrics_csv = snapshots_to_csv(&[registry.snapshot(SimTime::ZERO)]);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Key-affinity sharding (seed {seed}{}): Zipf({ZIPF_S}) over {KEYS} keys",
        if quick { ", quick" } else { "" },
    );
    let _ = writeln!(
        out,
        "  enforcement: {} invocations, {} executed, {} redirects \
         ({} refusal events)",
        e.invocations, e.executed, e.redirects, e.misrouted_refusals,
    );
    let _ = writeln!(
        out,
        "    misrouted executions {} (must be 0), lost {} (must be 0), \
         duplicate terminals {} (must be 0)",
        found.misrouted_executions.len(),
        found.lost.len(),
        found.duplicate_terminals.len(),
    );
    let _ = writeln!(
        out,
        "    handoff: {} of {} locks moved rings, {} released, \
         {} misplaced (must be 0), {} leaked (must be 0)",
        e.handoff_moved,
        e.handoff_total,
        e.handoff_released,
        e.misplaced_retained,
        found.leaks.leaked_locks,
    );
    let _ = writeln!(
        out,
        "  scaling (ops/s; service {SERVICE_US}us, lock rtt {LOCK_RTT_US}us, \
         contended handoff {HANDOFF_US}us):",
    );
    let _ = writeln!(out, "    members   sharded   unsharded   lock-wait");
    for p in &scaling {
        let _ = writeln!(
            out,
            "    {:>7}   {:>7.0}   {:>9.0}   {:>6.0}us",
            p.members, p.ops_sharded, p.ops_unsharded, p.lock_wait_us,
        );
    }
    let _ = writeln!(
        out,
        "    sharded 1->{}: {:.1}x; unsharded 1->{}: {:.1}x; \
         sharded/unsharded at {}: {:.1}x",
        last.members,
        last.ops_sharded / first.ops_sharded,
        last.members,
        last.ops_unsharded / first.ops_unsharded,
        last.members,
        last.ops_sharded / last.ops_unsharded,
    );

    ShardedRun {
        report: out,
        metrics_csv,
        enforcement,
        scaling,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_clean_across_seeds() {
        for seed in [7u64, 99, 2026] {
            let a = run_sharded(seed, true);
            let b = run_sharded(seed, true);
            assert_eq!(a.report, b.report, "seed {seed}: nondeterministic run");
            let e = &a.enforcement;
            assert!(
                e.violations.is_clean(),
                "seed {seed}: {:?}\n{}",
                e.violations,
                a.report
            );
            assert_eq!(
                e.misplaced_retained, 0,
                "seed {seed}: misplaced retained lock"
            );
            assert_eq!(
                e.handoff_released, e.handoff_moved,
                "seed {seed}: handoff must release exactly the moved ranges"
            );
            assert!(e.redirects > 0, "seed {seed}: misroutes never exercised");
            assert_eq!(
                e.redirects, e.misrouted_refusals,
                "seed {seed}: every refusal event pairs with one WrongShard"
            );
            assert!(e.handoff_moved > 0, "seed {seed}: handoff never exercised");
            assert!(
                e.handoff_moved < e.handoff_total,
                "seed {seed}: a one-member join must not move the whole keyspace"
            );
            assert!(e.clean(), "seed {seed}: clean() disagrees");
        }
    }

    #[test]
    fn sharded_scales_where_unsharded_plateaus() {
        for seed in [7u64, 99, 2026] {
            let run = run_sharded(seed, true);
            let by_members = |m: u32| {
                run.scaling
                    .iter()
                    .find(|p| p.members == m)
                    .expect("grid row")
                    .clone()
            };
            let (p1, p4, p8) = (by_members(1), by_members(4), by_members(8));
            assert!(
                p8.ops_sharded >= 3.2 * p1.ops_sharded,
                "seed {seed}: sharded must keep scaling to 8 members:\n{}",
                run.report
            );
            assert!(
                p8.ops_unsharded <= 1.25 * p4.ops_unsharded,
                "seed {seed}: unsharded must plateau past the lock-chain knee:\n{}",
                run.report
            );
            assert!(
                p8.ops_sharded >= 1.8 * p8.ops_unsharded,
                "seed {seed}: key affinity must beat store locking at 8 members:\n{}",
                run.report
            );
            let mut prev = 0.0;
            for p in &run.scaling {
                assert!(
                    p.ops_sharded >= prev,
                    "seed {seed}: sharded throughput regressed at {} members:\n{}",
                    p.members,
                    run.report
                );
                prev = p.ops_sharded;
            }
            assert!(
                p8.lock_wait_us > 0.0,
                "seed {seed}: the unsharded mode never waited on a lock"
            );
        }
    }

    #[test]
    fn exported_gauges_cover_the_ci_contract() {
        let run = run_sharded(7, true);
        for name in [
            "shard.enforce.misrouted.executions",
            "shard.enforce.lost",
            "shard.enforce.terminal.duplicates",
            "shard.enforce.locks.leaked",
            "shard.enforce.redirects",
            "shard.handoff.moved",
            "shard.handoff.released",
            "shard.handoff.misplaced",
            "shard.zipf.sharded.m1.ops",
            "shard.zipf.sharded.m8.ops",
            "shard.zipf.unsharded.m8.ops",
            "shard.zipf.sharded.scaling_x100",
            "shard.zipf.unsharded.scaling_x100",
            "shard.zipf.advantage_x100",
        ] {
            assert!(
                run.metrics_csv.contains(name),
                "CSV missing {name}:\n{}",
                run.metrics_csv
            );
        }
    }
}
