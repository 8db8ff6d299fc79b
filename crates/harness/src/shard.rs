//! Key-affinity sharding experiment: enforcement scan + Zipf-skew scaling.
//!
//! Two parts, one run:
//!
//! 1. **Enforcement** — the production pool runtime
//!    ([`elasticrmi::PoolRuntime`]) running a sharded pool on the virtual
//!    clock, grown from two members to three by its own application-level
//!    decision, driven by the production [`elasticrmi::Stub`]. A queue is
//!    caught mid-handoff, and a tail of calls the stub routes by its stale
//!    two-member ring reaches the members after the grow. The runtime's
//!    broadcast changes the ring and its own shard handoff releases the
//!    moved locks. The run then hands the raw trace to the shared
//!    [`crate::invariants`] checker and gates the sharding invariants at
//!    zero:
//!
//!    * no invocation is ever *executed* by a member that was not the
//!      ring owner of its key at execution time — every
//!      [`TraceEvent::RequestExecuted`] record is checked against the ring
//!      that was in force at that point of the trace;
//!    * every misroute is refused with `WrongShard` (ingest-time for the
//!      stale-view tail, dispatch-time for requests caught in the queue by
//!      the grow), and the stub's follow to the named owner succeeds;
//!    * shard handoff conserves locks: an oracle independent of the
//!      runtime diffs the held set across the grow. A lock's key range is
//!      `hash_bytes(name)`; the locks whose range changed owner are
//!      *moved* and must be exactly the ones released, and every lock
//!      still held must sit with the new owner of its range, with nothing
//!      leaked at quiesce;
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

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use elasticrmi::{
    hash_bytes, ClientLb, KeyExtractor, PoolConfig, PoolSample, ScalingPolicy, ShardRing,
    ShardingTable, Stub,
};
use erm_kvstore::LockOwner;
use erm_metrics::{snapshots_to_csv, MetricsHandle, TraceEvent, TraceRecord};
use erm_sim::{seeded_rng, Clock, SimDuration, SimTime};
use erm_transport::EndpointId;
use erm_workloads::ZipfKeys;
use rand::Rng;

use crate::invariants::{Invariants, Violations};
use crate::rig::{JitteredService, SimPool, SimRig};

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

/// How often the enforcement pool's sentinel asks its decider for a size.
const BURST_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// Provisioning latency of the member the enforcement pool grows.
const PROVISIONING: SimDuration = SimDuration::from_millis(10);

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
    /// Of those, refusals at dispatch: the refusing member had admitted the
    /// invocation before the grow's broadcast moved its key (must be > 0).
    pub refused_at_dispatch: usize,
    /// The shared checker's verdict (must be clean): in particular no
    /// execution by a non-owner of the key at execution time, no lost or
    /// doubly-terminated invocation, and no lock still held at quiesce
    /// after the rightful owners released theirs.
    pub violations: Violations,
    /// Locks whose key range (`hash_bytes(name)`) changed owner at the
    /// membership change.
    pub handoff_moved: usize,
    /// Locks held when the handoff ran.
    pub handoff_total: usize,
    /// Locks the runtime's handoff released (must equal `handoff_moved`).
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

/// The enforcement run: the sharded pool, the production stub on it, and
/// the routing key of every invocation the stub began.
struct Enforcement {
    rig: SimRig,
    pool: SimPool,
    stub: Stub,
    facts: Invariants,
}

impl Enforcement {
    /// The ring of the pool's published view.
    fn ring(&self) -> ShardRing {
        ShardRing::from_members(&self.pool.view())
    }

    /// Begins a fresh invocation of `key`: the stub routes it to the owner
    /// its view's ring names.
    fn inject(&mut self, key: u64) {
        let invocation = self.stub.invoke_begin(METHOD, &key).expect("no limiter");
        self.facts.keys.insert(invocation, key);
    }

    /// Drives the pool and pumps the stub until it knows the pool's view and
    /// every invocation has ended. `WrongShard` refusals are the stub's to
    /// follow.
    fn settle(&mut self) {
        loop {
            self.stub.drain_completed();
            if self.stub.in_flight() == 0 && !self.stub.members().is_empty() {
                return;
            }
            if !self.rig.drive_pool(&mut self.pool) {
                let due = [self.pool.next_event(), self.stub.next_due()];
                self.rig.idle_until(&due);
            }
        }
    }
}

/// The member owning lock `name` on `ring`: a lock's key range is
/// `hash_bytes(name)`, the convention the runtime's shard handoff releases
/// locks by.
fn range_owner(ring: &ShardRing, name: &str) -> Option<u64> {
    ring.owner_uid(hash_bytes(name.as_bytes()))
}

/// Refusals at dispatch in `records`: a `RequestMisrouted` whose member had
/// admitted the same invocation earlier. An ingest-time refusal happens
/// before admission, so it never matches.
fn refused_at_dispatch(records: &[TraceRecord]) -> usize {
    let mut admitted = BTreeSet::new();
    let mut refused = 0;
    for record in records {
        match record.event {
            TraceEvent::RequestAdmitted {
                uid, invocation, ..
            } => {
                admitted.insert((uid, invocation));
            }
            TraceEvent::RequestMisrouted {
                uid, invocation, ..
            } if admitted.contains(&(uid, invocation)) => refused += 1,
            _ => {}
        }
    }
    refused
}

/// Runs the enforcement part and hands the trace to the shared checker.
fn run_enforcement(seed: u64, quick: bool) -> ShardEnforcement {
    let (fresh, queued, locks) = if quick { (80, 40, 64) } else { (400, 160, 200) };
    let rig = SimRig::new(3, 1, PROVISIONING);
    // The decider holds the pool at two members until the run raises it.
    let target = Arc::new(AtomicU32::new(2));
    let decided = Arc::clone(&target);
    let decider = move |_: &PoolSample| decided.load(Ordering::SeqCst);
    let config = PoolConfig::builder(CLASS)
        .min_pool_size(2)
        .max_pool_size(3)
        .policy(ScalingPolicy::AppLevel)
        .burst_interval(BURST_INTERVAL)
        .overload_capacity(256)
        .sharding(ShardingTable::new().method(METHOD, KeyExtractor::FirstU64))
        .build()
        .expect("valid pool config");
    // The run measures routing, not compute: a short service time.
    let service = move |clock: &_, uid| {
        JitteredService::new(clock, seed ^ uid, SimDuration::from_micros(300))
    };
    let pool = rig.start_pool(config, service, Some(Box::new(decider)));
    let mut stub = pool.stub(ClientLb::RoundRobin);
    stub.set_invocation_budget(SimDuration::from_secs(60));
    let mut run = Enforcement {
        rig,
        pool,
        stub,
        facts: Invariants::default(),
    };

    // Two members, and a stub that knows them: every call goes to its key's
    // owner.
    run.settle();
    let ring1 = run.ring();
    let mut zipf = ZipfKeys::new(KEYS, ZIPF_S, seed);
    for _ in 0..fresh {
        run.inject(zipf.next_key());
        run.settle();
    }

    // The owners take locks over a dense set of names (the `kv.lock.*` hot
    // set), each the owner of the name's key range.
    let store = Arc::clone(&run.rig.store);
    let lock_ttl = SimDuration::from_secs(120);
    for k in 0..locks {
        let name = format!("key/{k}");
        let owner = LockOwner::new(range_owner(&ring1, &name).expect("two-member ring"));
        assert!(
            store.try_lock(&name, owner, run.rig.clock.now(), lock_ttl),
            "fresh lock must be free"
        );
    }

    // Member 2 joins: the decider asks for three, and the round in which
    // the runtime collects the grant is the one the members ingest a batch
    // of correctly-routed requests in, before they dispatch any of it. The
    // same round's broadcast moves keys, so queued requests whose keys
    // moved hit the dispatch-time recheck; the runtime's handoff releases
    // the moved locks first.
    target.store(3, Ordering::SeqCst);
    let (rig, pool) = (&run.rig, &mut run.pool);
    rig.drive_pool_until(pool, |_| rig.cluster.pending_slices() > 0);
    let ready_at = rig.clock.now() + PROVISIONING;
    rig.drive_pool_until(pool, |_| rig.clock.now() >= ready_at);
    for _ in 0..queued {
        run.inject(zipf.next_key());
    }
    let held = store.held_locks();
    run.rig.drive_pool(&mut run.pool);
    assert_eq!(
        run.pool.handle.size(),
        3,
        "the grow lands in the batch's round"
    );
    let ring2 = run.ring();
    let retained = store.held_locks();
    // The oracle: the locks whose range changed owner are the ones the
    // handoff must release, and everything still held must sit with the
    // owner of its range under the new ring.
    let handoff_moved = held
        .iter()
        .filter(|(name, _)| range_owner(&ring1, name) != range_owner(&ring2, name))
        .count();
    let handoff_released = held.iter().filter(|lock| !retained.contains(lock)).count();
    let misplaced_retained = retained
        .iter()
        .filter(|(name, owner)| range_owner(&ring2, name) != Some(owner.id()))
        .count();
    // A fresh tail, begun before the stub hears of the grow: it routes by
    // the two-member ring, so every key the grow moved is refused at
    // ingest, and the stub's stale-view refresh and `WrongShard` follow
    // complete it at the new owner.
    for _ in 0..fresh / 2 {
        run.inject(zipf.next_key());
    }
    run.settle();

    // Quiesce: the owners release their retained locks, and the pool shuts
    // down; anything the store still counts afterwards leaked through the
    // handoff.
    for (name, owner) in store.held_locks() {
        let _ = store.unlock_at(&name, owner, run.rig.clock.now());
    }
    run.rig.quiesce_pool(&mut run.pool, SimDuration::ZERO);

    // The ownership check is the tentpole gate: the shared checker judges
    // each `RequestExecuted` record against the ring in force at that point
    // of the trace, not the final one.
    let records = run.rig.sink.snapshot();
    let violations = run.rig.check(&run.facts, &records, 0);
    let count =
        |select: fn(&TraceEvent) -> bool| records.iter().filter(|r| select(&r.event)).count();

    ShardEnforcement {
        invocations: run.facts.keys.len(),
        executed: count(|e| matches!(e, TraceEvent::RequestExecuted { .. })),
        redirects: run.stub.stats().wrong_shard as usize,
        misrouted_refusals: count(|e| matches!(e, TraceEvent::RequestMisrouted { .. })),
        refused_at_dispatch: refused_at_dispatch(&records),
        violations,
        handoff_moved,
        handoff_total: held.len(),
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
        "shard.enforce.refused_at_dispatch",
        e.refused_at_dispatch as i64,
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
         ({} refusal events, {} at dispatch)",
        e.invocations, e.executed, e.redirects, e.misrouted_refusals, e.refused_at_dispatch,
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
            assert!(
                e.refused_at_dispatch > 0,
                "seed {seed}: the grow caught no queued request at dispatch"
            );
            assert!(
                e.redirects > e.refused_at_dispatch,
                "seed {seed}: no misroute was refused at ingest"
            );
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
            "shard.enforce.refused_at_dispatch",
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
