//! Deterministic churn/chaos harness: member-crash recovery end to end.
//!
//! Where [`crate::telemetry`] stresses the *scaling* path, this module
//! stresses the *failure* path of paper §4.4. The pool is the production
//! runtime ([`elasticrmi::PoolRuntime`]) on a real [`ResourceManager`](erm_cluster::ResourceManager),
//! driven by [`SimRig::drive_pool`]. While a steady client workload runs, a
//! chaos script fails nodes (the sentinel's and a warm standby's among
//! them), takes the cluster master down for a window, and leaves a victim
//! holding the class lock as if it died mid-critical-section. Everything
//! after the injection is the runtime's own, and checked:
//!
//! * **detection and re-election** — revoked slices take their members
//!   down and the sentinel is re-elected by lowest uid; the tests hold the
//!   runtime's counts to the crashes the script injected;
//! * **in-flight failover** — the client is the production
//!   [`Stub`](elasticrmi::Stub): it fails fast on closed endpoints and
//!   retries elsewhere after its seeded, jittered backoff, re-asks the
//!   member an at-most-once invocation is pinned to, and refreshes its
//!   view (from the sentinel, or a live member once the sentinel is gone)
//!   only when an attempt fails — all its own logic, exported as the
//!   `churn.stub.*` gauges;
//! * **orphaned-lock reclamation** — a crashed member's owner is fenced
//!   with [`Store::release_owner`](erm_kvstore::Store::release_owner), so
//!   `synchronized` waiters unblock at detection, not at TTL expiry;
//! * **route-flip recovery and slice accounting** — the standby is promoted
//!   at the next burst interval (no master needed) and backfilled; revoked
//!   slices are never double-released, so the books balance at quiesce;
//! * **recovery telemetry** — the runtime's `pool.recovery.reelection.lag`
//!   and `pool.recovery.capacity.lag` histograms, next to the why-recovered
//!   report the script assembles from the trace.
//!
//! The run is a single-threaded discrete-event simulation on a
//! [`VirtualClock`](erm_sim::VirtualClock), deterministic for a given seed: same seed, same
//! report, same CSV, byte for byte.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use elasticrmi::{
    ClientLb, PoolConfig, PoolStats, ReplyCacheConfig, ScalingPolicy, Semantics, SemanticsTable,
    StubStats,
};
use erm_cluster::{NodeId, SliceId};
use erm_kvstore::LockOwner;
use erm_metrics::{snapshots_to_csv, RegistrySnapshot, TraceEvent, TraceRecord};
use erm_sim::{seeded_rng, Clock, SimDuration, SimTime};
use rand::Rng;

use crate::invariants::{Invariants, Violations};
use crate::rig::{arrival_schedule, ms, ClassLock, JitteredService, SimRig};

/// Class name shared by every skeleton, the store lock, and the report.
const CLASS: &str = "Churn";

/// Members the pool keeps in rotation (its minimum size).
const TARGET_POOL: u32 = 4;

/// Warm standbys kept provisioned but outside the routing view. A
/// rotation deficit is covered by promoting one (a route-flip, no
/// provisioning wait); the vacated slot is backfilled in the background.
const WARM_STANDBY: u32 = 1;

/// The pool's burst interval.
const TICK: SimDuration = SimDuration::from_millis(200);

/// Deadline budget each invocation runs under.
const DEADLINE_BUDGET: SimDuration = SimDuration::from_millis(400);

/// Bound on the synchronized method's lock wait before it gives up and
/// returns `LockBusy` (the client retries).
const LOCK_WAIT_MAX: SimDuration = SimDuration::from_millis(30);

/// TTL a dying member leaves on the class lock. Deliberately far beyond
/// the run: only [`Store::release_owner`](erm_kvstore::Store::release_owner)
/// can free it in time.
const CRASH_TTL: SimDuration = SimDuration::from_secs(120);

/// Every Nth invocation calls the `synchronized` method.
const SYNC_EVERY: u64 = 5;

/// The stub's per-attempt reply timeout: an unanswered attempt is
/// retransmitted with a bumped attempt counter after this long. Together
/// with the reply-drop fault this is the duplicate-generation engine the
/// reply cache must absorb.
const REPLY_TIMEOUT: SimDuration = SimDuration::from_millis(120);

/// Percentage of `Response` frames the network silently drops on their
/// way to the client. The execution happened; only the answer is lost —
/// the classic scenario where a retry would re-execute a non-idempotent
/// method.
const DROP_REPLY_PCT: u64 = 12;

/// Pad appended to each disruption window so requests overlapping its
/// tail are excused from the availability bar.
const WINDOW_PAD: SimDuration = SimDuration::from_millis(500);

/// Artifacts and tallies of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnRun {
    /// The why-recovered report: crash chain, lags, availability, quiesce.
    pub report: String,
    /// Metrics-registry snapshot time series as CSV (includes the
    /// `churn.locks.leaked` / `churn.slices.leaked` quiesce gauges).
    pub metrics_csv: String,
    /// The complete trace, for property checks over terminal events.
    pub trace: Vec<TraceRecord>,
    /// Invocations accepted into the workload.
    pub invocations: usize,
    /// Invocations that completed `Ok` within their deadline.
    pub completed_ok: usize,
    /// Invocations that ended with a remote error.
    pub completed_err: usize,
    /// Invocations that expired without a usable answer.
    pub expired: usize,
    /// Fraction of disruption-free invocations that completed `Ok`.
    pub availability: f64,
    /// Invocations whose `[start, deadline]` missed every disruption
    /// window (the availability denominator).
    pub eligible: usize,
    /// Members the chaos script killed (node failures).
    pub crashes: usize,
    /// Of those, the sentinel at the time.
    pub sentinel_crashes: usize,
    /// Of those, warm standbys.
    pub standby_crashes: usize,
    /// The runtime's counters at quiesce: the crashes it detected, the
    /// re-elections and promotions it made.
    pub stats: PoolStats,
    /// Locks reclaimed from crashed owners via `release_owner`.
    pub locks_reclaimed: usize,
    /// The shared checker's verdict (must be clean): terminal conservation,
    /// at-most-once executions, no attempt routed to a member while it sat
    /// in the standby tier, and no lock, slice or reply-cache entry left at
    /// quiesce.
    pub violations: Violations,
    /// Cluster slice total at quiesce.
    pub slices_total: usize,
    /// Free slices at quiesce.
    pub slices_free: usize,
    /// Trace records evicted from the ring (zero means complete).
    pub dropped: u64,
    /// Duplicate attempts absorbed by skeleton reply caches (wire v4).
    pub dedup_hits: u64,
    /// Cached replies replayed to duplicates (immediate hits plus parked
    /// attempts answered at completion).
    pub dedup_replayed: u64,
    /// Completed cache entries evicted under the entry/byte caps.
    pub dedup_evicted: u64,
    /// The client stub's own counters at the end of the run.
    pub stub: StubStats,
}

/// `sync` serializes on the class lock with a bounded wait, so a crashed
/// holder surfaces as `LockBusy` until reclamation frees it.
const SYNC: &str = "sync";

/// `work` is the non-idempotent method: the pool declares it at-most-once,
/// so the stub pins it to the member that took delivery.
const WORK: &str = "work";

/// A member the chaos script killed: what the report checks the runtime's
/// trace against.
struct CrashRec {
    uid: u64,
    node: NodeId,
    slice: SliceId,
    at: SimTime,
    was_sentinel: bool,
    was_standby: bool,
    /// The script left the class lock held in the victim's name.
    held_lock: bool,
}

/// Scripted chaos: what to do when the event comes due. Node repairs are
/// scheduled dynamically (the node is only known at injection time).
enum Chaos {
    /// Fail the node hosting the current sentinel.
    CrashSentinel,
    /// Fail the node hosting a seeded-random live member.
    CrashRandom,
    /// Fail the node hosting a warm standby (standby-tier revocation).
    CrashStandby,
    /// Take the cluster master down until the given time.
    MasterOutage(SimTime),
}

/// One contiguous disruption window: from the first rotation crash until
/// the runtime reaped its victims and the rotation is back at target.
struct Episode {
    opened: SimTime,
    restored: Option<SimTime>,
}

/// Runs the churn scenario to completion. Deterministic per `seed`.
///
/// Timeline (all virtual): the pool bootstraps four members and a standby,
/// then a steady 120 req/s workload runs from t=1 s to t=25 s while the
/// script injects, in order: a sentinel-node crash at 5 s
/// (mid-critical-section), a standby-node crash at 8 s, a master outage
/// from 10 s to 13 s with a member crash inside it at 10.4 s, and two
/// seeded-random crashes in [15 s, 21 s]. Every failed node heals a few
/// seconds later; the run then drains, lets the pool restore capacity, and
/// quiesces through the runtime's shutdown with leak checks.
pub fn run_churn(seed: u64) -> ChurnRun {
    let rig = SimRig::new(8, 2, SimDuration::from_millis(500));
    let mut chaos_rng = seeded_rng(seed ^ 0x000c_4a05_u64);

    // Scripted chaos plus the seeded-random phase, sorted by due time.
    let mut chaos: Vec<(SimTime, Chaos)> = vec![
        (SimTime::from_secs(5), Chaos::CrashSentinel),
        (SimTime::from_secs(8), Chaos::CrashStandby),
        (
            SimTime::from_secs(10),
            Chaos::MasterOutage(SimTime::from_secs(13)),
        ),
        (
            SimTime::ZERO + SimDuration::from_millis(10_400),
            Chaos::CrashRandom,
        ),
    ];
    let r1 = SimTime::from_secs(15) + SimDuration::from_millis(chaos_rng.gen_range(0..3_000));
    let r2 = r1
        + SimDuration::from_millis(1_500)
        + SimDuration::from_millis(chaos_rng.gen_range(0..3_000));
    chaos.push((r1, Chaos::CrashRandom));
    chaos.push((r2, Chaos::CrashRandom));
    chaos.sort_by_key(|&(at, _)| at);
    let mut chaos = VecDeque::from(chaos);
    // Repairs are scheduled dynamically once the crashed node is known.
    let mut repairs: Vec<(SimTime, NodeId)> = Vec::new();

    // The pool: four members in rotation plus the warm tier, held at its
    // minimum by the runtime's own min-size clamp. A reply-cache cap
    // comfortably above the per-member at-most-once volume: evicting a
    // Completed entry whose duplicate is still in flight would re-execute
    // it, which is exactly what this harness checks.
    let config = PoolConfig::builder(CLASS)
        .min_pool_size(TARGET_POOL)
        .max_pool_size(TARGET_POOL + WARM_STANDBY)
        .warm_standby(WARM_STANDBY)
        .policy(ScalingPolicy::Implicit)
        .burst_interval(TICK)
        .overload_capacity(32)
        .semantics(SemanticsTable::new().method(WORK, Semantics::AtMostOnce))
        .reply_cache(ReplyCacheConfig {
            grace: SimDuration::from_secs(1),
            max_entries: 4096,
            max_bytes: 1 << 20,
        })
        .build()
        .expect("valid pool config");
    let mut pool = rig.start_pool(
        config,
        move |clock, n| {
            JitteredService::new(
                clock,
                seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                SimDuration::from_micros(300),
            )
            .locking(ClassLock {
                class: CLASS,
                method: Some(SYNC),
                spin: SimDuration::from_micros(100),
                max_wait: Some(LOCK_WAIT_MAX),
            })
        },
        None,
    );

    // Pre-computed steady arrival schedule: 120 req/s, ±50 % jitter.
    let schedule = arrival_schedule(
        seed,
        SimTime::from_secs(1),
        SimTime::from_secs(25),
        120.0,
        None,
    );
    let mut arrivals = schedule.into_iter().peekable();

    // The client: the production stub, balancing at random over the view
    // the sentinel last gave it, under the pool's semantics table. Its view
    // goes stale the instant a member crashes — the window its fast-fail
    // path must cover. Replies to it cross the reply-drop fault.
    let mut stub = pool.stub(ClientLb::Random {
        seed: seed ^ 0x11e7_u64,
    });
    stub.set_reply_timeout(REPLY_TIMEOUT);
    stub.set_invocation_budget(DEADLINE_BUDGET);
    pool.drop_replies(DROP_REPLY_PCT, seed ^ 0xd20b_u64);
    let mut facts = Invariants::default();
    let mut invocations = 0u64;

    let mut crashed: Vec<CrashRec> = Vec::new();
    let mut episodes: Vec<Episode> = Vec::new();
    let mut next_snapshot = SimTime::from_secs(1);
    let mut snapshots: Vec<RegistrySnapshot> = vec![rig.registry.snapshot(rig.clock.now())];
    let hard_stop = SimTime::from_secs(60);

    loop {
        let now = rig.clock.now();
        if now >= hard_stop {
            break; // backstop against a wedged schedule; checks will flag it
        }
        // 0. A disruption window closes once the runtime has reaped every
        //    member killed so far and the published rotation is back at target.
        let published = pool.view();
        let reaped = pool.handle.stats().crashed as usize == crashed.len();
        if let Some(e) = episodes.last_mut().filter(|e| e.restored.is_none()) {
            if reaped && published.len() as u32 >= TARGET_POOL {
                e.restored = Some(now);
            }
        }
        let open_episode = episodes.last().is_some_and(|e| e.restored.is_none());

        // 1. Chaos events due now.
        if chaos.front().is_some_and(|&(at, _)| at <= now) {
            let (_, event) = chaos.pop_front().expect("checked non-empty");
            let victim = match event {
                Chaos::MasterOutage(until) => {
                    rig.cluster.fail_master_until(until);
                    None
                }
                Chaos::CrashSentinel => published.first().map(|&(uid, _)| uid),
                Chaos::CrashStandby => pool
                    .seats
                    .keys()
                    .find(|uid| !published.iter().any(|(u, _)| u == *uid))
                    .copied(),
                Chaos::CrashRandom => (!published.is_empty())
                    .then(|| published[chaos_rng.gen_range(0..published.len())].0),
            };
            if let Some(victim) = victim {
                let node_of = |slice| rig.cluster.with(|m| m.node_of(slice));
                let node = node_of(pool.seats[&victim].member.slice);
                rig.cluster.fail_node(node);
                // Every member on the node dies with it — standbys
                // included. The first *rotation* casualty dies holding the
                // class lock (a crash mid-critical-section): only
                // reclamation frees it. Standbys never execute, so they
                // never hold it.
                let (mut took_lock, mut rotation_lost) = (false, false);
                for (&uid, seat) in pool
                    .seats
                    .iter()
                    .filter(|(_, s)| node_of(s.member.slice) == node)
                {
                    let was_standby = !published.iter().any(|&(u, _)| u == uid);
                    let held_lock = !was_standby
                        && !took_lock
                        && rig
                            .store
                            .try_lock(CLASS, LockOwner::new(uid), now, CRASH_TTL);
                    took_lock |= held_lock;
                    rotation_lost |= !was_standby;
                    crashed.push(CrashRec {
                        uid,
                        node,
                        slice: seat.member.slice,
                        at: now,
                        was_sentinel: published.first().is_some_and(|&(s, _)| s == uid),
                        was_standby,
                        held_lock,
                    });
                }
                repairs.push((
                    now + SimDuration::from_millis(2_000 + chaos_rng.gen_range(0..1_500u64)),
                    node,
                ));
                // A standby-only crash costs no serving capacity, so it
                // opens no availability window.
                if rotation_lost && !open_episode {
                    episodes.push(Episode {
                        opened: now,
                        restored: None,
                    });
                }
            }
            continue;
        }
        if let Some(idx) = repairs.iter().position(|&(at, _)| at <= now) {
            let (_, node) = repairs.swap_remove(idx);
            rig.cluster.repair_node(node);
            continue;
        }

        // 2. The client's turn: replies, fast failover from closed
        //    endpoints, reply timeouts, backoffs and expiries, all the
        //    stub's own.
        stub.drain_completed();

        // 3. The registry is snapshotted once a second.
        if now >= next_snapshot {
            next_snapshot += SimDuration::from_secs(1);
            snapshots.push(rig.registry.snapshot(now));
            continue;
        }

        // 4. Arrivals due now enter. Every `SYNC_EVERY`th invocation calls
        //    the synchronized method.
        if arrivals.next_if(|&at| at <= now).is_some() {
            let method = if invocations.is_multiple_of(SYNC_EVERY) {
                SYNC
            } else {
                WORK
            };
            let id = stub
                .invoke_begin_raw(method, Vec::new())
                .expect("no limiter");
            if method == WORK {
                facts.at_most_once.insert(id);
            }
            invocations += 1;
            continue;
        }

        // 5. The pool's round: detection, re-election, promotion, backfill,
        //    broadcasts, and one turn per free member.
        if rig.drive_pool(&mut pool) {
            continue;
        }

        // 6. Idle: jump to the next event, or finish.
        let standbys = pool.seats.len() - published.len();
        if arrivals.peek().is_none()
            && stub.in_flight() == 0
            && !open_episode
            && published.len() as u32 >= TARGET_POOL
            && standbys as u32 >= WARM_STANDBY
            && chaos.is_empty()
            && repairs.is_empty()
        {
            break;
        }
        rig.idle_until(&[
            Some(next_snapshot),
            arrivals.peek().copied(),
            stub.next_due(),
            chaos.front().map(|&(at, _)| at),
            repairs.iter().map(|&(at, _)| at).min(),
            pool.next_event(),
        ]);
    }

    // Quiesce through the runtime's shutdown, after every reply-cache TTL
    // (deadline + grace) has run out, so the sweep proves deterministic
    // expiry: anything still cached after that horizon is a leak.
    let leaked_cache_entries =
        rig.quiesce_pool(&mut pool, DEADLINE_BUDGET + SimDuration::from_secs(1));
    let quiesce_at = rig.clock.now();
    let stats = pool.handle.stats();

    // Every conservation, exactly-once, routing-hygiene and leak verdict
    // comes from the shared checker over the complete trace.
    let trace = rig.sink.snapshot();
    let violations = rig.check(&facts, &trace, leaked_cache_entries);
    let standby_crashes = crashed.iter().filter(|r| r.was_standby).count();
    // Suppression totals come from the shared metrics registry, not the
    // skeletons: published diffs survive member crashes and re-elections.
    let counter = |name| rig.metrics.counter(name).get();
    let gauge = |name, value: usize| rig.metrics.gauge(name).set(value as i64);
    gauge("churn.locks.leaked", violations.leaks.leaked_locks);
    gauge("churn.slices.leaked", violations.leaks.leaked_slices);
    gauge("churn.dedup.leaked", leaked_cache_entries);
    gauge(
        "churn.dedup.duplicates",
        violations.duplicate_executions.len(),
    );
    gauge("churn.standby.promotions", stats.promoted as usize);
    gauge("churn.standby.crashes", standby_crashes);
    gauge("churn.standby.routed", violations.standby_routed.len());
    let stub = stub.stats();
    gauge("churn.stub.retries", stub.retries as usize);
    gauge("churn.stub.replays", stub.replays as usize);
    gauge(
        "churn.stub.connections_closed",
        stub.connections_closed as usize,
    );
    gauge("churn.stub.refreshes", stub.refreshes as usize);
    gauge(
        "churn.stub.redirects_followed",
        stub.redirects_followed as usize,
    );
    snapshots.push(rig.registry.snapshot(quiesce_at));

    // Availability over invocations untouched by any disruption window.
    let windows: Vec<(SimTime, SimTime)> = episodes
        .iter()
        .map(|e| (e.opened, e.restored.map_or(quiesce_at, |r| r + WINDOW_PAD)))
        .collect();
    // How each invocation ended is its terminal event: `Some(ok)` for a
    // completion; an expiry (or nothing at all) counts as expired. When it
    // started, and under which deadline, is its first attempt's anchor.
    let mut completed: BTreeMap<u64, bool> = BTreeMap::new();
    let mut started: Vec<(u64, SimTime, SimTime)> = Vec::new();
    for r in &trace {
        match r.event {
            TraceEvent::InvocationCompleted { invocation, ok, .. } => {
                completed.insert(invocation, ok);
            }
            TraceEvent::AttemptStarted {
                invocation,
                attempt: 1,
                deadline,
                ..
            } => started.push((invocation, r.at, deadline)),
            _ => {}
        }
    }
    let tally = |wanted: bool| completed.values().filter(|&&ok| ok == wanted).count();
    let eligible: Vec<u64> = started
        .iter()
        .filter(|&&(_, start, deadline)| {
            !windows
                .iter()
                .any(|&(from, to)| start <= to && deadline >= from)
        })
        .map(|&(invocation, ..)| invocation)
        .collect();
    let eligible_ok = eligible
        .iter()
        .filter(|inv| completed.get(inv) == Some(&true))
        .count();
    let eligible = eligible.len();
    let availability = if eligible == 0 {
        1.0
    } else {
        eligible_ok as f64 / eligible as f64
    };

    let mut run = ChurnRun {
        report: String::new(),
        metrics_csv: snapshots_to_csv(&snapshots),
        trace,
        invocations: invocations as usize,
        completed_ok: tally(true),
        completed_err: tally(false),
        expired: invocations as usize - completed.len(),
        availability,
        eligible,
        crashes: crashed.len(),
        sentinel_crashes: crashed.iter().filter(|r| r.was_sentinel).count(),
        standby_crashes,
        stats,
        locks_reclaimed: rig.store.lock_stats().reclaimed as usize,
        violations,
        slices_total: rig.cluster.total_slices(),
        slices_free: rig.cluster.free_slices(),
        dropped: rig.sink.dropped(),
        dedup_hits: counter("rmi.dedup.hits"),
        dedup_replayed: counter("rmi.dedup.replayed"),
        dedup_evicted: counter("rmi.dedup.evicted"),
        stub,
    };
    run.report = render_report(seed, &run, &crashed, &episodes, eligible_ok, &rig);
    run
}

/// Renders the why-recovered report: one block per injected crash, each
/// with what the runtime's trace shows of its detection and re-election.
fn render_report(
    seed: u64,
    run: &ChurnRun,
    crashed: &[CrashRec],
    episodes: &[Episode],
    eligible_ok: usize,
    rig: &SimRig,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Churn run (seed {seed}): {} invocations (ok {}, remote-error {}, expired {})",
        run.invocations, run.completed_ok, run.completed_err, run.expired,
    );
    let _ = writeln!(
        out,
        "availability outside disruption windows: {:.2}% ({eligible_ok}/{})",
        run.availability * 100.0,
        run.eligible,
    );
    let _ = writeln!(
        out,
        "crashes: {} members across {} disruption windows; the runtime reaped {} \
         and re-elected the sentinel {} times",
        crashed.len(),
        episodes.len(),
        run.stats.crashed,
        run.stats.elections,
    );
    let _ = writeln!(
        out,
        "standby tier: {} promotions (route-flips), {} standby crashes, \
         {} attempts routed to standbys (must be 0)",
        run.stats.promoted,
        run.standby_crashes,
        run.violations.standby_routed.len(),
    );
    let _ = writeln!(
        out,
        "client stub: {} retries, {} replies replayed, {} connections closed, \
         {} membership refreshes, {} redirects followed, {} pins lost",
        run.stub.retries,
        run.stub.replays,
        run.stub.connections_closed,
        run.stub.refreshes,
        run.stub.redirects_followed,
        run.stub.pins_lost,
    );
    out.push('\n');
    let _ = writeln!(out, "Why the pool recovered ({} crashes):", crashed.len());
    let elections: Vec<(u64, SimTime)> = run
        .trace
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::SentinelElected { uid, .. } => Some((uid, r.at)),
            _ => None,
        })
        .collect();
    for (i, rec) in crashed.iter().enumerate() {
        let _ = writeln!(
            out,
            "#{} member {} ({}, {}) crashed t={:.2}s{}",
            i + 1,
            rec.uid,
            rec.node,
            rec.slice,
            rec.at.as_secs_f64(),
            if rec.was_sentinel {
                " [sentinel]"
            } else if rec.was_standby {
                " [standby]"
            } else {
                ""
            },
        );
        let reaped = |r: &&TraceRecord| matches!(r.event, TraceEvent::MemberCrashed { uid } if uid == rec.uid);
        match run.trace.iter().find(reaped).map(|r| r.at) {
            Some(at) => {
                let _ = writeln!(
                    out,
                    "    detected t={:.2}s (+{:.0}ms){}",
                    at.as_secs_f64(),
                    ms(at.saturating_since(rec.at)),
                    if rec.held_lock {
                        "; held the class lock, owner fenced"
                    } else {
                        ""
                    },
                );
            }
            None => {
                let _ = writeln!(out, "    NEVER DETECTED (revocation lost)");
            }
        }
        if rec.was_sentinel {
            if let Some((uid, at)) = elections.iter().find(|(_, at)| *at >= rec.at) {
                let _ = writeln!(
                    out,
                    "    sentinel re-elected: member {uid} t={:.2}s \
                     (crash-to-reelection lag {:.0}ms)",
                    at.as_secs_f64(),
                    ms(at.saturating_since(rec.at)),
                );
            }
        }
    }
    out.push('\n');
    let _ = writeln!(out, "Disruption windows ({}):", episodes.len());
    for (i, e) in episodes.iter().enumerate() {
        match e.restored {
            Some(restored) => {
                let _ = writeln!(
                    out,
                    "#{} opened t={:.2}s, capacity restored t={:.2}s \
                     (crash-to-capacity lag {:.0}ms)",
                    i + 1,
                    e.opened.as_secs_f64(),
                    restored.as_secs_f64(),
                    ms(restored.saturating_since(e.opened)),
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "#{} opened t={:.2}s, NEVER CLOSED (capacity not restored)",
                    i + 1,
                    e.opened.as_secs_f64(),
                );
            }
        }
    }
    let lag = |name| {
        let h = rig.metrics.histogram(name).snapshot();
        let max = h.max().map_or(0.0, ms);
        format!("{} recorded, max {max:.0}ms", h.count())
    };
    let _ = writeln!(
        out,
        "runtime recovery lags: re-election {}; capacity {}",
        lag("pool.recovery.reelection.lag"),
        lag("pool.recovery.capacity.lag"),
    );
    let _ = writeln!(
        out,
        "locks reclaimed from crashed owners: {}",
        run.locks_reclaimed
    );
    out.push('\n');
    let _ = writeln!(
        out,
        "duplicate suppression (at-most-once): {} duplicates absorbed, \
         {} cached replies replayed, {} entries evicted; \
         duplicate executions {} (must be 0), leaked cache entries {} (must be 0)",
        run.dedup_hits,
        run.dedup_replayed,
        run.dedup_evicted,
        run.violations.duplicate_executions.len(),
        run.violations.leaks.leaked_cache_entries,
    );
    let _ = writeln!(
        out,
        "quiesce: leaked locks {}, leaked slices {} (free {}/{}, in-use {}, pending {})",
        run.violations.leaks.leaked_locks,
        run.violations.leaks.leaked_slices,
        rig.cluster.free_slices(),
        rig.cluster.total_slices(),
        rig.cluster.slices_in_use(),
        rig.cluster.pending_slices(),
    );
    if run.dropped > 0 {
        let _ = writeln!(
            out,
            "WARNING: trace ring dropped {} records; property checks may be blind",
            run.dropped
        );
    } else {
        let _ = writeln!(out, "trace ring dropped 0 records (lossless)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_is_deterministic_for_a_seed() {
        let a = run_churn(7);
        let b = run_churn(7);
        assert_eq!(a.report, b.report);
        assert_eq!(a.metrics_csv, b.metrics_csv);
        assert_eq!(a.trace.len(), b.trace.len());
    }

    #[test]
    fn every_accepted_invocation_has_exactly_one_terminal_event() {
        let run = run_churn(7);
        assert_eq!(run.dropped, 0, "ring must be lossless for this check");
        assert_eq!(run.violations.lost, [0u64; 0], "lost invocations");
        assert_eq!(
            run.violations.duplicate_terminals, [0u64; 0],
            "invocations terminated more than once"
        );
    }

    #[test]
    fn books_and_locks_balance_at_quiesce_across_seeds() {
        for seed in [7u64, 99, 2026] {
            let run = run_churn(seed);
            let leaks = run.violations.leaks;
            assert_eq!(leaks.leaked_locks, 0, "seed {seed}: locks leaked");
            assert_eq!(leaks.leaked_slices, 0, "seed {seed}: slices leaked");
            assert_eq!(
                run.slices_free, run.slices_total,
                "seed {seed}: every slice must be free at quiesce"
            );
        }
    }

    #[test]
    fn sentinel_reelections_match_sentinel_crashes() {
        // The script knows what it killed; the runtime must have noticed
        // every one of them on its own, and re-elected once per sentinel.
        for seed in [7u64, 99, 2026] {
            let run = run_churn(seed);
            assert_eq!(
                run.stats.crashed as usize, run.crashes,
                "seed {seed}: the runtime reaped every member the script killed\n{}",
                run.report
            );
            assert_eq!(
                run.stats.elections as usize, run.sentinel_crashes,
                "seed {seed}: one re-election per sentinel crash\n{}",
                run.report
            );
            let elected = run
                .trace
                .iter()
                .filter(|r| matches!(r.event, TraceEvent::SentinelElected { .. }))
                .count();
            assert_eq!(
                elected, run.sentinel_crashes,
                "seed {seed}: one SentinelElected record per sentinel crash"
            );
        }
    }

    #[test]
    fn availability_holds_outside_disruption_windows() {
        for seed in [7u64, 99, 2026] {
            let run = run_churn(seed);
            assert!(
                run.eligible > 500,
                "seed {seed}: workload too small ({} eligible)",
                run.eligible
            );
            assert!(
                run.availability >= 0.99,
                "seed {seed}: availability {:.4} below 99% ({}/{})\n{}",
                run.availability,
                run.completed_ok,
                run.eligible,
                run.report
            );
        }
    }

    #[test]
    fn crashed_holders_locks_are_reclaimed_not_leaked() {
        let run = run_churn(7);
        assert!(
            run.locks_reclaimed >= 1,
            "the mid-critical-section crash must exercise reclamation:\n{}",
            run.report
        );
        assert_eq!(run.violations.leaks.leaked_locks, 0);
        assert!(run.crashes >= 3, "the schedule injects at least 3 crashes");
        assert!(
            run.sentinel_crashes >= 1,
            "the 5s crash targets the sentinel"
        );
    }

    #[test]
    fn at_most_once_invocations_execute_at_most_once_across_seeds() {
        // The exactly-once property under churn, crashes, and the
        // reply-drop fault: `work` invocations (at-most-once) never execute
        // twice, even though lost replies force retransmits with attempt
        // counters well past 1. Crashed members make zero executions legal;
        // a client-observed Ok pins the count to exactly one.
        for seed in [7u64, 99, 2026] {
            let run = run_churn(seed);
            assert_eq!(run.dropped, 0, "seed {seed}: ring must be lossless");
            let mut execs: BTreeMap<u64, usize> = BTreeMap::new();
            let mut max_attempt: BTreeMap<u64, u32> = BTreeMap::new();
            let mut completed_ok: std::collections::BTreeSet<u64> =
                std::collections::BTreeSet::new();
            for r in &run.trace {
                match r.event {
                    TraceEvent::RequestExecuted { invocation, .. } => {
                        *execs.entry(invocation).or_default() += 1;
                    }
                    TraceEvent::AttemptStarted {
                        invocation,
                        attempt,
                        ..
                    } => {
                        let e = max_attempt.entry(invocation).or_default();
                        *e = (*e).max(attempt);
                    }
                    TraceEvent::InvocationCompleted {
                        invocation,
                        ok: true,
                        ..
                    } => {
                        completed_ok.insert(invocation);
                    }
                    _ => {}
                }
            }
            let is_amo = |inv: u64| !inv.is_multiple_of(SYNC_EVERY);
            assert_eq!(
                run.violations.duplicate_executions, [0u64; 0],
                "seed {seed}: at-most-once invocations executed more than once\n{}",
                run.report
            );
            for &inv in &completed_ok {
                if is_amo(inv) {
                    assert_eq!(
                        execs.get(&inv).copied().unwrap_or(0),
                        1,
                        "seed {seed}: ok-completed at-most-once invocation {inv} \
                         must execute exactly once"
                    );
                }
            }
            // The fault must actually bite: at-most-once invocations that
            // needed more than one attempt yet executed exactly once, and
            // cached replies replayed to absorb the duplicates.
            let retried_exactly_once = execs
                .iter()
                .filter(|&(&inv, &n)| {
                    is_amo(inv) && n == 1 && max_attempt.get(&inv).copied().unwrap_or(0) > 1
                })
                .count();
            assert!(
                retried_exactly_once > 10,
                "seed {seed}: only {retried_exactly_once} retried-yet-once invocations — \
                 the reply-drop fault is not generating duplicates"
            );
            assert!(
                run.dedup_hits > 0 && run.dedup_replayed > 0,
                "seed {seed}: reply caches absorbed no duplicates \
                 (hits {}, replayed {})",
                run.dedup_hits,
                run.dedup_replayed
            );
            assert_eq!(
                run.violations.leaks.leaked_cache_entries, 0,
                "seed {seed}: reply caches must be empty after the TTL sweep"
            );
            // The client is the real stub: it saw replays, and no more than
            // the caches sent (one the fault dropped never reaches it).
            assert!(
                (1..=run.dedup_replayed).contains(&run.stub.replays),
                "seed {seed}: stub saw {} replays, caches sent {}",
                run.stub.replays,
                run.dedup_replayed
            );
        }
    }

    #[test]
    fn standby_crashes_and_promotions_leak_nothing_across_seeds() {
        // The warm tier under churn: the scripted 8 s standby crash rides
        // the same revocation machinery as rotation crashes, rotation
        // deficits are covered by route-flip promotions (including with
        // the master down), replacement standbys land while recoveries
        // are still in flight — and through all of it no slice leaks and
        // no attempt ever routes to a member in the standby tier.
        for seed in [7u64, 99, 2026] {
            let run = run_churn(seed);
            let promoted = run
                .trace
                .iter()
                .filter(|r| matches!(r.event, TraceEvent::MemberPromoted { .. }))
                .count();
            assert!(
                promoted >= 1,
                "seed {seed}: no route-flip promotion happened\n{}",
                run.report
            );
            assert_eq!(
                run.stats.promoted as usize, promoted,
                "seed {seed}: the runtime's count matches its trace"
            );
            assert!(
                run.standby_crashes >= 1,
                "seed {seed}: the scripted standby crash never bit\n{}",
                run.report
            );
            assert!(
                run.stub.connections_closed >= 1,
                "seed {seed}: the stub's crash fast-fail path never ran"
            );
            assert!(
                run.violations.is_clean(),
                "seed {seed}: {:?}\n{}",
                run.violations,
                run.report
            );
            assert_eq!(
                run.slices_free, run.slices_total,
                "seed {seed}: standby slices must be back in the free pool"
            );
        }
    }

    #[test]
    fn report_and_csv_carry_the_recovery_telemetry() {
        let run = run_churn(7);
        for needle in [
            "Why the pool recovered",
            "crash-to-reelection lag",
            "crash-to-capacity lag",
            "locks reclaimed",
            "quiesce: leaked locks 0, leaked slices 0",
            "standby tier:",
            "attempts routed to standbys (must be 0)",
            "duplicate suppression (at-most-once):",
            "duplicate executions 0 (must be 0), leaked cache entries 0 (must be 0)",
        ] {
            assert!(
                run.report.contains(needle),
                "report missing {needle}:\n{}",
                run.report
            );
        }
        for name in [
            "pool.recovery.reelection.lag",
            "pool.recovery.capacity.lag",
            "kv.lock.wait",
            "churn.locks.leaked",
            "churn.slices.leaked",
            "rmi.dedup.hits",
            "rmi.dedup.replayed",
            "rmi.dedup.evicted",
            "rmi.dedup.cache.size",
            "churn.dedup.leaked",
            "churn.dedup.duplicates",
            "churn.standby.promotions",
            "churn.standby.crashes",
            "churn.standby.routed",
            "churn.stub.retries",
            "churn.stub.replays",
            "churn.stub.connections_closed",
            "churn.stub.refreshes",
            "churn.stub.redirects_followed",
        ] {
            assert!(
                run.metrics_csv.contains(name),
                "CSV missing {name}:\n{}",
                run.metrics_csv
            );
        }
    }
}
