//! The one invariant checker every scenario's trace goes through.
//!
//! The middleware's promises are properties of its event trace plus a
//! handful of counts taken once the run has quiesced. [`Invariants::check`]
//! scans a trace once and reports every breach:
//!
//! * **lost / duplicate terminal** — every invocation with an
//!   `AttemptStarted` reaches exactly one terminal event
//!   (`InvocationCompleted` or `InvocationExpired`);
//! * **attempt order** — attempt numbers strictly increase per invocation;
//! * **at-most-once** — an `AtMostOnce` invocation is executed
//!   (`RequestExecuted`) at most once, however often it was retransmitted;
//! * **ring ownership** — a keyed invocation is only ever executed by the
//!   consistent-hash owner of its key on the ring in force at that instant
//!   (membership follows `MemberJoined` / `MemberPromoted` /
//!   `MemberDrained` / `MemberCrashed`);
//! * **standby routing** — no attempt targets a member between its
//!   `StandbyJoined` and its promotion, crash or drain;
//! * **leaks** — zero locks, slices and reply-cache entries at quiesce.
//!
//! A trace does not say which invocations were at-most-once or what key
//! they carried; the [`Invariants`] value holds those facts, filled in by
//! whoever drove the run from the methods it invoked. The checker reasons in
//! member uids; the real stub names its attempts' targets by endpoint, so a
//! driver running it first translates them with [`attempts_by_uid`].

use std::collections::{BTreeMap, BTreeSet};

use elasticrmi::ShardRing;
use erm_metrics::{TraceEvent, TraceRecord};
use erm_transport::EndpointId;

/// What the checker must be told because the trace does not carry it.
#[derive(Debug, Clone, Default)]
pub struct Invariants {
    /// Invocations sent under `Semantics::AtMostOnce`.
    pub at_most_once: BTreeSet<u64>,
    /// Routing key of every keyed invocation.
    pub keys: BTreeMap<u64, u64>,
}

/// Leak counts taken after the run released everything it meant to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quiesce {
    /// Locks the store still holds.
    pub leaked_locks: usize,
    /// Slices the cluster still counts as granted or provisioning.
    pub leaked_slices: usize,
    /// Reply-cache entries alive after the post-TTL sweep.
    pub leaked_cache_entries: usize,
}

/// Every breach found, grouped by invariant. Invocation lists are sorted
/// by id; one entry per offending invocation unless noted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Violations {
    /// Started invocations with no terminal event.
    pub lost: Vec<u64>,
    /// Invocations with more than one terminal event.
    pub duplicate_terminals: Vec<u64>,
    /// Invocations whose attempt counter failed to increase.
    pub attempt_regressions: Vec<u64>,
    /// At-most-once invocations executed more than once.
    pub duplicate_executions: Vec<u64>,
    /// Keyed executions by a member that did not own the key, one entry
    /// per `RequestExecuted` record.
    pub misrouted_executions: Vec<u64>,
    /// Attempts aimed at a member inside its standby window, one entry per
    /// `AttemptStarted` record.
    pub standby_routed: Vec<u64>,
    /// The quiesce leak counts, passed through.
    pub leaks: Quiesce,
}

impl Violations {
    /// True when every invariant held.
    pub fn is_clean(&self) -> bool {
        *self == Violations::default()
    }
}

impl Invariants {
    /// Scans `trace` (oldest first, lossless) against every invariant.
    pub fn check(&self, trace: &[TraceRecord], quiesce: &Quiesce) -> Violations {
        let mut last_attempt: BTreeMap<u64, u32> = BTreeMap::new();
        let mut terminals: BTreeMap<u64, usize> = BTreeMap::new();
        let mut executions: BTreeMap<u64, usize> = BTreeMap::new();
        let mut rotation: BTreeSet<u64> = BTreeSet::new();
        let mut ring: Option<ShardRing> = None;
        let mut standbys: BTreeSet<u64> = BTreeSet::new();
        let mut out = Violations {
            leaks: *quiesce,
            ..Violations::default()
        };

        for record in trace {
            match record.event {
                TraceEvent::AttemptStarted {
                    invocation,
                    attempt,
                    target,
                    ..
                } => {
                    if let Some(previous) = last_attempt.insert(invocation, attempt) {
                        if attempt <= previous {
                            out.attempt_regressions.push(invocation);
                        }
                    }
                    if standbys.contains(&target) {
                        out.standby_routed.push(invocation);
                    }
                }
                TraceEvent::InvocationCompleted { invocation, .. }
                | TraceEvent::InvocationExpired { invocation, .. } => {
                    *terminals.entry(invocation).or_default() += 1;
                }
                TraceEvent::RequestExecuted {
                    uid, invocation, ..
                } => {
                    *executions.entry(invocation).or_default() += 1;
                    if let Some(&key) = self.keys.get(&invocation) {
                        let ring = ring.get_or_insert_with(|| {
                            let seats: Vec<(u64, EndpointId)> =
                                rotation.iter().map(|&u| (u, EndpointId(u))).collect();
                            ShardRing::from_members(&seats)
                        });
                        if !ring.owns(uid, key) {
                            out.misrouted_executions.push(invocation);
                        }
                    }
                }
                TraceEvent::StandbyJoined { uid } => {
                    standbys.insert(uid);
                }
                TraceEvent::MemberJoined { uid } | TraceEvent::MemberPromoted { uid } => {
                    standbys.remove(&uid);
                    rotation.insert(uid);
                    ring = None;
                }
                TraceEvent::MemberDrained { uid } | TraceEvent::MemberCrashed { uid } => {
                    standbys.remove(&uid);
                    rotation.remove(&uid);
                    ring = None;
                }
                _ => {}
            }
        }

        out.lost = last_attempt
            .keys()
            .filter(|inv| !terminals.contains_key(inv))
            .copied()
            .collect();
        out.duplicate_terminals = more_than_once(&terminals, |_| true);
        out.duplicate_executions =
            more_than_once(&executions, |inv| self.at_most_once.contains(&inv));
        out.attempt_regressions.sort_unstable();
        out.attempt_regressions.dedup();
        out
    }
}

/// `trace` with each `AttemptStarted::target` turned from the endpoint the
/// real stub names into the uid of the member behind it (`uids`: endpoint
/// id → uid). A target no member ever had becomes `u64::MAX`, no member's
/// uid.
pub fn attempts_by_uid(trace: &[TraceRecord], uids: &BTreeMap<u64, u64>) -> Vec<TraceRecord> {
    let mut trace = trace.to_vec();
    for record in &mut trace {
        if let TraceEvent::AttemptStarted { target, .. } = &mut record.event {
            *target = uids.get(target).copied().unwrap_or(u64::MAX);
        }
    }
    trace
}

/// Ids counted more than once, restricted to those `select` accepts.
fn more_than_once(counts: &BTreeMap<u64, usize>, select: impl Fn(u64) -> bool) -> Vec<u64> {
    counts
        .iter()
        .filter(|&(&id, &n)| n > 1 && select(id))
        .map(|(&id, _)| id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use erm_sim::{SimDuration, SimTime};

    fn at(at_ms: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
            event,
        }
    }

    fn started(invocation: u64, attempt: u32, target: u64) -> TraceEvent {
        TraceEvent::AttemptStarted {
            invocation,
            attempt,
            target,
            deadline: SimTime::from_secs(1),
        }
    }

    fn completed(invocation: u64, attempts: u32) -> TraceEvent {
        TraceEvent::InvocationCompleted {
            invocation,
            attempts,
            ok: true,
        }
    }

    fn expired(invocation: u64, attempts: u32) -> TraceEvent {
        TraceEvent::InvocationExpired {
            invocation,
            attempts,
        }
    }

    fn executed(uid: u64, invocation: u64) -> TraceEvent {
        TraceEvent::RequestExecuted {
            uid,
            invocation,
            queued_for: SimDuration::ZERO,
            ran_for: SimDuration::from_micros(300),
        }
    }

    /// Members 0 and 1 serve; member 2 is a standby until promoted at t=8.
    /// `KEY` belongs to `OLD_OWNER` on the
    /// two-member ring and moves to member 2 when it joins.
    const KEY: u64 = 5;
    const OLD_OWNER: u64 = 0;

    /// An at-most-once invocation retried once, a keyed invocation executed
    /// by its owner, and an attempt routed to the ex-standby only after its
    /// promotion: nothing to report.
    fn clean_trace() -> (Invariants, Vec<TraceRecord>) {
        let facts = Invariants {
            at_most_once: BTreeSet::from([1]),
            keys: BTreeMap::from([(2, KEY), (4, KEY)]),
        };
        let trace = vec![
            at(0, TraceEvent::MemberJoined { uid: 0 }),
            at(0, TraceEvent::MemberJoined { uid: 1 }),
            at(0, TraceEvent::StandbyJoined { uid: 2 }),
            at(1, started(1, 1, 0)),
            at(2, executed(0, 1)),
            at(3, started(1, 2, 0)),
            at(4, completed(1, 2)),
            at(5, started(2, 1, OLD_OWNER)),
            at(6, executed(OLD_OWNER, 2)),
            at(7, completed(2, 1)),
            at(8, TraceEvent::MemberPromoted { uid: 2 }),
            at(9, started(3, 1, 2)),
            at(10, expired(3, 1)),
        ];
        (facts, trace)
    }

    fn check(facts: &Invariants, trace: &[TraceRecord]) -> Violations {
        facts.check(trace, &Quiesce::default())
    }

    /// A verdict with exactly one invariant breached.
    fn only(breach: impl FnOnce(&mut Violations)) -> Violations {
        let mut expected = Violations::default();
        breach(&mut expected);
        expected
    }

    #[test]
    fn the_fixture_ring_moves_the_key_as_described() {
        let seats = [(0, EndpointId(0)), (1, EndpointId(1)), (2, EndpointId(2))];
        let two = ShardRing::from_members(&seats[..2]);
        assert_eq!(two.owner_uid(KEY), Some(OLD_OWNER));
        assert_eq!(ShardRing::from_members(&seats).owner_uid(KEY), Some(2));
    }

    #[test]
    fn a_clean_trace_reports_nothing() {
        let (facts, trace) = clean_trace();
        assert_eq!(check(&facts, &trace), Violations::default());
    }

    #[test]
    fn each_breach_is_reported_as_exactly_itself() {
        type Case = (fn(&mut Vec<TraceRecord>), fn(&mut Violations));
        let cases: [Case; 6] = [
            // An invocation that starts and never terminates is lost.
            (|t| t.push(at(11, started(9, 1, 0))), |v| v.lost = vec![9]),
            // A second terminal event is a duplicate.
            (
                |t| t.push(at(11, expired(2, 1))),
                |v| v.duplicate_terminals = vec![2],
            ),
            // Invocation 1 already reached attempt 2: repeating it regresses.
            (
                |t| t.insert(6, at(3, started(1, 2, 0))),
                |v| v.attempt_regressions = vec![1],
            ),
            // A second execution breaks at-most-once — but only there:
            // invocation 3 is at-least-once and may execute twice.
            (
                |t| {
                    t.insert(6, at(3, executed(0, 1)));
                    t.extend([at(11, executed(2, 3)), at(12, executed(2, 3))]);
                },
                |v| v.duplicate_executions = vec![1],
            ),
            // Member 2's promotion at t=8 took KEY away from OLD_OWNER, so
            // an execution there afterwards is misrouted.
            (
                |t| {
                    t.extend([
                        at(11, started(4, 1, OLD_OWNER)),
                        at(12, executed(OLD_OWNER, 4)),
                        at(13, completed(4, 1)),
                    ]);
                },
                |v| v.misrouted_executions = vec![4],
            ),
            // Member 2 is still a standby at t=2.
            (
                |t| {
                    t.insert(4, at(2, started(9, 1, 2)));
                    t.insert(5, at(2, completed(9, 1)));
                },
                |v| v.standby_routed = vec![9],
            ),
        ];
        for (corrupt, breach) in cases {
            let (facts, mut trace) = clean_trace();
            corrupt(&mut trace);
            assert_eq!(check(&facts, &trace), only(breach));
        }
    }

    #[test]
    fn attempts_naming_endpoints_are_checked_by_the_member_behind_them() {
        // Members 0, 1 and the standby 2 listen at endpoints 10, 11 and 12.
        let uids = BTreeMap::from([(10, 0), (11, 1), (12, 2)]);
        let (facts, mut trace) = clean_trace();
        for record in &mut trace {
            if let TraceEvent::AttemptStarted { target, .. } = &mut record.event {
                *target += 10;
            }
        }
        let verdict = |trace: &[TraceRecord]| check(&facts, &attempts_by_uid(trace, &uids));
        assert_eq!(verdict(&trace), Violations::default());
        // Endpoint 12 is member 2's, still a standby at t=2.
        trace.insert(4, at(2, started(9, 1, 12)));
        trace.insert(5, at(2, completed(9, 1)));
        assert_eq!(verdict(&trace), only(|v| v.standby_routed = vec![9]));
    }

    #[test]
    fn each_kind_of_leak_is_reported_as_itself() {
        let (facts, trace) = clean_trace();
        let mut kinds = [Quiesce::default(); 3];
        kinds[0].leaked_locks = 2;
        kinds[1].leaked_slices = 1;
        kinds[2].leaked_cache_entries = 3;
        for leaks in kinds {
            assert_eq!(facts.check(&trace, &leaks), only(|v| v.leaks = leaks));
        }
    }
}
