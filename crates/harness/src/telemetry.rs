//! Fully-instrumented elastic overload run: the telemetry showcase.
//!
//! Where [`crate::overload`] pins the pool at one member to isolate
//! admission control, this module runs the *same* burst workload against a
//! pool that is allowed to scale — with every telemetry layer switched on
//! at once:
//!
//! * a [`TraceSink`](erm_metrics::TraceSink) shared by the skeletons, the
//!   pool runtime and the cluster manager, so the event stream contains
//!   complete invocation *and* control-plane histories;
//! * a metrics [`Registry`](erm_metrics::Registry) with the skeletons'
//!   `skeleton.queue.delay`, the kvstore's `kv.lock.wait`/`kv.lock.hold`,
//!   and the cluster's `cluster.provision.latency` instruments installed,
//!   snapshotted at every burst interval;
//! * [`SpanBuilder`] reconstruction of both span kinds, exported as a
//!   Chrome/Perfetto `trace_event` JSON document and a CSV time series;
//! * a **why-scaled** report attributing every pool-size change to the
//!   sample that triggered it, the rule and threshold that fired, the
//!   resource-offer round trip, and the symptom-to-capacity lag (recorded
//!   into the `scaling.decision.lag` histogram).
//!
//! The run is a single-threaded discrete-event simulation on a
//! [`VirtualClock`](erm_sim::VirtualClock) and is deterministic for a given
//! seed. The pool is the production runtime ([`elasticrmi::PoolRuntime`])
//! driven by [`SimRig::drive_pool`]: every member it grows is a real
//! [`Skeleton`](elasticrmi::Skeleton), and every decision is its own.

use std::fmt::Write as _;

use elasticrmi::{PoolConfig, ScalingPolicy};
use erm_kvstore::LockOwner;
use erm_metrics::{
    chrome_trace, snapshots_to_csv, DecisionSpan, InvocationOutcome, InvocationSpan,
    RegistrySnapshot, SpanBuilder,
};
use erm_sim::{Clock, SimDuration};

use crate::invariants::{Invariants, Violations};
use crate::rig::{arrival_schedule, ms, ClassLock, JitteredService, SimRig};

/// Class name shared by the skeleton, the store lock, and the pool config.
const CLASS: &str = "Overload";

/// Owner id the phantom contender uses for periodic lock pressure.
const CONTENDER: LockOwner = LockOwner::new(999);

/// Artifacts of one instrumented elastic overload run.
#[derive(Debug, Clone)]
pub struct ElasticOverloadRun {
    /// The why-scaled report plus span and sink accounting.
    pub report: String,
    /// Chrome/Perfetto `trace_event` JSON of invocation + decision spans.
    pub trace_json: String,
    /// Registry snapshot time series rendered as CSV.
    pub metrics_csv: String,
    /// Invocation spans reconstructed from the trace.
    pub invocations: usize,
    /// Scaling-decision spans reconstructed from the trace.
    pub decisions: usize,
    /// Trace records evicted from the ring (zero means a complete trace).
    pub dropped: u64,
    /// The shared checker's verdict on the run's trace and quiesce state.
    pub violations: Violations,
}

/// Runs the instrumented elastic overload scenario to completion.
///
/// Timeline (all virtual): two members bootstrap, 3 s of warmup at 80 req/s,
/// a 6 s burst at 4x, 3 s of recovery. The pool (implicit CPU thresholds
/// plus a 50 ms queue-delay bound, floor 2 / ceiling 6) polls its members
/// every 1 s burst interval; grows go through the cluster manager's offer
/// round trip with 500 ms provisioning latency.
pub fn run_elastic_overload(seed: u64) -> ElasticOverloadRun {
    let rig = SimRig::new(8, 1, SimDuration::from_millis(500));
    let config = PoolConfig::builder(CLASS)
        .min_pool_size(2)
        .max_pool_size(6)
        .policy(ScalingPolicy::Implicit)
        .queue_delay_grow_above(SimDuration::from_millis(50))
        .burst_interval(SimDuration::from_secs(1))
        .overload_capacity(16)
        .build()
        .expect("valid pool config");
    // Each member occupies itself for the request's service time and
    // serializes it on the class lock (the way a `synchronized` elastic
    // method would), so the `kv.lock.wait` / `kv.lock.hold` instruments see
    // real traffic. Bootstrap offers precede any ScaleDecision, so span
    // reconstruction leaves them unattributed — right for bootstrap capacity.
    let mut pool = rig.start_pool(
        config,
        move |clock, n| {
            JitteredService::new(clock, seed ^ 0x7e1e_0e17 ^ n, SimDuration::from_millis(10))
                .locking(ClassLock::every_method(CLASS))
        },
        None,
    );

    // Pre-computed arrival schedule: 80 req/s with ±50 % jitter, 4x inside
    // the burst window. Two members at 10 ms mean service ≈ 200 req/s
    // capacity, so the burst (320 req/s) forces growth.
    let start = rig.clock.now();
    let burst_from = start + SimDuration::from_secs(3);
    let burst_to = burst_from + SimDuration::from_secs(6);
    let end = burst_to + SimDuration::from_secs(3);
    let schedule = arrival_schedule(seed, start, end, 80.0, Some((burst_from, burst_to, 4.0)));

    // Once a second a phantom contender briefly takes the class lock, so
    // the next dispatch measurably waits (shared-state pressure on cue),
    // and the registry is snapshotted.
    let mut snapshots: Vec<RegistrySnapshot> = vec![rig.registry.snapshot(start)];
    let tick = (SimDuration::from_secs(1), |now| {
        let _ = rig
            .store
            .try_lock(CLASS, CONTENDER, now, SimDuration::from_millis(2));
        snapshots.push(rig.registry.snapshot(now));
    });
    let budget = SimDuration::from_millis(250);
    rig.serve(&mut pool, schedule, budget, end, tick);

    // Quiesce for the checker through the runtime's own shutdown, and let
    // the phantom contender drop the class lock it took at the last poll
    // (during the run it just lets the 2 ms TTL lapse).
    rig.quiesce_pool(&mut pool, SimDuration::ZERO);
    let _ = rig.store.release_owner(CONTENDER, rig.clock.now());

    // Reconstruct spans, attribute decision lag, and render the artifacts.
    let records = rig.sink.snapshot();
    let builder = SpanBuilder::new(records.clone());
    let invocation_spans = builder.invocations();
    let decision_spans = builder.decisions();
    let lag_hist = rig.metrics.histogram("scaling.decision.lag");
    for d in &decision_spans {
        if let Some(lag) = d.lag() {
            lag_hist.record(lag);
        }
    }
    snapshots.push(rig.registry.snapshot(rig.clock.now()));
    let violations = rig.check(&Invariants::default(), &records, 0);

    // Duplicate-suppression tallies (wire v4): hits, replayed, evicted.
    // All zero on an `AtLeastOnce`-only workload, but the line is always
    // rendered so readers can tell "no suppression happened" from
    // "suppression was not measured".
    let dedup = ["rmi.dedup.hits", "rmi.dedup.replayed", "rmi.dedup.evicted"]
        .map(|name| rig.metrics.counter(name).get());
    let dropped = rig.sink.dropped();
    let report = render_report(&invocation_spans, &decision_spans, dropped, dedup);
    ElasticOverloadRun {
        report,
        trace_json: chrome_trace(&invocation_spans, &decision_spans),
        metrics_csv: snapshots_to_csv(&snapshots),
        invocations: invocation_spans.len(),
        decisions: decision_spans.len(),
        dropped,
        violations,
    }
}

/// Renders the why-scaled report: one block per pool-size change, each
/// attributed to its sample, rule, offer round trip, and capacity lag.
pub fn render_why_scaled(decisions: &[DecisionSpan]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Why the pool scaled ({} decisions):", decisions.len());
    for (i, d) in decisions.iter().enumerate() {
        let dir = if d.delta >= 0 { "grow" } else { "shrink" };
        let _ = writeln!(
            out,
            "#{} t={:.2}s {dir} {:+} (pool {} -> {})",
            i + 1,
            d.at.as_secs_f64(),
            d.delta,
            d.pool_size,
            (i64::from(d.pool_size) + d.delta).max(0),
        );
        match &d.rule {
            Some(r) => {
                let _ = writeln!(
                    out,
                    "    rule {}: observed {} vs threshold {} (milli-units, sampled t={:.2}s)",
                    r.rule,
                    r.observed_milli,
                    r.threshold_milli,
                    r.at.as_secs_f64(),
                );
            }
            None => {
                let _ = writeln!(out, "    rule: UNATTRIBUTED (no RuleFired before decision)");
            }
        }
        if let Some(o) = &d.offer {
            let _ = writeln!(
                out,
                "    offer #{}: requested {}, granted {}, resolved {:.0}ms after the decision",
                o.request_id,
                o.requested,
                o.granted,
                ms(o.resolved_at.saturating_since(d.at)),
            );
        }
        for (uid, at) in &d.members_up {
            let _ = writeln!(
                out,
                "    member {uid} serving at t={:.2}s",
                at.as_secs_f64()
            );
        }
        match d.lag() {
            Some(lag) => {
                let _ = writeln!(out, "    symptom-to-capacity lag: {:.0}ms", ms(lag));
            }
            None => {
                let _ = writeln!(out, "    symptom-to-capacity lag: capacity never arrived");
            }
        }
    }
    let unattributed = decisions.iter().filter(|d| d.rule.is_none()).count();
    let _ = writeln!(out, "unattributed size changes: {unattributed}");
    out
}

/// The full run report: span accounting, outcome tallies, drop warning,
/// duplicate-suppression tallies, and the why-scaled attribution.
fn render_report(
    invocations: &[InvocationSpan],
    decisions: &[DecisionSpan],
    dropped: u64,
    dedup: [u64; 3],
) -> String {
    let mut out = String::new();
    let count = |o: InvocationOutcome| invocations.iter().filter(|s| s.outcome == o).count();
    let _ = writeln!(
        out,
        "Telemetry run: {} invocation spans reconstructed \
         (completed {}, remote-error {}, expired {}, rejected {}, incomplete {})",
        invocations.len(),
        count(InvocationOutcome::Completed),
        count(InvocationOutcome::RemoteError),
        count(InvocationOutcome::Expired),
        count(InvocationOutcome::Rejected),
        count(InvocationOutcome::Incomplete),
    );
    if dropped > 0 {
        let _ = writeln!(
            out,
            "WARNING: trace ring dropped {dropped} records; spans may be incomplete \
             (raise the sink capacity for lossless traces)"
        );
    } else {
        let _ = writeln!(out, "trace ring dropped 0 records (lossless)");
    }
    let _ = writeln!(
        out,
        "duplicate suppression (at-most-once): {} duplicates absorbed, \
         {} cached replies replayed, {} cache entries evicted",
        dedup[0], dedup[1], dedup[2],
    );
    out.push('\n');
    out.push_str(&render_why_scaled(decisions));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_is_deterministic_for_a_seed() {
        let a = run_elastic_overload(42);
        let b = run_elastic_overload(42);
        assert_eq!(a.report, b.report);
        assert_eq!(a.trace_json, b.trace_json);
        assert_eq!(a.metrics_csv, b.metrics_csv);
    }

    #[test]
    fn invocations_the_client_gives_up_on_still_terminate() {
        // The burst refuses some invocations past their retry budget. The
        // client used to drop those without a terminal event (the span
        // builder papered over it as `Rejected`); the shared checker
        // reports exactly that as lost invocations.
        for seed in [7u64, 99, 2026] {
            let run = run_elastic_overload(seed);
            assert!(
                run.violations.is_clean(),
                "seed {seed}: {:?}",
                run.violations
            );
            assert!(
                run.report.contains("rejected 0, incomplete 0"),
                "seed {seed}: every refusal must end in a terminal event:\n{}",
                run.report
            );
        }
    }

    #[test]
    fn burst_produces_attributed_grow_decisions() {
        let run = run_elastic_overload(7);
        assert!(run.decisions > 0, "burst should force scaling decisions");
        assert!(
            run.report.contains("grow +"),
            "expected at least one grow in:\n{}",
            run.report
        );
        assert!(
            run.report.contains("unattributed size changes: 0"),
            "every decision must carry a rule attribution:\n{}",
            run.report
        );
        assert!(
            run.report.contains("symptom-to-capacity lag"),
            "report must surface the lag:\n{}",
            run.report
        );
        assert!(
            run.report.contains("duplicate suppression (at-most-once):"),
            "report must surface the dedup tallies:\n{}",
            run.report
        );
    }

    #[test]
    fn exports_cover_the_required_instruments() {
        let run = run_elastic_overload(7);
        assert!(run.invocations > 100, "trace should hold the workload");
        assert_eq!(run.dropped, 0, "sink sized for a lossless run");
        for name in [
            "skeleton.queue.delay",
            "kv.lock.wait",
            "kv.lock.hold",
            "cluster.provision.latency",
            "scaling.decision.lag",
            "rmi.dedup.hits",
            "rmi.dedup.replayed",
            "rmi.dedup.evicted",
            "rmi.dedup.cache.size",
        ] {
            assert!(
                run.metrics_csv.contains(name),
                "CSV missing {name}:\n{}",
                run.metrics_csv
            );
        }
        assert!(
            run.trace_json.contains("\"traceEvents\""),
            "trace JSON must be a Chrome trace_event document"
        );
        assert!(
            run.trace_json.contains("invoke"),
            "trace JSON must contain invocation root spans"
        );
    }
}
