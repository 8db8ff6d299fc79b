//! Warm-standby route-flip experiment: promotion lag vs slice-hours.
//!
//! Runs the elastic burst scenario twice under identical seeds and
//! workload — once with a warm-standby tier of one (`warm`) and once
//! without (`cold`) — and compares what each pays and what each gets:
//!
//! * **what warm gets**: a `Grow` decision is satisfied by *promoting* a
//!   fully provisioned standby into the rotation (a membership-broadcast
//!   route-flip), so the symptom-to-capacity lag collapses from the
//!   cluster's offer-plus-provisioning round trip (~700 ms here) to at
//!   most one control-loop tick;
//! * **what warm pays**: the standby's slice is reserved the whole run,
//!   measured by [`ResourceManager::reserved_slice_seconds`](erm_cluster::ResourceManager::reserved_slice_seconds) — capacity
//!   an operator is billed for whether or not a burst ever arrives.
//!
//! Both variants run the same property checks the churn harness pioneered,
//! tightened for the route-flip window:
//!
//! * no request is routed to a member still in the standby tier —
//!   promotion must publish the member before the balancer may pick it
//!   ([`Violations::standby_routed`]);
//! * every invocation reaches exactly one terminal event — none lost,
//!   none double-terminated across the flip ([`Violations::lost`],
//!   [`Violations::duplicate_terminals`]);
//! * at quiesce no slice and no lock is leaked, standby slices included.
//!
//! All of them are verdicts of the shared [`crate::invariants`] checker.
//!
//! The run is a deterministic single-threaded discrete-event simulation on
//! a [`VirtualClock`](erm_sim::VirtualClock), like [`crate::telemetry`]: the
//! pool is the production runtime driven by [`SimRig::drive_pool`], so the
//! standby tier, the promotion and the backfill are `ElasticPool`'s own.

use std::fmt::Write as _;

use elasticrmi::{PoolConfig, ScalingPolicy};
use erm_metrics::{snapshots_to_csv, MetricsHandle, SpanBuilder, TraceEvent};
use erm_sim::{Clock, SimDuration, SimTime};

use crate::invariants::{Invariants, Violations};
use crate::rig::{arrival_schedule, ms, ClassLock, JitteredService, SimRig};

/// Class name shared by the skeleton, the store lock, and the pool config.
const CLASS: &str = "Warmpool";

/// The control-loop tick: load poll + scaling decision cadence. The warm
/// variant's promotion lag must stay at or under one of these.
const TICK: SimDuration = SimDuration::from_millis(200);

/// Cold-path capacity delay: offer round trip + slice provisioning.
const PROVISION: SimDuration = SimDuration::from_millis(700);

/// Per-invocation deadline budget.
const DEADLINE_BUDGET: SimDuration = SimDuration::from_millis(250);

/// Outcome of one variant (warm tier present or absent).
#[derive(Debug, Clone)]
pub struct WarmpoolVariant {
    /// Standbys the variant keeps provisioned outside the rotation.
    pub warm_standby: u32,
    /// Invocations injected.
    pub invocations: usize,
    /// The shared checker's verdict (must be clean). `standby_routed` is
    /// the route-flip property: the flip publishes before it routes.
    pub violations: Violations,
    /// Standbys promoted into the rotation.
    pub promotions: usize,
    /// Grow decisions the scaling engine issued.
    pub grow_decisions: usize,
    /// Symptom-to-capacity lag of the first grow decision fully covered by
    /// promotions (`None` if no decision was).
    pub promoted_lag: Option<SimDuration>,
    /// Symptom-to-capacity lag of the first grow decision satisfied by the
    /// cluster's offer path (`None` if none resolved).
    pub offer_lag: Option<SimDuration>,
    /// From the first grow decision to the first request a member that
    /// joined for it executed (`None` if none ever did): how long until the
    /// client used the new capacity. The stub learns of new members from a
    /// refresh, which a failed or refused attempt asks for, or a sentinel
    /// redirect.
    pub first_serve_lag: Option<SimDuration>,
    /// Reserved-capacity integral over the run, in slice-seconds: the cost
    /// side of the warm tier.
    pub slice_seconds: f64,
}

/// Artifacts of one warm-vs-cold comparison run.
#[derive(Debug, Clone)]
pub struct WarmpoolRun {
    /// Human-readable comparison report.
    pub report: String,
    /// Final `warmpool.*` gauges as CSV, for CI assertions.
    pub metrics_csv: String,
    /// The control-loop tick both variants ran with.
    pub tick: SimDuration,
    /// The variant with a warm tier of one.
    pub warm: WarmpoolVariant,
    /// The variant without standbys.
    pub cold: WarmpoolVariant,
}

/// Runs one variant of the scenario.
fn run_variant(seed: u64, warm_standby: u32, quick: bool) -> WarmpoolVariant {
    let rig = SimRig::new(8, 1, PROVISION);
    let config = PoolConfig::builder(CLASS)
        .min_pool_size(2)
        .max_pool_size(6)
        .warm_standby(warm_standby)
        .policy(ScalingPolicy::Implicit)
        .queue_delay_grow_above(SimDuration::from_millis(50))
        .burst_interval(TICK)
        .overload_capacity(16)
        .build()
        .expect("valid pool config");
    // Each member occupies itself for the request's service time, briefly
    // serializing on the class lock; standbys hold capacity but serve no
    // load until promoted. The rotation floor of two plus the warm tier is
    // provisioned before traffic starts.
    let mut pool = rig.start_pool(
        config,
        move |clock, n| {
            JitteredService::new(clock, seed ^ 0x3a9b_51c7 ^ n, SimDuration::from_millis(10))
                .locking(ClassLock::every_method(CLASS))
        },
        None,
    );

    // Arrival schedule: 80 req/s with ±50 % jitter, 4x inside the burst.
    // Two members at 10 ms mean service ≈ 200 req/s capacity, so the burst
    // (320 req/s) forces growth.
    let start = rig.clock.now();
    let (warmup, burst, recovery) = if quick { (1, 3, 1) } else { (3, 6, 3) };
    let burst_from = start + SimDuration::from_secs(warmup);
    let burst_to = burst_from + SimDuration::from_secs(burst);
    let end = burst_to + SimDuration::from_secs(recovery);
    let schedule = arrival_schedule(seed, start, end, 80.0, Some((burst_from, burst_to, 4.0)));
    let invocations_total = schedule.len();
    let (budget, tick) = (DEADLINE_BUDGET, (TICK, |_| {}));
    rig.serve(&mut pool, schedule, budget, end, tick);

    // The cost side is what the run reserved; then quiesce through the
    // runtime's shutdown. Anything the cluster still counts is a leak.
    let slice_seconds = rig
        .cluster
        .with(|m| m.reserved_slice_seconds(rig.clock.now()));
    rig.quiesce_pool(&mut pool, PROVISION);
    let records = rig.sink.snapshot();
    let violations = rig.check(&Invariants::default(), &records, 0);

    // Decision lag attribution through the span machinery: promotions
    // covering the grow delta give the decision its capacity time.
    let builder = SpanBuilder::new(records.clone());
    let decisions = builder.decisions();
    let grows: Vec<_> = decisions.iter().filter(|d| d.delta > 0).collect();
    let first_serve_lag = grows.first().and_then(|d| {
        let joined: Vec<u64> = d
            .members_up
            .iter()
            .chain(&d.promoted)
            .map(|m| m.0)
            .collect();
        records.iter().find_map(|r| match r.event {
            TraceEvent::RequestExecuted { uid, .. } if r.at >= d.at && joined.contains(&uid) => {
                Some(r.at.saturating_since(d.at))
            }
            _ => None,
        })
    });
    let promoted_lag = grows
        .iter()
        .find(|d| d.promoted.len() as i64 >= d.delta)
        .and_then(|d| d.lag());
    let offer_lag = grows
        .iter()
        .find(|d| (d.promoted.len() as i64) < d.delta)
        .and_then(|d| d.lag());

    WarmpoolVariant {
        warm_standby,
        invocations: invocations_total,
        violations,
        promotions: pool.handle.stats().promoted as usize,
        grow_decisions: grows.len(),
        promoted_lag,
        offer_lag,
        first_serve_lag,
        slice_seconds,
    }
}

/// Runs the warm and cold variants under one seed and renders the
/// comparison. `quick` shortens the workload for CI smoke runs.
pub fn run_warmpool(seed: u64, quick: bool) -> WarmpoolRun {
    let warm = run_variant(seed, 1, quick);
    let cold = run_variant(seed, 0, quick);

    let (metrics, registry) = MetricsHandle::shared();
    let gauge = |name, value: i64| metrics.gauge(name).set(value);
    let lag_us = |lag: Option<SimDuration>| lag.map_or(-1, |d| d.as_micros() as i64);
    // Gauge names are `&'static str`, so each variant's are put together at
    // compile time.
    macro_rules! export {
        ($variant:literal, $v:expr) => {{
            let (v, found) = ($v, &$v.violations);
            macro_rules! name {
                ($suffix:literal) => {
                    concat!("warmpool.", $variant, ".", $suffix)
                };
            }
            gauge(name!("lost"), found.lost.len() as i64);
            gauge(
                name!("terminal.duplicates"),
                found.duplicate_terminals.len() as i64,
            );
            gauge(name!("route.violations"), found.standby_routed.len() as i64);
            gauge(name!("slices.leaked"), found.leaks.leaked_slices as i64);
            gauge(name!("locks.leaked"), found.leaks.leaked_locks as i64);
            gauge(name!("promotions"), v.promotions as i64);
            gauge(name!("promoted.lag_us"), lag_us(v.promoted_lag));
            gauge(name!("offer.lag_us"), lag_us(v.offer_lag));
            gauge(name!("first_serve.lag_us"), lag_us(v.first_serve_lag));
            gauge(name!("slice_ms"), (v.slice_seconds * 1000.0) as i64);
        }};
    }
    export!("warm", &warm);
    export!("cold", &cold);
    gauge("warmpool.tick_us", TICK.as_micros() as i64);
    let metrics_csv = snapshots_to_csv(&[registry.snapshot(SimTime::ZERO)]);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Warm-standby route-flip (seed {seed}{}): control tick {:.0}ms, \
         cold capacity path {:.0}ms (offer + provisioning)",
        if quick { ", quick" } else { "" },
        ms(TICK),
        ms(PROVISION),
    );
    for (name, v) in [("warm", &warm), ("cold", &cold)] {
        let _ = writeln!(
            out,
            "  {name} (standbys {}): {} invocations, {} grow decisions, \
             {} promotions",
            v.warm_standby, v.invocations, v.grow_decisions, v.promotions,
        );
        let fmt_lag =
            |lag: Option<SimDuration>| lag.map_or("n/a".to_string(), |d| format!("{:.1}ms", ms(d)));
        let _ = writeln!(
            out,
            "    first grow lag: promoted {} / offer path {}; first request served \
             by a member it added: {} after the decision",
            fmt_lag(v.promoted_lag),
            fmt_lag(v.offer_lag),
            fmt_lag(v.first_serve_lag),
        );
        let _ = writeln!(
            out,
            "    conservation: lost {} (must be 0), duplicate terminals {} \
             (must be 0), route violations {} (must be 0)",
            v.violations.lost.len(),
            v.violations.duplicate_terminals.len(),
            v.violations.standby_routed.len(),
        );
        let _ = writeln!(
            out,
            "    quiesce: leaked slices {} (must be 0), leaked locks {} \
             (must be 0); reserved {:.1} slice-seconds",
            v.violations.leaks.leaked_slices, v.violations.leaks.leaked_locks, v.slice_seconds,
        );
    }
    if let (Some(warm_lag), Some(cold_lag)) = (warm.promoted_lag, cold.offer_lag) {
        let extra = warm.slice_seconds - cold.slice_seconds;
        let pct = if cold.slice_seconds > 0.0 {
            extra / cold.slice_seconds * 100.0
        } else {
            0.0
        };
        let cut = if warm_lag.as_micros() > 0 {
            cold_lag.as_micros() as f64 / warm_lag.as_micros() as f64
        } else {
            f64::INFINITY
        };
        let _ = writeln!(
            out,
            "  tradeoff: the warm tier reserves {extra:.1} extra slice-seconds \
             ({pct:+.0}%) and cuts the first-grow lag {:.1}ms -> {:.1}ms \
             ({})",
            ms(cold_lag),
            ms(warm_lag),
            if cut.is_finite() {
                format!("{cut:.0}x")
            } else {
                "route-flip within the same tick".to_string()
            },
        );
    }

    WarmpoolRun {
        report: out,
        metrics_csv,
        tick: TICK,
        warm,
        cold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_conserved_across_seeds() {
        for seed in [7u64, 99, 2026] {
            let a = run_warmpool(seed, true);
            let b = run_warmpool(seed, true);
            assert_eq!(a.report, b.report, "seed {seed}: nondeterministic run");
            for (name, v) in [("warm", &a.warm), ("cold", &a.cold)] {
                assert!(
                    v.violations.is_clean(),
                    "seed {seed} {name}: {:?}",
                    v.violations
                );
            }
        }
    }

    #[test]
    fn warm_tier_collapses_first_grow_lag() {
        let run = run_warmpool(7, false);
        let warm_lag = run
            .warm
            .promoted_lag
            .expect("warm variant must satisfy a grow by promotion");
        assert!(
            warm_lag <= run.tick,
            "promotion lag {warm_lag} exceeds one control-loop tick {}:\n{}",
            run.tick,
            run.report
        );
        let cold_lag = run
            .cold
            .offer_lag
            .expect("cold variant must grow through the offer path");
        assert!(
            cold_lag >= SimDuration::from_millis(500),
            "cold path should pay the provisioning round trip, got {cold_lag}:\n{}",
            run.report
        );
        assert!(run.warm.promotions >= 1, "warm tier never promoted");
        assert!(
            run.warm.slice_seconds > run.cold.slice_seconds,
            "the warm tier must show up as reserved slice-seconds:\n{}",
            run.report
        );
    }

    #[test]
    fn exported_gauges_cover_the_ci_contract() {
        let run = run_warmpool(7, true);
        for name in [
            "warmpool.warm.lost",
            "warmpool.cold.lost",
            "warmpool.warm.slices.leaked",
            "warmpool.cold.slices.leaked",
            "warmpool.warm.locks.leaked",
            "warmpool.cold.locks.leaked",
            "warmpool.warm.route.violations",
            "warmpool.warm.terminal.duplicates",
            "warmpool.warm.promoted.lag_us",
            "warmpool.warm.promotions",
            "warmpool.warm.first_serve.lag_us",
            "warmpool.cold.first_serve.lag_us",
            "warmpool.tick_us",
        ] {
            assert!(
                run.metrics_csv.contains(name),
                "CSV missing {name}:\n{}",
                run.metrics_csv
            );
        }
    }
}
