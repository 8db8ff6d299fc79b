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
//! a [`VirtualClock`](erm_sim::VirtualClock), same substitution scheme as [`crate::telemetry`]:
//! one real [`Skeleton`](elasticrmi::Skeleton) hosts the service (honest admission and
//! queue-delay signals), added members are emulated by dividing service
//! time by the rotation size, and the standby tier is modelled exactly as
//! `ElasticPool` implements it (provisioned, heartbeating, excluded from
//! the rotation and from scaling samples until promoted).

use std::fmt::Write as _;
use std::sync::atomic::Ordering;

use elasticrmi::{
    AdmissionConfig, PoolConfig, RmiMessage, ScalingDecision, ScalingEngine, ScalingPolicy,
};
use erm_metrics::{snapshots_to_csv, MetricsHandle, SpanBuilder};
use erm_sim::{Clock, SimDuration, SimTime};

use crate::invariants::Violations;
use crate::rig::{
    arrival_schedule, ms, Call, ClassLock, JitteredService, ModelledPool, SimClient, SimRig,
};

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
    let mut rig = SimRig::new(CLASS, 8, 1, PROVISION);
    // The service occupies the member for the request's service time
    // divided by the *rotation* size (`rig.pool_size`) — standbys hold
    // capacity but serve no load until promoted — and briefly serializes
    // on the class lock.
    let service =
        JitteredService::new(&rig.clock, seed ^ 0x3a9b_51c7, SimDuration::from_millis(10))
            .sharing_load()
            .locking(ClassLock {
                class: CLASS,
                method: None,
                spin: SimDuration::from_micros(200),
                max_wait: None,
            });
    let mut member = rig.spawn_member(0, service, Some(AdmissionConfig::edf(16)), None);
    let mut client = SimClient::new(&rig, 3);

    // Bootstrap: the rotation floor of two plus the warm tier, provisioned
    // before traffic starts. Grants beyond the floor join as standbys.
    let mut pool = ModelledPool::default();
    for grant in rig.bootstrap(2 + warm_standby) {
        if pool.rotation.len() < 2 {
            pool.join(&rig, grant);
        } else {
            pool.standby(&rig, grant);
        }
    }

    let pool_config = PoolConfig::builder(CLASS)
        .min_pool_size(2)
        .max_pool_size(6)
        .warm_standby(warm_standby)
        .policy(ScalingPolicy::Implicit)
        .queue_delay_grow_above(SimDuration::from_millis(50))
        .burst_interval(TICK)
        .build()
        .expect("valid pool config");
    let mut engine = ScalingEngine::new(pool_config, rig.clock.now());

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

    let mut next_poll = start + TICK;
    let mut arrivals = schedule.into_iter().peekable();
    // Grants still provisioning that are earmarked for the standby tier.
    let mut standby_inbound: u32 = 0;

    loop {
        let now = rig.clock.now();
        // 1. Drain replies: terminal events, Overloaded retry scheduling.
        while let Some((p, reply)) = client.recv() {
            match reply {
                RmiMessage::Response { outcome, .. } => client.complete(&p.a, &outcome),
                RmiMessage::Overloaded { retry_after, .. } => client.overloaded(&p, retry_after),
                _ => {}
            }
        }
        // 2. Grants that finished provisioning come up: the standby tier
        //    refills first, anything else joins the rotation.
        for grant in rig.cluster.poll_ready(now) {
            if (pool.standbys.len() as u32) < warm_standby && standby_inbound > 0 {
                standby_inbound -= 1;
                pool.standby(&rig, grant);
            } else {
                pool.join(&rig, grant);
            }
        }
        // 3. Due retries re-enter ahead of fresh arrivals; 4. arrivals due
        //    now enter.
        let due = client.due_retry().or_else(|| {
            arrivals.next_if(|&at| at <= now)?;
            Some(client.begin(Call::WORK, now + DEADLINE_BUDGET))
        });
        if let Some(attempt) = due {
            client.send_attempt(&mut member, pool.route(), attempt);
            continue;
        }
        // 5. Control-loop tick: poll load, decide, grow by route-flip when
        //    the warm tier can cover it.
        if now >= next_poll {
            next_poll += TICK;
            if let Some(report) = client.poll_load(&mut member) {
                let size = rig.pool_size.load(Ordering::SeqCst);
                let standbys = pool.standbys.len() as u32;
                match rig.scaling_tick(&mut engine, &report, size, standbys) {
                    ScalingDecision::Grow(k) => {
                        // Route-flip first: promote standbys, publishing the
                        // promotion before any request can route to them.
                        // Shortfall goes through the cold offer path; the
                        // tier is refilled in the background.
                        let mut shortfall = k;
                        while shortfall > 0 && !pool.standbys.is_empty() {
                            pool.promote(&rig);
                            shortfall -= 1;
                        }
                        let promoted = k - shortfall;
                        let ask = shortfall + promoted; // growth + tier refill
                        if ask > 0 {
                            if let Ok(out) = rig.cluster.request_slices(ask, now) {
                                standby_inbound += out.granted.min(promoted);
                            }
                        }
                    }
                    ScalingDecision::Shrink(k) => pool.shrink(&mut rig, k),
                    ScalingDecision::Hold => {}
                }
            }
            continue;
        }
        // 6. Execute one admitted request or cull expired ones.
        if member.skeleton.step() {
            continue;
        }
        // 7. Idle: jump to the next event, or finish.
        if arrivals.peek().is_none() && client.is_idle() && now >= end {
            break;
        }
        rig.idle_until(&[
            Some(next_poll),
            arrivals.peek().copied(),
            client.next_retry(),
        ]);
    }

    // Quiesce: collect stragglers still provisioning, then release every
    // slice — rotation and standby tier alike. Anything the cluster still
    // counts afterwards is a leak.
    rig.clock.advance(PROVISION + SimDuration::from_secs(1));
    let quiesce_at = rig.clock.now();
    for grant in rig.cluster.poll_ready(quiesce_at) {
        let _ = rig.cluster.release(grant.slice, quiesce_at);
    }
    let slice_seconds = rig.cluster.reserved_slice_seconds(quiesce_at);
    pool.release_all(&mut rig);
    let records = rig.sink.snapshot();
    let violations = rig.check(&client.facts, &records, 0);

    // Decision lag attribution through the span machinery: promotions
    // covering the grow delta give the decision its capacity time.
    let builder = SpanBuilder::new(records);
    let decisions = builder.decisions();
    let grows: Vec<_> = decisions.iter().filter(|d| d.delta > 0).collect();
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
        promotions: pool.promotions,
        grow_decisions: grows.len(),
        promoted_lag,
        offer_lag,
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
            "    first grow lag: promoted {} / offer path {}",
            fmt_lag(v.promoted_lag),
            fmt_lag(v.offer_lag),
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
