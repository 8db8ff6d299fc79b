//! Overload experiment: admission control vs. an unbounded FIFO run queue.
//!
//! Runs the production pool runtime pinned at one member — its real
//! [`Skeleton`](elasticrmi::Skeleton), the production ingest/cull/dispatch
//! machinery, not a model of it — through a point-A workload that doubles
//! for a burst window, offered by the production [`Stub`](elasticrmi::Stub)
//! and, when configured, its AIMD limiter. The experiment is a discrete-event simulation on a
//! [`VirtualClock`](erm_sim::VirtualClock): the hosted service advances the
//! clock by each request's service time, so queueing delay, deadline
//! expiry, and `Overloaded` retry hints all unfold in exact virtual time and
//! the whole run is deterministic for a given seed. The queue-delay p99 is
//! what the member's load reports tell the runtime's sentinel each burst
//! interval.
//!
//! Two configurations matter:
//!
//! * **baseline** — the legacy unbounded FIFO queue and no client limiter:
//!   during the burst the backlog grows until every dispatched request has
//!   already spent most of its deadline waiting, so the member does work
//!   whose results arrive too late (goodput collapse).
//! * **admission** — a bounded deadline-aware (EDF) run queue plus a
//!   client-side AIMD limiter: excess load is refused *early* with an
//!   explicit retry hint, queued work stays young enough to finish inside
//!   its deadline, and goodput holds near capacity through the burst.

use std::collections::BTreeSet;
use std::sync::Arc;

use elasticrmi::{AdmissionStats, AimdConfig, AimdLimiter, ClientLb, PoolConfig, RmiError};
use erm_metrics::TraceEvent;
use erm_sim::{Clock, SimDuration};

use crate::invariants::{Invariants, Violations};
use crate::rig::{arrival_schedule, JitteredService, SimPool, SimRig, WORK};

/// Class name of the pinned pool.
const CLASS: &str = "Overload";

/// How often the sentinel polls the member's load report.
const BURST_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// One overload run: a pinned single-member pool under a rate step.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Seed for arrival spacing and service-time jitter.
    pub seed: u64,
    /// The member's EDF run-queue bound; `None` is the legacy unbounded FIFO.
    pub overload_capacity: Option<u32>,
    /// Client-side AIMD limiter; `None` sends every arrival.
    pub limiter: Option<AimdConfig>,
    /// Mean service time per request (±20 % seeded jitter).
    pub service_mean: SimDuration,
    /// Per-request deadline budget from arrival.
    pub deadline_budget: SimDuration,
    /// Offered load outside the burst window, requests per second.
    pub base_rate: f64,
    /// Rate multiplier during the burst window.
    pub burst_multiplier: f64,
    /// Duration at `base_rate` before the burst.
    pub warmup: SimDuration,
    /// Duration of the burst.
    pub burst: SimDuration,
    /// Duration at `base_rate` after the burst.
    pub recovery: SimDuration,
}

impl OverloadConfig {
    /// The unbounded-FIFO baseline: point-A load (80 % of one member's
    /// ~100 req/s capacity) with a 2x burst, no admission control, no
    /// client limiter.
    pub fn baseline(seed: u64) -> Self {
        OverloadConfig {
            seed,
            overload_capacity: None,
            limiter: None,
            service_mean: SimDuration::from_millis(10),
            deadline_budget: SimDuration::from_millis(250),
            base_rate: 80.0,
            burst_multiplier: 2.0,
            warmup: SimDuration::from_secs(2),
            burst: SimDuration::from_secs(4),
            recovery: SimDuration::from_secs(2),
        }
    }

    /// The same workload with the admission stack on: a deadline-aware
    /// run queue bounded at 8 entries plus a default AIMD client limiter.
    pub fn with_admission(seed: u64) -> Self {
        OverloadConfig {
            overload_capacity: Some(8),
            limiter: Some(AimdConfig::default()),
            ..Self::baseline(seed)
        }
    }
}

/// Where every offered request ended up, plus the queue-delay signal.
///
/// Conservation invariant: `offered == goodput + late + expired + rejected
/// + throttled` — nothing is lost or double-counted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OverloadResult {
    /// Requests the workload generated.
    pub offered: u64,
    /// Completed successfully within their deadline.
    pub goodput: u64,
    /// Executed, but the client's deadline passed first: wasted server work.
    pub late: u64,
    /// Never executed: culled with a deadline reply, or still queued when
    /// the client's deadline passed.
    pub expired: u64,
    /// Refused with an `Overloaded` rejection (full run queue).
    pub rejected: u64,
    /// Dropped at the client by the AIMD limiter before any send.
    pub throttled: u64,
    /// Worst burst-interval p99 queueing delay reported via `LoadReport`.
    pub queue_delay_p99: SimDuration,
    /// The member's own admit/reject/cull/shed tallies.
    pub admission: AdmissionStats,
    /// The shared checker's verdict on the run's trace.
    pub violations: Violations,
}

/// Runs one configuration to completion and accounts for every request.
pub fn run_overload(config: &OverloadConfig) -> OverloadResult {
    // One slice, so the pool runs one member: `PoolConfig` floors a pool at
    // two (§4.2), and the runtime accepts the one slice the cluster grants.
    // Its asks for a second one each burst interval are refused.
    let rig = SimRig::new(1, 1, SimDuration::ZERO);
    let mut builder = PoolConfig::builder(CLASS)
        .min_pool_size(2)
        .max_pool_size(2)
        .burst_interval(BURST_INTERVAL);
    if let Some(capacity) = config.overload_capacity {
        builder = builder.overload_capacity(capacity);
    }
    let pool_config = builder.build().expect("valid pool config");
    let (seed, mean) = (config.seed ^ 0x5e51_1ce0, config.service_mean);
    let service = move |clock: &_, n| JitteredService::new(clock, seed ^ n, mean);
    let mut pool = rig.start_pool(pool_config, service, None);
    let [(uid, _)] = pool.view()[..] else {
        panic!("the pool is pinned at one member");
    };
    // The production client: with one member to walk, an `Overloaded`
    // refusal is final. Its limiter, when configured, gates every arrival.
    let mut stub = pool.stub(ClientLb::RoundRobin);
    stub.set_invocation_budget(config.deadline_budget);
    if let Some(limiter) = config.limiter {
        stub.set_limiter(Arc::new(AimdLimiter::new(limiter)));
    }
    let clock = &rig.clock;

    let start = clock.now();
    let burst_from = start + config.warmup;
    let burst_to = burst_from + config.burst;
    let schedule = arrival_schedule(
        config.seed,
        start,
        burst_to + config.recovery,
        config.base_rate,
        Some((burst_from, burst_to, config.burst_multiplier)),
    );

    let mut result = OverloadResult {
        offered: schedule.len() as u64,
        ..OverloadResult::default()
    };
    let mut arrivals = schedule.into_iter().peekable();
    let mut flushed_by = None;
    // Invocations the stub expired at their deadline: late if the member
    // executed them anyway, which only the finished trace can tell.
    let mut timed_out = Vec::new();

    // The worst burst-interval p99 the sentinel has been told so far.
    let worst_p99 = |result: &mut OverloadResult, pool: &SimPool| {
        let reports = pool.handle.last_reports();
        let p99 = reports.iter().map(|r| r.queue_delay_p99_us).max();
        let p99 = SimDuration::from_micros(p99.unwrap_or(0));
        result.queue_delay_p99 = result.queue_delay_p99.max(p99);
    };

    loop {
        let now = clock.now();
        for (invocation, outcome) in stub.drain_completed() {
            let bucket = match outcome {
                Ok(_) => &mut result.goodput,
                Err(RmiError::Overloaded { .. }) => &mut result.rejected,
                Err(RmiError::DeadlineExceeded { .. }) => {
                    timed_out.push(invocation);
                    continue;
                }
                // The member culled it: its deadline reply.
                Err(RmiError::Remote(_)) => &mut result.expired,
                Err(e) => panic!("invocation {invocation} of a pinned pool ended {e}"),
            };
            *bucket += 1;
        }
        // 1. Arrivals due now enter (or are throttled) before anything runs.
        if arrivals.next_if(|&at| at <= now).is_some() {
            match stub.invoke_begin_raw(WORK, Vec::new()) {
                Ok(_) => {}
                Err(RmiError::Throttled { .. }) => result.throttled += 1,
                Err(e) => panic!("begin refused: {e}"),
            }
            continue;
        }
        // 2. The member ingests, executes one admitted request or culls
        //    expired ones; the runtime polls its load at each burst interval.
        if rig.drive_pool(&mut pool) {
            worst_p99(&mut result, &pool);
            continue;
        }
        // 3. Every request answered: run on until the sentinel has polled
        //    the interval that holds the tail of the work.
        if arrivals.peek().is_none() && stub.in_flight() == 0 {
            let tail = *flushed_by.get_or_insert(now + BURST_INTERVAL + BURST_INTERVAL);
            if now >= tail {
                break;
            }
        }
        // 4. Nothing to do now: jump to the next event.
        rig.idle_until(&[arrivals.peek().copied(), stub.next_due(), pool.next_event()]);
    }
    result.admission = pool.seats[&uid].member.skeleton.admission_stats();
    rig.quiesce_pool(&mut pool, SimDuration::ZERO);
    let trace = rig.sink.snapshot();
    let executed: BTreeSet<u64> = trace
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::RequestExecuted { invocation, .. } => Some(invocation),
            _ => None,
        })
        .collect();
    for invocation in timed_out {
        if executed.contains(&invocation) {
            result.late += 1;
        } else {
            result.expired += 1;
        }
    }
    result.violations = rig.check(&Invariants::default(), &trace, 0);
    result
}

/// Renders the baseline-vs-admission comparison for `figures --overload`.
pub fn render_overload(seed: u64) -> String {
    let baseline = run_overload(&OverloadConfig::baseline(seed));
    let admission = run_overload(&OverloadConfig::with_admission(seed));
    let mut out = String::new();
    out.push_str(&format!(
        "Overload run (seed {seed}): 2x point-A burst, pool pinned at 1 member\n\
         (capacity ~100 req/s, deadline 250 ms; admission = EDF queue bound 8 + AIMD client limiter)\n\n"
    ));
    out.push_str(&format!(
        "{:<26} {:>12} {:>12}\n",
        "", "unbounded", "admission"
    ));
    let row = |name: &str, b: u64, a: u64| format!("{name:<26} {b:>12} {a:>12}\n");
    out.push_str(&row("offered", baseline.offered, admission.offered));
    out.push_str(&row(
        "goodput (on-time)",
        baseline.goodput,
        admission.goodput,
    ));
    out.push_str(&row("late (wasted work)", baseline.late, admission.late));
    out.push_str(&row("expired", baseline.expired, admission.expired));
    out.push_str(&row(
        "rejected (Overloaded)",
        baseline.rejected,
        admission.rejected,
    ));
    out.push_str(&row(
        "throttled (client)",
        baseline.throttled,
        admission.throttled,
    ));
    out.push_str(&format!(
        "{:<26} {:>10}ms {:>10}ms\n",
        "queue-delay p99",
        baseline.queue_delay_p99.as_micros() / 1_000,
        admission.queue_delay_p99.as_micros() / 1_000,
    ));
    out.push_str(&format!(
        "\ngoodput ratio: {:.2}x\n",
        admission.goodput as f64 / baseline.goodput.max(1) as f64
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_wastes_work_during_the_burst() {
        let r = run_overload(&OverloadConfig::baseline(7));
        assert!(
            r.late + r.expired > r.offered / 4,
            "unbounded FIFO should waste a large share under 2x load: {r:?}"
        );
    }
}
