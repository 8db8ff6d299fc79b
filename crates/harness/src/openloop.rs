//! Open-loop load generation over the pipelined stub engine.
//!
//! A closed-loop generator measures the *client*: each thread waits for a
//! round trip before offering the next invocation, so measured throughput
//! saturates on RTT long before the middleware does. An open-loop
//! generator injects at a configured arrival rate
//! regardless of completions — the paper's evaluation shape — so sweeping
//! the offered rate exposes the knee where the pool stops keeping up,
//! and member-count scaling shows as knee position, not RTT noise.
//!
//! Mechanics: one generator per cell owns a pipelined [`Stub`], paces
//! arrivals on the injected clock with catch-up (the k-th arrival is due
//! exactly `k / rate` after the start; a late wakeup injects the backlog,
//! it does not silently stretch the schedule), sheds arrivals
//! when `max_in_flight` is reached (an open-loop client with a bounded
//! buffer — sheds are reported, never hidden), and harvests completions in
//! bulk via [`Stub::drain_completed`]. Setting the stub's reply timeout
//! equal to the invocation budget makes every invocation exactly one wire
//! attempt plus protocol-driven failovers (redirect/overload replies), so
//! terminal-outcome accounting stays one-to-one with injections.
//!
//! Honesty note for capacity numbers: the service body *sleeps* (2 ms per
//! `work` call in the grid) rather than spinning, so a pool of 8 members
//! has 8x the capacity of one member even on a single-core container —
//! member-count scaling is real concurrency in the middleware, not a
//! CPU-count artifact. The data-path ceiling is measured by the
//! `benchmark/` package's echo workloads, not here.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use elasticrmi::{ClientLb, RmiError, Stub};
use erm_sim::{SharedClock, SimDuration, SimTime, SystemClock};

use crate::sockets::{Fabric, Outcomes, ServerSide, TransportKind};

/// One open-loop measurement cell.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Byte-moving substrate.
    pub kind: TransportKind,
    /// Pool size (pinned; 1 = standalone skeleton, the plain-RMI shape).
    pub members: u32,
    /// Target arrival rate, invocations per second; must be positive.
    pub offered_rps: u64,
    /// Injection window on the injected clock (drain time is extra).
    pub duration: SimDuration,
    /// Per-`work`-invocation service sleep on the member thread.
    pub service: std::time::Duration,
    /// Seed for the stub's load-balancing RNG.
    pub seed: u64,
    /// Outstanding-invocation cap; arrivals beyond it are shed (counted).
    pub max_in_flight: usize,
    /// End-to-end invocation budget; also the reply timeout, so each
    /// injection is a single wire attempt and accounting stays exact.
    pub budget: SimDuration,
}

/// Result of one open-loop cell: conservation-checked terminal accounting
/// plus the completion rate and ok-latency tail.
#[derive(Debug, Clone)]
pub struct OpenLoopPoint {
    /// Substrate the bytes travelled over.
    pub transport: TransportKind,
    /// Pool size (1 = standalone skeleton).
    pub members: u32,
    /// Configured arrival rate.
    pub offered_rps: u64,
    /// Injection-window length actually observed, seconds.
    pub seconds: f64,
    /// Extra time after the injection window until the last begun
    /// invocation terminated, seconds.
    pub drain_seconds: f64,
    /// Invocations actually begun (sheds excluded).
    pub injected: u64,
    /// Arrivals dropped because `max_in_flight` was reached.
    pub shed: u64,
    /// Terminal outcome of every injected invocation.
    pub outcomes: Outcomes,
    /// `injected - outcomes.total()`: must be zero.
    pub lost: u64,
    /// Completed-ok invocations per second over the *whole* run —
    /// injection window plus drain — so a backlogged cell's plateau lands
    /// at true capacity instead of being inflated by drain completions.
    pub completed_rps: f64,
    /// Median ok-latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile ok-latency, microseconds.
    pub p99_us: u64,
    /// Largest outstanding-invocation count observed.
    pub in_flight_peak: usize,
}

/// Runs one open-loop cell: spin up the serving side, inject for
/// `config.duration`, then drain until every begun invocation reaches a
/// terminal outcome (bounded by the budget plus slack — an invocation
/// that outlives the drain is reported as lost, never silently dropped).
///
/// # Panics
///
/// If `config.offered_rps` is zero.
pub fn run_open_loop(config: &OpenLoopConfig) -> OpenLoopPoint {
    assert!(
        config.offered_rps > 0,
        "open-loop arrival rate must be positive"
    );
    let fabric = Fabric::new(config.kind);
    let clock: SharedClock = Arc::new(SystemClock::new());
    let server = ServerSide::spawn(&fabric, config.kind, config.members, &clock, config.service);
    let sentinel = server.sentinel();

    let net = fabric.client_net();
    let (ep, mailbox) = fabric.client_host().open();
    let mut stub = Stub::connect(
        net,
        ep,
        mailbox,
        sentinel,
        ClientLb::Random { seed: config.seed },
        Arc::clone(&clock),
    )
    .expect("open-loop stub connects");
    stub.set_reply_timeout(config.budget);
    stub.set_invocation_budget(config.budget);

    let mut injected = 0u64;
    let mut shed = 0u64;
    let mut outcomes = Outcomes::default();
    let mut latencies_us: Vec<u64> = Vec::new();
    let mut begun: HashMap<u64, SimTime> = HashMap::new();
    let mut in_flight_peak = 0usize;

    let harvest = |stub: &mut Stub,
                   outcomes: &mut Outcomes,
                   begun: &mut HashMap<u64, SimTime>,
                   latencies_us: &mut Vec<u64>|
     -> usize {
        let done = stub.drain_completed();
        let harvested = done.len();
        let now = clock.now();
        for (id, result) in done {
            if result.is_ok() {
                if let Some(at) = begun.get(&id) {
                    latencies_us.push(now.saturating_since(*at).as_micros());
                }
            }
            begun.remove(&id);
            outcomes.add(&result);
        }
        harvested
    };

    let t0 = clock.now();
    let end = t0 + config.duration;
    // The k-th arrival is due exactly k / rate after `t0`: no truncated
    // per-arrival step to drift the rate or collapse to zero.
    let due = |k: u64| t0 + SimDuration::from_micros(k * 1_000_000 / config.offered_rps);
    let mut arrivals = 0u64;
    loop {
        let now = clock.now();
        if now >= end {
            break;
        }
        // Catch-up pacing: a late wakeup injects the arrivals the
        // schedule owed, keeping the offered rate honest.
        while due(arrivals) <= now {
            arrivals += 1;
            if stub.in_flight() >= config.max_in_flight {
                shed += 1;
                continue;
            }
            match stub.invoke_begin("work", &injected) {
                Ok(id) => {
                    begun.insert(id, now);
                }
                Err(e) => outcomes.add(&Err::<u64, RmiError>(e)),
            }
            injected += 1;
        }
        in_flight_peak = in_flight_peak.max(stub.in_flight());
        harvest(&mut stub, &mut outcomes, &mut begun, &mut latencies_us);
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    let seconds = clock.now().saturating_since(t0).as_micros() as f64 / 1_000_000.0;

    // Drain: everything begun must terminate — a reply, a protocol error,
    // or its own budget expiry. The wall deadline is budget plus slack;
    // anything still outstanding after that shows up as `lost`.
    let drain_started = clock.now();
    let drain_deadline = std::time::Instant::now()
        + std::time::Duration::from_micros(config.budget.as_micros())
        + std::time::Duration::from_secs(2);
    while stub.in_flight() > 0 && std::time::Instant::now() < drain_deadline {
        if harvest(&mut stub, &mut outcomes, &mut begun, &mut latencies_us) == 0 {
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
    }
    harvest(&mut stub, &mut outcomes, &mut begun, &mut latencies_us);
    let drain_seconds =
        clock.now().saturating_since(drain_started).as_micros() as f64 / 1_000_000.0;

    drop(stub);
    server.shutdown();
    fabric.shutdown();

    latencies_us.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies_us.is_empty() {
            0
        } else {
            latencies_us[((latencies_us.len() - 1) as f64 * p) as usize]
        }
    };
    OpenLoopPoint {
        transport: config.kind,
        members: config.members,
        offered_rps: config.offered_rps,
        seconds,
        drain_seconds,
        injected,
        shed,
        outcomes,
        lost: injected - outcomes.total(),
        completed_rps: if seconds + drain_seconds > 0.0 {
            outcomes.ok as f64 / (seconds + drain_seconds)
        } else {
            0.0
        },
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        in_flight_peak,
    }
}

/// Member counts swept by the open-loop grid.
pub const OPEN_LOOP_MEMBER_COUNTS: [u32; 3] = [1, 4, 8];

/// Per-`work` service sleep in the knee sweep: 2 ms, so one member caps at
/// ~500 inv/s and member-count scaling is honest even on one core.
pub const OPEN_LOOP_SERVICE: std::time::Duration = std::time::Duration::from_millis(2);

/// The full open-loop result set behind `BENCH_throughput.json`.
#[derive(Debug, Clone)]
pub struct OpenLoopGrid {
    /// Knee sweep: 2 ms service, offered rate swept per member count.
    pub knee: Vec<OpenLoopPoint>,
    /// Seed the grid ran with.
    pub seed: u64,
    /// Whether the shortened CI shape was used.
    pub quick: bool,
}

/// Runs the open-loop knee sweep: 2 transports x 1/4/8 members x offered
/// rates, with a 2 ms sleeping service. `quick` shortens cells and thins
/// the rate sweep for CI.
pub fn run_open_loop_grid(seed: u64, quick: bool) -> OpenLoopGrid {
    let rates: &[u64] = if quick {
        &[250, 1_000, 4_000]
    } else {
        &[250, 500, 1_000, 2_000, 4_000]
    };
    let duration = if quick {
        SimDuration::from_millis(400)
    } else {
        SimDuration::from_secs(1)
    };
    let budget = SimDuration::from_secs(2);

    let mut knee = Vec::new();
    for kind in [TransportKind::Inproc, TransportKind::Tcp] {
        for members in OPEN_LOOP_MEMBER_COUNTS {
            for &offered_rps in rates {
                knee.push(run_open_loop(&OpenLoopConfig {
                    kind,
                    members,
                    offered_rps,
                    duration,
                    service: OPEN_LOOP_SERVICE,
                    seed,
                    max_in_flight: 512,
                    budget,
                }));
            }
        }
    }
    OpenLoopGrid { knee, seed, quick }
}

/// Renders the grid as the table EXPERIMENTS.md embeds.
pub fn format_open_loop(grid: &OpenLoopGrid) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Open-loop knee sweep ({} us service per invocation)",
        OPEN_LOOP_SERVICE.as_micros()
    );
    let _ = writeln!(
        out,
        "  {:<9} {:>7} {:>9} {:>11} {:>8} {:>8} {:>6} {:>5} {:>9} {:>9}",
        "transport",
        "members",
        "offered",
        "completed",
        "ok",
        "expired",
        "shed",
        "lost",
        "p50",
        "p99"
    );
    for p in &grid.knee {
        let _ = writeln!(
            out,
            "  {:<9} {:>7} {:>7}/s {:>9.0}/s {:>8} {:>8} {:>6} {:>5} {:>6} us {:>6} us",
            p.transport.to_string(),
            p.members,
            p.offered_rps,
            p.completed_rps,
            p.outcomes.ok,
            p.outcomes.expired,
            p.shed,
            p.lost,
            p.p50_us,
            p.p99_us,
        );
    }
    out
}

fn point_json(p: &OpenLoopPoint) -> String {
    format!(
        "{{\"transport\": \"{}\", \"members\": {}, \"offered_rps\": {}, \
         \"seconds\": {:.3}, \"drain_seconds\": {:.3}, \"injected\": {}, \
         \"shed\": {}, \"completed\": {}, \
         \"errors\": {}, \"lost\": {}, \"completed_rps\": {:.1}, \
         \"p50_us\": {}, \"p99_us\": {}, \"in_flight_peak\": {}}}",
        p.transport,
        p.members,
        p.offered_rps,
        p.seconds,
        p.drain_seconds,
        p.injected,
        p.shed,
        p.outcomes.ok,
        p.outcomes.total() - p.outcomes.ok,
        p.lost,
        p.completed_rps,
        p.p50_us,
        p.p99_us,
        p.in_flight_peak,
    )
}

/// Serializes the grid as `BENCH_throughput.json` (hand-rolled: the repo
/// has no JSON serializer dependency).
pub fn open_loop_json(grid: &OpenLoopGrid) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"throughput\",");
    let _ = writeln!(out, "  \"mode\": \"open-loop\",");
    let _ = writeln!(out, "  \"seed\": {},", grid.seed);
    let _ = writeln!(out, "  \"quick\": {},", grid.quick);
    let _ = writeln!(out, "  \"service_us\": {},", OPEN_LOOP_SERVICE.as_micros());
    out.push_str("  \"knee\": [\n");
    for (i, p) in grid.knee.iter().enumerate() {
        let _ = write!(out, "    {}", point_json(p));
        out.push_str(if i + 1 < grid.knee.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(
        offered_rps: u64,
        max_in_flight: usize,
        service: std::time::Duration,
        duration: SimDuration,
    ) -> OpenLoopPoint {
        run_open_loop(&OpenLoopConfig {
            kind: TransportKind::Inproc,
            members: 1,
            offered_rps,
            duration,
            service,
            seed: 7,
            max_in_flight,
            budget: SimDuration::from_secs(2),
        })
    }

    fn quick_cell(
        offered_rps: u64,
        max_in_flight: usize,
        service: std::time::Duration,
    ) -> OpenLoopPoint {
        cell(
            offered_rps,
            max_in_flight,
            service,
            SimDuration::from_millis(250),
        )
    }

    #[test]
    fn open_loop_cell_conserves_and_completes() {
        let p = quick_cell(400, 512, std::time::Duration::ZERO);
        assert!(p.injected > 0, "{p:?}");
        assert!(p.outcomes.ok > 0, "{p:?}");
        assert_eq!(p.lost, 0, "every injected invocation must terminate: {p:?}");
        assert!(p.completed_rps > 0.0, "{p:?}");
    }

    #[test]
    fn open_loop_sheds_at_the_in_flight_cap_instead_of_losing() {
        // 20k/s into a 5 ms service with an 8-deep window: most arrivals
        // must be shed, and everything begun must still terminate.
        let p = quick_cell(20_000, 8, std::time::Duration::from_millis(5));
        assert!(p.shed > 0, "window must overflow: {p:?}");
        assert!(p.in_flight_peak <= 8, "{p:?}");
        assert_eq!(p.lost, 0, "{p:?}");
    }

    #[test]
    fn pacing_above_a_million_per_second_terminates_on_schedule() {
        // A per-arrival step truncated to whole microseconds is zero above
        // 1M/s, and the catch-up loop never advanced. Run on a thread so a
        // regression fails the test instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let p = cell(
                2_000_000,
                8,
                std::time::Duration::ZERO,
                SimDuration::from_millis(5),
            );
            let _ = tx.send(p);
        });
        let p = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("a 2M/s cell over 5 ms must terminate");
        // 2M/s over 5 ms owes at most 10,000 arrivals.
        assert!(p.injected + p.shed <= 10_000, "{p:?}");
        assert!(p.in_flight_peak <= 8, "{p:?}");
        assert_eq!(p.lost, 0, "{p:?}");
    }

    #[test]
    fn pacing_does_not_over_offer_at_rates_that_do_not_divide_a_second() {
        // A 333 us truncated step would offer 3,003/s.
        let p = cell(
            3_000,
            512,
            std::time::Duration::ZERO,
            SimDuration::from_secs(1),
        );
        assert!(p.injected + p.shed <= 3_000, "{p:?}");
        assert_eq!(p.lost, 0, "{p:?}");
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn a_zero_arrival_rate_is_rejected() {
        quick_cell(0, 8, std::time::Duration::ZERO);
    }

    #[test]
    fn open_loop_json_has_the_expected_shape() {
        let grid = OpenLoopGrid {
            knee: vec![quick_cell(400, 512, std::time::Duration::ZERO)],
            seed: 7,
            quick: true,
        };
        let json = open_loop_json(&grid);
        assert!(json.contains("\"mode\": \"open-loop\""));
        assert!(json.contains("\"knee\": ["));
        assert!(!json.contains("\"echo\""), "no echo cells");
        assert!(
            !json.contains("\"raw_socket_echo_rps\""),
            "no raw-socket baseline"
        );
        assert!(json.ends_with("}\n"));
        assert!(!json.contains("],\n}"), "no trailing comma before close");
    }
}
