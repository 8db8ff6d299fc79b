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
//! arrivals on the injected clock with catch-up (a late wakeup injects the
//! backlog, it does not silently stretch the schedule), sheds arrivals
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
//! CPU-count artifact. The zero-service `echo` cells and the raw-socket
//! comparison measure the data path itself and *are* core-bound.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
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
    /// Target arrival rate, invocations per second. `0` means saturation
    /// mode: keep `max_in_flight` invocations outstanding at all times.
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
    /// Configured arrival rate (0 = saturation mode).
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
pub fn run_open_loop(config: &OpenLoopConfig) -> OpenLoopPoint {
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
    let mut n = 0u64;

    let begin_one = |stub: &mut Stub,
                     now: SimTime,
                     n: &mut u64,
                     injected: &mut u64,
                     outcomes: &mut Outcomes,
                     begun: &mut HashMap<u64, SimTime>| {
        *injected += 1;
        match stub.invoke_begin("work", n) {
            Ok(id) => {
                begun.insert(id, now);
            }
            Err(e) => outcomes.add(&Err::<u64, RmiError>(e)),
        }
        *n += 1;
    };
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
    if config.offered_rps == 0 {
        // Saturation mode: keep the window full, harvest as fast as the
        // pool completes. This measures the data-path ceiling.
        while clock.now() < end {
            let now = clock.now();
            while stub.in_flight() < config.max_in_flight {
                begin_one(
                    &mut stub,
                    now,
                    &mut n,
                    &mut injected,
                    &mut outcomes,
                    &mut begun,
                );
            }
            in_flight_peak = in_flight_peak.max(stub.in_flight());
            if harvest(&mut stub, &mut outcomes, &mut begun, &mut latencies_us) == 0 {
                std::thread::yield_now();
            }
        }
    } else {
        let interval = SimDuration::from_micros(1_000_000 / config.offered_rps.max(1));
        let mut next = t0;
        while clock.now() < end {
            let now = clock.now();
            // Catch-up pacing: a late wakeup injects the arrivals the
            // schedule owed, keeping the offered rate honest.
            while next <= now {
                if stub.in_flight() >= config.max_in_flight {
                    shed += 1;
                } else {
                    begin_one(
                        &mut stub,
                        now,
                        &mut n,
                        &mut injected,
                        &mut outcomes,
                        &mut begun,
                    );
                }
                next += interval;
            }
            in_flight_peak = in_flight_peak.max(stub.in_flight());
            harvest(&mut stub, &mut outcomes, &mut begun, &mut latencies_us);
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
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

/// Pipelined raw-socket echo over TCP loopback: 32-byte messages, a primed
/// window of `window` outstanding messages, and — deliberately — one
/// `read`/`write` pair *per message* on both sides, the per-message syscall
/// discipline an un-batched RMI peer pays. (A bulk-read variant measures
/// loopback memcpy bandwidth, tens of millions of "messages" per second,
/// and says nothing about a framed request/response path.) This is the
/// honest baseline the full stack's TCP echo cells are compared against:
/// "within 2–3x of raw sockets", not "fast in a vacuum".
pub fn run_raw_socket_echo(duration: std::time::Duration, window: usize) -> f64 {
    const MSG: usize = 32;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind raw echo server");
    let addr = listener.local_addr().expect("raw echo addr");
    let server = std::thread::spawn(move || {
        let Ok((mut s, _)) = listener.accept() else {
            return;
        };
        let _ = s.set_nodelay(true);
        let mut msg = [0u8; MSG];
        loop {
            if s.read_exact(&mut msg).is_err() || s.write_all(&msg).is_err() {
                break;
            }
        }
    });

    let mut c = TcpStream::connect(addr).expect("connect raw echo");
    let _ = c.set_nodelay(true);
    let start = std::time::Instant::now();
    let prime = vec![0x5au8; MSG * window];
    c.write_all(&prime).expect("prime echo window");
    let mut echoed = 0u64;
    let mut msg = [0u8; MSG];
    while start.elapsed() < duration {
        if c.read_exact(&mut msg).is_err() {
            break;
        }
        echoed += 1;
        if c.write_all(&msg).is_err() {
            break;
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    drop(c);
    let _ = server.join();
    if seconds > 0.0 {
        echoed as f64 / seconds
    } else {
        0.0
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
    /// Saturation cells: zero service, window kept full — data-path ceiling.
    pub echo: Vec<OpenLoopPoint>,
    /// Pipelined raw-socket echo rate, the TCP comparison baseline.
    pub raw_socket_echo_rps: f64,
    /// Seed the grid ran with.
    pub seed: u64,
    /// Whether the shortened CI shape was used.
    pub quick: bool,
}

/// Runs the open-loop grid: a knee sweep (2 transports x 1/4/8 members x
/// offered rates) with a 2 ms sleeping service, saturation `echo` cells
/// for the data-path ceiling, and the raw-socket baseline. `quick`
/// shortens cells and thins the rate sweep for CI.
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

    let mut echo = Vec::new();
    for kind in [TransportKind::Inproc, TransportKind::Tcp] {
        for members in [1u32, 8] {
            echo.push(run_open_loop(&OpenLoopConfig {
                kind,
                members,
                offered_rps: 0,
                duration,
                service: std::time::Duration::ZERO,
                seed,
                max_in_flight: 256,
                budget,
            }));
        }
    }

    let raw_socket_echo_rps =
        run_raw_socket_echo(std::time::Duration::from_micros(duration.as_micros()), 256);

    OpenLoopGrid {
        knee,
        echo,
        raw_socket_echo_rps,
        seed,
        quick,
    }
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
    let _ = writeln!(
        out,
        "# Saturation echo cells (zero service, window kept full)"
    );
    for p in &grid.echo {
        let _ = writeln!(
            out,
            "  {:<9} {:>7} {:>9} {:>9.0}/s {:>8} {:>8} {:>6} {:>5} {:>6} us {:>6} us",
            p.transport.to_string(),
            p.members,
            "window",
            p.completed_rps,
            p.outcomes.ok,
            p.outcomes.expired,
            p.shed,
            p.lost,
            p.p50_us,
            p.p99_us,
        );
    }
    let _ = writeln!(
        out,
        "# Raw-socket pipelined echo baseline: {:.0}/s (32-byte messages)",
        grid.raw_socket_echo_rps
    );
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
    let _ = writeln!(
        out,
        "  \"raw_socket_echo_rps\": {:.1},",
        grid.raw_socket_echo_rps
    );
    for (name, points) in [("knee", &grid.knee), ("echo", &grid.echo)] {
        let _ = writeln!(out, "  \"{name}\": [");
        for (i, p) in points.iter().enumerate() {
            let _ = write!(out, "    {}", point_json(p));
            out.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
    }
    // Trailing-comma fix: close the object after the last array.
    let trimmed = out.trim_end_matches(",\n").len();
    out.truncate(trimmed);
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cell(
        offered_rps: u64,
        max_in_flight: usize,
        service: std::time::Duration,
    ) -> OpenLoopPoint {
        run_open_loop(&OpenLoopConfig {
            kind: TransportKind::Inproc,
            members: 1,
            offered_rps,
            duration: SimDuration::from_millis(250),
            service,
            seed: 7,
            max_in_flight,
            budget: SimDuration::from_secs(2),
        })
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
    fn saturation_mode_keeps_the_window_full() {
        let p = quick_cell(0, 64, std::time::Duration::ZERO);
        assert_eq!(p.in_flight_peak, 64, "window must be topped up: {p:?}");
        assert!(p.outcomes.ok > 0, "{p:?}");
        assert_eq!(p.lost, 0, "{p:?}");
    }

    #[test]
    fn raw_socket_echo_measures_something() {
        let rps = run_raw_socket_echo(std::time::Duration::from_millis(100), 64);
        assert!(rps > 0.0, "raw echo must move messages, got {rps}");
    }

    #[test]
    fn open_loop_json_has_the_expected_shape() {
        let grid = OpenLoopGrid {
            knee: vec![quick_cell(400, 512, std::time::Duration::ZERO)],
            echo: vec![],
            raw_socket_echo_rps: 123.0,
            seed: 7,
            quick: true,
        };
        let json = open_loop_json(&grid);
        assert!(json.contains("\"mode\": \"open-loop\""));
        assert!(json.contains("\"knee\": ["));
        assert!(json.contains("\"echo\": ["));
        assert!(json.contains("\"raw_socket_echo_rps\": 123.0"));
        assert!(json.ends_with("}\n"));
        assert!(!json.contains("],\n}"), "no trailing comma before close");
    }
}
