//! One workload, start to finish: set-up, warm-up, measured window, drain,
//! output checks, and the metrics by name. [`run_untraced`] produces the
//! end-to-end metrics with every telemetry handle disabled;
//! [`run_traced`] produces the per-layer ledger.

use std::time::Duration;

use elasticrmi::ElasticService;
use erm_apps::marketcetera::OrderRouter;
use erm_sim::SimTime;

use crate::layers::time_layers;
use crate::load::{run_pass, Load, Ops, Outcome};
use crate::procfs;
use crate::rig::{Rig, Serving, Telemetry, Transport};
use crate::spec::{self, WorkloadSpec, GENERATOR_LAG_LIMIT_US};
use crate::stats::{median, median_u64, percentile, tail};
use crate::trace::{assemble, chrome_trace, SpanTable, SEGMENTS};

/// Discarded at the start of every pass: connections warm, allocator and
/// caches settled, the pool's first burst intervals behind it.
const WARMUP: Duration = Duration::from_secs(1);

/// Set-ups timed per untraced run beyond the one that is kept. `setup_s`
/// is the median of all of them: one set-up is a few milliseconds of
/// thread spawns and a TCP handshake, far too short to report singly.
const EXTRA_SETUPS: usize = 40;

/// A paced pass whose generator could not keep its schedule is discarded
/// and run again, at most this many passes in all. On this box that means
/// the host took the generator's CPU away for most of a pass (two such
/// passes in a hundred runs, back to back); it says nothing about the
/// program, and only a box that does it every time fails the run.
const PACED_ATTEMPTS: usize = 3;

/// How a workload is assembled and driven.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub spec: &'static WorkloadSpec,
    pub transport: Transport,
    pub serving: Serving,
    pub ops: Ops,
    pub load: Load,
}

pub fn plan(name: &str) -> Option<Plan> {
    let spec = spec::workload(name)?;
    let (transport, serving, ops, load) = match name {
        "echo_tcp_sat" => (
            Transport::Tcp,
            Serving::Standalone,
            Ops::Echo,
            Load::Closed { window: 256 },
        ),
        "echo_inproc_sat" => (
            Transport::Inproc,
            Serving::Standalone,
            Ops::Echo,
            Load::Closed { window: 256 },
        ),
        "echo_tcp_paced" => (
            Transport::Tcp,
            Serving::Standalone,
            Ops::Echo,
            Load::Paced { rate: 20_000 },
        ),
        "blob_tcp_64k" => (
            Transport::Tcp,
            Serving::Standalone,
            Ops::Blob,
            Load::Closed { window: 8 },
        ),
        "orders_tcp_2m" => (
            Transport::Tcp,
            Serving::OrdersPool,
            Ops::Orders,
            Load::Closed { window: 64 },
        ),
        _ => return None,
    };
    Some(Plan {
        spec,
        transport,
        serving,
        ops,
        load,
    })
}

/// The outcome of one run of one workload in one mode.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    /// Every output check passed, nothing was lost, the run is valid.
    pub correct: bool,
    /// What went wrong, when something did.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)` for every metric of this mode, in spec order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    /// A run that never got as far as measuring.
    fn aborted(workload: &'static str, traced: bool, problems: Vec<String>) -> Report {
        Report {
            workload,
            traced,
            correct: false,
            problems,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Orders the collected values by the spec and insists on an exact match:
/// a metric the spec names but the run did not produce (or the reverse)
/// is a bug in the benchmark, reported as a failed run, never skipped.
fn by_spec(
    names: impl Iterator<Item = (&'static str, &'static str)>,
    mut values: Vec<(&'static str, f64)>,
    problems: &mut Vec<String>,
) -> Vec<(&'static str, &'static str, f64)> {
    let mut out = Vec::new();
    for (name, unit) in names {
        match values.iter().position(|(n, _)| *n == name) {
            Some(i) => out.push((name, unit, values.swap_remove(i).1)),
            None => problems.push(format!("metric {name} was not measured")),
        }
    }
    for (name, _) in values {
        problems.push(format!("metric {name} is not in the spec"));
    }
    for (name, _, value) in &out {
        if !value.is_finite() {
            problems.push(format!("metric {name} is not a number"));
        }
    }
    out
}

/// One pass on `rig`; see [`PACED_ATTEMPTS`] for when it is repeated.
fn measured_pass(
    plan: &Plan,
    rig: &mut Rig,
    seed: u64,
    window: Duration,
    telemetry: Option<&Telemetry>,
) -> Outcome {
    let mut attempt = 1;
    loop {
        let pass = run_pass(rig, plan.ops, plan.load, seed, WARMUP, window, telemetry);
        let lag_us = pass.generator_lag_p99_us();
        if lag_us <= GENERATOR_LAG_LIMIT_US || attempt == PACED_ATTEMPTS {
            return pass;
        }
        eprintln!(
            "{}: generator lag p99 {lag_us:.0} us, pass {attempt} discarded and repeated",
            plan.spec.name
        );
        if let Some(t) = telemetry {
            t.recorder.take(); // the discarded pass's stamps
        }
        attempt += 1;
    }
}

/// Output checks on one finished pass, as problems.
fn check_pass(plan: &Plan, pass: &Outcome, routed_count: Option<u64>, problems: &mut Vec<String>) {
    let name = plan.spec.name;
    if pass.lost() > 0 {
        problems.push(format!(
            "{name}: {} of {} invocations never reached a terminal outcome",
            pass.lost(),
            pass.begun_total
        ));
    }
    if pass.wrong > 0 {
        problems.push(format!(
            "{name}: {} wrong results, first: {}",
            pass.wrong,
            pass.first_wrong.as_deref().unwrap_or("?")
        ));
    }
    if pass.ok == 0 {
        problems.push(format!(
            "{name}: no invocation succeeded ({})",
            pass.first_error
                .as_deref()
                .unwrap_or("nothing was injected")
        ));
    }
    if let Some(routed) = routed_count {
        if routed != pass.routes_ok {
            problems.push(format!(
                "{name}: routed_count is {routed} at quiesce but {} route calls were acknowledged",
                pass.routes_ok
            ));
        }
    }
    let lag_us = pass.generator_lag_p99_us();
    if lag_us > GENERATOR_LAG_LIMIT_US {
        problems.push(format!(
            "{name}: invalid run, generator lag p99 {lag_us:.0} us exceeds \
             {GENERATOR_LAG_LIMIT_US:.0} us: it measured the generator, not the middleware"
        ));
    }
}

/// At quiesce the pool-wide routed counter must equal the acknowledged
/// `route` calls: at-most-once executed each exactly once.
fn routed_count(plan: &Plan, rig: &mut Rig, problems: &mut Vec<String>) -> Option<u64> {
    if plan.serving != Serving::OrdersPool {
        return None;
    }
    match rig.stub.invoke::<(), u64>("routed_count", &()) {
        Ok(n) => Some(n),
        Err(e) => {
            problems.push(format!("{}: routed_count failed: {e}", plan.spec.name));
            None
        }
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// The four steady-state end-to-end metrics of a pass.
fn steady_metrics(pass: &Outcome) -> [(&'static str, f64); 4] {
    [
        ("throughput_ops_s", pass.throughput()),
        ("latency_p50_us", us(percentile(&pass.latencies_ns, 0.5))),
        ("goodput_mb_s", pass.goodput_mb_s()),
        ("cpu_us_per_op", pass.cpu_us_per_op()),
    ]
}

/// Untraced run: the end-to-end metrics. Sets up `EXTRA_SETUPS + 1` times
/// (tearing each down but the last) for `setup_s`, then measures
/// `seconds` on the last one.
pub fn run_untraced(plan: &Plan, seed: u64, seconds: f64) -> Report {
    let mut problems = Vec::new();
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..=EXTRA_SETUPS {
        if let Some(rig) = kept.take() {
            Rig::teardown(rig);
        }
        match Rig::build(plan.transport, plan.serving, seed, None) {
            Ok((rig, took)) => {
                setups.push(took);
                kept = Some(rig);
            }
            Err(e) => {
                problems.push(format!("{}: set-up failed: {e}", plan.spec.name));
                break;
            }
        }
    }
    let Some(mut rig) = kept else {
        return Report::aborted(plan.spec.name, false, problems);
    };

    let window = Duration::from_secs_f64(seconds);
    let pass = measured_pass(plan, &mut rig, seed, window, None);
    let routed = routed_count(plan, &mut rig, &mut problems);
    rig.teardown();
    check_pass(plan, &pass, routed, &mut problems);

    let mut values = steady_metrics(&pass).to_vec();
    values.push(("setup_s", median(&setups)));
    let metrics = by_spec(
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)),
        values,
        &mut problems,
    );
    Report {
        workload: plan.spec.name,
        traced: false,
        correct: problems.is_empty(),
        problems,
        attempted: pass.injected.max(1),
        failed: pass.failed() + pass.lost(),
        metrics,
    }
}

/// Traced run: the per-layer ledger. Half of `seconds` untraced (counts at
/// the layer boundaries, and the base tracing overhead is measured
/// against), half traced (spans, the program's own instruments), then the
/// timed calls into single layers. Also returns the assembled spans so
/// the caller can write the Chrome trace.
pub fn run_traced(plan: &Plan, seed: u64, seconds: f64) -> (Report, Option<String>) {
    let name = plan.spec.name;
    let mut problems = Vec::new();
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let window = Duration::from_secs_f64(seconds / 2.0);

    // Untraced half: every handle disabled, no decorators.
    let (mut rig, setup_s) = match Rig::build(plan.transport, plan.serving, seed, None) {
        Ok(built) => built,
        Err(e) => {
            return (
                Report::aborted(name, true, vec![format!("{name}: set-up failed: {e}")]),
                None,
            )
        }
    };
    let plain = measured_pass(plan, &mut rig, seed, window, None);
    let routed = routed_count(plan, &mut rig, &mut problems);
    rig.teardown();
    check_pass(plan, &plain, routed, &mut problems);
    // Read before the traced half allocates its stamp logs.
    let peak_rss_mb = procfs::peak_rss_mb();

    let d = &plain.deltas;
    let per_op = |n: u64| n as f64 / plain.ok.max(1) as f64;
    let steady = steady_metrics(&plain);
    values.extend([
        ("untraced.throughput_ops_s", steady[0].1),
        ("untraced.latency_p50_us", steady[1].1),
        ("untraced.cpu_us_per_op", steady[3].1),
        ("untraced.setup_s", setup_s),
        (
            "tcp.frames_per_batch",
            d.tcp_frames_sent as f64 / d.tcp_batches.max(1) as f64,
        ),
        ("tcp.partial_writes", d.tcp_partial_writes as f64),
        ("tcp.wouldblock_retries", d.tcp_wouldblock_retries as f64),
        ("tcp.backpressure_events", d.tcp_backpressure_events as f64),
        ("tcp.frames_dropped", d.tcp_frames_dropped as f64),
        ("stub.retries", d.stub_retries as f64),
        ("stub.redirects_followed", d.stub_redirects_followed as f64),
        ("stub.wrong_shard", d.stub_wrong_shard as f64),
        ("stub.replays", d.stub_replays as f64),
        ("stub.refreshes", d.stub_refreshes as f64),
        ("kv.gets_per_op", per_op(d.kv_gets)),
        ("kv.puts_per_op", per_op(d.kv_puts)),
        ("kv.cas_conflicts", d.kv_cas_conflicts as f64),
        ("kv.lock_failures", d.kv_lock_failures as f64),
        ("pool.epoch", d.pool_epoch as f64),
        ("pool.rejected", d.pool_rejected as f64),
        ("process.ctx_switches_per_op", per_op(d.ctx_switches)),
        ("process.peak_rss_mb", peak_rss_mb),
        ("client.latency_p90_us", us(tail(&plain.latencies_ns, 0.90))),
        ("client.latency_p99_us", us(tail(&plain.latencies_ns, 0.99))),
        (
            "client.latency_p999_us",
            us(tail(&plain.latencies_ns, 0.999)),
        ),
        ("client.samples", plain.latencies_ns.len() as f64),
        ("client.in_flight_peak", plain.in_flight_peak as f64),
        ("client.generator_lag_p99_us", plain.generator_lag_p99_us()),
    ]);

    // Traced half: decorators on both hosts and the service, enabled
    // TraceHandle/MetricsHandle through the program.
    let telemetry = Telemetry::new();
    let mut rig = match Rig::build(plan.transport, plan.serving, seed, Some(&telemetry)) {
        Ok((rig, _)) => rig,
        Err(e) => {
            problems.push(format!("{name}: traced set-up failed: {e}"));
            return (Report::aborted(name, true, problems), None);
        }
    };
    let mut traced = measured_pass(plan, &mut rig, seed, window, Some(&telemetry));
    let routed = routed_count(plan, &mut rig, &mut problems);
    let samples = rig
        .taps
        .as_ref()
        .and_then(|(client, server)| Some((client.sample()?.to_vec(), server.sample()?.to_vec())));
    let instruments = telemetry.registry.snapshot(SimTime::ZERO);
    rig.teardown();
    check_pass(plan, &traced, routed, &mut problems);

    let mut stamps = telemetry.recorder.take();
    stamps.append(&mut traced.stamps);
    let spans: SpanTable = assemble(&stamps);
    drop(stamps);
    for (i, segment) in SEGMENTS.iter().enumerate() {
        let mut lengths: Vec<u64> = spans.complete.iter().map(|c| c.segments_ns()[i]).collect();
        values.push((segment, us(median_u64(&mut lengths))));
    }
    values.push(("trace.spans_complete", spans.complete.len() as f64));
    values.push(("trace.spans_incomplete", spans.incomplete as f64));
    values.push((
        "stub.begin_call_ns",
        median_u64(&mut traced.begin_call_ns) as f64,
    ));
    values.push((
        "stub.drain_call_ns_per_op",
        traced.drain_busy_ns as f64 / traced.drain_returned.max(1) as f64,
    ));

    let histogram_us = |name: &str, q: f64| -> f64 {
        instruments
            .histograms
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, h)| h.quantile(q))
            .map_or(0.0, |d| d.as_micros() as f64)
    };
    let counter = |name: &str| -> f64 {
        instruments
            .counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    let traced_throughput = traced.throughput();
    values.extend([
        (
            "skeleton.queue_delay_p50_us",
            histogram_us("skeleton.queue.delay", 0.5),
        ),
        (
            "skeleton.queue_delay_p99_us",
            histogram_us("skeleton.queue.delay", 0.99),
        ),
        (
            "skeleton.service_time_p50_us",
            histogram_us("skeleton.service.time", 0.5),
        ),
        ("kv.lock_wait_p50_us", histogram_us("kv.lock.wait", 0.5)),
        ("semantics.dedup_hits", counter("rmi.dedup.hits")),
        ("semantics.dedup_evicted", counter("rmi.dedup.evicted")),
        ("shard.misrouted", counter("rmi.shard.misrouted")),
        ("traced.throughput_ops_s", traced_throughput),
        (
            "traced.latency_p50_us",
            us(percentile(&traced.latencies_ns, 0.5)),
        ),
        (
            "trace.overhead_pct",
            100.0 * (plain.throughput() - traced_throughput) / plain.throughput(),
        ),
    ]);

    // Timed calls into single layers, on the messages just seen.
    match samples {
        Some((request, response)) => {
            let (service, class): (Box<dyn ElasticService>, &str) = match plan.serving {
                Serving::Standalone => (crate::rig::bench_service(), "Bench"),
                Serving::OrdersPool => (Box::new(OrderRouter::new()), OrderRouter::CLASS),
            };
            match time_layers(service, class, &request, &response) {
                Ok(timings) => values.extend(timings),
                Err(e) => problems.push(format!("{name}: layer timing failed: {e}")),
            }
        }
        None => problems.push(format!(
            "{name}: the traced pass saw no request/response pair"
        )),
    }

    let attempted = plain.injected + traced.injected;
    let failed = plain.failed() + plain.lost() + traced.failed() + traced.lost();
    values.push((
        "client.failed_share",
        failed as f64 / attempted.max(1) as f64,
    ));

    let metrics = by_spec(
        spec::PER_LAYER.iter().map(|m| (m.name, m.unit)),
        values,
        &mut problems,
    );
    let report = Report {
        workload: name,
        traced: true,
        correct: problems.is_empty(),
        problems,
        attempted: attempted.max(1),
        failed,
        metrics,
    };
    (report, Some(chrome_trace(name, &spans)))
}
