//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! figures                    # everything: Fig. 7a–7j, Fig. 8a/8b, summary
//! figures --fig 7c           # one figure
//! figures --table            # the §5.5 summary grid (T1)
//! figures --ablation         # design-choice ablations (burst interval,
//!                            # policy, provisioning latency)
//! figures --overload         # admission control vs unbounded FIFO under
//!                            # a 2x burst with the pool pinned, then the
//!                            # instrumented elastic run + why-scaled report
//! figures --churn            # the member-crash churn harness: scripted +
//!                            # seeded node failures, master outage, lock
//!                            # reclamation, and the why-recovered report
//! figures --tcp              # the overload scenario end-to-end over real
//!                            # TCP loopback sockets (stub → wire →
//!                            # skeleton → pool → registry); exits nonzero
//!                            # if any invocation is lost
//! figures --tcp --quick      # same, shortened for CI smoke runs
//! figures --warmpool         # warm-standby route-flip vs cold offer path:
//!                            # promotion lag, slice-hours cost, and the
//!                            # conservation properties; exits nonzero on
//!                            # any lost invocation, leak, or a promotion
//!                            # lag above one control-loop tick
//! figures --warmpool --quick # same, shortened for CI smoke runs
//! figures --sharded          # key-affinity sharded pool: misroute/handoff
//!                            # enforcement scan plus the Zipf-skew scaling
//!                            # grid (sharded vs unsharded throughput);
//!                            # exits nonzero on any misrouted execution,
//!                            # lost invocation, leaked lock, or a handoff
//!                            # that does not conserve the held-lock set
//! figures --sharded --quick  # same, shortened for CI smoke runs
//! figures --seed 42          # change the experiment seed
//! figures --dump-traces      # control-plane trace of one run per
//!                            # app x pattern (scale decisions, joins,
//!                            # drains, in virtual time)
//! figures --overload --export-trace t.json --export-metrics m.csv
//!                            # also write the elastic run's Perfetto/Chrome
//!                            # trace_event JSON and metrics-registry CSV
//! ```

use erm_apps::AppKind;
use erm_harness::{run_experiment, Deployment, ExperimentConfig, FigureId};
use erm_sim::SimDuration;
use erm_workloads::PatternKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 7u64;
    let mut fig: Option<String> = None;
    let mut table = false;
    let mut ablation = false;
    let mut overload = false;
    let mut churn = false;
    let mut warmpool = false;
    let mut sharded = false;
    let mut tcp = false;
    let mut quick = false;
    let mut dump_traces = false;
    let mut export_trace: Option<String> = None;
    let mut export_metrics: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--fig" => {
                i += 1;
                fig = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--fig needs an id")),
                );
            }
            "--export-trace" => {
                i += 1;
                export_trace = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--export-trace needs a path")),
                );
            }
            "--export-metrics" => {
                i += 1;
                export_metrics = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--export-metrics needs a path")),
                );
            }
            "--table" => table = true,
            "--ablation" => ablation = true,
            "--overload" => overload = true,
            "--churn" => churn = true,
            "--warmpool" => warmpool = true,
            "--sharded" => sharded = true,
            "--tcp" => tcp = true,
            "--quick" => quick = true,
            "--dump-traces" => dump_traces = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    if let Some(id) = fig {
        let Some(figure) = FigureId::parse(&id) else {
            usage(&format!("unknown figure id {id} (7a-7j, 8a, 8b)"));
        };
        print!("{}", figure.render(seed));
        return;
    }
    if table {
        print_summary(seed);
        return;
    }
    if ablation {
        print_ablations(seed);
        return;
    }
    if overload {
        print!("{}", erm_harness::render_overload(seed));
        print_elastic_telemetry(seed, export_trace.as_deref(), export_metrics.as_deref());
        return;
    }
    if churn {
        print_churn(seed, export_metrics.as_deref());
        return;
    }
    if warmpool {
        print_warmpool(seed, quick, export_metrics.as_deref());
        return;
    }
    if sharded {
        print_sharded(seed, quick, export_metrics.as_deref());
        return;
    }
    if tcp {
        print_tcp_overload(seed, quick);
        return;
    }
    if quick {
        usage("--quick only applies with --tcp, --warmpool, or --sharded");
    }
    if export_trace.is_some() || export_metrics.is_some() {
        usage(
            "--export-trace/--export-metrics only apply with --overload, --churn, \
             --warmpool, or --sharded",
        );
    }
    if dump_traces {
        print_traces(seed);
        return;
    }
    // Default: everything.
    for (name, figure) in FigureId::all() {
        println!("================ Figure {name} ================");
        print!("{}", figure.render(seed));
        println!();
    }
    println!("================ Summary (§5.5 prose statistics) ================");
    print_summary(seed);
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: figures [--fig 7a..7j|8a|8b] [--table] [--ablation] [--overload] [--churn] \
         [--warmpool [--quick]] [--sharded [--quick]] [--tcp [--quick]] [--dump-traces] \
         [--seed N] [--export-trace PATH] [--export-metrics PATH]  \
         (exports need --overload, --churn, --warmpool, or --sharded)"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn print_summary(seed: u64) {
    let rows = erm_harness::summary_table(seed);
    print!("{}", erm_harness::format_summary(&rows));
    println!(
        "\nCloudWatch / ElasticRMI mean-agility ratios \
         (paper: Mkt 3.4x/-, Hedwig 4.5x/3.0x, Paxos 6.6x/2.2x, DCS 7.2x/3.2x):"
    );
    for app in AppKind::ALL {
        for pattern in [PatternKind::Abrupt, PatternKind::Cyclic] {
            let get = |d: Deployment| {
                rows.iter()
                    .find(|r| r.app == app && r.pattern == pattern && r.deployment == d)
                    .expect("full grid")
                    .mean_agility
            };
            println!(
                "  {:<13} {:<7} {:.1}x",
                app.to_string(),
                pattern.to_string(),
                get(Deployment::CloudWatch) / get(Deployment::ElasticRmi).max(1e-9)
            );
        }
    }
}

/// The instrumented elastic overload run: prints the why-scaled report and
/// optionally writes the Perfetto trace and the metrics CSV.
fn print_elastic_telemetry(seed: u64, trace_path: Option<&str>, metrics_path: Option<&str>) {
    let run = erm_harness::run_elastic_overload(seed);
    println!("\n================ Elastic run telemetry (seed {seed}) ================");
    print!("{}", run.report);
    if let Some(path) = trace_path {
        if let Err(e) = std::fs::write(path, &run.trace_json) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "wrote {path}: {} invocation + {} decision spans \
             (load in Perfetto / chrome://tracing)",
            run.invocations, run.decisions
        );
    }
    if let Some(path) = metrics_path {
        if let Err(e) = std::fs::write(path, &run.metrics_csv) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "wrote {path}: {} metric-registry snapshot rows",
            run.metrics_csv.lines().count().saturating_sub(1)
        );
    }
}

/// The churn harness: prints the why-recovered report and optionally
/// writes the metrics CSV (with the quiesce leak gauges) for CI to check.
fn print_churn(seed: u64, metrics_path: Option<&str>) {
    let run = erm_harness::run_churn(seed);
    println!("================ Churn / crash-recovery run (seed {seed}) ================");
    print!("{}", run.report);
    if let Some(path) = metrics_path {
        if let Err(e) = std::fs::write(path, &run.metrics_csv) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "wrote {path}: {} metric-registry snapshot rows",
            run.metrics_csv.lines().count().saturating_sub(1)
        );
    }
}

/// The warm-standby route-flip comparison. The run doubles as the
/// assertion: any lost invocation, leaked slice or lock, routing to an
/// unadvertised member, or a warm promotion lag above one control-loop
/// tick exits nonzero so CI can gate on it.
fn print_warmpool(seed: u64, quick: bool, metrics_path: Option<&str>) {
    let run = erm_harness::run_warmpool(seed, quick);
    println!("================ Warm-standby route-flip (seed {seed}) ================");
    print!("{}", run.report);
    if let Some(path) = metrics_path {
        if let Err(e) = std::fs::write(path, &run.metrics_csv) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "wrote {path}: {} metric-registry snapshot rows",
            run.metrics_csv.lines().count().saturating_sub(1)
        );
    }
    let mut failed = false;
    for (name, v) in [("warm", &run.warm), ("cold", &run.cold)] {
        if !v.violations.is_clean() {
            eprintln!(
                "error: {name} variant violated an invariant: {:?}",
                v.violations
            );
            failed = true;
        }
    }
    match run.warm.promoted_lag {
        Some(lag) if lag <= run.tick => {}
        Some(lag) => {
            eprintln!(
                "error: warm promotion lag {lag} exceeds one control-loop tick {}",
                run.tick
            );
            failed = true;
        }
        None => {
            eprintln!("error: warm variant never satisfied a grow by promotion");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// The key-affinity sharded pool run. The run doubles as the assertion:
/// any misrouted execution, lost invocation, duplicate terminal, leaked
/// or misplaced lock, a handoff that does not conserve the held-lock set,
/// or a scaling grid where sharding fails to out-scale the locking pool
/// exits nonzero so CI can gate on it.
fn print_sharded(seed: u64, quick: bool, metrics_path: Option<&str>) {
    let run = erm_harness::run_sharded(seed, quick);
    println!("================ Key-affinity sharded pool (seed {seed}) ================");
    print!("{}", run.report);
    if let Some(path) = metrics_path {
        if let Err(e) = std::fs::write(path, &run.metrics_csv) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "wrote {path}: {} metric-registry snapshot rows",
            run.metrics_csv.lines().count().saturating_sub(1)
        );
    }
    let mut failed = false;
    let e = &run.enforcement;
    if !e.clean() {
        eprintln!(
            "error: sharding invariants violated (handoff released {}/{} moved, \
             misplaced {}): {:?}",
            e.handoff_released, e.handoff_moved, e.misplaced_retained, e.violations,
        );
        failed = true;
    }
    if e.redirects == 0 || e.handoff_moved == 0 {
        eprintln!("error: the run never exercised misroutes or handoff");
        failed = true;
    }
    let first = &run.scaling[0];
    let last = &run.scaling[run.scaling.len() - 1];
    if last.ops_sharded < 3.0 * first.ops_sharded {
        eprintln!(
            "error: sharded throughput failed to scale ({:.0} -> {:.0} ops/s)",
            first.ops_sharded, last.ops_sharded
        );
        failed = true;
    }
    if last.ops_sharded < 1.5 * last.ops_unsharded {
        eprintln!(
            "error: sharding shows no advantage over store locking at {} members \
             ({:.0} vs {:.0} ops/s)",
            last.members, last.ops_sharded, last.ops_unsharded
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

/// The overload scenario over real TCP loopback sockets. The run itself is
/// the assertion: if any invocation fails to reach a terminal outcome the
/// process exits nonzero, so CI can gate on it.
fn print_tcp_overload(seed: u64, quick: bool) {
    let run = erm_harness::run_socket_overload(seed, quick);
    println!("================ Overload over TCP loopback (seed {seed}) ================");
    print!("{}", run.report);
    if run.lost != 0 {
        eprintln!("error: {} invocations lost over TCP", run.lost);
        std::process::exit(1);
    }
}

/// One ElasticRMI run per application x pattern with control-plane tracing
/// on, dumped one record per line in virtual time.
fn print_traces(seed: u64) {
    for app in AppKind::ALL {
        for pattern in [PatternKind::Abrupt, PatternKind::Cyclic] {
            let mut config = ExperimentConfig::paper(app, pattern, Deployment::ElasticRmi);
            config.seed = seed;
            config.trace = true;
            let r = run_experiment(&config);
            println!(
                "================ Trace: {app} / {pattern} ({} events) ================",
                r.trace.len()
            );
            if r.trace_dropped > 0 {
                println!(
                    "WARNING: ring buffer dropped {} oldest records; \
                     this trace is incomplete",
                    r.trace_dropped
                );
            }
            for record in &r.trace {
                println!("{record}");
            }
            println!();
        }
    }
}

/// Ablations for the design choices DESIGN.md calls out: burst interval,
/// decision policy, and provisioning latency.
fn print_ablations(seed: u64) {
    let app = AppKind::Marketcetera;
    println!("# Ablation 1: ElasticRMI burst interval (abrupt workload, mean agility)");
    for secs in [15u64, 30, 60, 120, 300, 600] {
        let mut config = ExperimentConfig::paper(app, PatternKind::Abrupt, Deployment::ElasticRmi);
        config.seed = seed;
        let agility = erm_bench::run_with_burst(&config, SimDuration::from_secs(secs));
        println!("  burst={secs:>4}s  agility={agility:.2}");
    }
    println!("\n# Ablation 2: decision policy at equal provisioning latency (abrupt)");
    for dep in [Deployment::ElasticRmi, Deployment::ElasticRmiCpuMem] {
        let mut config = ExperimentConfig::paper(app, PatternKind::Abrupt, dep);
        config.seed = seed;
        let r = run_experiment(&config);
        println!(
            "  {:<18} agility={:.2}",
            dep.to_string(),
            r.agility.mean_agility()
        );
    }
    println!("\n# Ablation 3: provisioning latency at equal policy (threshold policy)");
    for dep in [Deployment::ElasticRmiCpuMem, Deployment::CloudWatch] {
        let mut config = ExperimentConfig::paper(app, PatternKind::Abrupt, dep);
        config.seed = seed;
        let r = run_experiment(&config);
        println!(
            "  {:<18} agility={:.2} prov={:.0}s",
            dep.to_string(),
            r.agility.mean_agility(),
            r.provisioning
                .mean_latency()
                .map_or(0.0, |d| d.as_secs_f64())
        );
    }
    println!("\n# Ablation 4: cluster-master outage during the abrupt ramp (par. 4.4)");
    for outage in [None, Some((140u64, 200u64))] {
        let mut config = ExperimentConfig::paper(app, PatternKind::Abrupt, Deployment::ElasticRmi);
        config.seed = seed;
        config.master_outage = outage.map(|(a, b)| {
            (
                erm_sim::SimTime::from_minutes(a),
                erm_sim::SimTime::from_minutes(b),
            )
        });
        let r = run_experiment(&config);
        println!(
            "  outage={:<14} agility={:.2} (shortage component {:.2})",
            outage.map_or("none".to_string(), |(a, b)| format!("{a}..{b} min")),
            r.agility.mean_agility(),
            r.agility.mean_shortage(),
        );
    }
    println!("\n# Ablation 5: scalability limits from shared state (par. 4.1)");
    print!("{}", erm_harness::render_scalability());
    println!("\n# Ablation 6: two tiers on a scarce shared cluster (par. 3.3 Decider)");
    print!("{}", erm_harness::render_tiered(seed));
}
