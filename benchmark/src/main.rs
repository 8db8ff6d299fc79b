//! The repo's benchmark. Three ways in:
//!
//! * `erm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!   — one workload, one mode; the last line of stdout is the result as
//!   one JSON object. This is what `BENCHMARK.json`'s command runs.
//! * `erm-benchmark [--seed <n>] [--seconds <s>]` — everything: every
//!   workload untraced (end-to-end metrics), then every workload traced
//!   (per-layer metrics), written to `benchmark/out/results.json`.
//! * `erm-benchmark compare <base.json[,..]> <candidate.json[,..]>` —
//!   applies each end-to-end metric's bound; exits non-zero on "worse".
//!
//! See `benchmark/README.md` for what each workload and metric is for.

mod affinity;
mod bench;
mod compare;
mod json;
mod layers;
mod load;
mod procfs;
mod rig;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{Plan, Report};
use json::Json;

const USAGE: &str = "usage:
  erm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  erm-benchmark [--seed <n>] [--seconds <s>]
  erm-benchmark compare <base.json[,more.json]> <candidate.json[,more.json]>
  erm-benchmark manifest";

/// Seconds measured per workload when the whole suite runs.
const SUITE_SECONDS: f64 = 8.0;

/// `benchmark/out/`, next to this package's manifest (cargo exports the
/// manifest directory to the programs it runs), or under the current
/// directory when run by hand from the repo root.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
        .join("out")
}

fn write_out(file: &str, contents: &str) {
    let dir = out_dir();
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(file), contents));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", dir.join(file).display());
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, usize::from)
}

fn print_report(report: &Report, seed: u64, seconds: f64) {
    println!(
        "# {} seed {seed} window {seconds} s ({}) nproc {}",
        report.workload,
        if report.traced {
            "traced pass: per-layer metrics"
        } else {
            "untraced pass: end-to-end metrics"
        },
        nproc(),
    );
    for (name, unit, value) in &report.metrics {
        println!("  {name:<32} {value:>18.6} {unit}");
    }
    println!(
        "  attempted {} failed {} failed_share {:.6}",
        report.attempted,
        report.failed,
        report.failed_share()
    );
    for problem in &report.problems {
        println!("  PROBLEM: {problem}");
    }
}

/// The report's metrics as `{name: value}`, or `{name: {value, unit}}`.
fn metrics_json(report: &Report, with_units: bool) -> Json {
    Json::obj(report.metrics.iter().map(|(name, unit, value)| {
        let value = if with_units {
            Json::obj([("value", Json::Num(*value)), ("unit", Json::text(unit))])
        } else {
            Json::Num(*value)
        };
        (*name, value)
    }))
}

/// The one-line result object the driver reads.
fn result_line(report: &Report) -> String {
    Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", metrics_json(report, true)),
    ])
    .render()
}

fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in one mode, prints its table, and (traced) writes
/// its Chrome trace.
fn measure(plan: &Plan, seed: u64, seconds: f64, traced: bool) -> Report {
    let report = if traced {
        let (report, trace) = bench::run_traced(plan, seed, seconds);
        if let Some(trace) = trace {
            write_out(&format!("trace-{}.json", plan.spec.name), &trace);
        }
        report
    } else {
        bench::run_untraced(plan, seed, seconds)
    };
    print_report(&report, seed, seconds);
    report
}

/// One workload in one mode; the result line comes last.
fn run_one(workload: &str, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    let Some(plan) = bench::plan(workload) else {
        eprintln!("unknown workload {workload:?}\n{USAGE}");
        return ExitCode::from(2);
    };
    let report = measure(&plan, seed, seconds, traced);
    println!("{}", result_line(&report));
    exit_code(report.correct)
}

/// Every workload untraced, then every workload traced, one after
/// another; writes `results.json` and the Chrome traces.
fn run_suite(seed: u64, seconds: f64) -> ExitCode {
    let plans: Vec<Plan> = spec::WORKLOADS
        .iter()
        .map(|w| bench::plan(w.name).expect("every spec workload has a plan"))
        .collect();
    let pass = |traced| -> Vec<Report> {
        plans
            .iter()
            .map(|plan| measure(plan, seed, seconds, traced))
            .collect()
    };
    let (end_to_end, per_layer) = (pass(false), pass(true));
    let correct = end_to_end.iter().chain(&per_layer).all(|r| r.correct);
    let results = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("nproc", Json::Num(nproc() as f64)),
        ("correct", Json::Bool(correct)),
        (
            "workloads",
            Json::obj(end_to_end.iter().zip(&per_layer).map(|(e2e, layers)| {
                (
                    e2e.workload,
                    Json::obj([
                        ("end_to_end", metrics_json(e2e, false)),
                        ("attempted", Json::Num(e2e.attempted as f64)),
                        ("failed", Json::Num(e2e.failed as f64)),
                        ("failed_share", Json::Num(e2e.failed_share())),
                        ("per_layer", metrics_json(layers, false)),
                    ]),
                )
            })),
        ),
    ]);
    write_out("results.json", &(results.render() + "\n"));
    println!(
        "# results written to {}",
        out_dir().join("results.json").display()
    );
    exit_code(correct)
}

/// `BENCHMARK.json`, rendered from the spec tables.
fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let doc = [
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::text(s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::text("benchmark")])),
        ("run_seconds", Json::Num(10.0)),
        (
            "workloads",
            Json::Arr(
                spec::WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::text(w.name)), ("why", Json::text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                spec::END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::text(m.name)),
                            ("unit", Json::text(m.unit)),
                            ("better", Json::text(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                spec::PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::text(m.name)),
                            ("unit", Json::text(m.unit)),
                            ("better", Json::text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    // One top-level key, and one workload or metric, per line keeps the
    // file reviewable.
    let body: Vec<String> = doc
        .into_iter()
        .map(|(key, value)| match value {
            Json::Arr(items) if items.iter().all(|i| matches!(i, Json::Obj(_))) => {
                let rows: Vec<String> = items
                    .iter()
                    .map(|i| format!("    {}", i.render()))
                    .collect();
                format!("  \"{key}\": [\n{}\n  ]", rows.join(",\n"))
            }
            other => format!("  \"{key}\": {}", other.render()),
        })
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, base, candidate] = args.as_slice() else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            return match compare::compare(base, candidate) {
                Ok((verdicts, table)) => {
                    print!("{table}");
                    let count = |v| verdicts.iter().filter(|x| **x == v).count();
                    let worse = count(compare::Verdict::Worse);
                    println!(
                        "{worse} worse, {} unresolved, {} rows",
                        count(compare::Verdict::Unresolved),
                        verdicts.len()
                    );
                    exit_code(worse == 0)
                }
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            };
        }
        Some("manifest") => {
            print!("{}", manifest());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }

    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = None;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("{flag} needs a value\n{USAGE}");
            return ExitCode::from(2);
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0 && *s <= 600.0)
                .map(|s| seconds = Some(s))
                .is_some(),
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    traced = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            eprintln!("bad argument {flag} {value}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    match workload {
        Some(workload) => run_one(&workload, seed, seconds.unwrap_or(SUITE_SECONDS), traced),
        None => run_suite(seed, seconds.unwrap_or(SUITE_SECONDS)),
    }
}
