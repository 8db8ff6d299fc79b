//! Open-loop throughput benchmark: the full RMI stack, inproc vs real TCP
//! loopback, offered load swept to find the knee at 1/4/8 pool members.
//!
//! ```text
//! bench                          # full grid, writes BENCH_throughput.json
//! bench --quick                  # shortened cells for CI smoke runs
//! bench --out path.json          # choose the output path
//! bench --seed 42                # change the LB seed
//! ```
//!
//! The generator is open-loop: arrivals are injected at the configured
//! rate through one pipelined stub regardless of completions, so the
//! numbers measure the middleware's capacity, not the client's round-trip
//! behaviour. The knee sweep runs a 2 ms *sleeping* service — one member
//! caps at ~500 inv/s — so member-count scaling is honest concurrency in
//! the pool even on a single-core container. The data-path ceiling is the
//! `benchmark/` package's job, not this binary's.
//!
//! Exits nonzero if any invocation is lost (conservation), any knee cell
//! completes nothing, or the inproc knee fails to scale with members
//! (best 8-member rate must beat 1.5x the best 1-member rate).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 7u64;
    let mut quick = false;
    let mut out = "BENCH_throughput.json".to_string();
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
            "--out" => {
                i += 1;
                out = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| usage("--out needs a path"));
            }
            "--quick" => quick = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    println!(
        "# Open-loop throughput (seed {seed}{}): pipelined stub, paced arrivals",
        if quick { ", quick" } else { "" }
    );
    let grid = erm_harness::run_open_loop_grid(seed, quick);
    print!("{}", erm_harness::format_open_loop(&grid));

    let mut failed = false;
    for p in &grid.knee {
        if p.lost != 0 {
            eprintln!(
                "error: {} x {} members @ {}/s lost {} invocations",
                p.transport, p.members, p.offered_rps, p.lost
            );
            failed = true;
        }
        if p.outcomes.ok == 0 {
            eprintln!(
                "error: {} x {} members @ {}/s completed zero invocations",
                p.transport, p.members, p.offered_rps
            );
            failed = true;
        }
    }
    // The point of the open loop: capacity must scale with pool size.
    let best = |members: u32| -> f64 {
        grid.knee
            .iter()
            .filter(|p| p.transport == erm_harness::TransportKind::Inproc && p.members == members)
            .map(|p| p.completed_rps)
            .fold(0.0, f64::max)
    };
    let (one, eight) = (best(1), best(8));
    if eight <= 1.5 * one {
        eprintln!(
            "error: inproc knee does not scale with members: \
             best 8-member rate {eight:.0}/s <= 1.5x best 1-member rate {one:.0}/s"
        );
        failed = true;
    }
    println!("scaling: inproc best 1-member {one:.0}/s, best 8-member {eight:.0}/s");
    if failed {
        std::process::exit(1);
    }

    let json = erm_harness::open_loop_json(&grid);
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}: {} knee points", grid.knee.len());
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: bench [--quick] [--out PATH] [--seed N]");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
