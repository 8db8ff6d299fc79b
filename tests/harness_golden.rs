//! Golden digests of the five virtual-clock harness scenarios.
//!
//! Every scenario is byte-deterministic per seed, so "same behaviour" across
//! a harness refactor is provable exactly: one FNV-1a digest per
//! (scenario, seed, artifact) of the report string, the metrics CSV and —
//! for the elastic overload run — the Chrome-trace JSON, i.e. exactly what
//! `figures --churn | --overload --export-trace | --warmpool [--quick] |
//! --sharded [--quick]` with `--export-metrics` prints and writes.
//!
//! This lives in the root package because tier-1 `cargo test -q` runs only
//! the root package. A digest that changes is a behaviour change: the fix is
//! in the harness, not in this table. The table was recorded on the commit
//! before the scenarios moved onto the shared rig (`erm_harness::rig`) and
//! passed there unchanged; the single exception is documented at its rows.

use erm_harness::{
    render_overload, run_churn, run_elastic_overload, run_sharded, run_warmpool, ElasticOverloadRun,
};

const SEEDS: [u64; 3] = [7, 99, 2026];

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(scenario, artifact, [digest for seed 7, 99, 2026])`.
const GOLDEN: [(&str, &str, [u64; 3]); 14] = [
    (
        "churn",
        "report",
        [0xdfad0180e9ed5fc9, 0x62b891cd7bdced83, 0x9e529adcc7c728cf],
    ),
    (
        "churn",
        "csv",
        [0x82974cfc107bf129, 0xbaca739613ce85db, 0xbfcf82923ee3f25c],
    ),
    (
        "overload",
        "report",
        [0x9972dabb17173315, 0x9f972f72a824bf6b, 0xeb449b313448e88c],
    ),
    // The one permitted change since these digests were recorded on the
    // parent commit: the elastic overload client dropped every invocation it
    // gave up on (192 / 323 / 217 for the three seeds) without a terminal
    // event, which the shared checker reports as lost. They now complete as
    // failed, so the report's tally line reads "remote-error N, rejected 0"
    // where it read "remote-error 0, rejected N", and those invocations'
    // root spans in the trace carry outcome RemoteError, not Rejected.
    // Nothing else moved; the CSV row below is the parent's. Parent digests:
    //   report [0x539c03fb1d88d4b3, 0x80a7ff5e27a281a0, 0x20eac53688930ff2]
    //   trace  [0x85dcbe6df336787c, 0xeaa950075d592364, 0x40fcc56b74a481e1]
    (
        "elastic-overload",
        "report",
        [0xde4be90e72a6210f, 0x7dc2d8ad17d6f820, 0x25c93dab5ed3922a],
    ),
    (
        "elastic-overload",
        "csv",
        [0x27b211623682b8ae, 0x4a25ce8ccb77bfce, 0xa66032d775680cd0],
    ),
    (
        "elastic-overload",
        "trace",
        [0x5871210ec994b58a, 0xc82e7c21573b8836, 0xf5513ca5127800db],
    ),
    (
        "warmpool",
        "report",
        [0x82b4351fbb63899c, 0xbe7c7908e8509403, 0x8daf66bf977c03c3],
    ),
    (
        "warmpool",
        "csv",
        [0xfb7f69bc1df0194c, 0xe84e0a8acc51cca5, 0x83e9fa202d837e75],
    ),
    (
        "warmpool-quick",
        "report",
        [0x1884bd2d970c6a55, 0x0f53896bd232c2b8, 0x485d4663579841bb],
    ),
    (
        "warmpool-quick",
        "csv",
        [0xfd20464cb42bc90c, 0x2526df2ddd37f125, 0x1bac98fc2d845335],
    ),
    (
        "sharded",
        "report",
        [0xbff7172a527e5b0e, 0x8bd5578d42df9536, 0xa3d20cfa321ef854],
    ),
    (
        "sharded",
        "csv",
        [0x31a2fcb11299251e, 0x27eda42168858506, 0x4daef017caa53547],
    ),
    (
        "sharded-quick",
        "report",
        [0x774f4edfb5b3df8f, 0xb8c90424e2a24725, 0x400d65660983b6f2],
    ),
    (
        "sharded-quick",
        "csv",
        [0x21b3cd3112a58b63, 0xcc36832dbed4bd6c, 0x3e5124e329fc4a11],
    ),
];

/// The artifacts of one scenario under one seed, as `(artifact, text)`.
fn artifacts(scenario: &str, seed: u64) -> Vec<(&'static str, String)> {
    let report_and_csv = |report: String, csv: String| vec![("report", report), ("csv", csv)];
    match scenario {
        "churn" => {
            let run = run_churn(seed);
            report_and_csv(run.report, run.metrics_csv)
        }
        "overload" => vec![("report", render_overload(seed))],
        "elastic-overload" => {
            let ElasticOverloadRun {
                report,
                metrics_csv,
                trace_json,
                ..
            } = run_elastic_overload(seed);
            vec![
                ("report", report),
                ("csv", metrics_csv),
                ("trace", trace_json),
            ]
        }
        "warmpool" | "warmpool-quick" => {
            let run = run_warmpool(seed, scenario.ends_with("-quick"));
            report_and_csv(run.report, run.metrics_csv)
        }
        "sharded" | "sharded-quick" => {
            let run = run_sharded(seed, scenario.ends_with("-quick"));
            report_and_csv(run.report, run.metrics_csv)
        }
        other => panic!("unknown scenario {other}"),
    }
}

#[test]
fn every_scenario_artifact_matches_its_recorded_digest() {
    let mut actual = GOLDEN;
    let mut scenarios: Vec<&str> = GOLDEN.iter().map(|&(s, _, _)| s).collect();
    scenarios.dedup();
    for scenario in scenarios {
        for (i, &seed) in SEEDS.iter().enumerate() {
            for (artifact, text) in artifacts(scenario, seed) {
                let row = actual
                    .iter_mut()
                    .find(|(s, a, _)| *s == scenario && *a == artifact)
                    .expect("every artifact has a golden row");
                row.2[i] = fnv1a(&text);
            }
        }
    }
    let render = |table: &[(&str, &str, [u64; 3])]| {
        table
            .iter()
            .map(|(s, a, d)| {
                format!(
                    "    (\"{s}\", \"{a}\", [{:#018x}, {:#018x}, {:#018x}]),\n",
                    d[0], d[1], d[2]
                )
            })
            .collect::<String>()
    };
    assert!(
        actual == GOLDEN,
        "harness output changed for seeds {SEEDS:?}.\nrecorded:\n{}actual:\n{}",
        render(&GOLDEN),
        render(&actual)
    );
}
