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
//! in the harness, not in this table.
//!
//! The `churn`, `elastic-overload` and `warmpool` rows moved twice: when
//! those scenarios stopped modelling the pool and started driving the
//! production runtime (`SimRig::drive_pool`), and when they stopped
//! modelling the client and started driving the production `Stub`
//! (`SimPool::stub`): its routing, at-most-once pins, backoff and
//! failure-triggered refreshes, with the reply-drop fault in the rig's
//! network. The digests of the modelled client they replaced were:
//!   churn            report [0xf4b1a38fab6fccaf, 0x9e84b1d593285f58, 0x7db6d0a50cdce9d9]
//!   churn            csv    [0x0e3cc6e68016e185, 0x2dc04bea3faded13, 0x5644ae6ecec11d37]
//!   elastic-overload report [0x2c79bc94d7024d13, 0xca463c84f3bcdb3c, 0x2a16b3d1d9c92460]
//!   elastic-overload csv    [0x2f78b5c750e1dc56, 0x93155fe758a1e3fc, 0x3b393a4d47ed2aae]
//!   elastic-overload trace  [0x52f5c968c71c960d, 0xb784491ee8ba59fd, 0x00c18dfc86698f3d]
//!   warmpool         report [0xc4a9cec35a6205c5, 0x82a31e8676007226, 0x718c01568432a824]
//!   warmpool         csv    [0xfd55adaed671b156, 0xc6fb916096b73a4b, 0x7036706198efea4d]
//!   warmpool-quick   report [0x3843dc230e24085c, 0xd468e3953dd8b0bf, 0x526cdac0b96a3ecd]
//!   warmpool-quick   csv    [0x0385e12f86d04071, 0xd967d1310bbec561, 0x69343163ea2c8b7e]
//!
//! The `overload` and `sharded` rows moved once, when those two scenarios
//! stopped hosting hand-built members and started running the production
//! pool runtime (`SimRig::start_pool`): the overload member as a pinned
//! one-member pool whose load reports the sentinel polls, and the sharded
//! enforcement as a sharded pool grown by its own decider, whose broadcast
//! and shard handoff replace the scripted ones (a lock's key range is now
//! `hash_bytes(name)`, the runtime's convention). The sharded report also
//! gained the dispatch-time refusal count. The digests of the hand-built
//! members were:
//!   overload         report [0x9972dabb17173315, 0x9f972f72a824bf6b, 0xeb449b313448e88c]
//!   sharded          report [0xbff7172a527e5b0e, 0x8bd5578d42df9536, 0xa3d20cfa321ef854]
//!   sharded          csv    [0x31a2fcb11299251e, 0x27eda42168858506, 0x4daef017caa53547]
//!   sharded-quick    report [0x774f4edfb5b3df8f, 0xb8c90424e2a24725, 0x400d65660983b6f2]
//!   sharded-quick    csv    [0x21b3cd3112a58b63, 0xcc36832dbed4bd6c, 0x3e5124e329fc4a11]
//!
//! The `churn` csv row moved once more, when the skeleton started publishing
//! its reply-cache metrics at the end of every public entry point. The
//! `rmi.dedup.cache.size` gauge used to miss a TTL sweep that ran on an
//! at-least-once arrival until the next at-most-once call; it now reads the
//! live entry count at every snapshot (9, 12 and 11 gauge rows, each one or
//! two lower; no other row changed). The digests before were:
//!   churn            csv    [0xcf7debbecff7b827, 0x45f72b3e71800289, 0x76a523ceea7137ca]
//!
//! The `elastic-overload`, `warmpool` and `warmpool-quick` rows moved when an
//! explicit refusal (`Overloaded`, or a `Redirected` naming a member outside
//! the stub's view) started asking for a membership view, once per
//! invocation and without waiting for it, so the client learns of a grown
//! member while it is being refused instead of only after a failure. No
//! other row moved. Per seed 7 / 99 / 2026, before -> after:
//!
//! | what | before | after |
//! |---|---|---|
//! | warmpool: executions by the first grown member after the first grow (warm, cold) | 62/54, 66/61, 49/42 of ~1.47k | 507/431, 501/423, 494/419 of ~2.05k |
//! | warmpool: executions by the member the second grow added (warm, cold) | 0 | 403/385, 390/388, 394/382 |
//! | warmpool: warm first-serve lag | 18–20 ms | 18–20 ms |
//! | warmpool: cold first-serve lag | 842–852 ms | 722–730 ms |
//! | warmpool-quick: warm / cold first-serve lag | 226 / 853, 224 / 845, 228 / 858 ms | 88 / 736, 52 / 738, 63 / 728 ms |
//! | elastic-overload: remote errors | 699, 677, 681 | 110, 97, 109 |
//!
//! The digests before were:
//!   elastic-overload report [0xcc23562e1f5ad1e6, 0x65091b9a8b5825ae, 0x9754c7161951fc75]
//!   elastic-overload csv    [0x40df709b10bfe392, 0xde13a00f36376a14, 0xb8b8d5f9237b0dc7]
//!   elastic-overload trace  [0x1194589f5a236c80, 0x68b5f40707bbd188, 0x711ba9489cef32cd]
//!   warmpool         report [0x0d6dff2cd6c4688e, 0xd1c2ffe000bfcf31, 0xd5531e59a7f07db6]
//!   warmpool         csv    [0x92db59d34f01f6d7, 0xc6a26ffbede77ed4, 0x51ed1952c26df7c6]
//!   warmpool-quick   report [0x57d85ad3568aba68, 0x3d0536237b8709d7, 0xda1557b4719a8b50]
//!   warmpool-quick   csv    [0xa5d56f883b4caf04, 0x645f80f3e08299ba, 0xed660fa5efb95f83]
//!
//! The `sharded` and `sharded-quick` rows moved when the enforcement run
//! stopped driving a raw request injector that misrouted every fifth call on
//! purpose and followed `WrongShard` itself, and started driving the
//! production `Stub` (`SimPool::stub`). Its calls go to their key's owner
//! until the grow; a tail begun right after the grow routes by the stub's
//! stale two-member ring, so the keys the grow moved are refused at ingest
//! and the stub's own refresh and `WrongShard` follow complete them. The
//! `overload` row did not move: that scenario now drives the stub and its
//! AIMD limiter too, with the same outcome. Only the redirect count (and
//! the equal refusal count) changed; every invocation still executes once,
//! and the handoff and scaling rows are unchanged. Per seed 7 / 99 / 2026:
//!
//! | what | before | after |
//! |---|---|---|
//! | sharded: redirects (= refusal events) | 169, 181, 164 | 112, 125, 106 |
//! | sharded: refusals at dispatch | 49, 61, 44 | 49, 61, 44 |
//! | sharded-quick: redirects (= refusal events) | 41, 32, 35 | 35, 23, 20 |
//! | sharded-quick: refusals at dispatch | 17, 8, 11 | 17, 8, 11 |
//!
//! The digests before were:
//!   sharded          report [0xee50202841b45952, 0x6255c3ee82291d74, 0x816d408f85d96b0d]
//!   sharded          csv    [0x234f99ae67bdce75, 0x5487375826bdc3ab, 0x300788d05e8a91b7]
//!   sharded-quick    report [0xb7822dd7b8429cfa, 0xb2f5bb9c734f849e, 0x8f3e5ae4e88c37d5]
//!   sharded-quick    csv    [0xd6623530e500a3f5, 0x596895441dfc9aa2, 0x1fe409d89c2b97e5]

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
        [0x94a791947be54cd8, 0x95bf74e00581e552, 0x1c8a7f3ba64d809f],
    ),
    (
        "churn",
        "csv",
        [0x983f23fed47773b5, 0x387da5cc7abeec9f, 0xf2f32f1369c7eab4],
    ),
    (
        "overload",
        "report",
        [0x27d99e6c5119311a, 0x342af2993119435e, 0x9390d9fde0a387d2],
    ),
    (
        "elastic-overload",
        "report",
        [0x0c7303a9f4c1dd8f, 0x8443bd75db0ee37a, 0x49649287ce926873],
    ),
    (
        "elastic-overload",
        "csv",
        [0x3906c9245a5ff594, 0xb1c136c59f5a21e9, 0x84bbd3cdf14a9f53],
    ),
    (
        "elastic-overload",
        "trace",
        [0x2869b7eff0db7212, 0x9eaa530d1db4a385, 0xab7411806faf010b],
    ),
    (
        "warmpool",
        "report",
        [0x59fe6f6458c8cbeb, 0x708a863148ab4a54, 0x0bbde96beaf98d04],
    ),
    (
        "warmpool",
        "csv",
        [0x2d417d0ecc0fb43d, 0x5621fd207f09479a, 0x2dabb4c2f8ee378c],
    ),
    (
        "warmpool-quick",
        "report",
        [0xeaa08b214cf90991, 0xa0ae3082f7d24e5b, 0x314e5e737bc27681],
    ),
    (
        "warmpool-quick",
        "csv",
        [0xc79c70fb3fe8eb45, 0xbc147d8f74700502, 0x929e90328712bf14],
    ),
    (
        "sharded",
        "report",
        [0x5fd513b388df3556, 0x083948a05750b104, 0xb1e2f0d227383b35],
    ),
    (
        "sharded",
        "csv",
        [0xf7ae3e86ff96b8c5, 0x6097a8fdad884d3b, 0x8b3de0816fa0640b],
    ),
    (
        "sharded-quick",
        "report",
        [0x05e091db1ca0db42, 0x04642efaa94882ea, 0xa2fbc9f7d2bd5ba9],
    ),
    (
        "sharded-quick",
        "csv",
        [0xaa191587012225bd, 0x164ddfc50f6e5986, 0xda32811c848f63e1],
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
