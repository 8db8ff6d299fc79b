//! Smoke tests of the evaluation pipeline from the outside: every figure
//! renders, the headline comparisons hold, and the reproduction shape
//! documented in EXPERIMENTS.md is stable.
//!
//! The §5.5 table is pinned exactly: an FNV-1a digest of
//! `format_summary(&summary_table(3))`, as `tests/harness_golden.rs` pins
//! the virtual-clock scenarios, so a change to the pool runtime or the
//! cluster that moves a Fig. 7 cell fails here.
//!
//! The digest moved once, when the figures stopped running a private fluid
//! control loop (its own grant loop, 5 s drain queue and hand-driven
//! `ScalingEngine`) and started running the production pool runtime with
//! fluid members (`FluidPool`, `crates/harness/src/fluid.rs`). The runtime starts a
//! pool at its `min_pool_size`, so an elastic pool's minimum is now the
//! workload's t = 0 need: the start size the old loop used, and now also a
//! floor the slow CloudWatch pool no longer shrinks under in the cyclic
//! troughs (its shortage falls, its excess rises a little). The digest
//! before was `0xb21e_fafc_a161_1a94`. The cells whose mean agility or
//! shortage moved at seed 3 (mean agility / shortage; the other rows
//! changed at most their vs-ERMI ratio or `prov(s)`, by ≤ 0.5 s):
//!
//! | cell | before | after |
//! |---|---|---|
//! | Marketcetera abrupt ElasticRMI | 1.04 / 0.04 | 1.02 / 0.04 |
//! | Marketcetera cyclic ElasticRMI | 1.71 / 0.02 | 1.70 / 0.01 |
//! | Marketcetera cyclic CloudWatch | 8.02 / 1.48 | 7.85 / 1.29 |
//! | Hedwig abrupt ElasticRMI | 1.34 / 0.07 | 1.35 / 0.06 |
//! | Hedwig abrupt CloudWatch | 6.24 / 1.16 | 6.25 / 1.17 |
//! | Hedwig cyclic ElasticRMI | 2.22 / 0.09 | 2.21 / 0.08 |
//! | Hedwig cyclic CloudWatch | 9.59 / 2.43 | 9.43 / 1.95 |
//! | Paxos abrupt ElasticRMI | 1.29 / 0.04 | 1.27 / 0.04 |
//! | Paxos cyclic ElasticRMI | 2.06 / 0.03 | 2.07 / 0.02 |
//! | Paxos cyclic CloudWatch | 9.41 / 2.35 | 9.19 / 1.86 |
//! | DCS cyclic ElasticRMI | 2.11 / 0.02 | 2.08 / 0.02 |
//! | DCS cyclic CloudWatch | 9.59 / 2.26 | 9.41 / 1.86 |

mod common;

use erm_apps::AppKind;
use erm_harness::{run_experiment, Deployment, ExperimentConfig, FigureId};
use erm_workloads::PatternKind;

#[test]
fn every_figure_renders_nonempty() {
    for (name, figure) in FigureId::all() {
        let text = figure.render(7);
        assert!(
            text.lines().count() > 5,
            "figure {name} rendered almost nothing:\n{text}"
        );
    }
}

#[test]
fn figure_rendering_is_deterministic() {
    let a = FigureId::parse("7g").unwrap().render(123);
    let b = FigureId::parse("7g").unwrap().render(123);
    assert_eq!(a, b);
    let c = FigureId::parse("7g").unwrap().render(124);
    assert_ne!(a, c, "different seeds should perturb the run");
}

#[test]
fn paper_shape_holds_across_seeds() {
    // The qualitative result must not hinge on one lucky seed.
    for seed in [1u64, 99, 2026] {
        let mut ermi_cfg =
            ExperimentConfig::paper(AppKind::Hedwig, PatternKind::Abrupt, Deployment::ElasticRmi);
        ermi_cfg.seed = seed;
        let mut cw_cfg = ermi_cfg.clone();
        cw_cfg.deployment = Deployment::CloudWatch;
        let ermi = run_experiment(&ermi_cfg).agility.mean_agility();
        let cw = run_experiment(&cw_cfg).agility.mean_agility();
        assert!(
            cw / ermi > 2.0,
            "seed {seed}: CloudWatch/ElasticRMI ratio {:.2} collapsed",
            cw / ermi
        );
    }
}

#[test]
fn elastic_rmi_average_agility_is_near_paper_value() {
    // Paper §5.5: "the average agility of ElasticRMI for abruptly changing
    // workload is 1.37" (Marketcetera). Same order of magnitude expected.
    let r = run_experiment(&ExperimentConfig::paper(
        AppKind::Marketcetera,
        PatternKind::Abrupt,
        Deployment::ElasticRmi,
    ));
    let mean = r.agility.mean_agility();
    assert!((0.3..=3.0).contains(&mean), "mean agility {mean:.2}");
}

#[test]
fn overprovisioning_mean_matches_paper_band() {
    // Paper §5.5: overprovisioning averages 24.1 (abrupt) / 17.2 (cyclic)
    // for Marketcetera. Our substrate reproduces the order of magnitude.
    let abrupt = run_experiment(&ExperimentConfig::paper(
        AppKind::Marketcetera,
        PatternKind::Abrupt,
        Deployment::Overprovision,
    ));
    let cyclic = run_experiment(&ExperimentConfig::paper(
        AppKind::Marketcetera,
        PatternKind::Cyclic,
        Deployment::Overprovision,
    ));
    assert!(abrupt.agility.mean_agility() > 8.0);
    assert!(cyclic.agility.mean_agility() > 8.0);
    // The abrupt pattern wastes more than the cyclic one, as in the paper
    // (24.1 vs 17.2).
    assert!(abrupt.agility.mean_agility() > cyclic.agility.mean_agility());
}

#[test]
fn cyclic_overprovisioning_oscillates() {
    // §5.5: the overprovisioning agility under the cyclic workload follows
    // the workload's three cycles (excess falls as load rises).
    let r = run_experiment(&ExperimentConfig::paper(
        AppKind::Hedwig,
        PatternKind::Cyclic,
        Deployment::Overprovision,
    ));
    let series = r.agility.series();
    let values: Vec<f64> = series.iter().map(|(_, v)| v).collect();
    let peaks = values
        .windows(3)
        .filter(|w| w[1] >= w[0] && w[1] >= w[2] && w[1] > 0.8 * series.max().unwrap())
        .count();
    assert!(peaks >= 2, "expected repeating excess peaks, got {peaks}");
}

#[test]
fn provisioning_latency_grows_with_workload() {
    // Fig. 8 text: "as the workload increases, provisioning interval also
    // increases". Compare early-run vs peak-run latencies.
    let r = run_experiment(&ExperimentConfig::paper(
        AppKind::Dcs,
        PatternKind::Abrupt,
        Deployment::ElasticRmi,
    ));
    let series = r.provisioning.series();
    assert!(series.len() >= 4, "need several provisioning events");
    let mid = erm_sim::SimTime::from_minutes(150);
    let early: Vec<f64> = series
        .iter()
        .filter(|&(t, _)| t < mid)
        .map(|(_, v)| v)
        .collect();
    let late: Vec<f64> = series
        .iter()
        .filter(|&(t, _)| t >= mid)
        .map(|(_, v)| v)
        .collect();
    if !early.is_empty() && !late.is_empty() {
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            avg(&late) > avg(&early) * 0.8,
            "late provisioning ({:.1}s) should not be faster than early ({:.1}s)",
            avg(&late),
            avg(&early)
        );
    }
}

/// FNV-1a digest of the rendered §5.5 table at seed 3.
const GRID_DIGEST: u64 = 0x3193_c1e3_4a39_48b4;

#[test]
fn summary_table_runs_the_full_grid() {
    let rows = erm_harness::summary_table(3);
    assert_eq!(rows.len(), 32);
    // Every run ends through the runtime's own shutdown, which gives every
    // slice back.
    for r in &rows {
        assert_eq!(
            r.leaked_slices, 0,
            "{}/{}/{}",
            r.app, r.pattern, r.deployment
        );
    }
    let text = erm_harness::format_summary(&rows);
    assert_eq!(
        common::fnv1a(&text),
        GRID_DIGEST,
        "the seed-3 table moved to {:#018x}:\n{text}",
        common::fnv1a(&text)
    );
    // Every (app, pattern) block has the oracle worst on average.
    for app in AppKind::ALL {
        for pattern in [PatternKind::Abrupt, PatternKind::Cyclic] {
            let block: Vec<_> = rows
                .iter()
                .filter(|r| r.app == app && r.pattern == pattern)
                .collect();
            let worst = block
                .iter()
                .max_by(|a, b| a.mean_agility.total_cmp(&b.mean_agility))
                .unwrap();
            assert_eq!(
                worst.deployment,
                Deployment::Overprovision,
                "{app}/{pattern}"
            );
        }
    }
}

#[test]
fn master_outage_costs_agility() {
    // Fault injection: a Mesos-master outage across the abrupt ramp leaves
    // the pool unable to add capacity (§4.4), so shortage accumulates; after
    // recovery the controller catches up.
    let mut base = ExperimentConfig::paper(
        AppKind::Marketcetera,
        PatternKind::Abrupt,
        Deployment::ElasticRmi,
    );
    base.seed = 7;
    let healthy = run_experiment(&base);
    let mut faulted = base.clone();
    faulted.master_outage = Some((
        erm_sim::SimTime::from_minutes(140),
        erm_sim::SimTime::from_minutes(200),
    ));
    let degraded = run_experiment(&faulted);
    // Releases the outage deferred were freed once the master recovered.
    assert_eq!((healthy.leaked_slices, degraded.leaked_slices), (0, 0));
    assert!(
        degraded.agility.mean_shortage() > healthy.agility.mean_shortage() + 0.3,
        "outage should add shortage: {:.2} vs {:.2}",
        degraded.agility.mean_shortage(),
        healthy.agility.mean_shortage()
    );
    // After recovery the pool converges again: the last windows are cheap.
    let tail = degraded
        .agility
        .series()
        .samples()
        .iter()
        .rev()
        .take(5)
        .map(|&(_, v)| v)
        .sum::<f64>()
        / 5.0;
    assert!(
        tail < 3.0,
        "post-recovery agility should settle, tail {tail:.2}"
    );
}

#[test]
fn scalability_curves_reflect_shared_state() {
    // §4.1's caveat quantified: the lock-ordered DCS scales worse than the
    // lock-free order router.
    let sizes = [1, 8, 32];
    let dcs = erm_harness::scalability_curve(&AppKind::Dcs.model(), &sizes);
    let mkt = erm_harness::scalability_curve(&AppKind::Marketcetera.model(), &sizes);
    assert!(dcs[2].efficiency < mkt[2].efficiency);
    assert!(mkt[2].efficiency > 0.85);
}
