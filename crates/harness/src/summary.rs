//! The §5.5 summary statistics ("T1"): average agility per deployment and
//! the ratios the paper quotes in prose.

use erm_apps::AppKind;
use erm_workloads::PatternKind;
use serde::Serialize;

use crate::deployment::Deployment;
use crate::experiment::{run_experiment, ExperimentConfig};

/// One row of the summary: an (app, pattern, deployment) combination.
#[derive(Debug, Clone, Serialize)]
pub struct SummaryRow {
    /// Application.
    pub app: AppKind,
    /// Workload pattern.
    pub pattern: PatternKind,
    /// Deployment.
    pub deployment: Deployment,
    /// Run-wide mean SPEC agility.
    pub mean_agility: f64,
    /// Excess component of the mean.
    pub mean_excess: f64,
    /// Shortage component of the mean.
    pub mean_shortage: f64,
    /// Fraction of plotted points at exactly zero.
    pub zero_fraction: f64,
    /// `mean_agility / mean_agility(ElasticRMI)` for the same app+pattern.
    pub ratio_vs_elastic_rmi: f64,
    /// Fraction of time under-provisioned (QoS at risk; §5.1's validity
    /// caveat).
    pub shortage_fraction: f64,
    /// Mean provisioning latency in seconds (0 when no event occurred).
    pub mean_provisioning_s: f64,
    /// Slices the cluster still counted after the pool shut down
    /// ([`crate::ExperimentResult::leaked_slices`]).
    pub leaked_slices: usize,
}

/// Runs the full evaluation grid (4 apps × 2 patterns × 4 deployments) and
/// returns the 32 rows, ordered by app, pattern, deployment.
pub fn summary_table(seed: u64) -> Vec<SummaryRow> {
    let mut rows = Vec::with_capacity(32);
    for app in AppKind::ALL {
        for pattern in [PatternKind::Abrupt, PatternKind::Cyclic] {
            let mut results = Vec::new();
            for deployment in Deployment::ALL {
                let mut config = ExperimentConfig::paper(app, pattern, deployment);
                config.seed = seed;
                results.push(run_experiment(&config));
            }
            let ermi_agility = results[0].agility.mean_agility().max(1e-9);
            for r in &results {
                rows.push(SummaryRow {
                    app,
                    pattern,
                    deployment: r.config.deployment,
                    mean_agility: r.agility.mean_agility(),
                    mean_excess: r.agility.mean_excess(),
                    mean_shortage: r.agility.mean_shortage(),
                    zero_fraction: r.agility.zero_fraction(),
                    ratio_vs_elastic_rmi: r.agility.mean_agility() / ermi_agility,
                    shortage_fraction: r.agility.shortage_fraction(),
                    mean_provisioning_s: r
                        .provisioning
                        .mean_latency()
                        .map_or(0.0, |d| d.as_secs_f64()),
                    leaked_slices: r.leaked_slices,
                });
            }
        }
    }
    rows
}

/// Formats the rows as an aligned text table (the artifact EXPERIMENTS.md
/// records against the paper's prose numbers).
pub fn format_summary(rows: &[SummaryRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<13} {:<7} {:<18} {:>8} {:>8} {:>9} {:>6} {:>6} {:>9} {:>8}\n",
        "app",
        "pattern",
        "deployment",
        "agility",
        "excess",
        "shortage",
        "zero%",
        "qos@r%",
        "vs-ERMI",
        "prov(s)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<13} {:<7} {:<18} {:>8.2} {:>8.2} {:>9.2} {:>5.0}% {:>5.0}% {:>8.1}x {:>8.1}\n",
            r.app.to_string(),
            r.pattern.to_string(),
            r.deployment.to_string(),
            r.mean_agility,
            r.mean_excess,
            r.mean_shortage,
            r.zero_fraction * 100.0,
            r.shortage_fraction * 100.0,
            r.ratio_vs_elastic_rmi,
            r.mean_provisioning_s,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_thirty_two_rows() {
        let rows = summary_table(7);
        assert_eq!(rows.len(), 32);
    }

    #[test]
    fn elastic_rmi_rows_have_unit_ratio() {
        let rows = summary_table(7);
        for r in rows
            .iter()
            .filter(|r| r.deployment == Deployment::ElasticRmi)
        {
            assert!((r.ratio_vs_elastic_rmi - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn headline_ratios_hold_for_every_app() {
        // The paper's qualitative claims: CloudWatch and CPUMem are several
        // times worse than ElasticRMI; overprovisioning is worst on average.
        let rows = summary_table(7);
        for app in AppKind::ALL {
            for pattern in [PatternKind::Abrupt, PatternKind::Cyclic] {
                let get = |d: Deployment| {
                    rows.iter()
                        .find(|r| r.app == app && r.pattern == pattern && r.deployment == d)
                        .unwrap()
                        .mean_agility
                };
                let ermi = get(Deployment::ElasticRmi);
                let cw = get(Deployment::CloudWatch);
                let over = get(Deployment::Overprovision);
                assert!(
                    cw > 1.5 * ermi,
                    "{app}/{pattern}: cw {cw:.2} ermi {ermi:.2}"
                );
                assert!(over > cw, "{app}/{pattern}: over {over:.2} cw {cw:.2}");
            }
        }
    }

    #[test]
    fn elastic_rmi_keeps_qos_risk_low() {
        // The agility metric "will not be valid in a context where the QoS
        // is not met" (§5.1): ElasticRMI must be under-provisioned only a
        // small fraction of the time for the comparison to stand.
        let rows = summary_table(7);
        for r in rows
            .iter()
            .filter(|r| r.deployment == Deployment::ElasticRmi)
        {
            assert!(
                r.shortage_fraction < 0.25,
                "{}/{}: QoS at risk {:.0}% of the time",
                r.app,
                r.pattern,
                r.shortage_fraction * 100.0
            );
        }
    }

    #[test]
    fn format_is_one_line_per_row_plus_header() {
        let rows = summary_table(7);
        let text = format_summary(&rows);
        assert_eq!(text.lines().count(), 33);
        assert!(text.contains("ElasticRMI"));
    }
}
