//! Helpers for the `figures` binary, which produces the figure data.
//!
//! The `bench` binary runs the open-loop knee grid behind
//! `BENCH_throughput.json`. See EXPERIMENTS.md for the paper-vs-measured
//! record.

use erm_harness::{run_experiment, ExperimentConfig};
use erm_sim::SimDuration;

/// Runs an experiment with the deployment's burst interval overridden
/// (ablation 1 in the `figures --ablation` output) and returns the mean
/// agility.
pub fn run_with_burst(config: &ExperimentConfig, burst: SimDuration) -> f64 {
    let mut config = config.clone();
    config.burst_override = Some(burst);
    run_experiment(&config).agility.mean_agility()
}

#[cfg(test)]
mod tests {
    use super::*;
    use erm_apps::AppKind;
    use erm_harness::Deployment;
    use erm_workloads::PatternKind;

    #[test]
    fn longer_bursts_hurt_agility() {
        let config = ExperimentConfig::paper(
            AppKind::Marketcetera,
            PatternKind::Abrupt,
            Deployment::ElasticRmi,
        );
        let fast = run_with_burst(&config, SimDuration::from_secs(60));
        let slow = run_with_burst(&config, SimDuration::from_minutes(10));
        assert!(
            slow > fast,
            "10-minute bursts ({slow:.2}) should be less agile than 60s ({fast:.2})"
        );
    }
}
