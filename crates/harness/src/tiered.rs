//! Multi-tier application-level scaling (paper §3.3, "Making
//! Application-Level Scaling Decisions").
//!
//! "The mechanisms described above involve making scaling decisions local to
//! an elastic class, and may not be optimal for applications using multiple
//! elastic classes (where the application contains tiers of elastic pools).
//! ElasticRMI also supports decision making at the level of the application
//! using the Decider class."
//!
//! This module reproduces the scenario that motivates the `Decider`: two
//! elastic pools (a front tier and a back tier) sharing one cluster that is
//! **too small for both peaks**. Local fine-grained controllers race for
//! slices first-come-first-served; an application-level decider splits the
//! scarce capacity proportionally to each tier's demand. The experiment
//! measures joint agility both ways.

use elasticrmi::{PoolSample, ScalingDecision, ScalingEngine};
use erm_apps::{demand_vote, AppKind, AppModel};
use erm_cluster::{ClusterConfig, ResourceManager, SliceGrant, TenantId};
use erm_metrics::{AgilityMeter, AgilityReport};
use erm_sim::{derive_seed, SimDuration, SimTime};
use erm_workloads::{PatternKind, Workload, WorkloadBuilder};

use crate::deployment::Deployment;

/// How the two tiers' sizes are decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierCoordination {
    /// Each tier runs its own fine-grained controller; slices go to whoever
    /// asks first.
    LocalControllers,
    /// One application-level `Decider` sees both tiers' demand and splits
    /// the scarce cluster proportionally (the paper's §3.3 mechanism).
    GlobalDecider,
}

impl std::fmt::Display for TierCoordination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierCoordination::LocalControllers => write!(f, "local-controllers"),
            TierCoordination::GlobalDecider => write!(f, "global-decider"),
        }
    }
}

/// Result of a tiered run: per-tier agility plus the joint mean.
#[derive(Debug, Clone)]
pub struct TieredResult {
    /// Coordination mode the run used.
    pub coordination: TierCoordination,
    /// Agility of the front tier (Marketcetera).
    pub front: AgilityReport,
    /// Agility of the back tier (DCS).
    pub back: AgilityReport,
}

impl TieredResult {
    /// Mean of the two tiers' mean agilities.
    pub fn joint_agility(&self) -> f64 {
        (self.front.mean_agility() + self.back.mean_agility()) / 2.0
    }
}

struct Tier {
    app: AppModel,
    workload: Workload,
    engine: ScalingEngine,
    /// The tier's account with the cluster, which books its grants.
    tenant: TenantId,
    ready: Vec<SliceGrant>,
    draining: erm_sim::EventQueue<SliceGrant>,
    meter: AgilityMeter,
}

impl Tier {
    /// Members serving plus slices still provisioning.
    fn committed(&self, cluster: &ResourceManager) -> u32 {
        self.ready.len() as u32 + cluster.pending_of(self.tenant, |_| true)
    }
}

/// Runs the two-tier scarcity experiment: Marketcetera (front) and DCS
/// (back) on one cluster sized at 70% of their combined peak need, with the
/// two workloads phase-shifted so their peaks collide only part of the time.
pub fn run_tiered(coordination: TierCoordination, seed: u64) -> TieredResult {
    const TICK: SimDuration = SimDuration::from_secs(10);
    const DRAIN_DELAY: SimDuration = SimDuration::from_secs(5);

    let mk_tier = |app_kind: AppKind, label: &str, max_pool: u32, tenant: TenantId| {
        let app = app_kind.model();
        let workload = WorkloadBuilder::new(PatternKind::Cyclic, app.point_a)
            .noise(0.04)
            .seed(derive_seed(seed, label))
            .build();
        let config = Deployment::ElasticRmi.pool_config(&app, max_pool);
        Tier {
            engine: ScalingEngine::new(config, SimTime::ZERO),
            meter: AgilityMeter::paper_default(),
            tenant,
            ready: Vec::new(),
            draining: erm_sim::EventQueue::new(),
            app,
            workload,
        }
    };
    let front_peak = AppKind::Marketcetera
        .model()
        .peak_objects(AppKind::Marketcetera.model().point_a * erm_workloads::paper::POINT_B_FACTOR);
    let back_peak = AppKind::Dcs
        .model()
        .peak_objects(AppKind::Dcs.model().point_a * erm_workloads::paper::POINT_B_FACTOR);
    // The scarce cluster: 70% of combined peak.
    let cluster_slices = ((front_peak + back_peak) as f64 * 0.7) as u32;
    let mut cluster = ResourceManager::new(ClusterConfig {
        nodes: cluster_slices,
        slices_per_node: 1,
        provisioning: Deployment::ElasticRmi.provisioning(),
        seed: derive_seed(seed, "tiered-cluster"),
        ..ClusterConfig::default()
    });

    let mut tiers = [
        mk_tier(
            AppKind::Marketcetera,
            "front",
            front_peak + 4,
            cluster.add_tenant(),
        ),
        mk_tier(AppKind::Dcs, "back", back_peak + 4, cluster.add_tenant()),
    ];

    // Initial provisioning: what each tier needs at t=0.
    let mut now = SimTime::ZERO;
    for tier in &tiers {
        let need = tier.app.req_min(tier.workload.rate_at(now), 0) as u32;
        let _ = cluster.request_slices(tier.tenant, need, now);
    }

    let end = SimTime::ZERO + tiers[0].workload.duration();
    while now <= end {
        // Each tier takes its grants and finishes its drains.
        for tier in tiers.iter_mut() {
            tier.ready.extend(cluster.take_ready(tier.tenant, now));
            for grant in tier.draining.pop_due(now).collect::<Vec<_>>() {
                let _ = cluster.release(grant.lease, now);
            }
        }

        // Demand per tier. The back tier's cycle is phase-shifted ~1/3.
        let rates = [
            tiers[0].workload.noisy_rate_at(now),
            tiers[1]
                .workload
                .noisy_rate_at(now + SimDuration::from_minutes(170)),
        ];

        // Desired sizes.
        let desired: Vec<u32> = match coordination {
            TierCoordination::LocalControllers => tiers
                .iter()
                .zip(rates)
                .map(|(tier, rate)| {
                    let committed = tier.committed(&cluster);
                    let vote = demand_vote(rate, tier.app.per_object_capacity, committed, 0.9);
                    (i64::from(committed) + i64::from(vote)).max(2) as u32
                })
                .collect(),
            TierCoordination::GlobalDecider => {
                // The Decider sees both demands and splits the whole cluster
                // proportionally when the sum exceeds capacity.
                let needs: Vec<f64> = tiers
                    .iter()
                    .zip(rates)
                    .map(|(tier, rate)| (rate / (tier.app.per_object_capacity * 0.9)).ceil())
                    .collect();
                let total: f64 = needs.iter().sum();
                let budget = cluster_slices as f64;
                if total <= budget {
                    needs.iter().map(|n| (*n as u32).max(2)).collect()
                } else {
                    // Proportional split of the scarce budget, rounding to
                    // nearest and never below the protocol floor.
                    let scale = budget / total;
                    needs
                        .iter()
                        .map(|n| ((n * scale).round() as u32).max(2))
                        .collect()
                }
            }
        };

        // Apply through each tier's real scaling engine (AppLevel semantics:
        // desired size in the sample).
        for (i, tier) in tiers.iter_mut().enumerate() {
            let committed = tier.committed(&cluster);
            let sample = PoolSample {
                pool_size: committed,
                avg_cpu: 0.0,
                avg_ram: 0.0,
                fine_votes: vec![
                    (i64::from(desired[i]) - i64::from(committed)).clamp(-4, 16) as i32;
                    tier.ready.len().max(1)
                ],
                desired_size: None,
                ..PoolSample::default()
            };
            match tier.engine.poll(now, &sample) {
                ScalingDecision::Grow(k) => {
                    let _ = cluster.request_slices(tier.tenant, k, now);
                }
                ScalingDecision::Shrink(k) => {
                    for _ in 0..k {
                        if tier.ready.len() as u32 <= tier.engine.config().min_pool_size() {
                            break;
                        }
                        if let Some(grant) = tier.ready.pop() {
                            tier.draining.schedule(now + DRAIN_DELAY, grant);
                        }
                    }
                }
                ScalingDecision::Hold => {}
            }
        }

        // Metrics.
        let minute = now.as_minutes_f64() as u64;
        for (tier, rate) in tiers.iter_mut().zip(rates) {
            let req = tier.app.req_min(rate, minute);
            tier.meter
                .record(now, req, f64::from(tier.ready.len() as u32));
        }

        now += TICK;
    }

    let [front, back] = tiers;
    TieredResult {
        coordination,
        front: front.meter.finish(),
        back: back.meter.finish(),
    }
}

/// Renders the tiered comparison for the `figures --ablation` output.
pub fn render_tiered(seed: u64) -> String {
    let mut out = String::new();
    for coordination in [
        TierCoordination::LocalControllers,
        TierCoordination::GlobalDecider,
    ] {
        let r = run_tiered(coordination, seed);
        out.push_str(&format!(
            "  {:<18} joint={:.2} front={:.2} (shortage {:.2}) back={:.2} (shortage {:.2})\n",
            r.coordination.to_string(),
            r.joint_agility(),
            r.front.mean_agility(),
            r.front.mean_shortage(),
            r.back.mean_agility(),
            r.back.mean_shortage(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiered_runs_are_deterministic() {
        let a = run_tiered(TierCoordination::GlobalDecider, 7);
        let b = run_tiered(TierCoordination::GlobalDecider, 7);
        assert_eq!(a.joint_agility(), b.joint_agility());
    }

    #[test]
    fn global_decider_reduces_shortage_under_scarcity() {
        // The point of §3.3: with a shared, scarce cluster, the tier that
        // asks last starves under local controllers; the Decider's
        // proportional split bounds both tiers' shortage.
        let local = run_tiered(TierCoordination::LocalControllers, 7);
        let global = run_tiered(TierCoordination::GlobalDecider, 7);
        let local_worst = local.front.mean_shortage().max(local.back.mean_shortage());
        let global_worst = global
            .front
            .mean_shortage()
            .max(global.back.mean_shortage());
        assert!(
            global_worst <= local_worst + 0.5,
            "decider must not starve a tier: worst shortage {global_worst:.2} vs {local_worst:.2}"
        );
    }

    #[test]
    fn both_tiers_get_capacity() {
        let r = run_tiered(TierCoordination::GlobalDecider, 7);
        assert!(r.front.sub_samples() > 400);
        assert!(r.front.mean_agility() < 30.0);
        assert!(r.back.mean_agility() < 30.0);
    }

    #[test]
    fn render_covers_both_modes() {
        let text = render_tiered(3);
        assert!(text.contains("local-controllers"));
        assert!(text.contains("global-decider"));
    }
}
