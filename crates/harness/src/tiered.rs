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
//! **too small for both peaks**. Each tier is a `FluidPool`, the
//! production pool runtime with fluid members. Local fine-grained
//! controllers race for slices first-come-first-served; under
//! [`ScalingPolicy::AppLevel`], a real [`Decider`] per tier splits the
//! scarce capacity proportionally to both tiers' demand. The experiment
//! measures joint agility both ways.

use std::sync::{Arc, Mutex};

use elasticrmi::{Decider, PoolConfig, PoolSample, ScalingPolicy};
use erm_apps::{demand_vote, AppKind, AppModel};
use erm_cluster::{ClusterConfig, ClusterHandle, ResourceManager};
use erm_metrics::{AgilityMeter, AgilityReport, TraceHandle};
use erm_sim::{derive_seed, Clock, SimDuration, SimTime, VirtualClock};
use erm_transport::InProcNetwork;
use erm_workloads::{PatternKind, Workload, WorkloadBuilder};

use crate::deployment::Deployment;
use crate::fluid::{load, FluidPool};

/// How the two tiers' sizes are decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierCoordination {
    /// Each tier runs its own fine-grained controller; slices go to whoever
    /// asks first.
    LocalControllers,
    /// Each tier's application-level `Decider` sees both tiers' demand and
    /// gives its tier a proportional share of the scarce cluster (the
    /// paper's §3.3 mechanism).
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
    /// How far ahead of the run's clock this tier's workload runs.
    shift: SimDuration,
    pool: FluidPool,
    meter: AgilityMeter,
}

/// The §3.3 `Decider` of tier `tier`: sees both tiers' needs and, when
/// their sum exceeds the cluster, gives each its proportional share of it,
/// rounded to nearest and never below the protocol floor of 2.
fn proportional_share(needs: Arc<Mutex<[f64; 2]>>, tier: usize, budget: f64) -> impl Decider {
    move |_: &PoolSample| {
        let needs = *needs.lock().expect("needs lock");
        let total: f64 = needs.iter().sum();
        let scale = if total <= budget { 1.0 } else { budget / total };
        ((needs[tier] * scale).round() as u32).max(2)
    }
}

/// Runs the two-tier scarcity experiment: Marketcetera (front) and DCS
/// (back) on one cluster sized at 70% of their combined peak need, with the
/// two workloads phase-shifted so their peaks collide only part of the time.
pub fn run_tiered(coordination: TierCoordination, seed: u64) -> TieredResult {
    const TICK: SimDuration = SimDuration::from_secs(10);
    // The back tier's cycle is phase-shifted ~1/3.
    const TIERS: [(AppKind, &str, u64); 2] = [
        (AppKind::Marketcetera, "front", 0),
        (AppKind::Dcs, "back", 170),
    ];

    let peak =
        |app: &AppModel| app.peak_objects(app.point_a * erm_workloads::paper::POINT_B_FACTOR);
    let peaks = TIERS.map(|(kind, ..)| peak(&kind.model()));
    // The scarce cluster: 70% of combined peak.
    let cluster_slices = ((peaks[0] + peaks[1]) as f64 * 0.7) as u32;
    let cluster = ClusterHandle::new(ResourceManager::new(ClusterConfig {
        nodes: cluster_slices,
        slices_per_node: 1,
        provisioning: Deployment::ElasticRmi.provisioning(),
        seed: derive_seed(seed, "tiered-cluster"),
        ..ClusterConfig::default()
    }));
    let (clock, net) = (Arc::new(VirtualClock::new()), InProcNetwork::new());
    let trace = TraceHandle::disabled();
    // Both tiers' needs at the last tick, what the global Deciders see.
    let needs = Arc::new(Mutex::new([0.0; 2]));

    // Each tier starts at, and never shrinks below, what it needs at t = 0.
    let mut tiers = [0, 1].map(|i| {
        let (kind, label, shift) = TIERS[i];
        let app = kind.model();
        let workload = WorkloadBuilder::new(PatternKind::Cyclic, app.point_a)
            .noise(0.04)
            .seed(derive_seed(seed, label))
            .build();
        let base = Deployment::ElasticRmi.pool_config(&app, peaks[i] + 4);
        let start = app.req_min(workload.rate_at(SimTime::ZERO), 0) as u32;
        let decider = (coordination == TierCoordination::GlobalDecider).then(|| {
            let share = proportional_share(Arc::clone(&needs), i, f64::from(cluster_slices));
            Box::new(share) as Box<dyn Decider>
        });
        let config = PoolConfig::builder(app.name)
            .min_pool_size(start.max(base.min_pool_size()))
            .max_pool_size(base.max_pool_size())
            .policy(
                decider
                    .as_ref()
                    .map_or(base.policy(), |_| ScalingPolicy::AppLevel),
            )
            .burst_interval(base.burst_interval())
            .build()
            .expect("valid tier config");
        Tier {
            pool: FluidPool::start(config, &cluster, &clock, &net, &trace, decider),
            app,
            workload,
            shift: SimDuration::from_minutes(shift),
            meter: AgilityMeter::paper_default(),
        }
    });

    // Local controllers vote their tier's demand against its rotation; the
    // global Deciders need no vote.
    let answer = |tier: &mut Tier, at: SimTime, rate: f64| {
        let vote = (coordination == TierCoordination::LocalControllers)
            .then(|| demand_vote(rate, tier.app.per_object_capacity, tier.pool.size(), 0.9));
        tier.pool.answer(at, |uid| load(uid, 0.0, vote));
    };

    let end = SimTime::ZERO + tiers[0].workload.duration();
    let mut now = SimTime::ZERO;
    while now <= end {
        for tier in tiers.iter_mut() {
            tier.pool.step(now);
        }
        let rates = tiers
            .each_ref()
            .map(|tier| tier.workload.noisy_rate_at(now + tier.shift));
        *needs.lock().expect("needs lock") =
            [0, 1].map(|i| (rates[i] / (tiers[i].app.per_object_capacity * 0.9)).ceil());
        let minute = now.as_minutes_f64() as u64;
        for (tier, rate) in tiers.iter_mut().zip(rates) {
            answer(tier, now, rate);
            let req = tier.app.req_min(rate, minute);
            tier.meter.record(now, req, f64::from(tier.pool.size()));
        }
        // Grants that become ready before the next tick join at their
        // ready instant.
        let next = now + TICK;
        while let Some(at) = cluster.next_ready().filter(|&at| at < next) {
            for (tier, rate) in tiers.iter_mut().zip(rates) {
                tier.pool.step(at);
                answer(tier, at, rate);
            }
        }
        now = next;
    }
    for tier in tiers.iter_mut() {
        tier.pool.shut_down(clock.now());
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

    /// FNV-1a digest of `render_tiered(3)`. It did not move when the tiers
    /// left their private control loop for two production pool runtimes,
    /// the global mode under a real `Decider`.
    const RENDER_DIGEST: u64 = 0xe28e_7c7a_bac4_eab7;

    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn render_covers_both_modes() {
        let text = render_tiered(3);
        assert!(text.contains("local-controllers"));
        assert!(text.contains("global-decider"));
        assert_eq!(
            fnv1a(&text),
            RENDER_DIGEST,
            "the seed-3 rows moved to {:#018x}:\n{text}",
            fnv1a(&text)
        );
    }
}
