//! The agility experiment runner (paper §5.5–§5.6).
//!
//! Runs one (application, workload pattern, deployment) combination in
//! virtual time: the 450–500 minute experiments of Fig. 7/Fig. 8 complete
//! in well under a second and are bit-for-bit reproducible from the seed.
//!
//! Fidelity note: the *control loop under test is the production pool
//! runtime* — a `FluidPool` (`fluid.rs`) runs [`elasticrmi::PoolRuntime`]
//! with the same `PoolConfig`s the threaded runtime uses, as a tenant of
//! the real [`erm_cluster::ResourceManager`] with per-deployment
//! provisioning latency. Its poll, scaling decision, grants, joins and drain handshake
//! are the runtime's own, and each member votes with
//! [`erm_apps::demand_vote`], the function the applications'
//! `change_pool_size` overrides call. Only the *members* are fluid:
//! instead of executing 50,000 requests per second, each reports
//! utilization computed as offered rate over capacity.

use std::sync::Arc;

use elasticrmi::PoolConfig;
use erm_apps::{demand_vote, AppKind};
use erm_cluster::{ClusterConfig, ClusterHandle, ResourceManager};
use erm_metrics::{
    AgilityMeter, AgilityReport, MetricsHandle, ProvisioningRecorder, ProvisioningReport,
    TraceEvent, TraceHandle, TraceRecord,
};
use erm_sim::{derive_seed, Clock, SimDuration, SimTime, TimeSeries, VirtualClock};
use erm_transport::InProcNetwork;
use erm_workloads::{PatternKind, Workload, WorkloadBuilder};
use serde::{Deserialize, Serialize};

use crate::deployment::Deployment;
use crate::fluid::{load, FluidPool};

/// Parameters of one experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Which of the four applications.
    pub app: AppKind,
    /// Abrupt (Fig. 7a) or cyclic (Fig. 7b) workload.
    pub pattern: PatternKind,
    /// Which control stack.
    pub deployment: Deployment,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// Simulation step (default 10 s).
    pub tick: SimDuration,
    /// Plot sampling window (default 10 min, as in Fig. 7).
    pub sample_window: SimDuration,
    /// Overrides the deployment's burst interval (ablation studies only;
    /// `None` = the deployment default).
    pub burst_override: Option<SimDuration>,
    /// Fault injection: a cluster-master outage over `[start, end)`
    /// (paper §4.4: "mesos-related failures affect the addition/removal of
    /// new objects until Mesos recovers").
    pub master_outage: Option<(SimTime, SimTime)>,
    /// Keep the run's control-plane [`TraceRecord`]s (the rule that fired,
    /// scale decisions, offers, member joins and drains) in
    /// [`ExperimentResult::trace`]. Off by default: the 450-minute sweeps
    /// emit thousands of events per run.
    pub trace: bool,
}

impl ExperimentConfig {
    /// The paper's parameters for the given combination.
    pub fn paper(app: AppKind, pattern: PatternKind, deployment: Deployment) -> Self {
        ExperimentConfig {
            app,
            pattern,
            deployment,
            seed: 7,
            tick: SimDuration::from_secs(10),
            sample_window: SimDuration::from_minutes(10),
            burst_override: None,
            master_outage: None,
            trace: false,
        }
    }
}

/// Everything one run produces.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The configuration that produced this result.
    pub config: ExperimentConfig,
    /// SPEC agility over time and on average (the Fig. 7 curve).
    pub agility: AgilityReport,
    /// Provisioning intervals (the Fig. 8 curve).
    pub provisioning: ProvisioningReport,
    /// Provisioned capacity (objects) over time.
    pub capacity_series: TimeSeries,
    /// `Req_min` over time.
    pub req_min_series: TimeSeries,
    /// Offered workload (events/s) over time.
    pub workload_series: TimeSeries,
    /// Control-plane trace (empty unless [`ExperimentConfig::trace`] was
    /// set): every scale decision, member join, and drain, in virtual time.
    pub trace: Vec<TraceRecord>,
    /// Trace records evicted from the ring buffer because it filled up.
    /// Non-zero means [`ExperimentResult::trace`] is missing its oldest
    /// events and downstream span reconstruction may be incomplete.
    pub trace_dropped: u64,
    /// Slices the cluster still counts held or provisioning after the pool
    /// shut down: 0 unless a release was lost.
    pub leaked_slices: usize,
}

impl ExperimentResult {
    /// Renders the run's series as CSV for external plotting: one row per
    /// minute with workload rate, `Req_min`, provisioned capacity, and the
    /// (10-minute-windowed) agility.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("minute,workload,req_min,capacity,agility\n");
        for (t, load) in self.workload_series.iter() {
            let req = self.req_min_series.value_at(t).unwrap_or(0.0);
            let cap = self.capacity_series.value_at(t).unwrap_or(0.0);
            let agility = self.agility.series().value_at(t).unwrap_or(0.0);
            out.push_str(&format!(
                "{:.0},{:.1},{:.1},{:.0},{:.3}\n",
                t.as_minutes_f64(),
                load,
                req,
                cap,
                agility
            ));
        }
        out
    }
}

/// Runs one experiment. Deterministic in `config`.
pub fn run_experiment(config: &ExperimentConfig) -> ExperimentResult {
    let app = config.app.model();
    let workload: Workload = WorkloadBuilder::new(config.pattern, app.point_a)
        .noise(0.04)
        .seed(derive_seed(config.seed, &format!("workload-{}", app.name)))
        .build();
    let peak_objects = app.peak_objects(workload.peak());
    let max_pool = peak_objects + peak_objects / 2 + 2;

    let (trace, sink) = TraceHandle::buffered(65_536);
    let cluster = ClusterHandle::new(ResourceManager::new(ClusterConfig {
        nodes: max_pool + 8,
        slices_per_node: 1,
        provisioning: config.deployment.provisioning(),
        seed: derive_seed(config.seed, "cluster"),
        ..ClusterConfig::default()
    }));
    cluster.set_telemetry(trace.clone(), &MetricsHandle::disabled());

    // The oracle is a pool pinned at the peak. An elastic pool starts at,
    // and never shrinks below, what the workload needs at t = 0: the
    // trough both patterns return to.
    let pool_config = PoolConfig::builder(app.name);
    let pool_config = if config.deployment.is_elastic() {
        let base = config.deployment.pool_config(&app, max_pool);
        let start = app.req_min(workload.rate_at(SimTime::ZERO), 0) as u32;
        pool_config
            .min_pool_size(start.max(base.min_pool_size()))
            .max_pool_size(max_pool)
            .policy(base.policy())
            .burst_interval(config.burst_override.unwrap_or(base.burst_interval()))
    } else {
        pool_config
            .min_pool_size(peak_objects)
            .max_pool_size(peak_objects)
    };
    let pool_config = pool_config.build().expect("valid experiment config");
    let (clock, net) = (Arc::new(VirtualClock::new()), InProcNetwork::new());
    let mut pool = FluidPool::start(pool_config, &cluster, &clock, &net, &trace, None);

    let mut meter = AgilityMeter::new(SimDuration::from_minutes(1), config.sample_window);
    let mut capacity_series = TimeSeries::new("capacity");
    let mut req_series = TimeSeries::new("req_min");
    let mut load_series = TimeSeries::new("workload");
    let mut smoothed_cpu: f64 = 0.0;
    // What the members' method-call statistics report: the rate averaged
    // over the last burst interval, not the instantaneous truth.
    let mut measured_rate: f64 = 0.0;
    // Each member votes from its *own* measured share of the workload: an
    // even split perturbed by per-member sampling noise (clients
    // round-robin, bursts are uneven), scaled back up by the pool size —
    // exactly what the applications' change_pool_size overrides compute.
    let report = |busy: f64, rate: f64, minute: u64, size: u32| {
        move |uid: u64| {
            let mut rng = erm_sim::seeded_rng(derive_seed(
                config.seed,
                &format!("vote-{}-{minute}-{uid}", app.name),
            ));
            let observed = rate * (1.0 + rand::Rng::gen_range(&mut rng, -0.1..=0.1));
            let vote = demand_vote(observed, app.per_object_capacity, size, 0.9);
            load(uid, busy as f32, Some(vote))
        }
    };

    let end = SimTime::ZERO + workload.duration();
    let mut now = SimTime::ZERO;
    let mut next_minute_sample = SimTime::ZERO;
    let mut outage_armed = config.master_outage;

    while now <= end {
        // 0. Fault injection: the master goes down on schedule.
        if let Some((from, until)) = outage_armed {
            if now >= from {
                cluster.fail_master_until(until);
                outage_armed = None;
            }
        }
        // 1. The runtime's turn: grants ready by now join.
        pool.step(now);

        // 2. Observe the workload and utilization.
        let rate = workload.noisy_rate_at(now);
        let n_ready = pool.size();
        let capacity = f64::from(n_ready) * app.per_object_capacity;
        let inst_cpu = if capacity > 0.0 {
            (rate / capacity * 100.0).min(100.0)
        } else {
            100.0
        };
        // EWMA with ~30 s time constant, like a real utilization monitor.
        let alpha = (config.tick.as_secs_f64() / 30.0).min(1.0);
        smoothed_cpu += alpha * (inst_cpu - smoothed_cpu);
        // The rate visible through getMethodCallStats lags one burst
        // interval behind reality (~60 s time constant).
        let beta = (config.tick.as_secs_f64() / 60.0).min(1.0);
        measured_rate += beta * (rate - measured_rate);

        // 3. The members answer the poll and the drains; the runtime
        // decides.
        let minute = now.as_minutes_f64() as u64;
        pool.answer(now, report(smoothed_cpu, measured_rate, minute, n_ready));

        // 4. Metrics. Cap_prov counts the rotation (the paper's "recorded
        // capacity provisioned").
        let req_min = app.req_min(rate, minute);
        meter.record(now, req_min, f64::from(pool.size()));
        if now >= next_minute_sample {
            capacity_series.push(now, f64::from(pool.size()));
            req_series.push(now, req_min);
            load_series.push(now, rate);
            next_minute_sample = now + SimDuration::from_minutes(1);
        }

        // 5. Grants that become ready before the next tick join at their
        // ready instant, answered with this tick's load.
        let next = now + config.tick;
        while let Some(at) = cluster.next_ready().filter(|&at| at < next) {
            pool.step(at);
            pool.answer(at, report(smoothed_cpu, measured_rate, minute, pool.size()));
        }
        now = next;
    }
    pool.shut_down(clock.now());

    let records = sink.snapshot();
    ExperimentResult {
        config: config.clone(),
        agility: meter.finish(),
        provisioning: provisioning(&records, end),
        capacity_series,
        req_min_series: req_series,
        workload_series: load_series,
        trace_dropped: sink.dropped(),
        trace: if config.trace { records } else { Vec::new() },
        leaked_slices: cluster.slices_in_use() + cluster.pending_slices(),
    }
}

/// Fig. 8's provisioning intervals from the run's trace: the k-th slice
/// the cluster granted is paired with the k-th member that joined, from
/// the offer's instant to the join's.
fn provisioning(records: &[TraceRecord], end: SimTime) -> ProvisioningReport {
    let mut recorder = ProvisioningRecorder::new();
    let (mut offered, mut joined) = (0u64, 0u64);
    for record in records {
        match record.event {
            TraceEvent::OfferOutcome { granted, .. } => {
                for _ in 0..granted {
                    recorder.requested(offered, record.at);
                    offered += 1;
                }
            }
            TraceEvent::MemberJoined { .. } => {
                recorder.first_served(joined, record.at);
                joined += 1;
            }
            _ => {}
        }
    }
    recorder.finish(end)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(app: AppKind, pattern: PatternKind, dep: Deployment) -> ExperimentResult {
        run_experiment(&ExperimentConfig::paper(app, pattern, dep))
    }

    #[test]
    fn csv_export_is_well_formed() {
        let r = run(AppKind::Paxos, PatternKind::Abrupt, Deployment::ElasticRmi);
        let csv = r.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("minute,workload,req_min,capacity,agility")
        );
        let n = lines.clone().count();
        assert!(
            n >= 440,
            "one row per minute of the 450-minute run, got {n}"
        );
        for line in lines {
            assert_eq!(line.split(',').count(), 5, "bad row: {line}");
        }
    }

    #[test]
    fn trace_flag_records_the_control_plane() {
        let mut config =
            ExperimentConfig::paper(AppKind::Paxos, PatternKind::Abrupt, Deployment::ElasticRmi);
        config.trace = true;
        let r = run_experiment(&config);
        assert!(
            r.trace
                .iter()
                .any(|rec| matches!(rec.event, TraceEvent::MemberJoined { .. })),
            "initial provisioning must be traced"
        );
        assert!(
            r.trace.iter().any(
                |rec| matches!(rec.event, TraceEvent::ScaleDecision { delta, .. } if delta > 0)
            ),
            "an abrupt workload must trigger a traced grow decision"
        );
        // Off by default: no records, no cost.
        let quiet = run_experiment(&ExperimentConfig::paper(
            AppKind::Paxos,
            PatternKind::Abrupt,
            Deployment::ElasticRmi,
        ));
        assert!(quiet.trace.is_empty());
    }

    #[test]
    fn experiments_are_deterministic() {
        let a = run(AppKind::Paxos, PatternKind::Abrupt, Deployment::ElasticRmi);
        let b = run(AppKind::Paxos, PatternKind::Abrupt, Deployment::ElasticRmi);
        assert_eq!(a.agility.mean_agility(), b.agility.mean_agility());
        assert_eq!(a.capacity_series, b.capacity_series);
    }

    #[test]
    fn elastic_rmi_beats_cloudwatch_on_agility() {
        // The paper's headline: 3.4x (Marketcetera) to 7.2x (DCS) better.
        for app in AppKind::ALL {
            let ermi = run(app, PatternKind::Abrupt, Deployment::ElasticRmi);
            let cw = run(app, PatternKind::Abrupt, Deployment::CloudWatch);
            assert!(
                cw.agility.mean_agility() > 1.5 * ermi.agility.mean_agility(),
                "{app}: CloudWatch {:.2} vs ElasticRMI {:.2}",
                cw.agility.mean_agility(),
                ermi.agility.mean_agility()
            );
        }
    }

    #[test]
    fn overprovisioning_has_worst_average_agility() {
        for pattern in [PatternKind::Abrupt, PatternKind::Cyclic] {
            let over = run(AppKind::Marketcetera, pattern, Deployment::Overprovision);
            for dep in [Deployment::ElasticRmi, Deployment::CloudWatch] {
                let other = run(AppKind::Marketcetera, pattern, dep);
                assert!(
                    over.agility.mean_agility() > other.agility.mean_agility(),
                    "{pattern}: overprovisioning {:.2} should exceed {dep} {:.2}",
                    over.agility.mean_agility(),
                    other.agility.mean_agility()
                );
            }
        }
    }

    #[test]
    fn overprovisioning_touches_zero_at_peak() {
        // §5.5: "its agility does reach zero at peak workload."
        let over = run(
            AppKind::Marketcetera,
            PatternKind::Abrupt,
            Deployment::Overprovision,
        );
        let min = over.agility.series().min().unwrap();
        assert!(
            min <= 1.0,
            "agility at peak should approach zero, min {min}"
        );
    }

    #[test]
    fn elastic_rmi_oscillates_toward_zero() {
        // §5.5: ElasticRMI's agility "is close to 1 most of the time" and
        // "oscillates between 0 and a positive value frequently". With a
        // 10-minute plot window the dips show up as windows well below the
        // mean, some touching (near) zero.
        let ermi = run(
            AppKind::Marketcetera,
            PatternKind::Abrupt,
            Deployment::ElasticRmi,
        );
        let mean = ermi.agility.mean_agility();
        let min = ermi.agility.series().min().unwrap();
        assert!((0.5..=2.5).contains(&mean), "mean agility {mean:.2}");
        assert!(
            min <= 0.5,
            "min windowed agility {min:.2} should dip near zero"
        );
    }

    #[test]
    fn cpumem_matches_cloudwatch_but_not_fine_grained() {
        // §5.5: "the agility of ElasticRMI-CPUMem is approximately equal to
        // CloudWatch" (same conditions, provisioning difference hidden by
        // the sampling interval).
        let cpumem = run(
            AppKind::Hedwig,
            PatternKind::Abrupt,
            Deployment::ElasticRmiCpuMem,
        );
        let cw = run(AppKind::Hedwig, PatternKind::Abrupt, Deployment::CloudWatch);
        let ermi = run(AppKind::Hedwig, PatternKind::Abrupt, Deployment::ElasticRmi);
        let ratio = cpumem.agility.mean_agility() / cw.agility.mean_agility();
        assert!(
            (0.5..=2.0).contains(&ratio),
            "CPUMem {:.2} vs CloudWatch {:.2}",
            cpumem.agility.mean_agility(),
            cw.agility.mean_agility()
        );
        assert!(cpumem.agility.mean_agility() > 1.5 * ermi.agility.mean_agility());
    }

    #[test]
    fn elastic_rmi_provisions_in_under_thirty_seconds() {
        // Fig. 8: "provisioning latency of ElasticRMI is less than 30
        // seconds in all cases."
        for app in AppKind::ALL {
            let r = run(app, PatternKind::Abrupt, Deployment::ElasticRmi);
            let max = r.provisioning.max_latency().expect("scaling happened");
            assert!(
                max < SimDuration::from_secs(30),
                "{app}: max provisioning latency {max}"
            );
        }
    }

    #[test]
    fn cloudwatch_provisions_in_minutes() {
        let r = run(AppKind::Dcs, PatternKind::Abrupt, Deployment::CloudWatch);
        let mean = r.provisioning.mean_latency().expect("scaling happened");
        assert!(mean >= SimDuration::from_minutes(3), "mean {mean}");
    }

    #[test]
    fn overprovisioning_has_zero_provisioning_latency() {
        let r = run(
            AppKind::Paxos,
            PatternKind::Cyclic,
            Deployment::Overprovision,
        );
        // Only the initial (instant) provisioning occurred.
        if let Some(max) = r.provisioning.max_latency() {
            assert_eq!(max, SimDuration::ZERO);
        }
    }

    #[test]
    fn capacity_tracks_workload_for_elastic_rmi() {
        let r = run(AppKind::Dcs, PatternKind::Cyclic, Deployment::ElasticRmi);
        // At the end of a cyclic run the workload is back near the trough;
        // an elastic deployment must have scaled most capacity away.
        let final_cap = r.capacity_series.samples().last().unwrap().1;
        let peak_cap = r.capacity_series.max().unwrap();
        assert!(
            final_cap < peak_cap / 2.0,
            "final {final_cap} vs peak {peak_cap}"
        );
    }
}
