//! The agility experiment runner (paper §5.5–§5.6).
//!
//! Runs one (application, workload pattern, deployment) combination through
//! a fluid-flow discrete-time simulation in virtual time: the 450–500
//! minute experiments of Fig. 7/Fig. 8 complete in milliseconds and are
//! bit-for-bit reproducible from the seed.
//!
//! Fidelity note: the *controller under test is the real middleware code* —
//! [`elasticrmi::ScalingEngine`] with the same `PoolConfig`s the threaded
//! runtime uses, fed by [`erm_apps::demand_vote`], the same function the
//! applications' `change_pool_size` overrides call. The cluster is the real
//! [`erm_cluster::ResourceManager`] with per-deployment provisioning
//! latency. Only the *workload/service loop* is fluid: instead of executing
//! 50,000 requests per second, utilization is computed as offered rate over
//! capacity.

use elasticrmi::{PoolSample, ScalingDecision, ScalingEngine};
use erm_apps::{demand_vote, AppKind};
use erm_cluster::{ClusterConfig, ResourceManager, SliceGrant};
use erm_metrics::{
    AgilityMeter, AgilityReport, ProvisioningRecorder, ProvisioningReport, TraceEvent, TraceHandle,
    TraceRecord,
};
use erm_sim::{derive_seed, EventQueue, SimDuration, SimTime, TimeSeries};
use erm_workloads::{PatternKind, Workload, WorkloadBuilder};
use serde::{Deserialize, Serialize};

use crate::deployment::Deployment;

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
    /// Record control-plane [`TraceRecord`]s (scale decisions, member
    /// joins/drains) into [`ExperimentResult::trace`]. Off by default: the
    /// 450-minute sweeps emit thousands of events per run.
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

    let mut cluster = ResourceManager::new(ClusterConfig {
        nodes: max_pool + 8,
        slices_per_node: 1,
        provisioning: config.deployment.provisioning(),
        seed: derive_seed(config.seed, "cluster"),
        ..ClusterConfig::default()
    });

    let mut engine: Option<ScalingEngine> = if config.deployment.is_elastic() {
        let mut pool_config = config.deployment.pool_config(&app, max_pool);
        if let Some(burst) = config.burst_override {
            pool_config = elasticrmi::PoolConfig::builder(app.name)
                .min_pool_size(pool_config.min_pool_size())
                .max_pool_size(pool_config.max_pool_size())
                .policy(pool_config.policy())
                .burst_interval(burst)
                .build()
                .expect("override config valid");
        }
        Some(ScalingEngine::new(pool_config, SimTime::ZERO))
    } else {
        None
    };

    // Initial capacity: the oracle provisions for the peak; elastic
    // deployments start at the capacity the initial workload needs.
    let initial = if config.deployment.is_elastic() {
        app.req_min(workload.rate_at(SimTime::ZERO), 0) as u32
    } else {
        peak_objects
    };

    let mut meter = AgilityMeter::new(SimDuration::from_minutes(1), config.sample_window);
    let mut prov = ProvisioningRecorder::new();
    let (trace, trace_sink) = if config.trace {
        let (handle, sink) = TraceHandle::buffered(65_536);
        (handle, Some(sink))
    } else {
        (TraceHandle::disabled(), None)
    };
    let mut capacity_series = TimeSeries::new("capacity");
    let mut req_series = TimeSeries::new("req_min");
    let mut load_series = TimeSeries::new("workload");

    // The pool is one tenant of the cluster, which books its grants. The
    // k-th slice requested is provisioning id k, and grants are paired with
    // ids in the order they arrive.
    let pool = cluster.add_tenant();
    let mut ready: Vec<SliceGrant> = Vec::new();
    let mut draining: EventQueue<SliceGrant> = EventQueue::new();
    let (mut requested, mut joined): (u64, u64) = (0, 0);
    let mut smoothed_cpu: f64 = 0.0;
    // What the members' method-call statistics report: the rate averaged
    // over the last burst interval, not the instantaneous truth.
    let mut measured_rate: f64 = 0.0;
    const DRAIN_DELAY: SimDuration = SimDuration::from_secs(5);

    // Kick off the initial provisioning (instantaneous for the oracle,
    // latency-bound otherwise — the pool's own startup transient).
    let outcome = cluster
        .request_slices(pool, initial, SimTime::ZERO)
        .expect("master up at start");
    for _ in 0..outcome.granted {
        prov.requested(requested, SimTime::ZERO);
        requested += 1;
    }

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
        // 1. Provisioning completions join the pool and serve immediately.
        for grant in cluster.take_ready(pool, now) {
            trace.emit(now, TraceEvent::MemberJoined { uid: grant.slice.0 });
            prov.first_served(joined, grant.ready_at);
            joined += 1;
            ready.push(grant);
        }
        // 2. Draining members release their slices.
        for grant in draining.pop_due(now).collect::<Vec<_>>() {
            trace.emit(now, TraceEvent::MemberDrained { uid: grant.slice.0 });
            let _ = cluster.release(grant.lease, now);
            // capacity already decremented at drain start
        }

        // 3. Observe the workload and utilization.
        let rate = workload.noisy_rate_at(now);
        let n_ready = ready.len() as u32;
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

        // 4. The control loop (the real middleware code).
        if let Some(engine) = engine.as_mut() {
            let committed = n_ready + cluster.pending_of(pool, |_| true);
            let sample = PoolSample {
                pool_size: committed,
                avg_cpu: smoothed_cpu as f32,
                // RAM tracks CPU loosely in these services (buffers scale
                // with in-flight work).
                avg_ram: (smoothed_cpu * 0.8) as f32,
                // Each member votes from its *own* measured share of the
                // workload: an even split perturbed by per-member sampling
                // noise (clients round-robin, bursts are uneven), then
                // scaled back up by the pool size — exactly what the
                // applications' change_pool_size overrides compute.
                fine_votes: (0..n_ready.max(1))
                    .map(|i| {
                        let minute = now.as_minutes_f64() as u64;
                        let mut rng = erm_sim::seeded_rng(derive_seed(
                            config.seed,
                            &format!("vote-{}-{minute}-{i}", app.name),
                        ));
                        let observed =
                            measured_rate * (1.0 + rand::Rng::gen_range(&mut rng, -0.1..=0.1));
                        demand_vote(observed, app.per_object_capacity, committed, 0.9)
                    })
                    .collect(),
                desired_size: None,
                ..PoolSample::default()
            };
            match engine.poll(now, &sample) {
                ScalingDecision::Grow(k) => {
                    trace.emit(
                        now,
                        TraceEvent::ScaleDecision {
                            pool_size: committed,
                            delta: i64::from(k),
                        },
                    );
                    if let Ok(outcome) = cluster.request_slices(pool, k, now) {
                        for _ in 0..outcome.granted {
                            prov.requested(requested, now);
                            requested += 1;
                        }
                    }
                }
                ScalingDecision::Shrink(k) => {
                    trace.emit(
                        now,
                        TraceEvent::ScaleDecision {
                            pool_size: committed,
                            delta: -i64::from(k),
                        },
                    );
                    for _ in 0..k {
                        if ready.len() as u32 <= engine.config().min_pool_size() {
                            break;
                        }
                        if let Some(grant) = ready.pop() {
                            draining.schedule(now + DRAIN_DELAY, grant);
                        }
                    }
                }
                ScalingDecision::Hold => {}
            }
        }

        // 5. Metrics. Cap_prov counts ready capacity (the paper's "recorded
        // capacity provisioned").
        let minute = now.as_minutes_f64() as u64;
        let req_min = app.req_min(rate, minute);
        meter.record(now, req_min, f64::from(ready.len() as u32));
        if now >= next_minute_sample {
            capacity_series.push(now, f64::from(ready.len() as u32));
            req_series.push(now, req_min);
            load_series.push(now, rate);
            next_minute_sample = now + SimDuration::from_minutes(1);
        }

        now += config.tick;
    }

    ExperimentResult {
        config: config.clone(),
        agility: meter.finish(),
        provisioning: prov.finish(end),
        capacity_series,
        req_min_series: req_series,
        workload_series: load_series,
        trace_dropped: trace_sink.as_ref().map_or(0, |sink| sink.dropped()),
        trace: trace_sink.map_or_else(Vec::new, |sink| sink.snapshot()),
    }
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
