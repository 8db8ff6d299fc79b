//! The resource manager: slices, grants, provisioning, failures, alerts.

use std::collections::{BTreeSet, HashSet};
use std::fmt;

use erm_metrics::{Histogram, MetricsHandle, TraceEvent, TraceHandle};
use erm_sim::{derive_seed, seeded_rng, EventQueue, SimTime};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::latency::LatencyModel;

/// Identifies a physical/virtual node managed by the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// Identifies one slice (resource offer) of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SliceId(pub u64);

impl fmt::Display for SliceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slice-{}", self.0)
    }
}

/// A slice that finished provisioning and is ready to host one elastic
/// object (at most one — the paper's invariant).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SliceGrant {
    /// The granted slice.
    pub slice: SliceId,
    /// The node hosting the slice.
    pub node: NodeId,
    /// CPUs reserved for the slice.
    pub cpus: f64,
    /// Memory (GiB) reserved for the slice.
    pub mem_gib: f64,
    /// The request this grant satisfies.
    pub request_id: u64,
    /// When the slice became usable.
    pub ready_at: SimTime,
}

/// Result of a slice request. Mirrors the paper's instantiation rule: "if
/// only `l < k` are available, then only `l` objects are created".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestOutcome {
    /// Identifier shared by all grants resulting from this request.
    pub request_id: u64,
    /// How many slices were granted (`granted <= requested`).
    pub granted: u32,
    /// How many were requested.
    pub requested: u32,
}

/// Errors surfaced by the cluster manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The Mesos master is unreachable; scaling operations are unavailable
    /// until it recovers (paper §4.4).
    MasterDown,
    /// A slice was released or re-granted in an invalid state.
    UnknownSlice(SliceId),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::MasterDown => write!(f, "cluster master is down"),
            ClusterError::UnknownSlice(id) => write!(f, "slice {id} is not currently granted"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// An administrator notification about cluster utilization (paper §4.2:
/// "enables administrators to be notified if the utilization of the Mesos
/// cluster exceeds or falls below configurable thresholds").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdminAlert {
    /// Utilization rose above the high threshold at this time.
    HighUtilization {
        /// When the threshold was crossed.
        at: SimTime,
        /// Utilization at crossing.
        utilization: f64,
    },
    /// Utilization fell below the low threshold at this time.
    LowUtilization {
        /// When the threshold was crossed.
        at: SimTime,
        /// Utilization at crossing.
        utilization: f64,
    },
}

/// Static description of a cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of nodes under management.
    pub nodes: u32,
    /// Slices carved out of each node.
    pub slices_per_node: u32,
    /// CPUs reserved per slice.
    pub cpus_per_slice: f64,
    /// Memory (GiB) reserved per slice.
    pub mem_gib_per_slice: f64,
    /// Provisioning-latency model for new grants.
    pub provisioning: LatencyModel,
    /// Seed for latency jitter.
    pub seed: u64,
}

impl Default for ClusterConfig {
    /// A 64-node cluster with 2 slices per node and ElasticRMI-like
    /// provisioning latency.
    fn default() -> Self {
        ClusterConfig {
            nodes: 64,
            slices_per_node: 2,
            cpus_per_slice: 2.0,
            mem_gib_per_slice: 2.0,
            provisioning: LatencyModel::elastic_rmi_default(),
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
struct PendingGrant {
    slice: SliceId,
    request_id: u64,
    requested_at: SimTime,
}

/// The cluster resource manager. See the [crate docs](crate) for an overview.
#[derive(Debug)]
pub struct ResourceManager {
    config: ClusterConfig,
    free: Vec<SliceId>,
    provisioning: EventQueue<PendingGrant>,
    // Ordered so failure paths (fail_node's revocation sweep) visit slices
    // in slice-id order: crash recovery must be deterministic per seed.
    in_use: BTreeSet<SliceId>,
    failed_nodes: HashSet<NodeId>,
    revoked: Vec<SliceId>,
    pending_count: usize,
    master_down_until: Option<SimTime>,
    deferred_releases: Vec<SliceId>,
    /// Integral of reserved capacity over time: Σ reserved-slices × µs,
    /// accrued lazily on each timestamped state change. `reserved` counts
    /// granted plus provisioning slices, matching [`Self::utilization`].
    occupied_slice_us: u64,
    occupancy_since: SimTime,
    rng: StdRng,
    next_request: u64,
    alert_high: Option<f64>,
    alert_low: Option<f64>,
    above_high: bool,
    below_low: bool,
    alerts: Vec<AdminAlert>,
    trace: TraceHandle,
    provision_latency: Histogram,
}

impl ResourceManager {
    /// Creates a manager with every slice free.
    ///
    /// # Panics
    ///
    /// Panics if the configuration describes an empty cluster.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(
            config.nodes > 0 && config.slices_per_node > 0,
            "cluster must have at least one slice"
        );
        let total = u64::from(config.nodes) * u64::from(config.slices_per_node);
        // Free list kept in reverse so pops hand out low ids first.
        let free: Vec<SliceId> = (0..total).rev().map(SliceId).collect();
        let rng = seeded_rng(derive_seed(config.seed, "cluster"));
        ResourceManager {
            config,
            free,
            provisioning: EventQueue::new(),
            in_use: BTreeSet::new(),
            failed_nodes: HashSet::new(),
            revoked: Vec::new(),
            pending_count: 0,
            master_down_until: None,
            deferred_releases: Vec::new(),
            occupied_slice_us: 0,
            occupancy_since: SimTime::ZERO,
            rng,
            next_request: 0,
            alert_high: None,
            alert_low: None,
            above_high: false,
            below_low: false,
            alerts: Vec::new(),
            trace: TraceHandle::disabled(),
            provision_latency: Histogram::disabled(),
        }
    }

    /// Enables telemetry: offer request/outcome trace events and the
    /// `cluster.provision.latency` histogram (request → slice ready).
    pub fn set_telemetry(&mut self, trace: TraceHandle, metrics: &MetricsHandle) {
        self.trace = trace;
        self.provision_latency = metrics.histogram("cluster.provision.latency");
    }

    /// The node a slice belongs to.
    pub fn node_of(&self, slice: SliceId) -> NodeId {
        NodeId((slice.0 / u64::from(self.config.slices_per_node)) as u32)
    }

    /// Total slices in the cluster.
    pub fn total_slices(&self) -> usize {
        (self.config.nodes * self.config.slices_per_node) as usize
    }

    /// Slices currently free (not granted, not provisioning).
    pub fn free_slices(&self) -> usize {
        self.free.len()
    }

    /// Slices currently granted and ready.
    pub fn slices_in_use(&self) -> usize {
        self.in_use.len()
    }

    /// Slices granted but still provisioning (not yet collectable with
    /// [`ResourceManager::poll_ready`]).
    pub fn pending_slices(&self) -> usize {
        self.pending_count
    }

    /// Fraction of the cluster that is granted or provisioning.
    pub fn utilization(&self) -> f64 {
        1.0 - self.free.len() as f64 / self.total_slices() as f64
    }

    /// Slice-seconds of reserved capacity accrued up to `now`: the cost
    /// integral behind warm-vs-cold elasticity tradeoffs. An idle warm
    /// standby keeps its slice reserved the whole time, so a warm tier
    /// shows up here even when it never serves a request; the experiment
    /// harness reports this next to the promotion-lag win.
    pub fn reserved_slice_seconds(&self, now: SimTime) -> f64 {
        let reserved = (self.in_use.len() + self.pending_count) as u64;
        let live = reserved * now.saturating_since(self.occupancy_since).as_micros();
        (self.occupied_slice_us + live) as f64 / 1e6
    }

    /// Folds elapsed time into the occupancy integral before a state
    /// change alters the reserved-slice count.
    fn accrue_occupancy(&mut self, now: SimTime) {
        let reserved = (self.in_use.len() + self.pending_count) as u64;
        self.occupied_slice_us += reserved * now.saturating_since(self.occupancy_since).as_micros();
        self.occupancy_since = self.occupancy_since.max(now);
    }

    /// Requests `n` slices. Grants `min(n, free)` immediately (they then
    /// provision asynchronously; collect them with [`poll_ready`]).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::MasterDown`] while a master failure window is
    /// active.
    ///
    /// [`poll_ready`]: ResourceManager::poll_ready
    pub fn request_slices(&mut self, n: u32, now: SimTime) -> Result<RequestOutcome, ClusterError> {
        self.check_master(now)?;
        self.accrue_occupancy(now);
        let request_id = self.next_request;
        self.next_request += 1;
        self.trace.emit(
            now,
            TraceEvent::OfferRequested {
                request_id,
                count: n,
            },
        );
        let load = self.utilization();
        let mut granted = 0u32;
        let mut skipped: Vec<SliceId> = Vec::new();
        while granted < n {
            let Some(slice) = self.free.pop() else { break };
            if self.failed_nodes.contains(&self.node_of(slice)) {
                skipped.push(slice);
                continue;
            }
            let latency = self.config.provisioning.sample(&mut self.rng, load);
            self.pending_count += 1;
            self.provisioning.schedule(
                now + latency,
                PendingGrant {
                    slice,
                    request_id,
                    requested_at: now,
                },
            );
            granted += 1;
        }
        // Slices on failed nodes stay in the pool (they come back with the
        // node) but cannot be granted now.
        self.free.extend(skipped);
        self.refresh_alerts(now);
        self.trace.emit(
            now,
            TraceEvent::OfferOutcome {
                request_id,
                granted,
                requested: n,
            },
        );
        Ok(RequestOutcome {
            request_id,
            granted,
            requested: n,
        })
    }

    /// Collects every grant whose provisioning finished by `now`.
    pub fn poll_ready(&mut self, now: SimTime) -> Vec<SliceGrant> {
        self.collect_ready(now, |_| true)
    }

    /// [`poll_ready`](ResourceManager::poll_ready) for one tenant of a
    /// shared cluster: collects only grants of the listed `requests` (the
    /// ids [`request_slices`](ResourceManager::request_slices) returned to
    /// that tenant) and leaves everyone else's for them to collect.
    pub fn poll_ready_of(&mut self, requests: &[u64], now: SimTime) -> Vec<SliceGrant> {
        self.collect_ready(now, |request_id| requests.contains(&request_id))
    }

    fn collect_ready(&mut self, now: SimTime, wanted: impl Fn(u64) -> bool) -> Vec<SliceGrant> {
        let mut ready = Vec::new();
        let mut left = Vec::new();
        while let Some((ready_at, pending)) = self.provisioning.pop_one_due(now) {
            if !wanted(pending.request_id) {
                left.push((ready_at, pending));
                continue;
            }
            self.pending_count -= 1;
            self.in_use.insert(pending.slice);
            self.provision_latency
                .record(ready_at.saturating_since(pending.requested_at));
            ready.push(SliceGrant {
                slice: pending.slice,
                node: self.node_of(pending.slice),
                cpus: self.config.cpus_per_slice,
                mem_gib: self.config.mem_gib_per_slice,
                request_id: pending.request_id,
                ready_at,
            });
        }
        for (ready_at, pending) in left {
            self.provisioning.schedule(ready_at, pending);
        }
        ready
    }

    /// Returns a slice to the free pool ("this slice is then available to
    /// other elastic objects in the cluster, or for subsequent use by the
    /// same elastic object", §2.5). While the master is down the release is
    /// deferred and applied automatically on recovery.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownSlice`] if the slice is not currently
    /// granted.
    pub fn release(&mut self, slice: SliceId, now: SimTime) -> Result<(), ClusterError> {
        if !self.in_use.contains(&slice) {
            return Err(ClusterError::UnknownSlice(slice));
        }
        if self.check_master(now).is_err() {
            // Defer: applied in check_master once the master recovers.
            if !self.deferred_releases.contains(&slice) {
                self.deferred_releases.push(slice);
            }
            return Ok(());
        }
        self.accrue_occupancy(now);
        self.in_use.remove(&slice);
        self.free.push(slice);
        self.refresh_alerts(now);
        Ok(())
    }

    /// Fails a whole node: every ready or provisioning slice on it is
    /// revoked (collect the revocations with
    /// [`ResourceManager::drain_revocations`]) and its slices cannot be
    /// granted until [`ResourceManager::repair_node`].
    pub fn fail_node(&mut self, node: NodeId) {
        self.failed_nodes.insert(node);
        // Revoke in-use slices on the node.
        let lost: Vec<SliceId> = self
            .in_use
            .iter()
            .copied()
            .filter(|&s| self.node_of(s) == node)
            .collect();
        for slice in lost {
            self.in_use.remove(&slice);
            self.free.push(slice); // back in inventory, ungrantable until repair
            self.revoked.push(slice);
        }
        // Revoke slices still provisioning on the node.
        let pending = self.provisioning.drain_all();
        for (due, grant) in pending {
            if self.node_of(grant.slice) == node {
                self.pending_count -= 1;
                self.free.push(grant.slice);
                self.revoked.push(grant.slice);
            } else {
                self.provisioning.schedule(due, grant);
            }
        }
    }

    /// Returns a failed node to service; its slices become grantable again.
    pub fn repair_node(&mut self, node: NodeId) {
        self.failed_nodes.remove(&node);
    }

    /// Takes the slices revoked by node failures since the last call. The
    /// middleware uses this to treat affected members as crashed.
    pub fn drain_revocations(&mut self) -> Vec<SliceId> {
        std::mem::take(&mut self.revoked)
    }

    /// Simulates a Mesos master outage lasting until `until`. During the
    /// outage slice requests fail and releases are deferred, but already
    /// provisioned slices keep serving (paper §4.4: failures "affect the
    /// addition/removal of new objects until Mesos recovers").
    pub fn fail_master_until(&mut self, until: SimTime) {
        self.master_down_until = Some(until);
    }

    /// Whether the master is reachable at `now`.
    pub fn master_available(&self, now: SimTime) -> bool {
        match self.master_down_until {
            Some(until) => now >= until,
            None => true,
        }
    }

    fn check_master(&mut self, now: SimTime) -> Result<(), ClusterError> {
        if self.master_available(now) {
            if self.master_down_until.take().is_some() {
                // Recovery: apply deferred releases.
                for slice in std::mem::take(&mut self.deferred_releases) {
                    self.in_use.remove(&slice);
                    self.free.push(slice);
                }
            }
            Ok(())
        } else {
            Err(ClusterError::MasterDown)
        }
    }

    /// Configures the admin alert thresholds (fractions of total capacity).
    ///
    /// # Panics
    ///
    /// Panics unless `low <= high` and both are within `[0, 1]`.
    pub fn set_admin_thresholds(&mut self, low: f64, high: f64) {
        assert!(
            (0.0..=1.0).contains(&low) && (0.0..=1.0).contains(&high) && low <= high,
            "thresholds must satisfy 0 <= low <= high <= 1"
        );
        self.alert_low = Some(low);
        self.alert_high = Some(high);
    }

    fn refresh_alerts(&mut self, now: SimTime) {
        let u = self.utilization();
        if let Some(high) = self.alert_high {
            if u > high && !self.above_high {
                self.above_high = true;
                self.alerts.push(AdminAlert::HighUtilization {
                    at: now,
                    utilization: u,
                });
            } else if u <= high {
                self.above_high = false;
            }
        }
        if let Some(low) = self.alert_low {
            if u < low && !self.below_low {
                self.below_low = true;
                self.alerts.push(AdminAlert::LowUtilization {
                    at: now,
                    utilization: u,
                });
            } else if u >= low {
                self.below_low = false;
            }
        }
    }

    /// Takes and clears the pending admin alerts.
    pub fn drain_alerts(&mut self) -> Vec<AdminAlert> {
        std::mem::take(&mut self.alerts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erm_sim::SimDuration;

    fn small_cluster(provisioning: LatencyModel) -> ResourceManager {
        ResourceManager::new(ClusterConfig {
            nodes: 4,
            slices_per_node: 2,
            provisioning,
            ..ClusterConfig::default()
        })
    }

    fn instant_cluster() -> ResourceManager {
        small_cluster(LatencyModel::instant())
    }

    #[test]
    fn grants_all_when_capacity_allows() {
        let mut c = instant_cluster();
        let out = c.request_slices(5, SimTime::ZERO).unwrap();
        assert_eq!(out.granted, 5);
        assert_eq!(c.poll_ready(SimTime::ZERO).len(), 5);
        assert_eq!(c.slices_in_use(), 5);
        assert_eq!(c.free_slices(), 3);
    }

    #[test]
    fn grants_l_less_than_k_when_short() {
        // Paper §4.2: "If only l < k are available, then only l objects are
        // created."
        let mut c = instant_cluster();
        let out = c.request_slices(100, SimTime::ZERO).unwrap();
        assert_eq!(out.granted, 8);
        assert_eq!(out.requested, 100);
        assert_eq!(c.free_slices(), 0);
    }

    #[test]
    fn provisioning_latency_delays_readiness() {
        let mut c = small_cluster(LatencyModel::Fixed(SimDuration::from_secs(20)));
        c.request_slices(2, SimTime::ZERO).unwrap();
        assert!(c.poll_ready(SimTime::from_secs(19)).is_empty());
        assert_eq!(c.poll_ready(SimTime::from_secs(20)).len(), 2);
    }

    #[test]
    fn telemetry_records_offers_and_provision_latency() {
        use erm_metrics::{MetricsHandle, TraceHandle, TraceSink};
        let sink = std::sync::Arc::new(TraceSink::new(64));
        let (metrics, registry) = MetricsHandle::shared();
        let mut c = small_cluster(LatencyModel::Fixed(SimDuration::from_secs(20)));
        c.set_telemetry(TraceHandle::new(std::sync::Arc::clone(&sink)), &metrics);

        c.request_slices(2, SimTime::ZERO).unwrap();
        assert_eq!(c.poll_ready(SimTime::from_secs(20)).len(), 2);

        let events: Vec<_> = sink.snapshot().into_iter().map(|r| r.event).collect();
        let requested = events
            .iter()
            .any(|e| matches!(e, TraceEvent::OfferRequested { count: 2, .. }));
        let resolved = events.iter().any(|e| {
            matches!(
                e,
                TraceEvent::OfferOutcome {
                    granted: 2,
                    requested: 2,
                    ..
                }
            )
        });
        assert!(requested, "missing OfferRequested: {events:?}");
        assert!(resolved, "missing OfferOutcome: {events:?}");

        let snap = registry.snapshot(SimTime::from_secs(20));
        let hist = snap
            .histograms
            .iter()
            .find(|(name, _)| *name == "cluster.provision.latency")
            .map(|(_, h)| h.clone())
            .expect("provision latency histogram registered");
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.max(), Some(SimDuration::from_secs(20)));
    }

    #[test]
    fn released_slices_are_reusable() {
        let mut c = instant_cluster();
        c.request_slices(8, SimTime::ZERO).unwrap();
        let grants = c.poll_ready(SimTime::ZERO);
        c.release(grants[0].slice, SimTime::from_secs(1)).unwrap();
        assert_eq!(c.free_slices(), 1);
        let out = c.request_slices(1, SimTime::from_secs(2)).unwrap();
        assert_eq!(out.granted, 1);
        let again = c.poll_ready(SimTime::from_secs(2));
        assert_eq!(again[0].slice, grants[0].slice);
    }

    #[test]
    fn release_of_unknown_slice_errors() {
        let mut c = instant_cluster();
        let err = c.release(SliceId(42), SimTime::ZERO).unwrap_err();
        assert_eq!(err, ClusterError::UnknownSlice(SliceId(42)));
    }

    #[test]
    fn each_slice_granted_at_most_once() {
        let mut c = instant_cluster();
        c.request_slices(8, SimTime::ZERO).unwrap();
        let grants = c.poll_ready(SimTime::ZERO);
        let mut ids: Vec<_> = grants.iter().map(|g| g.slice).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 8, "no slice may host two objects");
    }

    #[test]
    fn node_mapping_groups_slices() {
        let c = instant_cluster();
        assert_eq!(c.node_of(SliceId(0)), NodeId(0));
        assert_eq!(c.node_of(SliceId(1)), NodeId(0));
        assert_eq!(c.node_of(SliceId(2)), NodeId(1));
    }

    #[test]
    fn master_failure_blocks_requests_until_recovery() {
        let mut c = instant_cluster();
        c.fail_master_until(SimTime::from_secs(100));
        assert_eq!(
            c.request_slices(1, SimTime::from_secs(50)).unwrap_err(),
            ClusterError::MasterDown
        );
        assert!(!c.master_available(SimTime::from_secs(50)));
        let out = c.request_slices(1, SimTime::from_secs(100)).unwrap();
        assert_eq!(out.granted, 1);
    }

    #[test]
    fn releases_during_outage_are_deferred() {
        let mut c = instant_cluster();
        c.request_slices(2, SimTime::ZERO).unwrap();
        let grants = c.poll_ready(SimTime::ZERO);
        c.fail_master_until(SimTime::from_secs(100));
        c.release(grants[0].slice, SimTime::from_secs(10)).unwrap();
        // Still accounted as in-use during the outage.
        assert_eq!(c.free_slices(), 6);
        // First post-recovery operation applies the deferred release.
        c.request_slices(0, SimTime::from_secs(200)).unwrap();
        assert_eq!(c.free_slices(), 7);
    }

    #[test]
    fn admin_alerts_fire_on_threshold_crossings() {
        let mut c = instant_cluster();
        c.set_admin_thresholds(0.2, 0.8);
        c.request_slices(7, SimTime::ZERO).unwrap(); // 7/8 = 0.875 > 0.8
        let alerts = c.drain_alerts();
        assert!(matches!(alerts[0], AdminAlert::HighUtilization { .. }));
        let grants = c.poll_ready(SimTime::ZERO);
        for g in &grants {
            c.release(g.slice, SimTime::from_secs(1)).unwrap();
        }
        let alerts = c.drain_alerts();
        assert!(alerts
            .iter()
            .any(|a| matches!(a, AdminAlert::LowUtilization { .. })));
    }

    #[test]
    fn alerts_do_not_repeat_while_level_persists() {
        let mut c = instant_cluster();
        c.set_admin_thresholds(0.0, 0.5);
        c.request_slices(5, SimTime::ZERO).unwrap();
        c.request_slices(1, SimTime::from_secs(1)).unwrap();
        let alerts = c.drain_alerts();
        assert_eq!(alerts.len(), 1, "one alert per crossing, not per poll");
    }

    #[test]
    fn failed_node_revokes_its_slices() {
        let mut c = instant_cluster();
        c.request_slices(4, SimTime::ZERO).unwrap();
        let grants = c.poll_ready(SimTime::ZERO);
        let node0_slices: Vec<SliceId> = grants
            .iter()
            .filter(|g| g.node == NodeId(0))
            .map(|g| g.slice)
            .collect();
        assert!(!node0_slices.is_empty());
        c.fail_node(NodeId(0));
        let revoked = c.drain_revocations();
        assert_eq!(revoked.len(), node0_slices.len());
        for s in &node0_slices {
            assert!(revoked.contains(s));
        }
        // Second drain is empty.
        assert!(c.drain_revocations().is_empty());
    }

    #[test]
    fn failed_node_slices_are_not_granted_until_repair() {
        let mut c = instant_cluster(); // 4 nodes x 2 slices
        c.fail_node(NodeId(0));
        let out = c.request_slices(8, SimTime::ZERO).unwrap();
        assert_eq!(out.granted, 6, "two slices of the failed node withheld");
        for g in c.poll_ready(SimTime::ZERO) {
            assert_ne!(g.node, NodeId(0));
        }
        c.repair_node(NodeId(0));
        let out = c.request_slices(8, SimTime::ZERO).unwrap();
        assert_eq!(out.granted, 2, "repaired node's slices grantable again");
    }

    #[test]
    fn node_failure_revokes_pending_provisioning_too() {
        let mut c = small_cluster(LatencyModel::Fixed(SimDuration::from_secs(60)));
        c.request_slices(8, SimTime::ZERO).unwrap();
        c.fail_node(NodeId(1));
        let revoked = c.drain_revocations();
        assert_eq!(revoked.len(), 2, "both provisioning slices of node 1");
        // Remaining grants still arrive on schedule.
        let ready = c.poll_ready(SimTime::from_secs(60));
        assert_eq!(ready.len(), 6);
    }

    #[test]
    fn reserved_slice_seconds_integrates_occupancy() {
        let mut c = instant_cluster();
        assert_eq!(c.reserved_slice_seconds(SimTime::from_secs(10)), 0.0);
        c.request_slices(2, SimTime::from_secs(10)).unwrap();
        let grants = c.poll_ready(SimTime::from_secs(10));
        // Two slices held for five seconds.
        assert_eq!(c.reserved_slice_seconds(SimTime::from_secs(15)), 10.0);
        c.release(grants[0].slice, SimTime::from_secs(15)).unwrap();
        // ... then one slice for five more.
        assert_eq!(c.reserved_slice_seconds(SimTime::from_secs(20)), 15.0);
    }

    #[test]
    fn utilization_counts_pending_provisioning() {
        let mut c = small_cluster(LatencyModel::Fixed(SimDuration::from_secs(60)));
        c.request_slices(4, SimTime::ZERO).unwrap();
        assert_eq!(c.utilization(), 0.5);
        assert_eq!(c.slices_in_use(), 0, "not ready yet, but reserved");
    }
}
