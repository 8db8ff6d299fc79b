//! The resource manager: slices, leases, provisioning, failures, alerts.

use std::collections::{BTreeMap, HashSet};
use std::fmt;

use erm_metrics::{Histogram, MetricsHandle, TraceEvent, TraceHandle};
use erm_sim::{derive_seed, seeded_rng, SimTime};
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

/// One holder of slice leases on a shared cluster: a pool, or one tier of
/// an experiment. Only [`ResourceManager::add_tenant`] makes one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(usize);

/// One slice granted to one tenant. Only the cluster makes lease ids and it
/// never reuses one, so a lease names exactly one grant: once it is revoked
/// or released, releasing it again frees nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeaseId(u64);

/// A slice that finished provisioning and is ready to host one elastic
/// object (at most one — the paper's invariant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceGrant {
    /// The lease its tenant now holds, and releases the slice with.
    pub lease: LeaseId,
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
    /// When that request was made.
    pub requested_at: SimTime,
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
    /// A release named a lease that is not held: still provisioning, or
    /// already revoked or released. Nothing was freed.
    StaleLease(LeaseId),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::MasterDown => write!(f, "cluster master is down"),
            ClusterError::StaleLease(id) => write!(f, "{id:?} is not held"),
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

/// Where a lease is in its life. It ends, and leaves the books, when its
/// slice is freed: by a release, a node failure, or master recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
enum LeaseState {
    /// Granted; usable from its `ready_at`, once its tenant takes it.
    Provisioning,
    /// Taken by its tenant: the slice hosts the tenant's object.
    Held,
    /// Released while the master was down; the slice is freed on recovery.
    ReleaseDeferred,
}

#[derive(Debug)]
struct Lease {
    tenant: TenantId,
    /// What the tenant is handed when it takes the lease.
    grant: SliceGrant,
    state: LeaseState,
}

/// The cluster resource manager. See the [crate docs](crate) for an overview.
#[derive(Debug)]
pub struct ResourceManager {
    config: ClusterConfig,
    free: Vec<SliceId>,
    /// Every live lease. Ids grow with each grant, so this is grant order.
    leases: BTreeMap<LeaseId, Lease>,
    /// Per tenant, the leases node failures revoked that it has not taken.
    revoked: Vec<Vec<LeaseId>>,
    failed_nodes: HashSet<NodeId>,
    master_down_until: Option<SimTime>,
    /// Releases a master outage deferred, in release order.
    deferred: Vec<LeaseId>,
    /// Integral of reserved capacity over time: Σ reserved-slices × µs,
    /// accrued lazily on each timestamped state change. A slice is reserved
    /// while it is not free, matching [`Self::utilization`].
    occupied_slice_us: u64,
    occupancy_since: SimTime,
    rng: StdRng,
    next_request: u64,
    next_lease: u64,
    alert_high: Option<f64>,
    alert_low: Option<f64>,
    above_high: bool,
    below_low: bool,
    alerts: Vec<AdminAlert>,
    trace: TraceHandle,
    provision_latency: Histogram,
}

impl ResourceManager {
    /// Creates a manager with every slice free and no tenants.
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
            leases: BTreeMap::new(),
            revoked: Vec::new(),
            failed_nodes: HashSet::new(),
            master_down_until: None,
            deferred: Vec::new(),
            occupied_slice_us: 0,
            occupancy_since: SimTime::ZERO,
            rng,
            next_request: 0,
            next_lease: 0,
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

    /// Registers a new tenant: the holder every request, grant and
    /// revocation of its leases is booked to.
    pub fn add_tenant(&mut self) -> TenantId {
        self.revoked.push(Vec::new());
        TenantId(self.revoked.len() - 1)
    }

    /// The node a slice belongs to.
    pub fn node_of(&self, slice: SliceId) -> NodeId {
        NodeId((slice.0 / u64::from(self.config.slices_per_node)) as u32)
    }

    /// Total slices in the cluster.
    pub fn total_slices(&self) -> usize {
        (self.config.nodes * self.config.slices_per_node) as usize
    }

    /// Slices currently free (not leased).
    pub fn free_slices(&self) -> usize {
        self.free.len()
    }

    /// Slices held by their tenants. A slice whose release a master outage
    /// deferred is neither held nor free until the master recovers.
    pub fn slices_in_use(&self) -> usize {
        self.leases_in(LeaseState::Held)
    }

    /// Slices granted but still provisioning (not yet taken with
    /// [`ResourceManager::take_ready`]).
    pub fn pending_slices(&self) -> usize {
        self.leases_in(LeaseState::Provisioning)
    }

    fn leases_in(&self, state: LeaseState) -> usize {
        self.leases.values().filter(|l| l.state == state).count()
    }

    /// How many of `tenant`'s leases from the requests `requests` picks
    /// are still provisioning. A revoked lease is no longer counted.
    pub fn pending_of(&self, tenant: TenantId, requests: impl Fn(u64) -> bool) -> u32 {
        self.leases
            .values()
            .filter(|l| l.tenant == tenant && l.state == LeaseState::Provisioning)
            .filter(|l| requests(l.grant.request_id))
            .count() as u32
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
        let reserved = (self.total_slices() - self.free.len()) as u64;
        let live = reserved * now.saturating_since(self.occupancy_since).as_micros();
        (self.occupied_slice_us + live) as f64 / 1e6
    }

    /// Folds elapsed time into the occupancy integral before a state
    /// change alters the reserved-slice count.
    fn accrue_occupancy(&mut self, now: SimTime) {
        let reserved = (self.total_slices() - self.free.len()) as u64;
        self.occupied_slice_us += reserved * now.saturating_since(self.occupancy_since).as_micros();
        self.occupancy_since = self.occupancy_since.max(now);
    }

    /// Requests `n` slices for `tenant`. Grants `min(n, free)` leases at
    /// once; they provision asynchronously, and only `tenant` collects them
    /// with [`take_ready`].
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::MasterDown`] while a master failure window is
    /// active.
    ///
    /// [`take_ready`]: ResourceManager::take_ready
    pub fn request_slices(
        &mut self,
        tenant: TenantId,
        n: u32,
        now: SimTime,
    ) -> Result<RequestOutcome, ClusterError> {
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
            let lease = LeaseId(self.next_lease);
            self.next_lease += 1;
            let grant = SliceGrant {
                lease,
                slice,
                node: self.node_of(slice),
                cpus: self.config.cpus_per_slice,
                mem_gib: self.config.mem_gib_per_slice,
                request_id,
                requested_at: now,
                ready_at: now + self.config.provisioning.sample(&mut self.rng, load),
            };
            let state = LeaseState::Provisioning;
            self.leases.insert(
                lease,
                Lease {
                    tenant,
                    grant,
                    state,
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

    /// Takes `tenant`'s grants whose provisioning finished by `now`, in the
    /// order they became ready. Each one's lease is held from here on.
    pub fn take_ready(&mut self, tenant: TenantId, now: SimTime) -> Vec<SliceGrant> {
        let mut ready: Vec<SliceGrant> = self
            .leases
            .values()
            .filter(|l| l.tenant == tenant && l.state == LeaseState::Provisioning)
            .filter(|l| l.grant.ready_at <= now)
            .map(|l| l.grant)
            .collect();
        ready.sort_unstable_by_key(|g| (g.ready_at, g.lease));
        for grant in &ready {
            let lease = self.leases.get_mut(&grant.lease).expect("listed above");
            lease.state = LeaseState::Held;
            let latency = grant.ready_at.saturating_since(grant.requested_at);
            self.provision_latency.record(latency);
        }
        ready
    }

    /// Takes the leases of `tenant` that node failures revoked since its
    /// last call, provisioning ones included. Their slices are already
    /// free; the middleware treats the members on them as crashed.
    pub fn take_revocations(&mut self, tenant: TenantId) -> Vec<LeaseId> {
        std::mem::take(&mut self.revoked[tenant.0])
    }

    /// Ends a held lease: its slice returns to the free pool ("this slice is
    /// then available to other elastic objects in the cluster, or for
    /// subsequent use by the same elastic object", §2.5). While the master
    /// is down the release is deferred: the lease ends now, and its slice is
    /// freed by the first request or release after the master recovers.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::StaleLease`], and frees nothing, if the lease
    /// is not held: still provisioning, or already revoked or released.
    pub fn release(&mut self, lease: LeaseId, now: SimTime) -> Result<(), ClusterError> {
        if self.leases.get(&lease).map(|l| l.state) != Some(LeaseState::Held) {
            return Err(ClusterError::StaleLease(lease));
        }
        if self.check_master(now).is_err() {
            self.leases.get_mut(&lease).expect("checked above").state = LeaseState::ReleaseDeferred;
            self.deferred.push(lease);
            return Ok(());
        }
        self.accrue_occupancy(now);
        let ended = self.leases.remove(&lease).expect("checked above");
        self.free.push(ended.grant.slice);
        self.refresh_alerts(now);
        Ok(())
    }

    /// Fails a whole node: every lease on it ends, its slices go back to
    /// the inventory, and they cannot be granted until
    /// [`ResourceManager::repair_node`]. Each tenant collects its revoked
    /// leases with [`ResourceManager::take_revocations`]; a lease whose
    /// release was deferred is no longer its tenant's and is not reported.
    pub fn fail_node(&mut self, node: NodeId) {
        self.failed_nodes.insert(node);
        // Slices go back in slice order for held leases, then in ready
        // order for provisioning ones: later grants pop this free list, so
        // the order keeps crash recovery deterministic per seed.
        let mut lost: Vec<(Option<SimTime>, u64, LeaseId)> = self
            .leases
            .iter()
            .filter(|(_, l)| l.grant.node == node)
            .map(|(&id, l)| match l.state {
                LeaseState::Provisioning => (Some(l.grant.ready_at), id.0, id),
                _ => (None, l.grant.slice.0, id),
            })
            .collect();
        lost.sort_unstable();
        for (_, _, id) in lost {
            let lease = self.leases.remove(&id).expect("a lost lease is live");
            self.free.push(lease.grant.slice); // back in inventory, ungrantable until repair
            if lease.state != LeaseState::ReleaseDeferred {
                self.revoked[lease.tenant.0].push(id);
            }
        }
    }

    /// Returns a failed node to service; its slices become grantable again.
    pub fn repair_node(&mut self, node: NodeId) {
        self.failed_nodes.remove(&node);
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
        if !self.master_available(now) {
            return Err(ClusterError::MasterDown);
        }
        if self.master_down_until.take().is_some() {
            // Recovery frees the deferred releases' slices, except those a
            // node failure already freed.
            for id in std::mem::take(&mut self.deferred) {
                if let Some(lease) = self.leases.remove(&id) {
                    self.free.push(lease.grant.slice);
                }
            }
        }
        Ok(())
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

    fn small_cluster(provisioning: LatencyModel) -> (ResourceManager, TenantId) {
        let mut c = ResourceManager::new(ClusterConfig {
            nodes: 4,
            slices_per_node: 2,
            provisioning,
            ..ClusterConfig::default()
        });
        let tenant = c.add_tenant();
        (c, tenant)
    }

    fn instant_cluster() -> (ResourceManager, TenantId) {
        small_cluster(LatencyModel::instant())
    }

    #[test]
    fn grants_all_when_capacity_allows() {
        let (mut c, t) = instant_cluster();
        let out = c.request_slices(t, 5, SimTime::ZERO).unwrap();
        assert_eq!(out.granted, 5);
        assert_eq!(c.take_ready(t, SimTime::ZERO).len(), 5);
        assert_eq!(c.slices_in_use(), 5);
        assert_eq!(c.free_slices(), 3);
    }

    #[test]
    fn grants_l_less_than_k_when_short() {
        // Paper §4.2: "If only l < k are available, then only l objects are
        // created."
        let (mut c, t) = instant_cluster();
        let out = c.request_slices(t, 100, SimTime::ZERO).unwrap();
        assert_eq!(out.granted, 8);
        assert_eq!(out.requested, 100);
        assert_eq!(c.free_slices(), 0);
    }

    #[test]
    fn provisioning_latency_delays_readiness() {
        let (mut c, t) = small_cluster(LatencyModel::Fixed(SimDuration::from_secs(20)));
        c.request_slices(t, 2, SimTime::ZERO).unwrap();
        assert!(c.take_ready(t, SimTime::from_secs(19)).is_empty());
        let ready = c.take_ready(t, SimTime::from_secs(20));
        assert_eq!(ready.len(), 2);
        assert!(ready.iter().all(|g| g.requested_at == SimTime::ZERO));
    }

    #[test]
    fn a_tenant_takes_only_its_own_grants_and_revocations() {
        let (mut c, mine) = instant_cluster();
        let theirs = c.add_tenant();
        let asked = c.request_slices(mine, 2, SimTime::ZERO).unwrap();
        c.request_slices(theirs, 3, SimTime::ZERO).unwrap();
        let at = SimTime::from_secs(1);
        assert_eq!(c.pending_of(mine, |_| true), 2);
        let got = c.take_ready(mine, at);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|g| g.request_id == asked.request_id));
        assert!(c.take_ready(mine, at).is_empty());
        // The other tenant's grants were left for it, none lost.
        assert_eq!(c.pending_of(theirs, |_| true), 3);
        assert_eq!(c.take_ready(theirs, at).len(), 3);
        assert_eq!(c.slices_in_use(), 5);
        // Node 0 holds both of mine: its failure is reported to me alone.
        c.fail_node(NodeId(0));
        assert!(c.take_revocations(theirs).is_empty());
        let revoked = c.take_revocations(mine);
        assert_eq!(revoked, got.iter().map(|g| g.lease).collect::<Vec<_>>());
    }

    #[test]
    fn telemetry_records_offers_and_provision_latency() {
        use erm_metrics::{MetricsHandle, TraceHandle, TraceSink};
        let sink = std::sync::Arc::new(TraceSink::new(64));
        let (metrics, registry) = MetricsHandle::shared();
        let (mut c, t) = small_cluster(LatencyModel::Fixed(SimDuration::from_secs(20)));
        c.set_telemetry(TraceHandle::new(std::sync::Arc::clone(&sink)), &metrics);

        c.request_slices(t, 2, SimTime::ZERO).unwrap();
        assert_eq!(c.take_ready(t, SimTime::from_secs(20)).len(), 2);

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
        let (mut c, t) = instant_cluster();
        c.request_slices(t, 8, SimTime::ZERO).unwrap();
        let grants = c.take_ready(t, SimTime::ZERO);
        c.release(grants[0].lease, SimTime::from_secs(1)).unwrap();
        assert_eq!(c.free_slices(), 1);
        let out = c.request_slices(t, 1, SimTime::from_secs(2)).unwrap();
        assert_eq!(out.granted, 1);
        let again = c.take_ready(t, SimTime::from_secs(2));
        assert_eq!(again[0].slice, grants[0].slice);
        assert_ne!(again[0].lease, grants[0].lease, "a new grant, a new lease");
    }

    #[test]
    fn a_stale_release_frees_nothing() {
        let (mut c, t) = instant_cluster();
        c.request_slices(t, 1, SimTime::ZERO).unwrap();
        let old = c.take_ready(t, SimTime::ZERO)[0];
        c.release(old.lease, SimTime::from_secs(1)).unwrap();
        // The slice goes to a new lease; the old one cannot free it.
        c.request_slices(t, 1, SimTime::from_secs(2)).unwrap();
        let new = c.take_ready(t, SimTime::from_secs(2))[0];
        assert_eq!(new.slice, old.slice);
        let err = c.release(old.lease, SimTime::from_secs(3)).unwrap_err();
        assert_eq!(err, ClusterError::StaleLease(old.lease));
        assert_eq!((c.slices_in_use(), c.free_slices()), (1, 7));
    }

    #[test]
    fn each_slice_granted_at_most_once() {
        let (mut c, t) = instant_cluster();
        c.request_slices(t, 8, SimTime::ZERO).unwrap();
        let grants = c.take_ready(t, SimTime::ZERO);
        let mut ids: Vec<_> = grants.iter().map(|g| g.slice).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 8, "no slice may host two objects");
    }

    #[test]
    fn node_mapping_groups_slices() {
        let (c, _) = instant_cluster();
        assert_eq!(c.node_of(SliceId(0)), NodeId(0));
        assert_eq!(c.node_of(SliceId(1)), NodeId(0));
        assert_eq!(c.node_of(SliceId(2)), NodeId(1));
    }

    #[test]
    fn master_failure_blocks_requests_until_recovery() {
        let (mut c, t) = instant_cluster();
        c.fail_master_until(SimTime::from_secs(100));
        assert_eq!(
            c.request_slices(t, 1, SimTime::from_secs(50)).unwrap_err(),
            ClusterError::MasterDown
        );
        assert!(!c.master_available(SimTime::from_secs(50)));
        let out = c.request_slices(t, 1, SimTime::from_secs(100)).unwrap();
        assert_eq!(out.granted, 1);
    }

    #[test]
    fn releases_during_outage_are_deferred() {
        let (mut c, t) = instant_cluster();
        c.request_slices(t, 2, SimTime::ZERO).unwrap();
        let grants = c.take_ready(t, SimTime::ZERO);
        c.fail_master_until(SimTime::from_secs(100));
        c.release(grants[0].lease, SimTime::from_secs(10)).unwrap();
        // Not free during the outage, and no longer held.
        assert_eq!((c.free_slices(), c.slices_in_use()), (6, 1));
        // First post-recovery operation applies the deferred release.
        c.request_slices(t, 0, SimTime::from_secs(200)).unwrap();
        assert_eq!(c.free_slices(), 7);
    }

    #[test]
    fn a_deferred_release_on_a_failed_node_is_freed_once() {
        // Regression: the release deferred by the outage and the node
        // failure both freed the slice, so recovery listed it free twice
        // and the free list outgrew the cluster.
        let (mut c, t) = instant_cluster();
        c.request_slices(t, 8, SimTime::ZERO).unwrap();
        let grants = c.take_ready(t, SimTime::ZERO);
        c.fail_master_until(SimTime::from_secs(100));
        c.release(grants[0].lease, SimTime::from_secs(10)).unwrap();
        c.fail_node(grants[0].node);
        assert_eq!(
            c.take_revocations(t),
            vec![grants[1].lease],
            "the released lease is not the tenant's to lose"
        );
        c.repair_node(grants[0].node);
        c.request_slices(t, 0, SimTime::from_secs(200)).unwrap();
        assert_eq!(c.free_slices(), 2);
        assert_eq!(c.utilization(), 0.75);
        assert_eq!(
            c.request_slices(t, 8, SimTime::from_secs(201))
                .unwrap()
                .granted,
            2
        );
        let mut regranted: Vec<SliceId> = c
            .take_ready(t, SimTime::from_secs(201))
            .iter()
            .map(|g| g.slice)
            .collect();
        regranted.sort();
        assert_eq!(regranted, vec![grants[0].slice, grants[1].slice]);
        assert_eq!(c.free_slices(), 0);
    }

    #[test]
    fn admin_alerts_fire_on_threshold_crossings() {
        let (mut c, t) = instant_cluster();
        c.set_admin_thresholds(0.2, 0.8);
        c.request_slices(t, 7, SimTime::ZERO).unwrap(); // 7/8 = 0.875 > 0.8
        let alerts = c.drain_alerts();
        assert!(matches!(alerts[0], AdminAlert::HighUtilization { .. }));
        let grants = c.take_ready(t, SimTime::ZERO);
        for g in &grants {
            c.release(g.lease, SimTime::from_secs(1)).unwrap();
        }
        let alerts = c.drain_alerts();
        assert!(alerts
            .iter()
            .any(|a| matches!(a, AdminAlert::LowUtilization { .. })));
    }

    #[test]
    fn alerts_do_not_repeat_while_level_persists() {
        let (mut c, t) = instant_cluster();
        c.set_admin_thresholds(0.0, 0.5);
        c.request_slices(t, 5, SimTime::ZERO).unwrap();
        c.request_slices(t, 1, SimTime::from_secs(1)).unwrap();
        let alerts = c.drain_alerts();
        assert_eq!(alerts.len(), 1, "one alert per crossing, not per poll");
    }

    #[test]
    fn failed_node_revokes_its_slices() {
        let (mut c, t) = instant_cluster();
        c.request_slices(t, 4, SimTime::ZERO).unwrap();
        let grants = c.take_ready(t, SimTime::ZERO);
        let node0: Vec<LeaseId> = grants
            .iter()
            .filter(|g| g.node == NodeId(0))
            .map(|g| g.lease)
            .collect();
        assert!(!node0.is_empty());
        c.fail_node(NodeId(0));
        assert_eq!(c.take_revocations(t), node0);
        // Second take is empty, and a revoked lease cannot be released.
        assert!(c.take_revocations(t).is_empty());
        let free = c.free_slices();
        assert!(c.release(node0[0], SimTime::from_secs(1)).is_err());
        assert_eq!(c.free_slices(), free);
    }

    #[test]
    fn failed_node_slices_are_not_granted_until_repair() {
        let (mut c, t) = instant_cluster(); // 4 nodes x 2 slices
        c.fail_node(NodeId(0));
        let out = c.request_slices(t, 8, SimTime::ZERO).unwrap();
        assert_eq!(out.granted, 6, "two slices of the failed node withheld");
        for g in c.take_ready(t, SimTime::ZERO) {
            assert_ne!(g.node, NodeId(0));
        }
        c.repair_node(NodeId(0));
        let out = c.request_slices(t, 8, SimTime::ZERO).unwrap();
        assert_eq!(out.granted, 2, "repaired node's slices grantable again");
    }

    #[test]
    fn node_failure_revokes_pending_provisioning_too() {
        let (mut c, t) = small_cluster(LatencyModel::Fixed(SimDuration::from_secs(60)));
        c.request_slices(t, 8, SimTime::ZERO).unwrap();
        c.fail_node(NodeId(1));
        assert_eq!(c.pending_of(t, |_| true), 6);
        let revoked = c.take_revocations(t);
        assert_eq!(revoked.len(), 2, "both provisioning slices of node 1");
        // Remaining grants still arrive on schedule.
        let ready = c.take_ready(t, SimTime::from_secs(60));
        assert_eq!(ready.len(), 6);
        assert!(ready.iter().all(|g| !revoked.contains(&g.lease)));
    }

    #[test]
    fn reserved_slice_seconds_integrates_occupancy() {
        let (mut c, t) = instant_cluster();
        assert_eq!(c.reserved_slice_seconds(SimTime::from_secs(10)), 0.0);
        c.request_slices(t, 2, SimTime::from_secs(10)).unwrap();
        let grants = c.take_ready(t, SimTime::from_secs(10));
        // Two slices held for five seconds.
        assert_eq!(c.reserved_slice_seconds(SimTime::from_secs(15)), 10.0);
        c.release(grants[0].lease, SimTime::from_secs(15)).unwrap();
        // ... then one slice for five more.
        assert_eq!(c.reserved_slice_seconds(SimTime::from_secs(20)), 15.0);
    }

    #[test]
    fn utilization_counts_pending_provisioning() {
        let (mut c, t) = small_cluster(LatencyModel::Fixed(SimDuration::from_secs(60)));
        c.request_slices(t, 4, SimTime::ZERO).unwrap();
        assert_eq!(c.utilization(), 0.5);
        assert_eq!(c.slices_in_use(), 0, "not ready yet, but reserved");
        assert_eq!(c.pending_slices(), 4);
    }
}
