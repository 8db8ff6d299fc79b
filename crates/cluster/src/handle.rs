//! Shared, internally-locked handle to a [`ResourceManager`].

use std::sync::Arc;

use erm_sim::SimTime;
use parking_lot::Mutex;

use crate::manager::{
    AdminAlert, ClusterError, LeaseId, NodeId, RequestOutcome, ResourceManager, SliceGrant,
    TenantId,
};

/// A cloneable handle to a shared [`ResourceManager`].
///
/// The manager itself is a plain single-threaded state machine; the pool
/// runtime, fault-injection harnesses, and tests all poke at the same
/// instance from different threads. `ClusterHandle` owns that sharing: it
/// wraps the manager in an `Arc<Mutex<..>>` internally and exposes the
/// manager's API as short, self-locking methods, so callers never handle a
/// guard (or a deadlock) themselves.
///
/// # Example
///
/// ```
/// use erm_cluster::{ClusterConfig, ClusterHandle, ResourceManager};
/// use erm_sim::SimTime;
///
/// let cluster = ClusterHandle::new(ResourceManager::new(ClusterConfig::default()));
/// let worker = cluster.clone(); // same underlying manager
/// let tenant = worker.add_tenant();
/// worker.request_slices(tenant, 2, SimTime::ZERO).unwrap();
/// assert!(cluster.free_slices() < cluster.total_slices());
/// assert_eq!(cluster.pending_of(tenant, |_| true), 2);
/// ```
#[derive(Clone)]
pub struct ClusterHandle {
    inner: Arc<Mutex<ResourceManager>>,
}

impl ClusterHandle {
    /// Wraps `manager` for shared use.
    pub fn new(manager: ResourceManager) -> Self {
        ClusterHandle {
            inner: Arc::new(Mutex::new(manager)),
        }
    }

    /// Runs `f` with exclusive access to the manager, for call sequences
    /// that must be atomic or APIs without a delegating method.
    pub fn with<R>(&self, f: impl FnOnce(&mut ResourceManager) -> R) -> R {
        f(&mut self.inner.lock())
    }

    /// See [`ResourceManager::set_telemetry`].
    pub fn set_telemetry(
        &self,
        trace: erm_metrics::TraceHandle,
        metrics: &erm_metrics::MetricsHandle,
    ) {
        self.inner.lock().set_telemetry(trace, metrics);
    }

    /// See [`ResourceManager::add_tenant`].
    pub fn add_tenant(&self) -> TenantId {
        self.inner.lock().add_tenant()
    }

    /// See [`ResourceManager::request_slices`].
    pub fn request_slices(
        &self,
        tenant: TenantId,
        n: u32,
        now: SimTime,
    ) -> Result<RequestOutcome, ClusterError> {
        self.inner.lock().request_slices(tenant, n, now)
    }

    /// See [`ResourceManager::take_ready`].
    pub fn take_ready(&self, tenant: TenantId, now: SimTime) -> Vec<SliceGrant> {
        self.inner.lock().take_ready(tenant, now)
    }

    /// See [`ResourceManager::take_revocations`].
    pub fn take_revocations(&self, tenant: TenantId) -> Vec<LeaseId> {
        self.inner.lock().take_revocations(tenant)
    }

    /// See [`ResourceManager::release`].
    pub fn release(&self, lease: LeaseId, now: SimTime) -> Result<(), ClusterError> {
        self.inner.lock().release(lease, now)
    }

    /// See [`ResourceManager::pending_of`].
    pub fn pending_of(&self, tenant: TenantId, requests: impl Fn(u64) -> bool) -> u32 {
        self.inner.lock().pending_of(tenant, requests)
    }

    /// See [`ResourceManager::total_slices`].
    pub fn total_slices(&self) -> usize {
        self.inner.lock().total_slices()
    }

    /// See [`ResourceManager::free_slices`].
    pub fn free_slices(&self) -> usize {
        self.inner.lock().free_slices()
    }

    /// See [`ResourceManager::slices_in_use`].
    pub fn slices_in_use(&self) -> usize {
        self.inner.lock().slices_in_use()
    }

    /// See [`ResourceManager::pending_slices`].
    pub fn pending_slices(&self) -> usize {
        self.inner.lock().pending_slices()
    }

    /// See [`ResourceManager::utilization`].
    pub fn utilization(&self) -> f64 {
        self.inner.lock().utilization()
    }

    /// See [`ResourceManager::fail_node`].
    pub fn fail_node(&self, node: NodeId) {
        self.inner.lock().fail_node(node);
    }

    /// See [`ResourceManager::repair_node`].
    pub fn repair_node(&self, node: NodeId) {
        self.inner.lock().repair_node(node);
    }

    /// See [`ResourceManager::fail_master_until`].
    pub fn fail_master_until(&self, until: SimTime) {
        self.inner.lock().fail_master_until(until);
    }

    /// See [`ResourceManager::master_available`].
    pub fn master_available(&self, now: SimTime) -> bool {
        self.inner.lock().master_available(now)
    }

    /// See [`ResourceManager::set_admin_thresholds`].
    pub fn set_admin_thresholds(&self, low: f64, high: f64) {
        self.inner.lock().set_admin_thresholds(low, high);
    }

    /// See [`ResourceManager::drain_alerts`].
    pub fn drain_alerts(&self) -> Vec<AdminAlert> {
        self.inner.lock().drain_alerts()
    }
}

impl std::fmt::Debug for ClusterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterHandle")
            .field("total_slices", &self.total_slices())
            .field("free_slices", &self.free_slices())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::ClusterConfig;
    use crate::LatencyModel;

    fn handle() -> ClusterHandle {
        ClusterHandle::new(ResourceManager::new(ClusterConfig {
            nodes: 4,
            slices_per_node: 2,
            provisioning: LatencyModel::instant(),
            ..ClusterConfig::default()
        }))
    }

    #[test]
    fn clones_share_one_manager() {
        let a = handle();
        let b = a.clone();
        let tenant = a.add_tenant();
        a.request_slices(tenant, 3, SimTime::ZERO).unwrap();
        assert_eq!(b.free_slices(), b.total_slices() - 3);
        assert_eq!(b.take_ready(tenant, SimTime::ZERO).len(), 3);
    }

    #[test]
    fn with_gives_exclusive_access() {
        let cluster = handle();
        let tenant = cluster.add_tenant();
        cluster.request_slices(tenant, 1, SimTime::ZERO).unwrap();
        let ready = cluster.with(|m| m.take_ready(tenant, SimTime::from_secs(1)));
        assert_eq!(ready.len(), 1);
        cluster
            .release(ready[0].lease, SimTime::from_secs(2))
            .unwrap();
        assert_eq!(cluster.slices_in_use(), 0);
    }

    #[test]
    fn delegates_failure_injection() {
        let cluster = handle();
        let tenant = cluster.add_tenant();
        cluster.request_slices(tenant, 2, SimTime::ZERO).unwrap();
        cluster.take_ready(tenant, SimTime::from_secs(1));
        let grants = cluster.with(|m| m.slices_in_use());
        assert_eq!(grants, 2);
        cluster.fail_node(NodeId(0));
        assert_eq!(cluster.take_revocations(tenant).len(), 2);
        cluster.fail_master_until(SimTime::from_secs(10));
        assert!(!cluster.master_available(SimTime::from_secs(5)));
        assert!(cluster.master_available(SimTime::from_secs(10)));
    }
}
