//! Shared fixtures for the integration tests: a fast in-process deployment
//! (instant provisioning, short burst intervals) hosting any service.

// Each test binary compiles this module separately and uses a subset of it.
#![allow(dead_code)]

use std::sync::Arc;

use elasticrmi::{ElasticPool, PoolConfig, PoolDeps, ServiceFactory};
use erm_cluster::{ClusterConfig, ClusterHandle, LatencyModel, ResourceManager};
use erm_kvstore::{Store, StoreConfig};
use erm_metrics::{MetricsHandle, TraceHandle};
use erm_sim::SystemClock;
use erm_transport::InProcNetwork;

/// A ready-to-use set of substrates with instant provisioning.
pub fn fast_deps() -> PoolDeps {
    PoolDeps {
        cluster: ClusterHandle::new(ResourceManager::new(ClusterConfig {
            nodes: 64,
            slices_per_node: 1,
            provisioning: LatencyModel::instant(),
            ..ClusterConfig::default()
        })),
        net: Arc::new(InProcNetwork::new()),
        store: Arc::new(Store::new(StoreConfig::default())),
        clock: Arc::new(SystemClock::new()),
        trace: TraceHandle::disabled(),
        metrics: MetricsHandle::disabled(),
    }
}

/// Instantiates a pool on fresh fast deps.
pub fn pool_with(config: PoolConfig, factory: ServiceFactory) -> (ElasticPool, PoolDeps) {
    let deps = fast_deps();
    let pool = ElasticPool::instantiate(config, factory, deps.clone(), None)
        .expect("pool instantiates on instant cluster");
    (pool, deps)
}

/// Polls `cond` every 10 ms for up to `secs` seconds.
pub fn wait_until(secs: u64, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(secs);
    while std::time::Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    cond()
}

/// FNV-1a of `text`: the digest the golden tests pin rendered output by.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
