//! Integration tests of the pool lifecycle: instantiation (including the
//! `l < k` degraded case), elastic growth and shrink through the real
//! runtime, the drain protocol, and clean shutdown (slice reuse).

mod common;

use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::Arc;

use common::{fast_deps, pool_with, wait_until};
use elasticrmi::{
    encode_result, ClientLb, ElasticPool, ElasticService, MethodCallStats, PoolConfig, PoolError,
    RemoteError, ScalingPolicy, ServiceContext,
};
use erm_cluster::{ClusterConfig, ClusterHandle, LatencyModel, ResourceManager};
use erm_kvstore::{Store, StoreConfig};
use erm_metrics::{MetricsHandle, TraceHandle};
use erm_sim::{SimDuration, SystemClock, VirtualClock};
use erm_transport::InProcNetwork;

/// A service whose fine-grained vote is dictated by the test through a
/// shared atomic — a puppet `changePoolSize`.
struct Puppet {
    vote: Arc<AtomicI32>,
}

impl ElasticService for Puppet {
    fn dispatch(
        &mut self,
        method: &str,
        _args: &[u8],
        ctx: &mut ServiceContext,
    ) -> Result<Vec<u8>, RemoteError> {
        match method {
            "pool_size" => encode_result(&ctx.pool_size()),
            "uid" => encode_result(&ctx.uid()),
            other => Err(RemoteError::no_such_method(other)),
        }
    }

    fn change_pool_size(&mut self, _stats: &MethodCallStats, _ctx: &mut ServiceContext) -> i32 {
        self.vote.load(Ordering::SeqCst)
    }
}

fn puppet_pool(min: u32, max: u32) -> (ElasticPool, Arc<AtomicI32>) {
    let vote = Arc::new(AtomicI32::new(0));
    let factory_vote = Arc::clone(&vote);
    let config = PoolConfig::builder("Puppet")
        .min_pool_size(min)
        .max_pool_size(max)
        .policy(ScalingPolicy::FineGrained)
        .burst_interval(SimDuration::from_millis(100))
        .build()
        .unwrap();
    let (pool, _deps) = pool_with(
        config,
        Arc::new(move || {
            Box::new(Puppet {
                vote: Arc::clone(&factory_vote),
            })
        }),
    );
    (pool, vote)
}

#[test]
fn pool_starts_at_min_size() {
    let (mut pool, _vote) = puppet_pool(3, 8);
    assert_eq!(pool.size(), 3);
    assert_eq!(pool.members().len(), 3);
    pool.shutdown();
}

#[test]
fn instantiate_returns_with_the_first_view_broadcast() {
    // The stub's first view comes from the sentinel, which has it from the
    // runtime's first broadcast: `instantiate` must not return before that
    // broadcast is queued, or a stub connecting at once sees no members.
    for run in 0..200 {
        let (mut pool, _vote) = puppet_pool(3, 6);
        let stub = pool.stub(ClientLb::RoundRobin).unwrap();
        assert_eq!(stub.members().len(), 3, "run {run}: {:?}", stub.members());
        pool.shutdown();
    }
}

#[test]
fn provisioning_past_the_bound_fails_instantiation() {
    // Grants take 60 s of sim time; `instantiate` gives up 30 s after it
    // asked, once a helper moves the virtual clock 31 s past the request.
    let clock = VirtualClock::new();
    let mut deps = fast_deps();
    deps.cluster = ClusterHandle::new(ResourceManager::new(ClusterConfig {
        nodes: 4,
        slices_per_node: 1,
        provisioning: LatencyModel::Fixed(SimDuration::from_secs(60)),
        ..ClusterConfig::default()
    }));
    deps.clock = Arc::new(clock.clone());
    let cluster = deps.cluster.clone();
    let advancer = std::thread::spawn(move || {
        // The request is made after `instantiate` read the clock.
        assert!(wait_until(10, || cluster.free_slices() < 4));
        clock.advance(SimDuration::from_secs(31));
    });
    // `instantiate` returns its error only after dropping the pool, which
    // joins the pool thread: a hang in either shows as no answer here.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let vote = Arc::new(AtomicI32::new(0));
        let config = PoolConfig::builder("Puppet").build().unwrap();
        let factory = Arc::new(move || {
            Box::new(Puppet {
                vote: Arc::clone(&vote),
            }) as Box<dyn ElasticService>
        });
        let _ = tx.send(ElasticPool::instantiate(config, factory, deps, None).map(drop));
    });
    let outcome = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("instantiate returns once the bound has passed");
    assert!(
        matches!(outcome, Err(PoolError::Cluster(_))),
        "got {outcome:?}"
    );
    advancer.join().unwrap();
}

#[test]
fn fine_grained_votes_grow_the_pool() {
    let (mut pool, vote) = puppet_pool(2, 8);
    vote.store(2, Ordering::SeqCst);
    assert!(
        wait_until(10, || pool.size() >= 6),
        "pool should grow by ~2 per 100ms burst, size {}",
        pool.size()
    );
    // Growth respects the maximum.
    assert!(wait_until(10, || pool.size() == 8));
    std::thread::sleep(std::time::Duration::from_millis(300));
    assert_eq!(pool.size(), 8, "must not exceed max_pool_size");
    assert!(pool.stats().grown >= 6);
    pool.shutdown();
}

#[test]
fn negative_votes_shrink_to_min() {
    let (mut pool, vote) = puppet_pool(2, 8);
    vote.store(3, Ordering::SeqCst);
    assert!(wait_until(10, || pool.size() == 8));
    vote.store(-2, Ordering::SeqCst);
    assert!(
        wait_until(15, || pool.size() == 2),
        "pool should drain back to min, size {}",
        pool.size()
    );
    std::thread::sleep(std::time::Duration::from_millis(300));
    assert_eq!(pool.size(), 2, "must not undershoot min_pool_size");
    let stats = pool.stats();
    assert!(stats.shrunk >= 6, "shrunk {}", stats.shrunk);
    assert_eq!(stats.crashed, 0);
    pool.shutdown();
}

#[test]
fn invocations_keep_succeeding_across_scaling() {
    let (mut pool, vote) = puppet_pool(2, 6);
    let mut stub = pool.stub(ClientLb::RoundRobin).unwrap();
    vote.store(1, Ordering::SeqCst);
    let mut ok = 0u32;
    for _ in 0..200 {
        let _: u32 = stub.invoke("pool_size", &()).unwrap();
        ok += 1;
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert_eq!(ok, 200, "no invocation may be lost during scaling");
    assert!(pool.size() > 2, "pool grew while serving");
    pool.shutdown();
}

#[test]
fn degraded_instantiation_l_less_than_k() {
    // Paper §4.2: ask for k, get l < k, run with l.
    let deps = elasticrmi::PoolDeps {
        cluster: ClusterHandle::new(ResourceManager::new(ClusterConfig {
            nodes: 3,
            slices_per_node: 1,
            provisioning: LatencyModel::instant(),
            ..ClusterConfig::default()
        })),
        net: Arc::new(InProcNetwork::new()),
        store: Arc::new(Store::new(StoreConfig::default())),
        clock: Arc::new(SystemClock::new()),
        trace: TraceHandle::disabled(),
        metrics: MetricsHandle::disabled(),
    };
    let vote = Arc::new(AtomicI32::new(0));
    let fv = Arc::clone(&vote);
    let config = PoolConfig::builder("Puppet")
        .min_pool_size(5)
        .max_pool_size(10)
        .build()
        .unwrap();
    let mut pool = ElasticPool::instantiate(
        config,
        Arc::new(move || {
            Box::new(Puppet {
                vote: Arc::clone(&fv),
            })
        }),
        deps,
        None,
    )
    .unwrap();
    assert!(wait_until(5, || pool.size() == 3));
    let mut stub = pool.stub(ClientLb::RoundRobin).unwrap();
    let n: u32 = stub.invoke("pool_size", &()).unwrap();
    assert_eq!(n, 3, "pool serves with the l it got");
    pool.shutdown();
}

#[test]
fn empty_cluster_fails_instantiation() {
    let deps = elasticrmi::PoolDeps {
        cluster: ClusterHandle::new(ResourceManager::new(ClusterConfig {
            nodes: 1,
            slices_per_node: 1,
            provisioning: LatencyModel::instant(),
            ..ClusterConfig::default()
        })),
        net: Arc::new(InProcNetwork::new()),
        store: Arc::new(Store::new(StoreConfig::default())),
        clock: Arc::new(SystemClock::new()),
        trace: TraceHandle::disabled(),
        metrics: MetricsHandle::disabled(),
    };
    // Exhaust the only slice first.
    deps.cluster
        .request_slices(1, erm_sim::SimTime::ZERO)
        .unwrap();
    let config = PoolConfig::builder("Puppet").build().unwrap();
    let vote = Arc::new(AtomicI32::new(0));
    let err = ElasticPool::instantiate(
        config,
        Arc::new(move || {
            Box::new(Puppet {
                vote: Arc::clone(&vote),
            })
        }),
        deps,
        None,
    )
    .unwrap_err();
    assert_eq!(err, PoolError::NoCapacity);
}

#[test]
fn shutdown_releases_every_slice() {
    let deps = fast_deps();
    let total_free = deps.cluster.free_slices();
    let vote = Arc::new(AtomicI32::new(0));
    let fv = Arc::clone(&vote);
    let config = PoolConfig::builder("Puppet")
        .min_pool_size(4)
        .max_pool_size(8)
        .build()
        .unwrap();
    let mut pool = ElasticPool::instantiate(
        config,
        Arc::new(move || {
            Box::new(Puppet {
                vote: Arc::clone(&fv),
            })
        }),
        deps.clone(),
        None,
    )
    .unwrap();
    assert!(wait_until(5, || deps.cluster.free_slices() == total_free - 4));
    pool.shutdown();
    assert!(
        wait_until(5, || deps.cluster.free_slices() == total_free),
        "slices must return to the cluster on shutdown ({} of {total_free} free)",
        deps.cluster.free_slices()
    );
}

#[test]
fn slices_are_reusable_by_a_second_pool() {
    // "This slice is then available to other elastic objects" (§2.5).
    let deps = fast_deps();
    let mk = |deps: &elasticrmi::PoolDeps| {
        let vote = Arc::new(AtomicI32::new(0));
        let fv = Arc::clone(&vote);
        ElasticPool::instantiate(
            PoolConfig::builder("Puppet")
                .min_pool_size(4)
                .max_pool_size(4)
                .build()
                .unwrap(),
            Arc::new(move || {
                Box::new(Puppet {
                    vote: Arc::clone(&fv),
                })
            }),
            deps.clone(),
            None,
        )
        .unwrap()
    };
    let mut first = mk(&deps);
    first.shutdown();
    let mut second = mk(&deps);
    assert_eq!(second.size(), 4);
    let mut stub = second.stub(ClientLb::RoundRobin).unwrap();
    let n: u32 = stub.invoke("pool_size", &()).unwrap();
    assert_eq!(n, 4);
    second.shutdown();
}

#[test]
fn pool_size_is_visible_to_services() {
    let (mut pool, _vote) = puppet_pool(3, 6);
    let mut stub = pool.stub(ClientLb::RoundRobin).unwrap();
    let n: u32 = stub.invoke("pool_size", &()).unwrap();
    assert_eq!(n, 3, "getPoolSize() inside the service sees the real size");
    pool.shutdown();
}

#[test]
fn app_level_decider_dictates_pool_size() {
    // §3.3: "ElasticRMI also supports decision making at the level of the
    // application using the Decider class." The decider sees the aggregated
    // sample and returns the desired size; the runtime realizes it.
    use std::sync::atomic::AtomicU32 as TargetCell;
    let target = Arc::new(TargetCell::new(2));
    let decider_target = Arc::clone(&target);
    let decider =
        move |_sample: &elasticrmi::PoolSample| -> u32 { decider_target.load(Ordering::SeqCst) };
    let vote = Arc::new(AtomicI32::new(0));
    let fv = Arc::clone(&vote);
    let config = PoolConfig::builder("Puppet")
        .min_pool_size(2)
        .max_pool_size(10)
        .policy(ScalingPolicy::AppLevel)
        .burst_interval(erm_sim::SimDuration::from_millis(100))
        .build()
        .unwrap();
    let deps = fast_deps();
    let mut pool = ElasticPool::instantiate(
        config,
        Arc::new(move || {
            Box::new(Puppet {
                vote: Arc::clone(&fv),
            })
        }),
        deps,
        Some(Box::new(decider)),
    )
    .unwrap();
    assert_eq!(pool.size(), 2);
    target.store(6, Ordering::SeqCst);
    assert!(
        wait_until(10, || pool.size() == 6),
        "decider target 6, size {}",
        pool.size()
    );
    target.store(3, Ordering::SeqCst);
    assert!(
        wait_until(15, || pool.size() == 3),
        "decider target 3, size {}",
        pool.size()
    );
    pool.shutdown();
}

#[test]
#[should_panic(expected = "Decider must be supplied iff")]
fn app_level_without_decider_is_rejected() {
    let vote = Arc::new(AtomicI32::new(0));
    let config = PoolConfig::builder("Puppet")
        .policy(ScalingPolicy::AppLevel)
        .build()
        .unwrap();
    let _ = ElasticPool::instantiate(
        config,
        Arc::new(move || {
            Box::new(Puppet {
                vote: Arc::clone(&vote),
            })
        }),
        fast_deps(),
        None,
    );
}
