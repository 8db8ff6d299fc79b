//! Elasticity of the *threaded* runtime under actual request load: the
//! implicit CPU policy reacts to measured busy time, and the shared store
//! auto-scales with the pool (§4.2).

mod common;

use std::sync::Arc;

use common::{pool_with, wait_until};
use elasticrmi::{
    encode_result, ClientLb, ElasticService, MethodCallStats, PoolConfig, RemoteError,
    ScalingPolicy, ServiceContext,
};
use erm_sim::{SimDuration, SimTime};
use erm_workloads::{ArrivalProcess, PatternKind, Workload};

/// A service that burns ~2 ms of wall clock per call, so offered load maps
/// to busy fraction the way CPU utilization does on a real node.
struct SlowEcho;
impl ElasticService for SlowEcho {
    fn dispatch(
        &mut self,
        method: &str,
        _args: &[u8],
        ctx: &mut ServiceContext,
    ) -> Result<Vec<u8>, RemoteError> {
        match method {
            "work" => {
                std::thread::sleep(std::time::Duration::from_millis(2));
                encode_result(&ctx.uid())
            }
            other => Err(RemoteError::no_such_method(other)),
        }
    }
}

#[test]
fn implicit_policy_grows_under_sustained_load() {
    // 2 members × 2 ms/call saturate at ~1000 calls/s; we push enough
    // round-robin traffic that average busy fraction exceeds the implicit
    // 90% threshold, and the pool must grow without any explicit votes.
    let config = PoolConfig::builder("SlowEcho")
        .min_pool_size(2)
        .max_pool_size(6)
        .policy(ScalingPolicy::Implicit)
        .burst_interval(SimDuration::from_millis(200))
        .build()
        .unwrap();
    let (mut pool, _deps) = pool_with(config, Arc::new(|| Box::new(SlowEcho)));
    assert_eq!(pool.size(), 2);

    let grew = drive_until(&pool, 10, |size| size > 2);
    assert!(
        grew,
        "implicit CPU policy should add capacity, size {}",
        pool.size()
    );
    pool.shutdown();
}

/// Hammers the pool with 8 concurrent closed-loop clients until `done(size)`
/// or the timeout; returns whether the condition was met.
fn drive_until(pool: &elasticrmi::ElasticPool, secs: u64, done: impl Fn(u32) -> bool) -> bool {
    use std::sync::atomic::{AtomicBool, Ordering};
    let stop = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for c in 0..8u64 {
        let mut stub = pool.stub(ClientLb::Random { seed: c }).unwrap();
        stub.set_reply_timeout(erm_sim::SimDuration::from_secs(2));
        let stop = Arc::clone(&stop);
        clients.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let _: Result<u64, _> = stub.invoke("work", &());
            }
        }));
    }
    let ok = common::wait_until(secs, || done(pool.size()));
    stop.store(true, Ordering::Relaxed);
    for c in clients {
        let _ = c.join();
    }
    ok
}

#[test]
fn idle_pool_shrinks_back_under_implicit_policy() {
    let config = PoolConfig::builder("SlowEcho")
        .min_pool_size(2)
        .max_pool_size(6)
        .policy(ScalingPolicy::Implicit)
        .burst_interval(SimDuration::from_millis(150))
        .build()
        .unwrap();
    let (mut pool, _deps) = pool_with(config, Arc::new(|| Box::new(SlowEcho)));
    // Push hard to grow...
    let grew = drive_until(&pool, 10, |size| size >= 3);
    if grew {
        // ...then go silent: busy fraction falls below 60% and the pool
        // steps back down, one object per burst interval.
        assert!(
            wait_until(10, || pool.size() == 2),
            "idle pool should shrink to min, size {}",
            pool.size()
        );
    }
    pool.shutdown();
}

#[test]
fn a_pinned_pool_of_four_serves_more_than_one_and_a_half_times_a_pool_of_two() {
    // SlowEcho sleeps, so each member is 2 ms of real concurrency whatever
    // the core count: doubling the members must show on the wall clock.
    let (two, four) = (pinned_throughput(2), pinned_throughput(4));
    assert!(
        four > 1.5 * two,
        "4 members served {four:.0}/s, 2 members {two:.0}/s"
    );
}

/// Ok invocations per second a pinned pool of `members` SlowEchos serves
/// one pipelined stub that keeps 8 invocations per member outstanding for
/// 400 ms, counted until the last of them ends. Every begun invocation
/// must reach a terminal outcome.
fn pinned_throughput(members: u32) -> f64 {
    use std::time::{Duration, Instant};
    let config = PoolConfig::builder("SlowEcho")
        .min_pool_size(members)
        .max_pool_size(members)
        .build()
        .unwrap();
    let (mut pool, _deps) = pool_with(config, Arc::new(|| Box::new(SlowEcho)));
    let mut stub = pool.stub(ClientLb::RoundRobin).unwrap();
    stub.set_reply_timeout(SimDuration::from_secs(2));
    stub.set_invocation_budget(SimDuration::from_secs(2));
    let window = 8 * members as usize;
    let (mut begun, mut ended, mut ok) = (0usize, 0usize, 0u32);
    let start = Instant::now();
    let (stop, give_up) = (
        start + Duration::from_millis(400),
        start + Duration::from_secs(5),
    );
    while Instant::now() < give_up {
        while Instant::now() < stop && stub.in_flight() < window {
            stub.invoke_begin("work", &()).unwrap();
            begun += 1;
        }
        for (_, result) in stub.drain_completed() {
            ended += 1;
            ok += u32::from(result.is_ok());
        }
        if Instant::now() >= stop && stub.in_flight() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(ended, begun, "{members} members: every invocation ends");
    pool.shutdown();
    f64::from(ok) / elapsed
}

#[test]
fn store_scales_with_the_pool() {
    // §4.2: the runtime adds store nodes as the pool grows.
    use std::sync::atomic::{AtomicI32, Ordering};
    struct Voted(Arc<AtomicI32>);
    impl ElasticService for Voted {
        fn dispatch(
            &mut self,
            m: &str,
            _a: &[u8],
            _c: &mut ServiceContext,
        ) -> Result<Vec<u8>, RemoteError> {
            Err(RemoteError::no_such_method(m))
        }
        fn change_pool_size(&mut self, _s: &MethodCallStats, _c: &mut ServiceContext) -> i32 {
            self.0.load(Ordering::SeqCst)
        }
    }
    let vote = Arc::new(AtomicI32::new(0));
    let fv = Arc::clone(&vote);
    let config = PoolConfig::builder("Voted")
        .min_pool_size(2)
        .max_pool_size(20)
        .policy(ScalingPolicy::FineGrained)
        .burst_interval(SimDuration::from_millis(100))
        .build()
        .unwrap();
    let (mut pool, deps) = pool_with(config, Arc::new(move || Box::new(Voted(Arc::clone(&fv)))));
    assert_eq!(deps.store.nodes(), 1, "store starts on one node");
    vote.store(8, std::sync::atomic::Ordering::SeqCst);
    assert!(wait_until(15, || pool.size() == 20));
    assert!(
        deps.store.nodes() >= 3,
        "store should have grown with the pool, nodes {}",
        deps.store.nodes()
    );
    pool.shutdown();
}

#[test]
fn arrival_process_drives_a_real_pool() {
    // Open-loop: the Fig. 7a pattern (scaled down) generates request counts
    // per window, and every generated request executes on the pool.
    let config = PoolConfig::builder("SlowEcho")
        .min_pool_size(2)
        .max_pool_size(4)
        .build()
        .unwrap();
    let (mut pool, _deps) = pool_with(config, Arc::new(|| Box::new(SlowEcho)));
    let mut stub = pool.stub(ClientLb::RoundRobin).unwrap();
    stub.set_reply_timeout(erm_sim::SimDuration::from_secs(2));

    let workload = Workload::paper_pattern(PatternKind::Abrupt, 40.0); // tiny peak
    let mut arrivals = ArrivalProcess::new(workload, 7);
    let mut served = 0u64;
    // Sample three windows from different phases of the pattern.
    for minute in [0u64, 155, 225] {
        let n = arrivals.count_in(SimTime::from_minutes(minute), SimDuration::from_secs(1));
        for _ in 0..n.min(60) {
            let _: u64 = stub.invoke("work", &()).unwrap();
            served += 1;
        }
    }
    assert!(
        served > 0,
        "the pattern generated traffic and the pool served it"
    );
    pool.shutdown();
}
