//! Fault-tolerance integration tests (paper §4.4): member crashes, sentinel
//! re-election by lowest uid, error propagation to clients, and cluster
//! master outages that pause scaling without stopping service.

mod common;

use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::Arc;

use common::{pool_with, wait_until};
use elasticrmi::{
    decode_args, encode_result, ClientLb, ElasticService, MethodCallStats, PoolConfig, RemoteError,
    RmiError, ScalingPolicy, ServiceContext,
};
use erm_harness::{Invariants, Quiesce};
use erm_metrics::TraceHandle;
use erm_sim::SimDuration;

/// A service that can be made to crash (panic) on request — the "object can
/// crash in the middle of a remote method invocation" failure of §4.4.
struct Fragile {
    vote: Arc<AtomicI32>,
}

impl ElasticService for Fragile {
    fn dispatch(
        &mut self,
        method: &str,
        args: &[u8],
        ctx: &mut ServiceContext,
    ) -> Result<Vec<u8>, RemoteError> {
        match method {
            "ping" => encode_result(&ctx.uid()),
            "die_if_uid" => {
                let victim: u64 = decode_args(method, args)?;
                if ctx.uid() == victim {
                    panic!("injected crash of member {victim}");
                }
                encode_result(&false)
            }
            "fail" => Err(RemoteError::new("AppError", "requested")),
            other => Err(RemoteError::no_such_method(other)),
        }
    }

    fn change_pool_size(&mut self, _stats: &MethodCallStats, _ctx: &mut ServiceContext) -> i32 {
        self.vote.load(Ordering::SeqCst)
    }
}

fn fragile_pool(
    min: u32,
    max: u32,
) -> (
    elasticrmi::ElasticPool,
    elasticrmi::PoolDeps,
    Arc<AtomicI32>,
) {
    let vote = Arc::new(AtomicI32::new(0));
    let fv = Arc::clone(&vote);
    let config = PoolConfig::builder("Fragile")
        .min_pool_size(min)
        .max_pool_size(max)
        .policy(ScalingPolicy::FineGrained)
        .burst_interval(SimDuration::from_millis(100))
        .build()
        .unwrap();
    let (pool, deps) = pool_with(
        config,
        Arc::new(move || {
            Box::new(Fragile {
                vote: Arc::clone(&fv),
            })
        }),
    );
    (pool, deps, vote)
}

/// Crashes member `victim` by invoking `die_if_uid` until every member has
/// seen it (round-robin guarantees coverage within `size` calls).
fn crash_member(stub: &mut elasticrmi::Stub, pool_size: u32, victim: u64) {
    for _ in 0..pool_size * 2 {
        // The call that lands on the victim times out (Failed) and is then
        // retried on a survivor, so the client-visible result is Ok(false).
        let _: Result<bool, _> = stub.invoke("die_if_uid", &victim);
    }
}

#[test]
fn sentinel_crash_triggers_reelection() {
    let (mut pool, _deps, _vote) = fragile_pool(3, 6);
    let old_sentinel = pool.sentinel();
    let mut stub = pool.stub(ClientLb::RoundRobin).unwrap();
    stub.set_reply_timeout(erm_sim::SimDuration::from_millis(300));

    // uid 0 is the lowest uid, hence the sentinel.
    crash_member(&mut stub, 3, 0);
    assert!(
        wait_until(10, || pool.stats().crashed == 1
            && pool.sentinel() != old_sentinel),
        "sentinel should change after the crash (size {}, sentinel {:?})",
        pool.size(),
        pool.sentinel()
    );
    let stats = pool.stats();
    assert_eq!(stats.crashed, 1);
    assert!(stats.elections >= 1, "an election must have been recorded");
    // The engine heals the pool back to its minimum size.
    assert!(wait_until(10, || pool.size() >= 3));

    // The pool keeps serving through the new sentinel.
    let mut stub2 = pool.stub(ClientLb::RoundRobin).unwrap();
    let uid: u64 = stub2.invoke("ping", &()).unwrap();
    assert!(uid > 0, "survivors have uid > 0");
    pool.shutdown();
}

#[test]
fn non_sentinel_crash_needs_no_election() {
    let (mut pool, _deps, _vote) = fragile_pool(3, 6);
    let sentinel = pool.sentinel();
    let mut stub = pool.stub(ClientLb::RoundRobin).unwrap();
    stub.set_reply_timeout(erm_sim::SimDuration::from_millis(300));
    crash_member(&mut stub, 3, 2); // highest uid: not the sentinel
    assert!(wait_until(10, || pool.stats().crashed == 1));
    assert_eq!(pool.sentinel(), sentinel, "sentinel unchanged");
    assert_eq!(pool.stats().elections, 0);
    pool.shutdown();
}

#[test]
fn crashed_capacity_is_regrown_by_scaling() {
    let (mut pool, _deps, _vote) = fragile_pool(3, 6);
    let mut stub = pool.stub(ClientLb::RoundRobin).unwrap();
    stub.set_reply_timeout(erm_sim::SimDuration::from_millis(300));
    crash_member(&mut stub, 3, 1);
    assert!(wait_until(10, || pool.stats().crashed == 1));
    // The elasticity mechanism (min-size clamp at the next burst), not a
    // dedicated recovery path, restores capacity.
    assert!(wait_until(10, || pool.size() >= 3));
    assert!(pool.stats().grown >= 1, "regrowth goes through the cluster");
    pool.shutdown();
}

#[test]
fn remote_exceptions_are_not_failover_events() {
    // An application error must propagate, not trigger retries on other
    // members (it is a result, not a failure).
    let (mut pool, _deps, _vote) = fragile_pool(2, 4);
    let mut stub = pool.stub(ClientLb::RoundRobin).unwrap();
    let err = stub.invoke::<(), bool>("fail", &()).unwrap_err();
    assert!(matches!(err, RmiError::Remote(ref e) if e.kind == "AppError"));
    assert_eq!(stub.stats().retries, 0);
    pool.shutdown();
}

#[test]
fn whole_pool_failure_propagates_to_client() {
    // §4.3/§4.4: ElasticRMI does not hide total failures.
    let (mut pool, deps, _vote) = fragile_pool(2, 4);
    let mut stub = pool.stub(ClientLb::RoundRobin).unwrap();
    stub.set_reply_timeout(erm_sim::SimDuration::from_millis(100));
    let (trace, sink) = TraceHandle::buffered(1024);
    stub.set_trace(trace);
    // Take the whole pool's endpoints off the network.
    let net = deps.net;
    for ep in pool.members() {
        // Close via the concrete network handle.
        let inproc = &net;
        let _ = inproc; // closing requires the Host trait:
        erm_transport::Host::close(net.as_ref(), ep);
    }
    let err = stub.invoke::<(), u64>("ping", &()).unwrap_err();
    assert!(
        matches!(err, RmiError::PoolUnreachable { attempts } if attempts >= 2),
        "got {err:?}"
    );
    // Nor does it hide them from the trace: the invocation that found every
    // member dead still ends in exactly one terminal event.
    let found = Invariants::default().check(&sink.snapshot(), &Quiesce::default());
    assert!(found.is_clean(), "{found:?}\n{}", sink.dump());
    pool.shutdown();
}

#[test]
fn master_outage_pauses_scaling_but_not_service() {
    let (mut pool, deps, vote) = fragile_pool(2, 8);
    // Fail the master "forever" (far future on the system clock).
    deps.cluster
        .fail_master_until(erm_sim::SimTime::from_secs(1_000_000));
    vote.store(3, Ordering::SeqCst);
    std::thread::sleep(std::time::Duration::from_millis(500));
    assert_eq!(pool.size(), 2, "no growth while Mesos is down (§4.4)");
    // Service continues during the outage.
    let mut stub = pool.stub(ClientLb::RoundRobin).unwrap();
    let _: u64 = stub.invoke("ping", &()).unwrap();
    pool.shutdown();
}

#[test]
fn stub_failover_is_transparent_during_member_removal() {
    // Clients with a stale member list keep working: removed members answer
    // Unreachable and the stub retries (§4.3).
    let (mut pool, _deps, vote) = fragile_pool(2, 8);
    vote.store(4, Ordering::SeqCst);
    assert!(wait_until(10, || pool.size() == 8));
    let mut stub = pool.stub(ClientLb::RoundRobin).unwrap();
    stub.set_reply_timeout(erm_sim::SimDuration::from_millis(300));
    assert_eq!(stub.members().len(), 8);
    // Shrink hard while the stub holds the 8-member view.
    vote.store(-4, Ordering::SeqCst);
    assert!(wait_until(15, || pool.size() == 2));
    for _ in 0..16 {
        let uid: u64 = stub.invoke("ping", &()).unwrap();
        let _ = uid;
    }
    pool.shutdown();
}

#[test]
fn node_failure_kills_members_and_pool_recovers() {
    // A whole cluster node dies: every member on its slices is lost at
    // once; the pool reaps them and the min-size clamp regrows capacity on
    // surviving nodes.
    let (mut pool, deps, _vote) = fragile_pool(4, 8);
    // instantiate() returns once the first member is up; the rest provision
    // asynchronously, so wait for the full minimum rather than asserting it.
    assert!(wait_until(10, || pool.size() == 4), "initial provisioning");
    // With 64 nodes x 1 slice in the fixture, members sit on nodes 0..=3.
    deps.cluster.fail_node(erm_cluster::NodeId(0));
    assert!(
        wait_until(10, || pool.stats().crashed >= 1),
        "the member on the failed node must be reaped"
    );
    assert!(
        wait_until(10, || pool.size() >= 4),
        "capacity regrows on surviving nodes, size {}",
        pool.size()
    );
    // The replacement slice is NOT on the failed node.
    let mut stub = pool.stub(ClientLb::RoundRobin).unwrap();
    let _: u64 = stub.invoke("ping", &()).unwrap();
    pool.shutdown();
}
