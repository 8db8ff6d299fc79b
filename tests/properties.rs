//! Randomized tests of the core invariants, spanning crates: codec
//! roundtrips, bin-packing conservation, scaling-engine bounds,
//! agility-metric identities, lock exclusivity, and workload sanity.
//!
//! Formerly proptest properties; now seeded deterministic sweeps (the
//! offline build environment cannot fetch proptest), preserving the same
//! invariants over a few hundred random cases each.

mod common;

use std::collections::HashMap;

use elasticrmi::balance::{apply_plan, plan_redirects, MemberLoad};
use elasticrmi::{PoolConfig, PoolSample, ScalingEngine, ScalingPolicy};
use erm_kvstore::{LockOwner, Store, StoreConfig};
use erm_metrics::AgilityMeter;
use erm_sim::{SimDuration, SimTime};
use erm_transport::EndpointId;
use erm_workloads::{PatternKind, WorkloadBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct Nested {
    id: u64,
    name: String,
    values: Vec<i32>,
    tag: Option<(bool, char)>,
    map: HashMap<String, u16>,
}

fn rand_char(rng: &mut StdRng) -> char {
    loop {
        if let Some(c) = char::from_u32(rng.gen_range(0u32..=0x10FFFF)) {
            return c;
        }
    }
}

fn rand_string(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.gen_range(0usize..=max_len);
    (0..len).map(|_| rand_char(rng)).collect()
}

fn rand_nested(rng: &mut StdRng) -> Nested {
    let values: Vec<i32> = (0..rng.gen_range(0usize..16)).map(|_| rng.gen()).collect();
    let tag = if rng.gen() {
        Some((rng.gen::<bool>(), rand_char(rng)))
    } else {
        None
    };
    let map: HashMap<String, u16> = (0..rng.gen_range(0usize..8))
        .map(|_| (rand_string(rng, 8), rng.gen()))
        .collect();
    Nested {
        id: rng.gen(),
        name: rand_string(rng, 32),
        values,
        tag,
        map,
    }
}

/// The wire codec is lossless for arbitrary nested data.
#[test]
fn codec_roundtrips_arbitrary_structs() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    for _ in 0..200 {
        let value = rand_nested(&mut rng);
        let bytes = erm_transport::to_bytes(&value).unwrap();
        let back: Nested = erm_transport::from_bytes(&bytes).unwrap();
        assert_eq!(back, value);
    }
}

/// Records the largest single allocation a thread requests, so the decode
/// property below can assert "never over-allocates" (a lying 4 GiB length
/// reserves silently on an overcommitting kernel).
struct LargestRequest;

thread_local! {
    static LARGEST: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local store that itself never allocates.
unsafe impl std::alloc::GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
        std::alloc::System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new: usize) -> *mut u8 {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(new)));
        std::alloc::System.realloc(ptr, layout, new)
    }
}

#[global_allocator]
static ALLOC: LargestRequest = LargestRequest;

/// Decoding never panics on arbitrary garbage — it returns errors — and a
/// valid message whose length prefixes are made to lie errors without ever
/// allocating more than the message holds.
#[test]
fn codec_decode_never_panics() {
    use elasticrmi::RmiMessage;

    let mut rng = StdRng::seed_from_u64(0x6A4BA6E);
    for _ in 0..300 {
        let len = rng.gen_range(0usize..256);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let _ = erm_transport::from_bytes::<Nested>(&bytes);
        let _ = erm_transport::from_bytes::<Vec<String>>(&bytes);
        let _ = RmiMessage::decode(&bytes);
    }

    let blob: Vec<u8> = (0..65_536).map(|_| rng.gen()).collect();
    let args = erm_transport::to_bytes(&blob).unwrap();
    let request = RmiMessage::Request {
        call: rng.gen(),
        context: elasticrmi::InvocationContext {
            id: rng.gen(),
            deadline: SimTime::from_micros(rng.gen()),
            attempt: 1,
            origin: EndpointId(rng.gen()),
            semantics: elasticrmi::Semantics::AtLeastOnce,
            routing_key: None,
        },
        method: "blob".to_string(),
        args: args.clone(),
    }
    .encode();
    let response = RmiMessage::Response {
        call: rng.gen(),
        outcome: Ok(blob),
        replayed: false,
    }
    .encode();
    // The request's method and args, the response's Ok bytes, and the byte
    // vector inside the args as the skeleton's `decode_args` meets it.
    let decodes_message = |bytes: &[u8]| RmiMessage::decode(bytes).is_ok();
    assert_lying_lengths_error(&request, &[45, 53], decodes_message);
    assert_lying_lengths_error(&response, &[16], decodes_message);
    assert_lying_lengths_error(&args, &[0], |bytes| {
        elasticrmi::decode_args::<Vec<u8>>("blob", bytes).is_ok()
    });
}

/// `message` decodes; with any of the `u32` length prefixes at `prefixes`
/// lying it does not, and the attempt never asks the allocator for more
/// than the message's own size.
fn assert_lying_lengths_error(message: &[u8], prefixes: &[usize], decodes: impl Fn(&[u8]) -> bool) {
    assert!(decodes(message), "the unmutated message");
    for mutant in lying_lengths(message, prefixes) {
        LARGEST.with(|l| l.set(0));
        let decoded = decodes(&mutant);
        let largest = LARGEST.with(|l| l.get());
        assert!(!decoded, "a message with a lying length decoded");
        assert!(
            largest <= message.len(),
            "decode requested {largest} bytes for a {}-byte message",
            message.len()
        );
    }
}

/// Every way this suite makes the `u32` length prefixes at `prefixes` lie:
/// one past the truth, `u32::MAX`, and the message cut inside the prefix,
/// right after it, one byte into its body, and one byte short of its end.
fn lying_lengths(message: &[u8], prefixes: &[usize]) -> Vec<Vec<u8>> {
    let mut mutants = vec![message[..message.len() - 1].to_vec()];
    for &at in prefixes {
        let honest = u32::from_le_bytes(message[at..at + 4].try_into().unwrap());
        for lie in [honest + 1, u32::MAX] {
            let mut mutant = message.to_vec();
            mutant[at..at + 4].copy_from_slice(&lie.to_le_bytes());
            mutants.push(mutant);
        }
        for cut in [at + 2, at + 4, at + 5] {
            mutants.push(message[..cut].to_vec());
        }
    }
    mutants
}

/// Bin packing conserves work, never overloads a receiver, and never moves
/// work from a member at or under capacity.
#[test]
fn bin_packing_invariants() {
    let mut rng = StdRng::seed_from_u64(0xB14);
    for _ in 0..300 {
        let n = rng.gen_range(2usize..24);
        let capacity = rng.gen_range(1u32..40);
        let loads: Vec<MemberLoad> = (0..n)
            .map(|i| MemberLoad {
                endpoint: EndpointId(i as u64),
                pending: rng.gen_range(0u32..60),
            })
            .collect();
        let plan = plan_redirects(&loads, capacity);
        let after = apply_plan(&loads, &plan);
        // Conservation.
        let before_total: u64 = loads.iter().map(|m| u64::from(m.pending)).sum();
        let after_total: u64 = after.iter().map(|m| u64::from(m.pending)).sum();
        assert_eq!(before_total, after_total);
        for (orig, new) in loads.iter().zip(&after) {
            if orig.pending <= capacity {
                // Underloaded members only ever gain, and never past capacity.
                assert!(new.pending >= orig.pending);
                assert!(new.pending <= capacity.max(orig.pending));
            } else {
                // Overloaded members only ever shed, and never below capacity.
                assert!(new.pending <= orig.pending);
                assert!(new.pending >= capacity);
            }
        }
    }
}

/// Whatever the sample says, the engine never drives the pool outside its
/// configured bounds.
#[test]
fn scaling_engine_respects_bounds() {
    let mut rng = StdRng::seed_from_u64(0x5CA1E);
    for _ in 0..200 {
        let pool_size = rng.gen_range(0u32..100);
        let cpu = rng.gen_range(0.0f32..100.0);
        let ram = rng.gen_range(0.0f32..100.0);
        let votes: Vec<i32> = (0..rng.gen_range(0usize..16))
            .map(|_| rng.gen_range(-8i32..8))
            .collect();
        let min = rng.gen_range(2u32..10);
        let max = min + rng.gen_range(0u32..40);
        for policy in [
            ScalingPolicy::Implicit,
            ScalingPolicy::FineGrained,
            ScalingPolicy::AppLevel,
        ] {
            let config = PoolConfig::builder("P")
                .min_pool_size(min)
                .max_pool_size(max)
                .policy(policy)
                .build()
                .unwrap();
            let engine = ScalingEngine::new(config, SimTime::ZERO);
            let sample = PoolSample {
                pool_size,
                avg_cpu: cpu,
                avg_ram: ram,
                fine_votes: votes.clone(),
                desired_size: Some(pool_size / 2),
                ..PoolSample::default()
            };
            let target = i64::from(pool_size) + engine.decide(&sample).delta();
            assert!(
                (i64::from(min)..=i64::from(max)).contains(&target)
                    // From outside the bounds the engine moves toward them,
                    // never further away.
                    || (pool_size > max && target <= i64::from(pool_size))
                    || (pool_size < min && target >= i64::from(pool_size)),
                "policy {policy:?}: size {pool_size} -> target {target} outside [{min},{max}]"
            );
        }
    }
}

/// Agility is non-negative and equals mean excess + mean shortage.
#[test]
fn agility_identity() {
    let mut rng = StdRng::seed_from_u64(0xA611);
    for case in 0..100 {
        let n = rng.gen_range(1usize..200);
        // Every eighth case is perfectly provisioned (req == cap).
        let perfect = case % 8 == 0;
        let samples: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                let req = rng.gen_range(0.0f64..50.0);
                let cap = if perfect {
                    req
                } else {
                    rng.gen_range(0.0f64..50.0)
                };
                (req, cap)
            })
            .collect();
        let mut meter =
            AgilityMeter::new(SimDuration::from_minutes(1), SimDuration::from_minutes(10));
        for (i, &(req, cap)) in samples.iter().enumerate() {
            meter.record(SimTime::from_minutes(i as u64), req, cap);
        }
        let report = meter.finish();
        assert!(report.mean_agility() >= 0.0);
        let identity = report.mean_excess() + report.mean_shortage();
        assert!((report.mean_agility() - identity).abs() < 1e-9);
        // Perfect provisioning iff agility is zero.
        if perfect {
            assert_eq!(report.mean_agility(), 0.0);
        }
    }
}

/// At most one owner ever holds a lock, whatever the operation order.
#[test]
fn lock_exclusivity() {
    let mut rng = StdRng::seed_from_u64(0x10CC);
    for _ in 0..100 {
        let store = Store::new(StoreConfig::default());
        let ttl = SimDuration::from_secs(10);
        let mut holder: Option<(u64, u64)> = None; // (owner, acquired_at)
        let mut clock = 0u64;
        let ops = rng.gen_range(1usize..64);
        for _ in 0..ops {
            let owner = rng.gen_range(0u64..4);
            let action = rng.gen_range(0u64..3);
            clock += rng.gen_range(0u64..100);
            let now = SimTime::from_secs(clock);
            let expired = holder.is_some_and(|(_, at)| clock >= at + 10);
            match action {
                0 | 1 => {
                    let got = store.try_lock("L", LockOwner::new(owner), now, ttl);
                    let expect = match holder {
                        None => true,
                        Some((h, _)) => h == owner || expired,
                    };
                    assert_eq!(got, expect, "owner {owner} at t={clock}");
                    if got {
                        holder = Some((owner, clock));
                    }
                }
                _ => {
                    let ok = store.unlock("L", LockOwner::new(owner)).is_ok();
                    assert_eq!(ok, holder.is_some_and(|(h, _)| h == owner));
                    if ok {
                        holder = None;
                    }
                }
            }
        }
    }
}

/// Workload patterns are bounded by their peak and non-negative.
#[test]
fn workload_bounds() {
    let mut rng = StdRng::seed_from_u64(0xF10F);
    for _ in 0..200 {
        let peak = rng.gen_range(1.0f64..1e6);
        let noise = rng.gen_range(0.0f64..0.3);
        let seed: u64 = rng.gen();
        let minute = rng.gen_range(0u64..500);
        for kind in [PatternKind::Abrupt, PatternKind::Cyclic] {
            let w = WorkloadBuilder::new(kind, peak)
                .noise(noise)
                .seed(seed)
                .build();
            let r = w.noisy_rate_at(SimTime::from_minutes(minute));
            assert!(r >= 0.0);
            assert!(r <= w.peak() * (1.0 + noise) + 1e-6);
        }
    }
}

/// Store versions increase by exactly one per successful write.
#[test]
fn store_version_monotonicity() {
    let mut rng = StdRng::seed_from_u64(0x5704E);
    for _ in 0..50 {
        let store = Store::new(StoreConfig::default());
        let mut expected: HashMap<String, u64> = HashMap::new();
        let n = rng.gen_range(1usize..50);
        for _ in 0..n {
            let key = rand_string(&mut rng, 8);
            let v = store.put(&key, vec![1]);
            let e = expected.entry(key).or_insert(0);
            *e += 1;
            assert_eq!(v, *e);
        }
    }
}

/// No invocation is lost or duplicated when `Overloaded` rejections,
/// rebalance sheds, drain redirects, and deadline expiries interleave:
/// every request the client sends gets exactly one terminal reply
/// (`Response`, `Redirected`, or `Overloaded`).
#[test]
fn skeleton_conserves_invocations_under_overload() {
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    use elasticrmi::{
        AdmissionConfig, InvocationContext, MemberState, RmiMessage, ServiceContext, Skeleton,
    };
    use erm_metrics::TraceHandle;
    use erm_sim::{Clock, SharedClock, VirtualClock};
    use erm_transport::{Host, InProcNetwork};

    struct Null;
    impl elasticrmi::ElasticService for Null {
        fn dispatch(
            &mut self,
            _method: &str,
            _args: &[u8],
            _ctx: &mut ServiceContext,
        ) -> Result<Vec<u8>, elasticrmi::RemoteError> {
            Ok(Vec::new())
        }
    }

    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0xADC0 ^ (seed.wrapping_mul(0x9E37_79B9)));
        let net = InProcNetwork::new();
        let (skel_ep, skel_mb) = net.open();
        let (client_ep, client_mb) = net.open();
        let (runtime_ep, _runtime_mb) = net.open();
        let (peer_ep, _peer_mb) = net.open();
        let clock = Arc::new(VirtualClock::new());
        let ctx = ServiceContext::new(
            Arc::new(Store::new(StoreConfig::default())),
            "P",
            0,
            Arc::<VirtualClock>::clone(&clock) as SharedClock,
            Arc::new(AtomicU32::new(1)),
        );
        let capacity = rng.gen_range(1u32..6);
        let admission = if rng.gen() {
            AdmissionConfig::fifo(capacity)
        } else {
            AdmissionConfig::edf(capacity)
        };
        let mut sk = Skeleton::new(
            0,
            skel_ep,
            runtime_ep,
            Arc::new(net.clone()),
            Arc::<VirtualClock>::clone(&clock) as SharedClock,
            Box::new(Null),
            ctx,
            TraceHandle::disabled(),
            Some(admission),
        );
        // A peer so drain-time redirects have somewhere to point.
        sk.ingest(
            client_ep,
            RmiMessage::StateBroadcast {
                epoch: 1,
                sentinel_uid: 0,
                members: vec![
                    MemberState {
                        endpoint: skel_ep,
                        uid: 0,
                    },
                    MemberState {
                        endpoint: peer_ep,
                        uid: 1,
                    },
                ],
            },
            &skel_mb,
        );

        let mut sent: Vec<u64> = Vec::new();
        let mut next_call = 0u64;
        let ops = rng.gen_range(20usize..120);
        for _ in 0..ops {
            match rng.gen_range(0u32..10) {
                // Mostly requests, some born expired, some with tight
                // deadlines that lapse mid-run.
                0..=5 => {
                    let call = next_call;
                    next_call += 1;
                    let now = clock.now();
                    let deadline = if rng.gen_range(0u32..8) == 0 {
                        now // dead on arrival
                    } else {
                        now + SimDuration::from_millis(rng.gen_range(1u64..500))
                    };
                    sent.push(call);
                    sk.ingest(
                        client_ep,
                        RmiMessage::Request {
                            call,
                            context: InvocationContext {
                                semantics: elasticrmi::Semantics::AtLeastOnce,
                                id: call,
                                deadline,
                                attempt: 1,
                                origin: client_ep,
                                routing_key: None,
                            },
                            method: "noop".into(),
                            args: Vec::new(),
                        },
                        &skel_mb,
                    );
                }
                // Rebalance quota: the next few requests are shed.
                6 => {
                    sk.ingest(
                        client_ep,
                        RmiMessage::Rebalance {
                            to: peer_ep,
                            count: rng.gen_range(1u32..4),
                        },
                        &skel_mb,
                    );
                }
                // Time passes; queued work may expire.
                7 => {
                    clock.advance(SimDuration::from_millis(rng.gen_range(1u64..400)));
                }
                // Execute or cull a bit.
                8 => {
                    let steps = rng.gen_range(1usize..4);
                    for _ in 0..steps {
                        sk.step();
                    }
                }
                // Rarely, a drain starts mid-stream; later requests are
                // redirected away, queued work still completes.
                _ => {
                    if rng.gen_range(0u32..4) == 0 {
                        sk.ingest(client_ep, RmiMessage::Shutdown, &skel_mb);
                    }
                }
            }
        }
        // Drain everything still queued.
        while sk.step() {}
        clock.advance(SimDuration::from_secs(600));
        while sk.step() {}

        let mut replies: HashMap<u64, u32> = HashMap::new();
        while let Ok(d) = client_mb.try_recv() {
            match elasticrmi::RmiMessage::decode(&d.payload).unwrap() {
                RmiMessage::Response { call, .. }
                | RmiMessage::Redirected { call, .. }
                | RmiMessage::Overloaded { call, .. } => {
                    *replies.entry(call).or_insert(0) += 1;
                }
                _ => {}
            }
        }
        for call in &sent {
            assert_eq!(
                replies.get(call).copied().unwrap_or(0),
                1,
                "seed {seed}: call {call} must get exactly one terminal reply"
            );
        }
        assert_eq!(
            replies.len(),
            sent.len(),
            "seed {seed}: replies for calls never sent"
        );
    }
}

/// ROADMAP item 15(a), tenancy as a property: seeded interleavings of two
/// or three tenants of one cluster. Each step is a request, a take of
/// ready grants, a release (of a held lease, or of a stale one), a node
/// failure or repair, a take of revocations, or a master outage opening or
/// closing. After every step the cluster's books must agree with what each
/// tenant was told: grants and revocations reach only their holder, every
/// slice has at most one live lease, and nothing is freed twice.
#[test]
fn tenants_of_one_cluster_keep_separate_books() {
    use std::collections::{BTreeMap, BTreeSet};

    use erm_cluster::{
        ClusterConfig, ClusterError, LatencyModel, LeaseId, NodeId, ResourceManager, SliceGrant,
        SliceId, TenantId,
    };

    /// What one tenant was told, and what it should therefore hold.
    #[derive(Default)]
    struct Books {
        requests: BTreeSet<u64>,
        granted: u64,
        released: u64,
        /// Leases lost to node failures, counted when the node fails.
        revoked: u64,
        held: BTreeMap<LeaseId, SliceGrant>,
        /// Held leases lost to a failure that the tenant has not taken.
        owed: BTreeSet<LeaseId>,
        /// Provisioning leases lost to a failure, not yet taken.
        owed_provisioning: u32,
        /// Leases released or revoked: releasing one must free nothing.
        stale: Vec<LeaseId>,
    }

    let all = |_| true;
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(0x7E4A ^ seed.wrapping_mul(0x9E37_79B9));
        let nodes = rng.gen_range(2u32..=4);
        let mut cluster = ResourceManager::new(ClusterConfig {
            nodes,
            slices_per_node: rng.gen_range(1u32..=3),
            provisioning: LatencyModel::LoadDependent {
                base: SimDuration::ZERO,
                slope_per_load: SimDuration::from_secs(2),
                jitter: SimDuration::from_secs(1),
            },
            seed,
            ..ClusterConfig::default()
        });
        let ids: Vec<TenantId> = (0..rng.gen_range(2..=3))
            .map(|_| cluster.add_tenant())
            .collect();
        let mut books: Vec<Books> = ids.iter().map(|_| Books::default()).collect();
        // Every lease ever delivered, as a grant or a revocation, and to whom.
        let mut delivered: BTreeMap<LeaseId, usize> = BTreeMap::new();
        let mut deferred: BTreeMap<LeaseId, SliceId> = BTreeMap::new();
        let mut master_down_until: Option<SimTime> = None;
        let mut now = SimTime::ZERO;

        // The cluster frees deferred releases at the first request or
        // release of a held lease once the master is back.
        let reaches_master = |until: &mut Option<SimTime>,
                              deferred: &mut BTreeMap<LeaseId, SliceId>,
                              now: SimTime| {
            match *until {
                Some(t) if now < t => false,
                Some(_) => {
                    *until = None;
                    deferred.clear();
                    true
                }
                None => true,
            }
        };

        for step in 0..80 {
            now += SimDuration::from_millis(rng.gen_range(0..=500));
            let t = rng.gen_range(0..ids.len());
            let tenant = ids[t];
            let ctx = format!("seed {seed} step {step}");
            match rng.gen_range(0..8) {
                0 | 1 => {
                    let n = rng.gen_range(0u32..=3);
                    let result = cluster.request_slices(tenant, n, now);
                    if reaches_master(&mut master_down_until, &mut deferred, now) {
                        let out = result.unwrap();
                        assert!(out.granted <= n, "{ctx}");
                        books[t].requests.insert(out.request_id);
                        books[t].granted += u64::from(out.granted);
                    } else {
                        assert_eq!(result.unwrap_err(), ClusterError::MasterDown, "{ctx}");
                    }
                }
                2 => {
                    for grant in cluster.take_ready(tenant, now) {
                        assert!(
                            delivered.insert(grant.lease, t).is_none(),
                            "{ctx}: {:?} delivered twice",
                            grant.lease
                        );
                        assert!(books[t].requests.contains(&grant.request_id), "{ctx}");
                        assert!(grant.requested_at <= grant.ready_at && grant.ready_at <= now);
                        books[t].held.insert(grant.lease, grant);
                    }
                }
                3 => {
                    let (free, in_use) = (cluster.free_slices(), cluster.slices_in_use());
                    let stale = &books[t].stale;
                    if !stale.is_empty() && rng.gen_bool(0.3) {
                        let lease = stale[rng.gen_range(0..stale.len())];
                        let err = cluster.release(lease, now).unwrap_err();
                        assert_eq!(err, ClusterError::StaleLease(lease), "{ctx}");
                        assert_eq!(cluster.free_slices(), free, "{ctx}: a stale release freed");
                        assert_eq!(cluster.slices_in_use(), in_use, "{ctx}");
                    } else if let Some(&lease) = books[t].held.keys().next() {
                        cluster.release(lease, now).unwrap();
                        let grant = books[t].held.remove(&lease).unwrap();
                        if !reaches_master(&mut master_down_until, &mut deferred, now) {
                            deferred.insert(lease, grant.slice);
                        }
                        books[t].released += 1;
                        books[t].stale.push(lease);
                    }
                }
                4 => {
                    let node = NodeId(rng.gen_range(0..nodes));
                    let before: Vec<u32> =
                        ids.iter().map(|&i| cluster.pending_of(i, all)).collect();
                    let reserved = cluster.slices_in_use() + cluster.pending_slices();
                    cluster.fail_node(node);
                    let mut lost = 0;
                    for (i, b) in books.iter_mut().enumerate() {
                        let gone: Vec<LeaseId> = b
                            .held
                            .values()
                            .filter(|g| g.node == node)
                            .map(|g| g.lease)
                            .collect();
                        for lease in &gone {
                            b.held.remove(lease);
                        }
                        let provisioning = before[i] - cluster.pending_of(ids[i], all);
                        b.owed.extend(gone.iter().copied());
                        b.owed_provisioning += provisioning;
                        b.revoked += gone.len() as u64 + u64::from(provisioning);
                        lost += gone.len() + provisioning as usize;
                    }
                    deferred.retain(|_, slice| cluster.node_of(*slice) != node);
                    assert_eq!(
                        reserved - (cluster.slices_in_use() + cluster.pending_slices()),
                        lost,
                        "{ctx}: every lease the failure ended was a tenant's"
                    );
                }
                5 => cluster.repair_node(NodeId(rng.gen_range(0..nodes))),
                6 => {
                    let b = &mut books[t];
                    for lease in cluster.take_revocations(tenant) {
                        if !b.owed.remove(&lease) {
                            // Not a lease it held, so one still provisioning:
                            // never delivered to anyone before.
                            assert!(!delivered.contains_key(&lease), "{ctx}: {lease:?} stolen");
                            assert!(b.owed_provisioning > 0, "{ctx}: {lease:?} not owed");
                            b.owed_provisioning -= 1;
                        }
                        delivered.insert(lease, t);
                        b.stale.push(lease);
                    }
                    assert!(b.owed.is_empty() && b.owed_provisioning == 0, "{ctx}");
                }
                _ => {
                    let until = if rng.gen() {
                        now + SimDuration::from_millis(rng.gen_range(500..=3_000))
                    } else {
                        now
                    };
                    cluster.fail_master_until(until);
                    master_down_until = Some(until);
                }
            }

            let mut held_and_pending = 0;
            for (i, b) in books.iter().enumerate() {
                let pending = cluster.pending_of(ids[i], all) as u64;
                assert_eq!(
                    b.held.len() as u64 + pending,
                    b.granted - b.released - b.revoked,
                    "{ctx}: tenant {i}'s books"
                );
                held_and_pending += b.held.len() + pending as usize;
            }
            assert_eq!(
                held_and_pending,
                cluster.slices_in_use() + cluster.pending_slices(),
                "{ctx}"
            );
            let live: Vec<SliceId> = books
                .iter()
                .flat_map(|b| b.held.values().map(|g| g.slice))
                .chain(deferred.values().copied())
                .collect();
            let distinct: BTreeSet<SliceId> = live.iter().copied().collect();
            assert_eq!(distinct.len(), live.len(), "{ctx}: a slice with two leases");
            assert_eq!(
                cluster.free_slices() + live.len() + cluster.pending_slices(),
                cluster.total_slices(),
                "{ctx}: every slice is free, leased or provisioning, once"
            );
            let utilization = cluster.utilization();
            assert!((0.0..=1.0).contains(&utilization), "{ctx}: {utilization}");
        }

        // Wind down: with the master and every node back, each tenant takes
        // what is owed to it and releases everything it holds.
        cluster.fail_master_until(now);
        for node in 0..nodes {
            cluster.repair_node(NodeId(node));
        }
        let later = now + SimDuration::from_secs(60);
        cluster.request_slices(ids[0], 0, later).unwrap();
        for (i, &tenant) in ids.iter().enumerate() {
            cluster.take_revocations(tenant);
            let held: Vec<LeaseId> = books[i].held.keys().copied().collect();
            let ready = cluster.take_ready(tenant, later);
            for lease in held.into_iter().chain(ready.iter().map(|g| g.lease)) {
                cluster.release(lease, later).unwrap();
            }
        }
        assert_eq!(
            cluster.free_slices(),
            cluster.total_slices(),
            "seed {seed}: no grant is stranded"
        );
    }
}
