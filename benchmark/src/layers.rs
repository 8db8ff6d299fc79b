//! Timed calls into one layer at a time, through public API only. Each
//! figure is the median over [`BATCHES`] batches of nanoseconds per call.
//! The wire, transport and skeleton timings use the request and response
//! the traced pass actually saw on this workload, so "this workload's
//! message shapes" is literal.

use std::hint::black_box;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use elasticrmi::{
    ElasticService, ReplyCache, ReplyCacheConfig, RmiMessage, ServiceContext, ShardRing,
    SharedField, Skeleton,
};
use erm_admission::AdmissionQueue;
use erm_apps::marketcetera::OrderRouter;
use erm_kvstore::{LockOwner, Store, StoreConfig};
use erm_metrics::{MetricsHandle, TraceEvent, TraceHandle};
use erm_sim::{SharedClock, SimDuration, SimTime, SystemClock};
use erm_transport::{EndpointId, Host, InProcNetwork, Network, SendError, TcpHost};

use crate::affinity::Placement;
use crate::stats::median;

/// Batches per figure; the median of their per-call means is reported.
const BATCHES: usize = 31;

/// Messages above this size get small batches (a 64 KiB copy per call
/// makes a thousand-call batch pointlessly long).
const LARGE_MESSAGE: usize = 4_096;

/// Far enough ahead that no request built here ever expires.
const FAR: SimTime = SimTime::from_secs(1_000_000);

/// Median nanoseconds per `call` over [`BATCHES`] batches of `per_batch`.
fn timed(per_batch: usize, mut call: impl FnMut(u64)) -> f64 {
    let mut n = 0u64;
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..per_batch {
                call(n);
                n += 1;
            }
            started.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&per_call)
}

/// A `Network` that accepts and counts every send: the far side of a
/// skeleton measured alone.
struct Sink {
    sent: AtomicU64,
}

impl Network for Sink {
    fn send(&self, _: EndpointId, _: EndpointId, payload: Vec<u8>) -> Result<(), SendError> {
        black_box(payload);
        self.sent.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// `send` to peer `recv`, there and back, halved: request-sized one way,
/// response-sized the other. Nanoseconds per one-way hop.
fn oneway_ns(
    a: &dyn Host,
    b: &dyn Host,
    request: &[u8],
    response: &[u8],
    per_batch: usize,
) -> Result<f64, String> {
    let (ep_a, mail_a) = a.open();
    let (ep_b, mail_b) = b.open();
    let mut failed = None;
    let round_trip = || -> Result<(), String> {
        a.send(ep_a, ep_b, request.to_vec())
            .map_err(|e| e.to_string())?;
        mail_b.recv().map_err(|e| e.to_string())?;
        b.send(ep_b, ep_a, response.to_vec())
            .map_err(|e| e.to_string())?;
        mail_a.recv().map_err(|e| e.to_string())?;
        Ok(())
    };
    // The first trips pay connection establishment and route learning.
    for _ in 0..16 {
        round_trip()?;
    }
    let ns = timed(per_batch, |_| {
        if let Err(e) = round_trip() {
            failed.get_or_insert(e);
        }
    });
    match failed {
        Some(e) => Err(format!("one-way ping-pong: {e}")),
        None => Ok(ns / 2.0),
    }
}

/// `Skeleton::handle` (ingest, dispatch, reply encode, send to a sink) on
/// fresh copies of this workload's request. Requests are built outside
/// the timed region; each carries a new invocation id so an at-most-once
/// method takes the reply-cache miss path, as it does under load.
fn skeleton_handle_ns(
    service: Box<dyn ElasticService>,
    class: &str,
    request: &RmiMessage,
    per_batch: usize,
) -> Result<f64, String> {
    let sink = Arc::new(Sink {
        sent: AtomicU64::new(0),
    });
    let mailroom = InProcNetwork::new();
    let (endpoint, mailbox) = mailroom.open_endpoint();
    let (ctl, _ctl_mailbox) = mailroom.open_endpoint();
    let (client, _client_mailbox) = mailroom.open_endpoint();
    let clock: SharedClock = Arc::new(SystemClock::new());
    let ctx = ServiceContext::new(
        Arc::new(Store::new(StoreConfig::default())),
        class,
        0,
        Arc::clone(&clock),
        Arc::new(AtomicU32::new(1)),
    );
    let mut skeleton = Skeleton::new(
        0,
        endpoint,
        ctl,
        Arc::clone(&sink) as Arc<dyn Network>,
        clock,
        service,
        ctx,
        TraceHandle::disabled(),
        None,
    );
    let mut next_id = 0u64;
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let batch: Vec<RmiMessage> = (0..per_batch)
            .map(|_| {
                let mut msg = request.clone();
                if let RmiMessage::Request { context, .. } = &mut msg {
                    context.id = next_id;
                    context.deadline = FAR;
                    next_id += 1;
                }
                msg
            })
            .collect();
        let started = Instant::now();
        for msg in batch {
            skeleton.handle(client, msg, &mailbox);
        }
        per_call.push(started.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    let handled = (BATCHES * per_batch) as u64;
    if sink.sent.load(Ordering::Relaxed) != handled {
        return Err(format!(
            "skeleton answered {} of {handled} requests",
            sink.sent.load(Ordering::Relaxed)
        ));
    }
    Ok(median(&per_call))
}

/// Every timed-call figure, by metric name. `request`/`response` are the
/// encoded messages the traced pass captured; `service`/`class` are what
/// this workload's skeletons host.
pub fn time_layers(
    service: Box<dyn ElasticService>,
    class: &str,
    request: &[u8],
    response: &[u8],
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let per_batch = if request.len() > LARGE_MESSAGE {
        32
    } else {
        1_000
    };

    // wire: the codec on whole protocol messages.
    let request_msg = RmiMessage::decode(request).map_err(|e| format!("sample request: {e}"))?;
    let response_msg = RmiMessage::decode(response).map_err(|e| format!("sample response: {e}"))?;
    out.push((
        "wire.request_encode_ns",
        timed(per_batch, |_| {
            black_box(black_box(&request_msg).encode());
        }),
    ));
    out.push((
        "wire.request_decode_ns",
        timed(per_batch, |_| {
            let _ = black_box(RmiMessage::decode(black_box(request)));
        }),
    ));
    out.push((
        "wire.response_encode_ns",
        timed(per_batch, |_| {
            black_box(black_box(&response_msg).encode());
        }),
    ));
    out.push((
        "wire.response_decode_ns",
        timed(per_batch, |_| {
            let _ = black_box(RmiMessage::decode(black_box(response)));
        }),
    ));
    out.push(("wire.request_bytes", request.len() as f64));
    out.push(("wire.response_bytes", response.len() as f64));

    // Transports alone: send to peer recv, no RMI on top.
    {
        let bind =
            |index| TcpHost::bind("127.0.0.1:0", index).map_err(|e| format!("bind loopback: {e}"));
        // The hosts' event loops belong on the middleware CPUs, as in a run.
        let (a, b) = Placement::spawn_middleware(|| (bind(0), bind(1)));
        let (a, b) = (a?, b?);
        a.register_host(1, b.local_addr());
        let hops = if request.len() > LARGE_MESSAGE {
            16
        } else {
            100
        };
        let ns = oneway_ns(&a, &b, request, response, hops);
        a.shutdown();
        b.shutdown();
        out.push(("tcp.oneway_us", ns? / 1_000.0));
        let net = InProcNetwork::new();
        out.push((
            "inproc.oneway_ns",
            oneway_ns(&net, &net, request, response, per_batch)?,
        ));
    }

    out.push((
        "skeleton.handle_ns",
        skeleton_handle_ns(service, class, &request_msg, per_batch.min(500))?,
    ));

    // Admission queue: one offer and one pop.
    {
        let mut queue = AdmissionQueue::<u64>::unbounded_fifo();
        let now = SimTime::from_secs(1);
        out.push((
            "admission.offer_pop_ns",
            timed(1_000, |n| {
                let _ = black_box(queue.offer(now, FAR, n));
                black_box(queue.pop(now));
            }),
        ));
    }

    // Reply cache: the at-most-once miss path (lookup, begin, complete —
    // past 1024 entries every begin also evicts) and a replay hit.
    {
        let mut cache: ReplyCache<Vec<u8>> = ReplyCache::new(ReplyCacheConfig::default());
        let (origin, now) = (EndpointId(7), SimTime::from_secs(1));
        let reply = vec![0u8; 26];
        out.push((
            "semantics.miss_path_ns",
            timed(1_000, |n| {
                black_box(cache.lookup(origin, n, origin, n, now));
                cache.begin(origin, n, FAR);
                black_box(cache.complete(origin, n, reply.clone(), reply.len()));
            }),
        ));
        cache.begin(origin, u64::MAX, FAR);
        cache.complete(origin, u64::MAX, reply.clone(), reply.len());
        out.push((
            "semantics.replay_ns",
            timed(1_000, |n| {
                black_box(cache.lookup(origin, u64::MAX, origin, n, now));
            }),
        ));
    }

    // Shard ring of a two-member pool, and key extraction from the
    // encoded arguments of `route`.
    {
        let ring = ShardRing::from_members(&[(0, EndpointId(1)), (1, EndpointId(2))]);
        out.push((
            "shard.owner_ns",
            timed(1_000, |n| {
                black_box(ring.owner(black_box(n.wrapping_mul(0x9e37_79b9_7f4a_7c15))));
            }),
        ));
        let table = OrderRouter::sharding();
        let args = 42u64.to_le_bytes().to_vec();
        out.push((
            "shard.extract_ns",
            timed(1_000, |_| {
                black_box(table.routing_key_for("route", black_box(&args)));
            }),
        ));
    }

    // kvstore: the four operations `route`/`order_status` are made of,
    // on order-replica keys with order-sized values.
    {
        let store = Arc::new(Store::new(StoreConfig::default()));
        let keys: Vec<String> = (0..1_000).map(|id| format!("order/{id}/r0")).collect();
        let value = vec![0x5au8; 33];
        out.push((
            "kv.put_ns",
            timed(1_000, |n| {
                black_box(store.put(&keys[(n % 1_000) as usize], value.clone()));
            }),
        ));
        out.push((
            "kv.get_ns",
            timed(1_000, |n| {
                black_box(store.get(&keys[(n % 1_000) as usize]));
            }),
        ));
        let counter: SharedField<u64> =
            SharedField::new(Arc::clone(&store), OrderRouter::CLASS, "routed_total");
        out.push((
            "kv.cas_update_ns",
            timed(1_000, |_| {
                counter.update(|| 0, |n| *n += 1);
            }),
        ));
        let (owner, now, ttl) = (
            LockOwner::new(1),
            SimTime::from_secs(1),
            SimDuration::from_secs(30),
        );
        out.push((
            "kv.lock_unlock_ns",
            timed(1_000, |_| {
                black_box(store.try_lock(OrderRouter::CLASS, owner, now, ttl));
                let _ = black_box(store.unlock(OrderRouter::CLASS, owner));
            }),
        ));
    }

    // What enabled telemetry charges per event: these cost nothing in the
    // untraced pass and predict the bill of leaving telemetry on.
    {
        let clock: SharedClock = Arc::new(SystemClock::new());
        out.push((
            "clock.now_ns",
            timed(1_000, |_| {
                black_box(clock.now());
            }),
        ));
        let (metrics, _registry) = MetricsHandle::shared();
        let counter = metrics.counter("bench.counter");
        out.push(("metrics.counter_incr_ns", timed(1_000, |_| counter.incr())));
        let histogram = metrics.histogram("bench.histogram");
        out.push((
            "metrics.histogram_record_ns",
            timed(1_000, |n| {
                histogram.record(SimDuration::from_micros(n % 2_000))
            }),
        ));
        // Capacity above the 31 000 emits made here: the ring's eviction
        // path (and its one-off stderr warning) is not what is timed.
        let (trace, _sink) = TraceHandle::buffered(1 << 15);
        let now = SimTime::from_secs(1);
        out.push((
            "metrics.trace_emit_ns",
            timed(1_000, |n| {
                trace.emit(
                    now,
                    TraceEvent::AttemptStarted {
                        invocation: n,
                        attempt: 1,
                        target: 0,
                        deadline: FAR,
                    },
                );
            }),
        ));
    }

    Ok(out)
}
