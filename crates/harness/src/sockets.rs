//! The full stack over real TCP loopback sockets: the paper's "performs as
//! well as plain RMI" claim needs socket-path evidence, not just
//! `InProcNetwork` runs.
//!
//! [`run_socket_overload`] is the PR 2 overload scenario (base load, 2x
//! burst, recovery) driven end-to-end through stub → wire → skeleton →
//! pool → registry over TCP loopback, with the same invariants: zero lost
//! invocations and conservation of terminal events. This is
//! `figures --tcp`.
//!
//! Time domains: all protocol semantics (timeouts, budgets, burst
//! intervals) run on the injected clock — here the [`SystemClock`], since
//! real sockets run in real time. Wall clock appears only inside the TCP
//! I/O layer and inside the service body (which *is* the application's
//! work, not protocol logic).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use elasticrmi::{
    decode_args, encode_result, ClientLb, ElasticPool, ElasticService, PoolConfig, PoolDeps,
    RegistryClient, RegistryServer, RemoteError, RmiError, ServiceContext, Stub,
};
use erm_cluster::{ClusterConfig, ClusterHandle, LatencyModel, ResourceManager};
use erm_kvstore::{Store, StoreConfig};
use erm_metrics::{MetricsHandle, TraceHandle};
use erm_sim::{SharedClock, SimDuration, SystemClock};
use erm_transport::{EndpointId, Host, TcpHost};

/// The overloaded service: `work` burns 2.5 ms on the member's thread (the
/// application's work, not protocol time) and echoes.
struct SpinService;

impl ElasticService for SpinService {
    fn dispatch(
        &mut self,
        method: &str,
        args: &[u8],
        _ctx: &mut ServiceContext,
    ) -> Result<Vec<u8>, RemoteError> {
        match method {
            "work" => {
                let n: u64 = decode_args(method, args)?;
                std::thread::sleep(std::time::Duration::from_micros(2_500));
                encode_result(&n)
            }
            other => Err(RemoteError::no_such_method(other)),
        }
    }
}

/// Terminal-outcome accounting for a batch of client invocations. Every
/// invocation issued lands in exactly one bucket; anything else is a lost
/// invocation, and the harness treats that as a failed run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Invocations that returned their result.
    pub ok: u64,
    /// Application-level remote errors.
    pub remote_error: u64,
    /// Refused by every tried member's admission queue.
    pub overloaded: u64,
    /// Refused locally by the AIMD limiter.
    pub throttled: u64,
    /// Ran out their end-to-end budget.
    pub expired: u64,
    /// No member (sentinel included) answered.
    pub unreachable: u64,
    /// Marshalling failures (a bug if ever nonzero).
    pub marshalling: u64,
}

impl Outcomes {
    pub(crate) fn add<T>(&mut self, result: &Result<T, RmiError>) {
        match result {
            Ok(_) => self.ok += 1,
            Err(RmiError::Remote(_)) => self.remote_error += 1,
            Err(RmiError::Overloaded { .. }) => self.overloaded += 1,
            Err(RmiError::Throttled { .. }) => self.throttled += 1,
            Err(RmiError::DeadlineExceeded { .. }) => self.expired += 1,
            Err(RmiError::PoolUnreachable { .. } | RmiError::SentinelUnreachable(_)) => {
                self.unreachable += 1;
            }
            Err(_) => self.marshalling += 1,
        }
    }

    pub(crate) fn merge(&mut self, other: &Outcomes) {
        self.ok += other.ok;
        self.remote_error += other.remote_error;
        self.overloaded += other.overloaded;
        self.throttled += other.throttled;
        self.expired += other.expired;
        self.unreachable += other.unreachable;
        self.marshalling += other.marshalling;
    }

    /// Sum over every terminal bucket.
    pub fn total(&self) -> u64 {
        self.ok
            + self.remote_error
            + self.overloaded
            + self.throttled
            + self.expired
            + self.unreachable
            + self.marshalling
    }
}

/// Result of [`run_socket_overload`].
#[derive(Debug, Clone)]
pub struct SocketOverloadRun {
    /// Invocations issued across all clients and phases.
    pub offered: u64,
    /// Where each of them terminated.
    pub outcomes: Outcomes,
    /// `offered - outcomes.total()`: must be zero (the invariant).
    pub lost: u64,
    /// Members added by scale-out during the run.
    pub grown: u32,
    /// Largest pool size observed.
    pub peak_members: u32,
    /// Pool size after shutdown-free quiesce (end of recovery).
    pub final_members: u32,
    /// Client-observed latency percentiles over successful invocations.
    pub p50: SimDuration,
    /// 99th percentile of the same.
    pub p99: SimDuration,
    /// Human-readable report (what `figures --tcp` prints).
    pub report: String,
}

/// One client thread's contribution to an overload phase.
struct ClientSlice {
    outcomes: Outcomes,
    offered: u64,
    latencies_us: Vec<u64>,
}

/// Runs the PR 2 overload scenario — base load, a 2x concurrency burst,
/// recovery — through real TCP loopback sockets: closed-loop clients on
/// their own `TcpHost` invoking an elastic pool (admission control on,
/// queue-delay growth signal on) discovered through the RMI registry on
/// the server host.
///
/// `quick` halves every phase for CI smoke runs.
pub fn run_socket_overload(seed: u64, quick: bool) -> SocketOverloadRun {
    // A server "machine" and a client "machine", two hosts on loopback.
    let server = Arc::new(TcpHost::bind("127.0.0.1:0", 0).expect("bind server loopback"));
    let client = Arc::new(TcpHost::bind("127.0.0.1:0", 1).expect("bind client loopback"));
    // The out-of-band bootstrap, as with rmiregistry's host:port: the
    // client knows where the server listens. Every further route (members
    // added by scale-out included) is learned from the advertised
    // addresses on inbound frames.
    client.register_host(0, server.local_addr());
    // Dial ahead of first use: links are keyed by address, so warming any
    // server-host endpoint spares the first invocation (registry lookup
    // included) the connect handshake.
    client.preconnect(EndpointId(0));
    let clock: SharedClock = Arc::new(SystemClock::new());
    let deps = PoolDeps {
        cluster: ClusterHandle::new(ResourceManager::new(ClusterConfig {
            nodes: 8,
            provisioning: LatencyModel::instant(),
            ..ClusterConfig::default()
        })),
        net: server.clone(),
        store: Arc::new(Store::new(StoreConfig::default())),
        clock: Arc::clone(&clock),
        trace: TraceHandle::disabled(),
        metrics: MetricsHandle::disabled(),
    };
    let mut pool = ElasticPool::instantiate(
        PoolConfig::builder("SocketOverload")
            .min_pool_size(2)
            .max_pool_size(6)
            .burst_interval(SimDuration::from_millis(250))
            .overload_capacity(32)
            .queue_delay_grow_above(SimDuration::from_millis(5))
            .build()
            .expect("valid overload config"),
        Arc::new(|| Box::new(SpinService)),
        deps,
        None,
    )
    .expect("pool over TCP instantiates");

    // Registry on the server machine; clients look the pool up by name.
    let registry = RegistryServer::spawn(server.clone());
    {
        let mut binder = RegistryClient::connect(server.clone(), registry.endpoint());
        assert!(binder.bind("overload", pool.sentinel()).expect("bind"));
    }
    let mut lookup = RegistryClient::connect(client.clone(), registry.endpoint());
    let sentinel = lookup
        .lookup("overload")
        .expect("registry answers over TCP")
        .expect("name bound");

    // Phases: base concurrency, then 2x clients for the burst, then base
    // again. Closed-loop: each client issues the next invocation as soon
    // as the previous one terminates.
    let scale = if quick { 1 } else { 2 };
    let warmup = SimDuration::from_millis(600 * scale);
    let burst = SimDuration::from_millis(1_200 * scale);
    let recovery = SimDuration::from_millis(600 * scale);
    let base_clients = 4u32;
    let burst_clients = 8u32; // 2x

    let t0 = clock.now();
    let burst_from = t0 + warmup;
    let burst_to = burst_from + burst;
    let end = burst_to + recovery;

    let running = Arc::new(AtomicU32::new(0));
    let mut handles = Vec::new();
    for i in 0..burst_clients {
        let is_burst_only = i >= base_clients;
        let net = client.clone();
        let (ep, mailbox) = client.open();
        let clock = Arc::clone(&clock);
        let running = Arc::clone(&running);
        running.fetch_add(1, Ordering::SeqCst);
        handles.push(std::thread::spawn(move || {
            let mut slice = ClientSlice {
                outcomes: Outcomes::default(),
                offered: 0,
                latencies_us: Vec::new(),
            };
            let mut stub = match Stub::connect(
                net,
                ep,
                mailbox,
                sentinel,
                ClientLb::Random {
                    seed: seed ^ u64::from(i),
                },
                Arc::clone(&clock),
            ) {
                Ok(s) => s,
                Err(_) => {
                    // Connection refused entirely: count nothing — the
                    // client issued no invocations.
                    running.fetch_sub(1, Ordering::SeqCst);
                    return slice;
                }
            };
            stub.set_reply_timeout(SimDuration::from_millis(250));
            stub.set_invocation_budget(SimDuration::from_secs(1));
            let mut n = 0u64;
            loop {
                let now = clock.now();
                if now >= end {
                    break;
                }
                if is_burst_only {
                    if now < burst_from {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        continue;
                    }
                    if now >= burst_to {
                        break;
                    }
                }
                let before = clock.now();
                let result: Result<u64, RmiError> = stub.invoke("work", &n);
                slice.offered += 1;
                if result.is_ok() {
                    slice
                        .latencies_us
                        .push(clock.now().saturating_since(before).as_micros());
                }
                slice.outcomes.add(&result);
                n += 1;
            }
            running.fetch_sub(1, Ordering::SeqCst);
            slice
        }));
    }

    // Sample pool size while the clients run, for the growth story.
    let mut peak = pool.size();
    while running.load(Ordering::SeqCst) > 0 {
        peak = peak.max(pool.size());
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    let mut offered = 0u64;
    let mut outcomes = Outcomes::default();
    let mut latencies: Vec<u64> = Vec::new();
    for h in handles {
        let slice = h.join().expect("client thread");
        offered += slice.offered;
        outcomes.merge(&slice.outcomes);
        latencies.extend(slice.latencies_us);
    }
    let lost = offered - outcomes.total();
    let stats = pool.stats();
    let final_members = pool.size();
    peak = peak.max(final_members);
    latencies.sort_unstable();
    let pct = |p: f64| -> SimDuration {
        if latencies.is_empty() {
            SimDuration::ZERO
        } else {
            let idx = ((latencies.len() - 1) as f64 * p) as usize;
            SimDuration::from_micros(latencies[idx])
        }
    };
    let (p50, p99) = (pct(0.50), pct(0.99));

    let mut report = String::new();
    let _ = writeln!(
        report,
        "# Overload over TCP loopback (seed {seed}{}): {base_clients} closed-loop clients, \
         2x burst to {burst_clients}, 2.5 ms service, pool 2..6 + EDF admission",
        if quick { ", quick" } else { "" }
    );
    let _ = writeln!(report, "  {:<22} {:>10}", "offered", offered);
    let _ = writeln!(report, "  {:<22} {:>10}", "completed ok", outcomes.ok);
    let _ = writeln!(
        report,
        "  {:<22} {:>10}",
        "remote errors", outcomes.remote_error
    );
    let _ = writeln!(report, "  {:<22} {:>10}", "overloaded", outcomes.overloaded);
    let _ = writeln!(report, "  {:<22} {:>10}", "throttled", outcomes.throttled);
    let _ = writeln!(report, "  {:<22} {:>10}", "expired", outcomes.expired);
    let _ = writeln!(
        report,
        "  {:<22} {:>10}",
        "unreachable", outcomes.unreachable
    );
    let _ = writeln!(
        report,
        "  {:<22} {:>10}",
        "marshalling", outcomes.marshalling
    );
    let _ = writeln!(report, "  {:<22} {:>10}", "lost invocations", lost);
    let _ = writeln!(
        report,
        "  pool: started 2, grew {} (peak {peak}, final {final_members}); \
         ok-latency p50 {:.2} ms, p99 {:.2} ms",
        stats.grown,
        p50.as_micros() as f64 / 1_000.0,
        p99.as_micros() as f64 / 1_000.0,
    );
    let _ = writeln!(
        report,
        "  invariant: conservation of terminal events {} (offered {} == terminals {})",
        if lost == 0 { "HOLDS" } else { "VIOLATED" },
        offered,
        outcomes.total(),
    );

    pool.shutdown();
    registry.shutdown();
    server.shutdown();
    client.shutdown();

    SocketOverloadRun {
        offered,
        outcomes,
        lost,
        grown: stats.grown,
        peak_members: peak,
        final_members,
        p50,
        p99,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_overload_conserves_every_invocation() {
        let run = run_socket_overload(7, true);
        assert!(run.offered > 0);
        assert_eq!(run.lost, 0, "every invocation must terminate: {run:?}");
        assert!(run.outcomes.ok > 0, "some invocations must succeed");
    }
}
