//! Set-up and tear-down of one workload's system under test: hosts, the
//! serving side (a standalone skeleton — the plain-RMI shape — or a pinned
//! two-member `ElasticPool`), and the one pipelined `Stub` the generator
//! drives. Only public API of the crates under test is used.

use std::sync::atomic::AtomicU32;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use elasticrmi::{
    decode_args, encode_result, ClientLb, ElasticPool, ElasticService, PoolConfig, PoolDeps,
    RemoteError, RmiMessage, Semantics, SemanticsTable, ServiceContext, Skeleton, Stub,
};
use erm_apps::marketcetera::OrderRouter;
use erm_cluster::{ClusterConfig, ClusterHandle, LatencyModel, ResourceManager};
use erm_kvstore::{Store, StoreConfig};
use erm_metrics::{MetricsHandle, Registry, TraceHandle};
use erm_sim::{SharedClock, SimDuration, SystemClock};
use erm_transport::{EndpointId, Host, InProcNetwork, Network, TcpHost};

use crate::affinity::Placement;
use crate::trace::{Recorder, Side, TracedHost, TracedService};

/// Reply timeout = invocation budget, so one injection is one wire
/// attempt and exactly one terminal outcome.
pub const BUDGET: SimDuration = SimDuration::from_secs(2);

/// Size of the `blob` argument.
pub const BLOB_BYTES: usize = 64 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Tcp,
    Inproc,
}

/// What serves the invocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serving {
    /// One skeleton hosting [`BenchService`], no pool runtime.
    Standalone,
    /// `OrderRouter` on an `ElasticPool` pinned at two members, sharded,
    /// `route` at-most-once.
    OrdersPool,
}

/// The benchmark's own zero-work service: what it costs to get here and
/// back is the middleware's, not the application's.
struct BenchService;

impl ElasticService for BenchService {
    fn dispatch(
        &mut self,
        method: &str,
        args: &[u8],
        _ctx: &mut ServiceContext,
    ) -> Result<Vec<u8>, RemoteError> {
        match method {
            "echo" => encode_result(&decode_args::<u64>(method, args)?),
            "blob" => encode_result(&(decode_args::<Vec<u8>>(method, args)?.len() as u64)),
            other => Err(RemoteError::no_such_method(other)),
        }
    }
}

/// A fresh [`BenchService`], for timing a skeleton on its own.
pub fn bench_service() -> Box<dyn ElasticService> {
    Box::new(BenchService)
}

/// Everything the traced pass switches on: the benchmark's own recorder
/// plus *enabled* handles for the program's existing instruments.
pub struct Telemetry {
    pub recorder: Arc<Recorder>,
    pub registry: Arc<Registry>,
    pub metrics: MetricsHandle,
    pub trace: TraceHandle,
}

impl Telemetry {
    pub fn new() -> Telemetry {
        let (metrics, registry) = MetricsHandle::shared();
        // The ring keeps the newest records; it exists to make the program
        // pay for emitting, not to be read back in full.
        let (trace, _sink) = TraceHandle::buffered(1 << 16);
        Telemetry {
            recorder: Recorder::new(),
            registry,
            metrics,
            trace,
        }
    }
}

enum ServerSide {
    Standalone {
        join: JoinHandle<()>,
        ctl: EndpointId,
        endpoint: EndpointId,
        net: Arc<dyn Network>,
    },
    Pool(Box<ElasticPool>),
}

/// One assembled system under test.
pub struct Rig {
    pub stub: Stub,
    pub store: Arc<Store>,
    /// Server host first, client host second; empty on in-proc.
    pub tcp: Vec<Arc<TcpHost>>,
    /// The traced pass's host decorators (client, server).
    pub taps: Option<(Arc<TracedHost>, Arc<TracedHost>)>,
    server: ServerSide,
}

impl Rig {
    /// Binds hosts, starts the serving side, connects the stub and makes
    /// the first successful invocation. Returns the rig and how long all
    /// of that took — the `setup_s` sample.
    pub fn build(
        transport: Transport,
        serving: Serving,
        seed: u64,
        telemetry: Option<&Telemetry>,
    ) -> Result<(Rig, f64), String> {
        // Every thread started in here stays off the generator's CPU. The
        // clock runs inside: moving the main thread between CPUs is the
        // benchmark's doing, not the program's set-up.
        Placement::spawn_middleware(|| {
            let started = Instant::now();
            let rig = Rig::assemble(transport, serving, seed, telemetry)?;
            Ok((rig, started.elapsed().as_secs_f64()))
        })
    }

    fn assemble(
        transport: Transport,
        serving: Serving,
        seed: u64,
        telemetry: Option<&Telemetry>,
    ) -> Result<Rig, String> {
        let clock: SharedClock = Arc::new(SystemClock::new());

        let mut tcp = Vec::new();
        let (server_host, client_host): (Arc<dyn Host>, Arc<dyn Host>) = match transport {
            Transport::Inproc => {
                let net = Arc::new(InProcNetwork::new());
                (net.clone(), net)
            }
            Transport::Tcp => {
                let bind = |index| {
                    TcpHost::bind("127.0.0.1:0", index)
                        .map(Arc::new)
                        .map_err(|e| format!("bind loopback host {index}: {e}"))
                };
                let (server, client) = (bind(0)?, bind(1)?);
                // The one line of out-of-band bootstrap, as with
                // rmiregistry's host:port; every other route is learned
                // from advertised addresses on inbound frames.
                client.register_host(0, server.local_addr());
                client.preconnect(EndpointId(0));
                if let Some(t) = telemetry {
                    server.install_metrics(&t.metrics);
                    client.install_metrics(&t.metrics);
                }
                tcp = vec![Arc::clone(&server), Arc::clone(&client)];
                (server, client)
            }
        };
        let taps = telemetry.map(|t| {
            (
                TracedHost::new(Arc::clone(&client_host), Side::Client, &t.recorder),
                TracedHost::new(Arc::clone(&server_host), Side::Server, &t.recorder),
            )
        });
        let (server_host, client_host) = match &taps {
            Some((client_tap, server_tap)) => (
                Arc::clone(server_tap) as Arc<dyn Host>,
                Arc::clone(client_tap) as Arc<dyn Host>,
            ),
            None => (server_host, client_host),
        };

        let store = Arc::new(Store::new(StoreConfig::default()));
        let (trace, metrics) = telemetry.map_or_else(
            || (TraceHandle::disabled(), MetricsHandle::disabled()),
            |t| (t.trace.clone(), t.metrics.clone()),
        );
        if telemetry.is_some() {
            store.install_lock_metrics(&metrics);
        }
        let wrap = {
            let recorder = telemetry.map(|t| Arc::clone(&t.recorder));
            move |service: Box<dyn ElasticService>| -> Box<dyn ElasticService> {
                match &recorder {
                    Some(recorder) => Box::new(TracedService::new(service, recorder)),
                    None => service,
                }
            }
        };

        let server = match serving {
            Serving::Standalone => {
                let (endpoint, mailbox) = server_host.open();
                let (ctl, _ctl_mailbox) = server_host.open();
                let net: Arc<dyn Network> = Arc::clone(&server_host) as Arc<dyn Network>;
                let ctx = ServiceContext::new(
                    Arc::clone(&store),
                    "Bench",
                    0,
                    Arc::clone(&clock),
                    Arc::new(AtomicU32::new(1)),
                );
                let mut skeleton = Skeleton::new(
                    0,
                    endpoint,
                    ctl,
                    Arc::clone(&net),
                    Arc::clone(&clock),
                    wrap(bench_service()),
                    ctx,
                    trace.clone(),
                    None,
                );
                skeleton.set_metrics(&metrics);
                let join = std::thread::Builder::new()
                    .name("bench-skeleton".to_string())
                    .spawn(move || skeleton.run(mailbox))
                    .map_err(|e| format!("spawn skeleton thread: {e}"))?;
                ServerSide::Standalone {
                    join,
                    ctl,
                    endpoint,
                    net,
                }
            }
            Serving::OrdersPool => {
                let config = PoolConfig::builder(OrderRouter::CLASS)
                    .min_pool_size(2)
                    .max_pool_size(2)
                    // Short enough that load polls and membership
                    // broadcasts run many times inside the window.
                    .burst_interval(SimDuration::from_millis(250))
                    .semantics(SemanticsTable::new().method("route", Semantics::AtMostOnce))
                    .sharding(OrderRouter::sharding())
                    .build()
                    .map_err(|e| format!("pool config: {e}"))?;
                let deps = PoolDeps {
                    cluster: ClusterHandle::new(ResourceManager::new(ClusterConfig {
                        nodes: 2,
                        provisioning: LatencyModel::instant(),
                        ..ClusterConfig::default()
                    })),
                    net: Arc::clone(&server_host),
                    store: Arc::clone(&store),
                    clock: Arc::clone(&clock),
                    trace: trace.clone(),
                    metrics: metrics.clone(),
                };
                let factory = Arc::new(move || wrap(Box::new(OrderRouter::new())));
                let pool = ElasticPool::instantiate(config, factory, deps, None)
                    .map_err(|e| format!("instantiate pool: {e}"))?;
                ServerSide::Pool(Box::new(pool))
            }
        };

        let sentinel = match &server {
            ServerSide::Standalone { endpoint, .. } => *endpoint,
            ServerSide::Pool(pool) => pool.sentinel(),
        };
        let (ep, mailbox) = client_host.open();
        let mut stub = Stub::connect(
            Arc::clone(&client_host) as Arc<dyn Network>,
            ep,
            mailbox,
            sentinel,
            ClientLb::Random { seed },
            Arc::clone(&clock),
        )
        .map_err(|e| format!("stub connect: {e}"))?;
        stub.set_reply_timeout(BUDGET);
        stub.set_invocation_budget(BUDGET);
        stub.set_trace(trace);
        if serving == Serving::OrdersPool {
            // What `ElasticPool::stub` does for an in-process client; a
            // remote client declares the same tables itself.
            stub.set_semantics(SemanticsTable::new().method("route", Semantics::AtMostOnce));
            stub.set_sharding(OrderRouter::sharding());
        }

        // First successful invocation: set-up is over when the path works.
        match serving {
            Serving::Standalone => {
                let echoed: u64 = stub
                    .invoke("echo", &u64::MAX)
                    .map_err(|e| format!("first invocation: {e}"))?;
                if echoed != u64::MAX {
                    return Err(format!("first echo returned {echoed}"));
                }
            }
            Serving::OrdersPool => {
                let routed: u64 = stub
                    .invoke("routed_count", &())
                    .map_err(|e| format!("first invocation: {e}"))?;
                if routed != 0 {
                    return Err(format!("fresh pool reports {routed} routed orders"));
                }
            }
        }

        Ok(Rig {
            stub,
            store,
            tcp,
            taps,
            server,
        })
    }

    /// Pool counters, when the serving side is a pool.
    pub fn pool_stats(&self) -> Option<elasticrmi::PoolStats> {
        match &self.server {
            ServerSide::Pool(pool) => Some(pool.stats()),
            ServerSide::Standalone { .. } => None,
        }
    }

    /// Stops the serving side and the hosts, and waits for the threads
    /// that can be waited for (skeleton, pool runtime and members).
    pub fn teardown(self) {
        let Rig {
            stub, tcp, server, ..
        } = self;
        drop(stub);
        match server {
            ServerSide::Standalone {
                join,
                ctl,
                endpoint,
                net,
            } => {
                let _ = net.send(ctl, endpoint, RmiMessage::Shutdown.encode());
                let _ = join.join();
            }
            ServerSide::Pool(mut pool) => pool.shutdown(),
        }
        for host in tcp {
            host.shutdown();
        }
    }
}
