//! Outside-in tracing: the benchmark's own decorators around the calls
//! into each layer. Nothing inside the program is instrumented here; a
//! [`TracedHost`] wraps each `Host` and stamps `send`, a [`TracedService`]
//! wraps the service and stamps `dispatch`, and the generator stamps
//! `invoke_begin` entry and harvest itself. Stamps stay in memory and are
//! assembled into per-invocation spans when the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use elasticrmi::{ElasticService, MethodCallStats, RemoteError, RmiMessage, ServiceContext};
use erm_transport::{EndpointId, Host, Mailbox, Network, SendError};

/// Where on an invocation's path a stamp was taken, in path order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Point {
    /// Generator, entering `invoke_begin`.
    Begin = 0,
    /// Client host `send` of the `Request`.
    ClientSend = 1,
    /// Service `dispatch` entry.
    DispatchEnter = 2,
    /// Service `dispatch` return.
    DispatchExit = 3,
    /// Server host `send` of the `Response`.
    ServerSend = 4,
    /// Generator, `drain_completed` returned the result.
    Harvest = 5,
}

const POINTS: usize = 6;

/// One timestamp. `invocation` is `None` on a [`Point::ServerSend`], which
/// only knows the wire call id; the client's send recorded which
/// invocation that call belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    pub point: Point,
    pub invocation: Option<u64>,
    pub call: u64,
    pub at_ns: u64,
}

type Log = Mutex<Vec<Stamp>>;

/// Stamps per log before the vector must grow. Reserved up front (the
/// pages are untouched until written) because doubling a 50 MB vector on
/// the skeleton thread would stall the very path being timed.
const LOG_CAPACITY: usize = 1 << 22;

/// Owns the time base and every decorator's stamp log.
pub struct Recorder {
    origin: Instant,
    armed: AtomicBool,
    logs: Mutex<Vec<Arc<Log>>>,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            origin: Instant::now(),
            armed: AtomicBool::new(false),
            logs: Mutex::new(Vec::new()),
        })
    }

    /// The instant every stamp is measured from; the generator times its
    /// own stamps against it so all of them share one axis.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Decorators stamp (and pay for decoding) only while armed: the
    /// measured window, not set-up or warm-up.
    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::Relaxed);
    }

    fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// A log for one decorator. Each is written by (nearly) one thread, so
    /// its mutex is uncontended.
    fn new_log(&self) -> Arc<Log> {
        let log = Arc::new(Mutex::new(Vec::with_capacity(LOG_CAPACITY)));
        self.logs
            .lock()
            .expect("no stamping thread panics holding the log list")
            .push(Arc::clone(&log));
        log
    }

    /// Every decorator stamp taken so far.
    pub fn take(&self) -> Vec<Stamp> {
        let logs = self
            .logs
            .lock()
            .expect("no stamping thread panics holding the log list");
        let mut all = Vec::new();
        for log in logs.iter() {
            all.append(&mut log.lock().expect("stamping never panics"));
        }
        all
    }
}

fn push(log: &Log, stamp: Stamp) {
    log.lock().expect("stamping never panics").push(stamp);
}

/// Which end of the path a [`TracedHost`] sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Client,
    Server,
}

/// A `Host` decorator that stamps every `send`. The payload is decoded
/// with `RmiMessage::decode` to learn which invocation (client side, from
/// the `Request`'s context) or call (server side, from the `Response`) the
/// frame belongs to. It also keeps the first request and response it saw,
/// so the wire micro-timings use this workload's real message shapes.
pub struct TracedHost {
    inner: Arc<dyn Host>,
    side: Side,
    recorder: Arc<Recorder>,
    log: Arc<Log>,
    sample: OnceLock<Vec<u8>>,
}

impl TracedHost {
    pub fn new(inner: Arc<dyn Host>, side: Side, recorder: &Arc<Recorder>) -> Arc<TracedHost> {
        Arc::new(TracedHost {
            inner,
            side,
            recorder: Arc::clone(recorder),
            log: recorder.new_log(),
            sample: OnceLock::new(),
        })
    }

    /// The first `Request` (client side) or `Response` (server side) sent
    /// through this host while armed.
    pub fn sample(&self) -> Option<&[u8]> {
        self.sample.get().map(Vec::as_slice)
    }
}

impl Network for TracedHost {
    fn send(&self, from: EndpointId, to: EndpointId, payload: Vec<u8>) -> Result<(), SendError> {
        if self.recorder.armed() {
            // Stamp first: the decode below is tracing's own cost and must
            // not be billed to the segment that ends here.
            let at_ns = self.recorder.now_ns();
            match (self.side, RmiMessage::decode(&payload)) {
                (Side::Client, Ok(RmiMessage::Request { call, context, .. })) => {
                    push(
                        &self.log,
                        Stamp {
                            point: Point::ClientSend,
                            invocation: Some(context.id),
                            call,
                            at_ns,
                        },
                    );
                    self.sample.get_or_init(|| payload.clone());
                }
                (Side::Server, Ok(RmiMessage::Response { call, .. })) => {
                    push(
                        &self.log,
                        Stamp {
                            point: Point::ServerSend,
                            invocation: None,
                            call,
                            at_ns,
                        },
                    );
                    self.sample.get_or_init(|| payload.clone());
                }
                _ => {} // control plane, discovery: not part of an invocation
            }
        }
        self.inner.send(from, to, payload)
    }

    fn endpoint_open(&self, id: EndpointId) -> bool {
        self.inner.endpoint_open(id)
    }

    fn backpressure(&self, to: EndpointId) -> bool {
        self.inner.backpressure(to)
    }
}

impl Host for TracedHost {
    fn open(&self) -> (EndpointId, Mailbox) {
        self.inner.open()
    }

    fn close(&self, id: EndpointId) {
        self.inner.close(id);
    }
}

/// An `ElasticService` decorator that stamps `dispatch` entry and return
/// with the invocation id the skeleton put in the context.
pub struct TracedService {
    inner: Box<dyn ElasticService>,
    recorder: Arc<Recorder>,
    log: Arc<Log>,
}

impl TracedService {
    pub fn new(inner: Box<dyn ElasticService>, recorder: &Arc<Recorder>) -> TracedService {
        TracedService {
            inner,
            recorder: Arc::clone(recorder),
            log: recorder.new_log(),
        }
    }
}

impl ElasticService for TracedService {
    fn dispatch(
        &mut self,
        method: &str,
        args: &[u8],
        ctx: &mut ServiceContext,
    ) -> Result<Vec<u8>, RemoteError> {
        let invocation = ctx.invocation().map(|inv| inv.id);
        if !self.recorder.armed() || invocation.is_none() {
            return self.inner.dispatch(method, args, ctx);
        }
        let entered = self.recorder.now_ns();
        let result = self.inner.dispatch(method, args, ctx);
        let returned = self.recorder.now_ns();
        let mut log = self.log.lock().expect("stamping never panics");
        for (point, at_ns) in [
            (Point::DispatchEnter, entered),
            (Point::DispatchExit, returned),
        ] {
            log.push(Stamp {
                point,
                invocation,
                call: 0,
                at_ns,
            });
        }
        result
    }

    fn change_pool_size(&mut self, stats: &MethodCallStats, ctx: &mut ServiceContext) -> i32 {
        self.inner.change_pool_size(stats, ctx)
    }

    fn ram_utilization(&self) -> f32 {
        self.inner.ram_utilization()
    }

    fn on_start(&mut self, ctx: &mut ServiceContext) {
        self.inner.on_start(ctx);
    }

    fn on_shutdown(&mut self, ctx: &mut ServiceContext) {
        self.inner.on_shutdown(ctx);
    }
}

/// The six stamps of one invocation whose chain is complete, in path
/// order ([`Point`] as index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chain {
    pub invocation: u64,
    pub at_ns: [u64; POINTS],
}

/// Names of the five consecutive segments between the six stamps.
pub const SEGMENTS: [&str; 5] = [
    "stub.begin_us",
    "path.request_leg_us",
    "service.dispatch_us",
    "skeleton.reply_build_us",
    "path.reply_leg_us",
];

impl Chain {
    /// The five segment lengths in nanoseconds. They are consecutive, so
    /// they sum to `latency_ns` exactly.
    pub fn segments_ns(&self) -> [u64; 5] {
        let t = &self.at_ns;
        [
            t[1] - t[0],
            t[2] - t[1],
            t[3] - t[2],
            t[4] - t[3],
            t[5] - t[4],
        ]
    }

    /// `invoke_begin` entry to harvest.
    #[cfg(test)]
    pub fn latency_ns(&self) -> u64 {
        self.at_ns[5] - self.at_ns[0]
    }
}

/// Assembled spans of one traced window.
#[derive(Debug, Default)]
pub struct SpanTable {
    /// Invocations with exactly one stamp at each point, in time order.
    pub complete: Vec<Chain>,
    /// Invocations begun in the window whose chain has a hole, a repeated
    /// point (a retry) or a time inversion. Counted, never dropped
    /// silently: a growing number means the medians describe only the
    /// easy invocations.
    pub incomplete: u64,
}

/// Joins stamps into per-invocation chains. Only invocations with a
/// [`Point::Begin`] stamp are considered — anything else was begun before
/// the window opened and carries a partial chain by construction.
pub fn assemble(stamps: &[Stamp]) -> SpanTable {
    let call_to_invocation: HashMap<u64, u64> = stamps
        .iter()
        .filter(|s| s.point == Point::ClientSend)
        .filter_map(|s| s.invocation.map(|inv| (s.call, inv)))
        .collect();

    // Per invocation: stamp time and how many stamps landed on each point.
    let mut chains: HashMap<u64, ([u64; POINTS], [u8; POINTS])> = HashMap::new();
    for stamp in stamps {
        let Some(invocation) = stamp
            .invocation
            .or_else(|| call_to_invocation.get(&stamp.call).copied())
        else {
            continue; // a reply to a request sent before the window opened
        };
        let (at, seen) = chains.entry(invocation).or_default();
        let i = stamp.point as usize;
        at[i] = stamp.at_ns;
        seen[i] = seen[i].saturating_add(1);
    }

    let mut table = SpanTable::default();
    for (invocation, (at_ns, seen)) in chains {
        if seen[Point::Begin as usize] == 0 {
            continue;
        }
        let once = seen.iter().all(|&n| n == 1);
        let ordered = at_ns.windows(2).all(|w| w[0] <= w[1]);
        if once && ordered {
            table.complete.push(Chain { invocation, at_ns });
        } else {
            table.incomplete += 1;
        }
    }
    table
        .complete
        .sort_unstable_by_key(|c| (c.at_ns[0], c.invocation));
    table
}

/// How many invocations the Chrome trace file holds: enough to scroll
/// through, small enough to open (six events each).
const CHROME_TRACE_INVOCATIONS: usize = 5_000;

/// Renders the first few thousand chains as Chrome `trace_event` JSON: one
/// complete (`X`) event per span, the invocation id as `tid`, and each
/// segment naming the whole-invocation span as its parent.
pub fn chrome_trace(workload: &str, table: &SpanTable) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    let mut event = |name: &str, parent: &str, tid: u64, start_ns: u64, end_ns: u64| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\": \"{name}\", \"cat\": \"{workload}\", \"ph\": \"X\", \"pid\": 1, \
             \"tid\": {tid}, \"ts\": {:.3}, \"dur\": {:.3}, \
             \"args\": {{\"invocation\": {tid}, \"parent\": \"{parent}\"}}}}",
            start_ns as f64 / 1_000.0,
            (end_ns - start_ns) as f64 / 1_000.0,
        );
    };
    for chain in table.complete.iter().take(CHROME_TRACE_INVOCATIONS) {
        let t = &chain.at_ns;
        event("invocation", "", chain.invocation, t[0], t[5]);
        for (i, name) in SEGMENTS.iter().enumerate() {
            let name = name.trim_end_matches("_us");
            event(name, "invocation", chain.invocation, t[i], t[i + 1]);
        }
    }
    out.push_str("\n], \"displayTimeUnit\": \"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn stamp(point: Point, invocation: Option<u64>, call: u64, at_ns: u64) -> Stamp {
        Stamp {
            point,
            invocation,
            call,
            at_ns,
        }
    }

    /// A full chain for `invocation` on wire call `call`, starting at `t0`.
    fn full_chain(invocation: u64, call: u64, t0: u64) -> Vec<Stamp> {
        vec![
            stamp(Point::Begin, Some(invocation), 0, t0),
            stamp(Point::ClientSend, Some(invocation), call, t0 + 3),
            stamp(Point::DispatchEnter, Some(invocation), 0, t0 + 40),
            stamp(Point::DispatchExit, Some(invocation), 0, t0 + 45),
            stamp(Point::ServerSend, None, call, t0 + 52),
            stamp(Point::Harvest, Some(invocation), 0, t0 + 90),
        ]
    }

    #[test]
    fn five_segments_sum_to_the_invocation_latency() {
        let mut stamps = full_chain(7, 1007, 1_000);
        stamps.extend(full_chain(8, 1008, 1_010));
        stamps.reverse(); // logs are merged in no particular order
        let table = assemble(&stamps);
        assert_eq!(table.incomplete, 0);
        assert_eq!(table.complete.len(), 2);
        let chain = table.complete[0];
        assert_eq!(chain.invocation, 7, "sorted by begin time");
        assert_eq!(chain.segments_ns(), [3, 37, 5, 7, 38]);
        assert_eq!(chain.segments_ns().iter().sum::<u64>(), chain.latency_ns());
        assert_eq!(chain.latency_ns(), 90);
    }

    #[test]
    fn a_stamp_with_no_matching_dispatch_is_counted_not_dropped() {
        let mut stamps = full_chain(1, 101, 0);
        // Invocation 2 was sent but never dispatched or answered.
        stamps.push(stamp(Point::Begin, Some(2), 0, 10));
        stamps.push(stamp(Point::ClientSend, Some(2), 102, 12));
        // Invocation 3 was retried: two sends, so its legs are ambiguous.
        stamps.extend(full_chain(3, 103, 20));
        stamps.push(stamp(Point::ClientSend, Some(3), 203, 30));
        // Invocation 4 began before the window: no Begin stamp, ignored.
        stamps.push(stamp(Point::DispatchEnter, Some(4), 0, 5));
        stamps.push(stamp(Point::ServerSend, None, 999, 6));
        let table = assemble(&stamps);
        assert_eq!(table.complete.len(), 1);
        assert_eq!(table.complete[0].invocation, 1);
        assert_eq!(table.incomplete, 2, "the lost one and the retried one");
    }

    #[test]
    fn chrome_trace_is_json_with_one_event_per_span() {
        let table = assemble(&full_chain(5, 55, 2_000));
        let doc = Json::parse(&chrome_trace("echo_tcp_sat", &table)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 6, "the invocation and its five segments");
        assert!(events
            .iter()
            .all(|e| e.get("ph").unwrap().as_str() == Some("X")
                && e.get("tid").unwrap().as_f64() == Some(5.0)));
        assert_eq!(
            events[2].get("name").unwrap().as_str(),
            Some("path.request_leg")
        );
    }
}
