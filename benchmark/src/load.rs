//! The load generator: one thread, one pipelined `Stub`, one client host.
//! It tops the window up (closed loop) or injects on a fixed schedule
//! (open loop), harvests by spinning on `drain_completed`, checks every
//! result, and accounts for every injection's terminal outcome.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use elasticrmi::{RmiError, StubStats};
use erm_apps::marketcetera::{Order, OrderStream, RouteAck, Side};
use erm_kvstore::{LockStats, StoreStats};
use erm_transport::TcpStats;
use erm_workloads::ZipfKeys;

use crate::procfs;
use crate::rig::{Rig, Telemetry, BLOB_BYTES, BUDGET};
use crate::stats::{median, percentile};
use crate::trace::{Point, Stamp};

/// How invocations are offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Keep `window` invocations outstanding; the next is sent when one
    /// completes.
    Closed { window: usize },
    /// `rate` arrivals per second on a fixed schedule, regardless of
    /// completions; each is timed from the instant it was due.
    Paced { rate: u64 },
}

/// Which remote methods the generator calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ops {
    Echo,
    Blob,
    Orders,
}

/// Order ids are drawn Zipf(1.1) from this fixed universe, so the store
/// stays bounded and writes sit beside reads on hot keys.
const ORDER_UNIVERSE: u64 = 100_000;
const ZIPF_EXPONENT: f64 = 1.1;
/// Share of `route` among order operations; the rest are `order_status`.
const ROUTE_SHARE: f64 = 0.70;

/// The window is cut into slices of this length and throughput, goodput
/// and CPU per operation are medians over the slices. The host takes a
/// CPU away from this VM for tens to hundreds of milliseconds now and
/// then; a mean over the window moves with every such theft, the median
/// slice does not.
const SLICE: Duration = Duration::from_millis(500);

/// SplitMix64: the generator's own source for the operation mix, so the
/// benchmark needs no RNG crate. Deterministic from the seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The order with a given id. A pure function of the id, so any `route`
/// of that id stores the same bytes and `order_status` can be checked
/// against the whole order, not just its id.
fn order_for(id: u64) -> Order {
    Order {
        id,
        symbol: OrderStream::SYMBOLS[(id % 8) as usize].to_string(),
        side: if id.is_multiple_of(2) {
            Side::Buy
        } else {
            Side::Sell
        },
        quantity: 1 + (id % 1_000) as u32,
        limit_cents: (!id.is_multiple_of(4)).then_some(100 + id % 99_900),
    }
}

/// Bytes `order` occupies as an argument, without encoding it a second
/// time: id, length-prefixed symbol, side, quantity, optional limit.
fn encoded_len(order: &Order) -> u32 {
    let limit = if order.limit_cents.is_some() { 9 } else { 1 };
    (8 + 4 + order.symbol.len() + 4 + 4 + limit) as u32
}

/// What a result must look like.
enum Expect {
    Echo(u64),
    BlobLen,
    Ack(u64),
    /// `order_status(id)`. If a `route` of `id` had been acknowledged
    /// before this call began, the order must be there.
    Status {
        id: u64,
        acked: bool,
    },
}

struct Pending {
    /// When latency starts: the due time (paced) or `invoke_begin` entry.
    start_ns: u64,
    arg_bytes: u32,
    measured: bool,
    expect: Expect,
}

/// Produces each next operation from the seed.
struct OpSource {
    ops: Ops,
    next_echo: u64,
    blob: Vec<u8>,
    keys: Option<ZipfKeys>,
    mix: SplitMix,
    /// Order ids whose `route` has been acknowledged.
    acked: Vec<bool>,
}

impl OpSource {
    fn new(ops: Ops, seed: u64) -> OpSource {
        let mut mix = SplitMix(seed ^ 0x6f70_735f_6d69_7821);
        let blob = if ops == Ops::Blob {
            let mut bytes = Vec::with_capacity(BLOB_BYTES);
            while bytes.len() < BLOB_BYTES {
                bytes.extend_from_slice(&mix.next().to_le_bytes());
            }
            bytes
        } else {
            Vec::new()
        };
        OpSource {
            ops,
            next_echo: mix.next() >> 1,
            blob,
            keys: (ops == Ops::Orders).then(|| ZipfKeys::new(ORDER_UNIVERSE, ZIPF_EXPONENT, seed)),
            mix,
            acked: vec![false; ORDER_UNIVERSE as usize],
        }
    }
}

/// Counter snapshots taken at the layer boundaries, for window deltas.
#[derive(Clone, Default)]
struct Counters {
    ctx_switches: u64,
    tcp: Vec<TcpStats>,
    stub: StubStats,
    store: StoreStats,
    locks: LockStats,
    pool_rejected: u64,
}

impl Counters {
    fn read(rig: &Rig) -> Counters {
        Counters {
            ctx_switches: procfs::context_switches(),
            tcp: rig.tcp.iter().map(|host| host.stats()).collect(),
            stub: rig.stub.stats(),
            store: rig.store.stats(),
            locks: rig.store.lock_stats(),
            pool_rejected: rig.pool_stats().map_or(0, |s| s.rejected),
        }
    }
}

/// Counter movement over the measured window (window start to the end of
/// the drain).
#[derive(Debug, Clone, Default)]
pub struct Deltas {
    pub ctx_switches: u64,
    pub tcp_frames_sent: u64,
    pub tcp_batches: u64,
    pub tcp_partial_writes: u64,
    pub tcp_wouldblock_retries: u64,
    pub tcp_backpressure_events: u64,
    pub tcp_frames_dropped: u64,
    pub stub_retries: u64,
    pub stub_redirects_followed: u64,
    pub stub_wrong_shard: u64,
    pub stub_replays: u64,
    pub stub_refreshes: u64,
    pub kv_gets: u64,
    pub kv_puts: u64,
    pub kv_cas_conflicts: u64,
    pub kv_lock_failures: u64,
    pub pool_rejected: u64,
    /// Membership epoch at the end (a level, not a delta).
    pub pool_epoch: u64,
}

impl Deltas {
    fn between(a: &Counters, b: &Counters, pool_epoch: u64) -> Deltas {
        let tcp = |field: fn(&TcpStats) -> u64| -> u64 {
            b.tcp
                .iter()
                .zip(&a.tcp)
                .map(|(after, before)| field(after) - field(before))
                .sum()
        };
        Deltas {
            ctx_switches: b.ctx_switches.saturating_sub(a.ctx_switches),
            tcp_frames_sent: tcp(|s| s.frames_sent),
            tcp_batches: tcp(|s| s.batches),
            tcp_partial_writes: tcp(|s| s.partial_writes),
            tcp_wouldblock_retries: tcp(|s| s.wouldblock_retries),
            tcp_backpressure_events: tcp(|s| s.backpressure_events),
            tcp_frames_dropped: tcp(|s| s.frames_dropped),
            stub_retries: b.stub.retries - a.stub.retries,
            stub_redirects_followed: b.stub.redirects_followed - a.stub.redirects_followed,
            stub_wrong_shard: b.stub.wrong_shard - a.stub.wrong_shard,
            stub_replays: b.stub.replays - a.stub.replays,
            stub_refreshes: b.stub.refreshes - a.stub.refreshes,
            kv_gets: b.store.gets - a.store.gets,
            kv_puts: b.store.puts - a.store.puts,
            kv_cas_conflicts: b.store.cas_conflicts - a.store.cas_conflicts,
            kv_lock_failures: b.locks.failures - a.locks.failures,
            pool_rejected: b.pool_rejected - a.pool_rejected,
            pool_epoch,
        }
    }
}

/// What one [`SLICE`] of the measured window saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct SliceStat {
    /// Checked-ok completions of window invocations harvested in the slice.
    pub ok: u64,
    /// Argument plus result bytes of those.
    pub payload_bytes: u64,
    /// On-CPU nanoseconds of every thread but the generator.
    pub cpu_ns: u64,
}

/// Everything one pass (warm-up, measured window, drain) observed.
#[derive(Default)]
pub struct Outcome {
    /// Invocations begun inside the window.
    pub injected: u64,
    /// Of those, the ones that returned `Ok` with the right result.
    pub ok: u64,
    /// Ok latencies of invocations begun inside the window, ns, ascending.
    pub latencies_ns: Vec<u64>,
    /// The whole slices of the window, in order.
    pub slices: Vec<SliceStat>,
    /// Begun over the whole pass, and how many reached a terminal outcome:
    /// the difference is invocations lost, which must be zero.
    pub begun_total: u64,
    pub terminal_total: u64,
    /// Results that came back `Ok` but wrong, over the whole pass, and the
    /// first one seen.
    pub wrong: u64,
    pub first_wrong: Option<String>,
    /// First non-`Ok` outcome seen, for the failure message.
    pub first_error: Option<String>,
    /// Ok `route` completions over the whole pass, for the `routed_count`
    /// check at quiesce.
    pub routes_ok: u64,
    pub in_flight_peak: usize,
    /// How late each paced injection entered `invoke_begin`, ns, grouped
    /// by the slice it was due in.
    pub lag_ns: Vec<Vec<u64>>,
    pub deltas: Deltas,
    /// Traced pass only: duration of each `invoke_begin` call, ns.
    pub begin_call_ns: Vec<u64>,
    /// Traced pass only: time inside `drain_completed` calls that returned
    /// something, and how many completions they returned.
    pub drain_busy_ns: u64,
    pub drain_returned: u64,
    /// Traced pass only: the generator's own Begin and Harvest stamps.
    pub stamps: Vec<Stamp>,
}

impl Outcome {
    fn median_slice(&self, value: impl Fn(&SliceStat) -> f64) -> f64 {
        median(&self.slices.iter().map(value).collect::<Vec<f64>>())
    }

    /// Ok completions per second: the median slice's rate.
    pub fn throughput(&self) -> f64 {
        self.median_slice(|s| s.ok as f64 / SLICE.as_secs_f64())
    }

    /// Argument plus result bytes of ok invocations per second, in MB/s
    /// (headers and retries excluded): the median slice's rate.
    pub fn goodput_mb_s(&self) -> f64 {
        self.median_slice(|s| s.payload_bytes as f64 / SLICE.as_secs_f64() / 1e6)
    }

    /// CPU microseconds every thread but the generator spent per ok
    /// completion: the median slice's ratio.
    pub fn cpu_us_per_op(&self) -> f64 {
        self.median_slice(|s| s.cpu_ns as f64 / 1_000.0 / s.ok.max(1) as f64)
    }

    /// How late the paced generator ran, microseconds: the 99th percentile
    /// within each slice, then the median slice. A host that takes the
    /// generator's CPU away for 50 ms makes a few hundred arrivals late in
    /// one slice; a generator that cannot keep its schedule is late in
    /// every slice. Only the second says the run measured the generator.
    pub fn generator_lag_p99_us(&self) -> f64 {
        let per_slice: Vec<f64> = self
            .lag_ns
            .iter()
            .map(|lags| {
                let mut lags = lags.clone();
                lags.sort_unstable();
                percentile(&lags, 0.99) as f64 / 1_000.0
            })
            .collect();
        if per_slice.is_empty() {
            0.0
        } else {
            median(&per_slice)
        }
    }

    pub fn failed(&self) -> u64 {
        self.injected - self.ok
    }

    pub fn lost(&self) -> u64 {
        self.begun_total - self.terminal_total
    }
}

struct Generator<'a> {
    rig: &'a mut Rig,
    source: OpSource,
    origin: Instant,
    traced: bool,
    measuring: bool,
    /// When the window opened, on the generator's time axis.
    open_ns: u64,
    pending: HashMap<u64, Pending>,
    out: Outcome,
}

impl Generator<'_> {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Counts an injection that never produced a pending invocation.
    fn fail_fast(&mut self, what: String) {
        self.out.begun_total += 1;
        self.out.terminal_total += 1;
        if self.measuring {
            self.out.injected += 1;
        }
        self.out.first_error.get_or_insert(what);
    }

    /// Begins the next operation. `due_ns` is set by the open loop.
    fn begin(&mut self, due_ns: Option<u64>) {
        let source = &mut self.source;
        let stub = &mut self.rig.stub;
        let origin = self.origin;
        let now_ns = || origin.elapsed().as_nanos() as u64;
        // Build the operation first so the timed entry is the call itself.
        let (entry_ns, result, arg_bytes, expect) = match source.ops {
            Ops::Echo => {
                let n = source.next_echo;
                source.next_echo = source.next_echo.wrapping_add(1);
                (now_ns(), stub.invoke_begin("echo", &n), 8, Expect::Echo(n))
            }
            Ops::Blob => (
                now_ns(),
                stub.invoke_begin("blob", &source.blob),
                4 + BLOB_BYTES as u32,
                Expect::BlobLen,
            ),
            Ops::Orders => {
                let id = source
                    .keys
                    .as_mut()
                    .expect("orders workload has a key sampler")
                    .next_key();
                if source.mix.unit() < ROUTE_SHARE {
                    let order = order_for(id);
                    let arg_bytes = encoded_len(&order);
                    (
                        now_ns(),
                        stub.invoke_begin("route", &order),
                        arg_bytes,
                        Expect::Ack(id),
                    )
                } else {
                    let acked = source.acked[id as usize];
                    (
                        now_ns(),
                        stub.invoke_begin("order_status", &id),
                        8,
                        Expect::Status { id, acked },
                    )
                }
            }
        };
        let invocation = match result {
            Ok(invocation) => invocation,
            Err(e) => return self.fail_fast(format!("invoke_begin: {e}")),
        };
        self.out.begun_total += 1;
        if self.measuring {
            self.out.injected += 1;
            if let Some(due) = due_ns {
                let slice = (due.saturating_sub(self.open_ns) / SLICE.as_nanos() as u64) as usize;
                if let Some(lags) = self.out.lag_ns.get_mut(slice) {
                    lags.push(entry_ns.saturating_sub(due));
                }
            }
            if self.traced {
                self.out.begin_call_ns.push(self.now_ns() - entry_ns);
                self.out.stamps.push(Stamp {
                    point: Point::Begin,
                    invocation: Some(invocation),
                    call: 0,
                    at_ns: entry_ns,
                });
            }
        }
        self.pending.insert(
            invocation,
            Pending {
                start_ns: due_ns.unwrap_or(entry_ns),
                arg_bytes,
                measured: self.measuring,
                expect,
            },
        );
    }

    /// One `drain_completed`; every result is checked and accounted.
    /// Returns how many completions it returned.
    fn harvest(&mut self) -> usize {
        let called_ns = if self.traced { self.now_ns() } else { 0 };
        let done = self.rig.stub.drain_completed();
        if done.is_empty() {
            return 0;
        }
        // Completion is stamped when the harvest hands the result back.
        let at_ns = self.now_ns();
        if self.traced && self.measuring {
            self.out.drain_busy_ns += at_ns - called_ns;
            self.out.drain_returned += done.len() as u64;
        }
        let harvested = done.len();
        for (invocation, result) in done {
            self.out.terminal_total += 1;
            let Some(pending) = self.pending.remove(&invocation) else {
                self.out.wrong += 1;
                self.out
                    .first_wrong
                    .get_or_insert(format!("harvested unknown invocation {invocation}"));
                continue;
            };
            let checked = match result {
                Ok(bytes) => self.check(&pending.expect, &bytes).map(|()| bytes.len()),
                Err(e) => {
                    self.out.first_error.get_or_insert(describe(&e));
                    continue;
                }
            };
            match checked {
                Ok(result_bytes) if pending.measured => {
                    self.out.ok += 1;
                    self.out.latencies_ns.push(at_ns - pending.start_ns);
                    let slice = ((at_ns - self.open_ns) / SLICE.as_nanos() as u64) as usize;
                    // Past the last whole slice (the window's remainder
                    // and the drain) only latency and the totals count.
                    if let Some(slice) = self.out.slices.get_mut(slice) {
                        slice.ok += 1;
                        slice.payload_bytes += u64::from(pending.arg_bytes) + result_bytes as u64;
                    }
                    if self.traced {
                        self.out.stamps.push(Stamp {
                            point: Point::Harvest,
                            invocation: Some(invocation),
                            call: 0,
                            at_ns,
                        });
                    }
                }
                Ok(_) => {}
                Err(why) => {
                    self.out.wrong += 1;
                    self.out.first_wrong.get_or_insert(why);
                }
            }
        }
        harvested
    }

    /// The output check for one `Ok` result.
    fn check(&mut self, expect: &Expect, bytes: &[u8]) -> Result<(), String> {
        let undecodable = |e| format!("result does not decode: {e}");
        let decode_u64 = |bytes| erm_transport::from_bytes::<u64>(bytes).map_err(undecodable);
        match *expect {
            Expect::Echo(n) => match decode_u64(bytes)? {
                got if got == n => Ok(()),
                got => Err(format!("echo({n}) returned {got}")),
            },
            Expect::BlobLen => match decode_u64(bytes)? {
                got if got == BLOB_BYTES as u64 => Ok(()),
                got => Err(format!("blob of {BLOB_BYTES} bytes returned {got}")),
            },
            Expect::Ack(id) => {
                let ack: RouteAck = erm_transport::from_bytes(bytes).map_err(undecodable)?;
                if ack.order_id != id {
                    return Err(format!("route({id}) acked order {}", ack.order_id));
                }
                self.source.acked[id as usize] = true;
                self.out.routes_ok += 1;
                Ok(())
            }
            Expect::Status { id, acked } => {
                match erm_transport::from_bytes::<Option<Order>>(bytes).map_err(undecodable)? {
                    Some(order) if order == order_for(id) => Ok(()),
                    Some(order) => Err(format!("order_status({id}) returned {order:?}")),
                    None if acked => Err(format!("order_status({id}) lost an acknowledged order")),
                    None => Ok(()),
                }
            }
        }
    }
}

fn describe(e: &RmiError) -> String {
    format!("invocation failed: {e}")
}

/// Runs one pass on `rig`: `warmup` discarded, `window` measured, then a
/// drain bounded by the invocation budget. With `telemetry` the pass is
/// the traced one: the recorder is armed for the window and the generator
/// keeps its own stamps and call timings.
pub fn run_pass(
    rig: &mut Rig,
    ops: Ops,
    load: Load,
    seed: u64,
    warmup: Duration,
    window: Duration,
    telemetry: Option<&Telemetry>,
) -> Outcome {
    let source = OpSource::new(ops, seed);
    // Share the recorder's time base so generator stamps and decorator
    // stamps are on one axis.
    let origin = telemetry.map_or_else(Instant::now, |t| t.recorder.origin());
    let mut gen = Generator {
        rig,
        source,
        origin,
        traced: telemetry.is_some(),
        measuring: false,
        open_ns: 0,
        pending: HashMap::new(),
        out: Outcome::default(),
    };

    gen.out.slices = vec![SliceStat::default(); (window.as_nanos() / SLICE.as_nanos()) as usize];
    if let Load::Paced { .. } = load {
        gen.out.lag_ns = vec![Vec::new(); gen.out.slices.len()];
    }
    // Middleware CPU at each slice boundary, the first at window open.
    let mut cpu_marks: Vec<u64> = Vec::with_capacity(gen.out.slices.len() + 1);
    let started = Instant::now();
    let window_opens = started + warmup;
    let window_closes = window_opens + window;
    let interval_ns = match load {
        Load::Paced { rate } => 1_000_000_000 / rate.max(1),
        Load::Closed { .. } => 0,
    };
    let mut next_due_ns = gen.now_ns();
    let mut at_open = Counters::default();

    loop {
        let now = Instant::now();
        if !gen.measuring && now >= window_opens {
            at_open = Counters::read(gen.rig);
            gen.open_ns = gen.now_ns();
            gen.measuring = true;
            if let Some(t) = telemetry {
                t.recorder.arm(true);
            }
        }
        if gen.measuring
            && cpu_marks.len() <= gen.out.slices.len()
            && gen.now_ns() >= gen.open_ns + cpu_marks.len() as u64 * SLICE.as_nanos() as u64
        {
            cpu_marks.push(procfs::other_threads_cpu_nanos());
        }
        if now >= window_closes {
            break;
        }
        match load {
            Load::Closed { window } => {
                while gen.rig.stub.in_flight() < window {
                    gen.begin(None);
                }
            }
            Load::Paced { .. } => {
                // Catch-up pacing: a late generator injects everything the
                // schedule owed, each timed from its own due instant.
                let now_ns = gen.now_ns();
                while next_due_ns <= now_ns {
                    gen.begin(Some(next_due_ns));
                    next_due_ns += interval_ns;
                }
            }
        }
        gen.out.in_flight_peak = gen.out.in_flight_peak.max(gen.rig.stub.in_flight());
        // Spin: no sleep between harvests, so a reply is seen as soon as
        // the stub can see it.
        gen.harvest();
    }
    let closed_at = Instant::now();
    while cpu_marks.len() <= gen.out.slices.len() {
        cpu_marks.push(procfs::other_threads_cpu_nanos());
    }
    for (slice, mark) in gen.out.slices.iter_mut().zip(cpu_marks.windows(2)) {
        slice.cpu_ns = mark[1].saturating_sub(mark[0]);
    }

    // Drain: everything begun must terminate — a reply, an error, or its
    // own budget expiry. Whatever is still outstanding after budget plus
    // slack is reported as lost.
    let give_up = closed_at + Duration::from_micros(BUDGET.as_micros()) + Duration::from_secs(2);
    while gen.rig.stub.in_flight() > 0 && Instant::now() < give_up {
        gen.harvest();
    }
    gen.harvest();
    if let Some(t) = telemetry {
        t.recorder.arm(false);
    }

    let at_close = Counters::read(gen.rig);
    let pool_epoch = gen.rig.pool_stats().map_or(0, |s| s.epoch);
    let mut out = gen.out;
    out.deltas = Deltas::between(&at_open, &at_close, pool_epoch);
    out.latencies_ns.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let mut a = OpSource::new(Ops::Blob, 11);
        let b = OpSource::new(Ops::Blob, 11);
        let c = OpSource::new(Ops::Blob, 12);
        assert_eq!(a.blob, b.blob);
        assert_eq!(a.blob.len(), BLOB_BYTES);
        assert_ne!(a.blob, c.blob);
        assert_eq!(a.next_echo, b.next_echo);
        let u = a.mix.unit();
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn orders_are_a_function_of_their_id_and_valid() {
        for id in [0, 1, 3, 4, 99_999] {
            let order = order_for(id);
            assert_eq!(order, order_for(id));
            assert_eq!(order.id, id);
            assert!(order.quantity > 0 && order.limit_cents != Some(0));
            let encoded = erm_transport::to_bytes(&order).unwrap();
            assert_eq!(
                encoded.len(),
                encoded_len(&order) as usize,
                "goodput counts real bytes"
            );
        }
    }
}
