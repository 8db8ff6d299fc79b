//! What one invocation costs the process, counted rather than timed.
//!
//! A pinned two-member pool of `JitteredService` (mean 2 ms) serves one
//! virtual second of open-loop arrivals (`arrival_schedule` seed 7) through
//! the production stub ([`SimRig::serve`]), at 400/s and at 200/s, once with
//! the method at-least-once and once at-most-once. Everything the run does
//! happens on the test's own thread, so a counting global allocator that
//! counts only while that thread asks it to sees the stub, the skeletons,
//! the pool runtime and the network, and nothing else in the binary. Each
//! cell pins:
//!
//! * heap allocations (`alloc`, `alloc_zeroed` and `realloc` calls) and the
//!   bytes they asked for, during `serve`;
//! * frames the network accepted and delivered during `serve`.
//!
//! The counts are exact on the virtual clock: a change that makes the
//! client, skeleton or wire path allocate more per invocation, or send more
//! frames, fails here whatever the machine. A change that makes it cheaper
//! moves the pins down and says so in this header.
//!
//! History (400/s, at-least-once; allocations / bytes per invocation):
//!
//! * 7.19 / 1,333 — the stub kept a `calls` map, a `String` per method,
//!   `BTreeMap` values of ~150 bytes and a fresh walk `Vec` per invocation;
//! * 4.20 / 837 — call ids derived from the invocation, one shared name per
//!   method, boxed entries and walks reused, `completed` a `Vec`;
//! * 3.20 / 833 — the skeleton reads the method name where it lies in the
//!   delivered request instead of decoding it into a `String` (−1
//!   allocation and −4 bytes per invocation; +64 bytes per cell because
//!   the run queue's entries, 8 slots across the two members, each grew
//!   by 8 bytes);
//! * 3.12 / 808 — a view is sent only when it changes: the two 500 ms
//!   re-broadcasts of the unchanged view inside the counted second are
//!   gone, −34 allocations, −10,096 bytes and −4 frames in every cell.
//!   8,192 of those bytes are the four `ShardRing` rebuilds (128 points of
//!   16 bytes each); the rest are the encodes, frame copies and decodes.
//!   Wire v6's other changes cost nothing here: no `Load` (now 8 bytes
//!   longer) and no changed view is sent inside the counted second.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use elasticrmi::{PoolConfig, Semantics, SemanticsTable};
use erm_harness::rig::{arrival_schedule, JitteredService, SimRig};
use erm_sim::{Clock, SimDuration};

/// The system allocator, counting the calls made on a thread while that
/// thread's `COUNTING` is set.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also serves thread teardown, after the
    // thread-locals are gone.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
            BYTES.with(|n| n.set(n.get() + bytes as u64));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning the allocations and bytes it asked for on this
/// thread.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    (
        ALLOCATIONS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

/// One cell's counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cost {
    invocations: u64,
    allocations: u64,
    bytes: u64,
    sent: u64,
    delivered: u64,
}

/// Serves one virtual second at `rate` arrivals a second, with `work`
/// declared `semantics`, and counts what `serve` cost.
fn serve(rate: f64, semantics: Semantics) -> Cost {
    let rig = SimRig::new(2, 1, SimDuration::from_millis(10));
    let config = PoolConfig::builder("Costs")
        .min_pool_size(2)
        .max_pool_size(2)
        .semantics(SemanticsTable::new().method("work", semantics))
        .build()
        .unwrap();
    let mean = SimDuration::from_millis(2);
    let service = move |clock: &_, n| JitteredService::new(clock, 7 ^ n, mean);
    let mut pool = rig.start_pool(config, service, None);
    let start = rig.clock().now();
    let end = start + SimDuration::from_secs(1);
    let schedule = arrival_schedule(7, start, end, rate, None);
    let invocations = schedule.len() as u64;
    let budget = SimDuration::from_secs(2);
    let net = rig.network();
    let (sent, delivered) = (net.sent_count(), net.delivered_count());
    let (allocations, bytes) =
        counted(|| rig.serve(&mut pool, schedule, budget, end, (budget, |_| {})));
    Cost {
        invocations,
        allocations,
        bytes,
        sent: net.sent_count() - sent,
        delivered: net.delivered_count() - delivered,
    }
}

/// `(rate, semantics, pinned cost)` of every cell.
const PINNED: [(f64, Semantics, Cost); 4] = [
    (
        400.0,
        Semantics::AtLeastOnce,
        Cost {
            invocations: 402,
            allocations: 1253,
            bytes: 324776,
            sent: 806,
            delivered: 806,
        },
    ),
    (
        400.0,
        Semantics::AtMostOnce,
        Cost {
            invocations: 402,
            allocations: 1457,
            bytes: 438632,
            sent: 806,
            delivered: 806,
        },
    ),
    (
        200.0,
        Semantics::AtLeastOnce,
        Cost {
            invocations: 195,
            allocations: 629,
            bytes: 163734,
            sent: 392,
            delivered: 392,
        },
    ),
    (
        200.0,
        Semantics::AtMostOnce,
        Cost {
            invocations: 195,
            allocations: 731,
            bytes: 220950,
            sent: 392,
            delivered: 392,
        },
    ),
];

#[test]
fn each_invocation_costs_its_pinned_allocations_and_frames() {
    let mut table = String::new();
    let mut moved = false;
    for (rate, semantics, pinned) in PINNED {
        let cost = serve(rate, semantics);
        let per = |n: u64| n as f64 / cost.invocations as f64;
        table += &format!(
            "{rate}/s {semantics:?}: {cost:?} ({:.2} allocations, {:.0} bytes, {:.2} frames per invocation){}\n",
            per(cost.allocations),
            per(cost.bytes),
            per(cost.sent),
            if cost == pinned { "" } else { "  <- moved" },
        );
        moved |= cost != pinned;
    }
    assert!(!moved, "costs moved from their pins:\n{table}");
}

#[test]
fn the_counts_repeat_within_one_process() {
    // What makes them pinnable: no warm-up, cache or hash seed moves them.
    let first = serve(400.0, Semantics::AtLeastOnce);
    assert_eq!(serve(400.0, Semantics::AtLeastOnce), first);
}
