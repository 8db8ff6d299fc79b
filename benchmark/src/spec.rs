//! The benchmark's fixed vocabulary: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repo root must say the
//! same thing (a test compares the two), later issues cite these names,
//! and every run checks that it reports exactly these metrics.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload and why it exists (the `why` of `BENCHMARK.json`).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// One end-to-end metric and the bound by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse.
    pub bound: f64,
    /// Absolute slack `compare` allows on top (`max(bound * base, floor)`):
    /// a 4 ms set-up must not fail on a 2 ms wobble.
    pub floor: f64,
}

/// One per-layer metric. No bound: layers explain, they do not gate.
#[derive(Debug, Clone, Copy)]
pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "echo_tcp_sat",
        why: "echo(u64) on one standalone skeleton over TCP loopback, closed loop, 256 outstanding: smallest message, so per-message cost in wire, tcp, stub pump and skeleton ingest sets the ceiling",
    },
    WorkloadSpec {
        name: "echo_inproc_sat",
        why: "the same over InProcNetwork: bypasses tcp/poller/framing, so a transport-only change must not move it and a wire/stub/skeleton change must move it with echo_tcp_sat",
    },
    WorkloadSpec {
        name: "echo_tcp_paced",
        why: "same server, open loop at 20000 arrivals/s (far below the ceiling), latency from due time: the same layers used for latency, where batching that lifts throughput shows its cost",
    },
    WorkloadSpec {
        name: "blob_tcp_64k",
        why: "blob(64 KiB) -> len over TCP, closed loop, 8 outstanding: per-byte cost (byte-vector codec, frame copies, partial writes) dominates and per-message cost is diluted",
    },
    WorkloadSpec {
        name: "orders_tcp_2m",
        why: "OrderRouter on a sharded 2-member ElasticPool, 70% at-most-once route / 30% order_status, Zipf(1.1) ids: the only workload entering shard ring, reply cache, kvstore and pool control traffic",
    },
];

/// Bound shared by the four steady-state metrics. The issue asked for a
/// tenth; this box cannot referee a tenth. Its CPU speed drifts by ±8 %
/// over minutes (a fixed arithmetic loop on the idle VM takes 106 to
/// 228 ms), so ten back-to-back runs of one commit spread by up to 17 %
/// (interquartile, blob_tcp_64k) whatever the window length. A quarter is
/// the most a bound may be and leaves that spread inside it.
const STEADY: f64 = 0.25;

pub const END_TO_END: [EndToEndSpec; 5] = [
    EndToEndSpec {
        name: "throughput_ops_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: STEADY,
        floor: 0.0,
    },
    EndToEndSpec {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: STEADY,
        floor: 0.0,
    },
    EndToEndSpec {
        name: "goodput_mb_s",
        unit: "MB/s",
        better: Better::Higher,
        bound: STEADY,
        floor: 0.0,
    },
    EndToEndSpec {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: STEADY,
        floor: 0.0,
    },
    EndToEndSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.05,
    },
];

/// `failed_share` is always 0 on a healthy run, so it cannot carry a
/// relative bound; `compare` holds it to this absolute rise instead.
pub const FAILED_SHARE_SLACK: f64 = 0.001;

/// A paced run whose generator ran later than this (99th percentile per
/// half-second slice, median slice) measured the generator, not the
/// middleware, and is marked invalid.
pub const GENERATOR_LAG_LIMIT_US: f64 = 500.0;

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerSpec {
    LayerSpec { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [LayerSpec; 70] = [
    // Outside-in spans of the traced pass: consecutive segments of one
    // invocation, medians. They sum to the invocation's latency.
    layer("stub.begin_us", "us", Lower),
    layer("path.request_leg_us", "us", Lower),
    layer("service.dispatch_us", "us", Lower),
    layer("skeleton.reply_build_us", "us", Lower),
    layer("path.reply_leg_us", "us", Lower),
    layer("trace.spans_complete", "count", Higher),
    layer("trace.spans_incomplete", "count", Lower),
    // Busy time around the two stub calls the generator makes.
    layer("stub.begin_call_ns", "ns", Lower),
    layer("stub.drain_call_ns_per_op", "ns", Lower),
    // The program's own instruments, read with handles enabled.
    layer("skeleton.queue_delay_p50_us", "us", Lower),
    layer("skeleton.queue_delay_p99_us", "us", Lower),
    layer("skeleton.service_time_p50_us", "us", Lower),
    layer("kv.lock_wait_p50_us", "us", Lower),
    layer("semantics.dedup_hits", "count", Lower),
    layer("semantics.dedup_evicted", "count", Lower),
    layer("shard.misrouted", "count", Lower),
    // Traced pass end to end, and what tracing cost.
    layer("traced.throughput_ops_s", "ops/s", Higher),
    layer("traced.latency_p50_us", "us", Lower),
    layer("trace.overhead_pct", "%", Lower),
    // Timed calls into one layer, this workload's message shapes.
    layer("wire.request_encode_ns", "ns", Lower),
    layer("wire.request_decode_ns", "ns", Lower),
    layer("wire.response_encode_ns", "ns", Lower),
    layer("wire.response_decode_ns", "ns", Lower),
    layer("wire.request_bytes", "bytes", Lower),
    layer("wire.response_bytes", "bytes", Lower),
    layer("tcp.oneway_us", "us", Lower),
    layer("inproc.oneway_ns", "ns", Lower),
    layer("skeleton.handle_ns", "ns", Lower),
    layer("admission.offer_pop_ns", "ns", Lower),
    layer("semantics.miss_path_ns", "ns", Lower),
    layer("semantics.replay_ns", "ns", Lower),
    layer("shard.owner_ns", "ns", Lower),
    layer("shard.extract_ns", "ns", Lower),
    layer("kv.put_ns", "ns", Lower),
    layer("kv.get_ns", "ns", Lower),
    layer("kv.cas_update_ns", "ns", Lower),
    layer("kv.lock_unlock_ns", "ns", Lower),
    layer("clock.now_ns", "ns", Lower),
    layer("metrics.counter_incr_ns", "ns", Lower),
    layer("metrics.histogram_record_ns", "ns", Lower),
    layer("metrics.trace_emit_ns", "ns", Lower),
    // Counts at the layer boundaries, untraced, over the measured window.
    layer("tcp.frames_per_batch", "ratio", Higher),
    layer("tcp.partial_writes", "count", Lower),
    layer("tcp.wouldblock_retries", "count", Lower),
    layer("tcp.backpressure_events", "count", Lower),
    layer("tcp.frames_dropped", "count", Lower),
    layer("stub.retries", "count", Lower),
    layer("stub.redirects_followed", "count", Lower),
    layer("stub.wrong_shard", "count", Lower),
    layer("stub.replays", "count", Lower),
    layer("stub.refreshes", "count", Lower),
    layer("kv.gets_per_op", "ratio", Lower),
    layer("kv.puts_per_op", "ratio", Lower),
    layer("kv.cas_conflicts", "count", Lower),
    layer("kv.lock_failures", "count", Lower),
    layer("pool.epoch", "count", Lower),
    layer("pool.rejected", "count", Lower),
    layer("process.ctx_switches_per_op", "ratio", Lower),
    layer("process.peak_rss_mb", "MB", Lower),
    // The generator's view. Tails do not repeat within a tenth on a
    // two-core box, so they are reported here and do not gate.
    layer("client.latency_p90_us", "us", Lower),
    layer("client.latency_p99_us", "us", Lower),
    layer("client.latency_p999_us", "us", Lower),
    layer("client.samples", "count", Higher),
    layer("client.in_flight_peak", "count", Lower),
    layer("client.generator_lag_p99_us", "us", Lower),
    layer("client.failed_share", "ratio", Lower),
    // The untraced half of the same run, the base of trace.overhead_pct.
    layer("untraced.throughput_ops_s", "ops/s", Higher),
    layer("untraced.latency_p50_us", "us", Lower),
    layer("untraced.cpu_us_per_op", "us", Lower),
    layer("untraced.setup_s", "s", Lower),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn legal_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn legal_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(legal_name(name), "illegal name {name:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(legal_unit(unit), "illegal unit {unit:?}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` and the binary must name the same workloads and
    /// metrics with the same units, directions and bounds — in both
    /// directions, so neither can grow a name the other lacks.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");

        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let field = |item: &Json, key: &str| item.get(key).unwrap().as_str().unwrap().to_string();
        let listed = |key: &str| doc.get(key).unwrap().as_array().unwrap().to_vec();

        let workloads: Vec<(String, String)> = listed("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let end_to_end: Vec<(String, String, String, f64)> = listed("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(end_to_end, expected);

        let per_layer: Vec<(String, String, String)> = listed("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(per_layer, expected);

        let paths: Vec<&str> = doc
            .get("paths")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p.as_str().unwrap())
            .collect();
        assert_eq!(paths, ["benchmark"]);
    }
}
