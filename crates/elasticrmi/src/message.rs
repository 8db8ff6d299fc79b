//! The RMI protocol: every message that crosses endpoint boundaries.
//!
//! Serialized with the `erm-transport` wire codec. Three planes share one
//! enum so a skeleton's single mailbox serves them all:
//!
//! * **invocation plane** — [`RmiMessage::Request`]/[`RmiMessage::Response`]
//!   (and [`RmiMessage::Redirected`] from draining skeletons),
//! * **discovery plane** — stubs asking the sentinel for pool membership,
//! * **control plane** — the runtime/sentinel exchanging load reports,
//!   membership broadcasts (the JGroups substitute), rebalance directives
//!   and the two-phase shutdown handshake of §2.5.

use std::ops::Range;

use erm_semantics::Semantics;
use erm_sim::{SimDuration, SimTime};
use erm_transport::{buffers, EndpointId};
use serde::{Deserialize, Serialize};

use crate::error::RemoteError;

/// Correlates a response with its request.
pub type CallId = u64;

/// The context an invocation carries through every hop of its life: stub →
/// wire → skeleton → (redirect →) skeleton.
///
/// Created once per `invoke` by the stub and re-sent (with a bumped
/// [`attempt`](Self::attempt)) on every retry and followed redirect, so every
/// member that sees the invocation can correlate it, enforce its deadline on
/// the shared simulation clock, and trace it end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvocationContext {
    /// Invocation id, stable across retries and redirects (unlike the
    /// per-attempt [`CallId`], which changes so stale replies can be
    /// discarded).
    pub id: u64,
    /// Absolute deadline on the simulation clock. Skeletons refuse to
    /// dispatch past it; redirected attempts inherit (never extend) it.
    pub deadline: SimTime,
    /// 1-based attempt counter, strictly increasing per resend (timeout
    /// retry, fast-failover, followed redirect) so skeletons can tell
    /// replays from new work.
    pub attempt: u32,
    /// The invoking stub's reply endpoint.
    pub origin: EndpointId,
    /// The method's declared invocation semantics (wire v4). Carried in the
    /// context so every hop — including members reached via redirect —
    /// applies the same contract without a registry lookup.
    pub semantics: Semantics,
    /// The invocation's routing key (wire v5), extracted by the stub from the
    /// method arguments via the pool's [sharding table]. `None` means the
    /// invocation is unkeyed and may run on any member (the pre-v5
    /// behavior). When `Some`, skeletons check the key against the
    /// consistent-hash ring and answer [`RmiMessage::WrongShard`] if they do
    /// not own it.
    ///
    /// [sharding table]: crate::shard::ShardingTable
    pub routing_key: Option<u64>,
}

impl InvocationContext {
    /// Budget left at `now` ([`SimDuration::ZERO`] once expired).
    pub fn remaining(&self, now: SimTime) -> SimDuration {
        self.deadline.saturating_since(now)
    }

    /// Whether the deadline has passed at `now`.
    pub fn is_expired(&self, now: SimTime) -> bool {
        now >= self.deadline
    }
}

/// Per-method statistics reported by a skeleton for one burst interval;
/// the wire form of the paper's `getMethodCallStats()` entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodStat {
    /// Invocations of this method during the burst interval.
    pub calls: u64,
    /// Mean execution latency in microseconds.
    pub mean_latency_us: u64,
}

/// One member's seat in the membership view of a state broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemberState {
    /// The member's invocation endpoint.
    pub endpoint: EndpointId,
    /// The member's pool-unique id (monotonically assigned at join).
    pub uid: u64,
}

/// A load report from a skeleton to the runtime/sentinel, covering one burst
/// interval.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LoadReport {
    /// The member's uid.
    pub uid: u64,
    /// Pending (queued + executing) invocations at report time.
    pub pending: u32,
    /// Percentage of the interval the object spent executing methods
    /// (0–100), the threaded runtime's CPU-utilization analogue.
    pub busy: f32,
    /// Memory utilization percentage (0–100) as reported by the service.
    pub ram: f32,
    /// The member's `changePoolSize()` vote, if the service overrides it.
    pub fine_vote: Option<i32>,
    /// Requests rejected during the interval because their deadline had
    /// already passed on arrival — deadline pressure the pool can scale on.
    pub expired: u32,
    /// Per-method call statistics for the interval.
    pub method_stats: Vec<(String, MethodStat)>,
    /// Requests refused with `Overloaded` during the interval because the
    /// admission queue was full (wire v3).
    pub rejected: u32,
    /// Median admission-queue delay over the interval, in microseconds
    /// (wire v3).
    pub queue_delay_p50_us: u64,
    /// 99th-percentile admission-queue delay over the interval, in
    /// microseconds — the queueing-delay signal the scaling engine grows on
    /// (wire v3).
    pub queue_delay_p99_us: u64,
    /// The membership epoch the member holds (wire v6). Below the epoch
    /// the runtime polled at, it shows a lost view, which the runtime then
    /// re-sends to this member.
    pub epoch: u64,
}

/// All messages of the ElasticRMI protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RmiMessage {
    /// Stub → skeleton: invoke `method` with encoded `args`.
    Request {
        /// Correlation id chosen by the stub (fresh per attempt).
        call: CallId,
        /// The invocation's end-to-end context (id, deadline, attempt).
        context: InvocationContext,
        /// Remote method name.
        method: String,
        /// Arguments encoded with the wire codec.
        args: Vec<u8>,
    },
    /// Skeleton → stub: the invocation outcome.
    Response {
        /// Correlation id of the request.
        call: CallId,
        /// Encoded return value, or the propagated remote exception.
        outcome: Result<Vec<u8>, RemoteError>,
        /// Whether this reply was served from the skeleton's reply cache
        /// (an `AtMostOnce` duplicate suppressed instead of re-executed,
        /// wire v4). Diagnostic only — the stub counts it but treats the
        /// outcome identically.
        replayed: bool,
    },
    /// Draining skeleton → stub: this member is leaving; retry one of
    /// `members` (paper §2.5: skeletons "redirect all further method
    /// invocations to other objects in the pool").
    Redirected {
        /// Correlation id of the refused request.
        call: CallId,
        /// Current live members to retry against.
        members: Vec<EndpointId>,
        /// The refused request's deadline, echoed back so the follow-up
        /// attempt runs under the remaining budget and never past it.
        deadline: SimTime,
    },

    /// Stub → sentinel: request pool membership ("while contacting the
    /// sentinel for the first time, the stub requests the identities of the
    /// other skeletons in the pool", §4.3).
    PoolInfoRequest,
    /// Sentinel → stub: current membership.
    PoolInfo {
        /// Monotonic membership epoch.
        epoch: u64,
        /// The sentinel's invocation endpoint.
        sentinel: EndpointId,
        /// All member invocation endpoints (sentinel included).
        members: Vec<EndpointId>,
        /// Pool-unique ids aligned index-for-index with `members`
        /// (wire v5). The consistent-hash ring is deterministic from these
        /// uids, so carrying them lets stubs rebuild the exact ring the
        /// skeletons route by. Empty when the pool predates v5.
        uids: Vec<u64>,
    },

    /// Runtime → skeleton: solicit a [`LoadReport`] for the closing burst
    /// interval.
    PollLoad,
    /// Skeleton → runtime: the report.
    Load(LoadReport),
    /// Runtime → all skeletons: the membership view, sent when it changes
    /// (the JGroups group-communication substitute, §4.3), and again to a
    /// member whose `Load` shows it missed one.
    StateBroadcast {
        /// Monotonic membership epoch.
        epoch: u64,
        /// Uid of the current sentinel.
        sentinel_uid: u64,
        /// The members in the rotation.
        members: Vec<MemberState>,
    },
    /// Sentinel → overloaded skeleton: redirect `count` of your queued
    /// invocations to `to` (output of the first-fit bin-packing planner).
    Rebalance {
        /// Member to offload onto.
        to: EndpointId,
        /// Number of queued invocations to hand over.
        count: u32,
    },

    /// Runtime → skeleton: begin the shutdown drain (§2.5).
    Shutdown,
    /// Skeleton → runtime: drained; safe to terminate and release my slice.
    ShutdownReady {
        /// Uid of the acknowledging member.
        uid: u64,
    },

    /// Index 11, once a liveness probe that nothing sent (retired in wire
    /// v6). Kept so later variants keep their indices; never sent, and
    /// ignored on receipt.
    #[doc(hidden)]
    Retired11,
    /// Index 12, once the reply to index 11 (retired in wire v6).
    #[doc(hidden)]
    Retired12,

    /// Skeleton → stub: the admission queue is full, so the request was
    /// refused *before* queueing (wire v3). Cheaper for everyone than
    /// letting it die by deadline: the stub's AIMD limiter backs off for
    /// `retry_after` and the pool keeps its capacity for admitted work.
    Overloaded {
        /// Correlation id of the refused request.
        call: CallId,
        /// Live admission-queue depth at rejection time.
        queue_depth: u32,
        /// Server's suggested pause before retrying this pool.
        retry_after: SimDuration,
    },

    /// Skeleton → stub: the request's routing key hashes to a shard this
    /// member does not own (wire v5). The invocation was *not* executed; the
    /// stub should retry against `owner` (validated against its current
    /// membership view) or refresh when `epoch` is ahead of its own.
    WrongShard {
        /// Correlation id of the refused request.
        call: CallId,
        /// The refusing member's membership epoch — the ring version its
        /// ownership claim is based on.
        epoch: u64,
        /// The member the refusing skeleton believes owns the key.
        owner: EndpointId,
        /// The refused request's deadline, echoed back so the follow-up
        /// attempt inherits (never extends) the remaining budget.
        deadline: SimTime,
    },
}

impl RmiMessage {
    /// Encodes for transmission.
    ///
    /// # Panics
    ///
    /// Panics only if the wire codec rejects the message, which would be a
    /// protocol-definition bug (all variants are encodable by construction).
    pub fn encode(&self) -> Vec<u8> {
        erm_transport::to_bytes(self).expect("protocol messages are always encodable")
    }

    /// The bytes of `RmiMessage::Request { call, context, method, args }
    /// .encode()`, built from borrowed parts into one buffer of its final
    /// size (a recycled one when [`buffers`] has one) — so the stub, which
    /// keeps `method` and `args` for resends, neither clones them into an
    /// owned message nor regrows the buffer on every attempt.
    pub(crate) fn encode_request(
        call: CallId,
        context: &InvocationContext,
        method: &str,
        args: &[u8],
    ) -> Vec<u8> {
        // Variant index, call, the context's fixed fields and its optional
        // routing key, then two length-prefixed runs.
        let routing_key = if context.routing_key.is_some() { 9 } else { 1 };
        let len = 4 + 8 + (8 + 8 + 4 + 8 + 4 + routing_key) + 4 + method.len() + 4 + args.len();
        let mut out = buffers::take(len);
        0u32.serialize(&mut out);
        call.serialize(&mut out);
        context.serialize(&mut out);
        method.serialize(&mut out);
        args.serialize(&mut out);
        debug_assert_eq!(out.len(), len, "reserved exactly");
        out
    }

    /// Decodes a received payload.
    ///
    /// # Errors
    ///
    /// Returns the wire error for truncated or malformed payloads.
    pub fn decode(bytes: &[u8]) -> Result<Self, erm_transport::WireError> {
        erm_transport::from_bytes(bytes)
    }

    /// Where a well-formed `Request`'s fields lie in its encoding, read
    /// without copying any of them: the skeleton keeps the payload as
    /// delivered and dispatches the method name and the arguments where
    /// they landed. The name is checked to be UTF-8 here. `None` for
    /// everything else, malformed requests included: the general decoder
    /// names the error.
    pub(crate) fn request_head(bytes: &[u8]) -> Option<RequestHead> {
        let mut input = bytes;
        if u32::deserialize(&mut input).ok()? != 0 {
            return None;
        }
        let call = CallId::deserialize(&mut input).ok()?;
        let context = InvocationContext::deserialize(&mut input).ok()?;
        // The name's bytes follow its `u32` length.
        let method_at = bytes.len() - input.len() + 4;
        let method = <&str>::deserialize(&mut input).ok()?;
        let method = method_at..method_at + method.len();
        let args_len = u32::deserialize(&mut input).ok()? as usize;
        (input.len() == args_len).then(|| RequestHead {
            call,
            context,
            method,
            args: bytes.len() - args_len..bytes.len(),
        })
    }
}

/// The fields of an encoded `Request` ahead of its argument bytes, and
/// where its method name and its arguments lie in the encoding.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct RequestHead {
    pub(crate) call: CallId,
    pub(crate) context: InvocationContext,
    /// The method name's bytes, checked to be UTF-8.
    pub(crate) method: Range<usize>,
    pub(crate) args: Range<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The decoder returns `msg` from its encoding, and rejects every
    /// strict prefix of it and it with one trailing byte. `request_head`
    /// finds a request's fields in the encoding, and nothing in the rest.
    fn roundtrip(msg: RmiMessage) {
        let bytes = msg.encode();
        let prefixes = (0..bytes.len()).map(|n| bytes[..n].to_vec());
        for bad in prefixes.chain([[bytes.as_slice(), &[0]].concat()]) {
            assert!(RmiMessage::decode(&bad).is_err(), "{msg:?} from {bad:?}");
            assert_eq!(RmiMessage::request_head(&bad), None, "{msg:?}");
        }
        assert_eq!(RmiMessage::decode(&bytes).unwrap(), msg);
        let head = RmiMessage::request_head(&bytes);
        match &msg {
            RmiMessage::Request {
                call,
                context,
                method,
                args,
            } => {
                let head = head.expect("a request's head");
                assert_eq!((head.call, head.context), (*call, *context));
                assert_eq!(&bytes[head.method], method.as_bytes());
                assert_eq!(&bytes[head.args], &args[..]);
            }
            _ => assert_eq!(head, None, "{msg:?}"),
        }
    }

    fn ctx() -> InvocationContext {
        InvocationContext {
            id: 40,
            deadline: SimTime::from_micros(1_500_000),
            attempt: 2,
            origin: EndpointId(11),
            semantics: Semantics::AtLeastOnce,
            routing_key: None,
        }
    }

    #[test]
    fn invocation_plane_roundtrips() {
        roundtrip(RmiMessage::Request {
            call: 7,
            context: ctx(),
            method: "put".into(),
            args: vec![1, 2, 3],
        });
        roundtrip(RmiMessage::Request {
            call: 7,
            context: InvocationContext {
                semantics: Semantics::AtMostOnce,
                ..ctx()
            },
            method: "route".into(),
            args: vec![1],
        });
        roundtrip(RmiMessage::Response {
            call: 7,
            outcome: Ok(vec![4, 5]),
            replayed: false,
        });
        roundtrip(RmiMessage::Response {
            call: 8,
            outcome: Err(RemoteError::no_such_method("frob")),
            replayed: true,
        });
        roundtrip(RmiMessage::Redirected {
            call: 9,
            members: vec![EndpointId(1), EndpointId(2)],
            deadline: SimTime::from_micros(900_000),
        });
        roundtrip(RmiMessage::Overloaded {
            call: 10,
            queue_depth: 64,
            retry_after: SimDuration::from_micros(12_000),
        });
        roundtrip(RmiMessage::Request {
            call: 11,
            context: InvocationContext {
                routing_key: Some(0xdead_beef),
                ..ctx()
            },
            method: "keyed".into(),
            args: vec![2],
        });
        roundtrip(RmiMessage::WrongShard {
            call: 12,
            epoch: 4,
            owner: EndpointId(6),
            deadline: SimTime::from_micros(800_000),
        });
    }

    #[test]
    fn borrowed_request_encoder_matches_the_owned_message() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xB0220);
        for round in 0..200 {
            let call: CallId = rng.gen();
            let context = InvocationContext {
                id: rng.gen(),
                deadline: SimTime::from_micros(rng.gen()),
                attempt: rng.gen(),
                origin: EndpointId(rng.gen()),
                semantics: [
                    Semantics::AtMostOnce,
                    Semantics::AtLeastOnce,
                    Semantics::Maybe,
                ][round % 3],
                routing_key: rng.gen::<bool>().then(|| rng.gen()),
            };
            let method: String = (0..rng.gen_range(0usize..40))
                .map(|_| char::from(b'a' + rng.gen_range(0u8..26)))
                .collect();
            // Every tenth round carries a blob-sized argument.
            let args_len = if round % 10 == 0 {
                65_540
            } else {
                rng.gen_range(0usize..300)
            };
            let args: Vec<u8> = (0..args_len).map(|_| rng.gen()).collect();
            // (`encode_request` asserts in this debug build that the size it
            // reserved is the size it wrote.)
            let borrowed = RmiMessage::encode_request(call, &context, &method, &args);
            let owned = RmiMessage::Request {
                call,
                context,
                method,
                args,
            };
            assert_eq!(borrowed, owned.encode(), "round {round}");
        }
    }

    #[test]
    fn request_head_locates_name_and_args_and_agrees_on_malformed_input() {
        let args: Vec<u8> = (0..5_000u32).map(|i| i as u8).collect();
        let good = RmiMessage::encode_request(9, &ctx(), "blob", &args);
        let head = RmiMessage::request_head(&good).unwrap();
        assert_eq!((head.call, head.context), (9, ctx()));
        assert_eq!(&good[head.method], b"blob");
        assert_eq!(head.args, good.len() - args.len()..good.len());

        // A name that is not UTF-8 is malformed, as the decoder says.
        let mut latin1 = good.clone();
        let name_at = good.len() - args.len() - 4 - "blob".len();
        latin1[name_at] = 0xe9;
        assert!(RmiMessage::decode(&latin1).is_err());
        assert_eq!(RmiMessage::request_head(&latin1), None);

        // Every truncation, a trailing byte, and each length prefix off by
        // one or absurd: the decoder's verdict too.
        let head = good.len() - args.len();
        let mut bad: Vec<Vec<u8>> = (0..good.len()).map(|n| good[..n].to_vec()).collect();
        bad.push([good.as_slice(), &[0]].concat());
        for prefix_at in [head - 4, head - 4 - "blob".len() - 4] {
            for lie in [1u32.wrapping_neg(), 1, u32::MAX / 2] {
                let mut b = good.clone();
                let was = u32::from_le_bytes(b[prefix_at..prefix_at + 4].try_into().unwrap());
                b[prefix_at..prefix_at + 4].copy_from_slice(&was.wrapping_add(lie).to_le_bytes());
                bad.push(b);
            }
        }
        for b in bad {
            assert!(RmiMessage::decode(&b).is_err());
            assert_eq!(RmiMessage::request_head(&b), None);
        }
    }

    #[test]
    fn context_budget_arithmetic() {
        let c = ctx();
        assert!(!c.is_expired(SimTime::from_micros(1_499_999)));
        assert!(c.is_expired(SimTime::from_micros(1_500_000)));
        assert_eq!(
            c.remaining(SimTime::from_micros(1_000_000)),
            SimDuration::from_micros(500_000)
        );
        assert_eq!(
            c.remaining(SimTime::from_micros(2_000_000)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn discovery_plane_roundtrips() {
        roundtrip(RmiMessage::PoolInfoRequest);
        roundtrip(RmiMessage::PoolInfo {
            epoch: 3,
            sentinel: EndpointId(0),
            members: vec![EndpointId(0), EndpointId(1)],
            uids: vec![0, 1],
        });
    }

    #[test]
    fn control_plane_roundtrips() {
        roundtrip(RmiMessage::PollLoad);
        roundtrip(RmiMessage::Load(LoadReport {
            uid: 2,
            pending: 14,
            busy: 0.83,
            ram: 0.5,
            fine_vote: Some(-1),
            expired: 3,
            method_stats: vec![(
                "get".into(),
                MethodStat {
                    calls: 1000,
                    mean_latency_us: 350,
                },
            )],
            rejected: 5,
            queue_delay_p50_us: 1_200,
            queue_delay_p99_us: 48_000,
            epoch: 7,
        }));
        roundtrip(RmiMessage::StateBroadcast {
            epoch: 5,
            sentinel_uid: 0,
            members: vec![MemberState {
                endpoint: EndpointId(3),
                uid: 0,
            }],
        });
        roundtrip(RmiMessage::Rebalance {
            to: EndpointId(4),
            count: 10,
        });
        roundtrip(RmiMessage::Shutdown);
        roundtrip(RmiMessage::ShutdownReady { uid: 6 });
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(RmiMessage::decode(&[0xff, 0xff, 0xff, 0xff, 1]).is_err());
        assert!(RmiMessage::decode(&[]).is_err());
    }
}
