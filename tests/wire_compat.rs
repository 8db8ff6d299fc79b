//! Golden-byte tests pinning the wire format.
//!
//! The codec is a protocol: once two processes (or a client and a pool on
//! different hosts) exchange bytes, its layout must not drift. These tests
//! hard-code the expected encodings so any accidental format change fails
//! loudly instead of corrupting cross-version traffic.

use elasticrmi::{InvocationContext, LoadReport, MemberState, RemoteError, RmiMessage};
use erm_sim::{SimDuration, SimTime};
use erm_transport::{to_bytes, EndpointId};

#[test]
fn integer_layout_is_little_endian_fixed_width() {
    assert_eq!(to_bytes(&0x01020304u32).unwrap(), [4, 3, 2, 1]);
    assert_eq!(to_bytes(&1u8).unwrap(), [1]);
    assert_eq!(to_bytes(&(-2i16)).unwrap(), [0xfe, 0xff]);
    assert_eq!(
        to_bytes(&0x0102030405060708u64).unwrap(),
        [8, 7, 6, 5, 4, 3, 2, 1]
    );
}

#[test]
fn bool_and_option_tags() {
    assert_eq!(to_bytes(&true).unwrap(), [1]);
    assert_eq!(to_bytes(&false).unwrap(), [0]);
    assert_eq!(to_bytes(&Option::<u8>::None).unwrap(), [0]);
    assert_eq!(to_bytes(&Some(7u8)).unwrap(), [1, 7]);
}

#[test]
fn string_layout_is_length_prefixed_utf8() {
    assert_eq!(to_bytes("hi").unwrap(), [2, 0, 0, 0, b'h', b'i']);
    assert_eq!(to_bytes("").unwrap(), [0, 0, 0, 0]);
}

#[test]
fn vec_layout_is_length_prefixed_elements() {
    assert_eq!(to_bytes(&vec![1u16, 2]).unwrap(), [2, 0, 0, 0, 1, 0, 2, 0]);
}

#[test]
fn float_layout_is_ieee754_le() {
    assert_eq!(to_bytes(&1.0f32).unwrap(), 1.0f32.to_le_bytes());
    assert_eq!(to_bytes(&-2.5f64).unwrap(), (-2.5f64).to_le_bytes());
}

#[test]
fn enum_variants_are_u32_indices() {
    // RmiMessage::PollLoad is variant 5 of the protocol enum (format v2,
    // which inserted Redirected); a unit variant's encoding is exactly the
    // 4-byte index. Renumbering variants breaks deployed peers. Format v3
    // appended Overloaded as variant 13, format v5 appended WrongShard as
    // variant 14, and format v6 retired Ping (11) and Pong (12) but keeps
    // their indices reserved — every index is frozen.
    assert_eq!(RmiMessage::PoolInfoRequest.encode(), [3, 0, 0, 0]);
    assert_eq!(RmiMessage::PollLoad.encode(), [5, 0, 0, 0]);
    assert_eq!(RmiMessage::Shutdown.encode(), [9, 0, 0, 0]);
    assert_eq!(RmiMessage::Retired11.encode(), [11, 0, 0, 0]);
    assert_eq!(RmiMessage::Retired12.encode(), [12, 0, 0, 0]);
    let overloaded = RmiMessage::Overloaded {
        call: 0,
        queue_depth: 0,
        retry_after: SimDuration::ZERO,
    };
    assert_eq!(overloaded.encode()[..4], [13, 0, 0, 0]);
    let wrong_shard = RmiMessage::WrongShard {
        call: 0,
        epoch: 0,
        owner: EndpointId(0),
        deadline: SimTime::ZERO,
    };
    assert_eq!(wrong_shard.encode()[..4], [14, 0, 0, 0]);
}

#[test]
fn request_message_golden_bytes() {
    // Format v2: Request carries the InvocationContext (id, deadline,
    // attempt, origin) between `call` and `method`. Format v4 appends the
    // method's invocation semantics to the context — a u32 enum index
    // (AtMostOnce = 0, AtLeastOnce = 1, Maybe = 2). Format v5 appends the
    // optional routing key after the semantics (1-byte tag + u64).
    let msg = RmiMessage::Request {
        call: 1,
        context: InvocationContext {
            id: 7,
            deadline: SimTime::from_micros(500_000),
            attempt: 1,
            origin: EndpointId(9),
            semantics: elasticrmi::Semantics::AtLeastOnce,
            routing_key: None,
        },
        method: "m".to_string(),
        args: vec![9],
    };
    let expected: Vec<u8> = [
        vec![0, 0, 0, 0],                      // variant 0: Request
        vec![1, 0, 0, 0, 0, 0, 0, 0],          // call: u64 = 1
        vec![7, 0, 0, 0, 0, 0, 0, 0],          // context.id: u64 = 7
        vec![0x20, 0xa1, 0x07, 0, 0, 0, 0, 0], // context.deadline: 500_000 µs
        vec![1, 0, 0, 0],                      // context.attempt: u32 = 1
        vec![9, 0, 0, 0, 0, 0, 0, 0],          // context.origin: EndpointId(9)
        vec![1, 0, 0, 0],                      // context.semantics: AtLeastOnce (v4)
        vec![0],                               // context.routing_key: None (v5)
        vec![1, 0, 0, 0, b'm'],                // method: len 1, "m"
        vec![1, 0, 0, 0, 9],                   // args: len 1, [9]
    ]
    .concat();
    assert_eq!(msg.encode(), expected);
}

#[test]
fn blob_request_golden_bytes() {
    // A 64 KiB byte-vector argument, the shape `blob_tcp_64k` sends: the
    // argument is itself a length-prefixed byte string (inner length
    // 65 536), carried as the request's `args` byte string (outer length
    // 65 540). Byte strings are raw bytes after their length, whatever
    // their size and however the codec moves them.
    let blob: Vec<u8> = (0..65_536u32).map(|i| (i % 251) as u8).collect();
    let msg = RmiMessage::Request {
        call: 1,
        context: InvocationContext {
            id: 7,
            deadline: SimTime::from_micros(500_000),
            attempt: 1,
            origin: EndpointId(9),
            semantics: elasticrmi::Semantics::AtLeastOnce,
            routing_key: None,
        },
        method: "blob".to_string(),
        args: to_bytes(&blob).unwrap(),
    };
    let bytes = msg.encode();
    assert_eq!(bytes.len(), 65_597);
    let head: Vec<u8> = [
        vec![0, 0, 0, 0],                         // variant 0: Request
        vec![1, 0, 0, 0, 0, 0, 0, 0],             // call: u64 = 1
        vec![7, 0, 0, 0, 0, 0, 0, 0],             // context.id: u64 = 7
        vec![0x20, 0xa1, 0x07, 0, 0, 0, 0, 0],    // context.deadline: 500_000 µs
        vec![1, 0, 0, 0],                         // context.attempt: u32 = 1
        vec![9, 0, 0, 0, 0, 0, 0, 0],             // context.origin: EndpointId(9)
        vec![1, 0, 0, 0],                         // context.semantics: AtLeastOnce
        vec![0],                                  // context.routing_key: None
        vec![4, 0, 0, 0, b'b', b'l', b'o', b'b'], // method: len 4, "blob"
        vec![0x04, 0x00, 0x01, 0x00],             // args: len 65_540
        vec![0x00, 0x00, 0x01, 0x00],             // the blob: len 65_536
        (0..19).collect(),                        // its first 19 bytes
    ]
    .concat();
    assert_eq!(head.len(), 80);
    assert_eq!(&bytes[..80], &head[..]);
    // 65_528 % 251 = 17: the last eight bytes of the blob end the message.
    assert_eq!(&bytes[65_589..], &[17, 18, 19, 20, 21, 22, 23, 24]);
    assert_eq!(RmiMessage::decode(&bytes).unwrap(), msg);
}

#[test]
fn request_routing_key_golden_bytes() {
    // Format v5: a keyed invocation carries Some(routing_key) — tag byte 1
    // followed by the u64 key — between the semantics and the method name.
    let msg = RmiMessage::Request {
        call: 1,
        context: InvocationContext {
            id: 7,
            deadline: SimTime::from_micros(500_000),
            attempt: 1,
            origin: EndpointId(9),
            semantics: elasticrmi::Semantics::AtMostOnce,
            routing_key: Some(0x0102030405060708),
        },
        method: "m".to_string(),
        args: vec![9],
    };
    let bytes = msg.encode();
    // semantics at offset 40 (see request_at_most_once_golden_bytes); the
    // routing key tag + payload follow at 44..53.
    assert_eq!(&bytes[44..53], &[1, 8, 7, 6, 5, 4, 3, 2, 1]);
    assert_eq!(RmiMessage::decode(&bytes).unwrap(), msg);
}

#[test]
fn request_at_most_once_golden_bytes() {
    // The three semantics wire indices are frozen: AtMostOnce = 0,
    // AtLeastOnce = 1, Maybe = 2. Reordering the enum breaks deployed peers.
    let msg = RmiMessage::Request {
        call: 1,
        context: InvocationContext {
            id: 7,
            deadline: SimTime::from_micros(500_000),
            attempt: 2,
            origin: EndpointId(9),
            semantics: elasticrmi::Semantics::AtMostOnce,
            routing_key: None,
        },
        method: "m".to_string(),
        args: vec![9],
    };
    let bytes = msg.encode();
    // semantics sits right after origin, before the method string:
    // 4 (variant) + 8 (call) + 8 (id) + 8 (deadline) + 4 (attempt) +
    // 8 (origin) = offset 40.
    assert_eq!(&bytes[40..44], &[0, 0, 0, 0]); // AtMostOnce = 0
    assert_eq!(RmiMessage::decode(&bytes).unwrap(), msg);
}

#[test]
fn redirected_message_golden_bytes() {
    // Format v2: Redirected echoes the refused request's deadline so the
    // follow-up attempt runs under the remaining budget.
    let msg = RmiMessage::Redirected {
        call: 3,
        members: vec![EndpointId(5)],
        deadline: SimTime::from_micros(256),
    };
    let expected: Vec<u8> = [
        vec![2, 0, 0, 0],             // variant 2: Redirected
        vec![3, 0, 0, 0, 0, 0, 0, 0], // call: u64 = 3
        vec![1, 0, 0, 0],             // members: len 1
        vec![5, 0, 0, 0, 0, 0, 0, 0], // EndpointId(5)
        vec![0, 1, 0, 0, 0, 0, 0, 0], // deadline: 256 µs
    ]
    .concat();
    assert_eq!(msg.encode(), expected);
}

#[test]
fn response_ok_golden_bytes() {
    // Format v4 appends `replayed` — one byte, 1 when the reply was served
    // from the skeleton's reply cache instead of a fresh execution.
    let msg = RmiMessage::Response {
        call: 2,
        outcome: Ok(vec![7, 8]),
        replayed: false,
    };
    let expected: Vec<u8> = [
        vec![1, 0, 0, 0],             // variant 1: Response
        vec![2, 0, 0, 0, 0, 0, 0, 0], // call
        vec![0, 0, 0, 0],             // Result variant 0: Ok
        vec![2, 0, 0, 0, 7, 8],       // bytes
        vec![0],                      // replayed: false (v4)
    ]
    .concat();
    assert_eq!(msg.encode(), expected);
}

#[test]
fn response_replayed_golden_bytes() {
    let msg = RmiMessage::Response {
        call: 2,
        outcome: Ok(vec![7, 8]),
        replayed: true,
    };
    let bytes = msg.encode();
    assert_eq!(bytes.last(), Some(&1)); // replayed: true (v4)
    assert_eq!(RmiMessage::decode(&bytes).unwrap(), msg);
}

#[test]
fn response_err_golden_bytes() {
    let msg = RmiMessage::Response {
        call: 0,
        outcome: Err(RemoteError::new("E", "d")),
        replayed: false,
    };
    let expected: Vec<u8> = [
        vec![1, 0, 0, 0],       // variant 1: Response
        vec![0; 8],             // call 0
        vec![1, 0, 0, 0],       // Result variant 1: Err
        vec![1, 0, 0, 0, b'E'], // kind
        vec![1, 0, 0, 0, b'd'], // detail
        vec![0],                // replayed: false (v4)
    ]
    .concat();
    assert_eq!(msg.encode(), expected);
}

#[test]
fn overloaded_message_golden_bytes() {
    // Format v3: Overloaded is the appended variant 13 — an explicit
    // admission rejection carrying the refusing member's queue depth and a
    // retry hint.
    let msg = RmiMessage::Overloaded {
        call: 4,
        queue_depth: 16,
        retry_after: SimDuration::from_micros(2_000),
    };
    let expected: Vec<u8> = [
        vec![13, 0, 0, 0],                  // variant 13: Overloaded
        vec![4, 0, 0, 0, 0, 0, 0, 0],       // call: u64 = 4
        vec![16, 0, 0, 0],                  // queue_depth: u32 = 16
        vec![0xd0, 0x07, 0, 0, 0, 0, 0, 0], // retry_after: 2_000 µs
    ]
    .concat();
    assert_eq!(msg.encode(), expected);
    assert_eq!(RmiMessage::decode(&expected).unwrap(), msg);
}

#[test]
fn load_report_v6_golden_bytes() {
    // Format v3: LoadReport appends rejected and the queue-delay
    // percentiles after method_stats. Format v6 appends the view epoch the
    // member holds. Existing fields keep their v2 layout.
    let msg = RmiMessage::Load(LoadReport {
        uid: 1,
        pending: 2,
        busy: 0.5,
        ram: 0.25,
        fine_vote: Some(1),
        expired: 3,
        method_stats: Vec::new(),
        rejected: 4,
        queue_delay_p50_us: 1_000,
        queue_delay_p99_us: 2_000,
        epoch: 5,
    });
    let expected: Vec<u8> = [
        vec![6, 0, 0, 0],                // variant 6: Load
        vec![1, 0, 0, 0, 0, 0, 0, 0],    // uid: u64 = 1
        vec![2, 0, 0, 0],                // pending: u32 = 2
        0.5f32.to_le_bytes().to_vec(),   // busy
        0.25f32.to_le_bytes().to_vec(),  // ram
        vec![1, 1, 0, 0, 0],             // fine_vote: Some(1)
        vec![3, 0, 0, 0],                // expired: u32 = 3
        vec![0, 0, 0, 0],                // method_stats: len 0
        vec![4, 0, 0, 0],                // rejected: u32 = 4 (v3)
        vec![0xe8, 3, 0, 0, 0, 0, 0, 0], // queue_delay_p50_us (v3)
        vec![0xd0, 7, 0, 0, 0, 0, 0, 0], // queue_delay_p99_us (v3)
        vec![5, 0, 0, 0, 0, 0, 0, 0],    // epoch: u64 = 5 (v6)
    ]
    .concat();
    assert_eq!(msg.encode(), expected);
    assert_eq!(RmiMessage::decode(&expected).unwrap(), msg);
}

#[test]
fn state_broadcast_v6_golden_bytes() {
    // Format v6: a member's seat is its endpoint and uid; the pending count
    // that followed them is gone.
    let msg = RmiMessage::StateBroadcast {
        epoch: 3,
        sentinel_uid: 1,
        members: vec![
            MemberState {
                endpoint: EndpointId(4),
                uid: 1,
            },
            MemberState {
                endpoint: EndpointId(6),
                uid: 2,
            },
        ],
    };
    let expected: Vec<u8> = [
        vec![7, 0, 0, 0],             // variant 7: StateBroadcast
        vec![3, 0, 0, 0, 0, 0, 0, 0], // epoch: u64 = 3
        vec![1, 0, 0, 0, 0, 0, 0, 0], // sentinel_uid: u64 = 1
        vec![2, 0, 0, 0],             // members: len 2
        vec![4, 0, 0, 0, 0, 0, 0, 0], // endpoint: EndpointId(4)
        vec![1, 0, 0, 0, 0, 0, 0, 0], // uid: u64 = 1
        vec![6, 0, 0, 0, 0, 0, 0, 0], // endpoint: EndpointId(6)
        vec![2, 0, 0, 0, 0, 0, 0, 0], // uid: u64 = 2
    ]
    .concat();
    assert_eq!(msg.encode(), expected);
    assert_eq!(RmiMessage::decode(&expected).unwrap(), msg);
}

#[test]
fn wrong_shard_golden_bytes() {
    // Format v5: WrongShard is the appended variant 14 — a shard-ownership
    // refusal carrying the refusing member's epoch, the believed owner, and
    // the echoed deadline.
    let msg = RmiMessage::WrongShard {
        call: 5,
        epoch: 2,
        owner: EndpointId(7),
        deadline: SimTime::from_micros(256),
    };
    let expected: Vec<u8> = [
        vec![14, 0, 0, 0],            // variant 14: WrongShard
        vec![5, 0, 0, 0, 0, 0, 0, 0], // call: u64 = 5
        vec![2, 0, 0, 0, 0, 0, 0, 0], // epoch: u64 = 2
        vec![7, 0, 0, 0, 0, 0, 0, 0], // owner: EndpointId(7)
        vec![0, 1, 0, 0, 0, 0, 0, 0], // deadline: 256 µs
    ]
    .concat();
    assert_eq!(msg.encode(), expected);
    assert_eq!(RmiMessage::decode(&expected).unwrap(), msg);
}

#[test]
fn pool_info_v5_golden_bytes() {
    // Format v5: PoolInfo appends the members' uids (index-aligned with the
    // endpoint list) so stubs can rebuild the uid-deterministic shard ring.
    let msg = RmiMessage::PoolInfo {
        epoch: 9,
        sentinel: EndpointId(1),
        members: vec![EndpointId(1), EndpointId(2)],
        uids: vec![0, 3],
    };
    let expected: Vec<u8> = [
        vec![4, 0, 0, 0],             // variant 4: PoolInfo
        vec![9, 0, 0, 0, 0, 0, 0, 0], // epoch: u64 = 9
        vec![1, 0, 0, 0, 0, 0, 0, 0], // sentinel: EndpointId(1)
        vec![2, 0, 0, 0],             // members: len 2
        vec![1, 0, 0, 0, 0, 0, 0, 0], // EndpointId(1)
        vec![2, 0, 0, 0, 0, 0, 0, 0], // EndpointId(2)
        vec![2, 0, 0, 0],             // uids: len 2 (v5)
        vec![0, 0, 0, 0, 0, 0, 0, 0], // uid 0
        vec![3, 0, 0, 0, 0, 0, 0, 0], // uid 3
    ]
    .concat();
    assert_eq!(msg.encode(), expected);
    assert_eq!(RmiMessage::decode(&expected).unwrap(), msg);
}

#[test]
fn endpoint_id_is_a_bare_u64() {
    assert_eq!(to_bytes(&EndpointId(3)).unwrap(), 3u64.to_le_bytes());
}

#[test]
fn golden_decodes_roundtrip() {
    // The inverse direction: the pinned bytes decode to the original values.
    let bytes = [5u8, 0, 0, 0];
    assert_eq!(RmiMessage::decode(&bytes).unwrap(), RmiMessage::PollLoad);
    // A v5 peer's Ping and Pong still decode, to the placeholders every
    // receiver ignores, and the variants after them keep their indices.
    let bytes = [11u8, 0, 0, 0];
    assert_eq!(RmiMessage::decode(&bytes).unwrap(), RmiMessage::Retired11);
    let bytes = [12u8, 0, 0, 0];
    assert_eq!(RmiMessage::decode(&bytes).unwrap(), RmiMessage::Retired12);
    let overloaded = [[13u8, 0, 0, 0].as_slice(), &[0; 20]].concat();
    assert!(matches!(
        RmiMessage::decode(&overloaded).unwrap(),
        RmiMessage::Overloaded { call: 0, .. }
    ));
    let wrong_shard = [[14u8, 0, 0, 0].as_slice(), &[0; 32]].concat();
    assert!(matches!(
        RmiMessage::decode(&wrong_shard).unwrap(),
        RmiMessage::WrongShard { call: 0, .. }
    ));
    let s: String = erm_transport::from_bytes(&[2, 0, 0, 0, b'h', b'i']).unwrap();
    assert_eq!(s, "hi");
}
