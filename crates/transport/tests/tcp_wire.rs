//! Wire-level tests for the TCP transport: golden frame bytes on a real
//! socket, reassembly of split/partial/interleaved frames under
//! pipelining, coalesced batches, bulk frames (payloads of 4 KiB or more,
//! written from and read into their own buffers) split at every boundary
//! that path has, and reconnect after the peer closes the connection.
//!
//! All waiting goes through [`erm_transport::testutil`] — readiness
//! polling with one generous shared deadline — instead of per-call sleeps
//! and short fixed timeouts, which flaked under CI load.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use erm_transport::testutil::{accept_ready, eventually, recv_ready, TEST_DEADLINE};
use erm_transport::{EndpointId, Network, TcpHost};

/// Fixed frame part after the length word: from + to + addr_len.
const FRAME_FIXED: usize = 18;

/// Hand-encodes a frame exactly as the transport specifies it.
fn golden_frame(from: u64, to: u64, addr: &str, payload: &[u8]) -> Vec<u8> {
    let len = (FRAME_FIXED + addr.len() + payload.len()) as u32;
    let mut frame = Vec::new();
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&from.to_le_bytes());
    frame.extend_from_slice(&to.to_le_bytes());
    frame.extend_from_slice(&(addr.len() as u16).to_le_bytes());
    frame.extend_from_slice(addr.as_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Reads one frame off a raw socket, returning `(from, to, addr, payload)`.
fn read_frame(stream: &mut TcpStream) -> std::io::Result<(u64, u64, String, Vec<u8>)> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    assert!(len >= FRAME_FIXED, "malformed frame: len {len}");
    let mut frame = vec![0u8; len];
    stream.read_exact(&mut frame)?;
    let from = u64::from_le_bytes(frame[0..8].try_into().unwrap());
    let to = u64::from_le_bytes(frame[8..16].try_into().unwrap());
    let addr_len = u16::from_le_bytes(frame[16..18].try_into().unwrap()) as usize;
    let addr = String::from_utf8(frame[18..18 + addr_len].to_vec()).unwrap();
    let payload = frame[18 + addr_len..].to_vec();
    Ok((from, to, addr, payload))
}

/// Writes `bytes` in deterministically irregular chunks of 1..=23 bytes,
/// never aligned with a frame length, so every header and payload gets
/// split.
fn dribble(conn: &mut TcpStream, bytes: &[u8]) {
    let mut off = 0usize;
    let mut step = 1usize;
    while off < bytes.len() {
        let n = step.min(bytes.len() - off);
        conn.write_all(&bytes[off..off + n]).unwrap();
        conn.flush().unwrap();
        off += n;
        step = (step * 3 + 1) % 23 + 1;
    }
}

/// Writes `bytes` in chunks cycling through sizes from one byte to more
/// than a read's worth, so bulk payloads are split at irregular places too.
fn write_irregular(conn: &mut TcpStream, bytes: &[u8]) {
    const SIZES: [usize; 7] = [1, 23, 4_000, 5, 70_000, 333, 9];
    let mut off = 0usize;
    for size in SIZES.iter().cycle() {
        if off == bytes.len() {
            break;
        }
        let n = (*size).min(bytes.len() - off);
        conn.write_all(&bytes[off..off + n]).unwrap();
        conn.flush().unwrap();
        off += n;
    }
}

/// Payload `n` bytes long whose every byte depends on its position and on
/// `seed`, so a byte out of place is a byte wrong.
fn patterned(n: usize, seed: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 7 + seed) % 251) as u8).collect()
}

#[test]
fn golden_frame_bytes_on_the_wire() {
    // A raw listener stands in for the peer so the exact bytes the host
    // writes are observable.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let peer_addr: SocketAddr = listener.local_addr().unwrap();

    let host = TcpHost::bind("127.0.0.1:0", 3).unwrap();
    let (from, _mail) = host.open_endpoint();
    assert_eq!(from, EndpointId(3 << 32), "first endpoint of host 3");
    let to = EndpointId((7 << 32) | 5);
    host.register_peer(to, peer_addr);
    host.send(from, to, b"hello elastic".to_vec()).unwrap();

    let mut conn = accept_ready(&listener, "the host's outbound connection");
    let expected = golden_frame(
        3 << 32,
        (7 << 32) | 5,
        &host.local_addr().to_string(),
        b"hello elastic",
    );
    let mut got = vec![0u8; expected.len()];
    conn.read_exact(&mut got).unwrap();
    assert_eq!(
        got, expected,
        "frame layout is pinned: any change is a wire break"
    );

    // An empty payload is legal and still carries the advertised address.
    host.send(from, to, Vec::new()).unwrap();
    let (f, t, addr, payload) = read_frame(&mut conn).unwrap();
    assert_eq!((f, t), (3 << 32, (7 << 32) | 5));
    assert_eq!(addr, host.local_addr().to_string());
    assert!(payload.is_empty());
}

#[test]
fn pipelined_batch_keeps_exact_golden_bytes() {
    // A pipelining stub sends many frames back-to-back; the event-driven
    // writer may coalesce them into fewer socket writes. Whatever the
    // batching, the byte *stream* must equal the frames' concatenation —
    // coalescing is a syscall optimisation, never a wire format change.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let peer_addr: SocketAddr = listener.local_addr().unwrap();

    let host = TcpHost::bind("127.0.0.1:0", 2).unwrap();
    let (from, _mail) = host.open_endpoint();
    let to = EndpointId(6 << 32);
    host.register_peer(to, peer_addr);

    let mut expected = Vec::new();
    for call in 0..8u64 {
        let payload = format!("call-{call}").into_bytes();
        expected.extend_from_slice(&golden_frame(
            from.0,
            to.0,
            &host.local_addr().to_string(),
            &payload,
        ));
        host.send(from, to, payload).unwrap();
    }

    let mut conn = accept_ready(&listener, "the host's outbound connection");
    let mut got = vec![0u8; expected.len()];
    conn.read_exact(&mut got).unwrap();
    assert_eq!(
        got, expected,
        "a coalesced batch must be byte-identical to the frames in order"
    );
}

#[test]
fn large_frame_then_small_ones_keep_golden_stream_and_order() {
    // One frame bigger than the writer's batch limit and a read's worth
    // (both 64 KiB) with three small ones queued behind it. The sender
    // writes the large payload from its own buffer after its header and
    // coalesces the small ones; the stream must still be the frames'
    // concatenation, and a host fed that stream in scraps must deliver all
    // four in order.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let peer_addr: SocketAddr = listener.local_addr().unwrap();

    let host = TcpHost::bind("127.0.0.1:0", 2).unwrap();
    let (from, _mail) = host.open_endpoint();
    let to = EndpointId(6 << 32);
    host.register_peer(to, peer_addr);

    let large: Vec<u8> = (0..100_000u32).map(|i| (i % 253) as u8).collect();
    let payloads = [large, b"one".to_vec(), Vec::new(), b"three".to_vec()];
    let mut expected = Vec::new();
    for payload in &payloads {
        expected.extend_from_slice(&golden_frame(
            from.0,
            to.0,
            &host.local_addr().to_string(),
            payload,
        ));
        host.send(from, to, payload.clone()).unwrap();
    }

    let mut conn = accept_ready(&listener, "the host's outbound connection");
    let mut got = vec![0u8; expected.len()];
    conn.read_exact(&mut got).unwrap();
    assert!(
        got == expected,
        "the stream must be byte-identical to the four frames in order"
    );
    eventually("all four frames counted sent", || {
        host.stats().frames_sent == 4
    });

    // The receiving side: host 6's first endpoint is `to`.
    let receiver = TcpHost::bind("127.0.0.1:0", 6).unwrap();
    let (dest, mailbox) = receiver.open_endpoint();
    assert_eq!(dest, to);
    let mut feed = TcpStream::connect(receiver.local_addr()).unwrap();
    dribble(&mut feed, &got);
    for (i, payload) in payloads.iter().enumerate() {
        let delivered = recv_ready(&mailbox, &format!("frame {i} of the dribbled stream"));
        assert_eq!(delivered.from, from);
        assert!(delivered.payload == *payload, "payload {i} survives");
    }
    assert!(mailbox.try_recv().is_err(), "no extra frames invented");
}

#[test]
fn split_frames_reassemble_across_short_reads_and_writes() {
    // A raw client dribbles frames at the host byte by byte (worst-case
    // short writes); the framing layer must reassemble them exactly.
    let host = TcpHost::bind("127.0.0.1:0", 0).unwrap();
    let (dest, mailbox) = host.open_endpoint();

    let mut conn = TcpStream::connect(host.local_addr()).unwrap();
    let frame = golden_frame(9 << 32, dest.0, "127.0.0.1:9999", b"split me");
    for chunk in frame.chunks(1) {
        conn.write_all(chunk).unwrap();
        conn.flush().unwrap();
    }
    let got = recv_ready(&mailbox, "the byte-by-byte frame");
    assert_eq!(got.from, EndpointId(9 << 32));
    assert_eq!(got.payload, b"split me");

    // Two frames coalesced into one write (what a batching sender emits)
    // must come out as two datagrams.
    let mut batch = golden_frame(9 << 32, dest.0, "", b"first");
    batch.extend_from_slice(&golden_frame(9 << 32, dest.0, "", b"second"));
    conn.write_all(&batch).unwrap();
    assert_eq!(
        recv_ready(&mailbox, "first frame of the batch").payload,
        b"first"
    );
    assert_eq!(
        recv_ready(&mailbox, "second frame of the batch").payload,
        b"second"
    );

    // A frame split mid-header across two writes with a pause in between.
    let frame = golden_frame(9 << 32, dest.0, "", b"mid-header split");
    conn.write_all(&frame[..10]).unwrap();
    conn.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(20));
    conn.write_all(&frame[10..]).unwrap();
    assert_eq!(
        recv_ready(&mailbox, "the mid-header-split frame").payload,
        b"mid-header split"
    );
}

#[test]
fn pipelined_frames_for_many_endpoints_reassemble_from_irregular_chunks() {
    // The pipelined-stub wire shape: one connection carrying a long run of
    // frames for several destination endpoints (and from several logical
    // senders), with chunk boundaries that never line up with frame
    // boundaries. Every frame must reach its own mailbox, in stream order,
    // with sender and payload intact — that correlation is what the
    // stub's call-id map builds on.
    let host = TcpHost::bind("127.0.0.1:0", 0).unwrap();
    let (endpoints, mailboxes): (Vec<_>, Vec<_>) = (0..4).map(|_| host.open_endpoint()).unzip();

    let total = 64usize;
    let mut stream_bytes = Vec::new();
    for i in 0..total {
        let sender = (9u64 << 32) | (i as u64 % 3);
        let dest = endpoints[i % endpoints.len()];
        stream_bytes.extend_from_slice(&golden_frame(
            sender,
            dest.0,
            "",
            format!("call-{i}").as_bytes(),
        ));
    }

    let mut conn = TcpStream::connect(host.local_addr()).unwrap();
    dribble(&mut conn, &stream_bytes);

    for (k, mailbox) in mailboxes.iter().enumerate() {
        let mut i = k;
        while i < total {
            let got = recv_ready(mailbox, &format!("frame call-{i} for endpoint {k}"));
            assert_eq!(
                got.from,
                EndpointId((9u64 << 32) | (i as u64 % 3)),
                "sender survives reassembly for call-{i}"
            );
            assert_eq!(
                got.payload,
                format!("call-{i}").as_bytes(),
                "payload survives reassembly for call-{i}"
            );
            i += endpoints.len();
        }
        assert!(
            mailbox.try_recv().is_err(),
            "no extra frames invented for endpoint {k}"
        );
    }
}

#[test]
fn inbound_frames_teach_the_reply_route() {
    // The advertised address in a frame is enough for the receiving host to
    // route a reply — no register_peer in the reverse direction.
    let server = TcpHost::bind("127.0.0.1:0", 0).unwrap();
    let client = TcpHost::bind("127.0.0.1:0", 1).unwrap();
    let (s, server_mail) = server.open_endpoint();
    let (c, client_mail) = client.open_endpoint();
    client.register_host(0, server.local_addr());

    client.send(c, s, b"request".to_vec()).unwrap();
    let req = recv_ready(&server_mail, "the client's request");
    assert_eq!(req.payload, b"request");
    // The server never registered the client; the frame taught it.
    server.send(s, req.from, b"reply".to_vec()).unwrap();
    assert_eq!(
        recv_ready(&client_mail, "the reply over the learned route").payload,
        b"reply"
    );
}

#[test]
fn reconnect_after_peer_close_delivers_later_frames() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let peer_addr = listener.local_addr().unwrap();

    let host = TcpHost::bind("127.0.0.1:0", 0).unwrap();
    let (from, _mail) = host.open_endpoint();
    let to = EndpointId(5 << 32);
    host.register_peer(to, peer_addr);

    // First connection: receive one frame, then slam the door.
    host.send(from, to, 0u64.to_le_bytes().to_vec()).unwrap();
    {
        let mut conn = accept_ready(&listener, "the first connection");
        let (_, _, _, payload) = read_frame(&mut conn).unwrap();
        assert_eq!(payload, 0u64.to_le_bytes());
        // Dropping conn closes it; the host's cached connection is now dead.
    }

    // Keep sending until a frame arrives on a *new* connection. The first
    // few sends may be swallowed by the dead socket's buffer (datagram
    // semantics permit loss); what matters is that the writer reconnects
    // and later frames flow again.
    let deadline = Instant::now() + TEST_DEADLINE;
    let mut seq = 1u64;
    let received = loop {
        assert!(Instant::now() < deadline, "writer never reconnected");
        host.send(from, to, seq.to_le_bytes().to_vec()).unwrap();
        seq += 1;
        match listener.accept() {
            Ok((mut conn, _)) => {
                conn.set_nonblocking(false).unwrap();
                conn.set_read_timeout(Some(TEST_DEADLINE)).unwrap();
                let (_, _, _, payload) = read_frame(&mut conn).unwrap();
                break u64::from_le_bytes(payload.try_into().unwrap());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(e) => panic!("accept failed: {e}"),
        }
    };
    assert!(
        received >= 1,
        "a post-close frame arrived on the new connection"
    );
    let stats = host.stats();
    assert!(
        stats.reconnects >= 1,
        "the connection pool must have reconnected: {stats:?}"
    );
}

#[test]
fn broken_peer_turns_endpoint_open_false_and_drops_frames() {
    // Bind a listener to reserve a port, then drop it: connects now fail
    // fast, so after the writer exhausts its attempts the peer is broken.
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let host = TcpHost::bind("127.0.0.1:0", 0).unwrap();
    let (from, _mail) = host.open_endpoint();
    let to = EndpointId(5 << 32);
    host.register_peer(to, dead_addr);
    assert!(
        host.endpoint_open(to),
        "no traffic yet: optimistically open"
    );

    host.send(from, to, b"into the void".to_vec()).unwrap();
    eventually("the unreachable peer is marked broken", || {
        !host.endpoint_open(to)
    });
    assert!(host.stats().frames_dropped >= 1);
}

#[test]
fn bulk_and_small_frames_reassemble_from_splits_at_headers_and_body_ends() {
    // Payloads either side of the 4 KiB bulk threshold, one larger than a
    // read, and a small one after it. The stream pauses (so the reader sees
    // the split) inside the first bulk body, whose header came in with the
    // small frame before it; exactly at the end of each bulk body; inside
    // the header that follows each; and inside the large body. Every frame
    // must be delivered as soon as its last byte is in, intact and in
    // order.
    let host = TcpHost::bind("127.0.0.1:0", 0).unwrap();
    let (dest, mailbox) = host.open_endpoint();
    let sizes = [0usize, 4_095, 4_096, 100_000, 8];
    let mut stream = Vec::new();
    let mut starts = Vec::new();
    let mut frames = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        let from = EndpointId((9 << 32) | i as u64);
        let payload = patterned(n, i);
        starts.push(stream.len());
        stream.extend_from_slice(&golden_frame(from.0, dest.0, "127.0.0.1:9999", &payload));
        frames.push((from, payload));
    }
    // (where the writer pauses, frames that must have arrived by then)
    let stops = [
        (starts[2] + 1_000, 2),  // inside the 4,096-byte body
        (starts[3], 3),          // exactly at the end of it
        (starts[3] + 9, 3),      // inside the next header
        (starts[3] + 50_000, 3), // inside the 100,000-byte body
        (starts[4], 4),          // exactly at the end of that body
        (starts[4] + 5, 4),      // inside the next header
        (stream.len(), 5),
    ];

    let mut conn = TcpStream::connect(host.local_addr()).unwrap();
    let (mut written, mut delivered) = (0, 0);
    for (stop, arrived) in stops {
        write_irregular(&mut conn, &stream[written..stop]);
        written = stop;
        while delivered < arrived {
            let got = recv_ready(&mailbox, &format!("frame {delivered} by offset {stop}"));
            let (from, payload) = &frames[delivered];
            assert_eq!(got.from, *from, "sender of frame {delivered}");
            assert!(
                got.payload == *payload,
                "payload of frame {delivered} ({} bytes) survives",
                payload.len()
            );
            delivered += 1;
        }
        // Let the reader take in the bytes after the last whole frame.
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            mailbox.try_recv().is_err(),
            "no frame delivered before its last byte (offset {stop})"
        );
    }
    assert_eq!(host.stats().frames_received, sizes.len() as u64);
}

#[test]
fn partial_writes_across_header_and_payload_keep_the_golden_stream() {
    // Rounds of small frames (coalesced into one batch buffer) each ended
    // by a bulk frame (header in the batch, payload written from its own
    // buffer by the same vectored write), the bulk payload alternately
    // large and small so both parts hold about half the bytes: 16 MB,
    // several times what both socket buffers hold (4 MiB at most for the
    // sender's here). The reader starts once the writer has stalled and
    // takes small pieces, so the writer stops and resumes many times, at
    // arbitrary offsets of both parts; the stream must still be the
    // frames' concatenation.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let host = TcpHost::bind("127.0.0.1:0", 2).unwrap();
    let (from, _mail) = host.open_endpoint();
    let to = EndpointId(6 << 32);
    host.register_peer(to, listener.local_addr().unwrap());
    let addr = host.local_addr().to_string();

    let mut expected = Vec::new();
    let mut frames = 0u64;
    for round in 0..112 {
        let bulk = if round % 2 == 0 { 150_000 } else { 6_000 };
        let sizes = (0..20).map(|k| 3_000 + k).chain([bulk + round]);
        for (k, n) in sizes.enumerate() {
            let payload = patterned(n, round * 21 + k);
            expected.extend_from_slice(&golden_frame(from.0, to.0, &addr, &payload));
            host.send(from, to, payload).unwrap();
            frames += 1;
        }
    }

    let mut conn = accept_ready(&listener, "the host's outbound connection");
    conn.set_read_timeout(Some(TEST_DEADLINE)).unwrap();
    eventually("the writer fills the socket buffers", || {
        host.stats().wouldblock_retries >= 1
    });
    let mut got = Vec::with_capacity(expected.len());
    let mut piece = [0u8; 4_001];
    let mut size = 1usize;
    while got.len() < expected.len() {
        let want = size.min(expected.len() - got.len());
        let n = conn.read(&mut piece[..want]).unwrap();
        assert!(n > 0, "stream ended at {} of {}", got.len(), expected.len());
        got.extend_from_slice(&piece[..n]);
        size = (size * 13 + 7) % piece.len() + 1;
    }
    let first_wrong = got.iter().zip(&expected).position(|(a, b)| a != b);
    assert_eq!(first_wrong, None, "the stream is the frames' concatenation");
    eventually("every frame counted sent once", || {
        host.stats().frames_sent == frames
    });
    assert!(host.stats().partial_writes >= 1, "{:?}", host.stats());
}

#[test]
fn peer_closing_inside_a_bulk_frame_gets_the_whole_frame_again() {
    // The peer reads the header and half the payload of one bulk frame,
    // then closes. The payload is larger than the half plus both socket
    // buffers, so the writer cannot have finished it: the batch rewinds,
    // and the fresh connection carries the whole frame from its first
    // byte. It is counted sent once.
    const PAYLOAD: usize = 24 << 20;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let host = TcpHost::bind("127.0.0.1:0", 0).unwrap();
    let (from, _mail) = host.open_endpoint();
    let to = EndpointId(5 << 32);
    host.register_peer(to, listener.local_addr().unwrap());
    let addr = host.local_addr().to_string();
    host.send(from, to, patterned(PAYLOAD, 3)).unwrap();
    let header = golden_frame(from.0, to.0, &addr, &[]);
    let header_len = header.len();
    let mut expected_header = header;
    expected_header[..4].copy_from_slice(&((header_len - 4 + PAYLOAD) as u32).to_le_bytes());

    // Reads `n` payload bytes after the header, checking each against the
    // pattern.
    let read_frame_part = |conn: &mut TcpStream, n: usize| {
        conn.set_nonblocking(false).unwrap();
        conn.set_read_timeout(Some(TEST_DEADLINE)).unwrap();
        let mut head = vec![0u8; header_len];
        conn.read_exact(&mut head).unwrap();
        assert_eq!(head, expected_header, "the frame starts over, header first");
        let mut buf = vec![0u8; 1 << 16];
        let mut at = 0usize;
        while at < n {
            let want = buf.len().min(n - at);
            conn.read_exact(&mut buf[..want]).unwrap();
            let wrong = (0..want).find(|&i| buf[i] != ((((at + i) * 7) + 3) % 251) as u8);
            assert_eq!(wrong.map(|i| at + i), None, "payload byte out of place");
            at += want;
        }
    };
    {
        let mut first = accept_ready(&listener, "the first connection");
        read_frame_part(&mut first, PAYLOAD / 2);
    }
    let mut second = accept_ready(&listener, "the reconnection");
    read_frame_part(&mut second, PAYLOAD);
    eventually("the frame counted sent", || host.stats().frames_sent == 1);
    let stats = host.stats();
    assert_eq!(stats.frames_sent, 1, "counted once: {stats:?}");
    assert!(stats.reconnects >= 1, "{stats:?}");
}
