//! In-process network with fault injection.

use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::endpoint::{Datagram, EndpointId, Mailbox, Network, SendError};

/// An in-process [`Network`]: endpoints are crossbeam channels inside one
/// address space. This is the transport used by the threaded runtime in
/// tests and examples, and it supports the fault injection the paper's
/// fault-tolerance story (§4.4) needs exercising against:
///
/// * closing an endpoint (a crashed JVM — senders get
///   [`SendError::Unreachable`]),
/// * cutting a directed link (messages silently lost, like a network
///   partition).
///
/// Cloning shares the network.
///
/// # Example
///
/// ```
/// use erm_transport::{InProcNetwork, Network};
///
/// let net = InProcNetwork::new();
/// let (alice, _alice_mail) = net.open_endpoint();
/// let (bob, bob_mail) = net.open_endpoint();
/// net.send(alice, bob, b"hello".to_vec()).unwrap();
/// let msg = bob_mail.try_recv().unwrap();
/// assert_eq!(msg.from, alice);
/// assert_eq!(msg.payload, b"hello");
/// ```
#[derive(Debug, Clone, Default)]
pub struct InProcNetwork {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    registry: RwLock<HashMap<EndpointId, Sender<Datagram>>>,
    cut_links: RwLock<HashSet<(EndpointId, EndpointId)>>,
    /// Whether `cut_links` is non-empty, so `send` skips its lock while no
    /// link is cut. Written under the `cut_links` write lock.
    any_cut: AtomicBool,
    next_id: AtomicU64,
    sent: AtomicU64,
    delivered: AtomicU64,
    latency_us: AtomicU64,
    delay_queue: Mutex<BinaryHeap<DelayedDelivery>>,
    delay_signal: Condvar,
    delay_thread_running: AtomicU64,
}

#[derive(Debug)]
struct DelayedDelivery {
    due: Instant,
    seq: u64,
    to: EndpointId,
    datagram: Datagram,
}

impl PartialEq for DelayedDelivery {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for DelayedDelivery {}
impl PartialOrd for DelayedDelivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DelayedDelivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

impl InProcNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new endpoint, returning its id and mailbox. Ids are assigned
    /// in increasing order, which the pool runtime relies on for sentinel
    /// election.
    pub fn open_endpoint(&self) -> (EndpointId, Mailbox) {
        let id = EndpointId(self.inner.next_id.fetch_add(1, Ordering::SeqCst));
        let (tx, rx) = unbounded();
        self.inner.registry.write().insert(id, tx);
        (id, Mailbox::new(id, rx))
    }

    /// Closes an endpoint: subsequent sends to it fail with
    /// [`SendError::Unreachable`] and its mailbox reports closed once
    /// drained. Closing an unknown endpoint is a no-op.
    pub fn close_endpoint(&self, id: EndpointId) {
        self.inner.registry.write().remove(&id);
    }

    /// Whether `id` is currently open.
    pub fn is_open(&self, id: EndpointId) -> bool {
        self.inner.registry.read().contains_key(&id)
    }

    /// Cuts (or restores) the directed link `from -> to`. While cut, sends
    /// succeed but the datagram is silently dropped — indistinguishable, to
    /// the sender, from network loss.
    pub fn set_link_cut(&self, from: EndpointId, to: EndpointId, cut: bool) {
        let mut links = self.inner.cut_links.write();
        if cut {
            links.insert((from, to));
        } else {
            links.remove(&(from, to));
        }
        self.inner
            .any_cut
            .store(!links.is_empty(), Ordering::SeqCst);
    }

    /// Injects a fixed one-way delivery latency on every subsequent send
    /// (zero restores immediate delivery). A background delivery thread is
    /// started on first use. Useful for exercising client timeout/retry
    /// paths under a slow network.
    pub fn set_delivery_latency(&self, latency: Duration) {
        self.inner
            .latency_us
            .store(latency.as_micros() as u64, Ordering::SeqCst);
        if !latency.is_zero() && self.inner.delay_thread_running.swap(1, Ordering::SeqCst) == 0 {
            let inner = Arc::clone(&self.inner);
            std::thread::Builder::new()
                .name("inproc-delay".to_string())
                .spawn(move || delay_loop(inner))
                .expect("spawn delay thread");
        }
    }

    /// Total accepted sends.
    pub fn sent_count(&self) -> u64 {
        self.inner.sent.load(Ordering::Relaxed)
    }

    /// Total actually delivered datagrams (excludes cut-link losses).
    pub fn delivered_count(&self) -> u64 {
        self.inner.delivered.load(Ordering::Relaxed)
    }
}

impl crate::endpoint::Host for InProcNetwork {
    fn open(&self) -> (EndpointId, Mailbox) {
        self.open_endpoint()
    }

    fn close(&self, id: EndpointId) {
        self.close_endpoint(id);
    }
}

impl Network for InProcNetwork {
    fn send(&self, from: EndpointId, to: EndpointId, payload: Vec<u8>) -> Result<(), SendError> {
        let registry = self.inner.registry.read();
        let Some(tx) = registry.get(&to) else {
            return Err(SendError::Unreachable(to));
        };
        self.inner.sent.fetch_add(1, Ordering::Relaxed);
        if self.inner.any_cut.load(Ordering::SeqCst)
            && self.inner.cut_links.read().contains(&(from, to))
        {
            return Ok(()); // silently lost
        }
        let latency_us = self.inner.latency_us.load(Ordering::SeqCst);
        if latency_us > 0 {
            // The delay thread takes the queue lock before the registry's.
            drop(registry);
            let seq = self.inner.sent.load(Ordering::Relaxed);
            let mut queue = self.inner.delay_queue.lock();
            queue.push(DelayedDelivery {
                due: Instant::now() + Duration::from_micros(latency_us),
                seq,
                to,
                datagram: Datagram { from, payload },
            });
            self.inner.delay_signal.notify_one();
            return Ok(());
        }
        if tx.send(Datagram { from, payload }).is_ok() {
            self.inner.delivered.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn endpoint_open(&self, id: EndpointId) -> bool {
        self.is_open(id)
    }
}

fn delay_loop(inner: Arc<Inner>) {
    let mut queue = inner.delay_queue.lock();
    loop {
        let now = Instant::now();
        while queue.peek().is_some_and(|d| d.due <= now) {
            let delivery = queue.pop().expect("peeked");
            // Deliver without holding the queue lock ordering issues: the
            // registry lock is independent.
            if let Some(tx) = inner.registry.read().get(&delivery.to) {
                if tx.send(delivery.datagram).is_ok() {
                    inner.delivered.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        match queue.peek().map(|d| d.due) {
            Some(due) => {
                let wait = due.saturating_duration_since(Instant::now());
                let _ = inner
                    .delay_signal
                    .wait_for(&mut queue, wait.max(Duration::from_micros(100)));
            }
            None => {
                let _ = inner
                    .delay_signal
                    .wait_for(&mut queue, Duration::from_millis(50));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::RecvError;
    use std::time::Duration;

    #[test]
    fn send_and_receive() {
        let net = InProcNetwork::new();
        let (a, _ma) = net.open_endpoint();
        let (b, mb) = net.open_endpoint();
        net.send(a, b, vec![1, 2, 3]).unwrap();
        let got = mb.recv().unwrap();
        assert_eq!(
            got,
            Datagram {
                from: a,
                payload: vec![1, 2, 3]
            }
        );
    }

    #[test]
    fn endpoint_ids_are_monotonic() {
        let net = InProcNetwork::new();
        let ids: Vec<_> = (0..5).map(|_| net.open_endpoint().0).collect();
        for pair in ids.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn closed_endpoint_is_unreachable() {
        let net = InProcNetwork::new();
        let (a, _ma) = net.open_endpoint();
        let (b, mb) = net.open_endpoint();
        net.close_endpoint(b);
        assert!(!net.is_open(b));
        assert_eq!(net.send(a, b, vec![]), Err(SendError::Unreachable(b)));
        assert_eq!(mb.recv(), Err(RecvError::Closed));
    }

    #[test]
    fn messages_queued_before_close_are_drained() {
        let net = InProcNetwork::new();
        let (a, _ma) = net.open_endpoint();
        let (b, mb) = net.open_endpoint();
        net.send(a, b, vec![9]).unwrap();
        net.close_endpoint(b);
        assert_eq!(mb.recv().unwrap().payload, vec![9]);
        assert_eq!(mb.recv(), Err(RecvError::Closed));
    }

    #[test]
    fn cut_link_loses_messages_silently() {
        let net = InProcNetwork::new();
        let (a, _ma) = net.open_endpoint();
        let (b, mb) = net.open_endpoint();
        net.set_link_cut(a, b, true);
        net.send(a, b, vec![1]).unwrap(); // reported ok
        assert_eq!(mb.try_recv(), Err(RecvError::Timeout));
        net.set_link_cut(a, b, false);
        net.send(a, b, vec![2]).unwrap();
        assert_eq!(mb.recv().unwrap().payload, vec![2]);
        assert_eq!(net.sent_count(), 2);
        assert_eq!(net.delivered_count(), 1);
    }

    #[test]
    fn cut_link_is_directional() {
        let net = InProcNetwork::new();
        let (a, ma) = net.open_endpoint();
        let (b, _mb) = net.open_endpoint();
        net.set_link_cut(a, b, true);
        net.send(b, a, vec![7]).unwrap();
        assert_eq!(ma.recv().unwrap().payload, vec![7]);
    }

    #[test]
    fn recv_timeout_expires() {
        let net = InProcNetwork::new();
        let (_a, ma) = net.open_endpoint();
        let err = ma.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, RecvError::Timeout);
    }

    #[test]
    fn network_is_shareable_across_threads() {
        let net = InProcNetwork::new();
        let (a, _ma) = net.open_endpoint();
        let (b, mb) = net.open_endpoint();
        let net2 = net.clone();
        let handle = std::thread::spawn(move || {
            for i in 0..100u8 {
                net2.send(a, b, vec![i]).unwrap();
            }
        });
        handle.join().unwrap();
        let mut got = Vec::new();
        while let Ok(d) = mb.try_recv() {
            got.push(d.payload[0]);
        }
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }
}

#[cfg(test)]
mod latency_tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn injected_latency_delays_delivery() {
        let net = InProcNetwork::new();
        let (a, _ma) = net.open_endpoint();
        let (b, mb) = net.open_endpoint();
        net.set_delivery_latency(Duration::from_millis(50));
        let start = Instant::now();
        net.send(a, b, vec![1]).unwrap();
        let got = mb.recv_timeout(Duration::from_secs(2)).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(got.payload, vec![1]);
        assert!(
            elapsed >= Duration::from_millis(45),
            "delivered after {elapsed:?}, expected >= ~50ms"
        );
    }

    #[test]
    fn latency_preserves_per_link_order() {
        let net = InProcNetwork::new();
        let (a, _ma) = net.open_endpoint();
        let (b, mb) = net.open_endpoint();
        net.set_delivery_latency(Duration::from_millis(5));
        for i in 0..20u8 {
            net.send(a, b, vec![i]).unwrap();
        }
        for i in 0..20u8 {
            let got = mb.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(got.payload, vec![i], "order broken at {i}");
        }
    }

    #[test]
    fn resetting_latency_restores_immediate_delivery() {
        let net = InProcNetwork::new();
        let (a, _ma) = net.open_endpoint();
        let (b, mb) = net.open_endpoint();
        net.set_delivery_latency(Duration::from_millis(30));
        net.send(a, b, vec![1]).unwrap();
        net.set_delivery_latency(Duration::ZERO);
        net.send(a, b, vec![2]).unwrap();
        // The fast message arrives immediately; the slow one later.
        let first = mb.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(first.payload, vec![2]);
        let second = mb.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(second.payload, vec![1]);
    }
}
