//! Offline stand-in for the `crossbeam` crate.
//!
//! Only [`channel`] is provided — the sole part of crossbeam this workspace
//! uses. Semantics the codebase relies on and this shim preserves:
//!
//! * [`channel::Sender`] is `Clone`; the channel disconnects when the last
//!   sender is dropped, after which receivers drain the queue and then see
//!   `Disconnected`;
//! * `recv_timeout` returns [`channel::RecvTimeoutError::Timeout`] on a
//!   quiet channel and `Disconnected` once closed *and* drained;
//! * `len`/`is_empty` observe the queued message count.
//!
//! **Wake rule.** A send wakes a receiver only when one is parked in `recv`
//! or `recv_timeout`, and at most once per park: a second send before the
//! woken receiver runs sends no second wake. A receiver that polls with
//! `try_recv` and never blocks therefore costs its senders no futex wake,
//! and `try_recv` on an empty channel (like `len`) reads an atomic mirror
//! of the queue length instead of taking the senders' lock.

/// Multi-producer multi-consumer FIFO channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<State<T>>,
        ready: Condvar,
        /// `items.len()`, stored (Release) under the lock by every push and pop.
        len: AtomicUsize,
        /// Set (Release) under the lock by the last sender's drop.
        disconnected: AtomicBool,
    }

    struct State<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers blocked on `ready`.
        parked: usize,
        /// Wakes sent and not yet retired. Every receiver leaving `ready`
        /// retires one, woken or not, so this never exceeds the wakes really
        /// outstanding: an error costs a spare wake, never a missed one.
        notified: usize,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.queue.lock().unwrap_or_else(PoisonError::into_inner)
        }

        fn pop(&self, state: &mut State<T>) -> Option<T> {
            let item = state.items.pop_front()?;
            self.len.store(state.items.len(), Ordering::Release);
            Some(item)
        }

        /// Blocks on `ready` as one parked receiver until a wake, the
        /// timeout, or a spurious return.
        fn park<'a>(
            &self,
            mut state: MutexGuard<'a, State<T>>,
            timeout: Option<Duration>,
        ) -> MutexGuard<'a, State<T>> {
            state.parked += 1;
            let mut state = match timeout {
                None => self
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(timeout) => {
                    self.ready
                        .wait_timeout(state, timeout)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
            state.parked -= 1;
            state.notified = state.notified.saturating_sub(1);
            state
        }
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(State {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
                parked: 0,
                notified: 0,
            }),
            ready: Condvar::new(),
            len: AtomicUsize::new(0),
            disconnected: AtomicBool::new(false),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Sender<T> {
        /// Enqueues `value`; fails only when every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.shared.lock();
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            state.items.push_back(value);
            self.shared.len.store(state.items.len(), Ordering::Release);
            let wake = state.parked > state.notified;
            state.notified += usize::from(wake);
            drop(state);
            if wake {
                self.shared.ready.notify_one();
            }
            Ok(())
        }

        /// Number of messages waiting in the channel.
        pub fn len(&self) -> usize {
            self.shared.len.load(Ordering::Acquire)
        }

        /// Whether the channel holds no messages.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.lock().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.shared.lock();
            state.senders -= 1;
            let disconnected = state.senders == 0;
            if disconnected {
                self.shared.disconnected.store(true, Ordering::Release);
            }
            drop(state);
            if disconnected {
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or the channel disconnects.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.recv_until(None).map_err(|_| RecvError)
        }

        /// Blocks up to `timeout` for a message. A timeout too large to add
        /// to the current instant (`Duration::MAX`, say) never expires.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.recv_until(Instant::now().checked_add(timeout))
        }

        /// Blocks until a message, disconnection, or `deadline`, if any.
        fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
            let mut state = self.shared.lock();
            loop {
                if let Some(item) = self.shared.pop(&mut state) {
                    return Ok(item);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                if remaining.is_some_and(|r| r.is_zero()) {
                    return Err(RecvTimeoutError::Timeout);
                }
                state = self.shared.park(state, remaining);
            }
        }

        /// Takes a message if one is already queued.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            // The flag before the length: once the flag reads set, every
            // push is visible in the length, so a queued message is never
            // reported as a disconnected, empty channel.
            let disconnected = self.shared.disconnected.load(Ordering::Acquire);
            if self.shared.len.load(Ordering::Acquire) > 0 {
                if let Some(item) = self.shared.pop(&mut self.shared.lock()) {
                    return Ok(item);
                }
            }
            Err(if disconnected {
                TryRecvError::Disconnected
            } else {
                TryRecvError::Empty
            })
        }

        /// Number of messages waiting in the channel.
        pub fn len(&self) -> usize {
            self.shared.len.load(Ordering::Acquire)
        }

        /// Whether the channel holds no messages.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.lock().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.lock().receivers -= 1;
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Error from [`Sender::send`]: the channel has no receivers left.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Error from [`Receiver::recv`]: the channel is disconnected and empty.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty, disconnected channel")
        }
    }

    /// Error from [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived before the timeout.
        Timeout,
        /// The channel is disconnected and drained.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
                RecvTimeoutError::Disconnected => f.write_str("channel is empty and disconnected"),
            }
        }
    }

    /// Error from [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is disconnected and drained.
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("channel is empty"),
                TryRecvError::Disconnected => f.write_str("channel is empty and disconnected"),
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_fifo() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.len(), 2);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn drop_of_all_senders_disconnects_after_drain() {
            let (tx, rx) = unbounded();
            let tx2 = tx.clone();
            tx.send(7).unwrap();
            drop(tx);
            drop(tx2);
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(7));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Disconnected)
            );
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn recv_timeout_times_out_while_senders_alive() {
            let (tx, rx) = unbounded::<u8>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            drop(tx);
        }

        #[test]
        fn send_fails_without_receivers() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert!(tx.send(1).is_err());
        }

        #[test]
        fn cross_thread_wakeup() {
            let (tx, rx) = unbounded();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                tx.send(42u32).unwrap();
            });
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(42));
        }

        #[test]
        fn unrepresentable_timeout_waits_without_a_deadline() {
            let (tx, rx) = unbounded();
            tx.send(1u32).unwrap();
            assert_eq!(rx.recv_timeout(Duration::MAX), Ok(1), "already queued");
            let sender = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                tx.send(2).unwrap();
                tx
            });
            assert_eq!(rx.recv_timeout(Duration::MAX), Ok(2), "sent later");
            drop(sender.join().unwrap());
        }

        #[test]
        fn parked_receiver_is_woken_by_the_first_send() {
            let (tx, rx) = unbounded();
            // Nobody parked: the send leaves no wake outstanding.
            tx.send(0u32).unwrap();
            assert_eq!(rx.shared.lock().notified, 0);
            assert_eq!(rx.try_recv(), Ok(0));

            let shared = Arc::clone(&rx.shared);
            let receiver = std::thread::spawn(move || {
                let start = Instant::now();
                (rx.recv_timeout(Duration::from_secs(30)), start.elapsed())
            });
            while shared.lock().parked == 0 {
                std::thread::yield_now();
            }
            tx.send(1).unwrap();
            let (got, waited) = receiver.join().unwrap();
            assert_eq!(got, Ok(1));
            assert!(waited < Duration::from_secs(15), "woken, not timed out");
            let state = shared.lock();
            assert_eq!((state.parked, state.notified), (0, 0));
        }

        #[test]
        fn producers_reach_an_alternating_receiver_once_and_in_order() {
            const PRODUCERS: u32 = 4;
            const MESSAGES: u32 = 5_000;
            let (tx, rx) = unbounded::<(u32, u32)>();
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        for m in 0..MESSAGES {
                            tx.send((p, m)).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            let mut next = [0u32; PRODUCERS as usize];
            let mut block = false;
            loop {
                block = !block;
                let got = if block {
                    match rx.recv_timeout(Duration::from_millis(1)) {
                        Ok(msg) => msg,
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                } else {
                    match rx.try_recv() {
                        Ok(msg) => msg,
                        Err(TryRecvError::Empty) => continue,
                        Err(TryRecvError::Disconnected) => break,
                    }
                };
                let (p, m) = got;
                assert_eq!(m, next[p as usize], "producer {p} out of order");
                next[p as usize] += 1;
            }
            for producer in producers {
                producer.join().unwrap();
            }
            assert_eq!(next, [MESSAGES; PRODUCERS as usize], "each message once");
            assert_eq!(rx.len(), 0);
            assert!(rx.is_empty());
        }
    }
}
