//! The bounded per-skeleton run queue.

use std::collections::VecDeque;

use erm_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Ordering discipline of an [`AdmissionQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Discipline {
    /// First-in first-out: arrival order, the legacy mailbox behaviour.
    Fifo,
    /// Earliest-deadline-first: the entry whose deadline is nearest runs
    /// next, which maximizes the number of requests that still finish in
    /// time when the queue holds more work than one burst interval can
    /// absorb.
    Edf,
}

/// Configuration of one member's admission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Maximum queued (not yet executing) requests before new arrivals are
    /// rejected with `Overloaded`.
    pub capacity: u32,
    /// Run order of admitted requests.
    pub discipline: Discipline,
}

impl AdmissionConfig {
    /// A bounded FIFO queue.
    pub fn fifo(capacity: u32) -> Self {
        AdmissionConfig {
            capacity,
            discipline: Discipline::Fifo,
        }
    }

    /// A bounded deadline-aware (EDF) queue.
    pub fn edf(capacity: u32) -> Self {
        AdmissionConfig {
            capacity,
            discipline: Discipline::Edf,
        }
    }
}

/// Tallies of one member's admission decisions: what it admitted,
/// rejected, culled or shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Requests admitted into a run queue.
    pub admitted: u64,
    /// Requests refused with `Overloaded` (queue full).
    pub rejected: u64,
    /// Admitted requests culled from a queue after their deadline passed.
    pub culled: u64,
    /// Requests shed sideways (rebalance redirect or shutdown drain).
    pub shed: u64,
}

/// Why an offer was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The queue already holds `capacity` live entries.
    QueueFull {
        /// Depth at rejection time (== capacity).
        depth: u32,
    },
    /// The request's deadline had already passed on arrival.
    Expired {
        /// How far past its deadline the request was.
        late_by: SimDuration,
    },
}

/// A rejected offer: the item handed back with the reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejected<T> {
    /// The item that was not admitted.
    pub item: T,
    /// Why.
    pub reason: RejectReason,
}

/// An entry popped from the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admitted<T> {
    /// The queued item.
    pub item: T,
    /// Its absolute deadline.
    pub deadline: SimTime,
    /// How long it waited in the queue (pop time − enqueue time).
    pub queue_delay: SimDuration,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    seq: u64,
    deadline: SimTime,
    enqueued_at: SimTime,
    item: T,
}

/// A bounded run queue with pluggable discipline and expired-entry culling.
///
/// The queue is a pure data structure: every operation takes `now`
/// explicitly, so the same code is deterministic under a virtual clock and
/// correct under a system clock.
///
/// # Example
///
/// ```
/// use erm_admission::{AdmissionConfig, AdmissionQueue, RejectReason};
/// use erm_sim::{SimDuration, SimTime};
///
/// let mut q = AdmissionQueue::new(AdmissionConfig::edf(2));
/// let t0 = SimTime::ZERO;
/// let dl = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
/// q.offer(t0, dl(30), "late").unwrap();
/// q.offer(t0, dl(10), "urgent").unwrap();
/// // Full: the third offer is rejected with the current depth.
/// let rejected = q.offer(t0, dl(20), "extra").unwrap_err();
/// assert_eq!(rejected.reason, RejectReason::QueueFull { depth: 2 });
/// // EDF pops the nearest deadline first.
/// assert_eq!(q.pop(t0).unwrap().item, "urgent");
/// ```
#[derive(Debug, Clone)]
pub struct AdmissionQueue<T> {
    config: AdmissionConfig,
    /// In arrival (`seq`) order: entries join at the back and every removal
    /// keeps the order, so the FIFO head is the front.
    entries: VecDeque<Entry<T>>,
    /// No queued deadline is earlier than this ([`NEVER`] when empty).
    /// Before it nothing can have expired, so the expiry scans are skipped;
    /// a scan resets it to the exact minimum.
    earliest: SimTime,
    next_seq: u64,
    admitted: u64,
    rejected: u64,
    culled: u64,
}

/// The `earliest` of an empty queue.
const NEVER: SimTime = SimTime::from_micros(u64::MAX);

impl<T> AdmissionQueue<T> {
    /// Creates an empty queue.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionQueue {
            config,
            entries: VecDeque::new(),
            earliest: NEVER,
            next_seq: 0,
            admitted: 0,
            rejected: 0,
            culled: 0,
        }
    }

    /// An effectively unbounded FIFO queue: the legacy (pre-admission)
    /// skeleton behaviour, expressed through the same code path.
    pub fn unbounded_fifo() -> Self {
        AdmissionQueue::new(AdmissionConfig::fifo(u32::MAX))
    }

    /// The queue's configuration.
    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// Queued entries, expired ones included.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Queued entries whose deadline has not passed at `now` — the work
    /// that is still worth moving or counting as pending.
    pub fn live_len(&self, now: SimTime) -> u32 {
        if now < self.earliest {
            return self.entries.len() as u32;
        }
        self.entries.iter().filter(|e| now < e.deadline).count() as u32
    }

    /// Lifetime (admitted, rejected, culled) counters.
    pub fn totals(&self) -> (u64, u64, u64) {
        (self.admitted, self.rejected, self.culled)
    }

    /// Offers an item with an absolute `deadline`. Admits it unless it is
    /// already expired or the queue is full of live entries (expired
    /// entries are culled before counting, so dead work never causes a
    /// rejection — callers collect them via [`AdmissionQueue::cull`]).
    ///
    /// # Errors
    ///
    /// Returns the item back with a [`RejectReason`]. A `QueueFull`
    /// rejection reports the live depth at rejection time.
    pub fn offer(&mut self, now: SimTime, deadline: SimTime, item: T) -> Result<u32, Rejected<T>> {
        let item = self.reject_expired(now, deadline, item)?;
        let live = self.live_len(now);
        if live >= self.config.capacity {
            self.rejected += 1;
            return Err(Rejected {
                item,
                reason: RejectReason::QueueFull { depth: live },
            });
        }
        self.push(now, deadline, item);
        Ok(live + 1)
    }

    /// Admits an item regardless of capacity — for work the member already
    /// accepted before a drain began, which must finish or fail by deadline
    /// but never be refused for queue space.
    ///
    /// # Errors
    ///
    /// Still rejects items whose deadline has already passed.
    pub fn force(&mut self, now: SimTime, deadline: SimTime, item: T) -> Result<u32, Rejected<T>> {
        let item = self.reject_expired(now, deadline, item)?;
        self.push(now, deadline, item);
        Ok(self.live_len(now))
    }

    fn reject_expired(
        &mut self,
        now: SimTime,
        deadline: SimTime,
        item: T,
    ) -> Result<T, Rejected<T>> {
        if now < deadline {
            return Ok(item);
        }
        self.rejected += 1;
        Err(Rejected {
            item,
            reason: RejectReason::Expired {
                late_by: now.saturating_since(deadline),
            },
        })
    }

    fn push(&mut self, now: SimTime, deadline: SimTime, item: T) {
        self.earliest = self.earliest.min(deadline);
        self.entries.push_back(Entry {
            seq: self.next_seq,
            deadline,
            enqueued_at: now,
            item,
        });
        self.next_seq += 1;
        self.admitted += 1;
    }

    /// Removes and returns every queued entry whose deadline has passed at
    /// `now`, oldest first — the expired-head cull. The caller answers each
    /// with its deadline rejection instead of dispatching it.
    pub fn cull(&mut self, now: SimTime) -> Vec<Admitted<T>> {
        let mut dead = Vec::new();
        self.expire(now, |e| {
            dead.push(Admitted {
                item: e.item,
                deadline: e.deadline,
                queue_delay: now.saturating_since(e.enqueued_at),
            });
        });
        dead
    }

    /// Pops the next runnable entry per the discipline, skipping (and
    /// retaining — see [`AdmissionQueue::cull`]) nothing: expired entries
    /// are culled first so the popped entry is always live at `now`.
    pub fn pop(&mut self, now: SimTime) -> Option<Admitted<T>> {
        // Never dispatch dead work: drop expired entries from the books
        // (the caller is expected to have culled already if it wants to
        // answer them; anything left here is silently counted).
        self.expire(now, drop);
        let e = match self.config.discipline {
            Discipline::Fifo => self.entries.pop_front()?,
            Discipline::Edf => {
                let idx = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| (e.deadline, e.seq))
                    .map(|(i, _)| i)?;
                self.entries.remove(idx).expect("index from the scan")
            }
        };
        if self.entries.is_empty() {
            self.earliest = NEVER;
        }
        Some(Admitted {
            item: e.item,
            deadline: e.deadline,
            queue_delay: now.saturating_since(e.enqueued_at),
        })
    }

    /// Removes every entry expired at `now`, oldest first, into `dead`, and
    /// makes `earliest` exact again. A no-op while `now` is before it.
    fn expire(&mut self, now: SimTime, mut dead: impl FnMut(Entry<T>)) {
        if now < self.earliest {
            return;
        }
        let mut earliest = NEVER;
        // One rotation: live entries go back in behind the rest, in order.
        for _ in 0..self.entries.len() {
            let e = self.entries.pop_front().expect("one pop per entry");
            if now >= e.deadline {
                self.culled += 1;
                dead(e);
            } else {
                earliest = earliest.min(e.deadline);
                self.entries.push_back(e);
            }
        }
        self.earliest = earliest;
    }
}

/// A retry hint for an `Overloaded` rejection: roughly the time to drain
/// half the queue at the member's measured mean service time, clamped to
/// [1 ms, 5 s] so a cold or idle estimate still yields a sane backoff.
pub fn suggest_retry_after(queue_depth: u32, mean_service: SimDuration) -> SimDuration {
    const FLOOR: SimDuration = SimDuration::from_millis(1);
    const CEIL: SimDuration = SimDuration::from_secs(5);
    let per = mean_service.as_micros().max(100); // assume ≥100 µs service
    let micros = per.saturating_mul(u64::from(queue_depth / 2 + 1));
    SimDuration::from_micros(micros).clamp(FLOOR, CEIL)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(n)
    }

    #[test]
    fn fifo_pops_in_arrival_order() {
        let mut q = AdmissionQueue::new(AdmissionConfig::fifo(8));
        for (i, dl) in [50u64, 10, 30].iter().enumerate() {
            q.offer(ms(0), ms(*dl), i).unwrap();
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop(ms(0)).map(|a| a.item)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn edf_pops_nearest_deadline_first() {
        let mut q = AdmissionQueue::new(AdmissionConfig::edf(8));
        for (i, dl) in [50u64, 10, 30].iter().enumerate() {
            q.offer(ms(0), ms(*dl), i).unwrap();
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop(ms(0)).map(|a| a.item)).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn edf_breaks_deadline_ties_by_arrival() {
        let mut q = AdmissionQueue::new(AdmissionConfig::edf(8));
        q.offer(ms(0), ms(10), "first").unwrap();
        q.offer(ms(0), ms(10), "second").unwrap();
        assert_eq!(q.pop(ms(0)).unwrap().item, "first");
        assert_eq!(q.pop(ms(0)).unwrap().item, "second");
    }

    #[test]
    fn full_queue_rejects_with_depth() {
        let mut q = AdmissionQueue::new(AdmissionConfig::fifo(2));
        q.offer(ms(0), ms(100), 0).unwrap();
        q.offer(ms(0), ms(100), 1).unwrap();
        let r = q.offer(ms(0), ms(100), 2).unwrap_err();
        assert_eq!(r.item, 2);
        assert_eq!(r.reason, RejectReason::QueueFull { depth: 2 });
        assert_eq!(q.totals(), (2, 1, 0));
    }

    #[test]
    fn expired_offer_is_rejected_with_lateness() {
        let mut q = AdmissionQueue::new(AdmissionConfig::fifo(2));
        let r = q.offer(ms(10), ms(8), "late").unwrap_err();
        assert_eq!(
            r.reason,
            RejectReason::Expired {
                late_by: SimDuration::from_millis(2)
            }
        );
    }

    #[test]
    fn expired_entries_do_not_hold_capacity() {
        let mut q = AdmissionQueue::new(AdmissionConfig::edf(2));
        q.offer(ms(0), ms(5), "dies").unwrap();
        q.offer(ms(0), ms(100), "lives").unwrap();
        // At t=10 the first entry is dead: a new offer is admitted because
        // only one live entry occupies the queue.
        assert_eq!(q.live_len(ms(10)), 1);
        q.offer(ms(10), ms(100), "fresh").unwrap();
        let culled = q.cull(ms(10));
        assert_eq!(culled.len(), 1);
        assert_eq!(culled[0].item, "dies");
        assert_eq!(culled[0].queue_delay, SimDuration::from_millis(10));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_never_returns_expired_work() {
        let mut q = AdmissionQueue::new(AdmissionConfig::fifo(8));
        q.offer(ms(0), ms(5), "dead").unwrap();
        q.offer(ms(0), ms(50), "live").unwrap();
        let got = q.pop(ms(20)).unwrap();
        assert_eq!(got.item, "live");
        assert_eq!(got.queue_delay, SimDuration::from_millis(20));
        assert!(q.pop(ms(20)).is_none());
        let (_, _, culled) = q.totals();
        assert_eq!(culled, 1);
    }

    #[test]
    fn queue_delay_is_measured_per_entry() {
        let mut q = AdmissionQueue::new(AdmissionConfig::fifo(8));
        q.offer(ms(3), ms(100), ()).unwrap();
        assert_eq!(
            q.pop(ms(7)).unwrap().queue_delay,
            SimDuration::from_millis(4)
        );
    }

    #[test]
    fn unbounded_fifo_never_rejects_live_work() {
        let mut q = AdmissionQueue::unbounded_fifo();
        for i in 0..10_000u32 {
            q.offer(ms(0), ms(1_000), i).unwrap();
        }
        assert_eq!(q.len(), 10_000);
    }

    #[test]
    fn force_bypasses_capacity_but_not_expiry() {
        let mut q = AdmissionQueue::new(AdmissionConfig::fifo(1));
        q.offer(ms(0), ms(100), "a").unwrap();
        assert!(q.offer(ms(0), ms(100), "b").is_err());
        q.force(ms(0), ms(100), "b").unwrap();
        assert_eq!(q.len(), 2);
        let r = q.force(ms(10), ms(5), "late").unwrap_err();
        assert!(matches!(r.reason, RejectReason::Expired { .. }));
    }

    /// The `Vec`-scan queue the indexed one replaced: every operation scans
    /// or shifts the whole queue. Kept as the model the fast paths must
    /// match result for result.
    struct Reference<T> {
        config: AdmissionConfig,
        entries: Vec<Entry<T>>,
        next_seq: u64,
        totals: (u64, u64, u64),
    }

    impl<T> Reference<T> {
        fn new(config: AdmissionConfig) -> Self {
            Reference {
                config,
                entries: Vec::new(),
                next_seq: 0,
                totals: (0, 0, 0),
            }
        }

        fn live_len(&self, now: SimTime) -> u32 {
            self.entries.iter().filter(|e| now < e.deadline).count() as u32
        }

        fn admit(
            &mut self,
            now: SimTime,
            deadline: SimTime,
            item: T,
            capacity: u32,
        ) -> Result<u32, Rejected<T>> {
            let reason = if now >= deadline {
                RejectReason::Expired {
                    late_by: now.saturating_since(deadline),
                }
            } else if self.live_len(now) >= capacity {
                RejectReason::QueueFull {
                    depth: self.live_len(now),
                }
            } else {
                self.entries.push(Entry {
                    seq: self.next_seq,
                    deadline,
                    enqueued_at: now,
                    item,
                });
                self.next_seq += 1;
                self.totals.0 += 1;
                return Ok(self.live_len(now));
            };
            self.totals.1 += 1;
            Err(Rejected { item, reason })
        }

        fn cull(&mut self, now: SimTime) -> Vec<Admitted<T>> {
            let mut dead = Vec::new();
            let mut i = 0;
            while i < self.entries.len() {
                if now >= self.entries[i].deadline {
                    let e = self.entries.remove(i);
                    self.totals.2 += 1;
                    dead.push(Admitted {
                        item: e.item,
                        deadline: e.deadline,
                        queue_delay: now.saturating_since(e.enqueued_at),
                    });
                } else {
                    i += 1;
                }
            }
            dead
        }

        fn pop(&mut self, now: SimTime) -> Option<Admitted<T>> {
            self.cull(now);
            let idx = match self.config.discipline {
                Discipline::Fifo => self.entries.iter().enumerate().min_by_key(|(_, e)| e.seq),
                Discipline::Edf => self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| (e.deadline, e.seq)),
            }
            .map(|(i, _)| i)?;
            let e = self.entries.remove(idx);
            Some(Admitted {
                item: e.item,
                deadline: e.deadline,
                queue_delay: now.saturating_since(e.enqueued_at),
            })
        }
    }

    #[test]
    fn matches_the_vec_scan_reference_on_random_sequences() {
        // splitmix64: a seeded stream without a dependency.
        let next = |state: &mut u64| {
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (*state ^ (*state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut seen = (0u64, 0u64, 0u64);
        for discipline in [Discipline::Fifo, Discipline::Edf] {
            for seed in 0..50u64 {
                let config = AdmissionConfig {
                    capacity: 1 + (seed % 8) as u32,
                    discipline,
                };
                let mut queue = AdmissionQueue::new(config);
                let mut model = Reference::new(config);
                let mut rng = seed;
                let mut now = 1_000u64;
                for step in 0..400u32 {
                    let roll = next(&mut rng);
                    // Mostly small steps; sometimes a jump past every
                    // deadline, sometimes one backwards.
                    now = match roll % 16 {
                        0 => now + 500,
                        1 => now - 40,
                        2..=7 => now + roll % 4,
                        _ => now,
                    };
                    let at = SimTime::from_micros(now);
                    // Deadlines from 4 µs before now to 19 µs after it, so
                    // many are equal and many pass within a few steps.
                    let deadline = SimTime::from_micros(now + (roll >> 8) % 24 - 4);
                    let case = format!("{discipline:?}, seed {seed}, step {step}");
                    match (roll >> 16) % 6 {
                        0 | 1 => assert_eq!(
                            queue.offer(at, deadline, step),
                            model.admit(at, deadline, step, config.capacity),
                            "offer: {case}"
                        ),
                        2 => assert_eq!(
                            queue.force(at, deadline, step),
                            model.admit(at, deadline, step, u32::MAX),
                            "force: {case}"
                        ),
                        3 => assert_eq!(queue.cull(at), model.cull(at), "cull: {case}"),
                        4 => assert_eq!(queue.pop(at), model.pop(at), "pop: {case}"),
                        _ => assert_eq!(queue.live_len(at), model.live_len(at), "{case}"),
                    }
                    assert_eq!(queue.totals(), model.totals, "totals: {case}");
                    assert_eq!(queue.len(), model.entries.len(), "len: {case}");
                }
                let (admitted, rejected, culled) = queue.totals();
                seen = (seen.0 + admitted, seen.1 + rejected, seen.2 + culled);
            }
        }
        assert!(seen.0 > 0 && seen.1 > 0 && seen.2 > 0, "{seen:?}");
    }

    #[test]
    fn retry_hint_scales_with_depth_and_clamps() {
        let short = suggest_retry_after(0, SimDuration::from_micros(10));
        assert_eq!(short, SimDuration::from_millis(1), "clamped to floor");
        let mid = suggest_retry_after(10, SimDuration::from_millis(2));
        assert_eq!(mid, SimDuration::from_millis(12)); // (10/2 + 1) * 2ms
        let long = suggest_retry_after(10_000, SimDuration::from_secs(1));
        assert_eq!(long, SimDuration::from_secs(5), "clamped to ceiling");
    }
}
