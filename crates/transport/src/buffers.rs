//! Recycled message buffers.
//!
//! A payload crosses threads on its way through the stack: a stub encodes
//! it and the event loop of its [`crate::TcpHost`] writes it out; the
//! receiving loop cuts it from the stream and a skeleton thread consumes
//! it. Allocated on one thread and freed on another, a large buffer makes
//! the allocator grow one arena and trim the other on nearly every message
//! — fresh pages faulted in each time, and how often depends on the heap
//! layout the process happened to start with, so the same binary ran
//! `blob_tcp_64k` at 14k or at 21k invocations a second from one run to the
//! next. Instead the thread that is done with a payload hands the buffer
//! back here ([`recycle`]) and the thread that needs the next one of that
//! size picks it up ([`take`]); in the steady state no large buffer is
//! allocated or freed at all.
//!
//! The pool is process-wide because the [`crate::Network`] contract passes
//! owned `Vec<u8>`s and has no return path. It is best-effort: a buffer
//! that is never handed back is simply freed, and an empty pool allocates.
//! Buffers under a page stay with the allocator, whose per-thread caches
//! already recycle them without a lock.
//!
//! The same page-sized threshold splits the TCP path in two. A frame whose
//! payload is at least `MIN_CAPACITY` (4 KiB) is *bulk*. The sending loop
//! writes a bulk payload from the caller's own buffer with one vectored
//! write, instead of copying it into its batch, and hands the buffer back
//! here once it is on the wire. The receiving loop reads a bulk payload of
//! up to `MAX_CAPACITY` (256 KiB) straight into a buffer taken from here,
//! and delivers that buffer. Smaller frames are still coalesced on the way
//! out and cut from the stream on the way in.

use parking_lot::Mutex;

/// Smaller buffers are not pooled (the allocator's thread cache serves them).
/// Also where a TCP frame's payload starts to be bulk (see the module doc).
pub(crate) const MIN_CAPACITY: usize = 4096;
/// Larger ones are not kept either: the allocator maps them individually.
/// Also the largest bulk payload the TCP reader reserves whole.
pub(crate) const MAX_CAPACITY: usize = 256 * 1024;
/// Buffers kept at most; the oldest makes room for a newer one.
const MAX_SPARE: usize = 64;

/// Spare buffers, oldest first.
#[derive(Debug)]
struct Pool {
    spare: Mutex<Vec<Vec<u8>>>,
}

impl Pool {
    const fn new() -> Pool {
        Pool {
            spare: Mutex::new(Vec::new()),
        }
    }

    fn take(&self, capacity: usize) -> Vec<u8> {
        if capacity >= MIN_CAPACITY {
            let mut spare = self.spare.lock();
            // Newest first (likeliest still in cache); never a buffer more
            // than twice the size asked for.
            let fits = |b: &Vec<u8>| b.capacity() >= capacity && b.capacity() / 2 <= capacity;
            if let Some(at) = spare.iter().rposition(fits) {
                return spare.remove(at);
            }
        }
        Vec::with_capacity(capacity)
    }

    fn recycle(&self, mut buf: Vec<u8>) {
        if !(MIN_CAPACITY..=MAX_CAPACITY).contains(&buf.capacity()) {
            return;
        }
        buf.clear();
        let evicted = {
            let mut spare = self.spare.lock();
            let evicted = (spare.len() == MAX_SPARE).then(|| spare.remove(0));
            spare.push(buf);
            evicted
        };
        drop(evicted); // freed outside the lock
    }
}

static SHARED: Pool = Pool::new();

/// An empty buffer with room for at least `capacity` bytes: a recycled one
/// when the pool holds a fitting one, a fresh allocation otherwise.
pub fn take(capacity: usize) -> Vec<u8> {
    SHARED.take(capacity)
}

/// Hands a buffer the caller is done with to the next [`take`] of its size.
/// The contents are discarded.
pub fn recycle(buf: Vec<u8>) {
    SHARED.recycle(buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_recycled_buffer_is_handed_out_again_empty() {
        let pool = Pool::new();
        let mut buf = pool.take(70_000);
        assert!(buf.is_empty() && buf.capacity() >= 70_000);
        buf.extend_from_slice(&[7u8; 70_000]);
        let allocation = buf.as_ptr();
        pool.recycle(buf);
        // A slightly smaller request fits; the stale contents are gone.
        let again = pool.take(65_597);
        assert_eq!(again.as_ptr(), allocation);
        assert!(again.is_empty());
        assert!(pool.spare.lock().is_empty());
    }

    #[test]
    fn small_huge_and_ill_fitting_buffers_are_left_to_the_allocator() {
        let pool = Pool::new();
        pool.recycle(Vec::with_capacity(MIN_CAPACITY - 1));
        pool.recycle(Vec::with_capacity(MAX_CAPACITY + 1));
        assert!(pool.spare.lock().is_empty());

        pool.recycle(Vec::with_capacity(64 * 1024));
        // Too small for this request, more than twice that one.
        assert!(pool.take(64 * 1024 + 1).capacity() < 2 * 64 * 1024);
        assert!(pool.take(16 * 1024).capacity() < 64 * 1024);
        assert!(pool.take(100).capacity() < MIN_CAPACITY);
        assert_eq!(pool.spare.lock().len(), 1);
    }

    #[test]
    fn a_full_pool_evicts_its_oldest_buffer() {
        let pool = Pool::new();
        for n in 0..=MAX_SPARE {
            pool.recycle(Vec::with_capacity(MIN_CAPACITY + n));
        }
        let spare = pool.spare.lock();
        assert_eq!(spare.len(), MAX_SPARE);
        assert_eq!(spare[0].capacity(), MIN_CAPACITY + 1);
        assert_eq!(spare[MAX_SPARE - 1].capacity(), MIN_CAPACITY + MAX_SPARE);
    }
}
