//! Clock abstraction shared by the simulated and threaded runtimes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::time::{SimDuration, SimTime};

/// A source of monotonic timestamps.
///
/// The elasticity control loop (burst intervals, provisioning latency,
/// agility sampling) only ever *reads* time through this trait, which is what
/// lets the identical code run under a [`VirtualClock`] in experiments and a
/// [`SystemClock`] in the threaded runtime.
///
/// Implementations must be monotonic: successive calls to [`Clock::now`]
/// never go backwards (per actor, under [`VirtualClock::rewind_to`]).
pub trait Clock: Send + Sync {
    /// The current time.
    fn now(&self) -> SimTime;
}

/// A shareable clock handle.
pub type SharedClock = Arc<dyn Clock>;

/// A manually advanced clock for simulations and tests.
///
/// Cloning shares the underlying counter, so every component of a simulated
/// deployment observes the same instant.
///
/// # Example
///
/// ```
/// use erm_sim::{Clock, SimDuration, VirtualClock};
///
/// let clock = VirtualClock::new();
/// let view = clock.clone();
/// clock.advance(SimDuration::from_secs(5));
/// assert_eq!(view.now().as_secs_f64(), 5.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    micros: Arc<AtomicU64>,
}

impl VirtualClock {
    /// Creates a clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a clock already advanced to `start`.
    pub fn starting_at(start: SimTime) -> Self {
        let clock = Self::new();
        clock.micros.store(start.as_micros(), Ordering::SeqCst);
        clock
    }

    /// Moves time forward by `delta`.
    pub fn advance(&self, delta: SimDuration) {
        self.micros.fetch_add(delta.as_micros(), Ordering::SeqCst);
    }

    /// Jumps directly to `target`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is earlier than the current time, since clocks are
    /// monotonic.
    pub fn advance_to(&self, target: SimTime) {
        let prev = self.micros.swap(target.as_micros(), Ordering::SeqCst);
        assert!(
            prev <= target.as_micros(),
            "virtual clock moved backwards: {prev} -> {}",
            target.as_micros()
        );
    }

    /// Sets the clock back to `earlier`, for a discrete-event driver that
    /// runs several actors from one instant, each on its own stretch of
    /// time (parallel pool members sharing one clock): after an actor's
    /// turn the driver rewinds to where the next actor starts. Everything
    /// that saw the later time must have been that actor's own work.
    pub fn rewind_to(&self, earlier: SimTime) {
        self.micros.store(earlier.as_micros(), Ordering::SeqCst);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.micros.load(Ordering::SeqCst))
    }
}

/// A wall-clock [`Clock`] anchored at its creation instant.
///
/// Used by the threaded runtime (examples, TCP transport) so the same pool
/// code measures real elapsed time.
#[derive(Debug, Clone)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// Creates a clock whose zero is "now".
    pub fn new() -> Self {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.origin.elapsed().as_micros() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_starts_at_zero_and_advances() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), SimTime::ZERO);
        clock.advance(SimDuration::from_minutes(10));
        assert_eq!(clock.now(), SimTime::from_minutes(10));
    }

    #[test]
    fn clones_share_time() {
        let a = VirtualClock::new();
        let b = a.clone();
        b.advance(SimDuration::from_secs(3));
        assert_eq!(a.now(), SimTime::from_secs(3));
    }

    #[test]
    fn advance_to_moves_forward() {
        let clock = VirtualClock::starting_at(SimTime::from_secs(10));
        clock.advance_to(SimTime::from_secs(20));
        assert_eq!(clock.now(), SimTime::from_secs(20));
    }

    #[test]
    #[should_panic(expected = "moved backwards")]
    fn advance_to_rejects_backwards_motion() {
        let clock = VirtualClock::starting_at(SimTime::from_secs(10));
        clock.advance_to(SimTime::from_secs(5));
    }

    #[test]
    fn system_clock_is_monotonic() {
        let clock = SystemClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn clock_trait_object_is_usable() {
        let shared: SharedClock = Arc::new(VirtualClock::new());
        assert_eq!(shared.now(), SimTime::ZERO);
    }
}
