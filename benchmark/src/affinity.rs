//! CPU placement: the generator thread gets one CPU to itself and every
//! thread of the system under test gets the others.
//!
//! The generator spins, so it occupies a CPU whatever happens. Left to the
//! kernel's balancer, middleware threads sometimes share that CPU with the
//! spinner and sometimes do not, and on this two-CPU box the same commit
//! then reads 19 µs or 280 µs median paced latency depending on which
//! placement a run happened to get. Pinning makes the placement the same
//! every run. A new thread inherits its creator's affinity, so the rig is
//! built while the main thread is confined to the middleware CPUs (every
//! thread the program spawns stays there), and the main thread moves to
//! the generator CPU before it starts generating.

use std::sync::OnceLock;

/// `cpu_set_t` is 1024 bits.
const WORDS: usize = 16;

extern "C" {
    // From the C library std already links; `pid` 0 is the calling thread.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on; empty if the kernel refuses.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed, which is all `sched_getaffinity` requires of its arguments.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..WORDS * 64)
        .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Confines the calling thread to `cpus`. Returns whether it took.
fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; WORDS];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the byte length passed;
    // `sched_setaffinity` only reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Which CPU the generator owns and which the middleware shares.
#[derive(Debug, Clone)]
pub struct Placement {
    generator: usize,
    middleware: Vec<usize>,
}

/// Detected once, before the main thread first confines itself (after
/// that its own mask no longer shows what the process may use).
static PLACEMENT: OnceLock<Option<Placement>> = OnceLock::new();

impl Placement {
    /// Splits the CPUs this process may use: the first for the generator,
    /// the rest for the system under test. `None` with fewer than two
    /// CPUs (or no affinity syscall): everything then floats.
    fn detect() -> Option<Placement> {
        let cpus = allowed_cpus();
        let (&generator, middleware) = cpus.split_first()?;
        if middleware.is_empty() {
            return None;
        }
        Some(Placement {
            generator,
            middleware: middleware.to_vec(),
        })
    }

    /// Runs `spawn` — something that starts the system under test's
    /// threads — with the calling thread confined to the middleware CPUs,
    /// then moves the calling thread to the generator CPU.
    pub fn spawn_middleware<T>(spawn: impl FnOnce() -> T) -> T {
        let Some(p) = PLACEMENT.get_or_init(Placement::detect) else {
            return spawn();
        };
        let confined = pin_current_thread(&p.middleware);
        let out = spawn();
        if confined {
            pin_current_thread(&[p.generator]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawned_threads_inherit_the_middleware_cpus() {
        let before = allowed_cpus();
        let Some(placement) = PLACEMENT.get_or_init(Placement::detect).clone() else {
            return; // one CPU: nothing to place
        };
        let child = Placement::spawn_middleware(|| std::thread::spawn(allowed_cpus));
        assert_eq!(child.join().unwrap(), placement.middleware);
        assert_eq!(allowed_cpus(), vec![placement.generator]);
        assert!(pin_current_thread(&before), "restore for other tests");
    }
}
