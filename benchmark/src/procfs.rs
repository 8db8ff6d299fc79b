//! Process accounting read from `/proc`: CPU time, context switches, peak
//! resident memory. Linux only, like the poll(2) transport under test.

use std::fs;

/// On-CPU nanoseconds of one task, the first field of its `schedstat`:
/// the scheduler's own accounting, exact to the nanosecond, where
/// `utime + stime` of `stat` is sampled at the 10 ms timer tick. 0 if the
/// task is gone.
fn task_cpu_nanos(schedstat_path: &std::path::Path) -> u64 {
    fs::read_to_string(schedstat_path)
        .ok()
        .and_then(|text| text.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// On-CPU nanoseconds of every live thread of the process except the
/// calling one: with the generator as caller, the middleware's CPU time.
/// Threads that exit between two readings take their time with them, so
/// difference readings only across a span in which none does (the
/// measured window: every thread is started in set-up and joined in
/// tear-down).
pub fn other_threads_cpu_nanos() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let all: u64 = tasks
        .flatten()
        .map(|task| task_cpu_nanos(&task.path().join("schedstat")))
        .sum();
    all.saturating_sub(task_cpu_nanos(std::path::Path::new(
        "/proc/thread-self/schedstat",
    )))
}

/// Voluntary plus involuntary context switches summed over every live
/// thread of the process.
pub fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut total = 0u64;
    for task in tasks.flatten() {
        let Ok(status) = fs::read_to_string(task.path().join("status")) else {
            continue; // the thread exited between readdir and open
        };
        for line in status.lines() {
            if line.starts_with("voluntary_ctxt_switches:")
                || line.starts_with("nonvoluntary_ctxt_switches:")
            {
                total += line
                    .rsplit(|c: char| c.is_ascii_whitespace())
                    .next()
                    .and_then(|n| n.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
    }
    total
}

/// Peak resident set size (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_are_readable_and_monotone() {
        let switches_before = context_switches();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let spinner = {
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut x = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        // Read while the spinner lives: its time leaves with it.
        let after = other_threads_cpu_nanos();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        spinner.join().unwrap();
        assert!(after >= 10_000_000, "a 50 ms spin shows as CPU: {after}");
        assert!(context_switches() >= switches_before);
        assert!(peak_rss_mb() > 0.0);
    }
}
