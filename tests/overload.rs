//! Acceptance test for the admission-control subsystem (`erm-admission`).
//!
//! Under a 2x point-A burst with the pool pinned at its configured size,
//! the bounded deadline-aware run queue plus AIMD client limiter must
//! strictly beat the legacy unbounded FIFO on goodput while keeping the
//! p99 queueing delay bounded — deterministically, for every seed.

use erm_harness::{run_overload, OverloadConfig};
use erm_sim::SimDuration;

const SEEDS: [u64; 3] = [7, 99, 2026];

#[test]
fn admission_control_beats_unbounded_fifo_on_goodput() {
    for seed in SEEDS {
        let baseline = run_overload(&OverloadConfig::baseline(seed));
        let admission = run_overload(&OverloadConfig::with_admission(seed));
        assert_eq!(baseline.offered, admission.offered, "same workload");
        assert!(
            admission.goodput > baseline.goodput,
            "seed {seed}: admission goodput {} must strictly beat baseline {}",
            admission.goodput,
            baseline.goodput
        );
        assert!(
            admission.rejected > 0,
            "seed {seed}: the burst must trigger Overloaded rejections"
        );
        assert!(
            admission.throttled > 0,
            "seed {seed}: the stub's AIMD limiter must throttle some arrivals"
        );
        assert_eq!(
            baseline.throttled, 0,
            "seed {seed}: the baseline runs no limiter"
        );
    }
}

#[test]
fn queue_delay_p99_stays_bounded_under_admission_control() {
    // The run queue is bounded at 8 entries and the worst jittered service
    // time is 12 ms, so no admitted request can wait longer than 96 ms.
    let bound = SimDuration::from_micros(8 * 12_000);
    for seed in SEEDS {
        let baseline = run_overload(&OverloadConfig::baseline(seed));
        let admission = run_overload(&OverloadConfig::with_admission(seed));
        assert!(
            admission.queue_delay_p99 <= bound,
            "seed {seed}: p99 {:?} exceeds the structural bound {:?}",
            admission.queue_delay_p99,
            bound
        );
        assert!(
            baseline.queue_delay_p99 > bound,
            "seed {seed}: the unbounded baseline should exhibit the queueing \
             delay the admission bound prevents (saw {:?})",
            baseline.queue_delay_p99
        );
    }
}

#[test]
fn overload_runs_are_deterministic_per_seed() {
    for seed in SEEDS {
        for config in [
            OverloadConfig::baseline(seed),
            OverloadConfig::with_admission(seed),
        ] {
            assert_eq!(
                run_overload(&config),
                run_overload(&config),
                "seed {seed}: identical configs must replay identically"
            );
        }
    }
}

#[test]
fn no_request_is_lost_or_double_counted() {
    for seed in SEEDS {
        for config in [
            OverloadConfig::baseline(seed),
            OverloadConfig::with_admission(seed),
        ] {
            let r = run_overload(&config);
            assert_eq!(
                r.offered,
                r.goodput + r.late + r.expired + r.rejected + r.throttled,
                "seed {seed}: conservation violated in {r:?}"
            );
            assert_eq!(
                r.admission.rejected, r.rejected,
                "seed {seed}: the member's reject tally must match the \
                 Overloaded replies the client saw"
            );
            assert!(r.violations.is_clean(), "seed {seed}: {:?}", r.violations);
        }
    }
}
