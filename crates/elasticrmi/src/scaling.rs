//! The scaling decision engine (paper §2.5, §3).
//!
//! Deliberately pure: the engine consumes a [`PoolSample`] and emits a
//! [`ScalingDecision`], with no I/O of its own. Its one caller is the pool
//! runtime ([`crate::PoolRuntime`]), which the threaded pool, the harness's
//! virtual-clock scenarios and the fluid agility experiments all run —
//! which is what makes the reproduced agility figures evidence about the
//! middleware rather than about a reimplementation of it.

use erm_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::config::{PoolConfig, ScalingPolicy, Thresholds};

/// One burst interval's aggregated view of the pool, assembled by whoever
/// runs the engine (the runtime polls every member and averages, §3.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PoolSample {
    /// Current number of pool members.
    pub pool_size: u32,
    /// Average CPU utilization across members, percent (the paper's
    /// `getAvgCPUUsage()`).
    pub avg_cpu: f32,
    /// Average RAM utilization across members, percent.
    pub avg_ram: f32,
    /// Each member's `changePoolSize()` vote (fine-grained policy only).
    pub fine_votes: Vec<i32>,
    /// Desired absolute size from an application-level `Decider`.
    pub desired_size: Option<u32>,
    /// Worst per-member 99th-percentile admission-queue delay over the
    /// interval. Zero when admission control is off or the pool is idle.
    pub queue_delay_p99: SimDuration,
    /// `Overloaded` rejections across all members during the interval.
    pub rejected: u32,
    /// Warm standbys currently parked outside the rotation. Standbys are
    /// excluded from every load field above (an idle warm member must not
    /// dilute the averages); the count is carried so application-level
    /// `Decider`s can see how much of a `Grow` will be satisfied by an
    /// instant route-flip promotion rather than a provisioning round trip.
    pub standbys: u32,
}

/// What the pool should do this burst interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScalingDecision {
    /// Add this many objects (already clamped to `max_pool_size`).
    Grow(u32),
    /// Remove this many objects (already clamped to `min_pool_size`).
    Shrink(u32),
    /// Leave the pool as is.
    Hold,
}

impl ScalingDecision {
    /// The signed size delta this decision represents.
    pub fn delta(self) -> i64 {
        match self {
            ScalingDecision::Grow(n) => i64::from(n),
            ScalingDecision::Shrink(n) => -i64::from(n),
            ScalingDecision::Hold => 0,
        }
    }
}

/// Why a decision came out the way it did: the rule that fired plus the
/// observation and threshold it compared, in milli-units (percent × 1000,
/// milliseconds, or milli-votes) so the explanation stays `Eq`-comparable
/// and fits the `RuleFired` trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DecisionExplanation {
    /// Stable identifier of the rule that determined the decision, e.g.
    /// `"cpu-above-increase-threshold"` or `"queue-delay-above-bound"`.
    pub rule: &'static str,
    /// The observed value the rule compared, in milli-units.
    pub observed_milli: i64,
    /// The configured threshold it was compared against, in milli-units.
    pub threshold_milli: i64,
}

fn pct_milli(pct: f32) -> i64 {
    (f64::from(pct) * 1000.0).round() as i64
}

fn dur_milli(d: SimDuration) -> i64 {
    (d.as_micros() / 1000) as i64
}

/// The per-pool scaling engine: burst-interval pacing plus the four decision
/// mechanisms.
#[derive(Debug, Clone)]
pub struct ScalingEngine {
    config: PoolConfig,
    next_due: SimTime,
}

impl ScalingEngine {
    /// Creates an engine; the first decision is due one burst interval after
    /// `start`.
    pub fn new(config: PoolConfig, start: SimTime) -> Self {
        let next_due = start + config.burst_interval();
        ScalingEngine { config, next_due }
    }

    /// Whether a burst interval has elapsed and a decision is due.
    pub fn is_due(&self, now: SimTime) -> bool {
        now >= self.next_due
    }

    /// Makes a decision if one is due, otherwise returns `Hold` without
    /// consuming the interval, and reports *why*: the rule whose comparison
    /// determined a non-`Hold` decision. `None` when nothing was due,
    /// nothing fired, or clamping cancelled the step.
    pub fn poll_explained(
        &mut self,
        now: SimTime,
        sample: &PoolSample,
    ) -> (ScalingDecision, Option<DecisionExplanation>) {
        if !self.is_due(now) {
            return (ScalingDecision::Hold, None);
        }
        self.next_due = now + self.config.burst_interval();
        self.decide_explained(sample)
    }

    /// The pure decision function, ignoring pacing. Exposed for tests.
    pub fn decide(&self, sample: &PoolSample) -> ScalingDecision {
        self.decide_explained(sample).0
    }

    /// [`ScalingEngine::decide`] plus the explanation of which rule fired.
    pub fn decide_explained(
        &self,
        sample: &PoolSample,
    ) -> (ScalingDecision, Option<DecisionExplanation>) {
        let (raw_delta, mut why): (i64, Option<DecisionExplanation>) = match self.config.policy() {
            ScalingPolicy::Implicit => threshold_step(
                sample,
                &Thresholds {
                    cpu_incr: Some(ScalingPolicy::IMPLICIT_CPU_INCR),
                    cpu_decr: Some(ScalingPolicy::IMPLICIT_CPU_DECR),
                    ram_incr: None,
                    ram_decr: None,
                },
            ),
            ScalingPolicy::Coarse(t) => threshold_step(sample, &t),
            ScalingPolicy::FineGrained => {
                let votes = &sample.fine_votes;
                let delta = average_vote(votes);
                let why = (delta != 0).then(|| DecisionExplanation {
                    rule: "fine-vote-average",
                    observed_milli: if votes.is_empty() {
                        0
                    } else {
                        votes.iter().map(|&v| i64::from(v)).sum::<i64>() * 1000 / votes.len() as i64
                    },
                    threshold_milli: 0,
                });
                (delta, why)
            }
            ScalingPolicy::AppLevel => match sample.desired_size {
                Some(desired) => {
                    let delta = i64::from(desired) - i64::from(sample.pool_size);
                    let why = (delta != 0).then(|| DecisionExplanation {
                        rule: "app-level-desired",
                        observed_milli: i64::from(sample.pool_size) * 1000,
                        threshold_milli: i64::from(desired) * 1000,
                    });
                    (delta, why)
                }
                None => (0, None),
            },
        };
        // Queueing delay overrides everything except an explicit shrink-free
        // growth: a member whose admitted work waits longer than the
        // configured bound means the pool is under-provisioned *now*, even
        // if averaged CPU looks calm (the paper's `changePoolSize` spirit:
        // scale on the metric the application actually feels).
        let raw_delta = match self.config.queue_delay_grow_above() {
            Some(bound) if sample.queue_delay_p99 > bound => {
                if raw_delta < 1 {
                    why = Some(DecisionExplanation {
                        rule: "queue-delay-above-bound",
                        observed_milli: dur_milli(sample.queue_delay_p99),
                        threshold_milli: dur_milli(bound),
                    });
                }
                raw_delta.max(1)
            }
            _ => raw_delta,
        };
        let target = self
            .config
            .clamp_size(i64::from(sample.pool_size) + raw_delta);
        let decision = match i64::from(target) - i64::from(sample.pool_size) {
            0 => ScalingDecision::Hold,
            d if d > 0 => ScalingDecision::Grow(d as u32),
            d => ScalingDecision::Shrink((-d) as u32),
        };
        // A rule may have fired and still produced no change (clamped at a
        // bound): report no explanation, since there is no step to explain.
        if decision == ScalingDecision::Hold {
            why = None;
        }
        (decision, why)
    }
}

/// Coarse-grained step: +1 when any configured increase threshold is
/// exceeded (logical OR, §3.3), −1 when every configured decrease threshold
/// is satisfied; growth wins conflicts.
fn threshold_step(sample: &PoolSample, t: &Thresholds) -> (i64, Option<DecisionExplanation>) {
    let cpu_hot = t.cpu_incr.is_some_and(|th| sample.avg_cpu > th);
    let ram_hot = t.ram_incr.is_some_and(|th| sample.avg_ram > th);
    if cpu_hot {
        let why = DecisionExplanation {
            rule: "cpu-above-increase-threshold",
            observed_milli: pct_milli(sample.avg_cpu),
            threshold_milli: pct_milli(t.cpu_incr.unwrap_or(0.0)),
        };
        return (1, Some(why));
    }
    if ram_hot {
        let why = DecisionExplanation {
            rule: "ram-above-increase-threshold",
            observed_milli: pct_milli(sample.avg_ram),
            threshold_milli: pct_milli(t.ram_incr.unwrap_or(0.0)),
        };
        return (1, Some(why));
    }
    let decr_configured = t.cpu_decr.is_some() || t.ram_decr.is_some();
    let cpu_cold = t.cpu_decr.is_none_or(|th| sample.avg_cpu < th);
    let ram_cold = t.ram_decr.is_none_or(|th| sample.avg_ram < th);
    if decr_configured && cpu_cold && ram_cold {
        // Report the CPU comparison when configured (the commoner policy),
        // else the RAM one — both held, only one fits the explanation.
        let why = match t.cpu_decr {
            Some(th) => DecisionExplanation {
                rule: "cpu-ram-below-decrease-thresholds",
                observed_milli: pct_milli(sample.avg_cpu),
                threshold_milli: pct_milli(th),
            },
            None => DecisionExplanation {
                rule: "cpu-ram-below-decrease-thresholds",
                observed_milli: pct_milli(sample.avg_ram),
                threshold_milli: pct_milli(t.ram_decr.unwrap_or(0.0)),
            },
        };
        return (-1, Some(why));
    }
    (0, None)
}

/// Fine-grained aggregation: "the values returned by the various objects in
/// the pool are averaged to determine the number of objects that have to be
/// added/removed" (§3.3). Rounds half away from zero.
fn average_vote(votes: &[i32]) -> i64 {
    if votes.is_empty() {
        return 0;
    }
    let sum: i64 = votes.iter().map(|&v| i64::from(v)).sum();
    let avg = sum as f64 / votes.len() as f64;
    avg.abs().round() as i64 * avg.signum() as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use erm_sim::SimDuration;

    fn engine(policy: ScalingPolicy, min: u32, max: u32) -> ScalingEngine {
        let config = PoolConfig::builder("C1")
            .min_pool_size(min)
            .max_pool_size(max)
            .policy(policy)
            .build()
            .unwrap();
        ScalingEngine::new(config, SimTime::ZERO)
    }

    fn sample(pool_size: u32, cpu: f32, ram: f32) -> PoolSample {
        PoolSample {
            pool_size,
            avg_cpu: cpu,
            avg_ram: ram,
            ..PoolSample::default()
        }
    }

    #[test]
    fn implicit_grows_above_ninety() {
        let e = engine(ScalingPolicy::Implicit, 2, 10);
        assert_eq!(e.decide(&sample(5, 95.0, 0.0)), ScalingDecision::Grow(1));
        assert_eq!(e.decide(&sample(5, 90.0, 0.0)), ScalingDecision::Hold);
    }

    #[test]
    fn implicit_shrinks_below_sixty() {
        let e = engine(ScalingPolicy::Implicit, 2, 10);
        assert_eq!(e.decide(&sample(5, 40.0, 0.0)), ScalingDecision::Shrink(1));
        assert_eq!(e.decide(&sample(5, 75.0, 0.0)), ScalingDecision::Hold);
    }

    #[test]
    fn implicit_respects_bounds() {
        let e = engine(ScalingPolicy::Implicit, 2, 10);
        assert_eq!(e.decide(&sample(10, 99.0, 0.0)), ScalingDecision::Hold);
        assert_eq!(e.decide(&sample(2, 10.0, 0.0)), ScalingDecision::Hold);
    }

    #[test]
    fn coarse_or_semantics_for_growth() {
        // Fig. 4b: cpu 85 / ram 70 increase thresholds, OR-combined.
        let t = Thresholds {
            cpu_incr: Some(85.0),
            cpu_decr: Some(50.0),
            ram_incr: Some(70.0),
            ram_decr: Some(40.0),
        };
        let e = engine(ScalingPolicy::Coarse(t), 2, 50);
        // RAM alone above its threshold triggers growth.
        assert_eq!(e.decide(&sample(5, 30.0, 75.0)), ScalingDecision::Grow(1));
        // CPU alone too.
        assert_eq!(e.decide(&sample(5, 90.0, 10.0)), ScalingDecision::Grow(1));
    }

    #[test]
    fn coarse_shrink_requires_all_cold() {
        let t = Thresholds {
            cpu_incr: Some(85.0),
            cpu_decr: Some(50.0),
            ram_incr: Some(70.0),
            ram_decr: Some(40.0),
        };
        let e = engine(ScalingPolicy::Coarse(t), 2, 50);
        assert_eq!(e.decide(&sample(5, 30.0, 30.0)), ScalingDecision::Shrink(1));
        // RAM still warm: no shrink.
        assert_eq!(e.decide(&sample(5, 30.0, 60.0)), ScalingDecision::Hold);
    }

    #[test]
    fn fine_grained_averages_votes() {
        let e = engine(ScalingPolicy::FineGrained, 2, 50);
        let mut s = sample(5, 0.0, 0.0);
        // Votes 2, 2, 2 -> +2 (the CacheExplicit2 "return 2" case).
        s.fine_votes = vec![2, 2, 2];
        assert_eq!(e.decide(&s), ScalingDecision::Grow(2));
        // Votes 1, 0, -1 -> average 0 -> hold.
        s.fine_votes = vec![1, 0, -1];
        assert_eq!(e.decide(&s), ScalingDecision::Hold);
        // Votes -2, -4 -> -3.
        s.fine_votes = vec![-2, -4];
        assert_eq!(e.decide(&s), ScalingDecision::Shrink(3));
    }

    #[test]
    fn fine_grained_ignores_cpu() {
        // §3.3: "if changePoolSize is overridden, then scaling based on
        // CPU/Memory utilization is disabled."
        let e = engine(ScalingPolicy::FineGrained, 2, 50);
        let mut s = sample(5, 99.0, 99.0);
        s.fine_votes = vec![0, 0];
        assert_eq!(e.decide(&s), ScalingDecision::Hold);
    }

    #[test]
    fn fine_grained_with_no_votes_holds() {
        let e = engine(ScalingPolicy::FineGrained, 2, 50);
        assert_eq!(e.decide(&sample(5, 0.0, 0.0)), ScalingDecision::Hold);
    }

    #[test]
    fn app_level_tracks_desired_size() {
        let e = engine(ScalingPolicy::AppLevel, 2, 50);
        let mut s = sample(5, 0.0, 0.0);
        s.desired_size = Some(12);
        assert_eq!(e.decide(&s), ScalingDecision::Grow(7));
        s.desired_size = Some(3);
        assert_eq!(e.decide(&s), ScalingDecision::Shrink(2));
        s.desired_size = None;
        assert_eq!(e.decide(&s), ScalingDecision::Hold);
    }

    #[test]
    fn fine_votes_are_clamped_to_bounds() {
        let e = engine(ScalingPolicy::FineGrained, 2, 8);
        let mut s = sample(7, 0.0, 0.0);
        s.fine_votes = vec![10, 10];
        assert_eq!(e.decide(&s), ScalingDecision::Grow(1), "clamped at max 8");
        s.pool_size = 3;
        s.fine_votes = vec![-10];
        assert_eq!(e.decide(&s), ScalingDecision::Shrink(1), "clamped at min 2");
    }

    #[test]
    fn poll_respects_burst_interval() {
        let config = PoolConfig::builder("C1")
            .burst_interval(SimDuration::from_secs(60))
            .build()
            .unwrap();
        let mut e = ScalingEngine::new(config, SimTime::ZERO);
        let hot = sample(5, 99.0, 0.0);
        let mut poll = |secs| e.poll_explained(SimTime::from_secs(secs), &hot).0;
        // Not due before one interval has elapsed.
        assert_eq!(poll(30), ScalingDecision::Hold);
        assert_eq!(poll(60), ScalingDecision::Grow(1));
        // Interval consumed: immediately asking again holds.
        assert_eq!(poll(61), ScalingDecision::Hold);
        assert_eq!(poll(120), ScalingDecision::Grow(1));
    }

    #[test]
    fn queue_delay_forces_growth_when_configured() {
        let config = PoolConfig::builder("C1")
            .min_pool_size(2)
            .max_pool_size(10)
            .policy(ScalingPolicy::Implicit)
            .queue_delay_grow_above(SimDuration::from_millis(50))
            .build()
            .unwrap();
        let e = ScalingEngine::new(config, SimTime::ZERO);
        // CPU is calm, but queued work waits 100 ms at p99: grow anyway.
        let mut s = sample(5, 70.0, 0.0);
        s.queue_delay_p99 = SimDuration::from_millis(100);
        assert_eq!(e.decide(&s), ScalingDecision::Grow(1));
        // Below the bound the CPU-only policy rules (70% -> hold).
        s.queue_delay_p99 = SimDuration::from_millis(10);
        assert_eq!(e.decide(&s), ScalingDecision::Hold);
        // The override never vetoes a larger growth already decided.
        let mut hot = sample(5, 99.0, 0.0);
        hot.queue_delay_p99 = SimDuration::from_millis(100);
        assert_eq!(e.decide(&hot), ScalingDecision::Grow(1));
        // Still clamped by max_pool_size.
        let mut full = sample(10, 10.0, 0.0);
        full.queue_delay_p99 = SimDuration::from_millis(100);
        assert_eq!(e.decide(&full), ScalingDecision::Hold);
    }

    #[test]
    fn queue_delay_ignored_when_unconfigured() {
        let e = engine(ScalingPolicy::Implicit, 2, 10);
        let mut s = sample(5, 70.0, 0.0);
        s.queue_delay_p99 = SimDuration::from_secs(5);
        assert_eq!(e.decide(&s), ScalingDecision::Hold);
    }

    #[test]
    fn explained_reports_the_firing_rule() {
        let e = engine(ScalingPolicy::Implicit, 2, 10);
        let (d, why) = e.decide_explained(&sample(5, 95.0, 0.0));
        assert_eq!(d, ScalingDecision::Grow(1));
        let why = why.expect("growth has an explanation");
        assert_eq!(why.rule, "cpu-above-increase-threshold");
        assert_eq!(why.observed_milli, 95_000);
        assert_eq!(why.threshold_milli, 90_000);

        let (d, why) = e.decide_explained(&sample(5, 40.0, 0.0));
        assert_eq!(d, ScalingDecision::Shrink(1));
        assert_eq!(why.unwrap().rule, "cpu-ram-below-decrease-thresholds");

        // Hold carries no explanation.
        assert_eq!(e.decide_explained(&sample(5, 75.0, 0.0)).1, None);
        // Clamped at max: rule fired but nothing changed, so no explanation.
        assert_eq!(e.decide_explained(&sample(10, 99.0, 0.0)).1, None);
    }

    #[test]
    fn explained_queue_delay_override_names_its_rule() {
        let config = PoolConfig::builder("C1")
            .min_pool_size(2)
            .max_pool_size(10)
            .policy(ScalingPolicy::Implicit)
            .queue_delay_grow_above(SimDuration::from_millis(50))
            .build()
            .unwrap();
        let e = ScalingEngine::new(config, SimTime::ZERO);
        let mut s = sample(5, 70.0, 0.0);
        s.queue_delay_p99 = SimDuration::from_millis(100);
        let (d, why) = e.decide_explained(&s);
        assert_eq!(d, ScalingDecision::Grow(1));
        let why = why.unwrap();
        assert_eq!(why.rule, "queue-delay-above-bound");
        assert_eq!(why.observed_milli, 100);
        assert_eq!(why.threshold_milli, 50);
        // When CPU already decided to grow, the CPU rule keeps the credit.
        let mut hot = sample(5, 99.0, 0.0);
        hot.queue_delay_p99 = SimDuration::from_millis(100);
        let (_, why) = e.decide_explained(&hot);
        assert_eq!(why.unwrap().rule, "cpu-above-increase-threshold");
    }

    #[test]
    fn explained_fine_votes_and_app_level() {
        let e = engine(ScalingPolicy::FineGrained, 2, 50);
        let mut s = sample(5, 0.0, 0.0);
        s.fine_votes = vec![2, 2, 2];
        let (d, why) = e.decide_explained(&s);
        assert_eq!(d, ScalingDecision::Grow(2));
        let why = why.unwrap();
        assert_eq!(why.rule, "fine-vote-average");
        assert_eq!(why.observed_milli, 2_000);

        let e = engine(ScalingPolicy::AppLevel, 2, 50);
        let mut s = sample(5, 0.0, 0.0);
        s.desired_size = Some(12);
        let (d, why) = e.decide_explained(&s);
        assert_eq!(d, ScalingDecision::Grow(7));
        let why = why.unwrap();
        assert_eq!(why.rule, "app-level-desired");
        assert_eq!(why.threshold_milli, 12_000);
    }

    #[test]
    fn decision_delta_signs() {
        assert_eq!(ScalingDecision::Grow(3).delta(), 3);
        assert_eq!(ScalingDecision::Shrink(2).delta(), -2);
        assert_eq!(ScalingDecision::Hold.delta(), 0);
    }
}
