//! Pool configuration: the Rust rendering of `ElasticObject`'s setters
//! (paper Fig. 3).
//!
//! The paper configures elasticity imperatively in the elastic class's
//! constructor (`setMinPoolSize(5); setCPUIncrThreshold(85); ...`); here the
//! same knobs form a validated builder. One rule from §3.3 is enforced by
//! construction: an elastic class uses exactly *one* decision mechanism —
//! choosing [`ScalingPolicy::FineGrained`] disables the CPU/RAM thresholds,
//! because the thresholds only exist inside the coarse-grained variants.

use erm_admission::AdmissionConfig;
use erm_semantics::{ReplyCacheConfig, SemanticsTable};
use erm_sim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::shard::ShardingTable;

/// CPU/RAM threshold set for coarse-grained explicit elasticity (the
/// `CacheExplicit1` style of Fig. 4b). Values are utilization percentages.
///
/// Semantics (paper §3.3): thresholds that are set combine with logical OR
/// for growth; the pool grows by one object when average CPU exceeds
/// `cpu_incr` *or* average RAM exceeds `ram_incr`. It shrinks by one when
/// every configured decrease threshold is satisfied (shrinking on OR would
/// let a hot-RAM pool shed capacity because CPU is idle).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Thresholds {
    /// Grow when average CPU utilization exceeds this (percent).
    pub cpu_incr: Option<f32>,
    /// Shrink-eligible when average CPU utilization is below this (percent).
    pub cpu_decr: Option<f32>,
    /// Grow when average RAM utilization exceeds this (percent).
    pub ram_incr: Option<f32>,
    /// Shrink-eligible when average RAM utilization is below this (percent).
    pub ram_decr: Option<f32>,
}

impl Thresholds {
    fn validate(&self) -> Result<(), ConfigError> {
        for (name, v) in [
            ("cpu_incr", self.cpu_incr),
            ("cpu_decr", self.cpu_decr),
            ("ram_incr", self.ram_incr),
            ("ram_decr", self.ram_decr),
        ] {
            if let Some(v) = v {
                if !(0.0..=100.0).contains(&v) {
                    return Err(ConfigError::ThresholdOutOfRange { name, value: v });
                }
            }
        }
        if let (Some(incr), Some(decr)) = (self.cpu_incr, self.cpu_decr) {
            if decr >= incr {
                return Err(ConfigError::InvertedThresholds { resource: "cpu" });
            }
        }
        if let (Some(incr), Some(decr)) = (self.ram_incr, self.ram_decr) {
            if decr >= incr {
                return Err(ConfigError::InvertedThresholds { resource: "ram" });
            }
        }
        if self.cpu_incr.is_none()
            && self.cpu_decr.is_none()
            && self.ram_incr.is_none()
            && self.ram_decr.is_none()
        {
            return Err(ConfigError::EmptyThresholds);
        }
        Ok(())
    }
}

/// Which of the paper's four decision mechanisms drives elastic scaling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ScalingPolicy {
    /// Implicit elasticity (§3.2): default CPU thresholds of 90%/60%,
    /// stepping by one object per burst interval.
    Implicit,
    /// Explicit coarse-grained elasticity (§3.3): programmer-chosen CPU/RAM
    /// thresholds.
    Coarse(Thresholds),
    /// Explicit fine-grained elasticity (§3.3): members' `changePoolSize()`
    /// votes are averaged. CPU/RAM threshold scaling is disabled.
    FineGrained,
    /// Application-level decisions (§3.3, `Decider`): an external component
    /// dictates the desired pool size.
    AppLevel,
}

impl ScalingPolicy {
    /// The implicit-elasticity defaults the paper specifies: grow above 90%
    /// average CPU, shrink below 60%.
    pub const IMPLICIT_CPU_INCR: f32 = 90.0;
    /// See [`ScalingPolicy::IMPLICIT_CPU_INCR`].
    pub const IMPLICIT_CPU_DECR: f32 = 60.0;
}

/// Errors from pool-configuration validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `min_pool_size` below the paper's minimum of 2 (§4.2).
    MinTooSmall(u32),
    /// `min_pool_size` exceeds `max_pool_size`.
    MinAboveMax {
        /// Configured minimum.
        min: u32,
        /// Configured maximum.
        max: u32,
    },
    /// A burst interval of zero would make the control loop spin.
    ZeroBurstInterval,
    /// A threshold percentage outside 0–100.
    ThresholdOutOfRange {
        /// Which threshold.
        name: &'static str,
        /// Its value.
        value: f32,
    },
    /// A decrease threshold at or above its increase counterpart.
    InvertedThresholds {
        /// `"cpu"` or `"ram"`.
        resource: &'static str,
    },
    /// Coarse policy with no thresholds set at all.
    EmptyThresholds,
    /// The class name is empty (it keys shared state and locks).
    EmptyClassName,
    /// An overload capacity of zero would reject every invocation.
    ZeroOverloadCapacity,
    /// The warm-standby tier cannot fit: `min_pool_size + warm_standby`
    /// exceeds `max_pool_size`, so the pool could never hold its configured
    /// standbys even with zero elastic headroom.
    StandbysExceedMax {
        /// Configured minimum active pool size.
        min: u32,
        /// Configured warm-standby count.
        warm: u32,
        /// Configured maximum (actives + standbys).
        max: u32,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::MinTooSmall(n) => {
                write!(f, "min pool size must be at least 2, got {n}")
            }
            ConfigError::MinAboveMax { min, max } => {
                write!(f, "min pool size {min} exceeds max {max}")
            }
            ConfigError::ZeroBurstInterval => write!(f, "burst interval must be positive"),
            ConfigError::ThresholdOutOfRange { name, value } => {
                write!(f, "threshold {name} = {value} outside 0..=100")
            }
            ConfigError::InvertedThresholds { resource } => {
                write!(
                    f,
                    "{resource} decrease threshold must be below its increase threshold"
                )
            }
            ConfigError::EmptyThresholds => {
                write!(f, "coarse-grained policy requires at least one threshold")
            }
            ConfigError::EmptyClassName => write!(f, "class name must not be empty"),
            ConfigError::ZeroOverloadCapacity => {
                write!(f, "overload capacity must be positive")
            }
            ConfigError::StandbysExceedMax { min, warm, max } => {
                write!(
                    f,
                    "min pool size {min} plus {warm} warm standbys exceeds max {max}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validated configuration of one elastic object pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolConfig {
    class_name: String,
    min_pool_size: u32,
    max_pool_size: u32,
    burst_interval: SimDuration,
    policy: ScalingPolicy,
    overload_capacity: Option<u32>,
    queue_delay_grow_above: Option<SimDuration>,
    semantics: SemanticsTable,
    reply_cache: Option<ReplyCacheConfig>,
    warm_standby: u32,
    sharding: ShardingTable,
}

impl PoolConfig {
    /// Starts a builder for the elastic class `class_name`.
    pub fn builder(class_name: impl Into<String>) -> PoolConfigBuilder {
        PoolConfigBuilder {
            class_name: class_name.into(),
            min_pool_size: 2,
            max_pool_size: 8,
            burst_interval: SimDuration::from_secs(60),
            policy: ScalingPolicy::Implicit,
            overload_capacity: None,
            queue_delay_grow_above: None,
            semantics: SemanticsTable::default(),
            reply_cache: None,
            warm_standby: 0,
            sharding: ShardingTable::default(),
        }
    }

    /// The elastic class name (keys shared fields and the class lock).
    pub fn class_name(&self) -> &str {
        &self.class_name
    }

    /// Minimum pool size (≥ 2).
    pub fn min_pool_size(&self) -> u32 {
        self.min_pool_size
    }

    /// Maximum pool size.
    pub fn max_pool_size(&self) -> u32 {
        self.max_pool_size
    }

    /// How often scaling decisions are made (default 60 s, the paper's
    /// default burst interval).
    pub fn burst_interval(&self) -> SimDuration {
        self.burst_interval
    }

    /// The scaling policy.
    pub fn policy(&self) -> ScalingPolicy {
        self.policy
    }

    /// Per-member overload capacity, if configured. When set, skeletons run
    /// EDF admission bounded at it and the sentinel balancer uses it as its
    /// per-member target; when `None` admission is off (the legacy
    /// unbounded FIFO) and the balancer falls back to its mean-pending
    /// heuristic.
    pub fn overload_capacity(&self) -> Option<u32> {
        self.overload_capacity
    }

    /// The skeletons' admission-queue configuration: EDF bounded at
    /// [`PoolConfig::overload_capacity`], or `None` when admission control
    /// is off.
    pub fn admission_config(&self) -> Option<AdmissionConfig> {
        self.overload_capacity.map(AdmissionConfig::edf)
    }

    /// Queue-delay p99 above which the scaling engine votes to grow,
    /// regardless of CPU/RAM — the queueing-delay fine metric. `None`
    /// disables the signal.
    pub fn queue_delay_grow_above(&self) -> Option<SimDuration> {
        self.queue_delay_grow_above
    }

    /// Per-method invocation semantics declared for this pool's methods
    /// (wire v4). Defaults to all-`AtLeastOnce`, the pre-v4 behavior.
    pub fn semantics(&self) -> &SemanticsTable {
        &self.semantics
    }

    /// Skeleton reply-cache tuning (grace window, entry/byte caps), or
    /// `None` for [`ReplyCacheConfig::default`].
    pub fn reply_cache_config(&self) -> Option<ReplyCacheConfig> {
        self.reply_cache
    }

    /// Number of warm standbys the pool keeps provisioned, connected and
    /// answering the load poll, but outside the LB rotation and the load
    /// samples. Zero (the default) disables the warm tier. Scale-up with a
    /// warm tier is a route-flip: a standby is promoted into rotation and a
    /// replacement is requested in the background.
    pub fn warm_standby(&self) -> u32 {
        self.warm_standby
    }

    /// Per-method routing-key extractors (wire v5). An empty table (the
    /// default) leaves the pool unsharded; a non-empty table turns on
    /// consistent-hash routing and skeleton-side ownership checks for the
    /// declared methods.
    pub fn sharding(&self) -> &ShardingTable {
        &self.sharding
    }

    /// Clamps a desired size into `[min, max]`.
    pub fn clamp_size(&self, desired: i64) -> u32 {
        desired
            .clamp(i64::from(self.min_pool_size), i64::from(self.max_pool_size))
            .try_into()
            .expect("clamped into u32 range")
    }
}

/// Builder for [`PoolConfig`]; mirrors `ElasticObject`'s setters.
///
/// # Example
///
/// ```
/// use elasticrmi::{PoolConfig, ScalingPolicy, Thresholds};
/// use erm_sim::SimDuration;
///
/// // The paper's CacheExplicit1 (Fig. 4b): pool of 5..50, 5-minute burst
/// // interval, CPU 85/50 and RAM 70/40 thresholds.
/// let config = PoolConfig::builder("CacheExplicit1")
///     .min_pool_size(5)
///     .max_pool_size(50)
///     .burst_interval(SimDuration::from_minutes(5))
///     .policy(ScalingPolicy::Coarse(Thresholds {
///         cpu_incr: Some(85.0),
///         cpu_decr: Some(50.0),
///         ram_incr: Some(70.0),
///         ram_decr: Some(40.0),
///     }))
///     .build()?;
/// assert_eq!(config.clamp_size(100), 50);
/// # Ok::<(), elasticrmi::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PoolConfigBuilder {
    class_name: String,
    min_pool_size: u32,
    max_pool_size: u32,
    burst_interval: SimDuration,
    policy: ScalingPolicy,
    overload_capacity: Option<u32>,
    queue_delay_grow_above: Option<SimDuration>,
    semantics: SemanticsTable,
    reply_cache: Option<ReplyCacheConfig>,
    warm_standby: u32,
    sharding: ShardingTable,
}

impl PoolConfigBuilder {
    /// Sets the minimum pool size — `setMinPoolSize`.
    pub fn min_pool_size(mut self, n: u32) -> Self {
        self.min_pool_size = n;
        self
    }

    /// Sets the maximum pool size — `setMaxPoolSize`.
    pub fn max_pool_size(mut self, n: u32) -> Self {
        self.max_pool_size = n;
        self
    }

    /// Sets the burst interval — `setBurstInterval`.
    pub fn burst_interval(mut self, interval: SimDuration) -> Self {
        self.burst_interval = interval;
        self
    }

    /// Sets the scaling policy (implicit, coarse thresholds, fine-grained,
    /// or application-level).
    pub fn policy(mut self, policy: ScalingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Turns on skeleton-side admission control: EDF run queues bounded at
    /// `capacity`, which is also the balancer's per-member pending target.
    /// Off by default (unbounded FIFO, the legacy behaviour, and the
    /// balancer's mean-pending heuristic).
    pub fn overload_capacity(mut self, capacity: u32) -> Self {
        self.overload_capacity = Some(capacity);
        self
    }

    /// Grows the pool whenever a member's admission-queue delay p99 exceeds
    /// this over a burst interval, independent of CPU/RAM thresholds.
    pub fn queue_delay_grow_above(mut self, delay: SimDuration) -> Self {
        self.queue_delay_grow_above = Some(delay);
        self
    }

    /// Declares the pool's per-method invocation semantics (wire v4):
    /// `AtMostOnce` methods get skeleton-side duplicate suppression via the
    /// reply cache; `AtLeastOnce` (default) keeps today's retry-anywhere
    /// behavior; `Maybe` never retransmits.
    pub fn semantics(mut self, table: SemanticsTable) -> Self {
        self.semantics = table;
        self
    }

    /// Tunes the skeletons' reply cache (grace window past each deadline,
    /// entry cap, byte cap). Defaults to [`ReplyCacheConfig::default`].
    pub fn reply_cache(mut self, config: ReplyCacheConfig) -> Self {
        self.reply_cache = Some(config);
        self
    }

    /// Keeps `n` warm standbys provisioned outside the rotation so scale-up
    /// becomes a route-flip instead of an offer/grant/provision round trip.
    /// Standbys occupy slices, so `min_pool_size + n` must fit within
    /// `max_pool_size`.
    pub fn warm_standby(mut self, n: u32) -> Self {
        self.warm_standby = n;
        self
    }

    /// Declares the pool's per-method routing keys (wire v5): each listed
    /// method is routed by consistent hash of its extracted key instead of
    /// by load, and skeletons enforce ownership with `WrongShard` redirects.
    /// An empty table (the default) keeps the pool unsharded.
    pub fn sharding(mut self, table: ShardingTable) -> Self {
        self.sharding = table;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated rule; see the
    /// variants for the full list (minimum pool size of 2, ordered
    /// thresholds, non-zero burst interval, …).
    pub fn build(self) -> Result<PoolConfig, ConfigError> {
        if self.class_name.is_empty() {
            return Err(ConfigError::EmptyClassName);
        }
        if self.min_pool_size < 2 {
            return Err(ConfigError::MinTooSmall(self.min_pool_size));
        }
        if self.min_pool_size > self.max_pool_size {
            return Err(ConfigError::MinAboveMax {
                min: self.min_pool_size,
                max: self.max_pool_size,
            });
        }
        if self.burst_interval.is_zero() {
            return Err(ConfigError::ZeroBurstInterval);
        }
        if let ScalingPolicy::Coarse(t) = &self.policy {
            t.validate()?;
        }
        if self.overload_capacity == Some(0) {
            return Err(ConfigError::ZeroOverloadCapacity);
        }
        if self.min_pool_size + self.warm_standby > self.max_pool_size {
            return Err(ConfigError::StandbysExceedMax {
                min: self.min_pool_size,
                warm: self.warm_standby,
                max: self.max_pool_size,
            });
        }
        Ok(PoolConfig {
            class_name: self.class_name,
            min_pool_size: self.min_pool_size,
            max_pool_size: self.max_pool_size,
            burst_interval: self.burst_interval,
            policy: self.policy,
            overload_capacity: self.overload_capacity,
            queue_delay_grow_above: self.queue_delay_grow_above,
            semantics: self.semantics,
            reply_cache: self.reply_cache,
            warm_standby: self.warm_standby,
            sharding: self.sharding,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PoolConfig::builder("C1").build().unwrap();
        assert_eq!(c.min_pool_size(), 2);
        assert_eq!(c.burst_interval(), SimDuration::from_secs(60));
        assert_eq!(c.policy(), ScalingPolicy::Implicit);
    }

    #[test]
    fn min_pool_size_of_one_is_rejected() {
        // Paper §4.2: "a minimum (≥ 2)".
        let err = PoolConfig::builder("C1")
            .min_pool_size(1)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::MinTooSmall(1));
    }

    #[test]
    fn min_above_max_is_rejected() {
        let err = PoolConfig::builder("C1")
            .min_pool_size(10)
            .max_pool_size(5)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::MinAboveMax { min: 10, max: 5 });
    }

    #[test]
    fn zero_burst_interval_is_rejected() {
        let err = PoolConfig::builder("C1")
            .burst_interval(SimDuration::ZERO)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroBurstInterval);
    }

    #[test]
    fn inverted_thresholds_are_rejected() {
        let err = PoolConfig::builder("C1")
            .policy(ScalingPolicy::Coarse(Thresholds {
                cpu_incr: Some(50.0),
                cpu_decr: Some(85.0),
                ..Thresholds::default()
            }))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::InvertedThresholds { resource: "cpu" });
    }

    #[test]
    fn out_of_range_threshold_is_rejected() {
        let err = PoolConfig::builder("C1")
            .policy(ScalingPolicy::Coarse(Thresholds {
                cpu_incr: Some(150.0),
                ..Thresholds::default()
            }))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ConfigError::ThresholdOutOfRange {
                name: "cpu_incr",
                ..
            }
        ));
    }

    #[test]
    fn empty_coarse_thresholds_rejected() {
        let err = PoolConfig::builder("C1")
            .policy(ScalingPolicy::Coarse(Thresholds::default()))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::EmptyThresholds);
    }

    #[test]
    fn empty_class_name_rejected() {
        assert_eq!(
            PoolConfig::builder("").build().unwrap_err(),
            ConfigError::EmptyClassName
        );
    }

    #[test]
    fn admission_defaults_off_and_configures_on() {
        let legacy = PoolConfig::builder("C1").build().unwrap();
        assert_eq!(legacy.admission_config(), None);
        assert_eq!(legacy.overload_capacity(), None);
        assert_eq!(legacy.queue_delay_grow_above(), None);

        let tuned = PoolConfig::builder("C1")
            .overload_capacity(32)
            .queue_delay_grow_above(SimDuration::from_millis(50))
            .build()
            .unwrap();
        assert_eq!(
            tuned.admission_config(),
            Some(AdmissionConfig::edf(32)),
            "the capacity turns on EDF admission bounded at it"
        );
        assert_eq!(tuned.overload_capacity(), Some(32));
        assert_eq!(
            tuned.queue_delay_grow_above(),
            Some(SimDuration::from_millis(50))
        );
    }

    #[test]
    fn zero_overload_capacity_rejected() {
        let err = PoolConfig::builder("C1")
            .overload_capacity(0)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroOverloadCapacity);
    }

    #[test]
    fn clamp_size_respects_bounds() {
        let c = PoolConfig::builder("C1")
            .min_pool_size(5)
            .max_pool_size(50)
            .build()
            .unwrap();
        assert_eq!(c.clamp_size(-3), 5);
        assert_eq!(c.clamp_size(7), 7);
        assert_eq!(c.clamp_size(1_000), 50);
    }

    #[test]
    fn warm_standby_defaults_off_and_must_fit_under_max() {
        let c = PoolConfig::builder("C1").build().unwrap();
        assert_eq!(c.warm_standby(), 0);

        let warm = PoolConfig::builder("C1")
            .min_pool_size(2)
            .max_pool_size(4)
            .warm_standby(2)
            .build()
            .unwrap();
        assert_eq!(warm.warm_standby(), 2);

        let err = PoolConfig::builder("C1")
            .min_pool_size(2)
            .max_pool_size(4)
            .warm_standby(3)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::StandbysExceedMax {
                min: 2,
                warm: 3,
                max: 4
            }
        );
    }

    #[test]
    fn config_serializes() {
        let c = PoolConfig::builder("C1").build().unwrap();
        let bytes = erm_transport::to_bytes(&c).unwrap();
        let back: PoolConfig = erm_transport::from_bytes(&bytes).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn sharding_defaults_off_and_round_trips() {
        use crate::shard::KeyExtractor;

        let c = PoolConfig::builder("C1").build().unwrap();
        assert!(!c.sharding().is_enabled());

        let keyed = PoolConfig::builder("C1")
            .sharding(ShardingTable::new().method("publish", KeyExtractor::FirstString))
            .build()
            .unwrap();
        assert!(keyed.sharding().is_enabled());
        assert_eq!(
            keyed.sharding().extractor_for("publish"),
            Some(KeyExtractor::FirstString)
        );
        let bytes = erm_transport::to_bytes(&keyed).unwrap();
        let back: PoolConfig = erm_transport::from_bytes(&bytes).unwrap();
        assert_eq!(back, keyed);
    }
}
