#![warn(missing_docs)]

//! SPEC elasticity metrics for the ElasticRMI reproduction.
//!
//! Implements the two metrics the paper's evaluation (§5.1) is built on:
//!
//! * **Agility** — for a measurement period divided into `N` sub-intervals,
//!   `Agility = (1/N) (Σ Excess(i) + Σ Shortage(i))` where
//!   `Excess(i) = max(0, Cap_prov(i) − Req_min(i))` and
//!   `Shortage(i) = max(0, Req_min(i) − Cap_prov(i))`. An ideal deployment
//!   has agility 0: never under- nor over-provisioned. See [`AgilityMeter`].
//! * **Provisioning interval** — the time between requesting a new resource
//!   and that resource serving its first request. See
//!   [`ProvisioningRecorder`].
//!
//! The crate also provides the telemetry layer, the workspace's one metrics
//! system:
//!
//! * a [`Registry`] of named counters, gauges and log-linear histograms that
//!   every component reaches through a cheap [`MetricsHandle`] (disabled by
//!   default, like [`TraceHandle`]). A [`HistogramSnapshot`] also records on
//!   its own: a skeleton keeps its burst interval's queue-delay percentiles
//!   in one;
//! * a [`SpanBuilder`] that folds the flat trace ring back into
//!   per-invocation span trees and per-decision control-plane spans, with
//!   Chrome/Perfetto export via [`chrome_trace`] and CSV snapshots via
//!   [`snapshots_to_csv`].

mod agility;
mod provisioning;
mod registry;
mod span;
mod trace;

pub use agility::{AgilityMeter, AgilityReport};
pub use provisioning::{ProvisioningRecorder, ProvisioningReport};
pub use registry::{
    snapshots_to_csv, Counter, Gauge, Histogram, HistogramSnapshot, MetricsHandle, Registry,
    RegistrySnapshot, CSV_HEADER,
};
pub use span::{
    chrome_trace, DecisionSpan, InvocationOutcome, InvocationSpan, OfferInfo, PathSegment,
    RuleInfo, Span, SpanBuilder,
};
pub use trace::{TraceEvent, TraceHandle, TraceRecord, TraceSink};
