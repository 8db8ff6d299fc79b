//! `compare <base> <candidate>`: the regression rule every later PR is
//! held to. Each side is one or more `results.json` files (comma
//! separated); per (workload, end-to-end metric) the medians are compared
//! under the metric's bound and the verdict is one of three.

use std::fmt::Write as _;

use crate::json::Json;
use crate::spec::{Better, EndToEndSpec, END_TO_END, FAILED_SHARE_SLACK, WORKLOADS};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is no worse than the base's by more than
    /// the bound, and both sides repeat within the bound.
    WithinBound,
    /// Worse by more than the bound, and the runs repeat tightly enough
    /// to believe it.
    Worse,
    /// One side's run-to-run spread (interquartile distance over median)
    /// is wider than the bound: the data cannot say "unchanged" or
    /// "worse", so it says neither.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (workload, metric) comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judged {
    /// Median of the base side's runs.
    pub base: f64,
    /// Median of the candidate side's runs.
    pub candidate: f64,
    /// How much worse the candidate is, as a share of the base (negative
    /// when it is better).
    pub worse_by: f64,
    /// The wider of the two sides' run-to-run spreads.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Applies one metric's bound to the two sides' values.
pub fn judge(spec: &EndToEndSpec, base: &[f64], candidate: &[f64]) -> Judged {
    let (b, c) = (median(base), median(candidate));
    let worse_abs = match spec.better {
        Better::Higher => b - c,
        Better::Lower => c - b,
    };
    let allowed = (spec.bound * b.abs()).max(spec.floor);
    let wide = spread(base).max(spread(candidate));
    Judged {
        base: b,
        candidate: c,
        worse_by: if b != 0.0 { worse_abs / b.abs() } else { 0.0 },
        spread: wide,
        verdict: if wide > spec.bound {
            Verdict::Unresolved
        } else if worse_abs > allowed {
            Verdict::Worse
        } else {
            Verdict::WithinBound
        },
    }
}

/// `failed_share` is 0 on every healthy run, so it gets an absolute rule:
/// it may not rise by more than [`FAILED_SHARE_SLACK`].
fn judge_failed_share(base: &[f64], candidate: &[f64]) -> Judged {
    let (b, c) = (median(base), median(candidate));
    Judged {
        base: b,
        candidate: c,
        worse_by: c - b,
        spread: 0.0,
        verdict: if c - b > FAILED_SHARE_SLACK {
            Verdict::Worse
        } else {
            Verdict::WithinBound
        },
    }
}

/// One side: per run, the parsed `results.json`.
fn load_side(list: &str) -> Result<Vec<Json>, String> {
    list.split(',')
        .filter(|p| !p.is_empty())
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

/// A metric's value in every run of a side that has it.
fn values(side: &[Json], workload: &str, group: Option<&str>, metric: &str) -> Vec<f64> {
    side.iter()
        .filter_map(|run| {
            let w = run.get("workloads")?.get(workload)?;
            match group {
                Some(group) => w.get(group)?.get(metric)?.as_f64(),
                None => w.get(metric)?.as_f64(),
            }
        })
        .collect()
}

/// Compares two sides; returns every verdict and the rendered table, one
/// row per (workload, metric).
pub fn compare(base_list: &str, candidate_list: &str) -> Result<(Vec<Verdict>, String), String> {
    let (base, candidate) = (load_side(base_list)?, load_side(candidate_list)?);
    if base.is_empty() || candidate.is_empty() {
        return Err("each side needs at least one results.json".to_string());
    }
    let mut verdicts = Vec::new();
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict ({} vs {} runs)",
        "workload",
        "metric",
        "base",
        "candidate",
        "worse by",
        "spread",
        "bound",
        base.len(),
        candidate.len()
    );
    for workload in WORKLOADS.iter().map(|w| w.name) {
        for spec in &END_TO_END {
            let b = values(&base, workload, Some("end_to_end"), spec.name);
            let c = values(&candidate, workload, Some("end_to_end"), spec.name);
            if b.is_empty() || c.is_empty() {
                return Err(format!("{workload}/{}: missing on one side", spec.name));
            }
            let j = judge(spec, &b, &c);
            let _ = writeln!(
                table,
                "{workload:<16} {:<18} {:>14.4} {:>14.4} {:>8.1}% {:>7.1}% {:>6.0}%  {}",
                spec.name,
                j.base,
                j.candidate,
                100.0 * j.worse_by,
                100.0 * j.spread,
                100.0 * spec.bound,
                j.verdict.as_str()
            );
            verdicts.push(j.verdict);
        }
        let b = values(&base, workload, None, "failed_share");
        let c = values(&candidate, workload, None, "failed_share");
        if b.is_empty() || c.is_empty() {
            return Err(format!("{workload}/failed_share: missing on one side"));
        }
        let j = judge_failed_share(&b, &c);
        let _ = writeln!(
            table,
            "{workload:<16} {:<18} {:>14.6} {:>14.6} {:>9} {:>8} {:>7}  {}",
            "failed_share",
            j.base,
            j.candidate,
            "",
            "",
            format!("+{FAILED_SHARE_SLACK}"),
            j.verdict.as_str()
        );
        verdicts.push(j.verdict);
    }
    Ok((verdicts, table))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> &'static EndToEndSpec {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    /// Four tightly repeating runs around `centre`.
    fn runs(centre: f64) -> [f64; 4] {
        [centre, centre * 1.01, centre * 0.99, centre]
    }

    #[test]
    fn a_drop_beyond_the_bound_is_worse_and_within_it_is_not() {
        let throughput = spec("throughput_ops_s");
        let bound = throughput.bound;
        let base = runs(100.0);
        let slower = judge(throughput, &base, &runs(100.0 * (1.0 - bound - 0.03)));
        assert_eq!(slower.verdict, Verdict::Worse);
        assert!(slower.worse_by > bound);
        let close = judge(throughput, &base, &runs(100.0 * (1.0 - bound + 0.03)));
        assert_eq!(close.verdict, Verdict::WithinBound);
        // Better is never worse, whatever the size.
        let faster = judge(throughput, &base, &runs(150.0));
        assert_eq!(faster.verdict, Verdict::WithinBound);
        assert!(faster.worse_by < 0.0);
    }

    #[test]
    fn direction_follows_the_metric() {
        let latency = spec("latency_p50_us");
        let base = runs(100.0);
        let up = judge(latency, &base, &runs(100.0 * (1.0 + latency.bound + 0.03)));
        let down = judge(latency, &base, &runs(100.0 * (1.0 - latency.bound - 0.03)));
        assert_eq!(up.verdict, Verdict::Worse);
        assert_eq!(down.verdict, Verdict::WithinBound);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let throughput = spec("throughput_ops_s");
        let noisy = [40.0, 100.0, 160.0, 70.0, 130.0];
        let same = judge(throughput, &noisy, &[100.0, 100.0, 100.0, 100.0]);
        assert!(same.spread > throughput.bound);
        assert_eq!(same.verdict, Verdict::Unresolved);
        // Even an apparent regression is not believed through that noise.
        let lower = judge(throughput, &noisy, &[50.0, 50.0, 50.0, 50.0]);
        assert_eq!(lower.verdict, Verdict::Unresolved);
        // A single run per side has no spread to speak of: judged on medians.
        let single = judge(throughput, &[100.0], &[60.0]);
        assert_eq!((single.spread, single.verdict), (0.0, Verdict::Worse));
    }

    #[test]
    fn setup_gets_an_absolute_floor_and_failures_an_absolute_rule() {
        let setup = spec("setup_s");
        // 4 ms -> 9 ms is +125 % but under the 50 ms floor.
        assert_eq!(
            judge(setup, &[0.004; 4], &[0.009; 4]).verdict,
            Verdict::WithinBound
        );
        // 1 s -> 1.3 s is past both 25 % and the floor.
        assert_eq!(judge(setup, &[1.0; 4], &[1.3; 4]).verdict, Verdict::Worse);
        assert_eq!(
            judge_failed_share(&[0.0, 0.0], &[0.0005, 0.0005]).verdict,
            Verdict::WithinBound
        );
        assert_eq!(
            judge_failed_share(&[0.0, 0.0], &[0.002, 0.002]).verdict,
            Verdict::Worse
        );
    }
}
