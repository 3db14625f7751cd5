//! `compare A.json B.json`: B (the change) against A (the parent), one
//! row per (end-to-end metric, workload).

use crate::report::{ResultFile, WorkloadResult};
use crate::spec::{Better, END_TO_END, EXACT_COUNTS, WORKLOADS};
use crate::stats::{median, relative_iqr};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    WithinBound,
    /// B's median is worse than A's by more than the bound, and the
    /// spread is small enough (or the runs separate cleanly enough) to
    /// trust that.
    Regressed,
    /// The run-to-run spread exceeds the bound and the runs of A and B
    /// overlap: the data cannot say "unchanged".
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub unit: &'static str,
    pub median_a: f64,
    pub median_b: f64,
    /// `median_b / median_a`; the base is A.
    pub ratio: f64,
    /// Share of A's median by which B is worse (negative: better).
    pub worse_by: f64,
    /// The wider of the two relative inter-quartile spreads.
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judge one metric from the runs of A and of B.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let spread = relative_iqr(a).max(relative_iqr(b));
    let b_is_worse = |x: f64, y: f64| match better {
        Better::Lower => y > x,
        Better::Higher => y < x,
    };
    let every_b_worse = a.iter().all(|&x| b.iter().all(|&y| b_is_worse(x, y)));
    let every_b_better = a.iter().all(|&x| b.iter().all(|&y| b_is_worse(y, x)));
    let verdict = if worse_by > bound && (spread <= bound || every_b_worse) {
        Verdict::Regressed
    } else if spread > bound && !every_b_better {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    };
    (worse_by, spread, verdict)
}

/// The whole comparison.
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Workloads whose failed share rose, as `(workload, share A, share B)`.
    pub more_failures: Vec<(&'static str, f64, f64)>,
    /// Exact per-layer counts that differ, as `(workload, metric, A, B)`.
    pub count_changes: Vec<(&'static str, &'static str, f64, f64)>,
}

fn failed_share(w: &WorkloadResult) -> f64 {
    w.failed() as f64 / w.attempted().max(1) as f64
}

pub fn compare(a: &ResultFile, b: &ResultFile) -> Comparison {
    let mut c = Comparison {
        rows: Vec::new(),
        more_failures: Vec::new(),
        count_changes: Vec::new(),
    };
    for w in &WORKLOADS {
        let (Some(wa), Some(wb)) = (a.workloads.get(w.name), b.workloads.get(w.name)) else {
            continue;
        };
        for m in &END_TO_END {
            let (va, vb) = (wa.values(m.name), wb.values(m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (worse_by, spread, verdict) = judge(&va, &vb, m.better, m.bound);
            c.rows.push(Row {
                workload: w.name,
                metric: m.name,
                unit: m.unit,
                median_a: median(&va),
                median_b: median(&vb),
                ratio: median(&vb) / median(&va),
                worse_by,
                spread,
                bound: m.bound,
                verdict,
            });
        }
        let (fa, fb) = (failed_share(wa), failed_share(wb));
        if fb > fa {
            c.more_failures.push((w.name, fa, fb));
        }
        if let (Some(ta), Some(tb)) = (&wa.traced, &wb.traced) {
            for &name in EXACT_COUNTS {
                let (x, y) = (
                    ta.metrics.get(name).copied().unwrap_or(0.0),
                    tb.metrics.get(name).copied().unwrap_or(0.0),
                );
                if x != y {
                    c.count_changes.push((w.name, name, x, y));
                }
            }
        }
    }
    c
}

impl Comparison {
    /// A regression, or a higher failed share, fails the comparison.
    pub fn failed(&self) -> bool {
        !self.more_failures.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    pub fn render(&self) -> String {
        let mut text = String::from(
            "workload        metric        unit       median A      median B   B/A (base A)  worse by   spread  bound  verdict\n",
        );
        for r in &self.rows {
            text.push_str(&format!(
                "{:<15} {:<13} {:<8} {:>12.4} {:>13.4} {:>8.3} of {:<10.4} {:>+7.1}% {:>7.1}% {:>5.0}%  {}\n",
                r.workload,
                r.metric,
                r.unit,
                r.median_a,
                r.median_b,
                r.ratio,
                r.median_a,
                r.worse_by * 100.0,
                r.spread * 100.0,
                r.bound * 100.0,
                r.verdict.as_str()
            ));
        }
        for (w, fa, fb) in &self.more_failures {
            text.push_str(&format!(
                "{w}: failed share rose from {:.4}% to {:.4}% of the operations\n",
                fa * 100.0,
                fb * 100.0
            ));
        }
        for (w, m, x, y) in &self.count_changes {
            text.push_str(&format!("{w}: exact count {m} changed: {x} -> {y}\n"));
        }
        if self.count_changes.is_empty() && !self.rows.is_empty() {
            text.push_str("exact per-layer counts: identical where both files have a traced run\n");
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::report::RunLine;
    use std::collections::BTreeMap;

    const LOW: Better = Better::Lower;
    const HIGH: Better = Better::Higher;

    #[test]
    fn steady_runs_inside_the_bound_are_within_bound() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [104.0, 105.0, 103.0, 104.5, 103.5];
        let (worse, spread, v) = judge(&a, &b, LOW, 0.10);
        assert!((worse - 0.04).abs() < 1e-12 && spread < 0.02);
        assert_eq!(v, Verdict::WithinBound);
        // the same numbers for a higher-is-better metric are an improvement
        assert_eq!(judge(&a, &b, HIGH, 0.10).2, Verdict::WithinBound);
        assert!(judge(&a, &b, HIGH, 0.10).0 < 0.0);
    }

    #[test]
    fn a_clear_slowdown_is_a_regression_in_either_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [115.0, 116.0, 114.0, 115.5, 114.5];
        assert_eq!(judge(&a, &b, LOW, 0.10).2, Verdict::Regressed);
        assert_eq!(judge(&b, &a, HIGH, 0.10).2, Verdict::Regressed);
        assert_eq!(judge(&b, &a, LOW, 0.10).2, Verdict::WithinBound);
    }

    #[test]
    fn noisy_overlapping_runs_are_unresolved_not_unchanged() {
        let a = [100.0, 130.0, 85.0, 120.0, 95.0];
        let b = [105.0, 125.0, 90.0, 135.0, 88.0];
        assert_eq!(judge(&a, &b, LOW, 0.10).2, Verdict::Unresolved);
        // …unless every run of the change beats every run of the parent
        let better = [60.0, 70.0, 55.0, 80.0, 65.0];
        assert_eq!(judge(&a, &better, LOW, 0.10).2, Verdict::WithinBound);
        // …and a noisy change that loses every pairing has still regressed
        let worse = [160.0, 190.0, 150.0, 200.0, 170.0];
        assert_eq!(judge(&a, &worse, LOW, 0.10).2, Verdict::Regressed);
    }

    #[test]
    fn single_runs_have_no_spread_and_compare_by_their_values() {
        assert_eq!(judge(&[10.0], &[10.5], LOW, 0.10).2, Verdict::WithinBound);
        assert_eq!(judge(&[10.0], &[11.5], LOW, 0.10).2, Verdict::Regressed);
    }

    fn file(op_ms: &[f64], failed: u64, ghost_count: f64) -> ResultFile {
        let runs = op_ms
            .iter()
            .map(|&v| RunLine {
                correct: failed == 0,
                attempted: 10,
                failed,
                metrics: END_TO_END.iter().map(|m| (m.name.to_string(), v)).collect(),
            })
            .collect();
        let traced = RunLine {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: [("forest.ghost_count".to_string(), ghost_count)]
                .into_iter()
                .collect(),
        };
        let mut workloads = BTreeMap::new();
        workloads.insert(
            "amr_shell".to_string(),
            WorkloadResult {
                runs,
                traced: Some(traced),
            },
        );
        ResultFile {
            provenance: Json::Null,
            workloads,
        }
    }

    #[test]
    fn comparison_fails_on_regression_or_on_more_failures() {
        let a = file(&[100.0, 101.0, 99.0], 0, 8486.0);
        let same = compare(&a, &file(&[100.5, 100.0, 101.5], 0, 8486.0));
        assert!(!same.failed());
        assert_eq!(same.rows.len(), END_TO_END.len());
        assert!(same.count_changes.is_empty());
        assert!(same.render().contains("of 100.0000"), "{}", same.render());

        // every metric moved +40%, beyond any bound: lower-is-better ones regress
        let slow = compare(&a, &file(&[140.0, 141.0, 139.0], 0, 8486.0));
        assert!(slow.failed());
        assert!(slow.render().contains("REGRESSED"));

        let broken = compare(&a, &file(&[100.0, 101.0, 99.0], 1, 8490.0));
        assert!(broken.failed());
        assert_eq!(broken.more_failures[0].0, "amr_shell");
        assert_eq!(broken.count_changes[0].1, "forest.ghost_count");
    }
}
