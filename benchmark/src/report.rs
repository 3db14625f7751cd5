//! What a run prints and what `run` writes to disk: the one-line result
//! the driver reads, the human-readable metric table, the provenance
//! record and the result file `compare` reads back.

use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles};
use crate::workloads::Outcome;
use std::collections::BTreeMap;
use std::process::Command;

/// The metrics one run must report, in the order of the contract:
/// `(name, unit)` of every end-to-end metric, or of every per-layer one.
pub fn expected_metrics(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// The run's last line of standard output: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`. A per-layer metric the workload
/// does not exercise reads 0; a missing end-to-end metric is a bug in
/// the workload and is reported as such.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in expected_metrics(traced) {
        let value = match outcome.metrics.get(name) {
            Some(&v) if v.is_finite() => v,
            Some(v) => return Err(format!("metric {name} is {v}")),
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        metrics.push((
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_compact())
}

/// Every metric by name with its unit, one per line.
pub fn metric_table(workload: &str, outcome: &Outcome, traced: bool) -> String {
    let mut text = format!(
        "# {workload} ({}): {} operations, {} failed\n",
        if traced { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed
    );
    for (name, unit) in expected_metrics(traced) {
        if let Some(v) = outcome.metrics.get(name) {
            text.push_str(&format!("{name:<40} {v:>18.6} {unit}\n"));
        }
    }
    // diagnostics: measured, printed, but no part of the contract
    for (name, v) in outcome
        .metrics
        .iter()
        .filter(|(n, _)| n.starts_with("diag."))
    {
        text.push_str(&format!("{name:<40} {v:>18.6}\n"));
    }
    text
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Where and on what the numbers were measured. `simd_calls` are the
/// dispatched-kernel invocations per tier (scalar, avx2, bmi2) that the
/// measuring process counted — `simd::kernel_invocations()` there.
pub fn provenance(seed: u64, seconds: f64, simd_calls: [u64; 3]) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let git = |args: &[&str]| command_line("git", &[&["-C", repo][..], args].concat());
    let commit = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = git(&["status", "--porcelain"]).is_some();
    Json::obj([
        ("git_commit", Json::str(commit)),
        ("git_dirty", Json::Bool(dirty)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("cpu_model", Json::str(cpu_model)),
        (
            "simd_tier",
            Json::str(quadforest_core::simd::active_features()),
        ),
        (
            "simd_kernel_invocations",
            Json::obj(
                ["scalar", "avx2", "bmi2"]
                    .into_iter()
                    .zip(simd_calls)
                    .map(|(tier, n)| (tier, Json::Num(n as f64))),
            ),
        ),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "backends",
            Json::obj([
                ("amr_shell", Json::str("threads")),
                ("advect_amr", Json::str("threads")),
                ("comm_exchange", Json::str("sockets")),
            ]),
        ),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(seconds)),
    ])
}

/// One parsed run line.
#[derive(Clone, Debug, PartialEq)]
pub struct RunLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl RunLine {
    pub fn parse(line: &str) -> Result<RunLine, String> {
        let doc = Json::parse(line)?;
        let num = |k: &str| {
            doc.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result line has no number `{k}`"))
        };
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("result line has no `metrics`")?
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Json::as_f64)
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("metric {name} has no value"))
            })
            .collect::<Result<_, _>>()?;
        Ok(RunLine {
            correct: doc
                .get("correct")
                .and_then(Json::as_bool)
                .ok_or("no `correct`")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
        })
    }
}

/// All sets of runs of one workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadResult {
    /// One entry per set, untraced.
    pub runs: Vec<RunLine>,
    /// The traced run, if one was made.
    pub traced: Option<RunLine>,
}

impl WorkloadResult {
    /// The values of end-to-end metric `name`, one per set.
    pub fn values(&self, name: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|r| r.metrics.get(name).copied())
            .collect()
    }

    pub fn attempted(&self) -> u64 {
        self.runs.iter().map(|r| r.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.runs.iter().map(|r| r.failed).sum()
    }

    pub fn correct(&self) -> bool {
        self.runs.iter().chain(&self.traced).all(|r| r.correct)
    }
}

/// A result file: provenance plus every workload's runs.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultFile {
    pub provenance: Json,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

fn run_to_json(r: &RunLine) -> Json {
    Json::obj([
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
    ])
}

impl ResultFile {
    pub fn to_json(&self) -> Json {
        let workloads = WORKLOADS
            .iter()
            .filter_map(|w| self.workloads.get(w.name).map(|r| (w.name, r)))
            .map(|(name, w)| {
                let e2e = END_TO_END.iter().filter_map(|m| {
                    let values = w.values(m.name);
                    if values.is_empty() {
                        return None;
                    }
                    let (q1, q3) = quartiles(&values);
                    Some((
                        m.name,
                        Json::obj([
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                            ("samples", Json::Num(values.len() as f64)),
                            ("median", Json::Num(median(&values))),
                            ("q1", Json::Num(q1)),
                            ("q3", Json::Num(q3)),
                            ("values", Json::nums(&values)),
                        ]),
                    ))
                });
                let mut fields = vec![
                    ("correct", Json::Bool(w.correct())),
                    ("runs", Json::Arr(w.runs.iter().map(run_to_json).collect())),
                    ("end_to_end", Json::obj(e2e)),
                ];
                if let Some(t) = &w.traced {
                    let layers = PER_LAYER.iter().filter_map(|m| {
                        t.metrics.get(m.name).map(|&v| {
                            (
                                m.name,
                                Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]),
                            )
                        })
                    });
                    fields.push(("traced_run", run_to_json(t)));
                    fields.push(("per_layer", Json::obj(layers)));
                }
                (name, Json::obj(fields))
            });
        Json::obj([
            ("schema", Json::str("quadforest-benchmark/1")),
            ("provenance", self.provenance.clone()),
            ("workloads", Json::obj(workloads)),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<ResultFile, String> {
        if doc.get("schema").and_then(Json::as_str) != Some("quadforest-benchmark/1") {
            return Err("not a quadforest-benchmark/1 result file".into());
        }
        let run_of = |j: &Json, metrics: BTreeMap<String, f64>| -> Result<RunLine, String> {
            let num = |k: &str| {
                j.get(k)
                    .and_then(Json::as_f64)
                    .ok_or(format!("run without `{k}`"))
            };
            Ok(RunLine {
                correct: j
                    .get("correct")
                    .and_then(Json::as_bool)
                    .ok_or("run without `correct`")?,
                attempted: num("attempted")? as u64,
                failed: num("failed")? as u64,
                metrics,
            })
        };
        let mut workloads = BTreeMap::new();
        for (name, w) in doc
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("no `workloads`")?
        {
            let runs = w.get("runs").and_then(Json::as_arr).ok_or("no `runs`")?;
            let e2e = w
                .get("end_to_end")
                .and_then(Json::as_obj)
                .ok_or("no `end_to_end`")?;
            let mut result = WorkloadResult::default();
            for (i, run) in runs.iter().enumerate() {
                let mut metrics = BTreeMap::new();
                for (metric, m) in e2e {
                    let v = m
                        .get("values")
                        .and_then(Json::as_arr)
                        .and_then(|vs| vs.get(i))
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("{name}.{metric}: no value for run {i}"))?;
                    metrics.insert(metric.clone(), v);
                }
                result.runs.push(run_of(run, metrics)?);
            }
            if let Some(t) = w.get("traced_run") {
                let layers = w
                    .get("per_layer")
                    .and_then(Json::as_obj)
                    .ok_or("no `per_layer`")?;
                let metrics = layers
                    .iter()
                    .filter_map(|(k, m)| {
                        m.get("value")
                            .and_then(Json::as_f64)
                            .map(|v| (k.clone(), v))
                    })
                    .collect();
                result.traced = Some(run_of(t, metrics)?);
            }
            workloads.insert(name.clone(), result);
        }
        Ok(ResultFile {
            provenance: doc.get("provenance").cloned().unwrap_or(Json::Null),
            workloads,
        })
    }
}

/// The text of `/BENCHMARK.json`, from the tables in [`crate::spec`].
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(crate::RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(value: f64) -> RunLine {
        RunLine {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), value))
                .collect(),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_parses_back() {
        let mut outcome = Outcome {
            attempted: 7,
            ..Outcome::default()
        };
        for m in &END_TO_END {
            outcome.set(m.name, 1.2034);
        }
        let text = result_line(&outcome, false).unwrap();
        assert!(!text.contains('\n'));
        let doc = Json::parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let parsed = RunLine::parse(&text).unwrap();
        assert_eq!(
            (parsed.correct, parsed.attempted, parsed.failed),
            (true, 7, 0)
        );
        assert_eq!(parsed.metrics.len(), END_TO_END.len());
        assert_eq!(parsed.metrics["setup_s"], 1.2034);

        // the traced line names every per-layer metric, unexercised ones as 0
        outcome.failed = 1;
        let traced = RunLine::parse(&result_line(&outcome, true).unwrap()).unwrap();
        assert!(!traced.correct);
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        assert!(traced.metrics.values().all(|&v| v == 0.0));
    }

    #[test]
    fn a_missing_or_non_finite_end_to_end_metric_is_an_error() {
        let mut outcome = Outcome::default();
        assert!(result_line(&outcome, false).is_err());
        for m in &END_TO_END {
            outcome.set(m.name, f64::NAN);
        }
        assert!(result_line(&outcome, false).is_err());
    }

    #[test]
    fn result_file_round_trips_through_json_text() {
        let mut file = ResultFile {
            provenance: provenance(3, 1.0, [0, 96, 48]),
            workloads: BTreeMap::new(),
        };
        let mut traced = line(0.0);
        traced.metrics = [
            ("forest.balance_s".to_string(), 0.97),
            ("forest.ghost_count".to_string(), 8486.0),
        ]
        .into_iter()
        .collect();
        file.workloads.insert(
            "amr_shell".into(),
            WorkloadResult {
                runs: vec![line(1.0), line(1.1), line(0.1 + 0.2 + 1.0)],
                traced: Some(traced),
            },
        );
        file.workloads.insert(
            "kernels_paper".into(),
            WorkloadResult {
                runs: vec![line(5.0)],
                traced: None,
            },
        );
        let text = file.to_json().to_pretty();
        let back = ResultFile::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, file);
        let e2e = Json::parse(&text).unwrap();
        let m = e2e
            .get("workloads")
            .and_then(|w| w.get("amr_shell"))
            .and_then(|w| w.get("end_to_end"))
            .and_then(|e| e.get("op_ms_p10"))
            .cloned()
            .unwrap();
        assert_eq!(m.get("samples").unwrap().as_f64(), Some(3.0));
        assert_eq!(m.get("median").unwrap().as_f64(), Some(1.1));
    }

    #[test]
    fn provenance_names_the_machine_and_the_toolchain() {
        let p = provenance(1, 12.0, [0, 0, 0]);
        for key in [
            "git_commit",
            "nproc",
            "cpu_model",
            "simd_tier",
            "simd_kernel_invocations",
            "rustc",
            "seed",
        ] {
            assert!(p.get(key).is_some(), "{key}");
        }
        assert!(p.get("nproc").unwrap().as_f64().unwrap() >= 1.0);
    }

    #[test]
    fn benchmark_json_text_is_valid_and_small() {
        let text = benchmark_json();
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).unwrap();
        let command = doc.get("command").unwrap().as_arr().unwrap();
        assert!(command.len() <= 32);
        assert!(command.iter().all(|c| c.as_str().unwrap().len() <= 200));
        assert_eq!(doc.get("paths").unwrap().as_arr().unwrap().len(), 1);
    }
}
