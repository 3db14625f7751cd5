//! The benchmark's command line.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1
//!     one run of one workload: a metric table, then — as the last line
//!     of standard output — the result object the driver reads
//! benchmark run [--seed N] [--workload W] [--seconds S] [--sets K]
//!               [--traced] [--out FILE]
//!     every workload (or one), K sets of untraced runs and, with
//!     --traced, one traced run each; writes the result file; exits
//!     non-zero if a correctness gate failed
//! benchmark compare A.json B.json
//!     B against A, one row per (metric, workload); exits non-zero on a
//!     regression or a higher failed share
//! benchmark spec
//!     the text of /BENCHMARK.json
//! ```

use quadforest_benchmark::compare::compare;
use quadforest_benchmark::json::Json;
use quadforest_benchmark::report::{self, ResultFile, RunLine, WorkloadResult};
use quadforest_benchmark::spec::WORKLOADS;
use quadforest_benchmark::workloads::{self, RunCfg, Size};
use quadforest_benchmark::{spans, RUN_SECONDS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Trace files, result files and scratch files go here.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The socket backend binds its Unix socket in the temp directory; keep
/// that inside the benchmark's own directory when the path still fits a
/// socket address (108 bytes), so nothing is written outside it.
fn keep_temp_files_local(out: &Path) {
    let tmp = out.join("tmp");
    let longest_socket = tmp.join("quadforest-4194304-99.sock");
    if longest_socket.as_os_str().len() < 100 && std::fs::create_dir_all(&tmp).is_ok() {
        // before any thread exists: set_var is not thread-safe
        std::env::set_var("TMPDIR", &tmp);
    }
}

struct Args(Vec<String>);

impl Args {
    /// Remove `--name value` and return the value.
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.value(name)?
            .map(|v| v.parse().map_err(|_| format!("{name}: cannot read `{v}`")))
            .transpose()
    }

    /// Remove `--name` and say whether it was there.
    fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    fn finish(self) -> Result<Vec<String>, String> {
        match self.0.iter().find(|a| a.starts_with("--")) {
            Some(unknown) => Err(format!("unknown argument: {unknown}")),
            None => Ok(self.0),
        }
    }
}

fn workload_name(name: &str) -> Result<&'static str, String> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .find(|w| *w == name)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload `{name}`; the workloads are {}",
                names.join(", ")
            )
        })
}

/// One run of one workload, in this process.
fn one_run(mut args: Args) -> Result<ExitCode, String> {
    let workload = workload_name(&args.value("--workload")?.ok_or("--workload is required")?)?;
    let seed = args.parsed::<u64>("--seed")?.unwrap_or(1);
    let seconds = args
        .parsed::<f64>("--seconds")?
        .unwrap_or(RUN_SECONDS as f64);
    let traced = match args.value("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    args.finish()?;

    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    quadforest_telemetry::flight::set_postmortem_dir(&out);
    let cfg = RunCfg {
        seed,
        seconds,
        traced,
        worker: std::env::current_exe().map_err(|e| format!("own executable: {e}"))?,
        out_dir: out.clone(),
        size: Size::full(),
    };
    let mut outcome = workloads::run(workload, &cfg).expect("the name was checked");

    if traced {
        let pct = spans::unattributed_pct(&outcome.spans);
        outcome.set("bench.unattributed_pct", pct);
        outcome.set("bench.spans_recorded", outcome.spans.len() as f64);
        // the layers' spans must account for the repetitions' time
        outcome.op(pct <= 5.0, || {
            format!("{pct:.2}% of the root spans' time is covered by no child span (limit 5%)")
        });
        let path = out.join(format!("trace-{workload}.json"));
        let trace = spans::chrome_trace(workload, &outcome.spans).to_compact();
        std::fs::write(&path, trace).map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("trace: {}", path.display());
        for (layer, secs) in spans::layer_self_seconds(&outcome.spans) {
            eprintln!("self time of layer {layer:<8} {secs:>10.4} s");
        }
    }
    for failure in &outcome.failures {
        eprintln!("FAILED: {failure}");
    }
    print!("{}", report::metric_table(workload, &outcome, traced));
    println!("{}", report::result_line(&outcome, traced)?);
    Ok(ExitCode::SUCCESS)
}

/// Run this executable again for one workload and read its result line.
fn child_run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<RunLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("the {workload} run printed no result"))?;
    println!("{table}");
    if !output.status.success() {
        return Err(format!("the {workload} run ended with {}", output.status));
    }
    RunLine::parse(line)
}

fn run_all(mut args: Args) -> Result<ExitCode, String> {
    let seed = args.parsed::<u64>("--seed")?.unwrap_or(1);
    let seconds = args
        .parsed::<f64>("--seconds")?
        .unwrap_or(RUN_SECONDS as f64);
    let sets = args.parsed::<usize>("--sets")?.unwrap_or(1).max(1);
    let traced = args.flag("--traced");
    let only = args
        .value("--workload")?
        .map(|w| workload_name(&w))
        .transpose()?;
    let out = args.value("--out")?.map_or_else(
        || out_dir().join(format!("result-seed{seed}.json")),
        PathBuf::from,
    );
    args.finish()?;

    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|w| only.is_none_or(|o| o == *w))
        .collect();
    let mut workloads: BTreeMap<String, WorkloadResult> = BTreeMap::new();
    // set by set, so slow drift of the machine spreads over all workloads
    for _ in 0..sets {
        for name in &names {
            let run = child_run(name, seed, seconds, false)?;
            workloads
                .entry(name.to_string())
                .or_default()
                .runs
                .push(run);
        }
    }
    if traced {
        for name in &names {
            let run = child_run(name, seed, seconds, true)?;
            workloads.entry(name.to_string()).or_default().traced = Some(run);
        }
    }
    // the kernels ran in the child processes: their traced run counted
    // which SIMD tier the dispatched kernels resolved to
    let simd_calls = ["scalar", "avx2", "bmi2"].map(|tier| {
        workloads
            .get("kernels_paper")
            .and_then(|w| w.traced.as_ref())
            .and_then(|t| t.metrics.get(&format!("core.simd.{tier}_calls")))
            .map_or(0, |&n| n as u64)
    });
    let file = ResultFile {
        provenance: report::provenance(seed, seconds, simd_calls),
        workloads,
    };
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, file.to_json().to_pretty())
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("result file: {}", out.display());
    let wrong: Vec<&String> = file
        .workloads
        .iter()
        .filter(|(_, w)| !w.correct())
        .map(|(name, _)| name)
        .collect();
    if wrong.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("correctness gates failed on: {wrong:?}");
        Ok(ExitCode::FAILURE)
    }
}

fn compare_files(args: Args) -> Result<ExitCode, String> {
    let files = args.finish()?;
    let [a, b] = files.as_slice() else {
        return Err("compare takes two result files".into());
    };
    let read = |path: &String| -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        ResultFile::from_json(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    };
    let comparison = compare(&read(a)?, &read(b)?);
    println!("A (base) = {a}\nB        = {b}");
    print!("{}", comparison.render());
    Ok(if comparison.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    keep_temp_files_local(&out_dir());
    // a rank process of a sockets or TCP world never returns from here
    if workloads::comm::maybe_run_rank_process() {
        return ExitCode::SUCCESS;
    }
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first().map(String::as_str) {
        Some("run" | "compare" | "spec") => args.remove(0),
        _ => String::new(),
    };
    let args = Args(args);
    let result = match command.as_str() {
        "run" => run_all(args),
        "compare" => compare_files(args),
        "spec" => args.finish().map(|_| {
            print!("{}", report::benchmark_json());
            ExitCode::SUCCESS
        }),
        _ => one_run(args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}
