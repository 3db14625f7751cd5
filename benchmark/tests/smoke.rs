//! Smoke runs: every workload, untraced and traced, through the same
//! code as the benchmark at about 1/16 of its size (`Size::smoke`).
//! The rank processes of `comm_exchange` are spawned from the real
//! `benchmark` binary, as in a real run.

use quadforest_benchmark::report::{result_line, RunLine};
use quadforest_benchmark::spans;
use quadforest_benchmark::spec::{END_TO_END, PER_LAYER};
use quadforest_benchmark::workloads::{self, RunCfg, Size};
use std::path::PathBuf;

fn cfg(seed: u64, traced: bool) -> RunCfg {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    RunCfg {
        seed,
        seconds: 0.2,
        traced,
        worker: PathBuf::from(env!("CARGO_BIN_EXE_benchmark")),
        out_dir,
        size: Size::smoke(),
    }
}

/// Run `workload` untraced on two seeds and traced on one; check the
/// gates, the result lines and, for the traced run, the named metrics.
fn smoke(workload: &str, must_be_positive: &[&str]) {
    for seed in [1, 2] {
        let out = workloads::run(workload, &cfg(seed, false)).expect("known workload");
        assert_eq!(out.failed, 0, "{workload} seed {seed}: {:?}", out.failures);
        assert!(
            out.attempted >= 2,
            "{workload}: {} operations",
            out.attempted
        );
        let line = RunLine::parse(&result_line(&out, false).unwrap()).unwrap();
        assert!(line.correct);
        for m in &END_TO_END {
            assert!(
                line.metrics[m.name] > 0.0,
                "{workload}.{} = {}",
                m.name,
                line.metrics[m.name]
            );
        }
    }

    let out = workloads::run(workload, &cfg(1, true)).expect("known workload");
    assert_eq!(out.failed, 0, "{workload} traced: {:?}", out.failures);
    let line = RunLine::parse(&result_line(&out, true).unwrap()).unwrap();
    assert_eq!(line.metrics.len(), PER_LAYER.len());
    for name in must_be_positive {
        assert!(
            line.metrics[*name] > 0.0,
            "{workload}: {name} = {}",
            line.metrics[*name]
        );
    }
    // every metric the workload set is one the contract names
    for name in out.metrics.keys() {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{workload} set unknown metric {name}"
        );
    }
    assert!(
        !out.spans.is_empty(),
        "{workload}: the traced run recorded no span"
    );
    assert!(out.spans.iter().all(|s| s.end_ns >= s.start_ns));
    assert!(out
        .spans
        .iter()
        .any(|s| s.parent.is_none() && spans::layer_of(s.name) == "bench"));
    let pct = spans::unattributed_pct(&out.spans);
    assert!(
        (0.0..50.0).contains(&pct),
        "{workload}: {pct}% unattributed"
    );
}

#[test]
fn kernels_paper_smoke() {
    smoke(
        "kernels_paper",
        &[
            "core.child.morton_ns",
            "core.kernel_ns.avx",
            "core.batch.point_keys_all_ns",
            "core.linearize.standard_ns",
            "core.bytes_per_octant.standard",
        ],
    );
}

#[test]
fn amr_shell_smoke() {
    smoke(
        "amr_shell",
        &[
            "forest.balance_s",
            "forest.leaves_after_balance",
            "forest.ghost_count",
            "forest.pipeline_p1_s",
            "forest.balance_standard_s",
            "comm.msgs_per_rep",
            "comm.bytes_per_rep_p4",
        ],
    );
}

#[test]
fn advect_amr_smoke() {
    smoke(
        "advect_amr",
        &[
            "pde.step_s",
            "pde.cells_updated",
            "pde.leaves_final",
            "pde.pipeline_p1_s",
            "forest.checkpoint_bytes",
            "comm.halo_bytes_per_step",
        ],
    );
}

#[test]
fn query_serve_smoke() {
    smoke(
        "query_serve",
        &[
            "query.locate_batch_us_p50",
            "query.box_batch_us_p50",
            "query.locate_many_ns_per_point",
            "query.hit_ratio",
            "query.batches_served",
        ],
    );
}

#[test]
fn comm_exchange_smoke() {
    smoke(
        "comm_exchange",
        &[
            "comm.alltoallv_ms_p50.sockets",
            "comm.alltoallv_ms_p50.tcp",
            "comm.alltoallv_ms_p50.threads",
            "comm.msgs_sent",
            "comm.wire_overhead_ratio",
            "core.crc32_mb_per_s",
        ],
    );
}
