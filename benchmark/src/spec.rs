//! The benchmark's contract: workload names, the end-to-end metrics
//! with unit, direction and regression bound, and the per-layer metric
//! names. `/BENCHMARK.json` states the same table; a test holds the two
//! equal, so the binary needs no file to know its own bounds.

/// Which way a metric gets better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A named workload and the reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "kernels_paper",
        why: "the paper's 2,396,745-octant kernels on 1 thread: only core runs, the control for any change above core",
    },
    WorkloadSpec {
        name: "amr_shell",
        why: "refine-balance-partition-ghost on a 0.4M-leaf 3D shell at P=2 threads: forest::balance dominates, comm and wire idle",
    },
    WorkloadSpec {
        name: "advect_amr",
        why: "the solver loop at P=2: pde::step dominates, and the forest is used through the payload-carrying mapped paths",
    },
    WorkloadSpec {
        name: "query_serve",
        why: "closed-loop point and box batches against snapshots republished every 100 ms: query and core::zrange work, forest and comm idle",
    },
    WorkloadSpec {
        name: "comm_exchange",
        why: "1 MB alltoallv rounds between 2 rank processes on sockets: Wire encode, CRC frames, syscalls and the router dominate",
    },
];

/// An end-to-end metric: reported by every workload of the untraced run.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The end-to-end metrics. Every workload reports every one of them;
/// what an item and an operation are on each workload is stated in
/// `README.md` and in `workloads/*.rs`.
///
/// The two speed metrics are taken at the fast end of the run's own
/// distribution — the 90th percentile of the per-operation rates, the
/// 10th of the latencies — not at its middle: on the shared 2-cpu VM
/// this benchmark runs on, a run's median moves by 10–30 % between runs
/// of the same code as neighbours come and go, the fast decile by a
/// third of that (README, "Steadiness"). Medians and upper percentiles
/// are in the per-layer table and in the `diag.*` lines of every run.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "throughput_p90",
        unit: "Mitem/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p10",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: reported by the traced run, no bound. A metric
/// reads 0 on a workload that does not exercise it.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    // ---- core, on kernels_paper: median ns per octant of each
    // per-quadrant kernel in each representation
    pl("core.from_morton.standard_ns", "ns", Lower),
    pl("core.from_morton.morton_ns", "ns", Lower),
    pl("core.from_morton.avx_ns", "ns", Lower),
    pl("core.child.standard_ns", "ns", Lower),
    pl("core.child.morton_ns", "ns", Lower),
    pl("core.child.avx_ns", "ns", Lower),
    pl("core.face_neighbor.standard_ns", "ns", Lower),
    pl("core.face_neighbor.morton_ns", "ns", Lower),
    pl("core.face_neighbor.avx_ns", "ns", Lower),
    pl("core.parent.standard_ns", "ns", Lower),
    pl("core.parent.morton_ns", "ns", Lower),
    pl("core.parent.avx_ns", "ns", Lower),
    pl("core.sibling.standard_ns", "ns", Lower),
    pl("core.sibling.morton_ns", "ns", Lower),
    pl("core.sibling.avx_ns", "ns", Lower),
    pl("core.tree_boundaries.standard_ns", "ns", Lower),
    pl("core.tree_boundaries.morton_ns", "ns", Lower),
    pl("core.tree_boundaries.avx_ns", "ns", Lower),
    // the paper's headline: the six kernels summed per representation
    pl("core.kernel_ns.standard", "ns", Lower),
    pl("core.kernel_ns.morton", "ns", Lower),
    pl("core.kernel_ns.avx", "ns", Lower),
    // the eight dispatched SoA kernels of core::batch, ns per element
    pl("core.batch.child_all_ns", "ns", Lower),
    pl("core.batch.parent_all_ns", "ns", Lower),
    pl("core.batch.sibling_all_ns", "ns", Lower),
    pl("core.batch.face_neighbor_all_ns", "ns", Lower),
    pl("core.batch.offset_neighbor_all_ns", "ns", Lower),
    pl("core.batch.tree_boundaries_all_ns", "ns", Lower),
    pl("core.batch.sfc_keys_all_ns", "ns", Lower),
    pl("core.batch.point_keys_all_ns", "ns", Lower),
    pl("core.batch_ns_soa", "ns", Lower),
    pl("core.linearize.standard_ns", "ns", Lower),
    pl("core.linearize.morton_ns", "ns", Lower),
    // which SIMD tier the dispatched kernels resolved to
    pl("core.simd.scalar_calls", "count", Higher),
    pl("core.simd.avx2_calls", "count", Higher),
    pl("core.simd.bmi2_calls", "count", Higher),
    pl("core.bytes_per_octant.standard", "B", Lower),
    pl("core.bytes_per_octant.morton", "B", Lower),
    pl("core.bytes_per_octant.avx", "B", Lower),
    // ---- core, on comm_exchange: the encode/decode/CRC stages of one
    // 1 MB alltoallv buffer, called directly
    pl("core.wire.patch_encode_mb_per_s", "MB/s", Higher),
    pl("core.wire.patch_decode_mb_per_s", "MB/s", Higher),
    pl("core.crc32_mb_per_s", "MB/s", Higher),
    // ---- forest, on amr_shell: phase time, slowest rank, median rep
    pl("forest.new_uniform_s", "s", Lower),
    pl("forest.refine_s", "s", Lower),
    pl("forest.balance_s", "s", Lower),
    pl("forest.partition_s", "s", Lower),
    pl("forest.ghost_s", "s", Lower),
    pl("forest.checksum_s", "s", Lower),
    pl("forest.balance_imbalance", "ratio", Lower),
    pl("forest.ghost_imbalance", "ratio", Lower),
    pl("forest.leaves_after_refine", "count", Lower),
    pl("forest.leaves_after_balance", "count", Lower),
    pl("forest.balance_rounds", "count", Lower),
    pl("forest.partition_moved", "count", Lower),
    pl("forest.ghost_count", "count", Lower),
    pl("forest.pipeline_p1_s", "s", Lower),
    pl("forest.parallel_eff_p2", "ratio", Higher),
    pl("forest.balance_standard_s", "s", Lower),
    pl("forest.balance_avx_s", "s", Lower),
    // ---- forest, on advect_amr: the payload-carrying paths
    pl("forest.balance_mapped_s", "s", Lower),
    pl("forest.partition_mapped_s", "s", Lower),
    pl("forest.checkpoint_save_s", "s", Lower),
    pl("forest.checkpoint_load_s", "s", Lower),
    pl("forest.checkpoint_bytes", "B", Lower),
    // ---- comm, on comm_exchange
    pl("comm.alltoallv_ms_p50.sockets", "ms", Lower),
    pl("comm.alltoallv_ms_p50.tcp", "ms", Lower),
    pl("comm.alltoallv_ms_p50.threads", "ms", Lower),
    pl("comm.allreduce_us_p50.sockets", "us", Lower),
    pl("comm.allreduce_us_p50.tcp", "us", Lower),
    pl("comm.allreduce_us_p50.threads", "us", Lower),
    pl("comm.allgather_us_p50.sockets", "us", Lower),
    pl("comm.allgather_us_p50.tcp", "us", Lower),
    pl("comm.allgather_us_p50.threads", "us", Lower),
    pl("comm.spawn_s.sockets", "s", Lower),
    pl("comm.spawn_s.tcp", "s", Lower),
    pl("comm.msgs_sent", "count", Lower),
    pl("comm.bytes_sent", "B", Lower),
    pl("comm.collectives", "count", Lower),
    pl("comm.wire_overhead_ratio", "ratio", Lower),
    pl("comm.reconnects", "count", Lower),
    pl("comm.link_errors", "count", Lower),
    // ---- comm, on amr_shell and advect_amr
    pl("comm.msgs_per_rep", "count", Lower),
    pl("comm.bytes_per_rep", "B", Lower),
    pl("comm.collectives_per_rep", "count", Lower),
    pl("comm.msgs_per_rep_p4", "count", Lower),
    pl("comm.bytes_per_rep_p4", "B", Lower),
    pl("comm.halo_bytes_per_step", "B", Lower),
    pl("comm.msgs_per_step", "count", Lower),
    // ---- query, on query_serve
    pl("query.locate_batch_us_p50", "us", Lower),
    pl("query.locate_batch_us_p99", "us", Lower),
    pl("query.box_batch_us_p50", "us", Lower),
    pl("query.publish_ms_p50", "ms", Lower),
    pl("query.snapshot_build_ms_p50", "ms", Lower),
    pl("query.publish_us_p50", "us", Lower),
    pl("query.locate_many_ns_per_point", "ns", Lower),
    pl("query.locate_single_ns", "ns", Lower),
    pl("query.query_boxes_us_per_box", "us", Lower),
    pl("query.executor_overhead_us", "us", Lower),
    pl("query.locate_batch_us_p50_static", "us", Lower),
    pl("query.locate_ns_per_point.b64", "ns", Lower),
    pl("query.locate_ns_per_point.b4096", "ns", Lower),
    pl("query.locate_ns_per_point.b262144", "ns", Lower),
    pl("query.hit_ratio", "ratio", Higher),
    pl("query.hits_per_box", "count", Lower),
    pl("query.batches_served", "count", Higher),
    pl("query.generations_seen", "count", Higher),
    // ---- pde, on advect_amr
    pl("pde.step_s", "s", Lower),
    pl("pde.adapt_s", "s", Lower),
    pl("pde.migrate_s", "s", Lower),
    pl("pde.cfl_dt_s", "s", Lower),
    pl("pde.step_share", "ratio", Higher),
    pl("pde.step_imbalance", "ratio", Lower),
    pl("pde.leaves_final", "count", Lower),
    pl("pde.cells_updated", "count", Higher),
    pl("pde.adapt_refined", "count", Lower),
    pl("pde.adapt_coarsened", "count", Lower),
    pl("pde.migrated_bytes", "B", Lower),
    pl("pde.mass_drift", "ratio", Lower),
    pl("pde.pipeline_p1_s", "s", Lower),
    pl("pde.parallel_eff_p2", "ratio", Higher),
    // ---- every workload: what looking costs, and what no layer owns
    pl("telemetry.enabled_overhead_pct", "%", Lower),
    pl("telemetry.spans_recorded", "count", Lower),
    pl("telemetry.spans_dropped", "count", Lower),
    pl("bench.spans_recorded", "count", Lower),
    pl("bench.unattributed_pct", "%", Lower),
];

/// Per-layer metrics that are exact counts: with the same seed they must
/// repeat bit for bit between runs and between commits that do not mean
/// to change them. `compare` lists the ones that differ.
pub const EXACT_COUNTS: &[&str] = &[
    "core.bytes_per_octant.standard",
    "core.bytes_per_octant.morton",
    "core.bytes_per_octant.avx",
    "forest.leaves_after_refine",
    "forest.leaves_after_balance",
    "forest.balance_rounds",
    "forest.partition_moved",
    "forest.ghost_count",
    "comm.msgs_sent",
    "comm.bytes_sent",
    "comm.collectives",
    "comm.msgs_per_rep",
    "comm.bytes_per_rep",
    "comm.collectives_per_rep",
    "comm.msgs_per_rep_p4",
    "comm.bytes_per_rep_p4",
    "pde.leaves_final",
    "pde.cells_updated",
    "pde.adapt_refined",
    "pde.adapt_coarsened",
    "pde.migrated_bytes",
];

/// The end-to-end entry called `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_within_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        for name in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.name == *name), "{name}");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `/BENCHMARK.json` is what the driver reads; this table is what the
    /// binary prints and `compare` judges by. They must say the same.
    #[test]
    fn benchmark_json_states_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(
                (field(j, "name"), field(j, "why")),
                (w.name.into(), w.why.into())
            );
        }
        let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
        }
        let secs = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert_eq!(secs, crate::RUN_SECONDS as f64);
    }
}
