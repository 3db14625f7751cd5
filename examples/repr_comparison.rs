//! Representation comparison: run the *identical* AMR pipeline under all
//! three quadrant representations and verify they produce bit-identical
//! meshes while differing in speed and memory — the user-facing payoff
//! of the paper's virtual quadrant interface.
//!
//! Run: `cargo run --release --example repr_comparison`

use quadforest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

const RANKS: usize = 4;
const INIT_LEVEL: u8 = 2;
const MAX_LEVEL: u8 = 5;

/// The shared pipeline, generic over the representation. Returns the
/// global checksum (identical across representations), the wall time,
/// and the local leaf bytes.
fn pipeline<Q: Quadrant>() -> (u64, Duration, usize) {
    let results = quadforest::comm::run(RANKS, |comm| {
        let start = Instant::now();
        let conn = Arc::new(Connectivity::brick3d(2, 1, 1, [false; 3]));
        let mut forest = Forest::<Q>::new_uniform(conn, &comm, INIT_LEVEL);
        let center = [Q::len_at(0) / 2, Q::len_at(0) / 2, Q::len_at(0) / 2];
        forest.refine(&comm, true, |t, q| {
            t == 0 && q.level() < MAX_LEVEL && q.contains_point(center)
        });
        forest.balance(&comm, BalanceKind::Face);
        forest.partition(&comm);
        let ghost = forest.ghost(&comm, BalanceKind::Face);
        let mut faces = 0u64;
        iterate_faces(&forest, &ghost, |_| faces += 1);
        let checksum = forest.checksum(&comm) ^ comm.allreduce_sum(faces);
        let bytes = forest.local_count() * std::mem::size_of::<Q>();
        (checksum, start.elapsed(), bytes)
    });
    let checksum = results[0].0;
    assert!(results.iter().all(|r| r.0 == checksum));
    let time = results.iter().map(|r| r.1).max().unwrap();
    let bytes = results.iter().map(|r| r.2).sum();
    (checksum, time, bytes)
}

fn main() {
    println!("identical AMR pipeline (refine->balance->partition->ghost->iterate)");
    println!("under all three quadrant representations, {RANKS} ranks, 2x1x1 brick of octrees\n");
    println!("| representation | checksum | wall time (ms) | leaf bytes | bytes/leaf |");
    println!("|---|---|---|---|---|");

    let rows = [
        ("standard (24 B)", pipeline::<Standard3>()),
        ("raw Morton (8 B)", pipeline::<Morton3>()),
        ("AVX2 / 128-bit (16 B)", pipeline::<Avx3d>()),
    ];

    let reference = rows[0].1 .0;
    for (name, (checksum, time, bytes)) in &rows {
        println!(
            "| {name} | {checksum:016x} | {:.2} | {bytes} | — |",
            time.as_secs_f64() * 1e3
        );
        assert_eq!(
            checksum, &reference,
            "representations must produce identical meshes"
        );
    }
    println!("\nOK: all three representations produced the identical global mesh");
    println!("    (checksum covers every leaf position, level and interface count)");
    let std_bytes = rows[0].1 .2 as f64;
    let mor_bytes = rows[1].1 .2 as f64;
    let avx_bytes = rows[2].1 .2 as f64;
    println!(
        "memory ratio standard : avx : morton = {:.2} : {:.2} : 1  (paper: 3 : 2 : 1)",
        std_bytes / mor_bytes,
        avx_bytes / mor_bytes
    );
}
