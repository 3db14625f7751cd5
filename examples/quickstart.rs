//! Quickstart: the canonical p4est-style opening sequence.
//!
//! Builds a forest over a 2×2 brick of quadtrees on four simulated MPI
//! ranks, refines toward a circle, 2:1-balances, repartitions, builds a
//! ghost layer, iterates the mesh interfaces, writes the mesh as one VTK
//! file per rank, and finally serves spatial queries from an immutable
//! snapshot of the finished mesh — the full high-level workflow the
//! paper's quadrant representations plug into.
//! The representation is chosen once, on the type parameter; everything
//! else is representation-agnostic.
//!
//! Run: `cargo run --release --example quickstart`
//! View: `paraview quickstart_*.vtk`

use quadforest::prelude::*;
use quadforest::vtk::{write_files, VtkOptions};
use std::sync::Arc;

fn main() {
    const RANKS: usize = 4;
    const INIT_LEVEL: u8 = 3;
    const MAX_LEVEL: u8 = 6;

    // The circle we refine toward, in unit coordinates of the brick.
    let center = [1.0, 1.0];
    let radius = 0.55;

    let reports = quadforest::comm::run(RANKS, |comm| {
        // a 2x2 brick of quadtrees — the macro mesh
        let conn = Arc::new(Connectivity::brick2d(2, 2, false, false));

        // The paper's raw Morton representation drives the whole run;
        // swap `Morton2` for `Standard2` or `Avx2d` and every result
        // below stays identical.
        let mut forest = Forest::<Morton2>::new_uniform(conn, &comm, INIT_LEVEL);

        // refine every leaf crossing the circle boundary
        let root_len = Morton2::len_at(0) as f64;
        let crosses_circle = |tree: TreeId, q: &Morton2| {
            let tx = (tree % 2) as f64;
            let ty = (tree / 2) as f64;
            let c = q.coords();
            let h = q.side() as f64 / root_len;
            let x0 = tx + c[0] as f64 / root_len;
            let y0 = ty + c[1] as f64 / root_len;
            // does the leaf box intersect the circle line?
            let (mut dmin, mut dmax) = (0.0f64, 0.0f64);
            for (lo, cc) in [(x0, center[0]), (y0, center[1])] {
                let hi = lo + h;
                let lo_d = lo - cc;
                let hi_d = hi - cc;
                let far = lo_d.abs().max(hi_d.abs());
                let near = if lo_d <= 0.0 && hi_d >= 0.0 {
                    0.0
                } else {
                    lo_d.abs().min(hi_d.abs())
                };
                dmin += near * near;
                dmax += far * far;
            }
            dmin.sqrt() <= radius && dmax.sqrt() >= radius
        };
        forest.refine(&comm, true, |t, q| {
            q.level() < MAX_LEVEL && crosses_circle(t, q)
        });

        let after_refine = forest.global_count();
        let refined_balance = forest.balance(&comm, BalanceKind::Face);
        forest
            .is_balanced_local(BalanceKind::Face)
            .expect("2:1 holds");
        let moved = forest.partition(&comm);
        forest.validate().expect("forest invariants");

        // ghost layer + interface statistics: one pair per fine face
        // segment, hanging where the two levels differ
        let ghost = forest.ghost(&comm, BalanceKind::Face);
        let (mut boundary, mut conforming, mut hanging) = (0u64, 0u64, 0u64);
        iterate_faces(&forest, &ghost, |iface| match iface {
            Interface::Boundary(_) => boundary += 1,
            Interface::Interior(a, b) => {
                if a.quad.level() == b.quad.level() {
                    conforming += 1
                } else {
                    hanging += 1
                }
            }
        });

        // the mesh for ParaView/VisIt, colored by level and owner rank
        let brick = |t: TreeId| [(t % 2) as f64, (t / 2) as f64, 0.0];
        let vtk = VtkOptions {
            embedding: Some(&brick),
            ..VtkOptions::default()
        };
        let files = write_files(&forest, &comm, "quickstart", &vtk).expect("vtk output");
        assert_eq!(files.len(), RANKS);

        // --- serve spatial queries from an immutable snapshot ---------
        // Flatten this generation, publish it through the snapshot
        // handle, and serve batched point location from two worker
        // threads. The AMR loop above could keep adapting and
        // republishing; readers would follow, one generation at a time.
        let handle = SnapshotHandle::new(ForestSnapshot::build(&forest, 1));
        let exec = QueryExecutor::new(Arc::clone(&handle), 2);
        let root = Morton2::len_at(0);
        let diagonal: Vec<(TreeId, [i32; 3])> = (1..8)
            .map(|i| (comm.rank() as TreeId % 4, [i * root / 8, i * root / 8, 0]))
            .collect();
        let local_hits = exec
            .locate_points(diagonal.clone())
            .iter()
            .filter(|h| h.is_some())
            .count();
        // points this rank does not own are routed to their owner over
        // the communicator; every in-domain point resolves somewhere
        let snap = handle.load();
        let routed = quadforest::query::locate_global(&comm, &snap, &diagonal);
        assert!(routed.iter().all(|h| h.is_some()), "diagonal point lost");

        (
            comm.rank(),
            after_refine,
            forest.global_count(),
            refined_balance,
            moved,
            forest.local_count(),
            ghost.len(),
            (boundary, conforming, hanging),
            (local_hits, diagonal.len()),
        )
    });

    println!("quadforest quickstart — 2x2 brick, {RANKS} simulated ranks, raw-Morton quadrants");
    println!(
        "global leaves: {} after refine -> {} after balance",
        reports[0].1, reports[0].2
    );
    for (rank, _, _, bal, moved, local, ghosts, (b, c, h), (hit, asked)) in &reports {
        println!(
            "rank {rank}: {local:5} leaves, {ghosts:3} ghosts, balance refined {bal:3}, \
             partition moved {moved:4} | faces: {b} boundary / {c} conforming pairs / {h} hanging segments \
             | queries: {hit}/{asked} local"
        );
    }
    let total: usize = reports.iter().map(|r| r.5).sum();
    assert_eq!(total as u64, reports[0].2);
    println!("OK: per-rank leaves sum to the global count");
    println!(
        "OK: wrote quickstart_0000.vtk .. quickstart_{:04}.vtk",
        RANKS - 1
    );
    println!("OK: every diagonal query point resolved (locally or routed to its owner)");
}
