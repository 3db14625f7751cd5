//! Distributed query routing: partition markers decide which rank owns
//! each query, [`Comm::exchange`] scatters the non-local ones.
//!
//! The entry point is **collective**: every rank calls with its own
//! (possibly empty) query list, each rank serves the requests routed to
//! it against its local snapshot, and answers come back positionally.
//! Routing uses only the snapshot's carried partition markers — no
//! global state, no second lookup structure — so a query resolves
//! against the same generation everywhere as long as ranks publish
//! snapshots of the same generation (the caller's contract, typically
//! one publish per AMR generation inside an existing collective
//! section).

use crate::{ForestSnapshot, LeafHit};
use quadforest_comm::Comm;
use quadforest_connectivity::TreeId;
use quadforest_telemetry as telemetry;

/// A point-location answer from the distributed path.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RoutedHit {
    /// Rank that owns (and answered for) the containing leaf.
    pub owner: usize,
    /// The leaf, as seen in the owner's snapshot.
    pub hit: LeafHit,
}

/// Collective batched point location across the whole communicator.
///
/// Each rank passes its own `points`; every point is routed to its
/// owning rank by the snapshot's partition markers, resolved there, and
/// the answers return in input order. `None` marks points outside the
/// domain (invalid tree id or coordinates off the unit tree) — by the
/// markers' covering property every in-domain point has an owner, and
/// on a same-generation snapshot the owner always finds the leaf.
pub fn locate_global(
    comm: &Comm,
    snap: &ForestSnapshot,
    points: &[(TreeId, [i32; 3])],
) -> Vec<Option<RoutedHit>> {
    let _span = telemetry::span("query.route.points");
    let size = comm.size();
    // Route: (original index, tree, point) per owner rank.
    let mut outgoing: Vec<Vec<(u32, TreeId, [i32; 3])>> = vec![Vec::new(); size];
    for (i, &(tree, p)) in points.iter().enumerate() {
        if let Some(owner) = snap.owner_of_point(tree, p) {
            outgoing[owner].push((i as u32, tree, p));
        }
    }
    // Serve each source rank's request list as ONE batched locate: the
    // bucket-windowed kernel searches a few leaves per forwarded point
    // instead of the whole key array.
    let replies = comm.exchange(outgoing, |_src, requests| {
        let batch: Vec<(TreeId, [i32; 3])> =
            requests.iter().map(|&(_, tree, p)| (tree, p)).collect();
        requests
            .iter()
            .map(|&(i, ..)| i)
            .zip(snap.locate_many(&batch))
            .collect::<Vec<(u32, Option<LeafHit>)>>()
    });
    let mut answers: Vec<Option<RoutedHit>> = vec![None; points.len()];
    for (owner, batch) in replies.into_iter().enumerate() {
        for (i, hit) in batch {
            answers[i as usize] = hit.map(|hit| RoutedHit { owner, hit });
        }
    }
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadforest_connectivity::Connectivity;
    use quadforest_core::quadrant::{MortonQuad, Quadrant};
    use quadforest_forest::Forest;
    use std::sync::Arc;

    #[test]
    fn every_point_resolves_across_ranks() {
        quadforest_comm::run(4, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, 3);
            let snap = ForestSnapshot::build(&f, 0);
            let root = MortonQuad::<2>::len_at(0);
            let step = root / 8;
            // every rank asks for the full grid plus one out-of-domain point
            let mut points: Vec<(TreeId, [i32; 3])> = (0..8)
                .flat_map(|i| (0..8).map(move |j| (0u32, [i * step, j * step, 0])))
                .collect();
            points.push((0, [-5, 0, 0]));
            let answers = locate_global(&comm, &snap, &points);
            assert_eq!(answers.len(), 65);
            assert!(answers[64].is_none());
            for (k, a) in answers[..64].iter().enumerate() {
                let a = a.expect("in-domain point must resolve");
                let (tree, p) = points[k];
                assert_eq!(Some(a.owner), snap.owner_of_point(tree, p));
                // the owner's leaf geometrically contains the point
                let shift = 2 * (MortonQuad::<2>::MAX_LEVEL - a.hit.level) as u32;
                let q = MortonQuad::<2>::from_morton(a.hit.key >> shift, a.hit.level);
                assert!(q.contains_point(p), "point {p:?} hit {:?}", a.hit);
            }
        });
    }
}
