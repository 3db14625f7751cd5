//! Ghost (halo) layer construction.
//!
//! The ghost layer of a rank is the set of *remote* leaves whose closed
//! domain touches the closed domain of at least one local leaf — p4est's
//! `p4est_ghost_new` with `P4EST_CONNECT_FULL` (or `_FACE` for face-only
//! adjacency). Construction is one exchange, each owner finding its
//! own *mirrors* — the local leaves another rank holds as ghosts:
//!
//! 1. a top-down search discards each subtree whose whole neighborhood
//!    this rank owns; a *boundary* leaf the search reaches is a mirror
//!    for each other owner of a same-size neighbor domain whose part of
//!    the curve holds a maximum-level cell of that domain touching the
//!    leaf (one BIGMIN step over the domain's contact layer);
//! 2. one `alltoallv` ships each rank its mirrors, found in SFC order;
//!    owners hold consecutive runs of the curve, so the replies
//!    concatenated in rank order are the sorted ghost array.
//!
//! Mirrors and ghosts list the same leaves in the same order on both
//! ends, so [`GhostLayer::exchange_data`] ships values only — no keys,
//! no request round.
//!
//! The search steps to neighbors in key space and reads the contact
//! layer off the domain's span (`directions::axis_digits`); only a
//! contact across a tree face is resolved in coordinates, so the
//! algorithm is identical for every quadrant representation, including
//! the sign-free raw-Morton layouts.

use crate::directions::{axis_digits, neighbor_domain, neighbor_index, offsets, step_index};
use crate::{index_span, key_span, Forest, SearchAction};
use quadforest_comm::Comm;
use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::Quadrant;
use quadforest_core::zrange::{next_in_box, point_key};
use std::ops::Range;

/// A ghost quadrant: a remote leaf adjacent to the local domain.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GhostQuad<Q: Quadrant> {
    /// Rank owning the leaf.
    pub owner: usize,
    /// Tree containing the leaf.
    pub tree: u32,
    /// The remote leaf itself.
    pub quad: Q,
}

/// The ghost layer of a forest on one rank. It indexes into the forest
/// it was built from: rebuild it after any refine, coarsen, balance or
/// partition.
#[derive(Clone, Debug)]
pub struct GhostLayer<Q: Quadrant> {
    /// Ghosts sorted by `(tree, SFC position, level)`, deduplicated.
    /// [`LeafRef::Ghost(i)`](crate::LeafRef) names `ghosts[i]`.
    pub ghosts: Vec<GhostQuad<Q>>,
    /// `mirrors[r]`: the local leaves rank `r` holds as ghosts, as
    /// sorted, deduplicated indices in [`Forest::leaves`] order. They
    /// are, in order, exactly the entries of `r`'s `ghosts` owned by
    /// this rank. Empty for a default (serial) layer.
    pub mirrors: Vec<Vec<usize>>,
    /// `local_count` of the forest the layer was built from.
    local_count: usize,
}

impl<Q: Quadrant> Default for GhostLayer<Q> {
    fn default() -> Self {
        Self {
            ghosts: Vec::new(),
            mirrors: Vec::new(),
            local_count: 0,
        }
    }
}

impl<Q: Quadrant> GhostLayer<Q> {
    /// Number of ghosts.
    pub fn len(&self) -> usize {
        self.ghosts.len()
    }

    /// True when no ghosts exist (serial run or isolated rank).
    pub fn is_empty(&self) -> bool {
        self.ghosts.is_empty()
    }

    /// The index range in `ghosts` of the ghosts of `tree` whose subtree
    /// overlaps the key span `(first, last)`, as
    /// [`overlapping`](crate::overlapping) finds local leaves.
    pub(crate) fn overlapping(&self, tree: u32, (first, last): (u64, u64)) -> Range<usize> {
        let lo = self
            .ghosts
            .partition_point(|g| (g.tree, key_span(&g.quad).1) < (tree, first));
        let hi = self
            .ghosts
            .partition_point(|g| (g.tree, g.quad.morton_abs()) <= (tree, last));
        lo..hi
    }
}

impl<Q: Quadrant> Forest<Q> {
    /// Build the ghost layer (collective).
    pub fn ghost(&self, comm: &Comm, kind: crate::BalanceKind) -> GhostLayer<Q> {
        let _span = quadforest_telemetry::span("ghost");

        // mirrors, from a top-down search that steps to every same-size
        // neighbor domain in key space. It prunes each subtree whose own
        // key span and that of each neighbor domain lie in this rank's
        // range: a neighbor domain of any leaf below the node lies in the
        // node or in one of those domains (`None` = no forest there), so
        // none is remote.
        let (offs, conn) = (offsets(Q::DIM, kind), self.connectivity());
        let local = |tree: u32, (first, last): (u64, u64)| {
            self.is_local_position((tree, first)) && self.is_local_position((tree, last))
        };
        // does rank `r` own a cell of `tree` in the key box `zmin..=zmax`?
        let holds = |r: usize, tree: u32, (zmin, zmax): (u64, u64)| {
            let (from, to) = (self.markers[r], self.markers[r + 1]);
            let start = zmin.max(from.1 * (from.0 == tree) as u64);
            next_in_box(start, zmin, zmax, Q::DIM).is_some_and(|z| (tree, z) < to)
        };
        let (mut mirrors, mut replies) = (vec![Vec::new(); self.size], vec![Vec::new(); self.size]);
        // the search meets leaves in curve order: `at` is the next one's
        // index in `leaves()` order, and each rank's mirrors come sorted
        let mut at = 0;
        if self.size > 1 {
            self.search(|t, node, inside, is_leaf| {
                let (i, level) = (node.morton_index(), node.level());
                let mut interior = local(t, key_span(node));
                for &off in &offs {
                    if !(interior || is_leaf) {
                        break;
                    }
                    let Some((nt, ni)) = neighbor_index::<Q>(conn, t, i, level, off) else {
                        continue;
                    };
                    let span = index_span::<Q>(ni, level);
                    if local(nt, span) {
                        continue;
                    }
                    interior = false;
                    if is_leaf {
                        let cells = contact_cells::<Q>(conn, t, node, span, off);
                        for r in self.owners_of_span(nt, span) {
                            if r != self.rank
                                && mirrors[r].last() != Some(&at)
                                && holds(r, nt, cells)
                            {
                                mirrors[r].push(at);
                                replies[r].push((t, *node));
                            }
                        }
                    }
                }
                at += inside.len() * (is_leaf || interior) as usize;
                if interior {
                    SearchAction::Prune
                } else {
                    SearchAction::Continue
                }
            });
        }
        let shipped = mirrors.iter().map(Vec::len).sum::<usize>();
        quadforest_telemetry::counter_add("forest.ghost.mirrors", shipped as u64);
        let mut ghosts: Vec<GhostQuad<Q>> = Vec::new();
        for (owner, reply) in comm.alltoallv(replies).into_iter().enumerate() {
            let ghost = |(tree, quad)| GhostQuad { owner, tree, quad };
            ghosts.extend(reply.into_iter().map(ghost));
        }
        debug_assert!(ghosts
            .windows(2)
            .all(|w| (w[0].tree, w[0].quad.morton_abs()) < (w[1].tree, w[1].quad.morton_abs())));
        quadforest_telemetry::gauge_set("forest.ghost.size", ghosts.len() as u64);
        self.guard_phase("ghost");
        GhostLayer {
            ghosts,
            mirrors,
            local_count: self.local_count(),
        }
    }
}

/// The key box of the maximum-level cells of `node`'s neighbor domain
/// along `off` (key span `zmin..=zmax`) that touch `node`: one layer on
/// each axis the offset moves, read off the span — across a tree face,
/// off the domain's contact box.
fn contact_cells<Q: Quadrant>(
    conn: &Connectivity,
    tree: u32,
    node: &Q,
    (mut zmin, mut zmax): (u64, u64),
    off: [i32; 3],
) -> (u64, u64) {
    if step_index::<Q>(node.morton_index(), node.level(), off).is_none() {
        let dom = neighbor_domain(conn, tree, node, off).expect("a domain in the forest");
        let (c, h, b) = (dom.coords, node.side(), dom.contact);
        let lo = std::array::from_fn(|a| c[a].max(b.lo[a] - 1));
        let hi = std::array::from_fn(|a| (c[a] + h - 1).min(b.hi[a]));
        return (point_key(lo, Q::DIM), point_key(hi, Q::DIM));
    }
    for (a, &o) in off.iter().enumerate() {
        let m = axis_digits::<Q>(a, zmax - zmin);
        match o {
            1 => zmax &= !m,
            -1 => zmin |= m,
            _ => {}
        }
    }
    (zmin, zmax)
}

impl<Q: Quadrant> GhostLayer<Q> {
    /// Exchange per-leaf application data: every ghost receives the
    /// value its owner holds for that leaf — the
    /// `p4est_ghost_exchange_data` equivalent. `local_data` must hold
    /// one value per local leaf of the forest this layer was built from,
    /// in [`Forest::leaves`] order; the result holds one value per ghost
    /// in `ghosts` order. One `alltoallv` of the mirrors' values.
    /// Collective.
    ///
    /// # Panics
    /// When `local_data` does not match the leaf count the layer was
    /// built from, or a peer's layer is out of step with this one — the
    /// layer is stale: some rank's mesh or partition changed since
    /// [`Forest::ghost`].
    pub fn exchange_data<T: Clone + quadforest_core::Wire + Send + 'static>(
        &self,
        comm: &Comm,
        local_data: &[T],
    ) -> Vec<T> {
        assert_eq!(
            local_data.len(),
            self.local_count,
            "one datum per local leaf of the forest the ghost layer was built from required"
        );
        let outgoing: Vec<Vec<T>> = self
            .mirrors
            .iter()
            .map(|m| m.iter().map(|&i| local_data[i].clone()).collect())
            .collect();
        // each owner's answer lists its leaves in SFC order, as `ghosts`
        // does: one forward cursor per owner scatters them
        let mut answers: Vec<_> = comm
            .alltoallv(outgoing)
            .into_iter()
            .map(Vec::into_iter)
            .collect();
        let ghost_data = self
            .ghosts
            .iter()
            .map(|g| {
                answers[g.owner].next().unwrap_or_else(|| {
                    panic!("stale ghost layer: rank {} sent too few values", g.owner)
                })
            })
            .collect();
        for (owner, rest) in answers.iter().enumerate() {
            assert_eq!(
                rest.len(),
                0,
                "stale ghost layer: rank {owner} sent too many values"
            );
        }
        ghost_data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directions::tests::ClosedBox;
    use crate::directions::Box3;
    use crate::overlapping;
    use crate::BalanceKind;
    use quadforest_core::quadrant::{AvxQuad, MortonQuad, StandardQuad};
    use std::sync::Arc;

    type Q2 = StandardQuad<2>;
    type Q3 = StandardQuad<3>;

    /// The parent commit's two-round exchange, kept as the oracle of
    /// [`Forest::ghost`]: a boundary leaf asks the owners of each remote
    /// neighbor domain for their leaves touching the contact box, and
    /// the owners' answers are both their mirrors and the ghosts.
    fn two_round_ghost<Q: Quadrant>(
        f: &Forest<Q>,
        comm: &Comm,
        kind: BalanceKind,
    ) -> GhostLayer<Q> {
        let (offs, conn) = (offsets(Q::DIM, kind), f.connectivity());
        let local = |tree: u32, (first, last): (u64, u64)| {
            f.is_local_position((tree, first)) && f.is_local_position((tree, last))
        };
        let mut outgoing: Vec<Vec<(u32, [i32; 3], u8, ([i32; 3], [i32; 3]))>> =
            vec![Vec::new(); f.size];
        if f.size > 1 {
            f.search(|t, node, _, is_leaf| {
                let (i, level) = (node.morton_index(), node.level());
                let mut interior = local(t, key_span(node));
                for &off in &offs {
                    if !(interior || is_leaf) {
                        break;
                    }
                    let Some((nt, ni)) = neighbor_index::<Q>(conn, t, i, level, off) else {
                        continue;
                    };
                    let span = index_span::<Q>(ni, level);
                    if local(nt, span) {
                        continue;
                    }
                    interior = false;
                    if is_leaf {
                        let dom = neighbor_domain(conn, t, node, off).unwrap();
                        for r in f.owners_of_span(nt, span).filter(|&r| r != f.rank) {
                            let contact = (dom.contact.lo, dom.contact.hi);
                            outgoing[r].push((dom.tree, dom.coords, dom.level, contact));
                        }
                    }
                }
                if interior {
                    SearchAction::Prune
                } else {
                    SearchAction::Continue
                }
            });
        }
        for reqs in &mut outgoing {
            reqs.sort_unstable_by_key(|&(t, c, l, b)| (t, l, c, b));
            reqs.dedup();
        }
        let first = f.tree_offsets();
        let (mut mirrors, mut replies) = (Vec::new(), Vec::new());
        for reqs in comm.alltoallv(outgoing) {
            let mut hits: Vec<(u32, usize)> = Vec::new();
            for (tree, coords, level, (lo, hi)) in reqs {
                let (dom, contact) = (Q::from_coords(coords, level), Box3 { lo, hi });
                for i in overlapping(&f.trees[tree as usize], key_span(&dom)) {
                    if Box3::of_quad(&f.trees[tree as usize][i]).intersects(&contact, Q::DIM) {
                        hits.push((tree, i));
                    }
                }
            }
            hits.sort_unstable();
            hits.dedup();
            let reply: Vec<(u32, Q)> = hits
                .iter()
                .map(|&(t, i)| (t, f.trees[t as usize][i]))
                .collect();
            replies.push(reply);
            mirrors.push(hits.iter().map(|&(t, i)| first[t as usize] + i).collect());
        }
        let ghosts = (comm.alltoallv(replies).into_iter().enumerate())
            .flat_map(|(owner, reply)| {
                reply
                    .into_iter()
                    .map(move |(tree, quad)| GhostQuad { owner, tree, quad })
            })
            .collect();
        GhostLayer {
            ghosts,
            mirrors,
            local_count: f.local_count(),
        }
    }

    fn mix(seed: u64, t: u32, q: u64, level: u8) -> u64 {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for w in [t as u64, q, level as u64] {
            h = (h ^ w).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            h ^= h >> 33;
        }
        h
    }

    /// One grid case: a seeded recursive refinement (steep level jumps,
    /// never balanced), partitioned on even seeds; ghosts and mirrors
    /// must be the two-round exchange's at both adjacencies.
    fn is_the_two_round_exchange<Q: Quadrant>(conn: &Connectivity, ranks: usize, seed: u64) {
        let max_level = if Q::DIM == 2 { 4 } else { 3 };
        let conn = Arc::new(conn.clone());
        quadforest_comm::run(ranks, move |comm| {
            let mut f = Forest::<Q>::new_uniform(Arc::clone(&conn), &comm, 1);
            f.refine(&comm, true, |t, q| {
                q.level() < max_level && mix(seed, t, q.morton_abs(), q.level()) % 3 == 0
            });
            if seed % 2 == 0 {
                f.partition(&comm);
            }
            for kind in [BalanceKind::Face, BalanceKind::Full] {
                let (got, want) = (f.ghost(&comm, kind), two_round_ghost(&f, &comm, kind));
                let what = format!("{} P={ranks} seed {seed} {kind:?}", Q::NAME);
                assert_eq!(got.ghosts, want.ghosts, "{what}: ghosts");
                assert_eq!(got.mirrors, want.mirrors, "{what}: mirrors");
                let count = comm.allreduce_sum(got.len() as u64);
                assert_eq!(count > 0, ranks > 1, "{what}");
            }
        });
    }

    /// A leaf one maximum-level cell away from the only cell another
    /// rank holds in its neighbor domain is no mirror for that rank: the
    /// contact is one cell thick. For each axis the lone cell is the last
    /// of the `2^d` maximum-level cells next to the tree corner that is
    /// low on that axis and high on the others, so that every other leaf
    /// touching the leaf beside them on that axis comes earlier on the
    /// curve — or, mirrored through the centre, the first of them, and
    /// every other such leaf later. A filler path and the rank count put
    /// a rank boundary right at it. The grid's meshes have no such leaf.
    fn one_cell_past_the_contact_is_no_contact<Q: Quadrant>() {
        let (top, root) = (Q::MAX_LEVEL, Q::len_at(0));
        for (axis, mirrored) in (0..Q::DIM as usize).flat_map(|a| [(a, false), (a, true)]) {
            let at_corner = |c: i32| if mirrored { root - 1 - c } else { c };
            let lone: [i32; 3] = std::array::from_fn(|a| match a {
                _ if a >= Q::DIM as usize => 0,
                _ if a == axis => at_corner(3),
                _ => at_corner(root - 1),
            });
            let filler = std::array::from_fn(|a| at_corner(0) * (a < Q::DIM as usize) as i32);
            let build = move |comm: &Comm, depth: u8| {
                let conn = Arc::new(Connectivity::unit(Q::DIM));
                let mut f = Forest::<Q>::new_uniform(conn, comm, 0);
                f.refine(comm, true, |_, q| {
                    q.level() < top && q.contains_point(lone)
                        || q.level() < depth && q.contains_point(filler)
                });
                f.partition(comm);
                f
            };
            let start = (1..top).find_map(|depth| {
                let all =
                    quadforest_comm::run(1, move |comm| build(&comm, depth).gather_all(&comm));
                let at = all[0].iter().position(|(_, q)| q.coords() == lone).unwrap();
                let (n, cut) = (all[0].len(), at + mirrored as usize);
                (2..=8)
                    .find(|&p| (1..p).any(|r| n * r / p == cut))
                    .map(|p| (depth, p))
            });
            let what = format!("{} axis {axis} mirrored {mirrored}", Q::NAME);
            let (depth, ranks) = start.expect(&what);
            quadforest_comm::run(ranks, move |comm| {
                let f = build(&comm, depth);
                for kind in [BalanceKind::Face, BalanceKind::Full] {
                    let (got, want) = (f.ghost(&comm, kind), two_round_ghost(&f, &comm, kind));
                    assert_eq!(got.mirrors, want.mirrors, "{what} {kind:?}");
                    assert_eq!(got.ghosts, want.ghosts, "{what} {kind:?}");
                }
            });
        }
    }

    /// The one-cell contact above for every representation, then the 9
    /// connectivities of `balance_oracle.rs` × P ∈ {1, 2, 3, 4, 8} ×
    /// face/full, representations in turn.
    #[test]
    fn ghost_is_the_two_round_exchange() {
        one_cell_past_the_contact_is_no_contact::<Q2>();
        one_cell_past_the_contact_is_no_contact::<MortonQuad<2>>();
        one_cell_past_the_contact_is_no_contact::<AvxQuad<2>>();
        one_cell_past_the_contact_is_no_contact::<Q3>();
        one_cell_past_the_contact_is_no_contact::<MortonQuad<3>>();
        one_cell_past_the_contact_is_no_contact::<AvxQuad<3>>();
        let mut case = 0u64;
        for conn in [
            Connectivity::unit(2),
            Connectivity::periodic(2),
            Connectivity::brick2d(3, 2, false, false),
            Connectivity::two_trees_2d(1),
            Connectivity::two_trees_rotated_2d(),
            Connectivity::unit(3),
            Connectivity::periodic(3),
            Connectivity::brick3d(2, 1, 2, [false; 3]),
            Connectivity::two_trees_rotated_3d(),
        ] {
            for ranks in [1usize, 2, 3, 4, 8] {
                match (conn.dim(), case % 3) {
                    (2, 0) => is_the_two_round_exchange::<Q2>(&conn, ranks, case),
                    (2, 1) => is_the_two_round_exchange::<MortonQuad<2>>(&conn, ranks, case),
                    (2, _) => is_the_two_round_exchange::<AvxQuad<2>>(&conn, ranks, case),
                    (_, 0) => is_the_two_round_exchange::<Q3>(&conn, ranks, case),
                    (_, 1) => is_the_two_round_exchange::<MortonQuad<3>>(&conn, ranks, case),
                    _ => is_the_two_round_exchange::<AvxQuad<3>>(&conn, ranks, case),
                }
                case += 1;
            }
        }
    }

    /// Brute-force reference: gather everything everywhere and compute
    /// each rank's ghost layer by definition (closed-domain contact,
    /// including across tree faces).
    fn reference_ghosts<Q: Quadrant>(
        f: &Forest<Q>,
        comm: &Comm,
        adjacency: BalanceKind,
    ) -> Vec<(u32, [i32; 3], u8)> {
        let all: Vec<(usize, u32, Q)> = comm
            .allgather(
                f.leaves()
                    .map(|(t, q)| (comm.rank(), t, *q))
                    .collect::<Vec<_>>(),
            )
            .into_iter()
            .flatten()
            .collect();
        let mut out = Vec::new();
        for (owner, gt, g) in &all {
            if *owner == comm.rank() {
                continue;
            }
            // is g adjacent to any local leaf? test via the local leaf's
            // neighbor domains (handles tree crossings symmetrically)
            let mut adjacent = false;
            'outer: for (t, q) in f.leaves() {
                for off in offsets(Q::DIM, adjacency) {
                    if let Some(dom) = neighbor_domain(f.connectivity(), t, q, off) {
                        if dom.tree == *gt {
                            let gb = Box3::of_quad(g);
                            let probe = Q::from_coords(dom.coords, dom.level);
                            if (probe.is_ancestor_of(g) || g.is_ancestor_of(&probe) || probe == *g)
                                && gb.intersects(&dom.contact, Q::DIM)
                            {
                                adjacent = true;
                                break 'outer;
                            }
                        }
                    }
                }
            }
            if adjacent {
                out.push((*gt, g.coords(), g.level()));
            }
        }
        out.sort();
        out.dedup();
        out
    }

    fn ghost_as_tuples<Q: Quadrant>(g: &GhostLayer<Q>) -> Vec<(u32, [i32; 3], u8)> {
        let mut v: Vec<_> = g
            .ghosts
            .iter()
            .map(|g| (g.tree, g.quad.coords(), g.quad.level()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn serial_run_has_no_ghosts() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(3));
            let f = Forest::<Q3>::new_uniform(conn, &comm, 2);
            let g = f.ghost(&comm, BalanceKind::Full);
            assert!(g.is_empty());
        });
    }

    #[test]
    fn uniform_ghosts_match_reference() {
        for p in [2usize, 4, 7] {
            quadforest_comm::run(p, |comm| {
                let conn = Arc::new(Connectivity::unit(2));
                let f = Forest::<Q2>::new_uniform(conn, &comm, 3);
                let g = f.ghost(&comm, BalanceKind::Full);
                assert_eq!(
                    ghost_as_tuples(&g),
                    reference_ghosts(&f, &comm, BalanceKind::Full),
                    "P = {p}"
                );
            });
        }
    }

    #[test]
    fn adaptive_ghosts_match_reference() {
        quadforest_comm::run(3, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 2);
            f.refine(&comm, true, |_, q| q.coords()[0] == 0 && q.level() < 4);
            f.balance(&comm, BalanceKind::Face);
            f.partition(&comm);
            let g = f.ghost(&comm, BalanceKind::Full);
            assert_eq!(
                ghost_as_tuples(&g),
                reference_ghosts(&f, &comm, BalanceKind::Full)
            );
        });
    }

    /// Seeded adaptive forests that are *not* 2:1 balanced, partitioned
    /// or left as refined (at P = 16 most ranks then own nothing): the
    /// boundary-leaf search must not lose a mirror on any of them.
    fn unbalanced_ghosts_match_reference<Q: Quadrant>(conn: Connectivity, max_level: u8) {
        let conn = Arc::new(conn);
        for (p, seed) in [(2usize, 1u64), (3, 2), (7, 3), (16, 4), (16, 5)] {
            let conn = conn.clone();
            quadforest_comm::run(p, move |comm| {
                let mut f = Forest::<Q>::new_uniform(conn.clone(), &comm, 1);
                f.refine(&comm, true, |t, q| {
                    let mut h = seed;
                    for w in [t as u64, q.morton_abs(), q.level() as u64] {
                        h = (h ^ w).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                        h ^= h >> 33;
                    }
                    q.level() < max_level && h % 5 < 2
                });
                if seed % 2 == 0 {
                    f.partition(&comm);
                }
                for kind in [BalanceKind::Face, BalanceKind::Full] {
                    assert_eq!(
                        ghost_as_tuples(&f.ghost(&comm, kind)),
                        reference_ghosts(&f, &comm, kind),
                        "P = {p}, seed {seed}, {kind:?}"
                    );
                }
            });
        }
    }

    #[test]
    fn unbalanced_ghosts_match_reference_periodic() {
        unbalanced_ghosts_match_reference::<MortonQuad<2>>(Connectivity::periodic(2), 5);
    }

    #[test]
    fn unbalanced_ghosts_match_reference_rotated() {
        unbalanced_ghosts_match_reference::<Q2>(Connectivity::two_trees_rotated_2d(), 5);
    }

    #[test]
    fn unbalanced_ghosts_match_reference_brick3d() {
        unbalanced_ghosts_match_reference::<Q3>(Connectivity::brick3d(2, 1, 2, [false; 3]), 3);
    }

    #[test]
    fn face_ghosts_are_subset_of_full() {
        quadforest_comm::run(4, |comm| {
            let conn = Arc::new(Connectivity::unit(3));
            let f = Forest::<Q3>::new_uniform(conn, &comm, 2);
            let gf = ghost_as_tuples(&f.ghost(&comm, BalanceKind::Face));
            let gc = ghost_as_tuples(&f.ghost(&comm, BalanceKind::Full));
            assert!(gf.iter().all(|x| gc.contains(x)));
            assert!(gf.len() <= gc.len());
            assert_eq!(gf, reference_ghosts(&f, &comm, BalanceKind::Face));
        });
    }

    #[test]
    fn multitree_ghosts_cross_tree_faces() {
        quadforest_comm::run(2, |comm| {
            let conn = Arc::new(Connectivity::brick2d(2, 1, false, false));
            let f = Forest::<Q2>::new_uniform(conn, &comm, 2);
            // rank 0 owns tree 0, rank 1 owns tree 1 (16 leaves each)
            let g = f.ghost(&comm, BalanceKind::Face);
            assert_eq!(
                ghost_as_tuples(&g),
                reference_ghosts(&f, &comm, BalanceKind::Face)
            );
            // the ghosts must live in the *other* tree and hug the
            // shared face
            for gq in &g.ghosts {
                assert_ne!(gq.owner, comm.rank());
            }
            assert!(!g.is_empty());
        });
    }

    #[test]
    fn morton_representation_ghosts_identical_to_standard() {
        let reference = quadforest_comm::run(3, |comm| {
            let conn = Arc::new(Connectivity::unit(3));
            let f = Forest::<Q3>::new_uniform(conn, &comm, 2);
            ghost_as_tuples(&f.ghost(&comm, BalanceKind::Full))
        });
        let morton = quadforest_comm::run(3, |comm| {
            let conn = Arc::new(Connectivity::unit(3));
            let f = Forest::<MortonQuad<3>>::new_uniform(conn, &comm, 2);
            ghost_as_tuples(&f.ghost(&comm, BalanceKind::Full))
        });
        assert_eq!(reference, morton);
    }

    #[test]
    fn exchange_data_delivers_owner_values() {
        quadforest_comm::run(3, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 3);
            f.refine(&comm, false, |_, q| q.morton_index() % 5 == 0);
            let g = f.ghost(&comm, BalanceKind::Full);
            // each leaf's datum is its identity key; ghosts must receive
            // exactly the key of the remote leaf they mirror
            let local: Vec<(usize, u32, u64, u8)> = f
                .leaves()
                .map(|(t, q)| (comm.rank(), t, q.morton_abs(), q.level()))
                .collect();
            let ghost_data = g.exchange_data(&comm, &local);
            assert_eq!(ghost_data.len(), g.len());
            for (gq, datum) in g.ghosts.iter().zip(&ghost_data) {
                assert_eq!(
                    datum,
                    &(gq.owner, gq.tree, gq.quad.morton_abs(), gq.quad.level()),
                    "ghost must carry its owner's datum"
                );
            }
        });
    }

    #[test]
    fn exchange_data_roundtrip_after_balance() {
        quadforest_comm::run(4, |comm| {
            let conn = Arc::new(Connectivity::unit(3));
            let mut f = Forest::<Q3>::new_uniform(conn, &comm, 2);
            let center = [Q3::len_at(0) / 2; 3];
            f.refine(&comm, true, |_, q| {
                q.level() < 4 && q.contains_point(center)
            });
            f.balance(&comm, BalanceKind::Face);
            f.partition(&comm);
            let g = f.ghost(&comm, BalanceKind::Face);
            let local: Vec<u8> = f.leaves().map(|(_, q)| q.level()).collect();
            let ghost_levels = g.exchange_data(&comm, &local);
            for (gq, lvl) in g.ghosts.iter().zip(&ghost_levels) {
                assert_eq!(gq.quad.level(), *lvl);
            }
        });
    }

    #[test]
    fn exchange_data_on_a_stale_layer_fails() {
        let err = quadforest_comm::try_run(2, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 2);
            let g = f.ghost(&comm, BalanceKind::Face);
            f.refine(&comm, false, |_, q| q.morton_index() % 3 == 0);
            let local: Vec<u8> = f.leaves().map(|(_, q)| q.level()).collect();
            Ok(g.exchange_data(&comm, &local))
        })
        .unwrap_err();
        assert!(err.origin_panicked());
        assert!(
            err.reason
                .contains("the forest the ghost layer was built from"),
            "{}",
            err.reason
        );
    }

    #[test]
    fn ghosts_are_fault_oblivious() {
        use quadforest_comm::FaultPlan;
        use std::time::Duration;
        let program = |comm: quadforest_comm::Comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 2);
            f.refine(&comm, true, |_, q| q.coords()[0] == 0 && q.level() < 4);
            f.balance(&comm, BalanceKind::Face);
            f.partition(&comm);
            ghost_as_tuples(&f.ghost(&comm, BalanceKind::Full))
        };
        let baseline = quadforest_comm::run(3, program);
        for seed in [5u64, 23] {
            let plan = FaultPlan::new(seed)
                .with_delays(0.25, Duration::from_micros(100))
                .with_reordering(0.25);
            let chaotic = quadforest_comm::run_with_faults(3, plan, program).unwrap();
            assert_eq!(baseline, chaotic, "seed {seed} changed the ghost layer");
        }
    }

    #[test]
    fn ghost_lookup_helpers() {
        quadforest_comm::run(2, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let f = Forest::<Q2>::new_uniform(conn, &comm, 3);
            let g = f.ghost(&comm, BalanceKind::Full);
            for gq in &g.ghosts {
                let hits = g.overlapping(gq.tree, key_span(&gq.quad));
                assert!(g.ghosts[hits].iter().any(|h| h.quad == gq.quad));
            }
        });
    }
}
