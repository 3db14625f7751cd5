//! Top-down search over the local forest (p4est_search-style).
//!
//! Searches descend each local tree from its root through the virtual
//! ancestor hierarchy — ancestors are constructed on demand, never
//! stored, the defining property of the linear octree storage. The
//! callback sees every ancestor together with the range of local leaves
//! it contains and decides whether to descend.

use crate::Forest;
use quadforest_connectivity::TreeId;
use quadforest_core::quadrant::Quadrant;
use quadforest_core::zrange;

/// Callback verdict for top-down search.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SearchAction {
    /// Descend into the children of this ancestor.
    Continue,
    /// Do not descend further below this ancestor.
    Prune,
}

impl<Q: Quadrant> Forest<Q> {
    /// Top-down traversal of each non-empty local tree. For every
    /// visited node (a leaf or a virtual ancestor), `visit` receives the
    /// tree, the node, the slice of local leaves inside it, and whether
    /// the node *is* a local leaf; its verdict controls descent.
    pub fn search(&self, mut visit: impl FnMut(TreeId, &Q, &[Q], bool) -> SearchAction) {
        for (t, leaves) in self.trees.iter().enumerate() {
            if leaves.is_empty() {
                continue;
            }
            self.search_node(t as TreeId, &Q::root(), leaves, &mut visit);
        }
    }

    /// Visit `node`, whose subtree holds exactly the nonempty `inside`.
    fn search_node(
        &self,
        tree: TreeId,
        node: &Q,
        inside: &[Q],
        visit: &mut impl FnMut(TreeId, &Q, &[Q], bool) -> SearchAction,
    ) {
        let is_leaf = inside.len() == 1 && inside[0] == *node;
        let action = visit(tree, node, inside, is_leaf);
        if is_leaf || action == SearchAction::Prune || node.level() >= Q::MAX_LEVEL {
            return;
        }
        // a leaf below a node that is not itself the leaf lies in one
        // child: each child boundary cuts what is left of the slice once
        let cells = 1u64 << (Q::DIM * (Q::MAX_LEVEL - node.level() - 1) as u32);
        let mut rest = inside;
        for c in 0..Q::NUM_CHILDREN {
            let last = node.morton_abs() + (c as u64 + 1) * cells - 1;
            let (here, after) = rest.split_at(rest.partition_point(|p| p.morton_abs() <= last));
            if !here.is_empty() {
                self.search_node(tree, &node.child(c), here, visit);
            }
            rest = after;
        }
    }

    /// Index of the local leaf of `tree` containing point `p`, through
    /// the shared [`zrange::locate_by`] kernel — the same binary-search
    /// implementation the query subsystem's snapshots serve from, with
    /// accessors over the live leaf array instead of flat key arrays.
    fn leaf_index_containing(&self, tree: TreeId, p: [i32; 3]) -> Option<usize> {
        let root = Q::len_at(0);
        if p.iter().take(Q::DIM as usize).any(|&c| c < 0 || c >= root) {
            return None;
        }
        let leaves = &self.trees[tree as usize];
        zrange::locate_by(
            leaves.len(),
            |i| leaves[i].morton_abs(),
            |i| leaves[i].level(),
            Q::DIM,
            Q::MAX_LEVEL,
            zrange::point_key(p, Q::DIM),
        )
    }

    /// Locate the local leaf of `tree` containing the integer point `p`
    /// (half-open convention per quadrant), if this rank owns it.
    pub fn find_leaf_containing(&self, tree: TreeId, p: [i32; 3]) -> Option<&Q> {
        self.leaf_index_containing(tree, p)
            .map(|i| &self.trees[tree as usize][i])
    }

    /// Locate matching leaves for a batch of points in one traversal;
    /// returns for each point the leaf index within its tree or `None`.
    /// Points must be given with their target tree.
    pub fn search_points(&self, points: &[(TreeId, [i32; 3])]) -> Vec<Option<usize>> {
        points
            .iter()
            .map(|(t, p)| self.leaf_index_containing(*t, *p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadforest_connectivity::Connectivity;
    use quadforest_core::quadrant::{AvxQuad, MortonQuad, StandardQuad};
    use std::sync::Arc;

    type Q2 = StandardQuad<2>;

    #[test]
    fn search_visits_every_leaf_once() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 2);
            f.refine(&comm, false, |_, q| q.morton_index() % 2 == 0);
            let mut visited_leaves = 0;
            let mut visited_ancestors = 0;
            f.search(|_, _, inside, is_leaf| {
                if is_leaf {
                    visited_leaves += 1;
                    assert_eq!(inside.len(), 1);
                } else {
                    visited_ancestors += 1;
                }
                SearchAction::Continue
            });
            assert_eq!(visited_leaves, f.local_count());
            assert!(visited_ancestors > 0);
        });
    }

    #[test]
    fn prune_stops_descent() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let f = Forest::<Q2>::new_uniform(conn, &comm, 3);
            let mut visits = 0;
            f.search(|_, node, _, _| {
                visits += 1;
                if node.level() >= 1 {
                    SearchAction::Prune
                } else {
                    SearchAction::Continue
                }
            });
            // root + 4 level-1 ancestors only
            assert_eq!(visits, 5);
        });
    }

    /// `find_leaf_containing` against a linear `contains_point` scan on
    /// an adapted forest, for one representation.
    fn point_location_case<Q: Quadrant>() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(Q::DIM));
            let mut f = Forest::<Q>::new_uniform(conn, &comm, 2);
            f.refine(&comm, true, |_, q| q.coords()[0] == 0 && q.level() < 4);
            let root = Q::len_at(0);
            let step = root / 17;
            let layers = if Q::DIM == 3 { 17 } else { 1 };
            for i in 0..17 {
                for j in 0..17 {
                    for k in 0..layers {
                        let p = [i * step, j * step, k * step];
                        let found = f.find_leaf_containing(0, p);
                        let brute = f.tree_leaves(0).iter().find(|q| q.contains_point(p));
                        assert_eq!(found, brute, "{}: point {p:?}", Q::NAME);
                        assert!(found.is_some());
                    }
                }
            }
            // out of domain
            assert!(f.find_leaf_containing(0, [-1, 0, 0]).is_none());
            assert!(f.find_leaf_containing(0, [root, 0, 0]).is_none());
        });
    }

    #[test]
    fn point_location_matches_brute_force() {
        point_location_case::<StandardQuad<2>>();
        point_location_case::<StandardQuad<3>>();
        point_location_case::<MortonQuad<2>>();
        point_location_case::<MortonQuad<3>>();
        point_location_case::<AvxQuad<2>>();
        point_location_case::<AvxQuad<3>>();
    }

    #[test]
    fn point_location_respects_rank_ownership() {
        quadforest_comm::run(4, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, 3);
            let mut local_hits = 0u64;
            let root = MortonQuad::<2>::len_at(0);
            let step = root / 8;
            for i in 0..8 {
                for j in 0..8 {
                    if f.find_leaf_containing(0, [i * step, j * step, 0]).is_some() {
                        local_hits += 1;
                    }
                }
            }
            // every probe point hits exactly one rank
            assert_eq!(comm.allreduce_sum(local_hits), 64);
        });
    }

    #[test]
    fn search_points_batch() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::brick2d(2, 1, false, false));
            let f = Forest::<Q2>::new_uniform(conn, &comm, 1);
            let h = Q2::len_at(1);
            let res = f.search_points(&[(0, [0, 0, 0]), (1, [h, h, 0]), (0, [-5, 0, 0])]);
            assert!(res[0].is_some());
            assert!(res[1].is_some());
            assert!(res[2].is_none());
        });
    }
}
