//! Parallel 2:1 balance.
//!
//! A forest is 2:1 balanced when no leaf is adjacent (across the chosen
//! relations: faces, or faces+edges+corners) to a leaf more than one
//! refinement level away. Balancing only ever *refines* (as in p4est).
//!
//! The algorithm works on curve indices, not on leaves. Its state is the
//! set of *interior* nodes of the balanced forest — per level `ℓ`, the
//! sorted `(tree, I_ℓ)` of every node that must be split — and it uses
//! only Definition 2.1 (parent `= I_ℓ >> d`, child `c` `= (I_ℓ << d) | c`)
//! and dilated-integer steps between neighbor indices, so it is the same
//! code for every representation, and no node becomes a quadrant before
//! the rebuild.
//!
//! 1. **Seed**: the parent of every local leaf is interior.
//! 2. **Close**, finest level first: an interior node `p` makes its own
//!    parent interior, and the parent of each of its same-size neighbor
//!    domains `p + o·H` (`directions::neighbor_index`: a dilated ±1 on
//!    the index, the connectivity consulted only where the step leaves
//!    the tree) — the 2:1 rule one level up (a leaf `q` of level
//!    `L` forces the level-`(L−1)` ancestor of `q + o·h` to *exist*, and
//!    over the children of `p` those ancestors are `p` and its neighbor
//!    domains; DESIGN.md §3.4 has the argument). A level is finished
//!    before the next coarser one starts, so one pass closes the set
//!    whatever the depth of the ripple.
//! 3. **One exchange**: every rule has a single premise, so the closure
//!    of a union is the union of the closures. Each rank closes its own
//!    seeds over the *whole* forest and ships every node to the ranks
//!    whose range its subtree overlaps; receivers merge and are done —
//!    no second round, no convergence reduction.
//! 4. **Rebuild**: a depth-first walk in curve order meets each level's
//!    indices in increasing order, so one forward cursor per level
//!    decides "interior → split, else emit" for old leaves and their
//!    new descendants alike.
//!
//! Inter-tree constraints propagate across *face* connections (including
//! edge/corner offsets that exit through a single tree face); tree-edge
//! and tree-corner connections are not modeled (see DESIGN.md).

use crate::directions::{neighbor_index, offsets, Adjacency};
use crate::{index_span, overlapping, Forest};
use quadforest_comm::Comm;
use quadforest_core::quadrant::Quadrant;

/// Which neighbor relations the 2:1 constraint covers.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BalanceKind {
    /// Faces only (p4est's `P4EST_CONNECT_FACE`).
    Face,
    /// Faces, edges (3D) and corners (`P4EST_CONNECT_FULL`).
    Full,
}

impl BalanceKind {
    pub(crate) fn adjacency(self) -> Adjacency {
        match self {
            BalanceKind::Face => Adjacency::Face,
            BalanceKind::Full => Adjacency::Full,
        }
    }
}

impl<Q: Quadrant> Forest<Q> {
    /// 2:1-balance the forest (collective). Returns the number of leaves
    /// split on this rank.
    pub fn balance(&mut self, comm: &Comm, kind: BalanceKind) -> usize {
        let _span = quadforest_telemetry::span("balance");
        quadforest_telemetry::counter_add("forest.balance.rounds", 1);
        let d = Q::DIM;
        let offs = offsets(d, kind.adjacency());

        // interior[ℓ]: (tree, I_ℓ) of the level-ℓ nodes that must be
        // split; seeded with the parent of every local leaf (one index
        // per run of siblings)
        let mut interior: Vec<Vec<(u32, u64)>> = vec![Vec::new(); Q::MAX_LEVEL as usize + 1];
        for (t, leaves) in self.trees.iter().enumerate() {
            let mut prev = None;
            for q in leaves {
                let parent = (q.level(), q.morton_index() >> d);
                if q.level() > 0 && prev != Some(parent) {
                    interior[q.level() as usize - 1].push((t as u32, parent.1));
                }
                prev = Some(parent);
            }
        }

        // close finest-first over the whole forest, in key space; a
        // finished level is addressed to every other rank its nodes'
        // subtrees overlap
        let conn = self.connectivity();
        let mut outgoing: Vec<Vec<(u32, u8, u64)>> = (0..self.size).map(|_| Vec::new()).collect();
        for level in (0..=Q::MAX_LEVEL).rev() {
            let (coarser, rest) = interior.split_at_mut(level as usize);
            let nodes = &mut rest[0];
            nodes.sort_unstable();
            nodes.dedup();
            for &(tree, i) in nodes.iter() {
                for r in self.owners_of_span(tree, index_span::<Q>(i, level)) {
                    if r != self.rank {
                        outgoing[r].push((tree, level, i));
                    }
                }
            }
            let Some(up) = coarser.last_mut() else {
                continue;
            };
            // skipping a repeat of the previous push drops most
            // duplicates before the sort (siblings share parents); each
            // offset's stream of parents is nearly sorted, so the pushes
            // run offset-major
            let mut push = |node: (u32, u64)| {
                if up.last() != Some(&node) {
                    up.push(node);
                }
            };
            for &(tree, i) in nodes.iter() {
                push((tree, i >> d));
            }
            for &off in &offs {
                for &(tree, i) in nodes.iter() {
                    // half the domains are siblings of the node itself:
                    // same parent, pushed above
                    if let Some((nt, ni)) = neighbor_index::<Q>(conn, tree, i, level, off) {
                        if (nt, ni >> d) != (tree, i >> d) {
                            push((nt, ni >> d));
                        }
                    }
                }
            }
        }
        quadforest_telemetry::counter_add(
            "forest.balance.nodes_sent",
            outgoing.iter().map(|v| v.len() as u64).sum(),
        );

        // the one exchange: what arrives is already closed
        for (tree, level, i) in comm.alltoallv(outgoing).into_iter().flatten() {
            interior[level as usize].push((tree, i));
        }
        for nodes in &mut interior {
            nodes.sort_unstable();
            nodes.dedup();
        }

        // rebuild: one forward cursor per level over the sorted sets
        // decides every node the walk meets; the replacement of each
        // split leaf is collected in `fresh`
        let mut cursor = vec![0usize; interior.len()];
        let mut is_interior = |level: u8, node: (u32, u64)| {
            let (set, c) = (&interior[level as usize], &mut cursor[level as usize]);
            *c += set[*c..].iter().take_while(|n| **n < node).count();
            set.get(*c) == Some(&node)
        };
        let mut split = 0;
        let mut stack: Vec<(u8, u64)> = Vec::new();
        let mut fresh: Vec<Q> = Vec::new();
        let mut cuts: Vec<(usize, usize)> = Vec::new();
        for (t, leaves) in self.trees.iter_mut().enumerate() {
            fresh.clear();
            cuts.clear();
            for (at, q) in leaves.iter().enumerate() {
                let (level, i) = (q.level(), q.morton_index());
                if !is_interior(level, (t as u32, i)) {
                    continue;
                }
                cuts.push((at, fresh.len()));
                stack.push((level, i));
                while let Some((level, i)) = stack.pop() {
                    if is_interior(level, (t as u32, i)) {
                        split += 1;
                        let children = (0..Q::NUM_CHILDREN as u64).rev();
                        stack.extend(children.map(|c| (level + 1, (i << d) | c)));
                    } else {
                        fresh.push(Q::from_morton(i, level));
                    }
                }
            }
            // grow in place and splice from the back: behind every split
            // leaf its untouched tail, then its replacement
            let (mut from, mut done) = (leaves.len(), fresh.len());
            let mut to = from - cuts.len() + done;
            leaves.resize(to, Q::root());
            for &(at, start) in cuts.iter().rev() {
                to -= from - (at + 1);
                leaves.copy_within(at + 1..from, to);
                to -= done - start;
                leaves[to..to + (done - start)].copy_from_slice(&fresh[start..done]);
                (from, done) = (at, start);
            }
            debug_assert_eq!(to, from);
        }

        self.refresh_global(comm);
        debug_assert_eq!(self.validate(), Ok(()));
        self.guard_phase("balance");
        split
    }

    /// Check the 2:1 property among the *local* leaves only, returning
    /// the first violation found: a neighbor domain owned by another
    /// rank is not looked at (the cross-rank property is what
    /// `tests/balance_oracle.rs` covers). Used by tests; collective-free.
    pub fn is_balanced_local(&self, kind: BalanceKind) -> Result<(), String> {
        let offs = offsets(Q::DIM, kind.adjacency());
        for (t, q) in self.leaves() {
            let level = q.level();
            if level < 2 {
                continue;
            }
            for &off in &offs {
                let Some((nt, ni)) =
                    neighbor_index::<Q>(self.connectivity(), t, q.morton_index(), level, off)
                else {
                    continue;
                };
                let leaves = &self.trees[nt as usize];
                for p in &leaves[overlapping(leaves, index_span::<Q>(ni, level))] {
                    if p.level() + 1 < level {
                        return Err(format!(
                            "leaf {q:?} in tree {t} (level {level}) neighbors {p:?} in tree {nt} (level {})",
                            p.level()
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadforest_connectivity::Connectivity;
    use quadforest_core::quadrant::{AvxQuad, MortonQuad, StandardQuad};
    use std::sync::Arc;

    type Q2 = StandardQuad<2>;
    type Q3 = StandardQuad<3>;

    /// Serial balance of a point refinement: refining the single path of
    /// quadrants containing the domain center produces leaves hugging
    /// the center from one side, directly adjacent to level-1 leaves on
    /// the other — a hard 2:1 violation that must ripple outward.
    #[test]
    fn balance_point_refinement_2d() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 1);
            let center = [Q2::len_at(0) / 2, Q2::len_at(0) / 2, 0];
            f.refine(&comm, true, |_, q| {
                q.contains_point(center) && q.level() < 6
            });
            assert!(
                f.is_balanced_local(BalanceKind::Face).is_err(),
                "a 5-level jump at the center must violate 2:1"
            );
            let n = f.balance(&comm, BalanceKind::Face);
            assert!(n > 0);
            assert_eq!(f.validate(), Ok(()));
            f.is_balanced_local(BalanceKind::Face).unwrap();
        });
    }

    #[test]
    fn balance_full_is_stronger_than_face() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let build = |comm: &quadforest_comm::Comm| {
                let conn = Arc::new(Connectivity::unit(2));
                let mut f = Forest::<Q2>::new_uniform(conn, comm, 1);
                let center = [Q2::len_at(0) / 2, Q2::len_at(0) / 2, 0];
                f.refine(comm, true, |_, q| q.contains_point(center) && q.level() < 7);
                f
            };
            let mut face = build(&comm);
            face.balance(&comm, BalanceKind::Face);
            let mut full = build(&comm);
            full.balance(&comm, BalanceKind::Full);
            full.is_balanced_local(BalanceKind::Full).unwrap();
            assert!(
                full.global_count() >= face.global_count(),
                "full balance can only add leaves over face balance"
            );
            // face-balanced mesh generally violates the corner condition
            assert!(face.is_balanced_local(BalanceKind::Full).is_err());
            let _ = conn;
        });
    }

    #[test]
    fn balance_3d_with_edges() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(3));
            let mut f = Forest::<Q3>::new_uniform(conn, &comm, 1);
            f.refine(&comm, true, |_, q| q.coords() == [0, 0, 0] && q.level() < 5);
            f.balance(&comm, BalanceKind::Full);
            assert_eq!(f.validate(), Ok(()));
            f.is_balanced_local(BalanceKind::Full).unwrap();
        });
    }

    #[test]
    fn balance_is_idempotent() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, 1);
            f.refine(&comm, true, |_, q| q.coords() == [0, 0, 0] && q.level() < 5);
            f.balance(&comm, BalanceKind::Face);
            let count = f.global_count();
            let n = f.balance(&comm, BalanceKind::Face);
            assert_eq!(n, 0, "balanced forest must not refine again");
            assert_eq!(f.global_count(), count);
        });
    }

    #[test]
    fn balance_across_tree_faces() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::brick2d(2, 1, false, false));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 1);
            // refine deeply against the shared face from tree 0's side
            let root = Q2::len_at(0);
            f.refine(&comm, true, |t, q| {
                t == 0 && q.coords()[0] + q.side() == root && q.coords()[1] == 0 && q.level() < 6
            });
            f.balance(&comm, BalanceKind::Face);
            f.is_balanced_local(BalanceKind::Face).unwrap();
            // tree 1 must have been refined near its -x face
            let deep_in_tree1 = f
                .tree_leaves(1)
                .iter()
                .filter(|q| q.coords()[0] == 0)
                .map(|q| q.level())
                .max()
                .unwrap();
            assert!(
                deep_in_tree1 >= 4,
                "balance must ripple into tree 1, got max level {deep_in_tree1}"
            );
        });
    }

    #[test]
    fn balance_distributed_matches_serial() {
        // The balanced forest must be identical for every rank count.
        let serial = quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 2);
            f.refine(&comm, true, |_, q| {
                q.coords()[0] == 0 && q.coords()[1] == 0 && q.level() < 6
            });
            f.balance(&comm, BalanceKind::Face);
            f.checksum(&comm)
        })[0];
        for p in [2usize, 3, 5] {
            let sums = quadforest_comm::run(p, |comm| {
                let conn = Arc::new(Connectivity::unit(2));
                let mut f = Forest::<Q2>::new_uniform(conn, &comm, 2);
                f.refine(&comm, true, |_, q| {
                    q.coords()[0] == 0 && q.coords()[1] == 0 && q.level() < 6
                });
                f.balance(&comm, BalanceKind::Face);
                assert_eq!(f.validate(), Ok(()));
                f.checksum(&comm)
            });
            assert!(
                sums.iter().all(|s| *s == serial),
                "P = {p}: balanced forest differs from serial result"
            );
        }
    }

    #[test]
    fn balance_periodic_wraps() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::periodic(2));
            let mut f = Forest::<AvxQuad<2>>::new_uniform(conn, &comm, 1);
            f.refine(&comm, true, |_, q| q.coords() == [0, 0, 0] && q.level() < 5);
            f.balance(&comm, BalanceKind::Face);
            f.is_balanced_local(BalanceKind::Face).unwrap();
            // the far side of the periodic domain must feel the ripple
            let root = Q2::len_at(0);
            let far = f
                .tree_leaves(0)
                .iter()
                .filter(|q| q.coords()[0] + q.side() == root && q.coords()[1] == 0)
                .map(|q| q.level())
                .max()
                .unwrap();
            assert!(far >= 3, "periodic wrap missing: far-side max level {far}");
        });
    }

    #[test]
    fn balance_is_fault_oblivious() {
        use quadforest_comm::FaultPlan;
        use std::time::Duration;
        let program = |comm: quadforest_comm::Comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 2);
            f.refine(&comm, true, |_, q| {
                q.coords()[0] == 0 && q.coords()[1] == 0 && q.level() < 6
            });
            f.balance(&comm, BalanceKind::Face);
            assert_eq!(f.validate(), Ok(()));
            f.checksum(&comm)
        };
        let baseline = quadforest_comm::run(3, program);
        for seed in [2u64, 29] {
            let plan = FaultPlan::new(seed)
                .with_delays(0.25, Duration::from_micros(100))
                .with_reordering(0.25);
            let chaotic = quadforest_comm::run_with_faults(3, plan, program).unwrap();
            assert_eq!(baseline, chaotic, "seed {seed} changed the balanced mesh");
        }
    }

    #[test]
    fn already_balanced_uniform_is_untouched() {
        quadforest_comm::run(2, |comm| {
            let conn = Arc::new(Connectivity::unit(3));
            let mut f = Forest::<Q3>::new_uniform(conn, &comm, 3);
            let before = f.checksum(&comm);
            let n = f.balance(&comm, BalanceKind::Full);
            assert_eq!(n, 0);
            assert_eq!(f.checksum(&comm), before);
        });
    }
}
