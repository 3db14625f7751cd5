//! Callback-driven refinement and coarsening (local adaptation).

use crate::Forest;
use quadforest_comm::Comm;
use quadforest_connectivity::TreeId;
use quadforest_core::quadrant::Quadrant;

impl<Q: Quadrant> Forest<Q> {
    /// Refine local leaves for which `flag` returns `true`, replacing
    /// each with its `2^d` children in SFC order. With `recursive =
    /// true`, freshly created children are offered to `flag` again
    /// (bounded by [`Quadrant::MAX_LEVEL`]). Collective only in the
    /// final global-count update; the adaptation itself is local, as in
    /// p4est.
    ///
    /// Returns the number of leaves refined on this rank.
    pub fn refine(
        &mut self,
        comm: &Comm,
        recursive: bool,
        mut flag: impl FnMut(TreeId, &Q) -> bool,
    ) -> usize {
        let _span = quadforest_telemetry::span("refine");
        let mut refined = 0;
        for t in 0..self.trees.len() {
            let tree = t as TreeId;
            let old = std::mem::take(&mut self.trees[t]);
            let mut out = Vec::with_capacity(old.len());
            // explicit stack for recursive refinement keeps SFC order:
            // children are pushed in reverse so they pop in curve order
            let mut stack: Vec<Q> = Vec::new();
            for q in old {
                stack.push(q);
                while let Some(cur) = stack.pop() {
                    let split = cur.level() < Q::MAX_LEVEL
                        && flag(tree, &cur)
                        && (recursive || cur.level() == q.level());
                    if split {
                        refined += 1;
                        for c in (0..Q::NUM_CHILDREN).rev() {
                            stack.push(cur.child(c));
                        }
                        if !recursive {
                            // non-recursive: children go straight out
                            while let Some(ch) = stack.pop() {
                                out.push(ch);
                            }
                        }
                    } else {
                        out.push(cur);
                    }
                }
            }
            self.trees[t] = out;
        }
        self.refresh_global(comm);
        quadforest_telemetry::counter_add("forest.refined", refined as u64);
        self.guard_phase("refine");
        refined
    }

    /// Coarsen: replace complete sibling families whose members all
    /// satisfy `flag` with their parent. With `recursive = true`, newly
    /// formed parents may merge again. Families split across rank
    /// boundaries are left untouched (as p4est does without
    /// `partition_for_coarsening`).
    ///
    /// Returns the number of families merged on this rank.
    pub fn coarsen(
        &mut self,
        comm: &Comm,
        recursive: bool,
        mut flag: impl FnMut(TreeId, &[Q]) -> bool,
    ) -> usize {
        let _span = quadforest_telemetry::span("coarsen");
        let nc = Q::NUM_CHILDREN as usize;
        let mut merged = 0;
        for t in 0..self.trees.len() {
            let tree = t as TreeId;
            loop {
                let leaves = &self.trees[t];
                let mut out: Vec<Q> = Vec::with_capacity(leaves.len());
                let mut changed = false;
                let mut i = 0;
                while i < leaves.len() {
                    let q = leaves[i];
                    if q.level() > 0
                        && q.child_id() == 0
                        && i + nc <= leaves.len()
                        && Q::is_family(&leaves[i..i + nc])
                        && flag(tree, &leaves[i..i + nc])
                    {
                        out.push(q.parent());
                        merged += 1;
                        changed = true;
                        i += nc;
                    } else {
                        out.push(q);
                        i += 1;
                    }
                }
                self.trees[t] = out;
                if !(recursive && changed) {
                    break;
                }
            }
        }
        self.refresh_global(comm);
        quadforest_telemetry::counter_add("forest.coarsened", merged as u64);
        self.guard_phase("coarsen");
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadforest_connectivity::Connectivity;
    use quadforest_core::quadrant::{AvxQuad, MortonQuad, StandardQuad};
    use std::sync::Arc;

    type Q3 = StandardQuad<3>;
    type Q2 = StandardQuad<2>;

    #[test]
    fn refine_all_once() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(3));
            let mut f = Forest::<Q3>::new_uniform(conn, &comm, 1);
            let n = f.refine(&comm, false, |_, _| true);
            assert_eq!(n, 8);
            assert_eq!(f.global_count(), 64);
            assert_eq!(f.validate(), Ok(()));
            assert!(f.leaves().all(|(_, q)| q.level() == 2));
        });
    }

    #[test]
    fn refine_recursive_to_level() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 0);
            f.refine(&comm, true, |_, q| q.level() < 3);
            assert_eq!(f.global_count(), 64);
            assert!(f.leaves().all(|(_, q)| q.level() == 3));
            assert_eq!(f.validate(), Ok(()));
        });
    }

    #[test]
    fn refine_non_recursive_does_not_cascade() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 0);
            // flag always true, but non-recursive: one generation only
            f.refine(&comm, false, |_, _| true);
            assert_eq!(f.global_count(), 4);
            assert!(f.leaves().all(|(_, q)| q.level() == 1));
        });
    }

    #[test]
    fn refine_local_corner_produces_graded_mesh() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 1);
            // keep refining the quadrant touching the origin
            f.refine(&comm, true, |_, q| q.coords() == [0, 0, 0] && q.level() < 5);
            assert_eq!(f.validate(), Ok(()));
            // levels 1..=5 all present, exactly one origin leaf at level 5
            let mut level_counts = [0usize; 6];
            for (_, q) in f.leaves() {
                level_counts[q.level() as usize] += 1;
            }
            assert_eq!(level_counts, [0, 3, 3, 3, 3, 4]);
        });
    }

    #[test]
    fn refine_keeps_sfc_order_across_representations() {
        quadforest_comm::run(1, |comm| {
            let conn2 = Arc::new(Connectivity::unit(3));
            let conn3 = Arc::new(Connectivity::unit(3));
            let mut a = Forest::<Q3>::new_uniform(conn2, &comm, 1);
            let mut b = Forest::<MortonQuad<3>>::new_uniform(conn3, &comm, 1);
            let flag = |q_level: u8, idx: u64| q_level < 3 && idx % 3 == 0;
            a.refine(&comm, true, |_, q| flag(q.level(), q.morton_index()));
            b.refine(&comm, true, |_, q| flag(q.level(), q.morton_index()));
            let la: Vec<_> = a
                .leaves()
                .map(|(t, q)| (t, q.coords(), q.level()))
                .collect();
            let lb: Vec<_> = b
                .leaves()
                .map(|(t, q)| (t, q.coords(), q.level()))
                .collect();
            assert_eq!(la, lb);
            assert_eq!(a.validate(), Ok(()));
            assert_eq!(b.validate(), Ok(()));
        });
    }

    #[test]
    fn coarsen_undoes_refine() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(3));
            let mut f = Forest::<AvxQuad<3>>::new_uniform(conn, &comm, 2);
            let before = f.checksum(&comm);
            f.refine(&comm, false, |_, _| true);
            assert_eq!(f.global_count(), 512);
            let merged = f.coarsen(&comm, false, |_, _| true);
            assert_eq!(merged, 64);
            assert_eq!(f.global_count(), 64);
            assert_eq!(f.checksum(&comm), before);
            assert_eq!(f.validate(), Ok(()));
        });
    }

    #[test]
    fn coarsen_recursive_collapses_to_roots() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::brick2d(2, 1, false, false));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 3);
            f.coarsen(&comm, true, |_, _| true);
            assert_eq!(f.global_count(), 2, "one root leaf per tree");
            assert_eq!(f.validate(), Ok(()));
        });
    }

    #[test]
    fn coarsen_respects_flag() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 2);
            // only merge families whose parent would be in the lower-left
            let merged = f.coarsen(&comm, false, |_, fam| fam[0].coords()[0] == 0);
            assert!(merged > 0);
            assert_eq!(f.validate(), Ok(()));
            assert!(f.leaves().any(|(_, q)| q.level() == 1));
            assert!(f.leaves().any(|(_, q)| q.level() == 2));
        });
    }

    #[test]
    fn coarsen_skips_split_families() {
        // With P=2 on 8 leaves of one level-1 family... a level-1 family
        // of tree 0 spans both ranks; coarsening must leave it alone.
        let counts = quadforest_comm::run(2, |comm| {
            let conn = Arc::new(Connectivity::unit(3));
            let mut f = Forest::<Q3>::new_uniform(conn, &comm, 1);
            let merged = f.coarsen(&comm, false, |_, _| true);
            assert_eq!(merged, 0, "split family must not merge");
            assert_eq!(f.validate(), Ok(()));
            f.global_count()
        });
        assert!(counts.iter().all(|&c| c == 8));
    }

    #[test]
    fn refine_distributed_preserves_partition_ranges() {
        quadforest_comm::run(4, |comm| {
            let conn = Arc::new(Connectivity::unit(3));
            let mut f = Forest::<Q3>::new_uniform(conn, &comm, 2);
            f.refine(&comm, false, |_, q| q.morton_index() % 2 == 0);
            assert_eq!(f.validate(), Ok(()));
            // every local leaf must still be in the local marker range
            for (t, q) in f.leaves() {
                assert!(f.is_local_position(Forest::<Q3>::position_of(t, q)));
            }
            assert_eq!(f.global_count(), comm.allreduce_sum(f.local_count() as u64));
        });
    }
}
