//! Space-filling-curve partition of the global leaf sequence.
//!
//! The global leaf order is tree-major, SFC within each tree. Partition
//! redistributes leaves so that every rank holds a contiguous range of
//! that sequence of equal length — p4est's `p4est_partition`: with `N`
//! leaves over `P` ranks, rank `r`'s new range is `[N·r/P, N·(r+1)/P)`.
//! A rank's local leaves are one contiguous range of the global sequence
//! too, so what it owes each other rank is one contiguous run of them.
//! Those runs are copied straight out of the tree arrays and shipped in
//! a single personalized all-to-all; the run the rank keeps is trimmed in
//! place, and what arrives is spliced at its ends — from lower ranks in
//! front, from higher ranks behind. Nothing that does not move is
//! copied. An allgather of first positions refreshes the markers.

use crate::Forest;
use quadforest_comm::Comm;
use quadforest_connectivity::TreeId;
use quadforest_core::quadrant::Quadrant;
use quadforest_core::Wire;
use std::ops::Range;

/// The part of the local leaf range `s` that falls in a tree whose
/// leaves start at local position `base` and number `len`, in that
/// tree's own indices.
fn within(s: &Range<usize>, base: usize, len: usize) -> Range<usize> {
    s.start.clamp(base, base + len) - base..s.end.clamp(base, base + len) - base
}

/// Keep `v[kept]` where it is and put `front` before it, `back` after
/// it. `v` grows to the exact length: a doubled buffer would outlive the
/// call (the payload of every later step) and fragment the heap.
fn splice_ends<T>(
    v: &mut Vec<T>,
    kept: Range<usize>,
    front: impl ExactSizeIterator<Item = T>,
    back: impl ExactSizeIterator<Item = T>,
) {
    v.truncate(kept.end);
    v.reserve_exact((front.len() + back.len()).saturating_sub(kept.start));
    v.splice(..kept.start, front);
    v.extend(back);
}

impl<Q: Quadrant> Forest<Q> {
    /// Repartition for equal leaf counts. Returns the number of leaves
    /// that moved away from this rank. Collective.
    pub fn partition(&mut self, comm: &Comm) -> usize {
        // no payload: the all-to-all ships bare (tree, leaf) runs, the
        // same message shape partition has always used
        self.partition_core::<()>(comm, None)
    }

    /// Shared partition machinery: ship every run of local leaves whose
    /// new owner is another rank, keep the rest in place. `Some` payload
    /// — one value per local leaf, in [`Forest::leaves`] order — is cut,
    /// trimmed and spliced exactly like the leaves, its runs travelling
    /// in a second all-to-all, so it stays aligned with the new local
    /// leaves. Returns the number of leaves that left this rank.
    pub(crate) fn partition_core<P>(&mut self, comm: &Comm, payload: Option<&mut Vec<P>>) -> usize
    where
        P: Clone + Wire + Send + 'static,
    {
        let _span = quadforest_telemetry::span("partition");
        let (rank, size) = (self.rank, self.size);
        let n = self.local_count();
        if let Some(payload) = &payload {
            assert_eq!(payload.len(), n);
        }

        // this rank's leaves are global positions [offset, offset + n);
        // share[r] is the local range of those rank r owns afterwards
        let offset = comm.exscan_sum(n as u64);
        let total = self.global_count;
        debug_assert!(rank + 1 < size || offset + n as u64 == total);
        let cut =
            |r: usize| (total * r as u64 / size as u64).clamp(offset, offset + n as u64) - offset;
        let share: Vec<Range<usize>> = (0..size)
            .map(|r| cut(r) as usize..cut(r + 1) as usize)
            .collect();
        let keep = share[rank].clone();
        let moved = n - keep.len();

        // copy each other rank's run out of the tree arrays
        let first = self.tree_offsets();
        let outgoing: Vec<Vec<(TreeId, Q)>> = (0..size)
            .map(|r| {
                if r == rank {
                    return Vec::new();
                }
                let mut run = Vec::with_capacity(share[r].len());
                for (t, leaves) in self.trees.iter().enumerate() {
                    let part = within(&share[r], first[t], leaves.len());
                    run.extend(leaves[part].iter().map(|q| (t as TreeId, *q)));
                }
                run
            })
            .collect();
        // payload runs, cut by the same shares. Only the bytes counter
        // reads a value's encoding here (the thread backend ships values
        // as they are), so encode only when a recorder is listening,
        // into one reused buffer.
        let traced = quadforest_telemetry::enabled();
        let mut scratch = Vec::new();
        let mut payload_bytes = 0usize;
        let payload_out = payload.as_ref().map(|values| {
            (0..size)
                .map(|r| {
                    if r == rank {
                        return Vec::new();
                    }
                    let run = values[share[r].clone()].to_vec();
                    if traced {
                        for v in &run {
                            scratch.clear();
                            v.encode(&mut scratch);
                            payload_bytes += scratch.len();
                        }
                    }
                    run
                })
                .collect()
        });

        // exchange; runs arrive in source-rank order, which is global SFC
        // order: lower ranks' runs precede the kept run, higher ranks'
        // follow it
        let mut incoming = comm.alltoallv(outgoing);
        let arrived = payload_out.map(|runs| comm.alltoallv(runs));
        let behind: Vec<(TreeId, Q)> = incoming.drain(rank + 1..).flatten().collect();
        let ahead: Vec<(TreeId, Q)> = incoming.into_iter().flatten().collect();
        let mut ahead = ahead.chunk_by(|a, b| a.0 == b.0).peekable();
        let mut behind = behind.chunk_by(|a, b| a.0 == b.0).peekable();
        for (t, leaves) in self.trees.iter_mut().enumerate() {
            let of_tree = |run: &&[(TreeId, Q)]| run[0].0 == t as TreeId;
            let front = ahead.next_if(of_tree).unwrap_or_default();
            let back = behind.next_if(of_tree).unwrap_or_default();
            let kept = within(&keep, first[t], leaves.len());
            let leaf = |&(_, q): &(TreeId, Q)| q;
            splice_ends(leaves, kept, front.iter().map(leaf), back.iter().map(leaf));
        }
        if let (Some(values), Some(mut arrived)) = (payload, arrived) {
            let behind: Vec<P> = arrived.drain(rank + 1..).flatten().collect();
            let ahead: Vec<P> = arrived.into_iter().flatten().collect();
            splice_ends(values, keep, ahead.into_iter(), behind.into_iter());
        }

        // refresh markers from each rank's first position
        let firsts = comm.allgather(self.first_local_position());
        self.markers = Self::markers_from_firsts(self.trees.len(), &firsts, self.global_count);
        quadforest_telemetry::counter_add("forest.partition.sent", moved as u64);
        if payload_bytes > 0 {
            quadforest_telemetry::counter_add(
                "forest.partition.payload_bytes",
                payload_bytes as u64,
            );
        }
        quadforest_telemetry::gauge_set("forest.local_leaves", self.local_count() as u64);
        debug_assert_eq!(self.validate(), Ok(()));
        self.guard_phase("partition");
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LeafData;
    use quadforest_connectivity::Connectivity;
    use quadforest_core::quadrant::{AvxQuad, MortonQuad, StandardQuad};
    use std::sync::Arc;

    type Q2 = StandardQuad<2>;

    #[test]
    fn partition_balances_skewed_refinement() {
        let counts = quadforest_comm::run(4, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 1);
            // refine only the origin quadrant heavily: rank 0 ends up
            // with far more leaves than the others
            f.refine(&comm, true, |_, q| q.coords() == [0, 0, 0] && q.level() < 6);
            let before = f.checksum(&comm);
            f.partition(&comm);
            assert_eq!(f.validate(), Ok(()));
            assert_eq!(
                f.checksum(&comm),
                before,
                "partition must not change leaves"
            );
            f.local_count()
        });
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max - min <= 1,
            "counts should equalize after partition: {counts:?}"
        );
    }

    #[test]
    fn partition_is_idempotent() {
        quadforest_comm::run(3, |comm| {
            let conn = Arc::new(Connectivity::unit(3));
            let mut f = Forest::<MortonQuad<3>>::new_uniform(conn, &comm, 2);
            f.refine(&comm, false, |_, q| q.morton_index() % 5 == 0);
            f.partition(&comm);
            let markers = f.markers().to_vec();
            let moved = f.partition(&comm);
            assert_eq!(moved, 0, "second partition must move nothing");
            assert_eq!(f.markers(), &markers[..]);
        });
    }

    #[test]
    fn partition_multitree() {
        quadforest_comm::run(5, |comm| {
            let conn = Arc::new(Connectivity::brick2d(3, 1, false, false));
            let mut f = Forest::<AvxQuad<2>>::new_uniform(conn, &comm, 2);
            f.refine(&comm, true, |t, q| t == 1 && q.level() < 4);
            let before = f.checksum(&comm);
            f.partition(&comm);
            assert_eq!(f.validate(), Ok(()));
            assert_eq!(f.checksum(&comm), before);
            let counts = comm.allgather(f.local_count());
            let max = *counts.iter().max().unwrap();
            let min = *counts.iter().min().unwrap();
            assert!(max - min <= 1);
        });
    }

    #[test]
    fn partition_with_empty_ranks() {
        quadforest_comm::run(12, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 1);
            // 4 leaves over 12 ranks: most stay empty
            f.partition(&comm);
            assert_eq!(f.validate(), Ok(()));
            assert_eq!(comm.allreduce_sum(f.local_count() as u64), 4);
        });
    }

    #[test]
    fn partition_is_fault_oblivious() {
        use quadforest_comm::FaultPlan;
        use std::time::Duration;
        let program = |comm: quadforest_comm::Comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 1);
            f.refine(&comm, true, |_, q| q.coords() == [0, 0, 0] && q.level() < 5);
            f.partition(&comm);
            assert_eq!(f.validate(), Ok(()));
            (f.markers().to_vec(), f.checksum(&comm))
        };
        let baseline = quadforest_comm::run(4, program);
        for seed in [3u64, 17] {
            let plan = FaultPlan::new(seed)
                .with_delays(0.25, Duration::from_micros(100))
                .with_reordering(0.25);
            let chaotic = quadforest_comm::run_with_faults(4, plan, program).unwrap();
            assert_eq!(baseline, chaotic, "seed {seed} changed the partition");
        }
    }

    /// A leaf's identity, carried as its payload by the mapped runs.
    type Key = (TreeId, u64, u8);

    fn key_of<Q: Quadrant>(t: TreeId, q: &Q) -> Key {
        (t, q.morton_abs(), q.level())
    }

    /// The per-leaf rule the runs replace: the leaf at global position
    /// `a` goes to the largest rank `r` with `cut(r) = N·r/P ≤ a`, found
    /// by binary search. Returns this rank's leaves, the markers and the
    /// number of leaves leaving this rank.
    fn oracle<Q: Quadrant>(f: &Forest<Q>, comm: &Comm) -> (Vec<Key>, Vec<(u32, u64)>, usize) {
        let all: Vec<Key> = f
            .gather_all(comm)
            .iter()
            .map(|(t, q)| key_of(*t, q))
            .collect();
        let (n, p) = (all.len() as u64, comm.size() as u64);
        let dest = |a: u64| -> usize {
            let (mut lo, mut hi) = (0u64, p - 1);
            while lo < hi {
                let mid = (lo + hi).div_ceil(2);
                if n * mid / p <= a {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            lo as usize
        };
        let offset = comm.exscan_sum(f.local_count() as u64);
        let moved = (offset..offset + f.local_count() as u64)
            .filter(|&a| dest(a) != comm.rank())
            .count();
        let mut firsts = vec![None; comm.size()];
        for (a, k) in all.iter().enumerate().rev() {
            firsts[dest(a as u64)] = Some((k.0, k.1));
        }
        let markers = Forest::<Q>::markers_from_firsts(f.connectivity().num_trees(), &firsts, n);
        let mine = (0..n)
            .filter(|&a| dest(a) == comm.rank())
            .map(|a| all[a as usize])
            .collect();
        (mine, markers, moved)
    }

    /// `partition` and `partition_mapped` against [`oracle`] on skewed,
    /// multitree forests at P ∈ {1, 2, 3, 4, 5, 8, 12}, with ranks left
    /// empty: the same leaves, markers and moved count, and every payload
    /// (the leaf's own key) still beside its leaf.
    fn runs_match_the_per_leaf_rule<Q: Quadrant>(conn: Connectivity, level: u8, deep: u8) {
        let conn = Arc::new(conn);
        for p in [1usize, 2, 3, 4, 5, 8, 12] {
            let conn = conn.clone();
            quadforest_comm::run(p, move |comm| {
                let mut f = Forest::<Q>::new_uniform(conn.clone(), &comm, level);
                // skewed: only the first tree's low corner is deep
                f.refine(&comm, true, |t, q| {
                    t == 0 && q.coords().iter().all(|&c| c < Q::len_at(1)) && q.level() < deep
                });
                for mapped in [false, true, false] {
                    let (want, markers, moved) = oracle(&f, &comm);
                    let mut data = LeafData::init(&f, key_of);
                    let got_moved = if mapped {
                        f.partition_mapped(&comm, &mut data)
                    } else {
                        f.partition(&comm)
                    };
                    let got: Vec<Key> = f.leaves().map(|(t, q)| key_of(t, q)).collect();
                    assert_eq!(got, want, "P = {p}, rank {}", comm.rank());
                    assert_eq!(f.markers(), &markers[..], "P = {p}");
                    assert_eq!(got_moved, moved, "P = {p}, rank {}", comm.rank());
                    if mapped {
                        assert_eq!(data.iter().copied().collect::<Vec<_>>(), got);
                    }
                    // unbalance again for the next round: refining moves
                    // no leaf between ranks
                    f.refine(&comm, false, |_, q| {
                        q.level() < deep && q.morton_index() % 7 == 3
                    });
                }
            });
        }
    }

    #[test]
    fn partition_runs_match_the_per_leaf_rule_2d() {
        runs_match_the_per_leaf_rule::<Q2>(Connectivity::brick2d(3, 2, false, true), 1, 5);
        runs_match_the_per_leaf_rule::<MortonQuad<2>>(Connectivity::unit(2), 0, 4);
        // four leaves: most ranks are empty before and after
        runs_match_the_per_leaf_rule::<AvxQuad<2>>(Connectivity::periodic(2), 0, 1);
    }

    #[test]
    fn partition_runs_match_the_per_leaf_rule_3d() {
        runs_match_the_per_leaf_rule::<AvxQuad<3>>(
            Connectivity::brick3d(2, 1, 2, [false; 3]),
            1,
            3,
        );
    }
}
