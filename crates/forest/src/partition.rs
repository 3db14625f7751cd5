//! Space-filling-curve partition of the global leaf sequence.
//!
//! The global leaf order is tree-major, SFC within each tree. Partition
//! redistributes leaves so that every rank holds a contiguous range of
//! that sequence with (weighted) equal share — p4est's
//! `p4est_partition`. Communication is a single personalized all-to-all
//! of leaf runs plus an allgather to refresh the partition markers.

use crate::Forest;
use quadforest_comm::Comm;
use quadforest_connectivity::TreeId;
use quadforest_core::quadrant::Quadrant;
use quadforest_core::Wire;

impl<Q: Quadrant> Forest<Q> {
    /// Repartition for equal leaf counts. Returns the number of leaves
    /// that moved away from this rank. Collective.
    pub fn partition(&mut self, comm: &Comm) -> usize {
        self.partition_by(comm, |_, _| 1)
    }

    /// Repartition so that every rank receives (as close as possible)
    /// the same share of total `weight`. Weights must be positive.
    /// Leaves are never split, so heavy single leaves may cause residual
    /// imbalance, exactly as in p4est's weighted partition. Collective.
    pub(crate) fn partition_by(
        &mut self,
        comm: &Comm,
        weight: impl FnMut(TreeId, &Q) -> u64,
    ) -> usize {
        // no payload: the all-to-all ships bare (tree, leaf) runs, the
        // same message shape partition has always used
        self.partition_core(comm, weight, None::<Vec<()>>).0
    }

    /// Shared partition machinery: redistribute leaves (weighted SFC
    /// cuts), optionally with one payload value riding along per leaf.
    /// The leaf exchange always ships bare `(tree, leaf)` runs — the
    /// pre-payload message shape — and `Some` payloads travel in a
    /// second all-to-all bucketed by the same destination cuts, so they
    /// are returned in the new rank-global leaf order.
    /// `payload.len()` must equal the local leaf count.
    pub(crate) fn partition_core<P>(
        &mut self,
        comm: &Comm,
        mut weight: impl FnMut(TreeId, &Q) -> u64,
        payload: Option<Vec<P>>,
    ) -> (usize, Vec<P>)
    where
        P: Clone + Wire + Send + 'static,
    {
        let _span = quadforest_telemetry::span("partition");
        let p = self.size as u64;
        if let Some(payload) = &payload {
            assert_eq!(payload.len(), self.local_count());
        }

        // global weight prefix of this rank
        let local: Vec<(TreeId, Q, u64)> = self
            .leaves()
            .map(|(t, q)| {
                let w = weight(t, q);
                assert!(w > 0, "partition weights must be positive");
                (t, *q, w)
            })
            .collect();
        let local_weight: u64 = local.iter().map(|(_, _, w)| w).sum();
        let my_offset = comm.exscan_sum(local_weight);
        let total = comm.allreduce_sum(local_weight);

        // Destination of a leaf whose weight interval starts at `a`: the
        // largest rank r with cut(r) = floor(total*r/p) <= a.
        let cut = |r: u64| total * r / p;
        let dest_of = |a: u64| -> usize {
            let mut lo = 0u64;
            let mut hi = p - 1;
            while lo < hi {
                let mid = (lo + hi).div_ceil(2);
                if cut(mid) <= a {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            lo as usize
        };

        // bucket local leaves per destination rank (contiguous runs)
        let mut outgoing: Vec<Vec<(TreeId, Q)>> = (0..self.size).map(|_| Vec::new()).collect();
        let mut dests = Vec::with_capacity(local.len());
        let mut moved = 0usize;
        let mut a = my_offset;
        for (t, q, w) in &local {
            let dest = if total == 0 { 0 } else { dest_of(a) };
            if dest != self.rank {
                moved += 1;
            }
            outgoing[dest].push((*t, *q));
            dests.push(dest);
            a += w;
        }

        // payloads travel in their own all-to-all, bucketed by the same
        // destination cuts, so the leaf exchange keeps its bare
        // (tree, leaf) message shape when no payload is present. Only
        // the bytes counter reads a value's encoding here (the thread
        // backend ships values as they are), so encode only when a
        // recorder is listening, into one reused buffer.
        let traced = quadforest_telemetry::enabled();
        let mut scratch = Vec::new();
        let mut payload_bytes = 0usize;
        let outgoing_payload = payload.map(|payload| {
            let mut buckets: Vec<Vec<P>> = (0..self.size).map(|_| Vec::new()).collect();
            for (dest, v) in dests.iter().zip(payload) {
                if traced && *dest != self.rank {
                    scratch.clear();
                    v.encode(&mut scratch);
                    payload_bytes += scratch.len();
                }
                buckets[*dest].push(v);
            }
            buckets
        });

        // exchange
        let incoming = comm.alltoallv(outgoing);
        let arrived: Vec<P> = match outgoing_payload {
            Some(buckets) => comm.alltoallv(buckets).into_iter().flatten().collect(),
            None => Vec::new(),
        };

        // rebuild trees; incoming runs arrive in source-rank order, which
        // is exactly global SFC order — and payload runs, cut by the same
        // destinations, arrive in lock-step
        for tree in &mut self.trees {
            tree.clear();
        }
        for run in incoming {
            for (t, q) in run {
                self.trees[t as usize].push(q);
            }
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
        (moved, arrived)
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
    fn weighted_partition_shifts_boundaries() {
        let counts = quadforest_comm::run(2, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 3);
            // first half of the curve is 7x heavier
            f.partition_by(&comm, |_, q| if q.morton_index() < 32 { 7 } else { 1 });
            assert_eq!(f.validate(), Ok(()));
            f.local_count()
        });
        // total weight 32*7 + 32 = 256; the mid cut falls inside the
        // heavy prefix, so rank 0 holds fewer leaves than rank 1
        assert_eq!(counts.iter().sum::<usize>(), 64);
        assert!(
            counts[0] < counts[1],
            "heavier prefix must shrink rank 0's leaf count: {counts:?}"
        );
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
}
