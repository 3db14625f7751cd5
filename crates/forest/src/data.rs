//! Per-leaf application payloads: storage aligned with the rank-global
//! leaf order, adapt-time mapping (interpolate on refine, conservative
//! projection on coarsen), and partition-time migration.
//!
//! This is the data-bearing half of AMR: a [`LeafData`] vector holds one
//! `T` per local leaf, in exactly the order [`Forest::leaves`] yields
//! them. Whenever the mesh changes shape the data must follow:
//!
//! * [`Forest::refine_mapped`] / [`Forest::coarsen_mapped`] /
//!   [`Forest::balance_mapped`] adapt the mesh and then replay the
//!   old→new leaf transition through a [`DataMapper`], in the style of
//!   `p4est_utils_post_gridadapt_map_data`: a simultaneous walk over the
//!   old and new leaf sequences where equal leaves copy, refined leaves
//!   interpolate parent→children, and coarsened families project
//!   children→parent. An op that changed no local leaf maps nothing.
//! * [`Forest::partition_mapped`] piggybacks payloads on the SFC
//!   partition: the values of each run of leaves that changes owner
//!   ship in a payload all-to-all cut by the same runs as the leaf
//!   exchange, and the store is trimmed and spliced in place like the
//!   leaf arrays, so values that stay are not copied and arrivals land
//!   in global leaf order (payload-less partitions keep their original
//!   message shape).
//!
//! Mappers may be called through several levels at once (recursive
//! refinement, multi-level coarsening): the walk descends the implied
//! ancestor chain one level at a time, so a mapper only ever sees a
//! single parent↔child step.

use crate::{key_span, Forest};
use quadforest_comm::Comm;
use quadforest_connectivity::TreeId;
use quadforest_core::quadrant::Quadrant;
use quadforest_core::Wire;
use quadforest_telemetry as telemetry;

/// Per-leaf payload storage for one rank, index-aligned with the
/// rank-global leaf order (tree-major, SFC within each tree — the order
/// of [`Forest::leaves`]). Entry `i` belongs to the `i`-th local leaf.
#[derive(Clone, Debug, PartialEq)]
pub struct LeafData<T> {
    items: Vec<T>,
}

impl<T> LeafData<T> {
    /// Build payloads for every local leaf of `forest` by calling `init`
    /// in rank-global leaf order.
    pub fn init<Q: Quadrant>(forest: &Forest<Q>, mut init: impl FnMut(TreeId, &Q) -> T) -> Self {
        Self {
            items: forest.leaves().map(|(t, q)| init(t, q)).collect(),
        }
    }

    /// Adopt an existing vector as payload storage. Panics unless its
    /// length equals `forest.local_count()`.
    pub(crate) fn from_vec<Q: Quadrant>(forest: &Forest<Q>, items: Vec<T>) -> Self {
        assert_eq!(
            items.len(),
            forest.local_count(),
            "LeafData length must match the local leaf count"
        );
        Self { items }
    }

    /// Number of stored payloads (= local leaf count when aligned).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no payloads are stored.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The payloads as a slice, in rank-global leaf order.
    pub(crate) fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Iterate payloads in rank-global leaf order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// Iterate payloads mutably in rank-global leaf order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.items.iter_mut()
    }

    /// Panic with a phase name unless the store is aligned with
    /// `forest` (one payload per local leaf).
    pub fn check_aligned<Q: Quadrant>(&self, forest: &Forest<Q>, phase: &str) {
        assert_eq!(
            self.items.len(),
            forest.local_count(),
            "LeafData out of sync with forest in {phase}: {} payloads vs {} leaves",
            self.items.len(),
            forest.local_count()
        );
    }
}

impl<T> std::ops::Index<usize> for LeafData<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        &self.items[i]
    }
}

impl<T> std::ops::IndexMut<usize> for LeafData<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.items[i]
    }
}

/// How payloads cross refinement levels. Implementations decide the
/// numerics (piecewise-constant injection, bilinear interpolation,
/// conservative averaging, …); the forest decides *which* leaves map
/// where.
///
/// Contract: for a conservative quantity, `coarsen` applied to the
/// values produced by `refine` over one complete family must return the
/// original parent value (the refine→coarsen round trip is the
/// identity). The conservation proptests in `quadforest-pde` pin this
/// for the patch mapper.
pub trait DataMapper<Q: Quadrant, T> {
    /// Produce the payload of one `child` (child index `child_id` in SFC
    /// order) from its `parent`'s payload. Called `2^d` times per
    /// refined leaf, once per child.
    fn refine(&self, tree: TreeId, parent: &Q, value: &T, child: &Q, child_id: u32) -> T;

    /// Project a complete sibling family onto its `parent`. `values` are
    /// the children's payloads ordered by child index (SFC order).
    fn coarsen(&self, tree: TreeId, parent: &Q, values: &[T]) -> T;
}

/// Reduce a contiguous run of old leaves — exactly the descendants of
/// `node` — to a single payload for `node`, applying `mapper.coarsen`
/// bottom-up one level at a time.
fn project<Q: Quadrant, T: Clone, M: DataMapper<Q, T>>(
    tree: TreeId,
    node: &Q,
    olds: &[Q],
    vals: &[T],
    mapper: &M,
) -> T {
    if olds.len() == 1 && olds[0].level() == node.level() {
        return vals[0].clone();
    }
    debug_assert!(olds.len() >= Q::NUM_CHILDREN as usize);
    let mut child_vals: Vec<T> = Vec::with_capacity(Q::NUM_CHILDREN as usize);
    let mut lo = 0usize;
    for c in 0..Q::NUM_CHILDREN {
        let child = node.child(c);
        let last = key_span(&child).1;
        let hi = lo + olds[lo..].partition_point(|q| q.morton_abs() <= last);
        child_vals.push(project(tree, &child, &olds[lo..hi], &vals[lo..hi], mapper));
        lo = hi;
    }
    mapper.coarsen(tree, node, &child_vals)
}

/// Expand `node`'s payload onto a contiguous run of new leaves — exactly
/// the descendants of `node` — applying `mapper.refine` top-down one
/// level at a time.
fn fill<Q: Quadrant, T: Clone, M: DataMapper<Q, T>>(
    tree: TreeId,
    node: &Q,
    value: &T,
    news: &[Q],
    out: &mut Vec<T>,
    mapper: &M,
) {
    if news.len() == 1 && news[0].level() == node.level() {
        out.push(value.clone());
        return;
    }
    let mut lo = 0usize;
    for c in 0..Q::NUM_CHILDREN {
        let child = node.child(c);
        let last = key_span(&child).1;
        let hi = lo + news[lo..].partition_point(|q| q.morton_abs() <= last);
        if lo < hi {
            let cv = mapper.refine(tree, node, value, &child, c);
            fill(tree, &child, &cv, &news[lo..hi], out, mapper);
        }
        lo = hi;
    }
}

/// Map payloads across one local adaptation: walk the old and new leaf
/// sequences of every tree simultaneously (both are SFC-sorted and
/// cover the same SFC range — refine/coarsen/balance never move leaves
/// between ranks), copying equal leaves, interpolating refined ones and
/// projecting coarsened families through `mapper`.
pub(crate) fn map_adapted<Q: Quadrant, T: Clone, M: DataMapper<Q, T>>(
    old: &Forest<Q>,
    new: &Forest<Q>,
    old_data: &LeafData<T>,
    mapper: &M,
) -> LeafData<T> {
    old_data.check_aligned(old, "map_adapted");
    let mut out: Vec<T> = Vec::with_capacity(new.local_count());
    let mut base = 0usize; // offset of the current tree in old_data
    for t in 0..old.connectivity().num_trees() {
        let tree = t as TreeId;
        let olds = old.tree_leaves(tree);
        let news = new.tree_leaves(tree);
        let vals = &old_data.as_slice()[base..base + olds.len()];
        base += olds.len();
        let (mut i, mut j) = (0usize, 0usize);
        while i < olds.len() && j < news.len() {
            let (o, n) = (&olds[i], &news[j]);
            if o.level() == n.level() && o.morton_abs() == n.morton_abs() {
                out.push(vals[i].clone());
                i += 1;
                j += 1;
            } else if o.level() < n.level() {
                // old leaf was refined: collect its new descendants
                debug_assert!(o.is_ancestor_of(n));
                let last = key_span(o).1;
                let hi = j + news[j..].partition_point(|q| q.morton_abs() <= last);
                fill(tree, o, &vals[i], &news[j..hi], &mut out, mapper);
                i += 1;
                j = hi;
            } else {
                // old leaves were coarsened into the new leaf
                debug_assert!(n.is_ancestor_of(o));
                let last = key_span(n).1;
                let hi = i + olds[i..].partition_point(|q| q.morton_abs() <= last);
                out.push(project(tree, n, &olds[i..hi], &vals[i..hi], mapper));
                i = hi;
                j += 1;
            }
        }
        debug_assert_eq!(i, olds.len(), "old/new leaf walks must end together");
        debug_assert_eq!(j, news.len(), "old/new leaf walks must end together");
    }
    telemetry::counter_add("forest.map.leaves", out.len() as u64);
    LeafData { items: out }
}

impl<Q: Quadrant> Forest<Q> {
    /// [`Forest::refine`] that carries payloads: adapt the mesh, then
    /// map `data` onto the new leaves through `mapper`. Returns the
    /// number of leaves refined on this rank.
    pub fn refine_mapped<T: Clone>(
        &mut self,
        comm: &Comm,
        recursive: bool,
        flag: impl FnMut(TreeId, &Q) -> bool,
        data: &mut LeafData<T>,
        mapper: &impl DataMapper<Q, T>,
    ) -> usize {
        data.check_aligned(self, "refine_mapped");
        let old = self.clone();
        let n = self.refine(comm, recursive, flag);
        if n > 0 {
            *data = map_adapted(&old, self, data, mapper);
        }
        n
    }

    /// [`Forest::coarsen`] that carries payloads: adapt the mesh, then
    /// project `data` onto the new leaves through `mapper`. Returns the
    /// number of families merged on this rank.
    pub fn coarsen_mapped<T: Clone>(
        &mut self,
        comm: &Comm,
        recursive: bool,
        flag: impl FnMut(TreeId, &[Q]) -> bool,
        data: &mut LeafData<T>,
        mapper: &impl DataMapper<Q, T>,
    ) -> usize {
        data.check_aligned(self, "coarsen_mapped");
        let old = self.clone();
        let n = self.coarsen(comm, recursive, flag);
        if n > 0 {
            *data = map_adapted(&old, self, data, mapper);
        }
        n
    }

    /// [`Forest::balance`] that carries payloads: enforce 2:1 balance
    /// (refinement only), then interpolate `data` onto the new leaves
    /// through `mapper`. Returns the number of leaves refined on this
    /// rank.
    pub fn balance_mapped<T: Clone>(
        &mut self,
        comm: &Comm,
        kind: crate::BalanceKind,
        data: &mut LeafData<T>,
        mapper: &impl DataMapper<Q, T>,
    ) -> usize {
        data.check_aligned(self, "balance_mapped");
        let old = self.clone();
        let n = self.balance(comm, kind);
        if n > 0 {
            *data = map_adapted(&old, self, data, mapper);
        }
        n
    }

    /// [`Forest::partition`] that carries payloads: the values of every
    /// run of leaves that changes owner travel in a second all-to-all
    /// cut exactly like the leaf runs, and `data` is trimmed and spliced
    /// in place like the leaf arrays, so it stays in rank-global leaf
    /// order. Returns the number of leaves that moved away from this
    /// rank. Collective.
    pub fn partition_mapped<T>(&mut self, comm: &Comm, data: &mut LeafData<T>) -> usize
    where
        T: Clone + Wire + Send + 'static,
    {
        data.check_aligned(self, "partition_mapped");
        self.partition_core(comm, Some(&mut data.items))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BalanceKind;
    use quadforest_connectivity::Connectivity;
    use quadforest_core::quadrant::{MortonQuad, StandardQuad};
    use std::sync::Arc;

    type Q2 = StandardQuad<2>;

    /// Equal-split mapper over a scalar "mass": refine divides the
    /// parent mass equally among children, coarsen sums — the canonical
    /// conservative pair.
    struct MassMapper;
    impl<Q: Quadrant> DataMapper<Q, f64> for MassMapper {
        fn refine(&self, _t: TreeId, _p: &Q, v: &f64, _c: &Q, _id: u32) -> f64 {
            v / Q::NUM_CHILDREN as f64
        }
        fn coarsen(&self, _t: TreeId, _p: &Q, vs: &[f64]) -> f64 {
            vs.iter().sum()
        }
    }

    fn total(comm: &Comm, data: &LeafData<f64>) -> f64 {
        let local: f64 = data.iter().sum();
        comm.allreduce(local, |a, b| a + b)
    }

    #[test]
    fn refine_mapped_conserves_mass() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 2);
            let mut data = LeafData::init(&f, |_, q| 1.0 + q.morton_index() as f64);
            let before = total(&comm, &data);
            f.refine_mapped(
                &comm,
                true,
                |_, q| q.level() < 4 && q.morton_index() % 3 == 0,
                &mut data,
                &MassMapper,
            );
            data.check_aligned(&f, "test");
            assert!((total(&comm, &data) - before).abs() < 1e-9);
        });
    }

    #[test]
    fn refine_then_coarsen_mapped_round_trips() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 1);
            let mut data = LeafData::init(&f, |_, q| q.morton_index() as f64 + 0.5);
            let orig = data.clone();
            f.refine_mapped(&comm, false, |_, _| true, &mut data, &MassMapper);
            f.coarsen_mapped(&comm, false, |_, _| true, &mut data, &MassMapper);
            assert_eq!(f.global_count(), 4);
            for (a, b) in data.iter().zip(orig.iter()) {
                assert!((a - b).abs() < 1e-12, "{a} vs {b}");
            }
        });
    }

    #[test]
    fn balance_mapped_keeps_alignment_and_mass() {
        quadforest_comm::run(2, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, 2);
            let mut data = LeafData::init(&f, |_, _| 1.0);
            let before = total(&comm, &data);
            f.refine_mapped(
                &comm,
                true,
                |_, q| q.coords() == [0, 0, 0] && q.level() < 6,
                &mut data,
                &MassMapper,
            );
            f.balance_mapped(&comm, BalanceKind::Face, &mut data, &MassMapper);
            data.check_aligned(&f, "test");
            assert!((total(&comm, &data) - before).abs() < 1e-9);
        });
    }

    #[test]
    fn partition_mapped_migrates_payloads() {
        quadforest_comm::run(4, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 1);
            let mut data = LeafData::init(&f, |_, _| 0.0);
            f.refine_mapped(
                &comm,
                true,
                |_, q| q.coords() == [0, 0, 0] && q.level() < 6,
                &mut data,
                &MassMapper,
            );
            // tag every payload with its global SFC identity
            for ((t, q), v) in f.leaves().zip(data.iter_mut()) {
                *v = (t as u64 * 1_000_000 + q.morton_abs() + q.level() as u64) as f64;
            }
            let before = total(&comm, &data);
            f.partition_mapped(&comm, &mut data);
            data.check_aligned(&f, "test");
            // every payload still rides its own leaf
            for ((t, q), v) in f.leaves().zip(data.iter()) {
                let want = (t as u64 * 1_000_000 + q.morton_abs() + q.level() as u64) as f64;
                assert_eq!(*v, want);
            }
            assert_eq!(total(&comm, &data), before);
            // and the partition is equal
            let counts = comm.allgather(f.local_count());
            let (max, min) = (counts.iter().max().unwrap(), counts.iter().min().unwrap());
            assert!(max - min <= 1);
        });
    }

    /// An op that splits or merges no local leaf keeps the payloads as
    /// they are and skips the remap: `forest.map.leaves` does not move,
    /// while a rank the same op did change remaps as before.
    #[test]
    fn idle_mapped_ops_copy_nothing() {
        use quadforest_telemetry::MetricKind;
        quadforest_comm::run(2, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, 3);
            let mut data =
                LeafData::init(&f, |t, q| (t as u64 * 977 + q.morton_abs()) as f64 / 7.0);
            telemetry::begin_rank(comm.rank());
            let mapped = || {
                telemetry::rank_snapshot()
                    .get("forest.map.leaves", MetricKind::Counter)
                    .map_or(0, |e| e.scalar())
            };
            let before = data.clone();
            let n = f.refine_mapped(&comm, false, |_, _| false, &mut data, &MassMapper);
            let m = f.coarsen_mapped(&comm, false, |_, _| false, &mut data, &MassMapper);
            let b = f.balance_mapped(&comm, BalanceKind::Full, &mut data, &MassMapper);
            assert_eq!((n, m, b), (0, 0, 0));
            assert_eq!(mapped(), 0, "an idle op must not remap");
            assert!(data
                .iter()
                .zip(before.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            // refine on rank 0 only: rank 1 is idle and keeps its data
            let rank = comm.rank();
            let n = f.refine_mapped(&comm, false, |_, _| rank == 0, &mut data, &MassMapper);
            let remapped = mapped();
            let _ = telemetry::finish_rank();
            data.check_aligned(&f, "test");
            if rank == 0 {
                assert!(n > 0 && remapped == f.local_count() as u64);
            } else {
                assert_eq!((n, remapped), (0, 0));
                assert_eq!(data, before);
            }
        });
    }

    /// A payload that records its derivation: the old leaf it started
    /// as, then every refine and coarsen step, with the quadrants the
    /// mapper was handed, as `(morton_abs, level)`.
    #[derive(Clone, Debug, PartialEq)]
    enum Trace {
        Leaf(TreeId, (u64, u8)),
        Refined {
            from: Box<Trace>,
            parent: (u64, u8),
            child: (u64, u8),
            child_id: u32,
        },
        Coarsened(TreeId, (u64, u8), Vec<Trace>),
    }

    impl Trace {
        /// True when this value took two steps of one kind in a row.
        fn multi_level(&self) -> bool {
            match self {
                Trace::Leaf(..) => false,
                Trace::Refined { from, .. } => matches!(**from, Trace::Refined { .. }),
                Trace::Coarsened(_, _, vs) => vs.iter().any(|v| matches!(v, Trace::Coarsened(..))),
            }
        }
    }

    fn key<Q: Quadrant>(q: &Q) -> (u64, u8) {
        (q.morton_abs(), q.level())
    }

    struct TraceMapper;
    impl<Q: Quadrant> DataMapper<Q, Trace> for TraceMapper {
        fn refine(&self, _t: TreeId, parent: &Q, v: &Trace, child: &Q, child_id: u32) -> Trace {
            Trace::Refined {
                from: Box::new(v.clone()),
                parent: key(parent),
                child: key(child),
                child_id,
            }
        }
        fn coarsen(&self, t: TreeId, parent: &Q, vs: &[Trace]) -> Trace {
            Trace::Coarsened(t, key(parent), vs.to_vec())
        }
    }

    /// The remap by definition, naively: a new leaf takes its value from
    /// the old leaf that contains it, refined down one level at a time,
    /// or from the old leaves it contains, coarsened up one level at a
    /// time. Containment by linear scan, no cursor.
    fn containment_remap<Q: Quadrant, T: Clone>(
        old: &[(TreeId, Q)],
        vals: &[T],
        new: &[(TreeId, Q)],
        mapper: &impl DataMapper<Q, T>,
    ) -> Vec<T> {
        fn value<Q: Quadrant, T: Clone>(
            tree: TreeId,
            node: &Q,
            old: &[(TreeId, Q)],
            vals: &[T],
            mapper: &impl DataMapper<Q, T>,
        ) -> T {
            let containing = old
                .iter()
                .position(|(t, o)| *t == tree && (o == node || o.is_ancestor_of(node)));
            if let Some(i) = containing {
                let mut v = vals[i].clone();
                for level in old[i].1.level() + 1..=node.level() {
                    let (parent, child) = (node.ancestor(level - 1), node.ancestor(level));
                    v = mapper.refine(tree, &parent, &v, &child, child.child_id());
                }
                return v;
            }
            let children: Vec<T> = (0..Q::NUM_CHILDREN)
                .map(|c| value(tree, &node.child(c), old, vals, mapper))
                .collect();
            mapper.coarsen(tree, node, &children)
        }
        new.iter()
            .map(|(t, n)| value(*t, n, old, vals, mapper))
            .collect()
    }

    /// Run one mapped op and compare its payloads with the containment
    /// remap of the payloads before it. Returns whether some value took
    /// a multi-level jump (on any rank).
    fn mapped_op_is_the_remap<Q: Quadrant>(
        comm: &Comm,
        f: &mut Forest<Q>,
        data: &mut LeafData<Trace>,
        op: impl FnOnce(&mut Forest<Q>, &mut LeafData<Trace>) -> usize,
    ) -> bool {
        let old: Vec<(TreeId, Q)> = f.leaves().map(|(t, q)| (t, *q)).collect();
        let vals: Vec<Trace> = data.iter().cloned().collect();
        let changed = op(f, data) as u64;
        let new: Vec<(TreeId, Q)> = f.leaves().map(|(t, q)| (t, *q)).collect();
        let want = containment_remap(&old, &vals, &new, &TraceMapper);
        assert_eq!(data.iter().cloned().collect::<Vec<_>>(), want);
        assert!(comm.allreduce_sum(changed) > 0, "the op changed nothing");
        comm.allreduce_sum(data.iter().any(Trace::multi_level) as u64) > 0
    }

    /// ROADMAP 9(b): `refine_mapped`, `balance_mapped` and
    /// `coarsen_mapped` equal the containment remap, derivation for
    /// derivation, on multi-level jumps in both directions.
    fn mapped_ops_are_the_containment_remap<Q: Quadrant>(ranks: usize) {
        quadforest_comm::run(ranks, |comm| {
            let conn = Arc::new(Connectivity::unit(Q::DIM));
            let mut f = Forest::<Q>::new_uniform(conn, &comm, 1);
            let mut data = LeafData::init(&f, |t, q| Trace::Leaf(t, key(q)));
            let deep = if Q::DIM == 2 { 6 } else { 4 };
            let what = format!("{} P={ranks}", Q::NAME);
            // the leaves at the domain center down to `deep` in one call,
            // hugging level-1 leaves across the center
            let center = [Q::len_at(1); 3];
            let jumped = mapped_op_is_the_remap(&comm, &mut f, &mut data, |f, data| {
                f.refine_mapped(
                    &comm,
                    true,
                    |_, q| q.level() < deep && q.contains_point(center),
                    data,
                    &TraceMapper,
                )
            });
            assert!(jumped, "{what}: refine");
            // its neighbors split several levels at once
            let jumped = mapped_op_is_the_remap(&comm, &mut f, &mut data, |f, data| {
                f.balance_mapped(&comm, BalanceKind::Full, data, &TraceMapper)
            });
            assert!(jumped, "{what}: balance");
            // whole subtrees collapse several levels at once
            let jumped = mapped_op_is_the_remap(&comm, &mut f, &mut data, |f, data| {
                f.coarsen_mapped(&comm, true, |_, fam| fam[0].level() > 2, data, &TraceMapper)
            });
            assert!(jumped, "{what}: coarsen");
        });
    }

    #[test]
    fn mapped_ops_match_the_containment_remap() {
        for ranks in [1, 2, 3] {
            mapped_ops_are_the_containment_remap::<Q2>(ranks);
            mapped_ops_are_the_containment_remap::<MortonQuad<3>>(ranks);
        }
    }

    #[test]
    fn multi_level_coarsen_projects_subtrees() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 3);
            let mut data = LeafData::init(&f, |_, _| 1.0);
            let before = total(&comm, &data);
            // recursive coarsen collapses several levels in one call
            f.coarsen_mapped(&comm, true, |_, _| true, &mut data, &MassMapper);
            assert_eq!(f.global_count(), 1);
            assert_eq!(data.len(), f.local_count());
            assert!((total(&comm, &data) - before).abs() < 1e-9);
        });
    }
}
