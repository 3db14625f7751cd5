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
//! 2. **Close**, finest level first: an interior node `p` makes its
//!    parent `P` interior, and the parent of each of its same-size
//!    neighbor domains `p + o·H` — the 2:1 rule one level up (DESIGN.md
//!    §3.4). Those parents depend only on `P` and on the sides of `P` that
//!    `p` touches, so each sibling *family* steps once from `P` along each
//!    sub-offset a present child reaches (`directions::neighbor_index`: a
//!    dilated ±1 on the index). The parents are merged into the next
//!    level's sorted seeds ([`merge_tail`], by the regime the tail's size
//!    and span pick); a level is finished before the next coarser one
//!    starts, so one pass closes the set.
//! 3. **One exchange**: every rule has a single premise, so the closure
//!    of a union is the union of the closures. Each rank closes its own
//!    seeds over the *whole* forest and ships every node to the ranks
//!    whose range its subtree overlaps; receivers merge the arrivals, a
//!    small tail, into their sorted levels and are done — no second
//!    round, no convergence reduction.
//! 4. **Rebuild**: a depth-first walk in curve order meets each level's
//!    indices in increasing order, so one plain forward cursor per level
//!    decides "interior → split, else emit" for old leaves and their new
//!    descendants alike; an exhausted cursor passes a family of leaves.
//!
//! Inter-tree constraints propagate across *face* connections (including
//! edge/corner offsets that exit through a single tree face); tree-edge
//! and tree-corner connections are not modeled (see DESIGN.md).

use crate::directions::{neighbor_index, offsets};
use crate::{index_span, overlapping, Forest};
use quadforest_comm::Comm;
use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::Quadrant;

/// Which neighbor relations an algorithm considers: the 2:1 constraint
/// of [`Forest::balance`], the adjacency of [`Forest::ghost`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BalanceKind {
    /// Faces only (p4est's `P4EST_CONNECT_FACE`).
    Face,
    /// Faces, edges (3D) and corners (`P4EST_CONNECT_FULL`).
    Full,
}

/// A node of the closure: `(tree, I_ℓ)`.
type Node = (u32, u64);

/// The node buffer and bitmap [`merge_tail`] reuses within one call.
type Scratch = (Vec<Node>, Vec<u64>);

impl<Q: Quadrant> Forest<Q> {
    /// 2:1-balance the forest (collective). Returns the number of leaves
    /// split on this rank.
    pub fn balance(&mut self, comm: &Comm, kind: BalanceKind) -> usize {
        let _span = quadforest_telemetry::span("balance");
        quadforest_telemetry::counter_add("forest.balance.rounds", 1);
        let d = Q::DIM;
        let mut scratch = Scratch::default();
        let mut interior = self.interior(kind, &mut scratch);

        // each level goes to every other rank its nodes' subtrees overlap;
        // the nodes wholly inside this rank's range are one run: skip it
        let mut outgoing: Vec<Vec<(u32, u8, u64)>> = (0..self.size).map(|_| Vec::new()).collect();
        let mine = &self.markers[self.rank..=self.rank + 1];
        for (level, nodes) in (0..).zip(&interior) {
            let lo = nodes.partition_point(|&(t, i)| (t, index_span::<Q>(i, level).0) < mine[0]);
            let hi = nodes.partition_point(|&(t, i)| (t, index_span::<Q>(i, level).1) < mine[1]);
            for &(tree, i) in nodes[..lo].iter().chain(&nodes[hi.max(lo)..]) {
                for r in self.owners_of_span(tree, index_span::<Q>(i, level)) {
                    if r != self.rank {
                        outgoing[r].push((tree, level, i));
                    }
                }
            }
        }
        quadforest_telemetry::counter_add(
            "forest.balance.nodes_sent",
            outgoing.iter().map(|v| v.len() as u64).sum(),
        );

        // the one exchange: what arrives is already closed, and is
        // merged into each sorted level
        let from: Vec<usize> = interior.iter().map(Vec::len).collect();
        for (tree, level, i) in comm.alltoallv(outgoing).into_iter().flatten() {
            interior[level as usize].push((tree, i));
        }
        for (level, (nodes, from)) in (0..).zip(interior.iter_mut().zip(from)) {
            merge_tail(nodes, from, d * level, &mut scratch);
        }

        // rebuild: one plain forward cursor per level over the sorted
        // sets decides every node the walk meets; the replacement of each
        // split leaf is collected in `fresh`
        let mut cursor = vec![0usize; interior.len()];
        let is_interior = |cursor: &mut [usize], level: u8, node: Node| {
            let (set, c) = (&interior[level as usize], &mut cursor[level as usize]);
            while *c < set.len() && set[*c] < node {
                *c += 1;
            }
            *c < set.len() && set[*c] == node
        };
        let (mut split, mut stack, mut fresh, mut cuts) =
            (0, Vec::new(), Vec::<Q>::new(), Vec::new());
        for (t, leaves) in (0..).zip(self.trees.iter_mut()) {
            fresh.clear();
            cuts.clear();
            let mut at = 0;
            while let Some(q) = leaves.get(at) {
                // an exhausted level — most leaves sit at the finest, whose
                // set is empty — passes the leaf's whole family
                let (level, leaf) = (q.level(), at);
                let spent = cursor[level as usize] == interior[level as usize].len();
                at = if spent { family(leaves, at).1 } else { at + 1 };
                if !spent && is_interior(&mut cursor, level, (t, q.morton_index())) {
                    cuts.push((leaf, fresh.len()));
                    stack.push((level, q.morton_index()));
                }
                while let Some((level, i)) = stack.pop() {
                    if is_interior(&mut cursor, level, (t, i)) {
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

    /// This rank's interior sets, sorted per level: the parents of its
    /// leaves, closed finest-first over the whole forest in key space.
    fn interior(&self, kind: BalanceKind, scratch: &mut Scratch) -> Vec<Vec<Node>> {
        let d = Q::DIM;
        // seeded with the parent word of every run of sibling leaves, a
        // family in one step; each level's seeds come out sorted (a parent
        // repeated after a subdivided sibling merges away)
        let mut interior: Vec<Vec<Node>> = vec![Vec::new(); Q::MAX_LEVEL as usize + 1];
        for (t, leaves) in (0..).zip(&self.trees) {
            let (mut at, mut prev) = (0, u64::MAX);
            while at < leaves.len() {
                let (word, next) = family(leaves, at);
                if word != prev && word & 31 > 0 {
                    interior[(word & 31) as usize - 1].push((t, word >> 5));
                }
                (at, prev) = (next, word);
            }
        }

        // each finished level steps up one level per sibling family
        let (conn, subs) = (self.connectivity(), sub_offsets::<Q>(kind));
        let mut steps = 0;
        for level in (1..=Q::MAX_LEVEL as usize).rev() {
            let (coarser, finer) = interior.split_at_mut(level);
            let up = &mut coarser[level - 1];
            let from = up.len();
            steps += close_families::<Q>(conn, &subs, (&finer[0], level as u8), up);
            merge_tail(up, from, d * (level as u32 - 1), scratch);
        }
        quadforest_telemetry::counter_add("forest.balance.neighbor_steps", steps);
        interior
    }

    /// Check the 2:1 property among the *local* leaves only, returning
    /// the first violation found: a neighbor domain owned by another
    /// rank is not looked at (the cross-rank property is what
    /// `tests/balance_oracle.rs` covers). Used by tests; collective-free.
    pub fn is_balanced_local(&self, kind: BalanceKind) -> Result<(), String> {
        let offs = offsets(Q::DIM, kind);
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

/// The packed parent word `I_{ℓ−1} · 32 + ℓ` of `leaves[at]`, equal
/// exactly among siblings, and one past its sibling family when its later
/// siblings are all leaves, else `at + 1`. They are when the leaf as many
/// places on as there are later siblings has the same level: a subdivided
/// sibling would fill more places than that, and the places up to it lie
/// in the family's subtree (a tree's local leaves are one curve range).
fn family<Q: Quadrant>(leaves: &[Q], at: usize) -> (u64, usize) {
    let (q, last) = (&leaves[at], Q::NUM_CHILDREN as u64 - 1);
    let (i, level) = (q.morton_index(), q.level());
    let next = at + (last - (i & last)) as usize;
    let whole = leaves.get(next).is_some_and(|p| p.level() == level);
    let word = (i >> Q::DIM) << 5 | level as u64;
    (word, if whole { next + 1 } else { at + 1 })
}

/// Each offset of `kind`, with the children (as bits) that reach the
/// parent's neighbor domain along it: those on its outward side on every
/// axis the offset moves (bit 1 for `+1`, bit 0 for `−1`).
fn sub_offsets<Q: Quadrant>(kind: BalanceKind) -> Vec<([i32; 3], u32)> {
    let outward = |o: [i32; 3], c| (0..3).all(|a| o[a] == 0 || (o[a] == 1) == (c >> a & 1 == 1));
    let children = |o| (0..Q::NUM_CHILDREN).fold(0, |m, c| m | (outward(o, c) as u32) << c);
    let offs = offsets(Q::DIM, kind);
    offs.into_iter().map(|o| (o, children(o))).collect()
}

/// One level's step up, per sibling family of the sorted `nodes`: push
/// the parent and its neighbor domain along each sub-offset a present
/// child reaches. Returns the number of neighbor steps taken.
fn close_families<Q: Quadrant>(
    conn: &Connectivity,
    subs: &[([i32; 3], u32)],
    (nodes, level): (&[Node], u8),
    up: &mut Vec<Node>,
) -> u64 {
    let (d, mut steps) = (Q::DIM, 0);
    let child = |&(_, i): &Node| 1 << (i & ((1 << d) - 1));
    for family in nodes.chunk_by(|a, b| (a.0, a.1 >> d) == (b.0, b.1 >> d)) {
        let (tree, parent) = (family[0].0, family[0].1 >> d);
        up.push((tree, parent));
        let present = family.iter().fold(0, |m, n| m | child(n));
        for &(off, _) in subs.iter().filter(|(_, children)| present & children != 0) {
            if let Some(node) = neighbor_index::<Q>(conn, tree, parent, level - 1, off) {
                up.push(node);
            }
            steps += 1;
        }
    }
    steps
}

/// Keys per node up to which [`merge_tail`] reads the union off a bitmap
/// (the crossover with the radix sort: EXPERIMENTS.md, "Dense closure levels").
const DENSE_SPAN_PER_NODE: u128 = 64;

/// A tail shorter than the sorted part over this factor is sorted on its
/// own (EXPERIMENTS.md, "Balance at the cost of its closure").
const SMALL_TAIL: usize = 8;

/// Merge `set[from..]` into the sorted `set[..from]`, deduplicating, over
/// keys `(tree << s) | index` (`s = d·ℓ` at level `ℓ`). An empty tail
/// returns at once (a closed level is duplicate-free), a tail
/// under `1/SMALL_TAIL` of the set is sorted alone, a dense union (≤
/// [`DENSE_SPAN_PER_NODE`] keys per node) is read off a bitmap in `u64`
/// keys less the lowest, any other tail LSD-radix-sorted (a pass per key
/// byte that varies); a sorted tail is merged from the back.
fn merge_tail(set: &mut Vec<Node>, from: usize, s: u32, scratch: &mut Scratch) {
    let (tail, sorted) = (&mut set[from..], &mut scratch.0);
    if tail.is_empty() {
        return;
    } else if tail.len() * SMALL_TAIL < from {
        tail.sort_unstable();
        sorted.clear();
        sorted.extend_from_slice(tail);
    } else {
        // the sorted part's extremes are its ends: fold the tail only
        let ends = [set[0], set[from.max(1) - 1]];
        let (lo, hi) = (set[from..].iter().chain(&ends))
            .fold((ends[0], ends[0]), |(l, h), &n| (l.min(n), h.max(n)));
        let span = (((hi.0 - lo.0) as u128) << s | hi.1 as u128) - lo.1 as u128;
        if span < DENSE_SPAN_PER_NODE * set.len() as u128 {
            // every key less `lo` fits in 64 bits: exact modulo 2^64
            let shl = |t: u32| ((t - lo.0) as u64).checked_shl(s).unwrap_or(0);
            let key = |n: &Node| shl(n.0).wrapping_add(n.1).wrapping_sub(lo.1);
            let bits = &mut scratch.1;
            bits.clear();
            bits.resize((span / 64 + 1) as usize, 0);
            for k in set.iter().map(key) {
                bits[(k / 64) as usize] |= 1 << (k % 64);
            }
            set.clear();
            let mask = u64::MAX.checked_shr(64 - s).unwrap_or(0);
            for (w, mut word) in (0..).zip(bits.iter().copied()) {
                while word != 0 {
                    let (k, carry) = lo.1.overflowing_add(64 * w + word.trailing_zeros() as u64);
                    let tree = lo.0 + carry as u32 + k.checked_shr(s).unwrap_or(0) as u32;
                    set.push((tree, k & mask));
                    word &= word - 1;
                }
            }
            return;
        }
        // `(tree << 64) | index` sorts as `(tree << s) | index` does
        let key = |n: &Node| (n.0 as u128) << 64 | n.1 as u128;
        let tail = &mut set[from..];
        let varying = tail.iter().fold(0, |v, n| v | (key(n) ^ key(&tail[0])));
        sorted.resize(tail.len(), (0, 0));
        let (mut src, mut dst, mut in_sorted) = (tail, &mut sorted[..], false);
        for shift in (0..96).step_by(8).filter(|s| (varying >> s) as u8 != 0) {
            let digit = |n: &Node| (key(n) >> shift) as u8 as usize;
            let mut at = [0usize; 256];
            src.iter().for_each(|n| at[digit(n)] += 1);
            let mut sum = 0;
            at.iter_mut().for_each(|a| (*a, sum) = (sum, sum + *a));
            for n in src.iter() {
                dst[at[digit(n)]] = *n;
                at[digit(n)] += 1;
            }
            (src, dst, in_sorted) = (dst, src, !in_sorted);
        }
        if !in_sorted {
            dst.copy_from_slice(src);
        }
    }
    let (mut a, mut b) = (from, sorted.len());
    while b > 0 {
        let take = a > 0 && set[a - 1] > sorted[b - 1];
        (a, b) = (a - take as usize, b - !take as usize);
        set[a + b] = if take { set[a] } else { sorted[b] };
    }
    set.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The parent commit's per-node step, `neighbor_index` from every
    /// node along every offset, kept as the oracle of [`close_families`];
    /// it also returns the number of steps it took.
    fn close_nodes<Q: Quadrant>(
        conn: &Connectivity,
        nodes: &[Node],
        level: u8,
        offs: &[[i32; 3]],
        up: &mut Vec<Node>,
    ) -> u64 {
        let d = Q::DIM;
        let mut steps = 0;
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
        for &off in offs {
            for &(tree, i) in nodes.iter() {
                steps += 1;
                // half the domains are siblings of the node itself:
                // same parent, pushed above
                if let Some((nt, ni)) = neighbor_index::<Q>(conn, tree, i, level, off) {
                    if (nt, ni >> d) != (tree, i >> d) {
                        push((nt, ni >> d));
                    }
                }
            }
        }
        steps
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A random sorted set of level-`level` nodes: random families over
    /// the trees of `conn`, each with a random nonempty set of children,
    /// whose parents sit mostly on tree faces, edges and corners.
    fn random_nodes<Q: Quadrant>(conn: &Connectivity, level: u8, rng: &mut u64) -> Vec<Node> {
        let cells = 1u64 << (level - 1);
        let mut nodes = Vec::new();
        for _ in 0..24 {
            let tree = (xorshift(rng) % conn.num_trees() as u64) as u32;
            let coords = std::array::from_fn(|a| {
                let r = xorshift(rng);
                let cell =
                    [0, 1, cells / 2, cells.saturating_sub(2), cells - 1, r >> 8][(r % 6) as usize];
                let cell = if a < Q::DIM as usize { cell % cells } else { 0 };
                cell as i32 * Q::len_at(level - 1)
            });
            let parent = Q::from_coords(coords, level - 1).morton_index();
            let children = xorshift(rng) % ((1 << Q::NUM_CHILDREN) - 1) + 1;
            for c in (0..Q::NUM_CHILDREN as u64).filter(|c| children >> c & 1 == 1) {
                nodes.push((tree, parent << Q::DIM | c));
            }
        }
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    fn family_step_is_the_node_step<Q: Quadrant>(conn: &Connectivity) {
        let mut rng = 0x9E37_79B9_7F4A_7C15;
        for kind in [BalanceKind::Face, BalanceKind::Full] {
            let (offs, subs) = (offsets(Q::DIM, kind), sub_offsets::<Q>(kind));
            for level in 1..=Q::MAX_LEVEL {
                let nodes = random_nodes::<Q>(conn, level, &mut rng);
                let (mut by_family, mut by_node) = (Vec::new(), Vec::new());
                close_families::<Q>(conn, &subs, (&nodes, level), &mut by_family);
                close_nodes::<Q>(conn, &nodes, level, &offs, &mut by_node);
                for pushed in [&mut by_family, &mut by_node] {
                    pushed.sort_unstable();
                    pushed.dedup();
                }
                assert_eq!(by_family, by_node, "{} {kind:?} level {level}", Q::NAME);
            }
        }
    }

    #[test]
    fn family_closure_is_the_node_closure() {
        for conn in [
            Connectivity::unit(2),
            Connectivity::periodic(2),
            Connectivity::brick2d(3, 2, false, false),
            Connectivity::two_trees_2d(1),
            Connectivity::two_trees_rotated_2d(),
        ] {
            family_step_is_the_node_step::<Q2>(&conn);
            family_step_is_the_node_step::<MortonQuad<2>>(&conn);
            family_step_is_the_node_step::<AvxQuad<2>>(&conn);
        }
        for conn in [
            Connectivity::unit(3),
            Connectivity::periodic(3),
            Connectivity::brick3d(2, 1, 2, [false; 3]),
            Connectivity::two_trees_rotated_3d(),
        ] {
            family_step_is_the_node_step::<Q3>(&conn);
            family_step_is_the_node_step::<MortonQuad<3>>(&conn);
            family_step_is_the_node_step::<AvxQuad<3>>(&conn);
        }
    }

    #[test]
    fn merge_tail_is_sort_and_dedup() {
        let mut rng = 0x2545_F491_4F6C_DD1D;
        let mut scratch = Scratch::default();
        for (len, wide) in [(0, true), (1, true), (2, false), (300, false), (5000, true)] {
            // few trees and few distinct indices, so keys repeat; `wide`
            // varies every byte (an even number of passes), else one
            let mut key = || {
                let r = xorshift(&mut rng);
                let (trees, spread) = if wide {
                    (0x0101_0101, 0x0102_0304_0506_0708)
                } else {
                    (0, 1)
                };
                ((r % 3) as u32 * trees, (r >> 2) % 97 * spread)
            };
            let mut set: Vec<Node> = (0..len + len / 2 + 1).map(|_| key()).collect();
            set[..len].sort_unstable();
            let mut want = set.clone();
            want.sort_unstable();
            want.dedup();
            merge_tail(&mut set, len, 64, &mut scratch);
            assert_eq!(set, want, "len {len}");
        }
        // both regimes: keys `spread` apart per node on average (dense
        // up to `DENSE_SPAN_PER_NODE`), a span straddling the boundary
        // of tree `tree` and the next, trees whose bytes vary (`hop`),
        // and the tail in runs of one key
        let mut regimes = [false; 4];
        for (len, spread, tree, hop) in [
            (0, 3, 7u32, 0u64),
            (200, 1, 0, 0),
            (900, 40, 0x0102_0304, 0),
            (900, 63, 0xFFFF_FFFE, 0),
            (900, 65, 0, 0),
            (3000, 1u64 << 20, 0x0A0B_0C0D, 0),
            (3000, 8, 0x0101_0101, 0x0101_0101),
        ] {
            let count = len + len / 2 + 1;
            let span = (count as u64 * spread) as u128;
            let base = (tree as u128) << 64 | (u64::MAX as u128 - span / 2);
            let mut set: Vec<Node> = Vec::new();
            while set.len() < count {
                let r = xorshift(&mut rng);
                let k = base + (r as u128 % span) + ((r >> 60) % 3 * hop) as u128 * (1 << 64);
                let run = if set.len() < len {
                    1
                } else {
                    1 + r as usize % 4
                };
                set.extend(std::iter::repeat_n(((k >> 64) as u32, k as u64), run));
            }
            set[..len].sort_unstable();
            let mut want = set.clone();
            want.sort_unstable();
            want.dedup();
            let key = |n: &Node| (n.0 as u128) << 64 | n.1 as u128;
            let gap = key(&want[want.len() - 1]) - key(&want[0]);
            let dense = gap < DENSE_SPAN_PER_NODE * set.len() as u128;
            regimes[dense as usize] = true;
            merge_tail(&mut set, len, 64, &mut scratch);
            assert_eq!(set, want, "len {len}, spread {spread}, tree {tree:#x}");
        }
        assert_eq!(regimes[..2], [true; 2], "both the radix and the bitmap ran");

        // the empty tail, and tails small against the set (under one in
        // `SMALL_TAIL`), at the boundary and one past it, over wide keys
        // (the radix past the boundary) and narrow ones (the bitmap)
        for (len, tail, wide) in [
            (0, 0, true),
            (500, 0, false),
            (800, 1, true),
            (800, 99, true),
            (800, 100, true),
            (800, 99, false),
            (800, 100, false),
            (64, 7, false),
            (64, 8, false),
        ] {
            let mut key = || {
                let r = xorshift(&mut rng);
                let (t, i) = ((r % 3) as u32, (r >> 2) % 4000);
                if wide {
                    (t * 0x0101_0101, i.wrapping_mul(0x0102_0304_0506_0708))
                } else {
                    (7, i)
                }
            };
            let mut set: Vec<Node> = (0..len + len / 4).map(|_| key()).collect();
            set.sort_unstable();
            set.dedup();
            assert!(set.len() >= len);
            set.truncate(len);
            set.extend((0..tail).map(|_| key()));
            if tail > 1 {
                // a key the sorted part holds
                set[len + tail - 1] = set[0];
            }
            let mut want = set.clone();
            want.sort_unstable();
            want.dedup();
            let key = |n: &Node| (n.0 as u128) << 64 | n.1 as u128;
            let regime = match tail {
                0 => 2,
                t if t * SMALL_TAIL < len => 3,
                _ => {
                    let gap = key(&want[want.len() - 1]) - key(&want[0]);
                    (gap < DENSE_SPAN_PER_NODE * set.len() as u128) as usize
                }
            };
            regimes[regime] = true;
            merge_tail(&mut set, len, 64, &mut scratch);
            assert_eq!(set, want, "len {len}, tail {tail}, wide {wide}");
        }
        assert_eq!(
            regimes, [true; 4],
            "the radix, the bitmap, the empty and the small tail ran"
        );

        // a level dense in each of five trees: level 3 in 2D (64 nodes a
        // tree), every third node seeded, random ones pushed in runs of
        // one to four — dense keyed at `s = d·ℓ`, sparse at `s = 64`
        let (level, trees) = (3u32, 5u32);
        let cells = 1u64 << (2 * level);
        let mut set: Vec<Node> = (0..trees)
            .flat_map(|t| (0..cells).filter(|i| i % 3 == 0).map(move |i| (t, i)))
            .collect();
        let from = set.len();
        while set.len() < from + 2 * (trees as u64 * cells) as usize {
            let r = xorshift(&mut rng);
            let node = ((r % trees as u64) as u32, (r >> 8) % cells);
            set.extend(std::iter::repeat_n(node, 1 + (r >> 4) as usize % 4));
        }
        let mut want = set.clone();
        want.sort_unstable();
        want.dedup();
        let span = |s: u32| {
            let key = |n: &Node| (n.0 as u128) << s | n.1 as u128;
            key(&want[want.len() - 1]) - key(&want[0])
        };
        assert!(span(2 * level) < DENSE_SPAN_PER_NODE * set.len() as u128);
        assert!(span(64) >= DENSE_SPAN_PER_NODE * set.len() as u128);
        merge_tail(&mut set, from, 2 * level, &mut scratch);
        assert_eq!(set, want, "a dense level over {trees} trees");
    }

    /// Does the sphere of radius 0.35 about (0.53, 0.45, 0.51) pass
    /// through the cell of `q`?
    fn cuts_shell<Q: Quadrant>(q: &Q) -> bool {
        let root = Q::len_at(0) as f64;
        let (mut near, mut far) = (0.0, 0.0);
        for (a, c) in q.coords().into_iter().zip([0.53, 0.45, 0.51]) {
            let lo = a as f64 / root - c;
            let hi = lo + q.side() as f64 / root;
            near += if lo > 0.0 {
                lo * lo
            } else if hi < 0.0 {
                hi * hi
            } else {
                0.0
            };
            far += (lo * lo).max(hi * hi);
        }
        near <= 0.35f64.powi(2) && 0.35f64.powi(2) <= far
    }

    /// `forest.balance.neighbor_steps` on a sphere-shell mesh: at most one
    /// step per family and face, at least 2x below the per-node step on
    /// the same interior sets, and the forest the parent commit built.
    #[test]
    fn family_closure_counts_its_steps() {
        use quadforest_telemetry::{self as telemetry, MetricKind};
        type Q = MortonQuad<3>;
        for p in [1, 2] {
            quadforest_comm::run(p, |comm| {
                let conn = Arc::new(Connectivity::unit(3));
                let mut f = Forest::<Q>::new_uniform(conn.clone(), &comm, 2);
                f.refine(&comm, true, |_, q| q.level() < 6 && cuts_shell(q));
                let offs = offsets(3, BalanceKind::Face);
                let (mut families, mut node_steps) = (0, 0);
                for (level, nodes) in f.close(BalanceKind::Face).iter().enumerate().skip(1) {
                    families += nodes
                        .chunk_by(|a, b| (a.0, a.1 >> 3) == (b.0, b.1 >> 3))
                        .count();
                    node_steps +=
                        close_nodes::<Q>(&conn, nodes, level as u8, &offs, &mut Vec::new());
                }
                telemetry::begin_rank(comm.rank());
                f.balance(&comm, BalanceKind::Face);
                let steps = telemetry::rank_snapshot()
                    .get("forest.balance.neighbor_steps", MetricKind::Counter)
                    .map_or(0, |e| e.scalar());
                let _ = telemetry::finish_rank();
                assert!(
                    steps > 0 && steps <= 6 * families as u64,
                    "P = {p}: {steps} steps, {families} families"
                );
                assert!(
                    2 * steps <= node_steps,
                    "P = {p}: {steps} steps, node closure {node_steps}"
                );
                assert_eq!(f.global_count(), 25_670);
                assert_eq!(f.checksum(&comm), 0x39ee_6763_7902_8ccf, "P = {p}");
            });
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

    impl<Q: Quadrant> Forest<Q> {
        /// The interior sets with a scratch of their own.
        fn close(&self, kind: BalanceKind) -> Vec<Vec<Node>> {
            self.interior(kind, &mut Scratch::default())
        }
    }

    /// The parent commit's `merge_tail`, kept as the oracle of
    /// [`merge_tail`]: `u128` keys and a `lo`/`hi` fold over the whole set
    /// on every call, a dense union re-emitted off a fresh bitmap, any
    /// other tail radix-sorted, merged from the back and the whole set
    /// deduplicated.
    fn merge_tail_parent(set: &mut Vec<Node>, from: usize, s: u32, scratch: &mut Vec<Node>) {
        let key = |n: &Node| (n.0 as u128) << s | n.1 as u128;
        let (lo, hi) = set
            .iter()
            .map(key)
            .fold((u128::MAX, 0), |(l, h), k| (l.min(k), h.max(k)));
        if from < set.len() && hi - lo < DENSE_SPAN_PER_NODE * set.len() as u128 {
            let mut bits = vec![0u64; ((hi - lo) / 64 + 1) as usize];
            set.iter()
                .map(|n| key(n) - lo)
                .for_each(|k| bits[(k / 64) as usize] |= 1 << (k % 64));
            set.clear();
            for (w, mut word) in (0..).zip(bits) {
                while word != 0 {
                    let k = lo + 64 * w + word.trailing_zeros() as u128;
                    set.push(((k >> s) as u32, (k & ((1 << s) - 1)) as u64));
                    word &= word - 1;
                }
            }
            return;
        }
        let tail = &mut set[from..];
        let varying = tail.iter().fold(0, |v, n| v | (key(n) ^ key(&tail[0])));
        scratch.resize(tail.len(), (0, 0));
        let (mut src, mut dst, mut in_scratch) = (tail, &mut scratch[..], false);
        for shift in (0..96).step_by(8).filter(|s| (varying >> s) as u8 != 0) {
            let digit = |n: &Node| (key(n) >> shift) as u8 as usize;
            let mut at = [0usize; 256];
            src.iter().for_each(|n| at[digit(n)] += 1);
            let mut sum = 0;
            at.iter_mut().for_each(|a| (*a, sum) = (sum, sum + *a));
            for n in src.iter() {
                dst[at[digit(n)]] = *n;
                at[digit(n)] += 1;
            }
            (src, dst, in_scratch) = (dst, src, !in_scratch);
        }
        if !in_scratch {
            dst.copy_from_slice(src);
        }
        let (mut a, mut b) = (from, scratch.len());
        while b > 0 {
            let take = a > 0 && set[a - 1] > scratch[b - 1];
            (a, b) = (a - take as usize, b - !take as usize);
            set[a + b] = if take { set[a] } else { scratch[b] };
        }
        set.dedup();
    }

    /// The parent commit's balance, kept as the oracle of
    /// [`Forest::balance`]: seeds by an `Option` compare into growing
    /// levels, every merge by [`merge_tail_parent`], and a rebuild whose
    /// cursor counts an iterator forward for every node it asks about.
    fn balance_parent<Q: Quadrant>(f: &mut Forest<Q>, comm: &Comm, kind: BalanceKind) -> usize {
        let d = Q::DIM;
        let mut interior: Vec<Vec<Node>> = vec![Vec::new(); Q::MAX_LEVEL as usize + 1];
        for (t, leaves) in f.trees.iter().enumerate() {
            let mut prev = None;
            for q in leaves {
                let parent = (q.level(), q.morton_index() >> d);
                if q.level() > 0 && prev != Some(parent) {
                    interior[q.level() as usize - 1].push((t as u32, parent.1));
                }
                prev = Some(parent);
            }
        }
        let (conn, subs) = (f.connectivity().clone(), sub_offsets::<Q>(kind));
        let mut scratch = Vec::new();
        for level in (1..=Q::MAX_LEVEL as usize).rev() {
            let (coarser, finer) = interior.split_at_mut(level);
            let up = &mut coarser[level - 1];
            let from = up.len();
            close_families::<Q>(&conn, &subs, (&finer[0], level as u8), up);
            merge_tail_parent(up, from, d * (level as u32 - 1), &mut scratch);
        }

        let mut outgoing: Vec<Vec<(u32, u8, u64)>> = (0..f.size).map(|_| Vec::new()).collect();
        let mine = &f.markers[f.rank..=f.rank + 1];
        for (level, nodes) in (0..).zip(&interior) {
            let lo = nodes.partition_point(|&(t, i)| (t, index_span::<Q>(i, level).0) < mine[0]);
            let hi = nodes.partition_point(|&(t, i)| (t, index_span::<Q>(i, level).1) < mine[1]);
            for &(tree, i) in nodes[..lo].iter().chain(&nodes[hi.max(lo)..]) {
                for r in f.owners_of_span(tree, index_span::<Q>(i, level)) {
                    if r != f.rank {
                        outgoing[r].push((tree, level, i));
                    }
                }
            }
        }
        let from: Vec<usize> = interior.iter().map(Vec::len).collect();
        for (tree, level, i) in comm.alltoallv(outgoing).into_iter().flatten() {
            interior[level as usize].push((tree, i));
        }
        for (level, (nodes, from)) in (0..).zip(interior.iter_mut().zip(from)) {
            merge_tail_parent(nodes, from, d * level, &mut scratch);
        }

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
        for (t, leaves) in f.trees.iter_mut().enumerate() {
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
        }
        f.refresh_global(comm);
        split
    }

    /// Refine below `depth` where a hash of the leaf says so (3 in 16) and
    /// along the path to one point off the centre: deep, scattered
    /// ripples in every direction, the same at every rank count.
    fn scattered<Q: Quadrant>(t: u32, q: &Q, depth: u8) -> bool {
        let h = (t as u64) << 56 ^ q.morton_abs().rotate_left(17) ^ q.level() as u64;
        let root = Q::len_at(0);
        let point = [root / 3, root / 5, if Q::DIM == 3 { root / 7 } else { 0 }];
        let hashed = h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60 < 3;
        q.level() < depth && (hashed || q.contains_point(point))
    }

    fn balance_is_the_parents<Q: Quadrant>(conns: &[Connectivity], base: u8, depth: u8) {
        for p in [1, 2, 3] {
            quadforest_comm::run(p, |comm| {
                for conn in conns {
                    for kind in [BalanceKind::Face, BalanceKind::Full] {
                        let mut f = Forest::<Q>::new_uniform(Arc::new(conn.clone()), &comm, base);
                        f.refine(&comm, true, |t, q| scattered(t, q, depth));
                        let mut parent = f.clone();
                        let split = f.balance(&comm, kind);
                        let want = balance_parent(&mut parent, &comm, kind);
                        let at =
                            format!("{} {kind:?} P = {p}, {} trees", Q::NAME, conn.num_trees());
                        assert_eq!(split, want, "{at}");
                        assert_eq!(f.trees, parent.trees, "{at}");
                        assert_eq!(f.global_count(), parent.global_count(), "{at}");
                        assert!(
                            comm.allreduce_sum(split as u64) > 0,
                            "{at}: nothing to balance"
                        );
                    }
                }
            });
        }
    }

    /// The balance against the parent commit's merge and rebuild (the
    /// oracles above), leaf for leaf, over the three representations in
    /// 2D and 3D, face and full, unit, periodic, brick and rotated
    /// two-tree connectivities, at P = 1, 2, 3.
    #[test]
    fn balance_is_the_parents_merge_and_rebuild() {
        let conns = [
            Connectivity::unit(2),
            Connectivity::periodic(2),
            Connectivity::brick2d(3, 2, true, false),
            Connectivity::two_trees_rotated_2d(),
        ];
        balance_is_the_parents::<Q2>(&conns, 2, 7);
        balance_is_the_parents::<MortonQuad<2>>(&conns, 2, 7);
        balance_is_the_parents::<AvxQuad<2>>(&conns, 2, 7);
        let conns = [
            Connectivity::unit(3),
            Connectivity::periodic(3),
            Connectivity::brick3d(2, 1, 2, [false, true, false]),
            Connectivity::two_trees_rotated_3d(),
        ];
        balance_is_the_parents::<Q3>(&conns, 1, 5);
        balance_is_the_parents::<MortonQuad<3>>(&conns, 1, 5);
        balance_is_the_parents::<AvxQuad<3>>(&conns, 1, 5);
    }
}
