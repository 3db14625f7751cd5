//! Synthetic workloads matching Section 3 of the paper.
//!
//! The paper's micro-benchmarks run over "an array of 2396745 3D
//! quadrants of various refinement levels limited by a maximum of 7":
//! exactly the complete octree populated at *every* level `0..=7`,
//! `Σ_{ℓ=0}^{7} 8^ℓ = (8^8 − 1) / 7 = 2,396,745` octants.

use crate::quadrant::Quadrant;

/// Number of quadrants in the complete tree with all levels `0..=max_level`.
pub fn complete_tree_count(dim: u32, max_level: u8) -> u64 {
    (0..=max_level as u32).map(|l| 1u64 << (dim * l)).sum()
}

/// The paper's benchmark array: every quadrant of every level
/// `0..=max_level`, level-major in SFC order within each level.
///
/// With `Q = three-dimensional` and `max_level = 7` this is the exact
/// 2,396,745-element workload of Section 3.1.
pub fn complete_tree<Q: Quadrant>(max_level: u8) -> Vec<Q> {
    assert!(max_level <= Q::MAX_LEVEL);
    let mut out = Vec::with_capacity(complete_tree_count(Q::DIM, max_level) as usize);
    for level in 0..=max_level {
        let count = Q::uniform_count(level);
        if count == 0 {
            continue;
        }
        // Walk by successor, the cheapest uniform enumeration for every
        // representation; start from index 0.
        let mut q = Q::from_morton(0, level);
        for i in 0..count {
            out.push(q);
            if i + 1 < count {
                q = q.successor();
            }
        }
    }
    out
}

/// All quadrants of one uniform level, in SFC order; the workload of the
/// Section 3.2 memory experiment (a uniform octree built by repeated
/// `Morton` calls).
pub fn uniform_level<Q: Quadrant>(level: u8) -> Vec<Q> {
    assert!(level <= Q::MAX_LEVEL);
    (0..Q::uniform_count(level))
        .map(|i| Q::from_morton(i, level))
        .collect()
}

/// Pairs `(index, level)` for constructing quadrants without committing
/// to a representation — the input stream of the `Morton` benchmark
/// (Fig. 2), which measures `from_morton` itself.
pub fn morton_inputs(dim: u32, max_level: u8) -> Vec<(u64, u8)> {
    let mut out = Vec::with_capacity(complete_tree_count(dim, max_level) as usize);
    for level in 0..=max_level {
        for i in 0..1u64 << (dim * level as u32) {
            out.push((i, level));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrant::MortonQuad;

    #[test]
    fn paper_count_is_exact() {
        // Section 3.1: 2,396,745 octants with levels <= 7.
        assert_eq!(complete_tree_count(3, 7), 2_396_745);
        assert_eq!(complete_tree_count(2, 7), 21_845);
    }

    #[test]
    fn complete_tree_structure() {
        let v = complete_tree::<MortonQuad<3>>(3);
        assert_eq!(v.len() as u64, complete_tree_count(3, 3));
        // level-major: first the root, then 8 level-1, then 64 level-2 ...
        assert_eq!(v[0].level(), 0);
        assert_eq!(v[1].level(), 1);
        assert_eq!(v[9].level(), 2);
        // within one level the Morton index increases by one
        for w in v[9..9 + 64].windows(2) {
            assert_eq!(w[1].morton_index(), w[0].morton_index() + 1);
        }
    }

    #[test]
    fn uniform_level_enumerates_in_order() {
        let v = uniform_level::<MortonQuad<2>>(3);
        assert_eq!(v.len(), 64);
        for (i, q) in v.iter().enumerate() {
            assert_eq!(q.morton_index(), i as u64);
            assert_eq!(q.level(), 3);
        }
    }

    #[test]
    fn morton_inputs_match_complete_tree() {
        let inputs = morton_inputs(3, 2);
        let tree = complete_tree::<MortonQuad<3>>(2);
        assert_eq!(inputs.len(), tree.len());
        for ((i, l), q) in inputs.iter().zip(&tree) {
            assert_eq!(*i, q.morton_index());
            assert_eq!(*l, q.level());
        }
    }
}
