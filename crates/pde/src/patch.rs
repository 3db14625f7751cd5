//! Fixed-size cell patches: the per-leaf payload of the patch-based
//! solvers, plus the conservative [`DataMapper`] that carries them
//! across refinement levels and the [`PatchHalo`] edge strips shipped
//! through ghost exchange.

use quadforest_connectivity::TreeId;
use quadforest_core::quadrant::Quadrant;
use quadforest_forest::DataMapper;

/// Cells per patch side. Every leaf carries an `N × N` uniform patch
/// regardless of its refinement level, so refining a leaf doubles the
/// local resolution — the ForestClaw model.
pub const PATCH_N: usize = 8;
/// Cells per patch (`PATCH_N²`).
pub const PATCH_CELLS: usize = PATCH_N * PATCH_N;
/// Serialized size of one [`Patch`] in bytes (its `Wire` encoding).
pub const PATCH_WIRE_BYTES: usize = PATCH_CELLS * 8;
/// Serialized size of one [`PatchHalo`] in bytes.
pub(crate) const HALO_WIRE_BYTES: usize = 4 * PATCH_N * 8;

/// An `N × N` patch of cell-averaged values covering one leaf. Cell
/// `(i, j)` covers `[i·h/N, (i+1)·h/N) × [j·h/N, (j+1)·h/N)` of the
/// leaf's domain (`i` along x, `j` along y), stored row-major in `j`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Patch {
    /// Cell values, index `j * PATCH_N + i`.
    pub cells: [f64; PATCH_CELLS],
}

impl Patch {
    /// A patch holding `v` in every cell.
    pub fn constant(v: f64) -> Self {
        Patch {
            cells: [v; PATCH_CELLS],
        }
    }

    /// A zero patch.
    pub fn zero() -> Self {
        Self::constant(0.0)
    }

    /// Flat index of cell `(i, j)`.
    #[inline]
    pub(crate) fn idx(i: usize, j: usize) -> usize {
        debug_assert!(i < PATCH_N && j < PATCH_N);
        j * PATCH_N + i
    }

    /// Value of cell `(i, j)`.
    #[inline]
    pub(crate) fn get(&self, i: usize, j: usize) -> f64 {
        self.cells[Self::idx(i, j)]
    }

    /// Set cell `(i, j)`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, j: usize, v: f64) {
        self.cells[Self::idx(i, j)] = v;
    }

    /// Sum of all cell values (mass in units of one cell area).
    pub fn sum(&self) -> f64 {
        self.cells.iter().sum()
    }

    /// Largest absolute cell value.
    pub(crate) fn max_abs(&self) -> f64 {
        self.cells.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// Integral of the patch over a leaf of physical side `h`:
    /// `Σ cells · (h/N)²`.
    pub fn mass(&self, h: f64) -> f64 {
        let cell_area = (h / PATCH_N as f64) * (h / PATCH_N as f64);
        self.sum() * cell_area
    }
}

// The cells back to back: `[f64; PATCH_CELLS]` moves in bulk.
quadforest_core::wire!(struct Patch { cells });

/// The boundary data one leaf exposes to its neighbors: the patch's
/// four edge strips. Shipped per ghost leaf through
/// [`GhostLayer::exchange_data`](quadforest_forest::GhostLayer::exchange_data),
/// so a rank can compute upwind fluxes against remote patches without
/// shipping whole patches.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PatchHalo {
    /// Edge strips indexed by face (0 = −x, 1 = +x, 2 = −y, 3 = +y);
    /// entries run along the tangential axis.
    pub edges: [[f64; PATCH_N]; 4],
}

quadforest_core::wire!(struct PatchHalo { edges });

/// The conservative patch mapper: piecewise-constant injection on
/// refine (each child cell inherits the parent cell covering it),
/// 2×2 averaging on coarsen (each parent cell is the mean of the four
/// child cells it covers).
///
/// The round trip is **bit-exact**: refine spreads one parent cell
/// value over a 2×2 child block, and the coarsen average
/// `((a+b)+(c+d))·0.25` of four equal values reproduces the value
/// exactly (all intermediate operations scale by powers of two). Patch
/// integrals are therefore conserved to machine precision across any
/// refine/coarsen/balance sequence — the conservation proptests pin
/// this.
pub struct PatchMapper;

impl<Q: Quadrant> DataMapper<Q, Patch> for PatchMapper {
    fn refine(&self, _tree: TreeId, parent: &Q, value: &Patch, child: &Q, _child_id: u32) -> Patch {
        debug_assert_eq!(Q::DIM, 2, "patch payloads are 2D");
        let (pc, cc) = (parent.coords(), child.coords());
        let ox = usize::from(cc[0] != pc[0]) * PATCH_N;
        let oy = usize::from(cc[1] != pc[1]) * PATCH_N;
        let mut out = Patch::zero();
        for j in 0..PATCH_N {
            for i in 0..PATCH_N {
                out.set(i, j, value.get((ox + i) / 2, (oy + j) / 2));
            }
        }
        out
    }

    fn coarsen(&self, _tree: TreeId, _parent: &Q, values: &[Patch]) -> Patch {
        debug_assert_eq!(values.len(), Q::NUM_CHILDREN as usize);
        let mut out = Patch::zero();
        let half = PATCH_N / 2;
        for j in 0..PATCH_N {
            for i in 0..PATCH_N {
                // which child covers parent cell (i, j), and where
                let (ox, oy) = (usize::from(i >= half), usize::from(j >= half));
                let child = &values[oy * 2 + ox];
                let (ci, cj) = (2 * i - ox * PATCH_N, 2 * j - oy * PATCH_N);
                let a = child.get(ci, cj) + child.get(ci + 1, cj);
                let b = child.get(ci, cj + 1) + child.get(ci + 1, cj + 1);
                out.set(i, j, (a + b) * 0.25);
            }
        }
        out
    }
}

#[cfg(test)]
impl Patch {
    /// The four one-cell-deep edge strips, indexed by face
    /// (0 = −x, 1 = +x, 2 = −y, 3 = +y); strip entries run along the
    /// tangential axis. The oracle of the strips the step's kernel
    /// writes.
    pub(crate) fn halo(&self) -> PatchHalo {
        let n = PATCH_N;
        PatchHalo {
            edges: [
                std::array::from_fn(|s| self.get(0, s)),
                std::array::from_fn(|s| self.get(n - 1, s)),
                std::array::from_fn(|s| self.get(s, 0)),
                std::array::from_fn(|s| self.get(s, n - 1)),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadforest_core::quadrant::StandardQuad;
    use quadforest_core::Wire;

    type Q2 = StandardQuad<2>;

    fn sample_patch(seed: u64) -> Patch {
        let mut p = Patch::zero();
        let mut h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for c in p.cells.iter_mut() {
            h ^= h >> 33;
            h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            *c = (h % 1000) as f64 / 997.0;
        }
        p
    }

    #[test]
    fn refine_then_coarsen_is_bit_identical() {
        let parent = Q2::root().child(1);
        let value = sample_patch(42);
        let kids: Vec<Patch> = (0..4)
            .map(|c| {
                DataMapper::<Q2, Patch>::refine(
                    &PatchMapper,
                    0,
                    &parent,
                    &value,
                    &parent.child(c),
                    c,
                )
            })
            .collect();
        let back = DataMapper::<Q2, Patch>::coarsen(&PatchMapper, 0, &parent, &kids);
        assert_eq!(back, value, "refine→coarsen must be the exact identity");
    }

    #[test]
    fn refine_conserves_integral() {
        let parent = Q2::root();
        let value = sample_patch(7);
        let h = 1.0;
        let total: f64 = (0..4)
            .map(|c| {
                DataMapper::<Q2, Patch>::refine(
                    &PatchMapper,
                    0,
                    &parent,
                    &value,
                    &parent.child(c),
                    c,
                )
                .mass(h / 2.0)
            })
            .sum();
        assert!((total - value.mass(h)).abs() < 1e-14);
    }

    #[test]
    fn wire_roundtrip() {
        let p = sample_patch(3);
        let bytes = p.to_wire();
        assert_eq!(bytes.len(), PATCH_WIRE_BYTES);
        assert_eq!(Patch::from_wire(&bytes).unwrap(), p);
        let halo = p.halo();
        let hb = halo.to_wire();
        assert_eq!(hb.len(), HALO_WIRE_BYTES);
        assert_eq!(PatchHalo::from_wire(&hb).unwrap(), halo);
    }

    #[test]
    fn halo_edges_match_patch() {
        let p = sample_patch(11);
        let h = p.halo();
        for s in 0..PATCH_N {
            assert_eq!(h.edges[0][s], p.get(0, s));
            assert_eq!(h.edges[1][s], p.get(PATCH_N - 1, s));
            assert_eq!(h.edges[2][s], p.get(s, 0));
            assert_eq!(h.edges[3][s], p.get(s, PATCH_N - 1));
        }
    }
}
