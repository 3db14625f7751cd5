//! Coordinate transforms across inter-tree faces.

/// Affine coordinate map between the frames of two face-connected trees.
///
/// Applied to a quadrant's anchor coordinates `c` with side length `h`
/// inside a root domain of length `root`, in three steps:
///
/// 1. **translate**: `t[j] = c[j] + translate[j] · root` — moves the
///    exterior quadrant (which stepped one root length out of its tree)
///    into the neighbor's fundamental domain,
/// 2. **permute**: output axis `i` reads source axis `perm[i]`,
/// 3. **flip**: reflected axes map `v ↦ root − h − v` (the quadrant
///    *anchor* reflection, hence the `− h`).
///
/// This is equivalent to p4est's `(face, orientation)` encoding plus its
/// permutation tables, but stores the resolved map directly.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FaceTransform {
    /// Output axis `i` reads source axis `perm[i]`.
    pub perm: [usize; 3],
    /// Reflect output axis `i` within the root domain.
    pub flip: [bool; 3],
    /// Whole-root translation applied to each *source* axis first.
    pub translate: [i32; 3],
}

impl FaceTransform {
    /// Identity permutation, no reflection, given translation — the
    /// transform across every axis-aligned connection (brick, periodic).
    pub(crate) const fn axis_aligned(translate: [i32; 3]) -> Self {
        Self {
            perm: [0, 1, 2],
            flip: [false, false, false],
            translate,
        }
    }

    /// Apply to a quadrant anchor `coords` with side `h` in a domain of
    /// length `root`.
    #[inline]
    pub fn apply(&self, coords: [i32; 3], h: i32, root: i32) -> [i32; 3] {
        let t = [
            coords[0] + self.translate[0] * root,
            coords[1] + self.translate[1] * root,
            coords[2] + self.translate[2] * root,
        ];
        let mut out = [0i32; 3];
        for i in 0..3 {
            let v = t[self.perm[i]];
            out[i] = if self.flip[i] { root - h - v } else { v };
        }
        out
    }

    /// Verify that `other ∘ self` is the identity on quadrant anchors,
    /// by exhaustive probing of a small sample (the maps are affine, so
    /// agreement on a spanning sample implies agreement everywhere; the
    /// sample spans all axes and two distinct `h`).
    pub(crate) fn is_inverse_of(&self, other: &Self, dim: u32) -> bool {
        let root = 1 << 10;
        for h in [1, root / 4] {
            for probe in 0..(1 << dim) {
                let mut c = [0i32; 3];
                for (axis, v) in c.iter_mut().enumerate().take(dim as usize) {
                    *v = if (probe >> axis) & 1 == 1 {
                        3 * h
                    } else {
                        root - h
                    };
                }
                // place the probe just outside along every axis in turn,
                // imitating an exterior quadrant
                for exit_axis in 0..dim as usize {
                    for exterior in [-h, root] {
                        let mut e = c;
                        e[exit_axis] = exterior;
                        let roundtrip = other.apply(self.apply(e, h, root), h, root);
                        if roundtrip != e {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Compute the inverse transform directly.
    pub(crate) fn inverse(&self) -> Self {
        // out[i] = flip_i(c[perm[i]] + tr[perm[i]]*root)
        // Solve for c in terms of out: axis j = perm[i] ⇒ i = perm⁻¹[j].
        let mut inv_perm = [0usize; 3];
        for (i, &p) in self.perm.iter().enumerate() {
            inv_perm[p] = i;
        }
        let mut flip = [false; 3];
        let mut translate = [0i32; 3];
        for j in 0..3 {
            let i = inv_perm[j];
            flip[j] = self.flip[i];
            // If not flipped: c[j] = out[i] - tr[j]*root  ⇒ translate on
            // source axis i of the inverse is -tr[j].
            // If flipped: c[j] = root - h - out[i] - tr[j]*root ⇒ the
            // reflection absorbs the sign: translate stays +tr[j] after
            // flipping (verified by the probe-based check in tests).
            translate[i] = if self.flip[i] {
                self.translate[j]
            } else {
                -self.translate[j]
            };
        }
        Self {
            perm: inv_perm,
            flip,
            translate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_is_self_inverse() {
        let id = FaceTransform::axis_aligned([0, 0, 0]);
        assert!(id.is_inverse_of(&id, 2));
        assert!(id.is_inverse_of(&id, 3));
        assert_eq!(id.inverse(), id);
    }

    #[test]
    fn translation_inverse() {
        let a = FaceTransform::axis_aligned([-1, 0, 0]);
        let b = FaceTransform::axis_aligned([1, 0, 0]);
        assert!(a.is_inverse_of(&b, 3));
        assert!(b.is_inverse_of(&a, 3));
        assert!(!a.is_inverse_of(&a, 3));
        assert_eq!(a.inverse(), b);
    }

    #[test]
    fn apply_translate_flip() {
        let t = FaceTransform {
            perm: [0, 1, 2],
            flip: [false, true, false],
            translate: [-1, 0, 0],
        };
        let root = 1 << 8;
        let h = 4;
        let out = t.apply([root, 12, 0], h, root);
        assert_eq!(out, [0, root - h - 12, 0]);
    }

    #[test]
    fn apply_permutation() {
        let t = FaceTransform {
            perm: [1, 0, 2],
            flip: [false, false, false],
            translate: [-1, 0, 0],
        };
        let root = 1 << 8;
        let out = t.apply([root, 40, 0], 4, root);
        assert_eq!(out, [40, 0, 0]);
    }

    fn arb_transform(dim: usize) -> impl Strategy<Value = FaceTransform> {
        let perms2 = vec![[0usize, 1, 2], [1, 0, 2]];
        let perms3 = vec![
            [0usize, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let perms = if dim == 2 { perms2 } else { perms3 };
        (
            proptest::sample::select(perms),
            proptest::collection::vec(any::<bool>(), 3),
            proptest::collection::vec(-1i32..=1, 3),
        )
            .prop_map(move |(perm, flips, trs)| {
                let mut flip = [false; 3];
                let mut translate = [0i32; 3];
                for i in 0..dim {
                    flip[i] = flips[i];
                }
                for i in 0..dim {
                    translate[i] = trs[i];
                }
                FaceTransform {
                    perm,
                    flip,
                    translate,
                }
            })
    }

    proptest! {
        #[test]
        fn computed_inverse_is_inverse_3d(t in arb_transform(3)) {
            prop_assert!(t.is_inverse_of(&t.inverse(), 3),
                "inverse() of {:?} = {:?} failed the probe check", t, t.inverse());
        }

        #[test]
        fn computed_inverse_is_inverse_2d(t in arb_transform(2)) {
            prop_assert!(t.is_inverse_of(&t.inverse(), 2));
        }

        #[test]
        fn double_inverse_is_identity_map(t in arb_transform(3)) {
            // inverse(inverse(t)) must act identically to t on probes
            let tt = t.inverse().inverse();
            let root = 1 << 9;
            for h in [1, 8] {
                for c in [[0, 3 * h, root - h], [root, h, 2 * h], [-h, 0, root - h]] {
                    prop_assert_eq!(t.apply(c, h, root), tt.apply(c, h, root));
                }
            }
        }
    }
}
