//! # quadforest-core
//!
//! Quadrant/octant primitives for forest-of-octrees adaptive mesh
//! refinement, reproducing *"Alternative Quadrant Representations with
//! Morton Index and AVX2 Vectorization for AMR Algorithms within the
//! p4est Software Library"* (Kirilin & Burstedde, IPPS 2024).
//!
//! The crate provides the paper's **virtual quadrant interface**
//! ([`quadrant::Quadrant`], a Morton-ordered quadrant) together with
//! the paper's three interchangeable representations:
//!
//! | Representation | Type | Size (3D) | Paper section |
//! |---|---|---|---|
//! | standard (xyz + level + payload) | [`quadrant::StandardQuad`] | 24 B | 2.1 |
//! | raw Morton index | [`quadrant::MortonQuad`] | 8 B | 2.2 |
//! | 128-bit SIMD (AVX2/SSE) | [`quadrant::AvxQuad`] | 16 B | 2.3 |
//!
//! All low-level per-quadrant algorithms (construction from a Morton
//! index, child, sibling, parent, face/corner/edge neighbors, tree
//! boundary classification, successor, ancestors/descendants, SFC
//! comparison, …) are specialized per representation, while the
//! high-level AMR algorithms in the `quadforest-forest` crate are written
//! once against the trait.
//!
//! ## Quick example
//!
//! ```
//! use quadforest_core::quadrant::{Quadrant, MortonQuad, StandardQuad, convert};
//!
//! // Build the same octant in two representations.
//! let m = MortonQuad::<3>::from_morton(42, 3);
//! let s: StandardQuad<3> = convert(&m);
//! assert_eq!(m.coords(), s.coords());
//!
//! // Low-level navigation.
//! let child = m.child(5);
//! assert_eq!(child.parent(), m);
//! assert_eq!(child.child_id(), 5);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod batch;
pub mod crc;
pub mod linear;
pub mod morton;
pub mod quadrant;
pub mod scalar_ref;
pub mod simd;
pub mod wire;
pub mod workload;
pub mod zrange;

pub use quadrant::Quadrant;
pub use wire::Wire;
