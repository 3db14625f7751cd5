//! Portable forest serialization — the `p4est_save` / `p4est_load`
//! equivalent.
//!
//! A forest is serialized representation-independently as `(tree,
//! coordinates, level)` triples plus the partition markers, so a forest
//! saved from one quadrant representation loads into any other (the
//! virtual-interface property extends to storage). Every file this crate
//! writes is one [`Wire`] value in one envelope, `magic | version | body |
//! crc32`, written by [`seal`] and read back by [`open`]: any single-bit
//! flip or truncation is rejected with a typed [`IoError`], never a panic
//! or a silent mis-load. A [`PortableForest`] in that envelope is one
//! shard of the on-disk checkpoint format (see
//! [`checkpoint`](crate::Forest::save_checkpoint)); the checkpoint
//! manifest is another such file.

use crate::crc32;
use crate::{Forest, IoError, SfcPosition};
use quadforest_comm::Comm;
use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::Quadrant;
use quadforest_core::Wire;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"QFOR";
/// Stream format version: the `Wire` body of [`PortableForest`], whose
/// payload is a `Wire` `Option`. The loader reads this version only.
const VERSION: u32 = 4;

/// Representation-independent image of one rank's forest partition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortableForest {
    /// Spatial dimension.
    pub dim: u32,
    /// Number of trees in the connectivity.
    pub num_trees: u64,
    /// Global leaf count.
    pub global_count: u64,
    /// Communicator size the forest was saved from.
    pub size: u64,
    /// Partition markers (`size + 1` entries).
    pub markers: Vec<SfcPosition>,
    /// This rank's leaves: `(tree, coords, level)`.
    pub leaves: Vec<(u32, [i32; 3], u8)>,
    /// Optional per-leaf payloads, index-aligned with `leaves`: the
    /// opaque [`Wire`](quadforest_core::Wire) encoding of the
    /// application's payload type. `None` for payload-less forests.
    pub payload: Option<Vec<Vec<u8>>>,
}

quadforest_core::wire!(struct PortableForest {
    dim, num_trees, global_count, size, markers, leaves, payload,
});

/// `value` as a file: `magic | version | Wire body | crc32`, the CRC
/// taken over everything before it.
pub(crate) fn seal<T: Wire>(magic: &[u8; 4], version: u32, value: &T) -> Vec<u8> {
    let mut b = magic.to_vec();
    version.encode(&mut b);
    value.encode(&mut b);
    crc32(&b).encode(&mut b);
    b
}

/// Read back a file [`seal`] wrote. The checks run in a fixed order —
/// length, magic, version, the CRC over the whole file, then a strict
/// decode of the body that leaves no byte over — so corrupt input is a
/// typed [`IoError`], never a panic.
pub(crate) fn open<T: Wire>(magic: &[u8; 4], version: u32, data: &[u8]) -> Result<T, IoError> {
    let truncated = |needed| {
        Err(IoError::Truncated {
            needed,
            remaining: data.len(),
        })
    };
    if data.len() < 8 {
        return truncated(8);
    }
    let found: [u8; 4] = data[..4].try_into().expect("4 bytes");
    if &found != magic {
        return Err(IoError::BadMagic { found });
    }
    let stored_version = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes"));
    if stored_version != version {
        return Err(IoError::UnsupportedVersion {
            found: stored_version,
            supported: version,
        });
    }
    if data.len() < 12 {
        return truncated(12);
    }
    let (sealed, guard) = data.split_at(data.len() - 4);
    let stored = u32::from_le_bytes(guard.try_into().expect("4 bytes"));
    let computed = crc32(sealed);
    if stored != computed {
        return Err(IoError::ChecksumMismatch { stored, computed });
    }
    Ok(T::from_wire(&sealed[8..])?)
}

impl PortableForest {
    /// Serialize to a CRC32-guarded stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        seal(MAGIC, VERSION, self)
    }

    /// Deserialize from a binary buffer. Corrupt input — truncation,
    /// bit flips (caught by the CRC32 guard), hostile length prefixes,
    /// `size + 1` markers or one payload per leaf not holding — returns
    /// a typed [`IoError`] and never panics.
    pub fn from_bytes(data: &[u8]) -> Result<Self, IoError> {
        let p: Self = open(MAGIC, VERSION, data)?;
        IoError::check_count("marker", p.markers.len() as u64, p.size.saturating_add(1))?;
        if let Some(payload) = &p.payload {
            IoError::check_count("payload", payload.len() as u64, p.leaves.len() as u64)?;
        }
        Ok(p)
    }
}

/// A saved forest's dimension and tree count against representation
/// `Q` and the connectivity it is loaded over.
pub(crate) fn check_context<Q: Quadrant>(
    dim: u32,
    num_trees: u64,
    conn: &Connectivity,
) -> Result<(), IoError> {
    if dim != Q::DIM {
        return Err(IoError::DimensionMismatch {
            stream: dim,
            representation: Q::DIM,
        });
    }
    if num_trees != conn.num_trees() as u64 {
        return Err(IoError::TreeCountMismatch {
            stream: num_trees,
            connectivity: conn.num_trees() as u64,
        });
    }
    Ok(())
}

/// One stored leaf record as a quadrant of `Q`, or
/// [`IoError::CorruptLeaf`] unless its tree exists, its level is one `Q`
/// has, and its coordinates lie in `[0, root)` aligned to that level
/// (with `z = 0` in 2D) — what `Q::from_coords` assumes of its input.
pub(crate) fn leaf_record<Q: Quadrant>(
    num_trees: usize,
    &(tree, coords, level): &(u32, [i32; 3], u8),
) -> Result<Q, IoError> {
    let valid = (tree as usize) < num_trees && level <= Q::MAX_LEVEL && {
        let mask = Q::len_at(level) - 1;
        coords.iter().enumerate().all(|(axis, &c)| {
            if axis < Q::DIM as usize {
                (0..Q::len_at(0)).contains(&c) && c & mask == 0
            } else {
                c == 0
            }
        })
    };
    if !valid {
        return Err(IoError::CorruptLeaf {
            tree,
            coords,
            level,
        });
    }
    Ok(Q::from_coords(coords, level))
}

impl<Q: Quadrant> Forest<Q> {
    /// Capture this rank's partition in portable form, without
    /// payloads.
    pub fn to_portable(&self) -> PortableForest {
        PortableForest {
            dim: Q::DIM,
            num_trees: self.connectivity().num_trees() as u64,
            global_count: self.global_count(),
            size: self.size() as u64,
            markers: self.markers().to_vec(),
            leaves: self
                .leaves()
                .map(|(t, q)| (t, q.coords(), q.level()))
                .collect(),
            payload: None,
        }
    }

    /// Capture this rank's partition with its per-leaf payloads in
    /// portable form. Each payload is stored as the opaque `Wire`
    /// encoding of `T`, so the stream can be re-sliced across rank
    /// counts without knowing `T`.
    pub(crate) fn to_portable_with_data<T: Wire>(
        &self,
        data: &crate::LeafData<T>,
    ) -> PortableForest {
        data.check_aligned(self, "to_portable_with_data");
        let mut p = self.to_portable();
        p.payload = Some(data.iter().map(|v| v.to_wire()).collect());
        p
    }

    /// Reconstruct a forest from its portable image. The communicator
    /// must have the same size as at save time (use
    /// [`Forest::load_checkpoint`] for repartition-on-load), and `conn`
    /// must be the connectivity the forest was built over (dimension
    /// and tree count are checked).
    pub(crate) fn from_portable(
        conn: Arc<Connectivity>,
        comm: &Comm,
        portable: &PortableForest,
    ) -> Result<Self, IoError> {
        check_context::<Q>(portable.dim, portable.num_trees, &conn)?;
        if portable.size != comm.size() as u64 {
            return Err(IoError::SizeMismatch {
                stream: portable.size,
                communicator: comm.size() as u64,
            });
        }
        let mut trees: Vec<Vec<Q>> = vec![Vec::new(); conn.num_trees()];
        for record in &portable.leaves {
            let q = leaf_record(trees.len(), record)?;
            trees[record.0 as usize].push(q);
        }
        let f = Self::assemble(
            conn,
            comm.rank(),
            comm.size(),
            trees,
            portable.global_count,
            portable.markers.clone(),
        );
        f.validate()?;
        Ok(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BalanceKind;
    use quadforest_core::quadrant::{AvxQuad, MortonQuad, StandardQuad};

    type Q2 = StandardQuad<2>;

    fn adaptive_forest(comm: &Comm) -> Forest<Q2> {
        let conn = Arc::new(Connectivity::brick2d(2, 1, false, false));
        let mut f = Forest::<Q2>::new_uniform(conn, comm, 2);
        let center = [Q2::len_at(0) / 2, Q2::len_at(0) / 2, 0];
        f.refine(comm, true, |t, q| {
            t == 0 && q.level() < 4 && q.contains_point(center)
        });
        f.balance(comm, BalanceKind::Face);
        f.partition(comm);
        f
    }

    #[test]
    fn bytes_roundtrip() {
        quadforest_comm::run(2, |comm| {
            let f = adaptive_forest(&comm);
            let p = f.to_portable();
            let bytes = p.to_bytes();
            let q = PortableForest::from_bytes(&bytes).unwrap();
            assert_eq!(p, q);
        });
    }

    #[test]
    fn load_into_same_representation() {
        quadforest_comm::run(3, |comm| {
            let f = adaptive_forest(&comm);
            let p = f.to_portable();
            let conn = f.connectivity().clone();
            let g = Forest::<Q2>::from_portable(conn, &comm, &p).unwrap();
            assert_eq!(g.checksum(&comm), f.checksum(&comm));
            assert_eq!(g.global_count(), f.global_count());
            assert_eq!(g.markers(), f.markers());
        });
    }

    #[test]
    fn load_into_other_representations() {
        quadforest_comm::run(2, |comm| {
            let f = adaptive_forest(&comm);
            let p = f.to_portable();
            let conn = f.connectivity().clone();
            let reference = f.checksum(&comm);
            let m = Forest::<MortonQuad<2>>::from_portable(conn.clone(), &comm, &p).unwrap();
            assert_eq!(m.checksum(&comm), reference);
            let a = Forest::<AvxQuad<2>>::from_portable(conn, &comm, &p).unwrap();
            assert_eq!(a.checksum(&comm), reference);
        });
    }

    #[test]
    fn corrupt_streams_are_rejected_with_typed_errors() {
        quadforest_comm::run(1, |comm| {
            let f = adaptive_forest(&comm);
            let bytes = f.to_portable().to_bytes();
            assert!(matches!(
                PortableForest::from_bytes(&bytes[..3]),
                Err(IoError::Truncated { .. })
            ));
            let mut bad = bytes.clone();
            bad[0] = b'X';
            assert!(matches!(
                PortableForest::from_bytes(&bad),
                Err(IoError::BadMagic { .. })
            ));
            // a bit flip anywhere in the body trips the CRC guard
            let mut flipped = bytes.clone();
            flipped[20] ^= 0x40;
            assert!(matches!(
                PortableForest::from_bytes(&flipped),
                Err(IoError::ChecksumMismatch { .. })
            ));
            // truncation that removes whole records still fails the CRC
            let truncated = &bytes[..bytes.len() - 5];
            assert!(PortableForest::from_bytes(truncated).is_err());
            // wrong version is named, not guessed at
            let mut versioned = bytes.clone();
            versioned[4] = 99;
            assert!(matches!(
                PortableForest::from_bytes(&versioned),
                Err(IoError::UnsupportedVersion { found: 99, .. })
            ));
        });
    }

    #[test]
    fn hostile_length_prefix_is_rejected_not_allocated() {
        quadforest_comm::run(1, |comm| {
            let f = adaptive_forest(&comm);
            let bytes = f.to_portable().to_bytes();
            // overwrite the marker-count field (offset 32) with u64::MAX;
            // the CRC is recomputed so only the count check can object
            let mut evil = bytes.clone();
            evil[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
            let len = evil.len();
            let crc = crc32(&evil[..len - 4]);
            evil[len - 4..].copy_from_slice(&crc.to_le_bytes());
            assert!(matches!(
                PortableForest::from_bytes(&evil),
                Err(IoError::Malformed { detail }) if detail.contains("claims")
            ));
        });
    }

    #[test]
    fn wrong_context_is_rejected() {
        quadforest_comm::run(2, |comm| {
            let f = adaptive_forest(&comm);
            let p = f.to_portable();
            // wrong dimension
            let conn3 = Arc::new(Connectivity::unit(3));
            assert!(
                matches!(
                    Forest::<MortonQuad<3>>::from_portable(conn3, &comm, &p),
                    Err(IoError::DimensionMismatch { .. })
                ),
                "3D representation must reject a 2D stream"
            );
            // wrong tree count
            let conn1 = Arc::new(Connectivity::unit(2));
            assert!(matches!(
                Forest::<Q2>::from_portable(conn1, &comm, &p),
                Err(IoError::TreeCountMismatch { .. })
            ));
        });
    }
}
