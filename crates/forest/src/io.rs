//! Portable forest serialization — the `p4est_save` / `p4est_load`
//! equivalent.
//!
//! A forest is serialized representation-independently as `(tree,
//! coordinates, level)` triples plus the partition markers, so a forest
//! saved from one quadrant representation loads into any other (the
//! virtual-interface property extends to storage). The format is a
//! self-describing little-endian binary stream with a magic header, a
//! version, and a trailing CRC32 guard over the entire stream — any
//! single-bit flip or truncation is rejected with a typed [`IoError`],
//! never a panic or a silent mis-load. This stream is also the shard
//! payload of the on-disk checkpoint format (see
//! [`checkpoint`](crate::Forest::save_checkpoint)).

use crate::crc32;
use crate::{Forest, IoError, SfcPosition};
use quadforest_comm::Comm;
use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::Quadrant;
use quadforest_core::Wire;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"QFOR";
/// Stream format version written for payload-less forests. Version 2
/// added the trailing CRC32 guard; version 1 streams (no guard) are
/// rejected.
pub(crate) const VERSION: u32 = 2;
/// Stream format version written when a payload section is present:
/// after the leaf records, one length-prefixed opaque byte string per
/// leaf (the `Wire` encoding of the application's payload type).
/// Payload-less version-2 streams remain loadable.
pub(crate) const VERSION_PAYLOAD: u32 = 3;

/// Bytes per serialized marker / leaf record.
const MARKER_BYTES: usize = 12;
const LEAF_BYTES: usize = 17;
/// Minimum bytes per payload record (the 8-byte length prefix).
const PAYLOAD_MIN_BYTES: usize = 8;

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
    /// application's payload type. `None` for payload-less forests
    /// (serialized as version 2, byte-identical to previous builds);
    /// `Some` streams are written as version 3.
    pub payload: Option<Vec<Vec<u8>>>,
}

/// Bounds-checked read cursor over the unread rest of a stream: every
/// decode step goes through [`Cursor::need`], so a truncated or
/// length-lying stream surfaces as [`IoError::Truncated`] instead of a
/// slice-index panic. Shared with the checkpoint manifest parser.
pub(crate) struct Cursor<'a>(pub(crate) &'a [u8]);

impl<'a> Cursor<'a> {
    pub(crate) fn need(&self, n: usize) -> Result<(), IoError> {
        if self.0.len() < n {
            Err(IoError::Truncated {
                needed: n,
                remaining: self.0.len(),
            })
        } else {
            Ok(())
        }
    }

    /// Consume the next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], IoError> {
        self.need(n)?;
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], IoError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    fn u8(&mut self) -> Result<u8, IoError> {
        Ok(self.array::<1>()?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, IoError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn i32(&mut self) -> Result<i32, IoError> {
        Ok(i32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, IoError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A length prefix that must describe `record_bytes`-sized records
    /// still present in the stream. Checked with saturating arithmetic
    /// so a hostile 2^64-ish count cannot overflow the bounds check.
    pub(crate) fn count(
        &mut self,
        what: &'static str,
        record_bytes: usize,
    ) -> Result<usize, IoError> {
        let n = self.u64()?;
        let implied = (n as u128).saturating_mul(record_bytes as u128);
        if implied > self.0.len() as u128 {
            return Err(IoError::CountMismatch {
                what,
                found: n,
                expected: (self.0.len() / record_bytes) as u64,
            });
        }
        Ok(n as usize)
    }
}

impl PortableForest {
    /// Serialize to a binary buffer: CRC32-terminated version 2, or
    /// version 3 when a payload section is present. A `payload: None`
    /// forest serializes byte-identically to previous (pre-payload)
    /// builds.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload_bytes: usize = self
            .payload
            .as_ref()
            .map(|p| 8 + p.iter().map(|v| 8 + v.len()).sum::<usize>())
            .unwrap_or(0);
        // every field is a fixed-width little-endian integer, which is
        // what `Wire` writes for the primitive types
        let mut b = Vec::with_capacity(
            48 + self.markers.len() * MARKER_BYTES
                + self.leaves.len() * LEAF_BYTES
                + payload_bytes
                + 4,
        );
        b.extend_from_slice(MAGIC);
        let version = if self.payload.is_some() {
            VERSION_PAYLOAD
        } else {
            VERSION
        };
        version.encode(&mut b);
        self.dim.encode(&mut b);
        self.num_trees.encode(&mut b);
        self.global_count.encode(&mut b);
        self.size.encode(&mut b);
        (self.markers.len() as u64).encode(&mut b);
        for (t, a) in &self.markers {
            t.encode(&mut b);
            a.encode(&mut b);
        }
        (self.leaves.len() as u64).encode(&mut b);
        for (t, c, l) in &self.leaves {
            t.encode(&mut b);
            for x in c {
                x.encode(&mut b);
            }
            l.encode(&mut b);
        }
        if let Some(payload) = &self.payload {
            debug_assert_eq!(payload.len(), self.leaves.len());
            (payload.len() as u64).encode(&mut b);
            for item in payload {
                (item.len() as u64).encode(&mut b);
                b.extend_from_slice(item);
            }
        }
        crc32(&b).encode(&mut b);
        b
    }

    /// Deserialize from a binary buffer. Corrupt input — truncation,
    /// bit flips (caught by the CRC32 guard), hostile length prefixes —
    /// returns a typed [`IoError`] and never panics.
    pub fn from_bytes(data: &[u8]) -> Result<Self, IoError> {
        let mut cur = Cursor(data);
        cur.need(8)?;
        let magic: [u8; 4] = cur.array()?;
        if &magic != MAGIC {
            return Err(IoError::BadMagic { found: magic });
        }
        let version = cur.u32()?;
        if version != VERSION && version != VERSION_PAYLOAD {
            return Err(IoError::UnsupportedVersion {
                found: version,
                supported: VERSION_PAYLOAD,
            });
        }
        // verify the trailing CRC over everything before it, up front:
        // after this point any parse failure is a format bug, not rot
        if data.len() < 12 {
            return Err(IoError::Truncated {
                needed: 12,
                remaining: data.len(),
            });
        }
        let body = &data[..data.len() - 4];
        let stored = u32::from_le_bytes(data[data.len() - 4..].try_into().expect("4 bytes"));
        let computed = crc32(body);
        if stored != computed {
            return Err(IoError::ChecksumMismatch { stored, computed });
        }
        // restrict the cursor to the guarded body
        cur.0 = &body[8..];
        let dim = cur.u32()?;
        let num_trees = cur.u64()?;
        let global_count = cur.u64()?;
        let size = cur.u64()?;
        let n_markers = cur.count("marker", MARKER_BYTES)?;
        if n_markers as u64 != size.saturating_add(1) {
            return Err(IoError::CountMismatch {
                what: "marker",
                found: n_markers as u64,
                expected: size.saturating_add(1),
            });
        }
        let mut markers = Vec::with_capacity(n_markers);
        for _ in 0..n_markers {
            markers.push((cur.u32()?, cur.u64()?));
        }
        let n_leaves = cur.count("leaf", LEAF_BYTES)?;
        let mut leaves = Vec::with_capacity(n_leaves);
        for _ in 0..n_leaves {
            let t = cur.u32()?;
            let c = [cur.i32()?, cur.i32()?, cur.i32()?];
            let l = cur.u8()?;
            leaves.push((t, c, l));
        }
        let payload = if version == VERSION_PAYLOAD {
            let n_payload = cur.count("payload", PAYLOAD_MIN_BYTES)?;
            if n_payload != n_leaves {
                return Err(IoError::CountMismatch {
                    what: "payload",
                    found: n_payload as u64,
                    expected: n_leaves as u64,
                });
            }
            let mut payload = Vec::with_capacity(n_payload);
            for _ in 0..n_payload {
                let len = cur.u64()?;
                // bounds before allocation: a hostile length must not
                // reserve memory it cannot back with input bytes
                if len > cur.0.len() as u64 {
                    return Err(IoError::Truncated {
                        needed: len as usize,
                        remaining: cur.0.len(),
                    });
                }
                payload.push(cur.take(len as usize)?.to_vec());
            }
            Some(payload)
        } else {
            None
        };
        if !cur.0.is_empty() {
            return Err(IoError::CountMismatch {
                what: "trailing byte",
                found: cur.0.len() as u64,
                expected: 0,
            });
        }
        Ok(Self {
            dim,
            num_trees,
            global_count,
            size,
            markers,
            leaves,
            payload,
        })
    }
}

impl<Q: Quadrant> Forest<Q> {
    /// Capture this rank's partition in portable form (no payload
    /// section; serializes as a version-2 stream).
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
    /// portable form (serializes as a version-3 stream). Each payload
    /// is stored as the opaque `Wire` encoding of `T`, so the stream
    /// can be re-sliced across rank counts without knowing `T`.
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
        if portable.dim != Q::DIM {
            return Err(IoError::DimensionMismatch {
                stream: portable.dim,
                representation: Q::DIM,
            });
        }
        if portable.num_trees != conn.num_trees() as u64 {
            return Err(IoError::TreeCountMismatch {
                stream: portable.num_trees,
                connectivity: conn.num_trees() as u64,
            });
        }
        if portable.size != comm.size() as u64 {
            return Err(IoError::SizeMismatch {
                stream: portable.size,
                communicator: comm.size() as u64,
            });
        }
        let mut trees: Vec<Vec<Q>> = vec![Vec::new(); conn.num_trees()];
        for (t, c, l) in &portable.leaves {
            if *t as usize >= trees.len() || *l > Q::MAX_LEVEL {
                return Err(IoError::CorruptLeaf {
                    tree: *t,
                    coords: *c,
                    level: *l,
                });
            }
            trees[*t as usize].push(Q::from_coords(*c, *l));
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
                Err(IoError::CountMismatch { what: "marker", .. })
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
