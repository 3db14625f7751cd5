//! Typed errors for forest validation, serialization, and checkpointing.
//!
//! Two layers: [`InvariantError`] is a violated linear-octree invariant
//! found by [`Forest::validate`](crate::Forest::validate), and
//! [`IoError`] is anything that can go wrong turning bytes back into a
//! forest — truncation, bit rot (CRC mismatch), version skew, context
//! mismatches, storage failures, and (as a nested cause) an invariant
//! violation in freshly loaded data. Both implement
//! [`std::error::Error`] and are `Clone + PartialEq` so tests can match
//! on exact failure shapes and the comm layer can ship them across
//! rank boundaries.

use crate::SfcPosition;
use std::fmt;

/// A violated structural invariant of the distributed linear octree,
/// as detected by [`Forest::validate`](crate::Forest::validate).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvariantError {
    /// The marker array does not have `P + 1` entries.
    MarkerLength {
        /// Actual marker count.
        got: usize,
        /// Expected marker count (`P + 1`).
        expected: usize,
    },
    /// Two adjacent partition markers are out of order.
    MarkersNotMonotone {
        /// Index of the first offending marker.
        index: usize,
        /// The marker at `index`.
        marker: SfcPosition,
        /// The (smaller) marker at `index + 1`.
        next: SfcPosition,
    },
    /// The last marker is not the end-of-forest sentinel.
    BadEndSentinel {
        /// The marker found in the last slot.
        got: SfcPosition,
        /// The sentinel it should have been.
        expected: SfcPosition,
    },
    /// A leaf fails its representation's structural validity check.
    InvalidLeaf {
        /// Tree holding the leaf.
        tree: u32,
        /// The leaf's anchor coordinates.
        coords: [i32; 3],
        /// The leaf's refinement level.
        level: u8,
    },
    /// The SFC walk found a gap or an overlap between local leaves.
    GapOrOverlap {
        /// Tree holding the offending leaf.
        tree: u32,
        /// Position where the walk expected the next leaf to start.
        expected: SfcPosition,
        /// Position where the leaf actually starts.
        found: SfcPosition,
    },
    /// The local leaves do not tile the rank's marker range exactly.
    IncompleteRange {
        /// Position where the walk over local leaves ended.
        walked_to: SfcPosition,
        /// Position where the rank's marker range ends.
        range_end: SfcPosition,
    },
}

impl fmt::Display for InvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantError::MarkerLength { got, expected } => {
                write!(f, "markers length {got} != P+1 = {expected}")
            }
            InvariantError::MarkersNotMonotone {
                index,
                marker,
                next,
            } => write!(
                f,
                "markers not monotone at {index}: {marker:?} > {next:?}"
            ),
            InvariantError::BadEndSentinel { got, expected } => write!(
                f,
                "last marker {got:?} is not the end sentinel {expected:?}"
            ),
            InvariantError::InvalidLeaf { tree, coords, level } => {
                write!(f, "invalid leaf ({coords:?}, level {level}) in tree {tree}")
            }
            InvariantError::GapOrOverlap {
                tree,
                expected,
                found,
            } => write!(
                f,
                "gap or overlap: expected position {expected:?}, leaf in tree {tree} starts at {found:?}"
            ),
            InvariantError::IncompleteRange {
                walked_to,
                range_end,
            } => write!(
                f,
                "local range incomplete: walk ended at {walked_to:?}, marker range ends at {range_end:?}"
            ),
        }
    }
}

impl std::error::Error for InvariantError {}

/// An error loading or storing a portable forest stream or checkpoint.
///
/// Every path from untrusted bytes to a live [`Forest`](crate::Forest)
/// funnels through this type: corrupt input must surface as an `Err`,
/// never as a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IoError {
    /// The stream ended before a complete record could be read.
    Truncated {
        /// Bytes the next record needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The stream does not start with the expected magic bytes.
    BadMagic {
        /// The four bytes found where the magic was expected.
        found: [u8; 4],
    },
    /// The stream's format version is not supported by this build.
    UnsupportedVersion {
        /// Version found in the stream.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The stream's CRC32 guard does not match its contents (bit rot,
    /// torn write, or truncation that preserved the length fields).
    ChecksumMismatch {
        /// CRC stored in the stream.
        stored: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
    /// A count field disagrees with a structurally implied value
    /// (e.g. marker count vs `P + 1`, shard leaf sums vs the global
    /// count).
    CountMismatch {
        /// Which count is inconsistent.
        what: &'static str,
        /// The value found in the stream.
        found: u64,
        /// The value implied by the rest of the stream.
        expected: u64,
    },
    /// A leaf record is out of range for the target representation.
    CorruptLeaf {
        /// Tree index of the record.
        tree: u32,
        /// Anchor coordinates of the record.
        coords: [i32; 3],
        /// Level of the record.
        level: u8,
    },
    /// The stream's spatial dimension does not match the quadrant
    /// representation it is being loaded into.
    DimensionMismatch {
        /// Dimension recorded in the stream.
        stream: u32,
        /// Dimension of the target representation.
        representation: u32,
    },
    /// The stream's tree count does not match the connectivity.
    TreeCountMismatch {
        /// Tree count recorded in the stream.
        stream: u64,
        /// Tree count of the supplied connectivity.
        connectivity: u64,
    },
    /// The stream was saved from a different communicator size and the
    /// chosen load path requires an exact match.
    SizeMismatch {
        /// Communicator size recorded in the stream.
        stream: u64,
        /// Size of the communicator loading it.
        communicator: u64,
    },
    /// Deserialized data failed forest invariant validation.
    Invariant(InvariantError),
    /// A filesystem operation failed (message is the stringified
    /// [`std::io::Error`], kept as a `String` so this type stays
    /// `Clone`/`PartialEq` and can cross rank boundaries).
    Storage {
        /// Path the operation touched.
        path: String,
        /// Stringified OS error.
        message: String,
    },
    /// No generation in the checkpoint directory passed verification.
    NoCheckpoint {
        /// The directory that was searched.
        dir: String,
    },
    /// A payload restore was requested but the stream carries no
    /// payload section (it is a payload-less version-2 shard).
    MissingPayload,
    /// A per-leaf payload record failed to decode into the requested
    /// payload type.
    PayloadCorrupt {
        /// Rank-local index of the offending leaf.
        leaf: u64,
        /// Stringified decode failure.
        detail: String,
    },
}

impl IoError {
    /// Wrap a [`std::io::Error`] with the path it occurred on.
    pub(crate) fn storage(path: &std::path::Path, err: std::io::Error) -> Self {
        IoError::Storage {
            path: path.display().to_string(),
            message: err.to_string(),
        }
    }
}

impl From<InvariantError> for IoError {
    fn from(e: InvariantError) -> Self {
        IoError::Invariant(e)
    }
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Truncated { needed, remaining } => write!(
                f,
                "truncated stream: need {needed} more bytes, have {remaining}"
            ),
            IoError::BadMagic { found } => write!(f, "bad magic {found:?}"),
            IoError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported version {found} (this build reads {supported})"
                )
            }
            IoError::ChecksumMismatch { stored, computed } => write!(
                f,
                "CRC32 mismatch: stream says {stored:#010x}, contents hash to {computed:#010x}"
            ),
            IoError::CountMismatch {
                what,
                found,
                expected,
            } => write!(f, "{what} count {found} != expected {expected}"),
            IoError::CorruptLeaf {
                tree,
                coords,
                level,
            } => {
                write!(f, "corrupt leaf record ({tree}, {coords:?}, {level})")
            }
            IoError::DimensionMismatch {
                stream,
                representation,
            } => write!(
                f,
                "dimension mismatch: stream {stream} vs representation {representation}"
            ),
            IoError::TreeCountMismatch {
                stream,
                connectivity,
            } => write!(
                f,
                "tree count mismatch: stream {stream} vs connectivity {connectivity}"
            ),
            IoError::SizeMismatch {
                stream,
                communicator,
            } => write!(
                f,
                "communicator size mismatch: stream {stream} vs run {communicator}"
            ),
            IoError::Invariant(e) => write!(f, "loaded forest fails validation: {e}"),
            IoError::Storage { path, message } => write!(f, "storage error on {path}: {message}"),
            IoError::NoCheckpoint { dir } => {
                write!(f, "no usable checkpoint generation under {dir}")
            }
            IoError::MissingPayload => {
                write!(f, "stream has no payload section (payload-less shard)")
            }
            IoError::PayloadCorrupt { leaf, detail } => {
                write!(f, "payload of local leaf {leaf} failed to decode: {detail}")
            }
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Invariant(e) => Some(e),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Wire encoding: both error types travel across rank boundaries on the
// socket transport (e.g. as a `Result<_, IoError>` program outcome), so
// they get the same strict, discriminant-checked treatment as the comm
// layer's own errors.

use quadforest_core::wire::{Wire, WireError, WireReader};

impl Wire for InvariantError {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            InvariantError::MarkerLength { got, expected } => {
                out.push(0);
                got.encode(out);
                expected.encode(out);
            }
            InvariantError::MarkersNotMonotone {
                index,
                marker,
                next,
            } => {
                out.push(1);
                index.encode(out);
                marker.encode(out);
                next.encode(out);
            }
            InvariantError::BadEndSentinel { got, expected } => {
                out.push(2);
                got.encode(out);
                expected.encode(out);
            }
            InvariantError::InvalidLeaf {
                tree,
                coords,
                level,
            } => {
                out.push(3);
                tree.encode(out);
                coords.encode(out);
                level.encode(out);
            }
            InvariantError::GapOrOverlap {
                tree,
                expected,
                found,
            } => {
                out.push(4);
                tree.encode(out);
                expected.encode(out);
                found.encode(out);
            }
            InvariantError::IncompleteRange {
                walked_to,
                range_end,
            } => {
                out.push(5);
                walked_to.encode(out);
                range_end.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            0 => InvariantError::MarkerLength {
                got: usize::decode(r)?,
                expected: usize::decode(r)?,
            },
            1 => InvariantError::MarkersNotMonotone {
                index: usize::decode(r)?,
                marker: SfcPosition::decode(r)?,
                next: SfcPosition::decode(r)?,
            },
            2 => InvariantError::BadEndSentinel {
                got: SfcPosition::decode(r)?,
                expected: SfcPosition::decode(r)?,
            },
            3 => InvariantError::InvalidLeaf {
                tree: u32::decode(r)?,
                coords: <[i32; 3]>::decode(r)?,
                level: u8::decode(r)?,
            },
            4 => InvariantError::GapOrOverlap {
                tree: u32::decode(r)?,
                expected: SfcPosition::decode(r)?,
                found: SfcPosition::decode(r)?,
            },
            5 => InvariantError::IncompleteRange {
                walked_to: SfcPosition::decode(r)?,
                range_end: SfcPosition::decode(r)?,
            },
            d => {
                return Err(WireError::Invalid(format!(
                    "bad InvariantError discriminant {d}"
                )))
            }
        })
    }
}

impl Wire for IoError {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            IoError::Truncated { needed, remaining } => {
                out.push(0);
                needed.encode(out);
                remaining.encode(out);
            }
            IoError::BadMagic { found } => {
                out.push(1);
                found.encode(out);
            }
            IoError::UnsupportedVersion { found, supported } => {
                out.push(2);
                found.encode(out);
                supported.encode(out);
            }
            IoError::ChecksumMismatch { stored, computed } => {
                out.push(3);
                stored.encode(out);
                computed.encode(out);
            }
            IoError::CountMismatch {
                what,
                found,
                expected,
            } => {
                out.push(4);
                what.to_string().encode(out);
                found.encode(out);
                expected.encode(out);
            }
            IoError::CorruptLeaf {
                tree,
                coords,
                level,
            } => {
                out.push(5);
                tree.encode(out);
                coords.encode(out);
                level.encode(out);
            }
            IoError::DimensionMismatch {
                stream,
                representation,
            } => {
                out.push(6);
                stream.encode(out);
                representation.encode(out);
            }
            IoError::TreeCountMismatch {
                stream,
                connectivity,
            } => {
                out.push(7);
                stream.encode(out);
                connectivity.encode(out);
            }
            IoError::SizeMismatch {
                stream,
                communicator,
            } => {
                out.push(8);
                stream.encode(out);
                communicator.encode(out);
            }
            IoError::Invariant(e) => {
                out.push(9);
                e.encode(out);
            }
            IoError::Storage { path, message } => {
                out.push(10);
                path.encode(out);
                message.encode(out);
            }
            IoError::NoCheckpoint { dir } => {
                out.push(11);
                dir.encode(out);
            }
            IoError::MissingPayload => out.push(12),
            IoError::PayloadCorrupt { leaf, detail } => {
                out.push(13);
                leaf.encode(out);
                detail.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            0 => IoError::Truncated {
                needed: usize::decode(r)?,
                remaining: usize::decode(r)?,
            },
            1 => IoError::BadMagic {
                found: <[u8; 4]>::decode(r)?,
            },
            2 => IoError::UnsupportedVersion {
                found: u32::decode(r)?,
                supported: u32::decode(r)?,
            },
            3 => IoError::ChecksumMismatch {
                stored: u32::decode(r)?,
                computed: u32::decode(r)?,
            },
            4 => {
                // `what` is a &'static str naming the inconsistent
                // count; intern the decoded copy to get the lifetime
                // back (the name set is small and closed).
                let what = quadforest_telemetry::intern_name(&String::decode(r)?);
                IoError::CountMismatch {
                    what,
                    found: u64::decode(r)?,
                    expected: u64::decode(r)?,
                }
            }
            5 => IoError::CorruptLeaf {
                tree: u32::decode(r)?,
                coords: <[i32; 3]>::decode(r)?,
                level: u8::decode(r)?,
            },
            6 => IoError::DimensionMismatch {
                stream: u32::decode(r)?,
                representation: u32::decode(r)?,
            },
            7 => IoError::TreeCountMismatch {
                stream: u64::decode(r)?,
                connectivity: u64::decode(r)?,
            },
            8 => IoError::SizeMismatch {
                stream: u64::decode(r)?,
                communicator: u64::decode(r)?,
            },
            9 => IoError::Invariant(InvariantError::decode(r)?),
            10 => IoError::Storage {
                path: String::decode(r)?,
                message: String::decode(r)?,
            },
            11 => IoError::NoCheckpoint {
                dir: String::decode(r)?,
            },
            12 => IoError::MissingPayload,
            13 => IoError::PayloadCorrupt {
                leaf: u64::decode(r)?,
                detail: String::decode(r)?,
            },
            d => return Err(WireError::Invalid(format!("bad IoError discriminant {d}"))),
        })
    }
}
