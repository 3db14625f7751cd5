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
use quadforest_core::wire::WireError;
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
    /// A payload restore was requested but the stream was saved without
    /// payloads (its `payload` is `None`).
    MissingPayload,
    /// A per-leaf payload record failed to decode into the requested
    /// payload type.
    PayloadCorrupt {
        /// Rank-local index of the offending leaf.
        leaf: u64,
        /// Stringified decode failure.
        detail: String,
    },
    /// A file body whose CRC checks out does not decode: a length prefix
    /// claims more than the bytes left, or a tag byte is out of range.
    /// The file was written wrong, not damaged after the write.
    Malformed {
        /// The decoder's description of the failure.
        detail: String,
    },
}

impl IoError {
    /// `Ok` when a count in a file equals the value the rest of the
    /// file implies, [`IoError::CountMismatch`] otherwise.
    pub(crate) fn check_count(what: &'static str, found: u64, expected: u64) -> Result<(), Self> {
        if found == expected {
            return Ok(());
        }
        Err(IoError::CountMismatch {
            what,
            found,
            expected,
        })
    }

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

/// A file body that fails strict decoding, in the file's own terms.
impl From<WireError> for IoError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated { needed, have } => IoError::Truncated {
                needed,
                remaining: have,
            },
            WireError::Trailing { extra } => IoError::CountMismatch {
                what: "trailing byte",
                found: extra as u64,
                expected: 0,
            },
            WireError::Invalid(detail) => IoError::Malformed { detail },
        }
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
            IoError::Malformed { detail } => write!(f, "malformed file body: {detail}"),
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

// Wire encoding: both error types travel across rank boundaries on the
// socket transport (e.g. as a `Result<_, IoError>` program outcome).

quadforest_core::wire!(enum InvariantError {
    0 => MarkerLength { got, expected },
    1 => MarkersNotMonotone { index, marker, next },
    2 => BadEndSentinel { got, expected },
    3 => InvalidLeaf { tree, coords, level },
    4 => GapOrOverlap { tree, expected, found },
    5 => IncompleteRange { walked_to, range_end },
});

quadforest_core::wire!(enum IoError {
    0 => Truncated { needed, remaining },
    1 => BadMagic { found },
    2 => UnsupportedVersion { found, supported },
    3 => ChecksumMismatch { stored, computed },
    4 => CountMismatch { what, found, expected },
    5 => CorruptLeaf { tree, coords, level },
    6 => DimensionMismatch { stream, representation },
    7 => TreeCountMismatch { stream, connectivity },
    8 => SizeMismatch { stream, communicator },
    9 => Invariant(cause),
    10 => Storage { path, message },
    11 => NoCheckpoint { dir },
    12 => MissingPayload,
    13 => PayloadCorrupt { leaf, detail },
    14 => Malformed { detail },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc32;
    use quadforest_core::Wire;

    /// One sample of every variant of forest's wire types, pinned as
    /// length and CRC-32 of the concatenated encodings. The manifest and
    /// its shard records are the body of the QFMF golden stream.
    #[test]
    fn wire_codecs_are_pinned_byte_for_byte() {
        let invariants = [
            InvariantError::MarkerLength {
                got: 3,
                expected: 4,
            },
            InvariantError::MarkersNotMonotone {
                index: 1,
                marker: (0, 9),
                next: (0, 2),
            },
            InvariantError::BadEndSentinel {
                got: (1, 0),
                expected: (2, 0),
            },
            InvariantError::InvalidLeaf {
                tree: 1,
                coords: [-1, 2, 3],
                level: 4,
            },
            InvariantError::GapOrOverlap {
                tree: 0,
                expected: (0, 5),
                found: (0, 6),
            },
            InvariantError::IncompleteRange {
                walked_to: (0, 7),
                range_end: (1, 0),
            },
        ];
        let errors = [
            IoError::Truncated {
                needed: 8,
                remaining: 3,
            },
            IoError::BadMagic { found: *b"XFOR" },
            IoError::UnsupportedVersion {
                found: 99,
                supported: 2,
            },
            IoError::ChecksumMismatch {
                stored: 0xDEAD_BEEF,
                computed: 0x1234_5678,
            },
            IoError::CountMismatch {
                what: "marker",
                found: 5,
                expected: 3,
            },
            IoError::CorruptLeaf {
                tree: 0,
                coords: [-1, 0, 0],
                level: 2,
            },
            IoError::DimensionMismatch {
                stream: 2,
                representation: 3,
            },
            IoError::TreeCountMismatch {
                stream: 4,
                connectivity: 1,
            },
            IoError::SizeMismatch {
                stream: 2,
                communicator: 3,
            },
            IoError::Invariant(invariants[3].clone()),
            IoError::Storage {
                path: "/ckpt/gen-00000001".into(),
                message: "denied".into(),
            },
            IoError::NoCheckpoint {
                dir: "/ckpt".into(),
            },
            IoError::MissingPayload,
            IoError::PayloadCorrupt {
                leaf: 6,
                detail: "short".into(),
            },
        ];
        let mut bytes = Vec::new();
        invariants.iter().for_each(|e| e.encode(&mut bytes));
        errors.iter().for_each(|e| e.encode(&mut bytes));
        assert_eq!((bytes.len(), crc32(&bytes)), (376, 0xF31E_919E));
    }
}
