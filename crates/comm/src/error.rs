//! Typed failure reporting for the simulated-MPI world.
//!
//! Two layers, mirroring MPI's error model: [`CommError`] is what a
//! single rank observes inside a communication call (the analogue of an
//! MPI error class delivered through `MPI_ERRORS_RETURN`), and
//! [`WorldError`] is what [`try_run`](crate::try_run) reports to the
//! caller once every rank thread has unwound — it names the *origin*
//! rank (the first failure, everything else is collateral unwinding)
//! and carries the full per-rank failure list for diagnostics.

use std::fmt;
use std::time::Duration;

/// Format a tag for diagnostics: user tags print as numbers, internal
/// collective tags as `coll:<sequence>#<round>`.
pub(crate) fn tag_display(tag: u64) -> String {
    if tag >= crate::COLL_TAG_BASE {
        let rel = tag - crate::COLL_TAG_BASE;
        let seq = rel & 0xFFFF_FFFF;
        let round = rel >> 32;
        if round == 0 {
            format!("coll:{seq}")
        } else {
            format!("coll:{seq}#{round}")
        }
    } else {
        format!("user:{tag}")
    }
}

/// An error observed by one rank inside a communication operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// Another rank failed first; this rank's blocked or subsequent
    /// operations unwind with the origin's identity and reason.
    Aborted {
        /// Rank whose failure aborted the world.
        origin: usize,
        /// Human-readable reason recorded at abort time.
        reason: String,
    },
    /// A blocking receive exceeded the configured timeout — the
    /// deadlock-suspicion path. `diagnostic` holds a world-state dump
    /// (what every rank was doing when the timeout fired).
    Timeout {
        /// The rank that timed out.
        rank: usize,
        /// The source rank it was waiting on.
        src: usize,
        /// The tag it was waiting on.
        tag: u64,
        /// How long it waited.
        waited: Duration,
        /// Per-rank world-state dump captured at expiry.
        diagnostic: String,
    },
    /// A message matched `(src, tag)` but carried a different payload
    /// type than the receiver requested.
    TypeMismatch {
        /// Sending rank.
        src: usize,
        /// Message tag.
        tag: u64,
        /// The type the receiver asked for.
        expected: &'static str,
    },
    /// A peer rank's *process* died (process backends only): it exited
    /// without reporting, it missed its heartbeat window, or fault
    /// injection killed it with SIGKILL. The thread backend
    /// never produces this — a dying thread always unwinds through the
    /// abort protocol first.
    PeerFailed {
        /// The rank whose process died.
        rank: usize,
        /// How its death was detected.
        reason: String,
    },
    /// A transport frame or payload could not be decoded (process
    /// backends only): bad length prefix, CRC mismatch, or bytes that
    /// fail [`Wire`](quadforest_core::Wire) decoding.
    Frame {
        /// What was wrong with the frame.
        detail: String,
    },
}

impl CommError {
    /// Short classification used in failure summaries.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            CommError::Aborted { .. } => "aborted",
            CommError::Timeout { .. } => "timeout",
            CommError::TypeMismatch { .. } => "type mismatch",
            CommError::PeerFailed { .. } => "peer failed",
            CommError::Frame { .. } => "frame error",
        }
    }
}

// CommError crosses the parent/child process boundary inside `Failed`
// frames, so it needs a wire form.
quadforest_core::wire!(enum CommError {
    0 => Aborted { origin, reason },
    1 => Timeout { rank, src, tag, waited, diagnostic },
    2 => TypeMismatch { src, tag, expected },
    3 => PeerFailed { rank, reason },
    4 => Frame { detail },
});

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Aborted { origin, reason } => {
                write!(f, "world aborted by rank {origin}: {reason}")
            }
            CommError::Timeout {
                rank,
                src,
                tag,
                waited,
                diagnostic,
            } => write!(
                f,
                "rank {rank} recv timeout after {waited:?} waiting on src={src} tag={}\n{diagnostic}",
                tag_display(*tag)
            ),
            CommError::TypeMismatch { src, tag, expected } => write!(
                f,
                "type mismatch on message from rank {src} tag={}: receiver expected {expected}",
                tag_display(*tag)
            ),
            CommError::PeerFailed { rank, reason } => {
                write!(f, "peer rank {rank} process failed: {reason}")
            }
            CommError::Frame { detail } => write!(f, "transport frame error: {detail}"),
        }
    }
}

impl std::error::Error for CommError {}

/// How one rank's program ended when it did not return a value.
#[derive(Clone, Debug)]
pub enum RankError {
    /// The rank program panicked (payload stringified).
    Panicked(String),
    /// The rank program returned a [`CommError`].
    Failed(CommError),
}

impl fmt::Display for RankError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankError::Panicked(msg) => write!(f, "panicked: {msg}"),
            RankError::Failed(e) => write!(f, "failed: {e}"),
        }
    }
}

/// One rank's failure record inside a [`WorldError`].
#[derive(Clone, Debug)]
pub struct RankFailure {
    /// The failing rank.
    pub rank: usize,
    /// How it failed.
    pub error: RankError,
}

/// The world-level failure report returned by
/// [`try_run`](crate::try_run): which rank failed first, why, and every
/// other rank that unwound in consequence.
#[derive(Clone, Debug)]
pub struct WorldError {
    /// Communicator size of the failed world.
    pub size: usize,
    /// The first rank to fail — the root cause. Every other entry in
    /// `failures` is (usually) collateral unwinding triggered by the
    /// abort broadcast.
    pub origin: usize,
    /// The reason recorded when `origin` failed.
    pub reason: String,
    /// All per-rank failures, in rank order.
    pub failures: Vec<RankFailure>,
}

impl WorldError {
    /// The failure record of the origin rank, when present.
    pub fn origin_failure(&self) -> Option<&RankFailure> {
        self.failures.iter().find(|f| f.rank == self.origin)
    }

    /// True when the origin rank's program panicked (as opposed to
    /// returning an error).
    pub fn origin_panicked(&self) -> bool {
        matches!(
            self.origin_failure(),
            Some(RankFailure {
                error: RankError::Panicked(_),
                ..
            })
        )
    }
}

impl fmt::Display for WorldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} of {} failed: {}",
            self.origin, self.size, self.reason
        )?;
        let collateral = self
            .failures
            .iter()
            .filter(|r| r.rank != self.origin)
            .count();
        if collateral > 0 {
            write!(f, " ({collateral} other rank(s) unwound after the abort)")?;
        }
        Ok(())
    }
}

impl std::error::Error for WorldError {}
