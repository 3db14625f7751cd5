//! Length-prefixed, CRC-guarded frames for the process link, over a
//! Unix socket or TCP alike.
//!
//! Wire layout of one frame:
//!
//! ```text
//! [ len: u32 LE ][ len ^ LEN_GUARD: u32 LE ][ crc: u32 LE ][ payload ]
//! ```
//!
//! `len` counts only the payload; `crc` is CRC-32 of the payload (the
//! same polynomial the checkpoint shards use, from
//! [`quadforest_core::crc`]). The payload is the Wire encoding of the
//! session's packet envelope, most of which carry a [`Frame`] — the
//! framing itself is generic over any [`Wire`] payload via
//! [`encode_wire`] / [`read_raw`]. Decoding is strict and
//! hostile-input-safe: a length prefix above the cap is rejected
//! *before* any allocation, a CRC mismatch or trailing bytes
//! is a typed error, and EOF mid-frame is distinguished from clean EOF
//! between frames — the reader can tell "peer hung up" from "peer died
//! mid-sentence". A network peer (or the chaos interposer) flipping
//! bits therefore surfaces as a typed [`FrameError`], never a panic —
//! the byte-mutation and stream-reassembly proptests below pin this.
//!
//! The second header word is the length prefix's own integrity guard.
//! The payload CRC cannot vouch for `len` — it is only checkable after
//! `len` bytes have been read, and a corrupted-but-under-the-cap
//! length points the reader at payload that will never arrive, where
//! it would silently consume every later frame on the stream
//! (heartbeats included) as bogus payload bytes while both ends still
//! look "live". The guard word makes any corruption of either length
//! word visible in the first 8 bytes, before the reader commits to a
//! payload: `len ^ guard != LEN_GUARD` is a typed
//! [`FrameError::HeaderCorrupt`] and an immediate link break.

use quadforest_core::crc::crc32;
use quadforest_core::wire::{Wire, WireError, WireReader};
use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Upper bound on a single frame payload, on both process links. Far
/// above anything the forest algorithms send (the biggest alltoallv
/// slabs are a few MiB), far below anything that could be a
/// length-prefix attack. A constant: no caller varies it. The read
/// path enforces it *before* allocating the payload buffer.
pub(crate) const MAX_FRAME_LEN: u32 = 256 << 20;

/// XOR mask tying the two length words of the header together. Any
/// single corrupted bit in either word breaks the relation; agreeing
/// corruption of both words would need the same bit flipped twice.
const LEN_GUARD: u32 = 0x5AFE_C0DE;

/// Bytes of framing before the payload: len, len-guard, payload CRC.
pub(crate) const HEADER_LEN: usize = 12;

/// Everything that travels over a rank⇄supervisor link.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Frame {
    /// First frame on a connection: the child identifies its rank.
    Hello { rank: u64 },
    /// A point-to-point or collective message, routed via the
    /// supervisor star. `type_tag` is the sender's payload type hash;
    /// `bytes` the telemetry size estimate.
    Msg {
        src: u64,
        dst: u64,
        tag: u64,
        type_tag: u64,
        bytes: u64,
        data: Vec<u8>,
    },
    /// Periodic liveness beacon from a child, carrying the rank's last
    /// counted comm-op index and the telemetry phase it was in — so the
    /// supervisor can name a SIGKILLed rank's last comm op and phase in
    /// its flight-recorder postmortem even though the victim cannot
    /// dump anything itself.
    Heartbeat {
        rank: u64,
        seq: u64,
        op: u64,
        phase: String,
    },
    /// Abort broadcast: either direction. From a child it reports
    /// "this rank failed first"; from the supervisor it spreads the
    /// recorded origin to every surviving rank.
    Abort { origin: u64, reason: String },
    /// A child finished successfully with these result bytes.
    Done { rank: u64, result: Vec<u8> },
    /// A child's program failed. `error` is present when the program
    /// returned a typed `CommError` (absent for panics).
    Failed {
        rank: u64,
        panicked: bool,
        reason: String,
        error: Option<crate::CommError>,
    },
    /// Fault injection: the child asks the supervisor to SIGKILL it at
    /// scheduled comm op `op`, then parks awaiting death.
    RequestKill { rank: u64, op: u64 },
}

/// Wire discriminants of [`Frame::Msg`] and [`Frame::Heartbeat`].
const MSG: u8 = 1;
pub(crate) const HEARTBEAT: u8 = 2;

/// A [`Frame::Msg`] in a frame buffer: its six `u64` fields (`src`,
/// `dst`, `tag`, `type_tag`, `bytes`, the data's length) start at
/// `MSG_FIELDS`, its data at `MSG_DATA_AT`.
const MSG_FIELDS: usize = HEADER_LEN + 1;
pub(crate) const MSG_DATA_AT: usize = MSG_FIELDS + 6 * 8;

/// Fill in the fields of a `Msg` whose data a sender encoded behind
/// [`MSG_DATA_AT`] reserved bytes; `bytes` is the data's length.
pub(crate) fn put_msg(frame: &mut [u8], src: u64, dst: u64, tag: u64, type_tag: u64) {
    let bytes = (frame.len() - MSG_DATA_AT) as u64;
    frame[HEADER_LEN] = MSG;
    let fields = [src, dst, tag, type_tag, bytes, bytes];
    for (at, v) in (MSG_FIELDS..).step_by(8).zip(fields) {
        frame[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// `[src, dst, tag, type_tag, bytes]` of a `Msg` that [`check`] passed.
pub(crate) fn msg_fields(frame: &[u8]) -> [u64; 5] {
    let field = |i: usize| {
        frame[MSG_FIELDS + 8 * i..][..8]
            .try_into()
            .expect("8 bytes")
    };
    [0, 1, 2, 3, 4].map(|i| u64::from_le_bytes(field(i)))
}

/// If `payload` is the encoding of a [`Frame::Msg`], check everything
/// [`Frame::decode`] would check of it and return its `(src, dst)`,
/// without reading the message data: the five `u64` fields accept any
/// value and so does every data byte, so what is left to go wrong is
/// the data's length prefix, which must account for exactly the bytes
/// that remain. `None` for any other frame kind. This is what lets a
/// router forward the frame bytes it received instead of rebuilding
/// them.
pub(crate) fn msg_route(payload: &[u8]) -> Option<Result<(u64, u64), WireError>> {
    let (&MSG, fields) = payload.split_first()? else {
        return None;
    };
    let mut r = WireReader::new(fields);
    let mut route = || {
        let (src, dst) = (u64::decode(&mut r)?, u64::decode(&mut r)?);
        for _tag_type_bytes in 0..3 {
            u64::decode(&mut r)?;
        }
        let data_len = r.seq_len()?; // at most what remains
        match r.remaining() - data_len {
            0 => Ok((src, dst)),
            extra => Err(WireError::Trailing { extra }),
        }
    };
    Some(route())
}

quadforest_core::wire!(enum Frame {
    0 => Hello { rank },
    MSG => Msg { src, dst, tag, type_tag, bytes, data },
    HEARTBEAT => Heartbeat { rank, seq, op, phase },
    3 => Abort { origin, reason },
    4 => Done { rank, result },
    5 => Failed { rank, panicked, reason, error },
    6 => RequestKill { rank, op },
});

/// Why reading a frame off a stream failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum FrameError {
    /// Clean EOF on a frame boundary: the peer closed in an orderly
    /// way (or was killed between frames — the caller decides whether
    /// that was expected).
    Eof,
    /// EOF in the middle of a frame: the peer died mid-write.
    TruncatedEof { got: usize, wanted: usize },
    /// Length prefix exceeds [`MAX_FRAME_LEN`]; rejected
    /// before any allocation.
    Oversized { len: u32, cap: u32 },
    /// The two length words of the header disagree: the length prefix
    /// itself was corrupted in flight. Caught before any payload byte
    /// is read — the one corruption the payload CRC can never catch in
    /// time (see the module docs).
    HeaderCorrupt { len: u32, guard: u32 },
    /// Payload bytes do not match the header CRC.
    Crc { expected: u32, got: u32 },
    /// Payload failed Wire decoding (carries the inner error text).
    Decode(String),
    /// Underlying socket error other than timeout/EOF.
    Io(String),
    /// The reader's stop flag was raised while waiting for bytes.
    Stopped,
    /// Mid-frame read made no progress for longer than the caller's
    /// idle limit. A frame's bytes are written back-to-back, so this
    /// almost always means a corrupted length prefix has the reader
    /// waiting for payload that will never exist — without this check
    /// such a reader would silently swallow live traffic (heartbeats
    /// included) as bogus payload until the liveness window expired.
    Stalled { got: usize, wanted: usize },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "connection closed"),
            FrameError::TruncatedEof { got, wanted } => {
                write!(f, "connection closed mid-frame ({got}/{wanted} bytes)")
            }
            FrameError::Oversized { len, cap } => {
                write!(f, "frame length {len} exceeds cap {cap}")
            }
            FrameError::HeaderCorrupt { len, guard } => {
                write!(
                    f,
                    "frame header corrupt: length {len:#010x} does not match its guard {guard:#010x}"
                )
            }
            FrameError::Crc { expected, got } => {
                write!(
                    f,
                    "frame CRC mismatch (header {expected:#010x}, payload {got:#010x})"
                )
            }
            FrameError::Decode(e) => write!(f, "frame payload decode failed: {e}"),
            FrameError::Io(e) => write!(f, "socket error: {e}"),
            FrameError::Stopped => write!(f, "reader stopped"),
            FrameError::Stalled { got, wanted } => {
                write!(f, "frame read stalled mid-frame ({got}/{wanted} bytes)")
            }
        }
    }
}

/// Fill in the header of a frame buffer — [`HEADER_LEN`] reserved
/// bytes, then the payload — so it is ready to write.
///
/// Panics when the payload exceeds [`MAX_FRAME_LEN`]: no peer accepts
/// such a frame, so the sending rank fails here, by name and size,
/// through the abort protocol — not later as a "corrupt" frame.
pub(crate) fn seal(frame: &mut [u8]) {
    let payload_len = frame.len() - HEADER_LEN;
    let len = u32::try_from(payload_len)
        .ok()
        .filter(|&len| len <= MAX_FRAME_LEN)
        .unwrap_or_else(|| {
            panic!("message of {payload_len} bytes exceeds the frame cap of {MAX_FRAME_LEN} bytes")
        });
    let crc = crc32(&frame[HEADER_LEN..]);
    frame[0..4].copy_from_slice(&len.to_le_bytes());
    frame[4..8].copy_from_slice(&(len ^ LEN_GUARD).to_le_bytes());
    frame[8..12].copy_from_slice(&crc.to_le_bytes());
}

/// Encode any Wire value as one sealed frame.
pub(crate) fn encode_wire<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = vec![0u8; HEADER_LEN];
    value.encode(&mut out);
    seal(&mut out);
    out
}

/// Fill `buf`, the bytes of a `wanted`-byte frame that follow its first
/// `before`, from `stream`, tolerating read timeouts (the socket has a
/// short `read_timeout` so readers can poll `stop`). With an
/// `idle_limit`, gives up when the read makes no progress for that
/// long once any byte of the frame is in: an idle link between frames
/// is normal, but a payload must be right behind its header. EOF before
/// the frame's first byte is a clean close; anything later is a
/// mid-frame death.
fn fill(
    stream: &mut impl Read,
    buf: &mut [u8],
    stop: &AtomicBool,
    idle_limit: Option<Duration>,
    (before, wanted): (usize, usize),
) -> Result<(), FrameError> {
    let mut filled = 0;
    let mut last_progress = Instant::now();
    while filled < buf.len() {
        let got = before + filled;
        if stop.load(Ordering::Relaxed) {
            return Err(FrameError::Stopped);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) if got == 0 => return Err(FrameError::Eof),
            Ok(0) => return Err(FrameError::TruncatedEof { got, wanted }),
            Ok(n) => {
                filled += n;
                last_progress = Instant::now();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                if idle_limit.is_some_and(|limit| got > 0 && last_progress.elapsed() > limit) {
                    return Err(FrameError::Stalled { got, wanted });
                }
            }
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    Ok(())
}

/// Validate the fixed-size header: the guard word must agree with the
/// length prefix (corruption check, first) and the length must fit
/// under [`MAX_FRAME_LEN`] (policy check, second — only meaningful once
/// the length itself is trusted). Returns `(len, expected_crc)`.
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u32, u32), FrameError> {
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let guard = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    let expected_crc = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if len ^ guard != LEN_GUARD {
        return Err(FrameError::HeaderCorrupt { len, guard });
    }
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized {
            len,
            cap: MAX_FRAME_LEN,
        });
    }
    Ok((len, expected_crc))
}

/// Read one `[len][guard][crc][payload]` frame into `frame` (its
/// capacity reused), header included, once the header guard, the
/// [`MAX_FRAME_LEN`] cap on the length prefix (enforced *before* the
/// buffer grows) and the payload CRC have all checked out. The payload
/// is not decoded: a router forwards the bytes as they are. `stop` lets
/// the owner retire the reader thread without closing the socket.
///
/// With an `idle_limit`, once any byte of a frame has arrived the rest
/// must keep arriving with gaps no longer than that, or the read fails
/// with [`FrameError::Stalled`]. A frame's bytes are written
/// back-to-back, so a silent mid-frame gap means the connection itself
/// went dark (e.g. a network partition opened between two segments) —
/// the header guard cannot see that, only the clock can. Waiting
/// *between* frames is unlimited — an idle link is healthy. The clock
/// is sampled on read polls, so the stream needs a short
/// `read_timeout`.
pub(crate) fn read_raw(
    stream: &mut impl Read,
    stop: &AtomicBool,
    idle_limit: Option<Duration>,
    frame: &mut Vec<u8>,
) -> Result<(), FrameError> {
    read_raw_into(stream, stop, idle_limit, frame, |_, _| {})
}

/// [`read_raw`], handing `fit` the buffer and the frame's whole length
/// once the header has checked out and before the buffer grows: a
/// reader can swap in a buffer that suits the frame.
pub(crate) fn read_raw_into(
    stream: &mut impl Read,
    stop: &AtomicBool,
    idle_limit: Option<Duration>,
    frame: &mut Vec<u8>,
    fit: impl FnOnce(&mut Vec<u8>, usize),
) -> Result<(), FrameError> {
    let mut header = [0u8; HEADER_LEN];
    fill(stream, &mut header, stop, idle_limit, (0, HEADER_LEN))?;
    let (len, expected_crc) = parse_header(&header)?;
    let wanted = HEADER_LEN + len as usize;
    fit(frame, wanted);
    frame.resize(wanted, 0);
    frame[..HEADER_LEN].copy_from_slice(&header);
    fill(
        stream,
        &mut frame[HEADER_LEN..],
        stop,
        idle_limit,
        (HEADER_LEN, wanted),
    )?;
    let got_crc = crc32(&frame[HEADER_LEN..]);
    if got_crc != expected_crc {
        return Err(FrameError::Crc {
            expected: expected_crc,
            got: got_crc,
        });
    }
    Ok(())
}

/// Decode the payload of a frame [`read_raw`] returned.
pub(crate) fn decode_raw<T: Wire>(frame: &[u8]) -> Result<T, FrameError> {
    T::from_wire(&frame[HEADER_LEN..]).map_err(|e| FrameError::Decode(e.to_string()))
}

/// Check a frame [`read_raw`] read as a [`Frame`]: `None` for a `Msg`,
/// which [`msg_route`] checks as a decode would and leaves in the
/// buffer ([`msg_fields`]); any other frame, decoded.
pub(crate) fn check(frame: &[u8]) -> Result<Option<Frame>, FrameError> {
    let Some(route) = msg_route(&frame[HEADER_LEN..]) else {
        return decode_raw(frame).map(Some);
    };
    route
        .map(|_| None)
        .map_err(|e| FrameError::Decode(e.to_string()))
}

/// Blocking wrapper used during connection handshakes: read one Wire
/// message or give up after `timeout`.
pub(crate) fn read_wire_timeout<T: Wire>(
    stream: &mut impl Read,
    timeout: Duration,
) -> Result<T, FrameError> {
    // reuse the stop flag as a deadline: a watcher thread would be
    // overkill for a handshake, so poll wall clock between reads
    struct DeadlineRead<'a, R> {
        inner: &'a mut R,
        deadline: Instant,
    }
    impl<R: Read> Read for DeadlineRead<'_, R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if Instant::now() >= self.deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "handshake timeout",
                ));
            }
            self.inner.read(buf)
        }
    }
    let mut dr = DeadlineRead {
        inner: stream,
        deadline: Instant::now() + timeout,
    };
    let mut frame = Vec::new();
    read_raw(&mut dr, &AtomicBool::new(false), None, &mut frame)?;
    decode_raw(&frame)
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use std::io::Cursor;

    fn no_stop() -> AtomicBool {
        AtomicBool::new(false)
    }

    /// Read and decode one Wire value.
    fn read_wire<T: Wire>(stream: &mut impl Read, stop: &AtomicBool) -> Result<T, FrameError> {
        let mut frame = Vec::new();
        read_raw(stream, stop, None, &mut frame)?;
        decode_raw(&frame)
    }

    /// Frame whatever `body` appends behind a reserved header, then
    /// [`seal`] it.
    pub(in crate::transport) fn encode_with(body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = vec![0u8; HEADER_LEN];
        body(&mut out);
        seal(&mut out);
        out
    }

    /// Encode `frame` as `[len][guard][crc][payload]`.
    pub(in crate::transport) fn encode_frame(frame: &Frame) -> Vec<u8> {
        encode_wire(frame)
    }

    /// Read and decode one [`Frame`].
    fn read_frame(stream: &mut impl Read, stop: &AtomicBool) -> Result<Frame, FrameError> {
        read_wire(stream, stop)
    }

    /// Frame a raw payload by hand: correct header, arbitrary bytes.
    fn raw_frame(payload: &[u8]) -> Vec<u8> {
        let len = payload.len() as u32;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&(len ^ LEN_GUARD).to_le_bytes());
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    fn msg(src: u64, dst: u64) -> Frame {
        Frame::Msg {
            src,
            dst,
            tag: 0x77,
            type_tag: 0xABCD,
            bytes: 4,
            data: vec![1, 2, 3, 4],
        }
    }

    /// `msg(0, 1)` as the element-wise encoder framed it: header CRC
    /// from zlib, every field little-endian.
    pub(in crate::transport) const MSG_0_TO_1: [u8; 65] = [
        53, 0, 0, 0, 0xEB, 0xC0, 0xFE, 0x5A, 0x2D, 0xD8, 0xAC, 0xEE, // len, guard, crc
        1,    // Msg
        0, 0, 0, 0, 0, 0, 0, 0, // src
        1, 0, 0, 0, 0, 0, 0, 0, // dst
        0x77, 0, 0, 0, 0, 0, 0, 0, // tag
        0xCD, 0xAB, 0, 0, 0, 0, 0, 0, // type_tag
        4, 0, 0, 0, 0, 0, 0, 0, // bytes
        4, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, // data
    ];

    #[test]
    fn msg_frame_encoding_is_pinned_byte_for_byte() {
        assert_eq!(encode_frame(&msg(0, 1)), MSG_0_TO_1);
    }

    // What the router checks of a `Msg` must equal a full decode: same
    // verdict, same route, same error, on any damage to the payload.
    proptest::proptest! {
        #[test]
        fn msg_route_agrees_with_a_full_decode(
            pos in 0usize..53,
            xor in 0u8..=255,
            cut in 0usize..=53,
            extra in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4),
        ) {
            let mut payload = MSG_0_TO_1[HEADER_LEN..].to_vec();
            payload[pos] ^= xor;
            payload.truncate(cut.max(pos + 1));
            payload.extend_from_slice(&extra);
            let full = Frame::from_wire(&payload);
            match msg_route(&payload) {
                None => {
                    let is_msg = matches!(full, Ok(Frame::Msg { .. }));
                    proptest::prop_assert!(!is_msg);
                }
                Some(Err(e)) => proptest::prop_assert_eq!(full, Err(e)),
                Some(Ok(route)) => match full {
                    Ok(Frame::Msg { src, dst, .. }) => proptest::prop_assert_eq!(route, (src, dst)),
                    other => proptest::prop_assert!(false, "decode says {:?}", other),
                },
            }
        }
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { rank: 3 },
            Frame::Msg {
                src: 1,
                dst: 2,
                tag: 77,
                type_tag: 0xABCD,
                bytes: 4,
                data: vec![1, 2, 3, 4],
            },
            Frame::Heartbeat {
                rank: 0,
                seq: 41,
                op: 17,
                phase: "balance".into(),
            },
            Frame::Abort {
                origin: 2,
                reason: "recv timeout".into(),
            },
            Frame::Done {
                rank: 1,
                result: vec![9; 32],
            },
            Frame::Failed {
                rank: 0,
                panicked: true,
                reason: "panicked: boom".into(),
                error: None,
            },
            Frame::Failed {
                rank: 2,
                panicked: false,
                reason: "aborted".into(),
                error: Some(crate::CommError::Aborted {
                    origin: 1,
                    reason: "first".into(),
                }),
            },
            Frame::RequestKill { rank: 1, op: 12 },
        ]
    }

    /// One sample of every variant of the comm crate's wire types —
    /// frames, errors and fault plans (every `NetDir`) — pinned as
    /// length and CRC-32 of the concatenated encodings.
    #[test]
    fn wire_codecs_are_pinned_byte_for_byte() {
        use crate::{CommError, FaultPlan, NetDir};
        let mut bytes = Vec::new();
        for frame in sample_frames() {
            frame.encode(&mut bytes);
        }
        for error in [
            CommError::Aborted {
                origin: 1,
                reason: "first".into(),
            },
            CommError::Timeout {
                rank: 2,
                src: 3,
                tag: 0xF00D,
                waited: Duration::new(5, 6),
                diagnostic: "rank 3 idle".into(),
            },
            CommError::TypeMismatch {
                src: 4,
                tag: 8,
                expected: "alloc::vec::Vec<u64>",
            },
            CommError::PeerFailed {
                rank: 5,
                reason: "heartbeat".into(),
            },
            CommError::Frame {
                detail: "crc".into(),
            },
        ] {
            error.encode(&mut bytes);
        }
        FaultPlan::new(0xC0FFEE)
            .with_delays(0.25, Duration::from_micros(300))
            .with_reordering(0.5)
            .with_panic_at(1, 7)
            .with_sigkill_at(2, 9)
            .with_stall_at(0, 11)
            .with_net_delays(0.125, Duration::from_millis(2))
            .with_net_drops(0.01)
            .with_net_corruption(0.02)
            .with_net_partial_writes(0.03)
            .with_net_reset_at(1, 4)
            .with_net_partition(0, NetDir::Out, 5, Duration::from_millis(40))
            .with_net_partition(1, NetDir::In, 6, Duration::from_millis(50))
            .with_net_partition(2, NetDir::Both, 7, Duration::from_millis(60))
            .encode(&mut bytes);
        assert_eq!((bytes.len(), crc32(&bytes)), (686, 0x3EDA_9B24));
    }

    #[test]
    fn frames_roundtrip_through_codec() {
        for frame in sample_frames() {
            let bytes = encode_frame(&frame);
            let mut cur = Cursor::new(bytes);
            let back = read_frame(&mut cur, &no_stop()).expect("decode");
            assert_eq!(frame, back);
            // and the stream is fully consumed: next read is clean EOF
            assert_eq!(read_frame(&mut cur, &no_stop()), Err(FrameError::Eof));
        }
    }

    #[test]
    fn back_to_back_frames_parse_in_order() {
        let frames = sample_frames();
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&encode_frame(f));
        }
        let mut cur = Cursor::new(bytes);
        for f in &frames {
            assert_eq!(&read_frame(&mut cur, &no_stop()).expect("frame"), f);
        }
        assert_eq!(read_frame(&mut cur, &no_stop()), Err(FrameError::Eof));
    }

    #[test]
    fn truncation_at_every_byte_is_typed_never_a_panic() {
        let full = encode_frame(&Frame::Msg {
            src: 0,
            dst: 1,
            tag: 5,
            type_tag: 7,
            bytes: 3,
            data: vec![10, 20, 30],
        });
        for cut in 1..full.len() {
            let mut cur = Cursor::new(full[..cut].to_vec());
            let err = read_frame(&mut cur, &no_stop()).expect_err("truncated");
            match err {
                FrameError::TruncatedEof { got, wanted } => {
                    assert_eq!(got, cut);
                    assert!(wanted > got);
                }
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        // claim a 3 GiB payload (with a consistent guard, so only the
        // cap check can reject it); decode must fail fast on the header
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(3u32 << 30).to_le_bytes());
        bytes.extend_from_slice(&((3u32 << 30) ^ LEN_GUARD).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let mut cur = Cursor::new(bytes);
        assert_eq!(
            read_frame(&mut cur, &no_stop()),
            Err(FrameError::Oversized {
                len: 3 << 30,
                cap: MAX_FRAME_LEN
            })
        );
    }

    #[test]
    fn length_prefix_is_capped_at_max_frame_len() {
        // the header is judged before the payload buffer exists, so the
        // boundary needs no 256 MiB frame: a length at the cap passes,
        // one byte above it is typed `Oversized`
        let header = |len: u32| {
            let mut h = [0u8; HEADER_LEN];
            h[0..4].copy_from_slice(&len.to_le_bytes());
            h[4..8].copy_from_slice(&(len ^ LEN_GUARD).to_le_bytes());
            h
        };
        assert_eq!(parse_header(&header(MAX_FRAME_LEN)), Ok((MAX_FRAME_LEN, 0)));
        assert_eq!(
            parse_header(&header(MAX_FRAME_LEN + 1)),
            Err(FrameError::Oversized {
                len: MAX_FRAME_LEN + 1,
                cap: MAX_FRAME_LEN
            })
        );
    }

    /// A payload over the cap fails the sender, naming size and cap: it
    /// used to be truncated to `u32` and reach the peer as corruption.
    #[test]
    #[should_panic(expected = "268435457 bytes exceeds the frame cap of 268435456 bytes")]
    fn oversized_payload_panics_in_the_sender() {
        encode_with(|out| out.resize(out.len() + MAX_FRAME_LEN as usize + 1, 0));
    }

    #[test]
    fn crc_mismatch_is_detected() {
        let mut bytes = encode_frame(&Frame::Heartbeat {
            rank: 4,
            seq: 9,
            op: 0,
            phase: String::new(),
        });
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // flip one payload bit
        let mut cur = Cursor::new(bytes);
        match read_frame(&mut cur, &no_stop()) {
            Err(FrameError::Crc { .. }) => {}
            other => panic!("expected CRC error, got {other:?}"),
        }
    }

    #[test]
    fn bad_discriminant_is_a_decode_error() {
        let payload = vec![250u8]; // no such Frame variant
        let bytes = raw_frame(&payload);
        let mut cur = Cursor::new(bytes);
        match read_frame(&mut cur, &no_stop()) {
            Err(FrameError::Decode(e)) => assert!(e.contains("discriminant")),
            other => panic!("expected decode error, got {other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_inside_payload_is_rejected() {
        // valid Heartbeat payload plus junk, CRC recomputed so only the
        // strict from_wire trailing check can catch it
        let mut payload = Frame::Heartbeat {
            rank: 1,
            seq: 2,
            op: 0,
            phase: String::new(),
        }
        .to_wire();
        payload.extend_from_slice(&[0xAA, 0xBB]);
        let bytes = raw_frame(&payload);
        let mut cur = Cursor::new(bytes);
        match read_frame(&mut cur, &no_stop()) {
            Err(FrameError::Decode(e)) => assert!(e.contains("trailing")),
            other => panic!("expected decode error, got {other:?}"),
        }
    }

    #[test]
    fn hostile_inner_length_in_msg_data_is_rejected() {
        // hand-craft a Msg frame whose Vec<u8> length claims far more
        // than the payload holds — the Wire seq_len guard must reject
        // it without allocating
        let mut payload = Vec::new();
        payload.push(1u8); // Msg discriminant
        for v in [0u64, 1, 5, 7, 3] {
            payload.extend_from_slice(&v.to_le_bytes()); // src dst tag type_tag bytes
        }
        payload.extend_from_slice(&u64::MAX.to_le_bytes()); // data len: 2^64-1
        let bytes = raw_frame(&payload);
        let mut cur = Cursor::new(bytes);
        match read_frame(&mut cur, &no_stop()) {
            Err(FrameError::Decode(_)) => {}
            other => panic!("expected decode error, got {other:?}"),
        }
    }

    /// A `Read` that hands back the byte stream in caller-chosen
    /// chunks, emulating TCP segmentation: every `read` returns at
    /// most up to the next cut point, never across one. Between
    /// chunks it reports `WouldBlock` once, which the frame reader
    /// must tolerate exactly like a socket read timeout.
    struct ChunkedReader {
        data: Vec<u8>,
        cuts: Vec<usize>, // sorted positions where a read must stop
        pos: usize,
        starve_next: bool,
    }

    impl ChunkedReader {
        fn new(data: Vec<u8>, mut cuts: Vec<usize>) -> Self {
            cuts.retain(|&c| c > 0 && c < data.len());
            cuts.sort_unstable();
            cuts.dedup();
            ChunkedReader {
                data,
                cuts,
                pos: 0,
                starve_next: false,
            }
        }
    }

    impl Read for ChunkedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0); // clean EOF
            }
            if self.starve_next {
                self.starve_next = false;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "starve",
                ));
            }
            let limit = self
                .cuts
                .iter()
                .find(|&&c| c > self.pos)
                .copied()
                .unwrap_or(self.data.len());
            let n = buf.len().min(limit - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            self.starve_next = true;
            Ok(n)
        }
    }

    /// Satellite: TCP delivers a frame stream in arbitrary segments —
    /// partial reads and short writes can split it anywhere, including
    /// inside the 8-byte header. Splitting the stream of all sample
    /// frames at *every* byte boundary must decode to the identical
    /// frame sequence.
    #[test]
    fn decode_is_invariant_under_a_split_at_every_boundary() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f));
        }
        for cut in 1..stream.len() {
            let mut r = ChunkedReader::new(stream.clone(), vec![cut]);
            for f in &frames {
                let got = read_frame(&mut r, &no_stop())
                    .unwrap_or_else(|e| panic!("cut at {cut}: {e:?}"));
                assert_eq!(&got, f, "cut at {cut} changed a decoded frame");
            }
            assert_eq!(read_frame(&mut r, &no_stop()), Err(FrameError::Eof));
        }
    }

    // Stream-reassembly property: split the concatenated frame stream
    // at any *set* of boundaries (multi-segment delivery, one-byte
    // dribbles included) — decoding must be split-invariant: the same
    // frames, in order, then clean EOF.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]
        #[test]
        fn multi_segment_reassembly_is_split_invariant(
            raw_cuts in proptest::collection::vec(0usize..4096, 0..24),
        ) {
            let frames = sample_frames();
            let mut stream = Vec::new();
            for f in &frames {
                stream.extend_from_slice(&encode_frame(f));
            }
            let cuts: Vec<usize> = raw_cuts.iter().map(|c| c % stream.len()).collect();
            let mut r = ChunkedReader::new(stream, cuts.clone());
            for f in &frames {
                let got = read_frame(&mut r, &no_stop());
                proptest::prop_assert_eq!(got.as_ref(), Ok(f), "cuts {:?}", &cuts);
            }
            proptest::prop_assert_eq!(read_frame(&mut r, &no_stop()), Err(FrameError::Eof));
        }
    }

    // Byte-mutation property, mirroring the checkpoint corruption
    // suite: flip any single byte of a valid frame stream anywhere —
    // length words, CRC word, or payload — and reading it back must
    // yield a typed error or the untouched original, never a panic,
    // a hang, or a silently different frame. The header guard catches
    // every single-byte corruption of the two length words *before*
    // any payload byte is read; CRC32 catches payload/CRC-word
    // corruption after.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn single_byte_mutations_never_panic_or_misparse(
            which in 0usize..7,
            pos in 0usize..4096,
            xor in 1u8..=255,
        ) {
            let frames = sample_frames();
            let original = &frames[which % frames.len()];
            let mut bytes = encode_frame(original);
            let pos = pos % bytes.len();
            bytes[pos] ^= xor;
            let mut cur = Cursor::new(bytes.clone());
            match read_wire::<Frame>(&mut cur, &no_stop()) {
                Ok(frame) => proptest::prop_assert_eq!(&frame, original),
                Err(
                    FrameError::Oversized { .. }
                    | FrameError::HeaderCorrupt { .. }
                    | FrameError::TruncatedEof { .. }
                    | FrameError::Crc { .. }
                    | FrameError::Decode(_)
                    | FrameError::Eof,
                ) => {}
                Err(other) => {
                    proptest::prop_assert!(false, "untyped failure: {:?}", other);
                }
            }
            // a mutation of either length word can never reach the
            // payload read: the guard relation breaks, pre-allocation
            if pos < 8 {
                let mut cur = Cursor::new(bytes.clone());
                let got = read_wire::<Frame>(&mut cur, &no_stop());
                let caught = matches!(got, Err(FrameError::HeaderCorrupt { .. }));
                proptest::prop_assert!(caught, "length-word mutation escaped the guard: {:?}", got);
            }
        }
    }

    // The send path frames a message once, in the buffer its value was
    // encoded into, and the receive path reads it at fixed offsets:
    // both must be the `Frame::Msg` codec exactly, on any route, tag,
    // type and data (empty data included), and on any damaged payload
    // `msg_route` still accepts.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn a_message_framed_once_is_the_msg_codec(
            fields in proptest::collection::vec(proptest::prelude::any::<u64>(), 4),
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..80),
            pos in 0usize..160,
            xor in 0u8..=255,
            cut in 0usize..160,
        ) {
            let (src, dst, tag, type_tag) = (fields[0], fields[1], fields[2], fields[3]);
            let mut sent = vec![0u8; MSG_DATA_AT];
            sent.extend_from_slice(&data);
            put_msg(&mut sent, src, dst, tag, type_tag);
            seal(&mut sent);
            let bytes = data.len() as u64;
            let msg = Frame::Msg { src, dst, tag, type_tag, bytes, data };
            proptest::prop_assert_eq!(&sent, &encode_frame(&msg));

            let mut payload = sent[HEADER_LEN..].to_vec();
            let pos = pos % payload.len();
            payload[pos] ^= xor;
            payload.truncate(cut.max(pos + 1));
            let frame = encode_with(|out| out.extend_from_slice(&payload));
            if let Some(Ok(_)) = msg_route(&payload) {
                match Frame::from_wire(&payload) {
                    Ok(Frame::Msg { src, dst, tag, type_tag, bytes, data }) => {
                        proptest::prop_assert_eq!(msg_fields(&frame), [src, dst, tag, type_tag, bytes]);
                        proptest::prop_assert_eq!(&frame[MSG_DATA_AT..], &data[..]);
                        proptest::prop_assert!(matches!(check(&frame), Ok(None)));
                    }
                    other => proptest::prop_assert!(false, "decode says {:?}", other),
                }
            }
        }
    }

    /// A stream that yields some bytes and then blocks forever —
    /// the shape of a corrupted length prefix under the frame cap.
    struct StallingRead {
        bytes: Vec<u8>,
        pos: usize,
    }
    impl Read for StallingRead {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.bytes.len() {
                // emulate a socket read timeout poll, like a real
                // stream with a short read_timeout
                std::thread::sleep(Duration::from_millis(1));
                return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "poll"));
            }
            let n = (self.bytes.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// THE liveness trap this header exists for: a corrupted length
    /// prefix that still passes the cap check. Without the guard the
    /// reader would commit to a payload that never arrives and eat
    /// every later frame on the stream as its bytes — with a chatty
    /// peer (heartbeats!) the read keeps making "progress", so not
    /// even an idle-based stall detector fires, and the link looks
    /// healthy until the death window expires. The guard word turns
    /// it into an immediate typed header error, zero payload bytes
    /// read.
    #[test]
    fn corrupted_length_prefix_is_caught_at_the_header() {
        for flip in [3usize, 7] {
            // a high bit of the length word, then of the guard word
            let mut bytes = encode_frame(&Frame::Hello { rank: 1 });
            bytes[flip] ^= 0x01;
            let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
            let guard = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
            assert!(len < MAX_FRAME_LEN, "test wants a cap-passing length");
            let mut cur = Cursor::new(bytes);
            assert_eq!(
                read_wire::<Frame>(&mut cur, &no_stop()),
                Err(FrameError::HeaderCorrupt { len, guard }),
                "flipped byte {flip}"
            );
            // and the reader is still positioned right after the
            // header: no payload byte was consumed
            assert_eq!(cur.position(), HEADER_LEN as u64);
        }
    }

    /// A connection that goes silent *mid-frame* (partition between
    /// two TCP segments) must fail typed (`Stalled`) within the idle
    /// limit — the header is intact, so only the clock can see this.
    #[test]
    fn mid_frame_silence_stalls_typed() {
        let full = encode_frame(&Frame::Done {
            rank: 2,
            result: vec![7; 64],
        });
        let wanted = full.len();
        let cut = HEADER_LEN + 10; // header intact, payload unfinished
        let mut stream = StallingRead {
            bytes: full[..cut].to_vec(),
            pos: 0,
        };
        let started = Instant::now();
        let limit = Some(Duration::from_millis(50));
        let err =
            read_raw(&mut stream, &no_stop(), limit, &mut Vec::new()).expect_err("must not decode");
        assert_eq!(err, FrameError::Stalled { got: cut, wanted });
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "stall detection took too long: {:?}",
            started.elapsed()
        );
    }

    /// An idle link between frames is healthy: the stalling reader must
    /// wait patiently (bounded here by the stop flag), not time out.
    #[test]
    fn idle_between_frames_is_not_a_stall() {
        struct IdleThenStop<'a> {
            polls: u32,
            stop: &'a AtomicBool,
        }
        impl Read for IdleThenStop<'_> {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                self.polls += 1;
                if self.polls > 100 {
                    self.stop.store(true, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(1));
                Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "poll"))
            }
        }
        let stop = no_stop();
        let mut stream = IdleThenStop {
            polls: 0,
            stop: &stop,
        };
        // 100 polls × 1 ms of pre-frame idle is far beyond the 5 ms
        // idle limit; only the stop flag may end the wait
        let limit = Some(Duration::from_millis(5));
        let err =
            read_raw(&mut stream, &stop, limit, &mut Vec::new()).expect_err("nothing to read");
        assert_eq!(err, FrameError::Stopped);
    }
}
