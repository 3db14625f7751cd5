//! The raw link: a process world over Unix domain sockets.
//!
//! A Unix socket on one machine never loses or reorders data, so a
//! frame is simply written to the stream and a broken stream *is* a
//! dead peer: clean EOF, mid-frame EOF or a corrupt frame on a rank's
//! connection declares that rank dead on the spot. The supervisor, the
//! worker runtime, the liveness rules and the [`Spawn`] record a worker
//! starts from are [`super::process`]; this file is only how a frame
//! reaches the peer — the listener (its path is the record's `addr`)
//! and the connect, and one reader thread per rank on the supervisor,
//! which writes a `Msg` on to its destination as the bytes that arrived.
//! A message is in one buffer per process: the sender seals the buffer
//! its value was encoded into, the supervisor's reader reuses one, and
//! the destination decodes in the buffer it read into.

use super::frame::{check, encode_frame, read_raw, read_wire_timeout, seal, Frame, FrameError};
use super::process::{self, Links, Spawn, Supervisor, Uplink, Worker, CONNECT_TIMEOUT, READ_POLL};
use super::SocketOptions;
use crate::{plock, WorldError};
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ----------------------------------------------------------------------
// supervisor side
// ----------------------------------------------------------------------

/// The write half of each rank's connection, written under its lock by
/// the reader that relays a message and by the monitor. `None` before
/// the rank connected and once retired.
pub(super) struct RawLinks {
    streams: Vec<Mutex<Option<UnixStream>>>,
}

impl RawLinks {
    fn new(size: usize) -> Self {
        RawLinks {
            streams: (0..size).map(|_| Mutex::new(None)).collect(),
        }
    }
}

impl Links for RawLinks {
    /// Write the sealed frame to `rank`. This cannot wedge the star:
    /// every worker's reader drains its socket unconditionally into an
    /// unbounded inbox, so the write waits only on a live reader, and
    /// fails at once (EPIPE) on a dead process — left to that rank's own
    /// reader, which sees the same dead connection.
    fn send(&self, rank: usize, frame: &[u8]) {
        if let Some(stream) = plock(&self.streams[rank]).as_mut() {
            let _ = stream.write_all(frame);
        }
    }

    fn retire(&self, rank: usize) {
        plock(&self.streams[rank]).take();
    }
}

/// Reader loop for one child connection: hands every frame to
/// [`Supervisor::on_raw`], and turns an unexpected EOF or corrupt frame
/// into a peer-death abort.
///
/// A `Msg` frame is forwarded as the bytes that arrived, not decoded
/// and rebuilt: the CRC has been verified over them, and
/// [`check`] checks the rest of what a decode would. The header CRC
/// the destination verifies is therefore still the sender's.
fn reader_loop(sup: &Supervisor<RawLinks>, rank: usize, stream: &mut UnixStream) {
    let mut buf = Vec::new();
    loop {
        match read_raw(stream, &sup.stop, None, &mut buf).and_then(|()| check(&buf)) {
            Ok(checked) => {
                if !sup.on_raw(rank, &buf, checked) {
                    return;
                }
            }
            Err(FrameError::Stopped) => return,
            Err(e) => {
                if !sup.is_terminal(rank) {
                    let reason = match &e {
                        FrameError::Eof | FrameError::TruncatedEof { .. } => {
                            format!("rank {rank} process died: {e}")
                        }
                        _ => format!("rank {rank} transport corrupted: {e}"),
                    };
                    sup.declare_dead(rank, reason);
                }
                return;
            }
        }
    }
}

/// Accept one identified connection per rank until `deadline`, then
/// start a reader thread for each. Returns the ranks that never
/// connected.
fn accept_workers(
    listener: &UnixListener,
    sup: &Arc<Supervisor<RawLinks>>,
    deadline: Instant,
    threads: &mut Vec<JoinHandle<()>>,
) -> Vec<usize> {
    let size = sup.size;
    let mut streams: Vec<Option<UnixStream>> = (0..size).map(|_| None).collect();
    let mut connected = 0usize;
    while connected < size && Instant::now() < deadline {
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream
                    .set_read_timeout(Some(READ_POLL))
                    .expect("read timeout");
                let left = deadline.saturating_duration_since(Instant::now());
                match read_wire_timeout(&mut stream, left) {
                    Ok(Frame::Hello { rank }) if (rank as usize) < size => {
                        let r = rank as usize;
                        if streams[r].is_none() {
                            sup.beat(r);
                            streams[r] = Some(stream);
                            connected += 1;
                        }
                    }
                    _ => { /* not a proper worker; drop the stream */ }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("accept on the supervisor socket: {e}"),
        }
    }
    if connected < size {
        return (0..size).filter(|&r| streams[r].is_none()).collect();
    }

    // Register EVERY rank's write half before spawning ANY reader
    // thread: a reader immediately relays frames to peers, and a write
    // to a rank not yet registered is silently dropped — interleaving
    // registration with reader spawns loses early frames to high ranks
    // (a rare, load-dependent hang).
    for (slot, stream) in sup.links.streams.iter().zip(&streams) {
        *plock(slot) = Some(
            stream
                .as_ref()
                .expect("all connected")
                .try_clone()
                .expect("clone stream"),
        );
    }
    for (rank, stream) in streams.into_iter().enumerate() {
        let (sup, mut stream) = (Arc::clone(sup), stream.expect("all connected"));
        threads.push(
            std::thread::Builder::new()
                .name(format!("sock-read-{rank}"))
                .spawn(move || reader_loop(&sup, rank, &mut stream))
                .expect("spawn reader"),
        );
    }
    Vec::new()
}

/// Unique-per-call socket path in the system temp directory.
fn socket_path() -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("quadforest-{}-{n}.sock", std::process::id()))
}

/// Run `spawn`'s program across worker processes over a Unix domain
/// socket, which the workers find at the record's `addr`.
pub(crate) fn run_world(
    mut spawn: Spawn,
    sock: &SocketOptions,
) -> Result<Vec<Vec<u8>>, WorldError> {
    let path = socket_path();
    let _ = std::fs::remove_file(&path);
    let listener =
        UnixListener::bind(&path).unwrap_or_else(|e| panic!("bind socket {}: {e}", path.display()));
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    spawn.addr = path.display().to_string();
    let result = process::run_world(
        &spawn,
        sock,
        RawLinks::new(spawn.size),
        |sup, deadline, threads| accept_workers(&listener, sup, deadline, threads),
    );
    let _ = std::fs::remove_file(&path);
    result
}

// ----------------------------------------------------------------------
// worker (child) side
// ----------------------------------------------------------------------

/// The worker's end of the raw link: the write half of its one
/// connection (heartbeat and rank threads share it).
pub(super) struct RawUplink {
    writer: Mutex<UnixStream>,
}

impl Uplink for RawUplink {
    /// Connect with retry: the supervisor binds before spawning, but be
    /// tolerant of slow filesystems.
    fn open(spawn: &Spawn) -> Result<Self, String> {
        let deadline = Instant::now() + CONNECT_TIMEOUT;
        loop {
            match UnixStream::connect(&spawn.addr) {
                Ok(stream) => {
                    return Ok(RawUplink {
                        writer: Mutex::new(stream),
                    })
                }
                Err(e) if Instant::now() >= deadline => return Err(e.to_string()),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    fn start(worker: &Arc<Worker<Self>>, threads: &mut Vec<JoinHandle<()>>) -> Result<(), String> {
        let mut stream = plock(&worker.up.writer)
            .try_clone()
            .map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(READ_POLL))
            .map_err(|e| e.to_string())?;
        let hello = encode_frame(&Frame::Hello {
            rank: worker.rank as u64,
        });
        if plock(&worker.up.writer).write_all(&hello).is_err() {
            return Err("connection closed before the Hello".into());
        }
        // reader thread: feeds the inbox, converts a lost supervisor
        // into an abort
        let name = format!("rank-{}-reader", worker.rank);
        let worker = Arc::clone(worker);
        let reader = move || {
            let mut buf = Vec::new();
            loop {
                let read = read_raw(&mut stream, &worker.stop, None, &mut buf);
                match read.and_then(|()| check(&buf)) {
                    Ok(checked) => worker.on_raw(&mut buf, 0, checked),
                    Err(FrameError::Stopped) => return,
                    Err(e) => {
                        let why = format!("connection to supervisor lost: {e}");
                        return worker.local_abort(usize::MAX, why);
                    }
                }
            }
        };
        threads.push(
            std::thread::Builder::new()
                .name(name)
                .spawn(reader)
                .expect("spawn reader"),
        );
        Ok(())
    }

    /// Seal the frame in the buffer it was encoded into and write it.
    fn send(&self, frame: &mut Vec<u8>) -> bool {
        seal(frame);
        plock(&self.writer).write_all(frame).is_ok()
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::frame::{decode_raw, encode_with, msg_route, tests::read_frame, HEADER_LEN};
    use super::*;
    use crate::{CommError, RankError};
    use quadforest_core::Wire;
    use std::io::Read;
    use std::sync::atomic::AtomicBool;

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

    /// Every frame written to the peer of `stream` so far, as the bytes
    /// that arrived.
    fn written(stream: &mut UnixStream) -> Vec<Vec<u8>> {
        stream.set_nonblocking(true).expect("nonblocking");
        let mut bytes = Vec::new();
        let _ = stream.read_to_end(&mut bytes); // `WouldBlock` once drained
        let (mut rest, stop) = (bytes.as_slice(), AtomicBool::new(false));
        let mut frames = Vec::new();
        while !rest.is_empty() {
            let mut frame = Vec::new();
            read_raw(&mut rest, &stop, None, &mut frame).expect("a whole frame");
            frames.push(frame);
        }
        frames
    }

    /// Rank 0 of a two-rank world writes `stream` and hangs up; run the
    /// supervisor's reader over it. Returns the supervisor and every
    /// frame it wrote to rank 1.
    fn route(stream: &[u8]) -> (Supervisor<RawLinks>, Vec<Vec<u8>>) {
        let router = Supervisor::new(2, RawLinks::new(2));
        let (rank1, mut rank1_reads) = UnixStream::pair().expect("socket pair");
        *plock(&router.links.streams[1]) = Some(rank1);
        let (mut ours, mut theirs) = UnixStream::pair().expect("socket pair");
        theirs.write_all(stream).expect("fits the socket buffer");
        drop(theirs);
        reader_loop(&router, 0, &mut ours);
        router.links.retire(1);
        (router, written(&mut rank1_reads))
    }

    /// The reader declared rank 0 dead for `reason`, and rank 1 was sent
    /// the abort and nothing else.
    fn assert_dead_unforwarded(stream: &[u8], reason: &str) {
        let (router, queued) = route(stream);
        let abort = router.abort.get().expect("world aborted");
        assert_eq!((abort.origin, abort.reason.as_str()), (0, reason));
        match &plock(&router.results)[0] {
            Some(Err(RankError::Failed(CommError::PeerFailed { rank: 0, reason: r }))) => {
                assert_eq!(r, reason)
            }
            other => panic!("rank 0 outcome: {other:?}"),
        }
        for bytes in queued {
            let frame = read_frame(&mut bytes.as_slice(), &router.stop);
            assert!(
                matches!(frame, Ok(Frame::Abort { origin: 0, .. })),
                "{frame:?}"
            );
        }
    }

    #[test]
    fn raw_links_carry_the_supervisor_contract() {
        let inboxes = std::cell::RefCell::new(Vec::new());
        process::tests::check_supervisor_contract(
            |size| {
                let links = RawLinks::new(size);
                *inboxes.borrow_mut() = (links.streams.iter())
                    .map(|slot| {
                        let (ours, theirs) = UnixStream::pair().expect("socket pair");
                        *plock(slot) = Some(ours);
                        theirs
                    })
                    .collect();
                links
            },
            |_, rank| {
                let queued = written(&mut inboxes.borrow_mut()[rank]);
                (queued.iter())
                    .map(|bytes| decode_raw(bytes).expect("a whole frame"))
                    .collect()
            },
        );
    }

    #[test]
    fn router_forwards_the_senders_bytes_verbatim() {
        let other = encode_frame(&Frame::Msg {
            src: 0,
            dst: 1,
            tag: 9,
            type_tag: 1,
            bytes: 0,
            data: vec![0xA5; 3000],
        });
        let done = encode_frame(&Frame::Done {
            rank: 0,
            result: vec![7],
        });
        let (router, queued) = route(&[&MSG_0_TO_1[..], &other, &done].concat());
        assert_eq!(queued, [MSG_0_TO_1.to_vec(), other]);
        assert!(router.abort.get().is_none());
        assert!(matches!(&plock(&router.results)[0], Some(Ok(r)) if r == &[7]));
    }

    #[test]
    fn router_rejects_corrupt_routes_without_forwarding() {
        assert_dead_unforwarded(
            &encode_frame(&msg(1, 1)),
            "rank 0 sent a corrupt route (src=1 dst=1, size 2)",
        );
        assert_dead_unforwarded(
            &encode_frame(&msg(0, 2)),
            "rank 0 sent a corrupt route (src=0 dst=2, size 2)",
        );
    }

    #[test]
    fn router_rejects_a_data_length_that_disagrees_with_the_frame() {
        // correctly framed and summed, so only the route check can object
        let reframed = |data_len: u8| {
            let mut payload = MSG_0_TO_1[HEADER_LEN..].to_vec();
            payload[41] = data_len;
            encode_with(|out| out.extend_from_slice(&payload))
        };
        assert_dead_unforwarded(
            &reframed(3),
            "rank 0 transport corrupted: frame payload decode failed: \
             1 trailing byte(s) after a complete value",
        );
        assert_dead_unforwarded(
            &reframed(5),
            "rank 0 transport corrupted: frame payload decode failed: \
             invalid encoding: sequence claims 5 elements but only 4 bytes remain",
        );
    }

    #[test]
    fn router_catches_a_payload_bit_flipped_on_the_way_in() {
        let mut bytes = MSG_0_TO_1;
        bytes[64] ^= 0x10;
        assert_dead_unforwarded(
            &bytes,
            "rank 0 transport corrupted: \
             frame CRC mismatch (header 0xeeacd82d, payload 0xf31bc849)",
        );
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
}
