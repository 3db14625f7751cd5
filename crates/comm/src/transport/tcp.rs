//! The process link: a reliable session over a connected byte stream,
//! a Unix socket ([`Backend::Sockets`]) or a TCP connection
//! ([`Backend::Tcp`]) — the one thing the two backends differ in
//! ([`Stream`], [`Listener`]). The supervisor, the worker runtime and
//! the liveness rules are [`super::process`].
//!
//! [`Session`] is the protocol, as pure data: every frame travels in a
//! [`TcpPacket::Data`] envelope with a per-direction sequence number
//! and a cumulative ack; a receiver delivers in order exactly once, and
//! a gap breaks the link. This file is its driver. A broken link (gap,
//! CRC mismatch, decode error, EOF, reset, stall) is not a failure: the
//! worker's link thread reconnects on [`RECONNECT`]'s backoff, the
//! `Hello` / `HelloAck` handshake swaps receive cursors, and each end's
//! next write replays what the other lacks. Only the supervisor's
//! liveness rules kill a rank. Resumptions, gaps and read errors count in
//! `transport.reconnects`, `comm.tcp.seq_gaps` and
//! `comm.tcp.link_errors` of the process's global registry.
//!
//! One buffer per hop: a frame buffer keeps [`FRAME_AT`] bytes of room
//! behind its header, so a `Data` packet is the frame buffer, stamped
//! and sealed in place, and the retransmit queue holds that buffer
//! until it is acked; whoever lets it go last, the ack or the writer,
//! hands it to the process's [`Spares`]. The
//! supervisor relays a `Msg` in the buffer it read, restamped for the
//! next hop ([`restamp`]). Every sequenced packet and every ping leaves
//! through the link's write turn, in sequence order, one writer at a
//! time, a replay first, so the supervisor's [`TcpPacket::Ping`] (its
//! next send sequence) is a sound gap probe.
//!
//! [`Backend::Sockets`]: super::Backend::Sockets
//! [`Backend::Tcp`]: super::Backend::Tcp

use super::frame::{
    check, decode_raw, encode_wire, read_raw_into, read_wire_timeout, seal, Frame, FrameError,
    HEADER_LEN, HEARTBEAT,
};
use super::process::{count, LinkKind, Spawn, Supervisor, Worker, CONNECT_TIMEOUT, READ_POLL};
use super::session::{Receipt, Session};
use crate::fault::{NetFaults, WriteFault};
use crate::{plock, RecoveryPolicy};
use quadforest_core::crc::{crc32, crc32_combine};
use quadforest_core::Wire;
use std::borrow::Cow;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reconnect schedule after a broken connection: bounded exponential
/// backoff with deterministic jitter. When it is exhausted the rank
/// gives up and the supervisor's heartbeat window escalates to a real
/// `PeerFailed`. A constant: no caller varies it.
const RECONNECT: RecoveryPolicy = RecoveryPolicy {
    max_attempts: 12,
    base_delay: Duration::from_millis(10),
    max_delay: Duration::from_millis(500),
    jitter_ppm: 200_000,
};

/// Bound on a single blocking write (a wedged peer's full send buffer
/// must surface as a link break, not a deadlock).
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);
/// How long each side waits for the other half of the handshake.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_millis(500);
/// Mid-frame progress deadline on session reads: a frame's bytes are
/// written back-to-back, so a gap this long inside one means the
/// connection went dark; the link breaks and the replay resynchronizes.
const FRAME_STALL: Duration = Duration::from_millis(250);
/// How long a finished worker waits for its terminal frame to be
/// acked before giving up and exiting anyway.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// The session envelope around the [`Frame`] protocol.
#[derive(Clone, Debug, PartialEq)]
enum TcpPacket {
    /// First packet on every (re)connection, worker → supervisor.
    /// `resume` is the worker's receive cursor: the next supervisor
    /// sequence number it has not yet delivered.
    Hello { rank: u64, resume: u64 },
    /// Handshake reply, supervisor → worker, mirroring `resume`.
    HelloAck { resume: u64 },
    /// A sequenced frame. `ack` is the sender's receive cursor, so
    /// every data packet doubles as a cumulative acknowledgement.
    Data { seq: u64, ack: u64, frame: Frame },
    /// Unsequenced supervisor → worker probe from the monitor sweep.
    /// `sent` is the supervisor's next send sequence: a worker whose
    /// receive cursor lags it has missed frames and must reconnect.
    Ping { ack: u64, sent: u64 },
}

/// Wire discriminant of [`TcpPacket::Data`].
const DATA: u8 = 2;

/// Where a `Data` packet's frame starts in the packet's buffer: `DATA`,
/// `seq` and `ack` lie between the packet's header and the frame's
/// payload, so `packet[FRAME_AT..]` is a frame buffer (whose header
/// bytes are not its own). A frame buffer keeps this much room in front
/// of its header for them.
pub(super) const FRAME_AT: usize = 17;

/// A packet buffer holding `frame`, ready for [`Link::send_data`].
pub(super) fn packet(frame: &Frame) -> Vec<u8> {
    let mut packet = vec![0; FRAME_AT + HEADER_LEN];
    frame.encode(&mut packet);
    packet
}

/// Stamp a packet buffer as [`TcpPacket::Data`] around the frame it
/// holds at [`FRAME_AT`], and seal it.
fn seal_data(packet: &mut [u8], seq: u64, ack: u64) {
    packet[HEADER_LEN] = DATA;
    packet[HEADER_LEN + 1..][..8].copy_from_slice(&seq.to_le_bytes());
    packet[HEADER_LEN + 9..][..8].copy_from_slice(&ack.to_le_bytes());
    seal(packet);
}

/// Below this many bytes behind the stamps a fresh seal is cheaper
/// than mending the CRC (the crossover measured in EXPERIMENTS.md, "One
/// process link").
const RESTAMP_MIN: usize = 16 << 10;

/// Restamp a sealed `Data` packet with another `seq` and `ack`, and
/// mend its CRC without a pass over the payload: CRC-32 is linear, so
/// the new CRC is the old one plus the CRC of the stamps' XOR carried
/// across the `n` bytes behind them ([`crc32_combine`], O(log n)). A
/// short packet is sealed afresh.
fn restamp(packet: &mut [u8], seq: u64, ack: u64) {
    let n = packet.len() - HEADER_LEN - FRAME_AT;
    if n < RESTAMP_MIN {
        return seal_data(packet, seq, ack);
    }
    let stamps = HEADER_LEN + 1..HEADER_LEN + FRAME_AT;
    let mut delta: Vec<u8> = packet[stamps.clone()].to_vec();
    let new = [seq.to_le_bytes(), ack.to_le_bytes()].concat();
    delta.iter_mut().zip(&new).for_each(|(d, n)| *d ^= n);
    packet[stamps].copy_from_slice(&new);
    let linear = crc32(&delta) ^ crc32(&[0; 16]); // CRC without its offsets
    let old = u32::from_le_bytes(packet[8..12].try_into().expect("4 bytes"));
    let crc = old ^ crc32_combine(linear, 0, n);
    packet[8..12].copy_from_slice(&crc.to_le_bytes());
}

/// Whether a framed packet is a `Data` packet carrying anything but a
/// heartbeat: only those count towards the chaos plan's scheduled
/// (reset, partition) frame indices, so the heartbeat cadence cannot
/// shift them.
fn is_data(packet: &[u8]) -> bool {
    packet[HEADER_LEN] == DATA && packet[HEADER_LEN + FRAME_AT] != HEARTBEAT
}

/// A packet as a reader takes it: a `Data` packet's `seq` and `ack`
/// read at their offsets, its frame left in the buffer at [`FRAME_AT`];
/// any other packet decoded.
enum Inbound {
    Data { seq: u64, ack: u64 },
    Other(TcpPacket),
}

impl Inbound {
    /// Take one packet [`read_raw`] read. A `Data` packet's frame is
    /// [`check`]ed where it lies, so one that a decode would reject
    /// breaks the link before the session moves; what the check made of
    /// it comes back beside the packet (`None` beside any other packet).
    fn parse(packet: &[u8]) -> Result<(Inbound, Option<Frame>), FrameError> {
        if packet.len() < HEADER_LEN + FRAME_AT || packet[HEADER_LEN] != DATA {
            return Ok((Inbound::Other(decode_raw(packet)?), None));
        }
        let field = |at: usize| u64::from_le_bytes(packet[at..at + 8].try_into().expect("8 bytes"));
        let (seq, ack) = (field(HEADER_LEN + 1), field(HEADER_LEN + 9));
        Ok((Inbound::Data { seq, ack }, check(&packet[FRAME_AT..])?))
    }
}

quadforest_core::wire!(enum TcpPacket {
    0 => Hello { rank, resume },
    1 => HelloAck { resume },
    DATA => Data { seq, ack, frame },
    3 => Ping { ack, sent },
});

/// Below this a buffer comes from the allocator's free lists, not from
/// fresh pages, and is not worth keeping.
const REUSE_MIN: usize = 64 << 10;

/// Spent buffers of at least [`REUSE_MIN`] bytes, at most four, kept to
/// encode or read the next big message into, so a steady exchange takes
/// no fresh pages. A sent packet is shared by the retransmit queue and
/// the writer writing it: whoever drops the last reference — the ack's
/// [`Link::reclaim`] or the writer, whichever comes second — puts the
/// buffer back ([`Spares::release`]). A received one comes back when its
/// receiver has decoded it. A process's links share one.
#[derive(Default)]
pub(super) struct Spares(Mutex<Vec<Vec<u8>>>);

impl Spares {
    /// A buffer to fill: a kept one when there is one.
    pub(super) fn take(&self) -> Vec<u8> {
        plock(&self.0).pop().unwrap_or_default()
    }

    pub(super) fn put(&self, buf: Vec<u8>) {
        let mut spares = plock(&self.0);
        if buf.capacity() >= REUSE_MIN && spares.len() < 4 {
            spares.push(buf);
        }
    }

    /// Put `packet` back unless another reference is still out: of
    /// every holder that releases it, exactly one gets the buffer.
    fn release(&self, packet: Arc<Vec<u8>>) {
        if let Some(buf) = Arc::into_inner(packet) {
            self.put(buf);
        }
    }

    /// `buf`, to hold in a queue: a small packet in a big buffer is
    /// copied out and the buffer kept, so no queue holds a big buffer
    /// for a few bytes.
    fn keep(&self, buf: Vec<u8>) -> Vec<u8> {
        if buf.len() >= REUSE_MIN || buf.capacity() < REUSE_MIN {
            return buf;
        }
        let copy = buf.clone();
        self.put(buf);
        copy
    }

    /// The packet a reader read into `raw`, to hold in a queue or an
    /// inbox: a big one in that buffer, which the reader replaces with
    /// a spare before its next read; a small one copied out.
    pub(super) fn take_packet(raw: &mut Vec<u8>) -> Vec<u8> {
        match raw.len() >= REUSE_MIN {
            true => std::mem::take(raw),
            false => raw.clone(),
        }
    }
}

/// A connected stream of either kind.
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    /// Short read polls (readers check their stop flag), bounded writes,
    /// and no small-packet delay on TCP.
    fn configured(self) -> io::Result<Stream> {
        let (read, write) = (Some(READ_POLL), Some(WRITE_TIMEOUT));
        match &self {
            Stream::Unix(s) => s.set_read_timeout(read).and(s.set_write_timeout(write)),
            Stream::Tcp(s) => (s.set_nodelay(true))
                .and(s.set_read_timeout(read))
                .and(s.set_write_timeout(write)),
        }?;
        Ok(self)
    }

    fn connect(kind: LinkKind, addr: &str) -> io::Result<Stream> {
        match kind {
            LinkKind::Unix => Stream::Unix(UnixStream::connect(addr)?),
            LinkKind::Tcp => Stream::Tcp(TcpStream::connect(addr)?),
        }
        .configured()
    }

    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    fn shutdown(&self) {
        let _ = match self {
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
        };
    }
}

impl Read for &Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => (&*s).read(buf),
            Stream::Tcp(s) => (&*s).read(buf),
        }
    }
}

impl Write for &Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => (&*s).write(buf),
            Stream::Tcp(s) => (&*s).write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Where the supervisor accepts its workers' connections and
/// reconnections: a fresh socket path in the temp directory (removed
/// with the listener), or an ephemeral port on `127.0.0.1`.
pub(super) enum Listener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    /// Listen on a fresh address of `kind`; returns the listener and
    /// the address a worker connects to.
    pub(super) fn bind(kind: LinkKind) -> (Listener, String) {
        match kind {
            LinkKind::Unix => {
                static COUNTER: AtomicU64 = AtomicU64::new(0);
                let n = COUNTER.fetch_add(1, Ordering::Relaxed);
                let name = format!("quadforest-{}-{n}.sock", std::process::id());
                let path = std::env::temp_dir().join(name);
                let _ = std::fs::remove_file(&path);
                let l = UnixListener::bind(&path);
                let l = l.unwrap_or_else(|e| panic!("bind socket {}: {e}", path.display()));
                let addr = path.display().to_string();
                (Listener::Unix(l, path), addr)
            }
            LinkKind::Tcp => {
                let l = TcpListener::bind(("127.0.0.1", 0));
                let l = l.unwrap_or_else(|e| panic!("bind tcp listener on loopback: {e}"));
                let addr = l.local_addr().expect("listener addr").to_string();
                (Listener::Tcp(l), addr)
            }
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l, _) => Stream::Unix(l.accept()?.0),
            Listener::Tcp(l) => Stream::Tcp(l.accept()?.0),
        }
        .configured()
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One endpoint's link: the [`Session`] over the packet buffers it sent,
/// and the connection it runs on.
#[derive(Default)]
struct LinkState {
    /// The live connection, `None` while broken/reconnecting. A writer
    /// keeps a handle of its own while it writes outside the lock.
    stream: Option<Arc<Stream>>,
    /// Bumped on every install *and* break, so a reader or writer that
    /// raced a reconnect cannot break the successor connection.
    epoch: u64,
    /// What an install found the peer lacks, owed to its connection
    /// ahead of the next write in turn.
    owed: Vec<Arc<Vec<u8>>>,
    /// Readers still on this link's connections (see [`Link::is_up`]).
    readers: usize,
    /// A queued packet is shared with the writer that is writing it.
    session: Session<Arc<Vec<u8>>>,
    /// Terminal: no reconnects, sends become no-ops.
    dead: bool,
    /// Whether this link ever completed a handshake.
    connected_once: bool,
}

/// A session-layer link endpoint: state + wakeup for the handshake and
/// drain waiters, and the spares its acked buffers go back to. Both
/// ends of a connection run the same one; only the worker's has a chaos
/// interposer to pass in.
#[derive(Default)]
pub(super) struct Link {
    state: Mutex<LinkState>,
    /// The write turn on the stream: taken before the state lock and
    /// kept, without it, until the write is done. So writes leave in the
    /// order their packets were sequenced — what makes `Ping::sent` a
    /// sound gap probe — and no one waits for a write while holding the
    /// state: a reader's session step never waits on a writer.
    turn: Mutex<()>,
    cv: Condvar,
    pub(super) spares: Arc<Spares>,
}

/// The supervisor's links, one per rank, sharing one pool of spares: a
/// buffer one rank's reader read is acked by the rank it was relayed to.
pub(super) fn links(size: usize) -> Vec<Link> {
    let spares = Arc::new(Spares::default());
    (0..size)
        .map(|_| Link {
            spares: Arc::clone(&spares),
            ..Link::default()
        })
        .collect()
}

impl Link {
    /// Block until `ready` holds of the state, re-checking at least
    /// every `poll` (for conditions no wakeup announces: a deadline).
    fn wait(
        &self,
        poll: Duration,
        mut ready: impl FnMut(&LinkState) -> bool,
    ) -> MutexGuard<'_, LinkState> {
        let mut st = plock(&self.state);
        while !ready(&st) {
            st = self
                .cv
                .wait_timeout(st, poll)
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
        st
    }

    /// Sever the connection (if any), cancel its replay (the next install
    /// owes it again) and wake waiters. The epoch bump invalidates every
    /// thread still holding the old connection.
    fn break_link_locked(&self, st: &mut LinkState) {
        if let Some(s) = st.stream.take() {
            s.shutdown();
        }
        st.epoch += 1;
        for packet in st.owed.drain(..) {
            self.spares.release(packet);
        }
        self.cv.notify_all();
    }

    /// Terminal: sever the connection and refuse every later send and
    /// reconnect.
    pub(super) fn retire(&self) {
        let mut st = plock(&self.state);
        st.dead = true;
        self.break_link_locked(&mut st);
    }

    /// Whether a connection is installed or a reader is still on one:
    /// once neither holds, every packet read off the link is delivered.
    pub(super) fn is_up(&self) -> bool {
        let st = plock(&self.state);
        st.stream.is_some() || st.readers > 0
    }

    /// Wait until the link's first handshake completes, the link is
    /// retired, or `deadline` passes: whether it connected.
    pub(super) fn connects_by(&self, deadline: Instant) -> bool {
        let poll = Duration::from_millis(100);
        let ready = |st: &LinkState| st.connected_once || st.dead || Instant::now() >= deadline;
        self.wait(poll, ready).connected_once
    }

    /// The one way a packet leaves: write `bytes` through the chaos plan
    /// (`chaos`: the worker's interposer, `None` on the supervisor) on
    /// the connection `st` holds, in `turn`, which was taken before `st`:
    /// `st` is released before the write, `turn` after it. The packets
    /// an install owes go first, as they were sealed (an `ack` older than
    /// the cursor is still a cumulative ack). A failed write breaks that
    /// connection, unless a reconnect has already replaced it.
    fn write_in_turn(
        &self,
        (turn, mut st): (MutexGuard<'_, ()>, MutexGuard<'_, LinkState>),
        bytes: &[u8],
        chaos: Option<&NetFaults>,
    ) {
        let (stream, epoch) = (st.stream.clone(), st.epoch);
        let owed = std::mem::take(&mut st.owed);
        drop(st);
        let intact = (owed.iter().map(|packet| packet.as_slice()))
            .chain([bytes])
            .all(|packet| write_planned(stream.as_deref(), packet, chaos));
        drop(turn);
        for packet in owed {
            self.spares.release(packet);
        }
        if !intact {
            let mut st = plock(&self.state);
            if st.epoch == epoch {
                self.break_link_locked(&mut st);
            }
        }
    }

    /// Sequence, queue, and (when connected) write one packet buffer,
    /// stamped and sealed in place.
    pub(super) fn send_data(&self, packet: Vec<u8>, chaos: Option<&NetFaults>) {
        self.sequence(self.spares.keep(packet), seal_data, chaos);
    }

    /// Relay a `Data` packet another link read into `raw`, its CRC
    /// checked: restamped for this link in the buffer it was read into,
    /// the reader going on with a spare.
    pub(super) fn relay(&self, raw: &mut Vec<u8>) {
        self.sequence(Spares::take_packet(raw), restamp, None);
    }

    /// Sequence, queue, and (when connected) write a packet buffer that
    /// `stamp` stamps with the next `seq` and the receive cursor.
    fn sequence(&self, packet: Vec<u8>, stamp: fn(&mut [u8], u64, u64), chaos: Option<&NetFaults>) {
        let mut packet = Arc::new(packet);
        let turn = plock(&self.turn);
        let mut st = plock(&self.state);
        if st.dead {
            return;
        }
        // seal before the session moves: an over-cap frame panics here
        let unshared = Arc::get_mut(&mut packet).expect("a packet not yet queued");
        stamp(unshared, st.session.send_seq, st.session.recv_next);
        st.session.sequence(Arc::clone(&packet));
        // disconnected: queued for retransmit (the chaos plan still
        // counts the frame)
        self.write_in_turn((turn, st), &packet, chaos);
        // acked while it was written: the last reference is this one
        self.spares.release(packet);
    }

    /// Supervisor-side probe: ack what we have, advertise what we sent.
    pub(super) fn send_ping(&self) {
        let turn = plock(&self.turn);
        let st = plock(&self.state);
        if st.stream.is_some() {
            let bytes = encode_wire(&TcpPacket::Ping {
                ack: st.session.recv_next,
                sent: st.session.send_seq,
            });
            self.write_in_turn((turn, st), &bytes, None);
        }
    }

    /// Hand the buffers the peer's `ack` covers back to the spares
    /// (the session's own prune then finds them gone); one a writer is
    /// still writing goes back when that writer lets it go.
    fn reclaim(&self, session: &mut Session<Arc<Vec<u8>>>, ack: u64) {
        let acked = session
            .sent
            .iter()
            .take_while(|(seq, _)| *seq < ack)
            .count();
        for (_, packet) in session.sent.drain(..acked) {
            self.spares.release(packet);
        }
    }

    /// Carry out the session's decision on one packet read off the
    /// connection of `epoch`: true for a `Data` frame to deliver; break
    /// the link on a gap — a `Data` past the receive cursor, or a `Ping`
    /// whose `sent` is past it (the reconnect replay resynchronizes). A
    /// packet from a connection a reconnect has superseded is ignored,
    /// `ack` included.
    fn on_packet(&self, epoch: u64, packet: Inbound) -> bool {
        let mut st = plock(&self.state);
        if st.epoch != epoch {
            return false;
        }
        let (gap, deliver) = match packet {
            Inbound::Data { seq, ack } => {
                self.reclaim(&mut st.session, ack);
                match st.session.receive(seq, ack) {
                    Receipt::Deliver => (false, true),
                    Receipt::Duplicate => (false, false),
                    Receipt::Gap => (true, false),
                }
            }
            Inbound::Other(TcpPacket::Ping { ack, sent }) => {
                self.reclaim(&mut st.session, ack);
                // the supervisor acks a terminal frame with a ping, so a
                // drain waiter may be done (a wakeup per data packet
                // would cost a syscall per message)
                self.cv.notify_all();
                (st.session.probe(ack, sent), false)
            }
            Inbound::Other(_) => (false, false),
        };
        if gap {
            count("comm.tcp.seq_gaps");
            self.break_link_locked(&mut st);
        }
        deliver
    }

    /// Read packets off the connection of `epoch` until it breaks or
    /// `stop` is set, handing each delivered packet — its frame at
    /// [`FRAME_AT`] — and what [`check`] made of the frame to `deliver`;
    /// both ends run it. The worker's in-direction `chaos` check runs
    /// before any cursor moves, so a packet it eats looks exactly like a
    /// wire loss and heals by retransmission. A failed read breaks the
    /// link (unless a reconnect already replaced that connection) and
    /// never declares a death: liveness stays with the supervisor.
    fn read_packets(
        &self,
        stream: Stream,
        epoch: u64,
        stop: &AtomicBool,
        chaos: Option<&NetFaults>,
        mut deliver: impl FnMut(&mut Vec<u8>, Option<Frame>),
    ) {
        plock(&self.state).readers += 1;
        // a big packet is read into a spare, a small one into a small
        // buffer: a reader holds a spare only while a big packet is in it
        let fit =
            |raw: &mut Vec<u8>, len: usize| match (len >= REUSE_MIN, raw.capacity() >= REUSE_MIN) {
                (true, false) => *raw = self.spares.take(),
                (false, true) => self.spares.put(std::mem::take(raw)),
                _ => {}
            };
        let mut raw = Vec::new();
        loop {
            let read = read_raw_into(&mut &stream, stop, Some(FRAME_STALL), &mut raw, fit);
            match read.and_then(|()| Inbound::parse(&raw)) {
                Ok(_) if chaos.is_some_and(|c| c.drop_inbound()) => {}
                Ok((packet, checked)) => {
                    if self.on_packet(epoch, packet) {
                        deliver(&mut raw, checked);
                    }
                }
                Err(FrameError::Stopped) => break,
                Err(e) => {
                    let mut st = plock(&self.state);
                    if st.epoch == epoch {
                        if !matches!(e, FrameError::Eof) {
                            count("comm.tcp.link_errors");
                        }
                        self.break_link_locked(&mut st);
                    }
                    break;
                }
            }
        }
        self.spares.put(raw);
        plock(&self.state).readers -= 1;
    }

    /// The tail of a (re)connection handshake, the same on both ends,
    /// once this end has written its `Hello` / `HelloAck`: supersede the
    /// old connection, and owe `stream` what the peer's cursor
    /// (`peer_resume`) says it still lacks, for the next write in turn
    /// to send ([`Link::write_in_turn`]). Writes nothing, so it cannot
    /// wait on the peer. Returns the new epoch and whether this resumed
    /// an earlier connection.
    fn install(&self, stream: Stream, peer_resume: u64) -> Result<(u64, bool), String> {
        let mut st = plock(&self.state);
        if st.dead {
            return Err("link already retired".into());
        }
        self.break_link_locked(&mut st);
        self.reclaim(&mut st.session, peer_resume);
        st.owed = (st.session.resume(peer_resume))
            .map(|(_, packet)| Arc::clone(packet))
            .collect();
        let resumed = std::mem::replace(&mut st.connected_once, true);
        st.stream = Some(Arc::new(stream));
        self.cv.notify_all();
        Ok((st.epoch, resumed))
    }
}

/// Write one framed packet through the chaos interposer's plan for it
/// (none on the supervisor). `reset_after` severs the link *after* the
/// write. False when the link must be broken.
fn write_planned(stream: Option<&Stream>, bytes: &[u8], chaos: Option<&NetFaults>) -> bool {
    let fault = chaos
        .map(|c| c.plan_write(bytes.len(), is_data(bytes)))
        .unwrap_or_default();
    stream.is_none_or(|s| apply_write_fault(s, bytes, &fault).is_ok() && !fault.reset_after)
}

/// Write `bytes` to `stream`, filtered through one frame's chaos
/// decisions: delay, silent drop, single-bit corruption, chunked
/// partial writes, bandwidth pacing. `reset_after` is left to the
/// caller.
fn apply_write_fault(mut w: &Stream, bytes: &[u8], fault: &WriteFault) -> io::Result<()> {
    if let Some(d) = fault.delay {
        std::thread::sleep(d);
    }
    if fault.drop || bytes.is_empty() {
        return Ok(());
    }
    let mut buf = Cow::Borrowed(bytes);
    if let Some(bit) = fault.corrupt_bit {
        buf.to_mut()[(bit / 8) % bytes.len()] ^= 1 << (bit % 8);
    }
    let step = match fault.chunks {
        Some(n) if buf.len() > 1 => buf.len().div_ceil(n.clamp(2, buf.len())),
        _ => buf.len(),
    };
    for (i, chunk) in buf.chunks(step).enumerate() {
        if i > 0 {
            std::thread::sleep(Duration::from_micros(50));
        }
        w.write_all(chunk)?;
    }
    Ok(())
}

// ----------------------------------------------------------------------
// supervisor side
// ----------------------------------------------------------------------

/// Handshake one accepted connection: identify the rank, answer with
/// this end's receive cursor, and hand the stream to a fresh reader
/// thread, which installs it and reads: nothing is written to the
/// worker before its reader runs. Then this thread, never the reader,
/// pings the link, so what the install owes leaves at once.
fn handshake_accept(sup: &Arc<Supervisor>, stream: Stream) -> Option<JoinHandle<()>> {
    let hello = read_wire_timeout::<TcpPacket>(&mut &stream, HANDSHAKE_TIMEOUT);
    let Ok(TcpPacket::Hello { rank, resume }) = hello else {
        return None; // not a worker (or its Hello was eaten by chaos)
    };
    let rank = rank as usize;
    if rank >= sup.size || sup.is_terminal(rank) {
        return None; // unknown or already-terminal rank: refuse resurrection
    }
    // read before the install: a cursor behind costs duplicates, no loss
    let ack = TcpPacket::HelloAck {
        resume: plock(&sup.links[rank].state).session.recv_next,
    };
    (&stream).write_all(&encode_wire(&ack)).ok()?;
    let (owner, reader) = (Arc::clone(sup), stream.try_clone().ok()?);
    let (installed, reading) = std::sync::mpsc::channel();
    let thread = std::thread::Builder::new()
        .name(format!("link-read-{rank}"))
        .spawn(move || {
            let Ok((epoch, resumed)) = owner.links[rank].install(stream, resume) else {
                return;
            };
            if resumed {
                count("transport.reconnects");
            }
            owner.beat(rank); // a resumed connection proves the process alive
            let _ = installed.send(());
            read_rank(&owner, rank, reader, epoch);
        })
        .ok()?;
    if reading.recv().is_ok() {
        sup.links[rank].send_ping();
    }
    Some(thread)
}

/// The supervisor's reader of `rank`'s connection of `epoch`: every
/// delivered packet goes to [`Supervisor::on_raw`], which relays a
/// `Msg` in the buffer it arrived in. A terminal frame is acked at
/// once, so the worker's drain wait ends without waiting for the next
/// sweep. (A worker's reader never writes: it drains its stream
/// unconditionally, which is what lets a supervisor reader block on a
/// write to it.)
fn read_rank(sup: &Supervisor, rank: usize, reader: Stream, epoch: u64) {
    let link = &sup.links[rank];
    link.read_packets(reader, epoch, &sup.stop, None, |raw, checked| {
        let last = matches!(checked, Some(Frame::Done { .. } | Frame::Failed { .. }));
        sup.on_raw(rank, raw, checked);
        if last {
            link.send_ping();
        }
    });
}

/// Persistent accept loop: workers connect here both at startup and on
/// every reconnect. Once the world stops, the connection [`wake`] makes
/// ends it, and it joins the readers it started.
pub(super) fn accept_loop(sup: &Arc<Supervisor>, listener: Listener) {
    let mut readers = Vec::new();
    loop {
        let accepted = listener.accept();
        if sup.stop.load(Ordering::Acquire) {
            break;
        }
        match accepted {
            Ok(stream) => readers.extend(handshake_accept(sup, stream)),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    for reader in readers {
        let _ = reader.join();
    }
}

/// Connect to the listener at `addr` once, so that a blocked
/// [`accept_loop`] sees the world's stop flag.
pub(super) fn wake(kind: LinkKind, addr: &str) {
    let _ = Stream::connect(kind, addr);
}

// ----------------------------------------------------------------------
// worker (child) side
// ----------------------------------------------------------------------

/// The worker's end of the link, plus the chaos interposer.
pub(super) struct Uplink {
    kind: LinkKind,
    rank: u64,
    addr: String,
    pub(super) link: Link,
    /// Deterministic network-chaos interposer; `None` when the fault
    /// plan has no network ops.
    chaos: Option<NetFaults>,
}

impl Uplink {
    pub(super) fn new(spawn: &Spawn) -> Uplink {
        Uplink {
            kind: spawn.link,
            rank: spawn.rank as u64,
            addr: spawn.addr.clone(),
            link: Link::default(),
            chaos: spawn
                .faults
                .as_ref()
                .filter(|p| p.net_is_active())
                .map(|p| p.compile_net(spawn.rank)),
        }
    }

    /// One connect + handshake round. On success the stream is
    /// installed; returns its read half and epoch.
    fn try_connect(&self) -> Result<(Stream, u64), String> {
        let stream = Stream::connect(self.kind, &self.addr).map_err(|e| e.to_string())?;
        // raw Hello, chaos-interposed: a severed out-direction eats it
        // and the HelloAck timeout fails this attempt (backoff, retry)
        let hello = TcpPacket::Hello {
            rank: self.rank,
            resume: plock(&self.link.state).session.recv_next,
        };
        let chaos = self.chaos.as_ref();
        if !write_planned(Some(&stream), &encode_wire(&hello), chaos) {
            return Err("handshake: Hello write failed or reset".into());
        }
        let rs = stream.try_clone().map_err(|e| e.to_string())?;
        let ack = read_wire_timeout::<TcpPacket>(&mut &rs, HANDSHAKE_TIMEOUT)
            .map_err(|e| e.to_string())?;
        if chaos.is_some_and(|c| c.drop_inbound()) {
            return Err("chaos: inbound partition ate the handshake ack".into());
        }
        let TcpPacket::HelloAck { resume } = ack else {
            return Err("handshake: unexpected packet in place of HelloAck".into());
        };
        let (epoch, _) = self.link.install(stream, resume)?;
        Ok((rs, epoch))
    }

    /// Sequence a packet buffer as it is: sealed in place, and held for
    /// retransmit until the supervisor acks it. The link thread owns
    /// giving up.
    pub(super) fn send(&self, packet: Vec<u8>) {
        self.link.send_data(packet, self.chaos.as_ref());
    }

    /// Drain: the terminal frame may have been chaos-dropped, and the
    /// next heartbeat's sequence gap is what reveals that — so this runs
    /// while the heartbeat and link threads are alive, until everything
    /// queued has been acked (or a generous deadline passes).
    pub(super) fn close(&self) {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        drop(self.link.wait(Duration::from_millis(50), |st| {
            st.session.sent.is_empty() || st.dead || Instant::now() >= deadline
        }));
        self.link.retire();
    }
}

/// The worker's one link thread: connect within [`CONNECT_TIMEOUT`],
/// read packets until the link breaks, and connect again on the
/// [`RECONNECT`] schedule, which a success resets for the next outage.
/// When either runs out the rank gives up, and returns why: the link is
/// retired, blocked receives unwind, and the process exits saying so.
/// Incoming frames go to [`Worker::on_raw`].
pub(super) fn link_loop(worker: &Worker) -> Result<(), String> {
    let up = &worker.up;
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    let mut failures = 0;
    let give_up = |why: String| {
        up.link.retire();
        worker.local_abort(usize::MAX, why.clone());
        Err(why)
    };
    while !worker.stop.load(Ordering::Acquire) && !plock(&up.link.state).dead {
        match up.try_connect() {
            Ok((stream, epoch)) => {
                failures = 0;
                let chaos = up.chaos.as_ref();
                let deliver = |raw: &mut Vec<u8>, checked| worker.on_raw(raw, checked);
                up.link
                    .read_packets(stream, epoch, &worker.stop, chaos, deliver);
            }
            // the first connect: a flat retry until the deadline
            Err(e) if !plock(&up.link.state).connected_once => {
                if Instant::now() >= deadline {
                    let addr = &up.addr;
                    return give_up(format!(
                        "cannot reach supervisor at {addr} within {CONNECT_TIMEOUT:?}: {e}"
                    ));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => {
                std::thread::sleep(RECONNECT.backoff_for(failures));
                failures += 1;
                if failures == RECONNECT.max_attempts {
                    let addr = &up.addr;
                    return give_up(format!(
                        "supervisor at {addr} unreachable after {failures} attempts: {e}"
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::frame::read_raw;
    use super::super::frame::tests::{encode_frame, encode_with, MSG_0_TO_1};
    use super::super::process;
    use super::*;
    use crate::{CommError, RankError};
    use quadforest_telemetry as telemetry;

    /// `Data { seq, ack }` around `frame` as the send path seals it, as
    /// the payload behind the packet's header.
    fn encode_data(seq: u64, ack: u64, frame: &[u8], out: &mut Vec<u8>) {
        let mut packet = vec![0; FRAME_AT];
        packet.extend_from_slice(frame);
        seal_data(&mut packet, seq, ack);
        out.extend_from_slice(&packet[HEADER_LEN..]);
    }

    impl Link {
        /// Every frame this link holds for retransmit, decoded.
        pub(in crate::transport) fn queued(&self) -> Vec<Frame> {
            let st = plock(&self.state);
            (st.session.sent.iter())
                .map(|(_, packet)| decode_raw(&packet[FRAME_AT..]).expect("a whole frame"))
                .collect()
        }
    }

    #[test]
    fn tcp_packet_wire_roundtrip() {
        let packets = vec![
            TcpPacket::Hello { rank: 3, resume: 9 },
            TcpPacket::HelloAck { resume: 17 },
            TcpPacket::Data {
                seq: 41,
                ack: 12,
                frame: Frame::Msg {
                    src: 1,
                    dst: 2,
                    tag: 7,
                    type_tag: 0xFEED,
                    bytes: 3,
                    data: vec![1, 2, 3],
                },
            },
            TcpPacket::Ping { ack: 5, sent: 11 },
        ];
        for p in packets {
            let back = TcpPacket::from_wire(&p.to_wire()).expect("roundtrip");
            assert_eq!(p, back);
        }
    }

    /// Every packet kind, pinned as length and CRC-32 of the
    /// concatenated encodings; the borrowed-frame `encode_data` writes
    /// exactly what `TcpPacket::Data` does.
    #[test]
    fn tcp_packets_are_pinned_byte_for_byte() {
        let frame = Frame::Heartbeat {
            rank: 1,
            seq: 2,
            op: 3,
            phase: "ghost".into(),
        };
        let mut data = Vec::new();
        encode_data(41, 12, &encode_frame(&frame), &mut data);
        let packet = TcpPacket::Data {
            seq: 41,
            ack: 12,
            frame,
        };
        assert_eq!(data, packet.to_wire());
        let mut bytes = Vec::new();
        for p in [
            TcpPacket::Hello { rank: 3, resume: 9 },
            TcpPacket::HelloAck { resume: 17 },
            packet,
            TcpPacket::Ping { ack: 5, sent: 11 },
        ] {
            p.encode(&mut bytes);
        }
        let crc = quadforest_core::crc::crc32(&bytes);
        assert_eq!((bytes.len(), crc), (98, 0x2104_55BB));
    }

    /// A relayed packet's mended CRC is the one a full seal computes,
    /// for any stamps and any length behind them.
    #[test]
    fn a_restamped_packet_is_sealed_as_a_fresh_one() {
        for len in [0, 17, 1000, RESTAMP_MIN - 1, RESTAMP_MIN, 65_537, 1 << 20] {
            let mut packet: Vec<u8> = (0..FRAME_AT + HEADER_LEN + len)
                .map(|i| (i * 7 + len) as u8)
                .collect();
            seal_data(&mut packet, 3, 9);
            let mut sealed = packet.clone();
            for (seq, ack) in [(4, 9), (u64::MAX, 0), (1 << 40, 77)] {
                restamp(&mut packet, seq, ack);
                seal_data(&mut sealed, seq, ack);
                assert_eq!(packet, sealed, "{len} bytes, seq {seq}, ack {ack}");
            }
        }
    }

    #[test]
    fn bad_packet_discriminant_is_typed() {
        assert!(TcpPacket::from_wire(&[200]).is_err());
    }

    /// Nobody is connected: everything the supervisor sends waits for
    /// retransmit, where the contract reads it.
    #[test]
    fn session_links_carry_the_supervisor_contract() {
        process::tests::check_supervisor_contract();
    }

    fn seq_gaps() -> u64 {
        telemetry::global().counter("comm.tcp.seq_gaps").get()
    }

    /// The one packet decision, with no socket: a link at epoch 3 that
    /// expects sequence 5 and has 0..5 of its own unacked.
    #[test]
    fn receive_decision_table() {
        struct Case {
            name: &'static str,
            epoch: u64,
            packet: TcpPacket,
            delivered: bool,
            recv_next: u64,
            /// The link was broken (which is what bumps the epoch), and
            /// the gap counted.
            broke: bool,
            unacked: std::ops::Range<u64>,
        }
        let frame = Frame::Hello { rank: 9 };
        let data = |seq, ack| TcpPacket::Data {
            seq,
            ack,
            frame: frame.clone(),
        };
        let cases = [
            Case {
                name: "in order: deliver, and prune on the carried ack",
                epoch: 3,
                packet: data(5, 2),
                delivered: true,
                recv_next: 6,
                broke: false,
                unacked: 2..5,
            },
            Case {
                name: "duplicate: drop (its ack still counts)",
                epoch: 3,
                packet: data(4, 3),
                delivered: false,
                recv_next: 5,
                broke: false,
                unacked: 3..5,
            },
            Case {
                name: "gap: break the link",
                epoch: 3,
                packet: data(7, 2),
                delivered: false,
                recv_next: 5,
                broke: true,
                unacked: 2..5,
            },
            Case {
                name: "stale epoch: ignore, ack included",
                epoch: 2,
                packet: data(5, 4),
                delivered: false,
                recv_next: 5,
                broke: false,
                unacked: 0..5,
            },
            Case {
                name: "ping in step: prune, do not break",
                epoch: 3,
                packet: TcpPacket::Ping { ack: 2, sent: 5 },
                delivered: false,
                recv_next: 5,
                broke: false,
                unacked: 2..5,
            },
            Case {
                name: "ping ahead of the cursor: frames were lost, break",
                epoch: 3,
                packet: TcpPacket::Ping { ack: 3, sent: 7 },
                delivered: false,
                recv_next: 5,
                broke: true,
                unacked: 3..5,
            },
            Case {
                name: "stale-epoch ping: ignore",
                epoch: 2,
                packet: TcpPacket::Ping { ack: 4, sent: 7 },
                delivered: false,
                recv_next: 5,
                broke: false,
                unacked: 0..5,
            },
        ];
        for case in cases {
            let name = case.name;
            let link = Link::default();
            {
                let mut st = plock(&link.state);
                st.epoch = 3;
                st.session.recv_next = 5;
                st.session.send_seq = 5;
                let hello = Arc::new(encode_frame(&Frame::Hello { rank: 0 }));
                st.session.sent = (0..5).map(|seq| (seq, hello.clone())).collect();
            }
            let gaps = seq_gaps();
            let bytes = encode_wire(&case.packet);
            let (packet, checked) = Inbound::parse(&bytes).expect("a whole packet");
            let got = link.on_packet(case.epoch, packet).then_some(checked);
            assert_eq!(got, case.delivered.then(|| Some(frame.clone())), "{name}");
            // other tests count gaps concurrently: only a rise is exact
            assert!(!case.broke || seq_gaps() > gaps, "{name}: gap not counted");
            let st = plock(&link.state);
            assert_eq!(
                st.session.recv_next, case.recv_next,
                "{name}: receive cursor"
            );
            assert_eq!(st.epoch, 3 + case.broke as u64, "{name}: epoch");
            let unacked: Vec<u64> = st.session.sent.iter().map(|(seq, _)| *seq).collect();
            assert_eq!(unacked, case.unacked.collect::<Vec<_>>(), "{name}: unacked");
        }
    }

    /// A gap on a supervisor-side link moves the process-global counter:
    /// the supervisor's read threads have no per-rank recorder, so a
    /// `telemetry::counter_add` there would be dropped.
    #[test]
    fn supervisor_side_gaps_are_counted_globally() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
        let mut worker = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        let reader = accepted.try_clone().unwrap();
        reader.set_read_timeout(Some(READ_POLL)).unwrap();
        let link = Link::default();
        let (epoch, _) = (link.install(Stream::Tcp(accepted), 0)).expect("install");
        // sequence 1 while the cursor expects 0: frame 0 was lost
        let hello = encode_frame(&Frame::Hello { rank: 0 });
        worker
            .write_all(&encode_with(|out| encode_data(1, 0, &hello, out)))
            .unwrap();
        let gaps = seq_gaps();
        let stop = AtomicBool::new(false);
        let reader = Stream::Tcp(reader);
        link.read_packets(reader, epoch, &stop, None, |_, f| panic!("delivered {f:?}"));
        assert!(
            seq_gaps() > gaps,
            "the gap did not reach the global registry"
        );
        assert!(
            plock(&link.state).stream.is_none(),
            "the gap broke the link"
        );
    }

    /// The supervisor's half of one handshake on `listener`, as for a
    /// rank nothing was sent to; then the supervisor is gone for good.
    pub(in crate::transport) fn handshake_and_vanish(listener: Listener) {
        let stream = listener.accept().expect("a worker connects");
        let hello = read_wire_timeout::<TcpPacket>(&mut &stream, Duration::from_secs(10));
        assert!(matches!(hello, Ok(TcpPacket::Hello { .. })), "{hello:?}");
        let ack = encode_wire(&TcpPacket::HelloAck { resume: 0 });
        (&stream).write_all(&ack).unwrap();
    }

    /// Install one end of a loopback connection on `link`: returns the
    /// other end, the link's read half and its epoch.
    fn installed(link: &Link) -> (TcpStream, Stream, u64) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
        let peer = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let accepted = Stream::Tcp(listener.accept().expect("accept").0).configured();
        let accepted = accepted.expect("configure");
        let reader = accepted.try_clone().unwrap();
        let (epoch, _) = link.install(accepted, 0).expect("install");
        (peer, reader, epoch)
    }

    /// Every packet written to `stream` before it closed, as the frame
    /// payloads of the `Data` packets.
    fn data_frames(stream: &mut TcpStream) -> Vec<Vec<u8>> {
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes).unwrap();
        let (mut rest, stop) = (bytes.as_slice(), AtomicBool::new(false));
        let mut frames = Vec::new();
        while !rest.is_empty() {
            let mut packet = Vec::new();
            read_raw(&mut rest, &stop, None, &mut packet).expect("a whole packet");
            assert_eq!(packet[HEADER_LEN], DATA);
            frames.push(packet[HEADER_LEN + FRAME_AT..].to_vec());
        }
        frames
    }

    /// Rank 0 of a two-rank world sends `frames` and hangs up; the
    /// supervisor reads them. Returns it and the frame payloads it sent
    /// rank 1.
    fn route(frames: &[&[u8]]) -> (Supervisor, Vec<Vec<u8>>) {
        let sup = Supervisor::new(2);
        let (mut rank0, reader, epoch) = installed(&sup.links[0]);
        let (mut rank1, _, _) = installed(&sup.links[1]);
        for (seq, frame) in frames.iter().enumerate() {
            let packet = encode_with(|out| encode_data(seq as u64, 0, frame, out));
            rank0.write_all(&packet).unwrap();
        }
        rank0.shutdown(Shutdown::Write).unwrap(); // the read ends at EOF
        read_rank(&sup, 0, reader, epoch);
        sup.links[1].retire(); // EOF behind what rank 1 was sent
        let sent = data_frames(&mut rank1);
        (sup, sent)
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

    /// The supervisor declared rank 0 dead for `reason`, and rank 1 was
    /// sent the abort and nothing else.
    fn assert_dead_unforwarded(frame: &[u8], reason: &str) {
        let (router, queued) = route(&[frame]);
        let abort = router.abort.get().expect("world aborted");
        assert_eq!((abort.origin, abort.reason.as_str()), (0, reason));
        match &plock(&router.results)[0] {
            Some(Err(RankError::Failed(CommError::PeerFailed { rank: 0, reason: r }))) => {
                assert_eq!(r, reason)
            }
            other => panic!("rank 0 outcome: {other:?}"),
        }
        for payload in queued {
            let frame = Frame::from_wire(&payload);
            assert!(
                matches!(frame, Ok(Frame::Abort { origin: 0, .. })),
                "{frame:?}"
            );
        }
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
        let (router, queued) = route(&[&MSG_0_TO_1[..], &other, &done]);
        let payloads = [&MSG_0_TO_1[HEADER_LEN..], &other[HEADER_LEN..]].map(<[u8]>::to_vec);
        assert_eq!(queued, payloads);
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

    /// A `Msg` relayed by the supervisor reaches rank 1 as the sender's
    /// payload, byte for byte, behind the envelope.
    #[test]
    fn supervisor_relays_the_senders_frame_bytes() {
        let sup = Supervisor::new(2);
        let (mut rank0, reader, epoch) = installed(&sup.links[0]);
        let (mut rank1, _, _) = installed(&sup.links[1]);
        let packet = encode_with(|out| encode_data(0, 0, &MSG_0_TO_1, out));
        rank0.write_all(&packet).unwrap();
        rank0.shutdown(Shutdown::Write).unwrap(); // the read ends at EOF
        read_rank(&sup, 0, reader, epoch);
        sup.links[1].retire(); // EOF behind what rank 1 was sent
        let mut bytes = Vec::new();
        rank1.read_to_end(&mut bytes).unwrap();
        let mut queued = Vec::new();
        let stop = AtomicBool::new(false);
        read_raw(&mut bytes.as_slice(), &stop, None, &mut queued).expect("a packet for rank 1");
        assert_eq!(queued[HEADER_LEN], DATA);
        assert_eq!(&queued[HEADER_LEN + FRAME_AT..], &MSG_0_TO_1[HEADER_LEN..]);
        assert!(sup.abort.get().is_none());
    }

    /// A CRC-sound `Data` packet whose frame a decode would reject is a
    /// read error: it breaks the link, counts in the process-global
    /// registry, delivers nothing and leaves the receive cursor alone.
    #[test]
    fn an_undecodable_frame_breaks_the_link_before_the_cursor_moves() {
        let link_errors = || telemetry::global().counter("comm.tcp.link_errors").get();
        let mut long_data = MSG_0_TO_1; // claims 5 data bytes, holds 4
        long_data[HEADER_LEN + 41] = 5;
        let no_such_kind = encode_with(|out| out.push(250));
        let no_frame = vec![0; HEADER_LEN];
        for frame in [no_such_kind, long_data.to_vec(), no_frame] {
            let link = Link::default();
            let (mut peer, reader, epoch) = installed(&link);
            let packet = encode_with(|out| encode_data(0, 0, &frame, out));
            peer.write_all(&packet).unwrap();
            let errors = link_errors();
            let stop = AtomicBool::new(false);
            link.read_packets(reader, epoch, &stop, None, |_, f| panic!("delivered {f:?}"));
            // other tests count errors concurrently: only a rise is exact
            assert!(link_errors() > errors, "the error was not counted");
            let st = plock(&link.state);
            assert!(st.stream.is_none(), "the error did not break the link");
            assert_eq!(st.session.recv_next, 0, "the receive cursor moved");
        }
    }

    /// A send blocked on a peer that does not read, and a second send
    /// waiting for its turn behind it, leave the link's reader free: a
    /// packet the peer writes meanwhile is delivered long before the
    /// blocked write times out.
    #[test]
    fn a_reader_delivers_while_a_send_on_its_link_is_blocked() {
        let link = Link::default();
        let (ours, mut peer) = UnixStream::pair().expect("socket pair");
        let ours = Stream::Unix(ours).configured().expect("configure");
        let reader = ours.try_clone().unwrap();
        let (epoch, _) = link.install(ours, 0).expect("install");
        let big = Frame::Msg {
            src: 0,
            dst: 1,
            tag: 0,
            type_tag: 0,
            bytes: 4 << 20,
            data: vec![0; 4 << 20], // far more than the socket buffers hold
        };
        let (stop, (tx, rx)) = (AtomicBool::new(false), std::sync::mpsc::channel());
        std::thread::scope(|s| {
            s.spawn(|| link.send_data(packet(&big), None));
            while plock(&link.state).session.send_seq == 0 {
                std::thread::yield_now();
            }
            // a heartbeat due while the big write is blocked
            s.spawn(|| link.send_data(packet(&Frame::Hello { rank: 0 }), None));
            std::thread::sleep(Duration::from_millis(100));
            s.spawn(|| {
                link.read_packets(reader, epoch, &stop, None, |_, f| {
                    let _ = tx.send(f);
                })
            });
            let hello = encode_frame(&Frame::Hello { rank: 1 });
            (peer.write_all(&encode_with(|out| encode_data(0, 0, &hello, out)))).unwrap();
            let got = rx.recv_timeout(WRITE_TIMEOUT / 2);
            stop.store(true, Ordering::Release);
            let _ = peer.shutdown(Shutdown::Both); // the blocked write fails
            assert_eq!(got, Ok(Some(Frame::Hello { rank: 1 })));
        });
    }

    /// Two ends that each queued more than the socket buffers hold,
    /// installed across a pair: the installs write nothing, and once both
    /// readers run, the next write in turn on each end — a ping on one,
    /// a send on the other — replays its queue ahead of its own packet
    /// while the other end reads, so both queues arrive at once.
    #[test]
    fn two_big_replays_across_a_pair_do_not_wedge() {
        let big = |src: u64| Frame::Msg {
            src,
            dst: 1 - src,
            tag: 0,
            type_tag: 0,
            bytes: 1 << 20,
            data: vec![src as u8; 1 << 20],
        };
        let links = [Link::default(), Link::default()];
        for (src, link) in links.iter().enumerate() {
            link.send_data(packet(&big(src as u64)), None); // queued: not connected
        }
        let (a, b) = UnixStream::pair().expect("socket pair");
        let probes = [&a, &b].map(|s| s.try_clone().unwrap());
        let streams = [a, b].map(|s| Stream::Unix(s).configured().expect("configure"));
        let readers = streams.each_ref().map(|s| s.try_clone().unwrap());
        let epochs =
            (links.iter().zip(streams)).map(|(link, s)| link.install(s, 0).expect("install"));
        let epochs: Vec<u64> = epochs.map(|(epoch, _)| epoch).collect();
        for probe in &probes {
            // a read poll passes with nothing to read on either end
            assert!((&*probe).read(&mut [0]).is_err(), "an install wrote");
        }
        let (stop, (tx, rx)) = (AtomicBool::new(false), std::sync::mpsc::channel());
        std::thread::scope(|s| {
            for (end, reader) in readers.into_iter().enumerate() {
                let (link, epoch, tx, stop) = (&links[end], epochs[end], tx.clone(), &stop);
                s.spawn(move || {
                    link.read_packets(reader, epoch, stop, None, |raw, _| {
                        let frame = decode_raw::<Frame>(&raw[FRAME_AT..]).expect("a frame");
                        let _ = tx.send((end, frame));
                    })
                });
            }
            let start = Instant::now();
            s.spawn(|| links[0].send_ping());
            s.spawn(|| links[1].send_data(packet(&Frame::Hello { rank: 1 }), None));
            let mut got = Vec::new();
            while let Ok(delivered) = rx.recv_timeout(Duration::from_secs(1)) {
                got.push(delivered);
                if got.len() == 3 {
                    break;
                }
            }
            let took = start.elapsed();
            stop.store(true, Ordering::Release);
            got.sort_by_key(|(end, frame)| (*end, !matches!(frame, Frame::Msg { .. })));
            let want = [(0, big(1)), (0, Frame::Hello { rank: 1 }), (1, big(0))];
            assert!(got == want, "delivered {} of 3 in {took:?}", got.len());
            assert!(took < Duration::from_secs(1), "both queues took {took:?}");
        });
    }

    /// A link whose connection breaks while its reader is still
    /// delivering stays up until that reader returns. `on_packet` moves
    /// the receive cursor before `deliver` runs, so an ack can cover a
    /// packet not yet delivered; the supervisor counts an exited
    /// process dead only once its link is down
    /// ([`process::liveness`]), so by then the packet was delivered.
    #[test]
    fn a_link_is_up_until_its_reader_has_delivered() {
        let link = Link::default();
        let (mut peer, reader, epoch) = installed(&link);
        let hello = encode_frame(&Frame::Hello { rank: 1 });
        (peer.write_all(&encode_with(|out| encode_data(0, 0, &hello, out)))).unwrap();
        let stop = AtomicBool::new(false);
        let (entered, delivering) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let (link, stop) = (&link, &stop);
            let read = s.spawn(move || {
                link.read_packets(reader, epoch, stop, None, |_, _| {
                    entered.send(()).unwrap();
                    let _ = released.recv();
                })
            });
            delivering.recv().unwrap();
            assert_eq!(plock(&link.state).session.recv_next, 1, "acked already");
            // the process exits and a write to it fails: the link breaks
            drop(peer);
            link.break_link_locked(&mut plock(&link.state));
            assert!(link.is_up(), "down while a packet is being delivered");
            drop(release);
            read.join().unwrap();
            assert!(!link.is_up(), "up after its reader returned");
        });
    }

    /// A packet queued for a rank before its link was installed reaches
    /// the worker once the handshake is done, with no further send or
    /// ping: the accept thread writes what the install owes.
    #[test]
    fn an_owed_packet_leaves_with_the_handshake() {
        for kind in [LinkKind::Unix, LinkKind::Tcp] {
            let sup = Arc::new(Supervisor::new(1));
            sup.links[0].send_data(packet(&Frame::Hello { rank: 0 }), None);
            let (listener, addr) = Listener::bind(kind);
            let accept = Arc::clone(&sup);
            let accepting = std::thread::spawn(move || accept_loop(&accept, listener));
            let worker = Stream::connect(kind, &addr).expect("connect");
            let hello = TcpPacket::Hello { rank: 0, resume: 0 };
            (&worker).write_all(&encode_wire(&hello)).unwrap();
            let wait = Duration::from_secs(2);
            let ack = read_wire_timeout::<TcpPacket>(&mut &worker, wait);
            assert!(
                matches!(ack, Ok(TcpPacket::HelloAck { .. })),
                "{kind:?}: {ack:?}"
            );
            let owed = read_wire_timeout::<TcpPacket>(&mut &worker, wait);
            let hello = Frame::Hello { rank: 0 };
            assert!(
                matches!(&owed, Ok(TcpPacket::Data { seq: 0, frame, .. }) if *frame == hello),
                "{kind:?}: {owed:?}"
            );
            sup.stop.store(true, Ordering::Release);
            drop(worker);
            wake(kind, &addr);
            accepting.join().unwrap();
        }
    }

    fn spares(link: &Link) -> usize {
        plock(&link.spares.0).len()
    }

    /// An ack that arrives while the writer still writes its packet
    /// leaves the buffer to the writer, which puts it back once the
    /// write is done: no acked buffer is dropped.
    #[test]
    fn a_buffer_acked_mid_write_goes_back_to_the_spares() {
        let link = Link::default();
        let (ours, mut peer) = UnixStream::pair().expect("socket pair");
        let ours = Stream::Unix(ours).configured().expect("configure");
        let (epoch, _) = link.install(ours, 0).expect("install");
        let big = packet(&Frame::Msg {
            src: 0,
            dst: 1,
            tag: 0,
            type_tag: 0,
            bytes: 1 << 20,
            data: vec![0; 1 << 20], // more than the socket buffers hold
        });
        let len = big.len();
        std::thread::scope(|s| {
            let writer = s.spawn(|| link.send_data(big, None));
            while plock(&link.state).session.send_seq == 0 {
                std::thread::yield_now();
            }
            // the write is blocked on the peer; the peer's ack arrives
            let ping = Inbound::Other(TcpPacket::Ping { ack: 1, sent: 0 });
            assert!(!link.on_packet(epoch, ping));
            assert!(plock(&link.state).session.sent.is_empty(), "not acked");
            assert_eq!(spares(&link), 0, "recycled while the writer holds it");
            let mut read = vec![0; len];
            peer.read_exact(&mut read).expect("the whole packet");
            writer.join().unwrap();
        });
        assert_eq!(spares(&link), 1, "the acked buffer was dropped");
    }

    /// A reader takes a spare for a big packet only, and gives it back
    /// when a small packet follows a big one it kept.
    #[test]
    fn a_reader_holds_a_spare_only_for_a_big_packet() {
        let link = Link::default();
        link.spares.put(Vec::with_capacity(REUSE_MIN));
        let (mut peer, reader, epoch) = installed(&link);
        let small = encode_frame(&Frame::Hello { rank: 1 });
        let big = encode_frame(&Frame::Msg {
            src: 0,
            dst: 1,
            tag: 0,
            type_tag: 0,
            bytes: REUSE_MIN as u64,
            data: vec![0; REUSE_MIN],
        });
        let frames = [&small, &small, &big, &small, &small];
        for (seq, frame) in frames.iter().enumerate() {
            peer.write_all(&encode_with(|out| encode_data(seq as u64, 0, frame, out)))
                .unwrap();
        }
        peer.shutdown(Shutdown::Write).unwrap(); // the read ends at EOF
        let mut held = Vec::new();
        let stop = AtomicBool::new(false);
        link.read_packets(reader, epoch, &stop, None, |raw, _| {
            held.push((
                raw.len() >= REUSE_MIN,
                raw.capacity() >= REUSE_MIN,
                spares(&link),
            ));
        });
        let (small, big) = ((false, false, 1), (true, true, 0));
        assert_eq!(held, [small, small, big, small, small]);
        assert_eq!(spares(&link), 1);
    }

    #[test]
    fn send_data_queues_while_disconnected() {
        let link = Link::default();
        link.send_data(packet(&Frame::Hello { rank: 1 }), None);
        link.send_data(packet(&Frame::Hello { rank: 1 }), None);
        let st = plock(&link.state);
        assert_eq!(st.session.send_seq, 2);
        let seqs: Vec<u64> = st.session.sent.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn dead_link_refuses_new_frames() {
        let link = Link::default();
        {
            let mut st = plock(&link.state);
            st.dead = true;
        }
        link.send_data(packet(&Frame::Hello { rank: 0 }), None);
        assert_eq!(plock(&link.state).session.sent.len(), 0);
    }
}
