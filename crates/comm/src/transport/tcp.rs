//! The session link: a process world over TCP (multi-node capable).
//!
//! The supervisor, the worker runtime, the liveness rules and the
//! [`Spawn`] record a worker starts from are [`super::process`], exactly
//! as on the Unix-socket backend (here the record's `addr` is the
//! listener's `host:port`); this file is only how a frame reaches the
//! peer over TCP, which brings two problems Unix sockets never have:
//! the wire can *lose or mangle bytes* (a flaky interconnect, or our
//! deterministic chaos interposer), and a connection can *drop and come
//! back*. The answer is a small reliable session layer on top of the
//! CRC framing. Its protocol is [`Session`] — sequence numbers, acks,
//! the receive decision, the ping probe, pruning and replay, as pure
//! data; this file is only its driver, the I/O that carries the
//! decisions out:
//!
//! * Every frame travels inside a [`TcpPacket::Data`] envelope
//!   carrying a per-direction **sequence number** and a cumulative
//!   **ack** (the sender's receive cursor). Receivers deliver in-order
//!   exactly once: a duplicate is dropped, a gap breaks the link. Both
//!   ends hold the frame buffers they sent for retransmit, and read
//!   with the one [`Link::read_packets`] loop, which takes `seq` and
//!   `ack` at fixed offsets and checks the frame where it lies: a `Msg`
//!   is never decoded into a [`Frame`], but relayed or delivered as the
//!   bytes that arrived, through the same `on_raw` entry points the raw
//!   link calls.
//! * A broken link (gap, CRC mismatch, decode error, EOF, reset) is
//!   *not* a failure — the worker's one link thread reconnects with
//!   bounded exponential backoff + deterministic jitter ([`RECONNECT`],
//!   the recovery supervisor's own [`RecoveryPolicy`] machinery). The
//!   reconnect handshake (`Hello{resume}` / `HelloAck{resume}`)
//!   exchanges receive cursors; both sides prune acked frames and
//!   retransmit the rest, so the stream resumes with no loss and no
//!   duplication. The supervisor counts each resumption in
//!   `transport.reconnects`, and gaps and read errors in
//!   `comm.tcp.seq_gaps` / `comm.tcp.link_errors`, all in the process's
//!   global registry (link threads have no per-rank recorder).
//! * All writes to a link happen in sequence order under the link
//!   lock, so the supervisor's periodic [`TcpPacket::Ping`] — which
//!   carries its next send sequence — gives the worker a race-free gap
//!   probe even when supervisor→worker traffic is sparse: any `Data`
//!   the ping's `sent` claims was written before it either already
//!   arrived (TCP orders the stream) or was dropped on the wire.
//!
//! **Only the missed-heartbeat window kills a rank**: a read error
//! breaks the link, it never declares anyone dead. A connection that
//! drops and heals inside the window therefore resumes with **no**
//! `PeerFailed` and no recovery attempt, while a true partition
//! (reconnects exhausted, or the window elapsing with no resumed
//! heartbeats) or a SIGKILL escalates to [`run_with_recovery_program`]
//! exactly like sockets — including the flight-recorder postmortem
//! naming the victim's last comm op. Wire corruption injected by the
//! chaos interposer
//! ([`FaultPlan::with_net_corruption`] and friends) is caught by the
//! frame CRC and surfaces as a link break + retransmit, never a panic.
//!
//! [`run_with_recovery_program`]: crate::run_with_recovery_program
//! [`FaultPlan::with_net_corruption`]: crate::FaultPlan::with_net_corruption
//! [`RecoveryPolicy`]: crate::RecoveryPolicy

use super::frame::{
    check, decode_raw, encode_wire, encode_with, read_raw, read_wire_timeout, Frame, FrameError,
    HEADER_LEN, HEARTBEAT,
};
use super::process::{
    self, count, Links, Spawn, Supervisor, Uplink, Worker, CONNECT_TIMEOUT, READ_POLL,
};
use super::session::{Receipt, Session};
use super::TcpOptions;
use crate::fault::{NetFaults, WriteFault};
use crate::{plock, RecoveryPolicy, WorldError};
use quadforest_core::Wire;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
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
/// Mid-frame progress deadline on session reads. A frame's bytes are
/// written back-to-back, so a gap this long inside one frame means a
/// corrupted length prefix passed the cap check and the reader is
/// waiting for payload that will never exist — break the link (the
/// reconnect replay resynchronizes) instead of silently eating live
/// heartbeats as bogus payload until the death window expires.
const FRAME_STALL: Duration = Duration::from_millis(250);
/// How long a finished worker waits for its terminal frame to be
/// acked before giving up and exiting anyway.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// The TCP envelope around the socket backend's [`Frame`] protocol.
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
/// bytes are not its own).
const FRAME_AT: usize = 17;

/// The encoding of [`TcpPacket::Data`] around a frame buffer: the send
/// and replay paths frame what sits in the retransmit queue as it is.
fn encode_data(seq: u64, ack: u64, frame: &[u8], out: &mut Vec<u8>) {
    out.push(DATA);
    seq.encode(out);
    ack.encode(out);
    out.extend_from_slice(&frame[HEADER_LEN..]);
}

/// Whether a framed `Data` packet carries anything but a heartbeat:
/// heartbeats do not count towards the chaos plan's scheduled (reset,
/// partition) frame indices, so their cadence cannot shift them.
fn is_data(packet: &[u8]) -> bool {
    packet[HEADER_LEN + FRAME_AT] != HEARTBEAT
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

/// One endpoint's link: the [`Session`] over the frame buffers it sent,
/// and the connection it runs on.
#[derive(Default)]
struct LinkState {
    /// The live connection, `None` while broken/reconnecting.
    stream: Option<TcpStream>,
    /// Bumped on every install *and* break, so a reader or writer that
    /// raced a reconnect cannot break the successor connection.
    epoch: u64,
    session: Session<Vec<u8>>,
    /// Terminal: no reconnects, sends become no-ops.
    dead: bool,
    /// Whether this link ever completed a handshake.
    connected_once: bool,
}

/// A session-layer link endpoint: state + wakeup for the handshake and
/// drain waiters. Both ends of a connection run the same one; only the
/// worker's has a chaos interposer to pass in.
#[derive(Default)]
struct Link {
    state: Mutex<LinkState>,
    cv: Condvar,
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

    /// Sever the connection (if any) and wake waiters. The epoch bump
    /// invalidates every thread still holding the old connection.
    fn break_link_locked(&self, st: &mut LinkState) {
        if let Some(s) = st.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        st.epoch += 1;
        self.cv.notify_all();
    }

    /// Terminal: sever the connection and refuse every later send and
    /// reconnect.
    fn retire(&self) {
        let mut st = plock(&self.state);
        st.dead = true;
        self.break_link_locked(&mut st);
    }

    /// Sequence, queue, and (when connected) write one frame buffer.
    /// Writes happen under the state lock in sequence order — that
    /// ordering is what makes `Ping::sent` a sound gap probe. `chaos` is
    /// the worker-side fault interposer (`None` on the supervisor).
    fn send_data(&self, frame: Vec<u8>, chaos: Option<&NetFaults>) {
        let mut st = plock(&self.state);
        if st.dead {
            return;
        }
        let s = &st.session;
        // encode before the session moves: an over-cap frame panics here
        let bytes = encode_with(|out| encode_data(s.send_seq, s.recv_next, &frame, out));
        // disconnected: queued for retransmit (the chaos plan still
        // counts the frame)
        let intact = write_planned(st.stream.as_ref(), &bytes, is_data(&bytes), chaos);
        st.session.sequence(frame);
        if !intact {
            self.break_link_locked(&mut st);
        }
    }

    /// Supervisor-side probe: ack what we have, advertise what we sent.
    fn send_ping(&self) {
        let mut st = plock(&self.state);
        let Some(mut stream) = st.stream.as_ref() else {
            return;
        };
        let bytes = encode_wire(&TcpPacket::Ping {
            ack: st.session.recv_next,
            sent: st.session.send_seq,
        });
        if stream.write_all(&bytes).is_err() {
            self.break_link_locked(&mut st);
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
        let unacked = st.session.sent.len();
        let (gap, deliver) = match packet {
            Inbound::Data { seq, ack } => match st.session.receive(seq, ack) {
                Receipt::Deliver => (false, true),
                Receipt::Duplicate => (false, false),
                Receipt::Gap => (true, false),
            },
            Inbound::Other(TcpPacket::Ping { ack, sent }) => (st.session.probe(ack, sent), false),
            Inbound::Other(_) => (false, false),
        };
        if gap {
            count("comm.tcp.seq_gaps");
            self.break_link_locked(&mut st);
        } else if st.session.sent.len() < unacked {
            self.cv.notify_all(); // a drain waiter may be done
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
    /// never declares a death: liveness stays with the heartbeat window.
    fn read_packets(
        &self,
        mut stream: TcpStream,
        epoch: u64,
        stop: &AtomicBool,
        chaos: Option<&NetFaults>,
        mut deliver: impl FnMut(&mut Vec<u8>, Option<Frame>),
    ) {
        let mut raw = Vec::new();
        loop {
            let read = read_raw(&mut stream, stop, Some(FRAME_STALL), &mut raw);
            match read.and_then(|()| Inbound::parse(&raw)) {
                Ok(_) if chaos.is_some_and(|c| c.drop_inbound()) => {}
                Ok((packet, checked)) => {
                    if self.on_packet(epoch, packet) {
                        deliver(&mut raw, checked);
                    }
                }
                Err(FrameError::Stopped) => return,
                Err(e) => {
                    let mut st = plock(&self.state);
                    if st.epoch == epoch {
                        if !matches!(e, FrameError::Eof) {
                            count("comm.tcp.link_errors");
                        }
                        self.break_link_locked(&mut st);
                    }
                    return;
                }
            }
        }
    }

    /// The tail of a (re)connection handshake, the same on both ends and
    /// all under the state lock so no send interleaves: supersede the
    /// old connection, answer with a `HelloAck` (the accepting end
    /// only), replay what the peer's `Hello`/`HelloAck` cursor
    /// (`peer_resume`) says it still needs, install `stream`. Returns
    /// the new epoch and whether this resumed an earlier connection.
    fn install(
        &self,
        stream: TcpStream,
        peer_resume: u64,
        hello_ack: bool,
        chaos: Option<&NetFaults>,
    ) -> Result<(u64, bool), String> {
        let mut st = plock(&self.state);
        if st.dead {
            return Err("link already retired".into());
        }
        self.break_link_locked(&mut st);
        let recv_next = st.session.recv_next;
        let acked = !hello_ack || {
            let ack = encode_wire(&TcpPacket::HelloAck { resume: recv_next });
            (&stream).write_all(&ack).is_ok()
        };
        let replayed = acked
            && st.session.resume(peer_resume).all(|(seq, frame)| {
                let bytes = encode_with(|out| encode_data(*seq, recv_next, frame, out));
                write_planned(Some(&stream), &bytes, is_data(&bytes), chaos)
            });
        if !replayed {
            let _ = stream.shutdown(Shutdown::Both);
            return Err("handshake replay failed".into());
        }
        let resumed = st.connected_once;
        st.connected_once = true;
        st.stream = Some(stream);
        self.cv.notify_all();
        Ok((st.epoch, resumed))
    }
}

/// Write one framed packet through the chaos interposer's plan for it
/// (none on the supervisor). `reset_after` severs the link *after* the
/// write. False when the link must be broken.
fn write_planned(
    stream: Option<&TcpStream>,
    bytes: &[u8],
    is_data: bool,
    chaos: Option<&NetFaults>,
) -> bool {
    let fault = chaos
        .map(|c| c.plan_write(bytes.len(), is_data))
        .unwrap_or_default();
    stream.is_none_or(|s| apply_write_fault(s, bytes, &fault).is_ok() && !fault.reset_after)
}

/// Write `bytes` to `stream`, filtered through one frame's chaos
/// decisions: delay, silent drop, single-bit corruption, chunked
/// partial writes, bandwidth pacing. `reset_after` is left to the
/// caller.
fn apply_write_fault(stream: &TcpStream, bytes: &[u8], fault: &WriteFault) -> std::io::Result<()> {
    if let Some(d) = fault.delay {
        std::thread::sleep(d);
    }
    if !fault.drop {
        let corrupted;
        let buf: &[u8] = match fault.corrupt_bit {
            Some(bit) if !bytes.is_empty() => {
                let mut owned = bytes.to_vec();
                let i = (bit / 8) % owned.len();
                owned[i] ^= 1 << (bit % 8);
                corrupted = owned;
                &corrupted
            }
            _ => bytes,
        };
        let mut w = stream;
        match fault.chunks {
            Some(n) if buf.len() > 1 => {
                let n = n.clamp(2, buf.len());
                let step = buf.len().div_ceil(n);
                let mut off = 0;
                while off < buf.len() {
                    let end = (off + step).min(buf.len());
                    w.write_all(&buf[off..end])?;
                    off = end;
                    if off < buf.len() {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
            }
            _ => w.write_all(buf)?,
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// supervisor side
// ----------------------------------------------------------------------

/// One session link per rank. An abort travels sequenced like every
/// frame, so a rank that is mid-reconnect still gets it after the
/// handshake retransmit; pings go to terminal ranks too, so a finished
/// worker's `Done` gets acked.
pub(super) struct SessionLinks(Vec<Link>);

impl Links for SessionLinks {
    /// Sequence a copy of the frame buffer, which the link holds for
    /// retransmit.
    fn send(&self, rank: usize, frame: &[u8]) {
        self.0[rank].send_data(frame.to_vec(), None);
    }

    fn retire(&self, rank: usize) {
        self.0[rank].retire();
    }

    fn tick(&self) {
        for link in &self.0 {
            link.send_ping();
        }
    }
}

/// Handshake one accepted connection: identify the rank, exchange
/// receive cursors, retransmit unacked frames, install the stream, and
/// hand it to a fresh reader thread.
fn handshake_accept(
    sup: &Arc<Supervisor<SessionLinks>>,
    mut stream: TcpStream,
) -> Option<JoinHandle<()>> {
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(READ_POLL)).ok()?;
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let hello = read_wire_timeout::<TcpPacket>(&mut stream, HANDSHAKE_TIMEOUT);
    let Ok(TcpPacket::Hello { rank, resume }) = hello else {
        return None; // not a worker (or its Hello was eaten by chaos)
    };
    let rank = rank as usize;
    if rank >= sup.size || sup.is_terminal(rank) {
        return None; // unknown or already-terminal rank: refuse resurrection
    }
    let reader = stream.try_clone().ok()?;
    let (epoch, resumed) = sup.links.0[rank].install(stream, resume, true, None).ok()?;
    if resumed {
        count("transport.reconnects");
    }
    // a resumed connection proves the process is alive right now
    sup.beat(rank);
    let sup = Arc::clone(sup);
    std::thread::Builder::new()
        .name(format!("tcp-read-{rank}-e{epoch}"))
        .spawn(move || read_rank(&sup, rank, reader, epoch))
        .ok()
}

/// The supervisor's reader of `rank`'s connection of `epoch`: every
/// delivered frame goes to [`Supervisor::on_raw`], which relays a `Msg`
/// as the bytes that arrived. (A corrupt route retires the link, which
/// ends the read: `on_raw`'s verdict is not needed here.)
fn read_rank(sup: &Supervisor<SessionLinks>, rank: usize, reader: TcpStream, epoch: u64) {
    let link = &sup.links.0[rank];
    link.read_packets(reader, epoch, &sup.stop, None, |raw, checked| {
        let last = matches!(checked, Some(Frame::Done { .. } | Frame::Failed { .. }));
        sup.on_raw(rank, &raw[FRAME_AT..], checked);
        if last {
            // ack promptly so the worker's terminal-frame drain
            // wait returns without waiting for the next sweep
            link.send_ping();
        }
    });
}

/// Persistent accept loop: workers connect here both at startup and on
/// every reconnect. Joins the readers it started once the world stops.
fn accept_loop(sup: &Arc<Supervisor<SessionLinks>>, listener: TcpListener) {
    let mut readers = Vec::new();
    while !sup.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => readers.extend(handshake_accept(sup, stream)),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    for reader in readers {
        let _ = reader.join();
    }
}

/// Run `spawn`'s program across worker processes over TCP, the
/// workers connecting to the listener's address in the record's
/// `addr`. What it adds to the process world is the persistent accept
/// loop that lets workers reconnect mid-run.
pub(crate) fn run_world(mut spawn: Spawn, tcp: &TcpOptions) -> Result<Vec<Vec<u8>>, WorldError> {
    let listener = TcpListener::bind(("127.0.0.1", 0))
        .unwrap_or_else(|e| panic!("bind tcp listener on loopback: {e}"));
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    spawn.addr = listener.local_addr().expect("listener addr").to_string();
    process::run_world(
        &spawn,
        tcp,
        SessionLinks((0..spawn.size).map(|_| Link::default()).collect()),
        |sup, deadline, threads| {
            // initial connections AND reconnects
            let accept = Arc::clone(sup);
            threads.push(
                std::thread::Builder::new()
                    .name("tcp-accept".into())
                    .spawn(move || accept_loop(&accept, listener))
                    .expect("spawn accept"),
            );
            // startup: wait for every rank's first handshake
            loop {
                let missing: Vec<usize> = (0..sup.size)
                    .filter(|&r| !plock(&sup.links.0[r].state).connected_once)
                    .collect();
                if missing.is_empty() || Instant::now() >= deadline {
                    return missing;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        },
    )
}

// ----------------------------------------------------------------------
// worker (child) side
// ----------------------------------------------------------------------

/// The worker's end of the session link, plus the chaos interposer.
pub(super) struct SessionUplink {
    rank: u64,
    addr: String,
    link: Link,
    /// Deterministic network-chaos interposer; `None` when the fault
    /// plan has no network ops.
    chaos: Option<NetFaults>,
}

impl SessionUplink {
    /// One connect + handshake + replay round. On success the stream
    /// is installed; returns its read half and epoch.
    fn try_connect(&self) -> Result<(TcpStream, u64), String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(READ_POLL))
            .map_err(|e| e.to_string())?;
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        // raw Hello, chaos-interposed: a severed out-direction eats it
        // and the HelloAck timeout fails this attempt (backoff, retry)
        let hello = TcpPacket::Hello {
            rank: self.rank,
            resume: plock(&self.link.state).session.recv_next,
        };
        let chaos = self.chaos.as_ref();
        if !write_planned(Some(&stream), &encode_wire(&hello), false, chaos) {
            return Err("handshake: Hello write failed or reset".into());
        }
        let mut rs = stream.try_clone().map_err(|e| e.to_string())?;
        let ack = read_wire_timeout::<TcpPacket>(&mut rs, HANDSHAKE_TIMEOUT)
            .map_err(|e| e.to_string())?;
        if chaos.is_some_and(|c| c.drop_inbound()) {
            return Err("chaos: inbound partition ate the handshake ack".into());
        }
        let TcpPacket::HelloAck { resume } = ack else {
            return Err("handshake: unexpected packet in place of HelloAck".into());
        };
        let (epoch, _) = self.link.install(stream, resume, false, chaos)?;
        Ok((rs, epoch))
    }
}

/// Give up on the supervisor: the link is terminally dead, blocked
/// receives unwind, and the heartbeat window on the other side
/// escalates to the recovery supervisor.
fn mark_dead(worker: &Worker<SessionUplink>, reason: String) {
    worker.up.link.retire();
    worker.local_abort(usize::MAX, reason);
}

/// The worker's one link thread: connect within the connect deadline,
/// read packets until the link breaks, then reconnect on the
/// [`RECONNECT`] schedule, which a success resets for the next outage.
/// When either runs out the rank gives up and aborts locally.
fn link_loop(worker: &Worker<SessionUplink>) {
    let up = &worker.up;
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    let (mut connected, mut failures) = (false, 0);
    while !worker.stop.load(Ordering::Acquire) && !plock(&up.link.state).dead {
        match up.try_connect() {
            Ok((stream, epoch)) => {
                (connected, failures) = (true, 0);
                let chaos = up.chaos.as_ref();
                let deliver = |raw: &mut Vec<u8>, checked| worker.on_raw(raw, FRAME_AT, checked);
                up.link
                    .read_packets(stream, epoch, &worker.stop, chaos, deliver);
            }
            // initial connect: generous flat retry, like the raw link's
            Err(e) if !connected => {
                if Instant::now() >= deadline {
                    let addr = &up.addr;
                    let why = format!(
                        "cannot reach supervisor at {addr} within {CONNECT_TIMEOUT:?}: {e}"
                    );
                    return mark_dead(worker, why);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => {
                std::thread::sleep(RECONNECT.backoff_for(failures));
                failures += 1;
                if failures == RECONNECT.max_attempts {
                    let why = format!("supervisor unreachable after {failures} reconnect attempts");
                    return mark_dead(worker, why);
                }
            }
        }
    }
}

impl Uplink for SessionUplink {
    fn open(spawn: &Spawn) -> Result<Self, String> {
        Ok(SessionUplink {
            rank: spawn.rank as u64,
            addr: spawn.addr.clone(),
            link: Link::default(),
            chaos: spawn
                .faults
                .as_ref()
                .filter(|p| p.net_is_active())
                .map(|p| p.compile_net(spawn.rank)),
        })
    }

    fn start(worker: &Arc<Worker<Self>>, threads: &mut Vec<JoinHandle<()>>) -> Result<(), String> {
        let link = Arc::clone(worker);
        threads.push(
            std::thread::Builder::new()
                .name(format!("rank-{}-link", worker.rank))
                .spawn(move || link_loop(&link))
                .expect("spawn link thread"),
        );
        // wait for the first handshake before touching the program
        let st = worker.up.link.wait(Duration::from_millis(100), |st| {
            st.connected_once || st.dead
        });
        if st.dead {
            return Err(format!("no handshake within {CONNECT_TIMEOUT:?}"));
        }
        Ok(())
    }

    /// Sequence the frame buffer as it is: the payload is appended to
    /// the `Data` envelope, and the buffer held for retransmit.
    fn send(&self, frame: &mut Vec<u8>) -> bool {
        self.link
            .send_data(std::mem::take(frame), self.chaos.as_ref());
        true // queued; the link thread owns giving up
    }

    /// Drain: the terminal frame may have been chaos-dropped, and the
    /// next heartbeat's sequence gap is what reveals that — so this runs
    /// while the heartbeat and link threads are alive, until everything
    /// queued has been acked (or a generous deadline passes).
    fn close(&self) {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        drop(self.link.wait(Duration::from_millis(50), |st| {
            st.session.sent.is_empty() || st.dead || Instant::now() >= deadline
        }));
        self.link.retire();
    }
}

#[cfg(test)]
mod tests {
    use super::super::frame::encode_frame;
    use super::super::socket::tests::MSG_0_TO_1;
    use super::*;
    use quadforest_telemetry as telemetry;
    use std::io::Read;

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

    #[test]
    fn bad_packet_discriminant_is_typed() {
        assert!(TcpPacket::from_wire(&[200]).is_err());
    }

    #[test]
    fn session_links_carry_the_supervisor_contract() {
        process::tests::check_supervisor_contract(
            |size| SessionLinks((0..size).map(|_| Link::default()).collect()),
            // nobody is connected: everything sent waits for retransmit
            |links, rank| {
                let st = plock(&links.0[rank].state);
                st.session
                    .sent
                    .iter()
                    .map(|(_, frame)| decode_raw(frame).expect("a whole frame"))
                    .collect()
            },
        );
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
                let hello = encode_frame(&Frame::Hello { rank: 0 });
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
        let links = SessionLinks(vec![Link::default()]);
        let link = &links.0[0];
        let (epoch, _) = link.install(accepted, 0, false, None).expect("install");
        // sequence 1 while the cursor expects 0: frame 0 was lost
        let hello = encode_frame(&Frame::Hello { rank: 0 });
        worker
            .write_all(&encode_with(|out| encode_data(1, 0, &hello, out)))
            .unwrap();
        let gaps = seq_gaps();
        let stop = AtomicBool::new(false);
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

    /// Install one end of a loopback connection on `link`: returns the
    /// other end, the link's read half and its epoch.
    fn installed(link: &Link) -> (TcpStream, TcpStream, u64) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
        let peer = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        let reader = accepted.try_clone().unwrap();
        reader.set_read_timeout(Some(READ_POLL)).unwrap();
        let (epoch, _) = link.install(accepted, 0, false, None).expect("install");
        (peer, reader, epoch)
    }

    /// A `Msg` relayed by the supervisor reaches rank 1 as the sender's
    /// payload, byte for byte, behind the envelope: the session twin of
    /// the raw link's `router_forwards_the_senders_bytes_verbatim`.
    #[test]
    fn supervisor_relays_the_senders_frame_bytes() {
        let sup = Supervisor::new(2, SessionLinks((0..2).map(|_| Link::default()).collect()));
        let (mut rank0, reader, epoch) = installed(&sup.links.0[0]);
        let (mut rank1, _, _) = installed(&sup.links.0[1]);
        let packet = encode_with(|out| encode_data(0, 0, &MSG_0_TO_1, out));
        rank0.write_all(&packet).unwrap();
        rank0.shutdown(Shutdown::Write).unwrap(); // the read ends at EOF
        read_rank(&sup, 0, reader, epoch);
        sup.links.retire(1); // EOF behind what rank 1 was sent
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

    #[test]
    fn send_data_queues_while_disconnected() {
        let link = Link::default();
        link.send_data(encode_frame(&Frame::Hello { rank: 1 }), None);
        link.send_data(encode_frame(&Frame::Hello { rank: 1 }), None);
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
        link.send_data(encode_frame(&Frame::Hello { rank: 0 }), None);
        assert_eq!(plock(&link.state).session.sent.len(), 0);
    }
}
