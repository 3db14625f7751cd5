//! The session link: a process world over TCP (multi-node capable).
//!
//! The supervisor, the worker runtime and the liveness rules are
//! [`super::process`], exactly as on the Unix-socket backend; this file
//! is only how a frame reaches the peer over TCP, which brings two
//! problems Unix sockets never have: the wire can *lose or mangle
//! bytes* (a flaky interconnect, or our deterministic chaos
//! interposer), and a connection can *drop and come back*. The answer
//! is a small reliable session layer on top of the CRC framing:
//!
//! * Every [`Frame`] travels inside a [`TcpPacket::Data`] envelope
//!   carrying a per-direction **sequence number** and a cumulative
//!   **ack** (the sender's receive cursor). Receivers deliver in-order
//!   exactly once: a duplicate is dropped, a gap breaks the link.
//! * A broken link (gap, CRC mismatch, decode error, EOF, reset) is
//!   *not* a failure — the worker reconnects with bounded exponential
//!   backoff + deterministic jitter ([`TcpOptions::reconnect`], the
//!   recovery supervisor's own [`RecoveryPolicy`] machinery). The
//!   reconnect handshake (`Hello{resume}` / `HelloAck{resume}`)
//!   exchanges receive cursors; both sides prune acked frames and
//!   retransmit the rest, so the stream resumes with no loss and no
//!   duplication. The supervisor counts each resumption in
//!   `transport.reconnects`.
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
    encode_wire, encode_with, read_wire_stalling, read_wire_timeout, Frame, FrameError,
};
use super::process::{
    self, env_num, env_str, hex_encode, wire_from_hex, Job, Launch, Links, Supervisor, Uplink,
    Worker, WorkerEnv, ENV_ADDR, ENV_LINK, READ_POLL,
};
use super::TcpOptions;
use crate::fault::{NetFaults, WriteFault};
use crate::{plock, RecoveryPolicy, WorldError};
use quadforest_core::Wire;
use quadforest_telemetry as telemetry;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The worker environment's name for this link kind.
pub(super) const LINK: &str = "tcp";
// What the session link adds to the worker environment contract.
const ENV_MAX_FRAME: &str = "QF_SOCKET_MAX_FRAME";
const ENV_RECONNECT: &str = "QF_SOCKET_RECONNECT";

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

/// The encoding of [`TcpPacket::Data`], from a borrowed frame: the send
/// and replay paths frame what sits in the retransmit queue without
/// cloning it into a packet first.
fn encode_data(seq: u64, ack: u64, frame: &Frame, out: &mut Vec<u8>) {
    out.push(2);
    seq.encode(out);
    ack.encode(out);
    frame.encode(out);
}

impl Wire for TcpPacket {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TcpPacket::Hello { rank, resume } => {
                out.push(0);
                rank.encode(out);
                resume.encode(out);
            }
            TcpPacket::HelloAck { resume } => {
                out.push(1);
                resume.encode(out);
            }
            TcpPacket::Data { seq, ack, frame } => encode_data(*seq, *ack, frame, out),
            TcpPacket::Ping { ack, sent } => {
                out.push(3);
                ack.encode(out);
                sent.encode(out);
            }
        }
    }

    fn decode(
        r: &mut quadforest_core::wire::WireReader<'_>,
    ) -> Result<Self, quadforest_core::wire::WireError> {
        match u8::decode(r)? {
            0 => Ok(TcpPacket::Hello {
                rank: u64::decode(r)?,
                resume: u64::decode(r)?,
            }),
            1 => Ok(TcpPacket::HelloAck {
                resume: u64::decode(r)?,
            }),
            2 => Ok(TcpPacket::Data {
                seq: u64::decode(r)?,
                ack: u64::decode(r)?,
                frame: Frame::decode(r)?,
            }),
            3 => Ok(TcpPacket::Ping {
                ack: u64::decode(r)?,
                sent: u64::decode(r)?,
            }),
            d => Err(quadforest_core::wire::WireError::Invalid(format!(
                "TcpPacket discriminant {d}"
            ))),
        }
    }
}

/// One direction-pair of session state for a link endpoint.
struct LinkState {
    /// The live connection, `None` while broken/reconnecting.
    stream: Option<TcpStream>,
    /// Bumped on every install *and* break, so a reader or writer that
    /// raced a reconnect cannot break the successor connection.
    epoch: u64,
    /// Next sequence number to assign to an outbound frame.
    send_seq: u64,
    /// Sent but unacked frames, oldest first, for retransmission.
    sent: VecDeque<(u64, Frame)>,
    /// Receive cursor: next peer sequence number to deliver.
    recv_next: u64,
    /// Terminal: no reconnects, sends become queue-only no-ops.
    dead: bool,
    /// Whether this link ever completed a handshake.
    connected_once: bool,
}

/// A session-layer link endpoint: state + wakeup for reader/manager
/// threads and drain waiters. Both ends of a connection run the same
/// one; only the worker's has a chaos interposer to pass in.
struct Link {
    state: Mutex<LinkState>,
    cv: Condvar,
}

impl Link {
    fn new() -> Self {
        Link {
            state: Mutex::new(LinkState {
                stream: None,
                epoch: 0,
                send_seq: 0,
                sent: VecDeque::new(),
                recv_next: 0,
                dead: false,
                connected_once: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Block until `ready` holds of the state, re-checking at least
    /// every `poll` (for conditions no wakeup announces: a stop flag, a
    /// deadline).
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

    /// Drop acked entries: everything below the peer's receive cursor.
    fn prune_locked(&self, st: &mut LinkState, ack: u64) {
        let mut pruned = false;
        while st.sent.front().is_some_and(|(s, _)| *s < ack) {
            st.sent.pop_front();
            pruned = true;
        }
        if pruned {
            self.cv.notify_all();
        }
    }

    /// Sequence, queue, and (when connected) write one frame. Writes
    /// happen under the state lock in sequence order — that ordering is
    /// what makes `Ping::sent` a sound gap probe. `chaos` is the
    /// worker-side fault interposer (`None` on the supervisor).
    fn send_data(&self, frame: Frame, chaos: Option<&NetFaults>) {
        let mut st = plock(&self.state);
        if st.dead {
            return;
        }
        let seq = st.send_seq;
        // encode before any state moves: an over-cap frame panics here
        let bytes = encode_with(|out| encode_data(seq, st.recv_next, &frame, out));
        st.send_seq += 1;
        // disconnected: queued for retransmit (the chaos plan still
        // counts the frame)
        let intact = write_planned(st.stream.as_ref(), &bytes, is_data(&frame), chaos);
        st.sent.push_back((seq, frame));
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
            ack: st.recv_next,
            sent: st.send_seq,
        });
        if stream.write_all(&bytes).is_err() {
            self.break_link_locked(&mut st);
        }
    }

    /// The session receive decision for one `Data` packet read off the
    /// connection of `epoch`: in order → deliver it exactly once; a
    /// duplicate of something already delivered → drop; a gap (the wire
    /// lost frames) → break the link, forcing a resync; a packet from a
    /// connection a reconnect has superseded → ignore, `ack` included.
    fn receive(&self, epoch: u64, seq: u64, ack: u64, frame: Frame) -> Option<Frame> {
        let mut st = plock(&self.state);
        if st.epoch != epoch {
            return None;
        }
        self.prune_locked(&mut st, ack);
        match seq.cmp(&st.recv_next) {
            std::cmp::Ordering::Equal => {
                st.recv_next += 1;
                Some(frame)
            }
            std::cmp::Ordering::Greater => {
                telemetry::counter_add("comm.tcp.seq_gaps", 1);
                self.break_link_locked(&mut st);
                None
            }
            std::cmp::Ordering::Less => None,
        }
    }

    /// The supervisor's probe arrived on the worker's connection of
    /// `epoch`: frames it wrote before this ping and we never saw were
    /// lost on the wire.
    fn on_ping(&self, epoch: u64, ack: u64, sent: u64) {
        let mut st = plock(&self.state);
        if st.epoch == epoch {
            self.prune_locked(&mut st, ack);
            if sent > st.recv_next {
                telemetry::counter_add("comm.tcp.seq_gaps", 1);
                self.break_link_locked(&mut st);
            }
        }
    }

    /// A read on the connection of `epoch` failed: break the link,
    /// unless a reconnect already replaced that connection. Liveness
    /// stays with the heartbeat window — this never declares a death.
    fn read_failed(&self, epoch: u64, e: &FrameError) {
        let mut st = plock(&self.state);
        if st.epoch == epoch {
            if !matches!(e, FrameError::Eof) {
                telemetry::counter_add("comm.tcp.link_errors", 1);
            }
            self.break_link_locked(&mut st);
        }
    }

    /// The tail of a (re)connection handshake, the same on both ends and
    /// all under the state lock so no send interleaves: prune what the
    /// peer's `Hello`/`HelloAck` says it has (`peer_resume`), supersede
    /// the old connection, answer with a `HelloAck` (the accepting end
    /// only), retransmit everything still unacked, install `stream`.
    /// Returns the new epoch and whether this resumed an earlier
    /// connection.
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
        self.prune_locked(&mut st, peer_resume);
        self.break_link_locked(&mut st);
        let recv_next = st.recv_next;
        let acked = !hello_ack || {
            let ack = encode_wire(&TcpPacket::HelloAck { resume: recv_next });
            (&stream).write_all(&ack).is_ok()
        };
        let replayed = acked
            && st.sent.iter().all(|(seq, frame)| {
                let bytes = encode_with(|out| encode_data(*seq, recv_next, frame, out));
                write_planned(Some(&stream), &bytes, is_data(frame), chaos)
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

/// Heartbeats do not count towards the chaos plan's scheduled (reset,
/// partition) frame indices, so their cadence cannot shift them.
fn is_data(frame: &Frame) -> bool {
    !matches!(frame, Frame::Heartbeat { .. })
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
    fn send(&self, rank: usize, frame: Frame) {
        self.0[rank].send_data(frame, None);
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

/// Reader for one accepted connection epoch. Exits when the stream
/// errors, the epoch is superseded by a reconnect, or the world stops.
fn sup_reader_loop(
    sup: &Supervisor<SessionLinks>,
    rank: usize,
    mut stream: TcpStream,
    epoch: u64,
    max_frame: u32,
) {
    let link = &sup.links.0[rank];
    loop {
        match read_wire_stalling::<TcpPacket>(&mut stream, &sup.stop, max_frame, FRAME_STALL) {
            Ok(TcpPacket::Data { seq, ack, frame }) => {
                if let Some(frame) = link.receive(epoch, seq, ack, frame) {
                    let last = matches!(frame, Frame::Done { .. } | Frame::Failed { .. });
                    sup.on_frame(rank, frame);
                    if last {
                        // ack promptly so the worker's terminal-frame
                        // drain wait returns without waiting for the
                        // next monitor sweep
                        link.send_ping();
                    }
                }
            }
            Ok(_) => { /* Hello/HelloAck/Ping have no mid-stream meaning here */ }
            Err(FrameError::Stopped) => return,
            Err(e) => return link.read_failed(epoch, &e),
        }
    }
}

/// Handshake one accepted connection: identify the rank, exchange
/// receive cursors, retransmit unacked frames, install the stream, and
/// hand it to a fresh reader thread.
fn handshake_accept(
    sup: &Arc<Supervisor<SessionLinks>>,
    mut stream: TcpStream,
    max_frame: u32,
) -> Option<JoinHandle<()>> {
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(READ_POLL)).ok()?;
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let hello = read_wire_timeout::<TcpPacket>(&mut stream, HANDSHAKE_TIMEOUT, max_frame);
    let Ok(TcpPacket::Hello { rank, resume }) = hello else {
        return None; // not a worker (or its Hello was eaten by chaos)
    };
    let rank = rank as usize;
    if rank >= sup.size || sup.is_terminal(rank) {
        return None; // unknown or already-terminal rank: refuse resurrection
    }
    let reader_stream = stream.try_clone().ok()?;
    let (epoch, resumed) = sup.links.0[rank].install(stream, resume, true, None).ok()?;
    if resumed {
        telemetry::global().counter("transport.reconnects").incr();
    }
    // a resumed connection proves the process is alive right now
    sup.beat(rank);
    let sup = Arc::clone(sup);
    std::thread::Builder::new()
        .name(format!("tcp-read-{rank}-e{epoch}"))
        .spawn(move || sup_reader_loop(&sup, rank, reader_stream, epoch, max_frame))
        .ok()
}

/// Persistent accept loop: workers connect here both at startup and on
/// every reconnect. Joins the readers it started once the world stops.
fn accept_loop(sup: &Arc<Supervisor<SessionLinks>>, listener: TcpListener, max_frame: u32) {
    let mut readers = Vec::new();
    while !sup.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => readers.extend(handshake_accept(sup, stream, max_frame)),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    for reader in readers {
        let _ = reader.join();
    }
}

/// Run `job` across worker processes over TCP. What it adds to the
/// process world is the persistent accept loop that lets workers
/// reconnect mid-run.
pub(crate) fn run_world(job: &Job, tcp: &TcpOptions) -> Result<Vec<Vec<u8>>, WorldError> {
    let listener = TcpListener::bind(("127.0.0.1", 0))
        .unwrap_or_else(|e| panic!("bind tcp listener on loopback: {e}"));
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    let launch = Launch {
        worker: &tcp.worker,
        heartbeat_interval: tcp.heartbeat_interval,
        heartbeat_grace: tcp.heartbeat_grace,
        connect_timeout: tcp.connect_timeout,
    };
    let link_env = [
        (ENV_LINK, LINK.to_string()),
        (
            ENV_ADDR,
            listener.local_addr().expect("listener addr").to_string(),
        ),
        (ENV_MAX_FRAME, tcp.max_frame_len.to_string()),
        (ENV_RECONNECT, hex_encode(&tcp.reconnect.to_wire())),
    ];
    let max_frame = tcp.max_frame_len;
    process::run_world(
        job,
        &launch,
        SessionLinks((0..job.size).map(|_| Link::new()).collect()),
        &link_env,
        |sup, deadline, threads| {
            // initial connections AND reconnects
            let accept = Arc::clone(sup);
            threads.push(
                std::thread::Builder::new()
                    .name("tcp-accept".into())
                    .spawn(move || accept_loop(&accept, listener, max_frame))
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

/// The worker's end of the session link, plus the chaos interposer
/// and the reconnect policy.
pub(super) struct SessionUplink {
    rank: u64,
    addr: String,
    link: Link,
    /// Deterministic network-chaos interposer; `None` when the fault
    /// plan has no network ops.
    chaos: Option<NetFaults>,
    policy: RecoveryPolicy,
    max_frame: u32,
    connect_timeout: Duration,
}

impl SessionUplink {
    /// One connect + handshake + replay round. On success the stream
    /// is installed and the reader picks it up.
    fn try_connect(&self) -> Result<(), String> {
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
            resume: plock(&self.link.state).recv_next,
        };
        let chaos = self.chaos.as_ref();
        if !write_planned(Some(&stream), &encode_wire(&hello), false, chaos) {
            return Err("handshake: Hello write failed or reset".into());
        }
        let mut rs = stream.try_clone().map_err(|e| e.to_string())?;
        let ack = read_wire_timeout::<TcpPacket>(&mut rs, HANDSHAKE_TIMEOUT, self.max_frame)
            .map_err(|e| e.to_string())?;
        if chaos.is_some_and(|c| c.drop_inbound()) {
            return Err("chaos: inbound partition ate the handshake ack".into());
        }
        let TcpPacket::HelloAck { resume } = ack else {
            return Err("handshake: unexpected packet in place of HelloAck".into());
        };
        self.link.install(stream, resume, false, chaos).map(drop)
    }
}

/// Give up on the supervisor: the link is terminally dead, blocked
/// receives unwind, and the heartbeat window on the other side
/// escalates to the recovery supervisor.
fn mark_dead(worker: &Worker<SessionUplink>, reason: String) {
    worker.up.link.retire();
    worker.local_abort(usize::MAX, reason);
}

/// Persistent worker reader: waits for a live connection epoch, reads
/// packets until it breaks, repeats. The in-direction chaos check runs
/// *before* any cursor moves, so a chaos-dropped packet looks exactly
/// like a wire loss and heals by retransmission.
fn child_reader_loop(worker: &Worker<SessionUplink>) {
    let up = &worker.up;
    let stopped = || worker.stop.load(Ordering::Acquire);
    loop {
        let (mut stream, epoch) = {
            let mut st = up.link.wait(Duration::from_millis(100), |st| {
                st.stream.is_some() || st.dead || stopped()
            });
            if st.dead || stopped() {
                return;
            }
            match st.stream.as_ref().expect("waited for it").try_clone() {
                Ok(stream) => (stream, st.epoch),
                Err(_) => {
                    up.link.break_link_locked(&mut st);
                    continue;
                }
            }
        };
        loop {
            match read_wire_stalling(&mut stream, &worker.stop, up.max_frame, FRAME_STALL) {
                Ok(_) if up.chaos.as_ref().is_some_and(|c| c.drop_inbound()) => {
                    // severed in-direction: the wire ate it
                }
                Ok(TcpPacket::Data { seq, ack, frame }) => {
                    if let Some(frame) = up.link.receive(epoch, seq, ack, frame) {
                        worker.on_frame(frame);
                    }
                }
                Ok(TcpPacket::Ping { ack, sent }) => up.link.on_ping(epoch, ack, sent),
                Ok(_) => {}
                Err(FrameError::Stopped) => return,
                Err(e) => {
                    up.link.read_failed(epoch, &e);
                    break; // back to waiting for the next epoch
                }
            }
        }
    }
}

/// Connection manager: initial connect within the connect deadline,
/// then reconnect-with-backoff on every break until the reconnect
/// schedule is exhausted (→ the rank gives up and aborts locally).
fn child_manager_loop(worker: &Worker<SessionUplink>) {
    let up = &worker.up;
    let stopped = || worker.stop.load(Ordering::Acquire);
    // initial connect: generous flat retry, like the raw link's
    let deadline = Instant::now() + up.connect_timeout;
    while let Err(e) = up.try_connect() {
        if Instant::now() >= deadline {
            return mark_dead(
                worker,
                format!(
                    "cannot reach supervisor at {} within {:?}: {e}",
                    up.addr, up.connect_timeout
                ),
            );
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // steady state: sleep until the link breaks, then run the backoff
    // schedule; a success resets the schedule for the next outage
    loop {
        let st = up.link.wait(Duration::from_millis(100), |st| {
            st.stream.is_none() || st.dead || stopped()
        });
        if st.dead || stopped() {
            return;
        }
        drop(st);
        let mut reconnected = false;
        for attempt in 0..up.policy.max_attempts {
            if stopped() {
                return;
            }
            if up.try_connect().is_ok() {
                telemetry::counter_add("comm.tcp.child_reconnects", 1);
                reconnected = true;
                break;
            }
            std::thread::sleep(up.policy.backoff_for(attempt));
        }
        if !reconnected {
            return mark_dead(
                worker,
                format!(
                    "supervisor unreachable after {} reconnect attempts",
                    up.policy.max_attempts
                ),
            );
        }
    }
}

impl Uplink for SessionUplink {
    fn open(env: &WorkerEnv) -> Result<Self, String> {
        Ok(SessionUplink {
            rank: env.rank as u64,
            addr: env.addr.clone(),
            link: Link::new(),
            chaos: env
                .faults
                .as_ref()
                .filter(|p| p.net_is_active())
                .map(|p| p.compile_net(env.rank)),
            policy: wire_from_hex(ENV_RECONNECT, &env_str(ENV_RECONNECT)),
            max_frame: env_num(ENV_MAX_FRAME) as u32,
            connect_timeout: env.connect_timeout,
        })
    }

    fn start(worker: &Arc<Worker<Self>>, threads: &mut Vec<JoinHandle<()>>) -> Result<(), String> {
        let rank = worker.rank;
        for (name, run) in [
            ("manager", child_manager_loop as fn(&Worker<Self>)),
            ("reader", child_reader_loop),
        ] {
            let worker = Arc::clone(worker);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rank-{rank}-{name}"))
                    .spawn(move || run(&worker))
                    .expect("spawn link thread"),
            );
        }
        // wait for the first handshake before touching the program
        let st = worker.up.link.wait(Duration::from_millis(100), |st| {
            st.connected_once || st.dead
        });
        if st.dead {
            return Err(format!(
                "no handshake within {:?}",
                worker.up.connect_timeout
            ));
        }
        Ok(())
    }

    fn send(&self, frame: Frame) -> bool {
        self.link.send_data(frame, self.chaos.as_ref());
        true // queued; the reconnect manager owns giving up
    }

    /// Drain: the terminal frame may have been chaos-dropped, and the
    /// next heartbeat's sequence gap is what reveals that — so this runs
    /// while the heartbeat, reader, and manager threads are alive, until
    /// everything queued has been acked (or a generous deadline passes).
    fn close(&self) {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        drop(self.link.wait(Duration::from_millis(50), |st| {
            st.sent.is_empty() || st.dead || Instant::now() >= deadline
        }));
        // surface the chaos interposer's activity in this process's registry
        for (name, v) in self.chaos.iter().flat_map(|c| c.counters()) {
            if v > 0 {
                telemetry::counter_add(name, v);
            }
        }
        self.link.retire();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn bad_packet_discriminant_is_typed() {
        assert!(TcpPacket::from_wire(&[200]).is_err());
    }

    #[test]
    fn session_links_carry_the_supervisor_contract() {
        process::tests::check_supervisor_contract(
            |size| SessionLinks((0..size).map(|_| Link::new()).collect()),
            // nobody is connected: everything sent waits for retransmit
            |links, rank| {
                let st = plock(&links.0[rank].state);
                st.sent.iter().map(|(_, frame)| frame.clone()).collect()
            },
        );
    }

    /// The one receive decision, with no socket: a link at epoch 3
    /// that expects sequence 5 and has 0..5 of its own unacked.
    #[test]
    fn receive_decision_table() {
        struct Case {
            name: &'static str,
            epoch: u64,
            seq: u64,
            ack: u64,
            delivered: bool,
            recv_next: u64,
            /// The link was broken (which is what bumps the epoch).
            broke: bool,
            unacked: std::ops::Range<u64>,
        }
        let cases = [
            Case {
                name: "in order: deliver, and prune on the carried ack",
                epoch: 3,
                seq: 5,
                ack: 2,
                delivered: true,
                recv_next: 6,
                broke: false,
                unacked: 2..5,
            },
            Case {
                name: "duplicate: drop (its ack still counts)",
                epoch: 3,
                seq: 4,
                ack: 3,
                delivered: false,
                recv_next: 5,
                broke: false,
                unacked: 3..5,
            },
            Case {
                name: "gap: break the link",
                epoch: 3,
                seq: 7,
                ack: 2,
                delivered: false,
                recv_next: 5,
                broke: true,
                unacked: 2..5,
            },
            Case {
                name: "stale epoch: ignore, ack included",
                epoch: 2,
                seq: 5,
                ack: 4,
                delivered: false,
                recv_next: 5,
                broke: false,
                unacked: 0..5,
            },
        ];
        for case in cases {
            let name = case.name;
            let link = Link::new();
            {
                let mut st = plock(&link.state);
                st.epoch = 3;
                st.recv_next = 5;
                st.sent = (0..5).map(|seq| (seq, Frame::Hello { rank: 0 })).collect();
            }
            let frame = Frame::Hello { rank: 9 };
            let got = link.receive(case.epoch, case.seq, case.ack, frame.clone());
            assert_eq!(got, case.delivered.then_some(frame), "{name}");
            let st = plock(&link.state);
            assert_eq!(st.recv_next, case.recv_next, "{name}: receive cursor");
            assert_eq!(st.epoch, 3 + case.broke as u64, "{name}: epoch");
            let unacked: Vec<u64> = st.sent.iter().map(|(seq, _)| *seq).collect();
            assert_eq!(unacked, case.unacked.collect::<Vec<_>>(), "{name}: unacked");
        }
    }

    #[test]
    fn prune_drops_only_acked_entries() {
        let link = Link::new();
        {
            let mut st = plock(&link.state);
            for seq in 0..5u64 {
                st.sent.push_back((seq, Frame::Hello { rank: 0 }));
            }
            link.prune_locked(&mut st, 3);
            let left: Vec<u64> = st.sent.iter().map(|(s, _)| *s).collect();
            assert_eq!(left, vec![3, 4]);
            link.prune_locked(&mut st, 3);
            assert_eq!(st.sent.len(), 2);
            link.prune_locked(&mut st, 100);
            assert!(st.sent.is_empty());
        }
    }

    #[test]
    fn send_data_queues_while_disconnected() {
        let link = Link::new();
        link.send_data(Frame::Hello { rank: 1 }, None);
        link.send_data(Frame::Hello { rank: 1 }, None);
        let st = plock(&link.state);
        assert_eq!(st.send_seq, 2);
        let seqs: Vec<u64> = st.sent.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn dead_link_refuses_new_frames() {
        let link = Link::new();
        {
            let mut st = plock(&link.state);
            st.dead = true;
        }
        link.send_data(Frame::Hello { rank: 0 }, None);
        assert_eq!(plock(&link.state).sent.len(), 0);
    }
}
