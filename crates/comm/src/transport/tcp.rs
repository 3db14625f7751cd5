//! The TCP (multi-node-capable) process-per-rank backend.
//!
//! Same star topology as the Unix-socket backend — a supervisor binds
//! a listener, spawns one worker process per rank, and routes every
//! rank-to-rank message through itself — but over TCP, which brings
//! two problems Unix sockets never have: the wire can *lose or mangle
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
//! **Liveness is unchanged from the socket backend**: workers
//! heartbeat; the supervisor's monitor declares a rank dead only after
//! a full missed-heartbeat window. A connection that drops and heals
//! inside the window therefore resumes with **no** `PeerFailed` and no
//! recovery attempt, while a true partition (reconnects exhausted, or
//! the window elapsing with no resumed heartbeats) or a SIGKILL
//! escalates to [`run_with_recovery_program`] exactly like sockets —
//! including the flight-recorder postmortem naming the victim's last
//! comm op. Wire corruption injected by the chaos interposer
//! ([`FaultPlan::with_net_corruption`] and friends) is caught by the
//! frame CRC and surfaces as a link break + retransmit, never a panic.
//!
//! [`run_with_recovery_program`]: crate::run_with_recovery_program
//! [`FaultPlan::with_net_corruption`]: crate::FaultPlan::with_net_corruption
//! [`RecoveryPolicy`]: crate::RecoveryPolicy

use super::frame::{
    encode_wire, encode_with, read_wire_stalling, read_wire_timeout, Frame, FrameError,
};
use super::socket::{hex_decode, hex_encode};
use super::{ProgramCtx, ProgramRegistry, TcpOptions};
use crate::fault::{NetFaults, WriteFault};
use crate::{
    plock, AbortInfo, Attempt, Comm, CommError, Mailbox, Msg, Payload, RankError, RankFailure,
    RankState, RecoveryPolicy, RunOptions, Transport, WorldError,
};
use quadforest_core::Wire;
use quadforest_telemetry as telemetry;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

// Environment contract between supervisor and worker processes,
// mirroring the QF_SOCKET_* contract.
const ENV_ADDR: &str = "QF_TCP_ADDR";
const ENV_RANK: &str = "QF_TCP_RANK";
const ENV_SIZE: &str = "QF_TCP_SIZE";
const ENV_PROGRAM: &str = "QF_TCP_PROGRAM";
const ENV_ARGS: &str = "QF_TCP_ARGS";
const ENV_RECV_TIMEOUT_MS: &str = "QF_TCP_RECV_TIMEOUT_MS";
const ENV_HEARTBEAT_MS: &str = "QF_TCP_HEARTBEAT_MS";
const ENV_ATTEMPT: &str = "QF_TCP_ATTEMPT";
const ENV_FAULTS: &str = "QF_TCP_FAULTS";
const ENV_MAX_FRAME: &str = "QF_TCP_MAX_FRAME";
const ENV_RECONNECT: &str = "QF_TCP_RECONNECT";

/// Poll granularity for stop-flag checks inside blocking reads.
const READ_POLL: Duration = Duration::from_millis(25);
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
/// threads and drain waiters.
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

    /// Sever the connection (if any) and wake waiters. The epoch bump
    /// invalidates every thread still holding the old connection.
    fn break_link_locked(&self, st: &mut LinkState) {
        if let Some(s) = st.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        st.epoch += 1;
        self.cv.notify_all();
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
        let is_data = !matches!(frame, Frame::Heartbeat { .. });
        st.sent.push_back((seq, frame));
        let fault = chaos
            .map(|c| c.plan_write(bytes.len(), is_data))
            .unwrap_or_default();
        let wrote = match st.stream.as_ref() {
            Some(stream) => apply_write_fault(stream, &bytes, &fault),
            None => Ok(()), // disconnected: queued for retransmit
        };
        if wrote.is_err() || (st.stream.is_some() && fault.reset_after) {
            self.break_link_locked(&mut st);
        }
    }

    /// Supervisor-side probe: ack what we have, advertise what we sent.
    fn send_ping(&self) {
        let mut st = plock(&self.state);
        if st.stream.is_none() {
            return;
        }
        let bytes = encode_wire(&TcpPacket::Ping {
            ack: st.recv_next,
            sent: st.send_seq,
        });
        let ok = {
            let mut stream = st.stream.as_ref().expect("checked above");
            stream.write_all(&bytes).is_ok()
        };
        if !ok {
            self.break_link_locked(&mut st);
        }
    }
}

/// Write `bytes` to `stream`, filtered through one frame's chaos
/// decisions: delay, silent drop, single-bit corruption, chunked
/// partial writes, bandwidth pacing. `reset_after` is left to the
/// caller (it must sever the link *after* the write).
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
    if let Some(t) = fault.throttle {
        std::thread::sleep(t);
    }
    Ok(())
}

// ----------------------------------------------------------------------
// supervisor side
// ----------------------------------------------------------------------

type RankResult = Result<Vec<u8>, RankError>;

/// Shared supervisor state: one session link per rank plus the same
/// liveness/result bookkeeping as the socket backend's `Router`.
struct TcpRouter {
    size: usize,
    links: Vec<Link>,
    last_beat: Vec<Mutex<Instant>>,
    last_ctx: Vec<Mutex<(u64, String)>>,
    terminal: Vec<AtomicBool>,
    results: Mutex<Vec<Option<RankResult>>>,
    abort: Mutex<Option<AbortInfo>>,
    children: Mutex<Vec<Option<std::process::Child>>>,
    stop: AtomicBool,
    done: Mutex<usize>,
    done_cv: Condvar,
}

impl TcpRouter {
    fn new(size: usize) -> Self {
        TcpRouter {
            size,
            links: (0..size).map(|_| Link::new()).collect(),
            last_beat: (0..size).map(|_| Mutex::new(Instant::now())).collect(),
            last_ctx: (0..size)
                .map(|_| Mutex::new((u64::MAX, String::new())))
                .collect(),
            terminal: (0..size).map(|_| AtomicBool::new(false)).collect(),
            results: Mutex::new((0..size).map(|_| None).collect()),
            abort: Mutex::new(None),
            children: Mutex::new((0..size).map(|_| None).collect()),
            stop: AtomicBool::new(false),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
        }
    }

    /// Record the first failure and broadcast it to every non-terminal
    /// rank. The abort travels sequenced, so a rank that is mid-
    /// reconnect still gets it after the handshake retransmit.
    fn record_abort(&self, origin: usize, reason: String) {
        {
            let mut info = plock(&self.abort);
            if info.is_some() {
                return;
            }
            *info = Some(AbortInfo {
                origin,
                reason: reason.clone(),
            });
        }
        for r in 0..self.size {
            if !self.terminal[r].load(Ordering::Acquire) {
                self.links[r].send_data(
                    Frame::Abort {
                        origin: origin as u64,
                        reason: reason.clone(),
                    },
                    None,
                );
            }
        }
    }

    fn finish(&self, rank: usize, outcome: RankResult) {
        {
            let mut results = plock(&self.results);
            if results[rank].is_some() {
                return;
            }
            results[rank] = Some(outcome);
        }
        self.terminal[rank].store(true, Ordering::Release);
        let mut done = plock(&self.done);
        *done += 1;
        self.done_cv.notify_all();
    }

    fn kill_child(&self, rank: usize) {
        if let Some(child) = plock(&self.children)[rank].as_mut() {
            let _ = child.kill();
        }
    }

    /// See `Router::flight_peer_failed` on the socket backend.
    fn flight_peer_failed(&self, rank: usize, op: u64, phase: &str) {
        if !telemetry::flight::armed() {
            return;
        }
        let phase = if phase.is_empty() { "?" } else { phase };
        telemetry::flight::event(
            telemetry::flight::FlightKind::PeerFailed,
            rank as u32,
            if op == u64::MAX { 0 } else { op },
            telemetry::flight::name_id(phase) as u64,
        );
        telemetry::flight::dump_postmortem(telemetry::flight::NO_RANK);
    }

    /// Declare `rank` dead: record first, then kill. Also retires the
    /// link so a zombie reconnect cannot resurrect the rank.
    fn declare_dead(&self, rank: usize, reason: String) {
        telemetry::counter_add("comm.peer_failures", 1);
        let (op, phase) = plock(&self.last_ctx[rank]).clone();
        let reason = if op != u64::MAX {
            format!(
                "{reason}; last heartbeat reported comm op {op} in phase '{}'",
                if phase.is_empty() {
                    "?"
                } else {
                    phase.as_str()
                }
            )
        } else {
            reason
        };
        self.flight_peer_failed(rank, op, &phase);
        self.record_abort(rank, reason.clone());
        self.finish(
            rank,
            Err(RankError::Failed(CommError::PeerFailed { rank, reason })),
        );
        {
            let link = &self.links[rank];
            let mut st = plock(&link.state);
            st.dead = true;
            link.break_link_locked(&mut st);
        }
        self.kill_child(rank);
    }
}

/// Dispatch one delivered (in-order, deduplicated) frame from `rank`.
/// Mirrors the socket backend's reader dispatch.
fn sup_handle_frame(router: &TcpRouter, rank: usize, frame: Frame) {
    match frame {
        Frame::Msg {
            src,
            dst,
            tag,
            type_tag,
            bytes,
            data,
        } => {
            let dst_usize = dst as usize;
            if src as usize != rank || dst_usize >= router.size {
                router.declare_dead(
                    rank,
                    format!(
                        "rank {rank} sent a corrupt route (src={src} dst={dst}, size {})",
                        router.size
                    ),
                );
                return;
            }
            router.links[dst_usize].send_data(
                Frame::Msg {
                    src,
                    dst,
                    tag,
                    type_tag,
                    bytes,
                    data,
                },
                None,
            );
        }
        Frame::Heartbeat { op, phase, .. } => {
            telemetry::counter_add("comm.heartbeat.received", 1);
            *plock(&router.last_beat[rank]) = Instant::now();
            *plock(&router.last_ctx[rank]) = (op, phase);
        }
        Frame::Abort { origin, reason } => {
            router.record_abort(origin as usize, reason);
        }
        Frame::Done { result, .. } => {
            router.finish(rank, Ok(result));
            // ack promptly so the worker's terminal-frame drain wait
            // returns without waiting for the next monitor sweep
            router.links[rank].send_ping();
        }
        Frame::Failed {
            panicked,
            reason,
            error,
            ..
        } => {
            router.record_abort(rank, reason.clone());
            let rank_error = if panicked {
                RankError::Panicked(reason)
            } else {
                RankError::Failed(error.unwrap_or(CommError::PeerFailed { rank, reason }))
            };
            router.finish(rank, Err(rank_error));
            router.links[rank].send_ping();
        }
        Frame::RequestKill { op, .. } => {
            telemetry::counter_add("comm.sigkill.injected", 1);
            let phase = plock(&router.last_ctx[rank]).1.clone();
            router.flight_peer_failed(rank, op, &phase);
            let reason =
                format!("fault injection: scheduled SIGKILL at comm op {op} on rank {rank}");
            router.record_abort(rank, reason.clone());
            router.finish(
                rank,
                Err(RankError::Failed(CommError::PeerFailed { rank, reason })),
            );
            router.kill_child(rank);
        }
        Frame::Hello { .. } => { /* protocol violation; harmless */ }
    }
}

/// Reader for one accepted connection epoch. Exits when the stream
/// errors, the epoch is superseded by a reconnect, or the world stops.
/// A read error *breaks the link* (liveness stays with the monitor's
/// heartbeat window) — it never declares the rank dead by itself.
fn sup_reader_loop(
    router: &TcpRouter,
    rank: usize,
    mut stream: TcpStream,
    epoch: u64,
    max_frame: u32,
) {
    loop {
        match read_wire_stalling::<TcpPacket>(&mut stream, &router.stop, max_frame, FRAME_STALL) {
            Ok(TcpPacket::Data { seq, ack, frame }) => {
                let link = &router.links[rank];
                let deliver = {
                    let mut st = plock(&link.state);
                    if st.epoch != epoch {
                        return; // a reconnect superseded this stream
                    }
                    link.prune_locked(&mut st, ack);
                    if seq == st.recv_next {
                        st.recv_next += 1;
                        Some(frame)
                    } else if seq > st.recv_next {
                        // the wire lost frames; force a resync
                        telemetry::counter_add("comm.tcp.seq_gaps", 1);
                        link.break_link_locked(&mut st);
                        None
                    } else {
                        None // duplicate of an already-delivered frame
                    }
                };
                if let Some(frame) = deliver {
                    sup_handle_frame(router, rank, frame);
                }
            }
            Ok(_) => { /* Hello/HelloAck/Ping have no mid-stream meaning here */ }
            Err(FrameError::Stopped) => return,
            Err(e) => {
                let link = &router.links[rank];
                let mut st = plock(&link.state);
                if st.epoch == epoch {
                    if !matches!(e, FrameError::Eof) {
                        telemetry::counter_add("comm.tcp.link_errors", 1);
                    }
                    link.break_link_locked(&mut st);
                }
                return;
            }
        }
    }
}

/// Handshake one accepted connection: identify the rank, exchange
/// receive cursors, retransmit unacked frames, install the stream, and
/// hand it to a fresh reader thread.
fn handshake_accept(router: &Arc<TcpRouter>, mut stream: TcpStream, opts: &TcpOptions) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let hello = read_wire_timeout::<TcpPacket>(&mut stream, HANDSHAKE_TIMEOUT, opts.max_frame_len);
    let Ok(TcpPacket::Hello { rank, resume }) = hello else {
        return; // not a worker (or its Hello was eaten by chaos)
    };
    let rank = rank as usize;
    if rank >= router.size || router.terminal[rank].load(Ordering::Acquire) {
        return; // unknown or already-terminal rank: refuse resurrection
    }
    let link = &router.links[rank];
    let installed = {
        let mut st = plock(&link.state);
        if st.dead {
            return;
        }
        link.prune_locked(&mut st, resume);
        if let Some(old) = st.stream.take() {
            let _ = old.shutdown(Shutdown::Both);
        }
        // ack + replay, all under the lock so no send interleaves
        let ack = encode_wire(&TcpPacket::HelloAck {
            resume: st.recv_next,
        });
        if (&stream).write_all(&ack).is_err() {
            st.epoch += 1;
            return;
        }
        let recv_next = st.recv_next;
        let mut replay_failed = false;
        for (seq, frame) in st.sent.iter() {
            let bytes = encode_with(|out| encode_data(*seq, recv_next, frame, out));
            if (&stream).write_all(&bytes).is_err() {
                replay_failed = true;
                break;
            }
        }
        if replay_failed {
            let _ = stream.shutdown(Shutdown::Both);
            st.epoch += 1;
            return;
        }
        let Ok(reader_stream) = stream.try_clone() else {
            let _ = stream.shutdown(Shutdown::Both);
            st.epoch += 1;
            return;
        };
        if st.connected_once {
            // Record in the process-global registry: supervisor threads
            // have no per-rank recorder, and tests assert on this
            // counter from the supervising process.
            telemetry::global().counter("transport.reconnects").incr();
            telemetry::counter_add("transport.reconnects", 1);
        }
        st.connected_once = true;
        st.stream = Some(stream);
        st.epoch += 1;
        // a resumed connection proves the process is alive right now
        *plock(&router.last_beat[rank]) = Instant::now();
        link.cv.notify_all();
        (st.epoch, reader_stream)
    };
    let (epoch, reader_stream) = installed;
    let router_r = Arc::clone(router);
    let max_frame = opts.max_frame_len;
    let _ = std::thread::Builder::new()
        .name(format!("tcp-read-{rank}-e{epoch}"))
        .spawn(move || sup_reader_loop(&router_r, rank, reader_stream, epoch, max_frame));
}

/// Persistent accept loop: workers connect here both at startup and on
/// every reconnect.
fn accept_loop(router: &Arc<TcpRouter>, listener: TcpListener, opts: &TcpOptions) {
    loop {
        if router.stop.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => handshake_accept(router, stream, opts),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Liveness monitor: ping-probe every connected rank (terminal ones
/// included, so a finished worker's Done gets acked), then sweep
/// non-terminal ranks for missed-heartbeat windows, then enforce the
/// global wall-clock backstop.
fn tcp_monitor_loop(router: &TcpRouter, opts: &TcpOptions, hard_deadline: Instant) {
    let window = opts.death_window();
    let sweep = (opts.heartbeat_interval / 2).max(Duration::from_millis(5));
    loop {
        if router.stop.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(sweep);
        for link in &router.links {
            link.send_ping();
        }
        let now = Instant::now();
        for rank in 0..router.size {
            if router.terminal[rank].load(Ordering::Acquire) {
                continue;
            }
            let last = *plock(&router.last_beat[rank]);
            if now.duration_since(last) > window {
                telemetry::counter_add("comm.heartbeat.missed", 1);
                router.declare_dead(
                    rank,
                    format!(
                        "rank {rank} missed its heartbeat window \
                         ({}×{:?} with no beat)",
                        opts.heartbeat_grace, opts.heartbeat_interval
                    ),
                );
            }
        }
        if now >= hard_deadline {
            for rank in 0..router.size {
                if !router.terminal[rank].load(Ordering::Acquire) {
                    router.declare_dead(
                        rank,
                        format!("rank {rank} still running at the supervisor deadline"),
                    );
                }
            }
            return;
        }
    }
}

/// Run `program` across `size` worker processes over TCP. Mirrors
/// `run_socket_world` in shape and failure reporting; the differences
/// are the session layer and the persistent accept loop that lets
/// workers reconnect mid-run.
pub(crate) fn run_tcp_world(
    size: usize,
    opts: &RunOptions,
    tcp: &TcpOptions,
    program: &str,
    args: &[u8],
    attempt: Attempt,
) -> Result<Vec<Vec<u8>>, WorldError> {
    assert!(size > 0);
    telemetry::flight::arm();
    let listener = TcpListener::bind(("127.0.0.1", 0))
        .unwrap_or_else(|e| panic!("bind tcp listener on loopback: {e}"));
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    let addr = listener.local_addr().expect("listener addr").to_string();

    let router = Arc::new(TcpRouter::new(size));

    for rank in 0..size {
        let mut cmd = Command::new(&tcp.worker);
        cmd.env(ENV_ADDR, &addr)
            .env(ENV_RANK, rank.to_string())
            .env(ENV_SIZE, size.to_string())
            .env(ENV_PROGRAM, program)
            .env(ENV_ARGS, hex_encode(args))
            .env(
                ENV_RECV_TIMEOUT_MS,
                opts.recv_timeout.as_millis().to_string(),
            )
            .env(
                ENV_HEARTBEAT_MS,
                tcp.heartbeat_interval.as_millis().max(1).to_string(),
            )
            .env(ENV_ATTEMPT, attempt.index.to_string())
            .env(ENV_MAX_FRAME, tcp.max_frame_len.to_string())
            .env(ENV_RECONNECT, hex_encode(&tcp.reconnect.to_wire()))
            .stdin(Stdio::null());
        if let Some(dir) = telemetry::flight::postmortem_dir() {
            cmd.env(telemetry::flight::ENV_FLIGHT_DIR, &dir);
        }
        if let Some(plan) = &opts.faults {
            cmd.env(ENV_FAULTS, hex_encode(&plan.to_wire()));
        }
        match cmd.spawn() {
            Ok(child) => plock(&router.children)[rank] = Some(child),
            Err(e) => panic!("spawn worker {} for rank {rank}: {e}", tcp.worker.display()),
        }
    }

    // persistent accept thread: initial connections AND reconnects
    let accept = {
        let router_a = Arc::clone(&router);
        let tcp_a = tcp.clone();
        std::thread::Builder::new()
            .name("tcp-accept".into())
            .spawn(move || accept_loop(&router_a, listener, &tcp_a))
            .expect("spawn accept")
    };

    // startup: wait for every rank's first handshake
    let connect_deadline = Instant::now() + tcp.connect_timeout;
    loop {
        let connected = router
            .links
            .iter()
            .filter(|l| plock(&l.state).connected_once)
            .count();
        if connected == size {
            break;
        }
        if Instant::now() >= connect_deadline {
            router.stop.store(true, Ordering::Release);
            let mut failures = Vec::new();
            for (rank, link) in router.links.iter().enumerate() {
                if !plock(&link.state).connected_once {
                    router.kill_child(rank);
                    failures.push(RankFailure {
                        rank,
                        error: RankError::Failed(CommError::PeerFailed {
                            rank,
                            reason: format!(
                                "worker never connected within {:?}",
                                tcp.connect_timeout
                            ),
                        }),
                    });
                }
            }
            for child in plock(&router.children).iter_mut().flatten() {
                let _ = child.kill();
                let _ = child.wait();
            }
            let _ = accept.join();
            let origin = failures[0].rank;
            return Err(WorldError {
                size,
                origin,
                reason: format!(
                    "worker for rank {origin} never connected within {:?}",
                    tcp.connect_timeout
                ),
                failures,
            });
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let hard_deadline = Instant::now() + opts.recv_timeout + opts.recv_timeout + tcp.death_window();
    let monitor = {
        let router_m = Arc::clone(&router);
        let tcp_m = tcp.clone();
        std::thread::Builder::new()
            .name("tcp-monitor".into())
            .spawn(move || tcp_monitor_loop(&router_m, &tcp_m, hard_deadline))
            .expect("spawn monitor")
    };

    // wait until every rank is terminal
    {
        let mut done = plock(&router.done);
        while *done < size {
            let (d, timed_out) = router
                .done_cv
                .wait_timeout(done, Duration::from_millis(500))
                .unwrap_or_else(|p| p.into_inner());
            done = d;
            if timed_out.timed_out() && Instant::now() > hard_deadline + Duration::from_secs(10) {
                drop(done);
                for rank in 0..size {
                    if !router.terminal[rank].load(Ordering::Acquire) {
                        router.declare_dead(rank, format!("rank {rank}: supervisor gave up"));
                    }
                }
                done = plock(&router.done);
            }
        }
    }

    // teardown
    router.stop.store(true, Ordering::Release);
    for link in &router.links {
        let mut st = plock(&link.state);
        st.dead = true;
        link.break_link_locked(&mut st);
    }
    let _ = accept.join();
    let _ = monitor.join();
    for child in plock(&router.children).iter_mut().flatten() {
        let _ = child.kill();
        let _ = child.wait();
    }

    let results = std::mem::take(&mut *plock(&router.results));
    let mut values = Vec::with_capacity(size);
    let mut failures = Vec::new();
    for (rank, outcome) in results.into_iter().enumerate() {
        match outcome.expect("every rank terminal") {
            Ok(v) => values.push(v),
            Err(error) => failures.push(RankFailure { rank, error }),
        }
    }
    if failures.is_empty() {
        Ok(values)
    } else {
        let (origin, reason) = plock(&router.abort)
            .clone()
            .map(|i| (i.origin, i.reason))
            .unwrap_or_else(|| (failures[0].rank, failures[0].error.to_string()));
        Err(WorldError {
            size,
            origin,
            reason,
            failures,
        })
    }
}

// ----------------------------------------------------------------------
// worker (child) side
// ----------------------------------------------------------------------

/// The worker half of a TCP world: the socket backend's `ChildLink`
/// plus a session link, the chaos interposer, and reconnect policy.
struct TcpChildLink {
    rank: usize,
    size: usize,
    recv_timeout: Duration,
    addr: String,
    inbox: Mailbox,
    aborted: AtomicBool,
    abort: Mutex<Option<AbortInfo>>,
    link: Link,
    /// Deterministic network-chaos interposer; `None` when the fault
    /// plan has no network ops.
    chaos: Option<NetFaults>,
    policy: RecoveryPolicy,
    max_frame: u32,
    connect_timeout: Duration,
    hb_stop: AtomicBool,
    stop: AtomicBool,
    status: Mutex<RankState>,
    tag_names: Mutex<HashMap<u64, &'static str>>,
    last_op: AtomicU64,
    last_phase: Mutex<&'static str>,
}

impl TcpChildLink {
    fn local_abort(&self, origin: usize, reason: String) {
        {
            let mut info = plock(&self.abort);
            if info.is_none() {
                *info = Some(AbortInfo { origin, reason });
            }
        }
        self.aborted.store(true, Ordering::Release);
        let _guard = plock(&self.inbox.queue);
        self.inbox.cv.notify_all();
    }

    /// Give up on the supervisor: the link is terminally dead, blocked
    /// receives unwind, and the heartbeat window on the other side
    /// escalates to the recovery supervisor.
    fn mark_dead(&self, reason: String) {
        {
            let mut st = plock(&self.link.state);
            st.dead = true;
            self.link.break_link_locked(&mut st);
        }
        self.local_abort(usize::MAX, reason);
    }

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
        let resume = plock(&self.link.state).recv_next;
        let hello = encode_wire(&TcpPacket::Hello {
            rank: self.rank as u64,
            resume,
        });
        let fault = self
            .chaos
            .as_ref()
            .map(|c| c.plan_write(hello.len(), false))
            .unwrap_or_default();
        apply_write_fault(&stream, &hello, &fault).map_err(|e| e.to_string())?;
        if fault.reset_after {
            return Err("chaos: scheduled reset during handshake".into());
        }
        let mut rs = stream.try_clone().map_err(|e| e.to_string())?;
        let ack = read_wire_timeout::<TcpPacket>(&mut rs, HANDSHAKE_TIMEOUT, self.max_frame)
            .map_err(|e| e.to_string())?;
        if self.chaos.as_ref().is_some_and(|c| c.drop_inbound()) {
            return Err("chaos: inbound partition ate the handshake ack".into());
        }
        let TcpPacket::HelloAck { resume: sup_resume } = ack else {
            return Err("handshake: unexpected packet in place of HelloAck".into());
        };
        // install + replay under one lock hold so no send interleaves
        let mut st = plock(&self.link.state);
        if st.dead {
            return Err("link already retired".into());
        }
        self.link.prune_locked(&mut st, sup_resume);
        if let Some(old) = st.stream.take() {
            let _ = old.shutdown(Shutdown::Both);
        }
        let recv_next = st.recv_next;
        let mut replay_failed = false;
        for (seq, frame) in st.sent.iter() {
            let bytes = encode_with(|out| encode_data(*seq, recv_next, frame, out));
            let fault = self
                .chaos
                .as_ref()
                .map(|c| c.plan_write(bytes.len(), !matches!(frame, Frame::Heartbeat { .. })))
                .unwrap_or_default();
            if apply_write_fault(&stream, &bytes, &fault).is_err() || fault.reset_after {
                replay_failed = true;
                break;
            }
        }
        st.epoch += 1;
        if replay_failed {
            let _ = stream.shutdown(Shutdown::Both);
            self.link.cv.notify_all();
            return Err("handshake replay failed".into());
        }
        st.stream = Some(stream);
        st.connected_once = true;
        self.link.cv.notify_all();
        Ok(())
    }
}

impl Transport for TcpChildLink {
    fn size(&self) -> usize {
        self.size
    }

    fn recv_timeout(&self) -> Duration {
        self.recv_timeout
    }

    fn serializes(&self) -> bool {
        true
    }

    fn mailbox(&self, rank: usize) -> &Mailbox {
        debug_assert_eq!(rank, self.rank);
        &self.inbox
    }

    fn deliver(&self, dest: usize, msg: Msg) {
        if dest == self.rank {
            self.inbox.push(msg);
            return;
        }
        match msg.payload {
            Payload::Bytes { type_tag, data } => self.link.send_data(
                Frame::Msg {
                    src: msg.src as u64,
                    dst: dest as u64,
                    tag: msg.tag,
                    type_tag,
                    bytes: msg.bytes,
                    data,
                },
                self.chaos.as_ref(),
            ),
            Payload::Local(_) => {
                unreachable!("tcp transport serializes every payload at send_value")
            }
        }
    }

    fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    fn abort(&self, origin: usize, reason: String) {
        self.local_abort(origin, reason.clone());
        self.link.send_data(
            Frame::Abort {
                origin: origin as u64,
                reason,
            },
            self.chaos.as_ref(),
        );
    }

    fn abort_error(&self) -> CommError {
        match plock(&self.abort).clone() {
            Some(AbortInfo { origin, reason }) => CommError::Aborted { origin, reason },
            None => CommError::Aborted {
                origin: usize::MAX,
                reason: "world aborted".into(),
            },
        }
    }

    fn set_status(&self, rank: usize, state: RankState) {
        debug_assert_eq!(rank, self.rank);
        *plock(&self.status) = state;
    }

    fn diagnostic(&self) -> String {
        let state = plock(&self.status).clone();
        format!(
            "deadlock diagnostic (tcp backend, rank {} of {}, recv timeout {:?}):\n  \
             local state: {state:?}\n  \
             (peer states live in their own processes; see the supervisor's report)\n",
            self.rank, self.size, self.recv_timeout
        )
    }

    fn tag_label(&self, tag: u64) -> String {
        let base = crate::error::tag_display(tag);
        if tag >= crate::COLL_TAG_BASE {
            let seq = (tag - crate::COLL_TAG_BASE) & 0xFFFF_FFFF;
            if let Some(name) = plock(&self.tag_names).get(&seq) {
                return format!("{base}({name})");
            }
        }
        base
    }

    fn name_collective(&self, seq: u64, phase: &'static str) {
        plock(&self.tag_names).entry(seq).or_insert(phase);
    }

    fn request_kill(&self, rank: usize, op: u64) -> bool {
        self.link.send_data(
            Frame::RequestKill {
                rank: rank as u64,
                op,
            },
            self.chaos.as_ref(),
        );
        true
    }

    fn begin_stall(&self, _rank: usize, _op: u64) -> bool {
        self.hb_stop.store(true, Ordering::Release);
        true
    }

    fn note_comm_op(&self, op: u64, phase: Option<&'static str>) {
        self.last_op.store(op, Ordering::Relaxed);
        *plock(&self.last_phase) = phase.unwrap_or("");
    }
}

/// Persistent worker reader: waits for a live connection epoch, reads
/// packets until it breaks, repeats. The in-direction chaos check runs
/// *before* any cursor moves, so a chaos-dropped packet looks exactly
/// like a wire loss and heals by retransmission.
fn child_reader_loop(child: &TcpChildLink) {
    loop {
        let (mut stream, epoch) = {
            let mut st = plock(&child.link.state);
            loop {
                if st.dead || child.stop.load(Ordering::Acquire) {
                    return;
                }
                if let Some(s) = st.stream.as_ref() {
                    match s.try_clone() {
                        Ok(c) => break (c, st.epoch),
                        Err(_) => {
                            child.link.break_link_locked(&mut st);
                            continue;
                        }
                    }
                }
                st = child
                    .link
                    .cv
                    .wait_timeout(st, Duration::from_millis(100))
                    .unwrap_or_else(|p| p.into_inner())
                    .0;
            }
        };
        loop {
            match read_wire_stalling::<TcpPacket>(
                &mut stream,
                &child.stop,
                child.max_frame,
                FRAME_STALL,
            ) {
                Ok(pkt) => {
                    if child.chaos.as_ref().is_some_and(|c| c.drop_inbound()) {
                        continue; // severed in-direction: the wire ate it
                    }
                    match pkt {
                        TcpPacket::Data { seq, ack, frame } => {
                            let deliver = {
                                let mut st = plock(&child.link.state);
                                if st.epoch != epoch {
                                    None
                                } else {
                                    child.link.prune_locked(&mut st, ack);
                                    if seq == st.recv_next {
                                        st.recv_next += 1;
                                        Some(frame)
                                    } else if seq > st.recv_next {
                                        telemetry::counter_add("comm.tcp.seq_gaps", 1);
                                        child.link.break_link_locked(&mut st);
                                        None
                                    } else {
                                        None
                                    }
                                }
                            };
                            match deliver {
                                Some(Frame::Msg {
                                    src,
                                    dst,
                                    tag,
                                    type_tag,
                                    bytes,
                                    data,
                                }) => {
                                    debug_assert_eq!(dst as usize, child.rank);
                                    child.inbox.push(Msg {
                                        src: src as usize,
                                        tag,
                                        payload: Payload::Bytes { type_tag, data },
                                        bytes,
                                    });
                                }
                                Some(Frame::Abort { origin, reason }) => {
                                    child.local_abort(origin as usize, reason);
                                }
                                _ => {}
                            }
                        }
                        TcpPacket::Ping { ack, sent } => {
                            let mut st = plock(&child.link.state);
                            if st.epoch == epoch {
                                child.link.prune_locked(&mut st, ack);
                                if sent > st.recv_next {
                                    // frames written before this ping
                                    // never arrived: wire loss
                                    telemetry::counter_add("comm.tcp.seq_gaps", 1);
                                    child.link.break_link_locked(&mut st);
                                }
                            }
                        }
                        _ => {}
                    }
                }
                Err(FrameError::Stopped) => return,
                Err(e) => {
                    let mut st = plock(&child.link.state);
                    if st.epoch == epoch {
                        if !matches!(e, FrameError::Eof) {
                            telemetry::counter_add("comm.tcp.link_errors", 1);
                        }
                        child.link.break_link_locked(&mut st);
                    }
                    break; // back to waiting for the next epoch
                }
            }
        }
    }
}

/// Connection manager: initial connect within the connect deadline,
/// then reconnect-with-backoff on every break until the reconnect
/// schedule is exhausted (→ the rank gives up and aborts locally).
fn child_manager_loop(child: &TcpChildLink) {
    // initial connect: generous flat retry, like the socket worker
    let deadline = Instant::now() + child.connect_timeout;
    loop {
        if child.stop.load(Ordering::Acquire) {
            return;
        }
        match child.try_connect() {
            Ok(()) => break,
            Err(e) => {
                if Instant::now() >= deadline {
                    child.mark_dead(format!(
                        "cannot reach supervisor at {} within {:?}: {e}",
                        child.addr, child.connect_timeout
                    ));
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    // steady state: sleep until the link breaks, then run the backoff
    // schedule; a success resets the schedule for the next outage
    loop {
        {
            let mut st = plock(&child.link.state);
            while st.stream.is_some() && !st.dead && !child.stop.load(Ordering::Acquire) {
                st = child
                    .link
                    .cv
                    .wait_timeout(st, Duration::from_millis(100))
                    .unwrap_or_else(|p| p.into_inner())
                    .0;
            }
            if st.dead || child.stop.load(Ordering::Acquire) {
                return;
            }
        }
        let mut reconnected = false;
        for attempt in 0..child.policy.max_attempts {
            if child.stop.load(Ordering::Acquire) {
                return;
            }
            if child.try_connect().is_ok() {
                telemetry::counter_add("comm.tcp.child_reconnects", 1);
                reconnected = true;
                break;
            }
            std::thread::sleep(child.policy.backoff_for(attempt));
        }
        if !reconnected {
            child.mark_dead(format!(
                "supervisor unreachable after {} reconnect attempts",
                child.policy.max_attempts
            ));
            return;
        }
    }
}

/// Parse the worker environment, run the requested program, report the
/// outcome in-band, drain the terminal frame. Returns the exit code.
fn run_tcp_child(registry: &ProgramRegistry) -> i32 {
    let env_num = |key: &str| -> u64 {
        std::env::var(key)
            .unwrap_or_else(|_| panic!("worker env {key} missing"))
            .parse()
            .unwrap_or_else(|_| panic!("worker env {key} malformed"))
    };
    let addr = std::env::var(ENV_ADDR).expect("checked by caller");
    let rank = env_num(ENV_RANK) as usize;
    let size = env_num(ENV_SIZE) as usize;
    let program = std::env::var(ENV_PROGRAM).expect("program name");
    let args = hex_decode(&std::env::var(ENV_ARGS).unwrap_or_default()).expect("args hex");
    let recv_timeout = Duration::from_millis(env_num(ENV_RECV_TIMEOUT_MS));
    let heartbeat = Duration::from_millis(env_num(ENV_HEARTBEAT_MS).max(1));
    let attempt = Attempt {
        index: env_num(ENV_ATTEMPT) as usize,
    };
    let max_frame = env_num(ENV_MAX_FRAME) as u32;
    let policy = RecoveryPolicy::from_wire(
        &hex_decode(&std::env::var(ENV_RECONNECT).expect("reconnect policy"))
            .expect("reconnect hex"),
    )
    .expect("reconnect policy decodes");
    let faults = std::env::var(ENV_FAULTS).ok().map(|hex| {
        crate::FaultPlan::from_wire(&hex_decode(&hex).expect("fault hex"))
            .expect("fault plan decodes")
    });

    telemetry::flight::arm();
    telemetry::flight::set_thread_rank(rank as u32);

    let chaos = faults
        .as_ref()
        .filter(|p| p.net_is_active())
        .map(|p| p.compile_net(rank));
    let link = Arc::new(TcpChildLink {
        rank,
        size,
        recv_timeout,
        addr: addr.clone(),
        inbox: Mailbox::new(),
        aborted: AtomicBool::new(false),
        abort: Mutex::new(None),
        link: Link::new(),
        chaos,
        policy,
        max_frame,
        connect_timeout: Duration::from_secs(10),
        hb_stop: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        status: Mutex::new(RankState::Running),
        tag_names: Mutex::new(HashMap::new()),
        last_op: AtomicU64::new(u64::MAX),
        last_phase: Mutex::new(""),
    });

    let manager = {
        let link = Arc::clone(&link);
        std::thread::Builder::new()
            .name(format!("rank-{rank}-manager"))
            .spawn(move || child_manager_loop(&link))
            .expect("spawn manager")
    };
    let reader = {
        let link = Arc::clone(&link);
        std::thread::Builder::new()
            .name(format!("rank-{rank}-reader"))
            .spawn(move || child_reader_loop(&link))
            .expect("spawn reader")
    };

    // wait for the first handshake before touching the program
    {
        let mut st = plock(&link.link.state);
        while !st.connected_once && !st.dead {
            st = link
                .link
                .cv
                .wait_timeout(st, Duration::from_millis(100))
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
        if st.dead {
            drop(st);
            eprintln!("rank {rank}: cannot connect to supervisor at {addr}");
            link.stop.store(true, Ordering::Release);
            link.link.cv.notify_all();
            let _ = manager.join();
            let _ = reader.join();
            return 3;
        }
    }

    let heartbeater = {
        let link = Arc::clone(&link);
        std::thread::Builder::new()
            .name(format!("rank-{rank}-heartbeat"))
            .spawn(move || {
                let mut seq = 0u64;
                while !link.hb_stop.load(Ordering::Acquire) {
                    link.link.send_data(
                        Frame::Heartbeat {
                            rank: link.rank as u64,
                            seq,
                            op: link.last_op.load(Ordering::Relaxed),
                            phase: plock(&link.last_phase).to_string(),
                        },
                        link.chaos.as_ref(),
                    );
                    telemetry::counter_add("comm.heartbeat.sent", 1);
                    seq += 1;
                    std::thread::sleep(heartbeat);
                }
            })
            .expect("spawn heartbeat")
    };

    let comm = Comm::new(
        rank,
        Arc::clone(&link) as Arc<dyn Transport>,
        faults.as_ref().map(|p| p.compile(rank)),
    );
    let ctx = ProgramCtx { args, attempt };
    let f = registry.get(&program).unwrap_or_else(|| {
        panic!(
            "worker registry has no program '{program}' (registered: {:?})",
            registry.names()
        )
    });

    let outcome = catch_unwind(AssertUnwindSafe(|| f(&comm, &ctx)));
    drop(comm); // flush any held (reordered) messages before reporting
    let died_in = || {
        telemetry::failure_phase()
            .map(|p| format!(" (in phase '{p}')"))
            .unwrap_or_default()
    };
    match outcome {
        Ok(Ok(result)) => {
            link.link.send_data(
                Frame::Done {
                    rank: rank as u64,
                    result,
                },
                link.chaos.as_ref(),
            );
        }
        Ok(Err(e)) => {
            let reason = format!("{e}{}", died_in());
            telemetry::flight::dump_postmortem(rank as u32);
            link.link.send_data(
                Frame::Failed {
                    rank: rank as u64,
                    panicked: false,
                    reason,
                    error: Some(e),
                },
                link.chaos.as_ref(),
            );
        }
        Err(payload) => {
            let msg = crate::panic_message(payload);
            let reason = format!("panicked{}: {msg}", died_in());
            telemetry::flight::dump_postmortem(rank as u32);
            link.link.send_data(
                Frame::Failed {
                    rank: rank as u64,
                    panicked: true,
                    reason,
                    error: None,
                },
                link.chaos.as_ref(),
            );
        }
    }

    // Drain: the terminal frame may have been chaos-dropped, and the
    // next heartbeat's sequence gap is what reveals that — so keep the
    // heartbeat, reader, and manager threads alive until everything
    // queued has been acked (or a generous deadline passes).
    {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let mut st = plock(&link.link.state);
        while !st.sent.is_empty() && !st.dead && Instant::now() < deadline {
            st = link
                .link
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
    }

    // surface the chaos interposer's activity in this process's registry
    if let Some(c) = &link.chaos {
        for (name, v) in c.counters() {
            if v > 0 {
                telemetry::counter_add(name, v);
            }
        }
    }

    link.hb_stop.store(true, Ordering::Release);
    link.stop.store(true, Ordering::Release);
    {
        let mut st = plock(&link.link.state);
        st.dead = true;
        link.link.break_link_locked(&mut st);
    }
    let _ = heartbeater.join();
    let _ = reader.join();
    let _ = manager.join();
    0
}

/// See [`crate::maybe_run_socket_child`] — the TCP worker detection
/// half. Returns `false` when the process is not a TCP worker.
pub(crate) fn maybe_run_tcp_child(registry: &ProgramRegistry) -> bool {
    if std::env::var(ENV_ADDR).is_err() {
        return false;
    }
    let code = run_tcp_child(registry);
    std::process::exit(code);
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
