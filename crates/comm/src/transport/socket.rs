//! The process-per-rank socket backend.
//!
//! Topology is a star: the supervisor (the process that called
//! [`try_run_program`](crate::try_run_program)) binds a Unix domain
//! socket, spawns one worker process per rank, and routes every
//! rank-to-rank message through itself. Workers learn their identity
//! and configuration from environment variables, connect back, say
//! `Hello`, and run the named program against a [`ChildLink`]
//! transport whose `deliver` writes Wire-encoded frames instead of
//! pushing into a shared mailbox.
//!
//! Liveness: every worker heartbeats on a dedicated thread; the
//! supervisor's monitor marks a rank dead after a configurable window
//! of silence ([`SocketOptions::heartbeat_grace`]). Death — clean EOF,
//! mid-frame EOF, missed heartbeats, or an injected SIGKILL — becomes
//! a [`CommError::PeerFailed`] abort that unwinds every surviving
//! rank, exactly like a panic does on the thread backend. That makes a
//! `kill -9` a *recoverable input* to
//! [`run_with_recovery_program`](crate::run_with_recovery_program)
//! rather than a wedged job.

use super::frame::{
    decode_raw, encode_frame, msg_route, read_frame, read_frame_timeout, read_raw, Frame,
    FrameError, HEADER_LEN, MAX_FRAME_LEN,
};
use super::{ProgramCtx, ProgramRegistry, SocketOptions};
use crate::{
    plock, AbortInfo, Attempt, Comm, CommError, Mailbox, Msg, Payload, RankError, RankFailure,
    RankState, RunOptions, Transport, WorldError,
};
use quadforest_core::Wire;
use quadforest_telemetry as telemetry;
use std::collections::HashMap;
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

// Environment contract between supervisor and worker processes.
const ENV_PATH: &str = "QF_SOCKET_PATH";
const ENV_RANK: &str = "QF_SOCKET_RANK";
const ENV_SIZE: &str = "QF_SOCKET_SIZE";
const ENV_PROGRAM: &str = "QF_SOCKET_PROGRAM";
const ENV_ARGS: &str = "QF_SOCKET_ARGS";
const ENV_RECV_TIMEOUT_MS: &str = "QF_SOCKET_RECV_TIMEOUT_MS";
const ENV_HEARTBEAT_MS: &str = "QF_SOCKET_HEARTBEAT_MS";
const ENV_ATTEMPT: &str = "QF_SOCKET_ATTEMPT";
const ENV_FAULTS: &str = "QF_SOCKET_FAULTS";

/// Poll granularity for stop-flag checks inside blocking socket reads.
const READ_POLL: Duration = Duration::from_millis(25);

pub(crate) fn hex_encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(DIGITS[(b >> 4) as usize] as char);
        s.push(DIGITS[(b & 0xF) as usize] as char);
    }
    s
}

pub(crate) fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

// ----------------------------------------------------------------------
// supervisor side
// ----------------------------------------------------------------------

/// One rank's terminal outcome: its Wire-encoded program result, or
/// how it failed.
type RankResult = Result<Vec<u8>, RankError>;

/// Shared state of the supervisor's router: per-rank writer channels,
/// liveness bookkeeping, first-wins abort record, result slots.
struct Router {
    size: usize,
    /// Per-rank frame writer (fed by reader threads and the monitor;
    /// drained by one dedicated writer thread per rank — "per-peer
    /// writer threads"). `None` once retired.
    writers: Vec<Mutex<Option<mpsc::Sender<Vec<u8>>>>>,
    last_beat: Vec<Mutex<Instant>>,
    /// Last liveness context heartbeated by each rank: (comm op index,
    /// telemetry phase). `(u64::MAX, "")` until the first beat that
    /// carries one. Lets the supervisor name a dead process's last
    /// known activity in the abort reason and the flight postmortem.
    last_ctx: Vec<Mutex<(u64, String)>>,
    /// Rank reached a terminal state (Done, Failed, or declared dead).
    terminal: Vec<AtomicBool>,
    results: Mutex<Vec<Option<RankResult>>>,
    abort: Mutex<Option<AbortInfo>>,
    children: Mutex<Vec<Option<Child>>>,
    stop: AtomicBool,
    /// Count of terminal ranks, guarded with `done_cv` for the waiter.
    done: Mutex<usize>,
    done_cv: Condvar,
}

impl Router {
    fn new(size: usize) -> Self {
        Router {
            size,
            writers: (0..size).map(|_| Mutex::new(None)).collect(),
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

    /// Queue a pre-encoded frame for `rank`'s writer thread.
    fn send_to(&self, rank: usize, bytes: Vec<u8>) {
        if let Some(tx) = plock(&self.writers[rank]).as_ref() {
            let _ = tx.send(bytes);
        }
    }

    /// Record the first failure and broadcast it to every rank that is
    /// still alive; later callers keep the original origin.
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
        let frame = encode_frame(&Frame::Abort {
            origin: origin as u64,
            reason,
        });
        for r in 0..self.size {
            if !self.terminal[r].load(Ordering::Acquire) {
                self.send_to(r, frame.clone());
            }
        }
    }

    /// Move `rank` to a terminal state with `outcome` (first writer
    /// wins) and wake the supervisor if everyone is now terminal.
    fn finish(&self, rank: usize, outcome: Result<Vec<u8>, RankError>) {
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

    /// SIGKILL `rank`'s process, if still tracked.
    fn kill_child(&self, rank: usize) {
        if let Some(child) = plock(&self.children)[rank].as_mut() {
            let _ = child.kill();
        }
    }

    /// Declare `rank`'s process dead: record the failure, abort the
    /// world, mark terminal, then kill the process for certainty. The
    /// record must come FIRST — killing first lets the rank's reader
    /// thread observe the EOF and race in a generic "process died"
    /// reason before the real one (e.g. a missed heartbeat window).
    /// Supervisor-side flight record of a peer death: a `PeerFailed`
    /// event naming the victim's last known comm op and phase, then
    /// the postmortem dump (`flight-sup.qfr` — the supervisor has no
    /// rank of its own).
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
        self.kill_child(rank);
    }
}

/// Reader loop for one child connection: routes messages, tracks
/// heartbeats, converts Done/Failed frames into results, and turns an
/// unexpected EOF or corrupt frame into a peer-death abort.
///
/// A `Msg` frame is forwarded as the bytes that arrived, not decoded
/// and rebuilt: the CRC has been verified over them, and
/// [`msg_route`] checks the rest of what a decode would. The header
/// CRC the destination verifies is therefore still the sender's.
fn reader_loop(router: &Router, rank: usize, stream: &mut UnixStream) {
    loop {
        let frame = match read_raw(stream, &router.stop, MAX_FRAME_LEN, None) {
            Ok(raw) => match msg_route(&raw[HEADER_LEN..]) {
                Some(Ok((src, dst))) => {
                    if src != rank as u64 || dst >= router.size as u64 {
                        router.declare_dead(
                            rank,
                            format!(
                                "rank {rank} sent a corrupt route (src={src} dst={dst}, size {})",
                                router.size
                            ),
                        );
                        return;
                    }
                    router.send_to(dst as usize, raw);
                    continue;
                }
                Some(Err(e)) => Err(FrameError::Decode(e.to_string())),
                None => decode_raw(&raw),
            },
            Err(e) => Err(e),
        };
        match frame {
            Ok(Frame::Heartbeat { op, phase, .. }) => {
                telemetry::counter_add("comm.heartbeat.received", 1);
                *plock(&router.last_beat[rank]) = Instant::now();
                *plock(&router.last_ctx[rank]) = (op, phase);
            }
            Ok(Frame::Abort { origin, reason }) => {
                router.record_abort(origin as usize, reason);
            }
            Ok(Frame::Done { result, .. }) => {
                router.finish(rank, Ok(result));
            }
            Ok(Frame::Failed {
                panicked,
                reason,
                error,
                ..
            }) => {
                router.record_abort(rank, reason.clone());
                let rank_error = if panicked {
                    RankError::Panicked(reason)
                } else {
                    RankError::Failed(error.unwrap_or(CommError::PeerFailed { rank, reason }))
                };
                router.finish(rank, Err(rank_error));
            }
            Ok(Frame::RequestKill { op, .. }) => {
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
            Ok(Frame::Hello { .. } | Frame::Msg { .. }) => {
                // late Hello is a protocol violation; harmless, ignore
                // (every Msg was forwarded above)
            }
            Err(FrameError::Stopped) => return,
            Err(e) => {
                if !router.terminal[rank].load(Ordering::Acquire) {
                    let reason = match &e {
                        FrameError::Eof | FrameError::TruncatedEof { .. } => {
                            format!("rank {rank} process died: {e}")
                        }
                        _ => format!("rank {rank} transport corrupted: {e}"),
                    };
                    router.declare_dead(rank, reason);
                }
                return;
            }
        }
    }
}

/// Liveness monitor: sweeps non-terminal ranks for missed-heartbeat
/// windows and enforces a global wall-clock backstop.
fn monitor_loop(router: &Router, opts: &SocketOptions, hard_deadline: Instant) {
    let window = opts.death_window();
    let sweep = (opts.heartbeat_interval / 2).max(Duration::from_millis(5));
    loop {
        if router.stop.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(sweep);
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

/// Unique-per-call socket path in the system temp directory.
fn socket_path() -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("quadforest-{}-{n}.sock", std::process::id()))
}

/// Run `program` across `size` worker processes. See the module docs
/// for the protocol; failure reporting matches the thread backend's
/// [`try_run_with`](crate::try_run_with) in shape.
pub(crate) fn run_socket_world(
    size: usize,
    opts: &RunOptions,
    sock: &SocketOptions,
    program: &str,
    args: &[u8],
    attempt: Attempt,
) -> Result<Vec<Vec<u8>>, WorldError> {
    assert!(size > 0);
    telemetry::flight::arm();
    let path = socket_path();
    let _ = std::fs::remove_file(&path);
    let listener =
        UnixListener::bind(&path).unwrap_or_else(|e| panic!("bind socket {}: {e}", path.display()));
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");

    let router = Arc::new(Router::new(size));

    // spawn one worker per rank
    for rank in 0..size {
        let mut cmd = Command::new(&sock.worker);
        cmd.env(ENV_PATH, &path)
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
                sock.heartbeat_interval.as_millis().max(1).to_string(),
            )
            .env(ENV_ATTEMPT, attempt.index.to_string())
            .stdin(Stdio::null());
        // children dump their flight postmortems next to the
        // supervisor's (set_postmortem_dir only affects this process)
        if let Some(dir) = telemetry::flight::postmortem_dir() {
            cmd.env(telemetry::flight::ENV_FLIGHT_DIR, &dir);
        }
        if let Some(plan) = &opts.faults {
            cmd.env(ENV_FAULTS, hex_encode(&plan.to_wire()));
        }
        match cmd.spawn() {
            Ok(child) => plock(&router.children)[rank] = Some(child),
            Err(e) => panic!(
                "spawn worker {} for rank {rank}: {e}",
                sock.worker.display()
            ),
        }
    }

    // accept + handshake: collect one identified stream per rank
    let mut streams: Vec<Option<UnixStream>> = (0..size).map(|_| None).collect();
    let connect_deadline = Instant::now() + sock.connect_timeout;
    let mut connected = 0usize;
    while connected < size {
        if Instant::now() >= connect_deadline {
            break;
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream
                    .set_read_timeout(Some(READ_POLL))
                    .expect("read timeout");
                match read_frame_timeout(&mut stream, sock.connect_timeout) {
                    Ok(Frame::Hello { rank }) if (rank as usize) < size => {
                        let r = rank as usize;
                        if streams[r].is_none() {
                            *plock(&router.last_beat[r]) = Instant::now();
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
            Err(e) => panic!("accept on {}: {e}", path.display()),
        }
    }
    if connected < size {
        // startup failure: kill everything and report the missing ranks
        router.stop.store(true, Ordering::Release);
        let mut failures = Vec::new();
        for (rank, slot) in streams.iter().enumerate() {
            if slot.is_none() {
                router.kill_child(rank);
                failures.push(RankFailure {
                    rank,
                    error: RankError::Failed(CommError::PeerFailed {
                        rank,
                        reason: format!("worker never connected within {:?}", sock.connect_timeout),
                    }),
                });
            }
        }
        for child in plock(&router.children).iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&path);
        let origin = failures[0].rank;
        return Err(WorldError {
            size,
            origin,
            reason: format!(
                "worker for rank {origin} never connected within {:?}",
                sock.connect_timeout
            ),
            failures,
        });
    }

    // Register EVERY rank's writer channel before spawning ANY reader
    // thread: a reader immediately routes frames to peer writers via
    // `send_to`, which silently drops when the destination's channel is
    // not yet registered — interleaving registration with reader spawns
    // loses early frames to high ranks (a rare, load-dependent hang).
    let mut halves = Vec::with_capacity(size);
    for (rank, slot) in streams.into_iter().enumerate() {
        let stream = slot.expect("all connected");
        let write_half = stream.try_clone().expect("clone stream");
        let (tx, rx) = mpsc::channel::<Vec<u8>>();
        *plock(&router.writers[rank]) = Some(tx);
        halves.push((rank, stream, write_half, rx));
    }
    let mut threads = Vec::new();
    for (rank, stream, mut write_half, rx) in halves {
        threads.push(
            std::thread::Builder::new()
                .name(format!("sock-write-{rank}"))
                .spawn(move || {
                    while let Ok(buf) = rx.recv() {
                        if write_half.write_all(&buf).is_err() {
                            return; // reader side reports the death
                        }
                    }
                })
                .expect("spawn writer"),
        );
        let router_r = Arc::clone(&router);
        let mut read_half = stream;
        threads.push(
            std::thread::Builder::new()
                .name(format!("sock-read-{rank}"))
                .spawn(move || reader_loop(&router_r, rank, &mut read_half))
                .expect("spawn reader"),
        );
    }

    // liveness monitor with a generous global backstop: children
    // enforce their own recv timeouts, this only catches a wedged
    // supervisor protocol
    let hard_deadline =
        Instant::now() + opts.recv_timeout + opts.recv_timeout + sock.death_window();
    {
        let router_m = Arc::clone(&router);
        let sock_m = sock.clone();
        threads.push(
            std::thread::Builder::new()
                .name("sock-monitor".into())
                .spawn(move || monitor_loop(&router_m, &sock_m, hard_deadline))
                .expect("spawn monitor"),
        );
    }

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
                // paranoia backstop in case the monitor thread died
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

    // teardown: retire writers, stop readers/monitor, reap children
    router.stop.store(true, Ordering::Release);
    for w in &router.writers {
        plock(w).take();
    }
    for t in threads {
        let _ = t.join();
    }
    for child in plock(&router.children).iter_mut().flatten() {
        let _ = child.kill(); // no-op for cleanly exited children
        let _ = child.wait(); // reap
    }
    let _ = std::fs::remove_file(&path);

    // assemble the world result, mirroring try_run_with
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

/// The child half of a socket world: one inbox fed by a reader thread,
/// a shared write half, local abort state, and a heartbeat kill
/// switch. Implements [`Transport`] so the rank's `Comm` runs the
/// exact same matching/collective/abort logic as on threads.
struct ChildLink {
    rank: usize,
    size: usize,
    recv_timeout: Duration,
    inbox: Mailbox,
    aborted: AtomicBool,
    abort: Mutex<Option<AbortInfo>>,
    writer: Mutex<UnixStream>,
    /// Set to silence the heartbeat thread (stall injection, exit).
    hb_stop: AtomicBool,
    /// Set to retire the reader thread on exit.
    stop: AtomicBool,
    status: Mutex<RankState>,
    tag_names: Mutex<HashMap<u64, &'static str>>,
    /// Most recent counted comm op (via [`Transport::note_comm_op`]),
    /// folded into outgoing heartbeats; `u64::MAX` until the first op.
    last_op: AtomicU64,
    /// Telemetry phase active at that op (`""` when none).
    last_phase: Mutex<&'static str>,
}

impl ChildLink {
    /// Write one frame to the supervisor. A write failure means the
    /// supervisor is gone; record a local abort so blocked receives
    /// unwind instead of waiting out their full timeout.
    fn send_frame(&self, frame: &Frame) {
        let bytes = encode_frame(frame);
        let failed = plock(&self.writer).write_all(&bytes).is_err();
        if failed {
            self.local_abort(
                usize::MAX,
                "connection to supervisor lost (write failed)".into(),
            );
        }
    }

    /// Record an abort locally and wake the (single) blocked receiver.
    /// Does not echo to the supervisor.
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
}

impl Transport for ChildLink {
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
            // self-sends stay local: no supervisor round trip
            self.inbox.push(msg);
            return;
        }
        match msg.payload {
            Payload::Bytes { type_tag, data } => self.send_frame(&Frame::Msg {
                src: msg.src as u64,
                dst: dest as u64,
                tag: msg.tag,
                type_tag,
                bytes: msg.bytes,
                data,
            }),
            Payload::Local(_) => {
                unreachable!("socket transport serializes every payload at send_value")
            }
        }
    }

    fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    fn abort(&self, origin: usize, reason: String) {
        self.local_abort(origin, reason.clone());
        self.send_frame(&Frame::Abort {
            origin: origin as u64,
            reason,
        });
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
        // peers live in other processes; report what this rank knows
        let state = plock(&self.status).clone();
        format!(
            "deadlock diagnostic (socket backend, rank {} of {}, recv timeout {:?}):\n  \
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
        self.send_frame(&Frame::RequestKill {
            rank: rank as u64,
            op,
        });
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

/// Reader loop inside a worker: push routed messages into the inbox,
/// honor abort broadcasts, convert a lost supervisor into an abort.
fn child_reader_loop(link: &ChildLink, stream: &mut UnixStream) {
    loop {
        match read_frame(stream, &link.stop) {
            Ok(Frame::Msg {
                src,
                dst,
                tag,
                type_tag,
                bytes,
                data,
            }) => {
                debug_assert_eq!(dst as usize, link.rank);
                link.inbox.push(Msg {
                    src: src as usize,
                    tag,
                    payload: Payload::Bytes { type_tag, data },
                    bytes,
                });
            }
            Ok(Frame::Abort { origin, reason }) => {
                link.local_abort(origin as usize, reason);
            }
            Ok(_) => { /* the supervisor sends nothing else */ }
            Err(FrameError::Stopped) => return,
            Err(e) => {
                link.local_abort(usize::MAX, format!("connection to supervisor lost: {e}"));
                return;
            }
        }
    }
}

/// Parse the worker environment, run the requested program, report the
/// outcome in-band. Returns the process exit code.
fn run_child(registry: &ProgramRegistry) -> i32 {
    let env_num = |key: &str| -> u64 {
        std::env::var(key)
            .unwrap_or_else(|_| panic!("worker env {key} missing"))
            .parse()
            .unwrap_or_else(|_| panic!("worker env {key} malformed"))
    };
    let path = std::env::var(ENV_PATH).expect("checked by caller");
    let rank = env_num(ENV_RANK) as usize;
    let size = env_num(ENV_SIZE) as usize;
    let program = std::env::var(ENV_PROGRAM).expect("program name");
    let args = hex_decode(&std::env::var(ENV_ARGS).unwrap_or_default()).expect("args hex");
    let recv_timeout = Duration::from_millis(env_num(ENV_RECV_TIMEOUT_MS));
    let heartbeat = Duration::from_millis(env_num(ENV_HEARTBEAT_MS).max(1));
    let attempt = Attempt {
        index: env_num(ENV_ATTEMPT) as usize,
    };
    let faults = std::env::var(ENV_FAULTS).ok().map(|hex| {
        crate::FaultPlan::from_wire(&hex_decode(&hex).expect("fault hex"))
            .expect("fault plan decodes")
    });

    // Flight recorder: every worker records its own ring and, on a
    // clean failure, dumps it before reporting (a SIGKILLed worker
    // obviously cannot — the supervisor's dump covers that case).
    telemetry::flight::arm();
    telemetry::flight::set_thread_rank(rank as u32);

    // connect with retry: the supervisor binds before spawning, but be
    // tolerant of slow filesystems
    let connect_deadline = Instant::now() + Duration::from_secs(10);
    let stream = loop {
        match UnixStream::connect(&path) {
            Ok(s) => break s,
            Err(e) => {
                if Instant::now() >= connect_deadline {
                    eprintln!("rank {rank}: cannot connect to supervisor at {path}: {e}");
                    return 3;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    };
    stream
        .set_read_timeout(Some(READ_POLL))
        .expect("read timeout");
    let read_half = stream.try_clone().expect("clone stream");

    let link = Arc::new(ChildLink {
        rank,
        size,
        recv_timeout,
        inbox: Mailbox::new(),
        aborted: AtomicBool::new(false),
        abort: Mutex::new(None),
        writer: Mutex::new(stream),
        hb_stop: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        status: Mutex::new(RankState::Running),
        tag_names: Mutex::new(HashMap::new()),
        last_op: AtomicU64::new(u64::MAX),
        last_phase: Mutex::new(""),
    });

    link.send_frame(&Frame::Hello { rank: rank as u64 });

    // reader thread: feeds the inbox
    let reader = {
        let link = Arc::clone(&link);
        let mut stream = read_half;
        std::thread::Builder::new()
            .name(format!("rank-{rank}-reader"))
            .spawn(move || child_reader_loop(&link, &mut stream))
            .expect("spawn reader")
    };

    // heartbeat thread: liveness beacon until silenced
    let heartbeater = {
        let link = Arc::clone(&link);
        std::thread::Builder::new()
            .name(format!("rank-{rank}-heartbeat"))
            .spawn(move || {
                let mut seq = 0u64;
                while !link.hb_stop.load(Ordering::Acquire) {
                    link.send_frame(&Frame::Heartbeat {
                        rank: link.rank as u64,
                        seq,
                        op: link.last_op.load(Ordering::Relaxed),
                        phase: plock(&link.last_phase).to_string(),
                    });
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
            link.send_frame(&Frame::Done {
                rank: rank as u64,
                result,
            });
        }
        Ok(Err(e)) => {
            let reason = format!("{e}{}", died_in());
            telemetry::flight::dump_postmortem(rank as u32);
            link.send_frame(&Frame::Failed {
                rank: rank as u64,
                panicked: false,
                reason,
                error: Some(e),
            });
        }
        Err(payload) => {
            let msg = crate::panic_message(payload);
            let reason = format!("panicked{}: {msg}", died_in());
            telemetry::flight::dump_postmortem(rank as u32);
            link.send_frame(&Frame::Failed {
                rank: rank as u64,
                panicked: true,
                reason,
                error: None,
            });
        }
    }

    // orderly retirement; process::exit would also do it, but joining
    // avoids racing the final frame against the heartbeat writer
    link.hb_stop.store(true, Ordering::Release);
    link.stop.store(true, Ordering::Release);
    let _ = heartbeater.join();
    let _ = reader.join();
    0
}

/// See [`crate::maybe_run_socket_child`].
pub(crate) fn maybe_run_socket_child(registry: &ProgramRegistry) -> bool {
    if std::env::var(ENV_PATH).is_err() {
        return false;
    }
    let code = run_child(registry);
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::super::frame::encode_with;
    use super::*;

    #[test]
    fn hex_roundtrip() {
        for data in [vec![], vec![0u8], vec![0xFF, 0x00, 0x7A, 13]] {
            assert_eq!(hex_decode(&hex_encode(&data)), Some(data));
        }
        assert_eq!(hex_encode(&[0xFF, 0x00, 0x7A, 13]), "ff007a0d");
        assert_eq!(hex_decode("zz"), None);
        assert_eq!(hex_decode("abc"), None);
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
    const MSG_0_TO_1: [u8; 65] = [
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

    /// Rank 0 of a two-rank world writes `stream` and hangs up; run the
    /// supervisor's reader over it. Returns the router and every frame
    /// it queued for rank 1's writer thread.
    fn route(stream: &[u8]) -> (Router, Vec<Vec<u8>>) {
        let router = Router::new(2);
        let (tx, rx) = mpsc::channel();
        *plock(&router.writers[1]) = Some(tx);
        let (mut ours, mut theirs) = UnixStream::pair().expect("socket pair");
        theirs.write_all(stream).expect("fits the socket buffer");
        drop(theirs);
        reader_loop(&router, 0, &mut ours);
        plock(&router.writers[1]).take();
        (router, rx.iter().collect())
    }

    /// The reader declared rank 0 dead for `reason`, and rank 1 was sent
    /// the abort and nothing else.
    fn assert_dead_unforwarded(stream: &[u8], reason: &str) {
        let (router, queued) = route(stream);
        let abort = plock(&router.abort).clone().expect("world aborted");
        assert_eq!((abort.origin, abort.reason.as_str()), (0, reason));
        match &plock(&router.results)[0] {
            Some(Err(RankError::Failed(CommError::PeerFailed { rank: 0, reason: r }))) => {
                assert_eq!(r, reason)
            }
            other => panic!("rank 0 outcome: {other:?}"),
        }
        for bytes in queued {
            let frame = read_frame(&mut bytes.as_slice(), &AtomicBool::new(false));
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
        let (router, queued) = route(&[&MSG_0_TO_1[..], &other, &done].concat());
        assert_eq!(queued, [MSG_0_TO_1.to_vec(), other]);
        assert!(plock(&router.abort).is_none());
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
