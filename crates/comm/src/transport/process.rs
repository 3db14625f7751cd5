//! The process world: one OS process per rank, in a star around a
//! supervisor.
//!
//! The supervisor (the process that called
//! [`try_run_program`](crate::try_run_program)) spawns one worker per
//! rank, routes every rank-to-rank message through itself, tracks
//! liveness, and assembles the world's result. Workers learn their
//! identity from one [`Spawn`] record in one environment variable,
//! connect back, and run the named program against a [`Worker`]
//! transport whose `deliver` sends Wire-encoded frames instead of
//! pushing into a shared mailbox: a message is encoded into the buffer
//! it is sent in and decoded in the buffer it arrived in.
//!
//! Everything in this module exists once, and so does the link that
//! carries a frame: a sequenced, reconnecting session
//! ([`super::tcp`]). The two process backends differ only in the
//! stream it runs over, a Unix socket or a TCP connection ([`LinkKind`]).
//!
//! Liveness: every worker heartbeats on a dedicated thread; the
//! supervisor marks a rank dead after a configurable window of silence,
//! or as soon as a sweep finds its process exited ([`liveness`], one
//! pure decision per rank). Death — missed heartbeats, an exited
//! process, or an injected SIGKILL — becomes a [`CommError::PeerFailed`]
//! abort that unwinds every surviving rank, exactly like a panic does
//! on the thread backend. That makes a `kill -9` a *recoverable input*
//! to [`run_with_recovery_program`](crate::run_with_recovery_program)
//! rather than a wedged job. A broken stream is not a death: the link
//! reconnects and replays.

use super::frame::{msg_fields, put_msg, Frame, MSG_DATA_AT};
use super::tcp::{self, packet, Link, Listener, Spares, Uplink, FRAME_AT};
use super::{ProgramCtx, ProgramRegistry, SocketOptions};
use crate::fault::FaultAction;
use crate::{
    plock, world_result, AbortRecord, Attempt, CollectiveNames, Comm, CommError, FaultPlan,
    Mailbox, Msg, Payload, RankError, RankFailure, RankState, Transport, WorldError,
};
use quadforest_core::Wire;
use quadforest_telemetry as telemetry;
use std::cmp::Reverse;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The one environment variable of a worker process: its [`Spawn`]
/// record, Wire-encoded and hex-armoured. Its presence marks a worker.
const ENV_SPAWN: &str = "QF_SOCKET_SPAWN";

/// Poll granularity for stop-flag checks inside blocking socket reads.
pub(super) const READ_POLL: Duration = Duration::from_millis(25);

/// How long the supervisor waits for every worker's first handshake,
/// and a worker for its own. A constant: no caller varies it.
pub(super) const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Lowercase hex only: anything else, or an odd length, is `None`.
fn hex_decode(s: &str) -> Option<Vec<u8>> {
    let nibble = |c: u8| match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        _ => None,
    };
    let s = s.as_bytes();
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (s.chunks_exact(2))
        .map(|pair| Some(nibble(pair[0])? << 4 | nibble(pair[1])?))
        .collect()
}

/// The stream a worker's link to its supervisor runs over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(super) enum LinkKind {
    /// A Unix domain socket ([`Backend::Sockets`](super::Backend::Sockets)).
    Unix,
    /// A loopback TCP connection ([`Backend::Tcp`](super::Backend::Tcp)).
    Tcp,
}

quadforest_core::wire!(enum LinkKind { 0 => Unix, 1 => Tcp });

/// The supervisor-to-worker contract: everything a worker process is
/// told, declared once. The supervisor fills one in per world (`addr`
/// once its link listens, `rank` per child) and passes it in
/// [`ENV_SPAWN`]; the worker decodes it whole or refuses to start.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Spawn {
    pub(super) link: LinkKind,
    /// Where the supervisor listens (socket path or `host:port`).
    pub(super) addr: String,
    pub(super) rank: usize,
    pub(super) size: usize,
    pub(super) program: String,
    pub(super) args: Vec<u8>,
    pub(super) recv_timeout: Duration,
    pub(super) heartbeat: Duration,
    pub(super) attempt: Attempt,
    pub(super) faults: Option<FaultPlan>,
}

quadforest_core::wire!(struct Attempt { index });
quadforest_core::wire!(struct Spawn {
    link, addr, rank, size, program, args, recv_timeout, heartbeat, attempt, faults,
});

impl Spawn {
    /// Decode the value of [`ENV_SPAWN`]: lowercase hex of exactly one
    /// encoded record. The error completes "`QF_SOCKET_SPAWN` …".
    fn from_env(value: &std::ffi::OsStr) -> Result<Spawn, String> {
        let bytes = (value.to_str())
            .and_then(hex_decode)
            .ok_or("is not lowercase hex")?;
        Spawn::from_wire(&bytes).map_err(|e| format!("does not decode: {e}"))
    }
}

// ----------------------------------------------------------------------
// supervisor side
// ----------------------------------------------------------------------

/// One rank's terminal outcome: its Wire-encoded program result, or
/// how it failed.
type RankResult = Result<Vec<u8>, RankError>;

/// Bump a counter in the process-global registry: supervisor and link
/// threads have no per-rank recorder, so `telemetry::counter_add` is a
/// no-op on them.
pub(super) fn count(name: &'static str) {
    telemetry::global().counter(name).incr();
}

/// Shared state of a process world's supervisor: the links, liveness
/// bookkeeping, first-wins abort record, result slots, child processes.
pub(super) struct Supervisor {
    pub(super) size: usize,
    /// One link per rank. An abort travels sequenced like every frame,
    /// so a rank that is mid-reconnect still gets it after the
    /// handshake replay; a link is retired once its rank is dead.
    pub(super) links: Vec<Link>,
    /// Raised at teardown; reader threads poll it, the accept thread
    /// reads it when woken.
    pub(super) stop: AtomicBool,
    last_beat: Vec<Mutex<Instant>>,
    /// Last liveness context heartbeated by each rank: (comm op index,
    /// telemetry phase). `(u64::MAX, "")` until the first beat that
    /// carries one. Lets the supervisor name a dead process's last
    /// known activity in the abort reason and the flight postmortem.
    last_ctx: Vec<Mutex<(u64, String)>>,
    started: Instant,
    /// When any rank last showed communication progress — a heartbeat
    /// with an advanced comm-op index, or a routed `Msg` — in
    /// nanoseconds after `started`. What the silence backstop measures.
    last_progress: AtomicU64,
    /// Each rank's outcome, once it is terminal (Done, Failed, or
    /// declared dead); `finished` wakes the monitor on each. (Also read
    /// by the link module's tests, like `abort`.)
    pub(super) results: Mutex<Vec<Option<RankResult>>>,
    finished: Condvar,
    pub(super) abort: AbortRecord,
    children: Mutex<Vec<Option<Child>>>,
}

impl Supervisor {
    pub(super) fn new(size: usize) -> Self {
        Supervisor {
            size,
            links: tcp::links(size),
            stop: AtomicBool::new(false),
            last_beat: (0..size).map(|_| Mutex::new(Instant::now())).collect(),
            last_ctx: (0..size)
                .map(|_| Mutex::new((u64::MAX, String::new())))
                .collect(),
            started: Instant::now(),
            last_progress: AtomicU64::new(0),
            results: Mutex::new((0..size).map(|_| None).collect()),
            finished: Condvar::new(),
            abort: AbortRecord::default(),
            children: Mutex::new((0..size).map(|_| None).collect()),
        }
    }

    pub(super) fn is_terminal(&self, rank: usize) -> bool {
        plock(&self.results)[rank].is_some()
    }

    /// `rank`'s process has just proven itself alive (a heartbeat, or a
    /// completed connection handshake).
    pub(super) fn beat(&self, rank: usize) {
        *plock(&self.last_beat[rank]) = Instant::now();
    }

    /// Some rank is communicating: re-arm the silence backstop.
    /// (`Relaxed`: a statistic, it publishes nothing else.)
    fn progress(&self) {
        let now = self.started.elapsed().as_nanos() as u64;
        self.last_progress.store(now, Ordering::Relaxed);
    }

    /// Record the first failure and broadcast it to every rank that is
    /// still alive; later callers keep the original origin.
    fn record_abort(&self, origin: usize, reason: String) {
        if !self.abort.record(origin, reason.clone()) {
            return;
        }
        let origin = origin as u64;
        let frame = Frame::Abort { origin, reason };
        for rank in (0..self.size).filter(|&r| !self.is_terminal(r)) {
            self.links[rank].send_data(packet(&frame), None);
        }
    }

    /// Move `rank` to a terminal state with `outcome` (first writer
    /// wins) and wake the monitor.
    fn finish(&self, rank: usize, outcome: RankResult) {
        let mut results = plock(&self.results);
        if results[rank].is_none() {
            results[rank] = Some(outcome);
            self.finished.notify_all();
        }
    }

    /// `rank`'s process is dead, or about to be: leave the flight
    /// record (a `PeerFailed` event naming the victim's last known comm
    /// op and phase, then the postmortem dump `flight-sup.qfr` — the
    /// supervisor has no rank of its own), abort the world, mark the
    /// rank terminal, retire its link so a zombie cannot reconnect,
    /// then kill the process for certainty. The record must come
    /// FIRST — killing first lets the monitor find the process exited
    /// and race in a generic "process exited" reason before the real one.
    fn peer_failed(&self, rank: usize, op: u64, phase: &str, reason: String) {
        count("comm.peer_failures");
        if telemetry::flight::armed() {
            telemetry::flight::event(
                telemetry::flight::FlightKind::PeerFailed,
                rank as u32,
                if op == u64::MAX { 0 } else { op },
                telemetry::flight::name_id(if phase.is_empty() { "?" } else { phase }) as u64,
            );
            telemetry::flight::dump_postmortem(telemetry::flight::NO_RANK);
        }
        self.record_abort(rank, reason.clone());
        self.finish(
            rank,
            Err(RankError::Failed(CommError::PeerFailed { rank, reason })),
        );
        self.links[rank].retire();
        if let Some(child) = plock(&self.children)[rank].as_mut() {
            let _ = child.kill();
        }
    }

    /// Declare `rank` dead for `reason`, appending what its last
    /// heartbeat said it was doing.
    pub(super) fn declare_dead(&self, rank: usize, reason: String) {
        let (op, phase) = plock(&self.last_ctx[rank]).clone();
        let reason = if op != u64::MAX {
            let phase = if phase.is_empty() { "?" } else { &phase };
            format!("{reason}; last heartbeat reported comm op {op} in phase '{phase}'")
        } else {
            reason
        };
        self.peer_failed(rank, op, &phase, reason);
    }

    /// One packet that arrived from `rank` — its frame at [`FRAME_AT`] —
    /// and what [`check`](super::frame::check) made of the frame. A `Msg`
    /// (`None`) is relayed in the buffer it arrived in, the reader going
    /// on with a spare. A rank may only send as itself, to a rank that
    /// exists; anything else is a corrupt sender, declared dead here. Any
    /// other frame goes to [`Supervisor::on_frame`].
    pub(super) fn on_raw(&self, rank: usize, packet: &mut Vec<u8>, checked: Option<Frame>) {
        if let Some(decoded) = checked {
            return self.on_frame(rank, decoded);
        }
        let [src, dst, ..] = msg_fields(&packet[FRAME_AT..]);
        if src != rank as u64 || dst >= self.size as u64 {
            let size = self.size;
            let reason =
                format!("rank {rank} sent a corrupt route (src={src} dst={dst}, size {size})");
            return self.declare_dead(rank, reason);
        }
        self.progress();
        self.links[dst as usize].relay(packet);
    }

    /// Dispatch one decoded frame that arrived from `rank`: track
    /// heartbeats, convert Done/Failed frames into results, honor abort
    /// and kill requests.
    fn on_frame(&self, rank: usize, frame: Frame) {
        match frame {
            Frame::Heartbeat { op, phase, .. } => {
                count("comm.heartbeat.received");
                self.beat(rank);
                let mut ctx = plock(&self.last_ctx[rank]);
                if op != ctx.0 {
                    self.progress();
                }
                *ctx = (op, phase);
            }
            Frame::Abort { origin, reason } => self.record_abort(origin as usize, reason),
            Frame::Done { result, .. } => self.finish(rank, Ok(result)),
            Frame::Failed {
                panicked,
                reason,
                error,
                ..
            } => {
                self.record_abort(rank, reason.clone());
                let rank_error = if panicked {
                    RankError::Panicked(reason)
                } else {
                    RankError::Failed(error.unwrap_or(CommError::PeerFailed { rank, reason }))
                };
                self.finish(rank, Err(rank_error));
            }
            Frame::RequestKill { op, .. } => {
                count("comm.sigkill.injected");
                let phase = plock(&self.last_ctx[rank]).1.clone();
                let reason =
                    format!("fault injection: scheduled SIGKILL at comm op {op} on rank {rank}");
                self.peer_failed(rank, op, &phase, reason);
            }
            // a late `Hello` is a protocol violation, harmless; a `Msg`
            // never gets here, `on_raw` relays it
            _ => {}
        }
    }

    /// Spawn one worker process per rank, each with `spawn` for its
    /// own rank.
    fn spawn_workers(&self, spawn: &Spawn, opts: &SocketOptions) {
        let mut spawn = spawn.clone();
        for rank in 0..self.size {
            spawn.rank = rank;
            let mut cmd = Command::new(&opts.worker);
            cmd.env(ENV_SPAWN, hex_encode(&spawn.to_wire()))
                .stdin(Stdio::null());
            // children dump their flight postmortems next to the
            // supervisor's (set_postmortem_dir only affects this process)
            if let Some(dir) = telemetry::flight::postmortem_dir() {
                cmd.env(telemetry::flight::ENV_FLIGHT_DIR, &dir);
            }
            match cmd.spawn() {
                Ok(child) => plock(&self.children)[rank] = Some(child),
                Err(e) => panic!(
                    "spawn worker {} for rank {rank}: {e}",
                    opts.worker.display()
                ),
            }
        }
    }

    /// Liveness monitor and waiter in one: until every rank is
    /// terminal, ping every link and ask [`liveness`] of each rank twice
    /// per heartbeat interval.
    fn monitor_until_terminal(&self, opts: &SocketOptions, recv_timeout: Duration) {
        let sweep = (opts.heartbeat_interval / 2).max(Duration::from_millis(5));
        // Workers enforce their own receive timeouts; the backstop only
        // catches a wedged protocol — every process alive and
        // heartbeating, none of them communicating. It bounds silence,
        // not lifetime: any comm progress re-arms it.
        let backstop = recv_timeout.saturating_mul(2).saturating_add(window(opts));
        self.progress(); // armed from now, not from before the workers connected
        let mut next_sweep = Instant::now() + sweep;
        let mut results = plock(&self.results);
        while results.iter().any(Option::is_none) {
            let now = Instant::now();
            if now < next_sweep {
                results = self
                    .finished
                    .wait_timeout(results, next_sweep - now)
                    .unwrap_or_else(|p| p.into_inner())
                    .0;
                continue;
            }
            drop(results);
            for link in &self.links {
                link.send_ping();
            }
            let progressed = Duration::from_nanos(self.last_progress.load(Ordering::Relaxed));
            let stalled = self.started.elapsed().saturating_sub(progressed) > backstop;
            // Longest-silent first within a rule: when several ranks pass
            // the window in one sweep, the abort origin went quiet first.
            let mut dead: Vec<_> = (0..self.size)
                .filter_map(|rank| {
                    // the exit before the link: a link seen down then is
                    // one the exited process can no longer bring up
                    let exited =
                        (plock(&self.children)[rank].as_mut()).and_then(|c| c.try_wait().ok()?);
                    let seen = Seen {
                        terminal: self.is_terminal(rank),
                        exited,
                        link_up: self.links[rank].is_up(),
                        quiet: plock(&self.last_beat[rank]).elapsed(),
                        stalled,
                    };
                    let (death, reason) = liveness(rank, &seen, opts, backstop)?;
                    Some((death, Reverse(seen.quiet), rank, reason))
                })
                .collect();
            dead.sort_unstable();
            for (death, _, rank, reason) in dead {
                if death == Death::Missed {
                    count("comm.heartbeat.missed");
                }
                self.declare_dead(rank, reason);
            }
            next_sweep = Instant::now() + sweep;
            results = plock(&self.results);
        }
    }

    /// The world error for workers that never connected.
    fn startup_failure(&self, missing: &[usize]) -> WorldError {
        let (origin, timeout) = (missing[0], CONNECT_TIMEOUT);
        WorldError {
            size: self.size,
            origin,
            reason: format!("worker for rank {origin} never connected within {timeout:?}"),
            failures: missing
                .iter()
                .map(|&rank| RankFailure {
                    rank,
                    error: RankError::Failed(CommError::PeerFailed {
                        rank,
                        reason: format!("worker never connected within {timeout:?}"),
                    }),
                })
                .collect(),
        }
    }
}

/// A rank's missed-heartbeat window: `heartbeat_interval ×
/// heartbeat_grace`.
fn window(opts: &SocketOptions) -> Duration {
    (opts.heartbeat_interval).saturating_mul(opts.heartbeat_grace.max(1))
}

/// What a monitor sweep read of one rank: the inputs of [`liveness`].
struct Seen {
    terminal: bool,
    /// How its process exited, if it has.
    exited: Option<ExitStatus>,
    /// [`Link::is_up`], read after `exited`.
    link_up: bool,
    /// Time since its last heartbeat.
    quiet: Duration,
    /// No rank made comm progress for the backstop window.
    stalled: bool,
}

/// Why a sweep declares a rank dead; a sweep declares in this order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Death {
    Exited,
    Missed,
    Backstop,
}

/// The liveness rules of one rank, a pure function of what a sweep read
/// (`backstop` the stall window): alive (`None`), or dead and why. A
/// terminal rank is past them. An exit counts once the link is down:
/// `on_packet` moves the receive cursor before `deliver` runs, so a
/// ping can ack a `Done` the supervisor has not recorded yet and the
/// worker exit on it — but the reader that read the `Done` records it
/// before it returns, and until then the link is up.
fn liveness(
    rank: usize,
    seen: &Seen,
    opts: &SocketOptions,
    backstop: Duration,
) -> Option<(Death, String)> {
    let (grace, interval) = (opts.heartbeat_grace, opts.heartbeat_interval);
    let (death, why) = match seen.exited.filter(|_| !seen.link_up) {
        _ if seen.terminal => return None,
        Some(status) => match status.code() {
            Some(code @ GAVE_UP) => (Death::Exited, format!("gave up reconnecting (exit code {code})")),
            Some(code @ CANNOT_START) => (Death::Exited, format!("could not start (exit code {code})")),
            _ => (Death::Exited, format!("process exited ({status})")),
        },
        None if seen.quiet > window(opts) => {
            let why = format!("missed its heartbeat window ({grace}×{interval:?} with no beat)");
            (Death::Missed, why)
        }
        None if seen.stalled => (
            Death::Backstop,
            format!("still running after {backstop:?} without comm progress on any rank (supervisor backstop)"),
        ),
        None => return None,
    };
    Some((death, format!("rank {rank} {why}")))
}

/// Run `spawn`'s program across worker processes, each linked to the
/// supervisor over the stream `spawn.link` names: a listener on a fresh
/// address (the record's `addr`) accepts first connections and
/// reconnections alike. Failure reporting matches the thread backend's
/// [`try_run_with`](crate::try_run_with) in shape.
pub(super) fn run_world(
    mut spawn: Spawn,
    opts: &SocketOptions,
) -> Result<Vec<Vec<u8>>, WorldError> {
    assert!(spawn.size > 0);
    telemetry::flight::arm();
    let (listener, addr) = Listener::bind(spawn.link);
    spawn.addr = addr;
    let sup = Arc::new(Supervisor::new(spawn.size));
    sup.spawn_workers(&spawn, opts);
    let accept = Arc::clone(&sup);
    let accepter = std::thread::Builder::new()
        .name("link-accept".into())
        .spawn(move || tcp::accept_loop(&accept, listener))
        .expect("spawn accept");
    // startup: wait for every rank's first handshake
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    let missing: Vec<usize> = (0..sup.size)
        .filter(|&r| !sup.links[r].connects_by(deadline))
        .collect();
    if missing.is_empty() {
        sup.monitor_until_terminal(opts, spawn.recv_timeout);
    }

    // teardown: retire links, stop the link threads, reap children
    sup.stop.store(true, Ordering::Release);
    for link in &sup.links {
        link.retire();
    }
    tcp::wake(spawn.link, &spawn.addr);
    let _ = accepter.join();
    for child in plock(&sup.children).iter_mut().flatten() {
        let _ = child.kill(); // no-op for cleanly exited children
        let _ = child.wait(); // reap
    }

    if !missing.is_empty() {
        return Err(sup.startup_failure(&missing));
    }
    let results = std::mem::take(&mut *plock(&sup.results));
    world_result(
        results.into_iter().map(|o| o.expect("every rank terminal")),
        &sup.abort,
    )
}

// ----------------------------------------------------------------------
// worker (child) side
// ----------------------------------------------------------------------

/// The worker half of a process world: the rank's inbox, its local
/// abort record and status, the liveness context its heartbeats carry,
/// and the uplink. Implements [`Transport`] so the rank's `Comm` runs
/// the exact same matching/collective/abort logic as on threads.
pub(super) struct Worker {
    pub(super) rank: usize,
    size: usize,
    recv_timeout: Duration,
    pub(super) up: Uplink,
    inbox: Mailbox,
    aborts: AbortRecord,
    collectives: CollectiveNames,
    status: Mutex<RankState>,
    /// Set to silence the heartbeat thread (stall injection, exit).
    hb_stop: AtomicBool,
    /// Set to retire the link's threads on exit.
    pub(super) stop: AtomicBool,
    /// Most recent counted comm op (via [`Transport::note_comm_op`]),
    /// folded into outgoing heartbeats; `u64::MAX` until the first op.
    last_op: AtomicU64,
    /// Telemetry phase active at that op (`""` when none).
    last_phase: Mutex<&'static str>,
}

impl Worker {
    /// Send one frame to the supervisor.
    fn send(&self, frame: Frame) {
        self.up.send(packet(&frame));
    }

    /// A packet the link read — its frame at [`FRAME_AT`] — and what
    /// [`check`](super::frame::check) made of the frame. A `Msg`
    /// (`None`) goes into the inbox: a big one in that buffer, the
    /// reader going on with a spare; a small one copied out. The
    /// supervisor sends nothing else but an abort broadcast, which is
    /// honored.
    pub(super) fn on_raw(&self, packet: &mut Vec<u8>, checked: Option<Frame>) {
        match checked {
            None => {
                let [src, _, tag, type_tag, bytes] = msg_fields(&packet[FRAME_AT..]);
                let payload = Payload::Bytes {
                    type_tag,
                    data: Spares::take_packet(packet),
                    at: FRAME_AT + MSG_DATA_AT,
                };
                self.inbox.push(Msg {
                    src: src as usize,
                    tag,
                    payload,
                    bytes,
                });
            }
            Some(Frame::Abort { origin, reason }) => self.local_abort(origin as usize, reason),
            Some(_) => {}
        }
    }

    /// Record an abort locally and wake the (single) blocked receiver.
    /// Does not echo to the supervisor.
    pub(super) fn local_abort(&self, origin: usize, reason: String) {
        self.aborts.record(origin, reason);
        let _guard = plock(&self.inbox.queue);
        self.inbox.cv.notify_all();
    }
}

impl Transport for Worker {
    fn size(&self) -> usize {
        self.size
    }

    fn recv_timeout(&self) -> Duration {
        self.recv_timeout
    }

    fn frame_buffer(&self) -> Option<Vec<u8>> {
        let mut buf = self.up.link.spares.take();
        buf.clear();
        buf.resize(FRAME_AT + MSG_DATA_AT, 0);
        Some(buf)
    }

    fn recycle(&self, buf: Vec<u8>) {
        self.up.link.spares.put(buf);
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
            Payload::Bytes {
                type_tag, mut data, ..
            } => {
                let (src, dest) = (msg.src as u64, dest as u64);
                put_msg(&mut data[FRAME_AT..], src, dest, msg.tag, type_tag);
                self.up.send(data);
            }
            Payload::Local(_) => {
                unreachable!("a process world serializes every payload at send_value")
            }
        }
    }

    fn aborts(&self) -> &AbortRecord {
        &self.aborts
    }

    fn abort(&self, origin: usize, reason: String) {
        self.local_abort(origin, reason.clone());
        self.send(Frame::Abort {
            origin: origin as u64,
            reason,
        });
    }

    fn collectives(&self) -> &CollectiveNames {
        &self.collectives
    }

    fn set_status(&self, rank: usize, state: RankState) {
        debug_assert_eq!(rank, self.rank);
        *plock(&self.status) = state;
    }

    fn diagnostic(&self) -> String {
        // peers live in other processes; report what this rank knows
        let state = plock(&self.status).clone();
        format!(
            "deadlock diagnostic (process world, rank {} of {}, recv timeout {:?}):\n  \
             local state: {state:?}\n  \
             (peer states live in their own processes; see the supervisor's report)\n",
            self.rank, self.size, self.recv_timeout
        )
    }

    fn inject(&self, action: FaultAction) -> bool {
        match action {
            FaultAction::Panic(_) => return false,
            FaultAction::Sigkill(op) => self.send(Frame::RequestKill {
                rank: self.rank as u64,
                op,
            }),
            FaultAction::Stall(_) => self.hb_stop.store(true, Ordering::Release),
        }
        true
    }

    fn note_comm_op(&self, op: u64, phase: Option<&'static str>) {
        self.last_op.store(op, Ordering::Relaxed);
        *plock(&self.last_phase) = phase.unwrap_or("");
    }
}

/// Connect, run the requested program, report the outcome in-band.
/// Returns the process exit code.
fn run_child(spawn: Spawn, registry: &ProgramRegistry) -> i32 {
    let rank = spawn.rank;

    // Flight recorder: every worker records its own ring and, on a
    // clean failure, dumps it before reporting (a SIGKILLed worker
    // obviously cannot — the supervisor's dump covers that case).
    telemetry::flight::arm();
    telemetry::flight::set_thread_rank(rank as u32);

    let worker = Arc::new(Worker {
        rank,
        size: spawn.size,
        recv_timeout: spawn.recv_timeout,
        up: Uplink::new(&spawn),
        inbox: Mailbox::new(),
        aborts: AbortRecord::default(),
        collectives: CollectiveNames::default(),
        status: Mutex::new(RankState::Running),
        hb_stop: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        last_op: AtomicU64::new(u64::MAX),
        last_phase: Mutex::new(""),
    });
    let link = {
        let worker = Arc::clone(&worker);
        std::thread::Builder::new()
            .name(format!("rank-{rank}-link"))
            .spawn(move || tcp::link_loop(&worker))
            .expect("spawn link thread")
    };
    // wait for the first handshake before touching the program
    if !worker.up.link.connects_by(Instant::now() + CONNECT_TIMEOUT) {
        worker.stop.store(true, Ordering::Release);
        let why = link.join().ok().and_then(Result::err);
        let why = why.unwrap_or_else(|| format!("no handshake within {CONNECT_TIMEOUT:?}"));
        eprintln!("rank {rank}: {why}");
        return CANNOT_START;
    }

    // heartbeat thread: liveness beacon until silenced
    let heartbeat = spawn.heartbeat.max(Duration::from_millis(1));
    let heartbeater = {
        let worker = Arc::clone(&worker);
        std::thread::Builder::new()
            .name(format!("rank-{rank}-heartbeat"))
            .spawn(move || {
                let mut seq = 0u64;
                while !worker.hb_stop.load(Ordering::Acquire) {
                    worker.send(Frame::Heartbeat {
                        rank: worker.rank as u64,
                        seq,
                        op: worker.last_op.load(Ordering::Relaxed),
                        phase: plock(&worker.last_phase).to_string(),
                    });
                    seq += 1;
                    std::thread::sleep(heartbeat);
                }
            })
            .expect("spawn heartbeat")
    };

    let comm = Comm::new(
        rank,
        Arc::clone(&worker) as Arc<dyn Transport>,
        spawn.faults.as_ref().map(|p| p.compile(rank)),
    );
    let ctx = ProgramCtx {
        args: spawn.args,
        attempt: spawn.attempt,
    };
    // the caller checked the name; a worker built with another registry
    // reports its miss like any panic
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let program = &spawn.program;
        let f = (registry.get(program))
            .unwrap_or_else(|| panic!("worker registry has no program '{program}'"));
        f(&comm, &ctx)
    }));
    drop(comm); // flush any held (reordered) messages before reporting
    let failed = |panicked: bool, what: String, error: Option<CommError>| {
        let phase = telemetry::failure_phase()
            .map(|p| format!(" (in phase '{p}')"))
            .unwrap_or_default();
        telemetry::flight::dump_postmortem(rank as u32);
        Frame::Failed {
            rank: rank as u64,
            panicked,
            reason: if panicked {
                format!("panicked{phase}: {what}")
            } else {
                format!("{what}{phase}")
            },
            error,
        }
    };
    worker.send(match outcome {
        Ok(Ok(result)) => Frame::Done {
            rank: rank as u64,
            result,
        },
        Ok(Err(e)) => failed(false, e.to_string(), Some(e)),
        Err(payload) => failed(true, crate::panic_message(payload), None),
    });

    // orderly retirement; process::exit would also do it, but joining
    // avoids racing the final frame against the heartbeat writer
    worker.up.close();
    worker.hb_stop.store(true, Ordering::Release);
    worker.stop.store(true, Ordering::Release);
    let _ = heartbeater.join();
    match link.join() {
        Ok(Err(why)) => {
            eprintln!("rank {rank}: {why}");
            GAVE_UP
        }
        _ => 0,
    }
}

/// Exit code of a worker that cannot start: a malformed spawn record,
/// or no connection to the supervisor.
const CANNOT_START: i32 = 3;
/// Exit code of a worker whose link gave up reconnecting.
const GAVE_UP: i32 = 4;

/// See [`crate::maybe_run_socket_child`].
pub(super) fn maybe_run_child(registry: &ProgramRegistry) -> bool {
    let Some(value) = std::env::var_os(ENV_SPAWN) else {
        return false;
    };
    let code = match Spawn::from_env(&value) {
        Ok(spawn) => run_child(spawn, registry),
        Err(e) => {
            eprintln!("worker: {ENV_SPAWN} {e}");
            CANNOT_START
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::frame::check;
    use super::*;

    #[test]
    fn hex_roundtrip() {
        for data in [vec![], vec![0u8], vec![0xFF, 0x00, 0x7A, 13]] {
            assert_eq!(hex_decode(&hex_encode(&data)), Some(data));
        }
        assert_eq!(hex_encode(&[0xFF, 0x00, 0x7A, 13]), "ff007a0d");
        assert_eq!(hex_decode("zz"), None);
        assert_eq!(hex_decode("abc"), None);
        assert_eq!(hex_decode("a\u{e9}b"), None);
        assert_eq!(hex_decode("+1"), None);
    }

    /// A record survives the environment exactly — a sub-millisecond
    /// timeout, zero bytes in the arguments, a fault plan — and every
    /// malformed value is an error, never a panic.
    #[test]
    fn spawn_record_roundtrips_and_rejects_malformed_values() {
        let spawn = Spawn {
            link: LinkKind::Tcp,
            addr: "127.0.0.1:4242".into(),
            rank: 3,
            size: 5,
            program: "ring".into(),
            args: vec![0, 7, 0, 0],
            recv_timeout: Duration::from_micros(500),
            heartbeat: Duration::from_millis(50),
            attempt: Attempt { index: 2 },
            faults: Some(FaultPlan::new(9).with_sigkill_at(1, 4)),
        };
        let hex = hex_encode(&spawn.to_wire());
        assert_eq!(Spawn::from_env(hex.as_ref()), Ok(spawn));
        let mut bad_link = hex.clone();
        bad_link.replace_range(..2, "09");
        for (value, error) in [
            ("zz", "is not lowercase hex"),
            ("abc", "is not lowercase hex"),
            ("+1", "is not lowercase hex"),
            (
                &(hex.clone() + "00"),
                "does not decode: 1 trailing byte(s) after a complete value",
            ),
            (
                &bad_link,
                "does not decode: invalid encoding: LinkKind discriminant 9",
            ),
        ] {
            assert_eq!(
                Spawn::from_env(value.as_ref()),
                Err(error.into()),
                "{value}"
            );
        }
        for truncated in ["", "00"] {
            assert!(Spawn::from_env(truncated.as_ref()).is_err());
        }
    }

    /// Several ranks past the heartbeat window in one sweep: the one
    /// silent longest is the abort origin, not the lowest index.
    #[test]
    fn the_longest_silent_rank_is_the_origin() {
        let sup = Supervisor::new(3);
        for (rank, quiet_ms) in [(0, 300), (1, 400), (2, 500)] {
            *plock(&sup.last_beat[rank]) = Instant::now() - Duration::from_millis(quiet_ms);
        }
        let opts = SocketOptions {
            heartbeat_interval: Duration::from_millis(100),
            heartbeat_grace: 2,
            ..SocketOptions::new("unused".into())
        };
        sup.monitor_until_terminal(&opts, Duration::from_secs(10));
        let origin = sup.abort.get().map(|info| info.origin);
        assert_eq!(origin, Some(2));
        assert!((0..3).all(|r| sup.is_terminal(r)));
    }

    /// Every liveness rule of rank 1, as data: 100 ms heartbeats with a
    /// grace of 2 (a 200 ms window) and a 5 s backstop.
    #[test]
    fn liveness_decision_table() {
        use std::os::unix::process::ExitStatusExt;
        let code = |code: i32| Some(ExitStatus::from_raw(code << 8));
        let killed = Some(ExitStatus::from_raw(9));
        let opts = SocketOptions {
            heartbeat_interval: Duration::from_millis(100),
            heartbeat_grace: 2,
            ..SocketOptions::new("unused".into())
        };
        let [beat, window, silent] = [50, 200, 300].map(Duration::from_millis);
        let seen = |terminal, exited, link_up, quiet, stalled| Seen {
            terminal,
            exited,
            link_up,
            quiet,
            stalled,
        };
        const MISSED: &str = "rank 1 missed its heartbeat window (2×100ms with no beat)";
        const STALLED: &str = "rank 1 still running after 5s without comm progress \
                               on any rank (supervisor backstop)";
        let rows = [
            (
                "running and beating",
                seen(false, None, true, beat, false),
                None,
            ),
            (
                "quiet for exactly the window",
                seen(false, None, true, window, false),
                None,
            ),
            (
                "terminal: past every rule",
                seen(true, code(4), false, silent, true),
                None,
            ),
            (
                "exited, link still up: not yet",
                seen(false, code(0), true, beat, false),
                None,
            ),
            (
                "exited 0, link down",
                seen(false, code(0), false, beat, false),
                Some((Death::Exited, "rank 1 process exited (exit status: 0)")),
            ),
            (
                "exited 7",
                seen(false, code(7), false, beat, false),
                Some((Death::Exited, "rank 1 process exited (exit status: 7)")),
            ),
            (
                "gave up reconnecting",
                seen(false, code(GAVE_UP), false, beat, false),
                Some((Death::Exited, "rank 1 gave up reconnecting (exit code 4)")),
            ),
            (
                "could not start",
                seen(false, code(CANNOT_START), false, beat, false),
                Some((Death::Exited, "rank 1 could not start (exit code 3)")),
            ),
            (
                "killed by a signal",
                seen(false, killed, false, beat, false),
                Some((Death::Exited, "rank 1 process exited (signal: 9 (SIGKILL))")),
            ),
            (
                "silent past the window",
                seen(false, None, true, silent, false),
                Some((Death::Missed, MISSED)),
            ),
            (
                "silent, link down",
                seen(false, None, false, silent, false),
                Some((Death::Missed, MISSED)),
            ),
            (
                "exited and silent, link still up: the window",
                seen(false, code(0), true, silent, false),
                Some((Death::Missed, MISSED)),
            ),
            (
                "no comm progress on any rank",
                seen(false, None, true, beat, true),
                Some((Death::Backstop, STALLED)),
            ),
            (
                "silent and no progress: the window first",
                seen(false, None, true, silent, true),
                Some((Death::Missed, MISSED)),
            ),
            (
                "gave up, silent and no progress: the exit first",
                seen(false, code(GAVE_UP), false, silent, true),
                Some((Death::Exited, "rank 1 gave up reconnecting (exit code 4)")),
            ),
        ];
        for (name, seen, want) in rows {
            let got = liveness(1, &seen, &opts, Duration::from_secs(5));
            assert_eq!(got, want.map(|(d, r)| (d, r.to_string())), "{name}");
        }
    }

    /// A worker whose supervisor is gone for good gives up once the
    /// reconnect schedule runs out, and exits with its own code, not 0.
    #[test]
    fn a_worker_that_gives_up_exits_with_its_own_code() {
        let (listener, addr) = Listener::bind(LinkKind::Unix);
        let spawn = Spawn {
            link: LinkKind::Unix,
            addr,
            rank: 0,
            size: 2,
            program: "wait".into(),
            args: vec![],
            recv_timeout: Duration::from_secs(60),
            heartbeat: Duration::from_millis(20),
            attempt: Attempt::first(),
            faults: None,
        };
        let wait: super::super::ProgramFn = |comm, _| comm.try_recv::<u64>(1, 0).map(|_| vec![]);
        let registry = ProgramRegistry::new().register("wait", wait);
        let worker = std::thread::spawn(move || run_child(spawn, &registry));
        tcp::tests::handshake_and_vanish(listener);
        assert_eq!(worker.join().unwrap(), GAVE_UP);
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

    fn failed(panicked: bool, reason: &str, error: Option<CommError>) -> Frame {
        Frame::Failed {
            rank: 0,
            panicked,
            reason: reason.into(),
            error,
        }
    }

    fn abort(origin: u64, reason: &str) -> Frame {
        Frame::Abort {
            origin,
            reason: reason.into(),
        }
    }

    fn peer_failed(reason: &str) -> Option<RankResult> {
        Some(Err(RankError::Failed(CommError::PeerFailed {
            rank: 0,
            reason: reason.into(),
        })))
    }

    /// One row of the supervisor's contract: rank 0 of a three-rank
    /// world (whose rank 2 has already finished) sends `feed`.
    struct Case {
        name: &'static str,
        feed: Vec<Frame>,
        /// The world's abort record afterwards.
        abort: Option<(usize, &'static str)>,
        /// Rank 0's outcome afterwards.
        outcome: Option<RankResult>,
        /// Everything the supervisor sent rank 1, in order.
        rank1_gets: Vec<Frame>,
        /// The supervisor itself declared rank 0 dead.
        death: bool,
    }

    /// What the supervisor does with each frame kind, in a world nobody
    /// has connected to: every frame goes in through
    /// [`Supervisor::on_raw`], the entry point the link's readers call,
    /// and what the supervisor sent a rank is what its link holds for
    /// retransmit. A corrupt route, `Failed` and `RequestKill` each end
    /// rank 0 with the typed outcome and abort the world in its name; an
    /// abort reaches only ranks that are not terminal, and the first
    /// origin wins.
    pub(in crate::transport) fn check_supervisor_contract() {
        const WRONG_SRC: &str = "rank 0 sent a corrupt route (src=1 dst=1, size 3)";
        const WRONG_DST: &str = "rank 0 sent a corrupt route (src=0 dst=3, size 3)";
        const WRONG_SRC_AT_OP_4: &str = "rank 0 sent a corrupt route (src=1 dst=1, size 3); \
             last heartbeat reported comm op 4 in phase 'balance'";
        const KILL: &str = "fault injection: scheduled SIGKILL at comm op 5 on rank 0";
        let typed = CommError::Frame { detail: "x".into() };
        let cases = [
            Case {
                name: "a valid route is forwarded",
                feed: vec![msg(0, 1)],
                abort: None,
                outcome: None,
                rank1_gets: vec![msg(0, 1)],
                death: false,
            },
            Case {
                name: "a rank may only send as itself",
                feed: vec![msg(1, 1)],
                abort: Some((0, WRONG_SRC)),
                outcome: peer_failed(WRONG_SRC),
                rank1_gets: vec![abort(0, WRONG_SRC)],
                death: true,
            },
            Case {
                name: "a rank may only send to a rank that exists",
                feed: vec![msg(0, 3)],
                abort: Some((0, WRONG_DST)),
                outcome: peer_failed(WRONG_DST),
                rank1_gets: vec![abort(0, WRONG_DST)],
                death: true,
            },
            Case {
                name: "a death names the rank's last heartbeat context",
                feed: vec![
                    Frame::Heartbeat {
                        rank: 0,
                        seq: 9,
                        op: 4,
                        phase: "balance".into(),
                    },
                    msg(1, 1),
                ],
                abort: Some((0, WRONG_SRC_AT_OP_4)),
                outcome: peer_failed(WRONG_SRC_AT_OP_4),
                rank1_gets: vec![abort(0, WRONG_SRC_AT_OP_4)],
                death: true,
            },
            Case {
                name: "Done is the rank's result",
                feed: vec![Frame::Done {
                    rank: 0,
                    result: vec![7],
                }],
                abort: None,
                outcome: Some(Ok(vec![7])),
                rank1_gets: vec![],
                death: false,
            },
            Case {
                name: "Failed with a typed error",
                feed: vec![failed(false, "boom", Some(typed.clone()))],
                abort: Some((0, "boom")),
                outcome: Some(Err(RankError::Failed(typed))),
                rank1_gets: vec![abort(0, "boom")],
                death: false,
            },
            Case {
                name: "Failed without one is a peer failure",
                feed: vec![failed(false, "boom", None)],
                abort: Some((0, "boom")),
                outcome: peer_failed("boom"),
                rank1_gets: vec![abort(0, "boom")],
                death: false,
            },
            Case {
                name: "Failed by a panic",
                feed: vec![failed(true, "panicked: boom", None)],
                abort: Some((0, "panicked: boom")),
                outcome: Some(Err(RankError::Panicked("panicked: boom".into()))),
                rank1_gets: vec![abort(0, "panicked: boom")],
                death: false,
            },
            Case {
                name: "RequestKill is a peer failure in the victim's name",
                feed: vec![Frame::RequestKill { rank: 0, op: 5 }],
                abort: Some((0, KILL)),
                outcome: peer_failed(KILL),
                rank1_gets: vec![abort(0, KILL)],
                death: true,
            },
            Case {
                name: "the first abort origin wins and is broadcast once",
                feed: vec![abort(1, "first"), failed(true, "second", None)],
                abort: Some((1, "first")),
                outcome: Some(Err(RankError::Panicked("second".into()))),
                rank1_gets: vec![abort(1, "first")],
                death: false,
            },
        ];
        let counter = |name| telemetry::global().counter(name).get();
        let feed = |sup: &Supervisor, rank, frame: &Frame| {
            let mut bytes = packet(frame);
            let checked = check(&bytes[FRAME_AT..]).expect("a whole frame");
            sup.on_raw(rank, &mut bytes, checked);
        };
        for case in cases {
            let name = case.name;
            let before = (
                counter("comm.peer_failures"),
                counter("comm.sigkill.injected"),
            );
            let sup = Supervisor::new(3);
            let done = Frame::Done {
                rank: 2,
                result: vec![2],
            };
            feed(&sup, 2, &done);
            for frame in &case.feed {
                feed(&sup, 0, frame);
            }
            let abort = sup.abort.get().map(|i| (i.origin, i.reason));
            assert_eq!(
                abort,
                case.abort.map(|(origin, reason)| (origin, reason.into())),
                "{name}: abort record"
            );
            // (`RankError` has no `PartialEq`)
            assert_eq!(
                format!("{:?}", plock(&sup.results)[0]),
                format!("{:?}", case.outcome),
                "{name}: rank 0's outcome"
            );
            assert_eq!(sup.links[1].queued(), case.rank1_gets, "{name}: sent to 1");
            assert_eq!(sup.links[2].queued(), [], "{name}: sent to terminal rank 2");
            // a death is counted where the supervising process can read it
            if case.death {
                assert!(counter("comm.peer_failures") > before.0, "{name}");
            }
            if name.starts_with("RequestKill") {
                assert!(counter("comm.sigkill.injected") > before.1, "{name}");
            }
        }
    }
}
