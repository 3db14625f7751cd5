//! The process world: one OS process per rank, in a star around a
//! supervisor.
//!
//! The supervisor (the process that called
//! [`try_run_program`](crate::try_run_program)) spawns one worker per
//! rank, routes every rank-to-rank message through itself, tracks
//! liveness, and assembles the world's result. Workers learn their
//! identity from environment variables, connect back, and run the named
//! program against a [`Worker`] transport whose `deliver` sends
//! Wire-encoded frames instead of pushing into a shared mailbox.
//!
//! Everything in this module exists once. What the two process
//! backends differ in is only *how a frame reaches the peer* — written
//! raw to a Unix socket that cannot lose data ([`super::socket`]), or
//! through a sequenced, reconnecting session over TCP, which can
//! ([`super::tcp`]). That is the [`Links`] seam on the supervisor and
//! the [`Uplink`] seam on the worker.
//!
//! Liveness: every worker heartbeats on a dedicated thread; the
//! supervisor marks a rank dead after a configurable window of silence.
//! Death — a lost raw link, missed heartbeats, or an injected SIGKILL —
//! becomes a [`CommError::PeerFailed`] abort that unwinds every
//! surviving rank, exactly like a panic does on the thread backend.
//! That makes a `kill -9` a *recoverable input* to
//! [`run_with_recovery_program`](crate::run_with_recovery_program)
//! rather than a wedged job.

use super::frame::Frame;
use super::{ProgramCtx, ProgramRegistry};
use crate::{
    plock, world_result, AbortRecord, Attempt, CollectiveNames, Comm, CommError, FaultPlan,
    Mailbox, Msg, Payload, RankError, RankFailure, RankState, RunOptions, Transport, WorldError,
};
use quadforest_core::Wire;
use quadforest_telemetry as telemetry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// Environment contract between the supervisor and its worker processes.
/// Link kind the worker must speak; its presence marks a worker process.
pub(super) const ENV_LINK: &str = "QF_SOCKET_LINK";
/// Where the supervisor listens (socket path or `host:port`).
pub(super) const ENV_ADDR: &str = "QF_SOCKET_ADDR";
const ENV_RANK: &str = "QF_SOCKET_RANK";
const ENV_SIZE: &str = "QF_SOCKET_SIZE";
const ENV_PROGRAM: &str = "QF_SOCKET_PROGRAM";
const ENV_ARGS: &str = "QF_SOCKET_ARGS";
const ENV_RECV_TIMEOUT_MS: &str = "QF_SOCKET_RECV_TIMEOUT_MS";
const ENV_HEARTBEAT_MS: &str = "QF_SOCKET_HEARTBEAT_MS";
const ENV_CONNECT_TIMEOUT_MS: &str = "QF_SOCKET_CONNECT_TIMEOUT_MS";
const ENV_ATTEMPT: &str = "QF_SOCKET_ATTEMPT";
const ENV_FAULTS: &str = "QF_SOCKET_FAULTS";

/// Poll granularity for stop-flag checks inside blocking socket reads.
pub(super) const READ_POLL: Duration = Duration::from_millis(25);

pub(super) fn hex_encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(DIGITS[(b >> 4) as usize] as char);
        s.push(DIGITS[(b & 0xF) as usize] as char);
    }
    s
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

/// A required worker environment variable.
pub(super) fn env_str(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| panic!("worker env {key} missing"))
}

/// A required numeric worker environment variable.
pub(super) fn env_num(key: &str) -> u64 {
    env_str(key)
        .parse()
        .unwrap_or_else(|_| panic!("worker env {key} malformed"))
}

/// A hex-encoded Wire value from the worker environment.
pub(super) fn wire_from_hex<T: Wire>(key: &str, hex: &str) -> T {
    let bytes = hex_decode(hex).unwrap_or_else(|| panic!("worker env {key} is not hex"));
    T::from_wire(&bytes).unwrap_or_else(|e| panic!("worker env {key} does not decode: {e}"))
}

/// What to run: the arguments of
/// [`try_run_program`](crate::try_run_program) a process world needs.
pub(crate) struct Job<'a> {
    pub(crate) size: usize,
    pub(crate) opts: &'a RunOptions,
    pub(crate) program: &'a str,
    pub(crate) args: &'a [u8],
    pub(crate) attempt: Attempt,
}

/// The launch and liveness settings `SocketOptions` and `TcpOptions`
/// have in common.
pub(super) struct Launch<'a> {
    pub(super) worker: &'a Path,
    pub(super) heartbeat_interval: Duration,
    pub(super) heartbeat_grace: u32,
    pub(super) connect_timeout: Duration,
}

// ----------------------------------------------------------------------
// supervisor side
// ----------------------------------------------------------------------

/// How the supervisor's frames reach the ranks — the one thing the
/// process backends differ in. The supervisor routes, monitors and
/// reports through this trait alone.
pub(super) trait Links: Send + Sync + 'static {
    /// Send `frame` to `rank`. Neither blocks on the peer nor fails: a
    /// link that cannot deliver is the liveness monitor's business.
    fn send(&self, rank: usize, frame: Frame);
    /// `rank` gets no more traffic and cannot come back (it was
    /// declared dead, or the world is being torn down).
    fn retire(&self, rank: usize);
    /// Called once per monitor sweep.
    fn tick(&self) {}
}

/// One rank's terminal outcome: its Wire-encoded program result, or
/// how it failed.
type RankResult = Result<Vec<u8>, RankError>;

/// Bump a counter in the process-global registry: supervisor threads
/// have no per-rank recorder, so `telemetry::counter_add` is a no-op
/// on them.
fn count(name: &'static str) {
    telemetry::global().counter(name).incr();
}

/// Shared state of a process world's supervisor: the links, liveness
/// bookkeeping, first-wins abort record, result slots, child processes.
pub(super) struct Supervisor<L> {
    pub(super) size: usize,
    pub(super) links: L,
    /// Raised at teardown; reader and accept threads poll it.
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
    /// Rank reached a terminal state (Done, Failed, or declared dead).
    terminal: Vec<AtomicBool>,
    /// (Also read by the link modules' tests, like `abort`.)
    pub(super) results: Mutex<Vec<Option<RankResult>>>,
    pub(super) abort: AbortRecord,
    children: Mutex<Vec<Option<Child>>>,
    /// Count of terminal ranks, guarded with `done_cv` for the monitor.
    done: Mutex<usize>,
    done_cv: Condvar,
}

impl<L: Links> Supervisor<L> {
    pub(super) fn new(size: usize, links: L) -> Self {
        Supervisor {
            size,
            links,
            stop: AtomicBool::new(false),
            last_beat: (0..size).map(|_| Mutex::new(Instant::now())).collect(),
            last_ctx: (0..size)
                .map(|_| Mutex::new((u64::MAX, String::new())))
                .collect(),
            started: Instant::now(),
            last_progress: AtomicU64::new(0),
            terminal: (0..size).map(|_| AtomicBool::new(false)).collect(),
            results: Mutex::new((0..size).map(|_| None).collect()),
            abort: AbortRecord::default(),
            children: Mutex::new((0..size).map(|_| None).collect()),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
        }
    }

    pub(super) fn is_terminal(&self, rank: usize) -> bool {
        self.terminal[rank].load(Ordering::Acquire)
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
    /// still alive; later callers keep the original origin. (A session
    /// link delivers the abort even to a rank that is mid-reconnect.)
    fn record_abort(&self, origin: usize, reason: String) {
        if !self.abort.record(origin, reason.clone()) {
            return;
        }
        for rank in (0..self.size).filter(|&r| !self.is_terminal(r)) {
            self.links.send(
                rank,
                Frame::Abort {
                    origin: origin as u64,
                    reason: reason.clone(),
                },
            );
        }
    }

    /// Move `rank` to a terminal state with `outcome` (first writer
    /// wins) and wake the monitor if everyone is now terminal.
    fn finish(&self, rank: usize, outcome: RankResult) {
        {
            let mut results = plock(&self.results);
            if results[rank].is_some() {
                return;
            }
            results[rank] = Some(outcome);
        }
        self.terminal[rank].store(true, Ordering::Release);
        *plock(&self.done) += 1;
        self.done_cv.notify_all();
    }

    /// `rank`'s process is dead, or about to be: leave the flight
    /// record (a `PeerFailed` event naming the victim's last known comm
    /// op and phase, then the postmortem dump `flight-sup.qfr` — the
    /// supervisor has no rank of its own), abort the world, mark the
    /// rank terminal, retire its link so a zombie cannot reconnect,
    /// then kill the process for certainty. The record must come
    /// FIRST — killing first lets a reader thread observe the EOF and
    /// race in a generic "process died" reason before the real one.
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
        self.links.retire(rank);
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

    /// Check the route of a `Msg` that arrived from `rank`. A rank may
    /// only send as itself, to a rank that exists; anything else is a
    /// corrupt sender, declared dead here (false: do not forward).
    pub(super) fn admit_msg(&self, rank: usize, src: u64, dst: u64) -> bool {
        if src != rank as u64 || dst >= self.size as u64 {
            self.declare_dead(
                rank,
                format!(
                    "rank {rank} sent a corrupt route (src={src} dst={dst}, size {})",
                    self.size
                ),
            );
            return false;
        }
        self.progress();
        true
    }

    /// Dispatch one frame that arrived from `rank`: route messages,
    /// track heartbeats, convert Done/Failed frames into results, honor
    /// abort and kill requests.
    pub(super) fn on_frame(&self, rank: usize, frame: Frame) {
        match frame {
            Frame::Msg { src, dst, .. } => {
                if self.admit_msg(rank, src, dst) {
                    self.links.send(dst as usize, frame);
                }
            }
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
            Frame::Hello { .. } => { /* a late Hello is a protocol violation; harmless */ }
        }
    }

    /// Spawn one worker process per rank with the environment contract
    /// (`link_env` carries what is particular to the link kind).
    fn spawn_workers(&self, job: &Job, launch: &Launch, link_env: &[(&str, String)]) {
        for rank in 0..self.size {
            let mut cmd = Command::new(launch.worker);
            cmd.envs(link_env.iter().map(|(k, v)| (k, v)))
                .env(ENV_RANK, rank.to_string())
                .env(ENV_SIZE, self.size.to_string())
                .env(ENV_PROGRAM, job.program)
                .env(ENV_ARGS, hex_encode(job.args))
                .env(
                    ENV_RECV_TIMEOUT_MS,
                    job.opts.recv_timeout.as_millis().to_string(),
                )
                .env(
                    ENV_HEARTBEAT_MS,
                    launch.heartbeat_interval.as_millis().max(1).to_string(),
                )
                .env(
                    ENV_CONNECT_TIMEOUT_MS,
                    launch.connect_timeout.as_millis().to_string(),
                )
                .env(ENV_ATTEMPT, job.attempt.index.to_string())
                .stdin(Stdio::null());
            // children dump their flight postmortems next to the
            // supervisor's (set_postmortem_dir only affects this process)
            if let Some(dir) = telemetry::flight::postmortem_dir() {
                cmd.env(telemetry::flight::ENV_FLIGHT_DIR, &dir);
            }
            if let Some(plan) = &job.opts.faults {
                cmd.env(ENV_FAULTS, hex_encode(&plan.to_wire()));
            }
            match cmd.spawn() {
                Ok(child) => plock(&self.children)[rank] = Some(child),
                Err(e) => panic!(
                    "spawn worker {} for rank {rank}: {e}",
                    launch.worker.display()
                ),
            }
        }
    }

    /// Liveness monitor and waiter in one: until every rank is
    /// terminal, sweep the non-terminal ranks twice per heartbeat
    /// interval for a missed-heartbeat window, and enforce the silence
    /// backstop.
    fn monitor_until_terminal(&self, launch: &Launch, recv_timeout: Duration) {
        let window = launch
            .heartbeat_interval
            .saturating_mul(launch.heartbeat_grace.max(1));
        let sweep = (launch.heartbeat_interval / 2).max(Duration::from_millis(5));
        // Workers enforce their own receive timeouts; the backstop only
        // catches a wedged protocol — every process alive and
        // heartbeating, none of them communicating. It bounds silence,
        // not lifetime: any comm progress re-arms it.
        let backstop = recv_timeout.saturating_mul(2).saturating_add(window);
        self.progress(); // armed from now, not from before the workers connected
        let mut next_sweep = Instant::now() + sweep;
        let mut done = plock(&self.done);
        while *done < self.size {
            let now = Instant::now();
            if now < next_sweep {
                done = self
                    .done_cv
                    .wait_timeout(done, next_sweep - now)
                    .unwrap_or_else(|p| p.into_inner())
                    .0;
                continue;
            }
            drop(done);
            self.links.tick();
            let progressed = Duration::from_nanos(self.last_progress.load(Ordering::Relaxed));
            let silent = self.started.elapsed().saturating_sub(progressed) > backstop;
            // Longest-silent first: when several ranks pass the window in
            // one sweep, the abort origin is the one that went quiet first.
            let mut stale: Vec<(Duration, usize)> = (0..self.size)
                .filter(|&r| !self.is_terminal(r))
                .map(|r| (now.duration_since(*plock(&self.last_beat[r])), r))
                .filter(|&(quiet, _)| quiet > window)
                .collect();
            stale.sort_unstable_by_key(|&(quiet, rank)| (std::cmp::Reverse(quiet), rank));
            for (_, rank) in stale {
                count("comm.heartbeat.missed");
                self.declare_dead(
                    rank,
                    format!(
                        "rank {rank} missed its heartbeat window \
                         ({}×{:?} with no beat)",
                        launch.heartbeat_grace, launch.heartbeat_interval
                    ),
                );
            }
            if silent {
                for rank in (0..self.size).filter(|&r| !self.is_terminal(r)) {
                    self.declare_dead(
                        rank,
                        format!(
                            "rank {rank} still running after {backstop:?} \
                             without comm progress on any rank (supervisor backstop)"
                        ),
                    );
                }
            }
            next_sweep = Instant::now() + sweep;
            done = plock(&self.done);
        }
    }

    /// The world error for workers that never connected.
    fn startup_failure(&self, missing: &[usize], timeout: Duration) -> WorldError {
        let origin = missing[0];
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

/// Run `job` across worker processes joined by `links`. `connect`
/// waits until `deadline` for every worker's first connection and
/// starts the link's threads (pushed onto the handle list, joined at
/// teardown); it returns the ranks that never connected. Failure
/// reporting matches the thread backend's
/// [`try_run_with`](crate::try_run_with) in shape.
pub(super) fn run_world<L: Links>(
    job: &Job,
    launch: &Launch,
    links: L,
    link_env: &[(&str, String)],
    connect: impl FnOnce(&Arc<Supervisor<L>>, Instant, &mut Vec<JoinHandle<()>>) -> Vec<usize>,
) -> Result<Vec<Vec<u8>>, WorldError> {
    assert!(job.size > 0);
    telemetry::flight::arm();
    let sup = Arc::new(Supervisor::new(job.size, links));
    sup.spawn_workers(job, launch, link_env);
    let mut threads = Vec::new();
    let deadline = Instant::now() + launch.connect_timeout;
    let missing = connect(&sup, deadline, &mut threads);
    if missing.is_empty() {
        sup.monitor_until_terminal(launch, job.opts.recv_timeout);
    }

    // teardown: retire links, stop the link's threads, reap children
    sup.stop.store(true, Ordering::Release);
    for rank in 0..sup.size {
        sup.links.retire(rank);
    }
    for t in threads {
        let _ = t.join();
    }
    for child in plock(&sup.children).iter_mut().flatten() {
        let _ = child.kill(); // no-op for cleanly exited children
        let _ = child.wait(); // reap
    }

    if !missing.is_empty() {
        return Err(sup.startup_failure(&missing, launch.connect_timeout));
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

/// How a worker's frames reach the supervisor, and the supervisor's
/// frames reach the worker: the child half of a link kind.
pub(super) trait Uplink: Send + Sync + Sized + 'static {
    /// Set the link up from the worker environment. A link with no
    /// session to establish connects here.
    fn open(env: &WorkerEnv) -> Result<Self, String>;
    /// Start the link's threads (pushed onto `threads`, joined at exit)
    /// and return once the supervisor has accepted this rank. Incoming
    /// frames go to [`Worker::on_frame`].
    fn start(worker: &Arc<Worker<Self>>, threads: &mut Vec<JoinHandle<()>>) -> Result<(), String>;
    /// Send one frame to the supervisor. False when the connection is
    /// gone for good.
    fn send(&self, frame: Frame) -> bool;
    /// The rank's terminal frame is sent: see it delivered, then close.
    fn close(&self) {}
}

/// What the supervisor told this worker through the environment.
pub(super) struct WorkerEnv {
    pub(super) rank: usize,
    pub(super) addr: String,
    pub(super) connect_timeout: Duration,
    pub(super) faults: Option<FaultPlan>,
    size: usize,
    program: String,
    args: Vec<u8>,
    recv_timeout: Duration,
    heartbeat: Duration,
    attempt: Attempt,
}

impl WorkerEnv {
    fn from_env() -> Self {
        WorkerEnv {
            rank: env_num(ENV_RANK) as usize,
            addr: env_str(ENV_ADDR),
            connect_timeout: Duration::from_millis(env_num(ENV_CONNECT_TIMEOUT_MS)),
            faults: std::env::var(ENV_FAULTS)
                .ok()
                .map(|hex| wire_from_hex(ENV_FAULTS, &hex)),
            size: env_num(ENV_SIZE) as usize,
            program: env_str(ENV_PROGRAM),
            args: hex_decode(&std::env::var(ENV_ARGS).unwrap_or_default()).expect("args hex"),
            recv_timeout: Duration::from_millis(env_num(ENV_RECV_TIMEOUT_MS)),
            heartbeat: Duration::from_millis(env_num(ENV_HEARTBEAT_MS).max(1)),
            attempt: Attempt {
                index: env_num(ENV_ATTEMPT) as usize,
            },
        }
    }
}

/// The worker half of a process world: the rank's inbox, its local
/// abort record and status, the liveness context its heartbeats carry,
/// and the uplink. Implements [`Transport`] so the rank's `Comm` runs
/// the exact same matching/collective/abort logic as on threads.
pub(super) struct Worker<U> {
    pub(super) rank: usize,
    size: usize,
    recv_timeout: Duration,
    pub(super) up: U,
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

impl<U: Uplink> Worker<U> {
    /// Send one frame to the supervisor. A lost connection means the
    /// supervisor is gone; record a local abort so blocked receives
    /// unwind instead of waiting out their full timeout.
    fn send(&self, frame: Frame) {
        if !self.up.send(frame) {
            self.local_abort(
                usize::MAX,
                "connection to supervisor lost (write failed)".into(),
            );
        }
    }

    /// Record an abort locally and wake the (single) blocked receiver.
    /// Does not echo to the supervisor.
    pub(super) fn local_abort(&self, origin: usize, reason: String) {
        self.aborts.record(origin, reason);
        let _guard = plock(&self.inbox.queue);
        self.inbox.cv.notify_all();
    }

    /// A frame arrived from the supervisor: push a routed message into
    /// the inbox, honor an abort broadcast. It sends nothing else.
    pub(super) fn on_frame(&self, frame: Frame) {
        match frame {
            Frame::Msg {
                src,
                dst,
                tag,
                type_tag,
                bytes,
                data,
            } => {
                debug_assert_eq!(dst as usize, self.rank);
                self.inbox.push(Msg {
                    src: src as usize,
                    tag,
                    payload: Payload::Bytes { type_tag, data },
                    bytes,
                });
            }
            Frame::Abort { origin, reason } => self.local_abort(origin as usize, reason),
            _ => {}
        }
    }
}

impl<U: Uplink> Transport for Worker<U> {
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
            Payload::Bytes { type_tag, data } => self.send(Frame::Msg {
                src: msg.src as u64,
                dst: dest as u64,
                tag: msg.tag,
                type_tag,
                bytes: msg.bytes,
                data,
            }),
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

    fn request_kill(&self, rank: usize, op: u64) -> bool {
        self.send(Frame::RequestKill {
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

/// Parse the worker environment, connect, run the requested program,
/// report the outcome in-band. Returns the process exit code.
fn run_child<U: Uplink>(registry: &ProgramRegistry) -> i32 {
    let env = WorkerEnv::from_env();
    let rank = env.rank;

    // Flight recorder: every worker records its own ring and, on a
    // clean failure, dumps it before reporting (a SIGKILLed worker
    // obviously cannot — the supervisor's dump covers that case).
    telemetry::flight::arm();
    telemetry::flight::set_thread_rank(rank as u32);

    let mut threads = Vec::new();
    let started = U::open(&env).and_then(|up| {
        let worker = Arc::new(Worker {
            rank,
            size: env.size,
            recv_timeout: env.recv_timeout,
            up,
            inbox: Mailbox::new(),
            aborts: AbortRecord::default(),
            collectives: CollectiveNames::default(),
            status: Mutex::new(RankState::Running),
            hb_stop: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            last_op: AtomicU64::new(u64::MAX),
            last_phase: Mutex::new(""),
        });
        U::start(&worker, &mut threads).map(|()| worker)
    });
    let worker = match started {
        Ok(worker) => worker,
        Err(e) => {
            eprintln!(
                "rank {rank}: cannot connect to supervisor at {}: {e}",
                env.addr
            );
            for t in threads {
                let _ = t.join();
            }
            return 3;
        }
    };

    // heartbeat thread: liveness beacon until silenced
    let heartbeat = env.heartbeat;
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
                    telemetry::counter_add("comm.heartbeat.sent", 1);
                    seq += 1;
                    std::thread::sleep(heartbeat);
                }
            })
            .expect("spawn heartbeat")
    };

    let comm = Comm::new(
        rank,
        Arc::clone(&worker) as Arc<dyn Transport>,
        env.faults.as_ref().map(|p| p.compile(rank)),
    );
    let f = registry.get(&env.program).unwrap_or_else(|| {
        panic!(
            "worker registry has no program '{}' (registered: {:?})",
            env.program,
            registry.names()
        )
    });
    let ctx = ProgramCtx {
        args: env.args,
        attempt: env.attempt,
    };

    let outcome = catch_unwind(AssertUnwindSafe(|| f(&comm, &ctx)));
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
    for t in threads {
        let _ = t.join();
    }
    0
}

/// See [`crate::maybe_run_socket_child`].
pub(super) fn maybe_run_child(registry: &ProgramRegistry) -> bool {
    let Ok(link) = std::env::var(ENV_LINK) else {
        return false;
    };
    let code = match link.as_str() {
        super::socket::LINK => run_child::<super::socket::RawUplink>(registry),
        super::tcp::LINK => run_child::<super::tcp::SessionUplink>(registry),
        other => panic!("worker env {ENV_LINK} names an unknown link kind '{other}'"),
    };
    std::process::exit(code);
}

#[cfg(test)]
pub(super) mod tests {
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

    /// Several ranks past the heartbeat window in one sweep: the one
    /// silent longest is the abort origin, not the lowest index.
    #[test]
    fn the_longest_silent_rank_is_the_origin() {
        struct NoLinks;
        impl Links for NoLinks {
            fn send(&self, _: usize, _: Frame) {}
            fn retire(&self, _: usize) {}
        }
        let sup = Supervisor::new(3, NoLinks);
        for (rank, quiet_ms) in [(0, 300), (1, 400), (2, 500)] {
            *plock(&sup.last_beat[rank]) = Instant::now() - Duration::from_millis(quiet_ms);
        }
        let launch = Launch {
            worker: Path::new("unused"),
            heartbeat_interval: Duration::from_millis(100),
            heartbeat_grace: 2,
            connect_timeout: Duration::from_secs(1),
        };
        sup.monitor_until_terminal(&launch, Duration::from_secs(10));
        let origin = sup.abort.get().map(|info| info.origin);
        assert_eq!(origin, Some(2));
        assert!((0..3).all(|r| sup.is_terminal(r)));
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

    /// What the supervisor does with each frame kind, checked over
    /// whichever link kind the caller brings — the dispatch is shared,
    /// so every row must hold on both. `new_links(size)` builds the
    /// links of a world nobody has connected to; `sent_to(links, rank)`
    /// lists the frames the supervisor has sent `rank` so far. A corrupt
    /// route, `Failed` and `RequestKill` each end rank 0 with the typed
    /// outcome and abort the world in its name; an abort reaches only
    /// ranks that are not terminal, and the first origin wins.
    pub(in crate::transport) fn check_supervisor_contract<L: Links>(
        new_links: impl Fn(usize) -> L,
        sent_to: impl Fn(&L, usize) -> Vec<Frame>,
    ) {
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
        for case in cases {
            let name = case.name;
            let before = (
                counter("comm.peer_failures"),
                counter("comm.sigkill.injected"),
            );
            let sup = Supervisor::new(3, new_links(3));
            sup.on_frame(
                2,
                Frame::Done {
                    rank: 2,
                    result: vec![2],
                },
            );
            for frame in case.feed {
                sup.on_frame(0, frame);
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
            assert_eq!(sent_to(&sup.links, 1), case.rank1_gets, "{name}: sent to 1");
            assert_eq!(
                sent_to(&sup.links, 2),
                [],
                "{name}: sent to terminal rank 2"
            );
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
