//! Pluggable transport backends.
//!
//! The communicator logic in [`Comm`](crate::Comm) — message matching,
//! parking, collectives, fault injection, abort unwinding — is backend
//! generic: it talks to a [`Transport`] that knows how to move a
//! [`Msg`](crate::Msg) between ranks and how to spread an abort. Two
//! types implement it, one per kind of world:
//!
//! * **threads** ([`World`](crate::World)): the original in-process
//!   simulator — one OS thread per rank sharing mailboxes. Payloads
//!   move as boxed values, never serialized.
//! * **processes** ([`process`]): one OS *process* per rank in a star
//!   around a supervisor. Payloads are Wire-encoded into CRC-guarded
//!   length-prefixed frames; liveness is tracked with heartbeats and
//!   process exits; a dead process is a detectable, recoverable event
//!   instead of a wedged world. The supervisor, the worker runtime, the
//!   rank-local state and the link — a reconnect-and-replay session
//!   ([`tcp`]) — exist once; [`Backend::Sockets`] and [`Backend::Tcp`]
//!   differ only in the byte stream the session runs over, a Unix
//!   socket or a loopback TCP connection.
//!
//! Because child processes cannot inherit closures, process worlds run
//! *named programs* out of a [`ProgramRegistry`]: plain `fn` items
//! taking `(&Comm, &ProgramCtx)` and returning Wire-encoded bytes. The
//! same registry runs unchanged on the thread backend via
//! [`try_run_program`], which is how one parameterized test harness
//! covers all three backends.

pub(crate) mod frame;
pub(crate) mod process;
mod session;
pub(crate) mod tcp;

use crate::fault::FaultAction;
use crate::{
    AbortRecord, Attempt, CollectiveNames, Comm, CommError, Mailbox, Msg, RankState, RunOptions,
    WorldError,
};
use process::LinkKind;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// The backend-facing surface of a world: everything `Comm` needs to
/// run its matching, collective, and abort logic without knowing
/// whether peers are threads or processes.
pub(crate) trait Transport: Send + Sync {
    /// Number of ranks.
    fn size(&self) -> usize;
    /// Blocking-receive timeout configured for this world.
    fn recv_timeout(&self) -> Duration;
    /// Where a payload that crosses a process boundary is Wire-encoded:
    /// a buffer already holding the frame header. `None`: values move.
    fn frame_buffer(&self) -> Option<Vec<u8>>;
    /// A received payload buffer has been decoded; keep it for reuse.
    fn recycle(&self, _buf: Vec<u8>) {}
    /// The inbound queue `rank` blocks on.
    fn mailbox(&self, rank: usize) -> &Mailbox;
    /// Enqueue a message for `dest` (local push or socket frame).
    fn deliver(&self, dest: usize, msg: Msg);
    /// The abort record ranks check before sending and while blocked.
    fn aborts(&self) -> &AbortRecord;
    /// Record a failure (first origin wins) and wake every blocked rank.
    fn abort(&self, origin: usize, reason: String);
    /// Span names of issued collectives, for tag pretty-printing.
    fn collectives(&self) -> &CollectiveNames;
    /// Publish what this rank is doing, for peers' deadlock diagnostics.
    fn set_status(&self, rank: usize, state: RankState);
    /// World-state dump for timeout diagnostics.
    fn diagnostic(&self) -> String;
    /// Fault hook: true when the transport made `action` real — a
    /// SIGKILL on its way, or heartbeats stopped for the supervisor's
    /// missed-heartbeat window to catch — and the calling rank should
    /// park awaiting death. False degrades the action to a panic.
    fn inject(&self, _action: FaultAction) -> bool {
        false
    }
    /// Liveness context hook, called once per counted comm op with the
    /// op index and the current telemetry phase. A process world
    /// folds these into its heartbeat frames so the supervisor can name
    /// a SIGKILLed rank's last comm op and phase in the flight-recorder
    /// postmortem; the thread backend needs nothing (the victim's own
    /// events are already in the shared ring).
    fn note_comm_op(&self, _op: u64, _phase: Option<&'static str>) {}
}

/// Configuration of both process-per-rank backends,
/// [`Backend::Sockets`] and [`Backend::Tcp`]: the worker executable
/// and the liveness window. What no caller varies is a constant: the
/// 10 s the supervisor waits for a worker's handshake, the 256 MiB
/// frame cap, and the session's (re)connect schedule (12 attempts, 10 → 500 ms exponential
/// backoff, 20 % deterministic jitter).
#[derive(Clone, Debug)]
pub struct SocketOptions {
    /// Executable spawned once per rank. Must call
    /// [`maybe_run_socket_child`] before doing anything else, with a
    /// registry containing the program being run — the canonical
    /// choice is `std::env::current_exe()` (the supervisor re-executes
    /// its own binary).
    pub worker: PathBuf,
    /// Interval between heartbeat frames sent by each rank process.
    pub heartbeat_interval: Duration,
    /// How many consecutive missed heartbeat intervals mark a rank
    /// dead. The window is `heartbeat_interval * heartbeat_grace`;
    /// keep it generous — a rank busy in a long compute phase still
    /// heartbeats (the sender is a dedicated thread), but a loaded CI
    /// machine can starve that thread for tens of milliseconds. It is
    /// also the budget inside which a dropped connection may reconnect
    /// and resume with **no** failure escalation.
    pub heartbeat_grace: u32,
}

impl SocketOptions {
    /// Options with the given worker executable and default liveness
    /// parameters (50 ms heartbeats, 40-interval = 2 s death window).
    pub fn new(worker: PathBuf) -> Self {
        SocketOptions {
            worker,
            heartbeat_interval: Duration::from_millis(50),
            heartbeat_grace: 40,
        }
    }
}

/// The TCP backend's name for [`SocketOptions`]: both process backends
/// take the same options.
pub type TcpOptions = SocketOptions;

/// Which transport executes a program's ranks.
#[derive(Clone, Debug)]
pub enum Backend {
    /// One OS thread per rank in this process (the original simulator).
    Threads,
    /// One OS process per rank, joined to the supervisor over Unix
    /// domain sockets.
    Sockets(SocketOptions),
    /// One OS process per rank, joined to the supervisor over TCP on
    /// `127.0.0.1`. Both process backends run the same reliable session
    /// over their stream: sequence numbers, acks, and
    /// reconnect-with-backoff, so a transient connection loss inside
    /// the heartbeat window heals without any recovery escalation.
    Tcp(TcpOptions),
}

impl Backend {
    /// Short name for provenance records (bench JSON, telemetry).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Threads => "threads",
            Backend::Sockets(_) => "sockets",
            Backend::Tcp(_) => "tcp",
        }
    }
}

/// Per-rank context handed to a registered program alongside its `Comm`.
#[derive(Clone, Debug)]
pub struct ProgramCtx {
    /// Opaque argument bytes, identical on every rank (Wire-encode your
    /// parameter struct).
    pub args: Vec<u8>,
    /// Which recovery attempt this run is (attempt 0 = first try).
    pub attempt: Attempt,
}

/// A rank program runnable on any backend. A plain `fn` — not a
/// closure — because socket workers look it up by name in a fresh
/// process where no captured environment exists.
pub type ProgramFn = fn(&Comm, &ProgramCtx) -> Result<Vec<u8>, CommError>;

/// Name → program table shared by the supervisor and its spawned
/// workers (both sides construct the same registry, typically in a
/// common library function).
#[derive(Default)]
pub struct ProgramRegistry {
    map: BTreeMap<&'static str, ProgramFn>,
}

impl ProgramRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `f` under `name`; replaces any previous entry. Returns
    /// `self` for chaining.
    pub fn register(mut self, name: &'static str, f: ProgramFn) -> Self {
        self.map.insert(name, f);
        self
    }

    /// Look up a program by name.
    pub(crate) fn get(&self, name: &str) -> Option<ProgramFn> {
        self.map.get(name).copied()
    }
}

/// Run registered program `name` across `size` ranks on the chosen
/// backend and collect the per-rank result bytes in rank order.
///
/// On [`Backend::Threads`] this is [`try_run_with`](crate::try_run_with)
/// with the program wrapped as a closure. On [`Backend::Sockets`] and
/// [`Backend::Tcp`] the supervisor spawns one worker process per rank
/// and the same program (found by name in the worker's registry) runs
/// against the process transport, its session over a Unix socket or a
/// TCP connection respectively. Failure reporting is identical in shape: a
/// [`WorldError`] naming the origin rank and all collateral failures —
/// plus, only possible with processes, origins of kind
/// [`CommError::PeerFailed`] when a rank *process* died.
///
/// Panics, before any process is spawned, when `registry` has no
/// program `name`.
pub fn try_run_program(
    backend: &Backend,
    size: usize,
    opts: &RunOptions,
    registry: &ProgramRegistry,
    name: &str,
    args: &[u8],
    attempt: Attempt,
) -> Result<Vec<Vec<u8>>, WorldError> {
    let f = (registry.get(name)).unwrap_or_else(|| panic!("program '{name}' not in registry"));
    let (link, proc_opts) = match backend {
        Backend::Threads => {
            let ctx = ProgramCtx {
                args: args.to_vec(),
                attempt,
            };
            return crate::try_run_with(size, opts.clone(), move |c| f(&c, &ctx));
        }
        Backend::Sockets(sock) => (LinkKind::Unix, sock),
        Backend::Tcp(tcp) => (LinkKind::Tcp, tcp),
    };
    let spawn = process::Spawn {
        link,
        addr: String::new(),
        rank: 0,
        size,
        program: name.into(),
        args: args.to_vec(),
        recv_timeout: opts.recv_timeout,
        heartbeat: proc_opts.heartbeat_interval,
        attempt,
        faults: opts.faults.clone(),
    };
    process::run_world(spawn, proc_opts)
}

/// Worker-process hook: when the calling process was spawned as a
/// socket- or TCP-backend rank (detected via the one environment
/// variable the supervisor sets, `QF_SOCKET_SPAWN`), connect back, run
/// the requested program from `registry`, report the outcome in-band,
/// and **exit the process**. Returns normally — `false` — only when not
/// a worker; a malformed `QF_SOCKET_SPAWN` exits with code 3.
///
/// Call this first thing in `main()` of any binary used as a
/// [`SocketOptions::worker`].
pub fn maybe_run_socket_child(registry: &ProgramRegistry) -> bool {
    process::maybe_run_child(registry)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An unknown program name fails the call on every backend, by
    /// name, before a worker is spawned: the worker named here does
    /// not exist, so a spawn would panic with another message.
    #[test]
    fn an_unknown_program_fails_at_the_call_on_every_backend() {
        let absent = SocketOptions::new("/nonexistent/quadforest-worker".into());
        let backends = [
            Backend::Threads,
            Backend::Sockets(absent.clone()),
            Backend::Tcp(absent),
        ];
        for backend in backends {
            let call = std::panic::catch_unwind(|| {
                let registry = ProgramRegistry::new();
                let opts = RunOptions::default();
                try_run_program(&backend, 2, &opts, &registry, "nope", &[], Attempt::first())
            });
            let payload = call.expect_err("an unknown program must panic");
            assert_eq!(
                crate::panic_message(payload),
                "program 'nope' not in registry",
                "{}",
                backend.name()
            );
        }
    }
}
