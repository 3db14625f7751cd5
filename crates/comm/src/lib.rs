//! # quadforest-comm
//!
//! An in-process message-passing simulator standing in for MPI.
//!
//! The paper benchmarks p4est on up to 512 MPI ranks; this environment is
//! a single machine, so rank parallelism is *simulated*: [`run`] spawns
//! one OS thread per rank, each executing the same rank program against a
//! [`Comm`] handle that provides tagged point-to-point messages and the
//! collectives the forest algorithms need (`barrier`, `allgather`,
//! `allreduce`, `exscan`, `alltoallv`, `bcast`). Messages are typed
//! (`Box<dyn Any>` under the hood) and delivery is per-sender FIFO, like
//! MPI's non-overtaking guarantee.
//!
//! The simulator is deterministic at the algorithm level: all forest
//! algorithms built on it produce rank-count-independent results, which
//! the integration tests assert by comparing partitions and ghost layers
//! across different `P`.
//!
//! ## Failure semantics
//!
//! Real MPI aborts the job when a rank dies; a naive thread simulator
//! instead deadlocks, because the surviving ranks block forever in
//! `recv`. This crate propagates failure the way
//! `MPI_ERRORS_RETURN` + `MPI_Abort` would:
//!
//! * every world carries a shared *abort* state — the first rank to
//!   panic, return an error, or time out records itself as the origin
//!   and wakes every blocked peer, which then unwinds with
//!   [`CommError::Aborted`];
//! * [`try_run`] returns [`WorldError`] naming the origin rank, the
//!   reason, and every rank that unwound in consequence ([`run`] keeps
//!   the old infallible signature and simply panics with that report);
//! * every communication call has a fallible `try_*` twin returning
//!   [`CommError`] instead of panicking;
//! * blocking receives respect a configurable timeout
//!   ([`RunOptions::recv_timeout`]); on expiry the rank dumps a
//!   deadlock diagnostic — what every rank was waiting on, its parked
//!   messages, its collective sequence number — then aborts the world.
//!
//! ## Chaos testing
//!
//! [`run_with_faults`] executes a rank program under a deterministic,
//! seed-driven [`FaultPlan`]: message delivery delays, cross-stream
//! reordering (per-`(dst, tag)` FIFO is preserved, exactly the freedom
//! a real network has), and scheduled rank panics at the Nth
//! communication operation. Because a correct program may not depend on
//! timing, a delay/reorder plan must not change any result:
//!
//! ```
//! use quadforest_comm::{run, run_with_faults, FaultPlan};
//! use std::time::Duration;
//!
//! let plan = FaultPlan::new(0xC0FFEE)
//!     .with_delays(0.25, Duration::from_micros(200))
//!     .with_reordering(0.25);
//! let chaotic = run_with_faults(4, plan, |c| c.allreduce_sum(c.rank() as u64)).unwrap();
//! let calm = run(4, |c| c.allreduce_sum(c.rank() as u64));
//! assert_eq!(chaotic, calm);
//! ```
//!
//! And a scheduled panic surfaces as a typed world failure instead of a
//! hang:
//!
//! ```
//! use quadforest_comm::{run_with_faults, FaultPlan};
//!
//! let err = run_with_faults(4, FaultPlan::new(1).with_panic_at(2, 0), |c| {
//!     c.barrier();
//!     c.rank()
//! })
//! .unwrap_err();
//! assert_eq!(err.origin, 2);
//! ```

#![warn(missing_docs)]

mod error;
mod fault;
mod recovery;
mod transport;

pub use error::{CommError, RankError, RankFailure, WorldError};
pub use fault::{FaultPlan, NetDir};
pub use recovery::{
    run_with_recovery, run_with_recovery_program, Attempt, RecoveryError, RecoveryOptions,
    RecoveryOutcome, RecoveryPolicy,
};
pub use transport::{
    maybe_run_socket_child, try_run_program, Backend, ProgramCtx, ProgramFn, ProgramRegistry,
    SocketOptions, TcpOptions,
};

use error::tag_display;
use fault::{FaultAction, RankFaults};
use quadforest_core::Wire;
use quadforest_telemetry as telemetry;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use transport::Transport;

/// A message payload: in-process worlds pass the boxed value itself
/// (zero-copy, any `Send` type); cross-process worlds pass Wire-encoded
/// bytes plus a hash of the sender's type name so receiver-side type
/// mismatches stay typed errors instead of garbled decodes.
pub(crate) enum Payload {
    /// Same-address-space delivery: the value, type-erased.
    Local(Box<dyn Any + Send>),
    /// Cross-process delivery: Wire encoding plus the sender's type tag.
    Bytes {
        /// FNV-1a hash of the sender's `std::any::type_name`.
        type_tag: u64,
        /// The Wire-encoded value is `data[at..]`, in the frame buffer
        /// it was encoded into or arrived in.
        data: Vec<u8>,
        at: usize,
    },
}

/// FNV-1a over the type name: the cross-process analogue of a `TypeId`
/// (which is not stable across binaries, let alone processes). Type
/// *names* are stable for one compiled binary talking to itself, which
/// is exactly the process-backend topology (the supervisor re-executes
/// its own binary per rank).
pub(crate) fn wire_type_tag<T: 'static>() -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in std::any::type_name::<T>().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A tagged, typed message in flight.
pub(crate) struct Msg {
    pub(crate) src: usize,
    pub(crate) tag: u64,
    pub(crate) payload: Payload,
    /// Best-effort payload size estimate for telemetry: exact for
    /// serialized payloads, computed where the concrete type was still
    /// visible (deep for the `Vec` bulk paths, shallow `size_of_val`
    /// elsewhere) for local ones.
    pub(crate) bytes: u64,
}

/// User tags live below this bound; collective-internal tags above it.
pub(crate) const COLL_TAG_BASE: u64 = 1 << 48;

/// Lock a mutex, ignoring poisoning: a poisoned mailbox or status cell
/// only means some rank panicked while holding it, and the abort
/// machinery — not the lock — is what reports that failure.
pub(crate) fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// How long a receive yields its CPU, re-checking its mailbox and the
/// abort flag between yields, before it parks on the condvar: a message
/// that lands inside it costs no futex wake-up on either side. Chosen
/// by the sweep in EXPERIMENTS.md, "Receive without sleeping".
const SPIN: Duration = Duration::from_micros(50);

/// A mailbox's messages, and how many receives sleep on its condvar.
#[derive(Default)]
pub(crate) struct Inbox {
    msgs: VecDeque<Msg>,
    sleepers: usize,
}

/// One rank's inbound queue plus the condvar its owner parks on.
pub(crate) struct Mailbox {
    pub(crate) queue: Mutex<Inbox>,
    pub(crate) cv: Condvar,
}

impl Mailbox {
    pub(crate) fn new() -> Self {
        Mailbox {
            queue: Mutex::new(Inbox::default()),
            cv: Condvar::new(),
        }
    }

    /// Enqueue a message and wake the owner if it is parked; a spinning
    /// owner sees the message on its next turn. An abort wakes the owner
    /// whether or not it sleeps.
    pub(crate) fn push(&self, msg: Msg) {
        let sleeping = {
            let mut queue = plock(&self.queue);
            queue.msgs.push_back(msg);
            queue.sleepers > 0
        };
        // a sleeper counted under the lock is already waiting on `cv`
        if sleeping {
            self.cv.notify_all();
        }
    }

    /// Yield until `until`, until a message lands, or until the world
    /// aborts, whichever comes first.
    fn spin(&self, aborts: &AbortRecord, until: Instant) {
        loop {
            std::thread::yield_now();
            if !plock(&self.queue).msgs.is_empty() || aborts.is_set() || Instant::now() >= until {
                return;
            }
        }
    }
}

/// What a rank is doing right now, as visible to peers building a
/// deadlock diagnostic.
#[derive(Clone, Debug)]
pub(crate) enum RankState {
    /// Executing user code (not blocked inside the simulator).
    Running,
    /// Blocked in a receive.
    Waiting {
        src: usize,
        tag: u64,
        /// `(src, tag)` of every parked (received but unmatched) message.
        parked: Vec<(usize, u64)>,
        /// Collective sequence number (how many collectives completed).
        coll_seq: u64,
        /// Innermost telemetry span open on the rank when it blocked
        /// (`None` when telemetry is off), so the deadlock diagnostic
        /// can name the phase each rank is stuck in.
        phase: Option<&'static str>,
    },
    /// Rank program returned successfully.
    Finished,
    /// Rank program panicked or returned an error.
    Failed(String),
}

/// The origin of a world abort.
#[derive(Clone)]
pub(crate) struct AbortInfo {
    pub(crate) origin: usize,
    pub(crate) reason: String,
}

/// The abort record of one address space — a thread world, a worker
/// process, or a process-world supervisor. The first failure wins;
/// later ones are collateral and keep the original origin.
#[derive(Default)]
pub(crate) struct AbortRecord {
    /// Fast-path flag; the authoritative record is `info`.
    flag: AtomicBool,
    info: Mutex<Option<AbortInfo>>,
}

impl AbortRecord {
    /// Fast-path abort check.
    pub(crate) fn is_set(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Record a failure unless an earlier one already did. Returns
    /// true when this call was the first, i.e. `origin` is now the
    /// world's abort origin.
    pub(crate) fn record(&self, origin: usize, reason: String) -> bool {
        let mut info = plock(&self.info);
        let first = info.is_none();
        if first {
            *info = Some(AbortInfo { origin, reason });
        }
        self.flag.store(true, Ordering::Release);
        first
    }

    /// The recorded origin and reason, if any rank has failed.
    pub(crate) fn get(&self) -> Option<AbortInfo> {
        plock(&self.info).clone()
    }

    /// The `CommError` a rank unwinds with once the world is aborted.
    pub(crate) fn error(&self) -> CommError {
        match self.get() {
            Some(AbortInfo { origin, reason }) => CommError::Aborted { origin, reason },
            // The flag can only be set through `record`, but stay safe.
            None => CommError::Aborted {
                origin: usize::MAX,
                reason: "world aborted".into(),
            },
        }
    }
}

/// Collective sequence number → telemetry span name open when that
/// collective was issued. Populated only while telemetry records, so
/// diagnostics print `coll:5(balance)` instead of a bare tag number.
#[derive(Default)]
pub(crate) struct CollectiveNames(Mutex<HashMap<u64, &'static str>>);

impl CollectiveNames {
    /// Remember which telemetry span issued collective `seq` (first rank
    /// to issue it wins; all ranks agree on call order anyway).
    pub(crate) fn name(&self, seq: u64, phase: &'static str) {
        plock(&self.0).entry(seq).or_insert(phase);
    }

    /// [`tag_display`] plus the registered span name, when one is known:
    /// `coll:5(balance)` / `coll:5#2(balance)` / `user:7`.
    pub(crate) fn label(&self, tag: u64) -> String {
        let base = tag_display(tag);
        if tag >= COLL_TAG_BASE {
            let seq = (tag - COLL_TAG_BASE) & 0xFFFF_FFFF;
            if let Some(name) = plock(&self.0).get(&seq) {
                return format!("{base}({name})");
            }
        }
        base
    }
}

/// Shared per-world state: mailboxes, abort record, per-rank status.
struct World {
    size: usize,
    recv_timeout: Duration,
    mailboxes: Vec<Mailbox>,
    aborts: AbortRecord,
    status: Vec<Mutex<RankState>>,
    collectives: CollectiveNames,
}

impl World {
    fn new(size: usize, recv_timeout: Duration) -> Self {
        World {
            size,
            recv_timeout,
            mailboxes: (0..size).map(|_| Mailbox::new()).collect(),
            aborts: AbortRecord::default(),
            status: (0..size).map(|_| Mutex::new(RankState::Running)).collect(),
            collectives: CollectiveNames::default(),
        }
    }
}

// The thread backend *is* the world state: every rank shares this
// struct, so deliver is a queue push and abort is a flag flip. No
// serialization — payloads move as boxed values.
impl Transport for World {
    fn size(&self) -> usize {
        self.size
    }

    fn recv_timeout(&self) -> Duration {
        self.recv_timeout
    }

    fn frame_buffer(&self) -> Option<Vec<u8>> {
        None
    }

    fn mailbox(&self, rank: usize) -> &Mailbox {
        &self.mailboxes[rank]
    }

    fn deliver(&self, dest: usize, msg: Msg) {
        self.mailboxes[dest].push(msg);
    }

    fn aborts(&self) -> &AbortRecord {
        &self.aborts
    }

    /// Notifying under each queue lock guarantees no receiver misses the
    /// wakeup: it either sees the flag before sleeping or is woken after.
    fn abort(&self, origin: usize, reason: String) {
        self.aborts.record(origin, reason);
        for mb in &self.mailboxes {
            let _guard = plock(&mb.queue);
            mb.cv.notify_all();
        }
    }

    fn collectives(&self) -> &CollectiveNames {
        &self.collectives
    }

    fn set_status(&self, rank: usize, state: RankState) {
        *plock(&self.status[rank]) = state;
    }

    /// What every rank is blocked on, its parked messages, its
    /// collective sequence number.
    fn diagnostic(&self) -> String {
        let mut s = format!(
            "deadlock diagnostic (size {}, recv timeout {:?}):\n",
            self.size, self.recv_timeout
        );
        for (rank, cell) in self.status.iter().enumerate() {
            let state = plock(cell).clone();
            match state {
                RankState::Running => {
                    s.push_str(&format!("  rank {rank}: running (not blocked in comm)\n"));
                }
                RankState::Waiting {
                    src,
                    tag,
                    parked,
                    coll_seq,
                    phase,
                } => {
                    let parked_s = if parked.is_empty() {
                        "-".to_string()
                    } else {
                        parked
                            .iter()
                            .map(|(ps, pt)| format!("{}@src{}", self.collectives.label(*pt), ps))
                            .collect::<Vec<_>>()
                            .join(", ")
                    };
                    let phase_s = phase.map(|p| format!(" phase='{p}'")).unwrap_or_default();
                    s.push_str(&format!(
                        "  rank {rank}: waiting on src={src} tag={} coll_seq={coll_seq} parked=[{parked_s}]{phase_s}\n",
                        self.collectives.label(tag)
                    ));
                }
                RankState::Finished => {
                    s.push_str(&format!("  rank {rank}: finished\n"));
                }
                RankState::Failed(why) => {
                    s.push_str(&format!("  rank {rank}: failed ({why})\n"));
                }
            }
        }
        s
    }
}

/// Per-rank communicator handle. Not `Sync`: each rank owns its handle.
pub struct Comm {
    rank: usize,
    transport: Arc<dyn Transport>,
    /// Out-of-order messages parked until a matching `recv`.
    parked: RefCell<VecDeque<Msg>>,
    /// Sequence number for collective operations; identical call order on
    /// every rank yields matching tags without global coordination.
    coll_seq: Cell<u64>,
    /// Comm ops counted so far (same indexing as [`FaultPlan`] kill
    /// points) — reported to the transport for liveness context.
    ops: Cell<u64>,
    /// Compiled fault stream, when running under a [`FaultPlan`].
    faults: Option<RankFaults>,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        transport: Arc<dyn Transport>,
        faults: Option<RankFaults>,
    ) -> Self {
        Comm {
            rank,
            transport,
            parked: RefCell::new(VecDeque::new()),
            coll_seq: Cell::new(0),
            ops: Cell::new(0),
            faults,
        }
    }

    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks `P`.
    pub fn size(&self) -> usize {
        self.transport.size()
    }

    /// Count one communication operation against the fault plan; a
    /// scheduled panic, SIGKILL, or stall fires here, before any
    /// message moves. Panics are raised via `resume_unwind` so the
    /// global panic hook stays quiet — injected deaths are expected,
    /// only *unexpected* panics should print. A SIGKILL or stall asks
    /// the transport first: a process world arranges a real death (a
    /// SIGKILL, or silenced heartbeats for the supervisor's window to
    /// catch) and the rank parks awaiting it; threads cannot, so both
    /// degrade to a scheduled panic.
    fn tick(&self) {
        let op = self.ops.get();
        self.ops.set(op + 1);
        self.transport.note_comm_op(op, telemetry::current_span());
        let Some(action) = self.faults.as_ref().and_then(|f| f.tick_op(op)) else {
            return;
        };
        if self.transport.inject(action) {
            // the death is on its way: wait for it to land
            loop {
                std::thread::park();
            }
        }
        let what = match action {
            FaultAction::Panic(_) => "panic",
            FaultAction::Sigkill(_) => "SIGKILL (as panic: threads cannot be killed)",
            FaultAction::Stall(_) => "stall (as panic: a stalled thread would hang the world)",
        };
        std::panic::resume_unwind(Box::new(format!(
            "fault injection: scheduled {what} at comm op {op} on rank {}",
            self.rank
        )))
    }

    /// Panic unless `rank`, the `what` argument of a call, is a rank of
    /// this world: a bad rank fails at the call, the same way on every
    /// backend, instead of deep in the transport or after a timeout.
    fn check_rank(&self, what: &str, rank: usize) {
        let size = self.size();
        assert!(
            rank < size,
            "{what} {rank} is out of range for {size} ranks"
        );
    }

    /// Deliver every held-back (reordered) message, in a seeded shuffle
    /// that preserves per-`(dst, tag)` order. Called before any
    /// blocking receive — holding messages across our own recv could
    /// otherwise manufacture a deadlock the real network cannot.
    fn flush_held(&self) {
        if let Some(f) = &self.faults {
            if f.has_held() {
                for h in f.drain_held() {
                    self.transport.deliver(h.dst, h.msg);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // point-to-point
    // ------------------------------------------------------------------

    /// Send `data` to `dest` with `tag`. Never blocks (buffered
    /// mailboxes). Panics if the world has aborted; see [`Comm::try_send`].
    pub fn send<T: Wire + Send + 'static>(&self, dest: usize, tag: u64, data: T) {
        self.try_send(dest, tag, data)
            .unwrap_or_else(|e| comm_panic(e))
    }

    /// Fallible [`Comm::send`]: returns [`CommError::Aborted`] instead of
    /// panicking when another rank has already failed.
    pub fn try_send<T: Wire + Send + 'static>(
        &self,
        dest: usize,
        tag: u64,
        data: T,
    ) -> Result<(), CommError> {
        assert!(tag < COLL_TAG_BASE, "user tags must be < 2^48");
        self.check_rank("send: dest", dest);
        self.tick();
        let bytes = std::mem::size_of_val(&data) as u64;
        self.send_value(dest, tag, data, bytes)
    }

    /// Build the backend-appropriate payload (boxed value in-process,
    /// Wire bytes cross-process, in the buffer the transport sends) and
    /// hand it to `send_impl`. `bytes` is the caller's telemetry size
    /// estimate for the local path; the serialized path uses the exact
    /// encoded length instead.
    fn send_value<T: Wire + Send + 'static>(
        &self,
        dest: usize,
        tag: u64,
        value: T,
        bytes: u64,
    ) -> Result<(), CommError> {
        let Some(mut data) = self.transport.frame_buffer() else {
            return self.send_impl(dest, tag, Payload::Local(Box::new(value)), bytes);
        };
        let at = data.len();
        value.encode(&mut data);
        let bytes = (data.len() - at) as u64;
        let type_tag = wire_type_tag::<T>();
        self.send_impl(dest, tag, Payload::Bytes { type_tag, data, at }, bytes)
    }

    fn send_impl(
        &self,
        dest: usize,
        tag: u64,
        payload: Payload,
        bytes: u64,
    ) -> Result<(), CommError> {
        if self.transport.aborts().is_set() {
            return Err(self.transport.aborts().error());
        }
        telemetry::counter_add("comm.msgs_sent", 1);
        telemetry::counter_add("comm.bytes_sent", bytes);
        telemetry::flight::event(
            telemetry::flight::FlightKind::CommSend,
            dest as u32,
            tag,
            bytes,
        );
        let msg = Msg {
            src: self.rank,
            tag,
            payload,
            bytes,
        };
        match &self.faults {
            Some(f) => {
                if let Some(delay) = f.draw_delay() {
                    std::thread::sleep(delay);
                }
                if let Some(msg) = f.maybe_hold(dest, tag, msg) {
                    self.transport.deliver(dest, msg);
                }
            }
            None => self.transport.deliver(dest, msg),
        }
        Ok(())
    }

    /// Blocking receive of the next message from `src` with `tag`.
    /// Messages from the same sender are non-overtaking per tag.
    /// Panics on abort, timeout, or payload-type mismatch; see
    /// [`Comm::try_recv`].
    pub fn recv<T: Wire + Send + 'static>(&self, src: usize, tag: u64) -> T {
        self.try_recv(src, tag).unwrap_or_else(|e| comm_panic(e))
    }

    /// Fallible [`Comm::recv`]: unwinds with [`CommError::Aborted`] when a
    /// peer fails while we block, [`CommError::Timeout`] (carrying a
    /// world-state deadlock diagnostic) when nothing arrives within the
    /// configured [`RunOptions::recv_timeout`], and
    /// [`CommError::TypeMismatch`] when the matching message holds a
    /// different payload type.
    pub fn try_recv<T: Wire + Send + 'static>(&self, src: usize, tag: u64) -> Result<T, CommError> {
        assert!(tag < COLL_TAG_BASE, "user tags must be < 2^48");
        self.check_rank("recv: src", src);
        self.tick();
        self.recv_impl(src, tag)
    }

    fn recv_impl<T: Wire + Send + 'static>(&self, src: usize, tag: u64) -> Result<T, CommError> {
        // never block while holding reordered messages of our own
        self.flush_held();
        // first serve a parked message if one matches
        {
            let mut parked = self.parked.borrow_mut();
            if let Some(pos) = parked.iter().position(|m| m.src == src && m.tag == tag) {
                let msg = parked.remove(pos).unwrap();
                return downcast_msg(&*self.transport, msg);
            }
        }
        let world = &*self.transport;
        let started = Instant::now();
        let (spun, deadline) = (started + SPIN, started + world.recv_timeout());
        let mb = world.mailbox(self.rank);
        // the parked count the published `Waiting` lists, once published
        let mut published = None;
        let running = |published: Option<usize>| {
            if published.is_some() {
                world.set_status(self.rank, RankState::Running);
            }
        };
        let mut queue = plock(&mb.queue);
        loop {
            // drain everything already delivered
            while let Some(msg) = queue.msgs.pop_front() {
                if msg.src == src && msg.tag == tag {
                    drop(queue);
                    running(published);
                    return downcast_msg(world, msg);
                }
                self.parked.borrow_mut().push_back(msg);
            }
            if world.aborts().is_set() {
                drop(queue);
                running(published);
                return Err(world.aborts().error());
            }
            // publish what we are blocked on, for peers' diagnostics:
            // once, and again only if the drain parked more
            let parked = self.parked.borrow();
            if published != Some(parked.len()) {
                published = Some(parked.len());
                world.set_status(
                    self.rank,
                    RankState::Waiting {
                        src,
                        tag,
                        parked: parked.iter().map(|m| (m.src, m.tag)).collect(),
                        coll_seq: self.coll_seq.get(),
                        phase: telemetry::current_span(),
                    },
                );
            }
            drop(parked);
            let now = Instant::now();
            if now >= deadline {
                drop(queue);
                let diagnostic = world.diagnostic();
                let phase = telemetry::current_span()
                    .map(|p| format!(" in phase '{p}'"))
                    .unwrap_or_default();
                world.abort(
                    self.rank,
                    format!(
                        "recv timeout after {:?} waiting on src={src} tag={}{phase}",
                        started.elapsed(),
                        world.collectives().label(tag)
                    ),
                );
                return Err(CommError::Timeout {
                    rank: self.rank,
                    src,
                    tag,
                    waited: started.elapsed(),
                    diagnostic,
                });
            }
            // yield first; then back to the top, so the drain and the
            // abort and deadline checks run again before the rank parks
            if now < spun {
                drop(queue);
                mb.spin(world.aborts(), spun);
                queue = plock(&mb.queue);
                continue;
            }
            queue.sleepers += 1;
            queue = match mb.cv.wait_timeout(queue, deadline - now) {
                Ok((q, _)) => q,
                Err(poisoned) => poisoned.into_inner().0,
            };
            queue.sleepers -= 1;
        }
    }

    // ------------------------------------------------------------------
    // collectives
    // ------------------------------------------------------------------

    fn next_coll_tag(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        telemetry::counter_add("comm.collectives", 1);
        let phase = telemetry::current_span();
        if let Some(phase) = phase {
            self.transport.collectives().name(seq, phase);
        }
        if telemetry::flight::armed() {
            let phase_id = phase.map(telemetry::flight::name_id).unwrap_or(0);
            telemetry::flight::event(
                telemetry::flight::FlightKind::Collective,
                0,
                seq,
                phase_id as u64,
            );
        }
        COLL_TAG_BASE + seq
    }

    /// Latency timer shared by every collective entry point (histogram of
    /// nanoseconds; inert when telemetry is off).
    fn coll_timer(&self) -> telemetry::Timer {
        telemetry::timer("comm.collective_ns")
    }

    /// Synchronize all ranks (dissemination barrier). Panics on world
    /// failure; see [`Comm::try_barrier`].
    pub fn barrier(&self) {
        self.try_barrier().unwrap_or_else(|e| comm_panic(e))
    }

    /// Fallible [`Comm::barrier`].
    pub fn try_barrier(&self) -> Result<(), CommError> {
        self.tick();
        let _t = self.coll_timer();
        let tag = self.next_coll_tag();
        let mut round = 1usize;
        let mut round_no = 0u64;
        while round < self.size() {
            let dest = (self.rank + round) % self.size();
            let src = (self.rank + self.size() - round) % self.size();
            self.send_value(dest, tag + (round_no << 32), (), 0)?;
            self.recv_impl::<()>(src, tag + (round_no << 32))?;
            round <<= 1;
            round_no += 1;
        }
        Ok(())
    }

    /// Gather one value from every rank, returned in rank order on all
    /// ranks. Panics on world failure; see [`Comm::try_allgather`].
    pub fn allgather<T: Wire + Clone + Send + 'static>(&self, value: T) -> Vec<T> {
        self.try_allgather(value).unwrap_or_else(|e| comm_panic(e))
    }

    /// Fallible [`Comm::allgather`].
    pub fn try_allgather<T: Wire + Clone + Send + 'static>(
        &self,
        value: T,
    ) -> Result<Vec<T>, CommError> {
        self.tick();
        self.allgather_impl(value)
    }

    fn allgather_impl<T: Wire + Clone + Send + 'static>(
        &self,
        value: T,
    ) -> Result<Vec<T>, CommError> {
        let _t = self.coll_timer();
        let tag = self.next_coll_tag();
        let bytes = std::mem::size_of_val(&value) as u64;
        for dest in 0..self.size() {
            if dest != self.rank {
                self.send_value(dest, tag, value.clone(), bytes)?;
            }
        }
        (0..self.size())
            .map(|src| {
                if src == self.rank {
                    Ok(value.clone())
                } else {
                    self.recv_impl::<T>(src, tag)
                }
            })
            .collect()
    }

    /// Reduce with an associative `op` over all ranks; every rank gets
    /// the result. Reduction order is rank order, hence deterministic.
    /// Panics on world failure; see [`Comm::try_allreduce`].
    pub fn allreduce<T, F>(&self, value: T, op: F) -> T
    where
        T: Wire + Clone + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        self.try_allreduce(value, op)
            .unwrap_or_else(|e| comm_panic(e))
    }

    /// Fallible [`Comm::allreduce`].
    pub fn try_allreduce<T, F>(&self, value: T, op: F) -> Result<T, CommError>
    where
        T: Wire + Clone + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        self.tick();
        let all = self.allgather_impl(value)?;
        let mut it = all.into_iter();
        let first = it.next().expect("size >= 1");
        Ok(it.fold(first, |acc, v| op(&acc, &v)))
    }

    /// Sum of a `u64` across all ranks.
    pub fn allreduce_sum(&self, value: u64) -> u64 {
        self.allreduce(value, |a, b| a + b)
    }

    /// Fallible [`Comm::allreduce_sum`].
    pub fn try_allreduce_sum(&self, value: u64) -> Result<u64, CommError> {
        self.try_allreduce(value, |a, b| a + b)
    }

    /// Exclusive prefix reduction in rank order; rank 0 receives
    /// `T::default()`. Panics on world failure; see [`Comm::try_exscan`].
    pub(crate) fn exscan<T, F>(&self, value: T, op: F) -> T
    where
        T: Wire + Clone + Default + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        self.try_exscan(value, op).unwrap_or_else(|e| comm_panic(e))
    }

    /// Exclusive prefix reduction in rank order (rank 0 gets `T::default()`),
    /// as a typed error instead of a panic.
    pub fn try_exscan<T, F>(&self, value: T, op: F) -> Result<T, CommError>
    where
        T: Wire + Clone + Default + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        self.tick();
        let all = self.allgather_impl(value)?;
        Ok(all[..self.rank]
            .iter()
            .fold(T::default(), |acc, v| op(&acc, v)))
    }

    /// Exclusive prefix sum of a `u64`.
    pub fn exscan_sum(&self, value: u64) -> u64 {
        self.exscan(value, |a, b| a + b)
    }

    /// Broadcast from `root` to every rank. Non-root ranks pass `None`.
    /// Panics on world failure; see [`Comm::try_bcast`].
    pub fn bcast<T: Wire + Clone + Send + 'static>(&self, root: usize, value: Option<T>) -> T {
        self.try_bcast(root, value)
            .unwrap_or_else(|e| comm_panic(e))
    }

    /// Fallible [`Comm::bcast`].
    pub fn try_bcast<T: Wire + Clone + Send + 'static>(
        &self,
        root: usize,
        value: Option<T>,
    ) -> Result<T, CommError> {
        self.check_rank("bcast: root", root);
        self.tick();
        let _t = self.coll_timer();
        let tag = self.next_coll_tag();
        if self.rank == root {
            let v = value.expect("root must supply the value");
            let bytes = std::mem::size_of_val(&v) as u64;
            for dest in 0..self.size() {
                if dest != root {
                    self.send_value(dest, tag, v.clone(), bytes)?;
                }
            }
            Ok(v)
        } else {
            self.recv_impl::<T>(root, tag)
        }
    }

    /// Gather one value from every rank onto `root` (rank order);
    /// other ranks receive `None`. Panics on world failure; see
    /// [`Comm::try_gather`].
    pub fn gather<T: Wire + Send + 'static>(&self, root: usize, value: T) -> Option<Vec<T>> {
        self.try_gather(root, value)
            .unwrap_or_else(|e| comm_panic(e))
    }

    /// Fallible [`Comm::gather`].
    pub fn try_gather<T: Wire + Send + 'static>(
        &self,
        root: usize,
        value: T,
    ) -> Result<Option<Vec<T>>, CommError> {
        self.check_rank("gather: root", root);
        self.tick();
        let _t = self.coll_timer();
        let tag = self.next_coll_tag();
        if self.rank == root {
            let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            out[root] = Some(value);
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = Some(self.recv_impl::<T>(src, tag)?);
                }
            }
            Ok(Some(out.into_iter().map(|v| v.unwrap()).collect()))
        } else {
            let bytes = std::mem::size_of_val(&value) as u64;
            self.send_value(root, tag, value, bytes)?;
            Ok(None)
        }
    }

    /// Personalized all-to-all: `outgoing[d]` is delivered to rank `d`;
    /// returns the incoming vectors indexed by source rank. Panics on
    /// world failure; see [`Comm::try_alltoallv`].
    pub fn alltoallv<T: Wire + Send + 'static>(&self, outgoing: Vec<Vec<T>>) -> Vec<Vec<T>> {
        self.try_alltoallv(outgoing)
            .unwrap_or_else(|e| comm_panic(e))
    }

    /// Fallible [`Comm::alltoallv`].
    pub fn try_alltoallv<T: Wire + Send + 'static>(
        &self,
        mut outgoing: Vec<Vec<T>>,
    ) -> Result<Vec<Vec<T>>, CommError> {
        self.tick();
        let _t = self.coll_timer();
        assert_eq!(outgoing.len(), self.size());
        let tag = self.next_coll_tag();
        let mut mine = Some(std::mem::take(&mut outgoing[self.rank]));
        for (dest, data) in outgoing.into_iter().enumerate() {
            if dest != self.rank {
                // the bulk-data path: count the heap contents, not just
                // the Vec header
                let bytes =
                    (std::mem::size_of::<Vec<T>>() + data.len() * std::mem::size_of::<T>()) as u64;
                self.send_value(dest, tag, data, bytes)?;
            }
        }
        (0..self.size())
            .map(|src| {
                if src == self.rank {
                    Ok(mine.take().expect("self slot consumed once"))
                } else {
                    self.recv_impl::<Vec<T>>(src, tag)
                }
            })
            .collect()
    }

    /// Collective request–response round: deliver `outgoing[d]` to rank
    /// `d`, answer every incoming request batch with `serve(src,
    /// requests)`, and return the responses indexed by the rank that
    /// served them. `serve` must produce exactly one response per
    /// request, in order — the caller relies on positional matching to
    /// reassociate answers. This is the scatter/serve/gather primitive
    /// behind distributed query routing. Panics on world failure; see
    /// [`Comm::try_exchange`].
    pub fn exchange<Req, Resp>(
        &self,
        outgoing: Vec<Vec<Req>>,
        serve: impl FnMut(usize, Vec<Req>) -> Vec<Resp>,
    ) -> Vec<Vec<Resp>>
    where
        Req: Wire + Send + 'static,
        Resp: Wire + Send + 'static,
    {
        self.try_exchange(outgoing, serve)
            .unwrap_or_else(|e| comm_panic(e))
    }

    /// Fallible [`Comm::exchange`].
    pub fn try_exchange<Req, Resp>(
        &self,
        outgoing: Vec<Vec<Req>>,
        mut serve: impl FnMut(usize, Vec<Req>) -> Vec<Resp>,
    ) -> Result<Vec<Vec<Resp>>, CommError>
    where
        Req: Wire + Send + 'static,
        Resp: Wire + Send + 'static,
    {
        let incoming = self.try_alltoallv(outgoing)?;
        let replies = incoming
            .into_iter()
            .enumerate()
            .map(|(src, requests)| {
                let n = requests.len();
                let resp = serve(src, requests);
                assert_eq!(
                    resp.len(),
                    n,
                    "exchange serve callback must answer every request"
                );
                resp
            })
            .collect();
        self.try_alltoallv(replies)
    }

    // ------------------------------------------------------------------
    // telemetry
    // ------------------------------------------------------------------

    /// Snapshot this rank's telemetry metric registry, allgather the
    /// per-rank snapshots, and merge them into one
    /// [`AggregateRow`](telemetry::AggregateRow) per metric (rank-indexed
    /// values, totals, min/max, summed histogram buckets). Every rank
    /// gets the same rows. Ranks without a recorder contribute an empty
    /// snapshot. Panics on world failure; see
    /// [`Comm::try_aggregate_metrics`].
    pub fn aggregate_metrics(&self) -> Vec<telemetry::AggregateRow> {
        self.try_aggregate_metrics()
            .unwrap_or_else(|e| comm_panic(e))
    }

    /// Fallible [`Comm::aggregate_metrics`].
    pub fn try_aggregate_metrics(&self) -> Result<Vec<telemetry::AggregateRow>, CommError> {
        let snaps = self.try_allgather(telemetry::rank_snapshot())?;
        Ok(telemetry::aggregate(&snaps))
    }
}

impl Drop for Comm {
    fn drop(&mut self) {
        // a rank program may end with sends still held back by the
        // fault plan; release them so peers can finish
        self.flush_held();
    }
}

/// Unwind an infallible-API call with `e`. Collateral aborts (another
/// rank failed first) unwind via `resume_unwind`, skipping the global
/// panic hook: the origin failure is the one worth printing, not the
/// P-1 echoes of it. Every other error panics normally.
fn comm_panic(e: CommError) -> ! {
    match &e {
        CommError::Aborted { .. } => std::panic::resume_unwind(Box::new(e.to_string())),
        _ => panic!("{e}"),
    }
}

/// Take the value out of a matched message; a decoded payload buffer
/// goes back to the transport for reuse.
fn downcast_msg<T: Wire + Send + 'static>(tr: &dyn Transport, msg: Msg) -> Result<T, CommError> {
    telemetry::counter_add("comm.msgs_recv", 1);
    telemetry::counter_add("comm.bytes_recv", msg.bytes);
    telemetry::flight::event(
        telemetry::flight::FlightKind::CommRecv,
        msg.src as u32,
        msg.tag,
        msg.bytes,
    );
    let (src, tag) = (msg.src, msg.tag);
    match msg.payload {
        Payload::Local(boxed) => {
            boxed
                .downcast::<T>()
                .map(|b| *b)
                .map_err(|_| CommError::TypeMismatch {
                    src,
                    tag,
                    expected: std::any::type_name::<T>(),
                })
        }
        Payload::Bytes { type_tag, data, at } => {
            if type_tag != wire_type_tag::<T>() {
                return Err(CommError::TypeMismatch {
                    src,
                    tag,
                    expected: std::any::type_name::<T>(),
                });
            }
            let value = T::from_wire(&data[at..]).map_err(|e| CommError::Frame {
                detail: format!("payload from rank {src} tag={}: {e}", tag_display(tag)),
            });
            tr.recycle(data);
            value
        }
    }
}

/// Options for [`try_run_with`]: receive timeout and fault injection.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// How long a blocking receive may wait before declaring the world
    /// deadlocked, dumping a diagnostic and aborting. Default: 60 s —
    /// far above any legitimate collective on one machine, so it only
    /// fires on genuine hangs.
    pub recv_timeout: Duration,
    /// Deterministic fault plan to inject, if any.
    pub faults: Option<FaultPlan>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            recv_timeout: Duration::from_secs(60),
            faults: None,
        }
    }
}

pub(crate) fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Execute `f` once per rank on `size` threads and collect the per-rank
/// results in rank order, with full control over timeout and fault
/// injection. This is the core runner; [`run`], [`try_run`] and
/// [`run_with_faults`] are wrappers.
///
/// The first rank to panic, return `Err`, or time out aborts the world:
/// every peer blocked in a communication call wakes and unwinds with
/// [`CommError::Aborted`], and the returned [`WorldError`] names the
/// origin rank, its reason, and every collateral failure.
pub fn try_run_with<F, R>(size: usize, opts: RunOptions, f: F) -> Result<Vec<R>, WorldError>
where
    F: Fn(Comm) -> Result<R, CommError> + Send + Sync,
    R: Send,
{
    assert!(size > 0);
    // Always-on inside worlds: every comm op and phase transition lands
    // in the flight ring, ready to dump if this world fails.
    telemetry::flight::arm();
    let world = Arc::new(World::new(size, opts.recv_timeout));
    let mut outcomes: Vec<Option<Result<R, RankError>>> = (0..size).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(size);
        for rank in 0..size {
            let comm = Comm::new(
                rank,
                Arc::clone(&world) as Arc<dyn Transport>,
                opts.faults.as_ref().map(|p| p.compile(rank)),
            );
            let f = &f;
            let world = Arc::clone(&world);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(2 << 20)
                    .spawn_scoped(scope, move || {
                        // Runs on the rank thread, so `telemetry::failure_phase`
                        // sees this rank's recorder: abort reports name the
                        // phase the rank died in even though the unwind
                        // already closed its spans.
                        let died_in = || {
                            telemetry::failure_phase()
                                .map(|p| format!(" (in phase '{p}')"))
                                .unwrap_or_default()
                        };
                        match catch_unwind(AssertUnwindSafe(|| f(comm))) {
                            Ok(Ok(value)) => {
                                world.set_status(rank, RankState::Finished);
                                Ok(value)
                            }
                            Ok(Err(e)) => {
                                let phase = died_in();
                                record_rank_death(rank);
                                world.set_status(
                                    rank,
                                    RankState::Failed(format!("{}{phase}", e.kind())),
                                );
                                world.abort(rank, format!("{e}{phase}"));
                                Err(RankError::Failed(e))
                            }
                            Err(payload) => {
                                let msg = panic_message(payload);
                                let phase = died_in();
                                record_rank_death(rank);
                                world.set_status(
                                    rank,
                                    RankState::Failed(format!("panic{phase}: {msg}")),
                                );
                                world.abort(rank, format!("panicked{phase}: {msg}"));
                                Err(RankError::Panicked(msg))
                            }
                        }
                    })
                    .expect("spawn rank thread"),
            );
        }
        for (rank, h) in handles.into_iter().enumerate() {
            outcomes[rank] = Some(h.join().expect("rank outcome is always caught"));
        }
    });
    // Postmortem: the shared ring holds every rank's history,
    // including the victim's last comm op and phase.
    world_result(
        outcomes.into_iter().map(|o| o.expect("every rank joined")),
        &world.aborts,
    )
    .inspect_err(|e| {
        telemetry::flight::dump_postmortem(e.origin as u32);
    })
}

/// Assemble per-rank outcomes (in rank order) into the world's result:
/// every rank's value, or a [`WorldError`] naming the recorded abort
/// origin — the first failed rank when nothing was recorded — and
/// every rank that failed.
pub(crate) fn world_result<R>(
    outcomes: impl ExactSizeIterator<Item = Result<R, RankError>>,
    aborts: &AbortRecord,
) -> Result<Vec<R>, WorldError> {
    let size = outcomes.len();
    let mut values = Vec::with_capacity(size);
    let mut failures = Vec::new();
    for (rank, outcome) in outcomes.enumerate() {
        match outcome {
            Ok(v) => values.push(v),
            Err(error) => failures.push(RankFailure { rank, error }),
        }
    }
    if failures.is_empty() {
        return Ok(values);
    }
    let (origin, reason) = match aborts.get() {
        Some(AbortInfo { origin, reason }) => (origin, reason),
        None => (failures[0].rank, failures[0].error.to_string()),
    };
    Err(WorldError {
        size,
        origin,
        reason,
        failures,
    })
}

/// Record a rank's death into the flight ring, from the dying rank's own
/// thread: a `PeerFailed` event naming the rank and the phase it died in
/// (the rank's comm-op history is already in the ring).
fn record_rank_death(rank: usize) {
    if !telemetry::flight::armed() {
        return;
    }
    let phase_id = telemetry::failure_phase()
        .map(telemetry::flight::name_id)
        .unwrap_or(0);
    telemetry::flight::event(
        telemetry::flight::FlightKind::PeerFailed,
        rank as u32,
        0,
        phase_id as u64,
    );
}

/// Fallible rank runner with default options: like [`run`], but a rank
/// failure (panic, error return, or recv timeout) yields a
/// [`WorldError`] identifying the failing rank instead of propagating a
/// panic — and, crucially, instead of deadlocking the surviving ranks.
pub fn try_run<F, R>(size: usize, f: F) -> Result<Vec<R>, WorldError>
where
    F: Fn(Comm) -> Result<R, CommError> + Send + Sync,
    R: Send,
{
    try_run_with(size, RunOptions::default(), f)
}

/// Execute `f` once per rank on `size` threads and collect the per-rank
/// results in rank order. Panics in any rank propagate to the caller
/// (as a panic carrying the [`WorldError`] report).
pub fn run<F, R>(size: usize, f: F) -> Vec<R>
where
    F: Fn(Comm) -> R + Send + Sync,
    R: Send,
{
    try_run(size, |c| Ok(f(c))).unwrap_or_else(|e| panic!("{e}"))
}

/// Run a rank program under a deterministic [`FaultPlan`]: delivery
/// delays, cross-stream reordering, scheduled rank panics. Same
/// plan + size ⇒ same injected faults, so failures replay from the
/// seed alone. See the crate docs for an example.
pub fn run_with_faults<F, R>(size: usize, plan: FaultPlan, f: F) -> Result<Vec<R>, WorldError>
where
    F: Fn(Comm) -> R + Send + Sync,
    R: Send,
{
    try_run_with(
        size,
        RunOptions {
            faults: Some(plan),
            ..RunOptions::default()
        },
        |c| Ok(f(c)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_trivia() {
        let r = run(1, |c| {
            assert_eq!(c.rank(), 0);
            assert_eq!(c.size(), 1);
            c.barrier();
            assert_eq!(c.allgather(7u32), vec![7]);
            assert_eq!(c.allreduce_sum(5), 5);
            assert_eq!(c.exscan_sum(5), 0);
            42u32
        });
        assert_eq!(r, vec![42]);
    }

    #[test]
    fn point_to_point_ring() {
        let n = 8;
        let sums = run(n, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 1, c.rank() as u64);
            let got: u64 = c.recv(prev, 1);
            got + c.rank() as u64
        });
        for (rank, s) in sums.iter().enumerate() {
            let prev = (rank + n - 1) % n;
            assert_eq!(*s, (prev + rank) as u64);
        }
    }

    #[test]
    fn out_of_order_tags_are_parked() {
        let r = run(2, |c| {
            if c.rank() == 0 {
                // send two tags; the receiver asks for the later one first
                c.send(1, 10, 1u32);
                c.send(1, 20, 2u32);
                0
            } else {
                let b: u32 = c.recv(0, 20);
                let a: u32 = c.recv(0, 10);
                (b * 10 + a) as i32
            }
        });
        assert_eq!(r[1], 21);
    }

    #[test]
    fn same_tag_is_fifo_per_sender() {
        let r = run(2, |c| {
            if c.rank() == 0 {
                for i in 0..100u32 {
                    c.send(1, 5, i);
                }
                Vec::new()
            } else {
                (0..100).map(|_| c.recv::<u32>(0, 5)).collect::<Vec<_>>()
            }
        });
        assert_eq!(r[1], (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn allgather_orders_by_rank() {
        for n in [1, 2, 3, 7, 16] {
            let r = run(n, |c| c.allgather(c.rank() as u32 * 10));
            for row in r {
                assert_eq!(row, (0..n as u32).map(|i| i * 10).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn allreduce_and_scans() {
        for n in [1usize, 2, 5, 32] {
            let r = run(n, |c| {
                let sum = c.allreduce_sum(c.rank() as u64 + 1);
                let scan = c.exscan_sum(c.rank() as u64 + 1);
                let max = c.allreduce(c.rank() as u64, |a, b| *a.max(b));
                (sum, scan, max)
            });
            let total = (n as u64) * (n as u64 + 1) / 2;
            for (rank, (sum, scan, max)) in r.into_iter().enumerate() {
                assert_eq!(sum, total);
                assert_eq!(scan, (rank as u64) * (rank as u64 + 1) / 2);
                assert_eq!(max, n as u64 - 1);
            }
        }
    }

    #[test]
    fn bcast_from_each_root() {
        let n = 5;
        for root in 0..n {
            let r = run(n, move |c| {
                let v = if c.rank() == root {
                    Some(format!("hello from {root}"))
                } else {
                    None
                };
                c.bcast(root, v)
            });
            assert!(r.iter().all(|s| s == &format!("hello from {root}")));
        }
    }

    #[test]
    fn gather_collects_on_root_only() {
        let n = 5;
        for root in [0usize, 2, 4] {
            run(n, move |c| {
                let gathered = c.gather(root, c.rank() as u32 * 3);
                if c.rank() == root {
                    let g = gathered.unwrap();
                    assert_eq!(g, (0..n as u32).map(|i| i * 3).collect::<Vec<_>>());
                } else {
                    assert!(gathered.is_none());
                }
            });
        }
    }

    #[test]
    fn alltoallv_permutes() {
        let n = 6;
        let r = run(n, |c| {
            // rank r sends vec![r*10 + d] to each destination d
            let outgoing: Vec<Vec<u32>> = (0..c.size())
                .map(|d| vec![(c.rank() * 10 + d) as u32])
                .collect();
            c.alltoallv(outgoing)
        });
        for (rank, incoming) in r.into_iter().enumerate() {
            for (src, data) in incoming.into_iter().enumerate() {
                assert_eq!(data, vec![(src * 10 + rank) as u32]);
            }
        }
    }

    #[test]
    fn exchange_request_response_round_trip() {
        let n = 4;
        let r = run(n, |c| {
            // every rank asks every rank (incl. itself) to double a value
            let outgoing: Vec<Vec<u32>> = (0..c.size())
                .map(|d| vec![(c.rank() * 10 + d) as u32])
                .collect();
            c.exchange(outgoing, |src, reqs| {
                assert_eq!(reqs.len(), 1);
                assert_eq!(reqs[0] as usize, src * 10 + c.rank());
                reqs.into_iter().map(|v| v * 2).collect::<Vec<u32>>()
            })
        });
        for (rank, responses) in r.into_iter().enumerate() {
            for (server, data) in responses.into_iter().enumerate() {
                // the request this rank sent to `server`, doubled
                assert_eq!(data, vec![2 * (rank * 10 + server) as u32]);
            }
        }
    }

    #[test]
    fn alltoallv_uneven_sizes() {
        let n = 4;
        let r = run(n, |c| {
            let outgoing: Vec<Vec<u64>> = (0..c.size())
                .map(|d| (0..(c.rank() + d) as u64).collect())
                .collect();
            c.alltoallv(outgoing)
        });
        for (rank, incoming) in r.into_iter().enumerate() {
            for (src, data) in incoming.into_iter().enumerate() {
                assert_eq!(data.len(), src + rank);
            }
        }
    }

    #[test]
    fn barrier_many_ranks_and_sizes() {
        // Stress the dissemination pattern with non-power-of-two sizes.
        for n in [2usize, 3, 5, 17, 64] {
            run(n, |c| {
                for _ in 0..3 {
                    c.barrier();
                }
            });
        }
    }

    #[test]
    fn collectives_back_to_back_do_not_crosstalk() {
        let r = run(4, |c| {
            let a = c.allgather(c.rank() as u32);
            let b = c.allgather(100 + c.rank() as u32);
            c.barrier();
            let s = c.allreduce_sum(1);
            (a, b, s)
        });
        for (a, b, s) in r {
            assert_eq!(a, vec![0, 1, 2, 3]);
            assert_eq!(b, vec![100, 101, 102, 103]);
            assert_eq!(s, 4);
        }
    }

    #[test]
    fn large_rank_count() {
        // The strong-scaling harness simulates up to 512 ranks.
        let r = run(512, |c| c.allreduce_sum(1));
        assert!(r.iter().all(|&s| s == 512));
    }

    // ------------------------------------------------------------------
    // failure semantics
    // ------------------------------------------------------------------

    #[test]
    fn try_run_happy_path_matches_run() {
        let a = try_run(4, |c| c.try_allreduce_sum(c.rank() as u64)).unwrap();
        let b = run(4, |c| c.allreduce_sum(c.rank() as u64));
        assert_eq!(a, b);
    }

    #[test]
    fn rank_panic_unblocks_peers_and_names_origin() {
        // every other rank blocks in a barrier rank 1 never joins
        let err = try_run(4, |c| {
            if c.rank() == 1 {
                panic!("deliberate failure");
            }
            c.try_barrier()?;
            Ok(c.rank())
        })
        .unwrap_err();
        assert_eq!(err.origin, 1);
        assert!(err.origin_panicked());
        assert!(err.reason.contains("deliberate failure"));
        // the three survivors unwound as collateral
        assert_eq!(err.failures.len(), 4);
        for f in err.failures.iter().filter(|f| f.rank != 1) {
            assert!(matches!(
                f.error,
                RankError::Failed(CommError::Aborted { origin: 1, .. })
            ));
        }
    }

    #[test]
    fn error_return_aborts_world() {
        let err = try_run(3, |c| {
            if c.rank() == 2 {
                return Err(CommError::TypeMismatch {
                    src: 0,
                    tag: 9,
                    expected: "u32",
                });
            }
            c.try_barrier()?;
            Ok(())
        })
        .unwrap_err();
        assert_eq!(err.origin, 2);
        assert!(!err.origin_panicked());
    }

    #[test]
    fn recv_timeout_produces_diagnostic_and_aborts() {
        let opts = RunOptions {
            recv_timeout: Duration::from_millis(100),
            faults: None,
        };
        let err = try_run_with(2, opts, |c| {
            if c.rank() == 1 {
                // waiting on a message nobody sends: a genuine deadlock
                let _: u32 = c.try_recv(0, 7)?;
            }
            // rank 0 also blocks (on the barrier), exercising the dump;
            // it enters late so rank 1's deadline expires first and the
            // abort origin is deterministic
            std::thread::sleep(Duration::from_millis(50));
            c.try_barrier()?;
            Ok(())
        })
        .unwrap_err();
        assert_eq!(err.origin, 1);
        let timeout = err
            .failures
            .iter()
            .find_map(|f| match &f.error {
                RankError::Failed(e @ CommError::Timeout { .. }) => Some(e.clone()),
                _ => None,
            })
            .expect("rank 1 reports the timeout");
        if let CommError::Timeout {
            rank,
            src,
            tag,
            diagnostic,
            ..
        } = timeout
        {
            assert_eq!((rank, src, tag), (1, 0, 7));
            assert!(diagnostic.contains("rank 1: waiting on src=0 tag=user:7"));
            assert!(diagnostic.contains("deadlock diagnostic"));
        }
    }

    #[test]
    fn type_mismatch_is_typed_not_a_hang() {
        let err = try_run(2, |c| {
            if c.rank() == 0 {
                c.try_send(1, 3, 5u32)?;
                Ok(0u64)
            } else {
                c.try_recv::<u64>(0, 3) // wrong type on purpose
            }
        })
        .unwrap_err();
        assert_eq!(err.origin, 1);
        let f = err.origin_failure().unwrap();
        assert!(matches!(
            f.error,
            RankError::Failed(CommError::TypeMismatch { src: 0, tag: 3, .. })
        ));
    }

    /// A rank argument outside `0..size` fails its call at once and
    /// names the argument: not an index panic (`send`, `gather`), nor a
    /// wait for the full receive timeout (`recv`, `bcast`).
    #[test]
    fn out_of_range_ranks_fail_at_once_by_name() {
        type Op = fn(&Comm) -> Result<(), CommError>;
        let cases: [(&str, Op); 4] = [
            ("dest 4", |c| c.try_send(4, 0, 1u32)),
            ("src 4", |c| c.try_recv::<u32>(4, 0).map(drop)),
            ("root 4", |c| c.try_bcast(4, Some(1u32)).map(drop)),
            ("root 4", |c| c.try_gather(4, 1u32).map(drop)),
        ];
        for (arg, op) in cases {
            let start = Instant::now();
            let err = try_run(4, |c| {
                if c.rank() == 0 {
                    op(&c)?;
                }
                c.try_barrier()
            })
            .unwrap_err();
            assert!(start.elapsed() < Duration::from_secs(2), "{arg}: too slow");
            assert_eq!(err.origin, 0, "{arg}");
            assert!(err.origin_panicked(), "{arg}: {}", err.reason);
            assert!(err.reason.contains(arg), "{arg}: {}", err.reason);
        }
    }

    /// Busy-wait `d`: a sleep rounds up to the timer slack, far coarser
    /// than the spin budget.
    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    /// A push lands while the receiver spins, as it starts to park, or
    /// once it sleeps: sends delayed 0–3× the spin budget behind the
    /// receiver's ready signal. A push that missed a parked receiver
    /// would leave it asleep until `recv_timeout`.
    #[test]
    fn a_receiver_is_woken_across_the_spin_budget() {
        let opts = RunOptions {
            recv_timeout: Duration::from_secs(5),
            faults: None,
        };
        let rounds = 10_000u64;
        let slowest = try_run_with(2, opts, |c| {
            let mut slowest = Duration::ZERO;
            for round in 0..rounds {
                if c.rank() == 0 {
                    c.try_recv::<()>(1, 1)?;
                    busy(SPIN * (round % 7) as u32 / 2);
                    c.try_send(1, 2, round)?;
                } else {
                    c.try_send(0, 1, ())?;
                    let t = Instant::now();
                    assert_eq!(c.try_recv::<u64>(0, 2)?, round);
                    slowest = slowest.max(t.elapsed());
                    let far_inside = Duration::from_secs(1);
                    assert!(
                        slowest < far_inside,
                        "round {round}: a recv took {slowest:?}"
                    );
                }
            }
            Ok(slowest)
        })
        .unwrap();
        assert!(slowest[1] >= SPIN, "no receive outlasted the spin budget");
    }

    /// An abort ends a receive at once, whether it lands before the
    /// receive, while the receiver spins, or once it sleeps: one that
    /// parked without looking at the flag again would sleep until
    /// `recv_timeout`.
    #[test]
    fn an_abort_ends_a_spinning_or_parked_recv_at_once() {
        for delay in [0, 1, 2, 3, 4, 8, 40, 400].map(|k| SPIN * k / 4) {
            let opts = RunOptions {
                recv_timeout: Duration::from_secs(5),
                faults: None,
            };
            let start = Instant::now();
            let err = try_run_with(2, opts, |c| {
                if c.rank() == 0 {
                    // `delay` after rank 1 starts its receive
                    c.try_recv::<()>(1, 1)?;
                    busy(delay);
                    return Err(CommError::TypeMismatch {
                        src: 1,
                        tag: 0,
                        expected: "nothing",
                    });
                }
                c.try_send(0, 1, ())?;
                c.try_recv::<u32>(0, 5)
            })
            .unwrap_err();
            let took = start.elapsed();
            assert_eq!(err.origin, 0, "{delay:?}");
            assert!(
                took < Duration::from_secs(2),
                "abort after {delay:?} took {took:?}"
            );
        }
    }

    #[test]
    fn fault_free_plan_changes_nothing() {
        let base = run(4, |c| c.allgather(c.rank()));
        let faulty = run_with_faults(4, FaultPlan::new(123), |c| c.allgather(c.rank())).unwrap();
        assert_eq!(base, faulty);
    }

    #[test]
    fn delays_and_reordering_keep_results_identical() {
        let base = run(4, |c| {
            let g = c.allgather(c.rank() as u64 * 7);
            let s = c.exscan_sum(c.rank() as u64 + 1);
            c.barrier();
            (g, s)
        });
        for seed in [1u64, 2, 3, 0xDEAD_BEEF] {
            let plan = FaultPlan::new(seed)
                .with_delays(0.3, Duration::from_micros(150))
                .with_reordering(0.3);
            let faulty = run_with_faults(4, plan, |c| {
                let g = c.allgather(c.rank() as u64 * 7);
                let s = c.exscan_sum(c.rank() as u64 + 1);
                c.barrier();
                (g, s)
            })
            .unwrap();
            assert_eq!(base, faulty, "seed {seed} changed a collective result");
        }
    }

    #[test]
    fn scheduled_panic_is_reported_not_hung() {
        let start = Instant::now();
        let err = run_with_faults(4, FaultPlan::new(5).with_panic_at(3, 1), |c| {
            c.barrier(); // op 0
            c.barrier(); // op 1: rank 3 dies here
            c.rank()
        })
        .unwrap_err();
        assert_eq!(err.origin, 3);
        assert!(err.origin_panicked());
        assert!(err.reason.contains("scheduled panic"));
        assert!(start.elapsed() < Duration::from_secs(5), "must not hang");
    }
}
