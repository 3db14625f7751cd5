//! Deterministic, seed-driven fault injection for chaos-testing the
//! forest algorithms.
//!
//! A [`FaultPlan`] describes *what can go wrong* in a world: message
//! delivery delays, cross-`(dst, tag)` delivery reordering, and
//! scheduled rank panics at the Nth communication operation. The plan
//! is compiled per rank into an independent [`RankFaults`] stream, so
//! the same `(plan, size)` pair always injects exactly the same faults
//! regardless of OS scheduling — chaos runs are replayable from the
//! seed alone.
//!
//! Reordering is implemented sender-side as a hold-back buffer: a
//! to-be-reordered message is parked in the sender and flushed later in
//! a shuffled order. Messages to the *same* `(dst, tag)` are always
//! appended behind an already-held message for that destination, which
//! preserves the simulator's per-sender non-overtaking guarantee — the
//! injected faults only exercise timing freedom the real network has
//! anyway, so correct programs must produce identical results.
//!
//! ## Network chaos (process backends)
//!
//! The `with_net_*` builders extend a plan with *wire-level* faults,
//! applied by the process link's deterministic chaos interposer at
//! frame granularity inside each rank process, over a Unix socket and
//! TCP alike: added latency/jitter, silent whole-frame drops,
//! single-bit corruption (caught by the frame CRC), partial/chunked
//! writes (stressing stream reassembly), scheduled hard connection
//! resets, and asymmetric partitions ([`NetDir`]) that open at the Nth
//! data frame and heal after a wall-clock duration. The thread backend
//! ignores network ops (it has no wire); everything else in the plan
//! runs identically on all three. Because the session layer retransmits
//! across reconnects, a correct pipeline must still produce
//! bit-identical results under any net-chaos plan whose partitions heal
//! within the heartbeat window.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The splitmix64 output function: a stateless mix of `x`. Also the
/// recovery backoff's deterministic jitter, keyed by attempt index.
#[inline]
pub(crate) fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One splitmix64 step: tiny, seedable, statistically fine for fault
/// schedules. Both fault streams draw through it, whatever holds their
/// state (a `Cell` per rank, a `Mutex` on the shared wire stream).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    let z = mix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z
}

/// Draw from `[0, bound)` without modulo bias (128-bit multiply-shift).
#[inline]
fn below(state: &mut u64, bound: u64) -> u64 {
    if bound == 0 {
        return 0;
    }
    (((splitmix64(state) as u128) * (bound as u128)) >> 64) as u64
}

/// Probability expressed in 1/65536ths so plans are hashable/Eq-able.
const PROB_ONE: u32 = 1 << 16;

fn prob_to_fixed(p: f64) -> u32 {
    assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
    (p * PROB_ONE as f64).round() as u32
}

#[inline]
fn coin(state: &mut u64, fixed_prob: u32) -> bool {
    fixed_prob > 0 && (splitmix64(state) & 0xFFFF) < fixed_prob as u64
}

/// A declarative, deterministic description of faults to inject into a
/// world run via [`run_with_faults`](crate::run_with_faults) or
/// [`RunOptions`](crate::RunOptions).
///
/// All randomness derives from `seed`; two runs with the same plan and
/// world size inject identical faults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// P(delay) per sent message, in 1/65536ths.
    delay_prob: u32,
    /// Maximum injected delay; actual delay is uniform in [0, max].
    delay_max: Duration,
    /// P(hold back for reordering) per sent message, in 1/65536ths.
    reorder_prob: u32,
    /// `(rank, op_index)`: rank panics when its op counter reaches the
    /// index (0-based over that rank's communication operations).
    panics: Vec<(usize, u64)>,
    /// `(rank, op_index)`: rank is killed with SIGKILL at the index.
    /// On a process backend this is a *real* `kill -9` of the rank's
    /// process (no unwinding, no destructors); on the thread backend it
    /// degrades to a scheduled panic, since threads cannot be killed.
    sigkills: Vec<(usize, u64)>,
    /// `(rank, op_index)`: rank freezes at the index — it stops
    /// heartbeating and parks forever without exiting. On a process
    /// backend the supervisor must detect this via the missed-heartbeat
    /// window; on the thread backend it degrades to a scheduled panic.
    stalls: Vec<(usize, u64)>,
    /// P(added latency) per written wire frame (process backends only), 1/65536ths.
    net_delay_prob: u32,
    /// Maximum injected wire latency; uniform in [0, max].
    net_delay_max: Duration,
    /// P(silent whole-frame drop) per written wire frame (process backends only).
    net_drop_prob: u32,
    /// P(single-bit corruption) per written wire frame (process backends only).
    net_corrupt_prob: u32,
    /// P(chunked/partial write) per written wire frame (process backends only).
    net_partial_prob: u32,
    /// `(rank, frame_index)`: hard connection reset after the rank's
    /// Nth outbound *data* frame (heartbeats not counted). Process
    /// backends only.
    net_resets: Vec<(usize, u64)>,
    /// `(rank, dir, frame_index, duration)`: an asymmetric partition
    /// opening at the rank's Nth outbound data frame and healing after
    /// `duration` of wall clock. Process backends only.
    net_partitions: Vec<(usize, NetDir, u64, Duration)>,
}

/// Which direction(s) of a rank's link a network partition severs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetDir {
    /// Outbound only: the rank's frames (heartbeats included) vanish;
    /// the supervisor goes silent-deaf to it, exercising the
    /// missed-heartbeat grace window.
    Out,
    /// Inbound only: supervisor→rank frames vanish; the rank still
    /// heartbeats, so liveness holds while messages must be recovered
    /// by retransmission after the heal.
    In,
    /// Both directions.
    Both,
}

quadforest_core::wire!(enum NetDir { 0 => Out, 1 => In, 2 => Both });

impl NetDir {
    fn severs_out(self) -> bool {
        matches!(self, NetDir::Out | NetDir::Both)
    }

    fn severs_in(self) -> bool {
        matches!(self, NetDir::In | NetDir::Both)
    }
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled yet.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_prob: 0,
            delay_max: Duration::ZERO,
            reorder_prob: 0,
            panics: Vec::new(),
            sigkills: Vec::new(),
            stalls: Vec::new(),
            net_delay_prob: 0,
            net_delay_max: Duration::ZERO,
            net_drop_prob: 0,
            net_corrupt_prob: 0,
            net_partial_prob: 0,
            net_resets: Vec::new(),
            net_partitions: Vec::new(),
        }
    }

    /// Delay each sent message with probability `prob`, by a uniform
    /// duration in `[0, max]`.
    pub fn with_delays(mut self, prob: f64, max: Duration) -> Self {
        self.delay_prob = prob_to_fixed(prob);
        self.delay_max = max;
        self
    }

    /// Hold back each sent message with probability `prob` and deliver
    /// it later, shuffled against other held messages to different
    /// `(dst, tag)` streams. Per-`(dst, tag)` FIFO order is preserved.
    pub fn with_reordering(mut self, prob: f64) -> Self {
        self.reorder_prob = prob_to_fixed(prob);
        self
    }

    /// Schedule `rank` to panic when its communication-operation
    /// counter reaches `op_index` (0-based). The panic fires at the
    /// entry of that operation, before any message moves.
    pub fn with_panic_at(mut self, rank: usize, op_index: u64) -> Self {
        self.panics.push((rank, op_index));
        self
    }

    /// Schedule `rank` to be SIGKILLed when its communication-operation
    /// counter reaches `op_index`. A real `kill -9` on a process
    /// backend (the process vanishes without unwinding); a scheduled
    /// panic on the thread backend, which cannot kill a single thread.
    pub fn with_sigkill_at(mut self, rank: usize, op_index: u64) -> Self {
        self.sigkills.push((rank, op_index));
        self
    }

    /// Schedule `rank` to freeze (stop heartbeating and park forever)
    /// when its communication-operation counter reaches `op_index`.
    /// Exercises the missed-heartbeat detection path on a process
    /// backend; degrades to a scheduled panic on the thread backend.
    pub fn with_stall_at(mut self, rank: usize, op_index: u64) -> Self {
        self.stalls.push((rank, op_index));
        self
    }

    /// Delay each written wire frame with probability `prob`, by a
    /// uniform duration in `[0, max]`. Process backends only.
    pub fn with_net_delays(mut self, prob: f64, max: Duration) -> Self {
        self.net_delay_prob = prob_to_fixed(prob);
        self.net_delay_max = max;
        self
    }

    /// Silently drop each written wire frame with probability `prob`.
    /// The session layer must heal the gap by retransmission after
    /// the receiver detects the missing sequence number.
    pub fn with_net_drops(mut self, prob: f64) -> Self {
        self.net_drop_prob = prob_to_fixed(prob);
        self
    }

    /// Flip one random bit in each written wire frame with probability
    /// `prob`. The frame CRC must catch it; the link resets and
    /// retransmits, so pipelines still complete bit-identically.
    pub fn with_net_corruption(mut self, prob: f64) -> Self {
        self.net_corrupt_prob = prob_to_fixed(prob);
        self
    }

    /// Split each written wire frame into several short writes with
    /// probability `prob`, exercising the receiver's stream reassembly.
    pub fn with_net_partial_writes(mut self, prob: f64) -> Self {
        self.net_partial_prob = prob_to_fixed(prob);
        self
    }

    /// Hard-reset `rank`'s connection right after its `frame_index`-th
    /// outbound *data* frame (0-based; heartbeats not counted).
    pub fn with_net_reset_at(mut self, rank: usize, frame_index: u64) -> Self {
        self.net_resets.push((rank, frame_index));
        self
    }

    /// Open a partition on `rank`'s link in direction `dir` at its
    /// `frame_index`-th outbound data frame; it heals after `duration`
    /// of wall clock. While open, severed directions drop every frame.
    pub fn with_net_partition(
        mut self,
        rank: usize,
        dir: NetDir,
        frame_index: u64,
        duration: Duration,
    ) -> Self {
        self.net_partitions.push((rank, dir, frame_index, duration));
        self
    }

    /// True if the plan injects any *network* fault (process backends
    /// only).
    pub(crate) fn net_is_active(&self) -> bool {
        self.net_delay_prob > 0
            || self.net_drop_prob > 0
            || self.net_corrupt_prob > 0
            || self.net_partial_prob > 0
            || !self.net_resets.is_empty()
            || !self.net_partitions.is_empty()
    }

    /// Compile the per-rank fault stream. Each rank gets an independent
    /// RNG stream derived from `(seed, rank)` so adding a rank does not
    /// shift any other rank's faults.
    pub(crate) fn compile<T>(&self, rank: usize) -> RankFaults<T> {
        let stream = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((rank as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
            ^ 0x5851_F42D_4C95_7F2D;
        let first_for = |entries: &[(usize, u64)]| {
            entries
                .iter()
                .filter(|(r, _)| *r == rank)
                .map(|(_, op)| *op)
                .min()
        };
        RankFaults {
            rng: Cell::new(stream),
            delay_prob: self.delay_prob,
            delay_max: self.delay_max,
            reorder_prob: self.reorder_prob,
            panic_at: first_for(&self.panics),
            sigkill_at: first_for(&self.sigkills),
            stall_at: first_for(&self.stalls),
            held: RefCell::new(Vec::new()),
        }
    }

    /// Compile the per-rank *network* fault stream for the link's chaos
    /// interposer. Uses a different stream salt than [`compile`] so the
    /// wire-level faults are independent of the message-level ones, and
    /// a `Mutex`-backed RNG because the interposer is shared across the
    /// rank's link, rank and heartbeat threads.
    ///
    /// [`compile`]: FaultPlan::compile
    pub(crate) fn compile_net(&self, rank: usize) -> NetFaults {
        let stream = self
            .seed
            .wrapping_mul(0xA24B_AED4_963E_E407)
            .wrapping_add((rank as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25))
            ^ 0x2545_F491_4F6C_DD1D;
        let mut resets: Vec<u64> = self
            .net_resets
            .iter()
            .filter(|(r, _)| *r == rank)
            .map(|(_, f)| *f)
            .collect();
        resets.sort_unstable();
        let partitions = self
            .net_partitions
            .iter()
            .filter(|(r, _, _, _)| *r == rank)
            .map(|(_, dir, at_frame, duration)| NetPartition {
                dir: *dir,
                at_frame: *at_frame,
                duration: *duration,
                opened: Mutex::new(None),
            })
            .collect();
        NetFaults {
            rng: Mutex::new(stream),
            delay_prob: self.net_delay_prob,
            delay_max: self.net_delay_max,
            drop_prob: self.net_drop_prob,
            corrupt_prob: self.net_corrupt_prob,
            partial_prob: self.net_partial_prob,
            resets,
            partitions,
            out_data: AtomicU64::new(0),
        }
    }
}

// FaultPlans travel from the supervisor process to spawned rank
// processes (inside their spawn record), so the plan needs a wire
// form. Field order matches declaration order.
quadforest_core::wire!(struct FaultPlan {
    seed, delay_prob, delay_max, reorder_prob, panics, sigkills, stalls,
    net_delay_prob, net_delay_max, net_drop_prob, net_corrupt_prob, net_partial_prob,
    net_resets, net_partitions,
});

/// What a rank's fault stream demands at the current communication
/// operation, as reported by [`RankFaults::tick_op`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Panic now (op index recorded for the message).
    Panic(u64),
    /// Die by SIGKILL now (real on a process backend, panic on threads).
    Sigkill(u64),
    /// Freeze now: stop heartbeating and park forever.
    Stall(u64),
}

/// A message parked in the sender's hold-back buffer.
pub(crate) struct HeldMsg<T> {
    pub dst: usize,
    pub tag: u64,
    pub msg: T,
}

/// The compiled fault stream of one rank. Lives inside that rank's
/// `Comm`; not `Sync` (uses `Cell`/`RefCell`), which is fine because a
/// `Comm` is single-threaded by construction.
pub(crate) struct RankFaults<T = crate::Msg> {
    rng: Cell<u64>,
    delay_prob: u32,
    delay_max: Duration,
    reorder_prob: u32,
    /// First scheduled panic for this rank, if any.
    panic_at: Option<u64>,
    /// First scheduled SIGKILL for this rank, if any.
    sigkill_at: Option<u64>,
    /// First scheduled stall for this rank, if any.
    stall_at: Option<u64>,
    /// Sender-side hold-back buffer for reordering.
    held: RefCell<Vec<HeldMsg<T>>>,
}

impl<T> RankFaults<T> {
    /// The fault action that must fire at communication operation `op`
    /// (the rank's `Comm` counts them), if any. SIGKILL wins over stall
    /// wins over panic when (pathologically) scheduled at the same op.
    pub(crate) fn tick_op(&self, op: u64) -> Option<FaultAction> {
        if self.sigkill_at == Some(op) {
            return Some(FaultAction::Sigkill(op));
        }
        if self.stall_at == Some(op) {
            return Some(FaultAction::Stall(op));
        }
        if self.panic_at == Some(op) {
            return Some(FaultAction::Panic(op));
        }
        None
    }

    /// Delay to inject before sending the next message, if any.
    pub(crate) fn draw_delay(&self) -> Option<Duration> {
        let max_us = self.delay_max.as_micros() as u64;
        self.draw(|rng| {
            coin(rng, self.delay_prob)
                .then(|| Duration::from_micros(below(rng, max_us.saturating_add(1))))
        })
    }

    /// Run `draw` on the stream's RNG state.
    fn draw<R>(&self, draw: impl FnOnce(&mut u64) -> R) -> R {
        let mut state = self.rng.get();
        let drawn = draw(&mut state);
        self.rng.set(state);
        drawn
    }

    /// Decide whether to hold this message back for reordering. A
    /// message whose `(dst, tag)` already has a held predecessor is
    /// *always* held (appended behind it) so per-stream FIFO survives.
    pub(crate) fn maybe_hold(&self, dst: usize, tag: u64, msg: T) -> Option<T> {
        let mut held = self.held.borrow_mut();
        let stream_blocked = held.iter().any(|h| h.dst == dst && h.tag == tag);
        if stream_blocked || self.draw(|rng| coin(rng, self.reorder_prob)) {
            held.push(HeldMsg { dst, tag, msg });
            None
        } else {
            Some(msg)
        }
    }

    /// Drain the hold-back buffer in a shuffled order that keeps each
    /// `(dst, tag)` stream's relative order intact: repeatedly pick a
    /// random stream and emit its oldest held message.
    pub(crate) fn drain_held(&self) -> Vec<HeldMsg<T>> {
        let mut held = self.held.borrow_mut();
        let mut out = Vec::with_capacity(held.len());
        while !held.is_empty() {
            // pick a random held message that is the *first* of its
            // (dst, tag) stream — always exists (e.g. index 0's stream
            // head is at or before index 0)
            let k = self.draw(|rng| below(rng, held.len() as u64)) as usize;
            let (dst, tag) = (held[k].dst, held[k].tag);
            let first = held
                .iter()
                .position(|h| h.dst == dst && h.tag == tag)
                .expect("stream head exists");
            out.push(held.remove(first));
        }
        out
    }

    /// True if any messages are currently held back.
    pub(crate) fn has_held(&self) -> bool {
        !self.held.borrow().is_empty()
    }
}

/// One scheduled asymmetric partition on a rank's link. Armed when the
/// rank's outbound data-frame counter reaches `at_frame`; while open
/// (wall clock since arming < `duration`), severed directions drop
/// every frame on the floor.
struct NetPartition {
    dir: NetDir,
    at_frame: u64,
    duration: Duration,
    opened: Mutex<Option<Instant>>,
}

impl NetPartition {
    /// Arm the window if the outbound data-frame counter has reached
    /// `at_frame` (regardless of direction — the counter is the clock
    /// for both). Returns whether the window is open.
    fn check(&self, frames_planned: u64) -> bool {
        let mut opened = self.opened.lock().unwrap();
        match *opened {
            Some(at) => at.elapsed() < self.duration,
            None if frames_planned > self.at_frame => {
                *opened = Some(Instant::now());
                true
            }
            None => false,
        }
    }
}

/// What the chaos interposer demands for one outbound wire frame, as
/// decided by [`NetFaults::plan_write`]. All decisions for a frame are
/// drawn up front so the writer can apply them in one pass.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct WriteFault {
    /// Sleep this long before writing.
    pub delay: Option<Duration>,
    /// Drop the frame on the floor (write nothing).
    pub drop: bool,
    /// Flip this bit index (into the framed bytes) before writing.
    pub corrupt_bit: Option<usize>,
    /// Split the write into this many chunks with tiny sleeps between.
    pub chunks: Option<usize>,
    /// Hard-reset the connection right after this frame.
    pub reset_after: bool,
}

/// The compiled per-rank network-chaos stream, shared by all the
/// worker's threads (`Sync`: `Mutex` RNG + an atomic frame counter). Scheduled
/// faults (resets, partitions) key off the rank's outbound *data*-frame
/// counter so heartbeat cadence cannot shift them; probabilistic faults
/// hit every outbound frame, heartbeats included.
pub(crate) struct NetFaults {
    rng: Mutex<u64>,
    delay_prob: u32,
    delay_max: Duration,
    drop_prob: u32,
    corrupt_prob: u32,
    partial_prob: u32,
    /// Outbound data-frame indices at which to hard-reset, sorted.
    resets: Vec<u64>,
    partitions: Vec<NetPartition>,
    /// Outbound data frames planned so far.
    out_data: AtomicU64,
}

impl NetFaults {
    /// Decide every fault to apply to one outbound frame of `len`
    /// framed bytes. `is_data` excludes heartbeats from the scheduled
    /// (reset/partition) frame counter.
    pub(crate) fn plan_write(&self, len: usize, is_data: bool) -> WriteFault {
        let planned = if is_data {
            self.out_data.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            self.out_data.load(Ordering::Relaxed)
        };
        let mut fault = WriteFault::default();
        for p in &self.partitions {
            fault.drop |= p.check(planned) && p.dir.severs_out();
        }
        fault.reset_after = is_data && self.resets.contains(&(planned - 1));
        {
            let mut rng = self.rng.lock().unwrap();
            if coin(&mut rng, self.delay_prob) {
                let max_us = self.delay_max.as_micros() as u64;
                fault.delay = Some(Duration::from_micros(below(
                    &mut rng,
                    max_us.saturating_add(1),
                )));
            }
            if coin(&mut rng, self.drop_prob) {
                fault.drop = true;
            }
            if coin(&mut rng, self.corrupt_prob) && len > 0 {
                fault.corrupt_bit = Some(below(&mut rng, (len as u64) * 8) as usize);
            }
            if coin(&mut rng, self.partial_prob) && len > 1 {
                fault.chunks = Some(2 + below(&mut rng, 3) as usize);
            }
        }
        fault
    }

    /// True if an *inbound* frame must be dropped right now (only open
    /// `In`/`Both` partitions sever inbound traffic). Must be called
    /// *before* the session layer advances its receive cursor, so the
    /// gap is healed by retransmission after the partition closes.
    pub(crate) fn drop_inbound(&self) -> bool {
        let planned = self.out_data.load(Ordering::Relaxed);
        let mut dropped = false;
        for p in &self.partitions {
            // every partition is checked: the check is what arms it
            dropped |= p.check(planned) && p.dir.severs_in();
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_per_rank() {
        let plan = FaultPlan::new(42)
            .with_delays(0.5, Duration::from_micros(100))
            .with_reordering(0.5);
        let a: RankFaults<u32> = plan.compile(3);
        let b: RankFaults<u32> = plan.compile(3);
        for _ in 0..64 {
            assert_eq!(a.draw_delay(), b.draw_delay());
        }
        // different ranks get different streams
        let c: RankFaults<u32> = plan.compile(4);
        let delays_a: Vec<_> = (0..64).map(|_| a.draw_delay()).collect();
        let delays_c: Vec<_> = (0..64).map(|_| c.draw_delay()).collect();
        assert_ne!(delays_a, delays_c);
    }

    #[test]
    fn hold_back_preserves_per_stream_fifo() {
        let plan = FaultPlan::new(7).with_reordering(0.4);
        let f: RankFaults<u32> = plan.compile(0);
        // pump 200 messages across 3 (dst, tag) streams; anything not
        // held is "delivered" immediately
        let mut delivered: Vec<(usize, u64, u32)> = Vec::new();
        for i in 0..200u32 {
            let dst = (i % 3) as usize;
            let tag = (i % 2) as u64;
            if let Some(m) = f.maybe_hold(dst, tag, i) {
                delivered.push((dst, tag, m));
            }
            if i % 50 == 49 {
                for h in f.drain_held() {
                    delivered.push((h.dst, h.tag, h.msg));
                }
            }
        }
        for h in f.drain_held() {
            delivered.push((h.dst, h.tag, h.msg));
        }
        assert_eq!(delivered.len(), 200);
        // per-(dst, tag) stream payloads must be strictly increasing
        for dst in 0..3usize {
            for tag in 0..2u64 {
                let stream: Vec<u32> = delivered
                    .iter()
                    .filter(|(d, t, _)| *d == dst && *t == tag)
                    .map(|(_, _, m)| *m)
                    .collect();
                assert!(
                    stream.windows(2).all(|w| w[0] < w[1]),
                    "stream ({dst},{tag}) reordered: {stream:?}"
                );
            }
        }
    }

    #[test]
    fn scheduled_panic_fires_exactly_once() {
        let plan = FaultPlan::new(1).with_panic_at(2, 5);
        let f: RankFaults<u32> = plan.compile(2);
        let fires: Vec<bool> = (0..10).map(|op| f.tick_op(op).is_some()).collect();
        assert_eq!(fires.iter().filter(|b| **b).count(), 1);
        assert!(fires[5]);
        // other ranks never fire
        let g: RankFaults<u32> = plan.compile(1);
        assert!((0..10).all(|op| g.tick_op(op).is_none()));
    }

    #[test]
    fn sigkill_and_stall_fire_at_scheduled_ops() {
        let plan = FaultPlan::new(3).with_sigkill_at(0, 2).with_stall_at(1, 4);
        let k: RankFaults<u32> = plan.compile(0);
        let actions: Vec<_> = (0..6).map(|op| k.tick_op(op)).collect();
        assert_eq!(actions[2], Some(FaultAction::Sigkill(2)));
        assert_eq!(actions.iter().flatten().count(), 1);
        let s: RankFaults<u32> = plan.compile(1);
        let actions: Vec<_> = (0..6).map(|op| s.tick_op(op)).collect();
        assert_eq!(actions[4], Some(FaultAction::Stall(4)));
        assert_eq!(actions.iter().flatten().count(), 1);
    }

    #[test]
    fn plan_wire_roundtrip() {
        use quadforest_core::Wire;
        let plan = FaultPlan::new(0xDEAD_BEEF)
            .with_delays(0.15, Duration::from_micros(100))
            .with_reordering(0.2)
            .with_panic_at(1, 12)
            .with_sigkill_at(2, 7)
            .with_stall_at(0, 3);
        let back = FaultPlan::from_wire(&plan.to_wire()).expect("roundtrip");
        assert_eq!(plan, back);
    }

    #[test]
    fn net_plan_wire_roundtrip() {
        use quadforest_core::Wire;
        let plan = FaultPlan::new(0xFACE)
            .with_net_delays(0.1, Duration::from_micros(250))
            .with_net_drops(0.05)
            .with_net_corruption(0.02)
            .with_net_partial_writes(0.3)
            .with_net_reset_at(1, 4)
            .with_net_partition(2, NetDir::Both, 3, Duration::from_millis(200))
            .with_net_partition(0, NetDir::In, 7, Duration::from_millis(50));
        assert!(plan.net_is_active());
        let back = FaultPlan::from_wire(&plan.to_wire()).expect("roundtrip");
        assert_eq!(plan, back);
    }

    #[test]
    fn net_stream_is_deterministic_and_independent_of_msg_stream() {
        let plan = FaultPlan::new(99)
            .with_net_delays(0.5, Duration::from_micros(100))
            .with_net_drops(0.25)
            .with_net_corruption(0.25)
            .with_net_partial_writes(0.25);
        let a = plan.compile_net(2);
        let b = plan.compile_net(2);
        for _ in 0..128 {
            let fa = a.plan_write(64, true);
            let fb = b.plan_write(64, true);
            assert_eq!(fa.delay, fb.delay);
            assert_eq!(fa.drop, fb.drop);
            assert_eq!(fa.corrupt_bit, fb.corrupt_bit);
            assert_eq!(fa.chunks, fb.chunks);
        }
        // different ranks draw different wire faults
        let c = plan.compile_net(3);
        // (drops, corruptions) over 128 frames
        let tally = |nf: &NetFaults| {
            (0..128)
                .map(|_| nf.plan_write(64, true))
                .fold((0, 0), |(d, k), w| {
                    (d + w.drop as u32, k + w.corrupt_bit.is_some() as u32)
                })
        };
        assert_ne!(tally(&a), tally(&c), "rank streams coincided exactly");
    }

    #[test]
    fn scheduled_reset_fires_on_data_frames_only() {
        let plan = FaultPlan::new(5).with_net_reset_at(1, 2);
        let nf = plan.compile_net(1);
        // heartbeats don't advance the scheduled counter
        for _ in 0..10 {
            assert!(!nf.plan_write(16, false).reset_after);
        }
        // data frames 0..4: one reset, after frame 2
        let fired: Vec<bool> = (0..4)
            .map(|_| nf.plan_write(64, true).reset_after)
            .collect();
        assert_eq!(fired, [false, false, true, false]);
        // other ranks unaffected
        let other = plan.compile_net(0);
        for _ in 0..8 {
            assert!(!other.plan_write(64, true).reset_after);
        }
    }

    #[test]
    fn partition_window_arms_on_data_frame_and_heals() {
        let plan =
            FaultPlan::new(6).with_net_partition(0, NetDir::Both, 1, Duration::from_millis(30));
        let nf = plan.compile_net(0);
        assert!(!nf.drop_inbound()); // not armed yet
        assert!(!nf.plan_write(64, true).drop); // data frame 0: arms at >1
        assert!(!nf.drop_inbound());
        assert!(nf.plan_write(64, true).drop); // data frame 1 arms the window
        assert!(nf.drop_inbound()); // Both severs inbound too
        let still_open = nf.plan_write(16, false).drop && nf.drop_inbound();
        assert!(still_open, "one window, armed once, open both ways");
        std::thread::sleep(Duration::from_millis(40));
        assert!(!nf.plan_write(64, true).drop); // healed
        assert!(!nf.drop_inbound());
    }

    #[test]
    fn out_only_partition_keeps_inbound_flowing() {
        let plan = FaultPlan::new(8).with_net_partition(0, NetDir::Out, 0, Duration::from_secs(60));
        let nf = plan.compile_net(0);
        for _ in 0..3 {
            assert!(nf.plan_write(64, true).drop); // every outbound frame
            assert!(!nf.drop_inbound()); // and no inbound one
        }
    }

    /// Both fault streams, pinned: the first 256 decisions of the
    /// message stream (`draw_delay`, `maybe_hold`, a `drain_held` every
    /// 32) and of the wire stream (`plan_write`, `drop_inbound`) at
    /// ranks 0..3 of one plan with every op set, as length and CRC-32 of
    /// their byte log. The partitions never heal within the test, so
    /// the wall clock cannot move a decision.
    #[test]
    fn fault_streams_are_pinned() {
        let hour = Duration::from_secs(3600);
        let plan = FaultPlan::new(0x5EED_F00D)
            .with_delays(0.3, Duration::from_micros(500))
            .with_reordering(0.25)
            .with_panic_at(1, 40)
            .with_sigkill_at(2, 50)
            .with_stall_at(3, 60)
            .with_net_delays(0.2, Duration::from_micros(300))
            .with_net_drops(0.1)
            .with_net_corruption(0.15)
            .with_net_partial_writes(0.2)
            .with_net_reset_at(0, 7)
            .with_net_reset_at(2, 100)
            .with_net_partition(1, NetDir::In, 90, hour)
            .with_net_partition(2, NetDir::Out, 150, hour)
            .with_net_partition(3, NetDir::Both, 120, hour);
        let mut log: Vec<u8> = Vec::new();
        let mut put = |v: u64| log.extend_from_slice(&v.to_le_bytes());
        for rank in 0..4 {
            let f: RankFaults<u32> = plan.compile(rank);
            for i in 0..256u32 {
                put(f.draw_delay().map_or(u64::MAX, |d| d.as_micros() as u64));
                let (dst, tag) = ((i % 3) as usize, (i % 2) as u64);
                put(f.maybe_hold(dst, tag, i).map_or(u64::MAX, u64::from));
                if i % 32 == 31 {
                    for h in f.drain_held() {
                        put(((h.dst as u64) << 40) | (h.tag << 32) | h.msg as u64);
                    }
                }
            }
            let net = plan.compile_net(rank);
            for i in 0..256usize {
                let w = net.plan_write(16 + i % 50, i % 4 != 0);
                put(w.delay.map_or(u64::MAX, |d| d.as_micros() as u64));
                put(w.corrupt_bit.map_or(u64::MAX, |b| b as u64));
                put(w.chunks.map_or(u64::MAX, |c| c as u64));
                put(w.drop as u64 | (w.reset_after as u64) << 1);
                put(net.drop_inbound() as u64);
            }
        }
        let crc = quadforest_core::crc::crc32(&log);
        assert_eq!((log.len(), crc), (61_976, 0x36EA_733A));
    }

    #[test]
    fn zero_prob_injects_nothing() {
        let plan = FaultPlan::new(9);
        assert!(!plan.net_is_active());
        let f: RankFaults<u32> = plan.compile(0);
        for i in 0..100 {
            assert!(f.draw_delay().is_none());
            assert!(f.maybe_hold(0, 0, i).is_some());
        }
        assert!(!f.has_held());
    }
}
