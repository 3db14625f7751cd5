//! Flight recorder: an always-on, fixed-capacity, lock-free ring buffer
//! of structured binary events, dumped to a postmortem file when a world
//! fails.
//!
//! ## Model
//!
//! One ring per **process**, armed once with [`arm`]; every event is
//! stamped with the recording thread's rank (set by [`set_thread_rank`],
//! done automatically by [`crate::begin_rank`]), so on the thread backend
//! the single ring interleaves all ranks' histories in global time order,
//! while on the socket backend each rank process owns a genuinely private
//! ring. Recording is wait-free: a writer claims a slot with one
//! `fetch_add`, then publishes the payload under a per-slot sequence lock
//! (odd = write in progress, even = consistent). A reader skips torn
//! slots instead of blocking, so a dump taken while other threads keep
//! recording is always a valid decodable sequence — some in-flight events
//! may simply be missing.
//!
//! Unarmed event sites cost one atomic load and a branch (guarded
//! **< 10 ns** by the `ablation` bench suite); armed sites are a handful
//! of relaxed stores — no locks, no allocation.
//!
//! ## Dump format (`QFR1`)
//!
//! ```text
//! [ magic "QFR1" ][ rank: u32 ][ name_count: u32 ]
//! [ names: (len: u16, utf8 bytes) * name_count ]
//! [ event_count: u32 ][ events: 33 bytes each, oldest first ]
//! event := ts_ns u64 | kind u8 | rank u32 | a u32 | b u64 | c u64 (LE)
//! ```
//!
//! The name table snapshots the process-wide [`name_id`] interning table,
//! so phase and reason strings survive into the postmortem file.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable naming the postmortem output directory. The
/// socket supervisor propagates it to rank children so their dumps land
/// next to the supervisor's own.
pub const ENV_FLIGHT_DIR: &str = "QUADFOREST_FLIGHT_DIR";

/// Default ring capacity in events (must be a power of two). At 40 bytes
/// a slot this is ~160 KiB per process.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Rank value recorded by threads that never called [`set_thread_rank`]
/// (e.g. a socket supervisor or a query worker outside any world).
pub const NO_RANK: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Event kinds
// ---------------------------------------------------------------------------

/// What happened. The `a`/`b`/`c` payload words are kind-specific; see
/// each variant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum FlightKind {
    /// A phase span opened. `b` = [`name_id`] of the phase.
    PhaseEnter = 1,
    /// A phase span closed. `b` = [`name_id`], `c` = duration ns.
    PhaseExit = 2,
    /// Point-to-point send. `a` = peer rank, `b` = tag, `c` = bytes.
    CommSend = 3,
    /// Point-to-point receive. `a` = peer rank, `b` = tag, `c` = bytes.
    CommRecv = 4,
    /// A collective started. `b` = collective sequence number,
    /// `c` = [`name_id`] of the phase it runs in.
    Collective = 5,
    /// A query batch was submitted. `b` = batch size.
    BatchStart = 6,
    /// A query batch completed. `b` = batch size, `c` = end-to-end ns.
    BatchDone = 7,
    /// A liveness heartbeat was sent. `b` = heartbeat sequence number.
    Heartbeat = 8,
    /// A checkpoint generation committed. `b` = generation number.
    CheckpointCommit = 9,
    /// A peer was declared dead. `a` = peer rank, `b` = the victim's
    /// last reported comm-op count, `c` = [`name_id`] of the victim's
    /// last reported phase (0 if unknown).
    PeerFailed = 10,
    /// The recovery supervisor is retrying. `b` = failed attempt index.
    RecoveryRetry = 11,
    /// A query batch exceeded the slow-query threshold. `b` = batch
    /// size, `c` = end-to-end ns.
    SlowQuery = 12,
}

impl FlightKind {
    fn from_u8(v: u8) -> Option<Self> {
        use FlightKind::*;
        Some(match v {
            1 => PhaseEnter,
            2 => PhaseExit,
            3 => CommSend,
            4 => CommRecv,
            5 => Collective,
            6 => BatchStart,
            7 => BatchDone,
            8 => Heartbeat,
            9 => CheckpointCommit,
            10 => PeerFailed,
            11 => RecoveryRetry,
            12 => SlowQuery,
            _ => return None,
        })
    }

    fn label(self) -> &'static str {
        use FlightKind::*;
        match self {
            PhaseEnter => "phase-enter",
            PhaseExit => "phase-exit",
            CommSend => "send",
            CommRecv => "recv",
            Collective => "collective",
            BatchStart => "batch-start",
            BatchDone => "batch-done",
            Heartbeat => "heartbeat",
            CheckpointCommit => "checkpoint-commit",
            PeerFailed => "peer-failed",
            RecoveryRetry => "recovery-retry",
            SlowQuery => "slow-query",
        }
    }
}

// ---------------------------------------------------------------------------
// Name table
// ---------------------------------------------------------------------------

struct NameTable {
    by_name: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn name_table() -> &'static Mutex<NameTable> {
    static TABLE: OnceLock<Mutex<NameTable>> = OnceLock::new();
    TABLE.get_or_init(|| {
        // Id 0 is reserved for "unknown" so payload word 0 stays neutral.
        Mutex::new(NameTable {
            by_name: HashMap::from([("?", 0)]),
            names: vec!["?"],
        })
    })
}

/// Intern a string into the flight-recorder name table and return its
/// id. Ids are stable for the process lifetime; id 0 is the unknown
/// string `"?"`. Events reference phases and reasons by id so recording
/// stays allocation-free.
pub fn name_id(name: &str) -> u32 {
    let mut t = name_table().lock().unwrap_or_else(|p| p.into_inner());
    if let Some(&id) = t.by_name.get(name) {
        return id;
    }
    let id = t.names.len() as u32;
    let leaked = crate::intern_name(name);
    t.names.push(leaked);
    t.by_name.insert(leaked, id);
    id
}

fn name_snapshot() -> Vec<String> {
    let t = name_table().lock().unwrap_or_else(|p| p.into_inner());
    t.names.iter().map(|s| s.to_string()).collect()
}

// ---------------------------------------------------------------------------
// The ring
// ---------------------------------------------------------------------------

struct Slot {
    /// Sequence lock: `2*claim + 1` while the claiming writer stores the
    /// payload, `2*claim + 2` once the payload is consistent. A reader
    /// that sees an odd value, or a value that changed across its
    /// payload read, skips the slot.
    seq: AtomicU64,
    words: [AtomicU64; 4],
}

struct Ring {
    mask: u64,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

static RING: OnceLock<Ring> = OnceLock::new();

thread_local! {
    static THREAD_RANK: std::cell::Cell<u32> = const { std::cell::Cell::new(NO_RANK) };
}

/// Tag this thread's future flight events with `rank`. Called by
/// [`crate::begin_rank`] and by socket child startup.
pub fn set_thread_rank(rank: u32) {
    THREAD_RANK.with(|r| r.set(rank));
}

/// Arm the process flight recorder with the default capacity. Idempotent
/// and cheap; every world entry point calls it so recording is always-on
/// inside worlds.
pub fn arm() {
    arm_with_capacity(DEFAULT_FLIGHT_CAPACITY);
}

/// Arm with an explicit capacity (rounded up to a power of two). Only
/// the first call sizes the ring.
pub fn arm_with_capacity(capacity: usize) {
    RING.get_or_init(|| {
        let cap = capacity.next_power_of_two().max(2);
        let slots = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(u64::MAX), // never a valid even/odd claim stamp
                words: [
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                ],
            })
            .collect();
        Ring {
            mask: cap as u64 - 1,
            head: AtomicU64::new(0),
            slots,
        }
    });
}

/// Is the recorder armed?
pub fn armed() -> bool {
    RING.get().is_some()
}

/// Record one event. Unarmed: one atomic load and a branch. Armed:
/// wait-free — a `fetch_add` slot claim plus six relaxed/release stores.
#[inline]
pub fn event(kind: FlightKind, a: u32, b: u64, c: u64) {
    let Some(ring) = RING.get() else { return };
    record(ring, kind, a, b, c);
}

#[cold]
fn record(ring: &Ring, kind: FlightKind, a: u32, b: u64, c: u64) {
    let ts = crate::now_ns();
    let rank = THREAD_RANK.with(|r| r.get());
    let claim = ring.head.fetch_add(1, Ordering::Relaxed);
    let slot = &ring.slots[(claim & ring.mask) as usize];
    slot.seq.store(claim * 2 + 1, Ordering::Release);
    slot.words[0].store(ts, Ordering::Relaxed);
    slot.words[1].store(
        kind as u64 | ((rank as u64 & 0xFF_FFFF) << 8) | ((a as u64) << 32),
        Ordering::Relaxed,
    );
    slot.words[2].store(b, Ordering::Relaxed);
    slot.words[3].store(c, Ordering::Relaxed);
    slot.seq.store(claim * 2 + 2, Ordering::Release);
}

// ---------------------------------------------------------------------------
// Decoded events and dumps
// ---------------------------------------------------------------------------

/// One decoded flight event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    pub ts_ns: u64,
    pub kind: FlightKind,
    pub rank: u32,
    pub a: u32,
    pub b: u64,
    pub c: u64,
}

/// A consistent snapshot of the ring plus the name table — what gets
/// encoded into a `.qfr` file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightDump {
    /// Rank label of the dumping process ([`NO_RANK`] for a supervisor).
    pub rank: u32,
    /// Name table: index = [`name_id`].
    pub names: Vec<String>,
    /// Events, oldest first.
    pub events: Vec<FlightEvent>,
}

/// Read the last-N surviving events out of the ring, oldest first.
/// Returns `None` if the recorder was never armed. Torn slots (a writer
/// mid-store, or overwritten between claim scan and payload read) are
/// skipped, never blocked on.
pub fn snapshot() -> Option<FlightDump> {
    let ring = RING.get()?;
    let head = ring.head.load(Ordering::Acquire);
    let cap = ring.mask + 1;
    let start = head.saturating_sub(cap);
    let mut events = Vec::with_capacity((head - start) as usize);
    for claim in start..head {
        let slot = &ring.slots[(claim & ring.mask) as usize];
        let seq1 = slot.seq.load(Ordering::Acquire);
        if seq1 != claim * 2 + 2 {
            continue; // in progress, or already lapped by a newer claim
        }
        let w0 = slot.words[0].load(Ordering::Relaxed);
        let w1 = slot.words[1].load(Ordering::Relaxed);
        let w2 = slot.words[2].load(Ordering::Relaxed);
        let w3 = slot.words[3].load(Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != seq1 {
            continue; // torn: overwritten while we read
        }
        let Some(kind) = FlightKind::from_u8((w1 & 0xFF) as u8) else {
            continue;
        };
        let rank = ((w1 >> 8) & 0xFF_FFFF) as u32;
        let rank = if rank == 0xFF_FFFF { NO_RANK } else { rank };
        events.push(FlightEvent {
            ts_ns: w0,
            kind,
            rank,
            a: (w1 >> 32) as u32,
            b: w2,
            c: w3,
        });
    }
    Some(FlightDump {
        rank: THREAD_RANK.with(|r| r.get()),
        names: name_snapshot(),
        events,
    })
}

impl FlightDump {
    /// Encode into the `QFR1` binary postmortem format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.events.len() * 33);
        out.extend_from_slice(b"QFR1");
        out.extend_from_slice(&self.rank.to_le_bytes());
        out.extend_from_slice(&(self.names.len() as u32).to_le_bytes());
        for n in &self.names {
            let bytes = n.as_bytes();
            let len = bytes.len().min(u16::MAX as usize);
            out.extend_from_slice(&(len as u16).to_le_bytes());
            out.extend_from_slice(&bytes[..len]);
        }
        out.extend_from_slice(&(self.events.len() as u32).to_le_bytes());
        for e in &self.events {
            out.extend_from_slice(&e.ts_ns.to_le_bytes());
            out.push(e.kind as u8);
            out.extend_from_slice(&e.rank.to_le_bytes());
            out.extend_from_slice(&e.a.to_le_bytes());
            out.extend_from_slice(&e.b.to_le_bytes());
            out.extend_from_slice(&e.c.to_le_bytes());
        }
        out
    }

    /// Decode a `QFR1` postmortem. Strict: bad magic, truncation, or an
    /// unknown event kind is an error, never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        struct R<'a>(&'a [u8], usize);
        impl R<'_> {
            fn take(&mut self, n: usize) -> Result<&[u8], String> {
                if self.1 + n > self.0.len() {
                    return Err(format!("truncated at byte {}", self.1));
                }
                let s = &self.0[self.1..self.1 + n];
                self.1 += n;
                Ok(s)
            }
            fn u16(&mut self) -> Result<u16, String> {
                Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
            }
            fn u32(&mut self) -> Result<u32, String> {
                Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
            }
            fn u64(&mut self) -> Result<u64, String> {
                Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
            }
        }
        let mut r = R(bytes, 0);
        if r.take(4)? != b"QFR1" {
            return Err("bad magic (want QFR1)".into());
        }
        let rank = r.u32()?;
        let name_count = r.u32()? as usize;
        if name_count > bytes.len() {
            return Err("name count exceeds input size".into());
        }
        let mut names = Vec::with_capacity(name_count);
        for _ in 0..name_count {
            let len = r.u16()? as usize;
            let s = std::str::from_utf8(r.take(len)?).map_err(|e| e.to_string())?;
            names.push(s.to_string());
        }
        let event_count = r.u32()? as usize;
        if event_count > bytes.len() {
            return Err("event count exceeds input size".into());
        }
        let mut events = Vec::with_capacity(event_count);
        for i in 0..event_count {
            let ts_ns = r.u64()?;
            let kind_raw = r.take(1)?[0];
            let kind = FlightKind::from_u8(kind_raw)
                .ok_or_else(|| format!("event {i}: unknown kind {kind_raw}"))?;
            events.push(FlightEvent {
                ts_ns,
                kind,
                rank: r.u32()?,
                a: r.u32()?,
                b: r.u64()?,
                c: r.u64()?,
            });
        }
        if r.1 != bytes.len() {
            return Err(format!("{} trailing bytes", bytes.len() - r.1));
        }
        Ok(FlightDump {
            rank,
            names,
            events,
        })
    }

    fn name(&self, id: u64) -> &str {
        self.names
            .get(id as usize)
            .map(|s| s.as_str())
            .unwrap_or("?")
    }

    /// Human-readable rendering, one line per event, oldest first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let rank_label = |r: u32| -> String {
            if r == NO_RANK {
                "sup".into()
            } else {
                format!("r{r}")
            }
        };
        out.push_str(&format!(
            "flight recorder postmortem · dumped by {} · {} events\n",
            rank_label(self.rank),
            self.events.len()
        ));
        for e in &self.events {
            let detail = match e.kind {
                FlightKind::PhaseEnter => format!("phase '{}'", self.name(e.b)),
                FlightKind::PhaseExit => {
                    format!("phase '{}' after {} ns", self.name(e.b), e.c)
                }
                FlightKind::CommSend => {
                    format!("→ r{} tag {:#x} ({} bytes)", e.a, e.b, e.c)
                }
                FlightKind::CommRecv => {
                    format!("← r{} tag {:#x} ({} bytes)", e.a, e.b, e.c)
                }
                FlightKind::Collective => {
                    format!("#{} in phase '{}'", e.b, self.name(e.c))
                }
                FlightKind::BatchStart => format!("{} probes", e.b),
                FlightKind::BatchDone => format!("{} probes in {} ns", e.b, e.c),
                FlightKind::Heartbeat => format!("seq {}", e.b),
                FlightKind::CheckpointCommit => format!("generation {}", e.b),
                FlightKind::PeerFailed => format!(
                    "r{} last seen at comm op {} in phase '{}'",
                    e.a,
                    e.b,
                    self.name(e.c)
                ),
                FlightKind::RecoveryRetry => format!("after attempt {}", e.b),
                FlightKind::SlowQuery => format!("{} probes took {} ns", e.b, e.c),
            };
            out.push_str(&format!(
                "{:>14} ns  {:>4}  {:<17} {}\n",
                e.ts_ns,
                rank_label(e.rank),
                e.kind.label(),
                detail
            ));
        }
        out
    }

    /// The phase `rank` was last inside (last `PhaseEnter` without a
    /// matching later `PhaseExit`, else the last `PhaseEnter`).
    pub fn last_phase(&self, rank: u32) -> Option<&str> {
        self.events
            .iter()
            .rev()
            .find(|e| e.rank == rank && e.kind == FlightKind::PhaseEnter)
            .map(|e| self.name(e.b))
    }
}

// ---------------------------------------------------------------------------
// Postmortem dumping
// ---------------------------------------------------------------------------

static POSTMORTEM_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Direct postmortem dumps to `dir` (overrides the [`ENV_FLIGHT_DIR`]
/// environment variable for this process).
pub fn set_postmortem_dir(dir: impl Into<PathBuf>) {
    *POSTMORTEM_DIR.lock().unwrap_or_else(|p| p.into_inner()) = Some(dir.into());
}

/// Where postmortems go: the [`set_postmortem_dir`] override, else
/// [`ENV_FLIGHT_DIR`], else `None` (dumping disabled).
pub fn postmortem_dir() -> Option<PathBuf> {
    if let Some(d) = POSTMORTEM_DIR
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone()
    {
        return Some(d);
    }
    std::env::var_os(ENV_FLIGHT_DIR).map(PathBuf::from)
}

/// Dump the ring to `flight-{label}.qfr` (+ a `.txt` rendering) in the
/// postmortem directory. `rank` labels the file: the dumping rank, or
/// [`NO_RANK`] for a supervisor (`flight-sup.qfr`). Returns the binary
/// path on success; `None` if the recorder is unarmed, no directory is
/// configured, or the write fails (postmortems must never take down the
/// process that is trying to report a failure).
pub fn dump_postmortem(rank: u32) -> Option<PathBuf> {
    let dir = postmortem_dir()?;
    let mut dump = snapshot()?;
    dump.rank = rank;
    let label = if rank == NO_RANK {
        "sup".to_string()
    } else {
        rank.to_string()
    };
    std::fs::create_dir_all(&dir).ok()?;
    let bin_path = dir.join(format!("flight-{label}.qfr"));
    write_atomic(&bin_path, &dump.encode())?;
    let txt_path = dir.join(format!("flight-{label}.txt"));
    write_atomic(&txt_path, dump.render().as_bytes());
    Some(bin_path)
}

fn write_atomic(path: &Path, bytes: &[u8]) -> Option<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes).ok()?;
    std::fs::rename(&tmp, path).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_encode_decode_render() {
        arm_with_capacity(64);
        set_thread_rank(3);
        let phase = name_id("balance");
        event(FlightKind::PhaseEnter, 0, phase as u64, 0);
        event(FlightKind::CommSend, 1, 0x2a, 4096);
        event(FlightKind::PeerFailed, 1, 9, phase as u64);
        let dump = snapshot().unwrap();
        assert!(dump.events.len() >= 3);
        let bytes = dump.encode();
        let back = FlightDump::decode(&bytes).unwrap();
        assert_eq!(back, dump);
        let txt = back.render();
        assert!(txt.contains("phase 'balance'"), "{txt}");
        assert!(txt.contains("→ r1 tag 0x2a (4096 bytes)"), "{txt}");
        assert!(
            txt.contains("r1 last seen at comm op 9 in phase 'balance'"),
            "{txt}"
        );
        assert_eq!(dump.last_phase(3), Some("balance"));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(FlightDump::decode(b"").is_err());
        assert!(FlightDump::decode(b"NOPE").is_err());
        assert!(FlightDump::decode(b"QFR1\x00\x00").is_err());
        // valid header claiming a huge name count must not allocate/panic
        let mut bad = b"QFR1".to_vec();
        bad.extend_from_slice(&0u32.to_le_bytes());
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(FlightDump::decode(&bad).is_err());
    }
}
