//! Flight recorder: an always-on, fixed-capacity ring buffer of
//! structured binary events, dumped to a postmortem file when a world
//! fails.
//!
//! ## Model
//!
//! One ring per **process**, armed once with [`arm`]; every event is
//! stamped with the recording thread's rank (set by [`set_thread_rank`],
//! done automatically by [`crate::begin_rank`]), so on the thread backend
//! the single ring interleaves all ranks' histories in global time order,
//! while on the socket backend each rank process owns a genuinely private
//! ring. A writer claims a slot with one `fetch_add`, then publishes the
//! event under that slot's mutex together with its claim number — unless
//! the slot already holds a newer claim (the writer was lapped). A reader
//! keeps a slot only if it is stamped with the claim being scanned, so a
//! dump taken while other threads keep recording is always a valid
//! decodable sequence of whole events — some in-flight events may simply
//! be missing. A slot's lock is held for five word copies, never across a
//! dump.
//!
//! Unarmed event sites cost one atomic load and a branch (guarded
//! **< 10 ns** by `tests/disabled_cost.rs`); armed sites are one
//! `fetch_add` and one uncontended lock — no allocation.
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

/// Default ring capacity in events (must be a power of two). At 48 bytes
/// a slot this is ~192 KiB per process.
pub(crate) const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Rank value recorded by threads that never called [`set_thread_rank`]
/// (e.g. a socket supervisor or a query worker outside any world).
pub const NO_RANK: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Event kinds
// ---------------------------------------------------------------------------

/// Declares [`FlightKind`] from one table: each variant's discriminant
/// (its byte in the `QFR1` format), its label and the rest of its line in
/// [`FlightDump::render`], formatted from the dump `d` and the event `e`.
macro_rules! flight_kinds {
    ($($(#[doc = $doc:literal])+
       $kind:ident = $byte:literal, $label:literal, |$d:pat_param, $e:pat_param| $detail:expr;)+) => {
        /// What happened. The `a`/`b`/`c` payload words are kind-specific;
        /// see each variant.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        #[repr(u8)]
        pub enum FlightKind {
            $($(#[doc = $doc])+ $kind = $byte,)+
        }

        impl FlightKind {
            fn from_u8(v: u8) -> Option<Self> {
                match v {
                    $($byte => Some(FlightKind::$kind),)+
                    _ => None,
                }
            }

            fn label(self) -> &'static str {
                match self {
                    $(FlightKind::$kind => $label,)+
                }
            }
        }

        impl FlightDump {
            fn detail(&self, event: &FlightEvent) -> String {
                match event.kind {
                    $(FlightKind::$kind => {
                        let ($d, $e) = (self, event);
                        $detail
                    })+
                }
            }
        }
    };
}

flight_kinds! {
    /// A phase span opened. `b` = [`name_id`] of the phase.
    PhaseEnter = 1, "phase-enter", |d, e| format!("phase '{}'", d.name(e.b));
    /// A phase span closed. `b` = [`name_id`], `c` = duration ns.
    PhaseExit = 2, "phase-exit", |d, e| format!("phase '{}' after {} ns", d.name(e.b), e.c);
    /// Point-to-point send. `a` = peer rank, `b` = tag, `c` = bytes.
    CommSend = 3, "send", |_, e| format!("→ r{} tag {:#x} ({} bytes)", e.a, e.b, e.c);
    /// Point-to-point receive. `a` = peer rank, `b` = tag, `c` = bytes.
    CommRecv = 4, "recv", |_, e| format!("← r{} tag {:#x} ({} bytes)", e.a, e.b, e.c);
    /// A collective started. `b` = collective sequence number,
    /// `c` = [`name_id`] of the phase it runs in.
    Collective = 5, "collective", |d, e| format!("#{} in phase '{}'", e.b, d.name(e.c));
    /// A query batch was submitted. `b` = batch size.
    BatchStart = 6, "batch-start", |_, e| format!("{} probes", e.b);
    /// A query batch completed. `b` = batch size, `c` = end-to-end ns.
    BatchDone = 7, "batch-done", |_, e| format!("{} probes in {} ns", e.b, e.c);
    /// A liveness heartbeat was sent. `b` = heartbeat sequence number.
    Heartbeat = 8, "heartbeat", |_, e| format!("seq {}", e.b);
    /// A checkpoint generation committed. `b` = generation number.
    CheckpointCommit = 9, "checkpoint-commit", |_, e| format!("generation {}", e.b);
    /// A peer was declared dead. `a` = peer rank, `b` = the victim's
    /// last reported comm-op count, `c` = [`name_id`] of the victim's
    /// last reported phase (0 if unknown).
    PeerFailed = 10, "peer-failed", |d, e| {
        format!("r{} last seen at comm op {} in phase '{}'", e.a, e.b, d.name(e.c))
    };
    /// The recovery supervisor is retrying. `b` = failed attempt index.
    RecoveryRetry = 11, "recovery-retry", |_, e| format!("after attempt {}", e.b);
    /// A query batch exceeded the slow-query threshold. `b` = batch
    /// size, `c` = end-to-end ns.
    SlowQuery = 12, "slow-query", |_, e| format!("{} probes took {} ns", e.b, e.c);
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
    intern(name).0
}

/// The id and the `&'static str` of `name` in the name table. A novel
/// name is leaked exactly once, so the leak is bounded by the set of
/// names the program uses.
pub(crate) fn intern(name: &str) -> (u32, &'static str) {
    let mut t = name_table().lock().unwrap_or_else(|p| p.into_inner());
    if let Some((&name, &id)) = t.by_name.get_key_value(name) {
        return (id, name);
    }
    let id = t.names.len() as u32;
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    t.names.push(leaked);
    t.by_name.insert(leaked, id);
    (id, leaked)
}

// ---------------------------------------------------------------------------
// The ring
// ---------------------------------------------------------------------------

/// What one slot holds: the stamp `claim + 1` of the event in `words`
/// (0 = never written), so a lapped writer and a scanning reader can both
/// tell whose event it is.
type Slot = Mutex<(u64, [u64; 4])>;

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
    RING.get_or_init(|| Ring::with_capacity(capacity));
}

/// Is the recorder armed?
pub fn armed() -> bool {
    RING.get().is_some()
}

/// Record one event. Unarmed: one atomic load and a branch. Armed: a
/// `fetch_add` slot claim plus one per-slot lock around the payload copy.
#[inline]
pub fn event(kind: FlightKind, a: u32, b: u64, c: u64) {
    let Some(ring) = RING.get() else { return };
    record(ring, kind, a, b, c);
}

#[cold]
fn record(ring: &Ring, kind: FlightKind, a: u32, b: u64, c: u64) {
    let ts = crate::now_ns();
    let rank = THREAD_RANK.with(|r| r.get());
    let w1 = kind as u64 | ((rank as u64 & 0xFF_FFFF) << 8) | ((a as u64) << 32);
    ring.publish(ring.claim(), [ts, w1, b, c]);
}

impl Ring {
    fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        Ring {
            mask: cap as u64 - 1,
            head: AtomicU64::new(0),
            slots: (0..cap).map(|_| Mutex::new((0, [0; 4]))).collect(),
        }
    }

    fn slot(&self, claim: u64) -> std::sync::MutexGuard<'_, (u64, [u64; 4])> {
        // a slot is only ever assigned whole, so a poisoned one is still valid
        self.slots[(claim & self.mask) as usize]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    /// Take the next position of the ring. `head` only hands out numbers;
    /// the slot mutex is what publishes an event's words.
    fn claim(&self) -> u64 {
        self.head.fetch_add(1, Ordering::Relaxed)
    }

    /// Store the event of `claim` unless its slot was lapped: a writer
    /// that comes late must not overwrite the newer event already there.
    fn publish(&self, claim: u64, words: [u64; 4]) {
        let mut slot = self.slot(claim);
        if slot.0 <= claim {
            *slot = (claim + 1, words);
        }
    }

    /// The surviving events of the last `capacity` claims, oldest first.
    fn events(&self) -> Vec<FlightEvent> {
        let head = self.head.load(Ordering::Relaxed);
        let start = head.saturating_sub(self.mask + 1);
        let mut events = Vec::with_capacity((head - start) as usize);
        for claim in start..head {
            let (stamp, [w0, w1, w2, w3]) = *self.slot(claim);
            if stamp != claim + 1 {
                continue; // not published yet, or already lapped by a newer claim
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
        events
    }
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
/// Returns `None` if the recorder was never armed. Slots a writer has
/// claimed but not yet published, or that were overwritten since the scan
/// began, are skipped; each slot is locked only while it is copied.
pub fn snapshot() -> Option<FlightDump> {
    // events first: every name id they carry is then in the copied table
    let events = RING.get()?.events();
    let table = name_table().lock().unwrap_or_else(|p| p.into_inner());
    Some(FlightDump {
        rank: THREAD_RANK.with(|r| r.get()),
        names: table.names.iter().map(|s| s.to_string()).collect(),
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
        let mut rest = bytes;
        let mut take = |n: usize| -> Result<&[u8], String> {
            if rest.len() < n {
                return Err(format!("truncated at byte {}", bytes.len() - rest.len()));
            }
            let (head, tail) = rest.split_at(n);
            rest = tail;
            Ok(head)
        };
        // the little-endian unsigned integer in `b`
        let le = |b: &[u8]| b.iter().rev().fold(0u64, |v, &x| v << 8 | u64::from(x));
        if take(4)? != b"QFR1" {
            return Err("bad magic (want QFR1)".into());
        }
        let rank = le(take(4)?) as u32;
        let name_count = le(take(4)?) as usize;
        if name_count > bytes.len() {
            return Err("name count exceeds input size".into());
        }
        let mut names = Vec::with_capacity(name_count);
        for _ in 0..name_count {
            let len = le(take(2)?) as usize;
            let s = std::str::from_utf8(take(len)?).map_err(|e| e.to_string())?;
            names.push(s.to_string());
        }
        let event_count = le(take(4)?) as usize;
        if event_count > bytes.len() {
            return Err("event count exceeds input size".into());
        }
        let mut events = Vec::with_capacity(event_count);
        for i in 0..event_count {
            let ts_ns = le(take(8)?);
            let kind_raw = take(1)?[0];
            let kind = FlightKind::from_u8(kind_raw)
                .ok_or_else(|| format!("event {i}: unknown kind {kind_raw}"))?;
            events.push(FlightEvent {
                ts_ns,
                kind,
                rank: le(take(4)?) as u32,
                a: le(take(4)?) as u32,
                b: le(take(8)?),
                c: le(take(8)?),
            });
        }
        if !rest.is_empty() {
            return Err(format!("{} trailing bytes", rest.len()));
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
            out.push_str(&format!(
                "{:>14} ns  {:>4}  {:<17} {}\n",
                e.ts_ns,
                rank_label(e.rank),
                e.kind.label(),
                self.detail(e)
            ));
        }
        out
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

/// Write `bytes` to a temp file beside `path`, then rename it over
/// `path`. The temp name is this writer's own (`{pid}-{seq}.tmp`), so two
/// dumpers of one label never publish each other's half-written bytes.
fn write_atomic(path: &Path, bytes: &[u8]) -> Option<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("{}-{seq}.tmp", std::process::id()));
    if std::fs::write(&tmp, bytes).is_err() || std::fs::rename(&tmp, path).is_err() {
        let _ = std::fs::remove_file(&tmp);
        return None;
    }
    Some(())
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
    }

    /// Two laps of claims are handed out before anything is published,
    /// then the newer lap publishes first and the lapped writers come in
    /// late: the newer events must survive and the snapshot must be full.
    #[test]
    fn a_lapped_writer_does_not_overwrite_the_newer_event() {
        const CAP: u64 = 4;
        let ring = Ring::with_capacity(CAP as usize);
        let words = |claim: u64| [claim, FlightKind::Heartbeat as u64, claim, !claim];
        let claims: Vec<u64> = (0..2 * CAP).map(|_| ring.claim()).collect();
        assert_eq!(claims, (0..2 * CAP).collect::<Vec<_>>());
        for claim in (CAP..2 * CAP).chain(0..CAP) {
            ring.publish(claim, words(claim));
        }
        let kept: Vec<[u64; 3]> = ring.events().iter().map(|e| [e.ts_ns, e.b, e.c]).collect();
        let newer_lap: Vec<[u64; 3]> = (CAP..2 * CAP).map(|c| [c, c, !c]).collect();
        assert_eq!(kept, newer_lap);
    }

    /// Two writers keep replacing one path while a reader checks every
    /// read: each must be one writer's whole file, never a mix or a
    /// truncation.
    #[test]
    fn concurrent_writers_never_publish_a_torn_file() {
        const LEN: usize = 1 << 16;
        let dir = std::env::temp_dir().join(format!("qf-flight-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight-2.qfr");
        write_atomic(&path, &[b'a'; LEN]).unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let torn = std::thread::scope(|s| {
            for fill in [b'a', b'b'] {
                let (path, stop) = (&path, &stop);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        write_atomic(path, &[fill; LEN]);
                    }
                });
            }
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
            let mut torn = 0;
            while std::time::Instant::now() < deadline {
                let bytes = std::fs::read(&path).unwrap();
                let whole = bytes.len() == LEN && bytes.iter().all(|&b| b == bytes[0]);
                torn += usize::from(!whole);
            }
            stop.store(true, Ordering::Relaxed);
            torn
        });
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(torn, 0, "reads saw a torn file");
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
