//! Crash-consistent on-disk checkpoints: generations of per-rank shards
//! plus a manifest, every file CRC32-guarded and written atomically.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/
//!   gen-00000001/
//!     shard-00000.qfs     one per saving rank: a PortableForest stream
//!     shard-00001.qfs
//!     manifest.qfm        written LAST — its presence commits the generation
//!   gen-00000002/
//!     ...
//! ```
//!
//! Each shard is exactly the version-2 [`PortableForest`] byte stream
//! (self-describing, CRC32-terminated). The manifest records the global
//! shape plus each shard's leaf count, byte length, and CRC, and carries
//! its own trailing CRC. Every file is written to a `.tmp` sibling and
//! `rename`d into place, and the manifest is written only after every
//! shard is durably named — so a generation directory without a valid
//! manifest is, by construction, an aborted save and is skipped.
//!
//! ## Restore semantics
//!
//! [`Forest::load_checkpoint`] walks generations newest-first and picks
//! the first one whose manifest AND all shards verify (length + CRC);
//! corrupted generations are skipped (counted in
//! `forest.checkpoint.fallbacks`) rather than trusted. The chosen
//! checkpoint loads into **any** quadrant representation and **any**
//! communicator size: when the rank count matches the save, each rank
//! reads back its own shard (exact markers restored); otherwise leaves
//! are re-sliced along the SFC into `P_load` equal ranges and the
//! partition markers rebuilt — repartition-on-load, the property the
//! restartable-campaign workflow in Isaac et al. relies on.

use crate::crc32;
use crate::io::Cursor;
use crate::{Forest, IoError, PortableForest, SfcPosition};
use quadforest_comm::Comm;
use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::Quadrant;
use quadforest_core::Wire;
use quadforest_telemetry as telemetry;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const MANIFEST_MAGIC: &[u8; 4] = b"QFMF";
/// Manifest version written. Version 2 added the application `step`
/// field; version-1 manifests (no step) still load with `step = 0`.
const MANIFEST_VERSION: u32 = 2;
/// Oldest manifest version still accepted on load.
const MANIFEST_MIN_VERSION: u32 = 1;
const MANIFEST_NAME: &str = "manifest.qfm";
/// Bytes per serialized shard record in the manifest.
const SHARD_RECORD_BYTES: usize = 20;

/// Integrity metadata for one checkpoint shard, as recorded in the
/// manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMeta {
    /// Leaves stored in the shard.
    pub leaf_count: u64,
    /// Exact shard file length in bytes.
    pub byte_len: u64,
    /// CRC32 of the whole shard file.
    pub crc: u32,
}

/// The committed description of one checkpoint generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointManifest {
    /// Generation number (monotone per checkpoint directory).
    pub generation: u64,
    /// Spatial dimension of the saved forest.
    pub dim: u32,
    /// Tree count of the connectivity the forest was built over.
    pub num_trees: u64,
    /// Global leaf count at save time.
    pub global_count: u64,
    /// Communicator size at save time (`P_save` = shard count).
    pub size: u64,
    /// Application-defined progress counter recorded with the
    /// generation (e.g. a solver's time-step count). Authoritative on
    /// restore — generation numbers may skip after aborted saves, so
    /// progress must never be inferred from them. `0` when the saver
    /// did not provide one (including all version-1 manifests).
    pub step: u64,
    /// Per-shard integrity records, indexed by saving rank.
    pub shards: Vec<ShardMeta>,
}

impl CheckpointManifest {
    fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(52 + self.shards.len() * SHARD_RECORD_BYTES + 4);
        b.extend_from_slice(MANIFEST_MAGIC);
        MANIFEST_VERSION.encode(&mut b);
        self.generation.encode(&mut b);
        self.dim.encode(&mut b);
        self.num_trees.encode(&mut b);
        self.global_count.encode(&mut b);
        self.size.encode(&mut b);
        self.step.encode(&mut b);
        (self.shards.len() as u64).encode(&mut b);
        for s in &self.shards {
            s.leaf_count.encode(&mut b);
            s.byte_len.encode(&mut b);
            s.crc.encode(&mut b);
        }
        crc32(&b).encode(&mut b);
        b
    }

    /// Parse and CRC-verify a manifest. Corrupt bytes return a typed
    /// [`IoError`], never panic.
    pub(crate) fn from_bytes(data: &[u8]) -> Result<Self, IoError> {
        let mut cur = Cursor(data);
        cur.need(8)?;
        let magic: [u8; 4] = cur.array()?;
        if &magic != MANIFEST_MAGIC {
            return Err(IoError::BadMagic { found: magic });
        }
        let version = cur.u32()?;
        if !(MANIFEST_MIN_VERSION..=MANIFEST_VERSION).contains(&version) {
            return Err(IoError::UnsupportedVersion {
                found: version,
                supported: MANIFEST_VERSION,
            });
        }
        if data.len() < 12 {
            return Err(IoError::Truncated {
                needed: 12,
                remaining: data.len(),
            });
        }
        let body = &data[..data.len() - 4];
        let stored = u32::from_le_bytes(data[data.len() - 4..].try_into().expect("4 bytes"));
        let computed = crc32(body);
        if stored != computed {
            return Err(IoError::ChecksumMismatch { stored, computed });
        }
        cur.0 = &body[8..];
        let generation = cur.u64()?;
        let dim = cur.u32()?;
        let num_trees = cur.u64()?;
        let global_count = cur.u64()?;
        let size = cur.u64()?;
        let step = if version >= 2 { cur.u64()? } else { 0 };
        let n_shards = cur.count("shard", SHARD_RECORD_BYTES)?;
        if n_shards as u64 != size {
            return Err(IoError::CountMismatch {
                what: "shard",
                found: n_shards as u64,
                expected: size,
            });
        }
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            shards.push(ShardMeta {
                leaf_count: cur.u64()?,
                byte_len: cur.u64()?,
                crc: cur.u32()?,
            });
        }
        if !cur.0.is_empty() {
            return Err(IoError::CountMismatch {
                what: "trailing byte",
                found: cur.0.len() as u64,
                expected: 0,
            });
        }
        // checked sum: a hostile manifest must not overflow-panic here
        let mut total = 0u64;
        for s in &shards {
            total = total
                .checked_add(s.leaf_count)
                .filter(|t| *t <= global_count)
                .ok_or(IoError::CountMismatch {
                    what: "shard leaf",
                    found: s.leaf_count,
                    expected: global_count,
                })?;
        }
        if total != global_count {
            return Err(IoError::CountMismatch {
                what: "shard leaf",
                found: total,
                expected: global_count,
            });
        }
        Ok(Self {
            generation,
            dim,
            num_trees,
            global_count,
            size,
            step,
            shards,
        })
    }
}

/// Provenance of a restored checkpoint: which generation was elected
/// and the application `step` counter its manifest recorded.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// Generation the restore came from.
    pub generation: u64,
    /// Application progress counter saved with that generation (`0`
    /// for version-1 manifests and savers that passed none).
    pub step: u64,
}

fn generation_dir(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("gen-{generation:08}"))
}

fn shard_path(gen_dir: &Path, rank: usize) -> PathBuf {
    gen_dir.join(format!("shard-{rank:05}.qfs"))
}

/// Write `bytes` to `path` atomically: write a `.tmp` sibling, then
/// `rename` into place. A crash mid-write leaves only the tmp file,
/// which no reader ever looks at.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), IoError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes).map_err(|e| IoError::storage(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| IoError::storage(path, e))?;
    Ok(())
}

/// Generation numbers present under `dir` (committed or not), ascending.
/// A missing directory is an empty list, not an error.
pub(crate) fn list_generations(dir: impl AsRef<Path>) -> Vec<u64> {
    let mut gens: Vec<u64> = match std::fs::read_dir(dir.as_ref()) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                e.file_name()
                    .to_str()
                    .and_then(|n| n.strip_prefix("gen-"))
                    .and_then(|n| n.parse().ok())
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    gens.sort_unstable();
    gens.dedup();
    gens
}

/// Rank 0: allocate the next generation number and create its directory.
fn prepare_generation(dir: &Path) -> Result<u64, IoError> {
    std::fs::create_dir_all(dir).map_err(|e| IoError::storage(dir, e))?;
    let generation = list_generations(dir).last().copied().unwrap_or(0) + 1;
    let gen_dir = generation_dir(dir, generation);
    std::fs::create_dir_all(&gen_dir).map_err(|e| IoError::storage(&gen_dir, e))?;
    Ok(generation)
}

/// Rank 0: walk generations newest-first and return the newest one whose
/// manifest and every shard pass verification. Invalid generations are
/// skipped and counted in `forest.checkpoint.fallbacks`.
fn pick_generation(dir: &Path) -> Result<(CheckpointManifest, u64), IoError> {
    let mut last_err = None;
    for generation in list_generations(dir).into_iter().rev() {
        match verify_generation(dir, generation) {
            Ok(manifest) => return Ok((manifest, generation)),
            Err(e) => {
                telemetry::counter_add("forest.checkpoint.fallbacks", 1);
                last_err = Some(e);
            }
        }
    }
    // surface the newest generation's failure when everything is bad —
    // more actionable than a bare "nothing found"
    Err(last_err.unwrap_or(IoError::NoCheckpoint {
        dir: dir.display().to_string(),
    }))
}

/// Verify one generation end-to-end: manifest parse + CRC, then every
/// shard's length and CRC against the manifest.
fn verify_generation(dir: &Path, generation: u64) -> Result<CheckpointManifest, IoError> {
    let gen_dir = generation_dir(dir, generation);
    let mpath = gen_dir.join(MANIFEST_NAME);
    let mbytes = std::fs::read(&mpath).map_err(|e| IoError::storage(&mpath, e))?;
    let manifest = CheckpointManifest::from_bytes(&mbytes)?;
    if manifest.generation != generation {
        return Err(IoError::CountMismatch {
            what: "generation",
            found: manifest.generation,
            expected: generation,
        });
    }
    for (rank, meta) in manifest.shards.iter().enumerate() {
        let spath = shard_path(&gen_dir, rank);
        let sbytes = std::fs::read(&spath).map_err(|e| IoError::storage(&spath, e))?;
        if sbytes.len() as u64 != meta.byte_len {
            return Err(IoError::Truncated {
                needed: meta.byte_len as usize,
                remaining: sbytes.len(),
            });
        }
        let computed = crc32(&sbytes);
        if computed != meta.crc {
            return Err(IoError::ChecksumMismatch {
                stored: meta.crc,
                computed,
            });
        }
    }
    Ok(manifest)
}

impl<Q: Quadrant> Forest<Q> {
    /// Save a new checkpoint generation under `dir` (collective).
    ///
    /// Every rank writes its partition as one shard; rank 0 commits the
    /// generation by writing the manifest last. All files go through
    /// temp-file + rename, so a crash at any point leaves either a fully
    /// committed generation or one that restore skips. Returns the new
    /// generation number on every rank, or the first error any rank hit.
    pub fn save_checkpoint(&self, comm: &Comm, dir: impl AsRef<Path>) -> Result<u64, IoError> {
        self.save_checkpoint_bytes(comm, dir.as_ref(), self.to_portable().to_bytes(), 0)
    }

    /// [`Forest::save_checkpoint`] with per-leaf payloads: every shard
    /// carries a version-3 payload section (the `Wire` encoding of each
    /// leaf's `T`), so [`Forest::load_checkpoint_with_data`] can restore
    /// solver state alongside the mesh. `step` is an application-defined
    /// progress counter (e.g. the solver's time-step count) committed in
    /// the manifest and handed back on restore — generation numbers may
    /// skip after aborted saves, so restart logic must read progress
    /// from here, never infer it from the generation. Collective.
    pub fn save_checkpoint_with_data<T: quadforest_core::Wire>(
        &self,
        comm: &Comm,
        dir: impl AsRef<Path>,
        data: &crate::LeafData<T>,
        step: u64,
    ) -> Result<u64, IoError> {
        self.save_checkpoint_bytes(
            comm,
            dir.as_ref(),
            self.to_portable_with_data(data).to_bytes(),
            step,
        )
    }

    /// Shared checkpoint-save machinery over an already-serialized
    /// shard stream.
    fn save_checkpoint_bytes(
        &self,
        comm: &Comm,
        dir: &Path,
        bytes: Vec<u8>,
        step: u64,
    ) -> Result<u64, IoError> {
        let _span = telemetry::span("checkpoint");
        let start = Instant::now();

        // rank 0 allocates the generation and creates its directory
        let root_prep = (comm.rank() == 0).then(|| prepare_generation(dir));
        let generation = comm.bcast(0, root_prep)?;
        let gen_dir = generation_dir(dir, generation);

        // every rank writes its own shard atomically
        let written =
            write_atomic(&shard_path(&gen_dir, comm.rank()), &bytes).map(|()| ShardMeta {
                leaf_count: self.local_count() as u64,
                byte_len: bytes.len() as u64,
                crc: crc32(&bytes),
            });

        // rank 0 collects shard metadata and commits the manifest LAST;
        // any rank's write failure aborts the commit
        let gathered = comm.gather(0, written);
        let root_commit = gathered.map(|metas| {
            metas
                .into_iter()
                .collect::<Result<Vec<ShardMeta>, IoError>>()
                .and_then(|shards| {
                    let manifest = CheckpointManifest {
                        generation,
                        dim: Q::DIM,
                        num_trees: self.connectivity().num_trees() as u64,
                        global_count: self.global_count(),
                        size: comm.size() as u64,
                        step,
                        shards,
                    };
                    write_atomic(&gen_dir.join(MANIFEST_NAME), &manifest.to_bytes())
                })
        });
        let outcome = comm.bcast(0, root_commit);

        telemetry::histogram_record("forest.checkpoint.bytes", bytes.len() as u64);
        telemetry::histogram_record(
            "forest.checkpoint.write_ns",
            start.elapsed().as_nanos() as u64,
        );
        telemetry::counter_add("forest.checkpoint.saves", 1);
        outcome.map(|()| generation)
    }

    /// Restore the newest valid checkpoint under `dir` (collective).
    ///
    /// Generations whose manifest or shards fail CRC/length verification
    /// are skipped in favour of older ones. The saved stream loads into
    /// any quadrant representation; when the communicator size differs
    /// from `P_save`, leaves are repartitioned into equal SFC ranges and
    /// markers rebuilt. Returns the forest and the generation it came
    /// from; errors are agreed collectively, so every rank returns the
    /// same `Err` rather than some ranks proceeding with a ghost forest.
    pub fn load_checkpoint(
        conn: Arc<Connectivity>,
        comm: &Comm,
        dir: impl AsRef<Path>,
    ) -> Result<(Self, u64), IoError> {
        let (forest, _payload, info) = Self::load_checkpoint_raw(conn, comm, dir.as_ref())?;
        Ok((forest, info.generation))
    }

    /// [`Forest::load_checkpoint`] that also restores per-leaf payloads
    /// saved by [`Forest::save_checkpoint_with_data`]. The payload
    /// section is re-sliced across rank counts exactly like the leaves,
    /// so `P_load` may differ from `P_save`. The returned
    /// [`CheckpointInfo`] carries the elected generation and the saver's
    /// `step` counter. Loading a payload-less (version-2) generation
    /// fails with [`IoError::MissingPayload`]; a payload that does not
    /// decode as `T` fails with [`IoError::PayloadCorrupt`]. Collective.
    pub fn load_checkpoint_with_data<T: quadforest_core::Wire>(
        conn: Arc<Connectivity>,
        comm: &Comm,
        dir: impl AsRef<Path>,
    ) -> Result<(Self, crate::LeafData<T>, CheckpointInfo), IoError> {
        let (forest, payload, info) = Self::load_checkpoint_raw(conn, comm, dir.as_ref())?;
        // decode locally, then agree on the outcome so one rank's
        // corrupt payload fails the load everywhere
        let decoded = payload.ok_or(IoError::MissingPayload).and_then(|items| {
            items
                .iter()
                .enumerate()
                .map(|(i, raw)| {
                    T::from_wire(raw).map_err(|e| IoError::PayloadCorrupt {
                        leaf: i as u64,
                        detail: e.to_string(),
                    })
                })
                .collect::<Result<Vec<T>, IoError>>()
        });
        let verdicts = comm.allgather(decoded.as_ref().err().cloned());
        if let Some(e) = verdicts.into_iter().flatten().next() {
            return Err(e);
        }
        let items = decoded.expect("no rank reported an error");
        let data = crate::LeafData::from_vec(&forest, items);
        Ok((forest, data, info))
    }

    /// Shared restore machinery: elect a generation, load mesh plus the
    /// raw (undecoded) payload section if one is present.
    #[allow(clippy::type_complexity)]
    fn load_checkpoint_raw(
        conn: Arc<Connectivity>,
        comm: &Comm,
        dir: &Path,
    ) -> Result<(Self, Option<Vec<Vec<u8>>>, CheckpointInfo), IoError> {
        let _span = telemetry::span("restore");
        let start = Instant::now();

        // rank 0 verifies and elects a generation for everyone
        let root_pick = (comm.rank() == 0).then(|| pick_generation(dir));
        let (manifest, generation) = comm.bcast(0, root_pick)?;
        if manifest.dim != Q::DIM {
            return Err(IoError::DimensionMismatch {
                stream: manifest.dim,
                representation: Q::DIM,
            });
        }
        if manifest.num_trees != conn.num_trees() as u64 {
            return Err(IoError::TreeCountMismatch {
                stream: manifest.num_trees,
                connectivity: conn.num_trees() as u64,
            });
        }
        let gen_dir = generation_dir(dir, generation);

        let loaded = if manifest.size == comm.size() as u64 {
            Self::load_own_shard(conn, comm, &gen_dir)
        } else {
            Self::load_repartitioned(conn, comm, &gen_dir, &manifest)
        };

        // agree on the outcome: one rank's read failure fails the load
        // everywhere instead of leaving survivors mid-collective
        let verdicts = comm.allgather(loaded.as_ref().err().cloned());
        if let Some(e) = verdicts.into_iter().flatten().next() {
            return Err(e);
        }
        let (forest, payload) = loaded.expect("no rank reported an error");

        telemetry::histogram_record("forest.restore.ns", start.elapsed().as_nanos() as u64);
        telemetry::counter_add("forest.checkpoint.restores", 1);
        telemetry::gauge_set("forest.local_leaves", forest.local_count() as u64);
        Ok((
            forest,
            payload,
            CheckpointInfo {
                generation,
                step: manifest.step,
            },
        ))
    }

    /// Fast path: `P_load == P_save` — read back exactly the shard this
    /// rank saved, markers, payload and all.
    #[allow(clippy::type_complexity)]
    fn load_own_shard(
        conn: Arc<Connectivity>,
        comm: &Comm,
        gen_dir: &Path,
    ) -> Result<(Self, Option<Vec<Vec<u8>>>), IoError> {
        let spath = shard_path(gen_dir, comm.rank());
        let bytes = std::fs::read(&spath).map_err(|e| IoError::storage(&spath, e))?;
        telemetry::histogram_record("forest.restore.bytes", bytes.len() as u64);
        let mut portable = PortableForest::from_bytes(&bytes)?;
        let payload = portable.payload.take();
        Ok((Self::from_portable(conn, comm, &portable)?, payload))
    }

    /// Slow path: `P_load != P_save` — slice the global SFC leaf
    /// sequence into `P_load` equal ranges, read only the overlapping
    /// shards, and rebuild the partition markers from scratch.
    #[allow(clippy::type_complexity)]
    fn load_repartitioned(
        conn: Arc<Connectivity>,
        comm: &Comm,
        gen_dir: &Path,
        manifest: &CheckpointManifest,
    ) -> Result<(Self, Option<Vec<Vec<u8>>>), IoError> {
        let (rank, size) = (comm.rank(), comm.size());
        let n = manifest.global_count;
        let local = Self::read_slice(&conn, comm, gen_dir, manifest);

        // The marker allgather must run on EVERY rank, even one whose
        // local reads failed — otherwise survivors would pair this
        // collective with the failed rank's verdict exchange.
        let my_first = local.as_ref().ok().and_then(|(_, first, _)| *first);
        let firsts = comm.allgather(my_first);
        let (trees, _, payload) = local?;

        // rebuild markers exactly as partition() does
        let markers = Self::markers_from_firsts(trees.len(), &firsts, n);
        let f = Self::assemble(conn, rank, size, trees, n, markers);
        f.validate()?;
        Ok((f, payload))
    }

    /// Read this rank's equal-share SFC slice `[N·r/P, N·(r+1)/P)` out
    /// of the overlapping shards. Purely local; returns the per-tree
    /// leaf arrays, the first leaf's global position, and the matching
    /// payload slice (`None` when any overlapping shard is
    /// payload-less).
    #[allow(clippy::type_complexity)]
    fn read_slice(
        conn: &Arc<Connectivity>,
        comm: &Comm,
        gen_dir: &Path,
        manifest: &CheckpointManifest,
    ) -> Result<(Vec<Vec<Q>>, Option<SfcPosition>, Option<Vec<Vec<u8>>>), IoError> {
        let (rank, size) = (comm.rank(), comm.size());
        let n = manifest.global_count;
        let lo = n * rank as u64 / size as u64;
        let hi = n * (rank as u64 + 1) / size as u64;

        // global leaf-index offset of each shard
        let mut offset = 0u64;
        let mut trees: Vec<Vec<Q>> = vec![Vec::new(); conn.num_trees()];
        let mut first_pos: Option<SfcPosition> = None;
        let mut payload: Option<Vec<Vec<u8>>> = Some(Vec::new());
        for (shard_rank, meta) in manifest.shards.iter().enumerate() {
            let (shard_lo, shard_hi) = (offset, offset + meta.leaf_count);
            offset = shard_hi;
            if shard_hi <= lo || shard_lo >= hi {
                continue;
            }
            let spath = shard_path(gen_dir, shard_rank);
            let bytes = std::fs::read(&spath).map_err(|e| IoError::storage(&spath, e))?;
            telemetry::histogram_record("forest.restore.bytes", bytes.len() as u64);
            let portable = PortableForest::from_bytes(&bytes)?;
            if portable.leaves.len() as u64 != meta.leaf_count {
                return Err(IoError::CountMismatch {
                    what: "shard leaf",
                    found: portable.leaves.len() as u64,
                    expected: meta.leaf_count,
                });
            }
            // my slice of this shard, in global SFC (tree-major) order
            let from = lo.saturating_sub(shard_lo) as usize;
            let to = (hi.min(shard_hi) - shard_lo) as usize;
            for &(t, c, l) in &portable.leaves[from..to] {
                if t as usize >= trees.len() || l > Q::MAX_LEVEL {
                    return Err(IoError::CorruptLeaf {
                        tree: t,
                        coords: c,
                        level: l,
                    });
                }
                let q = Q::from_coords(c, l);
                if first_pos.is_none() {
                    first_pos = Some((t, q.morton_abs()));
                }
                trees[t as usize].push(q);
            }
            // payloads ride the exact same slice cuts as their leaves;
            // one payload-less shard makes the whole restore payload-less
            match (&mut payload, portable.payload) {
                (Some(acc), Some(items)) => acc.extend_from_slice(&items[from..to]),
                _ => payload = None,
            }
        }
        Ok((trees, first_pos, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrip_and_corruption() {
        let m = CheckpointManifest {
            generation: 7,
            dim: 2,
            num_trees: 3,
            global_count: 30,
            size: 2,
            step: 40,
            shards: vec![
                ShardMeta {
                    leaf_count: 12,
                    byte_len: 260,
                    crc: 0xDEAD_BEEF,
                },
                ShardMeta {
                    leaf_count: 18,
                    byte_len: 362,
                    crc: 0x1234_5678,
                },
            ],
        };
        let bytes = m.to_bytes();
        assert_eq!(CheckpointManifest::from_bytes(&bytes).unwrap(), m);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(
                CheckpointManifest::from_bytes(&bad).is_err(),
                "flip at byte {i} must be rejected"
            );
        }
        assert!(matches!(
            CheckpointManifest::from_bytes(&bytes[..10]),
            Err(IoError::Truncated { .. })
        ));
    }

    #[test]
    fn version1_manifest_loads_with_step_zero() {
        // hand-rolled version-1 layout: no step field after `size`
        let mut b = MANIFEST_MAGIC.to_vec();
        1u32.encode(&mut b); // version 1
        3u64.encode(&mut b); // generation
        2u32.encode(&mut b); // dim
        1u64.encode(&mut b); // num_trees
        12u64.encode(&mut b); // global_count
        1u64.encode(&mut b); // size
        1u64.encode(&mut b); // n_shards
        12u64.encode(&mut b); // leaf_count
        300u64.encode(&mut b); // byte_len
        0xFEED_F00Du32.encode(&mut b); // shard crc
        crc32(&b).encode(&mut b);
        let m = CheckpointManifest::from_bytes(&b).unwrap();
        assert_eq!(m.generation, 3);
        assert_eq!(m.step, 0, "v1 manifests carry no step");
        assert_eq!(m.shards.len(), 1);
    }

    #[test]
    fn manifest_rejects_leaf_count_drift() {
        let m = CheckpointManifest {
            generation: 1,
            dim: 2,
            num_trees: 1,
            global_count: 99, // != 12 + 18
            size: 2,
            step: 0,
            shards: vec![
                ShardMeta {
                    leaf_count: 12,
                    byte_len: 1,
                    crc: 0,
                },
                ShardMeta {
                    leaf_count: 18,
                    byte_len: 1,
                    crc: 0,
                },
            ],
        };
        assert!(matches!(
            CheckpointManifest::from_bytes(&m.to_bytes()),
            Err(IoError::CountMismatch {
                what: "shard leaf",
                ..
            })
        ));
    }

    /// The on-disk formats are frozen: the same small forest must keep
    /// serializing to the streams the `bytes`-based writers produced
    /// (length and body CRC-32 captured at commit 364c53b).
    #[test]
    fn stream_formats_match_golden_bytes() {
        use quadforest_core::quadrant::Morton2;
        let (v2, v3) = quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Morton2>::new_uniform(conn, &comm, 1);
            f.refine(&comm, false, |_, q| q.morton_index() == 3);
            let data = crate::LeafData::init(&f, |_, q| q.morton_abs());
            (
                f.to_portable().to_bytes(),
                f.to_portable_with_data(&data).to_bytes(),
            )
        })
        .pop()
        .unwrap();
        let manifest = CheckpointManifest {
            generation: 5,
            dim: 2,
            num_trees: 1,
            global_count: 7,
            size: 1,
            step: 9,
            shards: vec![ShardMeta {
                leaf_count: 7,
                byte_len: 319,
                crc: 0x2144_DF1C,
            }],
        }
        .to_bytes();
        for (name, stream, head, len, body_crc) in [
            ("QFOR v2", &v2, b"QFOR\x02\0\0\0", 199, 0xE574_F250u32),
            ("QFOR v3", &v3, b"QFOR\x03\0\0\0", 319, 0x3FD8_0789),
            ("QFMF v2", &manifest, b"QFMF\x02\0\0\0", 84, 0xBB34_D13A),
        ] {
            assert_eq!(stream.len(), len, "{name} length");
            assert_eq!(&stream[..8], head, "{name} magic and version");
            let (body, guard) = stream.split_at(len - 4);
            assert_eq!(crc32(body), body_crc, "{name} body");
            assert_eq!(guard, body_crc.to_le_bytes(), "{name} trailing guard");
        }
    }

    #[test]
    fn list_generations_handles_noise() {
        let dir = std::env::temp_dir().join(format!("qf-gen-list-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(list_generations(&dir).is_empty(), "missing dir is empty");
        for name in ["gen-00000002", "gen-00000010", "not-a-gen", "gen-bogus"] {
            std::fs::create_dir_all(dir.join(name)).unwrap();
        }
        assert_eq!(list_generations(&dir), vec![2, 10]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// Wire encodings so recovery programs can ship manifests between rank
// processes on the socket backend (the manifest's own on-disk format
// above stays the CRC-framed layout, unchanged).

impl quadforest_core::Wire for ShardMeta {
    fn encode(&self, out: &mut Vec<u8>) {
        self.leaf_count.encode(out);
        self.byte_len.encode(out);
        self.crc.encode(out);
    }

    fn decode(
        r: &mut quadforest_core::wire::WireReader<'_>,
    ) -> Result<Self, quadforest_core::wire::WireError> {
        Ok(ShardMeta {
            leaf_count: u64::decode(r)?,
            byte_len: u64::decode(r)?,
            crc: u32::decode(r)?,
        })
    }
}

impl quadforest_core::Wire for CheckpointManifest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.generation.encode(out);
        self.dim.encode(out);
        self.num_trees.encode(out);
        self.global_count.encode(out);
        self.size.encode(out);
        self.step.encode(out);
        self.shards.encode(out);
    }

    fn decode(
        r: &mut quadforest_core::wire::WireReader<'_>,
    ) -> Result<Self, quadforest_core::wire::WireError> {
        Ok(CheckpointManifest {
            generation: u64::decode(r)?,
            dim: u32::decode(r)?,
            num_trees: u64::decode(r)?,
            global_count: u64::decode(r)?,
            size: u64::decode(r)?,
            step: u64::decode(r)?,
            shards: Vec::<ShardMeta>::decode(r)?,
        })
    }
}
