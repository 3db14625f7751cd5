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
//! Each shard is exactly one [`PortableForest`] stream, with or without
//! payloads (self-describing, CRC32-terminated). The manifest is a
//! [`CheckpointManifest`] in the same envelope: the global shape plus
//! each shard's leaf count, byte length, and CRC, under its own trailing
//! CRC. Every file is written to a `.tmp` sibling and
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
use crate::io::{check_context, leaf_record, open, seal};
use crate::{Forest, IoError, PortableForest, SfcPosition};
use quadforest_comm::Comm;
use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::Quadrant;
use quadforest_telemetry as telemetry;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const MANIFEST_MAGIC: &[u8; 4] = b"QFMF";
/// Manifest version: the `Wire` body of [`CheckpointManifest`]. The
/// loader reads this version only.
const MANIFEST_VERSION: u32 = 2;
const MANIFEST_NAME: &str = "manifest.qfm";

/// The per-leaf payloads of a load, still `Wire`-encoded (`None` when
/// the checkpoint was saved without).
type Payload = Option<Vec<Vec<u8>>>;

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
    /// did not provide one.
    pub step: u64,
    /// Per-shard integrity records, indexed by saving rank.
    pub shards: Vec<ShardMeta>,
}

// The manifest's file body, and its wire form when recovery programs
// ship it between rank processes on the socket backend.
quadforest_core::wire!(struct ShardMeta { leaf_count, byte_len, crc });
quadforest_core::wire!(struct CheckpointManifest {
    generation, dim, num_trees, global_count, size, step, shards,
});

impl CheckpointManifest {
    fn to_bytes(&self) -> Vec<u8> {
        seal(MANIFEST_MAGIC, MANIFEST_VERSION, self)
    }

    /// Open and CRC-verify a manifest, then check that it lists one
    /// shard per saving rank whose leaf counts sum to the global count.
    /// Corrupt bytes return a typed [`IoError`], never panic.
    pub(crate) fn from_bytes(data: &[u8]) -> Result<Self, IoError> {
        let m: Self = open(MANIFEST_MAGIC, MANIFEST_VERSION, data)?;
        IoError::check_count("shard", m.shards.len() as u64, m.size)?;
        // checked sum: a hostile manifest must not overflow-panic here
        let total = m
            .shards
            .iter()
            .try_fold(0u64, |sum, s| sum.checked_add(s.leaf_count));
        if total != Some(m.global_count) {
            return Err(IoError::CountMismatch {
                what: "shard leaf",
                found: total.unwrap_or(u64::MAX),
                expected: m.global_count,
            });
        }
        Ok(m)
    }
}

/// Provenance of a restored checkpoint: which generation was elected
/// and the application `step` counter its manifest recorded.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// Generation the restore came from.
    pub generation: u64,
    /// Application progress counter saved with that generation (`0`
    /// for savers that passed none).
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

/// `local` on every rank when no rank failed, else the lowest failing
/// rank's error on every rank (collective).
fn agree<T>(comm: &Comm, local: Result<T, IoError>) -> Result<T, IoError> {
    let verdicts = comm.allgather(local.as_ref().err().cloned());
    verdicts.into_iter().flatten().next().map_or(local, Err)
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
    IoError::check_count("generation", manifest.generation, generation)?;
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
    /// carries a payload (the `Wire` encoding of each leaf's `T`), so
    /// [`Forest::load_checkpoint_with_data`] can restore solver state
    /// alongside the mesh. `step` is an application-defined
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
    /// `step` counter. Loading a generation saved without payloads
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
        let data = crate::LeafData::from_vec(&forest, agree(comm, decoded)?);
        Ok((forest, data, info))
    }

    /// Shared restore machinery: elect a generation, load mesh plus the
    /// raw (undecoded) payload section if one is present.
    fn load_checkpoint_raw(
        conn: Arc<Connectivity>,
        comm: &Comm,
        dir: &Path,
    ) -> Result<(Self, Payload, CheckpointInfo), IoError> {
        let _span = telemetry::span("restore");
        let start = Instant::now();

        // rank 0 verifies and elects a generation for everyone
        let root_pick = (comm.rank() == 0).then(|| pick_generation(dir));
        let (manifest, generation) = comm.bcast(0, root_pick)?;
        check_context::<Q>(manifest.dim, manifest.num_trees, &conn)?;
        let gen_dir = generation_dir(dir, generation);

        let loaded = if manifest.size == comm.size() as u64 {
            Self::load_own_shard(conn, comm, &gen_dir)
        } else {
            Self::load_repartitioned(conn, comm, &gen_dir, &manifest)
        };

        // one rank's read failure fails the load everywhere instead of
        // leaving survivors mid-collective
        let (forest, payload) = agree(comm, loaded)?;

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
    fn load_own_shard(
        conn: Arc<Connectivity>,
        comm: &Comm,
        gen_dir: &Path,
    ) -> Result<(Self, Payload), IoError> {
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
    fn load_repartitioned(
        conn: Arc<Connectivity>,
        comm: &Comm,
        gen_dir: &Path,
        manifest: &CheckpointManifest,
    ) -> Result<(Self, Payload), IoError> {
        let (rank, size) = (comm.rank(), comm.size());
        let n = manifest.global_count;
        let local = Self::read_slice(&conn, comm, gen_dir, manifest);

        // The marker allgather runs on EVERY rank and carries each
        // rank's read outcome: one rank's failed read fails every rank
        // with that error, not the survivors with a marker gap it left.
        let my_first = local.as_ref().map(|(_, first, _)| *first);
        let firsts = comm.allgather(my_first.map_err(IoError::clone));
        let firsts = firsts.into_iter().collect::<Result<Vec<_>, _>>()?;
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
    ) -> Result<(Vec<Vec<Q>>, Option<SfcPosition>, Payload), IoError> {
        let (rank, size) = (comm.rank(), comm.size());
        let n = manifest.global_count;
        let lo = n * rank as u64 / size as u64;
        let hi = n * (rank as u64 + 1) / size as u64;

        // global leaf-index offset of each shard
        let mut offset = 0u64;
        let mut trees: Vec<Vec<Q>> = vec![Vec::new(); conn.num_trees()];
        let mut first_pos: Option<SfcPosition> = None;
        let mut payload: Payload = Some(Vec::new());
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
            IoError::check_count("shard leaf", portable.leaves.len() as u64, meta.leaf_count)?;
            // my slice of this shard, in global SFC (tree-major) order
            let from = lo.saturating_sub(shard_lo) as usize;
            let to = (hi.min(shard_hi) - shard_lo) as usize;
            for record in &portable.leaves[from..to] {
                let q: Q = leaf_record(trees.len(), record)?;
                if first_pos.is_none() {
                    first_pos = Some((record.0, q.morton_abs()));
                }
                trees[record.0 as usize].push(q);
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
    /// serializing to the same streams (length and body CRC-32; the
    /// manifest's captured at commit 364c53b, the QFOR v4 streams when
    /// they replaced v2 and v3, which they equal plus one `Option` tag
    /// byte before the guard).
    #[test]
    fn stream_formats_match_golden_bytes() {
        use quadforest_core::quadrant::Morton2;
        let (mesh, with_payload) = quadforest_comm::run(1, |comm| {
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
            (
                "QFOR v4 mesh",
                &mesh,
                b"QFOR\x04\0\0\0",
                200,
                0xB596_E1CCu32,
            ),
            (
                "QFOR v4 payload",
                &with_payload,
                b"QFOR\x04\0\0\0",
                320,
                0x3E22_701D,
            ),
            ("QFMF v2", &manifest, b"QFMF\x02\0\0\0", 84, 0xBB34_D13A),
        ] {
            assert_eq!(stream.len(), len, "{name} length");
            assert_eq!(&stream[..8], head, "{name} magic and version");
            let (body, guard) = stream.split_at(len - 4);
            assert_eq!(crc32(body), body_crc, "{name} body");
            assert_eq!(guard, body_crc.to_le_bytes(), "{name} trailing guard");
        }
    }

    /// A CRC-valid shard holding a leaf record that is no quadrant — a
    /// coordinate below zero, past the root, or off its level's grid —
    /// fails the load with `CorruptLeaf` in every representation, at
    /// `P_load = P_save` and repartitioned, and never panics.
    #[test]
    fn hostile_leaf_records_are_corrupt_leaves() {
        use quadforest_core::quadrant::{AvxQuad, MortonQuad, StandardQuad};
        fn load<Q: Quadrant>(dir: &Path, p: usize) -> Vec<Result<(), IoError>> {
            quadforest_comm::run(p, |comm| {
                let conn = Arc::new(Connectivity::unit(2));
                Forest::<Q>::load_checkpoint(conn, &comm, dir).map(|_| ())
            })
        }
        let dir = std::env::temp_dir().join(format!("qf-hostile-leaf-{}", std::process::id()));
        for coords in [[-1, 0, 0], [1 << 30, 0, 0], [1, 0, 0]] {
            let _ = std::fs::remove_dir_all(&dir);
            quadforest_comm::run(2, |comm| {
                let conn = Arc::new(Connectivity::unit(2));
                let f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, 2);
                f.save_checkpoint(&comm, &dir).unwrap();
            });
            // rank 1's first leaf takes the hostile coordinates; shard and
            // manifest are re-sealed, so only the record itself is wrong
            let gen_dir = generation_dir(&dir, 1);
            let spath = shard_path(&gen_dir, 1);
            let mut shard = PortableForest::from_bytes(&std::fs::read(&spath).unwrap()).unwrap();
            shard.leaves[0].1 = coords;
            let bytes = shard.to_bytes();
            std::fs::write(&spath, &bytes).unwrap();
            let mpath = gen_dir.join(MANIFEST_NAME);
            let mut manifest =
                CheckpointManifest::from_bytes(&std::fs::read(&mpath).unwrap()).unwrap();
            manifest.shards[1].crc = crc32(&bytes);
            std::fs::write(&mpath, manifest.to_bytes()).unwrap();
            for p in [2, 1, 3] {
                let outcomes = [
                    load::<StandardQuad<2>>(&dir, p),
                    load::<MortonQuad<2>>(&dir, p),
                    load::<AvxQuad<2>>(&dir, p),
                ];
                for outcome in outcomes.into_iter().flatten() {
                    assert!(
                        matches!(outcome, Err(IoError::CorruptLeaf { coords: c, .. }) if c == coords),
                        "{coords:?} at P = {p}: {outcome:?}"
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
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
