//! Patch-based donor-cell advection on the data-bearing AMR forest.
//!
//! Each leaf carries an `N × N` [`Patch`] of cell averages; a constant
//! velocity field transports the solution with first-order upwind
//! (donor-cell) fluxes. Fluxes inside a patch are plain neighbor
//! differences; fluxes across leaf interfaces are computed at the finer
//! side's granularity from [`PatchHalo`] edge strips shipped through
//! ghost exchange, so hanging (2:1) faces are handled conservatively:
//! every fine face segment transfers mass equal-and-opposite between
//! the two leaves that share it.
//!
//! The interfaces are compiled once per mesh change into a flat *flux
//! plan*: one entry per face pair the walk emits (one per fine face
//! segment with a local side), resolved to flat indices — both sides'
//! slots in the step's strip array, each segment's donor strip entry and
//! target cells — and carrying the segment geometry. A step is then two
//! flat passes: one dispatched kernel over every local patch
//! ([`batch::donor_cell_8x8_all`]), which snapshots the patch's edge
//! strips and updates its cells in place, then, after the halo exchange
//! of the strips, one linear pass over the plan that reads them. It never
//! walks the mesh.
//!
//! Cross-rank determinism: a rank updates only its *local* side of an
//! interface, but both ranks compute the shared per-segment mass
//! transfer from bitwise-identical inputs (halo strips are exact copies
//! of remote cell values), so the two half-updates are exactly
//! equal-and-opposite and global mass is conserved to machine
//! precision. The plan is sorted by an owner-independent key (the fine
//! side's `(tree, morton_abs, level)`, then its face), so every cell
//! adds its interface contributions in the same order whatever the
//! partition: the state after a step is the same bits at any rank
//! count.
//!
//! Geometry assumption: interface flux alignment uses raw quadrant
//! coordinates along the tangential axis, which is valid for
//! connectivities whose face transforms are axis-aligned identities —
//! the unit square, fully periodic domains, and brick arrangements.
//! Rotated inter-tree transforms would need a coordinate mapping here.

use std::sync::Arc;

use quadforest_comm::Comm;
use quadforest_connectivity::{Connectivity, TreeId};
use quadforest_core::batch;
use quadforest_core::quadrant::Quadrant;
use quadforest_forest::{
    crc32, iterate_faces, BalanceKind, FaceSide, Forest, GhostLayer, Interface, IoError, LeafData,
    LeafRef,
};
use quadforest_telemetry as telemetry;

use crate::patch::{Patch, PatchHalo, PatchMapper, HALO_WIRE_BYTES, PATCH_N, PATCH_WIRE_BYTES};

/// Adaptation thresholds: refine a leaf whose patch exceeds
/// `refine_above`, coarsen a family whose patches all stay below
/// `coarsen_below`.
#[derive(Copy, Clone, Debug)]
pub struct AdaptThresholds {
    /// Refine when `max |u|` over the patch exceeds this.
    pub refine_above: f64,
    /// Coarsen when every sibling's `max |u|` stays below this.
    pub coarsen_below: f64,
}

impl Default for AdaptThresholds {
    fn default() -> Self {
        AdaptThresholds {
            refine_above: 0.2,
            coarsen_below: 0.05,
        }
    }
}

/// What one adaptation pass did on this rank.
#[derive(Copy, Clone, Debug, Default)]
pub struct AdaptReport {
    /// Leaves refined (including balance-induced refinement).
    pub refined: usize,
    /// Families merged by coarsening.
    pub coarsened: usize,
    /// Payload bytes rewritten by the data mapper.
    pub mapped_bytes: u64,
}

/// A 2D advection simulation: the forest, one [`Patch`] per local leaf,
/// and a constant velocity field.
///
/// `forest` and `u` are public for inspection; code that mutates the
/// mesh or partition *directly* (rather than through
/// [`AdvectionSim::adapt`] / [`AdvectionSim::migrate`]) must call
/// [`AdvectionSim::invalidate_topology`] afterwards so the next step
/// rebuilds its ghost layer and flux plan against the new mesh.
pub struct AdvectionSim<Q: Quadrant> {
    /// The adaptive mesh.
    pub forest: Forest<Q>,
    /// Per-leaf solution patches, aligned with `forest.leaves()`.
    pub u: LeafData<Patch>,
    /// Constant advection velocity `(vx, vy)` in domain units per time.
    pub velocity: [f64; 2],
    /// Coarsest level adaptation may reach.
    pub base_level: u8,
    /// Finest level adaptation may reach.
    pub max_level: u8,
    /// Steps taken so far (restored from the checkpoint manifest on
    /// recovery).
    pub steps_taken: u64,
    /// Ghost layer and flux plan, which depend only on the mesh and its
    /// partition: built lazily on the first step after a topology
    /// change, `None` whenever the mesh or partition may have changed
    /// since the last step.
    topo: Option<Topology<Q>>,
    /// True while the partition is the one `partition` would produce:
    /// no mesh change since the last partition or [`AdvectionSim::new`].
    /// [`AdvectionSim::migrate`] then has nothing to move.
    settled: bool,
    /// Step scratch: the edge strips as they were before the step, every
    /// local leaf's and then every ghost's — the plan's strip slots. One
    /// exact allocation for the topology, released before a remap.
    strips: Vec<PatchHalo>,
}

/// What a step needs of the mesh: the face ghost layer and the flux
/// plan.
struct Topology<Q: Quadrant> {
    ghost: GhostLayer<Q>,
    plan: Vec<Flux>,
}

/// One fine face segment with a local side, resolved to flat indices.
/// Side 0, `low`, sees the interface through its `+axis` face; side 1,
/// `high`, through its `−axis` face. The donor of a segment is `low`
/// when the normal velocity is ≥ 0, else `high`.
#[derive(Copy, Clone)]
struct Flux {
    /// Each side's strip slot: a local leaf's index, or the local count
    /// plus a ghost's index.
    slot: [u32; 2],
    /// Per side, the cell of its patch each segment's transfer lands in.
    cell: [[u8; PATCH_N]; 2],
    /// Per side, each segment's entry in that side's strips read as one
    /// flat array, `face · N + m`.
    donor: [[u8; PATCH_N]; 2],
    axis: u8,
    /// Segment length (the fine side's cell size), domain units.
    w: f64,
    /// `1 / cell area` of `low` and of `high`.
    inv_cell_area: [f64; 2],
}

// the plan is streamed every step: resolving it must not grow an entry
const _: () = assert!(std::mem::size_of::<Flux>() <= 72);

/// The plan's sort key of an entry: its fine side's `(tree, morton_abs,
/// level)` and face — the same on every rank that holds the entry.
type PlanKey = (u32, u64, u8, u32);

/// A leaf's identity as a key in SFC order: `(tree, morton_abs, level)`.
fn leaf_key<Q: Quadrant>(tree: TreeId, q: &Q) -> (u32, u64, u8) {
    (tree, q.morton_abs(), q.level())
}

/// Compile every pair of one `iterate_faces` pass into one flux entry,
/// sorted by [`PlanKey`]. The walk emits a pair only from a local side.
fn flux_plan<Q: Quadrant>(forest: &Forest<Q>, ghost: &GhostLayer<Q>) -> Vec<Flux> {
    let root = Q::len_at(0) as f64;
    let cell_size = |s: &FaceSide<Q>| s.quad.side() as f64 / root / PATCH_N as f64;
    let local = forest.local_count();
    let slot = |s: &FaceSide<Q>| {
        let i = match s.leaf {
            LeafRef::Local(i) => i,
            LeafRef::Ghost(i) => local + i,
        };
        u32::try_from(i).expect("strip slots fit in u32")
    };
    let mut keyed: Vec<(PlanKey, Flux)> = Vec::new();
    iterate_faces(forest, ghost, |iface| {
        let Interface::Interior(this, other) = iface else {
            return; // closed wall: zero flux (conservative)
        };
        // the leaf whose face is the +axis side sits at lower
        // coordinates: positive vn carries mass low -> high
        let (low, high) = if this.face & 1 == 1 {
            (&this, &other)
        } else {
            (&other, &this)
        };
        let axis = this.face / 2;
        debug_assert_eq!(axis, other.face / 2, "axis-aligned transform");
        // fine = smaller leaf; segments are its face cells
        let fine_is_low = low.quad.level() >= high.quad.level();
        let (fine, coarse) = if fine_is_low {
            (low, high)
        } else {
            (high, low)
        };
        let tan = 1 - axis as usize;
        let (hf, hc) = (fine.quad.side() as i64, coarse.quad.side() as i64);
        let off = (fine.quad.coords()[tan] - coarse.quad.coords()[tan]) as i64;
        debug_assert!((0..hc).contains(&off), "tangential overlap");
        let n = PATCH_N as i64;
        // a side's strip index of segment `s`: the fine side's is `s`,
        // the coarse side's the face cell beside it
        let m = |is_fine: bool, s: usize| {
            if is_fine {
                s
            } else {
                ((off * n + s as i64 * hf) / hc) as usize
            }
        };
        let sides = [
            (2 * axis as usize + 1, fine_is_low),
            (2 * axis as usize, !fine_is_low),
        ];
        let key = (
            fine.tree,
            fine.quad.morton_abs(),
            fine.quad.level(),
            fine.face,
        );
        keyed.push((
            key,
            Flux {
                slot: [slot(low), slot(high)],
                cell: sides.map(|(face, is_fine)| {
                    std::array::from_fn(|s| face_cell(face, m(is_fine, s)) as u8)
                }),
                donor: sides.map(|(face, is_fine)| {
                    std::array::from_fn(|s| (face * PATCH_N + m(is_fine, s)) as u8)
                }),
                axis: axis as u8,
                w: cell_size(fine),
                inv_cell_area: [low, high].map(|s| 1.0 / (cell_size(s) * cell_size(s))),
            },
        ));
    });
    keyed.sort_unstable_by_key(|(key, _)| *key);
    // a fresh, exact allocation: the plan outlives many steps
    keyed.iter().map(|(_, flux)| *flux).collect()
}

impl<Q: Quadrant> AdvectionSim<Q> {
    /// Build a simulation: uniform mesh at `base_level`, recursively
    /// refined (up to `max_level`) wherever the sampled initial
    /// condition is significant, 2:1 balanced, with patches filled by
    /// sampling `init(x, y)` at cell centers (`x`, `y` in `[0, 1)` of
    /// the tree domain).
    pub fn new(
        conn: Arc<Connectivity>,
        comm: &Comm,
        base_level: u8,
        max_level: u8,
        velocity: [f64; 2],
        init: impl Fn(f64, f64) -> f64,
    ) -> Self {
        assert_eq!(Q::DIM, 2, "the advection driver is 2D");
        assert!(base_level <= max_level);
        let mut forest = Forest::<Q>::new_uniform(conn, comm, base_level);
        forest.refine(comm, true, |_, q| {
            q.level() < max_level && sample_patch::<Q>(q, &init).max_abs() > 0.1
        });
        forest.balance(comm, BalanceKind::Face);
        forest.partition(comm);
        let u = LeafData::init(&forest, |_, q| sample_patch::<Q>(q, &init));
        Self::assemble(forest, u, velocity, base_level, max_level, 0, true)
    }

    fn assemble(
        forest: Forest<Q>,
        u: LeafData<Patch>,
        velocity: [f64; 2],
        base_level: u8,
        max_level: u8,
        steps_taken: u64,
        settled: bool,
    ) -> Self {
        AdvectionSim {
            forest,
            u,
            velocity,
            base_level,
            max_level,
            steps_taken,
            topo: None,
            settled,
            strips: Vec::new(),
        }
    }

    /// Drop the cached ghost layer and flux plan so the next
    /// [`AdvectionSim::step`] rebuilds them, and let the next
    /// [`AdvectionSim::migrate`] repartition. Required after mutating
    /// `forest` directly; [`AdvectionSim::adapt`] calls it itself when
    /// the mesh changed. Must be invoked on every rank or none (the
    /// rebuild is collective).
    pub fn invalidate_topology(&mut self) {
        self.topo = None;
        self.settled = false;
    }

    /// Free the step scratch, so a remap does not hold it alongside the
    /// old and the new payload.
    fn release_scratch(&mut self) {
        self.strips = Vec::new();
    }

    /// Largest stable time step for the donor-cell scheme at the
    /// current (global) finest level, scaled by `cfl` (use ≤ 1; the
    /// stability bound is `dt · (|vx| + |vy|) / h_cell ≤ 1`).
    pub fn cfl_dt(&self, comm: &Comm, cfl: f64) -> f64 {
        let finest = comm.allreduce(
            self.forest
                .leaves()
                .map(|(_, q)| q.level())
                .max()
                .unwrap_or(self.base_level),
            |a, b| (*a).max(*b),
        );
        let h_cell = 1.0 / ((1u64 << finest) as f64 * PATCH_N as f64);
        let speed = self.velocity[0].abs() + self.velocity[1].abs();
        assert!(speed > 0.0, "advection needs a nonzero velocity");
        cfl * h_cell / speed
    }

    /// Physical side length of a leaf (domain units, tree = unit
    /// square).
    fn leaf_h(q: &Q) -> f64 {
        q.side() as f64 / Q::len_at(0) as f64
    }

    /// Total mass `∫ u dA` over the global domain. Collective.
    pub fn total_mass(&self, comm: &Comm) -> f64 {
        let local: f64 = self
            .forest
            .leaves()
            .zip(self.u.iter())
            .map(|((_, q), p)| p.mass(Self::leaf_h(q)))
            .sum();
        comm.allreduce(local, |a, b| a + b)
    }

    /// Largest `|u|` over the global domain. Collective.
    pub fn max_value(&self, comm: &Comm) -> f64 {
        let local = self.u.iter().fold(0.0f64, |m, p| m.max(p.max_abs()));
        comm.allreduce(local, |a, b| a.max(*b))
    }

    /// Order- and partition-independent digest of the global state
    /// (every leaf's identity and exact patch bits). Two runs agree iff
    /// their global mesh+solution states are bit-identical. Collective.
    pub fn state_digest(&self, comm: &Comm) -> u64 {
        let mut local = 0u64;
        for ((t, q), p) in self.forest.leaves().zip(self.u.iter()) {
            let mut buf = Vec::with_capacity(PATCH_WIRE_BYTES + 16);
            use quadforest_core::Wire;
            (t, q.morton_abs(), q.level() as u32).encode(&mut buf);
            p.encode(&mut buf);
            let c = crc32(&buf) as u64;
            // spread the 32-bit CRC over 64 bits before the XOR fold
            local ^= c.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (c << 32);
        }
        comm.allreduce(local, |a, b| a ^ b)
    }

    /// One donor-cell step. Collective; `dt` must satisfy the CFL bound
    /// (see [`Self::cfl_dt`]). Mass is conserved to machine precision
    /// across ranks and hanging faces.
    pub fn step(&mut self, comm: &Comm, dt: f64) {
        let _span = telemetry::span("pde.step");
        let t0 = std::time::Instant::now();
        let Self {
            forest,
            u,
            velocity,
            topo,
            strips,
            ..
        } = self;
        u.check_aligned(forest, "advection step");
        let v = *velocity;

        // Collective when it rebuilds — a topology change invalidates on
        // every rank, so all ranks take the same branch.
        let topo = topo.get_or_insert_with(|| {
            let ghost = forest.ghost(comm, BalanceKind::Face);
            let plan = flux_plan(forest, &ghost);
            Topology { ghost, plan }
        });
        let local = u.len();
        let slots = local + topo.ghost.len();
        if strips.len() != slots {
            // exact, never grown: the strips live as long as the topology
            let zero = PatchHalo {
                edges: [[0.0; PATCH_N]; 4],
            };
            *strips = vec![zero; slots];
        }
        let (own, ghosts) = strips.split_at_mut(local);

        // one dispatched kernel: each local patch's edge strips as they
        // are before the step, then its intra-patch fluxes, in place
        batch::donor_cell_8x8_all(
            forest
                .leaves()
                .zip(u.iter_mut())
                .zip(own.iter_mut())
                .map(|(((_, q), p), s)| {
                    let dt_hc = dt / (Self::leaf_h(q) / PATCH_N as f64);
                    (&mut p.cells, &mut s.edges, dt_hc)
                }),
            v,
        );
        // the mirrors' strips go to the ranks that see them as ghosts —
        // values change every step, so this exchange always runs
        ghosts.copy_from_slice(&topo.ghost.exchange_data(comm, own));
        telemetry::counter_add("pde.halo.bytes", (ghosts.len() * HALO_WIRE_BYTES) as u64);

        // inter-leaf fluxes at the finer side's granularity, in plan
        // order, from the strips as they were before the step; per axis,
        // `vn · dt` and the upwind side
        let vdt = v.map(|vn| vn * dt);
        let upwind = v.map(|vn| if vn >= 0.0 { 0 } else { 1 });
        for e in &topo.plan {
            let axis = e.axis as usize;
            let rate = vdt[axis] * e.w;
            let from = upwind[axis];
            let donor = strips[e.slot[from] as usize].edges.as_flattened();
            // mass low -> high
            let dm: [f64; PATCH_N] =
                std::array::from_fn(|s| rate * donor[e.donor[from][s] as usize]);
            let [low, high] = e.slot.map(|s| s as usize);
            if low < local {
                let cells = &mut u[low].cells;
                for (&c, dm) in e.cell[0].iter().zip(dm) {
                    cells[c as usize] -= dm * e.inv_cell_area[0];
                }
            }
            if high < local {
                let cells = &mut u[high].cells;
                for (&c, dm) in e.cell[1].iter().zip(dm) {
                    cells[c as usize] += dm * e.inv_cell_area[1];
                }
            }
        }
        self.steps_taken += 1;
        telemetry::counter_add("pde.steps", 1);
        telemetry::histogram_record("pde.step.ns", t0.elapsed().as_nanos() as u64);
    }

    /// Adapt the mesh to the solution (refine steep patches, coarsen
    /// flat families, re-balance) and conservatively remap the patches.
    /// A pass that changes no leaf on any rank keeps the compiled
    /// topology. Collective.
    pub fn adapt(&mut self, comm: &Comm, thresholds: AdaptThresholds) -> AdaptReport {
        let _span = telemetry::span("pde.adapt");
        self.release_scratch();
        let max_level = self.max_level;
        let base_level = self.base_level;
        // the pre-adapt leaves, each with its patch's magnitude. `balance`
        // may re-split what `coarsen` merged, so the counts alone cannot
        // say whether the mesh changed: the leaves can
        let before: Vec<((u32, u64, u8), f64)> = self
            .forest
            .leaves()
            .zip(self.u.iter())
            .map(|((t, q), p)| (leaf_key(t, q), p.max_abs()))
            .collect();

        // Both flags ask about leaves in SFC order, so each pass reads the
        // magnitudes through one forward cursor. The refine flags only
        // ever see pre-adapt leaves, but the coarsen pass runs against
        // the post-refine mesh, where children created moments ago are
        // absent from `before` — `unknown` decides their fate per pass.
        let magnitudes = before.as_slice();
        let cursor = || {
            let mut at = 0;
            move |t: TreeId, q: &Q, unknown: f64| -> f64 {
                let key = leaf_key(t, q);
                while magnitudes.get(at).is_some_and(|(k, _)| *k < key) {
                    at += 1;
                }
                match magnitudes.get(at) {
                    Some(&(k, m)) if k == key => m,
                    _ => unknown,
                }
            }
        };

        let mut mag = cursor();
        let mut refined = self.forest.refine_mapped(
            comm,
            false,
            |t, q| q.level() < max_level && mag(t, q, 0.0) > thresholds.refine_above,
            &mut self.u,
            &PatchMapper,
        );
        // unknown leaves read +inf here: a family holding children this
        // very adapt() just created must never be a coarsen candidate,
        // or the coarsen pass would silently undo the refine pass
        let mut mag = cursor();
        let coarsened = self.forest.coarsen_mapped(
            comm,
            false,
            |t, fam| {
                fam[0].level() > base_level
                    && fam
                        .iter()
                        .all(|q| mag(t, q, f64::INFINITY) < thresholds.coarsen_below)
            },
            &mut self.u,
            &PatchMapper,
        );
        refined += self
            .forest
            .balance_mapped(comm, BalanceKind::Face, &mut self.u, &PatchMapper);
        // on every rank alike: the mesh may have changed on *any* rank,
        // which reshapes this rank's ghost layer too
        let changed = refined + coarsened > 0
            && !self
                .forest
                .leaves()
                .map(|(t, q)| leaf_key(t, q))
                .eq(before.iter().map(|(k, _)| *k));
        if comm.allreduce_sum(changed as u64) > 0 {
            self.invalidate_topology();
        }
        let mapped_bytes = (self.u.len() * PATCH_WIRE_BYTES) as u64;
        telemetry::counter_add("pde.map.bytes", mapped_bytes);
        AdaptReport {
            refined,
            coarsened,
            mapped_bytes,
        }
    }

    /// Rebalance the leaf partition, migrating each moving leaf's patch
    /// in the same exchange. Returns the bytes of payload shipped off
    /// this rank. When the mesh has not changed since the last
    /// partition the cuts are already the ones `partition` computes,
    /// and nothing runs. Collective.
    pub fn migrate(&mut self, comm: &Comm) -> u64 {
        let _span = telemetry::span("pde.migrate");
        let moved = if self.settled {
            0
        } else {
            self.release_scratch();
            let moved = self.forest.partition_mapped(comm, &mut self.u);
            self.topo = None;
            self.settled = true;
            moved
        };
        let bytes = (moved * PATCH_WIRE_BYTES) as u64;
        telemetry::counter_add("pde.migrate.bytes", bytes);
        bytes
    }

    /// Write a checkpoint generation carrying mesh, patches, *and* the
    /// step count (committed in the manifest). Collective; returns the
    /// generation number.
    pub fn checkpoint(
        &self,
        comm: &Comm,
        dir: impl AsRef<std::path::Path>,
    ) -> Result<u64, IoError> {
        self.forest
            .save_checkpoint_with_data(comm, dir, &self.u, self.steps_taken)
    }

    /// Restore a simulation from the newest complete checkpoint
    /// generation. `steps_taken` comes from the step count persisted in
    /// the checkpoint manifest — never from the generation number, which
    /// can skip values when a save is aborted mid-write. The first
    /// [`AdvectionSim::migrate`] after a restore repartitions: at the
    /// saver's rank count the shards come back as saved, which need not
    /// be the partition's cuts. Collective.
    pub fn restore(
        conn: Arc<Connectivity>,
        comm: &Comm,
        dir: impl AsRef<std::path::Path>,
        velocity: [f64; 2],
        base_level: u8,
        max_level: u8,
    ) -> Result<Self, IoError> {
        let (forest, u, info) = Forest::<Q>::load_checkpoint_with_data(conn, comm, dir)?;
        Ok(Self::assemble(
            forest, u, velocity, base_level, max_level, info.step, false,
        ))
    }

    /// Render the global field as a `width × height` ASCII frame
    /// (row 0 at the top = y max). Collective; every rank returns the
    /// same string.
    pub fn ascii_frame(&self, comm: &Comm, width: usize, height: usize) -> String {
        let root = Q::len_at(0) as f64;
        let mut grid = vec![0.0f64; width * height];
        for ((_, q), p) in self.forest.leaves().zip(self.u.iter()) {
            let c = q.coords();
            let h = q.side() as f64;
            for cj in 0..PATCH_N {
                for ci in 0..PATCH_N {
                    let x = (c[0] as f64 + (ci as f64 + 0.5) * h / PATCH_N as f64) / root;
                    let y = (c[1] as f64 + (cj as f64 + 0.5) * h / PATCH_N as f64) / root;
                    let gx = ((x * width as f64) as usize).min(width - 1);
                    let gy = ((y * height as f64) as usize).min(height - 1);
                    let g = &mut grid[gy * width + gx];
                    *g = g.max(p.get(ci, cj));
                }
            }
        }
        let grid = comm.allreduce(grid, |a, b| {
            a.iter().zip(b.iter()).map(|(x, y)| x.max(*y)).collect()
        });
        let peak = grid.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
        const SHADES: &[u8] = b" .:-=+*#%@";
        let mut out = String::with_capacity((width + 1) * height);
        for row in (0..height).rev() {
            for col in 0..width {
                let v = (grid[row * width + col] / peak).clamp(0.0, 1.0);
                let s = ((v * (SHADES.len() - 1) as f64).round() as usize).min(SHADES.len() - 1);
                out.push(SHADES[s] as char);
            }
            out.push('\n');
        }
        out
    }
}

/// Sample `init` at the cell centers of a leaf's patch.
pub(crate) fn sample_patch<Q: Quadrant>(q: &Q, init: &impl Fn(f64, f64) -> f64) -> Patch {
    let root = Q::len_at(0) as f64;
    let c = q.coords();
    let h = q.side() as f64;
    let mut p = Patch::zero();
    for j in 0..PATCH_N {
        for i in 0..PATCH_N {
            let x = (c[0] as f64 + (i as f64 + 0.5) * h / PATCH_N as f64) / root;
            let y = (c[1] as f64 + (j as f64 + 0.5) * h / PATCH_N as f64) / root;
            p.set(i, j, init(x, y));
        }
    }
    p
}

/// Flat index of the patch cell on face `f` at tangential strip index
/// `m`.
#[inline]
fn face_cell(f: usize, m: usize) -> usize {
    let edge = if f & 1 == 1 { PATCH_N - 1 } else { 0 };
    if f / 2 == 0 {
        Patch::idx(edge, m)
    } else {
        Patch::idx(m, edge)
    }
}

/// The standard demo initial condition: a Gaussian blob at
/// `(0.3, 0.4)`.
pub fn gaussian_blob(x: f64, y: f64) -> f64 {
    let d2 = (x - 0.3).powi(2) + (y - 0.4).powi(2);
    (-d2 / 0.01).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadforest_core::quadrant::MortonQuad;

    type Q = MortonQuad<2>;

    fn mk(comm: &Comm, base: u8, max: u8) -> AdvectionSim<Q> {
        AdvectionSim::new(
            Arc::new(Connectivity::periodic(2)),
            comm,
            base,
            max,
            [1.0, 0.5],
            gaussian_blob,
        )
    }

    #[test]
    fn uniform_step_conserves_mass_serial() {
        quadforest_comm::run(1, |comm| {
            let mut sim = mk(&comm, 2, 2);
            let m0 = sim.total_mass(&comm);
            let dt = sim.cfl_dt(&comm, 0.45);
            for _ in 0..10 {
                sim.step(&comm, dt);
            }
            let drift = (sim.total_mass(&comm) - m0).abs() / m0;
            assert!(drift < 1e-13, "drift {drift:e}");
        });
    }

    #[test]
    fn adaptive_step_conserves_mass_parallel() {
        quadforest_comm::run(2, |comm| {
            let mut sim = mk(&comm, 2, 4);
            assert!(
                comm.allreduce(
                    sim.forest
                        .leaves()
                        .map(|(_, q)| q.level())
                        .max()
                        .unwrap_or(0),
                    |a, b| (*a).max(*b),
                ) > 2,
                "initial refinement must trigger"
            );
            let m0 = sim.total_mass(&comm);
            let dt = sim.cfl_dt(&comm, 0.45);
            for s in 0..12 {
                sim.step(&comm, dt);
                if s % 4 == 3 {
                    sim.adapt(&comm, AdaptThresholds::default());
                    sim.migrate(&comm);
                }
                let drift = (sim.total_mass(&comm) - m0).abs() / m0;
                assert!(drift < 1e-12, "step {s}: drift {drift:e}");
            }
            assert_eq!(sim.steps_taken, 12);
        });
    }

    #[test]
    fn adapt_alone_is_bit_exact_on_mass() {
        quadforest_comm::run(2, |comm| {
            let mut sim = mk(&comm, 2, 4);
            let m0 = sim.total_mass(&comm);
            sim.adapt(&comm, AdaptThresholds::default());
            sim.migrate(&comm);
            // conservative mapper: refine/coarsen change no patch sums
            let drift = (sim.total_mass(&comm) - m0).abs() / m0;
            assert!(drift < 1e-13, "drift {drift:e}");
        });
    }

    #[test]
    fn digest_is_partition_invariant() {
        let d2: Vec<u64> = quadforest_comm::run(2, |comm| {
            let sim = mk(&comm, 2, 3);
            sim.state_digest(&comm)
        });
        let d4: Vec<u64> = quadforest_comm::run(4, |comm| {
            let sim = mk(&comm, 2, 3);
            sim.state_digest(&comm)
        });
        assert!(d2.iter().all(|d| *d == d2[0]));
        assert_eq!(d2[0], d4[0], "digest must not depend on the partition");
    }

    /// A coarsen that `balance` undoes changes no leaf, so the adapt
    /// keeps the compiled topology — the refine and coarsen counts alone
    /// would have dropped it.
    #[test]
    fn adapt_undone_by_balance_keeps_the_topology() {
        quadforest_comm::run(2, |comm| {
            // a small disk inside one level-2 quadrant is refined to
            // level 4; balance splits the level-2 leaves beside it into
            // level-3 families
            let disk = |x: f64, y: f64| {
                let inside = (x - 0.28).powi(2) + (y - 0.375).powi(2) < 0.025f64.powi(2);
                inside as u8 as f64
            };
            let conn = Arc::new(Connectivity::periodic(2));
            let mut sim = AdvectionSim::<Q>::new(conn, &comm, 2, 4, [1.0, 0.5], disk);
            let dt = sim.cfl_dt(&comm, 0.45);
            sim.step(&comm, dt);
            assert!(sim.topo.is_some());
            // the finest leaves above both thresholds, the rest zero: the
            // coarsen pass merges exactly the families balance made, and
            // balance makes them again
            for ((_, q), p) in sim.forest.leaves().zip(sim.u.iter_mut()) {
                p.cells.fill((q.level() == 4) as u8 as f64);
            }
            let before = sim.forest.gather_all(&comm);
            let report = sim.adapt(&comm, AdaptThresholds::default());
            assert!(comm.allreduce_sum(report.coarsened as u64) > 0);
            assert_eq!(sim.forest.gather_all(&comm), before, "balance undoes it");
            assert!(sim.topo.is_some(), "an unchanged mesh keeps its topology");
            assert_eq!(sim.migrate(&comm), 0);
        });
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("qf-pde-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reports = quadforest_comm::run(2, |comm| {
            let mut sim = mk(&comm, 2, 4);
            let dt = sim.cfl_dt(&comm, 0.45);
            for _ in 0..5 {
                sim.step(&comm, dt);
            }
            sim.checkpoint(&comm, &dir).unwrap();
            let before = sim.state_digest(&comm);
            let restored = AdvectionSim::<Q>::restore(
                Arc::new(Connectivity::periodic(2)),
                &comm,
                &dir,
                sim.velocity,
                2,
                4,
            )
            .unwrap();
            assert_eq!(restored.steps_taken, 5);
            (before, restored.state_digest(&comm))
        });
        let _ = std::fs::remove_dir_all(&dir);
        for (before, after) in reports {
            assert_eq!(before, after, "restore must be bit-identical");
        }
    }

    #[test]
    fn adapt_refinement_survives_the_coarsen_pass() {
        quadforest_comm::run(1, |comm| {
            // uniform level-2 mesh, then allow adaptation up to level 4:
            // the blob peak (≈1.0) is far above refine_above, so adapt()
            // must refine — and the freshly created children, absent
            // from the magnitude snapshot, must NOT be coarsened right
            // back in the same call
            let mut sim = mk(&comm, 2, 2);
            sim.max_level = 4;
            let leaves_before = sim.forest.global_count();
            let report = sim.adapt(&comm, AdaptThresholds::default());
            assert!(report.refined > 0, "the blob must trigger refinement");
            assert!(
                sim.forest.global_count() > leaves_before,
                "refined leaves must survive adapt(): {} -> {} leaves",
                leaves_before,
                sim.forest.global_count()
            );
            let finest = sim
                .forest
                .leaves()
                .map(|(_, q)| q.level())
                .max()
                .unwrap_or(0);
            assert!(finest > 2, "refinement must persist past the coarsen pass");
        });
    }

    #[test]
    fn restore_steps_survive_skipped_generations() {
        let dir = std::env::temp_dir().join(format!("qf-pde-skipgen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        quadforest_comm::run(2, |comm| {
            let mut sim = mk(&comm, 2, 3);
            let dt = sim.cfl_dt(&comm, 0.45);
            for _ in 0..3 {
                sim.step(&comm, dt);
            }
            // simulate an aborted save: an uncommitted generation dir
            // bumps the next generation number past the dense sequence
            if comm.rank() == 0 {
                std::fs::create_dir_all(dir.join("gen-00000007")).unwrap();
            }
            comm.barrier();
            let generation = sim.checkpoint(&comm, &dir).unwrap();
            assert_eq!(generation, 8, "the aborted generation must be skipped");
            let restored = AdvectionSim::<Q>::restore(
                Arc::new(Connectivity::periodic(2)),
                &comm,
                &dir,
                sim.velocity,
                2,
                3,
            )
            .unwrap();
            assert_eq!(
                restored.steps_taken, 3,
                "steps must come from the manifest, not the generation number"
            );
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `(is_ghost, index)`: a `LeafRef` that sorts.
    fn slot(r: LeafRef) -> (bool, usize) {
        match r {
            LeafRef::Local(i) => (false, i),
            LeafRef::Ghost(i) => (true, i),
        }
    }

    /// The leaf a plan entry's strip slot names on a rank with `local`
    /// leaves.
    fn leaf_ref(strip_slot: u32, local: usize) -> LeafRef {
        match strip_slot as usize {
            i if i < local => LeafRef::Local(i),
            i => LeafRef::Ghost(i - local),
        }
    }

    /// Check the plan of one rank against the walk; returns the number
    /// of entries and how many of them have a ghost side.
    fn plan_matches_walk<Q: Quadrant>(f: &Forest<Q>, g: &GhostLayer<Q>) -> (usize, usize) {
        let mut walk = Vec::new();
        iterate_faces(f, g, |iface| {
            if let Interface::Interior(p, o) = iface {
                let (low, high) = if p.face & 1 == 1 { (&p, &o) } else { (&o, &p) };
                if !(low.is_ghost() && high.is_ghost()) {
                    walk.push((slot(low.leaf), slot(high.leaf), p.face / 2));
                }
            }
        });
        let plan = flux_plan(f, g);
        let local = f.local_count();
        let sides = |e: &Flux| e.slot.map(|s| leaf_ref(s, local));
        let mut planned: Vec<_> = plan
            .iter()
            .map(|e| {
                let [low, high] = sides(e);
                (slot(low), slot(high), e.axis as u32)
            })
            .collect();
        walk.sort_unstable();
        planned.sort_unstable();
        assert_eq!(planned, walk, "the plan must hold what the walk emits");

        let leaves: Vec<(u32, Q)> = f.leaves().map(|(t, q)| (t, *q)).collect();
        let quad = |r: LeafRef| match r {
            LeafRef::Local(i) => leaves[i],
            LeafRef::Ghost(i) => (g.ghosts[i].tree, g.ghosts[i].quad),
        };
        let keys: Vec<PlanKey> = plan
            .iter()
            .map(|e| {
                let [low, high] = sides(e).map(quad);
                let fine_is_low = low.1.level() >= high.1.level();
                let (t, q) = if fine_is_low { low } else { high };
                let face = 2 * e.axis as u32 + fine_is_low as u32;
                (t, q.morton_abs(), q.level(), face)
            })
            .collect();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "the plan must be strictly sorted by its key"
        );
        let ghosted = plan
            .iter()
            .filter(|e| e.slot.iter().any(|&s| s as usize >= local))
            .count();
        (plan.len(), ghosted)
    }

    /// The flux plan is the walk, compiled: on the meshes of `iterate.rs`'s
    /// tests — non-balanced, multitree brick, periodic, and hanging
    /// interfaces straddling ranks — at P ∈ {1, 2, 3}.
    #[test]
    fn plan_is_the_walk_in_canonical_order() {
        use quadforest_core::quadrant::StandardQuad;
        type S = StandardQuad<2>;
        let center = [S::len_at(0) / 2, S::len_at(0) / 2, 0];
        type Mesh = (Connectivity, u8, fn(u32, &S, [i32; 3]) -> bool);
        let meshes: [Mesh; 4] = [
            // a 3-level jump at the domain center, never balanced
            (Connectivity::unit(2), 1, |_, q, c| {
                q.contains_point(c) && q.level() < 4
            }),
            (Connectivity::brick2d(2, 1, true, false), 2, |t, q, _| {
                q.level() < 5 && (q.morton_abs() >> 7).wrapping_mul(t as u64 + 3) % 5 == 0
            }),
            (Connectivity::periodic(2), 2, |_, q, _| {
                q.level() < 4 && q.morton_index() % 3 == 0
            }),
            // the curve-last quadrant refined: 3 coarse + 4 fine leaves
            (Connectivity::unit(2), 1, |_, q, _| {
                q.level() == 1 && q.morton_index() == 3
            }),
        ];
        for (conn, level, flag) in meshes {
            let conn = Arc::new(conn);
            for p in [1usize, 2, 3] {
                let counts = quadforest_comm::run(p, |comm| {
                    let mut f = Forest::<S>::new_uniform(conn.clone(), &comm, level);
                    f.refine(&comm, true, |t, q| flag(t, q, center));
                    f.partition(&comm);
                    let g = f.ghost(&comm, BalanceKind::Face);
                    plan_matches_walk(&f, &g)
                });
                assert!(counts.iter().any(|c| c.0 > 0), "P = {p}: empty plans");
                assert_eq!(counts.iter().any(|c| c.1 > 0), p > 1, "P = {p}");
            }
        }
    }

    /// The parent's intra-patch fluxes, kept as the oracle of the
    /// dispatched kernel: the change of every cell for velocity `v`,
    /// with `dt_hc` = `dt / h_cell`.
    fn intra_fluxes(p: &Patch, v: [f64; 2], dt_hc: f64) -> Patch {
        let [cx, cy] = v.map(|vi| vi * dt_hc);
        let mut d = Patch::zero();
        for j in 0..PATCH_N {
            for i in 0..PATCH_N - 1 {
                let donor = if v[0] >= 0.0 {
                    p.get(i, j)
                } else {
                    p.get(i + 1, j)
                };
                let f = cx * donor;
                d.cells[Patch::idx(i, j)] -= f;
                d.cells[Patch::idx(i + 1, j)] += f;
            }
        }
        for j in 0..PATCH_N - 1 {
            for i in 0..PATCH_N {
                let donor = if v[1] >= 0.0 {
                    p.get(i, j)
                } else {
                    p.get(i, j + 1)
                };
                let f = cy * donor;
                d.cells[Patch::idx(i, j)] -= f;
                d.cells[Patch::idx(i, j + 1)] += f;
            }
        }
        d
    }

    /// The dispatched interior kernel is the parent's strip snapshot
    /// (`Patch::halo`) and intra-patch update (`intra_fluxes`, then
    /// `cell += d`), bit for bit: on random patches holding ±0.0, for
    /// every sign of the velocity and with a zero component.
    #[test]
    fn interior_kernel_is_the_parents_update() {
        let mut h = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            h
        };
        let patches: Vec<Patch> = (0..40)
            .map(|_| {
                let mut p = Patch::zero();
                for c in &mut p.cells {
                    let r = next();
                    *c = match r % 4 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => (r >> 11) as f64 / (1u64 << 53) as f64 - 0.5,
                    };
                }
                p
            })
            .collect();
        let dt_hc = |i: usize| 0.05 * (1 + i % 4) as f64;
        let bits = |cells: &[f64]| cells.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for v in [
            [1.0, 0.5],
            [-1.0, 0.5],
            [1.0, -0.5],
            [-1.0, -0.5],
            [0.0, -0.7],
            [0.3, -0.0],
        ] {
            let mut got = patches.clone();
            let zero = PatchHalo {
                edges: [[0.0; PATCH_N]; 4],
            };
            let mut strips = vec![zero; got.len()];
            batch::donor_cell_8x8_all(
                got.iter_mut()
                    .zip(&mut strips)
                    .enumerate()
                    .map(|(i, (p, s))| (&mut p.cells, &mut s.edges, dt_hc(i))),
                v,
            );
            for (i, p) in patches.iter().enumerate() {
                let d = intra_fluxes(p, v, dt_hc(i));
                let want: Vec<f64> = p.cells.iter().zip(d.cells).map(|(c, dc)| c + dc).collect();
                assert_eq!(bits(&got[i].cells), bits(&want), "cells, v = {v:?}");
                assert_eq!(
                    bits(strips[i].edges.as_flattened()),
                    bits(p.halo().edges.as_flattened()),
                    "strips, v = {v:?}"
                );
            }
        }
    }

    #[test]
    fn ascii_frame_shows_the_blob() {
        quadforest_comm::run(1, |comm| {
            let sim = mk(&comm, 3, 3);
            let frame = sim.ascii_frame(&comm, 24, 12);
            assert_eq!(frame.lines().count(), 12);
            assert!(frame.contains('@'), "peak shade must appear:\n{frame}");
            assert!(frame.contains(' '), "background must stay empty");
        });
    }
}
