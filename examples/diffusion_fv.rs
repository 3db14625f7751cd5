//! Finite-volume diffusion on a dynamically adapting forest — the kind
//! of application the AMR workflow exists for, and a hard end-to-end
//! test of the interface machinery: explicit diffusion fluxes are
//! exchanged across every mesh interface (conforming *and* hanging, local
//! *and* ghost), and total mass must be conserved to machine precision
//! at every step. Any interface visited twice, missed, or mis-paired
//! breaks conservation immediately.
//!
//! A Gaussian blob diffuses through a periodic unit square; the mesh
//! refines where the field is steep and coarsens behind, with
//! mass-conservative remapping (children inherit, parents average).
//!
//! Run: `cargo run --release --example diffusion_fv`

use quadforest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

type Q = Morton2;

const RANKS: usize = 3;
const BASE_LEVEL: u8 = 3;
const MAX_LEVEL: u8 = 6;
const STEPS: usize = 60;
const KAPPA: f64 = 0.05;

/// Initial condition: a narrow Gaussian at (0.3, 0.4).
fn initial(t: TreeId, q: &Q) -> f64 {
    let _ = t;
    let root = Q::len_at(0) as f64;
    let c = q.coords();
    let h = q.side() as f64 / root;
    let x = c[0] as f64 / root + h / 2.0;
    let y = c[1] as f64 / root + h / 2.0;
    let d2 = (x - 0.3).powi(2) + (y - 0.4).powi(2);
    (-d2 / 0.003).exp()
}

/// Mass-conservative remap of cell averages: children inherit the
/// parent's value, a parent takes the mean of its equal-volume children.
struct Averages;

impl DataMapper<Q, f64> for Averages {
    fn refine(&self, _t: TreeId, _parent: &Q, value: &f64, _child: &Q, _id: u32) -> f64 {
        *value
    }
    fn coarsen(&self, _t: TreeId, _parent: &Q, values: &[f64]) -> f64 {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One rank's simulation state: the forest plus one value per leaf.
struct Sim {
    forest: Forest<Q>,
    u: LeafData<f64>,
}

impl Sim {
    /// Local mass: Σ u_i · V_i (V in units of the root square).
    fn local_mass(&self) -> f64 {
        let root = Q::len_at(0) as f64;
        self.forest
            .leaves()
            .zip(self.u.iter())
            .map(|((_, q), u)| {
                let h = q.side() as f64 / root;
                u * h * h
            })
            .sum()
    }

    /// Adapt the mesh toward the field's steep regions — refine where
    /// the value is significant, coarsen where flat — with the data
    /// remapped conservatively along the way.
    fn adapt(&mut self, comm: &Comm) {
        // the flags see leaves, not payloads: snapshot the values by
        // pre-adapt leaf identity (leaves created on the way read 0)
        let before: HashMap<(TreeId, u64, u8), f64> = self
            .forest
            .leaves()
            .zip(self.u.iter())
            .map(|((t, q), u)| ((t, q.morton_abs(), q.level()), *u))
            .collect();
        let magnitude = |t: TreeId, q: &Q| -> f64 {
            before
                .get(&(t, q.morton_abs(), q.level()))
                .copied()
                .unwrap_or(0.0)
        };
        self.forest.refine_mapped(
            comm,
            false,
            |t, q| q.level() < MAX_LEVEL && magnitude(t, q) > 0.2,
            &mut self.u,
            &Averages,
        );
        self.forest.coarsen_mapped(
            comm,
            false,
            |t, fam| fam[0].level() > BASE_LEVEL && fam.iter().all(|q| magnitude(t, q) < 0.05),
            &mut self.u,
            &Averages,
        );
        self.forest
            .balance_mapped(comm, BalanceKind::Face, &mut self.u, &Averages);
    }

    /// One explicit diffusion step.
    fn step(&mut self, comm: &Comm, dt: f64) {
        let root = Q::len_at(0) as f64;
        let ghost = self.forest.ghost(comm, BalanceKind::Face);
        let ghost_u = ghost.exchange_data(comm, self.u.as_slice());
        let u = &self.u;
        let value = |side: &FaceSide<Q>| -> f64 {
            match side.leaf {
                LeafRef::Local(i) => u[i],
                LeafRef::Ghost(i) => ghost_u[i],
            }
        };

        let mut du = vec![0.0; self.u.len()];
        iterate_faces(&self.forest, &ghost, |iface| {
            let Interface::Interior(primary, others) = iface else {
                unreachable!("periodic domain has no boundary faces");
            };
            for other in others {
                // geometric factors: shared face length = the finer
                // side's face; center distance along the face normal
                let hp = primary.quad.side() as f64 / root;
                let ho = other.quad.side() as f64 / root;
                let area = hp.min(ho);
                let dist = (hp + ho) / 2.0;
                let flux = KAPPA * (value(other) - value(&primary)) * area / dist; // into primary
                if let LeafRef::Local(i) = primary.leaf {
                    du[i] += dt * flux / (hp * hp);
                }
                if let LeafRef::Local(i) = other.leaf {
                    du[i] -= dt * flux / (ho * ho);
                }
            }
        });
        for (u, d) in self.u.iter_mut().zip(&du) {
            *u += d;
        }
    }
}

fn main() {
    let reports = quadforest::comm::run(RANKS, |comm| {
        let conn = Arc::new(Connectivity::periodic(2));
        let mut forest = Forest::<Q>::new_uniform(conn, &comm, BASE_LEVEL);
        // initial refinement onto the blob, then freeze the partition
        // (data stays rank-local through adaptation; see `adapt`)
        for _ in 0..(MAX_LEVEL - BASE_LEVEL) {
            forest.refine(&comm, false, |t, q| {
                q.level() < MAX_LEVEL && initial(t, q) > 0.1
            });
        }
        forest.balance(&comm, BalanceKind::Face);
        let u = LeafData::init(&forest, initial);
        let mut sim = Sim { forest, u };

        let mass0 = comm.allreduce(sim.local_mass(), |a, b| a + b);
        let mut history = Vec::new();
        // dt bounded by the finest cell: dt <= h_min^2 / (4 kappa)
        let hmin = 1.0 / (1u64 << MAX_LEVEL) as f64;
        let dt = 0.2 * hmin * hmin / KAPPA;

        for s in 0..STEPS {
            sim.step(&comm, dt);
            if s % 10 == 9 {
                sim.adapt(&comm);
            }
            let mass = comm.allreduce(sim.local_mass(), |a, b| a + b);
            let umax = comm.allreduce(sim.u.iter().cloned().fold(0.0f64, f64::max), |a, b| {
                a.max(*b)
            });
            history.push((s, sim.forest.global_count(), mass, umax));
            let drift = (mass - mass0).abs() / mass0;
            assert!(
                drift < 1e-12,
                "mass must be conserved: step {s}, drift {drift:e}"
            );
        }
        (mass0, history)
    });

    let (mass0, history) = &reports[0];
    println!("finite-volume diffusion on dynamic AMR — periodic square, {RANKS} ranks");
    println!("initial mass: {mass0:.12}");
    println!("step | leaves | mass (conserved) | max u");
    for (s, n, mass, umax) in history.iter().step_by(10) {
        println!("{s:4} | {n:6} | {mass:.12} | {umax:.4}");
    }
    let (_, n_last, mass_last, umax_last) = history.last().unwrap();
    println!(
        "{:4} | {n_last:6} | {mass_last:.12} | {umax_last:.4}",
        STEPS - 1
    );
    println!(
        "\nOK: mass drift {:.2e} over {STEPS} steps (machine precision), peak decayed {:.2}x",
        (mass_last - mass0).abs() / mass0,
        history[0].3 / umax_last
    );
}
