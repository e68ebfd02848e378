//! RC thermal network construction and solvers.
//!
//! Following HotSpot's compact-model formulation, each floorplan block is a
//! node connected (a) vertically through the die to a lumped heat-spreader
//! node and (b) laterally to geometrically adjacent blocks. The spreader
//! connects to a lumped heat-sink node, which connects to the ambient
//! boundary. Steady-state temperatures solve `G·T = P + g_amb·T_amb`;
//! transients use implicit-Euler stepping on `C·dT/dt = P − G·T`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tlp_tech::linalg::LuFactorization;
use tlp_tech::units::{Celsius, Seconds, Watts};

use crate::floorplan::Floorplan;

/// Physical constants of the thermal package.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackageParams {
    /// Silicon thermal conductivity, W/(m·K).
    pub k_silicon: f64,
    /// Die thickness, metres.
    pub die_thickness_m: f64,
    /// Spreader-to-sink conductance, W/K.
    pub g_spreader_sink: f64,
    /// Sink-to-ambient conductance, W/K (set by calibration).
    pub g_sink_ambient: f64,
    /// Volumetric heat capacity of silicon, J/(m³·K).
    pub c_silicon: f64,
    /// Lumped spreader capacitance, J/K.
    pub c_spreader: f64,
    /// Lumped sink capacitance, J/K.
    pub c_sink: f64,
}

impl Default for PackageParams {
    fn default() -> Self {
        Self {
            k_silicon: 100.0,
            die_thickness_m: 0.5e-3,
            g_spreader_sink: 30.0,
            g_sink_ambient: 2.0,
            c_silicon: 1.75e6,
            c_spreader: 30.0,
            c_sink: 300.0,
        }
    }
}

/// Assembled RC network over a floorplan.
///
/// Node layout: indices `0..n_blocks` are floorplan blocks, then the
/// spreader node, then the sink node. Ambient is a boundary condition, not
/// a node.
///
/// The conductance matrix `G` is fixed at build time (only
/// [`RcNetwork::set_sink_conductance`] changes it), so its factorization
/// is computed once and cached: every steady-state solve — and there is
/// one per fixpoint iteration — is a cheap back-substitution instead of
/// a refactorization. This mirrors HotSpot's reuse of the factored
/// thermal matrix across solves. The chip model solves one 12-node core
/// tile per network, where a dense [`LuFactorization`] is both the
/// simplest and the fastest choice.
#[derive(Debug)]
pub struct RcNetwork {
    n_blocks: usize,
    /// Dense symmetric conductance matrix including boundary conductance on
    /// the diagonal, row-major `(n_blocks+2)²`.
    g: Vec<f64>,
    /// Cached factorization of `g`, rebuilt only when `g` changes.
    g_lu: LuFactorization,
    /// Per-node thermal capacitance, J/K.
    c: Vec<f64>,
    /// Boundary conductance to ambient per node (only the sink's entry is
    /// nonzero in the standard package).
    g_amb: Vec<f64>,
    /// Bumped on every mutation of `g`. Outstanding [`TransientSolver`]s
    /// carry the value they were factored at and refuse to step once it
    /// moves — a stale `(C/dt + G)` would silently use the old
    /// conductances.
    revision: Arc<AtomicU64>,
}

impl Clone for RcNetwork {
    fn clone(&self) -> Self {
        Self {
            n_blocks: self.n_blocks,
            g: self.g.clone(),
            g_lu: self.g_lu.clone(),
            c: self.c.clone(),
            g_amb: self.g_amb.clone(),
            // A detached counter: mutating a clone (the sink-conductance
            // calibration probes do this hundreds of times) must not
            // invalidate solvers built from the original, and vice versa.
            revision: Arc::new(AtomicU64::new(self.revision.load(Ordering::Acquire))),
        }
    }
}

impl PartialEq for RcNetwork {
    fn eq(&self, other: &Self) -> bool {
        // The revision counter is solver-invalidation bookkeeping, not
        // network state.
        self.n_blocks == other.n_blocks
            && self.g == other.g
            && self.g_lu == other.g_lu
            && self.c == other.c
            && self.g_amb == other.g_amb
    }
}

impl RcNetwork {
    /// Builds the network for a floorplan and package.
    pub fn build(floorplan: &Floorplan, package: &PackageParams) -> Self {
        let blocks = floorplan.blocks();
        let nb = blocks.len();
        let n = nb + 2;
        let spreader = nb;
        let sink = nb + 1;

        let mut g = vec![0.0; n * n];
        let mut g_amb = vec![0.0; n];
        let mut c = vec![0.0; n];

        let add = |g: &mut Vec<f64>, i: usize, j: usize, cond: f64| {
            g[i * n + i] += cond;
            g[j * n + j] += cond;
            g[i * n + j] -= cond;
            g[j * n + i] -= cond;
        };

        let per_area_vertical = package.k_silicon / package.die_thickness_m; // W/(m²·K)
        for (i, b) in blocks.iter().enumerate() {
            let area_m2 = b.area().as_f64() * 1e-6;
            add(&mut g, i, spreader, per_area_vertical * area_m2);
            c[i] = package.c_silicon * area_m2 * package.die_thickness_m;
        }
        // Lateral conduction between adjacent blocks.
        for i in 0..nb {
            for j in (i + 1)..nb {
                let shared_mm = blocks[i].shared_edge_mm(&blocks[j]);
                if shared_mm <= 0.0 {
                    continue;
                }
                let (xi, yi) = blocks[i].centroid();
                let (xj, yj) = blocks[j].centroid();
                let dist_m = ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt() * 1e-3;
                let cond = package.k_silicon * package.die_thickness_m * (shared_mm * 1e-3)
                    / dist_m.max(1e-6);
                add(&mut g, i, j, cond);
            }
        }
        add(&mut g, spreader, sink, package.g_spreader_sink);
        g_amb[sink] = package.g_sink_ambient;
        g[sink * n + sink] += package.g_sink_ambient;
        c[spreader] = package.c_spreader;
        c[sink] = package.c_sink;

        let g_lu = LuFactorization::factor(n, &g)
            .expect("thermal conductance matrix is SPD and nonsingular");
        Self {
            n_blocks: nb,
            g,
            g_lu,
            c,
            g_amb,
            revision: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Number of floorplan-block nodes.
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Total node count (blocks + spreader + sink).
    fn n(&self) -> usize {
        self.n_blocks + 2
    }

    /// The dense conductance matrix `G`, row-major `(n_blocks+2)²`,
    /// including the boundary conductance on the sink's diagonal entry.
    ///
    /// Exposed so differential tests can solve the very matrices the
    /// thermal solvers factor (rather than synthetic lookalikes).
    pub fn conductance(&self) -> &[f64] {
        &self.g
    }

    /// Steady-state temperatures for the given per-block powers and ambient
    /// temperature. Returns one temperature per node (blocks, then
    /// spreader, then sink).
    ///
    /// # Panics
    ///
    /// Panics if `powers.len() != n_blocks()`.
    pub fn steady_state(&self, powers: &[Watts], ambient: Celsius) -> Vec<Celsius> {
        assert_eq!(powers.len(), self.n_blocks, "one power entry per block");
        let n = self.n();
        let mut rhs = vec![0.0; n];
        for (i, p) in powers.iter().enumerate() {
            rhs[i] = p.as_f64();
        }
        for (r, g) in rhs.iter_mut().zip(&self.g_amb) {
            *r += g * ambient.as_f64();
        }
        let t = self.g_lu.solve(&rhs);
        t.into_iter().map(Celsius::new).collect()
    }

    /// Builds the reusable implicit-Euler stepper for time step `dt`:
    /// factors `(C/dt + G)` once so each [`TransientSolver::step`] is an
    /// O(n²) back-substitution.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn transient_solver(&self, dt: Seconds) -> TransientSolver {
        assert!(dt.as_f64() > 0.0, "time step must be positive");
        let n = self.n();
        let mut a = self.g.clone();
        let mut c_over_dt = vec![0.0; n];
        for i in 0..n {
            let cdt = self.c[i] / dt.as_f64();
            a[i * n + i] += cdt;
            c_over_dt[i] = cdt;
        }
        let lu = LuFactorization::factor(n, &a).expect("implicit-Euler matrix is nonsingular");
        TransientSolver {
            n_blocks: self.n_blocks,
            dt,
            lu,
            c_over_dt,
            g_amb: self.g_amb.clone(),
            revision: self.revision.load(Ordering::Acquire),
            source: Arc::clone(&self.revision),
        }
    }

    /// Updates the sink-to-ambient conductance (used by calibration) and
    /// refactors the cached conductance matrix. Any [`TransientSolver`]
    /// previously built from this network is invalidated — its next
    /// [`TransientSolver::step`] panics rather than stepping with the old
    /// conductances; rebuild it via [`RcNetwork::transient_solver`].
    pub fn set_sink_conductance(&mut self, g_sink_ambient: f64) {
        assert!(g_sink_ambient > 0.0, "conductance must be positive");
        let n = self.n();
        let sink = n - 1;
        self.g[sink * n + sink] -= self.g_amb[sink];
        self.g_amb[sink] = g_sink_ambient;
        self.g[sink * n + sink] += g_sink_ambient;
        self.revision.fetch_add(1, Ordering::Release);
        self.g_lu = LuFactorization::factor(n, &self.g)
            .expect("thermal conductance matrix is SPD and nonsingular");
    }
}

/// A reusable implicit-Euler stepper for one RC network at a fixed time
/// step: the `(C/dt + G)` matrix is factored once at construction, so
/// every [`TransientSolver::step`] costs one O(n²) solve. Build via
/// [`RcNetwork::transient_solver`].
#[derive(Debug, Clone)]
pub struct TransientSolver {
    n_blocks: usize,
    dt: Seconds,
    lu: LuFactorization,
    c_over_dt: Vec<f64>,
    g_amb: Vec<f64>,
    /// Network revision the `(C/dt + G)` factors were built at.
    revision: u64,
    /// The owning network's revision counter (shared by clones — a clone
    /// of a stale solver is equally stale).
    source: Arc<AtomicU64>,
}

impl PartialEq for TransientSolver {
    fn eq(&self, other: &Self) -> bool {
        // Staleness bookkeeping is not part of the mathematical state.
        self.n_blocks == other.n_blocks
            && self.dt == other.dt
            && self.lu == other.lu
            && self.c_over_dt == other.c_over_dt
            && self.g_amb == other.g_amb
    }
}

impl TransientSolver {
    /// The fixed step length this solver was factored for.
    pub fn dt(&self) -> Seconds {
        self.dt
    }

    /// Advances the network one step of `dt` from node temperatures
    /// `t_now` under per-block powers. Returns the new node temperatures.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches, or if the owning [`RcNetwork`] was
    /// modified (e.g. by [`RcNetwork::set_sink_conductance`]) after this
    /// solver was factored — stepping would silently use the old
    /// conductances.
    pub fn step(&self, t_now: &[Celsius], powers: &[Watts], ambient: Celsius) -> Vec<Celsius> {
        assert_eq!(
            self.source.load(Ordering::Acquire),
            self.revision,
            "stale TransientSolver: the RcNetwork changed after this solver \
             was built; rebuild it with RcNetwork::transient_solver"
        );
        tlp_obs::metrics::THERMAL_TRANSIENT_STEPS.incr();
        let n = self.lu.n();
        assert_eq!(t_now.len(), n, "one temperature per node");
        assert_eq!(powers.len(), self.n_blocks, "one power entry per block");
        // (C/dt + G) T' = C/dt·T + P + g_amb·T_amb
        let mut rhs = vec![0.0; n];
        for i in 0..n {
            rhs[i] = self.c_over_dt[i] * t_now[i].as_f64() + self.g_amb[i] * ambient.as_f64();
        }
        for (i, p) in powers.iter().enumerate() {
            rhs[i] += p.as_f64();
        }
        let t = self.lu.solve(&rhs);
        t.into_iter().map(Celsius::new).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;

    fn small_net() -> (Floorplan, RcNetwork) {
        let f = Floorplan::ev6_tile(3.5);
        let net = RcNetwork::build(&f, &PackageParams::default());
        (f, net)
    }

    #[test]
    fn zero_power_settles_at_ambient() {
        let (f, net) = small_net();
        let temps = net.steady_state(&vec![Watts::ZERO; f.blocks().len()], Celsius::new(45.0));
        for t in temps {
            assert!(
                (t.as_f64() - 45.0).abs() < 1e-6,
                "temperature {t} != ambient"
            );
        }
    }

    #[test]
    fn all_temps_above_ambient_under_power() {
        let (f, net) = small_net();
        let powers = vec![Watts::new(1.0); f.blocks().len()];
        let temps = net.steady_state(&powers, Celsius::new(45.0));
        for t in temps {
            assert!(t.as_f64() > 45.0);
        }
    }

    #[test]
    fn temperature_monotone_in_power() {
        let (f, net) = small_net();
        let p1 = vec![Watts::new(1.0); f.blocks().len()];
        let p2 = vec![Watts::new(2.0); f.blocks().len()];
        let t1 = net.steady_state(&p1, Celsius::new(45.0));
        let t2 = net.steady_state(&p2, Celsius::new(45.0));
        for (a, b) in t1.iter().zip(&t2) {
            assert!(b.as_f64() > a.as_f64());
        }
    }

    #[test]
    fn superposition_holds_for_linear_network() {
        // Steady state is linear in power: T(p1+p2) - Tamb = (T(p1)-Tamb)+(T(p2)-Tamb).
        let (f, net) = small_net();
        let nb = f.blocks().len();
        let amb = Celsius::new(40.0);
        let mut p1 = vec![Watts::ZERO; nb];
        p1[1] = Watts::new(3.0);
        let mut p2 = vec![Watts::ZERO; nb];
        p2[5] = Watts::new(2.0);
        let both: Vec<Watts> = p1.iter().zip(&p2).map(|(a, b)| *a + *b).collect();
        let t1 = net.steady_state(&p1, amb);
        let t2 = net.steady_state(&p2, amb);
        let tb = net.steady_state(&both, amb);
        for i in 0..nb {
            let lhs = tb[i].as_f64() - 40.0;
            let rhs = (t1[i].as_f64() - 40.0) + (t2[i].as_f64() - 40.0);
            assert!((lhs - rhs).abs() < 1e-8, "superposition at node {i}");
        }
    }

    #[test]
    fn heated_block_is_hottest() {
        let (f, net) = small_net();
        let nb = f.blocks().len();
        let hot = f.index_of("core0.intexec").unwrap();
        let mut p = vec![Watts::ZERO; nb];
        p[hot] = Watts::new(5.0);
        let t = net.steady_state(&p, Celsius::new(45.0));
        let hottest = (0..nb)
            .max_by(|&a, &b| t[a].as_f64().total_cmp(&t[b].as_f64()))
            .unwrap();
        assert_eq!(hottest, hot);
    }

    #[test]
    fn transient_approaches_steady_state() {
        let (f, net) = small_net();
        let nb = f.blocks().len();
        let amb = Celsius::new(45.0);
        let powers = vec![Watts::new(0.5); nb];
        let target = net.steady_state(&powers, amb);
        let mut t = vec![amb; nb + 2];
        // March 900 s in 1 s implicit steps — several sink time constants
        // (the lumped sink's τ = C/g = 150 s dominates settling).
        let solver = net.transient_solver(Seconds::new(1.0));
        for _ in 0..900 {
            t = solver.step(&t, &powers, amb);
        }
        for (now, goal) in t.iter().zip(&target) {
            assert!(
                (now.as_f64() - goal.as_f64()).abs() < 0.05,
                "transient {} vs steady {}",
                now,
                goal
            );
        }
    }

    #[test]
    fn transient_is_monotone_while_heating() {
        let (f, net) = small_net();
        let nb = f.blocks().len();
        let amb = Celsius::new(45.0);
        let powers = vec![Watts::new(1.0); nb];
        let mut t = vec![amb; nb + 2];
        let mut prev_avg = 45.0;
        let solver = net.transient_solver(Seconds::new(0.05));
        for _ in 0..20 {
            t = solver.step(&t, &powers, amb);
            let avg: f64 = t[..nb].iter().map(|x| x.as_f64()).sum::<f64>() / nb as f64;
            assert!(avg >= prev_avg - 1e-9);
            prev_avg = avg;
        }
    }

    /// One implicit-Euler step solved from scratch: assembles
    /// `(C/dt + G) T' = C/dt·T + P + g_amb·T_amb` and hands it to
    /// `solve_dense`, sharing nothing with [`TransientSolver`] but the
    /// network's matrices.
    fn one_shot_step(
        net: &RcNetwork,
        t_now: &[Celsius],
        powers: &[Watts],
        ambient: Celsius,
        dt: Seconds,
    ) -> Vec<Celsius> {
        let n = net.n();
        let mut a = net.conductance().to_vec();
        let mut rhs = vec![0.0; n];
        for i in 0..n {
            let c_over_dt = net.c[i] / dt.as_f64();
            a[i * n + i] += c_over_dt;
            rhs[i] = c_over_dt * t_now[i].as_f64() + net.g_amb[i] * ambient.as_f64();
        }
        for (r, p) in rhs.iter_mut().zip(powers) {
            *r += p.as_f64();
        }
        let t = tlp_tech::linalg::solve_dense(n, &a, &rhs).unwrap();
        t.into_iter().map(Celsius::new).collect()
    }

    #[test]
    fn cached_transient_solver_matches_one_shot_steps() {
        let (f, net) = small_net();
        let nb = f.blocks().len();
        let amb = Celsius::new(45.0);
        let powers = vec![Watts::new(0.8); nb];
        let dt = Seconds::new(0.5);
        let solver = net.transient_solver(dt);
        assert_eq!(solver.dt(), dt);
        let mut via_solver = vec![amb; nb + 2];
        let mut via_one_shot = vec![amb; nb + 2];
        for _ in 0..25 {
            via_solver = solver.step(&via_solver, &powers, amb);
            via_one_shot = one_shot_step(&net, &via_one_shot, &powers, amb, dt);
        }
        assert_eq!(via_solver, via_one_shot);
    }

    #[test]
    fn higher_sink_conductance_runs_cooler() {
        let (f, mut net) = small_net();
        let nb = f.blocks().len();
        let powers = vec![Watts::new(1.0); nb];
        let warm = net.steady_state(&powers, Celsius::new(45.0));
        net.set_sink_conductance(8.0);
        let cool = net.steady_state(&powers, Celsius::new(45.0));
        assert!(cool[0].as_f64() < warm[0].as_f64());
    }

    #[test]
    #[should_panic(expected = "stale TransientSolver")]
    fn calibration_after_solver_build_invalidates_it() {
        // Regression: set_sink_conductance refactored the steady-state
        // matrix but an outstanding TransientSolver silently kept its
        // stale (C/dt + G) factors. Now it refuses to step.
        let (f, mut net) = small_net();
        let nb = f.blocks().len();
        let solver = net.transient_solver(Seconds::new(0.5));
        net.set_sink_conductance(5.0); // calibration retunes the sink
        let _ = solver.step(
            &vec![Celsius::new(45.0); nb + 2],
            &vec![Watts::new(1.0); nb],
            Celsius::new(45.0),
        );
    }

    #[test]
    fn rebuilt_solver_after_sink_change_matches_one_shot() {
        let (f, mut net) = small_net();
        let nb = f.blocks().len();
        net.set_sink_conductance(5.0);
        let solver = net.transient_solver(Seconds::new(0.5));
        let t0 = vec![Celsius::new(45.0); nb + 2];
        let powers = vec![Watts::new(1.0); nb];
        assert_eq!(
            solver.step(&t0, &powers, Celsius::new(45.0)),
            one_shot_step(&net, &t0, &powers, Celsius::new(45.0), Seconds::new(0.5))
        );
    }

    #[test]
    fn mutating_a_clone_does_not_invalidate_original_solvers() {
        // The thermal calibration probes clone the network and retune the
        // clone's sink hundreds of times; solvers built from the original
        // must stay valid throughout.
        let (f, net) = small_net();
        let nb = f.blocks().len();
        let solver = net.transient_solver(Seconds::new(0.5));
        let mut probe = net.clone();
        assert_eq!(probe, net);
        probe.set_sink_conductance(123.0);
        let t = solver.step(
            &vec![Celsius::new(45.0); nb + 2],
            &vec![Watts::ZERO; nb],
            Celsius::new(45.0),
        );
        assert_eq!(t.len(), nb + 2);
    }

    /// Asserts that the cached steady-state solve equals a one-shot
    /// `solve_dense` on the same matrix and right-hand side, bit for bit.
    fn assert_steady_state_matches_solve_dense(net: &RcNetwork) {
        let nb = net.n_blocks();
        let n = nb + 2;
        let powers: Vec<Watts> = (0..nb).map(|i| Watts::new(0.1 + 0.05 * i as f64)).collect();
        let amb = Celsius::new(45.0);
        let via_net = net.steady_state(&powers, amb);
        let mut rhs = vec![0.0; n];
        for (i, p) in powers.iter().enumerate() {
            rhs[i] = p.as_f64();
        }
        rhs[n - 1] += net.g_amb[n - 1] * amb.as_f64();
        let dense = tlp_tech::linalg::solve_dense(n, net.conductance(), &rhs).unwrap();
        assert_eq!(
            via_net.iter().map(|t| t.as_f64()).collect::<Vec<_>>(),
            dense
        );
    }

    #[test]
    fn cached_steady_state_matches_one_shot_solve_exactly() {
        // The 12-node core tiles the chip models build (ten EV6 blocks
        // plus spreader and sink) at the tile edges of the 16-core and
        // the 1-core ISPASS die; each again after the sink retune that
        // the calibration bisection applies, which must refactor the
        // cache.
        for cores in [16.0, 1.0] {
            let f = Floorplan::ev6_tile((15.6f64 * 15.6 * 0.65 / cores).sqrt());
            let mut net = RcNetwork::build(&f, &PackageParams::default());
            assert_eq!(net.n(), 12);
            assert_steady_state_matches_solve_dense(&net);
            net.set_sink_conductance(3.7);
            assert_steady_state_matches_solve_dense(&net);
        }
    }

    #[test]
    #[should_panic(expected = "one power entry per block")]
    fn wrong_power_length_panics() {
        let (_, net) = small_net();
        let _ = net.steady_state(&[Watts::new(1.0)], Celsius::new(45.0));
    }
}
