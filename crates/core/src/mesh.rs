//! Weakly-meshed networks and distributed generation.
//!
//! The radial sweeps in this crate exploit the tree structure of
//! distribution feeders; real feeders carry a handful of normally-closed
//! tie switches (weak loops) and, increasingly, distributed generators
//! holding voltage set-points. This module closes both gaps with the
//! classic *compensation* construction (Shirmohammadi et al.) around an
//! unchanged radial inner solve — any engine of the one interface,
//! [`SweepBackend`], including the fault-tolerant supervisor:
//!
//! * **Break-point compensation.** Each closed tie is opened at a break
//!   point by [`powergrid::MeshedNetwork`]'s spanning-tree extraction.
//!   After each inner radial solve, the voltage mismatch across break
//!   point `j` is `E_j = V_a − V_b − z_tie·J_j`. The loop currents are
//!   corrected by one dense k×k complex solve `Z·ΔJ = E`, where `Z` is
//!   the Thevenin loop-impedance matrix (`Z_ij` = signed overlap of the
//!   two loops' tree paths, `Z_ii` additionally carries the tie's own
//!   impedance), then injected into the next inner solve as equivalent
//!   constant-power loads `S_a += V_a·conj(J)`, `S_b −= V_b·conj(J)`.
//! * **PV-bus outer loop.** Each generator ([`powergrid::PvBus`]) holds
//!   `|V|` at its set-point by adjusting reactive output with the
//!   root-path-reactance sensitivity `Δq ≈ err·|V|/x_th`. Hitting a Q
//!   limit switches the bus to PQ (fixed at the limit); it re-enters PV
//!   only once the desired Q falls back inside the limits by a
//!   hysteresis margin, and a per-generator mode-flip budget turns
//!   genuine limit-cycling into a structural failure instead of a
//!   silently burned iteration cap.
//!
//! Both corrections share one outer loop, [`solve_dg`], and one
//! [`OuterStatus`], so divergence and limit-cycling surface in
//! [`SolveStatus`] (as [`SolveStatus::OuterDiverged`], CLI exit code 9)
//! rather than masquerading as `MaxIterations`. The loop is generic over
//! the per-bus [`Phasor`]: a three-phase network has no break points, so
//! only its PV control engages.

use std::convert::Infallible;

use numc::{c, solve_dense, CVec3, Complex};
use powergrid::three_phase::ThreePhaseNetwork;
use powergrid::{MeshedNetwork, PvBus, RadialNetwork};
use simt::HostProps;
use telemetry::Recorder;

use crate::arrays::{LevelArrays, SolverArrays};
use crate::config::SolverConfig;
use crate::engine::SweepBackend;
use crate::obs::Obs;
use crate::phasor::Phasor;
use crate::recovery::upgraded;
use crate::report::{FaultReport, SolveResult, Timing};
use crate::serial::SerialSolver;
use crate::status::SolveStatus;
use crate::tensor_batch::TensorBatchSolver;
use crate::three_phase::Arrays3;

/// Knobs of the mesh/DG outer loop (the inner sweeps keep using
/// [`SolverConfig`] untouched).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OuterConfig {
    /// Maximum outer iterations (each runs one full inner solve).
    pub max_outer: u32,
    /// Outer convergence tolerance, relative to the source-voltage
    /// magnitude — both the break-point mismatch `max|E_j|` and the
    /// worst PV set-point error must fall under it.
    pub tol_rel: f64,
    /// Hysteresis for PV re-entry after a Q-limit clamp, as a fraction
    /// of the generator's `q_max − q_min` range: the desired Q must come
    /// back inside the limit by this margin before the bus flips back to
    /// PV. Damps chattering right at a limit.
    pub hysteresis: f64,
    /// Damping on the PV reactive-power update (1.0 = full Newton step
    /// on the root-path-reactance sensitivity). Values below 1 trade a
    /// few outer iterations for robustness when generators couple
    /// through shared trunk impedance.
    pub damping: f64,
    /// Per-generator PV↔PQ mode-flip budget; exceeding it is declared a
    /// limit cycle ([`OuterStatus::LimitCycle`]).
    pub max_mode_flips: u32,
    /// Consecutive outer iterations the mismatch may grow before the
    /// outer loop is declared divergent.
    pub patience: u32,
}

impl Default for OuterConfig {
    fn default() -> Self {
        OuterConfig {
            max_outer: 40,
            tol_rel: 1e-6,
            hysteresis: 0.05,
            damping: 0.7,
            max_mode_flips: 6,
            patience: 4,
        }
    }
}

impl OuterConfig {
    /// Builder: outer iteration cap.
    pub fn with_max_outer(mut self, max_outer: u32) -> Self {
        self.max_outer = max_outer;
        self
    }

    /// Builder: relative outer tolerance.
    pub fn with_tol(mut self, tol_rel: f64) -> Self {
        self.tol_rel = tol_rel;
        self
    }

    /// `true` when every knob is usable.
    pub fn is_valid(&self) -> bool {
        self.max_outer >= 1
            && self.tol_rel.is_finite()
            && self.tol_rel > 0.0
            && self.hysteresis.is_finite()
            && (0.0..=0.5).contains(&self.hysteresis)
            && self.damping.is_finite()
            && self.damping > 0.0
            && self.damping <= 1.0
            && self.patience >= 1
    }
}

/// How the mesh/DG outer loop ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OuterStatus {
    /// The network had no loops and no generators; exactly one inner
    /// solve ran and no outer machinery was engaged.
    Radial,
    /// Break-point mismatch and PV errors met the outer tolerance.
    Converged {
        /// Outer iterations spent (≥ 1).
        outer_iterations: u32,
    },
    /// The outer cap was reached with a finite, non-exploding mismatch —
    /// slow coupling, not structural failure.
    MaxOuterIterations,
    /// The mismatch grew without bound (or went non-finite, or the loop
    /// Thevenin system was singular).
    Diverged {
        /// Outer iteration (1-based) at which divergence was declared.
        at_outer: u32,
    },
    /// A generator exhausted its PV↔PQ mode-flip budget.
    LimitCycle {
        /// Outer iteration (1-based) at which the budget ran out.
        at_outer: u32,
    },
    /// An inner radial solve failed (or timed out) before the outer loop
    /// could settle; the inner [`SolveStatus`] carries the detail.
    InnerFailed {
        /// Outer iteration (1-based) of the failing inner solve.
        at_outer: u32,
    },
}

impl std::fmt::Display for OuterStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OuterStatus::Radial => write!(f, "radial"),
            OuterStatus::Converged { outer_iterations } => {
                write!(f, "converged ({outer_iterations} outer iterations)")
            }
            OuterStatus::MaxOuterIterations => write!(f, "max-outer-iterations"),
            OuterStatus::Diverged { at_outer } => {
                write!(f, "diverged (outer iteration {at_outer})")
            }
            OuterStatus::LimitCycle { at_outer } => {
                write!(f, "limit-cycle (outer iteration {at_outer})")
            }
            OuterStatus::InnerFailed { at_outer } => {
                write!(f, "inner-failed (outer iteration {at_outer})")
            }
        }
    }
}

/// Operating mode of one generator at the end of a solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GenMode {
    /// Holding its voltage set-point (Q inside the limits).
    Pv,
    /// Clamped at `q_min`, behaving as a PQ bus.
    ClampedMin,
    /// Clamped at `q_max`, behaving as a PQ bus.
    ClampedMax,
}

impl std::fmt::Display for GenMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GenMode::Pv => "pv",
            GenMode::ClampedMin => "clamped-at-qmin",
            GenMode::ClampedMax => "clamped-at-qmax",
        })
    }
}

/// Result of one meshed/DG solve, of either phase kind.
#[derive(Clone, Debug)]
pub struct MeshResult<V: Phasor = Complex> {
    /// The final inner solve (voltages and branch currents by bus id,
    /// with timing/iterations *accumulated over every inner solve* of
    /// the outer loop). Its own `status` is the last inner outcome.
    pub inner: SolveResult<V>,
    /// Overall status: the inner status when the outer loop settled
    /// (or never engaged) — recovered, with every round's faults and
    /// retries, if any round absorbed a fault —
    /// [`SolveStatus::OuterDiverged`] on outer
    /// divergence or limit-cycling, [`SolveStatus::MaxIterations`] on
    /// outer-cap exhaustion.
    pub status: SolveStatus,
    /// How the outer loop ended.
    pub outer_status: OuterStatus,
    /// Outer iterations run (0 for a plain radial network).
    pub outer_iterations: u32,
    /// Final break-point mismatch `max_j |E_j|`, volts (0 with no loops).
    pub breakpoint_residual: f64,
    /// Final worst PV set-point error over PV-mode generators, volts
    /// (0 with no generators in PV mode).
    pub pv_error: f64,
    /// Final loop (tie) currents, one per break point, amperes (none for
    /// a three-phase network).
    pub loop_currents: Vec<Complex>,
    /// Final reactive output per generator (total over its phases), vars.
    pub q_gen: Vec<f64>,
    /// Final operating mode per generator.
    pub gen_modes: Vec<GenMode>,
    /// Total PV↔PQ mode flips across all generators.
    pub mode_flips: u32,
}

impl<V: Phasor> MeshResult<V> {
    /// `true` when the overall status met the tolerance.
    pub fn converged(&self) -> bool {
        self.status.is_converged()
    }
}

/// The precomputed, topology-only part of a meshed/DG problem: the
/// level-ordered arrays, base loads, the Thevenin loop-impedance matrix
/// and per-generator voltage sensitivities. Shared by [`solve_dg`] and
/// the tensor-batched DG sweep — none of it changes across outer
/// iterations or scenarios.
///
/// A three-phase problem ([`MeshProblem::three_phase`]) has no break
/// points, as three-phase networks are radial; its balanced generators
/// split their power equally across the phases ([`Phasor::split`]) and
/// regulate the mean phase magnitude ([`Phasor::control_mag`]).
#[derive(Clone, Debug)]
pub struct MeshProblem<V: Phasor = Complex> {
    /// Level-ordered arrays at the base loads.
    arrays: LevelArrays<V, V::Z>,
    /// Base constant-power loads by bus id (no DG, no compensation).
    base: Vec<V>,
    /// Generator records.
    gens: Vec<PvBus>,
    /// Voltage sensitivity per generator to its total Q, ohms.
    x_th: Vec<f64>,
    /// Break-point endpoints and tie impedances `(a, b, z_tie)`.
    bps: Vec<(usize, usize, Complex)>,
    /// Row-major k×k Thevenin loop-impedance matrix.
    thevenin: Vec<Complex>,
}

impl MeshProblem {
    /// Precomputes the compensation data for a meshed network.
    pub fn new(net: &MeshedNetwork) -> Self {
        let tree = net.tree();
        let base = tree.buses().iter().map(|b| b.load).collect();
        let mut problem = Self::radial(SolverArrays::new(tree), base, net.generators().to_vec());
        problem.bps = net.break_points().iter().map(|bp| (bp.a, bp.b, bp.z)).collect();
        let (bps, k) = (&problem.bps, problem.bps.len());
        // Signed tree-path incidence per loop: σ_i(branch) = +1 for
        // branches on root-path(a_i), −1 on root-path(b_i); shared
        // prefixes cancel, leaving exactly the a→b tree path. Ordered by
        // bus so the Thevenin sums below add in the same order every run.
        let sigmas: Vec<std::collections::BTreeMap<usize, f64>> = bps
            .iter()
            .map(|&(a, b, _)| {
                let mut sig = std::collections::BTreeMap::new();
                for bus in root_path(tree, a) {
                    *sig.entry(bus).or_insert(0.0) += 1.0;
                }
                for bus in root_path(tree, b) {
                    *sig.entry(bus).or_insert(0.0) -= 1.0;
                }
                sig.retain(|_, s| *s != 0.0);
                sig
            })
            .collect();
        let mut thevenin = vec![Complex::ZERO; k * k];
        for i in 0..k {
            for jj in 0..k {
                let mut z = Complex::ZERO;
                for (&bus, &si) in &sigmas[i] {
                    if let Some(&sj) = sigmas[jj].get(&bus) {
                        let zb = tree.parent_branch(bus).expect("non-root bus has a parent").z;
                        z += zb * (si * sj);
                    }
                }
                thevenin[i * k + jj] = z;
            }
            thevenin[i * k + i] += bps[i].2;
        }

        problem.thevenin = thevenin;
        problem
    }
}

impl MeshProblem<CVec3> {
    /// Precomputes the PV-control data for a three-phase network.
    pub fn three_phase(net: &ThreePhaseNetwork) -> Self {
        let base = net.buses().iter().map(|b| b.load).collect();
        Self::radial(Arrays3::new(net), base, net.generators().to_vec())
    }
}

impl<V: Phasor> MeshProblem<V> {
    /// A problem with no break points: each generator's Q sensitivity
    /// comes from the impedances on its root path
    /// ([`Phasor::q_sensitivity`]).
    fn radial(arrays: LevelArrays<V, V::Z>, base: Vec<V>, gens: Vec<PvBus>) -> Self {
        // The impedances feeding `bus` and its ancestors; position 0 is
        // the root, which no branch feeds.
        let a = &arrays;
        let root_path = |bus: usize| {
            let up = move |&p: &usize| Some(a.levels.parent_pos[p] as usize);
            std::iter::successors(Some(a.levels.pos_of[bus] as usize), up)
                .take_while(|&p| p != 0)
                .map(move |p| a.z[p])
        };
        let x_th = gens.iter().map(|g| V::q_sensitivity(root_path(g.bus)).max(1e-9)).collect();
        MeshProblem { arrays, base, gens, x_th, bps: Vec::new(), thevenin: Vec::new() }
    }
}

impl<V: Phasor> MeshProblem<V> {
    /// The level-ordered arrays at the base loads: what a radial inner
    /// solve runs on.
    pub fn arrays(&self) -> &LevelArrays<V, V::Z> {
        &self.arrays
    }

    /// Number of loops (break points).
    pub fn num_loops(&self) -> usize {
        self.bps.len()
    }

    /// Number of generators.
    pub fn num_gens(&self) -> usize {
        self.gens.len()
    }

    /// The row-major k×k Thevenin loop-impedance matrix (tests compare
    /// it against hand-computed references).
    pub fn thevenin(&self) -> &[Complex] {
        &self.thevenin
    }

    /// A fresh outer-loop state: zero loop currents, generators in PV
    /// mode at `Q = 0` (clamped into their limits).
    pub fn initial_state(&self) -> MeshState {
        MeshState::new(&self.gens, self.bps.len())
    }

    /// The constant-power loads (by bus id) the next inner solve should
    /// use: base loads minus DG injections (`p_gen` scaled by
    /// `dg_scale`) minus/plus the break-point compensation converted to
    /// power at the latest voltages `v`.
    pub fn loads(&self, state: &MeshState, v: &[V], dg_scale: f64) -> Vec<V> {
        let mut s = self.base.clone();
        for (gi, g) in self.gens.iter().enumerate() {
            s[g.bus] -= V::split(c(g.p_gen * dg_scale, state.q[gi]));
        }
        if let (Some(s), Some(v)) = (V::single_phase_mut(&mut s), V::single_phase(v)) {
            for (j, &(a, b, _)) in self.bps.iter().enumerate() {
                let jj = state.j_loop[j];
                s[a] += v[a] * jj.conj();
                s[b] -= v[b] * jj.conj();
            }
        }
        s
    }

    /// One outer correction from the solved voltages `v` (by bus id):
    /// measures the break-point mismatch, solves the Thevenin system for
    /// the loop-current update, and steps every generator's Q toward its
    /// set-point with limit/hysteresis handling. Returns the mismatch
    /// measured *before* the update (the quantity the outer loop
    /// converges on).
    pub fn step(&self, state: &mut MeshState, v: &[V], outer: &OuterConfig) -> OuterStep {
        // Break-point mismatch and compensation update.
        let (mut bp_residual, mut singular) = (0.0, false);
        if let Some(v) = V::single_phase(v).filter(|_| !self.bps.is_empty()) {
            let mut e: Vec<Complex> = self
                .bps
                .iter()
                .enumerate()
                .map(|(j, &(a, b, z))| v[a] - v[b] - z * state.j_loop[j])
                .collect();
            bp_residual = e.iter().map(|x| x.abs()).fold(0.0, f64::max);
            let mut z = self.thevenin.clone();
            match solve_dense(&mut z, &mut e, self.bps.len()) {
                Ok(()) => {
                    for (jj, dj) in state.j_loop.iter_mut().zip(&e) {
                        *jj += *dj;
                    }
                }
                Err(_) => singular = true,
            }
        }

        // PV step: Newton Q update on the sensitivity `x_th`, Q-limit
        // clamping with hysteresis re-entry, mode-flip accounting.
        let mut pv_error = 0.0f64;
        let mut limit_cycle = false;
        for (gi, g) in self.gens.iter().enumerate() {
            let vm = v[g.bus].control_mag();
            let err = g.v_set - vm;
            let dq = outer.damping * err * vm / self.x_th[gi];
            let desired = state.q[gi] + dq;
            let hyst = outer.hysteresis * (g.q_max - g.q_min);
            let mode = state.modes[gi];
            let new_mode = match mode {
                GenMode::Pv if desired > g.q_max => GenMode::ClampedMax,
                GenMode::Pv if desired < g.q_min => GenMode::ClampedMin,
                GenMode::ClampedMax if desired < g.q_max - hyst => GenMode::Pv,
                GenMode::ClampedMin if desired > g.q_min + hyst => GenMode::Pv,
                m => m,
            };
            if new_mode != mode {
                state.flips[gi] += 1;
                if state.flips[gi] > outer.max_mode_flips {
                    limit_cycle = true;
                }
            }
            state.modes[gi] = new_mode;
            let q_before = state.q[gi];
            state.q[gi] = match new_mode {
                GenMode::Pv => desired.clamp(g.q_min, g.q_max),
                GenMode::ClampedMax => g.q_max,
                GenMode::ClampedMin => g.q_min,
            };
            // Only PV-mode buses owe their set-point; clamped buses are
            // honest PQ buses at the limit.
            if new_mode == GenMode::Pv {
                pv_error = pv_error.max(err.abs());
            }
            // Whatever the mode, the solution just measured was computed
            // with the *previous* Q: an applied Q change means the
            // voltages are stale by about Δq·x_th/|V|, so a limit clamp
            // (which zeroes the set-point obligation) cannot declare
            // convergence before one consistent re-solve.
            let dv_stale = (state.q[gi] - q_before).abs() * self.x_th[gi] / vm.max(1.0);
            pv_error = pv_error.max(dv_stale);
        }

        OuterStep { bp_residual, pv_error, singular, limit_cycle }
    }
}

/// Mutable outer-loop state: loop currents plus per-generator Q, mode
/// and flip counters. One per scenario in batched sweeps.
#[derive(Clone, Debug)]
pub struct MeshState {
    /// Loop (tie) current per break point, amperes, flowing a→b.
    pub j_loop: Vec<Complex>,
    /// Reactive output per generator, vars.
    pub q: Vec<f64>,
    /// Operating mode per generator.
    pub modes: Vec<GenMode>,
    /// PV↔PQ mode flips per generator.
    pub flips: Vec<u32>,
}

impl MeshState {
    /// `loops` zero loop currents, and every generator in PV mode at
    /// `Q = 0` clamped into its limits.
    fn new(gens: &[PvBus], loops: usize) -> Self {
        MeshState {
            j_loop: vec![Complex::ZERO; loops],
            q: gens.iter().map(|g| 0.0f64.clamp(g.q_min, g.q_max)).collect(),
            modes: vec![GenMode::Pv; gens.len()],
            flips: vec![0; gens.len()],
        }
    }

    /// Total mode flips across all generators.
    pub fn total_flips(&self) -> u32 {
        self.flips.iter().sum()
    }
}

/// What one [`MeshProblem::step`] measured and decided.
#[derive(Clone, Copy, Debug, Default)]
pub struct OuterStep {
    /// `max_j |E_j|` before the update, volts.
    pub bp_residual: f64,
    /// Worst PV set-point error over PV-mode generators, volts.
    pub pv_error: f64,
    /// The Thevenin system was singular (degenerate tie impedances).
    pub singular: bool,
    /// Some generator exceeded its mode-flip budget this step.
    pub limit_cycle: bool,
}

impl OuterStep {
    /// The scalar the outer loop converges on.
    pub fn mismatch(&self) -> f64 {
        self.bp_residual.max(self.pv_error)
    }
}

/// How an outer loop ended: the overall status and the outer outcome.
type OuterOutcome = (SolveStatus, OuterStatus);

/// The outer loop's stopping rule, written once for every driver:
/// [`solve_dg`] (either phase kind) and each scenario of the batched DG
/// sweep. A round is judged in a fixed order — inner failure;
/// a singular Thevenin system or a non-finite or over-cap mismatch; a
/// limit cycle; convergence (tight rounds only); `patience` consecutive
/// growths. A loop that runs out of rounds ends [`Self::EXHAUSTED`].
#[derive(Clone, Debug)]
struct OuterMonitor {
    /// Outer tolerance, volts.
    tol_v: f64,
    /// Divergence cap on the mismatch, volts.
    cap_v: f64,
    /// Consecutive growths tolerated before divergence.
    patience: u32,
    /// Mismatch of the last round that did not end the loop.
    prev: f64,
    /// Consecutive rounds the mismatch has grown.
    growth: u32,
}

impl OuterMonitor {
    /// Outcome of a loop that used every round without settling: slow
    /// coupling, not structural failure.
    const EXHAUSTED: OuterOutcome = (SolveStatus::MaxIterations, OuterStatus::MaxOuterIterations);

    /// A monitor for a feeder whose control voltages scale with `v0_mag`.
    fn new(outer: &OuterConfig, cfg: &SolverConfig, v0_mag: f64) -> Self {
        OuterMonitor {
            tol_v: outer.tol_rel * v0_mag,
            cap_v: cfg.divergence_cap_volts(v0_mag),
            patience: outer.patience,
            prev: f64::INFINITY,
            growth: 0,
        }
    }

    /// Judges outer round `it`, whose inner solve ended with `inner`.
    /// `step` applies the outer correction and runs only when the inner
    /// solve converged; a loose round (`tight == false`) may not declare
    /// convergence. `None` means run another round.
    fn round(
        &mut self,
        it: u32,
        inner: SolveStatus,
        tight: bool,
        step: impl FnOnce() -> OuterStep,
    ) -> Option<OuterOutcome> {
        if !inner.is_converged() {
            return Some((inner, OuterStatus::InnerFailed { at_outer: it }));
        }
        let step = step();
        let m = step.mismatch();
        let diverged =
            (SolveStatus::OuterDiverged { at_outer: it }, OuterStatus::Diverged { at_outer: it });
        if step.singular || !m.is_finite() || m > self.cap_v {
            return Some(diverged);
        }
        if step.limit_cycle {
            return Some((
                SolveStatus::OuterDiverged { at_outer: it },
                OuterStatus::LimitCycle { at_outer: it },
            ));
        }
        if tight && m <= self.tol_v {
            return Some((inner, OuterStatus::Converged { outer_iterations: it }));
        }
        self.growth = if m > self.prev { self.growth + 1 } else { 0 };
        if self.growth >= self.patience {
            return Some(diverged);
        }
        self.prev = m;
        None
    }
}

/// The meshed/DG solver: an outer compensation loop wrapped around any
/// plain single-phase [`SweepBackend`].
pub struct MeshSolver<B> {
    backend: B,
    outer: OuterConfig,
}

impl<B: SweepBackend<Error = Infallible>> MeshSolver<B> {
    /// Wraps a radial backend with the default outer configuration.
    pub fn new(backend: B) -> Self {
        MeshSolver { backend, outer: OuterConfig::default() }
    }

    /// Sets the outer-loop configuration.
    pub fn with_outer(mut self, outer: OuterConfig) -> Self {
        self.outer = outer;
        self
    }

    /// Solves a weakly-meshed/DG network: [`solve_dg`] around the
    /// backend's warm-started sweep.
    pub fn solve(&mut self, net: &MeshedNetwork, cfg: &SolverConfig) -> MeshResult {
        let Ok(res) = solve_dg(&MeshProblem::new(net), cfg, &self.outer, None, |a, warm| {
            self.backend.solve_warm_arrays(a, cfg, warm)
        });
        res
    }
}

/// Solves a weakly-meshed/DG problem of either phase kind: the
/// compensation + PV outer loop around one inner radial solve per round.
/// `inner` solves the prepared arrays, whose loads the loop patches in
/// place each round, warm-started after the first round from the
/// previous round's voltages (by bus id). Any engine plugs in as
/// `|a, warm| engine.solve_warm_arrays(a, cfg, warm)`; the fault-tolerant
/// supervisor ignores the warm start, because recovery certification
/// assumes a flat start.
///
/// The reported timing, iterations and fault report accumulate over
/// every inner solve. With a recorder, each round adds an `outer` span
/// and a `mesh.breakpoint_residual` sample, and the finished run writes
/// the `solver.outer_iterations` histogram and the `mesh.*` gauges. The
/// stopping rule is [`OuterMonitor`]'s.
pub fn solve_dg<V: Phasor, E>(
    problem: &MeshProblem<V>,
    cfg: &SolverConfig,
    outer: &OuterConfig,
    rec: Option<&Recorder>,
    mut inner: impl FnMut(&LevelArrays<V, V::Z>, Option<&[V]>) -> Result<SolveResult<V>, E>,
) -> Result<MeshResult<V>, E> {
    let n = problem.arrays.len();
    let v0 = problem.arrays.source;
    let mut state = problem.initial_state();
    let obs = Obs::new(rec, "solver.mesh");

    if cfg.validate().is_err() || !outer.is_valid() {
        let inner_res = crate::report::invalid_config_result(n, v0);
        return Ok(finish(inner_res, SolveStatus::InvalidConfig, OuterStatus::Radial, 0, &state, &OuterStep::default(), rec));
    }

    let mut a = problem.arrays.clone();
    // No loops, no generators: one plain inner solve, zero outer overhead.
    if problem.num_loops() == 0 && problem.num_gens() == 0 {
        let res = inner(&a, None)?;
        let status = res.status;
        return Ok(finish(res, status, OuterStatus::Radial, 0, &state, &OuterStep::default(), rec));
    }

    let mut monitor = OuterMonitor::new(outer, cfg, v0.control_mag());
    let mut v = vec![v0; n];
    let mut total = Timing::default();
    let mut total_inner_iters = 0u32;
    let mut faults: Option<FaultReport> = None;
    let mut last: Option<SolveResult<V>> = None;
    let mut outcome = OuterMonitor::EXHAUSTED;
    let mut step = OuterStep::default();
    let mut outer_iters = 0u32;

    for it in 1..=outer.max_outer {
        outer_iters = it;
        a.s = a.levels.permute(&problem.loads(&state, &v, 1.0));
        let warm = (it > 1).then_some(v.as_slice());
        let res = inner(&a, warm)?;
        // The final result reports the whole outer loop's cost, not
        // just its last inner solve.
        total.accumulate(&res.timing);
        total_inner_iters += res.iterations;
        if let Some(fr) = &res.fault_report {
            faults.get_or_insert_with(FaultReport::default).accumulate(fr);
        }
        let decided = monitor.round(it, res.status, true, || {
            v.copy_from_slice(&res.v);
            step = problem.step(&mut state, &v, outer);
            obs.phase("outer", total.total_us(), total.total_us());
            if let Some(r) = rec {
                r.counter_sample("mesh.breakpoint_residual", total.total_us(), step.bp_residual);
            }
            step
        });
        last = Some(res);
        if let Some(o) = decided {
            outcome = o;
            break;
        }
    }

    let (status, outer_status) = outcome;
    // A settled loop that absorbed faults in any round, not only its
    // last, is recovered, with the faults and retries of every round.
    let status = match (&faults, status) {
        (Some(fr), SolveStatus::Converged | SolveStatus::Recovered { .. }) => {
            upgraded(SolveStatus::Converged, fr)
        }
        _ => status,
    };
    let mut res = last.expect("max_outer >= 1 guarantees at least one inner solve");
    res.timing = total;
    res.iterations = total_inner_iters;
    if faults.is_some() {
        res.fault_report = faults;
    }
    Ok(finish(res, status, outer_status, outer_iters, &state, &step, rec))
}

fn finish<V: Phasor>(
    inner: SolveResult<V>,
    status: SolveStatus,
    outer_status: OuterStatus,
    outer_iterations: u32,
    state: &MeshState,
    last: &OuterStep,
    rec: Option<&Recorder>,
) -> MeshResult<V> {
    if let Some(r) = rec {
        r.observe("solver.outer_iterations", f64::from(outer_iterations));
        r.gauge_set("mesh.outer_iterations", f64::from(outer_iterations));
        r.gauge_set("mesh.breakpoint_residual", last.bp_residual);
        r.gauge_set("mesh.pv_error", last.pv_error);
        r.gauge_set("mesh.loops", state.j_loop.len() as f64);
        r.gauge_set("mesh.gens", state.q.len() as f64);
        r.gauge_set("mesh.mode_flips", f64::from(state.total_flips()));
    }
    MeshResult {
        inner,
        status,
        outer_status,
        outer_iterations,
        breakpoint_residual: last.bp_residual,
        pv_error: last.pv_error,
        loop_currents: state.j_loop.clone(),
        q_gen: state.q.clone(),
        gen_modes: state.modes.clone(),
        mode_flips: state.total_flips(),
    }
}

/// Result of one tensor-batched DG-scale sweep ([`solve_dg_batch`]).
#[derive(Clone, Debug)]
pub struct DgBatchResult {
    /// Per-scenario bus voltages, `[scenario][bus id]`, from each
    /// scenario's final inner solve.
    pub v: Vec<Vec<Complex>>,
    /// Per-scenario overall status (same mapping as [`MeshResult`]).
    pub statuses: Vec<SolveStatus>,
    /// Per-scenario outer outcome.
    pub outer_statuses: Vec<OuterStatus>,
    /// Per-scenario outer iterations until convergence (or failure).
    pub outer_iterations: Vec<u32>,
    /// Per-scenario final reactive output per generator, vars.
    pub q_gen: Vec<Vec<f64>>,
    /// Per-scenario final operating mode per generator.
    pub gen_modes: Vec<Vec<GenMode>>,
    /// Outer (batched inner solve) rounds actually run.
    pub outer_rounds: u32,
    /// Total modeled time across all batched inner rounds, µs.
    pub total_us: f64,
    /// Modeled throughput: scenarios per modeled device second, over
    /// the *whole* outer loop.
    pub scenarios_per_sec: f64,
}

impl DgBatchResult {
    /// Whether every scenario converged.
    pub fn converged(&self) -> bool {
        self.statuses.iter().all(|s| s.is_converged())
    }

    /// The most severe scenario outcome.
    pub fn worst_status(&self) -> SolveStatus {
        self.statuses.iter().fold(SolveStatus::Converged, |w, &s| w.worse(s))
    }
}

/// Solves a family of DG-penetration scenarios of one weakly-meshed
/// network on the tensor-batched solver: scenario `s` runs the network
/// with every generator's active output scaled by `dg_scales[s]`
/// (`0.0` = no DG, `1.0` = nameplate). All scenarios share one outer
/// loop over one resident tensor-engine session: the topology and the
/// per-scenario load slab are uploaded once, each outer round is a
/// *single* batched inner solve that re-iterates from the resident
/// voltages, and between rounds only the sparse load corrections
/// (generator buses and break-point endpoints) and the probe-bus
/// voltages cross the transfer link — so the per-scenario cost is the
/// amortized sweep cost, not a serial outer-loop re-solve and not a
/// per-round slab re-upload. This is the E17 headline path.
///
/// Scenarios that settle (or fail) retire from the batch: their
/// resident state freezes at the deciding round and later sweeps skip
/// them entirely. Device faults are absorbed: each round is one
/// `recovery::drive` session of the resident chunk, a setup fault
/// rebuilds it within the recovery budget, serial solves take over past
/// it, so `Err` never escapes; the `Result` keeps call sites stable.
pub fn solve_dg_batch(
    tbs: &mut TensorBatchSolver,
    net: &MeshedNetwork,
    dg_scales: &[f64],
    cfg: &SolverConfig,
    outer: &OuterConfig,
) -> Result<DgBatchResult, simt::DeviceError> {
    let tree = net.tree();
    let n = tree.num_buses();
    let v0 = tree.source_voltage();
    let nb = dg_scales.len();
    assert!(nb >= 1, "batch must contain at least one scenario");
    let problem = MeshProblem::new(net);
    let arrays = &problem.arrays;

    if cfg.validate().is_err() || !outer.is_valid() {
        return Ok(DgBatchResult {
            v: vec![vec![v0; n]; nb],
            statuses: vec![SolveStatus::InvalidConfig; nb],
            outer_statuses: vec![OuterStatus::Radial; nb],
            outer_iterations: vec![0; nb],
            q_gen: vec![vec![0.0; problem.num_gens()]; nb],
            gen_modes: vec![vec![GenMode::Pv; problem.num_gens()]; nb],
            outer_rounds: 0,
            total_us: 0.0,
            scenarios_per_sec: 0.0,
        });
    }

    let monitor = OuterMonitor::new(outer, cfg, v0.abs());
    let tol_v = monitor.tol_v;
    let mut monitors = vec![monitor; nb];
    let mut states: Vec<MeshState> = (0..nb).map(|_| problem.initial_state()).collect();
    let mut v: Vec<Vec<Complex>> = vec![vec![v0; n]; nb];
    let mut outcome: Vec<Option<OuterOutcome>> = vec![None; nb];
    let mut outer_iters = vec![0u32; nb];
    let mut rounds = 0u32;

    // The outer driver only ever reads voltages at generator buses and
    // break-point endpoints ([`MeshProblem::step`]/[`loads`]), so those
    // are the only buses the session reads back between rounds.
    let mut probe_set = std::collections::BTreeSet::new();
    for g in net.generators() {
        probe_set.insert(g.bus);
    }
    for bp in net.break_points() {
        probe_set.insert(bp.a);
        probe_set.insert(bp.b);
    }
    let probes: Vec<usize> = probe_set.into_iter().collect();

    // One cheap serial solve of the base tree seeds every scenario's
    // first batched round: the DG/compensation corrections only move a
    // handful of loads off the base case, so the whole family starts a
    // few iterations from its fixed points instead of a cold sweep
    // away. The pre-solve is charged to the batch total.
    let base = SerialSolver::new(HostProps::paper_rig()).solve_warm(arrays, cfg, None);
    let warm = base.status.is_converged().then_some(base.v);
    let mut total_us = base.timing.total_us();

    let chunk = tbs.chunk_capacity(arrays.len());
    let mut start = 0;
    while start < nb {
        let end = (start + chunk).min(nb);
        let width = end - start;
        let loads: Vec<Vec<Complex>> = (start..end)
            .map(|s| problem.loads(&states[s], &v[s], dg_scales[s]))
            .collect();
        let mut session = tbs.outer_session(arrays, &loads, &probes, warm.as_deref(), cfg);
        let mut live = width;

        // Inexact-outer tolerance ladder: rounds far from outer
        // convergence only feed the compensation/PV correction, so
        // their inner solves stop at a loose tolerance; once the worst
        // live mismatch closes to within 100× the outer tolerance the
        // rounds run tight. Convergence is only ever declared off a
        // tight round, so the answer is exactly as converged as before
        // — the ladder saves iterations, not accuracy.
        let loose_cfg =
            SolverConfig { tol_rel: cfg.tol_rel.clamp(1e-4, 1e-2), ..*cfg };
        let ladder = loose_cfg.tol_rel > cfg.tol_rel;
        let mut worst_live = f64::INFINITY;

        for it in 1..=outer.max_outer {
            if live == 0 {
                break;
            }
            rounds = rounds.max(it);
            let tight = !ladder || worst_live <= 100.0 * tol_v;
            // Each round re-iterates from the resident voltages — the
            // compensation/PV update only nudged a handful of loads, so
            // the re-solve needs a few iterations, not the cold count.
            let round = session.solve_round(if tight { cfg } else { &loose_cfg });
            let mut next_worst = 0.0f64;
            let mut fresh = Vec::new();
            #[allow(clippy::needless_range_loop)] // ls indexes the round's parallel arrays
            for ls in 0..width {
                let s = start + ls;
                if outcome[s].is_some() {
                    continue;
                }
                outer_iters[s] = it;
                let decided = monitors[s].round(it, round.statuses[ls], tight, || {
                    for (k, &bus) in probes.iter().enumerate() {
                        v[s][bus] = round.probe_v[ls][k];
                    }
                    problem.step(&mut states[s], &v[s], outer)
                });
                if decided.is_some() {
                    outcome[s] = decided;
                    session.retire(ls);
                    live -= 1;
                    continue;
                }
                // A round that decides nothing leaves its mismatch in `prev`.
                next_worst = next_worst.max(monitors[s].prev);
                // The session ships only the loads the outer step
                // actually moved — generator buses and break-point
                // endpoints.
                fresh.push((ls, problem.loads(&states[s], &v[s], dg_scales[s])));
            }
            worst_live = next_worst;
            session.update_loads(fresh);
        }

        let mut report = session.finish(cfg);
        total_us += report.total_us;
        v[start..end].swap_with_slice(&mut report.v);
        start = end;
    }

    let (statuses, outer_statuses): (Vec<_>, Vec<_>) = outcome
        .into_iter()
        .map(|o| o.unwrap_or(OuterMonitor::EXHAUSTED))
        .unzip();
    let scenarios_per_sec =
        if total_us > 0.0 { nb as f64 / (total_us * 1e-6) } else { 0.0 };
    Ok(DgBatchResult {
        v,
        statuses,
        outer_statuses,
        outer_iterations: outer_iters,
        q_gen: states.iter().map(|st| st.q.clone()).collect(),
        gen_modes: states.iter().map(|st| st.modes.clone()).collect(),
        outer_rounds: rounds,
        total_us,
        scenarios_per_sec,
    })
}

/// Bus ids (each identifying its parent branch) on the path from `bus`
/// up to — excluding — the root.
fn root_path(tree: &RadialNetwork, bus: usize) -> Vec<usize> {
    let mut path = Vec::new();
    let mut b = bus;
    while tree.parent_branch(b).is_some() {
        path.push(b);
        b = tree.parent(b).expect("a bus with a parent branch has a parent");
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, GpuSolver, MulticoreSolver, ResilientSolver};
    use crate::three_phase::Serial3Solver;
    use numc::{approx_eq_eps, CMat3};
    use powergrid::ieee::ieee123_dg;
    use powergrid::three_phase::ThreePhaseBuilder;
    use powergrid::{MeshedNetworkBuilder, PvBus};
    use simt::{Device, DeviceProps, FaultPlan, HostProps};
    use std::convert::Infallible;

    fn serial_mesh() -> MeshSolver<SerialSolver> {
        MeshSolver::new(SerialSolver::new(HostProps::paper_rig()))
    }

    /// Root 0 — 1 — 2 ladder with a closed tie 2→0: one loop.
    fn ladder_loop(load2: Complex) -> MeshedNetwork {
        let mut b = MeshedNetworkBuilder::new(c(1000.0, 0.0));
        b.add_bus(Complex::ZERO);
        b.add_bus(Complex::ZERO);
        b.add_bus(load2);
        b.connect(0, 1, c(1.0, 0.5));
        b.connect(1, 2, c(1.0, 0.5));
        b.tie(2, 0, c(0.5, 0.25), true);
        b.build().unwrap()
    }

    #[test]
    fn thevenin_matrix_matches_hand_computed_single_loop() {
        let net = ladder_loop(c(10_000.0, 2_000.0));
        let p = MeshProblem::new(&net);
        assert_eq!(p.num_loops(), 1);
        // Loop impedance = tree path (z01 + z12) + tie impedance.
        let want = c(1.0, 0.5) + c(1.0, 0.5) + c(0.5, 0.25);
        assert!((p.thevenin()[0] - want).abs() < 1e-12, "{:?}", p.thevenin());
    }

    #[test]
    fn radial_network_is_passed_through_bitwise() {
        let mut b = MeshedNetworkBuilder::new(c(1000.0, 0.0));
        b.add_bus(Complex::ZERO);
        b.add_bus(c(5_000.0, 1_000.0));
        b.add_bus(c(2_000.0, 500.0));
        b.connect(0, 1, c(1.0, 0.5));
        b.connect(1, 2, c(1.0, 0.5));
        b.tie(2, 0, c(0.5, 0.25), false); // open tie: inert
        let net = b.build().unwrap();
        let cfg = SolverConfig::default();
        let res = serial_mesh().solve(&net, &cfg);
        assert_eq!(res.outer_status, OuterStatus::Radial);
        assert_eq!(res.outer_iterations, 0);
        let radial = SerialSolver::new(HostProps::paper_rig()).solve(net.tree(), &cfg);
        assert_eq!(res.inner.v, radial.v, "no loops and no gens must be the plain solve");
        assert_eq!(res.inner.iterations, radial.iterations);
    }

    #[test]
    fn closed_tie_supports_the_remote_bus_voltage() {
        let net = ladder_loop(c(10_000.0, 2_000.0));
        let cfg = SolverConfig::default();
        let res = serial_mesh().solve(&net, &cfg);
        assert!(res.converged(), "got {}", res.status);
        assert!(matches!(res.outer_status, OuterStatus::Converged { .. }));
        // KVL across the (virtually closed) tie must hold.
        let jt = res.loop_currents[0];
        let e = res.inner.v[2] - res.inner.v[0] - c(0.5, 0.25) * jt;
        assert!(e.abs() <= 2.0 * 1e-6 * 1000.0, "tie KVL violated: |E| = {}", e.abs());
        assert!(jt.abs() > 1.0, "the tie must actually carry current");
        // The second feed path raises the loaded bus's voltage.
        let radial = SerialSolver::new(HostProps::paper_rig()).solve(net.tree(), &cfg);
        assert!(res.inner.v[2].abs() > radial.v[2].abs() + 0.1);
    }

    #[test]
    fn pv_generator_with_wide_limits_holds_its_set_point() {
        let mut b = MeshedNetworkBuilder::new(c(1000.0, 0.0));
        b.add_bus(Complex::ZERO);
        b.add_bus(c(20_000.0, 8_000.0));
        b.add_bus(c(10_000.0, 3_000.0));
        b.connect(0, 1, c(1.0, 0.8));
        b.connect(1, 2, c(1.0, 0.8));
        b.generator(PvBus { bus: 2, p_gen: 5_000.0, v_set: 985.0, q_min: -1e6, q_max: 1e6 });
        let net = b.build().unwrap();
        let res = serial_mesh().solve(&net, &SolverConfig::default());
        assert!(res.converged(), "got {}", res.status);
        assert_eq!(res.gen_modes[0], GenMode::Pv);
        assert!(
            (res.inner.v[2].abs() - 985.0).abs() < 1e-2,
            "|V| = {} must sit at the set-point",
            res.inner.v[2].abs()
        );
        assert!(res.q_gen[0].abs() > 1.0, "holding the set-point takes real vars");
    }

    #[test]
    fn clamped_generator_behaves_as_pq_at_the_limit() {
        let mut b = MeshedNetworkBuilder::new(c(1000.0, 0.0));
        b.add_bus(Complex::ZERO);
        b.add_bus(c(20_000.0, 8_000.0));
        b.add_bus(c(10_000.0, 3_000.0));
        b.connect(0, 1, c(1.0, 0.8));
        b.connect(1, 2, c(1.0, 0.8));
        // The set-point needs far more vars than the limit allows.
        let q_max = 2_000.0;
        b.generator(PvBus { bus: 2, p_gen: 5_000.0, v_set: 995.0, q_min: -2_000.0, q_max });
        let net = b.build().unwrap();
        // Tight tolerances: once clamped the gen is *exactly* a PQ load,
        // so the only daylight between the two solves is solver tolerance.
        let cfg = SolverConfig { tol_rel: 1e-13, ..SolverConfig::default() };
        let res = serial_mesh()
            .with_outer(OuterConfig::default().with_tol(1e-12))
            .solve(&net, &cfg);
        assert!(res.converged(), "got {}", res.status);
        assert_eq!(res.gen_modes[0], GenMode::ClampedMax);
        assert_eq!(res.q_gen[0], q_max);
        assert!(res.inner.v[2].abs() < 995.0, "a clamped gen cannot reach the set-point");

        // Reference: the identical network with the generator replaced
        // by an explicit PQ load drawing (−p_gen, −q_max).
        let mut b = MeshedNetworkBuilder::new(c(1000.0, 0.0));
        b.add_bus(Complex::ZERO);
        b.add_bus(c(20_000.0, 8_000.0));
        b.add_bus(c(10_000.0, 3_000.0) - c(5_000.0, q_max));
        b.connect(0, 1, c(1.0, 0.8));
        b.connect(1, 2, c(1.0, 0.8));
        let pq_net = b.build().unwrap();
        let pq = SerialSolver::new(HostProps::paper_rig()).solve(pq_net.tree(), &cfg);
        for (a, b) in res.inner.v.iter().zip(&pq.v) {
            assert!((*a - *b).abs() < 1e-9 * 1000.0, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn exhausted_flip_budget_is_a_structural_limit_cycle() {
        let mut b = MeshedNetworkBuilder::new(c(1000.0, 0.0));
        b.add_bus(Complex::ZERO);
        b.add_bus(c(20_000.0, 8_000.0));
        b.connect(0, 1, c(1.0, 0.8));
        b.generator(PvBus { bus: 1, p_gen: 0.0, v_set: 995.0, q_min: -3_000.0, q_max: 3_000.0 });
        let net = b.build().unwrap();
        // A zero flip budget turns the first clamp into a limit cycle:
        // the structural-failure path, exit code 9.
        let outer = OuterConfig { max_mode_flips: 0, ..OuterConfig::default() };
        let res = serial_mesh().with_outer(outer).solve(&net, &SolverConfig::default());
        assert!(matches!(res.outer_status, OuterStatus::LimitCycle { .. }), "{}", res.outer_status);
        assert!(matches!(res.status, SolveStatus::OuterDiverged { .. }));
        assert_eq!(res.status.exit_code(), 9);
        assert!(res.status.is_failure());
    }

    #[test]
    fn all_backends_agree_on_ieee123_dg() {
        let net = ieee123_dg();
        let cfg = SolverConfig::default();
        let serial = serial_mesh().solve(&net, &cfg);
        assert!(serial.converged(), "serial: {}", serial.status);
        assert!(serial.outer_iterations >= 2, "loops + DG must engage the outer loop");
        assert!(serial.loop_currents.iter().any(|j| j.abs() > 0.01));

        let scale = net.tree().source_voltage().abs();
        let engines: [(&str, Box<dyn SweepBackend<Error = Infallible>>); 2] = [
            ("multicore", Box::new(MulticoreSolver::new(HostProps::paper_rig(), 8))),
            ("gpu", Box::new(GpuSolver::new(Device::new(DeviceProps::paper_rig())))),
        ];
        for (name, engine) in engines {
            let r = MeshSolver::new(engine).solve(&net, &cfg);
            assert!(r.converged(), "{name}: {}", r.status);
            for (i, (x, y)) in serial.inner.v.iter().zip(&r.inner.v).enumerate() {
                assert!((*x - *y).abs() <= 1e-9 * scale, "serial vs {name} at bus {i}");
            }
            for (a, b) in serial.q_gen.iter().zip(&r.q_gen) {
                assert!(approx_eq_eps(*a, *b, 1e-6, 1e-3), "{name}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn invalid_configs_are_reported_not_run() {
        let net = ladder_loop(c(1_000.0, 0.0));
        let cfg = SolverConfig { max_iter: 0, ..SolverConfig::default() };
        let res = serial_mesh().solve(&net, &cfg);
        assert_eq!(res.status, SolveStatus::InvalidConfig);
        let bad_outer = OuterConfig { tol_rel: f64::NAN, ..OuterConfig::default() };
        let res = serial_mesh().with_outer(bad_outer).solve(&net, &SolverConfig::default());
        assert_eq!(res.status, SolveStatus::InvalidConfig);
    }

    #[test]
    fn resilient_mesh_solve_composes_with_fault_recovery() {
        let net = ieee123_dg();
        let cfg = SolverConfig::default();
        let outer = OuterConfig::default();
        let reference = serial_mesh().solve(&net, &cfg);
        assert!(reference.converged());
        let supervisor =
            || ResilientSolver::new(Backend::Gpu, DeviceProps::paper_rig(), HostProps::paper_rig());

        // Fault-free supervisor run matches the plain mesh solve.
        let problem = MeshProblem::new(&net);
        let mut clean = supervisor();
        let res = solve_dg(&problem, &cfg, &outer, None, |a, _| clean.solve(a, &cfg)).unwrap();
        assert!(res.converged(), "got {}", res.status);
        let scale = net.tree().source_voltage().abs();
        for (a, b) in res.inner.v.iter().zip(&reference.inner.v) {
            assert!((*a - *b).abs() <= 1e-6 * scale, "{a:?} vs {b:?}");
        }

        // Seeded faults: the answer must still match, with the recovery
        // visible in the accumulated fault report.
        let mut faulty = supervisor().with_fault_plan(FaultPlan::seeded(20260808, 0.01));
        let res = solve_dg(&problem, &cfg, &outer, None, |a, _| faulty.solve(a, &cfg)).unwrap();
        assert!(res.converged(), "got {}", res.status);
        for (a, b) in res.inner.v.iter().zip(&reference.inner.v) {
            assert!((*a - *b).abs() <= 1e-6 * scale, "{a:?} vs {b:?}");
        }
        let fr = res.inner.fault_report.as_ref().expect("faulted run carries a report");
        assert!(fr.faults_injected > 0);
    }

    fn monitor() -> OuterMonitor {
        // A 1 kV feeder under the default knobs (patience 4).
        OuterMonitor::new(&OuterConfig::default(), &SolverConfig::default(), 1000.0)
    }

    fn mismatch(m: f64) -> OuterStep {
        OuterStep { bp_residual: m, pv_error: 0.0, singular: false, limit_cycle: false }
    }

    /// One round whose inner solve converged and whose step is `step`.
    fn judge(mon: &mut OuterMonitor, it: u32, tight: bool, step: OuterStep) -> Option<OuterOutcome> {
        mon.round(it, SolveStatus::Converged, tight, || step)
    }

    fn outer_failure(it: u32, outer: OuterStatus) -> Option<OuterOutcome> {
        Some((SolveStatus::OuterDiverged { at_outer: it }, outer))
    }

    #[test]
    fn monitor_ends_on_a_failed_inner_solve_without_stepping() {
        let got = monitor().round(3, SolveStatus::MaxIterations, true, || unreachable!());
        let want = (SolveStatus::MaxIterations, OuterStatus::InnerFailed { at_outer: 3 });
        assert_eq!(got, Some(want));
    }

    #[test]
    fn monitor_diverges_on_singular_nonfinite_or_capped_mismatch() {
        let want = outer_failure(2, OuterStatus::Diverged { at_outer: 2 });
        let cap = monitor().cap_v;
        for step in [
            OuterStep { singular: true, ..mismatch(0.0) },
            mismatch(f64::INFINITY),
            mismatch(2.0 * cap),
            // Divergence outranks a simultaneous limit cycle.
            OuterStep { limit_cycle: true, ..mismatch(f64::INFINITY) },
        ] {
            assert_eq!(judge(&mut monitor(), 2, true, step), want, "{step:?}");
        }
    }

    #[test]
    fn monitor_reports_a_limit_cycle() {
        let cycling = OuterStep { limit_cycle: true, ..mismatch(0.0) };
        let want = outer_failure(5, OuterStatus::LimitCycle { at_outer: 5 });
        assert_eq!(judge(&mut monitor(), 5, true, cycling), want);
    }

    #[test]
    fn monitor_converges_only_on_a_tight_round() {
        let mut mon = monitor();
        assert_eq!(judge(&mut mon, 1, false, mismatch(0.0)), None, "loose rounds never converge");
        // A tight round converges and keeps the inner status.
        let recovered = SolveStatus::Recovered { faults: 1, retries: 1 };
        let got = mon.round(2, recovered, true, || mismatch(0.0));
        assert_eq!(got, Some((recovered, OuterStatus::Converged { outer_iterations: 2 })));
    }

    #[test]
    fn monitor_diverges_after_patience_growths() {
        // The first round sets the baseline, a shrink resets the count,
        // and round 7 is the fourth growth in a row.
        let mut mon = monitor();
        for (it, m) in [(1, 1.0), (2, 2.0), (3, 1.5), (4, 3.0), (5, 4.0), (6, 5.0)] {
            assert_eq!(judge(&mut mon, it, true, mismatch(m)), None, "round {it}");
        }
        let want = outer_failure(7, OuterStatus::Diverged { at_outer: 7 });
        assert_eq!(judge(&mut mon, 7, true, mismatch(6.0)), want);
    }

    #[test]
    fn outer_cap_exhaustion_is_max_iterations_not_failure() {
        let net = ladder_loop(c(10_000.0, 2_000.0));
        let res = serial_mesh()
            .with_outer(OuterConfig::default().with_max_outer(1))
            .solve(&net, &SolverConfig::default());
        assert_eq!((res.status, res.outer_status), OuterMonitor::EXHAUSTED);
        assert_eq!(res.outer_iterations, 1);
        assert!(!res.status.is_failure());
    }

    #[test]
    fn batched_dg_sweep_matches_serial_outer_loop_per_scenario() {
        let net = ieee123_dg();
        let cfg = SolverConfig::default();
        let outer = OuterConfig::default();
        let scales = [0.0, 0.5, 1.0, 1.5];
        let mut tbs = TensorBatchSolver::new(Device::paper_rig());
        let batch = solve_dg_batch(&mut tbs, &net, &scales, &cfg, &outer).unwrap();
        assert!(batch.converged(), "worst: {}", batch.worst_status());
        assert!(batch.scenarios_per_sec > 0.0);

        let scale_v = net.tree().source_voltage().abs();
        for (s, &dg) in scales.iter().enumerate() {
            // Serial reference: the same scenario as a standalone meshed
            // network with scaled generator output.
            let mut b = MeshedNetworkBuilder::new(net.tree().source_voltage());
            for bus in net.tree().buses() {
                b.add_bus(bus.load);
            }
            for br in net.tree().branches() {
                b.connect(br.from, br.to, br.z);
            }
            for bp in net.break_points() {
                b.tie(bp.a, bp.b, bp.z, true);
            }
            for t in net.ties() {
                if !t.closed {
                    b.tie(t.from, t.to, t.z, false);
                }
            }
            for g in net.generators() {
                b.generator(PvBus { p_gen: g.p_gen * dg, ..*g });
            }
            let scen = b.build().unwrap();
            let serial = serial_mesh().with_outer(outer).solve(&scen, &cfg);
            assert!(serial.converged(), "scenario {s}: {}", serial.status);
            for i in 0..scen.tree().num_buses() {
                assert!(
                    (batch.v[s][i] - serial.inner.v[i]).abs() <= 1e-5 * scale_v,
                    "scenario {s} bus {i}: {:?} vs {:?}",
                    batch.v[s][i],
                    serial.inner.v[i]
                );
            }
            for (a, b) in batch.q_gen[s].iter().zip(&serial.q_gen) {
                assert!(approx_eq_eps(*a, *b, 1e-3, 1.0), "scenario {s}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn mesh_telemetry_lands_in_the_registry() {
        let rec = Recorder::new();
        let net = ieee123_dg();
        let cfg = SolverConfig::default();
        let serial = SerialSolver::new(HostProps::paper_rig()).with_recorder(rec.clone());
        let problem = MeshProblem::new(&net);
        let Ok(res) = solve_dg(&problem, &cfg, &OuterConfig::default(), Some(&rec), |a, warm| {
            Ok::<_, Infallible>(serial.solve_warm(a, &cfg, warm))
        });
        assert!(res.converged());
        let (_, reg) = rec.snapshot();
        let hists: Vec<&str> = reg.histograms().map(|(n, _)| n).collect();
        assert!(hists.contains(&"solver.outer_iterations"), "{hists:?}");
        let gauges: Vec<(&str, f64)> = reg.gauges().collect();
        assert!(gauges.contains(&("mesh.outer_iterations", f64::from(res.outer_iterations))));
        assert!(gauges.contains(&("mesh.loops", 2.0)), "{gauges:?}");
    }

    /// Balanced 0 — 1 — 2 three-phase feeder, optionally with a
    /// generator at bus 2.
    fn feeder3(gen: Option<PvBus>) -> ThreePhaseNetwork {
        let mut b = ThreePhaseBuilder::new(CVec3::balanced(2400.0));
        let load = CVec3 {
            a: c(15_000.0, 4_000.0),
            b: c(15_000.0, 4_000.0),
            c: c(15_000.0, 4_000.0),
        };
        b.add_bus(CVec3::ZERO);
        b.add_bus(load);
        b.add_bus(load);
        b.connect(0, 1, CMat3::diag(c(1.2, 0.9)));
        b.connect(1, 2, CMat3::diag(c(1.0, 0.8)));
        if let Some(g) = gen {
            b.generator(g);
        }
        b.build().unwrap()
    }

    /// The three-phase DG loop on the serial reference backend.
    fn serial3_dg(net: &ThreePhaseNetwork, cfg: &SolverConfig) -> MeshResult<CVec3> {
        let serial = SerialSolver::new(HostProps::paper_rig());
        let problem = MeshProblem::three_phase(net);
        let Ok(r) = solve_dg(&problem, cfg, &OuterConfig::default(), None, |a, warm| {
            Ok::<_, Infallible>(serial.solve_warm(a, cfg, warm))
        });
        r
    }

    #[test]
    fn three_phase_without_generators_is_a_plain_solve() {
        let net = feeder3(None);
        let cfg = SolverConfig::default();
        let serial = Serial3Solver::new(HostProps::paper_rig());
        let plain = serial.solve(&net, &cfg);
        let r = serial3_dg(&net, &cfg);
        assert_eq!(r.outer_status, OuterStatus::Radial);
        assert_eq!(r.outer_iterations, 0);
        assert!(r.converged());
        for (a, b) in r.inner.v.iter().zip(&plain.v) {
            assert_eq!(a, b, "generator-free 3φ solve must be a bitwise pass-through");
        }
    }

    #[test]
    fn three_phase_pv_generator_holds_mean_phase_magnitude() {
        let v_set = 2392.0;
        let gen = PvBus { bus: 2, p_gen: 10_000.0, v_set, q_min: -150_000.0, q_max: 150_000.0 };
        let net = feeder3(Some(gen));
        let cfg = SolverConfig::default();

        let sagged = Serial3Solver::new(HostProps::paper_rig()).solve(&net, &cfg);
        let vm0 = (sagged.v[2].a.abs() + sagged.v[2].b.abs() + sagged.v[2].c.abs()) / 3.0;
        assert!(vm0 < v_set - 1.0, "test wants a sagged feeder, got {vm0}");

        let r = serial3_dg(&net, &cfg);
        assert!(r.converged(), "{:?}", r.outer_status);
        assert!(r.outer_iterations >= 2);
        let vm = (r.inner.v[2].a.abs() + r.inner.v[2].b.abs() + r.inner.v[2].c.abs()) / 3.0;
        assert!((vm - v_set).abs() < 1e-2, "mean |V| {vm} vs set-point {v_set}");
        assert_eq!(r.gen_modes[0], GenMode::Pv);
        assert!(r.q_gen[0] > 0.0, "supporting the voltage takes capacitive vars");

        // The GPU backend lands on the same operating point.
        let mut gpu = GpuSolver::new(Device::paper_rig());
        let problem = MeshProblem::three_phase(&net);
        let Ok(g) = solve_dg(&problem, &cfg, &OuterConfig::default(), None, |a, warm| {
            Ok::<_, Infallible>(gpu.solve3_warm(a, &cfg, warm))
        });
        assert!(g.converged());
        for (a, b) in g.inner.v.iter().zip(&r.inner.v) {
            assert!((a.a - b.a).abs() < 1e-6 && (a.b - b.b).abs() < 1e-6 && (a.c - b.c).abs() < 1e-6);
        }
        assert!(approx_eq_eps(g.q_gen[0], r.q_gen[0], 1e-6, 1e-3));
    }

    #[test]
    fn three_phase_clamped_generator_rides_at_its_limit() {
        // Limits far too small to reach the set-point: the generator
        // must clamp at q_max and stay there.
        let gen = PvBus { bus: 2, p_gen: 5_000.0, v_set: 2395.0, q_min: -800.0, q_max: 800.0 };
        let net = feeder3(Some(gen));
        let cfg = SolverConfig::default();
        let r = serial3_dg(&net, &cfg);
        assert!(r.converged(), "{:?}", r.outer_status);
        assert_eq!(r.gen_modes[0], GenMode::ClampedMax);
        assert!((r.q_gen[0] - 800.0).abs() < 1e-12);
    }

    #[test]
    fn three_phase_resilient_solve_composes_with_fault_recovery() {
        let gen = PvBus { bus: 2, p_gen: 10_000.0, v_set: 2392.0, q_min: -1.5e5, q_max: 1.5e5 };
        let net = feeder3(Some(gen));
        let cfg = SolverConfig::default();
        let outer = OuterConfig::default();
        let supervisor =
            || ResilientSolver::new(Backend::Gpu, DeviceProps::paper_rig(), HostProps::paper_rig());

        // Fault-free supervisor run is the plain GPU DG solve started
        // flat every round, as the supervisor starts, bit for bit.
        let problem = MeshProblem::three_phase(&net);
        let mut gpu = GpuSolver::new(Device::paper_rig());
        let Ok(plain) = solve_dg(&problem, &cfg, &outer, None, |a, _| {
            Ok::<_, Infallible>(gpu.solve3_warm(a, &cfg, None))
        });
        let mut clean = supervisor();
        let got = solve_dg(&problem, &cfg, &outer, None, |a, _| clean.solve3(a, &cfg)).unwrap();
        assert!(plain.converged() && plain.outer_iterations >= 2);
        assert_eq!(got.inner.v, plain.inner.v);
        assert_eq!(got.q_gen, plain.q_gen);
        assert_eq!(got.inner.iterations, plain.inner.iterations);
        assert_eq!((got.status, got.outer_status), (plain.status, plain.outer_status));

        // Seeded faults: the answer still matches the serial reference,
        // started flat every round as the supervisor starts.
        let serial = SerialSolver::new(HostProps::paper_rig());
        let Ok(want) = solve_dg(&problem, &cfg, &outer, None, |a, _| {
            Ok::<_, Infallible>(serial.solve_arrays(a, &cfg))
        });
        let mut faulty = supervisor().with_fault_plan(FaultPlan::seeded(20260808, 0.01));
        let got = solve_dg(&problem, &cfg, &outer, None, |a, _| faulty.solve3(a, &cfg)).unwrap();
        assert!(got.converged(), "{:?}", got.outer_status);
        for (a, b) in got.inner.v.iter().zip(&want.inner.v) {
            assert!((a.a - b.a).abs() < 1e-6 && (a.b - b.b).abs() < 1e-6 && (a.c - b.c).abs() < 1e-6);
        }
    }
}
