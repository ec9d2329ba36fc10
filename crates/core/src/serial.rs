//! The serial CPU solver — the paper's baseline comparator, and the one
//! host sweep loop of both phase kinds.
//!
//! A cache-friendly, deliberately *non-pessimised* sequential
//! forward-backward sweep over the level-ordered arrays, generic over
//! the per-bus [`Phasor`] (a single-phase [`numc::Complex`] or a three-phase
//! [`numc::CVec3`] with 3×3 branch matrices):
//!
//! 1. **Injection**: `I_p = conj(S_p / V_p)` for every bus (per phase).
//! 2. **Backward sweep** (positions high→low, i.e. leaves→root):
//!    `J_p = I_p + Σ_{c ∈ children(p)} J_c` — one pass, children already
//!    final because they sit at higher positions.
//! 3. **Forward sweep** (positions low→high, root→leaves):
//!    `V_p = V_{parent(p)} − Z_p·J_p`, using this iteration's fresh
//!    upstream voltages (ladder convention); the convergence ∞-norm
//!    ([`Phasor::norm`], the worst phase) is folded into the same pass.
//!
//! Modeled time comes from the [`HostProps`] roofline applied to the
//! phasor's per-phase flop/byte tallies; wall-clock is also recorded.

use std::time::Instant;

use powergrid::RadialNetwork;
use primitives::ops::{MaxAbsF64, ScanOp};
use simt::HostProps;

use telemetry::Recorder;

use crate::arrays::{LevelArrays, SolverArrays};
use crate::config::SolverConfig;
use crate::obs::Obs;
use crate::phasor::Phasor;
use crate::report::{PhaseTimes, SolveResult, Timing};
use crate::status::{ConvergenceMonitor, SolveStatus};

/// The serial forward-backward sweep solver.
#[derive(Clone, Debug, Default)]
pub struct SerialSolver {
    host: HostProps,
    recorder: Option<Recorder>,
}

impl SerialSolver {
    /// Creates a solver modeled on the given host CPU.
    pub fn new(host: HostProps) -> Self {
        SerialSolver { host, recorder: None }
    }

    /// Attaches a telemetry recorder: per-iteration/per-phase spans and
    /// residual samples are recorded into it during every solve.
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// The modeled host description.
    pub fn host(&self) -> &HostProps {
        &self.host
    }

    /// Solves a network from scratch (builds the level-order arrays,
    /// charging them to the setup phase).
    pub fn solve(&self, net: &RadialNetwork, cfg: &SolverConfig) -> SolveResult {
        let t0 = Instant::now();
        let arrays = SolverArrays::new(net);
        let setup_wall = t0.elapsed().as_secs_f64() * 1e6;
        let mut res = self.solve_arrays(&arrays, cfg);
        res.timing.wall_us += setup_wall;
        res
    }

    /// Solves with pre-built arrays of either phase kind (the
    /// repeated-solve path: topology preprocessing is charged to setup
    /// via a byte-touch model).
    pub fn solve_arrays<V: Phasor>(
        &self,
        a: &LevelArrays<V, V::Z>,
        cfg: &SolverConfig,
    ) -> SolveResult<V> {
        self.solve_warm(a, cfg, None)
    }

    /// Solves starting from a previous solution instead of the flat
    /// start (`v_init` is indexed by *bus id*). Warm starts cut
    /// iterations in time-series runs where consecutive loadings are
    /// close.
    pub fn solve_warm<V: Phasor>(
        &self,
        a: &LevelArrays<V, V::Z>,
        cfg: &SolverConfig,
        v_init: Option<&[V]>,
    ) -> SolveResult<V> {
        let wall0 = Instant::now();
        let n = a.len();
        let v0 = a.source;
        if cfg.validate().is_err() {
            return crate::report::invalid_config_result(n, v0);
        }
        let mut monitor = ConvergenceMonitor::new(cfg, v0.norm());
        let working_set = V::WORKING_SET_BYTES * n as u64;
        // Bytes per bus: injection (read S and V, write I) and backward
        // (read I and a child's J, write J) move three phasors; forward
        // reads the parent's V, Z, J and the old V and writes V.
        let v_bytes = size_of::<V>() as u64;
        let (three_phasors, fwd_bytes) = (3 * v_bytes, 4 * v_bytes + size_of::<V::Z>() as u64);

        let mut v = match v_init {
            Some(init) => {
                assert_eq!(init.len(), n, "warm start needs one voltage per bus");
                a.levels.permute(init)
            }
            None => vec![v0; n],
        };
        let mut i_inj = vec![V::default(); n];
        let mut j = vec![V::default(); n];

        // Setup model: building the permutation + arrays touches every
        // per-bus record a handful of times, no flops.
        let mut phases = PhaseTimes {
            setup_us: self.host.region_time_us(0, V::SETUP_BYTES * n as u64),
            ..Default::default()
        };

        let mut iterations = 0;
        let mut residual = f64::MAX;
        let mut residual_history = Vec::new();
        let mut status = SolveStatus::MaxIterations;
        let obs = Obs::new(self.recorder.as_ref(), "solver.serial");

        while iterations < cfg.max_iter {
            iterations += 1;
            let iter_t0 = phases.total_us();

            // Injection.
            for p in 0..n {
                i_inj[p] = V::inject(a.s[p], v[p]);
            }
            phases.injection_us += self.host.region_time_us_ws(
                V::INJ_FLOPS * n as u64,
                three_phasors * n as u64,
                working_set,
            );
            obs.phase("injection", iter_t0, phases.total_us());
            let bwd_t0 = phases.total_us();

            // Backward sweep: leaves → root.
            for p in (0..n).rev() {
                let mut acc = i_inj[p];
                for &jc in &j[a.levels.children(p)] {
                    acc += jc;
                }
                j[p] = acc;
            }
            phases.backward_us += self.host.region_time_us_ws(
                V::BWD_FLOPS * (n as u64 - 1),
                three_phasors * n as u64,
                working_set,
            );
            obs.phase("backward", bwd_t0, phases.total_us());
            let fwd_t0 = phases.total_us();

            // Forward sweep with folded convergence norm. The fold must
            // propagate NaN: `d > delta` is false for NaN, which would
            // let a corrupt update vanish from the ∞-norm.
            let mut delta: f64 = 0.0;
            for p in 1..n {
                let parent = a.levels.parent_pos[p] as usize;
                let new_v = v[parent] - V::z_mul(a.z[p], j[p]);
                delta = MaxAbsF64::combine(delta, (new_v - v[p]).norm());
                v[p] = new_v;
            }
            phases.forward_us += self.host.region_time_us_ws(
                V::FWD_FLOPS * (n as u64 - 1),
                fwd_bytes * (n as u64 - 1),
                working_set,
            );
            obs.phase("forward", fwd_t0, phases.total_us());
            // The convergence norm is one compare+branch per bus, already
            // counted in FWD_FLOPS; charge the scalar check only.
            phases.convergence_us += self.host.region_time_us(1, 8);
            residual = delta;
            residual_history.push(delta);
            obs.iteration(iterations, iter_t0, phases.total_us(), delta);
            if let Some(s) = monitor.observe(iterations, delta) {
                status = s;
                break;
            }
            if let Some(budget) = cfg.deadline_us {
                let elapsed = phases.total_us();
                if elapsed >= budget {
                    status = SolveStatus::DeadlineExceeded {
                        at_iteration: iterations,
                        elapsed_us: elapsed as u64,
                    };
                    break;
                }
            }
        }

        let timing = Timing {
            phases,
            transfer_us: 0.0,
            transfer_sweep_us: 0.0,
            wall_us: wall0.elapsed().as_secs_f64() * 1e6,
        };
        SolveResult {
            v: a.levels.unpermute(&v),
            j: a.levels.unpermute(&j),
            iterations,
            status,
            residual,
            residual_history,
            timing,
            fault_report: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numc::{c, Complex};
    use powergrid::NetworkBuilder;

    fn solver() -> SerialSolver {
        SerialSolver::new(HostProps::paper_rig())
    }

    /// Two-bus network solvable by hand:
    /// V₀ = 100 V, Z = 1+0j Ω, S = 100 + 0j VA at bus 1.
    /// Fixed point: V₁ = 100 − 100/V₁ → V₁ = 50 + 50·√(1−4/100)… rather,
    /// V₁² − 100·V₁ + 100 = 0 → V₁ ≈ 98.9898 V.
    fn two_bus() -> RadialNetwork {
        let mut b = NetworkBuilder::new(c(100.0, 0.0));
        b.add_bus(Complex::ZERO);
        b.add_bus(c(100.0, 0.0));
        b.connect(0, 1, c(1.0, 0.0));
        b.build().unwrap()
    }

    #[test]
    fn two_bus_matches_closed_form() {
        let res = solver().solve(&two_bus(), &SolverConfig::default());
        assert!(res.converged(), "residual {}", res.residual);
        let want = 50.0 + (2500.0_f64 - 100.0).sqrt(); // larger root
        assert!((res.v[1].re - want).abs() < 1e-3, "{} vs {want}", res.v[1].re);
        assert!(res.v[1].im.abs() < 1e-9);
        // Branch current = conj(S/V1).
        let i_expect = (c(100.0, 0.0) / res.v[1]).conj();
        assert!((res.j[1] - i_expect).abs() < 1e-6);
        // Root branch current equals it (single path).
        assert!((res.j[0] - i_expect).abs() < 1e-6);
    }

    #[test]
    fn no_load_network_converges_immediately_to_flat_voltage() {
        let mut b = NetworkBuilder::new(c(7200.0, 0.0));
        b.add_bus(Complex::ZERO);
        b.add_bus(Complex::ZERO);
        b.add_bus(Complex::ZERO);
        b.connect(0, 1, c(0.5, 0.2));
        b.connect(1, 2, c(0.5, 0.2));
        let net = b.build().unwrap();
        let res = solver().solve(&net, &SolverConfig::default());
        assert!(res.converged());
        assert_eq!(res.iterations, 1);
        for v in &res.v {
            assert_eq!(*v, c(7200.0, 0.0));
        }
        for j in &res.j {
            assert_eq!(*j, Complex::ZERO);
        }
    }

    #[test]
    fn voltage_drops_monotonically_along_a_loaded_chain() {
        let mut b = NetworkBuilder::new(c(7200.0, 0.0));
        b.add_bus(Complex::ZERO);
        for _ in 1..10 {
            b.add_bus(c(10_000.0, 4_000.0));
        }
        for i in 0..9 {
            b.connect(i, i + 1, c(0.2, 0.1));
        }
        let net = b.build().unwrap();
        let res = solver().solve(&net, &SolverConfig::default());
        assert!(res.converged());
        for i in 1..10 {
            assert!(
                res.v[i].abs() < res.v[i - 1].abs(),
                "|V| must fall moving away from the source"
            );
        }
        // Downstream current shrinks toward the leaf.
        for i in 1..9 {
            assert!(res.j[i].abs() > res.j[i + 1].abs());
        }
    }

    #[test]
    fn nonconvergence_is_reported_not_hidden() {
        // Absurd overload: 10 MVA behind 10 Ω from a 100 V source. The
        // first update is ~10⁶ V — four orders of magnitude above |V₀| —
        // so the early-abort flags divergence instead of burning the
        // whole iteration budget oscillating.
        let mut b = NetworkBuilder::new(c(100.0, 0.0));
        b.add_bus(Complex::ZERO);
        b.add_bus(c(10e6, 0.0));
        b.connect(0, 1, c(10.0, 0.0));
        let net = b.build().unwrap();
        let res = solver().solve(&net, &SolverConfig::new(1e-9, 20));
        assert!(!res.converged());
        assert!(res.status.is_failure(), "overload must be flagged, got {}", res.status);
        assert!(res.iterations < 20, "early-abort must beat the iteration cap");
    }

    #[test]
    fn voltage_collapse_is_numerical_failure_not_convergence() {
        // Crafted collapse: V₀ = 100 V, Z = 10 Ω, S = 1000 VA (all real).
        // Iteration 1: I = conj(S/V₀) = 10 A, so V₁ = 100 − 10·10 = 0
        // exactly; iteration 2 divides by zero → Inf → NaN cascade. The
        // old boolean API reported this as converged (NaN dropped from
        // the fold made the residual look tiny).
        let mut b = NetworkBuilder::new(c(100.0, 0.0));
        b.add_bus(Complex::ZERO);
        b.add_bus(c(1000.0, 0.0));
        b.connect(0, 1, c(10.0, 0.0));
        let net = b.build().unwrap();
        // Disarm the growth cap so only the NaN path can fire.
        let cfg = SolverConfig::new(1e-9, 50).with_divergence(1e300, 50);
        let res = solver().solve(&net, &cfg);
        assert!(
            matches!(res.status, SolveStatus::NumericalFailure { .. }),
            "collapse through V=0 must be a numerical failure, got {}",
            res.status
        );
        assert!(!res.residual.is_finite(), "the corrupt residual must be surfaced");
    }

    #[test]
    fn invalid_config_is_reported_not_iterated() {
        let cfg = SolverConfig { max_iter: 0, ..SolverConfig::default() };
        let res = solver().solve(&two_bus(), &cfg);
        assert_eq!(res.status, SolveStatus::InvalidConfig);
        assert_eq!(res.iterations, 0);
        assert!(res.residual.is_infinite(), "no iteration ran, so no residual exists");
        assert_eq!(res.v.len(), 2, "flat-start voltages are still returned");
    }

    #[test]
    fn deadline_abort_reports_partial_iterations() {
        // A budget far below one modeled sweep: the deadline trips after
        // the first iteration, before the (unreachably tight) tolerance.
        let cfg = SolverConfig::new(1e-14, 10_000).with_deadline(1e-9);
        let res = solver().solve(&two_bus(), &cfg);
        match res.status {
            SolveStatus::DeadlineExceeded { at_iteration, .. } => {
                assert_eq!(at_iteration, 1);
                assert_eq!(res.iterations, 1);
            }
            other => panic!("expected a deadline abort, got {other}"),
        }
        assert!(res.residual.is_finite(), "partial state is real, not garbage");
    }

    #[test]
    fn tighter_tolerance_needs_more_iterations() {
        let net = two_bus();
        let loose = solver().solve(&net, &SolverConfig::new(1e-3, 100));
        let tight = solver().solve(&net, &SolverConfig::new(1e-12, 100));
        assert!(loose.converged() && tight.converged());
        assert!(tight.iterations > loose.iterations);
    }

    #[test]
    fn modeled_time_scales_with_iterations_and_size() {
        let net = two_bus();
        let r1 = solver().solve(&net, &SolverConfig::new(1e-3, 100));
        let r2 = solver().solve(&net, &SolverConfig::new(1e-12, 100));
        assert!(r2.timing.total_us() > r1.timing.total_us());
        assert_eq!(r1.timing.transfer_us, 0.0, "CPU solver moves nothing over PCIe");
    }
}
