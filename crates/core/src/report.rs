//! Solve results and timing reports.

use numc::Complex;

use crate::status::SolveStatus;

/// Modeled time per solver phase, µs.
///
/// For the GPU solver these are modeled *device* microseconds from the
/// [`simt`] timing model (kernels attributed to the phase that launched
/// them); for the CPU solvers they come from the [`simt::HostProps`]
/// roofline model. Wall-clock of the simulation is reported separately
/// and never used in speedup claims.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimes {
    /// One-time setup: topology upload (GPU) or array construction (CPU).
    pub setup_us: f64,
    /// Injection-current kernel/loop (`I = conj(S/V)`).
    pub injection_us: f64,
    /// Backward sweep (child-current aggregation).
    pub backward_us: f64,
    /// Forward sweep (voltage propagation).
    pub forward_us: f64,
    /// Convergence check (∞-norm reduction + host read-back).
    pub convergence_us: f64,
    /// Result download (GPU) — zero for CPU solvers.
    pub teardown_us: f64,
}

impl PhaseTimes {
    /// Total across phases.
    pub fn total_us(&self) -> f64 {
        self.setup_us
            + self.injection_us
            + self.backward_us
            + self.forward_us
            + self.convergence_us
            + self.teardown_us
    }

    /// The iterative portion (excludes setup/teardown) — the paper's
    /// "parts of the computation that entirely run on the GPU".
    pub fn sweep_us(&self) -> f64 {
        self.injection_us + self.backward_us + self.forward_us + self.convergence_us
    }
}

/// Timing summary of one solve.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timing {
    /// Modeled time per phase.
    pub phases: PhaseTimes,
    /// Modeled µs spent in host↔device transfers (subset of phase times;
    /// zero for CPU solvers).
    pub transfer_us: f64,
    /// The portion of `transfer_us` incurred inside the iterative sweep
    /// phases (the per-iteration convergence scalar read-back); the rest
    /// belongs to setup/teardown. Zero for CPU solvers.
    pub transfer_sweep_us: f64,
    /// Host wall-clock of the run, µs (simulation cost — diagnostic only).
    pub wall_us: f64,
}

impl Timing {
    /// Total modeled time.
    pub fn total_us(&self) -> f64 {
        self.phases.total_us()
    }

    /// Modeled time excluding all transfers — the "GPU-only" number the
    /// abstract's scaling claim is about.
    pub fn compute_only_us(&self) -> f64 {
        self.phases.total_us() - self.transfer_us
    }

    /// Modeled time of the iterative sweep phases with their embedded
    /// transfers (the convergence read-back) removed: the part of the
    /// solve that is pure kernel execution.
    pub fn sweep_kernel_us(&self) -> f64 {
        (self.phases.sweep_us() - self.transfer_sweep_us).max(0.0)
    }

    /// Adds another run's timing into this one, field by field: phases,
    /// transfers and wall time all sum. Used wherever several solves make
    /// up one answer (outer-loop iterations, batch shards, per-scenario
    /// fallbacks).
    pub fn accumulate(&mut self, t: &Timing) {
        self.phases.setup_us += t.phases.setup_us;
        self.phases.injection_us += t.phases.injection_us;
        self.phases.backward_us += t.phases.backward_us;
        self.phases.forward_us += t.phases.forward_us;
        self.phases.convergence_us += t.phases.convergence_us;
        self.phases.teardown_us += t.phases.teardown_us;
        self.transfer_us += t.transfer_us;
        self.transfer_sweep_us += t.transfer_sweep_us;
        self.wall_us += t.wall_us;
    }
}

/// What the resilient supervisor had to do to finish a solve.
///
/// Attached to [`SolveResult::fault_report`] only by
/// `recovery::ResilientSolver`; plain solver calls leave it `None`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultReport {
    /// Device faults injected/observed across every attempt.
    pub faults_injected: u32,
    /// Rollbacks to a checkpoint (includes full restarts).
    pub rollbacks: u32,
    /// Retry budget consumed (every rollback and fresh-device restart
    /// charges one retry).
    pub retries: u32,
    /// Checkpoints taken across every attempt.
    pub checkpoints: u32,
    /// Modeled µs spent taking checkpoints (device→host voltage copies).
    pub checkpoint_us: f64,
    /// Backends tried, in order, ending with the one that produced the
    /// result (e.g. `["gpu", "multicore"]` after one degradation).
    pub backends: Vec<String>,
    /// Checked-transfer CRC mismatches detected (and retried) across
    /// every attempt. Every one of these was *caught* — an undetected
    /// corruption by definition never lands here.
    pub corruptions_detected: u32,
}

impl FaultReport {
    /// The backend that produced the result.
    pub fn final_backend(&self) -> &str {
        self.backends.last().map(String::as_str).unwrap_or("")
    }

    /// Whether the supervisor had to abandon the preferred backend.
    pub fn degraded(&self) -> bool {
        self.backends.len() > 1
    }
}

/// The result of one power-flow solve.
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// Bus voltage phasors, indexed by bus id, volts.
    pub v: Vec<Complex>,
    /// Branch current flowing *into* each bus from its parent, indexed by
    /// bus id, amperes. At the root this is the total feeder current.
    pub j: Vec<Complex>,
    /// Iterations executed.
    pub iterations: u32,
    /// How the iteration loop ended (convergence, iteration cap,
    /// divergence, or numerical failure).
    pub status: SolveStatus,
    /// Final `max_p |ΔV_p|`, volts.
    pub residual: f64,
    /// Per-iteration `max_p |ΔV_p|` history (length = `iterations`);
    /// geometric decay here is the solver-health signal E5 plots.
    pub residual_history: Vec<f64>,
    /// Timing summary.
    pub timing: Timing,
    /// Recovery bookkeeping — `Some` only when the solve ran under the
    /// resilient supervisor.
    pub fault_report: Option<FaultReport>,
}

impl SolveResult {
    /// Whether the convergence criterion was met within the cap.
    pub fn converged(&self) -> bool {
        self.status.is_converged()
    }

    /// Convergence-rate estimate: geometric mean of successive residual
    /// ratios over the recorded history (`None` with fewer than 3
    /// iterations). Healthy FBS runs sit well below 1.
    pub fn convergence_rate(&self) -> Option<f64> {
        let h = &self.residual_history;
        if h.len() < 3 {
            return None;
        }
        // Skip the first ratio (flat-start transient).
        let ratios: Vec<f64> =
            h.windows(2).skip(1).filter(|w| w[0] > 0.0).map(|w| w[1] / w[0]).collect();
        if ratios.is_empty() {
            return None;
        }
        let log_sum: f64 = ratios.iter().map(|r| r.ln()).sum();
        Some((log_sum / ratios.len() as f64).exp())
    }

    /// Total series losses `Σ z·|J|²` over all branches, VA.
    pub fn losses(&self, net: &powergrid::RadialNetwork) -> Complex {
        let mut total = Complex::ZERO;
        for bus in 0..net.num_buses() {
            if let Some(br) = net.parent_branch(bus) {
                total += br.z * self.j[bus].norm_sqr();
            }
        }
        total
    }

    /// Apparent power delivered by the substation, VA:
    /// `S = V₀ · conj(J_root)`.
    pub fn source_power(&self, net: &powergrid::RadialNetwork) -> Complex {
        net.source_voltage() * self.j[net.root()].conj()
    }

    /// Minimum voltage magnitude and the bus where it occurs.
    ///
    /// On corrupt results a non-finite magnitude is surfaced (the first
    /// NaN/Inf bus wins) instead of being dropped by the comparison —
    /// `NaN < acc` is always false, so a plain fold would report `(∞, 0)`
    /// for a fully-NaN voltage profile.
    pub fn min_voltage(&self) -> (f64, usize) {
        min_magnitude_surfacing_nonfinite(self.v.iter().map(|v| v.abs()))
    }
}

/// The result a solver returns when [`crate::SolverConfig::validate`]
/// fails: flat-start voltages, zero iterations, an infinite residual and
/// `SolveStatus::InvalidConfig`. The solve never ran.
pub(crate) fn invalid_config_result(n: usize, v0: Complex) -> SolveResult {
    SolveResult {
        v: vec![v0; n],
        j: vec![Complex::ZERO; n],
        iterations: 0,
        status: SolveStatus::InvalidConfig,
        residual: f64::INFINITY,
        residual_history: Vec::new(),
        timing: Timing::default(),
        fault_report: None,
    }
}

/// Folds magnitudes to (min, index), except that the first non-finite
/// entry short-circuits the fold and is returned as-is.
pub(crate) fn min_magnitude_surfacing_nonfinite(
    mags: impl Iterator<Item = f64>,
) -> (f64, usize) {
    let mut acc = (f64::INFINITY, 0);
    for (i, m) in mags.enumerate() {
        if !m.is_finite() {
            return (m, i);
        }
        if m < acc.0 {
            acc = (m, i);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use numc::c;

    #[test]
    fn phase_totals_add_up() {
        let p = PhaseTimes {
            setup_us: 1.0,
            injection_us: 2.0,
            backward_us: 3.0,
            forward_us: 4.0,
            convergence_us: 5.0,
            teardown_us: 6.0,
        };
        assert_eq!(p.total_us(), 21.0);
        assert_eq!(p.sweep_us(), 14.0);
        let t = Timing { phases: p, transfer_us: 7.0, transfer_sweep_us: 3.0, wall_us: 0.0 };
        assert_eq!(t.total_us(), 21.0);
        assert_eq!(t.compute_only_us(), 14.0);
        assert_eq!(t.sweep_kernel_us(), 11.0);
    }

    fn result_with(v: Vec<Complex>) -> SolveResult {
        SolveResult {
            j: vec![Complex::ZERO; v.len()],
            v,
            iterations: 1,
            status: SolveStatus::Converged,
            residual: 0.0,
            residual_history: vec![0.0],
            timing: Timing::default(),
            fault_report: None,
        }
    }

    #[test]
    fn min_voltage_finds_the_sag() {
        let r = result_with(vec![c(100.0, 0.0), c(98.0, -1.0), c(99.0, 0.0)]);
        let (mag, bus) = r.min_voltage();
        assert_eq!(bus, 1);
        assert!((mag - c(98.0, -1.0).abs()).abs() < 1e-12);
        assert!(r.converged());
    }

    #[test]
    fn min_voltage_surfaces_nan_instead_of_reporting_infinity() {
        let r = result_with(vec![c(100.0, 0.0), c(f64::NAN, 0.0), c(99.0, 0.0)]);
        let (mag, bus) = r.min_voltage();
        assert!(mag.is_nan(), "corrupt profile must surface NaN, got {mag}");
        assert_eq!(bus, 1, "and point at the corrupt bus");
    }

    #[test]
    fn min_voltage_surfaces_infinite_magnitudes() {
        let r = result_with(vec![c(100.0, 0.0), c(99.0, 0.0), c(f64::INFINITY, 0.0)]);
        let (mag, bus) = r.min_voltage();
        assert_eq!(mag, f64::INFINITY);
        assert_eq!(bus, 2);
    }
}
