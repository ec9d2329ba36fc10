//! Structured convergence status and the shared loop-exit classifier.
//!
//! Every solver in this crate drives its host-side iteration loop off one
//! scalar: the ∞-norm of the voltage update. A bare `converged: bool`
//! cannot distinguish the four ways that loop can end — met the
//! tolerance, ran out of iterations, blew up, or produced NaN/±Inf — and
//! the last two used to masquerade as the first because `f64::max` and
//! `d > delta` comparisons both silently drop NaN. [`SolveStatus`] makes
//! the outcome explicit, and [`ConvergenceMonitor`] centralises the
//! classification so all six solvers agree on it iteration-for-iteration.

use std::fmt;

use crate::config::SolverConfig;

/// How a solve's iteration loop ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolveStatus {
    /// The ∞-norm voltage update met the tolerance.
    Converged,
    /// Converged, but only after the resilient supervisor rolled back
    /// and replayed past injected device faults. The answer is as good
    /// as [`SolveStatus::Converged`]; the variant records that the run
    /// was not clean.
    Recovered {
        /// Device faults observed during the solve.
        faults: u32,
        /// Rollback/retry attempts the supervisor spent.
        retries: u32,
    },
    /// The iteration cap was reached with a finite, non-exploding
    /// residual (slow convergence or a bound oscillation).
    MaxIterations,
    /// The solve ran out of time budget before meeting the tolerance.
    /// The voltages are the (partial, finite) state at the abort point —
    /// usable for diagnostics, not for operating decisions.
    DeadlineExceeded {
        /// Iterations completed when the deadline tripped (≥ 0; a solve
        /// aborted before its first sweep reports 0).
        at_iteration: u32,
        /// Modeled time elapsed when the deadline tripped, µs (for a
        /// wall-clock watchdog abort, the wall time instead).
        elapsed_us: u64,
    },
    /// The configuration failed validation (e.g. `max_iter == 0` poked
    /// in through the public fields); the solve never started.
    InvalidConfig,
    /// The residual exceeded the divergence cap, or grew for
    /// `divergence_patience` consecutive iterations.
    Diverged {
        /// Iteration (1-based) at which divergence was declared.
        at_iteration: u32,
    },
    /// The residual went NaN or ±Inf — voltages collapsed through zero
    /// (`I = conj(S/V)` with `V → 0`) or overflowed.
    NumericalFailure {
        /// Iteration (1-based) at which the residual went non-finite.
        at_iteration: u32,
    },
    /// The weakly-meshed/DG *outer* loop (break-point compensation +
    /// PV-bus Q adjustment, [`crate::mesh`]) diverged or limit-cycled
    /// while the inner sweeps themselves were healthy. Distinct from
    /// [`SolveStatus::Diverged`] so operators can tell "the feeder
    /// physics blew up" from "the loop/DG coupling cannot settle";
    /// outer-loop *slowness* (cap reached with a shrinking mismatch) is
    /// reported as [`SolveStatus::MaxIterations`] instead.
    OuterDiverged {
        /// Outer iteration (1-based) at which the failure was declared.
        at_outer: u32,
    },
}

impl SolveStatus {
    /// `true` for [`SolveStatus::Converged`] and
    /// [`SolveStatus::Recovered`] — both met the tolerance.
    pub fn is_converged(self) -> bool {
        matches!(self, SolveStatus::Converged | SolveStatus::Recovered { .. })
    }

    /// `true` for the abnormal exits ([`SolveStatus::Diverged`],
    /// [`SolveStatus::NumericalFailure`] and
    /// [`SolveStatus::InvalidConfig`]); `MaxIterations` and
    /// `DeadlineExceeded` are slow, not broken.
    pub fn is_failure(self) -> bool {
        matches!(
            self,
            SolveStatus::Diverged { .. }
                | SolveStatus::OuterDiverged { .. }
                | SolveStatus::NumericalFailure { .. }
                | SolveStatus::InvalidConfig
        )
    }

    /// Severity rank for batch-wide summaries (higher is worse).
    fn severity(self) -> u8 {
        match self {
            SolveStatus::Converged => 0,
            SolveStatus::Recovered { .. } => 1,
            SolveStatus::MaxIterations => 2,
            SolveStatus::DeadlineExceeded { .. } => 3,
            SolveStatus::Diverged { .. } => 4,
            SolveStatus::OuterDiverged { .. } => 5,
            SolveStatus::NumericalFailure { .. } => 6,
            SolveStatus::InvalidConfig => 7,
        }
    }

    /// The worse of two statuses (batch reductions keep the most severe
    /// scenario outcome).
    pub fn worse(self, other: SolveStatus) -> SolveStatus {
        if other.severity() > self.severity() {
            other
        } else {
            self
        }
    }

    /// Process exit code for CLI front-ends: 0 converged, 2 iteration cap,
    /// 3 diverged, 4 numerical failure, 6 deadline exceeded, 7 invalid
    /// config, 8 data-integrity failure, 9 outer-loop divergence (1 is
    /// reserved for usage/IO errors, 5 for unrecoverable device loss).
    pub fn exit_code(self) -> u8 {
        match self {
            SolveStatus::Converged | SolveStatus::Recovered { .. } => 0,
            SolveStatus::MaxIterations => 2,
            SolveStatus::Diverged { .. } => 3,
            SolveStatus::NumericalFailure { .. } => 4,
            SolveStatus::DeadlineExceeded { .. } => 6,
            SolveStatus::InvalidConfig => 7,
            SolveStatus::OuterDiverged { .. } => 9,
        }
    }
}

impl fmt::Display for SolveStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveStatus::Converged => write!(f, "converged"),
            SolveStatus::Recovered { faults, retries } => {
                write!(f, "recovered ({faults} faults, {retries} retries)")
            }
            SolveStatus::MaxIterations => write!(f, "max-iterations"),
            SolveStatus::DeadlineExceeded { at_iteration, elapsed_us } => {
                write!(f, "deadline-exceeded (iteration {at_iteration}, {elapsed_us} µs)")
            }
            SolveStatus::InvalidConfig => write!(f, "invalid-config"),
            SolveStatus::Diverged { at_iteration } => {
                write!(f, "diverged (iteration {at_iteration})")
            }
            SolveStatus::NumericalFailure { at_iteration } => {
                write!(f, "numerical-failure (iteration {at_iteration})")
            }
            SolveStatus::OuterDiverged { at_outer } => {
                write!(f, "outer-diverged (outer iteration {at_outer})")
            }
        }
    }
}

/// Per-iteration residual classifier shared by every solver.
///
/// Feed it each iteration's ∞-norm residual via [`observe`]; it answers
/// with `Some(status)` when the loop should stop. The checks, in order:
///
/// 1. non-finite residual → [`SolveStatus::NumericalFailure`],
/// 2. residual ≤ tolerance → [`SolveStatus::Converged`],
/// 3. residual > `divergence_cap · |V₀|` → [`SolveStatus::Diverged`],
/// 4. residual grew for `divergence_patience` consecutive iterations →
///    [`SolveStatus::Diverged`].
///
/// Healthy solves only ever trip check 2, so iteration counts are
/// byte-identical to the pre-monitor loops.
///
/// [`observe`]: ConvergenceMonitor::observe
#[derive(Clone, Debug)]
pub struct ConvergenceMonitor {
    tol: f64,
    cap: f64,
    patience: u32,
    prev: f64,
    growth_streak: u32,
}

impl ConvergenceMonitor {
    /// Creates a monitor for a solve with the given source-voltage
    /// magnitude (both the tolerance and the divergence cap scale with
    /// it).
    pub fn new(cfg: &SolverConfig, source_mag: f64) -> Self {
        ConvergenceMonitor {
            tol: cfg.tol_volts(source_mag),
            cap: cfg.divergence_cap_volts(source_mag),
            patience: cfg.divergence_patience,
            prev: f64::INFINITY,
            growth_streak: 0,
        }
    }

    /// Absolute voltage tolerance of this solve, volts.
    pub fn tol(&self) -> f64 {
        self.tol
    }

    /// Absolute divergence cap of this solve, volts.
    pub fn cap(&self) -> f64 {
        self.cap
    }

    /// The test an on-device iteration loop runs between sweeps, as of
    /// this monitor's state.
    pub(crate) fn sure_continue(&self) -> SureContinue {
        SureContinue { tol: self.tol, cap: self.cap, prev: self.prev }
    }

    /// Classifies iteration `iteration`'s residual. `Some(status)` means
    /// the loop must stop with that status; `None` means keep iterating.
    pub fn observe(&mut self, iteration: u32, residual: f64) -> Option<SolveStatus> {
        if !residual.is_finite() {
            return Some(SolveStatus::NumericalFailure { at_iteration: iteration });
        }
        if residual <= self.tol {
            return Some(SolveStatus::Converged);
        }
        if residual > self.cap {
            return Some(SolveStatus::Diverged { at_iteration: iteration });
        }
        if residual > self.prev {
            self.growth_streak += 1;
            if self.growth_streak >= self.patience {
                return Some(SolveStatus::Diverged { at_iteration: iteration });
            }
        } else {
            self.growth_streak = 0;
        }
        self.prev = residual;
        None
    }
}

/// The part of a [`ConvergenceMonitor`] a device can evaluate between
/// the sweeps of one launch: another sweep runs only after a residual at
/// which [`ConvergenceMonitor::observe`] cannot stop, whatever its growth
/// streak. So a launch never runs past an iteration the host loop would
/// stop at, and replaying its residuals through the monitor gives the
/// host loop's verdicts exactly.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SureContinue {
    tol: f64,
    cap: f64,
    prev: f64,
}

impl SureContinue {
    /// A test that never continues: one sweep per launch.
    pub(crate) const NEVER: SureContinue = SureContinue { tol: f64::INFINITY, cap: 0.0, prev: 0.0 };

    /// Whether a sweep may follow one that left `residual`: only while
    /// `tol < residual ≤ cap` and `residual ≤ prev`, so a NaN or an
    /// infinite residual stops. Advances `prev` to `residual`.
    pub(crate) fn step(&mut self, residual: f64) -> bool {
        let go = self.tol < residual && residual <= self.cap && residual <= self.prev;
        self.prev = residual;
        go
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SolverConfig {
        SolverConfig::new(1e-6, 100)
    }

    #[test]
    fn converged_when_residual_meets_tolerance() {
        let mut m = ConvergenceMonitor::new(&cfg(), 100.0);
        assert_eq!(m.observe(1, 1.0), None);
        assert_eq!(m.observe(2, 1e-5), Some(SolveStatus::Converged));
    }

    #[test]
    fn nan_and_inf_are_numerical_failures_not_convergence() {
        let mut m = ConvergenceMonitor::new(&cfg(), 100.0);
        assert_eq!(
            m.observe(3, f64::NAN),
            Some(SolveStatus::NumericalFailure { at_iteration: 3 })
        );
        let mut m = ConvergenceMonitor::new(&cfg(), 100.0);
        assert_eq!(
            m.observe(1, f64::INFINITY),
            Some(SolveStatus::NumericalFailure { at_iteration: 1 })
        );
    }

    #[test]
    fn residual_over_cap_diverges_immediately() {
        let mut m = ConvergenceMonitor::new(&cfg(), 100.0);
        // Default cap is 1e3·|V₀| = 1e5 V here.
        assert_eq!(m.observe(1, 2e5), Some(SolveStatus::Diverged { at_iteration: 1 }));
    }

    #[test]
    fn sustained_growth_diverges_after_patience() {
        let mut m = ConvergenceMonitor::new(&cfg(), 100.0);
        let patience = cfg().divergence_patience;
        let mut r = 1.0;
        let mut stopped = None;
        for k in 1..=patience + 1 {
            r *= 1.5; // grows every iteration, stays under the cap
            if let Some(s) = m.observe(k, r) {
                stopped = Some((k, s));
                break;
            }
        }
        let (k, s) = stopped.expect("sustained growth must be declared divergence");
        assert_eq!(s, SolveStatus::Diverged { at_iteration: k });
        // Iteration 1 establishes the baseline; growth is counted from
        // iteration 2 on, so the streak fills at `patience + 1`.
        assert_eq!(k, patience + 1, "patience counts consecutive growing iterations");
    }

    #[test]
    fn a_single_growth_blip_is_forgiven() {
        let mut m = ConvergenceMonitor::new(&cfg(), 100.0);
        assert_eq!(m.observe(1, 10.0), None);
        assert_eq!(m.observe(2, 12.0), None, "one uptick is not divergence");
        assert_eq!(m.observe(3, 8.0), None);
        for k in 0..cfg().divergence_patience {
            // Alternating decay never accumulates a streak.
            let r = 7.0 - 0.1 * k as f64;
            assert_eq!(m.observe(4 + k, r), None);
        }
    }

    #[test]
    fn healthy_geometric_decay_runs_to_convergence() {
        let mut m = ConvergenceMonitor::new(&cfg(), 7200.0);
        let mut r = 700.0;
        for k in 1..60 {
            r *= 0.5;
            match m.observe(k, r) {
                None => continue,
                Some(SolveStatus::Converged) => return,
                Some(other) => panic!("healthy decay misclassified as {other:?}"),
            }
        }
        panic!("decay must reach the tolerance");
    }

    #[test]
    fn severity_order_and_worse() {
        let dl = SolveStatus::DeadlineExceeded { at_iteration: 3, elapsed_us: 900 };
        let d = SolveStatus::Diverged { at_iteration: 2 };
        let n = SolveStatus::NumericalFailure { at_iteration: 5 };
        assert_eq!(SolveStatus::Converged.worse(SolveStatus::MaxIterations), SolveStatus::MaxIterations);
        assert_eq!(SolveStatus::MaxIterations.worse(dl), dl);
        assert_eq!(dl.worse(d), d);
        assert_eq!(d.worse(n), n);
        assert_eq!(n.worse(SolveStatus::InvalidConfig), SolveStatus::InvalidConfig);
        assert_eq!(n.worse(SolveStatus::Converged), n);
    }

    #[test]
    fn exit_codes_are_distinct_and_reserved() {
        let codes = [
            SolveStatus::Converged.exit_code(),
            SolveStatus::MaxIterations.exit_code(),
            SolveStatus::Diverged { at_iteration: 1 }.exit_code(),
            SolveStatus::NumericalFailure { at_iteration: 1 }.exit_code(),
            SolveStatus::DeadlineExceeded { at_iteration: 1, elapsed_us: 1 }.exit_code(),
            SolveStatus::InvalidConfig.exit_code(),
            SolveStatus::OuterDiverged { at_outer: 1 }.exit_code(),
        ];
        assert_eq!(codes[0], 0);
        for (i, &a) in codes.iter().enumerate() {
            assert_ne!(a, 1, "exit 1 is reserved for usage errors");
            assert_ne!(a, 5, "exit 5 is reserved for unrecoverable device loss");
            for &b in &codes[i + 1..] {
                assert_ne!(a, b, "exit codes must be distinct");
            }
        }
    }

    #[test]
    fn deadline_is_slow_not_broken() {
        let dl = SolveStatus::DeadlineExceeded { at_iteration: 4, elapsed_us: 1234 };
        assert!(!dl.is_converged());
        assert!(!dl.is_failure(), "a deadline miss is a scheduling event, not corruption");
        assert_eq!(dl.exit_code(), 6);
        assert_eq!(dl.to_string(), "deadline-exceeded (iteration 4, 1234 µs)");
    }

    #[test]
    fn outer_divergence_is_a_failure_ranked_between_diverged_and_numerical() {
        let od = SolveStatus::OuterDiverged { at_outer: 3 };
        let d = SolveStatus::Diverged { at_iteration: 2 };
        let n = SolveStatus::NumericalFailure { at_iteration: 5 };
        assert!(od.is_failure());
        assert!(!od.is_converged());
        assert_eq!(od.exit_code(), 9);
        assert_eq!(d.worse(od), od);
        assert_eq!(od.worse(n), n);
        assert_eq!(od.to_string(), "outer-diverged (outer iteration 3)");
    }

    #[test]
    fn invalid_config_is_a_failure() {
        assert!(SolveStatus::InvalidConfig.is_failure());
        assert!(!SolveStatus::InvalidConfig.is_converged());
        assert_eq!(SolveStatus::InvalidConfig.to_string(), "invalid-config");
    }

    #[test]
    fn recovered_counts_as_converged_but_ranks_worse() {
        let r = SolveStatus::Recovered { faults: 3, retries: 2 };
        assert!(r.is_converged());
        assert!(!r.is_failure());
        assert_eq!(r.exit_code(), 0, "a recovered answer is still a good answer");
        assert_eq!(SolveStatus::Converged.worse(r), r);
        assert_eq!(r.worse(SolveStatus::MaxIterations), SolveStatus::MaxIterations);
        assert_eq!(r.to_string(), "recovered (3 faults, 2 retries)");
    }

    #[test]
    fn display_is_humane() {
        assert_eq!(SolveStatus::Converged.to_string(), "converged");
        assert_eq!(
            SolveStatus::NumericalFailure { at_iteration: 7 }.to_string(),
            "numerical-failure (iteration 7)"
        );
    }
}
