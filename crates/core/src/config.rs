//! Solver configuration and the shared convergence criterion.

use std::fmt;

/// Why a [`SolverConfig`] failed validation.
///
/// The constructors (`new`, `with_divergence`, `with_recovery`,
/// `with_deadline`) assert these invariants eagerly, but every field is
/// public — a config assembled or mutated directly can smuggle in values
/// the asserts never saw (`max_iter = 0` historically returned
/// `MaxIterations` with an uninitialized residual). All six solvers now
/// call [`SolverConfig::validate`] on entry and report
/// `SolveStatus::InvalidConfig` instead of iterating on garbage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `max_iter` is zero — the loop would exit before its first sweep.
    ZeroMaxIter,
    /// `tol_rel` is non-positive, NaN or infinite.
    BadTolerance,
    /// `divergence_cap` is non-finite or not above `tol_rel`, or
    /// `divergence_patience` is zero.
    BadDivergence,
    /// `checkpoint_every` is zero — checkpoints would never be taken but
    /// the cadence arithmetic divides by it.
    ZeroCheckpointEvery,
    /// `deadline_us` is present but non-positive, NaN or infinite.
    BadDeadline,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroMaxIter => write!(f, "max_iter must be at least 1"),
            ConfigError::BadTolerance => write!(f, "tol_rel must be positive and finite"),
            ConfigError::BadDivergence => {
                write!(f, "divergence_cap must be finite and above tol_rel, patience nonzero")
            }
            ConfigError::ZeroCheckpointEvery => write!(f, "checkpoint_every must be at least 1"),
            ConfigError::BadDeadline => write!(f, "deadline_us must be positive and finite"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration shared by every FBS solver in this crate, so that
/// serial/GPU/multicore runs are comparable iteration-for-iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolverConfig {
    /// Convergence tolerance, relative to the source-voltage magnitude:
    /// the solve stops when `max_p |V_p^{k} − V_p^{k−1}| ≤ tol_rel·|V₀|`.
    pub tol_rel: f64,
    /// Iteration cap; exceeding it returns `SolveStatus::MaxIterations`.
    pub max_iter: u32,
    /// Divergence cap, relative to the source-voltage magnitude: a
    /// residual above `divergence_cap·|V₀|` aborts the solve with
    /// `SolveStatus::Diverged`. A voltage *update* three orders of
    /// magnitude above the source voltage has left any physical operating
    /// regime, so the default of `1e3` never fires on a healthy solve.
    pub divergence_cap: f64,
    /// Number of consecutive residual-growth iterations tolerated before
    /// declaring `SolveStatus::Diverged`. FBS residuals on convergent
    /// cases decay (near-)monotonically; sustained growth means the fixed
    /// point is repelling.
    pub divergence_patience: u32,
    /// Recovery: a device-side voltage checkpoint is taken every this
    /// many iterations (used by `recovery::ResilientSolver`; plain
    /// `solve` calls never checkpoint).
    pub checkpoint_every: u32,
    /// Recovery: bound on rollback/retry attempts before the resilient
    /// supervisor degrades to the next backend in the chain.
    pub max_recoveries: u32,
    /// Modeled-time budget for the solve, µs. When set, every solver
    /// checks its accumulated modeled phase time after each iteration
    /// and aborts with `SolveStatus::DeadlineExceeded` once the budget
    /// is spent. `None` (the default) means unbounded.
    pub deadline_us: Option<f64>,
    /// Warm start: seed the voltage iterate from a caller-supplied
    /// base-case profile instead of the flat source-voltage start.
    /// The profile itself is passed alongside the config (the
    /// `solve_warm` entry points and the contingency screener); this
    /// flag records intent so batched paths can decide per-run whether
    /// to upload a seed profile. Ignored by entry points that take no
    /// profile.
    pub warm_start: bool,
}

impl SolverConfig {
    /// The tolerance used by the paper-reproduction experiments.
    pub const DEFAULT_TOL: f64 = 1e-6;
    /// Default divergence cap (relative to `|V₀|`).
    pub const DEFAULT_DIVERGENCE_CAP: f64 = 1e3;
    /// Default growth patience before declaring divergence.
    pub const DEFAULT_DIVERGENCE_PATIENCE: u32 = 8;
    /// Default checkpoint cadence, iterations. Healthy FBS solves
    /// converge in ~10–20 iterations, so every 4 bounds replay work to
    /// at most 4 sweeps while keeping checkpoint transfers rare.
    pub const DEFAULT_CHECKPOINT_EVERY: u32 = 4;
    /// Default rollback/retry budget per backend.
    pub const DEFAULT_MAX_RECOVERIES: u32 = 8;

    /// Creates a config with the given relative tolerance and cap, using
    /// the default divergence thresholds.
    pub fn new(tol_rel: f64, max_iter: u32) -> Self {
        assert!(tol_rel > 0.0 && tol_rel.is_finite(), "tolerance must be positive");
        assert!(max_iter >= 1, "need at least one iteration");
        SolverConfig {
            tol_rel,
            max_iter,
            divergence_cap: Self::DEFAULT_DIVERGENCE_CAP,
            divergence_patience: Self::DEFAULT_DIVERGENCE_PATIENCE,
            checkpoint_every: Self::DEFAULT_CHECKPOINT_EVERY,
            max_recoveries: Self::DEFAULT_MAX_RECOVERIES,
            deadline_us: None,
            warm_start: false,
        }
    }

    /// Overrides the divergence thresholds. The cap must exceed the
    /// tolerance or every solve would abort before converging.
    pub fn with_divergence(mut self, cap: f64, patience: u32) -> Self {
        assert!(cap.is_finite() && cap > self.tol_rel, "cap must be finite and above tol_rel");
        assert!(patience >= 1, "need at least one growth iteration");
        self.divergence_cap = cap;
        self.divergence_patience = patience;
        self
    }

    /// Overrides the recovery policy: checkpoint cadence and the
    /// rollback/retry budget used by `recovery::ResilientSolver`.
    pub fn with_recovery(mut self, checkpoint_every: u32, max_recoveries: u32) -> Self {
        assert!(checkpoint_every >= 1, "need a nonzero checkpoint cadence");
        self.checkpoint_every = checkpoint_every;
        self.max_recoveries = max_recoveries;
        self
    }

    /// Sets a modeled-time deadline for the solve, µs. The budget must
    /// be positive and finite.
    pub fn with_deadline(mut self, deadline_us: f64) -> Self {
        assert!(
            deadline_us > 0.0 && deadline_us.is_finite(),
            "deadline must be positive and finite"
        );
        self.deadline_us = Some(deadline_us);
        self
    }

    /// Requests a warm start: solvers with a `solve_warm` entry point
    /// seed the iterate from the supplied base-case profile, and the
    /// contingency screener solves the base case once and reuses it
    /// across every contingency.
    pub fn with_warm_start(mut self) -> Self {
        self.warm_start = true;
        self
    }

    /// Checks every invariant the builder asserts, for configs that were
    /// assembled or mutated through the public fields. Solvers call this
    /// on entry; an `Err` becomes `SolveStatus::InvalidConfig`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.tol_rel > 0.0 && self.tol_rel.is_finite()) {
            return Err(ConfigError::BadTolerance);
        }
        if self.max_iter == 0 {
            return Err(ConfigError::ZeroMaxIter);
        }
        if !(self.divergence_cap.is_finite() && self.divergence_cap > self.tol_rel)
            || self.divergence_patience == 0
        {
            return Err(ConfigError::BadDivergence);
        }
        if self.checkpoint_every == 0 {
            return Err(ConfigError::ZeroCheckpointEvery);
        }
        if let Some(d) = self.deadline_us {
            if !(d > 0.0 && d.is_finite()) {
                return Err(ConfigError::BadDeadline);
            }
        }
        Ok(())
    }

    /// Absolute voltage tolerance for a given source magnitude, volts.
    pub fn tol_volts(&self, source_mag: f64) -> f64 {
        self.tol_rel * source_mag
    }

    /// Absolute divergence cap for a given source magnitude, volts.
    pub fn divergence_cap_volts(&self, source_mag: f64) -> f64 {
        self.divergence_cap * source_mag
    }
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            tol_rel: Self::DEFAULT_TOL,
            max_iter: 100,
            divergence_cap: Self::DEFAULT_DIVERGENCE_CAP,
            divergence_patience: Self::DEFAULT_DIVERGENCE_PATIENCE,
            checkpoint_every: Self::DEFAULT_CHECKPOINT_EVERY,
            max_recoveries: Self::DEFAULT_MAX_RECOVERIES,
            deadline_us: None,
            warm_start: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_papers_setting() {
        let c = SolverConfig::default();
        assert_eq!(c.tol_rel, 1e-6);
        assert_eq!(c.max_iter, 100);
        assert_eq!(c.tol_volts(7200.0), 7200.0 * 1e-6);
        assert_eq!(c.divergence_cap, 1e3);
        assert_eq!(c.divergence_patience, 8);
        assert_eq!(c.divergence_cap_volts(100.0), 1e5);
        assert!(!c.warm_start, "cold start by default");
    }

    #[test]
    fn warm_start_is_an_opt_in_flag() {
        let c = SolverConfig::default().with_warm_start();
        assert!(c.warm_start);
        assert_eq!(c.validate(), Ok(()), "warm start does not perturb validation");
        // The flag composes with the other builders.
        let c = SolverConfig::new(1e-8, 40).with_warm_start().with_deadline(1e6);
        assert!(c.warm_start && c.deadline_us == Some(1e6));
    }

    #[test]
    fn with_divergence_overrides_thresholds() {
        let c = SolverConfig::new(1e-6, 50).with_divergence(10.0, 3);
        assert_eq!(c.divergence_cap, 10.0);
        assert_eq!(c.divergence_patience, 3);
        assert_eq!(c.tol_rel, 1e-6, "tolerance untouched");
    }

    #[test]
    #[should_panic(expected = "cap")]
    fn cap_below_tolerance_rejected() {
        SolverConfig::new(1e-2, 50).with_divergence(1e-3, 3);
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn zero_tolerance_rejected() {
        SolverConfig::new(0.0, 10);
    }

    #[test]
    #[should_panic(expected = "iteration")]
    fn zero_iterations_rejected() {
        SolverConfig::new(1e-6, 0);
    }

    #[test]
    #[should_panic(expected = "deadline")]
    fn non_positive_deadline_rejected() {
        SolverConfig::default().with_deadline(0.0);
    }

    #[test]
    fn validate_catches_field_poked_footguns() {
        assert_eq!(SolverConfig::default().validate(), Ok(()));
        assert_eq!(
            SolverConfig::default().with_deadline(500.0).validate(),
            Ok(()),
            "a finite positive deadline is valid"
        );

        let d = SolverConfig::default();
        let c = SolverConfig { max_iter: 0, ..d };
        assert_eq!(c.validate(), Err(ConfigError::ZeroMaxIter));

        let c = SolverConfig { tol_rel: f64::NAN, ..d };
        assert_eq!(c.validate(), Err(ConfigError::BadTolerance));

        let mut c = SolverConfig { divergence_cap: f64::INFINITY, ..d };
        assert_eq!(c.validate(), Err(ConfigError::BadDivergence));
        c.divergence_cap = SolverConfig::DEFAULT_DIVERGENCE_CAP;
        c.divergence_patience = 0;
        assert_eq!(c.validate(), Err(ConfigError::BadDivergence));

        let c = SolverConfig { checkpoint_every: 0, ..d };
        assert_eq!(c.validate(), Err(ConfigError::ZeroCheckpointEvery));

        let c = SolverConfig { deadline_us: Some(-1.0), ..d };
        assert_eq!(c.validate(), Err(ConfigError::BadDeadline));
    }
}
