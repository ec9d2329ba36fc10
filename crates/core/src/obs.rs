//! Solver-side telemetry instrumentation.
//!
//! Every solver owns an optional [`Recorder`] (attached with its
//! `with_recorder` builder). The [`Obs`] wrapper keeps the hot loops
//! clean: when no recorder is attached every call is a no-op on an
//! `Option` check, so un-instrumented solves pay nothing measurable.
//!
//! Naming scheme (shared by all solvers so exports line up across
//! backends):
//!
//! * spans — `iter` (category = the solver's own, e.g. `solver.gpu`) and
//!   per-phase children (category `phase`), both on the solver track;
//! * counters — `solver.residual` sampled once per iteration;
//! * histograms — `solver.iteration_us`;
//! * gauges — `phase.*_us` / `transfer_us` / `solver.iterations` /
//!   `solver.residual`, written once per run by [`record_run`], which is
//!   what the run-summary reconciliation test reads.

use telemetry::trace::ArgValue;
use telemetry::{Recorder, Trace};

use crate::report::{FaultReport, Timing};
use crate::status::SolveStatus;

/// A short machine-friendly key for a status (no payload fields), used in
/// counter names like `solve.status.converged`.
pub fn status_key(status: &SolveStatus) -> &'static str {
    match status {
        SolveStatus::Converged => "converged",
        SolveStatus::Recovered { .. } => "recovered",
        SolveStatus::MaxIterations => "max-iterations",
        SolveStatus::Diverged { .. } => "diverged",
        SolveStatus::NumericalFailure { .. } => "numerical-failure",
        SolveStatus::DeadlineExceeded { .. } => "deadline-exceeded",
        SolveStatus::InvalidConfig => "invalid-config",
        SolveStatus::OuterDiverged { .. } => "outer-diverged",
    }
}

/// Cheap per-solver observation handle: `None` recorder = no-op.
#[derive(Clone, Debug, Default)]
pub(crate) struct Obs {
    rec: Option<Recorder>,
    cat: &'static str,
}

impl Obs {
    /// An observation handle for a solver category such as `solver.serial`.
    pub(crate) fn new(rec: Option<&Recorder>, cat: &'static str) -> Self {
        let obs = Obs { rec: rec.cloned(), cat };
        if let Some(r) = &obs.rec {
            r.name_thread(Trace::TID_SOLVER, "solver (modeled)");
        }
        obs
    }

    /// Record one solver iteration as a span plus residual sample.
    pub(crate) fn iteration(&self, iter: u32, start_us: f64, end_us: f64, residual: f64) {
        if let Some(r) = &self.rec {
            let dur = end_us - start_us;
            r.span_with(
                Trace::TID_SOLVER,
                self.cat,
                "iter",
                start_us,
                dur,
                vec![
                    ("iter".to_string(), ArgValue::U64(u64::from(iter))),
                    ("residual".to_string(), ArgValue::F64(residual)),
                ],
            );
            r.counter_sample("solver.residual", end_us, residual);
            r.observe("solver.iteration_us", dur);
        }
    }

    /// Record one sweep phase (injection/backward/forward/...) within an
    /// iteration as a nested span.
    pub(crate) fn phase(&self, name: &'static str, start_us: f64, end_us: f64) {
        if let Some(r) = &self.rec {
            r.span(Trace::TID_SOLVER, "phase", name, start_us, end_us - start_us);
        }
    }

    /// Record a point event (checkpoint taken, rollback, backend switch)
    /// on the solver track.
    pub(crate) fn instant(&self, name: &'static str, ts_us: f64) {
        if let Some(r) = &self.rec {
            r.instant(Trace::TID_SOLVER, self.cat, name, ts_us);
        }
    }

    /// Record one scenario chunk of a tensor-batched solve as a span on
    /// the solver track, tagged with its index and scenario count.
    pub(crate) fn batch_chunk(&self, chunk: usize, scenarios: usize, start_us: f64, end_us: f64) {
        if let Some(r) = &self.rec {
            r.span_with(
                Trace::TID_SOLVER,
                self.cat,
                "chunk",
                start_us,
                end_us - start_us,
                vec![
                    ("chunk".to_string(), ArgValue::U64(chunk as u64)),
                    ("scenarios".to_string(), ArgValue::U64(scenarios as u64)),
                ],
            );
        }
    }

    /// Record whole-batch throughput once per solve.
    pub(crate) fn batch_summary(&self, scenarios: usize, scenarios_per_sec: f64) {
        if let Some(r) = &self.rec {
            r.counter_add("batch.scenarios", scenarios as u64);
            r.gauge_set("batch.scenarios_per_sec", scenarios_per_sec);
        }
    }
}

/// Record a finished run into `rec`: per-phase modeled-time gauges (the
/// values the run summary reconciles against the `simt::Timeline` phase
/// report), aggregate phase spans on their own track, status counters,
/// and — when present — the recovery counters from the fault report.
pub fn record_run(
    rec: &Recorder,
    timing: &Timing,
    iterations: u32,
    residual: f64,
    status: &SolveStatus,
    fault_report: Option<&FaultReport>,
) {
    let p = &timing.phases;
    rec.gauge_set("phase.setup_us", p.setup_us);
    rec.gauge_set("phase.injection_us", p.injection_us);
    rec.gauge_set("phase.backward_us", p.backward_us);
    rec.gauge_set("phase.forward_us", p.forward_us);
    rec.gauge_set("phase.convergence_us", p.convergence_us);
    rec.gauge_set("phase.teardown_us", p.teardown_us);
    rec.gauge_set("phase.total_us", p.total_us());
    rec.gauge_set("phase.sweep_us", p.sweep_us());
    rec.gauge_set("transfer_us", timing.transfer_us);
    rec.gauge_set("transfer_sweep_us", timing.transfer_sweep_us);
    rec.gauge_set("solver.iterations", f64::from(iterations));
    rec.gauge_set("solver.residual", residual);
    rec.counter_add("solve.runs", 1);
    rec.counter_add(&format!("solve.status.{}", status_key(status)), 1);

    // Aggregate per-phase totals as back-to-back spans on a separate
    // track: the E3 breakdown at one glance in the trace viewer.
    rec.name_thread(Trace::TID_PHASES, "phase totals");
    let mut clock = 0.0;
    for (name, us) in [
        ("setup", p.setup_us),
        ("injection", p.injection_us),
        ("backward", p.backward_us),
        ("forward", p.forward_us),
        ("convergence", p.convergence_us),
        ("teardown", p.teardown_us),
    ] {
        if us > 0.0 {
            rec.span(Trace::TID_PHASES, "phase-total", name, clock, us);
            clock += us;
        }
    }

    if let Some(fr) = fault_report {
        rec.counter_add("recovery.faults_injected", u64::from(fr.faults_injected));
        rec.counter_add("recovery.rollbacks", u64::from(fr.rollbacks));
        rec.counter_add("recovery.retries", u64::from(fr.retries));
        rec.counter_add("recovery.checkpoints", u64::from(fr.checkpoints));
        rec.gauge_set("recovery.checkpoint_us", fr.checkpoint_us);
        rec.counter_add(
            "integrity.corruptions_detected",
            u64::from(fr.corruptions_detected),
        );
        for backend in &fr.backends {
            rec.counter_add(&format!("recovery.backend.{backend}"), 1);
        }
    }
}

/// Record a finished meshed/DG run into `rec`: the inner-solve gauges
/// of [`record_run`] plus the `mesh.*` run-summary gauges — outer
/// iterations, final break-point and PV mismatches, loop/generator
/// counts and the mode-flip total.
pub fn record_mesh_run(rec: &Recorder, res: &crate::mesh::MeshResult) {
    record_run(
        rec,
        &res.inner.timing,
        res.inner.iterations,
        res.inner.residual,
        &res.status,
        res.inner.fault_report.as_ref(),
    );
    rec.gauge_set("mesh.outer_iterations", f64::from(res.outer_iterations));
    rec.gauge_set("mesh.breakpoint_residual", res.breakpoint_residual);
    rec.gauge_set("mesh.pv_error", res.pv_error);
    rec.gauge_set("mesh.loops", res.loop_currents.len() as f64);
    rec.gauge_set("mesh.gens", res.q_gen.len() as f64);
    rec.gauge_set("mesh.mode_flips", f64::from(res.mode_flips));
}

/// The three-phase sibling of [`record_mesh_run`] (no break points —
/// three-phase networks are radial, so only the PV gauges apply).
pub fn record_mesh3_run(rec: &Recorder, res: &crate::mesh::Mesh3Result) {
    record_run(rec, &res.inner.timing, res.inner.iterations, res.inner.residual, &res.status, None);
    rec.gauge_set("mesh.outer_iterations", f64::from(res.outer_iterations));
    rec.gauge_set("mesh.pv_error", res.pv_error);
    rec.gauge_set("mesh.gens", res.q_gen.len() as f64);
    rec.gauge_set("mesh.mode_flips", f64::from(res.mode_flips));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PhaseTimes;

    fn timing() -> Timing {
        Timing {
            phases: PhaseTimes {
                setup_us: 10.0,
                injection_us: 20.0,
                backward_us: 40.0,
                forward_us: 25.0,
                convergence_us: 4.0,
                teardown_us: 1.0,
            },
            transfer_us: 8.0,
            transfer_sweep_us: 2.0,
            wall_us: 12345.0,
        }
    }

    #[test]
    fn record_run_writes_reconciling_phase_gauges() {
        let rec = Recorder::new();
        record_run(&rec, &timing(), 7, 1e-9, &SolveStatus::Converged, None);
        let (trace, reg) = rec.snapshot();

        let gauges: std::collections::BTreeMap<&str, f64> = reg.gauges().collect();
        let parts = ["setup", "injection", "backward", "forward", "convergence", "teardown"]
            .iter()
            .map(|p| gauges[format!("phase.{p}_us").as_str()])
            .sum::<f64>();
        assert_eq!(parts, gauges["phase.total_us"]);
        assert_eq!(gauges["solver.iterations"], 7.0);

        let counters: std::collections::BTreeMap<&str, u64> = reg.counters().collect();
        assert_eq!(counters["solve.runs"], 1);
        assert_eq!(counters["solve.status.converged"], 1);

        // The phase-total track replays the breakdown as contiguous spans.
        assert_eq!(trace.total_us_in_cat("phase-total"), gauges["phase.total_us"]);
    }

    #[test]
    fn record_run_folds_in_the_fault_report() {
        let rec = Recorder::new();
        let fr = FaultReport {
            faults_injected: 3,
            rollbacks: 2,
            retries: 2,
            checkpoints: 5,
            checkpoint_us: 42.0,
            backends: vec!["gpu".to_string(), "cpu".to_string()],
            corruptions_detected: 1,
        };
        record_run(
            &rec,
            &timing(),
            9,
            1e-7,
            &SolveStatus::Recovered { faults: 3, retries: 2 },
            Some(&fr),
        );
        let (_, reg) = rec.snapshot();
        let counters: std::collections::BTreeMap<&str, u64> = reg.counters().collect();
        assert_eq!(counters["recovery.faults_injected"], 3);
        assert_eq!(counters["recovery.rollbacks"], 2);
        assert_eq!(counters["recovery.checkpoints"], 5);
        assert_eq!(counters["solve.status.recovered"], 1);
        assert_eq!(counters["recovery.backend.gpu"], 1);
        assert_eq!(counters["recovery.backend.cpu"], 1);
        assert_eq!(counters["integrity.corruptions_detected"], 1);
    }

    #[test]
    fn status_keys_are_stable_and_distinct() {
        let statuses = [
            SolveStatus::Converged,
            SolveStatus::Recovered { faults: 1, retries: 1 },
            SolveStatus::MaxIterations,
            SolveStatus::InvalidConfig,
        ];
        let keys: std::collections::BTreeSet<&str> =
            statuses.iter().map(status_key).collect();
        assert_eq!(keys.len(), statuses.len(), "keys must be distinct");
        assert!(keys.contains("converged") && keys.contains("recovered"));
    }
}
