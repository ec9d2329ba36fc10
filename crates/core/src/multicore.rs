//! Level-parallel multicore CPU solver (ablation baseline).
//!
//! Answers the reviewer question the paper leaves open: *how much of the
//! GPU win is parallelism you could have had on the host?* Same
//! level-synchronous structure as the GPU solver, executed by host
//! threads over chunked level ranges with a barrier per level (realised
//! here as one `std::thread::scope` per parallel region).
//!
//! Modeled time: the serial roofline time of each region divided by the
//! effective core count, plus a per-region fork/join overhead — the
//! textbook bulk-synchronous model. Narrow levels (chains!) degenerate to
//! pure overhead, exactly like kernel launches do on the device.

use std::time::Instant;

use numc::Complex;
use powergrid::RadialNetwork;
use primitives::ops::{MaxAbsF64, ScanOp};
use simt::HostProps;

use telemetry::Recorder;

use crate::arrays::SolverArrays;
use crate::config::SolverConfig;
use crate::obs::Obs;
use crate::report::{PhaseTimes, SolveResult, Timing};
use crate::status::{ConvergenceMonitor, SolveStatus};

/// Work below this many buses runs inline instead of forking threads.
const PARALLEL_THRESHOLD: usize = 2048;

/// Modeled fork/join cost of one parallel region, µs.
const FORK_JOIN_US: f64 = 4.0;

/// The level-parallel multicore solver.
#[derive(Clone, Debug)]
pub struct MulticoreSolver {
    host: HostProps,
    cores: usize,
    recorder: Option<Recorder>,
}

impl MulticoreSolver {
    /// Creates a solver modeling `cores` host cores.
    pub fn new(host: HostProps, cores: usize) -> Self {
        assert!(cores >= 1, "need at least one core");
        MulticoreSolver { host, cores, recorder: None }
    }

    /// Attaches a telemetry recorder: per-iteration/per-phase spans and
    /// residual samples are recorded into it during every solve.
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Modeled core count.
    pub fn cores(&self) -> usize {
        self.cores
    }

    fn region_time_us(&self, flops: u64, bytes: u64, parallelism: usize, working_set: u64) -> f64 {
        let eff = self.cores.min(parallelism.max(1)) as f64;
        let serial = self.host.region_time_us_ws(flops, bytes, working_set);
        if parallelism >= PARALLEL_THRESHOLD {
            serial / eff + FORK_JOIN_US
        } else {
            serial
        }
    }

    /// Solves a network from scratch.
    pub fn solve(&self, net: &RadialNetwork, cfg: &SolverConfig) -> SolveResult {
        let arrays = SolverArrays::new(net);
        self.solve_arrays(&arrays, cfg)
    }

    /// Solves with pre-built arrays.
    pub fn solve_arrays(&self, a: &SolverArrays, cfg: &SolverConfig) -> SolveResult {
        self.solve_warm(a, cfg, None)
    }

    /// Solves starting from a previous solution instead of the flat
    /// start (`v_init` is indexed by *bus id*), mirroring
    /// [`crate::SerialSolver::solve_warm`] — the mesh outer loop re-solves
    /// the same topology with updated loads every outer iteration.
    pub fn solve_warm(
        &self,
        a: &SolverArrays,
        cfg: &SolverConfig,
        v_init: Option<&[Complex]>,
    ) -> SolveResult {
        let wall0 = Instant::now();
        let n = a.len();
        let v0 = a.source;
        if cfg.validate().is_err() {
            return crate::report::invalid_config_result(n, v0);
        }
        let mut monitor = ConvergenceMonitor::new(cfg, v0.abs());

        let mut v = match v_init {
            Some(init) => {
                assert_eq!(init.len(), n, "warm start needs one voltage per bus");
                a.levels.permute(init)
            }
            None => vec![v0; n],
        };
        let mut i_inj = vec![Complex::ZERO; n];
        let mut j = vec![Complex::ZERO; n];
        let mut delta = vec![0.0f64; n];

        let ws = 112 * n as u64;
        let mut phases =
            PhaseTimes { setup_us: self.host.region_time_us(0, 128 * n as u64), ..Default::default() };

        let mut iterations = 0;
        let mut residual = f64::MAX;
        let mut residual_history = Vec::new();
        let mut status = SolveStatus::MaxIterations;
        let obs = Obs::new(self.recorder.as_ref(), "solver.multicore");

        while iterations < cfg.max_iter {
            iterations += 1;
            let iter_t0 = phases.total_us();

            // Injection: embarrassingly parallel over all buses.
            par_zip(&mut i_inj, |lo, out| {
                for (k, slot) in out.iter_mut().enumerate() {
                    let p = lo + k;
                    let s = a.s[p];
                    *slot = if s == Complex::ZERO { Complex::ZERO } else { (s / v[p]).conj() };
                }
            });
            phases.injection_us += self.region_time_us(12 * n as u64, 48 * n as u64, n, ws);
            obs.phase("injection", iter_t0, phases.total_us());
            let bwd_t0 = phases.total_us();

            // Backward sweep: parallel within each level, levels in
            // sequence (barrier between levels).
            for l in (0..a.num_levels()).rev() {
                let range = a.levels.level_range(l);
                let lo = range.start;
                let (head, tail) = j.split_at_mut(range.end);
                let (_, level_j) = head.split_at_mut(lo);
                let tail_base = range.end;
                let tail_ref: &[Complex] = tail;
                par_zip(level_j, |off, out| {
                    for (k, slot) in out.iter_mut().enumerate() {
                        let p = lo + off + k;
                        let mut acc = i_inj[p];
                        for c in a.levels.children(p) {
                            acc += tail_ref[c - tail_base];
                        }
                        *slot = acc;
                    }
                });
                phases.backward_us += self.region_time_us(
                    4 * range.len() as u64,
                    48 * range.len() as u64,
                    range.len(),
                    ws,
                );
            }

            obs.phase("backward", bwd_t0, phases.total_us());
            let fwd_t0 = phases.total_us();

            // Forward sweep: parallel within each level.
            for l in 1..a.num_levels() {
                let range = a.levels.level_range(l);
                let lo = range.start;
                let (head, level_v) = v.split_at_mut(lo);
                let level_v = &mut level_v[..range.len()];
                let head_ref: &[Complex] = head;
                let (d_head, d_level) = delta.split_at_mut(lo);
                let _ = d_head;
                let d_level = &mut d_level[..range.len()];
                par_zip2(level_v, d_level, |off, out_v, out_d| {
                    for k in 0..out_v.len() {
                        let p = lo + off + k;
                        let parent = a.levels.parent_pos[p] as usize;
                        let new_v = head_ref[parent] - a.z[p] * j[p];
                        out_d[k] = (new_v - out_v[k]).abs();
                        out_v[k] = new_v;
                    }
                });
                phases.forward_us += self.region_time_us(
                    12 * range.len() as u64,
                    80 * range.len() as u64,
                    range.len(),
                    ws,
                );
            }

            obs.phase("forward", fwd_t0, phases.total_us());

            // Convergence: parallel max-reduce. `f64::max` drops NaN, so
            // the fold uses the NaN-propagating ∞-norm operator.
            let d = delta.iter().fold(0.0f64, |m, &x| MaxAbsF64::combine(m, x));
            phases.convergence_us += self.region_time_us(n as u64, 8 * n as u64, n, ws);

            residual = d;
            residual_history.push(d);
            obs.iteration(iterations, iter_t0, phases.total_us(), d);
            if let Some(s) = monitor.observe(iterations, d) {
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

        let timing =
            Timing { phases, transfer_us: 0.0,
            transfer_sweep_us: 0.0, wall_us: wall0.elapsed().as_secs_f64() * 1e6 };
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

impl Default for MulticoreSolver {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        MulticoreSolver::new(HostProps::paper_rig(), cores)
    }
}

/// Splits `out` into chunks processed by scoped threads; `f(offset,
/// chunk)` fills each chunk. Runs inline under the threshold.
fn par_zip<T: Send>(out: &mut [T], f: impl Fn(usize, &mut [T]) + Sync) {
    let n = out.len();
    if n < PARALLEL_THRESHOLD {
        f(0, out);
        return;
    }
    let workers = std::thread::available_parallelism().map(|w| w.get()).unwrap_or(1).min(8);
    let chunk = n.div_ceil(workers);
    std::thread::scope(|s| {
        for (ci, chunk_slice) in out.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || f(ci * chunk, chunk_slice));
        }
    });
}

/// Two-output variant of [`par_zip`] (forward sweep writes V and ΔV).
fn par_zip2<A: Send, B: Send>(
    a: &mut [A],
    b: &mut [B],
    f: impl Fn(usize, &mut [A], &mut [B]) + Sync,
) {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n < PARALLEL_THRESHOLD {
        f(0, a, b);
        return;
    }
    let workers = std::thread::available_parallelism().map(|w| w.get()).unwrap_or(1).min(8);
    let chunk = n.div_ceil(workers);
    std::thread::scope(|s| {
        for (ci, (ca, cb)) in a.chunks_mut(chunk).zip(b.chunks_mut(chunk)).enumerate() {
            let f = &f;
            s.spawn(move || f(ci * chunk, ca, cb));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::SerialSolver;
    use powergrid::gen::{balanced_binary, chain, GenSpec};
    use powergrid::ieee::ieee13;
    use rng::rngs::StdRng;
    use rng::SeedableRng;

    fn mc() -> MulticoreSolver {
        MulticoreSolver::new(HostProps::paper_rig(), 8)
    }

    #[test]
    fn matches_serial_on_ieee13() {
        let net = ieee13();
        let cfg = SolverConfig::default();
        let s = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
        let m = mc().solve(&net, &cfg);
        assert!(m.converged());
        assert_eq!(m.iterations, s.iterations);
        for (a, b) in s.v.iter().zip(&m.v) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn matches_serial_on_large_tree_crossing_parallel_threshold() {
        let mut rng = StdRng::seed_from_u64(17);
        // 8191 buses: the two deepest binary levels exceed the 2048
        // threshold, so the threaded path really runs.
        let net = balanced_binary(8191, &GenSpec::default(), &mut rng);
        let cfg = SolverConfig::default();
        let s = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
        let m = mc().solve(&net, &cfg);
        assert!(m.converged() && s.converged());
        for (a, b) in s.v.iter().zip(&m.v) {
            assert!((*a - *b).abs() < 1e-6);
        }
    }

    #[test]
    fn chain_gains_nothing_from_parallelism_in_the_model() {
        let mut rng = StdRng::seed_from_u64(23);
        let net = chain(3000, &GenSpec::default(), &mut rng);
        let cfg = SolverConfig::default();
        let s = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
        let m = mc().solve(&net, &cfg);
        // Levels of width 1 never parallelise; modeled sweep time can
        // only match or exceed serial (scalar overheads aside).
        assert!(m.timing.phases.backward_us >= 0.9 * s.timing.phases.backward_us);
    }

    #[test]
    fn more_cores_reduce_modeled_time_on_wide_trees() {
        let mut rng = StdRng::seed_from_u64(29);
        let net = balanced_binary(65_535, &GenSpec::default(), &mut rng);
        let cfg = SolverConfig::default();
        let m2 = MulticoreSolver::new(HostProps::paper_rig(), 2).solve(&net, &cfg);
        let m8 = MulticoreSolver::new(HostProps::paper_rig(), 8).solve(&net, &cfg);
        assert!(m8.timing.total_us() < m2.timing.total_us());
    }
}
