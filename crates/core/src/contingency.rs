//! N-1 contingency screening on the tensor-batched engine.
//!
//! The planning question behind a contingency screen: *if any single
//! line of the feeder trips, does the rest of the system still converge
//! to an acceptable operating point?* Classically this is answered by
//! rebuilding and re-solving the network once per line — `n − 1` full
//! solves, each paying topology construction, upload, and a cold
//! iteration count.
//!
//! [`ContingencyScreener`] answers it in **one batched run**: every
//! outage is a [`ScenarioPatch`] over the *shared* base tree (a cut
//! range in DFS space plus one skipped child — a few words per
//! scenario), so the topology uploads once and all contingencies sweep
//! together in the fused per-iteration kernel. With
//! [`SolverConfig::with_warm_start`] the screener first solves the base
//! case, then seeds every contingency from the base voltage profile —
//! post-contingency fixed points sit close to the base one everywhere
//! except under the lost subtree, so warm re-solves converge in a
//! fraction of the cold iteration count.
//!
//! De-energized subtrees are masked out of the sweeps, the residual and
//! the [`ContingencyOutcome::min_v`] headline; buses the outage strands
//! are *reported*, not silently dropped.

use powergrid::{DfsOrder, RadialNetwork};
use simt::{Device, HostProps};
use telemetry::Recorder;

use crate::arrays::SolverArrays;
use crate::config::SolverConfig;
use crate::report::Timing;
use crate::serial::SerialSolver;
use crate::status::SolveStatus;
use crate::tensor_batch::{ScenarioPatch, Scenarios, TensorBatchSolver};

/// Device-memory budget the screener plans chunks against, bytes. The
/// resident per-scenario state is the voltage and current stripes
/// (32 B/bus); the armed-fault audit can transiently triple that, so
/// plan against half the paper rig's 8 GiB.
const CHUNK_MEM_BUDGET: u64 = 4 * 1024 * 1024 * 1024;

/// One screened outage: the branch feeding `bus` opened, everything
/// downstream de-energized.
#[derive(Clone, Copy, Debug)]
pub struct ContingencyOutcome {
    /// Downstream bus of the outaged branch.
    pub bus: usize,
    /// Post-contingency solve outcome.
    pub status: SolveStatus,
    /// Iterations this contingency ran before freezing.
    pub iterations: u32,
    /// Final `max |ΔV|` over the energized buses, volts.
    pub residual: f64,
    /// Minimum energized non-root `|V|`, volts — the voltage-sag
    /// headline. A contingency can converge *and* violate a floor.
    pub min_v: f64,
    /// Buses de-energized by the outage (subtree size).
    pub isolated: u32,
}

impl ContingencyOutcome {
    /// Whether this contingency converged and holds `|V| ≥ floor` on
    /// every energized bus.
    pub fn secure(&self, v_floor: f64) -> bool {
        self.status.is_converged() && self.min_v >= v_floor
    }
}

/// Result of one N-1 screen.
#[derive(Clone, Debug)]
pub struct ScreeningReport {
    /// Base-case (no outage) solve outcome.
    pub base_status: SolveStatus,
    /// Base-case iteration count (the cold-start reference).
    pub base_iterations: u32,
    /// One outcome per screened outage, in the order requested.
    pub outcomes: Vec<ContingencyOutcome>,
    /// Whether contingencies were warm-started from the base profile.
    pub warm: bool,
    /// Batched-solve timing (modeled device time; excludes the serial
    /// base-case solve, which is reported via `base_us`).
    pub timing: Timing,
    /// Modeled time of the serial base-case solve, µs.
    pub base_us: f64,
    /// Modeled throughput of the batched screen, scenarios/s.
    pub scenarios_per_sec: f64,
    /// The headline: screened contingencies per modeled second,
    /// *including* the base-case solve the warm start amortises.
    pub contingencies_per_sec: f64,
}

impl ScreeningReport {
    /// Whether every screened contingency converged.
    pub fn all_converged(&self) -> bool {
        self.outcomes.iter().all(|o| o.status.is_converged())
    }

    /// The converged contingency with the deepest voltage sag, if any.
    pub fn worst_sag(&self) -> Option<&ContingencyOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.status.is_converged())
            .min_by(|x, y| x.min_v.total_cmp(&y.min_v))
    }

    /// Contingencies that fail to converge or sag below `v_floor`.
    pub fn violations(&self, v_floor: f64) -> Vec<&ContingencyOutcome> {
        self.outcomes.iter().filter(|o| !o.secure(v_floor)).collect()
    }
}

/// Screens N-1 line outages in one tensor-batched run.
pub struct ContingencyScreener {
    solver: TensorBatchSolver,
    recorder: Option<Recorder>,
    keep_auto_chunk: bool,
}

impl ContingencyScreener {
    /// Creates a screener on the given device. The underlying tensor
    /// solver runs in stats-only mode — a screen wants statuses,
    /// iteration counts and `min |V|`, not `B·n` voltages — and its
    /// chunk size is planned from the bus count against the device
    /// memory budget.
    pub fn new(device: Device) -> Self {
        ContingencyScreener {
            solver: TensorBatchSolver::new(device).stats_only(),
            recorder: None,
            keep_auto_chunk: true,
        }
    }

    /// Attaches a telemetry recorder: the tensor solver records its
    /// per-chunk/per-iteration spans, and the screener adds screen-level
    /// counters (`screen.contingencies`, per-status counts) and gauges
    /// (`screen.contingencies_per_sec`, `screen.base_iterations`).
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.solver = self.solver.with_recorder(rec.clone());
        self.recorder = Some(rec);
        self
    }

    /// Overrides the automatic chunk planning (testing/tuning).
    pub fn with_chunk_scenarios(mut self, cap: usize) -> Self {
        self.solver = self.solver.with_chunk_scenarios(cap);
        self.keep_auto_chunk = false;
        self
    }

    /// The underlying device.
    pub fn device(&self) -> &Device {
        self.solver.device()
    }

    /// Screens *every* N-1 single-line outage of the feeder: one
    /// scenario per non-root bus (bus `b` ⇔ opening the branch feeding
    /// `b`). With `cfg.warm_start` the base case is solved once and
    /// every contingency starts from its voltage profile.
    pub fn screen(&mut self, net: &RadialNetwork, cfg: &SolverConfig) -> ScreeningReport {
        let root = net.root();
        let buses: Vec<usize> = (0..net.num_buses()).filter(|&b| b != root).collect();
        self.screen_buses(net, &buses, cfg)
    }

    /// Screens the outages of the branches feeding `buses` only (a
    /// sampled or prioritised subset). Panics on the root or an
    /// out-of-range bus, like the patched solver it drives.
    pub fn screen_buses(
        &mut self,
        net: &RadialNetwork,
        buses: &[usize],
        cfg: &SolverConfig,
    ) -> ScreeningReport {
        assert!(!buses.is_empty(), "screen needs at least one outage");
        let a = SolverArrays::new(net);
        let dfs = DfsOrder::new(net);

        if self.keep_auto_chunk {
            // Resident per-scenario device state is the V and J stripes
            // (two Complex per bus = 32 B/bus): cap the chunk so a
            // chunk's state fits the budget. At 64K buses this lands
            // near 2048 scenarios/chunk.
            let per_scenario = 32 * net.num_buses() as u64;
            let cap = (CHUNK_MEM_BUDGET / per_scenario.max(1)).clamp(16, 8192);
            self.solver.set_chunk_scenarios(cap as usize);
        }

        // Base case first: its iteration count is the cold-start
        // reference, and its profile seeds the warm start.
        let base = SerialSolver::new(HostProps::paper_rig()).solve_arrays(&a, cfg);
        let base_us = base.timing.total_us();
        let warm_profile = (cfg.warm_start && base.status.is_converged()).then_some(&base.v);

        let patches: Vec<ScenarioPatch> =
            buses.iter().map(|&b| ScenarioPatch::outage(b)).collect();
        let scenarios = Scenarios::Patched {
            dfs: &dfs,
            patches: &patches,
            warm: warm_profile.map(|v| &v[..]),
        };
        let res = self.solver.try_solve(&a, scenarios, cfg).unwrap_or_else(|e| panic!("{e}"));

        let outcomes = buses
            .iter()
            .enumerate()
            .map(|(s, &bus)| ContingencyOutcome {
                bus,
                status: res.statuses[s],
                iterations: res.per_scenario_iterations[s],
                residual: res.residuals[s],
                min_v: res.min_v[s],
                isolated: dfs.subtree_size[dfs.pos_of[bus] as usize],
            })
            .collect();

        let total_us = res.timing.total_us() + base_us;
        let contingencies_per_sec =
            if total_us > 0.0 { buses.len() as f64 / (total_us * 1e-6) } else { 0.0 };
        if let Some(rec) = &self.recorder {
            rec.counter_add("screen.contingencies", buses.len() as u64);
            rec.gauge_set("screen.contingencies_per_sec", contingencies_per_sec);
            rec.gauge_set("screen.base_iterations", f64::from(base.iterations));
            for status in &res.statuses {
                rec.counter_add(&format!("screen.status.{}", crate::obs::status_key(status)), 1);
            }
        }
        ScreeningReport {
            base_status: base.status,
            base_iterations: base.iterations,
            outcomes,
            warm: warm_profile.is_some(),
            timing: res.timing,
            base_us,
            scenarios_per_sec: res.scenarios_per_sec,
            contingencies_per_sec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powergrid::gen::{random_tree, GenSpec};
    use powergrid::ieee::ieee13;
    use powergrid::TopologyDelta;
    use rng::rngs::StdRng;
    use rng::SeedableRng;
    use simt::DeviceProps;

    fn device() -> Device {
        Device::with_workers(DeviceProps::paper_rig(), 2)
    }

    #[test]
    fn full_screen_covers_every_branch_once() {
        let net = ieee13();
        let cfg = SolverConfig::default();
        let report = ContingencyScreener::new(device()).screen(&net, &cfg);
        assert_eq!(report.outcomes.len(), net.num_branches());
        assert!(report.all_converged(), "a radial feeder survives any single outage");
        assert!(report.base_status.is_converged());
        let mut seen: Vec<usize> = report.outcomes.iter().map(|o| o.bus).collect();
        seen.sort_unstable();
        assert_eq!(seen, (1..net.num_buses()).collect::<Vec<_>>());
        assert!(report.contingencies_per_sec > 0.0);
        // Outaging the branch feeding bus 1 strands everything but the
        // root on this feeder (bus 1 feeds the whole tree).
        let o1 = report.outcomes.iter().find(|o| o.bus == 1).unwrap();
        assert_eq!(o1.isolated as usize, net.num_buses() - 1);
        assert!(o1.min_v.is_infinite(), "nothing energized to measure");
    }

    #[test]
    fn screen_matches_per_outage_delta_resolves() {
        let mut rng = StdRng::seed_from_u64(97);
        let net = random_tree(120, 6, &GenSpec::default(), &mut rng);
        let cfg = SolverConfig::default();
        let report = ContingencyScreener::new(device()).screen(&net, &cfg);
        let serial = SerialSolver::new(HostProps::paper_rig());
        // Spot-check against the classical loop: apply the delta,
        // re-solve, revert.
        let mut work = net.clone();
        for &bus in &[3usize, 40, 77, 119] {
            let mut d = TopologyDelta::outage(&work, bus).unwrap();
            d.apply(&mut work).unwrap();
            let sref = serial.solve(&work, &cfg);
            d.revert(&mut work).unwrap();
            let o = report.outcomes.iter().find(|o| o.bus == bus).unwrap();
            assert_eq!(o.status, sref.status, "bus {bus}");
            assert_eq!(o.iterations, sref.iterations, "bus {bus}");
            assert_eq!(o.isolated as usize, d.isolated().len(), "bus {bus}");
        }
    }

    #[test]
    fn warm_screen_converges_and_beats_cold_iterations() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = random_tree(250, 7, &GenSpec::default(), &mut rng);
        let cold_cfg = SolverConfig::default();
        let warm_cfg = SolverConfig::default().with_warm_start();
        let cold = ContingencyScreener::new(device()).screen(&net, &cold_cfg);
        let warm = ContingencyScreener::new(device()).screen(&net, &warm_cfg);
        assert!(!cold.warm && warm.warm);
        assert!(cold.all_converged() && warm.all_converged());
        let mut strictly_fewer = 0usize;
        for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
            assert_eq!(c.bus, w.bus);
            assert!(
                w.iterations <= c.iterations,
                "bus {}: warm {} > cold {}",
                c.bus,
                w.iterations,
                c.iterations
            );
            if w.iterations < c.iterations {
                strictly_fewer += 1;
            }
        }
        // On a feeder this small, outages that strand most of the tree
        // leave so few energized buses that cold already converges in a
        // handful of iterations and warm can only tie. The ≥90% strict
        // win is the E14 acceptance criterion on large feeders; here we
        // require a clear majority plus a median win.
        assert!(
            strictly_fewer * 4 >= cold.outcomes.len() * 3,
            "warm start should win strictly on ≥75% of contingencies, won {}/{}",
            strictly_fewer,
            cold.outcomes.len()
        );
        let median = |r: &ScreeningReport| {
            let mut it: Vec<u32> = r.outcomes.iter().map(|o| o.iterations).collect();
            it.sort_unstable();
            it[it.len() / 2]
        };
        assert!(median(&warm) < median(&cold));
    }

    #[test]
    fn violations_and_worst_sag_read_the_min_v_headline() {
        let net = ieee13();
        let cfg = SolverConfig::default();
        let report = ContingencyScreener::new(device()).screen(&net, &cfg);
        let sag = report.worst_sag().expect("converged outcomes exist");
        assert!(sag.min_v > 0.0);
        // Every finite min_v is at most the source magnitude.
        for o in &report.outcomes {
            if o.min_v.is_finite() {
                assert!(o.min_v <= net.source_voltage().abs());
            }
        }
        // A floor above the best min_v flags everything; zero flags
        // nothing (all converged).
        assert!(report.violations(f64::INFINITY).len() >= report.outcomes.len() - 1);
        assert!(report.violations(0.0).is_empty());
    }

    #[test]
    fn recorder_collects_screen_level_counters() {
        let net = ieee13();
        let cfg = SolverConfig::default();
        let rec = Recorder::new();
        let report =
            ContingencyScreener::new(device()).with_recorder(rec.clone()).screen(&net, &cfg);
        let (_, reg) = rec.snapshot();
        let counters: std::collections::BTreeMap<&str, u64> = reg.counters().collect();
        assert_eq!(counters["screen.contingencies"], report.outcomes.len() as u64);
        assert_eq!(counters["screen.status.converged"], report.outcomes.len() as u64);
        let gauges: std::collections::BTreeMap<&str, f64> = reg.gauges().collect();
        assert_eq!(gauges["screen.contingencies_per_sec"], report.contingencies_per_sec);
        assert_eq!(gauges["screen.base_iterations"], f64::from(report.base_iterations));
    }

    #[test]
    fn sampled_screen_respects_the_requested_buses() {
        let net = ieee13();
        let cfg = SolverConfig::default();
        let buses = [6usize, 9, 12];
        let report =
            ContingencyScreener::new(device()).screen_buses(&net, &buses, &cfg);
        assert_eq!(report.outcomes.len(), 3);
        assert_eq!(
            report.outcomes.iter().map(|o| o.bus).collect::<Vec<_>>(),
            buses.to_vec()
        );
    }
}
