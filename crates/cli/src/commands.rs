//! The CLI subcommands: `gen`, `info`, `solve`, `compare`, `feeders`.

use std::convert::Infallible;
use std::fs;

use fbs::fleet::poisson_arrivals;
use fbs::obs::status_key;
use fbs::{
    record_run, solve_dg, Backend, ContingencyScreener, FaultReport, FleetConfig, FleetRequest,
    FleetService, GpuSolver, IntegrityConfig, IntegritySampler, MeshProblem, MeshResult, Outcome,
    OuterConfig, Phasor, Priority, Request, ResilienceError, ResilientSolver, Scenarios, SerialSolver,
    ServiceConfig, Solve3Result, SolveResult, SolveService, SolveStatus, SolverArrays,
    SolverConfig, SweepBackend, TensorBatchSolver, Timing,
};
use numc::{CVec3, Complex};
use powergrid::gen::{
    balanced_binary, balanced_kary, broom, caterpillar, chain, random_tree, star, GenSpec,
};
use powergrid::gridfile::{parse_grid, parse_grid_meshed, write_grid, ParseError};
use powergrid::gridfile3::{is_grid3, parse_grid3};
use powergrid::three_phase::ThreePhaseNetwork;
use powergrid::{ieee, LevelOrder, MeshedNetwork, PvBus, RadialNetwork};
use rng::rngs::StdRng;
use rng::SeedableRng;
use simt::{
    export_timeline_spans, Device, DeviceProps, FaultKind, FaultPlan, HostProps, StormSchedule,
};
use telemetry::Recorder;

use crate::args::Args;

/// Top-level usage text.
pub const USAGE: &str = "\
usage:
  fbs gen --topology <binary|kary|chain|star|caterpillar|broom|random> \\
          [--buses N] [--k K] [--seed S] [--total-kw KW] [--drop FRAC] [--out FILE]
  fbs feeders --name <ieee13|ieee37|ieee123|ieee123-dg> [--out FILE]
  fbs info <FILE.grid>
  fbs solve <FILE.grid|FILE.grid3> [--solver serial|gpu|gpu-direct|multicore] [--tol T]
            [--max-iter N] [--outer-max-iter N] [--outer-tol T]
            [--show-voltages N] [--timings true|false]
            [--deadline-ms MS] [--max-retries N] [--breaker-threshold K]
            [--fault-seed S] [--fault-rate R] [--fault-lost-at OP] [--degrade true|false]
            [--trace-out FILE] [--metrics-out FILE]
  fbs batch <FILE.grid> [--scenarios N] [--scale-start S] [--scale-step D]
            [--tol T] [--max-iter N] [--deadline-ms MS]
            [--trace-out FILE] [--metrics-out FILE]
  fbs screen <FILE.grid> [--warm true|false] [--v-floor PU] [--tol T] [--max-iter N]
            [--trace-out FILE] [--metrics-out FILE]
  fbs compare <FILE.grid> [--tol T] [--max-iter N]
  fbs profile <FILE.grid> [--solver gpu|gpu-direct|gpu-atomic|gpu-jump] [--tol T]
            [--fault-seed S] [--fault-rate R] [--fault-lost-at OP] [--degrade true|false]
            [--trace-out FILE] [--metrics-out FILE]
  fbs feeders3 [--name ieee13] [--out FILE.grid3]
  fbs gen3 <FILE.grid> [--unbalance U] [--mutual M] [--seed S] [--out FILE.grid3]
  fbs solve3 <FILE.grid3> ...    (an alias of `solve`)
  fbs fleet <FILE.grid> [--devices N] [--hetero true|false] [--requests N]
            [--gap US] [--queue N] [--tenants N] [--quota N] [--priorities true|false]
            [--hedge-quantile Q] [--shard-min N] [--batch-every K] [--scenarios N]
            [--kill-device D] [--fault-seed S] [--fault-rate R] [--seed S]
            [--tol T] [--max-iter N] [--trace-out FILE] [--metrics-out FILE]
  fbs soak <FILE.grid> [--devices N] [--requests N] [--gap US] [--seed S]
            [--burst-rate R] [--ramp-rate R] [--kill true|false] [--sample-every K]
            [--tol T] [--max-iter N] [--trace-out FILE] [--metrics-out FILE]

three-phase: `solve` takes the phase kind from the file's header record.
A .grid3 file solves on --solver serial|gpu and takes every flag but
--show-voltages and --timings.

meshed & DG: `solve` accepts .grid files with `tie` / `gen` records and
.grid3 files with `gen` records transparently — closed ties and
voltage-set-point generators engage the break-point compensation / PV
outer loop (--outer-max-iter, --outer-tol) around the chosen radial
sweep. Outer divergence or a PV↔PQ limit cycle exits with code 9; plain
radial files keep the exact former behavior.

fault injection: --fault-seed arms a seeded, replayable fault plan
(default rate 0.005/op; override with --fault-rate). --fault-lost-at
scripts device loss at the given op. FBS_FAULT_SEED in the environment
overrides --fault-seed for byte-identical replays. Unrecoverable runs
(--degrade false) exit with code 5.

service: --deadline-ms bounds the modeled solve time; a deadline-cut
run reports partial state and exits with code 6. --max-retries or
--breaker-threshold route the solve through the robustness service
(seeded retry backoff, circuit breaker over the device, CPU fallback).

telemetry: --trace-out writes a Chrome trace-event JSON of the run on
the modeled clock (open in Perfetto / chrome://tracing); byte-identical
across runs for a fixed seed. --metrics-out writes Prometheus text
exposition when FILE ends in .prom or .txt, and the machine-readable
run-summary JSON otherwise.

fleet: replays a seeded arrival stream (--requests at mean --gap µs)
across --devices simulated devices with per-device circuit breakers,
failover, hedged stragglers, batch sharding and a brown-out ladder.
--kill-device scripts sticky loss on one device (--fault-seed /
--fault-rate arm a seeded plan instead); --batch-every K makes every
K-th request a sharded --scenarios batch. Deterministic: the same
seeds replay byte-identical routing, telemetry and exports.

soak: replays a seeded request stream through a uniform fleet under a
compound fault storm — a corruption burst, a corruption-under-load
ramp, and (with --kill) a correlated multi-device kill — with the
integrity guards armed: CRC64-checked transfers plus a 1-in-K CPU
shadow re-solve of answered requests. Detected corruptions are retried
transparently; a shadow-verification mismatch (a corruption every net
missed) exits with code 8.";

/// Exit code for an unrecoverable fault-injected run: the device was
/// lost (or the retry budget drained) and degradation was disabled.
const EXIT_UNRECOVERABLE: u8 = 5;

/// Exit code for an integrity failure in a soak run: the shadow
/// verifier found an answered result that disagrees with the CPU
/// oracle — a corruption escaped both the CRC net and the recovery
/// layer's spike/certification checks.
const EXIT_INTEGRITY: u8 = 8;

/// Dispatches a full argv (without the program name).
///
/// Returns the process exit code: `0` for success, and for the solve
/// family the [`fbs::SolveStatus::exit_code`] of the result (`2`
/// max-iterations, `3` diverged, `4` numerical failure, `5`
/// unrecoverable device loss under fault injection, `6` deadline
/// exceeded, `7` invalid solver configuration, `8` soak integrity
/// failure — a shadow-verified answer disagreed with the CPU oracle,
/// `9` mesh/DG outer-loop divergence or limit cycle).
/// Usage and I/O errors come back as `Err` and map to exit code `1`
/// in `main`.
pub fn run(argv: &[String]) -> Result<u8, String> {
    let (cmd, rest) = argv.split_first().ok_or("missing subcommand")?;
    match cmd.as_str() {
        "gen" => cmd_gen(rest).map(|()| 0),
        "feeders" => cmd_feeders(rest).map(|()| 0),
        "info" => cmd_info(rest).map(|()| 0),
        "solve" | "solve3" => cmd_solve(rest),
        "batch" => cmd_batch(rest),
        "screen" => cmd_screen(rest),
        "compare" => cmd_compare(rest).map(|()| 0),
        "profile" => cmd_profile(rest),
        "fleet" => cmd_fleet(rest),
        "soak" => cmd_soak(rest),
        "feeders3" => cmd_feeders3(rest).map(|()| 0),
        "gen3" => cmd_gen3(rest).map(|()| 0),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(0)
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn cmd_gen(argv: &[String]) -> Result<(), String> {
    let a = Args::parse(argv, &["topology", "buses", "k", "seed", "total-kw", "drop", "out"])?;
    let n = a.get_size_or("buses", 1024)?;
    let k: usize = a.get_parse_or("k", 4)?;
    let seed: u64 = a.get_parse_or("seed", 1)?;
    let mut spec = GenSpec::default();
    spec.total_kw = a.get_parse_or("total-kw", spec.total_kw)?;
    spec.target_drop = a.get_parse_or("drop", spec.target_drop)?;
    let mut rng = StdRng::seed_from_u64(seed);

    let topo = a.get_or("topology", "binary");
    let net = match topo {
        "binary" => balanced_binary(n, &spec, &mut rng),
        "kary" => balanced_kary(n, k, &spec, &mut rng),
        "chain" => chain(n, &spec, &mut rng),
        "star" => star(n, &spec, &mut rng),
        "caterpillar" => caterpillar(n, k.max(1), &spec, &mut rng),
        "broom" => broom(n, (n / 4).max(1), &spec, &mut rng),
        "random" => random_tree(n, 8, &spec, &mut rng),
        other => return Err(format!("unknown topology `{other}`")),
    };
    emit_text(&write_grid(&net), a.get("out"), net.num_buses())
}

fn cmd_feeders(argv: &[String]) -> Result<(), String> {
    let a = Args::parse(argv, &["name", "out"])?;
    let net = match a.get_or("name", "ieee13") {
        "ieee13" => ieee::ieee13(),
        "ieee37" => ieee::ieee37(),
        "ieee123" => ieee::ieee123_style(),
        "ieee123-dg" => {
            let dg = ieee::ieee123_dg();
            let text = powergrid::gridfile::write_grid_meshed(&dg);
            return emit_text(&text, a.get("out"), dg.tree().num_buses());
        }
        other => return Err(format!("unknown feeder `{other}`")),
    };
    emit_text(&write_grid(&net), a.get("out"), net.num_buses())
}

fn load(path: &str) -> Result<RadialNetwork, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_grid(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_info(argv: &[String]) -> Result<(), String> {
    let a = Args::parse(argv, &[])?;
    let net = load(a.one_positional("grid file")?)?;
    let levels = LevelOrder::new(&net);
    let s = net.total_load();
    println!("buses:        {}", net.num_buses());
    println!("branches:     {}", net.num_branches());
    println!("levels:       {}", levels.num_levels());
    println!("mean width:   {:.2}", levels.mean_level_width());
    println!("widest level: {}", (0..levels.num_levels()).map(|l| levels.level_width(l)).max().unwrap_or(0));
    println!("source:       {:.1} V", net.source_voltage().abs());
    println!("total load:   {:.1} kW + j{:.1} kvar", s.re / 1e3, s.im / 1e3);
    Ok(())
}

/// Builds the solver config from `--tol`, `--max-iter` and
/// `--deadline-ms` without going through the asserting constructors:
/// out-of-range values (`--max-iter 0`, a negative deadline) must reach
/// the solver's own validation and come back as a structured
/// `SolveStatus::InvalidConfig` (exit 7), never as a CLI panic.
fn solver_config(a: &Args) -> Result<SolverConfig, String> {
    let mut cfg = SolverConfig {
        tol_rel: a.get_parse_or("tol", SolverConfig::DEFAULT_TOL)?,
        max_iter: a.get_parse_or("max-iter", 100u32)?,
        ..SolverConfig::default()
    };
    if let Some(ms) = a.get_parse::<f64>("deadline-ms")? {
        cfg.deadline_us = Some(ms * 1000.0);
    }
    Ok(cfg)
}

/// Builds the mesh/DG outer-loop config from `--outer-max-iter` and
/// `--outer-tol`. As with [`solver_config`], out-of-range values are
/// passed through so the solver reports `SolveStatus::InvalidConfig`
/// (exit 7) instead of the CLI second-guessing the validation.
fn outer_config(a: &Args) -> Result<OuterConfig, String> {
    let mut outer = OuterConfig::default();
    outer.max_outer = a.get_parse_or("outer-max-iter", outer.max_outer)?;
    outer.tol_rel = a.get_parse_or("outer-tol", outer.tol_rel)?;
    Ok(outer)
}

/// Builds the fault plan requested by `--fault-seed` / `--fault-rate` /
/// `--fault-lost-at`, or `None` when no fault flag is present.
///
/// `FBS_FAULT_SEED` in the environment overrides `--fault-seed`, so a
/// logged run can be replayed byte-identically without editing the
/// command line. The rate defaults to 0.005 faults/op once a seed is
/// given, and to 0 when only `--fault-lost-at` is used.
fn fault_plan(a: &Args) -> Result<Option<FaultPlan>, String> {
    let env_seed = match std::env::var("FBS_FAULT_SEED") {
        Ok(v) => {
            Some(v.parse::<u64>().map_err(|e| format!("FBS_FAULT_SEED `{v}`: {e}"))?)
        }
        Err(_) => None,
    };
    let flag_seed: Option<u64> = a.get_parse("fault-seed")?;
    let rate: Option<f64> = a.get_parse("fault-rate")?;
    let lost_at: Option<u64> = a.get_parse("fault-lost-at")?;
    let seed = env_seed.or(flag_seed);
    if seed.is_none() && rate.is_none() && lost_at.is_none() {
        return Ok(None);
    }
    let rate = rate.unwrap_or(if seed.is_some() { 0.005 } else { 0.0 });
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--fault-rate must be in [0, 1], got {rate}"));
    }
    let mut plan = FaultPlan::seeded(seed.unwrap_or(0), rate);
    if let Some(op) = lost_at {
        plan = plan.with_fault_at(op, FaultKind::DeviceLost { at_op: 0 });
    }
    Ok(Some(plan))
}

/// One deterministic summary line of what the resilient supervisor did,
/// when a fault plan was armed.
fn print_fault_report<V>(res: &SolveResult<V>, plan: Option<&FaultPlan>) {
    if let (Some(rep), Some(plan)) = (&res.fault_report, plan) {
        println!(
            "recovery:    seed {} rate {} | {} faults, {} rollbacks, {} retries, {} checkpoints | backend {}",
            plan.seed(),
            plan.rate(),
            rep.faults_injected,
            rep.rollbacks,
            rep.retries,
            rep.checkpoints,
            rep.backends.join("→"),
        );
    }
}

/// Telemetry sinks requested with `--trace-out` / `--metrics-out`.
///
/// When neither flag is present there is no recorder and every method is
/// a no-op, so un-instrumented runs behave exactly as before. All
/// exported timestamps come from the modeled clock: for a fixed seed the
/// written files are byte-identical across runs.
#[derive(Clone, Debug, Default)]
struct Telemetry {
    rec: Option<Recorder>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

impl Telemetry {
    fn from_args(a: &Args) -> Telemetry {
        let trace_out = a.get("trace-out").map(str::to_string);
        let metrics_out = a.get("metrics-out").map(str::to_string);
        let rec = (trace_out.is_some() || metrics_out.is_some()).then(Recorder::new);
        Telemetry { rec, trace_out, metrics_out }
    }

    /// The recorder to attach to solvers, when any sink was requested.
    fn recorder(&self) -> Option<&Recorder> {
        self.rec.as_ref()
    }

    /// Appends the device's timeline to the trace's device track
    /// (kernels and transfers as spans, faults/markers as instants).
    fn bridge_device(&self, dev: &Device) {
        if let Some(rec) = &self.rec {
            rec.with_trace(|t| export_timeline_spans(dev.timeline(), t, 0.0));
        }
    }

    /// Records the run-level gauges and counters the run summary is
    /// built from (per-phase modeled time, status, recovery counters).
    fn record(
        &self,
        timing: &Timing,
        iterations: u32,
        residual: f64,
        status: &SolveStatus,
        fault_report: Option<&FaultReport>,
    ) {
        if let Some(rec) = &self.rec {
            record_run(rec, timing, iterations, residual, status, fault_report);
        }
    }

    /// Snapshots the recorder and writes the requested files: Chrome
    /// trace JSON for `--trace-out`; for `--metrics-out`, Prometheus
    /// text when the path ends in `.prom`/`.txt`, run-summary JSON
    /// otherwise. Called on every exit path of an instrumented command
    /// so failed runs still leave their partial telemetry behind.
    fn write(&self) -> Result<(), String> {
        let Some(rec) = &self.rec else { return Ok(()) };
        let (trace, metrics) = rec.snapshot();
        if let Some(path) = &self.trace_out {
            fs::write(path, telemetry::chrome_trace_json(&trace))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        if let Some(path) = &self.metrics_out {
            let text = if path.ends_with(".prom") || path.ends_with(".txt") {
                telemetry::prometheus_text(&metrics)
            } else {
                telemetry::run_summary_json(&metrics, &trace)
            };
            fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        Ok(())
    }
}

/// Whether the request should go through the robustness service
/// ([`SolveService`]) rather than a bare solver: any service flag does.
fn wants_service(a: &Args) -> bool {
    a.get("max-retries").is_some() || a.get("breaker-threshold").is_some()
}

/// Submits one request to a fresh [`SolveService`] built from
/// `--max-retries` / `--breaker-threshold` (defaults match
/// [`ServiceConfig::default`]) and an optional fault plan, and prints the
/// service summary line. Returns the outcome for the caller to unpack.
fn serve_one(
    a: &Args,
    backend: Backend,
    plan: Option<&FaultPlan>,
    tele: &Telemetry,
    req: Request,
) -> Result<Outcome, String> {
    let scfg = ServiceConfig {
        backend,
        max_retries: a.get_parse_or("max-retries", 3u32)?,
        breaker_threshold: a.get_parse_or("breaker-threshold", 3u32)?,
        ..ServiceConfig::default()
    };
    let mut svc = SolveService::new(scfg, DeviceProps::paper_rig(), HostProps::paper_rig());
    if let Some(plan) = plan {
        svc = svc.with_fault_plan(plan.clone());
    }
    if let Some(rec) = tele.recorder() {
        svc = svc.with_recorder(rec.clone());
    }
    svc.submit(req).map_err(|_| "service shed a single request".to_string())?;
    let resp = svc.process_one().ok_or("service lost the queued request")?;
    println!(
        "service:     backend {} | {} retries, {} µs backoff | breaker {}",
        resp.backend,
        resp.retries,
        resp.backoff_us,
        resp.breaker.name()
    );
    Ok(resp.outcome)
}

/// The `--fault-*` flags plus `--degrade`, which is read only once a
/// fault plan is armed.
fn armed_faults(a: &Args) -> Result<Option<(FaultPlan, bool)>, String> {
    fault_plan(a)?.map(|plan| Ok((plan, a.get_parse_or("degrade", true)?))).transpose()
}

/// `fbs solve`'s flags; a `.grid3` file takes all but the last two.
const SOLVE_FLAGS: [&str; 16] = [
    "solver", "tol", "max-iter", "outer-max-iter", "outer-tol", "deadline-ms", "max-retries",
    "breaker-threshold", "fault-seed", "fault-rate", "fault-lost-at", "degrade", "trace-out",
    "metrics-out", "show-voltages", "timings",
];

/// `fbs solve` and its alias `solve3`: reads the file once, takes the
/// phase kind from its header record and runs [`solve_file`] on it.
fn cmd_solve(argv: &[String]) -> Result<u8, String> {
    let a = Args::parse(argv, &SOLVE_FLAGS)?;
    let path = a.one_positional("grid file")?;
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let parsed = |e: ParseError| format!("{path}: {e}");
    if is_grid3(&text) {
        let a = Args::parse(argv, &SOLVE_FLAGS[..SOLVE_FLAGS.len() - 2])?;
        solve_file(&a, &parse_grid3(&text).map_err(parsed)?)
    } else {
        solve_file(&a, &parse_grid_meshed(&text).map_err(parsed)?)
    }
}

/// How `fbs solve` runs a network: on `backend`, around the meshed/DG
/// outer loop when `outer` is set, under an armed fault plan only when
/// `supervised`, and under `label` when it cannot finish.
struct Route {
    backend: Backend,
    outer: Option<OuterConfig>,
    supervised: bool,
    label: String,
}

/// What a `.grid` and a `.grid3` solve do differently — the engine
/// choice, the service request, the meshed/DG gate and the report;
/// [`solve_file`] runs the rest.
trait Feeder {
    type V: Phasor;
    /// Resolves `--solver`; sets `outer` when the network needs the
    /// meshed/DG outer loop.
    fn route(&self, a: &Args, which: &str) -> Result<Route, String>;
    /// The robustness service's request, and how to take its answer
    /// from the outcome.
    fn request(&self, cfg: SolverConfig) -> (Request, Answer<Self::V>);
    fn problem(&self) -> MeshProblem<Self::V>;
    /// The engine of a run with no fault plan armed, recording into the
    /// run's recorder: a meshed/DG run's trace keeps every inner
    /// iteration under its outer rounds.
    fn engine(backend: Backend, tele: &Telemetry) -> Box<dyn SweepBackend<Self::V, Error = Infallible>>;
    /// Records and writes the run's telemetry, prints its report block
    /// and returns the status exit code.
    fn report(&self, a: &Args, which: &str, plan: Option<&FaultPlan>, solved: &Solved<Self::V>, tele: &Telemetry)
        -> Result<u8, String>;
}

/// A served outcome's answer, or the outcome back when it holds none.
type Answer<V> = fn(Outcome) -> Result<SolveResult<V>, Box<Outcome>>;

/// The one body of `fbs solve` for both phase kinds: the robustness
/// service when a service flag is given, else the fault-tolerant
/// supervisor (a fault plan armed on a supervised route) or the plain
/// engine, each through [`solve_on`].
fn solve_file<F: Feeder>(a: &Args, net: &F) -> Result<u8, String>
where
    ResilientSolver: SweepBackend<F::V, Error = ResilienceError>,
{
    let cfg = solver_config(a)?;
    let which = a.get_or("solver", "serial");
    let Route { backend, outer, supervised, label } = net.route(a, which)?;
    if outer.is_some() && wants_service(a) {
        return Err("meshed/DG grids do not route through the robustness service; \
                    drop --max-retries/--breaker-threshold (fault flags still work)"
            .into());
    }
    let tele = Telemetry::from_args(a);

    if wants_service(a) {
        let plan = fault_plan(a)?;
        let (req, answer) = net.request(cfg);
        let res = match serve_one(a, backend, plan.as_ref(), &tele, req)? {
            Outcome::Failed(e) => return unrecoverable(&label, &e, &tele),
            other => answer(other).map_err(|o| format!("unexpected service outcome: {o:?}"))?,
        };
        return net.report(a, which, plan.as_ref(), &Solved::Radial(res), &tele);
    }

    let problem = net.problem();
    let armed = armed_faults(a)?.filter(|_| supervised);
    let plan = armed.as_ref().map(|(plan, _)| plan);
    let report = |solved| net.report(a, which, plan, &solved, &tele);
    match &armed {
        Some((plan, degrade)) => {
            let mut engine = supervisor(backend, plan, *degrade, &tele);
            solve_on(&mut engine, &problem, outer.as_ref(), &cfg, &tele, &label, report)
        }
        None => {
            let mut engine = F::engine(backend, &tele);
            solve_on(&mut *engine, &problem, outer.as_ref(), &cfg, &tele, &label, report)
        }
    }
}

/// What one solve produced: a radial inner solve, or the meshed/DG
/// outer loop's result.
enum Solved<V: Phasor> {
    Meshed(MeshResult<V>),
    Radial(SolveResult<V>),
}

/// The body of `fbs solve` on one engine: one radial solve, or
/// [`solve_dg`] around the engine for a meshed/DG network; then the device
/// track and `report`, or the unrecoverable block under `label`.
fn solve_on<V: Phasor, B: SweepBackend<V> + ?Sized>(
    engine: &mut B,
    problem: &MeshProblem<V>,
    outer: Option<&OuterConfig>,
    cfg: &SolverConfig,
    tele: &Telemetry,
    label: &str,
    report: impl FnOnce(Solved<V>) -> Result<u8, String>,
) -> Result<u8, String>
where
    B::Error: std::fmt::Display,
{
    let solved = match outer {
        Some(outer) => solve_dg(problem, cfg, outer, tele.recorder(), |arrays, warm| {
            engine.solve_warm_arrays(arrays, cfg, warm)
        })
        .map(Solved::Meshed),
        None => engine.solve_warm_arrays(problem.arrays(), cfg, None).map(Solved::Radial),
    };
    if let Some(dev) = engine.device() {
        tele.bridge_device(dev);
    }
    match solved {
        Ok(solved) => report(solved),
        Err(e) => unrecoverable(label, &e, tele),
    }
}

impl Feeder for MeshedNetwork {
    type V = Complex;

    // Closed ties or generators route through the compensation / PV
    // outer loop; plain radial files take one inner solve.
    fn route(&self, a: &Args, which: &str) -> Result<Route, String> {
        let backend = Backend::from_name(which).ok_or_else(|| format!("unknown solver `{which}`"))?;
        let (outer, label) = if self.is_plain_radial() {
            (None, which.to_string())
        } else if backend == Backend::GpuJump {
            return Err(format!(
                "solver `{which}` cannot run meshed/DG grids (use serial, multicore or a gpu sweep variant)"
            ));
        } else {
            (Some(outer_config(a)?), format!("{which} (meshed)"))
        };
        Ok(Route { backend, outer, supervised: true, label })
    }

    fn request(&self, cfg: SolverConfig) -> (Request, Answer<Complex>) {
        let answer = |o| if let Outcome::Solved(res) = o { Ok(res) } else { Err(Box::new(o)) };
        (Request::Solve { net: self.tree().clone(), cfg }, answer)
    }

    fn problem(&self) -> MeshProblem {
        MeshProblem::new(self)
    }

    fn engine(backend: Backend, tele: &Telemetry) -> Box<dyn SweepBackend<Error = Infallible>> {
        backend.engine(&DeviceProps::paper_rig(), &HostProps::paper_rig(), tele.recorder())
    }

    // A meshed/DG block adds the outer status, loop currents and dispatch
    // (outer divergence or a limit cycle exits 9).
    fn report(&self, a: &Args, which: &str, plan: Option<&FaultPlan>, solved: &Solved<Complex>, tele: &Telemetry)
        -> Result<u8, String> {
        match solved {
            Solved::Radial(res) => {
                let net = self.tree();
                tele.record(&res.timing, res.iterations, res.residual, &res.status, res.fault_report.as_ref());
                tele.write()?;

                println!("solver:      {which}");
                println!("status:      {} in {} iterations (residual {:.3e} V)", res.status, res.iterations, res.residual);
                print_fault_report(res, plan);
                if res.converged() {
                    let (vmin, bus) = res.min_voltage();
                    let pu = vmin / net.source_voltage().abs();
                    let losses = res.losses(net);
                    let src = res.source_power(net);
                    println!("min voltage: {:.1} V ({:.4} pu) at bus {bus}", vmin, pu);
                    println!("feeder load: {:.1} kW + j{:.1} kvar", src.re / 1e3, src.im / 1e3);
                    println!("losses:      {:.2} kW + j{:.2} kvar", losses.re / 1e3, losses.im / 1e3);
                }
                if a.get_parse_or("timings", true)? {
                    let t = &res.timing;
                    println!("modeled:     total {:.1} µs (transfers {:.1} µs)", t.total_us(), t.transfer_us);
                    println!(
                        "  setup {:.1} | inject {:.1} | backward {:.1} | forward {:.1} | converge {:.1} | teardown {:.1}",
                        t.phases.setup_us,
                        t.phases.injection_us,
                        t.phases.backward_us,
                        t.phases.forward_us,
                        t.phases.convergence_us,
                        t.phases.teardown_us
                    );
                }
                print_voltages(a, &res.v)?;
                Ok(res.status.exit_code())
            }
            Solved::Meshed(res) => {
                let inner = &res.inner;
                tele.record(&inner.timing, inner.iterations, inner.residual, &res.status, inner.fault_report.as_ref());
                tele.write()?;
                println!(
                    "solver:      {which} (meshed/DG: {} loops, {} generators)",
                    self.num_loops(),
                    self.generators().len()
                );
                println!(
                    "status:      {} | outer {} | {} inner iterations (residual {:.3e} V)",
                    res.status, res.outer_status, inner.iterations, inner.residual
                );
                println!(
                    "outer:       breakpoint residual {:.3e} V | pv error {:.3e} V | {} mode flips",
                    res.breakpoint_residual, res.pv_error, res.mode_flips
                );
                if res.converged() {
                    let (vmin, bus) = inner.min_voltage();
                    let pu = vmin / self.tree().source_voltage().abs();
                    println!("min voltage: {vmin:.1} V ({pu:.4} pu) at bus {bus}");
                    for (bp, j) in self.break_points().iter().zip(&res.loop_currents) {
                        println!(
                            "loop:        tie {}→{} carries {:.2} A ∠{:.1}°",
                            bp.a,
                            bp.b,
                            j.abs(),
                            j.arg().to_degrees()
                        );
                    }
                    print_dispatch(self.generators(), res);
                }
                print_fault_report(inner, plan);
                if a.get_parse_or("timings", true)? {
                    let t = &inner.timing;
                    println!("modeled:     total {:.1} µs (transfers {:.1} µs)", t.total_us(), t.transfer_us);
                }
                print_voltages(a, &inner.v)?;
                Ok(res.status.exit_code())
            }
        }
    }
}

impl Feeder for ThreePhaseNetwork {
    type V = CVec3;

    // Files with distributed generators run the three-phase PV outer
    // loop. Three-phase service requests always run device-first (the
    // service's fallback covers the serial path), and fault plans touch
    // only device ops: a serial run is never supervised.
    fn route(&self, a: &Args, which: &str) -> Result<Route, String> {
        let backend = match Backend::from_name(which) {
            Some(Backend::Gpu) => Backend::Gpu,
            _ if wants_service(a) => return Err(format!("service flags need --solver gpu, got `{which}`")),
            Some(Backend::Serial) => Backend::Serial,
            _ => return Err(format!("unknown three-phase solver `{which}`")),
        };
        let dg = !self.generators().is_empty();
        let outer = dg.then(|| outer_config(a)).transpose()?;
        let label = format!("{which} (three-phase{})", if dg { " DG" } else { "" });
        Ok(Route { backend, outer, supervised: backend == Backend::Gpu, label })
    }

    fn request(&self, cfg: SolverConfig) -> (Request, Answer<CVec3>) {
        let answer = |o| if let Outcome::Solved3(res) = o { Ok(res) } else { Err(Box::new(o)) };
        (Request::Solve3 { net: self.clone(), cfg }, answer)
    }

    fn problem(&self) -> MeshProblem<CVec3> {
        MeshProblem::three_phase(self)
    }

    fn engine(backend: Backend, tele: &Telemetry) -> Box<dyn SweepBackend<CVec3, Error = Infallible>> {
        let (host, props) = (HostProps::paper_rig(), DeviceProps::paper_rig());
        match (backend, tele.recorder().cloned()) {
            (Backend::Serial, None) => Box::new(SerialSolver::new(host)),
            (Backend::Serial, Some(rec)) => Box::new(SerialSolver::new(host).with_recorder(rec)),
            (_, None) => Box::new(GpuSolver::new(Device::new(props))),
            (_, Some(rec)) => Box::new(GpuSolver::new(Device::new(props)).with_recorder(rec)),
        }
    }

    // Worst phase and unbalance instead of losses, and the PV loop's
    // dispatch for a DG run.
    fn report(&self, _: &Args, which: &str, plan: Option<&FaultPlan>, solved: &Solved<CVec3>, tele: &Telemetry)
        -> Result<u8, String> {
        match solved {
            Solved::Radial(res) => {
                tele.record(&res.timing, res.iterations, res.residual, &res.status, res.fault_report.as_ref());
                tele.write()?;
                println!("solver:      {which} (three-phase)");
                println!("status:      {} in {} iterations (residual {:.3e} V)", res.status, res.iterations, res.residual);
                print_fault_report(res, plan);
                report_solve3_body(self, res, res.converged());
                println!("modeled:     total {:.1} µs", res.timing.total_us());
                Ok(res.status.exit_code())
            }
            Solved::Meshed(res) => {
                let inner = &res.inner;
                tele.record(&inner.timing, inner.iterations, inner.residual, &res.status, inner.fault_report.as_ref());
                tele.write()?;
                println!("solver:      {which} (three-phase DG: {} generators)", self.generators().len());
                println!(
                    "status:      {} | outer {} | {} inner iterations (residual {:.3e} V)",
                    res.status, res.outer_status, inner.iterations, inner.residual
                );
                println!("outer:       pv error {:.3e} V | {} mode flips", res.pv_error, res.mode_flips);
                if res.converged() {
                    print_dispatch(self.generators(), res);
                }
                report_solve3_body(self, inner, res.converged());
                print_fault_report(inner, plan);
                println!("modeled:     total {:.1} µs", inner.timing.total_us());
                Ok(res.status.exit_code())
            }
        }
    }
}

/// The converged-run detail lines shared by the plain and DG `.grid3`
/// reports.
fn report_solve3_body(net: &ThreePhaseNetwork, res: &Solve3Result, converged: bool) {
    if !converged {
        return;
    }
    let v0 = net.source_voltage().abs_max();
    let (vmin, sag_bus) = res.min_phase_voltage();
    let (unb, unb_bus) = res.max_unbalance();
    println!("worst phase: {:.1} V ({:.4} pu) at bus {sag_bus}", vmin, vmin / v0);
    println!("unbalance:   {:.2}% max at bus {unb_bus}", 100.0 * unb);
    let t = net.total_load();
    println!(
        "load/phase:  a {:.1} kW | b {:.1} kW | c {:.1} kW",
        t.a.re / 1e3,
        t.b.re / 1e3,
        t.c.re / 1e3
    );
}

/// The PV loop's dispatch, one line per generator.
fn print_dispatch<V: Phasor>(gens: &[PvBus], res: &MeshResult<V>) {
    for (g, (q, mode)) in gens.iter().zip(res.q_gen.iter().zip(&res.gen_modes)) {
        println!("gen:         bus {} | {:.1} kW + j{:.2} kvar | {mode}", g.bus, g.p_gen / 1e3, q / 1e3);
    }
}

/// The first `--show-voltages` bus voltages.
fn print_voltages(a: &Args, v: &[Complex]) -> Result<(), String> {
    let show: usize = a.get_parse_or("show-voltages", 0usize)?;
    for (bus, v) in v.iter().enumerate().take(show) {
        println!("  V[{bus}] = {:.3} V  ∠{:.3}°", v.abs(), v.arg().to_degrees());
    }
    Ok(())
}

/// `fbs batch`: a time-series-style batched solve — one topology, N
/// load scenarios scaled `scale-start + k·scale-step`, all swept in one
/// device batch (topology uploads once, kernels cover every scenario).
fn cmd_batch(argv: &[String]) -> Result<u8, String> {
    let a = Args::parse(
        argv,
        &["scenarios", "scale-start", "scale-step", "tol", "max-iter", "deadline-ms", "trace-out", "metrics-out"],
    )?;
    let net = load(a.one_positional("grid file")?)?;
    let cfg = solver_config(&a)?;
    let nb: usize = a.get_parse_or("scenarios", 8usize)?;
    if nb == 0 {
        return Err("--scenarios must be at least 1".into());
    }
    let start: f64 = a.get_parse_or("scale-start", 0.5)?;
    let step: f64 = a.get_parse_or("scale-step", 0.1)?;
    let tele = Telemetry::from_args(&a);
    let scenarios: Vec<Vec<_>> = (0..nb)
        .map(|k| {
            let scale = start + step * k as f64;
            net.buses().iter().map(|b| b.load * scale).collect()
        })
        .collect();

    let mut solver = TensorBatchSolver::new(Device::new(DeviceProps::paper_rig()));
    if let Some(rec) = tele.recorder() {
        solver = solver.with_recorder(rec.clone());
    }
    let res = solver.solve(&SolverArrays::new(&net), Scenarios::Explicit(&scenarios), &cfg);
    tele.bridge_device(solver.device());

    let worst = res.worst_status();
    let converged = res.statuses.iter().filter(|s| s.is_converged()).count();
    let last_scale = start + step * (nb - 1) as f64;
    println!(
        "batch:       {nb} scenarios × {} buses (load scale {start:.2}..{last_scale:.2})",
        net.num_buses()
    );
    println!(
        "status:      {converged}/{nb} converged (worst: {worst}) in {} iterations (residual {:.3e} V)",
        res.iterations, res.residual
    );
    if converged < nb {
        let mut counts: std::collections::BTreeMap<&'static str, usize> =
            std::collections::BTreeMap::new();
        for s in &res.statuses {
            *counts.entry(status_key(s)).or_insert(0) += 1;
        }
        let parts: Vec<String> =
            counts.iter().map(|(k, n)| format!("{k} {n}")).collect();
        println!("breakdown:   {}", parts.join(" | "));
    }
    let t = &res.timing;
    println!(
        "modeled:     total {:.1} µs | {:.1} µs/scenario (transfers {:.1} µs)",
        t.total_us(),
        t.total_us() / nb as f64,
        t.transfer_us
    );
    tele.record(&res.timing, res.iterations, res.residual, &worst, None);
    tele.write()?;
    Ok(worst.exit_code())
}

/// `fbs screen`: N-1 contingency screening — every single-line outage of
/// the feeder encoded as a per-scenario topology patch and solved in one
/// tensor-batched run, warm-started from the base-case profile by
/// default. `--v-floor` (per-unit of the source magnitude) additionally
/// flags contingencies that converge but sag below the floor.
fn cmd_screen(argv: &[String]) -> Result<u8, String> {
    let a = Args::parse(
        argv,
        &["warm", "v-floor", "tol", "max-iter", "deadline-ms", "trace-out", "metrics-out"],
    )?;
    let net = load(a.one_positional("grid file")?)?;
    if net.num_buses() < 2 {
        return Err("screening needs at least one branch".into());
    }
    let mut cfg = solver_config(&a)?;
    if a.get_parse_or("warm", true)? {
        cfg = cfg.with_warm_start();
    }
    let floor_pu: f64 = a.get_parse_or("v-floor", 0.0)?;
    let v0 = net.source_voltage().abs();
    let floor = floor_pu * v0;
    let tele = Telemetry::from_args(&a);

    let mut screener = ContingencyScreener::new(Device::new(DeviceProps::paper_rig()));
    if let Some(rec) = tele.recorder() {
        screener = screener.with_recorder(rec.clone());
    }
    let report = screener.screen(&net, &cfg);
    tele.bridge_device(screener.device());

    let nb = report.outcomes.len();
    println!(
        "screen:      {nb} contingencies × {} buses (warm start: {})",
        net.num_buses(),
        if report.warm { "yes" } else { "no" }
    );
    println!(
        "base case:   {} in {} iterations ({:.1} µs modeled)",
        report.base_status, report.base_iterations, report.base_us
    );
    let converged = report.outcomes.iter().filter(|o| o.status.is_converged()).count();
    let worst =
        report.outcomes.iter().fold(SolveStatus::Converged, |w, o| w.worse(o.status));
    println!("status:      {converged}/{nb} converged (worst: {worst})");
    if converged < nb {
        let mut counts: std::collections::BTreeMap<&'static str, usize> =
            std::collections::BTreeMap::new();
        for o in &report.outcomes {
            *counts.entry(status_key(&o.status)).or_insert(0) += 1;
        }
        let parts: Vec<String> = counts.iter().map(|(k, n)| format!("{k} {n}")).collect();
        println!("breakdown:   {}", parts.join(" | "));
    }
    let mut iters: Vec<u32> = report.outcomes.iter().map(|o| o.iterations).collect();
    iters.sort_unstable();
    println!(
        "iterations:  median {} | max {} (base cold solve took {})",
        iters[nb / 2],
        iters[nb - 1],
        report.base_iterations
    );
    if let Some(sag) = report.worst_sag() {
        if sag.min_v.is_finite() {
            println!(
                "worst sag:   |V|min {:.1} V ({:.3} pu) after outage of the branch feeding bus {} \
                 ({} buses de-energized)",
                sag.min_v,
                sag.min_v / v0,
                sag.bus,
                sag.isolated
            );
        }
    }
    if floor > 0.0 {
        let viol = report.violations(floor);
        println!("violations:  {} below {floor_pu:.3} pu", viol.len());
        for o in viol.iter().take(5) {
            println!(
                "             bus {:>6}  {}  |V|min {:.3} pu  ({} isolated)",
                o.bus,
                status_key(&o.status),
                o.min_v / v0,
                o.isolated
            );
        }
        if viol.len() > 5 {
            println!("             … and {} more", viol.len() - 5);
        }
    }
    println!(
        "modeled:     batch {:.1} µs + base {:.1} µs | {:.0} contingencies/s",
        report.timing.total_us(),
        report.base_us,
        report.contingencies_per_sec
    );
    let worst_residual =
        report.outcomes.iter().map(|o| o.residual).fold(0.0f64, f64::max);
    tele.record(&report.timing, iters[nb - 1], worst_residual, &worst, None);
    tele.write()?;
    Ok(worst.exit_code())
}

/// `fbs fleet`: replays a seeded arrival stream across N simulated
/// devices behind a [`FleetService`] — per-device breakers, failover,
/// hedging, batch sharding, brown-out — and reports fleet-level
/// throughput, latency quantiles and per-device health.
fn cmd_fleet(argv: &[String]) -> Result<u8, String> {
    let a = Args::parse(
        argv,
        &[
            "devices", "hetero", "requests", "gap", "queue", "tenants", "quota",
            "priorities", "hedge-quantile", "shard-min", "batch-every", "scenarios",
            "kill-device", "fault-seed", "fault-rate", "seed", "tol", "max-iter",
            "trace-out", "metrics-out",
        ],
    )?;
    let net = load(a.one_positional("grid file")?)?;
    let cfg = solver_config(&a)?;
    let devices: usize = a.get_parse_or("devices", 4usize)?;
    if devices == 0 {
        return Err("--devices must be at least 1".into());
    }
    let hetero: bool = a.get_parse_or("hetero", true)?;
    let requests: usize = a.get_parse_or("requests", 64usize)?;
    let gap: f64 = a.get_parse_or("gap", 200.0)?;
    let tenants: u32 = a.get_parse_or("tenants", 1u32)?;
    let priorities: bool = a.get_parse_or("priorities", false)?;
    let batch_every: usize = a.get_parse_or("batch-every", 0usize)?;
    let scenarios: usize = a.get_parse_or("scenarios", 256usize)?;
    let seed: u64 = a.get_parse_or("seed", 0xf1ee7u64)?;
    let tele = Telemetry::from_args(&a);

    let mut fcfg = if hetero {
        FleetConfig::heterogeneous(devices)
    } else {
        FleetConfig::uniform(devices)
    };
    let queue_capacity: usize = a.get_parse_or("queue", 64usize)?;
    fcfg.queue_capacity = queue_capacity;
    fcfg.tenant_quota = a.get_parse::<usize>("quota")?;
    fcfg.hedge_quantile = a.get_parse_or("hedge-quantile", fcfg.hedge_quantile)?;
    fcfg.shard_min = a.get_parse_or("shard-min", fcfg.shard_min)?;
    fcfg.seed = seed;
    let mut fleet = FleetService::new(fcfg);

    // Chaos: a scripted sticky loss, or a seeded per-op plan, armed on
    // one device (the rest of the fleet absorbs the failovers).
    let kill: Option<u32> = a.get_parse("kill-device")?;
    if let Some(plan) = fault_plan(&a)? {
        let target = kill.unwrap_or(0);
        if target as usize >= devices {
            return Err(format!("--kill-device {target} out of range (fleet has {devices})"));
        }
        fleet = fleet.with_fault_plan_on(target, plan);
    } else if let Some(target) = kill {
        if target as usize >= devices {
            return Err(format!("--kill-device {target} out of range (fleet has {devices})"));
        }
        let plan = FaultPlan::scripted(
            (0..1024).map(|k| (2 + 5 * k, FaultKind::DeviceLost { at_op: 0 })),
        );
        fleet = fleet.with_fault_plan_on(target, plan);
    }
    if let Some(rec) = tele.recorder() {
        fleet = fleet.with_recorder(rec.clone());
    }

    let loads: Vec<_> = net.buses().iter().map(|b| b.load).collect();
    let arrivals = poisson_arrivals(requests, gap, seed ^ 0xa11e, |i| {
        let req = if batch_every > 0 && i % batch_every == batch_every - 1 {
            let scen = (0..scenarios)
                .map(|s| {
                    let scale = 0.5 + 0.002 * (s % 500) as f64;
                    loads.iter().map(|&l| l * scale).collect()
                })
                .collect();
            Request::Batch { net: net.clone(), scenarios: scen, cfg }
        } else {
            Request::Solve { net: net.clone(), cfg }
        };
        let p = match (priorities, i % 3) {
            (false, _) | (true, 1) => Priority::Normal,
            (true, 0) => Priority::Bulk,
            _ => Priority::Critical,
        };
        FleetRequest::new(req).with_priority(p).with_tenant(i as u32 % tenants.max(1))
    });
    let responses = fleet.run_stream(arrivals);

    let s = *fleet.stats();
    let answered: Vec<&fbs::FleetResponse> =
        responses.iter().filter(|r| r.answered()).collect();
    let makespan = responses.iter().map(|r| r.finish_us).fold(0.0f64, f64::max);
    let rps = if makespan > 0.0 { answered.len() as f64 / (makespan / 1e6) } else { 0.0 };
    if let Some(rec) = tele.recorder() {
        rec.gauge_set("fleet.requests_per_sec", rps);
        rec.gauge_set("fleet.makespan_us", makespan);
    }
    tele.write()?;

    println!(
        "fleet:       {devices} device(s) ({}) | queue {queue_capacity} | seed {seed:#x}",
        if hetero { "heterogeneous" } else { "uniform" },
    );
    println!(
        "stream:      {requests} requests, mean gap {gap:.1} µs ({} batch, {} solve answered)",
        answered.iter().filter(|r| matches!(r.outcome, Outcome::Batch(_))).count(),
        answered.iter().filter(|r| matches!(r.outcome, Outcome::Solved(_))).count(),
    );
    println!(
        "served:      {}/{} ({} shed: quota {} | evicted {} | queue-full {})",
        s.served, s.submitted, s.shed(), s.shed_quota, s.shed_evicted, s.shed_queue_full
    );
    println!(
        "failover:    {} failovers, {} CPU-served, {} hedges ({} won)",
        s.failovers, s.cpu_served, s.hedges, s.hedge_wins
    );
    if s.sharded_batches > 0 {
        println!(
            "batches:     {} sharded into {} shards ({} reclaimed)",
            s.sharded_batches, s.shards_dispatched, s.reclaimed_shards
        );
    }
    let mut lat: Vec<f64> = answered.iter().map(|r| r.latency_us()).collect();
    lat.sort_by(|x, y| x.partial_cmp(y).expect("latencies are finite"));
    if !lat.is_empty() {
        let pick = |q: f64| lat[(((lat.len() - 1) as f64) * q).ceil() as usize];
        println!(
            "latency:     p50 {:.1} µs | p95 {:.1} µs | p99 {:.1} µs (modeled)",
            pick(0.50),
            pick(0.95),
            pick(0.99)
        );
    }
    println!("throughput:  {rps:.0} requests/s modeled (makespan {:.1} ms)", makespan / 1e3);
    let health: Vec<String> = fleet
        .health()
        .iter()
        .map(|h| format!("d{} {} {:.2}", h.ordinal, h.breaker.name(), h.score))
        .collect();
    println!("health:      {}", health.join(" | "));
    Ok(0)
}

fn cmd_soak(argv: &[String]) -> Result<u8, String> {
    let a = Args::parse(
        argv,
        &[
            "devices", "requests", "gap", "seed", "burst-rate", "ramp-rate", "kill",
            "sample-every", "tol", "max-iter", "trace-out", "metrics-out",
        ],
    )?;
    let net = load(a.one_positional("grid file")?)?;
    let cfg = solver_config(&a)?;
    let devices: usize = a.get_parse_or("devices", 4usize)?;
    if devices == 0 {
        return Err("--devices must be at least 1".into());
    }
    let requests: usize = a.get_parse_or("requests", 48usize)?;
    let gap: f64 = a.get_parse_or("gap", 400.0)?;
    let seed: u64 = a.get_parse_or("seed", 0x50acu64)?;
    let burst_rate: f64 = a.get_parse_or("burst-rate", 0.04)?;
    let ramp_rate: f64 = a.get_parse_or("ramp-rate", 0.06)?;
    let kill: bool = a.get_parse_or("kill", true)?;
    let sample_every: u64 = a.get_parse_or("sample-every", 2u64)?;
    for (flag, rate) in [("--burst-rate", burst_rate), ("--ramp-rate", ramp_rate)] {
        if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
            return Err(format!("{flag} {rate} is not a probability"));
        }
    }
    if sample_every == 0 {
        return Err("--sample-every must be at least 1".into());
    }
    let tele = Telemetry::from_args(&a);

    // The compound storm: an early corruption burst, a long
    // corruption-under-load ramp, and (by default) a correlated kill of
    // every non-zero ordinal up to two devices. The windows sit in each
    // device's op-space, sized for the fused sweep small feeders take
    // (a supervised IEEE-37 solve at 1e-12 is 34 device ops, so the kill
    // lands within a device's first dozen solves). The kill window is
    // narrow: a dead device consumes one plan op per attempt, so the
    // rejoin probes walk past it quickly.
    let mut storm = StormSchedule::new(seed)
        .with_burst(15, 247, burst_rate)
        .with_corruption_ramp(395, 494, ramp_rate);
    let killed: Vec<u32> = if kill && devices > 1 {
        (1..devices.min(3) as u32).collect()
    } else {
        Vec::new()
    };
    if !killed.is_empty() {
        storm = storm.with_correlated_kill(296, 306, killed.iter().copied());
    }

    // Aggressive rejoin pacing (probe after one open-served dispatch,
    // rejoin attempt every other dispatch): the soak measures integrity
    // under churn, not the default probe cadence.
    let fcfg = FleetConfig {
        service: ServiceConfig { breaker_probe_after: 1, ..ServiceConfig::default() },
        queue_capacity: requests,
        rejoin_every: 2,
        seed,
        ..FleetConfig::uniform(devices)
    };
    let mut sampler = IntegritySampler::new(
        IntegrityConfig { sample_every, ..IntegrityConfig::default() },
        HostProps::paper_rig(),
    );
    if let Some(rec) = tele.recorder() {
        sampler = sampler.with_recorder(rec.clone());
    }
    let mut fleet = FleetService::new(fcfg).with_storm(storm).with_integrity(sampler);
    if let Some(rec) = tele.recorder() {
        fleet = fleet.with_recorder(rec.clone());
    }

    let arrivals = poisson_arrivals(requests, gap, seed ^ 0xa11e, |_| {
        FleetRequest::new(Request::Solve { net: net.clone(), cfg })
    });
    let responses = fleet.run_stream(arrivals);

    let s = *fleet.stats();
    let istats = fleet.integrity_stats();
    let detected: u64 = responses
        .iter()
        .map(|r| match &r.outcome {
            Outcome::Solved(res) => {
                res.fault_report.as_ref().map_or(0, |fr| u64::from(fr.corruptions_detected))
            }
            Outcome::Batch(res) => {
                res.fault_report.as_ref().map_or(0, |fr| u64::from(fr.corruptions_detected))
            }
            _ => 0,
        })
        .sum();
    let answered = responses.iter().filter(|r| r.answered()).count();
    let makespan = responses.iter().map(|r| r.finish_us).fold(0.0f64, f64::max);
    let rps = if makespan > 0.0 { answered as f64 / (makespan / 1e6) } else { 0.0 };
    if let Some(rec) = tele.recorder() {
        fleet.publish_stats();
        rec.gauge_set("soak.requests_per_sec", rps);
        rec.gauge_set("soak.detected_corruptions", detected as f64);
        rec.gauge_set("soak.shadow_mismatches", istats.mismatches as f64);
    }
    tele.write()?;

    println!(
        "soak:        {devices} device(s) uniform | seed {seed:#x} | burst {burst_rate} \
         ramp {ramp_rate}{}",
        if killed.is_empty() {
            String::new()
        } else {
            format!(" | correlated kill of {killed:?}")
        }
    );
    println!(
        "served:      {}/{} ({} shed), {} failovers, {rps:.0} requests/s modeled",
        s.served,
        s.submitted,
        s.shed(),
        s.failovers
    );
    println!(
        "integrity:   {detected} corruption(s) detected and retried, \
         {}/{} answers shadow-verified, {} mismatch(es)",
        istats.verified, istats.sampled, istats.mismatches
    );
    if s.served + s.shed() != s.submitted {
        println!("conservation: VIOLATED ({} + {} != {})", s.served, s.shed(), s.submitted);
        return Ok(EXIT_INTEGRITY);
    }
    if istats.mismatches > 0 {
        println!(
            "verdict:     FAILED — a corruption escaped every net \
             (worst err {:e} V)",
            istats.worst_err_v
        );
        return Ok(EXIT_INTEGRITY);
    }
    println!("verdict:     clean — zero undetected corruptions");
    Ok(0)
}

fn cmd_feeders3(argv: &[String]) -> Result<(), String> {
    let a = Args::parse(argv, &["name", "out"])?;
    let net = match a.get_or("name", "ieee13") {
        "ieee13" => powergrid::three_phase::ieee13_unbalanced(),
        other => return Err(format!("unknown three-phase feeder `{other}`")),
    };
    emit_text(&powergrid::gridfile3::write_grid3(&net), a.get("out"), net.num_buses())
}

fn cmd_gen3(argv: &[String]) -> Result<(), String> {
    let a = Args::parse(argv, &["unbalance", "mutual", "seed", "out"])?;
    let net1 = load(a.one_positional("grid file")?)?;
    let unbalance: f64 = a.get_parse_or("unbalance", 0.35)?;
    let mutual: f64 = a.get_parse_or("mutual", 0.3)?;
    let seed: u64 = a.get_parse_or("seed", 1)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let net3 = powergrid::three_phase::from_single_phase(&net1, unbalance, mutual, &mut rng);
    emit_text(&powergrid::gridfile3::write_grid3(&net3), a.get("out"), net3.num_buses())
}

/// The fault-tolerant supervisor behind the `--fault-*` flags: `backend`
/// on the paper rig with `plan` armed and the run's recorder attached.
fn supervisor(
    backend: Backend,
    plan: &FaultPlan,
    degrade: bool,
    tele: &Telemetry,
) -> ResilientSolver {
    let solver = ResilientSolver::new(backend, DeviceProps::paper_rig(), HostProps::paper_rig())
        .with_fault_plan(plan.clone())
        .with_degradation(degrade);
    match tele.recorder() {
        Some(rec) => solver.with_recorder(rec.clone()),
        None => solver,
    }
}

/// Reports a solve the fault-tolerant supervisor could not finish:
/// prints the solver label and error, flushes telemetry, exits 5.
fn unrecoverable(
    solver: &str,
    e: &dyn std::fmt::Display,
    tele: &Telemetry,
) -> Result<u8, String> {
    println!("solver:      {solver}");
    println!("status:      {e}");
    tele.write()?;
    Ok(EXIT_UNRECOVERABLE)
}

fn emit_text(text: &str, out: Option<&str>, buses: usize) -> Result<(), String> {
    match out {
        Some(path) => {
            fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {buses} buses to {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_profile(argv: &[String]) -> Result<u8, String> {
    let a = Args::parse(
        argv,
        &["solver", "tol", "max-iter", "fault-seed", "fault-rate", "fault-lost-at", "degrade", "trace-out", "metrics-out"],
    )?;
    let net = load(a.one_positional("grid file")?)?;
    let cfg = solver_config(&a)?;
    let which = a.get_or("solver", "gpu");
    let tele = Telemetry::from_args(&a);
    let faults = armed_faults(&a)?;
    let backend = Backend::from_name(which)
        .filter(|b| b.is_device())
        .ok_or_else(|| format!("profile: unknown device solver `{which}`"))?;
    // Under a fault plan the kernel table is the last device the
    // supervisor drove (the one whose attempt produced the result,
    // unless the solve degraded to the CPU).
    match faults {
        Some((plan, degrade)) => {
            let mut engine = supervisor(backend, &plan, degrade, &tele);
            profile_on(&mut engine, &net, which, &cfg, Some(&plan), &tele)
        }
        None => {
            let (props, host) = (DeviceProps::paper_rig(), HostProps::paper_rig());
            let mut engine = backend.engine(&props, &host, tele.recorder());
            profile_on(&mut *engine, &net, which, &cfg, None, &tele)
        }
    }
}

/// The body of `profile` on one engine: the solve, its device's kernel
/// table and timeline notes, and the exit code.
fn profile_on<B: SweepBackend + ?Sized>(
    engine: &mut B,
    net: &RadialNetwork,
    which: &str,
    cfg: &SolverConfig,
    plan: Option<&FaultPlan>,
    tele: &Telemetry,
) -> Result<u8, String>
where
    B::Error: std::fmt::Display,
{
    let solved = engine.solve_warm_arrays(&SolverArrays::new(net), cfg, None);
    if let Some(dev) = engine.device() {
        tele.bridge_device(dev);
    }
    let res = match solved {
        Ok(r) => r,
        Err(e) => {
            println!("solver {which}: {e}");
            if let Some(dev) = engine.device() {
                print_timeline_notes(&dev.timeline().notes());
            }
            tele.write()?;
            return Ok(EXIT_UNRECOVERABLE);
        }
    };
    println!(
        "solver {which}: {} in {} iterations, {:.1} µs modeled",
        res.status,
        res.iterations,
        res.timing.total_us()
    );
    print_fault_report(&res, plan);
    println!();
    if let Some(dev) = engine.device() {
        print!("{}", dev.timeline().kernel_report_table());
        print_timeline_notes(&dev.timeline().notes());
    }
    tele.record(&res.timing, res.iterations, res.residual, &res.status, res.fault_report.as_ref());
    tele.write()?;
    Ok(res.status.exit_code())
}

/// Prints the timeline's fault/marker annotations (supervisor breaker
/// flips, checkpoint/rollback markers, injected faults) after the kernel
/// table, instead of dropping them on the floor.
fn print_timeline_notes(notes: &[String]) {
    if notes.is_empty() {
        return;
    }
    println!("\ntimeline events:");
    for n in notes {
        println!("  {n}");
    }
}

fn cmd_compare(argv: &[String]) -> Result<(), String> {
    let a = Args::parse(argv, &["tol", "max-iter"])?;
    let net = load(a.one_positional("grid file")?)?;
    let cfg = solver_config(&a)?;
    println!("{:<10} {:>7} {:>14} {:>14} {:>9}", "solver", "iters", "modeled total", "vs serial", "conv");
    let arrays = SolverArrays::new(&net);
    let (props, host) = (DeviceProps::paper_rig(), HostProps::paper_rig());
    let mut serial_us = None;
    for backend in Backend::ALL {
        let Ok(r) = backend.engine(&props, &host, None).solve_warm_arrays(&arrays, &cfg, None);
        // `Backend::ALL` starts with serial, the speedup baseline.
        let base = *serial_us.get_or_insert(r.timing.total_us());
        println!(
            "{:<10} {:>7} {:>11.1} µs {:>13.2}x {:>9}",
            backend.name(),
            r.iterations,
            r.timing.total_us(),
            base / r.timing.total_us(),
            r.converged()
        );
    }
    Ok(())
}
