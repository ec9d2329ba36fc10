//! The differential oracle: every single-phase engine agrees with the
//! serial reference, checked through the one engine interface
//! ([`fbs::SweepBackend`]). Engines: every [`Backend::ALL`] engine as
//! [`Backend::engine`] builds it (`gpu` is the routed [`GpuSolver::new`]),
//! plus the level path pinned by [`GpuSolver::with_strategy`].
//! One `check` property per family — radial trees (five shapes, cold and
//! warm, three deadlines), meshed/DG through [`MeshSolver`], seeded fault
//! plans through [`ResilientSolver`], tensor and outage-patched batches
//! per scenario, and three-phase (every `SweepBackend<CVec3>` engine,
//! each backward strategy of the level path, cold and warm, the supervisor under a seeded plan, plus one PV
//! generator through the generic DG loop) — each at the bound of the
//! parity property it generalises (see DESIGN.md, "Engines").
//!
//! Each family runs at a tier-1 case count. `oracle_deep` runs them all
//! at 10⁴ cases: `cargo test --release --test oracle -- --ignored`.

use std::cell::Cell;

use check::gen::{f64_in, tuple3, tuple4, tuple5, u64_any, usize_in};
use check::{checker, prop_assert, prop_assert_eq, CaseResult};
use fbs::obs::status_key;
use fbs::{
    solve_dg, Arrays3, Backend, BackwardStrategy, GpuSolver, MeshProblem, MeshResult,
    MeshSolver, OuterConfig, ResilientSolver, ScenarioPatch, Scenarios, SerialSolver, Solve3Result,
    SolveResult, SolveStatus, SolverArrays, SolverConfig, SweepBackend, TensorBatchResult,
    TensorBatchSolver,
};
use numc::{c, CVec3, Complex};
use powergrid::gen::{balanced_binary, balanced_kary, chain, random_tree, star, GenSpec};
use powergrid::ieee::ieee13;
use powergrid::three_phase::{from_single_phase, ThreePhaseBuilder, ThreePhaseNetwork};
use powergrid::{DfsOrder, MeshedNetwork, MeshedNetworkBuilder, PvBus, RadialNetwork, TopologyDelta};
use rng::rngs::StdRng;
use rng::{Rng, SeedableRng};
use simt::{Device, DeviceProps, FaultPlan, HostProps};

/// Tier-1 case counts per family, and the opt-in run's scale factor:
/// 106× makes 10⁴ cases in all.
const RADIAL: u32 = 32;
const MESHED: u32 = 8;
const FAULTS: u32 = 12;
const TENSOR: u32 = 15;
const OUTAGES: u32 = 12;
const THREE_PHASE: u32 = 16;
const DEEP_SCALE: u32 = 106;

fn serial() -> SerialSolver {
    SerialSolver::new(HostProps::paper_rig())
}

/// `(kind, iteration)` of a status: a deadline hit at the same iteration
/// matches whatever modeled time each engine had spent by then.
fn status_shape(s: SolveStatus) -> (&'static str, Option<u32>) {
    let at = match s {
        SolveStatus::DeadlineExceeded { at_iteration, .. }
        | SolveStatus::Diverged { at_iteration, .. }
        | SolveStatus::NumericalFailure { at_iteration } => Some(at_iteration),
        _ => None,
    };
    (status_key(&s), at)
}

/// Largest per-bus voltage difference, volts; NaN if any bus's is, so a
/// non-finite answer never passes a bound.
fn max_diff(a: &[Complex], b: &[Complex]) -> f64 {
    let worst = |m: f64, d: f64| if d > m || d.is_nan() { d } else { m };
    a.iter().zip(b).map(|(x, y)| (*x - *y).abs()).fold(0.0, worst)
}

/// The engines under test: every backend's plain engine, then the GPU
/// solver pinned to the level path with the segmented-scan backward
/// sweep.
fn engines() -> Vec<(&'static str, Box<dyn SweepBackend<Error = std::convert::Infallible>>)> {
    let (props, host) = (DeviceProps::paper_rig(), HostProps::paper_rig());
    let mut all: Vec<(&'static str, Box<dyn SweepBackend<Error = _>>)> =
        Backend::ALL.iter().map(|b| (b.name(), b.engine(&props, &host, None))).collect();
    let pinned = GpuSolver::with_strategy(Device::paper_rig(), BackwardStrategy::SegScan);
    all.push(("gpu-segscan", Box::new(pinned)));
    all
}

fn radial_tree(shape: usize, n: usize, seed: u64, load_scale: f64) -> RadialNetwork {
    let mut spec = GenSpec::default();
    spec.total_kw *= load_scale;
    let mut rng = StdRng::seed_from_u64(seed);
    match shape {
        0 => balanced_binary(n, &spec, &mut rng),
        1 => chain(n, &spec, &mut rng),
        2 => star(n, &spec, &mut rng),
        3 => balanced_kary(n, 2 + seed as usize % 8, &spec, &mut rng),
        _ => random_tree(n, 1 + seed as usize % 32, &spec, &mut rng),
    }
}

fn radial(cases: u32) {
    checker("oracle_radial").cases(cases).run(
        tuple5(usize_in(0..5), usize_in(1..700), u64_any(), usize_in(0..6), f64_in(0.3..1.5)),
        |&(shape, n, seed, mode, load_scale)| -> CaseResult {
            let net = radial_tree(shape, n, seed, load_scale);
            let a = SolverArrays::new(&net);
            let deadline_us = [None, Some(1.0), Some(1e12)][mode % 3];
            let cfg = SolverConfig { deadline_us, ..SolverConfig::default() };
            let scale = net.source_voltage().abs();
            // Warm: a perturbed fixed point, the same for every engine.
            let warm: Option<Vec<Complex>> = (mode >= 3).then(|| {
                serial().solve_arrays(&a, &cfg).v.iter().map(|v| *v * 0.999).collect()
            });
            // The serial iterates an engine must reproduce: from the start
            // it honours, without a deadline, or cut where the engine's
            // own modeled clock cut it (serial must still be running there).
            let reference = |res: &SolveResult, warm: Option<&[Complex]>| {
                let mut cfg = SolverConfig { deadline_us: None, ..cfg };
                if let SolveStatus::DeadlineExceeded { at_iteration, .. } = res.status {
                    cfg.max_iter = at_iteration;
                }
                let want = serial().solve_warm(&a, &cfg, warm);
                let cut = matches!(res.status, SolveStatus::DeadlineExceeded { .. })
                    && want.status == SolveStatus::MaxIterations;
                let status = if cut { res.status } else { want.status };
                (want, status)
            };

            let mut results: Vec<(&str, SolveResult)> = Vec::new();
            for (name, mut engine) in engines() {
                let Ok(res) = engine.solve_warm_arrays(&a, &cfg, warm.as_deref());
                prop_assert_eq!(res.residual_history.len(), res.iterations as usize, "{name}");
                if name == "gpu-jump" {
                    // Jump starts flat and sums subtrees as prefix-sum
                    // differences: the same status, at most one iteration
                    // apart, the same fixed point to tolerance scale.
                    let (want, status) = reference(&res, None);
                    prop_assert_eq!(status_shape(res.status), status_shape(status), "{name}");
                    prop_assert!(res.iterations.abs_diff(want.iterations) <= 1, "{name}");
                    let d = max_diff(&res.v, &want.v);
                    prop_assert!(d <= 1e-5 * scale, "{name}: off serial by {d:e} V");
                } else {
                    let (want, status) = reference(&res, warm.as_deref());
                    prop_assert_eq!(status_shape(res.status), status_shape(status), "{name}");
                    prop_assert_eq!(res.iterations, want.iterations, "{name}");
                    let d = max_diff(&res.v, &want.v);
                    prop_assert!(d <= 1e-8 * scale, "{name}: off serial by {d:e} V");
                }
                // Only cold answers are held to physics at 1e-4: a warm
                // start converges on the update norm from a perturbed state.
                if res.converged() && warm.is_none() {
                    fbs::validate::assert_physical(&net, &res, 1e-4);
                }
                results.push((name, res));
            }
            // The level strategies agree with each other, and the routed
            // solve reaches each pinned level path's answer — segmented
            // scan and direct, the two it routes between — for no more
            // modeled time.
            let of = |name: &str| &results.iter().find(|(n, _)| *n == name).unwrap().1;
            let segscan = of("gpu-segscan");
            for name in ["gpu-direct", "gpu-atomic"] {
                let d = max_diff(&of(name).v, &segscan.v);
                prop_assert!(d <= 1e-8 * scale, "{name} off the segscan path by {d:e} V");
            }
            let routed = of("gpu");
            for name in ["gpu-segscan", "gpu-direct"] {
                let pinned = of(name);
                prop_assert_eq!(status_shape(routed.status), status_shape(pinned.status), "{name}");
                prop_assert_eq!(routed.iterations, pinned.iterations, "{name}");
                let d = max_diff(&routed.v, &pinned.v);
                prop_assert!(d <= 1e-9 * scale, "routed off pinned {name} by {d:e} V");
                let (r_us, p_us) = (routed.timing.total_us(), pinned.timing.total_us());
                prop_assert!(r_us <= p_us, "routed {r_us:.2} µs > pinned {name} {p_us:.2} µs");
            }
            // Off the segmented scan (whose modeled time the routed solve
            // would then equal) and without a deadline cutting either at
            // its own clock, the routed fused sweep, on one block or a
            // grid, is the direct level path's arithmetic: the same
            // answer bit for bit.
            let direct = of("gpu-direct");
            let on_scan = routed.timing.total_us() == segscan.timing.total_us();
            if deadline_us != Some(1.0) && !on_scan {
                prop_assert_eq!((routed.status, routed.iterations), (direct.status, direct.iterations));
                let bits = |r: &SolveResult| r.residual_history.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(routed), bits(direct), "routed residual history");
                prop_assert!(routed.v == direct.v && routed.j == direct.j, "routed V and J off direct's bits");
            }
            Ok(())
        },
    );
}

/// `net` plus up to `ties` closed ties that duplicate no edge and one PV
/// generator with Q limits of ±`q`.
fn meshed_instance(net: &RadialNetwork, rng: &mut StdRng, ties: usize, q: f64) -> MeshedNetwork {
    let n = net.num_buses();
    let mut b = MeshedNetworkBuilder::new(net.source_voltage());
    for bus in net.buses() {
        b.add_bus(bus.load);
    }
    let mut edges: Vec<(usize, usize)> = net.branches().iter().map(|br| (br.from, br.to)).collect();
    for br in net.branches() {
        b.connect(br.from, br.to, br.z);
    }
    for _ in 0..ties {
        let (x, y) = (rng.gen_range(1..n), rng.gen_range(1..n));
        if x != y && !edges.iter().any(|&e| e == (x, y) || e == (y, x)) {
            edges.push((x, y));
            b.tie(x, y, c(rng.gen_range(0.05..0.5), rng.gen_range(0.05..0.5)), true);
        }
    }
    let bus = rng.gen_range(1..n);
    let p_gen = rng.gen_range(5_000.0..20_000.0);
    let v_set = 0.995 * net.source_voltage().abs();
    b.generator(PvBus { bus, p_gen, v_set, q_min: -q, q_max: q });
    b.build().expect("sampled meshed instance must validate")
}

fn meshed(cases: u32) {
    checker("oracle_meshed").cases(cases).run(
        tuple4(usize_in(33..200), u64_any(), usize_in(1..4), f64_in(2_000.0..30_000.0)),
        |&(n, seed, ties, q_lim)| -> CaseResult {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = if seed % 2 == 0 {
                balanced_binary(n, &GenSpec::default(), &mut rng)
            } else {
                random_tree(n, 6, &GenSpec::default(), &mut rng)
            };
            let v0 = net.source_voltage().abs();
            let net = meshed_instance(&net, &mut rng, ties, q_lim);
            let cfg = SolverConfig::default();
            let outer = OuterConfig::default();
            let reference = MeshSolver::new(serial()).with_outer(outer).solve(&net, &cfg);
            for (name, engine) in engines() {
                let res = MeshSolver::new(engine).with_outer(outer).solve(&net, &cfg);
                prop_assert_eq!(status_key(&res.status), status_key(&reference.status), "{name}");
                let d = max_diff(&res.inner.v, &reference.inner.v);
                if name == "gpu-jump" {
                    // Flat inner starts: the same fixed point, maybe in other rounds.
                    if reference.converged() {
                        prop_assert!(d <= 1e-5 * v0, "{name}: off serial by {d:e} V");
                    }
                    continue;
                }
                prop_assert_eq!(res.outer_status, reference.outer_status, "{name}");
                prop_assert_eq!(res.outer_iterations, reference.outer_iterations, "{name}");
                prop_assert!(d <= 1e-9 * v0, "{name}: off serial by {d:e} V");
            }
            Ok(())
        },
    );
}

/// Runs `backend` under the supervisor with `plan` armed; the answer
/// must be converged and on the fault-free serial |V| to 1e-9 V. Returns
/// the faults injected and the supervisor.
fn recovers(
    net: &RadialNetwork,
    backend: Backend,
    plan: FaultPlan,
) -> Result<(u32, ResilientSolver), String> {
    let cfg = SolverConfig::new(1e-12, 200);
    let a = SolverArrays::new(net);
    let reference = serial().solve_arrays(&a, &cfg);
    let name = backend.name();
    let mut supervisor =
        ResilientSolver::new(backend, DeviceProps::paper_rig(), HostProps::paper_rig())
            .with_fault_plan(plan);
    let res = supervisor
        .solve_warm_arrays(&a, &cfg, None)
        .map_err(|e| format!("{name}: recoverable faults killed the solve: {e}"))?;
    if !res.converged() {
        return Err(format!("{name}: ended {}", res.status));
    }
    let rep = res.fault_report.as_ref().expect("supervised solves carry a fault report");
    if !backend.is_device() && rep.faults_injected != 0 {
        return Err(format!("{name}: a CPU backend saw device faults"));
    }
    for (bus, (r, g)) in reference.v.iter().zip(&res.v).enumerate() {
        let err = (r.abs() - g.abs()).abs();
        if err.is_nan() || err >= 1e-9 {
            return Err(format!(
                "{name}: bus {bus} |V| off by {err:.3e} V after recovery ({} faults, {} rollbacks)",
                rep.faults_injected, rep.rollbacks
            ));
        }
    }
    Ok((rep.faults_injected, supervisor))
}

fn faults(cases: u32) {
    // Pinned inputs: the golden fixed-seed 1K tree and IEEE-13, whose
    // seeded plans are known to fire on every device backend, and a plan
    // that flips the root voltage of a two-bus tree (no kernel rewrites
    // the root, so only certification can catch it).
    let golden = balanced_binary(1023, &GenSpec::default(), &mut StdRng::seed_from_u64(20200817));
    let root_flip = 14_346_886_203_313_971_949;
    let two_bus = radial_tree(0, 2, root_flip, 1.0);
    for backend in Backend::ALL {
        let plan = FaultPlan::seeded(root_flip ^ 0xFA17, 0.046_802_322_261_968_905);
        recovers(&two_bus, backend, plan).unwrap_or_else(|e| panic!("root flip: {e}"));
        // The jump solver and the fused sweep (the route Backend::Gpu
        // takes on the golden tree) issue several times fewer device ops
        // per solve than the level path, and IEEE-13 few in all: higher
        // rates make the plan fire.
        let golden_rate =
            if matches!(backend, Backend::GpuJump | Backend::Gpu) { 2e-2 } else { 5e-3 };
        for (net, rate) in [(&golden, golden_rate), (&ieee13(), 2e-2)] {
            let (fired, supervisor) = recovers(net, backend, FaultPlan::seeded(20200817, rate))
                .unwrap_or_else(|e| panic!("pinned {} buses: {e}", net.num_buses()));
            assert!(
                fired >= 1 || !backend.is_device(),
                "{}: the pinned plan was chosen to fire at least once",
                backend.name()
            );
            // The supervisor routes Backend::Gpu: the golden tree runs the
            // fused sweep under the same bound.
            if backend == Backend::Gpu && net.num_buses() == golden.num_buses() {
                let dev = supervisor.last_device().expect("a device rung ran");
                let kernels = dev.timeline().breakdown().per_kernel_us;
                assert!(kernels.contains_key("tensor_sweep"), "golden tree ran {kernels:?}");
            }
        }
    }
    checker("oracle_faults").cases(cases).run(
        tuple5(usize_in(0..5), usize_in(2..200), u64_any(), usize_in(0..6), f64_in(0.0..0.05)),
        |&(shape, n, seed, backend, rate)| -> CaseResult {
            let net = radial_tree(shape, n, seed, 1.0);
            let plan = FaultPlan::seeded(seed ^ 0xFA17, rate);
            recovers(&net, Backend::ALL[backend], plan).map_err(check::CaseError::fail)?;
            Ok(())
        },
    );
}

/// Serial reference for one scenario: the level-order arrays with the
/// scenario's loads (by bus id) substituted in.
fn serial_scenario(a: &SolverArrays, loads: &[Complex], cfg: &SolverConfig) -> SolveResult {
    let mut a2 = a.clone();
    a2.s = a.levels.permute(loads);
    serial().solve_arrays(&a2, cfg)
}

/// The seeded fault plan of the batch arms: the tensor engine issues few
/// device ops per solve (one fused launch and one read per iteration), so
/// the per-op rate is high to make the plan fire.
fn batch_plan(seed: u64) -> Device {
    let mut dev = Device::paper_rig();
    dev.arm_faults(FaultPlan::seeded(seed ^ 0xfa, 0.03));
    dev
}

/// The tight configuration of the seeded-plan arms: a recovered answer
/// lands within this tolerance of the fault-free one, well inside their
/// 1e-9 V bound.
fn tight() -> SolverConfig {
    SolverConfig::new(1e-12, 200)
}

/// Faults the seeded plan injected into a batch.
fn fired(res: &TensorBatchResult) -> u64 {
    res.fault_report.as_ref().map_or(0, |fr| u64::from(fr.faults_injected))
}

fn tensor(cases: u32) {
    let faults = Cell::new(0);
    checker("oracle_tensor").cases(cases).run(
        tuple3(usize_in(2..260), usize_in(1..9), u64_any()),
        |&(n, nb, seed)| -> CaseResult {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = random_tree(n, 8, &GenSpec::default(), &mut rng);
            let cfg = SolverConfig::default();
            // Per-bus jitter: scenarios are not mere scalings of each other.
            let scenarios: Vec<Vec<Complex>> = (0..nb)
                .map(|_| net.buses().iter().map(|b| b.load * rng.gen_range(0.5..1.5)).collect())
                .collect();
            let a = SolverArrays::new(&net);
            let mut solver = TensorBatchSolver::new(Device::paper_rig());
            let res = solver.solve_arrays(&a, &scenarios, &cfg);
            for (s, loads) in scenarios.iter().enumerate() {
                let want = serial_scenario(&a, loads, &cfg);
                prop_assert_eq!(res.statuses[s], want.status, "scenario {s}");
                prop_assert_eq!(res.per_scenario_iterations[s], want.iterations, "scenario {s}");
                prop_assert!(
                    res.residuals[s].to_bits() == want.residual.to_bits()
                        || (res.residuals[s].is_nan() && want.residual.is_nan()),
                    "scenario {s}: residual {} vs serial {}",
                    res.residuals[s],
                    want.residual
                );
                let d = max_diff(&res.v[s], &want.v);
                prop_assert!(d < 1e-9, "scenario {s}: off serial by {d:.3e} V");
            }
            // Seeded-plan arm: faults cannot corrupt the batch. Every
            // scenario ends as the fault-free serial solve does, and a
            // converged one lands on its answer.
            let res = TensorBatchSolver::new(batch_plan(seed)).solve_arrays(&a, &scenarios, &tight());
            faults.set(faults.get() + fired(&res));
            for (s, loads) in scenarios.iter().enumerate() {
                let want = serial_scenario(&a, loads, &tight());
                let status = res.statuses[s];
                prop_assert_eq!(status.is_converged(), want.converged(), "scenario {s} under faults: {status}");
                let d = max_diff(&res.v[s], &want.v);
                prop_assert!(!want.converged() || d < 1e-9, "scenario {s}: faulted solve off by {d:.3e} V");
            }
            Ok(())
        },
    );
    assert!(faults.get() >= 1, "the seeded plans never fired: the fault arm was vacuous");
}

fn outages(cases: u32) {
    let faults = Cell::new(0);
    checker("oracle_outages").cases(cases).run(
        tuple3(usize_in(3..220), usize_in(1..7), u64_any()),
        |&(n, nb, seed)| -> CaseResult {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = random_tree(n, 6, &GenSpec::default(), &mut rng);
            let cfg = SolverConfig::default();
            let root = net.root();
            let buses: Vec<usize> = (0..nb)
                .map(|_| loop {
                    let b = rng.gen_range(0..n);
                    if b != root {
                        break b;
                    }
                })
                .collect();
            let patches: Vec<_> = buses.iter().map(|&b| ScenarioPatch::outage(b)).collect();
            let dfs = DfsOrder::new(&net);
            let (a, warm) = (SolverArrays::new(&net), None);
            let scenarios = Scenarios::Patched { dfs: &dfs, patches: &patches, warm };
            let batched = TensorBatchSolver::new(Device::paper_rig()).solve(&a, scenarios, &cfg);
            // Seeded-plan arm: certification covers patched lanes too.
            let faulted = TensorBatchSolver::new(batch_plan(seed)).solve(&a, scenarios, &tight());
            faults.set(faults.get() + fired(&faulted));
            let mut work = net.clone();
            for (s, &bus) in buses.iter().enumerate() {
                let mut delta = TopologyDelta::outage(&work, bus).expect("outage");
                delta.apply(&mut work).expect("apply");
                let want = serial().solve(&work, &cfg);
                prop_assert_eq!(batched.statuses[s], want.status, "outage {bus}");
                prop_assert_eq!(batched.per_scenario_iterations[s], want.iterations, "outage {bus}");
                let want_tight = serial().solve(&work, &tight());
                let status = faulted.statuses[s];
                prop_assert_eq!(status.is_converged(), want_tight.converged(), "outage {bus} under faults: {status}");
                for b in 0..n {
                    if delta.isolated().contains(&b) {
                        prop_assert!(
                            batched.v[s][b] == Complex::ZERO && batched.j[s][b] == Complex::ZERO,
                            "outage {bus}: de-energized bus {b} not zeroed"
                        );
                        prop_assert!(faulted.v[s][b] == Complex::ZERO, "outage {bus}: bus {b} faulted");
                    } else {
                        let d = (batched.v[s][b] - want.v[b]).abs();
                        prop_assert!(d < 1e-9, "outage {bus} bus {b}: off serial by {d:.3e} V");
                        let d = (faulted.v[s][b] - want_tight.v[b]).abs();
                        let on = !want_tight.converged() || d < 1e-9;
                        prop_assert!(on, "outage {bus} bus {b}: faulted solve off by {d:.3e} V");
                    }
                }
                delta.revert(&mut work).expect("revert");
            }
            // `{:?}` prints each f64 in shortest round-trip form, so equal
            // strings mean bitwise-equal loads and impedances.
            let restored = format!("{work:?}") == format!("{net:?}");
            prop_assert!(restored, "the revert cycle must restore the network");
            Ok(())
        },
    );
    assert!(faults.get() >= 1, "the seeded plans never fired: the fault arm was vacuous");
}

/// `res` agrees with the serial reference `want` to 1e-8·|V0| on every
/// phase of every bus (converged or recovered where serial converged),
/// or ends as serial did.
fn agree3(name: &str, res: &Solve3Result, want: &Solve3Result, scale: f64) -> Result<(), String> {
    if !want.converged() {
        if status_key(&res.status) != status_key(&want.status) {
            return Err(format!("{name}: ended {}, serial {}", res.status, want.status));
        }
        return Ok(());
    }
    if !res.converged() {
        return Err(format!("{name}: ended {}", res.status));
    }
    for (bus, (x, y)) in want.v.iter().zip(&res.v).enumerate() {
        // Per phase: `abs_max` would drop a lone NaN phase.
        for (p, q) in x.phases().iter().zip(y.phases()) {
            let d = (*p - q).abs();
            if d.is_nan() || d >= 1e-8 * scale {
                return Err(format!("{name}: bus {bus} off by {d:.3e} V ({})", res.status));
            }
        }
    }
    Ok(())
}

/// The DG outcome `res` matches the serial reference `want`: the same
/// outer outcome, voltages within `bound` volts.
fn agree3_dg(name: &str, res: &MeshResult<CVec3>, want: &MeshResult<CVec3>, bound: f64) -> Result<(), String> {
    let same = res.converged() == want.converged()
        && (res.converged() || status_key(&res.status) == status_key(&want.status))
        && res.outer_status == want.outer_status
        && res.outer_iterations == want.outer_iterations;
    if !same {
        return Err(format!(
            "{name} DG: {} / {} in {} rounds, serial {} / {} in {}",
            res.status,
            res.outer_status,
            res.outer_iterations,
            want.status,
            want.outer_status,
            want.outer_iterations
        ));
    }
    let d = res
        .inner
        .v
        .iter()
        .zip(&want.inner.v)
        .flat_map(|(x, y)| x.phases().into_iter().zip(y.phases()).map(|(p, q)| (p - q).abs()))
        .fold(0.0, |m: f64, d| if d > m || d.is_nan() { d } else { m });
    if d.is_nan() || d > bound {
        return Err(format!("{name} DG: off serial by {d:e} V"));
    }
    Ok(())
}

/// `net` plus one balanced PV generator with Q limits of ±2–30 kvar.
fn with_generator(net: &ThreePhaseNetwork, rng: &mut StdRng) -> ThreePhaseNetwork {
    let mut b = ThreePhaseBuilder::new(net.source_voltage());
    for bus in net.buses() {
        b.add_bus(bus.load);
    }
    for br in net.branches() {
        b.connect(br.from, br.to, br.z);
    }
    let q = rng.gen_range(2_000.0..30_000.0);
    b.generator(PvBus {
        bus: rng.gen_range(1..net.num_buses()),
        p_gen: rng.gen_range(5_000.0..20_000.0),
        v_set: 0.995 * net.source_voltage().abs_max(),
        q_min: -q,
        q_max: q,
    });
    b.build().expect("a generator on a valid feeder must validate")
}

/// A plain three-phase engine.
type Engine3 = Box<dyn SweepBackend<CVec3, Error = std::convert::Infallible>>;

/// One three-phase case: a random tree expanded to three phases, solved
/// through `SweepBackend<CVec3>` by the serial sweep, the plain GPU
/// solver (routed to the cheaper of the segmented scan and the direct
/// backward) and the GPU solver pinned to the segmented-scan, direct and
/// atomic-scatter backward sweeps, and the supervisor with a seeded plan
/// at `rate` armed, each cold and warm-started from a perturbed serial
/// answer. Plain engines must match serial from the same start, status
/// and iterations too, the supervisor (which starts flat) the cold
/// serial answer; the routed solve must cost no more modeled time than
/// either strategy it chooses between. Then the same feeder with one PV
/// generator runs the generic DG outer loop: the plain GPU solver at the
/// meshed family's 1e-9·|V0|, the supervisor (whose recovered inner
/// answers are held to 1e-8·|V0| above) at 1e-8·|V0|.
fn agrees3(n: usize, seed: u64, unbalance: f64, rate: f64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let net1 = random_tree(n, 8, &GenSpec::default(), &mut rng);
    let net3 = from_single_phase(&net1, unbalance, 0.25, &mut rng);
    let a = Arrays3::new(&net3);
    let cfg = SolverConfig::default();
    let scale = net3.source_voltage().abs_max();
    let mut supervisor = ResilientSolver::new(Backend::Gpu, DeviceProps::paper_rig(), HostProps::paper_rig())
        .with_fault_plan(FaultPlan::seeded(seed ^ 0xFA17, rate));
    let fault = |e| format!("solve3: recoverable faults killed the solve: {e}");

    let cold = serial().solve_arrays(&a, &cfg);
    let perturbed: Vec<CVec3> = cold.v.iter().map(|v| *v * 0.999).collect();
    let pinned = |s| GpuSolver::with_strategy(Device::paper_rig(), s);
    for warm in [None, Some(perturbed.as_slice())] {
        let want = serial().solve_warm(&a, &cfg, warm);
        let engines: [(&str, Engine3); 5] = [
            ("serial", Box::new(serial())),
            ("gpu", Box::new(GpuSolver::new(Device::paper_rig()))),
            ("gpu-segscan", Box::new(pinned(BackwardStrategy::SegScan))),
            ("gpu-direct", Box::new(pinned(BackwardStrategy::Direct))),
            ("gpu-atomic", Box::new(pinned(BackwardStrategy::AtomicScatter))),
        ];
        let mut modeled_us = Vec::new();
        for (name, mut engine) in engines {
            let Ok(res) = engine.solve_warm_arrays(&a, &cfg, warm);
            agree3(name, &res, &want, scale)?;
            if res.iterations != want.iterations {
                return Err(format!("{name}: {} iterations, serial {}", res.iterations, want.iterations));
            }
            modeled_us.push(res.timing.total_us());
        }
        let (routed, segscan, direct) = (modeled_us[1], modeled_us[2], modeled_us[3]);
        if routed > segscan.min(direct) {
            return Err(format!("gpu: {routed} µs routed, segscan {segscan} µs, direct {direct} µs"));
        }
        let r = supervisor.solve_warm_arrays(&a, &cfg, warm).map_err(fault)?;
        agree3("solve3", &r, &cold, scale)?;
    }

    let problem = MeshProblem::three_phase(&with_generator(&net3, &mut rng));
    let outer = OuterConfig::default();
    let mut serial = serial();
    let Ok(want) = solve_dg(&problem, &cfg, &outer, None, |a, warm| serial.solve_warm_arrays(a, &cfg, warm));
    let Ok(flat) = solve_dg(&problem, &cfg, &outer, None, |a, _| serial.solve_warm_arrays(a, &cfg, None));
    let mut gpu = GpuSolver::new(Device::paper_rig());
    let Ok(g) = solve_dg(&problem, &cfg, &outer, None, |a, warm| gpu.solve_warm_arrays(a, &cfg, warm));
    let r = solve_dg(&problem, &cfg, &outer, None, |a, warm| supervisor.solve_warm_arrays(a, &cfg, warm))
        .map_err(fault)?;
    agree3_dg("gpu", &g, &want, 1e-9 * scale)?;
    agree3_dg("solve3", &r, &flat, 1e-8 * scale)
}

fn three_phase(cases: u32) {
    // Pinned: a plan that flips the root voltage of a two-bus feeder (no
    // kernel rewrites the root, so only certification can catch it;
    // without the root check the answer is 3.6 kV off).
    let (root_flip, rate) = (2_674_627_107_790_345_647, 0.022_371_134_020_618_556);
    agrees3(2, root_flip, 0.3, rate).unwrap_or_else(|e| panic!("3φ root flip: {e}"));
    checker("oracle_three_phase").cases(cases).run(
        tuple4(usize_in(2..300), u64_any(), f64_in(0.0..0.6), f64_in(0.0..0.05)),
        |&(n, seed, unbalance, rate)| -> CaseResult {
            agrees3(n, seed, unbalance, rate).map_err(check::CaseError::fail)?;
            Ok(())
        },
    );
}

#[test]
fn oracle_radial() {
    radial(RADIAL);
}

#[test]
fn oracle_meshed() {
    meshed(MESHED);
}

#[test]
fn oracle_faults() {
    faults(FAULTS);
}

#[test]
fn oracle_tensor() {
    tensor(TENSOR);
}

#[test]
fn oracle_outages() {
    outages(OUTAGES);
}

#[test]
fn oracle_three_phase() {
    three_phase(THREE_PHASE);
}

#[test]
#[ignore = "10⁴-case oracle; run with --release -- --ignored"]
fn oracle_deep() {
    radial(DEEP_SCALE * RADIAL);
    meshed(DEEP_SCALE * MESHED);
    faults(DEEP_SCALE * FAULTS);
    tensor(DEEP_SCALE * TENSOR);
    outages(DEEP_SCALE * OUTAGES);
    three_phase(DEEP_SCALE * THREE_PHASE);
}
