//! E17 (extension) — weakly-meshed grids and distributed generation:
//! break-point compensation + PV-bus outer-loop cost over radial
//! baselines, and the tensor-batched DG-penetration sweep against
//! serial outer-loop re-solves.
//!
//! Each feeder is a random radial tree re-closed with a few normally-
//! open ties (making it weakly meshed) and seeded with PV-mode
//! distributed generators holding voltage set-points under Q limits.
//! The outer loop pays one extra inner solve per compensation/PV
//! update, so the interesting numbers are (a) the outer-iteration
//! count (flat in feeder size), (b) the meshed-over-radial cost factor
//! per backend, and (c) how far one tensor-batched outer loop — a
//! single batched inner solve per round shared by the *whole* DG
//! scenario family — beats re-running the serial outer loop per
//! scenario.
//!
//! Acceptance (full run, headline size):
//! * every meshed/DG solve converges on serial and GPU with identical
//!   outer-iteration counts, and voltages agree to 1e-9·|V0|;
//! * sampled batched scenarios match standalone serial outer-loop
//!   re-solves to 1e-5·|V0|;
//! * the batched DG sweep sustains ≥ 10× the per-scenario throughput
//!   of serial outer-loop re-solves.
//!
//! Run: `cargo run -p fbs-bench --release --bin exp_e17_mesh`
//! Smoke (CI): `E17_SMOKE=1 cargo run -p fbs-bench --release --bin exp_e17_mesh`

use fbs::{
    solve_dg_batch, BackwardStrategy, GpuSolver, MeshSolver, OuterConfig, SerialSolver,
    SolveResult, SolverConfig, TensorBatchSolver,
};
use fbs_bench::{eval_config, rng_for, us, Table};
use numc::{c, Complex};
use powergrid::gen::{balanced_binary, GenSpec};
use powergrid::{ieee, MeshedNetwork, MeshedNetworkBuilder, PvBus, RadialNetwork};
use rng::rngs::StdRng;
use rng::Rng;
use simt::{Device, HostProps};

/// Re-closes a random radial tree into a weakly-meshed DG feeder:
/// `loops` closed ties between distinct non-adjacent buses, and `gens`
/// PV generators spread over the feeder, each holding 99.5% of the
/// source magnitude with Q limits sized off the total feeder load.
fn dg_feeder(net: &RadialNetwork, loops: usize, gens: usize, rng: &mut StdRng) -> MeshedNetwork {
    let n = net.num_buses();
    let total_load: f64 = net.buses().iter().map(|b| b.load.re).sum();
    let v0 = net.source_voltage();

    let mut b = MeshedNetworkBuilder::new(v0);
    for bus in net.buses() {
        b.add_bus(bus.load);
    }
    for br in net.branches() {
        b.connect(br.from, br.to, br.z);
    }

    let mut used: std::collections::HashSet<(usize, usize)> = net
        .branches()
        .iter()
        .map(|br| (br.from.min(br.to), br.from.max(br.to)))
        .collect();
    let mut placed = 0;
    while placed < loops {
        let a = rng.gen_range(1usize..n);
        let bb = rng.gen_range(1usize..n);
        if a == bb || !used.insert((a.min(bb), a.max(bb))) {
            continue;
        }
        b.tie(a, bb, c(rng.gen_range(0.1..0.5), rng.gen_range(0.1..0.5)), true);
        placed += 1;
    }

    let q_cap = 0.05 * total_load;
    let mut gen_buses = std::collections::HashSet::new();
    while gen_buses.len() < gens {
        let bus = rng.gen_range(1usize..n);
        if gen_buses.insert(bus) {
            b.generator(PvBus {
                bus,
                p_gen: 0.02 * total_load,
                v_set: 0.995 * v0.abs(),
                q_min: -q_cap,
                q_max: q_cap,
            });
        }
    }
    b.build().expect("generated DG feeder must validate")
}

/// Rebuilds one DG-penetration scenario of `net` as a standalone meshed
/// network with every generator's active output scaled by `dg`.
fn scenario(net: &MeshedNetwork, dg: f64) -> MeshedNetwork {
    let tree = net.tree();
    let mut b = MeshedNetworkBuilder::new(tree.source_voltage());
    for bus in tree.buses() {
        b.add_bus(bus.load);
    }
    for br in tree.branches() {
        b.connect(br.from, br.to, br.z);
    }
    for bp in net.break_points() {
        b.tie(bp.a, bp.b, bp.z, true);
    }
    for g in net.generators() {
        b.generator(PvBus { p_gen: g.p_gen * dg, ..*g });
    }
    b.build().expect("scenario rebuild must validate")
}

fn assert_close(a: &[Complex], b: &[Complex], tol: f64, who: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!((*x - *y).abs() <= tol, "{who}: bus {i}: {x:?} vs {y:?}");
    }
}

fn radial_baseline(net: &RadialNetwork, cfg: &SolverConfig) -> (SolveResult, SolveResult) {
    let serial = SerialSolver::new(HostProps::paper_rig()).solve(net, cfg);
    let mut gpu = GpuSolver::with_strategy(Device::paper_rig(), BackwardStrategy::SegScan);
    let on_gpu = gpu.solve(net, cfg);
    assert!(serial.converged() && on_gpu.converged(), "radial baseline must converge");
    (serial, on_gpu)
}

fn main() {
    let smoke = std::env::var("E17_SMOKE").is_ok();
    let cfg = eval_config();
    let outer = OuterConfig::default();
    let spec = GenSpec::default();

    let sizes: &[usize] = if smoke { &[255] } else { &[1023, 4095, 16_383, 65_535] };

    // Correctness anchor first: the IEEE 123-bus DG feeder solves
    // identically on serial and GPU backends.
    let anchor = ieee::ieee123_dg();
    let a_serial = MeshSolver::new(SerialSolver::new(HostProps::paper_rig())).solve(&anchor, &cfg);
    let level = GpuSolver::with_strategy(Device::paper_rig(), BackwardStrategy::SegScan);
    let a_gpu = MeshSolver::new(level).solve(&anchor, &cfg);
    assert!(a_serial.converged() && a_gpu.converged(), "ieee123-dg must converge");
    assert_eq!(a_serial.outer_iterations, a_gpu.outer_iterations, "ieee123-dg outer iterations");
    assert_close(
        &a_serial.inner.v,
        &a_gpu.inner.v,
        1e-9 * anchor.tree().source_voltage().abs(),
        "ieee123-dg serial vs gpu",
    );
    println!(
        "anchor: ieee123-dg converges in {} outer iterations on both backends \
         ({} loops, {} generators)\n",
        a_serial.outer_iterations,
        anchor.break_points().len(),
        anchor.generators().len(),
    );

    let mut table = Table::new(
        "E17: weakly-meshed + DG outer loop, cost over the radial baseline",
        &[
            "buses",
            "loops",
            "gens",
            "backend",
            "outer",
            "inner iters",
            "modeled total",
            "vs radial",
        ],
    );

    for (i, &n) in sizes.iter().enumerate() {
        let mut rng = rng_for(170 + i as u64);
        // Balanced trees keep the level count logarithmic — E17 measures
        // the outer loop's cost, not the deep-tree launch-overhead
        // pathology (that is E8's subject).
        let net = balanced_binary(n, &spec, &mut rng);
        let meshed = dg_feeder(&net, 3, 4, &mut rng);
        let v0 = net.source_voltage().abs();
        let (base_serial, base_gpu) = radial_baseline(&net, &cfg);

        let serial = MeshSolver::new(SerialSolver::new(HostProps::paper_rig()))
            .with_outer(outer)
            .solve(&meshed, &cfg);
        let level = GpuSolver::with_strategy(Device::paper_rig(), BackwardStrategy::SegScan);
        let gpu = MeshSolver::new(level).with_outer(outer).solve(&meshed, &cfg);
        assert!(serial.converged(), "{n} buses: serial meshed solve: {}", serial.status);
        assert!(gpu.converged(), "{n} buses: gpu meshed solve: {}", gpu.status);
        assert_eq!(
            serial.outer_iterations, gpu.outer_iterations,
            "{n} buses: backends must agree on the outer trajectory"
        );
        assert_close(&serial.inner.v, &gpu.inner.v, 1e-9 * v0, "serial vs gpu");

        for (backend, res, base) in
            [("serial", &serial, &base_serial), ("gpu", &gpu, &base_gpu)]
        {
            table.row(&[
                &n,
                &meshed.break_points().len(),
                &meshed.generators().len(),
                &backend,
                &res.outer_iterations,
                &res.inner.iterations,
                &us(res.inner.timing.total_us()),
                &format!("{:.1}x", res.inner.timing.total_us() / base.timing.total_us()),
            ]);
        }
    }
    table.emit("e17_mesh");

    // ---- Batched DG-penetration sweep vs serial outer-loop re-solves ----
    // The amortization sweet spot mirrors E9's: a mid-size feeder where
    // per-launch overhead (not raw bus count) dominates the per-scenario
    // cost, swept over a large penetration family in one batched loop.
    let sweep_n = if smoke { 255 } else { 4095 };
    let n_scenarios = if smoke { 8 } else { 256 };
    let mut rng = rng_for(177);
    let sweep_tree = balanced_binary(sweep_n, &spec, &mut rng);
    let meshed = dg_feeder(&sweep_tree, 3, 4, &mut rng);
    let v0 = meshed.tree().source_voltage().abs();
    let scales: Vec<f64> =
        (0..n_scenarios).map(|s| 1.5 * s as f64 / (n_scenarios - 1) as f64).collect();

    let mut tbs = TensorBatchSolver::new(Device::paper_rig());
    let batch = solve_dg_batch(&mut tbs, &meshed, &scales, &cfg, &outer)
        .expect("modeled device does not fail");
    assert!(batch.converged(), "batched DG sweep worst: {}", batch.worst_status());

    let mut serial_total_us = 0.0;
    let parity_stride = (n_scenarios / 4).max(1);
    for (s, &dg) in scales.iter().enumerate() {
        let scen = scenario(&meshed, dg);
        let r = MeshSolver::new(SerialSolver::new(HostProps::paper_rig()))
            .with_outer(outer)
            .solve(&scen, &cfg);
        assert!(r.converged(), "scenario {s} (dg {dg:.2}): {}", r.status);
        serial_total_us += r.inner.timing.total_us();
        if s % parity_stride == 0 {
            assert_close(&batch.v[s], &r.inner.v, 1e-5 * v0, "batched vs serial scenario");
        }
    }
    let speedup = serial_total_us / batch.total_us;
    println!(
        "\nbatched DG sweep ({sweep_n}-bus feeder): {n_scenarios} penetration scenarios \
         (0–150% nameplate), {} outer rounds, {} in one batched loop vs {} serial — \
         {speedup:.1}x, {:.0} scenarios per modeled second",
        batch.outer_rounds,
        us(batch.total_us),
        us(serial_total_us),
        batch.scenarios_per_sec,
    );
    if smoke {
        assert!(speedup > 0.0, "smoke: batched sweep must produce a throughput figure");
    } else {
        assert!(
            speedup >= 10.0,
            "acceptance: batched DG sweep must be >=10x serial outer-loop re-solves, \
             got {speedup:.1}x"
        );
    }
}
