//! E7 — design-choice ablations the paper's discussion motivates:
//!
//! 1. **Backward-sweep strategy**: segmented scan (the paper's pattern)
//!    vs a direct per-parent child loop, on low- and high-fan-out trees.
//! 2. **Multicore CPU**: how much of the GPU win plain host parallelism
//!    would have delivered (level-parallel, 8 modeled cores).
//!
//! Run: `cargo run -p fbs-bench --release --bin exp_e7_ablation`

use fbs::{BackwardStrategy, GpuSolver, MulticoreSolver, SerialSolver};
use fbs_bench::{eval_config, rng_for, speedup, us, validate_or_die, Table};
use powergrid::gen::{balanced_binary, balanced_kary, star, GenSpec};
use powergrid::RadialNetwork;
use simt::{Device, DeviceProps, HostProps};

fn gpu_with(strategy: BackwardStrategy) -> GpuSolver {
    GpuSolver::with_strategy(Device::new(DeviceProps::paper_rig()), strategy)
}

fn main() {
    let cfg = eval_config();
    let spec = GenSpec::default();

    // --- Part 1: backward-sweep strategy vs fan-out ---
    let nets: Vec<(&str, RadialNetwork)> = vec![
        ("binary 64K", balanced_binary(65_536, &spec, &mut rng_for(70))),
        ("16-ary 64K", balanced_kary(65_536, 16, &spec, &mut rng_for(71))),
        ("256-ary 64K", balanced_kary(65_536, 256, &spec, &mut rng_for(72))),
        ("star 64K", star(65_536, &spec, &mut rng_for(73))),
    ];
    let mut t1 = Table::new(
        "E7a: Backward-sweep strategy ablation (backward-phase modeled time)",
        &["topology", "segscan", "direct", "atomic scatter", "segscan vs direct", "segscan vs atomic"],
    );
    for (name, net) in &nets {
        let seg = gpu_with(BackwardStrategy::SegScan).solve(net, &cfg);
        let dir = gpu_with(BackwardStrategy::Direct).solve(net, &cfg);
        let at = gpu_with(BackwardStrategy::AtomicScatter).solve(net, &cfg);
        validate_or_die(net, &seg, name);
        validate_or_die(net, &dir, name);
        validate_or_die(net, &at, name);
        let a = seg.timing.phases.backward_us;
        let b = dir.timing.phases.backward_us;
        let c = at.timing.phases.backward_us;
        t1.row(&[name, &us(a), &us(b), &us(c), &speedup(b / a), &speedup(c / a)]);
    }
    t1.emit("e7a_backward_strategy");

    // --- Part 2: multicore CPU vs GPU across sizes ---
    let mut t2 = Table::new(
        "E7b: Serial vs 8-core CPU vs GPU (balanced binary trees)",
        &["buses", "serial", "8-core cpu", "gpu", "cpu8 speedup", "gpu speedup"],
    );
    for &n in &[4096usize, 32_768, 262_144] {
        let mut rng = rng_for(74);
        let net = balanced_binary(n, &spec, &mut rng);
        let s = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
        let m = MulticoreSolver::new(HostProps::paper_rig(), 8).solve(&net, &cfg);
        let mut gpu = GpuSolver::with_strategy(Device::paper_rig(), BackwardStrategy::SegScan);
        let g = gpu.solve(&net, &cfg);
        validate_or_die(&net, &m, "multicore");
        validate_or_die(&net, &g, "gpu");
        let st = s.timing.total_us();
        t2.row(&[
            &n,
            &us(st),
            &us(m.timing.total_us()),
            &us(g.timing.total_us()),
            &speedup(st / m.timing.total_us()),
            &speedup(st / g.timing.total_us()),
        ]);
    }
    t2.emit("e7b_multicore");
    println!("\nsegscan's advantage grows with fan-out; multicore closes part of the gap at mid sizes.");
}
