//! E4 — how tree topology affects the GPU speedup (the abstract's
//! "discussion on how the topology of the tree would affect the
//! results"), quantified.
//!
//! Fixed bus count (64K), sweeping topology from the deepest (chain)
//! to the shallowest (star). The governing quantity is the *mean level
//! width* `n / depth`: each level costs at least one kernel launch, so
//! narrow-deep trees are launch-overhead-bound while wide-shallow trees
//! amortise launches over big grids.
//!
//! Run: `cargo run -p fbs-bench --release --bin exp_e4_topology`

use fbs::{BackwardStrategy, GpuSolver, SerialSolver};
use fbs_bench::{eval_config, rng_for, speedup, us, validate_or_die, Table};
use powergrid::gen::{
    balanced_binary, balanced_kary, broom, caterpillar, chain, random_tree, star, GenSpec,
};
use powergrid::{LevelOrder, RadialNetwork};
use simt::{Device, HostProps};

const N: usize = 65_536;

fn main() {
    let cfg = eval_config();
    let spec = GenSpec::default();

    let topologies: Vec<(&str, RadialNetwork)> = vec![
        ("chain", chain(N, &spec, &mut rng_for(40))),
        ("caterpillar(x4)", caterpillar(N, 3, &spec, &mut rng_for(41))),
        ("random(w=8)", random_tree(N, 8, &spec, &mut rng_for(42))),
        ("binary", balanced_binary(N, &spec, &mut rng_for(43))),
        ("4-ary", balanced_kary(N, 4, &spec, &mut rng_for(44))),
        ("16-ary", balanced_kary(N, 16, &spec, &mut rng_for(45))),
        ("broom(1Kx64)", broom(N, 1024, &spec, &mut rng_for(46))),
        ("star", star(N, &spec, &mut rng_for(47))),
    ];

    let mut table = Table::new(
        "E4: Topology sensitivity at 64K buses",
        &["topology", "levels", "mean width", "iters", "serial", "gpu", "speedup"],
    );

    for (name, net) in &topologies {
        let levels = LevelOrder::new(net);
        let serial = SerialSolver::new(HostProps::paper_rig()).solve(net, &cfg);
        validate_or_die(net, &serial, name);
        let mut gpu = GpuSolver::with_strategy(Device::paper_rig(), BackwardStrategy::SegScan);
        let par = gpu.solve(net, &cfg);
        validate_or_die(net, &par, name);

        let x = serial.timing.total_us() / par.timing.total_us();
        table.row(&[
            name,
            &levels.num_levels(),
            &format!("{:.1}", levels.mean_level_width()),
            &par.iterations,
            &us(serial.timing.total_us()),
            &us(par.timing.total_us()),
            &speedup(x),
        ]);
    }

    table.emit("e4_topology");
    println!("\nwider mean levels → better GPU speedup; a 64K chain is pure launch overhead.");
}
