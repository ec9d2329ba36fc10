//! The paper's topology discussion as a runnable study: how the shape of
//! a 16K-bus distribution tree decides whether the GPU helps. The GPU
//! solver is pinned to the paper's level-launch path.
//!
//! Run: `cargo run --release --example topology_study`

use fbs::{BackwardStrategy, GpuSolver, SerialSolver, SolverConfig};
use powergrid::gen::{balanced_binary, balanced_kary, caterpillar, chain, random_tree, star, GenSpec};
use powergrid::{LevelOrder, RadialNetwork};
use rng::rngs::StdRng;
use rng::SeedableRng;
use simt::{Device, DeviceProps, HostProps};

const N: usize = 16_384;

fn main() {
    let spec = GenSpec::default();
    let cfg = SolverConfig::default();
    let mut rng = StdRng::seed_from_u64(2020);

    let cases: Vec<(&str, RadialNetwork)> = vec![
        ("chain (feeder w/o laterals)", chain(N, &spec, &mut rng)),
        ("caterpillar (trunk + laterals)", caterpillar(N, 3, &spec, &mut rng)),
        ("random attachment", random_tree(N, 8, &spec, &mut rng)),
        ("balanced binary (paper)", balanced_binary(N, &spec, &mut rng)),
        ("balanced 8-ary", balanced_kary(N, 8, &spec, &mut rng)),
        ("star (all on substation)", star(N, &spec, &mut rng)),
    ];

    println!(
        "{:<32} {:>7} {:>11} {:>12} {:>12} {:>9}",
        "topology", "levels", "mean width", "serial (µs)", "gpu (µs)", "speedup"
    );
    for (name, net) in &cases {
        let levels = LevelOrder::new(net);
        let s = SerialSolver::new(HostProps::paper_rig()).solve(net, &cfg);
        let mut gpu = GpuSolver::with_strategy(
            Device::new(DeviceProps::paper_rig()),
            BackwardStrategy::SegScan,
        );
        let g = gpu.solve(net, &cfg);
        assert!(s.converged() && g.converged(), "{name}");
        println!(
            "{:<32} {:>7} {:>11.1} {:>12.1} {:>12.1} {:>8.2}x",
            name,
            levels.num_levels(),
            levels.mean_level_width(),
            s.timing.total_us(),
            g.timing.total_us(),
            s.timing.total_us() / g.timing.total_us()
        );
    }

    println!(
        "\nEvery level costs at least one kernel launch: depth ≈ launches, width ≈ parallelism.\n\
         The GPU wins exactly when mean level width is large — the paper's topology point."
    );
}
