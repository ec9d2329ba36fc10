//! The paper's evaluation claims, encoded as tests on the calibrated
//! models (small-to-mid sizes so the suite stays fast; the full-scale
//! numbers live in the `fbs-bench` experiment binaries).

use fbs::{BackwardStrategy, GpuSolver, SerialSolver, SolverConfig};
use powergrid::gen::{balanced_binary, chain, star, GenSpec};
use powergrid::LevelOrder;
use rng::rngs::StdRng;
use rng::SeedableRng;
use simt::{Device, DeviceProps, HostProps};

/// The paper's level-launch path, pinned: every claim here is about it.
fn level_gpu() -> GpuSolver {
    GpuSolver::with_strategy(
        Device::with_workers(DeviceProps::paper_rig(), 2),
        BackwardStrategy::SegScan,
    )
}

fn solve_pair(n: usize, seed: u64) -> (f64, f64, f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = balanced_binary(n, &GenSpec::default(), &mut rng);
    let cfg = SolverConfig::default();
    let s = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
    let mut gpu = level_gpu();
    let g = gpu.solve(&net, &cfg);
    assert!(s.converged() && g.converged());
    (
        s.timing.total_us(),
        g.timing.total_us(),
        s.timing.phases.sweep_us(),
        g.timing.sweep_kernel_us(),
    )
}

/// Abstract: "for the parts of the computation that entirely run on the
/// GPU, larger speedups are achieved as the size of the distribution
/// tree increases."
#[test]
fn kernel_only_speedup_grows_with_tree_size() {
    let mut last = 0.0;
    for (i, n) in [1024usize, 4096, 16_384, 65_536].into_iter().enumerate() {
        let (_, _, s_sweep, g_sweep) = solve_pair(n, 1000 + i as u64);
        let x = s_sweep / g_sweep;
        assert!(
            x > last,
            "sweep speedup must grow with n: {x:.4} at n={n} (prev {last:.4})"
        );
        last = x;
    }
}

/// Small trees are launch/transfer-bound: the GPU must *lose* at 1K —
/// the honest flip side of the paper's scaling claim.
#[test]
fn small_trees_favor_the_cpu() {
    let (s_total, g_total, _, _) = solve_pair(1024, 11);
    assert!(
        g_total > 5.0 * s_total,
        "1K-bus trees must be launch-overhead-bound on the GPU: {s_total:.1} vs {g_total:.1}"
    );
}

/// Total speedup improves monotonically over the paper's size range.
#[test]
fn total_speedup_is_monotone_in_size() {
    let mut last = 0.0;
    for (i, n) in [2048usize, 8192, 32_768].into_iter().enumerate() {
        let (s_total, g_total, _, _) = solve_pair(n, 2000 + i as u64);
        let x = s_total / g_total;
        assert!(x > last, "total speedup must grow: {x:.4} at n={n}");
        last = x;
    }
}

/// Topology claim: at fixed n, the GPU ranking follows mean level width
/// (star > binary > chain).
#[test]
fn topology_ordering_matches_mean_level_width() {
    let n = 8192;
    let spec = GenSpec::default();
    let cfg = SolverConfig::default();
    let mut results = Vec::new();
    for (name, net) in [
        ("chain", chain(n, &spec, &mut StdRng::seed_from_u64(31))),
        ("binary", balanced_binary(n, &spec, &mut StdRng::seed_from_u64(32))),
        ("star", star(n, &spec, &mut StdRng::seed_from_u64(33))),
    ] {
        let levels = LevelOrder::new(&net);
        let s = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
        let mut gpu = level_gpu();
        let g = gpu.solve(&net, &cfg);
        assert!(s.converged() && g.converged(), "{name}");
        // Per-iteration GPU time normalises away iteration-count noise.
        let per_iter = g.timing.phases.sweep_us() / g.iterations as f64;
        results.push((name, levels.mean_level_width(), per_iter));
    }
    // Wider mean level → cheaper GPU iteration.
    assert!(results[0].1 < results[1].1 && results[1].1 < results[2].1);
    assert!(
        results[0].2 > results[1].2 && results[1].2 > results[2].2,
        "per-iteration GPU time must fall as mean level width grows: {results:?}"
    );
}

/// The breakdown mechanism: transfers take a growing *absolute* time but
/// the backward sweep stays the dominant kernel phase on binary trees.
#[test]
fn backward_sweep_dominates_kernel_time_on_binary_trees() {
    let mut rng = StdRng::seed_from_u64(55);
    let net = balanced_binary(16_384, &GenSpec::default(), &mut rng);
    let mut gpu = level_gpu();
    let g = gpu.solve(&net, &SolverConfig::default());
    let p = g.timing.phases;
    assert!(p.backward_us > p.forward_us, "backward does strictly more launches than forward");
    assert!(p.backward_us > p.injection_us);
    assert!(p.backward_us > p.convergence_us);
}
