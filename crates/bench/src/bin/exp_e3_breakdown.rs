//! E3 — per-phase breakdown of the GPU solve versus tree size.
//!
//! The figure behind E1/E2: where the GPU time goes (upload, injection,
//! backward sweep, forward sweep, convergence, download) as the tree
//! grows. Shows transfers and launch overhead dominating small trees and
//! amortising at scale — the mechanism of the abstract's scaling claim.
//!
//! Run: `cargo run -p fbs-bench --release --bin exp_e3_breakdown`

use fbs::{BackwardStrategy, GpuSolver};
use fbs_bench::{eval_config, rng_for, us, validate_or_die, Table, PAPER_SIZES};
use powergrid::gen::{balanced_binary, GenSpec};
use simt::Device;

fn main() {
    let cfg = eval_config();
    let spec = GenSpec::default();
    let mut table = Table::new(
        "E3: GPU time breakdown per phase (balanced binary trees)",
        &[
            "buses",
            "upload",
            "inject",
            "backward",
            "forward",
            "converge",
            "download",
            "total",
            "transfer %",
        ],
    );

    for &n in &PAPER_SIZES {
        let mut rng = rng_for(3);
        let net = balanced_binary(n, &spec, &mut rng);
        let mut gpu = GpuSolver::with_strategy(Device::paper_rig(), BackwardStrategy::SegScan);
        let res = gpu.solve(&net, &cfg);
        validate_or_die(&net, &res, "gpu");

        let p = res.timing.phases;
        let pct = 100.0 * res.timing.transfer_us / res.timing.total_us();
        table.row(&[
            &n,
            &us(p.setup_us),
            &us(p.injection_us),
            &us(p.backward_us),
            &us(p.forward_us),
            &us(p.convergence_us),
            &us(p.teardown_us),
            &us(p.total_us()),
            &format!("{pct:.1}%"),
        ]);
    }

    table.emit("e3_breakdown");
}
