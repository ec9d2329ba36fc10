//! E8 (extension) — fixing the paper's deep-tree pathology.
//!
//! The paper's topology discussion observes that deep trees defeat the
//! level-synchronous method (launch overhead × depth). This experiment
//! quantifies the fix built in `fbs::JumpSolver`: a fused prefix-scan
//! backward sweep over preorder plus pointer-jumping forward sweep —
//! O(log depth) launches per iteration instead of O(depth).
//!
//! Run: `cargo run -p fbs-bench --release --bin exp_e8_deep_trees`

use fbs::{BackwardStrategy, GpuSolver, JumpSolver, SerialSolver};
use fbs_bench::{eval_config, rng_for, speedup, us, validate_or_die, Table};
use powergrid::gen::{balanced_binary, caterpillar, chain, GenSpec};
use powergrid::{LevelOrder, RadialNetwork};
use simt::{Device, DeviceProps, HostProps};

fn main() {
    let cfg = eval_config();
    let spec = GenSpec::default();

    let cases: Vec<(&str, RadialNetwork)> = vec![
        ("chain 4K", chain(4096, &spec, &mut rng_for(80))),
        ("chain 16K", chain(16_384, &spec, &mut rng_for(81))),
        ("chain 64K", chain(65_536, &spec, &mut rng_for(82))),
        ("caterpillar 64K", caterpillar(65_536, 3, &spec, &mut rng_for(83))),
        ("binary 64K", balanced_binary(65_536, &spec, &mut rng_for(84))),
        ("binary 256K", balanced_binary(262_144, &spec, &mut rng_for(85))),
    ];

    let mut table = Table::new(
        "E8: Level-synchronous vs depth-insensitive (jump) GPU solver",
        &["topology", "depth", "serial", "level gpu", "jump gpu", "jump vs level", "jump vs serial"],
    );

    for (name, net) in &cases {
        let depth = LevelOrder::new(net).num_levels() - 1;
        let serial = SerialSolver::new(HostProps::paper_rig()).solve(net, &cfg);
        validate_or_die(net, &serial, name);

        let mut level = GpuSolver::with_strategy(Device::paper_rig(), BackwardStrategy::SegScan);
        let lv = level.solve(net, &cfg);
        validate_or_die(net, &lv, name);

        let mut jump = JumpSolver::new(Device::new(DeviceProps::paper_rig()));
        let jp = jump.solve(net, &cfg);
        validate_or_die(net, &jp, name);

        table.row(&[
            name,
            &depth,
            &us(serial.timing.total_us()),
            &us(lv.timing.total_us()),
            &us(jp.timing.total_us()),
            &speedup(lv.timing.total_us() / jp.timing.total_us()),
            &speedup(serial.timing.total_us() / jp.timing.total_us()),
        ]);
    }

    table.emit("e8_deep_trees");
    println!("\nthe jump solver is topology-insensitive: chains now cost the same order as balanced trees.");
}
