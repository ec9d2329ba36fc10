//! E10 (extension) — device-sensitivity sweep: how the E1 headline
//! depends on which GPU class runs the kernels.
//!
//! The paper reports one unnamed GPU. Because our substrate is a
//! parameterised model, we can re-run the 256K-bus headline on several
//! documented device classes and show how the total speedup moves with
//! SM count, bandwidth and interconnect — the sensitivity analysis a
//! reader needs to transfer the paper's 3.9× to their own hardware.
//!
//! Run: `cargo run -p fbs-bench --release --bin exp_e10_devices`

use fbs::{BackwardStrategy, GpuSolver, SerialSolver};
use fbs_bench::{eval_config, rng_for, speedup, us, validate_or_die, Table};
use powergrid::gen::{balanced_binary, GenSpec};
use simt::{Device, DeviceProps, HostProps};

fn main() {
    let cfg = eval_config();
    let spec = GenSpec::default();
    let mut rng = rng_for(100);
    let net = balanced_binary(262_144, &spec, &mut rng);

    let serial = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
    validate_or_die(&net, &serial, "serial");
    let s_us = serial.timing.total_us();

    let devices = [
        DeviceProps::jetson_tx2(),
        DeviceProps::gtx_1060(),
        DeviceProps::paper_rig(),
        DeviceProps::gtx_1080_ti(),
    ];

    let mut table = Table::new(
        "E10: Device sensitivity at 256K buses (vs one fixed CPU model)",
        &["device", "SMs", "GB/s", "launch µs", "gpu total", "total speedup", "kernel speedup"],
    );
    for props in devices {
        let name = props.name;
        let (sms, bw, launch) = (props.num_sms, props.mem_bandwidth_gbps, props.launch_overhead_us);
        let mut gpu = GpuSolver::with_strategy(Device::new(props), BackwardStrategy::SegScan);
        let res = gpu.solve(&net, &cfg);
        validate_or_die(&net, &res, name);
        table.row(&[
            &name,
            &sms,
            &bw,
            &launch,
            &us(res.timing.total_us()),
            &speedup(s_us / res.timing.total_us()),
            &speedup(serial.timing.phases.sweep_us() / res.timing.sweep_kernel_us()),
        ]);
    }

    table.emit("e10_devices");
    println!("\nthe headline factor is a property of the CPU/GPU pairing, not of the algorithm.");
}
