//! Hosting-capacity study: how much *additional* load each candidate bus
//! of a feeder can host before the worst voltage violates ANSI C84.1's
//! 0.95 pu floor — evaluated with the batched GPU solver (every candidate
//! size for every candidate bus in a handful of batch calls).
//!
//! Run: `cargo run --release --example hosting_capacity`

use fbs::{SolverArrays, SolverConfig, TensorBatchSolver};
use numc::{c, Complex};
use powergrid::ieee::ieee37;
use powergrid::{LevelOrder, RadialNetwork};
use simt::{Device, DeviceProps};

const V_FLOOR_PU: f64 = 0.95;
/// Candidate additional load sizes (per-phase kW, at 0.95 pf).
const SIZES_KW: [f64; 8] = [50.0, 100.0, 150.0, 200.0, 300.0, 400.0, 600.0, 800.0];

fn scenario(net: &RadialNetwork, bus: usize, kw: f64) -> Vec<Complex> {
    let extra = c(kw * 1e3, kw * 1e3 * 0.33); // 0.95 pf lagging
    net.buses()
        .iter()
        .enumerate()
        .map(|(b, x)| if b == bus { x.load + extra } else { x.load })
        .collect()
}

fn main() {
    // Planning case: the feeder at 60% of peak (capacity is evaluated
    // against the off-peak margin, as hosting studies do).
    let mut net = ieee37();
    net.scale_loads(0.6);
    let cfg = SolverConfig::default();
    let v0 = net.source_voltage().abs();
    let levels = LevelOrder::new(&net);

    // Candidates: the feeder's leaf buses (where new customers connect).
    let candidates: Vec<usize> =
        (0..net.num_buses()).filter(|&b| levels.children(levels.pos_of[b] as usize).is_empty()).collect();

    println!(
        "hosting capacity on the IEEE-37-style feeder ({} buses, {} leaf candidates, floor {V_FLOOR_PU} pu)\n",
        net.num_buses(),
        candidates.len()
    );

    let arrays = SolverArrays::new(&net);
    let mut solver = TensorBatchSolver::new(Device::new(DeviceProps::paper_rig()));
    let mut total_modeled_us = 0.0;
    println!("{:>5} {:>14} {:>14}", "bus", "capacity (kW)", "min |V| at cap");

    for &bus in &candidates {
        // One batch call evaluates every candidate size at this bus.
        let scenarios: Vec<Vec<Complex>> =
            SIZES_KW.iter().map(|&kw| scenario(&net, bus, kw)).collect();
        let res = solver.solve_arrays(&arrays, &scenarios, &cfg);
        total_modeled_us += res.timing.total_us();

        // Largest size whose worst voltage stays above the floor.
        let mut best: Option<(f64, f64)> = None;
        for (k, &kw) in SIZES_KW.iter().enumerate() {
            let min_pu = res.v[k].iter().map(|v| v.abs()).fold(f64::INFINITY, f64::min) / v0;
            if res.converged() && min_pu >= V_FLOOR_PU {
                best = Some((kw, min_pu));
            }
        }
        match best {
            Some((kw, pu)) => println!("{bus:>5} {kw:>14.0} {pu:>14.4}"),
            None => println!("{bus:>5} {:>14} {:>14}", "< 50", "-"),
        }
    }

    println!(
        "\n{} batched solves ({} scenarios each): {:.1} ms modeled device time total",
        candidates.len(),
        SIZES_KW.len(),
        total_modeled_us / 1e3
    );
}
