//! E14 (extension) — N-1 contingency screening on the tensor engine:
//! screening throughput vs feeder size, warm-start vs cold iteration
//! counts, and parity against per-outage serial re-solves.
//!
//! Every single-line outage of a feeder is encoded as a per-scenario
//! topology patch (a DFS cut range plus one skipped child — a few words
//! per scenario) over the *shared* base tree, so all contingencies of a
//! 64K-bus feeder screen in **one** `TensorBatchSolver` run instead of
//! 64K rebuild-and-re-solve round trips. Warm-starting every
//! contingency from the base-case voltage profile (the screener solves
//! the base case once, serially) cuts the per-contingency iteration
//! count — the post-outage fixed point is near the base one everywhere
//! except under the lost subtree.
//!
//! Acceptance (full run, 64K-bus feeder):
//! * the full N-1 screen (65 535 outages) completes in one batched run
//!   and every contingency converges;
//! * a sampled set of outages matches per-outage serial re-solves
//!   (`TopologyDelta` apply → solve → revert) to 1e-9 V on energized
//!   buses, with de-energized buses reported at exactly 0;
//! * warm-started re-solves use strictly fewer iterations than cold on
//!   ≥ 90% of a paired 2 048-contingency sample; the warm/cold
//!   iteration medians are printed with the paired comparison.
//!
//! Run: `cargo run -p fbs-bench --release --bin exp_e14_contingency`
//! Smoke (CI): `E14_SMOKE=1 cargo run -p fbs-bench --release --bin exp_e14_contingency`

use fbs::{
    ContingencyOutcome, ContingencyScreener, ScenarioPatch, Scenarios, ScreeningReport,
    SerialSolver, SolverArrays, SolverConfig, TensorBatchSolver,
};
use fbs_bench::{eval_config, rng_for, us, Table};
use powergrid::gen::{balanced_binary, GenSpec};
use powergrid::{DfsOrder, RadialNetwork, TopologyDelta};
use simt::{Device, DeviceProps, HostProps};

/// Deterministic evenly-strided sample of `count` non-root buses.
fn sample_buses(net: &RadialNetwork, count: usize) -> Vec<usize> {
    let root = net.root();
    let all: Vec<usize> = (0..net.num_buses()).filter(|&b| b != root).collect();
    if count >= all.len() {
        return all;
    }
    (0..count).map(|k| all[k * all.len() / count]).collect()
}

fn median(mut xs: Vec<u32>) -> u32 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn screener() -> ContingencyScreener {
    ContingencyScreener::new(Device::new(DeviceProps::paper_rig()))
}

/// One table row for a finished screen.
fn row(table: &mut Table, n: usize, mode: &str, report: &ScreeningReport) {
    let iters: Vec<u32> = report.outcomes.iter().map(|o| o.iterations).collect();
    let max = iters.iter().copied().max().unwrap_or(0);
    table.row(&[
        &n,
        &report.outcomes.len(),
        &mode,
        &report.base_iterations,
        &median(iters),
        &max,
        &us(report.timing.total_us()),
        &format!("{:.0}", report.contingencies_per_sec),
    ]);
}

/// Sampled parity check: the batched patched solve (cold, state kept)
/// must match classical per-outage re-solves — `TopologyDelta::outage`
/// applied, solved serially, reverted — to `tol_v` volts on energized
/// buses, with de-energized buses reported at exactly 0.
fn assert_serial_parity(net: &RadialNetwork, cfg: &SolverConfig, buses: &[usize], tol_v: f64) {
    let patches: Vec<ScenarioPatch> = buses.iter().map(|&b| ScenarioPatch::outage(b)).collect();
    let mut tensor = TensorBatchSolver::new(Device::new(DeviceProps::paper_rig()));
    let dfs = DfsOrder::new(net);
    let scenarios = Scenarios::Patched { dfs: &dfs, patches: &patches, warm: None };
    let batched = tensor
        .try_solve(&SolverArrays::new(net), scenarios, cfg)
        .expect("the fault-free device cannot fail");

    let serial = SerialSolver::new(HostProps::paper_rig());
    let mut work = net.clone();
    let mut worst = 0.0f64;
    for (s, &bus) in buses.iter().enumerate() {
        let mut delta = TopologyDelta::outage(&work, bus).expect("valid outage");
        delta.apply(&mut work).expect("delta applies");
        let reference = serial.solve(&work, cfg);
        assert_eq!(
            batched.statuses[s], reference.status,
            "outage of bus {bus}: batched vs serial status"
        );
        assert_eq!(
            batched.per_scenario_iterations[s], reference.iterations,
            "outage of bus {bus}: batched vs serial iteration count"
        );
        let mut dead = vec![false; net.num_buses()];
        for &b in delta.isolated() {
            dead[b] = true;
        }
        for (b, &is_dead) in dead.iter().enumerate() {
            let v = batched.v[s][b];
            if is_dead {
                assert!(
                    v.abs() == 0.0,
                    "outage of bus {bus}: de-energized bus {b} reported |V| {}",
                    v.abs()
                );
            } else {
                let dv = (v - reference.v[b]).abs();
                worst = worst.max(dv);
                assert!(
                    dv < tol_v,
                    "outage of bus {bus}: bus {b} differs from the serial re-solve by {dv:.3e} V"
                );
            }
        }
        delta.revert(&mut work).expect("delta reverts");
    }
    println!(
        "parity: {} sampled outages match per-outage serial re-solves \
         (worst energized |dV| {worst:.3e} V, de-energized pinned at 0)",
        buses.len()
    );
}

fn main() {
    let smoke = std::env::var("E14_SMOKE").is_ok();
    let cfg_cold = eval_config();
    let cfg_warm = eval_config().with_warm_start();
    let spec = GenSpec::default();

    let sizes: &[usize] = if smoke { &[255] } else { &[4095, 16383, 65535] };
    let sweep_sample = 1024; // outages per size in the throughput sweep
    let paired_sample = if smoke { usize::MAX } else { 2048 };
    let parity_sample = if smoke { 4 } else { 24 };

    let mut table = Table::new(
        "E14: N-1 contingency screening, tensor-batched topology patches",
        &[
            "buses",
            "outages",
            "mode",
            "base iters",
            "med iters",
            "max iters",
            "batch total",
            "conting/s",
        ],
    );

    let mut headline = None;
    for (i, &n) in sizes.iter().enumerate() {
        let mut rng = rng_for(140 + i as u64);
        let net = balanced_binary(n, &spec, &mut rng);
        let full = i + 1 == sizes.len();

        // Throughput: warm screen — full N-1 at the headline size, an
        // evenly-strided sample at the smaller sweep sizes.
        let warm_report = if full {
            screener().screen(&net, &cfg_warm)
        } else {
            screener().screen_buses(&net, &sample_buses(&net, sweep_sample), &cfg_warm)
        };
        assert!(
            warm_report.all_converged(),
            "{n} buses: every warm-screened contingency must converge"
        );
        row(&mut table, n, if full { "warm-full" } else { "warm" }, &warm_report);

        if !full {
            continue;
        }

        // ---- Headline size: paired warm/cold comparison ----
        let sample = sample_buses(&net, paired_sample);
        let cold_report = screener().screen_buses(&net, &sample, &cfg_cold);
        assert!(cold_report.all_converged());
        row(&mut table, n, "cold-sample", &cold_report);

        let mut by_bus: Vec<Option<ContingencyOutcome>> = vec![None; net.num_buses()];
        for o in &warm_report.outcomes {
            by_bus[o.bus] = Some(*o);
        }
        let mut strictly_fewer = 0usize;
        let mut warm_iters = Vec::with_capacity(sample.len());
        let mut cold_iters = Vec::with_capacity(sample.len());
        for cold in &cold_report.outcomes {
            let warm = by_bus[cold.bus].expect("full screen covers the sample");
            warm_iters.push(warm.iterations);
            cold_iters.push(cold.iterations);
            if warm.iterations < cold.iterations {
                strictly_fewer += 1;
            }
        }
        let warm_med = median(warm_iters);
        let cold_med = median(cold_iters);
        println!(
            "warm vs cold on {} paired contingencies: strictly fewer iterations on {} \
             ({:.1}%), medians {warm_med} vs {cold_med}",
            sample.len(),
            strictly_fewer,
            100.0 * strictly_fewer as f64 / sample.len() as f64,
        );
        if smoke {
            assert!(
                warm_med <= cold_med,
                "warm median {warm_med} must not exceed cold median {cold_med}"
            );
        } else {
            assert!(
                strictly_fewer * 10 >= sample.len() * 9,
                "acceptance: warm must use strictly fewer iterations than cold on >=90% \
                 of contingencies ({strictly_fewer}/{})",
                sample.len()
            );
        }
        headline = Some((warm_report.outcomes.len(), warm_report.contingencies_per_sec));

        // ---- Parity against classical per-outage re-solves ----
        assert_serial_parity(&net, &cfg_cold, &sample_buses(&net, parity_sample), 1e-9);
    }

    table.emit("e14_contingency");
    if let Some((outages, cps)) = headline {
        println!(
            "\nfull N-1 screen: {outages} contingencies in one batched run, \
             {cps:.0} contingencies per modeled second."
        );
    }
}
