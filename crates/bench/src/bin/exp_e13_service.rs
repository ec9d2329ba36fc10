//! E13 (extension) — the robustness service under load and under fault
//! pressure: backpressure, load shedding, and circuit-breaker behavior.
//!
//! Two sweeps over the same feeder:
//!
//! * **Overload** — a modeled-time arrival stream is pushed through the
//!   single-server admission queue at multiples of the service rate.
//!   Below saturation nothing is shed; past it the bounded queue sheds
//!   with `Rejected{queue_depth}` and throughput plateaus at the
//!   service rate instead of collapsing.
//! * **Fault pressure** — a seeded per-op fault plan runs underneath a
//!   sequential request stream. Low rates are absorbed by in-solve
//!   recovery and service retries; saturating rates trip the circuit
//!   breaker, which routes requests to the CPU fallback and re-admits
//!   the device through half-open probes.
//!
//! Run: `cargo run -p fbs-bench --release --bin exp_e13_service`
//! (`E13_SMOKE=1` restricts the sweep for CI.)

use fbs::{Backend, Outcome, Request, ServiceConfig, SolveService, SolverConfig};
use fbs_bench::{rng_for, Table};
use powergrid::gen::{balanced_binary, GenSpec};
use powergrid::RadialNetwork;
use simt::{DeviceProps, FaultPlan, HostProps};

/// Overload factors: arrival rate as a multiple of the service rate.
const LOADS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
/// Per-op fault rates for the breaker sweep.
const FAULT_RATES: [f64; 4] = [0.0, 1e-4, 1e-3, 1.0];

fn service(backend: Backend, plan: Option<FaultPlan>) -> SolveService {
    let cfg = ServiceConfig {
        backend,
        queue_capacity: 8,
        max_retries: 1,
        breaker_threshold: 2,
        breaker_probe_after: 3,
        ..ServiceConfig::default()
    };
    let mut svc = SolveService::new(cfg, DeviceProps::paper_rig(), HostProps::paper_rig());
    if let Some(plan) = plan {
        svc = svc.with_fault_plan(plan);
    }
    svc
}

#[allow(clippy::too_many_arguments)]
fn record(
    table: &mut Table,
    phase: &str,
    n: usize,
    load: &str,
    rate: &str,
    reqs: usize,
    svc: &SolveService,
) {
    let s = svc.stats();
    table.row(&[
        &phase,
        &n,
        &load,
        &rate,
        &reqs,
        &s.served,
        &s.shed,
        &format!("{:.0}%", 100.0 * s.shed as f64 / reqs as f64),
        &s.peak_queue_depth,
        &s.device_successes,
        &s.fallback_served,
        &s.retries,
        &s.breaker_opens,
        &s.breaker_closes,
    ]);
}

/// Runs the overload sweep at multiples of the calibrated per-request
/// modeled service time.
fn overload_sweep(table: &mut Table, net: &RadialNetwork, n: usize, reqs: usize) {
    let cfg = SolverConfig::default();
    // Calibrate the modeled service time with one clean solve.
    let mut probe = service(Backend::Gpu, None);
    probe.submit(Request::Solve { net: net.clone(), cfg }).expect("empty queue admits");
    let service_us = probe.process_one().expect("queued").service_us();

    for &load in &LOADS {
        let spacing = service_us / load;
        let arrivals: Vec<(f64, Request)> = (0..reqs)
            .map(|k| (k as f64 * spacing, Request::Solve { net: net.clone(), cfg }))
            .collect();
        let mut svc = service(Backend::Gpu, None);
        let responses = svc.run_stream(arrivals);
        assert_eq!(responses.len(), reqs, "every request gets a response");
        let shed = responses
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Rejected { .. }))
            .count() as u64;
        assert_eq!(shed, svc.stats().shed, "responses and stats must agree");
        if load <= 1.0 {
            assert_eq!(shed, 0, "no shedding below saturation (load {load})");
        }
        record(table, "overload", n, &format!("{load:.1}x"), "0", reqs, &svc);
    }
}

fn fault_sweep(table: &mut Table, net: &RadialNetwork, n: usize, reqs: usize) {
    let cfg = SolverConfig::default();
    for &rate in &FAULT_RATES {
        let plan = FaultPlan::seeded(fbs_bench::SEED, rate);
        let mut svc = service(Backend::Gpu, Some(plan));
        for _ in 0..reqs {
            svc.submit(Request::Solve { net: net.clone(), cfg }).expect("sequential submits fit");
            let resp = svc.process_one().expect("queued request is served");
            let status = resp.status().expect("solve requests carry a status");
            assert!(!status.is_failure(), "rate {rate}: request failed with {status}");
        }
        record(table, "faults", n, "seq", &format!("{rate:.0e}"), reqs, &svc);
    }
}

fn main() {
    let spec = GenSpec::default();
    let smoke = std::env::var("E13_SMOKE").is_ok();
    let (n, reqs) = if smoke { (255, 12) } else { (1023, 48) };

    let mut rng = rng_for(130 + n as u64);
    let net = balanced_binary(n, &spec, &mut rng);

    let mut table = Table::new(
        "E13: robustness service under overload and fault pressure (queue 8, retries 1, breaker threshold 2)",
        &[
            "phase", "buses", "load", "rate/op", "reqs", "served", "shed", "shed%", "peak q",
            "device", "fallback", "retries", "brk open", "brk close",
        ],
    );

    overload_sweep(&mut table, &net, n, reqs);
    fault_sweep(&mut table, &net, n, reqs);

    table.emit("e13_service");
    println!("\nbelow saturation the queue absorbs bursts and nothing is shed;");
    println!("past it the service sheds at admission instead of growing the queue.");
    println!("saturating fault rates open the breaker: requests keep being answered");
    println!("by the CPU fallback while half-open probes test the device.");
}
