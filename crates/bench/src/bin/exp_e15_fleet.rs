//! E15 (extension) — fleet-level resilience: modeled throughput scaling
//! across devices, and answer-exact failover under mid-run device loss.
//!
//! Three phases over one feeder:
//!
//! * **Scaling** — a saturating burst is replayed against uniform fleets
//!   of 1..N devices. Requests are independent, so modeled throughput
//!   scales near-linearly; the run asserts ≥3× at 4 devices vs 1.
//! * **Chaos** — a heterogeneous 4-device fleet serves a busy stream
//!   while device 1 is scripted to die three attempts in a row (tripping
//!   its breaker) and then recover (the fleet's rejoin dispatches probe
//!   it back in). Every completed response must match the serial
//!   reference to 1e-9 V, zero requests may be lost, and the p99
//!   latency stays bounded relative to the healthy run.
//! * **Replay** — the chaos run is replayed with the same seeds and
//!   must reproduce byte-identical routing decisions and answers.
//!
//! Run: `cargo run -p fbs-bench --release --bin exp_e15_fleet`
//! (`E15_SMOKE=1` restricts the sweep for CI.)

use fbs::fleet::poisson_arrivals;
use fbs::{
    FleetConfig, FleetRequest, FleetResponse, FleetService, Outcome, Request, SerialSolver,
    SolverConfig,
};
use fbs_bench::{quantile, rng_for, Table};
use powergrid::gen::{balanced_binary, GenSpec};
use powergrid::RadialNetwork;
use simt::{FaultKind, FaultPlan, HostProps};

/// Latencies of the answered responses.
fn latencies(responses: &[FleetResponse]) -> Vec<f64> {
    responses.iter().filter(|r| r.answered()).map(|r| r.latency_us()).collect()
}

fn record_row(table: &mut Table, phase: &str, devices: usize, responses: &[FleetResponse], fleet: &FleetService) {
    let s = fleet.stats();
    let lat = latencies(responses);
    let makespan = responses.iter().map(|r| r.finish_us).fold(0.0f64, f64::max);
    let rps = if makespan > 0.0 { lat.len() as f64 / (makespan / 1e6) } else { 0.0 };
    table.row(&[
        &phase,
        &devices,
        &s.submitted,
        &s.served,
        &s.shed(),
        &s.failovers,
        &s.cpu_served,
        &s.hedges,
        &format!("{:.1}", quantile(&lat, 0.5)),
        &format!("{:.1}", quantile(&lat, 0.99)),
        &format!("{rps:.0}"),
    ]);
}

/// Saturating burst: everything arrives at t=0, the fleet drains it.
fn burst(net: &RadialNetwork, cfg: SolverConfig, reqs: usize) -> Vec<(f64, FleetRequest)> {
    (0..reqs)
        .map(|_| (0.0, FleetRequest::new(Request::Solve { net: net.clone(), cfg })))
        .collect()
}

/// Modeled requests/sec a `devices`-wide uniform fleet clears the burst at.
fn scaling_run(
    table: &mut Table,
    net: &RadialNetwork,
    cfg: SolverConfig,
    devices: usize,
    reqs: usize,
) -> f64 {
    let fcfg = FleetConfig { queue_capacity: reqs, ..FleetConfig::uniform(devices) };
    let mut fleet = FleetService::new(fcfg);
    let responses = fleet.run_stream(burst(net, cfg, reqs));
    assert_eq!(responses.len(), reqs, "{devices} devices: one response per request");
    assert!(responses.iter().all(|r| r.answered()), "{devices} devices: nothing sheds");
    let makespan = responses.iter().map(|r| r.finish_us).fold(0.0f64, f64::max);
    record_row(table, "scaling", devices, &responses, &fleet);
    reqs as f64 / (makespan / 1e6)
}

/// The scripted outage: device 1 dies at the start of its first three
/// attempts (enough to trip the default breaker threshold), then the
/// plan is exhausted and the device recovers — the fleet's rejoin
/// dispatches probe it back to a closed breaker.
fn outage() -> FaultPlan {
    FaultPlan::scripted((0..3).map(|k| (2 + 5 * k, FaultKind::DeviceLost { at_op: 0 })))
}

/// One chaos (or healthy) stream on a heterogeneous 4-device fleet.
fn hetero_run(
    net: &RadialNetwork,
    cfg: SolverConfig,
    reqs: usize,
    gap_us: f64,
    with_outage: bool,
) -> (Vec<FleetResponse>, FleetService) {
    let fcfg = FleetConfig { queue_capacity: reqs, ..FleetConfig::heterogeneous(4) };
    let mut fleet = FleetService::new(fcfg);
    if with_outage {
        fleet = fleet.with_fault_plan_on(1, outage());
    }
    let arrivals = poisson_arrivals(reqs, gap_us, fbs_bench::SEED, |_| {
        FleetRequest::new(Request::Solve { net: net.clone(), cfg })
    });
    let responses = fleet.run_stream(arrivals);
    (responses, fleet)
}

/// Canonical projection of a stream: every scheduler decision plus the
/// numerical answer, excluding only host wall-clock (recorded for
/// transparency, legitimately nondeterministic).
fn decisions(responses: &[FleetResponse]) -> String {
    responses
        .iter()
        .map(|r| {
            let v = match &r.outcome {
                Outcome::Solved(res) => format!("{:?}", res.v),
                other => format!("{other:?}"),
            };
            format!(
                "{} {:?} {} {} {} {} {} {:?} {v}",
                r.id, r.device, r.backend, r.start_us, r.finish_us, r.failovers, r.hedged, r.shed,
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    let spec = GenSpec::default();
    let smoke = std::env::var("E15_SMOKE").is_ok();
    let (n, scale_reqs, chaos_reqs) = if smoke { (255, 16, 24) } else { (1023, 48, 96) };

    let mut rng = rng_for(150 + n as u64);
    let net = balanced_binary(n, &spec, &mut rng);
    let cfg = SolverConfig::default();
    let serial = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);

    let mut table = Table::new(
        "E15: fleet scaling and chaos (uniform scaling burst; heterogeneous 4-device chaos with device 1 killed and rejoining)",
        &[
            "phase", "devices", "reqs", "served", "shed", "failover", "cpu", "hedges",
            "p50 µs", "p99 µs", "req/s",
        ],
    );

    // Phase 1: near-linear scaling on a saturating burst.
    let device_counts: &[usize] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let mut rps_at = std::collections::BTreeMap::new();
    for &d in device_counts {
        rps_at.insert(d, scaling_run(&mut table, &net, cfg, d, scale_reqs));
    }
    let speedup4 = rps_at[&4] / rps_at[&1];
    assert!(
        speedup4 >= 3.0,
        "4 devices must clear a saturating burst ≥3x faster than 1, got {speedup4:.2}x"
    );

    // Phase 2: healthy baseline, then the same stream under an outage.
    // Gap ≈ per-request service time of the 4-device fleet keeps it busy
    // without unbounded queueing.
    let gap_us = 1e6 / rps_at[&4];
    let (healthy, fleet_h) = hetero_run(&net, cfg, chaos_reqs, gap_us, false);
    record_row(&mut table, "healthy", 4, &healthy, &fleet_h);
    let (chaos, fleet_c) = hetero_run(&net, cfg, chaos_reqs, gap_us, true);
    record_row(&mut table, "chaos", 4, &chaos, &fleet_c);

    assert_eq!(chaos.len(), chaos_reqs, "zero lost requests under chaos");
    for r in &chaos {
        assert!(r.answered(), "request {} was shed despite a deep queue", r.id);
        let Outcome::Solved(res) = &r.outcome else {
            panic!("request {} ended {:?}", r.id, r.outcome)
        };
        assert!(res.converged(), "request {} did not converge", r.id);
        for (bus, (a, b)) in res.v.iter().zip(&serial.v).enumerate() {
            assert!(
                (a.abs() - b.abs()).abs() < 1e-9,
                "request {}, bus {bus}: |V| drifted {:e} from serial",
                r.id,
                (a.abs() - b.abs()).abs()
            );
        }
    }
    let d1 = fleet_c.device_stats(1);
    assert!(d1.breaker_opens >= 1, "the outage must trip device 1's breaker");
    assert!(
        d1.device_successes >= 1,
        "device 1 must rejoin and serve again after the outage script ends"
    );
    let p99_healthy = quantile(&latencies(&healthy), 0.99);
    let p99_chaos = quantile(&latencies(&chaos), 0.99);
    assert!(
        p99_chaos <= 5.0 * p99_healthy,
        "chaos p99 ({p99_chaos:.1} µs) must stay within 5x of healthy ({p99_healthy:.1} µs)"
    );

    // Phase 3: byte-identical replay of the chaos run.
    let (chaos2, _) = hetero_run(&net, cfg, chaos_reqs, gap_us, true);
    assert_eq!(
        decisions(&chaos), decisions(&chaos2),
        "same seeds and fault plan must replay byte-identically"
    );

    table.emit("e15_fleet");

    println!("\nscaling: 4 devices clear the burst {speedup4:.2}x faster than 1");
    println!(
        "chaos: device 1 tripped its breaker ({} opens) and rejoined ({} device successes);",
        d1.breaker_opens, d1.device_successes
    );
    println!(
        "all {chaos_reqs} responses match serial to 1e-9 V with zero lost, p99 {p99_chaos:.1} µs \
         vs healthy {p99_healthy:.1} µs"
    );
}
