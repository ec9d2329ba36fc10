//! E16 (extension) — compound-fault chaos soak: a storm schedule drives
//! corruption bursts, a load-correlated corruption ramp, and a
//! cross-device correlated kill against a 4-device fleet while the
//! integrity layer (checked transfers + shadow sampler) must catch
//! every induced corruption.
//!
//! Three phases over one feeder:
//!
//! * **Calm** — the request stream runs with no storm to fix a
//!   throughput and latency baseline.
//! * **Storm** — the same stream re-runs under a [`StormSchedule`]:
//!   a corruption burst, a rising corruption-under-load ramp, and a
//!   correlated kill of devices 1 and 2 (a rack-event analog). The run
//!   asserts the four soak invariants:
//!   1. *Conservation* — every submitted request is answered or shed,
//!      exactly once (`answered + shed == submitted`).
//!   2. *Parity* — every answered single solve matches the serial
//!      oracle to 1e-9 V; the shadow sampler independently re-verifies
//!      a deterministic 1-in-K sample (batches included) and must see
//!      zero mismatches — i.e. **zero undetected corruptions**.
//!   3. *Detection* — the CRC net actually fires: at least one
//!      storm-induced transfer corruption is detected (and retried)
//!      rather than crashing or silently landing.
//!   4. *Recovery* — both killed devices rejoin and serve again after
//!      the kill window.
//! * **Replay** — the storm run re-runs with identical seeds and must
//!   reproduce byte-identical scheduler decisions and answers.
//!
//! Run: `cargo run -p fbs-bench --release --bin exp_e16_soak`
//! (`E16_SMOKE=1` restricts the soak for CI.)

use fbs::fleet::poisson_arrivals;
use fbs::{
    FleetConfig, FleetRequest, FleetResponse, FleetService, IntegrityConfig, IntegritySampler,
    Outcome, Request, SerialSolver, ServiceConfig, SolverConfig,
};
use fbs_bench::{quantile, rng_for, Table};
use powergrid::gen::{balanced_binary, GenSpec};
use powergrid::RadialNetwork;
use simt::{HostProps, StormSchedule};

/// Latencies of the answered responses.
fn latencies(responses: &[FleetResponse]) -> Vec<f64> {
    responses.iter().filter(|r| r.answered()).map(|r| r.latency_us()).collect()
}

/// Corruptions caught by checked transfers across every answered
/// response (solve and batch alike). Every count here was *detected* —
/// an undetected corruption never reaches a fault report; it can only
/// surface as a shadow-sampler mismatch.
fn detected_corruptions(responses: &[FleetResponse]) -> u64 {
    responses
        .iter()
        .map(|r| match &r.outcome {
            Outcome::Solved(res) => {
                res.fault_report.as_ref().map_or(0, |fr| u64::from(fr.corruptions_detected))
            }
            Outcome::Batch(res) => {
                res.fault_report.as_ref().map_or(0, |fr| u64::from(fr.corruptions_detected))
            }
            _ => 0,
        })
        .sum()
}

/// The compound storm: an early corruption burst, a long
/// corruption-under-load ramp, and a correlated kill of devices 1 and 2
/// between them. The windows sit in each device's op-space, sized for
/// the fused sweep the fleet's single solves take (about an eighth of
/// the level path's device ops per solve on this feeder). The kill
/// window is narrow because a dead device consumes exactly one plan op
/// per attempt — wide enough to trip both breakers, short enough that
/// the rejoin probes land past it.
fn storm() -> StormSchedule {
    StormSchedule::new(fbs_bench::SEED ^ 0xE16)
        .with_burst(19, 312, 0.04)
        .with_corruption_ramp(500, 625, 0.06)
        .with_correlated_kill(375, 387, [1, 2])
}

/// The mixed request stream: mostly single solves with a batch every
/// sixth request (batches exercise the checked mask upload and the
/// chunk-retry corruption accounting).
fn arrivals(
    net: &RadialNetwork,
    cfg: SolverConfig,
    reqs: usize,
    gap_us: f64,
) -> Vec<(f64, FleetRequest)> {
    let scenarios: Vec<Vec<numc::Complex>> = (0..4)
        .map(|k| net.buses().iter().map(|b| b.load * (0.85 + 0.05 * k as f64)).collect())
        .collect();
    poisson_arrivals(reqs, gap_us, fbs_bench::SEED, |i| {
        if i % 6 == 5 {
            FleetRequest::new(Request::Batch {
                net: net.clone(),
                scenarios: scenarios.clone(),
                cfg,
            })
        } else {
            FleetRequest::new(Request::Solve { net: net.clone(), cfg })
        }
    })
}

/// One soak (or calm) stream on a uniform 4-device fleet.
fn soak_run(
    net: &RadialNetwork,
    cfg: SolverConfig,
    reqs: usize,
    gap_us: f64,
    with_storm: bool,
) -> (Vec<FleetResponse>, FleetService) {
    // Aggressive rejoin pacing: a benched device goes half-open after a
    // single open-served dispatch and every other dispatch is a rejoin
    // probe — the soak measures integrity under churn, not the default
    // probe cadence, and the stream must be long enough for two killed
    // devices to rejoin before it drains.
    let fcfg = FleetConfig {
        service: ServiceConfig { breaker_probe_after: 1, ..ServiceConfig::default() },
        queue_capacity: reqs,
        rejoin_every: 2,
        ..FleetConfig::uniform(4)
    };
    let mut fleet = FleetService::new(fcfg).with_integrity(IntegritySampler::new(
        IntegrityConfig { sample_every: 2, ..IntegrityConfig::default() },
        HostProps::paper_rig(),
    ));
    if with_storm {
        fleet = fleet.with_storm(storm());
    }
    let responses = fleet.run_stream(arrivals(net, cfg, reqs, gap_us));
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
                Outcome::Batch(res) => format!("{:?} {:?}", res.statuses, res.v),
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

fn record_row(
    table: &mut Table,
    phase: &str,
    responses: &[FleetResponse],
    fleet: &FleetService,
) -> f64 {
    let s = fleet.stats();
    let istats = fleet.integrity_stats();
    let lat = latencies(responses);
    let makespan = responses.iter().map(|r| r.finish_us).fold(0.0f64, f64::max);
    let rps = if makespan > 0.0 { lat.len() as f64 / (makespan / 1e6) } else { 0.0 };
    table.row(&[
        &phase,
        &s.submitted,
        &s.served,
        &s.shed(),
        &s.failovers,
        &detected_corruptions(responses),
        &istats.sampled,
        &istats.mismatches,
        &format!("{:.1}", quantile(&lat, 0.5)),
        &format!("{:.1}", quantile(&lat, 0.99)),
        &format!("{rps:.0}"),
    ]);
    rps
}

fn main() {
    let spec = GenSpec::default();
    let smoke = std::env::var("E16_SMOKE").is_ok();
    let (n, reqs) = if smoke { (127, 36) } else { (255, 120) };

    let mut rng = rng_for(160 + n as u64);
    let net = balanced_binary(n, &spec, &mut rng);
    // Soak requests run at 1e-12 so the 1e-9 V parity bar has headroom.
    let cfg = SolverConfig::new(1e-12, 300);
    let serial = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);

    let mut table = Table::new(
        "E16: chaos soak (uniform 4-device fleet under a corruption burst, a corruption-under-load ramp, and a correlated kill of devices 1-2)",
        &[
            "phase", "reqs", "served", "shed", "failover", "corr_det", "sampled", "mismatch",
            "p50 µs", "p99 µs", "req/s",
        ],
    );

    // Phase 1: calm baseline fixing throughput and latency.
    let gap_us = 400.0;
    let (calm, fleet_calm) = soak_run(&net, cfg, reqs, gap_us, false);
    let calm_rps = record_row(&mut table, "calm", &calm, &fleet_calm);
    assert!(calm.iter().all(|r| r.answered()), "calm soak must answer everything");
    assert_eq!(fleet_calm.integrity_stats().mismatches, 0, "calm answers must shadow-verify");

    // Phase 2: the same stream under the storm.
    let (stormy, fleet_storm) = soak_run(&net, cfg, reqs, gap_us, true);
    let storm_rps = record_row(&mut table, "storm", &stormy, &fleet_storm);

    // Invariant 1 — conservation: nothing lost, nothing double-counted.
    let s = fleet_storm.stats();
    assert_eq!(stormy.len(), reqs, "one response per request under the storm");
    assert_eq!(s.submitted, reqs as u64, "every arrival was submitted");
    assert_eq!(
        s.served + s.shed(),
        s.submitted,
        "answered + shed must equal submitted (conservation)"
    );

    // Invariant 2 — parity: answered solves match the serial oracle,
    // and the shadow sampler saw zero mismatches (no corruption
    // escaped the nets undetected).
    for r in &stormy {
        let Outcome::Solved(res) = &r.outcome else { continue };
        assert!(res.converged(), "request {} did not converge under the storm", r.id);
        for (bus, (a, b)) in res.v.iter().zip(&serial.v).enumerate() {
            assert!(
                (a.abs() - b.abs()).abs() < 1e-9,
                "request {}, bus {bus}: |V| drifted {:e} from serial under the storm",
                r.id,
                (a.abs() - b.abs()).abs()
            );
        }
    }
    let istats = fleet_storm.integrity_stats();
    assert!(istats.sampled > 0, "the shadow sampler must draw from the storm run");
    assert_eq!(
        istats.mismatches, 0,
        "an answered corruption escaped every net (worst err {:e} V)",
        istats.worst_err_v
    );

    // Invariant 3 — detection: the CRC net fired at least once.
    let detected = detected_corruptions(&stormy);
    assert!(
        detected > 0,
        "the storm must land at least one corruption on a checked transfer"
    );

    // Invariant 4 — recovery: the correlated kill tripped both
    // breakers, and both devices rejoined and served.
    for ordinal in [1u32, 2] {
        let d = fleet_storm.device_stats(ordinal);
        assert!(
            d.breaker_opens >= 1,
            "the correlated kill must trip device {ordinal}'s breaker"
        );
        assert!(
            d.device_successes >= 1,
            "device {ordinal} must serve again after the correlated kill window"
        );
    }

    // Phase 3: byte-identical replay of the storm run.
    let (stormy2, _) = soak_run(&net, cfg, reqs, gap_us, true);
    assert_eq!(
        decisions(&stormy),
        decisions(&stormy2),
        "same seeds and storm must replay byte-identically"
    );

    table.emit("e16_soak");

    println!(
        "\nsoak: {} requests served, {} shed, {} corruptions detected (zero undetected), \
         {} shadow-verified",
        s.served,
        s.shed(),
        detected,
        istats.verified
    );
    println!(
        "throughput: calm {calm_rps:.0} req/s, storm {storm_rps:.0} req/s; \
         replay byte-identical"
    );
}
