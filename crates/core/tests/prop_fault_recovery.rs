//! Property tests of the fault-injection / recovery layer: every
//! backend, run under the resilient supervisor with a seeded plan of
//! recoverable faults, must land on the same answer as a fault-free
//! solve — to 1e-9 V on the golden fixed-seed 1K tree and the IEEE-13
//! feeder. Device loss must walk the degradation chain instead of
//! failing, and seeded plans must replay byte-identically.

use fbs::{Backend, ResilientSolver, SerialSolver, SolveResult, SolverArrays, SolverConfig};
use numc::Complex;
use powergrid::gen::{balanced_binary, GenSpec};
use powergrid::ieee::ieee13;
use powergrid::RadialNetwork;
use rng::rngs::StdRng;
use rng::SeedableRng;
use simt::{DeviceProps, FaultKind, FaultPlan, HostProps};

const TREE_BUSES: usize = 1023;
const TREE_SEED: u64 = 20200817;
const FAULT_SEED: u64 = 20200817;

const BACKENDS: [Backend; 6] = [
    Backend::Serial,
    Backend::Multicore,
    Backend::Gpu,
    Backend::GpuDirect,
    Backend::GpuAtomic,
    Backend::GpuJump,
];

fn cfg() -> SolverConfig {
    SolverConfig::new(1e-12, 200)
}

fn tree() -> RadialNetwork {
    let mut rng = StdRng::seed_from_u64(TREE_SEED);
    balanced_binary(TREE_BUSES, &GenSpec::default(), &mut rng)
}

fn rig() -> (DeviceProps, HostProps) {
    (DeviceProps::paper_rig(), HostProps::paper_rig())
}

/// Runs `backend` resiliently under `plan` and checks the result
/// against the fault-free reference voltages to 1e-9 V per bus.
fn check_recovers(net: &RadialNetwork, reference: &[Complex], backend: Backend, rate: f64) {
    let (props, host) = rig();
    let mut solver = ResilientSolver::new(backend, props, host)
        .with_fault_plan(FaultPlan::seeded(FAULT_SEED, rate));
    let res = solver
        .solve(&SolverArrays::new(net), &cfg())
        .unwrap_or_else(|e| panic!("{}: recoverable faults must not kill the solve: {e}", backend.name()));
    assert!(res.converged(), "{}: ended {:?}", backend.name(), res.status);

    let rep = res.fault_report.as_ref().expect("resilient solves carry a fault report");
    if backend.is_device() {
        assert!(
            rep.faults_injected >= 1,
            "{}: the seeded plan was chosen to fire at least once, got a clean run",
            backend.name()
        );
    } else {
        assert_eq!(rep.faults_injected, 0, "{}: CPU backends see no device faults", backend.name());
    }

    for (bus, (r, g)) in reference.iter().zip(&res.v).enumerate() {
        let err = (r.abs() - g.abs()).abs();
        assert!(
            err < 1e-9,
            "{}: bus {bus} |V| off by {err:.3e} V after recovery ({} faults, {} rollbacks)",
            backend.name(),
            rep.faults_injected,
            rep.rollbacks,
        );
    }
}

#[test]
fn all_backends_recover_on_the_golden_tree() {
    let net = tree();
    let reference = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg()).v;
    for backend in BACKENDS {
        // The jump solver launches one batched kernel sequence per
        // iteration, and the fused sweep (the route Backend::Gpu takes on
        // this tree) one launch, instead of one kernel per tree level, so
        // they issue several times fewer device ops — they need a higher
        // per-op rate for the plan to fire at all.
        let rate = if matches!(backend, Backend::GpuJump | Backend::Gpu) { 2e-2 } else { 5e-3 };
        check_recovers(&net, &reference, backend, rate);
    }
}

#[test]
fn all_backends_recover_on_ieee13() {
    let net = ieee13();
    let reference = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg()).v;
    for backend in BACKENDS {
        // The feeder is tiny (few ops per solve), so the rate is higher
        // to guarantee the device backends actually see a fault.
        check_recovers(&net, &reference, backend, 2e-2);
    }
}

#[test]
fn device_loss_walks_the_degradation_chain() {
    let net = tree();
    let reference = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg()).v;
    let (props, host) = rig();
    let a = SolverArrays::new(&net);
    // The loss lands half-way through the device ops a clean supervised
    // solve issues, whichever route it takes.
    let clean = FaultPlan::seeded(FAULT_SEED, 0.0);
    ResilientSolver::new(Backend::Gpu, props.clone(), host.clone())
        .with_fault_plan(clean.clone())
        .solve(&a, &cfg())
        .expect("a clean plan cannot fail the solve");
    let plan = FaultPlan::seeded(FAULT_SEED, 0.0)
        .with_fault_at(clean.ops_started() / 2, FaultKind::DeviceLost { at_op: 0 });
    let mut solver = ResilientSolver::new(Backend::Gpu, props, host).with_fault_plan(plan);
    let res = solver.solve(&a, &cfg()).expect("degradation must rescue a lost device");

    let rep = res.fault_report.as_ref().unwrap();
    assert_eq!(
        rep.backends,
        vec!["gpu".to_string(), "multicore".to_string()],
        "loss on the GPU must degrade to the multicore backend"
    );
    assert!(matches!(res.status, fbs::SolveStatus::Recovered { .. }), "got {:?}", res.status);
    for (bus, (r, g)) in reference.iter().zip(&res.v).enumerate() {
        assert!(
            (r.abs() - g.abs()).abs() < 1e-9,
            "bus {bus}: degraded answer drifted from the fault-free one"
        );
    }
}

/// Two resilient solves from identical fresh plans must be
/// indistinguishable: bit-identical voltages, identical fault
/// bookkeeping — the replay guarantee the CLI's `--fault-seed` and
/// `FBS_FAULT_SEED` override rely on.
#[test]
fn seeded_plans_replay_byte_identically() {
    let net = tree();
    let run = || -> SolveResult {
        let (props, host) = rig();
        ResilientSolver::new(Backend::GpuAtomic, props, host)
            .with_fault_plan(FaultPlan::seeded(99, 5e-3))
            .solve(&SolverArrays::new(&net), &cfg())
            .expect("recoverable run")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.v, b.v, "replayed voltages must be bit-identical");
    assert_eq!(a.j, b.j, "replayed currents must be bit-identical");
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.status, b.status);
    assert_eq!(a.fault_report, b.fault_report, "fault bookkeeping must replay exactly");
    assert!(a.fault_report.unwrap().faults_injected >= 1, "the seed was chosen to fire");
}

/// A read corrupted on its way back at either of the last two device ops
/// of a supervised IEEE-13 solve — the final voltage and current reads,
/// on every route — is caught and read again: every device backend
/// returns the clean answer.
#[test]
fn a_corrupted_final_read_never_reaches_the_answer() {
    let a = SolverArrays::new(&ieee13());
    let supervised = |backend: Backend, plan: FaultPlan| {
        let (props, host) = rig();
        let mut solver = ResilientSolver::new(backend, props, host).with_fault_plan(plan);
        solver.solve(&a, &cfg()).unwrap_or_else(|e| panic!("{}: {e}", backend.name()))
    };
    for backend in BACKENDS.into_iter().filter(|b| b.is_device()) {
        let clean_plan = FaultPlan::seeded(0, 0.0);
        let clean = supervised(backend, clean_plan.clone());
        let ops = clean_plan.ops_started();
        for op in [ops - 2, ops - 1] {
            let res = supervised(backend, FaultPlan::scripted([(op, FaultKind::TransferCorruption)]));
            let name = backend.name();
            assert!(res.converged(), "{name}, op {op}: ended {:?}", res.status);
            assert_eq!((&res.v, &res.j), (&clean.v, &clean.j), "{name}, op {op}: not the clean answer");
        }
    }
}
