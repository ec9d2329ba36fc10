//! # fbs — forward-backward sweep power-flow solvers
//!
//! The primary contribution of the reproduced paper: power-flow solvers
//! for radial distribution networks based on the ladder-iterative
//! forward-backward sweep, in three implementations sharing one
//! convergence criterion and one data layout —
//!
//! * [`SerialSolver`] — the paper's CPU baseline,
//! * [`GpuSolver`] — the paper's contribution: level-synchronous sweeps
//!   on the [`simt`] device using segmented scan and reduction.
//!   [`GpuSolver::new`] routes each solve to the cheapest of the
//!   tensor engine's fused sweep at batch size one (small and deep
//!   trees) and that level path with the segmented-scan or the direct
//!   backward sweep; [`GpuSolver::with_strategy`] pins the level path,
//! * [`MulticoreSolver`] — a level-parallel host-thread solver (ablation).
//!
//! These, [`JumpSolver`] and [`ResilientSolver`] are engines of one
//! interface, [`SweepBackend`], built by [`Backend::engine`]; it, the
//! serial sweep and [`solve_dg`] are generic over the per-bus [`Phasor`].
//!
//! Post-solve physics checks live in [`validate`].
//!
//! ```
//! use fbs::{GpuSolver, SerialSolver, SolverConfig};
//! use powergrid::ieee::ieee13;
//! use simt::{Device, HostProps};
//!
//! let net = ieee13();
//! let cfg = SolverConfig::default();
//! let serial = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
//! let gpu = GpuSolver::new(Device::paper_rig()).solve(&net, &cfg);
//! assert!(serial.converged() && gpu.converged());
//! assert!((serial.v[6] - gpu.v[6]).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

mod arrays;
mod config;
pub mod contingency;
mod engine;
pub mod fleet;
mod gpu;
pub mod integrity;
pub mod jump;
pub mod mesh;
mod multicore;
pub mod obs;
mod phasor;
mod recovery;
mod report;
mod serial;
pub mod service;
mod status;
pub mod tensor_batch;
pub mod three_phase;
pub mod validate;

pub use arrays::{LevelArrays, SolverArrays};
pub use config::{ConfigError, SolverConfig};
pub use contingency::{ContingencyOutcome, ContingencyScreener, ScreeningReport};
pub use engine::{Backend, SweepBackend};
pub use fleet::{
    DeviceHealth, FleetConfig, FleetRequest, FleetResponse, FleetService, FleetStats,
    Priority, ShedReason,
};
pub use gpu::{BackwardStrategy, GpuSolver};
pub use integrity::{IntegrityConfig, IntegritySampler, IntegrityStats, IntegrityVerdict};
pub use jump::{JumpArrays, JumpSolver};
pub use mesh::{
    solve_dg, solve_dg_batch, DgBatchResult, GenMode, MeshProblem, MeshResult, MeshSolver,
    MeshState, OuterConfig, OuterStatus,
};
pub use multicore::MulticoreSolver;
pub use obs::record_run;
pub use phasor::Phasor;
pub use recovery::{ResilienceError, ResilientSolver};
pub use report::{FaultReport, PhaseTimes, SolveResult, Timing};
pub use serial::SerialSolver;
pub use service::{
    BreakerState, Deadline, Outcome, Request, Response, ServiceConfig, ServiceStats,
    SolveService,
};
pub use status::{ConvergenceMonitor, SolveStatus};
pub use tensor_batch::{ScenarioPatch, Scenarios, TensorBatchResult, TensorBatchSolver};
pub use three_phase::{Arrays3, Gpu3Solver, Serial3Solver, Solve3Result};
