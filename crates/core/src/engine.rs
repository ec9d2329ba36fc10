//! The one engine interface, [`SweepBackend`], of both phase kinds, and
//! the one place that builds a plain single-phase engine from a backend
//! name, [`Backend::engine`]. The meshed/DG outer loop, the CLI and the
//! supervisor's CPU rungs all solve through them.

use std::convert::Infallible;

use numc::{CVec3, Complex};
use simt::{Device, DeviceProps, HostProps};
use telemetry::Recorder;

use crate::arrays::{LevelArrays, SolverArrays};
use crate::config::SolverConfig;
use crate::gpu::{BackwardStrategy, GpuSolver};
use crate::jump::{JumpArrays, JumpSolver};
use crate::multicore::MulticoreSolver;
use crate::phasor::Phasor;
use crate::recovery::{ResilienceError, ResilientSolver};
use crate::report::SolveResult;
use crate::serial::SerialSolver;
use crate::three_phase::{Arrays3, Gpu3Solver};

/// An engine over the per-bus phasor `V` (single-phase [`Complex`] by
/// default, [`CVec3`] for three-phase): anything that can solve
/// prepared arrays, optionally warm-started. The warm start is a hint:
/// serial, multicore and the GPU level paths honour it; jump and the
/// supervisor start flat, because recovery certification assumes a flat
/// start.
pub trait SweepBackend<V: Phasor = Complex> {
    /// Why a solve could not produce a result: [`Infallible`] for the
    /// plain engines, [`ResilienceError`] for the supervisor.
    type Error;

    /// One radial solve over `a`, warm-started from `v_init` (indexed by
    /// bus id) where the engine supports it.
    fn solve_warm_arrays(
        &mut self,
        a: &LevelArrays<V, V::Z>,
        cfg: &SolverConfig,
        v_init: Option<&[V]>,
    ) -> Result<SolveResult<V>, Self::Error>;

    /// The device behind the last solve, if the engine runs on one
    /// (timeline inspection, trace bridging).
    fn device(&self) -> Option<&Device> {
        None
    }
}

/// A boxed engine (what [`Backend::engine`] returns) is an engine, so
/// [`crate::MeshSolver`] can wrap one.
impl<V: Phasor, B: SweepBackend<V> + ?Sized> SweepBackend<V> for Box<B> {
    type Error = B::Error;

    fn solve_warm_arrays(
        &mut self,
        a: &LevelArrays<V, V::Z>,
        cfg: &SolverConfig,
        v_init: Option<&[V]>,
    ) -> Result<SolveResult<V>, B::Error> {
        (**self).solve_warm_arrays(a, cfg, v_init)
    }

    fn device(&self) -> Option<&Device> {
        (**self).device()
    }
}

/// Both phase kinds run the one serial sweep.
impl<V: Phasor> SweepBackend<V> for SerialSolver {
    type Error = Infallible;

    fn solve_warm_arrays(
        &mut self,
        a: &LevelArrays<V, V::Z>,
        cfg: &SolverConfig,
        v_init: Option<&[V]>,
    ) -> Result<SolveResult<V>, Infallible> {
        Ok(self.solve_warm(a, cfg, v_init))
    }
}

impl SweepBackend for MulticoreSolver {
    type Error = Infallible;

    fn solve_warm_arrays(
        &mut self,
        a: &SolverArrays,
        cfg: &SolverConfig,
        v_init: Option<&[Complex]>,
    ) -> Result<SolveResult, Infallible> {
        Ok(self.solve_warm(a, cfg, v_init))
    }
}

impl SweepBackend for GpuSolver {
    type Error = Infallible;

    fn solve_warm_arrays(
        &mut self,
        a: &SolverArrays,
        cfg: &SolverConfig,
        v_init: Option<&[Complex]>,
    ) -> Result<SolveResult, Infallible> {
        Ok(self.solve_warm(a, cfg, v_init))
    }

    fn device(&self) -> Option<&Device> {
        Some(GpuSolver::device(self))
    }
}

impl SweepBackend<CVec3> for Gpu3Solver {
    type Error = Infallible;

    fn solve_warm_arrays(
        &mut self,
        a: &Arrays3,
        cfg: &SolverConfig,
        v_init: Option<&[CVec3]>,
    ) -> Result<SolveResult<CVec3>, Infallible> {
        Ok(self.solve_warm(a, cfg, v_init))
    }

    fn device(&self) -> Option<&Device> {
        Some(Gpu3Solver::device(self))
    }
}

/// Starts flat: the preorder layout is rebuilt from `a` on every call.
impl SweepBackend for JumpSolver {
    type Error = Infallible;

    fn solve_warm_arrays(
        &mut self,
        a: &SolverArrays,
        cfg: &SolverConfig,
        _v_init: Option<&[Complex]>,
    ) -> Result<SolveResult, Infallible> {
        Ok(self.solve_arrays(&JumpArrays::new(a), cfg))
    }

    fn device(&self) -> Option<&Device> {
        Some(JumpSolver::device(self))
    }
}

/// Starts flat: certification assumes the flat start is known clean.
impl SweepBackend for ResilientSolver {
    type Error = ResilienceError;

    fn solve_warm_arrays(
        &mut self,
        a: &SolverArrays,
        cfg: &SolverConfig,
        _v_init: Option<&[Complex]>,
    ) -> Result<SolveResult, ResilienceError> {
        self.solve(a, cfg)
    }

    fn device(&self) -> Option<&Device> {
        self.last_device()
    }
}

/// Starts flat, as [`ResilientSolver::solve3`] does.
impl SweepBackend<CVec3> for ResilientSolver {
    type Error = ResilienceError;

    fn solve_warm_arrays(
        &mut self,
        a: &Arrays3,
        cfg: &SolverConfig,
        _v_init: Option<&[CVec3]>,
    ) -> Result<SolveResult<CVec3>, ResilienceError> {
        self.solve3(a, cfg)
    }

    fn device(&self) -> Option<&Device> {
        self.last_device()
    }
}

/// Which solver implementation a solve runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Serial CPU reference.
    Serial,
    /// Level-parallel multicore CPU solver.
    Multicore,
    /// GPU solver routed per tree ([`GpuSolver::new`]): the fused sweep
    /// on small or deep trees, else the level-synchronous path with the
    /// direct backward sweep on binary and k-ary trees and the
    /// segmented scan on star-like ones.
    Gpu,
    /// Level-synchronous GPU solver, direct backward.
    GpuDirect,
    /// Level-synchronous GPU solver, atomic-scatter backward.
    GpuAtomic,
    /// Depth-insensitive jump GPU solver.
    GpuJump,
}

impl Backend {
    /// Every backend, in the CLI's comparison order.
    pub const ALL: [Backend; 6] = [
        Backend::Serial,
        Backend::Multicore,
        Backend::Gpu,
        Backend::GpuDirect,
        Backend::GpuAtomic,
        Backend::GpuJump,
    ];

    /// CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Serial => "serial",
            Backend::Multicore => "multicore",
            Backend::Gpu => "gpu",
            Backend::GpuDirect => "gpu-direct",
            Backend::GpuAtomic => "gpu-atomic",
            Backend::GpuJump => "gpu-jump",
        }
    }

    /// The backward-sweep strategy a pinned level-synchronous backend
    /// (`gpu-direct`, `gpu-atomic`) always runs; `None` for the routed
    /// [`Backend::Gpu`], whose strategy depends on the tree, the CPU
    /// backends and the jump solver.
    pub fn strategy(self) -> Option<BackwardStrategy> {
        match self {
            Backend::GpuDirect => Some(BackwardStrategy::Direct),
            Backend::GpuAtomic => Some(BackwardStrategy::AtomicScatter),
            _ => None,
        }
    }

    /// Parses a CLI solver name.
    pub fn from_name(name: &str) -> Option<Backend> {
        Some(match name {
            "serial" => Backend::Serial,
            "multicore" => Backend::Multicore,
            "gpu" => Backend::Gpu,
            "gpu-direct" => Backend::GpuDirect,
            "gpu-atomic" => Backend::GpuAtomic,
            "gpu-jump" => Backend::GpuJump,
            _ => return None,
        })
    }

    /// The next backend in the degradation chain, `None` at the end.
    /// Device backends fall back to the multicore CPU solver, which
    /// falls back to serial; CPU backends cannot fault but the chain is
    /// defined all the way down.
    pub fn fallback(self) -> Option<Backend> {
        match self {
            Backend::Serial => None,
            Backend::Multicore => Some(Backend::Serial),
            _ => Some(Backend::Multicore),
        }
    }

    /// Whether this backend runs on the simulated device (and is
    /// therefore exposed to injected device faults).
    pub fn is_device(self) -> bool {
        !matches!(self, Backend::Serial | Backend::Multicore)
    }

    /// The plain engine for this backend: a fresh device with `props`
    /// for the GPU backends, `host` for the CPU ones (the multicore core
    /// count is [`MulticoreSolver::default`]'s), with `rec` attached.
    /// [`Backend::Gpu`] is the routed [`GpuSolver::new`], which takes
    /// the route the supervisor's device rung takes (fused, or the level
    /// path with the direct or segmented-scan backward sweep);
    /// `gpu-direct` and `gpu-atomic` pin the level path with their
    /// strategy ([`GpuSolver::with_strategy`]).
    pub fn engine(
        self,
        props: &DeviceProps,
        host: &HostProps,
        rec: Option<&Recorder>,
    ) -> Box<dyn SweepBackend<Error = Infallible>> {
        fn recorded<S: SweepBackend<Error = Infallible> + 'static>(
            solver: S,
            rec: Option<&Recorder>,
            attach: fn(S, Recorder) -> S,
        ) -> Box<dyn SweepBackend<Error = Infallible>> {
            Box::new(match rec {
                Some(rec) => attach(solver, rec.clone()),
                None => solver,
            })
        }
        let device = || Device::new(props.clone());
        match (self, self.strategy()) {
            (Backend::Serial, _) => {
                recorded(SerialSolver::new(host.clone()), rec, SerialSolver::with_recorder)
            }
            (Backend::Multicore, _) => {
                let solver = MulticoreSolver::new(host.clone(), MulticoreSolver::default().cores());
                recorded(solver, rec, MulticoreSolver::with_recorder)
            }
            (Backend::Gpu, _) => recorded(GpuSolver::new(device()), rec, GpuSolver::with_recorder),
            (_, Some(strategy)) => {
                let solver = GpuSolver::with_strategy(device(), strategy);
                recorded(solver, rec, GpuSolver::with_recorder)
            }
            _ => recorded(JumpSolver::new(device()), rec, JumpSolver::with_recorder),
        }
    }
}
