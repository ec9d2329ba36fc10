//! # simt — a functional SIMT (GPU) execution simulator
//!
//! This crate is the CUDA-substitute substrate of the forward-backward
//! sweep reproduction (see the workspace `DESIGN.md`). It executes
//! CUDA-style kernels *functionally* — every simulated thread really runs,
//! in parallel across host worker threads — while a calibrated analytical
//! model supplies *modeled device time* for every launch and transfer.
//!
//! ## Programming model
//!
//! * [`Device`] owns the clock model and the event [`Timeline`].
//! * [`DeviceBuffer`] is a device allocation; host data crosses through
//!   [`Device::htod`] / [`Device::dtoh`], which are charged PCIe time. A
//!   packed copy ([`Device::try_htod_packed`] /
//!   [`Device::try_dtoh_packed`]) moves several buffers as one PCIe
//!   transaction: one latency, one fault-plan op.
//! * A kernel is a struct of parameter views implementing [`Kernel`];
//!   [`Device::launch`] runs it over a 1-D [`LaunchConfig`] grid.
//! * Inside a kernel, a block is a sequence of barrier-delimited phases
//!   ([`BlockScope::threads`]), with [`Shared`] memory persisting across
//!   phases — the well-synchronised subset of CUDA.
//!
//! ```
//! use simt::{Device, DeviceProps, Kernel, LaunchConfig, BlockScope, GlobalRef, GlobalMut};
//!
//! /// y[i] = a·x[i] + y[i]
//! struct Saxpy<'a> {
//!     a: f64,
//!     x: GlobalRef<'a, f64>,
//!     y: GlobalMut<'a, f64>,
//!     n: usize,
//! }
//!
//! impl Kernel for Saxpy<'_> {
//!     fn name(&self) -> &'static str { "saxpy" }
//!     fn block(&self, blk: &mut BlockScope) {
//!         blk.threads(|t| {
//!             let i = t.global_id();
//!             if i < self.n {
//!                 let v = self.a * t.ld(&self.x, i) + t.ld_mut(&self.y, i);
//!                 t.flops(2);
//!                 t.st(&self.y, i, v);
//!             }
//!         });
//!     }
//! }
//!
//! let mut dev = Device::new(DeviceProps::paper_rig());
//! let x = dev.alloc_from(&vec![1.0_f64; 1024]);
//! let mut y = dev.alloc_from(&vec![2.0_f64; 1024]);
//! dev.launch(LaunchConfig::for_elems(1024), &Saxpy { a: 3.0, x: x.view(), y: y.view_mut(), n: 1024 });
//! assert_eq!(dev.dtoh(&y), vec![5.0; 1024]);
//! assert!(dev.timeline().breakdown().kernels == 1);
//! ```
//!
//! ## Timing model
//!
//! See [`timing`] for the roofline-with-latency-floor formulation and
//! [`DeviceProps`] for the calibrated presets. Host wall-clock of the
//! simulation is recorded for transparency but is **never** used in
//! speedup claims.
//!
//! ## Race checking
//!
//! Build with `--features racecheck` to attach a per-cell access tracker
//! (cuda-memcheck analog) that panics on intra-launch data races. Kernel
//! test suites in this workspace run under it.

#![warn(missing_docs)]

pub mod atomic;
mod buffer;
pub mod crc;
mod device;
mod engine;
pub mod fault;
mod kernel;
mod props;
#[cfg(feature = "racecheck")]
pub mod racecheck;
mod scope;
pub mod span_export;
mod stats;
pub mod timeline;
pub mod timing;

pub use atomic::AtomicAdd;
pub use buffer::{pod_bytes, BufId, DeviceBuffer, DeviceCopy, GlobalMut, GlobalRef};
pub use device::{Device, DtohPart, HtodPart};
pub use fault::{DeviceError, FaultKind, FaultPlan, FaultRecord, FaultSite, StormSchedule};
pub use kernel::{Kernel, LaunchConfig};
pub use props::{DeviceProps, HostProps};
pub use scope::{BlockScope, Shared, ThreadCtx};
pub use span_export::{export_timeline_spans, export_timeline_spans_to};
pub use stats::{LaunchStats, TRANSACTION_BYTES};
pub use timeline::{Breakdown, Event, EventKind, KernelReport, Timeline};
pub use timing::{Bound, KernelTiming};
