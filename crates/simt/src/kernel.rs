//! The kernel traits and launch configuration.

use std::future::Future;
use std::pin::pin;
use std::task::{Context, Poll, Waker};

use crate::scope::BlockScope;

/// A device kernel: the `__global__` function analog.
///
/// Implementors are plain structs whose fields are the kernel parameters
/// (global-memory views, scalars). The engine calls [`Kernel::block`] once
/// per block, potentially from many host threads concurrently, hence the
/// `Sync` bound.
pub trait Kernel: Sync {
    /// Name recorded on the timeline (shows up in breakdown reports).
    fn name(&self) -> &'static str;

    /// Executes one block. See [`BlockScope`] for the execution model.
    fn block(&self, blk: &mut BlockScope);
}

/// A cooperative kernel: the `__global__` function of a
/// `cudaLaunchCooperativeKernel` launch, whose blocks may wait for one
/// another at grid-wide barriers.
///
/// A block's body is an `async fn` that suspends at each
/// [`BlockScope::grid_sync`]`.await`. The engine runs the grid as a
/// sequence of *grid phases*: every block runs to its next grid barrier
/// (or its end) before any block runs past it, and each block's locals —
/// its registers, shared memory and any state it keeps — persist across
/// the barrier inside its suspended body. No OS thread is dedicated to a
/// block: the launch's host workers poll the blocks they own, phase by
/// phase. Every block must reach every grid barrier: a block that ends
/// while others wait is a deadlock on hardware, and the launch panics.
///
/// [`crate::Device::try_launch_cooperative`] launches one; a grid larger
/// than the device's co-resident limit fails to launch. The same body can
/// serve an ordinary launch through [`block_on`], as long as it never
/// reaches a grid barrier there.
#[allow(async_fn_in_trait)]
pub trait CoopKernel: Sync {
    /// Name recorded on the timeline.
    fn name(&self) -> &'static str;

    /// Executes one block, suspending at its grid barriers.
    async fn block(&self, blk: &mut BlockScope);
}

/// Runs a cooperative block body to its end inside an ordinary launch's
/// [`Kernel::block`]. An ordinary launch has no grid barrier
/// ([`BlockScope::grid_sync`] panics there), so the body never suspends.
pub fn block_on<F: Future>(body: F) -> F::Output {
    match pin!(body).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => unreachable!("an ordinary launch has no grid barrier to wait at"),
    }
}

/// Launch geometry (`<<<grid, block>>>`), 1-D by default with an optional
/// second grid dimension (`<<<dim3(grid, grid_y), block>>>`).
///
/// The y dimension exists for batched kernels: `grid_y` typically indexes
/// the *segment* (a scenario, a reduction lane), `grid` the blocks within
/// it. Blocks execute in flat row-major order `y * grid + x`; timing only
/// sees the total block count, so a `(g, 1)` and a `(1, g)` launch with the
/// same per-block work cost the same modeled time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Blocks along x. Must be ≥ 1.
    pub grid: u32,
    /// Blocks along y. Must be ≥ 1 (1 for ordinary 1-D launches).
    pub grid_y: u32,
    /// Threads per block. Must be ≥ 1 and ≤ the device limit.
    pub block: u32,
}

impl LaunchConfig {
    /// Default block size used by the element-wise helpers; matches the
    /// 256-thread blocks typical of paper-era CUDA codes.
    pub const DEFAULT_BLOCK: u32 = 256;

    /// Explicit 1-D geometry.
    pub const fn new(grid: u32, block: u32) -> Self {
        LaunchConfig { grid, grid_y: 1, block }
    }

    /// Explicit 2-D geometry: `grid × grid_y` blocks of `block` threads.
    pub const fn grid2d(grid: u32, grid_y: u32, block: u32) -> Self {
        LaunchConfig { grid, grid_y, block }
    }

    /// Geometry covering `n` elements with one thread each, using
    /// `block`-sized blocks (`grid = ceil(n / block)`). `n = 0` launches a
    /// single block so degenerate calls stay well-formed (guards in the
    /// kernel body skip all work).
    pub fn for_elems_with_block(n: usize, block: u32) -> Self {
        assert!(block >= 1, "block size must be >= 1");
        let grid = n.div_ceil(block as usize).max(1);
        assert!(grid <= u32::MAX as usize, "grid too large for {n} elements");
        LaunchConfig { grid: grid as u32, grid_y: 1, block }
    }

    /// [`Self::for_elems_with_block`] with the default 256-thread block.
    pub fn for_elems(n: usize) -> Self {
        Self::for_elems_with_block(n, Self::DEFAULT_BLOCK)
    }

    /// Total blocks in the launch (`grid × grid_y`).
    pub fn total_blocks(&self) -> u64 {
        self.grid as u64 * self.grid_y as u64
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.total_blocks() * self.block as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_elems_rounds_up() {
        assert_eq!(LaunchConfig::for_elems(1), LaunchConfig::new(1, 256));
        assert_eq!(LaunchConfig::for_elems(256), LaunchConfig::new(1, 256));
        assert_eq!(LaunchConfig::for_elems(257), LaunchConfig::new(2, 256));
        assert_eq!(LaunchConfig::for_elems_with_block(100, 32), LaunchConfig::new(4, 32));
    }

    #[test]
    fn zero_elems_still_launches_one_block() {
        let c = LaunchConfig::for_elems(0);
        assert_eq!(c.grid, 1);
    }

    #[test]
    fn total_threads() {
        assert_eq!(LaunchConfig::new(4, 128).total_threads(), 512);
    }

    #[test]
    fn grid2d_counts_both_dimensions() {
        let c = LaunchConfig::grid2d(3, 5, 64);
        assert_eq!(c.total_blocks(), 15);
        assert_eq!(c.total_threads(), 15 * 64);
        assert_eq!(LaunchConfig::new(3, 64).grid_y, 1);
        assert_eq!(LaunchConfig::for_elems(1000).grid_y, 1);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_rejected() {
        LaunchConfig::for_elems_with_block(10, 0);
    }
}
