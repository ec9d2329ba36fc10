//! The launch engine: schedules blocks over host worker threads.
//!
//! Workers model SMs only in the sense that they drain the grid's blocks;
//! modeled time comes from [`crate::timing`], never from host wall-clock.
//! Small launches run inline on the calling thread — spawning costs more
//! than it saves below a few thousand simulated threads.
//!
//! A cooperative launch runs grid phase by grid phase: its blocks are
//! suspended `async` bodies that keep their state across grid barriers.
//! Each host worker owns a fixed set of blocks and polls each to its next
//! barrier; the workers then meet at a host barrier before anyone starts
//! the next grid phase. A block allocates on its worker, into that
//! thread's allocator arena, so a kernel that keeps large per-block state
//! does better to take it from buffers the launching thread allocated.

use std::any::Any;
use std::future::Future;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::task::{Context, Poll, Waker};

use crate::kernel::{CoopKernel, Kernel, LaunchConfig};
use crate::scope::BlockScope;
use crate::stats::LaunchStats;

/// Launches below this many simulated threads run on the calling thread.
const PARALLEL_THRESHOLD_THREADS: u64 = 8192;

/// Blocks handed to a worker per queue pop (amortises the atomic).
fn chunk_size(total_blocks: u64, workers: usize) -> u64 {
    (total_blocks / (workers as u64 * 8)).max(1)
}

fn run_block<K: Kernel + ?Sized>(
    kernel: &K,
    block_idx: u64,
    cfg: &LaunchConfig,
    warp_size: u32,
    shared_limit: u32,
    out: &mut LaunchStats,
) {
    let mut scope =
        BlockScope::new(block_idx, cfg.grid, cfg.grid_y, cfg.block, warp_size, shared_limit);
    kernel.block(&mut scope);
    scope.acc.fold_into(out, cfg.block as u64);
}

/// Executes every block of the grid (in flat row-major order) and returns
/// merged statistics.
pub(crate) fn run_grid<K: Kernel + ?Sized>(
    kernel: &K,
    cfg: &LaunchConfig,
    warp_size: u32,
    shared_limit: u32,
    max_workers: usize,
) -> LaunchStats {
    let total = cfg.total_blocks();
    let workers = (max_workers as u64).min(total).max(1) as usize;
    if workers == 1 || cfg.total_threads() < PARALLEL_THRESHOLD_THREADS {
        let mut stats = LaunchStats::default();
        for b in 0..total {
            run_block(kernel, b, cfg, warp_size, shared_limit, &mut stats);
        }
        return stats;
    }

    let next = AtomicU64::new(0);
    let merged: Mutex<LaunchStats> = Mutex::new(LaunchStats::default());
    let chunk = chunk_size(total, workers);

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut local = LaunchStats::default();
                loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= total {
                        break;
                    }
                    let end = (start + chunk).min(total);
                    for b in start..end {
                        run_block(kernel, b, cfg, warp_size, shared_limit, &mut local);
                    }
                }
                merged.lock().expect("stats mutex poisoned").merge(&local);
            });
        }
    });

    merged.into_inner().expect("stats mutex poisoned")
}

/// The blocks of a cooperative launch that one host worker owns, each a
/// suspended block body, or the scope it ended with.
struct CoopBlocks<F> {
    running: Vec<Pin<Box<F>>>,
    done: Vec<BlockScope>,
}

impl<F: Future<Output = BlockScope>> CoopBlocks<F> {
    fn new(bodies: impl Iterator<Item = F>) -> Self {
        CoopBlocks { running: bodies.map(Box::pin).collect(), done: Vec::new() }
    }

    /// Runs every block still running to its next grid barrier or its
    /// end; returns how many wait at a barrier.
    fn step(&mut self) -> u64 {
        let mut cx = Context::from_waker(Waker::noop());
        let mut waiting = Vec::with_capacity(self.running.len());
        for mut body in self.running.drain(..) {
            match body.as_mut().poll(&mut cx) {
                Poll::Ready(scope) => self.done.push(scope),
                Poll::Pending => waiting.push(body),
            }
        }
        self.running = waiting;
        self.running.len() as u64
    }

    /// This worker's share of the launch statistics, with its blocks'
    /// per-grid-phase costs folded to their maxima.
    fn finish(self, block_threads: u64) -> (LaunchStats, Vec<(u64, u64)>) {
        let mut stats = LaunchStats::default();
        let mut costs: Vec<(u64, u64)> = Vec::new();
        for scope in &self.done {
            scope.acc.fold_into(&mut stats, block_threads);
            max_into(&mut costs, &scope.grid_costs);
        }
        (stats, costs)
    }
}

/// Folds per-grid-phase `(chain, phases)` costs into `into`, phase by
/// phase, keeping the larger of each.
fn max_into(into: &mut Vec<(u64, u64)>, costs: &[(u64, u64)]) {
    into.resize(into.len().max(costs.len()), (0, 0));
    for (c, &(chain, phases)) in into.iter_mut().zip(costs) {
        *c = (c.0.max(chain), c.1.max(phases));
    }
}

/// Whether a grid runs another grid phase, from how many of its `total`
/// blocks wait at a barrier after grid phase `phase`: yes when all do,
/// no when all ended, and an error — the deadlock a hardware grid would
/// hang in — when only some reached the barrier.
fn next_phase(waiting: u64, total: u64, phase: u64) -> Result<bool, String> {
    match waiting {
        0 => Ok(false),
        w if w == total => Ok(true),
        w => Err(format!(
            "cooperative launch: {w} of {total} blocks wait at grid barrier {phase} \
             while the rest have ended (a deadlock on hardware)"
        )),
    }
}

/// Executes a cooperative grid phase by phase (see the module docs) and
/// returns merged statistics, with its critical path over grid phases —
/// Σ over grid phases of the largest chain and barrier-phase count any
/// block ran in it — and its grid-barrier count.
pub(crate) fn run_cooperative<K: CoopKernel>(
    kernel: &K,
    cfg: &LaunchConfig,
    warp_size: u32,
    shared_limit: u32,
    max_workers: usize,
) -> LaunchStats {
    let total = cfg.total_blocks();
    let body = |b: u64| async move {
        let mut scope =
            BlockScope::new(b, cfg.grid, cfg.grid_y, cfg.block, warp_size, shared_limit);
        scope.cooperative = true;
        kernel.block(&mut scope).await;
        scope.close_grid_phase();
        scope
    };
    let workers = (max_workers as u64).min(total).max(1);
    let parts = if workers == 1 || cfg.total_threads() < PARALLEL_THRESHOLD_THREADS {
        let mut blocks = CoopBlocks::new((0..total).map(body));
        let mut phase = 0;
        while next_phase(blocks.step(), total, phase).unwrap_or_else(|e| panic!("{e}")) {
            phase += 1;
        }
        vec![blocks.finish(cfg.block as u64)]
    } else {
        run_cooperative_parallel(workers as usize, total, cfg.block as u64, body)
    };
    let mut stats = LaunchStats { cooperative: true, ..LaunchStats::default() };
    let mut costs: Vec<(u64, u64)> = Vec::new();
    for (part, part_costs) in &parts {
        stats.merge(part);
        max_into(&mut costs, part_costs);
    }
    stats.grid_syncs = costs.len().saturating_sub(1) as u64;
    stats.grid_chain = costs.iter().map(|c| c.0).sum();
    stats.grid_phases = costs.iter().map(|c| c.1).sum();
    stats
}

/// A worker's slot value for a grid phase in which one of its blocks
/// panicked.
const PANICKED: u64 = u64::MAX;

/// [`run_cooperative`] over `workers` host threads: worker `w` owns
/// blocks `w, w + workers, …` for the whole launch, so a suspended block
/// never moves between threads. After each grid phase every worker
/// publishes how many of its blocks wait at the barrier (or that one
/// panicked) in a slot of its own that alternates with the phase's
/// parity — a slot is rewritten two phases later, after every worker has
/// read it — and meets the others at a host barrier; each then reads the
/// same slots and takes the same decision. A block's panic stops every
/// worker at that barrier and is re-raised on the launching thread.
fn run_cooperative_parallel<F: Future<Output = BlockScope>>(
    workers: usize,
    total: u64,
    block_threads: u64,
    body: impl Fn(u64) -> F + Sync,
) -> Vec<(LaunchStats, Vec<(u64, u64)>)> {
    let barrier = Barrier::new(workers);
    let slots: [Vec<AtomicU64>; 2] =
        std::array::from_fn(|_| (0..workers).map(|_| AtomicU64::new(0)).collect());
    let panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let ends: Vec<Result<_, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (barrier, slots, panic, body) = (&barrier, &slots, &panic, &body);
                s.spawn(move || {
                    let mut blocks = CoopBlocks::new((w as u64..total).step_by(workers).map(body));
                    let mut phase = 0u64;
                    loop {
                        let slot = &slots[(phase % 2) as usize];
                        let waiting = catch_unwind(AssertUnwindSafe(|| blocks.step()))
                            .unwrap_or_else(|payload| {
                                panic.lock().expect("panic slot poisoned").get_or_insert(payload);
                                PANICKED
                            });
                        // The host barrier orders these stores before every
                        // worker's loads of this phase's slots.
                        slot[w].store(waiting, Ordering::Relaxed);
                        barrier.wait();
                        let counts: Vec<u64> = slot.iter().map(|c| c.load(Ordering::Relaxed)).collect();
                        if counts.contains(&PANICKED) {
                            return Err("a block panicked".to_string());
                        }
                        if !next_phase(counts.iter().sum(), total, phase)? {
                            return Ok(blocks.finish(block_threads));
                        }
                        phase += 1;
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a cooperative worker panicked")).collect()
    });
    if let Some(payload) = panic.into_inner().expect("panic slot poisoned") {
        resume_unwind(payload);
    }
    ends.into_iter().map(|end| end.unwrap_or_else(|e| panic!("{e}"))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::DeviceBuffer;
    use crate::scope::BlockScope;

    /// y[i] = a*x[i] + y[i]
    struct Saxpy<'a> {
        a: f64,
        x: crate::buffer::GlobalRef<'a, f64>,
        y: crate::buffer::GlobalMut<'a, f64>,
        n: usize,
    }

    impl Kernel for Saxpy<'_> {
        fn name(&self) -> &'static str {
            "saxpy"
        }
        fn block(&self, blk: &mut BlockScope) {
            blk.threads(|t| {
                let i = t.global_id();
                if i < self.n {
                    let xv = t.ld(&self.x, i);
                    let yv = t.ld_mut(&self.y, i);
                    t.flops(2);
                    t.st(&self.y, i, self.a * xv + yv);
                }
            });
        }
    }

    fn saxpy_case(n: usize, workers: usize) -> (Vec<f64>, LaunchStats) {
        let host_x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let host_y: Vec<f64> = (0..n).map(|i| 2.0 * i as f64).collect();
        let mut x = DeviceBuffer::<f64>::zeroed(n);
        x.copy_from_host(&host_x);
        let mut y = DeviceBuffer::<f64>::zeroed(n);
        y.copy_from_host(&host_y);
        let cfg = LaunchConfig::for_elems(n);
        let k = Saxpy { a: 3.0, x: x.view(), y: y.view_mut(), n };
        let stats = run_grid(&k, &cfg, 32, 48 * 1024, workers);
        (y.copy_to_host(), stats)
    }

    #[test]
    fn sequential_path_computes_saxpy() {
        let (y, stats) = saxpy_case(1000, 1);
        for (i, v) in y.iter().enumerate() {
            assert_eq!(*v, 3.0 * i as f64 + 2.0 * i as f64);
        }
        assert_eq!(stats.blocks, 4);
        assert_eq!(stats.threads, 1024);
        assert_eq!(stats.flops, 2000);
        assert_eq!(stats.gmem_loads, 2000);
        assert_eq!(stats.gmem_stores, 1000);
    }

    #[test]
    fn parallel_path_matches_sequential() {
        let n = 100_000;
        let (y_seq, s_seq) = saxpy_case(n, 1);
        let (y_par, s_par) = saxpy_case(n, 8);
        assert_eq!(y_seq, y_par);
        // Stats are order-independent sums → identical.
        assert_eq!(s_seq, s_par);
    }

    #[test]
    fn worker_count_never_exceeds_grid() {
        // Must not deadlock or double-run blocks with more workers than blocks.
        let (y, stats) = saxpy_case(64, 64);
        assert_eq!(stats.blocks, 1);
        assert_eq!(y.len(), 64);
    }

    #[test]
    fn chunk_size_is_sane() {
        assert_eq!(chunk_size(1, 8), 1);
        assert_eq!(chunk_size(64, 8), 1);
        assert_eq!(chunk_size(6400, 8), 100);
    }

    /// out[y*grid + x] = flat block index, from a 2-D launch.
    struct GridStamp<'a> {
        out: crate::buffer::GlobalMut<'a, u32>,
    }

    impl Kernel for GridStamp<'_> {
        fn name(&self) -> &'static str {
            "grid_stamp"
        }
        fn block(&self, blk: &mut BlockScope) {
            let (x, y, gx) = (blk.block_idx_x(), blk.block_idx_y(), blk.grid_dim());
            blk.threads(|t| {
                if t.tid() == 0 {
                    t.st(&self.out, t.block_idx_y() * gx + t.block_idx_x(), (y * gx + x) as u32);
                }
            });
        }
    }

    #[test]
    fn two_dimensional_grid_runs_every_block_once() {
        for workers in [1usize, 4] {
            let (gx, gy) = (7u32, 5u32);
            let mut out = DeviceBuffer::<u32>::zeroed((gx * gy) as usize);
            let k = GridStamp { out: out.view_mut() };
            // Large block size so the parallel path engages at workers=4.
            let cfg = LaunchConfig::grid2d(gx, gy, 256);
            let stats = run_grid(&k, &cfg, 32, 48 * 1024, workers);
            assert_eq!(stats.blocks, (gx * gy) as u64);
            let host = out.copy_to_host();
            for (i, v) in host.iter().enumerate() {
                assert_eq!(*v as usize, i, "block {i} ran with wrong coordinates");
            }
        }
    }
}
