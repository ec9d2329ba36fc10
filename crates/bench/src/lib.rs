//! Shared infrastructure for the experiment binaries (`exp_e1` … `exp_e13`).
//!
//! Each binary regenerates one table/figure of the reconstructed
//! evaluation (see `DESIGN.md`, per-experiment index): it prints a
//! markdown table to stdout and writes the same rows as CSV under
//! `results/` (see [`table`]), plus its headline medians into
//! `results/BENCH_summary.json` (see [`summary`]); smoke configurations
//! (`*_SMOKE`, see [`smoke_run`]) only print. All experiments run
//! on the calibrated `paper_rig` device/host models with fixed seeds,
//! so modeled output is reproducible bit-for-bit.

pub mod micro;
pub mod summary;
pub mod table;

pub use table::{results_dir, smoke_run, speedup, us, Table};

use fbs::{SolveResult, SolverConfig};
use powergrid::RadialNetwork;
use rng::rngs::StdRng;
use rng::SeedableRng;

/// The tree sizes of the paper's evaluation: 1K–256K buses, powers of two.
pub const PAPER_SIZES: [usize; 9] =
    [1024, 2048, 4096, 8192, 16_384, 32_768, 65_536, 131_072, 262_144];

/// The seed every experiment derives its workloads from.
pub const SEED: u64 = 20200817; // the paper's publication date

/// Deterministic RNG for experiment `tag`.
pub fn rng_for(tag: u64) -> StdRng {
    StdRng::seed_from_u64(SEED ^ tag)
}

/// The solver configuration used throughout the evaluation.
pub fn eval_config() -> SolverConfig {
    SolverConfig::default()
}

/// Validates a converged result against its network before its timing is
/// allowed into a table (no numbers from broken solves).
pub fn validate_or_die(net: &RadialNetwork, res: &SolveResult, who: &str) {
    assert!(res.converged(), "{who}: solve did not converge");
    fbs::validate::assert_physical(net, res, 1e-4);
}
