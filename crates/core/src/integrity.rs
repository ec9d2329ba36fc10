//! Shadow verification — the last of the three integrity nets.
//!
//! Canary guards catch buffer overruns at the allocation boundary and
//! checked transfers catch corruption on the wire
//! ([`simt::Device::try_htod_checked`] /
//! [`simt::Device::try_dtoh_checked`]); neither can catch a *wrong
//! answer* produced by corrupted compute. The [`IntegritySampler`]
//! closes that hole: a seeded 1-in-K sample of answered requests is
//! re-solved on the CPU oracle ([`SerialSolver`] / [`Serial3Solver`])
//! and the answered voltages are compared magnitude-wise against the
//! oracle's, using the same 1e-9 V bar the repo's property suites pin.
//!
//! Sampling is deterministic: the same seed and the same answer stream
//! shadow-verify the same requests, so soak runs replay byte-identically
//! with the sampler armed. Verdicts land on an attached [`Recorder`] as
//! `integrity.*` counters/gauges.

use crate::serial::SerialSolver;
use crate::service::{Outcome, Request};
use crate::three_phase::Serial3Solver;
use crate::SolverArrays;
use numc::{CVec3, Complex};
use primitives::ops::{MaxAbsF64, ScanOp};
use simt::HostProps;
use telemetry::Recorder;

/// Tunables of one [`IntegritySampler`].
#[derive(Clone, Copy, Debug)]
pub struct IntegrityConfig {
    /// Shadow-verify roughly 1 in this many answered requests
    /// (0 disables sampling entirely, 1 verifies every answer).
    pub sample_every: u64,
    /// Seed of the sampling decision stream.
    pub seed: u64,
    /// Per-bus voltage-magnitude parity bar against the oracle, volts.
    pub tol_v: f64,
}

impl Default for IntegrityConfig {
    fn default() -> Self {
        IntegrityConfig { sample_every: 16, seed: 0x51de_c4ec, tol_v: 1e-9 }
    }
}

/// Aggregate shadow-verification counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IntegrityStats {
    /// Answered requests offered to the sampler.
    pub answered: u64,
    /// Answers shadow-verified on the CPU oracle.
    pub sampled: u64,
    /// Shadow verifications that matched within the bar.
    pub verified: u64,
    /// Shadow verifications that diverged from the oracle — each one is
    /// an undetected corruption escaping the lower nets.
    pub mismatches: u64,
    /// Worst per-bus `||V|_answer − |V|_oracle|` seen, volts; NaN once a
    /// verdict's error was NaN.
    pub worst_err_v: f64,
}

/// One shadow-verification outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntegrityVerdict {
    /// Whether the answer matched the oracle within the bar.
    pub ok: bool,
    /// Worst per-bus voltage-magnitude deviation, volts.
    pub err_v: f64,
    /// For batch answers, the scenario the sampler picked.
    pub scenario: Option<usize>,
}

/// SplitMix64 — the repo's standalone decision-stream hash.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded 1-in-K CPU-oracle re-solver for answered requests.
pub struct IntegritySampler {
    cfg: IntegrityConfig,
    host: HostProps,
    stats: IntegrityStats,
    recorder: Option<Recorder>,
}

impl IntegritySampler {
    /// A sampler re-solving on the given host model.
    pub fn new(cfg: IntegrityConfig, host: HostProps) -> Self {
        IntegritySampler { cfg, host, stats: IntegrityStats::default(), recorder: None }
    }

    /// Attaches a telemetry recorder; verdicts land as `integrity.*`
    /// counters and [`IntegritySampler::publish`] exports the gauges.
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Counters so far.
    pub fn stats(&self) -> &IntegrityStats {
        &self.stats
    }

    /// Whether the `n`-th answered request is shadow-verified.
    fn picks(&self, n: u64) -> bool {
        match self.cfg.sample_every {
            0 => false,
            1 => true,
            k => splitmix(self.cfg.seed ^ n).is_multiple_of(k),
        }
    }

    /// Offers one answered request to the sampler. Returns the verdict
    /// when this answer was sampled, `None` when it was passed over (or
    /// carries no verifiable answer).
    pub fn observe(&mut self, req: &Request, outcome: &Outcome) -> Option<IntegrityVerdict> {
        if !matches!(
            outcome,
            Outcome::Solved(_) | Outcome::Solved3(_) | Outcome::Batch(_)
        ) {
            return None;
        }
        let n = self.stats.answered;
        self.stats.answered += 1;
        if !self.picks(n) {
            return None;
        }
        let verdict = self.shadow_solve(req, outcome, n)?;
        self.stats.sampled += 1;
        self.stats.worst_err_v = MaxAbsF64::combine(self.stats.worst_err_v, verdict.err_v);
        if verdict.ok {
            self.stats.verified += 1;
        } else {
            self.stats.mismatches += 1;
        }
        if let Some(rec) = &self.recorder {
            rec.counter_add("integrity.sampled", 1);
            rec.counter_add(
                if verdict.ok { "integrity.verified" } else { "integrity.mismatches" },
                1,
            );
            rec.observe("integrity.err_v", verdict.err_v);
        }
        Some(verdict)
    }

    /// Publishes `integrity.*` gauges on the attached recorder.
    pub fn publish(&self) {
        let Some(rec) = &self.recorder else { return };
        let s = &self.stats;
        rec.gauge_set("integrity.answered", s.answered as f64);
        rec.gauge_set("integrity.sampled", s.sampled as f64);
        rec.gauge_set("integrity.verified", s.verified as f64);
        rec.gauge_set("integrity.mismatches", s.mismatches as f64);
        rec.gauge_set("integrity.worst_err_v", s.worst_err_v);
    }

    /// Re-solves the sampled answer on the CPU oracle and compares.
    fn shadow_solve(
        &self,
        req: &Request,
        outcome: &Outcome,
        n: u64,
    ) -> Option<IntegrityVerdict> {
        match (req, outcome) {
            (Request::Solve { net, cfg }, Outcome::Solved(res)) => {
                let oracle = SerialSolver::new(self.host.clone()).solve(net, cfg);
                Some(self.compare(res.v.iter().copied().zip(oracle.v), None))
            }
            (Request::Solve3 { net, cfg }, Outcome::Solved3(res)) => {
                let oracle = Serial3Solver::new(self.host.clone()).solve(net, cfg);
                let phases = |(a, b): (&CVec3, &CVec3)| a.phases().into_iter().zip(b.phases());
                Some(self.compare(res.v.iter().zip(&oracle.v).flat_map(phases), None))
            }
            (Request::Batch { net, scenarios, cfg }, Outcome::Batch(res)) => {
                if scenarios.is_empty() || res.v.len() != scenarios.len() {
                    return None;
                }
                // One seeded scenario per sampled batch: K answers in, a
                // spread of scenarios out.
                let s = (splitmix(self.cfg.seed ^ n ^ 0xBA7C_5CEB) % scenarios.len() as u64)
                    as usize;
                let mut a = SolverArrays::new(net);
                for (p, slot) in a.s.iter_mut().enumerate() {
                    *slot = scenarios[s][a.levels.order[p] as usize];
                }
                let oracle = SerialSolver::new(self.host.clone()).solve_arrays(&a, cfg);
                Some(self.compare(res.v[s].iter().copied().zip(oracle.v), Some(s)))
            }
            _ => None,
        }
    }

    /// The verdict on answered-vs-oracle phase voltages, one pair per bus
    /// (and phase): the worst `||V|_answer − |V|_oracle|`, folded
    /// NaN-propagating, so a non-finite voltage never passes the bar.
    fn compare(
        &self,
        pairs: impl Iterator<Item = (Complex, Complex)>,
        scenario: Option<usize>,
    ) -> IntegrityVerdict {
        let err = pairs.map(|(a, b)| (a.abs() - b.abs()).abs()).fold(0.0, MaxAbsF64::combine);
        IntegrityVerdict { ok: err <= self.cfg.tol_v, err_v: err, scenario }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SerialSolver, SolverConfig};
    use powergrid::ieee::ieee13;

    fn cfg() -> SolverConfig {
        SolverConfig::new(1e-12, 200)
    }

    fn answered() -> (Request, Outcome) {
        let net = ieee13();
        let res = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg());
        (Request::Solve { net, cfg: cfg() }, Outcome::Solved(res))
    }

    #[test]
    fn sampling_is_seeded_one_in_k_and_deterministic() {
        let run = |seed: u64| {
            let mut s = IntegritySampler::new(
                IntegrityConfig { sample_every: 4, seed, ..IntegrityConfig::default() },
                HostProps::paper_rig(),
            );
            let (req, out) = answered();
            let picks: Vec<bool> =
                (0..64).map(|_| s.observe(&req, &out).is_some()).collect();
            picks
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same picks");
        assert_ne!(a, run(8), "different seed, different picks");
        let hits = a.iter().filter(|&&p| p).count();
        assert!((4..=40).contains(&hits), "1-in-4 sampling picked {hits}/64");
    }

    #[test]
    fn a_clean_answer_verifies_and_a_corrupted_one_is_flagged() {
        let mut s = IntegritySampler::new(
            IntegrityConfig { sample_every: 1, ..IntegrityConfig::default() },
            HostProps::paper_rig(),
        );
        let (req, out) = answered();
        let v = s.observe(&req, &out).expect("sample_every=1 samples everything");
        assert!(v.ok, "clean answer diverged by {:e} V", v.err_v);

        // Corrupt one bus voltage well past the bar.
        let Outcome::Solved(mut res) = out else { unreachable!() };
        res.v[6] += Complex::new(1e-6, 0.0);
        let v = s.observe(&req, &Outcome::Solved(res)).expect("sampled");
        assert!(!v.ok, "corrupted answer passed at {:e} V", v.err_v);
        assert_eq!(s.stats().mismatches, 1);
        assert_eq!(s.stats().verified, 1);
    }

    /// One NaN bus of a single-phase answer and one NaN phase of a
    /// three-phase answer each count as a mismatch, never as verified.
    #[test]
    fn a_nan_bus_or_phase_is_a_mismatch() {
        let mut s = IntegritySampler::new(
            IntegrityConfig { sample_every: 1, ..IntegrityConfig::default() },
            HostProps::paper_rig(),
        );
        let (req, out) = answered();
        let Outcome::Solved(mut res) = out else { unreachable!() };
        res.v[6] = Complex::new(f64::NAN, 0.0);
        let v = s.observe(&req, &Outcome::Solved(res)).expect("sampled");
        assert!(!v.ok && v.err_v.is_nan(), "a NaN bus verified at {:e} V", v.err_v);

        let net = powergrid::three_phase::ieee13_unbalanced();
        let mut res = Serial3Solver::new(HostProps::paper_rig()).solve(&net, &cfg());
        res.v[6].b = Complex::new(f64::NAN, 0.0);
        let req = Request::Solve3 { net, cfg: cfg() };
        let v = s.observe(&req, &Outcome::Solved3(res)).expect("sampled");
        assert!(!v.ok && v.err_v.is_nan(), "a NaN phase verified at {:e} V", v.err_v);
        assert_eq!((s.stats().mismatches, s.stats().verified), (2, 0));
        assert!(s.stats().worst_err_v.is_nan(), "worst error {:e} V", s.stats().worst_err_v);
    }

    #[test]
    fn batch_answers_verify_one_seeded_scenario() {
        let net = ieee13();
        let scenarios: Vec<Vec<Complex>> = (0..6)
            .map(|k| {
                net.buses()
                    .iter()
                    .map(|b| b.load * (0.6 + 0.1 * k as f64))
                    .collect()
            })
            .collect();
        let res = crate::TensorBatchSolver::new(simt::Device::paper_rig()).solve_arrays(
            &SolverArrays::new(&net),
            &scenarios,
            &cfg(),
        );
        let mut s = IntegritySampler::new(
            IntegrityConfig { sample_every: 1, ..IntegrityConfig::default() },
            HostProps::paper_rig(),
        );
        let req = Request::Batch { net, scenarios, cfg: cfg() };
        let verdict = s.observe(&req, &Outcome::Batch(res)).expect("sampled");
        assert!(verdict.ok, "clean batch diverged by {:e} V", verdict.err_v);
        assert!(verdict.scenario.is_some());
    }

    #[test]
    fn counters_land_on_the_recorder() {
        let rec = Recorder::new();
        let mut s = IntegritySampler::new(
            IntegrityConfig { sample_every: 1, ..IntegrityConfig::default() },
            HostProps::paper_rig(),
        )
        .with_recorder(rec.clone());
        let (req, out) = answered();
        s.observe(&req, &out);
        s.publish();
        let (_, reg) = rec.snapshot();
        let counters: std::collections::BTreeMap<&str, u64> = reg.counters().collect();
        assert_eq!(counters["integrity.sampled"], 1);
        assert_eq!(counters["integrity.verified"], 1);
        let gauges: std::collections::BTreeMap<&str, f64> = reg.gauges().collect();
        assert_eq!(gauges["integrity.answered"], 1.0);
        assert_eq!(gauges["integrity.mismatches"], 0.0);
    }
}
