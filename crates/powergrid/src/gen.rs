//! Synthetic topology generators — the paper's workloads.
//!
//! The abstract evaluates on *balanced binary trees of 1K–256K buses*;
//! [`balanced_binary`] generates exactly those. The topology-discussion
//! experiment (E4) additionally uses [`chain`], [`star`], [`balanced_kary`],
//! [`caterpillar`], [`broom`] and [`random_tree`] to sweep the mean level
//! width at fixed bus count.
//!
//! ## Electrical feasibility
//!
//! Synthetic trees have a physics trap: with branch impedances drawn
//! independently of the topology, a 256K-bus chain drops gigavolts and
//! FBS diverges. Generators therefore size impedances *after* the shape
//! is fixed: [`GenSpec::target_drop`] sets the worst-case flat-voltage
//! drop as a fraction of nominal (default 5%), and branch impedances are
//! scaled so the most-loaded root-to-leaf path meets it. The scaling is
//! documented in `DESIGN.md` as part of the synthetic-workload
//! substitution.

use numc::{c, Complex};
use rng::Rng;

use crate::network::{NetworkBuilder, RadialNetwork};

/// Parameters for synthetic networks.
#[derive(Clone, Debug)]
pub struct GenSpec {
    /// Source (slack) phase voltage, volts. Default 7200 V (a 12.47 kV
    /// three-phase feeder's line-to-neutral voltage).
    pub source_volts: f64,
    /// Total connected real power, watts, split across buses. Default
    /// 2 MW.
    pub total_kw: f64,
    /// Load power factor range (lagging), drawn per bus.
    pub power_factor: (f64, f64),
    /// Per-bus load jitter: each bus gets `mean · U(1−j, 1+j)`.
    pub load_jitter: f64,
    /// Worst-case flat-voltage drop target as a fraction of nominal;
    /// branch impedances are scaled to meet it.
    pub target_drop: f64,
    /// Branch X/R ratio.
    pub x_over_r: f64,
    /// Per-branch impedance jitter (multiplicative, uniform).
    pub z_jitter: f64,
}

impl Default for GenSpec {
    fn default() -> Self {
        GenSpec {
            source_volts: 7200.0,
            total_kw: 2_000.0,
            power_factor: (0.85, 0.98),
            load_jitter: 0.5,
            target_drop: 0.05,
            x_over_r: 0.5,
            z_jitter: 0.3,
        }
    }
}

/// Balanced binary distribution tree of `n` buses (the paper's workload).
pub fn balanced_binary(n: usize, spec: &GenSpec, rng: &mut impl Rng) -> RadialNetwork {
    balanced_kary(n, 2, spec, rng)
}

/// Balanced `k`-ary tree of `n` buses: bus `i`'s children are
/// `k·i+1 ..= k·i+k` (level order by construction).
pub fn balanced_kary(n: usize, k: usize, spec: &GenSpec, rng: &mut impl Rng) -> RadialNetwork {
    assert!(k >= 1, "k-ary tree needs k >= 1");
    from_parent_fn(n, spec, rng, |i| if i == 0 { None } else { Some((i - 1) / k) })
}

/// Chain (feeder with no laterals) — the deepest topology, worst case for
/// level-parallel GPU execution.
pub fn chain(n: usize, spec: &GenSpec, rng: &mut impl Rng) -> RadialNetwork {
    from_parent_fn(n, spec, rng, |i| i.checked_sub(1))
}

/// Star — every load bus hangs off the substation; the shallowest
/// topology, best case for level-parallel execution.
pub fn star(n: usize, spec: &GenSpec, rng: &mut impl Rng) -> RadialNetwork {
    from_parent_fn(n, spec, rng, |i| (i > 0).then_some(0))
}

/// Caterpillar: a spine of `n / (1 + leaves_per_spine)` buses, each spine
/// bus carrying `leaves_per_spine` leaf laterals — the shape of many real
/// feeders (a main trunk with short laterals).
pub fn caterpillar(n: usize, leaves_per_spine: usize, spec: &GenSpec, rng: &mut impl Rng) -> RadialNetwork {
    let stride = 1 + leaves_per_spine;
    from_parent_fn(n, spec, rng, move |i| {
        if i == 0 {
            return None;
        }
        let (seg, off) = (i / stride, i % stride);
        if off == 0 {
            // Next spine bus hangs off the previous spine bus.
            Some((seg - 1) * stride)
        } else {
            // Leaves hang off their segment's spine bus.
            Some(seg * stride)
        }
    })
}

/// Broom: a chain handle of `handle` buses ending in a star of the
/// remaining buses — pathological mix of depth and width.
pub fn broom(n: usize, handle: usize, spec: &GenSpec, rng: &mut impl Rng) -> RadialNetwork {
    assert!(handle >= 1 && handle <= n, "broom handle must be 1..=n");
    from_parent_fn(n, spec, rng, move |i| {
        if i == 0 {
            None
        } else if i < handle {
            Some(i - 1)
        } else {
            Some(handle - 1)
        }
    })
}

/// Random tree: bus `i`'s parent is uniform over the previous
/// `min(i, window)` buses. Small windows give deep, skewed trees; large
/// windows give shallow bushy ones.
pub fn random_tree(n: usize, window: usize, spec: &GenSpec, rng: &mut impl Rng) -> RadialNetwork {
    assert!(window >= 1, "random tree needs window >= 1");
    let parents: Vec<usize> = (0..n)
        .map(|i| {
            if i == 0 {
                usize::MAX
            } else {
                let lo = i.saturating_sub(window);
                rng.gen_range(lo..i)
            }
        })
        .collect();
    from_parent_fn(n, spec, rng, move |i| (i > 0).then(|| parents[i]))
}

/// Core generator: builds a tree from a parent function, assigns random
/// loads summing to `spec.total_kw`, and sizes impedances for the
/// [`GenSpec::target_drop`] feasibility target.
pub fn from_parent_fn(
    n: usize,
    spec: &GenSpec,
    rng: &mut impl Rng,
    parent_of: impl Fn(usize) -> Option<usize>,
) -> RadialNetwork {
    assert!(n >= 1, "network needs at least one bus");
    let mut b = NetworkBuilder::with_capacity(c(spec.source_volts, 0.0), n);

    // Loads: the root carries none (substation); others jittered uniform.
    let mean_w = spec.total_kw * 1e3 / (n.max(2) - 1) as f64;
    let (j_lo, j_hi) = (1.0 - spec.load_jitter, 1.0 + spec.load_jitter);
    for i in 0..n {
        let load = if i == 0 {
            Complex::ZERO
        } else {
            let p = mean_w * rng.gen_range(j_lo..=j_hi);
            let pf: f64 = rng.gen_range(spec.power_factor.0..=spec.power_factor.1);
            let q = p * (1.0 / (pf * pf) - 1.0).sqrt();
            c(p, q)
        };
        b.add_bus(load);
    }

    // Placeholder unit impedances; retuned below once downstream loads
    // are known.
    let mut parent = vec![usize::MAX; n];
    for (i, slot) in parent.iter_mut().enumerate().skip(1) {
        let p = parent_of(i).expect("non-root bus must have a parent");
        *slot = p;
        b.connect(p, i, c(1.0, spec.x_over_r));
    }
    let mut net = b.build().expect("generator produced an invalid tree");

    size_impedances(&mut net, spec, rng, &parent);
    net
}

/// Scales branch impedances so the worst root-to-leaf flat-voltage drop
/// estimate equals `spec.target_drop` of nominal.
///
/// Flat-voltage estimate: branch current ≈ (downstream load) / V, so the
/// drop along a path is `Σ_path |z_unit|·scale·S_down / V`. We compute
/// `W = max over buses of Σ_path S_down` with unit-magnitude impedances
/// and set `scale = target_drop · V² / W`.
fn size_impedances(net: &mut RadialNetwork, spec: &GenSpec, rng: &mut impl Rng, parent: &[usize]) {
    let n = net.num_buses();
    if n == 1 {
        return;
    }
    // Downstream apparent power per bus (including own load): children
    // have higher ids than parents in every generator here? NOT true for
    // random trees… it is: parents are always < i. Rely on that.
    let mut down_va = vec![0.0f64; n];
    for i in (1..n).rev() {
        down_va[i] += net.buses()[i].load.abs();
        let p = parent[i];
        down_va[p] += down_va[i];
    }
    // Path-accumulated drop weight with unit |z|.
    let mut path_w = vec![0.0f64; n];
    let mut worst: f64 = 0.0;
    for i in 1..n {
        let w = path_w[parent[i]] + down_va[i];
        path_w[i] = w;
        worst = worst.max(w);
    }
    if worst == 0.0 {
        return; // no load anywhere; leave unit impedances
    }
    let v = net.source_voltage().abs();
    let scale = spec.target_drop * v * v / worst;
    let (z_lo, z_hi) = (1.0 - spec.z_jitter, 1.0 + spec.z_jitter);
    let unit = c(1.0, spec.x_over_r);
    let jitters: Vec<f64> = (0..net.num_branches()).map(|_| rng.gen_range(z_lo..=z_hi)).collect();
    net.retune_impedances(|i, _| unit * (scale * jitters[i]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::LevelOrder;
    use rng::rngs::StdRng;
    use rng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn spec() -> GenSpec {
        GenSpec::default()
    }

    #[test]
    fn binary_tree_shape() {
        let net = balanced_binary(1023, &spec(), &mut rng());
        let lo = LevelOrder::new(&net);
        lo.check_invariants();
        assert_eq!(net.num_buses(), 1023);
        assert_eq!(lo.num_levels(), 10); // 2^10 − 1 buses
        assert_eq!(lo.level_width(9), 512);
        // Every non-leaf has exactly 2 children.
        let with_two = (0..1023).filter(|&p| lo.children(p).len() == 2).count();
        assert_eq!(with_two, 511);
    }

    #[test]
    fn kary_tree_shape() {
        let net = balanced_kary(100, 4, &spec(), &mut rng());
        let lo = LevelOrder::new(&net);
        lo.check_invariants();
        assert_eq!(lo.num_levels(), 5); // 1+4+16+64 = 85 < 100 ≤ 341
    }

    #[test]
    fn chain_star_extremes() {
        let ch = chain(50, &spec(), &mut rng());
        assert_eq!(LevelOrder::new(&ch).num_levels(), 50);
        let st = star(50, &spec(), &mut rng());
        assert_eq!(LevelOrder::new(&st).num_levels(), 2);
    }

    #[test]
    fn caterpillar_shape() {
        let net = caterpillar(40, 3, &spec(), &mut rng());
        let lo = LevelOrder::new(&net);
        lo.check_invariants();
        // Spine of 10 segments → depth ≈ 11 (spine + final leaves level).
        assert!(lo.num_levels() >= 10 && lo.num_levels() <= 12, "{}", lo.num_levels());
    }

    #[test]
    fn broom_shape() {
        let net = broom(100, 20, &spec(), &mut rng());
        let lo = LevelOrder::new(&net);
        lo.check_invariants();
        assert_eq!(lo.num_levels(), 21); // 20-deep handle + bristle level
        assert_eq!(lo.level_width(20), 80);
    }

    #[test]
    fn random_tree_valid_and_seeded_deterministic() {
        let a = random_tree(500, 8, &spec(), &mut rng());
        let b = random_tree(500, 8, &spec(), &mut rng());
        LevelOrder::new(&a).check_invariants();
        assert_eq!(a.num_buses(), 500);
        // Same seed → identical networks.
        for (x, y) in a.branches().iter().zip(b.branches()) {
            assert_eq!(x, y);
        }
        for (x, y) in a.buses().iter().zip(b.buses()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn loads_sum_to_spec_total() {
        let net = balanced_binary(2000, &spec(), &mut rng());
        let total = net.total_load();
        let want = spec().total_kw * 1e3;
        // Jitter is ±50% per bus but averages out over 2000 buses.
        assert!((total.re - want).abs() < 0.05 * want, "P = {} vs {want}", total.re);
        assert!(total.im > 0.0, "lagging loads consume vars");
    }

    #[test]
    fn impedance_sizing_hits_drop_target() {
        // Flat-voltage drop estimate along the worst path should be ~5%
        // of nominal for every topology, chain included.
        for net in [
            chain(200, &spec(), &mut rng()),
            balanced_binary(511, &spec(), &mut rng()),
            star(200, &spec(), &mut rng()),
        ] {
            let v = net.source_voltage().abs();
            let n = net.num_buses();
            // Recompute the generator's own estimate from the built net.
            let mut down = vec![0.0f64; n];
            for i in (1..n).rev() {
                down[i] += net.buses()[i].load.abs();
                let p = net.parent(i).unwrap();
                down[p] += down[i];
            }
            let mut path = vec![0.0f64; n];
            let mut worst: f64 = 0.0;
            for i in 1..n {
                let p = net.parent(i).unwrap();
                let zb = net.parent_branch(i).unwrap().z.abs();
                path[i] = path[p] + zb * down[i] / v;
                worst = worst.max(path[i]);
            }
            let frac = worst / v;
            assert!(
                frac > 0.02 && frac < 0.08,
                "drop fraction {frac} should be near the 5% target (jitter moves it)"
            );
        }
    }

    #[test]
    fn root_carries_no_load() {
        let net = balanced_binary(100, &spec(), &mut rng());
        assert_eq!(net.buses()[0].load, Complex::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one bus")]
    fn zero_buses_panics() {
        let _ = chain(0, &spec(), &mut rng());
    }

    #[test]
    fn single_bus_ok() {
        let net = star(1, &spec(), &mut rng());
        assert_eq!(net.num_buses(), 1);
    }
}
