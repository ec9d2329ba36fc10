//! Position-space solver arrays.
//!
//! Every solver in this crate — serial included, for a fair comparison —
//! works on the same flat arrays derived once per topology: bus loads and
//! branch impedances permuted into [`powergrid::LevelOrder`] position
//! space, beside the level order itself, the only copy of the topology
//! the kernels index with. This mirrors the paper's host-side
//! preprocessing step (building the device-friendly tree representation
//! before uploading it).

use numc::Complex;
use powergrid::{LevelOrder, RadialNetwork};

/// Flat, level-ordered arrays describing one power-flow problem, generic
/// over the per-bus load phasor `S` and the branch impedance `Z`: one
/// phasor and one scalar impedance per bus in [`SolverArrays`], a phase
/// triple and a 3×3 matrix in [`crate::Arrays3`].
#[derive(Clone, Debug)]
pub struct LevelArrays<S, Z> {
    /// The level-order permutation, level ranges, parent positions and
    /// child ranges.
    pub levels: LevelOrder,
    /// Source (slack) voltage, volts.
    pub source: S,
    /// Per-position constant-power load, VA.
    pub s: Vec<S>,
    /// Per-position impedance of the branch feeding the position from its
    /// parent, ohms (zero at the root, which has no feeding branch).
    pub z: Vec<Z>,
}

/// The single-phase arrays every single-phase solver works on.
pub type SolverArrays = LevelArrays<Complex, Complex>;

impl SolverArrays {
    /// Builds the arrays for a network.
    pub fn new(net: &RadialNetwork) -> Self {
        let levels = LevelOrder::new(net);
        let s = levels.order.iter().map(|&b| net.buses()[b as usize].load).collect();
        let z = levels
            .order
            .iter()
            .map(|&b| net.parent_branch(b as usize).map_or(Complex::ZERO, |br| br.z))
            .collect();
        LevelArrays { levels, source: net.source_voltage(), s, z }
    }
}

impl<S, Z> LevelArrays<S, Z> {
    /// Bus count.
    pub fn len(&self) -> usize {
        self.s.len()
    }

    /// Never empty after network validation.
    pub fn is_empty(&self) -> bool {
        self.s.is_empty()
    }

    /// Number of BFS levels.
    pub fn num_levels(&self) -> usize {
        self.levels.num_levels()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numc::c;
    use powergrid::{NetworkBuilder, NO_PARENT};

    fn small() -> RadialNetwork {
        // 0 → {1, 2}; 1 → {3}
        let mut b = NetworkBuilder::new(c(100.0, 0.0));
        b.add_bus(Complex::ZERO);
        b.add_bus(c(10.0, 5.0));
        b.add_bus(c(20.0, 8.0));
        b.add_bus(c(30.0, 12.0));
        b.connect(0, 1, c(0.5, 0.25));
        b.connect(0, 2, c(0.6, 0.30));
        b.connect(1, 3, c(0.7, 0.35));
        b.build().unwrap()
    }

    #[test]
    fn arrays_are_level_ordered() {
        let a = SolverArrays::new(&small());
        assert_eq!(a.len(), 4);
        assert_eq!(a.num_levels(), 3);
        assert_eq!(a.source, c(100.0, 0.0));
        // Positions: 0, then {1, 2}, then {3}.
        assert_eq!(a.s[0], Complex::ZERO);
        assert_eq!(a.s[1], c(10.0, 5.0));
        assert_eq!(a.s[3], c(30.0, 12.0));
        assert_eq!(a.z[0], Complex::ZERO);
        assert_eq!(a.z[1], c(0.5, 0.25));
        assert_eq!(a.z[3], c(0.7, 0.35));
        assert_eq!(a.levels.parent_pos[0], NO_PARENT);
        assert_eq!(a.levels.parent_pos[3], 1);
    }
}
