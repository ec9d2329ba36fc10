//! The per-bus phasor every sweep is generic over: [`Complex`], or a
//! [`CVec3`] phase triple. Its sweep steps, cost model, device sum and
//! PV control quantities let one serial loop, one set of level kernels,
//! one engine interface and one DG outer loop serve both phase kinds.

use std::ops::{AddAssign, Sub, SubAssign};

use numc::{CMat3, CVec3, Complex};
use primitives::ops::{AddCVec3, AddComplex, MaxAbsF64, ScanOp};
use simt::{AtomicAdd, DeviceCopy};

mod sealed {
    pub trait Sealed {}
    impl Sealed for numc::Complex {}
    impl Sealed for numc::CVec3 {}
}

/// A per-bus phasor: implemented for [`Complex`] and [`CVec3`] only.
///
/// The flop constants are charged per bus by the serial sweep's host
/// model (see [`simt::HostProps`]) and by the level kernels; the byte
/// charges follow from the sizes of the phasor and of [`Phasor::Z`].
/// The backward sweep sums child currents with [`Phasor::Sum`] (the
/// segmented scan) or the device `atomic_add` (the atomic scatter).
pub trait Phasor:
    sealed::Sealed + AtomicAdd + PartialEq + AddAssign + SubAssign + Sub<Output = Self>
{
    /// The branch impedance: a scalar, or a 3×3 phase matrix.
    type Z: DeviceCopy + PartialEq;
    /// Phasor addition as a scan operator.
    type Sum: ScanOp<Self>;
    /// Flops of one injection.
    const INJ_FLOPS: u64;
    /// Flops per child edge of the backward sweep (one phasor add).
    const BWD_FLOPS: u64;
    /// Flops per non-root bus of the forward sweep (drop, subtract, norm).
    const FWD_FLOPS: u64;
    /// Resident bytes a sweep cycles through: S, Z, V, I, J plus the
    /// integer topology arrays.
    const WORKING_SET_BYTES: u64;
    /// Bytes touched building the level-order arrays (setup, no flops).
    const SETUP_BYTES: u64;

    /// The magnitude every convergence gate measures: the worst phase's.
    /// It is NaN when any component is, or a corrupted phase slips past.
    fn norm(self) -> f64;
    /// The load current `conj(S/V)` per phase (zero for a zero load).
    fn inject(s: Self, v: Self) -> Self;
    /// The voltage drop `Z·J` across a branch.
    fn z_mul(z: Self::Z, j: Self) -> Self;
    /// The voltage magnitude a PV generator regulates: `|V|`, or the
    /// mean phase magnitude (regulators act on an average; the mean keeps
    /// the control scalar smooth under unbalance).
    fn control_mag(self) -> f64;
    /// A generator's voltage sensitivity to its total Q, ohms, from the
    /// branch impedances up its root path: their summed reactance, or
    /// their summed mean self-reactance over 3, as the Q splits equally
    /// across three phases.
    fn q_sensitivity(path: impl Iterator<Item = Self::Z>) -> f64;
    /// A balanced generator's total power `s` as the per-bus load term:
    /// all of it on one phase, or an equal third on each of three.
    fn split(s: Complex) -> Self;
    /// Per-bus values as single-phase phasors, for break-point
    /// compensation; `None` for three-phase networks, which are radial.
    fn single_phase(v: &[Self]) -> Option<&[Complex]>;
    /// [`Phasor::single_phase`], mutably.
    fn single_phase_mut(v: &mut [Self]) -> Option<&mut [Complex]>;
}

impl Phasor for Complex {
    type Z = Complex;
    type Sum = AddComplex;
    const INJ_FLOPS: u64 = Complex::DIV_FLOPS + 1;
    const BWD_FLOPS: u64 = Complex::ADD_FLOPS;
    const FWD_FLOPS: u64 = Complex::MUL_FLOPS + Complex::ADD_FLOPS + 4;
    const WORKING_SET_BYTES: u64 = 112;
    const SETUP_BYTES: u64 = 128;

    fn norm(self) -> f64 {
        self.abs()
    }

    fn inject(s: Complex, v: Complex) -> Complex {
        if s == Complex::ZERO {
            Complex::ZERO
        } else {
            (s / v).conj()
        }
    }

    fn z_mul(z: Complex, j: Complex) -> Complex {
        z * j
    }

    fn control_mag(self) -> f64 {
        self.abs()
    }

    fn q_sensitivity(path: impl Iterator<Item = Complex>) -> f64 {
        path.fold(0.0, |x, z| x + z.im)
    }

    fn split(s: Complex) -> Complex {
        s
    }

    fn single_phase(v: &[Complex]) -> Option<&[Complex]> {
        Some(v)
    }

    fn single_phase_mut(v: &mut [Complex]) -> Option<&mut [Complex]> {
        Some(v)
    }
}

impl Phasor for CVec3 {
    type Z = CMat3;
    type Sum = AddCVec3;
    const INJ_FLOPS: u64 = 3 * (Complex::DIV_FLOPS + 1);
    const BWD_FLOPS: u64 = CVec3::ADD_FLOPS;
    const FWD_FLOPS: u64 = CMat3::MULVEC_FLOPS + CVec3::ADD_FLOPS + 12;
    const WORKING_SET_BYTES: u64 = 360;
    const SETUP_BYTES: u64 = 256;

    /// Unlike [`CVec3::abs_max`], a NaN in any phase makes it NaN.
    fn norm(self) -> f64 {
        self.phases().iter().fold(0.0, |m, p| MaxAbsF64::combine(m, p.abs()))
    }

    fn inject(s: CVec3, v: CVec3) -> CVec3 {
        CVec3 {
            a: Complex::inject(s.a, v.a),
            b: Complex::inject(s.b, v.b),
            c: Complex::inject(s.c, v.c),
        }
    }

    fn z_mul(z: CMat3, j: CVec3) -> CVec3 {
        z.mul_vec(j)
    }

    fn control_mag(self) -> f64 {
        (self.a.abs() + self.b.abs() + self.c.abs()) / 3.0
    }

    fn q_sensitivity(path: impl Iterator<Item = CMat3>) -> f64 {
        let self_x = |z: CMat3| (z.m[0][0].im + z.m[1][1].im + z.m[2][2].im) / 3.0;
        path.fold(0.0, |x, z| x + self_x(z)) / 3.0
    }

    fn split(s: Complex) -> CVec3 {
        CVec3::splat(s / 3.0)
    }

    fn single_phase(_: &[CVec3]) -> Option<&[Complex]> {
        None
    }

    fn single_phase_mut(_: &mut [CVec3]) -> Option<&mut [Complex]> {
        None
    }
}
