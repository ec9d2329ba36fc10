//! Composable value generators with simple integer/size shrinking.
//!
//! A [`Gen<T>`] pairs a sampling function (seeded `StdRng` in, value
//! out) with a shrinker (value in, simpler candidate values out). The
//! combinators mirror the slice of `proptest` this repo used: ranges,
//! constants, one-of alternation, tuples, mapped values and vectors.
//!
//! Shrinking is deliberately minimal: integer and length shrinking move
//! values toward the generator's lower bound, tuples shrink one
//! component at a time, and `map`ped generators don't shrink (the
//! mapping is not invertible). That is enough to turn "fails at
//! n = 793, seed 0x…" into "fails at n = 2" for the suites here.

use std::fmt::Debug;
use std::ops::Range;
use std::rc::Rc;

use rng::rngs::StdRng;
use rng::Rng;

/// A shared shrinking function: candidate smaller values for a failure.
type ShrinkFn<T> = Rc<dyn Fn(&T) -> Vec<T>>;

/// A reusable generator of `T` values: sampling plus shrinking.
pub struct Gen<T> {
    sample: Rc<dyn Fn(&mut StdRng) -> T>,
    shrink: ShrinkFn<T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen { sample: Rc::clone(&self.sample), shrink: Rc::clone(&self.shrink) }
    }
}

impl<T: 'static> Gen<T> {
    /// Builds a generator from explicit sample and shrink functions.
    pub fn new(
        sample: impl Fn(&mut StdRng) -> T + 'static,
        shrink: impl Fn(&T) -> Vec<T> + 'static,
    ) -> Self {
        Gen { sample: Rc::new(sample), shrink: Rc::new(shrink) }
    }

    /// A generator that samples with `sample` and never shrinks.
    pub fn no_shrink(sample: impl Fn(&mut StdRng) -> T + 'static) -> Self {
        Gen::new(sample, |_| Vec::new())
    }

    /// Draws one value.
    pub fn sample(&self, rng: &mut StdRng) -> T {
        (self.sample)(rng)
    }

    /// Proposes strictly-simpler candidates for `value` (possibly none).
    pub fn shrink(&self, value: &T) -> Vec<T> {
        (self.shrink)(value)
    }

    /// Maps generated values through `f`. The result does not shrink:
    /// `f` is not invertible, so shrunk pre-images can't be recovered.
    pub fn map<U: 'static>(self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        let sample = self.sample;
        Gen::no_shrink(move |rng| f(sample(rng)))
    }
}

/// Integer candidates between `lo` and `v` (exclusive), simplest first.
fn shrink_toward(lo: u64, v: u64) -> Vec<u64> {
    // Halving ladder from below (QuickCheck-style): lo, v - d/2, v - d/4,
    // …, v - 1. Greedy retries from the first failing candidate, so the
    // boundary of a failing region is located in O(log d) rounds rather
    // than the minus-one linear walk a [lo, mid, v-1] list collapses to.
    let mut out = Vec::new();
    if v > lo {
        out.push(lo);
        let mut step = (v - lo) / 2;
        while step > 0 {
            let cand = v - step;
            if cand != lo && out.last() != Some(&cand) {
                out.push(cand);
            }
            step /= 2;
        }
    }
    out
}

/// Uniform `usize` in `lo..hi`, shrinking toward `lo`.
pub fn usize_in(range: Range<usize>) -> Gen<usize> {
    let (lo, hi) = (range.start, range.end);
    assert!(lo < hi, "empty range");
    Gen::new(
        move |rng| rng.gen_range(lo..hi),
        move |&v| shrink_toward(lo as u64, v as u64).into_iter().map(|x| x as usize).collect(),
    )
}

/// Uniform `u64` over the full domain, shrinking toward 0.
pub fn u64_any() -> Gen<u64> {
    Gen::new(|rng| rng.next_u64(), |&v| shrink_toward(0, v))
}

/// Uniform `u64` in `lo..hi`, shrinking toward `lo`.
pub fn u64_in(range: Range<u64>) -> Gen<u64> {
    let (lo, hi) = (range.start, range.end);
    assert!(lo < hi, "empty range");
    Gen::new(move |rng| rng.gen_range(lo..hi), move |&v| shrink_toward(lo, v))
}

/// Uniform `f64` in `lo..hi`. Floats don't shrink.
pub fn f64_in(range: Range<f64>) -> Gen<f64> {
    let (lo, hi) = (range.start, range.end);
    assert!(lo < hi, "empty range");
    Gen::no_shrink(move |rng| rng.gen_range(lo..hi))
}

/// Always `value`.
pub fn just<T: Clone + 'static>(value: T) -> Gen<T> {
    Gen::no_shrink(move |_| value.clone())
}

/// Picks one alternative uniformly per case. Does not shrink (the
/// chosen alternative isn't recorded in the value).
pub fn one_of<T: 'static>(alts: Vec<Gen<T>>) -> Gen<T> {
    assert!(!alts.is_empty(), "one_of needs at least one alternative");
    Gen::no_shrink(move |rng| {
        let i = rng.gen_range(0..alts.len());
        alts[i].sample(rng)
    })
}

/// Vector of `elem` values with length in `len`, shrinking by dropping
/// chunks (toward the minimum length) and then shrinking single
/// elements in place.
pub fn vec_of<T: Clone + Debug + 'static>(elem: Gen<T>, len: Range<usize>) -> Gen<Vec<T>> {
    let (lo, hi) = (len.start, len.end);
    assert!(lo < hi, "empty length range");
    let sample_elem = elem.clone();
    Gen::new(
        move |rng| {
            let n = rng.gen_range(lo..hi);
            (0..n).map(|_| sample_elem.sample(rng)).collect()
        },
        move |v: &Vec<T>| {
            let mut out: Vec<Vec<T>> = Vec::new();
            // Structural shrinks first: halves, then drop-one.
            if v.len() / 2 >= lo && v.len() > 1 {
                out.push(v[..v.len() / 2].to_vec());
                out.push(v[v.len() / 2..].to_vec());
            }
            if v.len() > lo {
                for i in 0..v.len().min(4) {
                    let mut shorter = v.clone();
                    shorter.remove(i);
                    out.push(shorter);
                }
            }
            // Element shrinks: first candidate per position, capped.
            for i in 0..v.len().min(8) {
                if let Some(simpler) = elem.shrink(&v[i]).into_iter().next() {
                    let mut modified = v.clone();
                    modified[i] = simpler;
                    out.push(modified);
                }
            }
            out
        },
    )
}

macro_rules! tuple_gen {
    ($fn_name:ident, $($g:ident : $T:ident @ $idx:tt),+) => {
        /// Tuple generator; shrinks one component at a time.
        pub fn $fn_name<$($T: Clone + 'static),+>($($g: Gen<$T>),+) -> Gen<($($T,)+)> {
            let samplers = ($($g.clone(),)+);
            let shrinkers = ($($g,)+);
            Gen::new(
                move |rng| ($(samplers.$idx.sample(rng),)+),
                move |v| {
                    let mut out = Vec::new();
                    $(
                        for cand in shrinkers.$idx.shrink(&v.$idx) {
                            let mut t = v.clone();
                            t.$idx = cand;
                            out.push(t);
                        }
                    )+
                    out
                },
            )
        }
    };
}

tuple_gen!(tuple2, a: A @ 0, b: B @ 1);
tuple_gen!(tuple3, a: A @ 0, b: B @ 1, c: C @ 2);
tuple_gen!(tuple4, a: A @ 0, b: B @ 1, c: C @ 2, d: D @ 3);

#[cfg(test)]
mod tests {
    use super::*;
    use rng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    #[test]
    fn ranges_respect_bounds() {
        let g = usize_in(5..10);
        let mut r = rng();
        for _ in 0..500 {
            assert!((5..10).contains(&g.sample(&mut r)));
        }
    }

    #[test]
    fn shrink_moves_toward_lower_bound() {
        let g = usize_in(2..600);
        let cands = g.shrink(&500);
        assert!(cands.contains(&2));
        assert!(cands.iter().all(|c| (2..500).contains(c)), "{cands:?}");
        assert!(g.shrink(&2).is_empty(), "lower bound is minimal");
    }

    #[test]
    fn tuple_shrinks_one_component_at_a_time() {
        let g = tuple2(usize_in(1..100), u64_any());
        for (a, b) in g.shrink(&(50, 40)) {
            assert!((a == 50) ^ (b == 40), "({a}, {b})");
        }
    }

    #[test]
    fn vec_of_shrinks_length() {
        let g = vec_of(usize_in(0..50), 1..20);
        let v: Vec<usize> = vec![9; 10];
        assert!(g.shrink(&v).iter().any(|c| c.len() < v.len()));
    }

    #[test]
    fn map_transforms_and_does_not_shrink() {
        let g = usize_in(1..10).map(|x| x * 2);
        let mut r = rng();
        let v = g.sample(&mut r);
        assert_eq!(v % 2, 0);
        assert!(g.shrink(&v).is_empty());
    }

    #[test]
    fn one_of_picks_all_alternatives() {
        let g = one_of(vec![just(1usize), just(2), just(3)]);
        let mut r = rng();
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[g.sample(&mut r)] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let g = tuple3(usize_in(0..1000), u64_any(), f64_in(0.0..1.0));
        let a = g.sample(&mut rng());
        let b = g.sample(&mut rng());
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2.to_bits(), b.2.to_bits());
    }
}
