//! Property tests for canonical-order reply assembly: the semi-sparse
//! emitter ([`SemiCooTensor::lex_vals`]) and the COO canonicaliser
//! ([`canonical_vals`]) must reproduce the clone-and-sort reference bit for
//! bit (`to_bits`), whichever path they take.
//!
//! The reference builds its COO independently (one `push` per non-zero
//! stored slot, the way `to_coo` used to) and sorts a clone in natural
//! mode order. Cases cover orders 2–5 with every placement of 1–3 dense
//! modes, explicit `0.0`/`-0.0`/NaN values, duplicate coordinates, empty
//! tensors, out-of-order fibers (the fallback) and COO tensors whose
//! recorded sort state is only a prefix of the full order.

use pasta::core::{seeded_matrix, CooTensor, FormatAccess, SemiCooTensor, Shape};
use pasta::kernels::{ttm_coo, Ctx};
use pasta::serve::request::canonical_vals;
use proptest::prelude::*;

/// Values the cases draw from: exact zeros of both signs (dropped),
/// NaN (kept), a subnormal, and ordinary values.
const PALETTE: [f32; 8] = [0.0, -0.0, f32::NAN, 1.5, -2.25, 3.0, 1e-42, -7.0];

/// SplitMix64: each proptest case expands one seed into a whole family of
/// tensors.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn value(&mut self) -> f32 {
        PALETTE[self.below(PALETTE.len())]
    }

    /// Mode lengths 1–3, so coordinates collide often.
    fn dims(&mut self, order: usize) -> Vec<u32> {
        (0..order).map(|_| 1 + self.below(3) as u32).collect()
    }
}

fn bits(vals: &[f32]) -> Vec<u32> {
    vals.iter().map(|v| v.to_bits()).collect()
}

/// The clone-and-sort reference: a stable sort of a copy in natural mode
/// order, then its values.
fn clone_sort_bits(t: &CooTensor<f32>) -> Vec<u32> {
    let mut c = t.clone();
    c.sort_by_mode_order(&(0..t.order()).collect::<Vec<_>>());
    bits(c.vals())
}

/// The non-zero stored slots of `s` pushed one at a time, fiber by fiber.
fn pushed_coo(s: &SemiCooTensor<f32>) -> CooTensor<f32> {
    let mut coo = CooTensor::new(s.shape().clone());
    s.for_each_stored(|coords, v| {
        if v != 0.0 {
            coo.push(coords, v).unwrap();
        }
    });
    coo
}

/// Every choice of 1–3 dense modes out of `order` that leaves a sparse one.
fn dense_layouts(order: usize) -> Vec<Vec<usize>> {
    (1u32..1 << order)
        .filter(|m| (1..=3).contains(&m.count_ones()) && (m.count_ones() as usize) < order)
        .map(|m| (0..order).filter(|&b| m >> b & 1 == 1).collect())
        .collect()
}

/// A semi-sparse tensor with 0–12 fibers over `dense`, fibers sorted
/// lexicographically (duplicates kept) and then optionally reversed.
fn semi_case(rng: &mut Rng, order: usize, dense: &[usize], reverse: bool) -> SemiCooTensor<f32> {
    let dims = rng.dims(order);
    let sparse: Vec<usize> = (0..order).filter(|m| !dense.contains(m)).collect();
    let nf = rng.below(13);
    let mut fibers: Vec<Vec<u32>> = (0..nf)
        .map(|_| sparse.iter().map(|&m| rng.below(dims[m] as usize) as u32).collect())
        .collect();
    fibers.sort();
    if reverse {
        fibers.reverse();
    }
    let dvol: usize = dense.iter().map(|&m| dims[m] as usize).product();
    let vals = (0..nf * dvol).map(|_| rng.value()).collect();
    let inds = (0..sparse.len()).map(|k| fibers.iter().map(|f| f[k]).collect()).collect();
    SemiCooTensor::from_fibers(Shape::new(dims), dense.to_vec(), inds, vals).unwrap()
}

/// Checks the emitter and `to_coo` against the pushed reference.
fn check_semi(s: &SemiCooTensor<f32>) {
    let pushed = pushed_coo(s);
    let coo = s.to_coo();
    assert_eq!(coo.inds(), pushed.inds(), "to_coo must emit the same entries in the same order");
    assert_eq!(bits(coo.vals()), bits(pushed.vals()));
    assert_eq!(bits(&s.lex_vals()), clone_sort_bits(&pushed), "{s:?}");
}

/// A COO tensor of order 2–5 with 0–24 entries in random order; small
/// mode lengths make duplicate coordinates common.
fn coo_case(rng: &mut Rng, order: usize) -> CooTensor<f32> {
    let dims = rng.dims(order);
    let nnz = rng.below(25);
    let inds = dims
        .iter()
        .map(|&d| (0..nnz).map(|_| rng.below(d as usize) as u32).collect())
        .collect::<Vec<Vec<u32>>>();
    let vals = (0..nnz).map(|_| rng.value()).collect();
    CooTensor::from_parts(Shape::new(dims), inds, vals).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ordered fibers: the emitter walks the layout (no fallback) and
    /// matches the reference for every order and dense-mode placement.
    #[test]
    fn prop_emitter_matches_reference_on_ordered_fibers(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        for order in 2..=5 {
            for dense in dense_layouts(order) {
                let s = semi_case(&mut rng, order, &dense, false);
                prop_assert!(s.fibers_lex_ordered());
                check_semi(&s);
            }
        }
    }

    /// Out-of-order fibers take the fallback and still match.
    #[test]
    fn prop_emitter_falls_back_on_shuffled_fibers(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        for order in 2..=5 {
            for dense in dense_layouts(order) {
                let s = semi_case(&mut rng, order, &dense, true);
                let n = s.num_fibers();
                if n > 1 && s.fiber_coords(0) != s.fiber_coords(n - 1) {
                    prop_assert!(!s.fibers_lex_ordered(), "reversed distinct fibers are out of order");
                }
                check_semi(&s);
            }
        }
    }

    /// TTM output over every mode is born fiber-ordered, so serving it
    /// never sorts — and the walk matches the reference.
    #[test]
    fn prop_ttm_output_takes_the_walk(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        for order in 2..=5 {
            let x = coo_case(&mut rng, order);
            for mode in 0..order {
                let u = seeded_matrix(x.shape().dim(mode) as usize, 1 + rng.below(3), seed);
                let s = ttm_coo(&x, &u, mode, &Ctx::sequential()).unwrap();
                prop_assert!(s.fibers_lex_ordered(), "mode {} of order {}", mode, order);
                check_semi(&s);
            }
        }
    }

    /// `canonical_vals` equals clone-and-sort whatever the entry order and
    /// recorded state: none, a mode prefix, the full order, or in order
    /// with nothing recorded (found by the linear check).
    #[test]
    fn prop_canonical_vals_matches_clone_sort(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let full = |t: &CooTensor<f32>| (0..t.order()).collect::<Vec<_>>();
        for order in 2..=5 {
            let x = coo_case(&mut rng, order);
            let want = clone_sort_bits(&x);
            prop_assert_eq!(bits(&canonical_vals(&x)), want.clone());

            let mut prefix = x.clone();
            prefix.sort_by_mode_order(&[rng.below(order)]);
            prop_assert_eq!(bits(&canonical_vals(&prefix)), clone_sort_bits(&prefix));

            let mut sorted = x.clone();
            sorted.sort();
            prop_assert!(sorted.is_sorted_by(&full(&sorted)));
            prop_assert_eq!(bits(&canonical_vals(&sorted)), want.clone());

            let (shape, inds, vals) = sorted.into_parts();
            let unrecorded = CooTensor::from_parts(shape, inds, vals).unwrap();
            prop_assert!(unrecorded.sorted_by().is_none());
            prop_assert!(unrecorded.is_sorted_by(&full(&unrecorded)));
            prop_assert_eq!(bits(&canonical_vals(&unrecorded)), want);
        }
    }
}

/// Duplicate coordinates keep their storage order on every path.
#[test]
fn duplicates_keep_storage_order() {
    let x = CooTensor::from_parts(
        Shape::new(vec![2, 2]),
        vec![vec![1, 0, 1, 0], vec![0, 1, 0, 1]],
        vec![1.0_f32, 2.0, 3.0, 4.0],
    )
    .unwrap();
    assert_eq!(canonical_vals(&x), vec![2.0, 4.0, 1.0, 3.0]);
    // Two identical fibers (0,·) and (0,·) over dense mode 1.
    let s = SemiCooTensor::from_fibers(
        Shape::new(vec![2, 2]),
        vec![1],
        vec![vec![0, 0]],
        vec![1.0_f32, 2.0, 3.0, 4.0],
    )
    .unwrap();
    assert!(s.fibers_lex_ordered());
    assert_eq!(s.lex_vals(), vec![1.0, 3.0, 2.0, 4.0]);
    check_semi(&s);
}

/// A recorded prefix does not vouch for the full order.
#[test]
fn prefix_state_is_not_trusted() {
    let mut x = CooTensor::from_parts(
        Shape::new(vec![2, 3]),
        vec![vec![0, 0, 1], vec![2, 1, 0]],
        vec![1.0_f32, 2.0, 3.0],
    )
    .unwrap();
    x.sort_by_mode_order(&[0]);
    assert_eq!(x.sorted_by(), Some(&[0usize][..]));
    assert!(!x.is_sorted_by(&[0, 1]));
    assert_eq!(canonical_vals(&x), vec![2.0, 1.0, 3.0]);
}
