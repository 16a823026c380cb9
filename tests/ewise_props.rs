//! Property tests for the element-wise value loops: `tew_values_into`,
//! `ts_values_into` and `ts_in_place` must match a plain scalar
//! `op.apply` reference bit for bit (`to_bits`), for all four operators on
//! `f32` and `f64`, every pool size and schedule, and lengths that are not
//! multiples of any vector width.
//!
//! Inputs mix ordinary values with NaN, ±0, ±inf, subnormals and values
//! whose sums and products overflow to inf. The error paths (division by a
//! zero of either sign, length mismatch) must leave the output untouched.

use pasta::core::{Error, Value};
use pasta::kernels::{tew_values_into, ts_in_place, ts_values_into, Ctx, EwOp, TsOp};
use pasta::par::Schedule;
use proptest::prelude::*;

/// The value types under test: raw bits in and out, and the special values
/// the palette mixes in.
trait Sample: Value {
    fn from_raw(r: u64) -> Self;
    fn bits(self) -> u64;
    fn is_nan(self) -> bool;
    const SPECIAL: [Self; 12];
}

impl Sample for f32 {
    fn from_raw(r: u64) -> Self {
        f32::from_bits(r as u32)
    }
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
    fn is_nan(self) -> bool {
        f32::is_nan(self)
    }
    const SPECIAL: [Self; 12] = [
        f32::NAN,
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE / 8.0,
        -f32::MIN_POSITIVE / 3.0,
        f32::MAX,
        f32::MIN,
        1.5,
        -2.25,
        3.0e38,
    ];
}

impl Sample for f64 {
    fn from_raw(r: u64) -> Self {
        f64::from_bits(r)
    }
    fn bits(self) -> u64 {
        self.to_bits()
    }
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }
    const SPECIAL: [Self; 12] = [
        f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE / 8.0,
        -f64::MIN_POSITIVE / 3.0,
        f64::MAX,
        f64::MIN,
        1.5,
        -2.25,
        1.7e308,
    ];
}

/// SplitMix64: each proptest case expands one seed into its inputs.
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

    /// A special value half the time, otherwise a random bit pattern (which
    /// reaches every exponent, subnormals and NaN payloads included).
    fn value<V: Sample>(&mut self) -> V {
        if self.next() & 1 == 0 {
            V::SPECIAL[self.below(V::SPECIAL.len())]
        } else {
            V::from_raw(self.next())
        }
    }

    fn values<V: Sample>(&mut self, n: usize) -> Vec<V> {
        (0..n).map(|_| self.value()).collect()
    }
}

/// Every pool size and schedule the kernels must agree across.
fn ctxs() -> Vec<Ctx> {
    let scheds = [Schedule::Static, Schedule::Dynamic(1), Schedule::Dynamic(7), Schedule::Guided];
    [1, 2, 4].iter().flat_map(|&t| scheds.iter().map(move |&s| Ctx::new(t, s))).collect()
}

/// Lengths around every vector width and unroll factor, plus the bounds.
const EDGE_LENS: [usize; 16] = [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 1999, 2000];

/// Asserts `got` matches `want` element for element: identical bits, except
/// that a NaN result only has to be NaN. Rust leaves the payload of an
/// arithmetic NaN unspecified (the compiler may commute `a + b`), so two
/// correct loops can differ there.
fn assert_same<V: Sample>(got: &[V], want: &[V], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        let same = if w.is_nan() { g.is_nan() } else { g.bits() == w.bits() };
        assert!(same, "{what}: element {i} of {}: got {g:?}, want {w:?}", got.len());
    }
}

/// Replaces zeros of either sign, which `Div` rejects, with one.
fn nonzero<V: Sample>(mut y: Vec<V>) -> Vec<V> {
    y.iter_mut().filter(|v| **v == V::ZERO).for_each(|v| *v = V::ONE);
    y
}

/// TS through `ts_values_into` (every context) and `ts_in_place` against
/// the scalar reference, for every operator.
fn check_ts<V: Sample>(rng: &mut Rng, n: usize) {
    let x: Vec<V> = rng.values(n);
    let mut s: V = rng.value();
    for op in TsOp::ALL {
        if op == TsOp::Div && s == V::ZERO {
            s = V::ONE;
        }
        let want: Vec<V> = x.iter().map(|&a| op.apply(a, s)).collect();
        for ctx in ctxs() {
            let mut out = vec![V::ZERO; n];
            ts_values_into(op, &x, s, &mut out, &ctx).unwrap();
            let what = format!("ts {op} n={n} s={s:?} t={} {:?}", ctx.threads, ctx.schedule);
            assert_same(&out, &want, &what);
        }
        let mut vals = x.clone();
        ts_in_place(op, &mut vals, s);
        assert_same(&vals, &want, &format!("ts_in_place {op} n={n} s={s:?}"));
    }
}

/// TEW through `tew_values_into` (every context) against the scalar
/// reference, for every operator.
fn check_tew<V: Sample>(rng: &mut Rng, n: usize) {
    let x: Vec<V> = rng.values(n);
    let y: Vec<V> = rng.values(n);
    let y_div = nonzero(y.clone());
    for op in EwOp::ALL {
        let y = if op == EwOp::Div { &y_div } else { &y };
        let want: Vec<V> = x.iter().zip(y).map(|(&a, &b)| op.apply(a, b)).collect();
        for ctx in ctxs() {
            let mut out = vec![V::ZERO; n];
            tew_values_into(op, &x, y, &mut out, &ctx).unwrap();
            let what = format!("tew {op} n={n} t={} {:?}", ctx.threads, ctx.schedule);
            assert_same(&out, &want, &what);
        }
    }
}

#[test]
fn edge_lengths_match_scalar_reference() {
    let mut rng = Rng(0x5EED);
    for n in EDGE_LENS {
        check_ts::<f32>(&mut rng, n);
        check_ts::<f64>(&mut rng, n);
        check_tew::<f32>(&mut rng, n);
        check_tew::<f64>(&mut rng, n);
    }
}

#[test]
fn overflow_reaches_infinity() {
    let x = vec![f32::MAX; 37];
    let mut out = vec![0.0f32; 37];
    for ctx in ctxs() {
        ts_values_into(TsOp::Mul, &x, 2.0, &mut out, &ctx).unwrap();
        assert!(out.iter().all(|v| *v == f32::INFINITY));
        tew_values_into(EwOp::Add, &x, &x, &mut out, &ctx).unwrap();
        assert!(out.iter().all(|v| *v == f32::INFINITY));
        tew_values_into(EwOp::Sub, &x, &x, &mut out, &ctx).unwrap();
        assert!(out.iter().all(|v| v.to_bits() == 0));
    }
}

#[test]
fn ts_div_by_either_zero_leaves_out_untouched() {
    let x = vec![1.0f64, -2.0, 3.0];
    for s in [0.0, -0.0] {
        for ctx in ctxs() {
            let mut out = vec![7.5f64; 3];
            let r = ts_values_into(TsOp::Div, &x, s, &mut out, &ctx);
            assert!(matches!(r, Err(Error::DivisionByZero)), "s={s:?}: {r:?}");
            assert_eq!(out, vec![7.5; 3]);
        }
    }
}

#[test]
fn tew_div_by_any_zero_leaves_out_untouched() {
    let x = vec![1.0f32; 40];
    for at in [0, 17, 39] {
        for z in [0.0f32, -0.0] {
            let mut y = vec![2.0f32; 40];
            y[at] = z;
            for ctx in ctxs() {
                let mut out = vec![7.5f32; 40];
                let r = tew_values_into(EwOp::Div, &x, &y, &mut out, &ctx);
                assert!(matches!(r, Err(Error::DivisionByZero)), "y[{at}]={z:?}: {r:?}");
                assert!(out.iter().all(|v| v.to_bits() == 7.5f32.to_bits()));
            }
        }
    }
}

#[test]
fn length_mismatch_is_rejected() {
    let ctx = Ctx::new(2, Schedule::Static);
    let x = vec![1.0f32; 5];
    let mut short = vec![0.0f32; 4];
    let r = ts_values_into(TsOp::Add, &x, 1.0, &mut short, &ctx);
    assert!(matches!(r, Err(Error::OperandMismatch { .. })), "{r:?}");
    let r = tew_values_into(EwOp::Add, &x, &x, &mut short, &ctx);
    assert!(matches!(r, Err(Error::OperandMismatch { .. })), "{r:?}");
    let mut out = vec![0.0f32; 5];
    let r = tew_values_into(EwOp::Add, &x, &x[..4], &mut out, &ctx);
    assert!(matches!(r, Err(Error::OperandMismatch { .. })), "{r:?}");
    assert!(out.iter().all(|v| v.to_bits() == 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random lengths 0–2000 on both value types.
    #[test]
    fn prop_value_loops_match_scalar_reference(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let n = rng.below(2001);
        check_ts::<f32>(&mut rng, n);
        check_ts::<f64>(&mut rng, n);
        check_tew::<f32>(&mut rng, n);
        check_tew::<f64>(&mut rng, n);
    }
}
