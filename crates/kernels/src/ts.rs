//! TS — tensor-scalar operations (Section II-B).
//!
//! `Y = X op s` applied to the non-zero values only, for
//! `op ∈ {+, −, ×, ÷}`. The output shares the input's pattern, so the kernel
//! is a pure streaming pass over the value array: 1 flop per 8 bytes
//! (read + write), the highest-bandwidth kernel in the suite.

use crate::pipeline::{Ctx, TsOp};
use pasta_core::{
    CooTensor, CsfTensor, Error, FCooTensor, FormatAccess, GHiCooTensor, HiCooTensor, Result,
    SHiCooTensor, SemiCooTensor, Value,
};
use pasta_par::{parallel_for, SharedSlice};

/// The tensor-scalar value loop shared by every format's kernel.
fn ts_vals<V: Value>(op: TsOp, x: &[V], s: V, out: &mut [V], ctx: &Ctx) -> Result<()> {
    debug_assert_eq!(x.len(), out.len());
    if op == TsOp::Div && s == V::ZERO {
        return Err(Error::DivisionByZero);
    }
    let shared = SharedSlice::new(out);
    parallel_for(x.len(), ctx.threads, ctx.schedule, |range| {
        // SAFETY: parallel_for ranges partition the index space, so no other
        // worker touches `range` while this slice lives.
        let out = unsafe { shared.slice_mut(range.clone()) };
        ts_slice(op, &x[range], s, out);
    });
    Ok(())
}

/// `out[i] = x[i] op s` over one range. The operator is matched once and
/// each arm is a zipped slice loop with no aliasing store, so it vectorizes;
/// every element still gets exactly one IEEE operation.
fn ts_slice<V: Value>(op: TsOp, x: &[V], s: V, out: &mut [V]) {
    let pairs = out.iter_mut().zip(x);
    match op {
        TsOp::Add => pairs.for_each(|(o, &a)| *o = a + s),
        TsOp::Sub => pairs.for_each(|(o, &a)| *o = a - s),
        TsOp::Mul => pairs.for_each(|(o, &a)| *o = a * s),
        TsOp::Div => pairs.for_each(|(o, &a)| *o = a / s),
    }
}

/// `v = v op s` for every element of `vals`, sequentially and in place —
/// the same loop shape as the TS kernel, for values already owned by the
/// caller (expression-graph epilogues and folded TS edges).
///
/// Unlike [`ts_values_into`] this does not reject `Div` by zero; callers
/// that must, check first.
pub fn ts_in_place<V: Value>(op: TsOp, vals: &mut [V], s: V) {
    let vals = vals.iter_mut();
    match op {
        TsOp::Add => vals.for_each(|v| *v += s),
        TsOp::Sub => vals.for_each(|v| *v -= s),
        TsOp::Mul => vals.for_each(|v| *v *= s),
        TsOp::Div => vals.for_each(|v| *v /= s),
    }
}

/// The bare TS value loop on pre-allocated buffers — the portion the
/// paper's methodology times.
///
/// # Errors
///
/// Returns [`Error::DivisionByZero`] for `Div` with `s == 0`, and
/// [`Error::OperandMismatch`] for a length mismatch.
pub fn ts_values_into<V: Value>(op: TsOp, x: &[V], s: V, out: &mut [V], ctx: &Ctx) -> Result<()> {
    if x.len() != out.len() {
        return Err(Error::OperandMismatch {
            what: format!("value arrays of lengths {} and {}", x.len(), out.len()),
        });
    }
    ts_vals(op, x, s, out, ctx)
}

/// TS over any format: `Y = X op s` applied to the stored values.
///
/// The one tensor-scalar kernel, written once against [`FormatAccess`]: the
/// output reuses `x`'s structure verbatim and the value loop streams from
/// `x`'s stored values into the output's. Semi-sparse formats transform the
/// explicit zeros stored inside dense fibers like any other stored value.
///
/// # Errors
///
/// Returns [`Error::DivisionByZero`] for `Div` with `s == 0`.
pub fn ts_any<V: Value, T: FormatAccess<V> + Clone>(op: TsOp, x: &T, s: V, ctx: &Ctx) -> Result<T> {
    let mut y = x.clone();
    ts_vals(op, x.stored_vals(), s, y.stored_vals_mut(), ctx)?;
    Ok(y)
}

/// COO-TS: `Y = X op s` over the non-zeros.
///
/// # Errors
///
/// Returns [`Error::DivisionByZero`] for `Div` with `s == 0`.
///
/// # Examples
///
/// ```
/// use pasta_core::{CooTensor, Shape};
/// use pasta_kernels::{ts_coo, Ctx, TsOp};
///
/// # fn main() -> Result<(), pasta_core::Error> {
/// let x = CooTensor::from_entries(Shape::new(vec![2, 2]), vec![(vec![0, 1], 2.0_f32)])?;
/// let y = ts_coo(TsOp::Mul, &x, 3.0, &Ctx::sequential())?;
/// assert_eq!(y.get(&[0, 1]), Some(6.0));
/// # Ok(())
/// # }
/// ```
pub fn ts_coo<V: Value>(op: TsOp, x: &CooTensor<V>, s: V, ctx: &Ctx) -> Result<CooTensor<V>> {
    ts_any(op, x, s, ctx)
}

/// HiCOO-TS: identical value computation on the HiCOO value array —
/// [`ts_any`].
///
/// # Errors
///
/// Returns [`Error::DivisionByZero`] for `Div` with `s == 0`.
pub fn ts_hicoo<V: Value>(op: TsOp, x: &HiCooTensor<V>, s: V, ctx: &Ctx) -> Result<HiCooTensor<V>> {
    ts_any(op, x, s, ctx)
}

/// sCOO-TS: the value loop runs over the dense per-fiber value arrays;
/// stored zeros inside fibers are transformed like any other stored value —
/// [`ts_any`].
///
/// # Errors
///
/// Returns [`Error::DivisionByZero`] for `Div` with `s == 0`.
pub fn ts_scoo<V: Value>(
    op: TsOp,
    x: &SemiCooTensor<V>,
    s: V,
    ctx: &Ctx,
) -> Result<SemiCooTensor<V>> {
    ts_any(op, x, s, ctx)
}

/// gHiCOO-TS: identical value computation on the gHiCOO value array —
/// [`ts_any`].
///
/// # Errors
///
/// Returns [`Error::DivisionByZero`] for `Div` with `s == 0`.
pub fn ts_ghicoo<V: Value>(
    op: TsOp,
    x: &GHiCooTensor<V>,
    s: V,
    ctx: &Ctx,
) -> Result<GHiCooTensor<V>> {
    ts_any(op, x, s, ctx)
}

/// sHiCOO-TS: identical value computation on the sHiCOO value array —
/// [`ts_any`].
///
/// # Errors
///
/// Returns [`Error::DivisionByZero`] for `Div` with `s == 0`.
pub fn ts_shicoo<V: Value>(
    op: TsOp,
    x: &SHiCooTensor<V>,
    s: V,
    ctx: &Ctx,
) -> Result<SHiCooTensor<V>> {
    ts_any(op, x, s, ctx)
}

/// CSF-TS: the fiber tree is reused and the leaf values transformed —
/// [`ts_any`].
///
/// # Errors
///
/// Returns [`Error::DivisionByZero`] for `Div` with `s == 0`.
pub fn ts_csf<V: Value>(op: TsOp, x: &CsfTensor<V>, s: V, ctx: &Ctx) -> Result<CsfTensor<V>> {
    ts_any(op, x, s, ctx)
}

/// F-COO-TS: the fiber layout is reused and the values transformed —
/// [`ts_any`].
///
/// # Errors
///
/// Returns [`Error::DivisionByZero`] for `Div` with `s == 0`.
pub fn ts_fcoo<V: Value>(op: TsOp, x: &FCooTensor<V>, s: V, ctx: &Ctx) -> Result<FCooTensor<V>> {
    ts_any(op, x, s, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasta_core::Shape;

    fn base() -> CooTensor<f32> {
        CooTensor::from_entries(
            Shape::new(vec![4, 4]),
            vec![(vec![0, 0], 1.0), (vec![1, 2], -2.0), (vec![3, 3], 4.0)],
        )
        .unwrap()
    }

    #[test]
    fn all_ops() {
        let x = base();
        let ctx = Ctx::sequential();
        assert_eq!(ts_coo(TsOp::Add, &x, 1.0, &ctx).unwrap().vals(), &[2.0, -1.0, 5.0]);
        assert_eq!(ts_coo(TsOp::Sub, &x, 1.0, &ctx).unwrap().vals(), &[0.0, -3.0, 3.0]);
        assert_eq!(ts_coo(TsOp::Mul, &x, 2.0, &ctx).unwrap().vals(), &[2.0, -4.0, 8.0]);
        assert_eq!(ts_coo(TsOp::Div, &x, 2.0, &ctx).unwrap().vals(), &[0.5, -1.0, 2.0]);
    }

    #[test]
    fn div_by_zero_rejected() {
        let x = base();
        assert!(matches!(
            ts_coo(TsOp::Div, &x, 0.0, &Ctx::sequential()),
            Err(Error::DivisionByZero)
        ));
        let hx = HiCooTensor::from_coo(&x, 2).unwrap();
        assert!(matches!(
            ts_hicoo(TsOp::Div, &hx, 0.0, &Ctx::sequential()),
            Err(Error::DivisionByZero)
        ));
    }

    #[test]
    fn pattern_preserved() {
        let x = base();
        let y = ts_coo(TsOp::Mul, &x, 5.0, &Ctx::sequential()).unwrap();
        assert!(x.same_pattern(&y));
    }

    #[test]
    fn scalar_add_touches_only_nonzeros() {
        // TS on sparse tensors is defined on stored values only: zeros stay zero.
        let x = base();
        let y = ts_coo(TsOp::Add, &x, 100.0, &Ctx::sequential()).unwrap();
        assert_eq!(y.nnz(), 3);
        assert_eq!(y.get(&[0, 1]), None);
    }

    #[test]
    fn parallel_matches_sequential() {
        let entries: Vec<(Vec<u32>, f32)> =
            (0..5000u32).map(|i| (vec![i % 70, i / 70], (i as f32).cos())).collect();
        let x = CooTensor::from_entries(Shape::new(vec![70, 80]), entries).unwrap();
        let seq = ts_coo(TsOp::Mul, &x, 1.25, &Ctx::sequential()).unwrap();
        let par = ts_coo(TsOp::Mul, &x, 1.25, &Ctx::new(8, pasta_par::Schedule::Guided)).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn hicoo_matches_coo() {
        let x = base();
        let hx = HiCooTensor::from_coo(&x, 4).unwrap();
        let y_coo = ts_coo(TsOp::Mul, &x, -3.0, &Ctx::sequential()).unwrap();
        let y_hicoo = ts_hicoo(TsOp::Mul, &hx, -3.0, &Ctx::sequential()).unwrap();
        let mut a = y_hicoo.to_coo();
        a.sort();
        let mut b = y_coo;
        b.sort();
        assert_eq!(a, b);
        // Structure untouched.
        assert_eq!(y_hicoo.bptr(), hx.bptr());
    }

    #[test]
    fn blocked_and_fiber_formats_match_coo() {
        let x3 = CooTensor::from_entries(
            Shape::new(vec![4, 4, 2]),
            vec![(vec![0, 0, 0], 1.0_f32), (vec![1, 2, 1], -2.0), (vec![3, 3, 0], 4.0)],
        )
        .unwrap();
        let ctx = Ctx::sequential();
        let want = {
            let mut w = ts_coo(TsOp::Add, &x3, 0.5, &ctx).unwrap();
            w.sort();
            w
        };

        let gx = GHiCooTensor::from_coo(&x3, 2, &[true, true, false]).unwrap();
        let mut got = ts_ghicoo(TsOp::Add, &gx, 0.5, &ctx).unwrap().to_coo();
        got.sort();
        assert_eq!(got, want);

        let sx = SemiCooTensor::from_fibers(
            Shape::new(vec![3, 4, 2]),
            vec![2],
            vec![vec![0, 1], vec![0, 2]],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap();
        let want_s = {
            let mut w = ts_coo(TsOp::Mul, &sx.to_coo(), 2.0, &ctx).unwrap();
            w.sort();
            w
        };
        let y = ts_scoo(TsOp::Mul, &sx, 2.0, &ctx).unwrap();
        let mut got_s = y.to_coo();
        got_s.sort();
        assert_eq!(got_s, want_s);
        assert_eq!(y.sparse_inds(0), sx.sparse_inds(0));

        let shx = SHiCooTensor::from_scoo(&sx, 2).unwrap();
        let z = ts_shicoo(TsOp::Mul, &shx, 2.0, &ctx).unwrap();
        let mut got_sh = z.to_scoo().unwrap().to_coo();
        got_sh.sort();
        assert_eq!(got_sh, want_s);
        assert_eq!(z.bptr(), shx.bptr());
    }

    #[test]
    fn csf_and_fcoo_match_coo() {
        let x3 = CooTensor::from_entries(
            Shape::new(vec![4, 4, 2]),
            vec![(vec![0, 0, 0], 1.0_f32), (vec![1, 2, 1], -2.0), (vec![3, 3, 0], 4.0)],
        )
        .unwrap();
        let ctx = Ctx::sequential();
        let want = {
            let mut w = ts_coo(TsOp::Sub, &x3, 0.25, &ctx).unwrap();
            w.sort();
            w
        };
        let cx = CsfTensor::from_coo(&x3, &[0, 1, 2]).unwrap();
        let yc = ts_csf(TsOp::Sub, &cx, 0.25, &ctx).unwrap();
        let mut got_c = yc.to_coo();
        got_c.sort();
        assert_eq!(got_c, want);
        assert_eq!(yc.mode_order(), cx.mode_order());

        let fx = FCooTensor::from_coo(&x3, 2).unwrap();
        let yf = ts_fcoo(TsOp::Sub, &fx, 0.25, &ctx).unwrap();
        let mut got_f = yf.to_coo();
        got_f.sort();
        assert_eq!(got_f, want);
        assert_eq!(yf.start_flags(), fx.start_flags());
    }

    #[test]
    fn div_by_zero_rejected_all_formats() {
        let x3 =
            CooTensor::from_entries(Shape::new(vec![4, 4, 2]), vec![(vec![1, 2, 1], -2.0_f32)])
                .unwrap();
        let ctx = Ctx::sequential();
        let gx = GHiCooTensor::from_coo(&x3, 2, &[true, true, false]).unwrap();
        assert!(matches!(ts_ghicoo(TsOp::Div, &gx, 0.0, &ctx), Err(Error::DivisionByZero)));
        let sx = SemiCooTensor::from_fibers(
            Shape::new(vec![3, 2]),
            vec![1],
            vec![vec![0]],
            vec![1.0, 2.0],
        )
        .unwrap();
        assert!(matches!(ts_scoo(TsOp::Div, &sx, 0.0, &ctx), Err(Error::DivisionByZero)));
        let shx = SHiCooTensor::from_scoo(&sx, 2).unwrap();
        assert!(matches!(ts_shicoo(TsOp::Div, &shx, 0.0, &ctx), Err(Error::DivisionByZero)));
    }
}
