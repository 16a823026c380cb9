//! TEW — tensor element-wise operations (Section II-A).
//!
//! `Z = X op Y` for `op ∈ {+, −, ∘, ⊘}`. Two cases:
//!
//! - **Same pattern** (the case the paper analyzes): both tensors share one
//!   non-zero pattern, so the output pattern is known and the kernel is a
//!   single loop over the value arrays — operational intensity 1/12.
//! - **General**: different patterns and the kernel merges the two sorted
//!   non-zero streams, predicting the output pattern as it goes (union for
//!   add/sub, intersection for multiply).
//!
//! All other formats perform the identical value computation (the paper's
//! HiCOO-TEW shares COO-TEW's value loop): [`tew_any`] checks structural
//! equality through [`FormatAccess::same_structure`], reuses the input's
//! structure, and runs the one value loop — so every format gets the kernel
//! from a single implementation.

use crate::pipeline::{Ctx, EwOp};
use pasta_core::{
    CooTensor, CsfTensor, Error, FCooTensor, FormatAccess, GHiCooTensor, HiCooTensor, Result,
    SHiCooTensor, SemiCooTensor, Value,
};
use pasta_par::{parallel_for, SharedSlice};
use std::cmp::Ordering;

/// Element-wise value loop shared by every format's kernel.
///
/// Writes `out[i] = op(x[i], y[i])`; returns an error on division by zero
/// before writing anything.
fn ew_vals<V: Value>(op: EwOp, x: &[V], y: &[V], out: &mut [V], ctx: &Ctx) -> Result<()> {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len(), out.len());
    if op == EwOp::Div && y.contains(&V::ZERO) {
        return Err(Error::DivisionByZero);
    }
    let shared = SharedSlice::new(out);
    parallel_for(x.len(), ctx.threads, ctx.schedule, |range| {
        // SAFETY: parallel_for ranges partition the index space, so no other
        // worker touches `range` while this slice lives.
        let out = unsafe { shared.slice_mut(range.clone()) };
        ew_slice(op, &x[range.clone()], &y[range], out);
    });
    Ok(())
}

/// `out[i] = x[i] op y[i]` over one range. The operator is matched once and
/// each arm is a zipped slice loop with no aliasing store, so it vectorizes;
/// every element still gets exactly one IEEE operation.
fn ew_slice<V: Value>(op: EwOp, x: &[V], y: &[V], out: &mut [V]) {
    let triples = out.iter_mut().zip(x.iter().zip(y));
    match op {
        EwOp::Add => triples.for_each(|(o, (&a, &b))| *o = a + b),
        EwOp::Sub => triples.for_each(|(o, (&a, &b))| *o = a - b),
        EwOp::Mul => triples.for_each(|(o, (&a, &b))| *o = a * b),
        EwOp::Div => triples.for_each(|(o, (&a, &b))| *o = a / b),
    }
}

/// The bare TEW value loop on pre-allocated buffers — the portion the
/// paper's methodology times (output allocation and index setup are
/// pre-processing).
///
/// # Errors
///
/// Returns [`Error::DivisionByZero`] for `Div` with a zero in `y`, and
/// [`Error::OperandMismatch`] for length mismatches.
pub fn tew_values_into<V: Value>(
    op: EwOp,
    x: &[V],
    y: &[V],
    out: &mut [V],
    ctx: &Ctx,
) -> Result<()> {
    if x.len() != y.len() || x.len() != out.len() {
        return Err(Error::OperandMismatch {
            what: format!("value arrays of lengths {}, {}, {}", x.len(), y.len(), out.len()),
        });
    }
    ew_vals(op, x, y, out, ctx)
}

/// TEW over any format with matching stored structure: `Z = X op Y`.
///
/// The one same-pattern element-wise kernel, written once against
/// [`FormatAccess`]: after the structural check the output reuses `x`'s
/// indices verbatim and only the stored value array is recomputed, exactly
/// as each per-format kernel did before. Semi-sparse formats store explicit
/// zeros inside dense fibers; those participate like any other value, so
/// `Div` rejects a `y` with a zero anywhere in a stored fiber.
///
/// # Errors
///
/// Returns [`Error::PatternMismatch`] if the tensors differ in shape or
/// stored structure, and [`Error::DivisionByZero`] for `Div` with a zero
/// among `y`'s stored values.
pub fn tew_any<V: Value, T: FormatAccess<V> + Clone>(
    op: EwOp,
    x: &T,
    y: &T,
    ctx: &Ctx,
) -> Result<T> {
    if !x.same_structure(y) {
        return Err(Error::PatternMismatch);
    }
    // Pre-processing: the output shares x's structure; the value loop
    // overwrites every stored value.
    let mut z = x.clone();
    ew_vals(op, x.stored_vals(), y.stored_vals(), z.stored_vals_mut(), ctx)?;
    Ok(z)
}

/// COO-TEW with identical non-zero patterns: `Z = X op Y`.
///
/// # Errors
///
/// Returns [`Error::PatternMismatch`] if the tensors differ in shape or
/// pattern, and [`Error::DivisionByZero`] for `Div` with a zero in `y`.
///
/// # Examples
///
/// ```
/// use pasta_core::{CooTensor, Shape};
/// use pasta_kernels::{tew_coo_same_pattern, Ctx, EwOp};
///
/// # fn main() -> Result<(), pasta_core::Error> {
/// let x = CooTensor::from_entries(Shape::new(vec![2, 2]), vec![(vec![0, 1], 2.0_f32)])?;
/// let y = x.like_pattern(3.0);
/// let z = tew_coo_same_pattern(EwOp::Add, &x, &y, &Ctx::sequential())?;
/// assert_eq!(z.get(&[0, 1]), Some(5.0));
/// # Ok(())
/// # }
/// ```
pub fn tew_coo_same_pattern<V: Value>(
    op: EwOp,
    x: &CooTensor<V>,
    y: &CooTensor<V>,
    ctx: &Ctx,
) -> Result<CooTensor<V>> {
    tew_any(op, x, y, ctx)
}

/// COO-TEW for arbitrary patterns: merges the two sorted non-zero streams.
///
/// Union semantics for `Add`/`Sub` (a missing element is zero), intersection
/// for `Mul`. `Div` requires `y`'s pattern to cover `x`'s (an `x` non-zero
/// over a zero divisor is an error); elements only in `y` contribute `0/y=0`
/// and are dropped.
///
/// Runs sequentially — the output size is not known in advance, which is why
/// the paper analyzes only the same-pattern case for performance.
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] for differing shapes and
/// [`Error::DivisionByZero`] as described above.
pub fn tew_coo_general<V: Value>(
    op: EwOp,
    x: &CooTensor<V>,
    y: &CooTensor<V>,
) -> Result<CooTensor<V>> {
    if x.shape() != y.shape() {
        return Err(Error::ShapeMismatch {
            left: x.shape().dims().to_vec(),
            right: y.shape().dims().to_vec(),
        });
    }
    let mut xs = x.clone();
    xs.sort();
    let mut ys = y.clone();
    ys.sort();
    let order = x.order();
    let cmp = |a: usize, b: usize| -> Ordering {
        for m in 0..order {
            let o = xs.mode_inds(m)[a].cmp(&ys.mode_inds(m)[b]);
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    };

    let mut z = CooTensor::with_capacity(x.shape().clone(), xs.nnz().max(ys.nnz()));
    let (mut i, mut j) = (0usize, 0usize);
    let (nx, ny) = (xs.nnz(), ys.nnz());
    while i < nx || j < ny {
        let side = if i >= nx {
            Ordering::Greater
        } else if j >= ny {
            Ordering::Less
        } else {
            cmp(i, j)
        };
        match side {
            Ordering::Equal => {
                let (xv, yv) = (xs.vals()[i], ys.vals()[j]);
                if op == EwOp::Div && yv == V::ZERO {
                    return Err(Error::DivisionByZero);
                }
                let v = op.apply(xv, yv);
                if v != V::ZERO {
                    z.push(&xs.coords_of(i), v)?;
                }
                i += 1;
                j += 1;
            }
            Ordering::Less => {
                // Only in x: y element is zero.
                match op {
                    EwOp::Add => z.push(&xs.coords_of(i), xs.vals()[i])?,
                    EwOp::Sub => z.push(&xs.coords_of(i), xs.vals()[i])?,
                    EwOp::Mul => {}
                    EwOp::Div => return Err(Error::DivisionByZero),
                }
                i += 1;
            }
            Ordering::Greater => {
                // Only in y: x element is zero.
                match op {
                    EwOp::Add => z.push(&ys.coords_of(j), ys.vals()[j])?,
                    EwOp::Sub => z.push(&ys.coords_of(j), -ys.vals()[j])?,
                    EwOp::Mul | EwOp::Div => {}
                }
                j += 1;
            }
        }
    }
    Ok(z)
}

/// COO-TEW dispatcher: takes the fast path when patterns match.
///
/// # Errors
///
/// As for [`tew_coo_same_pattern`] / [`tew_coo_general`].
pub fn tew_coo<V: Value>(
    op: EwOp,
    x: &CooTensor<V>,
    y: &CooTensor<V>,
    ctx: &Ctx,
) -> Result<CooTensor<V>> {
    if x.same_pattern(y) {
        tew_coo_same_pattern(op, x, y, ctx)
    } else {
        tew_coo_general(op, x, y)
    }
}

/// HiCOO-TEW with identical block structure (e.g. both converted from
/// same-pattern COO tensors with one block size) — [`tew_any`].
///
/// # Errors
///
/// Returns [`Error::PatternMismatch`] if the block structures differ, and
/// [`Error::DivisionByZero`] for `Div` with a zero in `y`.
pub fn tew_hicoo<V: Value>(
    op: EwOp,
    x: &HiCooTensor<V>,
    y: &HiCooTensor<V>,
    ctx: &Ctx,
) -> Result<HiCooTensor<V>> {
    tew_any(op, x, y, ctx)
}

/// sCOO-TEW with identical fiber structure: the op runs over the dense
/// per-fiber value arrays in one pass — [`tew_any`].
///
/// Stored zeros inside dense fibers participate like any other value, so
/// `Div` returns [`Error::DivisionByZero`] if any `y` fiber holds a zero.
///
/// # Errors
///
/// Returns [`Error::PatternMismatch`] if the tensors differ in shape, dense
/// modes or fiber indices, and [`Error::DivisionByZero`] as described.
pub fn tew_scoo<V: Value>(
    op: EwOp,
    x: &SemiCooTensor<V>,
    y: &SemiCooTensor<V>,
    ctx: &Ctx,
) -> Result<SemiCooTensor<V>> {
    tew_any(op, x, y, ctx)
}

/// gHiCOO-TEW with identical block structure: only the value loop runs; the
/// block and element indices are reused from `x` — [`tew_any`].
///
/// # Errors
///
/// Returns [`Error::PatternMismatch`] if the block structures differ, and
/// [`Error::DivisionByZero`] for `Div` with a zero in `y`.
pub fn tew_ghicoo<V: Value>(
    op: EwOp,
    x: &GHiCooTensor<V>,
    y: &GHiCooTensor<V>,
    ctx: &Ctx,
) -> Result<GHiCooTensor<V>> {
    tew_any(op, x, y, ctx)
}

/// sHiCOO-TEW with identical fiber and block structure: one pass over the
/// dense per-fiber values, like [`tew_scoo`].
///
/// # Errors
///
/// Returns [`Error::PatternMismatch`] if the structures differ, and
/// [`Error::DivisionByZero`] for `Div` with a zero anywhere in `y`'s fibers.
pub fn tew_shicoo<V: Value>(
    op: EwOp,
    x: &SHiCooTensor<V>,
    y: &SHiCooTensor<V>,
    ctx: &Ctx,
) -> Result<SHiCooTensor<V>> {
    tew_any(op, x, y, ctx)
}

/// CSF-TEW with identical tree structure: the fiber tree is reused and the
/// leaf value array recomputed — [`tew_any`].
///
/// # Errors
///
/// Returns [`Error::PatternMismatch`] if the trees differ, and
/// [`Error::DivisionByZero`] for `Div` with a zero in `y`.
pub fn tew_csf<V: Value>(
    op: EwOp,
    x: &CsfTensor<V>,
    y: &CsfTensor<V>,
    ctx: &Ctx,
) -> Result<CsfTensor<V>> {
    tew_any(op, x, y, ctx)
}

/// F-COO-TEW with identical fiber layout (same product mode, flags and
/// coordinates): only the value array is recomputed — [`tew_any`].
///
/// # Errors
///
/// Returns [`Error::PatternMismatch`] if the layouts differ, and
/// [`Error::DivisionByZero`] for `Div` with a zero in `y`.
pub fn tew_fcoo<V: Value>(
    op: EwOp,
    x: &FCooTensor<V>,
    y: &FCooTensor<V>,
    ctx: &Ctx,
) -> Result<FCooTensor<V>> {
    tew_any(op, x, y, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasta_core::Shape;

    fn base() -> CooTensor<f32> {
        CooTensor::from_entries(
            Shape::new(vec![4, 4, 4]),
            vec![(vec![0, 0, 0], 1.0), (vec![1, 2, 3], 2.0), (vec![3, 3, 3], -4.0)],
        )
        .unwrap()
    }

    #[test]
    fn same_pattern_all_ops() {
        let x = base();
        let mut y = x.like_pattern(0.0);
        y.vals_mut().copy_from_slice(&[2.0, 4.0, 2.0]);
        let ctx = Ctx::sequential();
        assert_eq!(
            tew_coo_same_pattern(EwOp::Add, &x, &y, &ctx).unwrap().vals(),
            &[3.0, 6.0, -2.0]
        );
        assert_eq!(
            tew_coo_same_pattern(EwOp::Sub, &x, &y, &ctx).unwrap().vals(),
            &[-1.0, -2.0, -6.0]
        );
        assert_eq!(
            tew_coo_same_pattern(EwOp::Mul, &x, &y, &ctx).unwrap().vals(),
            &[2.0, 8.0, -8.0]
        );
        assert_eq!(
            tew_coo_same_pattern(EwOp::Div, &x, &y, &ctx).unwrap().vals(),
            &[0.5, 0.5, -2.0]
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let n = 10_000u32;
        let entries: Vec<(Vec<u32>, f32)> =
            (0..n).map(|i| (vec![i % 100, i / 100], (i as f32).sin())).collect();
        let x = CooTensor::from_entries(Shape::new(vec![100, 100]), entries).unwrap();
        let y = x.like_pattern(1.5);
        let seq = tew_coo_same_pattern(EwOp::Mul, &x, &y, &Ctx::sequential()).unwrap();
        let par =
            tew_coo_same_pattern(EwOp::Mul, &x, &y, &Ctx::new(8, pasta_par::Schedule::Dynamic(64)))
                .unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn pattern_mismatch_detected() {
        let x = base();
        let y = CooTensor::from_entries(Shape::new(vec![4, 4, 4]), vec![(vec![0, 0, 1], 1.0_f32)])
            .unwrap();
        assert!(matches!(
            tew_coo_same_pattern(EwOp::Add, &x, &y, &Ctx::sequential()),
            Err(Error::PatternMismatch)
        ));
        // The dispatcher falls back to the general path.
        assert!(tew_coo(EwOp::Add, &x, &y, &Ctx::sequential()).is_ok());
    }

    #[test]
    fn division_by_zero_same_pattern() {
        let x = base();
        let mut y = x.like_pattern(0.0);
        y.vals_mut()[1] = 0.0;
        y.vals_mut()[0] = 1.0;
        y.vals_mut()[2] = 1.0;
        assert!(matches!(
            tew_coo_same_pattern(EwOp::Div, &x, &y, &Ctx::sequential()),
            Err(Error::DivisionByZero)
        ));
    }

    #[test]
    fn general_union_add() {
        let x = CooTensor::from_entries(
            Shape::new(vec![3, 3]),
            vec![(vec![0, 0], 1.0_f32), (vec![1, 1], 2.0)],
        )
        .unwrap();
        let y = CooTensor::from_entries(
            Shape::new(vec![3, 3]),
            vec![(vec![1, 1], 5.0_f32), (vec![2, 2], 7.0)],
        )
        .unwrap();
        let z = tew_coo_general(EwOp::Add, &x, &y).unwrap();
        assert_eq!(z.nnz(), 3);
        assert_eq!(z.get(&[0, 0]), Some(1.0));
        assert_eq!(z.get(&[1, 1]), Some(7.0));
        assert_eq!(z.get(&[2, 2]), Some(7.0));

        let zs = tew_coo_general(EwOp::Sub, &x, &y).unwrap();
        assert_eq!(zs.get(&[2, 2]), Some(-7.0));
        assert_eq!(zs.get(&[1, 1]), Some(-3.0));
    }

    #[test]
    fn general_intersection_mul() {
        let x = CooTensor::from_entries(
            Shape::new(vec![3, 3]),
            vec![(vec![0, 0], 2.0_f32), (vec![1, 1], 3.0)],
        )
        .unwrap();
        let y = CooTensor::from_entries(
            Shape::new(vec![3, 3]),
            vec![(vec![1, 1], 4.0_f32), (vec![2, 2], 9.0)],
        )
        .unwrap();
        let z = tew_coo_general(EwOp::Mul, &x, &y).unwrap();
        assert_eq!(z.nnz(), 1);
        assert_eq!(z.get(&[1, 1]), Some(12.0));
    }

    #[test]
    fn general_cancellation_drops_zero() {
        let x =
            CooTensor::from_entries(Shape::new(vec![2, 2]), vec![(vec![0, 0], 3.0_f32)]).unwrap();
        let y = x.clone();
        let z = tew_coo_general(EwOp::Sub, &x, &y).unwrap();
        assert_eq!(z.nnz(), 0);
    }

    #[test]
    fn general_div_needs_cover() {
        let x =
            CooTensor::from_entries(Shape::new(vec![2, 2]), vec![(vec![0, 0], 3.0_f32)]).unwrap();
        let y =
            CooTensor::from_entries(Shape::new(vec![2, 2]), vec![(vec![1, 1], 2.0_f32)]).unwrap();
        assert!(matches!(tew_coo_general(EwOp::Div, &x, &y), Err(Error::DivisionByZero)));
        // Covered case works; y-only entries vanish (0 / y).
        let y2 = CooTensor::from_entries(
            Shape::new(vec![2, 2]),
            vec![(vec![0, 0], 2.0_f32), (vec![1, 1], 5.0)],
        )
        .unwrap();
        let z = tew_coo_general(EwOp::Div, &x, &y2).unwrap();
        assert_eq!(z.nnz(), 1);
        assert_eq!(z.get(&[0, 0]), Some(1.5));
    }

    #[test]
    fn general_shape_mismatch() {
        let x = CooTensor::<f32>::new(Shape::new(vec![2, 2]));
        let y = CooTensor::<f32>::new(Shape::new(vec![2, 3]));
        assert!(matches!(tew_coo_general(EwOp::Add, &x, &y), Err(Error::ShapeMismatch { .. })));
    }

    #[test]
    fn hicoo_matches_coo() {
        let x = base();
        let mut y = x.like_pattern(0.0);
        y.vals_mut().copy_from_slice(&[3.0, 1.0, 2.0]);
        let ctx = Ctx::sequential();
        let z_coo = tew_coo_same_pattern(EwOp::Add, &x, &y, &ctx).unwrap();
        let hx = HiCooTensor::from_coo(&x, 2).unwrap();
        let hy = HiCooTensor::from_coo(&y, 2).unwrap();
        let z_hicoo = tew_hicoo(EwOp::Add, &hx, &hy, &ctx).unwrap();
        let mut a = z_hicoo.to_coo();
        a.sort();
        let mut b = z_coo;
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn hicoo_structure_mismatch() {
        let x = base();
        let hx = HiCooTensor::from_coo(&x, 2).unwrap();
        let hx4 = HiCooTensor::from_coo(&x, 4).unwrap();
        assert!(matches!(
            tew_hicoo(EwOp::Add, &hx, &hx4, &Ctx::sequential()),
            Err(Error::PatternMismatch)
        ));
    }

    fn scoo_pair() -> (SemiCooTensor<f32>, SemiCooTensor<f32>) {
        let shape = Shape::new(vec![3, 4, 2]);
        let inds = vec![vec![0, 1, 2], vec![0, 0, 1]];
        let x = SemiCooTensor::from_fibers(
            shape.clone(),
            vec![1],
            inds.clone(),
            (1..=12).map(|i| i as f32).collect(),
        )
        .unwrap();
        let y = SemiCooTensor::from_fibers(
            shape,
            vec![1],
            inds,
            (1..=12).map(|i| (i as f32) * 0.5).collect(),
        )
        .unwrap();
        (x, y)
    }

    #[test]
    fn scoo_matches_coo() {
        let (x, y) = scoo_pair();
        let ctx = Ctx::sequential();
        let z = tew_scoo(EwOp::Mul, &x, &y, &ctx).unwrap();
        let mut got = z.to_coo();
        got.sort();
        let mut want = tew_coo(EwOp::Mul, &x.to_coo(), &y.to_coo(), &ctx).unwrap();
        want.sort();
        assert_eq!(got, want);
        // Structure untouched.
        assert_eq!(z.sparse_inds(0), x.sparse_inds(0));
    }

    #[test]
    fn scoo_fiber_mismatch() {
        let (x, _) = scoo_pair();
        let y = SemiCooTensor::from_fibers(
            Shape::new(vec![3, 4, 2]),
            vec![1],
            vec![vec![0, 1, 2], vec![1, 0, 1]],
            vec![1.0; 12],
        )
        .unwrap();
        assert!(matches!(
            tew_scoo(EwOp::Add, &x, &y, &Ctx::sequential()),
            Err(Error::PatternMismatch)
        ));
    }

    #[test]
    fn ghicoo_matches_coo() {
        let x = base();
        let mut y = x.like_pattern(0.0);
        y.vals_mut().copy_from_slice(&[3.0, 1.0, 2.0]);
        let ctx = Ctx::sequential();
        let gx = GHiCooTensor::from_coo(&x, 2, &[true, false, true]).unwrap();
        let gy = GHiCooTensor::from_coo(&y, 2, &[true, false, true]).unwrap();
        let z = tew_ghicoo(EwOp::Add, &gx, &gy, &ctx).unwrap();
        let mut got = z.to_coo();
        got.sort();
        let mut want = tew_coo_same_pattern(EwOp::Add, &x, &y, &ctx).unwrap();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(z.bptr(), gx.bptr());
    }

    #[test]
    fn ghicoo_structure_mismatch() {
        let x = base();
        let gx = GHiCooTensor::from_coo(&x, 2, &[true, false, true]).unwrap();
        let gx2 = GHiCooTensor::from_coo(&x, 2, &[true, true, true]).unwrap();
        assert!(matches!(
            tew_ghicoo(EwOp::Add, &gx, &gx2, &Ctx::sequential()),
            Err(Error::PatternMismatch)
        ));
    }

    #[test]
    fn shicoo_matches_scoo() {
        let (x, y) = scoo_pair();
        let ctx = Ctx::sequential();
        let sx = SHiCooTensor::from_scoo(&x, 2).unwrap();
        let sy = SHiCooTensor::from_scoo(&y, 2).unwrap();
        let z = tew_shicoo(EwOp::Sub, &sx, &sy, &ctx).unwrap();
        let mut got = z.to_scoo().unwrap().to_coo();
        got.sort();
        let mut want = tew_scoo(EwOp::Sub, &x, &y, &ctx).unwrap().to_coo();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(z.bptr(), sx.bptr());
    }

    #[test]
    fn shicoo_structure_mismatch() {
        let (x, _) = scoo_pair();
        let sx = SHiCooTensor::from_scoo(&x, 2).unwrap();
        let sx4 = SHiCooTensor::from_scoo(&x, 4).unwrap();
        assert!(matches!(
            tew_shicoo(EwOp::Add, &sx, &sx4, &Ctx::sequential()),
            Err(Error::PatternMismatch)
        ));
    }

    #[test]
    fn csf_matches_coo() {
        let x = base();
        let mut y = x.like_pattern(0.0);
        y.vals_mut().copy_from_slice(&[3.0, 1.0, 2.0]);
        let ctx = Ctx::sequential();
        let cx = CsfTensor::from_coo(&x, &[0, 1, 2]).unwrap();
        let cy = CsfTensor::from_coo(&y, &[0, 1, 2]).unwrap();
        let z = tew_csf(EwOp::Mul, &cx, &cy, &ctx).unwrap();
        let mut got = z.to_coo();
        got.sort();
        let mut want = tew_coo_same_pattern(EwOp::Mul, &x, &y, &ctx).unwrap();
        want.sort();
        assert_eq!(got, want);
        // Mismatched trees are rejected.
        let cyr = CsfTensor::from_coo(&y, &[2, 1, 0]).unwrap();
        assert!(matches!(tew_csf(EwOp::Add, &cx, &cyr, &ctx), Err(Error::PatternMismatch)));
    }

    #[test]
    fn fcoo_matches_coo() {
        let x = base();
        let mut y = x.like_pattern(0.0);
        y.vals_mut().copy_from_slice(&[3.0, 1.0, 2.0]);
        let ctx = Ctx::sequential();
        let fx = FCooTensor::from_coo(&x, 1).unwrap();
        let fy = FCooTensor::from_coo(&y, 1).unwrap();
        let z = tew_fcoo(EwOp::Add, &fx, &fy, &ctx).unwrap();
        let mut got = z.to_coo();
        got.sort();
        let mut want = tew_coo_same_pattern(EwOp::Add, &x, &y, &ctx).unwrap();
        want.sort();
        assert_eq!(got, want);
        // A different product mode changes the layout and is rejected.
        let fy2 = FCooTensor::from_coo(&y, 2).unwrap();
        assert!(matches!(tew_fcoo(EwOp::Add, &fx, &fy2, &ctx), Err(Error::PatternMismatch)));
    }

    #[test]
    fn scoo_div_by_stored_zero_rejected() {
        let (x, mut y) = scoo_pair();
        y.vals_mut()[5] = 0.0;
        assert!(matches!(
            tew_scoo(EwOp::Div, &x, &y, &Ctx::sequential()),
            Err(Error::DivisionByZero)
        ));
    }
}
