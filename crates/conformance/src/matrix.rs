//! The conformance matrix: cell registry, runner, and failure shrinking.
//!
//! A *cell* is one (kernel × format × backend × strategy × pool size)
//! combination with a ULP budget and an executor that returns the pair
//! `(got, want)` in that cell's comparison space:
//!
//! - CPU cells for TEW/TS/TTV/TTM compare dense output images against the
//!   [`pasta_kernels::dense_ref`] oracles;
//! - GPU cells for TEW/TS compare value arrays bit-for-bit against the CPU
//!   kernel of the same format (the paper's GPU element-wise kernels share
//!   one COO value loop across formats);
//! - GPU TTV/TTM compare value arrays against the sequential CPU kernel
//!   (both sort mode-last, so the streams align);
//! - MTTKRP strategy cells compare against the sequential kernel —
//!   bit-identical for owner-computes on a mode-outermost-sorted tensor,
//!   ULP-bounded for privatized reduction — and the rest against the dense
//!   oracle.

use crate::cases::{self, Case};
use crate::oracle::worst_ulp;
use pasta_algos::AlsSweep;
use pasta_core::linalg::{gram, hadamard, normalize_columns, Cholesky};
use pasta_core::{
    seeded_matrix, seeded_vector, CooTensor, Coord, CsfTensor, DenseMatrix, DenseVector,
    FCooTensor, GHiCooTensor, HiCooTensor, Result, SHiCooTensor, SemiCooTensor,
};
use pasta_kernels::dense_ref::{
    mttkrp_dense, tew_dense, ts_dense, ttm_dense, ttv_dense, ORACLE_MAX_ENTRIES,
};
use pasta_kernels::{
    expr_registry, force_simd, lower, mttkrp_coo, mttkrp_csf_root, mttkrp_hicoo, registry,
    tew_coo_same_pattern, tew_csf, tew_fcoo, tew_ghicoo, tew_hicoo, tew_scoo, tew_shicoo, ts_coo,
    ts_csf, ts_fcoo, ts_ghicoo, ts_hicoo, ts_scoo, ts_shicoo, ttm_coo, ttm_hicoo, ttm_scoo,
    ttv_coo, ttv_csf_leaf, ttv_fcoo, ttv_hicoo, BackendKind, Bindings, Combo, Ctx, EwOp, ExprGraph,
    ExprOut, ExprRoute, FormatKind, FusionChoice, Kernel, MatOperand, SimdLevel, StrategyChoice,
    TsOp, VecOperand,
};
use pasta_par::Schedule;
use pasta_serve::{
    direct_eval, serve_registry, Catalog as ServeCatalog, ExprSpec, ExprStep, MttkrpRoute, OpSpec,
    Request as ServeRequest, ServeRoute, Server, ServerConfig,
};
use pasta_simt::{launch, p100};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The scalar used by every TS cell.
pub const TS_SCALAR: f32 = 1.5;

/// Everything an executor may need for one case, computed once.
#[allow(missing_docs)]
pub struct CaseCtx {
    pub case: Case,
    pub x: CooTensor<f32>,
    /// Same pattern as `x`, independent seeded values (second TEW operand).
    pub y: CooTensor<f32>,
    /// `x` sorted with `case.mode` outermost (the owner-computes contract).
    pub sorted_x: CooTensor<f32>,
    pub hx: HiCooTensor<f32>,
    pub hy: HiCooTensor<f32>,
    pub gx: GHiCooTensor<f32>,
    pub gy: GHiCooTensor<f32>,
    pub sx: SemiCooTensor<f32>,
    pub sy: SemiCooTensor<f32>,
    pub shx: SHiCooTensor<f32>,
    pub shy: SHiCooTensor<f32>,
    /// CSF with `case.mode` as the *root* level (MTTKRP, element-wise).
    pub cx_root: CsfTensor<f32>,
    /// Same tree shape over `y`'s values (second TEW operand).
    pub cy_root: CsfTensor<f32>,
    /// CSF with `case.mode` as the *leaf* level (leaf-mode TTV).
    pub cx_leaf: CsfTensor<f32>,
    /// F-COO fibered along `case.mode`.
    pub fx: FCooTensor<f32>,
    /// Same fiber structure over `y`'s values.
    pub fy: FCooTensor<f32>,
    pub v: DenseVector<f32>,
    pub u: DenseMatrix<f32>,
    pub factors: Vec<DenseMatrix<f32>>,
}

/// Converts a COO tensor to sCOO with the last mode dense (merging any
/// duplicate coordinates into the fiber slot).
fn coo_to_scoo(x: &CooTensor<f32>) -> Result<SemiCooTensor<f32>> {
    let order = x.order();
    let dm = order - 1;
    let dlen = x.shape().dim(dm) as usize;
    let mut fibers: BTreeMap<Vec<Coord>, Vec<f32>> = BTreeMap::new();
    for (coords, v) in x.iter() {
        let f = fibers.entry(coords[..dm].to_vec()).or_insert_with(|| vec![0.0; dlen]);
        f[coords[dm] as usize] += v;
    }
    let mut inds: Vec<Vec<Coord>> = vec![Vec::new(); dm];
    let mut vals = Vec::with_capacity(fibers.len() * dlen);
    for (key, f) in fibers {
        for (k, &c) in key.iter().enumerate() {
            inds[k].push(c);
        }
        vals.extend(f);
    }
    SemiCooTensor::from_fibers(x.shape().clone(), vec![dm], inds, vals)
}

impl CaseCtx {
    /// Builds all format conversions and derived operands for `case`.
    ///
    /// # Errors
    ///
    /// Propagates any construction error (out-of-range entries in a
    /// hand-edited case file, invalid block sizes).
    pub fn new(case: &Case) -> Result<Self> {
        let x = case.tensor()?;
        let mut y = x.like_pattern(0.0_f32);
        let mut st = case.seed ^ 0x59ED;
        for v in y.vals_mut() {
            *v = cases::unit_val(&mut st);
        }
        let mut sorted_x = x.clone();
        let mut mode_order = vec![case.mode];
        mode_order.extend((0..case.order()).filter(|&m| m != case.mode));
        sorted_x.sort_by_mode_order(&mode_order);

        let blocked: Vec<bool> = (0..case.order()).map(|m| m % 2 == 0).collect();
        let sx = coo_to_scoo(&x)?;
        let sy = coo_to_scoo(&y)?;
        let root_order = {
            let mut mo = vec![case.mode];
            mo.extend((0..case.order()).filter(|&m| m != case.mode));
            mo
        };
        let leaf_order = {
            let mut mo: Vec<usize> = (0..case.order()).filter(|&m| m != case.mode).collect();
            mo.push(case.mode);
            mo
        };
        let rank = case.rank;
        let v = seeded_vector::<f32>(x.shape().dim(case.mode) as usize, case.seed ^ 0x7EC);
        let u = seeded_matrix::<f32>(x.shape().dim(case.mode) as usize, rank, case.seed ^ 0x77);
        let factors: Vec<DenseMatrix<f32>> = (0..case.order())
            .map(|m| seeded_matrix(x.shape().dim(m) as usize, rank, case.seed ^ (0xFAC + m as u64)))
            .collect();
        Ok(Self {
            hx: HiCooTensor::from_coo(&x, case.block)?,
            hy: HiCooTensor::from_coo(&y, case.block)?,
            gx: GHiCooTensor::from_coo(&x, case.block, &blocked)?,
            gy: GHiCooTensor::from_coo(&y, case.block, &blocked)?,
            shx: SHiCooTensor::from_scoo(&sx, case.block)?,
            shy: SHiCooTensor::from_scoo(&sy, case.block)?,
            cx_root: CsfTensor::from_coo(&x, &root_order)?,
            cy_root: CsfTensor::from_coo(&y, &root_order)?,
            cx_leaf: CsfTensor::from_coo(&x, &leaf_order)?,
            fx: FCooTensor::from_coo(&x, case.mode)?,
            fy: FCooTensor::from_coo(&y, case.mode)?,
            sx,
            sy,
            v,
            u,
            factors,
            case: case.clone(),
            x,
            y,
            sorted_x,
        })
    }
}

/// Dense-fiber formats materialize structural zeros inside fibers, so
/// only zero-preserving ops compare cleanly against the sparse oracle.
fn dense_fibers(fmt: FormatKind) -> bool {
    matches!(fmt, FormatKind::Scoo | FormatKind::Shicoo)
}

fn tew_ops(fmt: FormatKind) -> &'static [EwOp] {
    if dense_fibers(fmt) {
        &[EwOp::Add, EwOp::Sub, EwOp::Mul]
    } else {
        &[EwOp::Add, EwOp::Sub, EwOp::Mul, EwOp::Div]
    }
}

fn ts_ops(fmt: FormatKind) -> &'static [TsOp] {
    if dense_fibers(fmt) {
        &[TsOp::Mul, TsOp::Div]
    } else {
        &[TsOp::Add, TsOp::Sub, TsOp::Mul, TsOp::Div]
    }
}

/// The TEW result for `fmt` as (dense image, raw value array).
fn tew_fmt(cc: &CaseCtx, fmt: FormatKind, op: EwOp, ctx: &Ctx) -> Result<(Vec<f32>, Vec<f32>)> {
    Ok(match fmt {
        FormatKind::Coo => {
            let z = tew_coo_same_pattern(op, &cc.x, &cc.y, ctx)?;
            (z.to_dense(ORACLE_MAX_ENTRIES), z.vals().to_vec())
        }
        FormatKind::Hicoo => {
            let z = tew_hicoo(op, &cc.hx, &cc.hy, ctx)?;
            (z.to_coo().to_dense(ORACLE_MAX_ENTRIES), z.vals().to_vec())
        }
        FormatKind::Ghicoo => {
            let z = tew_ghicoo(op, &cc.gx, &cc.gy, ctx)?;
            (z.to_coo().to_dense(ORACLE_MAX_ENTRIES), z.vals().to_vec())
        }
        FormatKind::Scoo => {
            let z = tew_scoo(op, &cc.sx, &cc.sy, ctx)?;
            (z.to_coo().to_dense(ORACLE_MAX_ENTRIES), z.vals().to_vec())
        }
        FormatKind::Shicoo => {
            let z = tew_shicoo(op, &cc.shx, &cc.shy, ctx)?;
            (z.to_scoo()?.to_coo().to_dense(ORACLE_MAX_ENTRIES), z.vals().to_vec())
        }
        FormatKind::Csf => {
            let z = tew_csf(op, &cc.cx_root, &cc.cy_root, ctx)?;
            (z.to_coo().to_dense(ORACLE_MAX_ENTRIES), z.vals().to_vec())
        }
        FormatKind::Fcoo => {
            let z = tew_fcoo(op, &cc.fx, &cc.fy, ctx)?;
            (z.to_coo().to_dense(ORACLE_MAX_ENTRIES), z.vals().to_vec())
        }
    })
}

/// The TS result for `fmt` as (dense image, raw value array).
fn ts_fmt(cc: &CaseCtx, fmt: FormatKind, op: TsOp, ctx: &Ctx) -> Result<(Vec<f32>, Vec<f32>)> {
    Ok(match fmt {
        FormatKind::Coo => {
            let z = ts_coo(op, &cc.x, TS_SCALAR, ctx)?;
            (z.to_dense(ORACLE_MAX_ENTRIES), z.vals().to_vec())
        }
        FormatKind::Hicoo => {
            let z = ts_hicoo(op, &cc.hx, TS_SCALAR, ctx)?;
            (z.to_coo().to_dense(ORACLE_MAX_ENTRIES), z.vals().to_vec())
        }
        FormatKind::Ghicoo => {
            let z = ts_ghicoo(op, &cc.gx, TS_SCALAR, ctx)?;
            (z.to_coo().to_dense(ORACLE_MAX_ENTRIES), z.vals().to_vec())
        }
        FormatKind::Scoo => {
            let z = ts_scoo(op, &cc.sx, TS_SCALAR, ctx)?;
            (z.to_coo().to_dense(ORACLE_MAX_ENTRIES), z.vals().to_vec())
        }
        FormatKind::Shicoo => {
            let z = ts_shicoo(op, &cc.shx, TS_SCALAR, ctx)?;
            (z.to_scoo()?.to_coo().to_dense(ORACLE_MAX_ENTRIES), z.vals().to_vec())
        }
        FormatKind::Csf => {
            let z = ts_csf(op, &cc.cx_root, TS_SCALAR, ctx)?;
            (z.to_coo().to_dense(ORACLE_MAX_ENTRIES), z.vals().to_vec())
        }
        FormatKind::Fcoo => {
            let z = ts_fcoo(op, &cc.fx, TS_SCALAR, ctx)?;
            (z.to_coo().to_dense(ORACLE_MAX_ENTRIES), z.vals().to_vec())
        }
    })
}

/// The (x, y) value arrays the GPU element-wise value loop reads for `fmt`.
fn fmt_value_arrays(cc: &CaseCtx, fmt: FormatKind) -> (Vec<f32>, Vec<f32>) {
    match fmt {
        FormatKind::Coo => (cc.x.vals().to_vec(), cc.y.vals().to_vec()),
        FormatKind::Hicoo => (cc.hx.vals().to_vec(), cc.hy.vals().to_vec()),
        FormatKind::Ghicoo => (cc.gx.vals().to_vec(), cc.gy.vals().to_vec()),
        FormatKind::Scoo => (cc.sx.vals().to_vec(), cc.sy.vals().to_vec()),
        FormatKind::Shicoo => (cc.shx.vals().to_vec(), cc.shy.vals().to_vec()),
        FormatKind::Csf => (cc.cx_root.vals().to_vec(), cc.cy_root.vals().to_vec()),
        FormatKind::Fcoo => (cc.fx.vals().to_vec(), cc.fy.vals().to_vec()),
    }
}

type ExecFn = Box<dyn Fn(&CaseCtx) -> Result<(Vec<f32>, Vec<f32>)> + Send + Sync>;

/// One conformance cell: an executor plus its ULP budget.
pub struct Cell {
    /// Stable identifier, e.g. `mttkrp/coo/cpu/owner/t2`.
    pub id: String,
    /// Maximum tolerated ULP distance between `got` and `want`.
    pub budget: u64,
    exec: ExecFn,
}

impl std::fmt::Debug for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cell").field("id", &self.id).field("budget", &self.budget).finish()
    }
}

impl Cell {
    fn new(
        id: String,
        budget: u64,
        exec: impl Fn(&CaseCtx) -> Result<(Vec<f32>, Vec<f32>)> + Send + Sync + 'static,
    ) -> Self {
        Self { id, budget, exec: Box::new(exec) }
    }

    /// Runs the executor, returning `(got, want)`.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors; any error is a conformance failure.
    pub fn run(&self, cc: &CaseCtx) -> Result<(Vec<f32>, Vec<f32>)> {
        (self.exec)(cc)
    }
}

const TTV_BUDGET: u64 = 256;
const TTM_BUDGET: u64 = 256;
// Fused chains accumulate the whole expression in one pass while the
// composed dense oracle rounds once per step, so chain cells carry wider
// budgets than their single-kernel counterparts; the ALS sweep runs a
// Cholesky solve whose conditioning amplifies MTTKRP rounding further.
const FUSED_TTV_BUDGET: u64 = 512;
const FUSED_TTM_BUDGET: u64 = 1024;
const FUSED_ALS_BUDGET: u64 = 4096;
const MTTKRP_SEQ_BUDGET: u64 = 512;
const MTTKRP_PRIV_BUDGET: u64 = 1024;
const MTTKRP_HICOO_BUDGET: u64 = 1024;
const MTTKRP_CSF_BUDGET: u64 = 1024;
const MTTKRP_GPU_BUDGET: u64 = 4096;

/// A documented hole in the conformance matrix.
///
/// Every combo in [`pasta_kernels::registry`] must either have at least one
/// cell or appear here with `cases: None` (a whole-combo hole); an entry
/// with a `cases` predicate instead excuses individual cases a cell cannot
/// represent. A registered combo with neither is a test failure, so
/// coverage claims cannot silently rot.
pub struct SkipEntry {
    /// The kernel of the excused combo.
    pub kernel: Kernel,
    /// The format of the excused combo.
    pub format: FormatKind,
    /// The backend of the excused combo.
    pub backend: BackendKind,
    /// Why the hole is structural rather than a missing test.
    pub reason: &'static str,
    /// `Some(p)`: only cases satisfying `p` are excused. `None`: the whole
    /// combo has no cell.
    pub cases: Option<fn(&Case) -> bool>,
}

/// The explicit skip table.
pub fn skips() -> Vec<SkipEntry> {
    vec![SkipEntry {
        kernel: Kernel::Ttm,
        format: FormatKind::Scoo,
        backend: BackendKind::Cpu,
        reason: "contracting a sparse mode adds a second dense mode to the output; \
                 an order-2 sCOO tensor can hold at most one, so the configuration \
                 is structurally unrepresentable",
        cases: Some(|case| case.order() == 2 && case.mode != case.order() - 1),
    }]
}

/// The skip reason covering `case` for the given combo, if any.
pub fn skip_reason(
    kernel: Kernel,
    format: FormatKind,
    backend: BackendKind,
    case: &Case,
) -> Option<&'static str> {
    skips()
        .into_iter()
        .find(|s| {
            s.kernel == kernel
                && s.format == format
                && s.backend == backend
                && s.cases.is_none_or(|p| p(case))
        })
        .map(|s| s.reason)
}

/// CPU pool sizes exercised per cell family. The runner forces explicit
/// worker counts (never "all cores") so results do not depend on the host.
const POOLS: [usize; 2] = [1, 4];
const MTTKRP_POOLS: [usize; 2] = [2, 4];

/// Runs `f` with the process-wide SIMD dispatch pinned to `level`
/// (capped by what the host supports), restoring auto-detection afterwards
/// even across unwinds. Cells execute sequentially in [`run_matrix`], so
/// pinning is race-free within a run; on hosts without AVX2 both pinned
/// runs execute the scalar body and the cell degenerates to `x == x`.
fn with_simd<T>(level: SimdLevel, f: impl FnOnce() -> T) -> T {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            force_simd(None);
        }
    }
    let _reset = Reset;
    force_simd(Some(level));
    f()
}

fn cpu_ctx(threads: usize) -> Ctx {
    Ctx::new(threads, Schedule::Static)
}

/// The full cell registry, generated from [`pasta_kernels::registry`]: each
/// registered combo contributes its cells through `push_combo_cells`, so
/// a combo added to the kernel registry without conformance coverage (and
/// without a [`skips`] entry) fails the completeness test.
pub fn cells() -> Vec<Cell> {
    let mut cs = Vec::new();
    for combo in registry() {
        push_combo_cells(&mut cs, combo);
    }
    for route in expr_registry() {
        push_expr_cells(&mut cs, route);
    }
    for route in serve_registry() {
        push_serve_cells(&mut cs, route);
    }
    cs
}

/// Emits the conformance cells for one registered combo.
#[allow(clippy::too_many_lines)]
fn push_combo_cells(cs: &mut Vec<Cell>, combo: Combo) {
    use BackendKind::{Cpu, Gpu};
    match (combo.kernel, combo.format, combo.backend) {
        // TEW and TS: every format through the generic FormatAccess path,
        // CPU pools, 0 ULP.
        (Kernel::Tew, fmt, Cpu) => {
            for t in POOLS {
                cs.push(Cell::new(format!("tew/{fmt}/cpu/t{t}"), 0, move |cc| {
                    let ctx = cpu_ctx(t);
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    for &op in tew_ops(fmt) {
                        got.extend(tew_fmt(cc, fmt, op, &ctx)?.0);
                        want.extend(tew_dense(op, &cc.x, &cc.y)?);
                    }
                    Ok((got, want))
                }));
            }
        }
        (Kernel::Ts, fmt, Cpu) => {
            for t in POOLS {
                cs.push(Cell::new(format!("ts/{fmt}/cpu/t{t}"), 0, move |cc| {
                    let ctx = cpu_ctx(t);
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    for &op in ts_ops(fmt) {
                        got.extend(ts_fmt(cc, fmt, op, &ctx)?.0);
                        want.extend(ts_dense(op, &cc.x, TS_SCALAR)?);
                    }
                    Ok((got, want))
                }));
            }
        }
        // The registered GPU element-wise kernels are the shared COO value
        // loops; one registry row fans out to a cell per format's value
        // array, all bit-identical to the CPU kernels.
        (Kernel::Tew, FormatKind::Coo, Gpu) => {
            for fmt in FormatKind::ALL {
                cs.push(Cell::new(format!("tew/{fmt}/gpu"), 0, move |cc| {
                    let ctx = Ctx::sequential();
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    for &op in tew_ops(fmt) {
                        let (xv, yv) = fmt_value_arrays(cc, fmt);
                        let mut k = pasta_simt::GpuTewCoo::from_values(xv, yv, op)?;
                        launch(&p100(), &mut k);
                        got.extend(k.output());
                        want.extend(tew_fmt(cc, fmt, op, &ctx)?.1);
                    }
                    Ok((got, want))
                }));
            }
        }
        (Kernel::Ts, FormatKind::Coo, Gpu) => {
            for fmt in FormatKind::ALL {
                cs.push(Cell::new(format!("ts/{fmt}/gpu"), 0, move |cc| {
                    let ctx = Ctx::sequential();
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    for &op in ts_ops(fmt) {
                        let (xv, _) = fmt_value_arrays(cc, fmt);
                        let mut k = pasta_simt::GpuTsCoo::from_values(xv, op, TS_SCALAR)?;
                        launch(&p100(), &mut k);
                        got.extend(k.output());
                        want.extend(ts_fmt(cc, fmt, op, &ctx)?.1);
                    }
                    Ok((got, want))
                }));
            }
        }

        // TTV.
        (Kernel::Ttv, FormatKind::Coo, Cpu) => {
            for t in POOLS {
                cs.push(Cell::new(format!("ttv/coo/cpu/t{t}"), TTV_BUDGET, move |cc| {
                    let got = ttv_coo(&cc.x, &cc.v, cc.case.mode, &cpu_ctx(t))?
                        .to_dense(ORACLE_MAX_ENTRIES);
                    let want = ttv_dense(&cc.x, &cc.v, cc.case.mode)?.1;
                    Ok((got, want))
                }));
            }
            // SIMD dispatch parity: the vectorized gather_dot reduces in
            // fixed-width lanes, so it gets its own ULP budget against the
            // forced-scalar kernel.
            cs.push(Cell::new("ttv/coo/cpu/simd/t1".into(), TTV_BUDGET, |cc| {
                let ctx = Ctx::sequential();
                let got =
                    with_simd(SimdLevel::Avx2Fma, || ttv_coo(&cc.x, &cc.v, cc.case.mode, &ctx))?
                        .to_dense(ORACLE_MAX_ENTRIES);
                let want =
                    with_simd(SimdLevel::Scalar, || ttv_coo(&cc.x, &cc.v, cc.case.mode, &ctx))?
                        .to_dense(ORACLE_MAX_ENTRIES);
                Ok((got, want))
            }));
        }
        (Kernel::Ttv, FormatKind::Hicoo, Cpu) => {
            for t in POOLS {
                cs.push(Cell::new(format!("ttv/hicoo/cpu/t{t}"), TTV_BUDGET, move |cc| {
                    let got = ttv_hicoo(&cc.x, &cc.v, cc.case.mode, cc.case.block, &cpu_ctx(t))?
                        .to_coo()
                        .to_dense(ORACLE_MAX_ENTRIES);
                    let want = ttv_dense(&cc.x, &cc.v, cc.case.mode)?.1;
                    Ok((got, want))
                }));
            }
            cs.push(Cell::new("ttv/hicoo/cpu/simd/t1".into(), TTV_BUDGET, |cc| {
                let ctx = Ctx::sequential();
                let got = with_simd(SimdLevel::Avx2Fma, || {
                    ttv_hicoo(&cc.x, &cc.v, cc.case.mode, cc.case.block, &ctx)
                })?
                .to_coo()
                .to_dense(ORACLE_MAX_ENTRIES);
                let want = with_simd(SimdLevel::Scalar, || {
                    ttv_hicoo(&cc.x, &cc.v, cc.case.mode, cc.case.block, &ctx)
                })?
                .to_coo()
                .to_dense(ORACLE_MAX_ENTRIES);
                Ok((got, want))
            }));
        }
        (Kernel::Ttv, FormatKind::Csf, Cpu) => {
            for t in POOLS {
                cs.push(Cell::new(format!("ttv/csf/cpu/t{t}"), TTV_BUDGET, move |cc| {
                    let got =
                        ttv_csf_leaf(&cc.cx_leaf, &cc.v, &cpu_ctx(t))?.to_dense(ORACLE_MAX_ENTRIES);
                    let want = ttv_dense(&cc.x, &cc.v, cc.case.mode)?.1;
                    Ok((got, want))
                }));
            }
        }
        (Kernel::Ttv, FormatKind::Fcoo, Cpu) => {
            for t in POOLS {
                cs.push(Cell::new(format!("ttv/fcoo/cpu/t{t}"), TTV_BUDGET, move |cc| {
                    let got = ttv_fcoo(&cc.fx, &cc.v, &cpu_ctx(t))?.to_dense(ORACLE_MAX_ENTRIES);
                    let want = ttv_dense(&cc.x, &cc.v, cc.case.mode)?.1;
                    Ok((got, want))
                }));
            }
        }
        (Kernel::Ttv, FormatKind::Coo, Gpu) => {
            cs.push(Cell::new("ttv/coo/gpu".into(), TTV_BUDGET, |cc| {
                let mut k = pasta_simt::GpuTtvCoo::new(&cc.x, &cc.v, cc.case.mode)?;
                launch(&p100(), &mut k);
                let want = ttv_coo(&cc.x, &cc.v, cc.case.mode, &Ctx::sequential())?.vals().to_vec();
                Ok((k.output().to_vec(), want))
            }));
        }
        (Kernel::Ttv, FormatKind::Fcoo, Gpu) => {
            cs.push(Cell::new("ttv/fcoo/gpu".into(), TTV_BUDGET, |cc| {
                // F-COO and the sequential COO kernel order fibers the same
                // way (both sort mode-last), so the streams align.
                let mut k = pasta_simt::GpuTtvFcoo::new(&cc.fx, &cc.v)?;
                launch(&p100(), &mut k);
                let want = ttv_coo(&cc.x, &cc.v, cc.case.mode, &Ctx::sequential())?.vals().to_vec();
                Ok((k.output().to_vec(), want))
            }));
        }

        // TTM.
        (Kernel::Ttm, FormatKind::Coo, Cpu) => {
            for t in POOLS {
                cs.push(Cell::new(format!("ttm/coo/cpu/t{t}"), TTM_BUDGET, move |cc| {
                    let got = ttm_coo(&cc.x, &cc.u, cc.case.mode, &cpu_ctx(t))?
                        .to_coo()
                        .to_dense(ORACLE_MAX_ENTRIES);
                    let want = ttm_dense(&cc.x, &cc.u, cc.case.mode)?.1;
                    Ok((got, want))
                }));
            }
            // TTM accumulates through axpy, which is lane-local under SIMD:
            // bit-identity (budget 0) against forced-scalar, by construction.
            cs.push(Cell::new("ttm/coo/cpu/simd/t1".into(), 0, |cc| {
                let ctx = Ctx::sequential();
                let got =
                    with_simd(SimdLevel::Avx2Fma, || ttm_coo(&cc.x, &cc.u, cc.case.mode, &ctx))?
                        .to_coo()
                        .to_dense(ORACLE_MAX_ENTRIES);
                let want =
                    with_simd(SimdLevel::Scalar, || ttm_coo(&cc.x, &cc.u, cc.case.mode, &ctx))?
                        .to_coo()
                        .to_dense(ORACLE_MAX_ENTRIES);
                Ok((got, want))
            }));
        }
        (Kernel::Ttm, FormatKind::Hicoo, Cpu) => {
            for t in POOLS {
                cs.push(Cell::new(format!("ttm/hicoo/cpu/t{t}"), TTM_BUDGET, move |cc| {
                    let got = ttm_hicoo(&cc.x, &cc.u, cc.case.mode, cc.case.block, &cpu_ctx(t))?
                        .to_scoo()?
                        .to_coo()
                        .to_dense(ORACLE_MAX_ENTRIES);
                    let want = ttm_dense(&cc.x, &cc.u, cc.case.mode)?.1;
                    Ok((got, want))
                }));
            }
        }
        (Kernel::Ttm, FormatKind::Scoo, Cpu) => {
            for t in POOLS {
                cs.push(Cell::new(format!("ttm/scoo/cpu/t{t}"), TTM_BUDGET, move |cc| {
                    if skip_reason(Kernel::Ttm, FormatKind::Scoo, Cpu, &cc.case).is_some() {
                        return Ok((Vec::new(), Vec::new()));
                    }
                    let got = ttm_scoo(&cc.sx, &cc.u, cc.case.mode, &cpu_ctx(t))?
                        .to_coo()
                        .to_dense(ORACLE_MAX_ENTRIES);
                    let want = ttm_dense(&cc.x, &cc.u, cc.case.mode)?.1;
                    Ok((got, want))
                }));
            }
        }
        (Kernel::Ttm, FormatKind::Coo, Gpu) => {
            cs.push(Cell::new("ttm/coo/gpu".into(), TTM_BUDGET, |cc| {
                let mut k = pasta_simt::GpuTtmCoo::new(&cc.x, &cc.u, cc.case.mode)?;
                launch(&p100(), &mut k);
                let want = ttm_coo(&cc.x, &cc.u, cc.case.mode, &Ctx::sequential())?.vals().to_vec();
                Ok((k.output().to_vec(), want))
            }));
        }

        // MTTKRP: sequential vs the dense oracle; owner-computes
        // bit-identical to sequential on the sorted tensor; privatized
        // ULP-bounded.
        (Kernel::Mttkrp, FormatKind::Coo, Cpu) => {
            cs.push(Cell::new("mttkrp/coo/cpu/seq/t1".into(), MTTKRP_SEQ_BUDGET, |cc| {
                let got = mttkrp_coo(&cc.x, &cc.factors, cc.case.mode, &Ctx::sequential())?;
                let want = mttkrp_dense(&cc.x, &cc.factors, cc.case.mode)?;
                Ok((got.as_slice().to_vec(), want.as_slice().to_vec()))
            }));
            for t in MTTKRP_POOLS {
                cs.push(Cell::new(format!("mttkrp/coo/cpu/owner/t{t}"), 0, move |cc| {
                    let ctx = cpu_ctx(t).with_mttkrp(StrategyChoice::Owner);
                    let got = mttkrp_coo(&cc.sorted_x, &cc.factors, cc.case.mode, &ctx)?;
                    let want =
                        mttkrp_coo(&cc.sorted_x, &cc.factors, cc.case.mode, &Ctx::sequential())?;
                    Ok((got.as_slice().to_vec(), want.as_slice().to_vec()))
                }));
                cs.push(Cell::new(
                    format!("mttkrp/coo/cpu/priv/t{t}"),
                    MTTKRP_PRIV_BUDGET,
                    move |cc| {
                        let ctx = cpu_ctx(t).with_mttkrp(StrategyChoice::Privatized);
                        let got = mttkrp_coo(&cc.x, &cc.factors, cc.case.mode, &ctx)?;
                        let want =
                            mttkrp_coo(&cc.x, &cc.factors, cc.case.mode, &Ctx::sequential())?;
                        Ok((got.as_slice().to_vec(), want.as_slice().to_vec()))
                    },
                ));
            }
            // The Khatri-Rao inner loops are mul_assign/add_assign —
            // lane-local under SIMD, so bit-identity (budget 0) holds.
            cs.push(Cell::new("mttkrp/coo/cpu/simd/t1".into(), 0, |cc| {
                let ctx = Ctx::sequential();
                let got = with_simd(SimdLevel::Avx2Fma, || {
                    mttkrp_coo(&cc.x, &cc.factors, cc.case.mode, &ctx)
                })?;
                let want = with_simd(SimdLevel::Scalar, || {
                    mttkrp_coo(&cc.x, &cc.factors, cc.case.mode, &ctx)
                })?;
                Ok((got.as_slice().to_vec(), want.as_slice().to_vec()))
            }));
        }
        (Kernel::Mttkrp, FormatKind::Hicoo, Cpu) => {
            for t in POOLS {
                cs.push(Cell::new(
                    format!("mttkrp/hicoo/cpu/t{t}"),
                    MTTKRP_HICOO_BUDGET,
                    move |cc| {
                        let got = mttkrp_hicoo(&cc.hx, &cc.factors, cc.case.mode, &cpu_ctx(t))?;
                        let want = mttkrp_dense(&cc.x, &cc.factors, cc.case.mode)?;
                        Ok((got.as_slice().to_vec(), want.as_slice().to_vec()))
                    },
                ));
            }
        }
        (Kernel::Mttkrp, FormatKind::Csf, Cpu) => {
            for t in POOLS {
                cs.push(Cell::new(format!("mttkrp/csf/cpu/t{t}"), MTTKRP_CSF_BUDGET, move |cc| {
                    // The tree is built with `case.mode` as the root, so
                    // the root-mode kernel computes that mode's MTTKRP.
                    let got = mttkrp_csf_root(&cc.cx_root, &cc.factors, &cpu_ctx(t))?;
                    let want = mttkrp_dense(&cc.x, &cc.factors, cc.case.mode)?;
                    Ok((got.as_slice().to_vec(), want.as_slice().to_vec()))
                }));
            }
        }
        (Kernel::Mttkrp, FormatKind::Coo, Gpu) => {
            cs.push(Cell::new("mttkrp/coo/gpu".into(), MTTKRP_GPU_BUDGET, |cc| {
                let mut k = pasta_simt::GpuMttkrpCoo::new(&cc.x, &cc.factors, cc.case.mode)?;
                launch(&p100(), &mut k);
                let want = mttkrp_dense(&cc.x, &cc.factors, cc.case.mode)?;
                Ok((k.output().as_slice().to_vec(), want.as_slice().to_vec()))
            }));
        }
        (Kernel::Mttkrp, FormatKind::Hicoo, Gpu) => {
            cs.push(Cell::new("mttkrp/hicoo/gpu".into(), MTTKRP_GPU_BUDGET, |cc| {
                let mut k = pasta_simt::GpuMttkrpHicoo::new(&cc.hx, &cc.factors, cc.case.mode)?;
                launch(&p100(), &mut k);
                let want = mttkrp_dense(&cc.x, &cc.factors, cc.case.mode)?;
                Ok((k.output().as_slice().to_vec(), want.as_slice().to_vec()))
            }));
        }

        // Anything else must carry a skips() entry — enforced by the
        // completeness test.
        _ => {}
    }
}

/// Contracts `mode` of a dense row-major array with a vector (one step of
/// the composed TTV-chain oracle). Removes `mode` from `dims`.
fn dense_ttv_step(dims: &mut Vec<usize>, data: &[f32], mode: usize, v: &[f32]) -> Vec<f32> {
    let dm = dims[mode];
    let inner: usize = dims[mode + 1..].iter().product();
    let outer: usize = dims[..mode].iter().product();
    let mut out = vec![0.0f32; outer * inner];
    for o in 0..outer {
        for (k, &vk) in v.iter().enumerate().take(dm) {
            let base = (o * dm + k) * inner;
            for i in 0..inner {
                out[o * inner + i] += data[base + i] * vk;
            }
        }
    }
    dims.remove(mode);
    out
}

/// One dense TTM step (`Y = X ×_mode U`, summing over the mode index —
/// the suite's TTM convention). Replaces `dims[mode]` with `U`'s columns.
fn dense_ttm_step(dims: &mut [usize], data: &[f32], mode: usize, u: &DenseMatrix<f32>) -> Vec<f32> {
    let dm = dims[mode];
    let r = u.cols();
    let inner: usize = dims[mode + 1..].iter().product();
    let outer: usize = dims[..mode].iter().product();
    let mut out = vec![0.0f32; outer * r * inner];
    for o in 0..outer {
        for k in 0..dm {
            let base = (o * dm + k) * inner;
            for rr in 0..r {
                let w = u.get(k, rr);
                let ob = (o * r + rr) * inner;
                for i in 0..inner {
                    out[ob + i] += data[base + i] * w;
                }
            }
        }
    }
    dims[mode] = r;
    out
}

/// Flattens any [`ExprOut`] into the dense comparison space the oracles
/// live in (sparse variants through the dense image, dense variants as
/// their row-major payload).
fn expr_out_dense(out: ExprOut<f32>) -> Vec<f32> {
    match out {
        ExprOut::Coo(t) => t.to_dense(ORACLE_MAX_ENTRIES),
        ExprOut::Semi(s) => s.to_coo().to_dense(ORACLE_MAX_ENTRIES),
        ExprOut::Dense { vals, .. } => vals,
        ExprOut::Matrix(m) => m.as_slice().to_vec(),
    }
}

/// Emits the conformance cells for one expression-graph route: a graph is
/// built, lowered through the planner, executed, and compared against the
/// same expression composed kernel-at-a-time (or against the dense step
/// oracles), so the cells pin the whole lower-then-execute pipeline
/// rather than any single kernel.
#[allow(clippy::too_many_lines)]
fn push_expr_cells(cs: &mut Vec<Cell>, route: ExprRoute) {
    use BackendKind::Cpu;
    match (route.label, route.format, route.backend) {
        // The TTM chains of a Tucker sweep (every mode but the case mode,
        // then the full contraction to the core), forced fused, vs the
        // composed dense TTM step oracle.
        ("ttmchain", FormatKind::Coo, Cpu) => {
            for t in POOLS {
                cs.push(Cell::new(format!("{route}/t{t}"), FUSED_TTM_BUDGET, move |cc| {
                    let order = cc.case.order();
                    let skip = cc.case.mode;
                    let ctx = cpu_ctx(t).with_fusion(FusionChoice::Fuse);
                    let chain = |skip: usize| -> Result<ExprOut<f32>> {
                        let mut g = ExprGraph::new();
                        let leaf = g.leaf(&cc.x);
                        let mats = (0..order)
                            .filter(|&m| m != skip)
                            .map(|m| MatOperand::Owned(cc.factors[m].clone()))
                            .collect();
                        let root = g.ttm_all_but(leaf, skip, mats)?;
                        lower(&g, root, &ctx)?.execute(&Bindings::none())
                    };
                    let dense_x = cc.x.to_dense(ORACLE_MAX_ENTRIES);
                    let base_dims: Vec<usize> =
                        cc.x.shape().dims().iter().map(|&d| d as usize).collect();
                    // Skip-mode chain (the HOOI sweep body)…
                    let mut got = expr_out_dense(chain(skip)?);
                    let mut dims = base_dims.clone();
                    let mut want = dense_x.clone();
                    for m in 0..order {
                        if m != skip {
                            want = dense_ttm_step(&mut dims, &want, m, &cc.factors[m]);
                        }
                    }
                    // …and the full contraction (the Tucker core).
                    got.extend(expr_out_dense(chain(order)?));
                    let mut dims2 = base_dims;
                    let mut acc = dense_x;
                    for m in 0..order {
                        acc = dense_ttm_step(&mut dims2, &acc, m, &cc.factors[m]);
                    }
                    want.extend(acc);
                    Ok((got, want))
                }));
            }
        }
        // One CP-ALS sweep through the lowered MTTKRP graph and the Gram
        // cache vs the composed kernel-at-a-time sweep.
        ("alssweep", fmt, Cpu) => {
            for t in POOLS {
                cs.push(Cell::new(format!("{route}/t{t}"), FUSED_ALS_BUDGET, move |cc| {
                    let ctx = cpu_ctx(t);
                    let r = cc.case.rank;
                    let fused = (|| -> Result<Vec<f32>> {
                        let mut ff = cc.factors.clone();
                        let mut lf = vec![1.0f32; r];
                        let mut plan = AlsSweep::new(&cc.x, fmt, cc.case.block, &ff, &ctx)?;
                        plan.sweep(&mut ff, &mut lf)?;
                        let mut got: Vec<f32> =
                            ff.iter().flat_map(|f| f.as_slice().to_vec()).collect();
                        got.extend_from_slice(&lf);
                        Ok(got)
                    })();
                    // Composed kernel-at-a-time sweep: MTTKRP, recomputed
                    // Grams, Cholesky solve, normalize — per mode.
                    let composed = (|| -> Result<Vec<f32>> {
                        let mut fm = cc.factors.clone();
                        let mut lm = vec![1.0f32; r];
                        let hic = match fmt {
                            FormatKind::Hicoo => Some(HiCooTensor::from_coo(&cc.x, cc.case.block)?),
                            _ => None,
                        };
                        for n in 0..cc.case.order() {
                            let m_out = match &hic {
                                Some(h) => mttkrp_hicoo(h, &fm, n, &ctx)?,
                                None => mttkrp_coo(&cc.x, &fm, n, &ctx)?,
                            };
                            let mut v: Option<DenseMatrix<f32>> = None;
                            for (m, f) in fm.iter().enumerate() {
                                if m == n {
                                    continue;
                                }
                                let g = gram(f);
                                v = Some(match v {
                                    Some(acc) => hadamard(&acc, &g),
                                    None => g,
                                });
                            }
                            let v = v.expect("order >= 2");
                            let ch = Cholesky::factor(&v, 1e-10f32).ok_or_else(|| {
                                pasta_core::Error::OperandMismatch {
                                    what: "gram Hadamard product not positive definite".into(),
                                }
                            })?;
                            let mut a = m_out;
                            ch.solve_rows(&mut a);
                            let norms = normalize_columns(&mut a);
                            for (l, nn) in lm.iter_mut().zip(&norms) {
                                *l = if *nn == 0.0 { 0.0 } else { *nn };
                            }
                            fm[n] = a;
                        }
                        let mut want: Vec<f32> =
                            fm.iter().flat_map(|f| f.as_slice().to_vec()).collect();
                        want.extend_from_slice(&lm);
                        Ok(want)
                    })();
                    match (fused, composed) {
                        (Ok(got), Ok(want)) => Ok((got, want)),
                        // Degenerate cases (e.g. rank > nnz) make the Gram
                        // Hadamard singular; the contract is that both
                        // routes reject them identically.
                        (Err(_), Err(_)) => Ok((Vec::new(), Vec::new())),
                        (Ok(_), Err(e)) | (Err(e), Ok(_)) => Err(e),
                    }
                }));
            }
        }
        // A mixed TEW→TTV(→TTM) chain lowered as one graph vs the same
        // steps as separate kernel calls with materialized intermediates.
        ("chain", FormatKind::Coo, Cpu) => {
            for t in POOLS {
                cs.push(Cell::new(format!("{route}/t{t}"), FUSED_TTM_BUDGET, move |cc| {
                    let order = cc.case.order();
                    let last = order - 1;
                    let ctx = cpu_ctx(t);
                    let v =
                        seeded_vector::<f32>(cc.x.shape().dim(last) as usize, cc.case.seed ^ 0xE1);
                    let rank = cc.case.rank.max(1);
                    let u = seeded_matrix::<f32>(
                        cc.x.shape().dim(0) as usize,
                        rank,
                        cc.case.seed ^ 0xE2,
                    );
                    let mut g = ExprGraph::new();
                    let leaf = g.leaf(&cc.x);
                    let e = g.tew(leaf, EwOp::Mul, cc.y.clone())?;
                    let mut root = g.ttv(e, last, VecOperand::Owned(v.clone()))?;
                    if order >= 3 {
                        root = g.ttm(root, 0, MatOperand::Owned(u.clone()))?;
                    }
                    let plan = lower(&g, root, &ctx)?;
                    let got = expr_out_dense(plan.execute(&Bindings::none())?);
                    let step1 = tew_coo_same_pattern(EwOp::Mul, &cc.x, &cc.y, &ctx)?;
                    let step2 = ttv_coo(&step1, &v, last, &ctx)?;
                    let want = if order >= 3 {
                        ttm_coo(&step2, &u, 0, &ctx)?.to_coo().to_dense(ORACLE_MAX_ENTRIES)
                    } else {
                        step2.to_dense(ORACLE_MAX_ENTRIES)
                    };
                    Ok((got, want))
                }));
            }
        }
        // Multi-mode TTV product through ttv_multi vs the composed dense
        // TTV step oracle.
        ("ttv", FormatKind::Coo, Cpu) => {
            for t in POOLS {
                cs.push(Cell::new(format!("{route}/t{t}"), FUSED_TTV_BUDGET, move |cc| {
                    let order = cc.case.order();
                    let first = order.saturating_sub(2).max(1);
                    let contract: Vec<usize> = (first..order).collect();
                    let vecs: Vec<DenseVector<f32>> = contract
                        .iter()
                        .map(|&m| seeded_vector(cc.x.shape().dim(m) as usize, 31 + m as u64))
                        .collect();
                    let ctx = cpu_ctx(t);
                    let mut g = ExprGraph::new();
                    let leaf = g.leaf(&cc.x);
                    let ops = vecs.iter().cloned().map(VecOperand::Owned).collect();
                    let root = g.ttv_multi(leaf, &contract, ops)?;
                    let plan = lower(&g, root, &ctx)?;
                    let got = expr_out_dense(plan.execute(&Bindings::none())?);
                    let mut dims: Vec<usize> =
                        cc.x.shape().dims().iter().map(|&d| d as usize).collect();
                    let mut want = cc.x.to_dense(ORACLE_MAX_ENTRIES);
                    for (j, &m) in contract.iter().enumerate().rev() {
                        want = dense_ttv_step(&mut dims, &want, m, vecs[j].as_slice());
                    }
                    Ok((got, want))
                }));
            }
        }
        // Full contraction to a dense core (ttm_all_but with no skip) vs
        // the composed dense TTM step oracle.
        ("contract", FormatKind::Coo, Cpu) => {
            for t in POOLS {
                cs.push(Cell::new(format!("{route}/t{t}"), FUSED_TTM_BUDGET, move |cc| {
                    let order = cc.case.order();
                    let ctx = cpu_ctx(t);
                    let mut g = ExprGraph::new();
                    let leaf = g.leaf(&cc.x);
                    let mats: Vec<MatOperand<f32>> =
                        cc.factors.iter().map(|f| MatOperand::Owned(f.clone())).collect();
                    let root = g.ttm_all_but(leaf, order, mats)?;
                    let plan = lower(&g, root, &ctx)?;
                    let got = expr_out_dense(plan.execute(&Bindings::none())?);
                    let mut dims: Vec<usize> =
                        cc.x.shape().dims().iter().map(|&d| d as usize).collect();
                    let mut want = cc.x.to_dense(ORACLE_MAX_ENTRIES);
                    for m in 0..order {
                        want = dense_ttm_step(&mut dims, &want, m, &cc.factors[m]);
                    }
                    Ok((got, want))
                }));
            }
        }
        // The planner-cached MTTKRP head, rebound per mode, vs the
        // sequential kernel (the head may pick a parallel strategy, so it
        // carries the privatized-reduction budget).
        ("mttkrp", FormatKind::Coo, Cpu) => {
            for t in POOLS {
                cs.push(Cell::new(format!("{route}/t{t}"), MTTKRP_PRIV_BUDGET, move |cc| {
                    let ctx = cpu_ctx(t);
                    let mut g = ExprGraph::new();
                    let leaf = g.leaf(&cc.x);
                    let root = g.mttkrp(leaf, cc.case.rank, FormatKind::Coo, cc.case.block)?;
                    let plan = lower(&g, root, &ctx)?;
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    // One lowering serves every mode — the rebinding
                    // contract the ALS driver relies on.
                    for n in 0..cc.case.order() {
                        let out = match plan.execute(&Bindings::mttkrp(&cc.factors, n))? {
                            ExprOut::Matrix(m) => m,
                            _ => {
                                return Err(pasta_core::Error::OperandMismatch {
                                    what: "mttkrp head did not produce a matrix".into(),
                                })
                            }
                        };
                        got.extend_from_slice(out.as_slice());
                        let seq = mttkrp_coo(&cc.x, &cc.factors, n, &Ctx::sequential())?;
                        want.extend_from_slice(seq.as_slice());
                    }
                    Ok((got, want))
                }));
            }
        }
        _ => {}
    }
}

/// Submits each spec to a fresh sharded, cache-enabled server twice (the
/// second pass answers from the conversion cache) and pairs every served
/// response against [`direct_eval`] on the same tensor, so one cell pins
/// both the cold and the cache-warm dispatch path.
fn serve_pair(cc: &CaseCtx, specs: &[OpSpec]) -> Result<(Vec<f32>, Vec<f32>)> {
    let mut catalog = ServeCatalog::new();
    catalog.insert(0, cc.case.label.clone(), cc.x.clone());
    let cfg = ServerConfig { threads: 2, shards: 3, shard_nnz_threshold: 1, cache_bytes: 1 << 20 };
    let mut server = Server::new(catalog, cfg);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for &op in specs {
        let served = server
            .submit([ServeRequest { tensor: 0, op }])
            .and_then(|cold| Ok((cold, server.submit([ServeRequest { tensor: 0, op }])?)));
        let direct = direct_eval(&cc.x, &op);
        match (served, direct) {
            (Ok((cold, warm)), Ok(d)) => {
                for resp in cold.into_iter().chain(warm) {
                    got.extend(resp.values);
                    want.extend_from_slice(&d);
                }
            }
            // Degenerate configurations (e.g. rank > nnz decompositions)
            // must be rejected identically on both sides.
            (Err(_), Err(_)) => {}
            (Ok(_), Err(e)) | (Err(e), Ok(_)) => return Err(e),
        }
    }
    Ok((got, want))
}

/// Emits one differential cell per serving-layer route: the served
/// response against [`direct_eval`]. Budgets mirror the underlying
/// kernels — element-wise lanes, owner-computes MTTKRP and the
/// sequential decomposition jobs are bit-identical contracts, while
/// TTV/TTM reuse the single-kernel reduction budgets.
fn push_serve_cells(cs: &mut Vec<Cell>, route: &ServeRoute) {
    let id = format!("serve-{}/{}/cpu", route.op, route.format);
    match (route.op, route.format) {
        ("tew", FormatKind::Coo) => cs.push(Cell::new(id, 0, |cc| {
            let specs: Vec<OpSpec> =
                EwOp::ALL.into_iter().map(|op| OpSpec::Tew { op, seed: cc.case.seed }).collect();
            serve_pair(cc, &specs)
        })),
        ("ts", FormatKind::Coo) => cs.push(Cell::new(id, 0, |cc| {
            let specs: Vec<OpSpec> =
                TsOp::ALL.into_iter().map(|op| OpSpec::Ts { op, scalar: TS_SCALAR }).collect();
            serve_pair(cc, &specs)
        })),
        ("ttv", FormatKind::Csf) => cs.push(Cell::new(id, TTV_BUDGET, |cc| {
            serve_pair(cc, &[OpSpec::Ttv { mode: cc.case.mode, seed: cc.case.seed }])
        })),
        ("ttm", FormatKind::Coo) => cs.push(Cell::new(id, TTM_BUDGET, |cc| {
            let spec =
                OpSpec::Ttm { mode: cc.case.mode, rank: cc.case.rank.max(1), seed: cc.case.seed };
            serve_pair(cc, &[spec])
        })),
        ("mttkrp", FormatKind::Coo) => cs.push(Cell::new(id, 0, |cc| {
            let spec = OpSpec::Mttkrp {
                mode: cc.case.mode,
                rank: cc.case.rank.max(1),
                seed: cc.case.seed,
                route: MttkrpRoute::Coo,
            };
            serve_pair(cc, &[spec])
        })),
        ("mttkrp", FormatKind::Hicoo) => cs.push(Cell::new(id, 0, |cc| {
            let spec = OpSpec::Mttkrp {
                mode: cc.case.mode,
                rank: cc.case.rank.max(1),
                seed: cc.case.seed,
                route: MttkrpRoute::Hicoo(cc.case.block),
            };
            serve_pair(cc, &[spec])
        })),
        ("cpd", FormatKind::Coo) => cs.push(Cell::new(id, 0, |cc| {
            serve_pair(
                cc,
                &[OpSpec::Cpd { rank: cc.case.rank.max(1), sweeps: 2, seed: cc.case.seed }],
            )
        })),
        ("tucker", FormatKind::Coo) => cs.push(Cell::new(id, 0, |cc| {
            let spec = OpSpec::Tucker { rank: cc.case.rank.max(1), sweeps: 1, seed: cc.case.seed };
            serve_pair(cc, &[spec])
        })),
        // Composite expression chains: the served (lowered, fused,
        // cached) plan against direct kernel-at-a-time evaluation. The
        // budget matches the TTM-bearing fused-chain cells.
        ("expr", FormatKind::Coo) => cs.push(Cell::new(id, FUSED_TTM_BUDGET, |cc| {
            let mut steps = [None; 4];
            steps[0] = Some(ExprStep::Ttv { mode: cc.case.mode });
            steps[1] = Some(ExprStep::Ts { op: TsOp::Mul, scalar: TS_SCALAR });
            if cc.case.order() >= 3 {
                steps[2] = Some(ExprStep::Ttm { mode: 0, rank: cc.case.rank.max(1) });
            }
            serve_pair(cc, &[OpSpec::Expr { spec: ExprSpec { steps, seed: cc.case.seed } }])
        })),
        _ => {}
    }
}

/// A deliberate output perturbation, used by `selftest` (and tests) to
/// prove the harness catches, shrinks and replays a bug. The perturbation
/// is applied to the matching cell's first output value, far outside any
/// budget: `v + max(0.5, 0.01·|v|)`.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// The id of the cell whose output is perturbed.
    pub cell: String,
}

/// The outcome of one (cell, case) evaluation.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// Within budget; carries the worst ULP distance observed.
    Pass(u64),
    /// Failure: budget exceeded, kernel error, panic, or length mismatch.
    Fail {
        /// Worst ULP distance, when the outputs were comparable.
        worst: Option<u64>,
        /// Human-readable reason.
        message: String,
    },
}

/// Evaluates one cell on one case, catching panics.
pub fn eval_cell(cell: &Cell, case: &Case, fault: Option<&FaultSpec>) -> CellOutcome {
    let cc = match CaseCtx::new(case) {
        Ok(cc) => cc,
        Err(e) => return CellOutcome::Fail { worst: None, message: format!("case setup: {e}") },
    };
    let run = catch_unwind(AssertUnwindSafe(|| cell.run(&cc)));
    let (mut got, want) = match run {
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            return CellOutcome::Fail { worst: None, message: format!("panicked: {msg}") };
        }
        Ok(Err(e)) => {
            return CellOutcome::Fail { worst: None, message: format!("kernel error: {e}") }
        }
        Ok(Ok(pair)) => pair,
    };
    if let Some(f) = fault {
        if f.cell == cell.id {
            if let Some(v) = got.first_mut() {
                *v += (0.01 * v.abs()).max(0.5);
            }
        }
    }
    match worst_ulp(&got, &want) {
        None => CellOutcome::Fail {
            worst: None,
            message: format!("output length {} vs reference {}", got.len(), want.len()),
        },
        Some(w) if w > cell.budget => CellOutcome::Fail {
            worst: Some(w),
            message: format!("worst ULP {w} exceeds budget {}", cell.budget),
        },
        Some(w) => CellOutcome::Pass(w),
    }
}

/// Shrinks a failing case for `cell`: entries via ddmin, then dimensions to
/// the minimal covering extents, then rank and mode toward their minima —
/// keeping the failure alive at every step.
pub fn shrink_case(cell: &Cell, case: &Case, fault: Option<&FaultSpec>) -> Case {
    let fails = |c: &Case| matches!(eval_cell(cell, c, fault), CellOutcome::Fail { .. });

    let min_entries = proptest::shrink::ddmin(&case.entries, |subset| {
        let mut c = case.clone();
        c.entries = subset.to_vec();
        fails(&c)
    });
    let mut cur = case.clone();
    cur.entries = min_entries;

    for m in 0..cur.order() {
        let needed = cur.entries.iter().map(|(c, _)| c[m] + 1).max().unwrap_or(1);
        if needed < cur.dims[m] {
            let mut c = cur.clone();
            c.dims[m] = needed;
            if fails(&c) {
                cur = c;
            }
        }
    }

    let best_rank = proptest::shrink::shrink_int(1, cur.rank as u64, |r| {
        let mut c = cur.clone();
        c.rank = r as usize;
        fails(&c)
    }) as usize;
    if best_rank < cur.rank {
        let mut c = cur.clone();
        c.rank = best_rank;
        if fails(&c) {
            cur = c;
        }
    }

    if cur.mode != 0 {
        let mut c = cur.clone();
        c.mode = 0;
        if fails(&c) {
            cur = c;
        }
    }

    cur.label = format!("shrunk:{}", case.label);
    cur
}

/// A cell's failure, with the minimized reproduction case.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Label of the case that first failed.
    pub case_label: String,
    /// Why it failed.
    pub message: String,
    /// The shrunk case (serialize with [`crate::render_case`]).
    pub shrunk: Case,
}

/// Per-cell result over a whole corpus.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Cell identifier.
    pub id: String,
    /// The cell's ULP budget.
    pub budget: u64,
    /// Cases evaluated (stops at the first failure).
    pub cases: usize,
    /// Worst ULP distance across passing cases.
    pub worst: u64,
    /// Label of the case that produced `worst`.
    pub worst_case: String,
    /// Set if the cell failed.
    pub failure: Option<Failure>,
}

/// Runs every cell over every case; the first failure per cell is shrunk
/// and recorded, and later cases for that cell are skipped.
pub fn run_matrix(cases: &[Case], cells: &[Cell], fault: Option<&FaultSpec>) -> Vec<CellReport> {
    cells
        .iter()
        .map(|cell| {
            let mut report = CellReport {
                id: cell.id.clone(),
                budget: cell.budget,
                cases: 0,
                worst: 0,
                worst_case: String::new(),
                failure: None,
            };
            for case in cases {
                report.cases += 1;
                match eval_cell(cell, case, fault) {
                    CellOutcome::Pass(w) => {
                        if w >= report.worst {
                            report.worst = w;
                            report.worst_case = case.label.clone();
                        }
                    }
                    CellOutcome::Fail { message, .. } => {
                        let shrunk = shrink_case(cell, case, fault);
                        report.failure =
                            Some(Failure { case_label: case.label.clone(), message, shrunk });
                        break;
                    }
                }
            }
            report
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::{generate, Tier};

    #[test]
    fn registry_covers_the_matrix() {
        let cs = cells();
        assert!(cs.len() >= 60, "{} cells", cs.len());
        let ids: Vec<&str> = cs.iter().map(|c| c.id.as_str()).collect();
        for fmt in ["coo", "scoo", "hicoo", "ghicoo", "shicoo", "csf", "fcoo"] {
            assert!(ids.contains(&format!("tew/{fmt}/cpu/t1").as_str()), "tew {fmt}");
            assert!(ids.contains(&format!("ts/{fmt}/gpu").as_str()), "ts gpu {fmt}");
        }
        assert!(ids.contains(&"ttv/csf/cpu/t1"));
        assert!(ids.contains(&"ttv/fcoo/gpu"));
        assert!(ids.contains(&"mttkrp/csf/cpu/t4"));
        assert!(ids.contains(&"mttkrp/coo/cpu/owner/t2"));
        assert!(ids.contains(&"mttkrp/hicoo/gpu"));
        assert!(ids.contains(&"expr-ttmchain/coo/cpu/t4"));
        assert!(ids.contains(&"expr-alssweep/hicoo/cpu/t4"));
        assert!(ids.contains(&"expr-chain/coo/cpu/t1"));
        assert!(ids.contains(&"expr-contract/coo/cpu/t4"));
        assert!(ids.contains(&"expr-mttkrp/coo/cpu/t1"));
        assert!(ids.contains(&"serve-tew/coo/cpu"));
        assert!(ids.contains(&"serve-mttkrp/hicoo/cpu"));
        assert!(ids.contains(&"serve-cpd/coo/cpu"));
        assert!(ids.contains(&"serve-expr/coo/cpu"));
        // Ids are unique.
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
        // Element-wise cells are all bit-identical contracts, served or
        // direct.
        for c in &cs {
            if c.id.starts_with("tew/")
                || c.id.starts_with("ts/")
                || c.id.starts_with("serve-tew/")
                || c.id.starts_with("serve-ts/")
            {
                assert_eq!(c.budget, 0, "{}", c.id);
            }
        }
    }

    #[test]
    fn every_registered_combo_has_cells_or_skip() {
        let ids: Vec<String> = cells().into_iter().map(|c| c.id).collect();
        let sk = skips();
        for combo in registry() {
            let prefix = combo.to_string();
            let covered =
                ids.iter().any(|id| *id == prefix || id.starts_with(&format!("{prefix}/")));
            let excused = sk.iter().any(|s| {
                s.kernel == combo.kernel
                    && s.format == combo.format
                    && s.backend == combo.backend
                    && s.cases.is_none()
            });
            assert!(
                covered || excused,
                "registered combo {prefix} has no conformance cell and no skip entry"
            );
        }
    }

    #[test]
    fn every_cell_maps_to_a_registered_combo() {
        let reg: Vec<String> = registry().iter().map(ToString::to_string).collect();
        let expr_reg: Vec<String> = expr_registry().iter().map(ToString::to_string).collect();
        for cell in cells() {
            let parts: Vec<&str> = cell.id.split('/').collect();
            let (k, f, b) = (parts[0], parts[1], parts[2]);
            // Serve cells map to the serving-layer route registry.
            if let Some(op) = k.strip_prefix("serve-") {
                assert!(
                    serve_registry()
                        .iter()
                        .any(|r| r.op == op && r.format.to_string() == f && b == "cpu"),
                    "cell {} maps to unregistered serve route serve-{op}/{f}/{b}",
                    cell.id
                );
                continue;
            }
            // Expression-graph cells map to the expr-route registry.
            if k.starts_with("expr-") {
                let route = format!("{k}/{f}/{b}");
                assert!(
                    expr_reg.contains(&route),
                    "cell {} maps to unregistered expr route {route}",
                    cell.id
                );
                continue;
            }
            // GPU element-wise cells for non-COO formats run the registered
            // COO value loop over that format's value array (the paper's
            // shared-value-loop observation), so they map to the COO combo.
            let combo = if (k == "tew" || k == "ts") && b == "gpu" {
                format!("{k}/coo/gpu")
            } else {
                format!("{k}/{f}/{b}")
            };
            assert!(reg.contains(&combo), "cell {} maps to unregistered combo {combo}", cell.id);
        }
    }

    #[test]
    fn every_expr_route_has_cells() {
        let ids: Vec<String> = cells().into_iter().map(|c| c.id).collect();
        for route in expr_registry() {
            let prefix = route.to_string();
            assert!(
                ids.iter().any(|id| id.starts_with(&format!("{prefix}/"))),
                "expr route {prefix} has no conformance cell"
            );
        }
    }

    #[test]
    fn every_serve_route_has_cells() {
        let ids: Vec<String> = cells().into_iter().map(|c| c.id).collect();
        for route in serve_registry() {
            let id = format!("serve-{}/{}/cpu", route.op, route.format);
            assert!(ids.contains(&id), "serve route {id} has no conformance cell");
        }
    }

    #[test]
    fn skip_entries_name_registered_combos() {
        let reg = registry();
        for s in skips() {
            assert!(
                reg.iter().any(|c| c.kernel == s.kernel
                    && c.format == s.format
                    && c.backend == s.backend),
                "skip entry for unregistered combo {}/{}/{}",
                s.kernel.to_string().to_lowercase(),
                s.format,
                s.backend.label(),
            );
            assert!(!s.reason.is_empty());
        }
        // The sCOO TTM structural hole is case-scoped, and its predicate
        // matches exactly the unrepresentable configuration.
        let hole = skip_reason(
            Kernel::Ttm,
            FormatKind::Scoo,
            BackendKind::Cpu,
            &Case {
                label: "order2".into(),
                dims: vec![3, 4],
                entries: vec![(vec![0, 0], 1.0)],
                mode: 0,
                rank: 2,
                block: 2,
                seed: 1,
            },
        );
        assert!(hole.is_some());
    }

    #[test]
    fn one_cell_passes_one_case() {
        let case = &generate(Tier::Quick, 11)[1];
        let cs = cells();
        let tew = cs.iter().find(|c| c.id == "tew/coo/cpu/t1").unwrap();
        assert!(matches!(eval_cell(tew, case, None), CellOutcome::Pass(0)));
    }

    #[test]
    fn fault_injection_fails_shrinks_and_clears() {
        let corpus = generate(Tier::Quick, 5);
        let cs = cells();
        let cell = cs.iter().find(|c| c.id == "ts/coo/cpu/t1").unwrap();
        let fault = FaultSpec { cell: cell.id.clone() };
        let case = &corpus[1];
        assert!(matches!(eval_cell(cell, case, Some(&fault)), CellOutcome::Fail { .. }));
        let shrunk = shrink_case(cell, case, Some(&fault));
        // The perturbation hits regardless of content, so the minimum is
        // the empty pattern over minimal dims.
        assert!(shrunk.entries.is_empty());
        assert!(shrunk.dims.iter().all(|&d| d == 1));
        assert!(matches!(eval_cell(cell, &shrunk, Some(&fault)), CellOutcome::Fail { .. }));
        // Without the fault the shrunk case passes: the bug, not the case.
        assert!(matches!(eval_cell(cell, &shrunk, None), CellOutcome::Pass(_)));
    }
}
