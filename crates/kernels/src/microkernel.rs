//! Runtime-dispatched rank-loop microkernels.
//!
//! Every dense inner loop in TTM and MTTKRP runs over the `R` columns of a
//! factor-matrix row (the paper fixes `R = 16`), and every TTV fiber is a
//! short gather-dot product. Each microkernel exists in two bodies:
//!
//! - a **portable fallback** written as an 8-wide block pass, a 4-wide block
//!   pass over the remainder, and a scalar tail, so the compiler sees
//!   fixed-trip-count inner bodies with no cross-iteration dependences and
//!   emits packed SIMD for them without platform intrinsics;
//! - an **explicit AVX2 path** (`std::arch::x86_64`, 256-bit lanes) selected
//!   at runtime when `is_x86_feature_detected!` reports both `avx2` and
//!   `fma`.
//!
//! # Determinism contract
//!
//! [`mul_assign`], [`add_assign`] and [`axpy`] are *element-wise*: lane `i`
//! only ever combines `a[i]`-with-`b[i]` terms, and the AVX2 `axpy` uses a
//! separate multiply and add (never a fused multiply-add), so each lane
//! rounds exactly like the scalar statement `acc[i] += a * row[i]`. Their
//! results are **bit-identical across dispatch levels**, which is what keeps
//! the suite's 0-ULP conformance cells (e.g. MTTKRP owner-computes vs
//! sequential) intact whichever path runs.
//!
//! [`gather_dot`] is a reduction, so vectorizing it necessarily changes the
//! association order: the AVX2 path keeps 8 (`f32`) or 4 (`f64`) lane
//! partials and combines them in a **fixed pairwise order** plus a scalar
//! tail. The result is a pure function of the entry range and dispatch
//! level — deterministic across thread counts and schedules — but differs
//! from the scalar fallback by bounded rounding, so SIMD-vs-scalar TTV
//! carries its own conformance ULP budget instead of a 0-ULP promise.
//!
//! # Dispatch
//!
//! The level used by the plain entry points is resolved once per process:
//!
//! 1. a programmatic override installed via [`force_simd`] (conformance and
//!    tests), else
//! 2. the `PASTA_SIMD` environment variable — `scalar` forces the portable
//!    fallback, `avx2` / `auto` / unset use the detected level;
//! 3. capped by what the CPU actually supports, so forcing `avx2` on a
//!    machine without it safely degrades to scalar.
//!
//! The `*_at` variants take the level explicitly and are the primitive the
//! property tests use to compare both bodies in one process.

use pasta_core::{Coord, Value};
use std::any::TypeId;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// How far ahead (in entries) the gather loops issue software prefetches.
/// Far enough to cover DRAM latency at one gather per entry, near enough
/// that the prefetched line is still resident when the loop arrives.
const PREFETCH_DIST: usize = 16;

// ---------------------------------------------------------------------------
// Dispatch level
// ---------------------------------------------------------------------------

/// The instruction-set level a microkernel body is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// The portable unrolled fallback (no platform intrinsics).
    Scalar,
    /// 256-bit AVX2 lanes; FMA used only inside [`gather_dot`].
    Avx2Fma,
}

impl SimdLevel {
    /// Stable lowercase label used in reports and test messages.
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2Fma => "avx2+fma",
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

const OVERRIDE_NONE: u8 = 0;
const OVERRIDE_SCALAR: u8 = 1;
const OVERRIDE_AVX2: u8 = 2;

/// Process-global programmatic override (test/conformance hook).
static OVERRIDE: AtomicU8 = AtomicU8::new(OVERRIDE_NONE);

/// What the CPU supports, probed once.
fn hw_level() -> SimdLevel {
    static HW: OnceLock<SimdLevel> = OnceLock::new();
    *HW.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return SimdLevel::Avx2Fma;
            }
        }
        SimdLevel::Scalar
    })
}

/// The `PASTA_SIMD`-aware default, resolved once per process.
fn env_level() -> SimdLevel {
    static ENV: OnceLock<SimdLevel> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("PASTA_SIMD").as_deref() {
        Ok("scalar") => SimdLevel::Scalar,
        // `avx2` is a request, still capped by detection below.
        Ok("avx2") | Ok("auto") | Ok("") | Err(_) => hw_level(),
        Ok(other) => {
            eprintln!("PASTA_SIMD={other:?} not recognized (scalar|avx2|auto); using auto");
            hw_level()
        }
    })
}

/// The dispatch level the plain microkernel entry points will use *now*:
/// [`force_simd`] override, else `PASTA_SIMD`, else feature detection —
/// always capped by what the CPU supports.
#[inline]
pub fn simd_level() -> SimdLevel {
    match OVERRIDE.load(Ordering::Relaxed) {
        OVERRIDE_SCALAR => SimdLevel::Scalar,
        OVERRIDE_AVX2 => hw_level(),
        _ => env_level(),
    }
}

/// Installs (`Some`) or clears (`None`) a process-global dispatch override,
/// taking precedence over `PASTA_SIMD` and detection. Forcing
/// [`SimdLevel::Avx2Fma`] on hardware without it degrades safely to scalar.
///
/// This is a conformance/test hook: the matrix uses it to run the same cell
/// through both bodies. Element-wise microkernels are bit-identical across
/// levels, so a concurrent flip is benign for them; reductions are only
/// compared under per-cell ULP budgets.
pub fn force_simd(level: Option<SimdLevel>) {
    let code = match level {
        None => OVERRIDE_NONE,
        Some(SimdLevel::Scalar) => OVERRIDE_SCALAR,
        Some(SimdLevel::Avx2Fma) => OVERRIDE_AVX2,
    };
    OVERRIDE.store(code, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Prefetch
// ---------------------------------------------------------------------------

/// Best-effort software prefetch of `data[i]` into all cache levels.
///
/// No-op when out of bounds or off x86_64; never changes results. Used on
/// the index-gather paths (TTV fiber gathers, TTM/MTTKRP factor-row reads)
/// where the hardware stride prefetcher cannot follow the indirection.
#[inline(always)]
pub fn prefetch_read<T>(data: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    if i < data.len() {
        // SAFETY: `i` is in bounds; prefetch reads no memory architecturally.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(data.as_ptr().add(i) as *const i8);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (data, i);
    }
}

// ---------------------------------------------------------------------------
// Type-punning helpers (Value is implemented for f32/f64 only)
// ---------------------------------------------------------------------------

#[inline]
fn cast_mut<V: Value, T: 'static>(s: &mut [V]) -> Option<&mut [T]> {
    if TypeId::of::<V>() == TypeId::of::<T>() {
        // SAFETY: V and T are the same type per the TypeId check.
        Some(unsafe { &mut *(s as *mut [V] as *mut [T]) })
    } else {
        None
    }
}

#[inline]
fn cast_ref<V: Value, T: 'static>(s: &[V]) -> Option<&[T]> {
    if TypeId::of::<V>() == TypeId::of::<T>() {
        // SAFETY: V and T are the same type per the TypeId check.
        Some(unsafe { &*(s as *const [V] as *const [T]) })
    } else {
        None
    }
}

#[inline]
fn cast_val<T: Copy + 'static, V: Copy + 'static>(t: T) -> V {
    debug_assert_eq!(TypeId::of::<T>(), TypeId::of::<V>());
    // SAFETY: same type per the TypeId invariant upheld by all callers.
    unsafe { std::mem::transmute_copy(&t) }
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// `acc[i] *= row[i]` — the Khatri-Rao partial-product update.
/// Bit-identical across dispatch levels.
#[inline]
pub fn mul_assign<V: Value>(acc: &mut [V], row: &[V]) {
    mul_assign_at(simd_level(), acc, row);
}

/// [`mul_assign`] with the dispatch level pinned by the caller.
/// An unsupported level degrades safely to the portable fallback.
#[inline]
pub fn mul_assign_at<V: Value>(level: SimdLevel, acc: &mut [V], row: &[V]) {
    debug_assert_eq!(acc.len(), row.len());
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2Fma && hw_level() == SimdLevel::Avx2Fma {
        if let (Some(a), Some(b)) = (cast_mut::<V, f32>(acc), cast_ref::<V, f32>(row)) {
            // SAFETY: avx2+fma verified by hw_level above.
            unsafe { avx2::mul_assign_f32(a, b) };
            return;
        }
        if let (Some(a), Some(b)) = (cast_mut::<V, f64>(acc), cast_ref::<V, f64>(row)) {
            // SAFETY: avx2+fma verified by hw_level above.
            unsafe { avx2::mul_assign_f64(a, b) };
            return;
        }
    }
    let _ = level;
    mul_assign_scalar(acc, row);
}

/// `acc[i] += row[i]` — the accumulator merge update.
/// Bit-identical across dispatch levels.
#[inline]
pub fn add_assign<V: Value>(acc: &mut [V], row: &[V]) {
    add_assign_at(simd_level(), acc, row);
}

/// [`add_assign`] with the dispatch level pinned by the caller.
/// An unsupported level degrades safely to the portable fallback.
#[inline]
pub fn add_assign_at<V: Value>(level: SimdLevel, acc: &mut [V], row: &[V]) {
    debug_assert_eq!(acc.len(), row.len());
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2Fma && hw_level() == SimdLevel::Avx2Fma {
        if let (Some(a), Some(b)) = (cast_mut::<V, f32>(acc), cast_ref::<V, f32>(row)) {
            // SAFETY: avx2+fma verified by hw_level above.
            unsafe { avx2::add_assign_f32(a, b) };
            return;
        }
        if let (Some(a), Some(b)) = (cast_mut::<V, f64>(acc), cast_ref::<V, f64>(row)) {
            // SAFETY: avx2+fma verified by hw_level above.
            unsafe { avx2::add_assign_f64(a, b) };
            return;
        }
    }
    let _ = level;
    add_assign_scalar(acc, row);
}

/// `acc[i] += a · row[i]` — the scaled-row scatter update (TTM inner loop,
/// MTTKRP output update). Bit-identical across dispatch levels: the AVX2
/// body multiplies then adds (two roundings, like the scalar statement)
/// rather than fusing.
#[inline]
pub fn axpy<V: Value>(acc: &mut [V], a: V, row: &[V]) {
    axpy_at(simd_level(), acc, a, row);
}

/// [`axpy`] with the dispatch level pinned by the caller.
/// An unsupported level degrades safely to the portable fallback.
#[inline]
pub fn axpy_at<V: Value>(level: SimdLevel, acc: &mut [V], a: V, row: &[V]) {
    debug_assert_eq!(acc.len(), row.len());
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2Fma && hw_level() == SimdLevel::Avx2Fma {
        if let (Some(d), Some(s)) = (cast_mut::<V, f32>(acc), cast_ref::<V, f32>(row)) {
            // SAFETY: avx2+fma verified by hw_level above.
            unsafe { avx2::axpy_f32(d, cast_val::<V, f32>(a), s) };
            return;
        }
        if let (Some(d), Some(s)) = (cast_mut::<V, f64>(acc), cast_ref::<V, f64>(row)) {
            // SAFETY: avx2+fma verified by hw_level above.
            unsafe { avx2::axpy_f64(d, cast_val::<V, f64>(a), s) };
            return;
        }
    }
    let _ = level;
    axpy_scalar(acc, a, row);
}

/// `Σ_{x ∈ range} vals[x] · v[idx[x]]` — the TTV fiber contraction.
///
/// The scalar body keeps a *single* sequential accumulator (the exact
/// association order the suite's original bit-identity promise was written
/// against); the AVX2 body uses hardware gathers with a fixed-width lane
/// reduction (see the module docs for the determinism contract). Both issue
/// software prefetches `PREFETCH_DIST` entries ahead on the gathered
/// vector, which never changes the value computed.
#[inline]
pub fn gather_dot<V: Value>(
    vals: &[V],
    idx: &[Coord],
    v: &[V],
    range: std::ops::Range<usize>,
) -> V {
    gather_dot_at(simd_level(), vals, idx, v, range)
}

/// [`gather_dot`] with the dispatch level pinned by the caller.
/// An unsupported level degrades safely to the portable fallback, as do
/// vectors too long for 32-bit gather offsets.
#[inline]
pub fn gather_dot_at<V: Value>(
    level: SimdLevel,
    vals: &[V],
    idx: &[Coord],
    v: &[V],
    range: std::ops::Range<usize>,
) -> V {
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2Fma
        && hw_level() == SimdLevel::Avx2Fma
        && v.len() <= i32::MAX as usize
    {
        if let (Some(a), Some(b)) = (cast_ref::<V, f32>(vals), cast_ref::<V, f32>(v)) {
            // SAFETY: avx2+fma verified by hw_level above; gather offsets
            // fit in i32 per the length check above.
            return cast_val::<f32, V>(unsafe { avx2::gather_dot_f32(a, idx, b, range) });
        }
        if let (Some(a), Some(b)) = (cast_ref::<V, f64>(vals), cast_ref::<V, f64>(v)) {
            // SAFETY: as above.
            return cast_val::<f64, V>(unsafe { avx2::gather_dot_f64(a, idx, b, range) });
        }
    }
    let _ = level;
    gather_dot_scalar(vals, idx, v, range)
}

// ---------------------------------------------------------------------------
// Portable fallback bodies (the original unrolled microkernels)
// ---------------------------------------------------------------------------

#[inline]
fn mul_assign_scalar<V: Value>(acc: &mut [V], row: &[V]) {
    let mut a = acc.chunks_exact_mut(8);
    let mut b = row.chunks_exact(8);
    for (aa, bb) in (&mut a).zip(&mut b) {
        for i in 0..8 {
            aa[i] *= bb[i];
        }
    }
    let mut a4 = a.into_remainder().chunks_exact_mut(4);
    let mut b4 = b.remainder().chunks_exact(4);
    for (aa, bb) in (&mut a4).zip(&mut b4) {
        for i in 0..4 {
            aa[i] *= bb[i];
        }
    }
    for (aa, &bb) in a4.into_remainder().iter_mut().zip(b4.remainder()) {
        *aa *= bb;
    }
}

#[inline]
fn add_assign_scalar<V: Value>(acc: &mut [V], row: &[V]) {
    let mut a = acc.chunks_exact_mut(8);
    let mut b = row.chunks_exact(8);
    for (aa, bb) in (&mut a).zip(&mut b) {
        for i in 0..8 {
            aa[i] += bb[i];
        }
    }
    let mut a4 = a.into_remainder().chunks_exact_mut(4);
    let mut b4 = b.remainder().chunks_exact(4);
    for (aa, bb) in (&mut a4).zip(&mut b4) {
        for i in 0..4 {
            aa[i] += bb[i];
        }
    }
    for (aa, &bb) in a4.into_remainder().iter_mut().zip(b4.remainder()) {
        *aa += bb;
    }
}

#[inline]
fn axpy_scalar<V: Value>(acc: &mut [V], a: V, row: &[V]) {
    let mut d = acc.chunks_exact_mut(8);
    let mut s = row.chunks_exact(8);
    for (dd, ss) in (&mut d).zip(&mut s) {
        for i in 0..8 {
            dd[i] += a * ss[i];
        }
    }
    let mut d4 = d.into_remainder().chunks_exact_mut(4);
    let mut s4 = s.remainder().chunks_exact(4);
    for (dd, ss) in (&mut d4).zip(&mut s4) {
        for i in 0..4 {
            dd[i] += a * ss[i];
        }
    }
    for (dd, &ss) in d4.into_remainder().iter_mut().zip(s4.remainder()) {
        *dd += a * ss;
    }
}

#[inline]
fn gather_dot_scalar<V: Value>(
    vals: &[V],
    idx: &[Coord],
    v: &[V],
    range: std::ops::Range<usize>,
) -> V {
    let end = range.end;
    let mut acc = V::ZERO;
    for x in range {
        let ahead = x + PREFETCH_DIST;
        if ahead < end {
            prefetch_read(v, idx[ahead] as usize);
        }
        acc += vals[x] * v[idx[x] as usize];
    }
    acc
}

// ---------------------------------------------------------------------------
// AVX2 bodies
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::PREFETCH_DIST;
    use pasta_core::Coord;
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must verify `avx2` is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_assign_f32(acc: &mut [f32], row: &[f32]) {
        let n = acc.len().min(row.len());
        let (ap, rp) = (acc.as_mut_ptr(), row.as_ptr());
        let mut i = 0;
        while i + 8 <= n {
            let a = _mm256_loadu_ps(ap.add(i));
            let b = _mm256_loadu_ps(rp.add(i));
            _mm256_storeu_ps(ap.add(i), _mm256_mul_ps(a, b));
            i += 8;
        }
        while i < n {
            *ap.add(i) *= *rp.add(i);
            i += 1;
        }
    }

    /// # Safety
    /// Caller must verify `avx2` is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_assign_f64(acc: &mut [f64], row: &[f64]) {
        let n = acc.len().min(row.len());
        let (ap, rp) = (acc.as_mut_ptr(), row.as_ptr());
        let mut i = 0;
        while i + 4 <= n {
            let a = _mm256_loadu_pd(ap.add(i));
            let b = _mm256_loadu_pd(rp.add(i));
            _mm256_storeu_pd(ap.add(i), _mm256_mul_pd(a, b));
            i += 4;
        }
        while i < n {
            *ap.add(i) *= *rp.add(i);
            i += 1;
        }
    }

    /// # Safety
    /// Caller must verify `avx2` is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_assign_f32(acc: &mut [f32], row: &[f32]) {
        let n = acc.len().min(row.len());
        let (ap, rp) = (acc.as_mut_ptr(), row.as_ptr());
        let mut i = 0;
        while i + 8 <= n {
            let a = _mm256_loadu_ps(ap.add(i));
            let b = _mm256_loadu_ps(rp.add(i));
            _mm256_storeu_ps(ap.add(i), _mm256_add_ps(a, b));
            i += 8;
        }
        while i < n {
            *ap.add(i) += *rp.add(i);
            i += 1;
        }
    }

    /// # Safety
    /// Caller must verify `avx2` is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_assign_f64(acc: &mut [f64], row: &[f64]) {
        let n = acc.len().min(row.len());
        let (ap, rp) = (acc.as_mut_ptr(), row.as_ptr());
        let mut i = 0;
        while i + 4 <= n {
            let a = _mm256_loadu_pd(ap.add(i));
            let b = _mm256_loadu_pd(rp.add(i));
            _mm256_storeu_pd(ap.add(i), _mm256_add_pd(a, b));
            i += 4;
        }
        while i < n {
            *ap.add(i) += *rp.add(i);
            i += 1;
        }
    }

    /// Multiply-then-add on purpose (two roundings per lane, exactly like
    /// the scalar statement) — FMA here would break bit-identity.
    ///
    /// # Safety
    /// Caller must verify `avx2` is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_f32(acc: &mut [f32], a: f32, row: &[f32]) {
        let n = acc.len().min(row.len());
        let (dp, sp) = (acc.as_mut_ptr(), row.as_ptr());
        let av = _mm256_set1_ps(a);
        let mut i = 0;
        while i + 8 <= n {
            let d = _mm256_loadu_ps(dp.add(i));
            let s = _mm256_loadu_ps(sp.add(i));
            _mm256_storeu_ps(dp.add(i), _mm256_add_ps(d, _mm256_mul_ps(av, s)));
            i += 8;
        }
        while i < n {
            *dp.add(i) += a * *sp.add(i);
            i += 1;
        }
    }

    /// Multiply-then-add on purpose — see [`axpy_f32`].
    ///
    /// # Safety
    /// Caller must verify `avx2` is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_f64(acc: &mut [f64], a: f64, row: &[f64]) {
        let n = acc.len().min(row.len());
        let (dp, sp) = (acc.as_mut_ptr(), row.as_ptr());
        let av = _mm256_set1_pd(a);
        let mut i = 0;
        while i + 4 <= n {
            let d = _mm256_loadu_pd(dp.add(i));
            let s = _mm256_loadu_pd(sp.add(i));
            _mm256_storeu_pd(dp.add(i), _mm256_add_pd(d, _mm256_mul_pd(av, s)));
            i += 4;
        }
        while i < n {
            *dp.add(i) += a * *sp.add(i);
            i += 1;
        }
    }

    /// Eight lane partials via hardware gather + FMA, reduced in a fixed
    /// pairwise order, then a sequential scalar tail. Deterministic for a
    /// given range; independent of thread count and schedule.
    ///
    /// # Safety
    /// Caller must verify `avx2` and `fma` are available and that
    /// `v.len() <= i32::MAX` (gather offsets are signed 32-bit).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gather_dot_f32(
        vals: &[f32],
        idx: &[Coord],
        v: &[f32],
        range: std::ops::Range<usize>,
    ) -> f32 {
        let (start, end) = (range.start, range.end);
        let mut acc = _mm256_setzero_ps();
        let mut x = start;
        while x + 8 <= end {
            let ahead = x + PREFETCH_DIST;
            if ahead < end {
                _mm_prefetch::<_MM_HINT_T0>(
                    v.as_ptr().add(*idx.get_unchecked(ahead) as usize) as *const i8
                );
            }
            let off = _mm256_loadu_si256(idx.as_ptr().add(x) as *const __m256i);
            let g = _mm256_i32gather_ps::<4>(v.as_ptr(), off);
            let a = _mm256_loadu_ps(vals.as_ptr().add(x));
            acc = _mm256_fmadd_ps(a, g, acc);
            x += 8;
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut sum = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
        while x < end {
            sum += *vals.get_unchecked(x) * *v.get_unchecked(*idx.get_unchecked(x) as usize);
            x += 1;
        }
        sum
    }

    /// Four lane partials; otherwise as [`gather_dot_f32`].
    ///
    /// # Safety
    /// Caller must verify `avx2` and `fma` are available and that
    /// `v.len() <= i32::MAX`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gather_dot_f64(
        vals: &[f64],
        idx: &[Coord],
        v: &[f64],
        range: std::ops::Range<usize>,
    ) -> f64 {
        let (start, end) = (range.start, range.end);
        let mut acc = _mm256_setzero_pd();
        let mut x = start;
        while x + 4 <= end {
            let ahead = x + PREFETCH_DIST;
            if ahead < end {
                _mm_prefetch::<_MM_HINT_T0>(
                    v.as_ptr().add(*idx.get_unchecked(ahead) as usize) as *const i8
                );
            }
            let off = _mm_loadu_si128(idx.as_ptr().add(x) as *const __m128i);
            let g = _mm256_i32gather_pd::<8>(v.as_ptr(), off);
            let a = _mm256_loadu_pd(vals.as_ptr().add(x));
            acc = _mm256_fmadd_pd(a, g, acc);
            x += 4;
        }
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        let mut sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        while x < end {
            sum += *vals.get_unchecked(x) * *v.get_unchecked(*idx.get_unchecked(x) as usize);
            x += 1;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize) -> (Vec<f64>, Vec<f64>) {
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        (a, b)
    }

    fn vecs32(n: usize) -> (Vec<f32>, Vec<f32>) {
        let (a, b) = vecs(n);
        (a.iter().map(|&x| x as f32).collect(), b.iter().map(|&x| x as f32).collect())
    }

    // Lengths straddling both block widths and the scalar tail.
    const LENS: [usize; 9] = [0, 1, 3, 4, 7, 8, 12, 16, 19];

    const LEVELS: [SimdLevel; 2] = [SimdLevel::Scalar, SimdLevel::Avx2Fma];

    #[test]
    fn mul_assign_matches_scalar_all_tails() {
        for &n in &LENS {
            let (mut a, b) = vecs(n);
            let want: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
            mul_assign(&mut a, &b);
            assert_eq!(a, want, "n={n}");
        }
    }

    #[test]
    fn add_assign_matches_scalar_all_tails() {
        for &n in &LENS {
            let (mut a, b) = vecs(n);
            let want: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
            add_assign(&mut a, &b);
            assert_eq!(a, want, "n={n}");
        }
    }

    #[test]
    fn axpy_matches_scalar_all_tails() {
        for &n in &LENS {
            let (mut a, b) = vecs(n);
            let want: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + 2.5 * y).collect();
            axpy(&mut a, 2.5, &b);
            assert_eq!(a, want, "n={n}");
        }
    }

    #[test]
    fn gather_dot_matches_scalar() {
        let vals: Vec<f32> = (0..50).map(|i| i as f32 * 0.5).collect();
        let idx: Vec<u32> = (0..50).map(|i| (i * 7) % 10).collect();
        let v: Vec<f32> = (0..10).map(|i| 1.0 / (i + 1) as f32).collect();
        let want: f32 = (5..37).map(|x| vals[x] * v[idx[x] as usize]).sum();
        assert_eq!(gather_dot_at(SimdLevel::Scalar, &vals, &idx, &v, 5..37), want);
    }

    #[test]
    fn elementwise_bit_identical_across_levels_f32() {
        for &n in &LENS {
            let (a0, b) = vecs32(n);
            for level in LEVELS {
                let mut m = a0.clone();
                mul_assign_at(level, &mut m, &b);
                let mut s = a0.clone();
                mul_assign_at(SimdLevel::Scalar, &mut s, &b);
                assert_eq!(m, s, "mul n={n} level={level}");

                let mut m = a0.clone();
                add_assign_at(level, &mut m, &b);
                let mut s = a0.clone();
                add_assign_at(SimdLevel::Scalar, &mut s, &b);
                assert_eq!(m, s, "add n={n} level={level}");

                let mut m = a0.clone();
                axpy_at(level, &mut m, -1.75f32, &b);
                let mut s = a0.clone();
                axpy_at(SimdLevel::Scalar, &mut s, -1.75f32, &b);
                assert_eq!(m, s, "axpy n={n} level={level}");
            }
        }
    }

    #[test]
    fn elementwise_bit_identical_across_levels_f64() {
        for &n in &LENS {
            let (a0, b) = vecs(n);
            for level in LEVELS {
                let mut m = a0.clone();
                axpy_at(level, &mut m, 3.125f64, &b);
                let mut s = a0.clone();
                axpy_at(SimdLevel::Scalar, &mut s, 3.125f64, &b);
                assert_eq!(m, s, "axpy n={n} level={level}");
            }
        }
    }

    #[test]
    fn gather_dot_levels_agree_within_ulps() {
        // Positive terms: no cancellation, so the reassociation error stays
        // small relative to the result and a tight ULP budget is meaningful.
        let n = 200;
        let vals: Vec<f32> = (0..n).map(|i| (i as f32 * 0.61).sin() + 1.5).collect();
        let idx: Vec<u32> = (0..n).map(|i| ((i * 13) % 37) as u32).collect();
        let v: Vec<f32> = (0..37).map(|i| (i as f32 * 0.23).cos() + 1.25).collect();
        for range in [0..0, 0..1, 0..7, 0..8, 3..19, 0..n, 11..n - 5] {
            let s = gather_dot_at(SimdLevel::Scalar, &vals, &idx, &v, range.clone());
            let x = gather_dot_at(SimdLevel::Avx2Fma, &vals, &idx, &v, range.clone());
            assert!(s.ulp_distance(x) <= 64, "range={range:?} scalar={s} simd={x}");
        }
    }

    #[test]
    fn gather_dot_levels_track_f64_reference_with_cancellation() {
        // Mixed signs cancel, so bound the *absolute* error by the
        // condition of the sum (n·ε·Σ|terms|) instead of result ULPs.
        let n = 200;
        let vals: Vec<f32> = (0..n).map(|i| (i as f32 * 0.61).sin() * 3.0).collect();
        let idx: Vec<u32> = (0..n).map(|i| ((i * 13) % 37) as u32).collect();
        let v: Vec<f32> = (0..37).map(|i| (i as f32 * 0.23).cos()).collect();
        for range in [0..n, 11..n - 5, 3..97] {
            let ref64: f64 =
                range.clone().map(|x| vals[x] as f64 * v[idx[x] as usize] as f64).sum();
            let sum_abs: f64 =
                range.clone().map(|x| (vals[x] as f64 * v[idx[x] as usize] as f64).abs()).sum();
            let tol = 4.0 * range.len() as f64 * f32::EPSILON as f64 * sum_abs;
            for level in LEVELS {
                let got = gather_dot_at(level, &vals, &idx, &v, range.clone()) as f64;
                assert!(
                    (got - ref64).abs() <= tol,
                    "range={range:?} level={level} got={got} ref={ref64}"
                );
            }
        }
    }

    #[test]
    fn force_simd_round_trips() {
        // Element-wise kernels are bit-identical across levels, so flipping
        // the global override here cannot perturb concurrently running tests.
        force_simd(Some(SimdLevel::Scalar));
        assert_eq!(simd_level(), SimdLevel::Scalar);
        force_simd(Some(SimdLevel::Avx2Fma));
        assert!(simd_level() == hw_level());
        force_simd(None);
        assert_eq!(simd_level(), env_level());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SimdLevel::Scalar.label(), "scalar");
        assert_eq!(SimdLevel::Avx2Fma.to_string(), "avx2+fma");
    }

    #[test]
    fn prefetch_is_safe_everywhere() {
        let v = [1.0f32; 4];
        prefetch_read(&v, 0);
        prefetch_read(&v, 3);
        prefetch_read(&v, 4); // out of bounds: no-op
        prefetch_read::<f32>(&[], 0);
    }
}
