//! The semi-sparse COO (sCOO) format for tensors with dense mode(s).
//!
//! A *dense mode* is one whose fibers are all dense vectors (Figure 1(b) of
//! the paper). sCOO stores the dense mode(s) as dense arrays attached to each
//! sparse "fiber" and keeps the remaining modes in ordinary COO index arrays.
//! The TTM kernel's output is semi-sparse: the product mode becomes dense with
//! length `R` while every other mode keeps the input's sparsity.

use crate::coo::CooTensor;
use crate::error::{Error, Result};
use crate::shape::{Coord, Shape};
use crate::value::Value;

/// A semi-sparse tensor: dense modes stored densely per sparse fiber.
///
/// With `F` sparse fibers, `S` sparse modes and dense volume
/// `D = ∏ dense dims`, storage is `4·S·F` index bytes plus `F·D` values.
///
/// # Examples
///
/// ```
/// use pasta_core::{SemiCooTensor, Shape};
///
/// # fn main() -> Result<(), pasta_core::Error> {
/// // A 2x2x3 tensor whose mode 2 is dense, holding one fiber at (i=0, j=1).
/// let t = SemiCooTensor::from_fibers(
///     Shape::new(vec![2, 2, 3]),
///     vec![2],
///     vec![vec![0], vec![1]],
///     vec![7.0_f32, 8.0, 9.0],
/// )?;
/// assert_eq!(t.num_fibers(), 1);
/// assert_eq!(t.fiber_vals(0), &[7.0, 8.0, 9.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SemiCooTensor<V> {
    shape: Shape,
    dense_modes: Vec<usize>,
    sparse_modes: Vec<usize>,
    /// One index array per *sparse* mode (parallel to `sparse_modes`), each of
    /// length `num_fibers`.
    inds: Vec<Vec<Coord>>,
    /// `num_fibers × dense_volume` values; the dense modes are linearized
    /// row-major in increasing mode order.
    vals: Vec<V>,
}

impl<V: Value> SemiCooTensor<V> {
    /// Creates an empty semi-sparse tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if `dense_modes` is empty, contains duplicates or an
    /// out-of-range mode, or covers *all* modes (use a dense tensor then).
    pub fn new(shape: Shape, dense_modes: Vec<usize>) -> Result<Self> {
        let mut dm = dense_modes;
        dm.sort_unstable();
        dm.dedup();
        if dm.is_empty() || dm.len() >= shape.order() {
            return Err(Error::OperandMismatch {
                what: format!(
                    "semi-sparse tensor needs between 1 and order-1 dense modes, got {}",
                    dm.len()
                ),
            });
        }
        for &m in &dm {
            shape.check_mode(m)?;
        }
        let sparse_modes: Vec<usize> = (0..shape.order()).filter(|m| !dm.contains(m)).collect();
        let ns = sparse_modes.len();
        Ok(Self {
            shape,
            dense_modes: dm,
            sparse_modes,
            inds: vec![Vec::new(); ns],
            vals: Vec::new(),
        })
    }

    /// Creates a semi-sparse tensor from fiber index arrays and values.
    ///
    /// `inds` has one array per sparse mode (in increasing mode order), each
    /// of length `F`; `vals` has length `F × dense_volume`.
    ///
    /// # Errors
    ///
    /// Returns an error on inconsistent lengths or out-of-range indices.
    pub fn from_fibers(
        shape: Shape,
        dense_modes: Vec<usize>,
        inds: Vec<Vec<Coord>>,
        vals: Vec<V>,
    ) -> Result<Self> {
        let mut t = Self::new(shape, dense_modes)?;
        if inds.len() != t.sparse_modes.len() {
            return Err(Error::OperandMismatch {
                what: format!(
                    "expected {} sparse index arrays, got {}",
                    t.sparse_modes.len(),
                    inds.len()
                ),
            });
        }
        let nf = inds.first().map_or(0, Vec::len);
        for (k, col) in inds.iter().enumerate() {
            if col.len() != nf {
                return Err(Error::OperandMismatch {
                    what: "sparse index arrays have differing lengths".into(),
                });
            }
            let mode = t.sparse_modes[k];
            let dim = t.shape.dim(mode);
            if let Some(&bad) = col.iter().find(|&&c| c >= dim) {
                return Err(Error::IndexOutOfBounds { mode, index: bad, dim });
            }
        }
        if vals.len() != nf * t.dense_volume() {
            return Err(Error::OperandMismatch {
                what: format!(
                    "expected {} values ({} fibers x dense volume {}), got {}",
                    nf * t.dense_volume(),
                    nf,
                    t.dense_volume(),
                    vals.len()
                ),
            });
        }
        t.inds = inds;
        t.vals = vals;
        Ok(t)
    }

    /// Appends one fiber given its sparse coordinates and dense values.
    ///
    /// # Errors
    ///
    /// Returns an error on wrong lengths or out-of-range indices.
    pub fn push_fiber(&mut self, sparse_coords: &[Coord], dense_vals: &[V]) -> Result<()> {
        if sparse_coords.len() != self.sparse_modes.len() {
            return Err(Error::OrderMismatch {
                left: self.sparse_modes.len(),
                right: sparse_coords.len(),
            });
        }
        if dense_vals.len() != self.dense_volume() {
            return Err(Error::OperandMismatch {
                what: format!(
                    "fiber has {} values but dense volume is {}",
                    dense_vals.len(),
                    self.dense_volume()
                ),
            });
        }
        for (k, &c) in sparse_coords.iter().enumerate() {
            let mode = self.sparse_modes[k];
            let dim = self.shape.dim(mode);
            if c >= dim {
                return Err(Error::IndexOutOfBounds { mode, index: c, dim });
            }
        }
        for (col, &c) in self.inds.iter_mut().zip(sparse_coords) {
            col.push(c);
        }
        self.vals.extend_from_slice(dense_vals);
        Ok(())
    }

    /// The tensor shape (including dense modes).
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dense modes, in increasing order.
    #[inline]
    pub fn dense_modes(&self) -> &[usize] {
        &self.dense_modes
    }

    /// The sparse modes, in increasing order.
    #[inline]
    pub fn sparse_modes(&self) -> &[usize] {
        &self.sparse_modes
    }

    /// The number of stored sparse fibers `F`.
    #[inline]
    pub fn num_fibers(&self) -> usize {
        self.inds.first().map_or(0, Vec::len)
    }

    /// The product of the dense mode dimensions.
    pub fn dense_volume(&self) -> usize {
        self.dense_modes.iter().map(|&m| self.shape.dim(m) as usize).product()
    }

    /// The index array of the `k`-th *sparse* mode (parallel to
    /// [`Self::sparse_modes`]).
    #[inline]
    pub fn sparse_inds(&self, k: usize) -> &[Coord] {
        &self.inds[k]
    }

    /// The dense values of fiber `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f >= self.num_fibers()`.
    #[inline]
    pub fn fiber_vals(&self, f: usize) -> &[V] {
        let d = self.dense_volume();
        &self.vals[f * d..(f + 1) * d]
    }

    /// Mutable dense values of fiber `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f >= self.num_fibers()`.
    #[inline]
    pub fn fiber_vals_mut(&mut self, f: usize) -> &mut [V] {
        let d = self.dense_volume();
        &mut self.vals[f * d..(f + 1) * d]
    }

    /// The whole value array (`F × dense_volume`).
    #[inline]
    pub fn vals(&self) -> &[V] {
        &self.vals
    }

    /// Mutable access to the whole value array.
    #[inline]
    pub fn vals_mut(&mut self) -> &mut [V] {
        &mut self.vals
    }

    /// The sparse coordinates of fiber `f` (parallel to
    /// [`Self::sparse_modes`]).
    pub fn fiber_coords(&self, f: usize) -> Vec<Coord> {
        self.inds.iter().map(|col| col[f]).collect()
    }

    /// The storage footprint in bytes (sparse indices + dense values).
    pub fn storage_bytes(&self) -> usize {
        self.num_fibers() * self.sparse_modes.len() * 4 + self.vals.len() * V::BYTES
    }

    /// Expands to COO, dropping exact zeros inside dense fibers. Entries
    /// come out fiber by fiber, dense offset inner.
    pub fn to_coo(&self) -> CooTensor<V> {
        // The dense coordinates of every offset, one table per dense mode
        // (row-major in increasing mode order, as the values are stored).
        let d = self.dense_volume();
        let mut stride = d;
        let dense_coords: Vec<Vec<Coord>> = self
            .dense_modes
            .iter()
            .map(|&m| {
                let dim = self.shape.dim(m) as usize;
                stride /= dim.max(1);
                (0..d).map(|lin| ((lin / stride) % dim) as Coord).collect()
            })
            .collect();
        let cap = self.vals.len();
        let mut inds: Vec<Vec<Coord>> =
            (0..self.shape.order()).map(|_| Vec::with_capacity(cap)).collect();
        let mut vals = Vec::with_capacity(cap);
        for f in 0..self.num_fibers() {
            for (lin, &v) in self.fiber_vals(f).iter().enumerate() {
                if v == V::ZERO {
                    continue;
                }
                for (col, &m) in self.inds.iter().zip(&self.sparse_modes) {
                    inds[m].push(col[f]);
                }
                for (table, &m) in dense_coords.iter().zip(&self.dense_modes) {
                    inds[m].push(table[lin]);
                }
                vals.push(v);
            }
        }
        // Sparse coordinates were validated at construction and dense ones
        // are below their dims by the tables' construction.
        CooTensor::from_valid_parts(self.shape.clone(), inds, vals)
    }

    /// The non-zero values in fully lexicographic coordinate order: bit for
    /// bit `self.to_coo().lex_vals()`, exact zeros dropped as
    /// [`Self::to_coo`] drops them, but read straight from the fiber layout
    /// without building the COO.
    ///
    /// When the fibers are in non-decreasing lexicographic order over the
    /// sparse modes — TTM output is, because its fibers come from a copy
    /// sorted with the product mode last — the walk takes each run of
    /// fibers that share the sparse coordinates before a dense mode, dense
    /// coordinate outer and fiber inner, nesting once per dense mode.
    /// Fibers with equal sparse coordinates stay in storage order, as the
    /// stable sort keeps them. Other layouts fall back to
    /// `to_coo().lex_vals()`.
    pub fn lex_vals(&self) -> Vec<V> {
        if !self.fibers_lex_ordered() {
            return self.to_coo().lex_vals();
        }
        // split[l]: how many sparse modes precede dense mode l.
        let split: Vec<usize> = self
            .dense_modes
            .iter()
            .map(|&dm| self.sparse_modes.iter().take_while(|&&s| s < dm).count())
            .collect();
        let mut out = Vec::with_capacity(self.vals.len());
        self.lex_walk(0..self.num_fibers(), 0, 0, &split, &mut out);
        out
    }

    /// Whether the fibers are in non-decreasing lexicographic order over
    /// the sparse modes (equal neighbours allowed) — one pass over the
    /// fibers, and the condition under which [`Self::lex_vals`] walks the
    /// layout instead of sorting.
    pub fn fibers_lex_ordered(&self) -> bool {
        (1..self.num_fibers()).all(|f| {
            self.inds
                .iter()
                .map(|col| col[f - 1].cmp(&col[f]))
                .find(|o| o.is_ne())
                .is_none_or(std::cmp::Ordering::is_lt)
        })
    }

    /// One level of [`Self::lex_vals`]: `fibers` share the sparse
    /// coordinates before dense mode `level`, whose preceding dense modes
    /// are fixed at linear offset `offset`.
    fn lex_walk(
        &self,
        fibers: std::ops::Range<usize>,
        level: usize,
        offset: usize,
        split: &[usize],
        out: &mut Vec<V>,
    ) {
        let d = self.dense_volume();
        let dim = self.shape.dim(self.dense_modes[level]) as usize;
        let shared = if level == 0 { 0 } else { split[level - 1] }..split[level];
        let last = level + 1 == split.len();
        let mut start = fibers.start;
        while start < fibers.end {
            let end = (start + 1..fibers.end)
                .find(|&f| shared.clone().any(|k| self.inds[k][f] != self.inds[k][start]))
                .unwrap_or(fibers.end);
            if last && end == start + 1 {
                // A lone fiber: its last dense mode is contiguous in storage.
                let row = start * d + offset * dim;
                out.extend(self.vals[row..row + dim].iter().filter(|&&v| v != V::ZERO));
            } else {
                for j in 0..dim {
                    let off = offset * dim + j;
                    if last {
                        let vals = (start..end).map(|f| self.vals[f * d + off]);
                        out.extend(vals.filter(|&v| v != V::ZERO));
                    } else {
                        self.lex_walk(start..end, level + 1, off, split, out);
                    }
                }
            }
            start = end;
        }
    }
}

impl<V: Value> crate::access::FormatAccess<V> for SemiCooTensor<V> {
    fn format_name(&self) -> &'static str {
        "sCOO"
    }

    fn shape(&self) -> &Shape {
        &self.shape
    }

    fn level_kind(&self, mode: usize) -> crate::access::LevelKind {
        self.shape.check_mode(mode).expect("mode in range");
        if self.dense_modes.contains(&mode) {
            crate::access::LevelKind::Dense
        } else {
            crate::access::LevelKind::Coordinate
        }
    }

    fn stored_vals(&self) -> &[V] {
        &self.vals
    }

    fn stored_vals_mut(&mut self) -> &mut [V] {
        &mut self.vals
    }

    fn same_structure(&self, other: &Self) -> bool {
        self.shape == other.shape
            && self.dense_modes == other.dense_modes
            && self.inds == other.inds
    }

    /// Visits every stored slot, *including* explicit zeros inside dense
    /// fibers — they are materialized storage, unlike COO's absent entries.
    fn for_each_stored<F: FnMut(&[Coord], V)>(&self, mut f: F) {
        let order = self.shape.order();
        let d = self.dense_volume();
        let dense_dims: Vec<usize> =
            self.dense_modes.iter().map(|&m| self.shape.dim(m) as usize).collect();
        let mut coords = vec![0 as Coord; order];
        for fib in 0..self.num_fibers() {
            for (k, &m) in self.sparse_modes.iter().enumerate() {
                coords[m] = self.inds[k][fib];
            }
            for (lin, &v) in self.fiber_vals(fib).iter().enumerate().take(d) {
                let mut rem = lin;
                for (di, &m) in self.dense_modes.iter().enumerate().rev() {
                    coords[m] = (rem % dense_dims[di]) as Coord;
                    rem /= dense_dims[di];
                }
                f(&coords, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SemiCooTensor<f32> {
        // 2x3x2, dense mode 1 (volume 3), two fibers.
        SemiCooTensor::from_fibers(
            Shape::new(vec![2, 3, 2]),
            vec![1],
            vec![vec![0, 1], vec![1, 0]],
            vec![1.0, 2.0, 3.0, 4.0, 0.0, 6.0],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let t = sample();
        assert_eq!(t.num_fibers(), 2);
        assert_eq!(t.dense_volume(), 3);
        assert_eq!(t.dense_modes(), &[1]);
        assert_eq!(t.sparse_modes(), &[0, 2]);
        assert_eq!(t.fiber_vals(0), &[1.0, 2.0, 3.0]);
        assert_eq!(t.fiber_coords(1), vec![1, 0]);
        assert_eq!(t.sparse_inds(0), &[0, 1]);
    }

    #[test]
    fn rejects_bad_dense_modes() {
        assert!(SemiCooTensor::<f32>::new(Shape::new(vec![2, 2]), vec![]).is_err());
        assert!(SemiCooTensor::<f32>::new(Shape::new(vec![2, 2]), vec![0, 1]).is_err());
        assert!(SemiCooTensor::<f32>::new(Shape::new(vec![2, 2]), vec![5]).is_err());
        // Duplicates collapse and survive.
        let t = SemiCooTensor::<f32>::new(Shape::new(vec![2, 2, 2]), vec![1, 1]).unwrap();
        assert_eq!(t.dense_modes(), &[1]);
    }

    #[test]
    fn from_fibers_validates() {
        let shape = Shape::new(vec![2, 3, 2]);
        // Wrong value length.
        assert!(SemiCooTensor::from_fibers(
            shape.clone(),
            vec![1],
            vec![vec![0], vec![0]],
            vec![1.0_f32; 2],
        )
        .is_err());
        // Out-of-range sparse index.
        assert!(SemiCooTensor::from_fibers(
            shape.clone(),
            vec![1],
            vec![vec![2], vec![0]],
            vec![1.0_f32; 3],
        )
        .is_err());
        // Wrong number of index arrays.
        assert!(
            SemiCooTensor::from_fibers(shape, vec![1], vec![vec![0]], vec![1.0_f32; 3]).is_err()
        );
    }

    #[test]
    fn push_fiber_appends() {
        let mut t = SemiCooTensor::<f32>::new(Shape::new(vec![2, 3, 2]), vec![1]).unwrap();
        t.push_fiber(&[1, 1], &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(t.num_fibers(), 1);
        assert!(t.push_fiber(&[1], &[1.0, 2.0, 3.0]).is_err());
        assert!(t.push_fiber(&[1, 1], &[1.0]).is_err());
        assert!(t.push_fiber(&[2, 0], &[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn to_coo_expands_and_drops_zeros() {
        let t = sample();
        let coo = t.to_coo();
        assert_eq!(coo.nnz(), 5); // one stored zero dropped
        assert_eq!(coo.get(&[0, 0, 1]), Some(1.0));
        assert_eq!(coo.get(&[0, 2, 1]), Some(3.0));
        assert_eq!(coo.get(&[1, 1, 0]), None); // was the zero
        assert_eq!(coo.get(&[1, 2, 0]), Some(6.0));
    }

    #[test]
    fn multi_dense_mode_roundtrip() {
        // 2x2x3 with dense modes {1, 2}: volume 6.
        let t = SemiCooTensor::from_fibers(
            Shape::new(vec![2, 2, 3]),
            vec![1, 2],
            vec![vec![1]],
            (1..=6).map(|v| v as f32).collect(),
        )
        .unwrap();
        assert_eq!(t.dense_volume(), 6);
        let coo = t.to_coo();
        assert_eq!(coo.nnz(), 6);
        // Row-major among dense modes: (j=0,k=0)->1, (j=0,k=2)->3, (j=1,k=0)->4.
        assert_eq!(coo.get(&[1, 0, 2]), Some(3.0));
        assert_eq!(coo.get(&[1, 1, 0]), Some(4.0));
    }

    /// `to_coo().sort()` values: the reference [`SemiCooTensor::lex_vals`]
    /// must reproduce bit for bit.
    fn sorted_coo_vals(t: &SemiCooTensor<f32>) -> Vec<u32> {
        let mut c = t.to_coo();
        c.sort();
        c.vals().iter().map(|v| v.to_bits()).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn lex_vals_walks_dense_coordinate_outer() {
        // Dense mode 1 between sparse modes 0 and 2: fibers (0,0), (0,1)
        // share mode 0, so their values interleave by the dense coordinate.
        let t = SemiCooTensor::from_fibers(
            Shape::new(vec![2, 3, 2]),
            vec![1],
            vec![vec![0, 0, 1], vec![0, 1, 0]],
            vec![1.0, 2.0, 3.0, 4.0, 0.0, 6.0, 7.0, -0.0, 9.0],
        )
        .unwrap();
        assert_eq!(t.lex_vals(), vec![1.0, 4.0, 2.0, 3.0, 6.0, 7.0, 9.0]);
        assert_eq!(bits(&t.lex_vals()), sorted_coo_vals(&t));
    }

    #[test]
    fn storage_bytes_counts_indices_and_values() {
        let t = sample();
        // 2 fibers x 2 sparse modes x 4B + 6 values x 4B = 16 + 24.
        assert_eq!(t.storage_bytes(), 40);
    }
}
