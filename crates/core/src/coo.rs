//! The coordinate (COO) sparse tensor format.
//!
//! COO is the most common sparse tensor representation (Figure 1(a) of the
//! paper): one index array per mode plus one value array, all of length `M`
//! (the number of non-zeros). It imposes no mode order and a single
//! representation supports computations in every mode ("mode generic").

use crate::error::{Error, Result};
use crate::keys::{lex_keys, PackedKeys};
use crate::shape::{Coord, Shape};
use crate::sort::{
    apply_permutation, gather, lex_cmp, mode_last_order, par_sort_keys, sort_permutation,
};
use crate::value::Value;

/// The entry ordering a [`CooTensor`] is known to satisfy.
///
/// Set by the sorters ([`CooTensor::sort_by_mode_order`] and friends, or
/// [`CooTensor::assume_sorted_by`] for producers that emit pre-ordered
/// entries) and invalidated by any mutation of the non-zero pattern
/// ([`CooTensor::push`]). Kernels dispatch on this typed state instead of
/// assuming an ordering: the owner-computes MTTKRP schedule, for example,
/// requires [`SortState::outermost`] to equal the product mode.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum SortState {
    /// No ordering is known (freshly built, loaded, or mutated).
    #[default]
    Unsorted,
    /// Entries are sorted lexicographically by the listed modes (a prefix of
    /// a mode permutation; entries equal on all listed modes keep their
    /// relative order).
    Lexicographic {
        /// The modes compared, outermost first.
        mode_order: Vec<usize>,
    },
}

impl SortState {
    /// The sorted mode order, if one is known.
    pub fn mode_order(&self) -> Option<&[usize]> {
        match self {
            SortState::Unsorted => None,
            SortState::Lexicographic { mode_order } => Some(mode_order),
        }
    }

    /// The outermost (slowest-varying) sorted mode, if known.
    ///
    /// When this equals `n`, the mode-`n` index array is non-decreasing and
    /// every output row of a mode-`n` MTTKRP occupies one contiguous entry
    /// range — the precondition for owner-computes scheduling.
    pub fn outermost(&self) -> Option<usize> {
        self.mode_order().and_then(|o| o.first().copied())
    }

    /// The innermost (fastest-varying) sorted mode, if known — the product
    /// mode for which [`crate::FiberIndex`] can be built directly.
    pub fn innermost(&self) -> Option<usize> {
        self.mode_order().and_then(|o| o.last().copied())
    }
}

/// A sparse tensor in coordinate (COO) format.
///
/// Indices are stored *columnar*: `inds[m][x]` is the mode-`m` index of the
/// `x`-th non-zero and `vals[x]` its value. Storage is `4(N+1)M` bytes for an
/// `N`th-order tensor with `M` `f32` non-zeros, as analyzed in the paper.
///
/// # Examples
///
/// ```
/// use pasta_core::{CooTensor, Shape};
///
/// # fn main() -> Result<(), pasta_core::Error> {
/// let x = CooTensor::from_entries(
///     Shape::new(vec![2, 2, 2]),
///     vec![(vec![0, 0, 1], 1.0_f32), (vec![1, 1, 0], 2.0)],
/// )?;
/// assert_eq!(x.nnz(), 2);
/// assert_eq!(x.order(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CooTensor<V> {
    shape: Shape,
    inds: Vec<Vec<Coord>>,
    vals: Vec<V>,
    /// The entry ordering currently known to hold.
    sort: SortState,
}

impl<V: PartialEq> PartialEq for CooTensor<V> {
    /// Content equality: shape, index arrays and values in storage order.
    /// The internal sort cache does not participate.
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.inds == other.inds && self.vals == other.vals
    }
}

impl<V: Value> CooTensor<V> {
    /// Creates an empty tensor of the given shape.
    pub fn new(shape: Shape) -> Self {
        let order = shape.order();
        Self { shape, inds: vec![Vec::new(); order], vals: Vec::new(), sort: SortState::Unsorted }
    }

    /// Creates an empty tensor with capacity for `cap` non-zeros.
    pub fn with_capacity(shape: Shape, cap: usize) -> Self {
        let order = shape.order();
        Self {
            shape,
            inds: vec![Vec::with_capacity(cap); order],
            vals: Vec::with_capacity(cap),
            sort: SortState::Unsorted,
        }
    }

    /// Builds a tensor from `(coords, value)` entries, validating every
    /// coordinate against `shape`.
    ///
    /// # Errors
    ///
    /// Returns an error if any coordinate tuple has the wrong length or an
    /// out-of-range index.
    pub fn from_entries<I>(shape: Shape, entries: I) -> Result<Self>
    where
        I: IntoIterator<Item = (Vec<Coord>, V)>,
    {
        let mut t = Self::new(shape);
        for (coords, v) in entries {
            t.push(&coords, v)?;
        }
        Ok(t)
    }

    /// Builds a tensor directly from columnar arrays without copying.
    ///
    /// # Errors
    ///
    /// Returns an error if array lengths are inconsistent with each other or
    /// any index is out of range.
    pub fn from_parts(shape: Shape, inds: Vec<Vec<Coord>>, vals: Vec<V>) -> Result<Self> {
        if inds.len() != shape.order() {
            return Err(Error::OrderMismatch { left: shape.order(), right: inds.len() });
        }
        for (mode, col) in inds.iter().enumerate() {
            if col.len() != vals.len() {
                return Err(Error::OperandMismatch {
                    what: format!(
                        "index array for mode {mode} has length {} but there are {} values",
                        col.len(),
                        vals.len()
                    ),
                });
            }
            let dim = shape.dim(mode);
            if let Some(&bad) = col.iter().find(|&&c| c >= dim) {
                return Err(Error::IndexOutOfBounds { mode, index: bad, dim });
            }
        }
        Ok(Self { shape, inds, vals, sort: SortState::Unsorted })
    }

    /// [`Self::from_parts`] for producers whose columns are valid by
    /// construction (format expansions of an already-validated tensor).
    pub(crate) fn from_valid_parts(shape: Shape, inds: Vec<Vec<Coord>>, vals: Vec<V>) -> Self {
        debug_assert!(inds.len() == shape.order() && inds.iter().all(|c| c.len() == vals.len()));
        Self { shape, inds, vals, sort: SortState::Unsorted }
    }

    /// Appends one non-zero entry.
    ///
    /// # Errors
    ///
    /// Returns an error if `coords` has the wrong length or is out of range.
    pub fn push(&mut self, coords: &[Coord], value: V) -> Result<()> {
        self.shape.check_coords(coords)?;
        for (col, &c) in self.inds.iter_mut().zip(coords) {
            col.push(c);
        }
        self.vals.push(value);
        self.sort = SortState::Unsorted;
        Ok(())
    }

    /// The tensor shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The tensor order `N`.
    #[inline]
    pub fn order(&self) -> usize {
        self.shape.order()
    }

    /// The number of non-zeros `M`.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The index array of mode `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= self.order()`.
    #[inline]
    pub fn mode_inds(&self, m: usize) -> &[Coord] {
        &self.inds[m]
    }

    /// All index arrays, one per mode.
    #[inline]
    pub fn inds(&self) -> &[Vec<Coord>] {
        &self.inds
    }

    /// The value array.
    #[inline]
    pub fn vals(&self) -> &[V] {
        &self.vals
    }

    /// Mutable access to the value array (the non-zero pattern is fixed).
    #[inline]
    pub fn vals_mut(&mut self) -> &mut [V] {
        &mut self.vals
    }

    /// The coordinates of non-zero `x` as an owned tuple.
    ///
    /// # Panics
    ///
    /// Panics if `x >= self.nnz()`.
    pub fn coords_of(&self, x: usize) -> Vec<Coord> {
        self.inds.iter().map(|col| col[x]).collect()
    }

    /// Iterates over `(coords, value)` pairs in storage order.
    pub fn iter(&self) -> Entries<'_, V> {
        Entries { t: self, pos: 0 }
    }

    /// The mode order the entries are currently sorted by, if tracked.
    #[inline]
    pub fn sorted_by(&self) -> Option<&[usize]> {
        self.sort.mode_order()
    }

    /// The typed sort state of the entries (see [`SortState`]).
    #[inline]
    pub fn sort_state(&self) -> &SortState {
        &self.sort
    }

    /// Sorts entries lexicographically in natural mode order `0, 1, …, N−1`.
    pub fn sort(&mut self) {
        let order: Vec<usize> = (0..self.order()).collect();
        self.sort_by_mode_order(&order);
    }

    /// Sorts entries lexicographically in the given mode order.
    ///
    /// # Panics
    ///
    /// Panics if `mode_order` is not a permutation prefix of the modes (each
    /// listed mode must be valid; modes may be omitted, in which case ties
    /// keep their relative order).
    pub fn sort_by_mode_order(&mut self, mode_order: &[usize]) {
        self.sort_by_mode_order_threads(mode_order, pasta_par::default_threads());
    }

    /// [`Self::sort_by_mode_order`] with an explicit worker count.
    ///
    /// When the per-entry sort key (coordinates of the listed modes,
    /// concatenated) fits in 128 bits — every tensor of practical order —
    /// the sort runs as a key-based radix sort
    /// ([`crate::sort::par_sort_keys`]), parallel across `threads`
    /// participants of the global pool. Wider keys fall back to the serial
    /// comparator sort. Both paths produce the identical (stable)
    /// permutation, so results do not depend on `threads`.
    ///
    /// # Panics
    ///
    /// Panics if any listed mode is out of range.
    pub fn sort_by_mode_order_threads(&mut self, mode_order: &[usize], threads: usize) {
        for &m in mode_order {
            assert!(m < self.order(), "mode {m} out of range");
        }
        if self.sort.mode_order() == Some(mode_order) {
            return;
        }
        let perm = self.lex_permutation(mode_order, threads);
        apply_permutation(&mut self.inds, &mut self.vals, &perm);
        self.sort = SortState::Lexicographic { mode_order: mode_order.to_vec() };
    }

    /// The stable permutation that sorts the entries lexicographically by
    /// `mode_order` — what [`Self::sort_by_mode_order_threads`] applies.
    fn lex_permutation(&self, mode_order: &[usize], threads: usize) -> Vec<u32> {
        match lex_keys(&self.inds, self.shape.dims(), mode_order) {
            PackedKeys::U64(keys) => par_sort_keys(&keys, threads),
            PackedKeys::U128(keys) => par_sort_keys(&keys, threads),
            PackedKeys::Overflow => {
                sort_permutation(self.nnz(), |a, b| lex_cmp(&self.inds, mode_order, a, b))
            }
        }
    }

    /// Whether the entries are in non-decreasing lexicographic order of
    /// `mode_order`: the recorded [`SortState`] says exactly this order, or
    /// one linear scan confirms it. A recorded prefix of `mode_order` does
    /// not count. Ties are allowed, so a stable sort by `mode_order` would
    /// leave the entries where they are.
    pub fn is_sorted_by(&self, mode_order: &[usize]) -> bool {
        self.sort.mode_order() == Some(mode_order)
            || (1..self.nnz())
                .all(|x| lex_cmp(&self.inds, mode_order, x - 1, x) != std::cmp::Ordering::Greater)
    }

    /// The values in fully lexicographic coordinate order (modes
    /// `0, 1, …, N−1`), bit for bit what [`Self::sort`] would leave in
    /// [`Self::vals`] — [`Self::in_lex_order`] of a copy of the values.
    pub fn lex_vals(&self) -> Vec<V> {
        self.in_lex_order(self.vals.clone())
    }

    /// Rearranges `vals`, one per entry in storage order (a value array
    /// over this tensor's pattern), into fully lexicographic coordinate
    /// order; entries with equal coordinates keep their storage order, as
    /// under [`Self::sort`]. Already-ordered entries (see
    /// [`Self::is_sorted_by`]) return `vals` untouched; otherwise the sort
    /// permutation gathers them, and the index arrays are neither copied
    /// nor moved.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != self.nnz()`.
    pub fn in_lex_order(&self, vals: Vec<V>) -> Vec<V> {
        assert_eq!(vals.len(), self.nnz(), "one value per entry");
        let natural: Vec<usize> = (0..self.order()).collect();
        if self.is_sorted_by(&natural) {
            return vals;
        }
        gather(&vals, &self.lex_permutation(&natural, pasta_par::default_threads()))
    }

    /// Sorts entries so that mode-`n` fibers are contiguous: lexicographic in
    /// all modes but `n` (ascending), with `n` last.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn sort_mode_last(&mut self, n: usize) {
        let order = mode_last_order(self.order(), n);
        self.sort_by_mode_order(&order);
    }

    /// Merges duplicate coordinates by summing their values; requires no
    /// particular prior order (sorts in natural order first).
    pub fn dedup_sum(&mut self) {
        if self.nnz() <= 1 {
            return;
        }
        self.sort();
        let n = self.nnz();
        let order = self.order();
        let mut w = 0usize; // write cursor
        for r in 1..n {
            let same = (0..order).all(|m| self.inds[m][r] == self.inds[m][w]);
            if same {
                let add = self.vals[r];
                self.vals[w] += add;
            } else {
                w += 1;
                for m in 0..order {
                    self.inds[m][w] = self.inds[m][r];
                }
                self.vals[w] = self.vals[r];
            }
        }
        let new_len = w + 1;
        for col in &mut self.inds {
            col.truncate(new_len);
        }
        self.vals.truncate(new_len);
    }

    /// Looks up a value by coordinates with a linear scan.
    ///
    /// Intended for tests and small tensors; kernels never use random access.
    pub fn get(&self, coords: &[Coord]) -> Option<V> {
        if coords.len() != self.order() {
            return None;
        }
        (0..self.nnz())
            .find(|&x| self.inds.iter().zip(coords).all(|(col, &c)| col[x] == c))
            .map(|x| self.vals[x])
    }

    /// Returns `true` if both tensors have identical shape and index arrays
    /// (the precondition for the fast-path TEW of the paper).
    pub fn same_pattern(&self, other: &CooTensor<V>) -> bool {
        self.shape == other.shape && self.inds == other.inds
    }

    /// The COO storage footprint in bytes: `N` index arrays of 4-byte indices
    /// plus the value array (`4(N+1)M` for `f32`, per Section III-A).
    pub fn storage_bytes(&self) -> usize {
        self.nnz() * (self.order() * 4 + V::BYTES)
    }

    /// Materializes the tensor densely (row-major); test oracle only.
    ///
    /// # Panics
    ///
    /// Panics if the dense size exceeds `max_entries` (guards against
    /// accidentally densifying a huge tensor in a test).
    pub fn to_dense(&self, max_entries: usize) -> Vec<V> {
        let n = self.shape.num_entries();
        assert!(n <= max_entries as f64, "tensor too large to densify ({n} entries)");
        let mut out = vec![V::ZERO; n as usize];
        for x in 0..self.nnz() {
            let coords = self.coords_of(x);
            out[self.shape.linearize(&coords)] += self.vals[x];
        }
        out
    }

    /// Creates a tensor with the same non-zero pattern as `self` and all
    /// values set to `fill` (used to pre-allocate TEW/TS outputs).
    pub fn like_pattern(&self, fill: V) -> CooTensor<V> {
        CooTensor {
            shape: self.shape.clone(),
            inds: self.inds.clone(),
            vals: vec![fill; self.nnz()],
            sort: self.sort.clone(),
        }
    }

    /// Consumes the tensor and returns `(shape, index arrays, values)`.
    pub fn into_parts(self) -> (Shape, Vec<Vec<Coord>>, Vec<V>) {
        (self.shape, self.inds, self.vals)
    }

    /// Splits the non-zeros into `parts` contiguous chunks (in the current
    /// storage order), each a tensor of the same shape — the 1-D
    /// decomposition used for multi-device execution.
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0`.
    pub fn split_nnz(&self, parts: usize) -> Vec<CooTensor<V>> {
        assert!(parts > 0, "parts must be positive");
        let n = self.nnz();
        let per = n / parts;
        let rem = n % parts;
        let mut out = Vec::with_capacity(parts);
        let mut start = 0usize;
        for p in 0..parts {
            let len = per + usize::from(p < rem);
            let range = start..start + len;
            start += len;
            let inds: Vec<Vec<Coord>> =
                self.inds.iter().map(|col| col[range.clone()].to_vec()).collect();
            let vals = self.vals[range].to_vec();
            out.push(
                CooTensor::from_parts(self.shape.clone(), inds, vals)
                    .expect("chunks of a valid tensor are valid"),
            );
        }
        out
    }

    /// Marks the current entry order as sorted by `mode_order` without
    /// sorting — for use by producers (format converters, kernels) that emit
    /// data already in the claimed order.
    ///
    /// Debug builds verify the claim; release builds trust it.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the entries are not actually sorted by
    /// `mode_order`.
    pub fn assume_sorted_by(&mut self, mode_order: Vec<usize>) {
        debug_assert!({
            (1..self.nnz())
                .all(|x| lex_cmp(&self.inds, &mode_order, x - 1, x) != std::cmp::Ordering::Greater)
        });
        self.sort = SortState::Lexicographic { mode_order };
    }
}

impl<V: Value> crate::access::FormatAccess<V> for CooTensor<V> {
    fn format_name(&self) -> &'static str {
        "COO"
    }

    fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Every mode stores a full coordinate per non-zero.
    fn level_kind(&self, mode: usize) -> crate::access::LevelKind {
        debug_assert!(mode < self.order());
        crate::access::LevelKind::Coordinate
    }

    fn stored_vals(&self) -> &[V] {
        &self.vals
    }

    fn stored_vals_mut(&mut self) -> &mut [V] {
        &mut self.vals
    }

    fn same_structure(&self, other: &Self) -> bool {
        self.same_pattern(other)
    }

    fn for_each_stored<F: FnMut(&[Coord], V)>(&self, mut f: F) {
        let order = self.order();
        let mut coords = vec![0 as Coord; order];
        for x in 0..self.nnz() {
            for (m, c) in coords.iter_mut().enumerate() {
                *c = self.inds[m][x];
            }
            f(&coords, self.vals[x]);
        }
    }
}

/// Iterator over `(coords, value)` entries of a [`CooTensor`].
#[derive(Debug)]
pub struct Entries<'a, V> {
    t: &'a CooTensor<V>,
    pos: usize,
}

impl<'a, V: Value> Iterator for Entries<'a, V> {
    type Item = (Vec<Coord>, V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.t.nnz() {
            return None;
        }
        let item = (self.t.coords_of(self.pos), self.t.vals[self.pos]);
        self.pos += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.t.nnz() - self.pos;
        (rem, Some(rem))
    }
}

impl<'a, V: Value> ExactSizeIterator for Entries<'a, V> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooTensor<f32> {
        CooTensor::from_entries(
            Shape::new(vec![4, 4, 4]),
            vec![
                (vec![3, 1, 0], 4.0),
                (vec![0, 0, 1], 1.0),
                (vec![0, 2, 1], 2.0),
                (vec![1, 0, 3], 3.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let t = sample();
        assert_eq!(t.nnz(), 4);
        assert_eq!(t.order(), 3);
        assert_eq!(t.shape().dims(), &[4, 4, 4]);
        assert_eq!(t.coords_of(0), vec![3, 1, 0]);
        assert_eq!(t.get(&[0, 2, 1]), Some(2.0));
        assert_eq!(t.get(&[2, 2, 2]), None);
        assert_eq!(t.get(&[0, 0]), None);
    }

    #[test]
    fn from_entries_validates() {
        let err = CooTensor::<f32>::from_entries(Shape::new(vec![2, 2]), vec![(vec![2, 0], 1.0)]);
        assert!(matches!(err, Err(Error::IndexOutOfBounds { mode: 0, index: 2, dim: 2 })));
        let err = CooTensor::<f32>::from_entries(Shape::new(vec![2, 2]), vec![(vec![0], 1.0)]);
        assert!(matches!(err, Err(Error::OrderMismatch { .. })));
    }

    #[test]
    fn from_parts_validates_lengths() {
        let shape = Shape::new(vec![2, 2]);
        let bad = CooTensor::<f32>::from_parts(shape.clone(), vec![vec![0], vec![0, 1]], vec![1.0]);
        assert!(bad.is_err());
        let bad = CooTensor::<f32>::from_parts(shape.clone(), vec![vec![0, 1]], vec![1.0, 2.0]);
        assert!(matches!(bad, Err(Error::OrderMismatch { .. })));
        let ok = CooTensor::<f32>::from_parts(shape, vec![vec![0, 1], vec![1, 0]], vec![1.0, 2.0]);
        assert!(ok.is_ok());
    }

    #[test]
    fn sort_natural_order() {
        let mut t = sample();
        t.sort();
        let coords: Vec<Vec<Coord>> = (0..t.nnz()).map(|x| t.coords_of(x)).collect();
        assert_eq!(coords, vec![vec![0, 0, 1], vec![0, 2, 1], vec![1, 0, 3], vec![3, 1, 0]]);
        assert_eq!(t.vals(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.sorted_by(), Some(&[0usize, 1, 2][..]));
    }

    #[test]
    fn sort_mode_last_groups_fibers() {
        let mut t = CooTensor::<f32>::from_entries(
            Shape::new(vec![2, 2, 4]),
            vec![
                (vec![1, 0, 0], 1.0),
                (vec![0, 1, 3], 2.0),
                (vec![0, 1, 0], 3.0),
                (vec![1, 0, 2], 4.0),
            ],
        )
        .unwrap();
        t.sort_mode_last(2);
        let coords: Vec<Vec<Coord>> = (0..t.nnz()).map(|x| t.coords_of(x)).collect();
        assert_eq!(coords, vec![vec![0, 1, 0], vec![0, 1, 3], vec![1, 0, 0], vec![1, 0, 2]]);
    }

    #[test]
    fn sort_is_cached() {
        let mut t = sample();
        t.sort();
        let before = t.vals().to_vec();
        t.sort(); // no-op
        assert_eq!(t.vals(), &before[..]);
    }

    #[test]
    fn dedup_sums_duplicates() {
        let mut t = CooTensor::<f32>::from_entries(
            Shape::new(vec![2, 2]),
            vec![
                (vec![1, 1], 1.0),
                (vec![0, 0], 2.0),
                (vec![1, 1], 3.0),
                (vec![0, 0], 4.0),
                (vec![0, 1], 5.0),
            ],
        )
        .unwrap();
        t.dedup_sum();
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.get(&[0, 0]), Some(6.0));
        assert_eq!(t.get(&[1, 1]), Some(4.0));
        assert_eq!(t.get(&[0, 1]), Some(5.0));
    }

    #[test]
    fn storage_bytes_matches_paper_formula() {
        let t = sample();
        // 4(N+1)M with N=3, M=4 -> 64 bytes.
        assert_eq!(t.storage_bytes(), 64);
    }

    #[test]
    fn to_dense_oracle() {
        let t = sample();
        let d = t.to_dense(64);
        assert_eq!(d.len(), 64);
        assert_eq!(d[t.shape().linearize(&[3, 1, 0])], 4.0);
        assert_eq!(d.iter().filter(|&&v| v != 0.0).count(), 4);
    }

    #[test]
    fn like_pattern_shares_indices() {
        let t = sample();
        let z = t.like_pattern(0.0);
        assert!(t.same_pattern(&z));
        assert!(z.vals().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn iter_yields_all_entries() {
        let t = sample();
        let v: Vec<_> = t.iter().collect();
        assert_eq!(v.len(), 4);
        assert_eq!(v[1], (vec![0, 0, 1], 1.0));
        assert_eq!(t.iter().len(), 4);
    }

    #[test]
    fn push_invalidates_sort_cache() {
        let mut t = sample();
        t.sort();
        t.push(&[0, 0, 0], 9.0).unwrap();
        assert_eq!(t.sorted_by(), None);
    }
}
