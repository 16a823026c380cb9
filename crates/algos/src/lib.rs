//! # pasta-algos — tensor methods on top of the PASTA kernels
//!
//! The applications that motivate the benchmark suite's kernels, implemented
//! end-to-end on the suite's own sparse kernels (also covering the paper's
//! declared future work: "more complete tensor methods, such as
//! CANDECOMP/PARAFAC and Tucker decompositions", "TTM-chain in Tucker
//! decomposition"):
//!
//! - [`cp_als`] — CANDECOMP/PARAFAC via alternating least squares, the
//!   MTTKRP workhorse (COO or HiCOO backend), one [`AlsSweep`] per run;
//! - [`tucker_hooi`] — Tucker decomposition by higher-order orthogonal
//!   iteration, driving sparse TTM-chains;
//! - [`tensor_power_method`] — the TTV-based tensor power iteration for
//!   dominant rank-1 structure;
//! - [`eig`] — the small symmetric Jacobi eigensolver HOOI needs.
//!
//! # Examples
//!
//! ```
//! use pasta_core::{CooTensor, Shape};
//! use pasta_algos::{cp_als, CpdOptions};
//!
//! # fn main() -> Result<(), pasta_core::Error> {
//! let x = CooTensor::<f32>::from_entries(
//!     Shape::new(vec![4, 4, 4]),
//!     vec![(vec![0, 1, 2], 1.0), (vec![1, 2, 3], 2.0), (vec![2, 0, 1], 3.0)],
//! )?;
//! let model = cp_als(&x, &CpdOptions { rank: 4, ..Default::default() })?;
//! assert_eq!(model.factors.len(), 3);
//! # Ok(())
//! # }
//! ```

// Dense/kernel code indexes several arrays in lockstep; iterator
// rewrites of those loops obscure the math.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cpd;
pub mod eig;
pub mod power;
pub mod tucker;

pub use cpd::{cp_als, AlsSweep, CpdBackend, CpdModel, CpdOptions};
pub use eig::{leading_vectors, sym_eig, SymEig};
pub use power::{tensor_power_method, PowerOptions, PowerResult};
pub use tucker::{tucker_hooi, TuckerModel, TuckerOptions};
