//! # pasta-bench — the paper binaries
//!
//! Regenerates every table, figure and observation of the paper's
//! evaluation:
//!
//! | Artifact | Binary | Module |
//! |---|---|---|
//! | Table I (kernel analysis / OI) | `table1` | [`tables`] |
//! | Table II (datasets) | `table2` | [`tables`], [`datasets`] |
//! | Table III (platforms) | `table3` | [`tables`] |
//! | Figure 3 (Rooflines + OI markers) | `fig3` | [`figures`] |
//! | Figures 4–7 (kernel GFLOPS per platform) | `figures` | [`figures`], [`gpu`] |
//! | Observations 1–5 | `observations` | [`observations`] |
//! | Host ERT sweep | `ert` | `pasta_platform::ert` |
//!
//! Every output except `ert`'s is machine-independent; `results/regen.sh`
//! rewrites the committed copies under `results/` with pinned arguments.
//! Measured kernel, decomposition and service numbers come from the repo
//! benchmark under `benchmark/`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod datasets;
pub mod figures;
pub mod gpu;
pub mod observations;
pub mod tables;

pub use datasets::{load_dataset, load_one, BenchTensor, DatasetKind, BLOCK_SIZE, RANK};
pub use figures::{figure_rows, model_row, to_csv, FigureRow};

/// Parses an optional command-line argument, using `default` when it is
/// absent. A malformed value prints `usage` and exits with status 2 rather
/// than silently running with the default.
pub fn arg_or<T: std::str::FromStr>(arg: Option<&str>, default: T, usage: &str) -> T {
    match arg {
        None => default,
        Some(s) => s.parse().unwrap_or_else(|_| usage_exit(usage)),
    }
}

/// [`arg_or`] for a dataset scale, which must also be finite and positive.
pub fn scale_or(arg: Option<&str>, default: f64, usage: &str) -> f64 {
    let scale = arg_or(arg, default, usage);
    if !(scale.is_finite() && scale > 0.0) {
        usage_exit(usage);
    }
    scale
}

/// Prints `usage: <usage>` to stderr and exits with status 2.
pub fn usage_exit(usage: &str) -> ! {
    eprintln!("usage: {usage}");
    std::process::exit(2)
}
