//! Regenerates Figures 4–7: five-kernel performance on one platform over
//! both datasets, with the per-tensor Roofline bound.
//!
//! Usage: `figures <bluesky|wingtip|dgx1p|dgx1v> [scale] [--simulate]`
//!
//! - Figure 4 = `figures bluesky`, Figure 5 = `figures wingtip`,
//!   Figure 6 = `figures dgx1p`, Figure 7 = `figures dgx1v`.
//! - `scale` (default 1.0) multiplies the dataset non-zero targets.
//! - `--simulate` (GPU platforms only) drives the SIMT simulator instead of
//!   the calibrated model — slower, first-principles.

use pasta_bench::datasets::{load_dataset, DatasetKind};
use pasta_bench::figures::{figure_rows, to_csv, FigureRow};
use pasta_bench::gpu::simulate;
use pasta_bench::{scale_or, usage_exit};
use pasta_kernels::Kernel;
use pasta_platform::{find_platform, Format};

const USAGE: &str = "figures <bluesky|wingtip|dgx1p|dgx1v> [scale] [--simulate]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, positional): (Vec<&str>, Vec<&str>) =
        args.iter().map(String::as_str).partition(|a| a.starts_with("--"));
    if positional.len() > 2 || flags.iter().any(|&f| f != "--simulate") {
        usage_exit(USAGE);
    }
    let Some(name) = positional.first() else {
        usage_exit(USAGE);
    };
    let lower = name.to_ascii_lowercase();
    let lookup = match lower.as_str() {
        "bluesky" => "Bluesky",
        "wingtip" => "Wingtip",
        "dgx1p" | "dgx-1p" | "p100" => "DGX-1P",
        "dgx1v" | "dgx-1v" | "v100" => "DGX-1V",
        other => other,
    };
    let Some(spec) = find_platform(lookup) else {
        eprintln!("unknown platform {name:?}");
        usage_exit(USAGE);
    };
    let scale = scale_or(positional.get(1).copied(), 1.0, USAGE);
    let simulate_flag = flags.contains(&"--simulate");

    let fig = match spec.name {
        "Bluesky" => 4,
        "Wingtip" => 5,
        "DGX-1P" => 6,
        _ => 7,
    };
    println!(
        "# Figure {fig} — {} (scale {scale}{})",
        spec.name,
        if simulate_flag { ", SIMT-simulated" } else { ", modeled" }
    );

    for (kind, label) in [(DatasetKind::Synthetic, "synthetic"), (DatasetKind::Real, "real")] {
        eprintln!("materializing {label} dataset...");
        let tensors = load_dataset(kind, scale);
        let rows: Vec<FigureRow> = if simulate_flag {
            let device = match spec.name {
                "DGX-1P" => pasta_simt::p100(),
                "DGX-1V" => pasta_simt::v100(),
                other => {
                    eprintln!("--simulate only applies to GPU platforms, not {other}");
                    std::process::exit(2);
                }
            };
            let mut rows = Vec::new();
            for bt in &tensors {
                for k in Kernel::ALL {
                    for fmt in [Format::Coo, Format::Hicoo] {
                        eprintln!("  simulating {} {k} {fmt}...", bt.profile.id);
                        let sim = simulate(bt, &device, k, fmt).expect("simulate");
                        // Roofline bound from the model for comparability.
                        let modeled = pasta_bench::figures::model_row(&spec, bt, k, fmt);
                        rows.push(FigureRow {
                            gflops: sim.gflops,
                            efficiency: sim.gflops / modeled.roofline,
                            ..modeled
                        });
                    }
                }
            }
            rows
        } else {
            figure_rows(&spec, &tensors)
        };
        println!("## {label} dataset");
        print!("{}", to_csv(&rows));
    }
}
