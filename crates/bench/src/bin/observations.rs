//! Recomputes the paper's Observations 1–5 from the modeled Figures 4–7.
//!
//! Usage: `observations [scale]`

use pasta_bench::datasets::{load_dataset, DatasetKind};
use pasta_bench::figures::{figure_rows, FigureRow};
use pasta_bench::observations::{obs1, obs2, obs3, obs4, obs5, render};
use pasta_bench::{scale_or, usage_exit};
use pasta_platform::{bluesky, dgx1p, dgx1v, wingtip};

const USAGE: &str = "observations [scale]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > 1 {
        usage_exit(USAGE);
    }
    let scale = scale_or(args.first().map(String::as_str), 0.25, USAGE);
    eprintln!("materializing datasets at scale {scale}...");
    let syn = load_dataset(DatasetKind::Synthetic, scale);
    let real = load_dataset(DatasetKind::Real, scale);
    let all: Vec<_> = syn.iter().chain(real.iter()).cloned().collect();

    let bs = figure_rows(&bluesky(), &all);
    let wt = figure_rows(&wingtip(), &all);
    let p = figure_rows(&dgx1p(), &all);
    let v = figure_rows(&dgx1v(), &all);
    let gpu: Vec<FigureRow> = p.iter().chain(v.iter()).cloned().collect();

    let real_rows = figure_rows(&bluesky(), &real);
    let syn_rows = figure_rows(&bluesky(), &syn);

    let mut reports = Vec::new();
    for (name, rows) in [("Bluesky", &bs), ("Wingtip", &wt), ("DGX-1P", &p), ("DGX-1V", &v)] {
        reports.push(obs1(name, rows));
        reports.push(obs2(name, rows));
    }
    reports.push(obs3(&bs, &wt));
    reports.push(obs4(&bs, &gpu));
    reports.push(obs5(&real_rows, &syn_rows));

    println!("{}", render(&reports));
    let failed = reports.iter().filter(|r| !r.holds).count();
    println!("{} / {} checks hold", reports.len() - failed, reports.len());
}
