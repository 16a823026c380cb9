//! Regenerates Table II: the dataset descriptions.
//!
//! Usage: `table2 [real|synthetic] [--generate [scale]]` — `--generate`
//! materializes every tensor and reports the actual (post-dedup) non-zero
//! counts instead of the targets.

use pasta_bench::datasets::DatasetKind;
use pasta_bench::tables::table2;
use pasta_bench::{arg_or, scale_or, usage_exit};
use pasta_gen::{real_profiles, synthetic_profiles};

const USAGE: &str = "table2 [real|synthetic] [--generate [scale]]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (kind, rest) = match args.split_first() {
        Some((&kind, rest)) if kind != "--generate" => {
            (arg_or(Some(kind), DatasetKind::Synthetic, USAGE), rest)
        }
        _ => (DatasetKind::Synthetic, &args[..]),
    };
    let generate = match rest {
        [] => None,
        ["--generate"] => Some(1.0),
        ["--generate", scale] => Some(scale_or(Some(scale), 1.0, USAGE)),
        _ => usage_exit(USAGE),
    };

    let profiles = match kind {
        DatasetKind::Real => real_profiles(),
        DatasetKind::Synthetic => synthetic_profiles(),
    };
    let title = match kind {
        DatasetKind::Real => "Table II(a) — real-tensor analogs",
        DatasetKind::Synthetic => "Table II(b) — synthetic tensors",
    };
    println!("{title} (dims and nnz scaled from the paper as documented in DESIGN.md)\n");
    if let Some(scale) = generate {
        let actual: Vec<usize> = profiles
            .iter()
            .map(|p| {
                let t = p.generate_scaled(scale).expect("generation");
                eprintln!("generated {} ({} nnz)", p.id, t.nnz());
                t.nnz()
            })
            .collect();
        println!("{}", table2(&profiles, Some(&actual)));
    } else {
        println!("{}", table2(&profiles, None));
    }
}
