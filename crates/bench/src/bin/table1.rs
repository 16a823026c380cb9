//! Regenerates Table I: the kernel flop/byte/OI analysis.
//!
//! Usage: `table1 [tensor-id] [scale]` — the parameters `M`, `M_F`, `n_b`
//! come from the actually generated tensor (default `s2`/regM at scale 1).

use pasta_bench::datasets::{load_one, BLOCK_SIZE, RANK};
use pasta_bench::tables::table1;
use pasta_bench::{scale_or, usage_exit};

const USAGE: &str = "table1 [tensor-id] [scale]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > 2 {
        usage_exit(USAGE);
    }
    let key = args.first().map_or("s2", String::as_str);
    let scale = scale_or(args.get(1).map(String::as_str), 1.0, USAGE);
    let bt = load_one(key, scale).unwrap_or_else(|| {
        eprintln!("unknown tensor {key:?}; try r1..r15, s1..s15 or a name like regM");
        usage_exit(USAGE);
    });
    // Use the mode with the fewest fibers, as Table I's M_F ≪ M intends.
    let mf = bt.stats.min_fiber_count() as f64;
    println!(
        "Tensor {} ({}), {} non-zeros, HiCOO B = {BLOCK_SIZE}, R = {RANK}\n",
        bt.profile.id, bt.profile.name, bt.stats.nnz
    );
    println!(
        "{}",
        table1(
            bt.stats.nnz as f64,
            mf,
            RANK as f64,
            bt.block_stats.num_blocks as f64,
            BLOCK_SIZE as f64
        )
    );
}
