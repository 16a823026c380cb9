//! ERT-style bandwidth sweep of the host machine (the measured part of the
//! Figure 3 methodology).
//!
//! Usage: `ert [threads] [max_mb]`

use pasta_bench::{arg_or, usage_exit};
use pasta_par::default_threads;
use pasta_platform::{run_ert, StreamKernel};

const USAGE: &str = "ert [threads] [max_mb]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > 2 {
        usage_exit(USAGE);
    }
    let threads: usize = arg_or(args.first().map(String::as_str), default_threads(), USAGE);
    let max_mb: usize = arg_or(args.get(1).map(String::as_str), 256, USAGE);
    if threads == 0 || max_mb == 0 {
        usage_exit(USAGE);
    }
    println!("# Host ERT sweep — {threads} threads, up to {max_mb} MiB working set");
    for kernel in [StreamKernel::Copy, StreamKernel::Scale, StreamKernel::Add, StreamKernel::Triad]
    {
        let r = run_ert(kernel, threads, 1 << 16, max_mb << 20);
        println!("## {kernel:?}");
        println!("working_set_bytes,bandwidth_gbps");
        for p in &r.points {
            println!("{},{:.2}", p.working_set_bytes, p.bandwidth / 1e9);
        }
        println!(
            "summary: cache {:.1} GB/s, dram {:.1} GB/s\n",
            r.cache_bandwidth() / 1e9,
            r.dram_bandwidth() / 1e9
        );
    }
}
