//! What the run ran on: the header every result file carries, and the
//! bandwidth calibration the kernel rows are set against.

use crate::report::quote;
use pasta::platform::{run_ert, StreamKernel};
use std::time::Instant;

/// Threads every phase uses: `min(nproc, 2)`, passed explicitly through
/// `Ctx::new` and `ServerConfig` (never through `PASTA_NUM_THREADS`).
pub fn threads() -> usize {
    nproc().min(2)
}

/// `std::thread::available_parallelism`, 1 if unknown.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size in bytes of the cache at `level` as sysfs reports it for cpu0.
pub fn cache_bytes(level: u32) -> Option<usize> {
    (0..8).find_map(|i| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        if read("level")?.trim().parse::<u32>().ok()? != level
            || read("type")?.trim() == "Instruction"
        {
            return None;
        }
        let size = read("size")?;
        let size = size.trim();
        let (digits, unit) =
            size.split_at(size.find(|c: char| !c.is_ascii_digit()).unwrap_or(size.len()));
        let scale = match unit {
            "K" => 1 << 10,
            "M" => 1 << 20,
            "G" => 1 << 30,
            _ => 1,
        };
        Some(digits.parse::<usize>().ok()? * scale)
    })
}

/// L2 size used to size the triad arrays; 4 MiB if sysfs does not say.
pub fn l2_bytes() -> usize {
    cache_bytes(2).unwrap_or(4 << 20)
}

/// The run header as a JSON object.
pub fn header(workload: &str, seed: u64, seconds: f64, scale: f64, traced: bool) -> String {
    let (l2, l3) = (l2_bytes(), cache_bytes(3));
    let triad = triad_array_bytes();
    let note = match l3 {
        Some(l3) if 3 * triad <= l3 => format!(
            "no array here exceeds the {} MiB last-level cache, so machine.stream_gbps is a cache-level \
             roof and no DRAM-bandwidth claim is made",
            l3 >> 20
        ),
        _ => "triad arrays are at least four times the L2".to_string(),
    };
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"scale\": {scale}, \
         \"traced\": {traced}, \"git_commit\": {}, \"rustc\": {}, \"nproc\": {}, \"threads\": {}, \
         \"simd\": {}, \"l2_bytes\": {l2}, \"l3_bytes\": {}, \"triad_array_bytes\": {triad}, \
         \"bandwidth_note\": {}}}",
        quote(workload),
        quote(&command_line("git", &["rev-parse", "HEAD"])),
        quote(&command_line("rustc", &["--version"])),
        nproc(),
        threads(),
        quote(pasta::kernels::simd_level().label()),
        l3.map_or("null".to_string(), |b| b.to_string()),
        quote(&note),
    )
}

/// Bytes per triad array: four times the L2, at least 16 MiB.
fn triad_array_bytes() -> usize {
    (4 * l2_bytes()).max(16 << 20)
}

/// The benchmark's own STREAM triad, `c = a + s·b`, on `threads` scoped
/// threads over arrays of [`triad_array_bytes`] each; GB/s, best of a few
/// passes (bandwidth is a capacity, so the best pass is the estimate).
pub fn stream_gbps(threads: usize) -> f64 {
    let n = triad_array_bytes() / 4;
    let (a, b) = (vec![1.0f32; n], vec![2.0f32; n]);
    let mut c = vec![0.0f32; n];
    let chunk = n.div_ceil(threads.max(1));
    let mut best = 0.0f64;
    for _ in 0..6 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for ((ca, cb), cc) in a.chunks(chunk).zip(b.chunks(chunk)).zip(c.chunks_mut(chunk)) {
                s.spawn(move || {
                    for ((x, y), z) in ca.iter().zip(cb).zip(cc.iter_mut()) {
                        *z = *x + 3.0 * *y;
                    }
                });
            }
        });
        best = best.max(12.0 * n as f64 / t0.elapsed().as_secs_f64() / 1e9);
    }
    std::hint::black_box(&c);
    best
}

/// `run_ert` as shipped (triad, 4 MiB to 64 MiB working sets); GB/s at the
/// DRAM end of the sweep.
pub fn ert_dram_gbps(threads: usize) -> f64 {
    run_ert(StreamKernel::Triad, threads, 1 << 22, 1 << 26).dram_bandwidth() / 1e9
}
