//! Workload definitions and seeded input generation.
//!
//! A workload is one family of input tensors. Every run executes the same
//! four phases (`kernel_sweep`, `cold_pipeline`, `decomp`, `serve_mix`) on
//! its workload's inputs, so every end-to-end metric exists for every
//! workload and a change that helps one tensor family at another's cost
//! shows as a row that got better beside a row that got worse.
//!
//! The workload seed is xor-ed into every `TensorProfile.seed` and is the
//! `StreamSpec.seed`; the library receives only the generated inputs.

use pasta::core::{CooTensor, Coord, Shape};
use pasta::gen::{GenRequest, Method, ModeDist, OpMix, ReqKind, StreamSpec, TensorProfile};
use pasta::kernels::{EwOp, TsOp};
use pasta::serve::{Catalog, ExprSpec, ExprStep, MttkrpRoute, OpSpec, Request};

/// The paper's fixed HiCOO block size.
pub const BLOCK: u32 = 128;
/// The paper's dense-operand rank for TTM and MTTKRP.
pub const RANK: usize = 16;
/// Requests per submission window of the closed-loop client.
pub const WINDOW: usize = 16;
/// Tensor-popularity skew of the request stream.
pub const SKEW: f64 = 1.3;
/// Op mix `tew ts ttv ttm mttkrp cpd tucker expr`. Tucker jobs stay off:
/// their dense eigensolve is cubic in the unfolded mode length.
pub const MIX: [u32; 8] = [3, 3, 2, 1, 2, 1, 0, 1];
/// Dense-operand rank of served TTM / MTTKRP / expression requests and of
/// CPD jobs. Fixed, not drawn: a drawn rank moves a request's cost eightfold
/// and, with it, every serve metric from seed to seed.
pub const SERVE_RANK: usize = 8;
const CPD_JOB_RANK: usize = 4;
/// The library's generator is asked for this many times the stream length,
/// so that every op has enough draws to fill its cells (see [`requests`]).
const OVERDRAW: usize = 4;
/// Conversion-cache budget of the measured server: far above any
/// catalog's working set, so nothing evicts outside the churn variant.
pub const CACHE_BYTES: usize = 512 << 20;

/// One tensor recipe of a workload.
#[derive(Debug, Clone)]
pub struct Recipe {
    /// Mode lengths.
    pub dims: Vec<Coord>,
    /// Non-zero target before duplicates collapse.
    pub nnz: usize,
    /// `None` = Kronecker; `Some(d)` = power law with per-mode draws `d`.
    pub power_law: Option<Vec<ModeDist>>,
}

impl Recipe {
    fn profile(&self, seed: u64) -> TensorProfile {
        TensorProfile {
            id: "bench",
            name: "bench",
            dims: self.dims.clone(),
            target_nnz: self.nnz,
            method: match &self.power_law {
                None => Method::Kronecker,
                Some(dists) => Method::PowerLaw { exponent: 1.5, dists: dists.clone() },
            },
            seed,
            paper_dims: Vec::new(),
            paper_nnz: 0,
        }
    }

    /// Generates the tensor; `slot` separates the tensors of one workload.
    pub fn generate(&self, seed: u64, slot: u64, scale: f64) -> CooTensor<f32> {
        self.profile(seed ^ (0x5EED_0000 + slot))
            .generate_scaled(scale)
            .expect("benchmark recipes are valid generator inputs")
    }
}

/// Everything that distinguishes one workload from another.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// The tensor the kernel, pipeline and decomposition phases run on.
    pub main: Recipe,
    /// The served catalog, hottest slot first.
    pub catalog: Vec<Recipe>,
    /// Requests per pass of the stream.
    pub requests: usize,
    /// CP-ALS rank and sweeps per run.
    pub cpd: (usize, usize),
    /// Tucker: mode-length cap the tensor is folded to, rank, sweeps.
    pub tucker: (u32, usize, usize),
}

use ModeDist::{PowerLaw as P, Uniform as U};

fn kron(dims: Vec<Coord>, nnz: usize) -> Recipe {
    Recipe { dims, nnz, power_law: None }
}

fn plaw(dims: Vec<Coord>, nnz: usize, dists: Vec<ModeDist>) -> Recipe {
    Recipe { dims, nnz, power_law: Some(dists) }
}

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "reg3d",
            why: "balanced 3-D Kronecker tensor (regM-like) small enough for the two cores' L2s: the baseline every route should be fast on",
            main: kron(vec![1 << 15; 3], 200_000),
            catalog: vec![
                kron(vec![1 << 12; 3], 12_000),
                kron(vec![1 << 12; 3], 24_000),
                kron(vec![1 << 11; 3], 8_000),
                kron(vec![1 << 12; 3], 16_000),
            ],
            requests: 400,
            cpd: (16, 5),
            tucker: (48, 8, 3),
        },
        Workload {
            name: "irr3d",
            why: "power-law 3-D tensor with one short dense mode (irrM-like): skewed fibers, owner imbalance, poorly filled HiCOO blocks",
            main: plaw(vec![1 << 15, 1 << 15, 126], 400_000, vec![P, P, U]),
            catalog: vec![
                plaw(vec![1 << 12, 1 << 12, 76], 24_000, vec![P, P, U]),
                plaw(vec![1 << 12, 1 << 12, 76], 48_000, vec![P, P, U]),
                plaw(vec![1 << 11, 1 << 11, 76], 16_000, vec![P, P, U]),
                plaw(vec![1 << 12, 1 << 12, 126], 32_000, vec![P, P, U]),
            ],
            requests: 400,
            cpd: (16, 5),
            tucker: (48, 8, 3),
        },
        Workload {
            name: "reg4d",
            why: "4-D Kronecker tensor (regM4d-like): one more index stream per non-zero and longer contraction chains, where fusing tends to lose",
            main: kron(vec![1 << 11; 4], 200_000),
            catalog: vec![
                kron(vec![1 << 8; 4], 12_000),
                kron(vec![1 << 8; 4], 24_000),
                kron(vec![1 << 7; 4], 8_000),
                kron(vec![1 << 8; 4], 16_000),
            ],
            requests: 400,
            cpd: (16, 5),
            tucker: (24, 4, 2),
        },
        Workload {
            name: "large3d",
            why: "hypersparse 3-D tensor (regL-like), 2^18-long modes, index arrays and factors past the L2s: output-bound MTTKRP, cache-missing gathers, dense-side cost in CPD",
            main: kron(vec![1 << 18; 3], 400_000),
            catalog: vec![
                kron(vec![1 << 14; 3], 48_000),
                kron(vec![1 << 14; 3], 96_000),
                kron(vec![1 << 13; 3], 32_000),
                kron(vec![1 << 14; 3], 64_000),
            ],
            requests: 240,
            cpd: (8, 2),
            tucker: (48, 8, 3),
        },
    ]
}

/// SplitMix64: the benchmark's own entropy for shuffles.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The same entries in a seeded random order, with no recorded sort state:
/// what a file written by some other tool looks like to the reader.
pub fn shuffled(x: &CooTensor<f32>, seed: u64) -> CooTensor<f32> {
    let mut perm: Vec<usize> = (0..x.nnz()).collect();
    let mut state = seed ^ 0x5A17_F1E5;
    for i in (1..perm.len()).rev() {
        perm.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
    }
    let inds: Vec<Vec<Coord>> =
        x.inds().iter().map(|col| perm.iter().map(|&p| col[p]).collect()).collect();
    let vals: Vec<f32> = perm.iter().map(|&p| x.vals()[p]).collect();
    CooTensor::from_parts(x.shape().clone(), inds, vals)
        .expect("a permutation keeps the tensor valid")
}

/// Folds coordinates modulo `cap` per mode, summing collisions: every mode
/// length becomes at most `cap`, which keeps Tucker's per-mode dense
/// eigensolve (cubic in the mode length) from drowning the sparse chain.
pub fn fold_dims(x: &CooTensor<f32>, cap: u32) -> CooTensor<f32> {
    let dims: Vec<Coord> = x.shape().dims().iter().map(|&d| d.min(cap)).collect();
    let mut out = CooTensor::with_capacity(Shape::new(dims), x.nnz());
    let mut folded = vec![0 as Coord; x.order()];
    for e in 0..x.nnz() {
        for (m, f) in folded.iter_mut().enumerate() {
            *f = x.mode_inds(m)[e] % cap;
        }
        out.push(&folded, x.vals()[e]).expect("folded coordinates are in range");
    }
    out.dedup_sum();
    out
}

/// Order-sensitive FNV-1a over coordinates and value bits: equal for two
/// tensors iff they hold the same entries in the same order.
pub fn checksum(x: &CooTensor<f32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |w: u32| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for e in 0..x.nnz() {
        for m in 0..x.order() {
            eat(x.mode_inds(m)[e]);
        }
        eat(x.vals()[e].to_bits());
    }
    h
}

/// The served catalog of a workload at `scale`.
pub fn build_catalog(w: &Workload, seed: u64, scale: f64) -> Catalog {
    let mut catalog = Catalog::new();
    for (i, r) in w.catalog.iter().enumerate() {
        catalog.insert(i as u32, format!("{}-{i}", w.name), r.generate(seed, 1 + i as u64, scale));
    }
    catalog
}

/// The request stream header of a workload (the stream is a pure function
/// of it).
pub fn stream_spec(w: &Workload, seed: u64, count: usize) -> StreamSpec {
    StreamSpec {
        seed,
        profile: w.name.to_string(),
        scale: 1.0,
        tensors: w.catalog.len(),
        count,
        skew: SKEW,
        mix: OpMix { weights: MIX },
    }
}

/// Maps one stream entry onto a concrete service request against the
/// catalog (mode reduced by the tensor's order, ranks fixed).
pub fn to_request(g: &GenRequest, catalog: &Catalog) -> Request {
    let id = g.tensor as u32;
    let order = catalog.get(id).expect("stream indexes the catalog").tensor.order();
    let mode = g.mode % order;
    // Bounded away from zero so Div stays finite.
    let scalar = 0.5 + (g.seed % 8) as f32 * 0.5;
    let op = match g.kind {
        ReqKind::Tew => OpSpec::Tew { op: EwOp::ALL[(g.seed % 4) as usize], seed: g.seed },
        ReqKind::Ts => OpSpec::Ts { op: TsOp::ALL[(g.seed % 4) as usize], scalar },
        ReqKind::Ttv => OpSpec::Ttv { mode, seed: g.seed },
        ReqKind::Ttm => OpSpec::Ttm { mode, rank: SERVE_RANK, seed: g.seed },
        ReqKind::Mttkrp => OpSpec::Mttkrp {
            mode,
            rank: SERVE_RANK,
            seed: g.seed,
            route: if g.seed.is_multiple_of(2) {
                MttkrpRoute::Coo
            } else {
                MttkrpRoute::Hicoo(BLOCK)
            },
        },
        ReqKind::Cpd => OpSpec::Cpd { rank: CPD_JOB_RANK, sweeps: 1, seed: g.seed },
        ReqKind::Tucker => OpSpec::Tucker { rank: CPD_JOB_RANK, sweeps: 1, seed: g.seed },
        // A TTV→TTM→TS chain: contract the drawn mode, then multiply the
        // first remaining mode. Well-formed on any order >= 3 tensor.
        ReqKind::Expr => OpSpec::Expr {
            spec: ExprSpec {
                steps: [
                    Some(ExprStep::Ttv { mode }),
                    Some(ExprStep::Ttm { mode: 0, rank: SERVE_RANK }),
                    Some(ExprStep::Ts { op: TsOp::Mul, scalar }),
                    None,
                ],
                seed: g.seed,
            },
        },
    };
    Request { tensor: id, op }
}

/// The concrete request stream of a workload: `count` requests whose
/// make-up is fixed and whose content is seeded.
///
/// Each (op, tensor) cell gets the share of the stream that the mix and a
/// power-law popularity over the catalog (`(slot + 1)^-SKEW`) give it,
/// rounded by largest remainders, and the cells are interleaved as evenly as
/// their weights allow (smooth weighted round-robin). The content of a
/// request — operand seed and mode — is the next request of its op in the
/// library's seeded draw. A plain 400-request draw holds 31 +- 6 CPD jobs,
/// each worth twenty element-wise requests, and may put five of them in one
/// window: throughput and tail latency then follow the luck of the seed,
/// not the speed of the server.
pub fn requests(w: &Workload, seed: u64, count: usize, catalog: &Catalog) -> Vec<Request> {
    let kinds = ReqKind::ALL.len();
    let popularity: Vec<f64> = (0..w.catalog.len()).map(|t| ((t + 1) as f64).powf(-SKEW)).collect();
    let total: f64 = popularity.iter().sum::<f64>() * f64::from(MIX.iter().sum::<u32>());

    // Largest-remainder apportionment of `count` over the cells.
    let exact: Vec<f64> = (0..w.catalog.len() * kinds)
        .map(|c| count as f64 * popularity[c / kinds] * f64::from(MIX[c % kinds]) / total)
        .collect();
    let mut quota: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..exact.len()).collect();
    by_remainder.sort_by(|&a, &b| exact[b].fract().total_cmp(&exact[a].fract()).then(a.cmp(&b)));
    let short = count - quota.iter().sum::<usize>();
    for &c in by_remainder.iter().take(short) {
        quota[c] += 1;
    }

    let draw = stream_spec(w, seed, OVERDRAW * count).generate();
    let mut content: Vec<_> =
        ReqKind::ALL.iter().map(|k| draw.iter().filter(move |g| g.kind == *k)).collect();

    // Smooth weighted round-robin: the cell furthest behind its share goes next.
    let mut credit = vec![0i64; quota.len()];
    let mut taken = vec![0usize; quota.len()];
    (0..count)
        .map(|_| {
            for (c, q) in credit.iter_mut().zip(&quota) {
                *c += *q as i64;
            }
            let next = (0..quota.len())
                .filter(|&c| taken[c] < quota[c])
                .max_by_key(|&c| (credit[c], std::cmp::Reverse(c)))
                .expect("quotas sum to count");
            credit[next] -= count as i64;
            taken[next] += 1;
            let g = content[next % kinds].next().expect("the draw is OVERDRAW times the stream");
            to_request(&GenRequest { tensor: next / kinds, ..*g }, catalog)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_fixes_tensors_and_stream() {
        let w = &workloads()[1];
        let (a, b) = (w.main.generate(7, 0, 0.02), w.main.generate(7, 0, 0.02));
        assert_eq!(checksum(&a), checksum(&b));
        assert_ne!(checksum(&a), checksum(&w.main.generate(8, 0, 0.02)));
        assert_ne!(checksum(&a), checksum(&shuffled(&a, 7)));
        assert_eq!(checksum(&shuffled(&a, 7)), checksum(&shuffled(&a, 7)));

        let catalog = build_catalog(w, 7, 0.02);
        let s1 = requests(w, 7, 64, &catalog);
        assert_eq!(s1, requests(w, 7, 64, &catalog));
        assert_ne!(s1, requests(w, 8, 64, &catalog));
        assert!(s1.iter().all(|r| r.op.label() != "tucker"), "tucker weight is zero");
    }

    #[test]
    fn stream_make_up_is_fixed_and_even() {
        let w = &workloads()[0];
        let catalog = build_catalog(w, 1, 0.02);
        let count =
            |reqs: &[Request], label: &str| reqs.iter().filter(|r| r.op.label() == label).count();
        let (a, b) = (requests(w, 1, 400, &catalog), requests(w, 2, 400, &catalog));
        assert_eq!((a.len(), b.len()), (400, 400));
        for (label, weight) in
            ["tew", "ts", "ttv", "ttm", "mttkrp", "cpd", "tucker", "expr"].iter().zip(MIX)
        {
            let expected = 400.0 * f64::from(weight) / f64::from(MIX.iter().sum::<u32>());
            assert_eq!(count(&a, label), count(&b, label), "{label}");
            assert!(
                (count(&a, label) as f64 - expected).abs() <= 2.0,
                "{label}: mix says {expected}"
            );
        }
        // 31 CPD jobs over 25 windows, spread evenly: never three in one.
        for window in a.chunks(WINDOW) {
            assert!(count(window, "cpd") <= 2);
        }
        let hot = |reqs: &[Request]| reqs.iter().filter(|r| r.tensor == 0).count();
        assert_eq!(hot(&a), hot(&b));
        assert!(hot(&a) > 200, "slot 0 is the hottest: {}", hot(&a));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let x = workloads()[0].main.generate(3, 0, 0.02);
        let mut y = shuffled(&x, 3);
        assert!(y.sorted_by().is_none());
        y.sort();
        let mut z = x.clone();
        z.sort();
        assert_eq!(checksum(&y), checksum(&z));
    }

    #[test]
    fn folding_caps_modes_and_keeps_the_value_mass() {
        let x = workloads()[2].main.generate(5, 0, 0.02);
        let f = fold_dims(&x, 24);
        assert!(f.shape().dims().iter().all(|&d| d <= 24));
        let (a, b): (f64, f64) = (
            x.vals().iter().map(|&v| f64::from(v)).sum(),
            f.vals().iter().map(|&v| f64::from(v)).sum(),
        );
        assert!((a - b).abs() <= 1e-3 * a.abs());
    }

    #[test]
    fn workload_names_are_unique_and_tucker_ranks_fit() {
        let ws = workloads();
        for (i, a) in ws.iter().enumerate() {
            assert!(ws[i + 1..].iter().all(|b| a.name != b.name));
            assert!(a.why.len() <= 200 && !a.why.contains('\n'));
            assert!(a.tucker.1 <= a.tucker.0 as usize);
            assert!(a.main.dims.len() >= 3 && a.catalog.iter().all(|c| c.dims.len() >= 3));
        }
    }
}
