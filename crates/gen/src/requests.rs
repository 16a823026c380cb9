//! Seeded, replayable request streams for the serving layer.
//!
//! A load test is only a benchmark if it can be re-run bit-for-bit. A
//! stream is nothing but a [`StreamSpec`] — seed, catalog profile, op mix,
//! popularity skew — and the requests themselves are a pure function of
//! it: [`StreamSpec::generate`] expands it through SplitMix64 draws into
//! concrete [`GenRequest`]s. Replaying a run means generating again from
//! the same spec; no request bodies are ever stored.
//!
//! Tensor popularity follows the same truncated power-law inverse CDF as
//! the FireHose-style [`PowerLawGen`](crate::PowerLawGen): a handful of
//! hot tensors take most of the traffic, matching the skewed reuse that
//! makes the server's conversion cache worth measuring.

/// The request kinds a stream can mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqKind {
    /// Element-wise two-tensor op.
    Tew,
    /// Tensor-scalar op.
    Ts,
    /// Tensor-times-vector.
    Ttv,
    /// Tensor-times-matrix.
    Ttm,
    /// Matricized tensor times Khatri-Rao product.
    Mttkrp,
    /// CP-ALS decomposition job.
    Cpd,
    /// Tucker-HOOI decomposition job.
    Tucker,
    /// Composite expression-graph job (a lowered multi-step chain).
    Expr,
}

impl ReqKind {
    /// All kinds, in mix-line order.
    pub const ALL: [ReqKind; 8] = [
        ReqKind::Tew,
        ReqKind::Ts,
        ReqKind::Ttv,
        ReqKind::Ttm,
        ReqKind::Mttkrp,
        ReqKind::Cpd,
        ReqKind::Tucker,
        ReqKind::Expr,
    ];

    /// The lowercase op label.
    pub fn label(self) -> &'static str {
        match self {
            ReqKind::Tew => "tew",
            ReqKind::Ts => "ts",
            ReqKind::Ttv => "ttv",
            ReqKind::Ttm => "ttm",
            ReqKind::Mttkrp => "mttkrp",
            ReqKind::Cpd => "cpd",
            ReqKind::Tucker => "tucker",
            ReqKind::Expr => "expr",
        }
    }
}

/// Relative draw weights per request kind. A zero weight excludes the
/// kind from the stream entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Weights indexed like [`ReqKind::ALL`].
    pub weights: [u32; 8],
}

impl Default for OpMix {
    /// The default mix: streaming kernels dominate, decomposition
    /// jobs are rare, and Tucker and composite expression jobs are off
    /// (Tucker's dense per-mode eigensolve is cubic in the mode
    /// dimension; expr chains are opted into per stream).
    fn default() -> Self {
        Self { weights: [3, 3, 2, 1, 2, 1, 0, 0] }
    }
}

impl OpMix {
    /// The weight of one kind.
    pub fn weight(&self, kind: ReqKind) -> u32 {
        self.weights[ReqKind::ALL.iter().position(|k| *k == kind).unwrap()]
    }

    /// Sum of all weights.
    pub fn total(&self) -> u64 {
        self.weights.iter().map(|&w| u64::from(w)).sum()
    }
}

/// A replayable request stream: everything
/// [`generate`](StreamSpec::generate) needs to reproduce it.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// Master seed; every draw in the stream descends from it.
    pub seed: u64,
    /// Base catalog profile id (e.g. `"s1"`); the load harness resolves
    /// catalog slots from it.
    pub profile: String,
    /// Catalog scale factor passed to profile materialization.
    pub scale: f64,
    /// Number of catalog tensors the stream addresses.
    pub tensors: usize,
    /// Number of requests.
    pub count: usize,
    /// Tensor-popularity power-law exponent (1.0 = Zipf-like; larger is
    /// more skewed).
    pub skew: f64,
    /// Relative op weights.
    pub mix: OpMix,
}

impl Default for StreamSpec {
    fn default() -> Self {
        Self {
            seed: 42,
            profile: "s1".to_string(),
            scale: 0.02,
            tensors: 3,
            count: 120,
            skew: 1.3,
            mix: OpMix::default(),
        }
    }
}

/// One generated request, in catalog-agnostic form: the consumer maps
/// `tensor` to a catalog id and clamps `mode` by the tensor's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenRequest {
    /// Catalog slot index in `0..tensors`.
    pub tensor: usize,
    /// Which op.
    pub kind: ReqKind,
    /// Raw mode draw (consumer reduces modulo the tensor order).
    pub mode: usize,
    /// Rank draw in `1..=8` (TTM/MTTKRP/CPD/Tucker).
    pub rank: usize,
    /// Per-request operand seed.
    pub seed: u64,
}

/// SplitMix64, the stream's only entropy source.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Truncated power-law index in `0..n` from one uniform draw — the same
/// inverse CDF as [`PowerLawGen`](crate::PowerLawGen), driven by
/// SplitMix64 bits instead of an `StdRng`.
fn powerlaw_index(n: usize, skew: f64, draw: u64) -> usize {
    if n <= 1 {
        return 0;
    }
    let nf = n as f64;
    let u = (((draw >> 11) as f64) / (1u64 << 53) as f64).max(1e-300);
    let k = if (skew - 1.0).abs() < 1e-9 {
        nf.powf(u)
    } else {
        let a = 1.0 - skew;
        ((u * (nf.powf(a) - 1.0)) + 1.0).powf(1.0 / a)
    };
    // k lands in [1, n] with 1 the hottest value; shift to 0-based.
    ((k.floor() as usize).max(1) - 1).min(n - 1)
}

impl StreamSpec {
    /// Expands the spec into the concrete request stream. Pure in the
    /// spec: equal specs generate equal streams, on any host.
    pub fn generate(&self) -> Vec<GenRequest> {
        let total = self.mix.total().max(1);
        let mut state = self.seed ^ 0x005E_ED0F_5EED;
        (0..self.count)
            .map(|_| {
                let tensor = powerlaw_index(self.tensors, self.skew, splitmix(&mut state));
                let mut pick = splitmix(&mut state) % total;
                let kind = ReqKind::ALL
                    .into_iter()
                    .find(|&k| {
                        let w = u64::from(self.mix.weight(k));
                        if pick < w {
                            true
                        } else {
                            pick -= w;
                            false
                        }
                    })
                    .expect("total weight covers every draw");
                let mode = (splitmix(&mut state) % 4) as usize;
                let rank = 1 + (splitmix(&mut state) % 8) as usize;
                let seed = splitmix(&mut state);
                GenRequest { tensor, kind, mode, rank, seed }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let spec = StreamSpec::default();
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b);
        assert_eq!(a.len(), spec.count);
        let other = StreamSpec { seed: 43, ..spec };
        assert_ne!(a, other.generate());
    }

    #[test]
    fn mix_weights_gate_kinds() {
        // Only TTV has weight: every request is a TTV.
        let mut weights = [0u32; 8];
        weights[2] = 5;
        let spec = StreamSpec { mix: OpMix { weights }, count: 50, ..StreamSpec::default() };
        assert!(spec.generate().iter().all(|r| r.kind == ReqKind::Ttv));
        // Default mix has Tucker off.
        let dflt = StreamSpec { count: 200, ..StreamSpec::default() };
        assert!(dflt.generate().iter().all(|r| r.kind != ReqKind::Tucker));
    }

    #[test]
    fn popularity_is_skewed_toward_low_indices() {
        let spec = StreamSpec { tensors: 8, count: 400, skew: 1.5, ..StreamSpec::default() };
        let stream = spec.generate();
        assert!(stream.iter().all(|r| r.tensor < 8));
        let hot = stream.iter().filter(|r| r.tensor == 0).count();
        let cold = stream.iter().filter(|r| r.tensor == 7).count();
        assert!(hot > cold, "power-law popularity must favor tensor 0 ({hot} vs {cold})");
        assert!(stream.iter().all(|r| r.rank >= 1 && r.rank <= 8 && r.mode < 4));
    }

    #[test]
    fn expr_weight_produces_expr_requests() {
        let mut weights = [0u32; 8];
        weights[7] = 3;
        let spec = StreamSpec { mix: OpMix { weights }, count: 20, ..StreamSpec::default() };
        assert!(spec.generate().iter().all(|r| r.kind == ReqKind::Expr));
    }
}
