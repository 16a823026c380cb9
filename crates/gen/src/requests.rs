//! Seeded, replayable request streams for the serving layer (`.reqs`).
//!
//! A load test is only a benchmark if it can be re-run bit-for-bit. A
//! `.reqs` file is nothing but a [`StreamSpec`] header — seed, catalog
//! profile, op mix, popularity skew — and the stream itself is a pure
//! function of that header: [`StreamSpec::generate`] expands it through
//! SplitMix64 draws into concrete [`GenRequest`]s. Replaying a run means
//! parsing the header and generating again; no request bodies are ever
//! stored.
//!
//! Tensor popularity follows the same truncated power-law inverse CDF as
//! the FireHose-style [`PowerLawGen`](crate::PowerLawGen): a handful of
//! hot tensors take most of the traffic, matching the skewed reuse that
//! makes the server's conversion cache worth measuring.

use pasta_core::{Error, Result};

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

    /// The lowercase label used in `.reqs` mix lines.
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

    fn from_label(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.label() == s)
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
    /// dimension; expr chains are opted into per stream so legacy `.reqs`
    /// headers replay bit-identically).
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

/// The replayable header of a `.reqs` stream: everything
/// [`generate`](StreamSpec::generate) needs to reproduce the stream.
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
    /// Renders the `.reqs` header text. [`parse`](StreamSpec::parse) of
    /// the result reproduces `self` exactly (floats round-trip through
    /// Rust's shortest representation).
    pub fn render(&self) -> String {
        let mix = ReqKind::ALL
            .iter()
            .map(|&k| format!("{}:{}", k.label(), self.mix.weight(k)))
            .collect::<Vec<_>>()
            .join(" ");
        format!(
            "pasta-reqs v1\nseed {}\nprofile {}\nscale {:?}\ntensors {}\ncount {}\nskew {:?}\nmix {}\n",
            self.seed, self.profile, self.scale, self.tensors, self.count, self.skew, mix
        )
    }

    /// Parses a `.reqs` header.
    ///
    /// # Errors
    ///
    /// Returns an error for a missing/unknown magic line, unknown or
    /// duplicate keys, malformed values, or a spec that cannot generate
    /// (zero tensors, zero total mix weight).
    pub fn parse(text: &str) -> Result<Self> {
        let bad = |what: String| Error::OperandMismatch { what };
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        if lines.next().map(str::trim) != Some("pasta-reqs v1") {
            return Err(bad("missing `pasta-reqs v1` magic line".into()));
        }
        let mut spec = StreamSpec::default();
        let mut seen: Vec<&str> = Vec::new();
        for line in lines {
            let mut parts = line.trim().splitn(2, ' ');
            let key = parts.next().unwrap_or("");
            let val = parts.next().unwrap_or("").trim();
            if seen.contains(&key) {
                return Err(bad(format!("duplicate key `{key}`")));
            }
            match key {
                "seed" => spec.seed = val.parse().map_err(|_| bad(format!("bad seed `{val}`")))?,
                "profile" => spec.profile = val.to_string(),
                "scale" => {
                    spec.scale = val.parse().map_err(|_| bad(format!("bad scale `{val}`")))?;
                }
                "tensors" => {
                    spec.tensors = val.parse().map_err(|_| bad(format!("bad tensors `{val}`")))?;
                }
                "count" => {
                    spec.count = val.parse().map_err(|_| bad(format!("bad count `{val}`")))?;
                }
                "skew" => spec.skew = val.parse().map_err(|_| bad(format!("bad skew `{val}`")))?,
                "mix" => {
                    // Unlisted kinds get weight 0, so legacy seven-item
                    // mix lines (pre-expr) parse unchanged.
                    let mut weights = [0u32; 8];
                    for item in val.split_whitespace() {
                        let (label, w) = item
                            .split_once(':')
                            .ok_or_else(|| bad(format!("bad mix item `{item}`")))?;
                        let kind = ReqKind::from_label(label)
                            .ok_or_else(|| bad(format!("unknown op `{label}` in mix")))?;
                        let pos = ReqKind::ALL.iter().position(|k| *k == kind).unwrap();
                        weights[pos] =
                            w.parse().map_err(|_| bad(format!("bad weight `{item}`")))?;
                    }
                    spec.mix = OpMix { weights };
                }
                _ => return Err(bad(format!("unknown key `{key}`"))),
            }
            seen.push(key);
        }
        if spec.tensors == 0 {
            return Err(bad("tensors must be >= 1".into()));
        }
        if spec.mix.total() == 0 {
            return Err(bad("mix has zero total weight".into()));
        }
        Ok(spec)
    }

    /// Expands the header into the concrete request stream. Pure in the
    /// header: equal specs generate equal streams, on any host.
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
    fn render_parse_roundtrip_is_exact() {
        let spec = StreamSpec {
            seed: 987,
            profile: "r3".into(),
            scale: 0.037,
            tensors: 5,
            count: 64,
            skew: 1.0,
            mix: OpMix { weights: [1, 0, 4, 2, 3, 0, 1, 2] },
        };
        let text = spec.render();
        let back = StreamSpec::parse(&text).unwrap();
        assert_eq!(back, spec);
        // And the streams agree bit for bit.
        assert_eq!(back.generate(), spec.generate());
    }

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
    fn legacy_seven_item_mix_lines_still_parse() {
        let text = "pasta-reqs v1\nmix tew:1 ts:1 ttv:1 ttm:1 mttkrp:1 cpd:1 tucker:1\n";
        let spec = StreamSpec::parse(text).unwrap();
        assert_eq!(spec.mix.weight(ReqKind::Expr), 0, "expr defaults off");
        assert!(spec.generate().iter().all(|r| r.kind != ReqKind::Expr));
    }

    #[test]
    fn expr_weight_produces_expr_requests() {
        let mut weights = [0u32; 8];
        weights[7] = 3;
        let spec = StreamSpec { mix: OpMix { weights }, count: 20, ..StreamSpec::default() };
        assert!(spec.generate().iter().all(|r| r.kind == ReqKind::Expr));
        // And the header round-trips with the new label.
        let back = StreamSpec::parse(&spec.render()).unwrap();
        assert_eq!(back.mix.weight(ReqKind::Expr), 3);
    }

    #[test]
    fn parse_rejects_malformed_headers() {
        assert!(StreamSpec::parse("").is_err(), "no magic");
        assert!(StreamSpec::parse("pasta-reqs v2\n").is_err(), "wrong version");
        let base = StreamSpec::default().render();
        assert!(StreamSpec::parse(&format!("{base}seed 1\n")).is_err(), "duplicate key");
        assert!(StreamSpec::parse(&format!("{base}bogus 1\n")).is_err(), "unknown key");
        assert!(StreamSpec::parse("pasta-reqs v1\nseed x\n").is_err(), "bad value");
        assert!(StreamSpec::parse("pasta-reqs v1\ntensors 0\n").is_err(), "zero tensors");
        assert!(StreamSpec::parse("pasta-reqs v1\nmix tew:0 ts:0\n").is_err(), "zero-weight mix");
    }
}
