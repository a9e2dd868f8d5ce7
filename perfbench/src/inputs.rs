//! Seeded inputs and their native oracles.
//!
//! Everything the program under test receives is generated here from the
//! workload seed, together with what the verdict must be. The expected
//! exit values come from the workloads' native Rust references, never from
//! the enclave, so a wrong verdict cannot agree with itself.

use deflection_core::runtime::{EcallError, RunReport};
use deflection_sgx_sim::vm::RunExit;
use deflection_workloads::nbench::{self, read_ints};
use deflection_workloads::{credit, encode_ints, genome, server};

/// SplitMix64: a small, fully specified generator, so a seed means the same
/// inputs on every host and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A positive 31-bit seed for a DCL program's own LCG.
    pub fn inner_seed(&mut self) -> i64 {
        self.range(1, 0x7FFF_FFFF) as i64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            v.swap(i, j);
        }
    }
}

/// What a verdict must be: the native reference's exit value and the
/// number of sealed P0 records the request produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub exit: u64,
    pub records: usize,
}

/// Sealed length of one P0 record: a 4-byte length prefix and the payload
/// padded to the manifest's record length, then a 16-byte Poly1305 tag.
pub fn sealed_record_len(record_len: usize) -> usize {
    4 + record_len + 16
}

/// The correctness oracle for one verdict: the run halted with the
/// reference's exit value, wrote nothing outside the enclave, and sealed
/// exactly the expected number of records at the fixed record length.
pub fn verdict_ok(
    verdict: &Result<RunReport, EcallError>,
    expected: Expected,
    record_len: usize,
) -> bool {
    let Ok(r) = verdict else { return false };
    r.exit == RunExit::Halted { exit: expected.exit }
        && r.untrusted_writes == 0
        && r.records.len() == expected.records
        && r.records.iter().all(|c| c.len() == sealed_record_len(record_len))
}

/// The stateless serving tenants. kv is absent: its exit value depends on
/// which worker served it and when that worker last got a fresh image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tenant {
    Https,
    Credit,
    Seqgen,
    NumericSort,
    Idea,
}

impl Tenant {
    pub const MIX: [Tenant; 5] =
        [Tenant::Https, Tenant::Credit, Tenant::Seqgen, Tenant::NumericSort, Tenant::Idea];

    pub fn name(self) -> &'static str {
        match self {
            Tenant::Https => "https",
            Tenant::Credit => "credit",
            Tenant::Seqgen => "seqgen",
            Tenant::NumericSort => "numeric_sort",
            Tenant::Idea => "idea",
        }
    }

    pub fn source(self) -> String {
        match self {
            Tenant::Https => server::source(),
            Tenant::Credit => credit::source(),
            Tenant::Seqgen => genome::seqgen_source(),
            Tenant::NumericSort => nbench::numeric_sort::source(),
            Tenant::Idea => nbench::idea::source(),
        }
    }

    /// One request at size quantile `u` (in `[0, 1)`), with its expected
    /// verdict; `rng` draws everything else. Sizes are chosen so each
    /// request costs on the order of a millisecond of VM time.
    pub fn request(self, u: f64, rng: &mut Rng) -> (Vec<u8>, Expected) {
        let pick = |lo: u64, hi: u64| lo + ((hi - lo + 1) as f64 * u) as u64;
        match self {
            Tenant::Https => {
                // Log-uniform response size over 256 B .. 16 KiB.
                let size = (256.0 * 64f64.powf(u)).round() as u64;
                https_request(rng, size)
            }
            Tenant::Credit => {
                let input = encode_ints(&[pick(8, 24) as i64, pick(2, 6) as i64, rng.inner_seed()]);
                let exit = credit::reference(&input);
                (input, Expected { exit, records: 0 })
            }
            Tenant::Seqgen => {
                let input = encode_ints(&[pick(200, 600) as i64, rng.inner_seed()]);
                let (exit, records) = genome::seqgen_reference(&input);
                (input, Expected { exit, records: records.len() })
            }
            Tenant::NumericSort => {
                let input = encode_ints(&[pick(40, 120) as i64, rng.inner_seed()]);
                let exit = nbench::numeric_sort::reference(&input);
                (input, Expected { exit, records: 0 })
            }
            Tenant::Idea => {
                let input = encode_ints(&[pick(8, 28) as i64, rng.inner_seed()]);
                let exit = nbench::idea::reference(&input);
                (input, Expected { exit, records: 0 })
            }
        }
    }
}

/// An HTTPS request for a `size`-byte response. The handler emits one
/// 8-byte word per keystream round and seals a record every 25 words.
fn https_request(rng: &mut Rng, size: u64) -> (Vec<u8>, Expected) {
    let input = encode_ints(&[rng.range(1, 1 << 30) as i64, size as i64, rng.inner_seed()]);
    let words = size.div_ceil(8);
    let records = words.div_ceil(25) as usize;
    let exit = server::reference(&input);
    (input, Expected { exit, records })
}

/// One request of a serving workload.
#[derive(Debug, Clone)]
pub struct Request {
    /// Index into the workload's tenant list.
    pub tenant: usize,
    pub payload: Vec<u8>,
    pub expected: Expected,
}

/// The request pool a serving run cycles through: `n` requests, the same
/// number for every tenant and, per tenant, sizes at evenly spaced
/// quantiles, in a seeded order. Fixed proportions keep the cost of the
/// mix the same for every seed; the seed moves the order and every
/// request's content.
pub fn request_stream(tenants: &[Tenant], seed: u64, n: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x5E7F_1CE5);
    let per_tenant = n / tenants.len();
    let mut slots: Vec<(usize, f64)> = (0..per_tenant * tenants.len())
        .map(|i| (i % tenants.len(), ((i / tenants.len()) as f64 + 0.5) / per_tenant as f64))
        .collect();
    rng.shuffle(&mut slots);
    slots
        .into_iter()
        .map(|(tenant, u)| {
            let (payload, expected) = tenants[tenant].request(u, &mut rng);
            Request { tenant, payload, expected }
        })
        .collect()
}

/// The 14 stateless workload sources a code provider deploys: the ten
/// nBench kernels, the HTTPS handler, the credit scorer and both genome
/// services.
pub const FRESH_SOURCES: usize = 14;

/// Name, source, and a seeded small request with its expected verdict for
/// fresh-deploy source `idx` (`0..FRESH_SOURCES`).
pub fn fresh_source(idx: usize, rng: &mut Rng) -> (&'static str, String, Vec<u8>, Expected) {
    let kernels = nbench::all();
    if let Some(k) = kernels.get(idx) {
        // Scale-1 input with its seed word (always the last) re-drawn.
        let mut header = read_ints(&(k.input)(1));
        *header.last_mut().expect("kernel inputs end in a seed") = rng.inner_seed();
        let input = encode_ints(&header);
        let exit = (k.reference)(&input);
        return (k.name, (k.source)(), input, Expected { exit, records: 0 });
    }
    match idx - kernels.len() {
        0 => {
            let size = rng.range(256, 2048);
            let (input, expected) = https_request(rng, size);
            ("HTTPS", server::source(), input, expected)
        }
        1 => {
            let u = rng.unit();
            let (input, expected) = Tenant::Credit.request(u, rng);
            ("CREDIT", credit::source(), input, expected)
        }
        2 => {
            let input = encode_ints(&[rng.range(200, 800) as i64, rng.inner_seed()]);
            let (exit, records) = genome::seqgen_reference(&input);
            ("SEQGEN", genome::seqgen_source(), input, Expected { exit, records: records.len() })
        }
        3 => {
            let len = rng.range(12, 20) as i64;
            let input = encode_ints(&[len, len, rng.inner_seed()]);
            let exit = genome::nw_reference(&input);
            ("NW", genome::nw_source(), input, Expected { exit, records: 0 })
        }
        _ => unreachable!("fresh source index out of range"),
    }
}

/// Leaves of the star-shaped patch family (as in `ablation_incremental`).
pub const LEAVES: usize = 8;

/// The star program: `main` calls eight loop-heavy store leaves, each
/// carrying its own constant, so a patch is a one-constant change to one
/// reachable function.
pub fn star_source(consts: &[u64; LEAVES]) -> String {
    let mut src = String::from("var data: [int; 64];\n");
    for (i, k) in consts.iter().enumerate() {
        src.push_str(&format!(
            "fn f{i}(x: int) -> int {{\n    var j: int = 0;\n    var s: int = 0;\n    \
             while (j < 16) {{\n        var l: int = 0;\n        \
             while (l < 4) {{ data[j + l] = x + l; s = s + data[j + l] + {k}; l = l + 1; }}\n        \
             data[j] = s; j = j + 1;\n    }}\n    return s;\n}}\n"
        ));
    }
    src.push_str("fn main() -> int {\n    var s: int = 0;\n");
    for i in 0..LEAVES {
        src.push_str(&format!("    s = s + f{i}({i});\n"));
    }
    src.push_str("    return s;\n}\n");
    src
}

/// Native mirror of [`star_source`], statement for statement.
pub fn star_reference(consts: &[u64; LEAVES]) -> u64 {
    let mut data = [0i64; 64];
    let mut total = 0i64;
    for (i, &k) in consts.iter().enumerate() {
        let x = i as i64;
        let mut s = 0i64;
        for j in 0..16 {
            for l in 0..4 {
                data[j + l] = x + l as i64;
                s = s.wrapping_add(data[j + l]).wrapping_add(k as i64);
            }
            data[j] = s;
        }
        total = total.wrapping_add(s);
    }
    total as u64
}

/// One deploy of the code-provider stream.
#[derive(Debug, Clone)]
pub struct Deploy {
    pub name: &'static str,
    pub source: String,
    /// Patch deploys go through the pool's incremental install.
    pub patch: bool,
    pub input: Vec<u8>,
    pub expected: Expected,
}

/// Fresh deploys per round (every source once, in a seeded order).
const ROUND_FRESH: usize = FRESH_SOURCES;
/// Patch deploys per round, at seeded positions. The share (4 in 18) is
/// a choice, not taken from measured code-provider traffic: neither the
/// paper nor this repository reports how often providers patch. A patch
/// deploy takes longer end to end than a fresh one (the star program is
/// larger), so a higher share raises the deploy latencies and lowers the
/// deploy rate.
const ROUND_PATCHES: usize = 4;
/// Deploys per round of the churn stream.
pub const ROUND: usize = ROUND_FRESH + ROUND_PATCHES;

/// The seeded deploy stream. Each round deploys every fresh source once,
/// salted so its hash is new, plus [`ROUND_PATCHES`] one-leaf patches of
/// the star family, in a seeded order. Fixed proportions keep the latency
/// mix the same for every seed; the seed moves the order, the salts, the
/// patched leaves and constants, and every request.
#[derive(Debug, Clone)]
pub struct DeployStream {
    rng: Rng,
    round: Vec<Option<usize>>,
    salt: u64,
    star: [u64; LEAVES],
}

impl DeployStream {
    /// `lane` separates independent streams of one seed (set-up prefill
    /// versus the measured stream), so their salts never collide.
    pub fn new(seed: u64, lane: u64) -> Self {
        let rng = Rng::new(seed ^ 0xDE71_0000 ^ (lane << 40));
        let star = std::array::from_fn(|i| i as u64 + 1);
        DeployStream { rng, round: Vec::new(), salt: lane << 32, star }
    }

    /// The star program every patch deploy derives from.
    pub fn base_star(&self) -> [u64; LEAVES] {
        self.star
    }

    /// Only fresh deploys, one of each source per round (set-up prefill).
    pub fn next_fresh(&mut self) -> Deploy {
        loop {
            let d = self.next_deploy();
            if !d.patch {
                return d;
            }
        }
    }

    pub fn next_deploy(&mut self) -> Deploy {
        if self.round.is_empty() {
            let mut r: Vec<Option<usize>> = (0..ROUND_FRESH).map(Some).collect();
            r.extend(std::iter::repeat_n(None, ROUND_PATCHES));
            self.rng.shuffle(&mut r);
            self.round = r;
        }
        self.salt += 1;
        match self.round.pop().expect("round refilled") {
            Some(idx) => {
                let (name, base, input, expected) = fresh_source(idx, &mut self.rng);
                let salt = self.salt;
                let source = format!("{base}\nfn salt_{salt}() -> int {{ return {salt}; }}\n");
                Deploy { name, source, patch: false, input, expected }
            }
            None => {
                let leaf = self.rng.range(0, LEAVES as u64 - 1) as usize;
                // A constant no earlier patch used: the salt counter makes
                // it unique, the seeded high bits make it vary by seed.
                self.star[leaf] = (self.rng.range(1, 1 << 20) << 20) | (self.salt & 0xF_FFFF);
                let expected = Expected { exit: star_reference(&self.star), records: 0 };
                Deploy {
                    name: "STAR PATCH",
                    source: star_source(&self.star),
                    patch: true,
                    input: Vec::new(),
                    expected,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_different_seed_different_inputs() {
        let a = request_stream(&Tenant::MIX, 7, 64);
        let b = request_stream(&Tenant::MIX, 7, 64);
        let c = request_stream(&Tenant::MIX, 8, 64);
        let key = |s: &[Request]| -> Vec<(usize, Vec<u8>)> {
            s.iter().map(|r| (r.tenant, r.payload.clone())).collect()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));

        let deploys = |seed| -> Vec<String> {
            let mut s = DeployStream::new(seed, 1);
            (0..2 * ROUND)
                .map(|_| s.next_deploy())
                .map(|d| format!("{}{:?}", d.source, d.input))
                .collect()
        };
        assert_eq!(deploys(7), deploys(7));
        assert_ne!(deploys(7), deploys(8));
    }

    #[test]
    fn every_round_deploys_each_source_once_and_fresh_hashes_never_repeat() {
        let mut s = DeployStream::new(3, 1);
        let mut sources = std::collections::HashSet::new();
        let mut names = std::collections::BTreeMap::new();
        for _ in 0..3 * ROUND {
            let d = s.next_deploy();
            assert!(sources.insert(d.source.clone()), "{} repeated a source", d.name);
            *names.entry(d.name).or_insert(0) += 1;
        }
        assert_eq!(names.len(), FRESH_SOURCES + 1);
        assert!(names
            .iter()
            .all(|(n, c)| *c == if *n == "STAR PATCH" { 3 * ROUND_PATCHES } else { 3 }));
    }

    #[test]
    fn oracle_rejects_a_wrong_exit_a_leak_and_a_short_record() {
        use deflection_sgx_sim::vm::ExecStats;
        let expected = Expected { exit: 42, records: 1 };
        let good = RunReport {
            exit: RunExit::Halted { exit: 42 },
            stats: ExecStats::default(),
            records: vec![vec![0; sealed_record_len(256)]],
            untrusted_writes: 0,
            blur_padding: 0,
        };
        assert!(verdict_ok(&Ok(good.clone()), expected, 256));
        let mut wrong = good.clone();
        wrong.exit = RunExit::Halted { exit: 43 };
        assert!(!verdict_ok(&Ok(wrong), expected, 256));
        let mut leak = good.clone();
        leak.untrusted_writes = 1;
        assert!(!verdict_ok(&Ok(leak), expected, 256));
        let mut short = good.clone();
        short.records[0].pop();
        assert!(!verdict_ok(&Ok(short), expected, 256));
        assert!(!verdict_ok(&Err(EcallError::NotInstalled), expected, 256));
    }

    #[test]
    fn star_reference_matches_its_closed_form() {
        let consts: [u64; LEAVES] = std::array::from_fn(|i| 3 * i as u64 + 5);
        let closed: u64 = (0..LEAVES as u64).map(|i| 64 * i + 96 + 64 * consts[i as usize]).sum();
        assert_eq!(star_reference(&consts), closed);
    }
}
