//! The `deploy_churn` workload: code-provider traffic through the real
//! `producer` → `EnclavePool` install → serve path, closed loop, one deploy
//! at a time. A deploy is timed from the source handed to the producer
//! until the new binary's first verdict is served and checked.

use crate::inputs::{star_source, verdict_ok, Deploy, DeployStream, Expected, ROUND};
use crate::layers::{
    incremental_ms, push_admission, replay_ms, replays_per_batch, seal_us_per_record, standalone,
    Standalone,
};
use crate::report::{
    cold_setups, mean, median, ms, peak_rss_mb, quantile, quiet_rate, quiet_time, ratio, traced,
    Exported, Outcome,
};
use deflection_core::policy::{Manifest, PolicySet};
use deflection_core::pool::{EnclavePool, DEFAULT_PREPARED_CAP};
use deflection_core::producer::produce_for_layout;
use deflection_core::runtime::{BootstrapEnclave, RunReport};
use deflection_sgx_sim::layout::{EnclaveLayout, MemConfig};
use std::time::{Duration, Instant};

use crate::serving::{FUEL, WORKERS};

/// Traced deploys whose binaries also go through benchmark-owned loader,
/// verifier and incremental-verifier calls (four rounds).
const LAYER_SAMPLE: usize = 4 * ROUND;
/// Cold set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Equal slices of an untraced run. Each end-to-end figure is the
/// quiet-side quartile of its per-slice values ([`quiet_time`],
/// [`quiet_rate`]). A slice of a 50-second run holds about 200 deploys,
/// more than ten of them beyond its p90.
const SLICES: usize = 10;

/// P1–P6 with guard elision: the producer runs its two-pass elision and
/// the in-enclave verifier re-proves every elided guard with absint.
fn manifest() -> Manifest {
    let mut m = Manifest::ccaas();
    m.policy = PolicySet::full().with_elision();
    m
}

struct Churn {
    pool: EnclavePool,
    layout: EnclaveLayout,
    manifest: Manifest,
    stream: DeployStream,
    /// The star binary the pool's incremental memo was last warmed on.
    last_star: Vec<u8>,
}

/// One deploy, timed by benchmark-owned spans around each layer call.
struct Timed {
    ok: bool,
    patch: bool,
    /// The deploy itself, its binary and its verdict, kept only for the
    /// deploys the traced run looks at again.
    kept: Option<(Deploy, Vec<u8>, RunReport)>,
    total: Duration,
    produce: Duration,
    install: Duration,
    serve: Duration,
}

impl Timed {
    fn binary(&self) -> Option<&[u8]> {
        self.kept.as_ref().map(|(_, b, _)| b.as_slice())
    }
}

fn deploy(c: &mut Churn, d: Deploy, keep: bool) -> Timed {
    let t0 = Instant::now();
    let object = produce_for_layout(&d.source, &c.manifest.policy, &c.layout)
        .expect("workload sources compile");
    let t1 = Instant::now();
    let binary = object.serialize();
    let t2 = Instant::now();
    let installed =
        if d.patch { c.pool.install_patched(&binary) } else { c.pool.install_all(&binary) };
    let t3 = Instant::now();
    let verdict = installed
        .and_then(|_| c.pool.serve_parallel(&[&d.input], FUEL))
        .map(|mut reports| reports.remove(0));
    let t4 = Instant::now();
    let ok = verdict_ok(&verdict, d.expected, c.manifest.output_record_len);
    let total = t0.elapsed();
    if !ok {
        eprintln!("perfbench: deploy of {} failed its check: {verdict:?}", d.name);
    }
    if d.patch {
        c.last_star.clone_from(&binary);
    }
    Timed {
        ok,
        patch: d.patch,
        kept: match verdict {
            Ok(report) if keep => Some((d, binary, report)),
            _ => None,
        },
        total,
        produce: t1 - t0,
        install: t3 - t2,
        serve: t4 - t3,
    }
}

/// Builds the pool, installs the base star through the incremental path
/// (warming its memo) and fills the prepared cache to its default cap with
/// fresh deploys, so every measured fresh deploy also evicts one image.
fn set_up(seed: u64) -> (Churn, u64) {
    let manifest = manifest();
    let layout = EnclaveLayout::new(MemConfig::small());
    let mut pool = EnclavePool::new(&layout, &manifest, WORKERS);
    pool.set_owner_session([3; 32]);
    let stream = DeployStream::new(seed, 1);
    let base = stream.base_star();
    let mut c = Churn { pool, layout, manifest, stream, last_star: Vec::new() };
    let star = Deploy {
        name: "STAR",
        source: star_source(&base),
        patch: true,
        input: Vec::new(),
        expected: Expected { exit: crate::inputs::star_reference(&base), records: 0 },
    };
    let mut wrong = u64::from(!deploy(&mut c, star, false).ok);
    let mut prefill = DeployStream::new(seed, 0);
    for _ in 0..DEFAULT_PREPARED_CAP {
        let d = prefill.next_fresh();
        wrong += u64::from(!deploy(&mut c, d, false).ok);
    }
    (c, wrong)
}

/// The set-up alone, as one cold start of `setup_s` runs it: true if every
/// set-up deploy served a correct verdict.
pub fn set_up_only(seed: u64) -> bool {
    set_up(seed).1 == 0
}

/// Deploys until `dur` has passed, keeping the first `keep` deploys whole.
fn run_phase(c: &mut Churn, dur: Duration, keep: usize) -> Vec<Timed> {
    let deadline = Instant::now() + dur;
    let mut done = Vec::new();
    while Instant::now() < deadline {
        let d = c.stream.next_deploy();
        let t = deploy(c, d, done.len() < keep);
        done.push(t);
    }
    done
}

fn latencies<'a>(ts: impl IntoIterator<Item = &'a Timed>) -> Vec<f64> {
    ts.into_iter().filter(|t| t.ok).map(|t| ms(t.total)).collect()
}

fn failed(ts: &[Timed]) -> u64 {
    ts.iter().filter(|t| !t.ok).count() as u64
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let t0 = Instant::now();
    let (mut c, wrong) = set_up(seed);
    let own_setup_s = t0.elapsed().as_secs_f64();
    let mut out = Outcome::default();
    if trace {
        traced_run(&mut c, seconds, &mut out);
        out.correct = wrong == 0 && out.failed == 0;
        return out;
    }
    let slice = Duration::from_secs_f64(seconds / SLICES as f64);
    let slices: Vec<Vec<Timed>> = (0..SLICES).map(|_| run_phase(&mut c, slice, 0)).collect();
    let peak_rss = peak_rss_mb();
    drop(c);
    let (setup_s, setups_ok) = cold_setups(SETUPS, "deploy_churn", seed);
    let (mut rate, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
    for ts in &slices {
        let lat = latencies(ts);
        let busy: f64 = ts.iter().map(|t| t.total.as_secs_f64()).sum();
        rate.push(ratio(lat.len() as f64, busy));
        p50.push(quantile(&lat, 0.5));
        p90.push(quantile(&lat, 0.9));
    }
    let ts: Vec<Timed> = slices.into_iter().flatten().collect();
    let lat = latencies(&ts);
    let (fresh, patch) =
        (latencies(ts.iter().filter(|t| !t.patch)), latencies(ts.iter().filter(|t| t.patch)));
    println!(
        "whole run: {} deploys ({} patches), p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms; \
         fresh p50 {:.3} ms, patch p50 {:.3} ms; this process's set-up {:.3} s",
        ts.len(),
        patch.len(),
        quantile(&lat, 0.5),
        quantile(&lat, 0.9),
        quantile(&lat, 0.99),
        median(&fresh),
        median(&patch),
        own_setup_s
    );
    out.push("setup_s", median(&setup_s), "s");
    out.push("throughput_rps", quiet_rate(&rate), "req/s");
    out.push("latency_p50_ms", quiet_time(&p50), "ms");
    out.push("closed_loop_p90_ms", quiet_time(&p90), "ms");
    out.push("peak_rss_mb", peak_rss, "MB");
    out.attempted = ts.len() as u64;
    out.failed = failed(&ts);
    out.correct = wrong == 0 && setups_ok && out.failed == 0;
    out
}

fn traced_run(c: &mut Churn, seconds: f64, out: &mut Outcome) {
    // Counting pass: the stream's first round on the freshly set-up pool.
    let mut memo_ratio = Vec::new();
    let (counted, count_snap) = traced(|| {
        (0..ROUND)
            .map(|_| {
                let d = c.stream.next_deploy();
                let patch = d.patch;
                let t = deploy(c, d, true);
                if patch {
                    let s = c.pool.incremental_stats();
                    let all = s.hits + s.misses + s.invalidated;
                    memo_ratio.push(ratio(s.hits as f64, all as f64));
                }
                t
            })
            .collect::<Vec<Timed>>()
    });
    let cx = Exported::of(&count_snap);
    let n = counted.len() as f64;
    let (layout, policy) = (&c.layout, &c.manifest.policy);
    let kept: Vec<&(Deploy, Vec<u8>, RunReport)> =
        counted.iter().filter_map(|t| t.kept.as_ref()).collect();
    let owned: Vec<Standalone> =
        kept.iter().map(|(_, b, _)| standalone(layout, policy, b)).collect();
    let reports: Vec<&RunReport> = kept.iter().map(|(_, _, r)| r).collect();

    let half = Duration::from_secs_f64(seconds / 2.0);
    let plain = run_phase(c, half, 0);
    let mut previous_star = c.last_star.clone();
    let (timed, snap) = traced(|| run_phase(c, half, LAYER_SAMPLE));
    let x = Exported::of(&snap);
    let all = Exported::merged(vec![&count_snap, &snap]);
    // Benchmark-owned calls into single layers, on the binaries the traced
    // phase deployed. They run afterwards so they cannot slow the deploys.
    let (layout, policy) = (&c.layout, &c.manifest.policy);
    let (mut load_ms, mut verify_ms, mut incr_ms) = (Vec::new(), Vec::new(), Vec::new());
    for t in &timed {
        let Some(binary) = t.binary() else { continue };
        let s = standalone(layout, policy, binary);
        load_ms.push(s.load_ms);
        verify_ms.push(s.verify_ms);
        if t.patch {
            incr_ms.push(incremental_ms(layout, policy, &previous_star, binary));
            previous_star = binary.to_vec();
        }
    }
    let (run_us, vm_wrong) = vm_run_us(c, &kept);
    let seal_us = if reports.iter().any(|r| !r.records.is_empty()) {
        seal_us_per_record(c.manifest.output_record_len)
    } else {
        0.0
    };
    let hits = all.pool_event("install_cache_hit");
    let replay = if hits > 0.0 {
        let latest = c.last_star.clone();
        replay_ms(&mut c.pool, &[&latest])
    } else {
        0.0
    };

    out.attempted = (counted.len() + plain.len() + timed.len() + kept.len()) as u64;
    out.failed = failed(&counted) + failed(&plain) + failed(&timed) + vm_wrong;

    let produce: Vec<f64> = timed.iter().map(|t| ms(t.produce)).collect();
    out.push("producer.produce_ms", median(&produce), "ms");
    out.push(
        "producer.analysis_ms",
        x.hist_mean("deflection_produce_ns", "phase=\"analysis\"") / 1e6,
        "ms",
    );
    out.push(
        "producer.binary_bytes",
        mean(&kept.iter().map(|(_, b, _)| b.len() as f64).collect::<Vec<_>>()),
        "bytes",
    );
    out.push(
        "producer.guards_elided",
        ratio(cx.counter("deflection_produce_events_total", "event=\"guard_elided\""), n),
        "count",
    );
    out.push("loader.load_ms", median(&load_ms), "ms");
    out.push("verifier.verify_ms", median(&verify_ms), "ms");
    out.push(
        "verifier.disasm_ms",
        x.hist_mean("deflection_verify_ns", "phase=\"disasm\"") / 1e6,
        "ms",
    );
    out.push(
        "verifier.checks_ms",
        x.hist_mean("deflection_verify_ns", "phase=\"checks\"") / 1e6,
        "ms",
    );
    out.push(
        "verifier.decoded_insts",
        mean(&owned.iter().map(|s| s.decoded_insts as f64).collect::<Vec<_>>()),
        "count",
    );
    out.push(
        "verifier.instances",
        mean(&owned.iter().map(|s| s.instances as f64).collect::<Vec<_>>()),
        "count",
    );
    out.push(
        "absint.fixpoint_iters",
        ratio(cx.hist_sum("deflection_analysis_fixpoint_iters", ""), n),
        "count",
    );
    out.push(
        "absint.widenings",
        ratio(cx.hist_sum("deflection_analysis_widenings", ""), n),
        "count",
    );
    out.push("incremental.memo_hit_ratio", mean(&memo_ratio), "ratio");
    out.push("incremental.verify_ms", median(&incr_ms), "ms");
    let fresh_install: Vec<f64> =
        timed.iter().filter(|t| !t.patch).map(|t| ms(t.install)).collect();
    out.push("pool.install_miss_ms", median(&fresh_install), "ms");
    out.push("pool.replay_ms", replay, "ms");
    out.push("pool.replays_per_batch", replays_per_batch(&cx), "count");
    let (chits, cmisses) =
        (cx.pool_event("install_cache_hit"), cx.pool_event("install_cache_miss"));
    out.push("pool.prepared_hit_ratio", ratio(chits, chits + cmisses), "ratio");
    out.push("pool.prepared_evictions", cx.pool_event("prepared_eviction"), "count");
    // Deploys never pass the admission frontend; its counters say so.
    push_admission(out, &x, &all, &[]);
    out.push("pool.serve_batch_ms", x.hist_mean("deflection_pool_serve_batch_ns", "") / 1e6, "ms");
    let r = reports.len() as f64;
    out.push(
        "vm.insts_per_req",
        ratio(reports.iter().map(|r| r.stats.instructions as f64).sum(), r),
        "insts",
    );
    out.push("vm.run_us_per_req", median(&run_us), "us");
    out.push(
        "vm.trace_side_exits_per_req",
        ratio(cx.counter("deflection_vm_trace_events_total", "event=\"side_exit\""), r),
        "count",
    );
    out.push(
        "vm.icache_fills",
        cx.counter("deflection_vm_icache_events_total", "event=\"fill\""),
        "count",
    );
    out.push(
        "runtime.records_per_req",
        ratio(reports.iter().map(|r| r.records.len() as f64).sum(), r),
        "count",
    );
    out.push(
        "runtime.sealed_bytes_per_req",
        ratio(
            reports.iter().map(|r| r.records.iter().map(Vec::len).sum::<usize>() as f64).sum(),
            r,
        ),
        "bytes",
    );
    out.push("crypto.seal_us_per_record", seal_us, "us");
    // Closed loop: the generator has no schedule to be late against.
    out.push("loadgen.late_p99_ms", 0.0, "ms");
    let (p_plain, p_traced) =
        (quantile(&latencies(&plain), 0.5), quantile(&latencies(&timed), 0.5));
    out.push("trace.overhead_frac", ratio(p_traced - p_plain, p_plain), "ratio");
    let unattributed: Vec<f64> =
        timed.iter().map(|t| ms(t.total) - ms(t.produce) - ms(t.install) - ms(t.serve)).collect();
    out.push("deploy.unattributed_ms", mean(&unattributed), "ms");
    println!(
        "traced: {} counted, {} untraced and {} traced deploys; p50 untraced {:.3} ms, traced {:.3} ms",
        counted.len(),
        plain.len(),
        timed.len(),
        p_plain,
        p_traced
    );
}

/// Benchmark-owned VM runs: each counted deploy's request on a standalone
/// enclave holding the same binary. Returns the run times in microseconds
/// and the number of wrong verdicts.
fn vm_run_us(c: &Churn, kept: &[&(Deploy, Vec<u8>, RunReport)]) -> (Vec<f64>, u64) {
    let mut wrong = 0;
    let mut times = Vec::new();
    for (d, binary, _) in kept {
        let mut enclave = BootstrapEnclave::new(c.layout.clone(), c.manifest.clone());
        enclave.set_owner_session([3; 32]);
        enclave.install_plain(binary).expect("deployed binaries verify");
        enclave.provide_input(&d.input).expect("installed");
        let t0 = Instant::now();
        let report = enclave.run(FUEL);
        times.push(t0.elapsed().as_secs_f64() * 1e6);
        wrong += u64::from(!verdict_ok(&report, d.expected, c.manifest.output_record_len));
    }
    (times, wrong)
}
