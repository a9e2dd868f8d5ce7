//! **Ablation — pool resilience** (sealed install cache + work stealing).
//!
//! * Restarting a pool from a **sealed** prepared image
//!   (`EnclavePool::import_sealed`) installs with *zero* re-verifications,
//!   versus re-running the full verifying pipeline after a restart — the
//!   sealed path pays only the MAC check and the deterministic rebuild.
//! * The work-stealing scheduler (`serve_parallel`) is timed on a **skewed**
//!   batch (a few expensive requests among many cheap ones).

use criterion::{criterion_group, criterion_main, Criterion};
use deflection_core::policy::{Manifest, PolicySet};
use deflection_core::pool::EnclavePool;
use deflection_core::producer::{produce, produce_for_layout};
use deflection_sgx_sim::layout::{EnclaveLayout, MemConfig};
use deflection_workloads::nbench;
use std::time::{Duration, Instant};

const POOL_WORKERS: usize = 4;
const TRIALS: usize = 3;
const FUEL: u64 = 200_000_000;

/// Runtime proportional to the first input byte: byte 0 is ~free, byte
/// 200 spins 400k loop iterations — the skew knob for the serving batch.
const SKEW_SRC: &str = "
    fn main() -> int {
        var n: int = input_byte(0) * 2000;
        var i: int = 0;
        var s: int = 0;
        while (i < n) { s = s + i; i = i + 1; }
        return input_byte(0);
    }
";

fn manifest(policy: PolicySet) -> Manifest {
    let mut m = Manifest::ccaas();
    m.policy = policy;
    m
}

/// A skewed batch: every `POOL_WORKERS`-th request is expensive, and work
/// stealing spreads them across the pool.
fn skewed_batch(len: usize) -> Vec<Vec<u8>> {
    (0..len).map(|i| if i % POOL_WORKERS == 0 { vec![200] } else { vec![1] }).collect()
}

fn print_table() {
    let layout = EnclaveLayout::new(MemConfig::small());
    let policy = PolicySet::full().with_elision();
    let idea_manifest = manifest(policy);
    let kernel = nbench::all().into_iter().find(|k| k.name == "IDEA").expect("kernel exists");
    let source = (kernel.source)();
    let binary = produce_for_layout(&source, &policy, &layout).expect("compiles").serialize();

    let mut first = EnclavePool::new(&layout, &idea_manifest, POOL_WORKERS);
    first.install_all(&binary).expect("verifies");
    assert_eq!(first.verification_count(), 1);
    let blob = first.export_sealed().expect("active image");
    drop(first);

    let mut t_sealed = Duration::MAX;
    for _ in 0..TRIALS {
        let mut pool = EnclavePool::new(&layout, &idea_manifest, POOL_WORKERS);
        let start = Instant::now();
        pool.import_sealed(&blob).expect("sealed image imports");
        t_sealed = t_sealed.min(start.elapsed());
        assert_eq!(pool.verification_count(), 0, "sealed restart must never re-verify");
    }
    let mut t_reverify = Duration::MAX;
    for _ in 0..TRIALS {
        let mut pool = EnclavePool::new(&layout, &idea_manifest, POOL_WORKERS);
        let start = Instant::now();
        pool.install_all(&binary).expect("verifies");
        t_reverify = t_reverify.min(start.elapsed());
        assert_eq!(pool.verification_count(), 1);
    }

    println!("\n=== Ablation: pool restart ({POOL_WORKERS} workers, nBench IDEA) ===\n");
    println!("{:<26} {:>14} {:>14}", "restart strategy", "verifications", "install time");
    println!("{:-<56}", "");
    println!("{:<26} {:>14} {:>12.1?}", "import_sealed (cache)", 0, t_sealed);
    println!("{:<26} {:>14} {:>12.1?}", "install_all (re-verify)", 1, t_reverify);
    println!("{:-<56}", "");
    println!(
        "\nThe sealed path checks the MAC under the enclave sealing key and\n\
         re-derives the image with the discovery-only pipeline — no policy\n\
         checks run (DESIGN.md 5d).\n"
    );
}

fn bench(c: &mut Criterion) {
    print_table();

    let layout = EnclaveLayout::new(MemConfig::small());
    let policy = PolicySet::full().with_elision();
    let m = manifest(policy);
    let kernel = nbench::all().into_iter().find(|k| k.name == "IDEA").expect("kernel exists");
    let source = (kernel.source)();
    let binary = produce_for_layout(&source, &policy, &layout).expect("compiles").serialize();
    let mut first = EnclavePool::new(&layout, &m, POOL_WORKERS);
    first.install_all(&binary).expect("verifies");
    let blob = first.export_sealed().expect("active image");
    drop(first);

    c.bench_function("pool_resilience/restart/import_sealed", {
        let (layout, m, blob) = (layout.clone(), m.clone(), blob);
        move |b| {
            b.iter(|| {
                let mut pool = EnclavePool::new(&layout, &m, POOL_WORKERS);
                pool.import_sealed(&blob).expect("imports")
            })
        }
    });
    c.bench_function("pool_resilience/restart/reverify", {
        let (layout, m, binary) = (layout.clone(), m.clone(), binary);
        move |b| {
            b.iter(|| {
                let mut pool = EnclavePool::new(&layout, &m, POOL_WORKERS);
                pool.install_all(&binary).expect("verifies")
            })
        }
    });

    let skew_manifest = manifest(PolicySet::full());
    let skew_binary = produce(SKEW_SRC, &skew_manifest.policy).expect("compiles").serialize();
    let batch = skewed_batch(8);
    c.bench_function("pool_resilience/serve/work_stealing", {
        let (layout, m, bin, batch) = (layout.clone(), skew_manifest, skew_binary, batch);
        move |b| {
            let mut pool = EnclavePool::new(&layout, &m, POOL_WORKERS);
            pool.install_all(&bin).expect("verifies");
            b.iter(|| pool.serve_parallel(&batch, FUEL).expect("serves"))
        }
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
