//! **Ablation — install-cache amortization** on the largest nBench
//! kernel (IDEA).
//!
//! An 8-worker [`EnclavePool`] amortizes verification: `install_all` runs
//! the pipeline exactly **once** per unique code hash and replays the
//! captured image into the other workers (concurrently), versus 8
//! independent pipeline runs for `install_all_independent`. A cache-hit
//! reinstall verifies zero times and restores the sparse image in place.

use criterion::{criterion_group, criterion_main, Criterion};
use deflection_core::policy::{Manifest, PolicySet};
use deflection_core::pool::EnclavePool;
use deflection_core::producer::produce_for_layout;
use deflection_sgx_sim::layout::{EnclaveLayout, MemConfig};
use deflection_workloads::nbench;
use std::time::{Duration, Instant};

const POOL_WORKERS: usize = 8;

fn print_table() {
    let layout = EnclaveLayout::new(MemConfig::small());
    let policy = PolicySet::full().with_elision();
    let kernel = nbench::all().into_iter().find(|k| k.name == "IDEA").expect("kernel exists");
    let source = (kernel.source)();
    let binary = produce_for_layout(&source, &policy, &layout).expect("compiles").serialize();

    let manifest = {
        let mut m = Manifest::ccaas();
        m.policy = policy;
        m
    };
    // Warm the allocator/page pools so both timed installs start from the
    // same steady state (the first pool construction is dominated by cold
    // memory-map setup, not by verification), then take best-of-3 over
    // fresh pools for each strategy.
    let mut warmup = EnclavePool::new(&layout, &manifest, POOL_WORKERS);
    warmup.install_all_independent(&binary).expect("verifies");
    drop(warmup);

    let mut t_cached = Duration::MAX;
    let mut t_hit = Duration::MAX;
    for _ in 0..3 {
        let mut cached = EnclavePool::new(&layout, &manifest, POOL_WORKERS);
        let start = Instant::now();
        cached.install_all(&binary).expect("verifies");
        t_cached = t_cached.min(start.elapsed());
        assert_eq!(
            cached.verification_count(),
            1,
            "install_all must verify exactly once per unique code hash"
        );
        // Reinstall of the same binary: pure replay over the installed
        // workers, still one verification.
        let start = Instant::now();
        cached.install_all(&binary).expect("replays");
        t_hit = t_hit.min(start.elapsed());
        assert_eq!(cached.verification_count(), 1, "cache hit must not re-verify");
    }

    let mut t_indep = Duration::MAX;
    for _ in 0..3 {
        let mut independent = EnclavePool::new(&layout, &manifest, POOL_WORKERS);
        let start = Instant::now();
        independent.install_all_independent(&binary).expect("verifies");
        t_indep = t_indep.min(start.elapsed());
        assert_eq!(independent.verification_count(), POOL_WORKERS);
    }

    println!("\n=== Install-cache amortization ({POOL_WORKERS}-worker pool, IDEA) ===\n");
    println!("{:<22} {:>14} {:>14}", "strategy", "verifications", "install time");
    println!("{:-<52}", "");
    println!("{:<22} {:>14} {:>12.1?}", "install_all (cached)", 1, t_cached);
    println!("{:<22} {:>14} {:>12.1?}", "install_all (hit)", 0, t_hit);
    println!("{:<22} {:>14} {:>12.1?}", "independent", POOL_WORKERS, t_indep);
    println!("{:-<52}", "");
    println!(
        "\nThe cached path verifies once on worker 0 and replays the captured\n\
         image into the remaining {} workers (measurement-checked, fail-closed);\n\
         see DESIGN.md §5c for the soundness argument.\n",
        POOL_WORKERS - 1
    );
}

fn bench(c: &mut Criterion) {
    print_table();

    let layout = EnclaveLayout::new(MemConfig::small());
    let policy = PolicySet::full().with_elision();
    let kernel = nbench::all().into_iter().find(|k| k.name == "IDEA").expect("kernel exists");
    let source = (kernel.source)();
    let binary = produce_for_layout(&source, &policy, &layout).expect("compiles").serialize();

    let manifest = {
        let mut m = Manifest::ccaas();
        m.policy = policy;
        m
    };
    c.bench_function("parallel_verify/pool/install_all_cached", {
        let binary = binary.clone();
        let manifest = manifest.clone();
        let layout = layout.clone();
        move |b| {
            b.iter(|| {
                let mut pool = EnclavePool::new(&layout, &manifest, POOL_WORKERS);
                pool.install_all(&binary).expect("verifies")
            })
        }
    });
    c.bench_function("parallel_verify/pool/install_all_independent", {
        let binary = binary.clone();
        let manifest = manifest.clone();
        let layout = layout.clone();
        move |b| {
            b.iter(|| {
                let mut pool = EnclavePool::new(&layout, &manifest, POOL_WORKERS);
                pool.install_all_independent(&binary).expect("verifies")
            })
        }
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
