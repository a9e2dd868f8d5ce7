//! Per-layer measurements shared by the workloads: benchmark-owned calls
//! into single layers, and the admission layer read from collector
//! snapshots.
//!
//! Benchmark-owned timings run on work the traced traffic did: on the
//! binaries it deployed, or, for work a workload may not do at all, only
//! when the collector counted such work. Otherwise they report 0, so a 0
//! is always a measured absence of work.

use crate::report::{mean, ms, quantile, Exported, Outcome};
use deflection_core::consumer::incremental::{verify_incremental, IncrementalCache};
use deflection_core::consumer::{load, verify_with_layout};
use deflection_core::policy::PolicySet;
use deflection_core::pool::EnclavePool;
use deflection_core::runtime::seal_record;
use deflection_sgx_sim::layout::EnclaveLayout;
use deflection_sgx_sim::mem::Memory;
use std::hint::black_box;
use std::time::Instant;

/// Benchmark-owned cache-hit replays timed for `pool.replay_ms`.
const REPLAYS: usize = 20;
/// `seal_record` calls timed for `crypto.seal_us_per_record`.
const SEALS: usize = 4000;

/// Benchmark-owned calls into the loader and verifier on one binary.
pub struct Standalone {
    pub load_ms: f64,
    pub verify_ms: f64,
    pub decoded_insts: usize,
    pub instances: usize,
}

/// The code window of `binary` as the loader lays it out, with its entry
/// offset and indirect-branch targets.
fn code_window(layout: &EnclaveLayout, binary: &[u8]) -> (Vec<u8>, usize, Vec<usize>, f64) {
    let mut mem = Memory::new(layout.clone());
    let t0 = Instant::now();
    let p = load(binary, &mut mem).expect("produced binaries load");
    let load_ms = ms(t0.elapsed());
    let code = mem.peek_bytes(layout.code.start, p.code_len).expect("code window").to_vec();
    (code, (p.entry_va - layout.code.start) as usize, p.ibt_offsets, load_ms)
}

pub fn standalone(layout: &EnclaveLayout, policy: &PolicySet, binary: &[u8]) -> Standalone {
    let (code, entry, ibt, load_ms) = code_window(layout, binary);
    let t0 = Instant::now();
    let v =
        verify_with_layout(&code, entry, &ibt, policy, layout).expect("produced binaries verify");
    Standalone {
        load_ms,
        verify_ms: ms(t0.elapsed()),
        decoded_insts: v.insts.len(),
        instances: v.instances.len(),
    }
}

/// Time of a benchmark-owned incremental verify of `binary` against a memo
/// warmed on `previous`, the state the pool's own memo is in.
pub fn incremental_ms(
    layout: &EnclaveLayout,
    policy: &PolicySet,
    previous: &[u8],
    binary: &[u8],
) -> f64 {
    let (pc, pe, pi, _) = code_window(layout, previous);
    let (code, entry, ibt, _) = code_window(layout, binary);
    let mut memo = IncrementalCache::new();
    verify_incremental(&pc, pe, &pi, policy, layout, &mut memo).expect("previous verifies");
    let t0 = Instant::now();
    verify_incremental(&code, entry, &ibt, policy, layout, &mut memo).expect("patch verifies");
    ms(t0.elapsed())
}

/// Median time of a cache-hit `install_all`, cycling through `binaries`
/// (all in the pool's prepared cache) so every call replays another image.
pub fn replay_ms(pool: &mut EnclavePool, binaries: &[&[u8]]) -> f64 {
    let times: Vec<f64> = (0..REPLAYS)
        .map(|i| {
            let b = binaries[i % binaries.len()];
            let t0 = Instant::now();
            pool.install_all(b).expect("cached image replays");
            ms(t0.elapsed())
        })
        .collect();
    quantile(&times, 0.5)
}

/// Mean cost of sealing one P0 record at the manifest's record length.
pub fn seal_us_per_record(record_len: usize) -> f64 {
    let key: [u8; 32] = std::array::from_fn(|i| i as u8 ^ 0x5A);
    let payload: Vec<u8> = (0..record_len).map(|i| (i * 7) as u8).collect();
    let t0 = Instant::now();
    for i in 0..SEALS {
        black_box(seal_record(black_box(&key), 0, i as u64, black_box(&payload), record_len));
    }
    t0.elapsed().as_secs_f64() * 1e6 / SEALS as f64
}

/// The pool's cache-hit replays per admission batch in `counted`.
pub fn replays_per_batch(counted: &Exported) -> f64 {
    crate::report::ratio(
        counted.pool_event("install_cache_hit"),
        counted.hist_count("deflection_admission_batch_size", ""),
    )
}

/// The admission layer: waits and batch sizes from the open-loop
/// snapshot, sheds from every traced phase, and the distinct tenants of
/// each batch the benchmark saw the dispatcher report.
pub fn push_admission(out: &mut Outcome, open: &Exported, all: &Exported, groups: &[f64]) {
    let wait = "deflection_admission_wait_ns";
    out.push("admission.queue_wait_p50_ms", open.hist_quantile(wait, "", 0.5) / 1e6, "ms");
    out.push("admission.queue_wait_p99_ms", open.hist_quantile(wait, "", 0.99) / 1e6, "ms");
    out.push(
        "admission.batch_size_mean",
        open.hist_mean("deflection_admission_batch_size", ""),
        "requests",
    );
    out.push("admission.tenant_groups_per_batch", mean(groups), "tenants");
    let shed: f64 = ["shed_queue_full", "shed_tenant_in_flight", "shed_lifetime_budget"]
        .iter()
        .map(|e| all.counter("deflection_admission_events_total", &format!("event=\"{e}\"")))
        .sum();
    out.push("admission.shed", shed, "count");
}
