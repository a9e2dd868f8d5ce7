//! # deflection-bench
//!
//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (Section VI-B). Each Criterion bench target prints a
//! paper-style table built from deterministic instruction counts and
//! wall-clock measurements, then registers a few representative Criterion
//! measurements.
//!
//! Two measures are reported everywhere:
//!
//! * **instruction overhead** — executed VM instructions relative to the
//!   uninstrumented baseline; deterministic, noise-free, and the primary
//!   basis for comparing the *shape* against the paper's percentages;
//! * **wall time** — end-to-end time of the in-enclave run on this machine.
//!
//! The shielding-runtime comparison (Fig. 11) and the concurrency curves
//! (Fig. 10) additionally use the calibrated cost models in
//! [`runtime_models`] and the closed-loop simulator in [`queueing`] — see
//! DESIGN.md for why those are models rather than measurements.

#![forbid(unsafe_code)]

pub mod queueing;
pub mod runtime_models;
pub mod serving;

use deflection_core::policy::{Manifest, PolicySet};
use deflection_core::producer::{produce, produce_for_layout};
use deflection_core::runtime::BootstrapEnclave;
use deflection_sgx_sim::layout::{EnclaveLayout, MemConfig};
use deflection_sgx_sim::vm::{ExecMode, RunExit};
use std::time::{Duration, Instant};

/// Result of measuring one workload at one policy level.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Executed VM instructions.
    pub instructions: u64,
    /// Wall time of the run.
    pub wall: Duration,
    /// Loaded binary size in bytes.
    pub binary_len: usize,
}

/// Measures one run of `source` with `input` under `policy`.
///
/// # Panics
///
/// Panics if the workload does not halt cleanly — benchmark fixtures are
/// trusted.
#[must_use]
pub fn measure(source: &str, input: &[u8], policy: &PolicySet, config: &MemConfig) -> Sample {
    measure_mode(source, input, policy, config, false)
}

/// [`measure`] with an explicit decode mode: `reference = true` forces the
/// VM's decode-every-step path (the pre-icache semantics), `false` uses the
/// production default (superblock trace dispatch). Kept for callers that
/// only care about the cached/uncached split; the `ablation_icache` bench
/// uses [`measure_exec_mode`] to separate all three dispatch modes.
///
/// # Panics
///
/// Panics if the workload does not halt cleanly — benchmark fixtures are
/// trusted.
#[must_use]
pub fn measure_mode(
    source: &str,
    input: &[u8],
    policy: &PolicySet,
    config: &MemConfig,
    reference: bool,
) -> Sample {
    let mode = if reference { ExecMode::Reference } else { ExecMode::Traced };
    measure_exec_mode(source, input, policy, config, mode)
}

/// [`measure`] pinned to one of the VM's two dispatch modes: superblock
/// traces (the production default) or the decode-every-step reference
/// interpreter. The `ablation_icache` bench diffs both; everything else
/// measures the production configuration.
///
/// # Panics
///
/// Panics if the workload does not halt cleanly — benchmark fixtures are
/// trusted.
#[must_use]
pub fn measure_exec_mode(
    source: &str,
    input: &[u8],
    policy: &PolicySet,
    config: &MemConfig,
    mode: ExecMode,
) -> Sample {
    let mut manifest = Manifest::ccaas();
    manifest.policy = *policy;
    let layout = EnclaveLayout::new(*config);
    let obj = if policy.elide_guards {
        produce_for_layout(source, policy, &layout)
    } else {
        produce(source, policy)
    };
    let binary = obj.expect("bench source compiles").serialize();
    let mut enclave = BootstrapEnclave::new(layout, manifest);
    enclave.set_owner_session([0xBE; 32]);
    enclave.install_plain(&binary).expect("bench binary verifies");
    enclave.set_exec_mode(mode);
    if !input.is_empty() {
        enclave.provide_input(input).expect("installed");
    }
    let start = Instant::now();
    let report = enclave.run(u64::MAX / 2).expect("installed");
    let wall = start.elapsed();
    assert!(
        matches!(report.exit, RunExit::Halted { .. }),
        "bench workload must halt: {:?}",
        report.exit
    );
    Sample { instructions: report.stats.instructions, wall, binary_len: binary.len() }
}

/// Relative overhead in percent (`new` vs `base`).
#[must_use]
pub fn overhead_pct(base: u64, new: u64) -> f64 {
    (new as f64 - base as f64) / base as f64 * 100.0
}

/// Formats a percentage the way the paper's Table II does (`+5.18%`).
#[must_use]
pub fn fmt_pct(pct: f64) -> String {
    format!("{pct:+.2}%")
}

/// Measures a workload at the baseline and all four paper policy levels;
/// returns `(baseline, [p1, p1p2, p1p5, p1p6])`.
#[must_use]
pub fn sweep_levels(source: &str, input: &[u8], config: &MemConfig) -> (Sample, Vec<Sample>) {
    let baseline = measure(source, input, &PolicySet::none(), config);
    let levels =
        PolicySet::levels().iter().map(|(_, p)| measure(source, input, p, config)).collect();
    (baseline, levels)
}

/// Geometric mean of a set of (1 + overhead) ratios, returned as percent —
/// the aggregation the paper uses for its "20% on average" claim.
#[must_use]
pub fn geomean_overhead_pct(pcts: &[f64]) -> f64 {
    let log_sum: f64 = pcts.iter().map(|p| (1.0 + p / 100.0).ln()).sum();
    ((log_sum / pcts.len() as f64).exp() - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_math() {
        assert!((overhead_pct(100, 120) - 20.0).abs() < 1e-9);
        assert_eq!(fmt_pct(5.178), "+5.18%");
        assert_eq!(fmt_pct(-1.0), "-1.00%");
    }

    #[test]
    fn geomean_of_equal_values_is_identity() {
        assert!((geomean_overhead_pct(&[10.0, 10.0, 10.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn measure_and_sweep_smoke() {
        let src = "fn main() -> int { var i: int = 0; var s: int = 0;
                    while (i < 50) { s = s + i; i = i + 1; } return s; }";
        let (base, levels) = sweep_levels(src, b"", &MemConfig::small());
        assert!(base.instructions > 0);
        // Monotone instruction growth across levels.
        assert!(levels[0].instructions >= base.instructions);
        assert!(levels[3].instructions > levels[0].instructions);
    }
}
