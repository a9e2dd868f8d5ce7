//! End-to-end and per-layer benchmark of the DEFLECTION serving and
//! deploy paths.
//!
//! ```text
//! perfbench --workload <https_steady|tenant_mix|deploy_churn> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the real admission frontend, enclave pool, runtime and VM (and,
//! for `deploy_churn`, the producer and the in-enclave install path), with
//! every verdict checked against a native reference. The last line of
//! standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits nonzero on
//! any wrong verdict. See `README.md` beside this crate.
//!
//! `--setup-only 1` runs the workload's set-up alone and prints
//! `setup ready` once it served correct verdicts; the untraced run times
//! such cold starts for `setup_s`.

mod churn;
mod inputs;
mod layers;
mod report;
mod serving;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" | "--setup-only" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                };
                if flag == "--trace" {
                    trace = Some(on);
                } else {
                    setup_only = on;
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let offered = match args.workload.as_str() {
        "https_steady" => Some(serving::HTTPS_STEADY),
        "tenant_mix" => Some(serving::TENANT_MIX),
        "deploy_churn" => None,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        let ok = match offered {
            Some(w) => serving::set_up_only(w, args.seed),
            None => churn::set_up_only(args.seed),
        };
        if !ok {
            eprintln!("perfbench: a set-up verdict did not match its native reference");
            return ExitCode::FAILURE;
        }
        println!("{}", report::SETUP_READY);
        return ExitCode::SUCCESS;
    }
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    println!(
        "stamp: workload={} seed={} seconds={} trace={} nproc={} pool_workers={} offered_rps={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        serving::WORKERS,
        offered.map_or("closed-loop".to_string(), |w| w.offered_rps.to_string()),
    );
    let outcome = match offered {
        Some(w) => serving::run(w, args.seed, args.seconds, args.trace),
        None => churn::run(args.seed, args.seconds, args.trace),
    };
    for m in &outcome.metrics {
        println!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "failed_frac {:.6} ({} of {} attempted)",
        report::ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    );
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: a verdict or deploy did not match its native reference");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use crate::report::Outcome;
    use crate::{churn, serving};

    /// The work counters of a traced run: every metric counted in whole
    /// units of work, plus the two cache ratios built from such counts.
    fn counts(o: &Outcome) -> Vec<(&'static str, f64)> {
        o.metrics
            .iter()
            .filter(|m| {
                matches!(m.unit, "count" | "insts" | "bytes") || m.name.ends_with("hit_ratio")
            })
            .map(|m| (m.name, m.value))
            .collect()
    }

    /// One test for every run that executes the program: they all share the
    /// process-global telemetry collector, so they must not overlap.
    #[test]
    fn work_counts_repeat_exactly_for_a_seed() {
        let run = |name: &str, seed: u64| match name {
            "https_steady" => serving::run(serving::HTTPS_STEADY, seed, 1.5, true),
            "tenant_mix" => serving::run(serving::TENANT_MIX, seed, 1.5, true),
            _ => churn::run(seed, 1.5, true),
        };
        for name in ["https_steady", "tenant_mix", "deploy_churn"] {
            let (a, b) = (run(name, 11), run(name, 11));
            assert!(a.correct && b.correct, "{name}: a verdict failed its oracle");
            assert_eq!(counts(&a), counts(&b), "{name}: counts differ between equal seeds");
            assert!(counts(&a).len() >= 14, "{name}: counters missing");
        }
    }
}
