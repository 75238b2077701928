//! Host-time proving benchmark for the BatchZK reproduction.
//!
//! ```text
//! perfbench --workload <spartan-batch|orion-batch|mixed-service>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's backend (timed as set-up), makes every proof's
//! instance from the seed, runs self-tests, then proves for `--seconds`
//! and verifies every proof. With `--trace 0` it prints the end-to-end
//! metrics; with `--trace 1` a stage-traced run's per-layer metrics and a
//! Chrome trace in `perfbench/results/`. The last stdout line is the
//! result object; the line before it records the host and build.

mod batch;
mod inputs;
mod layers;
mod service;
mod stats;
mod steal;
mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use batchzk::field::Fr;
use batchzk::gpu_sim::{DeviceProfile, Gpu};
use batchzk::zkp::r1cs::synthetic_r1cs;
use batchzk::zkp::{OrionBackend, PcsParams, ProverBackend, SpartanBackend};

use batch::BatchWorkload;
use inputs::{spartan_instance, stream};
use stats::{median, Metrics};
use steal::{Interval, Reading};

/// Host threads every workload runs on.
pub const THREADS: usize = 2;
/// Simulated thread budget per device, as in the `tables` experiments.
pub const MODULE_THREADS: u32 = 10_240;
/// The fixed circuit the sumcheck system proves.
pub const CIRCUIT_SEED: u64 = 42;
/// Timed blocks of set-up repetitions before the measured work, and after
/// each measured proving call; `setup_s` is the median over the blocks.
const SETUP_BLOCKS: usize = 5;
const SETUP_BLOCKS_BETWEEN: usize = 1;
/// A block repeats set-up until it has lasted this long. The process CPU
/// clock and the steal counter tick every 10 ms, so the steal correction
/// of shorter blocks would read mostly rounding.
const SETUP_BLOCK_S: f64 = 0.04;

const LOG_SPARTAN: usize = 14;
const SPARTAN_BATCH: usize = 32;
const LOG_ORION: usize = 14;
const ORION_BATCH: usize = 64;

const WORKLOADS: [&str; 3] = ["spartan-batch", "orion-batch", "mixed-service"];

pub fn pcs_params() -> PcsParams {
    PcsParams {
        num_col_tests: 32,
        ..PcsParams::default()
    }
}

/// The command line.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed self-tests and accounting checks.
    pub problems: Vec<String>,
    pub metrics: Metrics,
    /// Facts printed beside the result (sample counts, percentiles).
    pub notes: Vec<(&'static str, f64)>,
    pub chrome_trace: Option<String>,
}

impl Outcome {
    pub fn note(&mut self, key: &'static str, value: f64) {
        self.notes.push((key, value));
    }
}

fn parse_args() -> Result<Run, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut run = Run {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => run.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(run.seconds > 0.0 && run.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(run)
}

/// Runs the workload `work` on the product of `build`, timing blocks of
/// `build` calls, `SETUP_BLOCKS` before and `SETUP_BLOCKS_BETWEEN` after
/// every proving call (through the hook `work` receives). Within a block,
/// each call but the last also drops its product. `setup_s` is the median
/// over blocks of the mean time per call, with the share stolen by the
/// hypervisor over all blocks taken out (see [`steal`]). The host's speed
/// drifts over seconds, so blocks spread over the whole run measure
/// set-up at the same mix of host states as the proving metrics; the
/// median skips the first blocks, which fault in fresh memory.
fn with_setup<T>(
    run: &Run,
    build: impl Fn() -> T,
    work: impl FnOnce(T, &mut dyn FnMut()) -> Outcome,
) -> Outcome {
    let mut times = Vec::new();
    let mut total = Interval::default();
    let mut timed = || {
        let t = Reading::now();
        let clock = Instant::now();
        let mut calls = 1;
        let mut product = build();
        while clock.elapsed().as_secs_f64() < SETUP_BLOCK_S {
            product = build();
            calls += 1;
        }
        let interval = t.elapsed();
        times.push(interval.wall_s / calls as f64);
        total.add(&interval);
        product
    };
    for _ in 1..SETUP_BLOCKS {
        drop(timed());
    }
    let product = timed();
    let mut out = work(product, &mut || {
        for _ in 0..SETUP_BLOCKS_BETWEEN {
            drop(timed());
        }
    });
    if !run.trace {
        out.metrics
            .add("setup_s", median(&times) * total.run_share(), "s");
    }
    out
}

fn run_workload(run: &Run) -> Outcome {
    batchzk_par::with_threads(THREADS, || match run.workload.as_str() {
        "spartan-batch" => with_setup(
            run,
            || {
                drop(Gpu::new(DeviceProfile::a100()));
                let (r1cs, _, _) = synthetic_r1cs::<Fr>(1 << LOG_SPARTAN, CIRCUIT_SEED);
                SpartanBackend::new(Arc::new(r1cs), pcs_params())
            },
            |backend, between| {
                BatchWorkload {
                    backend,
                    batch: SPARTAN_BATCH,
                    stream: stream::SPARTAN,
                    instance: |b: &SpartanBackend<Fr>, seed| spartan_instance(b.r1cs(), seed),
                    statement: |(inputs, _)| inputs.clone(),
                }
                .run(run, between)
            },
        ),
        "orion-batch" => with_setup(
            run,
            || {
                drop(Gpu::new(DeviceProfile::a100()));
                OrionBackend::<Fr>::new(LOG_ORION, pcs_params())
            },
            |backend, between| {
                BatchWorkload {
                    backend,
                    batch: ORION_BATCH,
                    stream: stream::ORION,
                    instance: |b: &OrionBackend<Fr>, seed| Some(b.instance(seed)),
                    statement: |(_, point)| point.clone(),
                }
                .run(run, between)
            },
        ),
        _ => {
            let probe = service::probe_instances(run.seed);
            with_setup(
                run,
                || service::setup(probe.clone()),
                |svc, between| match svc {
                    Ok(svc) => svc.run(run, between),
                    Err(e) => Outcome {
                        problems: vec![format!("set-up failed: {e}")],
                        ..Outcome::default()
                    },
                },
            )
        }
    })
}

/// Verifies every proof on the benchmark's host threads and times each
/// call: per proof, whether it verified (a panic counts as not) and its
/// host ms; and the wall, CPU and stolen time of the whole set, from which
/// callers take the stolen share out of the pooled times (one set is too
/// short for the steal counter's 10-ms ticks). The host's cores drift in
/// speed independently, so calls on both threads at once sample them as
/// the proving calls do.
pub fn verify_all<P: ProverBackend>(
    prover: &P,
    proofs: &mut [(P::Statement, P::Proof)],
) -> (Vec<(bool, f64)>, Interval) {
    let start = Reading::now();
    let timed = batchzk_par::par_map_mut_with(THREADS, proofs, |_, (statement, proof)| {
        let t = Instant::now();
        let ok = catch_unwind(AssertUnwindSafe(|| prover.verify(statement, proof)));
        (matches!(ok, Ok(true)), t.elapsed().as_secs_f64() * 1e3)
    });
    (timed, start.elapsed())
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The git revision of the working directory, if it is a git checkout.
fn git_revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Host and build facts recorded next to every result.
fn environment(run: &Run) -> String {
    let compiled: Vec<&str> = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("bmi2", cfg!(target_feature = "bmi2")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("sha", cfg!(target_feature = "sha")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    #[cfg(target_arch = "x86_64")]
    let detected: Vec<&str> = [
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ("sha", std::arch::is_x86_feature_detected!("sha")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    #[cfg(not(target_arch = "x86_64"))]
    let detected: Vec<&str> = Vec::new();
    let quote = |v: &[&str]| {
        v.iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{{\"env\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_cores\": {}, \"host_threads\": {THREADS}, \"target_features\": [{}], \
         \"cpu_features\": [{}], \"profile\": \"{}\", \"git_revision\": \"{}\"}}}}",
        run.workload,
        run.seed,
        run.seconds,
        run.trace,
        batchzk_par::host_cores(),
        quote(&compiled),
        quote(&detected),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_revision(),
    )
}

fn write_trace(run: &Run, json: &str) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("trace-{}-seed{}.json", run.workload, run.seed));
    std::fs::write(&path, json).map_err(|e| e.to_string())?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", environment(&run));
    let mut outcome = run_workload(&run);
    if let Some(json) = outcome.chrome_trace.take() {
        match write_trace(&run, &json) {
            Ok(path) => eprintln!("perfbench: chrome trace written to {path}"),
            Err(e) => outcome
                .problems
                .push(format!("writing the chrome trace: {e}")),
        }
    }
    for p in &outcome.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:?}"))
        .collect();
    println!("{{\"notes\": {{{}}}}}", notes.join(", "));
    // A run that attempted no proof (set-up failed) counts as one failure.
    let (attempted, failed) = match outcome.attempted {
        0 => (1, 1),
        n => (n, outcome.failed),
    };
    let correct = outcome.problems.is_empty() && failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        outcome.metrics.to_json()
    );
    ExitCode::SUCCESS
}
