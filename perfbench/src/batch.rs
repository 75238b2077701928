//! The batch workloads: one backend, one device, fresh seeded instances
//! per batch, proved through the same submit/step/harvest loop
//! `Pipeline::run` uses, with a host timestamp around every `step`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use batchzk::gpu_sim::{DeviceProfile, Gpu};
use batchzk::pipeline::{PipelineExecutor, RunStats};
use batchzk::zkp::batch::BackendProofs;
use batchzk::zkp::{prove_batch_with, ProverBackend};

use crate::inputs::{stream, sub_seed};
use crate::layers::{per_layer, TracedRun};
use crate::stats::{add_sim, median, quantile, tail_percentile, trimmed_mean};
use crate::steal::{Interval, Reading};
use crate::trace::{CallKind, Mode, Recorder, Traceable, Traced};
use crate::{verify_all, Outcome, Run, MODULE_THREADS, THREADS};

/// Proofs in the self-test batch (more than the pipeline depth, so fill,
/// steady state and drain all occur).
const SELF_TEST_BATCH: usize = 6;

/// A batch workload: a backend built in set-up, a batch size, and how
/// each proof's instance and expected statement are made.
pub struct BatchWorkload<B: ProverBackend> {
    pub backend: B,
    pub batch: usize,
    pub stream: u64,
    /// The instance for one seed; `None` if generation failed its check.
    pub instance: fn(&B, u64) -> Option<B::Instance>,
    /// The statement a proof of the instance must attest to.
    pub statement: fn(&B::Instance) -> B::Statement,
}

/// One proving call through the step loop.
pub struct StepRun<B: ProverBackend> {
    pub proofs: BackendProofs<B>,
    pub stats: RunStats,
    /// Host time of the whole call (stages, begin, steps, finish), less
    /// the share the hypervisor stole; all host times here are scaled
    /// alike.
    pub call_ms: f64,
    /// Per proof: host ms from the start of the step that admitted it to
    /// stage 0 to the end of the step it left the last stage in.
    pub latencies: Vec<f64>,
    pub steps: usize,
    /// Wall, CPU and stolen time of the call.
    pub interval: Interval,
}

/// Proves `instances` on a fresh A100 model exactly as `prove_batch_with`
/// does, but drives the executor itself so each step is timestamped.
/// With `trace` set, the steps and the call are recorded as spans.
pub fn prove_steps<B: ProverBackend>(
    backend: &B,
    instances: Vec<B::Instance>,
    rec: &Recorder,
    trace: bool,
) -> Result<StepRun<B>, String> {
    let mut gpu = Gpu::new(DeviceProfile::a100());
    rec.start_call();
    let reading = Reading::now();
    let call_start = rec.now();
    let stages = backend.stages(&gpu, MODULE_THREADS);
    let tasks: Vec<B::Task> = instances.into_iter().map(|i| backend.begin(i)).collect();
    let mut exec = PipelineExecutor::new(&mut gpu, stages, true);
    exec.set_host_threads(batchzk_par::current_threads());
    exec.set_queue_capacity(tasks.len().max(1));
    for task in tasks {
        if exec.submit(task).is_err() {
            return Err("the executor refused a submit".into());
        }
    }
    let mut admitted = VecDeque::new();
    let mut latencies = Vec::new();
    let mut steps = 0;
    loop {
        let (pending, done) = (exec.pending_len(), exec.completed_len());
        let start = rec.now();
        let progressed = exec.step().map_err(|e| e.to_string())?;
        let end = rec.now();
        if !progressed {
            break;
        }
        steps += 1;
        if trace {
            rec.push_call(CallKind::Step, start, end);
        }
        if exec.pending_len() < pending {
            admitted.push_back(start);
        }
        if exec.completed_len() > done {
            let entered = admitted
                .pop_front()
                .ok_or("a proof left before it entered")?;
            latencies.push(end - entered);
        }
    }
    let run = exec.harvest();
    let proofs = run.outputs.into_iter().map(|t| backend.finish(t)).collect();
    let call_end = rec.now();
    let interval = reading.elapsed();
    if trace {
        rec.push_call(CallKind::Prove, call_start, call_end);
    }
    let share = interval.run_share();
    Ok(StepRun {
        proofs,
        stats: run.stats,
        call_ms: (call_end - call_start) * share,
        latencies: latencies.into_iter().map(|ms| ms * share).collect(),
        steps,
        interval,
    })
}

/// What the measured batches add up to.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Per batch: verified proofs per host second of the proving call.
    rates: Vec<f64>,
    /// The same per wall second, steal included.
    wall_rates: Vec<f64>,
    /// Wall, CPU and stolen time of the proving calls.
    calls: Interval,
    latencies: Vec<f64>,
    /// Host ms of every `verify` call, and the time of the sets of calls.
    verify_ms: Vec<f64>,
    verify: Interval,
    /// Sim statistics and step count of the first batch; every later batch
    /// must match them.
    first: Option<(RunStats, usize)>,
    problems: Vec<String>,
}

impl<B> BatchWorkload<B>
where
    B: Traceable,
    B::Instance: Clone,
    B::Statement: PartialEq,
    B::Proof: PartialEq,
{
    fn instances(
        &self,
        seed: u64,
        stream: u64,
        first: usize,
        n: usize,
    ) -> Option<Vec<B::Instance>> {
        (first..first + n)
            .map(|i| (self.instance)(&self.backend, sub_seed(seed, stream, i as u64)))
            .collect()
    }

    /// Byte-identity and thread-count determinism: the step loop at the
    /// benchmark's thread count must give the same proofs and the same
    /// simulated statistics as `prove_batch_with` at one thread.
    fn self_test(&self, seed: u64) -> Vec<String> {
        let Some(inst) = self.instances(seed, stream::SELF_TEST, 0, SELF_TEST_BATCH) else {
            return vec!["self-test instance generation failed".into()];
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            let reference = batchzk_par::with_threads(1, || {
                prove_batch_with(
                    &mut Gpu::new(DeviceProfile::a100()),
                    &self.backend,
                    inst.clone(),
                    MODULE_THREADS,
                    true,
                )
            });
            let rec = Recorder::new(Mode::Latency);
            let stepped = batchzk_par::with_threads(THREADS, || {
                prove_steps(&self.backend, inst, &rec, false)
            });
            (reference, stepped)
        }));
        let mut problems = Vec::new();
        match result {
            Ok((Ok(reference), Ok(stepped))) => {
                if reference.proofs != stepped.proofs {
                    problems.push("step-loop proofs differ from prove_batch_with".into());
                }
                if reference.stats != stepped.stats {
                    problems.push("sim statistics differ between 1 and 2 host threads".into());
                }
                for (s, p) in &stepped.proofs {
                    if !self.backend.verify(s, p) {
                        problems.push("a self-test proof failed to verify".into());
                    }
                }
            }
            Ok((Err(e), _)) => problems.push(format!("self-test reference failed: {e}")),
            Ok((_, Err(e))) => problems.push(format!("self-test step loop failed: {e}")),
            Err(_) => problems.push("self-test panicked".into()),
        }
        problems
    }

    /// One measured batch: prove, check, verify every proof.
    fn measure<
        P: ProverBackend<Instance = B::Instance, Statement = B::Statement, Proof = B::Proof>,
    >(
        &self,
        prover: &P,
        inst: Vec<B::Instance>,
        rec: &Recorder,
        trace: bool,
        tally: &mut Tally,
    ) -> Option<(f64, u64)> {
        let expected: Vec<B::Statement> = inst.iter().map(self.statement).collect();
        let n = inst.len() as u64;
        tally.attempted += n;
        let run = match catch_unwind(AssertUnwindSafe(|| prove_steps(prover, inst, rec, trace))) {
            Ok(Ok(run)) => run,
            Ok(Err(e)) => {
                tally.failed += n;
                tally.problems.push(format!("proving call failed: {e}"));
                return None;
            }
            Err(_) => {
                tally.failed += n;
                tally.problems.push("proving call panicked".into());
                return None;
            }
        };
        if run.proofs.len() as u64 != n {
            tally.failed += n.saturating_sub(run.proofs.len() as u64);
        }
        let mut proofs = run.proofs;
        let mut verified = 0;
        let (timed, interval) = verify_all(prover, &mut proofs);
        tally.verify.add(&interval);
        for ((ok, ms), ((statement, _), want)) in
            timed.into_iter().zip(proofs.iter().zip(&expected))
        {
            tally.verify_ms.push(ms);
            if ok && statement == want {
                verified += 1;
            } else {
                tally.failed += 1;
            }
        }
        tally.rates.push(verified as f64 / (run.call_ms / 1e3));
        tally.wall_rates.push(verified as f64 / run.interval.wall_s);
        tally.calls.add(&run.interval);
        match &tally.first {
            None => tally.first = Some((run.stats.clone(), run.steps)),
            Some((stats, steps)) => {
                if *stats != run.stats || *steps != run.steps {
                    tally
                        .problems
                        .push("sim statistics or step counts differ between batches".into());
                }
            }
        }
        tally.latencies.extend(&run.latencies);
        Some((run.call_ms, proofs.len() as u64))
    }

    /// Proves batches for `cfg.seconds`, calling `between` after each.
    pub fn run(&self, cfg: &Run, between: &mut dyn FnMut()) -> Outcome {
        let mut out = Outcome::default();
        out.problems.extend(self.self_test(cfg.seed));
        let mut tally = Tally::default();
        let rec = Recorder::new(Mode::Full);
        let traced = Traced::new(self.backend.clone(), rec.clone());
        let mut traced_ms = Vec::new();
        let mut untraced_ms = Vec::new();
        let mut traced_calls = 0;
        let mut traced_completed = 0;
        let t0 = Instant::now();
        let mut batch = 0;
        // At least two batches; in a traced run, alternate untraced and
        // traced batches so the overhead is a paired comparison.
        while batch < 2 || t0.elapsed().as_secs_f64() < cfg.seconds {
            let Some(inst) = self.instances(cfg.seed, self.stream, batch * self.batch, self.batch)
            else {
                out.problems.push("instance generation failed".into());
                break;
            };
            let traced_batch = cfg.trace && batch % 2 == 1;
            let ms = if traced_batch {
                self.measure(&traced, inst, &rec, true, &mut tally)
            } else {
                self.measure(&self.backend, inst, &rec, false, &mut tally)
            };
            match (ms, traced_batch) {
                (Some((ms, proofs)), true) => {
                    traced_ms.push(ms);
                    traced_calls += 1;
                    traced_completed += proofs;
                }
                (Some((ms, _)), false) => untraced_ms.push(ms),
                (None, _) => {}
            }
            batch += 1;
            between();
        }
        out.attempted = tally.attempted;
        out.failed = tally.failed;
        out.problems.extend(tally.problems);
        let tail = tail_percentile(tally.latencies.len());
        out.note("proofs_per_batch", self.batch as f64);
        out.note("batches", batch as f64);
        out.note("latency_samples", tally.latencies.len() as f64);
        out.note("latency_tail_percentile", tail);
        out.note("wall_proofs_per_s", median(&tally.wall_rates));
        out.note("steal_share", 1.0 - tally.calls.run_share());

        if cfg.trace {
            let (stages, spans) = rec.take();
            let (sim_cycles, sim_util) = tally
                .first
                .as_ref()
                .map_or((0, 0.0), |(s, _)| (s.total_cycles, s.mean_utilization));
            let run = TracedRun {
                calls: traced_calls,
                stages,
                spans,
                completed: traced_completed,
                rejected: 0,
                sim_total_cycles: sim_cycles * traced_calls as u64,
                sim_utilization: sim_util,
                overhead: median(&traced_ms) / median(&untraced_ms) - 1.0,
            };
            let (metrics, errors) = per_layer(&run);
            out.metrics = metrics;
            out.problems.extend(errors);
            out.chrome_trace = Some(crate::trace::chrome_trace_json(&run.stages, &run.spans));
            return out;
        }

        let m = &mut out.metrics;
        m.add("proofs_per_s", median(&tally.rates), "1/s");
        m.add("proof_latency_p50_ms", median(&tally.latencies), "ms");
        m.add(
            "proof_latency_tail_ms",
            quantile(&tally.latencies, tail / 100.0),
            "ms",
        );
        m.add(
            "verify_ms",
            trimmed_mean(&tally.verify_ms) * tally.verify.run_share(),
            "ms",
        );
        m.add("peak_rss_mb", crate::peak_rss_mb(), "MB");
        if let Some((stats, _)) = &tally.first {
            let latency: Vec<u64> = stats
                .lifecycles
                .iter()
                .map(|s| s.completed_cycle.unwrap_or(s.submitted_cycle) - s.submitted_cycle)
                .collect();
            add_sim(m, stats.tasks, stats.total_cycles, &latency);
        }
        out
    }
}
