//! The mixed-service workload: sumcheck, Groth16-style and Orion requests
//! arriving open-loop at a four-device pool through `prove_service_with`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use batchzk::field::Fr;
use batchzk::gpu_sim::{ArrivalPlan, DevicePool, DeviceProfile, Gpu};
use batchzk::pipeline::{ClassPolicy, PriorityClass, ServiceConfig, ServiceOutcome};
use batchzk::zkp::r1cs::synthetic_r1cs;
use batchzk::zkp::{
    prove_batch_with, prove_service_with, BackendProofRequest, GrothBackend, MixedBackend,
    MixedInstance, MixedProof, MixedTask, OrionBackend, ProverBackend, SpartanBackend,
};

use crate::inputs::{mixed_plan, spartan_instance, stream, sub_seed, Expected};
use crate::layers::{per_layer, TracedRun};
use crate::stats::{add_sim, median, per_protocol_mean, quantile, tail_percentile};
use crate::steal::{Interval, Reading};
use crate::trace::{fifo_latencies, CallKind, Mode, Recorder, Traced};
use crate::{pcs_params, verify_all, Outcome, Run, CIRCUIT_SEED, MODULE_THREADS, THREADS};

const DEVICES: usize = 4;
const LOG_SUMCHECK: usize = 10;
const LOG_GROTH: u32 = 8;
const LOG_ORION: usize = 10;
/// Probe proofs that calibrate the trace time unit.
const PROBE_BATCH: usize = 8;
/// Trace units per sumcheck proof interval.
const UNITS_PER_INTERVAL: u64 = 100;
/// Class SLOs in proof intervals (interactive, standard, bulk).
const SLO_INTERVALS: [u64; 3] = [4, 8, 24];
/// Distinct arrival plans. The measured replays cycle through them with
/// fresh instances; the simulated metrics pool the first cycle.
const PLANS: usize = 3;
/// Arrivals in the thread-count self-test replay.
const SELF_TEST_ARRIVALS: usize = 40;

/// The set-up product: the backend and the calibrated time unit.
pub struct MixedService {
    backend: MixedBackend,
    unit_cycles: u64,
    interval_cycles: u64,
}

/// The probe instances are inputs, made before set-up is timed.
pub fn probe_instances(seed: u64) -> Vec<(Vec<Fr>, Vec<Fr>)> {
    let (r1cs, _, _) = synthetic_r1cs::<Fr>(1 << LOG_SUMCHECK, CIRCUIT_SEED);
    (0..PROBE_BATCH)
        .map(|i| {
            spartan_instance(&r1cs, sub_seed(seed, stream::SELF_TEST, 1000 + i as u64))
                .expect("the chain witness satisfies its circuit")
        })
        .collect()
}

/// Backend construction (R1CS, Groth bases, Orion shape), the calibration
/// probe, and the device pool: everything `setup_s` times.
pub fn setup(probe: Vec<(Vec<Fr>, Vec<Fr>)>) -> Result<MixedService, String> {
    let (r1cs, _, _) = synthetic_r1cs::<Fr>(1 << LOG_SUMCHECK, CIRCUIT_SEED);
    let sumcheck = SpartanBackend::new(Arc::new(r1cs), pcs_params());
    let probe_stats = prove_batch_with(
        &mut Gpu::new(DeviceProfile::a100()),
        &sumcheck,
        probe,
        MODULE_THREADS,
        true,
    )
    .map_err(|e| e.to_string())?
    .stats;
    let interval_cycles = (probe_stats.total_cycles / probe_stats.tasks.max(1) as u64).max(1);
    let backend = MixedBackend::new(
        sumcheck,
        GrothBackend::new(LOG_GROTH),
        OrionBackend::new(LOG_ORION, pcs_params()),
    );
    drop(DevicePool::homogeneous(DeviceProfile::a100(), DEVICES));
    Ok(MixedService {
        backend,
        unit_cycles: (interval_cycles / UNITS_PER_INTERVAL).max(1),
        interval_cycles,
    })
}

/// Every request is admitted: queues may grow as deep as the trace, so
/// load shows up as queueing latency rather than rejections.
fn config(interval: u64) -> ServiceConfig {
    ServiceConfig {
        classes: std::array::from_fn(|i| ClassPolicy {
            queue_cap: 1024,
            slo_cycles: SLO_INTERVALS[i] * interval,
        }),
        max_outstanding: 4096,
        device_queue_cap: 2,
        max_in_flight: 0,
        timeline_window_cycles: 0,
    }
}

/// The untraced replays of one arrival plan: per replay, the call's host
/// time, its verified proofs, and its host latency p50 and tail.
#[derive(Default)]
struct PlanTimes {
    call_ms: Vec<f64>,
    verified: Vec<f64>,
    p50s: Vec<f64>,
    tails: Vec<f64>,
}

/// One replay's requests and the statement each proof must attest to.
struct Replay {
    requests: Vec<BackendProofRequest<MixedBackend>>,
    expected: Vec<Expected>,
}

/// What one replay produced, reduced to what the run reports.
struct Served {
    /// Host time of the call, less the share the hypervisor stole.
    call_ms: f64,
    /// Wall, CPU and stolen time of the call.
    interval: Interval,
    failed: u64,
    verified: u64,
    /// Per proof: protocol index and host ms of its `verify` call; and
    /// the time of the whole set of calls.
    verify_ms: Vec<(usize, f64)>,
    verify: Interval,
    /// Per completion: (request, device, completed cycle), the simulated
    /// schedule two replays of one plan must agree on.
    schedule: Vec<(usize, usize, u64)>,
    sim_latency_cycles: Vec<u64>,
    sim_span_cycles: u64,
    sim_utilization: f64,
    rejected: u64,
    proofs: Vec<MixedProof>,
}

fn protocol(proof: &MixedProof) -> usize {
    match proof {
        MixedProof::Sumcheck(_) => 0,
        MixedProof::Groth(_) => 1,
        MixedProof::Orion(_) => 2,
    }
}

impl MixedService {
    fn replay(&self, plan: &ArrivalPlan, seed: u64, first: u64, limit: usize) -> Option<Replay> {
        let mut requests = Vec::new();
        let mut expected = Vec::new();
        for (i, a) in plan.expand().into_iter().take(limit).enumerate() {
            let class = PriorityClass::parse(&a.class).ok()?;
            let s = |stream| sub_seed(seed, stream, first + i as u64);
            let instance = match a.backend.as_deref() {
                Some("groth16") => {
                    MixedInstance::Groth(self.backend.groth().circuit().witness(s(stream::GROTH)))
                }
                Some("orion") => {
                    MixedInstance::Orion(self.backend.orion().instance(s(stream::ORION)))
                }
                _ => MixedInstance::Sumcheck(spartan_instance(
                    self.backend.sumcheck().r1cs(),
                    s(stream::SPARTAN),
                )?),
            };
            expected.push(Expected::of(&instance));
            requests.push((class, a.at_cycle.saturating_mul(self.unit_cycles), instance));
        }
        Some(Replay { requests, expected })
    }

    /// Serves one replay through `prover` and checks every outcome.
    fn serve<P>(&self, prover: &P, replay: Replay, rec: &Recorder) -> Result<Served, String>
    where
        P: ProverBackend<
            Instance = MixedInstance,
            Task = MixedTask,
            Statement = batchzk::zkp::MixedStatement,
            Proof = MixedProof,
        >,
    {
        let Replay { requests, expected } = replay;
        let attempted = requests.len() as u64;
        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), DEVICES);
        rec.start_call();
        let reading = Reading::now();
        let start = rec.now();
        let outcome: ServiceOutcome<MixedTask> = catch_unwind(AssertUnwindSafe(|| {
            prove_service_with(
                &mut pool,
                prover,
                &config(self.interval_cycles),
                requests,
                MODULE_THREADS,
                true,
            )
        }))
        .map_err(|_| "service call panicked".to_string())?
        .map_err(|e| e.to_string())?;
        let mut schedule = Vec::new();
        let mut sim_latency_cycles = Vec::new();
        let mut finished = Vec::new();
        for c in outcome.completions {
            schedule.push((c.request, c.device, c.completed_cycle));
            sim_latency_cycles.push(c.completed_cycle.saturating_sub(c.arrival_cycle));
            finished.push(prover.finish(c.task));
        }
        let end = rec.now();
        let interval = reading.elapsed();
        rec.push_call(CallKind::Prove, start, end);

        let mut verified = 0;
        let mut verify_ms = Vec::new();
        let (timed, verify) = verify_all(prover, &mut finished);
        for ((ok, ms), ((request, ..), (statement, proof))) in
            timed.into_iter().zip(schedule.iter().zip(&finished))
        {
            verify_ms.push((protocol(proof), ms));
            if ok && expected[*request].matches(statement) {
                verified += 1;
            }
        }
        let proofs = finished.into_iter().map(|(_, proof)| proof).collect();
        let profile_util: f64 = outcome
            .device_stats
            .iter()
            .map(|s| s.mean_utilization)
            .sum::<f64>()
            / outcome.device_stats.len().max(1) as f64;
        Ok(Served {
            call_ms: (end - start) * interval.run_share(),
            interval,
            failed: attempted - verified,
            verified,
            verify_ms,
            verify,
            schedule,
            sim_latency_cycles,
            sim_span_cycles: outcome
                .last_completion_cycle
                .saturating_sub(outcome.first_arrival_cycle),
            sim_utilization: profile_util,
            rejected: outcome.rejected.len() as u64,
            proofs,
        })
    }

    /// The same arrivals at one and at the benchmark's host threads must
    /// give the same schedule and the same proofs.
    fn self_test(&self, seed: u64) -> Vec<String> {
        let plan = mixed_plan(0);
        let run = |threads| {
            let replay = self
                .replay(&plan, seed, u64::MAX / 2, SELF_TEST_ARRIVALS)
                .ok_or("self-test instance generation failed")?;
            let rec = Recorder::new(Mode::Latency);
            batchzk_par::with_threads(threads, || self.serve(&self.backend, replay, &rec))
        };
        match (run(1), run(THREADS)) {
            (Ok(a), Ok(b)) => {
                let mut problems = Vec::new();
                if a.schedule != b.schedule || a.proofs != b.proofs {
                    problems.push(
                        "service schedule or proofs differ between 1 and 2 host threads".into(),
                    );
                }
                if a.failed + b.failed > 0 || a.rejected + b.rejected > 0 {
                    problems.push("a self-test request failed".into());
                }
                problems
            }
            (Err(e), _) | (_, Err(e)) => vec![format!("service self-test failed: {e}")],
        }
    }

    /// Serves replays for `cfg.seconds`, calling `between` after each.
    pub fn run(&self, cfg: &Run, between: &mut dyn FnMut()) -> Outcome {
        let mut out = Outcome::default();
        out.problems.extend(self.self_test(cfg.seed));
        let plans: Vec<ArrivalPlan> = (0..PLANS as u64).map(mixed_plan).collect();
        let probe = Recorder::new(Mode::Latency);
        let full = Recorder::new(Mode::Full);
        let probed = Traced::new(self.backend.clone(), probe.clone());
        let traced = Traced::new(self.backend.clone(), full.clone());

        let mut first_cycle: Vec<Option<Served>> = (0..PLANS).map(|_| None).collect();
        // Per plan, per untraced replay: the call's host time and verified
        // proofs, and host latency p50 and tail (the highest percentile with
        // at least ten of the replay's proofs beyond it). Plans differ in
        // work, so each is summarised by its own medians, and one disturbed
        // replay cannot move them.
        let mut per_plan: Vec<PlanTimes> = (0..PLANS).map(|_| PlanTimes::default()).collect();
        let mut tail = 0.0;
        let mut verify_ms = Vec::new();
        let (mut calls, mut verify) = (Interval::default(), Interval::default());
        let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
        let (mut traced_calls, mut traced_completed, mut traced_rejected) = (0, 0, 0);
        let (mut traced_cycles, mut traced_util) = (0u64, 0.0);
        let t0 = Instant::now();
        let mut call = 0;
        // At least one replay of every plan, and the run ends on a whole
        // number of cycles through the plans. In a traced run, replays
        // alternate between the latency probe and the full tracer, and the
        // cycles are of traced replays, so the per-call averages of the
        // traced replays do not depend on how many fit in the run.
        let cycle = if cfg.trace { 2 * PLANS } else { PLANS };
        while call < PLANS.max(2) || t0.elapsed().as_secs_f64() < cfg.seconds || call % cycle != 0 {
            let plan = &plans[call % PLANS];
            let first = (call as u64) << 32;
            let Some(replay) = self.replay(plan, cfg.seed, first, usize::MAX) else {
                out.problems.push("instance generation failed".into());
                break;
            };
            let attempted = replay.requests.len() as u64;
            out.attempted += attempted;
            let traced_call = cfg.trace && call % 2 == 1;
            let served = if traced_call {
                self.serve(&traced, replay, &full)
            } else {
                self.serve(&probed, replay, &probe)
            };
            call += 1;
            between();
            let served = match served {
                Ok(s) => s,
                Err(e) => {
                    out.failed += attempted;
                    out.problems.push(format!("service call failed: {e}"));
                    continue;
                }
            };
            out.failed += served.failed;
            if served.rejected > 0 {
                out.problems
                    .push(format!("{} requests rejected", served.rejected));
            }
            if traced_call {
                traced_ms.push(served.call_ms);
                traced_calls += 1;
                traced_completed += served.schedule.len() as u64;
                traced_rejected += served.rejected;
                traced_cycles += served.sim_span_cycles;
                traced_util += served.sim_utilization;
            } else {
                untraced_ms.push(served.call_ms);
                let (stages, _) = probe.take();
                let share = served.interval.run_share();
                let latencies: Vec<f64> = fifo_latencies(&stages)
                    .iter()
                    .map(|ms| ms * share)
                    .collect();
                tail = tail_percentile(latencies.len());
                let times = &mut per_plan[(call - 1) % PLANS];
                times.p50s.push(median(&latencies));
                times.tails.push(quantile(&latencies, tail / 100.0));
                times.call_ms.push(served.call_ms);
                times.verified.push(served.verified as f64);
                calls.add(&served.interval);
                verify.add(&served.verify);
                verify_ms.extend(&served.verify_ms);
            }
            match &first_cycle[(call - 1) % PLANS] {
                None => first_cycle[(call - 1) % PLANS] = Some(served),
                Some(first) if first.schedule != served.schedule => out
                    .problems
                    .push("replays of one arrival plan scheduled differently".into()),
                Some(_) => {}
            }
        }
        out.note("replays", call as f64);
        out.note("latency_samples_per_replay", plans[0].expand().len() as f64);
        out.note("latency_tail_percentile", tail);
        out.note("unit_cycles", self.unit_cycles as f64);
        out.note("steal_share", 1.0 - calls.run_share());

        if cfg.trace {
            let (stages, spans) = full.take();
            let run = TracedRun {
                calls: traced_calls,
                stages,
                spans,
                completed: traced_completed,
                rejected: traced_rejected,
                sim_total_cycles: traced_cycles,
                sim_utilization: traced_util / traced_calls.max(1) as f64,
                overhead: median(&traced_ms) / median(&untraced_ms) - 1.0,
            };
            let (metrics, errors) = per_layer(&run);
            out.metrics = metrics;
            out.problems.extend(errors);
            out.chrome_trace = Some(crate::trace::chrome_trace_json(&run.stages, &run.spans));
            return out;
        }

        let first_cycle: Vec<Served> = first_cycle.into_iter().flatten().collect();
        let sim_latency: Vec<u64> = first_cycle
            .iter()
            .flat_map(|s| s.sim_latency_cycles.iter().copied())
            .collect();
        let sim_span: u64 = first_cycle.iter().map(|s| s.sim_span_cycles).sum();
        // One pass through the plans, each replay at its plan's medians.
        let sum =
            |f: fn(&PlanTimes) -> &Vec<f64>| -> f64 { per_plan.iter().map(|p| median(f(p))).sum() };
        let m = &mut out.metrics;
        m.add(
            "proofs_per_s",
            sum(|p| &p.verified) / (sum(|p| &p.call_ms) / 1e3),
            "1/s",
        );
        m.add(
            "proof_latency_p50_ms",
            sum(|p| &p.p50s) / PLANS as f64,
            "ms",
        );
        m.add(
            "proof_latency_tail_ms",
            sum(|p| &p.tails) / PLANS as f64,
            "ms",
        );
        m.add(
            "verify_ms",
            per_protocol_mean(&verify_ms) * verify.run_share(),
            "ms",
        );
        m.add("peak_rss_mb", crate::peak_rss_mb(), "MB");
        add_sim(m, sim_latency.len(), sim_span, &sim_latency);
        out
    }
}
