//! Per-layer metrics and accounting checks from the spans of a traced run.

use crate::stats::{median, Metrics};
use crate::trace::{union_ms, CallKind, CallSpan, StageSpan};

/// Every stage of every backend, in report order. The per-layer metric
/// list is the same on every workload; a stage a workload never runs
/// reports 0 calls and 0 ms.
pub const ALL_STAGES: [&str; 12] = [
    "system-encoder",
    "system-merkle",
    "system-sumcheck",
    "system-assemble",
    "orion-encode",
    "orion-merkle",
    "orion-combine",
    "orion-open",
    "groth-witness-ntt",
    "groth-quotient",
    "groth-msm-bucket",
    "groth-msm-reduce",
];

/// What a traced run collected over `calls` proving calls (batches or
/// service replays).
pub struct TracedRun {
    pub calls: usize,
    pub stages: Vec<StageSpan>,
    pub spans: Vec<CallSpan>,
    pub completed: u64,
    pub rejected: u64,
    pub sim_total_cycles: u64,
    pub sim_utilization: f64,
    /// Median traced over median untraced proving-call wall time, minus 1.
    pub overhead: f64,
}

fn spans_of(spans: &[CallSpan], kind: CallKind) -> Vec<CallSpan> {
    spans.iter().copied().filter(|c| c.kind == kind).collect()
}

/// Stage spans that start inside `window`; flags any that end after it.
fn inside<'a>(
    stages: &'a [StageSpan],
    window: &CallSpan,
    errors: &mut Vec<String>,
) -> Vec<&'a StageSpan> {
    let within: Vec<&StageSpan> = stages
        .iter()
        .filter(|s| s.start >= window.start && s.start <= window.end)
        .collect();
    for s in &within {
        if s.end > window.end {
            errors.push(format!(
                "{} span ends {:.6} ms after its enclosing {}",
                s.stage,
                s.end - window.end,
                window.kind.name()
            ));
        }
    }
    within
}

/// Per window: (window ms, union of stage spans in it, longest stage
/// span, summed stage busy). Every stage span must lie in some window.
fn cover(
    stages: &[StageSpan],
    windows: &[CallSpan],
    errors: &mut Vec<String>,
) -> Vec<(f64, f64, f64, f64)> {
    let mut covered = 0;
    let out = windows
        .iter()
        .map(|w| {
            let within = inside(stages, w, errors);
            covered += within.len();
            let mut iv: Vec<(f64, f64)> = within.iter().map(|s| (s.start, s.end)).collect();
            let longest = within.iter().map(|s| s.ms()).fold(0.0, f64::max);
            let busy = within.iter().map(|s| s.ms()).sum();
            (w.ms(), union_ms(&mut iv), longest, busy)
        })
        .collect();
    if !windows.is_empty() && covered != stages.len() {
        errors.push(format!(
            "{} of {} stage spans fall outside every {}",
            stages.len() - covered,
            stages.len(),
            windows[0].kind.name()
        ));
    }
    out
}

/// Builds every per-layer metric and returns the accounting violations
/// (empty when each step and each call equals its stage-span union plus
/// non-negative glue).
pub fn per_layer(run: &TracedRun) -> (Metrics, Vec<String>) {
    let mut m = Metrics::default();
    let mut errors = Vec::new();
    let per_call = 1.0 / run.calls.max(1) as f64;

    for s in &run.stages {
        if !ALL_STAGES.contains(&&*s.stage) {
            errors.push(format!("unknown stage `{}`", s.stage));
        }
    }
    for name in ALL_STAGES {
        let ms: Vec<f64> = run
            .stages
            .iter()
            .filter(|s| &*s.stage == name)
            .map(StageSpan::ms)
            .collect();
        m.add(
            format!("stage.{name}.busy_ms"),
            ms.iter().sum::<f64>() * per_call,
            "ms",
        );
        m.add(
            format!("stage.{name}.calls"),
            ms.len() as f64 * per_call,
            "count",
        );
        m.add(format!("stage.{name}.p50_ms"), median(&ms), "ms");
    }

    // Executor layer: only where the benchmark drives `step` itself.
    let steps = cover(
        &run.stages,
        &spans_of(&run.spans, CallKind::Step),
        &mut errors,
    );
    let step_ms: f64 = steps.iter().map(|s| s.0).sum();
    let step_union: f64 = steps.iter().map(|s| s.1).sum();
    let step_busy: f64 = steps.iter().map(|s| s.3).sum();
    for (i, s) in steps.iter().enumerate() {
        if s.1 > s.0 + 1e-9 {
            errors.push(format!(
                "step {i}: stage union {} ms exceeds step {} ms",
                s.1, s.0
            ));
        }
    }
    m.add("executor.steps", steps.len() as f64 * per_call, "count");
    m.add("executor.step_ms", step_ms * per_call, "ms");
    m.add(
        "executor.critical_ms",
        steps.iter().map(|s| s.2).sum::<f64>() * per_call,
        "ms",
    );
    m.add("executor.glue_ms", (step_ms - step_union) * per_call, "ms");
    m.add(
        "executor.host_parallelism",
        if step_ms > 0.0 {
            step_busy / step_ms
        } else {
            0.0
        },
        "ratio",
    );

    // Proving-call layer: the service call, or the batch call around the
    // step loop (begin, stages, finish).
    let calls = cover(
        &run.stages,
        &spans_of(&run.spans, CallKind::Prove),
        &mut errors,
    );
    let call_ms: f64 = calls.iter().map(|c| c.0).sum();
    let call_union: f64 = calls.iter().map(|c| c.1).sum();
    let call_busy: f64 = calls.iter().map(|c| c.3).sum();
    if calls.len() != run.calls {
        errors.push(format!(
            "{} proving-call spans for {} calls",
            calls.len(),
            run.calls
        ));
    }
    m.add("service.glue_ms", (call_ms - call_union) * per_call, "ms");
    m.add(
        "service.host_parallelism",
        if call_ms > 0.0 {
            call_busy / call_ms
        } else {
            0.0
        },
        "ratio",
    );
    let devices = run.stages.iter().map(|s| s.device + 1).max().unwrap_or(0);
    let mut device_busy = vec![0.0; devices];
    for s in &run.stages {
        device_busy[s.device] += s.ms();
    }
    let mean = device_busy.iter().sum::<f64>() / devices.max(1) as f64;
    let max = device_busy.iter().copied().fold(0.0, f64::max);
    m.add(
        "sched.device_busy_imbalance",
        if mean > 0.0 { max / mean } else { 0.0 },
        "ratio",
    );
    m.add(
        "service.completed",
        run.completed as f64 * per_call,
        "count",
    );
    m.add("service.rejected", run.rejected as f64 * per_call, "count");

    for (name, kind) in [
        ("zkp.begin_ms", CallKind::Begin),
        ("zkp.finish_ms", CallKind::Finish),
        ("zkp.verify_ms", CallKind::Verify),
    ] {
        let ms: Vec<f64> = spans_of(&run.spans, kind)
            .iter()
            .map(CallSpan::ms)
            .collect();
        m.add(name, median(&ms), "ms");
    }

    m.add(
        "sim.total_cycles",
        run.sim_total_cycles as f64 * per_call,
        "cycles",
    );
    m.add("sim.utilization", run.sim_utilization, "ratio");
    for name in ALL_STAGES {
        let cycles: u64 = run
            .stages
            .iter()
            .filter(|s| &*s.stage == name)
            .map(|s| s.sim_cycles)
            .sum();
        m.add(
            format!("sim.stage.{name}.busy_cycles"),
            cycles as f64 * per_call,
            "cycles",
        );
    }
    m.add("trace.overhead_pct", run.overhead * 100.0, "%");
    (m, errors)
}
