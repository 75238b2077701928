//! Host-time spans around the calls into each layer, recorded from the
//! benchmark's own code: a decorator [`ProverBackend`] that delegates every
//! method and wraps each stage from `stages()` in a timing [`PipeStage`].
//! Spans stay in memory and are written as Chrome-trace JSON at exit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use batchzk::field::Fr;
use batchzk::gpu_sim::{Gpu, KernelStep};
use batchzk::pipeline::{BoxedStage, PipeStage, StageWork};
use batchzk::zkp::{MixedBackend, OrionBackend, ProverBackend, SpartanBackend, BACKEND_NAMES};

/// A backend the tracer can wrap: names which protocol a task belongs to,
/// for backends whose stages are `+`-joined unions of several protocols'
/// stages (the mixed backend). Single-protocol backends use index 0.
pub trait Traceable: ProverBackend {
    fn protocol(_task: &Self::Task) -> usize {
        0
    }
}

impl Traceable for SpartanBackend<Fr> {}
impl Traceable for OrionBackend<Fr> {}
impl Traceable for MixedBackend {
    fn protocol(task: &Self::Task) -> usize {
        BACKEND_NAMES
            .iter()
            .position(|n| *n == task.backend_name())
            .expect("built-in backend")
    }
}

/// One timed `PipeStage::process` call.
#[derive(Clone, Debug)]
pub struct StageSpan {
    /// The protocol stage that ran (`system-sumcheck`, `groth-quotient`, ...).
    pub stage: Arc<str>,
    /// Device index: the order of the `stages()` call within one proving call.
    pub device: usize,
    /// Pipeline slot (stage depth).
    pub slot: usize,
    /// Host thread that ran it (small per-process index).
    pub thread: usize,
    /// Milliseconds since the recorder's origin.
    pub start: f64,
    pub end: f64,
    /// Kernel cycles the cost model charges for the stage's returned work.
    pub sim_cycles: u64,
}

impl StageSpan {
    pub fn ms(&self) -> f64 {
        self.end - self.start
    }
}

/// One timed call into the backend or the executor, by layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    Begin,
    Finish,
    Verify,
    Step,
    Prove,
}

impl CallKind {
    pub fn name(self) -> &'static str {
        match self {
            CallKind::Begin => "zkp.begin",
            CallKind::Finish => "zkp.finish",
            CallKind::Verify => "zkp.verify",
            CallKind::Step => "executor.step",
            CallKind::Prove => "prove-call",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct CallSpan {
    pub kind: CallKind,
    pub start: f64,
    pub end: f64,
}

impl CallSpan {
    pub fn ms(&self) -> f64 {
        self.end - self.start
    }
}

/// What a recorder keeps.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every stage span, with simulated cycles, and every backend call.
    Full,
    /// Only the first and last stage of each pipeline, which bracket a
    /// proof's host residency; two clock reads per proof.
    Latency,
}

/// In-memory span store shared by every wrapped stage.
pub struct Recorder {
    origin: Instant,
    mode: Mode,
    devices: AtomicUsize,
    stages: Mutex<Vec<StageSpan>>,
    calls: Mutex<Vec<CallSpan>>,
}

thread_local! {
    static THREAD_INDEX: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Recorder {
    pub fn new(mode: Mode) -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            mode,
            devices: AtomicUsize::new(0),
            stages: Mutex::new(Vec::new()),
            calls: Mutex::new(Vec::new()),
        })
    }

    /// Milliseconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    /// Marks the start of one proving call: device indices restart at 0.
    pub fn start_call(&self) {
        self.devices.store(0, Ordering::Relaxed);
    }

    pub fn push_call(&self, kind: CallKind, start: f64, end: f64) {
        self.calls
            .lock()
            .expect("no recorder user panics while holding the lock")
            .push(CallSpan { kind, start, end });
    }

    /// Times `f` as one call of `kind` (full mode only).
    pub fn time<R>(&self, kind: CallKind, f: impl FnOnce() -> R) -> R {
        if self.mode != Mode::Full {
            return f();
        }
        let start = self.now();
        let out = f();
        self.push_call(kind, start, self.now());
        out
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> (Vec<StageSpan>, Vec<CallSpan>) {
        let stages = std::mem::take(&mut *self.stages.lock().expect("recorder lock"));
        let calls = std::mem::take(&mut *self.calls.lock().expect("recorder lock"));
        (stages, calls)
    }
}

/// The decorator backend: same types and behaviour as `B`, with every
/// backend call and stage call timed into a [`Recorder`].
pub struct Traced<B> {
    inner: B,
    rec: Arc<Recorder>,
}

impl<B: Clone> Clone for Traced<B> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
            rec: Arc::clone(&self.rec),
        }
    }
}

impl<B> Traced<B> {
    pub fn new(inner: B, rec: Arc<Recorder>) -> Self {
        Self { inner, rec }
    }
}

struct TimedStage<T> {
    inner: BoxedStage<T>,
    rec: Arc<Recorder>,
    protocol: fn(&T) -> usize,
    /// Per-protocol stage names (one unless the stage is a union).
    names: Vec<Arc<str>>,
    device: usize,
    slot: usize,
    last_slot: usize,
}

impl<T> PipeStage<T> for TimedStage<T> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn threads(&self) -> u32 {
        self.inner.threads()
    }

    fn process(&self, task: &mut T) -> StageWork {
        let full = self.rec.mode == Mode::Full;
        if !full && self.slot != 0 && self.slot != self.last_slot {
            return self.inner.process(task);
        }
        let protocol = (self.protocol)(task);
        let start = self.rec.now();
        let mut work = self.inner.process(task);
        let end = self.rec.now();
        let sim_cycles = if full {
            let kernel = KernelStep::new(String::new(), self.inner.threads(), work.work);
            let cycles = kernel.duration_cycles();
            work.work = kernel.work;
            cycles
        } else {
            0
        };
        let span = StageSpan {
            stage: Arc::clone(&self.names[protocol.min(self.names.len() - 1)]),
            device: self.device,
            slot: self.slot,
            thread: THREAD_INDEX.with(|t| *t),
            start,
            end,
            sim_cycles,
        };
        self.rec.stages.lock().expect("recorder lock").push(span);
        work
    }

    fn naive_phases(&self, task: &T) -> Option<Vec<batchzk::gpu_sim::Work>> {
        self.inner.naive_phases(task)
    }
}

impl<B: Traceable> ProverBackend for Traced<B> {
    type Instance = B::Instance;
    type Task = B::Task;
    type Statement = B::Statement;
    type Proof = B::Proof;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn begin(&self, instance: Self::Instance) -> Self::Task {
        self.rec
            .time(CallKind::Begin, || self.inner.begin(instance))
    }

    fn module_weights(&self, gpu: &Gpu) -> Vec<u64> {
        self.inner.module_weights(gpu)
    }

    fn stages(&self, gpu: &Gpu, total_threads: u32) -> Vec<BoxedStage<Self::Task>> {
        let device = self.rec.devices.fetch_add(1, Ordering::Relaxed);
        let stages = self.inner.stages(gpu, total_threads);
        let last_slot = stages.len().saturating_sub(1);
        stages
            .into_iter()
            .enumerate()
            .map(|(slot, inner)| {
                let names = inner.name().split('+').map(Arc::from).collect();
                Box::new(TimedStage {
                    inner,
                    rec: Arc::clone(&self.rec),
                    protocol: B::protocol,
                    names,
                    device,
                    slot,
                    last_slot,
                }) as BoxedStage<Self::Task>
            })
            .collect()
    }

    fn task_footprint_bytes(&self) -> u64 {
        self.inner.task_footprint_bytes()
    }

    fn finish(&self, task: Self::Task) -> (Self::Statement, Self::Proof) {
        self.rec.time(CallKind::Finish, || self.inner.finish(task))
    }

    fn verify(&self, statement: &Self::Statement, proof: &Self::Proof) -> bool {
        self.rec
            .time(CallKind::Verify, || self.inner.verify(statement, proof))
    }
}

/// Total length of the union of `[start, end)` intervals.
pub fn union_ms(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Host proof latencies from latency-mode spans: per device the pipeline
/// is FIFO, so the k-th first-slot start and the k-th last-slot end belong
/// to the same proof.
pub fn fifo_latencies(spans: &[StageSpan]) -> Vec<f64> {
    let devices = spans.iter().map(|s| s.device + 1).max().unwrap_or(0);
    let last_slot = spans.iter().map(|s| s.slot).max().unwrap_or(0);
    let mut out = Vec::new();
    for d in 0..devices {
        let mut starts: Vec<f64> = spans
            .iter()
            .filter(|s| s.device == d && s.slot == 0)
            .map(|s| s.start)
            .collect();
        let mut ends: Vec<f64> = spans
            .iter()
            .filter(|s| s.device == d && s.slot == last_slot)
            .map(|s| s.end)
            .collect();
        starts.sort_by(f64::total_cmp);
        ends.sort_by(f64::total_cmp);
        out.extend(starts.iter().zip(&ends).map(|(s, e)| e - s));
    }
    out
}

/// Writes stage and call spans as Chrome-trace JSON (`chrome://tracing`,
/// Perfetto): one process per device, one thread row per host thread,
/// calls on process 1000.
pub fn chrome_trace_json(stages: &[StageSpan], calls: &[CallSpan]) -> String {
    let mut events = Vec::with_capacity(stages.len() + calls.len());
    for s in stages {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"slot\":{},\"sim_cycles\":{}}}}}",
            s.stage,
            s.device,
            s.thread,
            s.start * 1e3,
            s.ms() * 1e3,
            s.slot,
            s.sim_cycles
        ));
    }
    for c in calls {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"call\",\"ph\":\"X\",\"pid\":1000,\"tid\":0,\
             \"ts\":{:.3},\"dur\":{:.3}}}",
            c.kind.name(),
            c.start * 1e3,
            c.ms() * 1e3
        ));
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        let mut v = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)];
        assert_eq!(union_ms(&mut v), 4.0);
        assert_eq!(union_ms(&mut []), 0.0);
    }
}
