//! Measuring decorators and process clocks.
//!
//! Every decorator forwards each trait method to the wrapped value
//! unchanged and only times or counts around the call, so a decorated
//! run computes exactly what a plain one does (the `bit_identity` test
//! proves it). They are installed only in the traced run; the untraced
//! runs that give the end-to-end metrics use the plain objects.

use sgm_core::background::{BackgroundBuilder, RebuildWorker};
use sgm_graph::points::PointCloud;
use sgm_json::Value;
use sgm_linalg::dense::Matrix;
use sgm_linalg::rng::Rng64;
use sgm_nn::mlp::{Gradients, Mlp};
use sgm_train::{LossModel, ModelWorkspace, PointChanges, PointSet, Probe, Sampler, Validator};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Counts and times the calls the engine and the samplers make into a
/// [`LossModel`]. Probe calls run on pool threads, so the counters are
/// atomics; `probe_ns` is busy time summed over those threads.
pub struct CountingModel<'a> {
    inner: &'a (dyn LossModel + 'a),
    batch_rows: AtomicU64,
    /// Rows pushed through `loss_and_grad` (interior + boundary).
    pub loss_grad_rows: AtomicU64,
    /// Nanoseconds inside `loss_and_grad`.
    pub loss_grad_ns: AtomicU64,
    /// Rows scored through the per-sample probe paths.
    pub probe_rows: AtomicU64,
    /// Nanoseconds inside the probe paths, summed over threads.
    pub probe_ns: AtomicU64,
}

impl<'a> CountingModel<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a (dyn LossModel + 'a)) -> Self {
        CountingModel {
            inner,
            batch_rows: AtomicU64::new(0),
            loss_grad_rows: AtomicU64::new(0),
            loss_grad_ns: AtomicU64::new(0),
            probe_rows: AtomicU64::new(0),
            probe_ns: AtomicU64::new(0),
        }
    }

    fn probe<T>(&self, rows: usize, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.probe_ns
            .fetch_add(nanos(t0.elapsed()), Ordering::Relaxed);
        self.probe_rows.fetch_add(rows as u64, Ordering::Relaxed);
        out
    }
}

impl LossModel for CountingModel<'_> {
    fn num_interior(&self) -> usize {
        self.inner.num_interior()
    }

    fn num_boundary(&self) -> usize {
        self.inner.num_boundary()
    }

    fn make_workspace(
        &self,
        net: &Mlp,
        batch_interior: usize,
        batch_boundary: usize,
    ) -> Box<dyn ModelWorkspace> {
        self.batch_rows
            .store((batch_interior + batch_boundary) as u64, Ordering::Relaxed);
        self.inner
            .make_workspace(net, batch_interior, batch_boundary)
    }

    fn gather(&self, interior_idx: &[usize], boundary_idx: &[usize], ws: &mut dyn ModelWorkspace) {
        self.inner.gather(interior_idx, boundary_idx, ws)
    }

    fn loss_and_grad(&self, net: &Mlp, ws: &mut dyn ModelWorkspace, grads: &mut Gradients) -> f64 {
        let t0 = Instant::now();
        let loss = self.inner.loss_and_grad(net, ws, grads);
        self.loss_grad_ns
            .fetch_add(nanos(t0.elapsed()), Ordering::Relaxed);
        self.loss_grad_rows
            .fetch_add(self.batch_rows.load(Ordering::Relaxed), Ordering::Relaxed);
        loss
    }

    fn batch_loss(&self, net: &Mlp, interior_idx: &[usize], boundary_idx: &[usize]) -> f64 {
        self.inner.batch_loss(net, interior_idx, boundary_idx)
    }

    fn sample_losses(&self, net: &Mlp, idx: &[usize]) -> Vec<f64> {
        self.probe(idx.len(), || self.inner.sample_losses(net, idx))
    }

    fn outputs(&self, net: &Mlp, idx: &[usize]) -> Matrix {
        self.inner.outputs(net, idx)
    }

    fn inputs(&self, idx: &[usize]) -> Matrix {
        self.inner.inputs(idx)
    }

    fn interior_cloud(&self) -> Option<PointCloud> {
        self.inner.interior_cloud()
    }

    fn gather_from(
        &self,
        points: &PointCloud,
        interior_idx: &[usize],
        boundary_idx: &[usize],
        ws: &mut dyn ModelWorkspace,
    ) {
        self.inner
            .gather_from(points, interior_idx, boundary_idx, ws)
    }

    fn batch_loss_from(
        &self,
        net: &Mlp,
        points: &PointCloud,
        interior_idx: &[usize],
        boundary_idx: &[usize],
    ) -> f64 {
        self.inner
            .batch_loss_from(net, points, interior_idx, boundary_idx)
    }

    fn losses_at(&self, net: &Mlp, coords: &Matrix) -> Vec<f64> {
        self.probe(coords.rows(), || self.inner.losses_at(net, coords))
    }

    fn outputs_at(&self, net: &Mlp, coords: &Matrix) -> Matrix {
        self.inner.outputs_at(net, coords)
    }
}

/// Times the off-clock validation calls.
pub struct TimedValidator<'a> {
    inner: &'a dyn Validator,
    /// Nanoseconds inside `val_errors`.
    pub ns: Cell<u64>,
}

impl<'a> TimedValidator<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn Validator) -> Self {
        TimedValidator {
            inner,
            ns: Cell::new(0),
        }
    }
}

impl Validator for TimedValidator<'_> {
    fn val_errors(&self, net: &Mlp) -> Vec<f64> {
        let t0 = Instant::now();
        let out = self.inner.val_errors(net);
        self.ns.set(self.ns.get() + nanos(t0.elapsed()));
        out
    }
}

/// Times the sampler's score refreshes: the `refresh` calls on
/// iterations that are multiples of `tau_e` (`None` for samplers that
/// never score).
pub struct TimedSampler<'s> {
    inner: &'s mut dyn Sampler,
    tau_e: Option<usize>,
    /// Wall milliseconds of each score refresh, in order.
    pub refresh_ms: Vec<f64>,
}

impl<'s> TimedSampler<'s> {
    /// Wraps `inner`.
    pub fn new(inner: &'s mut dyn Sampler, tau_e: Option<usize>) -> Self {
        TimedSampler {
            inner,
            tau_e,
            refresh_ms: Vec::new(),
        }
    }
}

impl Sampler for TimedSampler<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fill_batch(&mut self, batch_size: usize, out: &mut Vec<usize>, rng: &mut Rng64) {
        self.inner.fill_batch(batch_size, out, rng)
    }

    fn refresh(&mut self, iter: usize, probe: &Probe<'_>, rng: &mut Rng64) {
        let scores = self.tau_e.is_some_and(|t| t > 0 && iter.is_multiple_of(t));
        let t0 = Instant::now();
        self.inner.refresh(iter, probe, rng);
        if scores {
            self.refresh_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }

    fn adapts_points(&self) -> bool {
        self.inner.adapts_points()
    }

    fn adapt(&mut self, points: &mut PointSet, iter: usize, probe: &Probe<'_>, rng: &mut Rng64) {
        self.inner.adapt(points, iter, probe, rng)
    }

    fn on_points_changed(&mut self, points: &PointSet, changes: &PointChanges) {
        self.inner.on_points_changed(points, changes)
    }

    fn sync_points(&mut self, points: &PointSet) {
        self.inner.sync_points(points)
    }

    fn save_state(&self) -> Value {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &Value) -> Result<(), String> {
        self.inner.load_state(state)
    }
}

/// Wall and thread-CPU seconds of the background rebuilds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RebuildLog {
    /// Rebuilds served.
    pub count: usize,
    /// Wall seconds inside `RebuildWorker::run`.
    pub wall_s: f64,
    /// CPU seconds of the rebuild thread inside `RebuildWorker::run`.
    pub cpu_s: f64,
}

/// A background builder whose worker runs the standard
/// [`RebuildWorker`] and logs each request's wall and thread-CPU time.
pub fn timed_builder() -> (BackgroundBuilder, Arc<Mutex<RebuildLog>>) {
    let log = Arc::new(Mutex::new(RebuildLog::default()));
    let sink = log.clone();
    let mut worker = RebuildWorker::new();
    let builder = BackgroundBuilder::spawn_with_worker(move |req| {
        let c0 = thread_cpu_seconds();
        let t0 = Instant::now();
        let out = worker.run(req);
        let wall = t0.elapsed().as_secs_f64();
        let cpu = thread_cpu_seconds() - c0;
        let mut l = sink.lock().expect("rebuild log poisoned");
        l.count += 1;
        l.wall_s += wall;
        l.cpu_s += cpu;
        Some(out)
    });
    (builder, log)
}

// The declarations below follow the 64-bit Linux ABI.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux CPU clocks and rusage: build it on 64-bit Linux");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RUSAGE_SELF: i32 = 0;

fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant the kernel
    // defines; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds consumed by the calling thread.
pub fn thread_cpu_seconds() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds consumed by the whole process (all threads).
pub fn process_cpu_seconds() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// Peak resident set size of the process, MiB.
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `struct timeval` (2 × i64
    // each) followed by fourteen `long`s, `ru_maxrss` (KiB) first.
    let mut ru = [0i64; 18];
    // SAFETY: `ru` is 144 writable bytes, the size of `struct rusage`
    // on 64-bit Linux, and the call writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    ru[4] as f64 / 1024.0
}
