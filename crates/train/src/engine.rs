//! The staged training loop.
//!
//! Each iteration runs the fixed stage sequence
//! `Refresh → Adapt → Draw → Gather → LossGrad → Step` (+ an off-clock
//! `Record` stage at recording points). All per-iteration buffers live
//! in run-scoped workspaces created before the first iteration, so a
//! steady-state iteration performs no heap allocations under serial
//! parallelism.
//!
//! # One run path
//!
//! Every run — a [`Trainer`] call or a lockstep group of jobs
//! ([`run_lockstep`](crate::run_lockstep)) — goes through
//! `run_group`. Each job is restored from its [`RunState`] by one
//! function, runs `Refresh → Adapt → Draw → Gather` on its own RNG and
//! point set, reports to its own hooks, records and is captured by one
//! function. Only `LossGrad` and `Step` depend on the group: a group of
//! one runs them solo ([`LossModel::loss_and_grad`] + [`Adam`]), a
//! larger group runs them once for all members through the batched
//! kernels (`crate::multi`). Batched execution is bit-identical to
//! solo execution, so the choice changes only speed.
//!
//! # The adapt stage
//!
//! When the sampler opts into point-set mutation
//! ([`Sampler::adapts_points`]), the engine owns a mutable [`PointSet`]
//! seeded from [`LossModel::interior_cloud`] and lends it to
//! [`Sampler::adapt`] every iteration. After a mutating adapt the engine
//! drains the change log, re-validates that the interior batch still
//! fits the (possibly shrunk) set, notifies the sampler via
//! [`Sampler::on_points_changed`] and reports the changes to hooks; all
//! batch gathers and record-path losses then read coordinates from the
//! set (`gather_from` / `batch_loss_from`), so the next `Gather`
//! re-fills the workspace from the mutated coordinates — there is no
//! stale-workspace window because gathers always rewrite every row.
//!
//! # Time accounting
//!
//! Two clocks are kept. The **training clock** advances by the measured
//! duration of the training stages of one group iteration (or by
//! [`TrainOptions::synthetic_dt`] when set); it is what
//! [`Record::seconds`], [`TrainOptions::max_seconds`] and
//! [`TrainResult::time_to_error`] read. The **recording clock**
//! accumulates post-step loss evaluation and validation time, which the
//! paper's wall-time comparisons deliberately exclude.

use crate::hooks::{Hook, Stage};
use crate::model::{BatchedLossModel, LossModel, ModelWorkspace, Validator};
use crate::multi::BatchedExecutor;
use crate::pointset::{PointChanges, PointSet};
use crate::result::{Record, TrainResult};
use crate::runstate::{PointsCheckpoint, RunState};
use crate::sampler::{Probe, Sampler};
use sgm_linalg::rng::Rng64;
use sgm_nn::checkpoint::Checkpoint;
use sgm_nn::mlp::{Gradients, Mlp};
use sgm_nn::optimizer::{Adam, AdamConfig};
use sgm_obs::{trace, TraceLevel};
use std::time::{Duration, Instant};

/// Training-loop options.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// SGD iterations.
    pub iterations: usize,
    /// Interior mini-batch size (the paper's β).
    pub batch_interior: usize,
    /// Boundary mini-batch size.
    pub batch_boundary: usize,
    /// Optimiser configuration.
    pub adam: AdamConfig,
    /// RNG seed for batching.
    pub seed: u64,
    /// Record loss/validation every this many iterations.
    pub record_every: usize,
    /// Optional training-clock budget in seconds; training stops at the
    /// first iteration boundary past it (how the experiment harness
    /// gives every sampler the same time budget, as in the paper's
    /// wall-time plots). Recording time does not count against it.
    pub max_seconds: Option<f64>,
    /// When set, the training clock advances by exactly this many
    /// seconds per iteration instead of measured wall time, and the
    /// recording clock stays at zero. This makes every timestamp in the
    /// run deterministic — the resume tests rely on it to compare
    /// histories bit-for-bit.
    pub synthetic_dt: Option<f64>,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            iterations: 1000,
            batch_interior: 128,
            batch_boundary: 64,
            adam: AdamConfig::default(),
            seed: 7,
            record_every: 100,
            max_seconds: None,
            synthetic_dt: None,
        }
    }
}

/// Outcome of one preemptible segment (see [`Trainer::run_segment`]).
#[derive(Debug, Clone)]
pub struct Segment {
    /// Cumulative result so far (history includes restored records).
    pub result: TrainResult,
    /// Full run state at the `stop_after` boundary; `None` only when
    /// the `max_seconds` budget expired before the boundary.
    pub state: Option<RunState>,
}

/// Runs training with the given sampler.
pub struct Trainer<'a> {
    /// The network being trained.
    pub net: &'a mut Mlp,
    /// The training objective.
    pub model: &'a (dyn LossModel + 'a),
}

impl std::fmt::Debug for Trainer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trainer").finish_non_exhaustive()
    }
}

impl Trainer<'_> {
    /// Runs the loop from iteration 0.
    ///
    /// # Panics
    /// Panics if batch sizes are zero or exceed the dataset sizes.
    pub fn run(
        &mut self,
        sampler: &mut dyn Sampler,
        validator: Option<&dyn Validator>,
        opts: &TrainOptions,
    ) -> TrainResult {
        self.run_hooked(sampler, validator, opts, &mut [])
    }

    /// Like [`Trainer::run`] with per-stage instrumentation hooks.
    ///
    /// # Panics
    /// Panics if batch sizes are zero or exceed the dataset sizes.
    pub fn run_hooked(
        &mut self,
        sampler: &mut dyn Sampler,
        validator: Option<&dyn Validator>,
        opts: &TrainOptions,
        hooks: &mut [&mut dyn Hook],
    ) -> TrainResult {
        self.run_core(sampler, validator, opts, hooks, None, None)
            .expect("fresh run cannot fail to restore")
            .result
    }

    /// Trains for exactly `stop_after` iterations and returns the full
    /// run state at that point (records produced on the way are kept
    /// inside the state). Feeding the state to [`Trainer::resume`] —
    /// against fresh net/sampler instances, even in another process —
    /// continues the run bit-identically.
    ///
    /// # Panics
    /// Panics if `stop_after` is 0, exceeds `opts.iterations`, or lies
    /// beyond the `opts.max_seconds` budget (there is no state to
    /// return then), or on bad batch sizes.
    pub fn run_until(
        &mut self,
        sampler: &mut dyn Sampler,
        validator: Option<&dyn Validator>,
        opts: &TrainOptions,
        stop_after: usize,
    ) -> RunState {
        self.run_core(sampler, validator, opts, &mut [], None, Some(stop_after))
            .unwrap_or_else(|e| panic!("{e}"))
            .state
            .expect("stopped before reaching stop_after (budget exhausted?)")
    }

    /// Runs one preemptible segment of a (possibly ongoing) run: from
    /// `start` (or iteration 0 when `None`) up to and including
    /// iteration `stop_after - 1`, then captures the full run state.
    /// Chaining segments — each restoring the previous segment's state
    /// into fresh net/sampler instances — reproduces an uninterrupted
    /// [`Trainer::run`] bit-identically, which is what the job server
    /// builds its run-N-iterations-then-yield scheduling on.
    ///
    /// The returned [`Segment::state`] is `Some` at the `stop_after`
    /// boundary — including when `stop_after == opts.iterations`, so
    /// the final segment still yields a downloadable checkpoint — and
    /// `None` only when the `opts.max_seconds` budget expired before
    /// the boundary was reached.
    ///
    /// # Errors
    /// Returns a message when `stop_after` is outside
    /// `1..=opts.iterations`, when `start` does not lie before
    /// `stop_after`, or when the state does not match the network
    /// architecture or the sampler.
    ///
    /// # Panics
    /// Panics on bad batch sizes (as every entry point does).
    pub fn run_segment(
        &mut self,
        sampler: &mut dyn Sampler,
        validator: Option<&dyn Validator>,
        opts: &TrainOptions,
        hooks: &mut [&mut dyn Hook],
        start: Option<&RunState>,
        stop_after: usize,
    ) -> Result<Segment, String> {
        self.run_core(sampler, validator, opts, hooks, start, Some(stop_after))
    }

    /// Resumes a run captured by [`Trainer::run_until`] (or a
    /// JSON-round-tripped copy) and trains to completion. The network
    /// behind `self.net` is overwritten with the checkpointed
    /// parameters and `sampler` is restored from the saved sampler
    /// state, so both may be fresh instances.
    ///
    /// # Errors
    /// Returns a message when the state does not match the network
    /// architecture or the sampler.
    pub fn resume(
        &mut self,
        sampler: &mut dyn Sampler,
        validator: Option<&dyn Validator>,
        opts: &TrainOptions,
        state: &RunState,
    ) -> Result<TrainResult, String> {
        Ok(self
            .run_core(sampler, validator, opts, &mut [], Some(state), None)?
            .result)
    }

    fn run_core(
        &mut self,
        sampler: &mut dyn Sampler,
        validator: Option<&dyn Validator>,
        opts: &TrainOptions,
        hooks: &mut [&mut dyn Hook],
        start: Option<&RunState>,
        stop_after: Option<usize>,
    ) -> Result<Segment, String> {
        let mut group = [Member {
            net: &mut *self.net,
            model: self.model,
            batched: None,
            sampler,
            validator,
            opts,
            hooks,
            start,
            stop_after,
        }];
        Ok(run_group(&mut group)?
            .pop()
            .expect("one segment per member"))
    }
}

/// One job as the engine drives it: the borrowed pieces of a
/// [`Trainer`] call or of one lockstep group member.
pub(crate) struct Member<'a, 'h> {
    pub(crate) net: &'a mut Mlp,
    pub(crate) model: &'a (dyn LossModel + 'a),
    /// The same model behind its batched interface; every member of a
    /// group of two or more carries it.
    pub(crate) batched: Option<&'a (dyn BatchedLossModel + 'a)>,
    pub(crate) sampler: &'a mut dyn Sampler,
    pub(crate) validator: Option<&'a dyn Validator>,
    pub(crate) opts: &'a TrainOptions,
    pub(crate) hooks: &'a mut [&'h mut dyn Hook],
    pub(crate) start: Option<&'a RunState>,
    /// Capture the run state after this many iterations; `None` trains
    /// to `opts.iterations` without a capture.
    pub(crate) stop_after: Option<usize>,
}

/// The boundary batch the engine draws: `batch_boundary` clamped to
/// the boundary set, 0 when the model has no boundary term.
pub(crate) fn boundary_batch(model: &dyn LossModel, opts: &TrainOptions) -> usize {
    opts.batch_boundary.min(model.num_boundary())
}

/// Runs every member from its start to its boundary, one group
/// iteration at a time, and returns one [`Segment`] per member, in
/// order. All members must have the same number of remaining steps
/// (`crate::multi` checks this, with the other group constraints,
/// before calling). If any member's `max_seconds` budget expires, the
/// whole group stops at that iteration boundary: the expired members
/// report `state: None` and the others report the early boundary.
pub(crate) fn run_group(members: &mut [Member<'_, '_>]) -> Result<Vec<Segment>, String> {
    let grouped = members.len() > 1;
    let mut runs = Vec::with_capacity(members.len());
    for (j, m) in members.iter_mut().enumerate() {
        let run =
            JobRun::restore(m).map_err(|e| if grouped { format!("job {j}: {e}") } else { e })?;
        runs.push(run);
    }
    let steps = members[0]
        .stop_after
        .unwrap_or(members[0].opts.iterations)
        .saturating_sub(runs[0].iter);
    let mut exec = if grouped {
        Executor::Batched(Box::new(BatchedExecutor::new(members)))
    } else {
        Executor::solo(&members[0])
    };
    for _ in 0..steps {
        let mut expired = false;
        for (m, run) in members.iter().zip(&mut runs) {
            run.expired = m.opts.max_seconds.is_some_and(|b| run.train_clock >= b);
            expired |= run.expired;
        }
        if expired {
            break;
        }
        let t0 = Instant::now();
        for (m, run) in members.iter_mut().zip(&mut runs) {
            run.prepare(m);
        }
        let t1 = Instant::now();
        {
            let _s = trace::span(TraceLevel::Stages, "engine", "stage_loss_grad");
            exec.loss_grad(members, &mut runs);
        }
        let t2 = Instant::now();
        {
            let _s = trace::span(TraceLevel::Stages, "engine", "stage_step");
            exec.step(members);
        }
        let t3 = Instant::now();
        for (m, run) in members.iter_mut().zip(&mut runs) {
            run.finish(m, t2 - t1, t3 - t2, t3 - t0);
        }
    }
    Ok(members
        .iter()
        .zip(runs)
        .enumerate()
        .map(|(j, (m, run))| {
            let capture = m.stop_after.is_some() && !run.expired;
            run.into_segment(m, capture.then(|| exec.adam_state(j)))
        })
        .collect())
}

/// How a group runs its `LossGrad` and `Step` stages.
enum Executor {
    /// A group of one: the model's own gradient and one Adam.
    Solo { adam: Adam, grads: Gradients },
    /// Two or more jobs through the batched kernels.
    Batched(Box<BatchedExecutor>),
}

impl Executor {
    fn solo(m: &Member<'_, '_>) -> Executor {
        let mut adam = Adam::new(m.net, m.opts.adam.clone());
        if let Some(st) = m.start {
            adam.restore_state(st.adam_t, &st.adam_m, &st.adam_v);
        }
        Executor::Solo {
            adam,
            grads: m.net.zero_gradients(),
        }
    }

    fn loss_grad(&mut self, members: &[Member<'_, '_>], runs: &mut [JobRun]) {
        match self {
            Executor::Solo { grads, .. } => {
                grads.zero();
                members[0]
                    .model
                    .loss_and_grad(members[0].net, &mut *runs[0].ws, grads);
            }
            Executor::Batched(b) => b.loss_grad(members, runs),
        }
    }

    fn step(&mut self, members: &mut [Member<'_, '_>]) {
        match self {
            Executor::Solo { adam, grads } => adam.step(members[0].net, grads),
            Executor::Batched(b) => b.step(members),
        }
    }

    /// Member `j`'s Adam step count and moments.
    fn adam_state(&self, j: usize) -> (usize, Vec<f64>, Vec<f64>) {
        match self {
            Executor::Solo { adam, .. } => {
                let (t, m, v) = adam.state();
                (t, m.to_vec(), v.to_vec())
            }
            Executor::Batched(b) => b.adam_state(j),
        }
    }
}

/// One job's loop state between iterations: RNG, clocks, history,
/// batch indices, model workspace and the optional mutable point set.
pub(crate) struct JobRun {
    /// The next iteration to run.
    iter: usize,
    train_clock: f64,
    record_clock: f64,
    history: Vec<Record>,
    rng: Rng64,
    idx: Vec<usize>,
    bidx: Vec<usize>,
    /// Effective boundary batch.
    bb: usize,
    pub(crate) ws: Box<dyn ModelWorkspace>,
    points: Option<PointSet>,
    changes: PointChanges,
    points_changed: bool,
    /// Refresh, adapt, draw and gather times of the current iteration.
    prep: [Duration; 4],
    expired: bool,
}

impl JobRun {
    /// The one restore path: checks the member's stop boundary and batch
    /// size, then restores net, sampler, RNG, point set, clocks and
    /// history from `m.start` (or starts fresh) and builds the
    /// workspaces. Adam moments are checked here and loaded by the
    /// executor.
    fn restore(m: &mut Member<'_, '_>) -> Result<JobRun, String> {
        let opts = m.opts;
        if let Some(stop) = m.stop_after {
            if stop == 0 || stop > opts.iterations {
                return Err(format!("stop_after {stop} outside 1..={}", opts.iterations));
            }
            if let Some(st) = m.start.filter(|st| st.iteration >= stop) {
                return Err(format!(
                    "state is already at iteration {}, past stop_after {stop}",
                    st.iteration
                ));
            }
        }
        assert!(opts.batch_interior > 0, "batch_interior must be positive");
        assert!(
            opts.batch_interior <= m.model.num_interior(),
            "batch larger than dataset"
        );
        // The mutable collocation set, owned by the engine whenever the
        // sampler adapts points. Seeded from the model; overwritten from
        // the checkpoint on resume.
        let mut points: Option<PointSet> = if m.sampler.adapts_points() {
            let cloud = m.model.interior_cloud().unwrap_or_else(|| {
                panic!(
                    "sampler {:?} adapts the point set but the model provides no interior_cloud",
                    m.sampler.name()
                )
            });
            Some(PointSet::new(cloud))
        } else {
            None
        };
        let mut iter = 0usize;
        let mut train_clock = 0.0;
        let mut record_clock = 0.0;
        let mut history: Vec<Record> = Vec::new();
        let mut rng = Rng64::new(opts.seed);
        if let Some(st) = m.start {
            if st.sampler_name != m.sampler.name() {
                return Err(format!(
                    "state saved with sampler {:?}, resuming with {:?}",
                    st.sampler_name,
                    m.sampler.name()
                ));
            }
            let restored = st.net.restore().map_err(|e| format!("net restore: {e}"))?;
            if restored.num_params() != m.net.num_params() {
                return Err(format!(
                    "state has {} parameters, network has {}",
                    restored.num_params(),
                    m.net.num_params()
                ));
            }
            *m.net = restored;
            rng = Rng64::from_state(st.rng_state, st.rng_gauss_spare);
            m.sampler.load_state(&st.sampler_state)?;
            match &st.points {
                Some(p) => {
                    let Some(reference) = points.as_ref() else {
                        return Err(format!(
                            "state carries a mutated point set but sampler {:?} \
                             does not adapt points",
                            m.sampler.name()
                        ));
                    };
                    if p.dim != reference.dim() {
                        return Err(format!(
                            "state point set has dim {}, model has dim {}",
                            p.dim,
                            reference.dim()
                        ));
                    }
                    if p.coords.len() < p.dim * opts.batch_interior {
                        return Err(format!(
                            "state point set has {} points, batch_interior is {}",
                            p.coords.len() / p.dim,
                            opts.batch_interior
                        ));
                    }
                    let ps = PointSet::from_parts(p.dim, p.coords.clone(), p.epoch);
                    m.sampler.sync_points(&ps);
                    points = Some(ps);
                }
                // v1 state (or pre-mutation run): keep the model's
                // initial cloud.
                None => {
                    if let Some(ps) = &points {
                        m.sampler.sync_points(ps);
                    }
                }
            }
            if st.adam_m.len() != m.net.num_params() {
                return Err(format!(
                    "state has {} Adam moments, network has {} parameters",
                    st.adam_m.len(),
                    m.net.num_params()
                ));
            }
            history = st.history.clone();
            train_clock = st.train_seconds;
            record_clock = st.record_seconds;
            iter = st.iteration;
        }
        let bb = boundary_batch(m.model, opts);
        // Per-run workspaces: everything the hot loop touches is
        // allocated here, once.
        Ok(JobRun {
            iter,
            train_clock,
            record_clock,
            history,
            rng,
            idx: Vec::with_capacity(opts.batch_interior),
            bidx: Vec::with_capacity(bb),
            bb,
            ws: m.model.make_workspace(m.net, opts.batch_interior, bb),
            points,
            changes: PointChanges::default(),
            points_changed: false,
            prep: [Duration::ZERO; 4],
            expired: false,
        })
    }

    /// `Refresh → Adapt → Draw → Gather` for the current iteration, each
    /// under its trace span and timed for the hooks.
    fn prepare(&mut self, m: &mut Member<'_, '_>) {
        let iter = self.iter;
        let t0 = Instant::now();
        {
            // The span is open while the sampler runs, so sampler
            // internals (and any background-rebuild request) parent
            // under it.
            let _s = trace::span(TraceLevel::Stages, "engine", "stage_refresh");
            let probe = Probe::with_points(m.net, m.model, self.points.as_ref());
            m.sampler.refresh(iter, &probe, &mut self.rng);
        }
        let t1 = Instant::now();
        self.points_changed = false;
        if let Some(ps) = self.points.as_mut() {
            let _s = trace::span(TraceLevel::Stages, "engine", "stage_adapt");
            {
                let probe = Probe::new(m.net, m.model);
                m.sampler.adapt(ps, iter, &probe, &mut self.rng);
            }
            if ps.drain_changes(&mut self.changes) {
                assert!(
                    m.opts.batch_interior <= ps.len(),
                    "adapt at iteration {iter} shrank the point set to {} points, \
                     below batch_interior {}",
                    ps.len(),
                    m.opts.batch_interior
                );
                m.sampler.on_points_changed(ps, &self.changes);
                self.points_changed = true;
            }
        }
        let t2 = Instant::now();
        {
            let _s = trace::span(TraceLevel::Stages, "engine", "stage_draw");
            m.sampler
                .fill_batch(m.opts.batch_interior, &mut self.idx, &mut self.rng);
            self.bidx.clear();
            let n_boundary = m.model.num_boundary();
            for _ in 0..self.bb {
                self.bidx.push(self.rng.below(n_boundary));
            }
        }
        let t3 = Instant::now();
        {
            let _s = trace::span(TraceLevel::Stages, "engine", "stage_gather");
            match &self.points {
                Some(ps) => m
                    .model
                    .gather_from(ps.cloud(), &self.idx, &self.bidx, &mut *self.ws),
                None => m.model.gather(&self.idx, &self.bidx, &mut *self.ws),
            }
        }
        self.prep = [t1 - t0, t2 - t1, t3 - t2, t3.elapsed()];
    }

    /// Reports the iteration to the hooks, advances the training clock
    /// by `iter_dt` (the whole group iteration) and records at
    /// recording points.
    fn finish(
        &mut self,
        m: &mut Member<'_, '_>,
        loss_grad: Duration,
        step: Duration,
        iter_dt: Duration,
    ) {
        let iter = self.iter;
        let [refresh, adapt, draw, gather] = self.prep;
        for h in m.hooks.iter_mut() {
            h.on_stage(iter, Stage::Refresh, refresh);
            h.on_stage(iter, Stage::Adapt, adapt);
            h.on_stage(iter, Stage::Draw, draw);
            h.on_stage(iter, Stage::Gather, gather);
            h.on_stage(iter, Stage::LossGrad, loss_grad);
            h.on_stage(iter, Stage::Step, step);
            if self.points_changed {
                let ps = self.points.as_ref().expect("changed set exists");
                h.on_points(iter, ps.len(), &self.changes);
            }
            h.on_iteration(iter);
        }
        self.train_clock += m.opts.synthetic_dt.unwrap_or(iter_dt.as_secs_f64());
        self.iter += 1;

        if iter.is_multiple_of(m.opts.record_every) || iter + 1 == m.opts.iterations {
            let r0 = Instant::now();
            let record = {
                let _s = trace::span(TraceLevel::Stages, "engine", "stage_record");
                // Post-step loss: the record pairs this loss with the
                // weights it was computed with (and with val_errors).
                let train_loss = match &self.points {
                    Some(ps) => m
                        .model
                        .batch_loss_from(m.net, ps.cloud(), &self.idx, &self.bidx),
                    None => m.model.batch_loss(m.net, &self.idx, &self.bidx),
                };
                let val_errors = match m.validator {
                    Some(v) => v.val_errors(m.net),
                    None => Vec::new(),
                };
                Record {
                    iteration: iter,
                    seconds: self.train_clock,
                    train_loss,
                    val_errors,
                }
            };
            let rec_dt = r0.elapsed();
            for h in m.hooks.iter_mut() {
                h.on_stage(iter, Stage::Record, rec_dt);
                h.on_record(&record);
            }
            if m.opts.synthetic_dt.is_none() {
                self.record_clock += rec_dt.as_secs_f64();
            }
            self.history.push(record);
        }
    }

    /// The one capture path: the job's result, plus its full
    /// [`RunState`] when `adam` (the executor's moments for this job)
    /// is given.
    fn into_segment(
        self,
        m: &Member<'_, '_>,
        adam: Option<(usize, Vec<f64>, Vec<f64>)>,
    ) -> Segment {
        let state = adam.map(|(adam_t, adam_m, adam_v)| {
            let (rng_state, rng_gauss_spare) = self.rng.state();
            RunState {
                version: if self.points.is_some() { 2 } else { 1 },
                iteration: self.iter,
                train_seconds: self.train_clock,
                record_seconds: self.record_clock,
                net: Checkpoint::capture(m.net),
                adam_t,
                adam_m,
                adam_v,
                rng_state,
                rng_gauss_spare,
                history: self.history.clone(),
                sampler_name: m.sampler.name().to_string(),
                sampler_state: m.sampler.save_state(),
                points: self.points.as_ref().map(|ps| PointsCheckpoint {
                    dim: ps.dim(),
                    epoch: ps.epoch(),
                    coords: ps.coords().to_vec(),
                }),
            }
        });
        Segment {
            result: TrainResult {
                history: self.history,
                train_seconds: self.train_clock,
                record_seconds: self.record_clock,
                total_seconds: self.train_clock + self.record_clock,
                sampler: m.sampler.name().to_string(),
            },
            state,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::ModelWorkspace;
    use crate::sampler::UniformSampler;
    use sgm_graph::points::PointCloud;
    use sgm_json::{obj, Value};
    use sgm_linalg::dense::Matrix;
    use sgm_nn::activation::Activation;
    use sgm_nn::mlp::{BatchDerivatives, Gradients, MlpConfig, MlpWorkspace};
    use sgm_nn::optimizer::LrSchedule;
    use std::any::Any;

    /// Minimal engine-level model: mean-squared regression of the
    /// network against `target(x) = sin(2x)` (no PDE machinery). The
    /// stored `y` equals `target` of the stored `x` rows, so the index
    /// and coordinate paths agree bit-for-bit on unmutated points.
    struct Regression {
        x: Matrix,
        y: Vec<f64>,
    }

    fn target(x: f64) -> f64 {
        (2.0 * x).sin()
    }

    struct RegressionWs {
        xb: Matrix,
        yb: Vec<f64>,
        nn: MlpWorkspace,
        adj: BatchDerivatives,
    }

    impl ModelWorkspace for RegressionWs {
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    impl Regression {
        fn loss_at(&self, net: &Mlp, idx: &[usize]) -> f64 {
            let coords = self.inputs(idx);
            let out = net.forward(&coords);
            idx.iter()
                .enumerate()
                .map(|(r, &i)| (out.get(r, 0) - self.y[i]).powi(2))
                .sum::<f64>()
                / idx.len().max(1) as f64
        }
        fn coord_losses(&self, net: &Mlp, coords: &Matrix) -> Vec<f64> {
            let out = net.forward(coords);
            (0..coords.rows())
                .map(|r| (out.get(r, 0) - target(coords.get(r, 0))).powi(2))
                .collect()
        }
    }

    impl LossModel for Regression {
        fn num_interior(&self) -> usize {
            self.x.rows()
        }
        fn num_boundary(&self) -> usize {
            0
        }
        fn make_workspace(
            &self,
            net: &Mlp,
            batch_interior: usize,
            _batch_boundary: usize,
        ) -> Box<dyn ModelWorkspace> {
            Box::new(RegressionWs {
                xb: Matrix::zeros(batch_interior, self.x.cols()),
                yb: vec![0.0; batch_interior],
                nn: net.make_workspace(batch_interior, 0),
                adj: BatchDerivatives::zeros(batch_interior, 1, 0),
            })
        }
        fn gather(
            &self,
            interior_idx: &[usize],
            _boundary_idx: &[usize],
            ws: &mut dyn ModelWorkspace,
        ) {
            let ws: &mut RegressionWs = ws.as_any_mut().downcast_mut().unwrap();
            for (r, &i) in interior_idx.iter().enumerate() {
                for c in 0..self.x.cols() {
                    ws.xb.set(r, c, self.x.get(i, c));
                }
                ws.yb[r] = self.y[i];
            }
        }
        fn loss_and_grad(
            &self,
            net: &Mlp,
            ws: &mut dyn ModelWorkspace,
            grads: &mut Gradients,
        ) -> f64 {
            let ws: &mut RegressionWs = ws.as_any_mut().downcast_mut().unwrap();
            net.forward_with_derivs_ws(&ws.xb, &[], &mut ws.nn);
            let b = ws.xb.rows();
            let inv = 1.0 / b as f64;
            let mut loss = 0.0;
            for r in 0..b {
                let d = ws.nn.derivs().values.get(r, 0) - ws.yb[r];
                loss += d * d * inv;
                ws.adj.values.set(r, 0, 2.0 * d * inv);
            }
            net.backward_ws(&mut ws.nn, &ws.adj, grads);
            loss
        }
        fn batch_loss(&self, net: &Mlp, interior_idx: &[usize], _boundary_idx: &[usize]) -> f64 {
            self.loss_at(net, interior_idx)
        }
        fn sample_losses(&self, net: &Mlp, idx: &[usize]) -> Vec<f64> {
            idx.iter().map(|&i| self.loss_at(net, &[i])).collect()
        }
        fn outputs(&self, net: &Mlp, idx: &[usize]) -> Matrix {
            net.forward(&self.inputs(idx))
        }
        fn inputs(&self, idx: &[usize]) -> Matrix {
            let mut m = Matrix::zeros(idx.len(), self.x.cols());
            for (r, &i) in idx.iter().enumerate() {
                for c in 0..self.x.cols() {
                    m.set(r, c, self.x.get(i, c));
                }
            }
            m
        }
        fn interior_cloud(&self) -> Option<PointCloud> {
            let mut flat = Vec::with_capacity(self.x.rows());
            for r in 0..self.x.rows() {
                flat.push(self.x.get(r, 0));
            }
            Some(PointCloud::from_flat(1, flat))
        }
        fn gather_from(
            &self,
            points: &PointCloud,
            interior_idx: &[usize],
            _boundary_idx: &[usize],
            ws: &mut dyn ModelWorkspace,
        ) {
            let ws: &mut RegressionWs = ws.as_any_mut().downcast_mut().unwrap();
            for (r, &i) in interior_idx.iter().enumerate() {
                let x = points.point(i)[0];
                ws.xb.set(r, 0, x);
                ws.yb[r] = target(x);
            }
        }
        fn batch_loss_from(
            &self,
            net: &Mlp,
            points: &PointCloud,
            interior_idx: &[usize],
            _boundary_idx: &[usize],
        ) -> f64 {
            let mut coords = Matrix::zeros(interior_idx.len(), 1);
            for (r, &i) in interior_idx.iter().enumerate() {
                coords.set(r, 0, points.point(i)[0]);
            }
            let losses = self.coord_losses(net, &coords);
            losses.iter().sum::<f64>() / losses.len().max(1) as f64
        }
        fn losses_at(&self, net: &Mlp, coords: &Matrix) -> Vec<f64> {
            self.coord_losses(net, coords)
        }
    }

    fn setup(seed: u64) -> (Mlp, Regression) {
        let mut rng = Rng64::new(seed);
        let n = 64;
        let x = Matrix::gaussian(n, 1, &mut rng);
        let y = (0..n).map(|i| (2.0 * x.get(i, 0)).sin()).collect();
        let net = Mlp::new(
            &MlpConfig {
                input_dim: 1,
                output_dim: 1,
                hidden_width: 12,
                hidden_layers: 2,
                activation: Activation::Tanh,
                fourier: None,
            },
            &mut Rng64::new(seed + 1),
        );
        (net, Regression { x, y })
    }

    /// Exactly representable synthetic step so accumulated clocks are
    /// exact in the assertions below.
    const DT: f64 = 1.0 / 1024.0;

    fn opts(iterations: usize) -> TrainOptions {
        TrainOptions {
            iterations,
            batch_interior: 16,
            batch_boundary: 0,
            adam: AdamConfig {
                lr: 1e-2,
                schedule: LrSchedule::Constant,
                ..AdamConfig::default()
            },
            seed: 3,
            record_every: 20,
            max_seconds: None,
            synthetic_dt: Some(DT),
        }
    }

    #[test]
    fn training_reduces_loss_and_hooks_see_all_stages() {
        let (mut net, model) = setup(40);
        let mut sampler = UniformSampler::new(model.num_interior());
        let mut times = crate::hooks::StageTimes::new();
        let o = opts(200);
        let result = {
            let mut hooks: [&mut dyn Hook; 1] = [&mut times];
            Trainer {
                net: &mut net,
                model: &model,
            }
            .run_hooked(&mut sampler, None, &o, &mut hooks)
        };
        let first = result.history.first().unwrap().train_loss;
        let last = result.history.last().unwrap().train_loss;
        assert!(last < 0.5 * first, "loss did not drop: {first} -> {last}");
        assert_eq!(times.iterations(), 200);
        // With a synthetic clock the result's clocks are deterministic.
        assert_eq!(result.train_seconds, 200.0 * DT);
        assert_eq!(result.record_seconds, 0.0);
        assert_eq!(result.total_seconds, result.train_seconds);
        assert_eq!(result.history.last().unwrap().iteration, 199);
    }

    #[test]
    fn record_seconds_use_training_clock_only() {
        let (mut net, model) = setup(41);
        let mut sampler = UniformSampler::new(model.num_interior());
        let o = opts(50);
        let result = Trainer {
            net: &mut net,
            model: &model,
        }
        .run(&mut sampler, None, &o);
        for r in &result.history {
            assert_eq!(r.seconds, (r.iteration + 1) as f64 * DT);
        }
    }

    #[test]
    fn budget_counts_training_time() {
        let (mut net, model) = setup(42);
        let mut sampler = UniformSampler::new(model.num_interior());
        let o = TrainOptions {
            max_seconds: Some(10.5 * DT),
            record_every: 1,
            ..opts(1000)
        };
        let result = Trainer {
            net: &mut net,
            model: &model,
        }
        .run(&mut sampler, None, &o);
        // Iteration k starts only while the clock (k·DT) is below the
        // 10.5·DT budget, so iterations 0..=10 run and 11 does not.
        assert_eq!(result.history.last().unwrap().iteration, 10);
    }

    #[test]
    fn resume_matches_uninterrupted_run() {
        let o = opts(60);
        let (mut net_a, model) = setup(43);
        let mut sampler_a = UniformSampler::new(model.num_interior());
        let full = Trainer {
            net: &mut net_a,
            model: &model,
        }
        .run(&mut sampler_a, None, &o);

        let (mut net_b, _) = setup(43);
        let mut sampler_b = UniformSampler::new(model.num_interior());
        let state = Trainer {
            net: &mut net_b,
            model: &model,
        }
        .run_until(&mut sampler_b, None, &o, 23);
        let state = RunState::from_json(&state.to_json().unwrap()).unwrap();

        let (mut net_c, _) = setup(43);
        let mut sampler_c = UniformSampler::new(model.num_interior());
        let resumed = Trainer {
            net: &mut net_c,
            model: &model,
        }
        .resume(&mut sampler_c, None, &o, &state)
        .unwrap();

        assert_eq!(full.history.len(), resumed.history.len());
        for (a, b) in full.history.iter().zip(&resumed.history) {
            assert_eq!(a.iteration, b.iteration);
            assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
            assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
        }
        for (a, b) in net_a.params().iter().zip(&net_c.params()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Test sampler that appends `add` points every `tau` iterations
    /// (uniform coordinates from the engine RNG) and draws uniformly
    /// over the current set.
    pub(crate) struct Densify {
        pub(crate) n: usize,
        pub(crate) tau: usize,
        pub(crate) add: usize,
    }

    impl Sampler for Densify {
        fn name(&self) -> &str {
            "densify-test"
        }
        fn fill_batch(&mut self, batch_size: usize, out: &mut Vec<usize>, rng: &mut Rng64) {
            out.clear();
            for _ in 0..batch_size {
                out.push(rng.below(self.n));
            }
        }
        fn adapts_points(&self) -> bool {
            true
        }
        fn adapt(
            &mut self,
            points: &mut PointSet,
            iter: usize,
            _probe: &Probe<'_>,
            rng: &mut Rng64,
        ) {
            if iter > 0 && iter.is_multiple_of(self.tau) {
                for _ in 0..self.add {
                    points.push(&[rng.uniform_in(-1.0, 1.0)]);
                }
            }
        }
        fn on_points_changed(&mut self, points: &PointSet, _changes: &PointChanges) {
            self.n = points.len();
        }
        fn sync_points(&mut self, points: &PointSet) {
            self.n = points.len();
        }
        fn save_state(&self) -> Value {
            obj([("n", Value::Num(self.n as f64))])
        }
        fn load_state(&mut self, state: &Value) -> Result<(), String> {
            self.n = state.req_usize("n").map_err(|e| e.to_string())?;
            Ok(())
        }
    }

    /// Test sampler that *moves* one point per `tau` iterations to a
    /// fresh coordinate from the engine RNG (fixed set size).
    struct Jitter {
        n: usize,
        tau: usize,
    }

    impl Sampler for Jitter {
        fn name(&self) -> &str {
            "jitter-test"
        }
        fn fill_batch(&mut self, batch_size: usize, out: &mut Vec<usize>, rng: &mut Rng64) {
            out.clear();
            for _ in 0..batch_size {
                out.push(rng.below(self.n));
            }
        }
        fn adapts_points(&self) -> bool {
            true
        }
        fn adapt(
            &mut self,
            points: &mut PointSet,
            iter: usize,
            _probe: &Probe<'_>,
            rng: &mut Rng64,
        ) {
            if iter > 0 && iter.is_multiple_of(self.tau) {
                let i = rng.below(points.len());
                points.set_point(i, &[rng.uniform_in(-1.0, 1.0)]);
            }
        }
    }

    /// Test sampler that truncates the set below the batch size.
    struct Shrinker;

    impl Sampler for Shrinker {
        fn name(&self) -> &str {
            "shrinker-test"
        }
        fn fill_batch(&mut self, batch_size: usize, out: &mut Vec<usize>, rng: &mut Rng64) {
            out.clear();
            for _ in 0..batch_size {
                out.push(rng.below(4));
            }
        }
        fn adapts_points(&self) -> bool {
            true
        }
        fn adapt(
            &mut self,
            points: &mut PointSet,
            iter: usize,
            _probe: &Probe<'_>,
            _rng: &mut Rng64,
        ) {
            if iter == 3 {
                points.truncate(4);
            }
        }
    }

    #[derive(Default)]
    struct PointsLog {
        events: Vec<(usize, usize, usize, usize, usize)>,
    }

    impl Hook for PointsLog {
        fn on_points(&mut self, iter: usize, total: usize, changes: &crate::PointChanges) {
            self.events.push((
                iter,
                total,
                changes.moved.len(),
                changes.added,
                changes.dropped,
            ));
        }
    }

    #[test]
    fn adapt_growth_keeps_batches_valid_and_notifies_hooks() {
        let (mut net, model) = setup(50);
        let n0 = model.num_interior();
        let mut sampler = Densify {
            n: n0,
            tau: 10,
            add: 8,
        };
        let mut log = PointsLog::default();
        let o = opts(45);
        let result = {
            let mut hooks: [&mut dyn Hook; 1] = [&mut log];
            Trainer {
                net: &mut net,
                model: &model,
            }
            .run_hooked(&mut sampler, None, &o, &mut hooks)
        };
        // Adapt fired at iterations 10, 20, 30, 40.
        assert_eq!(log.events.len(), 4);
        for (k, &(iter, total, moved, added, dropped)) in log.events.iter().enumerate() {
            assert_eq!(iter, 10 * (k + 1));
            assert_eq!(total, n0 + 8 * (k + 1));
            assert_eq!((moved, added, dropped), (0, 8, 0));
        }
        assert_eq!(sampler.n, n0 + 32);
        // Batches over the grown set trained without index trouble and
        // the loss stayed finite.
        assert!(result.history.iter().all(|r| r.train_loss.is_finite()));
    }

    #[test]
    #[should_panic(expected = "below batch_interior")]
    fn adapt_shrinking_below_batch_panics_descriptively() {
        let (mut net, model) = setup(51);
        let mut sampler = Shrinker;
        let o = opts(10);
        let _ = Trainer {
            net: &mut net,
            model: &model,
        }
        .run(&mut sampler, None, &o);
    }

    #[test]
    fn adaptive_resume_matches_uninterrupted_run_across_mutations() {
        // Both samplers mutate the set before and after the checkpoint
        // at iteration 23, so resume must restore mutated coordinates
        // (growth AND moves) bit-exactly.
        let o = opts(60);
        for case in 0..2 {
            let mk: &dyn Fn(usize) -> Box<dyn Sampler> = if case == 0 {
                &|n| Box::new(Densify { n, tau: 7, add: 3 })
            } else {
                &|n| Box::new(Jitter { n, tau: 7 })
            };
            let (mut net_a, model) = setup(43);
            let mut sampler_a = mk(model.num_interior());
            let full = Trainer {
                net: &mut net_a,
                model: &model,
            }
            .run(sampler_a.as_mut(), None, &o);

            let (mut net_b, _) = setup(43);
            let mut sampler_b = mk(model.num_interior());
            let state = Trainer {
                net: &mut net_b,
                model: &model,
            }
            .run_until(sampler_b.as_mut(), None, &o, 23);
            let state = RunState::from_json(&state.to_json().unwrap()).unwrap();
            assert_eq!(state.version, 2, "adaptive runs checkpoint as v2");
            assert!(state.points.is_some());

            let (mut net_c, _) = setup(43);
            let mut sampler_c = mk(model.num_interior());
            let resumed = Trainer {
                net: &mut net_c,
                model: &model,
            }
            .resume(sampler_c.as_mut(), None, &o, &state)
            .unwrap();

            assert_eq!(full.history.len(), resumed.history.len());
            for (a, b) in full.history.iter().zip(&resumed.history) {
                assert_eq!(a.iteration, b.iteration);
                assert_eq!(
                    a.train_loss.to_bits(),
                    b.train_loss.to_bits(),
                    "case {case} iter {}",
                    a.iteration
                );
            }
            for (a, b) in net_a.params().iter().zip(&net_c.params()) {
                assert_eq!(a.to_bits(), b.to_bits(), "case {case}");
            }
        }
    }

    #[test]
    fn chained_segments_match_uninterrupted_run() {
        // Slice the run into uneven segments through fresh net/sampler
        // instances each time (the server's scheduling pattern) and
        // compare against one uninterrupted run, bit for bit.
        let o = opts(60);
        let (mut net_a, model) = setup(47);
        let mut sampler_a = UniformSampler::new(model.num_interior());
        let full = Trainer {
            net: &mut net_a,
            model: &model,
        }
        .run(&mut sampler_a, None, &o);

        let mut state: Option<RunState> = None;
        let mut last = None;
        for stop in [7usize, 8, 31, 60] {
            let (mut net, _) = setup(47);
            let mut sampler = UniformSampler::new(model.num_interior());
            let seg = Trainer {
                net: &mut net,
                model: &model,
            }
            .run_segment(&mut sampler, None, &o, &mut [], state.as_ref(), stop)
            .unwrap();
            let st = seg.state.expect("segment boundary state");
            assert_eq!(st.iteration, stop);
            // Round-trip through JSON, as the server's checkpoint
            // download / warm-resume path does.
            state = Some(RunState::from_json(&st.to_json().unwrap()).unwrap());
            last = Some((seg.result, net));
        }
        let (result, net) = last.unwrap();
        assert_eq!(full.history.len(), result.history.len());
        for (a, b) in full.history.iter().zip(&result.history) {
            assert_eq!(a.iteration, b.iteration);
            assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
            assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
        }
        for (a, b) in net_a.params().iter().zip(&net.params()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The final segment (stop_after == iterations) still yields a
        // checkpoint at the end of the run.
        assert_eq!(state.unwrap().iteration, 60);
    }

    #[test]
    fn run_segment_rejects_bad_boundaries() {
        let o = opts(20);
        let (mut net, model) = setup(48);
        let mut sampler = UniformSampler::new(model.num_interior());
        let mut t = Trainer {
            net: &mut net,
            model: &model,
        };
        assert!(t
            .run_segment(&mut sampler, None, &o, &mut [], None, 0)
            .is_err());
        assert!(t
            .run_segment(&mut sampler, None, &o, &mut [], None, 21)
            .is_err());
        let seg = t
            .run_segment(&mut sampler, None, &o, &mut [], None, 10)
            .unwrap();
        let st = seg.state.unwrap();
        // A boundary at or before the state's iteration is an error,
        // not a panic — the server feeds client-controlled values here.
        let mut s2 = UniformSampler::new(model.num_interior());
        let err = t
            .run_segment(&mut s2, None, &o, &mut [], Some(&st), 10)
            .unwrap_err();
        assert!(err.contains("past stop_after"), "{err}");
    }

    #[test]
    fn resume_rejects_point_state_with_draw_only_sampler() {
        let o = opts(30);
        let (mut net, model) = setup(52);
        let mut adaptive = Densify {
            n: model.num_interior(),
            tau: 5,
            add: 2,
        };
        let mut state = Trainer {
            net: &mut net,
            model: &model,
        }
        .run_until(&mut adaptive, None, &o, 12);
        // Pretend the state came from the uniform sampler: the point
        // set must still be rejected.
        state.sampler_name = "uniform".into();
        state.sampler_state = Value::Null;
        let mut uniform = UniformSampler::new(model.num_interior());
        let err = Trainer {
            net: &mut net,
            model: &model,
        }
        .resume(&mut uniform, None, &o, &state)
        .unwrap_err();
        assert!(err.contains("does not adapt"), "{err}");
    }

    #[test]
    fn resume_rejects_wrong_sampler() {
        let o = opts(30);
        let (mut net, model) = setup(44);
        let mut sampler = UniformSampler::new(model.num_interior());
        let mut state = Trainer {
            net: &mut net,
            model: &model,
        }
        .run_until(&mut sampler, None, &o, 5);
        state.sampler_name = "other".into();
        let err = Trainer {
            net: &mut net,
            model: &model,
        }
        .resume(&mut sampler, None, &o, &state);
        assert!(err.is_err());
    }
}
