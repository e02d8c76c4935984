//! Lockstep multi-model training through batched kernels.
//!
//! [`run_lockstep`] advances a group of same-architecture training jobs
//! one shared iteration at a time through the engine's one run path:
//! every job restores, refreshes, adapts, draws, gathers, records and
//! checkpoints exactly as a solo [`Trainer`](crate::Trainer) run does,
//! but for a group of two or more the network forward/backward and the
//! Adam update run once for the whole group through
//! [`BatchedMlp`]/[`BatchedAdam`] — one register-tiled pass instead of
//! `B` sequential ones. A group of one runs solo. [`ParamSweep`] builds
//! on it to train a whole parameter family (the paper's §4.2
//! annular-ring sweep) to completion.
//!
//! The batched pass pays off only with full SIMD lanes and wide
//! networks; with few lanes or narrow networks it is slower than `B`
//! sequential solo runs (DESIGN.md §6f has the measurements).
//!
//! # Bit-identity contract
//!
//! Per job, every trained parameter, Adam moment, RNG draw, point-set
//! mutation, recorded loss and captured [`RunState`] is
//! **bit-identical** to running that job alone through
//! [`Trainer::run_segment`](crate::Trainer) on the same SIMD tier — the
//! batched kernels evaluate the same per-element chains. The only
//! divergence is *measured* wall-clock accounting: a lockstep iteration
//! charges the full group-iteration duration to every job, and each
//! job's hooks see the shared group pass as its `LossGrad` and `Step`
//! times. Under [`TrainOptions::synthetic_dt`] (what every determinism
//! test uses) the clocks are bit-identical too.
//!
//! # Constraints
//!
//! All jobs in one group must share: network architecture,
//! `batch_interior`, effective boundary batch, `diff_dims`, Adam
//! `beta1`/`beta2`/`eps`, and remaining step count. Learning rates,
//! schedules, seeds, samplers (point-adapting ones included), datasets
//! and record cadences may differ per job.

use crate::engine::{boundary_batch, run_group, JobRun, Member, Segment, TrainOptions};
use crate::hooks::Hook;
use crate::model::{BatchedLossModel, Validator};
use crate::result::TrainResult;
use crate::runstate::RunState;
use crate::sampler::Sampler;
use sgm_linalg::dense::Matrix;
use sgm_nn::batched::{BatchedAdam, BatchedGradients, BatchedMlp, BatchedWorkspace};
use sgm_nn::mlp::{BatchDerivatives, Mlp};

/// One member of a lockstep group: a training job with an optional
/// resume state and a stop boundary, exactly like a
/// [`Trainer::run_segment`](crate::Trainer) call.
pub struct MultiJob<'a> {
    /// The network being trained (overwritten on restore, updated in
    /// place every iteration).
    pub net: &'a mut Mlp,
    /// The training objective.
    pub model: &'a dyn BatchedLossModel,
    /// Batch sampler.
    pub sampler: &'a mut dyn Sampler,
    /// Off-clock validation, recorded with each history entry.
    pub validator: Option<&'a dyn Validator>,
    /// Loop options (iteration count, batches, Adam, seed, cadence).
    pub opts: &'a TrainOptions,
    /// Per-stage instrumentation of this job.
    pub hooks: Vec<&'a mut dyn Hook>,
    /// Resume state from a previous segment, `None` for a fresh start.
    pub start: Option<&'a RunState>,
    /// Train up to and including iteration `stop_after - 1`, then
    /// capture state at the boundary.
    pub stop_after: usize,
}

impl std::fmt::Debug for MultiJob<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiJob")
            .field("stop_after", &self.stop_after)
            .finish_non_exhaustive()
    }
}

/// Advances every job in lockstep to its `stop_after` boundary (all
/// jobs must have the same number of remaining steps) and returns one
/// [`Segment`] per job, in order.
///
/// Each returned [`Segment::state`] is `Some` at the reached boundary.
/// If any job's `max_seconds` budget expires, the whole group stops at
/// that iteration boundary: the expired jobs report `state: None`
/// (their run is over, matching solo semantics) and the rest report the
/// early boundary in `state` — inspect `state.iteration` and regroup to
/// continue, as [`ParamSweep::run`] does.
///
/// # Errors
/// Returns a message when the group constraints are violated (mixed
/// architectures, batch shapes, `diff_dims`, Adam betas, unequal step
/// counts, or a state mismatch).
///
/// # Panics
/// Panics on zero/oversized interior batches (as the solo engine does).
pub fn run_lockstep(jobs: &mut [MultiJob<'_>]) -> Result<Vec<Segment>, String> {
    if jobs.is_empty() {
        return Ok(Vec::new());
    }
    check_group(jobs)?;
    let mut members: Vec<Member<'_, '_>> = jobs
        .iter_mut()
        .map(|job| Member {
            net: &mut *job.net,
            model: job.model,
            batched: Some(job.model),
            sampler: &mut *job.sampler,
            validator: job.validator,
            opts: job.opts,
            hooks: &mut job.hooks,
            start: job.start,
            stop_after: Some(job.stop_after),
        })
        .collect();
    run_group(&mut members)
}

/// The lockstep group constraints, checked against job 0.
fn check_group(jobs: &[MultiJob<'_>]) -> Result<(), String> {
    let j0 = &jobs[0];
    let remaining = |job: &MultiJob<'_>| {
        job.stop_after
            .saturating_sub(job.start.map_or(0, |s| s.iteration))
    };
    let bb = boundary_batch(j0.model, j0.opts);
    let (adam0, steps) = (&j0.opts.adam, remaining(j0));
    for (j, job) in jobs.iter().enumerate().skip(1) {
        let a = &job.opts.adam;
        let err = if job.net.config() != j0.net.config() {
            "network architecture differs from job 0".to_string()
        } else if job.opts.batch_interior != j0.opts.batch_interior {
            "batch_interior differs from job 0".to_string()
        } else if boundary_batch(job.model, job.opts) != bb {
            "effective boundary batch differs from job 0".to_string()
        } else if job.model.diff_dims() != j0.model.diff_dims() {
            "diff_dims differ from job 0".to_string()
        } else if a.beta1 != adam0.beta1 || a.beta2 != adam0.beta2 || a.eps != adam0.eps {
            "Adam beta1/beta2/eps differ from job 0".to_string()
        } else if remaining(job) != steps {
            format!(
                "{} remaining steps, job 0 has {steps} — lockstep requires equal \
                 remaining step counts",
                remaining(job)
            )
        } else {
            continue;
        };
        return Err(format!("job {j}: {err}"));
    }
    Ok(())
}

/// The batched `LossGrad` + `Step` executor of a lockstep group: one
/// interleaved forward/backward through [`BatchedMlp`] for all members
/// (each member seeding its own adjoints through
/// [`BatchedLossModel`]), then one [`BatchedAdam`] update written back
/// into every member's network.
pub(crate) struct BatchedExecutor {
    packed: BatchedMlp,
    adam: BatchedAdam,
    grads: BatchedGradients,
    diff_dims: Vec<usize>,
    ws_i: BatchedWorkspace,
    ws_b: Option<BatchedWorkspace>,
    /// One member's deinterleaved derivatives and adjoints, reused
    /// member by member.
    derivs_i: BatchDerivatives,
    adj_i: BatchDerivatives,
    derivs_b: BatchDerivatives,
    adj_b: BatchDerivatives,
}

fn batched<'m>(m: &Member<'m, '_>) -> &'m dyn BatchedLossModel {
    m.batched.expect("lockstep members carry a batched model")
}

impl BatchedExecutor {
    /// Packs the (restored) member networks and Adam states.
    pub(crate) fn new(members: &[Member<'_, '_>]) -> Self {
        let packed = {
            let refs: Vec<&Mlp> = members.iter().map(|m| &*m.net).collect();
            BatchedMlp::pack(&refs)
        };
        let cfgs: Vec<_> = members.iter().map(|m| m.opts.adam.clone()).collect();
        let mut adam = BatchedAdam::pack(&packed, &cfgs);
        for (j, m) in members.iter().enumerate() {
            if let Some(s) = m.start {
                adam.restore_lane(j, s.adam_t, &s.adam_m, &s.adam_v);
            }
        }
        let diff_dims = batched(&members[0]).diff_dims();
        let (bi, nd) = (members[0].opts.batch_interior, diff_dims.len());
        let bb = boundary_batch(members[0].model, members[0].opts);
        let out = packed.config().output_dim;
        BatchedExecutor {
            grads: packed.zero_gradients(),
            ws_i: packed.make_workspace(bi, nd),
            ws_b: (bb > 0).then(|| packed.make_workspace(bb, 0)),
            derivs_i: BatchDerivatives::zeros(bi, out, nd),
            adj_i: BatchDerivatives::zeros(bi, out, nd),
            derivs_b: BatchDerivatives::zeros(bb, out, 0),
            adj_b: BatchDerivatives::zeros(bb, out, 0),
            diff_dims,
            packed,
            adam,
        }
    }

    /// Interior and boundary loss gradients of every member's gathered
    /// batch, accumulated lane by lane into the shared gradients.
    pub(crate) fn loss_grad(&mut self, members: &[Member<'_, '_>], runs: &mut [JobRun]) {
        {
            let xs: Vec<&Matrix> = members
                .iter()
                .zip(runs.iter())
                .map(|(m, run)| batched(m).interior_input(&*run.ws))
                .collect();
            self.packed
                .forward_with_derivs_batched(&xs, &self.diff_dims, &mut self.ws_i);
        }
        for (j, (m, run)) in members.iter().zip(runs.iter_mut()).enumerate() {
            self.ws_i.extract_derivs(j, &mut self.derivs_i);
            batched(m).interior_adjoints(&mut *run.ws, &self.derivs_i, &mut self.adj_i);
            self.ws_i.set_adjoints(j, &self.adj_i);
        }
        self.grads.zero();
        self.packed
            .backward_batched(&mut self.ws_i, &mut self.grads);
        // Boundary term, sharing the same gradient accumulator.
        if let Some(ws_b) = self.ws_b.as_mut() {
            {
                let xs: Vec<&Matrix> = members
                    .iter()
                    .zip(runs.iter())
                    .map(|(m, run)| {
                        batched(m)
                            .boundary_input(&*run.ws)
                            .expect("bb > 0 implies boundary input")
                    })
                    .collect();
                self.packed.forward_with_derivs_batched(&xs, &[], ws_b);
            }
            for (j, (m, run)) in members.iter().zip(runs.iter_mut()).enumerate() {
                ws_b.extract_derivs(j, &mut self.derivs_b);
                batched(m).boundary_adjoints(&mut *run.ws, &self.derivs_b.values, &mut self.adj_b);
                ws_b.set_adjoints(j, &self.adj_b);
            }
            self.packed.backward_batched(ws_b, &mut self.grads);
        }
    }

    /// One Adam update for the group, written back into every member's
    /// network so probes and records see the stepped weights.
    pub(crate) fn step(&mut self, members: &mut [Member<'_, '_>]) {
        self.adam.step(&mut self.packed, &self.grads);
        for (j, m) in members.iter_mut().enumerate() {
            self.packed.extract_to(j, m.net);
        }
    }

    /// Member `j`'s Adam step count and moments.
    pub(crate) fn adam_state(&self, j: usize) -> (usize, Vec<f64>, Vec<f64>) {
        self.adam.lane_state(j)
    }
}

/// One member of a [`ParamSweep`]: a full training job run to
/// completion.
pub struct SweepJob<'a> {
    /// The network being trained.
    pub net: &'a mut Mlp,
    /// The training objective (one parameter instance of the family).
    pub model: &'a dyn BatchedLossModel,
    /// Batch sampler.
    pub sampler: &'a mut dyn Sampler,
    /// Off-clock validation.
    pub validator: Option<&'a dyn Validator>,
    /// Loop options.
    pub opts: &'a TrainOptions,
}

impl std::fmt::Debug for SweepJob<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepJob").finish_non_exhaustive()
    }
}

/// Trains a same-architecture parameter family as one lockstep group
/// instead of sequential solo runs — the batched path for the paper's
/// §4.2 annular-ring parameter sweep.
#[derive(Debug)]
pub struct ParamSweep;

impl ParamSweep {
    /// Runs every job to completion (its own `iterations` /
    /// `max_seconds`), stepping the whole family in lockstep segments.
    /// Jobs with differing iteration counts or expiring budgets are
    /// regrouped at segment boundaries; each job's outcome is
    /// bit-identical to a solo [`Trainer::run`](crate::Trainer) under
    /// `synthetic_dt`.
    ///
    /// # Errors
    /// Propagates [`run_lockstep`] constraint violations.
    pub fn run(jobs: &mut [SweepJob<'_>]) -> Result<Vec<TrainResult>, String> {
        let n = jobs.len();
        let mut states: Vec<Option<RunState>> = (0..n).map(|_| None).collect();
        let mut results: Vec<Option<TrainResult>> = (0..n).map(|_| None).collect();
        let mut active: Vec<usize> = (0..n).collect();
        while !active.is_empty() {
            // Largest segment every active job can run: to the nearest
            // completion boundary.
            let steps = active
                .iter()
                .map(|&j| {
                    let cur = states[j].as_ref().map_or(0, |s| s.iteration);
                    jobs[j].opts.iterations - cur
                })
                .min()
                .expect("active set is non-empty");
            let order: Vec<usize> = active.clone();
            let mut mjobs: Vec<MultiJob<'_>> = Vec::with_capacity(order.len());
            for (j, job) in jobs.iter_mut().enumerate() {
                if !order.contains(&j) {
                    continue;
                }
                let cur = states[j].as_ref().map_or(0, |s| s.iteration);
                mjobs.push(MultiJob {
                    net: &mut *job.net,
                    model: job.model,
                    sampler: &mut *job.sampler,
                    validator: job.validator,
                    opts: job.opts,
                    hooks: Vec::new(),
                    start: states[j].as_ref(),
                    stop_after: cur + steps,
                });
            }
            let segs = run_lockstep(&mut mjobs)?;
            active.clear();
            for (&j, seg) in order.iter().zip(segs) {
                results[j] = Some(seg.result);
                match seg.state {
                    // Budget expired: the job is done, final result kept.
                    None => {}
                    Some(st) => {
                        if st.iteration < jobs[j].opts.iterations {
                            active.push(j);
                        }
                        states[j] = Some(st);
                    }
                }
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every job ran"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::Densify;
    use crate::engine::Trainer;
    use crate::hooks::{Stage, StageTimes};
    use crate::model::{LossModel, ModelWorkspace};
    use crate::sampler::UniformSampler;
    use sgm_graph::points::PointCloud;
    use sgm_linalg::rng::Rng64;
    use sgm_nn::activation::Activation;
    use sgm_nn::mlp::{Gradients, MlpConfig, MlpWorkspace};
    use sgm_nn::optimizer::{AdamConfig, LrSchedule};
    use std::any::Any;

    /// Engine-level test objective with the same staged structure as a
    /// PINN model: interior loss `mean((u-y)²) + 0.1·mean((u')²)`
    /// (derivative-carrying, diff_dims = [0]) plus a boundary value
    /// term `mean(u(x_b)²)`.
    struct DerivReg {
        x: Matrix,
        y: Vec<f64>,
        bx: Matrix,
    }

    struct DerivRegWs {
        xi: Matrix,
        yi: Vec<f64>,
        nni: MlpWorkspace,
        adj_i: BatchDerivatives,
        bb: usize,
        xb: Matrix,
        nnb: MlpWorkspace,
        adj_b: BatchDerivatives,
    }

    impl ModelWorkspace for DerivRegWs {
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    impl DerivReg {
        fn new(seed: u64, n: usize, nb: usize) -> Self {
            let mut rng = Rng64::new(seed);
            let x = Matrix::gaussian(n, 1, &mut rng);
            let y = (0..n).map(|i| (2.0 * x.get(i, 0)).sin()).collect();
            let bx = Matrix::gaussian(nb, 1, &mut rng);
            DerivReg { x, y, bx }
        }

        /// Adjoint seeding shared by the solo and batched paths — both
        /// call exactly this arithmetic on bit-identical derivatives.
        fn seed_interior(
            &self,
            yi: &[f64],
            d: &BatchDerivatives,
            adj: &mut BatchDerivatives,
        ) -> f64 {
            let b = d.values.rows();
            let inv = 1.0 / b as f64;
            let mut loss = 0.0;
            adj.zero();
            for (r, &target) in yi.iter().enumerate().take(b) {
                let e = d.values.get(r, 0) - target;
                loss += e * e * inv;
                adj.values.set(r, 0, 2.0 * e * inv);
                let du = d.jac[0].get(r, 0);
                loss += 0.1 * du * du * inv;
                adj.jac[0].set(r, 0, 0.2 * du * inv);
            }
            loss
        }

        /// Loss of the batch gathered into `ws`: the gradient path's
        /// arithmetic on throwaway buffers.
        fn gathered_loss(&self, net: &Mlp, ws: &mut dyn ModelWorkspace) -> f64 {
            let ws: &mut DerivRegWs = ws.as_any_mut().downcast_mut().unwrap();
            net.forward_with_derivs_ws(&ws.xi, &[0], &mut ws.nni);
            let mut total = self.seed_interior(&ws.yi, ws.nni.derivs(), &mut ws.adj_i);
            if ws.bb > 0 {
                net.forward_with_derivs_ws(&ws.xb, &[], &mut ws.nnb);
                let DerivRegWs { nnb, adj_b, .. } = &mut *ws;
                total += self.seed_boundary(&nnb.derivs().values, adj_b);
            }
            total
        }

        fn gather_boundary(&self, boundary_idx: &[usize], ws: &mut DerivRegWs) {
            if ws.bb > 0 {
                for (r, &i) in boundary_idx.iter().enumerate() {
                    ws.xb.set(r, 0, self.bx.get(i, 0));
                }
            }
        }

        fn seed_boundary(&self, vals: &Matrix, adj: &mut BatchDerivatives) -> f64 {
            let b = vals.rows();
            let inv = 1.0 / b as f64;
            let mut loss = 0.0;
            adj.zero();
            for r in 0..b {
                let v = vals.get(r, 0);
                loss += v * v * inv;
                adj.values.set(r, 0, 2.0 * v * inv);
            }
            loss
        }
    }

    impl LossModel for DerivReg {
        fn num_interior(&self) -> usize {
            self.x.rows()
        }
        fn num_boundary(&self) -> usize {
            self.bx.rows()
        }
        fn make_workspace(
            &self,
            net: &Mlp,
            batch_interior: usize,
            batch_boundary: usize,
        ) -> Box<dyn ModelWorkspace> {
            Box::new(DerivRegWs {
                xi: Matrix::zeros(batch_interior, 1),
                yi: vec![0.0; batch_interior],
                nni: net.make_workspace(batch_interior, 1),
                adj_i: BatchDerivatives::zeros(batch_interior, 1, 1),
                bb: batch_boundary,
                xb: Matrix::zeros(batch_boundary, 1),
                nnb: net.make_workspace(batch_boundary, 0),
                adj_b: BatchDerivatives::zeros(batch_boundary, 1, 0),
            })
        }
        fn gather(
            &self,
            interior_idx: &[usize],
            boundary_idx: &[usize],
            ws: &mut dyn ModelWorkspace,
        ) {
            let ws: &mut DerivRegWs = ws.as_any_mut().downcast_mut().unwrap();
            for (r, &i) in interior_idx.iter().enumerate() {
                ws.xi.set(r, 0, self.x.get(i, 0));
                ws.yi[r] = self.y[i];
            }
            self.gather_boundary(boundary_idx, ws);
        }
        fn loss_and_grad(
            &self,
            net: &Mlp,
            ws: &mut dyn ModelWorkspace,
            grads: &mut Gradients,
        ) -> f64 {
            let ws: &mut DerivRegWs = ws.as_any_mut().downcast_mut().unwrap();
            net.forward_with_derivs_ws(&ws.xi, &[0], &mut ws.nni);
            let mut total = {
                let DerivRegWs { nni, yi, adj_i, .. } = &mut *ws;
                self.seed_interior(yi, nni.derivs(), adj_i)
            };
            net.backward_ws(&mut ws.nni, &ws.adj_i, grads);
            if ws.bb > 0 {
                net.forward_with_derivs_ws(&ws.xb, &[], &mut ws.nnb);
                total += {
                    let DerivRegWs { nnb, adj_b, .. } = &mut *ws;
                    self.seed_boundary(&nnb.derivs().values, adj_b)
                };
                net.backward_ws(&mut ws.nnb, &ws.adj_b, grads);
            }
            total
        }
        fn batch_loss(&self, net: &Mlp, interior_idx: &[usize], boundary_idx: &[usize]) -> f64 {
            let mut ws = self.make_workspace(net, interior_idx.len(), boundary_idx.len());
            self.gather(interior_idx, boundary_idx, &mut *ws);
            self.gathered_loss(net, &mut *ws)
        }
        fn sample_losses(&self, net: &Mlp, idx: &[usize]) -> Vec<f64> {
            idx.iter()
                .map(|&i| {
                    let o = net.forward(&self.inputs(&[i]));
                    let e = o.get(0, 0) - self.y[i];
                    e * e
                })
                .collect()
        }
        fn outputs(&self, net: &Mlp, idx: &[usize]) -> Matrix {
            net.forward(&self.inputs(idx))
        }
        fn inputs(&self, idx: &[usize]) -> Matrix {
            let mut m = Matrix::zeros(idx.len(), 1);
            for (r, &i) in idx.iter().enumerate() {
                m.set(r, 0, self.x.get(i, 0));
            }
            m
        }
        fn interior_cloud(&self) -> Option<PointCloud> {
            Some(PointCloud::from_flat(1, self.x.as_slice().to_vec()))
        }
        fn gather_from(
            &self,
            points: &PointCloud,
            interior_idx: &[usize],
            boundary_idx: &[usize],
            ws: &mut dyn ModelWorkspace,
        ) {
            let ws: &mut DerivRegWs = ws.as_any_mut().downcast_mut().unwrap();
            for (r, &i) in interior_idx.iter().enumerate() {
                let x = points.point(i)[0];
                ws.xi.set(r, 0, x);
                ws.yi[r] = (2.0 * x).sin();
            }
            self.gather_boundary(boundary_idx, ws);
        }
        fn batch_loss_from(
            &self,
            net: &Mlp,
            points: &PointCloud,
            interior_idx: &[usize],
            boundary_idx: &[usize],
        ) -> f64 {
            let mut ws = self.make_workspace(net, interior_idx.len(), boundary_idx.len());
            self.gather_from(points, interior_idx, boundary_idx, &mut *ws);
            self.gathered_loss(net, &mut *ws)
        }
        fn losses_at(&self, net: &Mlp, coords: &Matrix) -> Vec<f64> {
            let o = net.forward(coords);
            (0..coords.rows())
                .map(|r| (o.get(r, 0) - (2.0 * coords.get(r, 0)).sin()).powi(2))
                .collect()
        }
    }

    impl BatchedLossModel for DerivReg {
        fn diff_dims(&self) -> Vec<usize> {
            vec![0]
        }
        fn interior_input<'a>(&self, ws: &'a dyn ModelWorkspace) -> &'a Matrix {
            &ws.as_any().downcast_ref::<DerivRegWs>().unwrap().xi
        }
        fn boundary_input<'a>(&self, ws: &'a dyn ModelWorkspace) -> Option<&'a Matrix> {
            let ws = ws.as_any().downcast_ref::<DerivRegWs>().unwrap();
            (ws.bb > 0).then_some(&ws.xb)
        }
        fn interior_adjoints(
            &self,
            ws: &mut dyn ModelWorkspace,
            derivs: &BatchDerivatives,
            adj: &mut BatchDerivatives,
        ) -> f64 {
            let ws: &mut DerivRegWs = ws.as_any_mut().downcast_mut().unwrap();
            self.seed_interior(&ws.yi, derivs, adj)
        }
        fn boundary_adjoints(
            &self,
            _ws: &mut dyn ModelWorkspace,
            values: &Matrix,
            adj: &mut BatchDerivatives,
        ) -> f64 {
            self.seed_boundary(values, adj)
        }
    }

    const DT: f64 = 1.0 / 1024.0;

    fn mk_net(seed: u64) -> Mlp {
        Mlp::new(
            &MlpConfig {
                input_dim: 1,
                output_dim: 1,
                hidden_width: 12,
                hidden_layers: 2,
                activation: Activation::Tanh,
                fourier: None,
            },
            &mut Rng64::new(seed),
        )
    }

    fn mk_opts(iterations: usize, lr: f64, seed: u64) -> TrainOptions {
        TrainOptions {
            iterations,
            batch_interior: 16,
            batch_boundary: 8,
            adam: AdamConfig {
                lr,
                schedule: LrSchedule::Constant,
                ..AdamConfig::default()
            },
            seed,
            record_every: 10,
            max_seconds: None,
            synthetic_dt: Some(DT),
        }
    }

    fn solo_run(model: &DerivReg, net_seed: u64, opts: &TrainOptions) -> (Mlp, TrainResult) {
        let mut net = mk_net(net_seed);
        let mut sampler = UniformSampler::new(model.num_interior());
        let result = Trainer {
            net: &mut net,
            model,
        }
        .run(&mut sampler, None, opts);
        (net, result)
    }

    fn assert_same_run(a: &TrainResult, b: &TrainResult, na: &Mlp, nb: &Mlp, tag: &str) {
        assert_eq!(a.history.len(), b.history.len(), "{tag}: history length");
        for (x, y) in a.history.iter().zip(&b.history) {
            assert_eq!(x.iteration, y.iteration, "{tag}");
            assert_eq!(x.seconds.to_bits(), y.seconds.to_bits(), "{tag}");
            assert_eq!(
                x.train_loss.to_bits(),
                y.train_loss.to_bits(),
                "{tag} iter {}",
                x.iteration
            );
        }
        assert_eq!(
            a.train_seconds.to_bits(),
            b.train_seconds.to_bits(),
            "{tag}"
        );
        for (x, y) in na.params().iter().zip(&nb.params()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{tag}: params");
        }
    }

    /// A 3-job lockstep sweep (different datasets, seeds, learning
    /// rates and schedules) reproduces each solo run bit for bit.
    #[test]
    fn sweep_matches_solo_runs_bitwise() {
        let models: Vec<DerivReg> = (0..3).map(|i| DerivReg::new(60 + i, 64, 16)).collect();
        let optses = [
            mk_opts(50, 1e-2, 3),
            mk_opts(50, 3e-3, 4),
            TrainOptions {
                adam: AdamConfig {
                    lr: 5e-3,
                    schedule: LrSchedule::Exponential {
                        gamma: 0.9,
                        decay_steps: 7,
                    },
                    ..AdamConfig::default()
                },
                ..mk_opts(50, 5e-3, 5)
            },
        ];
        let solo: Vec<(Mlp, TrainResult)> = (0..3)
            .map(|i| solo_run(&models[i], 80 + i as u64, &optses[i]))
            .collect();

        let mut nets: Vec<Mlp> = (0..3).map(|i| mk_net(80 + i as u64)).collect();
        let mut samplers: Vec<UniformSampler> = models
            .iter()
            .map(|m| UniformSampler::new(m.num_interior()))
            .collect();
        let mut jobs: Vec<SweepJob<'_>> = nets
            .iter_mut()
            .zip(&models)
            .zip(&mut samplers)
            .zip(&optses)
            .map(|(((net, model), sampler), opts)| SweepJob {
                net,
                model,
                sampler,
                validator: None,
                opts,
            })
            .collect();
        let results = ParamSweep::run(&mut jobs).unwrap();
        drop(jobs);
        for i in 0..3 {
            assert_same_run(
                &solo[i].1,
                &results[i],
                &solo[i].0,
                &nets[i],
                &format!("job {i}"),
            );
        }
    }

    /// Lockstep segments chain bit-identically: run to 23, capture,
    /// resume the whole group to 50, and compare against solo runs.
    #[test]
    fn lockstep_segments_resume_bitwise() {
        let models: Vec<DerivReg> = (0..2).map(|i| DerivReg::new(70 + i, 48, 12)).collect();
        let optses = [mk_opts(50, 1e-2, 11), mk_opts(50, 2e-3, 12)];
        let solo: Vec<(Mlp, TrainResult)> = (0..2)
            .map(|i| solo_run(&models[i], 90 + i as u64, &optses[i]))
            .collect();

        let mut nets: Vec<Mlp> = (0..2).map(|i| mk_net(90 + i as u64)).collect();
        let mut states: Vec<Option<RunState>> = vec![None, None];
        for stop in [23usize, 50] {
            let mut samplers: Vec<UniformSampler> = models
                .iter()
                .map(|m| UniformSampler::new(m.num_interior()))
                .collect();
            let mut jobs: Vec<MultiJob<'_>> = nets
                .iter_mut()
                .zip(&models)
                .zip(&mut samplers)
                .zip(&optses)
                .zip(&states)
                .map(|((((net, model), sampler), opts), start)| MultiJob {
                    net,
                    model,
                    sampler,
                    validator: None,
                    opts,
                    hooks: Vec::new(),
                    start: start.as_ref(),
                    stop_after: stop,
                })
                .collect();
            let segs = run_lockstep(&mut jobs).unwrap();
            drop(jobs);
            for (i, seg) in segs.into_iter().enumerate() {
                let st = seg.state.expect("boundary state");
                assert_eq!(st.iteration, stop);
                // Round-trip through JSON like the job server does.
                states[i] = Some(RunState::from_json(&st.to_json().unwrap()).unwrap());
                if stop == 50 {
                    assert_same_run(
                        &solo[i].1,
                        &seg.result,
                        &solo[i].0,
                        &nets[i],
                        &format!("job {i}"),
                    );
                }
            }
        }
    }

    /// Jobs with different iteration counts regroup at completion
    /// boundaries; each still matches its solo run.
    #[test]
    fn sweep_regroups_mixed_lengths() {
        let models: Vec<DerivReg> = (0..3).map(|i| DerivReg::new(75 + i, 48, 12)).collect();
        let optses = [
            mk_opts(20, 1e-2, 21),
            mk_opts(50, 1e-2, 22),
            mk_opts(35, 1e-2, 23),
        ];
        let solo: Vec<(Mlp, TrainResult)> = (0..3)
            .map(|i| solo_run(&models[i], 95 + i as u64, &optses[i]))
            .collect();
        let mut nets: Vec<Mlp> = (0..3).map(|i| mk_net(95 + i as u64)).collect();
        let mut samplers: Vec<UniformSampler> = models
            .iter()
            .map(|m| UniformSampler::new(m.num_interior()))
            .collect();
        let mut jobs: Vec<SweepJob<'_>> = nets
            .iter_mut()
            .zip(&models)
            .zip(&mut samplers)
            .zip(&optses)
            .map(|(((net, model), sampler), opts)| SweepJob {
                net,
                model,
                sampler,
                validator: None,
                opts,
            })
            .collect();
        let results = ParamSweep::run(&mut jobs).unwrap();
        drop(jobs);
        for i in 0..3 {
            assert_same_run(
                &solo[i].1,
                &results[i],
                &solo[i].0,
                &nets[i],
                &format!("job {i}"),
            );
        }
    }

    /// A budget-limited job expires at the same boundary as solo; the
    /// surviving job continues to completion.
    #[test]
    fn sweep_budget_expiry_matches_solo() {
        let models: Vec<DerivReg> = (0..2).map(|i| DerivReg::new(78 + i, 48, 12)).collect();
        let optses = [
            TrainOptions {
                max_seconds: Some(10.5 * DT),
                record_every: 1,
                ..mk_opts(50, 1e-2, 31)
            },
            mk_opts(50, 1e-2, 32),
        ];
        let solo: Vec<(Mlp, TrainResult)> = (0..2)
            .map(|i| solo_run(&models[i], 97 + i as u64, &optses[i]))
            .collect();
        assert_eq!(solo[0].1.history.last().unwrap().iteration, 10);
        let mut nets: Vec<Mlp> = (0..2).map(|i| mk_net(97 + i as u64)).collect();
        let mut samplers: Vec<UniformSampler> = models
            .iter()
            .map(|m| UniformSampler::new(m.num_interior()))
            .collect();
        let mut jobs: Vec<SweepJob<'_>> = nets
            .iter_mut()
            .zip(&models)
            .zip(&mut samplers)
            .zip(&optses)
            .map(|(((net, model), sampler), opts)| SweepJob {
                net,
                model,
                sampler,
                validator: None,
                opts,
            })
            .collect();
        let results = ParamSweep::run(&mut jobs).unwrap();
        drop(jobs);
        for i in 0..2 {
            assert_same_run(
                &solo[i].1,
                &results[i],
                &solo[i].0,
                &nets[i],
                &format!("job {i}"),
            );
        }
    }

    /// Constraint violations surface as errors, not corrupt runs.
    #[test]
    fn lockstep_rejects_mismatched_groups() {
        let model = DerivReg::new(85, 48, 12);
        // Mixed Adam betas.
        let o1 = mk_opts(10, 1e-2, 1);
        let o2 = TrainOptions {
            adam: AdamConfig {
                beta1: 0.8,
                ..o1.adam.clone()
            },
            ..o1.clone()
        };
        let (mut n1, mut n2) = (mk_net(1), mk_net(2));
        let (mut s1, mut s2) = (
            UniformSampler::new(model.num_interior()),
            UniformSampler::new(model.num_interior()),
        );
        let mut jobs = vec![
            MultiJob {
                net: &mut n1,
                model: &model,
                sampler: &mut s1,
                validator: None,
                opts: &o1,
                hooks: Vec::new(),
                start: None,
                stop_after: 10,
            },
            MultiJob {
                net: &mut n2,
                model: &model,
                sampler: &mut s2,
                validator: None,
                opts: &o2,
                hooks: Vec::new(),
                start: None,
                stop_after: 10,
            },
        ];
        let err = run_lockstep(&mut jobs).unwrap_err();
        assert!(err.contains("beta1/beta2/eps"), "{err}");
        // Unequal remaining steps.
        jobs[1].opts = &o1;
        jobs[1].stop_after = 7;
        let err = run_lockstep(&mut jobs).unwrap_err();
        assert!(err.contains("equal remaining step"), "{err}");
    }

    /// A group of two where one member adapts its point set (growth
    /// before and after the checkpoint), run in two segments with a
    /// JSON round trip between them, matches both solo runs bit for
    /// bit — the mutated points travel through the shared capture and
    /// restore path.
    #[test]
    fn lockstep_adaptive_member_resumes_bitwise() {
        let models: Vec<DerivReg> = (0..2).map(|i| DerivReg::new(64 + i, 48, 12)).collect();
        let optses = [mk_opts(50, 1e-2, 13), mk_opts(50, 3e-3, 14)];
        let mk_samplers = || -> Vec<Box<dyn Sampler>> {
            vec![
                Box::new(Densify {
                    n: models[0].num_interior(),
                    tau: 7,
                    add: 3,
                }),
                Box::new(UniformSampler::new(models[1].num_interior())),
            ]
        };
        let solo: Vec<(Mlp, TrainResult)> = mk_samplers()
            .into_iter()
            .enumerate()
            .map(|(i, mut sampler)| {
                let mut net = mk_net(60 + i as u64);
                let result = Trainer {
                    net: &mut net,
                    model: &models[i],
                }
                .run(sampler.as_mut(), None, &optses[i]);
                (net, result)
            })
            .collect();

        let mut nets: Vec<Mlp> = (0..2).map(|i| mk_net(60 + i as u64)).collect();
        let mut states: Vec<Option<RunState>> = vec![None, None];
        for stop in [23usize, 50] {
            let mut samplers = mk_samplers();
            let mut jobs: Vec<MultiJob<'_>> = nets
                .iter_mut()
                .zip(&models)
                .zip(&mut samplers)
                .zip(&optses)
                .zip(&states)
                .map(|((((net, model), sampler), opts), start)| MultiJob {
                    net,
                    model,
                    sampler: sampler.as_mut(),
                    validator: None,
                    opts,
                    hooks: Vec::new(),
                    start: start.as_ref(),
                    stop_after: stop,
                })
                .collect();
            let segs = run_lockstep(&mut jobs).unwrap();
            drop(jobs);
            for (i, seg) in segs.into_iter().enumerate() {
                let st = seg.state.expect("boundary state");
                assert_eq!(st.points.is_some(), i == 0, "job {i}: point set");
                states[i] = Some(RunState::from_json(&st.to_json().unwrap()).unwrap());
                if stop == 50 {
                    assert_same_run(
                        &solo[i].1,
                        &seg.result,
                        &solo[i].0,
                        &nets[i],
                        &format!("job {i}"),
                    );
                }
            }
        }
        let grown = states[0].as_ref().unwrap().points.as_ref().unwrap();
        assert_eq!(
            grown.coords.len(),
            48 + 3 * 7,
            "adapt fired at 7, 14, …, 49"
        );
    }

    /// Every member's hooks see every training stage on every iteration
    /// and one `Record` stage per history record.
    #[test]
    fn lockstep_hooks_see_every_stage() {
        let models: Vec<DerivReg> = (0..2).map(|i| DerivReg::new(66 + i, 48, 12)).collect();
        let optses = [mk_opts(30, 1e-2, 15), mk_opts(30, 1e-2, 16)];
        let mut nets: Vec<Mlp> = (0..2).map(|i| mk_net(62 + i as u64)).collect();
        let mut samplers: Vec<UniformSampler> = models
            .iter()
            .map(|m| UniformSampler::new(m.num_interior()))
            .collect();
        let mut times = [StageTimes::new(), StageTimes::new()];
        let mut jobs: Vec<MultiJob<'_>> = nets
            .iter_mut()
            .zip(&models)
            .zip(&mut samplers)
            .zip(&optses)
            .zip(&mut times)
            .map(|((((net, model), sampler), opts), times)| MultiJob {
                net,
                model,
                sampler,
                validator: None,
                opts,
                hooks: vec![times],
                start: None,
                stop_after: 30,
            })
            .collect();
        let segs = run_lockstep(&mut jobs).unwrap();
        drop(jobs);
        for (i, (t, seg)) in times.iter().zip(&segs).enumerate() {
            assert_eq!(t.iterations(), 30, "job {i}");
            for s in &Stage::ALL[..Stage::Record.index()] {
                assert_eq!(t.count(*s), 30, "job {i}: stage {}", s.name());
            }
            let records = seg.result.history.len() as u64;
            assert_eq!(t.count(Stage::Record), records, "job {i}");
        }
    }

    /// A lockstep group of one runs the solo executor and matches
    /// `Trainer::run` bit for bit.
    #[test]
    fn group_of_one_matches_trainer_run() {
        let model = DerivReg::new(68, 48, 12);
        let opts = mk_opts(40, 1e-2, 17);
        let (solo_net, solo) = solo_run(&model, 64, &opts);
        let mut net = mk_net(64);
        let mut sampler = UniformSampler::new(model.num_interior());
        let mut jobs = [MultiJob {
            net: &mut net,
            model: &model,
            sampler: &mut sampler,
            validator: None,
            opts: &opts,
            hooks: Vec::new(),
            start: None,
            stop_after: 40,
        }];
        let seg = run_lockstep(&mut jobs).unwrap().pop().unwrap();
        assert_same_run(&solo, &seg.result, &solo_net, &net, "group of one");
        assert_eq!(seg.state.unwrap().iteration, 40);
    }
}
