//! The training engine of the SGM-PINN reproduction.
//!
//! Every experiment in the paper (Tables 1–2, Figures 2–4) is a
//! wall-clock race between samplers, so the training loop is the
//! measurement instrument. This crate makes it a first-class subsystem:
//!
//! * **Staged pipeline** — each iteration runs an explicit
//!   `refresh → adapt → draw → gather → loss/grad → step → record`
//!   sequence (see [`Stage`]), instrumentable per stage through the
//!   [`Hook`] trait.
//! * **One run path** — [`Trainer`] runs and lockstep groups
//!   ([`run_lockstep`], [`ParamSweep`]) share one per-job restore,
//!   stage, record and capture path; only the loss/gradient and
//!   optimiser stages differ, running solo for a group of one and
//!   through the batched kernels for larger groups.
//! * **Mutable collocation sets** — samplers that opt into
//!   [`Sampler::adapts_points`] receive the engine-owned [`PointSet`]
//!   every iteration and may move/add/drop collocation points; the
//!   engine re-gathers batches from the mutated set, logs
//!   [`PointChanges`] to hooks and checkpoints the coordinates.
//! * **Clean layering** — the engine knows nothing about PDEs. Physics
//!   crates implement [`LossModel`]; sampler crates implement
//!   [`Sampler`]. Both traits are defined *here*, so `sgm-core` and
//!   `sgm-physics` depend on `sgm-train` rather than on each other.
//! * **Zero-allocation hot path** — all per-iteration buffers (batch
//!   indices, gather matrices, network scratch, gradient accumulators,
//!   optimiser scratch) are preallocated once per run; under
//!   `Parallelism::Serial` a steady-state iteration performs no heap
//!   allocations at all.
//! * **Honest clocks** — training time and recording/validation time
//!   are accounted separately; [`Record::seconds`] and
//!   [`TrainResult::time_to_error`] measure only training, which is
//!   what the paper's `T(M_β_j)` columns measure.
//! * **Resumable runs** — [`RunState`] captures network, Adam moments,
//!   RNG state, sampler state, clocks and history; a killed run resumes
//!   bit-identically (see [`Trainer::run_until`] / [`Trainer::resume`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod hooks;
pub mod model;
pub mod multi;
pub mod obs;
pub mod pointset;
pub mod result;
pub mod runstate;
pub mod sampler;

pub use engine::{Segment, TrainOptions, Trainer};
pub use hooks::{Hook, Stage, StageTimes};
pub use model::{BatchedLossModel, LossModel, ModelWorkspace, Validator};
pub use multi::{run_lockstep, MultiJob, ParamSweep, SweepJob};
pub use obs::ObsHook;
pub use pointset::{PointChanges, PointSet};
pub use result::{Record, TrainResult};
pub use runstate::{PointsCheckpoint, RunState, RunStateError};
pub use sampler::{Probe, Sampler, UniformSampler};
