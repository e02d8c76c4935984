//! Job specifications: the JSON schema a client submits and its
//! translation into a runnable training job.
//!
//! PDE configs carry function pointers ([`PoissonConfig::forcing`]), so
//! a spec cannot serialise an arbitrary problem — it selects a named
//! **preset** (currently `poisson-sine`, the quickstart's manufactured
//! Poisson problem) plus sizes and seeds. Everything except `tenant`
//! has a default, so a minimal submission is `{"tenant": "alice"}`.
//!
//! [`JobSpec::build`] is deliberately re-entrant: the scheduler rebuilds
//! the job from the spec at the start of *every* slice and restores the
//! checkpointed [`RunState`](sgm_train::RunState) into it, which is
//! exactly the warm-resume path — so preemption cannot diverge from a
//! client-uploaded resume.

use sgm_core::{
    DmisConfig, DmisSampler, MisConfig, MisSampler, RadConfig, RadSampler, RarConfig, RarDConfig,
    RarDSampler, RarSampler, SgmConfig, SgmSampler, UniformSampler,
};
use sgm_graph::points::PointCloud;
use sgm_json::{obj, JsonError, Value};
use sgm_linalg::dense::Matrix;
use sgm_linalg::rng::Rng64;
use sgm_nn::activation::Activation;
use sgm_nn::mlp::{Mlp, MlpConfig};
use sgm_nn::optimizer::{AdamConfig, LrSchedule};
use sgm_physics::geometry::{Cavity, FillStrategy};
use sgm_physics::pde::{Pde, PoissonConfig};
use sgm_physics::problem::{Problem, TrainSet};
use sgm_physics::validate::ValidationSet;
use sgm_physics::PinnModel;
use sgm_train::{
    PointChanges, PointSet, Probe, RunState, Sampler, TrainOptions, TrainResult, Trainer, Validator,
};

/// A validated training-job specification.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Tenant identity (fair scheduling is per tenant).
    pub tenant: String,
    /// Problem preset name (`poisson-sine`).
    pub preset: String,
    /// Interior collocation points.
    pub interior: usize,
    /// Boundary points.
    pub boundary: usize,
    /// Seed for collocation/boundary data.
    pub data_seed: u64,
    /// Validation grid resolution per axis (0 disables validation).
    pub validation_grid: usize,
    /// Hidden layer width.
    pub hidden_width: usize,
    /// Hidden layer count.
    pub hidden_layers: usize,
    /// Activation name (`silu`, `tanh`, `sin`, `identity`).
    pub activation: String,
    /// Network init seed.
    pub net_seed: u64,
    /// Sampler kind (`uniform`, `mis`, `rar`, `rad`, `rard`, `dmis`,
    /// `sgm`).
    pub sampler: String,
    /// Override for the sampler's refresh/adapt period (`τ`); `None`
    /// keeps the sampler's default.
    pub sampler_tau: Option<usize>,
    /// SGD iterations.
    pub iterations: usize,
    /// Interior mini-batch size.
    pub batch_interior: usize,
    /// Boundary mini-batch size.
    pub batch_boundary: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Batching RNG seed.
    pub train_seed: u64,
    /// Record cadence in iterations.
    pub record_every: usize,
    /// Synthetic per-iteration clock advance (deterministic timestamps);
    /// `None` uses measured wall time.
    pub synthetic_dt: Option<f64>,
    /// Per-job wall-clock budget in seconds (`None` = server default).
    pub max_wall_seconds: Option<f64>,
    /// Test-only fault injection: panic inside the sampler's refresh at
    /// this iteration.
    pub panic_at_iteration: Option<usize>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            tenant: String::new(),
            preset: "poisson-sine".into(),
            interior: 256,
            boundary: 64,
            data_seed: 7,
            validation_grid: 0,
            hidden_width: 8,
            hidden_layers: 2,
            activation: "silu".into(),
            net_seed: 3,
            sampler: "uniform".into(),
            sampler_tau: None,
            iterations: 30,
            batch_interior: 16,
            batch_boundary: 8,
            lr: 3e-3,
            train_seed: 1,
            record_every: 10,
            synthetic_dt: Some(1e-3),
            max_wall_seconds: None,
            panic_at_iteration: None,
        }
    }
}

const SAMPLER_KINDS: [&str; 7] = ["uniform", "mis", "rar", "rad", "rard", "dmis", "sgm"];

fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, JsonError> {
    Ok(v.opt_f64(key)?.map(|f| f as u64))
}

impl JobSpec {
    /// Parses and validates a spec from a JSON object.
    ///
    /// # Errors
    /// Returns a message naming the offending field for any schema or
    /// range violation — the server maps these to HTTP 400.
    pub fn from_json(v: &Value) -> Result<JobSpec, String> {
        let d = JobSpec::default();
        let tenant = v.req_str("tenant").map_err(|e| e.to_string())?.to_string();
        if tenant.is_empty() || tenant.len() > 64 {
            return Err("tenant must be 1..=64 characters".into());
        }
        let err = |e: JsonError| e.to_string();
        let spec = JobSpec {
            tenant,
            preset: v
                .opt_str("preset")
                .map_err(err)?
                .map(str::to_string)
                .unwrap_or(d.preset),
            interior: v.opt_usize("interior").map_err(err)?.unwrap_or(d.interior),
            boundary: v.opt_usize("boundary").map_err(err)?.unwrap_or(d.boundary),
            data_seed: opt_u64(v, "data_seed").map_err(err)?.unwrap_or(d.data_seed),
            validation_grid: v
                .opt_usize("validation_grid")
                .map_err(err)?
                .unwrap_or(d.validation_grid),
            hidden_width: v
                .opt_usize("hidden_width")
                .map_err(err)?
                .unwrap_or(d.hidden_width),
            hidden_layers: v
                .opt_usize("hidden_layers")
                .map_err(err)?
                .unwrap_or(d.hidden_layers),
            activation: v
                .opt_str("activation")
                .map_err(err)?
                .map(str::to_string)
                .unwrap_or(d.activation),
            net_seed: opt_u64(v, "net_seed").map_err(err)?.unwrap_or(d.net_seed),
            sampler: v
                .opt_str("sampler")
                .map_err(err)?
                .map(str::to_string)
                .unwrap_or(d.sampler),
            sampler_tau: v.opt_usize("sampler_tau").map_err(err)?,
            iterations: v
                .opt_usize("iterations")
                .map_err(err)?
                .unwrap_or(d.iterations),
            batch_interior: v
                .opt_usize("batch_interior")
                .map_err(err)?
                .unwrap_or(d.batch_interior),
            batch_boundary: v
                .opt_usize("batch_boundary")
                .map_err(err)?
                .unwrap_or(d.batch_boundary),
            lr: v.opt_f64("lr").map_err(err)?.unwrap_or(d.lr),
            train_seed: opt_u64(v, "train_seed")
                .map_err(err)?
                .unwrap_or(d.train_seed),
            record_every: v
                .opt_usize("record_every")
                .map_err(err)?
                .unwrap_or(d.record_every),
            synthetic_dt: match v.get("synthetic_dt") {
                Some(Value::Null) | None => d.synthetic_dt,
                Some(_) => Some(v.req_f64("synthetic_dt").map_err(err)?),
            },
            max_wall_seconds: v.opt_f64("max_wall_seconds").map_err(err)?,
            panic_at_iteration: v.opt_usize("panic_at_iteration").map_err(err)?,
        };
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), String> {
        if self.preset != "poisson-sine" {
            return Err(format!("unknown preset {:?}", self.preset));
        }
        if !SAMPLER_KINDS.contains(&self.sampler.as_str()) {
            return Err(format!(
                "unknown sampler {:?} (expected one of {SAMPLER_KINDS:?})",
                self.sampler
            ));
        }
        parse_activation(&self.activation)?;
        if self.interior == 0 || self.interior > 1 << 20 {
            return Err("interior must be 1..=1048576".into());
        }
        if self.boundary == 0 || self.boundary > 1 << 16 {
            return Err("boundary must be 1..=65536".into());
        }
        if self.validation_grid > 256 {
            return Err("validation_grid must be <= 256".into());
        }
        if self.hidden_width == 0 || self.hidden_width > 1024 {
            return Err("hidden_width must be 1..=1024".into());
        }
        if self.hidden_layers == 0 || self.hidden_layers > 16 {
            return Err("hidden_layers must be 1..=16".into());
        }
        if self.iterations == 0 {
            return Err("iterations must be >= 1".into());
        }
        if self.batch_interior == 0 || self.batch_interior > self.interior {
            return Err("batch_interior must be 1..=interior".into());
        }
        if self.batch_boundary == 0 || self.batch_boundary > self.boundary {
            return Err("batch_boundary must be 1..=boundary".into());
        }
        if !(self.lr.is_finite() && self.lr > 0.0) {
            return Err("lr must be finite and positive".into());
        }
        if self.record_every == 0 {
            return Err("record_every must be >= 1".into());
        }
        if let Some(dt) = self.synthetic_dt {
            if !(dt.is_finite() && dt > 0.0) {
                return Err("synthetic_dt must be finite and positive".into());
            }
        }
        if let Some(w) = self.max_wall_seconds {
            if !(w.is_finite() && w > 0.0) {
                return Err("max_wall_seconds must be finite and positive".into());
            }
        }
        Ok(())
    }

    /// Serialises the spec (inverse of [`JobSpec::from_json`]).
    pub fn to_json(&self) -> Value {
        let mut fields: Vec<(&str, Value)> = vec![
            ("tenant", Value::Str(self.tenant.clone())),
            ("preset", Value::Str(self.preset.clone())),
            ("interior", Value::Num(self.interior as f64)),
            ("boundary", Value::Num(self.boundary as f64)),
            ("data_seed", Value::Num(self.data_seed as f64)),
            ("validation_grid", Value::Num(self.validation_grid as f64)),
            ("hidden_width", Value::Num(self.hidden_width as f64)),
            ("hidden_layers", Value::Num(self.hidden_layers as f64)),
            ("activation", Value::Str(self.activation.clone())),
            ("net_seed", Value::Num(self.net_seed as f64)),
            ("sampler", Value::Str(self.sampler.clone())),
            ("iterations", Value::Num(self.iterations as f64)),
            ("batch_interior", Value::Num(self.batch_interior as f64)),
            ("batch_boundary", Value::Num(self.batch_boundary as f64)),
            ("lr", Value::Num(self.lr)),
            ("train_seed", Value::Num(self.train_seed as f64)),
            ("record_every", Value::Num(self.record_every as f64)),
        ];
        if let Some(t) = self.sampler_tau {
            fields.push(("sampler_tau", Value::Num(t as f64)));
        }
        if let Some(dt) = self.synthetic_dt {
            fields.push(("synthetic_dt", Value::Num(dt)));
        } else {
            fields.push(("synthetic_dt", Value::Null));
        }
        if let Some(w) = self.max_wall_seconds {
            fields.push(("max_wall_seconds", Value::Num(w)));
        }
        if let Some(p) = self.panic_at_iteration {
            fields.push(("panic_at_iteration", Value::Num(p as f64)));
        }
        obj(fields)
    }
}

impl JobSpec {
    /// Whether two jobs may share one lockstep co-execution slice: same
    /// problem preset and network architecture, same interior batch and
    /// effective boundary batch, both fault-free. Everything else —
    /// seeds, learning rates, iteration counts, datasets, validation,
    /// sampler kind (point-adapting ones included) — may differ per
    /// lane; the lockstep runner keeps each job's `RunState`
    /// bit-identical to solo execution regardless of grouping.
    pub fn co_compatible(&self, other: &JobSpec) -> bool {
        self.panic_at_iteration.is_none()
            && other.panic_at_iteration.is_none()
            && self.preset == other.preset
            && self.hidden_width == other.hidden_width
            && self.hidden_layers == other.hidden_layers
            && self.activation == other.activation
            && self.batch_interior == other.batch_interior
            && self.batch_boundary.min(self.boundary) == other.batch_boundary.min(other.boundary)
    }
}

fn parse_activation(name: &str) -> Result<Activation, String> {
    match name {
        "silu" => Ok(Activation::SiLu),
        "tanh" => Ok(Activation::Tanh),
        "sin" => Ok(Activation::Sin),
        "identity" => Ok(Activation::Identity),
        other => Err(format!(
            "unknown activation {other:?} (expected silu|tanh|sin|identity)"
        )),
    }
}

/// A spec translated into runnable pieces. The model borrows both the
/// problem and the data, so it is constructed at the call site
/// (`PinnModel::new(&built.problem, &built.data)`).
pub struct BuiltJob {
    /// The PDE.
    pub problem: Problem,
    /// Collocation + boundary data.
    pub data: TrainSet,
    /// Validation grid, when requested.
    pub validation: Option<ValidationSet>,
    /// Freshly initialised network.
    pub net: Mlp,
    /// Training options.
    pub opts: TrainOptions,
    /// The configured sampler.
    pub sampler: Box<dyn Sampler>,
}

impl std::fmt::Debug for BuiltJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltJob").finish_non_exhaustive()
    }
}

fn poisson_sine() -> Problem {
    Problem::new(Pde::Poisson(PoissonConfig {
        forcing: |p: &[f64]| {
            let pi = std::f64::consts::PI;
            2.0 * pi * pi * (pi * p[0]).sin() * (pi * p[1]).sin()
        },
    }))
}

impl JobSpec {
    /// Instantiates the job: data, network, options and sampler. Pure in
    /// the spec — two builds from the same spec are bit-identical, which
    /// is what makes rebuild-per-slice preemption sound.
    ///
    /// # Errors
    /// Returns a message for invalid field combinations.
    pub fn build(&self) -> Result<BuiltJob, String> {
        self.validate()?;
        let problem = poisson_sine();

        let mut rng = Rng64::new(self.data_seed);
        let interior =
            Cavity::default().sample_interior(self.interior, FillStrategy::Halton, &mut rng);
        let mut bpts = Vec::new();
        for i in 0..self.boundary {
            let t = rng.uniform();
            let (x, y) = match i % 4 {
                0 => (t, 0.0),
                1 => (t, 1.0),
                2 => (0.0, t),
                _ => (1.0, t),
            };
            bpts.extend_from_slice(&[x, y]);
        }
        let data = TrainSet {
            interior,
            boundary: PointCloud::from_flat(2, bpts),
            boundary_targets: Matrix::zeros(self.boundary, 1),
        };

        let validation = (self.validation_grid > 0).then(|| {
            let pi = std::f64::consts::PI;
            let g = self.validation_grid;
            let mut pts = Matrix::zeros(g * g, 2);
            let mut targets = Matrix::zeros(g * g, 1);
            for i in 0..g {
                for j in 0..g {
                    let (x, y) = ((i as f64 + 0.5) / g as f64, (j as f64 + 0.5) / g as f64);
                    pts.set(i * g + j, 0, x);
                    pts.set(i * g + j, 1, y);
                    targets.set(i * g + j, 0, (pi * x).sin() * (pi * y).sin());
                }
            }
            ValidationSet {
                points: pts,
                targets,
                output_indices: vec![0],
                names: vec!["u".into()],
            }
        });

        let mut net_rng = Rng64::new(self.net_seed);
        let net = Mlp::new(
            &MlpConfig {
                input_dim: 2,
                output_dim: 1,
                hidden_width: self.hidden_width,
                hidden_layers: self.hidden_layers,
                activation: parse_activation(&self.activation)?,
                fourier: None,
            },
            &mut net_rng,
        );

        let opts = TrainOptions {
            iterations: self.iterations,
            batch_interior: self.batch_interior,
            batch_boundary: self.batch_boundary,
            adam: AdamConfig {
                lr: self.lr,
                schedule: LrSchedule::Constant,
                ..AdamConfig::default()
            },
            seed: self.train_seed,
            record_every: self.record_every,
            max_seconds: None,
            synthetic_dt: self.synthetic_dt,
        };

        let n = self.interior;
        let tau = self.sampler_tau;
        let mut sampler: Box<dyn Sampler> = match self.sampler.as_str() {
            "uniform" => Box::new(UniformSampler::new(n)),
            "mis" => Box::new(MisSampler::new(
                n,
                MisConfig {
                    tau_e: tau.unwrap_or(MisConfig::default().tau_e),
                    ..MisConfig::default()
                },
            )),
            "rar" => {
                let mut srng = Rng64::new(self.data_seed ^ 0x5A17);
                Box::new(RarSampler::new(
                    n,
                    RarConfig {
                        tau: tau.unwrap_or(RarConfig::default().tau),
                        ..RarConfig::default()
                    },
                    &mut srng,
                ))
            }
            "rad" => Box::new(RadSampler::new(
                n,
                RadConfig {
                    tau: tau.unwrap_or(RadConfig::default().tau),
                    pool_size: (4 * n).max(64),
                    ..RadConfig::default()
                },
            )),
            "rard" => Box::new(RarDSampler::new(
                n,
                RarDConfig {
                    tau: tau.unwrap_or(RarDConfig::default().tau),
                    max_points: 4 * n,
                    ..RarDConfig::default()
                },
            )),
            "dmis" => Box::new(DmisSampler::new(
                n,
                DmisConfig {
                    tau: tau.unwrap_or(DmisConfig::default().tau),
                    grid: 8,
                    ..DmisConfig::default()
                },
            )),
            "sgm" => Box::new(SgmSampler::new(
                &data.interior,
                SgmConfig {
                    k: 8,
                    tau_e: tau.unwrap_or(50),
                    tau_g: 0,
                    min_clusters: 8,
                    ..SgmConfig::default()
                },
            )),
            other => return Err(format!("unknown sampler {other:?}")),
        };
        if let Some(at) = self.panic_at_iteration {
            sampler = Box::new(PanicAt { inner: sampler, at });
        }

        Ok(BuiltJob {
            problem,
            data,
            validation,
            net,
            opts,
            sampler,
        })
    }
}

/// Fault-injection wrapper: behaves exactly like `inner` but panics in
/// `refresh` at iteration `at`. `name` delegates, so checkpoints taken
/// before the fault restore into the unwrapped sampler.
struct PanicAt {
    inner: Box<dyn Sampler>,
    at: usize,
}

impl Sampler for PanicAt {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fill_batch(&mut self, batch_size: usize, out: &mut Vec<usize>, rng: &mut Rng64) {
        self.inner.fill_batch(batch_size, out, rng);
    }

    fn refresh(&mut self, iter: usize, probe: &Probe<'_>, rng: &mut Rng64) {
        assert!(iter != self.at, "injected fault at iteration {iter}");
        self.inner.refresh(iter, probe, rng);
    }

    fn adapts_points(&self) -> bool {
        self.inner.adapts_points()
    }

    fn adapt(&mut self, points: &mut PointSet, iter: usize, probe: &Probe<'_>, rng: &mut Rng64) {
        self.inner.adapt(points, iter, probe, rng);
    }

    fn on_points_changed(&mut self, points: &PointSet, changes: &PointChanges) {
        self.inner.on_points_changed(points, changes);
    }

    fn sync_points(&mut self, points: &PointSet) {
        self.inner.sync_points(points);
    }

    fn save_state(&self) -> Value {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &Value) -> Result<(), String> {
        self.inner.load_state(state)
    }
}

/// Runs a spec to completion in the calling thread (no server), and
/// returns the result plus the final-iteration [`RunState`] — the
/// reference answer the resume-determinism suite compares server runs
/// against.
///
/// # Errors
/// Propagates build and training errors.
pub fn run_local(spec: &JobSpec) -> Result<(TrainResult, RunState), String> {
    let mut built = spec.build()?;
    let model = PinnModel::new(&built.problem, &built.data);
    let mut trainer = Trainer {
        net: &mut built.net,
        model: &model,
    };
    let seg = trainer.run_segment(
        built.sampler.as_mut(),
        built.validation.as_ref().map(|v| v as &dyn Validator),
        &built.opts,
        &mut [],
        None,
        built.opts.iterations,
    )?;
    let state = seg
        .state
        .ok_or_else(|| "budget expired before the final iteration".to_string())?;
    Ok((seg.result, state))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_json(extra: &str) -> Value {
        let body = if extra.is_empty() {
            r#"{"tenant": "t"}"#.to_string()
        } else {
            format!(r#"{{"tenant": "t", {extra}}}"#)
        };
        Value::parse(&body).unwrap()
    }

    #[test]
    fn minimal_spec_uses_defaults_and_round_trips() {
        let spec = JobSpec::from_json(&spec_json("")).unwrap();
        assert_eq!(spec.tenant, "t");
        assert_eq!(spec.sampler, "uniform");
        assert_eq!(spec.iterations, 30);
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn every_sampler_kind_builds_and_round_trips() {
        for kind in SAMPLER_KINDS {
            let spec = JobSpec::from_json(&spec_json(&format!(r#""sampler": "{kind}""#))).unwrap();
            let built = spec.build().unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(built.opts.iterations, 30, "{kind}");
            let back = JobSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(spec, back, "{kind}");
        }
    }

    #[test]
    fn invalid_fields_are_rejected_with_messages() {
        for (extra, needle) in [
            (r#""sampler": "magic""#, "unknown sampler"),
            (r#""preset": "heat""#, "unknown preset"),
            (r#""activation": "relu6""#, "unknown activation"),
            (r#""iterations": 0"#, "iterations"),
            (r#""interior": 4, "batch_interior": 8"#, "batch_interior"),
            (r#""lr": -1.0"#, "lr"),
            (r#""max_wall_seconds": 0.0"#, "max_wall_seconds"),
            (r#""iterations": "many""#, "iterations"),
        ] {
            let err = JobSpec::from_json(&spec_json(extra)).unwrap_err();
            assert!(err.contains(needle), "{extra}: {err}");
        }
        assert!(JobSpec::from_json(&Value::parse("{}").unwrap())
            .unwrap_err()
            .contains("tenant"));
    }

    #[test]
    fn build_is_deterministic() {
        let spec = JobSpec {
            tenant: "t".into(),
            sampler: "mis".into(),
            iterations: 12,
            ..JobSpec::default()
        };
        let (ra, sa) = run_local(&spec).unwrap();
        let (rb, sb) = run_local(&spec).unwrap();
        assert_eq!(ra.history, rb.history);
        assert_eq!(sa.to_json().unwrap(), sb.to_json().unwrap());
        assert_eq!(sa.iteration, 12);
    }

    #[test]
    fn panic_at_fires_inside_refresh() {
        let spec = JobSpec {
            tenant: "t".into(),
            iterations: 10,
            panic_at_iteration: Some(4),
            ..JobSpec::default()
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_local(&spec)));
        assert!(caught.is_err());
    }
}
