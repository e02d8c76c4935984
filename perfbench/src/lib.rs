//! The repository benchmark: wall-clock time to a target validation
//! error on the paper's two problems, with per-stage attribution.
//!
//! One call to [`run_rep`] is one closed-loop training run: build the
//! problem from the paper harness (`sgm_bench::experiments`), build the
//! sampler, train for the workload's fixed iteration budget, and report
//! the end-to-end numbers. A traced run additionally installs the
//! measuring decorators of [`probes`], the `StageTimes` hook and
//! `SGM_TRACE=full` spans, and reports the per-layer numbers.
//! `perfbench/run.py` repeats runs, checks them and aggregates them.

pub mod probes;

use probes::{CountingModel, RebuildLog, TimedSampler, TimedValidator};
use sgm_bench::experiments::{build_ar, build_ldc, sgm_config, Experiment, Scale};
use sgm_core::{SgmConfig, SgmSampler, SgmStats, UniformSampler};
use sgm_graph::refresh::RefreshOptions;
use sgm_json::Value;
use sgm_linalg::rng::Rng64;
use sgm_linalg::simd;
use sgm_nn::activation::Activation;
use sgm_nn::mlp::{Mlp, MlpConfig};
use sgm_nn::optimizer::{AdamConfig, LrSchedule};
use sgm_obs::trace::TraceEvent;
use sgm_obs::{trace, TraceLevel};
use sgm_physics::{AveragedValidation, PinnModel};
use sgm_train::{Hook, Record, Sampler, Stage, StageTimes, TrainOptions, TrainResult, Trainer};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The paper problem a workload trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Problem {
    /// Lid-driven cavity, zero-equation closure (Table 1).
    Ldc,
    /// Parameterised annular ring (Table 2).
    Ar,
}

/// The sampler a workload trains with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Uniform at the baseline's 8× batch and 2× cloud (`U_large`).
    UniformLarge,
    /// SGM at the small batch, classic full S1/S2 rebuilds (`SGM_β`).
    Sgm,
    /// SGM with the ISR term, incremental refresh (`SGM-S_β`).
    SgmS,
}

/// One benchmark workload. The iteration budget is fixed, so the work
/// is fixed and only the clock varies between runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Problem trained.
    pub problem: Problem,
    /// Sampler used.
    pub method: Method,
    /// Training iterations.
    pub iterations: usize,
    /// Record (validate) every this many iterations.
    pub record_every: usize,
    /// Target u-column validation error (time-to-target threshold).
    pub target: f64,
    /// A run whose final u error exceeds this fails.
    pub ceiling: f64,
    /// Whether a fixed seed must reproduce bit for bit (no background
    /// rebuild whose landing iteration depends on timing).
    pub deterministic: bool,
}

/// Consecutive records averaged into the smoothed u error. Single
/// records of these runs swing by 10–20 % between neighbours, so the
/// target crossing and the final error are read from the moving mean
/// of this many records (the last record's iteration and clock).
const SMOOTH_RECORDS: usize = 5;

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ldc-ularge",
        problem: Problem::Ldc,
        method: Method::UniformLarge,
        iterations: 1100,
        record_every: 10,
        target: LDC_TARGET,
        ceiling: LDC_CEILING,
        deterministic: true,
    },
    Workload {
        name: "ldc-sgm",
        problem: Problem::Ldc,
        method: Method::Sgm,
        iterations: 1200,
        record_every: 10,
        target: LDC_TARGET,
        ceiling: LDC_CEILING,
        deterministic: false,
    },
    Workload {
        name: "ar-sgms",
        problem: Problem::Ar,
        method: Method::SgmS,
        iterations: 1100,
        record_every: 10,
        target: 0.02,
        ceiling: 0.03,
        deterministic: true,
    },
];

/// Smoothed u-error target shared by the two LDC workloads (Table 1
/// compares them at one target).
const LDC_TARGET: f64 = 0.9;
/// Final u error above which an LDC run fails.
const LDC_CEILING: f64 = 1.0;

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The harness scale of a problem with the workload seed. The LDC
/// cloud and batches are halved from the harness default so a run fits
/// the benchmark's time budget; the paper's ratios (8× batch, 2× cloud
/// for the baseline) are kept.
fn scale(problem: Problem, seed: u64) -> Scale {
    let base = match problem {
        Problem::Ldc => Scale {
            n_small: 8_000,
            n_large: 16_000,
            batch_small: 128,
            batch_large: 1024,
            tau_e: 200,
            tau_g: 400,
            ..Scale::ldc_default()
        },
        Problem::Ar => Scale {
            tau_e: 200,
            tau_g: 400,
            ..Scale::ar_default()
        },
    };
    Scale { seed, ..base }
}

/// The seed of the network initialisation and the mini-batch stream:
/// the harness's default seed for the problem, whatever the workload
/// seed. Runs on different workload seeds then differ only through
/// their inputs, not through a different optimisation path.
fn train_seed(problem: Problem) -> u64 {
    match problem {
        Problem::Ldc => Scale::ldc_default().seed,
        Problem::Ar => Scale::ar_default().seed,
    }
}

/// The SGM configuration of a workload (`None` for uniform).
fn sampler_config(w: &Workload, exp: &Experiment, sc: &Scale) -> Option<SgmConfig> {
    match w.method {
        Method::UniformLarge => None,
        Method::Sgm => Some(sgm_config(exp, sc, false)),
        Method::SgmS => Some(SgmConfig {
            incremental: Some(RefreshOptions::default()),
            ..sgm_config(exp, sc, true)
        }),
    }
}

/// The workload's network: the harness's SiLU MLP at the scale's
/// width and depth.
fn fresh_net(w: &Workload, exp: &Experiment, sc: &Scale) -> Mlp {
    let cfg = MlpConfig {
        input_dim: exp.input_dim,
        output_dim: exp.output_dim,
        hidden_width: sc.width,
        hidden_layers: sc.depth,
        activation: Activation::SiLu,
        fourier: None,
    };
    Mlp::new(&cfg, &mut Rng64::new(train_seed(w.problem) ^ 0xABCD))
}

/// Learning-rate factor reached at the end of a workload's budget.
/// With the harness's slow decay (0.95 per 4000 steps) single records
/// still swing at the end of these short runs and the final error
/// depends on where the budget happens to stop; decaying over the
/// fixed budget settles it.
const LR_DECAY: f64 = 0.3;

/// Training options of a workload: the harness's Adam at lr 3e-3,
/// decaying to [`LR_DECAY`]× over the fixed budget; no wall-clock cap.
fn train_options(w: &Workload, sc: &Scale) -> TrainOptions {
    TrainOptions {
        iterations: w.iterations,
        batch_interior: match w.method {
            Method::UniformLarge => sc.batch_large,
            _ => sc.batch_small,
        },
        batch_boundary: sc.batch_boundary,
        adam: AdamConfig {
            lr: 3e-3,
            schedule: LrSchedule::Exponential {
                gamma: LR_DECAY,
                decay_steps: w.iterations,
            },
            ..AdamConfig::default()
        },
        seed: train_seed(w.problem) ^ 0xBA7C4,
        record_every: w.record_every,
        max_seconds: None,
        synthetic_dt: None,
    }
}

/// The outcome of one run, as a flat name → value map plus the
/// text labels (including the bit-exact fingerprints the determinism
/// check compares).
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Numeric results, keyed by metric name.
    pub values: BTreeMap<String, f64>,
    /// Text results: SIMD tier, and the hex fingerprints of the final
    /// error bits and the final parameters.
    pub labels: BTreeMap<String, String>,
}

impl Rep {
    fn set(&mut self, key: &str, v: f64) {
        self.values.insert(key.to_string(), v);
    }

    /// One-line JSON form.
    pub fn to_json(&self) -> String {
        let mut obj = BTreeMap::new();
        for (k, &v) in &self.values {
            // Non-finite numbers are not JSON; null marks them.
            let val = if v.is_finite() {
                Value::Num(v)
            } else {
                Value::Null
            };
            obj.insert(k.clone(), val);
        }
        for (k, v) in &self.labels {
            obj.insert(k.clone(), Value::Str(v.clone()));
        }
        Value::Obj(obj).to_string_compact()
    }
}

/// FNV-1a over the bit patterns of `xs`.
fn bits_hash(xs: &[f64]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        x.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    })
}

/// Per-layer seconds from the spans of an `SGM_TRACE=full` run.
///
/// SPADE builds its own input/output graphs, so graph spans nested
/// under `isr_scores` are stability work, not PGM work; they count in
/// `stability.isr_s` only. `lrd_decompose` calls the ER probe, so
/// `graph.lrd_s` is its time minus the `er_probe` spans inside it.
/// Spans on pool threads add up, so these are thread-seconds.
fn span_seconds(spans: &[TraceEvent]) -> [(&'static str, f64); 4] {
    let by_id: HashMap<u64, &TraceEvent> = spans.iter().map(|e| (e.id, e)).collect();
    let under = |ev: &TraceEvent, name: &str| {
        let mut p = ev.parent;
        while let Some(up) = by_id.get(&p) {
            if up.name == name {
                return true;
            }
            p = up.parent;
        }
        false
    };
    let (mut knn, mut er, mut lrd, mut er_in_lrd, mut isr) = (0, 0, 0, 0, 0);
    for ev in spans {
        if ev.name == "isr_scores" {
            isr += ev.dur_ns;
        } else if under(ev, "isr_scores") {
            continue;
        }
        match ev.name {
            "knn_build" => knn += ev.dur_ns,
            "er_probe" => {
                er += ev.dur_ns;
                if under(ev, "lrd_decompose") {
                    er_in_lrd += ev.dur_ns;
                }
            }
            "lrd_decompose" => lrd += ev.dur_ns,
            _ => {}
        }
    }
    let secs = |ns: u64| ns as f64 * 1e-9;
    [
        ("graph.knn_s", secs(knn)),
        ("graph.er_s", secs(er)),
        ("graph.lrd_s", secs(lrd - er_in_lrd)),
        ("stability.isr_s", secs(isr)),
    ]
}

/// Runs one training run of `w` on `seed`. `traced` installs the
/// decorators, the stage hook and full tracing.
pub fn run_rep(w: &Workload, seed: u64, traced: bool) -> Rep {
    run_scaled(w, &scale(w.problem, seed), traced).rep
}

/// A finished run: the report plus the raw training result and final
/// parameters (which the bit-identity test compares).
#[derive(Debug)]
pub struct Outcome {
    /// The run's report.
    pub rep: Rep,
    /// The engine's result.
    pub result: TrainResult,
    /// Final network parameters.
    pub params: Vec<f64>,
}

/// [`run_rep`] at an explicit harness scale.
pub fn run_scaled(w: &Workload, sc: &Scale, traced: bool) -> Outcome {
    let t_start = Instant::now();
    trace::set_level(if traced {
        TraceLevel::Full
    } else {
        TraceLevel::Off
    });
    let exp = match w.problem {
        Problem::Ldc => build_ldc(sc),
        Problem::Ar => build_ar(sc),
    };
    let problem_s = t_start.elapsed().as_secs_f64();
    let mut net = fresh_net(w, &exp, sc);
    let data = match w.method {
        Method::UniformLarge => &exp.data_large,
        _ => &exp.data_small,
    };
    let opts = train_options(w, sc);
    let cfg = sampler_config(w, &exp, sc);
    let tau_e = cfg.as_ref().map(|c| c.tau_e);

    let t_sampler = Instant::now();
    let mut rebuild_log: Option<Arc<Mutex<RebuildLog>>> = None;
    let mut sgm: Option<SgmSampler> = None;
    let mut uniform: Option<UniformSampler> = None;
    match cfg {
        Some(cfg) if traced => {
            let (builder, log) = probes::timed_builder();
            rebuild_log = Some(log);
            sgm = Some(SgmSampler::with_builder(&data.interior, cfg, builder));
        }
        Some(cfg) => sgm = Some(SgmSampler::new(&data.interior, cfg)),
        None => uniform = Some(UniformSampler::new(data.num_interior())),
    }
    let sampler_s = t_sampler.elapsed().as_secs_f64();
    let sampler: &mut dyn Sampler = match (&mut sgm, &mut uniform) {
        (Some(s), _) => s,
        (None, Some(u)) => u,
        (None, None) => unreachable!("one sampler is always built"),
    };

    let plain_model = PinnModel::new(&exp.problem, data);
    let plain_validator = AveragedValidation(&exp.validation);
    let model = CountingModel::new(&plain_model);
    let validator = TimedValidator::new(&plain_validator);
    let mut stages = StageTimes::new();
    let mut refresh_ms = Vec::new();
    let setup_s = t_start.elapsed().as_secs_f64();
    let cpu0 = probes::process_cpu_seconds();
    let t_train = Instant::now();
    let result: TrainResult = if traced {
        let mut timed = TimedSampler::new(sampler, tau_e);
        let mut trainer = Trainer {
            net: &mut net,
            model: &model,
        };
        let hooks: &mut [&mut dyn Hook] = &mut [&mut stages];
        let r = trainer.run_hooked(&mut timed, Some(&validator), &opts, hooks);
        refresh_ms = timed.refresh_ms;
        r
    } else {
        let mut trainer = Trainer {
            net: &mut net,
            model: &plain_model,
        };
        trainer.run(sampler, Some(&plain_validator), &opts)
    };
    let run_s = t_train.elapsed().as_secs_f64();
    let cpu_s = probes::process_cpu_seconds() - cpu0;
    let stats: Option<SgmStats> = sgm.as_ref().map(|s| s.stats());
    // Dropping the sampler joins its rebuild thread; the user waits for
    // that too, so it belongs to the wall time.
    drop(sgm);
    let wall_s = t_start.elapsed().as_secs_f64();

    let mut rep = Rep::default();
    rep.set("setup_s", setup_s);
    rep.set("setup.problem_s", problem_s);
    rep.set("setup.sampler_s", sampler_s);
    rep.set("train_s", result.train_seconds);
    rep.set("wall_s", wall_s);
    rep.set("cpu_util", cpu_s / run_s);
    rep.set("peak_rss_mb", probes::peak_rss_mb());
    rep.set("iterations", w.iterations as f64);
    rep.set("target", w.target);
    rep.set("ceiling", w.ceiling);
    rep.set("deterministic", w.deterministic as u8 as f64);
    rep.set("threads", sgm_par::global().threads() as f64);
    rep.labels
        .insert("simd_tier".into(), simd::detected_tier().name().into());
    let all_finite = result
        .history
        .iter()
        .all(|r| r.train_loss.is_finite() && r.val_errors.iter().all(|e| e.is_finite()));
    rep.set("all_finite", all_finite as u8 as f64);
    let smooth: Vec<(&Record, f64)> = result
        .history
        .windows(SMOOTH_RECORDS)
        .map(|win| {
            let mean = win.iter().map(|r| r.val_errors[0]).sum::<f64>() / win.len() as f64;
            (&win[win.len() - 1], mean)
        })
        .collect();
    let final_error = smooth.last().map_or(f64::NAN, |&(_, e)| e);
    rep.set("final_error", final_error);
    rep.labels.insert(
        "final_error_bits".into(),
        format!("{:016x}", final_error.to_bits()),
    );
    rep.labels.insert(
        "params_hash".into(),
        format!("{:016x}", bits_hash(&net.params())),
    );
    if let Some(&(hit, _)) = smooth.iter().find(|&&(_, e)| e <= w.target) {
        rep.set("time_to_target_s", hit.seconds);
        rep.set("iters_to_target", (hit.iteration + 1) as f64);
    }
    let s = stats.unwrap_or_default();
    rep.set("worker_deaths", s.worker_deaths as f64);
    rep.set("score_refreshes", s.refreshes as f64);
    rep.set("probe_evals", s.probe_evals as f64);
    rep.set("stale_epochs", s.rebuilds_stale_served as f64);
    let late = s.rebuilds_stale_served.saturating_sub(s.rebuilds_requested);
    rep.set("rebuilds_late", late as f64);

    if traced {
        for st in Stage::ALL {
            rep.set(&format!("stage.{}_s", st.name()), stages.total(st));
        }
        rep.set("stage.train_total_s", stages.train_total());
        rep.set(
            "iter_ms",
            stages.train_total() * 1e3 / stages.iterations().max(1) as f64,
        );
        refresh_ms.sort_by(f64::total_cmp);
        let p50 = refresh_ms.get(refresh_ms.len() / 2).copied().unwrap_or(0.0);
        rep.set("score_refresh_ms_p50", p50);
        let log = rebuild_log
            .map(|l| *l.lock().expect("rebuild log poisoned"))
            .unwrap_or_default();
        rep.set("rebuild_wall_s", log.wall_s);
        rep.set("rebuild_cpu_s", log.cpu_s);
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        rep.set("probe_rows", load(&model.probe_rows) as f64);
        rep.set("probe_s", load(&model.probe_ns) as f64 * 1e-9);
        let lg_s = load(&model.loss_grad_ns) as f64 * 1e-9;
        rep.set(
            "loss_grad_rows_per_s",
            load(&model.loss_grad_rows) as f64 / lg_s,
        );
        rep.set("validate_s", validator.ns.get() as f64 * 1e-9);
        for (key, secs) in span_seconds(&trace::drain()) {
            rep.set(key, secs);
        }
    }
    Outcome {
        rep,
        result,
        params: net.params(),
    }
}
