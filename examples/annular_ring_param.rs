//! Parameterised annular ring (paper §4.2): one network learns the flow
//! for every inner radius `r_i ∈ [0.75, 1.1]`, trained with SGM-S
//! (SGM-PINN + the ISR stability term).
//!
//! ```sh
//! cargo run --release -p sgm-core --example annular_ring_param
//! ```
//!
//! After training, the model is evaluated at three radii it was never
//! specifically fitted to, demonstrating the amortised "solve a whole
//! design family once" workflow that motivates parameterised PINNs.
//!
//! A second stage then trains one *specialist* network per validation
//! radius — the same architecture at B fixed parameter values — as a
//! single [`ParamSweep`] group: all instances advance in lockstep
//! through the interleaved `BatchedMlp` kernels, each bit-identical to
//! the solo run it replaces. It shows the API, not a speedup: at B=3
//! and width 40 the batched pass is slower than B sequential solo runs
//! (it pays off at full lanes and larger widths, DESIGN.md §6f).

use sgm_cfd::ring::{ring_validation_sets, PAPER_VALIDATION_RADII};
use sgm_core::{SgmConfig, SgmSampler};
use sgm_graph::knn::KnnStrategy;
use sgm_linalg::rng::Rng64;
use sgm_nn::activation::Activation;
use sgm_nn::mlp::{Mlp, MlpConfig};
use sgm_nn::optimizer::{AdamConfig, LrSchedule};
use sgm_physics::geometry::{AnnulusChannel, FillStrategy};
use sgm_physics::pde::{NsConfig, Pde};
use sgm_physics::problem::{Problem, TrainSet};
use sgm_physics::{AveragedValidation, PinnModel};
use sgm_train::{ParamSweep, SweepJob, TrainOptions, Trainer, UniformSampler};

fn main() {
    let ring = AnnulusChannel::default();
    let mut problem = Problem::new(Pde::NavierStokes(NsConfig {
        nu: 0.1,
        zero_eq: None,
    }));
    problem.bc_weight = 10.0;

    let mut rng = Rng64::new(21);
    let interior = ring.sample_interior(8192, FillStrategy::Halton, &mut rng);
    let (boundary, boundary_targets) = ring.sample_boundary(512, 3, &mut rng);
    let data = TrainSet {
        interior,
        boundary,
        boundary_targets,
    };
    let validation = ring_validation_sets(&ring, &PAPER_VALIDATION_RADII, 8, 24);

    let mut net = Mlp::new(
        &MlpConfig {
            input_dim: 3,  // (x, y, r_i)
            output_dim: 3, // (u, v, p)
            hidden_width: 40,
            hidden_layers: 3,
            activation: Activation::SiLu,
            fourier: None,
        },
        &mut Rng64::new(31),
    );
    // SGM-S: the PGM is built on the spatial coordinates only (paper
    // §3.2), while the ISR term senses sensitivity to the full input —
    // including the design parameter (paper §3.4, §4.2).
    let mut sampler = SgmSampler::new(
        &data.interior,
        SgmConfig {
            k: 7,
            knn_strategy: KnnStrategy::Grid,
            lrd_level: 6,
            min_clusters: 48,
            tau_e: 300,
            tau_g: 2000,
            use_isr: true,
            isr_weight: 1.0,
            spatial_dims: 2,
            ..SgmConfig::default()
        },
    );

    let opts = TrainOptions {
        iterations: usize::MAX / 2,
        batch_interior: 128,
        batch_boundary: 64,
        adam: AdamConfig {
            lr: 2e-3,
            schedule: LrSchedule::Exponential {
                gamma: 0.9,
                decay_steps: 2000,
            },
            ..AdamConfig::default()
        },
        seed: 3,
        record_every: 100,
        max_seconds: Some(30.0),
        synthetic_dt: None,
    };
    println!("training SGM-S on the parameterised annulus (30s)...");
    let result = {
        let model = PinnModel::new(&problem, &data);
        let mut tr = Trainer {
            net: &mut net,
            model: &model,
        };
        tr.run(&mut sampler, Some(&AveragedValidation(&validation)), &opts)
    };
    let last = result.history.last().unwrap();
    println!(
        "finished {} iterations; averaged errors u={:.4} v={:.4} p={:.4}",
        last.iteration, last.val_errors[0], last.val_errors[1], last.val_errors[2]
    );

    // Inference across the design family: centreline speed at y = 0.
    println!("\ninstant design sweep (u at (x, 0) for three radii):");
    for &r_i in &PAPER_VALIDATION_RADII {
        print!("  r_i={r_i:<6}");
        for ix in 0..5 {
            let x = r_i + (ring.r_outer - r_i) * (ix as f64 + 0.5) / 5.0;
            let q = sgm_linalg::dense::Matrix::from_rows(&[&[x, 0.0, r_i]]);
            let out = net.forward(&q);
            let (u_exact, _, _) = ring.exact_solution(x, 0.0, r_i);
            print!(" u({x:.2})={:.3}(exact {:.3})", out.get(0, 0), u_exact);
        }
        println!();
    }
    let stats = sampler.stats();
    println!(
        "\nsampler: {} refreshes, {} probes, {:.2}s overhead, {} rebuilds",
        stats.refreshes, stats.probe_evals, stats.refresh_seconds, stats.rebuilds_applied
    );
    println!(
        "rebuilds: {} completed, {} stale epochs served, last took {:.3}s",
        stats.rebuilds_completed, stats.rebuilds_stale_served, stats.last_rebuild_seconds
    );

    // ---- Stage 2: per-radius specialists as one batched sweep ----
    // One network per validation radius, trained through the ParamSweep
    // lockstep runner: every Adam step runs all instances at once
    // through the interleaved BatchedMlp kernels (at this B and width,
    // slower than sequential solo runs). The specialists draw uniform
    // batches; any sampler, point-adapting ones included, could run in
    // the group — the SGM-S run above keeps the adaptive-sampling story.
    let radii = PAPER_VALIDATION_RADII;
    println!(
        "\ntraining {} per-radius specialists as one batched ParamSweep (10s)...",
        radii.len()
    );
    let mut spec_rng = Rng64::new(91);
    let spec_problems: Vec<Problem> = radii
        .iter()
        .map(|_| {
            let mut p = Problem::new(Pde::NavierStokes(NsConfig {
                nu: 0.1,
                zero_eq: None,
            }));
            p.bc_weight = 10.0;
            p
        })
        .collect();
    let spec_data: Vec<TrainSet> = radii
        .iter()
        .map(|&r_i| {
            // Pinning the parameter range collapses the family to one
            // design: all samples carry this specialist's radius.
            let fixed = AnnulusChannel {
                param_range: (r_i, r_i),
                ..AnnulusChannel::default()
            };
            let interior = fixed.sample_interior(2048, FillStrategy::Halton, &mut spec_rng);
            let (boundary, boundary_targets) = fixed.sample_boundary(256, 3, &mut spec_rng);
            TrainSet {
                interior,
                boundary,
                boundary_targets,
            }
        })
        .collect();
    let spec_models: Vec<PinnModel> = spec_problems
        .iter()
        .zip(&spec_data)
        .map(|(p, d)| PinnModel::new(p, d))
        .collect();
    let mut spec_nets: Vec<Mlp> = (0..radii.len())
        .map(|i| {
            Mlp::new(
                &MlpConfig {
                    input_dim: 3,
                    output_dim: 3,
                    hidden_width: 40,
                    hidden_layers: 3,
                    activation: Activation::SiLu,
                    fourier: None,
                },
                &mut Rng64::new(51 + i as u64),
            )
        })
        .collect();
    let mut spec_samplers: Vec<UniformSampler> = spec_data
        .iter()
        .map(|d| UniformSampler::new(d.num_interior()))
        .collect();
    let spec_opts = TrainOptions {
        iterations: usize::MAX / 2,
        batch_interior: 128,
        batch_boundary: 64,
        adam: AdamConfig {
            lr: 2e-3,
            schedule: LrSchedule::Exponential {
                gamma: 0.9,
                decay_steps: 2000,
            },
            ..AdamConfig::default()
        },
        seed: 5,
        record_every: 200,
        max_seconds: Some(10.0),
        synthetic_dt: None,
    };
    let spec_validators: Vec<AveragedValidation> = (0..radii.len())
        .map(|i| AveragedValidation(std::slice::from_ref(&validation[i])))
        .collect();
    let mut jobs: Vec<SweepJob<'_>> = spec_nets
        .iter_mut()
        .zip(&spec_models)
        .zip(&mut spec_samplers)
        .zip(&spec_validators)
        .map(|(((snet, model), spl), val)| SweepJob {
            net: snet,
            model,
            sampler: spl,
            validator: Some(val),
            opts: &spec_opts,
        })
        .collect();
    let spec_results = ParamSweep::run(&mut jobs).expect("sweep constraints hold");
    drop(jobs);
    for (i, &r_i) in radii.iter().enumerate() {
        let last = spec_results[i].history.last().unwrap();
        println!(
            "  specialist r_i={r_i:<6} {} iterations, errors u={:.4} v={:.4} p={:.4}",
            last.iteration, last.val_errors[0], last.val_errors[1], last.val_errors[2]
        );
    }
}
