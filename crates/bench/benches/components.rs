//! Micro-benchmarks backing the paper's §3.6 complexity claims plus the
//! parallel-runtime speedups:
//!
//! * kNN construction is `O(N log N)` (HNSW) / near-linear (grid);
//! * effective-resistance estimation and LRD are `O(kN)`;
//! * the ISR solve is cheap on probe-sized sets;
//! * SGM's refresh cost (r·N probes) is far below MIS's (N probes);
//! * the MLP derivative-propagating forward/backward scales linearly in
//!   batch size;
//! * the blocked GEMM beats the naive reference kernel, and the
//!   `*_threads` groups record how the pooled paths scale with the
//!   `sgm-par` thread count;
//! * `simd_kernels` times the SIMD-dispatched hot paths with stable case
//!   names — run it once under `SGM_SIMD=scalar` and once under
//!   `SGM_SIMD=auto`, then compare the two `--json` dumps with the
//!   `bench_diff` binary (this is how `BENCH_PR4.json` is assembled).
//!
//! Run with `cargo bench -p sgm-bench`; `-- --test` dry-runs every case
//! once (tier-1), `-- --json <path>` writes a machine-readable report.
//! Sizes are kept modest so the whole suite finishes in minutes; the
//! *ratios* between size points and thread counts are what the claims
//! rest on.

use sgm_bench::microbench::Runner;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counting allocator so the trainer-overhead group can report heap
/// allocations per iteration alongside wall-clock (one relaxed atomic
/// per alloc; negligible against the kernels measured here).
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}
use sgm_graph::knn::{brute_knn, build_knn_graph, KnnConfig, KnnStrategy};
use sgm_graph::lrd::{decompose, ErSource, LrdConfig};
use sgm_graph::points::PointCloud;
use sgm_graph::resistance::{approx_edge_resistances, ApproxErOptions};
use sgm_linalg::dense::{gemm, gemm_reference, Matrix};
use sgm_linalg::rng::Rng64;
use sgm_nn::activation::Activation;
use sgm_nn::mlp::{BatchDerivatives, Mlp, MlpConfig};
use sgm_nn::BatchedMlp;
use sgm_par::Parallelism;
use sgm_stability::{spade_scores, SpadeConfig};

fn cloud(n: usize, seed: u64) -> PointCloud {
    let mut rng = Rng64::new(seed);
    PointCloud::uniform_box(n, 2, 0.0, 1.0, &mut rng)
}

/// Thread counts exercised by the `*_threads` groups; 1 maps to the
/// serial oracle path.
const THREAD_POINTS: [usize; 3] = [1, 2, 4];

fn parallelism_for(threads: usize) -> Parallelism {
    if threads <= 1 {
        Parallelism::Serial
    } else {
        Parallelism::Threads(threads)
    }
}

fn bench_gemm(r: &mut Runner) {
    let mut rng = Rng64::new(11);
    for &n in &[128usize, 256, 384] {
        let a = Matrix::gaussian(n, n, &mut rng);
        let b = Matrix::gaussian(n, n, &mut rng);
        let mut c = Matrix::zeros(n, n);
        r.bench("gemm_blocked", &format!("naive_{n}"), || {
            gemm_reference(1.0, &a, &b, 0.0, &mut c);
            c.get(0, 0)
        });
        r.bench("gemm_blocked", &format!("blocked_serial_{n}"), || {
            sgm_par::with_parallelism(Parallelism::Serial, || {
                gemm(1.0, &a, &b, 0.0, &mut c);
                c.get(0, 0)
            })
        });
        r.bench("gemm_blocked", &format!("blocked_auto_{n}"), || {
            gemm(1.0, &a, &b, 0.0, &mut c);
            c.get(0, 0)
        });
    }
}

fn bench_knn(r: &mut Runner) {
    for &n in &[1000usize, 4000, 16000] {
        let pts = cloud(n, 1);
        for (name, strategy) in [("grid", KnnStrategy::Grid), ("hnsw", KnnStrategy::Hnsw)] {
            r.bench("knn_scaling", &format!("{name}_{n}"), || {
                build_knn_graph(
                    &pts,
                    &KnnConfig {
                        k: 8,
                        strategy,
                        ..KnnConfig::default()
                    },
                )
            });
        }
    }
}

fn bench_er_and_lrd(r: &mut Runner) {
    for &n in &[1000usize, 4000, 16000] {
        let pts = cloud(n, 2);
        let graph = build_knn_graph(
            &pts,
            &KnnConfig {
                k: 8,
                strategy: KnnStrategy::Grid,
                ..KnnConfig::default()
            },
        );
        r.bench("er_lrd_scaling", &format!("approx_er_{n}"), || {
            approx_edge_resistances(&graph, &ApproxErOptions::default())
        });
        let er = approx_edge_resistances(&graph, &ApproxErOptions::default());
        r.bench("er_lrd_scaling", &format!("lrd_{n}"), || {
            decompose(
                &graph,
                &LrdConfig {
                    level: 6,
                    er: ErSource::Provided(er.clone()),
                    min_clusters: 32,
                    max_cluster_frac: 0.02,
                    budget_scale: 1.0,
                },
            )
        });
    }
}

fn bench_isr(r: &mut Runner) {
    // 192 is the experiment harness's production `isr_cap`.
    for &n in &[64usize, 128, 192, 256] {
        let mut rng = Rng64::new(3);
        let inputs = PointCloud::uniform_box(n, 3, 0.0, 1.0, &mut rng);
        let outputs = {
            let mut flat = Vec::with_capacity(n * 2);
            for i in 0..n {
                let p = inputs.point(i);
                flat.push((3.0 * p[0]).sin() + p[2]);
                flat.push(p[0] * p[1]);
            }
            PointCloud::from_flat(2, flat)
        };
        r.bench("isr_probe", &format!("spade_{n}"), || {
            spade_scores(&inputs, &outputs, &SpadeConfig::default())
        });
    }
}

fn mlp_48x4(rng: &mut Rng64) -> Mlp {
    Mlp::new(
        &MlpConfig {
            input_dim: 3,
            output_dim: 4,
            hidden_width: 48,
            hidden_layers: 4,
            activation: Activation::SiLu,
            fourier: None,
        },
        rng,
    )
}

fn bench_mlp(r: &mut Runner) {
    let mut rng = Rng64::new(4);
    let net = mlp_48x4(&mut rng);
    for &b_sz in &[128usize, 512, 2048] {
        let x = Matrix::gaussian(b_sz, 3, &mut rng);
        r.bench("mlp_fwd_bwd", &format!("fwd_derivs_bwd_{b_sz}"), || {
            let (full, mut cache) = net.forward_with_derivs(&x, &[0, 1]);
            let adj = BatchDerivatives::zeros_like(&full);
            net.backward(&mut cache, &adj)
        });
        r.bench("mlp_fwd_bwd", &format!("fwd_values_only_{b_sz}"), || {
            net.forward(&x)
        });
    }
}

fn bench_mlp_threads(r: &mut Runner) {
    let mut rng = Rng64::new(12);
    let net = mlp_48x4(&mut rng);
    let x = Matrix::gaussian(2048, 3, &mut rng);
    for &t in &THREAD_POINTS {
        let p = parallelism_for(t);
        r.bench(
            "mlp_fwd_threads",
            &format!("fwd_derivs_bwd_2048_t{t}"),
            || {
                sgm_par::with_parallelism(p, || {
                    let (full, mut cache) = net.forward_with_derivs(&x, &[0, 1]);
                    let adj = BatchDerivatives::zeros_like(&full);
                    net.backward(&mut cache, &adj)
                })
            },
        );
    }
}

/// Per-call cost of the per-sample loss probe (`Problem::sample_losses_at`)
/// on the LDC benchmark network (2→4, 48×4 SiLU, zero-equation NS), at
/// the row counts the end-to-end benchmark issues: 32 (τ_e cluster-probe
/// chunks), 128 (the small-batch post-step record) and 1024 (the
/// large-batch post-step record). Runs under the engine's default `Auto`
/// parallelism, i.e. on the global pool (sized from `SGM_NUM_THREADS`,
/// else the CPU count; the end-to-end benchmark pins it to 2).
fn bench_probe(r: &mut Runner) {
    use sgm_physics::geometry::{Cavity, FillStrategy};
    use sgm_physics::pde::{NsConfig, Pde, ZeroEqConfig};
    use sgm_physics::problem::Problem;

    let problem = Problem::new(Pde::NavierStokes(NsConfig {
        nu: 1.0,
        zero_eq: Some(ZeroEqConfig {
            karman: 0.419,
            mixing_cap: 0.09 * 0.5,
            wall_distance: Cavity::wall_distance,
            sqrt_eps: 1e-8,
        }),
    }));
    let mut rng = Rng64::new(21);
    let net = Mlp::new(
        &MlpConfig {
            input_dim: 2,
            output_dim: 4,
            hidden_width: 48,
            hidden_layers: 4,
            activation: Activation::SiLu,
            fourier: None,
        },
        &mut rng,
    );
    let cloud = Cavity::default().sample_interior(1024, FillStrategy::Halton, &mut rng);
    for rows in [32usize, 128, 1024] {
        let idx: Vec<usize> = (0..rows).collect();
        let x = Problem::gather(&cloud, &idx);
        r.bench("probe", &format!("sample_losses_{rows}"), || {
            problem.sample_losses_at(&net, &x)
        });
    }
}

fn bench_knn_threads(r: &mut Runner) {
    let pts = cloud(8192, 13);
    for &t in &THREAD_POINTS {
        let p = parallelism_for(t);
        r.bench("knn_threads", &format!("brute_8192_t{t}"), || {
            sgm_par::with_parallelism(p, || brute_knn(&pts, 8))
        });
    }
}

fn bench_refresh_overhead(r: &mut Runner) {
    use sgm_core::{MisConfig, MisSampler, SgmConfig, SgmSampler};
    use sgm_physics::PinnModel;
    use sgm_train::{Probe, Sampler};

    let (net, problem, data) = refresh_fixture();
    // SGM probes r·N per refresh; MIS probes the full N. The ratio of
    // these two timings is the overhead reduction claimed in §3.1(3).
    {
        let mut s = SgmSampler::new(
            &data.interior,
            SgmConfig {
                tau_e: 1,
                tau_g: 0,
                background: false,
                min_clusters: 32,
                ..SgmConfig::default()
            },
        );
        let model = PinnModel::new(&problem, &data);
        let probe = Probe::new(&net, &model);
        let mut rng = Rng64::new(7);
        let mut iter = 0usize;
        r.bench("sampler_refresh", "sgm_refresh_r15", || {
            s.refresh(iter, &probe, &mut rng);
            iter += 1;
        });
    }
    {
        let mut s = MisSampler::new(
            data.interior.len(),
            MisConfig {
                tau_e: 1,
                ..MisConfig::default()
            },
        );
        let model = PinnModel::new(&problem, &data);
        let probe = Probe::new(&net, &model);
        let mut rng = Rng64::new(8);
        let mut iter = 0usize;
        r.bench("sampler_refresh", "mis_refresh_full", || {
            s.refresh(iter, &probe, &mut rng);
            iter += 1;
        });
    }
}

fn refresh_fixture() -> (
    Mlp,
    sgm_physics::problem::Problem,
    sgm_physics::problem::TrainSet,
) {
    use sgm_physics::geometry::{Cavity, FillStrategy};
    use sgm_physics::pde::{Pde, PoissonConfig};
    use sgm_physics::problem::{Problem, TrainSet};

    let n = 8000;
    let problem = Problem::new(Pde::Poisson(PoissonConfig {
        forcing: |p: &[f64]| (5.0 * p[0]).sin(),
    }));
    let mut rng = Rng64::new(5);
    let interior = Cavity::default().sample_interior(n, FillStrategy::Halton, &mut rng);
    let data = TrainSet {
        interior,
        boundary: PointCloud::from_flat(2, vec![0.0, 0.0]),
        boundary_targets: Matrix::zeros(1, 1),
    };
    let net = Mlp::new(
        &MlpConfig {
            input_dim: 2,
            output_dim: 1,
            hidden_width: 32,
            hidden_layers: 3,
            activation: Activation::SiLu,
            fourier: None,
        },
        &mut Rng64::new(6),
    );
    (net, problem, data)
}

fn bench_probe_refresh_threads(r: &mut Runner) {
    use sgm_core::{SgmConfig, SgmSampler};
    use sgm_physics::PinnModel;
    use sgm_train::{Probe, Sampler};

    let (net, problem, data) = refresh_fixture();
    for &t in &THREAD_POINTS {
        let p = parallelism_for(t);
        let mut s = SgmSampler::new(
            &data.interior,
            SgmConfig {
                tau_e: 1,
                tau_g: 0,
                background: false,
                min_clusters: 32,
                ..SgmConfig::default()
            },
        );
        let model = PinnModel::new(&problem, &data);
        let probe = Probe::new(&net, &model);
        let mut rng = Rng64::new(7);
        let mut iter = 0usize;
        r.bench(
            "probe_refresh_threads",
            &format!("sgm_r15_8000_t{t}"),
            || {
                sgm_par::with_parallelism(p, || {
                    s.refresh(iter, &probe, &mut rng);
                    iter += 1;
                })
            },
        );
    }
}

/// Old-style allocating training loop vs the staged workspace engine
/// (`sgm-train`), both serial, interior-only, identical batch sizes.
/// Each case runs `K` Adam iterations per timed call; the eprinted
/// alloc/iter figures feed BENCH_PR2.json.
fn bench_trainer_overhead(r: &mut Runner) {
    use sgm_nn::optimizer::{Adam, AdamConfig};
    use sgm_physics::PinnModel;
    use sgm_train::{TrainOptions, Trainer, UniformSampler};

    const K: usize = 20;
    let batch = 256usize;
    let (_, problem, data) = refresh_fixture();
    let n = data.interior.len();
    let mk_net = || {
        Mlp::new(
            &MlpConfig {
                input_dim: 2,
                output_dim: 1,
                hidden_width: 32,
                hidden_layers: 3,
                activation: Activation::SiLu,
                fourier: None,
            },
            &mut Rng64::new(6),
        )
    };
    sgm_par::with_parallelism(Parallelism::Serial, || {
        {
            let mut net = mk_net();
            let mut adam = Adam::new(&net, AdamConfig::default());
            let mut rng = Rng64::new(77);
            let mut allocs = 0usize;
            let mut calls = 0usize;
            r.bench(
                "trainer_overhead",
                &format!("alloc_loop_{K}x_b{batch}"),
                || {
                    let a0 = alloc_count();
                    for _ in 0..K {
                        let idx: Vec<usize> = (0..batch).map(|_| rng.below(n)).collect();
                        let mut x = Matrix::zeros(batch, 2);
                        for (row, &i) in idx.iter().enumerate() {
                            let p = data.interior.point(i);
                            x.set(row, 0, p[0]);
                            x.set(row, 1, p[1]);
                        }
                        let (_loss, grads, _per) = problem.interior_loss_and_grads(&net, &x);
                        adam.step(&mut net, &grads);
                    }
                    allocs += alloc_count() - a0;
                    calls += 1;
                },
            );
            eprintln!(
                "[trainer_overhead] alloc_loop: {:.1} allocs/iter",
                allocs as f64 / (calls * K) as f64
            );
        }
        {
            let mut net = mk_net();
            let model = PinnModel::new(&problem, &data);
            let mut sampler = UniformSampler::new(n);
            let opts = TrainOptions {
                iterations: K,
                batch_interior: batch,
                batch_boundary: 0,
                adam: AdamConfig::default(),
                seed: 78,
                record_every: 10 * K,
                max_seconds: None,
                synthetic_dt: None,
            };
            let mut allocs = 0usize;
            let mut calls = 0usize;
            r.bench(
                "trainer_overhead",
                &format!("engine_run_{K}x_b{batch}"),
                || {
                    let a0 = alloc_count();
                    let mut tr = Trainer {
                        net: &mut net,
                        model: &model,
                    };
                    tr.run(&mut sampler, None, &opts);
                    allocs += alloc_count() - a0;
                    calls += 1;
                },
            );
            eprintln!(
                "[trainer_overhead] engine_run: {:.1} allocs/iter (includes per-run \
                 workspace construction; steady-state is 0 — see train_zero_alloc)",
                allocs as f64 / (calls * K) as f64
            );
        }
    });
}

/// Cost of the observability layer itself. The registry cases time the
/// raw record paths; the engine case re-runs the `trainer_overhead`
/// engine loop with the `ObsHook` installed only under `SGM_OBS_HOOK=1`.
/// `SGM_WATCHDOG` additionally arms the watchdog scraper for the whole
/// group (the CI gate sets both), so the instrumented dump measures the
/// full recorder + watchdog stack. Case names are env-independent, so a
/// baseline `--json` dump and an instrumented one diff case-by-case
/// with `bench_diff --strict` — that comparison is the "tracing off
/// costs nothing" acceptance gate.
fn bench_obs_overhead(r: &mut Runner) {
    use sgm_obs::{trace, TraceLevel};
    use sgm_physics::PinnModel;
    use sgm_train::{Hook, ObsHook, TrainOptions, Trainer, UniformSampler};

    // Armed only when SGM_WATCHDOG is set; scrapes concurrently with
    // every case below until dropped at the end of the group.
    let _watchdog = sgm_obs::Watchdog::from_env();

    static C: sgm_obs::Counter = sgm_obs::Counter::new("bench_obs_counter");
    static H: sgm_obs::Histogram = sgm_obs::Histogram::new("bench_obs_hist");
    r.bench("obs_overhead", "counter_hist_1k", || {
        for i in 0..1000u64 {
            C.add(1);
            H.record(i * 31);
        }
        C.value()
    });
    r.bench("obs_overhead", "span_disabled_1k", || {
        // With SGM_TRACE unset each span is one relaxed load + a None.
        let mut live = 0u64;
        for _ in 0..1000 {
            let s = trace::span(TraceLevel::Full, "bench", "noop");
            live += u64::from(s.context().is_some());
        }
        live
    });

    const K: usize = 20;
    let batch = 256usize;
    let with_obs = std::env::var("SGM_OBS_HOOK").is_ok_and(|v| v == "1");
    let (_, problem, data) = refresh_fixture();
    let n = data.interior.len();
    let mut net = Mlp::new(
        &MlpConfig {
            input_dim: 2,
            output_dim: 1,
            hidden_width: 32,
            hidden_layers: 3,
            activation: Activation::SiLu,
            fourier: None,
        },
        &mut Rng64::new(6),
    );
    let model = PinnModel::new(&problem, &data);
    let mut sampler = UniformSampler::new(n);
    let opts = TrainOptions {
        iterations: K,
        batch_interior: batch,
        batch_boundary: 0,
        adam: sgm_nn::optimizer::AdamConfig::default(),
        seed: 79,
        record_every: 10 * K,
        max_seconds: None,
        synthetic_dt: None,
    };
    let mut obs = ObsHook::new();
    sgm_par::with_parallelism(Parallelism::Serial, || {
        r.bench("obs_overhead", &format!("engine_run_{K}x_b{batch}"), || {
            let mut tr = Trainer {
                net: &mut net,
                model: &model,
            };
            if with_obs {
                let mut hooks: [&mut dyn Hook; 1] = [&mut obs];
                tr.run_hooked(&mut sampler, None, &opts, &mut hooks);
            } else {
                tr.run(&mut sampler, None, &opts);
            }
        });
    });
}

/// Cost of the serving layer itself. The stable-named case runs one
/// quickstart-sized job end-to-end: by default straight through
/// `run_local` (spec build + training engine, no server), and under
/// `SGM_SERVE_JOB=1` through a live `sgm-serve` instance over a real
/// socket (submit → long-poll wait → checkpoint download). The server
/// is started once outside the timed closure and its slice size covers
/// the whole run, so the diff isolates HTTP + scheduler + job-table
/// overhead. Diffing the two `--json` dumps with `bench_diff --strict`
/// is the "engine-in-server costs within noise of engine-direct"
/// acceptance gate.
fn bench_serve_overhead(r: &mut Runner) {
    use sgm_serve::{client, run_local, JobSpec, ServeConfig, Server};

    // Sized so the fixed per-job serving cost (three loopback round
    // trips + scheduler hand-off, ~0.7 ms) is well under the 10 %
    // strict-gate threshold against the training work itself.
    let spec = JobSpec {
        tenant: "bench".into(),
        iterations: 1500,
        interior: 128,
        boundary: 32,
        batch_interior: 16,
        batch_boundary: 8,
        hidden_width: 8,
        hidden_layers: 2,
        record_every: 100,
        ..JobSpec::default()
    };
    let in_server = std::env::var("SGM_SERVE_JOB").is_ok_and(|v| v == "1");
    let server = in_server.then(|| {
        Server::start(ServeConfig {
            workers: 1,
            slice_iterations: spec.iterations, // one slice: no preemption rebuilds
            ..ServeConfig::default()
        })
        .expect("bind bench server")
    });
    let addr = server.as_ref().map(Server::addr);
    r.bench("serve_overhead", "job_1500it_e2e", || {
        if let Some(addr) = addr {
            let id = client::submit(addr, &spec).expect("submit");
            let status =
                client::wait_settled(addr, id, std::time::Duration::from_secs(120)).expect("wait");
            assert_eq!(status.req_str("state").unwrap(), "completed");
            client::checkpoint(addr, id).expect("checkpoint").len()
        } else {
            let (_, state) = sgm_par::with_parallelism(Parallelism::Serial, || run_local(&spec))
                .expect("local run");
            state.to_json().expect("serialise").len()
        }
    });
    if let Some(server) = server {
        assert!(server.shutdown_and_join(), "bench server leaked threads");
    }
}

/// Per-sampler engine cost over a short run — what each draw/adapt
/// strategy adds on top of the shared loss/grad/step work — plus a
/// stable-named acceptance pair for `bench_diff --strict`: the
/// `engine_adapt_stage_*` case runs a draw-only sampler by default and
/// a point-set-adaptive sampler on *non-mutating* iterations under
/// `SGM_SAMPLER_ADAPT=1`. Diffing the two dumps gates the adapt-stage
/// contract: an idle adapt stage (PointSet bookkeeping, coordinate
/// gathers, change-log drains) must cost within noise of not having one.
fn bench_sampler_overhead(r: &mut Runner) {
    use sgm_core::{
        DmisConfig, DmisSampler, MisConfig, MisSampler, RadConfig, RadSampler, RarConfig,
        RarDConfig, RarDSampler, RarSampler, SgmConfig, SgmSampler,
    };
    use sgm_physics::PinnModel;
    use sgm_train::{Sampler, TrainOptions, Trainer, UniformSampler};

    const K: usize = 20;
    let batch = 64usize;
    let tau = 8usize;
    let (_, problem, data) = refresh_fixture();
    let n = data.interior.len();
    let net_cfg = MlpConfig {
        input_dim: 2,
        output_dim: 1,
        hidden_width: 16,
        hidden_layers: 2,
        activation: Activation::Tanh,
        fourier: None,
    };
    let model = PinnModel::new(&problem, &data);
    let opts = TrainOptions {
        iterations: K,
        batch_interior: batch,
        batch_boundary: 0,
        adam: sgm_nn::optimizer::AdamConfig::default(),
        seed: 83,
        record_every: 10 * K,
        max_seconds: None,
        synthetic_dt: None,
    };
    type MkSampler = Box<dyn Fn() -> Box<dyn Sampler>>;
    let mk: Vec<(&str, MkSampler)> = vec![
        (
            "uniform",
            Box::new(move || Box::new(UniformSampler::new(n))),
        ),
        (
            "mis",
            Box::new(move || {
                Box::new(MisSampler::new(
                    n,
                    MisConfig {
                        tau_e: tau,
                        ..MisConfig::default()
                    },
                ))
            }),
        ),
        (
            "rar",
            Box::new(move || {
                Box::new(RarSampler::new(
                    n,
                    RarConfig {
                        tau,
                        ..RarConfig::default()
                    },
                    &mut Rng64::new(17),
                ))
            }),
        ),
        (
            "rad",
            Box::new(move || {
                Box::new(RadSampler::new(
                    n,
                    RadConfig {
                        tau,
                        pool_size: 1024,
                        ..RadConfig::default()
                    },
                ))
            }),
        ),
        (
            "rar_d",
            Box::new(move || {
                Box::new(RarDSampler::new(
                    n,
                    RarDConfig {
                        tau,
                        candidates: 256,
                        add_per_adapt: 32,
                        ..RarDConfig::default()
                    },
                ))
            }),
        ),
        (
            "dmis",
            Box::new(move || {
                Box::new(DmisSampler::new(
                    n,
                    DmisConfig {
                        tau,
                        ..DmisConfig::default()
                    },
                ))
            }),
        ),
    ];
    sgm_par::with_parallelism(Parallelism::Serial, || {
        let mut net = Mlp::new(&net_cfg, &mut Rng64::new(19));
        for (name, mk_sampler) in &mk {
            let mut sampler = mk_sampler();
            r.bench(
                "sampler_overhead",
                &format!("engine_{K}x_b{batch}_{name}"),
                || {
                    let mut tr = Trainer {
                        net: &mut net,
                        model: &model,
                    };
                    tr.run(sampler.as_mut(), None, &opts);
                },
            );
        }
        // SGM separately: graph construction dominates its first run, so
        // build once outside the timed closure like a real training run
        // would.
        let mut sgm = SgmSampler::new(
            &data.interior,
            SgmConfig {
                k: 6,
                min_clusters: 16,
                max_cluster_frac: 0.1,
                tau_e: tau,
                tau_g: 0,
                background: false,
                ..SgmConfig::default()
            },
        );
        r.bench(
            "sampler_overhead",
            &format!("engine_{K}x_b{batch}_sgm"),
            || {
                let mut tr = Trainer {
                    net: &mut net,
                    model: &model,
                };
                tr.run(&mut sgm, None, &opts);
            },
        );
        // The strict-diff pair: same case name in both dumps, sampler
        // chosen by env. `tau: 0` keeps the adaptive sampler's adapt
        // no-op on every iteration, so the diff isolates the *stage*
        // overhead, not any resampling work.
        let adaptive_idle = std::env::var("SGM_SAMPLER_ADAPT").is_ok_and(|v| v == "1");
        let mut sampler: Box<dyn Sampler> = if adaptive_idle {
            Box::new(RadSampler::new(
                n,
                RadConfig {
                    tau: 0,
                    ..RadConfig::default()
                },
            ))
        } else {
            Box::new(UniformSampler::new(n))
        };
        r.bench(
            "sampler_overhead",
            &format!("engine_adapt_stage_{K}x_b{batch}"),
            || {
                let mut tr = Trainer {
                    net: &mut net,
                    model: &model,
                };
                tr.run(sampler.as_mut(), None, &opts);
            },
        );
    });
}

fn bench_thread_scaling(r: &mut Runner) {
    use sgm_graph::partition::{parallel_decompose, GridPartitionConfig};
    let pts = cloud(24_000, 9);
    for &threads in &[1usize, 2, 4] {
        let cfg = GridPartitionConfig {
            tiles_per_axis: 4,
            threads,
            knn: KnnConfig {
                k: 8,
                strategy: KnnStrategy::Grid,
                ..KnnConfig::default()
            },
            lrd: LrdConfig {
                min_clusters: 8,
                ..LrdConfig::default()
            },
        };
        r.bench("rebuild_threads", &format!("s1_s2_t{threads}"), || {
            parallel_decompose(&pts, &cfg)
        });
    }
}

/// SIMD-dispatched hot paths under whatever tier `SGM_SIMD` selects.
/// Case names are tier-independent so `bench_diff` can match a forced
/// `SGM_SIMD=scalar` dump against an `SGM_SIMD=auto` one. Pooled paths
/// run serial here so the tier is the only variable.
fn bench_simd_kernels(r: &mut Runner) {
    use sgm_linalg::simd;
    use sgm_linalg::Csr;

    let mut rng = Rng64::new(21);
    let n = 100_003usize; // large odd: exercises the vector body + tail
    let a: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
    let b: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
    let mut y = vec![0.0; n];
    r.bench("simd_kernels", "dot_100k", || simd::dot(&a, &b));
    r.bench("simd_kernels", "axpy_100k", || {
        simd::axpy(0.5, &a, &mut y);
        y[0]
    });

    let ma = Matrix::gaussian(256, 256, &mut rng);
    let mb = Matrix::gaussian(256, 256, &mut rng);
    let mut mc = Matrix::zeros(256, 256);
    r.bench("simd_kernels", "gemm_256", || {
        sgm_par::with_parallelism(Parallelism::Serial, || {
            gemm(1.0, &ma, &mb, 0.0, &mut mc);
            mc.get(0, 0)
        })
    });

    let pts = cloud(4096, 22);
    r.bench("simd_kernels", "brute_knn_4096", || {
        sgm_par::with_parallelism(Parallelism::Serial, || brute_knn(&pts, 8))
    });
    let q = pts.point(0).to_vec();
    let mut d2 = vec![0.0; pts.len()];
    r.bench("simd_kernels", "dist2_batch_4096x2", || {
        simd::dist2_batch(pts.as_slice(), pts.dim(), &q, &mut d2);
        d2[0]
    });

    // 5-point Laplacian stencil: the CG / effective-resistance workload.
    let rows = 40_000usize;
    let stride = 200usize;
    let mut trip = Vec::new();
    for i in 0..rows {
        trip.push((i, i, 4.0));
        if i >= 1 {
            trip.push((i, i - 1, -1.0));
        }
        if i + 1 < rows {
            trip.push((i, i + 1, -1.0));
        }
        if i >= stride {
            trip.push((i, i - stride, -1.0));
        }
        if i + stride < rows {
            trip.push((i, i + stride, -1.0));
        }
    }
    let csr = Csr::from_triplets(rows, rows, &trip);
    let xs: Vec<f64> = (0..rows).map(|_| rng.gaussian()).collect();
    let mut ys = vec![0.0; rows];
    r.bench("simd_kernels", "spmv_5pt_40k", || {
        csr.mul_vec(&xs, &mut ys);
        ys[0]
    });

    // Workspace (steady-state training) path: this is what the sgm-train
    // engine runs every iteration, so the tier ratio here is the one that
    // matters for wall-clock training speed. Width 128 approximates the
    // paper's width-512 networks (GEMM-dominated) at bench budget; the
    // scaled-down width-48 nets are covered by the `mlp` group.
    let net = Mlp::new(
        &MlpConfig {
            input_dim: 3,
            output_dim: 4,
            hidden_width: 128,
            hidden_layers: 4,
            activation: Activation::SiLu,
            fourier: None,
        },
        &mut rng,
    );
    let x = Matrix::gaussian(256, 3, &mut rng);
    let mut ws = net.make_workspace(256, 2);
    let adj = BatchDerivatives::zeros(256, 4, 2);
    let mut grads = net.zero_gradients();
    r.bench("simd_kernels", "mlp_fwd_bwd_256x128", || {
        sgm_par::with_parallelism(Parallelism::Serial, || {
            net.forward_with_derivs_ws(&x, &[0, 1], &mut ws);
            grads.zero();
            net.backward_ws(&mut ws, &adj, &mut grads);
        })
    });

    let m_len = 20_000usize;
    let g: Vec<f64> = (0..m_len).map(|_| rng.gaussian()).collect();
    let mut p = vec![0.0; m_len];
    let mut m1 = vec![0.0; m_len];
    let mut v1 = vec![0.0; m_len];
    r.bench("simd_kernels", "adam_update_20k", || {
        simd::adam_update(
            &mut p, &g, &mut m1, &mut v1, 0.9, 0.999, 0.1, 0.01, 1e-3, 1e-8,
        );
        p[0]
    });
}

/// Batched multi-model execution: B same-architecture networks stepped
/// through one `BatchedMlp` forward+backward pass versus B sequential
/// solo passes over the same data. Both modes emit identical
/// (group, case) ids — run once with `SGM_MULTI_MODE=seq` and once with
/// `SGM_MULTI_MODE=batched`, then `bench_diff` the two dumps: the
/// speedup column *is* the batched-execution win (this is how
/// `BENCH_PR9.json` is assembled). The CI/pipeline gate runs on the
/// lane-full B=8 width-128 case — the regime the sweep and serve
/// co-execution call sites run in — with `--min-speedup 1.2`, a noise
/// floor under the ~1.4x the case measures on the reference host (see
/// DESIGN.md §6f for why B<8 cases pad to 8 lanes and read as
/// slowdowns here; they are kept in the dump as the honest record).
fn bench_multi_model(r: &mut Runner) {
    let batched = matches!(std::env::var("SGM_MULTI_MODE").as_deref(), Ok("batched"));
    let rows = 128usize;
    let mut rng = Rng64::new(31);
    for &width in &[64usize, 128] {
        let cfg = MlpConfig {
            input_dim: 3,
            output_dim: 4,
            hidden_width: width,
            hidden_layers: 4,
            activation: Activation::SiLu,
            fourier: None,
        };
        for &b in &[1usize, 4, 8, 16] {
            let nets: Vec<Mlp> = (0..b).map(|_| Mlp::new(&cfg, &mut rng)).collect();
            let xs: Vec<Matrix> = (0..b)
                .map(|_| Matrix::gaussian(rows, 3, &mut rng))
                .collect();
            let adj = BatchDerivatives::zeros(rows, 4, 2);
            let name = format!("fwd_bwd_b{b}_w{width}");
            if batched {
                let refs: Vec<&Mlp> = nets.iter().collect();
                let packed = BatchedMlp::pack(&refs);
                let mut ws = packed.make_workspace(rows, 2);
                let mut grads = packed.zero_gradients();
                let xrefs: Vec<&Matrix> = xs.iter().collect();
                r.bench("multi_model", &name, || {
                    sgm_par::with_parallelism(Parallelism::Serial, || {
                        packed.forward_with_derivs_batched(&xrefs, &[0, 1], &mut ws);
                        // The interleave cost of seeding per-instance
                        // adjoints is part of the batched path's price.
                        for lane in 0..b {
                            ws.set_adjoints(lane, &adj);
                        }
                        grads.zero();
                        packed.backward_batched(&mut ws, &mut grads);
                    })
                });
            } else {
                let mut wss: Vec<_> = nets.iter().map(|n| n.make_workspace(rows, 2)).collect();
                let mut gs: Vec<_> = nets.iter().map(|n| n.zero_gradients()).collect();
                r.bench("multi_model", &name, || {
                    sgm_par::with_parallelism(Parallelism::Serial, || {
                        for i in 0..b {
                            nets[i].forward_with_derivs_ws(&xs[i], &[0, 1], &mut wss[i]);
                            gs[i].zero();
                            nets[i].backward_ws(&mut wss[i], &adj, &mut gs[i]);
                        }
                    })
                });
            }
        }
    }
}

fn main() {
    let mut r = Runner::from_args().with_iters(1, 5);
    bench_gemm(&mut r);
    bench_knn(&mut r);
    bench_er_and_lrd(&mut r);
    bench_isr(&mut r);
    bench_mlp(&mut r);
    bench_mlp_threads(&mut r);
    bench_probe(&mut r);
    bench_knn_threads(&mut r);
    bench_refresh_overhead(&mut r);
    bench_trainer_overhead(&mut r);
    bench_obs_overhead(&mut r);
    bench_serve_overhead(&mut r);
    bench_sampler_overhead(&mut r);
    bench_probe_refresh_threads(&mut r);
    bench_thread_scaling(&mut r);
    bench_simd_kernels(&mut r);
    bench_multi_model(&mut r);
    r.finish();
}
