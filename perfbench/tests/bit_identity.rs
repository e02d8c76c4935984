//! The measuring decorators must not change what the program computes:
//! a traced smoke run of each workload (decorated model, validator and
//! sampler, timed rebuild worker, stage hook, full tracing) must match
//! a plain `Trainer::run` bit for bit, in history and final parameters.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use sgm_bench::experiments::{build_ldc, sgm_config, Scale};
use sgm_core::background::{RebuildRequest, RebuildWorker};
use sgm_graph::knn::{KnnConfig, KnnStrategy};
use sgm_graph::lrd::{ErSource, LrdConfig};
use sgm_graph::refresh::RefreshOptions;
use sgm_graph::resistance::ApproxErOptions;
use sgm_perfbench::{probes, run_scaled, Method, Outcome, Workload, WORKLOADS};
use std::sync::Arc;

/// `(iteration, train loss bits, validation error bits)` per record.
type HistoryBits = Vec<(usize, u64, Vec<u64>)>;

/// Everything the engine computed, as bit patterns (the clocks are
/// excluded: they are the only thing allowed to differ).
fn numerics(o: &Outcome) -> (HistoryBits, Vec<u64>) {
    let history = o
        .result
        .history
        .iter()
        .map(|r| {
            let errs = r.val_errors.iter().map(|e| e.to_bits()).collect();
            (r.iteration, r.train_loss.to_bits(), errs)
        })
        .collect();
    (history, o.params.iter().map(|p| p.to_bits()).collect())
}

/// A smoke-sized version of a workload. Classic SGM rebuilds land on a
/// timing-dependent iteration, so the `ldc-sgm` smoke requests none
/// (`rebuild_worker_wrapper_is_transparent` covers that wrapper); the
/// incremental rebuilds of `ar-sgms` reproduce the clustering they
/// replace, so they stay on.
fn smoke(w: &Workload) -> (Workload, Scale) {
    let tau_g = if w.method == Method::Sgm { 0 } else { 30 };
    let sc = Scale {
        tau_e: 20,
        tau_g,
        seed: 11,
        ..Scale::smoke()
    };
    let w = Workload {
        iterations: 80,
        record_every: 10,
        ..*w
    };
    (w, sc)
}

#[test]
fn decorated_runs_match_plain_runs_bit_for_bit() {
    // One test, sequential: the trace level is process-global.
    for w in &WORKLOADS {
        let (w, sc) = smoke(w);
        let plain = run_scaled(&w, &sc, false);
        let traced = run_scaled(&w, &sc, true);
        assert!(plain.result.history.len() > 3, "{}: no history", w.name);
        assert_eq!(
            numerics(&plain),
            numerics(&traced),
            "{}: the decorated run diverged from the plain run",
            w.name
        );
        // The decorators did observe the run.
        assert!(traced.rep.values["stage.train_total_s"] > 0.0, "{}", w.name);
        assert!(traced.rep.values["validate_s"] > 0.0, "{}", w.name);
    }
}

#[test]
fn rebuild_worker_wrapper_is_transparent() {
    let sc = Scale {
        seed: 3,
        ..Scale::smoke()
    };
    let exp = build_ldc(&sc);
    let cfg = sgm_config(&exp, &sc, false);
    for incremental in [None, Some(RefreshOptions::default())] {
        let req = RebuildRequest {
            cloud: Arc::new(exp.data_small.interior.clone()),
            knn: KnnConfig {
                k: cfg.k,
                strategy: KnnStrategy::Grid,
                weight_eps: 1e-9,
                seed: 17,
            },
            lrd: LrdConfig {
                level: cfg.lrd_level,
                er: ErSource::Approx(ApproxErOptions {
                    seed: 17,
                    ..ApproxErOptions::default()
                }),
                budget_scale: 1.0,
                max_cluster_frac: cfg.max_cluster_frac,
                min_clusters: cfg.min_clusters,
            },
            incremental,
        };
        let want = RebuildWorker::new().run(&req);
        let (mut builder, log) = probes::timed_builder();
        assert!(builder.request(req.clone()).expect("worker alive"));
        let got = builder.take_blocking().expect("worker alive");
        assert_eq!(
            got.clustering.assignment(),
            want.clustering.assignment(),
            "wrapped rebuild changed the clustering"
        );
        let log = *log.lock().expect("rebuild log poisoned");
        assert_eq!(log.count, 1);
        assert!(log.wall_s > 0.0 && log.cpu_s > 0.0);
    }
}
