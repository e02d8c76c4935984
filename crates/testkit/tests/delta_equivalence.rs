//! Delta-vs-full equivalence for the incremental graph refresh, swept
//! over adversarial displacement patterns at fixed seeds.
//!
//! Contracts under test (see `DESIGN.md` §6e):
//!
//! * **Delta vs full**: a delta update is **bit-identical** — neighbor
//!   ids *and* squared distances — to rebuilding the engine from scratch
//!   on the moved cloud, for every displacement pattern and for thread
//!   counts {1, 2, 8}.
//! * **Blocked LRD cache**: serving clean blocks from cache yields the
//!   exact assignment of recomputing every block, because a clean
//!   block's intra-block subgraph is unchanged by construction.

use sgm_graph::incremental::{IncrementalKnn, IncrementalKnnConfig};
use sgm_graph::knn::KnnConfig;
use sgm_graph::lrd::{ErSource, LrdConfig};
use sgm_graph::points::PointCloud;
use sgm_graph::refresh::{GraphRefresher, RefreshConfig, RefreshOptions};
use sgm_graph::resistance::ApproxErOptions;
use sgm_linalg::rng::Rng64;
use sgm_par::{with_parallelism, Parallelism};
use sgm_testkit::sweep::Sweep;

/// Adversarial displacement shapes: spatially clustered dirt, exact-tie
/// lattices, everything-barely-moved, everything-really-moved, and two
/// far points exchanging coordinates exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pattern {
    ClusteredDisc,
    LatticeRowShift,
    UniformDrift,
    AllMoved,
    SwapFar,
}

const PATTERNS: [Pattern; 5] = [
    Pattern::ClusteredDisc,
    Pattern::LatticeRowShift,
    Pattern::UniformDrift,
    Pattern::AllMoved,
    Pattern::SwapFar,
];

fn base_cloud(n: usize, pattern: Pattern, seed: u64) -> PointCloud {
    if pattern == Pattern::LatticeRowShift {
        // Integer lattice: every candidate ring is packed with exact
        // distance ties, the worst case for tie-break ordering.
        let side = (n as f64).sqrt() as usize;
        let mut c = PointCloud::new(2);
        for y in 0..side {
            for x in 0..side {
                c.push(&[x as f64, y as f64]);
            }
        }
        c
    } else {
        let mut rng = Rng64::new(seed);
        PointCloud::uniform_box(n, 2, 0.0, 1.0, &mut rng)
    }
}

fn displaced(base: &PointCloud, pattern: Pattern, seed: u64) -> PointCloud {
    let n = base.len();
    let mut rng = Rng64::new(seed ^ 0xD15F);
    let mut out = PointCloud::new(2);
    match pattern {
        Pattern::ClusteredDisc => {
            let r2 = 0.1 / std::f64::consts::PI;
            let nudge = 0.5 / (n as f64).sqrt();
            for i in 0..n {
                let p = base.point(i);
                let (dx, dy) = (p[0] - 0.4, p[1] - 0.55);
                if dx * dx + dy * dy <= r2 {
                    out.push(&[
                        p[0] + rng.uniform_in(-nudge, nudge),
                        p[1] + rng.uniform_in(-nudge, nudge),
                    ]);
                } else {
                    out.push(p);
                }
            }
        }
        Pattern::LatticeRowShift => {
            // Shift one interior row by exactly half a cell: moved points
            // land equidistant between former neighbors, creating fresh
            // exact ties with their new rings.
            let side = (n as f64).sqrt() as usize;
            let row = side / 2;
            for i in 0..base.len() {
                let p = base.point(i);
                if i / side == row {
                    out.push(&[p[0] + 0.5, p[1]]);
                } else {
                    out.push(p);
                }
            }
        }
        Pattern::UniformDrift => {
            // Every point moves by an amount far below the mean spacing:
            // the moved set is the whole cloud even though the geometry
            // barely changes.
            for i in 0..n {
                let p = base.point(i);
                out.push(&[p[0] + rng.uniform_in(-1e-9, 1e-9), p[1] + 1e-9]);
            }
        }
        Pattern::AllMoved => {
            let nudge = 0.4 / (n as f64).sqrt();
            for i in 0..n {
                let p = base.point(i);
                out.push(&[
                    p[0] + rng.uniform_in(-nudge, nudge),
                    p[1] + rng.uniform_in(-nudge, nudge),
                ]);
            }
        }
        Pattern::SwapFar => {
            // Two distant points exchange coordinates bit-exactly; the
            // rest stay put. Every structural change is a pure relabel.
            let (a, b) = (0, n / 2);
            let (pa, pb) = (base.point(a).to_vec(), base.point(b).to_vec());
            for i in 0..n {
                if i == a {
                    out.push(&pb);
                } else if i == b {
                    out.push(&pa);
                } else {
                    out.push(base.point(i));
                }
            }
        }
    }
    out
}

fn knn_cfg() -> IncrementalKnnConfig {
    IncrementalKnnConfig {
        k: 8,
        weight_eps: 1e-9,
    }
}

/// Every neighbor row of the engine, flattened: `(ids, d2s)`.
fn rows(knn: &IncrementalKnn) -> (Vec<u32>, Vec<f64>) {
    let mut ids = Vec::new();
    let mut d2s = Vec::new();
    for i in 0..knn.len() {
        let (nbr, d2) = knn.neighbors(i);
        ids.extend_from_slice(nbr);
        d2s.extend_from_slice(d2);
    }
    (ids, d2s)
}

/// Delta-patched rows vs a from-scratch rebuild on the moved cloud.
/// Returns the rows for cross-thread-count comparison.
fn check_delta_vs_full(
    base: &PointCloud,
    moved: &PointCloud,
) -> Result<(Vec<u32>, Vec<f64>), String> {
    let cfg = knn_cfg();
    let mut engine = IncrementalKnn::build(base, &cfg);
    engine.update(moved);
    let delta_rows = rows(&engine);
    let full_rows = rows(&IncrementalKnn::build(moved, &cfg));
    if delta_rows.0 != full_rows.0 {
        return Err("neighbor ids diverge".to_string());
    }
    // Bitwise distance equality, NaN-free by construction.
    if delta_rows.1 != full_rows.1 {
        return Err("neighbor d2 bits diverge".to_string());
    }
    Ok(delta_rows)
}

/// Sweep: random sizes and patterns. Runs serial — the thread matrix is
/// its own test below.
#[test]
fn delta_equivalence_sweep_over_adversarial_patterns() {
    Sweep::new(0x0DE17A, 15).run(
        |rng| {
            let n = 256 + (rng.next_u64() % 700) as usize;
            let pattern = PATTERNS[(rng.next_u64() % PATTERNS.len() as u64) as usize];
            let seed = rng.next_u64();
            (n, pattern, seed)
        },
        |&(n, pattern, seed)| {
            if n > 300 {
                vec![(n / 2, pattern, seed), (300, pattern, seed)]
            } else {
                Vec::new()
            }
        },
        |&(n, pattern, seed)| {
            let base = base_cloud(n, pattern, seed);
            let moved = displaced(&base, pattern, seed);
            check_delta_vs_full(&base, &moved).map(|_| ())
        },
    );
}

/// The delta path is bit-identical across thread counts {1, 2, 8}
/// for every adversarial pattern — `sgm-par` chunk-deterministic merge
/// plus position-independent distance kernels.
#[test]
fn delta_rows_bit_identical_across_thread_counts() {
    for pattern in PATTERNS {
        let base = base_cloud(900, pattern, 0x7EAD);
        let moved = displaced(&base, pattern, 0x7EAD);
        let reference: Option<(Vec<u32>, Vec<f64>)> = None;
        let mut reference = reference;
        for threads in [1usize, 2, 8] {
            let got = with_parallelism(Parallelism::Threads(threads), || {
                check_delta_vs_full(&base, &moved).unwrap_or_else(|e| {
                    panic!("{pattern:?} at {threads} threads: {e}");
                })
            });
            match &reference {
                None => reference = Some(got),
                Some(r) => {
                    assert_eq!(r.0, got.0, "{pattern:?}: ids differ at {threads} threads");
                    assert_eq!(
                        r.1, got.1,
                        "{pattern:?}: d2 bits differ at {threads} threads"
                    );
                }
            }
        }
    }
}

/// Blocked-LRD cache validity: serving clean blocks from cache produces
/// the exact clustering of recomputing every block, per pattern and per
/// thread count.
#[test]
fn cached_blocks_match_full_recompute_per_pattern() {
    let refresh_cfg = || RefreshConfig {
        knn: KnnConfig {
            k: 8,
            ..KnnConfig::default()
        },
        lrd: LrdConfig {
            level: 5,
            er: ErSource::Approx(ApproxErOptions {
                seed: 0xB10C,
                ..ApproxErOptions::default()
            }),
            budget_scale: 1.0,
            max_cluster_frac: 0.1,
            min_clusters: 8,
        },
        opts: RefreshOptions { block_size: 128 },
    };
    for pattern in PATTERNS {
        let base = base_cloud(700, pattern, 0xCAC4E);
        let moved = displaced(&base, pattern, 0xCAC4E);
        let mut assignments = Vec::new();
        for threads in [1usize, 2, 8] {
            let (cached, recomputed) = with_parallelism(Parallelism::Threads(threads), || {
                let mut warm = GraphRefresher::new(refresh_cfg());
                warm.refresh(&base);
                let (c_cached, stats) = warm.refresh(&moved);
                assert!(!stats.full_build, "{pattern:?}: delta fell back to full");
                let mut forced = GraphRefresher::new(refresh_cfg());
                forced.refresh(&base);
                forced.invalidate_blocks();
                let (c_forced, _) = forced.refresh(&moved);
                (
                    c_cached.assignment().to_vec(),
                    c_forced.assignment().to_vec(),
                )
            });
            assert_eq!(
                cached, recomputed,
                "{pattern:?}: cached blocks diverge from recompute at {threads} threads"
            );
            assignments.push(cached);
        }
        assert!(
            assignments.windows(2).all(|w| w[0] == w[1]),
            "{pattern:?}: assignment differs across thread counts"
        );
    }
}
