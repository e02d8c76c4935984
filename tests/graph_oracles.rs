//! Oracle tests for the graph substrate: accelerated and approximate
//! algorithms (grid kNN, smoothed-projection effective resistance, LRD)
//! checked against their exact counterparts on randomised inputs.

use sgm_graph::graph::Graph;
use sgm_graph::knn::{brute_knn, build_knn_graph, grid_knn, KnnConfig, KnnStrategy};
use sgm_graph::lrd::{decompose, ErSource, LrdConfig};
use sgm_graph::metrics::cut_fraction;
use sgm_graph::points::PointCloud;
use sgm_graph::resistance::{
    approx_edge_resistances, exact_edge_resistances, exact_pair_resistance, rank_correlation,
    ApproxErOptions,
};
use sgm_linalg::rng::Rng64;
use sgm_linalg::simd;

fn random_cloud(n: usize, dim: usize, seed: u64) -> PointCloud {
    let mut rng = Rng64::new(seed);
    PointCloud::uniform_box(n, dim, 0.0, 1.0, &mut rng)
}

// The four oracle properties below run as deterministic seeded sweeps
// (16 cases each, mirroring the original proptest config).

/// Integer lattice `side × side`: every interior point has 4
/// neighbours at distance 1 and 4 at √2 — massive exact ties.
fn lattice(side: usize) -> PointCloud {
    let mut flat = Vec::with_capacity(2 * side * side);
    for y in 0..side {
        for x in 0..side {
            flat.extend_from_slice(&[x as f64, y as f64]);
        }
    }
    PointCloud::from_flat(2, flat)
}

/// Grid kNN is exact: its lists equal brute force bit for bit — ids,
/// order and `dist²` — on small random 2-D clouds, a uniform 2-D and a
/// uniform 3-D cloud, and an exact-tie lattice, under every SIMD tier
/// the host can run.
#[test]
fn grid_knn_is_exact() {
    let mut inputs: Vec<(String, PointCloud, usize)> = Vec::new();
    for case in 0u64..16 {
        let mut rng = Rng64::new(0x61d ^ case);
        let seed = rng.below(500) as u64;
        let n = 50 + rng.below(200);
        let k = 1 + rng.below(7);
        inputs.push((
            format!("case={case} n={n} k={k}"),
            random_cloud(n, 2, seed),
            k,
        ));
    }
    inputs.push(("uniform 2-D".into(), random_cloud(3000, 2, 0x2d), 30));
    inputs.push(("uniform 3-D".into(), random_cloud(2000, 3, 0x3d), 8));
    inputs.push(("lattice".into(), lattice(50), 6));
    let bits = |lists: Vec<Vec<(usize, f64)>>| -> Vec<Vec<(usize, u64)>> {
        lists
            .into_iter()
            .map(|l| l.into_iter().map(|(j, d2)| (j, d2.to_bits())).collect())
            .collect()
    };
    for &tier in simd::available_tiers() {
        simd::with_tier(tier, || {
            for (what, cloud, k) in &inputs {
                let exact = bits(brute_knn(cloud, *k));
                let grid = bits(grid_knn(cloud, *k));
                let differ = exact.iter().zip(&grid).filter(|(a, b)| a != b).count();
                assert_eq!(
                    differ,
                    0,
                    "{tier:?} {what}: {differ}/{} lists differ from brute force",
                    cloud.len()
                );
            }
        });
    }
}

/// On structured graphs (two communities joined by bridges) the
/// approximate ER must rank every bridge edge above the bulk — the
/// property LRD depends on (never contract across bottlenecks). On
/// *unstructured* clouds exact ERs are nearly uniform and rank noise
/// is expected, so the test constructs structure explicitly.
#[test]
fn approx_er_ranks_bridges_highest() {
    for case in 0u64..16 {
        let mut case_rng = Rng64::new(0xb81d ^ case);
        let seed = case_rng.below(200) as u64;
        let n_blob = 20 + case_rng.below(40);
        let mut rng = Rng64::new(seed);
        let mut flat = Vec::new();
        for _ in 0..n_blob {
            flat.extend_from_slice(&[rng.uniform(), rng.uniform()]);
            flat.extend_from_slice(&[8.0 + rng.uniform(), rng.uniform()]);
        }
        let cloud = PointCloud::from_flat(2, flat);
        let g = build_knn_graph(
            &cloud,
            &KnnConfig {
                k: 5,
                strategy: KnnStrategy::Brute,
                ..KnnConfig::default()
            },
        );
        // The kNN graph of two distant blobs has no cross edges; add two
        // explicit bridges.
        let mut edges: Vec<(usize, usize, f64)> = g.edges().collect();
        edges.push((0, 1, 1.0));
        edges.push((2, 3, 1.0));
        let g = Graph::from_edges(g.num_nodes(), &edges);
        let approx = approx_edge_resistances(
            &g,
            &ApproxErOptions {
                seed: seed ^ 0xE5,
                ..ApproxErOptions::default()
            },
        );
        // Bridge edges are node pairs 0-1 and 2-3. LRD contracts edges in
        // ascending ER order, so what matters is that bridges land in the
        // top tail of the estimate — never among the early contractions.
        let mut sorted = approx.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q90 = sorted[(sorted.len() as f64 * 0.9) as usize];
        let mut bridges_found = 0;
        for ((u, v, _), &r) in g.edges().zip(&approx) {
            if (u, v) == (0, 1) || (u, v) == (2, 3) {
                bridges_found += 1;
                assert!(
                    r >= q90,
                    "case={case} bridge ER {r} below the 90th percentile {q90}"
                );
            }
        }
        assert_eq!(bridges_found, 2, "case={case}");
        // And the exact/approx orderings correlate positively overall.
        let exact = exact_edge_resistances(&g);
        let rho = rank_correlation(&exact, &approx);
        assert!(rho > 0.0, "case={case} rank correlation {rho}");
    }
}

/// Foster's theorem holds for the calibrated approximate resistances.
#[test]
fn approx_er_foster_calibrated() {
    for case in 0u64..16 {
        let mut case_rng = Rng64::new(0xf05 ^ case);
        let seed = case_rng.below(200) as u64;
        let n = 30 + case_rng.below(90);
        let cloud = random_cloud(n, 2, seed);
        let g = build_knn_graph(
            &cloud,
            &KnnConfig {
                k: 4,
                strategy: KnnStrategy::Brute,
                ..KnnConfig::default()
            },
        );
        let approx = approx_edge_resistances(&g, &ApproxErOptions::default());
        let (_, comps) = g.components();
        let target = (g.num_nodes() - comps) as f64;
        let sum: f64 = g.edges().zip(&approx).map(|((_, _, w), r)| w * r).sum();
        assert!(
            (sum - target).abs() < 1e-6 * target.max(1.0),
            "case={case} sum {sum} vs {target}"
        );
    }
}

/// LRD produces a valid partition whose cut stays bounded.
#[test]
fn lrd_partition_is_valid() {
    for case in 0u64..16 {
        let mut case_rng = Rng64::new(0x12d ^ case);
        let seed = case_rng.below(200) as u64;
        let level = 1 + case_rng.below(7);
        let cloud = random_cloud(150, 2, seed);
        let g = build_knn_graph(
            &cloud,
            &KnnConfig {
                k: 6,
                strategy: KnnStrategy::Grid,
                ..KnnConfig::default()
            },
        );
        let c = decompose(
            &g,
            &LrdConfig {
                level,
                er: ErSource::Approx(ApproxErOptions {
                    seed,
                    ..ApproxErOptions::default()
                }),
                min_clusters: 4,
                max_cluster_frac: 0.2,
                budget_scale: 1.0,
            },
        );
        // Partition covers everything exactly once.
        assert_eq!(c.num_nodes(), 150, "case={case}");
        let total: usize = c.sizes().iter().sum();
        assert_eq!(total, 150, "case={case}");
        // The LRD theorem: only a bounded fraction of edges are cut — we
        // check the trivial upper bound (< 100%) plus sanity that the
        // partition is non-degenerate.
        let f = cut_fraction(&g, &c);
        assert!((0.0..=1.0).contains(&f), "case={case}");
        assert!(c.num_clusters() >= 4, "case={case}");
    }
}

/// Triangle inequality of effective resistance (it is a metric).
#[test]
fn effective_resistance_is_a_metric() {
    let cloud = random_cloud(30, 2, 9);
    let g = build_knn_graph(
        &cloud,
        &KnnConfig {
            k: 4,
            strategy: KnnStrategy::Brute,
            ..KnnConfig::default()
        },
    );
    // Use a connected component only.
    let (labels, _) = g.components();
    let comp0: Vec<usize> = (0..30).filter(|&i| labels[i] == labels[0]).collect();
    if comp0.len() < 3 {
        return;
    }
    let (a, b, c) = (comp0[0], comp0[1], comp0[2]);
    let rab = exact_pair_resistance(&g, a, b);
    let rbc = exact_pair_resistance(&g, b, c);
    let rac = exact_pair_resistance(&g, a, c);
    assert!(rac <= rab + rbc + 1e-9, "{rac} > {rab} + {rbc}");
    assert!(rab >= 0.0 && rbc >= 0.0 && rac >= 0.0);
}

/// Denser graphs have smaller effective resistances (Rayleigh
/// monotonicity: adding edges can only decrease ER).
#[test]
fn rayleigh_monotonicity() {
    let base = vec![(0usize, 1usize, 1.0f64), (1, 2, 1.0), (2, 3, 1.0)];
    let g1 = Graph::from_edges(4, &base);
    let mut denser = base.clone();
    denser.push((0, 3, 1.0));
    denser.push((0, 2, 1.0));
    let g2 = Graph::from_edges(4, &denser);
    for (u, v) in [(0usize, 3usize), (0, 2), (1, 3)] {
        let r1 = exact_pair_resistance(&g1, u, v);
        let r2 = exact_pair_resistance(&g2, u, v);
        assert!(r2 <= r1 + 1e-9, "({u},{v}): {r2} > {r1}");
    }
}

/// kNN-graph construction on a parameterised 3-column cloud projected to
/// its spatial part matches building on the projection directly.
#[test]
fn spatial_projection_equivalence() {
    // Pinned: the two builds must not straddle a tier flip made by
    // another test in this binary.
    simd::with_tier(simd::detected_tier(), || {
        let mut rng = Rng64::new(13);
        let mut flat = Vec::new();
        for _ in 0..100 {
            flat.push(rng.uniform());
            flat.push(rng.uniform());
            flat.push(rng.uniform_in(0.75, 1.1)); // design parameter
        }
        let full = PointCloud::from_flat(3, flat);
        let spatial = full.project(2);
        let cfg = KnnConfig {
            k: 5,
            strategy: KnnStrategy::Brute,
            ..KnnConfig::default()
        };
        let g1 = build_knn_graph(&spatial, &cfg);
        let edges1: std::collections::HashSet<(usize, usize)> =
            g1.edges().map(|(u, v, _)| (u, v)).collect();
        let g2 = build_knn_graph(&full.project(2), &cfg);
        let edges2: std::collections::HashSet<(usize, usize)> =
            g2.edges().map(|(u, v, _)| (u, v)).collect();
        assert_eq!(edges1, edges2);
    });
}
