//! k-nearest-neighbour graph construction (paper step **S1**).
//!
//! The PGM is a kNN graph over the collocation-point cloud: nearby points
//! are conditionally dependent, with edge weight inversely proportional to
//! distance. Two exact builders are provided:
//!
//! * [`KnnStrategy::Grid`] — the production builder: one search over a
//!   [`grid::GridIndex`], near-linear for the 2-D/3-D spatial coordinates
//!   PINN clouds actually use. The incremental refresh engine
//!   ([`crate::incremental`]) runs the same index and query loop.
//! * [`KnnStrategy::Brute`] — exact `O(N²)`; the oracle for tests and fine
//!   for clouds below a few thousand points.
//!
//! Both score candidates with the same batched distance kernel and order
//! ties by index, so their lists agree bit for bit: ids, order and
//! `dist²`.
//!
//! The paper builds S1 with HNSW (Malkov & Yashunin, ref \[17\]). On these
//! low-dimensional clouds the exact grid is faster (about 10× at
//! N = 16k in 2-D, `BENCH_PR1.json`), so no approximate index is kept.

pub mod grid;

use crate::graph::Graph;
use crate::points::PointCloud;
use sgm_obs::{trace, Histogram, TraceLevel};

/// Wall time of each full kNN graph build (nanoseconds).
static KNN_BUILD_NS: Histogram = Histogram::new("sgm_graph_knn_build_ns");

/// Auto-mode work cutoff (≈ distance evaluations) above which per-query
/// kNN fans out to the pool. Each query row is independent, so the
/// parallel result is bit-identical to the serial scan.
pub(crate) const KNN_PAR_WORK: usize = 1 << 18;

/// Which kNN algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnStrategy {
    /// Exact O(N²) scan.
    Brute,
    /// Exact uniform-grid accelerated search (low dimensions).
    Grid,
}

/// Configuration for [`build_knn_graph`].
#[derive(Debug, Clone, PartialEq)]
pub struct KnnConfig {
    /// Neighbours per node (the paper's `k`; e.g. 30 for LDC, 7 for AR).
    pub k: usize,
    /// Algorithm choice.
    pub strategy: KnnStrategy,
    /// Edge-weight scheme: `w = 1 / (dist + eps)` (inverse distance encodes
    /// conditional dependence). `eps` guards coincident points.
    pub weight_eps: f64,
    /// Unused: no builder is randomised. It seeded the level assignment
    /// of the approximate HNSW builder, which was removed; the field
    /// stays so configurations that name it keep compiling.
    pub seed: u64,
}

impl Default for KnnConfig {
    fn default() -> Self {
        KnnConfig {
            k: 8,
            strategy: KnnStrategy::Grid,
            weight_eps: 1e-9,
            seed: 0x5EED,
        }
    }
}

/// The `k` nearest neighbours of every point: `out[i]` lists up to `k`
/// `(index, dist2)` pairs, ascending by distance, excluding `i` itself.
pub fn knn_lists(cloud: &PointCloud, cfg: &KnnConfig) -> Vec<Vec<(usize, f64)>> {
    match cfg.strategy {
        KnnStrategy::Brute => brute_knn(cloud, cfg.k),
        KnnStrategy::Grid => grid_knn(cloud, cfg.k),
    }
}

/// Builds the undirected kNN graph (the PGM of S1). Mutual duplicate edges
/// are merged; edge weight is `1 / (dist + eps)`.
///
/// # Panics
/// Panics if the cloud is empty or `k == 0`.
pub fn build_knn_graph(cloud: &PointCloud, cfg: &KnnConfig) -> Graph {
    assert!(!cloud.is_empty(), "empty cloud");
    assert!(cfg.k > 0, "k must be positive");
    let _span = trace::span(TraceLevel::Full, "graph", "knn_build");
    let t0 = std::time::Instant::now();
    let lists = knn_lists(cloud, cfg);
    let mut edges = Vec::with_capacity(cloud.len() * cfg.k);
    for (i, nbrs) in lists.iter().enumerate() {
        for &(j, d2) in nbrs {
            let w = 1.0 / (d2.sqrt() + cfg.weight_eps);
            edges.push((i, j, w));
        }
    }
    // A mutual pair is listed from both ends at the same distance; keep
    // the first copy. `Graph::from_edges` sorts the edges, so the map's
    // iteration order does not reach the graph.
    let mut dedup: std::collections::HashMap<(usize, usize), f64> =
        std::collections::HashMap::new();
    for (i, j, w) in edges {
        let key = if i < j { (i, j) } else { (j, i) };
        dedup.entry(key).or_insert(w);
    }
    let final_edges: Vec<(usize, usize, f64)> =
        dedup.into_iter().map(|((u, v), w)| (u, v, w)).collect();
    let g = Graph::from_edges(cloud.len(), &final_edges);
    KNN_BUILD_NS.record_duration(t0.elapsed());
    g
}

/// Exact O(N²) kNN. Query rows are independent, so the pooled path
/// returns exactly what the serial scan does.
pub fn brute_knn(cloud: &PointCloud, k: usize) -> Vec<Vec<(usize, f64)>> {
    let n = cloud.len();
    // Per-worker distance buffer: reused across queries so the hot loop
    // is allocation-free (one 8·n buffer per pool thread, not per query).
    thread_local! {
        static D2: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    let query = |i: usize| -> Vec<(usize, f64)> {
        D2.with(|cell| {
            let mut d2 = cell.borrow_mut();
            d2.resize(n, 0.0);
            // Batched distance kernel: the AVX2 tier scores four candidate
            // points per step (lanes hold points), which vectorises the
            // scan even for dim-2..4 clouds where per-pair SIMD has
            // nothing to do.
            sgm_linalg::simd::dist2_batch(cloud.as_slice(), cloud.dim(), cloud.point(i), &mut d2);
            // Bounded-insertion pass: keep the k nearest in ascending
            // (dist, index) order. Expected insertions are O(k·log n), so
            // the per-candidate cost is one predictable compare — the
            // distance kernel above dominates, unlike a full O(n·log n)
            // sort. Scanning j ascending means an equal-distance incumbent
            // always has the smaller index, so strict `<` reproduces the
            // old stable-sort tie behaviour exactly.
            let mut best: Vec<(usize, f64)> = Vec::with_capacity(k + 1);
            for (j, &d) in d2.iter().enumerate() {
                if j == i || k == 0 {
                    continue;
                }
                if best.len() == k {
                    if d >= best[k - 1].1 {
                        continue;
                    }
                    best.pop();
                }
                let pos = best.partition_point(|&(jj, dd)| dd < d || (dd == d && jj < j));
                best.insert(pos, (j, d));
            }
            best
        })
    };
    let work = n.saturating_mul(n).saturating_mul(cloud.dim().max(1));
    match sgm_par::current().pool(work, KNN_PAR_WORK) {
        Some(pool) => pool.par_map_indexed(n, 8, query),
        None => (0..n).map(query).collect(),
    }
}

/// Exact kNN over a [`grid::GridIndex`]: the incremental engine's full
/// build, returned as lists. Equal to [`brute_knn`] bit for bit. Clouds
/// with `dim > 4` or `n <= k + 1` fall back to [`brute_knn`].
pub fn grid_knn(cloud: &PointCloud, k: usize) -> Vec<Vec<(usize, f64)>> {
    let n = cloud.len();
    if n <= k + 1 || cloud.dim() > 4 {
        return brute_knn(cloud, k.min(n.saturating_sub(1)));
    }
    let index = grid::GridIndex::build(cloud);
    let all: Vec<u32> = (0..n as u32).collect();
    let rows = index.query_rows(cloud, &all, k);
    (0..n)
        .map(|r| {
            let (idx, d2) = rows.row(r, k);
            idx.iter()
                .map(|&j| j as usize)
                .zip(d2.iter().copied())
                .collect()
        })
        .collect()
}

/// Recall of an approximate kNN result against the exact one: the fraction
/// of true neighbours found, averaged over query points.
///
/// # Panics
/// Panics if the two lists have different lengths.
pub fn recall(approx: &[Vec<(usize, f64)>], exact: &[Vec<(usize, f64)>]) -> f64 {
    assert_eq!(approx.len(), exact.len(), "result length mismatch");
    if approx.is_empty() {
        return 1.0;
    }
    let mut total = 0.0;
    for (a, e) in approx.iter().zip(exact) {
        if e.is_empty() {
            total += 1.0;
            continue;
        }
        let truth: std::collections::HashSet<usize> = e.iter().map(|&(j, _)| j).collect();
        let hit = a.iter().filter(|&&(j, _)| truth.contains(&j)).count();
        total += hit as f64 / truth.len() as f64;
    }
    total / approx.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgm_linalg::rng::Rng64;

    fn ring_cloud(n: usize) -> PointCloud {
        let mut data = Vec::with_capacity(n * 2);
        for i in 0..n {
            let t = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            data.push(t.cos());
            data.push(t.sin());
        }
        PointCloud::from_flat(2, data)
    }

    #[test]
    fn brute_on_ring_finds_adjacent() {
        let c = ring_cloud(16);
        let lists = brute_knn(&c, 2);
        for (i, nbrs) in lists.iter().enumerate() {
            let expect: std::collections::HashSet<usize> =
                [(i + 1) % 16, (i + 15) % 16].into_iter().collect();
            let got: std::collections::HashSet<usize> = nbrs.iter().map(|&(j, _)| j).collect();
            assert_eq!(got, expect, "node {i}");
        }
    }

    #[test]
    fn grid_matches_brute() {
        let mut rng = Rng64::new(42);
        let c = PointCloud::uniform_box(300, 2, 0.0, 1.0, &mut rng);
        assert_eq!(grid_knn(&c, 5), brute_knn(&c, 5));
    }

    #[test]
    fn grid_matches_brute_3d() {
        let mut rng = Rng64::new(43);
        let c = PointCloud::uniform_box(200, 3, -1.0, 1.0, &mut rng);
        assert_eq!(grid_knn(&c, 4), brute_knn(&c, 4));
    }

    #[test]
    fn knn_graph_is_connected_for_dense_cloud() {
        let mut rng = Rng64::new(45);
        let c = PointCloud::uniform_box(400, 2, 0.0, 1.0, &mut rng);
        let g = build_knn_graph(
            &c,
            &KnnConfig {
                k: 8,
                strategy: KnnStrategy::Grid,
                ..KnnConfig::default()
            },
        );
        assert_eq!(g.num_nodes(), 400);
        assert!(g.is_connected());
    }

    #[test]
    fn knn_graph_weights_are_inverse_distance() {
        let c = PointCloud::from_flat(1, vec![0.0, 1.0, 3.0]);
        let g = build_knn_graph(
            &c,
            &KnnConfig {
                k: 1,
                strategy: KnnStrategy::Brute,
                weight_eps: 0.0,
                ..KnnConfig::default()
            },
        );
        // Nearest of 0 is 1 (d=1, w=1); nearest of 2 is 1 (d=2, w=0.5).
        let mut weights: Vec<f64> = g.edges().map(|(_, _, w)| w).collect();
        weights.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((weights[0] - 0.5).abs() < 1e-12);
        assert!((weights[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recall_of_exact_is_one() {
        let c = ring_cloud(10);
        let e = brute_knn(&c, 3);
        assert_eq!(recall(&e, &e), 1.0);
    }

    #[test]
    fn tiny_clouds_fall_back() {
        let c = PointCloud::from_flat(2, vec![0.0, 0.0, 1.0, 1.0]);
        let lists = grid_knn(&c, 5);
        assert_eq!(lists[0].len(), 1);
    }
}
