//! Incremental (delta) kNN graph maintenance.
//!
//! A `τ_G` refresh in the original pipeline rebuilds the whole kNN graph
//! even when only a sliver of the cloud moved (score-weighted resampling
//! perturbs a minority of collocation points per refresh). This module
//! keeps a persistent engine whose cost scales with the points that
//! *changed*, not with `N`:
//!
//! 1. **Moved set `M`** — points whose coordinates differ from the
//!    stored reference cloud (`dist² > 0`).
//! 2. **Dirty set `D ⊇ M`** — `M`, plus every reverse neighbour of `M`
//!    (a departing point can vacate a slot in its referrers' lists),
//!    plus every clean point `i` with `dist²(i, j_new) ≤ τ²_i` for some
//!    `j ∈ M` (an arriving point can displace i's current k-th
//!    neighbour), where `τ²_i` is i's current k-th neighbour distance.
//!    Captured with a grid radius sweep of radius `max_i τ_i` around
//!    each mover, filtered per point — inclusive comparisons keep the
//!    capture conservative under exact distance ties.
//! 3. **Patch** — only points in `D` are re-queried (parallel,
//!    chunk-ordered, pure reads), then adjacency rows, reverse lists
//!    and `τ²` are patched serially in ascending point order.
//!
//! **Exactness:** a clean point's list can only change if a mover
//! departed it (case 2a) or arrived within `τ_i` (case 2b) — both place
//! it in `D`. Re-queries run the *same* `GridIndex::query_rows` loop a
//! full build runs against the same stored coordinates, and the distance
//! kernel is bitwise symmetric, so the patched adjacency is
//! **bit-identical** to a from-scratch rebuild (and to
//! [`crate::knn::brute_knn`]), independent of thread count.
//!
//! Storage is SoA: one flat `u32` neighbour array, one flat `f64`
//! distance array, per-point counts and `τ²` — no per-point `Vec`s on
//! the steady-state path.

use crate::graph::Graph;
use crate::knn::grid::{GridIndex, GridScratch, KnnRows};
use crate::knn::KNN_PAR_WORK;
use crate::points::PointCloud;
use sgm_obs::{Counter, Histogram};

/// Wall time of each delta patch (`update`), nanoseconds.
static KNN_PATCH_NS: Histogram = Histogram::new("sgm_graph_knn_patch_ns");
/// Dirty fraction of each delta patch, in percent of `N`.
static REFRESH_DIRTY_PCT: Histogram = Histogram::new("sgm_graph_refresh_dirty_pct");
/// Points re-queried across all delta patches.
static POINTS_RESCORED: Counter = Counter::new("sgm_graph_points_rescored_total");
/// Adjacency slots rewritten (added + removed) across all delta patches.
static EDGES_PATCHED: Counter = Counter::new("sgm_graph_edges_patched_total");

/// Configuration for [`IncrementalKnn`].
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalKnnConfig {
    /// Neighbours per point (the paper's `k`).
    pub k: usize,
    /// Edge-weight epsilon: `w = 1 / (dist + eps)`.
    pub weight_eps: f64,
}

impl Default for IncrementalKnnConfig {
    fn default() -> Self {
        IncrementalKnnConfig {
            k: 8,
            weight_eps: 1e-9,
        }
    }
}

/// Statistics from one [`IncrementalKnn::update`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KnnDelta {
    /// Points whose coordinates changed.
    pub moved: usize,
    /// Points re-queried (the dirty set `D ⊇ M`).
    pub rescored: usize,
    /// Adjacency slots rewritten (neighbour additions + removals).
    pub edges_patched: usize,
}

/// A persistent, incrementally-maintained exact kNN structure.
#[derive(Debug)]
pub struct IncrementalKnn {
    cfg: IncrementalKnnConfig,
    /// The reference cloud the adjacency reflects.
    reference: PointCloud,
    grid: GridIndex,
    /// Flat `n × k` neighbour ids; row `i` valid for `cnt[i]` slots.
    nbrs: Vec<u32>,
    /// Flat `n × k` squared distances, aligned with `nbrs`.
    d2s: Vec<f64>,
    /// Valid neighbours per point (`min(k, n-1)` once built).
    cnt: Vec<u32>,
    /// k-th neighbour squared distance; `+∞` when `cnt[i] < k`.
    tau2: Vec<f64>,
    /// Reverse adjacency: `rev[j]` lists every `i` with `j ∈ nbrs(i)`.
    rev: Vec<Vec<u32>>,
    /// Dirty points of the most recent `update` (ascending), for
    /// consumers that invalidate derived per-point state (blocked LRD).
    last_dirty: Vec<u32>,
    /// Scratch dirty flags, kept allocated between updates.
    dirty_flags: Vec<bool>,
}

impl IncrementalKnn {
    /// Full build over `cloud` (parallel, chunk-ordered, deterministic).
    ///
    /// # Panics
    /// Panics if the cloud is empty, `k == 0`, or `dim > 4` (project
    /// onto the spatial coordinates first, as the samplers do).
    pub fn build(cloud: &PointCloud, cfg: &IncrementalKnnConfig) -> Self {
        assert!(!cloud.is_empty(), "empty cloud");
        assert!(cfg.k > 0, "k must be positive");
        let reference = cloud.clone();
        let grid = GridIndex::build(&reference);
        let n = reference.len();
        let k = cfg.k;
        let mut engine = IncrementalKnn {
            cfg: cfg.clone(),
            reference,
            grid,
            nbrs: vec![u32::MAX; n * k],
            d2s: vec![f64::INFINITY; n * k],
            cnt: vec![0; n],
            tau2: vec![f64::INFINITY; n],
            rev: vec![Vec::new(); n],
            last_dirty: Vec::new(),
            dirty_flags: vec![false; n],
        };
        let all: Vec<u32> = (0..n as u32).collect();
        let rows = engine.grid.query_rows(&engine.reference, &all, k);
        engine.install_rows(&all, &rows);
        // Reverse adjacency from scratch (ascending i keeps rev[j]
        // ascending too — pure determinism hygiene).
        for i in 0..n {
            for s in 0..engine.cnt[i] as usize {
                let j = engine.nbrs[i * k + s] as usize;
                engine.rev[j].push(i as u32);
            }
        }
        engine
    }

    /// Patches the structure to reflect `cloud`, re-querying only dirty
    /// points. See the module docs for the dirty-set invariants.
    ///
    /// # Panics
    /// Panics if `cloud` has a different length or dimension than the
    /// build cloud (resizing is a full rebuild, by design).
    pub fn update(&mut self, cloud: &PointCloud) -> KnnDelta {
        assert_eq!(cloud.len(), self.len(), "point count changed: rebuild");
        assert_eq!(
            cloud.dim(),
            self.reference.dim(),
            "dimension changed: rebuild"
        );
        let t0 = std::time::Instant::now();
        let n = self.len();
        let k = self.cfg.k;

        // 1. Moved set: parallel chunk-ordered displacement scan.
        let moved = self.detect_moved(cloud);
        self.last_dirty.clear();
        if moved.is_empty() {
            KNN_PATCH_NS.record_duration(t0.elapsed());
            REFRESH_DIRTY_PCT.record(0);
            return KnnDelta::default();
        }
        for &j in &moved {
            self.reference
                .set_point(j as usize, cloud.point(j as usize));
        }
        // Grid rebuild is O(N) counting-sort bandwidth — cheap next to
        // even a few hundred re-queries, and it keeps every re-query
        // exact against the *current* positions.
        self.grid = GridIndex::build(&self.reference);

        // 2. Dirty set: movers ∪ reverse neighbours ∪ τ-radius capture.
        self.dirty_flags.fill(false);
        for &j in &moved {
            self.dirty_flags[j as usize] = true;
        }
        for &j in &moved {
            for &i in &self.rev[j as usize] {
                self.dirty_flags[i as usize] = true;
            }
        }
        let tau_max2 = self.tau2.iter().cloned().fold(0.0f64, f64::max);
        let mut scratch = GridScratch::default();
        for &j in &moved {
            let flags = &mut self.dirty_flags;
            let tau2 = &self.tau2;
            self.grid.for_each_within(
                &self.reference,
                j as usize,
                tau_max2,
                &mut scratch,
                |i, d2| {
                    let i = i as usize;
                    if !flags[i] && d2 <= tau2[i] {
                        flags[i] = true;
                    }
                },
            );
        }
        let dirty: Vec<u32> = (0..n as u32)
            .filter(|&i| self.dirty_flags[i as usize])
            .collect();

        // 3. Re-query dirty points (parallel, pure reads), then patch
        //    adjacency + reverse lists serially in ascending order.
        let rows = self.grid.query_rows(&self.reference, &dirty, k);
        let mut edges_patched = 0usize;
        let mut old_row: Vec<u32> = Vec::with_capacity(k);
        for (r, &i) in dirty.iter().enumerate() {
            let i = i as usize;
            let (new_idx, _new_d2) = rows.row(r, k);
            old_row.clear();
            old_row.extend_from_slice(&self.nbrs[i * k..i * k + self.cnt[i] as usize]);
            for &j in old_row.iter() {
                if !new_idx.contains(&j) {
                    let list = &mut self.rev[j as usize];
                    let pos = list.iter().position(|&x| x == i as u32).expect("rev entry");
                    list.swap_remove(pos);
                    edges_patched += 1;
                }
            }
            for &j in new_idx {
                if !old_row.contains(&j) {
                    self.rev[j as usize].push(i as u32);
                    edges_patched += 1;
                }
            }
        }
        self.install_rows(&dirty, &rows);

        self.last_dirty = dirty;
        let delta = KnnDelta {
            moved: moved.len(),
            rescored: self.last_dirty.len(),
            edges_patched,
        };
        KNN_PATCH_NS.record_duration(t0.elapsed());
        REFRESH_DIRTY_PCT.record((100 * delta.rescored / n.max(1)) as u64);
        POINTS_RESCORED.add(delta.rescored as u64);
        EDGES_PATCHED.add(delta.edges_patched as u64);
        delta
    }

    /// Parallel chunk-ordered scan for points that moved away from the
    /// stored reference (ascending result).
    fn detect_moved(&self, cloud: &PointCloud) -> Vec<u32> {
        let n = self.len();
        let scan = |range: std::ops::Range<usize>| -> Vec<u32> {
            range
                .filter(|&i| crate::points::dist2(self.reference.point(i), cloud.point(i)) > 0.0)
                .map(|i| i as u32)
                .collect()
        };
        let work = n.saturating_mul(self.reference.dim().max(1));
        match sgm_par::current().pool(work, KNN_PAR_WORK) {
            Some(pool) => {
                let chunk = sgm_par::chunk_len(n, 1024);
                let num_chunks = n.div_ceil(chunk);
                let parts = pool
                    .par_map_indexed(num_chunks, 1, |c| scan(c * chunk..((c + 1) * chunk).min(n)));
                parts.concat()
            }
            None => scan(0..n),
        }
    }

    /// Writes query rows into the SoA arrays and refreshes `τ²`.
    fn install_rows(&mut self, points: &[u32], rows: &KnnRows) {
        let k = self.cfg.k;
        for (r, &i) in points.iter().enumerate() {
            let i = i as usize;
            let (idx, d2) = rows.row(r, k);
            let m = idx.len();
            self.nbrs[i * k..i * k + m].copy_from_slice(idx);
            self.d2s[i * k..i * k + m].copy_from_slice(d2);
            for s in m..k {
                self.nbrs[i * k + s] = u32::MAX;
                self.d2s[i * k + s] = f64::INFINITY;
            }
            self.cnt[i] = m as u32;
            self.tau2[i] = if m == k { d2[m - 1] } else { f64::INFINITY };
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.cnt.len()
    }

    /// True when the structure holds no points (never, once built).
    pub fn is_empty(&self) -> bool {
        self.cnt.is_empty()
    }

    /// Neighbours per point requested at build.
    pub fn k(&self) -> usize {
        self.cfg.k
    }

    /// The engine's configuration.
    pub fn config(&self) -> &IncrementalKnnConfig {
        &self.cfg
    }

    /// The reference cloud the adjacency currently reflects.
    pub fn reference(&self) -> &PointCloud {
        &self.reference
    }

    /// True when `cloud` has the shape this engine was built for.
    pub fn is_compatible(&self, cloud: &PointCloud) -> bool {
        cloud.len() == self.len() && cloud.dim() == self.reference.dim()
    }

    /// Neighbour ids and squared distances of point `i`, ascending by
    /// `(dist², index)`.
    #[inline]
    pub fn neighbors(&self, i: usize) -> (&[u32], &[f64]) {
        let k = self.cfg.k;
        let m = self.cnt[i] as usize;
        (&self.nbrs[i * k..i * k + m], &self.d2s[i * k..i * k + m])
    }

    /// Dirty points of the most recent [`IncrementalKnn::update`]
    /// (ascending; empty after a fresh build or a no-op update).
    pub fn last_dirty(&self) -> &[u32] {
        &self.last_dirty
    }

    /// Edge weight for a squared distance: `1 / (dist + eps)`.
    #[inline]
    pub fn weight(&self, d2: f64) -> f64 {
        1.0 / (d2.sqrt() + self.cfg.weight_eps)
    }

    /// Materialises the undirected kNN graph (each mutual pair emitted
    /// once; same `1/(dist+eps)` weights as `knn::build_knn_graph`).
    pub fn to_graph(&self) -> Graph {
        let n = self.len();
        let k = self.cfg.k;
        let mut edges = Vec::with_capacity(n * k);
        for i in 0..n {
            let (idx, d2) = self.neighbors(i);
            for (s, &j) in idx.iter().enumerate() {
                let j = j as usize;
                // Emit each unordered pair exactly once: the smaller
                // endpoint owns it, unless the pair is one-directional
                // and only the larger endpoint lists it.
                if j > i || !self.nbrs[j * k..j * k + self.cnt[j] as usize].contains(&(i as u32)) {
                    edges.push((i.min(j), i.max(j), self.weight(d2[s])));
                }
            }
        }
        Graph::from_edges(n, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgm_linalg::rng::Rng64;

    fn cloud(n: usize, seed: u64) -> PointCloud {
        let mut rng = Rng64::new(seed);
        PointCloud::uniform_box(n, 2, 0.0, 1.0, &mut rng)
    }

    fn perturb(c: &PointCloud, frac: f64, amp: f64, seed: u64) -> PointCloud {
        let mut rng = Rng64::new(seed);
        let mut data = c.as_slice().to_vec();
        let dim = c.dim();
        for i in 0..c.len() {
            if rng.uniform() < frac {
                for d in 0..dim {
                    data[i * dim + d] += rng.uniform_in(-amp, amp);
                }
            }
        }
        PointCloud::from_flat(dim, data)
    }

    fn assert_engines_equal(a: &IncrementalKnn, b: &IncrementalKnn) {
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.neighbors(i), b.neighbors(i), "point {i}");
        }
    }

    #[test]
    fn delta_matches_full_rebuild_bit_exactly() {
        let cfg = IncrementalKnnConfig {
            k: 6,
            ..IncrementalKnnConfig::default()
        };
        let c0 = cloud(500, 1);
        let c1 = perturb(&c0, 0.1, 0.05, 2);
        let mut delta = IncrementalKnn::build(&c0, &cfg);
        let stats = delta.update(&c1);
        assert!(stats.moved > 0 && stats.rescored >= stats.moved);
        let full = IncrementalKnn::build(&c1, &cfg);
        assert_engines_equal(&delta, &full);
    }

    #[test]
    fn repeated_deltas_stay_exact() {
        let cfg = IncrementalKnnConfig {
            k: 5,
            ..IncrementalKnnConfig::default()
        };
        let c0 = cloud(300, 3);
        let mut engine = IncrementalKnn::build(&c0, &cfg);
        let mut current = c0;
        for step in 0..4 {
            current = perturb(&current, 0.15, 0.03, 10 + step);
            engine.update(&current);
            assert_engines_equal(&engine, &IncrementalKnn::build(&current, &cfg));
        }
    }

    #[test]
    fn noop_update_patches_nothing() {
        let cfg = IncrementalKnnConfig::default();
        let c0 = cloud(200, 4);
        let mut engine = IncrementalKnn::build(&c0, &cfg);
        let stats = engine.update(&c0);
        assert_eq!(stats, KnnDelta::default());
        assert!(engine.last_dirty().is_empty());
    }

    #[test]
    fn graph_matches_batch_builder_recall() {
        use crate::knn::{build_knn_graph, KnnConfig, KnnStrategy};
        let c = cloud(400, 6);
        let engine = IncrementalKnn::build(&c, &IncrementalKnnConfig::default());
        let g_new = engine.to_graph();
        let g_old = build_knn_graph(
            &c,
            &KnnConfig {
                k: 8,
                strategy: KnnStrategy::Brute,
                ..KnnConfig::default()
            },
        );
        assert_eq!(g_new.num_nodes(), g_old.num_nodes());
        // Same exact kNN semantics → same edge set.
        let set = |g: &Graph| -> std::collections::BTreeSet<(usize, usize)> {
            g.edges().map(|(u, v, _)| (u, v)).collect()
        };
        assert_eq!(set(&g_new), set(&g_old));
    }
}
