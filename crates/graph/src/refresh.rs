//! Blocked, incrementally-refreshed S1+S2: delta kNN maintenance
//! ([`crate::incremental`]) plus a blocked LRD decomposition that
//! recomputes only dirty blocks.
//!
//! ## Blocking
//!
//! Points are assigned once, at full build, to `⌈N / block_size⌉`
//! **spatial** blocks: ids are sorted by coarse grid cell (then id) and
//! the sorted order is cut into balanced contiguous runs. Spatial
//! blocking means (a) most kNN edges are intra-block, so per-block
//! decompositions see almost the whole PGM, and (b) the physically
//! clustered dirty regions PINN refreshes produce touch few blocks.
//! Block membership is *frozen* between full builds — movers keep their
//! original block so clean-block caches stay valid.
//!
//! ## Per-block decomposition and deterministic merge
//!
//! Each dirty block runs the standard [`decompose`] on its intra-block
//! subgraph with a per-block-seeded ER estimate; clean blocks reuse
//! their cached result, which is bit-identical to recomputing because a
//! clean block's intra-block subgraph is unchanged (every member's
//! neighbour list is unchanged — that is what "clean" means). Dirty
//! blocks fan out over `sgm-par` in chunk order; the cross-block merge
//! then runs **serially** on a quotient graph whose edges are sorted by
//! `(resistance proxy, cluster u, cluster v)` — a total order, so the
//! merge is a pure function of the block results and the PR 1/4
//! bit-determinism matrix stays green for every thread count. The proxy
//! is `1/w = dist + eps`, an upper bound on the edge's effective
//! resistance, mirroring the budgeted contraction of [`decompose`] at
//! the cluster level.

use crate::graph::{Graph, UnionFind};
use crate::incremental::{IncrementalKnn, IncrementalKnnConfig};
use crate::knn::{build_knn_graph, KnnConfig};
use crate::lrd::{decompose, Clustering, ErSource, LrdConfig};
use crate::points::PointCloud;
use sgm_obs::Histogram;

/// Wall time of the blocked LRD stage per refresh (nanoseconds).
static LRD_BLOCKED_NS: Histogram = Histogram::new("sgm_graph_lrd_blocked_ns");
/// Blocks recomputed per refresh.
static BLOCKS_RECOMPUTED: Histogram = Histogram::new("sgm_graph_refresh_blocks_recomputed");

/// Tuning knobs for the incremental path (kNN + LRD configs ride in
/// [`RefreshConfig`] unchanged).
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshOptions {
    /// Target points per LRD block.
    pub block_size: usize,
}

impl Default for RefreshOptions {
    fn default() -> Self {
        RefreshOptions { block_size: 2048 }
    }
}

/// Full configuration of a [`GraphRefresher`].
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshConfig {
    /// kNN parameters (`k`, `weight_eps`; the strategy is only used by
    /// the dim > 4 fallback — the incremental path is grid-exact).
    pub knn: KnnConfig,
    /// LRD parameters. `er` must be `Exact` or `Approx` (per-block
    /// seeds are derived from the `Approx` seed); `Provided` cannot be
    /// split across blocks.
    pub lrd: LrdConfig,
    /// Incremental-path tuning.
    pub opts: RefreshOptions,
}

/// Statistics from one [`GraphRefresher::refresh`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RefreshStats {
    /// True when this refresh rebuilt S1 from scratch (first call,
    /// shape change, or the dim > 4 fallback).
    pub full_build: bool,
    /// Cloud size.
    pub points_total: usize,
    /// Points whose coordinates changed.
    pub points_moved: usize,
    /// Points re-queried against the grid.
    pub points_rescored: usize,
    /// Adjacency slots rewritten.
    pub edges_patched: usize,
    /// LRD blocks in the current blocking (0 in the fallback path).
    pub blocks_total: usize,
    /// Blocks whose local decomposition was recomputed.
    pub blocks_recomputed: usize,
    /// Wall seconds of the kNN stage (build or patch).
    pub knn_seconds: f64,
    /// Wall seconds of the LRD stage (blocked decompose + merge).
    pub lrd_seconds: f64,
}

impl RefreshStats {
    /// Dirty fraction of this refresh (`rescored / total`; 1.0 for a
    /// full build).
    pub fn dirty_fraction(&self) -> f64 {
        if self.full_build {
            1.0
        } else {
            self.points_rescored as f64 / self.points_total.max(1) as f64
        }
    }
}

/// Cached local decomposition of one block.
#[derive(Debug, Clone)]
struct BlockResult {
    /// Local cluster label per block member (member order).
    assignment: Vec<u32>,
    /// ER-diameter bound per local cluster (NaN mapped to 0.0).
    diam: Vec<f64>,
}

/// A persistent S1+S2 engine: owns the incremental kNN structure, the
/// frozen blocking and the per-block decomposition cache.
#[derive(Debug)]
pub struct GraphRefresher {
    cfg: RefreshConfig,
    knn: Option<IncrementalKnn>,
    /// Member ids per block (frozen between full builds).
    blocks: Vec<Vec<u32>>,
    /// Block id of each point.
    block_of: Vec<u32>,
    /// Position of each point inside its block's member list.
    pos_in_block: Vec<u32>,
    cache: Vec<Option<BlockResult>>,
    /// Set by [`GraphRefresher::invalidate_blocks`]: the next refresh
    /// recomputes every block regardless of dirtiness.
    force_all_blocks: bool,
}

impl GraphRefresher {
    /// A refresher with no graph state yet; the first
    /// [`GraphRefresher::refresh`] performs the full build.
    pub fn new(cfg: RefreshConfig) -> Self {
        GraphRefresher {
            cfg,
            knn: None,
            blocks: Vec::new(),
            block_of: Vec::new(),
            pos_in_block: Vec::new(),
            cache: Vec::new(),
            force_all_blocks: false,
        }
    }

    /// The configuration this refresher was built with.
    pub fn config(&self) -> &RefreshConfig {
        &self.cfg
    }

    /// Drops every cached block decomposition (test hook: a refresh
    /// after this recomputes all blocks and must reproduce the cached
    /// path bit-for-bit).
    pub fn invalidate_blocks(&mut self) {
        for c in self.cache.iter_mut() {
            *c = None;
        }
        self.force_all_blocks = true;
    }

    /// Refreshes S1+S2 against `cloud`: a delta patch when the engine
    /// is warm and the shape is unchanged, a full (re)build otherwise.
    ///
    /// # Panics
    /// Panics if the cloud is empty, or `cfg.lrd.er` is
    /// `ErSource::Provided` on the blocked (dim ≤ 4) path.
    pub fn refresh(&mut self, cloud: &PointCloud) -> (Clustering, RefreshStats) {
        assert!(!cloud.is_empty(), "empty cloud");
        if cloud.dim() > 4 {
            // The grid engine is for spatial clouds; high-dimensional
            // feature clouds take the classic batch path.
            return self.refresh_fallback(cloud);
        }
        let mut stats = RefreshStats {
            points_total: cloud.len(),
            ..RefreshStats::default()
        };

        let t_knn = std::time::Instant::now();
        let warm = self.knn.as_ref().is_some_and(|e| e.is_compatible(cloud));
        if warm {
            let delta = self.knn.as_mut().unwrap().update(cloud);
            stats.points_moved = delta.moved;
            stats.points_rescored = delta.rescored;
            stats.edges_patched = delta.edges_patched;
        } else {
            let knn_cfg = IncrementalKnnConfig {
                k: self.cfg.knn.k,
                weight_eps: self.cfg.knn.weight_eps,
            };
            let engine = IncrementalKnn::build(cloud, &knn_cfg);
            self.freeze_blocking(engine.reference());
            self.knn = Some(engine);
            stats.full_build = true;
            stats.points_rescored = cloud.len();
        }
        stats.knn_seconds = t_knn.elapsed().as_secs_f64();

        let t_lrd = std::time::Instant::now();
        let knn = self.knn.as_ref().unwrap();
        // Dirty blocks: every block holding a dirty point (all of them
        // after a full build, none after a no-op patch).
        let dirty_blocks: Vec<u32> = if stats.full_build || self.force_all_blocks {
            self.force_all_blocks = false;
            (0..self.blocks.len() as u32).collect()
        } else {
            let mut flags = vec![false; self.blocks.len()];
            for &i in knn.last_dirty() {
                flags[self.block_of[i as usize] as usize] = true;
            }
            (0..self.blocks.len() as u32)
                .filter(|&b| flags[b as usize])
                .collect()
        };
        stats.blocks_total = self.blocks.len();
        stats.blocks_recomputed = dirty_blocks.len();

        let global_cap =
            ((cloud.len() as f64 * self.cfg.lrd.max_cluster_frac).ceil() as usize).max(2);
        let compute = |&b: &u32| -> BlockResult {
            decompose_block(
                knn,
                &self.blocks[b as usize],
                &self.block_of,
                &self.pos_in_block,
                b,
                &self.cfg.lrd,
                global_cap,
            )
        };
        // Chunk-ordered fan-out over dirty blocks; results land back in
        // dirty-list order regardless of thread count.
        let work = dirty_blocks
            .len()
            .saturating_mul(self.cfg.opts.block_size * self.cfg.knn.k * 8);
        let results: Vec<BlockResult> = match sgm_par::current().pool(work, 1 << 16) {
            Some(pool) => {
                pool.par_map_indexed(dirty_blocks.len(), 1, |x| compute(&dirty_blocks[x]))
            }
            None => dirty_blocks.iter().map(compute).collect(),
        };
        for (r, &b) in results.into_iter().zip(dirty_blocks.iter()) {
            self.cache[b as usize] = Some(r);
        }

        let clustering = self.merge_blocks(cloud.len());
        stats.lrd_seconds = t_lrd.elapsed().as_secs_f64();
        LRD_BLOCKED_NS.record_duration(t_lrd.elapsed());
        BLOCKS_RECOMPUTED.record(stats.blocks_recomputed as u64);
        (clustering, stats)
    }

    /// Classic batch path for clouds the grid engine does not serve.
    fn refresh_fallback(&mut self, cloud: &PointCloud) -> (Clustering, RefreshStats) {
        let t0 = std::time::Instant::now();
        let g = build_knn_graph(cloud, &self.cfg.knn);
        let knn_seconds = t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        let c = decompose(&g, &self.cfg.lrd);
        let stats = RefreshStats {
            full_build: true,
            points_total: cloud.len(),
            points_rescored: cloud.len(),
            knn_seconds,
            lrd_seconds: t1.elapsed().as_secs_f64(),
            ..RefreshStats::default()
        };
        (c, stats)
    }

    /// (Re)computes the spatial blocking over the engine's reference
    /// cloud and clears the block cache.
    fn freeze_blocking(&mut self, cloud: &PointCloud) {
        let n = cloud.len();
        let dim = cloud.dim();
        let num_blocks = n.div_ceil(self.cfg.opts.block_size.max(1)).max(1);
        // Coarse grid with ~one cell per block; sorting by (cell, id)
        // groups spatial neighbourhoods into contiguous runs.
        let per_axis = (num_blocks as f64).powf(1.0 / dim as f64).ceil().max(1.0) as usize;
        let (mins, maxs) = cloud.bounds();
        let widths: Vec<f64> = (0..dim)
            .map(|d| (maxs[d] - mins[d]).max(1e-12) / per_axis as f64)
            .collect();
        let cell = |i: usize| -> usize {
            let mut c = 0usize;
            for (d, &v) in cloud.point(i).iter().enumerate() {
                c = c * per_axis + (((v - mins[d]) / widths[d]) as usize).min(per_axis - 1);
            }
            c
        };
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&i| (cell(i as usize), i));
        self.blocks = (0..num_blocks)
            .map(|b| order[b * n / num_blocks..(b + 1) * n / num_blocks].to_vec())
            .collect();
        self.block_of = vec![0; n];
        self.pos_in_block = vec![0; n];
        for (b, members) in self.blocks.iter().enumerate() {
            for (p, &i) in members.iter().enumerate() {
                self.block_of[i as usize] = b as u32;
                self.pos_in_block[i as usize] = p as u32;
            }
        }
        self.cache = vec![None; num_blocks];
    }

    /// Serial deterministic quotient-graph merge of the cached block
    /// decompositions along cross-block kNN edges.
    fn merge_blocks(&self, n: usize) -> Clustering {
        let knn = self.knn.as_ref().unwrap();
        // Global cluster ids: block-local labels offset by a running base.
        let mut base = vec![0u32; self.blocks.len() + 1];
        for (b, r) in self.cache.iter().enumerate() {
            let r = r.as_ref().expect("all blocks decomposed");
            base[b + 1] = base[b] + r.diam.len() as u32;
        }
        let num_clusters = base[self.blocks.len()] as usize;
        let gid: Vec<u32> = (0..n)
            .map(|i| {
                let b = self.block_of[i] as usize;
                base[b] + self.cache[b].as_ref().unwrap().assignment[self.pos_in_block[i] as usize]
            })
            .collect();

        let mut diam = vec![0.0f64; num_clusters];
        let mut size = vec![0usize; num_clusters];
        for (b, r) in self.cache.iter().enumerate() {
            let r = r.as_ref().unwrap();
            for (c, &d) in r.diam.iter().enumerate() {
                diam[(base[b] + c as u32) as usize] = d;
            }
        }
        for &g in &gid {
            size[g as usize] += 1;
        }

        // Cross-block edges as quotient edges, proxy r = dist + eps
        // (= 1/w, an ER upper bound).
        let eps = self.cfg.knn.weight_eps;
        let mut cross: Vec<(f64, u32, u32)> = Vec::new();
        for i in 0..n {
            let (idx, d2) = knn.neighbors(i);
            for (s, &j) in idx.iter().enumerate() {
                let j = j as usize;
                if self.block_of[i] == self.block_of[j] {
                    continue;
                }
                // Canonical emission: each unordered pair once.
                if j < i {
                    let (jn, _) = knn.neighbors(j);
                    if jn.contains(&(i as u32)) {
                        continue;
                    }
                }
                let (gu, gv) = (gid[i].min(gid[j]), gid[i].max(gid[j]));
                cross.push((d2[s].sqrt() + eps, gu, gv));
            }
        }

        let mut uf = UnionFind::new(num_clusters);
        if !cross.is_empty() {
            // Total order ⇒ the merge is schedule-independent.
            cross.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap()
                    .then(a.1.cmp(&b.1))
                    .then(a.2.cmp(&b.2))
            });
            let mean_r = cross.iter().map(|e| e.0).sum::<f64>() / cross.len() as f64;
            let mut budget = self.cfg.lrd.budget_scale * mean_r;
            let global_cap = ((n as f64 * self.cfg.lrd.max_cluster_frac).ceil() as usize).max(2);
            for _level in 0..self.cfg.lrd.level.max(1) {
                if uf.num_sets() <= self.cfg.lrd.min_clusters {
                    break;
                }
                for &(r, gu, gv) in &cross {
                    if uf.num_sets() <= self.cfg.lrd.min_clusters {
                        break;
                    }
                    let (ru, rv) = (uf.find(gu as usize), uf.find(gv as usize));
                    if ru == rv {
                        continue;
                    }
                    let merged_diam = diam[ru] + diam[rv] + r;
                    if merged_diam > budget || size[ru] + size[rv] > global_cap {
                        continue;
                    }
                    uf.union(ru, rv);
                    let root = uf.find(ru);
                    diam[root] = merged_diam;
                    size[root] = size[ru] + size[rv];
                }
                budget *= 2.0;
            }
        }

        // Compact labels by first occurrence in ascending node order.
        let mut label_of_root: Vec<u32> = vec![u32::MAX; num_clusters];
        let mut next = 0u32;
        let assignment: Vec<u32> = (0..n)
            .map(|i| {
                let root = uf.find(gid[i] as usize);
                if label_of_root[root] == u32::MAX {
                    label_of_root[root] = next;
                    next += 1;
                }
                label_of_root[root]
            })
            .collect();
        Clustering::from_assignment(assignment)
    }
}

/// Runs the standard LRD decomposition on one block's intra-block
/// subgraph, with a per-block-derived ER seed so block results are
/// independent of which other blocks recompute.
fn decompose_block(
    knn: &IncrementalKnn,
    members: &[u32],
    block_of: &[u32],
    pos_in_block: &[u32],
    block_id: u32,
    lrd: &LrdConfig,
    global_cap: usize,
) -> BlockResult {
    let b = block_of[members[0] as usize];
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    for &i in members {
        let i = i as usize;
        let (idx, d2) = knn.neighbors(i);
        for (s, &j) in idx.iter().enumerate() {
            let j = j as usize;
            if block_of[j] != b {
                continue;
            }
            if j < i {
                let (jn, _) = knn.neighbors(j);
                if jn.contains(&(i as u32)) {
                    continue; // mutual pair: the smaller endpoint owns it
                }
            }
            edges.push((
                pos_in_block[i] as usize,
                pos_in_block[j] as usize,
                knn.weight(d2[s]),
            ));
        }
    }
    let g = Graph::from_edges(members.len(), &edges);
    let er = match &lrd.er {
        ErSource::Exact => ErSource::Exact,
        ErSource::Approx(opts) => {
            let mut o = opts.clone();
            // SplitMix-style odd-constant mix keeps per-block probe
            // streams decorrelated while staying a pure function of
            // (seed, block id).
            o.seed ^= 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(block_id as u64 + 1);
            ErSource::Approx(o)
        }
        ErSource::Provided(_) => {
            panic!("ErSource::Provided cannot be split across LRD blocks")
        }
    };
    let local_cfg = LrdConfig {
        level: lrd.level,
        er,
        budget_scale: lrd.budget_scale,
        // Enforce the *global* size cap inside the block.
        max_cluster_frac: (global_cap as f64 / members.len().max(1) as f64).min(1.0),
        min_clusters: 1,
    };
    let c = decompose(&g, &local_cfg);
    let diam: Vec<f64> = (0..c.num_clusters())
        .map(|ci| {
            let d = c.diameter_bound(ci);
            // from_assignment (edgeless block) tracks no diameter;
            // singletons genuinely have diameter 0.
            if d.is_nan() {
                0.0
            } else {
                d
            }
        })
        .collect();
    BlockResult {
        assignment: c.assignment().to_vec(),
        diam,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgm_linalg::rng::Rng64;

    fn cfg(k: usize, block_size: usize) -> RefreshConfig {
        RefreshConfig {
            knn: KnnConfig {
                k,
                ..KnnConfig::default()
            },
            lrd: LrdConfig::default(),
            opts: RefreshOptions { block_size },
        }
    }

    fn cloud(n: usize, seed: u64) -> PointCloud {
        let mut rng = Rng64::new(seed);
        PointCloud::uniform_box(n, 2, 0.0, 1.0, &mut rng)
    }

    fn perturb_disc(
        c: &PointCloud,
        center: &[f64],
        radius: f64,
        amp: f64,
        seed: u64,
    ) -> PointCloud {
        let mut rng = Rng64::new(seed);
        let mut data = c.as_slice().to_vec();
        let dim = c.dim();
        for i in 0..c.len() {
            if crate::points::dist2(c.point(i), center) < radius * radius {
                for d in 0..dim {
                    data[i * dim + d] += rng.uniform_in(-amp, amp);
                }
            }
        }
        PointCloud::from_flat(dim, data)
    }

    #[test]
    fn first_refresh_is_full_then_deltas_are_partial() {
        let mut r = GraphRefresher::new(cfg(6, 128));
        let c0 = cloud(1000, 11);
        let (cl0, s0) = r.refresh(&c0);
        assert!(s0.full_build);
        assert_eq!(s0.blocks_recomputed, s0.blocks_total);
        assert_eq!(cl0.num_nodes(), 1000);

        let c1 = perturb_disc(&c0, &[0.25, 0.25], 0.15, 0.01, 12);
        let (cl1, s1) = r.refresh(&c1);
        assert!(!s1.full_build);
        assert!(s1.points_moved > 0);
        assert!(
            s1.blocks_recomputed < s1.blocks_total,
            "clustered perturbation must leave clean blocks: {} of {}",
            s1.blocks_recomputed,
            s1.blocks_total
        );
        assert!(s1.dirty_fraction() < 0.8);
        assert_eq!(cl1.num_nodes(), 1000);
    }

    #[test]
    fn cached_blocks_equal_recomputing_everything() {
        let c0 = cloud(800, 13);
        let c1 = perturb_disc(&c0, &[0.7, 0.3], 0.1, 0.02, 14);
        let mut a = GraphRefresher::new(cfg(5, 100));
        let mut b = GraphRefresher::new(cfg(5, 100));
        a.refresh(&c0);
        b.refresh(&c0);
        b.invalidate_blocks();
        let (ca, sa) = a.refresh(&c1);
        let (cb, sb) = b.refresh(&c1);
        assert!(sa.blocks_recomputed < sb.blocks_recomputed);
        assert_eq!(sb.blocks_recomputed, sb.blocks_total);
        assert_eq!(ca.assignment(), cb.assignment());
    }

    #[test]
    fn noop_refresh_recomputes_no_blocks() {
        let mut r = GraphRefresher::new(cfg(5, 100));
        let c0 = cloud(500, 15);
        let (cl0, _) = r.refresh(&c0);
        let (cl1, s1) = r.refresh(&c0);
        assert_eq!(s1.points_moved, 0);
        assert_eq!(s1.blocks_recomputed, 0);
        assert_eq!(cl0.assignment(), cl1.assignment());
    }

    #[test]
    fn high_dim_clouds_take_the_fallback() {
        let mut rng = Rng64::new(16);
        let c = PointCloud::uniform_box(300, 5, 0.0, 1.0, &mut rng);
        let mut r = GraphRefresher::new(cfg(4, 100));
        let (cl, s) = r.refresh(&c);
        assert!(s.full_build);
        assert_eq!(s.blocks_total, 0);
        assert_eq!(cl.num_nodes(), 300);
    }

    #[test]
    fn blocked_clustering_respects_global_size_cap() {
        let mut r = GraphRefresher::new(RefreshConfig {
            lrd: LrdConfig {
                max_cluster_frac: 0.05,
                min_clusters: 1,
                level: 12,
                ..LrdConfig::default()
            },
            ..cfg(6, 100)
        });
        let (cl, _) = r.refresh(&cloud(600, 17));
        let cap = (600.0f64 * 0.05).ceil() as usize;
        for s in cl.sizes() {
            assert!(s <= cap.max(2), "cluster size {s} over cap {cap}");
        }
    }

    #[test]
    fn refresh_deterministic_across_thread_counts() {
        use sgm_par::{with_parallelism, Parallelism};
        let c0 = cloud(600, 18);
        let c1 = perturb_disc(&c0, &[0.5, 0.5], 0.2, 0.02, 19);
        let run = |threads: usize| {
            with_parallelism(Parallelism::Threads(threads), || {
                let mut r = GraphRefresher::new(cfg(5, 75));
                r.refresh(&c0);
                let (cl, _) = r.refresh(&c1);
                cl.assignment().to_vec()
            })
        };
        let a1 = run(1);
        assert_eq!(a1, run(2));
        assert_eq!(a1, run(8));
    }
}
