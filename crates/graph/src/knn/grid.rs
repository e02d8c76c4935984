//! Uniform-grid spatial index with flat CSR buckets: the one exact grid
//! kNN search.
//!
//! Both grid consumers run it: the batch builder
//! ([`super::grid_knn`], behind [`super::KnnStrategy::Grid`]) and the
//! incremental kNN engine ([`crate::incremental`]). Cells are stored as
//! one CSR pair (`offsets` + `items`), queries reuse a thread-local
//! [`GridScratch`], and the same [`GridIndex::knn_into`] routine serves
//! full builds and delta re-queries through one chunk-ordered loop
//! (`GridIndex::query_rows`) — which is what makes the delta path
//! **bit-exact** against a from-scratch rebuild (identical candidate
//! scoring, identical tie handling; the grid geometry only affects which
//! cells are *visited*, never the result of an exact query).
//!
//! Candidates are scored by the batched kernel
//! `sgm_linalg::simd::dist2_batch`, whose per-point result does not
//! depend on batch position, so every list equals the brute-force
//! oracle ([`super::brute_knn`]) bit for bit: ids, order and `dist²`.
//!
//! ## Tie handling
//!
//! Neighbour lists are the `k` smallest candidates ordered by ascending
//! `(dist², index)`. The bounded-insertion loop compares full
//! `(dist², index)` tuples, so the result is independent of candidate
//! arrival order (grid buckets visit candidates in cell order, not index
//! order). The ring-termination test is **strict** (`kth < ring·w_min`):
//! on an exact boundary tie one extra ring is scanned, so a farther-ring
//! point at exactly the k-th distance with a smaller index is never
//! missed — adversarial lattice clouds with massive distance ties stay
//! exact.

use crate::points::PointCloud;
use std::cell::RefCell;

/// Caller-held scratch for [`GridIndex`] queries; reuse across calls to
/// keep the steady-state query loop allocation-free.
#[derive(Debug, Default)]
pub struct GridScratch {
    cand: Vec<u32>,
    gather: Vec<f64>,
    d2: Vec<f64>,
}

impl GridScratch {
    /// Scores the gathered candidates against stored point `q`: copies
    /// them into one contiguous buffer and runs the batched distance
    /// kernel, leaving `d2[c] = dist²(cand[c], q)`. The gather is what
    /// keeps the batch kernel fed from scattered grid buckets.
    fn score(&mut self, cloud: &PointCloud, q: usize) {
        self.gather.clear();
        self.gather.reserve(self.cand.len() * cloud.dim());
        for &c in &self.cand {
            self.gather.extend_from_slice(cloud.point(c as usize));
        }
        self.d2.resize(self.cand.len(), 0.0);
        sgm_linalg::simd::dist2_batch(&self.gather, cloud.dim(), cloud.point(q), &mut self.d2);
    }
}

thread_local! {
    static QUERY_SCRATCH: RefCell<(GridScratch, Vec<u32>, Vec<f64>)> =
        RefCell::new((GridScratch::default(), Vec::new(), Vec::new()));
}

/// Packed query results: one `k`-slot row of ids and `dist²` per queried
/// point, padded with `(u32::MAX, +∞)` past the row's valid count.
#[derive(Debug, Default)]
pub(crate) struct KnnRows {
    idx: Vec<u32>,
    d2: Vec<f64>,
    cnt: Vec<u32>,
}

impl KnnRows {
    fn with_capacity(rows: usize, k: usize) -> Self {
        KnnRows {
            idx: Vec::with_capacity(rows * k),
            d2: Vec::with_capacity(rows * k),
            cnt: Vec::with_capacity(rows),
        }
    }

    fn concat(parts: Vec<KnnRows>) -> Self {
        let mut out = KnnRows::default();
        for p in parts {
            out.idx.extend_from_slice(&p.idx);
            out.d2.extend_from_slice(&p.d2);
            out.cnt.extend_from_slice(&p.cnt);
        }
        out
    }

    fn push(&mut self, idx: &[u32], d2: &[f64], k: usize) {
        let got = idx.len();
        self.idx.extend_from_slice(idx);
        self.d2.extend_from_slice(d2);
        for _ in got..k {
            self.idx.push(u32::MAX);
            self.d2.push(f64::INFINITY);
        }
        self.cnt.push(got as u32);
    }

    /// Valid neighbour ids and squared distances of row `r` (rows were
    /// packed with stride `k`), ascending by `(dist², index)`.
    pub(crate) fn row(&self, r: usize, k: usize) -> (&[u32], &[f64]) {
        let m = self.cnt[r] as usize;
        (&self.idx[r * k..r * k + m], &self.d2[r * k..r * k + m])
    }
}

/// Uniform bucket grid over the bounding box of a [`PointCloud`], with
/// flat CSR cell storage. Supports spatial dimensions 1–4 (the
/// projections PINN clouds build their PGM on).
#[derive(Debug)]
pub struct GridIndex {
    dim: usize,
    per_axis: usize,
    mins: Vec<f64>,
    widths: Vec<f64>,
    min_width: f64,
    /// CSR cell starts (`num_cells + 1`).
    offsets: Vec<u32>,
    /// Point ids grouped by cell, ascending within each cell.
    items: Vec<u32>,
}

impl GridIndex {
    /// Builds the index over every point of `cloud` (two counting
    /// passes, no per-cell allocation), sized for ~2 points per cell.
    ///
    /// # Panics
    /// Panics if `cloud` is empty or `dim > 4`.
    pub fn build(cloud: &PointCloud) -> Self {
        let (n, dim) = (cloud.len(), cloud.dim());
        assert!(n > 0, "empty cloud");
        assert!((1..=4).contains(&dim), "GridIndex supports dim 1..=4");
        let (mins, maxs) = cloud.bounds();
        let cells_target = (n as f64 / 2.0).max(1.0);
        let per_axis = cells_target.powf(1.0 / dim as f64).ceil().max(1.0) as usize;
        let mut widths = vec![0.0; dim];
        for d in 0..dim {
            let span = (maxs[d] - mins[d]).max(1e-12);
            widths[d] = span / per_axis as f64;
        }
        let min_width = widths.iter().cloned().fold(f64::MAX, f64::min);
        let num_cells = per_axis.pow(dim as u32);
        let mut idx = GridIndex {
            dim,
            per_axis,
            mins,
            widths,
            min_width,
            offsets: vec![0; num_cells + 1],
            items: vec![0; n],
        };
        // Counting pass → prefix sums → fill pass. Filling in ascending
        // point order keeps each cell's items ascending (determinism).
        for i in 0..n {
            let c = idx.cell_of(cloud, i);
            idx.offsets[c + 1] += 1;
        }
        for c in 0..num_cells {
            idx.offsets[c + 1] += idx.offsets[c];
        }
        let mut cursor: Vec<u32> = idx.offsets[..num_cells].to_vec();
        for i in 0..n {
            let c = idx.cell_of(cloud, i);
            idx.items[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        idx
    }

    /// Linear cell id of stored point `i`.
    #[inline]
    fn cell_of(&self, cloud: &PointCloud, i: usize) -> usize {
        let mut idx = 0usize;
        for (d, &v) in cloud.point(i).iter().enumerate() {
            let c = (((v - self.mins[d]) / self.widths[d]) as usize).min(self.per_axis - 1);
            idx = idx * self.per_axis + c;
        }
        idx
    }

    /// Per-axis cell coordinates of stored point `i`.
    #[inline]
    fn cell_coords(&self, cloud: &PointCloud, i: usize) -> [isize; 4] {
        let mut home = [0isize; 4];
        for (d, &v) in cloud.point(i).iter().enumerate() {
            home[d] =
                (((v - self.mins[d]) / self.widths[d]) as usize).min(self.per_axis - 1) as isize;
        }
        home
    }

    /// Calls `f` with the CSR item range of every in-bounds cell at
    /// Chebyshev ring exactly `ring` around `home`. Fixed-size odometer
    /// over the `[-ring, ring]^dim` offset cube — no allocation.
    fn for_each_ring_cell(&self, home: &[isize; 4], ring: isize, f: &mut impl FnMut(&[u32])) {
        let dim = self.dim;
        let mut off = [-ring; 4];
        loop {
            let cheb = off[..dim].iter().map(|o| o.abs()).max().unwrap_or(0);
            if cheb == ring {
                let mut linear = 0usize;
                let mut ok = true;
                for d in 0..dim {
                    let c = home[d] + off[d];
                    if c < 0 || c >= self.per_axis as isize {
                        ok = false;
                        break;
                    }
                    linear = linear * self.per_axis + c as usize;
                }
                if ok {
                    let (lo, hi) = (
                        self.offsets[linear] as usize,
                        self.offsets[linear + 1] as usize,
                    );
                    if lo < hi {
                        f(&self.items[lo..hi]);
                    }
                }
            }
            // Advance the odometer (last axis fastest).
            let mut d = dim;
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                if off[d] < ring {
                    off[d] += 1;
                    off[d + 1..dim].fill(-ring);
                    break;
                }
            }
        }
    }

    /// Exact k-nearest neighbours of stored point `q` (self excluded),
    /// appended to `out_idx`/`out_d2` ascending by `(dist², index)`.
    /// Returns the number of neighbours found (`min(k, n-1)`).
    pub fn knn_into(
        &self,
        cloud: &PointCloud,
        q: usize,
        k: usize,
        scratch: &mut GridScratch,
        out_idx: &mut Vec<u32>,
        out_d2: &mut Vec<f64>,
    ) -> usize {
        out_idx.clear();
        out_d2.clear();
        if k == 0 {
            return 0;
        }
        let home = self.cell_coords(cloud, q);
        let mut ring = 0isize;
        loop {
            // Gather this ring's candidates, then score them in one
            // batched kernel call.
            scratch.cand.clear();
            self.for_each_ring_cell(&home, ring, &mut |items| {
                for &j in items {
                    if j as usize != q {
                        scratch.cand.push(j);
                    }
                }
            });
            if !scratch.cand.is_empty() {
                scratch.score(cloud, q);
                for (c, &j) in scratch.cand.iter().enumerate() {
                    let d = scratch.d2[c];
                    if out_idx.len() == k {
                        let (ld, lj) = (out_d2[k - 1], out_idx[k - 1]);
                        // Lexicographic (dist², index) comparison keeps
                        // the result arrival-order independent.
                        if d > ld || (d == ld && j > lj) {
                            continue;
                        }
                        out_idx.pop();
                        out_d2.pop();
                    }
                    let pos = out_d2
                        .iter()
                        .zip(out_idx.iter())
                        .position(|(&dd, &jj)| dd > d || (dd == d && jj > j))
                        .unwrap_or(out_idx.len());
                    out_idx.insert(pos, j);
                    out_d2.insert(pos, d);
                }
            }
            // Strict termination: a point in ring r' > ring is at least
            // (r' - 1)·w_min away, so once the k-th distance is strictly
            // below ring·w_min nothing farther can displace or tie it.
            if out_idx.len() == k {
                let safe = ring as f64 * self.min_width;
                if out_d2[k - 1] < safe * safe {
                    break;
                }
            }
            if ring > self.per_axis as isize {
                break; // entire grid scanned
            }
            ring += 1;
        }
        out_idx.len()
    }

    /// Exact k-nearest neighbours of every point in `points`, packed as
    /// one `k`-slot row per point in `points` order. Queries fan out to
    /// the pool in fixed-size chunks that are concatenated in chunk
    /// order, so the rows are identical for every thread count. Full
    /// builds and delta re-queries both run this loop.
    pub(crate) fn query_rows(&self, cloud: &PointCloud, points: &[u32], k: usize) -> KnnRows {
        let m = points.len();
        let query_chunk = |range: std::ops::Range<usize>| -> KnnRows {
            QUERY_SCRATCH.with(|cell| {
                let (scratch, idx, d2) = &mut *cell.borrow_mut();
                let mut rows = KnnRows::with_capacity(range.len(), k);
                for &p in &points[range] {
                    self.knn_into(cloud, p as usize, k, scratch, idx, d2);
                    rows.push(idx, d2, k);
                }
                rows
            })
        };
        let work = m.saturating_mul(k * 64);
        match sgm_par::current().pool(work, super::KNN_PAR_WORK) {
            Some(pool) => {
                let chunk = sgm_par::chunk_len(m, 8);
                let num_chunks = m.div_ceil(chunk);
                let parts = pool.par_map_indexed(num_chunks, 1, |c| {
                    query_chunk(c * chunk..((c + 1) * chunk).min(m))
                });
                KnnRows::concat(parts)
            }
            None => query_chunk(0..m),
        }
    }

    /// Calls `f(j, dist²)` for every stored point `j ≠ center` within
    /// squared distance `r2` of stored point `center` (inclusive
    /// boundary — callers use this for conservative dirty capture).
    pub fn for_each_within(
        &self,
        cloud: &PointCloud,
        center: usize,
        r2: f64,
        scratch: &mut GridScratch,
        mut f: impl FnMut(u32, f64),
    ) {
        let home = self.cell_coords(cloud, center);
        let radius = r2.sqrt();
        let mut ring = 0isize;
        loop {
            scratch.cand.clear();
            self.for_each_ring_cell(&home, ring, &mut |items| {
                for &j in items {
                    if j as usize != center {
                        scratch.cand.push(j);
                    }
                }
            });
            if !scratch.cand.is_empty() {
                scratch.score(cloud, center);
                for (c, &j) in scratch.cand.iter().enumerate() {
                    if scratch.d2[c] <= r2 {
                        f(j, scratch.d2[c]);
                    }
                }
            }
            ring += 1;
            // A ring-r cell can hold points within `radius` only while
            // (r-1)·w_min ≤ radius; infinite radius scans every cell.
            if ring > self.per_axis as isize || (ring - 1) as f64 * self.min_width > radius {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::brute_knn;
    use crate::points::PointCloud;
    use sgm_linalg::rng::Rng64;

    fn knn_via_index(cloud: &PointCloud, k: usize) -> Vec<Vec<(usize, f64)>> {
        let grid = GridIndex::build(cloud);
        let mut scratch = GridScratch::default();
        let (mut idx, mut d2) = (Vec::new(), Vec::new());
        (0..cloud.len())
            .map(|i| {
                grid.knn_into(cloud, i, k, &mut scratch, &mut idx, &mut d2);
                idx.iter()
                    .map(|&j| j as usize)
                    .zip(d2.iter().copied())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn matches_brute_exactly_in_f64() {
        let mut rng = Rng64::new(7);
        let cloud = PointCloud::uniform_box(400, 2, 0.0, 1.0, &mut rng);
        let exact = brute_knn(&cloud, 6);
        let got = knn_via_index(&cloud, 6);
        assert_eq!(got, exact);
    }

    #[test]
    fn matches_brute_exactly_in_3d() {
        let mut rng = Rng64::new(8);
        let cloud = PointCloud::uniform_box(300, 3, -2.0, 1.0, &mut rng);
        assert_eq!(knn_via_index(&cloud, 5), brute_knn(&cloud, 5));
    }

    #[test]
    fn lattice_ties_resolve_by_index() {
        // 8×8 integer lattice: every interior point has 4 neighbours at
        // distance 1 and 4 at √2 — massive exact ties. The exact result
        // is the k smallest by (dist², index); brute is that oracle.
        let mut data = Vec::new();
        for y in 0..8 {
            for x in 0..8 {
                data.push(x as f64);
                data.push(y as f64);
            }
        }
        let cloud = PointCloud::from_flat(2, data);
        assert_eq!(knn_via_index(&cloud, 5), brute_knn(&cloud, 5));
    }

    #[test]
    fn radius_query_is_exhaustive() {
        let mut rng = Rng64::new(9);
        let cloud = PointCloud::uniform_box(200, 2, 0.0, 1.0, &mut rng);
        let grid = GridIndex::build(&cloud);
        let mut scratch = GridScratch::default();
        let r2 = 0.02;
        for c in [0usize, 57, 199] {
            let mut got: Vec<u32> = Vec::new();
            grid.for_each_within(&cloud, c, r2, &mut scratch, |j, _| got.push(j));
            got.sort_unstable();
            let want: Vec<u32> = (0..cloud.len())
                .filter(|&j| j != c && cloud.dist2(c, j) <= r2)
                .map(|j| j as u32)
                .collect();
            assert_eq!(got, want, "center {c}");
        }
    }
}
