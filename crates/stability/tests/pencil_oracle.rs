//! Oracle check of the production ISR pencil solve (row-oriented Cholesky
//! reduction + Householder/QL `sym_eig`) against the reference path it
//! replaced: column-by-column reduction and cyclic Jacobi rotations.

use sgm_graph::graph::Graph;
use sgm_graph::knn::{build_knn_graph, KnnConfig, KnnStrategy};
use sgm_graph::laplacian::regularized_laplacian;
use sgm_graph::points::PointCloud;
use sgm_linalg::dense::Matrix;
use sgm_linalg::rng::Rng64;
use sgm_stability::{spade_scores, SpadeConfig, SpadeResult};

/// Full symmetric eigendecomposition by cyclic Jacobi rotations
/// (unsorted eigenvalues, eigenvector columns).
fn jacobi_eig(m: &Matrix) -> (Vec<f64>, Matrix) {
    let n = m.rows();
    let mut a = m.clone();
    let mut v = Matrix::identity(n);
    for _sweep in 0..100 {
        let mut off = 0.0;
        for p in 0..n {
            for q in p + 1..n {
                off += a.get(p, q).abs();
            }
        }
        if off < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = a.get(p, q);
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = a.get(p, p);
                let aqq = a.get(q, q);
                let theta = 0.5 * (aqq - app) / apq;
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let akp = a.get(k, p);
                    let akq = a.get(k, q);
                    a.set(k, p, c * akp - s * akq);
                    a.set(k, q, s * akp + c * akq);
                }
                for k in 0..n {
                    let apk = a.get(p, k);
                    let aqk = a.get(q, k);
                    a.set(p, k, c * apk - s * aqk);
                    a.set(q, k, s * apk + c * aqk);
                }
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    ((0..n).map(|i| a.get(i, i)).collect(), v)
}

/// ISR scores by the reference path: `C⁻¹ L_X C⁻ᵀ` one column at a time
/// (back solve, GEMV, forward solve), then [`jacobi_eig`].
fn spade_reference(gx: &Graph, gy: &Graph, cfg: &SpadeConfig) -> SpadeResult {
    let n = gx.num_nodes();
    let lx = regularized_laplacian(gx, cfg.reg_eps).to_dense();
    let ly = regularized_laplacian(gy, cfg.reg_eps).to_dense();
    let c = ly.cholesky().expect("regularised Laplacian is SPD");
    let mut a = Matrix::zeros(n, n);
    for col in 0..n {
        let mut e = vec![0.0; n];
        e[col] = 1.0;
        let a_col = c.forward_substitute(&lx.mul_vec(&c.back_substitute_t(&e)));
        for (row, &v) in a_col.iter().enumerate() {
            a.set(row, col, v);
        }
    }
    for i in 0..n {
        for j in i + 1..n {
            let m = 0.5 * (a.get(i, j) + a.get(j, i));
            a.set(i, j, m);
            a.set(j, i, m);
        }
    }
    let (vals, vecs) = jacobi_eig(&a);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&p, &q| vals[q].total_cmp(&vals[p]));
    let r = cfg.num_pairs.min(n);
    let eigenvalues: Vec<f64> = order[..r].iter().map(|&i| vals[i]).collect();
    let vr: Vec<Vec<f64>> = order[..r]
        .iter()
        .zip(&eigenvalues)
        .map(|(&ti, &lam)| {
            let u: Vec<f64> = (0..n).map(|row| vecs.get(row, ti)).collect();
            let s = lam.max(0.0).sqrt();
            c.back_substitute_t(&u).iter().map(|x| x * s).collect()
        })
        .collect();
    let node_scores = (0..n)
        .map(|p| {
            let nbrs: Vec<usize> = gx.neighbors(p).map(|(q, _)| q).collect();
            let sum: f64 = nbrs
                .iter()
                .map(|&q| vr.iter().map(|v| (v[p] - v[q]).powi(2)).sum::<f64>())
                .sum();
            sum / nbrs.len().max(1) as f64
        })
        .collect();
    SpadeResult {
        isr_max: eigenvalues[0],
        node_scores,
        eigenvalues,
    }
}

/// A probe-like set: 3-D inputs, a smooth 3-D output field with one
/// steep region (so the dominant pairs are well separated).
fn probe_clouds(m: usize, seed: u64) -> (PointCloud, PointCloud) {
    let mut rng = Rng64::new(seed);
    let inputs = PointCloud::uniform_box(m, 3, 0.0, 1.0, &mut rng);
    let mut flat = Vec::with_capacity(m * 3);
    for i in 0..m {
        let p = inputs.point(i);
        flat.push((3.0 * p[0]).sin() + p[2]);
        flat.push(p[0] * p[1]);
        flat.push((8.0 * (p[1] - 0.5)).tanh());
    }
    (inputs, PointCloud::from_flat(3, flat))
}

#[test]
fn spade_scores_match_jacobi_reference() {
    let cfg = SpadeConfig::default();
    for m in [64usize, 192] {
        let (inp, out) = probe_clouds(m, 3 + m as u64);
        let knn = KnnConfig {
            k: cfg.k,
            strategy: KnnStrategy::Brute,
            weight_eps: cfg.weight_eps,
            seed: 0x5BADE,
        };
        let want = spade_reference(
            &build_knn_graph(&inp, &knn),
            &build_knn_graph(&out, &knn),
            &cfg,
        );
        let got = spade_scores(&inp, &out, &cfg);
        let rel = (got.isr_max - want.isr_max).abs() / want.isr_max.abs();
        assert!(
            rel <= 1e-10,
            "m={m}: isr_max {} vs {}",
            got.isr_max,
            want.isr_max
        );
        assert_eq!(got.eigenvalues.len(), want.eigenvalues.len());
        assert_eq!(got.node_scores.len(), m);
        for (p, (g, w)) in got.node_scores.iter().zip(&want.node_scores).enumerate() {
            let rel = (g - w).abs() / w.abs();
            assert!(rel <= 1e-9, "m={m} node {p}: {g} vs {w} (rel {rel:e})");
        }
    }
}
