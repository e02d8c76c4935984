//! Eigensolvers: symmetric Lanczos with full reorthogonalisation, the
//! implicit QL algorithm for the resulting tridiagonal matrices, and power
//! iteration.
//!
//! The QL core (`tql2`) is shared with the dense symmetric solver
//! [`Matrix::sym_eig`], which the stability crate runs on its
//! Cholesky-reduced ISR pencil (paper Eq. 9–11).

use crate::dense::{axpy, dot, norm2, scale, Matrix};
use crate::rng::Rng64;
use crate::sparse::LinOp;

/// Which end of the spectrum to report first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpectrumEnd {
    /// Largest eigenvalues first.
    Largest,
    /// Smallest eigenvalues first.
    Smallest,
}

/// An eigenpair `(value, vector)`.
#[derive(Debug, Clone, PartialEq)]
pub struct EigenPair {
    /// The eigenvalue.
    pub value: f64,
    /// The unit-norm eigenvector.
    pub vector: Vec<f64>,
}

/// Eigenvalues and eigenvectors of a symmetric tridiagonal matrix with
/// diagonal `d` and off-diagonal `e` (`e.len() == d.len() - 1`), via
/// implicit-shift QL (EISPACK `tql2`).
///
/// Returns pairs sorted ascending by eigenvalue. The eigenvector matrix has
/// eigenvectors as columns.
///
/// # Panics
/// Panics if `e.len() + 1 != d.len()` (for non-empty `d`) or the QL
/// iteration fails to converge (pathological input).
pub fn tridiag_eig(d: &[f64], e: &[f64]) -> (Vec<f64>, Matrix) {
    let n = d.len();
    if n == 0 {
        return (Vec::new(), Matrix::zeros(0, 0));
    }
    assert_eq!(e.len() + 1, n, "off-diagonal length");
    let mut dd = d.to_vec();
    let mut ee = e.to_vec();
    ee.push(0.0);
    let mut z = Matrix::identity(n).into_vec();
    tql2(&mut z, &mut dd, &mut ee);
    sorted_pairs(&dd, &z)
}

/// Implicit-shift QL on a symmetric tridiagonal matrix (EISPACK `tql2`,
/// after the JAMA transcription): diagonal `d`, off-diagonal `e[i]`
/// between `i` and `i + 1` (`e[n-1]` is scratch). `z` is the row-major
/// `n × n` *transposed* accumulator — identity for a bare tridiagonal
/// matrix, the transposed Householder transform for [`Matrix::sym_eig`] —
/// so each plane rotation updates two adjacent contiguous rows. On return
/// `d` holds the eigenvalues (unsorted) and row `k` of `z` the
/// eigenvector of `d[k]`.
///
/// # Panics
/// Panics if an eigenvalue takes more than 30 QL sweeps (the EISPACK
/// limit; only pathological input gets there).
pub(crate) fn tql2(z: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    e[n - 1] = 0.0;
    let mut f = 0.0;
    let mut tst1 = 0.0f64;
    let eps = f64::EPSILON;
    for l in 0..n {
        // Find a negligible off-diagonal element (e[n-1] = 0 stops it).
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m < n - 1 && e[m].abs() > eps * tst1 {
            m += 1;
        }
        if m > l {
            let mut iter = 0;
            loop {
                iter += 1;
                assert!(iter <= 30, "QL failed to converge");
                // Implicit shift.
                let mut g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = p.hypot(1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let mut h = g - d[l];
                for di in &mut d[l + 2..] {
                    *di -= h;
                }
                f += h;
                // QL sweep from m back to l.
                p = d[m];
                let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
                let el1 = e[l + 1];
                let (mut s, mut s2) = (0.0, 0.0);
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    g = c * e[i];
                    h = c * p;
                    r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    let (lo, hi) = z.split_at_mut((i + 1) * n);
                    for (zi, zi1) in lo[i * n..].iter_mut().zip(&mut hi[..n]) {
                        let t = *zi1;
                        *zi1 = s * *zi + c * t;
                        *zi = c * *zi - s * t;
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
                // A NaN (non-finite input) ends the sweeps too.
                if e[l].is_nan() || e[l].abs() <= eps * tst1 {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
}

/// `(eigenvalues ascending, eigenvector columns)` from unsorted
/// eigenvalues `d` and eigenvector *rows* `z` (the output of [`tql2`]).
pub(crate) fn sorted_pairs(d: &[f64], z: &[f64]) -> (Vec<f64>, Matrix) {
    let n = d.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&p, &q| d[p].total_cmp(&d[q]));
    let vals = order.iter().map(|&k| d[k]).collect();
    let mut vecs = Matrix::zeros(n, n);
    for (col, &k) in order.iter().enumerate() {
        for (row, &v) in z[k * n..(k + 1) * n].iter().enumerate() {
            vecs.set(row, col, v);
        }
    }
    (vals, vecs)
}

/// Options for [`lanczos`].
#[derive(Debug, Clone, PartialEq)]
pub struct LanczosOptions {
    /// Number of eigenpairs wanted.
    pub num_pairs: usize,
    /// Krylov subspace dimension (defaults to `max(2·num_pairs + 10, 30)`
    /// when zero).
    pub subspace: usize,
    /// Which end of the spectrum.
    pub end: SpectrumEnd,
    /// RNG seed for the starting vector.
    pub seed: u64,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            num_pairs: 4,
            subspace: 0,
            end: SpectrumEnd::Largest,
            seed: 0xDEC0DE,
        }
    }
}

/// Symmetric Lanczos with full reorthogonalisation.
///
/// Returns up to `opts.num_pairs` Ritz pairs from the requested end of the
/// spectrum. The operator must be symmetric; Ritz pairs of non-symmetric
/// operators are not meaningful.
///
/// # Panics
/// Panics if `opts.num_pairs == 0` or the operator dimension is zero.
pub fn lanczos<A: LinOp + ?Sized>(a: &A, opts: &LanczosOptions) -> Vec<EigenPair> {
    let n = a.dim();
    assert!(n > 0, "empty operator");
    assert!(opts.num_pairs > 0, "num_pairs must be positive");
    let m = if opts.subspace == 0 {
        (2 * opts.num_pairs + 10).max(30).min(n)
    } else {
        opts.subspace.min(n)
    };

    let mut rng = Rng64::new(opts.seed);
    let mut q: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
    let mut v0: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
    let nv = norm2(&v0).max(1e-300);
    scale(&mut v0, 1.0 / nv);
    q.push(v0);

    let mut alphas = Vec::with_capacity(m);
    let mut betas: Vec<f64> = Vec::with_capacity(m);
    let mut w = vec![0.0; n];
    for j in 0..m {
        a.apply_to(&q[j], &mut w);
        let alpha = dot(&w, &q[j]);
        alphas.push(alpha);
        axpy(-alpha, &q[j], &mut w);
        if j > 0 {
            let beta_prev = betas[j - 1];
            axpy(-beta_prev, &q[j - 1], &mut w);
        }
        // Full reorthogonalisation (twice for stability).
        for _ in 0..2 {
            for qi in &q {
                let c = dot(&w, qi);
                if c != 0.0 {
                    axpy(-c, qi, &mut w);
                }
            }
        }
        let beta = norm2(&w);
        if beta < 1e-12 || j + 1 == m {
            break;
        }
        betas.push(beta);
        let next: Vec<f64> = w.iter().map(|x| x / beta).collect();
        q.push(next);
    }

    let k = alphas.len();
    let (vals, vecs) = tridiag_eig(&alphas, &betas[..k.saturating_sub(1)]);
    let mut order: Vec<usize> = (0..k).collect();
    match opts.end {
        SpectrumEnd::Largest => order.sort_by(|&a, &b| vals[b].partial_cmp(&vals[a]).unwrap()),
        SpectrumEnd::Smallest => order.sort_by(|&a, &b| vals[a].partial_cmp(&vals[b]).unwrap()),
    }
    order
        .into_iter()
        .take(opts.num_pairs)
        .map(|ti| {
            let mut vec = vec![0.0; n];
            for (j, qj) in q.iter().enumerate().take(k) {
                axpy(vecs.get(j, ti), qj, &mut vec);
            }
            let nv = norm2(&vec).max(1e-300);
            scale(&mut vec, 1.0 / nv);
            EigenPair {
                value: vals[ti],
                vector: vec,
            }
        })
        .collect()
}

/// Power iteration for the dominant eigenpair of a symmetric operator.
///
/// # Panics
/// Panics if `iters == 0` or the operator dimension is zero.
pub fn power_iteration<A: LinOp + ?Sized>(a: &A, iters: usize, seed: u64) -> EigenPair {
    let n = a.dim();
    assert!(n > 0 && iters > 0);
    let mut rng = Rng64::new(seed);
    let mut v: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
    let nv = norm2(&v).max(1e-300);
    scale(&mut v, 1.0 / nv);
    let mut av = vec![0.0; n];
    let mut lambda = 0.0;
    for _ in 0..iters {
        a.apply_to(&v, &mut av);
        lambda = dot(&v, &av);
        let nav = norm2(&av);
        if nav < 1e-300 {
            break;
        }
        for i in 0..n {
            v[i] = av[i] / nav;
        }
    }
    EigenPair {
        value: lambda,
        vector: v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Csr;

    fn diag_op(values: &[f64]) -> Csr {
        let trips: Vec<(usize, usize, f64)> =
            values.iter().enumerate().map(|(i, &v)| (i, i, v)).collect();
        Csr::from_triplets(values.len(), values.len(), &trips)
    }

    #[test]
    fn tridiag_eig_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let (vals, vecs) = tridiag_eig(&[2.0, 2.0], &[1.0]);
        assert!((vals[0] - 1.0).abs() < 1e-12);
        assert!((vals[1] - 3.0).abs() < 1e-12);
        // Eigenvector for λ=3 is (1,1)/√2.
        let r = vecs.get(0, 1) / vecs.get(1, 1);
        assert!((r - 1.0).abs() < 1e-10);
    }

    #[test]
    fn tridiag_eig_known_laplacian_path() {
        // Path Laplacian eigenvalues: 2 - 2cos(kπ/n), k = 0..n-1 — for the
        // free path (Neumann), d = [1,2,...,2,1].
        let n = 8;
        let mut d = vec![2.0; n];
        d[0] = 1.0;
        d[n - 1] = 1.0;
        let e = vec![-1.0; n - 1];
        let (vals, _) = tridiag_eig(&d, &e);
        for (k, v) in vals.iter().enumerate() {
            let expect = 2.0 - 2.0 * (std::f64::consts::PI * k as f64 / n as f64).cos();
            assert!((v - expect).abs() < 1e-9, "k={k}: {v} vs {expect}");
        }
    }

    #[test]
    fn lanczos_diag_largest() {
        let a = diag_op(&[1.0, 5.0, 3.0, 9.0, 2.0, 7.0]);
        let pairs = lanczos(
            &a,
            &LanczosOptions {
                num_pairs: 2,
                ..LanczosOptions::default()
            },
        );
        assert!((pairs[0].value - 9.0).abs() < 1e-8);
        assert!((pairs[1].value - 7.0).abs() < 1e-8);
    }

    #[test]
    fn lanczos_diag_smallest() {
        let a = diag_op(&[1.0, 5.0, 3.0, 9.0, 2.0, 7.0]);
        let pairs = lanczos(
            &a,
            &LanczosOptions {
                num_pairs: 2,
                end: SpectrumEnd::Smallest,
                ..LanczosOptions::default()
            },
        );
        assert!((pairs[0].value - 1.0).abs() < 1e-8);
        assert!((pairs[1].value - 2.0).abs() < 1e-8);
    }

    #[test]
    fn lanczos_eigvecs_satisfy_pencil() {
        let mut rng = Rng64::new(77);
        let g = Matrix::gaussian(12, 12, &mut rng);
        let a = g.matmul(&g.transposed());
        let pairs = lanczos(
            &a,
            &LanczosOptions {
                num_pairs: 3,
                subspace: 12,
                ..LanczosOptions::default()
            },
        );
        for p in &pairs {
            let av = a.mul_vec(&p.vector);
            for (avi, vi) in av.iter().zip(&p.vector) {
                assert!((avi - p.value * vi).abs() < 1e-6, "residual too large");
            }
        }
    }

    #[test]
    fn lanczos_matches_jacobi_eig() {
        let mut rng = Rng64::new(99);
        let g = Matrix::gaussian(10, 10, &mut rng);
        let a = g.matmul(&g.transposed());
        let (mut vals, _) = a.sym_eig();
        vals.sort_by(|x, y| y.partial_cmp(x).unwrap());
        let pairs = lanczos(
            &a,
            &LanczosOptions {
                num_pairs: 3,
                subspace: 10,
                ..LanczosOptions::default()
            },
        );
        for (i, p) in pairs.iter().enumerate() {
            assert!(
                (p.value - vals[i]).abs() < 1e-7,
                "λ{i}: {} vs {}",
                p.value,
                vals[i]
            );
        }
    }

    #[test]
    fn power_iteration_dominant() {
        let a = diag_op(&[1.0, 2.0, 10.0, 3.0]);
        let p = power_iteration(&a, 200, 5);
        assert!((p.value - 10.0).abs() < 1e-6);
        assert!(p.vector[2].abs() > 0.999);
    }

    #[test]
    fn lanczos_handles_small_operator() {
        let a = diag_op(&[4.0]);
        let pairs = lanczos(
            &a,
            &LanczosOptions {
                num_pairs: 1,
                ..LanczosOptions::default()
            },
        );
        assert_eq!(pairs.len(), 1);
        assert!((pairs[0].value - 4.0).abs() < 1e-10);
    }
}
