//! A trainable PINN problem: PDE + collocation data + loss weights.

use crate::pde::Pde;
use sgm_graph::points::PointCloud;
use sgm_linalg::dense::Matrix;
use sgm_nn::mlp::{BatchDerivatives, Gradients, Mlp};

/// The collocation data a problem trains on.
#[derive(Debug, Clone)]
pub struct TrainSet {
    /// Interior collocation points, `N × input_dim` (the paper's sample
    /// matrix `X ∈ ℝ^{N×M}`). Importance sampling operates on this set.
    pub interior: PointCloud,
    /// Boundary points (`N_b × input_dim`).
    pub boundary: PointCloud,
    /// Dirichlet targets per boundary point and output; `NaN` entries are
    /// unconstrained.
    pub boundary_targets: Matrix,
}

impl TrainSet {
    /// Number of interior samples.
    pub fn num_interior(&self) -> usize {
        self.interior.len()
    }

    /// Number of boundary samples.
    pub fn num_boundary(&self) -> usize {
        self.boundary.len()
    }
}

/// A PDE plus loss weighting.
#[derive(Debug, Clone)]
pub struct Problem {
    /// The governing equations.
    pub pde: Pde,
    /// Per-residual weights `w_F` (length = `pde.num_residuals()`).
    pub residual_weights: Vec<f64>,
    /// Weight on the boundary-condition loss `w_C`.
    pub bc_weight: f64,
}

impl Problem {
    /// A problem with unit weights.
    pub fn new(pde: Pde) -> Self {
        let n = pde.num_residuals();
        Problem {
            pde,
            residual_weights: vec![1.0; n],
            bc_weight: 1.0,
        }
    }

    /// Gathers rows `idx` of a cloud into a batch matrix.
    pub fn gather(cloud: &PointCloud, idx: &[usize]) -> Matrix {
        let mut m = Matrix::zeros(idx.len(), cloud.dim());
        Self::gather_into(cloud, idx, &mut m);
        m
    }

    /// Like [`Problem::gather`], writing into a preallocated
    /// `idx.len() × dim` buffer (the zero-allocation training path).
    ///
    /// # Panics
    /// Panics if the buffer shape does not match.
    pub fn gather_into(cloud: &PointCloud, idx: &[usize], m: &mut Matrix) {
        assert_eq!(
            (m.rows(), m.cols()),
            (idx.len(), cloud.dim()),
            "gather buffer shape"
        );
        for (r, &i) in idx.iter().enumerate() {
            m.row_mut(r).copy_from_slice(cloud.point(i));
        }
    }

    /// Boundary (Dirichlet) loss alone at batch rows `idx` — no
    /// gradients; the record-path evaluation.
    pub fn boundary_loss(&self, net: &Mlp, data: &TrainSet, idx: &[usize]) -> f64 {
        if idx.is_empty() {
            return 0.0;
        }
        let x = Self::gather(&data.boundary, idx);
        let vals = net.forward(&x);
        let o = vals.cols();
        let inv_b = 1.0 / idx.len() as f64;
        let mut total = 0.0;
        for (row, &i) in idx.iter().enumerate() {
            for k in 0..o {
                let t = data.boundary_targets.get(i, k);
                if t.is_nan() {
                    continue;
                }
                let r = vals.get(row, k) - t;
                total += self.bc_weight * r * r * inv_b;
            }
        }
        total
    }

    /// Interior PDE loss and parameter gradients for a batch `x`.
    /// Returns `(total weighted loss, gradients, per-sample losses)` where
    /// the per-sample loss is `Σ_k w_k r_k²` (the quantity importance
    /// samplers rank by).
    pub fn interior_loss_and_grads(&self, net: &Mlp, x: &Matrix) -> (f64, Gradients, Vec<f64>) {
        let b = x.rows();
        let (d, mut cache) = net.forward_with_derivs(x, &self.pde.diff_dims());
        let r = self.pde.residuals(x, &d);
        let nr = self.pde.num_residuals();
        let mut per_sample = vec![0.0; b];
        let mut factors = Matrix::zeros(b, nr);
        let inv_b = 1.0 / b as f64;
        let mut total = 0.0;
        for (i, ps) in per_sample.iter_mut().enumerate() {
            for k in 0..nr {
                let w = self.residual_weights[k];
                let rv = r.get(i, k);
                *ps += w * rv * rv;
                total += w * rv * rv * inv_b;
                factors.set(i, k, 2.0 * w * rv * inv_b);
            }
        }
        let mut adj = BatchDerivatives::zeros_like(&d);
        self.pde.accumulate_adjoints(x, &d, &factors, &mut adj);
        let grads = net.backward(&mut cache, &adj);
        (total, grads, per_sample)
    }

    /// Boundary (Dirichlet) loss and gradients for batch rows `idx` of the
    /// training set's boundary cloud.
    pub fn boundary_loss_and_grads(
        &self,
        net: &Mlp,
        data: &TrainSet,
        idx: &[usize],
    ) -> (f64, Gradients) {
        let x = Self::gather(&data.boundary, idx);
        let b = x.rows();
        let (d, mut cache) = net.forward_with_derivs(&x, &[]);
        let o = d.values.cols();
        let mut adj = BatchDerivatives::zeros_like(&d);
        let inv_b = 1.0 / b.max(1) as f64;
        let mut total = 0.0;
        for (row, &i) in idx.iter().enumerate() {
            for k in 0..o {
                let t = data.boundary_targets.get(i, k);
                if t.is_nan() {
                    continue;
                }
                let r = d.values.get(row, k) - t;
                total += self.bc_weight * r * r * inv_b;
                adj.values.set(row, k, 2.0 * self.bc_weight * r * inv_b);
            }
        }
        let grads = net.backward(&mut cache, &adj);
        (total, grads)
    }

    /// Per-sample interior losses for arbitrary indices — the **loss
    /// probe** importance samplers call on small subsets (no gradients,
    /// values + derivatives forward pass only).
    pub fn interior_sample_losses(&self, net: &Mlp, data: &TrainSet, idx: &[usize]) -> Vec<f64> {
        if idx.is_empty() {
            return Vec::new();
        }
        let x = Self::gather(&data.interior, idx);
        self.sample_losses_at(net, &x)
    }

    /// Per-sample interior losses at arbitrary coordinates (one row per
    /// point) — how point-set-adaptive samplers score proposal locations
    /// that are not in the collocation set yet.
    ///
    /// A forward-only pass through a fresh [`Mlp::make_workspace`]: no
    /// backward scratch is allocated.
    pub fn sample_losses_at(&self, net: &Mlp, x: &Matrix) -> Vec<f64> {
        if x.rows() == 0 {
            return Vec::new();
        }
        let dd = self.pde.diff_dims();
        let mut ws = net.make_workspace(x.rows(), dd.len());
        net.forward_with_derivs_ws(x, &dd, &mut ws);
        let r = self.pde.residuals(x, ws.derivs());
        let nr = self.pde.num_residuals();
        (0..x.rows())
            .map(|i| {
                (0..nr)
                    .map(|k| self.residual_weights[k] * r.get(i, k).powi(2))
                    .sum()
            })
            .collect()
    }

    /// Network outputs at arbitrary interior indices (what the ISR stage
    /// builds its output graph from).
    pub fn interior_outputs(&self, net: &Mlp, data: &TrainSet, idx: &[usize]) -> Matrix {
        let x = Self::gather(&data.interior, idx);
        net.forward(&x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Cavity, FillStrategy};
    use crate::pde::{NsConfig, PoissonConfig};
    use sgm_linalg::rng::Rng64;
    use sgm_nn::activation::Activation;
    use sgm_nn::mlp::MlpConfig;

    fn poisson_problem() -> Problem {
        Problem::new(Pde::Poisson(PoissonConfig {
            forcing: |p: &[f64]| {
                let pi = std::f64::consts::PI;
                2.0 * pi * pi * (pi * p[0]).sin() * (pi * p[1]).sin()
            },
        }))
    }

    fn small_net(out: usize, seed: u64) -> Mlp {
        let cfg = MlpConfig {
            input_dim: 2,
            output_dim: out,
            hidden_width: 10,
            hidden_layers: 2,
            activation: Activation::SiLu,
            fourier: None,
        };
        let mut rng = Rng64::new(seed);
        Mlp::new(&cfg, &mut rng)
    }

    fn cavity_data(seed: u64, out: usize) -> TrainSet {
        let cav = Cavity::default();
        let mut rng = Rng64::new(seed);
        let interior = cav.sample_interior(64, FillStrategy::Uniform, &mut rng);
        // Zero-Dirichlet targets on a few wall points (enough for probes).
        let boundary =
            sgm_graph::points::PointCloud::from_flat(2, vec![0.0, 0.5, 1.0, 0.5, 0.5, 0.0]);
        let boundary_targets = Matrix::zeros(3, out);
        TrainSet {
            interior,
            boundary,
            boundary_targets,
        }
    }

    #[test]
    fn interior_loss_grad_matches_finite_difference() {
        let prob = poisson_problem();
        let mut net = small_net(1, 1);
        let x = Matrix::from_rows(&[&[0.3, 0.4], &[0.8, 0.2]]);
        let (_l0, grads, _ps) = prob.interior_loss_and_grads(&net, &x);
        let flat = grads.flat();
        let params = net.params();
        let h = 1e-6;
        for &pi in &[0usize, 5, params.len() / 2, params.len() - 1] {
            let mut p = params.clone();
            p[pi] += h;
            net.set_params(&p);
            let (lp, _, _) = prob.interior_loss_and_grads(&net, &x);
            p[pi] -= 2.0 * h;
            net.set_params(&p);
            let (lm, _, _) = prob.interior_loss_and_grads(&net, &x);
            net.set_params(&params);
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (flat[pi] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
                "param {pi}: {} vs {fd}",
                flat[pi]
            );
        }
    }

    #[test]
    fn boundary_loss_grad_matches_finite_difference() {
        let prob = poisson_problem();
        let mut net = small_net(1, 2);
        let data = TrainSet {
            interior: sgm_graph::points::PointCloud::from_flat(2, vec![0.5, 0.5]),
            boundary: sgm_graph::points::PointCloud::from_flat(2, vec![0.0, 0.3, 1.0, 0.6]),
            boundary_targets: Matrix::from_rows(&[&[0.0], &[0.5]]),
        };
        let idx = [0usize, 1];
        let (_l, grads) = prob.boundary_loss_and_grads(&net, &data, &idx);
        let flat = grads.flat();
        let params = net.params();
        let h = 1e-6;
        for &pi in &[0usize, 7, params.len() - 1] {
            let mut p = params.clone();
            p[pi] += h;
            net.set_params(&p);
            let (lp, _) = prob.boundary_loss_and_grads(&net, &data, &idx);
            p[pi] -= 2.0 * h;
            net.set_params(&p);
            let (lm, _) = prob.boundary_loss_and_grads(&net, &data, &idx);
            net.set_params(&params);
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (flat[pi] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
                "param {pi}: {} vs {fd}",
                flat[pi]
            );
        }
    }

    #[test]
    fn nan_targets_are_unconstrained() {
        let prob = Problem::new(Pde::NavierStokes(NsConfig {
            nu: 0.1,
            zero_eq: None,
        }));
        let net = small_net(3, 2);
        let mut tgt = Matrix::zeros(1, 3);
        tgt.set(0, 0, f64::NAN);
        tgt.set(0, 1, f64::NAN);
        tgt.set(0, 2, f64::NAN);
        let data = TrainSet {
            interior: sgm_graph::points::PointCloud::from_flat(2, vec![0.5, 0.5]),
            boundary: sgm_graph::points::PointCloud::from_flat(2, vec![0.2, 0.9]),
            boundary_targets: tgt,
        };
        let (l, g) = prob.boundary_loss_and_grads(&net, &data, &[0]);
        assert_eq!(l, 0.0);
        assert_eq!(g.l2_norm(), 0.0);
    }

    #[test]
    fn per_sample_losses_sum_to_total() {
        let prob = poisson_problem();
        let net = small_net(1, 3);
        let x = Matrix::from_rows(&[&[0.1, 0.9], &[0.4, 0.4], &[0.7, 0.3]]);
        let (total, _, per) = prob.interior_loss_and_grads(&net, &x);
        let mean: f64 = per.iter().sum::<f64>() / per.len() as f64;
        assert!((total - mean).abs() < 1e-12);
    }

    #[test]
    fn probe_matches_batch_losses() {
        let prob = poisson_problem();
        let net = small_net(1, 4);
        let data = cavity_data(5, 1);
        let idx = [3usize, 10, 20];
        let probe = prob.interior_sample_losses(&net, &data, &idx);
        let x = Problem::gather(&data.interior, &idx);
        let (_t, _g, per) = prob.interior_loss_and_grads(&net, &x);
        for i in 0..3 {
            assert!((probe[i] - per[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn outputs_probe_shape() {
        let prob = poisson_problem();
        let net = small_net(1, 6);
        let data = cavity_data(6, 1);
        let out = prob.interior_outputs(&net, &data, &[0, 1, 2, 3]);
        assert_eq!(out.rows(), 4);
        assert_eq!(out.cols(), 1);
    }
}
