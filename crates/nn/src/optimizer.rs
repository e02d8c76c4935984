//! Adam optimiser and learning-rate schedules.
//!
//! The reproduction trains with Adam + exponential decay, matching the
//! Modulus defaults the paper runs with.

use crate::mlp::{Gradients, Mlp};

/// Learning-rate schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant,
    /// `lr · gamma^(step / decay_steps)` — Modulus-style exponential decay.
    Exponential {
        /// Multiplicative decay factor per `decay_steps`.
        gamma: f64,
        /// Steps per decay application.
        decay_steps: usize,
    },
}

impl LrSchedule {
    /// Learning-rate multiplier at a given step.
    pub fn factor(&self, step: usize) -> f64 {
        match *self {
            LrSchedule::Constant => 1.0,
            LrSchedule::Exponential { gamma, decay_steps } => {
                gamma.powf(step as f64 / decay_steps.max(1) as f64)
            }
        }
    }
}

/// Adam hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamConfig {
    /// Base learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical floor.
    pub eps: f64,
    /// Schedule applied on top of `lr`.
    pub schedule: LrSchedule,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            schedule: LrSchedule::Exponential {
                gamma: 0.95,
                decay_steps: 2000,
            },
        }
    }
}

/// Adam state for one network.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    cfg: AdamConfig,
    m: Vec<f64>,
    v: Vec<f64>,
    t: usize,
    /// Flat-gradient scratch so `step` never allocates after the first
    /// call (the steady-state zero-allocation training path).
    scratch: Vec<f64>,
}

impl Adam {
    /// Fresh optimiser state for `net`.
    pub fn new(net: &Mlp, cfg: AdamConfig) -> Self {
        let n = net.num_params();
        Adam {
            cfg,
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
            scratch: vec![0.0; n],
        }
    }

    /// Steps taken so far.
    pub fn step_count(&self) -> usize {
        self.t
    }

    /// Current effective learning rate.
    pub fn current_lr(&self) -> f64 {
        self.cfg.lr * self.cfg.schedule.factor(self.t)
    }

    /// Optimiser state (step count, first and second moments) for run
    /// checkpointing.
    pub fn state(&self) -> (usize, &[f64], &[f64]) {
        (self.t, &self.m, &self.v)
    }

    /// Restores state captured by [`Adam::state`].
    ///
    /// # Panics
    /// Panics if the moment vectors do not match this optimiser's size.
    pub fn restore_state(&mut self, t: usize, m: &[f64], v: &[f64]) {
        assert_eq!(m.len(), self.m.len(), "first-moment size mismatch");
        assert_eq!(v.len(), self.v.len(), "second-moment size mismatch");
        self.t = t;
        self.m.copy_from_slice(m);
        self.v.copy_from_slice(v);
    }

    /// Applies one Adam update in place, via the fused SIMD-dispatched
    /// slice kernel (`sgm_linalg::simd::adam_update`) over each
    /// parameter slice in the stable flat order.
    ///
    /// # Panics
    /// Panics if the gradient does not match the network's parameter count.
    pub fn step(&mut self, net: &mut Mlp, grads: &Gradients) {
        assert_eq!(grads.num_entries(), self.m.len(), "gradient size mismatch");
        grads.write_flat(&mut self.scratch);
        self.t += 1;
        let lr = self.current_lr();
        let b1 = self.cfg.beta1;
        let b2 = self.cfg.beta2;
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let eps = self.cfg.eps;
        let (m, v, g) = (&mut self.m, &mut self.v, &self.scratch);
        net.for_each_param_slice_mut(|off, p| {
            let end = off + p.len();
            sgm_linalg::simd::adam_update(
                p,
                &g[off..end],
                &mut m[off..end],
                &mut v[off..end],
                b1,
                b2,
                bc1,
                bc2,
                lr,
                eps,
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::mlp::{BatchDerivatives, MlpConfig};
    use sgm_linalg::dense::Matrix;
    use sgm_linalg::rng::Rng64;

    fn small_net(seed: u64) -> Mlp {
        let cfg = MlpConfig {
            input_dim: 1,
            output_dim: 1,
            hidden_width: 12,
            hidden_layers: 2,
            activation: Activation::Tanh,
            fourier: None,
        };
        let mut rng = Rng64::new(seed);
        Mlp::new(&cfg, &mut rng)
    }

    /// Trains y = sin(3x) regression for a few hundred steps; loss must
    /// drop by an order of magnitude.
    #[test]
    fn adam_fits_sine_regression() {
        let mut net = small_net(10);
        let mut opt = Adam::new(
            &net,
            AdamConfig {
                lr: 2e-2,
                schedule: LrSchedule::Constant,
                ..AdamConfig::default()
            },
        );
        let n = 32;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 / n as f64 * 2.0 - 1.0).collect();
        let targets: Vec<f64> = xs.iter().map(|&x| (3.0 * x).sin()).collect();
        let x = Matrix::from_vec(n, 1, xs);
        let loss_of = |net: &Mlp| {
            let y = net.forward(&x);
            (0..n)
                .map(|i| (y.get(i, 0) - targets[i]).powi(2))
                .sum::<f64>()
                / n as f64
        };
        let initial = loss_of(&net);
        for _ in 0..400 {
            let (full, mut cache) = net.forward_with_derivs(&x, &[]);
            let mut adj = BatchDerivatives::zeros_like(&full);
            for (i, &t) in targets.iter().enumerate().take(n) {
                let d = 2.0 * (full.values.get(i, 0) - t) / n as f64;
                adj.values.set(i, 0, d);
            }
            let g = net.backward(&mut cache, &adj);
            opt.step(&mut net, &g);
        }
        let fin = loss_of(&net);
        assert!(
            fin < initial / 10.0,
            "loss did not drop: {initial} -> {fin}"
        );
        assert_eq!(opt.step_count(), 400);
    }

    #[test]
    fn exponential_schedule_decays() {
        let s = LrSchedule::Exponential {
            gamma: 0.5,
            decay_steps: 100,
        };
        assert!((s.factor(0) - 1.0).abs() < 1e-12);
        assert!((s.factor(100) - 0.5).abs() < 1e-12);
        assert!((s.factor(200) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn constant_schedule_is_flat() {
        assert_eq!(LrSchedule::Constant.factor(12345), 1.0);
    }

    #[test]
    fn current_lr_tracks_schedule() {
        let net = small_net(11);
        let mut opt = Adam::new(
            &net,
            AdamConfig {
                lr: 1.0,
                schedule: LrSchedule::Exponential {
                    gamma: 0.5,
                    decay_steps: 1,
                },
                ..AdamConfig::default()
            },
        );
        assert_eq!(opt.current_lr(), 1.0);
        opt.t = 2;
        assert!((opt.current_lr() - 0.25).abs() < 1e-12);
    }
}
