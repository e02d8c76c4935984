//! Batched multi-model execution: pack `B` same-architecture [`Mlp`]s
//! into interleaved SoA storage and run the derivative-carrying forward
//! and exact backward pass for all `B` instances in one register-tiled
//! sweep.
//!
//! # Layout
//!
//! Every per-instance scalar `s[i]` (a weight, a bias, an activation, an
//! Adam moment) lives at interleaved offset `i·L + l`, where `l` is the
//! instance's *lane* and `L` ([`BatchedMlp::lanes`]) is the instance
//! count rounded up to a multiple of 8 so every (logical index, lane)
//! run fills whole AVX-512 registers. Pad lanes carry all-zero weights
//! and zero adjoints, so they never produce NaNs and never contaminate
//! live lanes (lanes do not mix in any kernel).
//!
//! Within a chunk, the value / jacobian / hessian streams of each layer
//! are stacked as vertical *bands* of one matrix in the fixed order
//! `[a, j₀, h₀, j₁, h₁, …]` (band `b` = rows `b·chunk..(b+1)·chunk`).
//! Each layer then needs exactly one GEMM per direction — forward
//! pre-activation, input-gradient propagation, and the weight-gradient
//! accumulation — instead of `1 + 2·nd`, so the packed weight panel is
//! streamed once per layer rather than once per band.
//!
//! # Bit-identity contract
//!
//! For each instance, forward outputs, parameter gradients and Adam
//! updates are **bit-identical** to running that instance alone through
//! [`Mlp::forward_with_derivs_ws`] / [`Mlp::backward_ws`] /
//! [`Adam::step`](crate::optimizer::Adam::step) on the same SIMD tier
//! and any thread count. This holds because
//! [`sgm_linalg::simd::bgemm_accum`] and
//! [`sgm_linalg::simd::adam_update_multi`] evaluate the same
//! per-element ascending-`k` chains as the solo kernels, every
//! elementwise kernel is position-independent, the chunk layout equals
//! [`batch_chunks`]`(batch)`, and gradients merge in chunk order exactly
//! like the solo path. Band stacking preserves the chains too: the
//! fused forward/propagation GEMMs keep each band row's ascending-`k`
//! chain untouched (extra rows never mix), and the fused
//! weight-gradient GEMM walks `k` through the bands in `[a, j₀, h₀, …]`
//! order — exactly the sequence of the solo path's per-band
//! accumulations. Even the `β = 0` GEMM semantics (a multiply by zero,
//! which preserves the sign of a zero result) are replicated.

use crate::activation::eval3_batch;
use crate::mlp::{batch_chunks, BatchDerivatives, Gradients, Mlp, MlpConfig};
use crate::optimizer::{AdamConfig, LrSchedule};
use sgm_linalg::dense::Matrix;
use sgm_linalg::simd;

/// Auto-mode work cutoff for pooling batched chunks — same constant the
/// solo MLP path uses, scaled naturally because batched work estimates
/// multiply by the lane count.
const MLP_PAR_WORK: usize = 1 << 16;

/// One packed layer: weights `out_w × (in_w·L)` with entry
/// `(j, k·L + l)` holding instance `l`'s `w[j][k]`, bias `out_w·L`.
#[derive(Debug, Clone)]
struct BatchedLayer {
    w: Matrix,
    b: Vec<f64>,
}

/// `B` same-architecture networks in interleaved SoA storage.
#[derive(Debug, Clone)]
pub struct BatchedMlp {
    cfg: MlpConfig,
    instances: usize,
    lanes: usize,
    /// Per-instance frozen Fourier frequency matrices (encoding is
    /// evaluated per lane in scalar code, exactly like the solo path).
    freq: Vec<Option<Matrix>>,
    layers: Vec<BatchedLayer>,
}

/// Interleaved parameter gradients shaped like a [`BatchedMlp`].
#[derive(Debug, Clone)]
pub struct BatchedGradients {
    lanes: usize,
    w: Vec<Matrix>,
    b: Vec<Vec<f64>>,
}

impl BatchedGradients {
    /// Resets all entries to zero in place.
    pub fn zero(&mut self) {
        for w in &mut self.w {
            w.fill(0.0);
        }
        for b in &mut self.b {
            for x in b {
                *x = 0.0;
            }
        }
    }

    /// Adds another gradient in place — the same elementwise exact add
    /// the solo [`Gradients::add_assign`] performs, so per-lane merge
    /// order matches the solo chunk merge.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &BatchedGradients) {
        for (a, b) in self.w.iter_mut().zip(&other.w) {
            a.axpy(1.0, b);
        }
        for (a, b) in self.b.iter_mut().zip(&other.b) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
    }

    /// Deinterleaves one instance's gradient into a solo [`Gradients`].
    ///
    /// # Panics
    /// Panics if `out` is shaped for a different architecture.
    pub fn extract_to(&self, lane: usize, out: &mut Gradients) {
        assert!(lane < self.lanes, "lane out of range");
        assert_eq!(out.w.len(), self.w.len(), "layer count mismatch");
        for ((bw, bb), (sw, sb)) in self
            .w
            .iter()
            .zip(&self.b)
            .zip(out.w.iter_mut().zip(&mut out.b))
        {
            let src = bw.as_slice();
            for (i, v) in sw.as_mut_slice().iter_mut().enumerate() {
                *v = src[i * self.lanes + lane];
            }
            for (i, v) in sb.iter_mut().enumerate() {
                *v = bb[i * self.lanes + lane];
            }
        }
    }
}

/// Per-layer buffers of one batched chunk, mirroring the solo
/// workspace's `LayerWs` + `LayerGradWs` with every column dimension
/// widened by the lane count and the value/jacobian/hessian streams
/// stacked as vertical bands (`1 + 2·nd` bands of `chunk` rows each, in the chain
/// order `[a, j₀, h₀, j₁, h₁, …]`).
#[derive(Debug, Clone)]
struct BatchedLayerWs {
    /// Banded layer input: band 0 the activations, bands `1+2d`/`2+2d`
    /// the `d`-th jacobian/hessian streams.
    xin: Matrix,
    /// Banded pre-activations, same band order as `xin`.
    zall: Matrix,
    s1: Vec<f64>,
    s2: Vec<f64>,
    s3: Vec<f64>,
    /// Banded output adjoints.
    goutall: Matrix,
    /// Banded pre-activation adjoints.
    gzall: Matrix,
    activated: bool,
}

/// All buffers of one batched chunk; chunks stay fully independent so
/// the pool may hand each to any worker without changing results.
#[derive(Debug, Clone)]
struct BatchedChunkWs {
    r0: usize,
    r1: usize,
    layers: Vec<BatchedLayerWs>,
    out_v: Matrix,
    out_j: Vec<Matrix>,
    out_h: Vec<Matrix>,
    grads: BatchedGradients,
}

/// Preallocated scratch for repeated batched forward/backward passes
/// over a fixed batch shape — the multi-instance twin of
/// [`crate::mlp::MlpWorkspace`], allocation-free in the steady state.
#[derive(Debug, Clone)]
pub struct BatchedWorkspace {
    batch: usize,
    nd: usize,
    lanes: usize,
    /// Interleaved transposed weights (`in_w × out_w·L`), refreshed at
    /// the start of every forward pass.
    wtp: Vec<simd::PackedB>,
    /// Interleaved weights packed for backward propagation, refreshed
    /// at the start of every backward pass.
    wp: Vec<simd::PackedB>,
    chunks: Vec<BatchedChunkWs>,
    /// Assembled interleaved full-batch outputs of the last forward.
    dv: Matrix,
    dj: Vec<Matrix>,
    dh: Vec<Matrix>,
    /// Interleaved full-batch adjoints consumed by the backward pass
    /// (pad lanes stay zero forever).
    av: Matrix,
    aj: Vec<Matrix>,
    ah: Vec<Matrix>,
}

impl BatchedWorkspace {
    /// Batch size this workspace was built for.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Number of derivative dimensions this workspace was built for.
    pub fn num_diff_dims(&self) -> usize {
        self.nd
    }

    /// Deinterleaves one instance's outputs of the most recent
    /// [`BatchedMlp::forward_with_derivs_batched`] call.
    ///
    /// # Panics
    /// Panics if `out` does not match the workspace shape.
    pub fn extract_derivs(&self, lane: usize, out: &mut BatchDerivatives) {
        assert!(lane < self.lanes, "lane out of range");
        assert_eq!(out.values.rows(), self.batch, "derivs batch mismatch");
        assert_eq!(out.jac.len(), self.nd, "derivs diff-dim mismatch");
        let cols = out.values.cols();
        let deinterleave = |src: &Matrix, dst: &mut Matrix| {
            let s = src.as_slice();
            let srl = cols * self.lanes;
            for (r, row) in dst.as_mut_slice().chunks_exact_mut(cols).enumerate() {
                let sr = &s[r * srl..(r + 1) * srl];
                for (o, v) in row.iter_mut().enumerate() {
                    *v = sr[o * self.lanes + lane];
                }
            }
        };
        deinterleave(&self.dv, &mut out.values);
        for d in 0..self.nd {
            deinterleave(&self.dj[d], &mut out.jac[d]);
            deinterleave(&self.dh[d], &mut out.hess[d]);
        }
    }

    /// Interleaves one instance's adjoints into the workspace for the
    /// next [`BatchedMlp::backward_batched`] call.
    ///
    /// # Panics
    /// Panics if `adj` does not match the workspace shape.
    pub fn set_adjoints(&mut self, lane: usize, adj: &BatchDerivatives) {
        assert!(lane < self.lanes, "lane out of range");
        assert_eq!(adj.values.rows(), self.batch, "adjoint batch mismatch");
        assert_eq!(adj.jac.len(), self.nd, "adjoint diff-dim mismatch");
        let cols = adj.values.cols();
        let lanes = self.lanes;
        let interleave = |src: &Matrix, dst: &mut Matrix| {
            let d = dst.as_mut_slice();
            let drl = cols * lanes;
            for (r, row) in src.as_slice().chunks_exact(cols).enumerate() {
                let dr = &mut d[r * drl..(r + 1) * drl];
                for (o, &v) in row.iter().enumerate() {
                    dr[o * lanes + lane] = v;
                }
            }
        };
        interleave(&adj.values, &mut self.av);
        for d in 0..self.nd {
            interleave(&adj.jac[d], &mut self.aj[d]);
            interleave(&adj.hess[d], &mut self.ah[d]);
        }
    }
}

/// Multiplies a buffer by zero in place — the exact `β = 0` semantics
/// of [`sgm_linalg::dense::gemm`] (`*v *= 0.0` keeps the sign of a zero
/// coming out of an all-zero accumulation chain, which a plain fill
/// would not).
fn beta_zero(buf: &mut [f64]) {
    for v in buf {
        *v *= 0.0;
    }
}

/// Writes `band` into `dst` starting at row `r0` (same column count).
fn scatter_rows(dst: &mut Matrix, r0: usize, band: &Matrix) {
    let cols = dst.cols();
    dst.as_mut_slice()[r0 * cols..(r0 + band.rows()) * cols].copy_from_slice(band.as_slice());
}

impl BatchedMlp {
    /// Packs same-architecture networks into interleaved storage. The
    /// lane count is the instance count rounded up to a multiple of 8;
    /// pad lanes carry zero weights.
    ///
    /// # Panics
    /// Panics if `nets` is empty or the architectures differ.
    pub fn pack(nets: &[&Mlp]) -> Self {
        assert!(!nets.is_empty(), "pack needs at least one network");
        let cfg = nets[0].config().clone();
        for n in nets {
            assert_eq!(n.config(), &cfg, "pack requires identical architectures");
        }
        let instances = nets.len();
        let lanes = instances.next_multiple_of(8);
        let layers = nets[0]
            .layers
            .iter()
            .map(|l| BatchedLayer {
                w: Matrix::zeros(l.w.rows(), l.w.cols() * lanes),
                b: vec![0.0; l.b.len() * lanes],
            })
            .collect();
        let mut packed = BatchedMlp {
            cfg,
            instances,
            lanes,
            freq: vec![None; instances],
            layers,
        };
        for (l, n) in nets.iter().enumerate() {
            packed.sync_from(l, n);
        }
        packed
    }

    /// Number of packed instances.
    pub fn instances(&self) -> usize {
        self.instances
    }

    /// Interleave stride (instances rounded up to a multiple of 8).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The shared architecture.
    pub fn config(&self) -> &MlpConfig {
        &self.cfg
    }

    /// Trainable parameters per instance.
    pub fn num_params_per_instance(&self) -> usize {
        self.layers
            .iter()
            .map(|l| (l.w.rows() * l.w.cols() + l.b.len()) / self.lanes)
            .sum()
    }

    /// Re-interleaves one instance's parameters (and Fourier
    /// frequencies) from a solo network — used when (re)forming a group
    /// or restoring a checkpoint into a lane.
    ///
    /// # Panics
    /// Panics on lane/architecture mismatch.
    pub fn sync_from(&mut self, lane: usize, net: &Mlp) {
        assert!(lane < self.instances, "lane out of range");
        assert_eq!(net.config(), &self.cfg, "architecture mismatch");
        for (bl, nl) in self.layers.iter_mut().zip(&net.layers) {
            let dst = bl.w.as_mut_slice();
            for (i, &v) in nl.w.as_slice().iter().enumerate() {
                dst[i * self.lanes + lane] = v;
            }
            for (i, &v) in nl.b.iter().enumerate() {
                bl.b[i * self.lanes + lane] = v;
            }
        }
        self.freq[lane] = net.fourier_frequencies().cloned();
    }

    /// Deinterleaves one instance's parameters into a solo network
    /// (allocation-free; the write-back half of the lockstep loop).
    ///
    /// # Panics
    /// Panics on lane/architecture mismatch.
    pub fn extract_to(&self, lane: usize, net: &mut Mlp) {
        assert!(lane < self.instances, "lane out of range");
        assert_eq!(net.config(), &self.cfg, "architecture mismatch");
        for (bl, nl) in self.layers.iter().zip(&mut net.layers) {
            let src = bl.w.as_slice();
            for (i, v) in nl.w.as_mut_slice().iter_mut().enumerate() {
                *v = src[i * self.lanes + lane];
            }
            for (i, v) in nl.b.iter_mut().enumerate() {
                *v = bl.b[i * self.lanes + lane];
            }
        }
    }

    /// Zero-initialised interleaved gradients shaped like this batch.
    pub fn zero_gradients(&self) -> BatchedGradients {
        BatchedGradients {
            lanes: self.lanes,
            w: self
                .layers
                .iter()
                .map(|l| Matrix::zeros(l.w.rows(), l.w.cols()))
                .collect(),
            b: self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
        }
    }

    /// Visits every interleaved parameter slice (each layer's weights,
    /// then its bias) with the slice's offset into the interleaved flat
    /// vector — offsets equal the solo flat offsets times the lane
    /// count, which is what lets [`BatchedAdam`] mirror the solo
    /// optimiser slice for slice.
    pub fn for_each_param_slice_mut(&mut self, mut f: impl FnMut(usize, &mut [f64])) {
        let mut off = 0;
        for layer in &mut self.layers {
            let w = layer.w.as_mut_slice();
            let nw = w.len();
            f(off, w);
            off += nw;
            f(off, &mut layer.b);
            off += layer.b.len();
        }
    }

    /// Builds a reusable workspace for batches of exactly `batch` rows
    /// with `nd` derivative dimensions.
    pub fn make_workspace(&self, batch: usize, nd: usize) -> BatchedWorkspace {
        let ls = self.lanes;
        let out_dim = self.cfg.output_dim;
        let bands = 1 + 2 * nd;
        let chunks = batch_chunks(batch)
            .iter()
            .map(|&(r0, r1)| {
                let chunk = r1 - r0;
                let nl = self.layers.len();
                let layers = self
                    .layers
                    .iter()
                    .enumerate()
                    .map(|(li, layer)| {
                        let in_w = layer.w.cols() / ls;
                        let out_w = layer.w.rows();
                        let activated = li != nl - 1;
                        let act_len = if activated { chunk * out_w * ls } else { 0 };
                        BatchedLayerWs {
                            xin: Matrix::zeros(bands * chunk, in_w * ls),
                            zall: Matrix::zeros(bands * chunk, out_w * ls),
                            s1: vec![0.0; act_len],
                            s2: vec![0.0; act_len],
                            s3: vec![0.0; act_len],
                            goutall: Matrix::zeros(bands * chunk, out_w * ls),
                            gzall: Matrix::zeros(bands * chunk, out_w * ls),
                            activated,
                        }
                    })
                    .collect();
                BatchedChunkWs {
                    r0,
                    r1,
                    layers,
                    out_v: Matrix::zeros(chunk, out_dim * ls),
                    out_j: vec![Matrix::zeros(chunk, out_dim * ls); nd],
                    out_h: vec![Matrix::zeros(chunk, out_dim * ls); nd],
                    grads: self.zero_gradients(),
                }
            })
            .collect();
        BatchedWorkspace {
            batch,
            nd,
            lanes: ls,
            wtp: self.layers.iter().map(|_| simd::PackedB::new()).collect(),
            wp: self.layers.iter().map(|_| simd::PackedB::new()).collect(),
            chunks,
            dv: Matrix::zeros(batch, out_dim * ls),
            dj: vec![Matrix::zeros(batch, out_dim * ls); nd],
            dh: vec![Matrix::zeros(batch, out_dim * ls); nd],
            av: Matrix::zeros(batch, out_dim * ls),
            aj: vec![Matrix::zeros(batch, out_dim * ls); nd],
            ah: vec![Matrix::zeros(batch, out_dim * ls); nd],
        }
    }

    /// Rough work estimate steering the Auto parallel cutoff (the solo
    /// estimate times the lane count).
    fn par_work(&self, batch: usize, nd: usize) -> usize {
        batch
            .saturating_mul(self.num_params_per_instance())
            .saturating_mul(self.lanes)
            .saturating_mul(1 + 2 * nd)
    }

    /// Encoder for one instance's rows `r0..r1`, written at the
    /// instance's lane offsets into the banded layer-0 input — scalar
    /// arithmetic identical to the solo encoder, so encoded values
    /// match bit for bit.
    fn encode_lane(
        &self,
        inst: usize,
        x: &Matrix,
        r0: usize,
        r1: usize,
        diff_dims: &[usize],
        xin: &mut Matrix,
    ) {
        let ls = self.lanes;
        let rows = r1 - r0;
        let in_dim = self.cfg.input_dim;
        let Some(freq) = &self.freq[inst] else {
            for r in 0..rows {
                let xr = x.row(r0 + r);
                {
                    let ar = xin.row_mut(r);
                    for (c, &xc) in xr.iter().enumerate().take(in_dim) {
                        ar[c * ls + inst] = xc;
                    }
                }
                for (di, &d) in diff_dims.iter().enumerate() {
                    xin.row_mut((1 + 2 * di) * rows + r)[d * ls + inst] = 1.0;
                }
            }
            return;
        };
        let nf = freq.rows();
        for r in 0..rows {
            let xr = x.row(r0 + r);
            {
                let ar = xin.row_mut(r);
                for (c, &xc) in xr.iter().enumerate().take(in_dim) {
                    ar[c * ls + inst] = xc;
                }
            }
            for (di, &d) in diff_dims.iter().enumerate() {
                xin.row_mut((1 + 2 * di) * rows + r)[d * ls + inst] = 1.0;
            }
            for s in 0..nf {
                let phase: f64 = {
                    let w = freq.row(s);
                    w.iter().zip(xr).map(|(wc, xc)| wc * xc).sum()
                };
                let (sn, cs) = phase.sin_cos();
                {
                    let ar = xin.row_mut(r);
                    ar[(in_dim + s) * ls + inst] = sn;
                    ar[(in_dim + nf + s) * ls + inst] = cs;
                }
                for (di, &d) in diff_dims.iter().enumerate() {
                    let wd = freq.row(s)[d];
                    let jr = xin.row_mut((1 + 2 * di) * rows + r);
                    jr[(in_dim + s) * ls + inst] = wd * cs;
                    jr[(in_dim + nf + s) * ls + inst] = -wd * sn;
                    let hr = xin.row_mut((2 + 2 * di) * rows + r);
                    hr[(in_dim + s) * ls + inst] = -wd * wd * sn;
                    hr[(in_dim + nf + s) * ls + inst] = -wd * wd * cs;
                }
            }
        }
    }

    /// Forward body for one batched chunk; mirrors the solo
    /// `forward_chunk_ws` operation for operation, with all bands of a
    /// layer fed through one fused GEMM.
    fn forward_chunk(
        &self,
        cw: &mut BatchedChunkWs,
        wtp: &[simd::PackedB],
        xs: &[&Matrix],
        diff_dims: &[usize],
    ) {
        let nd = diff_dims.len();
        let bands = 1 + 2 * nd;
        let BatchedChunkWs {
            r0,
            r1,
            layers: lws,
            out_v,
            out_j,
            out_h,
            ..
        } = cw;
        let (r0, r1) = (*r0, *r1);
        let rows = r1 - r0;
        {
            let l0 = &mut lws[0];
            let cols = l0.xin.cols();
            // Jacobian/hessian bands restart from zero every pass; the
            // value band is fully rewritten by the encoders (pad lanes
            // stay zero from allocation).
            l0.xin.as_mut_slice()[rows * cols..].fill(0.0);
            for (inst, x) in xs.iter().enumerate() {
                self.encode_lane(inst, x, r0, r1, diff_dims, &mut l0.xin);
            }
        }
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            let (cur, rest) = lws[li..].split_first_mut().expect("layer buffers");
            beta_zero(cur.zall.as_mut_slice());
            simd::bgemm_accum_packed(
                cur.xin.as_slice(),
                &wtp[li],
                cur.zall.as_mut_slice(),
                bands * rows,
            );
            // Bias lands on the value band only.
            for r in 0..rows {
                simd::add_assign(cur.zall.row_mut(r), &layer.b);
            }
            let zlen = rows * cur.zall.cols();
            if li != last {
                let nxt = &mut rest[0];
                eval3_batch(
                    self.cfg.activation,
                    &cur.zall.as_slice()[..zlen],
                    &mut nxt.xin.as_mut_slice()[..zlen],
                    &mut cur.s1,
                    &mut cur.s2,
                    &mut cur.s3,
                );
                for d in 0..nd {
                    let (jb, hb) = {
                        let tail = &mut nxt.xin.as_mut_slice()[(1 + 2 * d) * zlen..];
                        let (jb, tail) = tail.split_at_mut(zlen);
                        (jb, &mut tail[..zlen])
                    };
                    simd::act_fwd_jh(
                        &cur.s1,
                        &cur.s2,
                        &cur.zall.as_slice()[(1 + 2 * d) * zlen..(2 + 2 * d) * zlen],
                        &cur.zall.as_slice()[(2 + 2 * d) * zlen..(3 + 2 * d) * zlen],
                        jb,
                        hb,
                    );
                }
            } else {
                let zs = cur.zall.as_slice();
                out_v.as_mut_slice().copy_from_slice(&zs[..zlen]);
                for d in 0..nd {
                    out_j[d]
                        .as_mut_slice()
                        .copy_from_slice(&zs[(1 + 2 * d) * zlen..(2 + 2 * d) * zlen]);
                    out_h[d]
                        .as_mut_slice()
                        .copy_from_slice(&zs[(2 + 2 * d) * zlen..(3 + 2 * d) * zlen]);
                }
            }
        }
    }

    /// Derivative-carrying forward pass for all instances at once.
    /// `xs[i]` is instance `i`'s input batch (all the same shape).
    /// Outputs land interleaved in the workspace; read them per instance
    /// with [`BatchedWorkspace::extract_derivs`].
    ///
    /// # Panics
    /// Panics if the inputs or `diff_dims` disagree with the workspace
    /// shape or the instance count.
    pub fn forward_with_derivs_batched(
        &self,
        xs: &[&Matrix],
        diff_dims: &[usize],
        ws: &mut BatchedWorkspace,
    ) {
        assert_eq!(xs.len(), self.instances, "one input per instance");
        for x in xs {
            assert_eq!(x.cols(), self.cfg.input_dim, "input dim mismatch");
            assert_eq!(x.rows(), ws.batch, "workspace batch mismatch");
        }
        assert_eq!(diff_dims.len(), ws.nd, "workspace diff-dim mismatch");
        for &d in diff_dims {
            assert!(d < self.cfg.input_dim, "diff dim {d} out of range");
        }
        // Pack each layer's transposed weights once; every chunk (and
        // every band within it) then reuses the pack.
        for (li, layer) in self.layers.iter().enumerate() {
            let in_w = layer.w.cols() / self.lanes;
            let out_w = layer.w.rows();
            simd::bgemm_pack_b_t(self.lanes, layer.w.as_slice(), in_w, out_w, &mut ws.wtp[li]);
        }
        let BatchedWorkspace {
            chunks,
            wtp,
            dv,
            dj,
            dh,
            ..
        } = ws;
        let work = self.par_work(xs[0].rows(), diff_dims.len());
        match sgm_par::current().pool(work, MLP_PAR_WORK) {
            Some(pool) => pool.par_chunks_mut(chunks, 1, |_base, slice| {
                for cw in slice {
                    self.forward_chunk(cw, wtp, xs, diff_dims);
                }
            }),
            None => {
                for cw in chunks.iter_mut() {
                    self.forward_chunk(cw, wtp, xs, diff_dims);
                }
            }
        }
        for cw in chunks.iter() {
            scatter_rows(dv, cw.r0, &cw.out_v);
            for d in 0..diff_dims.len() {
                scatter_rows(&mut dj[d], cw.r0, &cw.out_j[d]);
                scatter_rows(&mut dh[d], cw.r0, &cw.out_h[d]);
            }
        }
    }

    /// Backward body for one batched chunk; mirrors the solo
    /// `backward_chunk_ws`, with one fused GEMM per layer for the
    /// weight gradient and one for the input-gradient propagation.
    fn backward_chunk(
        &self,
        cw: &mut BatchedChunkWs,
        wp: &[simd::PackedB],
        av: &Matrix,
        aj: &[Matrix],
        ah: &[Matrix],
    ) {
        let nd = aj.len();
        let bands = 1 + 2 * nd;
        let ls = self.lanes;
        let BatchedChunkWs {
            r0,
            r1,
            layers: lws,
            grads,
            ..
        } = cw;
        let (r0, r1) = (*r0, *r1);
        let rows = r1 - r0;
        grads.zero();
        {
            let top = lws.last_mut().expect("layer buffers");
            let cols = av.cols();
            let blen = rows * cols;
            let g = top.goutall.as_mut_slice();
            g[..blen].copy_from_slice(&av.as_slice()[r0 * cols..r1 * cols]);
            for d in 0..nd {
                g[(1 + 2 * d) * blen..(2 + 2 * d) * blen]
                    .copy_from_slice(&aj[d].as_slice()[r0 * cols..r1 * cols]);
                g[(2 + 2 * d) * blen..(3 + 2 * d) * blen]
                    .copy_from_slice(&ah[d].as_slice()[r0 * cols..r1 * cols]);
            }
        }
        for (li, layer) in self.layers.iter().enumerate().rev() {
            let (below, from_li) = lws.split_at_mut(li);
            let l = &mut from_li[0];
            let in_w = layer.w.cols() / ls;
            let out_w = layer.w.rows();
            let zlen = rows * out_w * ls;
            if l.activated {
                let (gz0, gtail) = l.gzall.as_mut_slice().split_at_mut(zlen);
                simd::hadamard(&l.goutall.as_slice()[..zlen], &l.s1, gz0);
                for (d, pair) in gtail.chunks_exact_mut(2 * zlen).enumerate() {
                    let (gzj, gzh) = pair.split_at_mut(zlen);
                    simd::act_bwd_accum(
                        &l.s1,
                        &l.s2,
                        &l.s3,
                        &l.zall.as_slice()[(1 + 2 * d) * zlen..(2 + 2 * d) * zlen],
                        &l.zall.as_slice()[(2 + 2 * d) * zlen..(3 + 2 * d) * zlen],
                        &l.goutall.as_slice()[(1 + 2 * d) * zlen..(2 + 2 * d) * zlen],
                        &l.goutall.as_slice()[(2 + 2 * d) * zlen..(3 + 2 * d) * zlen],
                        gz0,
                        gzj,
                        gzh,
                    );
                }
            } else {
                l.gzall.copy_from(&l.goutall);
            }
            // gW += gzᵀ a_in + Σ_d (gzjᵀ j_in + gzhᵀ h_in), fused: one
            // transposed-source GEMM whose ascending-k walk through the
            // bands reproduces the solo per-band accumulation order.
            simd::bgemm_accum_t(
                ls,
                l.gzall.as_slice(),
                l.xin.as_slice(),
                grads.w[li].as_mut_slice(),
                out_w,
                bands * rows,
                in_w,
            );
            // gb += column sums of the value band of gz, row-by-row in
            // ascending order.
            for r in 0..rows {
                simd::add_assign(&mut grads.b[li], l.gzall.row(r));
            }
            if li == 0 {
                break;
            }
            // Propagate to layer inputs: carry for the layer below.
            let prev = below.last_mut().expect("previous layer buffers");
            beta_zero(prev.goutall.as_mut_slice());
            simd::bgemm_accum_packed(
                l.gzall.as_slice(),
                &wp[li],
                prev.goutall.as_mut_slice(),
                bands * rows,
            );
        }
    }

    /// Backward pass over the caches left by
    /// [`BatchedMlp::forward_with_derivs_batched`], consuming the
    /// adjoints set via [`BatchedWorkspace::set_adjoints`] and
    /// **accumulating** interleaved parameter gradients into `out`.
    ///
    /// # Panics
    /// Panics if the workspace was never run forward.
    pub fn backward_batched(&self, ws: &mut BatchedWorkspace, out: &mut BatchedGradients) {
        let work = self.par_work(ws.batch, ws.nd);
        // Pack each layer's weights once for the input-gradient
        // products; every chunk reuses the packs.
        for (li, layer) in self.layers.iter().enumerate() {
            let in_w = layer.w.cols() / self.lanes;
            let out_w = layer.w.rows();
            simd::bgemm_pack_b(self.lanes, layer.w.as_slice(), out_w, in_w, &mut ws.wp[li]);
        }
        let BatchedWorkspace {
            chunks,
            av,
            aj,
            ah,
            wp,
            ..
        } = ws;
        match sgm_par::current().pool(work, MLP_PAR_WORK) {
            Some(pool) => pool.par_chunks_mut(chunks, 1, |_base, slice| {
                for cw in slice {
                    self.backward_chunk(cw, wp, av, aj, ah);
                }
            }),
            None => {
                for cw in chunks.iter_mut() {
                    self.backward_chunk(cw, wp, av, aj, ah);
                }
            }
        }
        for cw in chunks.iter() {
            out.add_assign(&cw.grads);
        }
    }
}

/// Adam state for all lanes of a [`BatchedMlp`], stepping every lane in
/// one fused [`sgm_linalg::simd::adam_update_multi`] sweep per parameter
/// slice. Hyper-parameters `β₁`, `β₂`, `ε` are shared across the group;
/// learning rate and schedule may differ per lane.
#[derive(Debug, Clone)]
pub struct BatchedAdam {
    lanes: usize,
    beta1: f64,
    beta2: f64,
    eps: f64,
    /// Per-lane base learning rate (pad lanes 0.0).
    lr: Vec<f64>,
    /// Per-lane schedule (pad lanes constant).
    schedule: Vec<LrSchedule>,
    /// Per-lane step counts (advanced in lockstep, but restorable
    /// individually so lanes may join at different iterations).
    t: Vec<usize>,
    m: Vec<f64>,
    v: Vec<f64>,
    scratch: Vec<f64>,
    bc1: Vec<f64>,
    bc2: Vec<f64>,
    lrs: Vec<f64>,
}

impl BatchedAdam {
    /// Fresh optimiser state for a packed group. `cfgs[i]` is instance
    /// `i`'s configuration; all must share `beta1`/`beta2`/`eps`.
    ///
    /// # Panics
    /// Panics on count mismatch or differing shared hyper-parameters.
    pub fn pack(net: &BatchedMlp, cfgs: &[AdamConfig]) -> Self {
        assert_eq!(cfgs.len(), net.instances(), "one AdamConfig per instance");
        let first = &cfgs[0];
        for c in cfgs {
            assert!(
                c.beta1 == first.beta1 && c.beta2 == first.beta2 && c.eps == first.eps,
                "batched Adam requires shared beta1/beta2/eps"
            );
        }
        let lanes = net.lanes();
        let n = net.num_params_per_instance() * lanes;
        let mut lr = vec![0.0; lanes];
        let mut schedule = vec![LrSchedule::Constant; lanes];
        for (l, c) in cfgs.iter().enumerate() {
            lr[l] = c.lr;
            schedule[l] = c.schedule;
        }
        BatchedAdam {
            lanes,
            beta1: first.beta1,
            beta2: first.beta2,
            eps: first.eps,
            lr,
            schedule,
            t: vec![0; lanes],
            m: vec![0.0; n],
            v: vec![0.0; n],
            scratch: vec![0.0; n],
            bc1: vec![0.0; lanes],
            bc2: vec![0.0; lanes],
            lrs: vec![0.0; lanes],
        }
    }

    /// Steps taken by one lane.
    pub fn lane_step_count(&self, lane: usize) -> usize {
        self.t[lane]
    }

    /// One lane's optimiser state (step count, deinterleaved moments) in
    /// solo flat order — feeds `RunState` capture directly.
    pub fn lane_state(&self, lane: usize) -> (usize, Vec<f64>, Vec<f64>) {
        assert!(lane < self.lanes, "lane out of range");
        let np = self.m.len() / self.lanes;
        let mut m = Vec::with_capacity(np);
        let mut v = Vec::with_capacity(np);
        for i in 0..np {
            m.push(self.m[i * self.lanes + lane]);
            v.push(self.v[i * self.lanes + lane]);
        }
        (self.t[lane], m, v)
    }

    /// Restores one lane from solo-order state (the counterpart of
    /// [`Adam::restore_state`](crate::optimizer::Adam::restore_state)).
    ///
    /// # Panics
    /// Panics on size mismatch.
    pub fn restore_lane(&mut self, lane: usize, t: usize, m: &[f64], v: &[f64]) {
        assert!(lane < self.lanes, "lane out of range");
        let np = self.m.len() / self.lanes;
        assert_eq!(m.len(), np, "first-moment size mismatch");
        assert_eq!(v.len(), np, "second-moment size mismatch");
        self.t[lane] = t;
        for i in 0..np {
            self.m[i * self.lanes + lane] = m[i];
            self.v[i * self.lanes + lane] = v[i];
        }
    }

    /// Applies one lockstep Adam update to every lane: per-element
    /// arithmetic, bias corrections and schedule evaluation match the
    /// solo [`Adam::step`](crate::optimizer::Adam::step) bit for bit per
    /// lane.
    ///
    /// # Panics
    /// Panics if shapes disagree with the packed network.
    pub fn step(&mut self, net: &mut BatchedMlp, grads: &BatchedGradients) {
        // Interleaved flat gradient in the same slice order the solo
        // optimiser walks.
        let mut off = 0;
        for (w, b) in grads.w.iter().zip(&grads.b) {
            let nw = w.rows() * w.cols();
            self.scratch[off..off + nw].copy_from_slice(w.as_slice());
            off += nw;
            self.scratch[off..off + b.len()].copy_from_slice(b);
            off += b.len();
        }
        assert_eq!(off, self.m.len(), "gradient size mismatch");
        for l in 0..self.lanes {
            self.t[l] += 1;
            self.bc1[l] = 1.0 - self.beta1.powi(self.t[l] as i32);
            self.bc2[l] = 1.0 - self.beta2.powi(self.t[l] as i32);
            self.lrs[l] = self.lr[l] * self.schedule[l].factor(self.t[l]);
        }
        let lanes = self.lanes;
        let (b1, b2, eps) = (self.beta1, self.beta2, self.eps);
        let (m, v, g) = (&mut self.m, &mut self.v, &self.scratch);
        let (bc1, bc2, lrs) = (&self.bc1, &self.bc2, &self.lrs);
        net.for_each_param_slice_mut(|off, p| {
            let end = off + p.len();
            simd::adam_update_multi(
                lanes,
                p,
                &g[off..end],
                &mut m[off..end],
                &mut v[off..end],
                b1,
                b2,
                bc1,
                bc2,
                lrs,
                eps,
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::mlp::FourierConfig;
    use crate::optimizer::Adam;
    use sgm_linalg::rng::Rng64;

    fn cfg(fourier: bool) -> MlpConfig {
        MlpConfig {
            input_dim: 2,
            output_dim: 3,
            hidden_width: 10,
            hidden_layers: 3,
            activation: Activation::SiLu,
            fourier: if fourier {
                Some(FourierConfig {
                    num_features: 4,
                    sigma: 0.7,
                })
            } else {
                None
            },
        }
    }

    fn nets(fourier: bool, n: usize) -> Vec<Mlp> {
        let c = cfg(fourier);
        (0..n)
            .map(|i| Mlp::new(&c, &mut Rng64::new(100 + i as u64)))
            .collect()
    }

    fn inputs(n: usize, batch: usize) -> Vec<Matrix> {
        let mut rng = Rng64::new(7);
        (0..n)
            .map(|_| Matrix::gaussian(batch, 2, &mut rng))
            .collect()
    }

    /// Adjoints from a composite loss touching values, jac and hess —
    /// different per element so the backward pass is fully exercised.
    fn adjoints_of(full: &BatchDerivatives) -> BatchDerivatives {
        let mut adj = BatchDerivatives::zeros_like(full);
        let n = full.values.as_slice().len();
        for i in 0..n {
            adj.values.as_mut_slice()[i] = 2.0 * full.values.as_slice()[i];
            adj.jac[0].as_mut_slice()[i] = 2.0 * full.jac[1].as_slice()[i];
            adj.jac[1].as_mut_slice()[i] = 2.0 * full.jac[0].as_slice()[i];
            adj.hess[0].as_mut_slice()[i] = 2.0 * full.hess[0].as_slice()[i];
            adj.hess[1].as_mut_slice()[i] = 0.5;
        }
        adj
    }

    /// Batched forward outputs and backward gradients are bit-identical
    /// per instance to solo workspace runs, on every available tier and
    /// across parallelism settings, with and without Fourier encoding,
    /// across repeated workspace reuse.
    #[test]
    fn batched_matches_solo_bitwise() {
        use sgm_par::Parallelism;
        for &tier in sgm_linalg::simd::available_tiers() {
            sgm_linalg::simd::with_tier(tier, || {
                for fourier in [false, true] {
                    let solo_nets = nets(fourier, 3);
                    let refs: Vec<&Mlp> = solo_nets.iter().collect();
                    let packed = BatchedMlp::pack(&refs);
                    assert_eq!(packed.lanes(), 8);
                    let batch = 37; // multi-chunk: (0,16),(16,32),(32,37)
                    let xs = inputs(3, batch);
                    for p in [Parallelism::Serial, Parallelism::Threads(2)] {
                        sgm_par::with_parallelism(p, || {
                            let mut bws = packed.make_workspace(batch, 2);
                            let mut bg = packed.zero_gradients();
                            let mut derivs = BatchDerivatives::zeros(batch, 3, 2);
                            for _round in 0..2 {
                                let xrefs: Vec<&Matrix> = xs.iter().collect();
                                packed.forward_with_derivs_batched(&xrefs, &[0, 1], &mut bws);
                                // Solo references + adjoint interleave.
                                let mut solo_grads = Vec::new();
                                for (i, net) in solo_nets.iter().enumerate() {
                                    let mut ws = net.make_workspace(batch, 2);
                                    net.forward_with_derivs_ws(&xs[i], &[0, 1], &mut ws);
                                    bws.extract_derivs(i, &mut derivs);
                                    let sd = ws.derivs();
                                    for (a, b) in
                                        sd.values.as_slice().iter().zip(derivs.values.as_slice())
                                    {
                                        assert_eq!(a.to_bits(), b.to_bits(), "{tier:?} values");
                                    }
                                    for d in 0..2 {
                                        for (a, b) in sd.jac[d]
                                            .as_slice()
                                            .iter()
                                            .zip(derivs.jac[d].as_slice())
                                        {
                                            assert_eq!(a.to_bits(), b.to_bits(), "{tier:?} jac");
                                        }
                                        for (a, b) in sd.hess[d]
                                            .as_slice()
                                            .iter()
                                            .zip(derivs.hess[d].as_slice())
                                        {
                                            assert_eq!(a.to_bits(), b.to_bits(), "{tier:?} hess");
                                        }
                                    }
                                    let adj = adjoints_of(sd);
                                    bws.set_adjoints(i, &adj);
                                    let mut g = net.zero_gradients();
                                    net.backward_ws(&mut ws, &adj, &mut g);
                                    solo_grads.push(g);
                                }
                                bg.zero();
                                packed.backward_batched(&mut bws, &mut bg);
                                let mut got = solo_nets[0].zero_gradients();
                                for (i, sg) in solo_grads.iter().enumerate() {
                                    bg.extract_to(i, &mut got);
                                    for (a, b) in sg.flat().iter().zip(&got.flat()) {
                                        assert_eq!(
                                            a.to_bits(),
                                            b.to_bits(),
                                            "{tier:?} {p:?} fourier={fourier} grads"
                                        );
                                    }
                                }
                            }
                        });
                    }
                }
            });
        }
    }

    /// Lockstep batched Adam trajectories are bit-identical per instance
    /// to solo Adam, including per-lane schedules and bias corrections.
    #[test]
    fn batched_adam_matches_solo_bitwise() {
        for &tier in sgm_linalg::simd::available_tiers() {
            sgm_linalg::simd::with_tier(tier, || {
                let mut solo_nets = nets(false, 3);
                let refs: Vec<&Mlp> = solo_nets.iter().collect();
                let mut packed = BatchedMlp::pack(&refs);
                let cfgs = vec![
                    AdamConfig {
                        lr: 1e-2,
                        schedule: LrSchedule::Constant,
                        ..AdamConfig::default()
                    },
                    AdamConfig {
                        lr: 3e-3,
                        schedule: LrSchedule::Exponential {
                            gamma: 0.9,
                            decay_steps: 2,
                        },
                        ..AdamConfig::default()
                    },
                    AdamConfig {
                        lr: 5e-4,
                        schedule: LrSchedule::Constant,
                        ..AdamConfig::default()
                    },
                ];
                let mut badam = BatchedAdam::pack(&packed, &cfgs);
                let mut solo_adams: Vec<Adam> = solo_nets
                    .iter()
                    .zip(&cfgs)
                    .map(|(n, c)| Adam::new(n, c.clone()))
                    .collect();
                let batch = 19;
                let xs = inputs(3, batch);
                let mut bws = packed.make_workspace(batch, 2);
                let mut bg = packed.zero_gradients();
                let mut derivs = BatchDerivatives::zeros(batch, 3, 2);
                for _step in 0..5 {
                    let xrefs: Vec<&Matrix> = xs.iter().collect();
                    packed.forward_with_derivs_batched(&xrefs, &[0, 1], &mut bws);
                    for i in 0..3 {
                        bws.extract_derivs(i, &mut derivs);
                        let adj = adjoints_of(&derivs);
                        bws.set_adjoints(i, &adj);
                    }
                    bg.zero();
                    packed.backward_batched(&mut bws, &mut bg);
                    badam.step(&mut packed, &bg);
                    // Solo twins using the batched gradients (gradient
                    // equality is covered by the other test; this one
                    // isolates the optimiser).
                    for (i, (net, adam)) in solo_nets.iter_mut().zip(&mut solo_adams).enumerate() {
                        let mut g = net.zero_gradients();
                        bg.extract_to(i, &mut g);
                        adam.step(net, &g);
                    }
                }
                for (i, (net, adam)) in solo_nets.iter().zip(&solo_adams).enumerate() {
                    let mut got = net.clone();
                    packed.extract_to(i, &mut got);
                    for (a, b) in net.params().iter().zip(&got.params()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{tier:?} lane {i} params");
                    }
                    let (t, m, v) = badam.lane_state(i);
                    let (st, sm, sv) = adam.state();
                    assert_eq!(t, st, "lane {i} step count");
                    for (a, b) in sm.iter().zip(&m) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{tier:?} lane {i} m");
                    }
                    for (a, b) in sv.iter().zip(&v) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{tier:?} lane {i} v");
                    }
                }
            });
        }
    }

    /// pack → extract_to round-trips parameters exactly; sync_from
    /// overwrites a lane in place; Adam lane state round-trips.
    #[test]
    fn pack_extract_roundtrip() {
        let solo = nets(true, 5);
        let refs: Vec<&Mlp> = solo.iter().collect();
        let mut packed = BatchedMlp::pack(&refs);
        assert_eq!(packed.instances(), 5);
        assert_eq!(packed.lanes(), 8);
        assert_eq!(packed.num_params_per_instance(), solo[0].num_params());
        for (i, net) in solo.iter().enumerate() {
            let mut got = net.clone();
            packed.extract_to(i, &mut got);
            assert_eq!(got.params(), net.params());
        }
        // Overwrite lane 2 with a different net and read it back.
        let others = nets(true, 1);
        let other = &others[0];
        packed.sync_from(2, other);
        let mut got = other.clone();
        packed.extract_to(2, &mut got);
        assert_eq!(got.params(), other.params());
        // Adam lane restore round-trip.
        let cfgs = vec![AdamConfig::default(); 5];
        let mut badam = BatchedAdam::pack(&packed, &cfgs);
        let np = solo[0].num_params();
        let m: Vec<f64> = (0..np).map(|i| i as f64 * 0.5).collect();
        let v: Vec<f64> = (0..np).map(|i| i as f64 * 0.25).collect();
        badam.restore_lane(3, 17, &m, &v);
        let (t, gm, gv) = badam.lane_state(3);
        assert_eq!(t, 17);
        assert_eq!(gm, m);
        assert_eq!(gv, v);
        assert_eq!(badam.lane_step_count(3), 17);
    }

    #[test]
    #[should_panic(expected = "identical architectures")]
    fn pack_rejects_mixed_architectures() {
        let a = nets(false, 1);
        let b = nets(true, 1);
        let _ = BatchedMlp::pack(&[&a[0], &b[0]]);
    }

    #[test]
    #[should_panic(expected = "shared beta1/beta2/eps")]
    fn batched_adam_rejects_mixed_betas() {
        let solo = nets(false, 2);
        let refs: Vec<&Mlp> = solo.iter().collect();
        let packed = BatchedMlp::pack(&refs);
        let cfgs = vec![
            AdamConfig::default(),
            AdamConfig {
                beta1: 0.8,
                ..AdamConfig::default()
            },
        ];
        let _ = BatchedAdam::pack(&packed, &cfgs);
    }
}
