//! Transformer building blocks — the paper's §5 "future applicability"
//! direction: newer NPUs' INT8/FP16 support opens SoCFlow to training
//! "relatively larger DNNs, including Transformers, on SoC-Cluster".
//!
//! This module provides a compact ViT-style stack with full hand-written
//! backward passes: [`PatchEmbed`] (image → token sequence), [`LayerNorm`],
//! [`Gelu`], [`SelfAttention`] (multi-head, scaled dot-product),
//! [`TokenFeedForward`] and [`MeanPoolTokens`]. Sequences are rank-3
//! `(batch, tokens, dim)` tensors.
//!
//! All blocks honour [`crate::Precision::Quant`] by fake-quantizing weights
//! and inputs exactly like the CNN layers, so the mixed-precision experiments
//! extend to Transformers unchanged; like them, every block borrows what a
//! pass makes from the step scratch ([`socflow_tensor::pool`]).

use crate::layer::{Layer, Mode, Parameter};
use crate::layers::{accumulate_grad, mapped, product, staged};
use rand::Rng;
use socflow_tensor::{init, linalg, pool, Shape, Tensor};

fn as_btd(t: &Tensor) -> (usize, usize, usize) {
    let d = t.shape().dims();
    assert_eq!(
        d.len(),
        3,
        "expected (batch, tokens, dim), got {}",
        t.shape()
    );
    (d[0], d[1], d[2])
}

/// Copies head columns `col..col+dh` of a `(t, d)` sample into a dense
/// `(t, dh)` buffer.
fn gather_head(src: &[f32], dst: &mut [f32], t: usize, d: usize, col: usize, dh: usize) {
    for r in 0..t {
        dst[r * dh..(r + 1) * dh].copy_from_slice(&src[r * d + col..r * d + col + dh]);
    }
}

/// Inverse of [`gather_head`]: writes a dense `(t, dh)` head back into its
/// column band of a `(t, d)` sample.
fn scatter_head(dst: &mut [f32], src: &[f32], t: usize, d: usize, col: usize, dh: usize) {
    for r in 0..t {
        dst[r * d + col..r * d + col + dh].copy_from_slice(&src[r * dh..(r + 1) * dh]);
    }
}

/// Accumulates a flat `(rows, cols)` slice into a length-`cols` accumulator
/// (same row-ascending order as `Tensor::sum_rows`).
fn sum_rows_slice(src: &[f32], acc: &mut [f32], rows: usize, cols: usize) {
    for r in 0..rows {
        for (c, o) in acc.iter_mut().enumerate() {
            *o += src[r * cols + c];
        }
    }
}

/// Splits square images into non-overlapping patches and linearly embeds
/// each: `(n, c, h, w) → (n, (h/p)·(w/p), dim)`.
#[derive(Debug, Clone)]
pub struct PatchEmbed {
    weight: Parameter,
    bias: Parameter,
    patch: usize,
    in_features: usize,
    dim: usize,
    cached_patches: Option<Tensor>, // (n·t, c·p·p)
    cached_shape: Option<Shape>,
}

impl PatchEmbed {
    /// Creates a patch embedding.
    ///
    /// # Panics
    /// Panics if `patch == 0`.
    pub fn new(channels: usize, patch: usize, dim: usize, rng: &mut impl Rng) -> Self {
        assert!(patch > 0, "patch size must be positive");
        let in_features = channels * patch * patch;
        PatchEmbed {
            weight: Parameter::new(init::xavier_uniform(
                [in_features, dim],
                in_features,
                dim,
                rng,
            )),
            bias: Parameter::new(Tensor::zeros([dim])),
            patch,
            in_features,
            dim,
            cached_patches: None,
            cached_shape: None,
        }
    }

    /// The `(n·t, c·p·p)` patch matrix of `x`, in a step-scratch tensor,
    /// and `t`.
    fn patchify(&self, x: &Tensor) -> (Tensor, usize) {
        let (n, c, h, w) = x.shape().as_nchw();
        assert_eq!(h % self.patch, 0, "input height not divisible by patch");
        assert_eq!(w % self.patch, 0, "input width not divisible by patch");
        let ph = h / self.patch;
        let pw = w / self.patch;
        let t = ph * pw;
        let f = self.in_features;
        let mut out = pool::tensor([n * t, f]);
        let od = out.data_mut();
        let xd = x.data();
        for ni in 0..n {
            for py in 0..ph {
                for px in 0..pw {
                    let row = ((ni * ph + py) * pw + px) * f;
                    for ci in 0..c {
                        for dy in 0..self.patch {
                            let iy = py * self.patch + dy;
                            for dx in 0..self.patch {
                                let ix = px * self.patch + dx;
                                od[row + (ci * self.patch + dy) * self.patch + dx] =
                                    xd[((ni * c + ci) * h + iy) * w + ix];
                            }
                        }
                    }
                }
            }
        }
        (out, t)
    }
}

impl Layer for PatchEmbed {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let (n, _, _, _) = input.shape().as_nchw();
        let (raw, t) = self.patchify(input);
        let [pq, wq] = staged(mode.precision, [&raw, &self.weight.value]);
        let patches = match pq {
            Some(pq) => {
                pool::recycle(raw);
                pq
            }
            None => raw,
        };
        let w = wq.as_ref().unwrap_or(&self.weight.value);
        let mut y = pool::tensor([n * t, self.dim]);
        linalg::matmul_slices(
            patches.data(),
            w.data(),
            y.data_mut(),
            n * t,
            self.in_features,
            self.dim,
        );
        y.add_row_broadcast_inplace(&self.bias.value);
        if mode.train {
            self.release();
            self.cached_patches = Some(patches);
            self.cached_shape = Some(input.shape().clone());
        } else {
            pool::recycle(patches);
        }
        pool::recycle_all(wq);
        y.reshape([n, t, self.dim])
    }

    fn backward(&mut self, grad_out: &Tensor, mode: Mode, want_gx: bool) -> Option<Tensor> {
        let (n, t, d) = as_btd(grad_out);
        let patches = self
            .cached_patches
            .take()
            .expect("PatchEmbed::backward without training forward");
        let rows = n * t;
        let mut gw = pool::tensor([self.in_features, d]);
        linalg::matmul_at_b_slices(
            patches.data(),
            grad_out.data(),
            gw.data_mut(),
            self.in_features,
            rows,
            d,
        );
        pool::recycle(patches);
        let mut gb = pool::zeroed([d]);
        sum_rows_slice(grad_out.data(), gb.data_mut(), rows, d);
        accumulate_grad(&mut self.weight, gw, mode.precision, 0xBEEF);
        accumulate_grad(&mut self.bias, gb, mode.precision, 0xFEED);
        // image gradient unused by the classifier stack (patches are leaves)
        let shape = self.cached_shape.clone().expect("cached input shape");
        want_gx.then(|| pool::zeroed(shape))
    }

    fn release(&mut self) {
        pool::recycle_all(self.cached_patches.take());
    }

    fn visit_parameters<'a>(&'a self, visit: &mut dyn FnMut(&'a Parameter)) {
        visit(&self.weight);
        visit(&self.bias);
    }

    fn visit_parameters_mut<'a>(&'a mut self, visit: &mut dyn FnMut(&'a mut Parameter)) {
        visit(&mut self.weight);
        visit(&mut self.bias);
    }

    fn describe(&self) -> String {
        format!(
            "patch_embed(p{}, {}→{})",
            self.patch, self.in_features, self.dim
        )
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Layer normalization over the last dimension of a `(b, t, d)` sequence.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Parameter,
    beta: Parameter,
    dim: usize,
    eps: f32,
    cached: Option<(Tensor, Vec<f32>)>, // (xhat, inv_std per row)
}

impl LayerNorm {
    /// Creates a layer norm for feature size `dim`.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Parameter::new(Tensor::ones([dim])),
            beta: Parameter::new(Tensor::zeros([dim])),
            dim,
            eps: 1e-5,
            cached: None,
        }
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let d = *input.shape().dims().last().expect("rank >= 1");
        assert_eq!(d, self.dim, "LayerNorm dim mismatch");
        let rows = input.len() / d;
        let xd = input.data();
        let mut out_t = pool::tensor(input.shape().clone());
        let mut xhat_t = pool::tensor(input.shape().clone());
        let mut inv_stds = pool::take::<f32>(rows);
        let (out, xhat) = (out_t.data_mut(), xhat_t.data_mut());
        for r in 0..rows {
            let row = &xd[r * d..(r + 1) * d];
            let mean: f32 = row.iter().sum::<f32>() / d as f32;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / d as f32;
            let inv = 1.0 / (var + self.eps).sqrt();
            inv_stds[r] = inv;
            for i in 0..d {
                let h = (row[i] - mean) * inv;
                xhat[r * d + i] = h;
                out[r * d + i] = self.gamma.value.data()[i] * h + self.beta.value.data()[i];
            }
        }
        if mode.train {
            self.release();
            self.cached = Some((xhat_t, inv_stds));
        } else {
            pool::recycle(xhat_t);
            pool::give(inv_stds);
        }
        out_t
    }

    fn backward(&mut self, grad_out: &Tensor, _mode: Mode, want_gx: bool) -> Option<Tensor> {
        let (xhat, inv_stds) = self
            .cached
            .take()
            .expect("LayerNorm::backward without training forward");
        let d = self.dim;
        let rows = grad_out.len() / d;
        let gd = grad_out.data();
        let xh = xhat.data();
        let mut gx_t = want_gx.then(|| pool::tensor(grad_out.shape().clone()));
        let mut gx = gx_t.as_mut().map(Tensor::data_mut);
        for r in 0..rows {
            let mut sum_g = 0.0f32;
            let mut sum_gx = 0.0f32;
            for i in 0..d {
                let gy = gd[r * d + i] * self.gamma.value.data()[i];
                sum_g += gy;
                sum_gx += gy * xh[r * d + i];
            }
            for i in 0..d {
                let gy = gd[r * d + i] * self.gamma.value.data()[i];
                if let Some(gx) = gx.as_deref_mut() {
                    gx[r * d + i] =
                        inv_stds[r] / d as f32 * (d as f32 * gy - sum_g - xh[r * d + i] * sum_gx);
                }
                self.gamma.grad.data_mut()[i] += gd[r * d + i] * xh[r * d + i];
                self.beta.grad.data_mut()[i] += gd[r * d + i];
            }
        }
        pool::recycle(xhat);
        pool::give(inv_stds);
        gx_t
    }

    fn release(&mut self) {
        if let Some((xhat, inv_stds)) = self.cached.take() {
            pool::recycle(xhat);
            pool::give(inv_stds);
        }
    }

    fn visit_parameters<'a>(&'a self, visit: &mut dyn FnMut(&'a Parameter)) {
        visit(&self.gamma);
        visit(&self.beta);
    }

    fn visit_parameters_mut<'a>(&'a mut self, visit: &mut dyn FnMut(&'a mut Parameter)) {
        visit(&mut self.gamma);
        visit(&mut self.beta);
    }

    fn describe(&self) -> String {
        format!("layernorm({})", self.dim)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// GELU activation (tanh approximation).
#[derive(Debug, Clone, Default)]
pub struct Gelu {
    cached_input: Option<Tensor>,
}

impl Gelu {
    /// Creates a GELU activation.
    pub fn new() -> Self {
        Gelu { cached_input: None }
    }

    fn value(v: f32) -> f32 {
        const C: f32 = 0.797_884_6; // sqrt(2/π)
        0.5 * v * (1.0 + (C * (v + 0.044715 * v * v * v)).tanh())
    }

    fn derivative(v: f32) -> f32 {
        const C: f32 = 0.797_884_6;
        let inner = C * (v + 0.044715 * v * v * v);
        let t = inner.tanh();
        let sech2 = 1.0 - t * t;
        0.5 * (1.0 + t) + 0.5 * v * sech2 * C * (1.0 + 3.0 * 0.044715 * v * v)
    }
}

impl Layer for Gelu {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if mode.train {
            self.release();
            self.cached_input = Some(pool::copy_of(input));
        }
        mapped(input, Self::value)
    }

    fn backward(&mut self, grad_out: &Tensor, _mode: Mode, want_gx: bool) -> Option<Tensor> {
        let x = self
            .cached_input
            .take()
            .expect("Gelu::backward without training forward");
        let gx = want_gx.then(|| {
            let deriv = mapped(&x, Self::derivative);
            let gx = product(grad_out, &deriv);
            pool::recycle(deriv);
            gx
        });
        pool::recycle(x);
        gx
    }

    fn release(&mut self) {
        pool::recycle_all(self.cached_input.take());
    }

    fn describe(&self) -> String {
        "gelu".to_string()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Multi-head scaled-dot-product self-attention over `(b, t, d)` sequences,
/// with residual connection built in: `y = x + Attn(x)·Wo`.
#[derive(Debug, Clone)]
pub struct SelfAttention {
    wq: Parameter,
    wk: Parameter,
    wv: Parameter,
    wo: Parameter,
    dim: usize,
    heads: usize,
    cache: Option<AttnCache>,
}

#[derive(Debug, Clone)]
struct AttnCache {
    x: Tensor, // (b, t, d) input (possibly fake-quantized)
    q: Tensor, // (b, t, d)
    k: Tensor,
    v: Tensor,
    attn: Tensor,   // (b, heads, t, t) softmax weights
    concat: Tensor, // (b, t, d) pre-Wo
}

impl AttnCache {
    fn release(self) {
        pool::recycle_all([self.x, self.q, self.k, self.v, self.attn, self.concat]);
    }
}

impl SelfAttention {
    /// Creates an attention block.
    ///
    /// # Panics
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new(dim: usize, heads: usize, rng: &mut impl Rng) -> Self {
        assert!(
            heads > 0 && dim.is_multiple_of(heads),
            "dim must divide by heads"
        );
        let w = |rng: &mut _| Parameter::new(init::xavier_uniform([dim, dim], dim, dim, rng));
        SelfAttention {
            wq: w(rng),
            wk: w(rng),
            wv: w(rng),
            wo: w(rng),
            dim,
            heads,
            cache: None,
        }
    }
}

impl Layer for SelfAttention {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let (b, t, d) = as_btd(input);
        assert_eq!(d, self.dim, "SelfAttention dim mismatch");
        // Fp32 borrows the operands directly; the quantized path stages the
        // fused quantize→dequantize results.
        let operands = [
            input,
            &self.wq.value,
            &self.wk.value,
            &self.wv.value,
            &self.wo.value,
        ];
        let [xq, wqb, wkb, wvb, wob] = staged(mode.precision, operands);
        let x = xq.as_ref().unwrap_or(input);
        let wq = wqb.as_ref().unwrap_or(&self.wq.value);
        let wk = wkb.as_ref().unwrap_or(&self.wk.value);
        let wv = wvb.as_ref().unwrap_or(&self.wv.value);
        let wo = wob.as_ref().unwrap_or(&self.wo.value);
        let dh = d / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let bt = b * t;

        let mut q = pool::tensor([b, t, d]);
        let mut k = pool::tensor([b, t, d]);
        let mut v = pool::tensor([b, t, d]);
        linalg::matmul_slices(x.data(), wq.data(), q.data_mut(), bt, d, d);
        linalg::matmul_slices(x.data(), wk.data(), k.data_mut(), bt, d, d);
        linalg::matmul_slices(x.data(), wv.data(), v.data_mut(), bt, d, d);

        let mut attn = pool::tensor([b, self.heads, t, t]);
        let mut concat = pool::tensor([b, t, d]);
        let mut qh = pool::tensor([t, dh]);
        let mut kh = pool::tensor([t, dh]);
        let mut vh = pool::tensor([t, dh]);
        let mut yh = pool::tensor([t, dh]);
        for bi in 0..b {
            let s0 = bi * t * d;
            for h in 0..self.heads {
                let col = h * dh;
                gather_head(&q.data()[s0..s0 + t * d], qh.data_mut(), t, d, col, dh);
                gather_head(&k.data()[s0..s0 + t * d], kh.data_mut(), t, d, col, dh);
                gather_head(&v.data()[s0..s0 + t * d], vh.data_mut(), t, d, col, dh);
                // scores → softmax computed directly in the attn storage
                let base = ((bi * self.heads) + h) * t * t;
                let scores = &mut attn.data_mut()[base..base + t * t];
                linalg::matmul_a_bt_slices(qh.data(), kh.data(), scores, t, dh, t);
                for s in scores.iter_mut() {
                    *s *= scale;
                }
                crate::loss::softmax_rows_inplace(scores, t, t);
                linalg::matmul_slices(
                    &attn.data()[base..base + t * t],
                    vh.data(),
                    yh.data_mut(),
                    t,
                    t,
                    dh,
                );
                scatter_head(
                    &mut concat.data_mut()[s0..s0 + t * d],
                    yh.data(),
                    t,
                    d,
                    col,
                    dh,
                );
            }
        }
        // y = input + concat·Wo (residual)
        let mut proj = pool::tensor([bt, d]);
        linalg::matmul_slices(concat.data(), wo.data(), proj.data_mut(), bt, d, d);
        let mut y = pool::copy_of(input);
        for (o, &p) in y.data_mut().iter_mut().zip(proj.data()) {
            *o += p;
        }
        pool::recycle_all([proj, qh, kh, vh, yh]);
        if mode.train {
            let x = pool::copy_of(x);
            self.release();
            self.cache = Some(AttnCache {
                x,
                q,
                k,
                v,
                attn,
                concat,
            });
        } else {
            pool::recycle_all([q, k, v, attn, concat]);
        }
        pool::recycle_all([xq, wqb, wkb, wvb, wob].into_iter().flatten());
        y
    }

    fn backward(&mut self, grad_out: &Tensor, mode: Mode, want_gx: bool) -> Option<Tensor> {
        let cache = self
            .cache
            .take()
            .expect("SelfAttention::backward without training forward");
        let (b, t, d) = as_btd(grad_out);
        let dh = d / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let bt = b * t;

        // y = x + concat·Wo  →  d_concat = g·Woᵀ ; dWo = concatᵀ·g ; dx += g
        let mut gwo = pool::tensor([d, d]);
        linalg::matmul_at_b_slices(
            cache.concat.data(),
            grad_out.data(),
            gwo.data_mut(),
            d,
            bt,
            d,
        );
        let mut gconcat = pool::tensor([b, t, d]);
        linalg::matmul_a_bt_slices(
            grad_out.data(),
            self.wo.value.data(),
            gconcat.data_mut(),
            bt,
            d,
            d,
        );

        let mut gq = pool::tensor([b, t, d]);
        let mut gk = pool::tensor([b, t, d]);
        let mut gv = pool::tensor([b, t, d]);
        let mut qh = pool::tensor([t, dh]);
        let mut kh = pool::tensor([t, dh]);
        let mut vh = pool::tensor([t, dh]);
        let mut gyh = pool::tensor([t, dh]);
        let mut gvh = pool::tensor([t, dh]);
        let mut gqh = pool::tensor([t, dh]);
        let mut gkh = pool::tensor([t, dh]);
        let mut ga = pool::tensor([t, t]);
        let mut gs = pool::tensor([t, t]);
        for bi in 0..b {
            let s0 = bi * t * d;
            for h in 0..self.heads {
                let col = h * dh;
                gather_head(
                    &gconcat.data()[s0..s0 + t * d],
                    gyh.data_mut(),
                    t,
                    d,
                    col,
                    dh,
                );
                gather_head(
                    &cache.q.data()[s0..s0 + t * d],
                    qh.data_mut(),
                    t,
                    d,
                    col,
                    dh,
                );
                gather_head(
                    &cache.k.data()[s0..s0 + t * d],
                    kh.data_mut(),
                    t,
                    d,
                    col,
                    dh,
                );
                gather_head(
                    &cache.v.data()[s0..s0 + t * d],
                    vh.data_mut(),
                    t,
                    d,
                    col,
                    dh,
                );
                let base = ((bi * self.heads) + h) * t * t;
                let a = &cache.attn.data()[base..base + t * t];
                // dV = Aᵀ·gY ; dA = gY·Vᵀ
                linalg::matmul_at_b_slices(a, gyh.data(), gvh.data_mut(), t, t, dh);
                linalg::matmul_a_bt_slices(gyh.data(), vh.data(), ga.data_mut(), t, dh, t);
                // softmax backward per row: dS = A ⊙ (dA − rowdot(dA, A)) · scale
                let gsd = gs.data_mut();
                for r in 0..t {
                    let arow = &a[r * t..(r + 1) * t];
                    let garow = &ga.data()[r * t..(r + 1) * t];
                    let dot: f32 = arow.iter().zip(garow).map(|(x, y)| x * y).sum();
                    for c in 0..t {
                        gsd[r * t + c] = arow[c] * (garow[c] - dot) * scale;
                    }
                }
                // dQ = dS·K ; dK = dSᵀ·Q
                linalg::matmul_slices(gs.data(), kh.data(), gqh.data_mut(), t, t, dh);
                linalg::matmul_at_b_slices(gs.data(), qh.data(), gkh.data_mut(), t, t, dh);
                scatter_head(
                    &mut gq.data_mut()[s0..s0 + t * d],
                    gqh.data(),
                    t,
                    d,
                    col,
                    dh,
                );
                scatter_head(
                    &mut gk.data_mut()[s0..s0 + t * d],
                    gkh.data(),
                    t,
                    d,
                    col,
                    dh,
                );
                scatter_head(
                    &mut gv.data_mut()[s0..s0 + t * d],
                    gvh.data(),
                    t,
                    d,
                    col,
                    dh,
                );
            }
        }

        // projections: P = X·W → dW = Xᵀ·dP ; dX += dP·Wᵀ
        let mut gwq = pool::tensor([d, d]);
        let mut gwk = pool::tensor([d, d]);
        let mut gwv = pool::tensor([d, d]);
        linalg::matmul_at_b_slices(cache.x.data(), gq.data(), gwq.data_mut(), d, bt, d);
        linalg::matmul_at_b_slices(cache.x.data(), gk.data(), gwk.data_mut(), d, bt, d);
        linalg::matmul_at_b_slices(cache.x.data(), gv.data(), gwv.data_mut(), d, bt, d);
        let gx = want_gx.then(|| {
            let mut gx = pool::tensor([b, t, d]);
            linalg::matmul_a_bt_slices(gq.data(), self.wq.value.data(), gx.data_mut(), bt, d, d);
            let mut tmp = pool::tensor([bt, d]);
            for (g, w) in [(&gk, &self.wk), (&gv, &self.wv)] {
                linalg::matmul_a_bt_slices(g.data(), w.value.data(), tmp.data_mut(), bt, d, d);
                for (o, &v_) in gx.data_mut().iter_mut().zip(tmp.data()) {
                    *o += v_;
                }
            }
            pool::recycle(tmp);
            for (o, &g) in gx.data_mut().iter_mut().zip(grad_out.data()) {
                *o += g; // residual path
            }
            gx
        });

        accumulate_grad(&mut self.wq, gwq, mode.precision, 0x0071);
        accumulate_grad(&mut self.wk, gwk, mode.precision, 0x0072);
        accumulate_grad(&mut self.wv, gwv, mode.precision, 0x0073);
        accumulate_grad(&mut self.wo, gwo, mode.precision, 0x0074);
        pool::recycle_all([gconcat, gq, gk, gv, qh, kh, vh, gyh, gvh, gqh, gkh, ga, gs]);
        cache.release();
        gx
    }

    fn release(&mut self) {
        if let Some(cache) = self.cache.take() {
            cache.release();
        }
    }

    fn visit_parameters<'a>(&'a self, visit: &mut dyn FnMut(&'a Parameter)) {
        visit(&self.wq);
        visit(&self.wk);
        visit(&self.wv);
        visit(&self.wo);
    }

    fn visit_parameters_mut<'a>(&'a mut self, visit: &mut dyn FnMut(&'a mut Parameter)) {
        visit(&mut self.wq);
        visit(&mut self.wk);
        visit(&mut self.wv);
        visit(&mut self.wo);
    }

    fn describe(&self) -> String {
        format!("self_attention(d{}, {}h)", self.dim, self.heads)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Position-wise feed-forward with residual: `y = x + W2·gelu(W1·x)`,
/// applied per token.
#[derive(Debug, Clone)]
pub struct TokenFeedForward {
    w1: Parameter,
    b1: Parameter,
    w2: Parameter,
    b2: Parameter,
    dim: usize,
    hidden: usize,
    cache: Option<[Tensor; 3]>, // x flat, pre-gelu, post-gelu
}

impl TokenFeedForward {
    /// Creates a feed-forward block with the given hidden width.
    pub fn new(dim: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        TokenFeedForward {
            w1: Parameter::new(init::xavier_uniform([dim, hidden], dim, hidden, rng)),
            b1: Parameter::new(Tensor::zeros([hidden])),
            w2: Parameter::new(init::xavier_uniform([hidden, dim], hidden, dim, rng)),
            b2: Parameter::new(Tensor::zeros([dim])),
            dim,
            hidden,
            cache: None,
        }
    }
}

impl Layer for TokenFeedForward {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let (b, t, d) = as_btd(input);
        assert_eq!(d, self.dim, "TokenFeedForward dim mismatch");
        let [xq, w1b, w2b] = staged(mode.precision, [input, &self.w1.value, &self.w2.value]);
        let x = xq.as_ref().unwrap_or(input);
        let w1 = w1b.as_ref().unwrap_or(&self.w1.value);
        let w2 = w2b.as_ref().unwrap_or(&self.w2.value);
        let bt = b * t;
        let mut pre = pool::tensor([bt, self.hidden]);
        linalg::matmul_slices(x.data(), w1.data(), pre.data_mut(), bt, d, self.hidden);
        pre.add_row_broadcast_inplace(&self.b1.value);
        let post = mapped(&pre, Gelu::value);
        let mut out = pool::tensor([bt, d]);
        linalg::matmul_slices(post.data(), w2.data(), out.data_mut(), bt, self.hidden, d);
        out.add_row_broadcast_inplace(&self.b2.value);
        let mut y = pool::copy_of(input); // residual
        for (o, &v) in y.data_mut().iter_mut().zip(out.data()) {
            *o += v;
        }
        pool::recycle(out);
        if mode.train {
            let flat = pool::copy_of(x);
            self.release();
            self.cache = Some([flat, pre, post]);
        } else {
            pool::recycle_all([pre, post]);
        }
        pool::recycle_all([xq, w1b, w2b].into_iter().flatten());
        y
    }

    fn backward(&mut self, grad_out: &Tensor, mode: Mode, want_gx: bool) -> Option<Tensor> {
        let (b, t, d) = as_btd(grad_out);
        let [flat, pre, post] = self
            .cache
            .take()
            .expect("TokenFeedForward::backward without training forward");
        let bt = b * t;
        let h = self.hidden;
        let mut gw2 = pool::tensor([h, d]);
        linalg::matmul_at_b_slices(post.data(), grad_out.data(), gw2.data_mut(), h, bt, d);
        let mut gb2 = pool::zeroed([d]);
        sum_rows_slice(grad_out.data(), gb2.data_mut(), bt, d);
        let mut gpre = pool::tensor([bt, h]);
        linalg::matmul_a_bt_slices(
            grad_out.data(),
            self.w2.value.data(),
            gpre.data_mut(),
            bt,
            d,
            h,
        );
        // gpre = (g·W2ᵀ) ⊙ gelu'(pre), fused over the same buffer
        for (o, &p) in gpre.data_mut().iter_mut().zip(pre.data()) {
            *o *= Gelu::derivative(p);
        }
        let mut gw1 = pool::tensor([d, h]);
        linalg::matmul_at_b_slices(flat.data(), gpre.data(), gw1.data_mut(), d, bt, h);
        let mut gb1 = pool::zeroed([h]);
        sum_rows_slice(gpre.data(), gb1.data_mut(), bt, h);
        let gx = want_gx.then(|| {
            let mut gx = pool::tensor([b, t, d]);
            linalg::matmul_a_bt_slices(gpre.data(), self.w1.value.data(), gx.data_mut(), bt, h, d);
            for (o, &g) in gx.data_mut().iter_mut().zip(grad_out.data()) {
                *o += g; // residual
            }
            gx
        });
        accumulate_grad(&mut self.w1, gw1, mode.precision, 0x0081);
        accumulate_grad(&mut self.b1, gb1, mode.precision, 0x0082);
        accumulate_grad(&mut self.w2, gw2, mode.precision, 0x0083);
        accumulate_grad(&mut self.b2, gb2, mode.precision, 0x0084);
        pool::recycle_all([gpre, flat, pre, post]);
        gx
    }

    fn release(&mut self) {
        pool::recycle_all(self.cache.take().into_iter().flatten());
    }

    fn visit_parameters<'a>(&'a self, visit: &mut dyn FnMut(&'a Parameter)) {
        visit(&self.w1);
        visit(&self.b1);
        visit(&self.w2);
        visit(&self.b2);
    }

    fn visit_parameters_mut<'a>(&'a mut self, visit: &mut dyn FnMut(&'a mut Parameter)) {
        visit(&mut self.w1);
        visit(&mut self.b1);
        visit(&mut self.w2);
        visit(&mut self.b2);
    }

    fn describe(&self) -> String {
        format!("ffn({}→{}→{})", self.dim, self.hidden, self.dim)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Mean-pools tokens: `(b, t, d) → (b, d)` for the classifier head.
#[derive(Debug, Clone, Default)]
pub struct MeanPoolTokens {
    cached_tokens: Option<usize>,
}

impl MeanPoolTokens {
    /// Creates a token mean-pool.
    pub fn new() -> Self {
        MeanPoolTokens {
            cached_tokens: None,
        }
    }
}

impl Layer for MeanPoolTokens {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let (b, t, d) = as_btd(input);
        let xd = input.data();
        let mut out_t = pool::zeroed([b, d]);
        let out = out_t.data_mut();
        for bi in 0..b {
            for ti in 0..t {
                for di in 0..d {
                    out[bi * d + di] += xd[(bi * t + ti) * d + di] / t as f32;
                }
            }
        }
        if mode.train {
            self.cached_tokens = Some(t);
        }
        out_t
    }

    fn backward(&mut self, grad_out: &Tensor, _mode: Mode, want_gx: bool) -> Option<Tensor> {
        let t = self
            .cached_tokens
            .expect("MeanPoolTokens::backward without training forward");
        if !want_gx {
            return None;
        }
        let (b, d) = grad_out.shape().as_matrix();
        let gd = grad_out.data();
        let mut gx_t = pool::tensor([b, t, d]);
        let gx = gx_t.data_mut();
        for bi in 0..b {
            for ti in 0..t {
                for di in 0..d {
                    gx[(bi * t + ti) * d + di] = gd[bi * d + di] / t as f32;
                }
            }
        }
        Some(gx_t)
    }

    fn describe(&self) -> String {
        "mean_pool_tokens".to_string()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Precision;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn btd(b: usize, t: usize, d: usize, seed: u64) -> Tensor {
        init::normal([b, t, d], 1.0, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn patch_embed_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut pe = PatchEmbed::new(3, 4, 16, &mut rng);
        let x = Tensor::ones([2, 3, 8, 8]);
        let y = pe.forward(&x, Mode::train(Precision::Fp32));
        assert_eq!(y.shape().dims(), &[2, 4, 16]); // 2x2 patches of 4x4
        let gx = pe.backward(&y, Mode::train(Precision::Fp32), true).unwrap();
        assert_eq!(gx.shape(), x.shape());
        assert!(pe.parameters().iter().any(|p| p.grad.l2_norm() > 0.0));
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let mut ln = LayerNorm::new(8);
        let x = btd(2, 3, 8, 1).map(|v| v * 4.0 + 2.0);
        let y = ln.forward(&x, Mode::train(Precision::Fp32));
        for r in 0..6 {
            let row = &y.data()[r * 8..(r + 1) * 8];
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn layernorm_gradcheck() {
        let mut ln = LayerNorm::new(4);
        let x = btd(1, 2, 4, 2);
        let mode = Mode::train(Precision::Fp32);
        let y = ln.forward(&x, mode);
        let gy = y.scale(2.0);
        let gx = ln.backward(&gy, mode, true).unwrap();
        let eps = 1e-3;
        for idx in [0usize, 3, 6] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let f = |x: &Tensor| -> f32 {
                LayerNorm::new(4)
                    .forward(x, Mode::train(Precision::Fp32))
                    .data()
                    .iter()
                    .map(|v| v * v)
                    .sum()
            };
            let num = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!((num - gx.data()[idx]).abs() < 5e-2, "dx[{idx}]");
        }
    }

    #[test]
    fn gelu_matches_reference_points() {
        assert!((Gelu::value(0.0)).abs() < 1e-6);
        assert!((Gelu::value(1.0) - 0.8412).abs() < 1e-3);
        assert!((Gelu::value(-1.0) + 0.1588).abs() < 1e-3);
        // derivative via finite difference
        for v in [-2.0f32, -0.5, 0.3, 1.7] {
            let eps = 1e-3;
            let num = (Gelu::value(v + eps) - Gelu::value(v - eps)) / (2.0 * eps);
            assert!((num - Gelu::derivative(v)).abs() < 1e-3, "{v}");
        }
    }

    #[test]
    fn attention_rows_are_convex_combinations() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut attn = SelfAttention::new(8, 2, &mut rng);
        let x = btd(2, 5, 8, 4);
        let y = attn.forward(&x, Mode::train(Precision::Fp32));
        assert_eq!(y.shape().dims(), &[2, 5, 8]);
        // attention weights per row sum to 1
        let a = &attn.cache.as_ref().unwrap().attn;
        let (b, h, t) = (2, 2, 5);
        for r in 0..b * h * t {
            let s: f32 = a.data()[r * t..(r + 1) * t].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn attention_gradcheck() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut attn = SelfAttention::new(4, 1, &mut rng);
        let x = btd(1, 3, 4, 6);
        let mode = Mode::train(Precision::Fp32);
        let y = attn.forward(&x, mode);
        let gy = y.scale(2.0);
        let gx = attn.backward(&gy, mode, true).unwrap();

        let eps = 1e-3;
        let mut fresh = attn.clone();
        let f = |a: &mut SelfAttention, x: &Tensor| -> f32 {
            a.forward(x, Mode::eval(Precision::Fp32))
                .data()
                .iter()
                .map(|v| v * v)
                .sum()
        };
        for idx in [0usize, 5, 11] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (f(&mut fresh, &xp) - f(&mut fresh, &xm)) / (2.0 * eps);
            assert!(
                (num - gx.data()[idx]).abs() < 0.15 * (1.0 + num.abs()),
                "dx[{idx}]: {num} vs {}",
                gx.data()[idx]
            );
        }
        // weight gradcheck on Wq
        for idx in [0usize, 7] {
            let orig = attn.wq.value.data()[idx];
            attn.wq.value.data_mut()[idx] = orig + eps;
            let lp = f(&mut attn.clone(), &x);
            attn.wq.value.data_mut()[idx] = orig - eps;
            let lm = f(&mut attn.clone(), &x);
            attn.wq.value.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - attn.wq.grad.data()[idx]).abs() < 0.15 * (1.0 + num.abs()),
                "dWq[{idx}]: {num} vs {}",
                attn.wq.grad.data()[idx]
            );
        }
    }

    #[test]
    fn ffn_gradcheck() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut ffn = TokenFeedForward::new(4, 8, &mut rng);
        let x = btd(1, 3, 4, 8);
        let mode = Mode::train(Precision::Fp32);
        let y = ffn.forward(&x, mode);
        let gy = y.scale(2.0);
        let gx = ffn.backward(&gy, mode, true).unwrap();
        let eps = 1e-3;
        let f = |f_: &mut TokenFeedForward, x: &Tensor| -> f32 {
            f_.forward(x, Mode::eval(Precision::Fp32))
                .data()
                .iter()
                .map(|v| v * v)
                .sum()
        };
        for idx in [0usize, 6, 11] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (f(&mut ffn.clone(), &xp) - f(&mut ffn.clone(), &xm)) / (2.0 * eps);
            assert!(
                (num - gx.data()[idx]).abs() < 0.1 * (1.0 + num.abs()),
                "dx[{idx}]: {num} vs {}",
                gx.data()[idx]
            );
        }
    }

    #[test]
    fn mean_pool_roundtrip() {
        let mut mp = MeanPoolTokens::new();
        let x = Tensor::from_vec((0..24).map(|i| i as f32).collect::<Vec<_>>(), [2, 3, 4]);
        let y = mp.forward(&x, Mode::train(Precision::Fp32));
        assert_eq!(y.shape().dims(), &[2, 4]);
        assert_eq!(y.at(&[0, 0]), 4.0); // mean(0, 4, 8)
        let gx = mp
            .backward(&Tensor::ones([2, 4]), Mode::train(Precision::Fp32), true)
            .unwrap();
        assert_eq!(gx.shape().dims(), &[2, 3, 4]);
        assert!((gx.sum() - 8.0).abs() < 1e-5);
    }

    #[test]
    fn int8_attention_is_lossy_but_close() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut attn = SelfAttention::new(8, 2, &mut rng);
        let x = btd(1, 4, 8, 10);
        let y32 = attn.forward(&x, Mode::eval(Precision::Fp32));
        let y8 = attn.forward(&x, Mode::eval(Precision::Int8));
        assert_ne!(y32, y8);
        assert!(y32.cosine_similarity(&y8) > 0.97);
    }
}
