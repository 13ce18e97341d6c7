//! 2-D convolution and pooling kernels with hand-written backward passes.
//!
//! Convolution is implemented with the classic im2col lowering: each input
//! window becomes a row of a patch matrix, the convolution becomes one
//! [`matmul`](crate::linalg::matmul), and the backward pass reuses the same
//! patch matrix (`dW = dYᵀ·patches`) plus a `col2im` scatter (`dX`).
//!
//! The heavy entry points come in two flavors: allocating wrappers
//! ([`conv2d`], [`conv2d_backward`], [`im2col`], [`col2im`]) and
//! scratch-reusing variants ([`conv2d_scratch`], [`conv2d_backward_scratch`],
//! [`im2col_into`], [`col2im_into`]) that write into caller-owned buffers so
//! steady-state training allocates nothing per batch. The weight tensor is
//! consumed as a raw `(oc, ic·kh·kw)` view of its storage — no clone/reshape.
//!
//! All image tensors are NCHW.

use crate::profile::{KernelOp, Timer};
use crate::quant::{self, QuantParams};
use crate::runtime::{self, SendPtr};
use crate::{linalg, Shape, Tensor};

/// Minimum per-call element count before the im2col/col2im lowering is
/// dispatched on the worker pool; the partition is one chunk per batch
/// sample (shape-fixed), so serial and parallel paths are bit-identical and
/// the threshold affects wall-clock only.
const PAR_MIN_ELEMS: usize = 1 << 15;

/// Stride and zero-padding of a convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvParams {
    /// Window step in both spatial dimensions.
    pub stride: usize,
    /// Zero padding applied on every spatial border.
    pub padding: usize,
}

impl ConvParams {
    /// Convenience constructor.
    ///
    /// # Panics
    /// Panics if `stride == 0`.
    pub fn new(stride: usize, padding: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        ConvParams { stride, padding }
    }

    /// Output spatial size for an input extent `in_size` and window `k`.
    ///
    /// # Panics
    /// Panics if the window does not fit the padded input.
    pub fn out_size(&self, in_size: usize, k: usize) -> usize {
        let padded = in_size + 2 * self.padding;
        assert!(padded >= k, "window {k} larger than padded input {padded}");
        (padded - k) / self.stride + 1
    }
}

impl Default for ConvParams {
    fn default() -> Self {
        ConvParams {
            stride: 1,
            padding: 0,
        }
    }
}

/// Lowers NCHW `input` into a patch matrix of shape
/// `(n·oh·ow, c·kh·kw)`; returns `(patches, oh, ow)`.
///
/// # Panics
/// Panics if `input` is not rank-4 or the window does not fit.
pub fn im2col(input: &Tensor, kh: usize, kw: usize, p: ConvParams) -> (Tensor, usize, usize) {
    let mut patches = Tensor::default();
    let (oh, ow) = im2col_into(input, kh, kw, p, &mut patches);
    (patches, oh, ow)
}

/// [`im2col`] writing into `patches`, reusing its storage; returns `(oh, ow)`.
///
/// # Panics
/// Panics if `input` is not rank-4 or the window does not fit.
pub fn im2col_into(
    input: &Tensor,
    kh: usize,
    kw: usize,
    p: ConvParams,
    patches: &mut Tensor,
) -> (usize, usize) {
    let (n, c, h, w) = input.shape().as_nchw();
    let oh = p.out_size(h, kh);
    let ow = p.out_size(w, kw);
    let rows = n * oh * ow;
    let cols = c * kh * kw;
    let _t = Timer::start(KernelOp::Im2col);
    patches.resize([rows, cols]);
    let out = patches.data_mut();
    let data = input.data();
    let sample_rows = oh * ow * cols;
    if n > 1 && rows * cols >= PAR_MIN_ELEMS && runtime::threads() > 1 {
        // One chunk per batch sample: sample `ni` owns exactly the patch
        // rows `[ni·oh·ow, (ni+1)·oh·ow)` — disjoint output regions, and
        // the per-sample fill/scatter below is the same code the serial
        // path runs, so the bytes are identical at any thread count.
        let out_ptr = SendPtr::new(out);
        runtime::parallel_for_chunks(n, &|ni| {
            // Safety: per-sample regions are disjoint and in-bounds.
            let sample = unsafe { out_ptr.slice(ni * sample_rows, sample_rows) };
            im2col_sample(data, sample, ni, c, h, w, kh, kw, oh, ow, p);
        });
    } else {
        for ni in 0..n {
            let sample = &mut out[ni * sample_rows..(ni + 1) * sample_rows];
            im2col_sample(data, sample, ni, c, h, w, kh, kw, oh, ow, p);
        }
    }
    (oh, ow)
}

/// Extracts the patch rows of batch sample `ni` into `out` (that sample's
/// `oh·ow × c·kh·kw` region of the patch matrix).
#[allow(clippy::too_many_arguments)]
fn im2col_sample(
    data: &[f32],
    out: &mut [f32],
    ni: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
    p: ConvParams,
) {
    let cols = c * kh * kw;
    // Zero first: padding positions are skipped by the scatter below and must
    // read as zero even when the buffer is recycled.
    out.fill(0.0);
    let pad = p.padding as isize;
    for oy in 0..oh {
        for ox in 0..ow {
            let row = (oy * ow + ox) * cols;
            for ci in 0..c {
                let chan = (ni * c + ci) * h * w;
                for ky in 0..kh {
                    let iy = (oy * p.stride + ky) as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let src_row = chan + iy as usize * w;
                    let dst = row + (ci * kh + ky) * kw;
                    for kx in 0..kw {
                        let ix = (ox * p.stride + kx) as isize - pad;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        out[dst + kx] = data[src_row + ix as usize];
                    }
                }
            }
        }
    }
}

/// Inverse of [`im2col`]: scatters (accumulates) a patch-matrix gradient back
/// into an NCHW gradient of shape `(n, c, h, w)`.
///
/// # Panics
/// Panics if the patch matrix shape is inconsistent with the arguments.
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    patches: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    p: ConvParams,
) -> Tensor {
    let mut out = Tensor::default();
    col2im_into(patches, n, c, h, w, kh, kw, p, &mut out);
    out
}

/// [`col2im`] writing into `grad`, reusing its storage.
///
/// # Panics
/// Panics if the patch matrix shape is inconsistent with the arguments.
#[allow(clippy::too_many_arguments)]
pub fn col2im_into(
    patches: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    p: ConvParams,
    grad: &mut Tensor,
) {
    let oh = p.out_size(h, kh);
    let ow = p.out_size(w, kw);
    let cols = c * kh * kw;
    assert_eq!(
        patches.shape().dims(),
        &[n * oh * ow, cols],
        "patch matrix shape mismatch"
    );
    let _t = Timer::start(KernelOp::Col2im);
    grad.resize([n, c, h, w]);
    let out = grad.data_mut();
    let data = patches.data();
    let sample_len = c * h * w;
    if n > 1 && n * oh * ow * cols >= PAR_MIN_ELEMS && runtime::threads() > 1 {
        // One chunk per batch sample: sample `ni`'s patch rows scatter only
        // into its own `c·h·w` gradient region, and within a sample the
        // accumulation order is the serial one — bit-identical at any
        // thread count.
        let out_ptr = SendPtr::new(out);
        runtime::parallel_for_chunks(n, &|ni| {
            // Safety: per-sample regions are disjoint and in-bounds.
            let sample = unsafe { out_ptr.slice(ni * sample_len, sample_len) };
            col2im_sample(data, sample, ni, c, h, w, kh, kw, oh, ow, p);
        });
    } else {
        for ni in 0..n {
            let sample = &mut out[ni * sample_len..(ni + 1) * sample_len];
            col2im_sample(data, sample, ni, c, h, w, kh, kw, oh, ow, p);
        }
    }
}

/// Scatters batch sample `ni`'s patch-row gradients into `out` (that
/// sample's `c·h·w` region of the NCHW gradient).
#[allow(clippy::too_many_arguments)]
fn col2im_sample(
    data: &[f32],
    out: &mut [f32],
    ni: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
    p: ConvParams,
) {
    let cols = c * kh * kw;
    out.fill(0.0);
    let pad = p.padding as isize;
    for oy in 0..oh {
        for ox in 0..ow {
            let row = ((ni * oh + oy) * ow + ox) * cols;
            for ci in 0..c {
                let chan = ci * h * w;
                for ky in 0..kh {
                    let iy = (oy * p.stride + ky) as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let dst_row = chan + iy as usize * w;
                    let src = row + (ci * kh + ky) * kw;
                    for kx in 0..kw {
                        let ix = (ox * p.stride + kx) as isize - pad;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        out[dst_row + ix as usize] += data[src + kx];
                    }
                }
            }
        }
    }
}

/// Reusable scratch buffers for one convolution layer.
///
/// Holds the im2col patch matrix (shared between forward and backward) plus
/// the staging matrices of both passes. Owned by the layer that runs the
/// convolution; `Clone` yields empty buffers so cloning a layer never aliases
/// scratch storage (see [`crate::pool`] for the ownership rules).
#[derive(Debug, Default)]
pub struct ConvScratch {
    /// The im2col patch matrix of the last forward pass.
    pub patches: Tensor,
    /// `(n·oh·ow, oc)` staging matrix (forward output / backward gradient).
    mat: Tensor,
    /// Patch-gradient matrix of the backward pass.
    gpatches: Tensor,
    /// Quantized patch matrix of the integer forward path.
    qpatches: Vec<i8>,
    /// Quantized `(oc, ic·kh·kw)` weight view of the integer forward path.
    qweight: Vec<i8>,
    /// i32 accumulator of the integer forward path.
    imat: Vec<i32>,
}

impl Clone for ConvScratch {
    fn clone(&self) -> Self {
        ConvScratch::default()
    }
}

/// Forward 2-D convolution.
///
/// `input: (n, ic, h, w)`, `weight: (oc, ic, kh, kw)` → `(n, oc, oh, ow)`.
/// Also returns the im2col patch matrix so the backward pass can reuse it.
///
/// # Panics
/// Panics if channel counts disagree or the window does not fit.
pub fn conv2d(input: &Tensor, weight: &Tensor, p: ConvParams) -> (Tensor, Tensor) {
    let mut s = ConvScratch::default();
    let mut out = Tensor::default();
    conv2d_scratch(input, weight, p, &mut s, &mut out);
    (out, s.patches)
}

/// [`conv2d`] writing into `out` and reusing `scratch` across batches.
///
/// The patch matrix is left in `scratch.patches` for the backward pass.
///
/// # Panics
/// Panics if channel counts disagree or the window does not fit.
pub fn conv2d_scratch(
    input: &Tensor,
    weight: &Tensor,
    p: ConvParams,
    scratch: &mut ConvScratch,
    out: &mut Tensor,
) {
    let (n, ic, _h, _w) = input.shape().as_nchw();
    let (oc, ic2, kh, kw) = weight.shape().as_nchw();
    assert_eq!(ic, ic2, "conv2d channel mismatch: input {ic}, weight {ic2}");
    let (oh, ow) = im2col_into(input, kh, kw, p, &mut scratch.patches);
    let rows = n * oh * ow;
    let cols = ic * kh * kw;
    // (n·oh·ow, cols) × (oc, cols)ᵀ = (n·oh·ow, oc); the weight storage is
    // already the row-major (oc, cols) matrix — no clone/reshape needed.
    scratch.mat.resize([rows, oc]);
    linalg::matmul_a_bt_slices(
        scratch.patches.data(),
        weight.data(),
        scratch.mat.data_mut(),
        rows,
        cols,
        oc,
    );
    nhwc_rows_to_nchw_into(&scratch.mat, n, oc, oh, ow, out);
}

/// Integer-path forward convolution: the INT8 replica arm's conv kernel.
///
/// Lowers the raw input with im2col, quantizes the patch matrix and the
/// `(oc, ic·kh·kw)` weight view to symmetric per-tensor INT8, runs the
/// `i8×i8→i32` GEMM ([`linalg::matmul_i8_a_bt_slices`]) and applies both
/// scales once at the i32→f32 epilogue — no f32 fake-quant matmul anywhere
/// on this path. The patch scale is taken from the patch matrix itself
/// (padding zeros cannot raise max-|x|, so it equals the in-window input
/// scale).
///
/// On return `scratch.patches` holds the **dequantized** patch matrix — the
/// exact values the integer kernel consumed — so the standard
/// [`conv2d_backward_scratch`] differentiates the function the integer
/// kernel actually computed, unchanged. Returns the `(patches, weight)`
/// quantization parameters.
///
/// # Panics
/// Panics if channel counts disagree or the window does not fit.
pub fn conv2d_int8_scratch(
    input: &Tensor,
    weight: &Tensor,
    p: ConvParams,
    scratch: &mut ConvScratch,
    out: &mut Tensor,
) -> (QuantParams, QuantParams) {
    let (n, ic, _h, _w) = input.shape().as_nchw();
    let (oc, ic2, kh, kw) = weight.shape().as_nchw();
    assert_eq!(ic, ic2, "conv2d channel mismatch: input {ic}, weight {ic2}");
    let (oh, ow) = im2col_into(input, kh, kw, p, &mut scratch.patches);
    let rows = n * oh * ow;
    let cols = ic * kh * kw;
    let pp = QuantParams::from_tensor(&scratch.patches);
    let pw = QuantParams::from_tensor(weight);
    quant::quantize_into(&scratch.patches, pp, &mut scratch.qpatches);
    quant::quantize_into(weight, pw, &mut scratch.qweight);
    scratch.imat.clear();
    scratch.imat.resize(rows * oc, 0);
    linalg::matmul_i8_a_bt_slices(
        &scratch.qpatches,
        &scratch.qweight,
        &mut scratch.imat,
        rows,
        cols,
        oc,
    );
    scratch.mat.resize([rows, oc]);
    quant::scale_i32_into(&scratch.imat, pp.scale * pw.scale, scratch.mat.data_mut());
    nhwc_rows_to_nchw_into(&scratch.mat, n, oc, oh, ow, out);
    // Replace the raw patches with their dequantized INT8 values for backward.
    let shape = scratch.patches.shape().clone();
    quant::dequantize_into(&scratch.qpatches, shape, pp, &mut scratch.patches);
    (pp, pw)
}

/// Backward 2-D convolution.
///
/// Given `grad_out: (n, oc, oh, ow)`, the forward `patches` matrix, the
/// `weight: (oc, ic, kh, kw)` and the input geometry, returns
/// `(grad_input, grad_weight)`.
///
/// # Panics
/// Panics on any geometry inconsistency.
pub fn conv2d_backward(
    grad_out: &Tensor,
    patches: &Tensor,
    weight: &Tensor,
    input_shape: &Shape,
    p: ConvParams,
) -> (Tensor, Tensor) {
    let mut s = ConvScratch::default();
    let mut gx = Tensor::default();
    let mut gw = Tensor::default();
    conv2d_backward_scratch(
        grad_out,
        patches,
        weight,
        input_shape,
        p,
        &mut s,
        &mut gx,
        &mut gw,
    );
    (gx, gw)
}

/// [`conv2d_backward`] reusing `scratch` staging buffers and writing the
/// gradients into `gx` / `gw`.
///
/// `patches` is the im2col matrix of the matching forward pass — usually
/// `scratch.patches` moved out by the caller (a layer caches the train-time
/// patches while the scratch may be overwritten by eval forwards in between).
///
/// # Panics
/// Panics on any geometry inconsistency.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_scratch(
    grad_out: &Tensor,
    patches: &Tensor,
    weight: &Tensor,
    input_shape: &Shape,
    p: ConvParams,
    scratch: &mut ConvScratch,
    gx: &mut Tensor,
    gw: &mut Tensor,
) {
    let (n, ic, h, w) = input_shape.as_nchw();
    let (oc, _ic, kh, kw) = weight.shape().as_nchw();
    let (gn, goc, oh, ow) = grad_out.shape().as_nchw();
    assert_eq!((gn, goc), (n, oc), "grad_out batch/channel mismatch");
    let rows = n * oh * ow;
    let cols = ic * kh * kw;
    // (n·oh·ow, oc)
    nchw_to_nhwc_rows_into(grad_out, &mut scratch.mat);
    // dW = gmatᵀ × patches  →  (oc, ic·kh·kw)
    gw.resize([oc, ic, kh, kw]);
    linalg::matmul_at_b_slices(
        scratch.mat.data(),
        patches.data(),
        gw.data_mut(),
        oc,
        rows,
        cols,
    );
    // dPatches = gmat × Wmat  →  (n·oh·ow, ic·kh·kw)
    scratch.gpatches.resize([rows, cols]);
    linalg::matmul_slices(
        scratch.mat.data(),
        weight.data(),
        scratch.gpatches.data_mut(),
        rows,
        oc,
        cols,
    );
    col2im_into(&scratch.gpatches, n, ic, h, w, kh, kw, p, gx);
}

/// Reorders a `(n·oh·ow, c)` matrix (rows in NHWC order) into NCHW.
fn nhwc_rows_to_nchw_into(mat: &Tensor, n: usize, c: usize, oh: usize, ow: usize, t: &mut Tensor) {
    t.resize([n, c, oh, ow]);
    let out = t.data_mut();
    let data = mat.data();
    for ni in 0..n {
        for y in 0..oh {
            for x in 0..ow {
                let row = ((ni * oh + y) * ow + x) * c;
                for ci in 0..c {
                    out[((ni * c + ci) * oh + y) * ow + x] = data[row + ci];
                }
            }
        }
    }
}

/// Reorders an NCHW tensor into a `(n·h·w, c)` matrix (rows in NHWC order).
fn nchw_to_nhwc_rows_into(t: &Tensor, mat: &mut Tensor) {
    let (n, c, h, w) = t.shape().as_nchw();
    mat.resize([n * h * w, c]);
    let out = mat.data_mut();
    let data = t.data();
    for ni in 0..n {
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    out[((ni * h + y) * w + x) * c + ci] = data[((ni * c + ci) * h + y) * w + x];
                }
            }
        }
    }
}

/// Forward max pooling. Returns the pooled output and the flat argmax index
/// of each output element (for the backward scatter).
///
/// # Panics
/// Panics if `input` is not rank-4 or the window does not fit.
pub fn max_pool2d(input: &Tensor, k: usize, p: ConvParams) -> (Tensor, Vec<usize>) {
    let (n, c, h, w) = input.shape().as_nchw();
    let oh = p.out_size(h, k);
    let ow = p.out_size(w, k);
    let mut out = vec![f32::NEG_INFINITY; n * c * oh * ow];
    let mut arg = vec![0usize; n * c * oh * ow];
    let data = input.data();
    let pad = p.padding as isize;
    for ni in 0..n {
        for ci in 0..c {
            let chan = (ni * c + ci) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let o = ((ni * c + ci) * oh + oy) * ow + ox;
                    for ky in 0..k {
                        let iy = (oy * p.stride + ky) as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * p.stride + kx) as isize - pad;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let idx = chan + iy as usize * w + ix as usize;
                            if data[idx] > out[o] {
                                out[o] = data[idx];
                                arg[o] = idx;
                            }
                        }
                    }
                }
            }
        }
    }
    (Tensor::from_vec(out, Shape::from([n, c, oh, ow])), arg)
}

/// Backward max pooling: routes each output gradient to its argmax input.
pub fn max_pool2d_backward(grad_out: &Tensor, argmax: &[usize], input_shape: &Shape) -> Tensor {
    let mut gx = vec![0.0f32; input_shape.len()];
    for (g, &idx) in grad_out.data().iter().zip(argmax.iter()) {
        gx[idx] += g;
    }
    Tensor::from_vec(gx, input_shape.clone())
}

/// Global average pooling over the spatial dimensions: `(n,c,h,w) → (n,c)`.
///
/// # Panics
/// Panics if `input` is not rank-4.
pub fn global_avg_pool(input: &Tensor) -> Tensor {
    let (n, c, h, w) = input.shape().as_nchw();
    let hw = (h * w) as f32;
    let mut out = vec![0.0f32; n * c];
    let data = input.data();
    for i in 0..n * c {
        let s: f32 = data[i * h * w..(i + 1) * h * w].iter().sum();
        out[i] = s / hw;
    }
    Tensor::from_vec(out, Shape::from([n, c]))
}

/// Backward of [`global_avg_pool`]: spreads each `(n,c)` gradient uniformly
/// over the `(h, w)` window.
pub fn global_avg_pool_backward(grad_out: &Tensor, input_shape: &Shape) -> Tensor {
    let (n, c, h, w) = input_shape.as_nchw();
    let hw = (h * w) as f32;
    let mut gx = vec![0.0f32; input_shape.len()];
    let g = grad_out.data();
    for i in 0..n * c {
        let v = g[i] / hw;
        for e in &mut gx[i * h * w..(i + 1) * h * w] {
            *e = v;
        }
    }
    Tensor::from_vec(gx, input_shape.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_tensor(shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        let data = (0..shape.len()).map(|i| i as f32).collect();
        Tensor::from_vec(data, shape)
    }

    #[test]
    fn out_size_formula() {
        let p = ConvParams::new(1, 0);
        assert_eq!(p.out_size(5, 3), 3);
        let p = ConvParams::new(2, 1);
        assert_eq!(p.out_size(4, 3), 2);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: patches == input reordered (n*h*w, c)
        let x = seq_tensor([1, 2, 2, 2]);
        let (p, oh, ow) = im2col(&x, 1, 1, ConvParams::default());
        assert_eq!((oh, ow), (2, 2));
        assert_eq!(p.shape().dims(), &[4, 2]);
        // row (y=0,x=0) should be [x[0,0,0,0], x[0,1,0,0]] = [0, 4]
        assert_eq!(&p.data()[0..2], &[0.0, 4.0]);
    }

    #[test]
    fn conv2d_known_values() {
        // 3x3 input, 2x2 kernel of ones => each output = window sum
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            [1, 1, 3, 3],
        );
        let w = Tensor::ones([1, 1, 2, 2]);
        let (y, _) = conv2d(&x, &w, ConvParams::default());
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv2d_padding_keeps_size() {
        let x = Tensor::ones([2, 3, 4, 4]);
        let w = Tensor::ones([5, 3, 3, 3]);
        let (y, _) = conv2d(&x, &w, ConvParams::new(1, 1));
        assert_eq!(y.shape().dims(), &[2, 5, 4, 4]);
        // center outputs see all 27 ones
        assert_eq!(y.at(&[0, 0, 1, 1]), 27.0);
        // corner outputs see 2x2x3 = 12 ones
        assert_eq!(y.at(&[0, 0, 0, 0]), 12.0);
    }

    /// Finite-difference gradient check for conv2d.
    #[test]
    fn conv2d_gradcheck() {
        let p = ConvParams::new(1, 1);
        let x = Tensor::from_vec(
            (0..2 * 2 * 3 * 3).map(|i| (i as f32 * 0.7).sin()).collect(),
            [2, 2, 3, 3],
        );
        let w = Tensor::from_vec(
            (0..3 * 2 * 3 * 3)
                .map(|i| (i as f32 * 0.3).cos() * 0.5)
                .collect(),
            [3, 2, 3, 3],
        );
        let loss =
            |x: &Tensor, w: &Tensor| conv2d(x, w, p).0.data().iter().map(|v| v * v).sum::<f32>();
        let (y, patches) = conv2d(&x, &w, p);
        let grad_y = y.scale(2.0); // d(sum y^2)/dy
        let (gx, gw) = conv2d_backward(&grad_y, &patches, &w, x.shape(), p);

        let eps = 1e-3;
        for idx in [0usize, 5, 17, 30] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!(
                (num - gx.data()[idx]).abs() < 2e-2,
                "dx[{idx}]: numeric {num} vs analytic {}",
                gx.data()[idx]
            );
        }
        for idx in [0usize, 9, 25, 53] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!(
                (num - gw.data()[idx]).abs() < 2e-2,
                "dw[{idx}]: numeric {num} vs analytic {}",
                gw.data()[idx]
            );
        }
    }

    #[test]
    fn scratch_variants_match_allocating() {
        let p = ConvParams::new(1, 1);
        let x = Tensor::from_vec(
            (0..2 * 2 * 5 * 5).map(|i| (i as f32 * 0.7).sin()).collect(),
            [2, 2, 5, 5],
        );
        let w = Tensor::from_vec(
            (0..3 * 2 * 3 * 3)
                .map(|i| (i as f32 * 0.3).cos() * 0.5)
                .collect(),
            [3, 2, 3, 3],
        );
        let (y, patches) = conv2d(&x, &w, p);
        let gy = y.scale(2.0);
        let (gx, gw) = conv2d_backward(&gy, &patches, &w, x.shape(), p);

        // Prime the scratch with garbage by running a *different* shape first,
        // then check the reused buffers produce identical results.
        let mut s = ConvScratch::default();
        let mut out = Tensor::default();
        let x0 = Tensor::ones([1, 2, 4, 4]);
        conv2d_scratch(&x0, &w, p, &mut s, &mut out);
        conv2d_scratch(&x, &w, p, &mut s, &mut out);
        assert_eq!(out, y);
        assert_eq!(s.patches, patches);
        let mut gx2 = Tensor::default();
        let mut gw2 = Tensor::default();
        // Move the patches out, the way a layer caches them across passes.
        let pt = std::mem::take(&mut s.patches);
        conv2d_backward_scratch(&gy, &pt, &w, x.shape(), p, &mut s, &mut gx2, &mut gw2);
        assert_eq!(gx2, gx);
        assert_eq!(gw2, gw);
    }

    /// The integer conv forward must reproduce the widened-i32 reference
    /// bit for bit, leave dequantized patches behind for backward, and stay
    /// close to the f32 convolution.
    #[test]
    fn int8_conv_matches_widened_reference_exactly() {
        let p = ConvParams::new(1, 1);
        let (n, ic, h, w_, oc, kh, kw) = (2usize, 2, 5, 5, 3, 3, 3);
        let x = Tensor::from_vec(
            (0..n * ic * h * w_)
                .map(|i| (i as f32 * 0.7).sin())
                .collect(),
            [n, ic, h, w_],
        );
        let w = Tensor::from_vec(
            (0..oc * ic * kh * kw)
                .map(|i| (i as f32 * 0.3).cos() * 0.5)
                .collect(),
            [oc, ic, kh, kw],
        );
        let mut s = ConvScratch::default();
        let mut y8 = Tensor::default();
        let (pp, pw) = conv2d_int8_scratch(&x, &w, p, &mut s, &mut y8);

        // Reference: quantize the raw patches and weight, accumulate in i32.
        let (patches, oh, ow) = im2col(&x, kh, kw, p);
        assert_eq!(pp.scale, QuantParams::from_tensor(&patches).scale);
        let cols = ic * kh * kw;
        let qp = quant::quantize(&patches, pp);
        let qw = quant::quantize(&w, pw);
        let scale = pp.scale * pw.scale;
        let mut expect = Tensor::zeros([n, oc, oh, ow]);
        for ni in 0..n {
            for j in 0..oc {
                for y in 0..oh {
                    for xx in 0..ow {
                        let row = ((ni * oh + y) * ow + xx) * cols;
                        let mut acc = 0i32;
                        for ci in 0..cols {
                            acc += qp[row + ci] as i32 * qw[j * cols + ci] as i32;
                        }
                        expect.data_mut()[((ni * oc + j) * oh + y) * ow + xx] = acc as f32 * scale;
                    }
                }
            }
        }
        assert_eq!(y8, expect);

        // Patches left behind are the dequantized values the kernel saw.
        assert_eq!(
            s.patches,
            quant::dequantize(&qp, patches.shape().clone(), pp)
        );

        // And the whole thing stays close to the f32 convolution.
        let (y32, _) = conv2d(&x, &w, p);
        let dot: f32 = y8.data().iter().zip(y32.data()).map(|(a, b)| a * b).sum();
        let cos = dot / (y8.l2_norm() * y32.l2_norm());
        assert!(cos > 0.98, "cos {cos}");
    }

    #[test]
    fn col2im_adjoint_of_im2col() {
        // <im2col(x), p> == <x, col2im(p)> for all x, p (adjoint property).
        let p = ConvParams::new(2, 1);
        let x = seq_tensor([1, 2, 4, 4]);
        let (patches, _, _) = im2col(&x, 3, 3, p);
        let probe = Tensor::from_vec(
            (0..patches.len())
                .map(|i| ((i * 7 % 13) as f32) - 6.0)
                .collect(),
            patches.shape().clone(),
        );
        let lhs = patches.dot(&probe);
        let back = col2im(&probe, 1, 2, 4, 4, 3, 3, p);
        let rhs = x.dot(&back);
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    /// The batch-parallel im2col/col2im paths must be bitwise-identical to
    /// composing the per-sample kernel serially — the shape is chosen to
    /// cross `PAR_MIN_ELEMS` so the pool path actually runs.
    #[test]
    fn parallel_im2col_and_col2im_match_serial_bitwise() {
        crate::runtime::set_threads(8);
        let (n, c, h, w, kh, kw) = (4usize, 8, 16, 16, 3, 3);
        let p = ConvParams::new(1, 1);
        let x = Tensor::from_vec(
            (0..n * c * h * w)
                .map(|i| ((i * 31 % 97) as f32) * 0.37 - 5.0)
                .collect(),
            [n, c, h, w],
        );
        let mut patches = Tensor::default();
        let (oh, ow) = im2col_into(&x, kh, kw, p, &mut patches);
        let cols = c * kh * kw;
        assert!(
            n * oh * ow * cols >= PAR_MIN_ELEMS,
            "shape must cross the parallel threshold"
        );
        let sample_rows = oh * ow * cols;
        let mut expect = vec![f32::NAN; n * sample_rows];
        for ni in 0..n {
            im2col_sample(
                x.data(),
                &mut expect[ni * sample_rows..(ni + 1) * sample_rows],
                ni,
                c,
                h,
                w,
                kh,
                kw,
                oh,
                ow,
                p,
            );
        }
        assert_eq!(patches.data(), &expect[..]);

        let probe = Tensor::from_vec(
            (0..patches.len())
                .map(|i| ((i * 7 % 13) as f32) - 6.0)
                .collect(),
            patches.shape().clone(),
        );
        let mut grad = Tensor::default();
        col2im_into(&probe, n, c, h, w, kh, kw, p, &mut grad);
        let sample_len = c * h * w;
        let mut gexpect = vec![f32::NAN; n * sample_len];
        for ni in 0..n {
            col2im_sample(
                probe.data(),
                &mut gexpect[ni * sample_len..(ni + 1) * sample_len],
                ni,
                c,
                h,
                w,
                kh,
                kw,
                oh,
                ow,
                p,
            );
        }
        assert_eq!(grad.data(), &gexpect[..]);
    }

    #[test]
    fn max_pool_forward_and_backward() {
        let x = Tensor::from_vec(
            vec![
                1.0, 3.0, 2.0, 4.0, 5.0, 6.0, 8.0, 7.0, 9.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0,
            ],
            [1, 1, 4, 4],
        );
        let (y, arg) = max_pool2d(&x, 2, ConvParams::new(2, 0));
        assert_eq!(y.data(), &[6.0, 8.0, 9.0, 6.0]);
        let g = Tensor::ones([1, 1, 2, 2]);
        let gx = max_pool2d_backward(&g, &arg, x.shape());
        assert_eq!(gx.sum(), 4.0);
        assert_eq!(gx.data()[5], 1.0); // the 6.0 in the top-left window
    }

    #[test]
    fn global_avg_pool_roundtrip() {
        let x = seq_tensor([2, 3, 2, 2]);
        let y = global_avg_pool(&x);
        assert_eq!(y.shape().dims(), &[2, 3]);
        assert_eq!(y.at(&[0, 0]), 1.5); // mean(0,1,2,3)
        let g = Tensor::ones([2, 3]);
        let gx = global_avg_pool_backward(&g, x.shape());
        assert!((gx.sum() - 6.0).abs() < 1e-6);
        assert!((gx.data()[0] - 0.25).abs() < 1e-6);
    }
}
