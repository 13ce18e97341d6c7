//! `--profile-kernels` attributes a lowered convolution's time to its own
//! kernels: a forward and a backward whose passes run in many sample
//! panels on two lanes count one call of `im2col`, `A × Bᵀ`, `Aᵀ × B`,
//! `A × B` and `col2im` each, with time on every one. A direct one's
//! forward, f32 or INT8, training or evaluation, counts one `conv_direct`
//! call however many panels it runs in, and its `dW` one more.
//!
//! One test, in a process of its own: the counters are global.

use socflow_tensor::conv::{
    conv2d, conv2d_backward, conv2d_int8, conv2d_int8_eval, ConvParams, ConvPath,
};
use socflow_tensor::{profile, runtime, Tensor};

#[test]
fn a_panelled_pass_counts_one_call_of_each_kernel() {
    runtime::set_threads(2);
    // 64 samples on an 8×8 map: one sample a panel, on the pool
    let x = Tensor::from_vec(
        (0..64 * 12 * 64).map(|i| (i as f32 * 0.37).sin()).collect(),
        [64, 12, 8, 8],
    );
    let w = Tensor::from_vec(
        (0..12 * 12 * 9).map(|i| (i as f32 * 0.11).cos()).collect(),
        [12, 12, 3, 3],
    );
    let p = ConvParams::new(1, 1);
    profile::set_enabled(true);
    profile::reset();
    let (y, cache) = conv2d(&x, &w, p);
    let (gx, _) = conv2d_backward(&y, &cache, &w, x.shape(), p, true);
    profile::set_enabled(false);
    assert!(gx.is_some());
    let totals = profile::snapshot();
    for op in ["im2col", "matmul_a_bt", "matmul_at_b", "matmul", "col2im"] {
        let t = totals.iter().find(|t| t.op == op).expect("a kernel family");
        assert_eq!(t.calls, 1, "{op}: one call a pass");
        assert!(t.nanos > 0, "{op}: no time attributed");
    }
    for op in ["matmul_i8", "quant", "conv_direct", "transpose"] {
        let t = totals.iter().find(|t| t.op == op).expect("a kernel family");
        assert_eq!((t.calls, t.nanos), (0, 0), "{op} did not run");
    }

    // LeNet-5's second layer on 77 samples: 39 panels, on the pool at f32
    let x = Tensor::from_vec(
        (0..77 * 3 * 16).map(|i| (i as f32 * 0.29).sin()).collect(),
        [77, 3, 4, 4],
    );
    let w = Tensor::from_vec(
        (0..8 * 3 * 9).map(|i| (i as f32 * 0.13).cos()).collect(),
        [8, 3, 3, 3],
    );
    assert_eq!(ConvPath::of(x.shape(), w.shape(), p), ConvPath::Direct);
    profile::set_enabled(true);
    profile::reset();
    let (y, cache) = conv2d(&x, &w, p);
    let (gx, _) = conv2d_backward(&y, &cache, &w, x.shape(), p, true);
    let (y8, _, _, _) = conv2d_int8(&x, &w, p);
    let y8e = conv2d_int8_eval(&x, &w, p);
    profile::set_enabled(false);
    assert!(gx.is_some() && y8 == y8e);
    let totals = profile::snapshot();
    // three forwards and a `dW`; the INT8 weights twice, the panels' inputs
    // twice and the training forward's dequantize; `dX`'s two steps
    let calls = [
        ("conv_direct", 4),
        ("quant", 5),
        ("matmul", 1),
        ("col2im", 1),
    ];
    for (op, calls) in calls {
        let t = totals.iter().find(|t| t.op == op).expect("a kernel family");
        assert_eq!(t.calls, calls, "{op}");
        assert!(t.nanos > 0, "{op}: no time attributed");
    }
    for op in ["im2col", "matmul_a_bt", "matmul_at_b", "matmul_i8"] {
        let t = totals.iter().find(|t| t.op == op).expect("a kernel family");
        assert_eq!((t.calls, t.nanos), (0, 0), "{op} did not run");
    }
}
