//! Per-sample training-time model for the heterogeneous processors.
//!
//! Times are anchored to the paper's single-SoC measurements (see
//! [`crate::calibration`]) and scale linearly with batch size — mobile
//! training engines (MNN) run small batches without meaningful batching
//! economies, unlike datacenter GPUs whose constants already assume a
//! saturating batch.

use crate::calibration::PerSample;
use crate::Seconds;

/// A processor that can execute training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Processor {
    /// Snapdragon 865 Kryo CPU, FP32.
    SocCpuFp32,
    /// Snapdragon 865 Hexagon NPU, INT8.
    SocNpuInt8,
    /// NVIDIA V100, PyTorch FP32.
    GpuV100,
    /// NVIDIA A100, PyTorch FP32.
    GpuA100,
}

/// The calibrated compute-time model.
///
/// `underclock` models DVFS throttling (paper §4.1's "underclocking-aware
/// workload re-balancing" optimization responds to it): an underclocked SoC
/// multiplies its compute time by `1 / factor` with `factor ∈ (0, 1]`.
#[derive(Debug, Clone)]
pub struct ComputeModel {
    anchors: PerSample,
    underclock: Vec<f64>, // per-SoC frequency factor, 1.0 = full speed
}

impl ComputeModel {
    /// Creates the model for one DNN, given its calibrated per-sample
    /// anchors (e.g. [`crate::calibration::VGG11`]), on a cluster with
    /// `socs` SoCs, all at full clock.
    pub fn new(anchors: PerSample, socs: usize) -> Self {
        ComputeModel {
            anchors,
            underclock: vec![1.0; socs],
        }
    }

    /// Sets the DVFS frequency factor of one SoC.
    ///
    /// # Panics
    /// Panics if `factor` is not in `(0, 1]` or the SoC index is out of
    /// range.
    pub fn set_underclock(&mut self, soc: usize, factor: f64) {
        assert!(factor > 0.0 && factor <= 1.0, "factor must be in (0,1]");
        self.underclock[soc] = factor;
    }

    /// The DVFS frequency factor of one SoC.
    pub fn underclock(&self, soc: usize) -> f64 {
        self.underclock[soc]
    }

    /// Per-sample training time on a processor, seconds (full clock).
    pub fn per_sample(&self, proc: Processor) -> Seconds {
        let ms = match proc {
            Processor::SocCpuFp32 => self.anchors.cpu_ms,
            Processor::SocNpuInt8 => self.anchors.npu_ms,
            Processor::GpuV100 => self.anchors.v100_ms,
            Processor::GpuA100 => self.anchors.a100_ms,
        };
        ms / 1000.0
    }

    /// The β compute-power ratio of paper Eq. 6: the NPU's share of the
    /// chip's combined compute power. With per-sample times `t`,
    /// `β = (1/t_NPU) / (1/t_NPU + 1/t_CPU) = t_CPU / (t_CPU + t_NPU)`.
    /// Feeding a β fraction of the batch to the NPU equalizes both sides'
    /// finish times, so no processor idles.
    pub fn beta(&self) -> f64 {
        let t_cpu = self.per_sample(Processor::SocCpuFp32);
        let t_npu = self.per_sample(Processor::SocNpuInt8);
        t_cpu / (t_npu + t_cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration;

    #[test]
    fn underclock_slows_down() {
        let mut m = ComputeModel::new(calibration::VGG11, 2);
        m.set_underclock(0, 0.5);
        assert_eq!(m.underclock(0), 0.5);
        // other SoC unaffected
        assert_eq!(m.underclock(1), 1.0);
    }

    #[test]
    fn beta_balances_finish_times() {
        let m = ComputeModel::new(calibration::RESNET18, 1);
        let beta = m.beta();
        assert!(
            beta > 0.5 && beta < 1.0,
            "NPU faster → beta > 0.5, got {beta}"
        );
        // feeding a beta share to the NPU equalizes times
        let npu_n = (1000.0 * beta) as usize;
        let cpu_n = 1000 - npu_n;
        let t_cpu = m.per_sample(Processor::SocCpuFp32) * cpu_n as f64;
        let t_npu = m.per_sample(Processor::SocNpuInt8) * npu_n as f64;
        let ratio = t_cpu / t_npu;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }
}
