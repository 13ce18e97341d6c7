//! Per-sample training-time model for the heterogeneous processors.
//!
//! Times are anchored to the paper's single-SoC measurements (see
//! [`crate::calibration`]) and scale linearly with batch size — mobile
//! training engines (MNN) run small batches without meaningful batching
//! economies, unlike datacenter GPUs whose constants already assume a
//! saturating batch.

use crate::calibration;
use crate::Seconds;
use serde::{Deserialize, Serialize};

/// A processor that can execute training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Processor {
    /// Snapdragon 865 Kryo CPU, FP32.
    SocCpuFp32,
    /// Snapdragon 865 Hexagon NPU, INT8.
    SocNpuInt8,
    /// Snapdragon 8gen1 CPU, FP32 (for the A100 comparison of Fig. 11).
    Gen1CpuFp32,
    /// Snapdragon 8gen1 NPU, INT8.
    Gen1NpuInt8,
    /// NVIDIA V100, PyTorch FP32.
    GpuV100,
    /// NVIDIA A100, PyTorch FP32.
    GpuA100,
}

impl std::fmt::Display for Processor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Processor::SocCpuFp32 => "865-CPU(FP32)",
            Processor::SocNpuInt8 => "865-NPU(INT8)",
            Processor::Gen1CpuFp32 => "8gen1-CPU(FP32)",
            Processor::Gen1NpuInt8 => "8gen1-NPU(INT8)",
            Processor::GpuV100 => "V100",
            Processor::GpuA100 => "A100",
        };
        f.write_str(s)
    }
}

/// The calibrated compute-time model.
///
/// `underclock` models DVFS throttling (paper §4.1's "underclocking-aware
/// workload re-balancing" optimization responds to it): an underclocked SoC
/// multiplies its compute time by `1 / factor` with `factor ∈ (0, 1]`.
#[derive(Debug, Clone)]
pub struct ComputeModel {
    model: String,
    underclock: Vec<f64>, // per-SoC frequency factor, 1.0 = full speed
    /// Measured β override (e.g. from `bench kernels` on the host); `None`
    /// falls back to the calibrated per-sample anchors.
    profiled_beta: Option<f64>,
}

impl ComputeModel {
    /// Creates the model for one DNN (by display name, e.g. `"VGG-11"`) on a
    /// cluster with `socs` SoCs, all at full clock.
    ///
    /// Returns [`calibration::UnknownModelError`] (listing the known models)
    /// if the model has no calibration row.
    pub fn new(model: &str, socs: usize) -> Result<Self, calibration::UnknownModelError> {
        calibration::per_sample_row(model)?; // validate early
        Ok(ComputeModel {
            model: model.to_string(),
            underclock: vec![1.0; socs],
            profiled_beta: None,
        })
    }

    /// Overrides the calibrated β with a measured value (see
    /// [`ComputeModel::beta`]); pass the β reported by `bench kernels`.
    ///
    /// # Panics
    /// Panics if `beta` is not strictly inside `(0, 1)`.
    pub fn set_profiled_beta(&mut self, beta: f64) {
        assert!(
            beta > 0.0 && beta < 1.0,
            "profiled beta must be in (0,1), got {beta}"
        );
        self.profiled_beta = Some(beta);
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
        let (cpu, npu, v100, a100) = calibration::per_sample_row(&self.model)
            .expect("ComputeModel::new validated the calibration row");
        let ms = match proc {
            Processor::SocCpuFp32 => cpu,
            Processor::SocNpuInt8 => npu,
            Processor::Gen1CpuFp32 => cpu / calibration::GEN1_CPU_SPEEDUP,
            Processor::Gen1NpuInt8 => npu / calibration::GEN1_NPU_SPEEDUP,
            Processor::GpuV100 => v100,
            Processor::GpuA100 => a100,
        };
        ms / 1000.0
    }

    /// Time for one SoC to train a batch of `n` samples on `proc`.
    ///
    /// # Panics
    /// Panics if the SoC index is out of range.
    pub fn batch_time(&self, soc: usize, proc: Processor, n: usize) -> Seconds {
        self.per_sample(proc) * n as f64 / self.underclock[soc]
    }

    /// The β compute-power ratio of paper Eq. 6: the NPU's share of the
    /// chip's combined compute power. With per-sample times `t`,
    /// `β = (1/t_NPU) / (1/t_NPU + 1/t_CPU) = t_CPU / (t_CPU + t_NPU)`.
    /// Feeding a β fraction of the batch to the NPU equalizes both sides'
    /// finish times, so no processor idles.
    ///
    /// A measured override set via [`ComputeModel::set_profiled_beta`]
    /// (`--profiled-beta` at the CLI, typically the β that `bench kernels`
    /// measured from the f32-vs-i8 GEMM timings) takes precedence over the
    /// calibrated anchors.
    pub fn beta(&self) -> f64 {
        if let Some(b) = self.profiled_beta {
            return b;
        }
        let t_cpu = self.per_sample(Processor::SocCpuFp32);
        let t_npu = self.per_sample(Processor::SocNpuInt8);
        t_cpu / (t_npu + t_cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_time_scales_linearly() {
        let m = ComputeModel::new("VGG-11", 4).unwrap();
        let t1 = m.batch_time(0, Processor::SocCpuFp32, 8);
        let t2 = m.batch_time(0, Processor::SocCpuFp32, 16);
        assert!((t2 - 2.0 * t1).abs() < 1e-12);
    }

    #[test]
    fn underclock_slows_down() {
        let mut m = ComputeModel::new("VGG-11", 2).unwrap();
        let base = m.batch_time(0, Processor::SocCpuFp32, 8);
        m.set_underclock(0, 0.5);
        assert!((m.batch_time(0, Processor::SocCpuFp32, 8) - 2.0 * base).abs() < 1e-12);
        // other SoC unaffected
        assert!((m.batch_time(1, Processor::SocCpuFp32, 8) - base).abs() < 1e-12);
    }

    #[test]
    fn beta_balances_finish_times() {
        let m = ComputeModel::new("ResNet-18", 1).unwrap();
        let beta = m.beta();
        assert!(
            beta > 0.5 && beta < 1.0,
            "NPU faster → beta > 0.5, got {beta}"
        );
        // feeding a beta share to the NPU equalizes times
        let npu_n = (1000.0 * beta) as usize;
        let cpu_n = 1000 - npu_n;
        let t_cpu = m.batch_time(0, Processor::SocCpuFp32, cpu_n);
        let t_npu = m.batch_time(0, Processor::SocNpuInt8, npu_n);
        let ratio = t_cpu / t_npu;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn profiled_beta_overrides_calibrated() {
        let mut m = ComputeModel::new("VGG-11", 1).unwrap();
        let calibrated = m.beta();
        m.set_profiled_beta(0.42);
        assert_eq!(m.beta(), 0.42);
        assert_ne!(m.beta(), calibrated);
    }

    #[test]
    fn unknown_model_is_rejected_with_known_list() {
        let err = ComputeModel::new("gpt4", 1).unwrap_err();
        assert!(err.to_string().contains("known models:"), "{err}");
    }

    #[test]
    fn gen1_faster_than_865() {
        let m = ComputeModel::new("LeNet-5", 1).unwrap();
        assert!(m.per_sample(Processor::Gen1NpuInt8) < m.per_sample(Processor::SocNpuInt8));
        assert!(m.per_sample(Processor::Gen1CpuFp32) < m.per_sample(Processor::SocCpuFp32));
    }
}
