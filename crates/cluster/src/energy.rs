//! Energy accounting: integrates per-device power states over simulated
//! time. Reproduces the paper's energy results (Figs. 9, 11) from the power
//! constants in [`crate::calibration`].

use crate::calibration;
use crate::Seconds;
use serde::{Deserialize, Serialize};

/// The power state of a device over an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PowerState {
    /// SoC idle (OS housekeeping only).
    SocIdle,
    /// SoC training on the CPU.
    SocCpuTrain,
    /// SoC training on the NPU.
    SocNpuTrain,
    /// SoC training on CPU *and* NPU simultaneously (mixed precision).
    SocMixedTrain,
    /// SoC with its network path saturated (synchronization).
    SocNetwork,
    /// NVIDIA V100 under training load.
    GpuV100,
    /// NVIDIA A100 under training load.
    GpuA100,
}

impl PowerState {
    /// Power draw of the state, watts.
    pub fn watts(self) -> f64 {
        match self {
            PowerState::SocIdle => calibration::SOC_IDLE_W,
            PowerState::SocCpuTrain => calibration::SOC_CPU_TRAIN_W,
            PowerState::SocNpuTrain => calibration::SOC_NPU_TRAIN_W,
            PowerState::SocMixedTrain => {
                calibration::SOC_CPU_TRAIN_W + calibration::SOC_NPU_TRAIN_W
            }
            PowerState::SocNetwork => calibration::SOC_IDLE_W + calibration::SOC_NET_W,
            PowerState::GpuV100 => calibration::V100_W,
            PowerState::GpuA100 => calibration::A100_W,
        }
    }
}

/// Accumulates energy (joules) from `(state, duration)` intervals.
///
/// The control board's power-management system in the paper reports exactly
/// this integral; experiments convert to kJ for Fig. 9 parity.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyMeter {
    joules: f64,
}

impl EnergyMeter {
    /// A meter at zero.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Charges one device interval.
    ///
    /// # Panics
    /// Panics if `duration` is negative or not finite.
    pub fn charge(&mut self, state: PowerState, duration: Seconds) {
        assert!(
            duration.is_finite() && duration >= 0.0,
            "invalid duration {duration}"
        );
        self.joules += state.watts() * duration;
    }

    /// Total energy, joules.
    pub fn joules(&self) -> f64 {
        self.joules
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_power_over_time() {
        let mut m = EnergyMeter::new();
        m.charge(PowerState::SocCpuTrain, 10.0);
        assert!((m.joules() - 50.0).abs() < 1e-9);
        m.charge(PowerState::SocIdle, 10.0);
        assert!((m.joules() - 55.0).abs() < 1e-9);
    }

    #[test]
    fn npu_cheaper_than_cpu_per_second() {
        assert!(PowerState::SocNpuTrain.watts() < PowerState::SocCpuTrain.watts());
    }

    #[test]
    fn gpu_orders_of_magnitude_hungrier() {
        assert!(PowerState::GpuV100.watts() / PowerState::SocMixedTrain.watts() > 30.0);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn rejects_negative_duration() {
        EnergyMeter::new().charge(PowerState::SocIdle, -1.0);
    }
}
