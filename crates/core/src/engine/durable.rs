//! Durable state: capturing the streams into a [`Checkpoint`], restoring
//! them from one, and persisting snapshots to disk.

use super::replica::Replica;
use super::socflow::SocflowRun;
use crate::checkpoint::{Checkpoint, CheckpointPolicy};
use crate::mixed::MixedPrecisionController;
use socflow_nn::optim::Sgd;
use socflow_telemetry::Event;

fn flat_velocity(opt: &Sgd) -> Vec<f32> {
    let mut v = Vec::new();
    opt.flat_velocity_into(&mut v);
    v
}

/// Snapshots the full stream state (weights, momentum, learning rates,
/// non-learnable model state) into a [`Checkpoint`]; the caller fills in
/// the topology and clock fields.
pub(super) fn capture(epoch_done: usize, replicas: &[Replica], alpha: f32) -> Checkpoint {
    let mut ckpt = Checkpoint::new(
        epoch_done,
        replicas.iter().map(|r| r.net.flat_weights()).collect(),
        alpha,
    );
    ckpt.lr = replicas[0].opt.lr();
    ckpt.velocities = replicas.iter().map(|r| flat_velocity(&r.opt)).collect();
    // non-learnable model state must ride along for a bit-exact resume:
    // batch-norm running stats feed eval-mode forwards (accuracy and the
    // α probe), and the quant-noise step counters seed every INT8 backward
    ckpt.states = replicas.iter().map(|r| r.net.flat_state()).collect();
    let arms: Vec<_> = replicas.iter().filter_map(|r| r.int8.as_deref()).collect();
    if let Some(arm0) = arms.first() {
        assert_eq!(arms.len(), replicas.len(), "uniform INT8 arms");
        ckpt.lr_int8 = arm0.opt.lr();
        ckpt.velocities_int8 = arms.iter().map(|a| flat_velocity(&a.opt)).collect();
        ckpt.states_int8 = arms.iter().map(|a| a.net.flat_state()).collect();
    }
    ckpt
}

/// Overwrites freshly built `replicas` (one per checkpointed stream) and
/// the controller's α with a checkpoint's state. Sections a checkpoint
/// did not capture (empty vectors) leave the fresh state in place.
pub(super) fn restore(
    replicas: &mut [Replica],
    ctrl: &mut MixedPrecisionController,
    c: &Checkpoint,
) {
    for (i, r) in replicas.iter_mut().enumerate() {
        r.net.set_flat_weights(&c.replicas[i]);
        if let Some(s) = c.states.get(i).filter(|s| !s.is_empty()) {
            r.net.set_flat_state(s);
        }
        r.opt.set_lr(c.lr);
        if let Some(v) = c.velocities.get(i) {
            r.opt.set_flat_velocity(v);
        }
        if let Some(arm) = &mut r.int8 {
            arm.opt.set_lr(c.lr_int8);
            if let Some(v) = c.velocities_int8.get(i) {
                arm.opt.set_flat_velocity(v);
            }
            if let Some(s) = c.states_int8.get(i).filter(|s| !s.is_empty()) {
                arm.net.set_flat_state(s);
            }
        }
    }
    ctrl.set_alpha(c.alpha);
}

impl SocflowRun<'_> {
    /// Persists a durable checkpoint of the run as of `epoch_done` when
    /// checkpointing is on and its policy says this one is `due`, and
    /// reports it via telemetry. Write-behind: the persist overlaps
    /// training, so its cost shows up in the trace but never on the
    /// training clock.
    pub(super) fn persist(&self, epoch_done: usize, due: impl Fn(&CheckpointPolicy) -> bool) {
        let engine = self.engine;
        let checkpointing = engine.options.checkpointing.as_ref();
        let Some(durable) = checkpointing.filter(|c| due(&c.policy)) else {
            return;
        };
        let mut ckpt = capture(epoch_done, &self.replicas, self.ctrl.alpha());
        ckpt.initial_groups = self.initial_groups;
        ckpt.groups = self.groups;
        ckpt.alive = self.alive.iter().map(|s| s.0).collect();
        ckpt.clock = self.clock;
        ckpt.fault_cursor = self.fault_cursor;
        ckpt.partial = Some(self.result.clone());
        // `Checkpointing::new` created this directory and wrote to it
        // before the run started; only the directory vanishing or the
        // disk filling mid-run can fail here.
        let bytes = ckpt
            .save(&durable.dir)
            .expect("checkpoint dir was writable when the run started");
        let cost = engine.time_model.checkpoint_persist_time();
        engine.options.emit(Event::CheckpointPersisted {
            epoch: epoch_done,
            groups: self.groups,
            bytes,
            cost,
        });
        if engine.time_model.simulated() {
            engine.options.emit_all(super::digest::cluster_span(
                epoch_done,
                "checkpoint",
                self.clock,
                cost,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{easy_workload, tiny_spec};
    use super::super::{Engine, MixedMode};
    use super::*;
    use crate::config::{MethodSpec, SocFlowConfig};
    use crate::options::{Checkpointing, RunOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use socflow_nn::models::{ModelConfig, ModelKind};

    /// Two trained replicas of a batch-norm model (so BN running stats,
    /// momenta and — for INT8-arm modes — quant-noise counters are all
    /// non-trivial), with their controller.
    fn trained(mixed: MixedMode, seed: u64) -> (Vec<Replica>, MixedPrecisionController) {
        let mut spec = tiny_spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(2)));
        spec.model = ModelKind::ResNet18;
        spec.seed = seed;
        let mut workload = easy_workload(&spec, 64);
        workload.model_cfg = ModelConfig::new(1, 8, 10, 0.1);
        let engine = Engine::new(spec, workload, RunOptions::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut replicas = engine.build_replicas(2, &mut rng, mixed.step_precision().is_none());
        let mut ctrl = MixedPrecisionController::new(0.4);
        ctrl.set_alpha(0.61);
        let batches: Vec<_> = engine
            .workload
            .train
            .epoch_batches(16, &mut rng)
            .take(3)
            .collect();
        for (i, r) in replicas.iter_mut().enumerate() {
            for b in &batches[i..] {
                match mixed.step_precision() {
                    None => r.mixed_step(b, &ctrl),
                    Some(precision) => {
                        r.step(b, precision);
                    }
                }
            }
            r.decay_lr_floored(0.9 - 0.1 * i as f32, 1e-4);
        }
        (replicas, ctrl)
    }

    #[test]
    fn capture_save_load_restore_is_bit_exact_for_every_mixed_mode() {
        for mixed in [
            MixedMode::Adaptive,
            MixedMode::Int8Only,
            MixedMode::Half,
            MixedMode::Fp32Only,
        ] {
            let (replicas, ctrl) = trained(mixed, 5);
            let snap = capture(7, &replicas, ctrl.alpha());
            assert!(
                snap.states[0].iter().any(|v| *v != 0.0),
                "BN state captured"
            );
            assert!(snap.velocities[0].iter().any(|v| *v != 0.0));
            assert_eq!(
                !snap.velocities_int8.is_empty(),
                mixed.step_precision().is_none()
            );

            let dir = std::env::temp_dir().join(format!("socflow_durable_{mixed:?}"));
            std::fs::remove_dir_all(&dir).ok();
            snap.save(&dir).expect("save");
            let loaded = Checkpoint::load(&dir).expect("load");
            std::fs::remove_dir_all(&dir).ok();

            // fresh replicas from a *different* seed: every restored
            // section must come from the file, not from the init
            let (mut fresh, mut fresh_ctrl) = trained(mixed, 6);
            restore(&mut fresh, &mut fresh_ctrl, &loaded);
            let again = capture(7, &fresh, fresh_ctrl.alpha());
            let bits = |rows: &[Vec<f32>]| -> Vec<Vec<u32>> {
                rows.iter()
                    .map(|r| r.iter().map(|v| v.to_bits()).collect())
                    .collect()
            };
            assert_eq!(bits(&again.replicas), bits(&snap.replicas), "{mixed:?}");
            assert_eq!(bits(&again.velocities), bits(&snap.velocities));
            assert_eq!(bits(&again.velocities_int8), bits(&snap.velocities_int8));
            assert_eq!(bits(&again.states), bits(&snap.states));
            assert_eq!(bits(&again.states_int8), bits(&snap.states_int8));
            assert_eq!(again.lr.to_bits(), snap.lr.to_bits());
            assert_eq!(again.lr_int8.to_bits(), snap.lr_int8.to_bits());
            assert_eq!(again.alpha.to_bits(), snap.alpha.to_bits());
            assert_eq!(again.alpha, 0.61);
        }
    }

    #[test]
    fn resumed_run_is_bit_identical_to_uninterrupted() {
        let dir = std::env::temp_dir().join("socflow_engine_resume_test");
        std::fs::remove_dir_all(&dir).ok();
        let spec = tiny_spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(2)));
        let full = Engine::new(spec, easy_workload(&spec, 512), RunOptions::default()).run();

        // "killed" run: first 2 of 4 epochs, persisting at epoch 2
        let mut short = spec;
        short.epochs = 2;
        let policy = crate::checkpoint::CheckpointPolicy {
            every_epochs: Some(2),
            on_reclaim: true,
        };
        let _ = Engine::new(
            short,
            easy_workload(&short, 512),
            RunOptions {
                checkpointing: Some(
                    Checkpointing::new(dir.clone(), policy).expect("usable checkpoint dir"),
                ),
                ..RunOptions::default()
            },
        )
        .run();

        let ckpt = Checkpoint::load(&dir).expect("killed run persisted a checkpoint");
        assert_eq!(ckpt.epoch, 2);
        let resumed = Engine::new(
            spec,
            easy_workload(&spec, 512),
            RunOptions {
                resume: Some(ckpt),
                ..RunOptions::default()
            },
        )
        .run();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(resumed, full, "continuation must be bit-identical");
    }
}
