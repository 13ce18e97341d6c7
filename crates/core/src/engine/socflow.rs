//! SoCFlow proper: the state of one group-parallel run and the epoch
//! driver over it.
//!
//! The driver ([`Engine::run_socflow`]) is the epoch loop and nothing
//! else; what happens at each step lives with its policy — training
//! steps and delayed aggregation in [`super::replica`], stream shards and
//! settlement in [`super::stream`], fault windows, eviction and
//! remapping in [`super::elastic`], checkpoint capture/restore/persist in
//! [`super::durable`], trace digests in [`super::digest`].

use super::replica::{average_replicas, Replica};
use super::stream::StreamState;
use super::{digest, durable, Engine, MixedMode, DEFAULT_GROUPS, LR_DECAY, LR_FLOOR};
use crate::config::SocFlowConfig;
use crate::mapping::{integrity_greedy_over, Mapping};
use crate::mixed::MixedPrecisionController;
use crate::options::Pricing;
use crate::planning::{divide_or_serialize, CommunicationGroups};
use crate::report::RunResult;
use crate::timemodel::EpochCost;
use rand::rngs::StdRng;
use rand::SeedableRng;
use socflow_cluster::{ClusterSpec, SocId};
use socflow_data::{iid_partition, Batch};
use socflow_nn::{Mode, Precision};
use socflow_telemetry::Event;

/// Everything one SoCFlow run carries from epoch to epoch.
pub(super) struct SocflowRun<'e> {
    pub(super) engine: &'e Engine,
    pub(super) mixed: MixedMode,
    /// Logical-group count the job started with: the anchor of the
    /// elastic shrink target.
    pub(super) initial_groups: usize,
    /// Current logical-group count.
    pub(super) groups: usize,
    /// SoCs the job still holds.
    pub(super) alive: Vec<SocId>,
    /// The simulated wall-clock.
    pub(super) clock: f64,
    /// Watermark up to which fault-plan events were consumed (crash
    /// stalls push the clock past the consumed window, so the two
    /// genuinely differ).
    pub(super) fault_cursor: f64,
    pub(super) mapping: Mapping,
    pub(super) cgs: CommunicationGroups,
    /// Live-stream state (`None` keeps the static corpus).
    pub(super) stream: Option<StreamState>,
    /// One replica per accuracy stream (at most one per group).
    pub(super) replicas: Vec<Replica>,
    pub(super) ctrl: MixedPrecisionController,
    /// The run recorded so far.
    pub(super) result: RunResult,
}

impl Engine {
    /// SoCFlow proper: group replicas with per-epoch delayed aggregation,
    /// cross-group data shuffling, the mixed-precision controller, and the
    /// full fault-tolerance machinery (per-SoC fault consumption, elastic
    /// remapping, durable checkpoint/resume). `result` holds the run's
    /// start; a resume replaces it with the checkpoint's partial result.
    pub(super) fn run_socflow(
        &mut self,
        cfg: SocFlowConfig,
        mixed: MixedMode,
        result: RunResult,
    ) -> RunResult {
        let (mut run, start_epoch) = SocflowRun::start(self, cfg, mixed, result);
        let engine = run.engine;
        for epoch in start_epoch..engine.spec.epochs {
            let shards = run.draw_shards(epoch);
            run.train_groups(epoch, &shards);
            let accuracy = run.aggregate_and_evaluate();
            let cost = run.price_epoch(epoch, &shards);
            let split = (run.ctrl.alpha(), run.cpu_fraction());
            let completed = cost.completed(epoch, accuracy, run.groups, split);
            engine.record(&mut run.result, completed);
            run.consume_faults(epoch, cost.time);
            if Some(epoch + 1) == engine.options.preempt_after && run.groups > 1 {
                run.preempt(epoch + 1);
            }
            let periodic = |n: usize| n > 0 && (epoch + 1) % n == 0;
            run.persist(epoch + 1, |c| c.every_epochs.is_some_and(periodic));
        }
        run.result
    }

    /// Mapping and communication groups for `groups` logical groups over
    /// the surviving SoCs. With a live stream whose rate spread calls for
    /// it ([`StreamState::spread_to_regroup`]), membership is re-dealt by
    /// rate inside the topology mapping's physical shape
    /// ([`StreamState::regrouped`]) and an [`Event::RegroupedByRate`]
    /// marks the decision; a serialized CG fallback is surfaced as
    /// [`Event::CgFallback`] so slow syncs are explainable from traces.
    pub(super) fn socflow_topology(
        &self,
        alive: &[SocId],
        groups: usize,
        stream: Option<&StreamState>,
        epoch: usize,
    ) -> (Mapping, CommunicationGroups) {
        let cluster = ClusterSpec::for_socs(self.spec.socs);
        let mut mapping = integrity_greedy_over(&cluster, alive, groups);
        let regroup = stream.and_then(|st| Some((st, st.spread_to_regroup(alive)?)));
        if let Some((st, _)) = regroup {
            mapping = st.regrouped(&mapping, &cluster, alive);
        }
        let (cgs, fallback) = divide_or_serialize(&mapping);
        if let Some(e) = fallback {
            self.options.emit(Event::CgFallback {
                groups: cgs.len(),
                reason: format!("{e:?}"),
            });
        }
        if let Some((_, spread)) = regroup {
            self.options.emit(Event::RegroupedByRate {
                epoch,
                spread,
                groups,
            });
        }
        (mapping, cgs)
    }
}

impl<'e> SocflowRun<'e> {
    /// The starting state — fresh from `result`, or restored from
    /// [`RunOptions::resume`](crate::options::RunOptions::resume) — and
    /// the first epoch to run.
    pub(super) fn start(
        engine: &'e mut Engine,
        cfg: SocFlowConfig,
        mixed: MixedMode,
        mut result: RunResult,
    ) -> (Self, usize) {
        let mut rng = StdRng::seed_from_u64(engine.spec.seed);
        let socs0 = engine.spec.socs;
        let resume = engine.options.resume.take();
        let everyone = || (0..socs0).map(SocId).collect::<Vec<_>>();
        // `streams`: accuracy streams may be capped independently of the
        // topology
        let (start_epoch, streams, initial_groups, groups, alive, clock, fault_cursor) =
            match &resume {
                Some(c) => (
                    c.epoch,
                    c.num_replicas(),
                    c.initial_groups.clamp(1, socs0),
                    c.groups.clamp(1, socs0),
                    if c.alive.is_empty() {
                        everyone()
                    } else {
                        c.alive_socs()
                    },
                    c.clock,
                    c.fault_cursor,
                ),
                None => {
                    let g = cfg.groups.unwrap_or(DEFAULT_GROUPS).clamp(1, socs0);
                    let streams = cfg.accuracy_streams.unwrap_or(g).clamp(1, g);
                    (0, streams, g, g, everyone(), 0.0, 0.0)
                }
            };
        // RNG-safe under resume: build_replicas draws from `rng` once for
        // the base network regardless of the replica count, then the
        // restored state overwrites everything
        let mut replicas =
            engine.build_replicas(streams, &mut rng, mixed.step_precision().is_none());
        if let Pricing::WaitFree { bucket_kb } = engine.options.pricing {
            // bucketize the trained network's actual gradient layout; the
            // plan maps its per-layer byte fractions onto the reference
            // payload the cluster simulation prices
            let layout = replicas[0].net.grad_layout();
            engine.time_model.set_overlap(bucket_kb.get(), &layout);
        }
        let engine: &'e Engine = engine;
        let beta = engine.time_model.compute().beta() as f32;
        let mut ctrl = MixedPrecisionController::new(beta.clamp(0.05, 0.95));
        if mixed == MixedMode::Half {
            ctrl.set_alpha(0.7); // paper: Ours-Half is the fixed α = 0.7 case
        }
        if let Some(c) = &resume {
            durable::restore(&mut replicas, &mut ctrl, c);
            if let Some(partial) = &c.partial {
                result = partial.clone();
            }
        }
        let train_len = engine.workload.train.len();
        let mut stream = engine
            .options
            .streaming
            .map(|scfg| StreamState::new(scfg, &engine.spec, train_len));
        let (mapping, cgs) = engine.socflow_topology(&alive, groups, stream.as_ref(), start_epoch);
        if let Some(st) = stream.as_mut() {
            st.rebuild_buffers(groups, engine.spec.global_batch);
        }
        let run = SocflowRun {
            engine,
            mixed,
            initial_groups,
            groups,
            alive,
            clock,
            fault_cursor,
            mapping,
            cgs,
            stream,
            replicas,
            ctrl,
            result,
        };
        (run, start_epoch)
    }

    /// One shard of sample indices per replica: a cross-group reshuffle
    /// every epoch (unlike FL), or the next stretch of the live stream.
    fn draw_shards(&mut self, epoch: usize) -> Vec<Vec<usize>> {
        let engine = self.engine;
        match self.stream.as_mut() {
            Some(st) => st.epoch_shards(self.replicas.len(), &self.mapping),
            None => iid_partition(
                engine.workload.train.len(),
                self.replicas.len(),
                engine.spec.seed ^ (epoch as u64 * 97 + 13),
            ),
        }
    }

    /// Trains every replica on its shard. Logical groups run in parallel
    /// between delayed aggregations, as persistent-pool jobs;
    /// `epoch_batches_of` shuffles the borrowed shard indices directly, so
    /// no shard's sample data is copied.
    fn train_groups(&mut self, epoch: usize, shards: &[Vec<usize>]) {
        let train = &self.engine.workload.train;
        let spec = self.engine.spec;
        let ctrl = &self.ctrl;
        let precision = self.mixed.step_precision();
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = self
            .replicas
            .iter_mut()
            .zip(shards)
            .enumerate()
            .map(|(g, (replica, shard))| {
                Box::new(move || {
                    let mut erng = StdRng::seed_from_u64(spec.seed ^ ((epoch * 61 + g) as u64 + 3));
                    let batches = train.epoch_batches_of(shard, spec.global_batch, &mut erng);
                    match precision {
                        Some(p) => replica.step_all(batches, p),
                        None => {
                            for b in &batches.collect::<Vec<Batch>>() {
                                replica.mixed_step(b, ctrl);
                            }
                        }
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        socflow_tensor::runtime::run_scoped(jobs);
    }

    /// Delayed aggregation across groups (leader ring at paper scale),
    /// the LR decay, the α refresh, and the epoch's eval accuracy.
    fn aggregate_and_evaluate(&mut self) -> f32 {
        let engine = self.engine;
        average_replicas(&mut self.replicas);
        // each group stream sees 1/groups of the data per epoch, so a
        // full effective pass takes `groups` epochs; decay the LR per
        // data actually seen, not per wall-clock epoch, or the schedule
        // collapses `groups`x too fast for group-parallel streams
        let group_decay = LR_DECAY.powf(1.0 / self.groups.max(1) as f32);
        for r in self.replicas.iter_mut() {
            r.decay_lr_floored(group_decay, engine.spec.lr * LR_FLOOR);
        }
        let net = &mut self.replicas[0].net;
        // refresh α on the probe set (Eq. 4) with the merged weights
        if self.mixed == MixedMode::Adaptive {
            let p = &engine.workload.probe;
            let l32 = net.forward(&p.images, Mode::eval(Precision::Fp32));
            let l8 = net.forward(&p.images, Mode::eval(Precision::Int8));
            self.ctrl.update_alpha(&l32, &l8);
        }
        let eval_precision = match self.mixed {
            MixedMode::Int8Only => Precision::Int8,
            _ => Precision::Fp32,
        };
        engine.evaluate(net, eval_precision)
    }

    /// The share of each batch on the CPU-FP32 stream.
    fn cpu_fraction(&self) -> f64 {
        match self.mixed {
            MixedMode::Adaptive | MixedMode::Half => self.ctrl.cpu_fraction() as f64,
            MixedMode::Int8Only => 0.0,
            MixedMode::Fp32Only => 1.0,
        }
    }

    /// Prices the epoch on the simulated clock (with the timeline's
    /// digests when a sink listens), then settles the stream's supply
    /// against the epoch's demand and folds the barrier stall in before
    /// the result, telemetry and fault window see the time.
    fn price_epoch(&mut self, epoch: usize, shards: &[Vec<usize>]) -> EpochCost {
        let engine = self.engine;
        let tm = &engine.time_model;
        let sim = tm.socflow_epoch_timeline(&self.mapping, &self.cgs, true, self.cpu_fraction());
        if engine.options.sink.is_some() {
            engine
                .options
                .emit_all(digest::span_digest(epoch, self.clock, &sim.spans));
            let layers = tm.overlap().map_or(&[][..], |p| &p.layers[..]);
            engine.options.emit_all(digest::bucket_digest(
                epoch,
                self.clock,
                &sim.bucket_flushes,
                layers,
            ));
            engine.options.emit(Event::LinkUtilization {
                epoch,
                soc_links: sim.link_util.soc_links,
                board_nics: sim.link_util.board_nics,
                switch: sim.link_util.switch,
            });
        }
        let mut cost = sim.cost;
        if let Some(st) = self.stream.as_mut() {
            st.calibrate(engine.spec.socs, cost.time);
            let needs: Vec<usize> = shards.iter().map(|s| s.len()).collect();
            let settled = st.settle(&self.mapping, &needs, cost.time);
            for &(group, stall) in &settled.stalls {
                engine.options.emit(Event::StreamStalled {
                    epoch,
                    group,
                    stall,
                });
            }
            cost.time += settled.stall;
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{easy_workload, tiny_engine, tiny_spec};
    use super::*;
    use crate::config::MethodSpec;
    use crate::options::RunOptions;
    use std::sync::Arc;

    #[test]
    fn socflow_runs_and_learns() {
        let mut e = tiny_engine(MethodSpec::SocFlow(SocFlowConfig::with_groups(2)));
        let r = e.run();
        assert_eq!(r.epoch_accuracy.len(), 4);
        assert!(r.best_accuracy() > 0.2, "acc {}", r.best_accuracy());
        assert_eq!(r.alpha_trace.len(), 4);
        assert!(r.alpha_trace.iter().all(|a| (0.0..=1.0).contains(a)));
    }

    #[test]
    fn socflow_faster_than_ring() {
        let ours = tiny_engine(MethodSpec::SocFlow(SocFlowConfig::with_groups(4))).run();
        let ring = tiny_engine(MethodSpec::Ring).run();
        assert!(
            ours.total_time() < ring.total_time(),
            "ours {} ring {}",
            ours.total_time(),
            ring.total_time()
        );
    }

    #[test]
    fn int8_only_loses_accuracy_vs_fp32() {
        let mut s32 = tiny_spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(2)));
        s32.epochs = 5;
        let w = easy_workload(&s32, 512);
        let fp = Engine::new(s32, w.clone(), RunOptions::default()).run();
        let mut s8 = tiny_spec(MethodSpec::SocFlowInt8(SocFlowConfig::with_groups(2)));
        s8.epochs = 5;
        let int8 = Engine::new(s8, w, RunOptions::default()).run();
        // INT8's trajectory must genuinely differ (quantization noise)
        assert_ne!(fp.epoch_accuracy, int8.epoch_accuracy);
    }

    #[test]
    fn timeline_mode_runs_and_emits_spans() {
        let sink = Arc::new(socflow_telemetry::MemorySink::new());
        let spec = tiny_spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(4)));
        let workload = easy_workload(&spec, 512);
        let mut e = Engine::new(
            spec,
            workload,
            RunOptions {
                sink: Some(sink.clone()),
                ..RunOptions::default()
            },
        );
        let r = e.run();
        assert_eq!(r.epoch_accuracy.len(), 4);
        assert!(r.total_time() > 0.0);
        let events = sink.events();
        let spans = events
            .iter()
            .filter(|ev| matches!(ev, Event::SpanBegin { .. }))
            .count();
        let ends = events
            .iter()
            .filter(|ev| matches!(ev, Event::SpanEnd { .. }))
            .count();
        assert!(spans > 0, "timeline runs must emit a span digest");
        assert_eq!(spans, ends, "every span closes");
        // exactly one link-utilization row per epoch, with sane fractions
        let utils: Vec<_> = events
            .iter()
            .filter_map(|ev| match ev {
                Event::LinkUtilization {
                    soc_links,
                    board_nics,
                    switch,
                    ..
                } => Some((*soc_links, *board_nics, *switch)),
                _ => None,
            })
            .collect();
        assert_eq!(utils.len(), 4);
        for (s, n, w) in utils {
            for v in [s, n, w] {
                assert!((0.0..=1.0).contains(&v), "utilization {v} out of range");
            }
        }
        // epoch boundary phases appear in the digest
        assert!(events.iter().any(|ev| matches!(
            ev,
            Event::SpanBegin { kind, .. } if kind == "broadcast"
        )));
    }

    #[test]
    fn overlap_mode_emits_bucket_flushes_and_keeps_accuracy() {
        // wait-free bucketing changes epoch *pricing*, never the learning
        // dynamics: accuracy and alpha streams stay bit-identical
        let interleaved = tiny_engine(MethodSpec::SocFlow(SocFlowConfig::with_groups(2))).run();
        let sink = Arc::new(socflow_telemetry::MemorySink::new());
        let spec = tiny_spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(2)));
        let workload = easy_workload(&spec, 512);
        let mut e = Engine::new(
            spec,
            workload,
            RunOptions {
                pricing: Pricing::wait_free_kb(32),
                sink: Some(sink.clone()),
                ..RunOptions::default()
            },
        );
        let r = e.run();
        assert_eq!(interleaved.epoch_accuracy, r.epoch_accuracy);
        assert_eq!(interleaved.alpha_trace, r.alpha_trace);
        assert!(r.total_time() > 0.0);
        let events = sink.events();
        let flushes: Vec<_> = events
            .iter()
            .filter_map(|ev| match ev {
                Event::BucketFlushed {
                    cg,
                    bucket,
                    layer_first,
                    layer_last,
                    bytes,
                    ..
                } => Some((*cg, *bucket, *layer_first, *layer_last, *bytes)),
                _ => None,
            })
            .collect();
        assert!(!flushes.is_empty(), "overlap runs must emit bucket flushes");
        assert!(
            flushes.iter().any(|f| f.1 > 0),
            "bucket layout should split into several buckets: {flushes:?}"
        );
        for (_, _, first, last, bytes) in &flushes {
            assert!(first <= last);
            assert!(*bytes > 0.0);
        }
        assert!(
            events.iter().any(
                |ev| matches!(ev, Event::SpanBegin { kind, lane, .. } if kind == "bucket" && lane.contains("/b"))
            ),
            "per-bucket spans must appear in the digest"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = tiny_engine(MethodSpec::SocFlow(SocFlowConfig::with_groups(2))).run();
        let b = tiny_engine(MethodSpec::SocFlow(SocFlowConfig::with_groups(2))).run();
        assert_eq!(a.epoch_accuracy, b.epoch_accuracy);
        assert_eq!(a.alpha_trace, b.alpha_trace);
    }
}
