//! One run's state and the epoch driver over it, for every method: the
//! method's [`Streams`] say how many replicas train, on which shards, and
//! whether they are averaged; everything else is one loop.
//!
//! The driver ([`Engine::run_epochs`]) is the epoch loop and nothing
//! else; what happens at each step lives with its policy — training
//! steps and delayed aggregation in [`super::replica`], stream shards and
//! settlement in [`super::stream`], fault windows, eviction and
//! remapping in [`super::elastic`], checkpoint capture/restore/persist in
//! [`super::durable`], trace digests in [`super::digest`].

use super::replica::{average_replicas, Replica};
use super::stream::StreamState;
use super::{digest, durable, Engine, Streams, CPU_ONLY, LR_DECAY, LR_FLOOR};
use crate::config::{Arms, MethodSpec};
use crate::mapping::{integrity_greedy_over, Mapping};
use crate::mixed::MixedPrecisionController;
use crate::options::Pricing;
use crate::planning::{divide_or_serialize, CommunicationGroups};
use crate::report::RunResult;
use crate::timemodel::EpochCost;
use rand::rngs::StdRng;
use rand::SeedableRng;
use socflow_cluster::{ClusterSpec, SocId};
use socflow_data::{dirichlet_partition, iid_partition, Batch};
use socflow_nn::{Mode, Precision};
use socflow_telemetry::Event;

/// Everything one run carries from epoch to epoch.
pub(super) struct Run<'e> {
    pub(super) engine: &'e Engine,
    /// What the method trains on the host clock.
    pub(super) streams: Streams,
    pub(super) arms: Arms,
    /// Logical-group count the job started with: the anchor of the
    /// elastic shrink target.
    pub(super) initial_groups: usize,
    /// Current logical-group count.
    pub(super) groups: usize,
    /// SoCs the job still holds.
    pub(super) alive: Vec<SocId>,
    /// The simulated wall-clock.
    pub(super) clock: f64,
    /// Watermark up to which fault-plan events were consumed (recovery
    /// stalls push the clock past the consumed window, so the two
    /// genuinely differ).
    pub(super) fault_cursor: f64,
    pub(super) mapping: Mapping,
    pub(super) cgs: CommunicationGroups,
    /// Each replica's shard for the whole run (`None`: SoCFlow draws new
    /// ones every epoch).
    fixed_shards: Option<Vec<Vec<usize>>>,
    /// Live-stream state (`None` keeps the static corpus).
    pub(super) stream: Option<StreamState>,
    /// One replica per accuracy stream (at most one per group).
    pub(super) replicas: Vec<Replica>,
    pub(super) ctrl: MixedPrecisionController,
    /// The run recorded so far.
    pub(super) result: RunResult,
}

impl Engine {
    /// The epoch loop of every method: replicas trained on their shards,
    /// averaged at the epoch boundary (SoCFlow's delayed aggregation,
    /// FedAvg's round), evaluated and priced, then its fault window
    /// consumed (a baseline stalls, SoCFlow remaps elastically); SoCFlow
    /// adds the mixed-precision controller and durable
    /// checkpoint/resume. `result` holds the run's start; a resume
    /// replaces it with the checkpoint's partial result.
    pub(super) fn run_epochs(&mut self, result: RunResult) -> RunResult {
        let (mut run, start_epoch) = Run::start(self, result);
        let engine = run.engine;
        for epoch in start_epoch..engine.spec.epochs {
            let shards = run.draw_shards(epoch);
            run.train_groups(epoch, &shards);
            let accuracy = run.aggregate_and_evaluate();
            let cost = run.price_epoch(epoch, &shards);
            let completed = cost.completed(epoch, accuracy, run.groups, run.split());
            engine.record(&mut run.result, completed);
            run.consume_faults(epoch, cost.time);
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
    pub(super) fn topology(
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

impl<'e> Run<'e> {
    /// The starting state — fresh from `result`, or restored from
    /// [`RunOptions::resume`](crate::options::RunOptions::resume) — and
    /// the first epoch to run.
    pub(super) fn start(engine: &'e mut Engine, mut result: RunResult) -> (Self, usize) {
        let mut rng = StdRng::seed_from_u64(engine.spec.seed);
        let socs0 = engine.spec.socs;
        let streams = Streams::of(engine.spec.method, socs0);
        let (arms, groups0, replicas0) = streams.shape();
        let resume = engine.options.resume.take();
        // Local trains and is priced on one SoC whatever the job's size, so
        // that is the one SoC a fault can take from it
        let held = if engine.spec.method == MethodSpec::Local {
            1
        } else {
            socs0
        };
        let everyone = || (0..held).map(SocId).collect::<Vec<_>>();
        // `replicas`: accuracy streams may be capped independently of the
        // topology
        let (start_epoch, replicas, initial_groups, groups, alive, clock, fault_cursor) =
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
                None => (0, replicas0, groups0, groups0, everyone(), 0.0, 0.0),
            };
        // RNG-safe under resume: build_replicas draws from `rng` once for
        // the base network regardless of the replica count, then the
        // restored state overwrites everything
        let mut replicas =
            engine.build_replicas(replicas, &mut rng, arms.step_precision().is_none());
        if let Pricing::WaitFree { bucket_kb } = engine.options.pricing {
            // bucketize the trained network's actual gradient layout; the
            // plan maps its per-layer byte fractions onto the reference
            // payload the cluster simulation prices
            let layout = replicas[0].net.grad_layout();
            engine.time_model.set_overlap(bucket_kb.get(), &layout);
        }
        let engine: &'e Engine = engine;
        let mut ctrl = arms.controller(engine.time_model.compute().beta());
        if let Some(c) = &resume {
            durable::restore(&mut replicas, &mut ctrl, c);
            if let Some(partial) = &c.partial {
                result = partial.clone();
            }
        }
        let train = &engine.workload.train;
        let fixed_shards = match streams {
            Streams::One => Some(vec![(0..train.len()).collect()]),
            // Federated clients keep FIXED local shards all training (no
            // cross-client shuffling — the contrast to SoCFlow). Client data
            // is mildly heterogeneous (Dirichlet α = 0.5): at the reduced
            // accuracy scale a perfectly IID split hides the client-drift
            // phenomenon the paper measures, while per-user edge data is
            // non-IID in deployment.
            Streams::Federated { clients } => Some(dirichlet_partition(
                train.labels(),
                train.classes(),
                clients,
                0.5,
                engine.spec.seed,
            )),
            Streams::SocFlow { .. } => None,
        };
        let mut stream = engine
            .options
            .streaming
            .map(|scfg| StreamState::new(scfg, &engine.spec, train.len()));
        let (mapping, cgs) = engine.topology(&alive, groups, stream.as_ref(), start_epoch);
        if let Some(st) = stream.as_mut() {
            st.rebuild_buffers(groups, engine.spec.global_batch);
        }
        let run = Run {
            engine,
            streams,
            arms,
            initial_groups,
            groups,
            alive,
            clock,
            fault_cursor,
            mapping,
            cgs,
            fixed_shards,
            stream,
            replicas,
            ctrl,
            result,
        };
        (run, start_epoch)
    }

    /// One shard of sample indices per replica: the baselines' fixed ones,
    /// or SoCFlow's cross-group reshuffle every epoch (unlike FL), or the
    /// next stretch of the live stream.
    fn draw_shards(&mut self, epoch: usize) -> Vec<Vec<usize>> {
        let engine = self.engine;
        match (&self.fixed_shards, self.stream.as_mut()) {
            (Some(fixed), _) => fixed.clone(),
            (None, Some(st)) => st.epoch_shards(self.replicas.len(), &self.mapping),
            (None, None) => iid_partition(
                engine.workload.train.len(),
                self.replicas.len(),
                engine.spec.seed ^ (epoch as u64 * 97 + 13),
            ),
        }
    }

    /// Trains every replica on its shard. Replicas run in parallel between
    /// aggregations, as persistent-pool jobs; `epoch_batches_of` shuffles
    /// the borrowed shard indices directly, so no shard's sample data is
    /// copied.
    fn train_groups(&mut self, epoch: usize, shards: &[Vec<usize>]) {
        let train = &self.engine.workload.train;
        let spec = self.engine.spec;
        let ctrl = &self.ctrl;
        let precision = self.arms.step_precision();
        let (stride, offset) = self.streams.shuffle();
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = self
            .replicas
            .iter_mut()
            .zip(shards)
            .enumerate()
            .map(|(g, (replica, shard))| {
                Box::new(move || {
                    let seed = spec.seed ^ ((epoch * stride + g) as u64 + offset);
                    let mut erng = StdRng::seed_from_u64(seed);
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

    /// The epoch-boundary aggregation (SoCFlow's delayed aggregation over
    /// the leader ring at paper scale, FedAvg's round; one stream has
    /// nothing to average), the LR decay, the α refresh, and the epoch's
    /// eval accuracy.
    fn aggregate_and_evaluate(&mut self) -> f32 {
        let engine = self.engine;
        // averaging is not the identity even on one replica: the mean sums
        // from +0.0, which turns a -0.0 weight into +0.0
        if self.streams != Streams::One {
            average_replicas(&mut self.replicas);
        }
        // each SoCFlow group stream sees 1/groups of the data per epoch, so
        // a full effective pass takes `groups` epochs; decay the LR per
        // data actually seen, not per wall-clock epoch, or the schedule
        // collapses `groups`x too fast for group-parallel streams
        let decay = match self.streams {
            Streams::SocFlow { .. } => LR_DECAY.powf(1.0 / self.groups.max(1) as f32),
            _ => LR_DECAY,
        };
        for r in self.replicas.iter_mut() {
            r.decay_lr_floored(decay, engine.spec.lr * LR_FLOOR);
        }
        let net = &mut self.replicas[0].net;
        // refresh α on the probe set (Eq. 4) with the merged weights
        if self.arms == Arms::Mixed {
            let p = &engine.workload.probe;
            let l32 = net.forward(&p.images, Mode::eval(Precision::Fp32));
            let l8 = net.forward(&p.images, Mode::eval(Precision::Int8));
            self.ctrl.update_alpha(&l32, &l8);
        }
        let eval_precision = self.arms.step_precision().unwrap_or(Precision::Fp32);
        engine.evaluate(net, eval_precision)
    }

    /// The epoch's `(α, CPU share)`: the controller's for SoCFlow,
    /// [`CPU_ONLY`] for a baseline.
    fn split(&self) -> (f32, f64) {
        match self.streams {
            Streams::SocFlow { .. } => (self.ctrl.alpha(), self.arms.cpu_fraction(&self.ctrl)),
            _ => CPU_ONLY,
        }
    }

    /// Prices the epoch on the simulated clock: a baseline's closed form,
    /// which training cannot move, or SoCFlow's timeline (with its digests
    /// when a sink listens). A live stream's supply is then settled against
    /// the epoch's demand and the barrier stall folded in before the
    /// result, telemetry and fault window see the time.
    fn price_epoch(&mut self, epoch: usize, shards: &[Vec<usize>]) -> EpochCost {
        let engine = self.engine;
        let tm = &engine.time_model;
        if let Some(cost) = tm.baseline_epoch(engine.spec.method) {
            return cost;
        }
        let cpu_fraction = self.arms.cpu_fraction(&self.ctrl);
        let sim = tm.socflow_epoch_timeline(&self.mapping, &self.cgs, cpu_fraction);
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
