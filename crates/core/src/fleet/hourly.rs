//! The hourly fleet loop, kept as the oracle of [`FleetSim::run`].
//!
//! [`FleetSim::run_hourly`] is the simulation as it was before the run
//! learned to follow events: every hour it scans every job for arrivals,
//! every state twice (reclaims, progress), re-sorts the queue, rebuilds a
//! free-idle table over every SoC of every server and visits every queued
//! job. It keeps no state between hours beyond the jobs' own, so it is
//! easy to trust. The event-driven run must tell the same story bit for
//! bit: the same report bytes and the same telemetry events in the same
//! order.

use super::*;
use proptest::prelude::*;
use socflow_telemetry::MemorySink;
use std::collections::VecDeque;

/// Internal per-job simulation state.
#[derive(Debug, Clone)]
struct JobState {
    remaining_epochs: usize,
    /// Work left in seconds while running (tracks sub-epoch progress).
    remaining_s: f64,
    /// Current epoch cost over the current allocation, seconds.
    epoch_s: f64,
    /// Epoch cost over the job's full ask, priced at its first admission
    /// attempt.
    full_ask_epoch_s: Option<f64>,
    /// Restore stall charged at the next (re-)admission, seconds.
    pending_penalty_s: f64,
    arrived: bool,
    rejected: bool,
    running: Option<Placement>,
    first_admit_s: Option<f64>,
    completed_s: Option<f64>,
    preemptions: usize,
}

#[derive(Debug, Clone)]
struct Placement {
    server: usize,
    /// Server-local SoC indices held by the job.
    socs: Vec<usize>,
}

impl FleetSim {
    /// Runs the simulation to the horizon one hour at a time, scanning
    /// everything every hour, and reports.
    pub(super) fn run_hourly(&self) -> FleetReport {
        let traces: Vec<TidalTrace> = (0..self.spec.servers)
            .map(|i| TidalTrace::generate(self.spec.socs_per_server, self.spec.seed + i as u64))
            .collect();
        let mut alloc: Vec<Vec<Option<usize>>> =
            vec![vec![None; self.spec.socs_per_server]; self.spec.servers];
        let mut states: Vec<JobState> = self
            .jobs
            .iter()
            .map(|req| JobState {
                remaining_epochs: req.spec.epochs,
                remaining_s: 0.0,
                epoch_s: 0.0,
                full_ask_epoch_s: None,
                pending_penalty_s: 0.0,
                arrived: false,
                rejected: false,
                running: None,
                first_admit_s: None,
                completed_s: None,
                preemptions: 0,
            })
            .collect();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut gross_soc_hours = 0.0;
        let mut waste_soc_hours = 0.0;
        let mut idle_soc_hours = 0.0;
        let mut total_preemptions = 0usize;

        for h in 0..self.spec.horizon_hours {
            let now = h as f64 * 3600.0;
            let hour = h % 24;

            // 1. arrivals up to this hour boundary enter the queue
            for (id, req) in self.jobs.iter().enumerate() {
                if !states[id].arrived && req.arrival <= now {
                    states[id].arrived = true;
                    self.emit(Event::JobArrived {
                        job: req.id,
                        at: req.arrival,
                        priority: req.priority,
                        socs: req.spec.socs,
                        epochs: req.spec.epochs,
                    });
                    if fits_memory(&req.spec) {
                        queue.push_back(id);
                    } else {
                        states[id].rejected = true;
                    }
                }
            }

            // 2. the tide turns: reclaim busy SoCs from running jobs —
            // shrink elastically above the floor, preempt below it
            for (id, st) in states.iter_mut().enumerate() {
                let Some(place) = st.running.clone() else {
                    continue;
                };
                let trace = &traces[place.server];
                let survivors: Vec<usize> = place
                    .socs
                    .iter()
                    .copied()
                    .filter(|&s| !trace.is_busy(SocId(s), hour))
                    .collect();
                if survivors.len() == place.socs.len() {
                    continue;
                }
                // reclaimed SoCs go back to their users
                for &s in place
                    .socs
                    .iter()
                    .filter(|&&s| trace.is_busy(SocId(s), hour))
                {
                    alloc[place.server][s] = None;
                }
                let floor = (self.jobs[id].spec.socs * 3).div_ceil(4).max(2);
                if survivors.len() < floor {
                    // preempt: checkpoint at the last epoch boundary —
                    // the partial epoch is lost and re-run later
                    let epochs_left = if st.epoch_s > 0.0 {
                        ((st.remaining_s / st.epoch_s).ceil() as usize).max(1)
                    } else {
                        st.remaining_epochs
                    };
                    let lost_s = (epochs_left as f64 * st.epoch_s - st.remaining_s).max(0.0);
                    waste_soc_hours += lost_s / 3600.0 * place.socs.len() as f64;
                    for &s in &survivors {
                        alloc[place.server][s] = None;
                    }
                    st.running = None;
                    st.remaining_epochs = epochs_left;
                    st.pending_penalty_s = restore_penalty(&self.jobs[id].spec);
                    st.preemptions += 1;
                    total_preemptions += 1;
                    self.emit(Event::JobPreempted {
                        job: self.jobs[id].id,
                        at: now,
                        server: place.server,
                        epochs_left,
                    });
                    queue.push_back(id);
                } else {
                    // elastic shrink: same epochs of work, re-priced over
                    // the surviving subset
                    let new_epoch = priced_epoch_seconds(&self.jobs[id].spec, survivors.len());
                    let progress = if st.epoch_s > 0.0 {
                        st.remaining_s / st.epoch_s
                    } else {
                        st.remaining_epochs as f64
                    };
                    st.remaining_s = progress * new_epoch;
                    st.epoch_s = new_epoch;
                    st.running = Some(Placement {
                        server: place.server,
                        socs: survivors,
                    });
                }
            }

            // 3. admission, in policy order
            let mut order: Vec<usize> = queue.iter().copied().collect();
            match self.spec.policy {
                FleetPolicy::Fifo => order.sort_by(|&a, &b| {
                    self.jobs[a]
                        .arrival
                        .partial_cmp(&self.jobs[b].arrival)
                        .unwrap()
                        .then(a.cmp(&b))
                }),
                FleetPolicy::Tidal => order.sort_by(|&a, &b| {
                    self.jobs[b]
                        .priority
                        .cmp(&self.jobs[a].priority)
                        .then(
                            self.jobs[a]
                                .arrival
                                .partial_cmp(&self.jobs[b].arrival)
                                .unwrap(),
                        )
                        .then(a.cmp(&b))
                }),
            }
            // per server, how many free SoCs stay idle for each look-ahead
            // (`free_idle[server][l - 1]` for `l` hours): a server short
            // of a job's ask is passed over without a scan
            let mut free_idle: Vec<[usize; MAX_LOOKAHEAD]> = traces
                .iter()
                .zip(&alloc)
                .map(|(trace, held)| {
                    let mut counts = [0; MAX_LOOKAHEAD];
                    for s in (0..held.len()).filter(|&s| held[s].is_none()) {
                        let run = trace.idle_run(SocId(s), hour).min(MAX_LOOKAHEAD);
                        counts[..run].iter_mut().for_each(|c| *c += 1);
                    }
                    counts
                })
                .collect();
            for id in order {
                let req = &self.jobs[id];
                let need = req.spec.socs;
                // estimated runtime over a full ask, for the window test;
                // the full ask's price never changes, so it is looked up once
                let est_epoch = *states[id]
                    .full_ask_epoch_s
                    .get_or_insert_with(|| priced_epoch_seconds(&req.spec, need));
                let lookahead = match self.spec.policy {
                    // whatever is idle right now
                    FleetPolicy::Fifo => 1,
                    FleetPolicy::Tidal => {
                        let est_s = states[id].remaining_epochs as f64 * est_epoch
                            + states[id].pending_penalty_s;
                        ((est_s / 3600.0).ceil() as usize).clamp(1, MAX_LOOKAHEAD)
                    }
                };
                let Some(server) = free_idle.iter().position(|c| c[lookahead - 1] >= need) else {
                    continue;
                };
                // the first `need` free SoCs idle through the look-ahead,
                // in SoC order
                let trace = &traces[server];
                let socs: Vec<usize> = (0..self.spec.socs_per_server)
                    .filter(|&s| {
                        alloc[server][s].is_none() && trace.idle_for(SocId(s), hour, lookahead)
                    })
                    .take(need)
                    .collect();
                for &s in &socs {
                    alloc[server][s] = Some(id);
                    let run = trace.idle_run(SocId(s), hour).min(MAX_LOOKAHEAD);
                    free_idle[server][..run].iter_mut().for_each(|c| *c -= 1);
                }
                let st = &mut states[id];
                st.epoch_s = est_epoch;
                st.remaining_s = st.remaining_epochs as f64 * est_epoch + st.pending_penalty_s;
                waste_soc_hours += st.pending_penalty_s / 3600.0 * need as f64;
                st.pending_penalty_s = 0.0;
                st.running = Some(Placement { server, socs });
                if st.first_admit_s.is_none() {
                    st.first_admit_s = Some(now);
                }
                queue.retain(|&q| q != id);
                self.emit(Event::JobAdmitted {
                    job: req.id,
                    at: now,
                    server,
                    socs: need,
                    queue_wait: now - req.arrival,
                });
            }

            // 4. one hour of training progress
            for (id, st) in states.iter_mut().enumerate() {
                let Some(place) = st.running.clone() else {
                    continue;
                };
                if st.remaining_s <= 3600.0 {
                    let finish = now + st.remaining_s;
                    gross_soc_hours += st.remaining_s / 3600.0 * place.socs.len() as f64;
                    st.completed_s = Some(finish);
                    st.remaining_s = 0.0;
                    st.remaining_epochs = 0;
                    st.running = None;
                    for &s in &place.socs {
                        alloc[place.server][s] = None;
                    }
                    self.emit(Event::JobCompleted {
                        job: self.jobs[id].id,
                        at: finish,
                        server: place.server,
                        jct: finish - self.jobs[id].arrival,
                    });
                } else {
                    st.remaining_s -= 3600.0;
                    gross_soc_hours += place.socs.len() as f64;
                }
            }

            // 5. idle-capacity accounting for the utilization denominator
            for trace in &traces {
                idle_soc_hours += (0..self.spec.socs_per_server)
                    .filter(|&s| !trace.is_busy(SocId(s), hour))
                    .count() as f64;
            }
        }

        let outcomes = self
            .jobs
            .iter()
            .zip(&states)
            .map(|(req, st)| JobOutcome {
                id: req.id,
                priority: req.priority,
                arrival_s: req.arrival,
                first_admit_s: st.first_admit_s,
                completed_s: st.completed_s,
                preemptions: st.preemptions,
            })
            .collect();
        self.report(
            outcomes,
            total_preemptions,
            gross_soc_hours,
            waste_soc_hours,
            idle_soc_hours,
        )
    }
}

/// Runs the fleet both ways with a recording sink and returns (report
/// JSON, event JSON lines) of each: event-driven first, hourly second.
fn both_ways(spec: FleetSpec, jobs: Vec<JobRequest>) -> [(String, Vec<String>); 2] {
    let record = |hourly: bool| {
        let sink = Arc::new(MemorySink::new());
        let sim = FleetSim::new(spec, jobs.clone()).with_sink(sink.clone());
        let report = if hourly { sim.run_hourly() } else { sim.run() };
        let events = sink
            .events()
            .iter()
            .map(|e| serde_json::to_string(e).unwrap())
            .collect();
        (serde_json::to_string(&report).unwrap(), events)
    };
    [record(false), record(true)]
}

fn assert_same_story(spec: FleetSpec, jobs: Vec<JobRequest>) -> Result<(), proptest::CaseError> {
    let [(report, events), (want_report, want_events)] = both_ways(spec, jobs);
    prop_assert_eq!(&report, &want_report, "{:?}", spec);
    prop_assert_eq!(events.len(), want_events.len(), "{:?}", spec);
    for (i, (got, want)) in events.iter().zip(&want_events).enumerate() {
        prop_assert_eq!(got, want, "event {} of {:?}", i, spec);
    }
    Ok(())
}

/// The squeezed fleet of `preempted_fleet_jobs_resume_with_work_conserved`
/// (one 40-SoC server), under both policies: under FIFO its jobs shrink
/// and are preempted.
#[test]
fn the_squeezed_fleet_tells_the_hourly_story() {
    for policy in [FleetPolicy::Fifo, FleetPolicy::Tidal] {
        let spec = FleetSpec {
            servers: 1,
            socs_per_server: 40,
            seed: 11,
            horizon_hours: 48,
            policy,
        };
        let [(report, events), (want_report, want_events)] =
            both_ways(spec, standard_job_mix(10, 1800.0, 3));
        assert_eq!(report, want_report, "{policy:?}");
        assert_eq!(events, want_events, "{policy:?}");
        if policy == FleetPolicy::Fifo {
            assert!(events.iter().any(|e| e.contains("JobPreempted")));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random fleets, mixes and horizons — quiet tails included, where
    /// only asks no server can meet are left waiting — tell the hourly
    /// loop's story bit for bit. The trace is rotated so that trace order
    /// and arrival order differ.
    #[test]
    fn event_driven_run_is_the_hourly_loop(
        servers in 1usize..7,
        socs in 4usize..61,
        seed in 0u64..1000,
        horizon in 1usize..201,
        tidal in 0u8..2,
        jobs in 0usize..41,
        interarrival in 300.0f64..7200.0,
        mix_seed in 0u64..1000,
        rotate in 0usize..41,
    ) {
        let spec = FleetSpec {
            servers,
            socs_per_server: socs,
            seed,
            horizon_hours: horizon,
            policy: if tidal == 1 { FleetPolicy::Tidal } else { FleetPolicy::Fifo },
        };
        let mut trace = standard_job_mix(jobs, interarrival, mix_seed);
        trace.rotate_left(rotate.min(jobs));
        assert_same_story(spec, trace)?;
    }
}
