//! Tests of the SoCFlow method as the shared epoch driver
//! ([`super::run`]) runs it: learning, speed against ring all-reduce,
//! INT8 arms, timeline and wait-free pricing, determinism.

#[cfg(test)]
mod tests {
    use super::super::tests::{easy_workload, tiny_engine, tiny_spec};
    use super::super::Engine;
    use crate::config::{Arms, MethodSpec, SocFlowConfig};
    use crate::options::{Pricing, RunOptions};
    use socflow_telemetry::Event;
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
        let mut s8 = tiny_spec(MethodSpec::SocFlow(SocFlowConfig {
            arms: Arms::Int8,
            ..SocFlowConfig::with_groups(2)
        }));
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
