//! Bounded per-epoch telemetry digests of a simulated epoch.
//!
//! An epoch at paper scale simulates hundreds of iterations; the schedule
//! is periodic, so the first couple of spans per lane characterize the
//! rest. The digests keep those plus every epoch-boundary phase, which
//! keeps traces bounded.

use crate::sim::{BucketFlush, Lane, Span};
use socflow_telemetry::Event;

/// How many items of each key a digest keeps: spans per `(lane, kind)`
/// pair, bucket flushes per `(cg, bucket)` pair.
pub(super) const SPAN_DIGEST_PER_LANE: usize = 2;

/// The first [`SPAN_DIGEST_PER_LANE`] items of each key, in input order.
fn head_per_key<'a, T, K: PartialEq>(items: &'a [T], key: impl Fn(&'a T) -> K) -> Vec<&'a T> {
    let mut counts: Vec<(K, usize)> = Vec::new();
    items
        .iter()
        .filter(|item| {
            let k = key(item);
            let i = counts
                .iter()
                .position(|(seen, _)| *seen == k)
                .unwrap_or_else(|| {
                    counts.push((k, 0));
                    counts.len() - 1
                });
            counts[i].1 += 1;
            counts[i].1 <= SPAN_DIGEST_PER_LANE
        })
        .collect()
}

/// A begin/end event pair for one span on the run clock.
fn span_pair(epoch: usize, kind: &str, lane: Lane, start: f64, end: f64) -> [Event; 2] {
    let lane = lane.to_string();
    [
        Event::SpanBegin {
            epoch,
            kind: kind.to_string(),
            lane: lane.clone(),
            at: start,
        },
        Event::SpanEnd {
            epoch,
            kind: kind.to_string(),
            lane,
            at: end,
        },
    ]
}

/// A span on the `"cluster"` lane: phases that involve the whole job
/// (crash-recovery stalls, checkpoint persists).
pub(super) fn cluster_span(epoch: usize, kind: &str, at: f64, duration: f64) -> [Event; 2] {
    span_pair(epoch, kind, Lane::Cluster, at, at + duration)
}

/// The span digest of one simulated epoch: the first
/// [`SPAN_DIGEST_PER_LANE`] spans of each (lane, kind) pair, with span
/// times shifted from epoch-local onto the run clock by `offset`. Only
/// the spans kept have their lane formatted. Boundary phases (leader
/// ring, broadcast, shuffle) occur once per epoch on the `"cluster"`
/// lane, so the cap never drops them.
pub(super) fn span_digest(epoch: usize, offset: f64, spans: &[Span]) -> Vec<Event> {
    head_per_key(spans, |s| (s.lane, s.kind))
        .into_iter()
        .flat_map(|s| span_pair(epoch, s.kind, s.lane, offset + s.start, offset + s.end))
        .collect()
}

/// The [`Event::BucketFlushed`] digest of one wait-free epoch: the first
/// [`SPAN_DIGEST_PER_LANE`] flushes of each `(cg, bucket)` pair, with
/// times shifted by `offset` and each bucket's layer range looked up in
/// the active overlap plan's `layers`.
pub(super) fn bucket_digest(
    epoch: usize,
    offset: f64,
    flushes: &[BucketFlush],
    layers: &[(usize, usize)],
) -> Vec<Event> {
    head_per_key(flushes, |f| (f.cg, f.bucket))
        .into_iter()
        .map(|f| {
            let (layer_first, layer_last) = layers.get(f.bucket).copied().unwrap_or((0, 0));
            Event::BucketFlushed {
                epoch,
                cg: f.cg,
                bucket: f.bucket,
                layer_first,
                layer_last,
                bytes: f.bytes,
                at: offset + f.at,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(lane: Lane, kind: &'static str, start: f64) -> Span {
        Span {
            lane,
            kind,
            start,
            end: start + 1.0,
        }
    }

    #[test]
    fn keeps_at_most_the_cap_per_key_in_input_order() {
        let keys = [1, 2, 1, 1, 3, 2, 2, 1];
        let kept: Vec<usize> = head_per_key(&keys, |k| *k)
            .into_iter()
            .map(|k| *k as usize)
            .collect();
        assert_eq!(kept, vec![1, 2, 1, 3, 2]);
        assert!(head_per_key(&[] as &[u8], |k| *k).is_empty());
    }

    #[test]
    fn span_digest_caps_periodic_lanes_and_never_drops_boundary_phases() {
        let mut spans = Vec::new();
        for it in 0..50 {
            let t = it as f64 * 10.0;
            spans.push(span(Lane::Group(0), "compute", t));
            spans.push(span(Lane::Group(1), "compute", t));
            spans.push(span(Lane::Cg(0), "sync", t + 1.0));
        }
        for (i, kind) in ["leader_ring", "broadcast", "shuffle"]
            .into_iter()
            .enumerate()
        {
            spans.push(span(Lane::Cluster, kind, 500.0 + i as f64));
        }
        let events = span_digest(3, 1000.0, &spans);
        let begins: Vec<(&str, &str, f64)> = events
            .iter()
            .filter_map(|e| match e {
                Event::SpanBegin {
                    epoch,
                    kind,
                    lane,
                    at,
                } => {
                    assert_eq!(*epoch, 3);
                    Some((lane.as_str(), kind.as_str(), *at))
                }
                _ => None,
            })
            .collect();
        assert_eq!(events.len(), 2 * begins.len(), "every span closes");
        for key in [("g0", "compute"), ("g1", "compute"), ("cg0", "sync")] {
            let n = begins.iter().filter(|b| (b.0, b.1) == key).count();
            assert_eq!(n, SPAN_DIGEST_PER_LANE, "{key:?}");
        }
        for kind in ["leader_ring", "broadcast", "shuffle"] {
            assert_eq!(
                begins.iter().filter(|b| b.1 == kind).count(),
                1,
                "boundary phase {kind} must survive the cap"
            );
        }
        assert_eq!(begins[0].2, 1000.0, "times land on the run clock");
    }

    #[test]
    fn bucket_digest_caps_per_cg_and_bucket_and_names_layers() {
        let flushes: Vec<BucketFlush> = (0..20)
            .map(|i| BucketFlush {
                cg: i % 2,
                bucket: (i / 2) % 2,
                bytes: 64.0,
                at: i as f64,
            })
            .collect();
        let events = bucket_digest(1, 5.0, &flushes, &[(4, 6), (0, 3)]);
        assert_eq!(events.len(), 4 * SPAN_DIGEST_PER_LANE);
        for e in &events {
            let Event::BucketFlushed {
                bucket,
                layer_first,
                layer_last,
                at,
                ..
            } = e
            else {
                panic!("unexpected {e:?}");
            };
            let want = if *bucket == 0 { (4, 6) } else { (0, 3) };
            assert_eq!((*layer_first, *layer_last), want);
            assert!(*at >= 5.0);
        }
        assert!(bucket_digest(1, 0.0, &[], &[]).is_empty());
    }

    #[test]
    fn cluster_span_is_one_closed_pair() {
        let [begin, end] = cluster_span(2, "stall", 10.0, 2.5);
        assert!(matches!(
            begin,
            Event::SpanBegin { epoch: 2, ref kind, ref lane, at }
                if kind == "stall" && lane == "cluster" && at == 10.0
        ));
        assert!(matches!(end, Event::SpanEnd { at, .. } if at == 12.5));
    }
}
