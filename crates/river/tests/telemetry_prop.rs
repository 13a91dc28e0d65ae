//! Property tests for telemetry snapshot merging plus the sharded
//! telemetry parity guarantee (ISSUE 9 satellite 3).
//!
//! 1. [`Snapshot::merge`] is associative, and commutative up to stage
//!    ordering (stages are keyed by name; the left operand's order
//!    wins, so commuting the operands may permute the stage list but
//!    never its contents). Event lists merge as multisets under the
//!    total `Ord` on [`TelemetryEvent`], so they are order-insensitive
//!    exactly.
//! 2. Histograms merge bucket-wise: every bucket of the merge is the
//!    sum of the operands' buckets, counts add, maxima take the max.
//! 3. A scope-sharded run (workers = 4) records into one shared
//!    registry, so its merged per-stage totals — record counts, drop
//!    counts, bucket-count sums — equal a single-lane run's over the
//!    same input, and the scope-event multiset (kind, subject) is
//!    identical modulo interleave.

use dynamic_river::prelude::*;
use dynamic_river::telemetry::{
    EventKind, HistogramSnapshot, Snapshot, StageSnapshot, TelemetryEvent, HISTOGRAM_BUCKETS,
};
use proptest::prelude::*;

/// Stage-name pool: small so generated snapshots overlap by name and
/// the by-name merge path is actually exercised.
const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];

fn arb_hist() -> impl Strategy<Value = HistogramSnapshot> {
    proptest::collection::vec((0usize..HISTOGRAM_BUCKETS, 1u64..100), 0..6).prop_map(|entries| {
        let mut h = HistogramSnapshot::default();
        for (bucket, n) in entries {
            h.buckets[bucket] += n;
            h.count += n;
            // Attribute a plausible latency mass to the bucket so
            // `sum_ns`/`max_ns` merge non-trivially (capped so the
            // merge-addition property itself cannot overflow).
            let ns = 1u64 << bucket.min(32);
            h.sum_ns += ns * n;
            h.max_ns = h.max_ns.max(ns);
        }
        h
    })
}

fn arb_event() -> impl Strategy<Value = TelemetryEvent> {
    let kind = prop_oneof![
        Just(EventKind::ScopeOpen),
        Just(EventKind::ScopeClose),
        Just(EventKind::TriggerFire),
        Just(EventKind::StallEnter),
        Just(EventKind::SessionDrain),
    ];
    (0u64..50, kind, 0u64..4, 0u64..100).prop_map(|(seq, kind, lane, subject)| TelemetryEvent {
        seq,
        kind,
        lane,
        subject,
    })
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        proptest::collection::vec((any::<bool>(), arb_hist(), 0u64..5), NAMES.len()),
        proptest::collection::vec(arb_event(), 0..8),
        0u64..5,
    )
        .prop_map(|(stages, events, events_dropped)| Snapshot {
            stages: NAMES
                .iter()
                .zip(stages)
                .filter(|(_, (present, _, _))| *present)
                .map(|(name, (_, latency, drops))| StageSnapshot {
                    name: (*name).to_string(),
                    latency,
                    drops,
                })
                .collect(),
            events,
            events_dropped,
        })
}

fn merged(a: &Snapshot, b: &Snapshot) -> Snapshot {
    let mut m = a.clone();
    m.merge(b);
    m
}

/// Stage order is merge-argument-order dependent by design; sort by
/// name before comparing commuted merges.
fn by_name(mut s: Snapshot) -> Snapshot {
    s.stages.sort_by(|a, b| a.name.cmp(&b.name));
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn merge_is_associative(a in arb_snapshot(), b in arb_snapshot(), c in arb_snapshot()) {
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    #[test]
    fn merge_is_commutative_up_to_stage_order(a in arb_snapshot(), b in arb_snapshot()) {
        prop_assert_eq!(by_name(merged(&a, &b)), by_name(merged(&b, &a)));
    }

    #[test]
    fn histograms_merge_bucket_wise(a in arb_hist(), b in arb_hist()) {
        let mut m = a.clone();
        m.merge(&b);
        for i in 0..HISTOGRAM_BUCKETS {
            prop_assert_eq!(m.buckets[i], a.buckets[i] + b.buckets[i]);
        }
        prop_assert_eq!(m.count, a.count + b.count);
        prop_assert_eq!(m.sum_ns, a.sum_ns + b.sum_ns);
        prop_assert_eq!(m.max_ns, a.max_ns.max(b.max_ns));
    }

    #[test]
    fn percentiles_are_monotone(h in arb_hist()) {
        prop_assert!(h.p50_ns() <= h.p90_ns());
        prop_assert!(h.p90_ns() <= h.p99_ns());
    }
}

/// A cloneable two-stage chain: a mapper plus a filter that drops every
/// odd-seq data record (so per-stage drop accounting is exercised too).
fn chain() -> Pipeline {
    let mut p = Pipeline::new();
    p.add(MapPayload::new("gain", |v: &mut [f64]| {
        v.iter_mut().for_each(|x| *x *= 2.0);
    }));
    p.add(RecordFilter::new("decimate", |r: &Record| {
        r.kind != RecordKind::Data || r.seq.is_multiple_of(2)
    }));
    p
}

/// Eight top-level scope units of sixteen data records each — enough
/// units for every one of four workers to see work.
fn units() -> Vec<Record> {
    let mut v = Vec::new();
    for unit in 0..8u64 {
        v.push(Record::open_scope(1, vec![]));
        for i in 0..16u64 {
            v.push(Record::data(0, Payload::f64(vec![unit as f64, i as f64])).with_seq(i));
        }
        v.push(Record::close_scope(1));
    }
    v
}

/// Scope-event multiset: (kind, subject) pairs, order-normalized.
fn scope_events(s: &Snapshot) -> Vec<(EventKind, u64)> {
    let mut v: Vec<(EventKind, u64)> = s
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ScopeOpen | EventKind::ScopeClose))
        .map(|e| (e.kind, e.subject))
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn sharded_merged_telemetry_equals_single_lane_totals() {
    // Single-lane reference run.
    let mut single = chain();
    single.set_telemetry(TelemetryConfig::Full);
    let mut lane_out = Vec::new();
    single
        .run_streaming(units().into_iter(), &mut lane_out)
        .unwrap();
    let lane = single.telemetry_snapshot();

    // Sharded run: four workers sharing one registry.
    let mut proto = chain();
    proto.set_telemetry(TelemetryConfig::Full);
    let mut shard_out = Vec::new();
    proto
        .run_sharded(units().into_iter(), &mut shard_out, 4)
        .unwrap();
    let merged = proto.telemetry_snapshot();

    // Output parity is the existing sharding guarantee; telemetry
    // parity rides on it.
    assert_eq!(shard_out, lane_out);

    // Per-stage totals: same stages, same record counts, same drop
    // counts, and every histogram's bucket counts sum to its total.
    assert_eq!(
        merged.stages.iter().map(|s| &s.name).collect::<Vec<_>>(),
        lane.stages.iter().map(|s| &s.name).collect::<Vec<_>>()
    );
    for (m, l) in merged.stages.iter().zip(&lane.stages) {
        assert_eq!(m.latency.count, l.latency.count, "stage {}", m.name);
        assert_eq!(m.drops, l.drops, "stage {}", m.name);
        assert_eq!(m.latency.buckets.iter().sum::<u64>(), m.latency.count);
        assert_eq!(l.latency.buckets.iter().sum::<u64>(), l.latency.count);
    }
    // The filter dropped the 8 odd-seq records per unit in both runs.
    let decimate = &merged.stages[1];
    assert_eq!(decimate.drops, 8 * 8);

    // Scope events are emitted where records enter the run (driver or
    // splitter), so the multisets match modulo interleave.
    assert_eq!(scope_events(&merged), scope_events(&lane));
    assert!(!scope_events(&lane).is_empty());

    // The sharded run additionally traces its unit lifecycle: every
    // dispatched unit was merged back.
    let dispatched = merged
        .events
        .iter()
        .filter(|e| e.kind == EventKind::ShardUnitDispatched)
        .count();
    let merged_units = merged
        .events
        .iter()
        .filter(|e| e.kind == EventKind::ShardUnitMerged)
        .count();
    assert_eq!(dispatched, 8);
    assert_eq!(merged_units, 8);
}
