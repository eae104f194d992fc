//! Property-based tests for the core invariants the rest of DeepContext
//! relies on: CCT structural consistency, inclusive-metric propagation,
//! Welford aggregation accuracy, bit-exact repeated-sample fast paths,
//! merge correctness, and database round-tripping.

use std::sync::Arc;

use deepcontext_core::{
    CallingContextTree, CctShard, Frame, Interner, MetricKind, MetricStat, NodeId, OpPhase,
    ProfileDb, ProfileMeta, StallReason,
};
use proptest::prelude::*;

/// A compact generator language for frames: small alphabets force collisions
/// so collapse rules actually get exercised.
fn arb_frame(interner: Arc<Interner>) -> impl Strategy<Value = Frame> {
    let i2 = Arc::clone(&interner);
    let i3 = Arc::clone(&interner);
    let i4 = Arc::clone(&interner);
    prop_oneof![
        (0u8..4, 1u32..5, 0u8..3).prop_map(move |(f, line, func)| Frame::python(
            &format!("file{f}.py"),
            line,
            &format!("fn{func}"),
            &interner
        )),
        (0u8..5, prop::bool::ANY).prop_map(move |(n, bwd)| Frame::operator_with(
            &format!("aten::op{n}"),
            if bwd {
                OpPhase::Backward
            } else {
                OpPhase::Forward
            },
            None,
            &i2
        )),
        (0u8..3, 0u64..6).prop_map(move |(lib, pc)| Frame::native(
            &format!("lib{lib}.so"),
            pc * 0x10,
            &format!("sym{pc}"),
            &i3
        )),
        (0u8..4, 0u64..4).prop_map(move |(k, pc)| Frame::gpu_kernel(
            &format!("kernel{k}"),
            "module.so",
            pc * 0x100,
            &i4
        )),
    ]
}

fn arb_paths() -> impl Strategy<Value = (Arc<Interner>, Vec<Vec<Frame>>)> {
    let interner = Interner::new();
    let frames = arb_frame(Arc::clone(&interner));
    prop::collection::vec(prop::collection::vec(frames, 1..8), 1..40)
        .prop_map(move |paths| (Arc::clone(&interner), paths))
}

/// A copy of `MetricStat::add` as it was before its fast path: the
/// textbook Welford update the fast paths must reproduce bit for bit.
#[derive(Debug, Clone, Copy)]
struct Textbook {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    mean: f64,
    m2: f64,
}

impl Textbook {
    fn new() -> Self {
        Textbook {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            mean: 0.0,
            m2: 0.0,
        }
    }

    fn add(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Count, then the bit patterns of sum, min, max, mean and M2.
    fn bits(&self) -> (u64, [u64; 5]) {
        (
            self.count,
            [self.sum, self.min, self.max, self.mean, self.m2].map(f64::to_bits),
        )
    }
}

fn stat_bits(stat: &MetricStat) -> (u64, [u64; 5]) {
    (
        stat.count,
        [stat.sum, stat.min, stat.max, stat.mean(), stat.m2()].map(f64::to_bits),
    )
}

const TWO_53: f64 = 9_007_199_254_740_992.0;

/// Sample values mixing non-integers, small integers of both signs,
/// zeros, and magnitudes whose sums approach 2^53.
fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e6f64..1e6,
        (-40i64..40).prop_map(|v| v as f64),
        prop::sample::select(vec![0.0, -0.0, 1.0, -1.0, 0.1, 2.5, -3.75]),
        (0u64..16).prop_map(|k| TWO_53 - k as f64),
        (1u64..8).prop_map(|k| (1u64 << 50) as f64 * k as f64),
    ]
}

/// A prior history: a run of random values, then a run of one repeated
/// value (so the running mean often equals the next value exactly).
fn arb_history() -> impl Strategy<Value = Vec<f64>> {
    (
        prop::collection::vec(arb_value(), 0..12),
        arb_value(),
        0usize..12,
    )
        .prop_map(|(mut values, repeated, times)| {
            values.extend(std::iter::repeat_n(repeated, times));
            values
        })
}

/// Replays `history` into a `MetricStat` (fast-path `add`) and a
/// `Textbook`, asserting they agree bit for bit after every sample.
fn replay(history: &[f64]) -> (MetricStat, Textbook) {
    let mut stat = MetricStat::new();
    let mut book = Textbook::new();
    for &v in history {
        stat.add(v);
        book.add(v);
        assert_eq!(stat_bits(&stat), book.bits(), "after adding {v:?}");
    }
    (stat, book)
}

/// Whether `add_repeated(value, n)` on `stat` may take the closed form.
fn closed_form_applies(stat: &MetricStat, value: f64, n: u64) -> bool {
    value.to_bits() == stat.mean().to_bits()
        && value != 0.0
        && value.fract() == 0.0
        && stat.sum.fract() == 0.0
        && stat.sum.abs() + n as f64 * value.abs() < TWO_53
}

/// Checks `add_repeated(value, n)` against `n` textbook adds.
fn check_add_repeated(history: &[f64], value: f64, n: u64) {
    let (mut stat, mut book) = replay(history);
    stat.add_repeated(value, n);
    for _ in 0..n {
        book.add(value);
    }
    assert_eq!(
        stat_bits(&stat),
        book.bits(),
        "{history:?} then {value:?} x {n}"
    );
}

/// The attribution every sink performed before PC-sampling records were
/// aggregated: one child and two propagating attributions per sample.
fn per_sample_reference(
    tree: &mut CallingContextTree,
    node: NodeId,
    samples: &[(u64, StallReason)],
) {
    for &(pc, stall) in samples {
        let child = tree.insert_child(node, &Frame::instruction(pc));
        tree.attribute(child, MetricKind::InstructionSamples, 1.0);
        tree.attribute(child, MetricKind::Stall(stall), 1.0);
    }
}

/// Asserts two trees are identical node for node: ids, frame keys,
/// child order and every metric's count and bit patterns.
fn assert_trees_bit_identical(got: &CallingContextTree, want: &CallingContextTree) {
    assert_eq!(got.node_count(), want.node_count());
    let ids: Vec<NodeId> = want.dfs().collect();
    assert_eq!(got.dfs().collect::<Vec<_>>(), ids);
    for id in ids {
        let (g, w) = (got.node(id), want.node(id));
        assert_eq!(g.frame().key(), w.frame().key(), "{id}");
        assert_eq!(g.children(), w.children(), "{id}");
        let bits = |n: &deepcontext_core::CctNode| -> Vec<_> {
            n.metrics().iter().map(|(k, s)| (k, stat_bits(s))).collect()
        };
        assert_eq!(bits(g), bits(w), "{id}");
    }
}

#[test]
fn add_repeated_covers_the_closed_form_and_the_loop() {
    let two_51 = (1u64 << 51) as f64;
    let cases: [(&[f64], f64, u64, bool); 8] = [
        // A constant count: the PC-sampling case.
        (&[1.0; 3], 1.0, 1_000, true),
        (&[-7.0, -7.0], -7.0, 40, true),
        // A fresh aggregate takes one Welford step, then the closed form.
        (&[], 1.0, 5, false),
        // Non-integral values never take the closed form.
        (&[0.1; 3], 0.1, 50, false),
        (&[2.5; 2], 2.5, 9, false),
        // The running mean differs from the value.
        (&[2.0, 4.0], 1.0, 6, false),
        // The sum would reach 2^53.
        (&[two_51; 3], two_51, 1, false),
        (&[two_51; 3], two_51, 3, false),
    ];
    for (history, value, n, closed) in cases {
        let (stat, _) = replay(history);
        assert_eq!(
            closed_form_applies(&stat, value, n),
            closed,
            "{history:?} then {value:?} x {n}"
        );
        check_add_repeated(history, value, n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fast_path_add_equals_the_textbook_update(history in arb_history(), tail in arb_history()) {
        let mut history = history;
        history.extend(tail);
        replay(&history);
    }

    #[test]
    fn add_repeated_equals_repeated_adds(
        history in arb_history(),
        value in arb_value(),
        repeat_last in prop::bool::ANY,
        n in 0u64..300,
    ) {
        let value = match history.last() {
            Some(&last) if repeat_last => last,
            _ => value,
        };
        check_add_repeated(&history, value, n);
    }

    #[test]
    fn instruction_sample_fold_equals_per_sample_attribution(
        (interner, paths) in arb_paths(),
        records in prop::collection::vec(
            (
                0usize..40,
                prop::collection::vec(
                    (0u64..12, prop::sample::select(StallReason::ALL.to_vec())),
                    0..40,
                ),
            ),
            1..12,
        ),
        prior_in_kernel in prop::bool::ANY,
    ) {
        // Up to 12 distinct PCs per record exercises the heap spill past
        // the inline tally; a non-count prior sample makes the nodes'
        // running mean differ from 1.0, forcing the per-sample loop.
        let mut folded = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut reference = CallingContextTree::with_interner(Arc::clone(&interner));
        for (pick, samples) in &records {
            let path = &paths[pick % paths.len()];
            let node = folded.insert_path(path);
            prop_assert_eq!(reference.insert_path(path), node);
            if prior_in_kernel {
                folded.attribute(node, MetricKind::InstructionSamples, 2.5);
                reference.attribute(node, MetricKind::InstructionSamples, 2.5);
            }
            let n = folded.attribute_instruction_samples(node, samples.iter().copied());
            per_sample_reference(&mut reference, node, samples);
            prop_assert_eq!(n, samples.len() as u64);
        }
        assert_trees_bit_identical(&folded, &reference);
        prop_assert_eq!(folded.approx_tree_bytes(), reference.approx_tree_bytes());
    }

    #[test]
    fn repeated_attribution_equals_repeated_calls(
        (interner, paths) in arb_paths(),
        value in arb_value(),
        n in 0u64..64,
        exclusive in prop::bool::ANY,
    ) {
        let mut once = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut looped = CallingContextTree::with_interner(Arc::clone(&interner));
        for path in &paths {
            let node = once.insert_path(path);
            looped.insert_path(path);
            if exclusive {
                once.attribute_exclusive_repeated(node, MetricKind::Warps, value, n);
                for _ in 0..n {
                    looped.attribute_exclusive(node, MetricKind::Warps, value);
                }
            } else {
                once.attribute_repeated(node, MetricKind::GpuTime, value, n);
                for _ in 0..n {
                    looped.attribute(node, MetricKind::GpuTime, value);
                }
            }
        }
        assert_trees_bit_identical(&once, &looped);
    }

    #[test]
    fn cct_structure_is_consistent((interner, paths) in arb_paths()) {
        let mut cct = CallingContextTree::with_interner(interner);
        for p in &paths {
            cct.insert_path(p);
        }
        // Every node except root has a parent that lists it as a child.
        for id in cct.dfs() {
            let node = cct.node(id);
            match node.parent() {
                None => prop_assert_eq!(id, cct.root()),
                Some(parent) => {
                    prop_assert!(cct.node(parent).children().contains(&id));
                }
            }
            // Children of one node never share a collapse key.
            let keys: Vec<_> = node.children().iter().map(|c| cct.node(*c).frame().key()).collect();
            let mut dedup = keys.clone();
            dedup.sort_by_key(|k| format!("{k:?}"));
            dedup.dedup();
            prop_assert_eq!(keys.len(), dedup.len());
        }
        // DFS visits every node exactly once.
        prop_assert_eq!(cct.dfs().count(), cct.node_count());
    }

    #[test]
    fn reinsertion_is_idempotent((interner, paths) in arb_paths()) {
        let mut cct = CallingContextTree::with_interner(interner);
        let leaves: Vec<_> = paths.iter().map(|p| cct.insert_path(p)).collect();
        let count = cct.node_count();
        for (p, leaf) in paths.iter().zip(&leaves) {
            prop_assert_eq!(cct.insert_path(p), *leaf);
        }
        prop_assert_eq!(cct.node_count(), count);
    }

    #[test]
    fn node_count_bounded_by_total_frames((interner, paths) in arb_paths()) {
        let mut cct = CallingContextTree::with_interner(interner);
        for p in &paths {
            cct.insert_path(p);
        }
        let total_frames: usize = paths.iter().map(Vec::len).sum();
        prop_assert!(cct.node_count() <= 1 + total_frames);
    }

    #[test]
    fn propagation_keeps_root_equal_to_sample_total(
        (interner, paths) in arb_paths(),
        values in prop::collection::vec(0.0f64..1e6, 1..40),
    ) {
        let mut cct = CallingContextTree::with_interner(interner);
        let mut expected_sum = 0.0;
        let mut expected_count = 0u64;
        for (p, v) in paths.iter().zip(values.iter().cycle()) {
            let leaf = cct.insert_path(p);
            cct.attribute(leaf, MetricKind::GpuTime, *v);
            expected_sum += *v;
            expected_count += 1;
        }
        let root = cct.root_metric(MetricKind::GpuTime).unwrap();
        prop_assert!((root.sum - expected_sum).abs() < 1e-6 * expected_sum.max(1.0));
        prop_assert_eq!(root.count, expected_count);
    }

    #[test]
    fn parent_inclusive_metric_dominates_children(
        (interner, paths) in arb_paths(),
        values in prop::collection::vec(0.0f64..1e6, 1..40),
    ) {
        let mut cct = CallingContextTree::with_interner(interner);
        for (p, v) in paths.iter().zip(values.iter().cycle()) {
            let leaf = cct.insert_path(p);
            cct.attribute(leaf, MetricKind::GpuTime, *v);
        }
        for id in cct.dfs() {
            let parent_sum = cct.node(id).metrics().sum(MetricKind::GpuTime);
            let child_total: f64 = cct
                .node(id)
                .children()
                .iter()
                .map(|c| cct.node(*c).metrics().sum(MetricKind::GpuTime))
                .sum();
            prop_assert!(parent_sum + 1e-9 >= child_total - 1e-6 * child_total.abs());
        }
    }

    #[test]
    fn welford_matches_naive(values in prop::collection::vec(-1e7f64..1e7, 1..200)) {
        let mut stat = MetricStat::new();
        for v in &values {
            stat.add(*v);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        prop_assert!((stat.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((stat.stddev() - var.sqrt()).abs() <= 1e-5 * var.sqrt().max(1.0));
        prop_assert_eq!(stat.min, values.iter().copied().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(stat.max, values.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    #[test]
    fn stat_merge_is_equivalent_to_concatenation(
        a in prop::collection::vec(-1e6f64..1e6, 0..100),
        b in prop::collection::vec(-1e6f64..1e6, 0..100),
    ) {
        let mut merged = MetricStat::new();
        for v in &a {
            merged.add(*v);
        }
        let mut other = MetricStat::new();
        for v in &b {
            other.add(*v);
        }
        merged.merge(&other);

        let mut whole = MetricStat::new();
        for v in a.iter().chain(&b) {
            whole.add(*v);
        }
        prop_assert_eq!(merged.count, whole.count);
        prop_assert!((merged.sum - whole.sum).abs() <= 1e-6 * whole.sum.abs().max(1.0));
        prop_assert!((merged.mean() - whole.mean()).abs() <= 1e-6 * whole.mean().abs().max(1.0));
        prop_assert!((merged.stddev() - whole.stddev()).abs() <= 1e-5 * whole.stddev().max(1.0));
    }

    #[test]
    fn tree_merge_preserves_totals(
        (interner, paths) in arb_paths(),
        split in 0usize..40,
    ) {
        let mut whole = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut left = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut right = CallingContextTree::with_interner(interner);
        for (idx, p) in paths.iter().enumerate() {
            let lw = whole.insert_path(p);
            whole.attribute(lw, MetricKind::GpuTime, 1.0);
            let target = if idx < split % paths.len().max(1) { &mut left } else { &mut right };
            let l = target.insert_path(p);
            target.attribute(l, MetricKind::GpuTime, 1.0);
        }
        left.merge(&right);
        prop_assert_eq!(left.node_count(), whole.node_count());
        prop_assert_eq!(
            left.total(MetricKind::GpuTime),
            whole.total(MetricKind::GpuTime)
        );
    }

    #[test]
    fn tree_merge_commutes_on_metric_sums(
        (interner, paths) in arb_paths(),
        values in prop::collection::vec(0.0f64..1e6, 1..40),
        split in 0usize..40,
    ) {
        let mut left = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut right = CallingContextTree::with_interner(interner);
        for (idx, (p, v)) in paths.iter().zip(values.iter().cycle()).enumerate() {
            let target = if idx < split % paths.len().max(1) { &mut left } else { &mut right };
            let leaf = target.insert_path(p);
            target.attribute(leaf, MetricKind::GpuTime, *v);
        }
        let mut ab = left.clone();
        ab.merge(&right);
        let mut ba = right.clone();
        ba.merge(&left);
        prop_assert_eq!(ab.node_count(), ba.node_count());
        let sa = ab.total(MetricKind::GpuTime);
        let sb = ba.total(MetricKind::GpuTime);
        prop_assert!((sa - sb).abs() <= 1e-9 * sa.abs().max(1.0));
        let ra = ab.root_metric(MetricKind::GpuTime).map(|s| s.count).unwrap_or(0);
        let rb = ba.root_metric(MetricKind::GpuTime).map(|s| s.count).unwrap_or(0);
        prop_assert_eq!(ra, rb);
    }

    #[test]
    fn merge_preserves_frame_collapse_rules((interner, paths) in arb_paths(), split in 0usize..40) {
        let mut left = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut right = CallingContextTree::with_interner(interner);
        for (idx, p) in paths.iter().enumerate() {
            let target = if idx < split % paths.len().max(1) { &mut left } else { &mut right };
            target.insert_path(p);
        }
        left.merge(&right);
        // No parent ends up with two children sharing a collapse key, and
        // re-inserting every path finds existing nodes (no duplicates).
        for id in left.dfs() {
            let keys: Vec<_> = left
                .node(id)
                .children()
                .iter()
                .map(|c| left.node(*c).frame().key())
                .collect();
            let mut dedup = keys.clone();
            dedup.sort_by_key(|k| format!("{k:?}"));
            dedup.dedup();
            prop_assert_eq!(keys.len(), dedup.len());
        }
        let count = left.node_count();
        for p in &paths {
            left.insert_path(p);
        }
        prop_assert_eq!(left.node_count(), count);
    }

    #[test]
    fn merge_never_propagates_exclusive_metrics_rootward(
        (interner, paths) in arb_paths(),
        warps in prop::collection::vec(1.0f64..64.0, 1..40),
    ) {
        let mut left = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut right = CallingContextTree::with_interner(interner);
        let mut expected = 0.0;
        for (idx, (p, w)) in paths.iter().zip(warps.iter().cycle()).enumerate() {
            let target = if idx % 2 == 0 { &mut left } else { &mut right };
            let leaf = target.insert_path(p);
            target.attribute_exclusive(leaf, MetricKind::Warps, *w);
            expected += *w;
        }
        left.merge(&right);
        // Exclusive metrics live only where they were attributed: the sum
        // over all nodes equals the sum of samples, and any node carrying
        // Warps either was a leaf-attribution target or absorbed one —
        // never the root unless a path was empty (arb paths are non-empty).
        let mut total = 0.0;
        for id in left.dfs() {
            total += left.node(id).metrics().sum(MetricKind::Warps);
        }
        prop_assert!((total - expected).abs() <= 1e-9 * expected.max(1.0));
        prop_assert!(left.root_metric(MetricKind::Warps).is_none());
    }

    #[test]
    fn merge_mapping_points_at_equivalent_contexts((interner, paths) in arb_paths()) {
        let mut target = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut other = CallingContextTree::with_interner(interner);
        for (idx, p) in paths.iter().enumerate() {
            if idx % 2 == 0 {
                target.insert_path(p);
            } else {
                other.insert_path(p);
            }
        }
        let mapping = target.merge(&other);
        prop_assert_eq!(mapping.len(), other.node_count());
        for id in other.dfs() {
            let mapped = mapping[id.index()];
            // Same collapse key, and the parent relationship survives.
            prop_assert_eq!(
                format!("{:?}", target.node(mapped).frame().key()),
                format!("{:?}", other.node(id).frame().key())
            );
            if let Some(parent) = other.node(id).parent() {
                prop_assert_eq!(target.node(mapped).parent(), Some(mapping[parent.index()]));
            }
        }
    }

    #[test]
    fn shard_fold_equals_direct_ingestion(
        (interner, paths) in arb_paths(),
        values in prop::collection::vec(0.0f64..1e6, 1..40),
        shard_count in 1usize..9,
    ) {
        // Ingesting through round-robin shards then folding must agree
        // with one tree ingesting everything (the sharded pipeline's
        // correctness core).
        let mut whole = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut shards: Vec<CctShard> = (0..shard_count)
            .map(|_| CctShard::new(Arc::clone(&interner)))
            .collect();
        for (idx, (p, v)) in paths.iter().zip(values.iter().cycle()).enumerate() {
            let leaf = whole.insert_path(p);
            whole.attribute(leaf, MetricKind::GpuTime, *v);
            let shard = &mut shards[idx % shard_count];
            let leaf = shard.tree_mut().insert_path(p);
            shard.tree_mut().attribute(leaf, MetricKind::GpuTime, *v);
        }
        let mut master = CctShard::new(interner);
        for shard in &shards {
            master.merge_from(shard);
        }
        let folded = master.into_tree();
        prop_assert_eq!(folded.node_count(), whole.node_count());
        let fs = folded.total(MetricKind::GpuTime);
        let ws = whole.total(MetricKind::GpuTime);
        prop_assert!((fs - ws).abs() <= 1e-9 * ws.abs().max(1.0));
        prop_assert_eq!(
            folded.root_metric(MetricKind::GpuTime).unwrap().count,
            whole.root_metric(MetricKind::GpuTime).unwrap().count
        );
    }

    #[test]
    fn profile_db_round_trips(
        (interner, paths) in arb_paths(),
        values in prop::collection::vec(0.0f64..1e6, 1..40),
        iterations in 0u64..1000,
    ) {
        let mut cct = CallingContextTree::with_interner(interner);
        for (p, v) in paths.iter().zip(values.iter().cycle()) {
            let leaf = cct.insert_path(p);
            cct.attribute(leaf, MetricKind::GpuTime, *v);
            cct.attribute_exclusive(leaf, MetricKind::Warps, 32.0);
        }
        let db = ProfileDb::new(
            ProfileMeta {
                workload: "prop".into(),
                framework: "eager".into(),
                platform: "nvidia-a100".into(),
                iterations,
                ..Default::default()
            },
            cct,
        );
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let back = ProfileDb::load(&buf[..]).unwrap();
        prop_assert_eq!(back.meta(), db.meta());
        prop_assert_eq!(back.cct().node_count(), db.cct().node_count());
        prop_assert_eq!(
            back.cct().render(MetricKind::GpuTime),
            db.cct().render(MetricKind::GpuTime)
        );
        prop_assert_eq!(
            back.cct().render(MetricKind::Warps),
            db.cct().render(MetricKind::Warps)
        );
    }

    #[test]
    fn incremental_fold_of_a_growing_tree_matches_one_shot_merge(
        (interner, paths) in arb_paths(),
        values in prop::collection::vec(1u32..1000, 1..40),
        fold_every in 1usize..6,
    ) {
        // Grow a source tree path by path, folding it into a master
        // every few steps through one resumed FoldState; the master
        // must always equal a one-shot merge of the source's current
        // state (the shard-level guarantee behind snapshot caching).
        let mut source = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut master = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut state = deepcontext_core::FoldState::new();
        for (step, (p, v)) in paths.iter().zip(values.iter().cycle()).enumerate() {
            let leaf = source.insert_path(p);
            source.attribute(leaf, MetricKind::GpuTime, f64::from(*v));
            source.attribute_exclusive(leaf, MetricKind::Warps, 32.0);
            if step % fold_every == 0 {
                master.merge_incremental(&source, &mut state);
                let mut fresh = CallingContextTree::with_interner(Arc::clone(&interner));
                fresh.merge(&source);
                prop_assert_eq!(master.semantic_diff(&fresh), None);
            }
        }
        master.merge_incremental(&source, &mut state);
        let mut fresh = CallingContextTree::with_interner(Arc::clone(&interner));
        fresh.merge(&source);
        prop_assert_eq!(master.semantic_diff(&fresh), None);
        prop_assert_eq!(state.folded_nodes(), source.node_count());
    }
}
