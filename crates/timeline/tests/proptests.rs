//! Byte-identity of the Chrome-trace exporter: the context-memoizing
//! exporter against the per-slice reference renderer, over random
//! trees (every frame kind, paths up to 64 deep, names that need
//! escaping) and random intervals (no context, the root, out-of-range
//! ids, zero-length and sub-microsecond spans), with and without the
//! CCT, the captured names table and an incident journal.

use std::sync::Arc;

use deepcontext_core::{
    CallingContextTree, Frame, Interner, Interval, IntervalKind, NodeId, OpPhase, StoredJournal,
    StoredJournalEvent, ThreadRole, TimeNs, TrackKey,
};
use deepcontext_timeline::chrome::{to_chrome_trace_reference, to_chrome_trace_with_journal};
use deepcontext_timeline::{TimelineCounters, TimelineSnapshot};
use proptest::prelude::*;

/// Names that exercise every escape: quotes, backslashes, newlines,
/// control characters, non-ASCII, the empty string and the `" > "`
/// separator itself.
const NAMES: &[&str] = &[
    "sgemm",
    "quo\"te",
    "back\\slash",
    "new\nline",
    "tab\tcr\r",
    "ctl\u{1}\u{1f}\u{7f}",
    "ünïcødé ✓ 核",
    "",
    "a > b",
    "model.py",
];

fn name(i: u8) -> &'static str {
    NAMES[i as usize % NAMES.len()]
}

/// One frame of every kind, chosen by `kind`.
fn frame(kind: u8, a: u8, b: u8, pc: u64, interner: &Interner) -> Frame {
    match kind % 10 {
        0 => Frame::Root,
        1 => Frame::thread(u64::from(a), ThreadRole::Main),
        2 => Frame::python(name(a), u32::from(b), name(b.wrapping_add(1)), interner),
        3 => Frame::operator(name(a), interner),
        4 => Frame::operator_with(name(a), OpPhase::Backward, Some(pc), interner),
        5 => Frame::operator_with(name(a), OpPhase::Forward, Some(pc), interner),
        6 => Frame::native(name(a), pc, name(b), interner),
        7 => Frame::gpu_api(name(a), name(b), pc, interner),
        8 => Frame::gpu_kernel(name(a), name(b), pc, interner),
        _ => Frame::instruction(pc),
    }
}

/// `(kind, name a, name b, pc)` of one frame.
type FrameSpec = (u8, u8, u8, u64);
/// `(device, stream, start, duration, memcpy, name, correlation, context)`.
type IntervalSpec = (u8, u8, u64, u64, bool, u8, u64, u16);

fn arb_paths() -> impl Strategy<Value = Vec<Vec<FrameSpec>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..10, 0u8..12, 0u8..12, 0u64..4), 1..65),
        0..10,
    )
}

fn arb_intervals() -> impl Strategy<Value = Vec<IntervalSpec>> {
    let duration = prop_oneof![
        Just(0u64).boxed(),
        (1u64..1_000).boxed(),
        (1_000u64..5_000_000).boxed(),
    ];
    prop::collection::vec(
        (
            0u8..4,
            0u8..4,
            0u64..10_000_000,
            duration,
            prop::bool::ANY,
            0u8..14,
            0u64..1_000_000,
            0u16..1_000,
        ),
        0..120,
    )
}

/// A journal whose fields need escaping and whose second event names an
/// unknown site.
fn journal() -> StoredJournal {
    StoredJournal {
        events: vec![
            StoredJournalEvent {
                seq: 1,
                ts_ns: 999,
                severity: 1,
                site: 0,
                fields: vec![
                    ("from".into(), "Healthy".into()),
                    ("k\"\n".into(), "v\\ü".into()),
                ],
            },
            StoredJournalEvent {
                seq: 2,
                ts_ns: 2_000,
                severity: 2,
                site: 7,
                fields: Vec::new(),
            },
        ],
        names: vec![Arc::from("supervisor.transition")],
        recorded: 2,
        evicted: 0,
    }
}

/// A node id no test tree reaches: the trees hold at most 9 × 64 + 1
/// nodes.
fn out_of_range() -> NodeId {
    let mut big = CallingContextTree::new();
    let i = big.interner();
    let path: Vec<Frame> = (0..700)
        .map(|pc| Frame::native("lib.so", pc, "f", &i))
        .collect();
    big.insert_path(&path)
}

fn snapshot(
    cct: &CallingContextTree,
    nodes: &[NodeId],
    intervals: &[IntervalSpec],
    far: NodeId,
) -> TimelineSnapshot {
    let interner = cct.interner();
    let intervals = intervals
        .iter()
        .map(
            |&(device, stream, start, duration, memcpy, n, correlation, context)| {
                // Device 3 stands for the profiler's own self lanes.
                let track = if device == 3 {
                    TrackKey {
                        device: TrackKey::SELF_DEVICE,
                        stream: [
                            0,
                            3,
                            TrackKey::SELF_STREAM_FLUSH,
                            TrackKey::SELF_STREAM_FOLD,
                        ][stream as usize],
                    }
                } else {
                    TrackKey {
                        device: u32::from(device),
                        stream: u32::from(stream),
                    }
                };
                let context = match context % 8 {
                    0 => None,
                    1 => Some(NodeId::ROOT),
                    2 => Some(far),
                    _ if nodes.is_empty() => None,
                    _ => Some(nodes[context as usize % nodes.len()]),
                };
                Interval {
                    track,
                    start: TimeNs(start),
                    end: TimeNs(start + duration),
                    kind: if memcpy {
                        IntervalKind::Memcpy
                    } else {
                        IntervalKind::Kernel
                    },
                    name: interner.intern(name(n)),
                    correlation,
                    context,
                }
            },
        )
        .collect();
    TimelineSnapshot::from_intervals(
        intervals,
        TimelineCounters {
            recorded: 0,
            dropped: 0,
        },
    )
}

/// Asserts byte identity with and without the CCT and the journal.
fn assert_identical(snapshot: &TimelineSnapshot, cct: &CallingContextTree) {
    let journal = journal();
    for cct in [Some(cct), None] {
        for journal in [None, Some(&journal)] {
            assert_eq!(
                to_chrome_trace_with_journal(snapshot, cct, journal),
                to_chrome_trace_reference(snapshot, cct, journal),
                "cct {} journal {}",
                cct.is_some(),
                journal.is_some()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn memoized_export_equals_the_per_slice_reference(
        paths in arb_paths(),
        intervals in arb_intervals(),
        names_table in prop::bool::ANY,
    ) {
        let mut cct = CallingContextTree::new();
        let interner = cct.interner();
        let mut nodes = Vec::new();
        for path in &paths {
            let frames: Vec<Frame> = path
                .iter()
                .map(|&(kind, a, b, pc)| frame(kind, a, b, pc * 0x10, &interner))
                .collect();
            // Every node on the path, not only the leaf: slices land on
            // inner contexts too.
            let leaf = cct.insert_path(&frames);
            nodes.extend(cct.path_to_root(leaf));
        }
        let far = out_of_range();
        prop_assert!(far.index() >= cct.node_count());
        let mut snapshot = snapshot(&cct, &nodes, &intervals, far);
        if names_table {
            snapshot = snapshot.with_names(interner.snapshot());
        }
        assert_identical(&snapshot, &cct);
    }
}

#[test]
fn empty_snapshot_exports_identically() {
    let cct = CallingContextTree::new();
    let empty = snapshot(&cct, &[], &[], out_of_range());
    assert!(empty.is_empty());
    assert_identical(&empty, &cct);
}

#[test]
fn empty_labels_and_separators_in_labels_match_the_joined_path() {
    // An empty label under the root and a label containing the
    // separator: the memo must still reproduce the joined string.
    let mut cct = CallingContextTree::new();
    let i = cct.interner();
    let leaf = cct.insert_path(&[
        Frame::operator("", &i),
        Frame::operator("a > b", &i),
        Frame::gpu_kernel("k\"", "m.so", 0x10, &i),
    ]);
    let nodes = cct.path_to_root(leaf);
    // Contexts 3..=6 pick the leaf, the root, then the two operators.
    let intervals: Vec<IntervalSpec> = (0..4u16)
        .map(|c| (0, 0, u64::from(c) * 10, 5, false, 0, 1, 3 + c))
        .collect();
    let snapshot = snapshot(&cct, &nodes, &intervals, out_of_range());
    let json = to_chrome_trace_with_journal(&snapshot, Some(&cct), None);
    assert!(
        json.contains("\"context\":\" > a > b > k\\\" [kernel] (m.so+0x10)\""),
        "{json}"
    );
    assert!(json.contains("\"context\":\" > a > b\""));
    assert!(json.contains("\"context\":\"\""), "the root renders empty");
    assert_identical(&snapshot, &cct);
}
