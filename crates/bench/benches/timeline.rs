//! Chrome-trace export cost: the per-slice reference renderer, which
//! rebuilds every slice's calling context from the root, against the
//! exporter that renders each context once per export. Divide the
//! reported ns/iter by `SLICES` for ns per slice.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use deepcontext_core::{
    CallingContextTree, Frame, Interval, IntervalKind, NodeId, TimeNs, TrackKey,
};
use deepcontext_timeline::chrome::{to_chrome_trace_reference, to_chrome_trace_with_journal};
use deepcontext_timeline::{TimelineCounters, TimelineSnapshot};

/// Slices per export.
const SLICES: usize = 10_000;
/// Distinct calling contexts the slices land on.
const CONTEXTS: usize = 200;

/// `CONTEXTS` kernel contexts at depth 30 (8 Python frames, an
/// operator, 19 native frames, the launch API, the kernel) that share
/// prefixes the way one model's layers do, and `SLICES` intervals over
/// 2 devices × 3 streams cycling through them.
fn setup() -> (CallingContextTree, TimelineSnapshot) {
    let mut cct = CallingContextTree::new();
    let i = cct.interner();
    let contexts: Vec<NodeId> = (0..CONTEXTS as u64)
        .map(|c| {
            let mut path: Vec<Frame> = (0..8u32)
                .map(|d| {
                    Frame::python(
                        "model.py",
                        10 + d * 7 + (c as u32 % 5) * (d / 6),
                        "forward",
                        &i,
                    )
                })
                .collect();
            path.push(Frame::operator(&format!("aten::op{}", c % 17), &i));
            path.extend((0..19).map(|d| {
                Frame::native(
                    "libtorch_cuda.so",
                    0x1000 + d * 0x40 + c % 3,
                    "at::native::fn",
                    &i,
                )
            }));
            path.push(Frame::gpu_api("cudaLaunchKernel", "libcudart.so", 0x10, &i));
            path.push(Frame::gpu_kernel(
                &format!("kernel_{c}"),
                "m.so",
                0x8000 + c * 0x10,
                &i,
            ));
            cct.insert_path(&path)
        })
        .collect();
    let intervals = (0..SLICES)
        .map(|s| Interval {
            track: TrackKey {
                device: (s % 2) as u32,
                stream: (s % 3) as u32,
            },
            start: TimeNs(s as u64 * 1_250),
            end: TimeNs(s as u64 * 1_250 + 1_001),
            kind: IntervalKind::Kernel,
            name: i.intern(&format!("kernel_{}", s % CONTEXTS)),
            correlation: s as u64,
            context: Some(contexts[s % CONTEXTS]),
        })
        .collect();
    let snapshot = TimelineSnapshot::from_intervals(
        intervals,
        TimelineCounters {
            recorded: SLICES as u64,
            dropped: 0,
        },
    )
    .with_names(i.snapshot());
    (cct, snapshot)
}

fn bench_chrome_export(c: &mut Criterion) {
    let mut group = c.benchmark_group("chrome_export");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let (cct, snapshot) = setup();
    assert_eq!(
        to_chrome_trace_with_journal(&snapshot, Some(&cct), None),
        to_chrome_trace_reference(&snapshot, Some(&cct), None)
    );

    group.bench_function(
        "per_slice_reference_10000_slices_200_contexts_depth30",
        |b| {
            b.iter(|| to_chrome_trace_reference(&snapshot, Some(&cct), None).len());
        },
    );
    group.bench_function("memoized_10000_slices_200_contexts_depth30", |b| {
        b.iter(|| to_chrome_trace_with_journal(&snapshot, Some(&cct), None).len());
    });
    group.finish();
}

criterion_group!(benches, bench_chrome_export);
criterion_main!(benches);
