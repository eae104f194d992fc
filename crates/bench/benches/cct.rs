//! Microbenchmarks for the calling context tree (paper Figure 5
//! operations: insert call path, aggregate metrics, propagate metrics),
//! plus PC-sampling attribution: the per-sample loop against the
//! aggregated record fold.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::time::Duration;

use deepcontext_core::{CallingContextTree, Frame, MetricKind, NodeId, StallReason};

fn paths(cct: &CallingContextTree, distinct: usize, depth: usize) -> Vec<Vec<Frame>> {
    let interner = cct.interner();
    (0..distinct)
        .map(|p| {
            (0..depth)
                .map(|d| {
                    if d + 1 == depth {
                        Frame::gpu_kernel(
                            &format!("kernel_{p}"),
                            "m.so",
                            0x1000 + p as u64 * 0x10,
                            &interner,
                        )
                    } else {
                        Frame::python("model.py", (p * depth + d) as u32 % 97, "layer", &interner)
                    }
                })
                .collect()
        })
        .collect()
}

/// Samples per PC-sampling iteration: divide the reported ns/iter by
/// 1000 for ns per instruction sample.
const PC_SAMPLES_PER_ITER: usize = 1000;

/// A kernel context at native-unwinding depth (Python, operator,
/// 30 native frames, launch API, kernel) and `PC_SAMPLES_PER_ITER`
/// samples over four PCs and three stall reasons, cut into records of
/// `per_record` samples. JIT runs mix both ends: most records hold one
/// or two samples, and a few long kernels carry most of the samples in
/// records of hundreds.
fn pc_sampling_setup(
    per_record: usize,
) -> (CallingContextTree, NodeId, Vec<Vec<(u64, StallReason)>>) {
    let mut cct = CallingContextTree::new();
    let i = cct.interner();
    let mut path: Vec<Frame> = (0..12)
        .map(|d| Frame::python("model.py", 10 + d, "forward", &i))
        .collect();
    path.push(Frame::operator("aten::linear", &i));
    path.extend((0..30).map(|d| Frame::native("libtorch.so", 0x1000 + d * 0x40, "fn", &i)));
    path.push(Frame::gpu_api(
        "hipModuleLaunchKernel",
        "libamdhip64.so",
        0x10,
        &i,
    ));
    path.push(Frame::gpu_kernel("fused_gemm", "jit.hsaco", 0x8000, &i));
    let kernel = cct.insert_path(&path);
    let stalls = [
        StallReason::MemoryDependency,
        StallReason::MathDependency,
        StallReason::None,
    ];
    let records = (0..PC_SAMPLES_PER_ITER / per_record)
        .map(|r| {
            (0..per_record)
                .map(|s| (((s * 7 + r) % 4 * 0x10) as u64, stalls[(s * 5 + r) % 3]))
                .collect()
        })
        .collect();
    (cct, kernel, records)
}

fn bench_pc_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("pc_sampling");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for per_record in [100, 1] {
        group.bench_function(
            format!("per_sample_loop_1000_samples_{per_record}_per_record_depth46"),
            |b| {
                let (mut cct, kernel, records) = pc_sampling_setup(per_record);
                b.iter(|| {
                    for record in &records {
                        for &(pc, stall) in record {
                            let child = cct.insert_child(kernel, &Frame::instruction(pc));
                            cct.attribute(child, MetricKind::InstructionSamples, 1.0);
                            cct.attribute(child, MetricKind::Stall(stall), 1.0);
                        }
                    }
                });
            },
        );

        group.bench_function(
            format!("aggregated_1000_samples_{per_record}_per_record_depth46"),
            |b| {
                let (mut cct, kernel, records) = pc_sampling_setup(per_record);
                b.iter(|| {
                    let mut samples = 0;
                    for record in &records {
                        samples +=
                            cct.attribute_instruction_samples(kernel, record.iter().copied());
                    }
                    samples
                });
            },
        );
    }

    group.finish();
}

fn bench_cct(c: &mut Criterion) {
    let mut group = c.benchmark_group("cct");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    group.bench_function("insert_cold_1000_paths_depth8", |b| {
        let template = CallingContextTree::new();
        let ps = paths(&template, 1000, 8);
        b.iter_batched(
            || CallingContextTree::with_interner(template.interner()),
            |mut cct| {
                for p in &ps {
                    cct.insert_path(p);
                }
                cct
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("insert_warm_reuses_nodes", |b| {
        let mut cct = CallingContextTree::new();
        let ps = paths(&cct, 200, 8);
        for p in &ps {
            cct.insert_path(p);
        }
        b.iter(|| {
            let mut last = None;
            for p in &ps {
                last = Some(cct.insert_path(p));
            }
            last
        });
    });

    group.bench_function("attribute_with_propagation_depth8", |b| {
        let mut cct = CallingContextTree::new();
        let ps = paths(&cct, 100, 8);
        let leaves: Vec<_> = ps.iter().map(|p| cct.insert_path(p)).collect();
        b.iter(|| {
            for leaf in &leaves {
                cct.attribute(*leaf, MetricKind::GpuTime, 123.0);
            }
        });
    });

    group.bench_function("merge_two_200_node_trees", |b| {
        let template = CallingContextTree::new();
        let ps_a = paths(&template, 100, 6);
        let ps_b = paths(&template, 100, 6);
        b.iter_batched(
            || {
                let mut a = CallingContextTree::with_interner(template.interner());
                let mut bt = CallingContextTree::with_interner(template.interner());
                for p in &ps_a {
                    let l = a.insert_path(p);
                    a.attribute(l, MetricKind::GpuTime, 1.0);
                }
                for p in &ps_b {
                    let l = bt.insert_path(p);
                    bt.attribute(l, MetricKind::GpuTime, 1.0);
                }
                (a, bt)
            },
            |(mut a, bt)| {
                a.merge(&bt);
                a
            },
            BatchSize::SmallInput,
        );
    });

    group.finish();
}

criterion_group!(benches, bench_cct, bench_pc_sampling);
criterion_main!(benches);
