//! Cost of the pure call-path integration merge (paper §4.1, "Call Path
//! Integration") at varying stack depths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;

use deepcontext_core::{Interner, OpPhase};
use dlmonitor::{integrate_call_path, IntegrationInput, ShadowOp};
use sim_runtime::{NativeFrameInfo, PyFrameInfo};

fn input(py_depth: usize, native_depth: usize) -> IntegrationInput {
    let python: Vec<PyFrameInfo> = (0..py_depth)
        .map(|i| PyFrameInfo::new("model.py", i as u32, "layer"))
        .collect();
    let mut native = vec![NativeFrameInfo::new(
        "libpython3.11.so",
        0x1,
        "_PyEval_EvalFrameDefault",
    )];
    native.extend(
        (0..native_depth).map(|i| NativeFrameInfo::new("libtorch.so", 0x100 + i as u64, "impl")),
    );
    let native_is_python: Vec<bool> = std::iter::once(true)
        .chain(std::iter::repeat_n(false, native_depth))
        .collect();
    IntegrationInput {
        python,
        operators: vec![ShadowOp {
            name: Arc::from("aten::conv2d"),
            phase: OpPhase::Forward,
            seq_id: Some(1),
            native_depth: 1,
        }],
        native,
        native_is_python,
    }
}

fn bench_integration(c: &mut Criterion) {
    let mut group = c.benchmark_group("integration");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    let interner = Interner::new();
    for depth in [4usize, 16, 64] {
        let inp = input(depth, depth);
        group.bench_with_input(BenchmarkId::new("merge_depth", depth), &inp, |b, inp| {
            b.iter(|| integrate_call_path(inp, &interner));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_integration);
criterion_main!(benches);
