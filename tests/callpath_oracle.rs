//! End-to-end call-path oracle: on every paper workload, both engines
//! and both shipped call-path configurations, every path DLMonitor
//! builds for a GPU interception or a CPU sample equals the reference
//! builder's, and the finished profile accounts for exactly the kernels
//! and device time the simulator ran.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use deepcontext::prelude::*;
use deepcontext::runtime::SampleKind;
use parking_lot::Mutex;

#[derive(Clone, Copy, Debug)]
enum Engine {
    Eager,
    Jit,
}

/// Path comparisons made and the first disagreement seen.
#[derive(Default)]
struct Oracle {
    compared: AtomicU64,
    mismatches: AtomicU64,
    first: Mutex<Option<String>>,
}

impl Oracle {
    fn check(&self, what: &str, got: CallPath, want: CallPath) {
        self.compared.fetch_add(1, Ordering::Relaxed);
        if got != want {
            self.mismatches.fetch_add(1, Ordering::Relaxed);
            self.first
                .lock()
                .get_or_insert_with(|| format!("{what}: {got:?} != {want:?}"));
        }
    }
}

fn check_workload(
    workload: &dyn Workload,
    bed: TestBed,
    engine: Engine,
    config: ProfilerConfig,
    label: &str,
) {
    let monitor = DlMonitor::init(bed.env(), Interner::new());
    let core = match engine {
        Engine::Eager => Arc::clone(bed.eager().core()),
        Engine::Jit => Arc::clone(bed.jit().core()),
    };
    monitor.attach_framework(core.callbacks());
    monitor.attach_gpu(bed.gpu());
    let profiler = Profiler::attach(config, bed.env(), &monitor, bed.gpu());

    let oracle = Arc::new(Oracle::default());
    let (m, o) = (Arc::clone(&monitor), Arc::clone(&oracle));
    monitor.callback_register(Domain::Gpu, move |event| {
        if let DlEvent::Gpu(gpu) = event {
            o.check(
                "gpu",
                m.callpath_for_gpu(gpu),
                m.callpath_for_gpu_reference(gpu),
            );
        }
    });
    let (m, o) = (Arc::clone(&monitor), Arc::clone(&oracle));
    let sampler = bed.env().samplers().register(
        SampleKind::CpuTime,
        TimeNs::from_us(40).as_nanos(),
        move |thread, _| {
            o.check(
                "sample",
                m.callpath_get(thread),
                m.callpath_reference(thread),
            )
        },
    );

    let opts = WorkloadOptions::default();
    let stats = match engine {
        Engine::Eager => bed.run_eager(workload, &opts, 2),
        Engine::Jit => bed.run_jit(workload, &opts, 2),
    }
    .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
    bed.env().samplers().unregister(sampler);

    assert_eq!(
        oracle.mismatches.load(Ordering::Relaxed),
        0,
        "{label}: {}",
        oracle.first.lock().as_deref().unwrap_or_default()
    );
    assert!(
        oracle.compared.load(Ordering::Relaxed) > stats.kernels,
        "{label}: every launch and some samples were compared"
    );

    let db = profiler.finish(ProfileMeta {
        workload: workload.name().into(),
        ..Default::default()
    });
    let cct = db.cct();
    assert_eq!(
        cct.total(MetricKind::KernelLaunches),
        stats.kernels as f64,
        "{label}: launches"
    );
    assert_eq!(
        cct.total(MetricKind::GpuTime),
        stats.gpu_busy.as_nanos() as f64,
        "{label}: device time"
    );
}

fn check_all(config: fn() -> ProfilerConfig, config_name: &str) {
    for workload in all_workloads() {
        for (engine, spec) in [
            (Engine::Eager, DeviceSpec::a100_sxm()),
            (Engine::Jit, DeviceSpec::mi250()),
        ] {
            let label = format!("{} {engine:?} {config_name}", workload.name());
            check_workload(
                workload.as_ref(),
                TestBed::new(spec),
                engine,
                config(),
                &label,
            );
        }
    }
    let multi = MultiStream::default();
    let bed = TestBed::with_devices(vec![DeviceSpec::a100_sxm(); multi.devices()]);
    check_workload(
        &multi,
        bed,
        Engine::Eager,
        config(),
        &format!("multi-stream {config_name}"),
    );
}

#[test]
fn deepcontext_paths_match_the_reference_builder() {
    check_all(ProfilerConfig::deepcontext, "deepcontext");
}

#[test]
fn deepcontext_native_paths_match_the_reference_builder() {
    check_all(ProfilerConfig::deepcontext_native, "deepcontext-native");
}
