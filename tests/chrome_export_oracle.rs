//! Chrome-trace export oracle over real runs: the context-memoizing
//! exporter must write exactly the bytes of the per-slice reference
//! renderer for MultiStream (2 devices × 3 streams), DLRM-small and
//! U-Net profiled with native unwinding, the timeline, self-telemetry
//! lanes and the incident journal on, under sync and async ingestion —
//! with the CCT and without it, with the run's journal and without it.

use deepcontext::pipeline::IngestionMode;
use deepcontext::prelude::*;
use deepcontext::profiler::{JournalConfig, TimelineConfig};
use deepcontext::timeline::chrome::{to_chrome_trace_reference, to_chrome_trace_with_journal};

fn check(workload: &dyn Workload, devices: usize, mode: IngestionMode) {
    let label = format!("{} {mode:?}", workload.name());
    let bed = TestBed::with_devices(vec![DeviceSpec::a100_sxm(); devices]);
    let monitor = DlMonitor::init(bed.env(), Interner::new());
    monitor.attach_framework(bed.eager().core().callbacks());
    monitor.attach_gpu(bed.gpu());
    let profiler = Profiler::attach(
        ProfilerConfig {
            timeline: TimelineConfig::enabled(),
            telemetry: TelemetryConfig::enabled(),
            journal: JournalConfig::enabled(),
            ingestion_mode: mode,
            ..ProfilerConfig::deepcontext_native()
        },
        bed.env(),
        &monitor,
        bed.gpu(),
    );
    bed.run_eager(workload, &WorkloadOptions::default(), 2)
        .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
    profiler.flush();

    let timeline = profiler.timeline().expect("timeline enabled");
    let journal = profiler.journal_snapshot().expect("journal enabled");
    assert!(!journal.is_empty(), "{label}: lifecycle events journaled");
    assert!(
        timeline.tracks().iter().any(|t| t.key().is_self()),
        "{label}: self-telemetry lanes present"
    );
    profiler.with_cct(|cct| {
        let resolved = timeline
            .tracks()
            .iter()
            .flat_map(|t| t.intervals())
            .filter(|i| i.context.is_some())
            .count();
        assert!(resolved > 0, "{label}: slices carry contexts");
        for cct in [Some(cct), None] {
            for journal in [Some(&journal), None] {
                let memoized = to_chrome_trace_with_journal(&timeline, cct, journal);
                let reference = to_chrome_trace_reference(&timeline, cct, journal);
                assert!(
                    memoized == reference,
                    "{label}: cct {} journal {}: exports differ at byte {}",
                    cct.is_some(),
                    journal.is_some(),
                    memoized
                        .bytes()
                        .zip(reference.bytes())
                        .position(|(a, b)| a != b)
                        .unwrap_or(memoized.len().min(reference.len()))
                );
            }
        }
    });
}

#[test]
fn multi_stream_exports_match_the_per_slice_reference() {
    let multi = MultiStream::default();
    for mode in [IngestionMode::Sync, IngestionMode::Async] {
        check(&multi, multi.devices(), mode);
    }
}

#[test]
fn dlrm_small_exports_match_the_per_slice_reference() {
    for mode in [IngestionMode::Sync, IngestionMode::Async] {
        check(&DlrmSmall, 1, mode);
    }
}

#[test]
fn unet_exports_match_the_per_slice_reference() {
    for mode in [IngestionMode::Sync, IngestionMode::Async] {
        check(&UNet, 1, mode);
    }
}
