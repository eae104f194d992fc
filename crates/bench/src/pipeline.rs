//! Asynchronous-pipeline cost harness.
//!
//! Two questions, answered over the same pre-built event streams:
//!
//! 1. **Producer-side cost** — what does the monitored workload pay per
//!    event? Inline (synchronous) ingestion pays routing + shard lock +
//!    tree mutation + metric folds on the producer thread; asynchronous
//!    ingestion pays routing + a directory bind + a bounded-channel
//!    push of the owned event. The async sink is given queue headroom
//!    for the whole measured window so the number isolates the enqueue
//!    path (backpressure never engages — the regime the pipeline is
//!    designed to run in). Launch paths are handed over by value
//!    (`gpu_launch_owned`), as the profiler's callback does, so neither
//!    mode clones a path in the timed loop.
//! 2. **End-to-end throughput** — events/sec from first enqueue to full
//!    drain, where the asynchronous pipeline must also pay its workers.
//!    On a single-core host this bounds the overhead of the decoupling;
//!    on multi-core hosts attribution overlaps the workload.
//!
//! Both questions are asked for two stream shapes: **coarse** (kernel
//! records only — the cheapest possible attribution) and
//! **fine-grained** (each kernel preceded by a PC-sampling record, the
//! paper's §6.7 instruction-level mode) — where inline attribution must
//! extend call paths per sampled PC and the producer-side win is
//! largest.

use std::sync::Arc;
use std::time::Instant;

use deepcontext_core::{CallPath, Interner, StallReason};
use deepcontext_profiler::{
    AsyncSink, BackpressurePolicy, BatchingSink, EventSink, Failpoints, HealthReport,
    JournalConfig, PipelineConfig, ShardedSink, SinkCounters, TelemetryConfig, TimelineConfig,
    DEFAULT_LAUNCH_BATCH,
};
use dlmonitor::EventOrigin;
use sim_gpu::{Activity, ActivityKind, ApiKind, PcSample};

use crate::ingestion::{producer_stream, BATCH};

/// Shards both sinks use (the profiler default).
pub const SHARDS: usize = 16;

/// One pre-built launch with every activity record it produces.
pub struct PipelineEvent {
    /// Routing identity (thread, stream, correlation).
    pub origin: EventOrigin,
    /// The unified call path bound at the launch site.
    pub path: CallPath,
    /// The activity records that later resolve through the correlation
    /// (sampling records first, terminal kernel record last).
    pub activities: Vec<Activity>,
}

/// Kernel-record-only stream: the cheapest attribution per event.
pub fn coarse_stream(interner: &Arc<Interner>, ops: usize) -> Vec<PipelineEvent> {
    producer_stream(interner, 0, ops)
        .into_iter()
        .map(|e| PipelineEvent {
            origin: e.origin,
            path: e.path,
            activities: vec![e.activity],
        })
        .collect()
}

/// Fine-grained stream: each kernel also delivers a PC-sampling record
/// with `samples_per_kernel` instruction samples (stall-reason rotation),
/// the §6.7 instruction-level profiling shape.
pub fn fine_grained_stream(
    interner: &Arc<Interner>,
    ops: usize,
    samples_per_kernel: usize,
) -> Vec<PipelineEvent> {
    const STALLS: [StallReason; 4] = [
        StallReason::MemoryDependency,
        StallReason::ExecutionDependency,
        StallReason::ConstantMemory,
        StallReason::None,
    ];
    producer_stream(interner, 0, ops)
        .into_iter()
        .map(|e| {
            let name = match &e.activity.kind {
                ActivityKind::Kernel { name, .. } => Arc::clone(name),
                _ => Arc::from("kernel"),
            };
            let samples: Vec<PcSample> = (0..samples_per_kernel)
                .map(|s| PcSample {
                    pc: 0x40 + (s as u64 % 16) * 8,
                    stall: STALLS[s % STALLS.len()],
                })
                .collect();
            let sampling = Activity {
                correlation_id: e.activity.correlation_id,
                device: e.activity.device,
                kind: ActivityKind::PcSampling { name, samples },
            };
            PipelineEvent {
                origin: e.origin,
                path: e.path,
                activities: vec![sampling, e.activity],
            }
        })
        .collect()
}

/// One measured pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelinePoint {
    /// Scenario label (report key).
    pub scenario: String,
    /// Producer-side nanoseconds per event (launch + its activities).
    pub producer_ns_per_event: f64,
    /// End-to-end nanoseconds per event (producers + full drain).
    pub total_ns_per_event: f64,
    /// Pipeline counters after the run (drops, queue depth, utilization).
    pub counters: SinkCounters,
}

/// The per-repeat owned inputs a producer hands the sink: one path per
/// launch and one runtime-owned activity buffer per chunk — prepared
/// outside the timed region, exactly as the real collection paths
/// receive them (the monitor builds each `CallPath` fresh, the GPU
/// runtime owns the buffers it flushes).
pub(crate) struct ProducerInputs {
    paths: Vec<CallPath>,
    batches: Vec<Vec<Activity>>,
}

pub(crate) fn prepare(events: &[PipelineEvent]) -> ProducerInputs {
    ProducerInputs {
        paths: events.iter().map(|e| e.path.clone()).collect(),
        batches: events
            .chunks(BATCH)
            .map(|chunk| {
                chunk
                    .iter()
                    .flat_map(|e| e.activities.iter().cloned())
                    .collect()
            })
            .collect(),
    }
}

/// Drives one stream: launch bursts handing paths over by value, then
/// the chunk's activity buffer by value — the shape the GPU runtime
/// delivers them in.
pub(crate) fn drive_producer(
    sink: &dyn EventSink,
    events: &[PipelineEvent],
    inputs: ProducerInputs,
) {
    let mut paths = inputs.paths.into_iter();
    let mut batches = inputs.batches.into_iter();
    for chunk in events.chunks(BATCH) {
        for e in chunk {
            let path = paths.next().expect("one pre-built path per event");
            sink.gpu_launch_owned(&e.origin, path, ApiKind::LaunchKernel);
        }
        let batch = batches.next().expect("one pre-built batch per chunk");
        sink.activity_batch_owned(batch);
    }
}

fn measure_once(
    sink: &dyn EventSink,
    events: &[PipelineEvent],
    inputs: ProducerInputs,
    finish: impl FnOnce(),
) -> (f64, f64) {
    let start = Instant::now();
    drive_producer(sink, events, inputs);
    let producer = start.elapsed().as_nanos() as f64;
    finish();
    let total = start.elapsed().as_nanos() as f64;
    let n = events.len() as f64;
    (producer / n, total / n)
}

/// Measures inline (synchronous) ingestion of `events`: the producer
/// loop *is* the whole pipeline.
pub fn measure_sync(
    label: &str,
    events: &[PipelineEvent],
    interner: &Arc<Interner>,
    repeats: usize,
) -> PipelinePoint {
    let mut best: Option<(f64, f64)> = None;
    let mut counters = SinkCounters::default();
    for _ in 0..repeats.max(1) {
        let sink = ShardedSink::new(Arc::clone(interner), SHARDS);
        let inputs = prepare(events);
        let point = measure_once(sink.as_ref(), events, inputs, || {});
        counters = sink.counters();
        best = Some(match best {
            Some((p, t)) => (p.min(point.0), t.min(point.1)),
            None => point,
        });
    }
    let (producer, total) = best.expect("at least one repeat");
    PipelinePoint {
        scenario: format!("{label}_sync_inline"),
        producer_ns_per_event: producer,
        total_ns_per_event: total,
        counters,
    }
}

/// Measures asynchronous ingestion of `events` under the default `Block`
/// policy with queue headroom for the entire stream and the worker pool
/// **parked** during the producer loop — so the producer number isolates
/// the enqueue path itself (no backpressure, and on few-core hosts no
/// worker stealing the producer's core mid-measurement) — then resumes
/// the pool and drains for the end-to-end number. `launch_batch` sets
/// the thread-local producer-batching threshold (1 = unbatched).
pub fn measure_async(
    label: &str,
    events: &[PipelineEvent],
    interner: &Arc<Interner>,
    workers: usize,
    repeats: usize,
    launch_batch: usize,
) -> PipelinePoint {
    let mut best: Option<(f64, f64)> = None;
    let mut counters = SinkCounters::default();
    for _ in 0..repeats.max(1) {
        let inner = ShardedSink::new(Arc::clone(interner), SHARDS);
        let sink = AsyncSink::new(
            inner,
            PipelineConfig {
                workers,
                // Headroom for every message of the stream: backpressure
                // never engages inside the measured window.
                queue_capacity: events.len() + events.len() / BATCH + SHARDS + 1,
                backpressure: BackpressurePolicy::Block,
                launch_batch,
                ..PipelineConfig::default()
            },
        );
        let inputs = prepare(events);
        sink.pause();
        let point = measure_once(sink.as_ref(), events, inputs, || {
            sink.resume();
            sink.drain();
        });
        counters = sink.counters();
        assert_eq!(
            counters.dropped_events, 0,
            "Block policy must never drop events"
        );
        best = Some(match best {
            Some((p, t)) => (p.min(point.0), t.min(point.1)),
            None => point,
        });
    }
    let (producer, total) = best.expect("at least one repeat");
    PipelinePoint {
        scenario: format!("{label}_async_enqueue_w{workers}_b{launch_batch}"),
        producer_ns_per_event: producer,
        total_ns_per_event: total,
        counters,
    }
}

/// Measures synchronous ingestion through the thread-local batching
/// wrapper ([`BatchingSink`]): producers buffer `launch_batch` events,
/// then apply each shard's run under one lock acquisition.
pub fn measure_sync_batched(
    label: &str,
    events: &[PipelineEvent],
    interner: &Arc<Interner>,
    repeats: usize,
    launch_batch: usize,
) -> PipelinePoint {
    let mut best: Option<(f64, f64)> = None;
    let mut counters = SinkCounters::default();
    for _ in 0..repeats.max(1) {
        let sink = BatchingSink::new(ShardedSink::new(Arc::clone(interner), SHARDS), launch_batch);
        let inputs = prepare(events);
        let point = measure_once(sink.as_ref(), events, inputs, || sink.flush_batches());
        counters = sink.counters();
        best = Some(match best {
            Some((p, t)) => (p.min(point.0), t.min(point.1)),
            None => point,
        });
    }
    let (producer, total) = best.expect("at least one repeat");
    PipelinePoint {
        scenario: format!("{label}_sync_batched_b{launch_batch}"),
        producer_ns_per_event: producer,
        total_ns_per_event: total,
        counters,
    }
}

/// The batch sizes the sweep measures (1 = unbatched baseline).
pub const BATCH_SWEEP: [usize; 4] = [1, 8, 64, 256];

/// The full comparison: sync inline vs async enqueue over the coarse and
/// fine-grained streams — the asynchronous side swept across
/// [`BATCH_SWEEP`] producer batch sizes, plus one batched synchronous
/// point at the default batch — one producer, `ops` events, best of
/// `repeats`.
pub fn pipeline_matrix(
    ops: usize,
    samples_per_kernel: usize,
    repeats: usize,
) -> Vec<PipelinePoint> {
    let interner = Interner::new();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get().min(SHARDS))
        .unwrap_or(1);
    let coarse = coarse_stream(&interner, ops);
    let fine = fine_grained_stream(&interner, ops, samples_per_kernel);
    let mut points = vec![
        measure_sync("coarse", &coarse, &interner, repeats),
        measure_sync("fine", &fine, &interner, repeats),
    ];
    for &batch in &BATCH_SWEEP {
        points.push(measure_async(
            "coarse", &coarse, &interner, workers, repeats, batch,
        ));
        points.push(measure_async(
            "fine", &fine, &interner, workers, repeats, batch,
        ));
    }
    points.push(measure_sync_batched(
        "coarse",
        &coarse,
        &interner,
        repeats,
        DEFAULT_LAUNCH_BATCH,
    ));
    points.push(measure_sync_batched(
        "fine",
        &fine,
        &interner,
        repeats,
        DEFAULT_LAUNCH_BATCH,
    ));
    points
}

/// End-of-run figures from the self-telemetry pass, embedded verbatim
/// into the bench JSONs (as `telemetry_*` fields — informational, never
/// `target_`-prefixed, so `bench_check` does not gate on them).
#[derive(Debug, Clone, Copy)]
pub struct TelemetrySummary {
    /// High-water bounded-queue depth observed across the run.
    pub max_queue_depth: u64,
    /// Events dropped by backpressure (always 0 under `Block`).
    pub dropped_events: u64,
    /// Producer batch-flush latency p99, nanoseconds.
    pub flush_p99_ns: u64,
    /// Producer batch flushes observed.
    pub flushes: u64,
}

/// One extra *untimed* pass of `events` through the asynchronous
/// pipeline with self-telemetry enabled, rolled up into the figures the
/// bench JSONs embed. Kept separate from every measured scenario so the
/// measured numbers stay on the shipping default (telemetry compiled in
/// but off) while the scoreboard still gets the profiler's own vitals
/// at the same commit.
pub fn telemetry_pass(
    events: &[PipelineEvent],
    interner: &Arc<Interner>,
    workers: usize,
) -> TelemetrySummary {
    let inner = ShardedSink::with_journal(
        Arc::clone(interner),
        SHARDS,
        true,
        &TimelineConfig::default(),
        &TelemetryConfig::enabled(),
        Failpoints::from_env(),
        &JournalConfig::default(),
    );
    let telemetry = Arc::clone(inner.telemetry().expect("telemetry enabled"));
    let sink = AsyncSink::new(
        inner,
        PipelineConfig {
            workers,
            // Same headroom as the measured async scenarios: the embed
            // reports the regime the pipeline is designed to run in.
            queue_capacity: events.len() + events.len() / BATCH + SHARDS + 1,
            backpressure: BackpressurePolicy::Block,
            launch_batch: DEFAULT_LAUNCH_BATCH,
            ..PipelineConfig::default()
        },
    );
    drive_producer(sink.as_ref(), events, prepare(events));
    sink.drain();
    let report = HealthReport::from_snapshot(&telemetry.handle().snapshot(), telemetry.now_ns());
    TelemetrySummary {
        max_queue_depth: report.max_queue_depth,
        dropped_events: report.events_dropped,
        flush_p99_ns: report.flush_latency.p99,
        flushes: report.flush_latency.count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::MetricKind;

    #[test]
    fn telemetry_pass_reports_populated_figures_with_zero_drops() {
        let interner = Interner::new();
        let events = fine_grained_stream(&interner, 512, 4);
        let summary = telemetry_pass(&events, &interner, 2);
        assert_eq!(summary.dropped_events, 0, "Block policy never drops");
        assert!(summary.max_queue_depth > 0, "queue depth observed");
        assert!(summary.flushes > 0, "producer batching flushed");
        assert!(summary.flush_p99_ns > 0, "flush latency recorded");
    }

    #[test]
    fn matrix_produces_all_scenarios_with_zero_drops() {
        let points = pipeline_matrix(256, 4, 1);
        // 2 sync baselines + (coarse, fine) × batch sweep + 2 batched
        // sync.
        assert_eq!(points.len(), 4 + 2 * BATCH_SWEEP.len());
        for p in &points {
            assert!(p.producer_ns_per_event > 0.0, "{}", p.scenario);
            assert!(p.total_ns_per_event >= p.producer_ns_per_event);
            assert_eq!(p.counters.dropped_events, 0, "{}", p.scenario);
        }
        let by = |prefix: &str| {
            points
                .iter()
                .find(|p| p.scenario.starts_with(prefix))
                .unwrap_or_else(|| panic!("scenario {prefix} measured"))
        };
        // Fine-grained streams attribute instruction samples too.
        assert!(by("fine_sync_inline").counters.instruction_samples > 0);
        assert!(by("fine_async").counters.enqueued_events > 0);
        // Batched scenarios actually batched; the unbatched ones did not.
        let async_at = |batch: usize| {
            let suffix = format!("_b{batch}");
            points
                .iter()
                .find(|p| p.scenario.starts_with("coarse_async") && p.scenario.ends_with(&suffix))
                .unwrap_or_else(|| panic!("coarse async point at batch {batch}"))
        };
        let batched = async_at(DEFAULT_LAUNCH_BATCH);
        assert!(batched.counters.producer_flushes > 0);
        assert!(batched.counters.batched_events > 0);
        assert_eq!(async_at(1).counters.batched_events, 0);
        assert!(by("coarse_sync_batched").counters.producer_flushes > 0);
        // Inline ingestion resolves every record through the directory.
        let inline = by("coarse_sync_inline");
        assert_eq!(inline.counters.orphans, 0);
        assert!(inline.counters.activities > 0);
    }

    #[test]
    fn async_and_batched_profiles_match_the_sync_profile() {
        let interner = Interner::new();
        for events in [
            coarse_stream(&interner, 192),
            fine_grained_stream(&interner, 192, 4),
        ] {
            let sync = ShardedSink::new(Arc::clone(&interner), SHARDS);
            drive_producer(sync.as_ref(), &events, prepare(&events));
            let s = sync.snapshot();
            let async_sink = AsyncSink::new(
                ShardedSink::new(Arc::clone(&interner), SHARDS),
                PipelineConfig::default(),
            );
            drive_producer(async_sink.as_ref(), &events, prepare(&events));
            let a = async_sink.snapshot();
            assert_eq!(s.semantic_diff(&a), None);
            assert_eq!(s.total(MetricKind::GpuTime), a.total(MetricKind::GpuTime));
            let batched = BatchingSink::new(
                ShardedSink::new(Arc::clone(&interner), SHARDS),
                DEFAULT_LAUNCH_BATCH,
            );
            drive_producer(batched.as_ref(), &events, prepare(&events));
            let b = batched.snapshot();
            assert_eq!(s.semantic_diff(&b), None);
        }
    }
}
