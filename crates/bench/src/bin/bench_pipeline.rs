//! Emits `BENCH_pipeline.json`: producer-side enqueue cost and
//! end-to-end throughput of the asynchronous bounded-channel pipeline vs
//! inline synchronous attribution, over a coarse (kernel-records-only)
//! and a fine-grained (PC-sampling, paper §6.7) event stream — with the
//! asynchronous producer swept across thread-local `launch_batch` sizes
//! (1 = unbatched).
//!
//! Two headline numbers, both measured at the default batch size:
//! `producer_speedup` (fine-grained, target ≥ 5x — attribution itself is
//! expensive there) and `producer_speedup_coarse` (kernel-only, target
//! ≥ 2x — per-launch fixed costs dominate, which is exactly what
//! producer batching amortizes; the bar sits below the typical ~2.5-3x
//! because the tiny coarse baseline makes the ratio noisy). Zero dropped
//! events under the default `Block` policy in every scenario.
//!
//! Run from the repo root: `cargo run --release -p deepcontext-bench
//! --bin bench_pipeline`.

use std::io::Write;

use deepcontext_bench::pipeline::{
    fine_grained_stream, pipeline_matrix, telemetry_pass, PipelinePoint, BATCH_SWEEP, SHARDS,
};
use deepcontext_core::Interner;
use deepcontext_profiler::DEFAULT_LAUNCH_BATCH;

const OPS: usize = 30_000;
const SAMPLES_PER_KERNEL: usize = 24;
const REPEATS: usize = 5;
// Acceptance bars `bench-check` enforces against the committed JSON.
// The coarse bar is deliberately below the typical measurement (~2.5-3x):
// the coarse sync baseline is only ~300 ns/event, so scheduler noise
// swings the ratio by over 1x run-to-run; the fine-grained bar is the
// headline gate.
const TARGET_PRODUCER_SPEEDUP: f64 = 5.0;
const TARGET_PRODUCER_SPEEDUP_COARSE: f64 = 2.0;

fn point<'a>(points: &'a [PipelinePoint], prefix: &str, suffix: &str) -> &'a PipelinePoint {
    points
        .iter()
        .find(|p| p.scenario.starts_with(prefix) && p.scenario.ends_with(suffix))
        .unwrap_or_else(|| panic!("measured scenario {prefix}*{suffix}"))
}

fn main() {
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "measuring pipeline producer cost ({SHARDS} shards, {OPS} events, \
         {SAMPLES_PER_KERNEL} PC samples/kernel on the fine stream, batch sweep \
         {BATCH_SWEEP:?}, host parallelism {parallelism}, best of {REPEATS})..."
    );
    let points = pipeline_matrix(OPS, SAMPLES_PER_KERNEL, REPEATS);
    // One extra untimed pass with self-telemetry on: the measured points
    // above stay on the shipping default (telemetry off); this embed
    // lets the scoreboard watch the profiler's own vitals per commit.
    let telemetry = {
        let interner = Interner::new();
        let fine = fine_grained_stream(&interner, OPS, SAMPLES_PER_KERNEL);
        let workers = parallelism.min(SHARDS);
        telemetry_pass(&fine, &interner, workers)
    };
    let default_suffix = format!("_b{DEFAULT_LAUNCH_BATCH}");
    let coarse_sync = point(&points, "coarse_sync_inline", "");
    let fine_sync = point(&points, "fine_sync_inline", "");
    let coarse_async = point(&points, "coarse_async", &default_suffix);
    let fine_async = point(&points, "fine_async", &default_suffix);

    let fine_speedup = fine_sync.producer_ns_per_event / fine_async.producer_ns_per_event;
    let coarse_speedup = coarse_sync.producer_ns_per_event / coarse_async.producer_ns_per_event;
    // (The historical worker_events_per_wakeup utilization figure is no
    // longer published: the producer phase now runs against a parked
    // pool, so the whole backlog drains in ~one wakeup and the number
    // would only measure the methodology, not the pipeline.)
    let amortization = if coarse_async.counters.producer_flushes > 0 {
        coarse_async.counters.batched_events as f64 / coarse_async.counters.producer_flushes as f64
    } else {
        0.0
    };

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"pipeline\",\n");
    json.push_str("  \"unit\": \"ns_per_event\",\n");
    json.push_str("  \"baseline\": \"inline synchronous attribution on the producer thread\",\n");
    json.push_str("  \"policy\": \"Block\",\n");
    json.push_str(&format!("  \"shards\": {SHARDS},\n"));
    json.push_str(&format!("  \"events\": {OPS},\n"));
    json.push_str(&format!(
        "  \"fine_samples_per_kernel\": {SAMPLES_PER_KERNEL},\n"
    ));
    json.push_str(&format!("  \"repeats\": {REPEATS},\n"));
    json.push_str(&format!("  \"host_parallelism\": {parallelism},\n"));
    json.push_str(&format!(
        "  \"launch_batch_sweep\": [{}],\n",
        BATCH_SWEEP
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!(
        "  \"launch_batch_default\": {DEFAULT_LAUNCH_BATCH},\n"
    ));
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"producer_ns_per_event\": {:.0}, \
             \"total_ns_per_event\": {:.0}, \"dropped_events\": {}, \
             \"max_queue_depth\": {}, \"producer_flushes\": {}}}{}\n",
            p.scenario,
            p.producer_ns_per_event,
            p.total_ns_per_event,
            p.counters.dropped_events,
            p.counters.max_queue_depth,
            p.counters.producer_flushes,
            sep
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"producer_speedup_coarse\": {coarse_speedup:.2},\n"
    ));
    json.push_str(&format!(
        "  \"target_producer_speedup_coarse\": {TARGET_PRODUCER_SPEEDUP_COARSE},\n"
    ));
    json.push_str(&format!("  \"producer_speedup\": {fine_speedup:.2},\n"));
    json.push_str(&format!(
        "  \"target_producer_speedup\": {TARGET_PRODUCER_SPEEDUP},\n"
    ));
    json.push_str(&format!(
        "  \"end_to_end_events_per_sec_sync\": {:.0},\n",
        1e9 / fine_sync.total_ns_per_event
    ));
    json.push_str(&format!(
        "  \"end_to_end_events_per_sec_async\": {:.0},\n",
        1e9 / fine_async.total_ns_per_event
    ));
    json.push_str(&format!(
        "  \"events_per_producer_flush\": {amortization:.1},\n"
    ));
    json.push_str(&format!(
        "  \"dropped_events\": {},\n",
        fine_async.counters.dropped_events + coarse_async.counters.dropped_events
    ));
    // Self-telemetry embed (informational — never `target_`-prefixed, so
    // bench-check reports it without gating on it).
    json.push_str(&format!(
        "  \"telemetry_max_queue_depth\": {},\n",
        telemetry.max_queue_depth
    ));
    json.push_str(&format!(
        "  \"telemetry_dropped_events\": {},\n",
        telemetry.dropped_events
    ));
    json.push_str(&format!(
        "  \"telemetry_flush_p99_ns\": {}\n",
        telemetry.flush_p99_ns
    ));
    json.push_str("}\n");

    std::fs::File::create("BENCH_pipeline.json")
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write BENCH_pipeline.json");
    print!("{json}");

    eprintln!(
        "at launch_batch {DEFAULT_LAUNCH_BATCH}: fine-grained producer sync {:.0} ns/event vs \
         async enqueue {:.0} ns/event = {:.2}x (target >= {TARGET_PRODUCER_SPEEDUP}x); coarse: \
         {:.0} vs {:.0} = {:.2}x (target >= {TARGET_PRODUCER_SPEEDUP_COARSE}x); drops {}",
        fine_sync.producer_ns_per_event,
        fine_async.producer_ns_per_event,
        fine_speedup,
        coarse_sync.producer_ns_per_event,
        coarse_async.producer_ns_per_event,
        coarse_speedup,
        fine_async.counters.dropped_events
    );
    eprintln!(
        "self-telemetry (fine stream, telemetry on): max queue depth {}, dropped {}, \
         flush p99 {} ns over {} flushes",
        telemetry.max_queue_depth,
        telemetry.dropped_events,
        telemetry.flush_p99_ns,
        telemetry.flushes
    );
}
