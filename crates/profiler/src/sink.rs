//! Event-sink re-exports.
//!
//! The ingestion pipeline — the [`EventSink`] contract, the synchronous
//! [`ShardedSink`], and the asynchronous bounded-channel [`AsyncSink`] —
//! lives in its own crate, `deepcontext-pipeline`, so the profiler, the
//! benchmarks and external embedders share one implementation. This
//! module re-exports it under the historical `deepcontext_profiler::sink`
//! path.

pub use deepcontext_pipeline::{
    attribute_activity_metrics, default_directory_map, default_ingestion_mode,
    default_journal_config, default_journal_enabled, default_launch_batch,
    default_telemetry_config, default_telemetry_enabled, default_timeline_config,
    default_timeline_enabled, journal_sites, AsyncSink, BackpressurePolicy, BatchingSink,
    EventSink, Failpoints, HealthReport, HealthThresholds, IngestionMode, Journal, JournalConfig,
    JournalSeverity, PipelineConfig, PipelineTelemetry, ShardedSink, SinkCounters, Supervisor,
    SupervisorConfig, SupervisorSink, SupervisorState, Telemetry, TelemetryConfig,
    TelemetrySnapshot, TimelineConfig, TimelineSnapshot, TimelineStats, DEFAULT_LAUNCH_BATCH,
};
