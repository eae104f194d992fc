//! The DeepContext profiler (paper §4.2).
//!
//! The profiler registers callbacks through DLMonitor, collects GPU and
//! CPU metrics, attributes them to unified call paths, and aggregates
//! them **online** into a [`CallingContextTree`] — the design that keeps
//! DeepContext's profiles small and iteration-count-independent
//! (Figure 6c/6d), in contrast to trace-based profilers.
//!
//! Collection paths:
//!
//! * **GPU kernel launches** — at each `DLMONITOR_GPU` launch callback the
//!   profiler emits the correlation id, retrieves the unified call path,
//!   and associates the id with the CCT node; asynchronous activity
//!   records later resolve through the correlation map and add
//!   `GpuTime` / occupancy / launch-shape metrics;
//! * **Instruction samples** — PC-sampling records extend the kernel's
//!   call path with [`Frame::Instruction`] nodes carrying stall-reason
//!   metrics (fine-grained analysis, §6.7);
//! * **CPU samples** — `CPU_TIME` / `REAL_TIME` interval samples and
//!   perf-style hardware-counter overflow samples attribute to the
//!   sampled thread's unified call path (§6.4).
//!
//! All of those paths terminate in an [`EventSink`]. The default sink is
//! the [`ShardedSink`]: per-thread/per-stream [`CctShard`]s (private tree
//! plus correlation map behind independent locks) that fold into one
//! master tree on [`Profiler::with_cct`] / [`Profiler::finish`]. The
//! fold is cached and tracked by per-shard dirty generations, so a warm
//! snapshot re-folds only the shards that changed — and concurrent
//! producers never serialize on a global profile lock. See the [`sink`]
//! module docs for the routing rules and the cache mechanics.
//!
//! [`CctShard`]: deepcontext_core::CctShard
//! [`Frame::Instruction`]: deepcontext_core::Frame
//! [`CallingContextTree`]: deepcontext_core::CallingContextTree

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use deepcontext_core::{CallingContextTree, MetricKind, ProfileDb, ProfileMeta, TimeNs};
use dlmonitor::{CallPathSources, DlEvent, DlMonitor, Domain, EventOrigin, RegistrationId};
use sim_gpu::{ApiKind, CallbackSite, GpuRuntime, SamplingConfig};
use sim_runtime::{RuntimeEnv, SampleKind, SamplerId};

pub mod sink;

pub use sink::{
    attribute_activity_metrics, default_directory_map, default_ingestion_mode,
    default_journal_config, default_journal_enabled, default_launch_batch,
    default_telemetry_config, default_telemetry_enabled, default_timeline_config,
    default_timeline_enabled, journal_sites, AsyncSink, BackpressurePolicy, BatchingSink,
    EventSink, Failpoints, HealthReport, HealthThresholds, IngestionMode, Journal, JournalConfig,
    JournalSeverity, PipelineConfig, PipelineTelemetry, ShardedSink, SinkCounters, Supervisor,
    SupervisorConfig, SupervisorSink, SupervisorState, Telemetry, TelemetryConfig,
    TelemetrySnapshot, TimelineConfig, TimelineSnapshot, TimelineStats, DEFAULT_LAUNCH_BATCH,
};

/// The default ingestion shard count, honouring the
/// `DEEPCONTEXT_TEST_SHARDS` environment override CI uses to run the
/// whole suite under both the historical single-lock layout (`=1`) and
/// the sharded layout (`=16`). Falls back to 16 when unset or invalid.
pub fn default_ingestion_shards() -> usize {
    std::env::var("DEEPCONTEXT_TEST_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(16)
}

/// Profiler configuration.
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// Which call-path sources to integrate (paper's "DeepContext" vs
    /// "DeepContext Native" configurations).
    pub sources: CallPathSources,
    /// Whether DLMonitor's call-path cache is enabled.
    pub cache_enabled: bool,
    /// Collect coarse GPU metrics (time, launch shapes, occupancy).
    pub gpu_metrics: bool,
    /// Collect fine-grained instruction samples.
    pub instruction_sampling: Option<SamplingConfig>,
    /// CPU_TIME sampling interval (None = off).
    pub cpu_time_interval: Option<TimeNs>,
    /// REAL_TIME sampling interval (None = off).
    pub real_time_interval: Option<TimeNs>,
    /// Hardware-counter overflow sampling period in events (None = off).
    pub hw_counter_period: Option<u64>,
    /// GPU activity buffer capacity before auto-flush.
    pub activity_buffer_capacity: usize,
    /// Number of ingestion shards (parallel CCT shards events are routed
    /// to before any lock is taken). `1` reproduces the historical
    /// single-lock pipeline.
    pub ingestion_shards: usize,
    /// Whether attribution runs inline on producers
    /// ([`IngestionMode::Sync`], the default) or on a bounded-channel
    /// worker pool ([`IngestionMode::Async`]) that takes correlation
    /// resolution, CCT mutation and metric folds off the monitored
    /// workload's critical path.
    pub ingestion_mode: IngestionMode,
    /// Ingestion-pipeline tuning. `launch_batch` (thread-local producer
    /// batching, `DEEPCONTEXT_LAUNCH_BATCH` env override) applies to
    /// **both** ingestion modes — in synchronous mode the sharded sink is
    /// wrapped in a [`BatchingSink`] when it is above 1; the worker
    /// count, queue capacity and backpressure policy apply to
    /// asynchronous mode only.
    pub pipeline: PipelineConfig,
    /// Whether snapshots are served from the incremental generation-
    /// tracked cache. Disabling trades warm `with_cct` latency for not
    /// holding a merged second copy of the profile — for memory-tight
    /// deployments.
    pub snapshot_cache: bool,
    /// Timeline recording: keep each kernel/memcpy record's
    /// `[start, end)` interval — tagged with its resolved CCT context —
    /// in bounded per-shard rings, for utilization / overlap / idle-gap
    /// analysis and Chrome-trace export ([`Profiler::timeline`]).
    /// Off by default (aggregate-only profiling pays nothing); the
    /// `DEEPCONTEXT_TIMELINE` environment override CI uses flips the
    /// default on.
    pub timeline: TimelineConfig,
    /// Self-telemetry: the profiler recording metrics about its own
    /// pipeline (queue depths, flush/fold latencies, drops, worker
    /// utilization — see [`Profiler::health_report`]) and, when the
    /// timeline is also on, its own execution as intervals on a reserved
    /// self-timeline track. Off by default; the `DEEPCONTEXT_TELEMETRY`
    /// environment override flips the default on.
    pub telemetry: TelemetryConfig,
    /// Health-driven graceful degradation: wrap the sink in a
    /// [`SupervisorSink`] whose `Healthy → Degraded → Bypass` state
    /// machine is fed one [`HealthReport`] window per
    /// [`Profiler::flush`]. `Degraded` switches ingestion to
    /// deterministic 1-in-N sampling (the stride is stamped into
    /// `ProfileMeta::extra` as `supervisor.sample_rate` for rescaling);
    /// `Bypass` turns the tap off while the workload runs untouched.
    /// `None` (the default) admits everything unconditionally. Observing
    /// health requires [`telemetry`](Self::telemetry) to be enabled —
    /// with telemetry off a supervised profiler simply never leaves
    /// `Healthy` on its own.
    pub supervisor: Option<SupervisorConfig>,
    /// Incident journal: a bounded ring of structured lifecycle events
    /// (supervisor transitions with their evidence, shard quarantines,
    /// drop storms, store retries, pause/resume/drain barriers,
    /// failpoint fires) kept alongside the profile and persisted with it
    /// ([`Profiler::journal`] for the live handle). Off by default —
    /// disabled, ingestion pays nothing; the `DEEPCONTEXT_JOURNAL`
    /// environment override flips the default on.
    pub journal: JournalConfig,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            sources: CallPathSources::all(),
            cache_enabled: true,
            gpu_metrics: true,
            instruction_sampling: None,
            cpu_time_interval: Some(TimeNs::from_us(100)),
            real_time_interval: None,
            hw_counter_period: None,
            activity_buffer_capacity: 4096,
            ingestion_shards: default_ingestion_shards(),
            ingestion_mode: default_ingestion_mode(),
            pipeline: PipelineConfig::default(),
            snapshot_cache: true,
            timeline: default_timeline_config(),
            telemetry: default_telemetry_config(),
            supervisor: None,
            journal: default_journal_config(),
        }
    }
}

impl ProfilerConfig {
    /// The paper's default "DeepContext" configuration: Python + framework
    /// call paths, no native unwinding.
    pub fn deepcontext() -> Self {
        ProfilerConfig {
            sources: CallPathSources::without_native(),
            ..Default::default()
        }
    }

    /// The paper's "DeepContext Native" configuration: full native
    /// unwinding included.
    pub fn deepcontext_native() -> Self {
        ProfilerConfig {
            sources: CallPathSources::all(),
            ..Default::default()
        }
    }
}

/// Profiler activity counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProfilerStats {
    /// Kernel launches observed.
    pub launches: u64,
    /// Activity records attributed.
    pub activities: u64,
    /// CPU samples attributed.
    pub cpu_samples: u64,
    /// Instruction samples attributed.
    pub instruction_samples: u64,
    /// Activity records that fell back to the `<unattributed>` catch-all
    /// context because their correlation was pruned or never seen.
    pub orphans: u64,
    /// Peak profile memory (bytes) observed at flush points.
    pub peak_bytes: usize,
    /// Shard folds performed while refreshing CCT snapshots (cold
    /// snapshots fold every shard, warm ones only dirty shards).
    pub snapshot_merges: u64,
    /// Shards skipped by snapshot refreshes because they had not changed
    /// since the cached fold — proof the incremental snapshot cache is
    /// doing its job.
    pub shards_skipped: u64,
    /// Events accepted into the asynchronous pipeline's shard queues
    /// (zero in synchronous mode).
    pub enqueued_events: u64,
    /// Events discarded by the `DropOldest` backpressure policy (always
    /// zero under the default `Block` policy and in synchronous mode).
    pub dropped_events: u64,
    /// High-water mark of any one shard queue's depth, in messages.
    pub max_queue_depth: u64,
    /// Drain barriers (flush / snapshot / stats points) that found
    /// attribution still in flight and had to wait for workers.
    pub drain_waits: u64,
    /// Worker passes that applied at least one event; with
    /// [`worker_events`](Self::worker_events) this measures utilization
    /// (`worker_events / worker_batches` = mean events per wake-up).
    pub worker_batches: u64,
    /// Events applied by asynchronous pipeline workers.
    pub worker_events: u64,
    /// Thread-local producer-batch flushes delivered (zero when
    /// `launch_batch` is 1); `batched_events / producer_flushes` is the
    /// mean amortization per flush.
    pub producer_flushes: u64,
    /// Events that travelled through thread-local producer batches.
    pub batched_events: u64,
    /// Kernel/memcpy intervals recorded into timeline rings (zero when
    /// [`ProfilerConfig::timeline`] is off).
    pub timeline_intervals: u64,
    /// Timeline intervals evicted by ring overflow — when non-zero the
    /// timeline is a trailing window of the run, not the whole run.
    pub timeline_dropped: u64,
    /// Worker panics caught by the asynchronous pipeline's fault
    /// isolation (each one quarantined a shard). Zero on healthy runs
    /// and in synchronous mode.
    pub worker_panics: u64,
    /// Events accounted to the synthetic `<poisoned>` context after
    /// arriving at a quarantined shard.
    pub poisoned_events: u64,
}

struct Inner {
    monitor: Arc<DlMonitor>,
    sink: Arc<dyn EventSink>,
    launches: AtomicU64,
    cpu_samples: AtomicU64,
}

/// The DeepContext profiler.
///
/// Construction attaches every collection path; [`Profiler::finish`]
/// detaches them and yields the profile database.
pub struct Profiler {
    inner: Arc<Inner>,
    env: RuntimeEnv,
    gpu: Arc<GpuRuntime>,
    monitor_regs: Vec<RegistrationId>,
    sampler_ids: Vec<SamplerId>,
    /// Wall-clock attach time: the start of the run's window. Timeline
    /// snapshots and [`Profiler::finish`] bound idle analysis with it.
    started: TimeNs,
    /// The pipeline's self-telemetry instruments — set by
    /// [`Profiler::attach`] when `config.telemetry` is enabled (a
    /// caller-provided sink carries its own, so
    /// [`attach_with_sink`](Profiler::attach_with_sink) leaves this
    /// `None`).
    telemetry: Option<Arc<PipelineTelemetry>>,
    /// The degradation state machine — set by [`Profiler::attach`] when
    /// [`ProfilerConfig::supervisor`] is configured. [`Profiler::flush`]
    /// and [`Profiler::finish`] feed it health windows.
    supervisor: Option<Arc<Supervisor>>,
    /// The incident journal — set by [`Profiler::attach`] when
    /// [`ProfilerConfig::journal`] is enabled. Every pipeline layer
    /// appends to this one handle; [`Profiler::finish`] persists its
    /// snapshot into the profile.
    journal: Option<Arc<Journal>>,
}

impl Profiler {
    /// Attaches a profiler to a monitored process.
    ///
    /// `monitor` must already be attached to the framework(s) and GPU
    /// runtime (see [`DlMonitor::attach_framework`] /
    /// [`DlMonitor::attach_gpu`]).
    pub fn attach(
        config: ProfilerConfig,
        env: &RuntimeEnv,
        monitor: &Arc<DlMonitor>,
        gpu: &Arc<GpuRuntime>,
    ) -> Profiler {
        let sharded = ShardedSink::with_journal(
            monitor.interner(),
            config.ingestion_shards,
            config.snapshot_cache,
            &config.timeline,
            &config.telemetry,
            Failpoints::from_env(),
            &config.journal,
        );
        let telemetry = sharded.telemetry().cloned();
        let journal = sharded.journal().cloned();
        // Injected faults belong in the causal record next to the
        // symptoms they provoke: route every failpoint fire into the
        // journal. Latest-wins on the shared env registry, so the
        // observer always follows the current run.
        if let Some(journal) = &journal {
            let journal = Arc::clone(journal);
            sharded
                .failpoints()
                .observe_fires(Box::new(move |name, site| match site {
                    Some(at) => journal.record(
                        JournalSeverity::Error,
                        journal_sites::FAILPOINT_FIRE,
                        &[("name", name), ("at", &at.to_string())],
                    ),
                    None => journal.record(
                        JournalSeverity::Error,
                        journal_sites::FAILPOINT_FIRE,
                        &[("name", name)],
                    ),
                }));
        }
        let mut sink: Arc<dyn EventSink> = match config.ingestion_mode {
            // Producer batching amortizes routing/locking in synchronous
            // mode too; the bare sharded sink remains the launch_batch=1
            // degenerate case.
            IngestionMode::Sync if config.pipeline.launch_batch > 1 => {
                BatchingSink::new(sharded, config.pipeline.launch_batch)
            }
            IngestionMode::Sync => sharded,
            IngestionMode::Async => AsyncSink::new(sharded, config.pipeline.clone()),
        };
        // Admission control goes outermost so degraded-mode sampling is
        // decided before any batching or queueing effort is spent.
        let supervisor = config.supervisor.map(|sup_config| {
            let supervisor = Supervisor::with_journal(
                sup_config,
                telemetry.as_deref().map(|t| t.handle()),
                journal.clone(),
            );
            sink = SupervisorSink::new(Arc::clone(&sink), Arc::clone(&supervisor));
            supervisor
        });
        let mut profiler = Profiler::attach_with_sink(config, env, monitor, gpu, sink);
        profiler.telemetry = telemetry;
        profiler.supervisor = supervisor;
        profiler.journal = journal;
        profiler
    }

    /// Attaches a profiler delivering events to a caller-provided sink
    /// (custom aggregation pipelines, instrumented sinks in tests).
    pub fn attach_with_sink(
        config: ProfilerConfig,
        env: &RuntimeEnv,
        monitor: &Arc<DlMonitor>,
        gpu: &Arc<GpuRuntime>,
        sink: Arc<dyn EventSink>,
    ) -> Profiler {
        monitor.set_sources(config.sources);
        monitor.set_cache_enabled(config.cache_enabled);

        let inner = Arc::new(Inner {
            monitor: Arc::clone(monitor),
            sink,
            launches: AtomicU64::new(0),
            cpu_samples: AtomicU64::new(0),
        });

        let mut monitor_regs = Vec::new();

        if config.gpu_metrics {
            gpu.set_buffer_capacity(config.activity_buffer_capacity);
            gpu.set_sampling(config.instruction_sampling);

            // Launch-site interception: bind correlation ids to contexts.
            let me = Arc::clone(&inner);
            monitor_regs.push(monitor.callback_register(Domain::Gpu, move |event| {
                if let DlEvent::Gpu(gpu_event) = event {
                    if gpu_event.data.site != CallbackSite::Enter {
                        return;
                    }
                    match gpu_event.data.api {
                        ApiKind::LaunchKernel | ApiKind::MemcpyAsync | ApiKind::MemAlloc => {}
                        _ => return,
                    }
                    let path = me.monitor.callpath_for_gpu(gpu_event);
                    // Hand the freshly built path over by value: the
                    // async sink enqueues it without a clone.
                    me.sink
                        .gpu_launch_owned(&gpu_event.origin(), path, gpu_event.data.api);
                    if gpu_event.data.api == ApiKind::LaunchKernel {
                        me.launches.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));

            // Asynchronous activity delivery (buffer-completed handler).
            // The runtime owns the buffer it hands over, so the sink
            // takes it by value (asynchronous sinks route it into queue
            // messages without cloning a single record).
            let me = Arc::clone(&inner);
            gpu.set_activity_handler(move |batch| {
                me.sink.activity_batch_owned(batch);
            });
        }

        // CPU sampling (sigaction / perf-event substitutes).
        let mut sampler_ids = Vec::new();
        let cpu_sampler = |kind: SampleKind, metric: MetricKind, interval: u64| {
            let me = Arc::clone(&inner);
            env.samplers()
                .register(kind, interval, move |thread, event| {
                    let path = me.monitor.callpath_get(thread);
                    let origin = EventOrigin {
                        tid: Some(thread.tid()),
                        ..EventOrigin::default()
                    };
                    me.sink.cpu_sample_owned(
                        &origin,
                        path,
                        metric,
                        (event.count * event.interval) as f64,
                    );
                    me.cpu_samples.fetch_add(event.count, Ordering::Relaxed);
                })
        };
        if let Some(interval) = config.cpu_time_interval {
            sampler_ids.push(cpu_sampler(
                SampleKind::CpuTime,
                MetricKind::CpuTime,
                interval.as_nanos(),
            ));
        }
        if let Some(interval) = config.real_time_interval {
            sampler_ids.push(cpu_sampler(
                SampleKind::RealTime,
                MetricKind::RealTime,
                interval.as_nanos(),
            ));
        }
        if let Some(period) = config.hw_counter_period {
            sampler_ids.push(cpu_sampler(
                SampleKind::HwInstructions,
                MetricKind::HwInstructions,
                period,
            ));
            sampler_ids.push(cpu_sampler(
                SampleKind::HwCacheMisses,
                MetricKind::HwCacheMisses,
                period / 10,
            ));
        }

        Profiler {
            inner,
            env: env.clone(),
            gpu: Arc::clone(gpu),
            monitor_regs,
            sampler_ids,
            started: env.clock().now(),
            telemetry: None,
            supervisor: None,
            journal: None,
        }
    }

    /// Wall-clock time the profiler attached (the run window's start).
    pub fn started(&self) -> TimeNs {
        self.started
    }

    /// Flushes completed GPU activities into the tree (call at
    /// synchronisation points / iteration boundaries). Since this drains
    /// the runtime's whole completed backlog, the sink is told the epoch
    /// is complete so deferred correlation state can retire eagerly.
    pub fn flush(&self) {
        let batch = self.gpu.flush_completed();
        if !batch.is_empty() {
            self.inner.sink.activity_batch_owned(batch);
        }
        self.inner.sink.epoch_complete();
        self.observe_health();
    }

    /// Feeds the current health window into the supervisor (no-op when
    /// either the supervisor or telemetry is off). Runs at every flush
    /// boundary; long-running embedders can also call it directly on
    /// their own cadence.
    pub fn observe_health(&self) {
        if let (Some(supervisor), Some(report)) = (&self.supervisor, self.health_report()) {
            supervisor.observe(&report);
        }
    }

    /// The degradation state machine (`None` unless
    /// [`ProfilerConfig::supervisor`] was configured at attach).
    pub fn supervisor(&self) -> Option<&Arc<Supervisor>> {
        self.supervisor.as_ref()
    }

    /// The live incident journal (`None` when
    /// [`ProfilerConfig::journal`] is off or the sink was
    /// caller-provided). Snapshot it at any point for a causally
    /// ordered record of what the pipeline went through:
    /// `profiler.journal().map(|j| j.snapshot().to_jsonl())` exports
    /// one JSON object per event for log shippers.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// A point-in-time flattening of the incident journal (`None` when
    /// journaling is off): kept events in order plus the conservation
    /// counters. [`finish`](Self::finish) persists exactly this into
    /// the profile database.
    pub fn journal_snapshot(&self) -> Option<deepcontext_core::StoredJournal> {
        self.journal.as_ref().map(|j| j.snapshot())
    }

    /// Current approximate profile memory (shards + correlation state).
    pub fn approx_bytes(&self) -> usize {
        self.inner.sink.approx_bytes()
    }

    /// The self-telemetry handle (`None` when
    /// [`ProfilerConfig::telemetry`] is off or the sink was
    /// caller-provided). Exposes the registry for exports:
    /// `profiler.telemetry().map(|t| t.handle().snapshot().to_prometheus())`.
    pub fn telemetry(&self) -> Option<&Arc<PipelineTelemetry>> {
        self.telemetry.as_ref()
    }

    /// A point-in-time copy of every self-telemetry metric (`None` when
    /// telemetry is off). Feed it to
    /// [`TelemetrySnapshot::to_prometheus`] /
    /// [`TelemetrySnapshot::to_json`] for scraping, or to
    /// [`HealthReport::from_snapshot`] for programmatic decisions.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.telemetry.as_ref().map(|t| t.handle().snapshot())
    }

    /// The profiler's own vital signs — drop rate, queue saturation,
    /// worker utilization, flush/fold latency summaries — over the
    /// window from attach to now (`None` when telemetry is off).
    pub fn health_report(&self) -> Option<HealthReport> {
        self.telemetry
            .as_ref()
            .map(|t| HealthReport::from_snapshot(&t.handle().snapshot(), t.now_ns()))
    }

    /// Activity counters.
    pub fn stats(&self) -> ProfilerStats {
        let counters = self.inner.sink.counters();
        ProfilerStats {
            launches: self.inner.launches.load(Ordering::Relaxed),
            activities: counters.activities,
            cpu_samples: self.inner.cpu_samples.load(Ordering::Relaxed),
            instruction_samples: counters.instruction_samples,
            orphans: counters.orphans,
            peak_bytes: counters.peak_bytes.max(self.inner.sink.approx_bytes()),
            snapshot_merges: counters.snapshot_merges,
            shards_skipped: counters.shards_skipped,
            enqueued_events: counters.enqueued_events,
            dropped_events: counters.dropped_events,
            max_queue_depth: counters.max_queue_depth,
            drain_waits: counters.drain_waits,
            worker_batches: counters.worker_batches,
            worker_events: counters.worker_events,
            producer_flushes: counters.producer_flushes,
            batched_events: counters.batched_events,
            timeline_intervals: counters.timeline_intervals,
            timeline_dropped: counters.timeline_dropped,
            worker_panics: counters.worker_panics,
            poisoned_events: counters.poisoned_events,
        }
    }

    /// Read access to the in-progress tree (analysis previews, tests).
    ///
    /// Served from the sink's incremental snapshot cache: only shards
    /// dirtied since the previous call are re-folded, and the merged tree
    /// is shared with `f` rather than cloned — repeated preview queries
    /// on a large, mostly idle profile cost O(dirty shards), not
    /// O(shards × tree). The cached master lives behind an `Arc` whose
    /// handle is taken under the cache lock and released before `f`
    /// runs, so concurrent `with_cct` readers proceed in parallel on one
    /// shared snapshot (a refresh racing a long-lived reader
    /// copies-on-write and never disturbs the reader's view). The
    /// per-shard trees stay live and keep ingesting throughout.
    pub fn with_cct<R>(&self, f: impl FnOnce(&CallingContextTree) -> R) -> R {
        let mut f = Some(f);
        let mut out = None;
        self.inner.sink.with_snapshot(&mut |cct| {
            if let Some(f) = f.take() {
                out = Some(f(cct));
            }
        });
        out.expect("sink ran the snapshot closure")
    }

    /// The recorded timeline, assembled behind the same barriers as a
    /// profile snapshot (`None` when [`ProfilerConfig::timeline`] is
    /// off). Interval context ids index into the tree served by
    /// [`with_cct`](Self::with_cct) at the same quiesce point — pair the
    /// two for context-aware latency analysis:
    ///
    /// ```ignore
    /// profiler.flush();
    /// let timeline = profiler.timeline().expect("timeline enabled");
    /// let report = profiler.with_cct(|cct| {
    ///     analyzer.preview_with_timeline(cct, &timeline)
    /// });
    /// let trace = profiler.with_cct(|cct| timeline.to_chrome_trace(Some(cct)));
    /// ```
    ///
    /// Call before [`finish`](Self::finish) (which consumes the sink's
    /// state); typically right after a [`flush`](Self::flush), so the
    /// timeline covers every completed activity.
    pub fn timeline(&self) -> Option<TimelineSnapshot> {
        self.inner
            .sink
            .timeline_snapshot()
            .map(|snap| snap.with_window(self.started, self.env.clock().now()))
    }

    /// Detaches all collection and returns the finished profile.
    ///
    /// Consumes the sink's cached snapshot (after folding in any shards
    /// still dirty) instead of performing a final full fold. The run's
    /// wall-clock window is stamped into `meta.started` / `meta.ended`,
    /// and the recorded timeline (when enabled) is captured into the
    /// database — so the profile that reaches disk carries everything
    /// needed for postmortem latency analysis.
    pub fn finish(mut self, mut meta: ProfileMeta) -> ProfileDb {
        // Drain anything still buffered.
        let batch = self.gpu.flush_all();
        if !batch.is_empty() {
            self.inner.sink.activity_batch_owned(batch);
        }
        self.inner.sink.epoch_complete();
        self.observe_health();
        let ended = self.env.clock().now();
        // Capture the timeline before finish_snapshot consumes the
        // sink's cached fold state (its context remap depends on it).
        let timeline = self
            .inner
            .sink
            .timeline_snapshot()
            .map(|snap| snap.with_window(self.started, ended).to_stored());
        self.detach();
        meta.started = self.started;
        meta.ended = ended;
        // Embed the run's self-telemetry roll-up into the metadata's
        // free-form pairs: the on-disk format is untouched, header-only
        // `ProfileStore` listings still see the values, and trend queries
        // can track profiler overhead across runs.
        if let Some(telemetry) = &self.telemetry {
            let report =
                HealthReport::from_snapshot(&telemetry.handle().snapshot(), telemetry.now_ns());
            for (key, value) in [
                ("telemetry.window_ns", report.window_ns.to_string()),
                (
                    "telemetry.enqueued_events",
                    report.events_enqueued.to_string(),
                ),
                (
                    "telemetry.dropped_events",
                    report.events_dropped.to_string(),
                ),
                ("telemetry.drop_rate", format!("{:.6}", report.drop_rate)),
                (
                    "telemetry.max_queue_depth",
                    report.max_queue_depth.to_string(),
                ),
                (
                    "telemetry.queue_saturation",
                    format!("{:.6}", report.queue_saturation),
                ),
                (
                    "telemetry.worker_utilization",
                    format!("{:.6}", report.worker_utilization),
                ),
                (
                    "telemetry.flush_p99_ns",
                    report.flush_latency.p99.to_string(),
                ),
                ("telemetry.fold_p99_ns", report.fold_latency.p99.to_string()),
            ] {
                meta.extra.push((key.to_string(), value));
            }
        }
        // Stamp the degradation record: a profile taken under sampled or
        // bypassed ingestion must say so (the analyzer's DegradedRunRule
        // reads these, and estimate consumers rescale by sample_rate).
        if let Some(supervisor) = &self.supervisor {
            let status = supervisor.status();
            for (key, value) in [
                ("supervisor.state", status.state.to_string()),
                ("supervisor.transitions", status.transitions.to_string()),
                (
                    "supervisor.degraded_windows",
                    status.degraded_windows.to_string(),
                ),
                ("supervisor.sample_rate", status.sample_stride.to_string()),
                (
                    "supervisor.sampled_events",
                    status.sampled_events.to_string(),
                ),
                (
                    "supervisor.rejected_events",
                    status.rejected_events.to_string(),
                ),
                (
                    "supervisor.bypassed_events",
                    status.bypassed_events.to_string(),
                ),
            ] {
                meta.extra.push((key.to_string(), value));
            }
            // The first departure from Healthy, as a journal-clock
            // timestamp: header-only listings can spot a run that
            // degraded (and when) without loading the journal itself.
            if let Some(ns) = supervisor.first_degraded_ns() {
                meta.extra
                    .push(("supervisor.first_degraded_ns".to_string(), ns.to_string()));
            }
        }
        // Flatten the incident journal into the database and summarize
        // it in the header: `journal.sites` lets `ProfileStore` listings
        // filter runs by incident kind from metadata alone.
        let journal = self.journal.as_ref().map(|j| j.snapshot());
        if let Some(journal) = &journal {
            for (key, value) in [
                ("journal.events", journal.event_count().to_string()),
                ("journal.evicted", journal.evicted.to_string()),
                ("journal.sites", journal.site_summary().join(",")),
            ] {
                meta.extra.push((key.to_string(), value));
            }
        }
        let mut db = ProfileDb::new(meta, self.inner.sink.finish_snapshot());
        db.set_timeline(timeline);
        db.set_journal(journal);
        db
    }

    fn detach(&mut self) {
        for id in self.monitor_regs.drain(..) {
            self.inner.monitor.callback_unregister(id);
        }
        for id in self.sampler_ids.drain(..) {
            self.env.samplers().unregister(id);
        }
        self.gpu.set_sampling(None);
        self.gpu.set_activity_handler(|_| {});
    }
}

impl Drop for Profiler {
    fn drop(&mut self) {
        self.detach();
    }
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::{FrameKind, StallReason, ThreadRole};
    use dl_framework::{EagerEngine, FrameworkCore, Op, OpKind, TensorMeta};
    use sim_gpu::{Activity, ActivityKind, CorrelationId, DeviceId, DeviceSpec};
    use sim_runtime::ThreadRegistry;

    struct Rig {
        env: RuntimeEnv,
        gpu: Arc<GpuRuntime>,
        engine: Arc<EagerEngine>,
        monitor: Arc<DlMonitor>,
    }

    fn rig() -> Rig {
        let env = RuntimeEnv::new();
        let gpu = GpuRuntime::new(env.clock().clone(), vec![DeviceSpec::a100_sxm()]);
        let core = FrameworkCore::new(
            env.clone(),
            Arc::clone(&gpu),
            DeviceId(0),
            "/lib/libtorch_cpu.so",
            "libtorch_cuda.so",
            TimeNs(3_000),
        );
        let engine = EagerEngine::new(Arc::clone(&core));
        let monitor = DlMonitor::init(&env, deepcontext_core::Interner::new());
        monitor.attach_framework(core.callbacks());
        monitor.attach_gpu(&gpu);
        Rig {
            env,
            gpu,
            engine,
            monitor,
        }
    }

    fn run_relu(rig: &Rig, n: usize) {
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        let core = Arc::clone(rig.engine.core());
        let _py = core.python().frame(&main, "train.py", 7, "step");
        for _ in 0..n {
            rig.engine
                .op(Op::new(OpKind::Relu), &[TensorMeta::new([1 << 18])])
                .unwrap();
        }
        rig.gpu.synchronize(DeviceId(0)).unwrap();
    }

    #[test]
    fn gpu_time_attributes_to_kernel_context() {
        let rig = rig();
        let profiler =
            Profiler::attach(ProfilerConfig::default(), &rig.env, &rig.monitor, &rig.gpu);
        run_relu(&rig, 5);
        profiler.flush();

        let stats = profiler.stats();
        assert_eq!(stats.launches, 5);
        assert_eq!(stats.activities, 5);

        profiler.with_cct(|cct| {
            assert!(cct.total(MetricKind::GpuTime) > 0.0);
            assert_eq!(
                cct.root_metric(MetricKind::KernelLaunches).unwrap().sum,
                5.0
            );
            // All five launches collapsed into one kernel context.
            let kernels = cct.nodes_of_kind(FrameKind::GpuKernel);
            assert_eq!(kernels.len(), 1);
            let k = kernels[0];
            assert_eq!(cct.metric(k, MetricKind::GpuTime).unwrap().count, 5);
            // Exclusive launch-shape metrics present on the kernel node only.
            assert!(cct.metric(k, MetricKind::Warps).is_some());
            assert!(cct.root_metric(MetricKind::Warps).is_none());
        });
    }

    #[test]
    fn profile_size_is_iteration_independent() {
        let rig = rig();
        let profiler =
            Profiler::attach(ProfilerConfig::default(), &rig.env, &rig.monitor, &rig.gpu);
        run_relu(&rig, 3);
        profiler.flush();
        let nodes_small = profiler.with_cct(|c| c.node_count());
        run_relu(&rig, 50);
        profiler.flush();
        let nodes_large = profiler.with_cct(|c| c.node_count());
        assert_eq!(
            nodes_small, nodes_large,
            "CCT must not grow with iterations"
        );
    }

    #[test]
    fn cpu_sampling_attributes_cpu_time() {
        let rig = rig();
        let config = ProfilerConfig {
            cpu_time_interval: Some(TimeNs::from_us(1)),
            ..ProfilerConfig::default()
        };
        let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
        run_relu(&rig, 3);
        profiler.flush();
        let stats = profiler.stats();
        assert!(stats.cpu_samples > 0);
        profiler.with_cct(|cct| {
            assert!(cct.total(MetricKind::CpuTime) > 0.0);
            // CPU time lands under the Python frame.
            let py_nodes = cct.nodes_of_kind(FrameKind::Python);
            assert!(py_nodes
                .iter()
                .any(|n| cct.metric(*n, MetricKind::CpuTime).is_some()));
        });
    }

    #[test]
    fn instruction_sampling_extends_paths_with_pc_frames() {
        let rig = rig();
        let config = ProfilerConfig {
            instruction_sampling: Some(SamplingConfig {
                period: TimeNs(500),
                max_samples_per_kernel: 512,
            }),
            ..ProfilerConfig::default()
        };
        let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);

        // Cast kernels carry the constant-memory-stall profile.
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        let core = Arc::clone(rig.engine.core());
        let _py = core.python().frame(&main, "llama.py", 69, "rms_norm");
        rig.engine
            .op(
                Op::new(OpKind::Cast).with_target_dtype(dl_framework::DType::F16),
                &[TensorMeta::new([1 << 20])],
            )
            .unwrap();
        rig.gpu.synchronize(DeviceId(0)).unwrap();
        profiler.flush();

        let stats = profiler.stats();
        assert!(stats.instruction_samples > 0);
        profiler.with_cct(|cct| {
            let instrs = cct.nodes_of_kind(FrameKind::Instruction);
            assert!(!instrs.is_empty());
            // Instruction frames hang off the kernel frame.
            for i in &instrs {
                let parent = cct.node(*i).parent().unwrap();
                assert_eq!(cct.node(parent).frame().kind(), FrameKind::GpuKernel);
            }
            let const_stalls = cct.total(MetricKind::Stall(StallReason::ConstantMemory));
            assert!(
                const_stalls > 0.0,
                "cast kernel must show constant-memory stalls"
            );
        });
    }

    #[test]
    fn finish_produces_loadable_profile() {
        let rig = rig();
        let profiler =
            Profiler::attach(ProfilerConfig::default(), &rig.env, &rig.monitor, &rig.gpu);
        run_relu(&rig, 4);
        let db = profiler.finish(ProfileMeta {
            workload: "relu-micro".into(),
            framework: "eager".into(),
            platform: "nvidia-a100".into(),
            iterations: 4,
            ..Default::default()
        });
        assert!(db.cct().total(MetricKind::GpuTime) > 0.0);
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let back = ProfileDb::load(&buf[..]).unwrap();
        assert_eq!(back.meta().workload, "relu-micro");
    }

    #[test]
    fn peak_bytes_is_tracked_and_bounded() {
        let rig = rig();
        let profiler =
            Profiler::attach(ProfilerConfig::default(), &rig.env, &rig.monitor, &rig.gpu);
        run_relu(&rig, 2);
        profiler.flush();
        let after_two = profiler.stats().peak_bytes;
        assert!(after_two > 0);
        run_relu(&rig, 40);
        profiler.flush();
        let after_many = profiler.stats().peak_bytes;
        // Same contexts: peak grows marginally (correlation churn), not
        // linearly with events.
        assert!(after_many < after_two * 3, "{after_many} vs {after_two}");
    }

    #[test]
    fn memcpy_and_malloc_metrics_attribute() {
        let rig = rig();
        let profiler =
            Profiler::attach(ProfilerConfig::default(), &rig.env, &rig.monitor, &rig.gpu);
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        rig.gpu.malloc(DeviceId(0), 4096).unwrap();
        rig.gpu
            .memcpy_async(DeviceId(0), sim_gpu::StreamId(0), 1 << 20)
            .unwrap();
        rig.gpu.synchronize(DeviceId(0)).unwrap();
        profiler.flush();
        profiler.with_cct(|cct| {
            assert_eq!(cct.total(MetricKind::GpuAllocBytes), 4096.0);
            assert_eq!(cct.total(MetricKind::MemcpyBytes), (1 << 20) as f64);
            assert!(cct.total(MetricKind::MemcpyTime) > 0.0);
        });
    }

    #[test]
    fn detach_on_drop_stops_collection() {
        let rig = rig();
        {
            let _profiler =
                Profiler::attach(ProfilerConfig::default(), &rig.env, &rig.monitor, &rig.gpu);
        }
        // After drop, launches must not reach a dead profiler (no panic,
        // no stale callbacks firing into freed state).
        run_relu(&rig, 2);
        assert!(rig.env.samplers().is_empty());
    }

    #[test]
    fn single_shard_config_matches_default() {
        // The sharded pipeline is an API-compatible refactor: one shard
        // (the historical single-lock design) and many shards must agree
        // on every aggregate.
        let totals = |shards: usize| {
            let rig = rig();
            let config = ProfilerConfig {
                ingestion_shards: shards,
                ..ProfilerConfig::default()
            };
            let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
            run_relu(&rig, 6);
            profiler.flush();
            profiler.with_cct(|cct| {
                (
                    cct.node_count(),
                    cct.total(MetricKind::GpuTime),
                    cct.total(MetricKind::KernelLaunches),
                )
            })
        };
        assert_eq!(totals(1), totals(16));
    }

    #[test]
    fn producer_batching_amortizes_and_matches_unbatched() {
        // Thread-local launch batching is a cost optimization, not a
        // semantic one: profiles and event counts match the unbatched
        // pipeline exactly, while the batching counters prove events
        // actually travelled through per-thread batches.
        let run = |launch_batch: usize| {
            let rig = rig();
            let config = ProfilerConfig {
                pipeline: PipelineConfig {
                    launch_batch,
                    ..PipelineConfig::default()
                },
                ..ProfilerConfig::default()
            };
            let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
            run_relu(&rig, 6);
            profiler.flush();
            let stats = profiler.stats();
            let totals = profiler.with_cct(|cct| {
                (
                    cct.node_count(),
                    cct.total(MetricKind::GpuTime),
                    cct.total(MetricKind::KernelLaunches),
                )
            });
            (stats, totals)
        };
        let (unbatched, unbatched_totals) = run(1);
        let (batched, batched_totals) = run(64);
        assert_eq!(unbatched_totals, batched_totals);
        assert_eq!(batched.activities, unbatched.activities);
        assert_eq!(batched.launches, unbatched.launches);
        assert_eq!(
            unbatched.batched_events, 0,
            "launch_batch=1 bypasses the batcher"
        );
        assert!(batched.batched_events > 0, "events flowed through batches");
        assert!(batched.producer_flushes > 0);
        assert!(
            batched.batched_events >= batched.producer_flushes,
            "flushes amortize at least one event each"
        );
    }

    #[test]
    fn async_mode_matches_sync_mode() {
        // The asynchronous pipeline is a scheduling change, not a
        // semantic one: the same workload must produce identical
        // aggregates under both ingestion modes, with nothing dropped
        // under the default Block policy.
        let run = |mode: IngestionMode| {
            let rig = rig();
            let config = ProfilerConfig {
                ingestion_mode: mode,
                ..ProfilerConfig::default()
            };
            let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
            run_relu(&rig, 6);
            profiler.flush();
            let stats = profiler.stats();
            let totals = profiler.with_cct(|cct| {
                (
                    cct.node_count(),
                    cct.total(MetricKind::GpuTime),
                    cct.total(MetricKind::KernelLaunches),
                )
            });
            (stats, totals)
        };
        let (sync_stats, sync_totals) = run(IngestionMode::Sync);
        let (async_stats, async_totals) = run(IngestionMode::Async);
        assert_eq!(sync_totals, async_totals);
        assert_eq!(sync_stats.activities, async_stats.activities);
        assert_eq!(sync_stats.launches, async_stats.launches);
        assert_eq!(async_stats.orphans, 0);
        // Pipeline accounting: events flowed through the queues and the
        // Block policy lost none of them.
        assert!(async_stats.enqueued_events > 0);
        assert_eq!(async_stats.dropped_events, 0);
        assert_eq!(async_stats.worker_events, async_stats.enqueued_events);
        assert_eq!(sync_stats.enqueued_events, 0, "sync mode bypasses queues");
    }

    #[test]
    fn async_finish_produces_complete_profile() {
        let rig = rig();
        let config = ProfilerConfig {
            ingestion_mode: IngestionMode::Async,
            ..ProfilerConfig::default()
        };
        let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
        run_relu(&rig, 5);
        // No explicit flush: finish itself must drain the pipeline.
        let db = profiler.finish(ProfileMeta {
            workload: "relu-async".into(),
            framework: "eager".into(),
            platform: "nvidia-a100".into(),
            iterations: 5,
            ..Default::default()
        });
        assert_eq!(
            db.cct()
                .root_metric(MetricKind::KernelLaunches)
                .unwrap()
                .sum,
            5.0
        );
        assert_eq!(
            db.cct()
                .metric(db.cct().root(), MetricKind::GpuTime)
                .unwrap()
                .count,
            5
        );
    }

    #[test]
    fn snapshot_cache_knob_trades_memory_for_snapshot_cost() {
        let run = |snapshot_cache: bool| {
            let rig = rig();
            let config = ProfilerConfig {
                ingestion_shards: 16,
                snapshot_cache,
                ..ProfilerConfig::default()
            };
            let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
            run_relu(&rig, 6);
            profiler.flush();
            // Open an "analysis session": repeated snapshot reads.
            let totals = profiler.with_cct(|c| (c.node_count(), c.total(MetricKind::GpuTime)));
            assert_eq!(
                totals,
                profiler.with_cct(|c| (c.node_count(), c.total(MetricKind::GpuTime)))
            );
            (totals, profiler.approx_bytes(), profiler.stats())
        };
        let (on_totals, on_bytes, on_stats) = run(true);
        let (off_totals, off_bytes, off_stats) = run(false);
        // Same profile either way.
        assert_eq!(on_totals, off_totals);
        // With the cache on, snapshots hold a merged second copy; off, the
        // resident footprint drops.
        assert!(
            off_bytes < on_bytes,
            "cache-off bytes {off_bytes} must undercut cache-on bytes {on_bytes}"
        );
        assert!(on_stats.snapshot_merges > 0);
        assert_eq!(
            off_stats.snapshot_merges, 0,
            "cache disabled: no incremental folds happen"
        );
    }

    #[test]
    fn warm_snapshots_skip_clean_shards_and_match_a_fresh_fold() {
        let rig = rig();
        let config = ProfilerConfig {
            ingestion_shards: 16,
            ..ProfilerConfig::default()
        };
        let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
        run_relu(&rig, 4);
        profiler.flush();

        // Cold snapshot: every shard folded, nothing skipped yet.
        let nodes = profiler.with_cct(|c| c.node_count());
        let cold = profiler.stats();
        assert_eq!(cold.snapshot_merges, 16);
        assert_eq!(cold.shards_skipped, 0);

        // Warm snapshot with no ingestion in between: all shards skipped.
        assert_eq!(profiler.with_cct(|c| c.node_count()), nodes);
        let warm = profiler.stats();
        assert_eq!(warm.snapshot_merges, 16, "no shard re-folded");
        assert_eq!(warm.shards_skipped, 16);

        // More ingestion dirties the touched shards; the cached view keeps
        // aggregating correctly (same contexts, doubled-ish samples).
        run_relu(&rig, 4);
        profiler.flush();
        profiler.with_cct(|cached| {
            assert_eq!(cached.node_count(), nodes);
            assert_eq!(cached.root_metric(MetricKind::GpuTime).unwrap().count, 8);
        });
        let after = profiler.stats();
        assert!(after.snapshot_merges > warm.snapshot_merges);
        assert!(after.shards_skipped > warm.shards_skipped);
    }

    #[test]
    fn finish_consumes_the_cache_with_all_data_present() {
        let rig = rig();
        let profiler =
            Profiler::attach(ProfilerConfig::default(), &rig.env, &rig.monitor, &rig.gpu);
        run_relu(&rig, 3);
        profiler.flush();
        // Prime the cache mid-run, then keep ingesting before finish.
        let mid_total = profiler.with_cct(|c| c.total(MetricKind::GpuTime));
        assert!(mid_total > 0.0);
        run_relu(&rig, 2);
        let db = profiler.finish(ProfileMeta {
            workload: "relu-micro".into(),
            framework: "eager".into(),
            platform: "nvidia-a100".into(),
            iterations: 5,
            ..Default::default()
        });
        // The consumed cache reflects everything, including activities
        // flushed by finish itself after the last with_cct.
        assert_eq!(
            db.cct()
                .root_metric(MetricKind::KernelLaunches)
                .unwrap()
                .sum,
            5.0
        );
        assert_eq!(
            db.cct()
                .metric(db.cct().root(), MetricKind::GpuTime)
                .unwrap()
                .count,
            5
        );
    }

    #[test]
    fn finish_stamps_window_and_persists_the_timeline() {
        let rig = rig();
        let config = ProfilerConfig {
            timeline: TimelineConfig {
                enabled: true,
                ring_capacity: 1024,
            },
            // Pinned off regardless of the DEEPCONTEXT_TELEMETRY matrix:
            // this test counts exact workload intervals, which the
            // self-timeline tracks would add to.
            telemetry: TelemetryConfig::default(),
            ..ProfilerConfig::default()
        };
        let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
        let started = profiler.started();
        run_relu(&rig, 4);
        profiler.flush();

        // Live snapshots carry the run window, so leading idle between
        // attach and the first launch is measurable.
        let live = profiler.timeline().expect("timeline enabled");
        let (ws, we) = live.window().expect("window attached");
        assert_eq!(ws, started);
        assert!(we >= ws);

        let db = profiler.finish(ProfileMeta {
            workload: "relu-timeline".into(),
            ..Default::default()
        });
        assert_eq!(db.meta().started, started);
        assert!(db.meta().ended >= db.meta().started);
        let stored = db.timeline().expect("timeline persisted");
        assert_eq!(stored.interval_count(), 4);
        assert_eq!(stored.window, Some((db.meta().started, db.meta().ended)));
        // Interval names resolve from the captured table, and contexts
        // point into the master tree the db carries.
        for iv in &stored.intervals {
            assert!(stored.name_of(iv.name).is_some());
            let ctx = iv.context.expect("context resolved");
            assert!(ctx.index() < db.cct().node_count());
        }

        // The whole container round-trips through the on-disk format.
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let back = ProfileDb::load(&buf[..]).unwrap();
        assert_eq!(back.timeline(), db.timeline());
        assert_eq!(back.meta(), db.meta());
    }

    #[test]
    fn supervised_degraded_run_samples_and_stamps_meta() {
        let rig = rig();
        let config = ProfilerConfig {
            telemetry: TelemetryConfig::enabled(),
            supervisor: Some(SupervisorConfig {
                sample_stride: 4,
                ..SupervisorConfig::default()
            }),
            ..ProfilerConfig::default()
        };
        let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
        let supervisor = Arc::clone(profiler.supervisor().expect("supervisor configured"));
        // A healthy supervised run admits everything.
        run_relu(&rig, 8);
        profiler.flush();
        assert_eq!(profiler.stats().launches, 8);
        assert_eq!(profiler.stats().activities, 8);
        assert_eq!(supervisor.state(), SupervisorState::Healthy);

        // Degrade and run again: only sampled correlations are ingested,
        // coherently (no sampling-induced orphans), and the stamps in
        // the finished profile record exactly how to rescale.
        supervisor.force_state(SupervisorState::Degraded);
        run_relu(&rig, 8);
        let db = profiler.finish(ProfileMeta {
            workload: "relu-degraded".into(),
            ..Default::default()
        });
        let extra = |key: &str| {
            db.meta()
                .extra
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("meta key {key} missing"))
        };
        assert_eq!(extra("supervisor.state"), "1");
        assert_eq!(extra("supervisor.sample_rate"), "4");
        assert!(extra("supervisor.transitions").parse::<u64>().unwrap() >= 1);
        let sampled = extra("supervisor.sampled_events").parse::<u64>().unwrap();
        let rejected = extra("supervisor.rejected_events").parse::<u64>().unwrap();
        assert!(sampled > 0, "some events must pass the 1-in-4 sampler");
        assert!(rejected > sampled, "a stride of 4 rejects most events");
        // The full first phase plus the sampled second phase landed; no
        // record resolved against a missing binding.
        let launches = db
            .cct()
            .root_metric(MetricKind::KernelLaunches)
            .unwrap()
            .sum;
        assert!((8.0..16.0).contains(&launches), "got {launches}");
        assert!(db.cct().total(MetricKind::GpuTime) > 0.0);
    }

    #[test]
    fn orphaned_activities_are_counted_and_kept() {
        let rig = rig();
        let profiler =
            Profiler::attach(ProfilerConfig::default(), &rig.env, &rig.monitor, &rig.gpu);
        run_relu(&rig, 1);
        profiler.flush();
        assert_eq!(profiler.stats().orphans, 0);

        // Fabricate a record whose correlation the profiler never saw.
        let orphan = Activity {
            correlation_id: CorrelationId(u64::MAX),
            device: DeviceId(0),
            kind: ActivityKind::Malloc {
                bytes: 512,
                at: TimeNs(1),
            },
        };
        profiler
            .inner
            .sink
            .activity_batch(std::slice::from_ref(&orphan));
        let stats = profiler.stats();
        assert_eq!(stats.orphans, 1);
        // The data is attributed under the catch-all, not dropped.
        profiler.with_cct(|cct| {
            assert_eq!(cct.total(MetricKind::GpuAllocBytes), 512.0);
        });
    }
}
