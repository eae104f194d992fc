//! The [`EventSink`] contract and the shared activity-metric mapping.
//!
//! Every collection path of the profiler — GPU launch callbacks, completed
//! activity buffers, CPU samples, PC-sampling records — terminates in an
//! [`EventSink`]. Two implementations ship in this crate: the synchronous
//! [`ShardedSink`](crate::ShardedSink) (producers attribute inline under
//! per-shard locks) and the asynchronous [`AsyncSink`](crate::AsyncSink)
//! (producers enqueue into bounded channels and a worker pool attributes).

use deepcontext_core::{CallPath, CallingContextTree, MetricKind, NodeId};
use deepcontext_timeline::TimelineSnapshot;
use dlmonitor::EventOrigin;
use sim_gpu::{Activity, ActivityKind, ApiKind};

/// Writes one activity record's metrics at its resolved context `node` —
/// the single source of truth for the activity-kind → metric mapping,
/// shared by [`ShardedSink`](crate::ShardedSink) and the benchmark's
/// single-lock baseline so throughput comparisons never drift apart
/// semantically. Returns the number of instruction samples attributed
/// (0 for non-sampling records).
pub fn attribute_activity_metrics(
    tree: &mut CallingContextTree,
    node: NodeId,
    activity: &Activity,
) -> u64 {
    match &activity.kind {
        ActivityKind::Kernel {
            start,
            end,
            blocks,
            warps,
            occupancy,
            shared_mem_per_block,
            registers_per_thread,
            ..
        } => {
            tree.attribute(node, MetricKind::GpuTime, (*end - *start).as_nanos() as f64);
            tree.attribute_exclusive(node, MetricKind::Blocks, f64::from(*blocks));
            tree.attribute_exclusive(node, MetricKind::Warps, *warps as f64);
            tree.attribute_exclusive(node, MetricKind::Occupancy, *occupancy);
            tree.attribute_exclusive(
                node,
                MetricKind::SharedMemPerBlock,
                *shared_mem_per_block as f64,
            );
            tree.attribute_exclusive(
                node,
                MetricKind::RegistersPerThread,
                f64::from(*registers_per_thread),
            );
            0
        }
        ActivityKind::Memcpy {
            bytes, start, end, ..
        } => {
            tree.attribute(node, MetricKind::MemcpyBytes, *bytes as f64);
            tree.attribute(
                node,
                MetricKind::MemcpyTime,
                (*end - *start).as_nanos() as f64,
            );
            0
        }
        ActivityKind::Malloc { bytes, .. } => {
            tree.attribute(node, MetricKind::GpuAllocBytes, *bytes as f64);
            0
        }
        ActivityKind::Free { .. } => 0,
        // Extend the kernel's call path with per-PC instruction frames
        // (paper §4.2), folding the record to its distinct PCs first.
        ActivityKind::PcSampling { samples, .. } => {
            tree.attribute_instruction_samples(node, samples.iter().map(|s| (s.pc, s.stall)))
        }
    }
}

/// Monotonic counters a sink maintains while ingesting.
///
/// The first block is maintained by every sink; the `enqueued_events`
/// through `worker_events` block is meaningful only for asynchronous
/// pipelines ([`AsyncSink`](crate::AsyncSink)) and stays zero on
/// synchronous sinks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkCounters {
    /// Activity records attributed.
    pub activities: u64,
    /// Instruction samples attributed.
    pub instruction_samples: u64,
    /// Records that fell back to the `<unattributed>` catch-all context.
    pub orphans: u64,
    /// Peak approximate profile bytes observed at batch boundaries.
    pub peak_bytes: usize,
    /// Shard folds performed while refreshing snapshots (a cold snapshot
    /// folds every shard; warm ones fold only dirty shards).
    pub snapshot_merges: u64,
    /// Shards skipped by snapshot refreshes because their dirty
    /// generation had not advanced — direct evidence the snapshot cache
    /// is being hit.
    pub shards_skipped: u64,
    /// Events accepted into the asynchronous pipeline's shard queues
    /// (activity batches count each contained record).
    pub enqueued_events: u64,
    /// Events discarded by the `DropOldest` backpressure policy. Always
    /// zero under the default `Block` policy.
    pub dropped_events: u64,
    /// High-water mark of any one shard queue's depth, in queued
    /// messages (an activity bucket is one message).
    pub max_queue_depth: u64,
    /// Drain barriers that found work still in flight and had to wait
    /// for workers (barriers that found all queues already drained are
    /// not counted).
    pub drain_waits: u64,
    /// Worker passes that applied at least one message; together with
    /// [`worker_events`](Self::worker_events) this measures utilization:
    /// `worker_events / worker_batches` is the mean coalescing factor.
    pub worker_batches: u64,
    /// Events applied by pipeline workers.
    pub worker_events: u64,
    /// Per-shard thread-local batch deliveries performed by producers
    /// (zero when `launch_batch` is 1). With
    /// [`batched_events`](Self::batched_events), measures producer-side
    /// amortization: `batched_events / producer_flushes` is the mean
    /// events per flushed batch.
    pub producer_flushes: u64,
    /// Events that travelled through thread-local producer batches.
    pub batched_events: u64,
    /// Kernel/memcpy intervals recorded into the timeline rings (zero
    /// when `ProfilerConfig::timeline` is off).
    pub timeline_intervals: u64,
    /// Timeline intervals evicted by ring overflow — when non-zero, the
    /// timeline is a trailing window of the run, not the whole run
    /// (surfaced like the pipeline's `<dropped>` telemetry).
    pub timeline_dropped: u64,
    /// Worker panics caught by the asynchronous pipeline's fault
    /// isolation. Each one quarantines the shard whose apply panicked;
    /// an orderly run keeps this at zero.
    pub worker_panics: u64,
    /// Events that arrived at a quarantined shard and were accounted to
    /// the synthetic `<poisoned>` context instead of being attributed.
    /// Always zero on synchronous sinks.
    pub poisoned_events: u64,
}

/// Where profiler collection paths deliver their events.
///
/// Implementations must be callable from any producer thread concurrently;
/// the profiler registers one sink and never wraps it in an outer lock.
pub trait EventSink: Send + Sync {
    /// A GPU API call was intercepted at its launch site: bind
    /// `origin.correlation` to the context `path` and (for kernel
    /// launches) count the launch.
    fn gpu_launch(&self, origin: &EventOrigin, path: &CallPath, api: ApiKind);

    /// [`gpu_launch`](Self::gpu_launch) taking the path by value. Call
    /// sites that construct the `CallPath` per event (the profiler's
    /// launch callback does) should prefer this: sinks that need an
    /// owned copy — the asynchronous pipeline enqueues one — take
    /// ownership for free instead of cloning on the producer's critical
    /// path. Default: borrow-and-delegate.
    fn gpu_launch_owned(&self, origin: &EventOrigin, path: CallPath, api: ApiKind) {
        self.gpu_launch(origin, &path, api);
    }

    /// A buffer of completed asynchronous activity records.
    fn activity_batch(&self, batch: &[Activity]);

    /// [`activity_batch`](Self::activity_batch) taking the buffer by
    /// value. The GPU runtime's flush paths own the records they
    /// deliver, so sinks that keep an owned copy — the asynchronous
    /// pipeline routes records into per-shard queue messages — can
    /// move-partition instead of cloning every record (including
    /// PC-sampling payloads) on the producer's critical path. Default:
    /// borrow-and-delegate.
    fn activity_batch_owned(&self, batch: Vec<Activity>) {
        self.activity_batch(&batch);
    }

    /// A flush boundary completed: the runtime's entire completed-record
    /// backlog has been delivered, so no record referencing an
    /// already-attributed correlation can still be in flight (activity
    /// buffers deliver a kernel's trailing sampling records no later
    /// than the flush that drains the kernel). Sinks may use this to
    /// retire deferred correlation state eagerly and release batch-sized
    /// scratch, keeping resident memory proportional to live state.
    /// Asynchronous sinks additionally treat this as a drain barrier:
    /// every event enqueued before the call is attributed before it
    /// returns. Default: no-op.
    fn epoch_complete(&self) {}

    /// A CPU sample (interval timer or hardware-counter overflow) on the
    /// thread identified by `origin`.
    fn cpu_sample(&self, origin: &EventOrigin, path: &CallPath, metric: MetricKind, value: f64);

    /// [`cpu_sample`](Self::cpu_sample) taking the path by value (see
    /// [`gpu_launch_owned`](Self::gpu_launch_owned) for the rationale).
    fn cpu_sample_owned(
        &self,
        origin: &EventOrigin,
        path: CallPath,
        metric: MetricKind,
        value: f64,
    ) {
        self.cpu_sample(origin, &path, metric, value);
    }

    /// Folds the sink's state into one calling context tree.
    fn snapshot(&self) -> CallingContextTree;

    /// Runs `f` against a folded snapshot without handing out ownership.
    /// Sinks that cache their fold (see [`ShardedSink`](crate::ShardedSink))
    /// serve this by sharing the cached tree behind an `Arc` refreshed
    /// under the cache lock and *released* before `f` runs, so repeated
    /// analysis previews skip both the re-fold and the clone that
    /// [`snapshot`](Self::snapshot) pays — and concurrent readers
    /// proceed in parallel on one shared snapshot instead of queueing
    /// on the cache lock for the length of every callback.
    fn with_snapshot(&self, f: &mut dyn FnMut(&CallingContextTree)) {
        f(&self.snapshot());
    }

    /// Final snapshot at detach time: like [`snapshot`](Self::snapshot),
    /// but the sink may yield its cached fold by value instead of
    /// cloning, since no further snapshots will be requested.
    fn finish_snapshot(&self) -> CallingContextTree {
        self.snapshot()
    }

    /// The assembled timeline, when the sink records one (`None` when
    /// timeline recording is off — the default — or the sink has no
    /// timeline at all).
    ///
    /// Interval context ids are remapped into the master tree the
    /// snapshot paths observe: with the snapshot cache enabled they
    /// index into the cached master served by
    /// [`with_snapshot`](Self::with_snapshot) (stable across refreshes —
    /// the fold is append-only); with the cache disabled they index into
    /// an uncached [`snapshot`](Self::snapshot) taken at the same
    /// quiesce point with no interleaved ingestion. Asynchronous sinks
    /// run their drain barrier first, so the timeline is exactly as
    /// deterministic as the profile itself at every flush.
    fn timeline_snapshot(&self) -> Option<TimelineSnapshot> {
        None
    }

    /// Current ingestion counters.
    fn counters(&self) -> SinkCounters;

    /// Approximate resident bytes of all ingestion state.
    fn approx_bytes(&self) -> usize;
}
