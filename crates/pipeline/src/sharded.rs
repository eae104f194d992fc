//! The sharded synchronous event-ingestion sink.
//!
//! The previous design funneled every collection path through one
//! `Mutex<CallingContextTree>` plus a correlation-map mutex, so ingestion
//! throughput was capped at one core no matter how many workload threads
//! were producing events. [`ShardedSink`] removes that ceiling:
//!
//! * events are routed to one of N [`CctShard`]s **before** any lock is
//!   taken, keyed by the originating thread and stream (launches, CPU
//!   samples — see [`EventOrigin::route_key`]) or by the correlation-id's
//!   registered home shard (activity records);
//! * each shard owns a private tree + correlation map behind its own
//!   mutex, so producers on different threads proceed in parallel;
//! * a lock-striped correlation *directory* remembers which shard a
//!   correlation id was bound in, letting asynchronous activity records —
//!   which carry no thread identity — find their way home;
//! * snapshots fold the shards into one master tree and **cache** the
//!   result: every shard carries a dirty generation
//!   ([`CctShard::generation`]) advanced by each tree mutation, and a
//!   refresh re-folds only shards whose generation moved — via
//!   [`CallingContextTree::merge_incremental`], which resumes the
//!   per-shard node mapping and folds per-node metric deltas. Clean
//!   shards are skipped outright, so a warm snapshot costs O(dirty
//!   shards) instead of O(shards × tree). Correlation state stays behind
//!   in the shards for records still in flight ([`CctShard::merge_from`]
//!   exists for folds that must carry it along), and
//!   [`ShardedSink::snapshot_uncached`] keeps the historical full fold
//!   as baseline and test oracle. Memory-tight deployments can disable
//!   the cache entirely ([`ShardedSink::with_timeline`]): snapshots then
//!   re-fold every shard per request and the sink holds no second copy
//!   of the profile.
//!
//! The per-shard mutation entry points ([`apply_launch`],
//! [`apply_activities`], [`apply_cpu_sample`], [`epoch_complete_shard`])
//! are public so the asynchronous pipeline's workers
//! ([`AsyncSink`](crate::AsyncSink)) can drive pre-routed events into
//! individual shards; the synchronous [`EventSink`] implementation is a
//! thin route-then-apply composition of the same entry points, so the two
//! ingestion modes cannot drift apart semantically.
//!
//! A `ShardedSink` with one shard routes everything through one lock like
//! the old design (set `ingestion_shards: 1`); the ingestion benchmark in
//! `crates/bench` additionally keeps a faithful reproduction of the full
//! pre-refactor pipeline as its baseline.
//!
//! [`apply_launch`]: ShardedSink::apply_launch
//! [`apply_activities`]: ShardedSink::apply_activities
//! [`apply_cpu_sample`]: ShardedSink::apply_cpu_sample
//! [`epoch_complete_shard`]: ShardedSink::epoch_complete_shard
//! [`EventOrigin::route_key`]: dlmonitor::EventOrigin::route_key

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use deepcontext_core::failpoint::sites as fp_sites;
use deepcontext_core::{
    CallPath, CallingContextTree, CctShard, Failpoints, FoldState, Interner, Interval,
    IntervalKind, MetricKind, NodeId, Sym, TimeNs, TrackKey,
};
use deepcontext_telemetry::{
    journal_sites, Journal, JournalConfig, JournalSeverity, TelemetryConfig,
};
use deepcontext_timeline::{TimelineConfig, TimelineSink, TimelineSnapshot};
use dlmonitor::EventOrigin;
use sim_gpu::{Activity, ActivityKind, ApiKind};

use crate::batch::ProducerEvent;
use crate::directory::{mix, StripedHashDirectory, DIR_ENTRY_BYTES};
use crate::self_telemetry::PipelineTelemetry;
use crate::sink::{attribute_activity_metrics, EventSink, SinkCounters};

/// The memoized fold of all shards: the merged master tree, the
/// per-shard [`FoldState`] it was built through, and the shard dirty
/// generations it reflects. Refreshing re-folds **only** shards whose
/// generation advanced; the rest are skipped without touching their
/// trees, turning repeated snapshots from O(shards × tree) into
/// O(dirty shards).
///
/// The master lives behind an `Arc` so concurrent `with_snapshot`
/// readers *share* the refreshed tree: each reader clones the handle
/// under the cache mutex and runs its callback outside it, so many
/// analysis readers proceed in parallel instead of queueing on one lock
/// for the length of every callback. Refreshes mutate through
/// [`Arc::make_mut`]: while no reader holds the previous snapshot this
/// is in-place; a refresh racing a long-lived reader copies the tree
/// once and leaves the reader's view untouched (readers are never
/// blocked, and never observe a half-refreshed fold).
struct SnapshotCache {
    master: Arc<CallingContextTree>,
    folds: Vec<FoldState>,
    /// Generation folded per shard; `u64::MAX` = never folded (shard
    /// generations start at 0, so the first refresh folds everything).
    generations: Vec<u64>,
}

impl SnapshotCache {
    fn empty(interner: &Arc<Interner>, shards: usize) -> Self {
        SnapshotCache {
            master: Arc::new(CallingContextTree::with_interner(Arc::clone(interner))),
            folds: (0..shards).map(|_| FoldState::new()).collect(),
            generations: vec![u64::MAX; shards],
        }
    }
}

/// The sharded [`EventSink`] (see the [module docs](self)).
pub struct ShardedSink {
    interner: Arc<Interner>,
    shards: Vec<Mutex<CctShard>>,
    /// Whether snapshots go through the incremental cache. Off for
    /// memory-tight deployments: every snapshot is then a full fold and
    /// the sink never holds a second copy of the profile.
    cache_enabled: bool,
    /// Cached incremental snapshot; `None` until the first snapshot is
    /// requested (and again after `finish_snapshot` consumes it).
    cache: Mutex<Option<SnapshotCache>>,
    /// Per-shard bounded interval rings, recorded while kernel/memcpy
    /// records are attributed (i.e. under the shard lock, in both
    /// ingestion modes). `None` when timeline recording is off — the
    /// aggregate-only pipeline then pays nothing for it.
    timeline: Option<TimelineSink>,
    /// Correlation id -> index of the shard it was bound in,
    /// lock-striped by correlation hash so binding and resolving rarely
    /// contend.
    directory: StripedHashDirectory,
    /// The interned `"memcpy"` display name, so memcpy records skip even
    /// the thread-local intern cache on the timeline tap.
    memcpy_sym: Sym,
    /// Self-telemetry instruments (`None` = telemetry off, the default;
    /// every instrumentation site is then a single `Option` branch).
    telemetry: Option<Arc<PipelineTelemetry>>,
    /// Deterministic fault-injection registry (directory-bind and
    /// snapshot-fold stall sites live in this sink). Disabled unless the
    /// `DEEPCONTEXT_FAILPOINTS` spec names one of them; every check is
    /// then one branch on an empty list.
    failpoints: Failpoints,
    /// The incident journal (`None` = journaling off, the default). The
    /// sync sink records only the barrier-anchored flush-boundary event;
    /// the async pipeline and supervisor share this handle for theirs.
    journal: Option<Arc<Journal>>,
    /// Last-known `CctShard::approx_bytes` per shard, refreshed while the
    /// shard lock is already held at batch boundaries, so peak tracking
    /// never sweeps every shard lock.
    shard_bytes: Vec<AtomicUsize>,
    activities: AtomicU64,
    instruction_samples: AtomicU64,
    orphans: AtomicU64,
    peak_bytes: AtomicUsize,
    snapshot_merges: AtomicU64,
    shards_skipped: AtomicU64,
}

impl ShardedSink {
    /// Creates a sink with `shard_count` shards (clamped to at least one)
    /// sharing `interner`, with the incremental snapshot cache enabled.
    pub fn new(interner: Arc<Interner>, shard_count: usize) -> Arc<Self> {
        ShardedSink::with_timeline(interner, shard_count, true, &TimelineConfig::default())
    }

    /// Creates a sink with `shard_count` shards, an explicit snapshot
    /// cache setting (`snapshot_cache: false` trades warm-snapshot
    /// latency for not holding a merged second copy of the profile) and
    /// timeline recording: when `timeline.enabled`, every kernel/memcpy
    /// record attributed by this sink also appends a context-tagged
    /// interval to a bounded per-shard ring (see
    /// [`EventSink::timeline_snapshot`]). Self-telemetry and the journal
    /// stay off; fault injection follows the `DEEPCONTEXT_FAILPOINTS`
    /// environment spec.
    pub fn with_timeline(
        interner: Arc<Interner>,
        shard_count: usize,
        snapshot_cache: bool,
        timeline: &TimelineConfig,
    ) -> Arc<Self> {
        ShardedSink::with_journal(
            interner,
            shard_count,
            snapshot_cache,
            timeline,
            &TelemetryConfig::default(),
            Failpoints::from_env(),
            &JournalConfig::default(),
        )
    }

    /// The full constructor: [`with_timeline`](Self::with_timeline) plus
    /// self-telemetry, an explicit fault-injection registry and the
    /// incident journal.
    ///
    /// * When `telemetry.enabled`, the sink registers its instruments
    ///   once and records shard-lock hold times, producer flush
    ///   sizes/latencies, snapshot fold latencies, and interner/ring
    ///   occupancy as it runs; when additionally
    ///   `telemetry.self_timeline` and the timeline are on, flushes and
    ///   folds are recorded as intervals on the reserved
    ///   [`TrackKey::SELF_DEVICE`] tracks so the exported trace shows
    ///   the profiler's own execution.
    /// * `failpoints` replaces the `DEEPCONTEXT_FAILPOINTS` environment
    ///   spec — how tests inject directory-bind / fold stalls without
    ///   leaking state across tests through the process environment.
    /// * When `journal.enabled`, the sink builds the ring here — attached
    ///   to the same telemetry session as its own instruments, so journal
    ///   timestamps, self-timeline intervals and the
    ///   `deepcontext_journal_*` counters share one clock/registry — and
    ///   records the barrier-anchored flush-boundary event at every
    ///   [`EventSink::epoch_complete`]. The async pipeline / supervisor /
    ///   profiler layers pick the handle up from
    ///   [`journal`](Self::journal) for quarantines, drop storms,
    ///   transitions and retries — one causally ordered record per run.
    pub fn with_journal(
        interner: Arc<Interner>,
        shard_count: usize,
        snapshot_cache: bool,
        timeline: &TimelineConfig,
        telemetry: &TelemetryConfig,
        failpoints: Failpoints,
        journal: &JournalConfig,
    ) -> Arc<Self> {
        let n = shard_count.max(1);
        let telemetry = PipelineTelemetry::from_config(telemetry, &interner);
        let journal =
            Journal::from_config(journal, &interner, telemetry.as_deref().map(|t| t.handle()));
        Arc::new(ShardedSink {
            telemetry,
            failpoints,
            journal,
            timeline: timeline.enabled.then(|| TimelineSink::new(n, timeline)),
            shards: (0..n)
                .map(|_| Mutex::new(CctShard::new(Arc::clone(&interner))))
                .collect(),
            directory: StripedHashDirectory::new(n),
            shard_bytes: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            cache_enabled: snapshot_cache,
            cache: Mutex::new(None),
            memcpy_sym: interner.intern("memcpy"),
            interner,
            activities: AtomicU64::new(0),
            instruction_samples: AtomicU64::new(0),
            orphans: AtomicU64::new(0),
            peak_bytes: AtomicUsize::new(0),
            snapshot_merges: AtomicU64::new(0),
            shards_skipped: AtomicU64::new(0),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The interner shared by every shard.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Whether the incremental snapshot cache is enabled.
    pub fn snapshot_cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    /// Whether kernel/memcpy intervals are being recorded into timeline
    /// rings.
    pub fn timeline_enabled(&self) -> bool {
        self.timeline.is_some()
    }

    /// The self-telemetry instruments, when telemetry is enabled. The
    /// profiler snapshots [`PipelineTelemetry::handle`] for health
    /// reports and exports.
    pub fn telemetry(&self) -> Option<&Arc<PipelineTelemetry>> {
        self.telemetry.as_ref()
    }

    /// The incident journal, when journaling is enabled. The async
    /// pipeline and the profiler pick the handle up from here so every
    /// layer appends to one causally ordered record.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// The fault-injection registry this sink consults. The profiler
    /// installs its fire observer here so injected faults land in the
    /// incident journal.
    pub fn failpoints(&self) -> &Failpoints {
        &self.failpoints
    }

    /// Records one self-timeline interval (`[start_ns, end_ns)` in the
    /// telemetry clock domain) onto the reserved self track `stream`.
    /// A no-op unless telemetry, its self-timeline switch, *and* the
    /// timeline rings are all on.
    pub(crate) fn record_self_interval(&self, stream: u32, start_ns: u64, end_ns: u64, name: Sym) {
        let (Some(telemetry), Some(timeline)) = (&self.telemetry, &self.timeline) else {
            return;
        };
        if !telemetry.self_timeline_enabled() {
            return;
        }
        // Self intervals ride the ring of the shard the stream hashes
        // to, spreading the (tiny) self-traffic across rings instead of
        // hot-spotting shard 0.
        let idx = stream as usize % self.shards.len();
        timeline.record(
            idx,
            Interval {
                track: TrackKey::self_track(stream),
                start: TimeNs(start_ns),
                end: TimeNs(end_ns),
                kind: IntervalKind::Kernel,
                name,
                correlation: 0,
                context: None,
            },
        );
    }

    /// Starts a shard-lock hold-time measurement (`None` when telemetry
    /// is off). Pair with [`note_lock_hold`](Self::note_lock_hold)
    /// before the guard drops.
    fn lock_hold_start(&self) -> Option<u64> {
        self.telemetry.as_ref().map(|t| t.now_ns())
    }

    /// Completes a shard-lock hold-time measurement.
    fn note_lock_hold(&self, start: Option<u64>) {
        if let (Some(t), Some(start)) = (&self.telemetry, start) {
            t.shard_lock_hold.record(t.now_ns().saturating_sub(start));
        }
    }

    /// Refreshes the interner / timeline-ring occupancy gauges. Called
    /// from epoch boundaries (cold path — sizing the rings takes their
    /// locks).
    fn note_occupancy(&self) {
        if let Some(t) = &self.telemetry {
            t.interner_bytes.set(self.interner.approx_bytes() as u64);
            t.ring_bytes.set(
                self.timeline
                    .as_ref()
                    .map(TimelineSink::approx_bytes)
                    .unwrap_or(0) as u64,
            );
        }
    }

    /// Number of shards that have recorded anything — used by routing
    /// tests to assert that multi-stream workloads actually spread.
    pub fn shards_occupied(&self) -> usize {
        self.shards.iter().filter(|s| !s.lock().is_empty()).count()
    }

    /// Live correlation bindings across all shards — introspection for
    /// retirement tests and leak diagnostics.
    pub fn correlation_entries(&self) -> usize {
        self.shards.iter().map(|s| s.lock().correlation_len()).sum()
    }

    /// Live correlation-directory entries — introspection for routing
    /// and leak diagnostics.
    pub fn directory_entries(&self) -> usize {
        self.directory.len()
    }

    fn index_for(&self, key: u64) -> usize {
        (mix(key) % self.shards.len() as u64) as usize
    }

    /// The shard an event from `origin` routes to, keyed by
    /// [`EventOrigin::route_key`]: thread **and** stream for launches (a
    /// single thread fanning work over many streams spreads across
    /// shards), thread alone for CPU samples, correlation id for
    /// identity-less events, shard 0 as the last resort.
    pub fn route(&self, origin: &EventOrigin) -> usize {
        match origin.route_key() {
            Some(key) => self.index_for(key),
            None => 0,
        }
    }

    /// The shard an activity record for `correlation` should be applied
    /// at: the directory's registered home shard when the launch has been
    /// routed already, the correlation-hash shard otherwise.
    pub fn route_activity(&self, correlation: u64) -> usize {
        self.directory_lookup(correlation)
            .unwrap_or_else(|| self.index_for(correlation))
    }

    /// Registers `correlation`'s home shard in the directory without
    /// touching the shard itself. The asynchronous pipeline calls this at
    /// *enqueue* time so activity records that arrive while the launch is
    /// still queued route to the same shard and resolve once the worker
    /// applies the launch ahead of them in FIFO order.
    pub fn bind_route(&self, correlation: u64, shard: usize) {
        self.directory_bind(correlation, shard);
    }

    /// [`bind_route`](Self::bind_route) for a whole launch batch in one
    /// striped pass: each directory stripe holding any of `corrs` is
    /// locked exactly once, so a flushed thread-local batch pays one lock
    /// round-trip per *stripe touched* instead of one per launch.
    pub fn bind_batch(&self, corrs: &[u64], shard: usize) {
        self.directory.bind_batch(corrs, shard as u32);
    }

    /// Forgets every trace of `correlation`: its directory entry and, if
    /// the launch was already applied, the shard's binding — bypassing
    /// the two-phase prune. For drop policies discarding a correlation
    /// whose remaining records will never arrive; without this, evicted
    /// launches/terminal records would leak their entries forever (the
    /// prune only retires correlations whose terminal record was
    /// actually attributed).
    pub fn discard_correlation(&self, correlation: u64) {
        if let Some(idx) = self.directory_lookup(correlation) {
            // Shard before directory stripe (the crate's lock order);
            // the stripe lock from `directory_lookup` is already
            // released here.
            self.shards[idx].lock().unbind(correlation);
        }
        self.directory_remove(correlation);
    }

    fn directory_bind(&self, corr: u64, shard: usize) {
        self.failpoints
            .stall_at(fp_sites::DIR_BIND_STALL, shard as u64);
        self.directory.bind(corr, shard as u32);
    }

    fn directory_lookup(&self, corr: u64) -> Option<usize> {
        self.directory.lookup(corr).map(|s| s as usize)
    }

    fn directory_remove(&self, corr: u64) {
        self.directory.remove(corr);
    }

    /// The interval a kernel/memcpy activity record contributes to the
    /// timeline, tagged with the context `node` it was attributed to
    /// (shard-local; snapshots remap it into the master tree). Other
    /// record kinds carry no device-time window and record nothing.
    ///
    /// This is the recording tap's only contact with the kernel name,
    /// and it avoids even a hash of it on the hot path: a resolved
    /// launch's leaf frame is the `GpuKernel` frame whose name `Sym`
    /// the launch path already interned, so the tap reuses that handle
    /// — one node read, no lock, no clone, no allocation. (Kernel
    /// frames collapse by `(module, pc)`, so the symbol is the code
    /// location's first-seen name — the same convention every CCT view
    /// renders.) Orphaned records, whose node is not a kernel frame,
    /// fall back to interning the record's own name through the worker
    /// thread's local cache ([`Interner::intern_cached`]); memcpys
    /// reuse the pre-interned symbol outright.
    fn interval_of(&self, shard: &CctShard, activity: &Activity, node: NodeId) -> Option<Interval> {
        match &activity.kind {
            ActivityKind::Kernel {
                name,
                stream,
                start,
                end,
                ..
            } => Some(Interval {
                track: TrackKey {
                    device: activity.device.0,
                    stream: stream.0,
                },
                start: *start,
                end: *end,
                kind: IntervalKind::Kernel,
                name: shard
                    .tree()
                    .node(node)
                    .frame()
                    .gpu_kernel_name()
                    .unwrap_or_else(|| self.interner.intern_cached(name)),
                correlation: activity.correlation_id.0,
                context: Some(node),
            }),
            ActivityKind::Memcpy {
                stream, start, end, ..
            } => Some(Interval {
                track: TrackKey {
                    device: activity.device.0,
                    stream: stream.0,
                },
                start: *start,
                end: *end,
                kind: IntervalKind::Memcpy,
                name: self.memcpy_sym,
                correlation: activity.correlation_id.0,
                context: Some(node),
            }),
            ActivityKind::Malloc { .. }
            | ActivityKind::Free { .. }
            | ActivityKind::PcSampling { .. } => None,
        }
    }

    /// Attributes one activity record inside its home shard (`idx`),
    /// recording the record's device interval into the shard's timeline
    /// ring when recording is on — the single tap both ingestion modes
    /// flow through, since the asynchronous workers and the batching
    /// wrapper all drive this same entry point.
    fn attribute_activity(&self, idx: usize, shard: &mut CctShard, activity: &Activity) {
        let corr = activity.correlation_id.0;
        self.activities.fetch_add(1, Ordering::Relaxed);
        let (node, orphaned) = shard.resolve_or_orphan(corr);
        if orphaned {
            self.orphans.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(timeline) = &self.timeline {
            if let Some(interval) = self.interval_of(shard, activity, node) {
                timeline.record(idx, interval);
            }
        }
        let samples = attribute_activity_metrics(shard.tree_mut(), node, activity);
        if matches!(activity.kind, ActivityKind::PcSampling { .. }) {
            // Sampling records keep their correlation live for the kernel
            // record that follows them.
            self.instruction_samples
                .fetch_add(samples, Ordering::Relaxed);
        } else {
            // Terminal record kinds retire their correlation.
            shard.defer_prune(corr);
        }
    }

    /// Applies one launch event at shard `idx`: inserts the call path,
    /// counts kernel launches, and binds the correlation in both the
    /// shard and the directory. `idx` is normally [`route`](Self::route)
    /// of the origin; workers pass the shard their queue is bound to.
    pub fn apply_launch(&self, idx: usize, origin: &EventOrigin, path: &CallPath, api: ApiKind) {
        let mut shard = self.shards[idx].lock();
        let node = shard.insert_call_path(path);
        if api == ApiKind::LaunchKernel {
            shard
                .tree_mut()
                .attribute(node, MetricKind::KernelLaunches, 1.0);
        }
        if let Some(corr) = origin.correlation {
            shard.bind(corr.0, node);
            // Directory stripes are leaf locks: binding here (while the
            // shard is held) guarantees the activity path — which never
            // holds a stripe and a shard at once — sees the binding as
            // soon as it can see the shard's node.
            self.directory_bind(corr.0, idx);
        }
    }

    /// Applies a pre-routed bucket of activity records at shard `idx`,
    /// ending one two-phase-prune batch afterwards. Callers route records
    /// via [`route_activity`](Self::route_activity) first; records whose
    /// correlation lives in another shard fall to the catch-all context.
    pub fn apply_activities(&self, idx: usize, bucket: &[Activity]) {
        self.apply_activity_refs(idx, bucket.iter());
    }

    /// Applies several pre-routed buckets at shard `idx` under **one**
    /// shard-lock acquisition — how pipeline workers batch folds across
    /// flush boundaries — while still ending one two-phase-prune batch
    /// per bucket, so correlation retirement keeps exactly the cadence
    /// of applying each bucket synchronously (resident correlation state
    /// stays proportional to the in-flight window, not to the worker's
    /// backlog).
    pub fn apply_activity_buckets(&self, idx: usize, buckets: &[Vec<Activity>]) {
        if buckets.iter().all(|bucket| bucket.is_empty()) {
            return;
        }
        let pruned = {
            let mut shard = self.shards[idx].lock();
            let hold = self.lock_hold_start();
            let mut pruned = Vec::new();
            for bucket in buckets {
                if bucket.is_empty() {
                    continue;
                }
                for activity in bucket {
                    self.attribute_activity(idx, &mut shard, activity);
                }
                pruned.extend(shard.end_batch());
            }
            self.shard_bytes[idx].store(shard.approx_bytes(), Ordering::Relaxed);
            self.note_lock_hold(hold);
            pruned
        };
        for corr in pruned {
            self.directory_remove(corr);
        }
    }

    /// Applies one flushed thread-local batch at shard `idx` under **one**
    /// shard-lock acquisition, preserving buffer order: launches insert
    /// and bind (their directory entries were published by the flush's
    /// [`bind_batch`](Self::bind_batch) pass), samples attribute — so a
    /// batched producer folds exactly the state an unbatched one would,
    /// at a fraction of the locking cost.
    pub(crate) fn apply_producer_batch(&self, idx: usize, events: &[ProducerEvent]) {
        if events.is_empty() {
            return;
        }
        let mut shard = self.shards[idx].lock();
        let hold = self.lock_hold_start();
        for event in events {
            match event {
                ProducerEvent::Launch { origin, path, api } => {
                    let node = shard.insert_call_path(path);
                    if *api == ApiKind::LaunchKernel {
                        shard
                            .tree_mut()
                            .attribute(node, MetricKind::KernelLaunches, 1.0);
                    }
                    if let Some(corr) = origin.correlation {
                        shard.bind(corr.0, node);
                    }
                }
                ProducerEvent::Sample {
                    path,
                    metric,
                    value,
                } => {
                    let node = shard.insert_call_path(path);
                    shard.tree_mut().attribute(node, *metric, *value);
                }
            }
        }
        // Deliberately no `shard_bytes` refresh: like `apply_launch` and
        // `apply_cpu_sample`, launch/sample shards enter peak accounting
        // at flush boundaries only, so the set of states a peak sample
        // can observe is identical with and without producer batching.
        self.note_lock_hold(hold);
    }

    /// Routes an owned activity buffer into per-shard buckets without
    /// cloning a record (or PC-sampling payload): the whole buffer is
    /// returned as-is when every record shares one home shard — the
    /// common case for single-stream producers.
    pub(crate) fn partition_activities(&self, batch: Vec<Activity>) -> Vec<(usize, Vec<Activity>)> {
        let routes: Vec<u32> = batch
            .iter()
            .map(|a| self.route_activity(a.correlation_id.0) as u32)
            .collect();
        let first = routes[0];
        if routes.iter().all(|&r| r == first) {
            return vec![(first as usize, batch)];
        }
        let mut buckets: Vec<Vec<Activity>> = vec![Vec::new(); self.shards.len()];
        for (activity, idx) in batch.into_iter().zip(&routes) {
            buckets[*idx as usize].push(activity);
        }
        buckets
            .into_iter()
            .enumerate()
            .filter(|(_, bucket)| !bucket.is_empty())
            .collect()
    }

    /// Attributes `count` pipeline-dropped events to shard `idx`'s
    /// synthetic `<dropped>` context, so `DropOldest` overload shows up
    /// inside the profile (not just in side counters).
    pub fn apply_dropped(&self, idx: usize, count: u64) {
        if count == 0 {
            return;
        }
        let mut shard = self.shards[idx].lock();
        shard.attribute_dropped(count);
        self.shard_bytes[idx].store(shard.approx_bytes(), Ordering::Relaxed);
    }

    /// Attributes sampled eviction-victim contexts as children of shard
    /// `idx`'s `<dropped>` node, `stride` events each (the sampler keeps
    /// one victim per `stride` evicted events, so the per-context counts
    /// are unbiased estimates). Victims attribute *exclusively*: the
    /// exact root-ward total [`apply_dropped`](Self::apply_dropped) puts
    /// at `<dropped>` is never double-counted.
    pub fn apply_dropped_samples(&self, idx: usize, paths: &[CallPath], stride: u64) {
        if paths.is_empty() {
            return;
        }
        let mut shard = self.shards[idx].lock();
        for path in paths {
            shard.attribute_dropped_sample(path, stride as f64);
        }
        self.shard_bytes[idx].store(shard.approx_bytes(), Ordering::Relaxed);
    }

    /// Attributes `count` events lost to a quarantined worker to shard
    /// `idx`'s synthetic `<poisoned>` context, so fault isolation shows
    /// up inside the profile (not just in side counters) — the
    /// `<dropped>` convention, applied to panics.
    pub fn apply_poisoned(&self, idx: usize, count: u64) {
        if count == 0 {
            return;
        }
        let mut shard = self.shards[idx].lock();
        shard.attribute_poisoned(count);
        self.shard_bytes[idx].store(shard.approx_bytes(), Ordering::Relaxed);
    }

    fn apply_activity_refs<'a>(&self, idx: usize, bucket: impl Iterator<Item = &'a Activity>) {
        let mut bucket = bucket.peekable();
        if bucket.peek().is_none() {
            return;
        }
        let pruned = {
            let mut shard = self.shards[idx].lock();
            let hold = self.lock_hold_start();
            for activity in bucket {
                self.attribute_activity(idx, &mut shard, activity);
            }
            // Two-phase pruning per shard: correlations attributed in
            // the shard's *previous* batch are dropped now, so
            // sampling records straddling a buffer boundary resolve.
            let pruned = shard.end_batch();
            self.shard_bytes[idx].store(shard.approx_bytes(), Ordering::Relaxed);
            self.note_lock_hold(hold);
            pruned
        };
        for corr in pruned {
            self.directory_remove(corr);
        }
    }

    /// Applies one CPU sample at shard `idx` (normally
    /// [`route`](Self::route) of the sampled thread's origin). The
    /// shard's byte estimate is deliberately *not* refreshed here — like
    /// every pipeline before this one, sample-only shards enter peak
    /// accounting at flush boundaries (their `epoch_complete_shard`),
    /// keeping the per-sample hot path O(path) and the set of states a
    /// peak sample can observe identical across ingestion modes.
    pub fn apply_cpu_sample(&self, idx: usize, path: &CallPath, metric: MetricKind, value: f64) {
        let mut shard = self.shards[idx].lock();
        let node = shard.insert_call_path(path);
        shard.tree_mut().attribute(node, metric, value);
    }

    /// The per-shard portion of [`EventSink::epoch_complete`]: retires the
    /// shard's deferred correlations (every straggler has been delivered
    /// by the flush boundary) and releases batch-sized scratch.
    pub fn epoch_complete_shard(&self, idx: usize) {
        let pruned = {
            let mut shard = self.shards[idx].lock();
            // Every deferred correlation's trailing records have been
            // delivered by now, so one extra epoch retires them all.
            let pruned = shard.end_batch();
            shard.trim();
            self.shard_bytes[idx].store(shard.approx_bytes(), Ordering::Relaxed);
            pruned
        };
        for corr in pruned {
            self.directory_remove(corr);
        }
    }

    /// Sheds the directory stripes' high-water capacity — the cross-shard
    /// portion of a flush boundary, run after every shard's
    /// [`epoch_complete_shard`](Self::epoch_complete_shard). Both
    /// ingestion modes pass through here at every epoch, which makes it
    /// the natural cadence for the occupancy gauges too.
    pub fn trim_directory(&self) {
        self.directory.trim();
        self.note_occupancy();
    }

    /// Brings the snapshot cache up to date: folds every shard whose
    /// dirty generation advanced since the last refresh and skips the
    /// rest. Each shard lock is held only while that one shard is
    /// inspected/folded (cache → shard is the only lock order involving
    /// the cache, so ingestion never deadlocks against refreshes).
    fn refresh_cache(&self, cache: &mut Option<SnapshotCache>) {
        self.failpoints.stall_at(fp_sites::FOLD_STALL, 0);
        let cache =
            cache.get_or_insert_with(|| SnapshotCache::empty(&self.interner, self.shards.len()));
        let fold_start = self.telemetry.as_ref().map(|t| t.now_ns());
        let mut folded = 0u32;
        for (idx, slot) in self.shards.iter().enumerate() {
            let shard = slot.lock();
            let generation = shard.generation();
            if cache.generations[idx] == generation {
                self.shards_skipped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // Copy-on-write only when a reader still holds the previous
            // snapshot handle; clean refreshes never reach this line, so
            // an idle profile costs nothing.
            Arc::make_mut(&mut cache.master).merge_incremental(shard.tree(), &mut cache.folds[idx]);
            cache.generations[idx] = generation;
            self.snapshot_merges.fetch_add(1, Ordering::Relaxed);
            folded += 1;
        }
        if let (Some(t), Some(start)) = (&self.telemetry, fold_start) {
            // Clean refreshes (every shard skipped) stay out of the fold
            // histogram — they would drown the signal in near-zeros.
            if folded > 0 {
                let end = t.now_ns();
                t.fold_latency.record(end.saturating_sub(start));
                self.record_self_interval(TrackKey::SELF_STREAM_FOLD, start, end, t.fold_sym);
            }
        }
    }

    /// Folds all shards into a fresh master tree, bypassing the snapshot
    /// cache — the historical O(shards × tree) path, kept as the
    /// benchmark baseline, as the oracle the `cached == fresh`
    /// equivalence tests compare against, and as the only snapshot path
    /// when the cache is disabled.
    pub fn snapshot_uncached(&self) -> CallingContextTree {
        let mut master = CallingContextTree::with_interner(Arc::clone(&self.interner));
        for shard in &self.shards {
            master.merge(shard.lock().tree());
        }
        master
    }

    /// Records the current approximate profile size into the peak, using
    /// the per-shard byte estimates refreshed at batch boundaries — no
    /// cross-shard locking on the ingestion hot path.
    pub(crate) fn note_peak(&self) {
        let shard_bytes: usize = self
            .shard_bytes
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum();
        let bytes =
            shard_bytes + self.directory.len() * DIR_ENTRY_BYTES + self.interner.approx_bytes();
        self.peak_bytes.fetch_max(bytes, Ordering::Relaxed);
    }
}

impl EventSink for ShardedSink {
    fn gpu_launch(&self, origin: &EventOrigin, path: &CallPath, api: ApiKind) {
        self.apply_launch(self.route(origin), origin, path, api);
    }

    fn activity_batch(&self, batch: &[Activity]) {
        if batch.is_empty() {
            return;
        }
        // Route every record to its home shard first, then take each
        // shard lock once per batch.
        let mut buckets: Vec<Vec<&Activity>> = vec![Vec::new(); self.shards.len()];
        for activity in batch {
            let idx = self.route_activity(activity.correlation_id.0);
            buckets[idx].push(activity);
        }
        for (idx, bucket) in buckets.iter().enumerate() {
            self.apply_activity_refs(idx, bucket.iter().copied());
        }
        self.note_peak();
    }

    fn cpu_sample(&self, origin: &EventOrigin, path: &CallPath, metric: MetricKind, value: f64) {
        self.apply_cpu_sample(self.route(origin), path, metric, value);
    }

    fn epoch_complete(&self) {
        for idx in 0..self.shards.len() {
            self.epoch_complete_shard(idx);
        }
        // Directory stripes shed their high-water capacity too.
        self.trim_directory();
        // The barrier-anchored journal event: by the time either
        // ingestion mode reaches its flush boundary the same events have
        // been applied, so sync and async runs journal identical epoch
        // sequences (the equivalence suite holds this as an invariant).
        // The async pipeline does not route through this method — it
        // records the same site itself after its drain barrier.
        if let Some(journal) = &self.journal {
            journal.record(JournalSeverity::Info, journal_sites::PIPELINE_EPOCH, &[]);
        }
    }

    fn snapshot(&self) -> CallingContextTree {
        if !self.cache_enabled {
            return self.snapshot_uncached();
        }
        // Trees only: correlation state stays in the shards (it is still
        // needed for records that have not arrived yet), so the fold skips
        // `CctShard::merge_from`'s remapping work. The fold is cached and
        // refreshed incrementally: clean shards are skipped outright.
        let mut cache = self.cache.lock();
        self.refresh_cache(&mut cache);
        CallingContextTree::clone(&cache.as_ref().expect("cache refreshed").master)
    }

    fn with_snapshot(&self, f: &mut dyn FnMut(&CallingContextTree)) {
        if !self.cache_enabled {
            f(&self.snapshot_uncached());
            return;
        }
        // Clone the refreshed master's *handle* under the cache mutex,
        // then run the callback outside it: concurrent readers share one
        // snapshot instead of queueing on the cache lock for the length
        // of every callback, and a callback may safely re-enter this
        // sink's snapshot APIs.
        let master = {
            let mut cache = self.cache.lock();
            self.refresh_cache(&mut cache);
            Arc::clone(&cache.as_ref().expect("cache refreshed").master)
        };
        f(&master);
    }

    fn finish_snapshot(&self) -> CallingContextTree {
        if !self.cache_enabled {
            return self.snapshot_uncached();
        }
        let mut cache = self.cache.lock();
        self.refresh_cache(&mut cache);
        let master = cache.take().expect("cache refreshed").master;
        // Unwrap the handle without copying unless a reader still holds
        // the final snapshot.
        Arc::try_unwrap(master).unwrap_or_else(|shared| CallingContextTree::clone(&shared))
    }

    fn timeline_snapshot(&self) -> Option<TimelineSnapshot> {
        let timeline = self.timeline.as_ref()?;
        if self.cache_enabled {
            // Refresh the cached master first: the fold is append-only,
            // so every interval context recorded so far has a slot in
            // the per-shard fold mappings, and the remapped ids index
            // into exactly the tree `snapshot`/`with_snapshot` serve.
            // The mappings are copied out so the cache mutex is released
            // before the rings are cloned and remapped — assembling a
            // full timeline must not stall concurrent `with_snapshot`
            // readers (mappings are 4 bytes per folded node; the rings
            // dominate).
            let mappings: Vec<Vec<NodeId>> = {
                let mut cache = self.cache.lock();
                self.refresh_cache(&mut cache);
                let cache = cache.as_ref().expect("cache refreshed");
                cache.folds.iter().map(|f| f.mapping().to_vec()).collect()
            };
            Some(
                timeline
                    .snapshot_with(|shard, node| mappings[shard].get(node.index()).copied())
                    // One symbol-table capture per snapshot (not per
                    // interval): exporters resolve `Sym` names by index.
                    .with_names(self.interner.snapshot()),
            )
        } else {
            // No cache to borrow mappings from: run one deterministic
            // fold (same shard order as `snapshot_uncached`, so the ids
            // match an uncached snapshot taken at the same quiesce
            // point) purely to learn the shard → master node mappings.
            let mut master = CallingContextTree::with_interner(Arc::clone(&self.interner));
            let mappings: Vec<Vec<NodeId>> = self
                .shards
                .iter()
                .map(|shard| master.merge(shard.lock().tree()))
                .collect();
            Some(
                timeline
                    .snapshot_with(|shard, node| mappings[shard].get(node.index()).copied())
                    .with_names(self.interner.snapshot()),
            )
        }
    }

    fn counters(&self) -> SinkCounters {
        let timeline = self
            .timeline
            .as_ref()
            .map(|t| t.counters())
            .unwrap_or_default();
        SinkCounters {
            activities: self.activities.load(Ordering::Relaxed),
            instruction_samples: self.instruction_samples.load(Ordering::Relaxed),
            orphans: self.orphans.load(Ordering::Relaxed),
            peak_bytes: self.peak_bytes.load(Ordering::Relaxed),
            snapshot_merges: self.snapshot_merges.load(Ordering::Relaxed),
            shards_skipped: self.shards_skipped.load(Ordering::Relaxed),
            timeline_intervals: timeline.recorded,
            timeline_dropped: timeline.dropped,
            ..SinkCounters::default()
        }
    }

    fn approx_bytes(&self) -> usize {
        // The snapshot cache (cached master tree + per-shard fold state)
        // is tool memory too — once an analysis session opens, it holds
        // roughly another copy of the profile.
        let cache_bytes: usize = self
            .cache
            .lock()
            .as_ref()
            .map(|c| {
                c.master.approx_tree_bytes()
                    + c.folds.iter().map(FoldState::approx_bytes).sum::<usize>()
            })
            .unwrap_or(0);
        let shard_bytes: usize = self.shards.iter().map(|s| s.lock().approx_bytes()).sum();
        let dir_bytes = self.directory.approx_bytes();
        // Timeline rings are ingestion state too (bounded by
        // ring_capacity × shards, allocated lazily).
        let timeline_bytes = self
            .timeline
            .as_ref()
            .map(TimelineSink::approx_bytes)
            .unwrap_or(0);
        shard_bytes + dir_bytes + cache_bytes + timeline_bytes + self.interner.approx_bytes()
    }
}

impl std::fmt::Debug for ShardedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSink")
            .field("shards", &self.shards.len())
            .field("counters", &self.counters())
            .finish()
    }
}
