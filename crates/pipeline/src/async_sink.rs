//! The asynchronous ingestion pipeline.
//!
//! [`AsyncSink`] decouples event *production* from event *attribution*:
//! producers (launch callbacks, activity-buffer flushes, CPU samplers)
//! only route the event, record its correlation's home shard in the
//! directory, and enqueue an owned copy into that shard's bounded
//! channel — no shard lock, no tree mutation, no metric fold on the
//! producer's critical path. A configurable worker pool drains the
//! channels and drives the events through the same
//! [`ShardedSink`] per-shard entry points the synchronous mode uses
//! ([`ShardedSink::apply_launch`] et al.), so the two modes cannot drift
//! apart semantically.
//!
//! # Ordering
//!
//! Correctness rests on two invariants:
//!
//! * **Per-shard FIFO.** Each shard's events flow through one bounded
//!   channel consumed by exactly one worker (shard *i* is owned by
//!   worker *i* mod `workers`), so a launch is always applied before the
//!   activity records that resolve through its correlation — the
//!   activity can only be enqueued after the launch callback returned.
//! * **Enqueue-time route binding.** The producer registers
//!   `correlation → shard` in the directory *before* the launch event is
//!   applied ([`ShardedSink::bind_route`]), so activity records that
//!   arrive while the launch is still queued route to the same shard and
//!   find the binding once the worker reaches it.
//!
//! # Backpressure
//!
//! Bounded channels make the producer-side cost explicit when workers
//! fall behind ([`BackpressurePolicy`]):
//!
//! * [`Block`](BackpressurePolicy::Block) (default): the producer blocks
//!   until the worker frees a slot — no event is ever lost, the workload
//!   stalls instead (the paper's low-overhead contract: prefer bounded
//!   memory over unbounded queues).
//! * [`DropOldest`](BackpressurePolicy::DropOldest): the producer evicts
//!   the oldest queued message, counts the discarded events in
//!   [`SinkCounters::dropped_events`], and enqueues — the workload never
//!   stalls, the profile becomes a sample.
//!
//! # Drain barriers
//!
//! Every snapshot path ([`EventSink::snapshot`] / `with_snapshot` /
//! `finish_snapshot`), `epoch_complete` and `counters` first runs a
//! deterministic drain barrier: it records each queue's enqueue count
//! and waits until the matching number of messages has been applied (or
//! dropped). Events enqueued *after* the barrier started are not waited
//! for, so a barrier under live producers still terminates. This is what
//! keeps `Profiler::flush()` / `finish()` / `with_cct` exactly as
//! deterministic as the synchronous mode.
//!
//! `epoch_complete` additionally propagates the flush boundary through
//! the queues as an [`Event::Epoch`] marker per shard, so shard trim /
//! generation semantics happen in event order on the owning worker, then
//! trims the routing directory once the barrier completes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{self, TrySendError};

use deepcontext_core::failpoint::sites as fp_sites;
use deepcontext_core::{CallPath, CallingContextTree, Failpoints, MetricKind, TrackKey};
use deepcontext_telemetry::{
    journal_sites, names, Counter, Gauge, Histogram, Journal, JournalSeverity,
};
use dlmonitor::EventOrigin;
use sim_gpu::{Activity, ActivityKind, ApiKind};

use crate::batch::{BatchCounters, BatchDelivery, Batcher, ProducerEvent};
use crate::self_telemetry::PipelineTelemetry;
use crate::sharded::ShardedSink;
use crate::sink::{EventSink, SinkCounters};

/// What producers do when a shard queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Block the producer until the worker frees a slot. No event is
    /// ever dropped; the monitored workload absorbs the stall.
    #[default]
    Block,
    /// Evict the oldest queued message (counting its events as dropped)
    /// and enqueue. The workload never stalls; the profile under
    /// sustained overload becomes a sample of the event stream.
    DropOldest,
}

/// Asynchronous-pipeline tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Attribution worker threads. `0` = auto: one per shard, capped at
    /// the host's available parallelism.
    pub workers: usize,
    /// Bounded capacity of each shard's queue, in messages (one launch,
    /// one CPU sample, one routed activity bucket, or one flushed
    /// thread-local batch per message).
    pub queue_capacity: usize,
    /// What producers do when a shard queue is full.
    pub backpressure: BackpressurePolicy,
    /// Thread-local producer batching threshold, in events: launches and
    /// CPU samples accumulate in a per-thread buffer that is flushed —
    /// one striped-directory bind pass plus one channel batch-push per
    /// shard — when this many events are pending, at every barrier
    /// (flush / snapshot / finish / epoch / counters), before any
    /// activity delivery, and on thread exit. `1` disables batching
    /// (every event is enqueued as it happens). The default honours the
    /// `DEEPCONTEXT_LAUNCH_BATCH` environment override
    /// ([`default_launch_batch`](crate::default_launch_batch)).
    ///
    /// Applies to the synchronous pipeline too: the profiler wraps its
    /// [`ShardedSink`] in a [`BatchingSink`](crate::BatchingSink) when
    /// this is above 1.
    pub launch_batch: usize,
    /// Deterministic fault-injection registry for the pipeline's sites
    /// (see [`crate::failpoint`]). The default honours the
    /// `DEEPCONTEXT_FAILPOINTS` environment spec; when no spec is set
    /// every site check is one branch on an empty registry.
    pub failpoints: Failpoints,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            workers: 0,
            queue_capacity: 256,
            backpressure: BackpressurePolicy::Block,
            launch_batch: crate::default_launch_batch(),
            failpoints: Failpoints::from_env(),
        }
    }
}

impl PipelineConfig {
    fn resolved_workers(&self, shards: usize) -> usize {
        let auto = || {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        match self.workers {
            0 => shards.min(auto()).max(1),
            n => n.min(shards).max(1),
        }
    }
}

/// One message through a shard queue. Activity buckets are pre-routed by
/// the producer, so a message never needs re-routing on the worker.
enum Event {
    Launch {
        origin: EventOrigin,
        path: CallPath,
        api: ApiKind,
    },
    Activities(Vec<Activity>),
    Sample {
        path: CallPath,
        metric: MetricKind,
        value: f64,
    },
    /// One flushed thread-local producer batch (launches and samples in
    /// buffer order), applied under a single shard-lock acquisition.
    Batch(Vec<ProducerEvent>),
    /// A flush boundary, propagated per shard in event order.
    Epoch,
}

impl Event {
    /// Underlying profiler events carried by this message (what the
    /// `enqueued_events` / `dropped_events` counters count).
    fn weight(&self) -> u64 {
        match self {
            Event::Activities(batch) => batch.len() as u64,
            Event::Batch(events) => events.len() as u64,
            Event::Launch { .. } | Event::Sample { .. } => 1,
            Event::Epoch => 0,
        }
    }
}

/// The context a dropped message would have attributed to, when it
/// carries one: launches and samples carry their call path, flushed
/// producer batches yield their first event's path. Activity buckets
/// carry only correlations (their context lives in the shard) and epochs
/// carry nothing — neither contributes a victim sample.
fn victim_path(event: &Event) -> Option<&CallPath> {
    match event {
        Event::Launch { path, .. } | Event::Sample { path, .. } => Some(path),
        Event::Batch(events) => events.first().map(|e| match e {
            ProducerEvent::Launch { path, .. } | ProducerEvent::Sample { path, .. } => path,
        }),
        Event::Activities(_) | Event::Epoch => None,
    }
}

/// One shard's bounded queue plus the sequence counters the drain
/// barrier is built on: `enqueued` counts messages accepted, `applied`
/// counts messages retired (attributed by a worker or evicted by
/// `DropOldest`). `applied >= enqueued-at-barrier-entry` ⇒ the shard has
/// caught up with everything that preceded the barrier.
struct ShardQueue {
    tx: channel::Sender<Event>,
    rx: channel::Receiver<Event>,
    enqueued: AtomicU64,
    applied: AtomicU64,
    /// Epoch markers displaced from the queue by `DropOldest` eviction,
    /// owed to the shard: the owning worker applies them (collapsed to
    /// one `epoch_complete_shard`, since back-to-back epochs with
    /// nothing between them are a no-op after the first) at the end of
    /// its next pass over the shard.
    pending_epochs: AtomicU64,
    /// Events this queue's `DropOldest` evictions discarded — the
    /// per-shard half of the global `dropped_events` counter, feeding the
    /// synthetic `<dropped>` CCT context.
    dropped: AtomicU64,
    /// How much of [`dropped`](Self::dropped) has already been attributed
    /// to the shard's `<dropped>` context (snapshot paths publish the
    /// delta).
    dropped_published: AtomicU64,
    /// Events this shard lost to caught worker panics — the per-shard
    /// half of the global `poisoned_events` counter, feeding the
    /// synthetic `<poisoned>` CCT context the same way `dropped` feeds
    /// `<dropped>`.
    poisoned: AtomicU64,
    /// How much of [`poisoned`](Self::poisoned) has been attributed.
    poisoned_published: AtomicU64,
    /// Running count of events evicted by `DropOldest`, driving the
    /// 1-in-[`DROP_SAMPLE_STRIDE`] victim sampler.
    evicted_seen: AtomicU64,
    /// Sampled victim contexts awaiting publication — a bounded ring
    /// (oldest overwritten at [`DROP_SAMPLE_RING`]) drained by snapshot
    /// paths into `<dropped>`-child estimates.
    victims: Mutex<Vec<CallPath>>,
}

/// Parking slot for one worker: producers nudge it only when it is (or
/// may be) parked, so the enqueue fast path costs one atomic load. The
/// worker re-checks for work after flagging itself parked and waits with
/// a timeout, so a lost nudge costs at most one timeout period.
struct Parker {
    mutex: Mutex<()>,
    cv: Condvar,
    parked: AtomicBool,
}

impl Parker {
    fn new() -> Self {
        Parker {
            mutex: Mutex::new(()),
            cv: Condvar::new(),
            parked: AtomicBool::new(false),
        }
    }

    fn nudge(&self) {
        if self.parked.load(Ordering::Acquire) {
            let _guard = self.mutex.lock().unwrap_or_else(|e| e.into_inner());
            self.cv.notify_all();
        }
    }
}

const PARK_TIMEOUT: Duration = Duration::from_micros(500);
/// Messages a worker retires from one shard before visiting the next —
/// bounds per-shard latency while still coalescing adjacent activity
/// buckets under one shard lock.
const COALESCE: usize = 128;
/// Activity records a worker accumulates into one coalesced bucket
/// before applying it. Coalescing across flush boundaries amortizes the
/// shard lock and the fold, but each coalesced apply runs `end_batch`
/// only once — so an unbounded run would defer two-phase pruning and let
/// live correlation state balloon with the queue backlog. This cap keeps
/// the prune cadence within a small factor of synchronous mode.
const COALESCE_RECORDS: usize = 512;
/// Events per `Event::Batch` queue message: flushed producer batches
/// larger than this are chunked (and pushed as one single-notify channel
/// run), so a message never represents an unbounded slice of the queue's
/// capacity.
const MESSAGE_GRAIN: usize = 64;
/// Per-context drop-sampling stride: under `DropOldest`, every
/// `DROP_SAMPLE_STRIDE`-th evicted event contributes its message's
/// already-bound context to the shard's victim ring, so each published
/// victim stands for this many dropped events (an unbiased per-context
/// estimate of where the overload fell).
const DROP_SAMPLE_STRIDE: u64 = 16;
/// Capacity of each shard's victim ring — bounds sampler memory under
/// sustained overload; the ring keeps the *most recent* victims.
const DROP_SAMPLE_RING: usize = 32;

/// The asynchronous layer's pre-registered telemetry handles: per-shard
/// queue-depth histograms plus the global enqueue/drop counters and
/// queue gauges. Built once at [`AsyncSink::new`] from the wrapped
/// sink's [`PipelineTelemetry`]; absent when telemetry is off.
struct SharedTelemetry {
    pipeline: Arc<PipelineTelemetry>,
    enqueued: Arc<Counter>,
    dropped: Arc<Counter>,
    poisoned: Arc<Counter>,
    worker_panics: Arc<Counter>,
    max_depth: Arc<Gauge>,
    queue_depth: Vec<Arc<Histogram>>,
}

/// One worker's telemetry handles, registered (per `worker` label) when
/// its loop starts.
struct WorkerTelemetry {
    pipeline: Arc<PipelineTelemetry>,
    busy_ns: Arc<Counter>,
    parked_ns: Arc<Counter>,
    batch_size: Arc<Histogram>,
}

impl WorkerTelemetry {
    fn register(shared: &SharedTelemetry, worker: usize) -> WorkerTelemetry {
        let handle = shared.pipeline.handle();
        let label = worker.to_string();
        WorkerTelemetry {
            busy_ns: handle.counter(names::WORKER_BUSY_NS, &[("worker", label.as_str())]),
            parked_ns: handle.counter(names::WORKER_PARKED_NS, &[("worker", label.as_str())]),
            batch_size: handle.histogram(names::WORKER_BATCH_SIZE, &[("worker", label.as_str())]),
            pipeline: Arc::clone(&shared.pipeline),
        }
    }
}

struct Shared {
    inner: Arc<ShardedSink>,
    queues: Vec<ShardQueue>,
    parkers: Vec<Parker>,
    policy: BackpressurePolicy,
    shutdown: AtomicBool,
    paused: AtomicBool,
    paused_workers: AtomicUsize,
    /// Per-shard quarantine flags: set when an apply against the shard
    /// panicked (caught). A quarantined shard's queue keeps draining —
    /// its data events are accounted as poisoned, its flush boundaries
    /// still retire correlation state — so drain barriers, `pause`,
    /// `resume` and `finish` all complete as if the shard were healthy.
    quarantined: Vec<AtomicBool>,
    /// Fault-injection registry ([`PipelineConfig::failpoints`]).
    failpoints: Failpoints,
    // Drain-barrier rendezvous.
    drain_mutex: Mutex<()>,
    drain_cv: Condvar,
    drain_waiters: AtomicUsize,
    /// Serializes `<dropped>`-telemetry publication (see
    /// [`publish_drops`](Shared::publish_drops)).
    drop_publish: Mutex<()>,
    // Pipeline counters.
    enqueued_events: AtomicU64,
    dropped_events: AtomicU64,
    poisoned_events: AtomicU64,
    worker_panics: AtomicU64,
    max_queue_depth: AtomicU64,
    drain_waits: AtomicU64,
    worker_batches: AtomicU64,
    worker_events: AtomicU64,
    producer_batches: BatchCounters,
    /// Self-telemetry handles (`None` = telemetry off).
    telemetry: Option<SharedTelemetry>,
    /// Incident journal (`None` = journaling off), shared with the inner
    /// sink so every pipeline layer appends to one causal record.
    journal: Option<Arc<Journal>>,
    /// Whether the pipeline is inside a drop storm: set by the first
    /// `DropOldest` eviction after a clean window, cleared by the first
    /// drain barrier that completes afterwards. Journal-only state — the
    /// flag is never read when journaling is off.
    in_drop_storm: AtomicBool,
    /// Events dropped since the current storm began (reported by the
    /// storm-end journal event, then reset).
    storm_dropped: AtomicU64,
}

impl Shared {
    fn worker_for(&self, shard: usize) -> usize {
        shard % self.parkers.len()
    }

    /// Messages queued at `shard` right now, derived from the sequence
    /// counters so the hot path never takes the queue lock twice.
    fn depth(&self, shard: usize) -> u64 {
        let q = &self.queues[shard];
        q.enqueued
            .load(Ordering::Acquire)
            .saturating_sub(q.applied.load(Ordering::Acquire))
    }

    /// Counts `weight` events as accepted, mirroring into telemetry when
    /// it is on.
    fn note_enqueued(&self, weight: u64) {
        self.enqueued_events.fetch_add(weight, Ordering::Relaxed);
        if let Some(t) = &self.telemetry {
            t.enqueued.add(weight);
        }
    }

    /// Counts `weight` events as dropped, mirroring into telemetry when
    /// it is on. With journaling on, the first drop after a clean window
    /// opens a *drop storm*: one onset event now, one end event at the
    /// first drain barrier that completes afterwards — the journal shows
    /// the storm's extent, not one entry per evicted message.
    fn note_dropped(&self, weight: u64) {
        self.dropped_events.fetch_add(weight, Ordering::Relaxed);
        if let Some(t) = &self.telemetry {
            t.dropped.add(weight);
        }
        if let Some(journal) = &self.journal {
            self.storm_dropped.fetch_add(weight, Ordering::Relaxed);
            if !self.in_drop_storm.swap(true, Ordering::AcqRel) {
                journal.record(
                    JournalSeverity::Warn,
                    journal_sites::DROP_STORM_START,
                    &[("weight", &weight.to_string())],
                );
            }
        }
    }

    /// Counts `weight` events of shard `shard` as poisoned (lost to a
    /// caught worker panic), mirroring into telemetry when it is on.
    /// Snapshot paths publish the per-shard tally into the shard's
    /// synthetic `<poisoned>` context.
    fn note_poisoned(&self, shard: usize, weight: u64) {
        if weight == 0 {
            return;
        }
        self.poisoned_events.fetch_add(weight, Ordering::Relaxed);
        self.queues[shard]
            .poisoned
            .fetch_add(weight, Ordering::Relaxed);
        if let Some(t) = &self.telemetry {
            t.poisoned.add(weight);
        }
    }

    fn is_quarantined(&self, shard: usize) -> bool {
        self.quarantined[shard].load(Ordering::Acquire)
    }

    /// Records one caught worker panic and quarantines the shard whose
    /// apply unwound.
    fn record_worker_panic(&self, shard: usize) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
        let already = self.quarantined[shard].swap(true, Ordering::Release);
        if let Some(t) = &self.telemetry {
            t.worker_panics.add(1);
        }
        if let Some(journal) = &self.journal {
            if !already {
                journal.record(
                    JournalSeverity::Error,
                    journal_sites::SHARD_QUARANTINE,
                    &[("shard", &shard.to_string())],
                );
            }
        }
    }

    /// Runs one attribution `apply` against shard `idx` behind the fault
    /// boundary: the `worker_panic` failpoint fires first (so injected
    /// panics unwind before any state mutates and event conservation
    /// stays exact), and any unwind is caught and converted into a
    /// shard quarantine. Returns whether the apply completed, so the
    /// caller can account the message's events as attributed or
    /// poisoned.
    fn apply_isolated(&self, idx: usize, apply: impl FnOnce()) -> bool {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if self
                .failpoints
                .should_fire_at(fp_sites::WORKER_PANIC, idx as u64)
            {
                panic!("injected worker_panic at shard {idx}");
            }
            apply();
        }));
        if outcome.is_err() {
            self.record_worker_panic(idx);
        }
        outcome.is_ok()
    }

    /// Accounts one message arriving at a quarantined shard: data events
    /// join the `<poisoned>` tally and release the correlation state
    /// nothing will ever retire; flush boundaries are control flow and
    /// still retire the shard's deferred correlations (caught if the
    /// shard's state is broken enough to panic again).
    fn poison_message(&self, idx: usize, event: &Event) {
        match event {
            Event::Epoch => {
                let _ = catch_unwind(AssertUnwindSafe(|| self.inner.epoch_complete_shard(idx)));
            }
            _ => {
                self.note_poisoned(idx, event.weight());
                self.discard_bindings_of(event);
            }
        }
    }

    /// The quarantined-shard drain loop: messages keep retiring (so
    /// drain barriers and shutdown never hang on a poisoned shard) but
    /// nothing touches the shard's tree except flush boundaries.
    fn drain_quarantined_shard(&self, idx: usize) -> u64 {
        let q = &self.queues[idx];
        let mut messages = 0u64;
        let mut events = 0u64;
        while messages < COALESCE as u64 {
            let Ok(event) = q.rx.try_recv() else { break };
            messages += 1;
            events += event.weight();
            self.poison_message(idx, &event);
            self.retire(idx, 1);
        }
        if q.pending_epochs.swap(0, Ordering::Acquire) > 0 {
            let _ = catch_unwind(AssertUnwindSafe(|| self.inner.epoch_complete_shard(idx)));
        }
        events
    }

    /// 1-in-K victim sampling at `DropOldest` eviction time: when the
    /// shard's evicted-event count crosses a [`DROP_SAMPLE_STRIDE`]
    /// boundary, the evicted message's already-bound context joins the
    /// shard's bounded victim ring. Published victims attribute
    /// `DROP_SAMPLE_STRIDE` events each under `<dropped>`, so the
    /// profile reports *which* contexts the overload fell on, not just
    /// how much was lost.
    fn sample_victim(&self, shard: usize, event: &Event, weight: u64) {
        if weight == 0 {
            return;
        }
        let q = &self.queues[shard];
        let seen = q.evicted_seen.fetch_add(weight, Ordering::Relaxed);
        if seen / DROP_SAMPLE_STRIDE == (seen + weight) / DROP_SAMPLE_STRIDE {
            return;
        }
        let Some(path) = victim_path(event) else {
            return;
        };
        let mut ring = q.victims.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() >= DROP_SAMPLE_RING {
            ring.remove(0);
        }
        ring.push(path.clone());
    }

    /// Records the queue depth observed by an enqueue at `shard`.
    fn note_depth(&self, shard: usize, depth: u64) {
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
        if let Some(t) = &self.telemetry {
            t.queue_depth[shard].record(depth);
            t.max_depth.record_max(depth);
        }
    }

    /// Marks `n` messages of shard `idx` retired and wakes any drain
    /// barrier that may be waiting on them.
    fn retire(&self, idx: usize, n: u64) {
        self.queues[idx].applied.fetch_add(n, Ordering::AcqRel);
        if self.drain_waiters.load(Ordering::Acquire) > 0 {
            let _guard = self.drain_mutex.lock().unwrap_or_else(|e| e.into_inner());
            self.drain_cv.notify_all();
        }
    }

    /// Enqueues one message to `shard`, honouring the backpressure
    /// policy, and nudges the owning worker.
    fn enqueue(&self, shard: usize, event: Event) {
        self.failpoints
            .stall_at(fp_sites::QUEUE_STALL, shard as u64);
        let weight = event.weight();
        let q = &self.queues[shard];
        match self.policy {
            BackpressurePolicy::Block => {
                if q.tx.send(event).is_err() {
                    // Workers are gone (sink shutting down); account the
                    // message as retired so barriers never hang.
                    self.note_dropped(weight);
                    self.note_enqueued(weight);
                    q.enqueued.fetch_add(1, Ordering::AcqRel);
                    self.retire(shard, 1);
                    return;
                }
            }
            BackpressurePolicy::DropOldest => {
                let mut event = event;
                loop {
                    match q.tx.try_send(event) {
                        Ok(()) => break,
                        Err(TrySendError::Full(back)) => {
                            match q.rx.try_recv() {
                                Ok(Event::Epoch) => {
                                    // Flush boundaries are control flow,
                                    // never data: a displaced marker is
                                    // deferred, not dropped — the owning
                                    // worker applies it at the end of
                                    // its next pass. Applying an epoch
                                    // late only delays retirement (the
                                    // conservative direction), and never
                                    // blocks this producer.
                                    self.retire(shard, 1);
                                    q.pending_epochs.fetch_add(1, Ordering::Release);
                                }
                                Ok(old) => {
                                    // Evict the oldest data message; its
                                    // events are gone and counted (both
                                    // globally and per shard, so the
                                    // synthetic `<dropped>` context can
                                    // localize the overload), and any
                                    // correlation state that only the
                                    // evicted message would have retired
                                    // is discarded with it — otherwise
                                    // every dropped launch or terminal
                                    // record would leak its
                                    // directory/shard binding forever.
                                    let weight = old.weight();
                                    self.note_dropped(weight);
                                    q.dropped.fetch_add(weight, Ordering::Relaxed);
                                    self.sample_victim(shard, &old, weight);
                                    self.discard_bindings_of(&old);
                                    self.retire(shard, 1);
                                }
                                Err(_) => {}
                            }
                            event = back;
                        }
                        Err(TrySendError::Disconnected(_)) => {
                            self.note_dropped(weight);
                            self.note_enqueued(weight);
                            q.enqueued.fetch_add(1, Ordering::AcqRel);
                            self.retire(shard, 1);
                            return;
                        }
                    }
                }
            }
        }
        self.note_enqueued(weight);
        let enq = q.enqueued.fetch_add(1, Ordering::AcqRel) + 1;
        let depth = enq.saturating_sub(q.applied.load(Ordering::Acquire));
        self.note_depth(shard, depth);
        self.nudge_worker(shard);
    }

    /// Nudges the worker owning `shard` — unless the pool is paused:
    /// paused workers ignore work anyway, and `resume` re-nudges
    /// everyone, so skipping saves a mutex + notify per enqueue during a
    /// pause (worst case, a racing resume costs one park timeout).
    fn nudge_worker(&self, shard: usize) {
        if !self.paused.load(Ordering::Relaxed) {
            self.parkers[self.worker_for(shard)].nudge();
        }
    }

    /// Enqueues a run of messages to `shard` under one channel pass.
    /// Under `Block` the whole run goes through the channel's
    /// single-notify batch push ([`channel::Sender::send_batch`]) — one
    /// lock round-trip and at most one waiter wake for the entire flush
    /// instead of one per message. `DropOldest` falls back to the
    /// per-message eviction loop, which must interleave sends with
    /// evictions.
    fn enqueue_run(&self, shard: usize, run: Vec<Event>) {
        if run.is_empty() {
            return;
        }
        match self.policy {
            BackpressurePolicy::Block => {
                let weight: u64 = run.iter().map(Event::weight).sum();
                let messages = run.len() as u64;
                let q = &self.queues[shard];
                let mut lost = 0u64;
                if let Err(channel::SendError(rest)) = q.tx.send_batch(run) {
                    // Workers are gone (sink shutting down); account the
                    // unsent remainder as dropped-and-retired so barriers
                    // never hang (mirrors `enqueue`'s disconnect path).
                    lost = rest.len() as u64;
                    self.note_dropped(rest.iter().map(Event::weight).sum());
                }
                self.note_enqueued(weight);
                let enq = q.enqueued.fetch_add(messages, Ordering::AcqRel) + messages;
                if lost > 0 {
                    self.retire(shard, lost);
                }
                let depth = enq.saturating_sub(q.applied.load(Ordering::Acquire));
                self.note_depth(shard, depth);
                self.nudge_worker(shard);
            }
            BackpressurePolicy::DropOldest => {
                for event in run {
                    self.enqueue(shard, event);
                }
            }
        }
    }

    /// Attributes each shard's not-yet-published drop count to its
    /// synthetic `<dropped>` context. Run on snapshot paths (after the
    /// drain barrier), so the profile itself shows where `DropOldest`
    /// overload discarded events. Publication is serialized by a mutex so
    /// that when any caller returns, every delta visible at its entry has
    /// been *applied* — a claim-then-apply race would let a concurrent
    /// snapshot fold the shards between the claim and the apply and
    /// return a tree missing telemetry its own counters report.
    fn publish_drops(&self) {
        let _guard = self.drop_publish.lock().unwrap_or_else(|e| e.into_inner());
        for (idx, q) in self.queues.iter().enumerate() {
            let dropped = q.dropped.load(Ordering::Acquire);
            let published = q.dropped_published.load(Ordering::Relaxed);
            if dropped > published {
                self.inner.apply_dropped(idx, dropped - published);
                q.dropped_published.store(dropped, Ordering::Relaxed);
            }
            let victims: Vec<CallPath> = {
                let mut ring = q.victims.lock().unwrap_or_else(|e| e.into_inner());
                std::mem::take(&mut *ring)
            };
            if !victims.is_empty() {
                self.inner
                    .apply_dropped_samples(idx, &victims, DROP_SAMPLE_STRIDE);
            }
            let poisoned = q.poisoned.load(Ordering::Acquire);
            let published = q.poisoned_published.load(Ordering::Relaxed);
            if poisoned > published {
                self.inner.apply_poisoned(idx, poisoned - published);
                q.poisoned_published.store(poisoned, Ordering::Relaxed);
            }
        }
    }

    /// Discards the correlation state an evicted message leaves behind:
    /// a dropped launch unbinds its enqueue-time route (and any shard
    /// binding, had a duplicate already been applied), a dropped bucket
    /// unbinds the correlations of its *terminal* records (nothing else
    /// will ever retire them; later records for those correlations — if
    /// any survive — fall to the orphan context, the documented drop
    /// semantics). Sampling records are non-terminal and keep their
    /// correlation live for the kernel record behind them.
    fn discard_bindings_of(&self, event: &Event) {
        match event {
            Event::Launch { origin, .. } => {
                if let Some(corr) = origin.correlation {
                    self.inner.discard_correlation(corr.0);
                }
            }
            Event::Activities(batch) => {
                for activity in batch {
                    if !matches!(activity.kind, ActivityKind::PcSampling { .. }) {
                        self.inner.discard_correlation(activity.correlation_id.0);
                    }
                }
            }
            Event::Batch(events) => {
                // A flushed producer batch carries launches whose routes
                // were directory-bound at flush time — those bindings die
                // with the eviction.
                for event in events {
                    if let ProducerEvent::Launch { origin, .. } = event {
                        if let Some(corr) = origin.correlation {
                            self.inner.discard_correlation(corr.0);
                        }
                    }
                }
            }
            Event::Sample { .. } | Event::Epoch => {}
        }
    }

    /// Waits until every message enqueued before this call has been
    /// retired. Returns immediately when the pipeline is already drained.
    fn drain(&self) {
        let targets: Vec<u64> = self
            .queues
            .iter()
            .map(|q| q.enqueued.load(Ordering::Acquire))
            .collect();
        let mut waited = false;
        for (idx, &target) in targets.iter().enumerate() {
            if self.queues[idx].applied.load(Ordering::Acquire) >= target {
                continue;
            }
            waited = true;
            self.drain_waiters.fetch_add(1, Ordering::AcqRel);
            let mut guard = self.drain_mutex.lock().unwrap_or_else(|e| e.into_inner());
            while self.queues[idx].applied.load(Ordering::Acquire) < target {
                // The timeout is a safety net against a nudge lost to the
                // parked-flag race; progress normally wakes us promptly.
                let (g, _) = self
                    .drain_cv
                    .wait_timeout(guard, Duration::from_millis(1))
                    .unwrap_or_else(|e| e.into_inner());
                guard = g;
            }
            drop(guard);
            self.drain_waiters.fetch_sub(1, Ordering::AcqRel);
        }
        if waited {
            self.drain_waits.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(journal) = &self.journal {
            if waited {
                journal.record(JournalSeverity::Info, journal_sites::PIPELINE_DRAIN, &[]);
            }
            // The barrier just proved a clean window: every message
            // enqueued before it has retired, so an open drop storm ends
            // here — the deterministic anchor for storm extents.
            if self.in_drop_storm.swap(false, Ordering::AcqRel) {
                let dropped = self.storm_dropped.swap(0, Ordering::AcqRel);
                journal.record(
                    JournalSeverity::Warn,
                    journal_sites::DROP_STORM_END,
                    &[("dropped", &dropped.to_string())],
                );
            }
        }
    }

    /// The attribution loop: drain owned shards, coalescing adjacent
    /// activity buckets under one shard-lock acquisition; park when idle.
    fn worker_loop(&self, worker: usize) {
        let owned: Vec<usize> = (0..self.queues.len())
            .filter(|idx| self.worker_for(*idx) == worker)
            .collect();
        let telemetry = self
            .telemetry
            .as_ref()
            .map(|t| WorkerTelemetry::register(t, worker));
        loop {
            if self.paused.load(Ordering::Acquire) && !self.shutdown.load(Ordering::Acquire) {
                self.paused_workers.fetch_add(1, Ordering::AcqRel);
                while self.paused.load(Ordering::Acquire) && !self.shutdown.load(Ordering::Acquire)
                {
                    self.park_timed(worker, || false, telemetry.as_ref());
                }
                self.paused_workers.fetch_sub(1, Ordering::AcqRel);
                continue;
            }
            let busy_start = telemetry.as_ref().map(|t| t.pipeline.now_ns());
            let mut applied = 0u64;
            for &idx in &owned {
                applied += self.drain_shard(idx);
            }
            if applied > 0 {
                self.worker_batches.fetch_add(1, Ordering::Relaxed);
                if let (Some(t), Some(start)) = (&telemetry, busy_start) {
                    let end = t.pipeline.now_ns();
                    t.busy_ns.add(end.saturating_sub(start));
                    t.batch_size.record(applied);
                    // One self-interval per productive pass, on this
                    // worker's own self-timeline stream.
                    self.inner.record_self_interval(
                        TrackKey::SELF_STREAM_WORKER + worker as u32,
                        start,
                        end,
                        t.pipeline.worker_sym,
                    );
                }
                continue;
            }
            if self.shutdown.load(Ordering::Acquire)
                && owned.iter().all(|&idx| self.depth(idx) == 0)
            {
                return;
            }
            let has_work = || owned.iter().any(|&idx| self.depth(idx) > 0);
            self.park_timed(worker, has_work, telemetry.as_ref());
        }
    }

    /// [`park`](Self::park), charging the wait to the worker's
    /// parked-time counter when telemetry is on.
    fn park_timed(
        &self,
        worker: usize,
        has_work: impl Fn() -> bool,
        telemetry: Option<&WorkerTelemetry>,
    ) {
        let start = telemetry.map(|t| t.pipeline.now_ns());
        self.park(worker, has_work);
        if let (Some(t), Some(start)) = (telemetry, start) {
            t.parked_ns.add(t.pipeline.now_ns().saturating_sub(start));
        }
    }

    /// Retires up to [`COALESCE`] messages from shard `idx`. Runs of
    /// consecutive activity buckets — including buckets from *different*
    /// flushes — are applied under one shard-lock acquisition
    /// ([`ShardedSink::apply_activity_buckets`]), which amortizes the
    /// fold cost of a busy shard across flush boundaries while keeping
    /// one two-phase-prune batch per original bucket (so resident
    /// correlation state never grows with the worker's backlog).
    fn drain_shard(&self, idx: usize) -> u64 {
        if self.is_quarantined(idx) {
            return self.drain_quarantined_shard(idx);
        }
        let q = &self.queues[idx];
        let mut messages = 0u64;
        let mut events = 0u64;
        let mut run: Vec<Vec<Activity>> = Vec::new();
        let mut run_records = 0usize;
        // Event counts are published *before* each retirement so counter
        // reads behind a drain barrier are exact, not lagging the pass.
        // Every apply below runs behind `apply_isolated`'s fault
        // boundary: a panicking apply quarantines the shard, its
        // message's events join the `<poisoned>` tally, and the pass
        // keeps retiring — so barriers never hang on a poisoned shard.
        let flush_run = |run: &mut Vec<Vec<Activity>>, run_records: &mut usize| {
            if !run.is_empty() {
                if self.apply_isolated(idx, || self.inner.apply_activity_buckets(idx, run)) {
                    self.inner.note_peak();
                    self.worker_events
                        .fetch_add(*run_records as u64, Ordering::Relaxed);
                } else {
                    // The whole coalesced run is poisoned; its terminal
                    // records' correlation state dies with it (nothing
                    // will ever retire it).
                    self.note_poisoned(idx, *run_records as u64);
                    for bucket in run.iter() {
                        for activity in bucket {
                            if !matches!(activity.kind, ActivityKind::PcSampling { .. }) {
                                self.inner.discard_correlation(activity.correlation_id.0);
                            }
                        }
                    }
                }
                self.retire(idx, run.len() as u64);
                run.clear();
                *run_records = 0;
            }
        };
        while messages < COALESCE as u64 {
            let Ok(event) = q.rx.try_recv() else { break };
            messages += 1;
            events += event.weight();
            // A coalesced activity run is flushed before any non-activity
            // message, preserving per-shard event order.
            if !matches!(event, Event::Activities(_)) {
                flush_run(&mut run, &mut run_records);
            }
            if self.is_quarantined(idx) {
                // The flush above (or an earlier message) quarantined the
                // shard mid-pass: everything still in hand is poisoned.
                self.poison_message(idx, &event);
                self.retire(idx, 1);
                continue;
            }
            match event {
                Event::Launch { origin, path, api } => {
                    if self
                        .apply_isolated(idx, || self.inner.apply_launch(idx, &origin, &path, api))
                    {
                        self.worker_events.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.note_poisoned(idx, 1);
                        if let Some(corr) = origin.correlation {
                            self.inner.discard_correlation(corr.0);
                        }
                    }
                    self.retire(idx, 1);
                }
                Event::Activities(batch) => {
                    run_records += batch.len();
                    run.push(batch);
                    if run_records >= COALESCE_RECORDS {
                        flush_run(&mut run, &mut run_records);
                    }
                }
                Event::Sample {
                    path,
                    metric,
                    value,
                } => {
                    if self.apply_isolated(idx, || {
                        self.inner.apply_cpu_sample(idx, &path, metric, value)
                    }) {
                        self.worker_events.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.note_poisoned(idx, 1);
                    }
                    self.retire(idx, 1);
                }
                Event::Batch(batch) => {
                    if self.apply_isolated(idx, || self.inner.apply_producer_batch(idx, &batch)) {
                        self.worker_events
                            .fetch_add(batch.len() as u64, Ordering::Relaxed);
                    } else {
                        self.note_poisoned(idx, batch.len() as u64);
                        for event in &batch {
                            if let ProducerEvent::Launch { origin, .. } = event {
                                if let Some(corr) = origin.correlation {
                                    self.inner.discard_correlation(corr.0);
                                }
                            }
                        }
                    }
                    self.retire(idx, 1);
                }
                Event::Epoch => {
                    let _ = self.apply_isolated(idx, || self.inner.epoch_complete_shard(idx));
                    self.retire(idx, 1);
                }
            }
        }
        flush_run(&mut run, &mut run_records);
        // Settle epoch markers displaced from this queue by DropOldest
        // eviction (see `enqueue`): one application covers any number of
        // them, since back-to-back epochs are a no-op after the first.
        if q.pending_epochs.swap(0, Ordering::Acquire) > 0 {
            let _ = self.apply_isolated(idx, || self.inner.epoch_complete_shard(idx));
        }
        events
    }

    fn park(&self, worker: usize, has_work: impl Fn() -> bool) {
        let parker = &self.parkers[worker];
        let guard = parker.mutex.lock().unwrap_or_else(|e| e.into_inner());
        parker.parked.store(true, Ordering::Release);
        // Close the missed-nudge window: anything enqueued before the
        // flag went up may have skipped the notify.
        if !has_work() && !self.shutdown.load(Ordering::Acquire) {
            let _ = parker
                .cv
                .wait_timeout(guard, PARK_TIMEOUT)
                .unwrap_or_else(|e| e.into_inner());
        }
        parker.parked.store(false, Ordering::Release);
    }
}

impl BatchDelivery for Shared {
    fn sharded(&self) -> &ShardedSink {
        &self.inner
    }

    fn deliver(&self, shard: usize, mut events: Vec<ProducerEvent>) {
        self.producer_batches.record(events.len() as u64);
        // One `Batch` message per `MESSAGE_GRAIN` events: the whole run
        // goes through the channel's single-notify batch push, while
        // keeping queue-message granularity bounded — `queue_capacity`
        // and `DropOldest` eviction stay meaningful even when
        // `launch_batch` is configured far above the grain.
        if events.len() <= MESSAGE_GRAIN {
            self.enqueue_run(shard, vec![Event::Batch(events)]);
            return;
        }
        // Chunk from the tail so every element is moved exactly once
        // (a head-first `split_off` would re-copy the remainder per
        // chunk — quadratic in the batch size).
        let mut run: Vec<Event> = Vec::with_capacity(events.len() / MESSAGE_GRAIN + 1);
        while events.len() > MESSAGE_GRAIN {
            let tail = events.split_off(events.len() - MESSAGE_GRAIN);
            run.push(Event::Batch(tail));
        }
        run.push(Event::Batch(events));
        run.reverse();
        self.enqueue_run(shard, run);
    }
}

/// The asynchronous [`EventSink`] (see the [module docs](self)): a
/// producer-side router over per-shard bounded queues plus an owned
/// attribution worker pool, wrapping the [`ShardedSink`] that holds the
/// actual profile state.
pub struct AsyncSink {
    shared: Arc<Shared>,
    /// Thread-local producer batching (`None` when
    /// [`PipelineConfig::launch_batch`] is 1: events enqueue as they
    /// happen, the pre-batching behaviour).
    batcher: Option<Batcher>,
    workers: usize,
    handles: Vec<JoinHandle<()>>,
}

impl AsyncSink {
    /// Spawns the worker pool over `inner`'s shards.
    pub fn new(inner: Arc<ShardedSink>, config: PipelineConfig) -> Arc<Self> {
        let shards = inner.shard_count();
        let workers = config.resolved_workers(shards);
        let telemetry = inner.telemetry().map(|pipeline| {
            let handle = pipeline.handle();
            handle
                .gauge(names::QUEUE_CAPACITY, &[])
                .set(config.queue_capacity as u64);
            SharedTelemetry {
                enqueued: handle.counter(names::EVENTS_ENQUEUED, &[]),
                dropped: handle.counter(names::EVENTS_DROPPED, &[]),
                poisoned: handle.counter(names::EVENTS_POISONED, &[]),
                worker_panics: handle.counter(names::WORKER_PANICS, &[]),
                max_depth: handle.gauge(names::MAX_QUEUE_DEPTH, &[]),
                queue_depth: (0..shards)
                    .map(|idx| {
                        let label = idx.to_string();
                        handle.histogram(names::QUEUE_DEPTH, &[("shard", label.as_str())])
                    })
                    .collect(),
                pipeline: Arc::clone(pipeline),
            }
        });
        let shared = Arc::new(Shared {
            telemetry,
            queues: (0..shards)
                .map(|_| {
                    let (tx, rx) = channel::bounded(config.queue_capacity);
                    ShardQueue {
                        tx,
                        rx,
                        enqueued: AtomicU64::new(0),
                        applied: AtomicU64::new(0),
                        pending_epochs: AtomicU64::new(0),
                        dropped: AtomicU64::new(0),
                        dropped_published: AtomicU64::new(0),
                        poisoned: AtomicU64::new(0),
                        poisoned_published: AtomicU64::new(0),
                        evicted_seen: AtomicU64::new(0),
                        victims: Mutex::new(Vec::new()),
                    }
                })
                .collect(),
            parkers: (0..workers).map(|_| Parker::new()).collect(),
            quarantined: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            failpoints: config.failpoints.clone(),
            policy: config.backpressure,
            shutdown: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            paused_workers: AtomicUsize::new(0),
            drain_mutex: Mutex::new(()),
            drain_cv: Condvar::new(),
            drain_waiters: AtomicUsize::new(0),
            drop_publish: Mutex::new(()),
            enqueued_events: AtomicU64::new(0),
            dropped_events: AtomicU64::new(0),
            poisoned_events: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
            drain_waits: AtomicU64::new(0),
            worker_batches: AtomicU64::new(0),
            worker_events: AtomicU64::new(0),
            producer_batches: BatchCounters::default(),
            journal: inner.journal().cloned(),
            in_drop_storm: AtomicBool::new(false),
            storm_dropped: AtomicU64::new(0),
            inner,
        });
        let batcher = (config.launch_batch > 1).then(|| {
            Batcher::new(
                Arc::clone(&shared) as Arc<dyn BatchDelivery>,
                config.launch_batch,
            )
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dc-pipeline-{w}"))
                    .spawn(move || {
                        // Outer fault boundary: a panic that escapes the
                        // per-message catch inside the loop (a bug in the
                        // loop itself, a poisoned std lock) must not
                        // strand this worker's shards — drain barriers
                        // and `pause` count on every worker making
                        // progress. Restart until an orderly shutdown.
                        loop {
                            match catch_unwind(AssertUnwindSafe(|| shared.worker_loop(w))) {
                                Ok(()) => break,
                                Err(_) => {
                                    shared.worker_panics.fetch_add(1, Ordering::Relaxed);
                                    if let Some(t) = &shared.telemetry {
                                        t.worker_panics.add(1);
                                    }
                                    if let Some(journal) = &shared.journal {
                                        journal.record(
                                            JournalSeverity::Error,
                                            journal_sites::WORKER_RESTART,
                                            &[("worker", &w.to_string())],
                                        );
                                    }
                                    // Pace restarts so a deterministic
                                    // loop-entry panic cannot busy-spin.
                                    std::thread::sleep(Duration::from_millis(1));
                                }
                            }
                        }
                    })
                    .expect("spawn pipeline worker")
            })
            .collect();
        Arc::new(AsyncSink {
            shared,
            batcher,
            workers,
            handles,
        })
    }

    /// Flushes every thread's pending producer batch into the queues
    /// (without waiting for attribution). No-op when batching is off.
    fn flush_producers(&self) {
        if let Some(batcher) = &self.batcher {
            batcher.flush_all();
        }
    }

    /// The wrapped synchronous sink holding the profile state.
    pub fn inner(&self) -> &Arc<ShardedSink> {
        &self.shared.inner
    }

    /// Worker threads attributing events.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Blocks until every event produced before this call has been
    /// attributed (or dropped), flushing thread-local producer batches
    /// first. All snapshot paths call this implicitly; it is public for
    /// tests and for explicit quiesce points.
    pub fn drain(&self) {
        self.flush_producers();
        self.shared.drain();
    }

    /// Parks the worker pool (and blocks until every worker is parked):
    /// queued events stay queued, producers keep enqueueing until the
    /// backpressure policy engages. Used by tests to make queue overflow
    /// deterministic and by operators to quiesce attribution around a
    /// measurement window. While paused, drain barriers — and therefore
    /// snapshots, `counters`, and `Block`-policy sends on a full queue —
    /// wait until [`resume`](Self::resume).
    pub fn pause(&self) {
        self.shared.paused.store(true, Ordering::Release);
        for parker in &self.shared.parkers {
            parker.nudge();
        }
        while self.shared.paused_workers.load(Ordering::Acquire) < self.workers {
            std::thread::yield_now();
        }
        if let Some(journal) = &self.shared.journal {
            // Journaled after the rendezvous: the event marks the point
            // the pool was actually parked, not the request.
            journal.record(JournalSeverity::Info, journal_sites::PIPELINE_PAUSE, &[]);
        }
    }

    /// Resumes a [`pause`](Self::pause)d worker pool.
    pub fn resume(&self) {
        if let Some(journal) = &self.shared.journal {
            journal.record(JournalSeverity::Info, journal_sites::PIPELINE_RESUME, &[]);
        }
        self.shared.paused.store(false, Ordering::Release);
        for parker in &self.shared.parkers {
            parker.nudge();
        }
    }

    /// Indices of shards quarantined by caught worker panics. A
    /// quarantined shard's events flow to the synthetic `<poisoned>`
    /// context for the rest of the run; every other shard is unaffected.
    pub fn quarantined_shards(&self) -> Vec<usize> {
        self.shared
            .quarantined
            .iter()
            .enumerate()
            .filter(|(_, flag)| flag.load(Ordering::Acquire))
            .map(|(idx, _)| idx)
            .collect()
    }
}

impl EventSink for AsyncSink {
    fn gpu_launch(&self, origin: &EventOrigin, path: &CallPath, api: ApiKind) {
        self.gpu_launch_owned(origin, path.clone(), api);
    }

    fn gpu_launch_owned(&self, origin: &EventOrigin, path: CallPath, api: ApiKind) {
        let idx = self.shared.inner.route(origin);
        if let Some(batcher) = &self.batcher {
            // Batched fast path: append to this thread's buffer; the
            // flush binds the whole batch's correlations in one striped
            // pass and pushes one message run per shard.
            batcher.push(
                idx,
                ProducerEvent::Launch {
                    origin: *origin,
                    path,
                    api,
                },
            );
            return;
        }
        if let Some(corr) = origin.correlation {
            // Bind the route before the event is visible anywhere, so
            // activity records arriving while this launch is queued
            // route to the same shard (module docs: ordering).
            self.shared.inner.bind_route(corr.0, idx);
        }
        self.shared.enqueue(
            idx,
            Event::Launch {
                origin: *origin,
                path,
                api,
            },
        );
    }

    fn activity_batch(&self, batch: &[Activity]) {
        self.activity_batch_owned(batch.to_vec());
    }

    fn activity_batch_owned(&self, batch: Vec<Activity>) {
        if batch.is_empty() {
            return;
        }
        if let Some(batcher) = &self.batcher {
            // Activity records resolve through launches' correlations, so
            // every buffered launch anywhere must be bound (and ahead in
            // its shard's FIFO) before these records route.
            batcher.flush_all();
        }
        // Route every record once, then move records into buckets — no
        // activity (or PC-sample payload) is ever cloned on this path.
        for (idx, bucket) in self.shared.inner.partition_activities(batch) {
            self.shared.enqueue(idx, Event::Activities(bucket));
        }
    }

    fn cpu_sample(&self, origin: &EventOrigin, path: &CallPath, metric: MetricKind, value: f64) {
        self.cpu_sample_owned(origin, path.clone(), metric, value);
    }

    fn cpu_sample_owned(
        &self,
        origin: &EventOrigin,
        path: CallPath,
        metric: MetricKind,
        value: f64,
    ) {
        let idx = self.shared.inner.route(origin);
        if let Some(batcher) = &self.batcher {
            batcher.push(
                idx,
                ProducerEvent::Sample {
                    path,
                    metric,
                    value,
                },
            );
            return;
        }
        self.shared.enqueue(
            idx,
            Event::Sample {
                path,
                metric,
                value,
            },
        );
    }

    fn epoch_complete(&self) {
        // First barrier: everything produced before this flush boundary
        // is flushed out of thread-local batches and applied — and
        // peak-samples its batch-boundary states — before any shard sees
        // the boundary itself, exactly as in synchronous mode (where
        // `activity_batch` returns before `epoch_complete` starts
        // trimming).
        self.flush_producers();
        if let Some(batcher) = &self.batcher {
            // Epochs are quiescent points: shed the flush-window capacity
            // thread-local buffers retain, like the shard/directory trims
            // below.
            batcher.trim();
        }
        self.shared.drain();
        // Then propagate the boundary through every shard queue in event
        // order and wait for the trims to land.
        for idx in 0..self.shared.inner.shard_count() {
            self.shared.enqueue(idx, Event::Epoch);
        }
        self.shared.drain();
        self.shared.inner.trim_directory();
        // The barrier-anchored journal event, recorded *after* the second
        // drain: both ingestion modes journal one epoch event per flush
        // boundary with identical ordering relative to applied events
        // (sync mode records it in `ShardedSink::epoch_complete`, which
        // the async pipeline deliberately bypasses).
        if let Some(journal) = &self.shared.journal {
            journal.record(JournalSeverity::Info, journal_sites::PIPELINE_EPOCH, &[]);
        }
    }

    fn snapshot(&self) -> CallingContextTree {
        self.flush_producers();
        self.shared.drain();
        self.shared.publish_drops();
        self.shared.inner.snapshot()
    }

    fn with_snapshot(&self, f: &mut dyn FnMut(&CallingContextTree)) {
        self.flush_producers();
        self.shared.drain();
        self.shared.publish_drops();
        self.shared.inner.with_snapshot(f);
    }

    fn finish_snapshot(&self) -> CallingContextTree {
        self.flush_producers();
        self.shared.drain();
        self.shared.publish_drops();
        self.shared.inner.finish_snapshot()
    }

    fn timeline_snapshot(&self) -> Option<deepcontext_timeline::TimelineSnapshot> {
        // The same drain barrier as every snapshot path: everything
        // produced before this call is attributed — and its intervals
        // recorded — before the rings are read, so asynchronous-mode
        // timelines are deterministic at every flush.
        self.flush_producers();
        self.shared.drain();
        self.shared.publish_drops();
        self.shared.inner.timeline_snapshot()
    }

    fn counters(&self) -> SinkCounters {
        // Flush producer batches and drain first so counter reads are as
        // deterministic as in synchronous mode (high-water marks are
        // unaffected).
        self.flush_producers();
        self.shared.drain();
        SinkCounters {
            enqueued_events: self.shared.enqueued_events.load(Ordering::Relaxed),
            dropped_events: self.shared.dropped_events.load(Ordering::Relaxed),
            poisoned_events: self.shared.poisoned_events.load(Ordering::Relaxed),
            worker_panics: self.shared.worker_panics.load(Ordering::Relaxed),
            max_queue_depth: self.shared.max_queue_depth.load(Ordering::Relaxed),
            drain_waits: self.shared.drain_waits.load(Ordering::Relaxed),
            worker_batches: self.shared.worker_batches.load(Ordering::Relaxed),
            worker_events: self.shared.worker_events.load(Ordering::Relaxed),
            producer_flushes: self.shared.producer_batches.flushes.load(Ordering::Relaxed),
            batched_events: self.shared.producer_batches.events.load(Ordering::Relaxed),
            ..self.shared.inner.counters()
        }
    }

    fn approx_bytes(&self) -> usize {
        // Queued state is estimated in *events*, not messages — an
        // `Event::Batch` or activity-bucket message carries up to
        // `MESSAGE_GRAIN`/bucket-size owned events, so counting messages
        // would under-report a batched backlog by that factor. Weight
        // accounting: accepted − applied − dropped = still queued.
        let enqueued = self.shared.enqueued_events.load(Ordering::Relaxed);
        let applied = self.shared.worker_events.load(Ordering::Relaxed);
        let dropped = self.shared.dropped_events.load(Ordering::Relaxed);
        let queued = enqueued.saturating_sub(applied).saturating_sub(dropped);
        // Each queued event is an owned copy awaiting attribution;
        // estimate one cache line each plus the channel shells.
        // Thread-local producer buffers are ingestion state too.
        self.shared.inner.approx_bytes()
            + queued as usize * (std::mem::size_of::<Event>() + 64)
            + self.shared.queues.len() * std::mem::size_of::<ShardQueue>()
            + self.batcher.as_ref().map_or(0, Batcher::approx_bytes)
    }
}

impl Drop for AsyncSink {
    fn drop(&mut self) {
        // Un-pause and wake the pool *before* flushing producers: a
        // flush's Block-policy send on a full queue can only complete if
        // workers are draining, so flushing first would deadlock a
        // paused sink dropped with a full queue.
        self.shared.paused.store(false, Ordering::Release);
        for parker in &self.shared.parkers {
            parker.nudge();
        }
        // Hand any still-buffered producer events to the workers before
        // asking them to wind down (they drain their queues on exit).
        self.flush_producers();
        self.shared.shutdown.store(true, Ordering::Release);
        for parker in &self.shared.parkers {
            // Unconditional wake: a worker may be between the parked-flag
            // store and the wait.
            let _guard = parker.mutex.lock().unwrap_or_else(|e| e.into_inner());
            parker.cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for AsyncSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncSink")
            .field("workers", &self.workers)
            .field("shards", &self.shared.inner.shard_count())
            .field("policy", &self.shared.policy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::{Frame, Interner, TimeNs};
    use sim_gpu::{ActivityKind, CorrelationId, DeviceId, StreamId};

    /// Joins a test thread, surfacing the panic payload in the failure
    /// message instead of double-panicking on an opaque `Box<dyn Any>`.
    fn join_reporting<T>(handle: std::thread::JoinHandle<T>, what: &str) -> T {
        handle.join().unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            panic!("{what} panicked: {msg}");
        })
    }

    #[test]
    fn drop_oldest_defers_displaced_epoch_markers() {
        // A flush-boundary marker evicted by DropOldest must still take
        // effect (deferred to the worker's next pass), or the shard's
        // deferred correlations would never retire for that boundary.
        let interner = Interner::new();
        let inner = ShardedSink::new(Arc::clone(&interner), 1);
        let sink = AsyncSink::new(
            Arc::clone(&inner),
            PipelineConfig {
                workers: 1,
                queue_capacity: 2,
                backpressure: BackpressurePolicy::DropOldest,
                launch_batch: 1,
                ..PipelineConfig::default()
            },
        );
        // Seed: a launch plus its terminal activity — after the bucket's
        // end_batch the correlation is deferred but still live; only the
        // next flush boundary retires it.
        let origin = EventOrigin {
            tid: Some(1),
            stream: Some(StreamId(0)),
            correlation: Some(CorrelationId(7)),
        };
        let mut path = CallPath::new();
        path.push(Frame::gpu_kernel("k", "m.so", 0x1, &interner));
        sink.gpu_launch(&origin, &path, ApiKind::LaunchKernel);
        sink.activity_batch(&[Activity {
            correlation_id: CorrelationId(7),
            device: DeviceId(0),
            kind: ActivityKind::Malloc {
                bytes: 64,
                at: TimeNs(1),
            },
        }]);
        sink.drain();
        assert_eq!(inner.correlation_entries(), 1, "deferred, not retired");

        // Park the worker, plant an epoch marker, then overflow the
        // 2-slot queue so eviction displaces the marker.
        sink.pause();
        sink.shared.enqueue(0, Event::Epoch);
        let sample_origin = EventOrigin {
            tid: Some(1),
            ..EventOrigin::default()
        };
        for _ in 0..6 {
            sink.cpu_sample(&sample_origin, &path, MetricKind::CpuTime, 1.0);
        }
        sink.resume();
        sink.drain();
        // The displaced boundary settles at the end of the worker's next
        // pass (after the barrier), so poll briefly.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while inner.correlation_entries() != 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(
            inner.correlation_entries(),
            0,
            "displaced epoch marker must still retire the correlation"
        );
        assert!(
            sink.counters().dropped_events > 0,
            "data messages were evicted"
        );
    }

    #[test]
    fn dropping_a_paused_sink_with_full_queue_and_buffered_batch_terminates() {
        // Drop must un-pause and wake the pool *before* flushing
        // thread-local batches: the flush's Block-policy send on a full
        // queue can only complete once workers drain, so the old order
        // (flush, then un-pause) deadlocked this exact shape.
        let interner = Interner::new();
        let inner = ShardedSink::new(Arc::clone(&interner), 1);
        let sink = AsyncSink::new(
            Arc::clone(&inner),
            PipelineConfig {
                workers: 1,
                queue_capacity: 1,
                backpressure: BackpressurePolicy::Block,
                launch_batch: 64,
                ..PipelineConfig::default()
            },
        );
        sink.pause();
        let mut path = CallPath::new();
        path.push(Frame::gpu_kernel("k", "m.so", 0x1, &interner));
        // Fill the 1-slot queue (activity buckets enqueue directly)...
        sink.activity_batch(&[Activity {
            correlation_id: CorrelationId(1),
            device: DeviceId(0),
            kind: ActivityKind::Malloc {
                bytes: 64,
                at: TimeNs(1),
            },
        }]);
        // ...and leave one sample buffered in the thread-local batch.
        let origin = EventOrigin {
            tid: Some(1),
            ..EventOrigin::default()
        };
        sink.cpu_sample(&origin, &path, MetricKind::CpuTime, 1.0);

        let dropper = std::thread::spawn(move || drop(sink));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !dropper.is_finished() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(
            dropper.is_finished(),
            "dropping a paused sink with a full queue deadlocked"
        );
        join_reporting(dropper, "dropper");
        // Nothing was lost: the queued bucket and the buffered sample
        // were both attributed during shutdown.
        let cct = inner.snapshot();
        assert_eq!(cct.total(MetricKind::CpuTime), 1.0);
        assert_eq!(cct.total(MetricKind::GpuAllocBytes), 64.0);
    }

    #[test]
    fn drop_oldest_does_not_leak_correlation_state() {
        // Evicted launches must unbind their enqueue-time directory
        // entry, and evicted terminal activity records must discard
        // their correlation's shard binding — otherwise sustained
        // overload grows the directory and correlation maps without
        // bound in exactly the mode meant to bound memory.
        let interner = Interner::new();
        let inner = ShardedSink::new(Arc::clone(&interner), 1);
        let sink = AsyncSink::new(
            Arc::clone(&inner),
            PipelineConfig {
                workers: 1,
                queue_capacity: 2,
                backpressure: BackpressurePolicy::DropOldest,
                launch_batch: 1,
                ..PipelineConfig::default()
            },
        );
        let mut path = CallPath::new();
        path.push(Frame::gpu_kernel("k", "m.so", 0x1, &interner));

        // Phase 1: flood launches into a parked pipeline — most are
        // evicted and must take their directory bindings with them.
        sink.pause();
        for corr in 1..=100u64 {
            let origin = EventOrigin {
                tid: Some(1),
                stream: Some(StreamId(0)),
                correlation: Some(CorrelationId(corr)),
            };
            sink.gpu_launch(&origin, &path, ApiKind::LaunchKernel);
        }
        sink.resume();
        sink.drain();
        assert!(
            inner.directory_entries() <= 2 + 1,
            "evicted launches leaked directory entries: {}",
            inner.directory_entries()
        );

        // Phase 2: the surviving launches' terminal records are evicted
        // too; their shard bindings must be discarded, and an epoch
        // retires whatever was attributed normally.
        sink.pause();
        for corr in 1..=100u64 {
            sink.activity_batch(&[Activity {
                correlation_id: CorrelationId(corr),
                device: DeviceId(0),
                kind: ActivityKind::Malloc {
                    bytes: 64,
                    at: TimeNs(1),
                },
            }]);
        }
        sink.resume();
        sink.drain();
        sink.epoch_complete();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while (inner.correlation_entries() != 0 || inner.directory_entries() != 0)
            && std::time::Instant::now() < deadline
        {
            std::thread::yield_now();
        }
        assert_eq!(inner.correlation_entries(), 0, "shard bindings leaked");
        assert_eq!(inner.directory_entries(), 0, "directory entries leaked");
        assert!(sink.counters().dropped_events > 0);
    }

    /// A thread id whose CPU-sample origin routes to `shard` on `inner`.
    fn tid_routing_to(inner: &ShardedSink, shard: usize) -> u64 {
        (1..10_000u64)
            .find(|t| {
                inner.route(&EventOrigin {
                    tid: Some(*t),
                    ..EventOrigin::default()
                }) == shard
            })
            .expect("some tid routes to every shard")
    }

    #[test]
    fn worker_panic_quarantines_the_shard_and_barriers_still_complete() {
        // An injected panic in the apply path must quarantine only the
        // offending shard: drain / pause / resume / epoch / snapshot all
        // return, the healthy shard's metrics are intact, and every
        // event is accounted (attributed + <poisoned> + dropped ==
        // enqueued).
        let interner = Interner::new();
        let inner = ShardedSink::new(Arc::clone(&interner), 2);
        let sink = AsyncSink::new(
            Arc::clone(&inner),
            PipelineConfig {
                workers: 1,
                launch_batch: 1,
                failpoints: Failpoints::parse("worker_panic@shard0").expect("valid spec"),
                ..PipelineConfig::default()
            },
        );
        let mut path = CallPath::new();
        path.push(Frame::gpu_kernel("k", "m.so", 0x1, &interner));
        let poisoned_tid = tid_routing_to(&inner, 0);
        let healthy_tid = tid_routing_to(&inner, 1);
        for _ in 0..10 {
            for tid in [poisoned_tid, healthy_tid] {
                let origin = EventOrigin {
                    tid: Some(tid),
                    ..EventOrigin::default()
                };
                sink.cpu_sample(&origin, &path, MetricKind::CpuTime, 1.0);
            }
        }
        // Every barrier completes despite the quarantined shard.
        sink.drain();
        sink.pause();
        sink.resume();
        sink.epoch_complete();
        let cct = sink.snapshot();
        let counters = sink.counters();
        assert_eq!(sink.quarantined_shards(), vec![0]);
        assert!(counters.worker_panics >= 1);
        assert_eq!(
            counters.worker_events + counters.poisoned_events + counters.dropped_events,
            counters.enqueued_events,
            "event conservation: {counters:?}"
        );
        // The healthy shard attributed normally; the quarantined shard's
        // events surface at the synthetic <poisoned> context.
        assert_eq!(cct.total(MetricKind::CpuTime), 10.0);
        assert_eq!(
            cct.total(MetricKind::PoisonedEvents),
            counters.poisoned_events as f64
        );
        assert_eq!(counters.poisoned_events, 10);
    }

    #[test]
    fn drop_oldest_samples_victim_contexts_under_dropped() {
        // Beyond the exact <dropped> total, eviction samples every K-th
        // victim's context into a ring so the profile reports *which*
        // contexts the overload fell on, scaled by the stride.
        let interner = Interner::new();
        let inner = ShardedSink::new(Arc::clone(&interner), 1);
        let sink = AsyncSink::new(
            Arc::clone(&inner),
            PipelineConfig {
                workers: 1,
                queue_capacity: 2,
                backpressure: BackpressurePolicy::DropOldest,
                launch_batch: 1,
                ..PipelineConfig::default()
            },
        );
        let mut path = CallPath::new();
        path.push(Frame::gpu_kernel("hot", "m.so", 0x1, &interner));
        let origin = EventOrigin {
            tid: Some(1),
            ..EventOrigin::default()
        };
        sink.pause();
        for _ in 0..200 {
            sink.cpu_sample(&origin, &path, MetricKind::CpuTime, 1.0);
        }
        sink.resume();
        sink.drain();
        let cct = sink.snapshot();
        let counters = sink.counters();
        assert!(counters.dropped_events >= 100, "flood must overflow");
        // The root-ward total stays exact: victim estimates attribute
        // exclusively and never double-count it.
        assert_eq!(
            cct.total(MetricKind::DroppedEvents),
            counters.dropped_events as f64
        );
        // The sampled victim context sits under <dropped> with a
        // stride-scaled estimate.
        let dropped_frame = Frame::operator("<dropped>", &interner);
        let dropped_node = cct
            .dfs()
            .find(|&n| cct.node(n).frame() == &dropped_frame)
            .expect("<dropped> context exists");
        let victim = cct
            .node(dropped_node)
            .children()
            .iter()
            .copied()
            .find(|&child| cct.metric(child, MetricKind::DroppedEvents).is_some())
            .expect("sampled victim context under <dropped>");
        let estimate = cct.metric(victim, MetricKind::DroppedEvents).unwrap().sum;
        assert!(
            estimate >= DROP_SAMPLE_STRIDE as f64,
            "victim estimate is stride-scaled, got {estimate}"
        );
    }
}
