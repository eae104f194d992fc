//! The DLMonitor runtime.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};

use deepcontext_core::{CallPath, Frame, FxHashMap, Interner, OpPhase};
use dl_framework::{CallbackRegistry, FrameworkCallbackId, GraphEvent, MemEvent, OpEvent, Site};
use sim_gpu::{ApiKind, CallbackData, GpuRuntime, SubscriberId, Vendor};
use sim_runtime::{NativeFrameInfo, PyFrameInfo, RuntimeEnv, ThreadCtx, ThreadRegistry};

use crate::cursor::{CursorEntry, ThreadCursor};
use crate::integrate::{integrate_call_path, IntegrationInput, ShadowOp};

/// Interception domains, mirroring `DLMONITOR_FRAMEWORK` /
/// `DLMONITOR_GPU`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Framework operators, graph compilation, tensor memory.
    Framework,
    /// GPU runtime APIs (launches, memcpys, mallocs, syncs).
    Gpu,
}

/// A GPU API interception, annotated with the intercepting vendor and the
/// thread it occurred on.
#[derive(Debug, Clone)]
pub struct GpuCallbackEvent {
    /// The raw callback payload (correlation id, API kind, kernel, ...).
    pub data: CallbackData,
    /// Which vendor runtime produced it (CUPTI vs RocTracer naming).
    pub vendor: Vendor,
    /// The simulated thread the API call ran on, when bound.
    pub thread: Option<Arc<ThreadCtx>>,
}

impl GpuCallbackEvent {
    /// The originating thread's id, when the call site was bound to one.
    pub fn tid(&self) -> Option<u64> {
        self.thread.as_ref().map(|t| t.tid())
    }

    /// Routing identity of this interception.
    pub fn origin(&self) -> EventOrigin {
        EventOrigin {
            tid: self.tid(),
            stream: self.data.stream,
            correlation: Some(self.data.correlation_id),
        }
    }
}

/// Where an event came from: the identity an ingestion pipeline routes on.
///
/// Sharded profiler sinks (see `deepcontext-profiler`) pick an ingestion
/// shard from these fields *before* taking any lock, so concurrent
/// producers on different threads/streams never serialize on a global
/// mutex. All fields are optional — events raised outside any bound thread
/// (e.g. a runtime-internal callback) simply carry less identity, and the
/// consumer falls back to whatever field is present.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventOrigin {
    /// The originating simulated OS thread.
    pub tid: Option<u64>,
    /// The GPU stream targeted, for GPU API events that have one.
    pub stream: Option<sim_gpu::StreamId>,
    /// The GPU correlation id, for GPU API events.
    pub correlation: Option<sim_gpu::CorrelationId>,
}

impl EventOrigin {
    /// The routing key sharded ingestion pipelines hash a shard index
    /// from: `(tid, stream)` when both are known — so a *single* thread
    /// fanning kernels over many streams spreads across shards instead
    /// of serializing on one — `tid` alone for events without a stream
    /// (CPU samples), the correlation id for events raised outside any
    /// bound thread, and `None` when the event carries no identity at
    /// all. Events for the same `(tid, stream)` pair always share a key,
    /// which is what keeps one stream's launches in FIFO order through a
    /// per-shard queue.
    pub fn route_key(&self) -> Option<u64> {
        match (self.tid, self.stream) {
            (Some(tid), Some(stream)) => {
                Some(tid ^ (u64::from(stream.0) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            }
            (Some(tid), None) => Some(tid),
            (None, _) => self.correlation.map(|corr| corr.0),
        }
    }
}

/// Events delivered to registered profiler callbacks.
#[derive(Debug, Clone)]
pub enum DlEvent {
    /// A framework operator (enter/exit).
    Op(OpEvent),
    /// A compute-graph compilation event.
    Graph(GraphEvent),
    /// A tensor memory event.
    Mem(MemEvent),
    /// A GPU API callback.
    Gpu(GpuCallbackEvent),
}

impl DlEvent {
    /// The event's routing identity. Operator events carry their executing
    /// thread; GPU events carry thread, stream and correlation id; graph
    /// and memory events have no stable origin (they are process-global).
    pub fn origin(&self) -> EventOrigin {
        match self {
            DlEvent::Op(op) => EventOrigin {
                tid: Some(op.thread.tid()),
                ..EventOrigin::default()
            },
            DlEvent::Graph(_) | DlEvent::Mem(_) => EventOrigin::default(),
            DlEvent::Gpu(gpu) => gpu.origin(),
        }
    }
}

/// Which call-path sources `dlmonitor_callpath_get` integrates — the
/// paper's "allows users to choose which specific call path source to
/// integrate or ignore to reduce overhead".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallPathSources {
    /// Include Python interpreter frames.
    pub python: bool,
    /// Include framework operator frames (the shadow stack).
    pub framework: bool,
    /// Include native C/C++ frames (requires unwinding — the expensive
    /// source).
    pub native: bool,
}

impl CallPathSources {
    /// Everything on (the paper's "DeepContext Native" configuration).
    pub fn all() -> Self {
        CallPathSources {
            python: true,
            framework: true,
            native: true,
        }
    }

    /// Python + framework only (the paper's default "DeepContext"
    /// configuration, with cheaper call paths).
    pub fn without_native() -> Self {
        CallPathSources {
            python: true,
            framework: true,
            native: false,
        }
    }
}

impl Default for CallPathSources {
    fn default() -> Self {
        Self::all()
    }
}

/// Identifier of a registered profiler callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegistrationId(u64);

/// Counters describing monitor activity (drives the caching ablation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Unified call paths built.
    pub callpaths_built: u64,
    /// Call paths that reused a cached Python path.
    pub cache_hits: u64,
    /// Backward call paths recovered through sequence-id association.
    pub assoc_hits: u64,
}

type EventCb = Arc<dyn Fn(&DlEvent) + Send + Sync>;

/// The registered callbacks, replaced wholesale on (un)registration so
/// dispatch iterates a snapshot without allocating.
type Callbacks = Arc<Vec<(RegistrationId, Domain, EventCb)>>;

/// Forward contexts recorded under autograd sequence ids.
#[derive(Debug, Default)]
struct Associations {
    /// Forward context per sequence id: the forward operator's prefix.
    records: BTreeMap<u64, Arc<[Frame]>>,
    /// Sequence id of the latest outermost backward operator.
    last_backward: Option<u64>,
}

impl Associations {
    /// Resolves the forward context of an outermost backward operator
    /// with sequence id `seq`, retiring records no backward operator can
    /// still ask for.
    ///
    /// Backward replays the tape newest-first, and several outermost
    /// backward operators may share one sequence id. So once `seq` is
    /// replayed, every newer record is done. A backward operator newer
    /// than the previous one starts a new pass: the previous pass drained
    /// the tape, so every record up to its last sequence id is done too.
    fn resolve(&mut self, seq: u64) -> Option<Arc<[Frame]>> {
        if let Some(last) = self.last_backward.filter(|last| seq > *last) {
            while self
                .records
                .first_key_value()
                .is_some_and(|(k, _)| *k <= last)
            {
                self.records.pop_first();
            }
        }
        while self.records.last_key_value().is_some_and(|(k, _)| *k > seq) {
            self.records.pop_last();
        }
        self.last_backward = Some(seq);
        self.records.get(&seq).cloned()
    }
}

/// The DLMonitor shim.
///
/// See the [crate-level docs](crate) for the API mapping to the paper.
pub struct DlMonitor {
    env: RuntimeEnv,
    interner: Arc<Interner>,
    /// Per-thread calling-context cursors, by tid.
    cursors: Mutex<FxHashMap<u64, ThreadCursor>>,
    assoc: Mutex<Associations>,
    callbacks: RwLock<Callbacks>,
    /// GPU API frames interned on first use, by `[api_index][vendor_index]`.
    api_frames: [[OnceLock<Frame>; 2]; 5],
    next_id: AtomicU64,
    sources: RwLock<CallPathSources>,
    cache_enabled: AtomicBool,
    finalized: AtomicBool,
    attached_framework: Mutex<Vec<(Arc<CallbackRegistry>, Vec<FrameworkCallbackId>)>>,
    attached_gpu: Mutex<Vec<(Arc<GpuRuntime>, SubscriberId)>>,
    stat_built: AtomicU64,
    stat_cache_hits: AtomicU64,
    stat_assoc_hits: AtomicU64,
}

impl DlMonitor {
    /// `dlmonitor_init`: creates the monitor against a process
    /// environment. The interner is shared with the profiler so frame
    /// symbols agree.
    pub fn init(env: &RuntimeEnv, interner: Arc<Interner>) -> Arc<Self> {
        Arc::new(DlMonitor {
            env: env.clone(),
            interner,
            cursors: Mutex::new(FxHashMap::default()),
            assoc: Mutex::new(Associations::default()),
            callbacks: RwLock::new(Arc::new(Vec::new())),
            api_frames: Default::default(),
            next_id: AtomicU64::new(0),
            sources: RwLock::new(CallPathSources::default()),
            cache_enabled: AtomicBool::new(true),
            finalized: AtomicBool::new(false),
            attached_framework: Mutex::new(Vec::new()),
            attached_gpu: Mutex::new(Vec::new()),
            stat_built: AtomicU64::new(0),
            stat_cache_hits: AtomicU64::new(0),
            stat_assoc_hits: AtomicU64::new(0),
        })
    }

    /// The shared interner.
    pub fn interner(&self) -> Arc<Interner> {
        Arc::clone(&self.interner)
    }

    /// Selects which call-path sources to integrate.
    pub fn set_sources(&self, sources: CallPathSources) {
        *self.sources.write() = sources;
    }

    /// The current source selection.
    pub fn sources(&self) -> CallPathSources {
        *self.sources.read()
    }

    /// Enables/disables the call-path cache.
    pub fn set_cache_enabled(&self, enabled: bool) {
        self.cache_enabled.store(enabled, Ordering::SeqCst);
    }

    /// Whether the call-path cache is on.
    pub fn cache_enabled(&self) -> bool {
        self.cache_enabled.load(Ordering::SeqCst)
    }

    /// Activity counters.
    pub fn stats(&self) -> MonitorStats {
        MonitorStats {
            callpaths_built: self.stat_built.load(Ordering::Relaxed),
            cache_hits: self.stat_cache_hits.load(Ordering::Relaxed),
            assoc_hits: self.stat_assoc_hits.load(Ordering::Relaxed),
        }
    }

    /// `dlmonitor_callback_register`: registers a profiler callback for a
    /// domain.
    pub fn callback_register(
        &self,
        domain: Domain,
        cb: impl Fn(&DlEvent) + Send + Sync + 'static,
    ) -> RegistrationId {
        let id = RegistrationId(self.next_id.fetch_add(1, Ordering::SeqCst));
        Arc::make_mut(&mut *self.callbacks.write()).push((id, domain, Arc::new(cb)));
        id
    }

    /// Removes a registered callback.
    pub fn callback_unregister(&self, id: RegistrationId) {
        Arc::make_mut(&mut *self.callbacks.write()).retain(|(i, _, _)| *i != id);
    }

    /// Delivers the event `make` builds to every `domain` callback. The
    /// event is built only when such a callback is registered, and the
    /// callbacks run from a snapshot of the registrations, so one may
    /// register or unregister callbacks re-entrantly.
    fn fire(&self, domain: Domain, make: impl FnOnce() -> DlEvent) {
        if self.finalized.load(Ordering::SeqCst) {
            return;
        }
        let callbacks = Arc::clone(&*self.callbacks.read());
        let mut matching = callbacks.iter().filter(|(_, d, _)| *d == domain).peekable();
        if matching.peek().is_none() {
            return;
        }
        let event = make();
        for (_, _, cb) in matching {
            cb(&event);
        }
    }

    /// Attaches to a framework's callback registry: maintains the
    /// per-thread cursor and forward/backward association, and forwards
    /// operator / graph / memory events to `Framework`-domain callbacks.
    ///
    /// Call this **before** registering profiler callbacks so the cursor
    /// is current when they fire.
    pub fn attach_framework(self: &Arc<Self>, callbacks: &Arc<CallbackRegistry>) {
        let mut ids = Vec::new();

        let me = Arc::clone(self);
        ids.push(callbacks.on_op(move |event| {
            me.on_op_event(event);
            me.fire(Domain::Framework, || DlEvent::Op(event.clone()));
        }));

        let me = Arc::clone(self);
        ids.push(callbacks.on_graph(move |event| {
            me.fire(Domain::Framework, || DlEvent::Graph(event.clone()));
        }));

        let me = Arc::clone(self);
        ids.push(callbacks.on_mem(move |event| {
            me.fire(Domain::Framework, || DlEvent::Mem(event.clone()));
        }));

        self.attached_framework
            .lock()
            .push((Arc::clone(callbacks), ids));
    }

    /// Attaches to a GPU runtime (CUPTI/RocTracer substitute), forwarding
    /// API callbacks to `Gpu`-domain callbacks.
    pub fn attach_gpu(self: &Arc<Self>, gpu: &Arc<GpuRuntime>) {
        let vendor = gpu
            .device_spec(sim_gpu::DeviceId(0))
            .map(|s| s.vendor)
            .unwrap_or(Vendor::Nvidia);
        let me = Arc::clone(self);
        let sub = gpu.subscribe(move |data| {
            me.fire(Domain::Gpu, || {
                DlEvent::Gpu(GpuCallbackEvent {
                    data: data.clone(),
                    vendor,
                    thread: ThreadRegistry::current(),
                })
            });
        });
        self.attached_gpu.lock().push((Arc::clone(gpu), sub));
    }

    fn on_op_event(&self, event: &OpEvent) {
        let tid = event.thread.tid();
        let mut cursors = self.cursors.lock();
        match event.site {
            Site::Enter => {
                let cursor = cursors.entry(tid).or_default();
                // An outermost backward operator recovers the forward
                // context recorded under its sequence id; operators
                // nested in it inherit that context.
                let assoc = match (event.phase, event.seq_id) {
                    (OpPhase::Backward, Some(seq)) if cursor.entries.is_empty() => {
                        self.assoc.lock().resolve(seq)
                    }
                    _ => None,
                };
                cursor.enter(event, assoc, &self.interner);
                if let (OpPhase::Forward, Some(seq)) = (event.phase, event.seq_id) {
                    let record = cursor.association_record();
                    self.assoc.lock().records.insert(seq, record);
                }
            }
            Site::Exit => {
                if let Some(cursor) = cursors.get_mut(&tid) {
                    cursor.entries.pop();
                }
            }
        }
    }

    /// Drops every recorded forward/backward association. Backward
    /// operators entered afterwards lack their forward context; ones
    /// already running keep theirs. Records retire on their own as
    /// backward passes replay them, so this is not needed to bound
    /// memory.
    pub fn clear_associations(&self) {
        self.assoc.lock().records.clear();
    }

    /// Forward contexts currently recorded (test/diagnostic hook).
    pub fn association_count(&self) -> usize {
        self.assoc.lock().records.len()
    }

    /// `dlmonitor_callpath_get`: builds the unified multi-layer call path
    /// for `thread` under the configured sources and cache mode.
    ///
    /// With the cache on and both Python and framework frames selected,
    /// the path is the innermost operator's cursor prefix (outside any
    /// operator: the thread's Python frames), followed, when native
    /// frames are collected, by the native frames unwound below that
    /// operator. Every other case goes through
    /// [`callpath_reference`](Self::callpath_reference).
    pub fn callpath_get(&self, thread: &Arc<ThreadCtx>) -> CallPath {
        self.build(thread, 0)
    }

    /// [`callpath_get`](Self::callpath_get), with room for `extra` frames
    /// the caller appends.
    fn build(&self, thread: &Arc<ThreadCtx>, extra: usize) -> CallPath {
        self.stat_built.fetch_add(1, Ordering::Relaxed);
        let sources = self.sources();
        let cache_on = self.cache_enabled();
        if !(cache_on && sources.python && sources.framework) {
            return self.reference(thread, sources, cache_on, true);
        }
        let (prefix, anchor) = {
            let mut cursors = self.cursors.lock();
            let cursor = cursors.entry(thread.tid()).or_default();
            let associated = cursor.associated();
            match cursor.entries.last() {
                None => {
                    let python = cursor.python_frames(thread.python(), &self.interner);
                    (Arc::clone(python), 0)
                }
                // Operators must interleave with native frames by depth:
                // backward operators under an association (anchored at
                // the outermost one), or an operator entered above an
                // enclosing one's native depth.
                Some(inner)
                    if sources.native && (associated || inner.peak_depth > inner.native_depth) =>
                {
                    drop(cursors);
                    return self.reference(thread, sources, cache_on, true);
                }
                Some(inner) => {
                    let hits = if associated {
                        &self.stat_assoc_hits
                    } else {
                        &self.stat_cache_hits
                    };
                    hits.fetch_add(1, Ordering::Relaxed);
                    (Arc::clone(&inner.prefix), inner.native_depth)
                }
            }
        };
        let mut frames = Vec::with_capacity(prefix.len() + extra);
        frames.extend_from_slice(&prefix);
        if sources.native {
            self.push_native_tail(thread, anchor, &mut frames);
        }
        CallPath::from_frames(frames)
    }

    /// Appends the native frames above native depth `anchor`, unwound
    /// step by step from the leaf and interned root-first, minus the
    /// deepest libpython frame and everything toward the root from it
    /// (the Python frames stand for those).
    fn push_native_tail(&self, thread: &ThreadCtx, anchor: usize, frames: &mut Vec<Frame>) {
        let needed = thread.native().depth().saturating_sub(anchor);
        let mut cursor = self.env.unwinder().cursor(thread.native());
        let mut leaf_first = Vec::with_capacity(needed);
        for _ in 0..needed {
            match cursor.step() {
                Some(f) => leaf_first.push(f),
                None => break,
            }
        }
        let libraries = self.env.libraries();
        let keep = leaf_first
            .iter()
            .position(|f| libraries.is_python_pc(f.pc))
            .unwrap_or(leaf_first.len());
        frames.extend(
            leaf_first[..keep]
                .iter()
                .rev()
                .map(|f| Frame::native(&f.library, f.pc, &f.symbol, &self.interner)),
        );
    }

    /// The reference call-path builder, and the test oracle for
    /// [`callpath_get`](Self::callpath_get), which must agree with it
    /// exactly. It snapshots the cursor as a shadow stack, picks the
    /// Python source, unwinds, and merges the three with
    /// [`integrate_call_path`]. `callpath_get` also delegates to it
    /// where a path is not "prefix + native tail": with the cache off
    /// (the §4.1 ablation), with Python or framework frames deselected,
    /// and with native frames under a backward association, where
    /// operators interleave with native frames by depth. This method
    /// leaves the monitor's counters alone.
    pub fn callpath_reference(&self, thread: &Arc<ThreadCtx>) -> CallPath {
        self.reference(thread, self.sources(), self.cache_enabled(), false)
    }

    /// [`callpath_for_gpu`](Self::callpath_for_gpu) through the reference
    /// builder (the API frame included, built afresh).
    pub fn callpath_for_gpu_reference(&self, event: &GpuCallbackEvent) -> CallPath {
        let mut path = event
            .thread
            .as_ref()
            .map(|t| self.callpath_reference(t))
            .unwrap_or_default();
        path.push(gpu_api_frame(event.data.api, event.vendor, &self.interner));
        self.push_kernel_frame(&mut path, &event.data);
        path
    }

    fn reference(
        &self,
        thread: &Arc<ThreadCtx>,
        sources: CallPathSources,
        cache_on: bool,
        count: bool,
    ) -> CallPath {
        // The shadow stack, the Python stack cached when its innermost
        // operator entered, and the forward context its outermost one
        // recovered.
        let snapshot = sources.framework.then(|| {
            let cursors = self.cursors.lock();
            let cursor = cursors.get(&thread.tid())?;
            let inner = cursor.entries.last()?;
            Some((
                cursor.entries.iter().map(CursorEntry::shadow_op).collect(),
                inner.python.to_vec(),
                cursor.entries[0].assoc.clone(),
            ))
        });
        let (shadow, cached_python, assoc): (Vec<ShadowOp>, Vec<PyFrameInfo>, _) =
            snapshot.flatten().unwrap_or_default();

        let mut prefix = CallPath::new();
        let python: Vec<PyFrameInfo> = if !sources.python {
            Vec::new()
        } else if let Some(context) = &assoc {
            if count {
                self.stat_assoc_hits.fetch_add(1, Ordering::Relaxed);
            }
            prefix.extend(context.iter().cloned());
            Vec::new()
        } else if cache_on && !shadow.is_empty() {
            if count {
                self.stat_cache_hits.fetch_add(1, Ordering::Relaxed);
            }
            cached_python
        } else {
            thread.python().walk()
        };

        // Native frames. Cached mode (or association) only needs the tail
        // below the relevant operator: a partial unwind.
        let (native, depth_offset): (Vec<NativeFrameInfo>, usize) = if !sources.native {
            (Vec::new(), 0)
        } else if (cache_on || assoc.is_some()) && !shadow.is_empty() {
            let anchor = if assoc.is_some() {
                shadow.first().expect("non-empty").native_depth
            } else {
                shadow.last().expect("non-empty").native_depth
            };
            let depth_now = thread.native().depth();
            let needed = depth_now.saturating_sub(anchor);
            let mut cursor = self.env.unwinder().cursor(thread.native());
            let mut frames = Vec::with_capacity(needed);
            for _ in 0..needed {
                match cursor.step() {
                    Some(f) => frames.push(f),
                    None => break,
                }
            }
            frames.reverse();
            (frames, anchor)
        } else {
            (self.env.unwinder().backtrace(thread.native()), 0)
        };

        let operators: Vec<ShadowOp> = shadow
            .into_iter()
            .map(|mut op| {
                op.native_depth = op.native_depth.saturating_sub(depth_offset);
                op
            })
            .collect();

        let native_is_python = native
            .iter()
            .map(|f| self.env.libraries().is_python_pc(f.pc))
            .collect();

        let input = IntegrationInput {
            python,
            operators,
            native,
            native_is_python,
        };
        let mut path = prefix;
        path.extend_from(&integrate_call_path(&input, &self.interner));
        path
    }

    /// Builds the call path for a GPU API callback: the thread's unified
    /// path plus the GPU API frame and (for launches) the kernel frame —
    /// the full Figure 3(b) shape.
    pub fn callpath_for_gpu(&self, event: &GpuCallbackEvent) -> CallPath {
        let data = &event.data;
        let extra = 1 + usize::from(data.kernel.is_some());
        let mut path = event
            .thread
            .as_ref()
            .map(|t| self.build(t, extra))
            .unwrap_or_default();
        let api = &self.api_frames[api_index(data.api)][vendor_index(event.vendor)];
        path.push(
            api.get_or_init(|| gpu_api_frame(data.api, event.vendor, &self.interner))
                .clone(),
        );
        self.push_kernel_frame(&mut path, data);
        path
    }

    fn push_kernel_frame(&self, path: &mut CallPath, data: &CallbackData) {
        if let Some(kernel) = &data.kernel {
            path.push(Frame::gpu_kernel(
                &kernel.name,
                &kernel.module,
                kernel.entry_pc,
                &self.interner,
            ));
        }
    }

    /// `dlmonitor_finalize`: detaches every interception and clears
    /// monitor state. Further events are ignored.
    pub fn finalize(&self) {
        self.finalized.store(true, Ordering::SeqCst);
        for (registry, ids) in self.attached_framework.lock().drain(..) {
            for id in ids {
                registry.remove(id);
            }
        }
        for (gpu, sub) in self.attached_gpu.lock().drain(..) {
            gpu.unsubscribe(sub);
        }
        *self.callbacks.write() = Arc::new(Vec::new());
        self.cursors.lock().clear();
        *self.assoc.lock() = Associations::default();
    }

    /// Live operators on a thread's cursor — its shadow-stack depth
    /// (test/diagnostic hook).
    pub fn shadow_depth(&self, tid: u64) -> usize {
        self.cursors
            .lock()
            .get(&tid)
            .map_or(0, |cursor| cursor.entries.len())
    }
}

impl std::fmt::Debug for DlMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DlMonitor")
            .field("stats", &self.stats())
            .field("sources", &self.sources())
            .field("cache_enabled", &self.cache_enabled())
            .finish()
    }
}

/// Dense index of an API kind (a row of `DlMonitor::api_frames`).
fn api_index(api: ApiKind) -> usize {
    match api {
        ApiKind::LaunchKernel => 0,
        ApiKind::MemcpyAsync => 1,
        ApiKind::MemAlloc => 2,
        ApiKind::MemFree => 3,
        ApiKind::Synchronize => 4,
    }
}

/// Dense index of a vendor (a column of `DlMonitor::api_frames`).
fn vendor_index(vendor: Vendor) -> usize {
    match vendor {
        Vendor::Nvidia => 0,
        Vendor::Amd => 1,
    }
}

/// The GPU API frame for `api` under `vendor`'s naming, at a stable
/// pseudo-PC distinct per API kind.
fn gpu_api_frame(api: ApiKind, vendor: Vendor, interner: &Interner) -> Frame {
    let pc = 0x10 * (api_index(api) as u64 + 1);
    Frame::gpu_api(api.api_name(vendor), api.api_library(vendor), pc, interner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::{FrameKind, ThreadRole, TimeNs};
    use dl_framework::{EagerEngine, FrameworkCore, Op, OpKind, TensorMeta};
    use sim_gpu::{CallbackSite, DeviceId, DeviceSpec, GpuRuntime};

    struct Rig {
        env: RuntimeEnv,
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
        let monitor = DlMonitor::init(&env, Interner::new());
        monitor.attach_framework(core.callbacks());
        monitor.attach_gpu(&gpu);
        Rig {
            env,
            engine,
            monitor,
        }
    }

    fn launch_paths(rig: &Rig) -> Arc<Mutex<Vec<CallPath>>> {
        let paths = Arc::new(Mutex::new(Vec::new()));
        let p = Arc::clone(&paths);
        let monitor = Arc::clone(&rig.monitor);
        rig.monitor.callback_register(Domain::Gpu, move |event| {
            if let DlEvent::Gpu(gpu_event) = event {
                if gpu_event.data.api == ApiKind::LaunchKernel
                    && gpu_event.data.site == CallbackSite::Enter
                {
                    p.lock().push(monitor.callpath_for_gpu(gpu_event));
                }
            }
        });
        paths
    }

    #[test]
    fn unified_path_spans_all_five_layers() {
        let rig = rig();
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        let paths = launch_paths(&rig);

        let core = Arc::clone(rig.engine.core());
        let _s1 = core.python().frame(&main, "train.py", 12, "main");
        let _s2 = core.python().frame(&main, "model.py", 34, "forward");
        rig.engine
            .op(Op::new(OpKind::Relu), &[TensorMeta::new([1 << 16])])
            .unwrap();

        let paths = paths.lock();
        assert_eq!(paths.len(), 1);
        let kinds: Vec<FrameKind> = paths[0].frames().iter().map(|f| f.kind()).collect();
        // Python, Python, Operator, Native(dispatcher), Native(impl), GpuApi, GpuKernel.
        assert_eq!(
            kinds,
            vec![
                FrameKind::Python,
                FrameKind::Python,
                FrameKind::Operator,
                FrameKind::Native,
                FrameKind::Native,
                FrameKind::GpuApi,
                FrameKind::GpuKernel
            ]
        );
        let interner = rig.monitor.interner();
        let labels: Vec<String> = paths[0]
            .frames()
            .iter()
            .map(|f| f.short_label(&interner))
            .collect();
        assert_eq!(labels[0], "train.py:12");
        assert_eq!(labels[1], "model.py:34");
        assert_eq!(labels[2], "aten::relu");
        assert_eq!(labels[5], "cuLaunchKernel");
        assert_eq!(labels[6], "vectorized_elementwise_kernel<relu>");
    }

    #[test]
    fn without_monitor_attachment_path_has_no_framework_context() {
        // The Figure 3(a) contrast: native-only unwinding.
        let rig = rig();
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        rig.monitor.set_sources(CallPathSources {
            python: false,
            framework: false,
            native: true,
        });
        let paths = launch_paths(&rig);
        let core = Arc::clone(rig.engine.core());
        let _s1 = core.python().frame(&main, "train.py", 12, "main");
        rig.engine
            .op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
            .unwrap();
        let paths = paths.lock();
        let kinds: Vec<FrameKind> = paths[0].frames().iter().map(|f| f.kind()).collect();
        assert!(!kinds.contains(&FrameKind::Python));
        assert!(!kinds.contains(&FrameKind::Operator));
        assert!(kinds.contains(&FrameKind::Native));
    }

    #[test]
    fn backward_paths_recover_forward_context_via_sequence_ids() {
        let rig = rig();
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        rig.engine.set_grad_enabled(true);
        let paths = launch_paths(&rig);

        {
            let core = Arc::clone(rig.engine.core());
            let _s1 = core.python().frame(&main, "train.py", 12, "train_step");
            rig.engine
                .op(
                    Op::new(OpKind::Index).with_duplicates(16.0),
                    &[TensorMeta::new([10_000, 64]), TensorMeta::new([512])],
                )
                .unwrap();
        }
        rig.engine.backward().unwrap();

        let paths = paths.lock();
        // One forward launch; backward lowers two kernels (zero + scatter).
        assert_eq!(paths.len(), 3, "forward launch + two backward launches");
        let interner = rig.monitor.interner();
        let bwd_labels: Vec<String> = paths[2]
            .frames()
            .iter()
            .map(|f| f.short_label(&interner))
            .collect();
        // The backward path begins with the *forward* Python context.
        assert_eq!(bwd_labels[0], "train.py:12");
        assert_eq!(bwd_labels[1], "aten::index");
        assert!(bwd_labels.contains(&"aten::index~bwd".to_owned()));
        assert!(bwd_labels.contains(&"indexing_backward_kernel".to_owned()));
        assert!(rig.monitor.stats().assoc_hits >= 1);
    }

    #[test]
    fn associations_retire_as_backward_replays_them() {
        let rig = rig();
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        rig.engine.set_grad_enabled(true);
        let paths = launch_paths(&rig);
        let core = Arc::clone(rig.engine.core());

        let mut counts = Vec::new();
        for _ in 0..8 {
            {
                let _s = core.python().frame(&main, "train.py", 12, "train_step");
                for kind in [OpKind::Relu, OpKind::Gelu, OpKind::Relu] {
                    rig.engine
                        .op(Op::new(kind), &[TensorMeta::new([64])])
                        .unwrap();
                }
            }
            rig.engine.backward().unwrap();
            counts.push(rig.monitor.association_count());
        }
        // Each pass leaves only the record of its oldest operator behind,
        // and the next pass retires it: the count does not grow.
        assert_eq!(counts, vec![1; 8]);

        // The last pass's backward launches still carry the forward
        // Python context.
        let interner = rig.monitor.interner();
        let paths = paths.lock();
        let backward: Vec<&CallPath> = paths
            .iter()
            .rev()
            .take(3)
            .filter(|p| {
                p.frames().iter().any(|f| {
                    matches!(
                        f,
                        Frame::Operator {
                            phase: OpPhase::Backward,
                            ..
                        }
                    )
                })
            })
            .collect();
        assert_eq!(
            backward.len(),
            3,
            "the last pass launched three backward kernels"
        );
        for path in backward {
            assert_eq!(path.frames()[0].short_label(&interner), "train.py:12");
        }
        assert!(rig.monitor.stats().assoc_hits >= 24);
    }

    #[test]
    fn backward_without_association_has_no_python_context() {
        let rig = rig();
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        rig.engine.set_grad_enabled(true);
        let paths = launch_paths(&rig);

        {
            let core = Arc::clone(rig.engine.core());
            let _s1 = core.python().frame(&main, "train.py", 12, "train_step");
            rig.engine
                .op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
                .unwrap();
        }
        rig.monitor.clear_associations(); // simulate a monitor without the feature
        rig.engine.backward().unwrap();

        let paths = paths.lock();
        let bwd = &paths[1];
        assert!(
            bwd.frames().iter().all(|f| f.kind() != FrameKind::Python),
            "orphaned backward path must lack Python frames"
        );
    }

    #[test]
    fn cached_and_uncached_paths_agree_for_flat_dispatch() {
        let rig = rig();
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        let paths = launch_paths(&rig);
        let core = Arc::clone(rig.engine.core());

        rig.monitor.set_cache_enabled(true);
        {
            let _s = core.python().frame(&main, "a.py", 1, "f");
            rig.engine
                .op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
                .unwrap();
        }
        rig.monitor.set_cache_enabled(false);
        {
            let _s = core.python().frame(&main, "a.py", 1, "f");
            rig.engine
                .op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
                .unwrap();
        }
        let paths = paths.lock();
        assert_eq!(paths[0], paths[1]);
        assert!(rig.monitor.stats().cache_hits >= 1);
    }

    #[test]
    fn caching_reduces_unwind_steps() {
        let rig = rig();
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        let _paths = launch_paths(&rig);
        let core = Arc::clone(rig.engine.core());
        // Deep Python nesting makes full unwinds expensive.
        let _scopes: Vec<_> = (0..10)
            .map(|i| {
                core.python()
                    .frame(&main, "deep.py", i, &format!("level{i}"))
            })
            .collect();

        rig.monitor.set_cache_enabled(false);
        rig.env.unwinder().reset_counters();
        rig.engine
            .op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
            .unwrap();
        let uncached_steps = rig.env.unwinder().steps_taken();

        rig.monitor.set_cache_enabled(true);
        rig.env.unwinder().reset_counters();
        rig.engine
            .op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
            .unwrap();
        let cached_steps = rig.env.unwinder().steps_taken();

        assert!(
            cached_steps < uncached_steps,
            "cached {cached_steps} !< uncached {uncached_steps}"
        );
    }

    #[test]
    fn disabling_native_source_skips_unwinding_entirely() {
        let rig = rig();
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        rig.monitor.set_sources(CallPathSources::without_native());
        let paths = launch_paths(&rig);
        let core = Arc::clone(rig.engine.core());
        let _s = core.python().frame(&main, "a.py", 1, "f");

        rig.env.unwinder().reset_counters();
        rig.engine
            .op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
            .unwrap();
        assert_eq!(rig.env.unwinder().steps_taken(), 0);

        let paths = paths.lock();
        let kinds: Vec<FrameKind> = paths[0].frames().iter().map(|f| f.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                FrameKind::Python,
                FrameKind::Operator,
                FrameKind::GpuApi,
                FrameKind::GpuKernel
            ]
        );
    }

    #[test]
    fn finalize_detaches_everything() {
        let rig = rig();
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        let paths = launch_paths(&rig);
        rig.monitor.finalize();
        rig.engine
            .op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
            .unwrap();
        assert!(paths.lock().is_empty());
        assert_eq!(rig.monitor.shadow_depth(main.tid()), 0);
    }

    #[test]
    fn shadow_stack_tracks_nesting_and_unwinds_on_exit() {
        let rig = rig();
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        let depths = Arc::new(Mutex::new(Vec::new()));
        let d = Arc::clone(&depths);
        let monitor = Arc::clone(&rig.monitor);
        let tid = main.tid();
        rig.monitor
            .callback_register(Domain::Framework, move |event| {
                if let DlEvent::Op(op) = event {
                    if op.site == Site::Enter {
                        d.lock().push(monitor.shadow_depth(tid));
                    }
                }
            });
        rig.engine
            .op(Op::new(OpKind::Relu), &[TensorMeta::new([8])])
            .unwrap();
        rig.engine
            .op(Op::new(OpKind::Gelu), &[TensorMeta::new([8])])
            .unwrap();
        // Depth observed at Enter is 1 for each (not nested; exits popped).
        assert_eq!(*depths.lock(), vec![1, 1]);
        assert_eq!(rig.monitor.shadow_depth(tid), 0);
    }

    #[test]
    fn mem_and_graph_events_are_forwarded() {
        let rig = rig();
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        let count = Arc::new(Mutex::new(0usize));
        let c = Arc::clone(&count);
        rig.monitor
            .callback_register(Domain::Framework, move |event| {
                if matches!(event, DlEvent::Mem(_)) {
                    *c.lock() += 1;
                }
            });
        let meta = TensorMeta::new([256]);
        let ptr = rig.engine.alloc_tensor(&meta).unwrap();
        rig.engine.free_tensor(ptr, meta.bytes() as u64).unwrap();
        assert_eq!(*count.lock(), 2);
    }
}
