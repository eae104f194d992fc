//! One model on one test bed at one rung of the leveled ladder, driven
//! through the repository's public entry points: `TestBed` →
//! `DlMonitor` → `Profiler` → `ProfileDb` → `ProfileStore` /
//! `Analyzer` / `FlameGraph` / Chrome trace.
//!
//! The benchmark drives the iteration loop itself rather than calling
//! `TestBed::run_eager` / `run_jit` once per iteration: those build a
//! fresh data loader (spawning its worker threads) and, for JIT, trace
//! and compile on every call. Here the loader, the trace and the compile
//! happen once, in set-up, and a timed iteration is exactly one
//! training/inference step followed by a device synchronize — and, when
//! a profiler is attached, the iteration-boundary `Profiler::flush`
//! (or the live-view refresh that starts with it).

use std::error::Error;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use deepcontext_analyzer::{AnalysisReport, Analyzer, ProfileDiff, ProfileStore};
use deepcontext_core::{
    CallPath, CallingContextTree, Interner, MetricKind, ProfileDb, ProfileMeta,
};
use deepcontext_flamegraph::{FlameGraph, SvgOptions};
use deepcontext_pipeline::{EventSink, SinkCounters};
use deepcontext_profiler::{Profiler, ProfilerConfig, ProfilerStats, TimelineConfig};
use deepcontext_timeline::TimelineSnapshot;
use dl_framework::{CompiledGraph, DataLoader, FrameworkCore, FrameworkError};
use dl_models::{EagerSink, ModelCtx, TestBed, TraceSink, WorkloadOptions};
use dlmonitor::{DlMonitor, EventOrigin, MonitorStats};
use sim_gpu::{Activity, ApiKind, DeviceId};
use sim_runtime::ThreadRegistry;

use crate::trace::{Site, Tracer};
use crate::workloads::{Engine, Model, WARMUP_ITERATIONS};

/// A rung of the leveled ladder: each adds one layer to the one below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rung {
    /// L0: unprofiled.
    Base,
    /// L1: `DlMonitor` attached, no profiler.
    Monitor,
    /// L2: `Profiler::attach_with_sink` with a sink that discards every
    /// event — call paths are built, nothing is attributed.
    NullSink,
    /// L3: `Profiler::attach`, timeline off.
    Profiled,
    /// L4: L3 plus the timeline.
    Timeline,
    /// L5: L4 plus a live-view refresh after every iteration.
    Live,
}

impl Rung {
    /// Every rung, bottom up.
    pub const ALL: [Rung; 6] = [
        Rung::Base,
        Rung::Monitor,
        Rung::NullSink,
        Rung::Profiled,
        Rung::Timeline,
        Rung::Live,
    ];

    /// `L0` … `L5`.
    pub fn label(self) -> &'static str {
        match self {
            Rung::Base => "L0",
            Rung::Monitor => "L1",
            Rung::NullSink => "L2",
            Rung::Profiled => "L3",
            Rung::Timeline => "L4",
            Rung::Live => "L5",
        }
    }

    /// The workload's profiler configuration at this rung.
    pub fn config(self, base: ProfilerConfig) -> ProfilerConfig {
        let timeline = match self {
            Rung::Timeline | Rung::Live => TimelineConfig::enabled(),
            _ => TimelineConfig::default(),
        };
        ProfilerConfig { timeline, ..base }
    }

    /// Whether the rung collects a profile that can be finished.
    pub fn profiles(self) -> bool {
        self >= Rung::Profiled
    }
}

/// The L2 sink: accepts every event and keeps nothing.
struct DiscardSink;

impl EventSink for DiscardSink {
    fn gpu_launch(&self, _: &EventOrigin, _: &CallPath, _: ApiKind) {}
    fn activity_batch(&self, _: &[Activity]) {}
    fn cpu_sample(&self, _: &EventOrigin, _: &CallPath, _: MetricKind, _: f64) {}
    fn snapshot(&self) -> CallingContextTree {
        CallingContextTree::new()
    }
    fn counters(&self) -> SinkCounters {
        SinkCounters::default()
    }
    fn approx_bytes(&self) -> usize {
        0
    }
}

/// Ground truth the simulator knows about a profiled session.
#[derive(Debug, Clone, Copy, Default)]
pub struct Truth {
    /// Kernels launched on every device since the profiler attached.
    pub kernels: u64,
    /// Device busy time on every device since the profiler attached.
    pub gpu_busy_ns: u64,
}

/// One timed iteration.
#[derive(Debug, Clone, Copy)]
pub struct Iteration {
    /// Wall time of the whole iteration (refresh included on L5).
    pub total: Duration,
    /// Wall time of the live-view refresh inside it (L5 only).
    pub refresh: Option<Duration>,
}

/// A finished profiled session and everything the user looks at.
pub struct Finished {
    /// Wall time from `Profiler::finish` to the last view.
    pub insight: Duration,
    /// The profile as `Profiler::finish` returned it.
    pub saved: ProfileDb,
    /// The profile as `ProfileStore::load` returned it.
    pub loaded: ProfileDb,
    /// The analyzer's report on the loaded profile.
    pub report: AnalysisReport,
    /// Size of the stored profile file.
    pub file_bytes: u64,
    /// Size of the Chrome trace (0 without a timeline).
    pub chrome_bytes: usize,
    /// Profiler counters just before finishing.
    pub stats: ProfilerStats,
    /// Monitor counters just before finishing.
    pub monitor: MonitorStats,
    /// Simulator ground truth.
    pub truth: Truth,
    /// Native unwinding steps the session's process took.
    pub unwind_steps: u64,
    /// Whether PC sampling was on.
    pub sampling: bool,
}

/// A model's test bed at one rung.
pub struct Session<'m> {
    model: &'m Model,
    engine: Engine,
    site: Site,
    opts: WorkloadOptions,
    bed: TestBed,
    loader: Option<DataLoader>,
    compiled: Option<CompiledGraph>,
    monitor: Option<Arc<DlMonitor>>,
    profiler: Option<Profiler>,
    sampling: bool,
    analyzer: Analyzer,
    start: Truth,
    iterations: u64,
}

impl<'m> Session<'m> {
    /// Builds the test bed, attaches the rung's layers, traces and
    /// compiles (JIT), and warms up. Everything here is set-up time.
    ///
    /// # Errors
    ///
    /// Propagates framework and GPU failures.
    pub fn open(
        model: &'m Model,
        engine: Engine,
        rung: Rung,
        config: ProfilerConfig,
        episode: u32,
        tracer: &Tracer,
    ) -> Result<Session<'m>, Box<dyn Error>> {
        let site = Site {
            model: model.name(),
            rung,
            episode,
        };
        let config = rung.config(config);
        let bed = tracer.span("sim.testbed", site, || {
            TestBed::with_devices(model.devices.clone())
        });
        let core = engine_core(&bed, engine);
        let monitor = (rung >= Rung::Monitor).then(|| {
            tracer.span("dlmonitor.attach", site, || {
                let monitor = DlMonitor::init(bed.env(), Interner::new());
                monitor.attach_framework(core.callbacks());
                monitor.attach_gpu(bed.gpu());
                monitor.set_sources(config.sources);
                monitor.set_cache_enabled(config.cache_enabled);
                monitor
            })
        });
        let sampling = config.instruction_sampling.is_some();
        let profiler = match (&monitor, rung) {
            (Some(monitor), Rung::NullSink) => Some(tracer.span("profiler.attach", site, || {
                Profiler::attach_with_sink(
                    config,
                    bed.env(),
                    monitor,
                    bed.gpu(),
                    Arc::new(DiscardSink),
                )
            })),
            (Some(monitor), r) if r.profiles() => {
                Some(tracer.span("profiler.attach", site, || {
                    Profiler::attach(config, bed.env(), monitor, bed.gpu())
                }))
            }
            _ => None,
        };
        let start = device_totals(&bed)?;

        let opts = WorkloadOptions::default();
        let workload = model.workload.as_ref();
        let main = Arc::clone(bed.main_thread());
        let bind = ThreadRegistry::bind_current(&main);
        for d in 0..bed.gpu().device_count() {
            bed.gpu()
                .ensure_streams(DeviceId(d as u32), workload.streams_per_device())?;
        }
        if engine == Engine::Eager {
            bed.eager().set_grad_enabled(workload.training());
        }
        let loader = workload
            .dataloader(&opts)
            .map(|config| DataLoader::new(bed.env(), core.python(), config));
        let compiled = match engine {
            Engine::Eager => None,
            Engine::Jit => {
                let graph = tracer.span("sim.jit_trace", site, || {
                    let _scope = core.python().frame(&main, "train.py", 22, "jit_step");
                    bed.jit().trace(workload.name(), |t| {
                        let mut sink = TraceSink::new(t);
                        let mut ctx = ModelCtx::new(
                            &mut sink,
                            Arc::clone(core.python()),
                            Arc::clone(&main),
                            opts.clone(),
                        );
                        workload.iteration(&mut ctx)?;
                        if workload.training() {
                            ctx.backward()?;
                        }
                        Ok(())
                    })
                })?;
                Some(tracer.span("sim.jit_compile", site, || bed.jit().compile(&graph))?)
            }
        };
        drop(bind);

        let mut session = Session {
            model,
            engine,
            site,
            opts,
            bed,
            loader,
            compiled,
            monitor,
            profiler,
            sampling,
            analyzer: Analyzer::with_default_rules(),
            start,
            iterations: 0,
        };
        for _ in 0..WARMUP_ITERATIONS {
            session.iterate(tracer, "warmup")?;
        }
        Ok(session)
    }

    /// The session's test bed.
    pub fn bed(&self) -> &TestBed {
        &self.bed
    }

    /// The attached profiler, if the rung has one.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// Iterations run so far, warm-up included.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// One synced training/inference step: the model's iteration (and
    /// backward), then a synchronize of every device.
    fn step(&self) -> Result<(), FrameworkError> {
        let main = self.bed.main_thread();
        let _bind = ThreadRegistry::bind_current(main);
        let core = engine_core(&self.bed, self.engine);
        {
            let _step = core.python().frame(main, "train.py", 30, "train_step");
            if let Some(loader) = &self.loader {
                let _load = core
                    .python()
                    .frame(main, "input_pipeline.py", 40, "next_batch");
                loader.load_batch();
            }
            match &self.compiled {
                Some(compiled) => compiled.execute()?,
                None => {
                    let mut sink = EagerSink::new(Arc::clone(self.bed.eager()));
                    let mut ctx = ModelCtx::new(
                        &mut sink,
                        Arc::clone(core.python()),
                        Arc::clone(main),
                        self.opts.clone(),
                    );
                    self.model.workload.iteration(&mut ctx)?;
                    if self.model.workload.training() {
                        ctx.backward()?;
                    }
                }
            }
        }
        for d in 0..self.bed.gpu().device_count() {
            self.bed.gpu().synchronize(DeviceId(d as u32))?;
        }
        Ok(())
    }

    /// One iteration as the loop runs it: the step, then the profiler's
    /// iteration-boundary flush — or, on L5, the live-view refresh.
    ///
    /// # Errors
    ///
    /// Propagates framework and GPU failures.
    pub fn iterate(
        &mut self,
        tracer: &Tracer,
        name: &'static str,
    ) -> Result<Iteration, FrameworkError> {
        let site = self.site;
        let start = Instant::now();
        let refresh = tracer.span(name, site, || {
            tracer.span("sim.step", site, || self.step())?;
            Ok::<_, FrameworkError>(match &self.profiler {
                Some(_) if site.rung == Rung::Live => Some(self.refresh(tracer)),
                Some(profiler) => {
                    tracer.span("profiler.flush", site, || profiler.flush());
                    None
                }
                None => None,
            })
        })?;
        self.iterations += 1;
        Ok(Iteration {
            total: start.elapsed(),
            refresh,
        })
    }

    /// A live-view refresh probed mid-run: one more step, then a timed
    /// refresh, which starts by flushing that step's activities.
    ///
    /// # Errors
    ///
    /// Propagates framework and GPU failures.
    pub fn probe(&mut self, tracer: &Tracer) -> Result<Duration, FrameworkError> {
        tracer.span("probe.step", self.site, || self.step())?;
        self.iterations += 1;
        Ok(self.refresh(tracer))
    }

    /// One live-view refresh: `flush` → `timeline()` → `with_cct` →
    /// `preview_with_timeline` (`preview` without a timeline).
    fn refresh(&self, tracer: &Tracer) -> Duration {
        let site = self.site;
        let profiler = self
            .profiler
            .as_ref()
            .expect("live-view refreshes run on profiled rungs");
        let start = Instant::now();
        tracer.span("live.refresh", site, || {
            tracer.span("profiler.flush", site, || profiler.flush());
            let timeline = tracer.span("profiler.timeline", site, || profiler.timeline());
            let report = tracer.span("profiler.with_cct", site, || {
                profiler.with_cct(|cct| {
                    tracer.span("analyzer.preview", site, || match &timeline {
                        Some(timeline) => self.analyzer.preview_with_timeline(cct, timeline),
                        None => self.analyzer.preview(cct),
                    })
                })
            });
            black_box(report);
        });
        start.elapsed()
    }

    /// Exports the live timeline as a Chrome trace without finishing the
    /// run (the L4 rung of workloads whose own rung records none).
    /// Returns the trace's size in bytes, 0 without a timeline.
    pub fn live_chrome_trace(&self, tracer: &Tracer) -> usize {
        let Some(profiler) = &self.profiler else {
            return 0;
        };
        profiler.flush();
        let Some(timeline) = profiler.timeline() else {
            return 0;
        };
        profiler.with_cct(|cct| {
            tracer.span("timeline.chrome", self.site, || {
                timeline.to_chrome_trace(Some(cct)).len()
            })
        })
    }

    /// Finishes the run and walks everything the user looks at:
    /// `Profiler::finish`; `ProfileStore` save then load; the analyzer
    /// report (with the timeline when one was recorded); top-down and
    /// bottom-up flame graphs; the Chrome trace when a timeline was
    /// recorded; and `ProfileDiff::compare_mapped` against `previous`.
    ///
    /// # Errors
    ///
    /// Propagates store and GPU failures.
    ///
    /// # Panics
    ///
    /// Panics on a rung without a profile.
    pub fn finish(
        self,
        store: &ProfileStore,
        previous: Option<&ProfileDb>,
        tracer: &Tracer,
    ) -> Result<Finished, Box<dyn Error>> {
        let site = self.site;
        let profiler = self.profiler.expect("finish needs a profiled rung");
        let end = device_totals(&self.bed)?;
        let truth = Truth {
            kernels: end.kernels - self.start.kernels,
            gpu_busy_ns: end.gpu_busy_ns - self.start.gpu_busy_ns,
        };
        let stats = profiler.stats();
        let monitor = self.monitor.as_ref().map(|m| m.stats()).unwrap_or_default();
        let unwind_steps = self.bed.env().unwinder().steps_taken();
        let meta = ProfileMeta {
            workload: self.model.name().into(),
            framework: self.engine.tag().into(),
            platform: self.model.devices[0].platform_tag(),
            iterations: self.iterations,
            ..Default::default()
        };

        let start = Instant::now();
        let saved = tracer.span("profiler.finish", site, || profiler.finish(meta));
        let id = tracer.span("analyzer.store_save", site, || store.save(&saved))?;
        let loaded = tracer.span("analyzer.store_load", site, || store.load(&id))?;
        let timeline = loaded.timeline().map(TimelineSnapshot::from_stored);
        let report = tracer.span("analyzer.analyze", site, || match &timeline {
            Some(timeline) => self.analyzer.analyze_with_timeline(&loaded, timeline),
            None => self.analyzer.analyze(&loaded),
        });
        tracer.span("flamegraph.render", site, || {
            let options = SvgOptions::default();
            let top = FlameGraph::top_down(loaded.cct(), MetricKind::GpuTime);
            black_box(top.to_svg(&options));
            let bottom = FlameGraph::bottom_up(loaded.cct(), MetricKind::GpuTime);
            black_box(bottom.to_svg(&options));
        });
        let chrome_bytes = timeline.as_ref().map_or(0, |timeline| {
            tracer.span("timeline.chrome", site, || {
                timeline.to_chrome_trace(Some(loaded.cct())).len()
            })
        });
        if let Some(previous) = previous {
            tracer.span("analyzer.diff", site, || {
                black_box(ProfileDiff::compare_mapped(
                    previous,
                    &loaded,
                    MetricKind::GpuTime,
                ));
            });
        }
        let insight = start.elapsed();

        let file_bytes = stored_size(store, &id)?;
        Ok(Finished {
            insight,
            saved,
            loaded,
            report,
            file_bytes,
            chrome_bytes,
            stats,
            monitor,
            truth,
            unwind_steps,
            sampling: self.sampling,
        })
    }
}

fn engine_core(bed: &TestBed, engine: Engine) -> Arc<FrameworkCore> {
    match engine {
        Engine::Eager => Arc::clone(bed.eager().core()),
        Engine::Jit => Arc::clone(bed.jit().core()),
    }
}

/// Kernels launched and busy time accumulated over every device.
fn device_totals(bed: &TestBed) -> Result<Truth, FrameworkError> {
    let gpu = bed.gpu();
    let mut totals = Truth::default();
    for d in 0..gpu.device_count() {
        let device = DeviceId(d as u32);
        totals.kernels += gpu.kernel_count(device)?;
        totals.gpu_busy_ns += gpu.device_busy_time(device)?.as_nanos();
    }
    Ok(totals)
}

/// Size of the stored file of run `id`.
fn stored_size(store: &ProfileStore, id: &str) -> std::io::Result<u64> {
    for entry in std::fs::read_dir(store.dir())? {
        let path = entry?.path();
        if path.file_stem().and_then(|s| s.to_str()) == Some(id) {
            return Ok(std::fs::metadata(path)?.len());
        }
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::NotFound,
        format!("stored run {id} has no file"),
    ))
}
