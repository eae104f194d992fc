//! End-to-end PC-sampling oracle: the profile the pipelines build from
//! aggregated PC-sampling records is bit for bit the profile of the
//! per-sample reference loop — the paper's §4.2 step applied literally,
//! one instruction child insertion and two root-ward attributions per
//! sample.
//!
//! A tee sink hands every event, in one global order, both to a real
//! pipeline (synchronous sharded sink or asynchronous worker pool) and
//! to a reference tree that attributes PC samples one at a time. The
//! pipeline runs one ingestion shard, no producer batching and no
//! snapshot cache, so its finished tree is an exact copy of the one
//! shard and node ids line up with the reference; every node must then
//! agree on frame key, parent, child order and every metric's count and
//! bit patterns.

use std::collections::HashMap;
use std::sync::Arc;

use deepcontext::core::MetricStat;
use deepcontext::gpu::{Activity, ActivityKind, ApiKind, CorrelationId, PcSample};
use deepcontext::monitor::EventOrigin;
use deepcontext::pipeline::{
    attribute_activity_metrics, AsyncSink, IngestionMode, PipelineConfig, SinkCounters,
};
use deepcontext::prelude::*;
use deepcontext::timeline::TimelineSnapshot;
use parking_lot::Mutex;

/// The attribution every sink performed before records were aggregated:
/// one child insertion and two propagating attributions per sample.
fn reference_pc_samples(tree: &mut CallingContextTree, node: NodeId, samples: &[PcSample]) {
    for sample in samples {
        let child = tree.insert_child(node, &Frame::instruction(sample.pc));
        tree.attribute(child, MetricKind::InstructionSamples, 1.0);
        tree.attribute(child, MetricKind::Stall(sample.stall), 1.0);
    }
}

/// One tree mirroring a single-shard [`ShardedSink`], with PC samples
/// attributed by [`reference_pc_samples`].
struct Reference {
    tree: CallingContextTree,
    corr: HashMap<u64, NodeId>,
}

impl Reference {
    fn new(interner: Arc<Interner>) -> Self {
        Reference {
            tree: CallingContextTree::with_interner(interner),
            corr: HashMap::new(),
        }
    }

    fn launch(&mut self, origin: &EventOrigin, path: &CallPath, api: ApiKind) {
        let node = self.tree.insert_call_path(path);
        if api == ApiKind::LaunchKernel {
            self.tree.attribute(node, MetricKind::KernelLaunches, 1.0);
        }
        if let Some(corr) = origin.correlation {
            self.corr.insert(corr.0, node);
        }
    }

    fn activity(&mut self, activity: &Activity) {
        let node = match self.corr.get(&activity.correlation_id.0) {
            Some(&node) => node,
            None => {
                let interner = self.tree.interner();
                let frame = Frame::gpu_kernel("<unattributed>", "<none>", 0, &interner);
                self.tree.insert_path(std::slice::from_ref(&frame))
            }
        };
        match &activity.kind {
            ActivityKind::PcSampling { samples, .. } => {
                reference_pc_samples(&mut self.tree, node, samples)
            }
            _ => {
                attribute_activity_metrics(&mut self.tree, node, activity);
            }
        }
    }

    fn cpu_sample(&mut self, path: &CallPath, metric: MetricKind, value: f64) {
        let node = self.tree.insert_call_path(path);
        self.tree.attribute(node, metric, value);
    }
}

/// Delivers each event to the reference and then to the real pipeline
/// under one lock, so both see the same order.
struct Tee {
    reference: Mutex<Reference>,
    real: Arc<dyn EventSink>,
}

impl EventSink for Tee {
    fn gpu_launch(&self, origin: &EventOrigin, path: &CallPath, api: ApiKind) {
        let mut reference = self.reference.lock();
        reference.launch(origin, path, api);
        self.real.gpu_launch(origin, path, api);
    }

    fn activity_batch(&self, batch: &[Activity]) {
        let mut reference = self.reference.lock();
        for activity in batch {
            reference.activity(activity);
        }
        self.real.activity_batch(batch);
    }

    fn epoch_complete(&self) {
        let _order = self.reference.lock();
        self.real.epoch_complete();
    }

    fn cpu_sample(&self, origin: &EventOrigin, path: &CallPath, metric: MetricKind, value: f64) {
        let mut reference = self.reference.lock();
        reference.cpu_sample(path, metric, value);
        self.real.cpu_sample(origin, path, metric, value);
    }

    fn snapshot(&self) -> CallingContextTree {
        self.real.snapshot()
    }

    fn finish_snapshot(&self) -> CallingContextTree {
        self.real.finish_snapshot()
    }

    fn timeline_snapshot(&self) -> Option<TimelineSnapshot> {
        self.real.timeline_snapshot()
    }

    fn counters(&self) -> SinkCounters {
        self.real.counters()
    }

    fn approx_bytes(&self) -> usize {
        self.real.approx_bytes()
    }
}

/// A single-shard pipeline of `mode`, without producer batching or
/// snapshot cache.
fn pipeline(interner: Arc<Interner>, mode: IngestionMode) -> Arc<dyn EventSink> {
    let sharded = ShardedSink::with_timeline(interner, 1, false, &TimelineConfig::default());
    match mode {
        IngestionMode::Sync => sharded,
        IngestionMode::Async => AsyncSink::new(
            sharded,
            PipelineConfig {
                launch_batch: 1,
                ..PipelineConfig::default()
            },
        ),
    }
}

/// Count and the bit patterns of sum, min, max, mean and M2.
fn stat_bits(stat: &MetricStat) -> (u64, [u64; 5]) {
    (
        stat.count,
        [stat.sum, stat.min, stat.max, stat.mean(), stat.m2()].map(f64::to_bits),
    )
}

/// Asserts `got` and `want` are the same tree node for node: node ids
/// in DFS order, frame key, parent, child order and every metric's count
/// and bits.
fn assert_bit_identical(got: &CallingContextTree, want: &CallingContextTree, label: &str) {
    assert_eq!(got.node_count(), want.node_count(), "{label}: node count");
    let ids: Vec<NodeId> = want.dfs().collect();
    assert_eq!(got.dfs().collect::<Vec<_>>(), ids, "{label}: node ids");
    for id in ids {
        let (g, w) = (got.node(id), want.node(id));
        let at = format!("{label}: {id} ({:?})", w.frame());
        assert_eq!(g.frame().key(), w.frame().key(), "{at}: frame");
        assert_eq!(g.parent(), w.parent(), "{at}: parent");
        assert_eq!(g.children(), w.children(), "{at}: children");
        let bits = |n: &deepcontext::core::CctNode| -> Vec<_> {
            n.metrics().iter().map(|(k, s)| (k, stat_bits(s))).collect()
        };
        assert_eq!(bits(g), bits(w), "{at}: metrics");
    }
}

fn tee(interner: Arc<Interner>, mode: IngestionMode) -> Arc<Tee> {
    Arc::new(Tee {
        reference: Mutex::new(Reference::new(Arc::clone(&interner))),
        real: pipeline(interner, mode),
    })
}

/// Profiles two iterations of `workload` through a tee and checks the
/// finished profile against the reference tree.
fn check_workload(workload: &dyn Workload, jit: bool, mode: IngestionMode) {
    let (bed, engine) = if jit {
        (TestBed::new(DeviceSpec::mi250()), "jit/mi250")
    } else {
        (TestBed::new(DeviceSpec::a100_sxm()), "eager/a100")
    };
    let label = format!("{} {engine} {mode:?}", workload.name());
    let monitor = DlMonitor::init(bed.env(), Interner::new());
    let core = if jit {
        Arc::clone(bed.jit().core())
    } else {
        Arc::clone(bed.eager().core())
    };
    monitor.attach_framework(core.callbacks());
    monitor.attach_gpu(bed.gpu());
    let sink = tee(monitor.interner(), mode);
    let config = ProfilerConfig {
        instruction_sampling: Some(SamplingConfig::default()),
        ..ProfilerConfig::deepcontext_native()
    };
    let profiler = Profiler::attach_with_sink(
        config,
        bed.env(),
        &monitor,
        bed.gpu(),
        Arc::clone(&sink) as Arc<dyn EventSink>,
    );

    let opts = WorkloadOptions::default();
    let run = if jit {
        bed.run_jit(workload, &opts, 2)
    } else {
        bed.run_eager(workload, &opts, 2)
    };
    run.unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
    profiler.flush();
    let stats = profiler.stats();
    let db = profiler.finish(ProfileMeta {
        workload: workload.name().into(),
        ..Default::default()
    });

    assert!(stats.instruction_samples > 0, "{label}: PC sampling ran");
    assert_eq!(stats.orphans, 0, "{label}: every record resolved");
    let reference = sink.reference.lock();
    assert_eq!(
        db.cct().total(MetricKind::InstructionSamples),
        reference.tree.total(MetricKind::InstructionSamples),
        "{label}: sample totals"
    );
    assert_bit_identical(db.cct(), &reference.tree, &label);
}

fn check_models(mode: IngestionMode) {
    let models: [&dyn Workload; 3] = [&Llama3, &Gemma, &NanoGpt];
    for workload in models {
        for jit in [false, true] {
            check_workload(workload, jit, mode);
        }
    }
}

#[test]
fn sync_pipeline_matches_the_per_sample_reference() {
    check_models(IngestionMode::Sync);
}

#[test]
fn async_pipeline_matches_the_per_sample_reference() {
    check_models(IngestionMode::Async);
}

// --- Unit cases, driven by hand through the synchronous pipeline. ---

const CORR: u64 = 7;

fn kernel_path(interner: &Arc<Interner>) -> CallPath {
    [
        Frame::python("train.py", 12, "step", interner),
        Frame::operator("aten::mm", interner),
        Frame::gpu_kernel("sgemm", "libcublas.so", 0x4000, interner),
    ]
    .into_iter()
    .collect()
}

fn launch(sink: &Tee, correlation: u64) {
    let interner = sink.reference.lock().tree.interner();
    let origin = EventOrigin {
        tid: Some(1),
        stream: None,
        correlation: Some(CorrelationId(correlation)),
    };
    sink.gpu_launch(&origin, &kernel_path(&interner), ApiKind::LaunchKernel);
}

fn pc_record(correlation: u64, samples: &[(u64, StallReason)]) -> Activity {
    Activity {
        correlation_id: CorrelationId(correlation),
        device: DeviceId(0),
        kind: ActivityKind::PcSampling {
            name: "sgemm".into(),
            samples: samples
                .iter()
                .map(|&(pc, stall)| PcSample { pc, stall })
                .collect(),
        },
    }
}

/// The finished tree, after checking it against the reference.
fn finish(sink: &Tee, label: &str) -> CallingContextTree {
    sink.epoch_complete();
    let tree = sink.finish_snapshot();
    assert_bit_identical(&tree, &sink.reference.lock().tree, label);
    tree
}

#[test]
fn an_empty_record_adds_no_child_and_no_metric_kind() {
    let sink = tee(Interner::new(), IngestionMode::Sync);
    launch(&sink, CORR);
    let before = sink.snapshot();
    sink.activity_batch(&[pc_record(CORR, &[])]);
    let tree = finish(&sink, "empty record");
    assert_eq!(tree.node_count(), before.node_count());
    assert_eq!(sink.counters().instruction_samples, 0);
    for id in tree.dfs() {
        let kinds: Vec<_> = tree.node(id).metrics().iter().map(|(k, _)| k).collect();
        assert_eq!(kinds, vec![MetricKind::KernelLaunches], "{id}");
    }
}

#[test]
fn an_orphaned_record_lands_under_unattributed() {
    use StallReason::*;
    let sink = tee(Interner::new(), IngestionMode::Sync);
    launch(&sink, CORR);
    let samples = [(0x10, MathDependency), (0x20, None), (0x10, MathDependency)];
    sink.activity_batch(&[pc_record(CORR + 1, &samples)]);
    let tree = finish(&sink, "orphaned record");
    assert_eq!(sink.counters().orphans, 1);
    let interner = tree.interner();
    let orphan = tree
        .node(tree.root())
        .children()
        .iter()
        .copied()
        .find(|&c| tree.node(c).frame().short_label(&interner) == "<unattributed>")
        .expect("catch-all context");
    let pcs: Vec<_> = tree
        .node(orphan)
        .children()
        .iter()
        .map(|&c| tree.node(c).frame().key())
        .collect();
    assert_eq!(
        pcs,
        vec![
            Frame::instruction(0x10).key(),
            Frame::instruction(0x20).key()
        ]
    );
    assert_eq!(tree.total(MetricKind::InstructionSamples), 3.0);
    assert_eq!(tree.total(MetricKind::Stall(MathDependency)), 2.0);
}

#[test]
fn two_records_for_one_correlation_add_up() {
    use StallReason::*;
    let sink = tee(Interner::new(), IngestionMode::Sync);
    launch(&sink, CORR);
    let first = [(0x10, MemoryDependency), (0x30, None), (0x10, None)];
    let second = [
        (0x30, None),
        (0x20, ConstantMemory),
        (0x10, MemoryDependency),
    ];
    sink.activity_batch(&[pc_record(CORR, &first)]);
    sink.activity_batch(&[pc_record(CORR, &second)]);
    let tree = finish(&sink, "two records");
    assert_eq!(sink.counters().instruction_samples, 6);
    assert_eq!(sink.counters().orphans, 0);
    assert_eq!(tree.total(MetricKind::InstructionSamples), 6.0);
    assert_eq!(tree.total(MetricKind::Stall(None)), 3.0);
    assert_eq!(tree.total(MetricKind::Stall(MemoryDependency)), 2.0);
    let pc10 = tree
        .dfs()
        .find(|&id| tree.node(id).frame().key() == Frame::instruction(0x10).key())
        .expect("pc 0x10");
    let stat = tree.metric(pc10, MetricKind::InstructionSamples).unwrap();
    assert_eq!((stat.count, stat.sum), (3, 3.0));
}
