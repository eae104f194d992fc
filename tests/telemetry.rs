//! End-to-end self-telemetry tests: the profiler watching its own
//! pipeline through the full stack. A multi-stream run with telemetry
//! enabled must produce a populated [`HealthReport`], well-formed
//! Prometheus text exposition, a Chrome trace carrying the reserved
//! self-timeline tracks *alongside* the workload tracks, and
//! `telemetry.*` metadata embeds that trend across a profile store.

use std::collections::BTreeMap;
use std::sync::Arc;

use deepcontext::pipeline::{default_launch_batch, IngestionMode};
use deepcontext::prelude::*;
use deepcontext::profiler::TimelineConfig;
use deepcontext_telemetry::names;

const ITERATIONS: u32 = 3;

struct Rig {
    bed: TestBed,
    monitor: Arc<DlMonitor>,
}

fn rig() -> Rig {
    let bed = TestBed::with_devices(vec![DeviceSpec::a100_sxm(), DeviceSpec::a100_sxm()]);
    let monitor = DlMonitor::init(bed.env(), Interner::new());
    monitor.attach_framework(bed.eager().core().callbacks());
    monitor.attach_gpu(bed.gpu());
    Rig { bed, monitor }
}

/// A profiler with self-telemetry *and* the timeline explicitly on —
/// independent of the `DEEPCONTEXT_TELEMETRY` matrix, so these tests
/// exercise the enabled path even in the default CI lanes.
fn telemetry_profiler(rig: &Rig, mode: IngestionMode) -> Profiler {
    Profiler::attach(
        ProfilerConfig {
            timeline: TimelineConfig::enabled(),
            ingestion_mode: mode,
            telemetry: TelemetryConfig::enabled(),
            ..ProfilerConfig::deepcontext()
        },
        rig.bed.env(),
        &rig.monitor,
        rig.bed.gpu(),
    )
}

fn run_multi_stream(rig: &Rig, profiler: &Profiler) {
    rig.bed
        .run_eager(
            &MultiStream::default(),
            &WorkloadOptions::default(),
            ITERATIONS,
        )
        .expect("workload run");
    profiler.flush();
    // Force a cached-snapshot fold so `fold_latency` carries signal.
    profiler.with_cct(|_| ());
}

/// Producer flushes exist only with thread-local batching on
/// (`launch_batch > 1`, which `DEEPCONTEXT_LAUNCH_BATCH` sets), and the
/// flush-latency histogram times exactly those flushes: it is populated
/// if and only if the run's own stats show the profiler batched.
fn assert_flushes_timed_iff_batched(profiler: &Profiler, report: &HealthReport) {
    let batched = profiler.stats().producer_flushes > 0;
    assert_eq!(
        batched,
        default_launch_batch() > 1,
        "producers batch exactly when launch_batch > 1"
    );
    assert_eq!(
        report.flush_latency.count > 0,
        batched,
        "producer flushes timed iff batched: {:?}",
        report.flush_latency
    );
}

#[test]
fn async_run_produces_a_populated_health_report() {
    let rig = rig();
    let profiler = telemetry_profiler(&rig, IngestionMode::Async);
    run_multi_stream(&rig, &profiler);

    let report = profiler.health_report().expect("telemetry enabled");
    assert!(!report.is_empty(), "report carries signal: {report:?}");
    assert!(report.window_ns > 0);
    assert!(report.events_enqueued > 0, "events flowed through queues");
    assert_eq!(report.events_dropped, 0, "Block policy loses nothing");
    assert_eq!(report.drop_rate, 0.0);
    assert!(report.enqueue_rate() > 0.0);

    // The acceptance bar: a MultiStream async run populates the
    // queue-depth histogram, and the flush-latency histogram exactly
    // when producers batched.
    assert!(report.queue_depth.count > 0, "queue depths observed");
    assert_flushes_timed_iff_batched(&profiler, &report);
    assert!(report.fold_latency.count > 0, "snapshot folds timed");
    assert!(report.flush_latency.p99 >= report.flush_latency.p50);

    // Queue capacity was registered and the high-water mark stayed
    // within it.
    assert!(report.queue_capacity > 0);
    assert!(report.max_queue_depth >= 1);
    assert!(report.queue_saturation > 0.0 && report.queue_saturation <= 1.0);

    // Workers accounted their time as busy or parked.
    assert!(report.worker_busy_ns > 0, "workers drained batches");
    assert!(report.worker_utilization > 0.0 && report.worker_utilization <= 1.0);
}

#[test]
fn sync_run_reports_flushes_and_folds_without_queue_series() {
    let rig = rig();
    let profiler = telemetry_profiler(&rig, IngestionMode::Sync);
    run_multi_stream(&rig, &profiler);

    let report = profiler.health_report().expect("telemetry enabled");
    assert!(!report.is_empty());
    assert_flushes_timed_iff_batched(&profiler, &report);
    assert!(report.fold_latency.count > 0);
    // No queues in sync mode: the queue series are absent, not zeroed.
    assert_eq!(report.queue_capacity, 0);
    assert_eq!(report.queue_depth.count, 0);
    assert_eq!(report.queue_saturation, 0.0);
    let exposition = profiler.telemetry_snapshot().unwrap().to_prometheus();
    assert!(!exposition.contains(names::QUEUE_DEPTH));

    // Lock-hold and occupancy instrumentation fired on the sync path.
    let snapshot = profiler.telemetry_snapshot().unwrap();
    assert!(snapshot.histogram_merged(names::SHARD_LOCK_HOLD_NS).count > 0);
    assert!(snapshot.gauge_max(names::INTERNER_BYTES) > 0);
    assert!(snapshot.gauge_max(names::TIMELINE_RING_BYTES) > 0);
}

#[test]
fn disabled_telemetry_yields_no_handles_and_no_embeds() {
    let rig = rig();
    let profiler = Profiler::attach(
        ProfilerConfig {
            timeline: TimelineConfig::enabled(),
            telemetry: TelemetryConfig::default(),
            ..ProfilerConfig::deepcontext()
        },
        rig.bed.env(),
        &rig.monitor,
        rig.bed.gpu(),
    );
    run_multi_stream(&rig, &profiler);
    assert!(profiler.telemetry().is_none());
    assert!(profiler.telemetry_snapshot().is_none());
    assert!(profiler.health_report().is_none());
    let db = profiler.finish(ProfileMeta::default());
    assert!(db
        .meta()
        .extra
        .iter()
        .all(|(k, _)| !k.starts_with("telemetry.")));
    // And no self tracks leak into the workload timeline.
    let timeline = db.timeline().expect("timeline enabled");
    assert!(timeline.intervals.iter().all(|iv| !iv.track.is_self()));
}

// ---------------------------------------------------------------------
// Prometheus text-exposition checker: a strict structural parse of the
// format — TYPE declarations, family grouping, label ordering, histogram
// bucket discipline — over the exposition a real run produces.
// ---------------------------------------------------------------------

/// One parsed sample: (family, metric name, sorted labels, value).
struct Sample {
    family: String,
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

fn parse_exposition(text: &str) -> (BTreeMap<String, String>, Vec<Sample>) {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let family = parts.next().expect("TYPE family").to_string();
            let kind = parts.next().expect("TYPE kind").to_string();
            assert!(parts.next().is_none(), "trailing TYPE tokens: {line}");
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                "unknown type {kind}"
            );
            assert!(
                types.insert(family, kind).is_none(),
                "duplicate TYPE declaration: {line}"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment: {line}");
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value: {line}"));
        let (name, labels) = match series.split_once('{') {
            None => (series.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').expect("closing brace");
                let mut labels = Vec::new();
                for pair in body.split(',') {
                    let (k, v) = pair.split_once('=').expect("label k=v");
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .expect("quoted label value");
                    assert!(
                        !v.contains('"') && !v.contains('\n'),
                        "unescaped label value: {line}"
                    );
                    assert!(
                        k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                        "bad label name {k}"
                    );
                    labels.push((k.to_string(), v.to_string()));
                }
                (name.to_string(), labels)
            }
        };
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name {name}"
        );
        // Resolve the family: exact for counters/gauges, suffix-stripped
        // for histogram series.
        let family = if types.contains_key(&name) {
            name.clone()
        } else {
            let stripped = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or_else(|| panic!("sample {name} has no TYPE declaration"));
            assert_eq!(
                types.get(stripped).map(String::as_str),
                Some("histogram"),
                "suffix series {name} must belong to a histogram family"
            );
            stripped.to_string()
        };
        samples.push(Sample {
            family,
            name,
            labels,
            value,
        });
    }
    (types, samples)
}

#[test]
fn prometheus_exposition_is_well_formed() {
    let rig = rig();
    let profiler = telemetry_profiler(&rig, IngestionMode::Async);
    run_multi_stream(&rig, &profiler);
    let snapshot = profiler.telemetry_snapshot().expect("telemetry enabled");
    let text = snapshot.to_prometheus();

    let (types, samples) = parse_exposition(&text);
    assert_eq!(
        types.get(names::EVENTS_ENQUEUED).map(String::as_str),
        Some("counter")
    );
    assert_eq!(
        types.get(names::MAX_QUEUE_DEPTH).map(String::as_str),
        Some("gauge")
    );
    assert_eq!(
        types.get(names::QUEUE_DEPTH).map(String::as_str),
        Some("histogram")
    );
    assert_eq!(
        types.get(names::FLUSH_LATENCY_NS).map(String::as_str),
        Some("histogram")
    );

    // Label keys are sorted within every series (deterministic output)
    // with the synthetic `le` appended last per Prometheus convention,
    // and re-exporting the same snapshot is byte-identical.
    for s in &samples {
        let mut keys: Vec<&String> = s.labels.iter().map(|(k, _)| k).collect();
        if keys.last().is_some_and(|k| *k == "le") {
            keys.pop();
        }
        assert!(
            !keys.iter().any(|k| *k == "le"),
            "le must be the last label in {}",
            s.name
        );
        let sorted = {
            let mut c = keys.clone();
            c.sort();
            c
        };
        assert_eq!(keys, sorted, "labels out of order in {}", s.name);
        let mut deduped = keys.clone();
        deduped.dedup();
        assert_eq!(deduped.len(), keys.len(), "duplicate label in {}", s.name);
    }
    assert_eq!(text, snapshot.to_prometheus(), "exporter is deterministic");

    // Histogram discipline per (family, labels-minus-le): cumulative
    // non-decreasing buckets, ascending bounds, +Inf == _count, and the
    // queue-depth family carries per-shard series.
    type SeriesKey = (String, Vec<(String, String)>);
    let mut buckets: BTreeMap<SeriesKey, Vec<(f64, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<SeriesKey, f64> = BTreeMap::new();
    for s in &samples {
        let base: Vec<(String, String)> = s
            .labels
            .iter()
            .filter(|(k, _)| k != "le")
            .cloned()
            .collect();
        if s.name.ends_with("_bucket") {
            let le = s
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| {
                    if v == "+Inf" {
                        f64::INFINITY
                    } else {
                        v.parse().expect("numeric le")
                    }
                })
                .expect("bucket has le");
            buckets
                .entry((s.family.clone(), base))
                .or_default()
                .push((le, s.value));
        } else if s.name.ends_with("_count")
            && types.get(&s.family).map(String::as_str) == Some("histogram")
        {
            counts.insert((s.family.clone(), base), s.value);
        }
    }
    assert!(!buckets.is_empty(), "run produced histogram series");
    let mut queue_depth_series = 0usize;
    for (key, series) in &buckets {
        let mut last_le = f64::NEG_INFINITY;
        let mut last_cum = 0.0;
        for &(le, cum) in series {
            assert!(le > last_le, "{}: le not ascending", key.0);
            assert!(cum >= last_cum, "{}: bucket counts not cumulative", key.0);
            last_le = le;
            last_cum = cum;
        }
        assert_eq!(last_le, f64::INFINITY, "{}: missing +Inf bucket", key.0);
        assert_eq!(
            Some(&last_cum),
            counts.get(key),
            "{}: +Inf bucket must equal _count",
            key.0
        );
        if key.0 == names::QUEUE_DEPTH {
            queue_depth_series += 1;
            assert!(
                key.1.iter().any(|(k, _)| k == "shard"),
                "queue depth series carries its shard label"
            );
        }
    }
    assert!(queue_depth_series > 0, "per-shard queue depth exposed");
}

#[test]
fn chrome_trace_renders_self_tracks_alongside_workload_tracks() {
    let rig = rig();
    let profiler = telemetry_profiler(&rig, IngestionMode::Async);
    run_multi_stream(&rig, &profiler);

    let timeline = profiler.timeline().expect("timeline enabled");
    let self_tracks: Vec<_> = timeline
        .tracks()
        .iter()
        .filter(|t| t.key().is_self())
        .collect();
    let workload_tracks = timeline.tracks().len() - self_tracks.len();
    assert!(!self_tracks.is_empty(), "reserved self tracks recorded");
    assert!(workload_tracks > 0, "workload tracks still present");
    // Self intervals are well-formed: reserved device, no workload
    // context, non-inverted time.
    for track in &self_tracks {
        for iv in track.intervals() {
            assert!(iv.track.is_self());
            assert!(iv.context.is_none());
            assert!(iv.end >= iv.start);
        }
    }

    // The self device never leaks into the per-device latency stats
    // (its intervals sit on the telemetry clock, not the workload
    // clock), so the analyzer's latency rules cannot flag the
    // profiler's own lanes as an underutilized GPU.
    assert!(timeline
        .stats()
        .devices
        .iter()
        .all(|d| d.device != deepcontext::core::TrackKey::SELF_DEVICE));
    let analyzer = Analyzer::with_default_rules();
    let report = profiler.with_cct(|cct| analyzer.preview_with_timeline(cct, &timeline));
    assert!(report
        .issues()
        .iter()
        .all(|i| !i.message.contains("4294967295")));

    let json = profiler.with_cct(|cct| timeline.to_chrome_trace(Some(cct)));
    // The reserved device renders as the profiler's own process, its
    // lanes named after the pipeline stages, next to the GPU processes.
    assert!(json.contains("\"name\":\"profiler (self)\""));
    assert!(json.contains("\"name\":\"GPU 0\""));
    assert!(json.contains("\"name\":\"snapshot fold\""));
    assert!(json.contains("\"name\":\"producer flush\"") || json.contains("\"name\":\"worker 0\""));
    assert!(json.contains("profiler worker batch") || json.contains("profiler producer flush"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

#[test]
fn finish_embeds_telemetry_metadata_that_trends_across_a_store() {
    let run = || {
        let rig = rig();
        let profiler = telemetry_profiler(&rig, IngestionMode::Async);
        run_multi_stream(&rig, &profiler);
        profiler.finish(ProfileMeta {
            workload: "multi-stream".into(),
            framework: "eager".into(),
            platform: "nvidia-a100".into(),
            ..Default::default()
        })
    };
    let db = run();
    let extra: BTreeMap<&str, &str> = db
        .meta()
        .extra
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    for key in [
        "telemetry.window_ns",
        "telemetry.enqueued_events",
        "telemetry.dropped_events",
        "telemetry.drop_rate",
        "telemetry.max_queue_depth",
        "telemetry.queue_saturation",
        "telemetry.worker_utilization",
        "telemetry.flush_p99_ns",
        "telemetry.fold_p99_ns",
    ] {
        let value = extra.get(key).unwrap_or_else(|| panic!("missing {key}"));
        assert!(value.parse::<f64>().is_ok(), "{key}={value} not numeric");
    }
    assert!(extra["telemetry.enqueued_events"].parse::<u64>().unwrap() > 0);

    // The embeds survive the store and feed cross-run overhead trends.
    let dir =
        std::env::temp_dir().join(format!("deepcontext-telemetry-e2e-{}", std::process::id()));
    let store = ProfileStore::open(&dir).unwrap();
    store.save(&db).unwrap();
    store.save(&run()).unwrap();
    let filter = RunFilter::any().workload("multi-stream");
    let trend = store
        .meta_trend(&filter, "telemetry.enqueued_events")
        .unwrap();
    assert_eq!(trend.len(), 2);
    assert!(trend.iter().all(|p| p.total > 0.0));
    // Header-only loads see the embeds too.
    let runs = store.list_filtered(&filter).unwrap();
    assert!(runs.iter().all(|r| r
        .meta
        .extra
        .iter()
        .any(|(k, _)| k == "telemetry.flush_p99_ns")));
    std::fs::remove_dir_all(dir).unwrap();
}
