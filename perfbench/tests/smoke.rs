//! The benchmark's smoke test: every workload runs at minimal length and
//! reports every metric `BENCHMARK.json` names, with its unit; the
//! correctness gate passes a sound profile and fails one that lost a
//! single activity record.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use deepcontext_analyzer::ProfileStore;
use dl_models::DlrmSmall;
use perfbench::gate;
use perfbench::session::{Rung, Session};
use perfbench::trace::Tracer;
use perfbench::workloads::{Engine, Model};
use sim_gpu::{DeviceId, DeviceSpec, KernelDesc, LaunchConfig, StreamId};
use sim_runtime::ThreadRegistry;

/// A minimal JSON reader, enough for `BENCHMARK.json` and the result
/// line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = Json::value(bytes, &mut pos);
        Json::ws(bytes, &mut pos);
        assert_eq!(pos, bytes.len(), "trailing input after JSON value");
        value
    }

    fn ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Json {
        Json::ws(b, pos);
        match b[*pos] {
            b'{' => {
                *pos += 1;
                let mut fields = Vec::new();
                loop {
                    Json::ws(b, pos);
                    if b[*pos] == b'}' {
                        *pos += 1;
                        return Json::Obj(fields);
                    }
                    let Json::Str(key) = Json::value(b, pos) else {
                        panic!("object key must be a string");
                    };
                    Json::ws(b, pos);
                    assert_eq!(b[*pos], b':');
                    *pos += 1;
                    fields.push((key, Json::value(b, pos)));
                    Json::ws(b, pos);
                    if b[*pos] == b',' {
                        *pos += 1;
                    }
                }
            }
            b'[' => {
                *pos += 1;
                let mut items = Vec::new();
                loop {
                    Json::ws(b, pos);
                    if b[*pos] == b']' {
                        *pos += 1;
                        return Json::Arr(items);
                    }
                    items.push(Json::value(b, pos));
                    Json::ws(b, pos);
                    if b[*pos] == b',' {
                        *pos += 1;
                    }
                }
            }
            b'"' => {
                *pos += 1;
                let start = *pos;
                while b[*pos] != b'"' {
                    assert_ne!(b[*pos], b'\\', "escapes are not expected here");
                    *pos += 1;
                }
                *pos += 1;
                Json::Str(String::from_utf8(b[start..*pos - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                for (word, value) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if b[*pos..].starts_with(word.as_bytes()) {
                        *pos += word.len();
                        return value;
                    }
                }
                panic!("bad literal at {pos}");
            }
            _ => {
                let start = *pos;
                while *pos < b.len() && b"+-.eE0123456789".contains(&b[*pos]) {
                    *pos += 1;
                }
                let text = std::str::from_utf8(&b[start..*pos]).expect("ascii");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key:?}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Json {
    let path = manifest_dir().join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Runs the benchmark binary; returns its exit status and stdout.
fn run_bench(args: &[&str], out: &Path) -> (bool, String) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    command.args(args).arg("--out").arg(out);
    // The benchmark refuses configuration overrides; run it clean even
    // under a CI matrix that sets them.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DEEPCONTEXT_") {
            command.env_remove(key);
        }
    }
    let output = command.output().expect("run the benchmark binary");
    (
        output.status.success(),
        String::from_utf8(output.stdout).expect("utf-8 stdout"),
    )
}

fn check_result_line(stdout: &str, wanted: &[(String, String)], what: &str) {
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last);
    assert_eq!(result.get("correct"), &Json::Bool(true), "{what}: {stdout}");
    assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0));
    assert_eq!(result.get("failed"), &Json::Num(0.0), "{what}");
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("{what}: metrics must be an object");
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = wanted.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, expected, "{what}: metric names");
    for (name, unit) in wanted {
        let m = result.get("metrics").get(name);
        assert_eq!(m.get("unit").str(), unit, "{what}: unit of {name}");
        assert!(
            matches!(m.get("value"), Json::Num(v) if v.is_finite()),
            "{what}: {name}"
        );
        assert!(
            stdout.contains(&format!("metric {name} ")),
            "{what}: {name} missing from the metric lines"
        );
    }
}

fn metric_list(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_owned(),
                m.get("unit").str().to_owned(),
            )
        })
        .collect()
}

#[test]
fn every_workload_reports_every_benchmark_metric() {
    let spec = benchmark_json();
    let end_to_end = metric_list(&spec, "end_to_end");
    let per_layer = metric_list(&spec, "per_layer");
    for workload in spec.get("workloads").items() {
        let name = workload.get("name").str();
        for (trace, wanted) in [("0", &end_to_end), ("1", &per_layer)] {
            let out = scratch(&format!("smoke-{name}-{trace}"));
            let (ok, stdout) = run_bench(
                &[
                    "--workload",
                    name,
                    "--seed",
                    "1",
                    "--seconds",
                    "0",
                    "--trace",
                    trace,
                ],
                &out,
            );
            let what = format!("{name} --trace {trace}");
            assert!(ok, "{what} failed:\n{stdout}");
            check_result_line(&stdout, wanted, &what);
            assert!(stdout.contains("available_parallelism="), "{what}");
            assert!(stdout.contains("seed=1"), "{what}");
        }
    }
}

#[test]
fn a_configuration_override_in_the_environment_is_refused() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "jit-fine", "--seed", "1", "--seconds", "0"])
        .arg("--trace")
        .arg("0")
        .env("DEEPCONTEXT_LAUNCH_BATCH", "1")
        .output()
        .expect("run the benchmark binary");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty(), "no result may be printed");
}

/// Profiles two DLRM-small iterations; with `steal`, one extra kernel's
/// activity record is taken from the runtime before the profiler sees it.
fn gated_dlrm(steal: bool, store: &ProfileStore) -> gate::Verdict {
    let model = Model {
        workload: Box::new(DlrmSmall),
        devices: vec![DeviceSpec::a100_sxm()],
    };
    let off = Tracer::new(false);
    let config = deepcontext_profiler::ProfilerConfig::deepcontext();
    let mut session =
        Session::open(&model, Engine::Eager, Rung::Profiled, config, 0, &off).expect("open");
    session.iterate(&off, "iteration").expect("iterate");
    if steal {
        let bed = session.bed();
        let _bind = ThreadRegistry::bind_current(bed.main_thread());
        let kernel = KernelDesc::new(
            "stolen_kernel",
            "libsmoke.so",
            0x40,
            LaunchConfig::new(4, 128),
        );
        bed.gpu()
            .launch_kernel(DeviceId(0), StreamId(0), Arc::new(kernel))
            .expect("launch");
        bed.gpu().synchronize(DeviceId(0)).expect("synchronize");
        let stolen = bed.gpu().flush_all();
        assert_eq!(stolen.len(), 1, "exactly one activity record is removed");
    }
    let run = session.finish(store, None, &off).expect("finish");
    gate::check("dlrm-small", &run)
}

#[test]
fn the_gate_fails_a_profile_missing_one_activity() {
    let store = ProfileStore::open(scratch("gate-store")).expect("store");
    let sound = gated_dlrm(false, &store);
    assert!(sound.attempted > 0);
    assert_eq!(sound.failed, 0, "{:?}", sound.failures);

    let broken = gated_dlrm(true, &store);
    assert!(
        broken.failed >= 1,
        "the gate passed a profile missing an activity"
    );
    assert!(
        broken.failures.iter().any(|f| f.contains("GpuTime")),
        "{:?}",
        broken.failures
    );
}
