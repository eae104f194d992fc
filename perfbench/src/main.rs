//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <eager-coarse|jit-fine|live-analysis> --seed <n> \
//!     --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds` seconds (at least three
//! episodes) and prints, one per line, the resolved configuration, the
//! sample counts, every metric by name with its unit, and finally one
//! JSON object: `correct`, `attempted` and `failed` events, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The traced run also writes its spans to
//! `perfbench/out/spans-<workload>-seed<n>.json`.
//!
//! End-to-end metrics (`--trace 0`), all lower is better. Absolute
//! times are host wall times scaled to a reference host speed by a
//! calibration kernel timed between pairs (see [`perfbench::calibrate`]);
//! the unscaled host times are printed on their own line.
//!
//! * `overhead_x` — profiled iteration time over unprofiled, paired in
//!   one process; median per model, geomean over models (Fig. 6a/b);
//! * `step_ms` — one profiled iteration of every model, summed medians;
//! * `setup_s` — test-bed build, monitor and profiler attach, JIT trace
//!   and compile, and warm-up, per episode; median over episodes;
//! * `insight_ms` — `Profiler::finish` through store save and load,
//!   analysis, both flame graphs, the Chrome trace (with a timeline) and
//!   the diff against the model's previous stored run, summed over
//!   models; median over episodes;
//! * `preview_p50_ms`, `preview_p90_ms` — one live-view refresh
//!   (`flush` → `timeline()` → `with_cct` → preview);
//! * `profile_peak_bytes`, `profile_file_bytes` — Fig. 6c/d peak
//!   profile memory and stored profile size, summed over models.
//!
//! `events_failed_frac` — orphaned, dropped and poisoned events plus
//! failed correctness checks over events attempted — is printed as a
//! line and carried by the result's `failed` / `attempted` fields.
//! Any failure makes the command exit with code 1.
//!
//! The command refuses to run when an environment variable that changes
//! the profiler's defaults is set, so every result measures the shipped
//! defaults.

use std::path::PathBuf;
use std::process::ExitCode;

use deepcontext_profiler::{
    default_directory_map, default_ingestion_mode, default_ingestion_shards, default_launch_batch,
    IngestionMode,
};
use perfbench::run::{self, Metric, Outcome, Settings};
use perfbench::workloads::{WorkloadSpec, NAMES};

/// Environment variables that change `ProfilerConfig` defaults or inject
/// faults.
const PINNED_ENV: [&str; 9] = [
    "DEEPCONTEXT_TEST_SHARDS",
    "DEEPCONTEXT_INGESTION_MODE",
    "DEEPCONTEXT_LAUNCH_BATCH",
    "DEEPCONTEXT_DIRECTORY_MAP",
    "DEEPCONTEXT_TIMELINE",
    "DEEPCONTEXT_TELEMETRY",
    "DEEPCONTEXT_JOURNAL",
    "DEEPCONTEXT_FAILPOINTS",
    "DEEPCONTEXT_FAILPOINT_SEED",
];

const USAGE: &str = "usage: perfbench --workload <eager-coarse|jit-fine|live-analysis> \
                     --seed <n> --seconds <n> --trace <0|1> [--out <dir>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            NAMES.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn json_metrics(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = PINNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "refusing to run: {var} is set; unset every DEEPCONTEXT_* configuration \
             variable so the benchmark measures the shipped defaults"
        );
        return ExitCode::from(2);
    }
    let mode = default_ingestion_mode();
    if mode != IngestionMode::Sync {
        eprintln!("refusing to run: ingestion resolved to {mode:?}, the benchmark measures sync");
        return ExitCode::from(2);
    }
    let spec = WorkloadSpec::by_name(&args.workload).expect("name validated by parse_args");
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::from(1);
    }
    let store_dir = args
        .out
        .join(format!("store-{}-{}", spec.name, std::process::id()));
    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let result = run::run(&spec, &settings, &store_dir);
    let _ = std::fs::remove_dir_all(&store_dir);
    let outcome: Outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark run failed: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(spans) = &outcome.spans_json {
        let path = args
            .out
            .join(format!("spans-{}-seed{}.json", spec.name, args.seed));
        if let Err(e) = std::fs::write(&path, spans) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("spans written to {}", path.display());
    }

    println!(
        "config workload={} seed={} seconds={} trace={} episodes={} ingestion_mode={mode:?} \
         shards={} launch_batch={} directory_map={:?} available_parallelism={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.episodes,
        default_ingestion_shards(),
        default_launch_batch(),
        default_directory_map(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for failure in &outcome.failures {
        eprintln!("correctness check failed: {failure}");
    }
    let reported = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let correct = outcome.failed == 0 && reported.iter().all(|m| m.value.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        json_metrics(reported)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
