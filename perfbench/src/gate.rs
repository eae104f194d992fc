//! The correctness gate every profiled session must pass.
//!
//! The simulator knows the ground truth, so the finished profile is
//! checked against it exactly:
//!
//! * the tree's `KernelLaunches` total equals the kernels launched;
//! * its `GpuTime` total equals the devices' busy time;
//! * with PC sampling, its `InstructionSamples` total equals
//!   `ProfilerStats::instruction_samples`;
//! * no event was orphaned, dropped or poisoned;
//! * the profile loaded back from the store has no `semantic_diff`
//!   against the one saved;
//! * on DLRM-small, the analyzer flags the `aten::index` backward as
//!   Critical (§6.1).

use deepcontext_analyzer::Severity;
use deepcontext_core::MetricKind;
use deepcontext_profiler::ProfilerStats;

use crate::session::Finished;

/// The outcome of gating one session.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Events the session attempted ([`events_attempted`]).
    pub attempted: u64,
    /// Orphaned + dropped + poisoned events plus failed checks.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

/// Gates a finished session of `model`.
pub fn check(model: &str, run: &Finished) -> Verdict {
    let stats = &run.stats;
    let cct = run.saved.cct();
    let mut failures = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            failures.push(format!("{model}: {what}"));
        }
    };

    let launches = cct.total(MetricKind::KernelLaunches);
    expect(
        launches == run.truth.kernels as f64,
        format!(
            "KernelLaunches total {launches} != {} kernels launched",
            run.truth.kernels
        ),
    );
    let gpu_time = cct.total(MetricKind::GpuTime);
    expect(
        gpu_time == run.truth.gpu_busy_ns as f64,
        format!(
            "GpuTime total {gpu_time} != {} ns device busy",
            run.truth.gpu_busy_ns
        ),
    );
    if run.sampling {
        let samples = cct.total(MetricKind::InstructionSamples);
        expect(
            samples == stats.instruction_samples as f64,
            format!(
                "InstructionSamples total {samples} != {} samples attributed",
                stats.instruction_samples
            ),
        );
    }
    if let Some(diff) = run.loaded.cct().semantic_diff(cct) {
        expect(false, format!("stored profile differs from saved: {diff}"));
    }
    if model == "dlrm-small" {
        let flagged = run.report.issues().iter().any(|i| {
            i.rule == "fwd-bwd"
                && i.severity == Severity::Critical
                && i.message.contains("aten::index")
        });
        expect(
            flagged,
            "analyzer did not flag the aten::index backward as critical".into(),
        );
    }
    let checks_failed = failures.len() as u64;

    let lost = stats.orphans + stats.dropped_events + stats.poisoned_events;
    if lost > 0 {
        failures.push(format!(
            "{model}: {} orphaned, {} dropped, {} poisoned events",
            stats.orphans, stats.dropped_events, stats.poisoned_events
        ));
    }
    Verdict {
        attempted: events_attempted(stats),
        failed: lost + checks_failed,
        failures,
    }
}

/// Events a profiled session attempted: launches + activities + CPU
/// samples + instruction samples.
pub fn events_attempted(stats: &ProfilerStats) -> u64 {
    stats.launches + stats.activities + stats.cpu_samples + stats.instruction_samples
}
