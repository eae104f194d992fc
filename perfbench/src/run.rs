//! The episode loop: runs a workload for the requested time and turns
//! what it measured into metrics.
//!
//! A run is a sequence of *episodes*. In each, every model of the
//! workload (in the seed's order) is set up, runs a fixed number of
//! timed iterations as one closed loop — each iteration starts when the
//! previous one returned — and is finished through the whole post-run
//! chain. Fixing the iterations per episode keeps every episode's
//! profile the same size; the run repeats episodes until its time is
//! used, and reports medians over them.
//!
//! The untraced run interleaves an unprofiled (L0) and a profiled
//! session per model, pair by pair, the seed choosing which side of each
//! pair runs first. The traced run (`--trace 1`) opens one session per
//! ladder rung L0–L5 plus an untraced copy of the workload's own rung,
//! runs them round by round in a seeded order, and records spans around
//! every call it makes into a layer.

use std::error::Error;
use std::path::Path;
use std::time::{Duration, Instant};

use deepcontext_analyzer::ProfileStore;
use deepcontext_core::ProfileDb;

use crate::calibrate::{Calibrator, REFERENCE_SECONDS};
use crate::gate::{self, events_attempted};
use crate::session::{Finished, Rung, Session};
use crate::stats::{geomean, median, percentile, SplitMix64};
use crate::trace::{self_ms, Site, Span, Tracer};
use crate::workloads::{Model, WorkloadSpec};

/// Episodes every run makes, however short its time: the first has no
/// previous stored run to diff against, so `insight_ms` needs two more.
pub const MIN_EPISODES: u32 = 3;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Human-readable lines: sample counts, shares, the gate's events.
    pub notes: Vec<String>,
    /// Events attempted over every gated session.
    pub attempted: u64,
    /// Orphaned, dropped and poisoned events plus failed checks.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Episodes run.
    pub episodes: u32,
    /// The recorded spans as JSON (traced runs only).
    pub spans_json: Option<String>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Per-episode sums over the models, one entry per episode.
#[derive(Debug, Default)]
struct PerEpisode(Vec<f64>);

impl PerEpisode {
    fn add(&mut self, episode: u32, value: f64) {
        let e = episode as usize;
        if self.0.len() <= e {
            self.0.resize(e + 1, 0.0);
        }
        self.0[e] += value;
    }

    fn median(&self) -> f64 {
        median(&self.0)
    }

    /// Median over the episodes from `first` on.
    fn median_from(&self, first: usize) -> f64 {
        median(self.0.get(first..).unwrap_or(&[]))
    }
}

/// One timed pair: an unprofiled and a profiled iteration.
#[derive(Debug, Clone, Copy)]
struct Pair {
    episode: u32,
    base: f64,
    prof: f64,
}

/// Raw measurements, accumulated across episodes. Times are host
/// seconds unless named otherwise.
#[derive(Debug, Default)]
struct Acc {
    calibrator: Calibrator,
    /// Per episode: calibration kernel times.
    calibration: Vec<Vec<f64>>,
    /// Per model: the untraced pairs.
    pairs: Vec<Vec<Pair>>,
    /// Per model: (L0, own rung) of each traced round.
    traced_pairs: Vec<Vec<Pair>>,
    /// Live-view refresh latencies, with their episode.
    previews: Vec<(u32, f64)>,
    setup_s: PerEpisode,
    insight_ms: PerEpisode,
    peak_bytes: PerEpisode,
    file_bytes: PerEpisode,
    // Traced-run counts, summed over models per episode.
    counts: Vec<(&'static str, PerEpisode)>,
    /// Per model: events per iteration at L3.
    l3_events_per_iter: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Acc {
    /// Times the calibration kernel once, for `episode`.
    fn calibrate(&mut self, episode: u32) {
        let seconds = self.calibrator.probe();
        let e = episode as usize;
        if self.calibration.len() <= e {
            self.calibration.resize(e + 1, Vec::new());
        }
        self.calibration[e].push(seconds);
    }

    /// Per episode: the factor turning its host times into reference
    /// times.
    fn speed_factors(&self) -> Vec<f64> {
        self.calibration
            .iter()
            .map(|c| match median(c) {
                m if m > 0.0 => REFERENCE_SECONDS / m,
                _ => 1.0,
            })
            .collect()
    }

    fn count(&mut self, name: &'static str, episode: u32, value: f64) {
        match self.counts.iter_mut().find(|(n, _)| *n == name) {
            Some((_, c)) => c.add(episode, value),
            None => {
                let mut c = PerEpisode::default();
                c.add(episode, value);
                self.counts.push((name, c));
            }
        }
    }

    fn count_median(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, c)| c.median())
    }

    fn gate(&mut self, model: &str, run: &Finished) {
        let verdict = gate::check(model, run);
        self.attempted += verdict.attempted;
        self.failed += verdict.failed;
        self.failures.extend(verdict.failures);
    }

    fn record_finished(&mut self, episode: u32, run: &Finished) {
        self.insight_ms
            .add(episode, run.insight.as_secs_f64() * 1e3);
        self.peak_bytes.add(episode, run.stats.peak_bytes as f64);
        self.file_bytes.add(episode, run.file_bytes as f64);
    }
}

/// The benchmark's settings for one run.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Seed for the model order and pair orders.
    pub seed: u64,
    /// Seconds to keep starting episodes for (at least
    /// [`MIN_EPISODES`] run regardless).
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Runs `spec` with `settings`, storing profiles under `store_dir`.
///
/// # Errors
///
/// Propagates framework, GPU and store failures.
pub fn run(
    spec: &WorkloadSpec,
    settings: &Settings,
    store_dir: &Path,
) -> Result<Outcome, Box<dyn Error>> {
    let started = Instant::now();
    let tracer = Tracer::new(settings.trace);
    let untraced = Tracer::new(false);
    let mut rng = SplitMix64::new(settings.seed);
    let mut order: Vec<usize> = (0..spec.models.len()).collect();
    let store = ProfileStore::open(store_dir)?;

    let n = spec.models.len();
    let mut acc = Acc {
        pairs: vec![Vec::new(); n],
        traced_pairs: vec![Vec::new(); n],
        l3_events_per_iter: vec![0.0; n],
        ..Acc::default()
    };
    let mut previous: Vec<Option<ProfileDb>> = (0..n).map(|_| None).collect();
    let mut previous_traced: Vec<Option<ProfileDb>> = (0..n).map(|_| None).collect();
    let budget = Duration::from_secs(settings.seconds);
    let mut episode = 0u32;
    loop {
        let episode_start = Instant::now();
        // A fresh model order every episode, so no one order's effect on
        // the heap and caches carries through a whole run.
        rng.shuffle(&mut order);
        for &m in &order {
            let ctx = Ctx {
                spec,
                model: &spec.models[m],
                m,
                episode,
                store: &store,
            };
            if settings.trace {
                ctx.traced(
                    &tracer,
                    &untraced,
                    &mut rng,
                    &mut acc,
                    &mut previous,
                    &mut previous_traced,
                )?;
            } else {
                ctx.untraced(&untraced, &mut rng, &mut acc, &mut previous)?;
            }
        }
        episode += 1;
        let took = episode_start.elapsed();
        if episode >= MIN_EPISODES && started.elapsed() + took > budget {
            break;
        }
    }

    let mut out = Outcome {
        episodes: episode,
        ..Outcome::default()
    };
    end_to_end(spec, &acc, &mut out);
    if settings.trace {
        let spans = tracer.spans();
        per_layer(spec, &acc, &spans, &mut out);
        out.spans_json = Some(tracer.to_json());
    }
    out.attempted = acc.attempted;
    out.failed = acc.failed;
    out.failures = std::mem::take(&mut acc.failures);
    Ok(out)
}

/// The workload's own rung: L5 with a live view in the loop, else L3.
fn own_rung(spec: &WorkloadSpec) -> Rung {
    if spec.live {
        Rung::Live
    } else {
        Rung::Profiled
    }
}

/// One model in one episode.
struct Ctx<'a> {
    spec: &'a WorkloadSpec,
    model: &'a Model,
    m: usize,
    episode: u32,
    store: &'a ProfileStore,
}

impl<'a> Ctx<'a> {
    /// Whether this episode opens the L0 session before the profiled
    /// one. Sessions opened later run measurably faster (by up to a tenth
    /// on `jit-fine` — allocation placement, not profiler work), so the
    /// order alternates by episode and [`balanced_median`] weighs both
    /// orders equally. The traced run shuffles its opening order instead.
    fn opens_base_first(&self) -> bool {
        self.episode.is_multiple_of(2)
    }

    fn open(&self, rung: Rung, tracer: &Tracer) -> Result<Session<'a>, Box<dyn Error>> {
        let site = Site {
            model: self.model.name(),
            rung,
            episode: self.episode,
        };
        tracer.span("setup", site, || {
            Session::open(
                self.model,
                self.spec.engine,
                rung,
                (self.spec.base_config)(),
                self.episode,
                tracer,
            )
        })
    }

    /// The end-to-end episode: an L0 and an own-rung session, paired.
    fn untraced(
        &self,
        off: &Tracer,
        rng: &mut SplitMix64,
        acc: &mut Acc,
        previous: &mut [Option<ProfileDb>],
    ) -> Result<(), Box<dyn Error>> {
        let setup = Instant::now();
        let (mut base, mut prof) = if self.opens_base_first() {
            let base = self.open(Rung::Base, off)?;
            (base, self.open(own_rung(self.spec), off)?)
        } else {
            let prof = self.open(own_rung(self.spec), off)?;
            (self.open(Rung::Base, off)?, prof)
        };
        acc.setup_s.add(self.episode, setup.elapsed().as_secs_f64());
        let e = self.episode;
        for _ in 0..self.spec.pairs {
            acc.calibrate(e);
            let (b, p) = if rng.coin() {
                let b = base.iterate(off, "iteration")?;
                (b, prof.iterate(off, "iteration")?)
            } else {
                let p = prof.iterate(off, "iteration")?;
                (base.iterate(off, "iteration")?, p)
            };
            acc.pairs[self.m].push(Pair {
                episode: e,
                base: b.total.as_secs_f64(),
                prof: p.total.as_secs_f64(),
            });
            acc.previews.extend(p.refresh.map(|r| (e, r.as_secs_f64())));
        }
        for _ in 0..self.spec.probes {
            acc.previews.push((e, prof.probe(off)?.as_secs_f64()));
        }
        drop(base);
        let run = prof.finish(self.store, previous[self.m].as_ref(), off)?;
        acc.gate(self.model.name(), &run);
        acc.record_finished(self.episode, &run);
        previous[self.m] = Some(run.loaded);
        Ok(())
    }

    /// The traced episode: every ladder rung with spans, plus an untraced
    /// L0/own-rung pair whose tree the traced one must match.
    fn traced(
        &self,
        tracer: &Tracer,
        off: &Tracer,
        rng: &mut SplitMix64,
        acc: &mut Acc,
        previous: &mut [Option<ProfileDb>],
        previous_traced: &mut [Option<ProfileDb>],
    ) -> Result<(), Box<dyn Error>> {
        let own = own_rung(self.spec);
        let setup = Instant::now();
        // Slots 0..6 are the traced rungs, 6 the untraced own rung; they
        // open in a seeded order (see `opens_base_first`).
        let mut open_order: Vec<usize> = (0..7).collect();
        rng.shuffle(&mut open_order);
        let mut opened: Vec<Option<Session<'a>>> = (0..7).map(|_| None).collect();
        for slot in open_order {
            opened[slot] = Some(match Rung::ALL.get(slot) {
                Some(&rung) => self.open(rung, tracer)?,
                None => self.open(own, off)?,
            });
        }
        let mut sessions = opened.into_iter().map(|s| s.expect("every slot opened"));
        let mut rungs: Vec<Session<'a>> = sessions.by_ref().take(6).collect();
        let mut plain = sessions.next().expect("the untraced slot");
        acc.setup_s.add(self.episode, setup.elapsed().as_secs_f64());
        let own_idx = Rung::ALL.iter().position(|&r| r == own).expect("own rung");

        // Rounds add slot 7: the untraced L0 step, on the L0 session.
        let mut slots: Vec<usize> = (0..8).collect();
        let e = self.episode;
        for _ in 0..self.spec.pairs {
            acc.calibrate(e);
            rng.shuffle(&mut slots);
            let mut times = [0.0f64; 8];
            for &slot in &slots {
                let it = match slot {
                    0..=5 => rungs[slot].iterate(tracer, "iteration")?,
                    6 => plain.iterate(off, "iteration")?,
                    _ => rungs[0].iterate(off, "iteration")?,
                };
                times[slot] = it.total.as_secs_f64();
                if slot == 6 {
                    acc.previews
                        .extend(it.refresh.map(|r| (e, r.as_secs_f64())));
                }
            }
            let pair = |base: usize, prof: usize| Pair {
                episode: e,
                base: times[base],
                prof: times[prof],
            };
            acc.traced_pairs[self.m].push(pair(0, own_idx));
            acc.pairs[self.m].push(pair(7, 6));
        }
        for _ in 0..self.spec.probes {
            rungs[own_idx].probe(tracer)?;
            acc.previews.push((e, plain.probe(off)?.as_secs_f64()));
        }

        let l3 = rungs[3].profiler().map(|p| p.stats()).unwrap_or_default();
        acc.l3_events_per_iter[self.m] =
            events_attempted(&l3) as f64 / rungs[3].iterations() as f64;
        let l4 = rungs[4].profiler().map(|p| p.stats()).unwrap_or_default();
        acc.count(
            "timeline.intervals",
            self.episode,
            l4.timeline_intervals as f64,
        );
        acc.count("timeline.dropped", self.episode, l4.timeline_dropped as f64);
        if own < Rung::Timeline {
            let bytes = rungs[4].live_chrome_trace(tracer);
            acc.count("timeline.chrome_bytes", self.episode, bytes as f64);
        }
        let traced_session = rungs.swap_remove(own_idx);
        drop(rungs);

        let traced = traced_session.finish(self.store, previous_traced[self.m].as_ref(), tracer)?;
        let run = plain.finish(self.store, previous[self.m].as_ref(), off)?;
        acc.gate(self.model.name(), &traced);
        acc.gate(self.model.name(), &run);
        if let Some(diff) = traced.saved.cct().semantic_diff(run.saved.cct()) {
            acc.failed += 1;
            acc.failures.push(format!(
                "{}: traced profile differs from untraced: {diff}",
                self.model.name()
            ));
        }
        acc.record_finished(e, &run);
        let s = &traced.stats;
        let monitor = &traced.monitor;
        for (name, value) in [
            ("sim.unwind_steps", traced.unwind_steps),
            ("dlmonitor.callpaths_built", monitor.callpaths_built),
            ("dlmonitor.cache_hits", monitor.cache_hits),
            ("dlmonitor.assoc_hits", monitor.assoc_hits),
            ("pipeline.events", events_attempted(s)),
            ("pipeline.orphans", s.orphans),
            ("pipeline.producer_flushes", s.producer_flushes),
            ("pipeline.batched_events", s.batched_events),
            ("pipeline.snapshot_merges", s.snapshot_merges),
            ("pipeline.shards_skipped", s.shards_skipped),
            ("profiler.peak_bytes", s.peak_bytes as u64),
            ("core.cct_nodes", traced.saved.cct().node_count() as u64),
            ("core.db_bytes", traced.file_bytes),
            ("analyzer.issues", traced.report.len() as u64),
        ] {
            acc.count(name, e, value as f64);
        }
        if own >= Rung::Timeline {
            acc.count("timeline.chrome_bytes", e, traced.chrome_bytes as f64);
        }
        previous[self.m] = Some(run.loaded);
        previous_traced[self.m] = Some(traced.loaded);
        Ok(())
    }
}

/// The median of `value` over one model's pairs, balanced over the two
/// session-opening orders: the geomean of the medians of the even and
/// the odd episodes (see [`Ctx::opens_base_first`]).
fn balanced_median(pairs: &[Pair], value: impl Fn(&Pair) -> f64) -> f64 {
    let halves: Vec<f64> = [0, 1]
        .iter()
        .map(|&parity| {
            pairs
                .iter()
                .filter(|p| p.episode % 2 == parity)
                .map(&value)
                .collect::<Vec<_>>()
        })
        .filter(|half| !half.is_empty())
        .map(|half| median(&half))
        .collect();
    geomean(&halves)
}

/// Per model: the balanced median of profiled/base over its pairs; then
/// the geomean over models.
fn overhead(pairs: &[Vec<Pair>]) -> f64 {
    let per_model: Vec<f64> = pairs
        .iter()
        .filter(|p| !p.is_empty())
        .map(|p| balanced_median(p, |q| q.prof / q.base))
        .collect();
    geomean(&per_model)
}

fn end_to_end(spec: &WorkloadSpec, acc: &Acc, out: &mut Outcome) {
    let factors = acc.speed_factors();
    let at = |episode: u32| factors.get(episode as usize).copied().unwrap_or(1.0);
    // Each absolute time in host terms (factor 1) and in reference terms.
    let times = |scale: &dyn Fn(u32) -> f64| {
        let step_ms: f64 = acc
            .pairs
            .iter()
            .filter(|p| !p.is_empty())
            .map(|p| balanced_median(p, |q| q.prof * scale(q.episode)))
            .sum::<f64>()
            * 1e3;
        let scaled = |per: &PerEpisode| {
            PerEpisode(
                per.0
                    .iter()
                    .enumerate()
                    .map(|(e, v)| v * scale(e as u32))
                    .collect(),
            )
        };
        let previews_ms: Vec<f64> = acc
            .previews
            .iter()
            .map(|&(e, v)| v * scale(e) * 1e3)
            .collect();
        (
            step_ms,
            scaled(&acc.setup_s).median(),
            scaled(&acc.insight_ms).median_from(1),
            percentile(&previews_ms, 50.0),
            percentile(&previews_ms, 90.0),
            previews_ms,
        )
    };
    let (step_ms, setup_s, insight_ms, p50, p90, previews_ms) = times(&at);
    out.end_to_end = vec![
        metric("overhead_x", overhead(&acc.pairs), "x"),
        metric("step_ms", step_ms, "ms"),
        metric("setup_s", setup_s, "s"),
        metric("insight_ms", insight_ms, "ms"),
        metric("preview_p50_ms", p50, "ms"),
        metric("preview_p90_ms", p90, "ms"),
        metric("profile_peak_bytes", acc.peak_bytes.median(), "bytes"),
        metric("profile_file_bytes", acc.file_bytes.median(), "bytes"),
    ];
    let (host_step, host_setup, host_insight, host_p50, host_p90, _) = times(&|_| 1.0);
    let calibration: Vec<f64> = acc.calibration.iter().flatten().copied().collect();
    out.notes.push(format!(
        "host times (not normalized): step_ms {host_step} setup_s {host_setup} insight_ms \
         {host_insight} preview_p50_ms {host_p50} preview_p90_ms {host_p90}; calibration kernel \
         median {} ms against {} ms reference",
        median(&calibration) * 1e3,
        REFERENCE_SECONDS * 1e3
    ));
    let frac = if acc.attempted == 0 {
        1.0
    } else {
        acc.failed as f64 / acc.attempted as f64
    };
    out.notes.push(format!(
        "metric events_failed_frac {frac} fraction ({} failed of {} events attempted)",
        acc.failed, acc.attempted
    ));
    out.notes.push(format!(
        "samples pairs_per_model={} previews={} previews_beyond_p90={} insight_episodes={} \
         workload_models={}",
        acc.pairs.iter().map(Vec::len).min().unwrap_or(0),
        previews_ms.len(),
        previews_ms.iter().filter(|&&v| v > p90).count(),
        acc.insight_ms.0.len().saturating_sub(1),
        spec.models.len(),
    ));
}

/// Span statistics over one workload's traced run.
struct Spans<'a> {
    spans: &'a [Span],
    own_ms: Vec<f64>,
}

impl Spans<'_> {
    /// Median, over episodes, of the per-episode sum of `name` at
    /// `rung` (any rung when `None`).
    fn per_episode(&self, name: &str, rung: Option<Rung>) -> f64 {
        let mut sums = PerEpisode::default();
        for s in self.matching(name, rung) {
            sums.add(s.episode, s.ms());
        }
        sums.median()
    }

    /// Median duration of one `name` call at `rung`, optionally only
    /// those made inside a `parent` span; `own` takes self time.
    fn per_call(&self, name: &str, rung: Rung, parent: Option<&str>, own: bool) -> f64 {
        let values: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && s.rung == rung)
            .filter(|(_, s)| {
                parent.is_none_or(|p| s.parent.is_some_and(|i| self.spans[i].name == p))
            })
            .map(|(i, s)| if own { self.own_ms[i] } else { s.ms() })
            .collect();
        median(&values)
    }

    /// Σ over models of the median `iteration` time at `rung`, in ms.
    fn rung_step_ms(&self, models: &[Model], rung: Rung) -> f64 {
        models
            .iter()
            .map(|m| {
                let v: Vec<f64> = self
                    .matching("iteration", Some(rung))
                    .filter(|s| s.model == m.name())
                    .map(Span::ms)
                    .collect();
                median(&v)
            })
            .sum()
    }

    fn matching<'s>(&'s self, name: &'s str, rung: Option<Rung>) -> impl Iterator<Item = &'s Span> {
        self.spans
            .iter()
            .filter(move |s| s.name == name && rung.is_none_or(|r| s.rung == r))
    }
}

fn per_layer(spec: &WorkloadSpec, acc: &Acc, spans: &[Span], out: &mut Outcome) {
    let sp = Spans {
        spans,
        own_ms: self_ms(spans),
    };
    let own = own_rung(spec);
    let s: Vec<f64> = Rung::ALL
        .iter()
        .map(|&r| sp.rung_step_ms(&spec.models, r))
        .collect();
    let share = |hi: usize, lo: usize| (s[hi] - s[lo]) / s[0];
    let events_per_iter: f64 = acc.l3_events_per_iter.iter().sum();
    let ns_per_event = (s[3] - s[2]) * 1e6 / events_per_iter.max(1.0);
    let trace_overhead = overhead(&acc.traced_pairs) - overhead(&acc.pairs);
    let c = |name| acc.count_median(name);

    out.per_layer = vec![
        metric("sim.step_ms", s[0], "ms"),
        metric(
            "sim.setup_ms",
            sp.per_episode("setup", Some(Rung::Base)),
            "ms",
        ),
        metric("sim.unwind_steps", c("sim.unwind_steps"), "count"),
        metric("dlmonitor.dispatch_x", share(1, 0), "x"),
        metric("dlmonitor.callpath_x", share(2, 1), "x"),
        metric(
            "dlmonitor.callpaths_built",
            c("dlmonitor.callpaths_built"),
            "count",
        ),
        metric("dlmonitor.cache_hits", c("dlmonitor.cache_hits"), "count"),
        metric("dlmonitor.assoc_hits", c("dlmonitor.assoc_hits"), "count"),
        metric("pipeline.attribution_x", share(3, 2), "x"),
        metric("pipeline.ns_per_event", ns_per_event, "ns"),
        metric("pipeline.events", c("pipeline.events"), "count"),
        metric("pipeline.orphans", c("pipeline.orphans"), "count"),
        metric(
            "pipeline.producer_flushes",
            c("pipeline.producer_flushes"),
            "count",
        ),
        metric(
            "pipeline.batched_events",
            c("pipeline.batched_events"),
            "count",
        ),
        metric(
            "pipeline.snapshot_merges",
            c("pipeline.snapshot_merges"),
            "count",
        ),
        metric(
            "pipeline.shards_skipped",
            c("pipeline.shards_skipped"),
            "count",
        ),
        metric(
            "profiler.attach_ms",
            sp.per_episode("profiler.attach", Some(own)),
            "ms",
        ),
        metric(
            "profiler.flush_ms",
            sp.per_call("profiler.flush", own, Some("live.refresh"), false),
            "ms",
        ),
        metric(
            "profiler.with_cct_ms",
            sp.per_call("profiler.with_cct", own, None, true),
            "ms",
        ),
        metric(
            "profiler.timeline_ms",
            sp.per_call("profiler.timeline", own, None, false),
            "ms",
        ),
        metric(
            "profiler.finish_ms",
            sp.per_episode("profiler.finish", Some(own)),
            "ms",
        ),
        metric("profiler.peak_bytes", c("profiler.peak_bytes"), "bytes"),
        metric("core.cct_nodes", c("core.cct_nodes"), "count"),
        metric("core.db_bytes", c("core.db_bytes"), "bytes"),
        metric("timeline.record_x", share(4, 3), "x"),
        metric("timeline.intervals", c("timeline.intervals"), "count"),
        metric("timeline.dropped", c("timeline.dropped"), "count"),
        metric(
            "timeline.chrome_ms",
            sp.per_episode("timeline.chrome", None),
            "ms",
        ),
        metric("timeline.chrome_bytes", c("timeline.chrome_bytes"), "bytes"),
        metric(
            "analyzer.preview_ms",
            sp.per_call("analyzer.preview", own, None, false),
            "ms",
        ),
        metric("analyzer.preview_x", share(5, 4), "x"),
        metric(
            "analyzer.analyze_ms",
            sp.per_episode("analyzer.analyze", Some(own)),
            "ms",
        ),
        metric(
            "analyzer.diff_ms",
            sp.per_episode("analyzer.diff", Some(own)),
            "ms",
        ),
        metric(
            "analyzer.store_save_ms",
            sp.per_episode("analyzer.store_save", Some(own)),
            "ms",
        ),
        metric(
            "analyzer.store_load_ms",
            sp.per_episode("analyzer.store_load", Some(own)),
            "ms",
        ),
        metric("analyzer.issues", c("analyzer.issues"), "count"),
        metric(
            "flamegraph.render_ms",
            sp.per_episode("flamegraph.render", Some(own)),
            "ms",
        ),
        metric("trace.overhead_x", trace_overhead, "x"),
    ];

    // The ladder's reading: which ingest layer costs most, and which
    // post-run steps dominate the time to insight.
    let ladder = [
        ("dlmonitor.dispatch_x", share(1, 0)),
        ("dlmonitor.callpath_x", share(2, 1)),
        ("pipeline.attribution_x", share(3, 2)),
    ];
    let heaviest = ladder
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("three layers");
    out.notes.push(format!(
        "ladder L0..L5 step_ms {}; shares of L0: dispatch {:.3} callpath {:.3} attribution {:.3} \
         timeline {:.3} preview {:.3}; heaviest ingest layer {}",
        s.iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join("/"),
        share(1, 0),
        share(2, 1),
        share(3, 2),
        share(4, 3),
        share(5, 4),
        heaviest.0
    ));
    let insight_steps = [
        (
            "profiler.finish",
            sp.per_episode("profiler.finish", Some(own)),
        ),
        (
            "analyzer.store",
            sp.per_episode("analyzer.store_save", Some(own))
                + sp.per_episode("analyzer.store_load", Some(own)),
        ),
        (
            "analyzer.analyze",
            sp.per_episode("analyzer.analyze", Some(own)),
        ),
        (
            "flamegraph.render",
            sp.per_episode("flamegraph.render", Some(own)),
        ),
        (
            "timeline.chrome",
            sp.per_episode("timeline.chrome", Some(own)),
        ),
        ("analyzer.diff", sp.per_episode("analyzer.diff", Some(own))),
    ];
    let total: f64 = insight_steps.iter().map(|(_, v)| v).sum();
    out.notes.push(format!(
        "insight shares: {}",
        insight_steps
            .iter()
            .map(|(n, v)| format!("{n} {:.3}", v / total.max(f64::MIN_POSITIVE)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
}
