//! Persistent profile database.
//!
//! DeepContext aggregates online, so the on-disk profile is a compact
//! calling context tree rather than a trace. The format is a line-oriented
//! text format (version-tagged) with an interned string table followed by
//! nodes in topological order; it needs no external serialization crates.
//!
//! Version 2 extends the container beyond the tree: run metadata grows
//! host / model / config identity plus the run's wall-clock window, and
//! an optional timeline section persists the recorded intervals (with
//! their own captured symbol table and the recording counters) so a
//! run's timeline survives the profiler. Version 3 adds an optional
//! incident-journal section — the run's lifecycle events (supervisor
//! transitions, quarantines, drop storms, store retries, failpoint
//! fires) with their own site-name table and conservation counters — so
//! a stored run carries its own causal incident history. Version 1 and
//! 2 files still load.

use std::io::{BufRead, BufReader, Read, Write};
use std::sync::Arc;

use crate::cct::{CallingContextTree, NodeId};
use crate::clock::TimeNs;
use crate::error::CoreError;
use crate::frame::Frame;
use crate::interner::{Interner, Sym};
use crate::journal::{StoredJournal, StoredJournalEvent};
use crate::metrics::{MetricKind, MetricStat, MetricStore};
use crate::timeline::{Interval, IntervalKind, StoredTimeline, TrackKey};

const MAGIC_V1: &str = "deepcontext-profile v1";
const MAGIC_V2: &str = "deepcontext-profile v2";
const MAGIC_V3: &str = "deepcontext-profile v3";

/// Most records [`ProfileDb::load`] reserves room for up front. Section
/// counts are untrusted input: a corrupt count must not abort the load on
/// allocation, so vectors reserve at most this many and grow as records
/// actually arrive.
const MAX_RESERVE: usize = 4096;

/// Metadata describing one profiling run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileMeta {
    /// Workload name (e.g. `unet-fastmri`).
    pub workload: String,
    /// Framework used (e.g. `eager` / `jit`).
    pub framework: String,
    /// Platform / device (e.g. `nvidia-a100`).
    pub platform: String,
    /// Number of profiled iterations.
    pub iterations: u64,
    /// Host the run executed on (empty when unknown) — the fleet axis
    /// cross-run queries group by.
    pub host: String,
    /// Model / model-version identity (empty when unknown).
    pub model: String,
    /// Free-form configuration fingerprint (flags, hyper-parameters;
    /// empty when unknown).
    pub config: String,
    /// Wall-clock start of the run (profiler clock domain; zero when
    /// unknown). `Profiler::finish` stamps this.
    pub started: TimeNs,
    /// Wall-clock end of the run (zero when unknown).
    pub ended: TimeNs,
    /// Free-form extra key/value pairs.
    pub extra: Vec<(String, String)>,
}

/// A complete stored profile: metadata plus the calling context tree.
///
/// # Examples
///
/// ```
/// use deepcontext_core::{CallingContextTree, Frame, MetricKind, ProfileDb, ProfileMeta};
///
/// let mut cct = CallingContextTree::new();
/// let i = cct.interner();
/// let leaf = cct.insert_path(&[Frame::operator("aten::relu", &i)]);
/// cct.attribute(leaf, MetricKind::GpuTime, 9.0);
///
/// let db = ProfileDb::new(ProfileMeta { workload: "demo".into(), ..Default::default() }, cct);
/// let mut buf = Vec::new();
/// db.save(&mut buf)?;
/// let back = ProfileDb::load(&buf[..])?;
/// assert_eq!(back.meta().workload, "demo");
/// assert_eq!(back.cct().total(MetricKind::GpuTime), 9.0);
/// # Ok::<(), deepcontext_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProfileDb {
    meta: ProfileMeta,
    cct: CallingContextTree,
    timeline: Option<StoredTimeline>,
    journal: Option<StoredJournal>,
}

impl ProfileDb {
    /// Bundles metadata with a finished tree.
    pub fn new(meta: ProfileMeta, cct: CallingContextTree) -> Self {
        ProfileDb {
            meta,
            cct,
            timeline: None,
            journal: None,
        }
    }

    /// Attaches a persisted timeline (builder form).
    pub fn with_timeline(mut self, timeline: StoredTimeline) -> Self {
        self.timeline = Some(timeline);
        self
    }

    /// Attaches a persisted incident journal (builder form).
    pub fn with_journal(mut self, journal: StoredJournal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Run metadata.
    pub fn meta(&self) -> &ProfileMeta {
        &self.meta
    }

    /// Mutable access to the metadata (e.g. for stamping `extra` keys
    /// onto an already-built profile).
    pub fn meta_mut(&mut self) -> &mut ProfileMeta {
        &mut self.meta
    }

    /// The calling context tree.
    pub fn cct(&self) -> &CallingContextTree {
        &self.cct
    }

    /// Mutable access to the tree (e.g. for post-load annotation).
    pub fn cct_mut(&mut self) -> &mut CallingContextTree {
        &mut self.cct
    }

    /// The persisted timeline, when the run recorded one.
    pub fn timeline(&self) -> Option<&StoredTimeline> {
        self.timeline.as_ref()
    }

    /// Sets or clears the persisted timeline.
    pub fn set_timeline(&mut self, timeline: Option<StoredTimeline>) {
        self.timeline = timeline;
    }

    /// The persisted incident journal, when the run recorded one.
    pub fn journal(&self) -> Option<&StoredJournal> {
        self.journal.as_ref()
    }

    /// Sets or clears the persisted incident journal.
    pub fn set_journal(&mut self, journal: Option<StoredJournal>) {
        self.journal = journal;
    }

    /// Consumes the database, returning its parts.
    pub fn into_parts(self) -> (ProfileMeta, CallingContextTree) {
        (self.meta, self.cct)
    }

    /// Writes the profile to `w`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] if writing fails.
    pub fn save<W: Write>(&self, mut w: W) -> Result<(), CoreError> {
        writeln!(w, "{MAGIC_V3}")?;
        writeln!(w, "meta\tworkload\t{}", escape(&self.meta.workload))?;
        writeln!(w, "meta\tframework\t{}", escape(&self.meta.framework))?;
        writeln!(w, "meta\tplatform\t{}", escape(&self.meta.platform))?;
        writeln!(w, "meta\titerations\t{}", self.meta.iterations)?;
        writeln!(w, "meta\thost\t{}", escape(&self.meta.host))?;
        writeln!(w, "meta\tmodel\t{}", escape(&self.meta.model))?;
        writeln!(w, "meta\tconfig\t{}", escape(&self.meta.config))?;
        writeln!(w, "meta\tstarted\t{}", self.meta.started.0)?;
        writeln!(w, "meta\tended\t{}", self.meta.ended.0)?;
        for (k, v) in &self.meta.extra {
            writeln!(w, "meta\textra.{}\t{}", escape(k), escape(v))?;
        }
        let strings = self.cct.interner().snapshot();
        writeln!(w, "strings\t{}", strings.len())?;
        for s in &strings {
            writeln!(w, "{}", escape(s))?;
        }
        let nodes = self.cct.nodes_raw();
        writeln!(w, "nodes\t{}", nodes.len())?;
        for node in nodes {
            let parent = match node.parent() {
                Some(p) => p.index().to_string(),
                None => "-".to_owned(),
            };
            write!(w, "{parent}\t{}", node.frame().to_record())?;
            write!(w, "\t{}", node.metrics().len())?;
            for (kind, stat) in node.metrics().iter() {
                write!(w, "\t{}\t{}", kind.to_record(), stat.to_record())?;
            }
            writeln!(w)?;
        }
        if let Some(tl) = &self.timeline {
            let (wstart, wend) = match tl.window {
                Some((s, e)) => (s.0.to_string(), e.0.to_string()),
                None => ("-".to_owned(), "-".to_owned()),
            };
            writeln!(
                w,
                "timeline\t{}\t{}\t{}\t{wstart}\t{wend}",
                tl.intervals.len(),
                tl.recorded,
                tl.dropped
            )?;
            writeln!(w, "tnames\t{}", tl.names.len())?;
            for name in &tl.names {
                writeln!(w, "{}", escape(name))?;
            }
            for iv in &tl.intervals {
                let context = match iv.context {
                    Some(n) => n.index().to_string(),
                    None => "-".to_owned(),
                };
                writeln!(
                    w,
                    "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{context}",
                    iv.track.device,
                    iv.track.stream,
                    iv.start.0,
                    iv.end.0,
                    interval_kind_tag(iv.kind),
                    iv.name.index(),
                    iv.correlation
                )?;
            }
        }
        if let Some(j) = &self.journal {
            writeln!(
                w,
                "journal\t{}\t{}\t{}",
                j.events.len(),
                j.recorded,
                j.evicted
            )?;
            writeln!(w, "jnames\t{}", j.names.len())?;
            for name in &j.names {
                writeln!(w, "{}", escape(name))?;
            }
            for ev in &j.events {
                write!(
                    w,
                    "{}\t{}\t{}\t{}\t{}",
                    ev.seq,
                    ev.ts_ns,
                    ev.severity,
                    ev.site,
                    ev.fields.len()
                )?;
                for (k, v) in &ev.fields {
                    write!(w, "\t{}\t{}", escape(k), escape(v))?;
                }
                writeln!(w)?;
            }
        }
        writeln!(w, "end")?;
        Ok(())
    }

    /// Reads a profile previously written by [`ProfileDb::save`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Parse`] for malformed input and
    /// [`CoreError::Io`] for read failures.
    pub fn load<R: Read>(r: R) -> Result<Self, CoreError> {
        let mut lines = BufReader::new(r).lines();
        let mut next_line = move || -> Result<String, CoreError> {
            lines
                .next()
                .ok_or_else(|| CoreError::parse("unexpected end of profile".into()))?
                .map_err(CoreError::from)
        };

        match next_line()?.as_str() {
            MAGIC_V1 | MAGIC_V2 | MAGIC_V3 => {}
            _ => return Err(CoreError::parse("bad magic header".into())),
        }

        let mut meta = ProfileMeta::default();
        let line = loop {
            let line = next_line()?;
            if let Some(rest) = line.strip_prefix("meta\t") {
                parse_meta_line(rest, &mut meta)?;
            } else {
                break line;
            }
        };

        let count: usize = line
            .strip_prefix("strings\t")
            .ok_or_else(|| CoreError::parse("expected strings section".into()))?
            .parse()
            .map_err(|e| CoreError::parse(format!("bad string count: {e}")))?;
        let interner = Interner::new();
        for _ in 0..count {
            let s = unescape(&next_line()?)?;
            interner.intern(&s);
        }
        // `intern` collapses a repeated string, which would shift every
        // later symbol onto the wrong string.
        if interner.len() != count {
            return Err(CoreError::parse("duplicate string-table entry".into()));
        }

        let line = next_line()?;
        let node_count: usize = line
            .strip_prefix("nodes\t")
            .ok_or_else(|| CoreError::parse("expected nodes section".into()))?
            .parse()
            .map_err(|e| CoreError::parse(format!("bad node count: {e}")))?;

        let mut raw = Vec::with_capacity(node_count.min(MAX_RESERVE));
        for _ in 0..node_count {
            let line = next_line()?;
            raw.push(parse_node_line(&line, count)?);
        }

        let line = next_line()?;
        let (timeline, line) = if let Some(rest) = line.strip_prefix("timeline\t") {
            let tl = parse_timeline_section(rest, &mut next_line)?;
            (Some(tl), next_line()?)
        } else {
            (None, line)
        };
        let (journal, line) = if let Some(rest) = line.strip_prefix("journal\t") {
            let j = parse_journal_section(rest, &mut next_line)?;
            (Some(j), next_line()?)
        } else {
            (None, line)
        };
        if line != "end" {
            return Err(CoreError::parse("missing end marker".into()));
        }

        let cct = CallingContextTree::from_raw(Arc::clone(&interner), raw)?;
        Ok(ProfileDb {
            meta,
            cct,
            timeline,
            journal,
        })
    }

    /// Reads only the header of a stored profile: magic plus the meta
    /// lines, stopping before the string table. Used by store listings
    /// to scan run metadata without paying for full deserialization.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Parse`] for malformed input and
    /// [`CoreError::Io`] for read failures.
    pub fn load_meta<R: Read>(r: R) -> Result<ProfileMeta, CoreError> {
        let mut lines = BufReader::new(r).lines();
        let mut next_line = move || -> Result<String, CoreError> {
            lines
                .next()
                .ok_or_else(|| CoreError::parse("unexpected end of profile".into()))?
                .map_err(CoreError::from)
        };
        match next_line()?.as_str() {
            MAGIC_V1 | MAGIC_V2 | MAGIC_V3 => {}
            _ => return Err(CoreError::parse("bad magic header".into())),
        }
        let mut meta = ProfileMeta::default();
        loop {
            let line = next_line()?;
            if let Some(rest) = line.strip_prefix("meta\t") {
                parse_meta_line(rest, &mut meta)?;
            } else {
                break;
            }
        }
        Ok(meta)
    }
}

fn parse_meta_line(rest: &str, meta: &mut ProfileMeta) -> Result<(), CoreError> {
    let (key, value) = rest
        .split_once('\t')
        .ok_or_else(|| CoreError::parse("malformed meta line".into()))?;
    match key {
        "workload" => meta.workload = unescape(value)?,
        "framework" => meta.framework = unescape(value)?,
        "platform" => meta.platform = unescape(value)?,
        "iterations" => {
            meta.iterations = value
                .parse()
                .map_err(|e| CoreError::parse(format!("bad iterations: {e}")))?
        }
        "host" => meta.host = unescape(value)?,
        "model" => meta.model = unescape(value)?,
        "config" => meta.config = unescape(value)?,
        "started" => {
            meta.started = TimeNs(
                value
                    .parse()
                    .map_err(|e| CoreError::parse(format!("bad started: {e}")))?,
            )
        }
        "ended" => {
            meta.ended = TimeNs(
                value
                    .parse()
                    .map_err(|e| CoreError::parse(format!("bad ended: {e}")))?,
            )
        }
        other => {
            let k = other.strip_prefix("extra.").unwrap_or(other);
            meta.extra.push((unescape(k)?, unescape(value)?));
        }
    }
    Ok(())
}

fn interval_kind_tag(kind: IntervalKind) -> &'static str {
    match kind {
        IntervalKind::Kernel => "K",
        IntervalKind::Memcpy => "M",
    }
}

fn parse_timeline_section(
    header_rest: &str,
    next_line: &mut impl FnMut() -> Result<String, CoreError>,
) -> Result<StoredTimeline, CoreError> {
    let fields: Vec<&str> = header_rest.split('\t').collect();
    if fields.len() != 5 {
        return Err(CoreError::parse("malformed timeline header".into()));
    }
    let interval_count: usize = fields[0]
        .parse()
        .map_err(|e| CoreError::parse(format!("bad interval count: {e}")))?;
    let recorded: u64 = fields[1]
        .parse()
        .map_err(|e| CoreError::parse(format!("bad recorded count: {e}")))?;
    let dropped: u64 = fields[2]
        .parse()
        .map_err(|e| CoreError::parse(format!("bad dropped count: {e}")))?;
    let window = match (fields[3], fields[4]) {
        ("-", "-") => None,
        (s, e) => Some((
            TimeNs(
                s.parse()
                    .map_err(|e| CoreError::parse(format!("bad window start: {e}")))?,
            ),
            TimeNs(
                e.parse()
                    .map_err(|e| CoreError::parse(format!("bad window end: {e}")))?,
            ),
        )),
    };

    let line = next_line()?;
    let name_count: usize = line
        .strip_prefix("tnames\t")
        .ok_or_else(|| CoreError::parse("expected tnames section".into()))?
        .parse()
        .map_err(|e| CoreError::parse(format!("bad timeline name count: {e}")))?;
    let mut names: Vec<Arc<str>> = Vec::with_capacity(name_count.min(MAX_RESERVE));
    for _ in 0..name_count {
        names.push(Arc::from(unescape(&next_line()?)?.as_str()));
    }

    let mut intervals = Vec::with_capacity(interval_count.min(MAX_RESERVE));
    for _ in 0..interval_count {
        let line = next_line()?;
        intervals.push(parse_interval_line(&line, name_count)?);
    }
    Ok(StoredTimeline {
        intervals,
        names,
        recorded,
        dropped,
        window,
    })
}

fn parse_interval_line(line: &str, name_count: usize) -> Result<Interval, CoreError> {
    let fields: Vec<&str> = line.split('\t').collect();
    if fields.len() != 8 {
        return Err(CoreError::parse("malformed interval line".into()));
    }
    let kind = match fields[4] {
        "K" => IntervalKind::Kernel,
        "M" => IntervalKind::Memcpy,
        other => return Err(CoreError::parse(format!("unknown interval kind {other:?}"))),
    };
    let name_idx: u32 = parse_num(fields[5], "interval name")?;
    if name_idx as usize >= name_count {
        return Err(CoreError::parse(format!(
            "interval name index {name_idx} out of range"
        )));
    }
    let context = match fields[7] {
        "-" => None,
        idx => Some(NodeId(idx.parse::<u32>().map_err(|e| {
            CoreError::parse(format!("bad interval context: {e}"))
        })?)),
    };
    Ok(Interval {
        track: TrackKey {
            device: parse_num(fields[0], "interval device")?,
            stream: parse_num(fields[1], "interval stream")?,
        },
        start: TimeNs(parse_num(fields[2], "interval start")?),
        end: TimeNs(parse_num(fields[3], "interval end")?),
        kind,
        name: Sym(name_idx),
        correlation: parse_num(fields[6], "interval correlation")?,
        context,
    })
}

fn parse_journal_section(
    header_rest: &str,
    next_line: &mut impl FnMut() -> Result<String, CoreError>,
) -> Result<StoredJournal, CoreError> {
    let fields: Vec<&str> = header_rest.split('\t').collect();
    if fields.len() != 3 {
        return Err(CoreError::parse("malformed journal header".into()));
    }
    let event_count: usize = fields[0]
        .parse()
        .map_err(|e| CoreError::parse(format!("bad journal event count: {e}")))?;
    let recorded: u64 = fields[1]
        .parse()
        .map_err(|e| CoreError::parse(format!("bad journal recorded count: {e}")))?;
    let evicted: u64 = fields[2]
        .parse()
        .map_err(|e| CoreError::parse(format!("bad journal evicted count: {e}")))?;

    let line = next_line()?;
    let name_count: usize = line
        .strip_prefix("jnames\t")
        .ok_or_else(|| CoreError::parse("expected jnames section".into()))?
        .parse()
        .map_err(|e| CoreError::parse(format!("bad journal name count: {e}")))?;
    let mut names: Vec<Arc<str>> = Vec::with_capacity(name_count.min(MAX_RESERVE));
    for _ in 0..name_count {
        names.push(Arc::from(unescape(&next_line()?)?.as_str()));
    }

    let mut events = Vec::with_capacity(event_count.min(MAX_RESERVE));
    for _ in 0..event_count {
        let line = next_line()?;
        events.push(parse_journal_event_line(&line, name_count)?);
    }
    Ok(StoredJournal {
        events,
        names,
        recorded,
        evicted,
    })
}

fn parse_journal_event_line(
    line: &str,
    name_count: usize,
) -> Result<StoredJournalEvent, CoreError> {
    let fields: Vec<&str> = line.split('\t').collect();
    if fields.len() < 5 {
        return Err(CoreError::parse("truncated journal event line".into()));
    }
    let site: u32 = parse_num(fields[3], "journal event site")?;
    if site as usize >= name_count {
        return Err(CoreError::parse(format!(
            "journal site index {site} out of range"
        )));
    }
    let severity: u8 = parse_num(fields[2], "journal event severity")?;
    let field_count: usize = parse_num(fields[4], "journal event field count")?;
    if field_count.checked_mul(2).and_then(|n| n.checked_add(5)) != Some(fields.len()) {
        return Err(CoreError::parse(
            "journal event line field count mismatch".into(),
        ));
    }
    let mut kv = Vec::with_capacity(field_count);
    for i in 0..field_count {
        kv.push((
            unescape(fields[5 + 2 * i])?,
            unescape(fields[5 + 2 * i + 1])?,
        ));
    }
    Ok(StoredJournalEvent {
        seq: parse_num(fields[0], "journal event seq")?,
        ts_ns: parse_num(fields[1], "journal event timestamp")?,
        severity,
        site,
        fields: kv,
    })
}

fn frame_field_count(tag: &str) -> Result<usize, CoreError> {
    Ok(match tag {
        "R" => 1,
        "I" => 2,
        "T" => 3,
        "P" | "O" | "N" | "A" | "K" => 4,
        other => return Err(CoreError::parse(format!("unknown frame tag {other:?}"))),
    })
}

type RawNode = (Option<NodeId>, Frame, MetricStore);

/// Parses one node line; `sym_count` is the string table's length.
fn parse_node_line(line: &str, sym_count: usize) -> Result<RawNode, CoreError> {
    let fields: Vec<&str> = line.split('\t').collect();
    if fields.len() < 2 {
        return Err(CoreError::parse("truncated node line".into()));
    }
    let parent = match fields[0] {
        "-" => None,
        idx => Some(NodeId(
            idx.parse::<u32>()
                .map_err(|e| CoreError::parse(format!("bad parent: {e}")))?,
        )),
    };
    let tag = fields[1];
    let nf = frame_field_count(tag)?;
    if fields.len() < 1 + nf + 1 {
        return Err(CoreError::parse("node line too short for frame".into()));
    }
    let frame = Frame::from_record(&fields[1..1 + nf].join("\t"), sym_count)?;
    let metric_count: usize = fields[1 + nf]
        .parse()
        .map_err(|e| CoreError::parse(format!("bad metric count: {e}")))?;
    let mut metrics = MetricStore::new();
    let mut pos = 1 + nf + 1;
    for _ in 0..metric_count {
        if fields.len() < pos + 7 {
            return Err(CoreError::parse("node line too short for metrics".into()));
        }
        let kind = MetricKind::from_record(fields[pos], sym_count)?;
        let stat = MetricStat::from_record_fields(fields[pos + 1..pos + 7].iter().copied())?;
        metrics.merge_stat(kind, &stat);
        pos += 7;
    }
    Ok((parent, frame, metrics))
}

/// Parses one field at its stored width, so an out-of-range value
/// fails instead of wrapping.
pub(crate) fn parse_num<T>(s: &str, what: &str) -> Result<T, CoreError>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    s.parse()
        .map_err(|e| CoreError::parse(format!("bad {what}: {e}")))
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

fn unescape(s: &str) -> Result<String, CoreError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => return Err(CoreError::parse(format!("bad escape \\{other:?}"))),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::OpPhase;
    use crate::metrics::StallReason;

    fn sample_db() -> ProfileDb {
        let mut cct = CallingContextTree::new();
        let i = cct.interner();
        let leaf1 = cct.insert_path(&[
            Frame::python("train.py", 10, "train", &i),
            Frame::operator_with("aten::index", OpPhase::Forward, Some(1), &i),
            Frame::gpu_kernel("index_kernel", "libtorch_cuda.so", 0x44, &i),
        ]);
        let leaf2 = cct.insert_path(&[
            Frame::python("train.py", 10, "train", &i),
            Frame::operator_with("aten::index", OpPhase::Backward, Some(1), &i),
            Frame::gpu_kernel("indexing_backward_kernel", "libtorch_cuda.so", 0x55, &i),
        ]);
        cct.attribute(leaf1, MetricKind::GpuTime, 100.0);
        cct.attribute(leaf2, MetricKind::GpuTime, 900.0);
        cct.attribute(
            leaf2,
            MetricKind::Stall(StallReason::MemoryDependency),
            17.0,
        );
        cct.attribute_exclusive(leaf2, MetricKind::Warps, 64.0);
        ProfileDb::new(
            ProfileMeta {
                workload: "dlrm-small".into(),
                framework: "eager".into(),
                platform: "nvidia-a100".into(),
                iterations: 100,
                host: "node-17".into(),
                model: "dlrm-v2".into(),
                config: "batch=64".into(),
                started: TimeNs(1_000),
                ended: TimeNs(9_000),
                extra: vec![("note".into(), "tab\there".into())],
            },
            cct,
        )
    }

    fn sample_timeline() -> StoredTimeline {
        let names: Vec<Arc<str>> = vec![Arc::from("sgemm"), Arc::from("memcpy")];
        let iv = |device, stream, start, end, kind, name, correlation, context| Interval {
            track: TrackKey { device, stream },
            start: TimeNs(start),
            end: TimeNs(end),
            kind,
            name: Sym(name),
            correlation,
            context,
        };
        StoredTimeline {
            intervals: vec![
                iv(
                    0,
                    0,
                    1_100,
                    1_400,
                    IntervalKind::Kernel,
                    0,
                    1,
                    Some(NodeId(2)),
                ),
                iv(0, 1, 1_200, 1_300, IntervalKind::Memcpy, 1, 2, None),
                iv(
                    1,
                    0,
                    2_000,
                    2_500,
                    IntervalKind::Kernel,
                    0,
                    3,
                    Some(NodeId(3)),
                ),
            ],
            names,
            recorded: 5,
            dropped: 2,
            window: Some((TimeNs(1_000), TimeNs(9_000))),
        }
    }

    #[test]
    fn save_load_round_trip_preserves_everything() {
        let db = sample_db();
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let back = ProfileDb::load(&buf[..]).unwrap();

        assert_eq!(back.meta(), db.meta());
        assert_eq!(back.cct().node_count(), db.cct().node_count());
        assert_eq!(
            back.cct().total(MetricKind::GpuTime),
            db.cct().total(MetricKind::GpuTime)
        );
        // Same render implies same structure, labels and metric sums.
        assert_eq!(
            back.cct().render(MetricKind::GpuTime),
            db.cct().render(MetricKind::GpuTime)
        );
    }

    #[test]
    fn timeline_section_round_trips() {
        let db = sample_db().with_timeline(sample_timeline());
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let back = ProfileDb::load(&buf[..]).unwrap();
        let tl = back.timeline().expect("timeline survived");
        assert_eq!(tl, &sample_timeline());
        assert_eq!(tl.name_of(Sym(0)), Some("sgemm"));
        assert_eq!(tl.name_of(Sym(5)), None);
        assert_eq!(back.meta().started, TimeNs(1_000));
        assert_eq!(back.meta().ended, TimeNs(9_000));
        assert_eq!(back.meta().host, "node-17");
    }

    #[test]
    fn profile_without_timeline_loads_as_none() {
        let db = sample_db();
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        assert!(ProfileDb::load(&buf[..]).unwrap().timeline().is_none());
    }

    fn sample_journal() -> StoredJournal {
        StoredJournal {
            events: vec![
                StoredJournalEvent {
                    seq: 1,
                    ts_ns: 1_500,
                    severity: 1,
                    site: 0,
                    fields: vec![
                        ("from".into(), "Healthy".into()),
                        ("to".into(), "Degraded".into()),
                    ],
                },
                StoredJournalEvent {
                    seq: 2,
                    ts_ns: 1_700,
                    severity: 2,
                    site: 1,
                    fields: vec![("shard".into(), "3".into())],
                },
                StoredJournalEvent {
                    seq: 4,
                    ts_ns: 2_400,
                    severity: 0,
                    site: 2,
                    fields: Vec::new(),
                },
            ],
            names: vec![
                Arc::from("supervisor.transition"),
                Arc::from("shard.quarantine"),
                Arc::from("pipeline.epoch"),
            ],
            recorded: 4,
            evicted: 1,
        }
    }

    #[test]
    fn v1_and_v2_magic_still_load() {
        let db = sample_db();
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for old in [MAGIC_V1, MAGIC_V2] {
            let downgraded = text.replacen(MAGIC_V3, old, 1);
            let back = ProfileDb::load(downgraded.as_bytes()).unwrap();
            assert_eq!(back.meta(), db.meta());
            let meta = ProfileDb::load_meta(downgraded.as_bytes()).unwrap();
            assert_eq!(&meta, db.meta());
        }
    }

    #[test]
    fn journal_section_round_trips() {
        // With and without a timeline section preceding it.
        for with_timeline in [false, true] {
            let mut db = sample_db().with_journal(sample_journal());
            if with_timeline {
                db = db.with_timeline(sample_timeline());
            }
            let mut buf = Vec::new();
            db.save(&mut buf).unwrap();
            let back = ProfileDb::load(&buf[..]).unwrap();
            let j = back.journal().expect("journal survived");
            assert_eq!(j, &sample_journal());
            assert_eq!(j.recorded, j.event_count() as u64 + j.evicted);
            assert!(j.has_site("shard.quarantine"));
            assert_eq!(back.timeline().is_some(), with_timeline);
        }
    }

    #[test]
    fn profile_without_journal_loads_as_none() {
        let db = sample_db();
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        assert!(ProfileDb::load(&buf[..]).unwrap().journal().is_none());
    }

    #[test]
    fn corrupt_journal_section_errors_not_panics() {
        let db = sample_db().with_journal(sample_journal());
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let body_at = text.find("journal\t").unwrap();
        let (head, tail) = text.split_at(body_at);
        // Event referencing a site index past the captured name table.
        let bad = format!("{head}{}", tail.replacen("\t2\t1\t1\t", "\t2\t1\t9\t", 1));
        assert!(ProfileDb::load(bad.as_bytes()).is_err());
        // Field-count mismatch against the declared count.
        let bad = format!(
            "{head}{}",
            tail.replacen("\t1\tshard\t3", "\t2\tshard\t3", 1)
        );
        assert!(ProfileDb::load(bad.as_bytes()).is_err());
        // Truncation inside the journal body.
        let cut = text.find("jnames\t").unwrap() + 3;
        assert!(ProfileDb::load(&text.as_bytes()[..cut]).is_err());
    }

    #[test]
    fn load_meta_reads_header_only() {
        let db = sample_db().with_timeline(sample_timeline());
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let meta = ProfileDb::load_meta(&buf[..]).unwrap();
        assert_eq!(&meta, db.meta());
        // Header-only reads also work on inputs truncated after the meta
        // lines, which is the point: listings never parse the body.
        let text = String::from_utf8(buf).unwrap();
        let header: String = text
            .lines()
            .take_while(|l| !l.starts_with("strings\t"))
            .flat_map(|l| [l, "\n"])
            .collect();
        let meta = ProfileDb::load_meta(format!("{header}strings\t0\n").as_bytes()).unwrap();
        assert_eq!(&meta, db.meta());
    }

    #[test]
    fn corrupt_timeline_section_errors_not_panics() {
        let db = sample_db().with_timeline(sample_timeline());
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let body_at = text.find("timeline\t").unwrap();
        let (head, tail) = text.split_at(body_at);
        // Interval referencing a name index past the captured table.
        let bad = format!("{head}{}", tail.replacen("\tK\t0\t1\t", "\tK\t99\t1\t", 1));
        assert!(ProfileDb::load(bad.as_bytes()).is_err());
        // Unknown interval kind tag.
        let bad = format!("{head}{}", tail.replacen("\tK\t0\t1\t", "\tQ\t0\t1\t", 1));
        assert!(ProfileDb::load(bad.as_bytes()).is_err());
        // Truncation inside the timeline body.
        let cut = text.find("tnames\t").unwrap() + 3;
        assert!(ProfileDb::load(&text.as_bytes()[..cut]).is_err());
    }

    /// `text` with the field at `col` of the first line whose fields
    /// satisfy `pick` replaced by `value`.
    fn with_field(text: &str, pick: impl Fn(&[&str]) -> bool, col: usize, value: &str) -> String {
        let mut done = false;
        let mut out = String::new();
        for line in text.lines() {
            let mut fields: Vec<&str> = line.split('\t').collect();
            if !done && pick(&fields) {
                fields[col] = value;
                done = true;
            }
            out.push_str(&fields.join("\t"));
            out.push('\n');
        }
        assert!(done, "no line to edit");
        out
    }

    #[test]
    fn corrupt_node_section_errors_not_panics() {
        let db = sample_db()
            .with_timeline(sample_timeline())
            .with_journal(sample_journal());
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let kernel = |f: &[&str]| f.len() > 2 && f[1] == "K";
        let operator = |f: &[&str]| f.len() > 2 && f[1] == "O";
        let interval = |f: &[&str]| f.len() == 8 && f[4] == "K";
        let event = |f: &[&str]| f.len() == 9 && f[7] == "to";
        let bad = [
            // Symbols past the string table.
            with_field(&text, kernel, 2, "999"),
            with_field(&text, kernel, 3, "999"),
            // Narrow fields that would wrap to a valid value.
            with_field(&text, kernel, 2, "4294967296"),
            with_field(&text, operator, 3, "256"),
            with_field(&text, interval, 0, "4294967296"),
            with_field(&text, interval, 1, "4294967296"),
            with_field(&text, interval, 5, "4294967296"),
            with_field(&text, event, 3, "4294967296"),
            // A custom metric naming a missing string; a base metric code
            // that would wrap to GpuTime.
            with_field(&text, kernel, 6, "C999"),
            with_field(&text, kernel, 6, "B256"),
            // Oversized section counts.
            with_field(&text, |f| f[0] == "strings", 1, "99999999999999999"),
            with_field(&text, |f| f[0] == "nodes", 1, "99999999999999999"),
            with_field(&text, |f| f[0] == "timeline", 1, "99999999999999999"),
            with_field(&text, |f| f[0] == "tnames", 1, "99999999999999999"),
            with_field(&text, |f| f[0] == "journal", 1, "99999999999999999"),
            with_field(&text, |f| f[0] == "jnames", 1, "99999999999999999"),
            with_field(&text, event, 4, "9223372036854775807"),
        ];
        for (i, text) in bad.iter().enumerate() {
            assert!(ProfileDb::load(text.as_bytes()).is_err(), "case {i}");
        }
        // A repeated string-table entry would shift every later symbol.
        let mut lines: Vec<&str> = text.lines().collect();
        let strings = lines
            .iter()
            .position(|l| l.starts_with("strings\t"))
            .unwrap();
        lines[strings + 2] = lines[strings + 1];
        let dup = lines.join("\n") + "\n";
        assert!(ProfileDb::load(dup.as_bytes()).is_err(), "duplicate string");
    }

    #[test]
    fn load_rejects_bad_magic() {
        let err = ProfileDb::load(&b"not a profile\n"[..]).unwrap_err();
        assert!(err.to_string().contains("magic"));
        assert!(ProfileDb::load(&b"deepcontext-profile v9\n"[..]).is_err());
        assert!(ProfileDb::load_meta(&b"not a profile\n"[..]).is_err());
    }

    #[test]
    fn load_rejects_truncation() {
        let db = sample_db();
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let cut = buf.len() / 2;
        assert!(ProfileDb::load(&buf[..cut]).is_err());
    }

    #[test]
    fn escape_round_trips() {
        for s in ["plain", "with\ttab", "with\nnewline", "back\\slash", ""] {
            assert_eq!(unescape(&escape(s)).unwrap(), s);
        }
    }

    #[test]
    fn empty_tree_round_trips() {
        let db = ProfileDb::new(ProfileMeta::default(), CallingContextTree::new());
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let back = ProfileDb::load(&buf[..]).unwrap();
        assert_eq!(back.cct().node_count(), 1);
    }
}
