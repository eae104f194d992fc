//! Spans the benchmark records around its own calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), the model and ladder rung it
//! ran for, the episode, its start and end, and the span that caused it
//! (the one open when it started). Spans stay in memory and are written
//! out once, when the run ends. With tracing off, [`Tracer::span`] only
//! calls its closure.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use crate::session::Rung;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `profiler.finish`.
    pub name: &'static str,
    /// Model the call ran for.
    pub model: &'static str,
    /// Ladder rung of the session the call ran in.
    pub rung: Rung,
    /// Episode number, from 0.
    pub episode: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Where a span ran: model, rung and episode.
#[derive(Debug, Clone, Copy)]
pub struct Site {
    /// Model name.
    pub model: &'static str,
    /// Ladder rung.
    pub rung: Rung,
    /// Episode number.
    pub episode: u32,
}

/// In-memory span recorder for a single-threaded run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` at `site`.
    pub fn span<R>(&self, name: &'static str, site: Site, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                model: site.model,
                rung: site.rung,
                episode: site.episode,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"model\":\"{}\",\"rung\":\"{}\",\"episode\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name,
                s.model,
                s.rung.label(),
                s.episode,
                s.start_ns,
                s.end_ns
            );
            out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

/// Self time of each span: its duration minus the part its direct
/// children cover, in milliseconds, indexed like `spans`.
pub fn self_ms(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::ms).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.ms();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> Site {
        Site {
            model: "m",
            rung: Rung::Base,
            episode: 0,
        }
    }

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let t = Tracer::new(true);
        t.span("outer", site(), || {
            t.span("inner", site(), || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        let own = self_ms(&spans);
        assert!(own[0] >= 0.0 && own[0] < spans[0].ms());
        assert!(t.to_json().contains("\"parent\":0"));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", site(), || 7), 7);
        assert!(t.spans().is_empty());
    }
}
