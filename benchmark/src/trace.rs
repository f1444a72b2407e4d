//! Spans recorded by the harness around every call into a layer.
//!
//! A span is named `<layer>.<operation>`; the layer is everything before the
//! first dot. Spans are kept in memory and written as JSON lines when the
//! run ends. A layer's *self time* is its spans' durations minus the part
//! their direct children cover, so nested layers are never counted twice.
//!
//! A disabled tracer reads no clock and allocates nothing, so the untraced
//! run measures the program alone.

use crate::json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// The span every repetition's spans hang under.
pub const ROOT: &str = "harness.repetition";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the recording, `None` for a root.
    pub parent: Option<usize>,
    /// The repetition the span belongs to (the "request id" of this harness).
    pub repetition: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The part of the name before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name
            .split_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }
}

#[derive(Debug)]
struct Recording {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    repetition: u32,
}

/// Span recorder. Shared by reference between the harness and the closures
/// it hands to the program (unit solvers, validators), hence the `RefCell`;
/// the harness itself is single-threaded.
#[derive(Debug)]
pub struct Tracer {
    recording: Option<RefCell<Recording>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Tracer {
    pub fn disabled() -> Tracer {
        Tracer { recording: None }
    }

    pub fn enabled() -> Tracer {
        Tracer {
            recording: Some(RefCell::new(Recording {
                origin: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
                repetition: 0,
            })),
        }
    }

    /// Stamps the spans opened from now on with this repetition number.
    pub fn set_repetition(&self, repetition: u32) {
        if let Some(recording) = &self.recording {
            recording.borrow_mut().repetition = repetition;
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let index = self.recording.as_ref().map(|recording| {
            let mut rec = recording.borrow_mut();
            let now = rec.origin.elapsed().as_nanos() as u64;
            let span = Span {
                name,
                parent: rec.open.last().copied(),
                repetition: rec.repetition,
                start_ns: now,
                end_ns: now,
            };
            rec.spans.push(span);
            let index = rec.spans.len() - 1;
            rec.open.push(index);
            index
        });
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Records a child span for a duration that a public result of the
    /// program carries itself (`SolveReport::wall_time` and the like): the
    /// span ends now and lasts `duration`, clipped to its parent's start.
    pub fn reported(&self, name: &'static str, duration: Duration) {
        if let Some(recording) = &self.recording {
            let mut rec = recording.borrow_mut();
            let now = rec.origin.elapsed().as_nanos() as u64;
            let parent = rec.open.last().copied();
            let floor = parent.map_or(0, |p| rec.spans[p].start_ns);
            let start_ns = now.saturating_sub(duration.as_nanos() as u64).max(floor);
            let repetition = rec.repetition;
            rec.spans.push(Span {
                name,
                parent,
                repetition,
                start_ns,
                end_ns: now,
            });
        }
    }

    /// The finished spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.recording
            .as_ref()
            .map_or_else(Vec::new, |r| r.borrow().spans.clone())
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let (Some(index), Some(recording)) = (self.index, &self.tracer.recording) else {
            return;
        };
        let mut rec = recording.borrow_mut();
        rec.spans[index].end_ns = rec.origin.elapsed().as_nanos() as u64;
        // Guards drop in reverse order of creation, so the span being closed
        // is the innermost open one.
        let closed = rec.open.pop();
        debug_assert_eq!(closed, Some(index), "spans close innermost first");
    }
}

/// Self time of every span: its duration minus what its direct children
/// cover. Reported children of one parent all end at the instant they were
/// reported and may overlap each other, so their sum is capped at the
/// parent's duration.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, covered)| span.duration_ns().saturating_sub(covered))
        .collect()
}

/// What the spans of a traced run add up to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Total wall time under [`ROOT`] spans, seconds.
    pub root_s: f64,
    /// Self seconds per layer (the root's own layer, `harness`, included:
    /// that is the time no named layer span covers).
    pub layer_self_s: BTreeMap<&'static str, f64>,
    /// Total seconds per span name (set-up and differential spans included).
    pub by_name: BTreeMap<&'static str, f64>,
}

impl Profile {
    pub fn from_spans(spans: &[Span]) -> Profile {
        let mut profile = Profile::default();
        // A parent is recorded before its children, so one forward pass
        // knows which spans sit under a repetition root (set-up spans and
        // differential passes do not, and take no share of the timed wall).
        let mut timed = vec![false; spans.len()];
        for (i, (span, self_ns)) in spans.iter().zip(self_times_ns(spans)).enumerate() {
            let seconds = span.duration_ns() as f64 * 1e-9;
            timed[i] = span.name == ROOT || span.parent.is_some_and(|p| timed[p]);
            if span.name == ROOT {
                profile.root_s += seconds;
            }
            if timed[i] {
                *profile.layer_self_s.entry(span.layer()).or_insert(0.0) += self_ns as f64 * 1e-9;
            }
            *profile.by_name.entry(span.name).or_insert(0.0) += seconds;
        }
        profile
    }

    /// Share of the repetitions' wall time spent in `layer` itself.
    pub fn share(&self, layer: &str) -> f64 {
        if self.root_s == 0.0 {
            return 0.0;
        }
        self.layer_self_s.get(layer).copied().unwrap_or(0.0) / self.root_s
    }

    /// Total seconds under spans called `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.by_name.get(name).copied().unwrap_or(0.0)
    }
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {id}, \"parent\": {parent}, \"workload\": {}, \"repetition\": {}, \
             \"layer\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            json::string(workload),
            span.repetition,
            json::string(span.layer()),
            json::string(span.name),
            span.start_ns,
            span.end_ns,
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            repetition: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span(ROOT, None, 0, 100),
            span("distrib.run", Some(0), 10, 90),
            span("solve_mode.unit", Some(1), 20, 50),
            span("oracle.batch", Some(2), 25, 45),
            span("checker.validate", Some(1), 60, 70),
        ];
        // root: 100 - 80; run: 80 - 30 - 10; unit: 30 - 20; leaves: whole.
        assert_eq!(self_times_ns(&spans), vec![20, 40, 10, 20, 10]);
    }

    #[test]
    fn overlapping_reported_children_never_make_self_time_negative() {
        let spans = [
            span("driver.run", None, 0, 100),
            span("oracle.batches", Some(0), 30, 100),
            span("oracle.batches", Some(0), 40, 100),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 70, 60]);
    }

    #[test]
    fn profile_attributes_every_nanosecond_of_the_root_once() {
        let spans = [
            span(ROOT, None, 0, 1_000_000_000),
            span("driver.run", Some(0), 0, 800_000_000),
            span("oracle.batches", Some(1), 100_000_000, 800_000_000),
        ];
        let profile = Profile::from_spans(&spans);
        assert!((profile.root_s - 1.0).abs() < 1e-12);
        assert!((profile.share("harness") - 0.2).abs() < 1e-12);
        assert!((profile.share("driver") - 0.1).abs() < 1e-12);
        assert!((profile.share("oracle") - 0.7).abs() < 1e-12);
        assert_eq!(profile.share("checker"), 0.0);
        assert!((profile.seconds("driver.run") - 0.8).abs() < 1e-12);
    }

    #[test]
    fn guards_nest_and_reported_spans_clip_to_their_parent() {
        let tracer = Tracer::enabled();
        tracer.set_repetition(3);
        {
            let _root = tracer.enter(ROOT);
            let _inner = tracer.enter("solve_mode.solve_cubes");
            tracer.reported("oracle.batch", Duration::from_secs(3600));
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].layer(), "oracle");
        assert!(spans.iter().all(|s| s.repetition == 3));
        // An hour cannot fit: the reported span starts where its parent does.
        assert_eq!(spans[2].start_ns, spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        {
            let _g = tracer.enter(ROOT);
            tracer.reported("oracle.batch", Duration::from_millis(1));
        }
        assert!(tracer.spans().is_empty());
    }
}
