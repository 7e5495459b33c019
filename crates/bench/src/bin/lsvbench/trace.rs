//! In-process span recording for traced runs.
//!
//! A worker process records one span per item and one child span per public
//! library call it makes (plus probe spans, the extra work only traced runs
//! do). Spans stay in memory and are written to stdout as `span` lines when
//! the worker finishes; the parent turns them into the Perfetto timeline and
//! the per-layer metrics. An untraced worker's recorder is off, and its
//! spans cost one branch.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Span category: the item itself, a public library call, or a probe.
pub const ITEM: &str = "item";
/// Category of a span around one public library call.
pub const CALL: &str = "call";
/// Category of a traced-run-only probe (excluded from traced throughput).
pub const PROBE: &str = "probe";

/// One recorded span. Times are nanoseconds since the recording process
/// started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the item the span belongs to (position in the worker's list).
    pub item: usize,
    /// Index of the enclosing span in the same process, if any.
    pub parent: Option<usize>,
    /// [`ITEM`], [`CALL`] or [`PROBE`].
    pub cat: String,
    /// `layer.function`, e.g. `perf.bench_layer`.
    pub name: String,
    /// Start, ns since process start.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Arguments as `(key, JSON fragment)` pairs.
    pub args: Vec<(String, String)>,
}

impl Span {
    /// The layer this span is attributed to: the name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }

    /// One tab-separated `span` line (the worker-to-parent wire format).
    pub fn to_line(&self) -> String {
        let parent = self.parent.map_or("-".to_string(), |p| p.to_string());
        let args: Vec<String> = self.args.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!(
            "span\t{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
            self.item,
            self.cat,
            self.name,
            self.start_ns,
            self.dur_ns,
            if args.is_empty() {
                "-".to_string()
            } else {
                args.join(";")
            }
        )
    }

    /// Parse a line written by [`Span::to_line`].
    pub fn parse(line: &str) -> Result<Span, String> {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 8 || f[0] != "span" {
            return Err(format!("malformed span line: {line:?}"));
        }
        let num = |s: &str| {
            s.parse::<u64>()
                .map_err(|e| format!("span field {s:?}: {e}"))
        };
        let parent = match f[2] {
            "-" => None,
            p => Some(num(p)? as usize),
        };
        let args = match f[7] {
            "-" => Vec::new(),
            a => a
                .split(';')
                .map(|kv| {
                    kv.split_once('=')
                        .map(|(k, v)| (k.to_string(), v.to_string()))
                        .ok_or_else(|| format!("span arg {kv:?}"))
                })
                .collect::<Result<_, _>>()?,
        };
        Ok(Span {
            item: num(f[1])? as usize,
            parent,
            cat: f[3].to_string(),
            name: f[4].to_string(),
            start_ns: num(f[5])?,
            dur_ns: num(f[6])?,
            args,
        })
    }

    /// Numeric argument `key`, if present.
    pub fn arg(&self, key: &str) -> Option<f64> {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
    item: usize,
}

/// Span recorder of one worker process.
pub struct Tracer {
    on: bool,
    t0: Instant,
    inner: RefCell<Inner>,
    probe_ns: Cell<u64>,
}

/// Closes its span when dropped, including while a panic unwinds out of the
/// traced call, so a caught panic never leaves a span open.
struct Open<'a> {
    tracer: &'a Tracer,
    id: usize,
    probe: bool,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let now = self.tracer.now_ns();
        if let Ok(mut inner) = self.tracer.inner.try_borrow_mut() {
            let span = &mut inner.spans[self.id];
            span.dur_ns = now.saturating_sub(span.start_ns);
            if self.probe {
                self.tracer
                    .probe_ns
                    .set(self.tracer.probe_ns.get() + span.dur_ns);
            }
            inner.stack.retain(|&i| i != self.id);
        }
    }
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool, t0: Instant) -> Self {
        Self {
            on,
            t0,
            inner: RefCell::new(Inner::default()),
            probe_ns: Cell::new(0),
        }
    }

    /// Total ns spent in [`PROBE`] spans so far.
    pub fn probe_ns(&self) -> u64 {
        self.probe_ns.get()
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Attribute the following spans to item `idx`.
    pub fn set_item(&self, idx: usize) {
        let mut inner = self.inner.borrow_mut();
        inner.item = idx;
        inner.stack.clear();
    }

    /// Run `f` inside a span; returns its result and the span id (`None`
    /// when tracing is off).
    pub fn span<R>(&self, cat: &str, name: &str, f: impl FnOnce() -> R) -> (R, Option<usize>) {
        if !self.on {
            return (f(), None);
        }
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.spans.len();
            let span = Span {
                item: inner.item,
                parent: inner.stack.last().copied(),
                cat: cat.to_string(),
                name: name.to_string(),
                start_ns: self.now_ns(),
                dur_ns: 0,
                args: Vec::new(),
            };
            inner.spans.push(span);
            inner.stack.push(id);
            id
        };
        let guard = Open {
            tracer: self,
            id,
            probe: cat == PROBE,
        };
        let out = f();
        drop(guard);
        (out, Some(id))
    }

    /// Attach arguments (values are JSON fragments) to a recorded span.
    pub fn args(&self, id: Option<usize>, args: &[(&str, String)]) {
        if let Some(id) = id {
            let mut inner = self.inner.borrow_mut();
            inner.spans[id]
                .args
                .extend(args.iter().map(|(k, v)| (k.to_string(), v.clone())));
        }
    }

    /// The recorded spans, in start order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.inner.borrow_mut().spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_round_trip_through_lines() {
        let t = Tracer::new(true, Instant::now());
        t.set_item(3);
        let (_, outer) = t.span(ITEM, "item.x", || {
            let (v, inner) = t.span(CALL, "perf.bench_layer", || 7);
            t.args(inner, &[("hit", "1".to_string())]);
            v
        });
        assert_eq!(outer, Some(0));
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].layer(), "perf");
        assert!(spans[0].dur_ns >= spans[1].dur_ns);
        for s in &spans {
            assert_eq!(&Span::parse(&s.to_line()).unwrap(), s);
        }
        assert_eq!(spans[1].arg("hit"), Some(1.0));
    }

    #[test]
    fn a_caught_panic_closes_its_span() {
        let t = Tracer::new(true, Instant::now());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.span(CALL, "verify.validate", || panic!("boom"))
        }));
        assert!(r.is_err());
        let (_, id) = t.span(CALL, "verify.validate", || ());
        let spans = t.take();
        assert_eq!(spans[id.unwrap()].parent, None, "stack was unwound");
    }
}
