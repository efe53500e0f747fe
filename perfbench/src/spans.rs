//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into the workspace's public
//! functions; each records its name, the layer it charges, start, end and
//! the span that was open when it began. Nothing is recorded while the
//! recorder is off, so an untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span; times are nanoseconds since the
/// recorder was created.
struct Span {
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

pub struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between spans (an open span still
    /// closes normally).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; hand the returned token to [`Recorder::end`].
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> bool {
        if !self.on {
            return false;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        true
    }

    /// Closes the innermost open span if `begin` opened one, whether or
    /// not recording has been switched off since.
    pub fn end(&mut self, opened: bool) {
        if !opened {
            return;
        }
        if let Some(id) = self.open.pop() {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let opened = self.begin(layer, name);
        let r = f();
        self.end(opened);
        r
    }

    fn dur_s(s: &Span) -> f64 {
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Durations in seconds of every span called `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Self::dur_s)
            .collect()
    }

    /// Summed self time in seconds of every span called `name`: its
    /// duration minus the time its child spans cover.
    pub fn self_total(&self, name: &str) -> f64 {
        let self_s = self.self_times();
        self.spans
            .iter()
            .zip(&self_s)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    fn self_times(&self) -> Vec<f64> {
        let mut self_s: Vec<f64> = self.spans.iter().map(Self::dur_s).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_s[p] -= Self::dur_s(s);
            }
        }
        self_s
    }

    /// Self time in seconds charged to each layer.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut by = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *by.entry(s.layer).or_insert(0.0) += t;
        }
        by
    }

    /// Share of the time inside spans called `root` that their direct
    /// children cover: the part of the timed units that a layer call
    /// accounts for, as opposed to benchmark glue between calls.
    pub fn coverage(&self, root: &str) -> f64 {
        let (mut whole, mut covered) = (0.0, 0.0);
        for s in &self.spans {
            if s.name == root {
                whole += Self::dur_s(s);
            } else if let Some(p) = s.parent {
                if self.spans[p].name == root && self.spans[p].parent.is_none() {
                    covered += Self::dur_s(s);
                }
            }
        }
        if whole > 0.0 {
            covered / whole
        } else {
            0.0
        }
    }

    /// Writes the spans as a Chrome trace (loadable in Perfetto); each
    /// event carries its span id and its parent's id.
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        let mut s = String::from("{\"traceEvents\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let parent = sp
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                sp.name,
                sp.layer,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3
            );
        }
        s.push_str("\n]}\n");
        std::fs::write(path, s)
    }
}
