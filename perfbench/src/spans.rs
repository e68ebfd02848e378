//! The traced run's span recorder: spans (name, start, end, parent) kept
//! in memory and written out when the run ends. Spans are opened by the
//! benchmark around its calls into each module's public functions, so
//! the program itself runs unmodified.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed or open span. Times are seconds since the recorder began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Single-threaded span recorder.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order.
    pub fn exit(&mut self, id: usize) {
        let end = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans closed out of order");
        self.spans[id].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let value = f();
        self.exit(id);
        value
    }

    /// Records an interval measured elsewhere as a closed span under
    /// `parent`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span `id`'s duration minus the part its children cover. Children
    /// of a single-threaded recorder never overlap one another.
    pub fn self_time(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .fold(0.0, |total, s| total + s.dur());
        self.spans[id].dur() - children
    }

    /// Total duration of the spans named `name` that lie inside span
    /// `root` (at any depth).
    pub fn total_within(&self, root: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && self.inside(*i, root))
            .fold(0.0, |total, (_, s)| total + s.dur())
    }

    /// Whether span `i` is `root` or one of its descendants.
    fn inside(&self, mut i: usize, root: usize) -> bool {
        loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \"parent\": {parent}}}",
                s.name, s.start, s.end
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new();
        let root = r.enter("root");
        r.time("a", || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        let b = r.enter("b");
        r.time("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.exit(b);
        r.exit(root);
        assert!(r.total_within(root, "a") >= 0.005);
        assert!((r.total_within(b, "a") - (r.spans()[b].dur() - r.self_time(b))).abs() < 1e-12);
        let children = r.total_within(root, "a") - r.total_within(b, "a") + r.spans()[b].dur();
        assert!((r.self_time(root) - (r.spans()[root].dur() - children)).abs() < 1e-12);
        assert_eq!(r.spans()[b].parent, Some(root));
    }
}
