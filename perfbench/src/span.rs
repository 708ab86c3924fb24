//! Spans recorded around the benchmark's calls into each layer's
//! public functions. They live in memory for the whole run and are
//! written out as JSON lines when it ends; nothing is recorded inside
//! the crates under test.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `lang.parse`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The program index or request number the span belongs to.
    pub owner: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span recorder with an explicit stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn open(&mut self, name: &'static str, owner: u64) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            owner,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, owner: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, owner);
        let out = f();
        self.close(id);
        out
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span named `name`.
    pub fn ms_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Every span nested anywhere under span `root`. Spans are recorded
    /// parent first, so the scan can start right after `root`.
    pub fn under(&self, root: usize) -> impl Iterator<Item = &Span> {
        let mut inside = vec![false; self.spans.len()];
        inside[root] = true;
        self.spans
            .iter()
            .enumerate()
            .skip(root + 1)
            .filter_map(move |(i, s)| {
                let nested = s.parent.is_some_and(|p| inside[p]);
                inside[i] = nested;
                nested.then_some(s)
            })
    }

    /// Sum of the durations (ms) of the spans named `name` under `root`.
    pub fn sum_under(&self, root: usize, name: &str) -> f64 {
        self.under(root)
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// How many spans named `name` lie under `root`.
    pub fn count_under(&self, root: usize, name: &str) -> usize {
        self.under(root).filter(|s| s.name == name).count()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"owner":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.owner
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_sums_follow_the_span_tree() {
        let mut t = Tracer::default();
        let a = t.open("pass", 0);
        t.time("layer", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let inner = t.open("program", 2);
        t.time("layer", 2, || ());
        t.close(inner);
        t.close(a);
        let b = t.open("pass", 1);
        t.time("layer", 3, || ());
        t.close(b);
        assert_eq!(t.spans()[inner].parent, Some(a));
        assert_eq!(t.spans()[inner + 1].parent, Some(inner));
        let under_a = t.sum_under(a, "layer");
        assert!(under_a >= 2.0, "{under_a}");
        assert!(t.sum_under(b, "layer") < under_a);
        assert_eq!(
            (t.count_under(a, "layer"), t.count_under(b, "layer")),
            (2, 1)
        );
    }
}
