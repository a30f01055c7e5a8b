//! A harness-local span recorder. Spans wrap the calls into each layer's
//! public functions; they are kept in memory and written out when the run
//! ends. Spans inside the program are a later change.

use exa_wire::json::JsonWriter;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Nanoseconds from the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation (one evaluation, one request) share a run id.
    pub run: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans on the harness thread.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new operation: spans opened from here share a fresh run id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span; returns the span's index and `f`'s result.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> (usize, T) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (id, result)
    }

    /// A leaf span around `f`; returns its seconds and `f`'s result.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (f64, T) {
        let (id, result) = self.scope(name, |_| f());
        (self.spans[id].seconds(), result)
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Seconds of span `id` covered by its direct children.
    pub fn child_seconds(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::seconds)
            .sum()
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_seconds(&self, id: usize) -> f64 {
        self.spans[id].seconds() - self.child_seconds(id)
    }

    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_array();
        for (id, s) in self.spans.iter().enumerate() {
            w.begin_object();
            w.field_uint("id", id as u64);
            w.field_str("name", &s.name);
            w.field_uint("start_ns", s.start_ns);
            w.field_uint("end_ns", s.end_ns);
            w.key("parent");
            match s.parent {
                Some(p) => w.uint(p as u64),
                None => w.null(),
            }
            w.field_uint("run", s.run);
            w.end_object();
        }
        w.end_array();
        w.finish()
    }

    /// Writes the spans to `out/trace_<workload>.json` beside this package's
    /// manifest. A failure is reported, not fatal: the metrics were already
    /// taken.
    pub fn write(&self, workload: &str) {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace_{workload}.json"));
        let result =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, self.to_json()));
        match result {
            Ok(()) => eprintln!("trace: {} spans -> {}", self.len(), path.display()),
            Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut rec = Recorder::default();
        let (outer, ()) = rec.scope("outer", |rec| {
            rec.time("a", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            rec.time("b", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.span(1).parent, Some(outer));
        let covered = rec.child_seconds(outer);
        assert!(covered >= 0.004);
        let own = rec.self_seconds(outer);
        assert!((0.0..0.002).contains(&own), "self time {own}");
        assert!(rec.to_json().contains("\"name\":\"outer\""));
    }
}
