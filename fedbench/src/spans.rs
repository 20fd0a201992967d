//! In-memory spans for the traced run: `{name, op, parent, start_ns,
//! end_ns}`, pushed to a `Vec` and written out once at the end.
//!
//! The spans are recorded from the benchmark's side of the public API. A
//! *probe* is a span that replays, outside its parent's interval, one public
//! call the parent made internally (the engine has no spans of its own yet);
//! it is attached to that parent so that self time — a span minus its
//! children — means the same for real children and for probes.

use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The operation (query, write or serve run) the span belongs to.
    pub op: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    op: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { t0: Instant::now(), op: 0, spans: Vec::with_capacity(1 << 16) }
    }

    /// Starts the next operation; spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` ([`NO_PARENT`] for a root) and returns its id.
    pub fn begin(&mut self, name: &'static str, parent: u32) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span { name, op: self.op, parent, start_ns: now, end_ns: now });
        id
    }

    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span under `parent`; returns the span id with `f`'s result.
    pub fn span<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> (u32, R) {
        let id = self.begin(name, parent);
        let r = f();
        self.end(id);
        (id, r)
    }

    pub fn dur_us(&self, id: u32) -> f64 {
        self.spans[id as usize].dur_ns() as f64 / 1e3
    }

    /// A span's duration minus its children's, in µs. Probes can outlast the
    /// call they replay, so the result may be negative; it is not clamped.
    pub fn self_us(&self, id: u32) -> f64 {
        self_ns(&self.spans, id) as f64 / 1e3
    }

    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT { "null".into() } else { s.parent.to_string() };
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, parent, s.start_ns, s.end_ns
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

fn self_ns(spans: &[Span], id: u32) -> i64 {
    // Children are pushed after their parent and within its operation.
    let me = &spans[id as usize];
    let children: u64 = spans[id as usize + 1..]
        .iter()
        .take_while(|s| s.op == me.op)
        .filter(|s| s.parent == id)
        .map(Span::dur_ns)
        .sum();
    me.dur_ns() as i64 - children as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "s", op: 1, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span(NO_PARENT, 0, 100),
            span(0, 10, 40),
            span(0, 40, 90),
            span(1, 15, 20), // grandchild: counts against span 1 only
        ];
        assert_eq!(self_ns(&spans, 0), 20);
        assert_eq!(self_ns(&spans, 1), 25);
        assert_eq!(self_ns(&spans, 3), 5);
    }

    #[test]
    fn probes_may_drive_self_time_negative() {
        // A probe replayed after its parent ended, and slower than it.
        let spans = vec![span(NO_PARENT, 0, 50), span(0, 60, 130)];
        assert_eq!(self_ns(&spans, 0), -20);
    }

    #[test]
    fn tracer_nests_and_serialises() {
        let mut t = Tracer::new();
        t.next_op();
        let root = t.begin("root", NO_PARENT);
        let (child, v) = t.span("child", root, || 7);
        t.end(root);
        assert_eq!(v, 7);
        assert_eq!(t.spans[child as usize].parent, root);
        assert!(t.self_us(root) >= 0.0);
        let doc = crate::json::parse(&t.to_json()).unwrap();
        assert_eq!(doc.items().len(), 2);
        assert_eq!(doc.items()[0].get("parent"), Some(&crate::json::Value::Null));
        assert_eq!(doc.items()[1].get("op").and_then(|v| v.as_f64()), Some(1.0));
    }
}
