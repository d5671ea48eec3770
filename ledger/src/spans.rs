//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program has no spans of its own yet; these are taken from the
//! benchmark's side of every public call, kept in a pre-allocated buffer
//! and written out when the pass ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval. `parent == 0` marks a root; ids start at 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// The rung's key for a root (`R2`), `<rung>/<call>` for the call
    /// under it (`R2/serve.call`).
    pub name: &'static str,
    /// Index of the request within its rung's stream; spans of one
    /// request share it.
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans of one traced pass, with timestamps relative to its start.
pub struct SpanBuf {
    base: Instant,
    pub spans: Vec<Span>,
}

impl SpanBuf {
    pub fn with_capacity(n: usize) -> SpanBuf {
        SpanBuf { base: Instant::now(), spans: Vec::with_capacity(n) }
    }

    /// Records `[start, end]` under `parent` and returns the new span's id.
    pub fn push(
        &mut self,
        parent: u32,
        name: &'static str,
        request: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns: start.saturating_duration_since(self.base).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.base).as_nanos() as u64,
        });
        id
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
/// Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else { return dur };
            kids.sort_unstable();
            let mut covered = 0;
            let mut frontier = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(frontier), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    frontier = b;
                }
            }
            dur - covered
        })
        .collect()
}

/// Appends `spans` to `out` as JSON lines tagged with the workload.
pub fn write_jsonl(out: &mut impl Write, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "R2/serve.call", request: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span(1, 0, 0, 100),   // root: children cover [10,40] ∪ [30,60] ∪ [90,100]
            span(2, 1, 10, 40),   // its child covers [15, 25]
            span(3, 1, 30, 60),   // overlaps span 2 on [30,40]: counted once
            span(4, 2, 15, 25),   // grandchild: not subtracted from the root
            span(5, 1, 90, 120),  // sticks out past the root: clipped to [90,100]
            span(6, 0, 200, 250), // a second root with no children
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10, 30, 50]);
    }

    #[test]
    fn jsonl_has_one_line_per_span_with_every_field() {
        let mut out = Vec::new();
        write_jsonl(&mut out, "serve-s64", &[span(1, 0, 5, 9), span(2, 1, 6, 8)]).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            "{\"workload\":\"serve-s64\",\"id\":2,\"parent\":1,\"name\":\"R2/serve.call\",\"request\":0,\"start_ns\":6,\"end_ns\":8}"
        );
    }
}
