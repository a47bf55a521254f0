//! The traced run's span tree: kept in memory while measuring, written
//! out as JSON lines and folded into a self-time table at exit.
//!
//! A span is `{name, start, end, parent, rep}`. Handler spans are sampled
//! (the probe times 1 call in 16), so each also carries a `weight`: how
//! many real calls it stands for. A span's self time is its duration minus
//! the part its children cover, children counted at their weight.

use std::fmt::Write as _;
use std::io::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Repetition (or launch) the span belongs to.
    pub rep: u32,
    /// Real occurrences this span stands for (1 unless sampled).
    pub weight: f64,
}

impl Span {
    fn weighted_ns(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 * self.weight
    }
}

/// Self time of every span sharing one name.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfRow {
    pub name: &'static str,
    /// Occurrences, sampled spans counted at their weight.
    pub calls: f64,
    /// Weighted duration minus weighted children, nanoseconds.
    pub self_ns: f64,
}

#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Self time by span name, in first-seen order.
    pub fn self_times(&self) -> Vec<SelfRow> {
        let mut covered = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.weighted_ns();
            }
        }
        let mut rows: Vec<SelfRow> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let self_ns = s.weighted_ns() - covered[i];
            match rows.iter_mut().find(|r| r.name == s.name) {
                Some(r) => {
                    r.calls += s.weight;
                    r.self_ns += self_ns;
                }
                None => rows.push(SelfRow {
                    name: s.name,
                    calls: s.weight,
                    self_ns,
                }),
            }
        }
        rows
    }

    /// Self time summed over every span whose name starts with `prefix`.
    pub fn self_ns_of(&self, prefix: &str) -> f64 {
        self.self_times()
            .iter()
            .filter(|r| r.name.starts_with(prefix))
            .map(|r| r.self_ns)
            .sum()
    }

    /// The self-time table, one row per span name; shares are of the
    /// summed `run` spans.
    pub fn render_table(&self) -> String {
        let rows = self.self_times();
        let run_ns: f64 = self
            .spans
            .iter()
            .filter(|s| s.name == "run")
            .map(Span::weighted_ns)
            .sum();
        let mut out = String::new();
        writeln!(
            out,
            "{:<40} {:>12} {:>12} {:>12} {:>7}",
            "span", "calls", "self ms", "ns/call", "share"
        )
        .unwrap();
        for r in &rows {
            writeln!(
                out,
                "{:<40} {:>12.0} {:>12.3} {:>12.1} {:>6.1}%",
                r.name,
                r.calls,
                r.self_ns / 1e6,
                crate::stats::ratio(r.self_ns, r.calls),
                100.0 * crate::stats::ratio(r.self_ns, run_ns),
            )
            .unwrap();
        }
        out
    }

    /// One JSON object per span; a span's index is its line number.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"rep\":{},\"weight\":{}}}",
                s.name, s.start, s.end, parent, s.rep, s.weight
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, weight: f64) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            rep: 0,
            weight,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let mut log = SpanLog::default();
        let run = log.push(span("run", 0, 1_000, None, 1.0));
        let stream = log.push(span("stream", 100, 900, Some(run), 1.0));
        log.push(span("handler", 200, 300, Some(stream), 1.0));
        log.push(span("handler", 400, 450, Some(stream), 1.0));
        let rows = log.self_times();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].self_ns, 200.0, "run: 1000 - 800");
        assert_eq!(rows[1].self_ns, 650.0, "stream: 800 - 100 - 50");
        assert_eq!(
            (rows[2].calls, rows[2].self_ns),
            (2.0, 150.0),
            "leaves keep their whole duration"
        );
        let total: f64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(total, 1_000.0, "self times partition the root");
    }

    #[test]
    fn sampled_children_count_at_their_weight() {
        let mut log = SpanLog::default();
        let lp = log.push(span("loop", 0, 10_000, None, 1.0));
        // Two sampled calls of 100 ns, each standing for 16 real calls.
        log.push(span("handler", 10, 110, Some(lp), 16.0));
        log.push(span("handler", 500, 600, Some(lp), 16.0));
        let rows = log.self_times();
        assert_eq!(rows[0].self_ns, 10_000.0 - 3_200.0);
        assert_eq!((rows[1].calls, rows[1].self_ns), (32.0, 3_200.0));
        assert_eq!(log.self_ns_of("hand"), 3_200.0);
        assert!(log.render_table().contains("handler"));
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut log = SpanLog::default();
        let run = log.push(span("run", 0, 5, None, 1.0));
        log.push(span("setup", 1, 2, Some(run), 1.0));
        let path = crate::out_dir().join(format!("test-spans-{}.jsonl", std::process::id()));
        log.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            "{\"name\":\"setup\",\"start\":1,\"end\":2,\"parent\":0,\"rep\":0,\"weight\":1}"
        );
        assert!(lines[0].contains("\"parent\":null"));
    }
}
