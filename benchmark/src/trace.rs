//! Spans recorded around the calls into each layer, kept in memory and
//! written out when the rep ends.
//!
//! Coarse boundaries (stage, build, generate, checkpoint, epoch, export)
//! are spans with a start and an end. Per-call boundaries — the engine's
//! phases and `Router::decide` — are far too many for that and are folded
//! into one *aggregate* per name under the span that contained them: a
//! call count and a total. Both kinds are rows of one table; an aggregate
//! has no position of its own, so it is laid at its parent's start.

use crate::json::Json;
use std::time::Instant;

/// One row of the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the rep's origin (`main` entry).
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one ran inside.
    pub parent: Option<usize>,
    /// `Some(calls)` marks an aggregate of that many calls whose total
    /// is `end_ns - start_ns`.
    pub calls: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::open`]; closing it out of order is a
/// bug in the harness and panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &str) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            calls: None,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        let now = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = now;
        span.dur_ns() as f64 / 1e9
    }

    /// Times one call as a span under whatever is open.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Records `calls` calls totalling `busy_ns` that ran inside `parent`.
    pub fn aggregate(&mut self, parent: SpanId, name: &str, calls: u64, busy_ns: u64) -> SpanId {
        let at = self.spans[parent.0].start_ns;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: at,
            end_ns: at + busy_ns,
            parent: Some(parent.0),
            calls: Some(calls),
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "a span is still open");
        &self.spans
    }
}

/// Total seconds and call count under `name`, summed over spans and
/// aggregates alike.
pub fn total(spans: &[Span], name: &str) -> (f64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(busy, calls), s| {
            (busy + s.dur_ns() as f64 / 1e9, calls + s.calls.unwrap_or(1))
        })
}

/// Each span's duration minus what its children cover.
///
/// Plain child spans must lie inside the parent and must not overlap
/// each other; aggregates must fit in what the plain children leave.
/// Anything else means the harness put a boundary in the wrong place, and
/// the ledger built on it would not add up, so it is an error.
pub fn self_times(spans: &[Span]) -> Result<Vec<u64>, String> {
    let mut covered = vec![0u64; spans.len()];
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if span.end_ns < span.start_ns {
            return Err(format!("span '{}' ends before it starts", span.name));
        }
        if let Some(p) = span.parent {
            if p >= i {
                return Err(format!("span '{}' precedes its parent", span.name));
            }
            children[p].push(i);
        }
    }
    for (p, kids) in children.iter().enumerate() {
        let parent = &spans[p];
        let mut plain: Vec<&Span> = kids
            .iter()
            .map(|&k| &spans[k])
            .filter(|s| s.calls.is_none())
            .collect();
        plain.sort_by_key(|s| s.start_ns);
        let mut cursor = parent.start_ns;
        for child in plain {
            if child.start_ns < cursor {
                return Err(format!(
                    "span '{}' overlaps a sibling or starts before its parent '{}'",
                    child.name, parent.name
                ));
            }
            if child.end_ns > parent.end_ns {
                return Err(format!(
                    "span '{}' outlives its parent '{}'",
                    child.name, parent.name
                ));
            }
            cursor = child.end_ns;
        }
        covered[p] = kids.iter().map(|&k| spans[k].dur_ns()).sum();
        if covered[p] > parent.dur_ns() {
            return Err(format!(
                "children of '{}' cover {} ns of its {} ns",
                parent.name,
                covered[p],
                parent.dur_ns()
            ));
        }
    }
    Ok(spans
        .iter()
        .zip(&covered)
        .map(|(s, c)| s.dur_ns() - c)
        .collect())
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                let mut row = Json::obj();
                row.set("name", s.name.as_str())
                    .set("start_ns", s.start_ns)
                    .set("end_ns", s.end_ns)
                    .set(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    );
                if let Some(calls) = s.calls {
                    row.set("calls", calls);
                }
                row
            })
            .collect(),
    )
}

pub fn spans_from_json(rows: &Json) -> Result<Vec<Span>, String> {
    rows.items()
        .iter()
        .map(|row| {
            Ok(Span {
                name: row.str("name")?.to_string(),
                start_ns: row.num("start_ns")? as u64,
                end_ns: row.num("end_ns")? as u64,
                parent: row.get("parent").and_then(Json::as_f64).map(|p| p as usize),
                calls: row.get("calls").and_then(Json::as_f64).map(|c| c as u64),
            })
        })
        .collect()
}

/// The percent-of-total table for one traced rep: top-level spans, their
/// children indented beneath them, a `(self)` row wherever children leave
/// part of a span uncovered, then the process and unattributed remainders.
///
/// `wall_s` is the driver's spawn-to-exit time for the rep and `main_s`
/// the child's own `main` entry-to-exit time; the difference is the
/// process row (exec, dynamic linking, exit-time frees).
pub fn ledger(workload: &str, spans: &[Span], wall_s: f64, main_s: f64) -> Result<String, String> {
    use std::fmt::Write as _;
    let selfs = self_times(spans)?;
    /// A ledger row: indent depth, label, seconds, and a call count
    /// where there is more than one call.
    type Row = (usize, String, f64, Option<u64>);
    // Depth-first in recording order; same-named siblings fold into one
    // row so 15 epochs do not print 15 times.
    fn walk(spans: &[Span], selfs: &[u64], ids: &[usize], depth: usize, rows: &mut Vec<Row>) {
        let mut seen: Vec<&str> = Vec::new();
        for &i in ids {
            let name = spans[i].name.as_str();
            if seen.contains(&name) {
                continue;
            }
            seen.push(name);
            let group: Vec<usize> = ids
                .iter()
                .copied()
                .filter(|&j| spans[j].name == name)
                .collect();
            let secs: f64 = group.iter().map(|&j| spans[j].dur_ns() as f64 / 1e9).sum();
            let calls: u64 = group.iter().map(|&j| spans[j].calls.unwrap_or(1)).sum();
            let shown = (calls > 1 || spans[i].calls.is_some()).then_some(calls);
            rows.push((depth, name.to_string(), secs, shown));
            let kids: Vec<usize> = (0..spans.len())
                .filter(|&k| spans[k].parent.is_some_and(|p| group.contains(&p)))
                .collect();
            if !kids.is_empty() {
                walk(spans, selfs, &kids, depth + 1, rows);
                let own: f64 = group.iter().map(|&j| selfs[j] as f64 / 1e9).sum();
                rows.push((depth + 1, "(self)".to_string(), own, None));
            }
        }
    }
    let top: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].parent.is_none())
        .collect();
    let mut rows = Vec::new();
    walk(spans, &selfs, &top, 0, &mut rows);
    let staged: f64 = top.iter().map(|&i| spans[i].dur_ns() as f64 / 1e9).sum();
    rows.push((
        0,
        "process (exec→main, exit)".to_string(),
        wall_s - main_s,
        None,
    ));
    rows.push((0, "unattributed".to_string(), main_s - staged, None));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{workload} — traced rep, {wall_s:.3} s spawn to exit\n{:<44} {:>10} {:>10} {:>8}",
        "  span", "seconds", "calls", "share"
    );
    for (depth, name, secs, calls) in rows {
        let label = format!("{}{name}", "  ".repeat(depth + 1));
        let calls = calls.map_or(String::new(), |c| c.to_string());
        let _ = writeln!(
            out,
            "{label:<44} {secs:>10.4} {calls:>10} {:>7.1}%",
            100.0 * secs / wall_s
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            parent,
            calls: None,
        }
    }

    fn agg(name: &str, at: u64, busy: u64, calls: u64, parent: usize) -> Span {
        Span {
            calls: Some(calls),
            ..span(name, at, at + busy, Some(parent))
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = vec![
            span("run", 0, 1000, None),
            span("sim.run", 100, 900, Some(0)),
            agg("sim.route", 100, 300, 7, 1),
            agg("routing.decide", 100, 120, 9, 2),
            agg("sim.transmit", 100, 400, 5, 1),
            span("report", 1000, 1200, None),
        ];
        assert_eq!(
            self_times(&spans).unwrap(),
            vec![200, 100, 180, 120, 400, 200]
        );
        assert_eq!(total(&spans, "sim.route"), (300e-9, 7));
        assert_eq!(total(&spans, "report"), (200e-9, 1));
        assert_eq!(total(&spans, "absent"), (0.0, 0));
    }

    #[test]
    fn overlapping_or_escaping_children_are_rejected() {
        let overlap = vec![
            span("run", 0, 1000, None),
            span("a", 0, 600, Some(0)),
            span("b", 500, 900, Some(0)),
        ];
        assert!(self_times(&overlap).unwrap_err().contains("overlaps"));
        let escapes = vec![span("run", 0, 1000, None), span("a", 900, 1100, Some(0))];
        assert!(self_times(&escapes).unwrap_err().contains("outlives"));
        let early = vec![span("run", 100, 1000, None), span("a", 50, 200, Some(0))];
        assert!(self_times(&early)
            .unwrap_err()
            .contains("before its parent"));
        let too_much = vec![
            span("run", 0, 1000, None),
            span("a", 0, 800, Some(0)),
            agg("calls", 0, 300, 3, 0),
        ];
        assert!(self_times(&too_much).unwrap_err().contains("cover"));
        let backwards = vec![span("run", 10, 5, None)];
        assert!(self_times(&backwards).is_err());
        let orphan = vec![span("a", 0, 1, Some(1)), span("run", 0, 10, None)];
        assert!(self_times(&orphan).is_err());
    }

    #[test]
    fn tracer_nests_and_round_trips_through_json() {
        let mut t = Tracer::new(Instant::now());
        let run = t.open("run");
        let inner = t.time("sim.construct", || 42);
        assert_eq!(inner, 42);
        t.aggregate(run, "sim.route", 3, 0);
        t.close(run);
        let spans = t.spans().to_vec();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].calls, Some(3));
        assert!(self_times(&spans).is_ok());
        let back = spans_from_json(&spans_to_json(&spans)).unwrap();
        assert_eq!(back, spans);
    }

    #[test]
    fn ledger_rows_add_up_to_the_wall_time() {
        let spans = vec![
            span("setup", 0, 100_000_000, None),
            span("run", 100_000_000, 900_000_000, None),
            span("epoch", 100_000_000, 400_000_000, Some(1)),
            span("epoch", 400_000_000, 800_000_000, Some(1)),
        ];
        let text = ledger("demo", &spans, 1.0, 0.95).unwrap();
        let line = |label: &str| {
            text.lines()
                .find(|l| l.trim_start().starts_with(label))
                .unwrap_or_else(|| panic!("no {label} row in\n{text}"))
                .to_string()
        };
        assert!(line("setup").contains("10.0%"));
        assert!(line("run").contains("80.0%"));
        // Two epochs fold into one row with a call count.
        assert!(line("epoch").contains(" 2 "));
        assert!(line("epoch").contains("70.0%"));
        assert!(line("(self)").contains("10.0%"));
        assert!(line("process").contains("5.0%"));
        assert!(line("unattributed").contains("5.0%"));
        assert_eq!(text.matches("epoch").count(), 1);
    }
}
