//! Spans recorded from outside the program, around each call into a
//! layer, plus the closure check on them.
//!
//! Every layer call goes through [`Tracer::time`], which times it with
//! one pair of `Instant`s whether or not tracing is on; a traced call
//! also records a [`Span`] with those same two instants. Spans stay in
//! memory and are written out once, when the run ends.

use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded layer call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The layer call, e.g. `core.solve`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The query execution this span belongs to (`None` outside one).
    pub rep: Option<u32>,
    /// Start, since the tracer's epoch.
    pub start: Duration,
    /// End, since the tracer's epoch.
    pub end: Duration,
}

impl Span {
    /// Wall time of the span.
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Times layer calls, recording spans while `on`.
pub struct Tracer {
    /// Whether calls are recorded as spans.
    pub on: bool,
    /// The query execution later spans belong to.
    pub rep: Option<u32>,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans iff `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            rep: None,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` as the layer call `name` under `parent`, returning its
    /// result and wall seconds. `f` receives the tracer and the new
    /// span's index, to nest its own calls under it.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Tracer, Option<usize>) -> T,
    ) -> (T, f64) {
        let id = self.on.then(|| {
            self.spans.push(Span {
                name,
                parent,
                rep: self.rep,
                start: Duration::ZERO,
                end: Duration::ZERO,
            });
            self.spans.len() - 1
        });
        let t0 = Instant::now();
        let out = f(self, id);
        let t1 = Instant::now();
        if let Some(i) = id {
            self.spans[i].start = t0 - self.epoch;
            self.spans[i].end = t1 - self.epoch;
        }
        (out, (t1 - t0).as_secs_f64())
    }

    /// The spans recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of each span: its wall time minus the time its direct
/// children cover. Children of one span run one after another on one
/// thread, so they never overlap and their walls add.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut out: Vec<Duration> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.dur());
        }
    }
    out
}

/// How much of a span's wall its layers account for.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Closure {
    /// The span's wall time.
    pub wall: Duration,
    /// The sum of its descendants' self times.
    pub covered: Duration,
}

impl Closure {
    /// The share of the wall no layer accounts for, `1 − covered / wall`.
    pub fn unaccounted(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall > 0.0 {
            1.0 - self.covered.as_secs_f64() / wall
        } else {
            0.0
        }
    }

    /// Walls and covered times summed over several spans.
    pub fn total(items: &[(usize, Closure)]) -> Closure {
        items
            .iter()
            .fold(Closure::default(), |acc, (_, c)| Closure {
                wall: acc.wall + c.wall,
                covered: acc.covered + c.covered,
            })
    }
}

/// The [`Closure`] of every span named `root`, with its index.
pub fn closures(spans: &[Span], root: &str) -> Vec<(usize, Closure)> {
    let selfs = self_times(spans);
    let mut covered = vec![Duration::ZERO; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let mut up = s.parent;
        while let Some(p) = up {
            covered[p] += selfs[i];
            up = spans[p].parent;
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == root)
        .map(|(i, s)| {
            let c = Closure {
                wall: s.dur(),
                covered: covered[i],
            };
            (i, c)
        })
        .collect()
}

/// Write the spans as JSON lines: id, parent, rep, name, start and end
/// in microseconds since the run's epoch, and self time.
pub fn write_jsonl(spans: &[Span], mut w: impl Write) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let opt = |v: Option<usize>| v.map_or("null".to_string(), |x| x.to_string());
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            w,
            "{{\"id\":{i},\"parent\":{},\"rep\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
            opt(s.parent),
            opt(s.rep.map(|r| r as usize)),
            s.name,
            s.start.as_secs_f64() * 1e6,
            s.end.as_secs_f64() * 1e6,
            selfs[i].as_secs_f64() * 1e6,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ms: u64, end_ms: u64) -> Span {
        Span {
            name,
            parent,
            rep: Some(0),
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("query", None, 0, 100),
            span("core.preload", Some(0), 1, 41),
            span("core.solve", Some(0), 41, 99),
            span("inner", Some(2), 50, 60),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], Duration::from_millis(2));
        assert_eq!(st[1], Duration::from_millis(40));
        assert_eq!(st[2], Duration::from_millis(48));
        assert_eq!(st[3], Duration::from_millis(10));
    }

    #[test]
    fn closure_sums_all_descendant_self_times() {
        let spans = vec![
            span("query", None, 0, 100),
            span("core.preload", Some(0), 1, 41),
            span("core.solve", Some(0), 41, 99),
            span("inner", Some(2), 50, 60),
            span("query", None, 100, 200),
            span("core.solve", Some(4), 100, 150),
        ];
        let c = closures(&spans, "query");
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].0, 0);
        assert_eq!(c[0].1.covered, Duration::from_millis(98));
        assert!((c[0].1.unaccounted() - 0.02).abs() < 1e-9, "{c:?}");
        // Half of the second query has no child: a layer unaccounted.
        assert!((c[1].1.unaccounted() - 0.5).abs() < 1e-9, "{c:?}");
        // In total, 52 of 200 ms are unaccounted.
        assert!((Closure::total(&c).unaccounted() - 0.26).abs() < 1e-9);
        assert_eq!(Closure::total(&[]).unaccounted(), 0.0);
    }

    #[test]
    fn tracer_records_nested_calls_only_when_on() {
        let mut tr = Tracer::new(true);
        tr.rep = Some(3);
        let ((), wall) = tr.time("query", None, |tr, id| {
            tr.time("core.solve", id, |_, _| std::hint::black_box(1 + 1));
        });
        assert!(wall >= 0.0);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].rep, Some(3));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);

        let mut off = Tracer::new(false);
        let (v, _) = off.time("query", None, |_, id| id);
        assert_eq!(v, None);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let spans = vec![
            span("query", None, 0, 10),
            span("core.solve", Some(0), 0, 9),
        ];
        let mut buf = Vec::new();
        write_jsonl(&spans, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"self_us\":9000.000"));
    }
}
