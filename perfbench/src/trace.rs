//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program under test carries no tracing of its own yet, so a span
//! here is "the runner called a public function of layer X": name,
//! start, end, the span that caused it and the id of the op it belongs
//! to. Spans stay in memory and are written once, as Chrome-trace JSON
//! (`chrome://tracing`, Perfetto), when the run ends.
//!
//! A disabled tracer takes no timestamps and records nothing, which is
//! how the timed run and the traced pass share one op implementation.

use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// What a span is evidence of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One traced op, start to finish.
    Op,
    /// A call the op really made; its time is part of the op's span.
    Call,
    /// The same work repeated on the side to time a layer the op only
    /// reaches through another call (parsing inside `prepare`, the
    /// embedded twin of a TCP statement). Not part of the op's span.
    Replica,
    /// Set-up and one-off layer measurements outside any op.
    Probe,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Handle to an open span; `None` inside when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Where a new span hangs: its kind, the span that caused it and the
/// op it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct At {
    pub kind: Kind,
    pub parent: SpanId,
    pub op: u64,
}

impl At {
    /// Outside any op (set-up, one-off measurements).
    pub const PROBE: At = At {
        kind: Kind::Probe,
        parent: SpanId(None),
        op: 0,
    };

    pub fn with_kind(self, kind: Kind) -> At {
        At { kind, ..self }
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &str, at: At) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            kind: at.kind,
            start_ns,
            end_ns: start_ns,
            parent: at.parent.0,
            op: at.op,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Open the span of op `op`; returns it and where its calls hang.
    pub fn open_op(&mut self, name: &str, op: u64) -> (SpanId, At) {
        let kind = Kind::Op;
        let span = self.open(
            name,
            At {
                kind,
                op,
                ..At::PROBE
            },
        );
        let calls = At {
            kind: Kind::Call,
            parent: span,
            op,
        };
        (span, calls)
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Rename a span once its outcome is known (`core.prepare` becomes
    /// `core.prepare_hit` or `core.prepare_miss`).
    pub fn rename(&mut self, id: SpanId, name: &str) {
        if let Some(i) = id.0 {
            self.spans[i].name = name.to_string();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of every span called `name`.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// For every op span: the share of it that its direct `Call`
    /// children cover. The rest is the runner's own glue, so a low
    /// share means the breakdown is missing a layer.
    pub fn op_coverage(&self) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let (Kind::Call, Some(p)) = (s.kind, s.parent) {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == Kind::Op && s.end_ns > s.start_ns)
            .map(|(i, s)| covered[i] as f64 / (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Total µs of all op spans.
    pub fn op_micros_total(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.kind == Kind::Op)
            .map(Span::micros)
            .sum()
    }

    /// Chrome-trace "complete" events. Ops, their calls and replicas go
    /// on one track per kind so that replicas never overlap the op they
    /// shadow; `args` carries the span's id, parent and op.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let tid = match s.kind {
                    Kind::Op | Kind::Call => 1.0,
                    Kind::Replica => 2.0,
                    Kind::Probe => 3.0,
                };
                Json::obj(vec![
                    ("name", Json::str(&s.name)),
                    ("cat", Json::str(format!("{:?}", s.kind).to_lowercase())),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(tid)),
                    (
                        "args",
                        Json::obj(vec![
                            ("id", Json::Num(i as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("op", Json::Num(s.op as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }

    pub fn write_chrome_trace(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, self.chrome_trace().render())
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let (op, at) = tr.open_op("op", 1);
        let call = tr.open("exec.run", at);
        tr.close(call);
        tr.close(op);
        assert!(tr.spans().is_empty());
        assert!(tr.op_coverage().is_empty());
    }

    #[test]
    fn coverage_counts_calls_but_not_replicas() {
        let mut tr = Tracer::new(true);
        let (op, at) = tr.open_op("op", 7);
        let call = tr.open("exec.run", at);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.close(call);
        tr.close(op);
        let replica = tr.open("sql.parse", at.with_kind(Kind::Replica));
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.close(replica);
        let coverage = tr.op_coverage();
        assert_eq!(coverage.len(), 1);
        assert!(coverage[0] > 0.9 && coverage[0] <= 1.0, "{coverage:?}");
        assert_eq!(tr.micros("sql.parse").len(), 1);
        assert!(tr.micros("exec.run")[0] >= 2000.0);

        let trace = tr.chrome_trace();
        let events = trace.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        let run = &events[1];
        assert_eq!(run.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(
            run.get("args").unwrap().get("parent").unwrap().as_f64(),
            Some(0.0)
        );
        assert_eq!(Json::parse(&trace.render()), Ok(trace));
    }
}
