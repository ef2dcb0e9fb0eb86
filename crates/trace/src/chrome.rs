//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! Spans become `"X"` complete events, gauges and observations become
//! `"C"` counter tracks, audit records become `"i"` instants. The
//! only non-deterministic values in the output are the wall-derived
//! `"ts"` and `"dur"`; they are marked [`volatile`], so the
//! deterministic view of two exports of the same seeded run is
//! byte-identical (asserted in the workspace tests, `cmp`-ed in CI).

use crate::artifact::{volatile, Value};
use crate::audit::{AuditRecord, OrderRecord};
use crate::sink::{SpanWall, TraceSink};
use crate::Phase;
use std::any::Any;
use std::time::Instant;

enum Event {
    Span {
        phase: Phase,
        sim_ns: u64,
        ts_us: u64,
        dur_us: u64,
    },
    /// A gauge sample (float) or a histogram observation (integer).
    Counter {
        name: &'static str,
        sim_ns: u64,
        ts_us: u64,
        value: Value,
    },
    Audit {
        record: AuditRecord,
        ts_us: u64,
    },
    Order {
        record: OrderRecord,
        ts_us: u64,
    },
}

/// One trace-event object: `name`/`ph`/`pid`/`tid`/`ts`, then `dur`
/// (complete events) or the thread scope `s` (instants), then `args`.
/// `ts_us` and `dur_us` are wall-clock microseconds, hence [`volatile`].
pub fn trace_event(
    name: impl Into<Value>,
    ph: &'static str,
    tid: impl Into<Value>,
    ts_us: u64,
    dur_us: Option<u64>,
    args: Vec<(&'static str, Value)>,
) -> Value {
    let mut fields = vec![
        ("name", name.into()),
        ("ph", ph.into()),
        ("pid", 1u64.into()),
        ("tid", tid.into()),
        ("ts", volatile(ts_us)),
    ];
    if let Some(dur_us) = dur_us {
        fields.push(("dur", volatile(dur_us)));
    }
    if ph == "i" {
        fields.push(("s", "t".into()));
    }
    fields.push(("args", Value::Obj(args)));
    Value::Obj(fields)
}

/// The trace-event document Perfetto loads: `events` (one per line
/// when rendered) and the count a capped recorder `dropped`.
pub fn trace_doc(dropped: u64, events: Vec<Value>) -> Value {
    Value::Obj(vec![
        ("displayTimeUnit", "ms".into()),
        ("otherData", Value::Obj(vec![("dropped", dropped.into())])),
        ("traceEvents", Value::Arr(events)),
    ])
}

/// The one thread lane a simulation's events are drawn on.
const TID: u64 = 1;

/// A bounded Chrome trace-event recorder.
///
/// Events beyond the cap are counted in `dropped` (the cap is on the
/// deterministic event sequence, so the kept prefix is identical
/// across runs). The audit log is kept whole, outside the cap.
pub struct ChromeSink {
    epoch: Instant,
    cap: usize,
    dropped: u64,
    events: Vec<Event>,
    audits: Vec<AuditRecord>,
}

impl ChromeSink {
    /// A sink keeping at most `cap` events, with its epoch (the
    /// trace's t=0) at construction time.
    pub fn new(cap: usize) -> ChromeSink {
        ChromeSink::with_epoch(cap, Instant::now())
    }

    /// Like [`ChromeSink::new`] with an explicit epoch, so several
    /// sinks (one per scenario) share one timeline.
    pub fn with_epoch(cap: usize, epoch: Instant) -> ChromeSink {
        ChromeSink {
            epoch,
            cap,
            dropped: 0,
            events: Vec::new(),
            audits: Vec::new(),
        }
    }

    /// Events currently held.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Events discarded by the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The audit log, in emission order.
    pub fn audits(&self) -> &[AuditRecord] {
        &self.audits
    }

    /// Append another sink's events to this one (same epoch assumed;
    /// used to merge per-scenario sinks into one trace file).
    pub fn absorb(&mut self, other: ChromeSink) {
        self.dropped += other.dropped;
        for ev in other.events {
            self.push(ev);
        }
        self.audits.extend(other.audits);
    }

    fn push(&mut self, ev: Event) {
        if self.events.len() >= self.cap {
            self.dropped += 1;
        } else {
            self.events.push(ev);
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The Chrome trace-event document (one event per line when
    /// rendered); hand it to [`crate::artifact::save`].
    pub fn doc(&self) -> Value {
        let events = self
            .events
            .iter()
            .map(|ev| match ev {
                Event::Span {
                    phase,
                    sim_ns,
                    ts_us,
                    dur_us,
                } => trace_event(
                    phase.name(),
                    "X",
                    TID,
                    *ts_us,
                    Some(*dur_us),
                    vec![("sim_ns", (*sim_ns).into())],
                ),
                Event::Counter {
                    name,
                    sim_ns,
                    ts_us,
                    value,
                } => trace_event(
                    *name,
                    "C",
                    TID,
                    *ts_us,
                    None,
                    vec![("value", value.clone()), ("sim_ns", (*sim_ns).into())],
                ),
                Event::Audit { record, ts_us } => trace_event(
                    format!("lie.{}", record.action.name()),
                    "i",
                    TID,
                    *ts_us,
                    None,
                    vec![
                        ("sim_ns", record.sim_ns.into()),
                        ("prefix", record.prefix.clone().into()),
                        ("lie", record.lie.clone().into()),
                        ("trigger", record.trigger.clone().into()),
                        ("candidates", record.candidates.into()),
                        ("predicted_max_util", record.predicted_max_util.into()),
                        ("measured_max_util", record.measured_max_util.into()),
                    ],
                ),
                Event::Order { record, ts_us } => trace_event(
                    "sched.order",
                    "i",
                    TID,
                    *ts_us,
                    None,
                    vec![
                        ("sim_ns", record.sim_ns.into()),
                        ("batch", u64::from(record.batch).into()),
                        ("perm", record.render().into()),
                    ],
                ),
            })
            .collect();
        trace_doc(self.dropped, events)
    }
}

impl TraceSink for ChromeSink {
    fn span(&mut self, phase: Phase, sim_ns: u64, wall: SpanWall) {
        let ts_us = wall.start.saturating_duration_since(self.epoch).as_micros() as u64;
        let dur_us = wall.total_ns / 1_000;
        self.push(Event::Span {
            phase,
            sim_ns,
            ts_us,
            dur_us,
        });
    }

    fn counter(&mut self, name: &'static str, sim_ns: u64, value: f64) {
        let ts_us = self.now_us();
        self.push(Event::Counter {
            name,
            sim_ns,
            ts_us,
            value: value.into(),
        });
    }

    fn observe(&mut self, name: &'static str, sim_ns: u64, value: u64) {
        let ts_us = self.now_us();
        self.push(Event::Counter {
            name,
            sim_ns,
            ts_us,
            value: value.into(),
        });
    }

    fn audit(&mut self, record: &AuditRecord) {
        self.audits.push(record.clone());
        let ts_us = self.now_us();
        self.push(Event::Audit {
            record: record.clone(),
            ts_us,
        });
    }

    fn order(&mut self, record: &OrderRecord) {
        let ts_us = self.now_us();
        self.push(Event::Order {
            record: record.clone(),
            ts_us,
        });
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::View;
    use crate::AuditAction;

    fn wall(ns: u64) -> SpanWall {
        SpanWall {
            start: Instant::now(),
            total_ns: ns,
            self_ns: ns,
        }
    }

    fn inject() -> AuditRecord {
        AuditRecord {
            sim_ns: 100,
            action: AuditAction::Inject,
            prefix: "p1".into(),
            lie: "fake@r2 via r3".into(),
            trigger: "alarm r1->r2 raised @0.91".into(),
            candidates: 3,
            predicted_max_util: 0.66,
            measured_max_util: 0.91,
        }
    }

    #[test]
    fn json_has_all_event_kinds() {
        let mut sink = ChromeSink::new(16);
        sink.span(Phase::SpfFull, 100, wall(2_000));
        sink.counter("queue.depth", 100, 3.0);
        sink.observe("settle.dirty_flows", 100, 9);
        sink.audit(&inject());
        let json = sink.doc().render(View::Full);
        assert!(json.contains("\"name\": \"spf.full\", \"ph\": \"X\""));
        assert!(json.contains("\"name\": \"queue.depth\", \"ph\": \"C\""));
        assert!(json.contains("\"name\": \"settle.dirty_flows\", \"ph\": \"C\""));
        assert!(json.contains("\"name\": \"lie.inject\", \"ph\": \"i\""));
        assert!(json.contains("\"candidates\": 3"));
        assert!(json.contains("\"otherData\": {\"dropped\": 0}"));
        assert_eq!(json.lines().count(), 4 + 4 + 2, "one event per line");
    }

    #[test]
    fn cap_drops_deterministically() {
        let mut sink = ChromeSink::new(2);
        for i in 0..5 {
            sink.span(Phase::Settle, i, wall(10));
        }
        sink.audit(&inject());
        assert_eq!(sink.event_count(), 2);
        assert_eq!(sink.dropped(), 4);
        assert!(sink.doc().render(View::Full).contains("\"dropped\": 4"));
        assert_eq!(sink.audits().len(), 1, "the audit log is not capped");
    }

    #[test]
    fn deterministic_view_blanks_exactly_ts_and_dur() {
        let mut sink = ChromeSink::new(16);
        sink.span(Phase::FibInstall, 42, wall(1_234_000));
        assert!(sink.doc().render(View::Full).contains("\"dur\": 1234, "));
        assert!(sink.doc().render(View::Deterministic).contains(
            "{\"name\": \"fib.install\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
             \"ts\": null, \"dur\": null, \"args\": {\"sim_ns\": 42}}"
        ));
    }

    #[test]
    fn absorb_merges_events_and_audits() {
        let epoch = Instant::now();
        let mut a = ChromeSink::with_epoch(16, epoch);
        let mut b = ChromeSink::with_epoch(16, epoch);
        a.span(Phase::SpfFull, 0, wall(10));
        b.span(Phase::Settle, 0, wall(30));
        b.audit(&inject());
        a.absorb(b);
        assert_eq!(a.event_count(), 3);
        assert_eq!(a.audits().len(), 1);
    }
}
