//! The sink trait and the in-memory aggregation sink.

use crate::audit::{AuditRecord, OrderRecord};
use crate::{Phase, PHASES, PHASE_COUNT};
use std::any::Any;
use std::collections::BTreeMap;
use std::time::Instant;

/// Wall-clock measurements of one closed span. Wall values are **not**
/// deterministic; exporters mark them [`crate::artifact::volatile`].
#[derive(Debug, Clone, Copy)]
pub struct SpanWall {
    /// When the span opened (monotonic).
    pub start: Instant,
    /// Total wall nanoseconds, children included.
    pub total_ns: u64,
    /// Wall nanoseconds not covered by child spans. Self times of all
    /// spans partition the traced clock.
    pub self_ns: u64,
}

/// Receives everything the instrumentation emits on one thread.
///
/// Implementations must not call back into `fib_trace` (the
/// thread-local state is borrowed during delivery).
pub trait TraceSink {
    /// One closed span.
    fn span(&mut self, phase: Phase, sim_ns: u64, wall: SpanWall);
    /// One gauge sample.
    fn counter(&mut self, name: &'static str, sim_ns: u64, value: f64);
    /// One histogram observation.
    fn observe(&mut self, name: &'static str, sim_ns: u64, value: u64);
    /// One lie-lifecycle audit record.
    fn audit(&mut self, record: &AuditRecord);
    /// One explored-ordering audit record (adversary runs only). The
    /// default discards it, so sinks that predate the schedule
    /// explorer keep working unchanged.
    fn order(&mut self, _record: &OrderRecord) {}
    /// Downcast support (recover the concrete sink after [`crate::take`]).
    fn as_any(&self) -> &dyn Any;
    /// Owned downcast support.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// One phase's share of the traced wall clock.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseAttribution {
    /// Stable phase name ([`Phase::name`]).
    pub phase: &'static str,
    /// Spans closed (deterministic across runs of the same seed).
    pub spans: u64,
    /// Self wall nanoseconds (wall-derived).
    pub self_ns: u64,
    /// Percentage of the total traced self time (wall-derived).
    pub pct: f64,
}

/// Summary statistics of one observation series.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistSummary {
    /// Observations recorded.
    pub count: u64,
    /// Smallest value (0 when empty).
    pub min: u64,
    /// Largest value.
    pub max: u64,
    /// Sum of all values.
    pub sum: u64,
}

impl HistSummary {
    fn add(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn merge(&mut self, other: &HistSummary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// In-memory aggregation: per-phase span counts and self times,
/// histogram summaries, and the audit log. Feeds the
/// `phase_attribution` sections of the bench JSON artifacts.
#[derive(Debug, Default)]
pub struct AggSink {
    spans: [u64; PHASE_COUNT],
    self_ns: [u64; PHASE_COUNT],
    total_ns: [u64; PHASE_COUNT],
    hists: BTreeMap<&'static str, HistSummary>,
    audits: Vec<AuditRecord>,
    orders: Vec<OrderRecord>,
}

impl AggSink {
    /// An empty sink.
    pub fn new() -> AggSink {
        AggSink::default()
    }

    /// Per-phase attribution over phases that recorded at least one
    /// span; `pct` values sum to ~100 (self times partition the
    /// traced clock).
    pub fn attribution(&self) -> Vec<PhaseAttribution> {
        let total: u64 = self.self_ns.iter().sum();
        PHASES
            .iter()
            .filter(|p| self.spans[p.index()] > 0)
            .map(|p| {
                let i = p.index();
                PhaseAttribution {
                    phase: p.name(),
                    spans: self.spans[i],
                    self_ns: self.self_ns[i],
                    pct: if total == 0 {
                        0.0
                    } else {
                        self.self_ns[i] as f64 / total as f64 * 100.0
                    },
                }
            })
            .collect()
    }

    /// Total (inclusive) wall nanoseconds for one phase.
    pub fn total_ns(&self, phase: Phase) -> u64 {
        self.total_ns[phase.index()]
    }

    /// All observation series, in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&&'static str, &HistSummary)> {
        self.hists.iter()
    }

    /// The audit log, in emission order.
    pub fn audits(&self) -> &[AuditRecord] {
        &self.audits
    }

    /// The explored-ordering log, in emission order (empty outside
    /// adversary runs).
    pub fn orders(&self) -> &[OrderRecord] {
        &self.orders
    }

    /// Fold another sink's aggregates into this one (sweep rollup).
    pub fn merge(&mut self, other: &AggSink) {
        for i in 0..PHASE_COUNT {
            self.spans[i] += other.spans[i];
            self.self_ns[i] += other.self_ns[i];
            self.total_ns[i] += other.total_ns[i];
        }
        for (name, h) in &other.hists {
            self.hists.entry(name).or_default().merge(h);
        }
        self.audits.extend(other.audits.iter().cloned());
        self.orders.extend(other.orders.iter().cloned());
    }

    /// Rebuild an `AggSink` from pre-aggregated attribution rows
    /// (sweep cells ship rows, not sinks).
    pub fn from_attribution(rows: &[PhaseAttribution]) -> AggSink {
        let mut agg = AggSink::new();
        for row in rows {
            if let Some(p) = PHASES.iter().find(|p| p.name() == row.phase) {
                agg.spans[p.index()] = row.spans;
                agg.self_ns[p.index()] = row.self_ns;
            }
        }
        agg
    }
}

impl TraceSink for AggSink {
    fn span(&mut self, phase: Phase, _sim_ns: u64, wall: SpanWall) {
        let i = phase.index();
        self.spans[i] += 1;
        self.self_ns[i] += wall.self_ns;
        self.total_ns[i] += wall.total_ns;
    }

    fn counter(&mut self, _name: &'static str, _sim_ns: u64, _value: f64) {}

    fn observe(&mut self, name: &'static str, _sim_ns: u64, value: u64) {
        self.hists.entry(name).or_default().add(value);
    }

    fn audit(&mut self, record: &AuditRecord) {
        self.audits.push(record.clone());
    }

    fn order(&mut self, record: &OrderRecord) {
        self.orders.push(record.clone());
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

    fn wall(self_ns: u64, total_ns: u64) -> SpanWall {
        SpanWall {
            start: Instant::now(),
            total_ns,
            self_ns,
        }
    }

    #[test]
    fn attribution_percentages_partition() {
        let mut agg = AggSink::new();
        agg.span(Phase::SpfFull, 0, wall(300, 300));
        agg.span(Phase::Settle, 0, wall(700, 900));
        let attr = agg.attribution();
        assert_eq!(attr.len(), 2);
        let total: f64 = attr.iter().map(|a| a.pct).sum();
        assert!((total - 100.0).abs() < 1e-9);
        let spf = attr.iter().find(|a| a.phase == "spf.full").unwrap();
        assert!((spf.pct - 30.0).abs() < 1e-9);
    }

    #[test]
    fn merge_and_roundtrip() {
        let mut a = AggSink::new();
        a.span(Phase::SpfFull, 0, wall(100, 100));
        a.observe("settle.dirty_flows", 0, 4);
        let mut b = AggSink::new();
        b.span(Phase::SpfFull, 0, wall(50, 50));
        b.span(Phase::CtrlOptimize, 0, wall(50, 50));
        b.observe("settle.dirty_flows", 0, 10);
        a.merge(&b);
        let spans = |sink: &AggSink| {
            let attr = sink.attribution();
            attr.iter().find(|p| p.phase == "spf.full").map(|p| p.spans)
        };
        assert_eq!(spans(&a), Some(2));
        let hists: Vec<_> = a.hists().collect();
        let [(&"settle.dirty_flows", h)] = hists[..] else {
            panic!("one series, got {hists:?}")
        };
        assert_eq!((h.count, h.min, h.max, h.sum), (2, 4, 10, 14));
        assert!((h.mean() - 7.0).abs() < 1e-9);

        let rebuilt = AggSink::from_attribution(&a.attribution());
        assert_eq!(spans(&rebuilt), Some(2));
        assert_eq!(rebuilt.attribution(), a.attribution());
    }

    #[test]
    fn empty_sink_attributes_nothing() {
        assert!(AggSink::new().attribution().is_empty());
        assert_eq!(AggSink::new().hists().count(), 0);
    }
}
