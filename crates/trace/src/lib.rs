//! Deterministic observability spine.
//!
//! Every hot layer of the workspace (kernel dispatch, SPF, fluid
//! settlement, controller optimization, scenario runs) emits *spans*,
//! *counters*, *histogram observations*, and *audit records* through
//! this crate. The design invariant is that tracing is **write-only
//! and wall-clock-isolated**: instrumentation never touches simulation
//! state, RNG streams, or event ordering, and the monotonic wall clock
//! is sampled only when a sink is installed — so every byte-pinned
//! artifact in the workspace is identical with tracing on or off, and
//! the default (no sink) costs a single thread-local flag read per
//! call site.
//!
//! ## Model
//!
//! * A [`TraceSink`] is installed per thread ([`install`]/[`take`]).
//!   No sink installed — the default — is the "Noop" configuration:
//!   no span is armed, no clock is read, nothing allocates.
//! * [`span`] returns a drop guard. Guards nest lexically; the crate
//!   maintains a per-thread stack so each span reports both its total
//!   wall time and its *self* time (total minus enclosed child spans).
//!   Self times partition the traced wall clock, which is what makes
//!   per-phase attribution sum to ~100%.
//! * Span timestamps carry the *simulated* clock too: the event loop
//!   publishes it via [`set_sim_now`], and every span/counter records
//!   the value current at its start. Sim time is deterministic; wall
//!   time is not — exporters keep them in separate fields and mark
//!   the wall-derived ones [`artifact::volatile`], so they stay out of
//!   an artifact's deterministic view.
//! * [`audit`] feeds the structured lie-lifecycle log: one record per
//!   injection/retraction with trigger provenance and predicted vs.
//!   measured max-utilization.
//!
//! Shipped sinks: [`AggSink`] (in-memory per-phase aggregation feeding
//! `phase_attribution` bench sections) and [`ChromeSink`] (Chrome
//! trace-event JSON for Perfetto / `chrome://tracing`).
//!
//! [`artifact`] is the workspace's one JSON writer: every `BENCH_*.json`
//! and trace export is an [`artifact::Value`] written by
//! [`artifact::save`], which also writes the deterministic view that
//! run-twice comparisons `cmp`.
//!
//! Sinks must not call back into this crate (the thread-local state is
//! borrowed while a sink runs), and [`take`] must not be called while
//! span guards are live.

#![warn(missing_docs)]

pub mod artifact;
mod audit;
mod chrome;
mod sink;

pub use audit::{AuditAction, AuditRecord, OrderRecord};
pub use chrome::{trace_doc, trace_event, ChromeSink};
pub use sink::{AggSink, HistSummary, PhaseAttribution, SpanWall, TraceSink};

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::time::Instant;

/// A traced phase: the fixed taxonomy of instrumented code regions.
///
/// The names (see [`Phase::name`]) are the public contract — they key
/// `phase_attribution` sections in bench JSON and span names in
/// exported traces; `docs/OBSERVABILITY.md` documents each one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// One event dispatched by an event loop (kernel or netsim core).
    KernelDispatch,
    /// A full Dijkstra run (real-graph change or cold cache).
    SpfFull,
    /// A partial SPF: cached Dijkstra reused, only the route phase ran.
    SpfPartial,
    /// Single-prefix reverse SPF (`prefix_routes`).
    PrefixRoutes,
    /// One `MinMaxSolver` feasibility probe.
    SolverProbe,
    /// One fluid settlement (path re-resolution + max-min allocation).
    Settle,
    /// Installing a FIB diff produced by an IGP instance.
    FibInstall,
    /// Controller SNMP polling round.
    CtrlPoll,
    /// Controller optimization pass (evaluate + plan + reconcile).
    CtrlOptimize,
    /// One whole scenario / bench-case run (outermost span).
    ScenarioRun,
}

/// Number of phases (array-indexed aggregation).
pub const PHASE_COUNT: usize = 10;

/// Every phase, in [`Phase::index`] order.
pub const PHASES: [Phase; PHASE_COUNT] = [
    Phase::KernelDispatch,
    Phase::SpfFull,
    Phase::SpfPartial,
    Phase::PrefixRoutes,
    Phase::SolverProbe,
    Phase::Settle,
    Phase::FibInstall,
    Phase::CtrlPoll,
    Phase::CtrlOptimize,
    Phase::ScenarioRun,
];

impl Phase {
    /// Stable span name (dotted, lowercase).
    pub const fn name(self) -> &'static str {
        match self {
            Phase::KernelDispatch => "kernel.dispatch",
            Phase::SpfFull => "spf.full",
            Phase::SpfPartial => "spf.partial",
            Phase::PrefixRoutes => "spf.prefix_routes",
            Phase::SolverProbe => "solver.probe",
            Phase::Settle => "fluid.settle",
            Phase::FibInstall => "fib.install",
            Phase::CtrlPoll => "ctrl.poll",
            Phase::CtrlOptimize => "ctrl.optimize",
            Phase::ScenarioRun => "scenario.run",
        }
    }

    /// Dense index into [`PHASES`].
    pub const fn index(self) -> usize {
        match self {
            Phase::KernelDispatch => 0,
            Phase::SpfFull => 1,
            Phase::SpfPartial => 2,
            Phase::PrefixRoutes => 3,
            Phase::SolverProbe => 4,
            Phase::Settle => 5,
            Phase::FibInstall => 6,
            Phase::CtrlPoll => 7,
            Phase::CtrlOptimize => 8,
            Phase::ScenarioRun => 9,
        }
    }
}

/// An open span on the per-thread stack.
struct Active {
    phase: Phase,
    sim_ns: u64,
    start: Instant,
    /// Wall nanoseconds consumed by already-closed child spans.
    child_ns: u64,
}

/// Per-thread tracing state.
struct TlState {
    sink: Option<Box<dyn TraceSink>>,
    stack: Vec<Active>,
    sim_now_ns: u64,
    spans_started: u64,
}

thread_local! {
    /// Fast-path flag mirroring `TL.sink.is_some()`; checked before
    /// touching the `RefCell` so the Noop configuration costs one
    /// thread-local read per call site.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static TL: RefCell<TlState> = const {
        RefCell::new(TlState {
            sink: None,
            stack: Vec::new(),
            sim_now_ns: 0,
            spans_started: 0,
        })
    };
}

/// Install a sink on the current thread, replacing (and returning) any
/// previous one. Tracing is enabled until [`take`] removes it.
pub fn install(sink: Box<dyn TraceSink>) -> Option<Box<dyn TraceSink>> {
    ENABLED.with(|e| e.set(true));
    TL.with(|tl| {
        let mut tl = tl.borrow_mut();
        tl.stack.clear();
        tl.sink.replace(sink)
    })
}

/// Remove and return the current thread's sink (tracing disabled).
pub fn take() -> Option<Box<dyn TraceSink>> {
    ENABLED.with(|e| e.set(false));
    TL.with(|tl| {
        let mut tl = tl.borrow_mut();
        tl.stack.clear();
        tl.sink.take()
    })
}

/// Whether a sink is installed on this thread.
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Spans armed on this thread since it started (stays 0 while no sink
/// is installed — the "Noop records nothing" tripwire).
pub fn spans_started() -> u64 {
    TL.with(|tl| tl.borrow().spans_started)
}

/// Publish the current simulated time (nanoseconds). Event loops call
/// this at dispatch; subsequent spans/counters record the value
/// without their call sites needing a clock handle.
#[inline]
pub fn set_sim_now(sim_ns: u64) {
    if !enabled() {
        return;
    }
    TL.with(|tl| tl.borrow_mut().sim_now_ns = sim_ns);
}

/// Open a span for `phase`; it closes (and reports to the sink) when
/// the returned guard drops. Free when no sink is installed.
#[inline]
pub fn span(phase: Phase) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            armed: false,
            _not_send: PhantomData,
        };
    }
    TL.with(|tl| {
        let mut tl = tl.borrow_mut();
        if tl.sink.is_none() {
            return SpanGuard {
                armed: false,
                _not_send: PhantomData,
            };
        }
        tl.spans_started += 1;
        let sim_ns = tl.sim_now_ns;
        tl.stack.push(Active {
            phase,
            sim_ns,
            start: Instant::now(),
            child_ns: 0,
        });
        SpanGuard {
            armed: true,
            _not_send: PhantomData,
        }
    })
}

/// Record a gauge sample (e.g. queue depth) at the current sim time.
#[inline]
pub fn counter(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    TL.with(|tl| {
        let mut tl = tl.borrow_mut();
        let sim_ns = tl.sim_now_ns;
        if let Some(sink) = tl.sink.as_mut() {
            sink.counter(name, sim_ns, value);
        }
    });
}

/// Record one histogram observation (e.g. a dirty-set size).
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    TL.with(|tl| {
        let mut tl = tl.borrow_mut();
        let sim_ns = tl.sim_now_ns;
        if let Some(sink) = tl.sink.as_mut() {
            sink.observe(name, sim_ns, value);
        }
    });
}

/// Append a lie-lifecycle audit record.
#[inline]
pub fn audit(record: AuditRecord) {
    if !enabled() {
        return;
    }
    TL.with(|tl| {
        let mut tl = tl.borrow_mut();
        if let Some(sink) = tl.sink.as_mut() {
            sink.audit(&record);
        }
    });
}

/// Append an explored-ordering audit record (the schedule explorer's
/// counterpart to [`audit`]: one record per reordered same-timestamp
/// batch). Free when no sink is installed.
#[inline]
pub fn order(record: OrderRecord) {
    if !enabled() {
        return;
    }
    TL.with(|tl| {
        let mut tl = tl.borrow_mut();
        if let Some(sink) = tl.sink.as_mut() {
            sink.order(&record);
        }
    });
}

/// Drop guard closing a span opened by [`span`]. Guards must drop in
/// LIFO order (lexical scoping guarantees this); the type is `!Send`
/// because the span stack is per-thread.
pub struct SpanGuard {
    armed: bool,
    _not_send: PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        TL.with(|tl| {
            let mut tl = tl.borrow_mut();
            let Some(active) = tl.stack.pop() else {
                return; // sink swapped mid-span; nothing to report
            };
            let total_ns = active.start.elapsed().as_nanos() as u64;
            let self_ns = total_ns.saturating_sub(active.child_ns);
            if let Some(parent) = tl.stack.last_mut() {
                parent.child_ns += total_ns;
            }
            if let Some(sink) = tl.sink.as_mut() {
                sink.span(
                    active.phase,
                    active.sim_ns,
                    SpanWall {
                        start: active.start,
                        total_ns,
                        self_ns,
                    },
                );
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_configuration_records_nothing() {
        assert!(!enabled());
        let before = spans_started();
        {
            let _a = span(Phase::KernelDispatch);
            let _b = span(Phase::Settle);
            counter("queue.depth", 3.0);
            observe("settle.dirty_flows", 7);
            audit(AuditRecord {
                sim_ns: 0,
                action: AuditAction::Inject,
                prefix: "p".into(),
                lie: "l".into(),
                trigger: "t".into(),
                candidates: 0,
                predicted_max_util: 0.0,
                measured_max_util: 0.0,
            });
            order(OrderRecord {
                sim_ns: 0,
                batch: 2,
                perm: vec![1, 0],
            });
        }
        assert_eq!(spans_started(), before, "no sink, no armed spans");
    }

    #[test]
    fn order_records_reach_the_sink() {
        install(Box::<AggSink>::default());
        order(OrderRecord {
            sim_ns: 7,
            batch: 3,
            perm: vec![2, 1, 0],
        });
        let sink = take().unwrap();
        let agg = sink.as_any().downcast_ref::<AggSink>().unwrap();
        assert_eq!(agg.orders().len(), 1);
        assert_eq!(agg.orders()[0].render(), "t=7 n=3 perm=2.1.0");
    }

    #[test]
    fn nested_spans_report_self_time_partition() {
        install(Box::<AggSink>::default());
        {
            let _outer = span(Phase::ScenarioRun);
            {
                let _inner = span(Phase::Settle);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let agg = take().expect("sink installed");
        let agg = agg.as_any().downcast_ref::<AggSink>().unwrap();
        let attr = agg.attribution();
        let total: f64 = attr.iter().map(|a| a.pct).sum();
        assert!(
            (total - 100.0).abs() < 1e-6,
            "self-time percentages partition the traced clock: {total}"
        );
        let settle = attr
            .iter()
            .find(|a| a.phase == Phase::Settle.name())
            .unwrap();
        let outer = attr
            .iter()
            .find(|a| a.phase == Phase::ScenarioRun.name())
            .unwrap();
        assert_eq!(settle.spans, 1);
        assert_eq!(outer.spans, 1);
        assert!(
            settle.self_ns >= 2_000_000,
            "child span owns the slept time"
        );
    }

    #[test]
    fn sim_now_is_captured_at_span_start() {
        install(Box::new(ChromeSink::new(16)));
        set_sim_now(1_500);
        {
            let _s = span(Phase::FibInstall);
        }
        let sink = take().unwrap();
        let chrome = sink.as_any().downcast_ref::<ChromeSink>().unwrap();
        assert!(chrome
            .doc()
            .render(artifact::View::Full)
            .contains("\"sim_ns\": 1500"));
    }

    #[test]
    fn install_returns_previous_sink() {
        assert!(install(Box::<AggSink>::default()).is_none());
        assert!(install(Box::<AggSink>::default()).is_some());
        assert!(take().is_some());
        assert!(take().is_none());
        assert!(!enabled());
    }
}
