//! The benchmark-owned trace sink.
//!
//! Like `fib_trace::AggSink` it keeps per-phase span counts with self
//! and inclusive time; on top of that it keeps every span's inclusive
//! duration (for medians and tail percentiles), gauge maxima and the
//! observation histograms. `kernel.dispatch` closes over a million
//! spans on `metro_core`, so its samples are not kept — only its sums.

use fib_trace::{AuditRecord, Phase, SpanWall, TraceSink, PHASE_COUNT};
use std::any::Any;
use std::collections::BTreeMap;

/// Per-phase sums, per-span samples, gauge peaks and histograms of one
/// or more traced reps.
#[derive(Debug, Default)]
pub struct LedgerSink {
    spans: [u64; PHASE_COUNT],
    self_ns: [u64; PHASE_COUNT],
    total_ns: [u64; PHASE_COUNT],
    samples: [Vec<u32>; PHASE_COUNT],
    gauge_max: BTreeMap<&'static str, f64>,
    /// `(count, sum)` per observation series.
    observed: BTreeMap<&'static str, (u64, u64)>,
}

impl LedgerSink {
    /// An empty sink.
    pub fn new() -> LedgerSink {
        LedgerSink::default()
    }

    /// Spans closed for `phase`.
    pub fn spans(&self, phase: Phase) -> u64 {
        self.spans[phase.index()]
    }

    /// Spans closed over all phases.
    pub fn spans_total(&self) -> u64 {
        self.spans.iter().sum()
    }

    /// Self nanoseconds of `phase` (self times partition the traced clock).
    pub fn self_ns(&self, phase: Phase) -> u64 {
        self.self_ns[phase.index()]
    }

    /// Self nanoseconds over all phases.
    pub fn self_ns_total(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    /// Inclusive nanoseconds of `phase`.
    pub fn total_ns(&self, phase: Phase) -> u64 {
        self.total_ns[phase.index()]
    }

    /// Mean inclusive nanoseconds per span of `phase` (0 without spans).
    pub fn mean_ns(&self, phase: Phase) -> f64 {
        match self.spans(phase) {
            0 => 0.0,
            n => self.total_ns(phase) as f64 / n as f64,
        }
    }

    /// Inclusive duration of every span of `phase`, in nanoseconds
    /// (empty for `kernel.dispatch`, whose samples are not kept).
    pub fn samples_ns(&self, phase: Phase) -> Vec<f64> {
        self.samples[phase.index()]
            .iter()
            .map(|ns| f64::from(*ns))
            .collect()
    }

    /// Largest sample of gauge `name` (0 if never sampled).
    pub fn gauge_max(&self, name: &str) -> f64 {
        self.gauge_max.get(name).copied().unwrap_or(0.0)
    }

    /// Mean of observation series `name` (0 if never observed).
    pub fn observed_mean(&self, name: &str) -> f64 {
        match self.observed.get(name) {
            Some((count, sum)) if *count > 0 => *sum as f64 / *count as f64,
            _ => 0.0,
        }
    }
}

impl TraceSink for LedgerSink {
    fn span(&mut self, phase: Phase, _sim_ns: u64, wall: SpanWall) {
        let i = phase.index();
        self.spans[i] += 1;
        self.self_ns[i] += wall.self_ns;
        self.total_ns[i] += wall.total_ns;
        if phase != Phase::KernelDispatch {
            // Saturates at 4.29 s; no instrumented region below the
            // whole-run span comes near that.
            self.samples[i].push(u32::try_from(wall.total_ns).unwrap_or(u32::MAX));
        }
    }

    fn counter(&mut self, name: &'static str, _sim_ns: u64, value: f64) {
        let max = self.gauge_max.entry(name).or_insert(value);
        *max = max.max(value);
    }

    fn observe(&mut self, name: &'static str, _sim_ns: u64, value: u64) {
        let (count, sum) = self.observed.entry(name).or_insert((0, 0));
        *count += 1;
        *sum += value;
    }

    fn audit(&mut self, _record: &AuditRecord) {}

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Install a fresh [`LedgerSink`] on this thread.
pub fn install() {
    fib_trace::install(Box::new(LedgerSink::new()));
}

/// Install `sink` (re-arming after a pause).
pub fn reinstall(sink: LedgerSink) {
    fib_trace::install(Box::new(sink));
}

/// Remove this thread's sink; `None` if it was not a [`LedgerSink`].
pub fn lift() -> Option<LedgerSink> {
    fib_trace::take()?
        .into_any()
        .downcast::<LedgerSink>()
        .ok()
        .map(|b| *b)
}
