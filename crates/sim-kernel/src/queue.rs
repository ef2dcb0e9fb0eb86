//! The time-ordered event queue.
//!
//! One queue per simulation: an ordered map from each instant that has
//! events to the FIFO of those events, so simultaneous events pop in
//! exactly the order they were pushed (stable FIFO tie-break) by
//! construction, which is what makes whole-run determinism an
//! invariant rather than an accident. A pushed event fires: nothing in
//! the workspace ever took one back, so the queue keeps no per-event
//! state beside the event itself.
//!
//! The container follows the traffic: a simulated network delivers in
//! bursts (tens to thousands of events per instant), so ordering is
//! paid once per instant and a pop is a `pop_front`. A FIFO is made of
//! chunks that go back to a shared spare list as they drain, so the
//! memory held follows the events still queued (ARCHITECTURE.md,
//! "Event kernel", has the numbers).
//!
//! ## Controlled nondeterminism
//!
//! The FIFO tie-break is also the one place where a real network's
//! scheduling freedom hides: packets arriving "at the same instant"
//! have no canonical order, and the simulator's stable order is just
//! one of `n!` the physical world could serve. The queue therefore
//! accepts an optional [`TieBreak`] hook ([`EventQueue::set_tie_break`])
//! that, for every batch of two or more pending events sharing the
//! earliest timestamp, chooses the serving permutation. Unarmed
//! (default), the hook costs one branch per pop and the queue is
//! byte-identical to the stock FIFO behaviour; armed, an adversarial
//! explorer can enumerate or sample interleavings while `len` and
//! `peek_time` stay exact.

use std::collections::{BTreeMap, VecDeque};

/// A controlled-nondeterminism hook over same-time event batches.
///
/// When armed via [`EventQueue::set_tie_break`], the queue calls
/// [`TieBreak::permute`] once per batch of `n >= 2` queued events
/// sharing the earliest time. The hook writes a permutation of
/// `0..n` into `out` (index `0` = the event FIFO order would serve
/// first); leaving `out` empty selects the identity permutation, i.e.
/// stock FIFO. The hook observes every decision point it is asked
/// about, so an implementation can also record the schedule trace for
/// replay and distinctness accounting.
pub trait TieBreak<T>: Send {
    /// Choose the serving order for `n` events due at time `at`.
    ///
    /// `out` arrives empty; either leave it empty (identity) or fill
    /// it with a permutation of `0..n`. Anything else is a programming
    /// error and panics deterministically.
    fn permute(&mut self, at: T, n: usize, out: &mut Vec<u32>);
}

/// Most events a chunk holds. Chunks start empty and grow to this: a
/// lone event on its instant costs a few slots, not a full chunk.
const CHUNK: usize = 256;

/// One instant's events in push order: chunks front to back, none of
/// them empty, all but the last full.
type Bucket<E> = VecDeque<VecDeque<E>>;

/// A min-queue of `(time, event)` with stable FIFO tie-breaking.
pub struct EventQueue<T, E> {
    /// The queued events by instant; an instant with none has no entry.
    buckets: BTreeMap<T, Bucket<E>>,
    /// Drained chunks, handed to whichever bucket fills next.
    spare: Vec<VecDeque<E>>,
    /// Events in `buckets` and `batch` together.
    len: usize,
    /// The armed tie-break strategy, if any (`None` = stock FIFO).
    hook: Option<Box<dyn TieBreak<T>>>,
    /// A drained same-time batch, already permuted into serving order.
    batch: VecDeque<(T, E)>,
}

impl<T: Ord + Copy, E> EventQueue<T, E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: BTreeMap::new(),
            spare: Vec::new(),
            len: 0,
            hook: None,
            batch: VecDeque::new(),
        }
    }

    /// Arm (or, with `None`, disarm) the same-time [`TieBreak`] hook.
    ///
    /// Disarming while a permuted batch is buffered keeps serving that
    /// batch in its committed order; only future batches revert to
    /// FIFO.
    pub fn set_tie_break(&mut self, hook: Option<Box<dyn TieBreak<T>>>) {
        self.hook = hook;
    }

    /// Schedule `ev` at time `at`.
    pub fn push(&mut self, at: T, ev: E) {
        self.len += 1;
        let bucket = self.buckets.entry(at).or_default();
        match bucket.back_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push_back(ev),
            _ => {
                let mut chunk = self.spare.pop().unwrap_or_default();
                chunk.push_back(ev);
                bucket.push_back(chunk);
            }
        }
    }

    /// The time of the earliest queued event.
    pub fn peek_time(&self) -> Option<T> {
        match (self.batch.front().map(|e| e.0), self.buckets.keys().next()) {
            (Some(b), Some(h)) => Some(b.min(*h)),
            (b, h) => b.or(h.copied()),
        }
    }

    /// Pop the earliest queued event.
    pub fn pop(&mut self) -> Option<(T, E)> {
        if self.hook.is_some() || !self.batch.is_empty() {
            return self.pop_with_batch();
        }
        // Stock FIFO: the two branches above are the whole cost of the
        // unarmed hook.
        self.pop_bucket()
    }

    /// Pop the front of the earliest bucket; its drained chunks go to
    /// the spare list, and the bucket itself when nothing is left.
    fn pop_bucket(&mut self) -> Option<(T, E)> {
        let mut first = self.buckets.first_entry()?;
        let at = *first.key();
        let bucket = first.get_mut();
        let chunk = bucket.front_mut().expect("a bucket holds a chunk");
        let ev = chunk.pop_front().expect("a queued chunk holds an event");
        if chunk.is_empty() {
            self.spare.extend(bucket.pop_front());
            if bucket.is_empty() {
                first.remove();
            }
        }
        self.len -= 1;
        Some((at, ev))
    }

    /// Pop on the armed (or batch-draining) path.
    fn pop_with_batch(&mut self) -> Option<(T, E)> {
        match self.batch.front() {
            None => self.fill_batch(),
            // A push landed strictly *before* the buffered batch's
            // time (never happens under a monotone simulation clock,
            // but queue semantics must not depend on that): serve the
            // earlier buckets stock-FIFO until the batch is earliest
            // again.
            Some(front) if self.buckets.keys().next().is_some_and(|at| *at < front.0) => {
                return self.pop_bucket();
            }
            Some(_) => {}
        }
        let served = self.batch.pop_front()?;
        self.len -= 1;
        Some(served)
    }

    /// Move the earliest bucket — the same-time group the hook decides
    /// about — into the batch buffer, asking the hook for a serving
    /// permutation when the group has two or more members. A push onto
    /// that instant while the batch drains opens a new bucket: the next
    /// group.
    fn fill_batch(&mut self) {
        let Some((at, bucket)) = self.buckets.pop_first() else {
            return;
        };
        for mut chunk in bucket {
            self.batch.extend(chunk.drain(..).map(|ev| (at, ev)));
            self.spare.push(chunk);
        }
        let n = self.batch.len();
        let Some(hook) = self.hook.as_mut().filter(|_| n >= 2) else {
            return;
        };
        let mut perm: Vec<u32> = Vec::new();
        hook.permute(at, n, &mut perm);
        if perm.is_empty() {
            return;
        }
        assert_eq!(
            perm.len(),
            n,
            "TieBreak::permute wrote {} indices for a batch of {n}",
            perm.len()
        );
        // The batch is in FIFO order (a bucket is push order); apply
        // the chosen serving order on top of it.
        let mut slots: Vec<Option<(T, E)>> = self.batch.drain(..).map(Some).collect();
        for &i in &perm {
            let entry = slots.get_mut(i as usize).and_then(Option::take);
            self.batch.push_back(entry.unwrap_or_else(|| {
                panic!("TieBreak::permute output is not a permutation of 0..{n}")
            }));
        }
    }

    /// Pop the earliest queued event if its time is `<= now`.
    pub fn pop_due(&mut self, now: T) -> Option<(T, E)> {
        if self.peek_time()? <= now {
            self.pop()
        } else {
            None
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T: Ord + Copy, E> Default for EventQueue<T, E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30u64, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.peek_time(), Some(10));
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(5u64, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn tie_break_is_stable_across_interleaved_times() {
        // Pushes at mixed times: equal-time events must still pop in
        // push order even when later pushes land earlier in time.
        let mut q = EventQueue::new();
        q.push(7u64, "x0");
        q.push(3, "a0");
        q.push(7, "x1");
        q.push(3, "a1");
        q.push(7, "x2");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![(3, "a0"), (3, "a1"), (7, "x0"), (7, "x1"), (7, "x2")]
        );
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(10u64, "a");
        q.push(20, "b");
        assert_eq!(q.pop_due(5), None);
        assert_eq!(q.pop_due(10), Some((10, "a")));
        assert_eq!(q.pop_due(10), None);
        assert_eq!(q.pop_due(99), Some((20, "b")));
    }

    /// Reverses every same-time batch.
    struct Reverse;
    impl TieBreak<u64> for Reverse {
        fn permute(&mut self, _at: u64, n: usize, out: &mut Vec<u32>) {
            out.extend((0..n as u32).rev());
        }
    }

    /// Always identity, via the empty-`out` shorthand.
    struct Identity;
    impl TieBreak<u64> for Identity {
        fn permute(&mut self, _at: u64, _n: usize, _out: &mut Vec<u32>) {}
    }

    #[test]
    fn armed_reverse_hook_permutes_equal_time_batches() {
        let mut q = EventQueue::new();
        q.set_tie_break(Some(Box::new(Reverse)));
        q.push(5u64, "a");
        q.push(5, "b");
        q.push(5, "c");
        q.push(9, "z");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(5, "c"), (5, "b"), (5, "a"), (9, "z")]);
    }

    #[test]
    fn identity_hook_matches_stock_fifo() {
        let mut armed = EventQueue::new();
        armed.set_tie_break(Some(Box::new(Identity)));
        let mut stock = EventQueue::new();
        for (t, v) in [(7u64, 0), (3, 1), (7, 2), (3, 3), (7, 4), (1, 5)] {
            armed.push(t, v);
            stock.push(t, v);
        }
        let a: Vec<_> = std::iter::from_fn(|| armed.pop()).collect();
        let s: Vec<_> = std::iter::from_fn(|| stock.pop()).collect();
        assert_eq!(a, s);
    }

    /// The contract every byte pin rests on, against a model: a `Vec`
    /// kept sorted by `(time, push index)`. Pushes land before, at and
    /// after the times already queued; `len` and `peek_time` are
    /// compared after every step.
    fn run_against_sorted_vec_model(armed: bool) {
        let mut q: EventQueue<u64, u64> = EventQueue::new();
        if armed {
            q.set_tie_break(Some(Box::new(Identity)));
        }
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let (mut now, mut pushed) = (0u64, 0u64);
        for _ in 0..300_000 {
            let r = rand();
            let served = match r % 8 {
                0..=3 if model.len() < 96 => {
                    // Mostly ahead of the clock, in a range narrow
                    // enough to tie often; now and then behind it.
                    let t = match (r >> 8) % 16 {
                        0 => now.saturating_sub((r >> 16) % 4),
                        _ => now + (r >> 16) % 12,
                    };
                    q.push(t, pushed);
                    model.insert(model.partition_point(|e| *e <= (t, pushed)), (t, pushed));
                    pushed += 1;
                    None
                }
                4 | 5 => {
                    let due = now + (r >> 8) % 6;
                    let want = (model.first().is_some_and(|e| e.0 <= due)).then(|| model.remove(0));
                    assert_eq!(q.pop_due(due), want);
                    want
                }
                _ => {
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    assert_eq!(q.pop(), want);
                    want
                }
            };
            if let Some((t, _)) = served {
                now = now.max(t);
            }
            assert_eq!(q.len(), model.len());
            assert_eq!(q.is_empty(), model.is_empty());
            assert_eq!(q.peek_time(), model.first().map(|e| e.0));
        }
        assert!(pushed > 100_000, "only {pushed} pushes");
    }

    #[test]
    fn interleaved_pushes_and_pops_match_a_sorted_vec_model() {
        run_against_sorted_vec_model(false);
        run_against_sorted_vec_model(true);
    }

    /// The same contract under the traffic the simulator produces:
    /// at most eight live instants, thousands of events on each, and
    /// pushes onto the instant being drained. The model is the sorted
    /// `Vec` again (a deque, so serving the front is cheap); with
    /// `reverse` it also keeps the committed batch the way the queue's
    /// documentation describes it — the earliest group, reversed, with
    /// same-time pushes waiting for the next group and earlier pushes
    /// served first.
    fn run_tie_heavy(hook: Option<Box<dyn TieBreak<u64>>>, reverse: bool) {
        let mut q: EventQueue<u64, u64> = EventQueue::new();
        q.set_tie_break(hook);
        let mut rest: VecDeque<(u64, u64)> = VecDeque::new();
        let mut batch: VecDeque<(u64, u64)> = VecDeque::new();
        let mut x = 0xD1B5_4A32_D192_ED03u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x >> 8
        };
        // Instants are multiples of 10 from one behind the clock to
        // six ahead of it: eight at most hold events at any time.
        let (mut now, mut pushed, mut deepest, mut longest_tie) = (10u64, 0u64, 0, 0);
        for step in 0..240_000u32 {
            let r = rand();
            // Fill for 30 000 steps, drain for 30 000, four times over.
            let push_odds = if (step / 30_000) % 2 == 0 { 12 } else { 4 };
            if r % 16 < push_odds {
                let t = match (r >> 8) % 64 {
                    0 => now - 10,
                    1..=16 => now,
                    k => now + 10 * (1 + k % 6),
                };
                q.push(t, pushed);
                rest.insert(rest.partition_point(|e| e.0 <= t), (t, pushed));
                pushed += 1;
            } else {
                // One pop in four is a `pop_due` at a time the front may
                // or may not meet; a group is committed only by a pop
                // that serves.
                let due = ((r >> 8) % 4 == 0).then(|| now - 10 + 10 * ((r >> 16) % 3));
                let head = [batch.front(), rest.front()].into_iter().flatten();
                let head = head.map(|e| e.0).min();
                let want = if head.is_some_and(|t| due.map_or(true, |d| t <= d)) {
                    if reverse && batch.is_empty() {
                        let n = rest.partition_point(|e| e.0 <= rest[0].0);
                        batch.extend(rest.drain(..n).rev());
                        longest_tie = longest_tie.max(n);
                    }
                    match (batch.front(), rest.front()) {
                        (Some(b), Some(r)) if r.0 < b.0 => rest.pop_front(),
                        (Some(_), _) => batch.pop_front(),
                        (None, _) => rest.pop_front(),
                    }
                } else {
                    None
                };
                let got = match due {
                    Some(d) => q.pop_due(d),
                    None => q.pop(),
                };
                assert_eq!(got, want);
                if let Some((t, _)) = want {
                    now = now.max(t);
                }
            }
            assert_eq!(q.len(), rest.len() + batch.len());
            let times = [batch.front(), rest.front()];
            assert_eq!(
                q.peek_time(),
                times.into_iter().flatten().map(|e| e.0).min()
            );
            deepest = deepest.max(q.len());
        }
        // Eight instants at most: some instant held thousands.
        assert!(deepest > 8 * 1024, "depth peaked at {deepest}");
        assert!(!reverse || longest_tie > 1024, "longest tie {longest_tie}");
        assert!(now >= 200, "the clock only reached {now}");
    }

    #[test]
    fn tie_heavy_traffic_matches_the_model_unarmed_identity_and_reversed() {
        run_tie_heavy(None, false);
        run_tie_heavy(Some(Box::new(Identity)), false);
        run_tie_heavy(Some(Box::new(Reverse)), true);
    }

    /// Records decision points through a shared handle so tests can
    /// inspect them after the boxed hook is owned by the queue.
    struct SharedRecorder(std::sync::Arc<std::sync::Mutex<Vec<(u64, usize)>>>);
    impl TieBreak<u64> for SharedRecorder {
        fn permute(&mut self, at: u64, n: usize, out: &mut Vec<u32>) {
            self.0.lock().unwrap().push((at, n));
            out.extend((0..n as u32).rev());
        }
    }

    #[test]
    fn singleton_batches_do_not_consult_the_hook() {
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut q = EventQueue::new();
        q.set_tie_break(Some(Box::new(SharedRecorder(log.clone()))));
        q.push(1u64, "a");
        q.push(2, "b");
        q.push(2, "c");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(1, "a"), (2, "c"), (2, "b")]);
        // Only the t=2 pair was a decision point; the t=1 singleton
        // never reached the hook.
        assert_eq!(*log.lock().unwrap(), vec![(2, 2)]);
    }

    /// Names an index twice: not a permutation.
    struct Repeats;
    impl TieBreak<u64> for Repeats {
        fn permute(&mut self, _at: u64, n: usize, out: &mut Vec<u32>) {
            out.extend((0..n as u32).map(|i| i / 2));
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation of 0..3")]
    fn a_hook_that_repeats_an_index_panics() {
        let mut q = EventQueue::new();
        q.set_tie_break(Some(Box::new(Repeats)));
        for ev in ["a", "b", "c"] {
            q.push(1u64, ev);
        }
        q.pop();
    }

    #[test]
    fn same_time_pushes_during_a_batch_form_the_next_batch() {
        let mut q = EventQueue::new();
        q.set_tie_break(Some(Box::new(Reverse)));
        q.push(4u64, "a");
        q.push(4, "b");
        assert_eq!(q.pop(), Some((4, "b")));
        // A dispatch-time push at the same instant: joins a *new*
        // batch rather than the committed one.
        q.push(4, "x");
        q.push(4, "y");
        assert_eq!(q.pop(), Some((4, "a")));
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(rest, vec![(4, "y"), (4, "x")]);
    }

    #[test]
    fn disarming_mid_batch_keeps_the_committed_order() {
        let mut q = EventQueue::new();
        q.set_tie_break(Some(Box::new(Reverse)));
        q.push(1u64, "a");
        q.push(1, "b");
        q.push(1, "c");
        assert_eq!(q.pop(), Some((1, "c")));
        q.set_tie_break(None);
        assert_eq!(q.pop(), Some((1, "b")));
        assert_eq!(q.pop(), Some((1, "a")));
        // Future batches are FIFO again.
        q.push(2, "d");
        q.push(2, "e");
        assert_eq!(q.pop(), Some((2, "d")));
        assert_eq!(q.pop(), Some((2, "e")));
    }

    #[test]
    fn pop_due_respects_now_with_armed_hook() {
        let mut q = EventQueue::new();
        q.set_tie_break(Some(Box::new(Reverse)));
        q.push(10u64, "a");
        q.push(10, "b");
        q.push(20, "z");
        assert_eq!(q.pop_due(5), None);
        assert_eq!(q.pop_due(10), Some((10, "b")));
        assert_eq!(q.pop_due(10), Some((10, "a")));
        assert_eq!(q.pop_due(10), None);
        assert_eq!(q.pop_due(20), Some((20, "z")));
    }
}
