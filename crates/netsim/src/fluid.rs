//! Max-min fair fluid bandwidth allocation.
//!
//! Long-lived TCP flows sharing a capacitated network converge (to
//! first order) to the max-min fair allocation. The demo's Fig. 2
//! reports per-link throughput of 31–62 concurrent video flows; a
//! fluid model reproduces those equilibria deterministically and
//! without packet-level noise — the standard substitution for a
//! Mininet data plane (see docs/ARCHITECTURE.md, "Incremental
//! recompute").
//!
//! The allocator implements progressive filling with per-flow rate
//! caps: all unfixed flows grow at the same rate; a step ends when a
//! link saturates (its flows are frozen) or a flow hits its cap
//! (application-limited, e.g. a video at its bitrate).
//!
//! Two implementations exist:
//!
//! * [`max_min_allocation`] / [`max_min_keyed`] — the straightforward
//!   full recompute, one flow at a time, allocating fresh buffers per
//!   call. Retained as the reference the allocator below is tested
//!   against: its rates bit for bit, its link loads within `n` ulps.
//! * The class fill (`ClassFill`) — the version the simulator uses,
//!   and the one [`Allocator`] runs for a caller that names links by
//!   key: buffers persist across calls, every call fills, and the fill
//!   works on *classes* — the flows that cross the same links under
//!   the same cap — because a crowd is thousands of flows over a
//!   handful of forwarding decisions (36 000 sessions over 7 paths and
//!   at most 10 classes on the ledger's `dataplane_churn`).
//!
//! # Interning
//!
//! Paths and classes are interned by content in grow-only tables, the
//! way the simulator keeps them: a `PathTable` gives each distinct
//! list of link positions an id, a `ClassTable` each distinct (path
//! id, cap bits). The simulator finds a flow's class where it resolves
//! the flow's path and where the flow's cap changes — a few dozen
//! flows a settle — and keeps the id in a dense per-flow column, with
//! `UNROUTED` for a flow without a usable path. It lists each class's
//! members (`Members`) where a flow gains or loses a class, and marks
//! that flow, so a settle stages nothing per flow: the fill starts from
//! the member counts and reads the column only to find a forced
//! freeze's flow; after it, the loads are summed per class, and a rate
//! is written only where it may have moved — the members of a class
//! whose rate bits changed, a marked flow, a flow frozen alone at this
//! fill or the one before. The fill touches only the classes that have
//! members, so a table that grows over a run costs nothing per settle.
//!
//! # Why classes give the reference's bits
//!
//! The three things a round of progressive filling does are
//! order-free, so they can be done per class and per link, and every
//! rate comes out with the reference's bits. The link loads summed
//! after the fill are not order-free, and come out within a few ulps.
//!
//! * **One level.** Every unfrozen flow's rate is `0.0` plus the same
//!   `delta`s in the same order, so all unfrozen flows share one
//!   `f64`. A flow's rate is written once, when it freezes, and the
//!   round's cap limit `min (cap - rate).max(0.0)` over unfrozen flows
//!   is a `min` over unfrozen classes of the same expression.
//! * **Residuals.** A link's residual loses the round's `delta` once
//!   per unfrozen flow crossing it: the same value, that many times,
//!   whichever flows they are. Repeating the subtraction on a local
//!   gives the reference's bits. `n as f64 * delta` does not — it
//!   rounds once where the reference rounds `n` times — and that
//!   difference moves pinned bytes.
//! * **Freezing.** Whether a flow freezes in a round — at its cap, or
//!   on a link whose residual fell to `1e-9` — depends on its links and
//!   its cap only, so a class freezes whole. The exception: when a
//!   round froze nothing, the reference freezes the lowest-index
//!   unfrozen flow alone, which splits its class. The fill keeps a
//!   count of unfrozen members per class and a cursor over the flows
//!   (everything before it is frozen); the forced flow is the first at
//!   or after the cursor whose class is unfrozen. This is traffic, not
//!   a corner: thousands of subtractions from a 4e8 B/s link leave more
//!   than `1e-9`: 116 of 1 174 distinct-input fills on
//!   `dataplane_churn` force at least once (165 flows in all; 115 of
//!   462 on `predictive_storm`).
//! * **Loads.** The reference's load of a link is the sum, in flow
//!   order, of rates that differ from class to class, and f64 addition
//!   is not associative. The spread sums `n × rate` per class instead,
//!   in ascending class id, then adds each flow frozen alone: within
//!   `n` ulps of the flow-order sum for `n` flows on the link, not its
//!   bits. No rate reads a load; the interface counters integrate
//!   them, and a controller polls those.
//!
//! None of the three depends on how classes are numbered, so the ids a
//! table hands out (in the order pairs were first seen over the whole
//! run, not within one input) cannot move a rate bit: a link's
//! subtraction count is a sum of member counts, a class freezes whole
//! or not at all, and the forced freeze is chosen by walking the flows
//! in order. The caps and residuals a round
//! compares are `min`s, which do not care in which order the classes
//! are visited either — so the fill visits them in whatever order the
//! member counts list them, which is not the order of the input.
//!
//! What is still *not* done, for the reason it never was: refilling
//! only the connected component a change touched. Progressive filling
//! interleaves growth steps *across* components — a freeze in one
//! component splits the delta sequence applied to every other. The
//! final rates are mathematically identical either way, but a
//! per-component refill lands on different last-ulp bits than the
//! global fill that produced the previous trace. This repo pins runs
//! byte-for-byte (determinism tests, CI diffs), and an ulp can amplify
//! through discrete branches (a player stalling, a controller
//! threshold), so the allocator only saves work where the result is
//! provably bit-identical: the order-free part of one fill.

use crate::flow::{ClassChange, ClassId, FlowId};
use std::collections::BTreeMap;

/// Input flow: the links it crosses (indexes into the capacity slice)
/// and an optional application rate cap in bytes/s.
#[derive(Debug, Clone)]
pub struct FluidFlow {
    /// Indexes of crossed links.
    pub links: Vec<usize>,
    /// Application-level cap (`None` = network-limited only).
    pub cap: Option<f64>,
}

/// Result of an allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Per-flow rate in bytes/s (same order as the input).
    pub rates: Vec<f64>,
    /// Per-link total load in bytes/s (same order as capacities).
    pub link_loads: Vec<f64>,
}

/// Compute the max-min fair allocation of `flows` over links with the
/// given `capacities` (bytes/s).
///
/// Complexity: O(rounds × (F + L)) with rounds ≤ F + L. Flows crossing
/// no link (degenerate) are limited only by their cap (or get 0.0 if
/// uncapped — nothing constrains them, but an unconstrained flow has
/// no meaningful rate; we pin it to its cap or 0).
pub fn max_min_allocation(capacities: &[f64], flows: &[FluidFlow]) -> Allocation {
    let nl = capacities.len();
    let nf = flows.len();
    let mut rates = vec![0.0f64; nf];
    let mut fixed = vec![false; nf];
    let mut residual: Vec<f64> = capacities.to_vec();
    let mut link_active: Vec<usize> = vec![0; nl];

    for f in flows {
        for &l in &f.links {
            assert!(l < nl, "flow references unknown link {l}");
        }
    }

    // Degenerate flows: no links.
    for (i, f) in flows.iter().enumerate() {
        if f.links.is_empty() {
            rates[i] = f.cap.unwrap_or(0.0);
            fixed[i] = true;
        }
    }

    for (i, f) in flows.iter().enumerate() {
        if fixed[i] {
            continue;
        }
        for &l in &f.links {
            link_active[l] += 1;
        }
    }

    let mut remaining: usize = fixed.iter().filter(|x| !**x).count();
    let mut guard = 0usize;
    while remaining > 0 {
        guard += 1;
        assert!(
            guard <= nf + nl + 2,
            "progressive filling failed to converge"
        );
        // Largest uniform increment allowed by links.
        let mut delta = f64::INFINITY;
        for l in 0..nl {
            if link_active[l] > 0 {
                delta = delta.min((residual[l] / link_active[l] as f64).max(0.0));
            }
        }
        // ... and by flow caps.
        for (i, f) in flows.iter().enumerate() {
            if fixed[i] {
                continue;
            }
            if let Some(cap) = f.cap {
                delta = delta.min((cap - rates[i]).max(0.0));
            }
        }
        if !delta.is_finite() {
            // No link constrains any active flow and no caps: nothing
            // to grow against (cannot happen for flows with links and
            // positive capacities, but guard anyway).
            break;
        }

        // Apply the increment.
        for (i, f) in flows.iter().enumerate() {
            if fixed[i] {
                continue;
            }
            rates[i] += delta;
            for &l in &f.links {
                residual[l] -= delta;
            }
        }

        // Freeze flows at caps.
        let mut newly_fixed: Vec<usize> = Vec::new();
        for (i, f) in flows.iter().enumerate() {
            if fixed[i] {
                continue;
            }
            if let Some(cap) = f.cap {
                if rates[i] >= cap - 1e-9 {
                    newly_fixed.push(i);
                    continue;
                }
            }
        }
        // Freeze flows on saturated links.
        const EPS: f64 = 1e-9;
        for l in 0..nl {
            if link_active[l] > 0 && residual[l] <= EPS {
                for (i, f) in flows.iter().enumerate() {
                    if !fixed[i] && f.links.contains(&l) && !newly_fixed.contains(&i) {
                        newly_fixed.push(i);
                    }
                }
            }
        }
        if newly_fixed.is_empty() {
            // Numerical corner: force the most constrained flow fixed.
            if let Some(i) = (0..nf).find(|i| !fixed[*i]) {
                newly_fixed.push(i);
            }
        }
        for i in newly_fixed {
            if !fixed[i] {
                fixed[i] = true;
                remaining -= 1;
                for &l in &flows[i].links {
                    link_active[l] -= 1;
                }
            }
        }
    }

    let mut link_loads = vec![0.0; nl];
    for (i, f) in flows.iter().enumerate() {
        for &l in &f.links {
            link_loads[l] += rates[i];
        }
    }
    Allocation { rates, link_loads }
}

/// Convenience wrapper keyed by arbitrary link identifiers.
pub fn max_min_keyed<K: Ord + Clone>(
    capacities: &BTreeMap<K, f64>,
    flows: &[(Vec<K>, Option<f64>)],
) -> (Vec<f64>, BTreeMap<K, f64>) {
    let keys: Vec<K> = capacities.keys().cloned().collect();
    let index: BTreeMap<K, usize> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (k.clone(), i))
        .collect();
    let caps: Vec<f64> = keys.iter().map(|k| capacities[k]).collect();
    let fluid_flows: Vec<FluidFlow> = flows
        .iter()
        .map(|(links, cap)| FluidFlow {
            links: links.iter().map(|k| index[k]).collect(),
            cap: *cap,
        })
        .collect();
    let alloc = max_min_allocation(&caps, &fluid_flows);
    let loads: BTreeMap<K, f64> = keys.into_iter().zip(alloc.link_loads).collect();
    (alloc.rates, loads)
}

/// Link-position lists interned by content: the same links in the same
/// order always get the same id, and an id never changes its meaning.
/// That is what lets the allocator compare two inputs id by id, and
/// group flows by id.
///
/// The table only grows: one entry per distinct list ever interned,
/// never freed. The simulator interns a path where it resolves one, so
/// its table holds the distinct routed paths a run has seen — 10 / 12 /
/// 7 / at most 5 on the four ledger workloads — not one entry per
/// flow.
#[derive(Debug, Default)]
pub(crate) struct PathTable {
    paths: Vec<Box<[u32]>>,
    ids: BTreeMap<Box<[u32]>, u32>,
}

impl PathTable {
    /// The id of `links`, a new one iff the table has not seen them.
    pub(crate) fn intern(&mut self, links: &[u32]) -> u32 {
        if let Some(id) = self.ids.get(links) {
            return *id;
        }
        let id = u32::try_from(self.paths.len()).expect("fewer than 2^32 distinct paths");
        self.paths.push(links.into());
        self.ids.insert(links.into(), id);
        id
    }

    /// The links `id` names.
    pub(crate) fn links(&self, id: u32) -> &[u32] {
        &self.paths[id as usize]
    }

    /// Distinct lists interned so far.
    pub(crate) fn len(&self) -> usize {
        self.paths.len()
    }
}

/// The class id of a flow without a usable path: it is in no class,
/// gets a rate of 0.0 and loads no link. Above every id a
/// [`ClassTable`] hands out.
pub(crate) const UNROUTED: u32 = u32::MAX - 1;

/// The class id of a slot that holds no live flow, in the simulator's
/// per-slot column. A fill never sees it.
pub(crate) const STOPPED: u32 = u32::MAX;

/// (path id, cap) pairs interned by content, as [`PathTable`] interns
/// paths: the flows that cross the same links under the same cap bits
/// always get the same id, and an id never changes its meaning. These
/// are the *classes* progressive filling cannot tell apart (module
/// docs): the fill works on them.
///
/// Grow-only, like the path table: one entry per distinct pair ever
/// interned. A flow's class is found where its path or its cap
/// changes, by a search among the few caps interned on its path — not
/// at every settle.
#[derive(Debug, Default)]
pub(crate) struct ClassTable {
    /// Per class id: its path id and cap.
    classes: Vec<(u32, Option<f64>)>,
    /// Per path id: each cap interned on it, with its class id.
    by_path: Vec<Vec<(Option<f64>, u32)>>,
}

impl ClassTable {
    /// The id of (`path`, `cap`), a new one iff the table has not seen
    /// the pair.
    pub(crate) fn intern(&mut self, path: u32, cap: Option<f64>) -> u32 {
        let p = path as usize;
        if self.by_path.len() <= p {
            self.by_path.resize_with(p + 1, Vec::new);
        }
        let on_path = &mut self.by_path[p];
        if let Some((_, id)) = on_path.iter().find(|(c, _)| same_bits(*c, cap)) {
            return *id;
        }
        let id = u32::try_from(self.classes.len())
            .ok()
            .filter(|id| *id < UNROUTED)
            .expect("fewer classes than the sentinel ids");
        self.classes.push((path, cap));
        on_path.push((cap, id));
        id
    }

    /// The path id and cap `class` names.
    pub(crate) fn get(&self, class: u32) -> (u32, Option<f64>) {
        self.classes[class as usize]
    }

    /// The path id `class` names.
    pub(crate) fn path(&self, class: u32) -> u32 {
        self.classes[class as usize].0
    }
}

/// Each class's flows, and which classes have any: what a fill starts
/// from. The simulator keeps one up to date where a flow gains or loses
/// a class (start, stop, resolve, cap change), and marks that flow for
/// the next settle; the keyed entry fills one with each call's input.
#[derive(Debug, Default)]
pub(crate) struct Members {
    /// Per class id: its flows' slots, in no order (empty for a class
    /// not in `used`).
    slots: Vec<Vec<u32>>,
    /// The classes with members, in no order the fill depends on
    /// (module docs).
    used: Vec<u32>,
    /// Per class id in `used`: its position there.
    at: Vec<u32>,
    /// Per slot in a class: its position in the class's `slots`.
    pos: Vec<u32>,
    /// Slots whose class changed since the last settle, with repeats.
    moved: Vec<u32>,
}

impl Members {
    /// The flow in `slot` joins class `c`.
    pub(crate) fn join(&mut self, c: u32, slot: usize) {
        let i = c as usize;
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, Vec::new);
            self.at.resize(i + 1, 0);
        }
        if self.pos.len() <= slot {
            self.pos.resize(slot + 1, 0);
        }
        let slots = &mut self.slots[i];
        if slots.is_empty() {
            self.at[i] = self.used.len() as u32;
            self.used.push(c);
        }
        self.pos[slot] = slots.len() as u32;
        slots.push(slot as u32);
    }

    /// The flow in `slot` leaves class `c`, which it is in.
    pub(crate) fn leave(&mut self, c: u32, slot: usize) {
        let i = c as usize;
        let slots = &mut self.slots[i];
        let p = self.pos[slot] as usize;
        slots.swap_remove(p);
        if let Some(&moved) = slots.get(p) {
            self.pos[moved as usize] = p as u32;
        }
        if slots.is_empty() {
            let at = self.at[i] as usize;
            self.used.swap_remove(at);
            if let Some(&moved) = self.used.get(at) {
                self.at[moved as usize] = at as u32;
            }
        }
    }

    /// The flow in `slot` changed its class: the next settle looks at it.
    pub(crate) fn mark(&mut self, slot: usize) {
        self.moved.push(slot as u32);
    }

    /// No flow in any class, and none marked.
    fn clear(&mut self) {
        for c in self.used.drain(..) {
            self.slots[c as usize].clear();
        }
        self.moved.clear();
    }

    /// The slots of the flows in class `c`, in no order.
    pub(crate) fn slots(&self, c: u32) -> &[u32] {
        self.slots.get(c as usize).map_or(&[], Vec::as_slice)
    }

    /// The flows in class `c`.
    pub(crate) fn count(&self, c: u32) -> usize {
        self.slots(c).len()
    }

    /// How many classes have members.
    pub(crate) fn classes(&self) -> usize {
        self.used.len()
    }

    /// Whether a flow changed its class since the last settle.
    pub(crate) fn any_marked(&self) -> bool {
        !self.moved.is_empty()
    }
}

/// The max-min allocator over classes (see module docs), with its
/// buffers kept across calls: every call hands over the full current
/// input — the link universe (each link's capacity, present iff the
/// link is up) and the flows with their class ids and each class's
/// member count — and runs progressive filling over the input's
/// classes. Its rates are bit-identical to [`max_min_allocation`] on
/// the same input, and its loads within `n` ulps (module docs).
///
/// The simulator drives it directly: it names links by their position
/// in a fixed universe, keeps each flow's interned class id and lists
/// each class's members itself. [`Allocator`] drives it for a caller
/// that names links by key. After each fill, [`ClassFill::spread`]
/// gives the rates out class by class: its work follows the classes
/// and the flows whose rate may have moved, not the live flows.
#[derive(Debug, Default)]
pub(crate) struct ClassFill {
    /// Per link of the universe: its capacity iff it is up.
    caps: Vec<Option<f64>>,
    /// Per link: its load, as the last spread summed it.
    loads: Vec<f64>,
    residual: Vec<f64>,
    /// Per link: unfrozen flows crossing it.
    link_active: Vec<usize>,
    /// Per class id (written and read for the input's classes only):
    /// members not yet frozen, and the rate the class froze at.
    unfrozen: Vec<usize>,
    class_rate: Vec<f64>,
    /// Per class id (read for classes with members only): the rate its
    /// members hold, unless frozen alone, as the last spread left them.
    held: Vec<f64>,
    /// Flows frozen alone, ahead of their class, with their class and
    /// rate, ascending: by position in the caller's order from the
    /// fill, by slot from the spread on.
    forced: Vec<(usize, u32, f64)>,
    /// The slots the fill before the last froze alone, until a spread.
    was_alone: Vec<usize>,
    active_classes: Vec<u32>,
    active_links: Vec<usize>,
    /// Scratch for a spread: the classes with members, by id, and the
    /// slots it looks at apart from a class's members.
    by_id: Vec<u32>,
    look: Vec<usize>,
}

/// The max-min allocator for a caller that names links by key: it
/// translates keys to positions, interns each flow's list and class in
/// tables of its own, lists each class's members, and runs the fill
/// and the spread the simulator runs. Its rates are bit-identical to
/// [`max_min_allocation`] on the same input, and its loads within `n`
/// ulps (module docs).
#[derive(Debug, Default)]
pub struct Allocator<K: Ord + Clone> {
    keys: Vec<K>,
    index: BTreeMap<K, u32>,
    paths: PathTable,
    classes: ClassTable,
    /// Scratch: one flow's links as positions.
    links: Vec<u32>,
    /// The last call's flows as class ids, in its order, and their
    /// classes' member counts.
    ids: Vec<u32>,
    members: Members,
    /// The last call's per-flow rates.
    rates: Vec<f64>,
    fill: ClassFill,
}

/// Subtract `delta` `times` times from the residual of each of the
/// first `W` of `links`: `W` chains, each in a register.
fn lower<const W: usize>(residual: &mut [f64], links: &[usize], times: usize, delta: f64) {
    let mut r: [f64; W] = std::array::from_fn(|k| residual[links[k]]);
    for _ in 0..times {
        for x in &mut r {
            *x -= delta;
        }
    }
    for (x, l) in r.iter().zip(links) {
        residual[*l] = *x;
    }
}

/// Same presence and, if present, same bits.
fn same_bits(a: Option<f64>, b: Option<f64>) -> bool {
    a.map(f64::to_bits) == b.map(f64::to_bits)
}

impl<K: Ord + Clone> Allocator<K> {
    /// A fresh allocator with empty buffers.
    pub fn new() -> Self {
        Allocator {
            keys: Vec::new(),
            index: BTreeMap::new(),
            paths: PathTable::default(),
            classes: ClassTable::default(),
            links: Vec::new(),
            ids: Vec::new(),
            members: Members::default(),
            rates: Vec::new(),
            fill: ClassFill::default(),
        }
    }

    /// Compute the max-min allocation over links named by key:
    /// `capacities` holds the up links, and is the link universe.
    ///
    /// `flows` yields each routed flow's crossed links and cap, in a
    /// stable order (the caller's flow-id order); per-flow rates come
    /// back in the same order via [`Allocator::rates`], per-link loads
    /// via [`Allocator::load`].
    pub fn allocate<'a, I>(&mut self, capacities: &BTreeMap<K, f64>, flows: I)
    where
        K: 'a,
        I: IntoIterator<Item = (&'a [K], Option<f64>)>,
    {
        // A key that comes or goes renumbers the universe. The tables
        // intern positions, so what they hold stays true of them.
        if !self.keys.iter().eq(capacities.keys()) {
            self.keys.clear();
            self.keys.extend(capacities.keys().cloned());
            self.index = (0u32..)
                .zip(&self.keys)
                .map(|(i, k)| (k.clone(), i))
                .collect();
        }
        let Allocator {
            index,
            paths,
            classes,
            links: positions,
            ids,
            members,
            rates,
            fill,
            ..
        } = self;
        // Every call's input is new: each flow, its position its slot,
        // joins its class marked, so the spread gives every one out.
        ids.clear();
        members.clear();
        for (i, (links, cap)) in flows.into_iter().enumerate() {
            positions.clear();
            positions.extend(
                links
                    .iter()
                    .map(|k| *index.get(k).expect("flow references unknown link key")),
            );
            let c = classes.intern(paths.intern(positions), cap);
            members.join(c, i);
            members.mark(i);
            ids.push(c);
        }
        let up = capacities.values().map(|c| Some(*c));
        fill.allocate(paths, classes, up, members, ids.len(), |i| ids[i]);
        rates.resize(ids.len(), 0.0);
        // A position past this input (frozen alone by a longer one)
        // holds no flow.
        let class_of = |i: usize| ids.get(i).copied().unwrap_or(STOPPED);
        let put = |i: usize, r: f64| rates[i] = r;
        fill.spread(paths, classes, members, |i| i, class_of, put, |_| {});
    }

    /// Per-flow rates of the last call, in the caller's flow order.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Per-link loads after the last call, in universe order.
    pub fn loads(&self) -> &[f64] {
        self.fill.loads()
    }

    /// Load of one link after the last call (0.0 for unknown keys).
    pub fn load(&self, key: &K) -> f64 {
        self.index
            .get(key)
            .map(|i| self.fill.loads()[*i as usize])
            .unwrap_or(0.0)
    }
}

impl ClassFill {
    /// Take `n` flows of class `c` out of the filling: they stop
    /// counting on every link the class crosses.
    fn retire(&mut self, links: &[u32], c: u32, n: usize) {
        self.unfrozen[c as usize] -= n;
        for l in links {
            self.link_active[*l as usize] -= n;
        }
    }

    /// Progressive filling over classes, arithmetic identical to
    /// [`max_min_allocation`] (module docs say why; asserted bit for
    /// bit in the tests): one water level, each link's residual
    /// lowered by the round's `delta` once per unfrozen flow crossing
    /// it, classes frozen whole — and, when nothing froze, the
    /// lowest-position unfrozen flow frozen alone. Only the classes
    /// `members` lists are touched, however many the table holds.
    ///
    /// `links` yields the whole universe in a fixed order, one entry
    /// per link, its capacity iff the link is up; `members` counts the
    /// flows of each class of `classes`, whose path ids name links of
    /// `paths` (positions in that order, up links only); `class_at(i)`
    /// is the class id of the flow at position `i` of the caller's `n`,
    /// in a stable order, or [`UNROUTED`]. [`ClassFill::spread`] gives
    /// out the rates and sums the loads.
    pub(crate) fn allocate(
        &mut self,
        paths: &PathTable,
        classes: &ClassTable,
        links: impl IntoIterator<Item = Option<f64>>,
        members: &Members,
        n: usize,
        class_at: impl Fn(usize) -> u32,
    ) {
        self.caps.clear();
        self.caps.extend(links);
        let nl = self.caps.len();
        // A down link carries nothing: no flow crosses it, so it never
        // becomes active and its residual is never read.
        self.residual.clear();
        self.residual
            .extend(self.caps.iter().map(|c| c.unwrap_or(0.0)));
        self.link_active.clear();
        self.link_active.resize(nl, 0);
        // Stale entries of classes not in this input are never read.
        self.unfrozen.resize(members.slots.len(), 0);
        self.class_rate.resize(members.slots.len(), 0.0);
        let mut nf = 0;
        for &c in &members.used {
            let (path, cap) = classes.get(c);
            let links = paths.links(path);
            let count = members.count(c);
            nf += count;
            debug_assert!(
                links.iter().all(|l| self.caps[*l as usize].is_some()),
                "flow crosses a down link"
            );
            // Degenerate flows (no links) are limited only by their
            // cap, and fixed from the start.
            let (unfrozen, rate) = match links {
                [] => (0, cap.unwrap_or(0.0)),
                _ => (count, 0.0),
            };
            self.unfrozen[c as usize] = unfrozen;
            self.class_rate[c as usize] = rate;
            for l in links {
                self.link_active[*l as usize] += count;
            }
        }
        let unfrozen = &self.unfrozen;
        self.active_classes.clear();
        self.active_classes
            .extend(members.used.iter().filter(|c| unfrozen[**c as usize] > 0));
        self.active_links.clear();
        self.active_links
            .extend((0..nl).filter(|l| self.link_active[*l] > 0));
        self.forced.clear();

        // Every unfrozen flow's rate is 0.0 plus the same deltas in
        // the same order: one number.
        let mut level = 0.0f64;
        // Flows before the cursor are frozen, with their class or
        // alone (or unrouted).
        let mut cursor = 0usize;
        let mut guard = 0usize;
        while !self.active_classes.is_empty() {
            guard += 1;
            assert!(
                guard <= nf + nl + 2,
                "progressive filling failed to converge"
            );
            // Largest uniform increment allowed by active links …
            let mut delta = f64::INFINITY;
            for &l in &self.active_links {
                delta = delta.min((self.residual[l] / self.link_active[l] as f64).max(0.0));
            }
            // … and by active classes' caps.
            for &c in &self.active_classes {
                if let (_, Some(cap)) = classes.get(c) {
                    delta = delta.min((cap - level).max(0.0));
                }
            }
            if !delta.is_finite() {
                // No link constrains any active flow and no caps:
                // nothing to grow against (guarded; cannot happen for
                // flows with links and positive capacities).
                break;
            }

            // Apply the increment. A link's residual loses the same
            // `delta` once per unfrozen flow crossing it, whichever
            // flows those are — but one subtraction at a time: `n as
            // f64 * delta` rounds once where this rounds n times.
            level += delta;
            // Four links at a time, fullest first, so that four
            // independent chains of subtractions overlap: lanes
            // 0..=k go on while link k of the group still has flows to
            // take. (The order of `active_links` decides nothing else:
            // the limit above is a `min`.)
            let link_active = &self.link_active;
            self.active_links
                .sort_unstable_by_key(|l| std::cmp::Reverse(link_active[*l]));
            for group in self.active_links.chunks(4) {
                let mut taken = 0;
                for k in (0..group.len()).rev() {
                    let times = link_active[group[k]] - taken;
                    let lower = [lower::<1>, lower::<2>, lower::<3>, lower::<4>][k];
                    lower(&mut self.residual, group, times, delta);
                    taken += times;
                }
            }

            // Freeze what reached its cap or crosses a link that is
            // now full: a flow's links and its cap decide that, so a
            // class freezes whole. (Every link an unfrozen class
            // crosses was active this round, as the reference
            // requires of a link that freezes flows.)
            const EPS: f64 = 1e-9;
            let mut froze_any = false;
            for ci in 0..self.active_classes.len() {
                let c = self.active_classes[ci];
                let (path, cap) = classes.get(c);
                let links = paths.links(path);
                let at_cap = cap.is_some_and(|cap| level >= cap - 1e-9);
                if at_cap || links.iter().any(|l| self.residual[*l as usize] <= EPS) {
                    self.class_rate[c as usize] = level;
                    self.retire(links, c, self.unfrozen[c as usize]);
                    froze_any = true;
                }
            }
            if !froze_any {
                // Rounding left every crossed link a hair above EPS:
                // the reference fixes the lowest-index unfrozen flow,
                // alone — which splits its class. With thousands of
                // flows on a 4e8 B/s link this is traffic, not a
                // corner.
                let unfrozen = &self.unfrozen;
                let i = (cursor..n)
                    .find(|i| {
                        let c = class_at(*i);
                        c < UNROUTED && unfrozen[c as usize] > 0
                    })
                    .expect("an active class has an unfrozen member past the cursor");
                let c = class_at(i);
                self.forced.push((i, c, level));
                self.retire(paths.links(classes.path(c)), c, 1);
                cursor = i + 1;
            }
            let unfrozen = &self.unfrozen;
            self.active_classes.retain(|c| unfrozen[*c as usize] > 0);
            let link_active = &self.link_active;
            self.active_links.retain(|l| link_active[*l] > 0);
        }
        // Whatever is still unfrozen (only after the guarded break)
        // stays at the level it reached.
        for &c in &self.active_classes {
            self.class_rate[c as usize] = level;
        }
    }

    /// The last fill's outcome, in work that follows the classes and
    /// the flows whose rate may have moved, not the live flows.
    /// `slot_at(i)` is the slot of the flow at position `i` of the
    /// fill's order, `class_of(slot)` a slot's class id now
    /// ([`STOPPED`] once it holds no flow). `put` receives once each,
    /// with its rate (its class's, its own if frozen alone, 0.0 if
    /// [`UNROUTED`]), the members of each class whose rate bits moved,
    /// each flow `members` marked (the marks are cleared), and each
    /// flow frozen alone at this fill or the one before: any other
    /// flow's class rate bits stood, and it holds them. Returns how
    /// many it received, in member-list order, then by slot. `note`
    /// receives it by class, a slot as a flow id: each class whose rate
    /// bits moved, then, by slot, each flow looked at apart from the
    /// members (marked, or frozen alone now or the fill before). A link's
    /// load ([`ClassFill::loads`]) sums `n × rate` over the classes
    /// crossing it, in ascending id, for the `n` members not frozen
    /// alone, then each flow frozen alone: within `n` ulps of its flows'
    /// sum in flow order (module docs).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spread(
        &mut self,
        paths: &PathTable,
        classes: &ClassTable,
        members: &mut Members,
        slot_at: impl Fn(usize) -> usize,
        class_of: impl Fn(usize) -> u32,
        mut put: impl FnMut(usize, f64),
        mut note: impl FnMut(ClassChange),
    ) -> usize {
        for f in &mut self.forced {
            f.0 = slot_at(f.0);
        }
        self.loads.clear();
        self.loads.resize(self.caps.len(), 0.0);
        self.by_id.clear();
        self.by_id.extend(&members.used);
        self.by_id.sort_unstable();
        for &c in &self.by_id {
            let alone = self.forced.iter().filter(|f| f.1 == c).count();
            let n = members.count(c) - alone;
            let load = n as f64 * self.class_rate[c as usize];
            for l in paths.links(classes.path(c)) {
                self.loads[*l as usize] += load;
            }
        }
        for &(_, c, rate) in &self.forced {
            for l in paths.links(classes.path(c)) {
                self.loads[*l as usize] += rate;
            }
        }

        self.held.resize(self.class_rate.len(), 0.0);
        let (class_rate, held) = (&self.class_rate, &self.held);
        let moved = |c: u32| class_rate[c as usize].to_bits() != held[c as usize].to_bits();
        let mut visits = 0;
        for &c in &members.used {
            if moved(c) {
                let cap = classes.get(c).1;
                note(ClassChange::Rate(ClassId(c), class_rate[c as usize], cap));
                for &slot in members.slots(c) {
                    put(slot as usize, self.rate(slot as usize, c));
                }
                visits += members.count(c);
            }
        }
        let mut look = std::mem::take(&mut self.look);
        look.clear();
        look.extend(members.moved.drain(..).map(|s| s as usize));
        look.append(&mut self.was_alone);
        look.extend(self.forced.iter().map(|f| f.0));
        look.sort_unstable();
        look.dedup();
        for &slot in &look {
            let c = class_of(slot);
            let flow = FlowId(slot as u64);
            note(match (c, self.alone(slot)) {
                (STOPPED, _) => continue,
                (UNROUTED, _) => ClassChange::Own(flow, 0.0),
                (_, Some(r)) => ClassChange::Own(flow, r),
                (c, None) => ClassChange::Follow(flow, ClassId(c)),
            });
            let rate = match c {
                UNROUTED => 0.0,
                c if moved(c) => continue,
                c => self.rate(slot, c),
            };
            put(slot, rate);
            visits += 1;
        }
        self.look = look;
        for &c in &members.used {
            self.held[c as usize] = self.class_rate[c as usize];
        }
        self.was_alone.extend(self.forced.iter().map(|f| f.0));
        visits
    }

    /// The rate the last spread gave the flow in `slot`, of class
    /// `c` — its own if the fill froze it alone, its class's if not.
    pub(crate) fn rate(&self, slot: usize, c: u32) -> f64 {
        self.alone(slot).unwrap_or(self.class_rate[c as usize])
    }

    /// The rate of the flow in `slot` if the last fill froze it alone,
    /// ahead of its class (read after a spread).
    fn alone(&self, slot: usize) -> Option<f64> {
        let at = self.forced.binary_search_by_key(&slot, |f| f.0).ok()?;
        Some(self.forced[at].2)
    }

    /// Per-link loads after the last spread, in universe order (0.0 on
    /// a down link).
    pub(crate) fn loads(&self) -> &[f64] {
        &self.loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;
    use std::ops::Range;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn flow(links: &[usize], cap: Option<f64>) -> FluidFlow {
        FluidFlow {
            links: links.to_vec(),
            cap,
        }
    }

    #[test]
    fn single_link_fair_share() {
        let a = max_min_allocation(
            &[90.0],
            &[flow(&[0], None), flow(&[0], None), flow(&[0], None)],
        );
        for r in &a.rates {
            assert!((r - 30.0).abs() < 1e-6);
        }
        assert!((a.link_loads[0] - 90.0).abs() < 1e-6);
    }

    #[test]
    fn caps_redistribute_to_uncapped() {
        // One capped flow leaves room for the others.
        let a = max_min_allocation(
            &[90.0],
            &[flow(&[0], Some(10.0)), flow(&[0], None), flow(&[0], None)],
        );
        assert!((a.rates[0] - 10.0).abs() < 1e-6);
        assert!((a.rates[1] - 40.0).abs() < 1e-6);
        assert!((a.rates[2] - 40.0).abs() < 1e-6);
    }

    #[test]
    fn bottleneck_is_the_minimum_link() {
        // Flow crosses links of 100 and 30: bottleneck 30.
        let a = max_min_allocation(&[100.0, 30.0], &[flow(&[0, 1], None)]);
        assert!((a.rates[0] - 30.0).abs() < 1e-6);
    }

    #[test]
    fn classic_three_flow_example() {
        // Two links, capacity 1 each. Flow A uses both, flows B and C
        // one each. Max-min: A = 0.5, B = C = 0.5.
        let a = max_min_allocation(
            &[1.0, 1.0],
            &[flow(&[0, 1], None), flow(&[0], None), flow(&[1], None)],
        );
        assert!((a.rates[0] - 0.5).abs() < 1e-6);
        assert!((a.rates[1] - 0.5).abs() < 1e-6);
        assert!((a.rates[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn asymmetric_bottlenecks() {
        // Link 0: cap 2, link 1: cap 1. Flow A on both, B on 0, C on 1.
        // Round 1: growth until link 1 saturates at 0.5 (A and C fixed
        // at 0.5). B continues until link 0 saturates: B = 1.5.
        let a = max_min_allocation(
            &[2.0, 1.0],
            &[flow(&[0, 1], None), flow(&[0], None), flow(&[1], None)],
        );
        assert!((a.rates[0] - 0.5).abs() < 1e-6);
        assert!((a.rates[1] - 1.5).abs() < 1e-6);
        assert!((a.rates[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn flow_without_links_gets_cap() {
        let a = max_min_allocation(&[], &[flow(&[], Some(42.0)), flow(&[], None)]);
        assert_eq!(a.rates, vec![42.0, 0.0]);
    }

    #[test]
    fn keyed_wrapper_roundtrips() {
        let mut caps = BTreeMap::new();
        caps.insert("x", 100.0);
        caps.insert("y", 50.0);
        let flows = vec![(vec!["x", "y"], None), (vec!["x"], Some(20.0))];
        let (rates, loads) = max_min_keyed(&caps, &flows);
        assert!((rates[0] - 50.0).abs() < 1e-6);
        assert!((rates[1] - 20.0).abs() < 1e-6);
        assert!((loads["x"] - 70.0).abs() < 1e-6);
        assert!((loads["y"] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn allocator_matches_reference_call_after_call() {
        let mut caps = BTreeMap::new();
        caps.insert("x", 100.0);
        caps.insert("y", 50.0);
        let flows: Vec<(Vec<&str>, Option<f64>)> =
            vec![(vec!["x", "y"], None), (vec!["x"], Some(20.0))];
        let mut alloc = Allocator::new();
        let as_input =
            |flows: &[(Vec<&'static str>, Option<f64>)]| -> Vec<(Vec<&'static str>, Option<f64>)> {
                flows.to_vec()
            };
        let input = as_input(&flows);
        alloc.allocate(&caps, input.iter().map(|(l, c)| (l.as_slice(), *c)));
        let (ref_rates, ref_loads) = max_min_keyed(&caps, &flows);
        assert_eq!(alloc.rates(), ref_rates.as_slice());
        assert_eq!(alloc.load(&"x"), ref_loads["x"]);
        assert_eq!(alloc.load(&"y"), ref_loads["y"]);

        // Same input again.
        alloc.allocate(&caps, input.iter().map(|(l, c)| (l.as_slice(), *c)));
        assert_eq!(alloc.rates(), ref_rates.as_slice());

        // A cap change; results track the reference.
        let flows2: Vec<(Vec<&str>, Option<f64>)> =
            vec![(vec!["x", "y"], None), (vec!["x"], Some(30.0))];
        alloc.allocate(&caps, flows2.iter().map(|(l, c)| (l.as_slice(), *c)));
        let (ref2, _) = max_min_keyed(&caps, &flows2);
        assert_eq!(alloc.rates(), ref2.as_slice());

        // A capacity change (same keys).
        caps.insert("y", 60.0);
        alloc.allocate(&caps, flows2.iter().map(|(l, c)| (l.as_slice(), *c)));
        let (ref3, _) = max_min_keyed(&caps, &flows2);
        assert_eq!(alloc.rates(), ref3.as_slice());

        // A key that goes while another comes renumbers the universe:
        // the same flows, named by key, land on the new positions.
        let caps4 = BTreeMap::from([("w", 10.0), ("x", 100.0), ("y", 60.0)]);
        alloc.allocate(&caps4, flows2.iter().map(|(l, c)| (l.as_slice(), *c)));
        let (ref4, loads4) = max_min_keyed(&caps4, &flows2);
        assert_eq!(alloc.rates(), ref4.as_slice());
        for k in ["w", "x", "y"] {
            assert_eq!(alloc.load(&k), loads4[k], "link {k}");
        }
    }

    #[test]
    fn allocator_handles_empty_and_degenerate_inputs() {
        let mut alloc: Allocator<&str> = Allocator::new();
        let caps = BTreeMap::new();
        let flows: Vec<(Vec<&str>, Option<f64>)> = vec![(vec![], Some(42.0)), (vec![], None)];
        alloc.allocate(&caps, flows.iter().map(|(l, c)| (l.as_slice(), *c)));
        assert_eq!(alloc.rates(), &[42.0, 0.0]);
        assert_eq!(alloc.load(&"nope"), 0.0);
        alloc.allocate(&caps, std::iter::empty());
        assert!(alloc.rates().is_empty());
    }

    /// One link saturates in the very round in which hundreds of flows
    /// reach their cap, so the flows it freezes are tested against a
    /// long list of flows already frozen that round: the outcome must
    /// not depend on how that membership is kept.
    #[test]
    fn link_saturating_with_a_mass_cap_freeze_matches_the_reference() {
        // 300 flows capped at 10 and 50 uncapped ones share link 0,
        // which 350 x 10 exhausts exactly. Every seventh capped flow
        // and the uncapped ones go on over link 1 or 2; those have
        // room left after that round and settle 40 more flows in later
        // ones.
        let caps: BTreeMap<usize, f64> = BTreeMap::from([(0, 3500.0), (1, 900.0), (2, 600.0)]);
        let mut flows: Vec<(Vec<usize>, Option<f64>)> = Vec::new();
        for i in 0..300 {
            let links = if i % 7 == 0 { vec![0, 1] } else { vec![0] };
            flows.push((links, Some(10.0)));
            if i % 6 == 0 {
                flows.push((vec![0, 1 + (i / 6) % 2], None));
            }
        }
        flows.extend((0..40).map(|i| (vec![1 + i % 2], (i % 3 == 0).then_some(25.0))));

        let (ref_rates, ref_loads) = max_min_keyed(&caps, &flows);
        assert_eq!(ref_loads[&0], 3500.0, "link 0 is exactly full");
        let frozen_at_cap = flows
            .iter()
            .zip(&ref_rates)
            .filter(|((_, cap), rate)| *cap == Some(**rate))
            .count();
        assert!(frozen_at_cap >= 300, "{frozen_at_cap} flows at their cap");
        assert_eq!(flows[1].1, None);
        assert_eq!(ref_rates[1], 10.0, "the full link froze an uncapped flow");

        let mut keyed = Allocator::new();
        keyed.allocate(&caps, flows.iter().map(|(l, c)| (l.as_slice(), *c)));
        let positions: Vec<(Vec<u32>, Option<f64>)> = flows
            .iter()
            .map(|(l, c)| (l.iter().map(|l| *l as u32).collect(), *c))
            .collect();
        let universe: Vec<Option<f64>> = caps.values().map(|c| Some(*c)).collect();
        let mut sim = SimEntry::new();
        sim.settle_all(&universe, &positions);
        let sim_rates = sim.routed_rates();
        for (i, want) in ref_rates.iter().enumerate() {
            assert_eq!(keyed.rates()[i].to_bits(), want.to_bits(), "flow {i}");
            assert_eq!(sim_rates[i].to_bits(), want.to_bits(), "flow {i}");
        }
        for (l, want) in &ref_loads {
            let n = crossing(&flows, *l);
            assert!(near(keyed.load(l), *want, n), "link {l}");
            assert!(near(sim.alloc.loads()[*l], *want, n), "link {l}");
        }
    }

    /// The simulator's way in, as `Core` drives it: flows in slots
    /// that a start appends and a stop empties, a class column written
    /// only where a flow's class changes (start, stop, resolve, cap
    /// change: `set_class` joins, leaves and marks as the simulator's
    /// does), links named by position in a fixed universe, a capacity
    /// present iff the link is up, and [`UNROUTED`] for a flow that
    /// crosses a down link. Each settle resolves every live flow,
    /// fills, and gives the rates out class-wise; beside it, the
    /// per-flow walk the spread replaced (`per_flow_walk`) keeps a rate
    /// column and link loads of its own, and every settle asserts the
    /// two agree: the rate columns bit for bit, the same batch of rate
    /// changes, and every link load within `n` ulps of the flow-order
    /// sum of its `n` flows.
    struct SimEntry {
        alloc: ClassFill,
        paths: PathTable,
        classes: ClassTable,
        members: Members,
        /// Per slot: its flow's links and cap, `None` once stopped.
        flows: Vec<Option<(Vec<u32>, Option<f64>)>>,
        /// Per slot: class id and rate, as the simulator's columns.
        class: Vec<u32>,
        rate: Vec<f64>,
        /// The occupied slots, ascending.
        live: Vec<usize>,
        /// The per-flow walk's rate column.
        walked: Vec<f64>,
        /// The class log expanded over the member lists: per slot, the
        /// class it follows (`None`: its own rate) and the rate that
        /// gives it; per class id, the rate logged last.
        follows: Vec<Option<u32>>,
        own: Vec<f64>,
        expanded: Vec<f64>,
        logged: Vec<f64>,
    }

    /// What one settle did, for the tests' coverage floors.
    #[derive(Default)]
    struct Settled {
        /// Flows the class-wise spread gave out, and live flows.
        visits: usize,
        live: usize,
        /// Rate changes in the batch.
        changes: usize,
        /// Flows the fill froze alone.
        alone: usize,
        /// Class log entries: classes whose rate moved, flows that
        /// follow a class, flows on a rate of their own.
        class_notes: usize,
        follows: usize,
        owns: usize,
    }

    /// The spread's pass before classes: one walk over the live flows
    /// in slot order, each flow's rate (its class's, its own if the
    /// fill froze it alone, 0.0 if unrouted) into `rate`, logged as a
    /// change where its bits move, and added to its links' loads in
    /// that order.
    fn per_flow_walk(
        fill: &ClassFill,
        paths: &PathTable,
        classes: &ClassTable,
        live: &[usize],
        class: &[u32],
        rate: &mut [f64],
    ) -> (BTreeSet<(usize, u64)>, Vec<f64>) {
        let mut changes = BTreeSet::new();
        let mut loads = vec![0.0; fill.loads().len()];
        for &slot in live {
            let c = class[slot];
            let r = if c == UNROUTED {
                0.0
            } else {
                fill.rate(slot, c)
            };
            if std::mem::replace(&mut rate[slot], r).to_bits() != r.to_bits() {
                changes.insert((slot, r.to_bits()));
            }
            if c != UNROUTED {
                for l in paths.links(classes.path(c)) {
                    loads[*l as usize] += r;
                }
            }
        }
        (changes, loads)
    }

    /// `got` is within `n` ulps of `want`, the flow-order sum of the
    /// rates of the `n` flows crossing a link.
    fn near(got: f64, want: f64, n: usize) -> bool {
        (got - want).abs() <= n as f64 * f64::EPSILON * want.abs()
    }

    /// How many of `flows` cross link `l`.
    fn crossing(flows: &[(Vec<usize>, Option<f64>)], l: usize) -> usize {
        flows.iter().filter(|(links, _)| links.contains(&l)).count()
    }

    impl SimEntry {
        fn new() -> SimEntry {
            SimEntry {
                alloc: ClassFill::default(),
                paths: PathTable::default(),
                classes: ClassTable::default(),
                members: Members::default(),
                flows: Vec::new(),
                class: Vec::new(),
                rate: Vec::new(),
                live: Vec::new(),
                walked: Vec::new(),
                follows: Vec::new(),
                own: Vec::new(),
                expanded: Vec::new(),
                logged: Vec::new(),
            }
        }

        /// `Core::set_class`: the column, the member lists and the mark.
        fn set_class(&mut self, slot: usize, c: u32) {
            let old = std::mem::replace(&mut self.class[slot], c);
            if old == c {
                return;
            }
            if old < UNROUTED {
                self.members.leave(old, slot);
            }
            if c < UNROUTED {
                self.members.join(c, slot);
            }
            self.members.mark(slot);
        }

        /// A flow starts in the next slot, unrouted until a settle.
        fn start(&mut self, links: Vec<u32>, cap: Option<f64>) {
            let slot = self.flows.len();
            self.flows.push(Some((links, cap)));
            self.class.push(STOPPED);
            self.rate.push(0.0);
            self.walked.push(0.0);
            self.follows.push(None);
            self.own.push(0.0);
            self.expanded.push(0.0);
            self.live.push(slot);
            self.set_class(slot, UNROUTED);
        }

        fn stop(&mut self, slot: usize) {
            self.flows[slot] = None;
            self.live.retain(|s| *s != slot);
            self.set_class(slot, STOPPED);
        }

        /// A new cap, on the class of the path the flow has.
        fn set_cap(&mut self, slot: usize, cap: Option<f64>) {
            let flow = self.flows[slot].as_mut().expect("a live flow");
            flow.1 = cap;
            let c = self.class[slot];
            if c != UNROUTED {
                let moved = self.classes.intern(self.classes.path(c), cap);
                self.set_class(slot, moved);
            }
        }

        /// Resolve every live flow, fill, and give the rates out both
        /// ways, asserting they agree.
        fn settle(&mut self, universe: &[Option<f64>]) -> Settled {
            for &slot in &self.live.clone() {
                let (links, cap) = self.flows[slot].clone().expect("a live flow");
                let c = if links.iter().all(|l| universe[*l as usize].is_some()) {
                    self.classes.intern(self.paths.intern(&links), cap)
                } else {
                    UNROUTED
                };
                self.set_class(slot, c);
            }
            let SimEntry {
                alloc,
                paths,
                classes,
                members,
                class,
                rate,
                live,
                ..
            } = self;
            let links = universe.iter().copied();
            alloc.allocate(paths, classes, links, members, live.len(), |i| {
                class[live[i]]
            });
            let mut changes = BTreeSet::new();
            let mut notes = Vec::new();
            let visits = alloc.spread(
                paths,
                classes,
                members,
                |i| live[i],
                |slot| class[slot],
                |slot, r| {
                    if std::mem::replace(&mut rate[slot], r).to_bits() != r.to_bits() {
                        assert!(changes.insert((slot, r.to_bits())), "slot {slot} twice");
                    }
                },
                |note| notes.push(note),
            );
            let (class_notes, follows, owns) = self.expand(&notes, &changes);
            let SimEntry {
                alloc,
                paths,
                classes,
                class,
                rate,
                live,
                walked,
                ..
            } = self;
            let (walk_changes, walk_loads) =
                per_flow_walk(alloc, paths, classes, live, class, walked);
            for &slot in live.iter() {
                assert_eq!(rate[slot].to_bits(), walked[slot].to_bits(), "slot {slot}");
            }
            assert_eq!(changes, walk_changes, "the batch of rate changes");
            let mut crossing = vec![0; universe.len()];
            for &slot in live.iter().filter(|s| class[**s] != UNROUTED) {
                for l in paths.links(classes.path(class[slot])) {
                    crossing[*l as usize] += 1;
                }
            }
            for (l, want) in walk_loads.iter().enumerate() {
                let got = alloc.loads()[l];
                assert!(
                    near(got, *want, crossing[l]),
                    "link {l}: {got} is not within {} ulps of {want}",
                    crossing[l]
                );
            }
            Settled {
                visits,
                live: live.len(),
                changes: changes.len(),
                alone: alloc.forced.len(),
                class_notes,
                follows,
                owns,
            }
        }

        /// Expand one spread's class log over the member lists — a
        /// class's rate is every member's that follows it, a flow that
        /// follows a class has the class's rate, a flow on its own rate
        /// has that — and hold what it gives to the per-flow log: the
        /// same batch of (slot, rate bits), and, for every live flow,
        /// the rate column's bits. Returns how many entries of each
        /// kind the log had.
        fn expand(
            &mut self,
            notes: &[ClassChange],
            changes: &BTreeSet<(usize, u64)>,
        ) -> (usize, usize, usize) {
            let mut counts = (0, 0, 0);
            let mut touched = Vec::new();
            for note in notes {
                match *note {
                    ClassChange::Rate(ClassId(c), r, _) => {
                        let c = c as usize;
                        if self.logged.len() <= c {
                            self.logged.resize(c + 1, 0.0);
                        }
                        self.logged[c] = r;
                        touched.extend(self.members.slots(c as u32).iter().map(|s| *s as usize));
                        counts.0 += 1;
                    }
                    ClassChange::Follow(FlowId(slot), ClassId(c)) => {
                        let slot = slot as usize;
                        self.follows[slot] = Some(c);
                        touched.push(slot);
                        counts.1 += 1;
                    }
                    ClassChange::Own(FlowId(slot), r) => {
                        let slot = slot as usize;
                        (self.follows[slot], self.own[slot]) = (None, r);
                        touched.push(slot);
                        counts.2 += 1;
                    }
                }
            }
            let mut expanded = BTreeSet::new();
            for slot in touched {
                let r = match self.follows[slot] {
                    Some(c) => {
                        assert_eq!(c, self.class[slot], "slot {slot} follows its class");
                        self.logged.get(c as usize).copied().unwrap_or(0.0)
                    }
                    None => self.own[slot],
                };
                if std::mem::replace(&mut self.expanded[slot], r).to_bits() != r.to_bits() {
                    expanded.insert((slot, r.to_bits()));
                }
            }
            assert_eq!(&expanded, changes, "the class log, expanded");
            for &slot in &self.live {
                let (got, want) = (self.expanded[slot], self.rate[slot]);
                assert_eq!(got.to_bits(), want.to_bits(), "slot {slot}: expanded rate");
            }
            counts
        }

        /// Make the live flows `flows`, slot for position: a flow whose
        /// links or cap moved is resolved again, one past the last
        /// starts, one past the new last stops; then settle.
        fn settle_all(
            &mut self,
            universe: &[Option<f64>],
            flows: &[(Vec<u32>, Option<f64>)],
        ) -> Settled {
            while self.live.len() > flows.len() {
                let last = *self.live.last().expect("a live flow");
                self.stop(last);
            }
            for (i, flow) in flows.iter().enumerate() {
                match self.live.get(i) {
                    Some(&slot) => self.flows[slot] = Some(flow.clone()),
                    None => self.start(flow.0.clone(), flow.1),
                }
            }
            self.settle(universe)
        }

        /// The live flows' rates of the routed ones, in slot order:
        /// what the reference is given. Every unrouted flow's is 0.0.
        fn routed_rates(&self) -> Vec<f64> {
            let mut routed = Vec::new();
            for &slot in &self.live {
                let rate = self.rate[slot];
                if self.class[slot] < UNROUTED {
                    routed.push(rate);
                } else {
                    assert_eq!(rate.to_bits(), 0.0f64.to_bits(), "an unrouted flow's rate");
                }
            }
            routed
        }
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(st: &mut u64, n: usize) -> usize {
        (splitmix(st) % n as u64) as usize
    }

    /// The differential the simulator's fill is held to: seeded inputs
    /// shaped like a crowd — a handful of paths, a handful of caps,
    /// hundreds to thousands of flows, link capacities of the ledger
    /// workloads — through call sequences that move flows, caps,
    /// capacities and link state, pause and resume batches of viewers
    /// (125 000 B/s to 1 B/s and back, on the paths they have) and
    /// return to an earlier input, against [`max_min_keyed`] on the up
    /// links: every rate bit for bit and every load within `n` ulps,
    /// from the simulator's entry and the keyed one. The simulator's
    /// entry keeps each flow in the slot of its position, so a flow
    /// whose links or cap moved changes class and is marked, as in the
    /// simulator, and each settle is held to the per-flow walk. It is
    /// handed the flows over down links too, as unrouted ones among the
    /// rest, as the simulator hands them: they must get 0.0 and move
    /// no other flow's forced freeze.
    ///
    /// At these sizes the reference's "numerical corner" is traffic:
    /// thousands of subtractions from 4e8 leave more than the 1e-9 a
    /// link must be under to count as full, nothing freezes, and the
    /// lowest-index unfrozen flow is frozen alone. The test asserts
    /// from outputs that this ran: two flows with equal links and
    /// equal cap and different rates.
    #[test]
    fn simulator_entry_is_the_keyed_reference_bit_for_bit_on_crowd_shaped_inputs() {
        const CASES: u64 = 300;
        let mut split_twins = 0usize; // inputs where equal (links, cap) got unequal rates
        let mut unrouted = 0usize; // flows the simulator's entry was given as unrouted
        let mut calls = 0usize;
        let mut widest = 0usize;
        let mut empty_paths = 0usize;
        let mut pauses = 0usize; // calls after a pause/resume step that moved a cap
        let mut returns = 0usize; // calls back at an earlier input, unlike the last one
        for case in 0..CASES {
            let mut st = case.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0xF1B;
            let st = &mut st;
            let nl = 2 + below(st, 9);
            let capacity = |st: &mut u64| match below(st, 5) {
                0 | 1 => 4e8,
                2 => 1.25e7 / 3.0,
                3 => 1e6 + below(st, 1000) as f64 * 0.37,
                _ => 1.0 + below(st, 400) as f64,
            };
            let mut caps: Vec<f64> = (0..nl).map(|_| capacity(st)).collect();
            let mut up = vec![true; nl];
            // Up to six paths: distinct links in walk order (not
            // sorted), some sharing links, now and then an empty one.
            let paths: Vec<Vec<u32>> = (0..1 + below(st, 6))
                .map(|_| {
                    let mut links: Vec<u32> = Vec::new();
                    for _ in 0..below(st, 5.min(nl + 1)) {
                        let l = below(st, nl) as u32;
                        if !links.contains(&l) {
                            links.push(l);
                        }
                    }
                    links
                })
                .collect();
            let cap = |st: &mut u64| match below(st, 6) {
                0 | 1 => None,
                2 => Some(1.0),
                3 => Some(125_000.0),
                4 => Some(312_500.0),
                _ => Some(1.0 + below(st, 500_000) as f64 * 0.75),
            };
            // One case in six is as wide as a ledger fill.
            let most = if case % 6 == 0 { 3000 } else { 250 };
            let mut flows: Vec<(usize, Option<f64>)> = (0..below(st, most + 1))
                .map(|_| (below(st, paths.len()), cap(st)))
                .collect();

            let mut sim = SimEntry::new();
            let mut keyed: Allocator<usize> = Allocator::new();
            // An earlier input to come back to, and the last call's
            // input in bits: the pause and return floors count only
            // calls that moved it.
            type State = (Vec<(usize, Option<f64>)>, Vec<f64>, Vec<bool>);
            type Input = (Vec<Option<u64>>, Vec<(Vec<u32>, Option<u64>)>);
            let mut saved: Option<State> = None;
            let mut last: Option<Input> = None;
            for step in 0..1 + below(st, 8) {
                let mut paused = false;
                let mut restored = false;
                // One call in eight repeats its input.
                let kind = if step > 0 { below(st, 8) } else { 0 };
                match kind {
                    0 => {}
                    // A batch of viewers pauses (buffer full: 1 B/s) or
                    // resumes (125 000 B/s), on the paths it has.
                    1 if !flows.is_empty() => {
                        let at = below(st, flows.len());
                        let end = flows.len().min(at + 1 + below(st, 80));
                        for (_, cap) in &mut flows[at..end] {
                            let flipped = match *cap {
                                Some(1.0) => Some(125_000.0),
                                Some(125_000.0) => Some(1.0),
                                other => other,
                            };
                            paused |= flipped != *cap;
                            *cap = flipped;
                        }
                    }
                    // Back to an earlier input.
                    2 | 3 if saved.is_some() => {
                        (flows, caps, up) = saved.clone().expect("saved");
                        restored = true;
                    }
                    _ => {
                        for _ in 0..1 + below(st, 3) {
                            let l = below(st, nl);
                            match below(st, 4) {
                                0 => up[l] = !up[l],
                                1 => caps[l] = capacity(st),
                                2 if !flows.is_empty() => {
                                    // A batch of viewers leaves, another arrives.
                                    let gone = below(st, flows.len().min(40) + 1);
                                    let at = below(st, flows.len() - gone + 1);
                                    flows.drain(at..at + gone);
                                    for _ in 0..below(st, 40) {
                                        flows.push((below(st, paths.len()), cap(st)));
                                    }
                                }
                                _ if !flows.is_empty() => {
                                    let i = below(st, flows.len());
                                    flows[i] = (below(st, paths.len()), cap(st));
                                }
                                _ => {}
                            }
                        }
                    }
                }
                if saved.is_none() || below(st, 6) == 0 {
                    saved = Some((flows.clone(), caps.clone(), up.clone()));
                }
                // A flow that would cross a down link is not routed:
                // the simulator's entry is given it, the others are not.
                let all: Vec<(Vec<u32>, Option<f64>)> =
                    flows.iter().map(|(p, c)| (paths[*p].clone(), *c)).collect();
                let routed: Vec<(Vec<u32>, Option<f64>)> = all
                    .iter()
                    .filter(|(l, _)| l.iter().all(|l| up[*l as usize]))
                    .cloned()
                    .collect();
                let universe: Vec<Option<f64>> =
                    (0..nl).map(|l| up[l].then_some(caps[l])).collect();
                let up_caps: BTreeMap<usize, f64> =
                    (0..nl).filter(|l| up[*l]).map(|l| (l, caps[l])).collect();
                let by_key: Vec<(Vec<usize>, Option<f64>)> = routed
                    .iter()
                    .map(|(l, c)| (l.iter().map(|l| *l as usize).collect(), *c))
                    .collect();

                let input: Input = (
                    universe.iter().map(|c| c.map(f64::to_bits)).collect(),
                    routed
                        .iter()
                        .map(|(l, c)| (l.clone(), c.map(f64::to_bits)))
                        .collect(),
                );
                let moved = last.as_ref() != Some(&input);
                pauses += usize::from(paused && moved);
                returns += usize::from(restored && moved);
                last = Some(input);

                sim.settle_all(&universe, &all);
                keyed.allocate(&up_caps, by_key.iter().map(|(l, c)| (l.as_slice(), *c)));
                let (ref_rates, ref_loads) = max_min_keyed(&up_caps, &by_key);

                let at = format!("case {case}, call {step}");
                let sim_rates = sim.routed_rates();
                assert_eq!(sim_rates.len(), ref_rates.len(), "{at}");
                unrouted += all.len() - routed.len();
                for (i, want) in ref_rates.iter().enumerate() {
                    let got = sim_rates[i];
                    assert_eq!(got.to_bits(), want.to_bits(), "{at}: rate of flow {i}");
                    assert_eq!(keyed.rates()[i].to_bits(), want.to_bits(), "{at}: flow {i}");
                }
                for l in 0..nl {
                    let want = ref_loads.get(&l).copied().unwrap_or(0.0);
                    let n = crossing(&by_key, l);
                    let got = sim.alloc.loads()[l];
                    assert!(near(got, want, n), "{at}: load of link {l}");
                    assert!(near(keyed.load(&l), want, n), "{at}: link {l}");
                }

                let mut seen: BTreeMap<(&[u32], Option<u64>), u64> = BTreeMap::new();
                let mut split = false;
                for ((links, cap), rate) in routed.iter().zip(&ref_rates) {
                    let first = *seen
                        .entry((links.as_slice(), cap.map(f64::to_bits)))
                        .or_insert(rate.to_bits());
                    split |= first != rate.to_bits();
                }
                split_twins += usize::from(split);
                calls += 1;
                widest = widest.max(routed.len());
                empty_paths += usize::from(routed.iter().any(|(l, _)| l.is_empty()));
            }
        }
        // What the inputs covered, asserted so that a change to the
        // generator cannot quietly stop exercising it.
        assert!(calls >= 900, "{calls} calls");
        assert!(widest >= 2500, "widest input had {widest} routed flows");
        assert!(
            empty_paths >= 300,
            "{empty_paths} inputs with a linkless flow"
        );
        assert!(
            split_twins >= 100,
            "the forced freeze of a single flow ran on {split_twins} inputs"
        );
        assert!(pauses >= 100, "{pauses} calls after a pause or resume");
        assert!(unrouted >= 50_000, "{unrouted} unrouted flows handed over");
        assert!(returns >= 100, "{returns} calls back at an earlier input");
    }

    /// The settle differential: seeded, crowd-shaped settle sequences
    /// — batches of viewers that start (at the high end of the slots)
    /// and stop (anywhere), pause and resume (caps of 1 and 125 000
    /// B/s), links that fail and come back, capacities that move —
    /// through the class-wise spread and the per-flow walk it replaced,
    /// which `SimEntry::settle` holds to each other at every settle:
    /// the rate columns bit for bit, each batch of rate changes as a
    /// set, each link load within `n` ulps. The floors say the
    /// sequences exercised what the spread skips and what it must not:
    /// settles that left most flows alone, fills that froze flows
    /// alone, flows stranded by a down link, and rate changes.
    #[test]
    fn class_wise_settle_is_the_per_flow_walk_through_crowd_churn() {
        const CASES: u64 = 120;
        let mut total = Settled::default();
        let mut settles = 0usize;
        let mut sparse = 0usize; // settles that gave out under a tenth of the live flows
        let mut forcing = 0usize; // settles whose fill froze a flow alone
        let mut stranding = 0usize; // settles with a flow over a down link
        for case in 0..CASES {
            let mut st = case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5E77;
            let st = &mut st;
            let nl = 2 + below(st, 7);
            let capacity = |st: &mut u64| match below(st, 4) {
                0 | 1 => 4e8,
                2 => 1.25e7 / 3.0,
                _ => 1e6 + below(st, 1000) as f64 * 0.37,
            };
            let mut caps: Vec<f64> = (0..nl).map(|_| capacity(st)).collect();
            let mut up = vec![true; nl];
            let paths: Vec<Vec<u32>> = (0..1 + below(st, 6))
                .map(|_| {
                    let mut links: Vec<u32> = Vec::new();
                    for _ in 0..1 + below(st, 3) {
                        let l = below(st, nl) as u32;
                        if !links.contains(&l) {
                            links.push(l);
                        }
                    }
                    links
                })
                .collect();
            let cap = |st: &mut u64| match below(st, 4) {
                0 => None,
                1 => Some(1.0),
                _ => Some(125_000.0),
            };
            let mut sim = SimEntry::new();
            for _ in 0..below(st, 3000) {
                let p = below(st, paths.len());
                sim.start(paths[p].clone(), cap(st));
            }
            for _ in 0..4 + below(st, 12) {
                let n = sim.live.len();
                match below(st, 6) {
                    0 => {
                        for _ in 0..1 + below(st, 60) {
                            let p = below(st, paths.len());
                            sim.start(paths[p].clone(), cap(st));
                        }
                    }
                    1 if n > 0 => {
                        for _ in 0..1 + below(st, 60.min(n)) {
                            let slot = sim.live[below(st, sim.live.len())];
                            sim.stop(slot);
                        }
                    }
                    2 if n > 0 => {
                        let at = below(st, n);
                        for i in at..n.min(at + 1 + below(st, 80)) {
                            let slot = sim.live[i];
                            let flipped = match sim.flows[slot].as_ref().expect("live").1 {
                                Some(1.0) => Some(125_000.0),
                                Some(125_000.0) => Some(1.0),
                                other => other,
                            };
                            sim.set_cap(slot, flipped);
                        }
                    }
                    3 => {
                        let l = below(st, nl);
                        up[l] = !up[l];
                    }
                    4 => caps[below(st, nl)] = capacity(st),
                    _ => {}
                }
                let universe: Vec<Option<f64>> =
                    (0..nl).map(|l| up[l].then_some(caps[l])).collect();
                let s = sim.settle(&universe);
                settles += 1;
                sparse += usize::from(s.visits * 10 < s.live);
                forcing += usize::from(s.alone > 0);
                stranding += usize::from(sim.live.iter().any(|s| sim.class[*s] == UNROUTED));
                total.visits += s.visits;
                total.live += s.live;
                total.changes += s.changes;
                total.alone += s.alone;
            }
        }
        assert!(settles >= 1000, "{settles} settles");
        assert!(
            sparse >= 200,
            "{sparse} settles gave out under a tenth of the flows"
        );
        assert!(forcing >= 250, "{forcing} fills froze a flow alone");
        assert!(total.alone >= 300, "{} flows frozen alone", total.alone);
        assert!(stranding >= 200, "{stranding} settles with a stranded flow");
        assert!(total.changes >= 250_000, "{} rate changes", total.changes);
        assert!(
            total.visits * 2 < total.live,
            "{} flows given out of {} live",
            total.visits,
            total.live
        );
    }

    /// The class log against the per-flow log, on the settle
    /// differential's inputs (the same seeds, so the same crowd-shaped
    /// sequences of starts, stops, pauses and resumes, link failures and
    /// restores, and capacity changes): at every settle,
    /// `SimEntry::settle` expands the class log over the member lists
    /// and holds it to the per-flow log's batch and to the rate column,
    /// bit for bit. The floors say each kind of entry was exercised —
    /// class rates, flows that moved class, flows frozen alone and flows
    /// stranded — and that the class log is far shorter than the
    /// per-flow log it expands to.
    #[test]
    fn the_class_log_expands_to_the_per_flow_log_through_crowd_churn() {
        const CASES: u64 = 120;
        let mut total = Settled::default();
        let (mut stops, mut flips, mut failures, mut forcing) = (0usize, 0usize, 0usize, 0usize);
        for case in 0..CASES {
            let mut st = case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5E77;
            let st = &mut st;
            let nl = 2 + below(st, 7);
            let capacity = |st: &mut u64| match below(st, 4) {
                0 | 1 => 4e8,
                2 => 1.25e7 / 3.0,
                _ => 1e6 + below(st, 1000) as f64 * 0.37,
            };
            let mut caps: Vec<f64> = (0..nl).map(|_| capacity(st)).collect();
            let mut up = vec![true; nl];
            let paths: Vec<Vec<u32>> = (0..1 + below(st, 6))
                .map(|_| {
                    let mut links: Vec<u32> = Vec::new();
                    for _ in 0..1 + below(st, 3) {
                        let l = below(st, nl) as u32;
                        if !links.contains(&l) {
                            links.push(l);
                        }
                    }
                    links
                })
                .collect();
            let cap = |st: &mut u64| match below(st, 4) {
                0 => None,
                1 => Some(1.0),
                _ => Some(125_000.0),
            };
            let mut sim = SimEntry::new();
            for _ in 0..below(st, 3000) {
                let p = below(st, paths.len());
                sim.start(paths[p].clone(), cap(st));
            }
            for _ in 0..4 + below(st, 12) {
                let n = sim.live.len();
                match below(st, 6) {
                    0 => {
                        for _ in 0..1 + below(st, 60) {
                            let p = below(st, paths.len());
                            sim.start(paths[p].clone(), cap(st));
                        }
                    }
                    1 if n > 0 => {
                        for _ in 0..1 + below(st, 60.min(n)) {
                            let slot = sim.live[below(st, sim.live.len())];
                            sim.stop(slot);
                            stops += 1;
                        }
                    }
                    2 if n > 0 => {
                        let at = below(st, n);
                        for i in at..n.min(at + 1 + below(st, 80)) {
                            let slot = sim.live[i];
                            let flipped = match sim.flows[slot].as_ref().expect("live").1 {
                                Some(1.0) => Some(125_000.0),
                                Some(125_000.0) => Some(1.0),
                                other => other,
                            };
                            flips +=
                                usize::from(flipped != sim.flows[slot].as_ref().expect("live").1);
                            sim.set_cap(slot, flipped);
                        }
                    }
                    3 => {
                        let l = below(st, nl);
                        failures += usize::from(up[l]);
                        up[l] = !up[l];
                    }
                    4 => caps[below(st, nl)] = capacity(st),
                    _ => {}
                }
                let universe: Vec<Option<f64>> =
                    (0..nl).map(|l| up[l].then_some(caps[l])).collect();
                let s = sim.settle(&universe);
                forcing += usize::from(s.alone > 0);
                total.changes += s.changes;
                total.class_notes += s.class_notes;
                total.follows += s.follows;
                total.owns += s.owns;
            }
        }
        assert!(stops >= 5_000, "{stops} flows stopped");
        assert!(flips >= 4_500, "{flips} caps flipped");
        assert!(failures >= 150, "{failures} links failed");
        assert!(forcing >= 500, "{forcing} fills froze a flow alone");
        assert!(
            total.class_notes >= 3_000,
            "{} class rates",
            total.class_notes
        );
        assert!(
            total.follows >= 150_000,
            "{} flows followed a class",
            total.follows
        );
        assert!(
            total.owns >= 75_000,
            "{} flows on their own rate",
            total.owns
        );
        assert!(
            total.class_notes * 100 < total.changes,
            "{} class rates against {} per-flow changes",
            total.class_notes,
            total.changes
        );
    }

    /// Runs `check` on `n` cases, each on its own seeded generator, and
    /// names the case and seed that fail.
    fn cases(n: u64, mut check: impl FnMut(&mut StdRng)) {
        for case in 0..n {
            let seed = 0x5EED_F1BB_0001 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let run = catch_unwind(AssertUnwindSafe(|| check(&mut StdRng::seed_from_u64(seed))));
            assert!(run.is_ok(), "case {case}/{n} failed (seed {seed:#x})");
        }
    }

    /// Draws of `draw`, as many as a first draw from `len` says.
    fn vec_of<T>(
        rng: &mut StdRng,
        len: Range<usize>,
        mut draw: impl FnMut(&mut StdRng) -> T,
    ) -> Vec<T> {
        (0..rng.gen_range(len)).map(|_| draw(rng)).collect()
    }

    /// `None` one time in four, else a draw of `draw`.
    fn option_of<T>(rng: &mut StdRng, draw: impl FnOnce(&mut StdRng) -> T) -> Option<T> {
        (rng.gen_range(0..4) != 0).then(|| draw(rng))
    }

    /// A capacity: often one of two round values, so that two links
    /// (or one link before and after a change) coincide.
    fn capacity(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..3) {
            0 => 100.0,
            1 => 250.0,
            _ => rng.gen_range(1.0..1000.0),
        }
    }

    /// A flow as drawn: `len` links below `links`, and a rate cap
    /// under 500 three times in four.
    fn raw_flow(rng: &mut StdRng, links: usize, len: Range<usize>) -> (Vec<usize>, Option<f64>) {
        let path = vec_of(rng, len, |rng| rng.gen_range(0..links));
        (path, option_of(rng, |rng| rng.gen_range(1.0..500.0)))
    }

    /// The entry point that stages class ids over a fixed link universe
    /// — capacity present iff the link is up — is the keyed allocator
    /// fed only the up links: same rates and same loads, call after
    /// call, through capacity changes (on down links too), links going
    /// down and up, and flow sets that change or stay. Both give the
    /// reference's rate bits, and its loads within `n` ulps.
    #[test]
    fn prop_class_id_staging_equals_keyed_over_up_links() {
        cases(64, |rng| {
            let caps = vec_of(rng, 1..7, capacity);
            let steps = vec_of(rng, 1..10, |rng| {
                // (link, what, capacity): 0 = down, 1 = up, else set capacity.
                let link_ops: Vec<(usize, u8, f64)> = vec_of(rng, 0..3, |rng| {
                    (rng.gen_range(0..8), rng.gen_range(0..4), capacity(rng))
                });
                // `None` keeps the previous step's flows.
                let flows = option_of(rng, |rng| {
                    vec_of(rng, 0..12, |rng| {
                        let path: Vec<usize> = vec_of(rng, 0..4, |rng| rng.gen_range(0..8));
                        let cap = option_of(rng, |rng| match rng.gen_range(0..2) {
                            0 => 50.0,
                            _ => rng.gen_range(1.0..500.0),
                        });
                        (path, cap)
                    })
                });
                (link_ops, flows)
            });
            let nl = caps.len();
            let mut caps = caps;
            let mut up = vec![true; nl];
            let mut flows: Vec<(Vec<usize>, Option<f64>)> = Vec::new();
            let mut sim = SimEntry::new();
            let mut keyed: Allocator<usize> = Allocator::new();
            for (link_ops, new_flows) in &steps {
                for (l, what, cap) in link_ops {
                    match what {
                        0 => up[l % nl] = false,
                        1 => up[l % nl] = true,
                        _ => caps[l % nl] = *cap,
                    }
                }
                if let Some(raw) = new_flows {
                    flows = raw
                        .iter()
                        .map(|(ls, cap)| {
                            let mut links: Vec<usize> = ls.iter().map(|l| l % nl).collect();
                            links.sort();
                            links.dedup();
                            (links, *cap)
                        })
                        .collect();
                }
                // A flow that would cross a down link is not routed:
                // the simulator's entry is given it, the others are not.
                let routed: Vec<(Vec<usize>, Option<f64>)> = flows
                    .iter()
                    .filter(|(links, _)| links.iter().all(|l| up[*l]))
                    .cloned()
                    .collect();
                let positions: Vec<(Vec<u32>, Option<f64>)> = flows
                    .iter()
                    .map(|(links, c)| (links.iter().map(|l| *l as u32).collect(), *c))
                    .collect();
                let universe: Vec<Option<f64>> =
                    (0..nl).map(|l| up[l].then_some(caps[l])).collect();
                let up_caps: BTreeMap<usize, f64> =
                    (0..nl).filter(|l| up[*l]).map(|l| (l, caps[l])).collect();

                sim.settle_all(&universe, &positions);
                let indexed = &sim.alloc;
                let sim_rates = sim.routed_rates();
                keyed.allocate(&up_caps, routed.iter().map(|(l, c)| (l.as_slice(), *c)));
                let (ref_rates, ref_loads) = max_min_keyed(&up_caps, &routed);

                assert_eq!(sim_rates.len(), ref_rates.len());
                assert_eq!(keyed.rates().len(), ref_rates.len());
                for (i, want) in ref_rates.iter().enumerate() {
                    assert_eq!(sim_rates[i].to_bits(), want.to_bits());
                    assert_eq!(keyed.rates()[i].to_bits(), want.to_bits());
                }
                for l in 0..nl {
                    let want = ref_loads.get(&l).copied().unwrap_or(0.0);
                    let n = crossing(&routed, l);
                    assert!(near(indexed.loads()[l], want, n));
                    assert!(near(keyed.load(&l), want, n));
                }
            }
        });
    }

    /// The reusable allocator gives the reference's rate bits on
    /// arbitrary inputs, including across a sequence of calls that
    /// reuses its buffers (the pinned byte-for-byte traces cannot tell
    /// the two apart), and its loads within `n` ulps.
    #[test]
    fn prop_allocator_bitwise_equals_reference() {
        cases(64, |rng| {
            let caps = vec_of(rng, 1..8, |rng| rng.gen_range(1.0..1000.0));
            let steps = vec_of(rng, 1..5, |rng| {
                vec_of(rng, 0..16, |rng| raw_flow(rng, 8, 0..4))
            });
            let nl = caps.len();
            let keyed: BTreeMap<usize, f64> = caps.iter().copied().enumerate().collect();
            let mut alloc: Allocator<usize> = Allocator::new();
            for flows_raw in &steps {
                let flows: Vec<(Vec<usize>, Option<f64>)> = flows_raw
                    .iter()
                    .map(|(ls, cap)| {
                        let mut links: Vec<usize> = ls.iter().map(|l| l % nl).collect();
                        links.sort();
                        links.dedup();
                        (links, *cap)
                    })
                    .collect();
                alloc.allocate(&keyed, flows.iter().map(|(l, c)| (l.as_slice(), *c)));
                let (ref_rates, ref_loads) = max_min_keyed(&keyed, &flows);
                assert_eq!(alloc.rates().len(), ref_rates.len());
                for (a, b) in alloc.rates().iter().zip(ref_rates.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                for (k, load) in &ref_loads {
                    assert!(near(alloc.load(k), *load, crossing(&flows, *k)));
                }
            }
        });
    }

    /// No link is ever overloaded and no flow exceeds its cap.
    #[test]
    fn prop_feasibility() {
        cases(64, |rng| {
            let caps = vec_of(rng, 1..8, |rng| rng.gen_range(1.0..1000.0));
            let flows_raw = vec_of(rng, 1..20, |rng| raw_flow(rng, 8, 1..4));
            let nl = caps.len();
            let flows: Vec<FluidFlow> = flows_raw
                .iter()
                .map(|(ls, cap)| {
                    let mut links: Vec<usize> = ls.iter().map(|l| l % nl).collect();
                    links.sort();
                    links.dedup();
                    FluidFlow { links, cap: *cap }
                })
                .collect();
            let a = max_min_allocation(&caps, &flows);
            for (l, load) in a.link_loads.iter().enumerate() {
                assert!(
                    *load <= caps[l] + 1e-6,
                    "link {l} overloaded: {load} > {}",
                    caps[l]
                );
            }
            for (i, f) in flows.iter().enumerate() {
                if let Some(cap) = f.cap {
                    assert!(a.rates[i] <= cap + 1e-6);
                }
                assert!(a.rates[i] >= -1e-9);
            }
        });
    }

    /// Max-min property (bottleneck justification): every flow is
    /// either at its cap or crosses at least one saturated link.
    #[test]
    fn prop_maxmin_justified() {
        cases(64, |rng| {
            let caps = vec_of(rng, 1..6, |rng| rng.gen_range(1.0..1000.0));
            let flows_raw = vec_of(rng, 1..12, |rng| raw_flow(rng, 6, 1..3));
            let nl = caps.len();
            let flows: Vec<FluidFlow> = flows_raw
                .iter()
                .map(|(ls, cap)| {
                    let mut links: Vec<usize> = ls.iter().map(|l| l % nl).collect();
                    links.sort();
                    links.dedup();
                    FluidFlow { links, cap: *cap }
                })
                .collect();
            let a = max_min_allocation(&caps, &flows);
            for (i, f) in flows.iter().enumerate() {
                let at_cap = f.cap.map(|c| a.rates[i] >= c - 1e-6).unwrap_or(false);
                let bottlenecked = f.links.iter().any(|&l| a.link_loads[l] >= caps[l] - 1e-6);
                assert!(
                    at_cap || bottlenecked,
                    "flow {i} (rate {}) neither capped nor bottlenecked",
                    a.rates[i]
                );
            }
        });
    }
}
