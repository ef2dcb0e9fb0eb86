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
//!   against (bit-for-bit, not just within a tolerance).
//! * [`Allocator`] — the version the simulator uses: buffers persist
//!   across calls, a call whose inputs are unchanged returns the cached
//!   result without filling at all, and the fill works on *classes* —
//!   the flows that cross the same links under the same cap — because
//!   a crowd is thousands of flows over a handful of forwarding
//!   decisions (36 000 sessions over 7 paths and at most 10 classes on
//!   the ledger's `dataplane_churn`).
//!
//! # Interning
//!
//! Paths and classes are interned by content in grow-only tables, the
//! way the simulator keeps them: a `PathTable` gives each distinct
//! list of link positions an id, a `ClassTable` each distinct (path
//! id, cap bits). The simulator finds a flow's class where it resolves
//! the flow's path and where the flow's cap changes — a few dozen
//! flows a settle — and keeps the id with the flow. A settle then
//! hands over one class id per routed flow: it probes no map and
//! searches no class, and the members of each class are counted in the
//! same pass. The fill touches only the classes that have members, so
//! a table that grows over a run costs nothing per settle.
//!
//! # Why classes give the reference's bits
//!
//! Three of the four things a round of progressive filling does are
//! order-free, so they can be done per class and per link; the fourth
//! is not, and stays per flow.
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
//!   than `1e-9`, and 116 of `dataplane_churn`'s 1 174 fills force at
//!   least once (165 flows in all; 115 of 462 on `predictive_storm`).
//! * **Loads are not order-free.** A link's load is the sum, in flow
//!   order, of rates that differ from class to class, and f64 addition
//!   is not associative: that one pass stays per flow.
//!
//! None of the four depends on how classes are numbered, so the ids a
//! table hands out (in the order pairs were first seen over the whole
//! run, not within one input) cannot move a bit: a link's subtraction
//! count is a sum of member counts, a class freezes whole or not at
//! all, the forced freeze is chosen by walking the flows in order, and
//! loads are summed in flow order. The caps and residuals a round
//! compares are `min`s, which do not care in which order the classes
//! are visited either (the fill visits them in first appearance in the
//! input, as it always has).
//!
//! The memo compares the link universe and the sequence of class ids,
//! and is exact: ids are interned by content and never reused, so two
//! inputs have equal id sequences iff they have equal per-flow (links,
//! cap bits) — the fill/skip decisions every pinned sweep CSV carries
//! do not move.
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
//! provably bit-identical: unchanged inputs, and the order-free part
//! of one fill.

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

/// (path id, cap) pairs interned by content, as [`PathTable`] interns
/// paths: the flows that cross the same links under the same cap bits
/// always get the same id, and an id never changes its meaning. These
/// are the *classes* progressive filling cannot tell apart (module
/// docs): the fill works on them, and the memo compares their ids.
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
        let id = u32::try_from(self.classes.len()).expect("fewer than 2^32 classes");
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

/// One input's routed flows as class ids, and how many flows each
/// class has: counted as the ids are read, so the fill never walks the
/// flows to find its classes.
#[derive(Debug, Default)]
struct FlowClasses {
    /// Per routed flow, in the caller's order: its class id.
    ids: Vec<u32>,
    /// Per class id: the flows of `ids` in it (zero for a class not in
    /// `used`).
    members: Vec<usize>,
    /// The classes with members, in order of first appearance.
    used: Vec<u32>,
}

impl FlowClasses {
    /// Read an input's class ids, in flow order.
    fn read(&mut self, flows: impl Iterator<Item = u32>) {
        let FlowClasses { ids, members, used } = self;
        for c in used.drain(..) {
            members[c as usize] = 0;
        }
        ids.clear();
        ids.extend(flows.inspect(|&c| {
            let at = c as usize;
            if members.len() <= at {
                members.resize(at + 1, 0);
            }
            if members[at] == 0 {
                used.push(c);
            }
            members[at] += 1;
        }));
    }
}

/// The simulator's reusable max-min allocator (see module docs).
///
/// Every call hands over the full current input — the link universe
/// (each link's capacity, present iff the link is up) and the routed
/// flows. The allocator compares it against the previous call: when
/// nothing changed it returns the cached result (a *skip*, counted in
/// [`Allocator::skips`]); when anything changed it re-runs progressive
/// filling over the input's classes (a *fill*, counted in
/// [`Allocator::fills`]). Output is bit-identical to
/// [`max_min_allocation`] on the same input.
///
/// There are two ways in and one memo and fill behind them:
/// `allocate_classes` for a caller that names links by their position
/// in a fixed universe and each flow by its interned class id (the
/// simulator), and [`Allocator::allocate`] for a caller that names
/// links by key, which translates keys to positions and interns each
/// flow's list and class in tables of its own.
#[derive(Debug, Default)]
pub struct Allocator<K: Ord + Clone> {
    // --- the keyed entry point's translation (unused by the simulator) ---
    keys: Vec<K>,
    index: BTreeMap<K, u32>,
    key_paths: PathTable,
    key_classes: ClassTable,
    key_links: Vec<u32>,
    // --- previous input (the memo key) ---
    /// Per link of the universe: its capacity iff it is up. Up/down is
    /// part of the key: a link that fails is a different input even if
    /// no flow crossed it, a capacity change on a down link is not.
    caps: Vec<Option<f64>>,
    /// The flows the kept result was filled from.
    flows: FlowClasses,
    valid: bool,
    // --- cached output ---
    rates: Vec<f64>,
    loads: Vec<f64>,
    // --- the call in progress ---
    staged: FlowClasses,
    // --- scratch for the fill ---
    residual: Vec<f64>,
    /// Per link: unfrozen flows crossing it.
    link_active: Vec<usize>,
    /// Per class id (written and read for the input's classes only):
    /// members not yet frozen, and the rate the class froze at.
    unfrozen: Vec<usize>,
    class_rate: Vec<f64>,
    /// Flows frozen alone, ahead of their class, with their rate.
    forced: Vec<(usize, f64)>,
    active_classes: Vec<u32>,
    active_links: Vec<usize>,
    /// Fill passes actually executed.
    pub fills: u64,
    /// Calls answered from the cache (inputs unchanged).
    pub skips: u64,
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
            key_paths: PathTable::default(),
            key_classes: ClassTable::default(),
            key_links: Vec::new(),
            caps: Vec::new(),
            flows: FlowClasses::default(),
            valid: false,
            rates: Vec::new(),
            loads: Vec::new(),
            staged: FlowClasses::default(),
            residual: Vec::new(),
            link_active: Vec::new(),
            unfrozen: Vec::new(),
            class_rate: Vec::new(),
            forced: Vec::new(),
            active_classes: Vec::new(),
            active_links: Vec::new(),
            fills: 0,
            skips: 0,
        }
    }

    /// Compute (or reuse) the max-min allocation over links named by
    /// key: `capacities` holds the up links, and is the link universe.
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
        // A key that comes or goes renumbers the universe: nothing
        // kept from the previous call is comparable.
        if !self.keys.iter().eq(capacities.keys()) {
            self.keys.clear();
            self.keys.extend(capacities.keys().cloned());
            self.index = (0u32..)
                .zip(&self.keys)
                .map(|(i, k)| (k.clone(), i))
                .collect();
            self.key_paths = PathTable::default();
            self.key_classes = ClassTable::default();
            self.valid = false;
        }
        let links_unchanged = self.stage_links(capacities.values().map(|c| Some(*c)));
        let (index, positions) = (&self.index, &mut self.key_links);
        let (paths, classes) = (&mut self.key_paths, &mut self.key_classes);
        self.staged.read(flows.into_iter().map(|(links, cap)| {
            positions.clear();
            positions.extend(
                links
                    .iter()
                    .map(|k| *index.get(k).expect("flow references unknown link key")),
            );
            classes.intern(paths.intern(positions), cap)
        }));
        // The tables are lent to the fill, which borrows the rest.
        let (paths, classes) = (
            std::mem::take(&mut self.key_paths),
            std::mem::take(&mut self.key_classes),
        );
        self.commit(&paths, &classes, links_unchanged);
        (self.key_paths, self.key_classes) = (paths, classes);
    }

    /// Compute (or reuse) the max-min allocation over links named by
    /// position: `links` yields the whole universe in a fixed order,
    /// one entry per link, its capacity iff the link is up; `flows`
    /// yields each routed flow's class id in `classes`, whose path ids
    /// name links of `paths` (positions in that order, up links only),
    /// in a stable order. Rates come back via [`Allocator::rates`],
    /// loads via [`Allocator::loads`].
    ///
    /// `paths` and `classes` must be the same tables from call to call:
    /// the memo compares class ids.
    pub(crate) fn allocate_classes<L, I>(
        &mut self,
        paths: &PathTable,
        classes: &ClassTable,
        links: L,
        flows: I,
    ) where
        L: IntoIterator<Item = Option<f64>>,
        I: IntoIterator<Item = u32>,
    {
        let links_unchanged = self.stage_links(links);
        self.staged.read(flows.into_iter());
        self.commit(paths, classes, links_unchanged);
    }

    /// Overwrite the kept link universe with `links`; `true` iff the
    /// universe is as it was.
    fn stage_links(&mut self, links: impl IntoIterator<Item = Option<f64>>) -> bool {
        let mut unchanged = self.valid;
        let mut n = 0;
        for cap in links {
            match self.caps.get_mut(n) {
                Some(kept) if same_bits(*kept, cap) => {}
                Some(kept) => {
                    *kept = cap;
                    unchanged = false;
                }
                None => {
                    self.caps.push(cap);
                    unchanged = false;
                }
            }
            n += 1;
        }
        if n < self.caps.len() {
            self.caps.truncate(n);
            unchanged = false;
        }
        unchanged
    }

    /// Skip if the staged flows equal the kept ones, else keep them and
    /// fill. Class ids are interned by content and never reused, so
    /// equal id sequences are equal per-flow (links, cap bits).
    fn commit(&mut self, paths: &PathTable, classes: &ClassTable, links_unchanged: bool) {
        if links_unchanged && self.staged.ids == self.flows.ids {
            self.skips += 1;
            return;
        }
        std::mem::swap(&mut self.flows, &mut self.staged);
        self.fill(paths, classes);
        self.valid = true;
        self.fills += 1;
    }

    /// How many classes the last call's flows fell into.
    pub(crate) fn classes(&self) -> usize {
        self.flows.used.len()
    }

    /// Per-flow rates of the last call, in the caller's flow order.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Per-link loads after the last call, in universe order (0.0 on a
    /// down link).
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Load of one link after the last call (0.0 for unknown keys).
    pub fn load(&self, key: &K) -> f64 {
        self.index
            .get(key)
            .map(|i| self.loads[*i as usize])
            .unwrap_or(0.0)
    }

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
    /// lowest-index unfrozen flow frozen alone. Only the input's
    /// classes are touched, however many the table holds.
    fn fill(&mut self, paths: &PathTable, classes: &ClassTable) {
        let nl = self.caps.len();
        let nf = self.flows.ids.len();
        // A down link carries nothing: no flow crosses it, so it never
        // becomes active and its residual is never read.
        self.residual.clear();
        self.residual
            .extend(self.caps.iter().map(|c| c.unwrap_or(0.0)));
        self.link_active.clear();
        self.link_active.resize(nl, 0);
        // Stale entries of classes not in this input are never read.
        self.unfrozen.resize(self.flows.members.len(), 0);
        self.class_rate.resize(self.flows.members.len(), 0.0);
        for &c in &self.flows.used {
            let (path, cap) = classes.get(c);
            let links = paths.links(path);
            let members = self.flows.members[c as usize];
            debug_assert!(
                links.iter().all(|l| self.caps[*l as usize].is_some()),
                "flow crosses a down link"
            );
            // Degenerate flows (no links) are limited only by their
            // cap, and fixed from the start.
            let (unfrozen, rate) = match links {
                [] => (0, cap.unwrap_or(0.0)),
                _ => (members, 0.0),
            };
            self.unfrozen[c as usize] = unfrozen;
            self.class_rate[c as usize] = rate;
            for l in links {
                self.link_active[*l as usize] += members;
            }
        }
        let unfrozen = &self.unfrozen;
        self.active_classes.clear();
        self.active_classes.extend(
            self.flows
                .used
                .iter()
                .filter(|c| unfrozen[**c as usize] > 0),
        );
        self.active_links.clear();
        self.active_links
            .extend((0..nl).filter(|l| self.link_active[*l] > 0));
        self.forced.clear();

        // Every unfrozen flow's rate is 0.0 plus the same deltas in
        // the same order: one number.
        let mut level = 0.0f64;
        // Flows before the cursor are frozen, with their class or
        // alone.
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
                let ids = &self.flows.ids;
                let i = (cursor..nf)
                    .find(|i| self.unfrozen[ids[*i] as usize] > 0)
                    .expect("an active class has an unfrozen member past the cursor");
                self.forced.push((i, level));
                let c = ids[i];
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

        self.rates.clear();
        self.rates
            .extend(self.flows.ids.iter().map(|c| self.class_rate[*c as usize]));
        for &(i, rate) in &self.forced {
            self.rates[i] = rate;
        }
        // Link loads, in the reference's flow-major accumulation
        // order: a sum of unequal rates is the one thing here whose
        // bits depend on the order, so this pass stays per flow.
        self.loads.clear();
        self.loads.resize(nl, 0.0);
        for (c, rate) in self.flows.ids.iter().zip(&self.rates) {
            for l in paths.links(classes.path(*c)) {
                self.loads[*l as usize] += rate;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn allocator_matches_reference_and_skips_unchanged() {
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
        assert_eq!((alloc.fills, alloc.skips), (1, 0));

        // Same input again: answered from cache.
        alloc.allocate(&caps, input.iter().map(|(l, c)| (l.as_slice(), *c)));
        assert_eq!((alloc.fills, alloc.skips), (1, 1));
        assert_eq!(alloc.rates(), ref_rates.as_slice());

        // A cap change forces a refill; results track the reference.
        let flows2: Vec<(Vec<&str>, Option<f64>)> =
            vec![(vec!["x", "y"], None), (vec!["x"], Some(30.0))];
        alloc.allocate(&caps, flows2.iter().map(|(l, c)| (l.as_slice(), *c)));
        assert_eq!((alloc.fills, alloc.skips), (2, 1));
        let (ref2, _) = max_min_keyed(&caps, &flows2);
        assert_eq!(alloc.rates(), ref2.as_slice());

        // A capacity change (same keys) also forces a refill.
        caps.insert("y", 60.0);
        alloc.allocate(&caps, flows2.iter().map(|(l, c)| (l.as_slice(), *c)));
        assert_eq!((alloc.fills, alloc.skips), (3, 1));
        let (ref3, _) = max_min_keyed(&caps, &flows2);
        assert_eq!(alloc.rates(), ref3.as_slice());

        // So does a key that goes while another comes, even when the
        // capacities coincide position by position and no flow is
        // routed: the keys are the up links, and which links are up is
        // part of the input.
        let no_flows = std::iter::empty::<(&[&str], Option<f64>)>;
        alloc.allocate(&BTreeMap::from([("x", 7.0), ("y", 7.0)]), no_flows());
        alloc.allocate(&BTreeMap::from([("y", 7.0), ("z", 7.0)]), no_flows());
        assert_eq!((alloc.fills, alloc.skips), (5, 1));
        alloc.allocate(&BTreeMap::from([("y", 7.0), ("z", 7.0)]), no_flows());
        assert_eq!((alloc.fills, alloc.skips), (5, 2));
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
        sim.settle(&universe, &positions);
        for (i, want) in ref_rates.iter().enumerate() {
            assert_eq!(keyed.rates()[i].to_bits(), want.to_bits(), "flow {i}");
            assert_eq!(sim.alloc.rates()[i].to_bits(), want.to_bits(), "flow {i}");
        }
        for (l, want) in &ref_loads {
            assert_eq!(keyed.load(l).to_bits(), want.to_bits(), "link {l}");
            assert_eq!(sim.alloc.loads()[*l].to_bits(), want.to_bits(), "link {l}");
        }
    }

    /// The simulator's way in, as `Core::reallocate` drives it: links
    /// named by position in a fixed universe, a capacity present iff
    /// the link is up, each flow an id of the class table the
    /// simulator keeps, over the path table it keeps (both interned
    /// here where `reallocate` resolves).
    struct SimEntry {
        alloc: Allocator<usize>,
        paths: PathTable,
        classes: ClassTable,
    }

    impl SimEntry {
        fn new() -> SimEntry {
            SimEntry {
                alloc: Allocator::new(),
                paths: PathTable::default(),
                classes: ClassTable::default(),
            }
        }

        fn settle(&mut self, universe: &[Option<f64>], flows: &[(Vec<u32>, Option<f64>)]) {
            let ids: Vec<u32> = flows
                .iter()
                .map(|(l, c)| self.classes.intern(self.paths.intern(l), *c))
                .collect();
            let universe = universe.iter().copied();
            self.alloc
                .allocate_classes(&self.paths, &self.classes, universe, ids);
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
    /// links: every rate and every load bit for bit, and the same
    /// fill/skip decisions as the keyed entry. Those decisions are
    /// also held to an oracle of the test's own: a call skips iff its
    /// up-link universe and its per-flow (links, cap bits) sequence
    /// equal the previous call's.
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
        let mut calls = 0usize;
        let mut skips = 0u64;
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
            // input in bits: the memo oracle.
            type State = (Vec<(usize, Option<f64>)>, Vec<f64>, Vec<bool>);
            type Input = (Vec<Option<u64>>, Vec<(Vec<u32>, Option<u64>)>);
            let mut saved: Option<State> = None;
            let mut last: Option<Input> = None;
            for step in 0..1 + below(st, 8) {
                let mut paused = false;
                let mut restored = false;
                // One call in eight repeats its input: a skip on both.
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
                // A flow that would cross a down link is not routed.
                let routed: Vec<(Vec<u32>, Option<f64>)> = flows
                    .iter()
                    .filter(|(p, _)| paths[*p].iter().all(|l| up[*l as usize]))
                    .map(|(p, c)| (paths[*p].clone(), *c))
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

                let skips_before = sim.alloc.skips;
                sim.settle(&universe, &routed);
                keyed.allocate(&up_caps, by_key.iter().map(|(l, c)| (l.as_slice(), *c)));
                let (ref_rates, ref_loads) = max_min_keyed(&up_caps, &by_key);

                let at = format!("case {case}, call {step}");
                assert_eq!(
                    sim.alloc.skips - skips_before,
                    u64::from(!moved),
                    "{at}: skipped iff the input is the last call's"
                );
                assert_eq!(
                    (sim.alloc.fills, sim.alloc.skips),
                    (keyed.fills, keyed.skips),
                    "{at}: fill/skip decisions"
                );
                assert_eq!(sim.alloc.rates().len(), ref_rates.len(), "{at}");
                for (i, want) in ref_rates.iter().enumerate() {
                    let got = sim.alloc.rates()[i];
                    assert_eq!(got.to_bits(), want.to_bits(), "{at}: rate of flow {i}");
                    assert_eq!(keyed.rates()[i].to_bits(), want.to_bits(), "{at}: flow {i}");
                }
                for l in 0..nl {
                    let want = ref_loads.get(&l).copied().unwrap_or(0.0);
                    let got = sim.alloc.loads()[l];
                    assert_eq!(got.to_bits(), want.to_bits(), "{at}: load of link {l}");
                    assert_eq!(keyed.load(&l).to_bits(), want.to_bits(), "{at}: link {l}");
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
            skips += sim.alloc.skips;
        }
        // What the inputs covered, asserted so that a change to the
        // generator cannot quietly stop exercising it.
        assert!(calls >= 900, "{calls} calls");
        assert!(skips >= 100, "{skips} skipped calls");
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
        assert!(returns >= 100, "{returns} calls back at an earlier input");
    }

    /// A capacity: often one of two round values, so that two links
    /// (or one link before and after a change) coincide.
    fn capacity() -> impl Strategy<Value = f64> {
        prop_oneof![Just(100.0), Just(250.0), 1.0f64..1000.0]
    }

    proptest! {
        /// The entry point that stages class ids over a fixed link
        /// universe — capacity present iff the link is up — is the
        /// keyed allocator fed only the up links: same rates, same
        /// loads and the same fill/skip decisions, call after call,
        /// through capacity changes (on down links too), links going
        /// down and up, and flow sets that change or stay. Both are
        /// bit-identical to the reference. The simulator's pinned
        /// `alloc_fills` / `alloc_skips` rest on the decisions being
        /// the same.
        #[test]
        fn prop_class_id_staging_equals_keyed_over_up_links(
            caps in proptest::collection::vec(capacity(), 1..7),
            steps in proptest::collection::vec(
                (
                    // (link, what, capacity): 0 = down, 1 = up, else set capacity.
                    proptest::collection::vec((0usize..8, 0u8..4, capacity()), 0..3),
                    // `None` keeps the previous step's flows.
                    proptest::option::of(proptest::collection::vec(
                        (
                            proptest::collection::vec(0usize..8, 0..4),
                            proptest::option::of(prop_oneof![Just(50.0), 1.0f64..500.0]),
                        ),
                        0..12,
                    )),
                ),
                1..10
            )
        ) {
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
                // A flow that would cross a down link is not routed.
                let routed: Vec<(Vec<usize>, Option<f64>)> = flows
                    .iter()
                    .filter(|(links, _)| links.iter().all(|l| up[*l]))
                    .cloned()
                    .collect();
                let positions: Vec<(Vec<u32>, Option<f64>)> = routed
                    .iter()
                    .map(|(links, c)| (links.iter().map(|l| *l as u32).collect(), *c))
                    .collect();
                let universe: Vec<Option<f64>> =
                    (0..nl).map(|l| up[l].then_some(caps[l])).collect();
                let up_caps: BTreeMap<usize, f64> =
                    (0..nl).filter(|l| up[*l]).map(|l| (l, caps[l])).collect();

                sim.settle(&universe, &positions);
                let indexed = &sim.alloc;
                keyed.allocate(&up_caps, routed.iter().map(|(l, c)| (l.as_slice(), *c)));
                let (ref_rates, ref_loads) = max_min_keyed(&up_caps, &routed);

                prop_assert_eq!((indexed.fills, indexed.skips), (keyed.fills, keyed.skips));
                prop_assert_eq!(indexed.rates().len(), ref_rates.len());
                prop_assert_eq!(keyed.rates().len(), ref_rates.len());
                for (i, want) in ref_rates.iter().enumerate() {
                    prop_assert_eq!(indexed.rates()[i].to_bits(), want.to_bits());
                    prop_assert_eq!(keyed.rates()[i].to_bits(), want.to_bits());
                }
                for l in 0..nl {
                    let want = ref_loads.get(&l).copied().unwrap_or(0.0);
                    prop_assert_eq!(indexed.loads()[l].to_bits(), want.to_bits());
                    prop_assert_eq!(keyed.load(&l).to_bits(), want.to_bits());
                }
            }
        }

        /// The reusable allocator is BIT-identical to the reference on
        /// arbitrary inputs, including across a sequence of calls that
        /// exercises the memo/refill paths (this is what licenses the
        /// simulator to reuse cached results: the pinned byte-for-byte
        /// traces cannot tell the two apart).
        #[test]
        fn prop_allocator_bitwise_equals_reference(
            caps in proptest::collection::vec(1.0f64..1000.0, 1..8),
            steps in proptest::collection::vec(
                proptest::collection::vec(
                    (proptest::collection::vec(0usize..8, 0..4), proptest::option::of(1.0f64..500.0)),
                    0..16
                ),
                1..5
            )
        ) {
            let nl = caps.len();
            let keyed: BTreeMap<usize, f64> =
                caps.iter().copied().enumerate().collect();
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
                prop_assert_eq!(alloc.rates().len(), ref_rates.len());
                for (a, b) in alloc.rates().iter().zip(ref_rates.iter()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                for (k, load) in &ref_loads {
                    prop_assert_eq!(alloc.load(k).to_bits(), load.to_bits());
                }
            }
        }

        /// No link is ever overloaded and no flow exceeds its cap.
        #[test]
        fn prop_feasibility(
            caps in proptest::collection::vec(1.0f64..1000.0, 1..8),
            flows_raw in proptest::collection::vec(
                (proptest::collection::vec(0usize..8, 1..4), proptest::option::of(1.0f64..500.0)),
                1..20
            )
        ) {
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
                prop_assert!(*load <= caps[l] + 1e-6, "link {l} overloaded: {load} > {}", caps[l]);
            }
            for (i, f) in flows.iter().enumerate() {
                if let Some(cap) = f.cap {
                    prop_assert!(a.rates[i] <= cap + 1e-6);
                }
                prop_assert!(a.rates[i] >= -1e-9);
            }
        }

        /// Max-min property (bottleneck justification): every flow is
        /// either at its cap or crosses at least one saturated link.
        #[test]
        fn prop_maxmin_justified(
            caps in proptest::collection::vec(1.0f64..1000.0, 1..6),
            flows_raw in proptest::collection::vec(
                (proptest::collection::vec(0usize..6, 1..3), proptest::option::of(1.0f64..500.0)),
                1..12
            )
        ) {
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
                let bottlenecked = f
                    .links
                    .iter()
                    .any(|&l| a.link_loads[l] >= caps[l] - 1e-6);
                prop_assert!(
                    at_cap || bottlenecked,
                    "flow {i} (rate {}) neither capped nor bottlenecked",
                    a.rates[i]
                );
            }
        }
    }
}
