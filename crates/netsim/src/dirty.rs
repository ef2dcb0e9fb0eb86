//! Dirty-set tracking for incremental data-plane recompute.
//!
//! The simulator used to re-resolve *every* flow's path and rebuild
//! the whole fluid allocation at the end of every event batch — cost
//! `O(flows × events)` no matter how small the change. This module
//! holds the two pieces that replace the old `dirty: bool`:
//!
//! * [`FlowIndex`] — the prefix → flows reverse index (the data-plane
//!   sibling of [`crate::fib`]): when a router's FIB download changes
//!   the entry for a prefix, only flows destined to a matching prefix
//!   can be affected, and the index finds them without scanning the
//!   flow table.
//! * [`DirtySet`] — the accumulated invalidations of one event batch:
//!   the flows whose cached path must be re-resolved, plus a flag that
//!   the allocation must be revisited at all (capacity and cap changes
//!   move rates without moving paths).
//!
//! Both are arrays indexed by flow slot (`FlowId.0`), so a flow's
//! start, stop and re-route cost O(1) here: the index keeps one id
//! list per prefix and each id's position in it, so a removal is a
//! swap-remove; the dirty set keeps the ids in marking order and one
//! mark per slot, and sorts once when the settle takes them. That
//! ascending order is the order the settle resolves flows and interns
//! their classes in, and so the order of every link-load sum; the order
//! of [`FlowIndex::affected_by`] is free, since it only marks flows.
//! Both are held to ordered-set models in this module's tests.
//!
//! Invalidation triggers (who marks what) live in `sim.rs`; the
//! correctness contract — a flow not marked dirty resolves to exactly
//! the path it is caching — is property-tested against a full recompute in
//! `tests/incremental_prop.rs`.

use crate::flow::FlowId;
use fib_igp::types::Prefix;

/// Reverse index from destination prefix to the flows targeting it.
#[derive(Debug, Default)]
pub struct FlowIndex {
    /// Per destination prefix, ascending, the flows registered under it
    /// in no particular order.
    by_prefix: Vec<(Prefix, Vec<FlowId>)>,
    /// Per flow slot, its position in its prefix's list.
    pos: Vec<u32>,
}

impl FlowIndex {
    /// An empty index.
    pub fn new() -> FlowIndex {
        FlowIndex::default()
    }

    /// Register a flow, not yet registered, under its destination
    /// prefix.
    pub fn insert(&mut self, dst: Prefix, id: FlowId) {
        let at = match self.by_prefix.binary_search_by_key(&dst, |(p, _)| *p) {
            Ok(at) => at,
            Err(at) => {
                self.by_prefix.insert(at, (dst, Vec::new()));
                at
            }
        };
        let ids = &mut self.by_prefix[at].1;
        let slot = id.0 as usize;
        if self.pos.len() <= slot {
            self.pos.resize(slot + 1, 0);
        }
        self.pos[slot] = u32::try_from(ids.len()).expect("fewer than 2^32 flows a prefix");
        ids.push(id);
    }

    /// Remove a flow (no-op if it is not registered under `dst`).
    pub fn remove(&mut self, dst: Prefix, id: FlowId) {
        let Ok(at) = self.by_prefix.binary_search_by_key(&dst, |(p, _)| *p) else {
            return;
        };
        let ids = &mut self.by_prefix[at].1;
        let Some(&i) = self.pos.get(id.0 as usize) else {
            return;
        };
        let i = i as usize;
        if ids.get(i) != Some(&id) {
            return;
        }
        ids.swap_remove(i);
        if let Some(moved) = ids.get(i) {
            self.pos[moved.0 as usize] = i as u32;
        }
    }

    /// Flows whose destination lookup can be altered by a FIB entry
    /// change for `changed`: their dst equals it or lies under it
    /// (longest-prefix match consults exactly the containing entries).
    pub fn affected_by(&self, changed: Prefix) -> impl Iterator<Item = FlowId> + '_ {
        self.by_prefix
            .iter()
            .filter(move |(dst, _)| *dst == changed || changed.contains(*dst))
            .flat_map(|(_, ids)| ids.iter().copied())
    }
}

/// The invalidations accumulated since the last reallocation.
#[derive(Debug, Default)]
pub struct DirtySet {
    /// Flows whose cached path must be re-resolved, each once, in the
    /// order they were marked.
    paths: Vec<FlowId>,
    /// Per flow slot: listed in `paths`.
    marked: Vec<bool>,
    /// Anything at all changed (paths, caps, capacities): the
    /// allocator must be consulted at the end of the batch. Mirrors
    /// the old `dirty: bool` exactly, so reallocation happens at the
    /// same instants as before the refactor.
    realloc: bool,
}

impl DirtySet {
    /// A clean set.
    pub fn new() -> DirtySet {
        DirtySet::default()
    }

    /// Mark one flow's path stale (implies a reallocation). It stays
    /// marked if it stops: the settle skips a flow that is gone.
    pub fn mark_flow(&mut self, id: FlowId) {
        let slot = id.0 as usize;
        if self.marked.len() <= slot {
            self.marked.resize(slot + 1, false);
        }
        if !std::mem::replace(&mut self.marked[slot], true) {
            self.paths.push(id);
        }
        self.realloc = true;
    }

    /// Mark that rates must be recomputed without touching any path.
    pub fn mark_realloc(&mut self) {
        self.realloc = true;
    }

    /// Does the batch need a reallocation pass?
    pub fn needs_realloc(&self) -> bool {
        self.realloc
    }

    /// Take the stale flows, ascending, and reset the whole dirty
    /// state.
    pub fn take(&mut self) -> Vec<FlowId> {
        self.realloc = false;
        for id in &self.paths {
            self.marked[id.0 as usize] = false;
        }
        let mut ids = std::mem::take(&mut self.paths);
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn id(n: u64) -> FlowId {
        FlowId(n)
    }

    #[test]
    fn index_tracks_membership() {
        let mut ix = FlowIndex::new();
        let p = Prefix::net24(1);
        ix.insert(p, id(1));
        ix.insert(p, id(2));
        ix.insert(Prefix::net24(2), id(3));
        let hits: Vec<FlowId> = ix.affected_by(p).collect();
        assert_eq!(hits, vec![id(1), id(2)]);
        ix.remove(p, id(1));
        let hits: Vec<FlowId> = ix.affected_by(p).collect();
        assert_eq!(hits, vec![id(2)]);
        ix.remove(p, id(9)); // unknown: no-op
    }

    #[test]
    fn index_matches_containing_prefixes() {
        let mut ix = FlowIndex::new();
        let narrow = Prefix::net24(1);
        let wide = Prefix::new(narrow.addr(), 8);
        ix.insert(narrow, id(1));
        // A change to a containing (wider) entry can redirect the
        // narrow lookup when no exact entry exists.
        let hits: Vec<FlowId> = ix.affected_by(wide).collect();
        assert_eq!(hits, vec![id(1)]);
        // A change to an unrelated prefix touches nothing.
        assert_eq!(ix.affected_by(Prefix::net24(9)).count(), 0);
    }

    #[test]
    fn dirty_set_accumulates_and_resets() {
        let mut d = DirtySet::new();
        assert!(!d.needs_realloc());
        d.mark_realloc();
        assert!(d.needs_realloc());
        assert!(d.take().is_empty());
        assert!(!d.needs_realloc());
        d.mark_flow(id(5));
        d.mark_flow(id(4));
        d.mark_flow(id(5));
        assert!(d.needs_realloc());
        assert_eq!(d.take(), vec![id(4), id(5)]);
        assert!(!d.needs_realloc());
    }

    /// The index and the dirty set against ordered-set models, over
    /// 2 000 seeded sequences of starts, stops, marks, takes and FIB
    /// changes as the simulator makes them: a started flow is
    /// registered and marked, a stopped one leaves the index but stays
    /// marked until the next take, and every third stop names a flow
    /// under a prefix it does not have or one never started. Prefixes
    /// nest (a /8 over /16s over /24s), so a change can reach flows of
    /// several prefixes. After every step the index lists what the model
    /// holds, as a set, for every prefix, and every take is the model's
    /// set, ascending.
    #[test]
    fn index_and_dirty_set_match_ordered_models() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut rand = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) % n
        };
        let prefixes = [
            Prefix::new(0x0A00_0000, 8),
            Prefix::new(0x0A01_0000, 16),
            Prefix::new(0x0A02_0000, 16),
            Prefix::new(0x0A01_0100, 24),
            Prefix::new(0x0A01_0200, 24),
            Prefix::new(0x0A02_0100, 24),
            Prefix::new(0x0B00_0100, 24),
        ];
        let (mut taken, mut swapped, mut stale_marks, mut unknown) = (0, 0, 0, 0);
        for _ in 0..2000 {
            let mut ix = FlowIndex::new();
            let mut dirty = DirtySet::new();
            let mut ix_model: BTreeMap<Prefix, BTreeSet<FlowId>> = BTreeMap::new();
            let mut dirty_model: BTreeSet<FlowId> = BTreeSet::new();
            let mut live: Vec<(FlowId, usize)> = Vec::new();
            let mut next = 1u64;
            for _ in 0..1 + rand(60) {
                match rand(10) {
                    0..=3 => {
                        let (f, k) = (id(next), rand(7) as usize);
                        next += 1;
                        ix.insert(prefixes[k], f);
                        ix_model.entry(prefixes[k]).or_default().insert(f);
                        dirty.mark_flow(f);
                        dirty_model.insert(f);
                        live.push((f, k));
                    }
                    4..=5 => {
                        let (f, p) = if rand(3) > 0 && !live.is_empty() {
                            let (f, k) = live.swap_remove(rand(live.len() as u64) as usize);
                            let p = prefixes[k];
                            let (_, ids) = ix.by_prefix.iter().find(|(q, _)| *q == p).unwrap();
                            swapped += usize::from(ids.last() != Some(&f));
                            stale_marks += usize::from(dirty_model.contains(&f));
                            (f, p)
                        } else {
                            unknown += 1;
                            // A live flow under a prefix it does not
                            // have, or an id never started: a no-op on
                            // both sides.
                            match live.get(rand(live.len() as u64 + 1) as usize) {
                                Some(&(f, k)) => (f, prefixes[(k + 1 + rand(6) as usize) % 7]),
                                None => (id(next + rand(3)), prefixes[rand(7) as usize]),
                            }
                        };
                        ix.remove(p, f);
                        if let Some(set) = ix_model.get_mut(&p) {
                            set.remove(&f);
                        }
                        dirty.mark_realloc();
                    }
                    6..=7 => {
                        let changed = prefixes[rand(7) as usize];
                        let mut marked: Vec<FlowId> = ix.affected_by(changed).collect();
                        for f in &marked {
                            dirty.mark_flow(*f);
                        }
                        let model: BTreeSet<FlowId> = ix_model
                            .iter()
                            .filter(|(p, _)| **p == changed || changed.contains(**p))
                            .flat_map(|(_, ids)| ids.iter().copied())
                            .collect();
                        dirty_model.extend(model.iter().copied());
                        let n = marked.len();
                        marked.sort_unstable();
                        marked.dedup();
                        assert_eq!(marked.len(), n, "each flow once");
                        assert_eq!(marked, model.into_iter().collect::<Vec<_>>());
                    }
                    8 => {
                        if let Some(&(f, _)) = live.get(rand(live.len() as u64 + 1) as usize) {
                            dirty.mark_flow(f);
                            dirty_model.insert(f);
                        }
                    }
                    _ => {
                        let want: Vec<FlowId> =
                            std::mem::take(&mut dirty_model).into_iter().collect();
                        taken += want.len();
                        assert_eq!(dirty.take(), want);
                        assert!(!dirty.needs_realloc());
                    }
                }
                for p in &prefixes {
                    let got: BTreeSet<FlowId> = ix.affected_by(*p).collect();
                    let exact: Vec<FlowId> = ix
                        .by_prefix
                        .iter()
                        .filter(|(q, _)| q == p)
                        .flat_map(|(_, ids)| ids.iter().copied())
                        .collect();
                    let model = ix_model.get(p).cloned().unwrap_or_default();
                    assert_eq!(exact.len(), model.len(), "no id twice under {p:?}");
                    assert_eq!(exact.into_iter().collect::<BTreeSet<_>>(), model);
                    let reach: BTreeSet<FlowId> = ix_model
                        .iter()
                        .filter(|(q, _)| *q == p || p.contains(**q))
                        .flat_map(|(_, ids)| ids.iter().copied())
                        .collect();
                    assert_eq!(got, reach);
                }
            }
            let want: Vec<FlowId> = dirty_model.into_iter().collect();
            taken += want.len();
            assert_eq!(dirty.take(), want);
        }
        assert!(taken >= 20_000, "{taken} ids taken");
        assert!(swapped >= 1_000, "{swapped} removals moved another id");
        assert!(
            stale_marks >= 1_000,
            "{stale_marks} stopped flows still marked"
        );
        assert!(unknown >= 1_000, "{unknown} removals of unregistered ids");
    }
}
