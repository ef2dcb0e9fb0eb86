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
//!   the set of flows whose cached path must be re-resolved, plus a
//!   flag that the allocation must be revisited at all (capacity and
//!   cap changes move rates without moving paths).
//!
//! Invalidation triggers (who marks what) live in `sim.rs`; the
//! correctness contract — a flow not marked dirty resolves to exactly
//! the path it is caching — is proptested against a full recompute in
//! `tests/incremental_prop.rs`.

use crate::flow::FlowId;
use fib_igp::types::Prefix;
use std::collections::{BTreeMap, BTreeSet};

/// Reverse index from destination prefix to the flows targeting it.
#[derive(Debug, Default)]
pub struct FlowIndex {
    by_prefix: BTreeMap<Prefix, BTreeSet<FlowId>>,
}

impl FlowIndex {
    /// An empty index.
    pub fn new() -> FlowIndex {
        FlowIndex::default()
    }

    /// Register a flow under its destination prefix.
    pub fn insert(&mut self, dst: Prefix, id: FlowId) {
        self.by_prefix.entry(dst).or_default().insert(id);
    }

    /// Remove a flow (no-op if absent).
    pub fn remove(&mut self, dst: Prefix, id: FlowId) {
        if let Some(set) = self.by_prefix.get_mut(&dst) {
            set.remove(&id);
            if set.is_empty() {
                self.by_prefix.remove(&dst);
            }
        }
    }

    /// Flows whose destination lookup can be altered by a FIB entry
    /// change for `changed`: their dst equals it or lies under it
    /// (longest-prefix match consults exactly the containing entries).
    pub fn affected_by(&self, changed: Prefix) -> impl Iterator<Item = FlowId> + '_ {
        self.by_prefix
            .iter()
            .filter(move |(dst, _)| **dst == changed || changed.contains(**dst))
            .flat_map(|(_, ids)| ids.iter().copied())
    }
}

/// The invalidations accumulated since the last reallocation.
#[derive(Debug, Default)]
pub struct DirtySet {
    /// Flows whose cached path must be re-resolved.
    paths: BTreeSet<FlowId>,
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
        self.paths.insert(id);
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

    /// Take the stale-flow set and reset the whole dirty state.
    pub fn take(&mut self) -> BTreeSet<FlowId> {
        self.realloc = false;
        std::mem::take(&mut self.paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        d.mark_flow(id(4));
        d.mark_flow(id(5));
        assert!(d.needs_realloc());
        let taken = d.take();
        assert_eq!(taken.into_iter().collect::<Vec<_>>(), vec![id(4), id(5)]);
        assert!(!d.needs_realloc());
    }
}
