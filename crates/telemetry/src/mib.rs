//! A minimal MIB: OIDs, the ifTable subset, and GET/GETNEXT/WALK.
//!
//! The Fibbing controller of the demo monitors link loads over SNMP.
//! We model the part of SNMP that matters for that loop: an agent per
//! router exposing interface counters under the standard ifTable OIDs,
//! with exact GET and lexicographic GETNEXT semantics (WALK = what
//! iterated GETNEXT under a prefix returns).
//!
//! An agent keeps its interfaces in one dense vector: ifIndex `i`
//! (which starts at 1, RFC 2863) lives in slot `i − 1`, and an ifIndex
//! no interface has is an empty slot. Each operation costs what it
//! reads, not the whole agent:
//!
//! * [`Agent::counters`] and [`Agent::counters_mut`] are an index (the
//!   data plane accounts every packet and every integrated link through
//!   them);
//! * [`Agent::get`] parses `(column, ifIndex)` out of the OID and reads
//!   that one cell;
//! * [`Agent::walk`] of one ifTable column (`ifEntry.<column>`, the
//!   controller's `ifOutOctets` poll) reads the column in ifIndex order;
//! * [`Agent::get_next`] and walks of any other prefix go over the
//!   objects lazily in OID order — `sysName.0`, then the ifTable column
//!   by column (1, 10, 11, 16, 17), each in ifIndex order — comparing
//!   each object's OID on the stack.
//!
//! Nothing is sorted, and only the OIDs an answer returns are built.
//! The tests hold all three to the materialise-and-sort view the agent
//! was first served from.

use crate::counters::IfaceCounters;
use std::fmt;

/// An SNMP object identifier (sequence of sub-identifiers).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Oid(pub Vec<u32>);

impl Oid {
    /// Build from a slice.
    pub fn new(parts: &[u32]) -> Oid {
        Oid(parts.to_vec())
    }

    /// This OID with one more sub-identifier appended.
    pub fn child(&self, sub: u32) -> Oid {
        let mut v = Vec::with_capacity(self.0.len() + 1);
        v.extend_from_slice(&self.0);
        v.push(sub);
        Oid(v)
    }

    /// `true` if `self` is a prefix of `other`.
    pub fn is_prefix_of(&self, other: &Oid) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.0.iter().map(|p| p.to_string()).collect();
        write!(f, ".{}", parts.join("."))
    }
}

/// `ifEntry`: .1.3.6.1.2.1.2.2.1. A column is `ifEntry.<column>`, a
/// cell `ifEntry.<column>.<ifIndex>`.
const IF_ENTRY: [u32; 9] = [1, 3, 6, 1, 2, 1, 2, 2, 1];
/// `sysName.0`, which sorts before the whole ifTable.
const SYS_NAME: [u32; 9] = [1, 3, 6, 1, 2, 1, 1, 5, 0];
/// The length of a cell's OID, the longest an agent serves.
const CELL_LEN: usize = IF_ENTRY.len() + 2;

/// Well-known OIDs (the ifTable columns we expose).
pub mod oids {
    use super::{Column, Oid, SYS_NAME};

    /// `ifIndex` column: .1.3.6.1.2.1.2.2.1.1
    pub fn if_index() -> Oid {
        Column::Index.oid()
    }
    /// `ifInOctets` column: .1.3.6.1.2.1.2.2.1.10
    pub fn if_in_octets() -> Oid {
        Column::InOctets.oid()
    }
    /// `ifOutOctets` column: .1.3.6.1.2.1.2.2.1.16
    pub fn if_out_octets() -> Oid {
        Column::OutOctets.oid()
    }
    /// `ifInUcastPkts` column: .1.3.6.1.2.1.2.2.1.11
    pub fn if_in_pkts() -> Oid {
        Column::InPkts.oid()
    }
    /// `ifOutUcastPkts` column: .1.3.6.1.2.1.2.2.1.17
    pub fn if_out_pkts() -> Oid {
        Column::OutPkts.oid()
    }
    /// `sysName`: .1.3.6.1.2.1.1.5.0
    pub fn sys_name() -> Oid {
        Oid::new(&SYS_NAME)
    }
}

/// A value bound to an OID.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A counter object.
    Counter(u64),
    /// An integer object.
    Int(i64),
    /// An octet-string object.
    Str(String),
}

/// The ifTable columns an agent serves; each discriminant is the
/// column's sub-identifier under `ifEntry`.
#[derive(Clone, Copy)]
enum Column {
    Index = 1,
    InOctets = 10,
    InPkts = 11,
    OutOctets = 16,
    OutPkts = 17,
}

impl Column {
    /// Every column, in OID order.
    const ALL: [Column; 5] = [
        Column::Index,
        Column::InOctets,
        Column::InPkts,
        Column::OutOctets,
        Column::OutPkts,
    ];

    /// The column whose sub-identifier under `ifEntry` is `sub`.
    fn parse(sub: u32) -> Option<Column> {
        Column::ALL.into_iter().find(|&c| c as u32 == sub)
    }

    fn oid(self) -> Oid {
        Oid::new(&IF_ENTRY).child(self as u32)
    }

    /// The cell of this column in the row of `ifindex`.
    fn read(self, ifindex: u32, c: &IfaceCounters) -> Value {
        match self {
            Column::Index => Value::Int(i64::from(ifindex)),
            Column::InOctets => Value::Counter(c.in_octets.read()),
            Column::InPkts => Value::Counter(c.in_pkts.read()),
            Column::OutOctets => Value::Counter(c.out_octets.read()),
            Column::OutPkts => Value::Counter(c.out_pkts.read()),
        }
    }
}

/// One object an agent serves: `sysName.0`, or one ifTable cell.
enum Object<'a> {
    SysName,
    Cell {
        column: Column,
        ifindex: u32,
        counters: &'a IfaceCounters,
    },
}

impl Object<'_> {
    /// The object's OID on the stack, and how many sub-identifiers of
    /// it are used.
    fn path(&self) -> ([u32; CELL_LEN], usize) {
        let mut sub = [0; CELL_LEN];
        match *self {
            Object::SysName => {
                sub[..SYS_NAME.len()].copy_from_slice(&SYS_NAME);
                (sub, SYS_NAME.len())
            }
            Object::Cell {
                column, ifindex, ..
            } => {
                sub[..IF_ENTRY.len()].copy_from_slice(&IF_ENTRY);
                sub[IF_ENTRY.len()] = column as u32;
                sub[IF_ENTRY.len() + 1] = ifindex;
                (sub, CELL_LEN)
            }
        }
    }
}

/// The slot of `ifindex`, `None` for ifIndex 0 (no interface has it).
fn slot_of(ifindex: u32) -> Option<usize> {
    (ifindex as usize).checked_sub(1)
}

/// An SNMP agent: one per router, exposing its interfaces' counters.
#[derive(Debug, Clone)]
pub struct Agent {
    /// Agent system name (diagnostics).
    pub sys_name: String,
    /// The interface of ifIndex `i` in slot `i − 1`; `None` where no
    /// interface has that ifIndex.
    ifaces: Vec<Option<IfaceCounters>>,
}

impl Agent {
    /// An agent with no interfaces yet.
    pub fn new(sys_name: impl Into<String>) -> Agent {
        Agent {
            sys_name: sys_name.into(),
            ifaces: Vec::new(),
        }
    }

    /// Register an interface (ifIndex) with its counters, replacing any
    /// the ifIndex had. The agent holds a slot for every ifIndex up to
    /// the largest registered, so issue them densely from 1.
    ///
    /// # Panics
    /// Panics on ifIndex 0: ifIndex starts at 1 (RFC 2863).
    pub fn add_iface(&mut self, ifindex: u32, counters: IfaceCounters) {
        let slot = slot_of(ifindex).expect("ifIndex starts at 1 (RFC 2863): add_iface(0, ..)");
        if slot >= self.ifaces.len() {
            self.ifaces.resize_with(slot + 1, || None);
        }
        self.ifaces[slot] = Some(counters);
    }

    /// Mutable access to an interface's counters (the data plane calls
    /// this to account traffic).
    pub fn counters_mut(&mut self, ifindex: u32) -> Option<&mut IfaceCounters> {
        self.ifaces.get_mut(slot_of(ifindex)?)?.as_mut()
    }

    /// Immutable access to counters.
    pub fn counters(&self, ifindex: u32) -> Option<&IfaceCounters> {
        self.ifaces.get(slot_of(ifindex)?)?.as_ref()
    }

    /// Every registered interface, in ifIndex order.
    fn rows(&self) -> impl Iterator<Item = (u32, &IfaceCounters)> {
        self.ifaces
            .iter()
            .zip(1..)
            .filter_map(|(c, ifindex)| Some((ifindex, c.as_ref()?)))
    }

    /// Every object, in OID order: `sysName.0`, then the ifTable column
    /// by column, each in ifIndex order.
    fn objects(&self) -> impl Iterator<Item = Object<'_>> {
        let cells = Column::ALL.into_iter().flat_map(move |column| {
            self.rows().map(move |(ifindex, counters)| Object::Cell {
                column,
                ifindex,
                counters,
            })
        });
        std::iter::once(Object::SysName).chain(cells)
    }

    /// An object's OID and value.
    fn binding(&self, object: Object<'_>) -> (Oid, Value) {
        let (sub, len) = object.path();
        let value = match object {
            Object::SysName => Value::Str(self.sys_name.clone()),
            Object::Cell {
                column,
                ifindex,
                counters,
            } => column.read(ifindex, counters),
        };
        (Oid::new(&sub[..len]), value)
    }

    /// SNMP GET: exact-match lookup.
    pub fn get(&self, oid: &Oid) -> Option<Value> {
        if oid.0 == SYS_NAME {
            return Some(Value::Str(self.sys_name.clone()));
        }
        let &[column, ifindex] = oid.0.strip_prefix(&IF_ENTRY[..])? else {
            return None;
        };
        let column = Column::parse(column)?;
        Some(column.read(ifindex, self.counters(ifindex)?))
    }

    /// SNMP GETNEXT: first object strictly after `oid` in
    /// lexicographic order.
    pub fn get_next(&self, oid: &Oid) -> Option<(Oid, Value)> {
        self.objects()
            .find(|object| {
                let (sub, len) = object.path();
                sub[..len] > oid.0[..]
            })
            .map(|object| self.binding(object))
    }

    /// SNMP WALK: every object under `prefix`, in order — what iterating
    /// GETNEXT from `prefix` until it leaves the subtree yields (so an
    /// exact leaf has nothing under it).
    pub fn walk(&self, prefix: &Oid) -> Vec<(Oid, Value)> {
        let column = match prefix.0.strip_prefix(&IF_ENTRY[..]) {
            Some(&[sub]) => Column::parse(sub),
            _ => None,
        };
        if let Some(column) = column {
            return self
                .rows()
                .map(|(ifindex, c)| (prefix.child(ifindex), column.read(ifindex, c)))
                .collect();
        }
        self.objects()
            .filter(|object| {
                let (sub, len) = object.path();
                len > prefix.0.len() && sub[..len].starts_with(&prefix.0)
            })
            .map(|object| self.binding(object))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterWidth;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn agent() -> Agent {
        let mut a = Agent::new("r1");
        let mut c0 = IfaceCounters::new(CounterWidth::C64);
        c0.count_tx(1000);
        c0.count_rx(500);
        a.add_iface(1, c0);
        a.add_iface(2, IfaceCounters::new(CounterWidth::C64));
        a
    }

    #[test]
    fn oid_display_and_prefix() {
        let o = oids::if_in_octets().child(3);
        assert_eq!(o.to_string(), ".1.3.6.1.2.1.2.2.1.10.3");
        assert!(oids::if_in_octets().is_prefix_of(&o));
        assert!(!o.is_prefix_of(&oids::if_in_octets()));
    }

    #[test]
    fn get_exact() {
        let a = agent();
        assert_eq!(
            a.get(&oids::if_out_octets().child(1)),
            Some(Value::Counter(1000))
        );
        assert_eq!(a.get(&oids::sys_name()), Some(Value::Str("r1".to_string())));
        assert_eq!(a.get(&oids::if_out_octets().child(9)), None);
    }

    #[test]
    fn get_next_is_lexicographic() {
        let a = agent();
        let (oid, _) = a.get_next(&oids::if_in_octets()).unwrap();
        assert_eq!(oid, oids::if_in_octets().child(1));
        let (oid2, _) = a.get_next(&oid).unwrap();
        assert_eq!(oid2, oids::if_in_octets().child(2));
    }

    #[test]
    fn walk_covers_column() {
        let a = agent();
        let col = a.walk(&oids::if_out_octets());
        assert_eq!(col.len(), 2);
        assert_eq!(col[0].1, Value::Counter(1000));
        assert_eq!(col[1].1, Value::Counter(0));
        // Walking an exact leaf yields nothing below it.
        assert!(a.walk(&oids::sys_name()).is_empty());
    }

    #[test]
    fn walk_equals_iterated_get_next() {
        let mut a = Agent::new("r7");
        for idx in 1..=12 {
            let mut c = IfaceCounters::new(CounterWidth::C64);
            c.count_tx(100 * u64::from(idx));
            a.add_iface(idx, c);
        }
        let by_get_next = |prefix: &Oid| {
            let mut out = Vec::new();
            let mut cur = prefix.clone();
            while let Some((oid, val)) = a.get_next(&cur) {
                if !prefix.is_prefix_of(&oid) {
                    break;
                }
                cur = oid.clone();
                out.push((oid, val));
            }
            out
        };
        let if_table = Oid::new(&[1, 3, 6, 1, 2, 1, 2, 2, 1]);
        for (prefix, len) in [
            (oids::if_out_octets(), 12),
            (if_table, 60),
            (oids::if_out_octets().child(5), 0), // an exact leaf
            (oids::sys_name(), 0),
            (Oid::new(&[1, 3, 6, 1, 4]), 0), // nothing lies under it
        ] {
            let walked = a.walk(&prefix);
            assert_eq!(walked.len(), len, "{prefix}");
            assert_eq!(walked, by_get_next(&prefix), "{prefix}");
        }
    }

    #[test]
    fn counters_update_through_agent() {
        let mut a = agent();
        a.counters_mut(2).unwrap().count_tx(77);
        assert_eq!(
            a.get(&oids::if_out_octets().child(2)),
            Some(Value::Counter(77))
        );
    }

    #[test]
    #[should_panic(expected = "ifIndex starts at 1")]
    fn add_iface_rejects_ifindex_zero() {
        Agent::new("r1").add_iface(0, IfaceCounters::new(CounterWidth::C64));
    }

    #[test]
    fn ifindex_zero_names_no_interface() {
        let mut a = agent();
        assert!(a.counters(0).is_none());
        assert!(a.counters_mut(0).is_none());
        for column in Column::ALL {
            assert_eq!(a.get(&column.oid().child(0)), None, "{}", column.oid());
        }
    }

    /// The agent as it was first served, kept as the reference: the
    /// interfaces in an ordered map, and every query answered from the
    /// full view, materialised and sorted.
    struct Reference {
        sys_name: String,
        ifaces: BTreeMap<u32, IfaceCounters>,
    }

    impl Reference {
        fn view(&self) -> Vec<(Oid, Value)> {
            let mut v: Vec<(Oid, Value)> = Vec::with_capacity(self.ifaces.len() * 5 + 1);
            v.push((oids::sys_name(), Value::Str(self.sys_name.clone())));
            for (&idx, c) in &self.ifaces {
                v.push((oids::if_index().child(idx), Value::Int(i64::from(idx))));
                v.push((
                    oids::if_in_octets().child(idx),
                    Value::Counter(c.in_octets.read()),
                ));
                v.push((
                    oids::if_in_pkts().child(idx),
                    Value::Counter(c.in_pkts.read()),
                ));
                v.push((
                    oids::if_out_octets().child(idx),
                    Value::Counter(c.out_octets.read()),
                ));
                v.push((
                    oids::if_out_pkts().child(idx),
                    Value::Counter(c.out_pkts.read()),
                ));
            }
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        }

        fn get(&self, oid: &Oid) -> Option<Value> {
            self.view()
                .into_iter()
                .find(|(o, _)| o == oid)
                .map(|(_, v)| v)
        }

        fn get_next(&self, oid: &Oid) -> Option<(Oid, Value)> {
            self.view().into_iter().find(|(o, _)| o > oid)
        }

        fn walk(&self, prefix: &Oid) -> Vec<(Oid, Value)> {
            let mut view = self.view();
            view.retain(|(oid, _)| oid > prefix && prefix.is_prefix_of(oid));
            view
        }
    }

    /// An agent and its reference, built by the same seeded script:
    /// ifIndexes out of order, with gaps and repeats (a repeat replaces
    /// the row), both counter widths, and traffic that takes the C32
    /// counters past a wrap.
    fn seeded_pair(seed: u64) -> (Agent, Reference) {
        let mut rng = StdRng::seed_from_u64(seed);
        let name = format!("r{seed}");
        let mut agent = Agent::new(name.clone());
        let mut reference = Reference {
            sys_name: name,
            ifaces: BTreeMap::new(),
        };
        let top = rng.gen_range(1..=16u32);
        for _ in 0..rng.gen_range(0..=12) {
            let idx = rng.gen_range(1..=top);
            let width = if rng.gen_bool(0.5) {
                CounterWidth::C32
            } else {
                CounterWidth::C64
            };
            let mut c = IfaceCounters::new(width);
            for _ in 0..rng.gen_range(0..4) {
                c.count_tx(rng.gen_range(0..1u64 << 33));
                c.count_rx(rng.gen_range(0..1u64 << 33));
            }
            agent.add_iface(idx, c.clone());
            reference.ifaces.insert(idx, c);
        }
        // Traffic after registration, through `counters_mut`.
        for _ in 0..rng.gen_range(0..24) {
            let idx = rng.gen_range(0..=top + 1);
            let bytes = rng.gen_range(0..1u64 << 32);
            if let Some(c) = agent.counters_mut(idx) {
                c.count_tx(bytes);
                c.in_octets.add(bytes);
            }
            if let Some(c) = reference.ifaces.get_mut(&idx) {
                c.count_tx(bytes);
                c.in_octets.add(bytes);
            }
        }
        (agent, reference)
    }

    /// Every OID the differential queries on one agent: each object's,
    /// one sub-identifier shorter and longer, and just before and after
    /// it; every column, the ifTable root, `sysName` and an exact leaf;
    /// ifIndex 0 and one past the last; and prefixes before, between
    /// and after everything the agent serves.
    fn queries(reference: &Reference) -> Vec<Oid> {
        let last = reference.ifaces.keys().next_back().copied().unwrap_or(0);
        let mut out = vec![
            Oid::new(&[]),
            Oid::new(&[0]),
            Oid::new(&[1]),
            Oid::new(&[1, 3, 6, 1, 2, 1]),
            Oid::new(&[1, 3, 6, 1, 2, 1, 1]),
            Oid::new(&[1, 3, 6, 1, 2, 1, 1, 5]),
            Oid::new(&[1, 3, 6, 1, 2, 1, 2]),
            Oid::new(&[1, 3, 6, 1, 2, 1, 2, 2]),
            Oid::new(&IF_ENTRY),
            Oid::new(&IF_ENTRY).child(0),
            Oid::new(&IF_ENTRY).child(12),
            Oid::new(&IF_ENTRY).child(18),
            Oid::new(&IF_ENTRY).child(u32::MAX),
            Oid::new(&[1, 3, 6, 1, 4]),
            Oid::new(&[2]),
            Oid::new(&[u32::MAX]),
            oids::sys_name(),
            oids::if_out_octets().child(5),
        ];
        for column in Column::ALL {
            out.push(column.oid());
            out.push(column.oid().child(0));
            out.push(column.oid().child(last + 1));
        }
        for (oid, _) in reference.view() {
            let mut shorter = oid.clone();
            shorter.0.pop();
            let mut before = oid.clone();
            let mut after = oid.clone();
            let tail = *oid.0.last().unwrap();
            *before.0.last_mut().unwrap() = tail.wrapping_sub(1);
            *after.0.last_mut().unwrap() = tail.wrapping_add(1);
            out.extend([shorter, oid.child(0), oid.child(7), before, after, oid]);
        }
        out
    }

    #[test]
    fn agent_answers_as_the_sorted_view_does() {
        for seed in 0..150 {
            let (agent, reference) = seeded_pair(seed);
            for oid in queries(&reference) {
                assert_eq!(
                    agent.get(&oid),
                    reference.get(&oid),
                    "seed {seed}: get {oid}"
                );
                assert_eq!(
                    agent.get_next(&oid),
                    reference.get_next(&oid),
                    "seed {seed}: get_next {oid}"
                );
                assert_eq!(
                    agent.walk(&oid),
                    reference.walk(&oid),
                    "seed {seed}: walk {oid}"
                );
            }
            for idx in 0..=reference.ifaces.keys().max().map_or(1, |&k| k + 1) {
                let (a, r) = (agent.counters(idx), reference.ifaces.get(&idx));
                assert_eq!(a.map(|c| c.to_string()), r.map(|c| c.to_string()));
            }
        }
    }
}
