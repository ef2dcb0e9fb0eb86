//! The one MIB object the controller reads: the `ifOutOctets` column.
//!
//! The Fibbing controller of the demo monitors link loads over SNMP,
//! polling each router's interface counters (`ifOutOctets`) at a fixed
//! interval. An agent per router serves that column and nothing else:
//! one octet counter per interface, under the standard ifTable OID
//! `ifOutOctets.<ifIndex>`.
//!
//! An agent keeps its counters in one dense vector: ifIndex `i` (which
//! starts at 1, RFC 2863) lives in slot `i − 1`, and an ifIndex no
//! interface has is an empty slot. The data plane accounts every
//! transmitted byte through [`Agent::out_octets_mut`], an index.
//!
//! [`Agent::walk`] answers as iterated GETNEXT does on an agent that
//! serves one column: a walk of the column, or of any OID above it,
//! returns the column's rows in ifIndex order, and a walk of anything
//! else returns nothing. The tests hold it to the materialise-and-sort
//! view of the same rows.

use crate::counters::Counter;
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
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.0.iter().map(|p| p.to_string()).collect();
        write!(f, ".{}", parts.join("."))
    }
}

/// `ifOutOctets`: .1.3.6.1.2.1.2.2.1.16, column 16 of `ifEntry`. A
/// cell is `ifOutOctets.<ifIndex>`.
const IF_OUT_OCTETS: [u32; 10] = [1, 3, 6, 1, 2, 1, 2, 2, 1, 16];

/// Well-known OIDs.
pub mod oids {
    use super::{Oid, IF_OUT_OCTETS};

    /// `ifOutOctets` column: .1.3.6.1.2.1.2.2.1.16
    pub fn if_out_octets() -> Oid {
        Oid::new(&IF_OUT_OCTETS)
    }
}

/// The slot of `ifindex`, `None` for ifIndex 0 (no interface has it).
fn slot_of(ifindex: u32) -> Option<usize> {
    (ifindex as usize).checked_sub(1)
}

/// An SNMP agent: one per router, serving its interfaces'
/// `ifOutOctets`.
#[derive(Debug, Clone, Default)]
pub struct Agent {
    /// The counter of ifIndex `i` in slot `i − 1`; `None` where no
    /// interface has that ifIndex.
    out_octets: Vec<Option<Counter>>,
}

impl Agent {
    /// Register an interface (ifIndex) with its counter, replacing any
    /// the ifIndex had. The agent holds a slot for every ifIndex up to
    /// the largest registered, so issue them densely from 1.
    ///
    /// # Panics
    /// Panics on ifIndex 0: ifIndex starts at 1 (RFC 2863).
    pub fn add_iface(&mut self, ifindex: u32, out_octets: Counter) {
        let slot = slot_of(ifindex).expect("ifIndex starts at 1 (RFC 2863): add_iface(0, ..)");
        if slot >= self.out_octets.len() {
            self.out_octets.resize_with(slot + 1, || None);
        }
        self.out_octets[slot] = Some(out_octets);
    }

    /// Mutable access to an interface's `ifOutOctets` (the data plane
    /// calls this to account transmitted bytes).
    pub fn out_octets_mut(&mut self, ifindex: u32) -> Option<&mut Counter> {
        self.out_octets.get_mut(slot_of(ifindex)?)?.as_mut()
    }

    /// SNMP WALK: every object under `prefix`, in order — what iterating
    /// GETNEXT from `prefix` until it leaves the subtree yields. That is
    /// every row of `ifOutOctets` when `prefix` is the column or above
    /// it, and nothing otherwise (an exact leaf has nothing under it).
    pub fn walk(&self, prefix: &Oid) -> Vec<(Oid, u64)> {
        if !IF_OUT_OCTETS.starts_with(&prefix.0) {
            return Vec::new();
        }
        let column = oids::if_out_octets();
        self.out_octets
            .iter()
            .zip(1..)
            .filter_map(|(c, ifindex)| Some((column.child(ifindex), c.as_ref()?.read())))
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

    fn counter(octets: u64) -> Counter {
        let mut c = Counter::new(CounterWidth::C64);
        c.add(octets);
        c
    }

    fn agent() -> Agent {
        let mut a = Agent::default();
        a.add_iface(1, counter(1000));
        a.add_iface(2, counter(0));
        a
    }

    #[test]
    fn oid_display() {
        let o = oids::if_out_octets().child(3);
        assert_eq!(o.to_string(), ".1.3.6.1.2.1.2.2.1.16.3");
    }

    #[test]
    fn walk_covers_the_column_and_nothing_beside_it() {
        let a = agent();
        let column = oids::if_out_octets();
        let rows = vec![(column.child(1), 1000), (column.child(2), 0)];
        assert_eq!(a.walk(&column), rows);
        // The ifTable above the column holds only the column.
        assert_eq!(a.walk(&Oid::new(&[1, 3, 6, 1, 2, 1, 2])), rows);
        // An exact leaf, and `sysName.0` beside the column, hold nothing.
        assert!(a.walk(&column.child(1)).is_empty());
        assert!(a.walk(&Oid::new(&[1, 3, 6, 1, 2, 1, 1, 5, 0])).is_empty());
    }

    #[test]
    fn counters_update_through_agent() {
        let mut a = agent();
        a.out_octets_mut(2).unwrap().add(77);
        assert_eq!(a.walk(&oids::if_out_octets())[1].1, 77);
    }

    #[test]
    #[should_panic(expected = "ifIndex starts at 1")]
    fn add_iface_rejects_ifindex_zero() {
        Agent::default().add_iface(0, counter(0));
    }

    #[test]
    fn ifindex_zero_names_no_interface() {
        let mut a = agent();
        assert!(a.out_octets_mut(0).is_none());
        assert!(a.walk(&oids::if_out_octets().child(0)).is_empty());
    }

    /// The agent as it was first served, kept as the reference: the
    /// interfaces in an ordered map, each counter beside the unwrapped
    /// total the test added to it, and every walk answered from the
    /// full view, materialised and sorted.
    struct Reference {
        ifaces: BTreeMap<u32, (Counter, u128)>,
    }

    impl Reference {
        fn view(&self) -> Vec<(Oid, u64)> {
            let mut v: Vec<(Oid, u64)> = self
                .ifaces
                .iter()
                .map(|(&idx, (c, _))| (oids::if_out_octets().child(idx), c.read()))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        }

        fn walk(&self, prefix: &Oid) -> Vec<(Oid, u64)> {
            let mut view = self.view();
            view.retain(|(oid, _)| oid > prefix && oid.0.starts_with(&prefix.0));
            view
        }
    }

    /// An agent and its reference, built by the same seeded script:
    /// ifIndexes out of order, with gaps and repeats (a repeat replaces
    /// the row), both counter widths, and traffic that takes the C32
    /// counters past a wrap.
    fn seeded_pair(seed: u64) -> (Agent, Reference) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut agent = Agent::default();
        let mut reference = Reference {
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
            let (mut c, mut total) = (Counter::new(width), 0u128);
            for _ in 0..rng.gen_range(0..4) {
                let bytes = rng.gen_range(0..1u64 << 33);
                c.add(bytes);
                total += u128::from(bytes);
            }
            agent.add_iface(idx, c);
            reference.ifaces.insert(idx, (c, total));
        }
        // Traffic after registration, through `out_octets_mut`.
        for _ in 0..rng.gen_range(0..24) {
            let idx = rng.gen_range(0..=top + 1);
            let bytes = rng.gen_range(0..1u64 << 32);
            if let Some(c) = agent.out_octets_mut(idx) {
                c.add(bytes);
            }
            if let Some((c, total)) = reference.ifaces.get_mut(&idx) {
                c.add(bytes);
                *total += u128::from(bytes);
            }
        }
        (agent, reference)
    }

    /// Every OID the differential walks on one agent: each row's, one
    /// sub-identifier shorter and longer, and just before and after
    /// it; the column, every OID above it, the other ifTable columns
    /// beside it and `sysName.0`; ifIndex 0 and one past the last; and
    /// prefixes before, between and after everything the agent serves.
    fn queries(reference: &Reference) -> Vec<Oid> {
        let last = reference.ifaces.keys().next_back().copied().unwrap_or(0);
        let column = oids::if_out_octets();
        let if_entry = Oid::new(&IF_OUT_OCTETS[..9]);
        let mut out: Vec<Oid> = (0..=IF_OUT_OCTETS.len())
            .map(|len| Oid::new(&IF_OUT_OCTETS[..len]))
            .collect();
        out.extend([
            Oid::new(&[0]),
            Oid::new(&[1, 3, 6, 1, 2, 1, 1, 5, 0]),
            Oid::new(&[1, 3, 6, 1, 4]),
            Oid::new(&[2]),
            Oid::new(&[u32::MAX]),
            column.child(0),
            column.child(last + 1),
            column.child(5),
        ]);
        for sub in [0, 1, 10, 11, 15, 17, u32::MAX] {
            out.push(if_entry.child(sub));
            out.push(if_entry.child(sub).child(1));
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
        let (mut rows, mut wrapped) = (0, 0);
        for seed in 0..150 {
            let (mut agent, reference) = seeded_pair(seed);
            for oid in queries(&reference) {
                assert_eq!(
                    agent.walk(&oid),
                    reference.walk(&oid),
                    "seed {seed}: walk {oid}"
                );
            }
            for idx in 0..=reference.ifaces.keys().max().map_or(1, |&k| k + 1) {
                let a = agent.out_octets_mut(idx).map(|c| c.read());
                let r = reference.ifaces.get(&idx);
                assert_eq!(a, r.map(|(c, _)| c.read()), "seed {seed}: ifIndex {idx}");
            }
            rows += reference.ifaces.len();
            wrapped += reference
                .ifaces
                .values()
                .filter(|(c, total)| *total != u128::from(c.read()))
                .count();
        }
        assert!(rows >= 500, "{rows} rows");
        assert!(wrapped >= 100, "{wrapped} wrapped C32 rows");
    }
}
