//! A minimal MIB: OIDs, the ifTable subset, and GET/GETNEXT/WALK.
//!
//! The Fibbing controller of the demo monitors link loads over SNMP.
//! We model the part of SNMP that matters for that loop: an agent per
//! router exposing interface counters under the standard ifTable OIDs,
//! with exact GET and lexicographic GETNEXT semantics (WALK = what
//! iterated GETNEXT under a prefix returns).

use crate::counters::IfaceCounters;
use std::collections::BTreeMap;
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
        let mut v = self.0.clone();
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

/// Well-known OIDs (the ifTable columns we expose).
pub mod oids {
    use super::Oid;

    /// `ifIndex` column: .1.3.6.1.2.1.2.2.1.1
    pub fn if_index() -> Oid {
        Oid::new(&[1, 3, 6, 1, 2, 1, 2, 2, 1, 1])
    }
    /// `ifInOctets` column: .1.3.6.1.2.1.2.2.1.10
    pub fn if_in_octets() -> Oid {
        Oid::new(&[1, 3, 6, 1, 2, 1, 2, 2, 1, 10])
    }
    /// `ifOutOctets` column: .1.3.6.1.2.1.2.2.1.16
    pub fn if_out_octets() -> Oid {
        Oid::new(&[1, 3, 6, 1, 2, 1, 2, 2, 1, 16])
    }
    /// `ifInUcastPkts` column: .1.3.6.1.2.1.2.2.1.11
    pub fn if_in_pkts() -> Oid {
        Oid::new(&[1, 3, 6, 1, 2, 1, 2, 2, 1, 11])
    }
    /// `ifOutUcastPkts` column: .1.3.6.1.2.1.2.2.1.17
    pub fn if_out_pkts() -> Oid {
        Oid::new(&[1, 3, 6, 1, 2, 1, 2, 2, 1, 17])
    }
    /// `sysName`: .1.3.6.1.2.1.1.5.0
    pub fn sys_name() -> Oid {
        Oid::new(&[1, 3, 6, 1, 2, 1, 1, 5, 0])
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

/// An SNMP agent: one per router, exposing its interfaces' counters.
#[derive(Debug, Clone)]
pub struct Agent {
    /// Agent system name (diagnostics).
    pub sys_name: String,
    ifaces: BTreeMap<u32, IfaceCounters>,
}

impl Agent {
    /// An agent with no interfaces yet.
    pub fn new(sys_name: impl Into<String>) -> Agent {
        Agent {
            sys_name: sys_name.into(),
            ifaces: BTreeMap::new(),
        }
    }

    /// Register an interface (ifIndex) with its counters.
    pub fn add_iface(&mut self, ifindex: u32, counters: IfaceCounters) {
        self.ifaces.insert(ifindex, counters);
    }

    /// Mutable access to an interface's counters (the data plane calls
    /// this to account traffic).
    pub fn counters_mut(&mut self, ifindex: u32) -> Option<&mut IfaceCounters> {
        self.ifaces.get_mut(&ifindex)
    }

    /// Immutable access to counters.
    pub fn counters(&self, ifindex: u32) -> Option<&IfaceCounters> {
        self.ifaces.get(&ifindex)
    }

    /// The agent's full sorted view (materialized for GETNEXT).
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

    /// SNMP GET: exact-match lookup.
    pub fn get(&self, oid: &Oid) -> Option<Value> {
        self.view()
            .into_iter()
            .find(|(o, _)| o == oid)
            .map(|(_, v)| v)
    }

    /// SNMP GETNEXT: first object strictly after `oid` in
    /// lexicographic order.
    pub fn get_next(&self, oid: &Oid) -> Option<(Oid, Value)> {
        self.view().into_iter().find(|(o, _)| o > oid)
    }

    /// SNMP WALK: every object under `prefix`, in order — what iterating
    /// GETNEXT from `prefix` until it leaves the subtree yields (so an
    /// exact leaf has nothing under it), from one view.
    pub fn walk(&self, prefix: &Oid) -> Vec<(Oid, Value)> {
        let mut view = self.view();
        view.retain(|(oid, _)| oid > prefix && prefix.is_prefix_of(oid));
        view
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterWidth;

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
}
