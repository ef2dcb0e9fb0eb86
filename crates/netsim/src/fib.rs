//! Data-plane forwarding tables and path resolution.
//!
//! A [`Fib`] is the downloaded form of an IGP route table: per prefix,
//! either local delivery or a vector of ECMP slots (forwarding
//! addresses). [`resolve_path`] walks a flow hop-by-hop through the
//! network's FIBs exactly as packets would be forwarded, hashing at
//! every router — including the *address-level* slot granularity that
//! realises Fibbing's uneven splits.

use crate::ecmp::{slot_for, FlowKey};
use crate::link::LinkKey;
use fib_igp::rib::{Route, RouteTable};
use fib_igp::types::{FwAddr, Prefix, RouterId};
use std::collections::BTreeMap;
use std::fmt;

/// One prefix's forwarding entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FibEntry {
    /// Deliver locally (the prefix is attached here).
    Local,
    /// Forward via one of these ECMP slots.
    Via(Vec<FwAddr>),
}

/// A router's forwarding table.
#[derive(Debug, Clone, Default)]
pub struct Fib {
    entries: BTreeMap<Prefix, FibEntry>,
}

impl Fib {
    /// An empty FIB.
    pub fn new() -> Fib {
        Fib::default()
    }

    /// Download a route table (replaces all entries).
    pub fn install(&mut self, table: &RouteTable) {
        let _ = self.install_diff(table);
    }

    /// Download a route table and report which prefixes' entries
    /// actually changed (added, removed, or rewritten), ascending — the
    /// invalidation feed for the simulator's dirty-set recompute: only
    /// flows destined to a changed prefix can be rerouted by this
    /// download. One merge walk of the installed entries against the
    /// table finds them; only they are written, and only their next
    /// hops are copied.
    pub fn install_diff(&mut self, table: &RouteTable) -> Vec<Prefix> {
        let mut changed: Vec<Prefix> = Vec::new();
        let mut old = self.entries.iter().peekable();
        for (p, route) in &table.routes {
            while let Some((gone, _)) = old.next_if(|(q, _)| *q < p) {
                changed.push(*gone);
            }
            let now = old.next_if(|(q, _)| *q == p).map(|(_, e)| e);
            if !downloads_as(route, now) {
                changed.push(*p);
            }
        }
        changed.extend(old.map(|(gone, _)| *gone));
        for p in &changed {
            match table.routes.get(p) {
                Some(route) if route.local => self.entries.insert(*p, FibEntry::Local),
                Some(route) if !route.nexthops.is_empty() => {
                    let hops = FibEntry::Via(route.nexthops.clone());
                    self.entries.insert(*p, hops)
                }
                _ => self.entries.remove(p),
            };
        }
        changed
    }

    /// Longest-prefix-match lookup (exact container since prefixes are
    /// disjoint in our experiments, but LPM is honoured).
    pub fn lookup(&self, dst: Prefix) -> Option<&FibEntry> {
        // Exact match first.
        if let Some(e) = self.entries.get(&dst) {
            return Some(e);
        }
        // Longest containing prefix.
        self.entries
            .iter()
            .filter(|(p, _)| p.contains(dst))
            .max_by_key(|(p, _)| p.len())
            .map(|(_, e)| e)
    }

    /// Number of prefixes installed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries.
    pub fn iter(&self) -> impl Iterator<Item = (&Prefix, &FibEntry)> {
        self.entries.iter()
    }
}

/// Does `route` download as `entry`? A route that is neither local nor
/// has a next hop downloads as no entry.
fn downloads_as(route: &Route, entry: Option<&FibEntry>) -> bool {
    match entry {
        Some(FibEntry::Local) => route.local,
        Some(FibEntry::Via(hops)) => !route.local && *hops == route.nexthops,
        None => !route.local && route.nexthops.is_empty(),
    }
}

/// Why a flow could not be routed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// A router on the way had no route for the destination.
    NoRoute(RouterId),
    /// Forwarding revisited a router (transient micro-loop).
    Loop(RouterId),
    /// The hop budget was exceeded.
    TooLong,
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::NoRoute(r) => write!(f, "no route at {r}"),
            PathError::Loop(r) => write!(f, "forwarding loop at {r}"),
            PathError::TooLong => write!(f, "path exceeds hop budget"),
        }
    }
}

impl std::error::Error for PathError {}

/// Maximum hops before a path is declared too long (TTL stand-in).
pub const MAX_HOPS: usize = 64;

/// Resolve the sequence of directed links a flow traverses, hashing at
/// each router over its FIB's ECMP slots.
pub fn resolve_path(
    fibs: &BTreeMap<RouterId, Fib>,
    flow: &FlowKey,
) -> Result<Vec<LinkKey>, PathError> {
    let mut path: Vec<LinkKey> = Vec::new();
    let mut cur = flow.src;
    loop {
        let fib = fibs.get(&cur).ok_or(PathError::NoRoute(cur))?;
        match fib.lookup(flow.dst) {
            None => return Err(PathError::NoRoute(cur)),
            Some(FibEntry::Local) => return Ok(path),
            Some(FibEntry::Via(slots)) => {
                let slot = slot_for(cur, flow, slots.len());
                let nh = slots[slot].router;
                // The routers visited are the source and every link's
                // far end so far.
                if nh == flow.src || path.iter().any(|l| l.to == nh) {
                    return Err(PathError::Loop(nh));
                }
                path.push(LinkKey::new(cur, nh));
                cur = nh;
                if path.len() > MAX_HOPS {
                    return Err(PathError::TooLong);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fib_igp::rib::Route;
    use fib_igp::types::Metric;

    fn r(n: u32) -> RouterId {
        RouterId(n)
    }

    fn fib_via(entries: &[(Prefix, &[FwAddr])]) -> Fib {
        let mut f = Fib::new();
        for (p, hops) in entries {
            f.entries.insert(*p, FibEntry::Via(hops.to_vec()));
        }
        f
    }

    fn fib_local(p: Prefix) -> Fib {
        let mut f = Fib::new();
        f.entries.insert(p, FibEntry::Local);
        f
    }

    #[test]
    fn install_from_route_table() {
        let mut table = RouteTable::empty(r(1));
        table.routes.insert(
            Prefix::net24(1),
            Route {
                dist: Metric(2),
                nexthops: vec![FwAddr::primary(r(2))],
                local: false,
            },
        );
        table.routes.insert(
            Prefix::net24(2),
            Route {
                dist: Metric(0),
                nexthops: vec![],
                local: true,
            },
        );
        let mut fib = Fib::new();
        fib.install(&table);
        assert_eq!(fib.len(), 2);
        assert_eq!(fib.lookup(Prefix::net24(2)), Some(&FibEntry::Local));
        assert!(matches!(
            fib.lookup(Prefix::net24(1)),
            Some(FibEntry::Via(v)) if v.len() == 1
        ));
    }

    #[test]
    fn install_diff_reports_exact_changes() {
        let route = |to: u32| Route {
            dist: Metric(1),
            nexthops: vec![FwAddr::primary(r(to))],
            local: false,
        };
        let mut t1 = RouteTable::empty(r(1));
        t1.routes.insert(Prefix::net24(1), route(2));
        t1.routes.insert(Prefix::net24(2), route(3));
        let mut fib = Fib::new();
        // First install: everything is new.
        assert_eq!(
            fib.install_diff(&t1),
            vec![Prefix::net24(1), Prefix::net24(2)]
        );
        // Identical re-install: nothing changed.
        assert!(fib.install_diff(&t1).is_empty());
        // One rewrite, one removal, one addition.
        let mut t2 = RouteTable::empty(r(1));
        t2.routes.insert(Prefix::net24(1), route(9));
        t2.routes.insert(Prefix::net24(3), route(3));
        assert_eq!(
            fib.install_diff(&t2),
            vec![Prefix::net24(1), Prefix::net24(2), Prefix::net24(3)]
        );
        // A route losing all next-hops (and not local) is a removal.
        let mut t3 = t2.clone();
        t3.routes
            .get_mut(&Prefix::net24(3))
            .unwrap()
            .nexthops
            .clear();
        assert_eq!(fib.install_diff(&t3), vec![Prefix::net24(3)]);
        assert_eq!(fib.len(), 1);
    }

    /// The merge walk against a rebuild: 2 000 seeded sequences of up to
    /// 16 downloads, each a few edits away from the last (a route
    /// appears, vanishes, turns local, loses every next hop, or gets
    /// other ones, over nested prefixes). After each download the FIB
    /// holds what a table built afresh from the route table holds, and
    /// the changed list is, ascending, every prefix whose entry differs
    /// between the previous build and this one.
    #[test]
    fn install_diff_matches_a_rebuild() {
        let mut x = 0x51AF_D7ED_558C_CD1Du64;
        let mut rand = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) % n
        };
        let prefixes = [
            Prefix::new(0x0A00_0000, 8),
            Prefix::new(0x0A01_0000, 16),
            Prefix::net24(1),
            Prefix::net24(2),
            Prefix::net24(3),
            Prefix::new(0x0B00_0100, 24),
        ];
        let (mut same, mut changes) = (0, 0);
        for _ in 0..2000 {
            let mut fib = Fib::new();
            let mut table = RouteTable::empty(r(1));
            let mut built: BTreeMap<Prefix, FibEntry> = BTreeMap::new();
            for _ in 0..1 + rand(16) {
                for _ in 0..rand(4) {
                    let p = prefixes[rand(6) as usize];
                    if rand(4) == 0 {
                        table.routes.remove(&p);
                        continue;
                    }
                    let mut nexthops: Vec<FwAddr> = (2..5)
                        .filter(|_| rand(3) == 0)
                        .map(|n| FwAddr::primary(r(n)))
                        .collect();
                    if rand(3) == 0 {
                        nexthops.push(FwAddr::secondary(r(2), 1));
                    }
                    let local = rand(6) == 0;
                    if local {
                        nexthops.clear();
                    }
                    let dist = Metric(u32::from(!local));
                    table.routes.insert(
                        p,
                        Route {
                            dist,
                            nexthops,
                            local,
                        },
                    );
                }
                let mut rebuilt = BTreeMap::new();
                for (p, route) in &table.routes {
                    if route.local {
                        rebuilt.insert(*p, FibEntry::Local);
                    } else if !route.nexthops.is_empty() {
                        rebuilt.insert(*p, FibEntry::Via(route.nexthops.clone()));
                    }
                }
                let mut want: Vec<Prefix> = built
                    .keys()
                    .chain(rebuilt.keys())
                    .filter(|p| built.get(*p) != rebuilt.get(*p))
                    .copied()
                    .collect();
                want.sort();
                want.dedup();
                let got = fib.install_diff(&table);
                assert_eq!(got, want);
                assert_eq!(fib.entries, rebuilt);
                same += usize::from(got.is_empty());
                changes += got.len();
                built = rebuilt;
            }
        }
        assert!(same >= 2_000, "{same} downloads changed nothing");
        assert!(changes >= 10_000, "{changes} entries changed");
    }

    #[test]
    fn lookup_uses_longest_prefix() {
        let wide = Prefix::new(0x0A00_0000, 8);
        let narrow = Prefix::net24(1);
        let mut f = Fib::new();
        f.entries
            .insert(wide, FibEntry::Via(vec![FwAddr::primary(r(9))]));
        f.entries
            .insert(narrow, FibEntry::Via(vec![FwAddr::primary(r(2))]));
        match f.lookup(Prefix::net24(1)) {
            Some(FibEntry::Via(v)) => assert_eq!(v[0].router, r(2)),
            other => panic!("unexpected {other:?}"),
        }
        // An address under the wide prefix but not the narrow one.
        match f.lookup(Prefix::new(0x0A05_0000, 24)) {
            Some(FibEntry::Via(v)) => assert_eq!(v[0].router, r(9)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn path_resolution_follows_fibs() {
        let p = Prefix::net24(1);
        let mut fibs = BTreeMap::new();
        fibs.insert(r(1), fib_via(&[(p, &[FwAddr::primary(r(2))])]));
        fibs.insert(r(2), fib_via(&[(p, &[FwAddr::primary(r(3))])]));
        fibs.insert(r(3), fib_local(p));
        let flow = FlowKey {
            src: r(1),
            dst: p,
            id: 1,
        };
        let path = resolve_path(&fibs, &flow).unwrap();
        assert_eq!(
            path,
            vec![LinkKey::new(r(1), r(2)), LinkKey::new(r(2), r(3))]
        );
    }

    #[test]
    fn missing_route_is_reported() {
        let p = Prefix::net24(1);
        let mut fibs = BTreeMap::new();
        fibs.insert(r(1), fib_via(&[(p, &[FwAddr::primary(r(2))])]));
        fibs.insert(r(2), Fib::new());
        let flow = FlowKey {
            src: r(1),
            dst: p,
            id: 1,
        };
        assert_eq!(resolve_path(&fibs, &flow), Err(PathError::NoRoute(r(2))));
    }

    #[test]
    fn loops_are_detected() {
        let p = Prefix::net24(1);
        let mut fibs = BTreeMap::new();
        fibs.insert(r(1), fib_via(&[(p, &[FwAddr::primary(r(2))])]));
        fibs.insert(r(2), fib_via(&[(p, &[FwAddr::primary(r(1))])]));
        let flow = FlowKey {
            src: r(1),
            dst: p,
            id: 1,
        };
        assert_eq!(resolve_path(&fibs, &flow), Err(PathError::Loop(r(1))));
    }

    #[test]
    fn ecmp_slots_split_flows() {
        // r1 has 3 slots: [r2, r3#1, r3#2] → r3 should receive roughly
        // two thirds of many flows.
        let p = Prefix::net24(1);
        let mut fibs = BTreeMap::new();
        fibs.insert(
            r(1),
            fib_via(&[(
                p,
                &[
                    FwAddr::primary(r(2)),
                    FwAddr::secondary(r(3), 1),
                    FwAddr::secondary(r(3), 2),
                ][..],
            )]),
        );
        fibs.insert(r(2), fib_local(p));
        fibs.insert(r(3), fib_local(p));
        let mut via3 = 0;
        let n = 3000;
        for id in 0..n {
            let flow = FlowKey {
                src: r(1),
                dst: p,
                id,
            };
            let path = resolve_path(&fibs, &flow).unwrap();
            if path[0].to == r(3) {
                via3 += 1;
            }
        }
        let frac = via3 as f64 / n as f64;
        assert!(
            (frac - 2.0 / 3.0).abs() < 0.05,
            "expected ~2/3 via r3, got {frac}"
        );
    }
}
