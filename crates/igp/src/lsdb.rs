//! The link-state database.
//!
//! Every router (and the Fibbing controller) maintains an [`Lsdb`]: the
//! set of freshest LSA instances it has heard. Installation follows the
//! freshness rules of [`crate::lsa::compare_freshness`]; MaxAge
//! instances linger only long enough to be flooded, then the instance
//! removes them ([`Lsdb::max_age_keys`], [`Lsdb::remove`]). SPF reads the database directly: a full run the
//! dense real graph (`Lsdb::real_graph`), the route phase only the rows
//! it needs (`Lsdb::route_view`). [`Lsdb::to_topology`] materializes
//! the whole augmented [`Topology`] for other readers. All three apply
//! the two-way connectivity check to real links and trust fake-node
//! LSAs as complete descriptions of lies.

use crate::lsa::{compare_freshness, Freshness, Lsa, LsaBody, LsaHeader, LsaKey, LsaKind, LsaLink};
use crate::spf::RealGraph;
use crate::topology::{FakeAttrs, TopoLink, Topology};
use crate::types::{Metric, RouterId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Outcome of trying to install an LSA instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Install {
    /// The instance was new (no previous instance of this key).
    New,
    /// The instance replaced an older one.
    Updated,
    /// The exact same instance was already present.
    Duplicate,
    /// The database already holds a fresher instance.
    Stale,
    /// A MaxAge instance for an unknown key — nothing to purge, drop it.
    PurgeUnknown,
}

/// A monotonically increasing database version, bumped on every
/// content-changing installation. Consumers (SPF scheduling) compare
/// versions to know whether recomputation is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DbVersion(pub u64);

/// The link-state database.
///
/// Instances are stored behind [`Arc`] so the flooding machinery can
/// put the stored LSA on retransmit lists, and into the datagrams that
/// carry it to other instances' databases, without copying its body.
/// Sharing is safe because nothing mutates a stored LSA in place: a
/// change installs a new instance.
#[derive(Debug, Clone, Default)]
pub struct Lsdb {
    entries: BTreeMap<LsaKey, Arc<Lsa>>,
    /// Keys of the stored MaxAge instances: exactly
    /// `entries.values().filter(|l| l.is_max_age())`, kept in step by
    /// every mutation so purge sweeps never scan the live entries.
    max_age: BTreeSet<LsaKey>,
    version: u64,
    real_version: u64,
    lie_free_version: u64,
}

impl Lsdb {
    /// An empty database.
    pub fn new() -> Self {
        Lsdb::default()
    }

    /// Current content version.
    pub fn version(&self) -> DbVersion {
        DbVersion(self.version)
    }

    /// Version of the *real graph* only: bumped when a router LSA
    /// changes, untouched by lie (fake) and prefix churn. The SPF
    /// engine uses it to decide — in O(1), without reading the real
    /// graph — that a change cannot have moved any real node and a
    /// cheap partial run suffices ([`crate::spf::SpfEngine`]).
    pub fn real_version(&self) -> u64 {
        self.real_version
    }

    /// Version of everything but the lies: bumped when a router *or
    /// prefix* LSA changes or ages out, untouched by fake-node churn.
    /// [`to_topology`](Self::to_topology)`.without_fakes()` is a
    /// function of exactly that content, so whoever derives something
    /// from the lie-free topology — the Fibbing controller plans on it
    /// — can keep the result until this moves. [`real_version`]
    /// (router LSAs only) is not enough for that: the lie-free
    /// topology still says who announces which prefix at what metric.
    ///
    /// [`real_version`]: Self::real_version
    pub fn lie_free_version(&self) -> u64 {
        self.lie_free_version
    }

    /// One content change: to a router LSA (`router`), to anything
    /// other than lies (`lie_free`), or to lies only.
    fn bump_versions(&mut self, router: bool, lie_free: bool) {
        self.version += 1;
        self.real_version += u64::from(router);
        self.lie_free_version += u64::from(lie_free);
    }

    fn bump(&mut self, key: &LsaKey) {
        self.bump_versions(key.kind == LsaKind::Router, key.kind != LsaKind::Fake);
    }

    /// Number of stored LSAs (including MaxAge ones not yet swept).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the database holds no LSAs.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of stored MaxAge LSAs (purges not yet swept).
    pub fn max_age_count(&self) -> usize {
        self.max_age.len()
    }

    /// Keys of the stored MaxAge LSAs, in key order.
    pub fn max_age_keys(&self) -> impl Iterator<Item = LsaKey> + '_ {
        self.max_age.iter().copied()
    }

    /// Look up the stored instance for a key.
    pub fn get(&self, key: &LsaKey) -> Option<&Lsa> {
        self.entries.get(key).map(|l| &**l)
    }

    /// The stored instance for a key, as the `Arc` the database holds:
    /// what an instance sends, so the receiver stores the same one.
    pub fn get_shared(&self, key: &LsaKey) -> Option<&Arc<Lsa>> {
        self.entries.get(key)
    }

    /// `true` when `other` stores exactly the keys this database does,
    /// each at the same sequence number (ages aside): what every LSDB
    /// of a converged network agrees on.
    pub fn same_instances(&self, other: &Lsdb) -> bool {
        self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|((k, a), (l, b))| k == l && a.seq == b.seq)
    }

    /// Store `lsa`, keeping the MaxAge index in step.
    fn store(&mut self, lsa: Arc<Lsa>) {
        let key = lsa.key;
        if lsa.is_max_age() {
            self.max_age.insert(key);
        } else {
            self.max_age.remove(&key);
        }
        self.entries.insert(key, lsa);
        self.bump(&key);
    }

    /// Freshness of a candidate header against the stored instance.
    /// `Newer` if we have nothing stored.
    pub fn freshness_of(&self, hdr: &LsaHeader) -> Freshness {
        match self.entries.get(&hdr.key) {
            None => Freshness::Newer,
            Some(stored) => compare_freshness(hdr.seq, hdr.age, stored.seq, stored.age),
        }
    }

    /// Try to install an LSA instance, enforcing freshness rules.
    ///
    /// Content-changing outcomes bump the database version. Accepts an
    /// owned [`Lsa`] or an already shared `Arc<Lsa>`.
    pub fn install(&mut self, lsa: impl Into<Arc<Lsa>>) -> Install {
        let lsa: Arc<Lsa> = lsa.into();
        match self.entries.get(&lsa.key) {
            None => {
                if lsa.is_max_age() {
                    // Purge for something we never heard of: ack it but
                    // do not create state (RFC 2328 §13 step 5 nuance).
                    return Install::PurgeUnknown;
                }
                self.store(lsa);
                Install::New
            }
            Some(stored) => match lsa.freshness_vs(stored) {
                Freshness::Newer => {
                    self.store(lsa);
                    Install::Updated
                }
                Freshness::Same => Install::Duplicate,
                Freshness::Older => Install::Stale,
            },
        }
    }

    /// Remove one LSA by key regardless of age (used when the
    /// originator re-learns a self-originated LSA it no longer wants).
    pub fn remove(&mut self, key: &LsaKey) -> Option<Arc<Lsa>> {
        let removed = self.entries.remove(key);
        if removed.is_some() {
            self.max_age.remove(key);
            self.bump(key);
        }
        removed
    }

    /// Iterate over all stored LSAs in key order.
    pub fn iter(&self) -> impl Iterator<Item = &Lsa> {
        self.entries.values().map(|l| &**l)
    }

    /// Headers of all stored LSAs (for database description packets).
    pub fn headers(&self) -> Vec<LsaHeader> {
        self.entries.values().map(|l| l.header()).collect()
    }

    /// Materialize the augmented topology this database describes: the
    /// rows of its dense real graph, with the prefixes and lies laid
    /// over them.
    ///
    /// Real links pass the two-way check: a directed link `u → v`
    /// appears only if `v`'s router LSA also reports a link back to
    /// `u`. Fake-node LSAs are self-contained and exempt (that is the
    /// lie); their attachment link appears as long as the attachment
    /// router exists and the forwarding address is one of its
    /// neighbors. MaxAge LSAs are ignored.
    ///
    /// Built from scratch on every call, for readers that want the whole
    /// topology (the controller's view, the convergence oracle); an SPF
    /// run reads only the dense graph or the rows it needs.
    pub fn to_topology(&self) -> Topology {
        let graph = self.real_graph();
        let rows = graph.ids.iter().enumerate().map(|(i, &id)| {
            let row = graph.row(i).iter().map(|&(to, metric)| TopoLink {
                to: graph.ids[to],
                metric,
            });
            (id, row.collect())
        });
        self.overlay(Topology::from_sorted_rows(rows.collect()))
    }

    /// The real graph this database describes, in dense form: every
    /// real router with a live router LSA, and the links that pass the
    /// two-way check. What a full SPF run reads and runs Dijkstra on.
    pub(crate) fn real_graph(&self) -> RealGraph {
        let reports = Reports::of(self);
        let n = reports.ids.len();
        let mut off = Vec::with_capacity(n + 1);
        let mut edges = Vec::new();
        let mut row = Vec::new();
        off.push(0);
        for i in 0..n {
            reports.two_way_row(i, &mut row);
            edges.extend_from_slice(&row);
            off.push(edges.len());
        }
        RealGraph {
            ids: reports.ids,
            off,
            edges,
        }
    }

    /// What the route phase of an SPF run reads: the rows of the routers
    /// that announce a prefix or carry a lie, with the prefixes and lies
    /// laid over them as in [`to_topology`](Self::to_topology). The
    /// route phase on it equals the route phase on `to_topology()`,
    /// since each lie is judged against its attachment's row; a far end
    /// need not have a row, so it is no graph to run Dijkstra on.
    pub(crate) fn route_view(&self) -> Topology {
        let reports = Reports::of(self);
        let mut wanted: Vec<RouterId> = self
            .live()
            .filter_map(|lsa| match lsa.body {
                LsaBody::Prefix { .. } => Some(lsa.key.origin),
                LsaBody::Fake { attach, .. } => Some(attach),
                LsaBody::Router { .. } => None,
            })
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        let mut row = Vec::new();
        let rows = wanted.into_iter().filter_map(|r| {
            // Without a live router LSA, `r` is not in the topology.
            let i = reports.ids.binary_search(&r).ok()?;
            reports.two_way_row(i, &mut row);
            let links = row.iter().map(|&(far, metric)| TopoLink {
                to: reports.ids[far],
                metric,
            });
            Some((r, links.collect()))
        });
        self.overlay(Topology::from_sorted_rows(rows.collect()))
    }

    /// The stored LSAs that are not MaxAge, in key order.
    fn live(&self) -> impl Iterator<Item = &Lsa> {
        self.iter().filter(|lsa| !lsa.is_max_age())
    }

    /// `topo` with this database's prefixes and lies laid over it, each
    /// in key order. A prefix counts at a router with a row. A lie goes
    /// through [`Topology::add_fake_node`], which skips it if its
    /// attachment has no row or its forwarding address names no link of
    /// that row (an earlier lie's attachment link counts) — as a router
    /// ignores a type-5 LSA whose forwarding address is unreachable —
    /// and replaces an earlier lie of the same id.
    fn overlay(&self, mut topo: Topology) -> Topology {
        for lsa in self.live() {
            if let LsaBody::Prefix { prefix, metric } = &lsa.body {
                if topo.contains(lsa.key.origin) {
                    let _ = topo.announce_prefix(lsa.key.origin, *prefix, *metric);
                }
            }
        }
        for lsa in self.live() {
            if let LsaBody::Fake {
                attach,
                attach_metric,
                prefix,
                prefix_metric,
                fw,
            } = &lsa.body
            {
                let attrs = FakeAttrs {
                    attach: *attach,
                    attach_metric: *attach_metric,
                    prefix: *prefix,
                    prefix_metric: *prefix_metric,
                    fw: *fw,
                };
                let _ = topo.add_fake_node(lsa.key.origin, attrs);
            }
        }
        topo
    }
}

/// The live router LSAs of real routers, by router: what the two-way
/// check reads.
struct Reports<'a> {
    /// The routers that have one, ascending: the dense graph's ids.
    ids: Vec<RouterId>,
    /// Router i's LSAs are `lsas[firsts[i]..firsts[i + 1]]`, as
    /// (LSA id, links) in key order, so a live `(Router, 0)` LSA comes
    /// first.
    firsts: Vec<usize>,
    lsas: Vec<(u32, &'a [LsaLink])>,
}

impl<'a> Reports<'a> {
    fn of(db: &'a Lsdb) -> Reports<'a> {
        let (mut ids, mut firsts, mut lsas) = (Vec::new(), Vec::new(), Vec::new());
        for lsa in db.live() {
            let LsaBody::Router { links } = &lsa.body else {
                continue;
            };
            let origin = lsa.key.origin;
            if origin.is_fake() {
                continue;
            }
            if ids.last() != Some(&origin) {
                ids.push(origin);
                firsts.push(lsas.len());
            }
            lsas.push((lsa.key.id, links.as_slice()));
        }
        firsts.push(lsas.len());
        Reports { ids, firsts, lsas }
    }

    /// The two-way check for the router at position `i`: into `row`,
    /// each link of its LSAs whose far end's `(Router, 0)` LSA names it
    /// back, as (far end's position, metric), sorted by far end; of a
    /// far end reported twice the first counts.
    fn two_way_row(&self, i: usize, row: &mut Vec<(usize, Metric)>) {
        let from = self.ids[i];
        row.clear();
        for (_, links) in &self.lsas[self.firsts[i]..self.firsts[i + 1]] {
            row.extend(links.iter().filter_map(|l| {
                let far = self.ids.binary_search(&l.to).ok()?;
                let (id, back) = self.lsas[self.firsts[far]];
                let named = id == 0 && back.iter().any(|b| b.to == from);
                named.then_some((far, l.metric))
            }));
        }
        row.sort_by_key(|e| e.0); // stable
        row.dedup_by_key(|e| e.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsa::{LsaLink, MAX_AGE};
    use crate::spf::{route_table_from, shortest_paths};
    use crate::types::{FwAddr, Metric, Prefix, SeqNum};

    fn router_lsa(origin: u32, seq: i32, neighbors: &[(u32, u32)]) -> Lsa {
        Lsa::router(
            RouterId(origin),
            SeqNum(seq),
            neighbors
                .iter()
                .map(|&(to, m)| LsaLink {
                    to: RouterId(to),
                    metric: Metric(m),
                })
                .collect(),
        )
    }

    #[test]
    fn install_follows_freshness() {
        let mut db = Lsdb::new();
        let v0 = db.version();
        assert_eq!(db.install(router_lsa(1, 1, &[])), Install::New);
        assert!(db.version() > v0);
        assert_eq!(db.install(router_lsa(1, 1, &[])), Install::Duplicate);
        assert_eq!(db.install(router_lsa(1, 2, &[(2, 1)])), Install::Updated);
        assert_eq!(db.install(router_lsa(1, 1, &[])), Install::Stale);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn purge_for_unknown_key_creates_no_state() {
        let mut db = Lsdb::new();
        let mut l = router_lsa(9, 4, &[]);
        l.age = MAX_AGE;
        assert_eq!(db.install(l), Install::PurgeUnknown);
        assert!(db.is_empty());
    }

    #[test]
    fn lie_free_version_follows_everything_but_lies() {
        let mut db = Lsdb::new();
        let p = Prefix::net24(7);
        let versions = |db: &Lsdb| (db.version().0, db.real_version(), db.lie_free_version());
        db.install(router_lsa(1, 1, &[(2, 1)]));
        db.install(router_lsa(2, 1, &[(1, 1)]));
        assert_eq!(versions(&db), (2, 2, 2));
        // A prefix announcement changes the lie-free topology but no
        // router LSA.
        db.install(Lsa::prefix(RouterId(2), 0, SeqNum(1), p, Metric(0)));
        assert_eq!(versions(&db), (3, 2, 3));
        let without_lie = db.to_topology();
        // A lie and its purge touch neither.
        let lie = Lsa::fake(
            RouterId::fake(0),
            SeqNum(1),
            RouterId(1),
            Metric(1),
            p,
            Metric(1),
            FwAddr::secondary(RouterId(2), 1),
        );
        db.install(lie.clone());
        assert_eq!(versions(&db), (4, 2, 3));
        assert_eq!(
            db.to_topology().without_fakes().all_announcements().count(),
            without_lie.all_announcements().count()
        );
        db.install(lie.to_purge());
        assert_eq!(versions(&db), (5, 2, 3));
        // The prefix withdrawn moves it again, still without a router
        // LSA changing.
        let prefix_key = LsaKey {
            origin: RouterId(2),
            kind: LsaKind::Prefix,
            id: 0,
        };
        let withdrawn = db.get(&prefix_key).unwrap().to_purge();
        db.install(withdrawn);
        assert_eq!(versions(&db), (6, 2, 4));
    }

    #[test]
    fn topology_applies_two_way_check() {
        let mut db = Lsdb::new();
        db.install(router_lsa(1, 1, &[(2, 10), (3, 5)]));
        db.install(router_lsa(2, 1, &[(1, 10)]));
        // Router 3 exists but does not report the link back to 1.
        db.install(router_lsa(3, 1, &[]));
        let topo = db.to_topology();
        assert!(topo.has_link(RouterId(1), RouterId(2)));
        assert!(topo.has_link(RouterId(2), RouterId(1)));
        assert!(!topo.has_link(RouterId(1), RouterId(3)));
    }

    #[test]
    fn topology_includes_prefixes_and_fakes() {
        let mut db = Lsdb::new();
        db.install(router_lsa(1, 1, &[(2, 1)]));
        db.install(router_lsa(2, 1, &[(1, 1)]));
        let p = Prefix::net24(7);
        db.install(Lsa::prefix(RouterId(2), 0, SeqNum(1), p, Metric(0)));
        db.install(Lsa::fake(
            RouterId::fake(0),
            SeqNum(1),
            RouterId(1),
            Metric(1),
            p,
            Metric(1),
            FwAddr::secondary(RouterId(2), 1),
        ));
        let topo = db.to_topology();
        assert_eq!(topo.prefixes_at(RouterId(2)), &[(p, Metric(0))]);
        assert_eq!(topo.fake_count(), 1);
        let (fid, attrs) = topo.fake_nodes().next().unwrap();
        assert_eq!(fid, RouterId::fake(0));
        assert_eq!(attrs.fw, FwAddr::secondary(RouterId(2), 1));
        topo.validate().unwrap();
    }

    #[test]
    fn invalid_fake_lsa_is_ignored_in_topology() {
        let mut db = Lsdb::new();
        db.install(router_lsa(1, 1, &[(2, 1)]));
        db.install(router_lsa(2, 1, &[(1, 1)]));
        // Forwarding address r9 is not a neighbor of the attachment.
        db.install(Lsa::fake(
            RouterId::fake(0),
            SeqNum(1),
            RouterId(1),
            Metric(1),
            Prefix::net24(7),
            Metric(1),
            FwAddr::primary(RouterId(9)),
        ));
        let topo = db.to_topology();
        assert_eq!(topo.fake_count(), 0);
    }

    #[test]
    fn max_age_lsas_do_not_contribute_to_topology() {
        let mut db = Lsdb::new();
        db.install(router_lsa(1, 1, &[(2, 1)]));
        db.install(router_lsa(2, 1, &[(1, 1)]));
        let key = LsaKey {
            origin: RouterId(2),
            kind: LsaKind::Router,
            id: 0,
        };
        let purge = db.get(&key).unwrap().to_purge();
        db.install(purge);
        let topo = db.to_topology();
        assert!(!topo.contains(RouterId(2)));
        assert!(!topo.has_link(RouterId(1), RouterId(2)));
    }

    /// `to_topology` as it stood before it was rewritten to build the
    /// real graph in one pass: one map operation per router, per link
    /// and per reverse-link lookup. Kept as the oracle of
    /// `to_topology_matches_the_four_pass_reference`.
    fn to_topology_reference(db: &Lsdb) -> Topology {
        let mut topo = Topology::new();
        // Pass 1: create all real routers that have a live router LSA.
        for lsa in db.entries.values() {
            if lsa.is_max_age() {
                continue;
            }
            if let LsaBody::Router { .. } = &lsa.body {
                if lsa.key.origin.is_real() {
                    topo.add_router(lsa.key.origin);
                }
            }
        }
        // Pass 2: two-way-checked links.
        let reports = |from: RouterId, to: RouterId| -> Option<crate::types::Metric> {
            let key = LsaKey {
                origin: from,
                kind: LsaKind::Router,
                id: 0,
            };
            let lsa = db.entries.get(&key)?;
            if lsa.is_max_age() {
                return None;
            }
            if let LsaBody::Router { links } = &lsa.body {
                links.iter().find(|l| l.to == to).map(|l| l.metric)
            } else {
                None
            }
        };
        for lsa in db.entries.values() {
            if lsa.is_max_age() {
                continue;
            }
            let LsaBody::Router { links } = &lsa.body else {
                continue;
            };
            let from = lsa.key.origin;
            if from.is_fake() {
                continue;
            }
            for l in links {
                if !topo.contains(l.to) {
                    continue;
                }
                if reports(l.to, from).is_some() {
                    // Two-way check passed; duplicates impossible since
                    // router LSAs are unique per origin.
                    let _ = topo.add_link(from, l.to, l.metric);
                }
            }
        }
        // Pass 3: prefix announcements on live routers.
        for lsa in db.entries.values() {
            if lsa.is_max_age() {
                continue;
            }
            if let LsaBody::Prefix { prefix, metric } = &lsa.body {
                if topo.contains(lsa.key.origin) {
                    let _ = topo.announce_prefix(lsa.key.origin, *prefix, *metric);
                }
            }
        }
        // Pass 4: fake nodes (lies). Invalid lies (dangling attachment
        // or forwarding address) are skipped, mirroring how a router
        // ignores a type-5 LSA whose forwarding address is unreachable.
        for lsa in db.entries.values() {
            if lsa.is_max_age() {
                continue;
            }
            if let LsaBody::Fake {
                attach,
                attach_metric,
                prefix,
                prefix_metric,
                fw,
            } = &lsa.body
            {
                let attrs = FakeAttrs {
                    attach: *attach,
                    attach_metric: *attach_metric,
                    prefix: *prefix,
                    prefix_metric: *prefix_metric,
                    fw: *fw,
                };
                let _ = topo.add_fake_node(lsa.key.origin, attrs);
            }
        }
        topo
    }

    /// Seeded random databases with everything `to_topology` has to
    /// decide about: one-way links, purged routers, links to routers
    /// that have no LSA, a far end listed twice, a second router LSA
    /// under another id, a router LSA from the fake range, two prefix
    /// LSAs for one prefix, lies with a dangling attachment or a
    /// forwarding address that is no neighbour. Each database's dense
    /// graph must equal the dense graph of its topology, the Dijkstra on
    /// it `shortest_paths` on the topology from every router, and the
    /// route phase on `route_view` the route phase on the topology.
    #[test]
    fn to_topology_matches_the_four_pass_reference() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut rand = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) % n
        };
        let metric = |r: u64| Metric(1 + r as u32);
        let (mut links_kept, mut lies_kept, mut lies_planned) = (0, 0, 0);
        let (mut tables, mut routes) = (0, 0);
        for _ in 0..3000 {
            let pool = 2 + rand(9) as u32; // routers 1..=pool may speak
            let mut adj: Vec<Vec<LsaLink>> = vec![Vec::new(); pool as usize + 1];
            for a in 1..=pool {
                for b in a..=pool + 1 {
                    if rand(3) != 0 {
                        continue;
                    }
                    // Usually both ways, each with its own metric; `b`
                    // may be `a` itself or a router that never speaks.
                    for (from, to) in [(a, b), (b, a)] {
                        if from <= pool && rand(8) != 0 {
                            adj[from as usize].push(LsaLink {
                                to: RouterId(to),
                                metric: metric(rand(20)),
                            });
                        }
                    }
                }
            }
            let mut db = Lsdb::new();
            let install = |db: &mut Lsdb, lsa: Lsa, purge: bool| {
                db.install(lsa.clone());
                if purge {
                    db.install(lsa.to_purge());
                }
            };
            for r in 1..=pool {
                let links = &mut adj[r as usize];
                if !links.is_empty() && rand(4) == 0 {
                    // The same far end again, at another metric and
                    // anywhere in the list: the first one counts.
                    let again = LsaLink {
                        to: links[rand(links.len() as u64) as usize].to,
                        metric: metric(20 + rand(20)),
                    };
                    links.insert(rand(links.len() as u64 + 1) as usize, again);
                }
                for i in (1..links.len()).rev() {
                    links.swap(i, rand(i as u64 + 1) as usize);
                }
                if rand(10) == 0 {
                    continue; // never heard of
                }
                let lsa = Lsa::router(RouterId(r), SeqNum(1), links.clone());
                if rand(12) == 0 {
                    let mut second = lsa.clone();
                    second.key.id = 1;
                    install(&mut db, second, false);
                }
                install(&mut db, lsa, rand(8) == 0);
            }
            if rand(6) == 0 {
                let links = adj[1].clone();
                install(
                    &mut db,
                    Lsa::router(RouterId::fake(9), SeqNum(1), links),
                    false,
                );
            }
            for id in 0..rand(5) as u32 {
                let p = Prefix::net24(rand(3) as u8);
                let origin = RouterId(1 + rand(u64::from(pool) + 1) as u32);
                let lsa = Lsa::prefix(origin, id, SeqNum(1), p, metric(rand(4)));
                install(&mut db, lsa, rand(8) == 0);
            }
            for k in 0..rand(4) as u32 {
                let at = 1 + rand(u64::from(pool) + 1) as usize;
                let attach = match rand(10) {
                    0 => RouterId::fake(0),
                    _ => RouterId(at as u32),
                };
                // Mostly a far end the attachment reports, else anyone.
                let fw = match adj.get(at).filter(|l| !l.is_empty()) {
                    Some(l) if rand(4) != 0 => l[rand(l.len() as u64) as usize].to,
                    _ => RouterId(1 + rand(u64::from(pool) + 1) as u32),
                };
                let lie = Lsa::fake(
                    RouterId::fake(k),
                    SeqNum(1),
                    attach,
                    metric(rand(3)),
                    Prefix::net24(rand(3) as u8),
                    metric(rand(3)),
                    FwAddr::secondary(fw, 1 + rand(3) as u16),
                );
                install(&mut db, lie, rand(8) == 0);
                lies_planned += 1;
            }
            let topo = db.to_topology();
            assert_eq!(topo, to_topology_reference(&db), "{db:?}");
            links_kept += topo.all_links().count();
            lies_kept += topo.fake_count();
            // What an SPF run reads instead: the dense graph, the one
            // Dijkstra on it, and the route phase on the lie-only rows.
            let graph = db.real_graph();
            assert_eq!(graph, RealGraph::of(&topo), "{db:?}");
            let view = db.route_view();
            for r in topo.routers() {
                let sp = graph.shortest_paths(r);
                assert_eq!(sp, shortest_paths(&topo, r), "from {r} on {db:?}");
                let table = route_table_from(&topo, &sp);
                assert_eq!(route_table_from(&view, &sp), table, "{r} on {db:?}");
                tables += 1;
                routes += table.routes.len();
            }
        }
        // The generator reaches both sides of every decision.
        assert!(links_kept > 10_000, "only {links_kept} links kept");
        assert!(
            lies_kept > 500 && lies_planned - lies_kept > 500,
            "{lies_kept} of {lies_planned} lies kept"
        );
        assert!(
            tables > 14_000 && routes > 12_000,
            "only {routes} routes in {tables} tables"
        );
    }

    mod max_age_index {
        use super::*;
        use proptest::prelude::*;

        /// `Install` puts in an instance of key `k`, MaxAge if `purge`
        /// (so a purge of an unknown key, MaxAge replacing MaxAge and a
        /// live instance replacing a purge all occur).
        #[derive(Debug, Clone)]
        enum Op {
            Install { k: u32, seq: i32, purge: bool },
            Remove { k: u32 },
            Sweep,
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u32..6, 1i32..8, any::<bool>()).prop_map(|(k, seq, purge)| Op::Install {
                    k,
                    seq,
                    purge
                }),
                (0u32..6, 1i32..8, any::<bool>()).prop_map(|(k, seq, purge)| Op::Install {
                    k,
                    seq,
                    purge
                }),
                (0u32..8).prop_map(|k| Op::Remove { k }),
                Just(Op::Sweep),
            ]
        }

        /// Keys 0..3 are router LSAs, 3..6 prefix LSAs of router 9.
        fn lsa_of(k: u32, seq: i32, purge: bool) -> Lsa {
            let mut l = if k < 3 {
                router_lsa(k + 1, seq, &[])
            } else {
                Lsa::prefix(
                    RouterId(9),
                    k,
                    SeqNum(seq),
                    Prefix::net24(k as u8),
                    Metric(0),
                )
            };
            if purge {
                l.age = MAX_AGE;
            }
            l
        }

        proptest! {
            #[test]
            fn count_and_keys_match_a_scan(ops in proptest::collection::vec(arb_op(), 0..60)) {
                let mut db = Lsdb::new();
                for op in ops {
                    match op {
                        Op::Install { k, seq, purge } => {
                            db.install(lsa_of(k, seq, purge));
                        }
                        Op::Remove { k } => {
                            db.remove(&lsa_of(k, 1, false).key);
                        }
                        Op::Sweep => {
                            // As an instance sweeps.
                            let dead: Vec<LsaKey> = db.max_age_keys().collect();
                            for k in dead {
                                let removed = db.remove(&k);
                                prop_assert!(removed.is_some_and(|l| l.is_max_age()));
                            }
                        }
                    }
                    let scanned: Vec<LsaKey> =
                        db.iter().filter(|l| l.is_max_age()).map(|l| l.key).collect();
                    prop_assert_eq!(db.max_age_count(), scanned.len());
                    prop_assert_eq!(db.max_age_keys().collect::<Vec<_>>(), scanned);
                }
            }
        }
    }
}
