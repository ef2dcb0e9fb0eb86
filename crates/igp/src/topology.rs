//! The (possibly augmented) weighted topology graph.
//!
//! A [`Topology`] is the shared view every router computes shortest paths
//! on. It contains:
//!
//! * **real routers** connected by directed weighted links (the IGP view
//!   derived from router LSAs after the two-way connectivity check),
//! * **prefix attachments**: `(router, prefix, metric)` leaf edges, and
//! * **fake nodes** injected by a Fibbing controller: each fake node
//!   hangs off one real router via a directed real→fake link, announces
//!   exactly one prefix, and carries a forwarding address that the
//!   attachment router's FIB resolves the fake next-hop to.
//!
//! Fake nodes have no outgoing links into the real graph, so they can
//! never attract transit traffic for other destinations — matching the
//! semantics of OSPF type-5 lies used by the original Fibbing
//! implementation.

use crate::error::TopologyError;
use crate::types::{FwAddr, Metric, Prefix, RouterId};
use std::collections::BTreeMap;

/// A directed link in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopoLink {
    /// Far endpoint.
    pub to: RouterId,
    /// Link metric in the `from → to` direction.
    pub metric: Metric,
}

/// Attributes carried by a fake node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FakeAttrs {
    /// The real router the fake node is attached to.
    pub attach: RouterId,
    /// Metric of the (directed) `attach → fake` link.
    pub attach_metric: Metric,
    /// The single prefix the fake node announces.
    pub prefix: Prefix,
    /// Metric of the announcement at the fake node.
    pub prefix_metric: Metric,
    /// Forwarding address the attachment router resolves this fake
    /// next-hop to. Must denote a physical neighbor of `attach`.
    pub fw: FwAddr,
}

impl FakeAttrs {
    /// Total cost of the prefix as seen from the attachment router when
    /// going through this fake node.
    pub fn cost_at_attach(&self) -> Metric {
        self.attach_metric.add(self.prefix_metric)
    }
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Node {
    links: Vec<TopoLink>,
    prefixes: Vec<(Prefix, Metric)>,
    fake: Option<FakeAttrs>,
}

/// The shared weighted graph (real + fake parts).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Topology {
    nodes: BTreeMap<RouterId, Node>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// The real graph in one go: `rows` in ascending router order, each
    /// row's links sorted by far end, one per far end, every far end a
    /// router of `rows` — what `add_link` checks and sorts per link.
    pub(crate) fn from_sorted_rows(rows: Vec<(RouterId, Vec<TopoLink>)>) -> Topology {
        debug_assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        let node = |links| Node {
            links,
            ..Node::default()
        };
        Topology {
            nodes: rows
                .into_iter()
                .map(|(id, links)| (id, node(links)))
                .collect(),
        }
    }

    /// Add a real router. Idempotent.
    pub fn add_router(&mut self, id: RouterId) {
        assert!(id.is_real(), "use add_fake_node for fake nodes");
        self.nodes.entry(id).or_default();
    }

    /// `true` if the node exists (real or fake).
    pub fn contains(&self, id: RouterId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// Number of real routers.
    pub fn router_count(&self) -> usize {
        self.nodes.keys().filter(|r| r.is_real()).count()
    }

    /// Number of fake nodes.
    pub fn fake_count(&self) -> usize {
        self.nodes.keys().filter(|r| r.is_fake()).count()
    }

    /// Iterate over all node ids in ascending order (real before fake,
    /// since fake ids live in the top half of the id space).
    pub fn nodes(&self) -> impl Iterator<Item = RouterId> + '_ {
        self.nodes.keys().copied()
    }

    /// Iterate over real router ids in ascending order.
    pub fn routers(&self) -> impl Iterator<Item = RouterId> + '_ {
        self.nodes.keys().copied().filter(|r| r.is_real())
    }

    /// Iterate over fake node ids with their attributes.
    pub fn fake_nodes(&self) -> impl Iterator<Item = (RouterId, &FakeAttrs)> + '_ {
        self.nodes
            .iter()
            .filter_map(|(id, n)| n.fake.as_ref().map(|f| (*id, f)))
    }

    /// Add a directed link between two existing real routers.
    pub fn add_link(
        &mut self,
        from: RouterId,
        to: RouterId,
        metric: Metric,
    ) -> Result<(), TopologyError> {
        if !self.nodes.contains_key(&from) || !self.nodes.contains_key(&to) {
            return Err(TopologyError::UnknownEndpoint { from, to });
        }
        if from.is_fake() || to.is_fake() {
            return Err(TopologyError::KindMismatch(if from.is_fake() {
                from
            } else {
                to
            }));
        }
        let node = self.nodes.get_mut(&from).expect("checked above");
        if node.links.iter().any(|l| l.to == to) {
            return Err(TopologyError::DuplicateLink { from, to });
        }
        node.links.push(TopoLink { to, metric });
        node.links.sort_by_key(|l| l.to);
        Ok(())
    }

    /// Add a symmetric link (both directions, same metric).
    pub fn add_link_sym(
        &mut self,
        a: RouterId,
        b: RouterId,
        metric: Metric,
    ) -> Result<(), TopologyError> {
        self.add_link(a, b, metric)?;
        self.add_link(b, a, metric)
    }

    /// Change the metric of an existing directed link.
    pub fn set_metric(
        &mut self,
        from: RouterId,
        to: RouterId,
        metric: Metric,
    ) -> Result<(), TopologyError> {
        let node = self
            .nodes
            .get_mut(&from)
            .ok_or(TopologyError::UnknownRouter(from))?;
        let link = node
            .links
            .iter_mut()
            .find(|l| l.to == to)
            .ok_or(TopologyError::UnknownEndpoint { from, to })?;
        link.metric = metric;
        Ok(())
    }

    /// Remove a directed link if present; returns whether it existed.
    pub fn remove_link(&mut self, from: RouterId, to: RouterId) -> bool {
        if let Some(node) = self.nodes.get_mut(&from) {
            let before = node.links.len();
            node.links.retain(|l| l.to != to);
            return node.links.len() != before;
        }
        false
    }

    /// Metric of the directed link `from → to`, if it exists.
    pub fn link_metric(&self, from: RouterId, to: RouterId) -> Option<Metric> {
        self.nodes
            .get(&from)?
            .links
            .iter()
            .find(|l| l.to == to)
            .map(|l| l.metric)
    }

    /// `true` if `to` is a direct successor of `from`.
    pub fn has_link(&self, from: RouterId, to: RouterId) -> bool {
        self.link_metric(from, to).is_some()
    }

    /// Outgoing links of a node (empty for fake nodes).
    pub fn links(&self, from: RouterId) -> &[TopoLink] {
        self.nodes
            .get(&from)
            .map(|n| n.links.as_slice())
            .unwrap_or(&[])
    }

    /// All directed real links as `(from, to, metric)` triples.
    pub fn all_links(&self) -> impl Iterator<Item = (RouterId, RouterId, Metric)> + '_ {
        self.nodes
            .iter()
            .flat_map(|(from, n)| n.links.iter().map(move |l| (*from, l.to, l.metric)))
    }

    /// Attach a prefix announcement to an existing node.
    ///
    /// Re-announcing the same prefix replaces its metric.
    pub fn announce_prefix(
        &mut self,
        router: RouterId,
        prefix: Prefix,
        metric: Metric,
    ) -> Result<(), TopologyError> {
        let node = self
            .nodes
            .get_mut(&router)
            .ok_or(TopologyError::UnknownRouter(router))?;
        if let Some(slot) = node.prefixes.iter_mut().find(|(p, _)| *p == prefix) {
            slot.1 = metric;
        } else {
            node.prefixes.push((prefix, metric));
            node.prefixes.sort_by_key(|(p, _)| *p);
        }
        Ok(())
    }

    /// Prefix announcements of one node.
    pub fn prefixes_at(&self, router: RouterId) -> &[(Prefix, Metric)] {
        self.nodes
            .get(&router)
            .map(|n| n.prefixes.as_slice())
            .unwrap_or(&[])
    }

    /// The set of distinct prefixes announced anywhere (real and fake).
    pub fn all_prefixes(&self) -> Vec<Prefix> {
        let mut out: Vec<Prefix> = self
            .nodes
            .values()
            .flat_map(|n| n.prefixes.iter().map(|(p, _)| *p))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// All `(node, prefix, metric)` announcements.
    pub fn all_announcements(&self) -> impl Iterator<Item = (RouterId, Prefix, Metric)> + '_ {
        self.nodes
            .iter()
            .flat_map(|(r, n)| n.prefixes.iter().map(move |(p, m)| (*r, *p, *m)))
    }

    /// Inject a fake node.
    ///
    /// The fake node `id` (which must be in the fake id range) is hung
    /// off `attrs.attach` with a directed link of `attrs.attach_metric`
    /// and announces `attrs.prefix` at `attrs.prefix_metric`. The
    /// forwarding address must identify a physical neighbor of the
    /// attachment router (any address index of that neighbor).
    /// Re-adding an existing fake node replaces it, attachment link
    /// included.
    pub fn add_fake_node(&mut self, id: RouterId, attrs: FakeAttrs) -> Result<(), TopologyError> {
        if !id.is_fake() {
            return Err(TopologyError::KindMismatch(id));
        }
        if !self.nodes.contains_key(&attrs.attach) || attrs.attach.is_fake() {
            return Err(TopologyError::UnknownRouter(attrs.attach));
        }
        if !self.has_link(attrs.attach, attrs.fw.router) {
            return Err(TopologyError::InvalidForwardingAddress {
                fake: id,
                attach: attrs.attach,
            });
        }
        if let Some(previous) = self.fake_attrs(id).copied() {
            self.remove_link(previous.attach, id);
        }
        self.hang_fake_node(id, attrs);
        Ok(())
    }

    /// Put in the fake node `id` unchecked: a lie already judged as
    /// [`add_fake_node`](Self::add_fake_node) judges it (as
    /// `Lsdb::overlay` does), replacing any earlier node of that id
    /// whose attachment link is gone.
    pub(crate) fn hang_fake_node(&mut self, id: RouterId, attrs: FakeAttrs) {
        let fake = Node {
            links: Vec::new(),
            prefixes: vec![(attrs.prefix, attrs.prefix_metric)],
            fake: Some(attrs),
        };
        self.nodes.insert(id, fake);
        // The attach → fake link lives on the attachment router, flagged
        // by the far end being in the fake range.
        let attach_node = self
            .nodes
            .get_mut(&attrs.attach)
            .expect("a lie hangs off a router");
        attach_node.links.push(TopoLink {
            to: id,
            metric: attrs.attach_metric,
        });
        attach_node.links.sort_by_key(|l| l.to);
    }

    /// Attributes of a fake node, if `id` is one.
    pub fn fake_attrs(&self, id: RouterId) -> Option<&FakeAttrs> {
        self.nodes.get(&id)?.fake.as_ref()
    }

    /// A copy of this topology with every fake node stripped — the
    /// "truth", i.e. what the IGP would look like without a controller.
    pub fn without_fakes(&self) -> Topology {
        let mut t = Topology::new();
        for (&id, node) in &self.nodes {
            if id.is_fake() {
                continue;
            }
            t.nodes.insert(
                id,
                Node {
                    links: node
                        .links
                        .iter()
                        .filter(|l| !l.to.is_fake())
                        .copied()
                        .collect(),
                    prefixes: node.prefixes.clone(),
                    fake: None,
                },
            );
        }
        t
    }

    /// Check structural invariants; used by debug assertions and tests.
    ///
    /// Invariants: link endpoints exist; fake nodes have no outgoing
    /// links, exactly one announcement, a valid forwarding address, and
    /// no link in but the one from their attachment router; real nodes
    /// carry no fake attributes.
    pub fn validate(&self) -> Result<(), TopologyError> {
        for (&id, node) in &self.nodes {
            for l in &node.links {
                let Some(to) = self.nodes.get(&l.to) else {
                    return Err(TopologyError::UnknownEndpoint { from: id, to: l.to });
                };
                if to.fake.is_some_and(|attrs| attrs.attach != id) {
                    return Err(TopologyError::KindMismatch(l.to));
                }
            }
            if id.is_fake() {
                let attrs = node.fake.as_ref().ok_or(TopologyError::KindMismatch(id))?;
                if !node.links.is_empty() {
                    return Err(TopologyError::KindMismatch(id));
                }
                if node.prefixes.len() != 1 {
                    return Err(TopologyError::KindMismatch(id));
                }
                if !self.has_link(attrs.attach, attrs.fw.router) {
                    return Err(TopologyError::InvalidForwardingAddress {
                        fake: id,
                        attach: attrs.attach,
                    });
                }
            } else if node.fake.is_some() {
                return Err(TopologyError::KindMismatch(id));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u32) -> RouterId {
        RouterId(n)
    }

    fn two_routers() -> Topology {
        let mut t = Topology::new();
        t.add_router(r(1));
        t.add_router(r(2));
        t.add_link_sym(r(1), r(2), Metric(10)).unwrap();
        t
    }

    #[test]
    fn links_are_directed_and_unique() {
        let mut t = two_routers();
        assert_eq!(t.link_metric(r(1), r(2)), Some(Metric(10)));
        assert_eq!(t.link_metric(r(2), r(1)), Some(Metric(10)));
        assert!(matches!(
            t.add_link(r(1), r(2), Metric(5)),
            Err(TopologyError::DuplicateLink { .. })
        ));
        t.set_metric(r(1), r(2), Metric(3)).unwrap();
        assert_eq!(t.link_metric(r(1), r(2)), Some(Metric(3)));
        assert_eq!(t.link_metric(r(2), r(1)), Some(Metric(10)));
        assert!(t.remove_link(r(1), r(2)));
        assert!(!t.remove_link(r(1), r(2)));
        assert!(t.has_link(r(2), r(1)));
    }

    #[test]
    fn link_to_unknown_endpoint_is_rejected() {
        let mut t = Topology::new();
        t.add_router(r(1));
        assert!(matches!(
            t.add_link(r(1), r(9), Metric(1)),
            Err(TopologyError::UnknownEndpoint { .. })
        ));
    }

    #[test]
    fn prefix_announcements_replace() {
        let mut t = two_routers();
        let p = Prefix::net24(1);
        t.announce_prefix(r(2), p, Metric(0)).unwrap();
        t.announce_prefix(r(2), p, Metric(5)).unwrap();
        assert_eq!(t.prefixes_at(r(2)), &[(p, Metric(5))]);
    }

    #[test]
    fn fake_node_lifecycle() {
        let mut t = two_routers();
        let p = Prefix::net24(1);
        let f = RouterId::fake(0);
        let attrs = FakeAttrs {
            attach: r(1),
            attach_metric: Metric(1),
            prefix: p,
            prefix_metric: Metric(1),
            fw: FwAddr::secondary(r(2), 1),
        };
        t.add_fake_node(f, attrs).unwrap();
        assert_eq!(t.fake_count(), 1);
        assert_eq!(t.link_metric(r(1), f), Some(Metric(1)));
        assert_eq!(t.fake_attrs(f).unwrap().cost_at_attach(), Metric(2));
        t.validate().unwrap();

        let stripped = t.without_fakes();
        assert_eq!(stripped.fake_count(), 0);
        assert!(!stripped.has_link(r(1), f));
        stripped.validate().unwrap();
    }

    fn line3() -> Topology {
        let mut t = two_routers();
        t.add_router(r(3));
        t.add_link_sym(r(2), r(3), Metric(10)).unwrap();
        t
    }

    fn lie_at(attach: RouterId, via: RouterId) -> FakeAttrs {
        FakeAttrs {
            attach,
            attach_metric: Metric(1),
            prefix: Prefix::net24(1),
            prefix_metric: Metric(1),
            fw: FwAddr::secondary(via, 1),
        }
    }

    #[test]
    fn re_adding_a_fake_node_moves_its_attachment() {
        let mut t = line3();
        let f = RouterId::fake(0);
        t.add_fake_node(f, lie_at(r(1), r(2))).unwrap();
        t.add_fake_node(f, lie_at(r(3), r(2))).unwrap();
        assert!(!t.has_link(r(1), f), "the old attachment keeps no link");
        assert_eq!(t.link_metric(r(3), f), Some(Metric(1)));
        assert_eq!(t.fake_attrs(f).unwrap().attach, r(3));
        t.validate().unwrap();
        // The same topology built with the fake node in its last place.
        let mut fresh = line3();
        fresh.add_fake_node(f, lie_at(r(3), r(2))).unwrap();
        assert_eq!(t, fresh);
    }

    #[test]
    fn a_link_into_a_fake_node_from_elsewhere_is_invalid() {
        let mut t = line3();
        let f = RouterId::fake(0);
        t.add_fake_node(f, lie_at(r(3), r(2))).unwrap();
        t.validate().unwrap();
        // What re-adding under a new attachment used to leave behind.
        let stray = TopoLink {
            to: f,
            metric: Metric(1),
        };
        t.nodes.get_mut(&r(1)).unwrap().links.push(stray);
        assert_eq!(t.validate(), Err(TopologyError::KindMismatch(f)));
    }

    #[test]
    fn fake_node_needs_valid_forwarding_address() {
        let mut t = two_routers();
        t.add_router(r(3)); // not a neighbor of r1
        let attrs = FakeAttrs {
            attach: r(1),
            attach_metric: Metric(1),
            prefix: Prefix::net24(1),
            prefix_metric: Metric(1),
            fw: FwAddr::primary(r(3)),
        };
        assert!(matches!(
            t.add_fake_node(RouterId::fake(0), attrs),
            Err(TopologyError::InvalidForwardingAddress { .. })
        ));
    }

    #[test]
    fn fake_id_range_enforced() {
        let mut t = two_routers();
        let attrs = FakeAttrs {
            attach: r(1),
            attach_metric: Metric(1),
            prefix: Prefix::net24(1),
            prefix_metric: Metric(1),
            fw: FwAddr::primary(r(2)),
        };
        assert!(matches!(
            t.add_fake_node(r(5), attrs),
            Err(TopologyError::KindMismatch(_))
        ));
    }
}
