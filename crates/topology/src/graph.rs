//! The topology graph.

use crate::ids::{Coord, LinkId, NodeId};
use crate::link::{Link, LinkClass};
use hyppi_phys::{Gbps, LinkTechnology, Micrometers};

/// A directed NoC graph laid out on a W×H grid.
///
/// Links are unidirectional; builders always create them in opposite-direction
/// pairs ("All links are bidirectional", Fig. 2 caption). Nodes are numbered
/// row-major: node `y·W + x` sits at grid coordinate `(x, y)`.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Human-readable description (used in reproduced tables).
    pub name: String,
    /// Grid width.
    pub width: u16,
    /// Grid height.
    pub height: u16,
    links: Vec<Link>,
    out: Vec<Vec<LinkId>>,
    inc: Vec<Vec<LinkId>>,
}

impl Topology {
    /// Creates an empty topology on a W×H grid.
    pub fn empty(name: impl Into<String>, width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "degenerate grid");
        let n = usize::from(width) * usize::from(height);
        Topology {
            name: name.into(),
            width,
            height,
            links: Vec::new(),
            out: vec![Vec::new(); n],
            inc: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        usize::from(self.width) * usize::from(self.height)
    }

    /// All links, in id order.
    #[inline]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Looks up a link.
    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Outgoing links of a node.
    #[inline]
    pub fn outgoing(&self, node: NodeId) -> &[LinkId] {
        &self.out[node.index()]
    }

    /// Incoming links of a node.
    #[inline]
    pub fn incoming(&self, node: NodeId) -> &[LinkId] {
        &self.inc[node.index()]
    }

    /// Grid coordinate of a node.
    #[inline]
    pub fn coord(&self, node: NodeId) -> Coord {
        Coord {
            x: node.0 % self.width,
            y: node.0 / self.width,
        }
    }

    /// Node at a grid coordinate.
    #[inline]
    pub fn node_at(&self, c: Coord) -> NodeId {
        debug_assert!(c.x < self.width && c.y < self.height);
        NodeId(c.y * self.width + c.x)
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u16).map(NodeId)
    }

    /// Adds a unidirectional link and returns its id.
    #[allow(clippy::too_many_arguments)] // full physical link description
    pub fn add_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        class: LinkClass,
        tech: LinkTechnology,
        length: Micrometers,
        latency_cycles: u32,
        capacity: Gbps,
    ) -> LinkId {
        assert!(src.index() < self.num_nodes() && dst.index() < self.num_nodes());
        assert_ne!(src, dst, "self-links are not allowed");
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            id,
            src,
            dst,
            class,
            tech,
            length,
            latency_cycles,
            capacity,
            degraded: false,
        });
        self.out[src.index()].push(id);
        self.inc[dst.index()].push(id);
        id
    }

    /// Adds a bidirectional link pair, returning both ids.
    #[allow(clippy::too_many_arguments)]
    pub fn add_bidi(
        &mut self,
        a: NodeId,
        b: NodeId,
        class: LinkClass,
        tech: LinkTechnology,
        length: Micrometers,
        latency_cycles: u32,
        capacity: Gbps,
    ) -> (LinkId, LinkId) {
        let ab = self.add_link(a, b, class, tech, length, latency_cycles, capacity);
        let ba = self.add_link(b, a, class, tech, length, latency_cycles, capacity);
        (ab, ba)
    }

    /// Router port count at a node: one local (core) port plus one port per
    /// distinct bidirectional neighbour connection. Base mesh interior nodes
    /// have 5 ports; express-line interior nodes have 7 ("the hybrid router
    /// needs two additional ports").
    pub fn ports_at(&self, node: NodeId) -> u32 {
        1 + self.out[node.index()].len() as u32
    }

    /// Sum of all link capacities (the numerator of the system CLEAR before
    /// dividing by N).
    pub fn total_capacity(&self) -> Gbps {
        self.links.iter().map(|l| l.capacity).sum()
    }

    /// Count of links matching a predicate.
    pub fn count_links(&self, pred: impl Fn(&Link) -> bool) -> usize {
        self.links.iter().filter(|l| pred(l)).count()
    }

    /// Marks a link degraded (used by [`FaultSpec::apply`](crate::FaultSpec::apply)).
    pub fn set_degraded(&mut self, id: LinkId) {
        self.links[id.index()].degraded = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node() -> Topology {
        let mut t = Topology::empty("pair", 2, 1);
        t.add_bidi(
            NodeId(0),
            NodeId(1),
            LinkClass::Regular,
            LinkTechnology::Electronic,
            Micrometers::from_mm(1.0),
            1,
            Gbps::new(50.0),
        );
        t
    }

    #[test]
    fn coordinates_roundtrip() {
        let t = Topology::empty("t", 16, 16);
        for n in t.nodes() {
            assert_eq!(t.node_at(t.coord(n)), n);
        }
        assert_eq!(t.coord(NodeId(17)), Coord { x: 1, y: 1 });
    }

    #[test]
    fn bidi_creates_two_links() {
        let t = two_node();
        assert_eq!(t.links().len(), 2);
        assert_eq!(t.outgoing(NodeId(0)).len(), 1);
        assert_eq!(t.incoming(NodeId(0)).len(), 1);
        let l = t.link(LinkId(0));
        assert_eq!((l.src, l.dst), (NodeId(0), NodeId(1)));
        let r = t.link(LinkId(1));
        assert_eq!((r.src, r.dst), (NodeId(1), NodeId(0)));
    }

    #[test]
    fn ports_count_local_plus_neighbours() {
        let t = two_node();
        assert_eq!(t.ports_at(NodeId(0)), 2);
    }

    #[test]
    fn capacity_sums() {
        let t = two_node();
        assert!((t.total_capacity().value() - 100.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn rejects_self_link() {
        let mut t = Topology::empty("t", 2, 1);
        t.add_link(
            NodeId(0),
            NodeId(0),
            LinkClass::Regular,
            LinkTechnology::Electronic,
            Micrometers::from_mm(1.0),
            1,
            Gbps::new(50.0),
        );
    }
}
