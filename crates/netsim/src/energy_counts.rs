//! Activity counts for energy accounting.
//!
//! The simulator (and the analytical volume router) reduce a workload to
//! *how many flits crossed each link and each router*. `hyppi-analytic`
//! combines these counts with the DSENT-style per-flit energies to produce
//! the paper's Table V dynamic-energy numbers.

use hyppi_topology::{LinkId, NodeId, RoutingTable, Topology};
use hyppi_traffic::CommVolume;

/// Flit traversal counts per link and per router.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyCounts {
    /// Flits that crossed each link, link-id indexed.
    pub link_flits: Vec<u64>,
    /// Flits that traversed each router's switch, node-id indexed.
    pub router_flits: Vec<u64>,
}

impl EnergyCounts {
    /// Zeroed counts for a topology.
    pub fn zero(topo: &Topology) -> Self {
        EnergyCounts {
            link_flits: vec![0; topo.links().len()],
            router_flits: vec![0; topo.num_nodes()],
        }
    }

    /// Routes a full-application [`CommVolume`] analytically and counts the
    /// traversals — the paper's §IV energy methodology ("total dynamic
    /// energy based on the communication volume and the network paths taken
    /// by the flits"). Every flit also traverses its destination router
    /// (ejection).
    pub fn from_volume(topo: &Topology, routes: &RoutingTable, volume: &CommVolume) -> Self {
        let mut c = Self::zero(topo);
        for (src, dst, flits) in volume.pairs() {
            let mut at = src;
            while at != dst {
                let lid = routes
                    .next_link(at, dst)
                    .expect("connected topology always has a next hop");
                c.router_flits[at.index()] += flits;
                c.link_flits[lid.index()] += flits;
                at = topo.link(lid).dst;
            }
            c.router_flits[dst.index()] += flits;
        }
        c
    }

    /// Total flit-link-traversals.
    pub fn total_link_flits(&self) -> u64 {
        self.link_flits.iter().sum()
    }

    /// Total flit-router-traversals.
    pub fn total_router_flits(&self) -> u64 {
        self.router_flits.iter().sum()
    }

    /// Flits crossing one link.
    #[inline]
    pub fn link(&self, l: LinkId) -> u64 {
        self.link_flits[l.index()]
    }

    /// Flits traversing one router.
    #[inline]
    pub fn router(&self, n: NodeId) -> u64 {
        self.router_flits[n.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyppi_phys::LinkTechnology;
    use hyppi_topology::{mesh, MeshSpec};

    fn small() -> (Topology, RoutingTable) {
        let t = mesh(MeshSpec {
            width: 4,
            height: 4,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: hyppi_phys::Gbps::new(50.0),
        });
        let r = RoutingTable::compute_xy(&t);
        (t, r)
    }

    #[test]
    fn volume_routing_counts_hops() {
        let (t, r) = small();
        let mut v = CommVolume::zero(16, 0.0);
        v.add(NodeId(0), NodeId(15), 100); // 6 hops
        let c = EnergyCounts::from_volume(&t, &r, &v);
        assert_eq!(c.total_link_flits(), 600);
        // 6 traversed routers + destination router.
        assert_eq!(c.total_router_flits(), 700);
    }

    #[test]
    fn counts_superpose() {
        let (t, r) = small();
        let mut v = CommVolume::zero(16, 0.0);
        v.add(NodeId(0), NodeId(1), 10);
        v.add(NodeId(1), NodeId(0), 20);
        let c = EnergyCounts::from_volume(&t, &r, &v);
        assert_eq!(c.total_link_flits(), 30);
        assert_eq!(c.router(NodeId(0)), 10 + 20);
        assert_eq!(c.router(NodeId(1)), 20 + 10);
    }
}
