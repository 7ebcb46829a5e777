//! Link descriptors.

use crate::ids::{LinkId, NodeId};
use hyppi_phys::{Gbps, LinkTechnology, Micrometers};

/// Router pipeline depth in cycles (Table II: 3 stages).
pub const ROUTER_PIPELINE_CYCLES: u32 = 3;

/// Structural role of a link in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Nearest-neighbour mesh link.
    Regular,
    /// Horizontal express link spanning `span` hops (Fig. 2b).
    Express {
        /// Hop span of the express link (3, 5 or 15 in the paper).
        span: u16,
    },
    /// Torus wraparound link.
    Wraparound,
}

/// One unidirectional link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Identifier; also the index into [`Topology::links`](crate::Topology).
    pub id: LinkId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Structural role.
    pub class: LinkClass,
    /// Implementation technology.
    pub tech: LinkTechnology,
    /// Physical length.
    pub length: Micrometers,
    /// Traversal latency in clock cycles (1 electronic, 2 optical).
    pub latency_cycles: u32,
    /// Data capacity.
    pub capacity: Gbps,
    /// Whether a fault spec marked this link degraded (raised latency and
    /// halved usable VCs). Healthy builders always leave this `false`;
    /// [`FaultSpec::apply`](crate::FaultSpec::apply) sets it.
    pub degraded: bool,
}

impl Link {
    /// Latency of a link of the given technology, per the paper (Table II):
    /// 1 clock for electronic links, 2 clocks for every optical link
    /// (propagation bounded by one clock + one clock O-E conversion).
    pub fn latency_for(tech: LinkTechnology) -> u32 {
        if tech.is_optical() {
            2
        } else {
            1
        }
    }

    /// Whether this is an express link.
    #[inline]
    pub fn is_express(&self) -> bool {
        matches!(self.class, LinkClass::Express { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_rule_matches_table_ii() {
        assert_eq!(Link::latency_for(LinkTechnology::Electronic), 1);
        assert_eq!(Link::latency_for(LinkTechnology::Photonic), 2);
        assert_eq!(Link::latency_for(LinkTechnology::Plasmonic), 2);
        assert_eq!(Link::latency_for(LinkTechnology::Hyppi), 2);
    }

    #[test]
    fn express_classification() {
        let l = Link {
            id: LinkId(0),
            src: NodeId(0),
            dst: NodeId(3),
            class: LinkClass::Express { span: 3 },
            tech: LinkTechnology::Hyppi,
            length: Micrometers::from_mm(3.0),
            latency_cycles: 2,
            capacity: Gbps::new(50.0),
            degraded: false,
        };
        assert!(l.is_express());
        let r = Link {
            class: LinkClass::Regular,
            ..l
        };
        assert!(!r.is_express());
    }
}
