//! Fault injection: dead links, dead routers, degraded spans.
//!
//! A [`FaultSpec`] names faults against a *healthy* topology built by
//! [`mesh`](crate::mesh) / [`express_mesh`](crate::express_mesh);
//! [`FaultSpec::apply`] produces the faulted topology that the simulators
//! and [`RoutingTable::compute_xy_avoiding`](crate::RoutingTable::compute_xy_avoiding)
//! consume:
//!
//! * **dead links** — both directions of the named span are removed;
//! * **dead routers** — every link incident to the node is removed (the
//!   node itself stays in the grid, so node ids, shard partitions and
//!   traffic matrices are unchanged; traffic to or from it is dropped at
//!   admission and counted in `SimStats::unreachable_pairs`);
//! * **degraded spans** — both directions survive with
//!   `latency_cycles` raised by [`FaultSpec::degraded_extra_latency`] and
//!   the link marked [`Link::degraded`](crate::Link::degraded), which the
//!   engines translate into a halved usable-VC set (at least one VC per
//!   dateline class is always kept).
//!
//! Because `apply` rebuilds the link list in healthy-id order, everything
//! derived purely from the link list — shard boundary classification,
//! calendar-wheel sizing, ingest tables — stays correct with no engine
//! special-casing: dead links simply never exist, and raised latencies
//! land on the calendar wheel like any other multi-cycle link.

use crate::graph::Topology;
use crate::ids::NodeId;
use std::collections::HashSet;

/// Default latency penalty for a degraded span, in cycles.
pub const DEFAULT_DEGRADED_EXTRA_LATENCY: u32 = 2;

/// A set of faults to impose on a healthy topology.
///
/// Spans (`dead_links`, `degraded_spans`) are unordered node pairs: both
/// unidirectional links of the bidirectional connection are affected.
/// `apply` panics if a named span has no link in the healthy topology, if
/// a router id is out of range, or if a span is named both dead and
/// degraded — a fault spec that does not describe the topology it is
/// applied to is a bug, not a runtime condition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    /// Bidirectional spans whose links are removed entirely.
    pub dead_links: Vec<(NodeId, NodeId)>,
    /// Routers that lose every incident link.
    pub dead_routers: Vec<NodeId>,
    /// Bidirectional spans that survive with raised latency and halved VCs.
    pub degraded_spans: Vec<(NodeId, NodeId)>,
    /// Latency added to each degraded link, in cycles.
    pub degraded_extra_latency: u32,
}

impl FaultSpec {
    /// An empty fault set (applying it is the identity).
    pub fn none() -> Self {
        FaultSpec {
            degraded_extra_latency: DEFAULT_DEGRADED_EXTRA_LATENCY,
            ..FaultSpec::default()
        }
    }

    /// Whether the spec names no faults at all.
    pub fn is_empty(&self) -> bool {
        self.dead_links.is_empty() && self.dead_routers.is_empty() && self.degraded_spans.is_empty()
    }

    /// Total number of named faults (spans + routers).
    pub fn len(&self) -> usize {
        self.dead_links.len() + self.dead_routers.len() + self.degraded_spans.len()
    }

    /// Builder: kill both directions of the `a`–`b` span.
    pub fn dead_link(mut self, a: NodeId, b: NodeId) -> Self {
        self.dead_links.push((a, b));
        self
    }

    /// Builder: kill every link incident to `n`.
    pub fn dead_router(mut self, n: NodeId) -> Self {
        self.dead_routers.push(n);
        self
    }

    /// Builder: degrade both directions of the `a`–`b` span.
    pub fn degraded_span(mut self, a: NodeId, b: NodeId) -> Self {
        self.degraded_spans.push((a, b));
        self
    }

    /// Samples a fault set of `count` faults on `topo`'s spans: each chosen
    /// bidirectional span becomes dead or degraded with equal probability.
    /// Deterministic in `seed` (SplitMix64); never names dead routers —
    /// sweep drivers that want router deaths add them explicitly.
    ///
    /// The sample may disconnect the mesh;
    /// [`RoutingTable::compute_xy_avoiding`](crate::RoutingTable::compute_xy_avoiding)
    /// reports that as an error, and samplers are expected to draw a fresh
    /// seed in that case.
    pub fn sample(topo: &Topology, count: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        // One candidate per bidirectional span: the link with src < dst.
        let mut spans: Vec<(NodeId, NodeId)> = topo
            .links()
            .iter()
            .filter(|l| l.src < l.dst)
            .map(|l| (l.src, l.dst))
            .collect();
        let picks = count.min(spans.len());
        let mut spec = FaultSpec::none();
        // Partial Fisher–Yates: draw `picks` distinct spans.
        for i in 0..picks {
            let j = i + (rng.next() as usize) % (spans.len() - i);
            spans.swap(i, j);
            let (a, b) = spans[i];
            if rng.next() & 1 == 0 {
                spec.dead_links.push((a, b));
            } else {
                spec.degraded_spans.push((a, b));
            }
        }
        spec
    }

    /// Applies the faults to a healthy topology, producing the faulted one.
    ///
    /// Surviving links keep their relative (healthy) order, so link ids in
    /// the faulted topology are a compact renumbering; all consumers
    /// (routing, engines, partitions) work off the faulted topology, so the
    /// renumbering is invisible to them.
    pub fn apply(&self, healthy: &Topology) -> Topology {
        let n = healthy.num_nodes();
        let norm = |a: NodeId, b: NodeId| if a.0 <= b.0 { (a, b) } else { (b, a) };
        let dead: HashSet<(NodeId, NodeId)> =
            self.dead_links.iter().map(|&(a, b)| norm(a, b)).collect();
        let degraded: HashSet<(NodeId, NodeId)> = self
            .degraded_spans
            .iter()
            .map(|&(a, b)| norm(a, b))
            .collect();
        if let Some(span) = dead.intersection(&degraded).next() {
            panic!("span {span:?} is named both dead and degraded");
        }
        let mut dead_router = vec![false; n];
        for &r in &self.dead_routers {
            assert!(r.index() < n, "dead router {:?} out of range", r);
            dead_router[r.index()] = true;
        }
        // Validate that every named span exists in the healthy topology.
        let healthy_spans: HashSet<(NodeId, NodeId)> =
            healthy.links().iter().map(|l| norm(l.src, l.dst)).collect();
        for span in dead.iter().chain(degraded.iter()) {
            assert!(
                healthy_spans.contains(span),
                "fault names span {:?} which has no link in `{}`",
                span,
                healthy.name
            );
        }

        let mut t = Topology::empty(
            format!("{} + {} faults", healthy.name, self.len()),
            healthy.width,
            healthy.height,
        );
        for l in healthy.links() {
            if dead_router[l.src.index()] || dead_router[l.dst.index()] {
                continue;
            }
            let span = norm(l.src, l.dst);
            if dead.contains(&span) {
                continue;
            }
            let extra = if degraded.contains(&span) {
                self.degraded_extra_latency
            } else {
                0
            };
            let id = t.add_link(
                l.src,
                l.dst,
                l.class,
                l.tech,
                l.length,
                l.latency_cycles + extra,
                l.capacity,
            );
            if extra > 0 {
                t.set_degraded(id);
            }
        }
        t
    }
}

/// SplitMix64 — the same tiny deterministic generator the parity fixtures
/// use; kept local so `hyppi-topology` needs no RNG dependency.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{mesh, MeshSpec};
    use hyppi_phys::{Gbps, LinkTechnology};

    fn spec4() -> MeshSpec {
        MeshSpec {
            width: 4,
            height: 4,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        }
    }

    #[test]
    fn empty_spec_is_identity() {
        let healthy = mesh(spec4());
        let faulted = FaultSpec::none().apply(&healthy);
        assert_eq!(faulted.links().len(), healthy.links().len());
        for (a, b) in healthy.links().iter().zip(faulted.links()) {
            assert_eq!(
                (a.src, a.dst, a.latency_cycles),
                (b.src, b.dst, b.latency_cycles)
            );
            assert!(!b.degraded);
        }
    }

    #[test]
    fn dead_link_removes_both_directions() {
        let healthy = mesh(spec4());
        let faulted = FaultSpec::none()
            .dead_link(NodeId(0), NodeId(1))
            .apply(&healthy);
        assert_eq!(faulted.links().len(), healthy.links().len() - 2);
        assert!(!faulted
            .links()
            .iter()
            .any(|l| (l.src, l.dst) == (NodeId(0), NodeId(1))
                || (l.src, l.dst) == (NodeId(1), NodeId(0))));
    }

    #[test]
    fn dead_router_loses_all_links() {
        let healthy = mesh(spec4());
        // Node 5 is interior: 4 neighbours, 8 incident unidirectional links.
        let faulted = FaultSpec::none().dead_router(NodeId(5)).apply(&healthy);
        assert_eq!(faulted.links().len(), healthy.links().len() - 8);
        assert!(faulted.outgoing(NodeId(5)).is_empty());
        assert!(faulted.incoming(NodeId(5)).is_empty());
    }

    #[test]
    fn degraded_span_raises_latency_and_marks() {
        let healthy = mesh(spec4());
        let faulted = FaultSpec::none()
            .degraded_span(NodeId(0), NodeId(1))
            .apply(&healthy);
        assert_eq!(faulted.links().len(), healthy.links().len());
        let hit: Vec<_> = faulted.links().iter().filter(|l| l.degraded).collect();
        assert_eq!(hit.len(), 2);
        for l in hit {
            assert_eq!(l.latency_cycles, 1 + DEFAULT_DEGRADED_EXTRA_LATENCY);
        }
    }

    #[test]
    #[should_panic(expected = "has no link")]
    fn rejects_nonexistent_span() {
        let healthy = mesh(spec4());
        // 0 and 5 are diagonal neighbours: no mesh link.
        FaultSpec::none()
            .dead_link(NodeId(0), NodeId(5))
            .apply(&healthy);
    }

    #[test]
    fn sample_is_deterministic_and_sized() {
        let healthy = mesh(spec4());
        let a = FaultSpec::sample(&healthy, 5, 42);
        let b = FaultSpec::sample(&healthy, 5, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(a.dead_routers.is_empty());
        let c = FaultSpec::sample(&healthy, 5, 43);
        assert_ne!(a, c);
        // Every sampled span must exist, so apply() must not panic.
        let _ = a.apply(&healthy);
    }
}
