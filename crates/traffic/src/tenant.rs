//! Multi-tenant workload composition on disjoint mesh partitions.
//!
//! A [`TenantSpec`] co-schedules several synthetic workloads — any
//! [`SyntheticPattern`], including the rescaled NPB programs — on
//! disjoint rectangular tiles of one mesh, reusing the balanced
//! rectangle geometry of [`hyppi_topology::Partition`] (a tenant layout
//! *is* a shard grid, just resolved against workloads instead of
//! engine shards; tenant rectangles and engine shard rectangles are
//! independent of each other). Each tenant's pattern is generated on a
//! sub-mesh of its tile's dimensions and remapped into parent
//! coordinates, so all traffic stays inside the tenant's rectangle:
//! tenants never exchange packets, and any latency a tenant's packets
//! pick up from a neighbour is pure *interference* — contention on
//! routers and links the rectangles share no traffic across but whose
//! traffic crosses tile-internal resources near the seam. The resolved
//! [`TenantMap`] (node → tenant) is what the simulator consumes to
//! split per-tenant statistics.

use crate::matrix::TrafficMatrix;
use crate::patterns::SyntheticPattern;
use hyppi_phys::{Gbps, LinkTechnology};
use hyppi_topology::{mesh, MeshSpec, NodeId, Partition, ShardSpec, Topology};

/// One tenant's workload: a spatial pattern at an offered load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantWorkload {
    /// Spatial pattern, generated on the tenant's tile sub-mesh.
    pub pattern: SyntheticPattern,
    /// Mean per-node injection rate inside the tile (flits/node/cycle).
    pub rate: f64,
}

/// A multi-tenant workload layout: a rectangular tile grid plus one
/// workload per tile, in tile order (row-major, like shard ids).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    grid: ShardSpec,
    tenants: Vec<TenantWorkload>,
}

/// The resolved node-ownership table of a [`TenantSpec`] on a concrete
/// topology — what the simulation engines consume.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMap {
    /// Owning tenant of every node, node-id indexed.
    pub tenant_of_node: Vec<u16>,
    /// Tenant count.
    pub tenants: usize,
}

impl TenantMap {
    /// The owning tenant of `node`.
    #[inline]
    pub fn tenant_of(&self, node: NodeId) -> usize {
        usize::from(self.tenant_of_node[node.index()])
    }
}

impl TenantSpec {
    /// A layout placing `tenants[k]` on tile `k` of `grid` (row-major).
    /// One workload per tile is required — every node has an owner, so
    /// per-tenant statistics partition the aggregate exactly.
    pub fn new(grid: ShardSpec, tenants: Vec<TenantWorkload>) -> Self {
        assert_eq!(
            tenants.len(),
            grid.count(),
            "need one workload per tile ({} tiles, {} workloads)",
            grid.count(),
            tenants.len()
        );
        TenantSpec { grid, tenants }
    }

    /// Two tenants side by side (a 2×1 vertical split).
    pub fn pair(left: TenantWorkload, right: TenantWorkload) -> Self {
        Self::new(ShardSpec { sx: 2, sy: 1 }, vec![left, right])
    }

    /// Number of tenants.
    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// The tile grid.
    pub fn grid(&self) -> ShardSpec {
        self.grid
    }

    /// The per-tile workloads, tile order.
    pub fn workloads(&self) -> &[TenantWorkload] {
        &self.tenants
    }

    /// This layout with tenant `k`'s rate replaced — the sweep axis of
    /// interference curves (vary one tenant's load, hold the others).
    pub fn with_rate(&self, tenant: usize, rate: f64) -> Self {
        assert!(rate >= 0.0 && rate.is_finite(), "bad injection rate {rate}");
        let mut s = self.clone();
        s.tenants[tenant].rate = rate;
        s
    }

    /// Stable label, e.g. `"2x1[uniform@0.080|npb-scaled-CG@0.120]"`.
    pub fn name(&self) -> String {
        let parts: Vec<String> = self
            .tenants
            .iter()
            .map(|t| format!("{}@{:.3}", t.pattern.name(), t.rate))
            .collect();
        format!("{}x{}[{}]", self.grid.sx, self.grid.sy, parts.join("|"))
    }

    /// Resolves node ownership against a topology (balanced rectangle
    /// tiles — the same geometry as an `sx × sy` shard grid).
    pub fn map(&self, topo: &Topology) -> TenantMap {
        let part = Partition::new(topo, self.grid);
        TenantMap {
            tenant_of_node: part.shard_of_node,
            tenants: self.tenants.len(),
        }
    }

    /// The x/y spans of tile `k`: `(x0, x1, y0, y1)`, end-exclusive —
    /// the balanced block boundaries `Partition` uses.
    fn tile_bounds(&self, topo: &Topology, k: usize) -> (u16, u16, u16, u16) {
        let (sx, sy) = (u32::from(self.grid.sx), u32::from(self.grid.sy));
        let (tx, ty) = ((k % sx as usize) as u32, (k / sx as usize) as u32);
        let (w, h) = (u32::from(topo.width), u32::from(topo.height));
        (
            (tx * w / sx) as u16,
            ((tx + 1) * w / sx) as u16,
            (ty * h / sy) as u16,
            ((ty + 1) * h / sy) as u16,
        )
    }

    /// The combined traffic matrix: each tenant's pattern generated on
    /// a sub-mesh of its tile's dimensions at its own rate, remapped
    /// into parent coordinates. All traffic is tile-internal.
    pub fn matrix(&self, topo: &Topology) -> TrafficMatrix {
        let mut m = TrafficMatrix::zero(topo.num_nodes());
        for (k, t) in self.tenants.iter().enumerate() {
            let (x0, x1, y0, y1) = self.tile_bounds(topo, k);
            let (tw, th) = (x1 - x0, y1 - y0);
            // The pattern only reads grid dimensions and coordinates,
            // so the sub-mesh link technology is irrelevant.
            let sub = mesh(MeshSpec {
                width: tw,
                height: th,
                core_spacing_mm: 1.0,
                base_tech: LinkTechnology::Electronic,
                capacity: Gbps::new(50.0),
            });
            let tile = t.pattern.matrix(&sub, t.rate);
            let up = |l: NodeId| -> NodeId {
                let (lx, ly) = (l.0 % tw, l.0 / tw);
                NodeId((y0 + ly) * topo.width + (x0 + lx))
            };
            for (s, d, r) in tile.demands() {
                m.add(up(s), up(d), r);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::npb::NpbKernel;

    fn grid_topo(w: u16, h: u16) -> Topology {
        mesh(MeshSpec {
            width: w,
            height: h,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        })
    }

    fn two_tenants(a_rate: f64, b_rate: f64) -> TenantSpec {
        TenantSpec::pair(
            TenantWorkload {
                pattern: SyntheticPattern::Uniform,
                rate: a_rate,
            },
            TenantWorkload {
                pattern: SyntheticPattern::Hotspot,
                rate: b_rate,
            },
        )
    }

    #[test]
    fn map_partitions_every_node() {
        let t = grid_topo(8, 4);
        let spec = two_tenants(0.1, 0.2);
        let map = spec.map(&t);
        assert_eq!(map.tenants, 2);
        assert_eq!(map.tenant_of_node.len(), 32);
        // Left half tenant 0, right half tenant 1 (2×1 vertical split).
        for node in t.nodes() {
            let expect = u16::from(t.coord(node).x >= 4);
            assert_eq!(map.tenant_of_node[node.index()], expect, "{node}");
        }
    }

    #[test]
    fn traffic_stays_inside_tiles() {
        let t = grid_topo(8, 8);
        let spec = TenantSpec::new(
            ShardSpec { sx: 2, sy: 2 },
            vec![
                TenantWorkload {
                    pattern: SyntheticPattern::Uniform,
                    rate: 0.1,
                },
                TenantWorkload {
                    pattern: SyntheticPattern::Complement,
                    rate: 0.2,
                },
                TenantWorkload {
                    pattern: SyntheticPattern::Hotspot,
                    rate: 0.05,
                },
                TenantWorkload {
                    pattern: SyntheticPattern::Transpose,
                    rate: 0.15,
                },
            ],
        );
        let map = spec.map(&t);
        let m = spec.matrix(&t);
        for (s, d, r) in m.demands() {
            assert!(r > 0.0);
            assert_eq!(
                map.tenant_of(s),
                map.tenant_of(d),
                "cross-tenant demand {s}->{d}"
            );
        }
    }

    #[test]
    fn per_tile_rates_are_preserved() {
        let t = grid_topo(8, 4);
        let spec = two_tenants(0.1, 0.3);
        let map = spec.map(&t);
        let m = spec.matrix(&t);
        let mut sums = [0.0f64; 2];
        let mut counts = [0usize; 2];
        for node in t.nodes() {
            let k = map.tenant_of(node);
            sums[k] += m.injection_rate(node);
            counts[k] += 1;
        }
        assert!((sums[0] / counts[0] as f64 - 0.1).abs() < 1e-9);
        assert!((sums[1] / counts[1] as f64 - 0.3).abs() < 1e-9);
    }

    #[test]
    fn with_rate_changes_one_tenant_only() {
        let spec = two_tenants(0.1, 0.2);
        let swept = spec.with_rate(1, 0.4);
        assert_eq!(swept.workloads()[0].rate, 0.1);
        assert_eq!(swept.workloads()[1].rate, 0.4);
        assert_eq!(spec.workloads()[1].rate, 0.2, "original untouched");
    }

    #[test]
    fn scaled_npb_tenant_on_multiple_of_16_tile() {
        // The repro tenant sweeps co-schedule a rescaled NPB program
        // with a synthetic neighbour; a 32×32 mesh split 2×1 gives each
        // tenant a 16×32 tile, a legal ScaledNpbSpec target.
        let t = grid_topo(32, 32);
        let spec = TenantSpec::pair(
            TenantWorkload {
                pattern: SyntheticPattern::NpbScaled(NpbKernel::Cg),
                rate: 0.08,
            },
            TenantWorkload {
                pattern: SyntheticPattern::Uniform,
                rate: 0.1,
            },
        );
        let map = spec.map(&t);
        let m = spec.matrix(&t);
        let mut demands = 0;
        for (s, d, _) in m.demands() {
            assert_eq!(map.tenant_of(s), map.tenant_of(d));
            demands += 1;
        }
        assert!(demands > 0, "CG tenant generated traffic");
        // Tenant 0's mean rate lands on the requested one.
        let a_nodes: Vec<NodeId> = t.nodes().filter(|&n| map.tenant_of(n) == 0).collect();
        let mean: f64 =
            a_nodes.iter().map(|&n| m.injection_rate(n)).sum::<f64>() / a_nodes.len() as f64;
        assert!((mean - 0.08).abs() < 1e-9, "mean {mean}");
    }

    #[test]
    fn name_is_stable() {
        let spec = two_tenants(0.08, 0.25);
        assert_eq!(spec.name(), "2x1[uniform@0.080|hotspot@0.250]");
    }

    #[test]
    #[should_panic(expected = "one workload per tile")]
    fn rejects_wrong_workload_count() {
        let _ = TenantSpec::new(
            ShardSpec { sx: 2, sy: 2 },
            vec![TenantWorkload {
                pattern: SyntheticPattern::Uniform,
                rate: 0.1,
            }],
        );
    }
}
