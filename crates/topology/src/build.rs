//! Topology builders for the networks of Fig. 2.

use crate::graph::Topology;
use crate::ids::Coord;
use crate::link::{Link, LinkClass};
use hyppi_phys::{Gbps, LinkTechnology, Micrometers};

/// Mesh geometry and base-link parameters (Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshSpec {
    /// Grid width.
    pub width: u16,
    /// Grid height.
    pub height: u16,
    /// Core spacing, millimeters (Table II: 1 mm).
    pub core_spacing_mm: f64,
    /// Technology of the regular mesh links.
    pub base_tech: LinkTechnology,
    /// Per-link capacity (Table II: 50 Gb/s).
    pub capacity: Gbps,
}

impl MeshSpec {
    /// The paper's 16×16 configuration with the given base technology.
    pub fn paper(base_tech: LinkTechnology) -> Self {
        MeshSpec {
            width: 16,
            height: 16,
            core_spacing_mm: 1.0,
            base_tech,
            capacity: Gbps::new(50.0),
        }
    }
}

/// Express-link overlay parameters (Fig. 2b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpressSpec {
    /// Hop span of each express link (3, 5 or 15 in the paper).
    pub span: u16,
    /// Technology of the express links.
    pub tech: LinkTechnology,
}

/// Builds the base mesh (Fig. 2a): bidirectional nearest-neighbour links.
pub fn mesh(spec: MeshSpec) -> Topology {
    let mut t = Topology::empty(
        format!("{}x{} {} mesh", spec.width, spec.height, spec.base_tech),
        spec.width,
        spec.height,
    );
    let len = Micrometers::from_mm(spec.core_spacing_mm);
    let lat = Link::latency_for(spec.base_tech);
    for y in 0..spec.height {
        for x in 0..spec.width {
            let here = t.node_at(Coord { x, y });
            if x + 1 < spec.width {
                let east = t.node_at(Coord { x: x + 1, y });
                t.add_bidi(
                    here,
                    east,
                    LinkClass::Regular,
                    spec.base_tech,
                    len,
                    lat,
                    spec.capacity,
                );
            }
            if y + 1 < spec.height {
                let south = t.node_at(Coord { x, y: y + 1 });
                t.add_bidi(
                    here,
                    south,
                    LinkClass::Regular,
                    spec.base_tech,
                    len,
                    lat,
                    spec.capacity,
                );
            }
        }
    }
    t
}

/// Builds the hybrid mesh with horizontal express links (Fig. 2b).
///
/// Express links are placed end to end in every row at positions
/// `0, span, 2·span, …` ("with Hops=3 we have 5 waveguides per direction in
/// each row; whereas with Hops=5, we have only 3"), each bidirectional.
pub fn express_mesh(spec: MeshSpec, express: ExpressSpec) -> Topology {
    assert!(
        express.span >= 2 && express.span < spec.width,
        "express span must be in 2..width"
    );
    let mut t = mesh(spec);
    t.name = format!(
        "{} + {} express (span {})",
        t.name, express.tech, express.span
    );
    let lat = Link::latency_for(express.tech);
    let len = Micrometers::from_mm(spec.core_spacing_mm * f64::from(express.span));
    for y in 0..spec.height {
        let mut x = 0u16;
        // Place end to end while the far end stays on the grid.
        while x + express.span < spec.width {
            let a = t.node_at(Coord { x, y });
            let b = t.node_at(Coord {
                x: x + express.span,
                y,
            });
            t.add_bidi(
                a,
                b,
                LinkClass::Express { span: express.span },
                express.tech,
                len,
                lat,
                spec.capacity,
            );
            x += express.span;
        }
    }
    t
}

/// Builds a 2D torus: the mesh plus wraparound links in both dimensions.
pub fn torus(spec: MeshSpec) -> Topology {
    let mut t = mesh(spec);
    t.name = format!("{}x{} {} torus", spec.width, spec.height, spec.base_tech);
    let lat = Link::latency_for(spec.base_tech);
    for y in 0..spec.height {
        let west = t.node_at(Coord { x: 0, y });
        let east = t.node_at(Coord {
            x: spec.width - 1,
            y,
        });
        let len = Micrometers::from_mm(spec.core_spacing_mm * f64::from(spec.width - 1));
        t.add_bidi(
            west,
            east,
            LinkClass::Wraparound,
            spec.base_tech,
            len,
            lat,
            spec.capacity,
        );
    }
    for x in 0..spec.width {
        let north = t.node_at(Coord { x, y: 0 });
        let south = t.node_at(Coord {
            x,
            y: spec.height - 1,
        });
        let len = Micrometers::from_mm(spec.core_spacing_mm * f64::from(spec.height - 1));
        t.add_bidi(
            north,
            south,
            LinkClass::Wraparound,
            spec.base_tech,
            len,
            lat,
            spec.capacity,
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    #[test]
    fn paper_mesh_link_count() {
        // 16×16 mesh: 2·(16·15·2) = 960 unidirectional links.
        let t = mesh(MeshSpec::paper(LinkTechnology::Electronic));
        assert_eq!(t.links().len(), 960);
        assert_eq!(t.num_nodes(), 256);
    }

    #[test]
    fn express_counts_match_the_paper() {
        // Paper §III-B: span 3 → 5 waveguides per direction per row,
        // span 5 → 3, span 15 → 1.
        for (span, per_row_per_dir) in [(3u16, 5usize), (5, 3), (15, 1)] {
            let t = express_mesh(
                MeshSpec::paper(LinkTechnology::Electronic),
                ExpressSpec {
                    span,
                    tech: LinkTechnology::Hyppi,
                },
            );
            let express = t.count_links(|l| l.is_express());
            assert_eq!(express, per_row_per_dir * 2 * 16, "span {span}");
            // Express link length is span mm.
            let l = t
                .links()
                .iter()
                .find(|l| l.is_express())
                .expect("has express links");
            assert!((l.length.as_mm() - f64::from(span)).abs() < 1e-9);
            assert_eq!(l.latency_cycles, 2);
        }
    }

    #[test]
    fn capability_matches_table_iii() {
        // Table III: ΣC/N = 187.5 (plain), 218.75 (span 3), 206.25 (span 5),
        // 193.75 (span 15) Gb/s.
        let n = 256.0;
        let plain = mesh(MeshSpec::paper(LinkTechnology::Electronic));
        assert!((plain.total_capacity().value() / n - 187.5).abs() < 1e-9);
        for (span, expect) in [(3u16, 218.75), (5, 206.25), (15, 193.75)] {
            let t = express_mesh(
                MeshSpec::paper(LinkTechnology::Electronic),
                ExpressSpec {
                    span,
                    tech: LinkTechnology::Hyppi,
                },
            );
            assert!(
                (t.total_capacity().value() / n - expect).abs() < 1e-9,
                "span {span}"
            );
        }
    }

    #[test]
    fn express_ports_match_figure_4() {
        let t = express_mesh(
            MeshSpec::paper(LinkTechnology::Electronic),
            ExpressSpec {
                span: 3,
                tech: LinkTechnology::Hyppi,
            },
        );
        // Interior express node (x=3, y=5): 5 base + 2 express = 7 ports.
        assert_eq!(t.ports_at(t.node_at(Coord { x: 3, y: 5 })), 7);
        // Express endpoint in a row interior-row (x=0): corner effects —
        // (0,5) has 3 mesh neighbours + 1 express = 5 ports.
        assert_eq!(t.ports_at(t.node_at(Coord { x: 0, y: 5 })), 5);
        // Non-express node (x=1): plain 5-port interior router.
        assert_eq!(t.ports_at(t.node_at(Coord { x: 1, y: 5 })), 5);
    }

    #[test]
    fn torus_adds_wraparounds() {
        let t = torus(MeshSpec::paper(LinkTechnology::Electronic));
        let wrap = t.count_links(|l| matches!(l.class, LinkClass::Wraparound));
        assert_eq!(wrap, 2 * 2 * 16);
        assert_eq!(t.links().len(), 960 + 64);
    }

    #[test]
    #[should_panic(expected = "express span")]
    fn rejects_bad_span() {
        let _ = express_mesh(
            MeshSpec::paper(LinkTechnology::Electronic),
            ExpressSpec {
                span: 16,
                tech: LinkTechnology::Hyppi,
            },
        );
    }

    #[test]
    fn small_mesh_structure() {
        let t = mesh(MeshSpec {
            width: 3,
            height: 2,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        });
        // Horizontal: 2 per row × 2 rows; vertical: 3 — each bidirectional.
        assert_eq!(t.links().len(), (2 * 2 + 3) * 2);
        // Corner has 2 neighbours + local = 3 ports.
        assert_eq!(t.ports_at(NodeId(0)), 3);
    }
}
