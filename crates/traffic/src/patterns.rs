//! Rate-scaled synthetic traffic patterns for load sweeps.
//!
//! A [`SyntheticPattern`] maps an offered load (flits per node per cycle)
//! to a [`TrafficMatrix`] with that **mean** per-node injection rate while
//! keeping the pattern's spatial shape fixed — exactly what a
//! latency-vs-load sweep needs: one generator closure per curve,
//! `|rate| pattern.matrix(&topo, rate)`.
//!
//! Patterns:
//!
//! * [`Uniform`](SyntheticPattern::Uniform) — every node to every other
//!   node equally (the classic uniform-random benchmark load);
//! * [`Transpose`](SyntheticPattern::Transpose) — `(x, y) → (y, x)`
//!   (adversarial for X-then-Y routing; square grids only);
//! * [`Complement`](SyntheticPattern::Complement) — node `i` to node
//!   `n-1-i` (bit-complement on power-of-two grids; every packet crosses
//!   the mesh center);
//! * [`Hotspot`](SyntheticPattern::Hotspot) — a uniform background with a
//!   fraction of all traffic redirected to the four mesh corners;
//! * [`Soteriou`](SyntheticPattern::Soteriou) — the paper's statistical
//!   model (§III-B) at the requested rate;
//! * [`Npb`](SyntheticPattern::Npb) — the spatial communication shape of
//!   an NPB kernel (from its full-run [`CommVolume`]),
//!   scaled to the requested rate, so trace-shaped loads can ride the
//!   same sweep grid as the synthetic ones.

use crate::matrix::TrafficMatrix;
use crate::npb::{NpbKernel, NpbTraceSpec, ScaledNpbSpec};
use crate::soteriou::SoteriouConfig;
use crate::volume::CommVolume;
use hyppi_topology::{NodeId, Topology};

/// Fraction of all traffic redirected to the corners in
/// [`SyntheticPattern::Hotspot`].
pub const HOTSPOT_FRACTION: f64 = 0.25;

/// A rate-scalable spatial traffic pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyntheticPattern {
    /// Uniform random: every destination equally likely.
    Uniform,
    /// Matrix transpose `(x, y) → (y, x)`; square grids only.
    Transpose,
    /// Index complement `i → n-1-i`.
    Complement,
    /// Uniform background with [`HOTSPOT_FRACTION`] of all traffic
    /// concentrated on the four grid corners.
    Hotspot,
    /// The Soteriou-Wang-Peh statistical model at the paper's p and σ.
    Soteriou,
    /// The spatial shape of an NPB kernel's communication volume.
    Npb(NpbKernel),
    /// The spatial shape of the *rescaled* 256-rank NPB program
    /// ([`ScaledNpbSpec`]): interleaved stretched instances of the paper's
    /// 16×16 spec covering the whole (multiple-of-16×16) mesh. This is
    /// what lets the 32×32 sweeps run real kernels rather than
    /// regenerated-at-size approximations.
    NpbScaled(NpbKernel),
}

impl SyntheticPattern {
    /// The patterns swept by default: the two the paper's methodology
    /// names (uniform for saturation analysis, Soteriou for design-space
    /// traffic) plus the transpose stress case.
    pub const DEFAULT_SWEEP: [SyntheticPattern; 3] = [
        SyntheticPattern::Uniform,
        SyntheticPattern::Soteriou,
        SyntheticPattern::Transpose,
    ];

    /// Stable label used in tables and JSON records.
    pub fn name(&self) -> String {
        match self {
            SyntheticPattern::Uniform => "uniform".into(),
            SyntheticPattern::Transpose => "transpose".into(),
            SyntheticPattern::Complement => "complement".into(),
            SyntheticPattern::Hotspot => "hotspot".into(),
            SyntheticPattern::Soteriou => "soteriou".into(),
            SyntheticPattern::Npb(k) => format!("npb-{}", k.name()),
            SyntheticPattern::NpbScaled(k) => format!("npb-scaled-{}", k.name()),
        }
    }

    /// Normalizes a communication volume's per-pair flit counts to rates
    /// with network-wide mean injection `rate`.
    fn volume_matrix(volume: &CommVolume, n: usize, rate: f64) -> TrafficMatrix {
        let total = volume.total_flits();
        let mut m = TrafficMatrix::zero(n);
        if total == 0 {
            return m;
        }
        let scale = rate * n as f64 / total as f64;
        for (s, d, flits) in volume.pairs() {
            m.set(s, d, flits as f64 * scale);
        }
        m
    }

    /// The traffic matrix of this pattern at mean injection `rate`
    /// (flits per node per cycle). Rates must be finite and non-negative;
    /// the spatial shape is independent of the rate.
    pub fn matrix(&self, topo: &Topology, rate: f64) -> TrafficMatrix {
        assert!(rate >= 0.0 && rate.is_finite(), "bad injection rate {rate}");
        let n = topo.num_nodes();
        match self {
            SyntheticPattern::Uniform => {
                let mut m = TrafficMatrix::zero(n);
                let per_pair = rate / (n - 1) as f64;
                for s in topo.nodes() {
                    for d in topo.nodes() {
                        if s != d {
                            m.set(s, d, per_pair);
                        }
                    }
                }
                m
            }
            SyntheticPattern::Transpose => {
                assert_eq!(
                    topo.width, topo.height,
                    "transpose needs a square grid ({}×{})",
                    topo.width, topo.height
                );
                let mut m = TrafficMatrix::zero(n);
                // Diagonal nodes are their own transpose and stay silent;
                // scale the others up so the mean rate is preserved.
                let senders = topo
                    .nodes()
                    .filter(|&s| {
                        let c = topo.coord(s);
                        c.x != c.y
                    })
                    .count();
                if senders == 0 {
                    return m;
                }
                let per_sender = rate * n as f64 / senders as f64;
                for s in topo.nodes() {
                    let c = topo.coord(s);
                    if c.x != c.y {
                        let d = NodeId(c.x * topo.width + c.y);
                        m.set(s, d, per_sender);
                    }
                }
                m
            }
            SyntheticPattern::Complement => {
                let mut m = TrafficMatrix::zero(n);
                let senders = (0..n).filter(|&i| n - 1 - i != i).count();
                if senders == 0 {
                    return m;
                }
                let per_sender = rate * n as f64 / senders as f64;
                for s in topo.nodes() {
                    let d = NodeId((n - 1 - s.index()) as u16);
                    if d != s {
                        m.set(s, d, per_sender);
                    }
                }
                m
            }
            SyntheticPattern::Hotspot => {
                let corners = [
                    NodeId(0),
                    NodeId(topo.width - 1),
                    NodeId((topo.height - 1) * topo.width),
                    NodeId(topo.num_nodes() as u16 - 1),
                ];
                let mut m = TrafficMatrix::zero(n);
                let background = rate * (1.0 - HOTSPOT_FRACTION) / (n - 1) as f64;
                for s in topo.nodes() {
                    for d in topo.nodes() {
                        if s != d {
                            m.set(s, d, background);
                        }
                    }
                    // A corner spreads its own hotspot share over the
                    // other corners, so every node offers exactly `rate`.
                    let targets = corners.iter().filter(|&&c| c != s).count() as f64;
                    for &c in &corners {
                        if c != s {
                            m.add(s, c, rate * HOTSPOT_FRACTION / targets);
                        }
                    }
                }
                m
            }
            SyntheticPattern::Soteriou => {
                // Soteriou scales to a *maximum* per-node rate; rescale to
                // the requested mean so all patterns sweep the same axis.
                let raw = SoteriouConfig::paper().with_rate(1.0).matrix(topo);
                let mean = raw.mean_injection();
                if mean == 0.0 {
                    raw
                } else {
                    raw.scaled(rate / mean)
                }
            }
            SyntheticPattern::Npb(kernel) => {
                let spec = NpbTraceSpec {
                    kernel: *kernel,
                    width: topo.width,
                    height: topo.height,
                };
                Self::volume_matrix(&spec.volume(), n, rate)
            }
            SyntheticPattern::NpbScaled(kernel) => {
                let spec = ScaledNpbSpec::new(*kernel, topo.width, topo.height);
                Self::volume_matrix(&spec.volume(), n, rate)
            }
        }
    }
}

impl std::fmt::Display for SyntheticPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyppi_phys::{Gbps, LinkTechnology};
    use hyppi_topology::{mesh, MeshSpec};

    fn grid(w: u16, h: u16) -> Topology {
        mesh(MeshSpec {
            width: w,
            height: h,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        })
    }

    fn all_patterns() -> Vec<SyntheticPattern> {
        let mut v = vec![
            SyntheticPattern::Uniform,
            SyntheticPattern::Transpose,
            SyntheticPattern::Complement,
            SyntheticPattern::Hotspot,
            SyntheticPattern::Soteriou,
        ];
        v.extend(NpbKernel::ALL.map(SyntheticPattern::Npb));
        v
    }

    #[test]
    fn mean_injection_matches_requested_rate() {
        let t = grid(8, 8);
        for p in all_patterns() {
            let m = p.matrix(&t, 0.1);
            let mean = m.mean_injection();
            assert!(
                (mean - 0.1).abs() < 1e-9,
                "{p}: mean injection {mean} != 0.1"
            );
        }
    }

    #[test]
    fn rate_scales_linearly() {
        let t = grid(8, 8);
        for p in all_patterns() {
            let lo = p.matrix(&t, 0.05).total_injection();
            let hi = p.matrix(&t, 0.10).total_injection();
            assert!((hi - 2.0 * lo).abs() < 1e-9, "{p}: {lo} vs {hi}");
        }
    }

    #[test]
    fn no_self_traffic() {
        let t = grid(8, 8);
        for p in all_patterns() {
            let m = p.matrix(&t, 0.1);
            for node in t.nodes() {
                assert_eq!(m.rate(node, node), 0.0, "{p}: self-traffic at {node}");
            }
        }
    }

    #[test]
    fn transpose_sends_to_mirrored_coordinate() {
        let t = grid(4, 4);
        let m = SyntheticPattern::Transpose.matrix(&t, 0.1);
        // (1, 0) → node 1 sends to (0, 1) → node 4.
        assert!(m.rate(NodeId(1), NodeId(4)) > 0.0);
        // Diagonal nodes are silent.
        assert_eq!(m.injection_rate(NodeId(0)), 0.0);
        assert_eq!(m.injection_rate(NodeId(5)), 0.0);
    }

    #[test]
    #[should_panic(expected = "square grid")]
    fn transpose_rejects_non_square() {
        let t = grid(4, 2);
        let _ = SyntheticPattern::Transpose.matrix(&t, 0.1);
    }

    #[test]
    fn complement_pairs_opposite_indices() {
        let t = grid(4, 4);
        let m = SyntheticPattern::Complement.matrix(&t, 0.1);
        assert!(m.rate(NodeId(0), NodeId(15)) > 0.0);
        assert!(m.rate(NodeId(3), NodeId(12)) > 0.0);
        assert_eq!(m.rate(NodeId(0), NodeId(14)), 0.0);
    }

    #[test]
    fn hotspot_corners_receive_more() {
        let t = grid(8, 8);
        let m = SyntheticPattern::Hotspot.matrix(&t, 0.1);
        let received = |d: NodeId| -> f64 { t.nodes().map(|s| m.rate(s, d)).sum() };
        // A corner receives several times the traffic of an interior node.
        assert!(received(NodeId(0)) > 3.0 * received(NodeId(27)));
    }

    #[test]
    fn npb_shape_follows_kernel_volume() {
        let t = grid(16, 16);
        let m = SyntheticPattern::Npb(NpbKernel::Lu).matrix(&t, 0.1);
        // LU is 1-hop wavefront traffic: east/south (+ reverse) neighbours
        // only; no long-range pairs.
        assert!(m.rate(NodeId(0), NodeId(1)) > 0.0);
        assert_eq!(m.rate(NodeId(0), NodeId(255)), 0.0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SyntheticPattern::Uniform.name(), "uniform");
        assert_eq!(SyntheticPattern::Npb(NpbKernel::Ft).name(), "npb-FT");
        assert_eq!(
            SyntheticPattern::NpbScaled(NpbKernel::Cg).name(),
            "npb-scaled-CG"
        );
    }

    #[test]
    fn scaled_npb_pattern_hits_requested_rate() {
        // On the base 16×16 the rescale is the identity, so the scaled
        // shape equals the native one; either way the mean injection must
        // land on the requested rate.
        let t = grid(16, 16);
        for k in NpbKernel::ALL {
            let scaled = SyntheticPattern::NpbScaled(k).matrix(&t, 0.1);
            assert!((scaled.mean_injection() - 0.1).abs() < 1e-9, "{k}");
            let native = SyntheticPattern::Npb(k).matrix(&t, 0.1);
            for s in t.nodes() {
                for d in t.nodes() {
                    assert!(
                        (scaled.rate(s, d) - native.rate(s, d)).abs() < 1e-12,
                        "{k}: {s}->{d}"
                    );
                }
            }
        }
    }
}
