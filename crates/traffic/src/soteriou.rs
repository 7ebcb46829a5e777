//! The Soteriou-Wang-Peh statistical traffic model.
//!
//! The paper configures it with `p = 0.02` and `σ = 0.4` and a maximum
//! injection rate of 0.1 flits/node/cycle (§III-B):
//!
//! * **σ (spatial injection spread)** — per-node injection rates follow a
//!   Gaussian distribution; a larger σ means more nodes inject
//!   significantly. We draw each node's relative injection weight from
//!   `N(0.5, σ)` clamped to `[0, 1]`, then scale so the most active node
//!   injects at the configured maximum rate.
//! * **p (acceptance probability)** — controls the spatial hop
//!   distribution: a flit is accepted at each visited node with
//!   probability `p`, so it reaches Manhattan distance `d` with
//!   probability `p·(1-p)^(d-1)`; a *lower* p flattens the distribution
//!   toward far destinations ("Low p implies longer hops"). Destination
//!   weights follow that geometric law in distance.

use crate::matrix::TrafficMatrix;
use hyppi_topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the statistical model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoteriouConfig {
    /// Flit acceptance probability controlling hop distribution.
    pub p: f64,
    /// Standard deviation of the Gaussian injection spread.
    pub sigma: f64,
    /// Maximum per-node injection rate, flits per cycle.
    pub max_injection_rate: f64,
    /// RNG seed (the model is fully deterministic given the seed).
    pub seed: u64,
}

impl SoteriouConfig {
    /// The paper's configuration: p = 0.02, σ = 0.4, max rate 0.1.
    pub fn paper() -> Self {
        SoteriouConfig {
            p: 0.02,
            sigma: 0.4,
            max_injection_rate: 0.1,
            seed: 0x5072_EA11,
        }
    }

    /// Same distribution shape at a different maximum injection rate
    /// (the paper sweeps 0.01–0.1).
    pub fn with_rate(self, rate: f64) -> Self {
        SoteriouConfig {
            max_injection_rate: rate,
            ..self
        }
    }

    /// Generates the traffic matrix for a topology.
    pub fn matrix(&self, topo: &Topology) -> TrafficMatrix {
        assert!(self.p > 0.0 && self.p <= 1.0, "p must be in (0, 1]");
        assert!(self.sigma >= 0.0 && self.max_injection_rate >= 0.0);
        let n = topo.num_nodes();
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Per-node injection weights: N(0.5, σ) clamped to [0, 1].
        let weights: Vec<f64> = (0..n)
            .map(|_| {
                let g: f64 = sample_standard_normal(&mut rng);
                (0.5 + self.sigma * g).clamp(0.0, 1.0)
            })
            .collect();
        let max_w = weights.iter().cloned().fold(0.0f64, f64::max).max(1e-12);

        let mut m = TrafficMatrix::zero(n);
        for src in topo.nodes() {
            let injection = self.max_injection_rate * weights[src.index()] / max_w;
            if injection == 0.0 {
                continue;
            }
            // Geometric acceptance in Manhattan distance: a destination at
            // distance d is reached with probability ∝ (1-p)^(d-1).
            let sc = topo.coord(src);
            let q = 1.0 - self.p;
            let mut weight_sum = 0.0;
            let mut pair_weights = Vec::with_capacity(topo.num_nodes() - 1);
            for d in topo.nodes() {
                if d == src {
                    continue;
                }
                let dist = sc.manhattan(topo.coord(d));
                let w = self.p * q.powi(dist as i32 - 1);
                pair_weights.push((d, w));
                weight_sum += w;
            }
            for (d, w) in pair_weights {
                m.set(src, d, injection * w / weight_sum);
            }
        }
        m
    }
}

/// Box-Muller standard normal sample.
fn sample_standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyppi_phys::LinkTechnology;
    use hyppi_topology::{mesh, MeshSpec, NodeId};

    fn paper_matrix() -> (Topology, TrafficMatrix) {
        let t = mesh(MeshSpec::paper(LinkTechnology::Electronic));
        let m = SoteriouConfig::paper().matrix(&t);
        (t, m)
    }

    #[test]
    fn deterministic_given_seed() {
        let t = mesh(MeshSpec::paper(LinkTechnology::Electronic));
        let a = SoteriouConfig::paper().matrix(&t);
        let b = SoteriouConfig::paper().matrix(&t);
        assert_eq!(a, b);
    }

    #[test]
    fn injection_respects_maximum() {
        let (t, m) = paper_matrix();
        let mut max_rate = 0.0f64;
        for n in t.nodes() {
            max_rate = max_rate.max(m.injection_rate(n));
        }
        assert!(max_rate <= 0.1 + 1e-9, "max {max_rate}");
        // The hottest node should sit exactly at the maximum.
        assert!((max_rate - 0.1).abs() < 1e-9, "max {max_rate}");
    }

    #[test]
    fn sigma_spreads_injection() {
        let t = mesh(MeshSpec::paper(LinkTechnology::Electronic));
        let narrow = SoteriouConfig {
            sigma: 0.05,
            ..SoteriouConfig::paper()
        }
        .matrix(&t);
        let wide = SoteriouConfig::paper().matrix(&t);
        // With σ = 0.05 nearly every node injects ≈ the same rate; with
        // σ = 0.4 the spread is much wider.
        let spread = |m: &TrafficMatrix| {
            let rates: Vec<f64> = t.nodes().map(|n| m.injection_rate(n)).collect();
            let max = rates.iter().cloned().fold(0.0f64, f64::max);
            let min = rates.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        assert!(spread(&wide) > 2.0 * spread(&narrow));
    }

    #[test]
    fn low_p_means_longer_hops() {
        let t = mesh(MeshSpec::paper(LinkTechnology::Electronic));
        let avg_hops = |p: f64| {
            let m = SoteriouConfig {
                p,
                ..SoteriouConfig::paper()
            }
            .matrix(&t);
            let mut wsum = 0.0;
            let mut hsum = 0.0;
            for (s, d, r) in m.demands() {
                hsum += r * f64::from(t.coord(s).manhattan(t.coord(d)));
                wsum += r;
            }
            hsum / wsum
        };
        let long = avg_hops(0.02);
        let short = avg_hops(0.5);
        assert!(
            long > short + 2.0,
            "p=0.02 gives {long} hops, p=0.5 gives {short}"
        );
    }

    #[test]
    fn no_self_traffic() {
        let (t, m) = paper_matrix();
        for n in t.nodes() {
            assert_eq!(m.rate(n, n), 0.0);
        }
        let _ = NodeId(0);
    }

    #[test]
    #[should_panic(expected = "p must be in")]
    fn rejects_bad_p() {
        let t = mesh(MeshSpec::paper(LinkTechnology::Electronic));
        let _ = SoteriouConfig {
            p: 0.0,
            ..SoteriouConfig::paper()
        }
        .matrix(&t);
    }
}
