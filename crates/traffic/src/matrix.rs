//! Dense source-destination traffic rate matrices.

use hyppi_topology::NodeId;

/// An N×N matrix of flit rates (flits per cycle) between node pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficMatrix {
    n: usize,
    rates: Vec<f64>,
}

impl TrafficMatrix {
    /// Creates an all-zero matrix for `n` nodes.
    pub fn zero(n: usize) -> Self {
        TrafficMatrix {
            n,
            rates: vec![0.0; n * n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    #[inline]
    fn idx(&self, src: NodeId, dst: NodeId) -> usize {
        src.index() * self.n + dst.index()
    }

    /// Rate from `src` to `dst`, flits per cycle.
    #[inline]
    pub fn rate(&self, src: NodeId, dst: NodeId) -> f64 {
        self.rates[self.idx(src, dst)]
    }

    /// Sets the rate for a pair. Self-traffic is silently dropped.
    pub fn set(&mut self, src: NodeId, dst: NodeId, rate: f64) {
        debug_assert!(rate >= 0.0 && rate.is_finite());
        if src != dst {
            let i = self.idx(src, dst);
            self.rates[i] = rate;
        }
    }

    /// Adds to the rate for a pair. Self-traffic is silently dropped.
    pub fn add(&mut self, src: NodeId, dst: NodeId, rate: f64) {
        debug_assert!(rate >= 0.0 && rate.is_finite());
        if src != dst {
            let i = self.idx(src, dst);
            self.rates[i] += rate;
        }
    }

    /// Scales every rate by a factor (e.g. sweeping the injection rate).
    pub fn scaled(&self, factor: f64) -> Self {
        TrafficMatrix {
            n: self.n,
            rates: self.rates.iter().map(|r| r * factor).collect(),
        }
    }

    /// Iterates over all nonzero `(src, dst, rate)` demands.
    pub fn demands(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.rates
            .iter()
            .enumerate()
            .filter(|&(_i, &r)| r > 0.0)
            .map(|(i, &r)| (NodeId((i / self.n) as u16), NodeId((i % self.n) as u16), r))
    }

    /// Total injection rate of a node, flits per cycle.
    pub fn injection_rate(&self, src: NodeId) -> f64 {
        let base = src.index() * self.n;
        self.rates[base..base + self.n].iter().sum()
    }

    /// Total flits injected per cycle across the network.
    pub fn total_injection(&self) -> f64 {
        self.rates.iter().sum()
    }

    /// Mean per-node injection rate.
    pub fn mean_injection(&self) -> f64 {
        self.total_injection() / self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get() {
        let mut m = TrafficMatrix::zero(4);
        m.set(NodeId(0), NodeId(3), 0.25);
        assert_eq!(m.rate(NodeId(0), NodeId(3)), 0.25);
        assert_eq!(m.rate(NodeId(3), NodeId(0)), 0.0);
    }

    #[test]
    fn self_traffic_dropped() {
        let mut m = TrafficMatrix::zero(4);
        m.set(NodeId(1), NodeId(1), 0.9);
        m.add(NodeId(2), NodeId(2), 0.9);
        assert_eq!(m.total_injection(), 0.0);
    }

    #[test]
    fn injection_sums_per_row() {
        let mut m = TrafficMatrix::zero(3);
        m.set(NodeId(0), NodeId(1), 0.1);
        m.set(NodeId(0), NodeId(2), 0.2);
        m.set(NodeId(1), NodeId(0), 0.4);
        assert!((m.injection_rate(NodeId(0)) - 0.3).abs() < 1e-12);
        assert!((m.total_injection() - 0.7).abs() < 1e-12);
        assert!((m.mean_injection() - 0.7 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn scaling_is_linear() {
        let mut m = TrafficMatrix::zero(3);
        m.set(NodeId(0), NodeId(1), 0.1);
        let s = m.scaled(3.0);
        assert!((s.rate(NodeId(0), NodeId(1)) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn demands_iterates_nonzero() {
        let mut m = TrafficMatrix::zero(3);
        m.set(NodeId(2), NodeId(0), 0.5);
        let d: Vec<_> = m.demands().collect();
        assert_eq!(d, vec![(NodeId(2), NodeId(0), 0.5)]);
    }
}
