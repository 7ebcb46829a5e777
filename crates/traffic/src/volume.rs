//! Communication-volume aggregation.
//!
//! The paper's energy methodology (§IV): "we obtain the dynamic energy
//! consumption per flit from our modified DSENT, and use it to compute the
//! total dynamic energy based on the communication volume and the network
//! paths taken by the flits." [`CommVolume`] is that communication volume —
//! total flits per source-destination pair for a full benchmark run, plus
//! the communication-active wall time for time-based charges.

use hyppi_topology::NodeId;

/// Flit counts per source-destination pair for a full application run.
#[derive(Debug, Clone, PartialEq)]
pub struct CommVolume {
    n: usize,
    flits: Vec<u64>,
    /// Communication-active wall time of the run, seconds.
    pub comm_wall_seconds: f64,
}

impl CommVolume {
    /// Creates an empty volume for `n` nodes.
    pub fn zero(n: usize, comm_wall_seconds: f64) -> Self {
        CommVolume {
            n,
            flits: vec![0; n * n],
            comm_wall_seconds,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Adds flits for a pair. Self-traffic is dropped.
    pub fn add(&mut self, src: NodeId, dst: NodeId, flits: u64) {
        if src != dst {
            self.flits[src.index() * self.n + dst.index()] += flits;
        }
    }

    /// Flits sent from `src` to `dst` over the whole run.
    #[inline]
    pub fn get(&self, src: NodeId, dst: NodeId) -> u64 {
        self.flits[src.index() * self.n + dst.index()]
    }

    /// Total flits across all pairs.
    pub fn total_flits(&self) -> u64 {
        self.flits.iter().sum()
    }

    /// Iterates nonzero `(src, dst, flits)` entries.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.flits
            .iter()
            .enumerate()
            .filter(|&(_i, &f)| f > 0)
            .map(|(i, &f)| (NodeId((i / self.n) as u16), NodeId((i % self.n) as u16), f))
    }

    /// Mean hop-weighted quantity: `Σ flits(s,d)·w(s,d) / Σ flits`, for an
    /// arbitrary per-pair weight (hops, latency, …).
    pub fn weighted_mean(&self, mut weight: impl FnMut(NodeId, NodeId) -> f64) -> f64 {
        let mut wsum = 0.0;
        let mut fsum = 0.0;
        for (s, d, f) in self.pairs() {
            wsum += f as f64 * weight(s, d);
            fsum += f as f64;
        }
        if fsum == 0.0 {
            0.0
        } else {
            wsum / fsum
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_totals() {
        let mut v = CommVolume::zero(4, 0.5);
        v.add(NodeId(0), NodeId(1), 100);
        v.add(NodeId(0), NodeId(1), 50);
        v.add(NodeId(2), NodeId(3), 8);
        assert_eq!(v.get(NodeId(0), NodeId(1)), 150);
        assert_eq!(v.total_flits(), 158);
        assert_eq!(v.pairs().count(), 2);
    }

    #[test]
    fn drops_self_traffic() {
        let mut v = CommVolume::zero(4, 0.0);
        v.add(NodeId(1), NodeId(1), 99);
        assert_eq!(v.total_flits(), 0);
    }

    #[test]
    fn weighted_mean_weights_by_flits() {
        let mut v = CommVolume::zero(3, 0.0);
        v.add(NodeId(0), NodeId(1), 10); // weight 1
        v.add(NodeId(0), NodeId(2), 30); // weight 2
        let mean = v.weighted_mean(|_, d| f64::from(d.0));
        assert!((mean - (10.0 + 60.0) / 40.0).abs() < 1e-12);
    }

    #[test]
    fn empty_weighted_mean_is_zero() {
        let v = CommVolume::zero(3, 0.0);
        assert_eq!(v.weighted_mean(|_, _| 100.0), 0.0);
    }
}
