//! Simulation statistics.

/// Sub-bucket resolution: every power-of-two octave of the latency
/// histogram is split into `2^HISTOGRAM_SUB_BITS` linear sub-buckets, so
/// a bucket's relative width — and hence the worst-case percentile error —
/// is `2^-HISTOGRAM_SUB_BITS` (12.5%).
pub const HISTOGRAM_SUB_BITS: u32 = 3;

/// Sub-buckets per octave.
const SUBS: usize = 1 << HISTOGRAM_SUB_BITS;

/// Number of log-linear histogram buckets. Buckets `0..8` hold the exact
/// values 0–7; above that, each octave `[2^k, 2^(k+1))` is split into 8
/// linear sub-buckets. 28 octaves cover latencies below 2^30 cycles;
/// anything larger lands in the open-ended last bucket (resolved against
/// `max` when reporting percentiles).
pub const HISTOGRAM_BUCKETS: usize = 28 * SUBS;

/// Bucket index of a latency value (HDR-style log-linear indexing).
#[inline]
fn bucket_of(latency: u64) -> usize {
    if latency < SUBS as u64 {
        return latency as usize;
    }
    let msb = 63 - latency.leading_zeros() as usize;
    let shift = msb - HISTOGRAM_SUB_BITS as usize;
    let octave = shift + 1;
    let sub = ((latency >> shift) & (SUBS as u64 - 1)) as usize;
    (octave * SUBS + sub).min(HISTOGRAM_BUCKETS - 1)
}

/// Largest latency value that falls into bucket `k`.
#[inline]
fn bucket_upper(k: usize) -> u64 {
    if k < SUBS {
        return k as u64;
    }
    let octave = k / SUBS;
    let sub = (k % SUBS) as u64;
    let width = 1u64 << (octave - 1);
    (SUBS as u64 + sub) * width + width - 1
}

/// Latency accumulator for one packet class, with a log-linear histogram
/// for percentile estimation (p50/p95/p99 within 12.5% without per-packet
/// storage).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStats {
    /// Packets completed.
    pub count: u64,
    /// Sum of packet latencies (injection request → tail ejection), cycles.
    pub sum: u64,
    /// Worst latency observed.
    pub max: u64,
    /// Log-linear bucket counts, always [`HISTOGRAM_BUCKETS`] long. A
    /// `Vec` rather than a 1.8 KB inline array, so `LatencyStats` (held
    /// by `SimStats`, every tenant lane and every sweep point) stays
    /// cheap to move.
    pub histogram: Vec<u64>,
}

impl Default for LatencyStats {
    fn default() -> Self {
        LatencyStats {
            count: 0,
            sum: 0,
            max: 0,
            histogram: vec![0; HISTOGRAM_BUCKETS],
        }
    }
}

impl LatencyStats {
    /// Records one completed packet.
    pub fn record(&mut self, latency: u64) {
        self.count += 1;
        self.sum += latency;
        self.max = self.max.max(latency);
        self.histogram[bucket_of(latency)] += 1;
    }

    /// Mean latency in cycles (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket index holding the q-quantile sample (rank `ceil(q·count)`,
    /// at least 1). `None` when empty.
    fn quantile_bucket(&self, q: f64) -> Option<usize> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (k, &c) in self.histogram.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(k);
            }
        }
        Some(HISTOGRAM_BUCKETS - 1)
    }

    /// Upper bound of the bucket containing the q-quantile (q in 0..=1).
    /// The log-linear buckets bound the true quantile within 12.5%; use
    /// [`percentile`](Self::percentile) for a value clamped to the observed
    /// maximum. The last bucket is open-ended, so its only usable upper
    /// bound is the observed maximum.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        match self.quantile_bucket(q) {
            None => 0,
            Some(k) if k == HISTOGRAM_BUCKETS - 1 => self.max,
            Some(k) => bucket_upper(k),
        }
    }

    /// The q-quantile latency estimate: the containing bucket's upper
    /// bound, clamped to the observed maximum (so `percentile(1.0) == max`
    /// and a single-sample distribution reports that sample exactly).
    pub fn percentile(&self, q: f64) -> u64 {
        self.quantile_upper_bound(q).min(self.max)
    }

    /// Median latency estimate, cycles.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th-percentile latency estimate, cycles.
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th-percentile latency estimate, cycles.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// 99.9th-percentile latency estimate, cycles — the bursty-tail
    /// metric the sweep tables report alongside p99. Below 1000 samples
    /// the 99.9 rank rounds up to the last sample, so `p999() == max`.
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for (a, b) in self.histogram.iter_mut().zip(&other.histogram) {
            *a += b;
        }
    }
}

/// Per-tenant slice of a multi-tenant run's statistics. Tenant traffic
/// is tile-internal by construction ([`hyppi_traffic::TenantSpec`]), so
/// every packet's source and destination share a tenant and each counter
/// below is attributed at the node where the aggregate counter grows —
/// the per-tenant lanes partition the aggregate exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantStats {
    /// Latency over this tenant's completed packets (own histogram, so
    /// per-tenant p99/p99.9 interference curves come for free).
    pub latency: LatencyStats,
    /// Flits this tenant's NICs pushed into the network.
    pub flits_injected: u64,
    /// Flits delivered to this tenant's destinations.
    pub flits_delivered: u64,
    /// Flits ejected inside the acceptance window.
    pub accepted_flits: u64,
}

impl TenantStats {
    /// Merges another run's (or shard's) lane into this one.
    pub fn merge(&mut self, other: &TenantStats) {
        self.latency.merge(&other.latency);
        self.flits_injected += other.flits_injected;
        self.flits_delivered += other.flits_delivered;
        self.accepted_flits += other.accepted_flits;
    }
}

/// Results of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Latency over all packets.
    pub all: LatencyStats,
    /// Latency of 1-flit control packets.
    pub control: LatencyStats,
    /// Latency of multi-flit data packets.
    pub data: LatencyStats,
    /// Cycles simulated.
    pub cycles: u64,
    /// Total flits delivered to their destinations.
    pub flits_delivered: u64,
    /// Total flits pushed into the network by the NICs (emission counter;
    /// with the in-network gauges this gives an independently checkable
    /// flit-conservation ledger: injected = delivered + in-network).
    pub flits_injected: u64,
    /// Flits ejected inside the acceptance window (the measurement window
    /// of a synthetic run; the whole run for traces). Divided by the
    /// window length and the node count this is the *accepted throughput*
    /// — the load the network actually sustained, which under closed-loop
    /// injection flattens at saturation instead of tracking offered load.
    pub accepted_flits: u64,
    /// Peak NIC backlog per source node (packets admitted but not yet
    /// fully emitted), node-id indexed. Under closed-loop injection this
    /// is where overload shows up: the window parks the source and the
    /// backlog grows instead of the network latency.
    pub peak_backlog: Vec<u32>,
    /// Peak closed-loop window occupancy per source node (packets emitted
    /// but not yet fully ejected), node-id indexed. Always bounded by
    /// [`crate::SimConfig::max_outstanding`]; all-zero on open-loop runs
    /// (the window is not tracked there).
    pub peak_outstanding: Vec<u32>,
    /// Flit traversals per link (energy accounting), link-id indexed.
    pub link_flits: Vec<u64>,
    /// Switch traversals per router (energy accounting), node-id indexed.
    pub router_flits: Vec<u64>,
    /// Extra hops taken versus the healthy-mesh route, summed over admitted
    /// packets (clamped at zero per packet). Only counted on fault-aware
    /// runs, where the engine is given the healthy baseline table; always
    /// zero otherwise.
    pub rerouted_hops: u64,
    /// Packets dropped at admission because the routing table has no path
    /// for their (src, dst) pair — traffic to or from dead routers.
    pub unreachable_pairs: u64,
    /// Per-tenant statistic lanes, tenant-id indexed. Empty on
    /// single-tenant runs (the common case); sized by
    /// [`init_tenants`](Self::init_tenants) when the engine is given a
    /// tenant map. The lanes partition the aggregate: summed over tenants
    /// they reproduce `flits_injected` / `flits_delivered` /
    /// `accepted_flits` and the `all` latency class exactly.
    pub tenants: Vec<TenantStats>,
}

impl SimStats {
    /// Creates zeroed stats for a topology of `links` links and `nodes` nodes.
    pub fn new(links: usize, nodes: usize) -> Self {
        SimStats {
            link_flits: vec![0; links],
            router_flits: vec![0; nodes],
            peak_backlog: vec![0; nodes],
            peak_outstanding: vec![0; nodes],
            ..Default::default()
        }
    }

    /// Sizes the per-tenant lanes for a `count`-tenant run (zeroed).
    pub fn init_tenants(&mut self, count: usize) {
        self.tenants = vec![TenantStats::default(); count];
    }

    /// Records one completed packet.
    pub fn record_packet(&mut self, flits: u32, latency: u64) {
        self.all.record(latency);
        if flits == 1 {
            self.control.record(latency);
        } else {
            self.data.record(latency);
        }
    }

    /// Mean packet latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        self.all.mean()
    }

    /// Merges another run's (or shard's) counters into this one: latency
    /// classes, delivered flits, and the per-link / per-router traversal
    /// arrays (which must be same-topology sized). `cycles` is *not*
    /// summed — shards advance in lockstep, so the caller sets the shared
    /// cycle count once.
    pub fn absorb(&mut self, other: &SimStats) {
        assert_eq!(self.link_flits.len(), other.link_flits.len());
        assert_eq!(self.router_flits.len(), other.router_flits.len());
        assert_eq!(self.peak_backlog.len(), other.peak_backlog.len());
        self.all.merge(&other.all);
        self.control.merge(&other.control);
        self.data.merge(&other.data);
        self.flits_delivered += other.flits_delivered;
        self.flits_injected += other.flits_injected;
        self.accepted_flits += other.accepted_flits;
        self.rerouted_hops += other.rerouted_hops;
        self.unreachable_pairs += other.unreachable_pairs;
        for (a, b) in self.link_flits.iter_mut().zip(&other.link_flits) {
            *a += b;
        }
        for (a, b) in self.router_flits.iter_mut().zip(&other.router_flits) {
            *a += b;
        }
        // Each node is owned by exactly one shard, so the elementwise max
        // just picks the owner's observation.
        for (a, b) in self.peak_backlog.iter_mut().zip(&other.peak_backlog) {
            *a = (*a).max(*b);
        }
        for (a, b) in self
            .peak_outstanding
            .iter_mut()
            .zip(&other.peak_outstanding)
        {
            *a = (*a).max(*b);
        }
        // Tenant lanes merge elementwise. A side without lanes (empty) is
        // a zero contribution; with lanes on both sides the tenant counts
        // must agree.
        if self.tenants.is_empty() {
            self.tenants = other.tenants.clone();
        } else if !other.tenants.is_empty() {
            assert_eq!(self.tenants.len(), other.tenants.len());
            for (a, b) in self.tenants.iter_mut().zip(&other.tenants) {
                a.merge(b);
            }
        }
    }

    /// Total flit-link-traversals (flit-hops) — the physical work the
    /// network performed; the simulation-throughput unit reported by
    /// `perfcheck` (Mflit-hops/s).
    pub fn total_flit_hops(&self) -> u64 {
        self.link_flits.iter().sum()
    }

    /// Total switch traversals across all routers.
    pub fn total_router_traversals(&self) -> u64 {
        self.router_flits.iter().sum()
    }

    /// Accepted throughput: flits ejected inside the acceptance window,
    /// per node per window cycle. This is the quantity that flattens at
    /// the saturation point under closed-loop injection.
    pub fn accepted_throughput(&self, nodes: usize, window_cycles: u64) -> f64 {
        if window_cycles == 0 {
            0.0
        } else {
            self.accepted_flits as f64 / window_cycles as f64 / nodes as f64
        }
    }

    /// Delivered throughput in flits per cycle per node.
    pub fn throughput_per_node(&self, nodes: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.flits_delivered as f64 / self.cycles as f64 / nodes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_accumulate() {
        let mut l = LatencyStats::default();
        l.record(10);
        l.record(20);
        assert_eq!(l.count, 2);
        assert_eq!(l.mean(), 15.0);
        assert_eq!(l.max, 20);
    }

    #[test]
    fn packet_classes_split() {
        let mut s = SimStats::new(4, 2);
        s.record_packet(1, 8);
        s.record_packet(32, 40);
        s.record_packet(32, 60);
        assert_eq!(s.control.count, 1);
        assert_eq!(s.data.count, 2);
        assert_eq!(s.all.count, 3);
        assert_eq!(s.data.mean(), 50.0);
    }

    #[test]
    fn absorb_sums_disjoint_shards() {
        // Two shards of the same 4-link / 2-node topology: absorbing one
        // into the other must reproduce a single-engine accumulation.
        let mut a = SimStats::new(4, 2);
        a.record_packet(1, 8);
        a.flits_delivered = 1;
        a.link_flits[0] = 3;
        a.router_flits[0] = 5;
        let mut b = SimStats::new(4, 2);
        b.record_packet(32, 40);
        b.flits_delivered = 32;
        b.link_flits[2] = 7;
        b.router_flits[1] = 9;
        a.absorb(&b);
        assert_eq!(a.all.count, 2);
        assert_eq!(a.control.count, 1);
        assert_eq!(a.data.count, 1);
        assert_eq!(a.flits_delivered, 33);
        assert_eq!(a.link_flits, vec![3, 0, 7, 0]);
        assert_eq!(a.router_flits, vec![5, 9]);
    }

    #[test]
    fn absorb_merges_closed_loop_fields() {
        // Counters sum; per-node peaks take the owning shard's value
        // (disjoint ownership means the other shard reports zero).
        let mut a = SimStats::new(1, 3);
        a.flits_injected = 10;
        a.accepted_flits = 6;
        a.peak_backlog[0] = 4;
        a.peak_outstanding[0] = 2;
        let mut b = SimStats::new(1, 3);
        b.flits_injected = 5;
        b.accepted_flits = 3;
        b.peak_backlog[2] = 7;
        b.peak_outstanding[2] = 1;
        a.rerouted_hops = 2;
        a.unreachable_pairs = 1;
        b.rerouted_hops = 3;
        b.unreachable_pairs = 4;
        a.absorb(&b);
        assert_eq!(a.flits_injected, 15);
        assert_eq!(a.accepted_flits, 9);
        assert_eq!(a.rerouted_hops, 5);
        assert_eq!(a.unreachable_pairs, 5);
        assert_eq!(a.peak_backlog, vec![4, 0, 7]);
        assert_eq!(a.peak_outstanding, vec![2, 0, 1]);
        assert_eq!(a.accepted_throughput(3, 3), 1.0);
        assert_eq!(SimStats::new(1, 1).accepted_throughput(1, 0), 0.0);
    }

    #[test]
    fn absorb_merges_tenant_lanes() {
        let mut a = SimStats::new(1, 2);
        a.init_tenants(2);
        a.tenants[0].latency.record(10);
        a.tenants[0].flits_injected = 4;
        a.tenants[0].flits_delivered = 3;
        a.tenants[1].accepted_flits = 2;
        let mut b = SimStats::new(1, 2);
        b.init_tenants(2);
        b.tenants[0].latency.record(30);
        b.tenants[0].flits_injected = 1;
        b.tenants[1].flits_delivered = 5;
        b.tenants[1].accepted_flits = 6;
        a.absorb(&b);
        assert_eq!(a.tenants[0].latency.count, 2);
        assert_eq!(a.tenants[0].latency.max, 30);
        assert_eq!(a.tenants[0].flits_injected, 5);
        assert_eq!(a.tenants[0].flits_delivered, 3);
        assert_eq!(a.tenants[1].flits_delivered, 5);
        assert_eq!(a.tenants[1].accepted_flits, 8);
        // Absorbing a lane-less run leaves the lanes untouched; absorbing
        // lanes into a lane-less run adopts them.
        let before = a.tenants.clone();
        a.absorb(&SimStats::new(1, 2));
        assert_eq!(a.tenants, before);
        let mut fresh = SimStats::new(1, 2);
        fresh.absorb(&a);
        assert_eq!(fresh.tenants, before);
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyStats::default();
        a.record(10);
        let mut b = LatencyStats::default();
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count, 2);
        assert_eq!(a.mean(), 20.0);
        assert_eq!(a.max, 30);
        assert_eq!(a.histogram.iter().sum::<u64>(), 2);
        // Merged percentiles see both samples.
        assert_eq!(a.percentile(1.0), 30);
    }

    #[test]
    fn buckets_are_exact_below_eight() {
        let mut l = LatencyStats::default();
        for v in 1..8u64 {
            l.record(v);
        }
        for v in 1..8usize {
            assert_eq!(l.histogram[v], 1);
        }
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        // Every bucket's upper bound maps back into that bucket, and the
        // value one above it maps into the next.
        for k in 1..HISTOGRAM_BUCKETS - 1 {
            let hi = bucket_upper(k);
            assert_eq!(bucket_of(hi), k, "upper({k}) = {hi}");
            assert_eq!(bucket_of(hi + 1), k + 1, "upper({k})+1 = {}", hi + 1);
        }
        // The last bucket is open-ended.
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn log_linear_resolution_bounds_error() {
        // The bucket containing v is never wider than v/8 (12.5%).
        for v in [9u64, 100, 1000, 12345, 1 << 20] {
            let k = bucket_of(v);
            let hi = bucket_upper(k);
            let lo = if k == 0 { 0 } else { bucket_upper(k - 1) + 1 };
            assert!(lo <= v && v <= hi, "{v} in [{lo}, {hi}]");
            assert!(
                (hi - lo + 1) as f64 <= v as f64 / 8.0 + 1.0,
                "{v}: width {}",
                hi - lo + 1
            );
        }
    }

    #[test]
    fn quantiles_bound_the_distribution() {
        let mut l = LatencyStats::default();
        for v in [4u64, 5, 6, 7, 100] {
            l.record(v);
        }
        // 80% of packets are ≤ 7; values below 8 are bucketed exactly.
        assert_eq!(l.quantile_upper_bound(0.8), 7);
        // p100 covers the 100-cycle straggler: bucket [96, 103] clamps to
        // the observed max.
        assert_eq!(l.quantile_upper_bound(1.0), 103);
        assert_eq!(l.percentile(1.0), 100);
        assert_eq!(LatencyStats::default().quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut l = LatencyStats::default();
        for v in 1..=1000u64 {
            l.record(v);
        }
        let mut prev = 0;
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let p = l.percentile(q);
            assert!(p >= prev, "percentile({q}) = {p} < {prev}");
            prev = p;
        }
        assert_eq!(l.percentile(1.0), 1000);
        // p50 of 1..=1000 is ~500; log-linear error is bounded by 12.5%.
        let p50 = l.p50() as f64;
        assert!((500.0..=570.0).contains(&p50), "p50 {p50}");
        let p99 = l.p99() as f64;
        assert!((990.0..=1000.0 * 1.125).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn open_ended_last_bucket_reports_max() {
        // Values past the covered range land in the clamped last bucket;
        // its only honest upper bound is the observed maximum.
        let mut l = LatencyStats::default();
        l.record(1 << 31);
        assert_eq!(l.histogram[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(l.percentile(1.0), 1 << 31);
        assert_eq!(l.quantile_upper_bound(0.5), 1 << 31);
    }

    #[test]
    fn percentile_edge_cases() {
        // Empty: every quantile is 0.
        let empty = LatencyStats::default();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(empty.percentile(q), 0);
        }
        // Single sample: every quantile is that sample, exactly.
        let mut one = LatencyStats::default();
        one.record(37);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.percentile(q), 37, "q={q}");
        }
        assert_eq!(one.p50(), 37);
        assert_eq!(one.p99(), 37);
        assert_eq!(one.p999(), 37);
    }

    #[test]
    fn p999_tracks_the_extreme_tail() {
        // Below 1000 samples the 99.9 rank rounds up to the last sample.
        let mut small = LatencyStats::default();
        for v in [5u64, 6, 7, 500] {
            small.record(v);
        }
        assert_eq!(small.p999(), 500);
        assert!(small.p999() >= small.p99());
        // 10_000 samples with a just-over-1-per-mille straggler
        // population (rank 9990 of 10_000 must fall *inside* the
        // stragglers): p99 stays in the bulk, p999 reaches them.
        let mut l = LatencyStats::default();
        for _ in 0..9989 {
            l.record(10);
        }
        for _ in 0..11 {
            l.record(5000);
        }
        assert_eq!(l.p99(), 10);
        assert_eq!(l.p999(), 5000);
        assert!(l.p999() <= l.max);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn rejects_bad_quantile() {
        LatencyStats::default().quantile_upper_bound(1.5);
    }

    #[test]
    fn empty_mean_is_zero() {
        assert_eq!(LatencyStats::default().mean(), 0.0);
        assert_eq!(SimStats::new(1, 1).throughput_per_node(1), 0.0);
    }
}
