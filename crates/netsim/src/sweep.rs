//! Load sweeps, saturation search, and the parallel batch runner.
//!
//! The paper's headline results are latency-vs-load curves and saturation
//! throughput; this module turns the single-run
//! [`Simulator`](crate::Simulator) into a batch instrument:
//!
//! * [`parallel_map`] — the workspace's scoped-thread fan-out (moved here
//!   from `hyppi-analytic`, which re-exports it, so the simulator crate
//!   can batch its own runs without a dependency cycle);
//! * [`SweepRunner`] — fans independent synthetic runs (injection-rate
//!   grid × seeds) across threads and merges each rate's seeds into one
//!   [`LoadPoint`] with mean/p50/p95/p99 latency and accepted throughput;
//! * [`SweepRunner::find_saturation`] — bisection search for the smallest
//!   offered load whose mean latency exceeds a configured multiple of the
//!   zero-load latency (or whose run no longer completes).
//!
//! The [`SweepConfig`] knobs compose: [`SweepConfig::with_shards`]
//! routes every run through the sharded engine (opening 32×32+ meshes)
//! and [`SweepConfig::closed_loop`] switches every run to credit-limited
//! NICs — together they power `repro load_sweep32 --closed-loop WINDOW
//! --shards P`, the large-mesh accepted-load curves. Results are
//! bit-for-bit independent of either knob's wall-clock effect.
//!
//! ## Warm-start sweeps
//!
//! By default the runner pays the warm-up phase **once per (pattern,
//! seed)** instead of once per rate-grid point: it runs the anchor
//! matrix (the pattern at [`SweepConfig::zero_load_rate`]) up to the
//! warm-up boundary, snapshots the engine there (a run paused with
//! [`RunOpts::stop_at`](crate::RunOpts::stop_at)), and resumes that
//! [`Snapshot`] ([`RunOpts::resume`](crate::RunOpts::resume)) for every
//! probed rate — the
//! measurement window then runs under the point's own matrix (the
//! snapshot workload fingerprint deliberately excludes the matrix to
//! permit exactly this rate switch). Anchors are
//! cached per pattern inside the runner, so a grid and the saturation
//! bisection that follows share them. [`SweepConfig::cold`] restores
//! the one-warm-up-per-point protocol; [`SweepRunner::run_point`] is
//! always cold so single-point probes (e.g. the public zero-load
//! latency) never depend on cache state. At the anchor rate itself a
//! warm point is bit-for-bit identical to a cold one (resuming a run's
//! own pause is exact); at other rates the two protocols differ only in
//! the pre-measurement traffic history, identically across engines and
//! shard counts.
//!
//! Every run is deterministic given its seed, so sweep results — including
//! the bisection trajectory — are bit-for-bit reproducible.

use crate::config::SimConfig;
use crate::shard::ShardedSimulator;
use crate::sim::{RunOpts, RunOutcome, SimError, Workload};
use crate::snapshot::Snapshot;
use crate::stats::LatencyStats;
use crate::telemetry::{NoopProbe, Probe};
use hyppi_topology::{FaultSpec, NodeId, RoutingTable, ShardSpec, Topology};
use hyppi_traffic::{BurstSpec, TenantMap, TenantSpec, TrafficMatrix};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Applies `f` to every item on a pool of scoped worker threads, returning
/// outputs in input order.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    // Work queue: job indices claimed atomically; items handed out through
    // per-slot mutexes so workers can take them by value.
    let jobs = AtomicUsize::new(0);
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = jobs.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = items[i]
                    .lock()
                    .expect("item mutex not poisoned")
                    .take()
                    .expect("each job index is claimed exactly once");
                let out = f(item);
                *slots[i].lock().expect("slot mutex not poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot mutex not poisoned")
                .expect("every index produced a result")
        })
        .collect()
}

/// Sweep run-control parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Injection cycles discarded before measurement starts.
    pub warmup: u64,
    /// Measured injection cycles per run.
    pub measure: u64,
    /// RNG seeds; each offered load runs once per seed and the seeds'
    /// statistics are merged.
    pub seeds: Vec<u64>,
    /// A load is saturated when its mean latency exceeds
    /// `sat_multiple × zero-load latency` (or a run hits the cycle cap).
    pub sat_multiple: f64,
    /// Offered load used to probe the zero-load latency.
    pub zero_load_rate: f64,
    /// Bisection terminates when the load bracket is narrower than this.
    pub tolerance: f64,
    /// Per-run cycle cap; hitting it marks the point unstable.
    pub run_max_cycles: u64,
    /// Shards per run: 1 (default) uses the single-shard engine; > 1
    /// partitions each run across a near-square shard grid
    /// ([`ShardSpec::for_count`]). Results are bit-for-bit identical
    /// either way — this is a wall-clock knob for large meshes (32×32+).
    pub shards: usize,
    /// Worker threads per sharded run: 0 (default) runs one worker per
    /// shard; 1 keeps intra-run execution on the batch worker's thread
    /// (useful when the seed × rate fan-out already saturates the host).
    pub threads: usize,
    /// Conservative-lookahead cap per sharded run: 0 (default) keeps
    /// the window the partition derives from its minimum boundary-link
    /// latency; 1 forces per-cycle exchanges (the pre-lookahead
    /// engine); ≥ 2 caps the derived window. Results are bit-for-bit
    /// identical at any setting — another wall-clock knob.
    pub lookahead: u64,
    /// Closed-loop NIC window per run: 0 (default) is open-loop
    /// injection; > 0 caps each source at that many in-network packets
    /// (see [`crate::SimConfig::max_outstanding`]). Closed-loop sweeps
    /// measure *network* latency and an accepted-load curve that
    /// flattens at saturation instead of diverging.
    pub max_outstanding: usize,
    /// Closed-loop saturation criterion: a load is saturated once its
    /// accepted throughput falls below `(1 - accept_epsilon) ×` the
    /// offered load — i.e. the marginal accepted-per-offered has
    /// collapsed and the accepted curve has hit its plateau. Unused
    /// open-loop (there the latency multiple is the criterion).
    pub accept_epsilon: f64,
    /// Fault set applied to the (healthy) sweep topology: every run then
    /// simulates the faulted mesh with fault-avoiding up*/down* routes,
    /// charging `SimStats::rerouted_hops` against the healthy baseline.
    /// `None` (default) sweeps the topology as given.
    pub faults: Option<FaultSpec>,
    /// Temporal injection modulation applied to every run (see
    /// [`crate::SimConfig::burst`]): [`BurstSpec::Steady`] (default)
    /// keeps plain Bernoulli injection; ON/OFF and MMPP shapes burst the
    /// same mean load. Orthogonal to the spatial pattern — the pattern
    /// decides *where*, the burst process decides *when*.
    pub burst: BurstSpec,
    /// Multi-tenant partitioning: `Some` co-schedules the spec's
    /// workloads on disjoint mesh tiles and every [`LoadPoint`] gains
    /// per-tenant lanes. `None` (default) sweeps single-tenant.
    pub tenants: Option<TenantSpec>,
    /// `true` re-runs the warm-up phase for every rate-grid point (the
    /// pre-snapshot protocol); `false` (default) warm-starts each point
    /// from a cached post-warm-up [`Snapshot`] of the pattern's anchor
    /// run, paying warm-up once per seed instead of once per point (see
    /// the module docs). Warm runs stay fully deterministic and
    /// engine/shard-count independent.
    pub cold: bool,
}

impl SweepConfig {
    /// Defaults sized for the paper's 16×16 mesh: 500 warm-up + 2000
    /// measured cycles, two seeds, saturation at 3× zero-load latency.
    pub fn paper() -> Self {
        SweepConfig {
            warmup: 500,
            measure: 2000,
            seeds: vec![11, 42],
            sat_multiple: 3.0,
            zero_load_rate: 0.005,
            tolerance: 0.01,
            run_max_cycles: 2_000_000,
            shards: 1,
            threads: 0,
            lookahead: 0,
            max_outstanding: 0,
            accept_epsilon: 0.05,
            faults: None,
            burst: BurstSpec::Steady,
            tenants: None,
            cold: false,
        }
    }

    /// Routes every run through the sharded engine with a near-square
    /// grid of `shards` tiles.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard required");
        self.shards = shards;
        self
    }

    /// Caps the conservative-lookahead window of every sharded run
    /// (see [`SweepConfig::lookahead`]).
    pub fn with_lookahead(mut self, window: u64) -> Self {
        self.lookahead = window;
        self
    }

    /// Switches every run to closed-loop injection with a per-source
    /// window of `window` outstanding packets.
    pub fn closed_loop(mut self, window: usize) -> Self {
        assert!(window >= 1, "closed-loop window must admit a packet");
        self.max_outstanding = window;
        self
    }

    /// Applies a fault set to every run of the sweep (see
    /// [`SweepConfig::faults`]). [`SweepRunner::new`] panics if the spec
    /// disconnects live routers — resilience samplers draw a fresh seed
    /// in that case.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// Applies a temporal burst process to every run's injection (see
    /// [`SweepConfig::burst`]).
    pub fn burstiness(mut self, spec: BurstSpec) -> Self {
        spec.validate();
        self.burst = spec;
        self
    }

    /// Co-schedules the spec's workloads as tenants on disjoint mesh
    /// tiles (see [`SweepConfig::tenants`]).
    pub fn with_tenants(mut self, spec: TenantSpec) -> Self {
        self.tenants = Some(spec);
        self
    }

    /// Disables warm-start: every rate-grid point re-runs its own
    /// warm-up phase (see [`SweepConfig::cold`]).
    pub fn cold(mut self) -> Self {
        self.cold = true;
        self
    }

    /// A cheap variant for CI smoke runs and unit tests: shorter windows,
    /// one seed, coarser bisection.
    pub fn quick() -> Self {
        SweepConfig {
            warmup: 200,
            measure: 800,
            seeds: vec![11],
            tolerance: 0.04,
            ..Self::paper()
        }
    }
}

/// One measured point of a load-latency curve (all seeds merged).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPoint {
    /// Mean offered load, flits per node per cycle.
    pub offered: f64,
    /// Merged latency statistics of every completed seed run.
    pub latency: LatencyStats,
    /// Measured-packet throughput: measured flits delivered per node per
    /// measured injection cycle, averaged over completed seeds. Every
    /// admitted packet eventually completes (the network drains before a
    /// run finishes), so this tracks the offered load for every
    /// completed run regardless of injection mode; it only drops below
    /// it when a run hits the cycle cap.
    pub throughput: f64,
    /// Accepted throughput: flits ejected *inside the measurement
    /// window* per node per window cycle, averaged over completed seeds
    /// ([`crate::SimStats::accepted_flits`]). Below saturation this
    /// tracks the offered load; past it, it plateaus at the network's
    /// sustainable rate — under closed-loop injection this is the curve
    /// that flattens while open-loop offered load keeps rising, and it
    /// is the saturation criterion of closed-loop searches.
    pub accepted: f64,
    /// Total cycles simulated across completed seed runs (simulation-cost
    /// accounting for `perfcheck`).
    pub cycles: u64,
    /// Seeds that completed within the cycle cap.
    pub completed_runs: u32,
    /// False when any seed hit the cycle cap (overloaded/unstable).
    pub stable: bool,
    /// Extra hops versus the healthy baseline, summed over completed
    /// seeds (zero on healthy sweeps — see `SimStats::rerouted_hops`).
    pub rerouted_hops: u64,
    /// Packets dropped at admission for lack of a route, summed over
    /// completed seeds (see `SimStats::unreachable_pairs`).
    pub unreachable_pairs: u64,
    /// Per-tenant lanes, tenant-id indexed. Empty on single-tenant
    /// sweeps — every pre-existing field above keeps its meaning (they
    /// aggregate over all tenants).
    pub tenants: Vec<TenantLoadPoint>,
}

/// One tenant's slice of a [`LoadPoint`] (all seeds merged).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantLoadPoint {
    /// Merged latency statistics of the tenant's measured packets.
    pub latency: LatencyStats,
    /// Measured-packet throughput per tenant node per measured cycle.
    pub throughput: f64,
    /// Accepted throughput per tenant node per window cycle.
    pub accepted: f64,
}

impl LoadPoint {
    /// Mean packet latency, cycles.
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }
}

/// Outcome of a bisection saturation search.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturationSearch {
    /// Mean latency at the zero-load probe rate, cycles.
    pub zero_load_latency: f64,
    /// Latency threshold that defines saturation, cycles.
    pub threshold: f64,
    /// Smallest probed load observed saturated. When
    /// [`saturated_in_range`](Self::saturated_in_range) is false the
    /// network never crossed the threshold and this holds the search's
    /// upper rate bound.
    pub saturation_load: f64,
    /// Highest probed load still below the threshold.
    pub last_stable_load: f64,
    /// Whether the threshold was crossed within the searched range.
    pub saturated_in_range: bool,
    /// Simulation runs spent (probes × seeds).
    pub runs: u32,
}

/// One latency-throughput curve: a measured rate grid plus the saturation
/// search outcome for the same traffic pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadCurve {
    /// Pattern / topology label.
    pub label: String,
    /// Measured grid points, in offered-load order.
    pub points: Vec<LoadPoint>,
    /// Saturation search outcome.
    pub saturation: SaturationSearch,
}

/// Batch runner: fans independent [`Simulator`](crate::Simulator) runs
/// over a rate grid × seed matrix via [`parallel_map`] and reduces them
/// to [`LoadPoint`]s.
///
/// The traffic pattern is supplied as a rate → [`TrafficMatrix`] generator
/// (see `hyppi_traffic::SyntheticPattern`), so the same runner sweeps
/// uniform, transpose, Soteriou or NPB-shaped loads.
pub struct SweepRunner<'a> {
    topo: &'a Topology,
    routes: &'a RoutingTable,
    /// Faulted topology + fault-avoiding routes when [`SweepConfig::faults`]
    /// is set; runs then simulate these, with `(topo, routes)` installed as
    /// the healthy baseline for `SimStats::rerouted_hops`.
    faulted: Option<(Topology, RoutingTable)>,
    sim: SimConfig,
    cfg: SweepConfig,
    /// Resolved tenant ownership when [`SweepConfig::tenants`] is set:
    /// attached to every run, and its per-tile node counts normalize the
    /// per-tenant throughput columns.
    tenant_map: Option<TenantMap>,
    /// Post-warm-up anchor snapshots, one per seed, keyed by the anchor
    /// matrix's content hash — one entry per traffic pattern swept
    /// through this runner, shared between `run_grid` and the
    /// saturation bisection (see the module docs on warm-start).
    anchors: Mutex<HashMap<u64, Arc<Vec<Snapshot>>>>,
}

/// FNV-1a over a matrix's shape and rate bit patterns: the anchor-cache
/// key that distinguishes traffic patterns swept through one runner.
fn matrix_key(m: &TrafficMatrix) -> u64 {
    fn eat(mut h: u64, v: u64) -> u64 {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
    let n = m.num_nodes();
    let mut h = eat(0xcbf2_9ce4_8422_2325, n as u64);
    for s in 0..n {
        for d in 0..n {
            h = eat(h, m.rate(NodeId(s as u16), NodeId(d as u16)).to_bits());
        }
    }
    h
}

impl<'a> SweepRunner<'a> {
    /// Builds a runner. `sim.max_cycles` is replaced by the sweep's
    /// per-run cap.
    pub fn new(
        topo: &'a Topology,
        routes: &'a RoutingTable,
        mut sim: SimConfig,
        cfg: SweepConfig,
    ) -> Self {
        assert!(!cfg.seeds.is_empty(), "at least one seed required");
        assert!(cfg.measure > 0, "measurement window must be non-empty");
        assert!(cfg.sat_multiple > 1.0, "saturation multiple must exceed 1");
        assert!(
            cfg.zero_load_rate > 0.0 && cfg.tolerance > 0.0,
            "rates must be positive"
        );
        assert!(
            (0.0..1.0).contains(&cfg.accept_epsilon),
            "accept_epsilon must be in [0, 1)"
        );
        sim.max_cycles = cfg.run_max_cycles;
        sim.max_outstanding = cfg.max_outstanding;
        sim.burst = cfg.burst;
        let tenant_map = cfg.tenants.as_ref().map(|t| t.map(topo));
        let faulted = match &cfg.faults {
            Some(spec) if !spec.is_empty() => {
                let ft = spec.apply(topo);
                let fr = RoutingTable::compute_xy_avoiding(&ft)
                    .unwrap_or_else(|e| panic!("fault spec disconnects the sweep mesh: {e}"));
                Some((ft, fr))
            }
            _ => None,
        };
        SweepRunner {
            topo,
            routes,
            faulted,
            sim,
            cfg,
            tenant_map,
            anchors: Mutex::new(HashMap::new()),
        }
    }

    /// The sweep configuration in force.
    pub fn config(&self) -> &SweepConfig {
        &self.cfg
    }

    /// One synthetic run of this sweep under `matrix` on a fresh engine —
    /// the run path of every point, anchor and recorded run. Faulted
    /// sweeps simulate the faulted pair with the healthy pair as the
    /// rerouted-hops baseline; `shards = 1` builds the single-shard
    /// partition, the same engine as [`crate::Simulator`]. `opts` pauses
    /// the run at the warm-up boundary (the anchor-producing run of a
    /// warm sweep) or resumes a seed's anchor (the measurement leg of a
    /// warm point).
    fn run_one<P: Probe>(
        &self,
        matrix: &TrafficMatrix,
        seed: u64,
        opts: RunOpts<'_>,
        probe: &mut P,
    ) -> Result<RunOutcome, SimError> {
        let (topo, routes) = match &self.faulted {
            Some((t, r)) => (t, r),
            None => (self.topo, self.routes),
        };
        let mut sim = ShardedSimulator::new(
            topo,
            routes,
            self.sim,
            ShardSpec::for_count(self.cfg.shards),
        )
        .with_threads(self.cfg.threads)
        .with_lookahead(self.cfg.lookahead);
        if self.faulted.is_some() {
            sim = sim.with_baseline(self.topo, self.routes);
        }
        if let Some(tm) = &self.tenant_map {
            sim = sim.with_tenants(tm);
        }
        let workload = Workload::Synthetic {
            matrix,
            warmup: self.cfg.warmup,
            measure: self.cfg.measure,
            seed,
        };
        sim.run(workload, opts, probe)
    }

    /// Returns the pattern's per-seed anchor snapshots (building and
    /// caching them on first use), or `None` when the sweep must run
    /// cold: [`SweepConfig::cold`] is set, there is no warm-up phase to
    /// amortize, or an anchor run ended before the warm-up boundary
    /// (a cycle cap below `warmup`).
    fn warm_anchors<G>(&self, gen: &G) -> Option<Arc<Vec<Snapshot>>>
    where
        G: Fn(f64) -> TrafficMatrix + Sync,
    {
        if self.cfg.cold || self.cfg.warmup == 0 {
            return None;
        }
        let anchor = gen(self.cfg.zero_load_rate);
        let key = matrix_key(&anchor);
        if let Some(a) = self
            .anchors
            .lock()
            .expect("anchor cache not poisoned")
            .get(&key)
        {
            return Some(Arc::clone(a));
        }
        let until = RunOpts {
            stop_at: self.cfg.warmup,
            ..RunOpts::default()
        };
        let outcomes = parallel_map(self.cfg.seeds.clone(), |seed| {
            self.run_one(&anchor, seed, until, &mut NoopProbe)
        });
        let mut snaps = Vec::with_capacity(outcomes.len());
        for out in outcomes {
            match out {
                Ok(RunOutcome::Paused(s)) => snaps.push(s),
                _ => return None,
            }
        }
        let arc = Arc::new(snaps);
        self.anchors
            .lock()
            .expect("anchor cache not poisoned")
            .insert(key, Arc::clone(&arc));
        Some(arc)
    }

    /// One merged point, warm when anchors are available.
    fn probe_point(&self, anchors: Option<&[Snapshot]>, matrix: &TrafficMatrix) -> LoadPoint {
        let jobs: Vec<(usize, u64)> = self.cfg.seeds.iter().copied().enumerate().collect();
        let outcomes = parallel_map(jobs, |(si, seed)| {
            let opts = RunOpts {
                resume: anchors.map(|a| &a[si]),
                ..RunOpts::default()
            };
            self.run_one(matrix, seed, opts, &mut NoopProbe)
        });
        self.reduce(matrix.mean_injection(), outcomes)
    }

    /// Reduces per-seed outcomes for one offered load to a [`LoadPoint`]
    /// (none of them paused: every run here goes to completion).
    fn reduce(&self, offered: f64, outcomes: Vec<Result<RunOutcome, SimError>>) -> LoadPoint {
        let nodes = self.topo.num_nodes() as f64;
        let mut latency = LatencyStats::default();
        let mut completed = 0u32;
        let mut cycles = 0u64;
        let mut accepted_flits = 0u64;
        let mut rerouted_hops = 0u64;
        let mut unreachable_pairs = 0u64;
        let ntenants = self.tenant_map.as_ref().map_or(0, |tm| tm.tenants);
        let mut lanes = vec![TenantLoadPoint::default(); ntenants];
        let mut lane_accepted = vec![0u64; ntenants];
        for out in &outcomes {
            let Ok(RunOutcome::Finished(stats)) = out else {
                continue;
            };
            latency.merge(&stats.all);
            cycles += stats.cycles;
            accepted_flits += stats.accepted_flits;
            rerouted_hops += stats.rerouted_hops;
            unreachable_pairs += stats.unreachable_pairs;
            for (t, lane) in stats.tenants.iter().enumerate() {
                lanes[t].latency.merge(&lane.latency);
                lane_accepted[t] += lane.accepted_flits;
            }
            completed += 1;
        }
        let stable = completed as usize == outcomes.len();
        // Synthetic packets are 1 flit, so measured packets = measured
        // flits; normalize by the measured injection window.
        let (throughput, accepted) = if completed == 0 {
            (0.0, 0.0)
        } else {
            let window = f64::from(completed) * self.cfg.measure as f64 * nodes;
            (
                latency.count as f64 / window,
                accepted_flits as f64 / window,
            )
        };
        if completed > 0 {
            if let Some(tm) = &self.tenant_map {
                let mut tile_nodes = vec![0u64; ntenants];
                for &t in &tm.tenant_of_node {
                    tile_nodes[usize::from(t)] += 1;
                }
                for (t, lane) in lanes.iter_mut().enumerate() {
                    let window =
                        f64::from(completed) * self.cfg.measure as f64 * tile_nodes[t] as f64;
                    lane.throughput = lane.latency.count as f64 / window;
                    lane.accepted = lane_accepted[t] as f64 / window;
                }
            }
        }
        LoadPoint {
            offered,
            latency,
            throughput,
            accepted,
            cycles,
            completed_runs: completed,
            stable,
            rerouted_hops,
            unreachable_pairs,
            tenants: lanes,
        }
    }

    /// Runs every seed of one traffic matrix in parallel and merges them.
    ///
    /// Always cold (its own full warm-up), regardless of
    /// [`SweepConfig::cold`]: a single probed point never depends on
    /// anchor-cache state.
    pub fn run_point(&self, matrix: &TrafficMatrix) -> LoadPoint {
        self.probe_point(None, matrix)
    }

    /// Like [`Self::run_point`], but with a telemetry probe attached to
    /// the first seed's run (the remaining seeds run plain, in
    /// parallel). Always cold — the probed run executes its own warm-up
    /// so the probe observes inject events from cycle 0; a warm-start
    /// resume would skip them. The returned point is identical to what
    /// [`Self::run_point`] computes from cold runs: probes never
    /// perturb statistics.
    pub fn record_point<P: Probe>(&self, matrix: &TrafficMatrix, probe: &mut P) -> LoadPoint {
        let offered = matrix.mean_injection();
        let (&first, rest) = self.cfg.seeds.split_first().expect("at least one seed");
        let mut outcomes = vec![self.run_one(matrix, first, RunOpts::default(), probe)];
        outcomes.extend(parallel_map(rest.to_vec(), |seed| {
            self.run_one(matrix, seed, RunOpts::default(), &mut NoopProbe)
        }));
        self.reduce(offered, outcomes)
    }

    /// Sweeps a rate grid: all (rate × seed) runs fan out across threads
    /// at once, then each rate's seeds are merged. Points come back in
    /// `rates` order. Warm by default — each run resumes the seed's
    /// cached post-warm-up anchor instead of re-running warm-up (see the
    /// module docs and [`SweepConfig::cold`]).
    pub fn run_grid<G>(&self, gen: &G, rates: &[f64]) -> Vec<LoadPoint>
    where
        G: Fn(f64) -> TrafficMatrix + Sync,
    {
        let matrices: Vec<TrafficMatrix> = rates.iter().map(|&r| gen(r)).collect();
        let anchors = self.warm_anchors(gen);
        let mut jobs = Vec::with_capacity(rates.len() * self.cfg.seeds.len());
        for i in 0..rates.len() {
            for (si, &seed) in self.cfg.seeds.iter().enumerate() {
                jobs.push((i, si, seed));
            }
        }
        let outs = parallel_map(jobs, |(i, si, seed)| {
            let opts = RunOpts {
                resume: anchors.as_ref().map(|a| &a[si]),
                ..RunOpts::default()
            };
            (i, self.run_one(&matrices[i], seed, opts, &mut NoopProbe))
        });
        let mut per_rate: Vec<Vec<Result<RunOutcome, SimError>>> =
            (0..rates.len()).map(|_| Vec::new()).collect();
        for (i, out) in outs {
            per_rate[i].push(out);
        }
        matrices
            .iter()
            .zip(per_rate)
            .map(|(m, outcomes)| self.reduce(m.mean_injection(), outcomes))
            .collect()
    }

    /// Mean latency at the zero-load probe rate.
    pub fn zero_load_latency<G>(&self, gen: &G) -> f64
    where
        G: Fn(f64) -> TrafficMatrix + Sync,
    {
        self.run_point(&gen(self.cfg.zero_load_rate)).mean_latency()
    }

    /// Bisection search for the saturation point: the smallest offered
    /// load in `(zero_load_rate, max_rate]` past the network's knee, or
    /// whose runs no longer complete. The criterion depends on the
    /// injection mode:
    ///
    /// * **Open loop** (`max_outstanding == 0`): mean latency exceeds
    ///   `sat_multiple ×` the zero-load latency. Mean latency grows
    ///   monotonically with offered load for the Bernoulli injectors
    ///   used here, which is what makes bisection sound.
    /// * **Closed loop**: accepted throughput falls below
    ///   `(1 - accept_epsilon) ×` the offered load — the accepted curve
    ///   has hit its plateau (Δaccepted/Δoffered has collapsed). The
    ///   latency multiple cannot work here: the NIC window bounds
    ///   network latency near `window × serviced-RTT`, so the mean never
    ///   crosses a 3× threshold cleanly; the accepted/offered ratio is
    ///   monotonically non-increasing in offered load instead, which
    ///   keeps bisection sound.
    ///
    /// The reported load is never below a probed stable rate.
    pub fn find_saturation<G>(&self, gen: &G, max_rate: f64) -> SaturationSearch
    where
        G: Fn(f64) -> TrafficMatrix + Sync,
    {
        assert!(
            max_rate > self.cfg.zero_load_rate,
            "degenerate search range"
        );
        let seeds = self.cfg.seeds.len() as u32;
        // Warm probes share the pattern's anchors with `run_grid`. The
        // zero-load probe is exact either way: it probes the anchor rate
        // itself, where warm and cold runs coincide bit-for-bit.
        let anchors = self.warm_anchors(gen);
        let probe = |m: &TrafficMatrix| self.probe_point(anchors.as_deref().map(Vec::as_slice), m);
        let zero_load_latency = probe(&gen(self.cfg.zero_load_rate)).mean_latency();
        let threshold = self.cfg.sat_multiple * zero_load_latency;
        let closed = self.cfg.max_outstanding > 0;
        let accept_floor = 1.0 - self.cfg.accept_epsilon;
        let sample_cycles =
            self.cfg.measure as f64 * self.topo.num_nodes() as f64 * f64::from(seeds);
        let saturated = |p: &LoadPoint| {
            if !p.stable {
                return true;
            }
            if closed {
                // The accepted count is a Bernoulli-thinned sample with
                // σ/μ ≈ 1/√(offered · nodes · measure · seeds); widen the
                // plateau floor by 3σ so a short-window low-load probe is
                // not declared saturated by sampling noise alone.
                let expected = p.offered * sample_cycles;
                let noise = if expected > 0.0 {
                    3.0 / expected.sqrt()
                } else {
                    0.0
                };
                p.accepted < (accept_floor - noise) * p.offered
            } else {
                p.mean_latency() > threshold
            }
        };

        let mut lo = self.cfg.zero_load_rate;
        let mut hi = max_rate;
        let mut runs = 2 * seeds; // zero-load probe + top-of-range probe
        if !saturated(&probe(&gen(hi))) {
            // The network never saturates within the searched range.
            return SaturationSearch {
                zero_load_latency,
                threshold,
                saturation_load: hi,
                last_stable_load: hi,
                saturated_in_range: false,
                runs,
            };
        }
        while hi - lo > self.cfg.tolerance {
            let mid = 0.5 * (lo + hi);
            runs += seeds;
            if saturated(&probe(&gen(mid))) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        SaturationSearch {
            zero_load_latency,
            threshold,
            saturation_load: hi,
            last_stable_load: lo,
            saturated_in_range: true,
            runs,
        }
    }

    /// One full curve: the measured grid plus the saturation search.
    pub fn run_curve<G>(
        &self,
        label: impl Into<String>,
        gen: &G,
        rates: &[f64],
        max_rate: f64,
    ) -> LoadCurve
    where
        G: Fn(f64) -> TrafficMatrix + Sync,
    {
        LoadCurve {
            label: label.into(),
            points: self.run_grid(gen, rates),
            saturation: self.find_saturation(gen, max_rate),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyppi_phys::{Gbps, LinkTechnology};
    use hyppi_topology::{mesh, MeshSpec, NodeId};
    use hyppi_traffic::SyntheticPattern;

    fn small_mesh(w: u16, h: u16) -> Topology {
        mesh(MeshSpec {
            width: w,
            height: h,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        })
    }

    // -- parallel_map (moved from hyppi-analytic) ------------------------

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_single_item() {
        assert_eq!(parallel_map(vec![7], |x: u64| x + 1), vec![8]);
    }

    #[test]
    fn parallel_map_heavier_work_still_ordered() {
        let out = parallel_map((0..32).collect(), |x: u64| {
            // Unequal work per item to shuffle completion order.
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    // -- sweep runner ----------------------------------------------------

    #[test]
    fn zero_load_latency_matches_topology() {
        // 2×1 mesh: every packet crosses one hop, 3 + 1 + 3 = 7 cycles; at
        // the zero-load probe rate contention is negligible.
        let topo = small_mesh(2, 1);
        let routes = RoutingTable::compute_xy(&topo);
        let runner = SweepRunner::new(&topo, &routes, SimConfig::paper(), SweepConfig::quick());
        let gen = |r: f64| SyntheticPattern::Uniform.matrix(&topo, r);
        let zl = runner.zero_load_latency(&gen);
        assert!((6.9..8.0).contains(&zl), "zero-load latency {zl}");
    }

    #[test]
    fn grid_latency_grows_with_load() {
        let topo = small_mesh(4, 4);
        let routes = RoutingTable::compute_xy(&topo);
        let runner = SweepRunner::new(&topo, &routes, SimConfig::paper(), SweepConfig::quick());
        let gen = |r: f64| SyntheticPattern::Uniform.matrix(&topo, r);
        let points = runner.run_grid(&gen, &[0.02, 0.50]);
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.stable && p.latency.count > 0));
        assert!(points[1].mean_latency() > points[0].mean_latency());
        // Percentiles order correctly on a congested point.
        let p = &points[1];
        assert!(p.latency.p50() <= p.latency.p95());
        assert!(p.latency.p95() <= p.latency.p99());
        assert!(p.latency.p99() <= p.latency.max);
        // Accepted throughput tracks offered load while stable.
        assert!(points[0].throughput > 0.0);
    }

    #[test]
    fn saturation_search_brackets_and_is_deterministic() {
        let topo = small_mesh(4, 4);
        let routes = RoutingTable::compute_xy(&topo);
        let runner = SweepRunner::new(&topo, &routes, SimConfig::paper(), SweepConfig::quick());
        let gen = |r: f64| SyntheticPattern::Uniform.matrix(&topo, r);
        let a = runner.find_saturation(&gen, 1.0);
        assert!(a.saturated_in_range, "4×4 uniform saturates below 1.0");
        // The reported saturation load is bracketed by construction.
        assert!(a.saturation_load > a.last_stable_load);
        assert!(a.saturation_load - a.last_stable_load <= runner.config().tolerance + 1e-12);
        assert!(a.saturation_load > runner.config().zero_load_rate);
        assert!(a.saturation_load < 1.0);
        // Same seeds ⇒ identical outcome, including the probe count.
        let b = runner.find_saturation(&gen, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn unsaturable_range_reports_no_crossing() {
        // 2×1 mesh searched only up to a tiny rate: never saturates.
        let topo = small_mesh(2, 1);
        let routes = RoutingTable::compute_xy(&topo);
        let runner = SweepRunner::new(&topo, &routes, SimConfig::paper(), SweepConfig::quick());
        let gen = |r: f64| SyntheticPattern::Uniform.matrix(&topo, r);
        let s = runner.find_saturation(&gen, 0.02);
        assert!(!s.saturated_in_range);
        assert_eq!(s.saturation_load, 0.02);
        assert_eq!(s.last_stable_load, 0.02);
    }

    #[test]
    fn run_curve_combines_grid_and_search() {
        let topo = small_mesh(3, 3);
        let routes = RoutingTable::compute_xy(&topo);
        let runner = SweepRunner::new(&topo, &routes, SimConfig::paper(), SweepConfig::quick());
        let gen = |r: f64| SyntheticPattern::Uniform.matrix(&topo, r);
        let curve = runner.run_curve("uniform 3x3", &gen, &[0.02, 0.10], 1.0);
        assert_eq!(curve.label, "uniform 3x3");
        assert_eq!(curve.points.len(), 2);
        assert!(curve.saturation.zero_load_latency > 0.0);
    }

    #[test]
    fn sharded_sweep_points_match_single_shard() {
        // The shards knob is a wall-clock lever only: every LoadPoint —
        // histogram, tails, throughput, cycle counts — must be identical.
        let topo = small_mesh(6, 6);
        let routes = RoutingTable::compute_xy(&topo);
        let gen = |r: f64| SyntheticPattern::Uniform.matrix(&topo, r);
        let single = SweepRunner::new(&topo, &routes, SimConfig::paper(), SweepConfig::quick());
        let sharded = SweepRunner::new(
            &topo,
            &routes,
            SimConfig::paper(),
            SweepConfig::quick().with_shards(4),
        );
        for rate in [0.04, 0.20] {
            let a = single.run_point(&gen(rate));
            let b = sharded.run_point(&gen(rate));
            assert_eq!(a, b, "rate {rate}");
        }
    }

    #[test]
    fn closed_loop_accepted_tracks_offered_below_saturation() {
        // Far below the knee, the window never binds: the accepted curve
        // and the measured-packet curve both track the offered load.
        let topo = small_mesh(4, 4);
        let routes = RoutingTable::compute_xy(&topo);
        let runner = SweepRunner::new(
            &topo,
            &routes,
            SimConfig::paper(),
            SweepConfig::quick().closed_loop(8),
        );
        let gen = |r: f64| SyntheticPattern::Uniform.matrix(&topo, r);
        let p = runner.run_point(&gen(0.05));
        assert!(p.stable);
        assert!(
            (p.accepted - p.offered).abs() < 0.25 * p.offered,
            "accepted {} vs offered {}",
            p.accepted,
            p.offered
        );
        // Closed-loop latency is network latency: bounded near zero-load
        // values at this rate, nowhere near a queueing blow-up.
        assert!(p.mean_latency() < 40.0, "latency {}", p.mean_latency());
    }

    #[test]
    fn closed_loop_saturation_brackets_on_accepted_plateau() {
        let topo = small_mesh(4, 4);
        let routes = RoutingTable::compute_xy(&topo);
        let runner = SweepRunner::new(
            &topo,
            &routes,
            SimConfig::paper(),
            SweepConfig::quick().closed_loop(16),
        );
        let gen = |r: f64| SyntheticPattern::Uniform.matrix(&topo, r);
        let a = runner.find_saturation(&gen, 1.0);
        assert!(a.saturated_in_range, "accepted load plateaus below 1.0");
        assert!(a.saturation_load > a.last_stable_load);
        assert!(a.saturation_load - a.last_stable_load <= runner.config().tolerance + 1e-12);
        // Determinism, including the probe count.
        let b = runner.find_saturation(&gen, 1.0);
        assert_eq!(a, b);
        // Past the reported saturation load the accepted curve really has
        // left the offered-load diagonal.
        let past = runner.run_point(&gen((a.saturation_load * 1.5).min(1.0)));
        assert!(past.accepted < past.offered * (1.0 - runner.config().accept_epsilon));
    }

    // -- warm-start ------------------------------------------------------

    #[test]
    fn warm_grid_matches_cold_at_anchor_rate() {
        // At the anchor rate a warm point resumes its own anchor run's
        // pause, so it must be bit-for-bit identical to the cold point.
        let topo = small_mesh(4, 4);
        let routes = RoutingTable::compute_xy(&topo);
        let gen = |r: f64| SyntheticPattern::Uniform.matrix(&topo, r);
        let warm = SweepRunner::new(&topo, &routes, SimConfig::paper(), SweepConfig::quick());
        let cold = SweepRunner::new(
            &topo,
            &routes,
            SimConfig::paper(),
            SweepConfig::quick().cold(),
        );
        let rate = SweepConfig::quick().zero_load_rate;
        let w = warm.run_grid(&gen, &[rate]);
        let c = cold.run_grid(&gen, &[rate]);
        assert_eq!(w, c);
    }

    #[test]
    fn warm_grid_is_deterministic_and_engine_independent() {
        let topo = small_mesh(6, 6);
        let routes = RoutingTable::compute_xy(&topo);
        let gen = |r: f64| SyntheticPattern::Uniform.matrix(&topo, r);
        let single = SweepRunner::new(&topo, &routes, SimConfig::paper(), SweepConfig::quick());
        let sharded = SweepRunner::new(
            &topo,
            &routes,
            SimConfig::paper(),
            SweepConfig::quick().with_shards(4),
        );
        let rates = [0.02, 0.45];
        let a = single.run_grid(&gen, &rates);
        // Repeat on the same runner: anchors now come from the cache.
        let b = single.run_grid(&gen, &rates);
        assert_eq!(a, b);
        // Warm resume is partition-independent like everything else.
        let c = sharded.run_grid(&gen, &rates);
        assert_eq!(a, c);
        // The physics survives the protocol change.
        assert!(a.iter().all(|p| p.stable && p.latency.count > 0));
        assert!(a[1].mean_latency() > a[0].mean_latency());
    }

    #[test]
    fn warm_saturation_search_is_deterministic() {
        let topo = small_mesh(4, 4);
        let routes = RoutingTable::compute_xy(&topo);
        let runner = SweepRunner::new(&topo, &routes, SimConfig::paper(), SweepConfig::quick());
        let gen = |r: f64| SyntheticPattern::Uniform.matrix(&topo, r);
        let a = runner.find_saturation(&gen, 1.0);
        assert!(a.saturated_in_range);
        assert!(a.saturation_load > a.last_stable_load);
        let b = runner.find_saturation(&gen, 1.0);
        assert_eq!(a, b);
        // The zero-load probe is at the anchor rate: exactly the cold value.
        assert_eq!(a.zero_load_latency, runner.zero_load_latency(&gen));
    }

    #[test]
    fn warm_faulted_sweep_still_reroutes() {
        // Warm anchors carry the faulted plan's fingerprint; the
        // resilience counters survive the warm protocol.
        let topo = small_mesh(4, 4);
        let routes = RoutingTable::compute_xy(&topo);
        let gen = |r: f64| SyntheticPattern::Uniform.matrix(&topo, r);
        let spec = FaultSpec::none().dead_link(NodeId(5), NodeId(6));
        let runner = SweepRunner::new(
            &topo,
            &routes,
            SimConfig::paper(),
            SweepConfig::quick().faults(spec),
        );
        let points = runner.run_grid(&gen, &[0.10]);
        assert!(points[0].stable);
        assert!(points[0].rerouted_hops > 0);
    }

    #[test]
    fn faulted_sweep_reports_resilience_counters() {
        let topo = small_mesh(4, 4);
        let routes = RoutingTable::compute_xy(&topo);
        let gen = |r: f64| SyntheticPattern::Uniform.matrix(&topo, r);
        let spec = FaultSpec::none()
            .dead_link(NodeId(5), NodeId(6))
            .degraded_span(NodeId(9), NodeId(10));
        let faulted = SweepRunner::new(
            &topo,
            &routes,
            SimConfig::paper(),
            SweepConfig::quick().faults(spec),
        );
        let p = faulted.run_point(&gen(0.10));
        assert!(p.stable);
        assert!(p.rerouted_hops > 0, "dead link never forced a detour");
        assert_eq!(p.unreachable_pairs, 0, "no dead routers in this spec");
        // A healthy runner on the same grid reports zeros.
        let healthy = SweepRunner::new(&topo, &routes, SimConfig::paper(), SweepConfig::quick());
        let hp = healthy.run_point(&gen(0.10));
        assert_eq!(hp.rerouted_hops, 0);
        assert_eq!(hp.unreachable_pairs, 0);
        // Faults cost latency at equal load.
        assert!(p.mean_latency() >= hp.mean_latency());
    }

    #[test]
    #[should_panic(expected = "disconnects the sweep mesh")]
    fn faulted_sweep_rejects_disconnecting_spec() {
        // Killing both horizontal spans of a 2×2 mesh splits the live
        // nodes into two connected components — an unroutable spec.
        let topo = small_mesh(2, 2);
        let routes = RoutingTable::compute_xy(&topo);
        let cfg = SweepConfig::quick().faults(
            FaultSpec::none()
                .dead_link(NodeId(0), NodeId(1))
                .dead_link(NodeId(2), NodeId(3)),
        );
        let _ = SweepRunner::new(&topo, &routes, SimConfig::paper(), cfg);
    }

    #[test]
    #[should_panic(expected = "window must admit")]
    fn rejects_zero_window() {
        let _ = SweepConfig::quick().closed_loop(0);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn rejects_empty_seed_list() {
        let topo = small_mesh(2, 1);
        let routes = RoutingTable::compute_xy(&topo);
        let cfg = SweepConfig {
            seeds: vec![],
            ..SweepConfig::quick()
        };
        let _ = SweepRunner::new(&topo, &routes, SimConfig::paper(), cfg);
    }
}
