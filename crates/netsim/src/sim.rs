//! The single-shard simulator facade.
//!
//! Since the shard refactor, the engine core — calendar wheel, active
//! node bitsets, SoA flit slab, dirty-list route computation, mask-walk
//! arbitration — lives in [`crate::shard`] as `ShardState`: per-cycle
//! cost scales with the number of in-flight flits, not with network size
//! (the seed engine survives verbatim in [`crate::reference`] as the
//! parity oracle). [`Simulator`] is the P=1 case: one `ShardState` built
//! over the trivial partition, run as a one-shard
//! [`crate::ShardedSimulator`] through the same superstep loop — with a
//! single shard the loop skips the mailbox grid and barriers, so the hot
//! path is identical to the pre-shard engine.
//!
//! Stage order, arbitration order, credit timing, and statistics are
//! bit-for-bit identical to the reference engine; `tests/parity.rs`
//! enforces this across seeds, topologies, and workloads, and
//! `tests/shard_parity.rs` pins the sharded engine against this one.

use crate::config::SimConfig;
use crate::shard::{import_shards, snapshot_shards, EnginePlan, RunCursor, ShardState};
use crate::snapshot::{plan_fingerprint, Snapshot, SnapshotError};
use crate::stats::SimStats;
use crate::telemetry::{NoopProbe, Probe, ProfileSink};
use crate::ShardedSimulator;
use hyppi_topology::{NodeId, Partition, RoutingTable, Topology};
use hyppi_traffic::{Trace, TrafficMatrix};

/// Simulation failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The run exceeded [`SimConfig::max_cycles`] without draining; with a
    /// correct configuration this indicates deadlock or overload.
    CycleLimit {
        /// Packets still incomplete at the limit.
        stuck_packets: u64,
    },
    /// A snapshot could not be restored (see [`SnapshotError`]).
    Snapshot(SnapshotError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::CycleLimit { stuck_packets } => {
                write!(f, "cycle limit hit with {stuck_packets} packets in flight")
            }
            SimError::Snapshot(e) => write!(f, "snapshot restore failed: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<SnapshotError> for SimError {
    fn from(e: SnapshotError) -> Self {
        SimError::Snapshot(e)
    }
}

/// What a run simulates (see [`Simulator::run`]).
#[derive(Debug, Clone, Copy)]
pub enum Workload<'w> {
    /// Trace-driven admission: each event's packet is queued at its
    /// source NIC on the event's cycle. The trace must be sized for the
    /// simulated topology.
    Trace(&'w Trace),
    /// Bernoulli-injected synthetic traffic: each node injects 1-flit
    /// packets at its row rate of `matrix`, destinations sampled from the
    /// row distribution. Packets injected during the first `warmup`
    /// cycles are not measured; injection stops after `warmup + measure`
    /// cycles and the network drains.
    Synthetic {
        /// Per-pair injection rates (flits/cycle).
        matrix: &'w TrafficMatrix,
        /// Unmeasured warm-up cycles.
        warmup: u64,
        /// Measured injection cycles after the warm-up.
        measure: u64,
        /// Seed of the injection RNG stream.
        seed: u64,
    },
}

/// Options of one run; [`RunOpts::default`] runs a fresh workload to
/// completion.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts<'r> {
    /// Pause at this cycle boundary if the workload hasn't drained by
    /// then, returning [`RunOutcome::Paused`]. Pausing at `c` and
    /// resuming yields statistics bit-for-bit identical to the
    /// uninterrupted run (`tests/snapshot_parity.rs` pins this). Default
    /// `u64::MAX`: run to completion.
    pub stop_at: u64,
    /// Continue from this snapshot instead of cycle 0. It may come from
    /// any engine at any shard count, but must match this engine's plan
    /// and carry this workload's fingerprint — or none (manual
    /// snapshots, whose trace cursor is rebuilt by scanning).
    pub resume: Option<&'r Snapshot>,
    /// Collect the superstep phase times (step / exchange / barrier) of
    /// every worker here.
    pub profile: Option<&'r ProfileSink>,
    /// On a cycle-limit failure, print a blocked-state dump to stderr
    /// before returning the error (deadlock triage aid).
    pub dump_on_stall: bool,
}

impl Default for RunOpts<'_> {
    fn default() -> Self {
        RunOpts {
            stop_at: u64::MAX,
            resume: None,
            profile: None,
            dump_on_stall: false,
        }
    }
}

/// Result of a run: either the workload drained before
/// [`RunOpts::stop_at`], or the run paused at that boundary and handed
/// back a [`Snapshot`] to resume from.
// One RunOutcome exists per bounded run, so the variant-size asymmetry
// (inline SimStats vs a Vec-backed Snapshot) costs nothing worth boxing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The run completed; here are its statistics.
    Finished(SimStats),
    /// The run paused at the requested cycle boundary; continue it by
    /// passing the snapshot as [`RunOpts::resume`] (or persist it first —
    /// the byte format is stable, see `docs/SNAPSHOT_FORMAT.md`).
    Paused(Snapshot),
}

impl RunOutcome {
    /// Unwraps the completed-run statistics; panics on [`Paused`]
    /// (convenience for `stop_at = u64::MAX` call sites).
    ///
    /// [`Paused`]: RunOutcome::Paused
    pub fn expect_finished(self) -> SimStats {
        match self {
            RunOutcome::Finished(stats) => stats,
            RunOutcome::Paused(_) => panic!("run paused before completing"),
        }
    }

    /// Unwraps the pause snapshot; panics on [`Finished`] (convenience
    /// for call sites that know the workload outlives the stop cycle).
    ///
    /// [`Finished`]: RunOutcome::Finished
    pub fn expect_paused(self) -> Snapshot {
        match self {
            RunOutcome::Finished(_) => panic!("run finished before the stop cycle"),
            RunOutcome::Paused(snap) => snap,
        }
    }
}

/// Decodes `snap` against `plan`, checks the workload fingerprint, and
/// rebuilds shard state. `workload_hash` = 0 skips the workload check
/// (manual-stepping snapshots don't pin one); a snapshot taken with
/// hash 0 likewise resumes under any workload, with the trace cursor
/// rebuilt by scanning for the first event at or after the snapshot
/// cycle.
pub(crate) fn restore_shards(
    plan: &EnginePlan<'_>,
    snap: &Snapshot,
    workload_hash: u64,
) -> Result<(Vec<ShardState>, RunCursor), SimError> {
    let gs = snap.decode_for(plan_fingerprint(
        plan.topo,
        plan.routes,
        &plan.cfg,
        plan.baseline,
        plan.tenants,
    ))?;
    let stored = snap.workload_hash();
    if stored != 0 && workload_hash != 0 && stored != workload_hash {
        return Err(SimError::Snapshot(SnapshotError::WorkloadMismatch));
    }
    Ok(import_shards(plan, &gs)?)
}

/// Trace-event cursor for a snapshot that didn't pin this trace: the
/// first event not yet admitted at the snapshot boundary.
pub(crate) fn rescan_trace_cursor(trace: &Trace, now: u64) -> u64 {
    trace
        .events
        .iter()
        .position(|e| e.cycle >= now)
        .unwrap_or(trace.events.len()) as u64
}

/// The simulator. Construct once per (topology, routing) pair and run a
/// trace or a synthetic load.
pub struct Simulator<'a> {
    pub(crate) plan: EnginePlan<'a>,
    pub(crate) shard: ShardState,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator. `routes` must have been computed for `topo`
    /// (use [`RoutingTable::compute_xy`] — the deadlock-freedom argument
    /// assumes X-then-Y ordering).
    pub fn new(topo: &'a Topology, routes: &'a RoutingTable, cfg: SimConfig) -> Self {
        let plan = EnginePlan::new(topo, routes, cfg, Partition::single(topo));
        let shard = ShardState::new(&plan, 0);
        Simulator { plan, shard }
    }

    /// Whether the deterministic route src → dst crosses an express link
    /// (always `false` on topologies without express links).
    pub fn route_uses_express(&self, src: NodeId, dst: NodeId) -> bool {
        self.plan.route_uses_express(src, dst)
    }

    /// Installs the healthy-mesh baseline (topology + routes the faults
    /// were applied to) so admitted packets are charged
    /// [`SimStats::rerouted_hops`] for detours versus the healthy route.
    pub fn with_baseline(mut self, topo: &'a Topology, routes: &'a RoutingTable) -> Self {
        self.plan.set_baseline(topo, routes);
        self
    }

    /// Installs a node → tenant map: the run's [`SimStats`] then carries
    /// per-tenant lanes (see [`crate::TenantStats`]) split out of the
    /// aggregate.
    pub fn with_tenants(mut self, map: &'a hyppi_traffic::TenantMap) -> Self {
        self.plan.set_tenants(map);
        self.shard.stats.init_tenants(map.tenants);
        self
    }

    // ---- manual stepping (instrumentation API) --------------------------
    //
    // The run entry points own the clock, fast-forward idle gaps and
    // consume the simulator. For conservation audits and property tests
    // the engine can instead be driven cycle by cycle: `admit` packets,
    // `step` the clock, and read the gauges between cycles. No
    // fast-forwarding happens here — the caller advances `now` by 1.

    /// Queues a packet at its source NIC for manual stepping. `cycle` is
    /// the admission timestamp used for latency accounting (pass the
    /// current cycle). Mirrors the run loops' admission rule on faulted
    /// topologies: a pair with no route is dropped and counted in
    /// [`SimStats::unreachable_pairs`] instead of being queued.
    pub fn admit(&mut self, src: NodeId, dst: NodeId, flits: u32, cycle: u64) {
        if !self.plan.routes.reachable(src, dst) {
            self.shard.stats.unreachable_pairs += 1;
            return;
        }
        self.shard.admit(&self.plan, src, dst, flits, cycle);
    }

    /// Runs one simulated cycle (all five pipeline stages plus the
    /// credit drain). Call with a monotonically increasing `now`.
    pub fn step(&mut self, now: u64) {
        self.shard.step(&self.plan, now);
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &SimStats {
        &self.shard.stats
    }

    /// Flits currently inside the network: buffered in router VCs plus
    /// in flight on links. Together with [`SimStats::flits_injected`] and
    /// [`SimStats::flits_delivered`] this forms an independently checkable
    /// conservation ledger: injected = delivered + in-network, at every
    /// cycle boundary.
    pub fn in_network_flits(&self) -> u64 {
        self.shard
            .ctl
            .iter()
            .map(|c| u64::from(c.buffered))
            .sum::<u64>()
            + self.shard.inflight_arrivals
    }

    /// Packets admitted but not yet fully emitted (NIC queues plus
    /// in-progress emissions).
    pub fn pending_packets(&self) -> u64 {
        self.shard.pending_sources
    }

    /// Closed-loop window occupancy per node (packets emitted but not yet
    /// fully ejected), node-id indexed. All-zero on open-loop
    /// configurations.
    pub fn outstanding_packets(&self) -> &[u32] {
        &self.shard.outstanding
    }

    /// Runs `workload` as a one-shard [`ShardedSimulator`] — the same
    /// superstep loop, which with one shard skips the mailbox exchange
    /// and barriers. See [`ShardedSimulator::run`] for the contract.
    pub fn run<P: Probe>(
        self,
        workload: Workload<'_>,
        opts: RunOpts<'_>,
        probe: &mut P,
    ) -> Result<RunOutcome, SimError> {
        ShardedSimulator::from_parts(self.plan, vec![self.shard]).run(workload, opts, probe)
    }

    /// Runs a trace to completion.
    pub fn run_trace(self, trace: &Trace) -> Result<SimStats, SimError> {
        self.run_trace_probed(trace, &mut NoopProbe)
    }

    /// Runs synthetic traffic to completion (see [`Workload::Synthetic`]).
    pub fn run_synthetic(
        self,
        matrix: &TrafficMatrix,
        warmup: u64,
        measure: u64,
        seed: u64,
    ) -> Result<SimStats, SimError> {
        self.run_synthetic_probed(matrix, warmup, measure, seed, &mut NoopProbe)
    }

    /// [`Self::run_trace`] with a telemetry probe attached (see
    /// [`crate::telemetry`]). The statistics are bit-for-bit those of
    /// the plain run — probes observe, they never perturb
    /// (`tests/telemetry_parity.rs` pins this).
    pub fn run_trace_probed<P: Probe>(
        self,
        trace: &Trace,
        probe: &mut P,
    ) -> Result<SimStats, SimError> {
        let workload = Workload::Trace(trace);
        Ok(self
            .run(workload, RunOpts::default(), probe)?
            .expect_finished())
    }

    /// [`Self::run_synthetic`] with a telemetry probe attached — same
    /// contract as [`Self::run_trace_probed`].
    pub fn run_synthetic_probed<P: Probe>(
        self,
        matrix: &TrafficMatrix,
        warmup: u64,
        measure: u64,
        seed: u64,
        probe: &mut P,
    ) -> Result<SimStats, SimError> {
        let workload = Workload::Synthetic {
            matrix,
            warmup,
            measure,
            seed,
        };
        Ok(self
            .run(workload, RunOpts::default(), probe)?
            .expect_finished())
    }

    /// Runs synthetic traffic, pausing at the cycle boundary `stop_at`
    /// if the run hasn't drained by then.
    pub fn run_synthetic_until(
        self,
        matrix: &TrafficMatrix,
        warmup: u64,
        measure: u64,
        seed: u64,
        stop_at: u64,
    ) -> Result<RunOutcome, SimError> {
        let workload = Workload::Synthetic {
            matrix,
            warmup,
            measure,
            seed,
        };
        let opts = RunOpts {
            stop_at,
            ..RunOpts::default()
        };
        self.run(workload, opts, &mut NoopProbe)
    }

    // ---- checkpoint / restore -------------------------------------------

    /// Encodes the engine state at the cycle boundary `now` (cycles
    /// `0..now` simulated, `now` not yet). For use with the manual
    /// stepping API — the caller owns the clock, so it supplies the
    /// boundary; the snapshot pins no workload (any resume accepts it,
    /// rebuilding the trace cursor by scanning). Runs with
    /// [`RunOpts::stop_at`] produce their own snapshots instead.
    pub fn snapshot(&self, now: u64) -> Snapshot {
        let cursor = RunCursor {
            now,
            ..RunCursor::fresh_for_trace()
        };
        snapshot_shards(&self.plan, std::slice::from_ref(&self.shard), &cursor, 0)
    }

    /// Rebuilds a simulator from a snapshot, replacing this one's
    /// (necessarily fresh) state. The snapshot may have been taken by
    /// any engine at any shard count — the format is
    /// partition-independent — but must match this simulator's topology,
    /// routing, and configuration (fingerprint-checked). Continue with
    /// the manual stepping API from cycle [`Snapshot::now`]; to rejoin a
    /// paused run, pass the snapshot as [`RunOpts::resume`] instead.
    pub fn restore(self, snap: &Snapshot) -> Result<Self, SimError> {
        let Simulator { plan, .. } = self;
        let (mut shards, _) = restore_shards(&plan, snap, 0)?;
        let shard = shards.pop().expect("single partition has one shard");
        debug_assert!(shards.is_empty());
        Ok(Simulator { plan, shard })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyppi_phys::{Gbps, LinkTechnology};
    use hyppi_topology::{express_mesh, mesh, ExpressSpec, MeshSpec};
    use hyppi_traffic::TraceEvent;

    fn small_mesh(w: u16, h: u16) -> Topology {
        mesh(MeshSpec {
            width: w,
            height: h,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        })
    }

    fn run(topo: &Topology, events: Vec<TraceEvent>) -> SimStats {
        let routes = RoutingTable::compute_xy(topo);
        let trace = Trace::new("test", topo.num_nodes() as u16, 0.0, events);
        Simulator::new(topo, &routes, SimConfig::paper())
            .run_trace(&trace)
            .expect("run completes")
    }

    #[test]
    fn single_flit_zero_load_latency() {
        // 2×1 mesh, one hop: 3 (src router) + 1 (link) + 3 (dst router)
        // = 7 cycles.
        let t = small_mesh(2, 1);
        let stats = run(
            &t,
            vec![TraceEvent {
                cycle: 0,
                src: NodeId(0),
                dst: NodeId(1),
                flits: 1,
            }],
        );
        assert_eq!(stats.all.count, 1);
        assert_eq!(stats.all.max, 7);
        assert_eq!(stats.flits_delivered, 1);
    }

    #[test]
    fn latency_grows_by_four_per_electronic_hop() {
        // Zero-load: each extra hop adds 3 (router) + 1 (link).
        let t = small_mesh(8, 1);
        let lat = |dst: u16| {
            run(
                &t,
                vec![TraceEvent {
                    cycle: 0,
                    src: NodeId(0),
                    dst: NodeId(dst),
                    flits: 1,
                }],
            )
            .all
            .max
        };
        assert_eq!(lat(1), 7);
        assert_eq!(lat(2), 11);
        assert_eq!(lat(7), 31);
    }

    #[test]
    fn data_packet_serialization_latency() {
        // A 32-flit packet: head arrives like a 1-flit packet, tail follows
        // 31 cycles later (1 flit/cycle link bandwidth).
        let t = small_mesh(2, 1);
        let stats = run(
            &t,
            vec![TraceEvent {
                cycle: 0,
                src: NodeId(0),
                dst: NodeId(1),
                flits: 32,
            }],
        );
        assert_eq!(stats.all.count, 1);
        assert_eq!(stats.all.max, 7 + 31);
        assert_eq!(stats.flits_delivered, 32);
    }

    #[test]
    fn optical_express_link_costs_two_cycles() {
        let spec = MeshSpec {
            width: 8,
            height: 1,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        };
        let t = express_mesh(
            spec,
            ExpressSpec {
                span: 3,
                tech: LinkTechnology::Hyppi,
            },
        );
        let stats = run(
            &t,
            vec![TraceEvent {
                cycle: 0,
                src: NodeId(0),
                dst: NodeId(3),
                flits: 1,
            }],
        );
        // One express hop: 3 + 2 + 3 = 8 vs 3 regular hops (15).
        assert_eq!(stats.all.max, 8);
    }

    #[test]
    fn all_packets_delivered_under_load() {
        // Saturating burst: every node sends to the opposite corner region.
        let t = small_mesh(4, 4);
        let mut events = Vec::new();
        for s in 0..16u16 {
            for k in 0..8u16 {
                events.push(TraceEvent {
                    cycle: u64::from(k) * 2,
                    src: NodeId(s),
                    dst: NodeId(15 - s),
                    flits: if k % 2 == 0 { 32 } else { 1 },
                });
            }
        }
        let total_flits: u64 = events.iter().map(|e| u64::from(e.flits)).sum();
        let stats = run(&t, events);
        assert_eq!(stats.all.count, 16 * 8);
        assert_eq!(stats.flits_delivered, total_flits);
    }

    #[test]
    fn determinism() {
        let t = small_mesh(4, 4);
        let mk = || {
            let mut events = Vec::new();
            for s in 0..16u16 {
                events.push(TraceEvent {
                    cycle: 0,
                    src: NodeId(s),
                    dst: NodeId((s + 5) % 16),
                    flits: 32,
                });
            }
            events
        };
        let a = run(&t, mk());
        let b = run(&t, mk());
        assert_eq!(a, b);
    }

    #[test]
    fn congestion_increases_latency() {
        let t = small_mesh(4, 1);
        // One packet alone…
        let solo = run(
            &t,
            vec![TraceEvent {
                cycle: 0,
                src: NodeId(0),
                dst: NodeId(3),
                flits: 32,
            }],
        );
        // …vs the same packet competing with cross traffic on the line.
        let mut events = vec![TraceEvent {
            cycle: 0,
            src: NodeId(0),
            dst: NodeId(3),
            flits: 32,
        }];
        for k in 0..6 {
            events.push(TraceEvent {
                cycle: k * 4,
                src: NodeId(1),
                dst: NodeId(3),
                flits: 32,
            });
        }
        let busy = run(&t, events);
        assert!(busy.all.max > solo.all.max);
        assert_eq!(busy.flits_delivered, 32 * 7);
    }

    #[test]
    fn express_mesh_under_all_to_all_drains() {
        // Deadlock regression test: span-5 express (the dip/overshoot case)
        // under all-to-all wormhole traffic.
        let spec = MeshSpec {
            width: 16,
            height: 2,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        };
        for span in [3u16, 5, 15] {
            let t = express_mesh(
                spec,
                ExpressSpec {
                    span,
                    tech: LinkTechnology::Hyppi,
                },
            );
            let n = t.num_nodes() as u16;
            let mut events = Vec::new();
            for s in 0..n {
                for k in 1..n {
                    events.push(TraceEvent {
                        cycle: u64::from(k) * 8,
                        src: NodeId(s),
                        dst: NodeId((s + k) % n),
                        flits: 32,
                    });
                }
            }
            let stats = run(&t, events);
            assert_eq!(
                stats.all.count,
                u64::from(n) * u64::from(n - 1),
                "span {span}"
            );
        }
    }

    #[test]
    fn synthetic_injection_measures_only_after_warmup() {
        let t = small_mesh(4, 4);
        let routes = RoutingTable::compute_xy(&t);
        let mut m = hyppi_traffic::TrafficMatrix::zero(16);
        for s in 0..16u16 {
            m.set(NodeId(s), NodeId((s + 3) % 16), 0.05);
        }
        let stats = Simulator::new(&t, &routes, SimConfig::paper())
            .run_synthetic(&m, 200, 800, 42)
            .expect("completes");
        assert!(stats.all.count > 0);
        // Delivered flits include warmup packets; measured count excludes.
        assert!(stats.flits_delivered >= stats.all.count);
    }

    #[test]
    fn express_path_memo_matches_ground_truth() {
        // The dateline classification relies on the memoized
        // express-on-path table; verify it against walking every route.
        let spec = MeshSpec {
            width: 16,
            height: 2,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        };
        for span in [3u16, 5, 15] {
            let t = express_mesh(
                spec,
                ExpressSpec {
                    span,
                    tech: LinkTechnology::Hyppi,
                },
            );
            let routes = RoutingTable::compute_xy(&t);
            let sim = Simulator::new(&t, &routes, SimConfig::paper());
            for src in t.nodes() {
                for dst in t.nodes() {
                    if src == dst {
                        continue;
                    }
                    let mut at = src;
                    let mut crossed = false;
                    while at != dst {
                        let l = t.link(routes.next_link(at, dst).unwrap());
                        crossed |= l.is_express();
                        at = l.dst;
                    }
                    assert_eq!(
                        sim.route_uses_express(src, dst),
                        crossed,
                        "span {span}: {src}->{dst}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_forward_skips_idle_gaps() {
        let t = small_mesh(2, 1);
        let stats = run(
            &t,
            vec![
                TraceEvent {
                    cycle: 0,
                    src: NodeId(0),
                    dst: NodeId(1),
                    flits: 1,
                },
                TraceEvent {
                    cycle: 1_000_000,
                    src: NodeId(1),
                    dst: NodeId(0),
                    flits: 1,
                },
            ],
        );
        assert_eq!(stats.all.count, 2);
        // Latency of the late packet is still 7: the gap was skipped, not
        // simulated.
        assert_eq!(stats.all.max, 7);
    }

    #[test]
    #[should_panic(expected = "latencies must be >= 1")]
    fn rejects_zero_latency_links() {
        // The arrival calendar books a flit at `now + latency`; latency 0
        // would land in the bucket stage 1 already drained this cycle and
        // deliver a whole wheel revolution late, silently breaking parity.
        let mut t = hyppi_topology::Topology::empty("zero-lat", 2, 1);
        t.add_bidi(
            NodeId(0),
            NodeId(1),
            hyppi_topology::LinkClass::Regular,
            LinkTechnology::Electronic,
            hyppi_phys::Micrometers::new(1000.0),
            0,
            Gbps::new(50.0),
        );
        let routes = RoutingTable::compute_xy(&t);
        let _ = Simulator::new(&t, &routes, SimConfig::paper());
    }

    #[test]
    fn wheel_covers_every_link_latency() {
        // The calendar's correctness needs wheel length > max link
        // latency; verify on the express mesh (2-cycle optical links).
        let t = express_mesh(
            MeshSpec::paper(LinkTechnology::Electronic),
            ExpressSpec {
                span: 5,
                tech: LinkTechnology::Hyppi,
            },
        );
        let routes = RoutingTable::compute_xy(&t);
        let sim = Simulator::new(&t, &routes, SimConfig::paper());
        let max_lat = t
            .links()
            .iter()
            .map(|l| u64::from(l.latency_cycles))
            .max()
            .unwrap();
        assert!(sim.shard.wheel.len() as u64 > max_lat);
        assert!(sim.shard.wheel.len().is_power_of_two());
    }

    #[test]
    fn active_sets_empty_after_drain() {
        // After a run drains, every active-set structure must be empty —
        // leaked membership would break the idle fast-forward.
        let t = small_mesh(4, 4);
        let routes = RoutingTable::compute_xy(&t);
        let mut sim = Simulator::new(&t, &routes, SimConfig::paper());
        sim.shard.admit(&sim.plan, NodeId(0), NodeId(15), 32, 0);
        let mut now = 0;
        while !(sim.shard.active_flits == 0 && sim.shard.pending_sources == 0) {
            sim.shard.step(&sim.plan, now);
            now += 1;
            assert!(now < 10_000, "run did not drain");
        }
        assert!(sim.shard.quiescent());
        assert!(sim.shard.rc_dirty.is_empty());
        assert!(sim.shard.wheel.iter().all(|b| b.is_empty()));
        assert_eq!(sim.shard.inflight_arrivals, 0);
        assert!(sim.shard.ctl.iter().all(|c| c.buffered == 0));
        assert_eq!(sim.shard.stats.flits_delivered, 32);
    }
}
