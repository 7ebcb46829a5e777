//! Sharded parallel simulation: the engine core plus the superstep
//! protocol that runs P mesh shards in lockstep.
//!
//! ## The engine core
//!
//! `ShardState` owns the full active-set router state — calendar wheel
//! with its occupancy bitset, work/src bitsets, SoA flit slab, packed
//! per-node control records (`NodeCtl`), arbitration masks, and
//! double-buffered credit cells (`CreditCell`) — for one subset of
//! the mesh's nodes (node subsets come from
//! [`hyppi_topology::Partition`]). `EnginePlan` holds everything
//! read-only and shared: topology, routing, config, the partition tables,
//! and the express-dateline memo. The single-shard engine
//! ([`crate::Simulator`]) is literally a `ShardState` built over the
//! trivial partition — there is one set of pipeline-stage loops, not two.
//!
//! Three hot-path structures keep the per-traversal cost low while
//! staying observable-behavior-preserving (the frozen
//! [`crate::reference`] engine is the oracle; `tests/parity.rs` pins it):
//!
//! * **Credit fusion.** Credits freed during cycle `t` must become
//!   spendable at `t+1`. Instead of staging them in a side list drained
//!   by a separate end-of-cycle pass, every (link, VC) counter is a
//!   `CreditCell` double-buffered in place (`avail` + `pending` +
//!   cycle stamp): any later access folds `pending` into `avail`, so
//!   credit application rides the traversal stage's own reads/writes.
//! * **Calendar batching.** A bucket-occupancy bitset over the wheel
//!   lets idle fast-forward locate the next arrival with word-wide
//!   `trailing_zeros` jumps (64 buckets per probe) instead of walking
//!   buckets one by one. Latency-1 intra-shard links bypass the wheel
//!   entirely: the flit is pushed straight into its destination VC at
//!   send time with the `ready` cycle a next-cycle delivery would have
//!   stamped (route computation still fires the following cycle, and an
//!   early-buffered flit cannot win arbitration before `ready`, so the
//!   timing is bit-for-bit unchanged).
//! * **Packed free-VC search.** Output-VC holders are a per-(node,
//!   out-port) bitmask; the VC-allocation free search is one
//!   `!holder & class_mask` and a `trailing_zeros` — the same VC, in the
//!   same order, a linear range probe would pick.
//!
//! ## The superstep protocol
//!
//! With P > 1 shards, every superstep covers a window of W ≥ 1 cycles
//! (`EnginePlan::lookahead`; described here for W = 1, see
//! `worker_loop_windowed` for wider windows) in two phases separated by
//! barriers:
//!
//! 1. **Step phase.** Each shard runs the five pipeline stages for its
//!    own routers. A flit leaving through an intra-shard link lands
//!    directly in its destination VC (latency 1) or in the local
//!    calendar wheel; a flit leaving through a *boundary link* (dst
//!    owned by another shard) is appended to the per-edge outbox for the
//!    destination shard, together with its absolute arrival cycle.
//!    Credits freed for a boundary link's upstream buffer go to the
//!    outbox of the shard owning the link's source. At the end of the
//!    phase each shard swaps its filled outboxes into the shared
//!    double-buffered mailbox grid.
//! 2. **Exchange phase.** After the barrier, each shard drains the
//!    mailboxes addressed to it: boundary credits become spendable in
//!    the owner's credit cells from the cycle after their free (the same
//!    timing as locally freed credits), and boundary flits are booked
//!    into the receiving wheel at their carried arrival cycle. Because
//!    every link has latency ≥ 1, a flit sent in superstep `t` arrives
//!    in a bucket `≥ t+1`, so landing it during the exchange of
//!    superstep `t` puts it in **exactly** the bucket the in-shard
//!    calendar would have used — this is what makes the sharded engine
//!    bit-for-bit identical to the single-shard engine.
//!
//! ## Cross-shard packet identity
//!
//! Packet bookkeeping (`PacketInfo`, dateline `VcClass`) is shard-local.
//! A head flit crossing a boundary carries its packet's metadata (size,
//! injection cycle, current VC class) in the mailbox message; the
//! receiving shard mints a fresh local packet handle and records it in a
//! per-(link, VC) remap slot. Wormhole flow control guarantees the flits
//! of a packet traverse a link's VC contiguously and in order, so body
//! and tail flits are re-tagged from the same remap slot. Latency is
//! recorded where the tail ejects, from the carried injection cycle;
//! [`crate::stats::LatencyStats`] merging is commutative, so the merged
//! histogram equals the single-shard one exactly.
//!
//! ## Closed-loop injection (source credits)
//!
//! With [`SimConfig::max_outstanding`] > 0 every NIC carries a credit
//! window: a source may have at most that many packets in the network
//! (emitted but not yet fully ejected) and parks out of `src_mask` once
//! the window is full. The credit returns when the packet's tail ejects
//! at the destination. In-shard the ejecting router decrements the
//! source's occupancy directly during switch traversal — first observable
//! by the emission stage of the *next* cycle, because emission runs
//! before switch traversal within a cycle. A cross-shard ejection
//! appends the source node to the mailbox bundle for the shard owning
//! it; the credit is applied during that superstep's exchange phase and
//! is likewise first observable next cycle — so the two paths have
//! identical timing and the sharded engine stays bit-for-bit. Since any
//! shard pair can exchange source credits (a packet may traverse the
//! whole mesh), closed-loop plans widen the mailbox adjacency to all
//! pairs. Boundary head flits carry the packet's *origin* node so the
//! destination shard knows where to return the credit.
//!
//! ## Lockstep control
//!
//! Run-loop decisions (idle fast-forward, termination, cycle-limit
//! failure) are taken redundantly by every worker from identical data:
//! each worker scans the *full* trace (admitting only its own sources) or
//! replays the *same* Bernoulli RNG stream (drawing for every node,
//! admitting only its own), and per-worker activity flags / next-arrival
//! cycles are published at the end of each superstep. All workers
//! therefore jump, step, and stop on the same cycle without a central
//! coordinator.

use crate::config::SimConfig;
use crate::flit::{meta, Flit, PacketInfo};
use crate::router::{Emission, NodeState};
use crate::sim::{rescan_trace_cursor, restore_shards, RunOpts, RunOutcome, SimError, Workload};
use crate::snapshot::{
    synthetic_fingerprint, trace_fingerprint, EmissionImage, EventImage, FlitImage, GlobalState,
    NodeImage, PacketImage, SlotImage, Snapshot, SnapshotError,
};
use crate::stats::SimStats;
use crate::telemetry::{
    EngineProfile, EngineView, NoopProbe, PacketKey, Probe, ProfileSink, StallCause,
};
use hyppi_topology::{LinkId, NodeId, Partition, RoutingTable, ShardSpec, Topology};
use hyppi_traffic::{BurstState, TenantMap, Trace, TrafficMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// Dateline VC class of a packet (see the `router` module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VcClass {
    /// The route never crosses an express link: any VC is safe.
    Free,
    /// Express route, before the first express traversal: class A VCs.
    PreExpress,
    /// Express route, after the first express traversal: class B VCs.
    PostExpress,
}

/// One booked link arrival: (link, destination VC, flit).
pub(crate) type ArrivalEvent = (u32, u8, Flit);

/// One lazily-normalized credit counter for a downstream (link, VC)
/// buffer. Credits freed during cycle `t` must not be spendable until
/// cycle `t+1`; instead of staging them in a side list that a separate
/// end-of-cycle pass drains, the counter is double-buffered in place:
/// `avail` is the spendable count as of cycle `stamp`, `pending` holds
/// credits freed *during* cycle `stamp`. Any access at a later cycle
/// first folds `pending` into `avail` — so credit application rides the
/// switch-traversal stage's own reads and writes and no separate scan
/// exists. (Mailbox credits freed during cycle `t` and ingested at a
/// later exchange are applied spendable from `t+1` — see
/// [`Self::ripen`] — preserving the same next-cycle visibility across
/// shards.)
#[derive(Debug, Clone, Copy)]
pub(crate) struct CreditCell {
    /// Cycle `avail`/`pending` were last touched.
    stamp: u64,
    /// Credits spendable at cycle `stamp`.
    avail: u16,
    /// Credits freed during cycle `stamp` (spendable from `stamp + 1`).
    pending: u16,
}

impl CreditCell {
    #[inline]
    fn new(depth: u16) -> Self {
        CreditCell {
            stamp: 0,
            avail: depth,
            pending: 0,
        }
    }

    /// Folds `pending` into `avail` if the cell was last touched before
    /// `now`, then returns the spendable count.
    #[inline]
    fn normalize(&mut self, now: u64) -> u16 {
        if self.stamp != now {
            self.avail += self.pending;
            self.pending = 0;
            self.stamp = now;
        }
        self.avail
    }

    /// Books one freed credit at cycle `now` (spendable from `now + 1`).
    #[inline]
    fn free(&mut self, now: u64) {
        self.normalize(now);
        self.pending += 1;
    }

    /// Spends one credit at cycle `now`.
    #[inline]
    fn take(&mut self, now: u64) {
        let avail = self.normalize(now);
        debug_assert!(avail > 0, "credit underflow");
        self.avail -= 1;
    }

    /// Read-only spendable count at cycle `now` (cold paths that cannot
    /// normalize in place).
    #[inline]
    fn peek(&self, now: u64) -> u16 {
        if self.stamp < now {
            self.avail + self.pending
        } else {
            self.avail
        }
    }

    /// Applies a ripened lookahead credit: one credit whose free cycle
    /// is already in the past becomes spendable *at* `now` (not `now+1`
    /// — the next-cycle delay was served while the credit waited in the
    /// ripening buffer).
    #[inline]
    fn ripen(&mut self, now: u64) {
        self.normalize(now);
        self.avail += 1;
    }
}

/// Hot per-node control state packed into one record (one cache line's
/// worth of data): the arbitration stages read and update most of these
/// fields on every visit to a work-active node, so keeping them together
/// replaces seven scattered array touches per visit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeCtl {
    /// First buffer slot of the node (`slot = vc_base + in_port*vcs + vc`).
    vc_base: u32,
    /// First out-port entry of the node.
    port_base: u32,
    /// Bitmask of in-ports that already sent a flit this cycle.
    in_port_used: u32,
    /// Flits buffered at the node (active-set membership count).
    pub(crate) buffered: u32,
    /// Out-ports with a non-empty `routed_mask` (bit = out-port index) —
    /// the VA stage walks set bits instead of probing every port's mask.
    routed_ports: u16,
    /// Out-ports with a non-empty `active_mask`.
    active_ports: u16,
    /// Input VCs currently `Routed` (VA fast skip).
    routed_count: u16,
    /// Arbitration scan width (`in_ports * vcs`).
    total_in_vcs: u8,
}

/// Packed per-(node, out-port) link facts consumed by the traversal
/// winner path: one 8-byte load instead of three scattered table reads.
#[derive(Debug, Clone, Copy)]
struct OutPortInfo {
    /// Global link id; `u32::MAX` for the ejection port.
    link: u32,
    /// Shard owning the link's destination (own id for ejection).
    dst_shard: u16,
    /// Link latency in cycles (0 for ejection).
    latency: u8,
    /// Express link (dateline class-B transition on traversal).
    express: bool,
    /// Fault-degraded link (halved usable-VC set, see `degraded_class_mask`).
    degraded: bool,
}

/// Iterator over the set bits of a mask in cyclic (round-robin) order
/// starting at `start`: indices `start.., then 0..start`, restricted to
/// set bits. This visits exactly the candidates a full modular scan
/// `(start + k) % width` would accept, in the same order, so replacing
/// the scans with mask walks preserves arbitration bit-for-bit.
struct CyclicBits {
    hi: u32,
    lo: u32,
}

impl Iterator for CyclicBits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        let bits = if self.hi != 0 {
            &mut self.hi
        } else if self.lo != 0 {
            &mut self.lo
        } else {
            return None;
        };
        let b = bits.trailing_zeros();
        *bits &= *bits - 1;
        Some(b as usize)
    }
}

#[inline]
fn cyclic_bits(mask: u32, start: usize) -> CyclicBits {
    debug_assert!(start < 32);
    let hi_mask = u32::MAX << start;
    CyclicBits {
        hi: mask & hi_mask,
        lo: mask & !hi_mask,
    }
}

// ---- shared read-only plan ---------------------------------------------

/// Everything shared and immutable across the shards of one simulation:
/// topology, routing, configuration, partition tables, and the
/// express-dateline route memo.
pub(crate) struct EnginePlan<'a> {
    pub topo: &'a Topology,
    pub routes: &'a RoutingTable,
    pub cfg: SimConfig,
    pub partition: Partition,
    /// Express-dateline VC classes in force (see `router` module docs).
    pub dateline: bool,
    /// First class-B VC when the dateline is in force (see `vc_range`).
    pub class_b_start: usize,
    /// Bitmask of the VCs open to `Free`/`PreExpress` packets (bit =
    /// VC index) — the packed form of [`Self::vc_range`], consumed by
    /// the trailing-zeros free-VC search in VC allocation.
    pub class_a_mask: u32,
    /// Bitmask of the VCs open to `PostExpress` packets.
    pub class_b_mask: u32,
    /// `class_a_mask` restricted to a fault-degraded link: the lowest
    /// `max(1, half)` of the class's VCs (see `degraded_class_mask`).
    pub degraded_class_a_mask: u32,
    /// `class_b_mask` restricted to a fault-degraded link.
    pub degraded_class_b_mask: u32,
    /// Healthy-mesh topology and routes, present only when simulating a
    /// faulted topology: used to charge `SimStats::rerouted_hops` for the
    /// extra hops a packet takes versus its healthy route.
    pub baseline: Option<(&'a Topology, &'a RoutingTable)>,
    /// `express_on_path[dst][node]`: does the route node→dst cross an
    /// express link? Only populated when the dateline is in force.
    express_on_path: Vec<Vec<bool>>,
    /// In-port index (at the link's dst node) fed by each link.
    pub in_port_of_link: Vec<u8>,
    /// Calendar wheel length (power of two > max link latency plus the
    /// lookahead window, so mid-window ingests stay within one
    /// revolution).
    pub wheel_len: usize,
    /// Conservative-lookahead window W in cycles: shards may run W
    /// cycles between mailbox exchanges because no boundary link can
    /// deliver a flit in fewer (W = the partition's minimum boundary
    /// latency). Forced to 1 — one cycle per superstep — for
    /// single-shard plans and closed-loop configs (whose source
    /// credits need next-cycle global visibility).
    pub lookahead: u64,
    /// For each shard, the sorted shards that may address mail to it
    /// (boundary-flit senders and boundary-credit returners).
    pub inbox_sources: Vec<Vec<u16>>,
    /// Node → tenant ownership of a multi-tenant run (`None` — the
    /// common case — records no per-tenant lanes). Pure bookkeeping:
    /// tenancy never changes routing or arbitration, only which
    /// [`crate::TenantStats`] lane each emission/ejection is credited to.
    pub tenants: Option<&'a TenantMap>,
}

impl<'a> EnginePlan<'a> {
    pub fn new(
        topo: &'a Topology,
        routes: &'a RoutingTable,
        cfg: SimConfig,
        partition: Partition,
    ) -> Self {
        assert_eq!(routes.num_nodes(), topo.num_nodes());
        cfg.validate();
        let dateline = topo.count_links(|l| l.is_express()) > 0;
        // Which (node → dst) routes cross an express link: walk each
        // destination's next-hop tree once, memoized.
        let mut express_on_path: Vec<Vec<bool>> = Vec::new();
        if dateline {
            express_on_path.reserve(topo.num_nodes());
            for dst in topo.nodes() {
                let mut table = vec![false; topo.num_nodes()];
                let mut visited = vec![false; topo.num_nodes()];
                visited[dst.index()] = true;
                for start in topo.nodes() {
                    if visited[start.index()] {
                        continue;
                    }
                    let mut chain = Vec::new();
                    let mut at = start;
                    while !visited[at.index()] {
                        chain.push(at);
                        // Unreachable pairs (faulted topologies) have no
                        // next hop; the chain inherits `false` below.
                        let Some(lid) = routes.next_link(at, dst) else {
                            break;
                        };
                        let link = topo.link(lid);
                        if link.is_express() {
                            // Everything up the chain routes through here.
                            for &n in &chain {
                                table[n.index()] = true;
                                visited[n.index()] = true;
                            }
                            chain.clear();
                        }
                        at = link.dst;
                    }
                    // Remaining chain inherits the memoized answer at `at`.
                    let tail = table[at.index()];
                    for &n in &chain {
                        table[n.index()] = tail;
                        visited[n.index()] = true;
                    }
                }
                express_on_path.push(table);
            }
        }
        let mut in_port_of_link = vec![0u8; topo.links().len()];
        for node in topo.nodes() {
            for (i, &lid) in topo.incoming(node).iter().enumerate() {
                in_port_of_link[lid.index()] = (i + 1) as u8;
            }
        }
        // Calendar sized to cover the longest link latency. Zero-latency
        // links would land arrivals in the bucket stage 1 already drained
        // this cycle (delivering them a whole revolution late), so the
        // wheel requires every latency ≥ 1 — same-cycle delivery is not a
        // thing in the reference engine either. Latency ≥ 1 is also what
        // lets the superstep exchange land boundary flits on time.
        assert!(
            topo.links().iter().all(|l| l.latency_cycles >= 1),
            "link latencies must be >= 1 cycle"
        );
        let max_latency = topo
            .links()
            .iter()
            .map(|l| u64::from(l.latency_cycles))
            .max()
            .unwrap_or(1);
        // Safe superstep window: the minimum boundary-link latency. A
        // closed-loop config runs one-cycle windows — its source credits
        // (destination shard → origin shard, any pair) rely on
        // next-cycle global visibility that a W-cycle window cannot
        // provide conservatively.
        let lookahead = if cfg.max_outstanding > 0 {
            1
        } else {
            partition.min_boundary_latency.map_or(1, u64::from)
        };
        // A shard parked at a window start can hold ingested arrivals up
        // to `lookahead - 1 + max_latency` cycles ahead, so the wheel
        // must cover the window on top of the longest link.
        let wheel_len = (max_latency + lookahead + 2).next_power_of_two() as usize;
        // Shard mail adjacency: s receives flits over links into it and
        // credits over links out of it. Closed-loop source credits flow
        // from a packet's destination shard back to its origin shard —
        // any pair — so a window in force widens the adjacency to all
        // pairs.
        let shards = partition.num_shards();
        let mut sources: Vec<Vec<u16>> = vec![Vec::new(); shards];
        if cfg.max_outstanding > 0 {
            for (d, v) in sources.iter_mut().enumerate() {
                v.extend((0..shards as u16).filter(|&s| usize::from(s) != d));
            }
        } else {
            for l in topo.links() {
                let s = partition.link_src_shard[l.id.index()];
                let d = partition.link_dst_shard[l.id.index()];
                if s != d {
                    if !sources[usize::from(d)].contains(&s) {
                        sources[usize::from(d)].push(s);
                    }
                    if !sources[usize::from(s)].contains(&d) {
                        sources[usize::from(s)].push(d);
                    }
                }
            }
            for v in &mut sources {
                v.sort_unstable();
            }
        }
        let class_b_start = cfg.vcs - (cfg.vcs / 4).max(1);
        let all_vcs: u32 = if cfg.vcs == 32 {
            u32::MAX
        } else {
            (1u32 << cfg.vcs) - 1
        };
        let (class_a_mask, class_b_mask) = if dateline {
            let a = (1u32 << class_b_start) - 1;
            (a, all_vcs & !a)
        } else {
            (all_vcs, all_vcs)
        };
        // A degraded link keeps the lowest half of each class's VCs,
        // rounded down but never below one — every dateline class stays
        // usable, so the class-B escape argument is untouched.
        let halve_low = |mask: u32| -> u32 {
            let keep = (mask.count_ones() / 2).max(1);
            let mut m = mask;
            let mut kept = 0u32;
            let mut out = 0u32;
            while m != 0 && kept < keep {
                let low = m & m.wrapping_neg();
                out |= low;
                m &= m - 1;
                kept += 1;
            }
            out
        };
        EnginePlan {
            topo,
            routes,
            cfg,
            partition,
            dateline,
            class_b_start,
            class_a_mask,
            class_b_mask,
            degraded_class_a_mask: halve_low(class_a_mask),
            degraded_class_b_mask: halve_low(class_b_mask),
            baseline: None,
            express_on_path,
            in_port_of_link,
            wheel_len,
            lookahead,
            inbox_sources: sources,
            tenants: None,
        }
    }

    /// Installs the node → tenant map of a multi-tenant run: every
    /// engine entry point then splits per-tenant statistic lanes out of
    /// the aggregate (see [`crate::TenantStats`]).
    pub fn set_tenants(&mut self, map: &'a TenantMap) {
        assert_eq!(
            map.tenant_of_node.len(),
            self.topo.num_nodes(),
            "tenant map sized for a different topology"
        );
        self.tenants = Some(map);
    }

    /// Installs the healthy-mesh baseline used to account
    /// `SimStats::rerouted_hops` on a faulted topology.
    pub fn set_baseline(&mut self, topo: &'a Topology, routes: &'a RoutingTable) {
        assert_eq!(routes.num_nodes(), topo.num_nodes());
        assert_eq!(topo.num_nodes(), self.topo.num_nodes());
        self.baseline = Some((topo, routes));
    }

    /// Extra hops the faulted route src → dst takes versus the healthy
    /// baseline route (clamped at zero; zero with no baseline installed).
    pub fn extra_hops(&self, src: NodeId, dst: NodeId) -> u64 {
        let Some((base_topo, base_routes)) = self.baseline else {
            return 0;
        };
        if src == dst || !self.routes.reachable(src, dst) {
            return 0;
        }
        let faulted = u64::from(self.routes.hops(self.topo, src, dst));
        let healthy = u64::from(base_routes.hops(base_topo, src, dst));
        faulted.saturating_sub(healthy)
    }

    /// VC index range usable by a packet of the given dateline class.
    ///
    /// Class B (post-express walks — short and comparatively rare) gets
    /// the top quarter of the VCs; everything else (packets before their
    /// express traversal and packets that never touch an express link)
    /// shares the rest. Class-B channels are only ever requested by
    /// post-express packets, whose walks are monotone, so class-B
    /// dependencies are acyclic and no dependency points from class B back
    /// to class A (see the `router` module docs). Without express links no
    /// discipline is needed and every VC is open.
    #[inline]
    pub fn vc_range(&self, class: VcClass) -> std::ops::Range<usize> {
        if !self.dateline {
            return 0..self.cfg.vcs;
        }
        match class {
            VcClass::Free | VcClass::PreExpress => 0..self.class_b_start,
            VcClass::PostExpress => self.class_b_start..self.cfg.vcs,
        }
    }

    /// Packed form of [`Self::vc_range`]: a bitmask of the VCs a packet
    /// of the given dateline class may request (bit = VC index).
    /// Walking this mask with `trailing_zeros` visits exactly the VCs
    /// `vc_range` yields, in the same ascending order, so the free-VC
    /// search stays bit-for-bit with the range scan it replaces.
    #[inline]
    pub(crate) fn class_mask(&self, class: VcClass) -> u32 {
        match class {
            VcClass::Free | VcClass::PreExpress => self.class_a_mask,
            VcClass::PostExpress => self.class_b_mask,
        }
    }

    /// [`Self::class_mask`] restricted to a fault-degraded link: the
    /// lowest `max(1, half)` VCs of the class. Contiguous-low-bits form,
    /// so the range scan in the reference engine visits the same VCs.
    #[inline]
    pub(crate) fn degraded_class_mask(&self, class: VcClass) -> u32 {
        match class {
            VcClass::Free | VcClass::PreExpress => self.degraded_class_a_mask,
            VcClass::PostExpress => self.degraded_class_b_mask,
        }
    }

    /// Whether the deterministic route src → dst crosses an express link
    /// (always `false` on topologies without express links).
    pub fn route_uses_express(&self, src: NodeId, dst: NodeId) -> bool {
        self.dateline && src != dst && self.express_on_path[dst.index()][src.index()]
    }

    /// Initial dateline class of a new packet.
    #[inline]
    pub fn initial_class(&self, src: NodeId, dst: NodeId) -> VcClass {
        if self.route_uses_express(src, dst) {
            VcClass::PreExpress
        } else {
            VcClass::Free
        }
    }
}

// ---- mailboxes ----------------------------------------------------------

/// One boundary-crossing flit: the wire-level event plus, for head flits,
/// the packet metadata the receiving shard needs to mint a local handle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BoundaryFlit {
    /// Link being traversed.
    pub link: u32,
    /// Destination VC at the receiving router.
    pub vc: u8,
    /// Absolute arrival cycle (`send cycle + link latency`).
    pub arrive: u64,
    /// The flit; its `packet` id is sender-local and is re-mapped on
    /// ingest.
    pub flit: Flit,
    /// Packet dateline class at send time (meaningful for heads).
    pub class: VcClass,
    /// Packet size in flits (meaningful for heads).
    pub flits: u32,
    /// Packet injection cycle, `u64::MAX` if unmeasured (heads only).
    pub inject_cycle: u64,
    /// Node that originally injected the packet (heads only) — the
    /// destination shard returns the closed-loop source credit here.
    pub origin: NodeId,
}

/// The messages one shard sends another during one superstep.
#[derive(Debug, Default)]
pub(crate) struct OutBundle {
    /// Boundary link arrivals.
    pub flits: Vec<BoundaryFlit>,
    /// Boundary credit returns: flattened `link * vcs + vc` index plus
    /// the absolute cycle the credit was freed (any cycle of the round's
    /// window; the receiver ripens it at `free cycle + 1`).
    pub credits: Vec<(u32, u64)>,
    /// Closed-loop source credits: origin nodes (owned by the receiving
    /// shard) whose packet completed at a destination this shard owns.
    pub src_credits: Vec<u16>,
}

impl OutBundle {
    fn is_empty(&self) -> bool {
        self.flits.is_empty() && self.credits.is_empty() && self.src_credits.is_empty()
    }
}

/// Per-worker lockstep state published at the end of every superstep.
struct Published {
    /// Any owned shard has buffered flits or NIC work.
    active: AtomicBool,
    /// Earliest booked arrival across owned shards (absolute cycle;
    /// `u64::MAX` = none). Only meaningful when `active` is false.
    next_arrival: AtomicU64,
}

/// Shared coordination state of one sharded run.
struct Shared {
    /// Double-buffered mailbox grid, `mail[from][to]`. Senders swap their
    /// filled bundles in at the end of the step phase; receivers swap
    /// them back out during the exchange phase, so each edge recycles two
    /// bundle allocations with zero steady-state allocation.
    mail: Vec<Vec<Mutex<OutBundle>>>,
    published: Vec<Published>,
    /// Each shard's progress cycle (cycles `< progress` executed),
    /// written before the exchange barrier of every round.
    /// The minimum over all shards is the credit-visibility frontier —
    /// every credit freed before it has been mailed and ingested.
    progress: Vec<AtomicU64>,
    /// Per-worker drained-and-exhausted marker (`u64::MAX` = still
    /// live), written every round. A dead worker's value is the cycle
    /// the per-cycle protocol would have rested at; all workers dead ⇒
    /// the run ends at the maximum of these.
    done_at: Vec<AtomicU64>,
    barrier: Barrier,
    /// Cycle-limit failure accumulators (error path only). Origins and
    /// completions are summed separately because a net-importer shard
    /// completes more packets than it originates — only the *global*
    /// difference is guaranteed non-negative.
    stuck_origins: AtomicU64,
    stuck_completed: AtomicU64,
}

impl Shared {
    fn new(shards: usize, workers: usize) -> Self {
        Shared {
            mail: (0..shards)
                .map(|_| {
                    (0..shards)
                        .map(|_| Mutex::new(OutBundle::default()))
                        .collect()
                })
                .collect(),
            published: (0..workers)
                .map(|_| Published {
                    active: AtomicBool::new(false),
                    next_arrival: AtomicU64::new(u64::MAX),
                })
                .collect(),
            progress: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            done_at: (0..workers).map(|_| AtomicU64::new(u64::MAX)).collect(),
            barrier: Barrier::new(workers),
            stuck_origins: AtomicU64::new(0),
            stuck_completed: AtomicU64::new(0),
        }
    }
}

// ---- per-shard engine state --------------------------------------------

/// The full active-set router state of one mesh shard. All node-indexed
/// arrays use *local* indices (the shard's nodes in ascending global id
/// order); link-indexed arrays stay globally indexed (each shard only
/// touches the entries it owns).
pub(crate) struct ShardState {
    pub(crate) id: usize,
    nodes: Vec<NodeState>,
    /// Global node id of each local node.
    global_of_node: Vec<u16>,
    /// Packed hot control state per local node — see [`NodeCtl`].
    pub(crate) ctl: Vec<NodeCtl>,
    // --- SoA VC storage, indexed by shard-local slot ---
    /// Owning local node of each slot (RC dirty-list lookups).
    node_of_slot: Vec<u16>,
    /// Packed per-slot metadata: state machine + ring-buffer cursor in
    /// one word (see [`meta`]).
    slot_meta: Vec<u32>,
    /// Flit slab: `ring` contiguous entries per slot.
    flit_buf: Vec<Flit>,
    /// Ring stride of `flit_buf` (power of two ≥ `depth`).
    ring: usize,
    /// `ring - 1`, for masked wrap-around.
    ring_mask: usize,
    /// Configured buffer depth (occupancy bound; copied from the plan so
    /// the hot push path needs no plan argument).
    depth: usize,
    /// In-port of each slot (`idx / vcs`, precomputed).
    in_port_of_slot: Vec<u8>,
    /// VC index of each slot (`idx % vcs`, precomputed).
    vc_of_slot: Vec<u8>,
    /// Free downstream slots, flattened `[link * vcs + vc]`, global link
    /// ids; only entries whose link source this shard owns are used.
    /// Each cell is double-buffered in place ([`CreditCell`]) so credits
    /// freed during a cycle become spendable next cycle without a
    /// separate end-of-cycle application pass.
    credits: Vec<CreditCell>,
    /// Credit cells of every outgoing boundary link (flattened
    /// `link * vcs + vc`): the cells whose frees arrive by mail. The
    /// lookahead pre-check scans these — a zero reading beyond the
    /// visibility frontier may be stale, so the shard stops its round
    /// there instead of risking a divergent credit stall.
    cut_out_cells: Vec<u32>,
    /// Lookahead ripening buffer: mailed boundary credits not yet
    /// spendable, as `(spendable_from_cycle, cell index)`. Drained into
    /// the credit cells as the shard's cycle reaches each entry.
    ripen: Vec<(u64, u32)>,
    // --- flattened per-port router control state ---
    /// Routed-VC bitmask per (node, out-port) — bit = in-VC index.
    routed_mask: Vec<u32>,
    /// Active-VC bitmask per (node, out-port) — bit = in-VC index.
    active_mask: Vec<u32>,
    /// VC-allocation round-robin pointer per (node, out-port).
    va_rr: Vec<u8>,
    /// Switch-allocation round-robin pointer per (node, out-port).
    sa_rr: Vec<u8>,
    /// Held output VCs per (node, out-port), bit = out-VC index. The
    /// free-VC search is one `!holder & class_mask` + `trailing_zeros`
    /// over this packed form; the holding (in-port, in-VC) identity is
    /// reconstructed from slot metadata on the cold dump paths.
    holder_mask: Vec<u32>,
    /// Packed link facts per (node, out-port) — see [`OutPortInfo`].
    out_port_info: Vec<OutPortInfo>,
    /// Upstream credit index (`link * vcs + vc`) freed when a flit pops
    /// from this slot; `u32::MAX` for injection-port slots.
    credit_of_slot: Vec<u32>,
    /// Shard owning the upstream end of each slot's in-port (own id for
    /// injection and intra-shard links).
    src_shard_of_slot: Vec<u16>,
    // --- arrival calendar ---
    /// Cycle-indexed arrival buckets; slot `cycle & wheel_mask`.
    pub(crate) wheel: Vec<Vec<ArrivalEvent>>,
    wheel_mask: u64,
    /// Occupancy bitset over the wheel's buckets (bit `b` of word
    /// `b / 64` set ⇔ bucket `b` is non-empty). Idle fast-forward finds
    /// the next arrival with word-wide `trailing_zeros` jumps instead of
    /// probing buckets one by one.
    wheel_occ: Vec<u64>,
    /// Flits currently traversing links into this shard (booked in
    /// `wheel`).
    pub(crate) inflight_arrivals: u64,
    /// Local node fed by each link (`u16::MAX` when this shard does not
    /// own the link's destination) — flat ingest table so arrival
    /// delivery needs no topology or partition lookups.
    arrive_node_of_link: Vec<u16>,
    /// First (VC-0) buffer slot fed by each link; add the arrival VC.
    arrive_slot_of_link: Vec<u32>,
    // --- active sets ---
    /// Bit per local node: has any buffered flit (gates RC/VA/SA).
    work_mask: Vec<u64>,
    /// Bit per local node: NIC queue non-empty or emission in progress.
    src_mask: Vec<u64>,
    /// Slots whose fresh head packet needs route computation.
    pub(crate) rc_dirty: Vec<u32>,
    /// Packet holding the slot's output VC, written when VC allocation
    /// grants it (valid while the slot's tag is `ACTIVE`; stale
    /// otherwise). Only read by snapshot export, for the corner where an
    /// active slot's buffered flits have all been forwarded.
    active_pid: Vec<u32>,
    // --- packet bookkeeping (shard-local handles) ---
    packets: Vec<PacketInfo>,
    /// Dateline class per local packet handle.
    class_of: Vec<VcClass>,
    /// Provenance per local packet handle: `(u16::MAX, _)` for packets
    /// admitted at an owned NIC, `(sender shard, sender-local pid)` for
    /// handles minted when a boundary head was ingested. Snapshot export
    /// chains these to resolve the one global packet each per-shard
    /// handle is a segment of.
    import_of: Vec<(u16, u32)>,
    /// In-transit wormhole remap per `link * vcs + vc`: the local handle
    /// body/tail flits arriving on that channel belong to. Written when a
    /// boundary head is ingested.
    remap: Vec<u32>,
    /// Outgoing mailbox staging, one bundle per destination shard.
    outbox: Vec<OutBundle>,
    /// Flits resident in this shard (emission/ingest increment, ejection/
    /// boundary send decrement) — a debug gauge, not control state.
    pub(crate) active_flits: i64,
    /// Closed-loop window occupancy per local node: packets emitted but
    /// not yet fully ejected. Only maintained when the plan has a window
    /// (`cfg.max_outstanding > 0`); stays all-zero open-loop.
    pub(crate) outstanding: Vec<u32>,
    /// Acceptance window for `stats.accepted_flits`: ejections in cycles
    /// `[accept_from, accept_until)` count. Set by the run loop — the
    /// measurement window for synthetic runs, the whole run for traces.
    pub(crate) accept_from: u64,
    pub(crate) accept_until: u64,
    /// Packets queued at owned NICs or mid-emission.
    pub(crate) pending_sources: u64,
    /// Packets admitted at owned sources (not immigrant handles).
    pub(crate) origin_packets: u64,
    /// Packets fully ejected at owned destinations.
    pub(crate) completed_packets: u64,
    pub(crate) stats: SimStats,
}

/// `(idx + 1) % total` without the division (RR pointer advance).
#[inline]
fn rr_next(idx: usize, total: usize) -> u8 {
    let nxt = idx + 1;
    if nxt == total {
        0
    } else {
        nxt as u8
    }
}

impl ShardState {
    /// Builds the state of shard `id` under `plan`.
    pub fn new(plan: &EnginePlan<'_>, id: usize) -> Self {
        let cfg = plan.cfg;
        let topo = plan.topo;
        let owned = &plan.partition.nodes_of_shard[id];
        let nodes: Vec<NodeState> = owned
            .iter()
            .map(|&n| NodeState::new(topo, plan.routes, n))
            .collect();
        let global_of_node: Vec<u16> = owned.iter().map(|n| n.0).collect();
        // Flat slot layout, with the upstream credit index and owner
        // shard of every slot resolved up front (the traversal winner
        // path reads them with single slot-indexed loads).
        let mut vc_base = Vec::with_capacity(nodes.len());
        let mut node_of_slot = Vec::new();
        let mut in_port_of_slot = Vec::new();
        let mut vc_of_slot = Vec::new();
        let mut credit_of_slot = Vec::new();
        let mut src_shard_of_slot = Vec::new();
        let mut total_slots = 0u32;
        for (i, st) in nodes.iter().enumerate() {
            vc_base.push(total_slots);
            let slots = st.in_ports() * cfg.vcs;
            assert!(
                slots <= 32,
                "per-node VC count {slots} exceeds the u32 arbitration masks \
                 (node {}: {} in-ports × {} VCs)",
                st.node.0,
                st.in_ports(),
                cfg.vcs
            );
            node_of_slot.extend(std::iter::repeat_n(i as u16, slots));
            for idx in 0..slots {
                let in_port = idx / cfg.vcs;
                let vc = idx % cfg.vcs;
                in_port_of_slot.push(in_port as u8);
                vc_of_slot.push(vc as u8);
                if in_port == 0 {
                    credit_of_slot.push(u32::MAX);
                    src_shard_of_slot.push(id as u16);
                } else {
                    let lid = st.in_links[in_port - 1].index();
                    credit_of_slot.push((lid * cfg.vcs + vc) as u32);
                    src_shard_of_slot.push(plan.partition.link_src_shard[lid]);
                }
            }
            total_slots += slots as u32;
        }
        let total_slots = total_slots as usize;
        // Flat per-port layout with the link facts of each out-port
        // packed into one record ([`OutPortInfo`]).
        let mut port_base = Vec::with_capacity(nodes.len());
        let mut total_in_vcs_of = Vec::with_capacity(nodes.len());
        let mut out_port_info = Vec::new();
        let mut total_out_ports = 0u32;
        for st in &nodes {
            port_base.push(total_out_ports);
            assert!(
                st.out_ports() <= 15,
                "out-port count {} exceeds the packed slot-meta field",
                st.out_ports()
            );
            total_in_vcs_of.push((st.in_ports() * cfg.vcs) as u8);
            out_port_info.push(OutPortInfo {
                link: u32::MAX, // ejection port
                dst_shard: id as u16,
                latency: 0,
                express: false,
                degraded: false,
            });
            for &l in &st.out_links {
                let link = topo.link(l);
                assert!(
                    link.latency_cycles <= u32::from(u8::MAX),
                    "link latency {} exceeds the packed out-port record",
                    link.latency_cycles
                );
                out_port_info.push(OutPortInfo {
                    link: l.index() as u32,
                    dst_shard: plan.partition.link_dst_shard[l.index()],
                    latency: link.latency_cycles as u8,
                    express: link.is_express(),
                    degraded: link.degraded,
                });
            }
            total_out_ports += st.out_ports() as u32;
        }
        // Flat ingest tables: for every link feeding an owned node, the
        // local node index and the slot of its VC 0, so arrival delivery
        // is two array loads instead of topology + partition chases.
        let mut arrive_node_of_link = vec![u16::MAX; topo.links().len()];
        let mut arrive_slot_of_link = vec![0u32; topo.links().len()];
        for l in topo.links() {
            let lid = l.id.index();
            if usize::from(plan.partition.link_dst_shard[lid]) != id {
                continue;
            }
            let local = plan.partition.local_of_node[l.dst.index()];
            let in_port = usize::from(plan.in_port_of_link[lid]);
            arrive_node_of_link[lid] = local as u16;
            arrive_slot_of_link[lid] = vc_base[local as usize] + (in_port * cfg.vcs) as u32;
        }
        let ctl: Vec<NodeCtl> = (0..nodes.len())
            .map(|i| NodeCtl {
                vc_base: vc_base[i],
                port_base: port_base[i],
                in_port_used: 0,
                buffered: 0,
                routed_ports: 0,
                active_ports: 0,
                routed_count: 0,
                total_in_vcs: total_in_vcs_of[i],
            })
            .collect();
        let ring = cfg.buffer_depth.next_power_of_two();
        let filler = Flit {
            packet: u32::MAX,
            dst: NodeId(0),
            is_head: false,
            is_tail: false,
            ready: 0,
        };
        let mask_words = nodes.len().div_ceil(64).max(1);
        let n_local = nodes.len();
        let shards = plan.partition.num_shards();
        let mut cut_out_cells = Vec::new();
        for l in topo.links() {
            let lid = l.id.index();
            if usize::from(plan.partition.link_src_shard[lid]) == id
                && usize::from(plan.partition.link_dst_shard[lid]) != id
            {
                cut_out_cells.extend((0..cfg.vcs).map(|vc| (lid * cfg.vcs + vc) as u32));
            }
        }
        ShardState {
            id,
            global_of_node,
            ctl,
            slot_meta: vec![0; total_slots],
            flit_buf: vec![filler; total_slots * ring],
            ring,
            ring_mask: ring - 1,
            depth: cfg.buffer_depth,
            in_port_of_slot,
            vc_of_slot,
            node_of_slot,
            routed_mask: vec![0; total_out_ports as usize],
            active_mask: vec![0; total_out_ports as usize],
            va_rr: vec![0; total_out_ports as usize],
            sa_rr: vec![0; total_out_ports as usize],
            holder_mask: vec![0; total_out_ports as usize],
            out_port_info,
            credit_of_slot,
            src_shard_of_slot,
            nodes,
            credits: vec![CreditCell::new(cfg.buffer_depth as u16); topo.links().len() * cfg.vcs],
            cut_out_cells,
            ripen: Vec::new(),
            wheel: vec![Vec::new(); plan.wheel_len],
            wheel_mask: (plan.wheel_len - 1) as u64,
            wheel_occ: vec![0; plan.wheel_len.div_ceil(64)],
            inflight_arrivals: 0,
            arrive_node_of_link,
            arrive_slot_of_link,
            work_mask: vec![0; mask_words],
            src_mask: vec![0; mask_words],
            rc_dirty: Vec::new(),
            active_pid: vec![u32::MAX; total_slots],
            packets: Vec::new(),
            class_of: Vec::new(),
            import_of: Vec::new(),
            remap: vec![u32::MAX; topo.links().len() * cfg.vcs],
            outbox: (0..shards).map(|_| OutBundle::default()).collect(),
            active_flits: 0,
            outstanding: vec![0; n_local],
            accept_from: 0,
            accept_until: u64::MAX,
            pending_sources: 0,
            origin_packets: 0,
            completed_packets: 0,
            stats: {
                let mut s = SimStats::new(topo.links().len(), topo.num_nodes());
                if let Some(tm) = plan.tenants {
                    s.init_tenants(tm.tenants);
                }
                s
            },
        }
    }

    // ---- active-set plumbing -------------------------------------------

    #[inline]
    fn set_work(&mut self, node: usize) {
        self.work_mask[node >> 6] |= 1u64 << (node & 63);
    }

    #[inline]
    fn clear_work(&mut self, node: usize) {
        self.work_mask[node >> 6] &= !(1u64 << (node & 63));
    }

    #[inline]
    fn set_src(&mut self, node: usize) {
        self.src_mask[node >> 6] |= 1u64 << (node & 63);
    }

    #[inline]
    fn clear_src(&mut self, node: usize) {
        self.src_mask[node >> 6] &= !(1u64 << (node & 63));
    }

    /// True when no owned router can do any work this cycle (flits may
    /// still be traversing links — check [`Self::next_arrival_cycle`]).
    #[inline]
    pub(crate) fn quiescent(&self) -> bool {
        self.work_mask.iter().all(|&w| w == 0) && self.src_mask.iter().all(|&w| w == 0)
    }

    /// Cycle of the earliest booked link arrival ≥ `now`, if any. The
    /// calendar only holds arrivals within one wheel revolution of `now`,
    /// and the occupancy bitset answers "which bucket next" a word (64
    /// buckets) at a time: one masked load plus `trailing_zeros` per
    /// word, so a multi-cycle idle gap is skipped in one jump instead of
    /// probing buckets one by one.
    pub(crate) fn next_arrival_cycle(&self, now: u64) -> Option<u64> {
        if self.inflight_arrivals == 0 {
            return None;
        }
        let len = self.wheel.len() as u64;
        let start = (now & self.wheel_mask) as usize;
        let nwords = self.wheel_occ.len();
        let sw = start >> 6;
        // Buckets ≥ start in the starting word…
        let head = self.wheel_occ[sw] & (u64::MAX << (start & 63));
        if head != 0 {
            return Some(now + u64::from(head.trailing_zeros()) - (start & 63) as u64);
        }
        // …then whole words onward, wrapping; the k == nwords pass picks
        // up the starting word's buckets below `start`.
        for k in 1..=nwords {
            let wi = (sw + k) % nwords;
            let w = if wi == sw {
                self.wheel_occ[wi] & !(u64::MAX << (start & 63))
            } else {
                self.wheel_occ[wi]
            };
            if w != 0 {
                let bucket = ((wi as u64) << 6) + u64::from(w.trailing_zeros());
                let off = (bucket + len - start as u64) & self.wheel_mask;
                return Some(now + off);
            }
        }
        debug_assert!(false, "inflight arrivals but empty occupancy bitset");
        None
    }

    /// Books one link arrival into the calendar, maintaining the
    /// occupancy bitset.
    #[inline]
    fn wheel_push(&mut self, arrive: u64, ev: ArrivalEvent) {
        let bucket = (arrive & self.wheel_mask) as usize;
        self.wheel[bucket].push(ev);
        self.wheel_occ[bucket >> 6] |= 1u64 << (bucket & 63);
        self.inflight_arrivals += 1;
    }

    /// Appends `f` to a VC ring, updating active-set state. Marks the slot
    /// RC-dirty when `f` lands at the head of an idle VC (then it is a
    /// fresh head flit by the VC-allocation contract).
    #[inline]
    fn push_flit(&mut self, node: usize, slot: usize, f: Flit) {
        let m = self.slot_meta[slot];
        let len = meta::len(m);
        debug_assert!(len < self.depth, "VC overflow (credit leak)");
        if len == 0 && meta::tag(m) == meta::IDLE {
            debug_assert!(f.is_head, "flit entering an idle empty VC must be a head");
            self.rc_dirty.push(slot as u32);
        }
        let pos = (meta::head(m) + len) & self.ring_mask;
        self.flit_buf[slot * self.ring + pos] = f;
        self.slot_meta[slot] = m + meta::LEN_ONE;
        self.ctl[node].buffered += 1;
        self.set_work(node);
    }

    #[inline]
    fn front_flit(&self, slot: usize) -> Option<&Flit> {
        let m = self.slot_meta[slot];
        if meta::len(m) == 0 {
            None
        } else {
            Some(&self.flit_buf[slot * self.ring + meta::head(m)])
        }
    }

    /// Buffered flits per VC index, summed over this shard's ports —
    /// the per-VC occupancy gauge [`EngineView`] exposes to probes.
    pub(crate) fn vc_occupancy(&self, vcs: usize) -> Vec<u64> {
        let mut occ = vec![0u64; vcs];
        for (slot, &m) in self.slot_meta.iter().enumerate() {
            occ[usize::from(self.vc_of_slot[slot])] += meta::len(m) as u64;
        }
        occ
    }

    /// Pops the head flit of a slot whose metadata word `m` the caller
    /// already holds (saves the reload on the traversal winner path).
    #[inline]
    fn pop_flit_meta(&mut self, slot: usize, m: u32) -> Flit {
        debug_assert_eq!(m, self.slot_meta[slot], "stale metadata word");
        debug_assert!(meta::len(m) > 0, "pop from empty VC");
        let head = meta::head(m);
        let f = self.flit_buf[slot * self.ring + head];
        let new_head = ((head + 1) & self.ring_mask) as u32;
        self.slot_meta[slot] = ((m - meta::LEN_ONE) & !(meta::HEAD_MASK << meta::HEAD_SHIFT))
            | (new_head << meta::HEAD_SHIFT);
        f
    }

    /// Queues a packet at its (owned) source NIC.
    pub(crate) fn admit(
        &mut self,
        plan: &EnginePlan<'_>,
        src: NodeId,
        dst: NodeId,
        flits: u32,
        inject_cycle: u64,
    ) {
        let local = plan.partition.local_of_node[src.index()] as usize;
        debug_assert_eq!(
            usize::from(plan.partition.shard_of_node[src.index()]),
            self.id,
            "admission to a node this shard does not own"
        );
        let pid = self.packets.len() as u32;
        self.packets.push(PacketInfo {
            src,
            dst,
            inject_cycle,
            flits,
            ejected: 0,
        });
        self.class_of.push(plan.initial_class(src, dst));
        self.import_of.push((u16::MAX, 0));
        self.nodes[local].src_queue.push_back(pid);
        self.pending_sources += 1;
        self.origin_packets += 1;
        self.stats.rerouted_hops += plan.extra_hops(src, dst);
        let backlog = self.nodes[local].src_queue.len() as u32
            + u32::from(self.nodes[local].emitting.is_some());
        if backlog > self.stats.peak_backlog[src.index()] {
            self.stats.peak_backlog[src.index()] = backlog;
        }
        self.set_src(local);
    }

    /// Applies one closed-loop source credit to an owned node: a packet
    /// that node emitted has fully ejected, so its window slot frees and
    /// the source is re-armed if it has queued work. Called locally from
    /// switch traversal (same-shard destination) or from the exchange
    /// phase (mailbox credit) — both are first observable by the next
    /// cycle's emission stage.
    fn apply_source_credit(&mut self, plan: &EnginePlan<'_>, src: NodeId) {
        let local = plan.partition.local_of_node[src.index()] as usize;
        debug_assert_eq!(
            usize::from(plan.partition.shard_of_node[src.index()]),
            self.id,
            "source credit delivered to a shard that does not own the source"
        );
        debug_assert!(self.outstanding[local] > 0, "source credit underflow");
        self.outstanding[local] -= 1;
        if self.nodes[local].emitting.is_some() || !self.nodes[local].src_queue.is_empty() {
            self.set_src(local);
        }
    }

    // ---- the five pipeline stages --------------------------------------

    /// One simulated cycle for this shard (the step phase of a
    /// superstep). Boundary traffic lands in `self.outbox`; the caller is
    /// responsible for posting outboxes and running the exchange phase.
    /// Credit application needs no stage of its own: the double-buffered
    /// [`CreditCell`]s fold freed credits in on their next access, which
    /// preserves next-cycle visibility exactly.
    pub(crate) fn step(&mut self, plan: &EnginePlan<'_>, now: u64) {
        self.step_probed(plan, now, &mut NoopProbe);
    }

    /// [`Self::step`] with a telemetry probe attached. With
    /// [`NoopProbe`] every hook site monomorphizes away, so the plain
    /// `step` compiles to the pre-telemetry engine exactly.
    pub(crate) fn step_probed<P: Probe>(&mut self, plan: &EnginePlan<'_>, now: u64, probe: &mut P) {
        self.deliver_link_arrivals(plan, now);
        self.emit_from_sources(plan, now, probe);
        self.route_compute();
        self.alloc_and_traverse(plan, now, probe);
    }

    /// Stage 1: drain this cycle's calendar bucket into input buffers.
    fn deliver_link_arrivals(&mut self, plan: &EnginePlan<'_>, now: u64) {
        let bucket = (now & self.wheel_mask) as usize;
        let occ_bit = 1u64 << (bucket & 63);
        if self.wheel_occ[bucket >> 6] & occ_bit == 0 {
            return;
        }
        self.wheel_occ[bucket >> 6] &= !occ_bit;
        // The arrival cycle is the link-traversal cycle; the router
        // pipeline (RC, VA/SA, ST) starts the following cycle, so a
        // hop costs `link latency + pipeline` cycles end to end.
        let ready = now + 1 + plan.cfg.pipeline_dwell();
        let mut events = std::mem::take(&mut self.wheel[bucket]);
        self.inflight_arrivals -= events.len() as u64;
        for (lid, vc, flit) in events.drain(..) {
            let node = usize::from(self.arrive_node_of_link[lid as usize]);
            let slot = self.arrive_slot_of_link[lid as usize] as usize + usize::from(vc);
            let mut f = flit;
            f.ready = ready;
            self.push_flit(node, slot, f);
        }
        // Hand the bucket's allocation back for reuse.
        self.wheel[bucket] = events;
    }

    /// Stage 2: NIC emission into the injection port, source-active nodes
    /// only. A source that cannot push (its injection VCs are full) is
    /// parked out of `src_mask`; it is re-armed when an injection-VC slot
    /// frees at this node (in-port-0 pop in switch traversal) or a new
    /// packet is admitted, so no cycle the seed engine would use for
    /// emission is missed.
    fn emit_from_sources<P: Probe>(&mut self, plan: &EnginePlan<'_>, now: u64, probe: &mut P) {
        let dwell = plan.cfg.pipeline_dwell();
        for w in 0..self.src_mask.len() {
            let mut bits = self.src_mask[w];
            while bits != 0 {
                let node = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let mut pushed = false;
                let window = plan.cfg.max_outstanding;
                if self.nodes[node].emitting.is_none() {
                    // Closed loop: a full window parks the source until an
                    // ejection returns a source credit.
                    let window_open = window == 0 || (self.outstanding[node] as usize) < window;
                    if let Some(&pid) = self.nodes[node].src_queue.front() {
                        if P::ENABLED && !window_open {
                            probe.on_stall(
                                StallCause::WindowClosed,
                                NodeId(self.global_of_node[node]),
                                now,
                            );
                        }
                        if window_open {
                            // Pick an injection VC in the packet's class.
                            let info = self.packets[pid as usize];
                            let range = plan.vc_range(self.class_of[pid as usize]);
                            let base = self.ctl[node].vc_base as usize; // in-port 0 ⇒ slot = base + vc
                            let pick = range.clone().find(|&v| {
                                meta::len(self.slot_meta[base + v]) < plan.cfg.buffer_depth
                            });
                            if let Some(v) = pick {
                                self.nodes[node].src_queue.pop_front();
                                let mut inject_cycle = info.inject_cycle;
                                if window > 0 {
                                    self.outstanding[node] += 1;
                                    let g = usize::from(self.global_of_node[node]);
                                    if self.outstanding[node] > self.stats.peak_outstanding[g] {
                                        self.stats.peak_outstanding[g] = self.outstanding[node];
                                    }
                                    // Closed-loop latency is network latency:
                                    // restart the measured clock at emission,
                                    // leaving NIC queueing to the backlog
                                    // gauge (unmeasured warm-up packets keep
                                    // their u64::MAX marker).
                                    if inject_cycle != u64::MAX {
                                        inject_cycle = now;
                                        self.packets[pid as usize].inject_cycle = now;
                                    }
                                }
                                self.nodes[node].emitting = Some(Emission {
                                    packet: pid,
                                    emitted: 0,
                                    total: info.flits,
                                    vc: v as u8,
                                    dst: info.dst,
                                    inject_cycle,
                                });
                            }
                        }
                    }
                }
                if let Some(mut em) = self.nodes[node].emitting {
                    let slot = self.ctl[node].vc_base as usize + usize::from(em.vc);
                    if meta::len(self.slot_meta[slot]) < plan.cfg.buffer_depth {
                        let flit = Flit {
                            packet: em.packet,
                            dst: em.dst,
                            is_head: em.emitted == 0,
                            is_tail: em.emitted + 1 == em.total,
                            ready: now + dwell,
                        };
                        self.push_flit(node, slot, flit);
                        if P::ENABLED && flit.is_head {
                            probe.on_inject(
                                PacketKey {
                                    src: NodeId(self.global_of_node[node]),
                                    inject_cycle: em.inject_cycle,
                                },
                                em.dst,
                                em.total,
                                now,
                            );
                        }
                        pushed = true;
                        self.active_flits += 1;
                        self.stats.flits_injected += 1;
                        if let Some(tm) = plan.tenants {
                            let g = usize::from(self.global_of_node[node]);
                            self.stats.tenants[usize::from(tm.tenant_of_node[g])].flits_injected +=
                                1;
                        }
                        em.emitted += 1;
                        self.nodes[node].emitting = if em.emitted == em.total {
                            self.pending_sources -= 1;
                            None
                        } else {
                            Some(em)
                        };
                    }
                }
                // Done (nothing left) or parked (blocked on full VCs).
                if !pushed
                    || (self.nodes[node].emitting.is_none()
                        && self.nodes[node].src_queue.is_empty())
                {
                    self.clear_src(node);
                }
            }
        }
    }

    /// Stage 3: route computation, dirty slots only. A slot is marked when
    /// a head flit lands at the front of an idle VC (on push, or when a
    /// tail departs with the next packet queued behind it), so this visits
    /// exactly the VCs the seed engine's full scan would transition.
    fn route_compute(&mut self) {
        while let Some(slot) = self.rc_dirty.pop() {
            let slot = slot as usize;
            let m = self.slot_meta[slot];
            debug_assert_eq!(meta::tag(m), meta::IDLE, "dirty slot must be idle");
            debug_assert!(meta::len(m) > 0, "dirty slot has a queued head");
            let head = &self.flit_buf[slot * self.ring + meta::head(m)];
            debug_assert!(head.is_head, "queue head after Idle must be a head flit");
            let node = usize::from(self.node_of_slot[slot]);
            let out_port = self.nodes[node].route_port[head.dst.index()];
            let idx = slot - self.ctl[node].vc_base as usize;
            self.slot_meta[slot] =
                (m & meta::STATE_CLEAR) | meta::ROUTED | (u32::from(out_port) << meta::PORT_SHIFT);
            self.routed_mask[self.ctl[node].port_base as usize + usize::from(out_port)] |= 1 << idx;
            self.ctl[node].routed_ports |= 1 << out_port;
            self.ctl[node].routed_count += 1;
        }
    }

    /// Stages 4 + 5, fused per node: VC allocation (round-robin per
    /// output port) followed by switch allocation + traversal, one flit
    /// per out-port and per in-port per cycle, work-active nodes only.
    ///
    /// Fusing the two stages per node is bit-for-bit equivalent to two
    /// full passes: a node's VC allocation reads only its own masks and
    /// slot metadata, while another node's traversal writes land in
    /// structures invisible until next cycle (double-buffered credit
    /// cells, calendar buckets ≥ `now + 1`, mailbox outboxes) — and the
    /// node's state stays hot in cache across both stages. Within a
    /// node, arbitration order is identical to the seed engine's.
    fn alloc_and_traverse<P: Probe>(&mut self, plan: &EnginePlan<'_>, now: u64, probe: &mut P) {
        let vcs = plan.cfg.vcs;
        let dwell = plan.cfg.pipeline_dwell();
        for w in 0..self.work_mask.len() {
            let mut bits = self.work_mask[w];
            while bits != 0 {
                let node = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let c = self.ctl[node];
                let base = c.vc_base as usize;
                let pb = c.port_base as usize;
                let total_in_vcs = usize::from(c.total_in_vcs);

                // --- VC allocation ---
                if c.routed_count != 0 {
                    // Ports with routed VCs, ascending — the same ports a
                    // full 0..out_ports probe would act on.
                    let mut rp = c.routed_ports;
                    while rp != 0 {
                        let p = rp.trailing_zeros() as usize;
                        rp &= rp - 1;
                        // Only VCs actually Routed for this port, in the
                        // same round-robin order a full scan from va_rr
                        // would use.
                        let mask = self.routed_mask[pb + p];
                        let start = usize::from(self.va_rr[pb + p]);
                        // Fault-degraded links expose only the low half of
                        // each class's VCs (ejection ports never degrade).
                        let degraded = self.out_port_info[pb + p].degraded;
                        for idx in cyclic_bits(mask, start) {
                            let m = self.slot_meta[base + idx];
                            debug_assert_eq!(meta::tag(m), meta::ROUTED);
                            debug_assert_eq!(meta::out_port(m), p);
                            debug_assert!(meta::len(m) > 0, "Routed VC holds its head flit");
                            let head_packet =
                                self.flit_buf[(base + idx) * self.ring + meta::head(m)].packet;
                            // Free VCs open to this packet's class, as a
                            // bitmask: lowest set bit = the VC the range
                            // scan would have found.
                            let class = self.class_of[head_packet as usize];
                            let open = if degraded {
                                plan.degraded_class_mask(class)
                            } else {
                                plan.class_mask(class)
                            };
                            let free = !self.holder_mask[pb + p] & open;
                            if free != 0 {
                                let ovc = free.trailing_zeros() as usize;
                                if P::ENABLED {
                                    let info = &self.packets[head_packet as usize];
                                    probe.on_vc_alloc(
                                        PacketKey {
                                            src: info.src,
                                            inject_cycle: info.inject_cycle,
                                        },
                                        NodeId(self.global_of_node[node]),
                                        ovc as u8,
                                        now,
                                    );
                                }
                                self.holder_mask[pb + p] |= 1 << ovc;
                                self.active_pid[base + idx] = head_packet;
                                self.slot_meta[base + idx] = (m & meta::STATE_CLEAR)
                                    | meta::ACTIVE
                                    | ((p as u32) << meta::PORT_SHIFT)
                                    | ((ovc as u32) << meta::OVC_SHIFT);
                                self.routed_mask[pb + p] &= !(1 << idx);
                                self.ctl[node].routed_count -= 1;
                                self.active_mask[pb + p] |= 1 << idx;
                                self.ctl[node].active_ports |= 1 << p;
                                self.va_rr[pb + p] = rr_next(idx, total_in_vcs);
                            } else if P::ENABLED {
                                probe.on_stall(
                                    StallCause::VaLoss,
                                    NodeId(self.global_of_node[node]),
                                    now,
                                );
                            }
                        }
                        if self.routed_mask[pb + p] == 0 {
                            self.ctl[node].routed_ports &= !(1 << p);
                        }
                    }
                }

                // --- switch allocation + traversal ---
                // The seed engine zeroes this for every node during its
                // full emission scan; here the reset rides the switch
                // stage of active nodes (quiescent nodes have no flits to
                // arbitrate, so their stale masks are unobservable).
                self.ctl[node].in_port_used = 0;
                let mut ap = self.ctl[node].active_ports;
                while ap != 0 {
                    let p = ap.trailing_zeros() as usize;
                    ap &= ap - 1;
                    // Only VCs actually Active on this port, in the same
                    // round-robin order a full scan from sa_rr would use.
                    let mask = self.active_mask[pb + p];
                    let start = usize::from(self.sa_rr[pb + p]);
                    let opi = self.out_port_info[pb + p];
                    let mut winner: Option<(usize, u8, u32)> = None;
                    for idx in cyclic_bits(mask, start) {
                        let m = self.slot_meta[base + idx];
                        debug_assert_eq!(meta::tag(m), meta::ACTIVE);
                        debug_assert_eq!(meta::out_port(m), p);
                        let in_port = usize::from(self.in_port_of_slot[base + idx]);
                        if self.ctl[node].in_port_used & (1 << in_port) != 0 {
                            if P::ENABLED {
                                probe.on_stall(
                                    StallCause::SaLoss,
                                    NodeId(self.global_of_node[node]),
                                    now,
                                );
                            }
                            continue;
                        }
                        if meta::len(m) == 0 {
                            // Active VC with all buffered flits already
                            // forwarded (body flits still in transit).
                            continue;
                        }
                        let ready = self.flit_buf[(base + idx) * self.ring + meta::head(m)].ready;
                        if ready > now {
                            continue;
                        }
                        let out_vc = meta::out_vc(m);
                        if p > 0 {
                            let lid = opi.link as usize;
                            if self.credits[lid * vcs + out_vc].normalize(now) == 0 {
                                if P::ENABLED {
                                    probe.on_stall(
                                        StallCause::CreditStarved,
                                        NodeId(self.global_of_node[node]),
                                        now,
                                    );
                                }
                                continue;
                            }
                        }
                        winner = Some((idx, out_vc as u8, m));
                        break;
                    }
                    let Some((idx, out_vc, wm)) = winner else {
                        continue;
                    };
                    self.sa_rr[pb + p] = rr_next(idx, total_in_vcs);
                    let flit = self.pop_flit_meta(base + idx, wm);
                    self.ctl[node].buffered -= 1;
                    if self.ctl[node].buffered == 0 {
                        self.clear_work(node);
                    }
                    let in_port = usize::from(self.in_port_of_slot[base + idx]);
                    self.ctl[node].in_port_used |= 1 << in_port;
                    self.stats.router_flits[usize::from(self.global_of_node[node])] += 1;

                    // Return a credit upstream for the slot we just freed;
                    // an injection-port pop re-arms a parked source. A
                    // boundary upstream gets its credit by mail (applied
                    // during the exchange phase — the same next-cycle
                    // visibility as the local pending half of the cell).
                    if in_port > 0 {
                        let cred = self.credit_of_slot[base + idx] as usize;
                        let owner = usize::from(self.src_shard_of_slot[base + idx]);
                        if owner == self.id {
                            self.credits[cred].free(now);
                        } else {
                            self.outbox[owner].credits.push((cred as u32, now));
                        }
                    } else if self.nodes[node].emitting.is_some()
                        || !self.nodes[node].src_queue.is_empty()
                    {
                        self.set_src(node);
                    }

                    if p == 0 {
                        // Ejection.
                        let pid = flit.packet as usize;
                        self.packets[pid].ejected += 1;
                        self.stats.flits_delivered += 1;
                        let accepted = now >= self.accept_from && now < self.accept_until;
                        if accepted {
                            self.stats.accepted_flits += 1;
                        }
                        // Tenant traffic is tile-internal, so the ejecting
                        // node's tenant is the packet's tenant.
                        if let Some(tm) = plan.tenants {
                            let g = usize::from(self.global_of_node[node]);
                            let lane = &mut self.stats.tenants[usize::from(tm.tenant_of_node[g])];
                            lane.flits_delivered += 1;
                            if accepted {
                                lane.accepted_flits += 1;
                            }
                        }
                        self.active_flits -= 1;
                        if self.packets[pid].is_complete() {
                            self.completed_packets += 1;
                            let info = self.packets[pid];
                            if P::ENABLED {
                                probe.on_eject(
                                    PacketKey {
                                        src: info.src,
                                        inject_cycle: info.inject_cycle,
                                    },
                                    NodeId(self.global_of_node[node]),
                                    now,
                                );
                            }
                            if info.inject_cycle != u64::MAX {
                                self.stats
                                    .record_packet(info.flits, now + 1 - info.inject_cycle);
                                if let Some(tm) = plan.tenants {
                                    let g = usize::from(self.global_of_node[node]);
                                    self.stats.tenants[usize::from(tm.tenant_of_node[g])]
                                        .latency
                                        .record(now + 1 - info.inject_cycle);
                                }
                            }
                            // Closed loop: hand the window slot back to the
                            // origin. An immigrant packet's origin lives in
                            // another shard — mail the credit (applied in
                            // this superstep's exchange, visible next cycle,
                            // the same timing as the local decrement).
                            if plan.cfg.max_outstanding > 0 {
                                let owner =
                                    usize::from(plan.partition.shard_of_node[info.src.index()]);
                                if owner == self.id {
                                    self.apply_source_credit(plan, info.src);
                                } else {
                                    self.outbox[owner].src_credits.push(info.src.0);
                                }
                            }
                        }
                    } else {
                        let lid = opi.link as usize;
                        self.credits[lid * vcs + usize::from(out_vc)].take(now);
                        let pid = flit.packet as usize;
                        if P::ENABLED && flit.is_head {
                            let info = &self.packets[pid];
                            probe.on_hop(
                                PacketKey {
                                    src: info.src,
                                    inject_cycle: info.inject_cycle,
                                },
                                opi.link,
                                now,
                            );
                        }
                        if opi.express {
                            // Dateline: the packet is class B from here on.
                            self.class_of[pid] = VcClass::PostExpress;
                        }
                        self.stats.link_flits[lid] += 1;
                        let arrive = now + u64::from(opi.latency);
                        let target = usize::from(opi.dst_shard);
                        if target == self.id {
                            if opi.latency == 1 {
                                // One-cycle links skip the calendar: the
                                // flit lands in its destination VC at send
                                // time with the ready cycle the deliver
                                // stage would have stamped next cycle.
                                // This is observable-behavior-preserving
                                // for latency 1 only — the head is marked
                                // RC-dirty this cycle and route computation
                                // drains the list next cycle, exactly when
                                // a calendar delivery at `now + 1` would
                                // have routed it, and the early-buffered
                                // flit cannot win arbitration before
                                // `ready` (nor push its slot's VC state;
                                // wormhole order is unchanged because a
                                // link's flits all take this path).
                                let dst = usize::from(self.arrive_node_of_link[lid]);
                                let slot =
                                    self.arrive_slot_of_link[lid] as usize + usize::from(out_vc);
                                let mut f = flit;
                                f.ready = now + 2 + dwell;
                                self.push_flit(dst, slot, f);
                            } else {
                                self.wheel_push(arrive, (opi.link, out_vc, flit));
                            }
                        } else {
                            let info = &self.packets[pid];
                            self.outbox[target].flits.push(BoundaryFlit {
                                link: lid as u32,
                                vc: out_vc,
                                arrive,
                                flit,
                                class: self.class_of[pid],
                                flits: info.flits,
                                inject_cycle: info.inject_cycle,
                                origin: info.src,
                            });
                            self.active_flits -= 1;
                        }
                    }

                    if flit.is_tail {
                        self.holder_mask[pb + p] &= !(1 << out_vc);
                        let m = self.slot_meta[base + idx] & meta::STATE_CLEAR;
                        self.slot_meta[base + idx] = m; // back to Idle
                        self.active_mask[pb + p] &= !(1 << idx);
                        if self.active_mask[pb + p] == 0 {
                            self.ctl[node].active_ports &= !(1 << p);
                        }
                        if meta::len(m) > 0 {
                            // The next packet's head is already queued
                            // behind the departed tail: needs RC next
                            // cycle.
                            self.rc_dirty.push((base + idx) as u32);
                        }
                    }
                }
            }
        }
    }

    // ---- superstep exchange --------------------------------------------

    /// Swaps every non-empty outbox into the shared mailbox grid (end of
    /// the step phase).
    fn post_outboxes(&mut self, shared: &Shared) {
        for (target, bundle) in self.outbox.iter_mut().enumerate() {
            if target == self.id || bundle.is_empty() {
                continue;
            }
            let mut cell = shared.mail[self.id][target]
                .lock()
                .expect("mailbox not poisoned");
            debug_assert!(cell.is_empty(), "mailbox collision (missed exchange)");
            std::mem::swap(&mut *cell, bundle);
        }
    }

    /// Ingests one incoming bundle: applies boundary credits and books
    /// boundary flits into the local calendar wheel, minting local packet
    /// handles for arriving heads (the exchange phase). `now` is the
    /// shard's next unexecuted cycle. The bundle spans the round's
    /// window: credits already due (freed before `now`) are applied
    /// spendable-at-`now` directly — the next-cycle visibility of a
    /// locally freed credit — and later ones wait in the ripening buffer
    /// for their cycle.
    pub(crate) fn ingest(
        &mut self,
        plan: &EnginePlan<'_>,
        from: u16,
        bundle: &mut OutBundle,
        now: u64,
    ) {
        for (idx, freed) in bundle.credits.drain(..) {
            if freed < now {
                self.credits[idx as usize].ripen(now);
            } else {
                self.ripen.push((freed + 1, idx));
            }
        }
        for src in bundle.src_credits.drain(..) {
            self.apply_source_credit(plan, NodeId(src));
        }
        let vcs = plan.cfg.vcs;
        for m in bundle.flits.drain(..) {
            let key = m.link as usize * vcs + usize::from(m.vc);
            if m.flit.is_head {
                let pid = self.packets.len() as u32;
                self.packets.push(PacketInfo {
                    // The *origin* node, not the boundary link's source:
                    // the closed-loop credit goes back to the NIC that
                    // emitted the packet, however many shards away.
                    src: m.origin,
                    dst: m.flit.dst,
                    inject_cycle: m.inject_cycle,
                    flits: m.flits,
                    ejected: 0,
                });
                self.class_of.push(m.class);
                self.import_of.push((from, m.flit.packet));
                self.remap[key] = pid;
            }
            debug_assert_ne!(self.remap[key], u32::MAX, "body flit without a head");
            let mut f = m.flit;
            f.packet = self.remap[key];
            self.wheel_push(m.arrive, (m.link, m.vc, f));
            self.active_flits += 1;
        }
    }

    /// Applies every ripening-buffer credit due at or before `now`
    /// (lookahead rounds call this at the top of each cycle, before the
    /// staleness pre-check and arbitration read any cell).
    fn apply_ripe_credits(&mut self, now: u64) {
        if self.ripen.is_empty() {
            return;
        }
        let mut i = 0;
        while i < self.ripen.len() {
            let (due, idx) = self.ripen[i];
            if due <= now {
                self.credits[idx as usize].ripen(now);
                self.ripen.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Whether cycle `now` is safe to execute beyond the visibility
    /// frontier: every outgoing-boundary credit cell reads non-zero.
    /// (A non-zero cell can only be under-counted — missed remote frees
    /// never invent credits — and switch allocation takes at most one
    /// credit per cell per cycle, so any cell that starts the cycle
    /// non-zero is consulted with the same zero/non-zero answer the
    /// per-cycle protocol would see. A zero cell beyond the frontier
    /// may be a stale zero, so the round must stop here.)
    fn lookahead_safe(&self, now: u64) -> bool {
        self.cut_out_cells
            .iter()
            .all(|&c| self.credits[c as usize].peek(now) > 0)
    }

    /// Drains every mailbox addressed to this shard (the exchange phase);
    /// `now` is the shard's next unexecuted cycle.
    fn collect_inboxes<P: Probe>(
        &mut self,
        plan: &EnginePlan<'_>,
        shared: &Shared,
        now: u64,
        probe: &mut P,
    ) {
        for &from in &plan.inbox_sources[self.id] {
            let mut scratch = {
                let mut cell = shared.mail[usize::from(from)][self.id]
                    .lock()
                    .expect("mailbox not poisoned");
                if cell.is_empty() {
                    continue;
                }
                std::mem::take(&mut *cell)
            };
            // Probed runs exchange every cycle (W = 1): the bundle is
            // the mail of the one cycle just executed, `now - 1`.
            if P::ENABLED {
                probe.on_exchange(
                    usize::from(from),
                    self.id,
                    scratch.flits.len(),
                    scratch.credits.len(),
                    now - 1,
                );
            }
            self.ingest(plan, from, &mut scratch, now);
            // Return the drained allocation for the sender to reuse.
            let mut cell = shared.mail[usize::from(from)][self.id]
                .lock()
                .expect("mailbox not poisoned");
            if cell.is_empty() {
                std::mem::swap(&mut *cell, &mut scratch);
            }
        }
    }

    // ---- deadlock triage ------------------------------------------------

    /// Reconstructs which (in-port, in-VC) holds output VC `v` of local
    /// node `node`'s out-port `p` — cold dump path only; the hot path
    /// tracks just the packed `holder_mask`.
    fn holder_of(&self, node: usize, p: usize, v: usize) -> Option<(u8, u8)> {
        let base = self.ctl[node].vc_base as usize;
        (0..usize::from(self.ctl[node].total_in_vcs)).find_map(|idx| {
            let m = self.slot_meta[base + idx];
            if meta::tag(m) == meta::ACTIVE && meta::out_port(m) == p && meta::out_vc(m) == v {
                Some((
                    self.in_port_of_slot[base + idx],
                    self.vc_of_slot[base + idx],
                ))
            } else {
                None
            }
        })
    }

    /// Builds the channel wait-for graph of this shard's stuck state and
    /// prints one cycle if present. Channels are (link, vc) pairs;
    /// injection VCs are virtual channels numbered past the links. With
    /// P > 1 only intra-shard cycles are visible — a genuine cross-shard
    /// cycle shows up as chains ending at boundary links in several
    /// shards' dumps.
    fn dump_waitfor_cycle(&self, plan: &EnginePlan<'_>, now: u64) {
        let vcs = plan.cfg.vcs;
        let links = plan.topo.links().len();
        let chan = |lid: usize, vc: usize| lid * vcs + vc;
        let inj_chan = |node: usize, vc: usize| links * vcs + node * vcs + vc;
        let total = links * vcs + plan.topo.num_nodes() * vcs;
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); total];
        for (node, st) in self.nodes.iter().enumerate() {
            let base = self.ctl[node].vc_base as usize;
            for idx in 0..st.in_ports() * vcs {
                let slot = base + idx;
                let m = self.slot_meta[slot];
                if meta::len(m) == 0 {
                    continue;
                }
                let in_port = idx / vcs;
                let in_vc = idx % vcs;
                let src_chan = if in_port == 0 {
                    inj_chan(st.node.index(), in_vc)
                } else {
                    chan(st.in_links[in_port - 1].index(), in_vc)
                };
                let out_port = meta::out_port(m);
                match meta::tag(m) {
                    meta::ACTIVE if out_port > 0 => {
                        let out_vc = meta::out_vc(m);
                        let lid = st.out_links[out_port - 1].index();
                        if self.credits[lid * vcs + out_vc].peek(now) == 0 {
                            edges[src_chan].push(chan(lid, out_vc));
                        }
                    }
                    meta::ROUTED if out_port > 0 => {
                        // Waiting for a held out VC in the packet's class.
                        let head = self.front_flit(slot).expect("nonempty");
                        let range = plan.vc_range(self.class_of[head.packet as usize]);
                        let pb = self.ctl[node].port_base as usize;
                        for v in range {
                            if self.holder_mask[pb + out_port] & (1 << v) != 0 {
                                let lid = st.out_links[out_port - 1].index();
                                edges[src_chan].push(chan(lid, v));
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        // Iterative DFS cycle detection.
        let mut color = vec![0u8; total];
        let mut parent = vec![usize::MAX; total];
        for start in 0..total {
            if color[start] != 0 {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            color[start] = 1;
            while let Some(&mut (u, ref mut ei)) = stack.last_mut() {
                if *ei < edges[u].len() {
                    let v = edges[u][*ei];
                    *ei += 1;
                    if color[v] == 0 {
                        color[v] = 1;
                        parent[v] = u;
                        stack.push((v, 0));
                    } else if color[v] == 1 {
                        // Cycle found: unwind from u back to v.
                        let mut cyc = vec![v, u];
                        let mut w = u;
                        while w != v {
                            w = parent[w];
                            cyc.push(w);
                        }
                        eprintln!(
                            "WAIT-FOR CYCLE in shard {} ({} channels):",
                            self.id,
                            cyc.len() - 1
                        );
                        for &c in cyc.iter().rev() {
                            if c >= links * vcs {
                                let node = (c - links * vcs) / vcs;
                                eprintln!("  inj node {} vc {}", node, c % vcs);
                            } else {
                                let l = plan.topo.link(LinkId((c / vcs) as u32));
                                eprintln!(
                                    "  link {}->{} ({:?}) vc {}",
                                    l.src.0,
                                    l.dst.0,
                                    l.class,
                                    c % vcs
                                );
                            }
                        }
                        return;
                    }
                } else {
                    color[u] = 2;
                    stack.pop();
                }
            }
        }
        eprintln!(
            "shard {}: no wait-for cycle found (stall, not deadlock)",
            self.id
        );
    }

    /// Prints every blocked head flit in this shard and why it cannot
    /// progress.
    pub(crate) fn dump_blocked(&self, plan: &EnginePlan<'_>, now: u64) {
        self.dump_waitfor_cycle(plan, now);
        let vcs = plan.cfg.vcs;
        let mut lines = 0;
        for (node, st) in self.nodes.iter().enumerate() {
            let base = self.ctl[node].vc_base as usize;
            for idx in 0..st.in_ports() * vcs {
                let slot = base + idx;
                let Some(head) = self.front_flit(slot) else {
                    continue;
                };
                let in_port = idx / vcs;
                let in_vc = idx % vcs;
                let m = self.slot_meta[slot];
                let out_port = meta::out_port(m);
                let reason = match meta::tag(m) {
                    meta::IDLE => "idle (RC pending)".to_string(),
                    meta::ROUTED => {
                        let holders: Vec<String> = (0..vcs)
                            .map(|v| match self.holder_of(node, out_port, v) {
                                None => format!("vc{v}:free"),
                                Some((ip, iv)) => format!("vc{v}:held({ip},{iv})"),
                            })
                            .collect();
                        format!("awaiting VA on out{} [{}]", out_port, holders.join(" "))
                    }
                    _ => {
                        let out_vc = meta::out_vc(m);
                        if out_port == 0 {
                            "active->eject".to_string()
                        } else {
                            let lid = st.out_links[out_port - 1];
                            format!(
                                "active out{} vc{} credits={} ready={}",
                                out_port,
                                out_vc,
                                self.credits[lid.index() * vcs + out_vc].peek(now),
                                head.ready
                            )
                        }
                    }
                };
                eprintln!(
                    "cycle {now} node {} in{in_port}.vc{in_vc} q={} pkt{} class={:?} dst={} {}",
                    st.node.0,
                    meta::len(m),
                    head.packet,
                    self.class_of[head.packet as usize],
                    head.dst.0,
                    reason
                );
                lines += 1;
                if lines > 60 {
                    eprintln!("... (truncated)");
                    return;
                }
            }
        }
    }
}

// ---- workloads ----------------------------------------------------------

/// Precomputed per-node injection rates and destination CDFs of a
/// synthetic run (prefix-sum tables, binary-searched per draw); empty
/// for trace runs.
#[derive(Default)]
pub(crate) struct InjectTables {
    rates: Vec<f64>,
    cdf_acc: Vec<Vec<f64>>,
    cdf_dst: Vec<Vec<NodeId>>,
}

impl InjectTables {
    pub fn new(topo: &Topology, matrix: &TrafficMatrix) -> Self {
        assert_eq!(matrix.num_nodes(), topo.num_nodes());
        let n = topo.num_nodes();
        let mut rates = Vec::with_capacity(n);
        let mut cdf_acc: Vec<Vec<f64>> = Vec::with_capacity(n);
        let mut cdf_dst: Vec<Vec<NodeId>> = Vec::with_capacity(n);
        for src in topo.nodes() {
            let rate = matrix.injection_rate(src);
            let mut acc_col = Vec::new();
            let mut dst_col = Vec::new();
            if rate > 0.0 {
                let mut acc = 0.0;
                for dst in topo.nodes() {
                    let r = matrix.rate(src, dst);
                    if r > 0.0 {
                        acc += r / rate;
                        acc_col.push(acc);
                        dst_col.push(dst);
                    }
                }
            }
            rates.push(rate);
            cdf_acc.push(acc_col);
            cdf_dst.push(dst_col);
        }
        InjectTables {
            rates,
            cdf_acc,
            cdf_dst,
        }
    }

    /// Replays one cycle of the Bernoulli injection stream. **Every**
    /// worker calls this with an identically-seeded RNG and consumes the
    /// exact same draw sequence — `admit` is invoked for every injected
    /// packet and the callee decides whether it owns the source. This is
    /// what keeps P-shard injection bit-for-bit identical to P=1.
    ///
    /// `factors` is the cycle's per-node burst modulation
    /// ([`BurstState::factors_at`]): the gate fires with probability
    /// `rate × factor`. The steady factor is exactly 1.0 and `x * 1.0`
    /// is bit-exact in IEEE 754, so steady runs reproduce the unmodulated
    /// stream. A node's draw happens whenever its *rate* is nonzero —
    /// independent of the factor (even an OFF factor of 0 draws, it just
    /// never fires) — so the RNG stream position is burst-invariant and
    /// snapshot splices across spec changes stay well-formed.
    pub fn inject_cycle(
        &self,
        rng: &mut StdRng,
        now: u64,
        warmup: u64,
        factors: &[f64],
        mut admit: impl FnMut(NodeId, NodeId, u64),
    ) {
        for (src, (&rate, &factor)) in self.rates.iter().zip(factors).enumerate() {
            if rate > 0.0 && rng.gen::<f64>() < rate * factor {
                let u: f64 = rng.gen();
                // First entry with acc ≥ u (prefix sums are
                // nondecreasing); the last entry backstops floating-point
                // shortfall at u ≈ 1.
                let i = self.cdf_acc[src].partition_point(|&acc| acc < u);
                let dst = *self.cdf_dst[src]
                    .get(i)
                    .unwrap_or_else(|| self.cdf_dst[src].last().expect("nonempty cdf"));
                if dst == NodeId(src as u16) {
                    continue;
                }
                let measured = now >= warmup;
                // Unmeasured packets are marked by u64::MAX and skipped in
                // `record`.
                let inject_cycle = if measured { now } else { u64::MAX };
                admit(NodeId(src as u16), dst, inject_cycle);
            }
        }
    }
}

// ---- the lockstep worker loop ------------------------------------------

/// The run loop's resumable position: everything the loop itself owns
/// (shard state is carried separately). Snapshots serialize this verbatim
/// so a restored run continues the exact admission stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunCursor {
    /// Next cycle to simulate.
    pub now: u64,
    /// Next unadmitted trace-event index (trace workloads).
    pub next_event: u64,
    /// Synthetic-injection RNG state (xoshiro256**).
    pub rng: [u64; 4],
}

impl RunCursor {
    /// Start-of-run cursor for a trace workload. Traces draw no random
    /// numbers; the RNG field is a fixed placeholder stream.
    pub fn fresh_for_trace() -> Self {
        RunCursor {
            now: 0,
            next_event: 0,
            rng: StdRng::seed_from_u64(0).state(),
        }
    }

    /// Start-of-run cursor for a synthetic workload seeded with `seed`.
    pub fn fresh_for_synthetic(seed: u64) -> Self {
        RunCursor {
            now: 0,
            next_event: 0,
            rng: StdRng::seed_from_u64(seed).state(),
        }
    }
}

/// How a bounded run ended: the workload drained, or the stop cycle was
/// reached first (resume from the carried cursor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunEnd {
    /// Everything delivered; the value is the final cycle count.
    Done(u64),
    /// `stop_at` reached with work outstanding.
    Stopped(RunCursor),
}

/// Worker-local phase-time accumulator that flushes into the shared
/// [`ProfileSink`] on every exit path (pause, drain, cycle-limit error)
/// via `Drop`.
struct ProfFlush<'a> {
    sink: Option<&'a ProfileSink>,
    step_ns: u64,
    exchange_ns: u64,
    barrier_ns: u64,
    supersteps: u64,
}

impl Drop for ProfFlush<'_> {
    fn drop(&mut self) {
        if let Some(sink) = self.sink {
            sink.add(
                self.step_ns,
                self.exchange_ns,
                self.barrier_ns,
                self.supersteps,
            );
        }
    }
}

/// Nanoseconds since `*mark`, advancing the mark; 0 when unset
/// (profiling off — no `Instant` is ever taken).
#[inline]
fn lap(mark: &mut Option<std::time::Instant>) -> u64 {
    match mark {
        Some(prev) => {
            let t = std::time::Instant::now();
            let d = t.duration_since(*prev).as_nanos() as u64;
            *mark = Some(t);
            d
        }
        None => 0,
    }
}

/// Runs `my` (this worker's shards) from `start` until the workload
/// drains or `stop_at` is reached, in lockstep with the other workers —
/// the one superstep loop behind every run. Every control decision is
/// derived from data identical across workers, so all workers
/// step/jump/stop on the same cycles.
///
/// Supersteps cover windows of up to W = `plan.lookahead` cycles. W = 1
/// is the per-cycle protocol: single-shard plans and closed-loop configs
/// derive it (closed-loop source credits need next-cycle global
/// visibility), `ShardedSimulator::with_lookahead(1)` forces it, and
/// probed runs clamp to it below (probes observe every cycle, in order,
/// including the exchange timing wider windows amortize away). With one
/// shard there is nobody to exchange with: the loop skips the mailbox
/// grid and both barriers.
///
/// Soundness of W > 1 rests on three facts (see `docs/ARCHITECTURE.md`,
/// "Conservative lookahead"):
///
/// * **Flits**: a boundary flit sent at any cycle of window `[T, T+W)`
///   travels a link of latency ≥ W, so it arrives ≥ T+W — always
///   bookable at the inter-round exchange before its receiver executes
///   the next window.
/// * **Credits**: arbitration only ever compares a boundary credit cell
///   against zero, and takes at most one credit per cell per cycle.
///   Missed remote frees under-count, never over-count, so a non-zero
///   reading is exact. A *zero* reading beyond the visibility frontier
///   (the minimum shard progress at the last exchange) may be stale —
///   the shard stops its round there and retries after the next
///   exchange, when ripened credits or a grown frontier resolve it.
///   The minimum-progress shard is always at its own frontier, so every
///   round advances the global state: worst case degrades to the
///   per-cycle protocol, never past it.
/// * **Consensus**: termination and idle fast-forward decisions move to
///   window boundaries, where every worker sees barrier-fresh published
///   state. Each worker tracks the cycle the per-cycle protocol would
///   rest at (`candidate`: past every executed cycle, onto every real
///   idle-jump target); a drained run ends at the maximum over workers.
///
/// The probe observes this worker's shards only; probed runs are
/// single-worker (see [`run_shards`]) so one probe sees everything.
/// `opts.profile`, when set, receives this worker's superstep phase
/// times (step / exchange / barrier) on exit.
#[allow(clippy::too_many_arguments)]
fn worker_loop_windowed<P: Probe>(
    plan: &EnginePlan<'_>,
    shared: &Shared,
    my: &mut [ShardState],
    workload: Workload<'_>,
    tables: &InjectTables,
    worker_index: usize,
    start: RunCursor,
    opts: &RunOpts<'_>,
    probe: &mut P,
) -> Result<RunEnd, SimError> {
    let stop_at = opts.stop_at;
    let mut acc = ProfFlush {
        sink: opts.profile,
        step_ns: 0,
        exchange_ns: 0,
        barrier_ns: 0,
        supersteps: 0,
    };
    // Shard-id → index into `my` (MAX = not mine).
    let mut mine = vec![usize::MAX; plan.partition.num_shards()];
    for (i, s) in my.iter().enumerate() {
        mine[s.id] = i;
    }
    let window = if P::ENABLED { 1 } else { plan.lookahead };
    let exchange = plan.partition.num_shards() > 1;
    let mut next_event = start.next_event as usize; // full-trace cursor
    let mut rng = StdRng::from_state(start.rng);
    // Burst factors are a pure function of (workload seed, node, cycle),
    // so the cache needs no snapshotting and is valid from any window
    // start. Traces carry their own timing — steady placeholder.
    let mut burst = match workload {
        Workload::Synthetic { seed, .. } => {
            BurstState::new(plan.cfg.burst, seed, plan.topo.num_nodes())
        }
        Workload::Trace(_) => BurstState::steady(),
    };
    // Cycles before this force-step (and draw the per-cycle synthetic
    // RNG); traces have no forced window.
    let inject_end = match workload {
        Workload::Synthetic {
            warmup, measure, ..
        } => warmup + measure,
        Workload::Trace(_) => 0,
    };
    // The cycle the per-cycle protocol would rest at were everything
    // else drained: bumped past every executed cycle and onto every
    // real (not window-clamped) idle-jump target.
    let mut candidate = start.now;
    // Credit-visibility frontier: minimum shard progress at the last
    // exchange. Cycles ≤ frontier see every remote free exactly.
    let mut frontier = start.now;
    let mut t = start.now; // current window start (identical across workers)
    let mut u = start.now; // this worker's cycle within the window
    let mut ran_window = false;
    loop {
        // ---- window boundary: every shard is at `t` and the last
        // round's published state is barrier-fresh ----
        let done = shared
            .done_at
            .iter()
            .map(|d| d.load(Ordering::Acquire))
            .max()
            .unwrap_or(u64::MAX);
        if done != u64::MAX {
            // Every worker drained and exhausted its workload. All
            // resting cycles are ≤ stop_at, so a resting point below it
            // is a genuine drain; otherwise the per-cycle protocol
            // would have paused at stop_at first.
            if done < stop_at {
                return Ok(RunEnd::Done(done));
            }
            return Ok(RunEnd::Stopped(RunCursor {
                now: stop_at,
                next_event: next_event as u64,
                rng: rng.state(),
            }));
        }
        if t >= stop_at {
            return Ok(RunEnd::Stopped(RunCursor {
                now: t,
                next_event: next_event as u64,
                rng: rng.state(),
            }));
        }
        if ran_window && t > plan.cfg.max_cycles {
            // Windows clamp at `max_cycles + 1`, so `t` lands exactly
            // on the first cycle past the limit.
            if opts.dump_on_stall {
                for s in my.iter() {
                    s.dump_blocked(plan, t);
                }
            }
            // Origins and completions accumulate separately: a shard that
            // mostly *receives* traffic completes more packets than it
            // originates, so per-shard differences can be negative; the
            // global difference equals the P=1 stuck-packet count.
            let origins: u64 = my.iter().map(|s| s.origin_packets).sum();
            let completed: u64 = my.iter().map(|s| s.completed_packets).sum();
            shared.stuck_origins.fetch_add(origins, Ordering::SeqCst);
            shared
                .stuck_completed
                .fetch_add(completed, Ordering::SeqCst);
            shared.barrier.wait();
            return Err(SimError::CycleLimit {
                stuck_packets: shared.stuck_origins.load(Ordering::SeqCst)
                    - shared.stuck_completed.load(Ordering::SeqCst),
            });
        }
        // Global idle fast-forward: everyone quiescent — jump the whole
        // window frame to the next booked arrival or admission. Every
        // worker computes the same target from published data and its
        // own (identical) admission cursor.
        if shared
            .published
            .iter()
            .all(|p| !p.active.load(Ordering::Acquire))
        {
            let next_arrival = shared
                .published
                .iter()
                .map(|p| p.next_arrival.load(Ordering::Acquire))
                .min()
                .unwrap_or(u64::MAX);
            let next_admission = match workload {
                Workload::Trace(trace) => trace.events.get(next_event).map(|e| e.cycle),
                Workload::Synthetic { .. } => (t < inject_end).then_some(t),
            };
            let target = match (next_arrival, next_admission) {
                // Fully drained *and* exhausted is settled by the
                // `done_at` consensus above once a round has published
                // it; until then, run the (no-op) round below.
                (u64::MAX, None) => None,
                (u64::MAX, Some(c)) => Some(c),
                (a, None) => Some(a),
                (a, Some(c)) => Some(a.min(c)),
            };
            if let Some(target) = target {
                // A bounded run never jumps past its stop cycle — the
                // boundary check turns the landing into a clean pause.
                let target = target.min(stop_at);
                if target > t {
                    // The skipped cycles are provably no-ops everywhere
                    // (nothing buffered, booked, or admissible), so the
                    // frontier rides along.
                    candidate = target;
                    t = target;
                    u = target;
                    frontier = target;
                    continue;
                }
            }
        }
        // ---- one window: rounds of up-to-W cycles ----
        let end = (t + window)
            .min(stop_at)
            .min((plan.cfg.max_cycles + 1).max(t + 1));
        ran_window = true;
        loop {
            // -- run [u, end), as far as credit visibility allows --
            let mut mark = acc.sink.map(|_| std::time::Instant::now());
            let mut stepped = false;
            'cycles: while u < end {
                for s in my.iter_mut() {
                    s.apply_ripe_credits(u);
                }
                // Staleness pre-check, before admission so a stopped
                // round re-admits nothing (and re-draws no RNG) when it
                // retries this cycle. Admission cannot make a flit
                // consult a boundary credit in the same cycle (a fresh
                // emission's ready stamp is beyond `u`), so checking
                // first covers everything arbitration will read.
                if u > frontier && !my.iter().all(|s| s.lookahead_safe(u)) {
                    break 'cycles;
                }
                // Admission at `u` — the same global stream every
                // worker replays, cycle for cycle.
                let mut must_step = false;
                match workload {
                    Workload::Trace(trace) => {
                        while next_event < trace.events.len() && trace.events[next_event].cycle <= u
                        {
                            let e = &trace.events[next_event];
                            next_event += 1;
                            let shard = usize::from(plan.partition.shard_of_node[e.src.index()]);
                            // Faulted topologies: traffic to or from a
                            // dead router has no route — dropped at
                            // admission (owner counts it), activating
                            // nothing, so fast-forward stays legal.
                            if !plan.routes.reachable(e.src, e.dst) {
                                if mine[shard] != usize::MAX {
                                    my[mine[shard]].stats.unreachable_pairs += 1;
                                    if P::ENABLED {
                                        probe.on_stall(StallCause::NoRoute, e.src, u);
                                    }
                                }
                                continue;
                            }
                            // Any admission (even to another worker's
                            // shard) activates some shard.
                            must_step = true;
                            if mine[shard] != usize::MAX {
                                my[mine[shard]].admit(plan, e.src, e.dst, e.flits, e.cycle);
                            }
                        }
                    }
                    Workload::Synthetic { warmup, .. } => {
                        if u < inject_end {
                            // The injection window always steps.
                            must_step = true;
                            let factors = burst.factors_at(u);
                            tables.inject_cycle(
                                &mut rng,
                                u,
                                warmup,
                                factors,
                                |src, dst, inject_cycle| {
                                    let shard =
                                        usize::from(plan.partition.shard_of_node[src.index()]);
                                    if mine[shard] == usize::MAX {
                                        return;
                                    }
                                    // The RNG draws already happened
                                    // identically on every worker;
                                    // dropping here keeps the sequence.
                                    if !plan.routes.reachable(src, dst) {
                                        my[mine[shard]].stats.unreachable_pairs += 1;
                                        if P::ENABLED {
                                            probe.on_stall(StallCause::NoRoute, src, u);
                                        }
                                        return;
                                    }
                                    my[mine[shard]].admit(plan, src, dst, 1, inject_cycle);
                                },
                            );
                        }
                    }
                }
                // Local idle jump: cycles this worker provably no-ops
                // through (no admission, no buffered work, no booked
                // arrival) are skipped without consensus — foreign mail
                // cannot land before the window ends.
                if !must_step && my.iter().all(|s| s.quiescent()) {
                    let own_arrival = my
                        .iter()
                        .filter_map(|s| s.next_arrival_cycle(u))
                        .min()
                        .unwrap_or(u64::MAX);
                    let next_evt = match workload {
                        Workload::Trace(trace) => {
                            trace.events.get(next_event).map_or(u64::MAX, |e| e.cycle)
                        }
                        Workload::Synthetic { .. } => u64::MAX, // injection over
                    };
                    let real = own_arrival.min(next_evt);
                    if real > u {
                        if real <= end {
                            // A real timeline position the per-cycle
                            // protocol would also land on; a clamp to
                            // `end` is a window artifact and is not a
                            // resting point.
                            candidate = real;
                        }
                        u = real.min(end);
                        continue 'cycles;
                    }
                }
                for s in my.iter_mut() {
                    s.step_probed(plan, u, probe);
                }
                stepped = true;
                u += 1;
                candidate = u;
            }
            acc.step_ns += lap(&mut mark);
            // -- exchange: post, sync, collect, publish --
            for s in my.iter() {
                shared.progress[s.id].store(u, Ordering::Release);
            }
            if exchange {
                for s in my.iter_mut() {
                    s.post_outboxes(shared);
                }
                acc.exchange_ns += lap(&mut mark);
                shared.barrier.wait();
                acc.barrier_ns += lap(&mut mark);
                for s in my.iter_mut() {
                    s.collect_inboxes(plan, shared, u, probe);
                }
            }
            // Post-collect lockstep data. Deadness is evaluated after
            // the mail landed, so any in-flight flit keeps some worker
            // live and the drain consensus can never fire early. The
            // next arrival is only read while nobody is active.
            let active = my.iter().any(|s| !s.quiescent());
            shared.published[worker_index]
                .active
                .store(active, Ordering::Release);
            let mut dead = false;
            if !active {
                let arr = my
                    .iter()
                    .filter_map(|s| s.next_arrival_cycle(u))
                    .min()
                    .unwrap_or(u64::MAX);
                shared.published[worker_index]
                    .next_arrival
                    .store(arr, Ordering::Release);
                dead = arr == u64::MAX
                    && match workload {
                        Workload::Trace(trace) => next_event >= trace.events.len(),
                        Workload::Synthetic { .. } => u >= inject_end,
                    };
            }
            shared.done_at[worker_index]
                .store(if dead { candidate } else { u64::MAX }, Ordering::Release);
            // Probed runs use one-cycle windows (W = 1), so a stepped
            // round executed exactly cycle `u - 1`.
            if P::ENABLED && stepped {
                for s in my.iter() {
                    probe.on_cycle_end(EngineView { state: s, plan }, u - 1);
                }
            }
            // Frontier and window consensus from the published progress
            // (stored before the exchange barrier, so the reads below
            // are the same on every worker).
            let minp = shared
                .progress
                .iter()
                .map(|p| p.load(Ordering::Acquire))
                .min()
                .unwrap_or(u);
            frontier = minp;
            acc.exchange_ns += lap(&mut mark);
            if exchange {
                shared.barrier.wait();
                acc.barrier_ns += lap(&mut mark);
            }
            acc.supersteps += 1;
            if minp >= end {
                break;
            }
        }
        debug_assert_eq!(u, end, "window completed with a lagging shard");
        t = end;
    }
}

/// Runs a workload over `shards` from `start` until it drains or
/// `opts.stop_at` is reached, with up to `threads` worker threads (0 =
/// one per shard) — the one driver behind [`ShardedSimulator::run`].
/// `threads == 1` runs everything on the calling thread (still
/// exchanging through the mailbox grid when P > 1 — the protocol is
/// identical, only the parallelism differs). A run with a real probe
/// (`P::ENABLED`) is forced single-worker so one probe instance observes
/// every shard of every cycle — statistics are bit-for-bit independent
/// of the worker count, so this only affects wall clock.
/// `opts.profile`, when set, collects superstep phase times from all
/// workers (profiling uses atomics, so it composes with threading). The
/// shards are left in their end-of-run state so the caller can snapshot
/// or merge them.
#[allow(clippy::too_many_arguments)]
fn run_shards<P: Probe>(
    plan: &EnginePlan<'_>,
    shards: &mut [ShardState],
    threads: usize,
    workload: Workload<'_>,
    tables: &InjectTables,
    start: RunCursor,
    opts: &RunOpts<'_>,
    probe: &mut P,
) -> Result<RunEnd, SimError> {
    let nshards = shards.len();
    let workers = match threads {
        _ if P::ENABLED => 1,
        0 => nshards,
        t => t.min(nshards),
    };
    // Acceptance window for `SimStats::accepted_flits`: the measurement
    // window of a synthetic run, the whole run for traces.
    let (accept_from, accept_until) = match workload {
        Workload::Trace(_) => (0, u64::MAX),
        Workload::Synthetic {
            warmup, measure, ..
        } => (warmup, warmup + measure),
    };
    for s in shards.iter_mut() {
        s.accept_from = accept_from;
        s.accept_until = accept_until;
    }
    let shared = Shared::new(nshards, workers);
    // Contiguous chunks, sizes balanced to within one shard.
    let base = nshards / workers;
    let rem = nshards % workers;
    let mut rest = &mut shards[..];
    let mut chunks = Vec::with_capacity(workers);
    for w in 0..workers {
        let take = base + usize::from(w < rem);
        let (head, tail) = rest.split_at_mut(take);
        chunks.push(head);
        rest = tail;
    }
    // Publish pre-run activity. A resumed run starts with live shard
    // state, and the very first lockstep decision reads the other
    // workers' published flags — the default idle values would let a
    // worker fast-forward past a restored neighbor's booked arrivals.
    for (w, chunk) in chunks.iter().enumerate() {
        let active = chunk.iter().any(|s| !s.quiescent());
        shared.published[w].active.store(active, Ordering::Release);
        let arr = chunk
            .iter()
            .filter_map(|s| s.next_arrival_cycle(start.now))
            .min()
            .unwrap_or(u64::MAX);
        shared.published[w]
            .next_arrival
            .store(arr, Ordering::Release);
    }
    if workers == 1 {
        let chunk = chunks.pop().expect("one worker has one chunk");
        return worker_loop_windowed(
            plan, &shared, chunk, workload, tables, 0, start, opts, probe,
        );
    }
    let shared_ref = &shared;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .enumerate()
            .map(|(w, chunk)| {
                scope.spawn(move || {
                    worker_loop_windowed(
                        plan,
                        shared_ref,
                        chunk,
                        workload,
                        tables,
                        w,
                        start,
                        opts,
                        &mut NoopProbe,
                    )
                })
            })
            .collect();
        // Lockstep guarantees identical outcomes; keep the first.
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .reduce(|a, b| {
                debug_assert_eq!(a, b, "workers diverged");
                a
            })
            .expect("at least one worker")
    })
}

/// Merges the per-shard statistics of a finished run.
pub(crate) fn merge_stats(plan: &EnginePlan<'_>, shards: &[ShardState], cycles: u64) -> SimStats {
    let mut merged = SimStats::new(plan.topo.links().len(), plan.topo.num_nodes());
    for s in shards {
        merged.absorb(&s.stats);
    }
    merged.cycles = cycles;
    merged
}

// ---- snapshot export / import ------------------------------------------

/// `VcClass` ↔ snapshot byte. The order matters: a packet's class only
/// ever moves forward (Free stays Free; PreExpress → PostExpress on the
/// first express traversal), so the canonical class of a packet split
/// across per-shard handles is the numeric maximum over its chain.
#[inline]
fn class_to_u8(c: VcClass) -> u8 {
    match c {
        VcClass::Free => 0,
        VcClass::PreExpress => 1,
        VcClass::PostExpress => 2,
    }
}

#[inline]
fn class_from_u8(v: u8) -> VcClass {
    match v {
        0 => VcClass::Free,
        1 => VcClass::PreExpress,
        _ => VcClass::PostExpress,
    }
}

/// Exports the complete logical state of a run at the cycle boundary
/// `cursor.now` (cycles `0..now` simulated, `now` not yet) into the
/// partition-independent [`GlobalState`].
///
/// Per-shard packet handles are resolved to global packets by chaining
/// each handle's provenance (`import_of`) back to its admission-minted
/// root; completed chains are dropped — they survive through the merged
/// statistics and the completion counters. The latency-1 wheel bypass is
/// undone: a buffered flit stamped `now + 1 + dwell` can only have been
/// pushed by the bypass during the last simulated cycle (normal
/// deliveries and emissions stamp at most `now + dwell`), so it is
/// exported as still in flight on its link with arrival cycle `now`,
/// which is exactly where a calendar-only engine would hold it.
pub(crate) fn export_shards(
    plan: &EnginePlan<'_>,
    shards: &[ShardState],
    cursor: &RunCursor,
) -> GlobalState {
    let now = cursor.now;
    let vcs = plan.cfg.vcs;
    let dwell = plan.cfg.pipeline_dwell();

    // --- resolve per-shard packet handles to global packets ---
    // Handle index = noff[shard] + shard-local pid.
    let mut noff = Vec::with_capacity(shards.len());
    let mut total = 0usize;
    for s in shards {
        noff.push(total);
        total += s.packets.len();
    }
    let mut parent = vec![u32::MAX; total];
    for (sid, s) in shards.iter().enumerate() {
        for (p, &(from, fpid)) in s.import_of.iter().enumerate() {
            if from != u16::MAX {
                parent[noff[sid] + p] = (noff[usize::from(from)] + fpid as usize) as u32;
            }
        }
    }
    let root_of = |mut h: usize| -> usize {
        while parent[h] != u32::MAX {
            h = parent[h] as usize;
        }
        h
    };
    // Aggregate per chain: ejections happen at exactly one handle (the
    // destination shard's) and the dateline class only moves forward, so
    // sum and max are the canonical global values.
    let mut agg_ejected = vec![0u32; total];
    let mut agg_class = vec![0u8; total];
    for (sid, s) in shards.iter().enumerate() {
        for p in 0..s.packets.len() {
            let r = root_of(noff[sid] + p);
            agg_ejected[r] += s.packets[p].ejected;
            agg_class[r] = agg_class[r].max(class_to_u8(s.class_of[p]));
        }
    }
    // Number the live roots in (shard, pid) scan order.
    let mut gpid_of = vec![u32::MAX; total];
    let mut packets = Vec::new();
    for (sid, s) in shards.iter().enumerate() {
        for (p, info) in s.packets.iter().enumerate() {
            let h = noff[sid] + p;
            if parent[h] != u32::MAX || agg_ejected[h] >= info.flits {
                continue; // segment handle, or a completed packet
            }
            gpid_of[h] = packets.len() as u32;
            packets.push(PacketImage {
                src: info.src.0,
                dst: info.dst.0,
                inject_cycle: info.inject_cycle,
                flits: info.flits,
                ejected: agg_ejected[h],
                class: agg_class[h],
            });
        }
    }
    // Propagate each root's number down its chain (roots map to
    // themselves; segments read their root's entry).
    for h in 0..total {
        gpid_of[h] = gpid_of[root_of(h)];
    }
    let map = |sid: usize, pid: u32| -> u32 {
        let g = gpid_of[noff[sid] + pid as usize];
        debug_assert_ne!(g, u32::MAX, "live state references a completed packet");
        g
    };

    // --- per-node images (with the wheel bypass stripped) ---
    let mut nodes = Vec::with_capacity(plan.topo.num_nodes());
    let mut stripped: Vec<(u32, EventImage)> = Vec::new();
    for g in 0..plan.topo.num_nodes() {
        let sid = usize::from(plan.partition.shard_of_node[g]);
        let s = &shards[sid];
        let local = plan.partition.local_of_node[g] as usize;
        let st = &s.nodes[local];
        let c = s.ctl[local];
        let base = c.vc_base as usize;
        let pb = c.port_base as usize;
        let in_ports = st.in_ports();
        let out_ports = st.out_ports();
        let mut slots = Vec::with_capacity(in_ports * vcs);
        for idx in 0..in_ports * vcs {
            let slot = base + idx;
            let m = s.slot_meta[slot];
            let len = meta::len(m);
            let head = meta::head(m);
            let mut queue = Vec::with_capacity(len);
            for k in 0..len {
                let f = s.flit_buf[slot * s.ring + ((head + k) & s.ring_mask)];
                queue.push(FlitImage {
                    packet: map(sid, f.packet),
                    dst: f.dst.0,
                    is_head: f.is_head,
                    is_tail: f.is_tail,
                    ready: f.ready,
                });
            }
            let in_port = idx / vcs;
            if in_port > 0 {
                if let Some(last) = queue.last() {
                    if last.ready == now + 1 + dwell {
                        // Latency-1 bypass push from the last simulated
                        // cycle: canonically still on the link.
                        let mut ev = queue.pop().expect("nonempty");
                        ev.ready = 0;
                        let lid = st.in_links[in_port - 1].index() as u32;
                        stripped.push((
                            lid,
                            EventImage {
                                arrive: now,
                                vc: (idx % vcs) as u8,
                                flit: ev,
                            },
                        ));
                    }
                }
            }
            slots.push(SlotImage {
                tag: meta::tag(m) as u8,
                out_port: meta::out_port(m) as u8,
                out_vc: meta::out_vc(m) as u8,
                active_pid: if meta::tag(m) == meta::ACTIVE {
                    map(sid, s.active_pid[slot])
                } else {
                    u32::MAX
                },
                queue,
            });
        }
        nodes.push(NodeImage {
            slots,
            src_queue: st.src_queue.iter().map(|&p| map(sid, p)).collect(),
            emitting: st.emitting.map(|em| EmissionImage {
                packet: map(sid, em.packet),
                emitted: em.emitted,
                total: em.total,
                vc: em.vc,
                dst: em.dst.0,
                inject_cycle: em.inject_cycle,
            }),
            outstanding: s.outstanding[local],
            va_rr: (0..out_ports).map(|p| u16::from(s.va_rr[pb + p])).collect(),
            sa_rr: (0..out_ports).map(|p| u16::from(s.sa_rr[pb + p])).collect(),
        });
    }

    // --- in-flight link events (wheel contents + stripped bypasses) ---
    let mut links: Vec<Vec<EventImage>> = vec![Vec::new(); plan.topo.links().len()];
    for (sid, s) in shards.iter().enumerate() {
        for (bucket, evs) in s.wheel.iter().enumerate() {
            if evs.is_empty() {
                continue;
            }
            // Arrivals live in [now, now + wheel_len); the bucket index
            // recovers the absolute cycle.
            let arrive = now
                + ((bucket as u64 + s.wheel.len() as u64 - (now & s.wheel_mask)) & s.wheel_mask);
            for &(lid, vc, f) in evs {
                links[lid as usize].push(EventImage {
                    arrive,
                    vc,
                    flit: FlitImage {
                        packet: map(sid, f.packet),
                        dst: f.dst.0,
                        is_head: f.is_head,
                        is_tail: f.is_tail,
                        ready: 0,
                    },
                });
            }
        }
    }
    for (lid, ev) in stripped {
        links[lid as usize].push(ev);
    }
    for evs in &mut links {
        evs.sort_by_key(|e| e.arrive);
        debug_assert!(
            evs.windows(2).all(|w| w[0].arrive < w[1].arrive),
            "two flits on one link with the same arrival cycle"
        );
    }

    GlobalState {
        now,
        next_event: cursor.next_event,
        rng: cursor.rng,
        accept_from: shards[0].accept_from,
        accept_until: shards[0].accept_until,
        origin_packets: shards.iter().map(|s| s.origin_packets).sum(),
        completed_packets: shards.iter().map(|s| s.completed_packets).sum(),
        vcs: vcs as u32,
        stats: merge_stats(plan, shards, now),
        packets,
        nodes,
        links,
    }
}

/// Encodes the state of a (possibly mid-run) sharded simulation under
/// the plan's fingerprint and the given workload fingerprint.
pub(crate) fn snapshot_shards(
    plan: &EnginePlan<'_>,
    shards: &[ShardState],
    cursor: &RunCursor,
    workload_hash: u64,
) -> Snapshot {
    let gs = export_shards(plan, shards, cursor);
    let plan_hash = crate::snapshot::plan_fingerprint(
        plan.topo,
        plan.routes,
        &plan.cfg,
        plan.baseline,
        plan.tenants,
    );
    Snapshot::encode(&gs, plan_hash, workload_hash)
}

/// Lazy per-(shard, global packet) handle minting during import. Each
/// shard that holds any piece of a packet gets exactly one local handle;
/// the handles are chained through `import_of` (in minting order) so a
/// later re-export resolves them back to one global packet.
struct Minter {
    /// `local_of[shard][gpid]`: the minted local pid, `u32::MAX` if none.
    local_of: Vec<Vec<u32>>,
    /// Chain tail per global packet (`u16::MAX` = no handle yet).
    last: Vec<(u16, u32)>,
    /// Shard owning each packet's destination node — the one handle that
    /// carries the ejection count (counting it anywhere else would
    /// double-count on re-export).
    dst_shard: Vec<u16>,
}

impl Minter {
    fn mint(&mut self, s: &mut ShardState, gs: &GlobalState, gpid: u32) -> u32 {
        let g = gpid as usize;
        let have = self.local_of[s.id][g];
        if have != u32::MAX {
            return have;
        }
        let img = &gs.packets[g];
        let pid = s.packets.len() as u32;
        s.packets.push(PacketInfo {
            src: NodeId(img.src),
            dst: NodeId(img.dst),
            inject_cycle: img.inject_cycle,
            flits: img.flits,
            ejected: if usize::from(self.dst_shard[g]) == s.id {
                img.ejected
            } else {
                0
            },
        });
        s.class_of.push(class_from_u8(img.class));
        s.import_of.push(self.last[g]);
        self.last[g] = (s.id as u16, pid);
        self.local_of[s.id][g] = pid;
        pid
    }
}

/// `Ok` when `ok` holds, [`SnapshotError::Corrupt`] otherwise.
fn ensure(ok: bool) -> Result<(), SnapshotError> {
    ok.then_some(()).ok_or(SnapshotError::Corrupt)
}

/// Rejects a well-formed state no run can reach, which the engine would
/// panic or miscount continuing from (see `docs/SNAPSHOT_FORMAT.md`):
/// every live packet's flits are accounted for exactly once (ejected,
/// buffered, in flight, or still at its source NIC); closed-loop window
/// counts match the packets out of each NIC; and every VC stream is in
/// wormhole order — the stream into an input VC (its queue, then its
/// link's in-flight flits) is mid-packet exactly when the upstream side
/// (the slot holding the VC, or the NIC's emission on the injection
/// port) still has body flits to send.
fn check_reachable(plan: &EnginePlan<'_>, gs: &GlobalState) -> Result<(), SnapshotError> {
    let (topo, vcs) = (plan.topo, plan.cfg.vcs);
    let mut seen: Vec<u64> = gs.packets.iter().map(|p| u64::from(p.ejected)).collect();
    let mut see = |f: &FlitImage| {
        seen[f.packet as usize] += 1;
        ensure(gs.packets[f.packet as usize].dst == f.dst)
    };
    // The active slot holding each (link, vc); one per output VC.
    let mut holder: Vec<Option<&SlotImage>> = vec![None; topo.links().len() * vcs];
    for (g, n) in gs.nodes.iter().enumerate() {
        let outgoing = topo.outgoing(NodeId(g as u16));
        let mut held = vec![0u32; outgoing.len() + 1];
        for img in &n.slots {
            img.queue.iter().try_for_each(&mut see)?;
            // Whole packets in order (a head follows exactly a tail); an
            // active slot forwards its own packet first.
            ensure(img.queue.windows(2).all(|w| w[0].is_tail == w[1].is_head))?;
            if u32::from(img.tag) == meta::ACTIVE {
                ensure(img.queue.first().is_none_or(|f| f.packet == img.active_pid))?;
                let (p, bit) = (usize::from(img.out_port), 1u32 << img.out_vc);
                ensure(p < held.len() && held[p] & bit == 0)?;
                held[p] |= bit;
                if p > 0 {
                    holder[outgoing[p - 1].index() * vcs + usize::from(img.out_vc)] = Some(img);
                }
            }
        }
    }
    gs.links.iter().flatten().try_for_each(|ev| see(&ev.flit))?;
    let mut out_of_nic = vec![0u64; gs.nodes.len()];
    for p in &gs.packets {
        out_of_nic[usize::from(p.src)] += 1;
    }
    for (g, n) in gs.nodes.iter().enumerate() {
        for &pid in &n.src_queue {
            let p = &gs.packets[pid as usize];
            ensure(usize::from(p.src) == g)?;
            seen[pid as usize] += u64::from(p.flits);
        }
        if let Some(em) = &n.emitting {
            let p = &gs.packets[em.packet as usize];
            ensure(usize::from(p.src) == g && em.total == p.flits && em.dst == p.dst)?;
            seen[em.packet as usize] += u64::from(em.total - em.emitted);
        }
        // Each queued packet is counted once (the ledger below).
        out_of_nic[g] = out_of_nic[g].saturating_sub(n.src_queue.len() as u64);
    }
    ensure(
        gs.packets
            .iter()
            .zip(&seen)
            .all(|(p, &k)| k == u64::from(p.flits)),
    )?;
    let closed = plan.cfg.max_outstanding > 0;
    for (d, n) in gs.nodes.iter().enumerate() {
        ensure(u64::from(n.outstanding) == if closed { out_of_nic[d] } else { 0 })?;
        let incoming = topo.incoming(NodeId(d as u16));
        ensure(n.slots.len() == (incoming.len() + 1) * vcs)?;
        for (idx, img) in n.slots.iter().enumerate() {
            let (port, vc) = (idx / vcs, idx % vcs);
            // Mid-packet after the queue: a body flit must come next.
            let mut open = match img.queue.last() {
                Some(f) => !f.is_tail,
                None => u32::from(img.tag) == meta::ACTIVE,
            };
            let upstream_open = if port == 0 {
                n.emitting.is_some_and(|em| usize::from(em.vc) == vc)
            } else {
                let lid = incoming[port - 1].index();
                for ev in gs.links[lid].iter().filter(|e| usize::from(e.vc) == vc) {
                    ensure(ev.flit.is_head != open)?;
                    open = !ev.flit.is_tail;
                }
                holder[lid * vcs + vc].is_some_and(|h| h.queue.first().is_none_or(|f| !f.is_head))
            };
            ensure(open == upstream_open)?;
        }
    }
    Ok(())
}

/// Rebuilds per-shard engine state from a decoded snapshot under `plan`
/// — whose partition may differ from the one the snapshot was taken
/// with. Returns the shards plus the run cursor to resume from.
///
/// Derived state (arbitration masks, work/src bitsets, the RC dirty
/// list, credit counters) is reconstructed from the logical image; see
/// `docs/SNAPSHOT_FORMAT.md` for why each reconstruction is
/// behaviorally identical to the live state it replaces.
pub(crate) fn import_shards(
    plan: &EnginePlan<'_>,
    gs: &GlobalState,
) -> Result<(Vec<ShardState>, RunCursor), SnapshotError> {
    let vcs = plan.cfg.vcs;
    let depth = plan.cfg.buffer_depth;
    if gs.vcs as usize != vcs
        || gs.nodes.len() != plan.topo.num_nodes()
        || gs.links.len() != plan.topo.links().len()
    {
        return Err(SnapshotError::Corrupt);
    }
    check_reachable(plan, gs)?;
    let nshards = plan.partition.num_shards();
    let mut shards: Vec<ShardState> = (0..nshards).map(|id| ShardState::new(plan, id)).collect();
    let mut minter = Minter {
        local_of: vec![vec![u32::MAX; gs.packets.len()]; nshards],
        last: vec![(u16::MAX, 0); gs.packets.len()],
        dst_shard: gs
            .packets
            .iter()
            .map(|p| plan.partition.shard_of_node[usize::from(p.dst)])
            .collect(),
    };

    // --- per-node state ---
    for (g, n) in gs.nodes.iter().enumerate() {
        let sid = usize::from(plan.partition.shard_of_node[g]);
        let s = &mut shards[sid];
        let local = plan.partition.local_of_node[g] as usize;
        let in_ports = s.nodes[local].in_ports();
        let out_ports = s.nodes[local].out_ports();
        if n.slots.len() != in_ports * vcs
            || n.va_rr.len() != out_ports
            || n.sa_rr.len() != out_ports
        {
            return Err(SnapshotError::Corrupt);
        }
        let base = s.ctl[local].vc_base as usize;
        let pb = s.ctl[local].port_base as usize;
        let mut buffered = 0u32;
        for (idx, img) in n.slots.iter().enumerate() {
            let slot = base + idx;
            let len = img.queue.len();
            if len > depth {
                return Err(SnapshotError::Corrupt);
            }
            // Invariants the arbitration stages rely on: a non-empty idle
            // or routed VC holds its packet's head flit at the front.
            if u32::from(img.tag) != meta::ACTIVE && len > 0 && !img.queue[0].is_head {
                return Err(SnapshotError::Corrupt);
            }
            if u32::from(img.tag) == meta::ROUTED && len == 0 {
                return Err(SnapshotError::Corrupt);
            }
            for (k, f) in img.queue.iter().enumerate() {
                let pid = minter.mint(s, gs, f.packet);
                s.flit_buf[slot * s.ring + k] = Flit {
                    packet: pid,
                    dst: NodeId(f.dst),
                    is_head: f.is_head,
                    is_tail: f.is_tail,
                    ready: f.ready,
                };
            }
            // Ring cursor normalized to head = 0.
            s.slot_meta[slot] = u32::from(img.tag)
                | (u32::from(img.out_port) << meta::PORT_SHIFT)
                | (u32::from(img.out_vc) << meta::OVC_SHIFT)
                | ((len as u32) * meta::LEN_ONE);
            buffered += len as u32;
            match u32::from(img.tag) {
                meta::ROUTED => {
                    let p = usize::from(img.out_port);
                    s.routed_mask[pb + p] |= 1 << idx;
                    s.ctl[local].routed_ports |= 1 << p;
                    s.ctl[local].routed_count += 1;
                }
                meta::ACTIVE => {
                    let p = usize::from(img.out_port);
                    s.active_mask[pb + p] |= 1 << idx;
                    s.ctl[local].active_ports |= 1 << p;
                    s.holder_mask[pb + p] |= 1 << img.out_vc;
                    let pid = minter.mint(s, gs, img.active_pid);
                    s.active_pid[slot] = pid;
                }
                _ => {
                    if len > 0 {
                        // Head awaiting route computation. The live
                        // dirty-list order is irrelevant: RC handles each
                        // slot independently.
                        s.rc_dirty.push(slot as u32);
                    }
                }
            }
        }
        s.ctl[local].buffered = buffered;
        if buffered > 0 {
            s.set_work(local);
        }
        for p in 0..out_ports {
            if usize::from(n.va_rr[p]) >= in_ports * vcs
                || usize::from(n.sa_rr[p]) >= in_ports * vcs
            {
                return Err(SnapshotError::Corrupt);
            }
            s.va_rr[pb + p] = n.va_rr[p] as u8;
            s.sa_rr[pb + p] = n.sa_rr[p] as u8;
        }
        for &gpid in &n.src_queue {
            let pid = minter.mint(s, gs, gpid);
            s.nodes[local].src_queue.push_back(pid);
        }
        s.pending_sources += n.src_queue.len() as u64;
        if let Some(em) = &n.emitting {
            let pid = minter.mint(s, gs, em.packet);
            s.nodes[local].emitting = Some(Emission {
                packet: pid,
                emitted: em.emitted,
                total: em.total,
                vc: em.vc,
                dst: NodeId(em.dst),
                inject_cycle: em.inject_cycle,
            });
            s.pending_sources += 1;
        }
        if s.nodes[local].emitting.is_some() || !s.nodes[local].src_queue.is_empty() {
            // May re-arm a source the live engine had parked; the extra
            // emission visit is a no-op that re-parks it (nothing that
            // would let it push can have happened since it parked).
            s.set_src(local);
        }
        s.outstanding[local] = n.outstanding;
        s.active_flits += i64::from(buffered);
    }

    // --- in-flight flits → calendar wheels ---
    for (lid, evs) in gs.links.iter().enumerate() {
        let sid = usize::from(plan.partition.link_dst_shard[lid]);
        let s = &mut shards[sid];
        for ev in evs {
            if ev.arrive - gs.now >= plan.wheel_len as u64 {
                return Err(SnapshotError::Corrupt);
            }
            let pid = minter.mint(s, gs, ev.flit.packet);
            s.wheel_push(
                ev.arrive,
                (
                    lid as u32,
                    ev.vc,
                    Flit {
                        packet: pid,
                        dst: NodeId(ev.flit.dst),
                        is_head: ev.flit.is_head,
                        is_tail: ev.flit.is_tail,
                        ready: 0,
                    },
                ),
            );
            s.active_flits += 1;
        }
    }

    // --- wormhole remap seeding ---
    // A slot mid-transmission (output VC granted, head already departed,
    // tail not yet) has flits of its packet still to cross its output
    // link. If that link is a shard cut under the *new* partition, the
    // receiving shard must already hold the remap entry the in-network
    // head would have minted on ingest.
    for (g, n) in gs.nodes.iter().enumerate() {
        let owner = usize::from(plan.partition.shard_of_node[g]);
        for img in &n.slots {
            if u32::from(img.tag) != meta::ACTIVE || img.out_port == 0 {
                continue;
            }
            let head_departed = match img.queue.first() {
                Some(f) => !f.is_head,
                None => true,
            };
            if !head_departed {
                continue;
            }
            let p = usize::from(img.out_port);
            let local = plan.partition.local_of_node[g] as usize;
            let lid = shards[owner].nodes[local].out_links[p - 1].index();
            let dst_shard = usize::from(plan.partition.link_dst_shard[lid]);
            if dst_shard == owner {
                continue; // intra-shard sends never consult the remap
            }
            let s = &mut shards[dst_shard];
            let pid = minter.mint(s, gs, img.active_pid);
            s.remap[lid * vcs + usize::from(img.out_vc)] = pid;
        }
    }

    // --- derived credit state ---
    // Spendable credits are fully determined by downstream occupancy:
    // depth − (in flight on the link) − (buffered in the destination
    // VC). A freshly-stamped cell (stamp 0, empty pending half) behaves
    // identically to the live cell from cycle `now` on: any access folds
    // the live cell's pending credits in (they were freed strictly
    // before `now`), landing on this same spendable count.
    for lid in 0..plan.topo.links().len() {
        let link = plan.topo.link(LinkId(lid as u32));
        let dst_node = &gs.nodes[link.dst.index()];
        let in_port = usize::from(plan.in_port_of_link[lid]);
        for v in 0..vcs {
            let on_link = gs.links[lid]
                .iter()
                .filter(|e| usize::from(e.vc) == v)
                .count();
            let occupied = on_link + dst_node.slots[in_port * vcs + v].queue.len();
            if occupied > depth {
                return Err(SnapshotError::Corrupt);
            }
            let cell = CreditCell {
                stamp: 0,
                avail: (depth - occupied) as u16,
                pending: 0,
            };
            for s in &mut shards {
                s.credits[lid * vcs + v] = cell;
            }
        }
    }

    // --- global counters, statistics, acceptance window ---
    // The merged history lands on shard 0; per-shard contributions from
    // here on re-merge to the continued-run totals (sums stay sums, peak
    // maxima stay maxima — a node's peaks accrue in exactly one shard).
    shards[0].stats = gs.stats.clone();
    shards[0].origin_packets = gs.origin_packets;
    shards[0].completed_packets = gs.completed_packets;
    for s in &mut shards {
        s.accept_from = gs.accept_from;
        s.accept_until = gs.accept_until;
    }
    Ok((
        shards,
        RunCursor {
            now: gs.now,
            next_event: gs.next_event,
            rng: gs.rng,
        },
    ))
}

// ---- public sharded simulator ------------------------------------------

/// A parallel simulator: the mesh partitioned into rectangular shards
/// advancing in cycle-synchronous supersteps. Produces [`SimStats`]
/// **bit-for-bit identical** to [`crate::Simulator`] (the P=1 case) on
/// every workload — see the module docs for the protocol and
/// `tests/shard_parity.rs` for the pins.
pub struct ShardedSimulator<'a> {
    plan: EnginePlan<'a>,
    shards: Vec<ShardState>,
    threads: usize,
}

impl<'a> ShardedSimulator<'a> {
    /// Builds a sharded simulator over `spec`'s tile grid. `routes` must
    /// have been computed for `topo` (use [`RoutingTable::compute_xy`]).
    pub fn new(
        topo: &'a Topology,
        routes: &'a RoutingTable,
        cfg: SimConfig,
        spec: ShardSpec,
    ) -> Self {
        let partition = Partition::new(topo, spec);
        let plan = EnginePlan::new(topo, routes, cfg, partition);
        let shards = (0..plan.partition.num_shards())
            .map(|id| ShardState::new(&plan, id))
            .collect();
        Self::from_parts(plan, shards)
    }

    /// Wraps an already-built plan and its shards (how
    /// [`crate::Simulator`] runs its single shard), one worker per shard.
    pub(crate) fn from_parts(plan: EnginePlan<'a>, shards: Vec<ShardState>) -> Self {
        ShardedSimulator {
            plan,
            shards,
            threads: 0,
        }
    }

    /// Convenience constructor: a near-square grid of `shards` tiles
    /// (see [`ShardSpec::for_count`]).
    pub fn with_shard_count(
        topo: &'a Topology,
        routes: &'a RoutingTable,
        cfg: SimConfig,
        shards: usize,
    ) -> Self {
        Self::new(topo, routes, cfg, ShardSpec::for_count(shards))
    }

    /// Caps the worker-thread count. `0` (the default) runs one worker
    /// per shard; `1` runs the full superstep protocol on the calling
    /// thread (useful on small hosts — results are identical either way).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Caps the conservative-lookahead window. The plan derives the
    /// window from the cut's minimum boundary-link latency (and
    /// closed-loop configs pin it to 1); this can only *shrink* it — a
    /// window wider than the cut latency would not be conservative.
    /// `0` keeps the derived window; `1` forces one-cycle windows, an
    /// exchange after every cycle (useful for A/B profiling).
    pub fn with_lookahead(mut self, window: u64) -> Self {
        if window > 0 {
            self.plan.lookahead = self.plan.lookahead.min(window);
        }
        self
    }

    /// The conservative-lookahead window this simulator will use:
    /// cycles per superstep exchange (1 = an exchange after every
    /// cycle). Probed runs use 1 whatever this reports.
    pub fn lookahead(&self) -> u64 {
        self.plan.lookahead
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
    /// aggregate, bit-for-bit identical to the single-engine run.
    pub fn with_tenants(mut self, map: &'a TenantMap) -> Self {
        self.plan.set_tenants(map);
        for s in &mut self.shards {
            s.stats.init_tenants(map.tenants);
        }
        self
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Runs `workload` — the one run entry point every other run method
    /// wraps. [`RunOpts::default`] starts fresh at cycle 0 and runs to
    /// completion; the options pause at a cycle boundary (returning
    /// [`RunOutcome::Paused`]), continue a paused run, profile it, or dump
    /// blocked state on a cycle-limit failure. `probe` observes the run
    /// ([`NoopProbe`] for none); probed runs are single-worker so one
    /// probe sees every shard. Statistics are bit-for-bit those of
    /// [`crate::Simulator::run`] at every shard count, worker count, pause
    /// point and probe. Panics if a trace is sized for another topology.
    ///
    /// ```
    /// # use hyppi_netsim::{NoopProbe, RunOpts, ShardedSimulator, SimConfig, Workload};
    /// # use hyppi_phys::LinkTechnology;
    /// # use hyppi_topology::{mesh, MeshSpec, NodeId, RoutingTable, ShardSpec};
    /// # use hyppi_traffic::{Trace, TraceEvent};
    /// let topo = mesh(MeshSpec::paper(LinkTechnology::Electronic));
    /// let routes = RoutingTable::compute_xy(&topo);
    /// let event = TraceEvent { cycle: 0, src: NodeId(0), dst: NodeId(255), flits: 32 };
    /// let trace = Trace::new("demo", 256, 0.0, vec![event]);
    /// let engine = || ShardedSimulator::new(&topo, &routes, SimConfig::paper(), ShardSpec::quadrants());
    /// let workload = Workload::Trace(&trace);
    ///
    /// // Pause at cycle 40, then finish the run from the snapshot.
    /// let until = RunOpts { stop_at: 40, ..RunOpts::default() };
    /// let snap = engine().run(workload, until, &mut NoopProbe).unwrap().expect_paused();
    /// let resume = RunOpts { resume: Some(&snap), ..RunOpts::default() };
    /// let stats = engine().run(workload, resume, &mut NoopProbe).unwrap().expect_finished();
    /// assert_eq!(stats, engine().run_trace(&trace).unwrap());
    /// ```
    pub fn run<P: Probe>(
        mut self,
        workload: Workload<'_>,
        opts: RunOpts<'_>,
        probe: &mut P,
    ) -> Result<RunOutcome, SimError> {
        if let Workload::Trace(trace) = workload {
            let nodes = usize::from(trace.num_nodes);
            assert_eq!(
                nodes,
                self.plan.topo.num_nodes(),
                "trace sized for another topology"
            );
        }
        // Pinned into pause snapshots and checked on resume; computed only
        // then (hashing a trace walks every event).
        let fingerprint = || match workload {
            Workload::Trace(trace) => trace_fingerprint(trace),
            Workload::Synthetic {
                warmup,
                measure,
                seed,
                ..
            } => synthetic_fingerprint(warmup, measure, seed),
        };
        let start = match (opts.resume, workload) {
            (None, Workload::Trace(_)) => RunCursor::fresh_for_trace(),
            (None, Workload::Synthetic { seed, .. }) => RunCursor::fresh_for_synthetic(seed),
            (Some(snap), _) => {
                // Free the fresh state before decoding, so a resume never
                // holds two engine states at once.
                self.shards.clear();
                let (shards, mut cursor) = restore_shards(&self.plan, snap, fingerprint())?;
                self.shards = shards;
                if let (Workload::Trace(trace), 0) = (workload, snap.workload_hash()) {
                    cursor.next_event = rescan_trace_cursor(trace, cursor.now);
                }
                cursor
            }
        };
        let tables = match workload {
            Workload::Synthetic { matrix, .. } => InjectTables::new(self.plan.topo, matrix),
            Workload::Trace(_) => InjectTables::default(),
        };
        let plan = &self.plan;
        let end = run_shards(
            plan,
            &mut self.shards,
            self.threads,
            workload,
            &tables,
            start,
            &opts,
            probe,
        )?;
        Ok(match end {
            RunEnd::Done(cycles) => RunOutcome::Finished(merge_stats(plan, &self.shards, cycles)),
            RunEnd::Stopped(cursor) => {
                RunOutcome::Paused(snapshot_shards(plan, &self.shards, &cursor, fingerprint()))
            }
        })
    }

    /// Runs a trace to completion.
    pub fn run_trace(self, trace: &Trace) -> Result<SimStats, SimError> {
        Ok(self
            .run(Workload::Trace(trace), RunOpts::default(), &mut NoopProbe)?
            .expect_finished())
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

    /// [`Self::run_synthetic`] with a telemetry probe attached.
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

    /// [`Self::run_synthetic`] with engine self-profiling: returns the
    /// statistics plus the superstep phase-time breakdown (step vs.
    /// exchange vs. barrier wait) of every worker.
    pub fn run_synthetic_profiled(
        self,
        matrix: &TrafficMatrix,
        warmup: u64,
        measure: u64,
        seed: u64,
    ) -> Result<(SimStats, EngineProfile), SimError> {
        let workload = Workload::Synthetic {
            matrix,
            warmup,
            measure,
            seed,
        };
        let sink = ProfileSink::new();
        let opts = RunOpts {
            profile: Some(&sink),
            ..RunOpts::default()
        };
        let stats = self.run(workload, opts, &mut NoopProbe)?.expect_finished();
        Ok((stats, sink.profile()))
    }

    // ---- checkpoint / restore -------------------------------------------

    /// Encodes the engine state at the cycle boundary `now`. The
    /// snapshot is partition-independent: all P shards' state is merged
    /// into one global image, so it restores at any shard count
    /// (including P=1 via [`crate::Simulator::restore`]). Pins no
    /// workload; runs with [`RunOpts::stop_at`] produce their own
    /// snapshots instead.
    pub fn snapshot(&self, now: u64) -> Snapshot {
        let cursor = RunCursor {
            now,
            ..RunCursor::fresh_for_trace()
        };
        snapshot_shards(&self.plan, &self.shards, &cursor, 0)
    }

    /// Rebuilds this simulator's state from a snapshot, re-partitioning
    /// it across this simulator's shard grid — the snapshot may have
    /// been taken at any other shard count. Must match this simulator's
    /// topology, routing, and configuration (fingerprint-checked).
    pub fn restore(mut self, snap: &Snapshot) -> Result<Self, SimError> {
        self.shards.clear();
        self.shards = restore_shards(&self.plan, snap, 0)?.0;
        Ok(self)
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

    fn run_sharded_trace(
        topo: &Topology,
        spec: ShardSpec,
        threads: usize,
        events: Vec<TraceEvent>,
    ) -> SimStats {
        let routes = RoutingTable::compute_xy(topo);
        let trace = Trace::new("test", topo.num_nodes() as u16, 0.0, events);
        ShardedSimulator::new(topo, &routes, SimConfig::paper(), spec)
            .with_threads(threads)
            .run_trace(&trace)
            .expect("run completes")
    }

    #[test]
    fn boundary_crossing_preserves_zero_load_latency() {
        // 2×1 mesh split into two shards: the single hop crosses the
        // boundary, and the mailbox exchange must land the flit in the
        // same calendar bucket P=1 would use — 7 cycles exactly.
        let t = small_mesh(2, 1);
        for threads in [1, 2] {
            let stats = run_sharded_trace(
                &t,
                ShardSpec { sx: 2, sy: 1 },
                threads,
                vec![TraceEvent {
                    cycle: 0,
                    src: NodeId(0),
                    dst: NodeId(1),
                    flits: 1,
                }],
            );
            assert_eq!(stats.all.count, 1, "threads {threads}");
            assert_eq!(stats.all.max, 7, "threads {threads}");
            assert_eq!(stats.flits_delivered, 1);
        }
    }

    #[test]
    fn wormhole_packet_reassembles_across_boundary() {
        // A 32-flit packet crossing a shard cut: the head mints the remap
        // handle and all body flits retag through it; serialization
        // latency must match the P=1 value (7 + 31).
        let t = small_mesh(4, 1);
        let stats = run_sharded_trace(
            &t,
            ShardSpec { sx: 2, sy: 1 },
            2,
            vec![TraceEvent {
                cycle: 0,
                src: NodeId(0),
                dst: NodeId(3),
                flits: 32,
            }],
        );
        assert_eq!(stats.all.count, 1);
        assert_eq!(stats.all.max, 15 + 31);
        assert_eq!(stats.flits_delivered, 32);
    }

    #[test]
    fn quadrant_trace_matches_single_shard() {
        let t = small_mesh(8, 8);
        let mut events = Vec::new();
        for s in 0..64u16 {
            for k in 1..6u16 {
                events.push(TraceEvent {
                    cycle: u64::from(k) * 3,
                    src: NodeId(s),
                    dst: NodeId((s + 13 * k) % 64),
                    flits: if k % 2 == 0 { 32 } else { 1 },
                });
            }
        }
        let routes = RoutingTable::compute_xy(&t);
        let trace = Trace::new("test", 64, 0.0, events.clone());
        let single = crate::Simulator::new(&t, &routes, SimConfig::paper())
            .run_trace(&trace)
            .expect("completes");
        for threads in [1, 4] {
            let sharded = run_sharded_trace(&t, ShardSpec::quadrants(), threads, events.clone());
            assert_eq!(sharded, single, "threads {threads}");
        }
    }

    #[test]
    fn express_dateline_class_crosses_boundaries() {
        // Span-5 express on a 16-wide mesh cut into 4 columns: express
        // links cross shard cuts, so the PostExpress transition must ride
        // the mailbox metadata.
        let spec = MeshSpec {
            width: 16,
            height: 2,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        };
        let t = express_mesh(
            spec,
            ExpressSpec {
                span: 5,
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
        let routes = RoutingTable::compute_xy(&t);
        let trace = Trace::new("test", n, 0.0, events);
        let single = crate::Simulator::new(&t, &routes, SimConfig::paper())
            .run_trace(&trace)
            .expect("completes");
        let sharded =
            ShardedSimulator::new(&t, &routes, SimConfig::paper(), ShardSpec { sx: 4, sy: 1 })
                .with_threads(2)
                .run_trace(&trace)
                .expect("completes");
        assert_eq!(sharded, single);
    }

    #[test]
    fn synthetic_rng_replay_matches_single_shard() {
        let t = small_mesh(6, 6);
        let routes = RoutingTable::compute_xy(&t);
        let mut m = TrafficMatrix::zero(36);
        for s in 0..36u16 {
            m.set(NodeId(s), NodeId((s + 7) % 36), 0.04);
            m.set(NodeId(s), NodeId((s + 19) % 36), 0.04);
        }
        let single = crate::Simulator::new(&t, &routes, SimConfig::paper())
            .run_synthetic(&m, 150, 500, 42)
            .expect("completes");
        for threads in [1, 4] {
            let sharded =
                ShardedSimulator::new(&t, &routes, SimConfig::paper(), ShardSpec::quadrants())
                    .with_threads(threads)
                    .run_synthetic(&m, 150, 500, 42)
                    .expect("completes");
            assert_eq!(sharded, single, "threads {threads}");
        }
    }

    #[test]
    fn fast_forward_agrees_across_shards() {
        // A huge idle gap between two packets on different shards: the
        // lockstep fast-forward must jump, not simulate, and still deliver
        // the late packet with zero-load latency.
        let t = small_mesh(4, 4);
        let stats = run_sharded_trace(
            &t,
            ShardSpec::quadrants(),
            4,
            vec![
                TraceEvent {
                    cycle: 0,
                    src: NodeId(0),
                    dst: NodeId(15),
                    flits: 1,
                },
                TraceEvent {
                    cycle: 2_000_000,
                    src: NodeId(15),
                    dst: NodeId(0),
                    flits: 1,
                },
            ],
        );
        assert_eq!(stats.all.count, 2);
        // 6 hops × 4 cycles + 3-cycle first router = 27 for both packets.
        assert_eq!(stats.all.max, 27);
    }

    #[test]
    fn cycle_limit_stuck_count_matches_single_shard() {
        // Overload a tiny mesh with an unreachable cycle budget; the
        // sharded stuck-packet count (origin-minus-completed summed over
        // shards) must equal the P=1 count.
        let t = small_mesh(4, 2);
        let mut events = Vec::new();
        for s in 0..8u16 {
            for k in 0..40u16 {
                events.push(TraceEvent {
                    cycle: 0,
                    src: NodeId(s),
                    dst: NodeId((s + 3 + k % 4) % 8),
                    flits: 32,
                });
            }
        }
        let routes = RoutingTable::compute_xy(&t);
        let mut cfg = SimConfig::paper();
        cfg.max_cycles = 60;
        let trace = Trace::new("overload", 8, 0.0, events);
        let single = crate::Simulator::new(&t, &routes, cfg)
            .run_trace(&trace)
            .expect_err("cycle limit");
        let sharded = ShardedSimulator::new(&t, &routes, cfg, ShardSpec { sx: 2, sy: 1 })
            .with_threads(2)
            .run_trace(&trace)
            .expect_err("cycle limit");
        assert_eq!(single, sharded);
    }

    #[test]
    fn cycle_limit_with_net_importer_shard() {
        // All traffic flows left half → right half: the right shard
        // completes packets it never originated, so the stuck-packet
        // accounting must difference global sums, not per-shard ones
        // (a per-shard `origins - completed` underflows u64 here).
        let t = small_mesh(4, 2);
        let mut events = Vec::new();
        for k in 0..60u16 {
            for s in 0..4u16 {
                let src = NodeId((s % 2) + 4 * (s / 2)); // x ∈ {0, 1}
                let dst = NodeId(2 + (k % 2) + 4 * (s / 2)); // x ∈ {2, 3}
                events.push(TraceEvent {
                    cycle: 0,
                    src,
                    dst,
                    flits: 32,
                });
            }
        }
        let routes = RoutingTable::compute_xy(&t);
        let mut cfg = SimConfig::paper();
        cfg.max_cycles = 80;
        let trace = Trace::new("importer overload", 8, 0.0, events);
        let single = crate::Simulator::new(&t, &routes, cfg)
            .run_trace(&trace)
            .expect_err("cycle limit");
        for threads in [1, 2] {
            let sharded = ShardedSimulator::new(&t, &routes, cfg, ShardSpec { sx: 2, sy: 1 })
                .with_threads(threads)
                .run_trace(&trace)
                .expect_err("cycle limit");
            assert_eq!(single, sharded, "threads {threads}");
        }
    }

    #[test]
    fn shard_count_constructor_round_trips() {
        let t = small_mesh(8, 8);
        let routes = RoutingTable::compute_xy(&t);
        let sim = ShardedSimulator::with_shard_count(&t, &routes, SimConfig::paper(), 4);
        assert_eq!(sim.num_shards(), 4);
    }

    #[test]
    fn credit_cell_defers_freed_credits_to_next_cycle() {
        let mut c = CreditCell::new(2);
        assert_eq!(c.normalize(5), 2);
        c.take(5);
        assert_eq!(c.peek(5), 1);
        // A credit freed during cycle 5 is invisible for the rest of
        // cycle 5 — exactly the old staged-list semantics…
        c.free(5);
        assert_eq!(c.normalize(5), 1);
        assert_eq!(c.peek(5), 1);
        // …and folds in on any access at a later cycle.
        assert_eq!(c.peek(6), 2);
        assert_eq!(c.normalize(8), 2);
        assert_eq!(c.peek(8), 2);
    }

    #[test]
    fn occupancy_bitset_jumps_to_next_bucket() {
        let t = small_mesh(2, 1);
        let routes = RoutingTable::compute_xy(&t);
        let plan = EnginePlan::new(&t, &routes, SimConfig::paper(), Partition::single(&t));
        let mut s = ShardState::new(&plan, 0);
        assert_eq!(s.next_arrival_cycle(10), None, "empty calendar");
        let f = Flit {
            packet: 0,
            dst: NodeId(1),
            is_head: true,
            is_tail: true,
            ready: 0,
        };
        // An arrival within the wheel's revolution is found from any
        // earlier cycle in one bitset probe, including across the
        // bucket-index wrap (cycle 13 lives in a lower bucket than 11).
        s.wheel_push(13, (0, 0, f));
        for now in 10..=13 {
            assert_eq!(s.next_arrival_cycle(now), Some(13), "from {now}");
        }
        s.wheel_push(11, (0, 0, f));
        assert_eq!(s.next_arrival_cycle(10), Some(11));
        assert_eq!(s.next_arrival_cycle(11), Some(11));
    }
}
