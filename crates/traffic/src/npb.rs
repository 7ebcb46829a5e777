//! Synthetic NAS Parallel Benchmark traffic (FT, CG, MG, LU; 256 ranks).
//!
//! The paper drove its trace simulations (§IV) with MPICL traces of NPB
//! Class A captured on a Cray XE6m. Those traces are not publicly
//! available; per the substitution policy in `DESIGN.md`, this module
//! synthesizes traces from each kernel's documented communication pattern.
//! The paper itself keeps only "flit counts between source-destination
//! pairs" and discards temporal structure, so the spatial hop distribution
//! is the fidelity target. The paper characterizes them as:
//!
//! * **FT** — "all-to-all traffic": phased transpose exchanges between all
//!   rank pairs (MPI_Alltoall of the 3-D FFT).
//! * **CG** — "short range traffic": power-of-two stride exchanges within a
//!   processor row (row-partitioned sparse mat-vec reductions), with volume
//!   decreasing with distance.
//! * **MG** — "long range traffic": V-cycle hierarchy; on coarse levels the
//!   surviving ranks are physically far apart, producing heavy
//!   near-full-row exchanges alongside the fine-level nearest-neighbour
//!   halos.
//! * **LU** — "almost completely … 1-hop traffic": wavefront pipeline
//!   exchanging small messages with east/south (and reverse-sweep
//!   west/north) neighbours.
//!
//! Ranks map to nodes row-major (rank `r` → node `r`), the natural
//! placement for a 256-rank job on a 16×16 NoC.

use crate::packetize::packetize_flits;
use crate::trace::{Trace, TraceEvent};
use crate::volume::CommVolume;
use hyppi_topology::NodeId;

/// Which NPB kernel to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NpbKernel {
    /// 3-D FFT: phased all-to-all transposes.
    Ft,
    /// Conjugate gradient: short-range row exchanges.
    Cg,
    /// Multigrid: hierarchical, long-range dominated.
    Mg,
    /// LU factorization: 1-hop wavefront.
    Lu,
}

impl NpbKernel {
    /// All four kernels, in the paper's order.
    pub const ALL: [NpbKernel; 4] = [NpbKernel::Ft, NpbKernel::Cg, NpbKernel::Mg, NpbKernel::Lu];

    /// Kernel name as printed in reproduced tables.
    pub fn name(self) -> &'static str {
        match self {
            NpbKernel::Ft => "FT",
            NpbKernel::Cg => "CG",
            NpbKernel::Mg => "MG",
            NpbKernel::Lu => "LU",
        }
    }
}

impl std::fmt::Display for NpbKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One communication phase: a list of `(src, dst, flits)` exchanges that
/// happen concurrently.
type Phase = Vec<(NodeId, NodeId, u64)>;

/// Generator specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NpbTraceSpec {
    /// Kernel to synthesize.
    pub kernel: NpbKernel,
    /// Grid width (ranks per row).
    pub width: u16,
    /// Grid height.
    pub height: u16,
}

/// FT: data flits exchanged per pair per transpose phase (Class A at 256
/// ranks moves ≈0.5 MB per rank per all-to-all; with the paper's 64-bit
/// flits that is ≈96 flits per partner after trace-splitting).
const FT_FLITS_PER_PAIR: u64 = 96;
/// FT: number of transpose phases (forward + inverse FFT iterations).
const FT_PHASES: u32 = 7;

/// CG: reduction phases.
const CG_PHASES: u32 = 60;
/// CG: flits to the stride-1 partner; halves per distance doubling.
const CG_BASE_FLITS: u64 = 960;

/// MG: V-cycles.
const MG_CYCLES: u32 = 40;
/// MG: fine-level halo flits per neighbour.
const MG_NEAR_FLITS: u64 = 320;
/// MG: coarse-level long-range flits per partner (the coarse V-cycle
/// levels dominate MG's traffic volume; the paper characterizes MG as
/// "long range traffic").
const MG_FAR_FLITS: u64 = 7200;

/// LU: wavefront sweeps (SSOR iterations × 2 directions).
const LU_SWEEPS: u32 = 250;
/// LU: flits per neighbour exchange (small pencil messages).
const LU_FLITS: u64 = 33;

impl NpbTraceSpec {
    /// The paper's configuration: 256 ranks on 16×16.
    pub fn paper(kernel: NpbKernel) -> Self {
        NpbTraceSpec {
            kernel,
            width: 16,
            height: 16,
        }
    }

    fn num_nodes(&self) -> u16 {
        self.width * self.height
    }

    fn node(&self, x: u16, y: u16) -> NodeId {
        NodeId(y * self.width + x)
    }

    /// Communication-active wall seconds represented by the full run
    /// (drives the time-based photonic laser-energy charge; the FT value is
    /// calibrated in `DESIGN.md` §5).
    pub fn comm_wall_seconds(&self) -> f64 {
        match self.kernel {
            NpbKernel::Ft => 0.60,
            NpbKernel::Cg => 0.40,
            NpbKernel::Mg => 0.50,
            NpbKernel::Lu => 0.30,
        }
    }

    /// Number of communication phases in the full run.
    pub fn total_phases(&self) -> u32 {
        match self.kernel {
            NpbKernel::Ft => FT_PHASES,
            NpbKernel::Cg => CG_PHASES,
            NpbKernel::Mg => MG_CYCLES,
            NpbKernel::Lu => LU_SWEEPS,
        }
    }

    /// The exchanges of phase `phase` (phases may repeat the same pattern).
    fn phase(&self, phase: u32) -> Phase {
        match self.kernel {
            NpbKernel::Ft => self.ft_phase(),
            NpbKernel::Cg => self.cg_phase(),
            NpbKernel::Mg => self.mg_phase(phase),
            NpbKernel::Lu => self.lu_phase(phase),
        }
    }

    /// FT: every pair exchanges `FT_FLITS_PER_PAIR` data flits plus a
    /// separate one-flit control packet.
    fn ft_phase(&self) -> Phase {
        let n = self.num_nodes();
        let mut out = Vec::with_capacity(2 * usize::from(n) * usize::from(n - 1));
        for s in 0..n {
            for k in 1..n {
                // Rotated all-to-all schedule: balanced, no hot spot.
                let d = (s + k) % n;
                out.push((NodeId(s), NodeId(d), FT_FLITS_PER_PAIR));
                out.push((NodeId(s), NodeId(d), 1));
            }
        }
        out
    }

    /// CG: strides 1, 2, 4, 8 within the row, volume halving with stride.
    fn cg_phase(&self) -> Phase {
        let mut out = Vec::new();
        for y in 0..self.height {
            for x in 0..self.width {
                let mut flits = CG_BASE_FLITS;
                for stride in [1u16, 2, 4, 8] {
                    if x + stride < self.width {
                        out.push((self.node(x, y), self.node(x + stride, y), flits));
                        out.push((self.node(x + stride, y), self.node(x, y), flits));
                    }
                    flits /= 2;
                }
            }
        }
        out
    }

    /// MG: alternating fine-level halos (nearest neighbour, both dims) and
    /// coarse-level long-range exchanges (row extremes and ±8 rows).
    fn mg_phase(&self, phase: u32) -> Phase {
        let mut out = Vec::new();
        if phase.is_multiple_of(2) {
            // Fine levels: nearest-neighbour halo exchange.
            for y in 0..self.height {
                for x in 0..self.width {
                    if x + 1 < self.width {
                        out.push((self.node(x, y), self.node(x + 1, y), MG_NEAR_FLITS));
                        out.push((self.node(x + 1, y), self.node(x, y), MG_NEAR_FLITS));
                    }
                    if y + 1 < self.height {
                        out.push((self.node(x, y), self.node(x, y + 1), MG_NEAR_FLITS));
                        out.push((self.node(x, y + 1), self.node(x, y), MG_NEAR_FLITS));
                    }
                }
            }
        } else {
            // Coarse levels: the surviving ranks sit near opposite row ends;
            // pairwise exchanges (no gather hotspot) spanning most of a row.
            let w = self.width;
            if w >= 4 {
                for y in 0..self.height {
                    // Distance w-2 and w-3 pairs with disjoint endpoints.
                    let pairs = [(1, w - 1), (0, w - 3)];
                    for (a, b) in pairs {
                        out.push((self.node(a, y), self.node(b, y), MG_FAR_FLITS));
                        out.push((self.node(b, y), self.node(a, y), MG_FAR_FLITS));
                    }
                }
            }
            // Cross-row aggregation at stride height/2.
            let stride = self.height / 2;
            if stride >= 1 {
                for y in 0..self.height - stride {
                    for x in [0u16, self.width / 2] {
                        let x = x.min(self.width - 1);
                        out.push((self.node(x, y), self.node(x, y + stride), MG_FAR_FLITS / 4));
                        out.push((self.node(x, y + stride), self.node(x, y), MG_FAR_FLITS / 4));
                    }
                }
            }
        }
        out
    }

    /// LU: forward sweeps send east/south, backward sweeps west/north.
    fn lu_phase(&self, phase: u32) -> Phase {
        let mut out = Vec::new();
        let forward = phase.is_multiple_of(2);
        for y in 0..self.height {
            for x in 0..self.width {
                if forward {
                    if x + 1 < self.width {
                        out.push((self.node(x, y), self.node(x + 1, y), LU_FLITS));
                    }
                    if y + 1 < self.height {
                        out.push((self.node(x, y), self.node(x, y + 1), LU_FLITS));
                    }
                } else {
                    if x > 0 {
                        out.push((self.node(x, y), self.node(x - 1, y), LU_FLITS));
                    }
                    if y > 0 {
                        out.push((self.node(x, y), self.node(x, y - 1), LU_FLITS));
                    }
                }
            }
        }
        out
    }

    /// Full-run communication volume (packetized flit counts), for energy
    /// accounting.
    pub fn volume(&self) -> CommVolume {
        let mut v = CommVolume::zero(usize::from(self.num_nodes()), self.comm_wall_seconds());
        for phase in 0..self.total_phases() {
            for (s, d, flits) in self.phase(phase) {
                let padded: u64 = packetize_flits(flits)
                    .iter()
                    .map(|p| u64::from(p.flits))
                    .sum();
                v.add(s, d, padded);
            }
        }
        v
    }

    /// A packetized simulation window: `phases` phases at `volume_scale` of
    /// the per-exchange volume, paced so each node injects at most
    /// [`pace`](Self) packets per cycle window.
    ///
    /// The full run is far too long to simulate cycle-accurately (hundreds
    /// of millions of cycles, mostly computation gaps); latency only needs
    /// a representative window, exactly as the paper reduces traces to
    /// per-pair flit counts.
    pub fn trace_window(&self, phases: u32, volume_scale: f64) -> Trace {
        self.trace_window_paced(phases, volume_scale, self.default_pace())
    }

    /// Per-kernel packet launch pacing (cycles between launch slots per
    /// node). FT's all-to-all is paced at 32/320 = 0.1 flits/node/cycle —
    /// the paper's maximum injection rate and safely below the ≈0.25
    /// uniform-traffic saturation point of the 16×16 mesh; the sparser
    /// kernels burst faster, as a NIC faster than the NoC links would.
    pub fn default_pace(&self) -> u64 {
        match self.kernel {
            NpbKernel::Ft => 640,
            NpbKernel::Mg => 320,
            NpbKernel::Cg => 160,
            NpbKernel::Lu => 80,
        }
    }

    /// [`trace_window`](Self::trace_window) with an explicit pace.
    pub fn trace_window_paced(&self, phases: u32, volume_scale: f64, pace: u64) -> Trace {
        assert!(phases >= 1 && volume_scale > 0.0 && pace >= 1);
        let n = self.num_nodes();
        let drain_gap: u64 = 4000;
        let mut events = Vec::new();
        let mut phase_start = 0u64;
        for phase in 0..phases {
            let pattern = self.phase(phase % self.total_phases());
            // Per-node launch slot counters.
            let mut slot = vec![0u64; usize::from(n)];
            for (s, d, flits) in pattern {
                let scaled = ((flits as f64 * volume_scale).round() as u64).max(1);
                // Per-node stagger de-synchronizes launch slots across
                // nodes (real MPI ranks are not cycle-aligned).
                let stagger = (u64::from(s.0) * 37) % pace;
                for p in packetize_flits(scaled) {
                    let k = slot[s.index()];
                    slot[s.index()] += 1;
                    events.push(TraceEvent {
                        cycle: phase_start + k * pace + stagger,
                        src: s,
                        dst: d,
                        flits: p.flits,
                    });
                }
            }
            let longest = slot.iter().max().copied().unwrap_or(0);
            phase_start += longest * pace + drain_gap;
        }
        Trace::new(
            format!("NPB {} class A, {} ranks", self.kernel, n),
            n,
            self.comm_wall_seconds(),
            events,
        )
    }

    /// The default simulation window used for the Fig. 6 reproduction:
    /// one representative slice per kernel, ≈1–2 M flits.
    pub fn default_window(&self) -> Trace {
        match self.kernel {
            NpbKernel::Ft => self.trace_window(1, 1.0 / 3.0),
            NpbKernel::Cg => self.trace_window(4, 0.25),
            NpbKernel::Mg => self.trace_window(2, 0.25),
            NpbKernel::Lu => self.trace_window(20, 1.0),
        }
    }
}

/// The canonical 16×16 NPB spec rescaled onto a larger mesh.
///
/// The paper's trace specs are 256-rank (16×16) shaped; bigger meshes
/// need a workload that keeps each kernel's *communication structure*
/// while covering every node. The rescale is a **rank remap plus a
/// phase-preserving window stretch**:
///
/// * **Rank remap.** With scale factors `fx = width/16`, `fy =
///   height/16`, the generator runs `fx·fy` interleaved instances of the
///   base 256-rank phase program — one per coset offset `(ox, oy)` —
///   mapping base rank `(bx, by)` of instance `(ox, oy)` to node
///   `(bx·fx + ox, by·fy + oy)`. Every node hosts exactly one rank of
///   exactly one instance, each instance's rank grid is stretched across
///   the whole mesh (so hop distances scale with the mesh side and shard
///   cuts see real boundary traffic), and the per-phase exchange graph of
///   each instance is exactly the base kernel's.
/// * **Window stretch.** Phase structure (count, alternation, per-phase
///   volumes) is preserved; only the launch pacing is stretched by the
///   linear scale factor `(fx + fy) / 2`, because routes are that much
///   longer — per-node offered load drops by the same factor that
///   per-packet link work grows, keeping injection safely below the
///   bigger mesh's (lower) uniform saturation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaledNpbSpec {
    /// The canonical paper spec (16×16 ranks) being rescaled.
    pub base: NpbTraceSpec,
    /// Target mesh width (a multiple of the base width).
    pub width: u16,
    /// Target mesh height (a multiple of the base height).
    pub height: u16,
}

impl ScaledNpbSpec {
    /// Rescales `kernel`'s paper spec onto a `width × height` mesh.
    /// Both sides must be non-zero multiples of the base 16.
    pub fn new(kernel: NpbKernel, width: u16, height: u16) -> Self {
        let base = NpbTraceSpec::paper(kernel);
        assert!(
            width >= base.width
                && height >= base.height
                && width.is_multiple_of(base.width)
                && height.is_multiple_of(base.height),
            "target mesh {width}x{height} must be a multiple of the base {}x{}",
            base.width,
            base.height
        );
        assert!(
            u32::from(width) * u32::from(height) <= u32::from(u16::MAX),
            "target mesh {width}x{height} exceeds the u16 node-id space"
        );
        ScaledNpbSpec {
            base,
            width,
            height,
        }
    }

    /// The paper target: 1024 ranks on the 32×32 mesh.
    pub fn mesh32(kernel: NpbKernel) -> Self {
        Self::new(kernel, 32, 32)
    }

    fn fx(&self) -> u16 {
        self.width / self.base.width
    }

    fn fy(&self) -> u16 {
        self.height / self.base.height
    }

    /// Linear pacing stretch: routes grow with the mesh side, so launch
    /// slots widen by the mean of the two axis factors (≥ 1).
    pub fn stretch(&self) -> u64 {
        (u64::from(self.fx()) + u64::from(self.fy()))
            .div_ceil(2)
            .max(1)
    }

    /// Node hosting base rank `(bx, by)` of instance `(ox, oy)`.
    fn remap(&self, b: NodeId, ox: u16, oy: u16) -> NodeId {
        let bx = b.0 % self.base.width;
        let by = b.0 / self.base.width;
        NodeId((by * self.fy() + oy) * self.width + bx * self.fx() + ox)
    }

    /// Full-run communication volume of the rescaled workload (all
    /// instances), for energy accounting and rate-scaled sweep shapes.
    pub fn volume(&self) -> CommVolume {
        let n = usize::from(self.width) * usize::from(self.height);
        let mut v = CommVolume::zero(n, self.base.comm_wall_seconds());
        for phase in 0..self.base.total_phases() {
            for (s, d, flits) in self.base.phase(phase) {
                let padded: u64 = packetize_flits(flits)
                    .iter()
                    .map(|p| u64::from(p.flits))
                    .sum();
                for oy in 0..self.fy() {
                    for ox in 0..self.fx() {
                        v.add(self.remap(s, ox, oy), self.remap(d, ox, oy), padded);
                    }
                }
            }
        }
        v
    }

    /// A packetized simulation window of the rescaled workload: `phases`
    /// base phases at `volume_scale` of the per-exchange volume, paced at
    /// the base kernel's pace × [`stretch`](Self::stretch). Same
    /// phase-sequential layout (longest source sets the phase span, then
    /// a drain gap) as [`NpbTraceSpec::trace_window`].
    pub fn trace_window(&self, phases: u32, volume_scale: f64) -> Trace {
        self.trace_window_decimated(phases, volume_scale, 1)
    }

    /// [`trace_window`](Self::trace_window) keeping only the exchanges
    /// with `(src + dst) % stride == 0` in base-rank ids — a balanced
    /// 1-in-`stride` partner decimation. Volume scaling alone cannot trim
    /// a dense all-to-all below one minimum-size data packet per pair
    /// (`packetize_flits` pads every data message to the 32-flit packet
    /// quantum), so decimation is the lever for shrinking those windows:
    /// every source keeps the same number of partners, all hop distances
    /// stay represented, and the schedule stays hot-spot free.
    pub fn trace_window_decimated(&self, phases: u32, volume_scale: f64, stride: u16) -> Trace {
        assert!(phases >= 1 && volume_scale > 0.0 && stride >= 1);
        let n = self.width * self.height;
        let pace = self.base.default_pace() * self.stretch();
        let drain_gap: u64 = 4000 * self.stretch();
        let mut events = Vec::new();
        let mut phase_start = 0u64;
        for phase in 0..phases {
            let pattern = self.base.phase(phase % self.base.total_phases());
            let mut slot = vec![0u64; usize::from(n)];
            for (s, d, flits) in pattern {
                if stride > 1 && (s.0 + d.0) % stride != 0 {
                    continue;
                }
                let scaled = ((flits as f64 * volume_scale).round() as u64).max(1);
                for oy in 0..self.fy() {
                    for ox in 0..self.fx() {
                        let src = self.remap(s, ox, oy);
                        let dst = self.remap(d, ox, oy);
                        let stagger = (u64::from(src.0) * 37) % pace;
                        for p in packetize_flits(scaled) {
                            let k = slot[src.index()];
                            slot[src.index()] += 1;
                            events.push(TraceEvent {
                                cycle: phase_start + k * pace + stagger,
                                src,
                                dst,
                                flits: p.flits,
                            });
                        }
                    }
                }
            }
            let longest = slot.iter().max().copied().unwrap_or(0);
            phase_start += longest * pace + drain_gap;
        }
        Trace::new(
            format!(
                "NPB {} class A, {} ranks (rescaled from {})",
                self.base.kernel,
                n,
                self.base.num_nodes()
            ),
            n,
            self.base.comm_wall_seconds(),
            events,
        )
    }

    /// The default simulation window for the 32×32 reproduction: a
    /// representative slice per kernel, sized so the 1024-node runs stay
    /// in sharded-engine territory without being unaffordable. FT's
    /// all-to-all transpose is by far the heaviest cell — at the
    /// per-pair packet-quantum floor a full phase is still ~8.6 M flits
    /// (volume scaling cannot shrink it further, see
    /// [`Self::trace_window_decimated`]) — so its default slice keeps a
    /// balanced 1-in-4 partner subset (~2.2 M flits, every hop distance
    /// still exercised, ~500 packets per node through every shard cut);
    /// call `trace_window(1, 1.0 / 3.0)` for the full-phase run.
    pub fn default_window(&self) -> Trace {
        match self.base.kernel {
            NpbKernel::Ft => self.trace_window_decimated(1, 1.0 / 3.0, 4),
            NpbKernel::Cg => self.trace_window(2, 0.25),
            NpbKernel::Mg => self.trace_window(2, 0.125),
            NpbKernel::Lu => self.trace_window(8, 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packetize::DATA_PACKET_FLITS;

    #[test]
    fn ft_volume_matches_calibration() {
        // 7 phases × 255 partners × ceil(97/32)·32 flits ≈ 4.6e7 total
        // (the paper's 0.0042 J electronic-mesh anchor, DESIGN.md §5).
        let v = NpbTraceSpec::paper(NpbKernel::Ft).volume();
        let total = v.total_flits();
        assert!(
            (4.0e7..5.5e7).contains(&(total as f64)),
            "FT volume {total}"
        );
        // All-to-all: every pair communicates.
        assert_eq!(v.pairs().count(), 256 * 255);
    }

    #[test]
    fn kernel_hop_distributions_match_the_paper() {
        use hyppi_phys::LinkTechnology;
        use hyppi_topology::{mesh, MeshSpec};
        let t = mesh(MeshSpec::paper(LinkTechnology::Electronic));
        let avg_hops = |k: NpbKernel| {
            NpbTraceSpec::paper(k)
                .volume()
                .weighted_mean(|s, d| f64::from(t.coord(s).manhattan(t.coord(d))))
        };
        let ft = avg_hops(NpbKernel::Ft);
        let cg = avg_hops(NpbKernel::Cg);
        let mg = avg_hops(NpbKernel::Mg);
        let lu = avg_hops(NpbKernel::Lu);
        // LU is 1-hop; CG short-range; MG long-range; FT all-to-all mean
        // (≈10.67 for uniform on 16×16).
        assert!((lu - 1.0).abs() < 1e-9, "LU {lu}");
        assert!(cg > 1.0 && cg < 4.0, "CG {cg}");
        assert!(mg > 2.5, "MG {mg}");
        assert!(ft > 9.0 && ft < 12.0, "FT {ft}");
        assert!(lu < cg && cg < mg, "LU {lu} < CG {cg} < MG {mg}");
    }

    #[test]
    fn windows_are_simulable() {
        for k in NpbKernel::ALL {
            let w = NpbTraceSpec::paper(k).default_window();
            let flits = w.total_flits();
            assert!(
                (1e5..6e6).contains(&(flits as f64)),
                "{k}: {flits} flits in window"
            );
            assert!(w.duration_cycles < 3_000_000, "{k}: {}", w.duration_cycles);
        }
    }

    #[test]
    fn windows_only_use_paper_packet_sizes() {
        let w = NpbTraceSpec::paper(NpbKernel::Lu).default_window();
        assert!(w
            .events
            .iter()
            .all(|e| e.flits == 1 || e.flits == DATA_PACKET_FLITS));
    }

    #[test]
    fn pacing_respects_link_bandwidth() {
        // No node may inject more than 1 flit/cycle on average during a
        // burst: with 32-flit packets every 80 cycles the rate is 0.4.
        let w = NpbTraceSpec::paper(NpbKernel::Ft).trace_window(1, 1.0 / 3.0);
        let mut per_node: std::collections::HashMap<(u16, u64), u64> =
            std::collections::HashMap::new();
        for e in &w.events {
            *per_node.entry((e.src.0, e.cycle)).or_default() += 1;
        }
        // One launch per slot per node.
        assert!(per_node.values().all(|&c| c <= 1));
    }

    #[test]
    fn phases_advance_monotonically() {
        let w = NpbTraceSpec::paper(NpbKernel::Cg).trace_window(3, 0.25);
        let mut prev = 0;
        for e in &w.events {
            assert!(e.cycle >= prev);
            prev = e.cycle;
        }
    }

    // -- the scaled generator --------------------------------------------

    #[test]
    fn scaled_remap_is_a_bijection_onto_the_target_mesh() {
        // Every (base rank, instance offset) pair lands on a distinct
        // node and all 1024 nodes are covered.
        let s = ScaledNpbSpec::mesh32(NpbKernel::Lu);
        let mut seen = vec![false; 1024];
        for b in 0..256u16 {
            for oy in 0..2u16 {
                for ox in 0..2u16 {
                    let n = s.remap(NodeId(b), ox, oy);
                    assert!(!seen[n.index()], "node {n} hit twice");
                    seen[n.index()] = true;
                }
            }
        }
        assert!(seen.iter().all(|&v| v));
    }

    #[test]
    fn scaled_identity_factors_reproduce_the_base_window() {
        // 16×16 → 16×16 is the identity rescale: same events, same
        // pacing, bit-for-bit.
        for k in [NpbKernel::Cg, NpbKernel::Lu] {
            let base = NpbTraceSpec::paper(k).trace_window(2, 0.25);
            let scaled = ScaledNpbSpec::new(k, 16, 16).trace_window(2, 0.25);
            assert_eq!(base.events, scaled.events, "{k}");
            assert_eq!(base.duration_cycles, scaled.duration_cycles, "{k}");
        }
    }

    #[test]
    fn scaled_kernels_preserve_the_hop_ordering() {
        use hyppi_phys::{Gbps, LinkTechnology};
        use hyppi_topology::{mesh, MeshSpec};
        let t = mesh(MeshSpec {
            width: 32,
            height: 32,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        });
        let avg_hops = |k: NpbKernel| {
            ScaledNpbSpec::mesh32(k)
                .volume()
                .weighted_mean(|s, d| f64::from(t.coord(s).manhattan(t.coord(d))))
        };
        let (ft, cg, mg, lu) = (
            avg_hops(NpbKernel::Ft),
            avg_hops(NpbKernel::Cg),
            avg_hops(NpbKernel::Mg),
            avg_hops(NpbKernel::Lu),
        );
        // The stretch doubles every base distance: LU's 1-hop wavefront
        // becomes exactly 2 hops; the paper's short/long-range ordering
        // survives the rescale; FT approaches the 32×32 uniform mean
        // (≈21.3).
        assert!((lu - 2.0).abs() < 1e-9, "LU {lu}");
        assert!(cg > 2.0 && cg < 8.0, "CG {cg}");
        assert!(mg > 5.0, "MG {mg}");
        assert!(ft > 18.0 && ft < 24.0, "FT {ft}");
        assert!(lu < cg && cg < mg, "LU {lu} < CG {cg} < MG {mg}");
    }

    #[test]
    fn scaled_windows_are_simulable_and_paced() {
        for k in [NpbKernel::Cg, NpbKernel::Lu, NpbKernel::Mg] {
            let s = ScaledNpbSpec::mesh32(k);
            let w = s.default_window();
            assert_eq!(w.num_nodes, 1024);
            let flits = w.total_flits();
            assert!(
                (1e5..2e7).contains(&(flits as f64)),
                "{k}: {flits} flits in window"
            );
            assert!(w.duration_cycles < 3_000_000, "{k}: {}", w.duration_cycles);
            // One launch per (node, slot): the stretched pace still never
            // double-books a source's injection slot.
            let mut per_slot: std::collections::HashMap<(u16, u64), u64> =
                std::collections::HashMap::new();
            for e in &w.events {
                *per_slot.entry((e.src.0, e.cycle)).or_default() += 1;
            }
            assert!(per_slot.values().all(|&c| c <= 1), "{k}: slot collision");
            assert!(w
                .events
                .iter()
                .all(|e| e.flits == 1 || e.flits == DATA_PACKET_FLITS));
        }
    }

    #[test]
    fn scaled_volume_is_instance_replicated_base_volume() {
        // fx·fy instances of the base program: total flits scale by
        // exactly that factor.
        let base = NpbTraceSpec::paper(NpbKernel::Cg).volume().total_flits();
        let scaled = ScaledNpbSpec::mesh32(NpbKernel::Cg).volume().total_flits();
        assert_eq!(scaled, 4 * base);
    }

    #[test]
    #[should_panic(expected = "multiple of the base")]
    fn scaled_rejects_non_multiple_dims() {
        let _ = ScaledNpbSpec::new(NpbKernel::Ft, 24, 32);
    }

    #[test]
    fn ft_default_window_is_trimmed_and_balanced() {
        // The FT all-to-all sits at the packet-quantum volume floor, so
        // the trimmed default decimates partners instead: ~1/4 of the
        // full-phase flits, every source keeping the same partner count.
        let s = ScaledNpbSpec::mesh32(NpbKernel::Ft);
        let full = s.trace_window(1, 1.0 / 3.0);
        let trimmed = s.default_window();
        assert_eq!(trimmed.num_nodes, 1024);
        let (ff, tf) = (full.total_flits() as f64, trimmed.total_flits() as f64);
        assert!(
            (0.2..0.3).contains(&(tf / ff)),
            "trimmed {tf} vs full {ff} flits"
        );
        assert!(trimmed.duration_cycles < full.duration_cycles);
        // Balance: sources keep 63 or 64 of their 255 partners (the
        // residue classes of 1..=255 differ by one), never more skew.
        let mut per_src = vec![0u64; 1024];
        for e in &trimmed.events {
            per_src[e.src.index()] += 1;
        }
        let (min, max) = (per_src.iter().min().unwrap(), per_src.iter().max().unwrap());
        assert!(
            *min > 0 && max - min <= 2,
            "decimation skew: {min}..{max} packets/source"
        );
        // Stride 1 round-trips through the plain window.
        let explicit = s.trace_window_decimated(1, 1.0 / 3.0, 1);
        assert_eq!(explicit.total_flits(), full.total_flits());
    }

    #[test]
    #[should_panic(expected = "u16 node-id space")]
    fn scaled_rejects_meshes_beyond_node_id_space() {
        // 272 = 17·16 passes the multiple check but 272² > u16::MAX.
        let _ = ScaledNpbSpec::new(NpbKernel::Ft, 272, 272);
    }
}
