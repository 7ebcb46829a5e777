//! Fig. 6 + Table V — trace-driven evaluation on the NPB kernels.
//!
//! Latency (Fig. 6) comes from the cycle-accurate simulator over a
//! representative window of each synthesized trace; energy (Table V) is
//! computed from the full-run communication volume routed analytically,
//! exactly as the paper does ("total dynamic energy based on the
//! communication volume and the network paths taken by the flits").

use crate::table::TextTable;
use hyppi_analytic::{dynamic_energy_joules, parallel_map, NocModel};
use hyppi_netsim::{
    EnergyCounts, NoopProbe, Probe, RunOpts, RunOutcome, ShardedSimulator, SimConfig, SimError,
    Simulator, Snapshot, TelemetryOpts, Workload,
};
use hyppi_phys::{Gbps, LinkTechnology};
use hyppi_topology::{express_mesh, mesh, ExpressSpec, MeshSpec, RoutingTable, Topology};
use hyppi_traffic::{NpbKernel, NpbTraceSpec, ScaledNpbSpec, Trace};

/// Express spans evaluated (0 = plain mesh).
pub const FIG6_SPANS: [u16; 4] = [0, 3, 5, 15];

/// Latency of one (kernel, span) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Cell {
    /// NPB kernel.
    pub kernel: NpbKernel,
    /// Express span (0 = plain electronic mesh).
    pub span: u16,
    /// Mean packet latency, clock cycles.
    pub latency_clks: f64,
}

/// The Fig. 6 dataset.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// All (kernel × span) cells.
    pub cells: Vec<Fig6Cell>,
}

impl Fig6Result {
    /// Latency of one cell.
    pub fn latency(&self, kernel: NpbKernel, span: u16) -> f64 {
        self.cells
            .iter()
            .find(|c| c.kernel == kernel && c.span == span)
            .expect("cell was simulated")
            .latency_clks
    }

    /// Latency improvement of a span over the plain mesh.
    pub fn speedup(&self, kernel: NpbKernel, span: u16) -> f64 {
        self.latency(kernel, 0) / self.latency(kernel, span)
    }

    /// Renders the latency table with per-span speedups.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "Kernel",
            "Mesh (clks)",
            "x3 (clks)",
            "x5 (clks)",
            "x15 (clks)",
            "best gain",
        ]);
        for kernel in NpbKernel::ALL {
            let best = [3u16, 5, 15]
                .iter()
                .map(|&s| self.speedup(kernel, s))
                .fold(0.0, f64::max);
            t.row(vec![
                kernel.to_string(),
                format!("{:.2}", self.latency(kernel, 0)),
                format!("{:.2}", self.latency(kernel, 3)),
                format!("{:.2}", self.latency(kernel, 5)),
                format!("{:.2}", self.latency(kernel, 15)),
                format!("{best:.2}x"),
            ]);
        }
        t
    }
}

/// Builds the electronic-base topology for a span (0 = plain mesh). The
/// optical express technology does not affect latency ("The latency is the
/// same in both cases, because their individual link latencies are
/// identical"), so HyPPI is used.
pub fn fig6_topology(span: u16) -> Topology {
    if span == 0 {
        mesh(MeshSpec::paper(LinkTechnology::Electronic))
    } else {
        express_mesh(
            MeshSpec::paper(LinkTechnology::Electronic),
            ExpressSpec {
                span,
                tech: LinkTechnology::Hyppi,
            },
        )
    }
}

/// Runs the full Fig. 6 grid (16 cycle-accurate simulations, parallel).
pub fn fig6() -> Fig6Result {
    let mut jobs = Vec::new();
    for kernel in NpbKernel::ALL {
        for span in FIG6_SPANS {
            jobs.push((kernel, span));
        }
    }
    let cells = parallel_map(jobs, |(kernel, span)| {
        let trace = NpbTraceSpec::paper(kernel).default_window();
        let topo = fig6_topology(span);
        let routes = RoutingTable::compute_xy(&topo);
        let stats = Simulator::new(&topo, &routes, SimConfig::paper())
            .run_trace(&trace)
            .expect("trace simulation completes");
        Fig6Cell {
            kernel,
            span,
            latency_clks: stats.mean_latency(),
        }
    });
    Fig6Result { cells }
}

/// One cell of the 32×32 scale-up: a rescaled 1024-rank NPB window run
/// through the sharded engine, with bit-for-bit shard parity asserted
/// against the P=1 engine.
#[derive(Debug, Clone)]
pub struct Npb32Cell {
    /// NPB kernel (rescaled via [`ScaledNpbSpec::mesh32`]).
    pub kernel: NpbKernel,
    /// Shards the parity-checked run was partitioned into.
    pub shards: usize,
    /// Mean packet latency, clock cycles.
    pub latency_clks: f64,
    /// Median packet latency, cycles.
    pub p50: u64,
    /// 99th-percentile packet latency, cycles.
    pub p99: u64,
    /// Packets completed.
    pub packets: u64,
    /// Flits delivered.
    pub flits: u64,
    /// Cycles simulated.
    pub cycles: u64,
}

impl Npb32Cell {
    /// One-line render for the repro driver.
    pub fn render(&self) -> String {
        format!(
            "{} 32x32 ({} shards, parity OK): lat {:.2} clks (p50 {} p99 {}) | {} pkts | {} flits | {} cycles",
            self.kernel, self.shards, self.latency_clks, self.p50, self.p99, self.packets,
            self.flits, self.cycles
        )
    }
}

/// The 32×32 / 1024-node mesh every scale-up experiment runs on (shared
/// so `npb32` and `load_sweep32` cannot drift apart).
pub(crate) fn mesh32() -> Topology {
    mesh(MeshSpec {
        width: 32,
        height: 32,
        core_spacing_mm: 1.0,
        base_tech: LinkTechnology::Electronic,
        capacity: Gbps::new(50.0),
    })
}

/// Runs one prepared 1024-node trace through the P=1 engine *and* the
/// sharded engine, asserts bit-for-bit `SimStats` parity, and reports the
/// cell. This is the core of [`npb32`]; the window is a parameter so
/// tests can pin the machinery on a slice without paying for the full
/// default window.
pub fn npb32_cell(kernel: NpbKernel, shards: usize, trace: &Trace) -> Npb32Cell {
    npb32_cell_probed(kernel, shards, trace, &mut NoopProbe)
}

/// [`npb32_cell`] with a telemetry probe attached to the *sharded* leg —
/// the parity assertion against the plain P=1 run doubles as proof that
/// the probes did not perturb the simulation.
pub fn npb32_cell_probed<P: Probe>(
    kernel: NpbKernel,
    shards: usize,
    trace: &Trace,
    probe: &mut P,
) -> Npb32Cell {
    assert!(shards >= 1, "at least one shard required");
    let topo = mesh32();
    assert_eq!(usize::from(trace.num_nodes), topo.num_nodes());
    let routes = RoutingTable::compute_xy(&topo);
    let cfg = npb32_config();
    let single = Simulator::new(&topo, &routes, cfg)
        .run_trace(trace)
        .expect("P=1 engine completes the scaled NPB window");
    let sharded = ShardedSimulator::with_shard_count(&topo, &routes, cfg, shards)
        .run(Workload::Trace(trace), RunOpts::default(), probe)
        .expect("sharded engine completes the scaled NPB window")
        .expect_finished();
    assert_eq!(sharded, single, "{kernel} 32x32: shard parity violated");
    Npb32Cell {
        kernel,
        shards,
        latency_clks: single.mean_latency(),
        p50: single.all.p50(),
        p99: single.all.p99(),
        packets: single.all.count,
        flits: single.flits_delivered,
        cycles: single.cycles,
    }
}

/// Runs `kernel`'s default rescaled window (rank remap + window stretch
/// of the paper's 256-rank spec — see [`ScaledNpbSpec`]) on the 32×32
/// mesh through the sharded engine, shard parity asserted.
pub fn npb32(kernel: NpbKernel, shards: usize) -> Npb32Cell {
    let trace = ScaledNpbSpec::mesh32(kernel).default_window();
    npb32_cell(kernel, shards, &trace)
}

/// [`npb32`] plus flight-recorder output: the sharded leg runs with the
/// requested probes attached (single-worker; the in-built parity assert
/// against the plain P=1 run proves the probes perturbed nothing) and
/// the recordings are written to the requested paths. Returns the cell
/// plus the written paths.
pub fn npb32_recorded(
    kernel: NpbKernel,
    shards: usize,
    telemetry: &TelemetryOpts,
) -> std::io::Result<(Npb32Cell, Vec<String>)> {
    let trace = ScaledNpbSpec::mesh32(kernel).default_window();
    if !telemetry.enabled() {
        return Ok((npb32_cell(kernel, shards, &trace), Vec::new()));
    }
    let mut rec = telemetry.recorder();
    let cell = npb32_cell_probed(kernel, shards, &trace, &mut rec);
    let written = telemetry.write(&rec)?;
    Ok((cell, written))
}

/// The engine plan every `npb32` leg runs under (shared so the save and
/// resume legs of a checkpointed run cannot drift apart).
fn npb32_config() -> SimConfig {
    let mut cfg = SimConfig::paper();
    cfg.max_cycles = 20_000_000; // deadlock guard for the big mesh
    cfg
}

/// The `repro npb32 --save` leg: runs `kernel`'s default rescaled window
/// through the sharded engine up to the window's midpoint cycle and
/// returns the paused engine [`Snapshot`] plus the pause cycle. The
/// snapshot is partition-independent — `--resume` may use any shard
/// count (see `docs/SNAPSHOT_FORMAT.md`).
pub fn npb32_save(kernel: NpbKernel, shards: usize) -> (Snapshot, u64) {
    let trace = ScaledNpbSpec::mesh32(kernel).default_window();
    let stop = trace.events.last().map(|e| e.cycle / 2).unwrap_or(0).max(1);
    let topo = mesh32();
    let routes = RoutingTable::compute_xy(&topo);
    let until = RunOpts {
        stop_at: stop,
        ..RunOpts::default()
    };
    let outcome = ShardedSimulator::with_shard_count(&topo, &routes, npb32_config(), shards)
        .run(Workload::Trace(&trace), until, &mut NoopProbe)
        .expect("scaled NPB window simulates");
    match outcome {
        RunOutcome::Paused(snap) => (snap, stop),
        RunOutcome::Finished(_) => {
            unreachable!("the window extends past its own midpoint cycle")
        }
    }
}

/// The `repro npb32 --resume` leg: restores a [`npb32_save`] snapshot
/// under `shards` shards and completes the window. The snapshot's plan
/// and trace fingerprints reject a checkpoint from a different kernel
/// or configuration.
pub fn npb32_resume(
    kernel: NpbKernel,
    shards: usize,
    snap: &Snapshot,
) -> Result<Npb32Cell, SimError> {
    let trace = ScaledNpbSpec::mesh32(kernel).default_window();
    let topo = mesh32();
    let routes = RoutingTable::compute_xy(&topo);
    let resume = RunOpts {
        resume: Some(snap),
        ..RunOpts::default()
    };
    let stats = ShardedSimulator::with_shard_count(&topo, &routes, npb32_config(), shards)
        .run(Workload::Trace(&trace), resume, &mut NoopProbe)?
        .expect_finished();
    Ok(Npb32Cell {
        kernel,
        shards,
        latency_clks: stats.mean_latency(),
        p50: stats.all.p50(),
        p99: stats.all.p99(),
        packets: stats.all.count,
        flits: stats.flits_delivered,
        cycles: stats.cycles,
    })
}

/// One Table V row: total dynamic energy for the FT benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table5Cell {
    /// Express technology.
    pub tech: LinkTechnology,
    /// Express span.
    pub span: u16,
    /// Total dynamic energy, joules.
    pub energy_j: f64,
}

/// The Table V dataset.
#[derive(Debug, Clone)]
pub struct Table5Result {
    /// Plain electronic mesh baseline, joules.
    pub base_energy_j: f64,
    /// All (technology × span) cells.
    pub cells: Vec<Table5Cell>,
}

impl Table5Result {
    /// Energy of one cell, joules.
    pub fn energy(&self, tech: LinkTechnology, span: u16) -> f64 {
        self.cells
            .iter()
            .find(|c| c.tech == tech && c.span == span)
            .expect("cell was computed")
            .energy_j
    }

    /// Renders the table.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "Express technology",
            "3 hops (J)",
            "5 hops (J)",
            "15 hops (J)",
        ]);
        for tech in [
            LinkTechnology::Electronic,
            LinkTechnology::Photonic,
            LinkTechnology::Hyppi,
        ] {
            t.row(vec![
                tech.to_string(),
                format!("{:.4}", self.energy(tech, 3)),
                format!("{:.4}", self.energy(tech, 5)),
                format!("{:.4}", self.energy(tech, 15)),
            ]);
        }
        t.row(vec![
            "(plain electronic mesh)".to_string(),
            format!("{:.4}", self.base_energy_j),
            String::new(),
            String::new(),
        ]);
        t
    }
}

/// Computes Table V: FT dynamic energy for every express configuration.
pub fn table5() -> Table5Result {
    let volume = NpbTraceSpec::paper(NpbKernel::Ft).volume();
    let energy_of = |topo: Topology| {
        let model = NocModel::new(topo);
        let counts = EnergyCounts::from_volume(&model.topo, &model.routes, &volume);
        dynamic_energy_joules(&model, &counts, volume.comm_wall_seconds).total_j()
    };
    let base_energy_j = energy_of(mesh(MeshSpec::paper(LinkTechnology::Electronic)));
    let mut jobs = Vec::new();
    for tech in [
        LinkTechnology::Electronic,
        LinkTechnology::Photonic,
        LinkTechnology::Hyppi,
    ] {
        for span in [3u16, 5, 15] {
            jobs.push((tech, span));
        }
    }
    let cells = parallel_map(jobs, |(tech, span)| {
        let topo = express_mesh(
            MeshSpec::paper(LinkTechnology::Electronic),
            ExpressSpec { span, tech },
        );
        Table5Cell {
            tech,
            span,
            energy_j: energy_of(topo),
        }
    });
    Table5Result {
        base_energy_j,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fig. 6 itself is exercised by the integration tests and the bench
    // harness (full 16-simulation grid); unit tests here cover Table V,
    // which is analytic and fast.

    #[test]
    fn table5_shape_matches_paper() {
        let r = table5();
        // Photonic ≫ electronic ≈ HyPPI; photonic roughly span-invariant.
        for span in [3u16, 5, 15] {
            let ph = r.energy(LinkTechnology::Photonic, span);
            let hy = r.energy(LinkTechnology::Hyppi, span);
            let el = r.energy(LinkTechnology::Electronic, span);
            assert!(ph / el > 50.0, "span {span}: photonic {ph} vs elec {el}");
            assert!(hy < 2.0 * r.base_energy_j, "span {span}: HyPPI {hy}");
        }
        let p3 = r.energy(LinkTechnology::Photonic, 3);
        let p15 = r.energy(LinkTechnology::Photonic, 15);
        assert!((p3 / p15 - 1.0).abs() < 0.15, "photonic {p3} vs {p15}");
        // Electronic energy grows with span.
        assert!(r.energy(LinkTechnology::Electronic, 15) > r.energy(LinkTechnology::Electronic, 3));
    }

    #[test]
    fn table5_absolute_anchors() {
        // Paper: base 0.0042 J, photonic ≈0.9353 J, HyPPI ≈0.0049 J.
        let r = table5();
        assert!(
            (0.002..0.007).contains(&r.base_energy_j),
            "base {} J",
            r.base_energy_j
        );
        let ph = r.energy(LinkTechnology::Photonic, 3);
        assert!((0.8..1.1).contains(&ph), "photonic {ph} J");
    }

    #[test]
    fn npb32_cell_asserts_parity_on_a_scaled_slice() {
        // The full default windows are repro-only (minutes); pin the
        // machinery — scaled trace → P=1 vs quadrant shards, parity
        // asserted inside — on a one-phase reduced-volume LU slice.
        let trace = ScaledNpbSpec::mesh32(NpbKernel::Lu).trace_window(1, 0.25);
        let cell = npb32_cell(NpbKernel::Lu, 4, &trace);
        assert_eq!(cell.kernel, NpbKernel::Lu);
        assert_eq!(cell.shards, 4);
        assert_eq!(cell.flits, trace.total_flits());
        assert_eq!(cell.packets, trace.total_packets() as u64);
        // The stretched LU wavefront is 2 hops: zero-load-ish latency.
        assert!(cell.latency_clks >= 11.0, "latency {}", cell.latency_clks);
        assert!(cell.render().contains("parity OK"));
    }

    #[test]
    fn npb32_checkpoint_roundtrip_on_a_scaled_slice() {
        // The --save/--resume legs run the full default window (repro
        // only); pin the machinery — pause mid-window under P=4, resume
        // under P=1 — on the same reduced LU slice, against an
        // uninterrupted run.
        let trace = ScaledNpbSpec::mesh32(NpbKernel::Lu).trace_window(1, 0.25);
        let topo = mesh32();
        let routes = RoutingTable::compute_xy(&topo);
        let stop = trace.events.last().expect("slice is non-empty").cycle / 2 + 1;
        let workload = Workload::Trace(&trace);
        let until = RunOpts {
            stop_at: stop,
            ..RunOpts::default()
        };
        let snap = ShardedSimulator::with_shard_count(&topo, &routes, npb32_config(), 4)
            .run(workload, until, &mut NoopProbe)
            .expect("slice simulates")
            .expect_paused();
        let resume = RunOpts {
            resume: Some(&snap),
            ..RunOpts::default()
        };
        let resumed = ShardedSimulator::with_shard_count(&topo, &routes, npb32_config(), 1)
            .run(workload, resume, &mut NoopProbe)
            .expect("resume completes")
            .expect_finished();
        let whole = Simulator::new(&topo, &routes, npb32_config())
            .run_trace(&trace)
            .expect("whole run completes");
        assert_eq!(resumed, whole);
    }

    #[test]
    fn render_contains_all_rows() {
        let s = table5().render().render();
        assert!(s.contains("Electronic"));
        assert!(s.contains("Photonic"));
        assert!(s.contains("HyPPI"));
        assert!(s.contains("plain electronic mesh"));
    }
}
