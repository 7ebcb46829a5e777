//! NPB latency matrix + sweep throughput + engine performance record.
//!
//! Runs the sections below in order, prints one line per measurement,
//! and writes the record to `BENCH_netsim.json` (in the current
//! directory) under one top-level key per section:
//!
//! - `cells` / `aggregate` — NPB kernel × express span cells of the
//!   Fig. 6 grid on the active-set engine: latency (mean, p50, p99),
//!   cycles/s and Mflit-hops/s and, unless `--fast`, the wall-clock
//!   speedup over the frozen seed engine
//!   (`reference::ReferenceSimulator`) with bit-for-bit parity asserted.
//! - `sweep` — the batch runner (`hyppi_netsim::sweep`) on an 8×8
//!   uniform rate grid plus saturation search: runs/s, simulated
//!   cycles/s, saturation load.
//! - `closed_loop` — the 16×16 uniform cell past the saturation knee
//!   with a credit-limited NIC window; accepted throughput recorded.
//! - `shard_scaling` — a 32×32 uniform cell on P=1 vs `--shards N`,
//!   threaded and forced sequential, parity asserted.
//! - `lookahead_scaling` (skipped under `--quick` unless `--lookahead`)
//!   — 1/2/4/8-shard curves on all-HyPPI 16×16/32×32/64×64 meshes,
//!   where every cut windows at W=2, with the barrier share of superstep
//!   time profiled per-cycle vs windowed.
//! - `telemetry` — the probes-off gate, a full `FlightRecorder` run and
//!   the step/exchange/barrier profile on the sharded 32×32 cell (see
//!   `run_telemetry_section`). `--metrics PATH` / `--trace PATH` export
//!   the recorder run's metrics JSONL and packet trace (`.jsonl` suffix
//!   for JSONL events, anything else for Chrome `trace_event` JSON — see
//!   `docs/OBSERVABILITY.md`).
//! - `snapshot` — checkpoint/restore splice parity, snapshot bytes/node,
//!   save/restore µs and the warm-start sweep work multiple on the 16×16
//!   rate grid (see `docs/SNAPSHOT_FORMAT.md`).
//! - `fault` / `fault_sweep` — a faulty 16×16 parity cell (dead link +
//!   degraded span + dead router, faults on the quadrant cuts) and
//!   compact saturation-vs-fault-count curves on 16×16 and 32×32.
//! - `burst` — p99.9 vs ON/OFF burstiness on the 16×16 uniform cell.
//! - `tenant` — a hotspot victim beside a quiet and a loaded uniform
//!   aggressor, with per-tenant latency lanes.
//!
//! The synthetic parity cells (closed loop, fault, burst, tenant) share
//! one check, `SynthCell::assert_parity`: the seed engine unless
//! `--fast`, then the quadrant-sharded engine, each equal to the
//! active-set stats. The shard and lookahead speedup gates (> 1.0×) arm
//! only when `host_threads > 1`; every record carries `host_threads` so
//! single-core numbers read honestly. The `engine` field names the
//! optimization round that produced the record (see the README's field
//! map and `docs/ARCHITECTURE.md`). Wall-clock on shared hosts drifts
//! between records, so compare *speedup ratios* (new vs seed engine,
//! measured in the same run) across PRs, not raw seconds.
//!
//! ```sh
//! cargo run --release -p hyppi-netsim --example perfcheck              # all, with baseline
//! cargo run --release -p hyppi-netsim --example perfcheck MG           # one kernel
//! cargo run --release -p hyppi-netsim --example perfcheck -- --cells MG:0,FT:5
//! cargo run --release -p hyppi-netsim --example perfcheck -- --fast    # skip baseline
//! cargo run --release -p hyppi-netsim --example perfcheck -- --shards 8
//! cargo run --release -p hyppi-netsim --example perfcheck -- --quick   # CI smoke:
//! #   one small NPB cell + one sweep point + one sharded 32x32 cell,
//! #   parity asserted on all three
//! cargo run --release -p hyppi-netsim --example perfcheck -- --quick \
//!     --metrics metrics.jsonl --trace trace.json   # export recorder artifacts
//! cargo run --release -p hyppi-netsim --example perfcheck -- --quick \
//!     --shards 4 --lookahead          # CI perf-smoke incl. the scaling curve
//! cargo run --release -p hyppi-netsim --example perfcheck -- --trace-cap 16000000 \
//!     --trace trace.jsonl             # size the packet-trace ring to the run
//! ```

use hyppi_netsim::json::{Json, Obj};
use hyppi_netsim::{
    FlightRecorder, NoopProbe, ProfileSink, ReferenceSimulator, RunOpts, ShardedSimulator,
    SimConfig, SimStats, Simulator, SweepConfig, SweepRunner, TelemetryOpts, TenantStats, Workload,
};
use hyppi_phys::{Gbps, LinkTechnology};
use hyppi_topology::{
    express_mesh, mesh, ExpressSpec, FaultSpec, MeshSpec, NodeId, RoutingTable, ShardSpec, Topology,
};
use hyppi_traffic::{
    BurstSpec, NpbKernel, NpbTraceSpec, ScaledNpbSpec, SyntheticPattern, TenantMap, TenantSpec,
    TenantWorkload, Trace, TrafficMatrix,
};
use std::time::{Duration, Instant};

/// One NPB cell of the Fig. 6 grid.
struct Cell {
    kernel: &'static str,
    span: u16,
    stats: SimStats,
    new_secs: f64,
    ref_secs: Option<f64>,
}

impl Cell {
    fn mflit_hops_per_sec(&self) -> f64 {
        self.stats.total_flit_hops() as f64 / self.new_secs / 1e6
    }

    fn cycles_per_sec(&self) -> f64 {
        self.stats.cycles as f64 / self.new_secs
    }

    fn speedup(&self) -> Option<f64> {
        self.ref_secs.map(|r| r / self.new_secs)
    }

    fn json(&self) -> Json {
        Obj::new()
            .field("kernel", self.kernel)
            .field("span", self.span)
            .field("latency_clks", Json::fixed(self.stats.mean_latency(), 4))
            .field("p50", self.stats.all.p50())
            .field("p99", self.stats.all.p99())
            .field("packets", self.stats.all.count)
            .field("cycles", self.stats.cycles)
            .field("flit_hops", self.stats.total_flit_hops())
            .field("new_engine_secs", Json::fixed(self.new_secs, 4))
            .field("seed_engine_secs", self.ref_secs.map(|v| Json::fixed(v, 4)))
            .field("speedup", self.speedup().map(|v| Json::fixed(v, 4)))
            .field(
                "mflit_hops_per_sec",
                Json::fixed(self.mflit_hops_per_sec(), 2),
            )
            .field("cycles_per_sec", Json::fixed(self.cycles_per_sec(), 0))
            .build()
    }
}

/// Cell filters parsed from `--cells KERNEL[:SPAN],...` or the positional
/// kernel argument.
#[derive(Clone)]
struct CellFilter(Vec<(String, Option<u16>)>);

impl CellFilter {
    fn parse(spec: &str) -> Self {
        let entries = spec
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|entry| match entry.split_once(':') {
                Some((k, s)) => {
                    let span: u16 = s.parse().unwrap_or_else(|_| {
                        eprintln!("bad span in --cells entry '{entry}'");
                        std::process::exit(2);
                    });
                    (k.to_uppercase(), Some(span))
                }
                None => (entry.to_uppercase(), None),
            })
            .collect();
        CellFilter(entries)
    }

    fn accepts(&self, kernel: &str, span: u16) -> bool {
        self.0.is_empty()
            || self
                .0
                .iter()
                .any(|(k, s)| k == kernel && s.is_none_or(|s| s == span))
    }
}

/// A synthetic parity cell: the mesh, routes, config and measurement
/// window every engine runs (seed 11), plus the healthy baseline of a
/// faulty mesh or the tenant map, attached to every engine alike.
struct SynthCell<'a> {
    topo: &'a Topology,
    routes: &'a RoutingTable,
    cfg: SimConfig,
    warmup: u64,
    measure: u64,
    baseline: Option<(&'a Topology, &'a RoutingTable)>,
    tenants: Option<&'a TenantMap>,
}

impl SynthCell<'_> {
    const SEED: u64 = 11;

    /// Runs `m` on the active-set engine; returns its stats and wall time.
    fn run(&self, m: &TrafficMatrix, label: &str) -> (SimStats, f64) {
        let t0 = Instant::now();
        let mut sim = Simulator::new(self.topo, self.routes, self.cfg);
        if let Some((topo, routes)) = self.baseline {
            sim = sim.with_baseline(topo, routes);
        }
        if let Some(map) = self.tenants {
            sim = sim.with_tenants(map);
        }
        let stats = sim
            .run_synthetic(m, self.warmup, self.measure, Self::SEED)
            .unwrap_or_else(|e| panic!("{label} active-set run: {e}"));
        (stats, t0.elapsed().as_secs_f64())
    }

    /// Asserts the active-set `stats` of `m` bit for bit against the
    /// frozen seed engine (skipped when `fast`) and the quadrant-sharded
    /// engine. Returns the engines checked, for the summary line.
    fn assert_parity(
        &self,
        m: &TrafficMatrix,
        stats: &SimStats,
        fast: bool,
        label: &str,
    ) -> &'static str {
        if !fast {
            let mut sim = ReferenceSimulator::new(self.topo, self.routes, self.cfg);
            if let Some((topo, routes)) = self.baseline {
                sim = sim.with_baseline(topo, routes);
            }
            if let Some(map) = self.tenants {
                sim = sim.with_tenants(map);
            }
            let reference = sim
                .run_synthetic(m, self.warmup, self.measure, Self::SEED)
                .unwrap_or_else(|e| panic!("{label} reference run: {e}"));
            assert_eq!(*stats, reference, "{label} engine parity violated");
        }
        let mut sim =
            ShardedSimulator::new(self.topo, self.routes, self.cfg, ShardSpec::quadrants());
        if let Some((topo, routes)) = self.baseline {
            sim = sim.with_baseline(topo, routes);
        }
        if let Some(map) = self.tenants {
            sim = sim.with_tenants(map);
        }
        let sharded = sim
            .run_synthetic(m, self.warmup, self.measure, Self::SEED)
            .unwrap_or_else(|e| panic!("{label} sharded run: {e}"));
        assert_eq!(sharded, *stats, "{label} shard parity violated");
        if fast {
            "sharded"
        } else {
            "seed + sharded"
        }
    }
}

fn fig6_topology(span: u16) -> Topology {
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

/// A `side`×`side` mesh of `base_tech` links, 1 mm pitch, 50 Gb/s.
fn square_mesh(side: u16, base_tech: LinkTechnology) -> Topology {
    mesh(MeshSpec {
        width: side,
        height: side,
        core_spacing_mm: 1.0,
        base_tech,
        capacity: Gbps::new(50.0),
    })
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// "0.283", or "> 0.800" when the search never saturated.
fn saturation_text(load: f64, in_range: bool) -> String {
    if in_range {
        format!("{load:.3}")
    } else {
        format!("> {load:.3}")
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let fast = args.iter().any(|a| a == "--fast");
    let quick = args.iter().any(|a| a == "--quick");
    // The lookahead curve is the heavyweight section (three mesh sizes,
    // four shard counts each); --quick runs it only on request so the
    // default CI smoke stays cheap, but `--quick --lookahead` still
    // shrinks the per-cell workload.
    let lookahead = !quick || args.iter().any(|a| a == "--lookahead");
    // `--shards N` cuts the 32×32 cells, and the lookahead section
    // profiles its 16×16 mesh at N too, so N's grid must fit the
    // smallest of them (the 1..=1024 bound first keeps `for_count`'s u16
    // tile counts from wrapping).
    let side = if lookahead { 16 } else { 32 };
    let shards: usize = flag_value("--shards").map_or(4, |s| {
        let fits = |n: usize| {
            let grid = ShardSpec::for_count(n);
            grid.sx <= side && grid.sy <= side
        };
        match s.parse() {
            Ok(n) if (1..=1024).contains(&n) && fits(n) => n,
            _ => {
                eprintln!(
                    "bad --shards value '{s}' (need N >= 1 whose shard grid fits the {side}x{side} mesh)"
                );
                std::process::exit(2);
            }
        }
    });
    let trace_cap: usize = flag_value("--trace-cap")
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("bad --trace-cap value '{s}'");
                std::process::exit(2);
            })
        })
        .unwrap_or(0);
    let telemetry = TelemetryOpts {
        metrics: flag_value("--metrics"),
        trace: flag_value("--trace"),
        trace_cap,
    };
    const VALUE_FLAGS: [&str; 5] = ["--cells", "--shards", "--metrics", "--trace", "--trace-cap"];
    let positional: Option<String> = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| {
            !a.starts_with("--") && (i == 0 || !VALUE_FLAGS.contains(&args[i - 1].as_str()))
        })
        .map(|(_, a)| a.clone())
        .next();
    let filter = if let Some(spec) = flag_value("--cells") {
        CellFilter::parse(&spec)
    } else if let Some(kernel) = positional {
        CellFilter::parse(&kernel)
    } else if quick {
        // CI smoke default: the cheapest meaningful cell. An explicit
        // --cells / kernel filter above still wins (--quick then only
        // shrinks the workload).
        CellFilter::parse("MG:0")
    } else {
        CellFilter(Vec::new())
    };

    let (aggregate, cells) = run_npb_section(&filter, quick, fast);

    // Machine-readable record for the perf trajectory, built on the
    // shared `hyppi_netsim::json` writer. Each section runs as its field
    // is appended, in record order.
    let host_threads = host_threads();
    let mut top = Obj::new()
        .field(
            "bench",
            "netsim perfcheck (NPB Fig. 6 grid + load sweep, paper defaults)",
        )
        .field(
            "engine",
            "active-set + credit fusion, calendar batching, packed VC search, conservative-lookahead windows",
        )
        .field("host_threads", host_threads)
        .field("measured_on_single_core", host_threads == 1);
    if quick {
        top = top.field("quick", true);
    }
    let json = top
        .field("aggregate", aggregate)
        .field("sweep", run_sweep_section(quick, fast))
        .field("closed_loop", run_closed_loop_section(quick, fast))
        .field("shard_scaling", run_shard_section(quick, shards))
        .field(
            "lookahead_scaling",
            lookahead.then(|| run_lookahead_section(quick, shards)),
        )
        .field(
            "telemetry",
            run_telemetry_section(quick, shards, &telemetry),
        )
        .field("snapshot", run_snapshot_section(quick, fast))
        .field("fault", run_fault_section(quick, fast))
        .field("fault_sweep", run_fault_saturation_section(quick, shards))
        .field("burst", run_burst_section(quick, fast))
        .field("tenant", run_tenant_section(quick, fast))
        .field("cells", cells)
        .build()
        .render();
    match std::fs::write("BENCH_netsim.json", &json) {
        Ok(()) => println!("wrote BENCH_netsim.json"),
        Err(e) => eprintln!("could not write BENCH_netsim.json: {e}"),
    }
}

/// The NPB Fig. 6 grid cells `filter` accepts, timed on the active-set
/// engine and (unless `fast`) parity-asserted against the seed engine.
/// Returns the `aggregate` and `cells` records; exits 1 when the filter
/// matched nothing.
fn run_npb_section(filter: &CellFilter, quick: bool, fast: bool) -> (Json, Json) {
    let mut cells: Vec<Cell> = Vec::new();
    for kernel in NpbKernel::ALL {
        if ![0u16, 3, 5, 15]
            .iter()
            .any(|&s| filter.accepts(kernel.name(), s))
        {
            continue;
        }
        let spec = NpbTraceSpec::paper(kernel);
        let trace: Trace = if quick {
            // One phase at reduced volume: small but still a real
            // parity workload.
            spec.trace_window(1, 0.25)
        } else {
            spec.default_window()
        };
        for span in [0u16, 3, 5, 15] {
            if !filter.accepts(kernel.name(), span) {
                continue;
            }
            let topo = fig6_topology(span);
            let routes = RoutingTable::compute_xy(&topo);
            let mut cfg = SimConfig::paper();
            cfg.max_cycles = 2_000_000; // deadlock guard for this check

            let t0 = Instant::now();
            let stats: SimStats = match Simulator::new(&topo, &routes, cfg).run_trace(&trace) {
                Ok(s) => s,
                Err(e) => {
                    println!("{kernel} span {span:2}: ERROR {e}");
                    continue;
                }
            };
            let new_secs = t0.elapsed().as_secs_f64();

            let ref_secs = if fast {
                None
            } else {
                let t1 = Instant::now();
                let ref_stats = ReferenceSimulator::new(&topo, &routes, cfg)
                    .run_trace(&trace)
                    .expect("reference engine completes");
                let ref_secs = t1.elapsed().as_secs_f64();
                assert_eq!(
                    stats, ref_stats,
                    "{kernel} span {span}: engine parity violated"
                );
                Some(ref_secs)
            };

            let cell = Cell {
                kernel: kernel.name(),
                span,
                stats,
                new_secs,
                ref_secs,
            };
            let speedup = cell
                .speedup()
                .map_or(String::new(), |s| format!(" | {s:4.2}x vs seed"));
            let stats = &cell.stats;
            println!(
                "{kernel} span {span:2}: lat {:7.2} clks (p50 {:4} p99 {:5} max {:5}) | {:8} pkts | {:9} cycles | {:6.1} Mflit-hops/s | {:8.0} cyc/s | {:.2?}{speedup}",
                stats.mean_latency(),
                stats.all.p50(),
                stats.all.p99(),
                stats.all.max,
                stats.all.count,
                stats.cycles,
                cell.mflit_hops_per_sec(),
                cell.cycles_per_sec(),
                Duration::from_secs_f64(cell.new_secs),
            );
            cells.push(cell);
        }
    }

    if cells.is_empty() {
        eprintln!("no cells simulated (unknown kernel filter?)");
        std::process::exit(1);
    }

    let new_total: f64 = cells.iter().map(|c| c.new_secs).sum();
    let ref_total: Option<f64> = cells
        .iter()
        .map(|c| c.ref_secs)
        .collect::<Option<Vec<f64>>>()
        .map(|v| v.iter().sum());
    if let Some(rt) = ref_total {
        println!(
            "TOTAL: active-set {new_total:.2}s vs seed {rt:.2}s -> {:.2}x aggregate speedup",
            rt / new_total
        );
    } else {
        println!("TOTAL: active-set {new_total:.2}s (baseline skipped)");
    }
    let aggregate = Obj::new()
        .field("new_engine_secs", Json::fixed(new_total, 4))
        .field("seed_engine_secs", ref_total.map(|v| Json::fixed(v, 4)))
        .field("speedup", ref_total.map(|v| Json::fixed(v / new_total, 4)))
        .build();
    let cells: Vec<Json> = cells.iter().map(Cell::json).collect();
    (aggregate, cells.into())
}

/// Exercises the sweep subsystem on an 8×8 uniform load and, unless
/// `fast`, asserts engine parity on a synthetic sweep point (the trace
/// cells above only cover `run_trace`).
fn run_sweep_section(quick: bool, fast: bool) -> Json {
    let topo = square_mesh(8, LinkTechnology::Electronic);
    let routes = RoutingTable::compute_xy(&topo);
    let cfg = if quick {
        SweepConfig::quick()
    } else {
        SweepConfig::paper()
    };
    let runner = SweepRunner::new(&topo, &routes, SimConfig::paper(), cfg.clone());
    let gen = |r: f64| SyntheticPattern::Uniform.matrix(&topo, r);

    if !fast {
        // Parity smoke on the synthetic path the sweep rides.
        let m = gen(0.10);
        let sim_cfg = SimConfig::paper();
        let new = Simulator::new(&topo, &routes, sim_cfg)
            .run_synthetic(&m, cfg.warmup, cfg.measure, cfg.seeds[0])
            .expect("active-set engine completes");
        let reference = ReferenceSimulator::new(&topo, &routes, sim_cfg)
            .run_synthetic(&m, cfg.warmup, cfg.measure, cfg.seeds[0])
            .expect("reference engine completes");
        assert_eq!(new, reference, "sweep-point engine parity violated");
        println!(
            "sweep parity: uniform 8x8 r=0.10 seed {} OK (p50 {} p99 {})",
            cfg.seeds[0],
            new.all.p50(),
            new.all.p99()
        );
    }

    let rates: &[f64] = if quick {
        &[0.10]
    } else {
        &[0.05, 0.10, 0.16, 0.25]
    };
    let t0 = Instant::now();
    let points = runner.run_grid(&gen, rates);
    // The cycle total covers just the grid, so cycles/s is grid-cycles
    // over grid-seconds; runs/s spans grid + saturation search.
    let grid_secs = t0.elapsed().as_secs_f64();
    let saturation = runner.find_saturation(&gen, 0.8);
    let secs = t0.elapsed().as_secs_f64();

    let runs = (points.len() * cfg.seeds.len()) as u32 + saturation.runs;
    let runs_per_sec = f64::from(runs) / secs;
    let aggregate_cycles: u64 = points.iter().map(|p| p.cycles).sum();
    let cycles_per_sec = aggregate_cycles as f64 / grid_secs;
    for p in &points {
        println!(
            "sweep uniform 8x8 r={:.3}: lat {:6.2} clks (p50 {:3} p95 {:3} p99 {:3}) | accepted {:.3} | {}",
            p.offered,
            p.mean_latency(),
            p.latency.p50(),
            p.latency.p95(),
            p.latency.p99(),
            p.throughput,
            if p.stable { "ok" } else { "overload" },
        );
    }
    println!(
        "SWEEP: {runs} runs in {secs:.2}s -> {runs_per_sec:.1} runs/s, {cycles_per_sec:.0} sim-cycles/s | saturation {} (zero-load {:.2} clks)",
        saturation_text(saturation.saturation_load, saturation.saturated_in_range),
        saturation.zero_load_latency,
    );
    Obj::new()
        .field("pattern", "uniform")
        .field("mesh", "8x8")
        .field("points", points.len())
        .field("seeds", cfg.seeds.len())
        .field("runs", runs)
        .field("secs", Json::fixed(secs, 4))
        .field("grid_secs", Json::fixed(grid_secs, 4))
        .field("runs_per_sec", Json::fixed(runs_per_sec, 2))
        .field("aggregate_cycles", aggregate_cycles)
        .field("cycles_per_sec", Json::fixed(cycles_per_sec, 0))
        .field(
            "saturation_load",
            saturation
                .saturated_in_range
                .then(|| Json::fixed(saturation.saturation_load, 4)),
        )
        .field(
            "zero_load_latency",
            Json::fixed(saturation.zero_load_latency, 4),
        )
        .build()
}

/// The closed-loop cell: 16×16 uniform at a rate past the ≈0.247
/// saturation knee with a 32-packet NIC window, parity-asserted on the
/// seed (unless `fast`) and quadrant-sharded engines, so the
/// credit-gated NIC model is pinned on every perfcheck (and every CI
/// perf-smoke). Records the accepted throughput — the plateau value
/// (≈0.247 on the paper mesh, not the offered rate) the closed-loop
/// story hangs on — the mean network latency (closed-loop clocks start
/// at emission) and the worst NIC backlog, where closed-loop overload
/// goes.
fn run_closed_loop_section(quick: bool, fast: bool) -> Json {
    let topo = mesh(MeshSpec::paper(LinkTechnology::Electronic));
    let routes = RoutingTable::compute_xy(&topo);
    let window = 32usize;
    let (rate, warmup, measure) = if quick {
        (0.35, 100, 400)
    } else {
        (0.35, 300, 1200)
    };
    let mut cfg = SimConfig::paper_closed_loop(window);
    cfg.max_cycles = 2_000_000;
    let m = SyntheticPattern::Uniform.matrix(&topo, rate);
    let cell = SynthCell {
        topo: &topo,
        routes: &routes,
        cfg,
        warmup,
        measure,
        baseline: None,
        tenants: None,
    };
    let (stats, secs) = cell.run(&m, "closed-loop");
    let checked = cell.assert_parity(&m, &stats, fast, "closed-loop");

    let accepted = stats.accepted_throughput(topo.num_nodes(), measure);
    let peak_backlog = stats.peak_backlog.iter().max().copied().unwrap_or(0);
    println!(
        "CLOSED-LOOP 16x16 uniform r={rate:.2} window={window}: accepted {accepted:.3} flits/node/clk | lat {:.1} clks | peak backlog {peak_backlog} | {:.2?} | parity OK ({checked})",
        stats.mean_latency(),
        Duration::from_secs_f64(secs),
    );
    Obj::new()
        .field("mesh", "16x16")
        .field("pattern", "uniform")
        .field("rate", Json::fixed(rate, 3))
        .field("window", window)
        .field("warmup", warmup)
        .field("measure", measure)
        .field("accepted_throughput", Json::fixed(accepted, 4))
        .field("mean_latency", Json::fixed(stats.mean_latency(), 4))
        .field("peak_backlog", peak_backlog)
        .field("secs", Json::fixed(secs, 4))
        .build()
}

/// Times the 32×32 uniform cell on the P=1 engine, the sharded engine
/// (one worker per shard), and the sharded engine forced sequential
/// (protocol overhead isolated from parallel speedup) — asserting
/// bit-for-bit parity between all three. The recorded `host_threads` is
/// the machine's `available_parallelism()`: on a single-core host the
/// speedup column is physically bounded near 1 and must be read
/// together with it.
fn run_shard_section(quick: bool, shards: usize) -> Json {
    let topo = square_mesh(32, LinkTechnology::Electronic);
    let routes = RoutingTable::compute_xy(&topo);
    let cfg = SimConfig::paper();
    let (rate, warmup, measure) = if quick {
        (0.10, 100, 300)
    } else {
        (0.15, 400, 1600)
    };
    let m = SyntheticPattern::Uniform.matrix(&topo, rate);
    let t0 = Instant::now();
    let single = Simulator::new(&topo, &routes, cfg)
        .run_synthetic(&m, warmup, measure, 42)
        .expect("single-shard engine completes");
    let single_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let sharded = ShardedSimulator::new(&topo, &routes, cfg, ShardSpec::for_count(shards))
        .run_synthetic(&m, warmup, measure, 42)
        .expect("sharded engine completes");
    let sharded_secs = t1.elapsed().as_secs_f64();
    assert_eq!(sharded, single, "32x32 shard parity violated (threaded)");

    let t2 = Instant::now();
    let sequential = ShardedSimulator::new(&topo, &routes, cfg, ShardSpec::for_count(shards))
        .with_threads(1)
        .run_synthetic(&m, warmup, measure, 42)
        .expect("sequential sharded engine completes");
    let sequential_secs = t2.elapsed().as_secs_f64();
    assert_eq!(
        sequential, single,
        "32x32 shard parity violated (sequential)"
    );

    let host_threads = host_threads();
    let speedup = single_secs / sharded_secs;
    let protocol_overhead = sequential_secs / single_secs;
    println!(
        "SHARD 32x32 uniform r={rate:.2}: P=1 {single_secs:.2}s | {shards} shards {sharded_secs:.2}s ({speedup:.2}x, host_threads={host_threads}) | sequential {sequential_secs:.2}s (protocol {protocol_overhead:.2}x) | {} pkts, {} cycles | parity OK",
        single.all.count,
        single.cycles,
    );
    // A speedup below 1 on a single-core host is physics, not a
    // regression — only a multi-core host can fail this gate. The JSON
    // cell carries `measured_on_single_core` so the record reads
    // honestly either way.
    if host_threads > 1 {
        assert!(
            speedup > 1.0,
            "sharded engine slower than P=1 ({speedup:.2}x) on a {host_threads}-thread host"
        );
    } else {
        println!("SHARD: single-core host, speedup column not asserted");
    }
    Obj::new()
        .field("mesh", "32x32")
        .field("rate", Json::fixed(rate, 3))
        .field("warmup", warmup)
        .field("measure", measure)
        .field("shards", shards)
        .field("host_threads", host_threads)
        .field("packets", single.all.count)
        .field("cycles", single.cycles)
        .field("single_shard_secs", Json::fixed(single_secs, 4))
        .field("sharded_secs", Json::fixed(sharded_secs, 4))
        .field("sequential_sharded_secs", Json::fixed(sequential_secs, 4))
        .field("speedup", Json::fixed(speedup, 4))
        .field("protocol_overhead", Json::fixed(protocol_overhead, 4))
        .field("measured_on_single_core", host_threads == 1)
        .build()
}

/// The ROADMAP's headline artifact: a 1/2/4/8-shard scaling curve per
/// mesh size (16×16, 32×32, 64×64 via [`ScaledNpbSpec`]) on all-HyPPI
/// meshes whose 2-cycle links let every cut run W=2 conservative
/// windows (`window` is the derived min boundary-link latency). Every
/// cell is parity-asserted bit-for-bit against the P=1 engine (the same
/// contract the unified cell harness pins in
/// `tests/lookahead_parity.rs`), and the barrier share of superstep
/// wall time is profiled with the window forced to 1 (the pre-lookahead
/// protocol: two barriers every simulated cycle) vs the derived W=2,
/// from the same `ProfileSink` the telemetry section uses. On a
/// single-core host the speedup column is bounded near 1 — the record
/// carries `host_threads` / `measured_on_single_core`, and the >1 gate
/// only arms on multi-core.
fn run_lookahead_section(quick: bool, shards: usize) -> Json {
    let kernel = NpbKernel::Cg;
    // Decimation strides keep the trace volume roughly constant per
    // mesh as the instance count grows with area.
    let meshes: &[(u16, &'static str, u16)] =
        &[(16, "16x16", 1), (32, "32x32", 2), (64, "64x64", 4)];
    let host_threads = host_threads();
    let mut records = Vec::new();
    for &(side, label, stride) in meshes {
        let spec = ScaledNpbSpec::new(kernel, side, side);
        let trace = if quick {
            spec.trace_window_decimated(1, 0.25, stride * 4)
        } else {
            spec.trace_window_decimated(1, 0.25, stride)
        };
        let topo = square_mesh(side, LinkTechnology::Hyppi);
        let routes = RoutingTable::compute_xy(&topo);
        let mut cfg = SimConfig::paper();
        cfg.max_cycles = 20_000_000;

        let t0 = Instant::now();
        let single = Simulator::new(&topo, &routes, cfg)
            .run_trace(&trace)
            .expect("P=1 engine completes");
        let single_secs = t0.elapsed().as_secs_f64();

        // The P=1 point is the plain engine and defines speedup = 1;
        // the others run one worker per shard.
        let mut window = 0;
        let mut curve = vec![(1usize, single_secs)];
        for p in [2usize, 4, 8] {
            let sim = ShardedSimulator::new(&topo, &routes, cfg, ShardSpec::for_count(p));
            let w = sim.lookahead();
            assert!(
                w >= 2,
                "{label}: all-HyPPI cuts must window at W>=2, derived {w}"
            );
            window = w;
            let t = Instant::now();
            let stats = sim.run_trace(&trace).expect("windowed engine completes");
            let secs = t.elapsed().as_secs_f64();
            assert_eq!(stats, single, "{label}: lookahead parity violated at P={p}");
            println!(
                "LOOKAHEAD {label} {} W={w}: P={p} {secs:.2}s ({:.2}x vs P=1 {single_secs:.2}s) | parity OK",
                kernel.name(),
                single_secs / secs,
            );
            curve.push((p, secs));
        }

        // Barrier share per-cycle vs windowed, profiled at the CLI's
        // --shards count on the threaded engine.
        let profiled = |window: u64| {
            let sink = ProfileSink::new();
            let opts = RunOpts {
                profile: Some(&sink),
                ..RunOpts::default()
            };
            let stats = ShardedSimulator::new(&topo, &routes, cfg, ShardSpec::for_count(shards))
                .with_lookahead(window)
                .run(Workload::Trace(&trace), opts, &mut NoopProbe)
                .expect("profiled run completes")
                .expect_finished();
            (stats, sink.profile())
        };
        let (per_cycle_stats, per_cycle) = profiled(1);
        assert_eq!(
            per_cycle_stats, single,
            "{label}: per-cycle parity violated"
        );
        let (windowed_stats, windowed) = profiled(0);
        assert_eq!(windowed_stats, single, "{label}: windowed parity violated");
        assert!(
            windowed.supersteps < per_cycle.supersteps,
            "{label}: W={window} windows must cut superstep count ({} vs {})",
            windowed.supersteps,
            per_cycle.supersteps,
        );

        let barrier_per_cycle = per_cycle.fraction(per_cycle.barrier_ns);
        let barrier_windowed = windowed.fraction(windowed.barrier_ns);
        println!(
            "LOOKAHEAD {label}: barrier share {:.1}% per-cycle -> {:.1}% windowed ({} -> {} supersteps) | {} pkts, {} cycles",
            100.0 * barrier_per_cycle,
            100.0 * barrier_windowed,
            per_cycle.supersteps,
            windowed.supersteps,
            single.all.count,
            single.cycles,
        );
        if host_threads > 1 {
            let best = curve
                .iter()
                .filter(|&&(p, _)| p > 1)
                .map(|&(_, secs)| single_secs / secs)
                .fold(0.0f64, f64::max);
            assert!(
                best > 1.0,
                "{label}: windowed engine shows no parallel speedup ({best:.2}x) on a {host_threads}-thread host"
            );
        } else {
            println!("LOOKAHEAD: single-core host, speedup column not asserted");
        }
        let curve: Vec<Json> = curve
            .iter()
            .map(|&(p, secs)| {
                Obj::new()
                    .field("shards", p)
                    .field("secs", Json::fixed(secs, 4))
                    .field("speedup", Json::fixed(single_secs / secs, 4))
                    .build()
            })
            .collect();
        records.push(
            Obj::new()
                .field("mesh", label)
                .field("kernel", kernel.name())
                .field("window", window)
                .field("packets", single.all.count)
                .field("cycles", single.cycles)
                .field("host_threads", host_threads)
                .field("measured_on_single_core", host_threads == 1)
                .field(
                    "barrier_fraction_per_cycle",
                    Json::fixed(barrier_per_cycle, 4),
                )
                .field(
                    "barrier_fraction_windowed",
                    Json::fixed(barrier_windowed, 4),
                )
                .field("supersteps_per_cycle", per_cycle.supersteps)
                .field("supersteps_windowed", windowed.supersteps)
                .field("curve", curve)
                .build(),
        );
    }
    records.into()
}

/// The telemetry section, on the same 32×32 uniform cell as the shard
/// section (sequential sharded engine). Three measurements:
///
/// 1. **Probes-off gate** — interleaved best-of-3 of the plain entry
///    point (`run_synthetic`) vs the probed entry point with
///    [`NoopProbe`] (`run_synthetic_probed`). The plain entry point *is*
///    the `NoopProbe` instantiation of the probed one, so both time the
///    same code: the asserted ≤ 1.05× multiple guards that the plain
///    entry point stays that instantiation (a second, hooked code path
///    would show here); it does not compare two code paths.
/// 2. **Engine self-profiling** — `run_synthetic_profiled` on the
///    threaded sharded run, splitting superstep wall time into step,
///    exchange and barrier phases.
/// 3. **Recorder run** — one single-worker run with the full
///    [`FlightRecorder`] (metrics sampler + packet tracer) attached —
///    the probes-on cost, recorded but not asserted; parity with the
///    plain run is asserted, and `--metrics PATH` / `--trace PATH`
///    export its recordings.
fn run_telemetry_section(quick: bool, shards: usize, opts: &TelemetryOpts) -> Json {
    let topo = square_mesh(32, LinkTechnology::Electronic);
    let routes = RoutingTable::compute_xy(&topo);
    let cfg = SimConfig::paper();
    let (rate, warmup, measure) = if quick {
        (0.10, 100, 300)
    } else {
        (0.15, 400, 1600)
    };
    let m = SyntheticPattern::Uniform.matrix(&topo, rate);
    let sequential =
        || ShardedSimulator::new(&topo, &routes, cfg, ShardSpec::for_count(shards)).with_threads(1);

    // 1. Interleaved best-of-3, plain vs probes-off.
    let mut plain_secs = f64::INFINITY;
    let mut probes_off_secs = f64::INFINITY;
    let mut expected = None;
    for _ in 0..3 {
        let t = Instant::now();
        let plain = sequential()
            .run_synthetic(&m, warmup, measure, 42)
            .expect("plain sequential run completes");
        plain_secs = plain_secs.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let off = sequential()
            .run_synthetic_probed(&m, warmup, measure, 42, &mut NoopProbe)
            .expect("probes-off run completes");
        probes_off_secs = probes_off_secs.min(t.elapsed().as_secs_f64());
        assert_eq!(off, plain, "probes-off telemetry parity violated");
        expected = Some(plain);
    }
    let expected = expected.expect("three rounds ran");

    // 2. Self-profiling on the threaded run.
    let (profiled, profile) =
        ShardedSimulator::new(&topo, &routes, cfg, ShardSpec::for_count(shards))
            .run_synthetic_profiled(&m, warmup, measure, 42)
            .expect("profiled run completes");
    assert_eq!(profiled, expected, "profiled-run parity violated");

    // 3. Fully recorded run (single-worker by construction). The trace
    // ring takes `--trace-cap` so a long run can keep its whole event
    // stream instead of silently shedding millions of events.
    let trace_capacity = if opts.trace_cap > 0 {
        opts.trace_cap
    } else {
        FlightRecorder::DEFAULT_TRACE_CAPACITY
    };
    let mut rec = FlightRecorder::new()
        .with_metrics(FlightRecorder::DEFAULT_INTERVAL)
        .with_trace(trace_capacity);
    let t = Instant::now();
    let recorded = ShardedSimulator::new(&topo, &routes, cfg, ShardSpec::for_count(shards))
        .run_synthetic_probed(&m, warmup, measure, 42, &mut rec)
        .expect("recorded run completes");
    let recorder_secs = t.elapsed().as_secs_f64();
    assert_eq!(recorded, expected, "recorded-run parity violated");
    match opts.write(&rec) {
        Ok(written) => {
            for path in &written {
                println!("wrote {path}");
            }
        }
        Err(e) => {
            eprintln!("could not write telemetry artifact: {e}");
            std::process::exit(1);
        }
    }

    let samples = rec.sampler.as_ref().map_or(0, |s| s.samples().len());
    let events = rec.tracer.as_ref().map_or(0, |t| t.events().count());
    let dropped_events = rec.tracer.as_ref().map_or(0, |t| t.dropped());
    if dropped_events > 0 && opts.trace.is_none() {
        // The export path (`TelemetryOpts::write`) warns for itself.
        eprintln!(
            "WARNING: packet trace ring overflowed: {dropped_events} events dropped, {events} kept. \
             Raise the ring with --trace-cap N.",
        );
    }
    let overhead_multiple = probes_off_secs / plain_secs;
    assert!(
        overhead_multiple <= 1.05,
        "probes-off overhead {overhead_multiple:.3}x exceeds the 1.05x budget"
    );
    assert!(samples > 0, "recorder run produced no samples");
    assert!(events > 0, "recorder run produced no events");
    let step_fraction = profile.fraction(profile.step_ns);
    let exchange_fraction = profile.fraction(profile.exchange_ns);
    let barrier_fraction = profile.fraction(profile.barrier_ns);
    println!(
        "TELEMETRY 32x32 uniform r={rate:.2}: probes-off {overhead_multiple:.3}x (plain {plain_secs:.2}s, hooks {probes_off_secs:.2}s) | recorder {recorder_secs:.2}s ({samples} samples, {events} events, {dropped_events} dropped) | profile step {:.0}% exchange {:.0}% barrier {:.0}% over {} supersteps x {} workers | parity OK",
        100.0 * step_fraction,
        100.0 * exchange_fraction,
        100.0 * barrier_fraction,
        profile.supersteps,
        profile.workers,
    );
    Obj::new()
        .field("mesh", "32x32")
        .field("pattern", "uniform")
        .field("rate", Json::fixed(rate, 3))
        .field("warmup", warmup)
        .field("measure", measure)
        .field("shards", shards)
        .field("plain_secs", Json::fixed(plain_secs, 4))
        .field("probes_off_secs", Json::fixed(probes_off_secs, 4))
        .field(
            "probes_off_overhead_multiple",
            Json::fixed(overhead_multiple, 4),
        )
        .field("recorder_secs", Json::fixed(recorder_secs, 4))
        .field("metrics_samples", samples)
        .field("trace_events", events)
        .field("trace_events_dropped", dropped_events)
        .field(
            "profile",
            Obj::new()
                .field("step_ns", profile.step_ns)
                .field("exchange_ns", profile.exchange_ns)
                .field("barrier_ns", profile.barrier_ns)
                .field("step_fraction", Json::fixed(step_fraction, 4))
                .field("exchange_fraction", Json::fixed(exchange_fraction, 4))
                .field("barrier_fraction", Json::fixed(barrier_fraction, 4))
                .field("supersteps", profile.supersteps)
                .field("workers", profile.workers),
        )
        .build()
}

/// The checkpoint/restore section. Three measurements on the paper's
/// 16×16 mesh:
///
/// 1. **Splice parity cell** — run uniform traffic to the middle of the
///    measurement window, snapshot, and finish from the snapshot on the
///    active-set, quadrant-sharded and (unless `fast`) seed engines;
///    all must match the uninterrupted run bit for bit. This is the
///    cell CI's `--quick` smoke pins on every push.
/// 2. **Save/restore micro-costs** — mean µs to serialize one full-state
///    snapshot and to decode + rebuild an engine from it, plus bytes
///    per node.
/// 3. **Warm-start sweep speedup** — the 16×16 uniform rate grid run
///    cold (per-point warm-up re-runs) vs warm-started from cached
///    anchors (anchor construction included). Wall seconds are recorded
///    for the human; the asserted `warm_start_multiple` is the
///    *simulated-cycle* work ratio, which is deterministic — the wall
///    ratio flattens on many-core hosts because the grid fans out wider
///    than the anchor phase.
fn run_snapshot_section(quick: bool, fast: bool) -> Json {
    let topo = mesh(MeshSpec::paper(LinkTechnology::Electronic));
    let routes = RoutingTable::compute_xy(&topo);
    let cfg = SimConfig::paper();
    let (warmup, measure, seeds, rates): (u64, u64, Vec<u64>, Vec<f64>) = if quick {
        (200, 100, vec![11], vec![0.05, 0.10, 0.15, 0.20])
    } else {
        (
            400,
            200,
            vec![11, 42],
            vec![0.025, 0.05, 0.075, 0.10, 0.125, 0.15, 0.20, 0.25],
        )
    };

    // 1. Splice parity: pause mid-measurement, resume on every engine.
    let m = SyntheticPattern::Uniform.matrix(&topo, 0.10);
    let split = warmup + measure / 2;
    let whole = Simulator::new(&topo, &routes, cfg)
        .run_synthetic(&m, warmup, measure, seeds[0])
        .expect("uninterrupted run completes");
    let snap = Simulator::new(&topo, &routes, cfg)
        .run_synthetic_until(&m, warmup, measure, seeds[0], split)
        .expect("run to the split cycle completes")
        .expect_paused();
    let workload = Workload::Synthetic {
        matrix: &m,
        warmup,
        measure,
        seed: seeds[0],
    };
    let resume = RunOpts {
        resume: Some(&snap),
        ..RunOpts::default()
    };
    let resumed = Simulator::new(&topo, &routes, cfg)
        .run(workload, resume, &mut NoopProbe)
        .expect("active-set resume completes")
        .expect_finished();
    assert_eq!(resumed, whole, "snapshot splice parity violated");
    let sharded = ShardedSimulator::new(&topo, &routes, cfg, ShardSpec::quadrants())
        .run(workload, resume, &mut NoopProbe)
        .expect("sharded resume completes")
        .expect_finished();
    assert_eq!(sharded, whole, "snapshot shard-restore parity violated");
    if !fast {
        let reference = ReferenceSimulator::new(&topo, &routes, cfg)
            .resume_synthetic(&snap, &m, warmup, measure, seeds[0])
            .expect("seed-engine resume completes");
        assert_eq!(reference, whole, "snapshot seed-restore parity violated");
    }

    // 2. Save/restore micro-costs on the mid-run snapshot.
    let reps = 20u32;
    let t0 = Instant::now();
    let mut sim = None;
    for _ in 0..reps {
        sim = Some(
            Simulator::new(&topo, &routes, cfg)
                .restore(&snap)
                .expect("mid-run snapshot restores"),
        );
    }
    let restore_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(reps);
    let sim = sim.expect("at least one restore ran");
    let t1 = Instant::now();
    let mut resaved = sim.snapshot(split);
    for _ in 1..reps {
        resaved = sim.snapshot(split);
    }
    let save_us = t1.elapsed().as_secs_f64() * 1e6 / f64::from(reps);
    assert_eq!(
        resaved.size_bytes(),
        snap.size_bytes(),
        "re-exported snapshot changed size"
    );

    // 3. Warm vs cold rate grid.
    let sweep_cfg = SweepConfig {
        warmup,
        measure,
        seeds: seeds.clone(),
        ..SweepConfig::quick()
    };
    let gen = |r: f64| SyntheticPattern::Uniform.matrix(&topo, r);
    let cold_runner = SweepRunner::new(&topo, &routes, cfg, sweep_cfg.clone().cold());
    let t2 = Instant::now();
    let cold_points = cold_runner.run_grid(&gen, &rates);
    let cold_grid_secs = t2.elapsed().as_secs_f64();
    let warm_runner = SweepRunner::new(&topo, &routes, cfg, sweep_cfg);
    let t3 = Instant::now();
    let warm_points = warm_runner.run_grid(&gen, &rates);
    let warm_grid_secs = t3.elapsed().as_secs_f64();

    let runs = (rates.len() * seeds.len()) as u32;
    let completed: u32 = warm_points.iter().map(|p| p.completed_runs).sum();
    assert_eq!(completed, runs, "warm grid run hit the cycle cap");
    let cold_work: u64 = cold_points.iter().map(|p| p.cycles).sum();
    let warm_cycles: u64 = warm_points.iter().map(|p| p.cycles).sum();
    // Anchors simulate [0, warmup] once per seed; each resumed run then
    // simulates (final_now - warmup). LoadPoint cycles record final_now.
    let warm_work = seeds.len() as u64 * warmup + (warm_cycles - u64::from(runs) * warmup);
    let work_multiple = cold_work as f64 / warm_work as f64;
    assert!(
        work_multiple >= 1.2,
        "warm-start work multiple {work_multiple:.2} below the 1.2x floor"
    );

    let snapshot_bytes = snap.size_bytes();
    let bytes_per_node = snapshot_bytes as f64 / f64::from(snap.num_nodes());
    let wall_speedup = cold_grid_secs / warm_grid_secs;
    println!(
        "SNAPSHOT 16x16 uniform: {snapshot_bytes} B ({bytes_per_node:.0} B/node) | save {save_us:.0} us, restore {restore_us:.0} us | grid {} rates x {} seeds: cold {cold_grid_secs:.2}s vs warm {warm_grid_secs:.2}s (wall {wall_speedup:.2}x, work {work_multiple:.2}x) | splice parity OK ({})",
        rates.len(),
        seeds.len(),
        if fast {
            "active-set + sharded"
        } else {
            "all three engines"
        },
    );
    Obj::new()
        .field("mesh", "16x16")
        .field("pattern", "uniform")
        .field("snapshot_bytes", snapshot_bytes)
        .field("bytes_per_node", Json::fixed(bytes_per_node, 1))
        .field("save_usecs", Json::fixed(save_us, 1))
        .field("restore_usecs", Json::fixed(restore_us, 1))
        .field("grid_rates", rates.len())
        .field("seeds", seeds.len())
        .field("warmup", warmup)
        .field("measure", measure)
        .field("cold_grid_secs", Json::fixed(cold_grid_secs, 4))
        .field("warm_grid_secs", Json::fixed(warm_grid_secs, 4))
        .field("wall_speedup", Json::fixed(wall_speedup, 4))
        .field("warm_start_multiple", Json::fixed(work_multiple, 4))
        .build()
}

/// The faulty-mesh parity cell: 16×16 uniform with a dead link and a
/// degraded span on the quadrant cuts plus a dead router, routed with the
/// fault-avoiding up*/down* table and parity-asserted on the seed
/// (unless `fast`) and quadrant-sharded engines. The healthy mesh is
/// installed as the rerouting baseline, so the record pins the
/// resilience counters too.
fn run_fault_section(quick: bool, fast: bool) -> Json {
    let healthy = mesh(MeshSpec::paper(LinkTechnology::Electronic));
    let healthy_routes = RoutingTable::compute_xy(&healthy);
    let spec = FaultSpec::none()
        .dead_link(NodeId(3 * 16 + 7), NodeId(3 * 16 + 8))
        .degraded_span(NodeId(9 * 16 + 7), NodeId(9 * 16 + 8))
        .dead_router(NodeId(6 * 16 + 8));
    let dead_links = spec.dead_links.len();
    let degraded_spans = spec.degraded_spans.len();
    let dead_routers = spec.dead_routers.len();
    let topo = spec.apply(&healthy);
    let routes =
        RoutingTable::compute_xy_avoiding(&topo).expect("fault set keeps the mesh routable");
    let (rate, warmup, measure) = if quick {
        (0.10, 100, 400)
    } else {
        (0.10, 300, 1200)
    };
    let mut cfg = SimConfig::paper();
    cfg.max_cycles = 2_000_000;
    let m = SyntheticPattern::Uniform.matrix(&topo, rate);
    let cell = SynthCell {
        topo: &topo,
        routes: &routes,
        cfg,
        warmup,
        measure,
        baseline: Some((&healthy, &healthy_routes)),
        tenants: None,
    };
    let (stats, secs) = cell.run(&m, "fault cell");
    let checked = cell.assert_parity(&m, &stats, fast, "fault cell");
    assert!(stats.rerouted_hops > 0, "dead span must force detours");
    assert!(
        stats.unreachable_pairs > 0,
        "dead router must drop its pairs"
    );

    println!(
        "FAULT 16x16 uniform r={rate:.2} ({dead_links} dead + {degraded_spans} degraded spans, {dead_routers} dead router): lat {:.1} clks | rerouted {} hops | unreachable {} pkts | {:.2?} | parity OK ({checked})",
        stats.mean_latency(),
        stats.rerouted_hops,
        stats.unreachable_pairs,
        Duration::from_secs_f64(secs),
    );
    Obj::new()
        .field("mesh", "16x16")
        .field("pattern", "uniform")
        .field("rate", Json::fixed(rate, 3))
        .field("warmup", warmup)
        .field("measure", measure)
        .field("dead_links", dead_links)
        .field("degraded_spans", degraded_spans)
        .field("dead_routers", dead_routers)
        .field("rerouted_hops", stats.rerouted_hops)
        .field("unreachable_pairs", stats.unreachable_pairs)
        .field("mean_latency", Json::fixed(stats.mean_latency(), 4))
        .field("secs", Json::fixed(secs, 4))
        .build()
}

/// Compact saturation-vs-fault-count record: for each mesh and fault
/// count, one seeded fault sample (dead-or-degraded spans, resampled on
/// disconnection) swept to its uniform saturation load, with the
/// resilience counters probed at a fixed sub-saturation rate. Runs the
/// quick sweep config in both modes — the full figure lives in
/// `repro fault_sweep`; this record just tracks the trajectory.
fn run_fault_saturation_section(quick: bool, shards: usize) -> Json {
    let mesh16 = mesh(MeshSpec::paper(LinkTechnology::Electronic));
    let mut points = fault_sat_curve(&mesh16, "16x16", &[0, 4], &SweepConfig::quick());
    let cfg32 = if quick {
        SweepConfig {
            warmup: 100,
            measure: 400,
            ..SweepConfig::quick()
        }
    } else {
        SweepConfig::quick()
    }
    .with_shards(shards);
    let mesh32 = square_mesh(32, LinkTechnology::Electronic);
    points.extend(fault_sat_curve(&mesh32, "32x32", &[0, 4], &cfg32));
    points.into()
}

fn fault_sat_curve(
    topo: &Topology,
    mesh_label: &'static str,
    counts: &[usize],
    cfg: &SweepConfig,
) -> Vec<Json> {
    let healthy_routes = RoutingTable::compute_xy(topo);
    counts
        .iter()
        .map(|&count| {
            // Seeded sample; disconnecting draws step to a fresh seed
            // (same rule as the `repro fault_sweep` driver).
            let mut seed = 0xBEEF + count as u64;
            let spec = loop {
                let s = FaultSpec::sample(topo, count, seed);
                if s.is_empty() || RoutingTable::compute_xy_avoiding(&s.apply(topo)).is_ok() {
                    break s;
                }
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            };
            let run_cfg = if spec.is_empty() {
                cfg.clone()
            } else {
                cfg.clone().faults(spec)
            };
            let runner = SweepRunner::new(topo, &healthy_routes, SimConfig::paper(), run_cfg);
            let gen = |r: f64| SyntheticPattern::Uniform.matrix(topo, r);
            let sat = runner.find_saturation(&gen, 0.5);
            let probe = runner.run_point(&gen(0.05));
            println!(
                "FAULT-SAT {mesh_label} uniform, {count} faults (seed {seed}): saturation {} | rerouted {} hops | unreachable {} pkts",
                saturation_text(sat.saturation_load, sat.saturated_in_range),
                probe.rerouted_hops,
                probe.unreachable_pairs,
            );
            Obj::new()
                .field("mesh", mesh_label)
                .field("fault_count", count)
                .field("sample_seed", seed)
                .field(
                    "saturation_load",
                    sat.saturated_in_range
                        .then(|| Json::fixed(sat.saturation_load, 4)),
                )
                .field("rerouted_hops", probe.rerouted_hops)
                .field("unreachable_pairs", probe.unreachable_pairs)
                .build()
        })
        .collect()
}

/// The p99.9-vs-burstiness curve: the 16×16 uniform cell re-run with
/// ON/OFF modulated injection at peak-to-mean ratios 1/2/4/8. The factor
/// process is mean-one, so every point offers the same long-run load —
/// the tail growth is pure clustering. The b=4 point is parity-asserted
/// on the seed (unless `fast`) and quadrant-sharded engines, so bursty
/// injection is pinned on every perfcheck.
fn run_burst_section(quick: bool, fast: bool) -> Json {
    let topo = mesh(MeshSpec::paper(LinkTechnology::Electronic));
    let routes = RoutingTable::compute_xy(&topo);
    let (rate, warmup, measure) = if quick {
        (0.10, 100, 400)
    } else {
        (0.10, 300, 1200)
    };
    let m = SyntheticPattern::Uniform.matrix(&topo, rate);
    let mut curve = Vec::new();
    let mut p999s = Vec::new();
    for b in [1.0f64, 2.0, 4.0, 8.0] {
        let mut cfg = SimConfig::paper();
        cfg.max_cycles = 2_000_000;
        cfg.burst = BurstSpec::onoff(b);
        let cell = SynthCell {
            topo: &topo,
            routes: &routes,
            cfg,
            warmup,
            measure,
            baseline: None,
            tenants: None,
        };
        let (stats, secs) = cell.run(&m, "bursty");
        let parity = if b == 4.0 {
            let checked = cell.assert_parity(&m, &stats, fast, "bursty");
            format!(" | parity OK ({checked})")
        } else {
            String::new()
        };
        let (p99, p999) = (stats.all.p99(), stats.all.p999());
        println!(
            "BURST 16x16 uniform r={rate:.2} {}: lat {:.1} clks (p99 {p99} p99.9 {p999}) | {} pkts | {:.2?}{parity}",
            cfg.burst,
            stats.mean_latency(),
            stats.all.count,
            Duration::from_secs_f64(secs),
        );
        curve.push(
            Obj::new()
                .field("burstiness", Json::fixed(b, 1))
                .field("mean_latency", Json::fixed(stats.mean_latency(), 4))
                .field("p99", p99)
                .field("p999", p999)
                .field("packets", stats.all.count)
                .field("secs", Json::fixed(secs, 4))
                .build(),
        );
        p999s.push(p999);
    }
    assert!(
        p999s.last().expect("curve nonempty") > p999s.first().expect("curve nonempty"),
        "b=8 clustering must stretch the p99.9 tail past steady"
    );
    Obj::new()
        .field("mesh", "16x16")
        .field("pattern", "uniform")
        .field("modulator", "onoff")
        .field("rate", Json::fixed(0.10, 3))
        .field("curve", curve)
        .build()
}

/// One per-tenant latency lane of the tenant record.
fn tenant_lane_json(lane: &TenantStats) -> Json {
    Obj::new()
        .field("mean_latency", Json::fixed(lane.latency.mean(), 4))
        .field("p99", lane.latency.p99())
        .field("p999", lane.latency.p999())
        .field("packets", lane.latency.count)
        .build()
}

/// The multi-tenant interference cell: a hotspot victim (left half-tile)
/// co-scheduled with a uniform aggressor (right half-tile) on the 16×16
/// mesh, run with the aggressor quiet and loaded. Per-tenant latency
/// lanes come from the tenant map attached to the engines; the loaded
/// run is parity-asserted on the seed (unless `fast`) and
/// quadrant-sharded engines with the map attached (tenant tiles and
/// engine shards are independent rectangles, so the 2×1 tenant layout
/// crosses the 2×2 shard cuts).
fn run_tenant_section(quick: bool, fast: bool) -> Json {
    let topo = mesh(MeshSpec::paper(LinkTechnology::Electronic));
    let routes = RoutingTable::compute_xy(&topo);
    let (victim_rate, quiet, loaded, warmup, measure) = if quick {
        (0.08, 0.02, 0.16, 100, 400)
    } else {
        (0.08, 0.02, 0.16, 300, 1200)
    };
    let spec = TenantSpec::pair(
        TenantWorkload {
            pattern: SyntheticPattern::Hotspot,
            rate: victim_rate,
        },
        TenantWorkload {
            pattern: SyntheticPattern::Uniform,
            rate: quiet,
        },
    );
    let map = spec.map(&topo);
    let mut cfg = SimConfig::paper();
    cfg.max_cycles = 2_000_000;
    let cell = SynthCell {
        topo: &topo,
        routes: &routes,
        cfg,
        warmup,
        measure,
        baseline: None,
        tenants: Some(&map),
    };

    let quiet_matrix = spec.with_rate(1, quiet).matrix(&topo);
    let loaded_matrix = spec.with_rate(1, loaded).matrix(&topo);
    let (quiet_stats, quiet_secs) = cell.run(&quiet_matrix, "tenant");
    let (loaded_stats, loaded_secs) = cell.run(&loaded_matrix, "tenant");
    let secs = quiet_secs + loaded_secs;

    for stats in [&quiet_stats, &loaded_stats] {
        assert_eq!(stats.tenants.len(), 2, "two tenant lanes expected");
        let lane_packets: u64 = stats.tenants.iter().map(|t| t.latency.count).sum();
        assert_eq!(
            lane_packets, stats.all.count,
            "tenant lanes must partition the aggregate"
        );
    }
    let checked = cell.assert_parity(&loaded_matrix, &loaded_stats, fast, "tenant");

    let (victim_quiet, victim_loaded, aggressor) = (
        &quiet_stats.tenants[0],
        &loaded_stats.tenants[0],
        &loaded_stats.tenants[1],
    );
    println!(
        "TENANT 16x16 hotspot@{victim_rate:.2} | uniform {quiet:.2}->{loaded:.2}: victim p99.9 {} -> {} | aggressor lat {:.1} clks (p99.9 {}) | {:.2?} | parity OK ({checked})",
        victim_quiet.latency.p999(),
        victim_loaded.latency.p999(),
        aggressor.latency.mean(),
        aggressor.latency.p999(),
        Duration::from_secs_f64(secs),
    );
    Obj::new()
        .field("mesh", "16x16")
        .field("grid", "2x1")
        .field("victim_pattern", "hotspot")
        .field("aggressor_pattern", "uniform")
        .field("victim_rate", Json::fixed(victim_rate, 3))
        .field("aggressor_quiet", Json::fixed(quiet, 3))
        .field("aggressor_loaded", Json::fixed(loaded, 3))
        .field("secs", Json::fixed(secs, 4))
        .field("victim_quiet", tenant_lane_json(victim_quiet))
        .field("victim_loaded", tenant_lane_json(victim_loaded))
        .field("aggressor", tenant_lane_json(aggressor))
        .build()
}
