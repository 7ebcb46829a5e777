//! The workloads. Each is a fixed-size batch job: set-up (topology,
//! routes, traffic, engine or runner construction), then one timed phase.
//!
//! | workload | layers on its path | why |
//! |---|---|---|
//! | `npb16_p1` | topology, traffic, sim | the paper's Fig. 6 experiment on the P=1 engine |
//! | `sweep16_uniform` | + sweep, snapshot | load-latency grid and saturation search |
//! | `closed32_shard2` | + shard (per-cycle) | closed-loop credits across a shard cut |
//!
//! `cg64_shard2` (all-HyPPI 64×64 CG trace on 2 shards, W=2 windows) was
//! left out: on a shared 2-CPU host its wall time spread too far between
//! runs for a regression bound (see README.md).
//!
//! Synthetic seeds derive from the benchmark seed; the trace workloads are
//! seed-free by construction (the NPB generators are deterministic).

use crate::metrics::{digest, median, Metrics};
use crate::spans::Tracer;
use hyppi_netsim::{
    EngineProfile, LoadPoint, MetricsSampler, ReferenceSimulator, SaturationSearch,
    ShardedSimulator, SimConfig, SimError, SimStats, Simulator, Snapshot, StallCause, SweepConfig,
    SweepRunner,
};
use hyppi_phys::{Gbps, LinkTechnology};
use hyppi_topology::{
    express_mesh, mesh, ExpressSpec, MeshSpec, RoutingTable, ShardSpec, Topology,
};
use hyppi_traffic::{NpbKernel, NpbTraceSpec, ScaledNpbSpec, SyntheticPattern, Trace};
use std::time::Instant;

/// Shards of `closed32_shard2`.
const SHARDS: usize = 2;

/// Workload size: `Full` is the benchmark; `Tiny` runs the same code
/// paths on small meshes so the benchmark's tests finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Npb16P1,
    Sweep16Uniform,
    Closed32Shard2,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Npb16P1, Kind::Sweep16Uniform, Kind::Closed32Shard2];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Npb16P1 => "npb16_p1",
            Kind::Sweep16Uniform => "sweep16_uniform",
            Kind::Closed32Shard2 => "closed32_shard2",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Threads the timed phase runs on, given the host's CPU counts. The
    /// shard workload runs one worker per shard, capped at `nproc`; the
    /// sweep's `parallel_map` takes `available_parallelism` threads, capped
    /// at its job count.
    pub fn threads(self, nproc: usize, available: usize) -> usize {
        match self {
            Kind::Npb16P1 => 1,
            Kind::Closed32Shard2 => SHARDS.min(nproc),
            Kind::Sweep16Uniform => available.min(SWEEP_RATES.len() * SWEEP_SEEDS),
        }
    }

    /// Per-layer metrics (names or `layer.` prefixes) this workload's
    /// calls never reach; its traced run reports them as 0.
    pub fn bypassed(self) -> &'static [&'static str] {
        match self {
            Kind::Npb16P1 => &[
                "shard.",
                "sweep.",
                "snapshot.",
                "model.saturation_load",
                "model.zero_load_latency_clk",
            ],
            Kind::Sweep16Uniform => &[
                "sim.ft.",
                "sim.cg.",
                "sim.mg.",
                "sim.lu.",
                "shard.",
                "model.hyppi_latency_gain",
            ],
            Kind::Closed32Shard2 => &[
                "sim.ft.",
                "sim.cg.",
                "sim.mg.",
                "sim.lu.",
                "sweep.",
                "snapshot.",
                "model.saturation_load",
                "model.zero_load_latency_clk",
                "model.hyppi_latency_gain",
            ],
        }
    }

    pub fn measures(self, metric: &str) -> bool {
        !self.bypassed().iter().any(|b| {
            if b.ends_with('.') {
                metric.starts_with(b)
            } else {
                metric == *b
            }
        })
    }
}

/// One checked output: `Ok(digest)` or `Err(why it failed)`, covering
/// `ops` simulation runs.
#[derive(Debug, Clone)]
pub struct Check {
    pub label: String,
    pub ops: u64,
    pub outcome: Result<u64, String>,
}

impl Check {
    fn of(label: impl Into<String>, ops: u64, outcome: Result<u64, String>) -> Self {
        Check {
            label: label.into(),
            ops,
            outcome,
        }
    }

    /// A trace run: no error, and every trace packet delivered.
    fn trace_run(
        label: impl Into<String>,
        trace: &Trace,
        res: &Result<SimStats, SimError>,
    ) -> Self {
        let outcome = match res {
            Err(e) => Err(e.to_string()),
            Ok(s) if s.all.count != trace.total_packets() as u64 => Err(format!(
                "delivered {} of {} trace packets",
                s.all.count,
                trace.total_packets()
            )),
            Ok(s) => Ok(digest(s)),
        };
        Check::of(label, 1, outcome)
    }

    /// A synthetic run: no error, and the network drained.
    fn synthetic_run(label: impl Into<String>, res: &Result<SimStats, SimError>) -> Self {
        let outcome = match res {
            Err(e) => Err(e.to_string()),
            Ok(s) if s.flits_delivered != s.flits_injected => Err(format!(
                "delivered {} of {} injected flits",
                s.flits_delivered, s.flits_injected
            )),
            Ok(s) => Ok(digest(s)),
        };
        Check::of(label, 1, outcome)
    }
}

/// One repetition of a workload.
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub checks: Vec<Check>,
    /// Layer counts known from the repetition itself.
    pub counts: Metrics,
}

/// Runs `f` as the timed phase: wall and all-thread CPU seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = crate::host::cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (out, wall, crate::host::cpu_seconds() - cpu0)
}

/// SplitMix64 finalizer: decorrelated seeds from the benchmark seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn square_mesh(side: u16, tech: LinkTechnology) -> Topology {
    mesh(MeshSpec {
        width: side,
        height: side,
        core_spacing_mm: 1.0,
        base_tech: tech,
        capacity: Gbps::new(50.0),
    })
}

fn set_topology_counts(m: &mut Metrics, topos: &[&Topology]) {
    m.set(
        "topology.nodes",
        topos.iter().map(|t| t.num_nodes()).sum::<usize>() as f64,
    );
    m.set(
        "topology.links",
        topos.iter().map(|t| t.links().len()).sum::<usize>() as f64,
    );
}

/// Model counts of probed runs, summed over runs.
#[derive(Default)]
struct ModelTally {
    latency: hyppi_netsim::LatencyStats,
    cycles: u64,
    flit_hops: u64,
    stalls: [u64; 5],
    util_weighted: f64,
    util_cycles: u64,
    mailbox_flits: u64,
    mailbox_credits: u64,
}

impl ModelTally {
    fn add(&mut self, stats: &SimStats, sampler: &MetricsSampler) {
        self.latency.merge(&stats.all);
        self.cycles += stats.cycles;
        self.flit_hops += stats.total_flit_hops();
        for s in sampler.samples() {
            for (acc, v) in self.stalls.iter_mut().zip(s.stalls) {
                *acc += v;
            }
            self.util_weighted += s.link_util_mean * s.span as f64;
            self.util_cycles += s.span;
            self.mailbox_flits += s.mailbox_flits;
            self.mailbox_credits += s.mailbox_credits;
        }
    }

    fn stall(&self, cause: StallCause) -> f64 {
        let i = StallCause::ALL
            .iter()
            .position(|&c| c == cause)
            .expect("cause is listed");
        self.stalls[i] as f64
    }

    fn report(&self, m: &mut Metrics, accepted_throughput: f64) {
        m.set("model.packets", self.latency.count as f64);
        m.set("model.sim_cycles", self.cycles as f64);
        m.set("model.flit_hops", self.flit_hops as f64);
        m.set("model.mean_latency_clk", self.latency.mean());
        m.set("model.p99_clk", self.latency.p99() as f64);
        m.set("model.stall.va_loss", self.stall(StallCause::VaLoss));
        m.set("model.stall.sa_loss", self.stall(StallCause::SaLoss));
        m.set(
            "model.stall.credit_starved",
            self.stall(StallCause::CreditStarved),
        );
        m.set(
            "model.stall.window_closed",
            self.stall(StallCause::WindowClosed),
        );
        m.set(
            "model.link_util_mean",
            self.util_weighted / self.util_cycles.max(1) as f64,
        );
        m.set("model.accepted_throughput", accepted_throughput);
    }
}

/// Sampling interval of the model-count probe: every cycle, so the
/// sampler's totals cover the whole run.
const SAMPLE_EVERY: u64 = 1;

/// `sim.*` metrics of the P=1 `Simulator` runs a tracer recorded, given
/// the flit hops and cycles those runs simulated.
fn report_sim(m: &mut Metrics, tr: &Tracer, flit_hops: u64, cycles: u64) {
    let run_s = tr.total_s("sim.run", None);
    m.set("sim.construct_s", tr.total_s("sim.construct", None));
    m.set("sim.run_s", run_s);
    m.set("sim.ns_per_flit_hop", run_s * 1e9 / flit_hops.max(1) as f64);
    m.set("sim.cycles_per_s", cycles as f64 / run_s);
}

// ---- npb16_p1 -----------------------------------------------------------

/// Express span of the HyPPI topology; 0 is the electronic mesh.
const NPB_SPANS: [u16; 2] = [0, 5];

pub struct NpbInputs {
    topos: Vec<Topology>,
    routes: Vec<RoutingTable>,
    traces: Vec<(NpbKernel, Trace)>,
}

fn npb_cfg() -> SimConfig {
    let mut cfg = SimConfig::paper();
    cfg.max_cycles = 2_000_000;
    cfg
}

fn npb_label(span: u16, kernel: NpbKernel) -> String {
    format!("{}/span{span}", kernel.name())
}

fn npb_inputs(size: Size, tr: &Tracer) -> NpbInputs {
    let topos: Vec<Topology> = NPB_SPANS
        .iter()
        .map(|&span| {
            tr.span("topology.build", "", || {
                let base = MeshSpec::paper(LinkTechnology::Electronic);
                if span == 0 {
                    mesh(base)
                } else {
                    express_mesh(
                        base,
                        ExpressSpec {
                            span,
                            tech: LinkTechnology::Hyppi,
                        },
                    )
                }
            })
        })
        .collect();
    let routes = topos
        .iter()
        .map(|t| tr.span("topology.routes", "", || RoutingTable::compute_xy(t)))
        .collect();
    let traces = NpbKernel::ALL
        .iter()
        .map(|&k| {
            let trace = tr.span("traffic.gen", k.name(), || match size {
                Size::Full => NpbTraceSpec::paper(k).default_window(),
                // Volume scaling stops at one packet per pair; decimating
                // partners is what shrinks FT's all-to-all.
                Size::Tiny => ScaledNpbSpec::new(k, 16, 16).trace_window_decimated(1, 0.05, 16),
            });
            (k, trace)
        })
        .collect();
    NpbInputs {
        topos,
        routes,
        traces,
    }
}

fn npb_rep(inp: &NpbInputs, tr: &Tracer, t0: Instant) -> Rep {
    let cfg = npb_cfg();
    let mut cells = Vec::new();
    for (ti, &span) in NPB_SPANS.iter().enumerate() {
        for (k, trace) in &inp.traces {
            let sim = tr.span("sim.construct", k.name(), || {
                Simulator::new(&inp.topos[ti], &inp.routes[ti], cfg)
            });
            cells.push((npb_label(span, *k), *k, trace, sim));
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let (outs, wall_s, cpu_s) = timed(|| {
        cells
            .into_iter()
            .map(|(label, k, trace, sim)| {
                let res = tr.span("sim.run", k.name(), || sim.run_trace(trace));
                (label, trace, res)
            })
            .collect::<Vec<_>>()
    });
    let mut counts = Metrics::default();
    set_topology_counts(&mut counts, &inp.topos.iter().collect::<Vec<_>>());
    counts.set(
        "traffic.packets",
        inp.traces
            .iter()
            .map(|(_, t)| t.total_packets())
            .sum::<usize>() as f64,
    );
    counts.set(
        "traffic.flits",
        inp.traces.iter().map(|(_, t)| t.total_flits()).sum::<u64>() as f64,
    );
    Rep {
        setup_s,
        wall_s,
        cpu_s,
        checks: outs
            .iter()
            .map(|(label, trace, res)| Check::trace_run(label.clone(), trace, res))
            .collect(),
        counts,
    }
}

/// The frozen reference engine on the workload's cheapest cell (LU on the
/// electronic mesh), which must match the active-set engine's output.
fn npb_oracle(inp: &NpbInputs, tr: &Tracer) -> Vec<Check> {
    let (k, trace) = inp
        .traces
        .iter()
        .find(|(k, _)| *k == NpbKernel::Lu)
        .expect("LU trace is generated");
    let res = tr.span("oracle.reference", k.name(), || {
        ReferenceSimulator::new(&inp.topos[0], &inp.routes[0], npb_cfg()).run_trace(trace)
    });
    vec![Check::trace_run(npb_label(NPB_SPANS[0], *k), trace, &res)]
}

fn npb_layers(inp: &NpbInputs, tr: &Tracer, m: &mut Metrics) -> Vec<Check> {
    let mut checks = Vec::new();
    let mut all = ModelTally::default();
    let mut mean_by_span = [hyppi_netsim::LatencyStats::default(), Default::default()];
    let mut accepted_flits = 0u64;
    let mut accepted_window = 0u64;
    for (ti, &span) in NPB_SPANS.iter().enumerate() {
        for (k, trace) in &inp.traces {
            let mut sampler = MetricsSampler::new(SAMPLE_EVERY);
            let res = tr.span("model.probed_run", k.name(), || {
                Simulator::new(&inp.topos[ti], &inp.routes[ti], npb_cfg())
                    .run_trace_probed(trace, &mut sampler)
            });
            checks.push(Check::trace_run(npb_label(span, *k), trace, &res));
            if let Ok(stats) = &res {
                all.add(stats, &sampler);
                mean_by_span[ti].merge(&stats.all);
                accepted_flits += stats.accepted_flits;
                accepted_window += stats.cycles * inp.topos[ti].num_nodes() as u64;
            }
        }
    }
    all.report(m, accepted_flits as f64 / accepted_window.max(1) as f64);
    report_sim(m, tr, all.flit_hops, all.cycles);
    for (k, name) in NpbKernel::ALL.iter().zip([
        "sim.ft.run_s",
        "sim.cg.run_s",
        "sim.mg.run_s",
        "sim.lu.run_s",
    ]) {
        m.set(name, tr.total_s("sim.run", Some(k.name())));
    }
    m.set(
        "model.hyppi_latency_gain",
        mean_by_span[0].mean() / mean_by_span[1].mean(),
    );
    checks
}

// ---- sweep16_uniform ----------------------------------------------------

/// Rate grid, flits/node/cycle. The first rate is the sweep's zero-load
/// (anchor) rate, where a warm-started point equals a cold one bit for
/// bit; the cold-run oracle checks exactly that point.
const SWEEP_RATES: [f64; 5] = [0.005, 0.05, 0.10, 0.15, 0.20];
const SWEEP_SEEDS: usize = 2;
/// Upper bound of the saturation search.
const SWEEP_MAX_RATE: f64 = 0.8;
/// Grid rate of the direct `Simulator` and model-probe runs.
const SWEEP_PROBE_RATE: f64 = 0.10;

pub struct SweepInputs {
    topo: Topology,
    routes: RoutingTable,
    cfg: SweepConfig,
    rates: Vec<f64>,
}

fn sweep_inputs(size: Size, seed: u64, tr: &Tracer) -> SweepInputs {
    let (side, cfg, rates) = match size {
        Size::Full => (16, SweepConfig::paper(), SWEEP_RATES.to_vec()),
        Size::Tiny => (
            8,
            SweepConfig {
                warmup: 100,
                measure: 300,
                tolerance: 0.05,
                ..SweepConfig::paper()
            },
            vec![SWEEP_RATES[0], SWEEP_PROBE_RATE],
        ),
    };
    let cfg = SweepConfig {
        seeds: (0..SWEEP_SEEDS as u64).map(|i| mix(seed, 10 + i)).collect(),
        ..cfg
    };
    assert_eq!(
        rates[0], cfg.zero_load_rate,
        "the oracle point must be the anchor rate"
    );
    let topo = tr.span("topology.build", "", || {
        square_mesh(side, LinkTechnology::Electronic)
    });
    let routes = tr.span("topology.routes", "", || RoutingTable::compute_xy(&topo));
    SweepInputs {
        topo,
        routes,
        cfg,
        rates,
    }
}

fn point_check(label: String, p: &LoadPoint, seeds: usize) -> Check {
    let outcome = if p.stable && p.completed_runs as usize == seeds {
        Ok(digest(p))
    } else {
        Err(format!("{} of {seeds} runs completed", p.completed_runs))
    };
    Check::of(label, seeds as u64, outcome)
}

fn sweep_rep(inp: &SweepInputs, tr: &Tracer, t0: Instant) -> Rep {
    let runner = tr.span("sweep.construct", "", || {
        SweepRunner::new(&inp.topo, &inp.routes, SimConfig::paper(), inp.cfg.clone())
    });
    let gen = |r: f64| {
        tr.span("traffic.gen", "", || {
            SyntheticPattern::Uniform.matrix(&inp.topo, r)
        })
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let ((points, sat), wall_s, cpu_s) = timed(|| {
        let points = tr.span("sweep.grid", "", || runner.run_grid(&gen, &inp.rates));
        let sat = tr.span("sweep.saturation", "", || {
            runner.find_saturation(&gen, SWEEP_MAX_RATE)
        });
        (points, sat)
    });
    let seeds = inp.cfg.seeds.len();
    let mut checks: Vec<Check> = points
        .iter()
        .enumerate()
        .map(|(i, p)| point_check(format!("grid{i}"), p, seeds))
        .collect();
    // An unstable probe is a modelled result, so the search is only
    // checked for repeating exactly.
    checks.push(Check::of(
        "saturation",
        u64::from(sat.runs),
        Ok(digest(&sat)),
    ));
    let mut counts = Metrics::default();
    set_topology_counts(&mut counts, &[&inp.topo]);
    let measured: u64 = points.iter().map(|p| p.latency.count).sum();
    counts.set("traffic.packets", measured as f64);
    counts.set("traffic.flits", measured as f64);
    sweep_counts(&mut counts, &points, &sat, seeds);
    Rep {
        setup_s,
        wall_s,
        cpu_s,
        checks,
        counts,
    }
}

fn sweep_counts(m: &mut Metrics, points: &[LoadPoint], sat: &SaturationSearch, seeds: usize) {
    m.set(
        "sweep.runs",
        (points.len() * seeds) as f64 + f64::from(sat.runs),
    );
    m.set(
        "sweep.grid_cycles",
        points.iter().map(|p| p.cycles).sum::<u64>() as f64,
    );
    m.set(
        "sweep.threads",
        Kind::Sweep16Uniform.threads(crate::host::nproc(), crate::host::available_parallelism())
            as f64,
    );
    // The search's upper bound when the network never saturated.
    m.set("model.saturation_load", sat.saturation_load);
    m.set("model.zero_load_latency_clk", sat.zero_load_latency);
}

/// A cold runner's anchor-rate point must equal the warm grid's.
fn sweep_oracle(inp: &SweepInputs, tr: &Tracer) -> Vec<Check> {
    let runner = SweepRunner::new(
        &inp.topo,
        &inp.routes,
        SimConfig::paper(),
        inp.cfg.clone().cold(),
    );
    let gen = |r: f64| SyntheticPattern::Uniform.matrix(&inp.topo, r);
    let points = tr.span("oracle.cold_point", "", || {
        runner.run_grid(&gen, &inp.rates[..1])
    });
    vec![point_check("grid0".into(), &points[0], inp.cfg.seeds.len())]
}

fn sweep_layers(inp: &SweepInputs, tr: &Tracer, m: &mut Metrics) -> Vec<Check> {
    let cfg = &inp.cfg;
    let seed = cfg.seeds[0];
    let matrix = SyntheticPattern::Uniform.matrix(&inp.topo, SWEEP_PROBE_RATE);
    let mut sim_cfg = SimConfig::paper();
    sim_cfg.max_cycles = cfg.run_max_cycles;

    // The P=1 engine on one cold grid point.
    let sim = tr.span("sim.construct", "", || {
        Simulator::new(&inp.topo, &inp.routes, sim_cfg)
    });
    let res = tr.span("sim.run", "", || {
        sim.run_synthetic(&matrix, cfg.warmup, cfg.measure, seed)
    });
    let mut checks = vec![Check::synthetic_run("direct", &res)];
    let (hops, cycles) = res
        .as_ref()
        .map_or((0, 0), |s| (s.total_flit_hops(), s.cycles));
    report_sim(m, tr, hops, cycles);

    // Model counts from the same point, probed.
    let mut sampler = MetricsSampler::new(SAMPLE_EVERY);
    let probed = tr.span("model.probed_run", "", || {
        Simulator::new(&inp.topo, &inp.routes, sim_cfg).run_synthetic_probed(
            &matrix,
            cfg.warmup,
            cfg.measure,
            seed,
            &mut sampler,
        )
    });
    checks.push(Check::synthetic_run("direct", &probed));
    let mut tally = ModelTally::default();
    let mut accepted = 0.0;
    if let Ok(s) = &probed {
        tally.add(s, &sampler);
        accepted = s.accepted_throughput(inp.topo.num_nodes(), cfg.measure);
    }
    tally.report(m, accepted);

    // Snapshot layer on the post-warm-up state of that point.
    let paused = Simulator::new(&inp.topo, &inp.routes, sim_cfg).run_synthetic_until(
        &matrix,
        cfg.warmup,
        cfg.measure,
        seed,
        cfg.warmup,
    );
    checks.push(match paused {
        Ok(hyppi_netsim::RunOutcome::Paused(snap)) => {
            snapshot_probe(inp, sim_cfg, &snap, tr, m);
            Check::of("snapshot", 1, Ok(digest(&snap.bytes())))
        }
        other => {
            for name in SNAPSHOT_METRICS {
                m.set(name, 0.0);
            }
            let why = match other {
                Err(e) => e.to_string(),
                _ => "run ended before warm-up".into(),
            };
            Check::of("snapshot", 1, Err(why))
        }
    });
    m.set("sweep.grid_s", tr.total_s("sweep.grid", None));
    m.set("sweep.saturation_s", tr.total_s("sweep.saturation", None));
    checks
}

const SNAPSHOT_METRICS: [&str; 4] = [
    "snapshot.save_us",
    "snapshot.decode_us",
    "snapshot.restore_us",
    "snapshot.bytes",
];

/// Repetitions of each snapshot operation; the median is reported.
const SNAPSHOT_REPS: usize = 21;

fn snapshot_probe(
    inp: &SweepInputs,
    sim_cfg: SimConfig,
    snap: &Snapshot,
    tr: &Tracer,
    m: &mut Metrics,
) {
    tr.span("snapshot.probe", "", || {
        let (mut save, mut decode, mut restore) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..SNAPSHOT_REPS {
            let t = Instant::now();
            let decoded =
                Snapshot::from_bytes(snap.bytes().to_vec()).expect("own snapshot bytes decode");
            decode.push(t.elapsed().as_secs_f64());
            let fresh = Simulator::new(&inp.topo, &inp.routes, sim_cfg);
            let t = Instant::now();
            let sim = fresh.restore(&decoded).expect("own snapshot restores");
            restore.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let again = sim.snapshot(decoded.now());
            save.push(t.elapsed().as_secs_f64());
            std::hint::black_box(again);
        }
        m.set("snapshot.save_us", median(save) * 1e6);
        m.set("snapshot.decode_us", median(decode) * 1e6);
        m.set("snapshot.restore_us", median(restore) * 1e6);
        m.set("snapshot.bytes", snap.size_bytes() as f64);
    });
}

// ---- closed32_shard2 ----------------------------------------------------

/// Uniform load past the 32×32 mesh's saturation knee.
const CLOSED_RATE: f64 = 0.30;
/// Closed-loop NIC window (packets in flight per source).
const CLOSED_WINDOW: usize = 8;
const CLOSED_LABEL: &str = "uniform/32x32/closed";

pub struct ClosedInputs {
    topo: Topology,
    routes: RoutingTable,
    matrix: hyppi_traffic::TrafficMatrix,
    warmup: u64,
    measure: u64,
    seed: u64,
}

fn closed_cfg() -> SimConfig {
    let mut cfg = SimConfig::paper_closed_loop(CLOSED_WINDOW);
    cfg.max_cycles = 2_000_000;
    cfg
}

fn closed_inputs(size: Size, seed: u64, tr: &Tracer) -> ClosedInputs {
    let (side, warmup, measure) = match size {
        Size::Full => (32, 400, 1600),
        Size::Tiny => (8, 50, 200),
    };
    let topo = tr.span("topology.build", "", || {
        square_mesh(side, LinkTechnology::Electronic)
    });
    let routes = tr.span("topology.routes", "", || RoutingTable::compute_xy(&topo));
    let matrix = tr.span("traffic.gen", "", || {
        SyntheticPattern::Uniform.matrix(&topo, CLOSED_RATE)
    });
    ClosedInputs {
        topo,
        routes,
        matrix,
        warmup,
        measure,
        seed: mix(seed, 20),
    }
}

fn sharded<'a>(topo: &'a Topology, routes: &'a RoutingTable, nproc: usize) -> ShardedSimulator<'a> {
    ShardedSimulator::new(topo, routes, closed_cfg(), ShardSpec::for_count(SHARDS))
        .with_threads(SHARDS.min(nproc))
}

fn closed_rep(inp: &ClosedInputs, tr: &Tracer, t0: Instant, nproc: usize) -> Rep {
    let sim = tr.span("shard.construct", "", || {
        sharded(&inp.topo, &inp.routes, nproc)
    });
    let mut counts = Metrics::default();
    counts.set("shard.window", sim.lookahead() as f64);
    let setup_s = t0.elapsed().as_secs_f64();
    let (res, wall_s, cpu_s) = timed(|| {
        tr.span("shard.run", "", || {
            sim.run_synthetic(&inp.matrix, inp.warmup, inp.measure, inp.seed)
        })
    });
    set_topology_counts(&mut counts, &[&inp.topo]);
    let injected = res.as_ref().map_or(0, |s| s.flits_injected) as f64;
    counts.set("traffic.packets", injected);
    counts.set("traffic.flits", injected);
    Rep {
        setup_s,
        wall_s,
        cpu_s,
        checks: vec![Check::synthetic_run(CLOSED_LABEL, &res)],
        counts,
    }
}

fn closed_oracle(inp: &ClosedInputs, tr: &Tracer) -> Vec<Check> {
    let sim = tr.span("sim.construct", "", || {
        Simulator::new(&inp.topo, &inp.routes, closed_cfg())
    });
    let res = tr.span("sim.run", "", || {
        sim.run_synthetic(&inp.matrix, inp.warmup, inp.measure, inp.seed)
    });
    vec![Check::synthetic_run(CLOSED_LABEL, &res)]
}

fn closed_layers(inp: &ClosedInputs, tr: &Tracer, m: &mut Metrics, nproc: usize) -> Vec<Check> {
    let profiled = tr.span("shard.profiled_run", "", || {
        sharded(&inp.topo, &inp.routes, nproc).run_synthetic_profiled(
            &inp.matrix,
            inp.warmup,
            inp.measure,
            inp.seed,
        )
    });
    let (res, profile) = match profiled {
        Ok((s, p)) => (Ok(s), Some(p)),
        Err(e) => (Err(e), None),
    };
    let mut checks = vec![Check::synthetic_run(CLOSED_LABEL, &res)];
    let p = profile.unwrap_or(EngineProfile {
        step_ns: 0,
        exchange_ns: 0,
        barrier_ns: 0,
        supersteps: 0,
        workers: 0,
    });
    m.set("shard.workers", p.workers as f64);
    m.set("shard.supersteps", p.supersteps as f64);
    m.set("shard.step_s", p.step_ns as f64 * 1e-9);
    m.set("shard.exchange_s", p.exchange_ns as f64 * 1e-9);
    m.set("shard.barrier_s", p.barrier_ns as f64 * 1e-9);
    m.set("shard.barrier_frac", p.fraction(p.barrier_ns));

    let mut sampler = MetricsSampler::new(SAMPLE_EVERY);
    let res = tr.span("model.probed_run", "", || {
        sharded(&inp.topo, &inp.routes, nproc).run_synthetic_probed(
            &inp.matrix,
            inp.warmup,
            inp.measure,
            inp.seed,
            &mut sampler,
        )
    });
    checks.push(Check::synthetic_run(CLOSED_LABEL, &res));
    let mut tally = ModelTally::default();
    let mut accepted = 0.0;
    if let Ok(stats) = &res {
        tally.add(stats, &sampler);
        accepted = stats.accepted_throughput(inp.topo.num_nodes(), inp.measure);
    }
    tally.report(m, accepted);
    m.set("shard.mailbox_flits", tally.mailbox_flits as f64);
    m.set("shard.mailbox_credits", tally.mailbox_credits as f64);

    // The oracle's P=1 run is the `sim.*` sample and the speedup base.
    report_sim(m, tr, tally.flit_hops, tally.cycles);
    m.set("shard.construct_s", tr.total_s("shard.construct", None));
    let p1 = tr.total_s("sim.run", None);
    m.set("shard.p1_run_s", p1);
    m.set("shard.speedup_vs_p1", p1 / tr.total_s("shard.run", None));
    checks
}

// ---- dispatch -------------------------------------------------------------

/// A workload's inputs (topologies, routes, traffic), built during set-up
/// and kept after the timed phase for the oracle and layer probes.
// A process holds one at a time, so the variants' size spread costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Inputs {
    Npb(NpbInputs),
    Sweep(SweepInputs),
    Closed(ClosedInputs),
}

/// A configured workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub size: Size,
    pub seed: u64,
    pub nproc: usize,
}

impl Workload {
    /// One repetition: set-up, then the timed phase. Returns the inputs
    /// for the oracle and layer probes.
    pub fn rep(&self, tr: &Tracer) -> (Rep, Inputs) {
        let t0 = Instant::now();
        match self.kind {
            Kind::Npb16P1 => {
                let inp = npb_inputs(self.size, tr);
                (npb_rep(&inp, tr, t0), Inputs::Npb(inp))
            }
            Kind::Sweep16Uniform => {
                let inp = sweep_inputs(self.size, self.seed, tr);
                (sweep_rep(&inp, tr, t0), Inputs::Sweep(inp))
            }
            Kind::Closed32Shard2 => {
                let inp = closed_inputs(self.size, self.seed, tr);
                (closed_rep(&inp, tr, t0, self.nproc), Inputs::Closed(inp))
            }
        }
    }

    /// The workload's oracle, run outside the timed phase. Its checks
    /// carry the labels of the outputs they must equal.
    pub fn oracle(&self, inp: &Inputs, tr: &Tracer) -> Vec<Check> {
        match inp {
            Inputs::Npb(i) => npb_oracle(i, tr),
            Inputs::Sweep(i) => sweep_oracle(i, tr),
            Inputs::Closed(i) => closed_oracle(i, tr),
        }
    }

    /// Traced-run layer probes beyond the repetition's own spans. `tr`
    /// must hold the spans of the last repetition and of the oracle.
    pub fn layers(&self, inp: &Inputs, tr: &Tracer, m: &mut Metrics) -> Vec<Check> {
        match inp {
            Inputs::Npb(i) => npb_layers(i, tr, m),
            Inputs::Sweep(i) => sweep_layers(i, tr, m),
            Inputs::Closed(i) => closed_layers(i, tr, m, self.nproc),
        }
    }
}
