//! Load sweep — latency-throughput curves and saturation loads.
//!
//! The paper's headline network results are latency-vs-offered-load
//! curves; this driver reproduces that methodology on the paper's 16×16
//! mesh for the synthetic patterns (uniform, Soteriou, transpose), the
//! spatial shape of every NPB kernel, and the express-mesh topology
//! variants (spans 3, 5 and 15 — the full Fig. 2b family). Each curve
//! reports mean latency plus p50/p95/p99/p99.9 tails from the
//! simulator's log-linear histograms, accepted throughput, and the
//! bisection-searched saturation load (mean latency crossing
//! `sat_multiple ×` the zero-load latency — see `hyppi_netsim::sweep`).
//!
//! [`load_sweep32`] scales the methodology to a 32×32 mesh by routing
//! every run through the sharded engine
//! (`hyppi_netsim::ShardedSimulator`), and [`LoadSweepResult::to_json`]
//! emits the whole dataset — curves and saturation table — as plot-ready
//! JSON via the shared `hyppi_netsim::json` writer.

use crate::table::TextTable;
use hyppi_netsim::{LoadCurve, SimConfig, SweepConfig, SweepRunner, TelemetryOpts};
use hyppi_phys::LinkTechnology;
use hyppi_topology::{express_mesh, mesh, ExpressSpec, MeshSpec, RoutingTable, Topology};
use hyppi_traffic::{BurstSpec, NpbKernel, SyntheticPattern};

/// The default offered-load grid, flits per node per cycle (the paper
/// sweeps injection rates 0.01–0.1 for the analytic model; the
/// cycle-accurate mesh saturates well above that, so the grid extends to
/// the saturation knee).
pub const SWEEP_RATES: [f64; 7] = [0.02, 0.05, 0.08, 0.12, 0.16, 0.22, 0.30];

/// Upper bound of the saturation search, flits per node per cycle.
pub const SWEEP_MAX_RATE: f64 = 0.6;

/// The load-sweep dataset: one curve per (pattern, topology) pair.
#[derive(Debug, Clone)]
pub struct LoadSweepResult {
    /// All swept curves.
    pub curves: Vec<LoadCurve>,
}

impl LoadSweepResult {
    /// Looks up one curve by label.
    pub fn curve(&self, label: &str) -> &LoadCurve {
        self.curves
            .iter()
            .find(|c| c.label == label)
            .expect("curve was swept")
    }

    /// The saturation summary table. "Sustained accepted" is the highest
    /// in-window accepted throughput among grid points still below the
    /// saturation latency threshold. (Open-loop, only sub-threshold
    /// points measure sustainable operation; closed-loop, latency is
    /// window-bounded so every stable point qualifies and the plateau
    /// value itself is the sustained rate.)
    pub fn saturation_table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "Curve",
            "zero-load (clks)",
            "saturation (flits/node/clk)",
            "sustained accepted",
        ]);
        for c in &self.curves {
            let sustained = c
                .points
                .iter()
                .filter(|p| p.stable && p.mean_latency() <= c.saturation.threshold)
                .map(|p| p.accepted)
                .fold(0.0f64, f64::max);
            let sat = if c.saturation.saturated_in_range {
                format!("{:.3}", c.saturation.saturation_load)
            } else {
                format!("> {:.3}", c.saturation.saturation_load)
            };
            t.row(vec![
                c.label.clone(),
                format!("{:.2}", c.saturation.zero_load_latency),
                sat,
                format!("{sustained:.3}"),
            ]);
        }
        t
    }

    /// One latency-throughput table for a curve. "accepted" is the
    /// in-window accepted throughput (flattens at saturation under
    /// closed-loop injection); "measured" is the measured-packet
    /// throughput, which tracks offered load whenever runs complete.
    pub fn curve_table(curve: &LoadCurve) -> TextTable {
        let mut t = TextTable::new(vec![
            "offered", "accepted", "measured", "mean", "p50", "p95", "p99", "p99.9", "max", "state",
        ]);
        for p in &curve.points {
            t.row(vec![
                format!("{:.3}", p.offered),
                format!("{:.3}", p.accepted),
                format!("{:.3}", p.throughput),
                format!("{:.2}", p.mean_latency()),
                format!("{}", p.latency.p50()),
                format!("{}", p.latency.p95()),
                format!("{}", p.latency.p99()),
                format!("{}", p.latency.p999()),
                format!("{}", p.latency.max),
                if p.stable { "ok" } else { "overload" }.to_string(),
            ]);
        }
        t
    }

    /// Renders every curve plus the saturation summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.curves {
            out.push_str(&format!("### {}\n", c.label));
            out.push_str(&Self::curve_table(c).render());
            out.push('\n');
        }
        out.push_str("### Saturation summary\n");
        out.push_str(&self.saturation_table().render());
        out
    }

    /// Renders the dataset as plot-ready JSON: one object per curve
    /// with its grid points (offered/accepted load, mean and tail
    /// latencies, stability) and the saturation-search outcome, plus the
    /// flattened saturation table. Built on the shared
    /// [`hyppi_netsim::json`] writer.
    pub fn to_json(&self) -> String {
        use hyppi_netsim::json::{Json, Obj};
        let curves = self
            .curves
            .iter()
            .map(|c| {
                let s = &c.saturation;
                Obj::new()
                    .field("label", c.label.as_str())
                    .field(
                        "saturation",
                        Obj::new()
                            .field("zero_load_latency", Json::fixed(s.zero_load_latency, 4))
                            .field("threshold", Json::fixed(s.threshold, 4))
                            .field("saturation_load", Json::fixed(s.saturation_load, 4))
                            .field("last_stable_load", Json::fixed(s.last_stable_load, 4))
                            .field("saturated_in_range", s.saturated_in_range)
                            .field("runs", s.runs),
                    )
                    .field(
                        "points",
                        c.points
                            .iter()
                            .map(|p| {
                                Obj::new()
                                    .field("offered", Json::fixed(p.offered, 4))
                                    .field("accepted", Json::fixed(p.accepted, 4))
                                    .field("measured_throughput", Json::fixed(p.throughput, 4))
                                    .field("mean_latency", Json::fixed(p.mean_latency(), 4))
                                    .field("p50", p.latency.p50())
                                    .field("p95", p.latency.p95())
                                    .field("p99", p.latency.p99())
                                    .field("p999", p.latency.p999())
                                    .field("max", p.latency.max)
                                    .field("packets", p.latency.count)
                                    .field("cycles", p.cycles)
                                    .field("completed_runs", p.completed_runs)
                                    .field("stable", p.stable)
                                    .build()
                            })
                            .collect::<Vec<Json>>(),
                    )
                    .build()
            })
            .collect::<Vec<Json>>();
        let table = self
            .curves
            .iter()
            .map(|c| {
                let sustained = c
                    .points
                    .iter()
                    .filter(|p| p.stable && p.mean_latency() <= c.saturation.threshold)
                    .map(|p| p.accepted)
                    .fold(0.0f64, f64::max);
                Obj::new()
                    .field("curve", c.label.as_str())
                    .field(
                        "zero_load_latency",
                        Json::fixed(c.saturation.zero_load_latency, 4),
                    )
                    .field(
                        "saturation_load",
                        Json::fixed(c.saturation.saturation_load, 4),
                    )
                    .field("saturated_in_range", c.saturation.saturated_in_range)
                    .field("sustained_accepted", Json::fixed(sustained, 4))
                    .build()
            })
            .collect::<Vec<Json>>();
        Obj::new()
            .field("curves", curves)
            .field("saturation_table", table)
            .build()
            .render()
    }
}

/// Sweeps `patterns` on one topology, labelling curves
/// `"<pattern> <label>"`.
pub fn sweep_curves(
    topo: &Topology,
    label: &str,
    patterns: &[SyntheticPattern],
    cfg: &SweepConfig,
    rates: &[f64],
    max_rate: f64,
) -> Vec<LoadCurve> {
    let routes = RoutingTable::compute_xy(topo);
    let runner = SweepRunner::new(topo, &routes, SimConfig::paper(), cfg.clone());
    patterns
        .iter()
        .map(|p| {
            let gen = |r: f64| p.matrix(topo, r);
            runner.run_curve(format!("{p} {label}"), &gen, rates, max_rate)
        })
        .collect()
}

/// NIC window of the closed-loop companion curve: generous enough that
/// the network knee, not Little's law on the window, is the accepted-load
/// ceiling (window / network-RTT ≈ 32/90 ≈ 0.36 > the ≈0.247 uniform
/// saturation throughput).
pub const CLOSED_LOOP_WINDOW: usize = 32;

/// The full figure: synthetic patterns + per-kernel NPB shapes on the
/// paper's plain 16×16 mesh, plus the uniform pattern on every express
/// variant the paper studies (spans 3, 5 and 15 — the dateline VC
/// discipline and 2-cycle optical links shift each saturation knee
/// differently, and the saturation table covers all of them), plus a
/// **closed-loop** uniform curve whose accepted load flattens at the
/// saturation plateau instead of tracking offered load. Every underlying
/// run is deterministic, so the whole dataset is reproducible
/// bit-for-bit.
///
/// Sweeps are warm-started by default (one warm-up per pattern × seed,
/// snapshot-resumed per rate — see `docs/SNAPSHOT_FORMAT.md`); `cold`
/// (`repro load_sweep --cold`) re-runs the warm-up at every grid point.
///
/// `burst` (`repro load_sweep --burst SPEC`) modulates every run's
/// injection in time at the same mean load — [`BurstSpec::Steady`]
/// reproduces the plain Bernoulli dataset bit-for-bit; ON/OFF and MMPP
/// shapes stress the tails (curve labels gain the burst name).
pub fn load_sweep(cold: bool, burst: BurstSpec) -> LoadSweepResult {
    let mut cfg = SweepConfig::paper().burstiness(burst);
    if cold {
        cfg = cfg.cold();
    }
    let tag = burst_tag(burst);
    let plain = mesh(MeshSpec::paper(LinkTechnology::Electronic));
    let mut patterns = SyntheticPattern::DEFAULT_SWEEP.to_vec();
    patterns.extend(NpbKernel::ALL.map(SyntheticPattern::Npb));
    let mut curves = sweep_curves(
        &plain,
        &format!("mesh{tag}"),
        &patterns,
        &cfg,
        &SWEEP_RATES,
        SWEEP_MAX_RATE,
    );
    curves.extend(sweep_curves(
        &plain,
        &format!("mesh closed-loop{tag}"),
        &[SyntheticPattern::Uniform],
        &cfg.clone().closed_loop(CLOSED_LOOP_WINDOW),
        &SWEEP_RATES,
        SWEEP_MAX_RATE,
    ));
    for span in [3u16, 5, 15] {
        let xpress = express_mesh(
            MeshSpec::paper(LinkTechnology::Electronic),
            ExpressSpec {
                span,
                tech: LinkTechnology::Hyppi,
            },
        );
        curves.extend(sweep_curves(
            &xpress,
            &format!("express-x{span}{tag}"),
            &[SyntheticPattern::Uniform],
            &cfg,
            &SWEEP_RATES,
            SWEEP_MAX_RATE,
        ));
    }
    LoadSweepResult { curves }
}

/// Curve-label suffix of a burst process: empty for steady injection,
/// `" onoff-b4.0"`-style otherwise.
fn burst_tag(burst: BurstSpec) -> String {
    match burst {
        BurstSpec::Steady => String::new(),
        _ => format!(" {}", burst.name()),
    }
}

/// [`load_sweep`] plus flight-recorder output: when `telemetry` requests
/// `--metrics`/`--trace` artifacts, one representative cell — uniform
/// traffic on the paper's 16×16 mesh at the mid-grid rate — re-runs with
/// the probes attached ([`SweepRunner::record_point`]; probes never
/// perturb the statistics) and the recordings are written to the
/// requested paths. Returns the dataset plus the written paths.
pub fn load_sweep_recorded(
    cold: bool,
    burst: BurstSpec,
    telemetry: &TelemetryOpts,
) -> std::io::Result<(LoadSweepResult, Vec<String>)> {
    let result = load_sweep(cold, burst);
    let mut written = Vec::new();
    if telemetry.enabled() {
        let topo = mesh(MeshSpec::paper(LinkTechnology::Electronic));
        let routes = RoutingTable::compute_xy(&topo);
        let runner = SweepRunner::new(
            &topo,
            &routes,
            SimConfig::paper(),
            SweepConfig::paper().burstiness(burst),
        );
        let mut rec = telemetry.recorder();
        let probe_rate = SWEEP_RATES[SWEEP_RATES.len() / 2];
        let _ = runner.record_point(
            &SyntheticPattern::Uniform.matrix(&topo, probe_rate),
            &mut rec,
        );
        written = telemetry.write(&rec)?;
    }
    Ok((result, written))
}

/// The 32×32 scale-up: uniform and transpose latency-throughput curves
/// plus two *real-kernel* shapes — the rescaled 1024-rank CG and LU
/// programs (`hyppi_traffic::ScaledNpbSpec` via
/// `SyntheticPattern::NpbScaled`) — on a 1024-node mesh, each run
/// partitioned across `shards` shards of the parallel engine
/// (`hyppi_netsim::ShardedSimulator`). The serial engine could not sweep
/// this mesh in reasonable time; sharding opens it. Statistics are
/// bit-for-bit independent of the shard count, so the dataset is
/// reproducible on any host.
///
/// `closed_loop` switches every run to credit-limited NICs with that
/// per-source window ([`SweepConfig::closed_loop`] composed with the
/// `shards` knob — `repro load_sweep32 --closed-loop WINDOW`): latency
/// becomes window-bounded network latency and the accepted-load column
/// flattens at the 1024-node saturation plateau instead of tracking
/// offered load, which is what makes the large-mesh curves readable
/// past the knee.
///
/// `cold` (`repro load_sweep32 --cold`) disables warm-start anchoring,
/// re-running the warm-up phase at every grid point.
pub fn load_sweep32(
    shards: usize,
    closed_loop: Option<usize>,
    cold: bool,
    burst: BurstSpec,
) -> LoadSweepResult {
    let mut cfg = SweepConfig {
        // The 1024-node mesh is ~4× the per-cycle work of the paper mesh;
        // a slightly shorter window keeps the full sweep affordable while
        // measuring ~4× the packets per cycle.
        warmup: 400,
        measure: 1500,
        // The rate × seed fan-out of the batch runner already saturates
        // the host; keep each sharded run on its batch worker's thread
        // instead of oversubscribing with per-run worker pools (results
        // are bit-for-bit identical either way).
        threads: 1,
        ..SweepConfig::paper()
    }
    .with_shards(shards)
    .burstiness(burst);
    if cold {
        cfg = cfg.cold();
    }
    let label = match closed_loop {
        Some(window) => {
            cfg = cfg.closed_loop(window);
            "mesh32 closed-loop"
        }
        None => "mesh32",
    };
    let label = format!("{label}{}", burst_tag(burst));
    let topo = super::npb::mesh32();
    let curves = sweep_curves(
        &topo,
        &label,
        &[
            SyntheticPattern::Uniform,
            SyntheticPattern::Transpose,
            SyntheticPattern::NpbScaled(NpbKernel::Cg),
            SyntheticPattern::NpbScaled(NpbKernel::Lu),
        ],
        &cfg,
        &SWEEP_RATES,
        SWEEP_MAX_RATE,
    );
    LoadSweepResult { curves }
}

/// [`load_sweep32`] plus flight-recorder output, mirroring
/// [`load_sweep_recorded`]: the representative probed cell is uniform
/// traffic on the 1024-node mesh at the mid-grid rate, run through the
/// sharded engine (a probed run is single-worker — statistics are still
/// bit-for-bit those of the plain run).
pub fn load_sweep32_recorded(
    shards: usize,
    closed_loop: Option<usize>,
    cold: bool,
    burst: BurstSpec,
    telemetry: &TelemetryOpts,
) -> std::io::Result<(LoadSweepResult, Vec<String>)> {
    let result = load_sweep32(shards, closed_loop, cold, burst);
    let mut written = Vec::new();
    if telemetry.enabled() {
        let mut cfg = SweepConfig {
            warmup: 400,
            measure: 1500,
            threads: 1,
            ..SweepConfig::paper()
        }
        .with_shards(shards)
        .burstiness(burst);
        if let Some(window) = closed_loop {
            cfg = cfg.closed_loop(window);
        }
        let topo = super::npb::mesh32();
        let routes = RoutingTable::compute_xy(&topo);
        let runner = SweepRunner::new(&topo, &routes, SimConfig::paper(), cfg);
        let mut rec = telemetry.recorder();
        let probe_rate = SWEEP_RATES[SWEEP_RATES.len() / 2];
        let _ = runner.record_point(
            &SyntheticPattern::Uniform.matrix(&topo, probe_rate),
            &mut rec,
        );
        written = telemetry.write(&rec)?;
    }
    Ok((result, written))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyppi_phys::Gbps;

    // The full-size figure runs in the `repro` binary; the unit test
    // exercises the machinery on a small mesh for speed.

    #[test]
    fn small_sweep_produces_curves_and_tables() {
        let topo = mesh(MeshSpec {
            width: 5,
            height: 5,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        });
        let curves = sweep_curves(
            &topo,
            "5x5",
            &[SyntheticPattern::Uniform, SyntheticPattern::Complement],
            &SweepConfig::quick(),
            &[0.02, 0.15],
            0.8,
        );
        let r = LoadSweepResult { curves };
        assert_eq!(r.curves.len(), 2);
        let uni = r.curve("uniform 5x5");
        assert_eq!(uni.points.len(), 2);
        assert!(uni.points[0].mean_latency() > 0.0);
        // Tails are populated and ordered.
        let p = &uni.points[1];
        assert!(p.latency.p50() <= p.latency.p99());
        // Complement concentrates load through the center: it saturates
        // no later than uniform.
        let c = r.curve("complement 5x5");
        if uni.saturation.saturated_in_range && c.saturation.saturated_in_range {
            assert!(c.saturation.saturation_load <= uni.saturation.saturation_load + 0.05);
        }
        let rendered = r.render();
        assert!(rendered.contains("Saturation summary"));
        assert!(rendered.contains("p99"));
    }

    #[test]
    fn json_export_is_structured_and_balanced() {
        let topo = mesh(MeshSpec {
            width: 4,
            height: 4,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        });
        let curves = sweep_curves(
            &topo,
            "4x4",
            &[SyntheticPattern::Uniform],
            &SweepConfig::quick(),
            &[0.02, 0.10],
            0.8,
        );
        let r = LoadSweepResult { curves };
        let j = r.to_json();
        for key in [
            "\"curves\"",
            "\"label\": \"uniform 4x4\"",
            "\"saturation\"",
            "\"points\"",
            "\"offered\"",
            "\"p95\"",
            "\"p999\"",
            "\"saturation_table\"",
            "\"sustained_accepted\"",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
        // Balanced braces/brackets (a cheap well-formedness check; the
        // workspace has no JSON parser).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        // Two grid points per curve.
        assert_eq!(j.matches("\"offered\"").count(), 2);
    }

    #[test]
    fn sharded_small_sweep_matches_unsharded() {
        // The 32×32 driver is repro-only (minutes of runtime); pin its
        // machinery — sweep_curves through the sharded engine — on a
        // small mesh instead.
        let topo = mesh(MeshSpec {
            width: 6,
            height: 6,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        });
        let rates = [0.03, 0.12];
        let single = sweep_curves(
            &topo,
            "6x6",
            &[SyntheticPattern::Uniform],
            &SweepConfig::quick(),
            &rates,
            0.8,
        );
        let sharded = sweep_curves(
            &topo,
            "6x6",
            &[SyntheticPattern::Uniform],
            &SweepConfig::quick().with_shards(4),
            &rates,
            0.8,
        );
        assert_eq!(single, sharded);
    }

    #[test]
    fn closed_loop_composes_with_shards() {
        // The `repro load_sweep32 --closed-loop WINDOW` path runs
        // credit-limited NICs through the sharded engine; pin the
        // composition on a small mesh: bit-for-bit equal to unsharded
        // closed loop, and the accepted column is populated.
        let topo = mesh(MeshSpec {
            width: 6,
            height: 6,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        });
        let rates = [0.05, 0.30];
        let single = sweep_curves(
            &topo,
            "6x6",
            &[SyntheticPattern::Uniform],
            &SweepConfig::quick().closed_loop(8),
            &rates,
            0.8,
        );
        let sharded = sweep_curves(
            &topo,
            "6x6",
            &[SyntheticPattern::Uniform],
            &SweepConfig::quick().closed_loop(8).with_shards(4),
            &rates,
            0.8,
        );
        assert_eq!(single, sharded);
        assert!(sharded[0].points.iter().all(|p| p.accepted > 0.0));
    }
}
