//! Fault sweep — degraded-link resilience vs. fault count.
//!
//! The robustness companion to [`mod@super::load_sweep`]: instead of sweeping
//! offered load on a healthy mesh, this driver sweeps the *fault count* —
//! for each count it draws K seeded random fault sets
//! ([`FaultSpec::sample`]: each chosen span dies or degrades with equal
//! probability), re-routes around them with the fault-avoiding up*/down*
//! table ([`RoutingTable::compute_xy_avoiding`]), and measures how the
//! saturation load and the tail latency at a fixed probe rate degrade.
//! Samples that disconnect the mesh are resampled with a fresh seed (the
//! `resamples` column records how many draws were skipped).
//!
//! Both injection modes run: open-loop (saturation = mean latency crossing
//! the 3× zero-load threshold) and closed-loop with credit-limited NICs
//! (saturation = accepted throughput falling off the offered load).
//! [`FaultSpec::sample`] never names dead routers, so every offered packet
//! has a live source and destination router — the closed-loop
//! accepted/offered criterion stays sound (admission drops from dead
//! endpoint routers would otherwise depress `accepted` and spuriously
//! trigger it). Degraded spans still drop *pairs* whose only routes died:
//! the `unreachable` column counts those admission drops, and `rerouted`
//! charges the extra hops of every detour against the healthy baseline.
//!
//! [`fault_sweep`] runs the paper's 16×16 mesh plus the 32×32 scale-up
//! (sharded engine, same methodology as [`super::load_sweep::load_sweep32`]);
//! `repro fault_sweep` regenerates it and `--json PATH` exports the
//! dataset through [`FaultSweepResult::to_json`] (shared
//! `hyppi_netsim::json` writer).

use crate::table::TextTable;
use hyppi_netsim::{SimConfig, SweepConfig, SweepRunner, TelemetryOpts};
use hyppi_phys::LinkTechnology;
use hyppi_topology::{mesh, FaultSpec, MeshSpec, RoutingTable, Topology};
use hyppi_traffic::SyntheticPattern;

use super::load_sweep::{CLOSED_LOOP_WINDOW, SWEEP_MAX_RATE};

/// Offered load probed for the per-cell latency tail (safely below even
/// the most degraded saturation knee of the swept fault counts).
pub const FAULT_PROBE_RATE: f64 = 0.05;

/// Fault counts swept on the 16×16 mesh.
pub const FAULT_COUNTS_16: [usize; 4] = [0, 2, 4, 8];

/// Fault counts swept on the 32×32 mesh (each cell is a full sharded
/// saturation search on 1024 nodes — the grid is coarser).
pub const FAULT_COUNTS_32: [usize; 3] = [0, 4, 8];

/// One measured fault set: a sampled spec, its saturation search and its
/// probe-rate latency/resilience counters.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepCell {
    /// Number of faulted spans in the sample.
    pub fault_count: usize,
    /// Sample seed that produced the (connected) fault set.
    pub seed: u64,
    /// Disconnecting draws skipped before this seed.
    pub resamples: u32,
    /// Dead spans in the accepted sample.
    pub dead_links: usize,
    /// Degraded spans in the accepted sample.
    pub degraded_spans: usize,
    /// Bisection-searched saturation load, flits per node per cycle.
    pub saturation_load: f64,
    /// Whether saturation was reached within the searched range.
    pub saturated_in_range: bool,
    /// Mean latency at [`FAULT_PROBE_RATE`], cycles.
    pub mean_latency: f64,
    /// p99 latency at the probe rate, cycles.
    pub p99: u64,
    /// p99.9 latency at the probe rate, cycles.
    pub p999: u64,
    /// Extra hops vs. the healthy baseline at the probe rate (summed over
    /// seeds).
    pub rerouted_hops: u64,
    /// Packets dropped at admission for lack of a route at the probe rate
    /// (summed over seeds).
    pub unreachable_pairs: u64,
}

/// One resilience curve: (mesh, injection mode) × fault-count grid.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepCurve {
    /// Mesh + injection-mode label, e.g. `"mesh16 open-loop"`.
    pub label: String,
    /// Offered load of the latency probe.
    pub probe_rate: f64,
    /// Measured fault sets, in fault-count order (K samples per count).
    pub cells: Vec<FaultSweepCell>,
}

impl FaultSweepCurve {
    /// Mean saturation load of one fault count's samples.
    pub fn mean_saturation(&self, fault_count: usize) -> f64 {
        let sats: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.fault_count == fault_count)
            .map(|c| c.saturation_load)
            .collect();
        sats.iter().sum::<f64>() / sats.len().max(1) as f64
    }
}

/// The fault-sweep dataset: one curve per (mesh, injection mode).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepResult {
    /// All swept curves.
    pub curves: Vec<FaultSweepCurve>,
}

impl FaultSweepResult {
    /// Looks up one curve by label.
    pub fn curve(&self, label: &str) -> &FaultSweepCurve {
        self.curves
            .iter()
            .find(|c| c.label == label)
            .expect("curve was swept")
    }

    /// One table per curve: every sampled fault set with its saturation
    /// load and probe-rate counters.
    pub fn curve_table(curve: &FaultSweepCurve) -> TextTable {
        let mut t = TextTable::new(vec![
            "faults",
            "seed",
            "dead",
            "degraded",
            "saturation",
            "mean",
            "p99",
            "p99.9",
            "rerouted",
            "unreachable",
        ]);
        for c in &curve.cells {
            let sat = if c.saturated_in_range {
                format!("{:.3}", c.saturation_load)
            } else {
                format!("> {:.3}", c.saturation_load)
            };
            t.row(vec![
                format!("{}", c.fault_count),
                format!("{}", c.seed),
                format!("{}", c.dead_links),
                format!("{}", c.degraded_spans),
                sat,
                format!("{:.2}", c.mean_latency),
                format!("{}", c.p99),
                format!("{}", c.p999),
                format!("{}", c.rerouted_hops),
                format!("{}", c.unreachable_pairs),
            ]);
        }
        t
    }

    /// The headline table: mean saturation load vs. fault count, one row
    /// per (curve, fault count).
    pub fn summary_table(&self) -> TextTable {
        let mut t = TextTable::new(vec!["curve", "faults", "mean saturation", "samples"]);
        for c in &self.curves {
            let mut counts: Vec<usize> = c.cells.iter().map(|x| x.fault_count).collect();
            counts.dedup();
            for fc in counts {
                let n = c.cells.iter().filter(|x| x.fault_count == fc).count();
                t.row(vec![
                    c.label.clone(),
                    format!("{fc}"),
                    format!("{:.3}", c.mean_saturation(fc)),
                    format!("{n}"),
                ]);
            }
        }
        t
    }

    /// Renders every curve plus the saturation-vs-fault-count summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.curves {
            out.push_str(&format!(
                "### {} (probe rate {:.3})\n",
                c.label, c.probe_rate
            ));
            out.push_str(&Self::curve_table(c).render());
            out.push('\n');
        }
        out.push_str("### Saturation vs. fault count\n");
        out.push_str(&self.summary_table().render());
        out
    }

    /// Renders the dataset as plot-ready JSON: one object per curve
    /// with its sampled cells plus the flattened saturation-vs-fault-count
    /// summary. Built on the shared [`hyppi_netsim::json`] writer, same
    /// pattern as [`super::load_sweep::LoadSweepResult::to_json`].
    pub fn to_json(&self) -> String {
        use hyppi_netsim::json::{Json, Obj};
        let curves = self
            .curves
            .iter()
            .map(|c| {
                Obj::new()
                    .field("label", c.label.as_str())
                    .field("probe_rate", Json::fixed(c.probe_rate, 4))
                    .field(
                        "cells",
                        c.cells
                            .iter()
                            .map(|x| {
                                Obj::new()
                                    .field("fault_count", x.fault_count)
                                    .field("seed", x.seed)
                                    .field("resamples", x.resamples)
                                    .field("dead_links", x.dead_links)
                                    .field("degraded_spans", x.degraded_spans)
                                    .field("saturation_load", Json::fixed(x.saturation_load, 4))
                                    .field("saturated_in_range", x.saturated_in_range)
                                    .field("mean_latency", Json::fixed(x.mean_latency, 4))
                                    .field("p99", x.p99)
                                    .field("p999", x.p999)
                                    .field("rerouted_hops", x.rerouted_hops)
                                    .field("unreachable_pairs", x.unreachable_pairs)
                                    .build()
                            })
                            .collect::<Vec<Json>>(),
                    )
                    .build()
            })
            .collect::<Vec<Json>>();
        let mut summary = Vec::new();
        for c in &self.curves {
            let mut counts: Vec<usize> = c.cells.iter().map(|x| x.fault_count).collect();
            counts.dedup();
            for fc in counts {
                summary.push(
                    Obj::new()
                        .field("curve", c.label.as_str())
                        .field("fault_count", fc)
                        .field(
                            "mean_saturation_load",
                            Json::fixed(c.mean_saturation(fc), 4),
                        )
                        .build(),
                );
            }
        }
        Obj::new()
            .field("curves", curves)
            .field("summary", summary)
            .build()
            .render()
    }
}

/// Draws a fault set of `count` spans that keeps the mesh routable,
/// resampling with a fresh (derived) seed whenever a draw disconnects the
/// live routers. Returns the spec, the seed that produced it, and how many
/// draws were skipped.
pub fn sample_connected(topo: &Topology, count: usize, seed: u64) -> (FaultSpec, u64, u32) {
    let mut s = seed;
    let mut resamples = 0u32;
    loop {
        let spec = FaultSpec::sample(topo, count, s);
        if spec.is_empty() || RoutingTable::compute_xy_avoiding(&spec.apply(topo)).is_ok() {
            return (spec, s, resamples);
        }
        resamples += 1;
        // Fresh deterministic seed: any odd-constant step works since
        // FaultSpec::sample hashes the seed through SplitMix64.
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        assert!(resamples < 64, "fault sampling kept disconnecting the mesh");
    }
}

/// Sweeps `counts` fault counts on one mesh, `samples` seeded draws per
/// count (uniform traffic). The same base seed grid makes the whole curve
/// reproducible bit-for-bit.
pub fn fault_curve(
    topo: &Topology,
    label: &str,
    counts: &[usize],
    samples: usize,
    probe_rate: f64,
    base_cfg: &SweepConfig,
) -> FaultSweepCurve {
    let routes = RoutingTable::compute_xy(topo);
    let mut cells = Vec::new();
    for &count in counts {
        // One sample suffices for the healthy anchor (count == 0).
        let draws = if count == 0 { 1 } else { samples };
        for draw in 0..draws {
            // Derived, deterministic per-(count, draw) base seed.
            let base_seed = 0xFA17_0000 + (count as u64) * 101 + draw as u64;
            let (spec, seed, resamples) = sample_connected(topo, count, base_seed);
            let dead_links = spec.dead_links.len();
            let degraded_spans = spec.degraded_spans.len();
            let cfg = if spec.is_empty() {
                base_cfg.clone()
            } else {
                base_cfg.clone().faults(spec)
            };
            let runner = SweepRunner::new(topo, &routes, SimConfig::paper(), cfg);
            let gen = |r: f64| SyntheticPattern::Uniform.matrix(topo, r);
            let sat = runner.find_saturation(&gen, SWEEP_MAX_RATE);
            let probe = runner.run_point(&gen(probe_rate));
            cells.push(FaultSweepCell {
                fault_count: count,
                seed,
                resamples,
                dead_links,
                degraded_spans,
                saturation_load: sat.saturation_load,
                saturated_in_range: sat.saturated_in_range,
                mean_latency: probe.mean_latency(),
                p99: probe.latency.p99(),
                p999: probe.latency.p999(),
                rerouted_hops: probe.rerouted_hops,
                unreachable_pairs: probe.unreachable_pairs,
            });
        }
    }
    FaultSweepCurve {
        label: label.to_string(),
        probe_rate,
        cells,
    }
}

/// Samples drawn per non-zero fault count on the 16×16 mesh.
pub const SAMPLES_16: usize = 3;

/// Samples drawn per non-zero fault count on the 32×32 mesh.
pub const SAMPLES_32: usize = 2;

/// The full resilience figure: saturation load and probe-rate tails vs.
/// fault count on the paper's 16×16 mesh and the 32×32 scale-up (sharded
/// engine), open- and closed-loop. Every fault set is seeded, so the whole
/// dataset is reproducible bit-for-bit.
///
/// `cold` (`repro fault_sweep --cold`) disables warm-start anchoring,
/// re-running the warm-up phase at every probed load.
pub fn fault_sweep(shards: usize, cold: bool) -> FaultSweepResult {
    let mut curves = Vec::new();
    let mesh16 = mesh(MeshSpec::paper(LinkTechnology::Electronic));
    let mut cfg16 = SweepConfig {
        // Fault cells are saturation searches; the load grid of the load
        // sweep is not re-probed here, so a coarser bisection keeps the
        // counts × samples × modes fan-out affordable.
        tolerance: 0.02,
        ..SweepConfig::paper()
    };
    if cold {
        cfg16 = cfg16.cold();
    }
    curves.push(fault_curve(
        &mesh16,
        "mesh16 open-loop",
        &FAULT_COUNTS_16,
        SAMPLES_16,
        FAULT_PROBE_RATE,
        &cfg16,
    ));
    curves.push(fault_curve(
        &mesh16,
        "mesh16 closed-loop",
        &FAULT_COUNTS_16,
        SAMPLES_16,
        FAULT_PROBE_RATE,
        &cfg16.clone().closed_loop(CLOSED_LOOP_WINDOW),
    ));
    let mesh32 = super::npb::mesh32();
    let mut cfg32 = SweepConfig {
        // Same scale-down as `load_sweep32`: shorter windows (the 1024-node
        // mesh measures ~4× the packets per cycle), batch-thread execution,
        // sharded runs.
        warmup: 400,
        measure: 1500,
        threads: 1,
        tolerance: 0.02,
        ..SweepConfig::paper()
    }
    .with_shards(shards);
    if cold {
        cfg32 = cfg32.cold();
    }
    curves.push(fault_curve(
        &mesh32,
        "mesh32 open-loop",
        &FAULT_COUNTS_32,
        SAMPLES_32,
        FAULT_PROBE_RATE,
        &cfg32,
    ));
    curves.push(fault_curve(
        &mesh32,
        "mesh32 closed-loop",
        &FAULT_COUNTS_32,
        SAMPLES_32,
        FAULT_PROBE_RATE,
        &cfg32.clone().closed_loop(CLOSED_LOOP_WINDOW),
    ));
    FaultSweepResult { curves }
}

/// [`fault_sweep`] plus flight-recorder output: when `telemetry`
/// requests `--metrics`/`--trace` artifacts, one representative cell —
/// a 2-fault 16×16 sample at the probe rate, re-routed around the
/// faults — re-runs with the probes attached
/// ([`SweepRunner::record_point`]; probes never perturb statistics) and
/// the recordings are written to the requested paths. Returns the
/// dataset plus the written paths.
pub fn fault_sweep_recorded(
    shards: usize,
    cold: bool,
    telemetry: &TelemetryOpts,
) -> std::io::Result<(FaultSweepResult, Vec<String>)> {
    let result = fault_sweep(shards, cold);
    let mut written = Vec::new();
    if telemetry.enabled() {
        let topo = mesh(MeshSpec::paper(LinkTechnology::Electronic));
        let routes = RoutingTable::compute_xy(&topo);
        let (spec, _, _) = sample_connected(&topo, 2, 0xFA17_0000 + 2 * 101);
        let cfg = SweepConfig::paper().faults(spec);
        let runner = SweepRunner::new(&topo, &routes, SimConfig::paper(), cfg);
        let mut rec = telemetry.recorder();
        let _ = runner.record_point(
            &SyntheticPattern::Uniform.matrix(&topo, FAULT_PROBE_RATE),
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

    // The full-size figure runs in the `repro` binary; the unit tests
    // exercise the machinery on a small mesh for speed.

    fn small_mesh() -> Topology {
        mesh(MeshSpec {
            width: 5,
            height: 5,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        })
    }

    #[test]
    fn sample_connected_is_deterministic_and_routable() {
        let topo = small_mesh();
        let (a, seed_a, _) = sample_connected(&topo, 4, 7);
        let (b, seed_b, _) = sample_connected(&topo, 4, 7);
        assert_eq!(seed_a, seed_b);
        assert_eq!(a.dead_links, b.dead_links);
        assert_eq!(a.degraded_spans, b.degraded_spans);
        assert_eq!(a.dead_links.len() + a.degraded_spans.len(), 4);
        assert!(a.dead_routers.is_empty(), "sample never kills routers");
        assert!(RoutingTable::compute_xy_avoiding(&a.apply(&topo)).is_ok());
    }

    #[test]
    fn fault_curve_degrades_with_fault_count() {
        let topo = small_mesh();
        let curve = fault_curve(
            &topo,
            "5x5 open-loop",
            &[0, 3],
            2,
            0.05,
            &SweepConfig::quick(),
        );
        // 1 healthy anchor + 2 faulted samples.
        assert_eq!(curve.cells.len(), 3);
        let healthy = &curve.cells[0];
        assert_eq!(healthy.fault_count, 0);
        assert_eq!(healthy.rerouted_hops, 0);
        assert_eq!(healthy.unreachable_pairs, 0);
        for c in &curve.cells[1..] {
            assert_eq!(c.fault_count, 3);
            assert_eq!(c.dead_links + c.degraded_spans, 3);
            // Detours only exist when at least one span died.
            if c.dead_links > 0 {
                assert!(c.rerouted_hops > 0, "dead spans must force detours");
            }
        }
        // Faults never raise the mean saturation load.
        assert!(curve.mean_saturation(3) <= curve.mean_saturation(0) + 0.05);
        let r = FaultSweepResult {
            curves: vec![curve],
        };
        let rendered = r.render();
        assert!(rendered.contains("Saturation vs. fault count"));
        assert!(rendered.contains("unreachable"));
    }

    #[test]
    fn json_export_is_structured_and_balanced() {
        let topo = small_mesh();
        let curve = fault_curve(
            &topo,
            "5x5 open-loop",
            &[0, 2],
            1,
            0.05,
            &SweepConfig::quick(),
        );
        let r = FaultSweepResult {
            curves: vec![curve],
        };
        let j = r.to_json();
        for key in [
            "\"curves\"",
            "\"label\": \"5x5 open-loop\"",
            "\"cells\"",
            "\"fault_count\"",
            "\"saturation_load\"",
            "\"rerouted_hops\"",
            "\"unreachable_pairs\"",
            "\"summary\"",
            "\"mean_saturation_load\"",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        // One healthy anchor + one faulted sample.
        assert_eq!(j.matches("\"fault_count\"").count(), 2 + 2);
    }
}
