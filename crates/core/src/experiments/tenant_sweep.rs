//! Tenant interference sweep — a victim tenant's tail latency versus a
//! neighbour tenant's offered load.
//!
//! Two tenants share one mesh on disjoint rectangular tiles
//! (`hyppi_traffic::TenantSpec`, a 2×1 vertical split): tenant A (the
//! *victim*) runs the rescaled CG program shape at a fixed moderate
//! load, tenant B (the *aggressor*) runs uniform traffic whose rate is
//! swept. All traffic is tile-internal, so any movement in A's p99 /
//! p99.9 as B's load rises is pure interference — contention on
//! routers and links near the tile seam. The driver quantifies it on
//! the 32×32 and 64×64 meshes, open- and closed-loop, through the
//! sharded engine; per-tenant lanes come from
//! `hyppi_netsim::LoadPoint::tenants` (bit-for-bit identical across
//! engines and shard counts — the parity suites pin multi-tenant cells
//! end to end).
//!
//! `repro tenant_sweep [--shards N] [--json PATH]` regenerates the
//! dataset; [`TenantSweepResult::to_json`] emits it through the shared
//! `hyppi_netsim::json` writer.

use crate::table::TextTable;
use hyppi_netsim::{LoadPoint, SimConfig, SweepConfig, SweepRunner};
use hyppi_phys::{Gbps, LinkTechnology};
use hyppi_topology::{mesh, MeshSpec, RoutingTable, Topology};
use hyppi_traffic::{NpbKernel, SyntheticPattern, TenantSpec, TenantWorkload};

/// The victim tenant's fixed offered load (flits per tile node per
/// cycle) — moderate, so its tails have headroom to degrade.
pub const VICTIM_RATE: f64 = 0.08;

/// The aggressor tenant's swept offered loads.
pub const AGGRESSOR_RATES: [f64; 4] = [0.02, 0.06, 0.10, 0.14];

/// Closed-loop NIC window of the closed-loop companion curves (matches
/// [`super::load_sweep::CLOSED_LOOP_WINDOW`]).
pub const TENANT_CLOSED_LOOP_WINDOW: usize = 32;

/// One interference curve: the victim/aggressor layout on one mesh and
/// injection mode, measured over the aggressor's rate grid.
#[derive(Debug, Clone)]
pub struct TenantSweepCurve {
    /// Mesh + injection-mode label, e.g. `"mesh32 closed-loop"`.
    pub label: String,
    /// The layout at the first grid point ([`TenantSpec::name`]).
    pub spec: String,
    /// The aggressor rates, in sweep order (one per point).
    pub aggressor_rates: Vec<f64>,
    /// One merged point per aggressor rate; `points[i].tenants[0]` is
    /// the victim lane, `[1]` the aggressor lane.
    pub points: Vec<LoadPoint>,
}

/// The tenant-interference dataset.
#[derive(Debug, Clone)]
pub struct TenantSweepResult {
    /// All swept curves.
    pub curves: Vec<TenantSweepCurve>,
}

impl TenantSweepResult {
    /// Looks up one curve by label.
    pub fn curve(&self, label: &str) -> &TenantSweepCurve {
        self.curves
            .iter()
            .find(|c| c.label == label)
            .expect("curve was swept")
    }

    /// One interference table per curve: the victim's mean and tail
    /// latencies as the aggressor's offered load rises.
    pub fn curve_table(curve: &TenantSweepCurve) -> TextTable {
        let mut t = TextTable::new(vec![
            "aggressor offered",
            "victim mean",
            "victim p50",
            "victim p99",
            "victim p99.9",
            "victim accepted",
            "aggressor accepted",
        ]);
        for (rate, p) in curve.aggressor_rates.iter().zip(&curve.points) {
            let (v, a) = (&p.tenants[0], &p.tenants[1]);
            t.row(vec![
                format!("{rate:.3}"),
                format!("{:.2}", v.latency.mean()),
                format!("{}", v.latency.p50()),
                format!("{}", v.latency.p99()),
                format!("{}", v.latency.p999()),
                format!("{:.3}", v.accepted),
                format!("{:.3}", a.accepted),
            ]);
        }
        t
    }

    /// Renders every curve.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.curves {
            out.push_str(&format!("### {} — {}\n", c.label, c.spec));
            out.push_str(&Self::curve_table(c).render());
            out.push('\n');
        }
        out
    }

    /// Renders the dataset as plot-ready JSON via the shared
    /// [`hyppi_netsim::json`] writer: one object per curve, one point
    /// per aggressor rate with both tenants' latency tails and accepted
    /// throughputs alongside the aggregate columns.
    pub fn to_json(&self) -> String {
        use hyppi_netsim::json::{Json, Obj};
        let curves = self
            .curves
            .iter()
            .map(|c| {
                Obj::new()
                    .field("label", c.label.as_str())
                    .field("spec", c.spec.as_str())
                    .field(
                        "points",
                        c.aggressor_rates
                            .iter()
                            .zip(&c.points)
                            .map(|(&rate, p)| {
                                let lanes = p
                                    .tenants
                                    .iter()
                                    .enumerate()
                                    .map(|(k, t)| {
                                        Obj::new()
                                            .field("tenant", k as u64)
                                            .field("mean_latency", Json::fixed(t.latency.mean(), 4))
                                            .field("p50", t.latency.p50())
                                            .field("p99", t.latency.p99())
                                            .field("p999", t.latency.p999())
                                            .field("packets", t.latency.count)
                                            .field("throughput", Json::fixed(t.throughput, 4))
                                            .field("accepted", Json::fixed(t.accepted, 4))
                                            .build()
                                    })
                                    .collect::<Vec<Json>>();
                                Obj::new()
                                    .field("aggressor_offered", Json::fixed(rate, 4))
                                    .field("offered", Json::fixed(p.offered, 4))
                                    .field("accepted", Json::fixed(p.accepted, 4))
                                    .field("mean_latency", Json::fixed(p.mean_latency(), 4))
                                    .field("p99", p.latency.p99())
                                    .field("p999", p.latency.p999())
                                    .field("stable", p.stable)
                                    .field("tenants", lanes)
                                    .build()
                            })
                            .collect::<Vec<Json>>(),
                    )
                    .build()
            })
            .collect::<Vec<Json>>();
        Obj::new().field("curves", curves).build().render()
    }
}

/// Sweeps one tenant layout on one topology: tenant `swept`'s rate runs
/// over `rates` while every other tenant holds its configured load.
/// Warm-started like every sweep (the layout's map is rate-independent,
/// so one anchor per seed serves the whole grid).
pub fn tenant_curve(
    topo: &Topology,
    label: &str,
    spec: &TenantSpec,
    swept: usize,
    cfg: &SweepConfig,
    rates: &[f64],
) -> TenantSweepCurve {
    let routes = RoutingTable::compute_xy(topo);
    let runner = SweepRunner::new(
        topo,
        &routes,
        SimConfig::paper(),
        cfg.clone().with_tenants(spec.clone()),
    );
    let gen = |r: f64| spec.with_rate(swept, r).matrix(topo);
    TenantSweepCurve {
        label: label.into(),
        spec: spec.with_rate(swept, rates[0]).name(),
        aggressor_rates: rates.to_vec(),
        points: runner.run_grid(&gen, rates),
    }
}

/// The victim/aggressor pair of the headline curves: rescaled CG on the
/// left tile at [`VICTIM_RATE`], uniform on the right tile (rate swept).
/// The 2×1 split keeps each tile's dimensions multiples of 16, which
/// the rescaled NPB shapes require.
fn victim_aggressor_pair() -> TenantSpec {
    TenantSpec::pair(
        TenantWorkload {
            pattern: SyntheticPattern::NpbScaled(NpbKernel::Cg),
            rate: VICTIM_RATE,
        },
        TenantWorkload {
            pattern: SyntheticPattern::Uniform,
            rate: AGGRESSOR_RATES[0],
        },
    )
}

/// The 64×64 / 4096-node mesh of the scale-up curves.
fn mesh64() -> Topology {
    mesh(MeshSpec {
        width: 64,
        height: 64,
        core_spacing_mm: 1.0,
        base_tech: LinkTechnology::Electronic,
        capacity: Gbps::new(50.0),
    })
}

/// The full dataset: the CG-victim / uniform-aggressor pair on the
/// 32×32 and 64×64 meshes, open- and closed-loop, every run through the
/// sharded engine with `shards` shards. Interference reads directly off
/// each table: the victim's p99 / p99.9 columns versus the aggressor's
/// offered load. Deterministic and shard-count independent, like every
/// sweep in this crate.
pub fn tenant_sweep(shards: usize) -> TenantSweepResult {
    assert!(shards >= 1, "at least one shard required");
    let spec = victim_aggressor_pair();
    // Same scale-down as `load_sweep32`: shorter windows on the big
    // meshes, batch-level parallelism instead of per-run worker pools.
    let cfg32 = SweepConfig {
        warmup: 400,
        measure: 1500,
        threads: 1,
        ..SweepConfig::paper()
    }
    .with_shards(shards);
    // The 4096-node mesh is ~4× the per-cycle work again; one seed and
    // a shorter window keep the scale-up curve affordable.
    let cfg64 = SweepConfig {
        warmup: 300,
        measure: 1000,
        seeds: vec![11],
        threads: 1,
        ..SweepConfig::paper()
    }
    .with_shards(shards);
    let (m32, m64) = (super::npb::mesh32(), mesh64());
    let mut curves = Vec::new();
    for (topo, tag, cfg) in [(&m32, "mesh32", &cfg32), (&m64, "mesh64", &cfg64)] {
        curves.push(tenant_curve(topo, tag, &spec, 1, cfg, &AGGRESSOR_RATES));
        curves.push(tenant_curve(
            topo,
            &format!("{tag} closed-loop"),
            &spec,
            1,
            &cfg.clone().closed_loop(TENANT_CLOSED_LOOP_WINDOW),
            &AGGRESSOR_RATES,
        ));
    }
    TenantSweepResult { curves }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The full-size dataset is repro-only (minutes of runtime); the unit
    // tests pin the machinery on a small mesh.

    fn small_pair() -> TenantSpec {
        TenantSpec::pair(
            TenantWorkload {
                pattern: SyntheticPattern::Hotspot,
                rate: 0.06,
            },
            TenantWorkload {
                pattern: SyntheticPattern::Uniform,
                rate: 0.02,
            },
        )
    }

    #[test]
    fn small_tenant_curve_populates_lanes() {
        let topo = mesh(MeshSpec {
            width: 8,
            height: 8,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        });
        let rates = [0.02, 0.10];
        let c = tenant_curve(
            &topo,
            "8x8",
            &small_pair(),
            1,
            &SweepConfig::quick(),
            &rates,
        );
        assert_eq!(c.points.len(), 2);
        for p in &c.points {
            assert_eq!(p.tenants.len(), 2);
            // Lanes partition the aggregate exactly.
            let lane_packets: u64 = p.tenants.iter().map(|t| t.latency.count).sum();
            assert_eq!(lane_packets, p.latency.count);
            assert!(p.tenants[0].latency.count > 0);
            assert!(p.tenants[1].latency.count > 0);
        }
        // The victim holds its offered load while the aggressor's rises.
        let (lo, hi) = (&c.points[0], &c.points[1]);
        assert!(hi.tenants[1].throughput > lo.tenants[1].throughput);
        assert!((hi.tenants[0].throughput - lo.tenants[0].throughput).abs() < 0.02);
        let r = TenantSweepResult { curves: vec![c] };
        let rendered = r.render();
        assert!(rendered.contains("victim p99.9"));
        let j = r.to_json();
        assert!(j.contains("\"aggressor_offered\""));
        assert!(j.contains("\"tenants\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn sharded_tenant_curve_matches_unsharded() {
        let topo = mesh(MeshSpec {
            width: 6,
            height: 6,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        });
        let pair = TenantSpec::pair(
            TenantWorkload {
                pattern: SyntheticPattern::Uniform,
                rate: 0.05,
            },
            TenantWorkload {
                pattern: SyntheticPattern::Uniform,
                rate: 0.05,
            },
        );
        let rates = [0.04, 0.12];
        let single = tenant_curve(&topo, "6x6", &pair, 1, &SweepConfig::quick(), &rates);
        let sharded = tenant_curve(
            &topo,
            "6x6",
            &pair,
            1,
            &SweepConfig::quick().with_shards(4),
            &rates,
        );
        assert_eq!(single.points, sharded.points);
    }
}
