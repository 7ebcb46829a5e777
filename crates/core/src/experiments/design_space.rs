//! Fig. 5 + Tables III and IV — the hybrid NoC design-space exploration.
//!
//! Thirty configurations: base mesh in {Electronic, Photonic, HyPPI} ×
//! express overlay in {none} ∪ ({Electronic, Photonic, HyPPI} × spans
//! {3, 5, 15}), each evaluated analytically under the paper's synthetic
//! traffic (p = 0.02, σ = 0.4, max injection 0.1). Pure plasmonics is
//! excluded at the network level, exactly as in the paper ("pure
//! plasmonics is not considered any further in our network level
//! explorations").

use crate::table::{eng, TextTable};
use hyppi_analytic::{parallel_map, NocEvaluation, NocModel};
use hyppi_phys::LinkTechnology;
use hyppi_topology::{express_mesh, mesh, ExpressSpec, MeshSpec};
use hyppi_traffic::SoteriouConfig;

/// Base-mesh technologies explored at the NoC level.
pub const BASE_TECHS: [LinkTechnology; 3] = [
    LinkTechnology::Electronic,
    LinkTechnology::Photonic,
    LinkTechnology::Hyppi,
];

/// Express spans explored (Fig. 2b; 15 ≈ 2-D torus).
pub const SPANS: [u16; 3] = [3, 5, 15];

/// One evaluated configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Base mesh technology.
    pub base: LinkTechnology,
    /// Express overlay, if any.
    pub express: Option<(LinkTechnology, u16)>,
    /// The full evaluation.
    pub eval: NocEvaluation,
}

impl DesignPoint {
    /// Short label used in tables ("E base + HyPPI x3").
    pub fn label(&self) -> String {
        match self.express {
            None => format!("{} base mesh", self.base),
            Some((t, s)) => format!("{} base + {} x{}", self.base, t, s),
        }
    }
}

/// The full Fig. 5 dataset.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// All 30 evaluated design points.
    pub points: Vec<DesignPoint>,
}

impl Fig5Result {
    /// Looks up one configuration.
    pub fn get(
        &self,
        base: LinkTechnology,
        express: Option<(LinkTechnology, u16)>,
    ) -> &DesignPoint {
        self.points
            .iter()
            .find(|p| p.base == base && p.express == express)
            .expect("configuration was evaluated")
    }

    /// CLEAR improvement of a hybrid over its plain base mesh.
    pub fn clear_gain(&self, base: LinkTechnology, express: (LinkTechnology, u16)) -> f64 {
        self.get(base, Some(express)).eval.clear / self.get(base, None).eval.clear
    }

    /// The paper's headline: best CLEAR gain for an electronic base mesh
    /// augmented with HyPPI express links (reported as up to 1.8×).
    pub fn headline_gain(&self) -> f64 {
        SPANS
            .iter()
            .map(|&s| self.clear_gain(LinkTechnology::Electronic, (LinkTechnology::Hyppi, s)))
            .fold(0.0, f64::max)
    }

    /// Renders the four panels (CLEAR, latency, power, area) as one table.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "Configuration",
            "CLEAR",
            "Latency (clks)",
            "Power (W)",
            "Area (mm^2)",
            "R",
        ]);
        for p in &self.points {
            t.row(vec![
                p.label(),
                eng(p.eval.clear),
                format!("{:.2}", p.eval.latency_clks),
                format!("{:.3}", p.eval.power_w),
                format!("{:.2}", p.eval.area_mm2),
                format!("{:.3}", p.eval.r_factor),
            ]);
        }
        t
    }
}

/// Builds and evaluates one configuration.
fn evaluate(base: LinkTechnology, express: Option<(LinkTechnology, u16)>) -> DesignPoint {
    let topo = match express {
        None => mesh(MeshSpec::paper(base)),
        Some((tech, span)) => express_mesh(MeshSpec::paper(base), ExpressSpec { span, tech }),
    };
    let model = NocModel::new(topo);
    let cfg = SoteriouConfig::paper();
    let traffic = cfg.matrix(&model.topo);
    DesignPoint {
        base,
        express,
        eval: model.evaluate(&traffic, cfg.max_injection_rate),
    }
}

/// Runs the full Fig. 5 exploration (parallel across configurations).
pub fn fig5() -> Fig5Result {
    let mut configs = Vec::new();
    for base in BASE_TECHS {
        configs.push((base, None));
        for tech in BASE_TECHS {
            for span in SPANS {
                configs.push((base, Some((tech, span))));
            }
        }
    }
    let points = parallel_map(configs, |(base, express)| evaluate(base, express));
    Fig5Result { points }
}

/// Table III: capability C and utilization-growth R per topology.
pub fn table3() -> TextTable {
    let cfg = SoteriouConfig::paper();
    let mut t = TextTable::new(vec!["Topology", "C (Gb/s)", "R"]);
    let mut add = |name: &str, express: Option<u16>| {
        let topo = match express {
            None => mesh(MeshSpec::paper(LinkTechnology::Electronic)),
            Some(span) => express_mesh(
                MeshSpec::paper(LinkTechnology::Electronic),
                ExpressSpec {
                    span,
                    tech: LinkTechnology::Hyppi,
                },
            ),
        };
        let model = NocModel::new(topo);
        let traffic = cfg.matrix(&model.topo);
        let eval = model.evaluate(&traffic, cfg.max_injection_rate);
        t.row(vec![
            name.to_string(),
            format!("{:.2}", eval.capability_gbps_per_node),
            format!("{:.3}", eval.r_factor),
        ]);
    };
    add("Express 3 hops", Some(3));
    add("Express 5 hops", Some(5));
    add("Express 15 hops", Some(15));
    add("Plain mesh", None);
    t
}

/// Table IV: total NoC static power, electronic base + express links of
/// each technology.
pub fn table4() -> TextTable {
    let mut t = TextTable::new(vec![
        "Express technology",
        "3 hops (W)",
        "5 hops (W)",
        "15 hops (W)",
    ]);
    for tech in BASE_TECHS {
        let mut cells = vec![tech.to_string()];
        for span in SPANS {
            let model = NocModel::new(express_mesh(
                MeshSpec::paper(LinkTechnology::Electronic),
                ExpressSpec { span, tech },
            ));
            cells.push(format!("{:.3}", model.static_power_w()));
        }
        t.row(cells);
    }
    let base = NocModel::new(mesh(MeshSpec::paper(LinkTechnology::Electronic)));
    t.row(vec![
        "(plain electronic mesh)".to_string(),
        format!("{:.3}", base.static_power_w()),
        String::new(),
        String::new(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_gain_near_paper() {
        // Paper: "augmenting an electronic mesh with HyPPI can give a CLEAR
        // improvement by up to 1.8× (for Express Hops = 3)".
        let r = fig5();
        let gain = r.headline_gain();
        assert!(
            (1.4..2.4).contains(&gain),
            "headline CLEAR gain {gain} (paper: 1.8)"
        );
        // And the maximum is at span 3.
        let g3 = r.clear_gain(LinkTechnology::Electronic, (LinkTechnology::Hyppi, 3));
        let g15 = r.clear_gain(LinkTechnology::Electronic, (LinkTechnology::Hyppi, 15));
        assert!(g3 > g15, "span 3 {g3} should beat span 15 {g15}");
    }

    #[test]
    fn photonic_express_is_worst_on_electronic_base() {
        // Paper: "Augmenting with photonics long links is the worst option
        // in terms of CLEAR, poorer than electronic long links."
        let r = fig5();
        for span in SPANS {
            let ph = r
                .get(
                    LinkTechnology::Electronic,
                    Some((LinkTechnology::Photonic, span)),
                )
                .eval
                .clear;
            let el = r
                .get(
                    LinkTechnology::Electronic,
                    Some((LinkTechnology::Electronic, span)),
                )
                .eval
                .clear;
            let hy = r
                .get(
                    LinkTechnology::Electronic,
                    Some((LinkTechnology::Hyppi, span)),
                )
                .eval
                .clear;
            assert!(ph < el, "span {span}: photonic {ph} vs electronic {el}");
            assert!(hy > el, "span {span}: HyPPI {hy} vs electronic {el}");
        }
    }

    #[test]
    fn photonic_express_improves_photonic_base() {
        // Paper: "a reverse trend is observed when we adopt photonics as
        // the base mesh: using photonics for long links improves CLEAR,
        // compared with adding electronic long links."
        let r = fig5();
        for span in SPANS {
            let ph = r
                .get(
                    LinkTechnology::Photonic,
                    Some((LinkTechnology::Photonic, span)),
                )
                .eval
                .clear;
            let el = r
                .get(
                    LinkTechnology::Photonic,
                    Some((LinkTechnology::Electronic, span)),
                )
                .eval
                .clear;
            assert!(ph > el, "span {span}: photonic {ph} vs electronic {el}");
        }
    }

    #[test]
    fn hyppi_base_mesh_has_best_clear() {
        // Paper: "In all cases, we note that HyPPI as the base mesh network
        // provides the best results in terms of CLEAR value."
        let r = fig5();
        let best_hyppi_base = r
            .points
            .iter()
            .filter(|p| p.base == LinkTechnology::Hyppi)
            .map(|p| p.eval.clear)
            .fold(0.0, f64::max);
        for base in [LinkTechnology::Electronic, LinkTechnology::Photonic] {
            let best = r
                .points
                .iter()
                .filter(|p| p.base == base)
                .map(|p| p.eval.clear)
                .fold(0.0, f64::max);
            assert!(best_hyppi_base > best, "{base} base beats HyPPI base");
        }
    }

    #[test]
    fn clear_decreases_with_span() {
        // Paper: "In all the plots, we notice that increasing the hop
        // length reduces CLEAR."
        let r = fig5();
        for base in BASE_TECHS {
            for tech in BASE_TECHS {
                let c3 = r.get(base, Some((tech, 3))).eval.clear;
                let c5 = r.get(base, Some((tech, 5))).eval.clear;
                let c15 = r.get(base, Some((tech, 15))).eval.clear;
                // Longer spans always lose to span 3/5; between spans 3
                // and 5 the photonic-express case can invert by ~1% in our
                // model (span 3 instantiates more photonic links, whose
                // static power almost exactly offsets the added capacity —
                // see the README's reproduction catalog).
                assert!(c3 > c15 && c5 > c15, "{base}+{tech}: {c3} {c5} {c15}");
                if tech != LinkTechnology::Photonic {
                    assert!(c3 > c5, "{base}+{tech}: {c3} {c5}");
                }
            }
        }
    }

    #[test]
    fn electronic_base_has_lowest_latency() {
        // Paper: "if the lowest latency is the target, then a base
        // electronic mesh is the better option."
        let r = fig5();
        let e = r.get(LinkTechnology::Electronic, None).eval.latency_clks;
        let h = r.get(LinkTechnology::Hyppi, None).eval.latency_clks;
        let p = r.get(LinkTechnology::Photonic, None).eval.latency_clks;
        assert!(e < h && e < p);
    }

    #[test]
    fn tables_render() {
        let t3 = table3().render();
        assert!(t3.contains("187.50"));
        assert!(t3.contains("218.75"));
        let t4 = table4().render();
        assert!(t4.contains("Photonic"));
    }
}
