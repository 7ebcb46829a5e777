//! Fig. 8 + Table VI — the all-optical NoC projections.

use crate::table::TextTable;
use hyppi_optical::{all_optical_projection, OpticalRouterModel, RadarPoint};

/// The Fig. 8 dataset: three radar points plus normalized triangle areas.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// Electronic mesh, all-photonic, all-HyPPI.
    pub points: [RadarPoint; 3],
}

impl Fig8Result {
    /// Radar triangle areas, normalized so the electronic mesh spans the
    /// unit triangle ("the triangle that encloses smaller area is the
    /// better option").
    pub fn triangle_areas(&self) -> [f64; 3] {
        let reference = self.points[0];
        [
            self.points[0].triangle_area_vs(&reference),
            self.points[1].triangle_area_vs(&reference),
            self.points[2].triangle_area_vs(&reference),
        ]
    }

    /// Energy-efficiency ratio of the electronic mesh over all-HyPPI
    /// (the paper's conclusions quote ≈255×).
    pub fn electronic_over_hyppi_energy(&self) -> f64 {
        self.points[0].energy_per_bit_fj / self.points[2].energy_per_bit_fj
    }

    /// Renders the radar data.
    pub fn render(&self) -> TextTable {
        let areas = self.triangle_areas();
        let mut t = TextTable::new(vec![
            "Design",
            "Latency (clks)",
            "Energy (fJ/bit)",
            "Area (mm^2)",
            "Radar triangle",
        ]);
        for (p, a) in self.points.iter().zip(areas) {
            t.row(vec![
                p.design.name().to_string(),
                format!("{:.2}", p.latency_clks),
                format!("{:.1}", p.energy_per_bit_fj),
                format!("{:.2}", p.area_mm2),
                format!("{a:.4}"),
            ]);
        }
        t
    }
}

/// Runs the Fig. 8 projection.
pub fn fig8() -> Fig8Result {
    Fig8Result {
        points: all_optical_projection(),
    }
}

/// Renders Table VI: the WDM photonic vs HyPPI router comparison.
pub fn table6() -> TextTable {
    let mut t = TextTable::new(vec![
        "Technology",
        "Control energy (fJ/bit)",
        "Loss range (dB)",
        "Area (um^2)",
    ]);
    for r in [OpticalRouterModel::photonic(), OpticalRouterModel::hyppi()] {
        t.row(vec![
            r.technology.to_string(),
            format!("{}", r.control_energy.value()),
            format!("{}-{}", r.element_loss_min_db, r.element_loss_max_db),
            format!("{}", r.area.value()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hyppi_triangle_is_the_smallest() {
        let r = fig8();
        let [e, p, h] = r.triangle_areas();
        assert!(h < p && h < e, "triangles: e {e}, p {p}, h {h}");
    }

    #[test]
    fn energy_ratio_is_two_orders() {
        let r = fig8();
        let ratio = r.electronic_over_hyppi_energy();
        assert!((100.0..500.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn table6_renders_both_rows() {
        let s = table6().render();
        assert!(s.contains("68.2"));
        assert!(s.contains("3.73"));
        assert!(s.contains("480000"));
        assert!(s.contains("500"));
        assert!(s.contains("0.32-9.1"));
    }
}
