//! Fig. 3 — link-level CLEAR vs length for all four technologies.

use crate::link_clear::{fig3_lengths, link_clear_sweep, LinkClearPoint};
use crate::table::{eng, TextTable};
use hyppi_phys::{LinkTechnology, Micrometers};

/// The Fig. 3 dataset: one CLEAR series per technology.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// All evaluated points (4 technologies × length grid).
    pub points: Vec<LinkClearPoint>,
}

impl Fig3Result {
    /// The best technology at the grid point closest to `length`.
    pub fn winner_at(&self, length: Micrometers) -> LinkTechnology {
        let closest = self
            .points
            .iter()
            .map(|p| p.length_um)
            .min_by(|a, b| {
                (a.ln() - length.value().ln())
                    .abs()
                    .total_cmp(&(b.ln() - length.value().ln()).abs())
            })
            .expect("sweep is nonempty");
        self.points
            .iter()
            .filter(|p| p.length_um == closest)
            .max_by(|a, b| a.clear.total_cmp(&b.clear))
            .expect("all technologies evaluated at each grid point")
            .tech
    }

    /// Renders a digest table at representative lengths.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "Length",
            "Electronic",
            "Photonic",
            "Plasmonic",
            "HyPPI",
            "Winner",
        ]);
        for &(label, um) in &[
            ("10 um", 10.0),
            ("100 um", 100.0),
            ("1 mm", 1000.0),
            ("10 mm", 10_000.0),
            ("50 mm", 50_000.0),
        ] {
            let clear_of = |tech| {
                self.points
                    .iter()
                    .find(|p| p.tech == tech && (p.length_um - um).abs() / um < 0.13)
                    .map(|p| eng(p.clear))
                    .unwrap_or_else(|| "-".into())
            };
            let grid_len = self
                .points
                .iter()
                .map(|p| p.length_um)
                .find(|l| (l - um).abs() / um < 0.13)
                .unwrap_or(um);
            t.row(vec![
                label.to_string(),
                clear_of(LinkTechnology::Electronic),
                clear_of(LinkTechnology::Photonic),
                clear_of(LinkTechnology::Plasmonic),
                clear_of(LinkTechnology::Hyppi),
                self.winner_at(Micrometers::new(grid_len)).to_string(),
            ]);
        }
        t
    }
}

/// Runs the Fig. 3 sweep on the default length grid.
pub fn fig3() -> Fig3Result {
    Fig3Result {
        points: link_clear_sweep(&fig3_lengths()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_crossover_story() {
        let r = fig3();
        // Electronics short, HyPPI mid, photonics long.
        assert_eq!(
            r.winner_at(Micrometers::new(10.0)),
            LinkTechnology::Electronic
        );
        assert_eq!(
            r.winner_at(Micrometers::from_mm(1.0)),
            LinkTechnology::Hyppi
        );
        assert_eq!(
            r.winner_at(Micrometers::from_cm(5.0)),
            LinkTechnology::Photonic
        );
    }

    #[test]
    fn digest_renders() {
        let s = fig3().render().render();
        assert!(s.contains("Winner"));
        assert!(s.contains("HyPPI"));
    }
}
