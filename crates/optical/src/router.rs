//! Optical 5-port router models (Table VI).
//!
//! The loss a light path pays in an optical router depends on which input
//! and output port it uses ("The loss incurred by light propagating
//! through the router depends on the input and output port selected").
//!
//! * **HyPPI router** (paper Fig. 7; built from plasmonic MOS 2×2
//!   switches): dimension-through traversals are nearly lossless
//!   (0.32 dB); turns and ejection cost more; one unfavourable port pair
//!   reaches 9.1 dB, but the paper's optimal port assignment under X-Y
//!   routing avoids it ("we are able to use an optimal port assignment …
//!   to incur minimal losses").
//! * **Photonic MRR router** (8 rings realizing eight 2×2 switches): a
//!   *through* traversal passes every off-resonance ring and is the lossy
//!   direction (≈1.45 dB), while a drop turn exits early (0.39 dB) — hence
//!   Table VI's 0.39–1.5 dB range.

use hyppi_phys::{Decibels, Femtojoules, LinkTechnology, SquareMicrometers};

/// How a path uses a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortKind {
    /// Enter from the local source (E-O injection).
    Inject,
    /// Continue straight in the same dimension.
    Through,
    /// Turn from the X dimension into Y.
    Turn,
    /// Exit to the local destination (O-E ejection).
    Eject,
    /// The worst-case port pair (avoided by the optimal port assignment).
    WorstCase,
}

/// One optical router technology (a Table VI row).
///
/// The `losses` matrix gives per-traversal (port-pair) losses; Table VI's
/// "Loss Range" brackets them. The HyPPI worst-case port pair (9.1 dB) is
/// avoided by the paper's optimal port assignment under X-Y routing, so
/// X-Y traversals see only the low-loss pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpticalRouterModel {
    /// Which link technology the router belongs to.
    pub technology: LinkTechnology,
    /// Electrical control energy per routed bit.
    pub control_energy: Femtojoules,
    /// Router footprint.
    pub area: SquareMicrometers,
    /// Best-case port-pair loss (Table VI range lower bound).
    pub element_loss_min_db: f64,
    /// Worst-case port-pair loss (Table VI range upper bound).
    pub element_loss_max_db: f64,
    losses: [f64; 5],
}

impl OpticalRouterModel {
    /// The HyPPI router of the paper's Fig. 7 / Table VI.
    pub fn hyppi() -> Self {
        OpticalRouterModel {
            technology: LinkTechnology::Hyppi,
            control_energy: Femtojoules::new(3.73),
            area: SquareMicrometers::new(500.0),
            element_loss_min_db: 0.32,
            element_loss_max_db: 9.1,
            // inject, through, turn, eject, worst-case port pair
            losses: [0.5, 0.32, 0.5, 0.6, 9.1],
        }
    }

    /// The WDM photonic MRR router of Table VI ("uses 8 rings to realize
    /// the eight 2×2 switches"): a *through* traversal passes most of the
    /// off-resonance rings and is the lossy direction.
    pub fn photonic() -> Self {
        OpticalRouterModel {
            technology: LinkTechnology::Photonic,
            control_energy: Femtojoules::new(68.2),
            area: SquareMicrometers::new(480_000.0),
            element_loss_min_db: 0.39,
            element_loss_max_db: 1.5,
            losses: [0.5, 1.037, 0.8, 0.39, 1.5],
        }
    }

    /// Loss for a traversal kind.
    pub fn loss(&self, kind: PortKind) -> Decibels {
        let i = match kind {
            PortKind::Inject => 0,
            PortKind::Through => 1,
            PortKind::Turn => 2,
            PortKind::Eject => 3,
            PortKind::WorstCase => 4,
        };
        Decibels::new(self.losses[i])
    }

    /// Cheapest per-traversal loss across port pairs.
    pub fn min_loss(&self) -> Decibels {
        Decibels::new(self.losses.iter().cloned().fold(f64::MAX, f64::min))
    }

    /// Most expensive per-traversal loss across port pairs.
    pub fn max_loss(&self) -> Decibels {
        Decibels::new(self.losses.iter().cloned().fold(0.0, f64::max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_vi_hyppi_row() {
        let r = OpticalRouterModel::hyppi();
        assert_eq!(r.control_energy.value(), 3.73);
        assert_eq!(r.area.value(), 500.0);
        assert_eq!(r.element_loss_min_db, 0.32);
        assert_eq!(r.element_loss_max_db, 9.1);
        assert!((r.max_loss().value() - 9.1).abs() < 1e-12);
    }

    #[test]
    fn table_vi_photonic_row() {
        let r = OpticalRouterModel::photonic();
        assert_eq!(r.control_energy.value(), 68.2);
        assert_eq!(r.area.value(), 480_000.0);
        assert_eq!(r.element_loss_min_db, 0.39);
        assert_eq!(r.element_loss_max_db, 1.5);
        // The paper's headline: the photonic router is 960× larger.
        assert!((r.area / OpticalRouterModel::hyppi().area - 960.0).abs() < 1e-9);
    }

    #[test]
    fn hyppi_through_is_cheap_photonic_through_is_not() {
        let h = OpticalRouterModel::hyppi();
        let p = OpticalRouterModel::photonic();
        assert!(h.loss(PortKind::Through).value() < 1.0);
        // MRR through passes all off-resonance rings.
        assert!(p.loss(PortKind::Through) / h.loss(PortKind::Through) > 3.0);
    }

    #[test]
    fn worst_case_is_within_table_range() {
        for r in [OpticalRouterModel::hyppi(), OpticalRouterModel::photonic()] {
            for kind in [
                PortKind::Inject,
                PortKind::Through,
                PortKind::Turn,
                PortKind::Eject,
                PortKind::WorstCase,
            ] {
                let l = r.loss(kind);
                assert!(l >= r.min_loss() && l <= r.max_loss());
            }
        }
    }
}
