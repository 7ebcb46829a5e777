//! Dynamic-energy accounting for trace workloads (Table V).
//!
//! The paper (§IV): "we obtain the dynamic energy consumption per flit from
//! our modified DSENT, and use it to compute the total dynamic energy based
//! on the communication volume and the network paths taken by the flits."
//! On top of the per-flit charges, photonic links burn laser + thermal
//! dither power for the whole communication-active time of the application
//! (`hyppi-dsent::olink` documents this accounting and its calibration).

use crate::model::NocModel;
use hyppi_netsim::EnergyCounts;

/// Dynamic-energy breakdown for one workload on one network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// Per-flit router traversal energy, joules.
    pub router_j: f64,
    /// Per-flit link traversal energy, joules.
    pub link_j: f64,
    /// Time-based photonic active energy (CW lasers + dither), joules.
    pub optical_active_j: f64,
}

impl EnergyBreakdown {
    /// Total dynamic energy, joules.
    pub fn total_j(&self) -> f64 {
        self.router_j + self.link_j + self.optical_active_j
    }
}

/// Computes the total dynamic energy of a workload from its activity
/// counts, per-flit energies and communication-active wall time.
pub fn dynamic_energy_joules(
    model: &NocModel,
    counts: &EnergyCounts,
    comm_wall_seconds: f64,
) -> EnergyBreakdown {
    let mut link_fj = 0.0;
    for (i, &flits) in counts.link_flits.iter().enumerate() {
        link_fj += flits as f64 * model.link_dyn_fj(i);
    }
    let mut router_fj = 0.0;
    for (i, &flits) in counts.router_flits.iter().enumerate() {
        router_fj += flits as f64 * model.router_dyn_fj(i);
    }
    EnergyBreakdown {
        router_j: router_fj * 1e-15,
        link_j: link_fj * 1e-15,
        optical_active_j: model.active_power_w() * comm_wall_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyppi_phys::LinkTechnology;
    use hyppi_topology::{express_mesh, mesh, ExpressSpec, MeshSpec};
    use hyppi_traffic::{NpbKernel, NpbTraceSpec};

    fn counts_for(model: &NocModel, kernel: NpbKernel) -> (EnergyCounts, f64) {
        let spec = NpbTraceSpec::paper(kernel);
        let vol = spec.volume();
        (
            EnergyCounts::from_volume(&model.topo, &model.routes, &vol),
            vol.comm_wall_seconds,
        )
    }

    #[test]
    fn anchor_ft_dynamic_energy_on_electronic_mesh() {
        // Paper Table V footnote: plain electronic mesh, FT ⇒ 0.0042 J.
        let model = NocModel::new(mesh(MeshSpec::paper(LinkTechnology::Electronic)));
        let (counts, wall) = counts_for(&model, NpbKernel::Ft);
        let e = dynamic_energy_joules(&model, &counts, wall);
        assert_eq!(e.optical_active_j, 0.0);
        let total = e.total_j();
        assert!(
            (0.0025..0.0065).contains(&total),
            "FT plain-mesh dynamic energy {total} J (paper: 0.0042 J)"
        );
    }

    #[test]
    fn anchor_photonic_express_ft_energy() {
        // Paper Table V: photonic express links push FT dynamic energy to
        // ≈0.9353 J at every span (≈200× electronic) — dominated by the
        // time-based laser/tuning charge, which is span-invariant because
        // the total express waveguide length is 480 mm for all three spans.
        for span in [3u16, 5, 15] {
            let model = NocModel::new(express_mesh(
                MeshSpec::paper(LinkTechnology::Electronic),
                ExpressSpec {
                    span,
                    tech: LinkTechnology::Photonic,
                },
            ));
            let (counts, wall) = counts_for(&model, NpbKernel::Ft);
            let e = dynamic_energy_joules(&model, &counts, wall);
            assert!(
                (e.total_j() - 0.9353).abs() / 0.9353 < 0.1,
                "span {span}: {} J",
                e.total_j()
            );
        }
    }

    #[test]
    fn hyppi_express_ft_energy_is_barely_above_electronic() {
        // Paper Table V: HyPPI express ⇒ 0.0049 J vs 0.0042 J plain.
        let plain = NocModel::new(mesh(MeshSpec::paper(LinkTechnology::Electronic)));
        let (pc, pw) = counts_for(&plain, NpbKernel::Ft);
        let base = dynamic_energy_joules(&plain, &pc, pw).total_j();
        for span in [3u16, 5, 15] {
            let model = NocModel::new(express_mesh(
                MeshSpec::paper(LinkTechnology::Electronic),
                ExpressSpec {
                    span,
                    tech: LinkTechnology::Hyppi,
                },
            ));
            let (counts, wall) = counts_for(&model, NpbKernel::Ft);
            let e = dynamic_energy_joules(&model, &counts, wall).total_j();
            assert!(
                e < 1.6 * base,
                "span {span}: HyPPI {e} J should stay near electronic {base} J"
            );
            assert!(e > 0.5 * base);
        }
    }

    #[test]
    fn electronic_express_energy_grows_with_span() {
        // Paper Table V: electronic express dynamic energy rises with span
        // (longer wires per crossing): 0.0054 → 0.0066 → 0.0128 J.
        let mut prev = 0.0;
        for span in [3u16, 5, 15] {
            let model = NocModel::new(express_mesh(
                MeshSpec::paper(LinkTechnology::Electronic),
                ExpressSpec {
                    span,
                    tech: LinkTechnology::Electronic,
                },
            ));
            let (counts, wall) = counts_for(&model, NpbKernel::Ft);
            let e = dynamic_energy_joules(&model, &counts, wall).total_j();
            assert!(e > prev, "span {span}: {e} J not increasing");
            prev = e;
        }
    }
}
