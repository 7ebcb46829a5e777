//! Link-level CLEAR — equation 1 and Fig. 3.
//!
//! `CLEAR(link) = Capability / (Latency × Energy × Area)`, evaluated on
//! *bare point-to-point links* at their peak device rates ("our link-level
//! evaluations assumed the data rates listed in Table I, which gives the
//! peak device capability"). The paper notes relative values are what
//! matter, so no SI normalization is applied.
//!
//! Per-technology modeling choices (see `DESIGN.md`):
//!
//! * **Electronic**: a 64-wire repeated bus at the ITRS 14 nm node.
//! * **Photonic**: ring modulators and detectors; at the link level the
//!   paper's long-length photonic advantage requires WDM ("Photonics
//!   becomes suitable for lengths beyond 20 mm"), so the bare photonic
//!   link runs [`PHOTONIC_WDM_LANES`] wavelengths on one waveguide.
//! * **Plasmonic**: single lane; the 440 dB/cm ohmic loss kills it beyond
//!   a few tens of microns.
//! * **HyPPI**: single 2.1 Tb/s lane on an SOI waveguide.

use hyppi_phys::{
    electronic_wire_params, laser_power_mw, LinkTechnology, LossBudget, Micrometers,
    TechnologyParams,
};

/// Wavelength lanes assumed for the bare WDM photonic link.
pub const PHOTONIC_WDM_LANES: u32 = 16;

/// E-O / O-E conversion latency of a bare optical link, ps.
pub const BARE_CONVERSION_PS: f64 = 100.0;

/// One evaluated point of Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkClearPoint {
    /// Technology evaluated.
    pub tech: LinkTechnology,
    /// Link length.
    pub length_um: f64,
    /// Capability C, Gb/s.
    pub capability_gbps: f64,
    /// Point-to-point latency L, ps.
    pub latency_ps: f64,
    /// Energy per bit E, fJ/bit.
    pub energy_fj_per_bit: f64,
    /// Area A, µm².
    pub area_um2: f64,
    /// The composed figure of merit C / (L·E·A).
    pub clear: f64,
}

/// Evaluates equation 1 for one technology at one length.
pub fn link_clear_point(tech: LinkTechnology, length: Micrometers) -> LinkClearPoint {
    assert!(length.value() > 0.0, "link length must be positive");
    let (capability, latency, energy, area) = match tech {
        LinkTechnology::Electronic => electronic_bare_link(length),
        _ => optical_bare_link(tech, length),
    };
    LinkClearPoint {
        tech,
        length_um: length.value(),
        capability_gbps: capability,
        latency_ps: latency,
        energy_fj_per_bit: energy,
        area_um2: area,
        clear: capability / (latency * energy * area),
    }
}

/// Sweeps all four technologies over a set of lengths.
pub fn link_clear_sweep(lengths: &[Micrometers]) -> Vec<LinkClearPoint> {
    let mut out = Vec::with_capacity(lengths.len() * LinkTechnology::ALL.len());
    for &tech in &LinkTechnology::ALL {
        for &len in lengths {
            out.push(link_clear_point(tech, len));
        }
    }
    out
}

/// The default Fig. 3 length grid: 1 µm to 10 cm, log-spaced.
pub fn fig3_lengths() -> Vec<Micrometers> {
    (0..=50)
        .map(|i| Micrometers::new(10f64.powf(i as f64 / 10.0)))
        .collect()
}

fn electronic_bare_link(length: Micrometers) -> (f64, f64, f64, f64) {
    let p = electronic_wire_params();
    let mm = length.as_mm();
    let wires = f64::from(p.bus_width);
    let capability = p.rate_per_wire.value() * wires;
    // Short wires are RC-limited below the repeated-wire asymptote.
    let latency = (p.delay_ps_per_mm * mm).max(1.0);
    let energy = (p.energy_fj_per_bit_mm * mm).max(0.5);
    let area = wires * p.wire_pitch.value() * length.value();
    (capability, latency, energy, area)
}

fn optical_bare_link(tech: LinkTechnology, length: Micrometers) -> (f64, f64, f64, f64) {
    let params = TechnologyParams::for_technology(tech);
    let lanes = if tech == LinkTechnology::Photonic {
        PHOTONIC_WDM_LANES
    } else {
        1
    };
    let capability = params.modulator.peak_rate.value() * f64::from(lanes);

    let tof = length.value()
        * if tech == LinkTechnology::Plasmonic {
            hyppi_phys::constants::plasmonic_delay_ps_per_um()
        } else {
            hyppi_phys::constants::soi_delay_ps_per_um()
        };
    let latency = BARE_CONVERSION_PS + tof;

    let mut loss = LossBudget::new();
    loss.add("modulator insertion", params.modulator.insertion_loss)
        .add("coupling", params.waveguide.coupling_loss)
        .add_propagation(
            "waveguide",
            params.waveguide.propagation_loss_db_per_cm,
            length,
        );
    // Laser energy per bit is rate-independent (see hyppi-phys::loss), so
    // the per-lane rate cancels.
    let laser_per_bit = laser_power_mw(
        params.modulator.peak_rate,
        params.detector.responsivity_a_per_w,
        &loss,
        params.laser.efficiency,
    )
    .energy_per_bit(params.modulator.peak_rate);
    let energy = params.modulator.energy_per_bit.value()
        + params.detector.energy_per_bit.value()
        + laser_per_bit.value();

    let lanes_f = f64::from(lanes);
    // A bare point-to-point link occupies its waveguide *width* (pitch
    // only matters for parallel bundles, which the NoC-level model uses).
    let area = lanes_f * (params.modulator.area.value() + params.detector.area.value())
        + params.laser.area.value() * lanes_f.min(2.0)
        + params.waveguide.width.value() * length.value();
    (capability, latency, energy, area)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clear_at(tech: LinkTechnology, um: f64) -> f64 {
        link_clear_point(tech, Micrometers::new(um)).clear
    }

    #[test]
    fn electronics_wins_short_interconnects() {
        // Paper: "Electronics is best suited for short interconnects, both
        // logic level and intra-processor communication."
        for um in [2.0, 5.0, 10.0, 20.0] {
            let e = clear_at(LinkTechnology::Electronic, um);
            for tech in LinkTechnology::OPTICAL {
                assert!(
                    e > clear_at(tech, um),
                    "{tech} should lose to electronics at {um} µm"
                );
            }
        }
    }

    #[test]
    fn hyppi_wins_inter_core_distances() {
        // Paper: "For larger lengths, such as inter-core distances, HyPPI
        // is more favorable."
        for mm in [0.5, 1.0, 2.0, 5.0] {
            let um = mm * 1000.0;
            let h = clear_at(LinkTechnology::Hyppi, um);
            for tech in [
                LinkTechnology::Electronic,
                LinkTechnology::Photonic,
                LinkTechnology::Plasmonic,
            ] {
                assert!(
                    h > clear_at(tech, um),
                    "{tech} should lose to HyPPI at {mm} mm"
                );
            }
        }
    }

    #[test]
    fn photonics_wins_beyond_20mm() {
        // Paper: "Photonics becomes suitable for lengths beyond 20 mm."
        for mm in [30.0, 50.0, 100.0] {
            let um = mm * 1000.0;
            let p = clear_at(LinkTechnology::Photonic, um);
            assert!(
                p > clear_at(LinkTechnology::Hyppi, um),
                "HyPPI should lose to photonics at {mm} mm"
            );
            assert!(p > clear_at(LinkTechnology::Electronic, um));
        }
    }

    #[test]
    fn plasmonics_collapses_with_distance() {
        // 440 dB/cm: plasmonic CLEAR must fall off a cliff past ~100 µm.
        let near = clear_at(LinkTechnology::Plasmonic, 10.0);
        let far = clear_at(LinkTechnology::Plasmonic, 1000.0);
        assert!(near / far > 1e3, "near {near}, far {far}");
        // And plasmonics beats photonics only at very short range.
        assert!(clear_at(LinkTechnology::Plasmonic, 5.0) > clear_at(LinkTechnology::Photonic, 5.0));
    }

    #[test]
    fn clear_is_monotonically_decreasing_in_length() {
        for tech in LinkTechnology::ALL {
            let mut prev = f64::MAX;
            for &len in &fig3_lengths() {
                let c = link_clear_point(tech, len).clear;
                assert!(c < prev || (c - prev).abs() < 1e-12, "{tech} at {len}");
                prev = c;
            }
        }
    }

    #[test]
    fn sweep_covers_all_technologies() {
        let pts = link_clear_sweep(&fig3_lengths());
        assert_eq!(pts.len(), 4 * fig3_lengths().len());
        // Plasmonic CLEAR underflows to zero at centimeter lengths
        // (hundreds of dB of loss) — finite and non-negative is the
        // invariant.
        assert!(pts.iter().all(|p| p.clear.is_finite() && p.clear >= 0.0));
        assert!(pts
            .iter()
            .filter(|p| p.tech != LinkTechnology::Plasmonic)
            .all(|p| p.clear > 0.0));
    }

    #[test]
    fn hyppi_peak_capability_is_2_1_tbps() {
        let p = link_clear_point(LinkTechnology::Hyppi, Micrometers::from_mm(1.0));
        assert!((p.capability_gbps - 2100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_length() {
        let _ = link_clear_point(LinkTechnology::Hyppi, Micrometers::new(0.0));
    }
}
