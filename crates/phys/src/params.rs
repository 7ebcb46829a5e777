//! Device parameter sets — Table I of the paper, plus the ITRS-derived
//! electrical wire parameters used for the electronic baseline.
//!
//! These are *inputs* to every model in the workspace. The paper takes them
//! from the literature (\[14\], \[9\] in its bibliography); we transcribe them
//! verbatim. Where Table I lists two modulator speeds — the peak device
//! capability and the SERDES-limited rate used at the NoC level (in
//! parentheses in the paper) — both are kept.

use crate::units::{Decibels, Femtojoules, Gbps, Micrometers, SquareMicrometers};

/// The four interconnect technologies compared by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkTechnology {
    /// Repeated electrical wires (ITRS 14 nm parameters).
    Electronic,
    /// Conventional nanophotonics: microring modulators and detectors.
    Photonic,
    /// Pure plasmonics: metal waveguides, MOS-type modulator.
    Plasmonic,
    /// Hybrid plasmonic-photonic interconnect: plasmonic active devices on
    /// SOI passive waveguides.
    Hyppi,
}

impl LinkTechnology {
    /// All four technologies, in the paper's presentation order.
    pub const ALL: [LinkTechnology; 4] = [
        LinkTechnology::Electronic,
        LinkTechnology::Photonic,
        LinkTechnology::Plasmonic,
        LinkTechnology::Hyppi,
    ];

    /// The three optical technologies (everything but electronics).
    pub const OPTICAL: [LinkTechnology; 3] = [
        LinkTechnology::Photonic,
        LinkTechnology::Plasmonic,
        LinkTechnology::Hyppi,
    ];

    /// Returns true for technologies that carry data as light and therefore
    /// need O-E / E-O conversion at router boundaries.
    #[inline]
    pub fn is_optical(self) -> bool {
        !matches!(self, LinkTechnology::Electronic)
    }

    /// Human-readable name used in reproduced tables.
    pub fn name(self) -> &'static str {
        match self {
            LinkTechnology::Electronic => "Electronic",
            LinkTechnology::Photonic => "Photonic",
            LinkTechnology::Plasmonic => "Plasmonic",
            LinkTechnology::Hyppi => "HyPPI",
        }
    }
}

impl std::fmt::Display for LinkTechnology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// On-chip laser parameters (Table I, "Laser" rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaserParams {
    /// Wall-plug efficiency, as a fraction (Table I lists percent).
    pub efficiency: f64,
    /// Footprint of the laser source.
    pub area: SquareMicrometers,
}

/// Modulator parameters (Table I, "Modulator" rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModulatorParams {
    /// Peak device data rate (used for the bare link comparison, Fig. 3).
    pub peak_rate: Gbps,
    /// SERDES-limited rate used at the NoC system level (the parenthesized
    /// values in Table I).
    pub serdes_rate: Gbps,
    /// Dynamic energy per modulated bit.
    pub energy_per_bit: Femtojoules,
    /// Optical insertion loss of the modulator.
    pub insertion_loss: Decibels,
    /// Extinction ratio between the on and off states.
    pub extinction_ratio: Decibels,
    /// Device footprint.
    pub area: SquareMicrometers,
    /// Device capacitance, femtofarads.
    pub capacitance_ff: f64,
    /// Drive/bias voltage swing, volts (midpoint of the Table I range).
    pub bias_voltage: f64,
}

/// Photodetector parameters (Table I, "Photodetector" rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorParams {
    /// Detector bandwidth as a data rate (first of the paired values).
    pub rate: Gbps,
    /// Intrinsic device speed limit (second of the paired values).
    pub intrinsic_rate: Gbps,
    /// Receiver energy per bit.
    pub energy_per_bit: Femtojoules,
    /// Responsivity, amperes per watt.
    pub responsivity_a_per_w: f64,
    /// Device footprint.
    pub area: SquareMicrometers,
}

/// Waveguide parameters (Table I, "Waveguide" rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveguideParams {
    /// Propagation loss, dB per centimeter.
    pub propagation_loss_db_per_cm: f64,
    /// Coupling loss between the active device section and the waveguide
    /// (zero for the all-photonic link, which needs no mode conversion).
    pub coupling_loss: Decibels,
    /// Waveguide pitch (center-to-center spacing when routed in parallel).
    pub pitch: Micrometers,
    /// Waveguide width.
    pub width: Micrometers,
}

impl WaveguideParams {
    /// Propagation loss over a given length.
    #[inline]
    pub fn propagation_loss(&self, length: Micrometers) -> Decibels {
        Decibels::new(self.propagation_loss_db_per_cm * length.as_cm())
    }
}

/// Complete parameter set for one optical technology (one Table I column).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechnologyParams {
    /// Which column this is.
    pub technology: LinkTechnology,
    pub laser: LaserParams,
    pub modulator: ModulatorParams,
    pub detector: DetectorParams,
    pub waveguide: WaveguideParams,
}

impl TechnologyParams {
    /// Looks up the Table I column for an optical technology.
    ///
    /// # Panics
    ///
    /// Panics for [`LinkTechnology::Electronic`], which has no optical
    /// parameter set — use [`electronic_wire_params`] instead.
    pub fn for_technology(tech: LinkTechnology) -> Self {
        match tech {
            LinkTechnology::Photonic => photonic_params(),
            LinkTechnology::Plasmonic => plasmonic_params(),
            LinkTechnology::Hyppi => hyppi_params(),
            LinkTechnology::Electronic => {
                panic!("electronic links are parameterized by ElectronicWireParams")
            }
        }
    }
}

/// Table I, "Photonic" column.
pub fn photonic_params() -> TechnologyParams {
    TechnologyParams {
        technology: LinkTechnology::Photonic,
        laser: LaserParams {
            efficiency: 0.25,
            area: SquareMicrometers::new(200.0),
        },
        modulator: ModulatorParams {
            peak_rate: Gbps::new(25.0),
            serdes_rate: Gbps::new(25.0),
            energy_per_bit: Femtojoules::new(2.77),
            insertion_loss: Decibels::new(1.02),
            extinction_ratio: Decibels::new(6.18),
            area: SquareMicrometers::new(100.0),
            capacitance_ff: 16.0,
            bias_voltage: 1.3, // midpoint of the -2.2..0.4 V swing
        },
        detector: DetectorParams {
            rate: Gbps::new(40.0),
            intrinsic_rate: Gbps::new(40.0),
            energy_per_bit: Femtojoules::new(0.0),
            responsivity_a_per_w: 0.8,
            area: SquareMicrometers::new(100.0),
        },
        waveguide: WaveguideParams {
            propagation_loss_db_per_cm: 1.0,
            coupling_loss: Decibels::ZERO,
            pitch: Micrometers::new(4.0),
            width: Micrometers::new(0.35),
        },
    }
}

/// Table I, "Plasmonic" column.
pub fn plasmonic_params() -> TechnologyParams {
    TechnologyParams {
        technology: LinkTechnology::Plasmonic,
        laser: LaserParams {
            efficiency: 0.20,
            area: SquareMicrometers::new(0.003),
        },
        modulator: ModulatorParams {
            peak_rate: Gbps::new(59.0),
            serdes_rate: Gbps::new(50.0),
            energy_per_bit: Femtojoules::new(6.8),
            insertion_loss: Decibels::new(1.1),
            extinction_ratio: Decibels::new(17.0),
            area: SquareMicrometers::new(4.0),
            capacitance_ff: 14.0,
            bias_voltage: 0.7,
        },
        detector: DetectorParams {
            rate: Gbps::new(50.0),
            intrinsic_rate: Gbps::new(700.0),
            energy_per_bit: Femtojoules::new(0.14),
            responsivity_a_per_w: 0.1,
            area: SquareMicrometers::new(4.0),
        },
        waveguide: WaveguideParams {
            propagation_loss_db_per_cm: 440.0,
            coupling_loss: Decibels::new(0.63),
            pitch: Micrometers::new(0.5),
            width: Micrometers::new(0.1),
        },
    }
}

/// Table I, "HyPPI" column.
pub fn hyppi_params() -> TechnologyParams {
    TechnologyParams {
        technology: LinkTechnology::Hyppi,
        laser: LaserParams {
            efficiency: 0.20,
            area: SquareMicrometers::new(0.003),
        },
        modulator: ModulatorParams {
            peak_rate: Gbps::new(2100.0),
            serdes_rate: Gbps::new(50.0),
            energy_per_bit: Femtojoules::new(4.25),
            insertion_loss: Decibels::new(0.6),
            extinction_ratio: Decibels::new(12.0),
            area: SquareMicrometers::new(1.0),
            capacitance_ff: 0.94,
            bias_voltage: 2.5, // midpoint of the 2..3 V range
        },
        detector: DetectorParams {
            rate: Gbps::new(50.0),
            intrinsic_rate: Gbps::new(700.0),
            energy_per_bit: Femtojoules::new(0.14),
            responsivity_a_per_w: 0.1,
            area: SquareMicrometers::new(4.0),
        },
        waveguide: WaveguideParams {
            propagation_loss_db_per_cm: 1.0,
            coupling_loss: Decibels::new(1.0),
            pitch: Micrometers::new(1.0),
            width: Micrometers::new(0.35),
        },
    }
}

/// Electrical wire parameters derived from the ITRS 14 nm node, as used by
/// the paper for its electronic baseline (§III-A and §III-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElectronicWireParams {
    /// Wire width (paper §III-B: 160 nm).
    pub wire_width: Micrometers,
    /// Wire pitch: width plus spacing (160 nm + 160 nm).
    pub wire_pitch: Micrometers,
    /// Delay of an optimally repeated wire, ps per millimeter.
    pub delay_ps_per_mm: f64,
    /// Dynamic energy of a repeated wire, fJ per bit per millimeter.
    pub energy_fj_per_bit_mm: f64,
    /// Leakage power of the repeaters, µW per wire per millimeter.
    pub leakage_uw_per_wire_mm: f64,
    /// Signaling rate per wire for the bare-link comparison.
    pub rate_per_wire: Gbps,
    /// Number of parallel wires in the bare-link comparison (one flit wide).
    pub bus_width: u32,
}

/// Default ITRS 14 nm electrical wire parameters.
///
/// Delay and energy follow the standard optimally-repeated-wire results for
/// an intermediate-layer wire at this node (≈60 ps/mm, ≈150 fJ/bit/mm for a
/// full-swing repeated line); the width/pitch come straight from the paper.
pub fn electronic_wire_params() -> ElectronicWireParams {
    ElectronicWireParams {
        wire_width: Micrometers::new(0.16),
        wire_pitch: Micrometers::new(0.32),
        delay_ps_per_mm: 60.0,
        energy_fj_per_bit_mm: 150.0,
        leakage_uw_per_wire_mm: 0.6,
        rate_per_wire: Gbps::new(3.0),
        bus_width: 64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_transcription_spot_checks() {
        let p = photonic_params();
        assert_eq!(p.modulator.peak_rate.value(), 25.0);
        assert_eq!(p.modulator.energy_per_bit.value(), 2.77);
        assert_eq!(p.waveguide.propagation_loss_db_per_cm, 1.0);
        assert_eq!(p.detector.responsivity_a_per_w, 0.8);
        assert_eq!(p.laser.efficiency, 0.25);

        let s = plasmonic_params();
        assert_eq!(s.modulator.peak_rate.value(), 59.0);
        assert_eq!(s.modulator.serdes_rate.value(), 50.0);
        assert_eq!(s.waveguide.propagation_loss_db_per_cm, 440.0);
        assert_eq!(s.waveguide.coupling_loss.value(), 0.63);

        let h = hyppi_params();
        assert_eq!(h.modulator.peak_rate.value(), 2100.0);
        assert_eq!(h.modulator.serdes_rate.value(), 50.0);
        assert_eq!(h.modulator.insertion_loss.value(), 0.6);
        assert_eq!(h.modulator.area.value(), 1.0);
        assert_eq!(h.modulator.capacitance_ff, 0.94);
        assert_eq!(h.waveguide.pitch.value(), 1.0);
    }

    #[test]
    fn lookup_matches_free_functions() {
        for tech in LinkTechnology::OPTICAL {
            let p = TechnologyParams::for_technology(tech);
            assert_eq!(p.technology, tech);
        }
    }

    #[test]
    #[should_panic(expected = "electronic links")]
    fn electronic_lookup_panics() {
        let _ = TechnologyParams::for_technology(LinkTechnology::Electronic);
    }

    #[test]
    fn propagation_loss_scales_with_length() {
        let wg = hyppi_params().waveguide;
        let l1 = wg.propagation_loss(Micrometers::from_mm(1.0));
        let l2 = wg.propagation_loss(Micrometers::from_mm(2.0));
        assert!((l2.value() - 2.0 * l1.value()).abs() < 1e-12);
        // 1 dB/cm over 1 cm is 1 dB.
        let l = wg.propagation_loss(Micrometers::from_cm(1.0));
        assert!((l.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn plasmonic_loss_is_catastrophic_at_mm_scale() {
        let wg = plasmonic_params().waveguide;
        let l = wg.propagation_loss(Micrometers::from_mm(1.0));
        assert!(l.value() > 40.0, "440 dB/cm should give 44 dB/mm");
    }

    #[test]
    fn optical_flags() {
        assert!(!LinkTechnology::Electronic.is_optical());
        assert!(LinkTechnology::Photonic.is_optical());
        assert!(LinkTechnology::Hyppi.is_optical());
        assert_eq!(LinkTechnology::ALL.len(), 4);
        assert_eq!(format!("{}", LinkTechnology::Hyppi), "HyPPI");
    }
}
