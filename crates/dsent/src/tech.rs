//! Technology-node parameter sets.
//!
//! DSENT ships per-node electrical models; we reproduce the subset the
//! paper's evaluation needs. The 11 nm node is the one every NoC-level
//! number in the paper uses ("we used the DSENT tool for an accurate
//! analysis, using 11 nm technology node"); the larger nodes exist for
//! scaling studies and tests of the scaling behaviour itself.

/// Electrical technology-node parameters used by all component models.
///
/// Values are in the units stated per field. They follow generalized
/// constant-field scaling from published 45 nm numbers, with the 11 nm
/// column calibrated against the paper's anchors (see crate docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechNode {
    /// Feature size in nanometers (45, 32, 22, 14, 11).
    pub feature_nm: u32,
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Energy to write + hold one bit-cell cycle in a register-file style
    /// buffer cell, fJ per bit access (write).
    pub buffer_write_fj_per_bit: f64,
    /// Energy to read one bit from a buffer cell, fJ per bit.
    pub buffer_read_fj_per_bit: f64,
    /// Leakage of one buffer bit cell, µW.
    pub buffer_leak_uw_per_bit: f64,
    /// Area of one buffer bit cell, µm².
    pub buffer_area_um2_per_bit: f64,
    /// Energy to move one bit through a matrix crossbar, fJ per bit per
    /// port-pair span (scaled internally by port count).
    pub xbar_fj_per_bit: f64,
    /// Crossbar area per crosspoint-bit, µm².
    pub xbar_area_um2_per_bit: f64,
    /// Crossbar leakage per crosspoint-bit, nW.
    pub xbar_leak_nw_per_bit: f64,
    /// Energy per arbiter grant (one requestor), fJ.
    pub arbiter_fj_per_grant: f64,
    /// Arbiter area per requestor, µm².
    pub arbiter_area_um2_per_req: f64,
    /// Arbiter leakage per requestor, nW.
    pub arbiter_leak_nw_per_req: f64,
    /// Clock-tree energy charged per flit traversal, fJ.
    pub clock_fj_per_flit: f64,
    /// Clock-tree + control static power per router, mW.
    pub clock_static_mw: f64,
    /// Fixed router overhead area (control, wiring, pipeline registers), µm².
    pub router_overhead_area_um2: f64,
    /// Dynamic energy of a repeated on-chip wire, fJ per bit per mm.
    pub wire_dyn_fj_per_bit_mm: f64,
    /// Repeater leakage, µW per wire per mm.
    pub wire_leak_uw_per_mm: f64,
    /// Delay of an optimally repeated wire, ps per mm.
    pub wire_delay_ps_per_mm: f64,
    /// Wire pitch (width + spacing), µm.
    pub wire_pitch_um: f64,
    /// SERDES energy, fJ per bit (at the 50 Gb/s NoC line rate).
    pub serdes_fj_per_bit: f64,
    /// SERDES + driver static power per optical link endpoint pair, µW.
    pub serdes_static_uw: f64,
    /// SERDES + driver area per optical link, µm².
    pub serdes_area_um2: f64,
}

impl TechNode {
    /// The 11 nm node used for every NoC-level number in the paper.
    pub fn n11() -> Self {
        TechNode {
            feature_nm: 11,
            vdd: 0.7,
            buffer_write_fj_per_bit: 10.0,
            buffer_read_fj_per_bit: 8.0,
            buffer_leak_uw_per_bit: 0.53,
            buffer_area_um2_per_bit: 0.5,
            xbar_fj_per_bit: 6.0,
            xbar_area_um2_per_bit: 1.2,
            xbar_leak_nw_per_bit: 0.1,
            arbiter_fj_per_grant: 4.0,
            arbiter_area_um2_per_req: 8.0,
            arbiter_leak_nw_per_req: 120.0,
            clock_fj_per_flit: 350.0,
            clock_static_mw: 0.40,
            router_overhead_area_um2: 2171.0,
            wire_dyn_fj_per_bit_mm: 100.0,
            wire_leak_uw_per_mm: 0.6,
            wire_delay_ps_per_mm: 70.0,
            wire_pitch_um: 0.32,
            serdes_fj_per_bit: 2.0,
            serdes_static_uw: 40.0,
            serdes_area_um2: 400.0,
        }
    }

    /// The 14 nm node (ITRS roadmap; used for the bare electrical link in
    /// the paper's Fig. 3 comparison).
    pub fn n14() -> Self {
        Self::scaled_from_11(14)
    }

    /// The 22 nm node.
    pub fn n22() -> Self {
        Self::scaled_from_11(22)
    }

    /// The 32 nm node.
    pub fn n32() -> Self {
        Self::scaled_from_11(32)
    }

    /// The 45 nm node.
    pub fn n45() -> Self {
        Self::scaled_from_11(45)
    }

    /// Looks a node up by feature size.
    pub fn by_feature(nm: u32) -> Option<Self> {
        match nm {
            11 => Some(Self::n11()),
            14 => Some(Self::n14()),
            22 => Some(Self::n22()),
            32 => Some(Self::n32()),
            45 => Some(Self::n45()),
            _ => None,
        }
    }

    /// Generalized scaling from the calibrated 11 nm column.
    ///
    /// Energies scale with `s·v²` (capacitance × voltage²), areas with
    /// `s²`, leakage roughly with `s·v`, wire delay stays roughly constant
    /// per mm for repeated wires, and wire pitch scales with `s`, where
    /// `s = nm / 11` and `v = vdd(nm) / vdd(11)`.
    fn scaled_from_11(nm: u32) -> Self {
        let base = Self::n11();
        let s = nm as f64 / base.feature_nm as f64;
        let vdd = match nm {
            14 => 0.8,
            22 => 0.9,
            32 => 1.0,
            _ => 1.1,
        };
        let v = vdd / base.vdd;
        let e = s * v * v; // dynamic energy scale
        let a = s * s; // area scale
        let l = s * v; // leakage scale
        TechNode {
            feature_nm: nm,
            vdd,
            buffer_write_fj_per_bit: base.buffer_write_fj_per_bit * e,
            buffer_read_fj_per_bit: base.buffer_read_fj_per_bit * e,
            buffer_leak_uw_per_bit: base.buffer_leak_uw_per_bit * l,
            buffer_area_um2_per_bit: base.buffer_area_um2_per_bit * a,
            xbar_fj_per_bit: base.xbar_fj_per_bit * e,
            xbar_area_um2_per_bit: base.xbar_area_um2_per_bit * a,
            xbar_leak_nw_per_bit: base.xbar_leak_nw_per_bit * l,
            arbiter_fj_per_grant: base.arbiter_fj_per_grant * e,
            arbiter_area_um2_per_req: base.arbiter_area_um2_per_req * a,
            arbiter_leak_nw_per_req: base.arbiter_leak_nw_per_req * l,
            clock_fj_per_flit: base.clock_fj_per_flit * e,
            clock_static_mw: base.clock_static_mw * l,
            router_overhead_area_um2: base.router_overhead_area_um2 * a,
            wire_dyn_fj_per_bit_mm: base.wire_dyn_fj_per_bit_mm * v * v,
            wire_leak_uw_per_mm: base.wire_leak_uw_per_mm * l,
            wire_delay_ps_per_mm: base.wire_delay_ps_per_mm,
            wire_pitch_um: base.wire_pitch_um * s,
            serdes_fj_per_bit: base.serdes_fj_per_bit * e,
            serdes_static_uw: base.serdes_static_uw * l,
            serdes_area_um2: base.serdes_area_um2 * a,
        }
    }
}

impl Default for TechNode {
    fn default() -> Self {
        Self::n11()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_feature() {
        for nm in [11u32, 14, 22, 32, 45] {
            let n = TechNode::by_feature(nm).expect("known node");
            assert_eq!(n.feature_nm, nm);
        }
        assert!(TechNode::by_feature(7).is_none());
    }

    #[test]
    fn scaling_is_monotonic_in_feature_size() {
        let nodes = [
            TechNode::n11(),
            TechNode::n14(),
            TechNode::n22(),
            TechNode::n32(),
            TechNode::n45(),
        ];
        for w in nodes.windows(2) {
            let (small, big) = (&w[0], &w[1]);
            assert!(big.buffer_write_fj_per_bit > small.buffer_write_fj_per_bit);
            assert!(big.buffer_area_um2_per_bit > small.buffer_area_um2_per_bit);
            assert!(big.buffer_leak_uw_per_bit > small.buffer_leak_uw_per_bit);
            assert!(big.wire_pitch_um > small.wire_pitch_um);
            assert!(big.vdd >= small.vdd);
        }
    }

    #[test]
    fn default_is_the_paper_node() {
        assert_eq!(TechNode::default().feature_nm, 11);
    }

    #[test]
    fn area_scales_quadratically() {
        let a11 = TechNode::n11().buffer_area_um2_per_bit;
        let a22 = TechNode::n22().buffer_area_um2_per_bit;
        let ratio = a22 / a11;
        let expected = (22.0f64 / 11.0).powi(2);
        assert!((ratio - expected).abs() < 1e-9, "ratio {ratio}");
    }
}
