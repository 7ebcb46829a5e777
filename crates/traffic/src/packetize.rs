//! Message packetization.
//!
//! The paper: "all simulations used two types of packets — 1 flit per packet
//! and 32 flits per packet. All large packets from the original network
//! trace were split up into smaller packets." We reproduce that policy:
//! control-sized messages (≤ one flit of payload) become a single 1-flit
//! packet; everything else is carved into 32-flit data packets, rounding
//! the tail up to a full data packet.

/// Flits per data packet.
pub const DATA_PACKET_FLITS: u32 = 32;

/// Payload bits carried per 64-bit flit.
pub const FLIT_BITS: u32 = 64;

/// A packetized unit ready for injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Size in flits: 1 (control) or [`DATA_PACKET_FLITS`] (data).
    pub flits: u32,
}

/// Splits a message of `message_bytes` into the paper's two packet types.
pub fn packetize_message(message_bytes: u64) -> Vec<Packet> {
    let flit_bytes = u64::from(FLIT_BITS / 8);
    if message_bytes == 0 {
        return Vec::new();
    }
    if message_bytes <= flit_bytes {
        return vec![Packet { flits: 1 }];
    }
    let total_flits = message_bytes.div_ceil(flit_bytes);
    let packets = total_flits.div_ceil(u64::from(DATA_PACKET_FLITS));
    (0..packets)
        .map(|_| Packet {
            flits: DATA_PACKET_FLITS,
        })
        .collect()
}

/// Splits a flit count directly (used by the synthetic NPB generators,
/// which think in flits).
pub fn packetize_flits(flits: u64) -> Vec<Packet> {
    if flits == 0 {
        return Vec::new();
    }
    if flits == 1 {
        return vec![Packet { flits: 1 }];
    }
    let packets = flits.div_ceil(u64::from(DATA_PACKET_FLITS));
    (0..packets)
        .map(|_| Packet {
            flits: DATA_PACKET_FLITS,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_message_is_empty() {
        assert!(packetize_message(0).is_empty());
        assert!(packetize_flits(0).is_empty());
    }

    #[test]
    fn control_messages_are_one_flit() {
        for bytes in [1, 4, 8] {
            let p = packetize_message(bytes);
            assert_eq!(p, vec![Packet { flits: 1 }]);
        }
        assert_eq!(packetize_flits(1), vec![Packet { flits: 1 }]);
    }

    #[test]
    fn large_messages_split_into_32_flit_packets() {
        // 1 KiB = 128 flits = exactly 4 data packets.
        let p = packetize_message(1024);
        assert_eq!(p.len(), 4);
        assert!(p.iter().all(|p| p.flits == 32));
    }

    #[test]
    fn tails_round_up() {
        // 260 bytes = 33 flits → 2 data packets.
        assert_eq!(packetize_message(260).len(), 2);
        // 33 flits → 2 packets.
        assert_eq!(packetize_flits(33).len(), 2);
        // 32 flits → exactly 1.
        assert_eq!(packetize_flits(32).len(), 1);
    }

    #[test]
    fn only_two_packet_sizes_exist() {
        for bytes in [1u64, 9, 255, 256, 1000, 123_456] {
            for p in packetize_message(bytes) {
                assert!(p.flits == 1 || p.flits == DATA_PACKET_FLITS);
            }
        }
    }
}
