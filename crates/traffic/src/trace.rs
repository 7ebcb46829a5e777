//! Trace containers and a compact binary format.
//!
//! A [`Trace`] is a time-ordered list of packet injection events, ready to
//! drive the cycle-accurate simulator. Traces also carry the wall-clock
//! duration of the application's communication phases, which the energy
//! accounting needs to charge continuously-powered photonic infrastructure
//! (see `hyppi-dsent::olink`).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use hyppi_topology::NodeId;

/// Magic bytes of the binary trace format.
const MAGIC: &[u8; 4] = b"HYT1";

/// One packet injection event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Injection cycle.
    pub cycle: u64,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Packet size in flits (1 or 32 at the paper's settings).
    pub flits: u32,
}

/// A complete trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Descriptive name (e.g. "NPB FT class A, 256 ranks").
    pub name: String,
    /// Number of nodes the trace addresses.
    pub num_nodes: u16,
    /// Cycle span of the simulated event window.
    pub duration_cycles: u64,
    /// Wall-clock seconds of communication-active application time that the
    /// full (unscaled) workload represents; used for time-based energy
    /// charges.
    pub comm_wall_seconds: f64,
    /// Injection events, sorted by cycle.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates a trace, sorting events by cycle and computing the duration.
    pub fn new(
        name: impl Into<String>,
        num_nodes: u16,
        comm_wall_seconds: f64,
        mut events: Vec<TraceEvent>,
    ) -> Self {
        events.sort_by_key(|e| e.cycle);
        let duration_cycles = events.last().map_or(0, |e| e.cycle + 1);
        Trace {
            name: name.into(),
            num_nodes,
            duration_cycles,
            comm_wall_seconds,
            events,
        }
    }

    /// Total flits across all events.
    pub fn total_flits(&self) -> u64 {
        self.events.iter().map(|e| u64::from(e.flits)).sum()
    }

    /// Total packets.
    pub fn total_packets(&self) -> usize {
        self.events.len()
    }

    /// Encodes to the compact binary format.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(32 + self.name.len() + self.events.len() * 16);
        buf.put_slice(MAGIC);
        buf.put_u16(self.num_nodes);
        buf.put_u64(self.duration_cycles);
        buf.put_f64(self.comm_wall_seconds);
        buf.put_u32(self.name.len() as u32);
        buf.put_slice(self.name.as_bytes());
        buf.put_u64(self.events.len() as u64);
        for e in &self.events {
            buf.put_u64(e.cycle);
            buf.put_u16(e.src.0);
            buf.put_u16(e.dst.0);
            buf.put_u32(e.flits);
        }
        buf.freeze()
    }

    /// Decodes from the binary format.
    pub fn from_bytes(mut data: Bytes) -> Result<Self, TraceDecodeError> {
        use TraceDecodeError::*;
        if data.remaining() < 4 || &data.copy_to_bytes(4)[..] != MAGIC {
            return Err(BadMagic);
        }
        if data.remaining() < 2 + 8 + 8 + 4 {
            return Err(Truncated);
        }
        let num_nodes = data.get_u16();
        let duration_cycles = data.get_u64();
        let comm_wall_seconds = data.get_f64();
        let name_len = data.get_u32() as usize;
        if data.remaining() < name_len {
            return Err(Truncated);
        }
        let name = String::from_utf8(data.copy_to_bytes(name_len).to_vec()).map_err(|_| BadName)?;
        if data.remaining() < 8 {
            return Err(Truncated);
        }
        let count = data.get_u64() as usize;
        if data.remaining() < count * 16 {
            return Err(Truncated);
        }
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let cycle = data.get_u64();
            let src = NodeId(data.get_u16());
            let dst = NodeId(data.get_u16());
            let flits = data.get_u32();
            if src.0 >= num_nodes || dst.0 >= num_nodes {
                return Err(NodeOutOfRange);
            }
            events.push(TraceEvent {
                cycle,
                src,
                dst,
                flits,
            });
        }
        Ok(Trace {
            name,
            num_nodes,
            duration_cycles,
            comm_wall_seconds,
            events,
        })
    }
}

/// Errors from [`Trace::from_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDecodeError {
    /// Missing or wrong magic bytes.
    BadMagic,
    /// Buffer ended early.
    Truncated,
    /// Name was not valid UTF-8.
    BadName,
    /// An event referenced a node outside `num_nodes`.
    NodeOutOfRange,
}

impl std::fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            TraceDecodeError::BadMagic => "bad magic bytes",
            TraceDecodeError::Truncated => "truncated trace",
            TraceDecodeError::BadName => "trace name is not UTF-8",
            TraceDecodeError::NodeOutOfRange => "event node out of range",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for TraceDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(
            "sample",
            4,
            0.25,
            vec![
                TraceEvent {
                    cycle: 10,
                    src: NodeId(0),
                    dst: NodeId(3),
                    flits: 32,
                },
                TraceEvent {
                    cycle: 2,
                    src: NodeId(1),
                    dst: NodeId(2),
                    flits: 1,
                },
            ],
        )
    }

    #[test]
    fn constructor_sorts_and_measures() {
        let t = sample();
        assert_eq!(t.events[0].cycle, 2);
        assert_eq!(t.duration_cycles, 11);
        assert_eq!(t.total_flits(), 33);
        assert_eq!(t.total_packets(), 2);
    }

    #[test]
    fn binary_roundtrip() {
        let t = sample();
        let decoded = Trace::from_bytes(t.to_bytes()).expect("roundtrip");
        assert_eq!(t, decoded);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut raw = sample().to_bytes().to_vec();
        raw[0] = b'X';
        assert_eq!(
            Trace::from_bytes(Bytes::from(raw)),
            Err(TraceDecodeError::BadMagic)
        );
    }

    #[test]
    fn rejects_truncated() {
        let raw = sample().to_bytes();
        let cut = raw.slice(0..raw.len() - 5);
        assert_eq!(Trace::from_bytes(cut), Err(TraceDecodeError::Truncated));
    }

    #[test]
    fn rejects_out_of_range_nodes() {
        let t = Trace::new(
            "bad",
            2,
            0.0,
            vec![TraceEvent {
                cycle: 0,
                src: NodeId(0),
                dst: NodeId(7),
                flits: 1,
            }],
        );
        assert_eq!(
            Trace::from_bytes(t.to_bytes()),
            Err(TraceDecodeError::NodeOutOfRange)
        );
    }

    #[test]
    fn empty_trace_roundtrip() {
        let t = Trace::new("empty", 16, 0.0, vec![]);
        assert_eq!(t.duration_cycles, 0);
        let d = Trace::from_bytes(t.to_bytes()).unwrap();
        assert_eq!(t, d);
    }
}
