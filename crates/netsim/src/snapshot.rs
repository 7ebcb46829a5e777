//! Versioned, std-only checkpoint format for simulator state.
//!
//! A [`Snapshot`] captures the complete *logical* state of a simulation at
//! a cycle boundary — everything needed so that `run N cycles` equals
//! `snapshot at N + restore + run remainder`, bit-for-bit in [`SimStats`]
//! including the latency histograms. The format is deliberately
//! **partition-independent**: it describes the network the way the
//! reference engine does (per-node input VCs, per-link in-flight flits, a
//! global packet table), so a snapshot taken from a P-shard
//! [`crate::ShardedSimulator`] restores into a P'=1 [`crate::Simulator`]
//! (or any other shard count) and vice versa, and the same bytes restore
//! into [`crate::ReferenceSimulator`] for parity checks.
//!
//! The byte-level layout, the canonicalization rules (credit derivation,
//! latency-1 bypass stripping, per-link event ordering), and the
//! restore-equals-continue argument are documented in
//! `docs/SNAPSHOT_FORMAT.md` at the workspace root — that document is the
//! contract; this module is its implementation.
//!
//! ## Header and mismatch rules
//!
//! Every snapshot starts with a fixed 120-byte header:
//!
//! * magic `b"HYPSNAP1"` — rejects non-snapshots ([`SnapshotError::BadMagic`]);
//! * format version (currently 2) — rejects other formats
//!   ([`SnapshotError::BadVersion`]);
//! * a **plan fingerprint** (FNV-1a 64 over topology links, routing table,
//!   the behavior-relevant [`crate::SimConfig`] fields, and the fault
//!   baseline) — restoring under a different plan is
//!   [`SnapshotError::PlanMismatch`]. The shard layout and `max_cycles`
//!   are deliberately *excluded*: re-partitioning and extending the cycle
//!   budget are supported on resume;
//! * a **workload fingerprint** — trace content, or `(warmup, measure,
//!   seed)` for synthetic runs. The traffic matrix is deliberately
//!   excluded from the synthetic fingerprint so warm-start sweeps can
//!   resume one warmed state under many injection rates. A zero
//!   fingerprint means "unconstrained" (manual-stepping snapshots).
//!
//! Truncated or internally inconsistent bytes decode to
//! [`SnapshotError::Truncated`] / [`SnapshotError::Corrupt`]; decoding
//! never panics on untrusted input.

use crate::config::SimConfig;
use crate::stats::{LatencyStats, SimStats, TenantStats, HISTOGRAM_BUCKETS};
use hyppi_topology::{LinkClass, RoutingTable, Topology};
use hyppi_traffic::{TenantMap, Trace};

/// Magic bytes opening every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"HYPSNAP1";

/// Current snapshot format version. Version 2 added the per-tenant
/// statistic lanes to the stats section (see `docs/SNAPSHOT_FORMAT.md`);
/// version-1 bytes are rejected with [`SnapshotError::BadVersion`].
pub const SNAPSHOT_VERSION: u32 = 2;

/// Fixed header length in bytes.
const HEADER_LEN: usize = 120;

/// Why a snapshot failed to load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The format version is not one this build can read.
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The snapshot was taken under a different (topology, routing,
    /// config, baseline) plan.
    PlanMismatch,
    /// The snapshot was taken under a different workload (trace content
    /// or synthetic `(warmup, measure, seed)`).
    WorkloadMismatch,
    /// The byte stream ended before the encoded state did.
    Truncated,
    /// The bytes decode to an internally inconsistent state.
    Corrupt,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a hyppi snapshot (bad magic)"),
            SnapshotError::BadVersion { found } => write!(
                f,
                "unsupported snapshot version {found} (this build reads {SNAPSHOT_VERSION})"
            ),
            SnapshotError::PlanMismatch => write!(
                f,
                "snapshot was taken under a different topology/routing/config plan"
            ),
            SnapshotError::WorkloadMismatch => {
                write!(f, "snapshot was taken under a different workload")
            }
            SnapshotError::Truncated => write!(f, "snapshot bytes are truncated"),
            SnapshotError::Corrupt => write!(f, "snapshot bytes are corrupt"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// An opaque, versioned checkpoint of simulator state.
///
/// Produced by `snapshot` or a run paused with `RunOpts::stop_at`;
/// consumed by `restore` or a run given `RunOpts::resume`, on any of the
/// three engines (the frozen reference keeps its own `resume_*`). The
/// raw bytes are stable across processes and suitable for writing to disk
/// (`repro npb32 --save/--resume` does exactly that).
#[derive(Debug, Clone)]
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// Wraps raw bytes read back from disk, validating the header (magic,
    /// version, length). Plan/workload fingerprints are checked later, at
    /// restore time, against the engine they are restored into.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated);
        }
        if bytes[0..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = read_u32(&bytes, 8);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion { found: version });
        }
        Ok(Snapshot { bytes })
    }

    /// The serialized snapshot bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the snapshot, returning the serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Total serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The cycle boundary this snapshot was taken at; restored engines
    /// resume at exactly this cycle.
    pub fn now(&self) -> u64 {
        read_u64(&self.bytes, 40)
    }

    /// Number of nodes in the snapshotted topology.
    pub fn num_nodes(&self) -> u32 {
        read_u32(&self.bytes, 12)
    }

    /// Number of links in the snapshotted topology.
    pub fn num_links(&self) -> u32 {
        read_u32(&self.bytes, 16)
    }

    pub(crate) fn plan_hash(&self) -> u64 {
        read_u64(&self.bytes, 24)
    }

    pub(crate) fn workload_hash(&self) -> u64 {
        read_u64(&self.bytes, 32)
    }

    /// Encodes a decoded global state under the given fingerprints.
    pub(crate) fn encode(gs: &GlobalState, plan_hash: u64, workload_hash: u64) -> Snapshot {
        let mut e = Enc {
            buf: Vec::with_capacity(HEADER_LEN + 64 * gs.nodes.len()),
        };
        e.buf.extend_from_slice(&SNAPSHOT_MAGIC);
        e.u32(SNAPSHOT_VERSION);
        e.u32(gs.nodes.len() as u32);
        e.u32(gs.links.len() as u32);
        e.u32(gs.vcs);
        e.u64(plan_hash);
        e.u64(workload_hash);
        e.u64(gs.now);
        e.u64(gs.next_event);
        for w in gs.rng {
            e.u64(w);
        }
        e.u64(gs.accept_from);
        e.u64(gs.accept_until);
        e.u64(gs.origin_packets);
        e.u64(gs.completed_packets);
        debug_assert_eq!(e.buf.len(), HEADER_LEN);

        e.stats(&gs.stats);

        e.u32(gs.packets.len() as u32);
        for p in &gs.packets {
            e.u16(p.src);
            e.u16(p.dst);
            e.u64(p.inject_cycle);
            e.u32(p.flits);
            e.u32(p.ejected);
            e.u8(p.class);
        }

        for n in &gs.nodes {
            let in_ports = n.slots.len() / gs.vcs as usize;
            e.u8(in_ports as u8);
            e.u8(n.va_rr.len() as u8);
            for s in &n.slots {
                e.u8(s.tag);
                e.u8(s.out_port);
                e.u8(s.out_vc);
                e.u32(s.active_pid);
                e.u8(s.queue.len() as u8);
                for f in &s.queue {
                    e.flit(f, true);
                }
            }
            e.u32(n.src_queue.len() as u32);
            for &pid in &n.src_queue {
                e.u32(pid);
            }
            match &n.emitting {
                None => e.u8(0),
                Some(em) => {
                    e.u8(1);
                    e.u32(em.packet);
                    e.u32(em.emitted);
                    e.u32(em.total);
                    e.u8(em.vc);
                    e.u16(em.dst);
                    e.u64(em.inject_cycle);
                }
            }
            e.u32(n.outstanding);
            for &v in &n.va_rr {
                e.u16(v);
            }
            for &v in &n.sa_rr {
                e.u16(v);
            }
        }

        for evs in &gs.links {
            e.u32(evs.len() as u32);
            for ev in evs {
                e.u64(ev.arrive);
                e.u8(ev.vc);
                e.flit(&ev.flit, false);
            }
        }

        Snapshot { bytes: e.buf }
    }

    /// Decodes the full state, verifying the plan fingerprint first.
    pub(crate) fn decode_for(&self, expect_plan: u64) -> Result<GlobalState, SnapshotError> {
        if self.plan_hash() != expect_plan {
            return Err(SnapshotError::PlanMismatch);
        }
        let num_nodes = self.num_nodes() as usize;
        let num_links = self.num_links() as usize;
        // Every node and link encodes at least one body byte, so the
        // counts are bounded by the length before anything is sized by
        // them.
        if num_nodes > self.bytes.len() || num_links > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let vcs = read_u32(&self.bytes, 20);
        if vcs == 0 || vcs > 32 {
            return Err(SnapshotError::Corrupt);
        }
        let mut rng = [0u64; 4];
        for (i, w) in rng.iter_mut().enumerate() {
            *w = read_u64(&self.bytes, 56 + 8 * i);
        }
        let mut d = Dec {
            b: &self.bytes,
            pos: HEADER_LEN,
        };

        let stats = d.stats(num_links, num_nodes)?;

        let now = self.now();
        let npackets = d.u32()? as usize;
        if npackets > d.remaining() {
            return Err(SnapshotError::Truncated);
        }
        let mut packets = Vec::with_capacity(npackets);
        for _ in 0..npackets {
            let p = PacketImage {
                src: d.u16()?,
                dst: d.u16()?,
                inject_cycle: d.u64()?,
                flits: d.u32()?,
                ejected: d.u32()?,
                class: d.u8()?,
            };
            // A measured packet is injected by the snapshot boundary
            // (u64::MAX marks unmeasured packets).
            if p.src as usize >= num_nodes
                || p.dst as usize >= num_nodes
                || p.class > 2
                || p.flits == 0
                || p.ejected >= p.flits
                || (p.inject_cycle > now && p.inject_cycle != u64::MAX)
            {
                return Err(SnapshotError::Corrupt);
            }
            packets.push(p);
        }
        let check_pid = |pid: u32| -> Result<u32, SnapshotError> {
            if (pid as usize) < npackets {
                Ok(pid)
            } else {
                Err(SnapshotError::Corrupt)
            }
        };

        let mut nodes = Vec::with_capacity(num_nodes);
        for _ in 0..num_nodes {
            let in_ports = d.u8()? as usize;
            let out_ports = d.u8()? as usize;
            if in_ports == 0 || out_ports == 0 || out_ports > 15 {
                return Err(SnapshotError::Corrupt);
            }
            let mut slots = Vec::with_capacity(in_ports * vcs as usize);
            for _ in 0..in_ports * vcs as usize {
                let tag = d.u8()?;
                let out_port = d.u8()?;
                let out_vc = d.u8()?;
                let active_pid = d.u32()?;
                if tag > 2 || out_port as usize >= out_ports || out_vc >= vcs as u8 {
                    return Err(SnapshotError::Corrupt);
                }
                if tag == 2 {
                    check_pid(active_pid)?;
                }
                let qlen = d.u8()? as usize;
                let mut queue = Vec::with_capacity(qlen);
                for _ in 0..qlen {
                    let f = d.flit(true)?;
                    check_pid(f.packet)?;
                    if f.dst as usize >= num_nodes {
                        return Err(SnapshotError::Corrupt);
                    }
                    queue.push(f);
                }
                slots.push(SlotImage {
                    tag,
                    out_port,
                    out_vc,
                    active_pid,
                    queue,
                });
            }
            let qn = d.u32()? as usize;
            if qn > d.remaining() {
                return Err(SnapshotError::Truncated);
            }
            let mut src_queue = Vec::with_capacity(qn);
            for _ in 0..qn {
                src_queue.push(check_pid(d.u32()?)?);
            }
            let emitting = match d.u8()? {
                0 => None,
                1 => Some(EmissionImage {
                    packet: check_pid(d.u32()?)?,
                    emitted: d.u32()?,
                    total: d.u32()?,
                    vc: d.u8()?,
                    dst: d.u16()?,
                    inject_cycle: d.u64()?,
                }),
                _ => return Err(SnapshotError::Corrupt),
            };
            if let Some(em) = &emitting {
                if em.emitted == 0 || em.emitted >= em.total || em.vc >= vcs as u8 {
                    return Err(SnapshotError::Corrupt);
                }
            }
            let outstanding = d.u32()?;
            let mut va_rr = Vec::with_capacity(out_ports);
            for _ in 0..out_ports {
                va_rr.push(d.u16()?);
            }
            let mut sa_rr = Vec::with_capacity(out_ports);
            for _ in 0..out_ports {
                sa_rr.push(d.u16()?);
            }
            nodes.push(NodeImage {
                slots,
                src_queue,
                emitting,
                outstanding,
                va_rr,
                sa_rr,
            });
        }

        let mut links = Vec::with_capacity(num_links);
        for _ in 0..num_links {
            let n = d.u32()? as usize;
            if n > d.remaining() {
                return Err(SnapshotError::Truncated);
            }
            let mut evs: Vec<EventImage> = Vec::with_capacity(n);
            for _ in 0..n {
                let ev = EventImage {
                    arrive: d.u64()?,
                    vc: d.u8()?,
                    flit: d.flit(false)?,
                };
                check_pid(ev.flit.packet)?;
                // Per-link events are strictly ordered: one flit crosses a
                // link per cycle, and nothing in flight predates the
                // snapshot boundary.
                if ev.arrive < now || ev.vc >= vcs as u8 {
                    return Err(SnapshotError::Corrupt);
                }
                if let Some(prev) = evs.last() {
                    if ev.arrive <= prev.arrive {
                        return Err(SnapshotError::Corrupt);
                    }
                }
                evs.push(ev);
            }
            links.push(evs);
        }

        if d.remaining() != 0 {
            return Err(SnapshotError::Corrupt);
        }
        let origin_packets = read_u64(&self.bytes, 104);
        let completed_packets = read_u64(&self.bytes, 112);
        if origin_packets.checked_sub(completed_packets) != Some(npackets as u64) {
            return Err(SnapshotError::Corrupt);
        }

        Ok(GlobalState {
            now,
            next_event: read_u64(&self.bytes, 48),
            rng,
            accept_from: read_u64(&self.bytes, 88),
            accept_until: read_u64(&self.bytes, 96),
            origin_packets,
            completed_packets,
            vcs,
            stats,
            packets,
            nodes,
            links,
        })
    }
}

/// One buffered or in-flight flit, with packet ids rewritten to global
/// (snapshot-local) packet-table indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlitImage {
    pub packet: u32,
    pub dst: u16,
    pub is_head: bool,
    pub is_tail: bool,
    /// Earliest switch-traversal cycle, absolute. Canonically zero for
    /// in-flight flits (the delivering engine overwrites it on arrival).
    pub ready: u64,
}

/// One input VC: state-machine tag plus the buffered flit queue,
/// head-to-tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SlotImage {
    /// 0 = idle, 1 = routed, 2 = active.
    pub tag: u8,
    pub out_port: u8,
    pub out_vc: u8,
    /// Packet holding the output VC when `tag == 2`; `u32::MAX` otherwise.
    pub active_pid: u32,
    pub queue: Vec<FlitImage>,
}

/// An in-progress NIC emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EmissionImage {
    pub packet: u32,
    pub emitted: u32,
    pub total: u32,
    pub vc: u8,
    pub dst: u16,
    pub inject_cycle: u64,
}

/// One node: its input VC slots plus NIC state and round-robin pointers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NodeImage {
    /// `in_ports × vcs` slots, port-major.
    pub slots: Vec<SlotImage>,
    pub src_queue: Vec<u32>,
    pub emitting: Option<EmissionImage>,
    /// Closed-loop window occupancy.
    pub outstanding: u32,
    /// Per out-port VA round-robin start index (next slot to scan first).
    pub va_rr: Vec<u16>,
    /// Per out-port SA round-robin start index.
    pub sa_rr: Vec<u16>,
}

/// One flit in flight on a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EventImage {
    /// Absolute arrival cycle at the link's destination router.
    pub arrive: u64,
    /// Destination input VC.
    pub vc: u8,
    pub flit: FlitImage,
}

/// One live packet: the canonical, engine-independent record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PacketImage {
    /// Origin node.
    pub src: u16,
    pub dst: u16,
    pub inject_cycle: u64,
    pub flits: u32,
    /// Flits already consumed at the destination.
    pub ejected: u32,
    /// Dateline class: 0 = free, 1 = pre-express, 2 = post-express.
    pub class: u8,
}

/// The decoded, partition-independent simulation state. Engines export
/// into / import from this; [`Snapshot`] is its serialized form.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GlobalState {
    pub now: u64,
    /// Trace cursor: next unadmitted event index.
    pub next_event: u64,
    /// Synthetic-injection RNG state (xoshiro256**).
    pub rng: [u64; 4],
    pub accept_from: u64,
    pub accept_until: u64,
    /// Total packets ever admitted (live + completed).
    pub origin_packets: u64,
    /// Total packets fully ejected.
    pub completed_packets: u64,
    pub vcs: u32,
    /// Merged statistics at the snapshot boundary.
    pub stats: SimStats,
    /// Live (incomplete) packets only; completed packets survive through
    /// `stats` and the counters above.
    pub packets: Vec<PacketImage>,
    pub nodes: Vec<NodeImage>,
    /// Per-link in-flight flits, sorted by strictly increasing arrival.
    pub links: Vec<Vec<EventImage>>,
}

// ---------------------------------------------------------------------------
// Little-endian codec helpers (std-only).

fn read_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().unwrap())
}

fn read_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().unwrap())
}

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn flit(&mut self, f: &FlitImage, with_ready: bool) {
        self.u32(f.packet);
        self.u16(f.dst);
        self.u8(u8::from(f.is_head) | (u8::from(f.is_tail) << 1));
        if with_ready {
            self.u64(f.ready);
        }
    }
    fn latency(&mut self, l: &LatencyStats) {
        self.u64(l.count);
        self.u64(l.sum);
        self.u64(l.max);
        debug_assert_eq!(l.histogram.len(), HISTOGRAM_BUCKETS);
        for &c in &l.histogram {
            self.u64(c);
        }
    }
    fn stats(&mut self, s: &SimStats) {
        self.latency(&s.all);
        self.latency(&s.control);
        self.latency(&s.data);
        self.u64(s.cycles);
        self.u64(s.flits_delivered);
        self.u64(s.flits_injected);
        self.u64(s.accepted_flits);
        for &v in &s.peak_backlog {
            self.u32(v);
        }
        for &v in &s.peak_outstanding {
            self.u32(v);
        }
        for &v in &s.link_flits {
            self.u64(v);
        }
        for &v in &s.router_flits {
            self.u64(v);
        }
        self.u64(s.rerouted_hops);
        self.u64(s.unreachable_pairs);
        // v2: per-tenant lanes (count 0 on single-tenant runs).
        self.u32(s.tenants.len() as u32);
        for t in &s.tenants {
            self.latency(&t.latency);
            self.u64(t.flits_injected);
            self.u64(t.flits_delivered);
            self.u64(t.accepted_flits);
        }
    }
}

struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Dec<'_> {
    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn flit(&mut self, with_ready: bool) -> Result<FlitImage, SnapshotError> {
        let packet = self.u32()?;
        let dst = self.u16()?;
        let flags = self.u8()?;
        if flags > 3 {
            return Err(SnapshotError::Corrupt);
        }
        let ready = if with_ready { self.u64()? } else { 0 };
        Ok(FlitImage {
            packet,
            dst,
            is_head: flags & 1 != 0,
            is_tail: flags & 2 != 0,
            ready,
        })
    }
    fn latency(&mut self) -> Result<LatencyStats, SnapshotError> {
        let mut l = LatencyStats {
            count: self.u64()?,
            sum: self.u64()?,
            max: self.u64()?,
            histogram: Vec::with_capacity(HISTOGRAM_BUCKETS),
        };
        for _ in 0..HISTOGRAM_BUCKETS {
            l.histogram.push(self.u64()?);
        }
        Ok(l)
    }
    fn stats(&mut self, links: usize, nodes: usize) -> Result<SimStats, SnapshotError> {
        let mut s = SimStats::new(links, nodes);
        s.all = self.latency()?;
        s.control = self.latency()?;
        s.data = self.latency()?;
        s.cycles = self.u64()?;
        s.flits_delivered = self.u64()?;
        s.flits_injected = self.u64()?;
        s.accepted_flits = self.u64()?;
        for v in s.peak_backlog.iter_mut() {
            *v = self.u32()?;
        }
        for v in s.peak_outstanding.iter_mut() {
            *v = self.u32()?;
        }
        for v in s.link_flits.iter_mut() {
            *v = self.u64()?;
        }
        for v in s.router_flits.iter_mut() {
            *v = self.u64()?;
        }
        s.rerouted_hops = self.u64()?;
        s.unreachable_pairs = self.u64()?;
        // v2: per-tenant lanes. Tenants tile the node grid, so a lane
        // count beyond the node count is nonsense.
        let ntenants = self.u32()? as usize;
        if ntenants > nodes {
            return Err(SnapshotError::Corrupt);
        }
        s.tenants = Vec::with_capacity(ntenants);
        for _ in 0..ntenants {
            s.tenants.push(TenantStats {
                latency: self.latency()?,
                flits_injected: self.u64()?,
                flits_delivered: self.u64()?,
                accepted_flits: self.u64()?,
            });
        }
        Ok(s)
    }
}

// ---------------------------------------------------------------------------
// Content fingerprints (FNV-1a 64).

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fold(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn fold_u64(h: &mut u64, v: u64) {
    fold(h, &v.to_le_bytes());
}

fn fold_topo_routes(h: &mut u64, topo: &Topology, routes: &RoutingTable) {
    fold_u64(h, topo.num_nodes() as u64);
    fold_u64(h, topo.links().len() as u64);
    for l in topo.links() {
        fold_u64(h, l.src.0 as u64);
        fold_u64(h, l.dst.0 as u64);
        fold_u64(h, u64::from(l.latency_cycles));
        let (class, span) = match l.class {
            LinkClass::Regular => (0u64, 0u64),
            LinkClass::Express { span } => (1, u64::from(span)),
            LinkClass::Wraparound => (2, 0),
        };
        fold_u64(h, class);
        fold_u64(h, span);
        fold_u64(h, u64::from(l.degraded));
    }
    for node in topo.nodes() {
        for dst in topo.nodes() {
            let next = match routes.next_link(node, dst) {
                Some(lid) => lid.0 as u64,
                None => u64::MAX,
            };
            fold_u64(h, next);
        }
    }
}

/// Fingerprint of everything that determines engine behavior from a given
/// state onward: topology links, routing table, the behavior-relevant
/// config fields, and the fault-aware baseline (if any). `max_cycles` and
/// the shard layout are excluded — a snapshot may be resumed with a
/// different cycle budget and a different partition.
pub(crate) fn plan_fingerprint(
    topo: &Topology,
    routes: &RoutingTable,
    cfg: &SimConfig,
    baseline: Option<(&Topology, &RoutingTable)>,
    tenants: Option<&TenantMap>,
) -> u64 {
    let mut h = FNV_OFFSET;
    fold(&mut h, b"hyppi-plan-v1");
    fold_u64(&mut h, cfg.vcs as u64);
    fold_u64(&mut h, cfg.buffer_depth as u64);
    fold_u64(&mut h, cfg.pipeline_stages);
    fold_u64(&mut h, cfg.max_outstanding as u64);
    // The burst process changes the injection stream from the snapshot
    // boundary onward, exactly like the config fields above.
    for w in cfg.burst.fingerprint_words() {
        fold_u64(&mut h, w);
    }
    fold_topo_routes(&mut h, topo, routes);
    match baseline {
        None => fold_u64(&mut h, 0),
        Some((bt, br)) => {
            fold_u64(&mut h, 1);
            fold_topo_routes(&mut h, bt, br);
        }
    }
    // Tenant layout: the stats section's lane shape (and the meaning of
    // each lane) must agree between saver and restorer.
    match tenants {
        None => fold_u64(&mut h, 0),
        Some(tm) => {
            fold_u64(&mut h, 1);
            fold_u64(&mut h, tm.tenants as u64);
            for &t in &tm.tenant_of_node {
                fold_u64(&mut h, u64::from(t));
            }
        }
    }
    h
}

/// Fingerprint of a trace workload's content (events; name and wall-clock
/// metadata excluded — they do not affect the simulation).
pub(crate) fn trace_fingerprint(trace: &Trace) -> u64 {
    let mut h = FNV_OFFSET;
    fold(&mut h, b"hyppi-trace-v1");
    fold_u64(&mut h, u64::from(trace.num_nodes));
    fold_u64(&mut h, trace.events.len() as u64);
    for ev in &trace.events {
        fold_u64(&mut h, ev.cycle);
        fold_u64(&mut h, ev.src.0 as u64);
        fold_u64(&mut h, ev.dst.0 as u64);
        fold_u64(&mut h, u64::from(ev.flits));
    }
    h
}

/// Fingerprint of a synthetic workload: `(warmup, measure, seed)`. The
/// traffic matrix is deliberately excluded so a warmed-up state can be
/// resumed under a different injection-rate matrix (warm-start sweeps).
pub(crate) fn synthetic_fingerprint(warmup: u64, measure: u64, seed: u64) -> u64 {
    let mut h = FNV_OFFSET;
    fold(&mut h, b"hyppi-synthetic-v1");
    fold_u64(&mut h, warmup);
    fold_u64(&mut h, measure);
    fold_u64(&mut h, seed);
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_state() -> GlobalState {
        let mut stats = SimStats::new(2, 2);
        stats.record_packet(1, 7);
        stats.flits_delivered = 1;
        stats.link_flits[1] = 3;
        GlobalState {
            now: 42,
            next_event: 5,
            rng: [1, 2, 3, 4],
            accept_from: 0,
            accept_until: u64::MAX,
            origin_packets: 3,
            completed_packets: 1,
            vcs: 2,
            stats,
            packets: vec![
                PacketImage {
                    src: 0,
                    dst: 1,
                    inject_cycle: 40,
                    flits: 3,
                    ejected: 1,
                    class: 0,
                },
                PacketImage {
                    src: 0,
                    dst: 1,
                    inject_cycle: 41,
                    flits: 1,
                    ejected: 0,
                    class: 0,
                },
            ],
            nodes: vec![
                NodeImage {
                    slots: vec![
                        SlotImage {
                            tag: 2,
                            out_port: 1,
                            out_vc: 0,
                            active_pid: 0,
                            queue: vec![FlitImage {
                                packet: 0,
                                dst: 1,
                                is_head: false,
                                is_tail: true,
                                ready: 43,
                            }],
                        },
                        SlotImage {
                            tag: 0,
                            out_port: 0,
                            out_vc: 0,
                            active_pid: u32::MAX,
                            queue: vec![],
                        },
                    ],
                    src_queue: vec![1],
                    emitting: None,
                    outstanding: 1,
                    va_rr: vec![0, 1],
                    sa_rr: vec![1, 0],
                },
                NodeImage {
                    slots: vec![
                        SlotImage {
                            tag: 0,
                            out_port: 0,
                            out_vc: 0,
                            active_pid: u32::MAX,
                            queue: vec![],
                        },
                        SlotImage {
                            tag: 0,
                            out_port: 0,
                            out_vc: 0,
                            active_pid: u32::MAX,
                            queue: vec![],
                        },
                    ],
                    src_queue: vec![],
                    emitting: None,
                    outstanding: 0,
                    va_rr: vec![0, 0],
                    sa_rr: vec![0, 0],
                },
            ],
            links: vec![
                vec![EventImage {
                    arrive: 44,
                    vc: 1,
                    flit: FlitImage {
                        packet: 0,
                        dst: 1,
                        is_head: true,
                        is_tail: false,
                        ready: 0,
                    },
                }],
                vec![],
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let gs = tiny_state();
        let snap = Snapshot::encode(&gs, 0xABCD, 0x1234);
        assert_eq!(snap.now(), 42);
        assert_eq!(snap.num_nodes(), 2);
        assert_eq!(snap.num_links(), 2);
        assert_eq!(snap.workload_hash(), 0x1234);
        let back = snap.decode_for(0xABCD).unwrap();
        assert_eq!(back, gs);
    }

    #[test]
    fn from_bytes_validates_header() {
        let gs = tiny_state();
        let snap = Snapshot::encode(&gs, 1, 0);
        let bytes = snap.into_bytes();
        let re = Snapshot::from_bytes(bytes.clone()).unwrap();
        assert_eq!(re.now(), 42);

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            Snapshot::from_bytes(bad_magic).unwrap_err(),
            SnapshotError::BadMagic
        );

        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        assert_eq!(
            Snapshot::from_bytes(bad_version).unwrap_err(),
            SnapshotError::BadVersion { found: 99 }
        );

        assert_eq!(
            Snapshot::from_bytes(bytes[..50].to_vec()).unwrap_err(),
            SnapshotError::Truncated
        );
    }

    #[test]
    fn decode_rejects_mismatch_and_damage() {
        let gs = tiny_state();
        let snap = Snapshot::encode(&gs, 7, 0);
        assert_eq!(snap.decode_for(8).unwrap_err(), SnapshotError::PlanMismatch);

        // Truncating the body (but not the header) is caught.
        let bytes = snap.bytes().to_vec();
        let cut = Snapshot::from_bytes(bytes[..bytes.len() - 4].to_vec()).unwrap();
        assert!(matches!(
            cut.decode_for(7).unwrap_err(),
            SnapshotError::Truncated | SnapshotError::Corrupt
        ));

        // Trailing garbage is caught.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0; 3]);
        let padded = Snapshot::from_bytes(padded).unwrap();
        assert!(matches!(
            padded.decode_for(7).unwrap_err(),
            SnapshotError::Truncated | SnapshotError::Corrupt
        ));
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        let a = synthetic_fingerprint(500, 2000, 1);
        assert_eq!(a, synthetic_fingerprint(500, 2000, 1));
        assert_ne!(a, synthetic_fingerprint(500, 2000, 2));
        assert_ne!(a, synthetic_fingerprint(501, 2000, 1));

        let t = Trace::new(
            String::from("t"),
            4,
            0.0,
            vec![hyppi_traffic::TraceEvent {
                cycle: 3,
                src: hyppi_topology::NodeId(0),
                dst: hyppi_topology::NodeId(1),
                flits: 32,
            }],
        );
        let th = trace_fingerprint(&t);
        assert_eq!(th, trace_fingerprint(&t.clone()));
        let mut t2 = t.clone();
        t2.events[0].flits = 1;
        assert_ne!(th, trace_fingerprint(&t2));
        // Name/metadata changes do not invalidate snapshots.
        let mut t3 = t.clone();
        t3.name = "renamed".into();
        assert_eq!(th, trace_fingerprint(&t3));
    }

    #[test]
    fn error_display_is_informative() {
        let msgs = [
            SnapshotError::BadMagic.to_string(),
            SnapshotError::BadVersion { found: 9 }.to_string(),
            SnapshotError::PlanMismatch.to_string(),
            SnapshotError::WorkloadMismatch.to_string(),
            SnapshotError::Truncated.to_string(),
            SnapshotError::Corrupt.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
