//! Flight recorder — metrics sampling, packet event tracing, and engine
//! self-profiling for the active engine.
//!
//! A run of [`crate::Simulator`] or [`crate::ShardedSimulator`] normally
//! compresses into one end-of-run [`SimStats`] blob. This module opens
//! the time axis without touching simulation state:
//!
//! * **[`Probe`]** is a compile-time hook trait threaded through the
//!   engine core's pipeline stages. The default [`NoopProbe`] sets
//!   `ENABLED = false`, so every hook site (`if P::ENABLED { … }`)
//!   monomorphizes away — the un-probed engine is bit-identical machine
//!   code to the pre-telemetry engine, and `tests/telemetry_parity.rs`
//!   pins that a probed run's `SimStats` are bit-for-bit equal to a
//!   plain run's (probes observe; they never perturb).
//! * **[`MetricsSampler`]** is a probe that records per-interval time
//!   series: flits injected/delivered, stall breakdown by cause
//!   ([`StallCause`]), per-link utilization summary, per-VC buffer
//!   occupancy, calendar-wheel occupancy, closed-loop window
//!   backpressure, and per-shard-edge mailbox volume. Export: JSONL.
//! * **[`PacketTracer`]** is a ring-buffered probe recording packet
//!   lifecycle events (inject / VC-allocate / hop / eject). Export:
//!   JSONL, or Chrome `trace_event` JSON for `about://tracing` /
//!   Perfetto (one async track per source node).
//! * **[`ProfileSink`]** / [`EngineProfile`] time the sharded engine's
//!   superstep phases (step vs. exchange vs. barrier wait) with plain
//!   atomics, so profiling — unlike probes — composes with
//!   multi-threaded runs.
//!
//! Probed runs are **single-worker**: one probe instance must observe
//! every shard, so a run with a real probe forces `threads = 1`. Statistics are
//! bit-for-bit independent of the worker count, so this changes wall
//! clock only. The frozen parity oracle (`reference.rs`) carries no
//! hooks at all — telemetry is active-engine-only by construction.
//!
//! See `docs/OBSERVABILITY.md` for the event schema and a Chrome-trace
//! walkthrough.

use crate::json::{Json, Obj};
use crate::shard::{EnginePlan, ShardState};
use crate::stats::SimStats;
use hyppi_topology::NodeId;
use hyppi_traffic::TenantMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

// ---- stall taxonomy -----------------------------------------------------

/// Why a flit (or a whole source) failed to make progress this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Admission dropped: the faulted topology has no route for the pair.
    NoRoute,
    /// A routed head lost VC allocation (no free output VC in its class).
    VaLoss,
    /// An active VC lost switch allocation (its input port was taken).
    SaLoss,
    /// An active VC had zero downstream credits.
    CreditStarved,
    /// A closed-loop source was parked on a full NIC window.
    WindowClosed,
}

impl StallCause {
    /// All causes, in the order the sampler reports them.
    pub const ALL: [StallCause; 5] = [
        StallCause::NoRoute,
        StallCause::VaLoss,
        StallCause::SaLoss,
        StallCause::CreditStarved,
        StallCause::WindowClosed,
    ];

    /// Stable snake_case name (JSONL field suffix).
    pub fn name(self) -> &'static str {
        match self {
            StallCause::NoRoute => "no_route",
            StallCause::VaLoss => "va_loss",
            StallCause::SaLoss => "sa_loss",
            StallCause::CreditStarved => "credit_starved",
            StallCause::WindowClosed => "window_closed",
        }
    }

    fn index(self) -> usize {
        match self {
            StallCause::NoRoute => 0,
            StallCause::VaLoss => 1,
            StallCause::SaLoss => 2,
            StallCause::CreditStarved => 3,
            StallCause::WindowClosed => 4,
        }
    }
}

// ---- packet identity ----------------------------------------------------

/// Best-effort global packet identity: the injecting node plus the
/// injection cycle. Engine-internal packet ids are shard-local handles
/// (re-minted at every shard boundary), so they cannot name a packet
/// across hops; `(src, inject_cycle)` can, because a NIC emits at most
/// one packet per cycle. Caveat: *unmeasured* warm-up packets all carry
/// `inject_cycle == u64::MAX` and therefore collide per source — trace
/// consumers should filter on `inject_cycle != u64::MAX` when they need
/// unique lifecycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketKey {
    /// Node that injected the packet.
    pub src: NodeId,
    /// Cycle the packet entered the network (`u64::MAX` = unmeasured).
    pub inject_cycle: u64,
}

impl PacketKey {
    /// Folds the key into one u64 for Chrome-trace async-event ids.
    pub fn id(self) -> u64 {
        (u64::from(self.src.0) << 48) | (self.inject_cycle & 0xFFFF_FFFF_FFFF)
    }
}

/// One packet lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketEventKind {
    /// Head flit entered the network at its source NIC.
    Inject,
    /// Head flit won VC allocation at a router.
    VcAlloc,
    /// Head flit started traversing a link.
    Hop,
    /// Tail flit ejected — the packet is complete.
    Eject,
}

impl PacketEventKind {
    /// Stable snake_case name (JSONL `event` field).
    pub fn name(self) -> &'static str {
        match self {
            PacketEventKind::Inject => "inject",
            PacketEventKind::VcAlloc => "vc_alloc",
            PacketEventKind::Hop => "hop",
            PacketEventKind::Eject => "eject",
        }
    }
}

/// One recorded event of the packet tracer's ring buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketEvent {
    /// Lifecycle stage.
    pub kind: PacketEventKind,
    /// Packet identity.
    pub key: PacketKey,
    /// Packet destination.
    pub dst: NodeId,
    /// Cycle the event happened.
    pub cycle: u64,
    /// Global id of the router where it happened (`u16::MAX` = n/a).
    pub node: u16,
    /// Link being traversed (`Hop` only; `u32::MAX` otherwise).
    pub link: u32,
    /// Output VC granted (`VcAlloc` only; `u8::MAX` otherwise).
    pub vc: u8,
}

// ---- the probe trait ----------------------------------------------------

/// Compile-time engine hook. Implementations observe the active engine;
/// they must never mutate simulation state (they receive only shared
/// views of it), and the engine guarantees the hook *sites* cost nothing
/// when `ENABLED` is false — every call is guarded by
/// `if P::ENABLED { … }` on the monomorphized constant.
///
/// All hooks default to no-ops so a probe implements only what it needs.
pub trait Probe {
    /// Compile-time gate: `false` removes every hook site from the
    /// generated code. Leave at `true` for real probes.
    const ENABLED: bool = true;

    /// A packet's head flit entered the network at node `key.src`.
    fn on_inject(&mut self, _key: PacketKey, _dst: NodeId, _flits: u32, _now: u64) {}

    /// A packet's head won VC allocation at router `node`.
    fn on_vc_alloc(&mut self, _key: PacketKey, _node: NodeId, _out_vc: u8, _now: u64) {}

    /// A packet's head flit started traversing `link`.
    fn on_hop(&mut self, _key: PacketKey, _link: u32, _now: u64) {}

    /// A packet's tail flit ejected at router `node` (packet complete).
    fn on_eject(&mut self, _key: PacketKey, _node: NodeId, _now: u64) {}

    /// A progress attempt failed this cycle (see [`StallCause`]) at
    /// router / source `node` (global id).
    fn on_stall(&mut self, _cause: StallCause, _node: NodeId, _now: u64) {}

    /// One superstep mailbox bundle moved from shard `from` to shard
    /// `to` carrying `flits` boundary flits and `credits` credit returns.
    fn on_exchange(&mut self, _from: usize, _to: usize, _flits: usize, _credits: usize, _now: u64) {
    }

    /// A shard finished simulating cycle `now`. Called once per shard
    /// per stepped cycle (idle gaps are fast-forwarded, so consecutive
    /// calls may jump in `now`).
    fn on_cycle_end(&mut self, _view: EngineView<'_>, _now: u64) {}
}

/// The zero-cost default probe: `ENABLED = false`, so the engine's hook
/// sites compile away entirely.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    const ENABLED: bool = false;
}

// ---- engine view --------------------------------------------------------

/// Read-only window into one shard's engine state, handed to
/// [`Probe::on_cycle_end`]. Borrowed for the duration of the call only.
pub struct EngineView<'a> {
    pub(crate) state: &'a ShardState,
    pub(crate) plan: &'a EnginePlan<'a>,
}

impl EngineView<'_> {
    /// This shard's index.
    pub fn shard_id(&self) -> usize {
        self.state.id
    }

    /// Shard count of the run.
    pub fn num_shards(&self) -> usize {
        self.plan.partition.num_shards()
    }

    /// Virtual channels per port.
    pub fn vcs(&self) -> usize {
        self.plan.cfg.vcs
    }

    /// Links in the topology (global count; `stats().link_flits` only
    /// grows on the entries this shard owns).
    pub fn num_links(&self) -> usize {
        self.plan.topo.links().len()
    }

    /// This shard's cumulative statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.state.stats
    }

    /// Flits currently sitting in this shard's VC buffers.
    pub fn buffered_flits(&self) -> u64 {
        self.state.ctl.iter().map(|c| u64::from(c.buffered)).sum()
    }

    /// Flits currently traversing links into this shard (booked in the
    /// arrival calendar).
    pub fn calendar_flits(&self) -> u64 {
        self.state.inflight_arrivals
    }

    /// Non-empty buckets of this shard's arrival calendar wheel.
    pub fn calendar_buckets(&self) -> u64 {
        self.state.wheel.iter().filter(|b| !b.is_empty()).count() as u64
    }

    /// Buffered flits per VC index (summed over this shard's ports).
    pub fn vc_occupancy(&self) -> Vec<u64> {
        self.state.vc_occupancy(self.plan.cfg.vcs)
    }

    /// Closed-loop window occupancy: packets this shard's sources have
    /// emitted but not yet seen fully ejected (0 open-loop).
    pub fn window_outstanding(&self) -> u64 {
        self.state.outstanding.iter().map(|&o| u64::from(o)).sum()
    }
}

// ---- metrics sampler ----------------------------------------------------

/// One interval of the sampled time series. Counters are deltas over
/// `span` cycles; gauges are end-of-interval values summed over shards.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSample {
    /// Last cycle the sample covers (sampled at the end of this cycle).
    pub cycle: u64,
    /// Cycles since the previous sample. Idle fast-forward can skip
    /// whole intervals, so `span` may exceed the configured interval.
    pub span: u64,
    /// Flits injected during the interval.
    pub injected: u64,
    /// Flits delivered during the interval.
    pub delivered: u64,
    /// Stall events during the interval, indexed like [`StallCause::ALL`].
    pub stalls: [u64; 5],
    /// Mean per-link utilization over the interval (flits per cycle).
    pub link_util_mean: f64,
    /// Peak per-link utilization over the interval.
    pub link_util_max: f64,
    /// Link id attaining the peak (`u32::MAX` when idle).
    pub link_util_argmax: u32,
    /// End-of-interval buffered flits per VC index.
    pub vc_occupancy: Vec<u64>,
    /// End-of-interval flits in VC buffers (all shards).
    pub buffered_flits: u64,
    /// End-of-interval flits in flight on links.
    pub calendar_flits: u64,
    /// End-of-interval occupied calendar-wheel buckets.
    pub calendar_buckets: u64,
    /// End-of-interval closed-loop window occupancy (0 open-loop).
    pub window_outstanding: u64,
    /// Boundary flits exchanged through shard mailboxes in the interval.
    pub mailbox_flits: u64,
    /// Credit returns exchanged through shard mailboxes in the interval.
    pub mailbox_credits: u64,
    /// Per-shard-edge mailbox volume in the interval (only edges with
    /// traffic): `(from, to, flits, credits)`.
    pub mailbox_edges: Vec<(u16, u16, u64, u64)>,
    /// Per-tenant stall events during the interval, outer index = tenant,
    /// inner indexed like [`StallCause::ALL`]. Empty unless the sampler
    /// was built with [`MetricsSampler::with_tenants`].
    pub tenant_stalls: Vec<[u64; 5]>,
}

impl MetricsSample {
    fn to_json(&self) -> Json {
        let mut o = Obj::new()
            .field("cycle", self.cycle)
            .field("span", self.span)
            .field("injected", self.injected)
            .field("delivered", self.delivered);
        for (i, cause) in StallCause::ALL.iter().enumerate() {
            o = o.field(&format!("stall_{}", cause.name()), self.stalls[i]);
        }
        o = o
            .field("link_util_mean", Json::fixed(self.link_util_mean, 6))
            .field("link_util_max", Json::fixed(self.link_util_max, 6))
            .field(
                "link_util_argmax",
                if self.link_util_argmax == u32::MAX {
                    Json::Null
                } else {
                    Json::UInt(u64::from(self.link_util_argmax))
                },
            )
            .field(
                "vc_occupancy",
                Json::Arr(self.vc_occupancy.iter().map(|&v| Json::UInt(v)).collect()),
            )
            .field("buffered_flits", self.buffered_flits)
            .field("calendar_flits", self.calendar_flits)
            .field("calendar_buckets", self.calendar_buckets)
            .field("window_outstanding", self.window_outstanding)
            .field("mailbox_flits", self.mailbox_flits)
            .field("mailbox_credits", self.mailbox_credits)
            .field(
                "mailbox_edges",
                Json::Arr(
                    self.mailbox_edges
                        .iter()
                        .map(|&(f, t, fl, cr)| {
                            Obj::new()
                                .field("from", f)
                                .field("to", t)
                                .field("flits", fl)
                                .field("credits", cr)
                                .build()
                        })
                        .collect(),
                ),
            );
        if !self.tenant_stalls.is_empty() {
            o = o.field(
                "tenant_stalls",
                Json::Arr(
                    self.tenant_stalls
                        .iter()
                        .map(|lane| Json::Arr(lane.iter().map(|&v| Json::UInt(v)).collect()))
                        .collect(),
                ),
            );
        }
        o.build()
    }
}

/// Gauges of one in-progress cycle, accumulated across the shards that
/// report it (the probed run is single-worker, so one sampler sees all
/// shards of every stepped cycle).
#[derive(Debug, Default, Clone)]
struct CycleGauges {
    cycle: u64,
    shards_seen: usize,
    injected: u64,
    delivered: u64,
    link_flits: Vec<u64>,
    buffered: u64,
    calendar_flits: u64,
    calendar_buckets: u64,
    window: u64,
    vc_occupancy: Vec<u64>,
}

/// Probe sampling per-interval time series — see the module docs for
/// the field list and [`MetricsSample`] for semantics.
#[derive(Debug, Clone)]
pub struct MetricsSampler {
    interval: u64,
    next_boundary: u64,
    // Cumulative counters fed by hooks (stall / exchange events).
    stalls: [u64; 5],
    // Tenant attribution for stall events: global node → tenant id.
    // Empty when the run is single-tenant (no per-tenant lanes).
    tenant_of_node: Vec<u16>,
    tenant_stalls: Vec<[u64; 5]>,
    mailbox_flits: u64,
    mailbox_credits: u64,
    mailbox_edges: Vec<(u16, u16, u64, u64)>,
    // Cumulative counters at the previous sample, for delta conversion.
    prev: Option<MetricsPrev>,
    cur: CycleGauges,
    samples: Vec<MetricsSample>,
}

#[derive(Debug, Clone)]
struct MetricsPrev {
    cycle_end: u64,
    injected: u64,
    delivered: u64,
    link_flits: Vec<u64>,
    stalls: [u64; 5],
    tenant_stalls: Vec<[u64; 5]>,
    mailbox_flits: u64,
    mailbox_credits: u64,
    mailbox_edges: Vec<(u16, u16, u64, u64)>,
}

impl MetricsSampler {
    /// A sampler recording one sample per `interval` cycles (≥ 1).
    pub fn new(interval: u64) -> Self {
        let interval = interval.max(1);
        MetricsSampler {
            interval,
            next_boundary: interval,
            stalls: [0; 5],
            tenant_of_node: Vec::new(),
            tenant_stalls: Vec::new(),
            mailbox_flits: 0,
            mailbox_credits: 0,
            mailbox_edges: Vec::new(),
            prev: None,
            cur: CycleGauges::default(),
            samples: Vec::new(),
        }
    }

    /// Attributes stall events to tenants: each sample gains a
    /// `tenant_stalls` lane per tenant, split by [`StallCause`]. The map
    /// must cover the run's topology (same map handed to the engine via
    /// `with_tenants`).
    pub fn with_tenants(mut self, map: &TenantMap) -> Self {
        self.tenant_of_node = map.tenant_of_node.clone();
        self.tenant_stalls = vec![[0; 5]; map.tenants];
        self
    }

    /// The recorded samples so far.
    pub fn samples(&self) -> &[MetricsSample] {
        &self.samples
    }

    /// The configured sampling interval.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Renders the samples as JSONL (one sample object per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&s.to_json().render_compact());
            out.push('\n');
        }
        out
    }

    fn record_sample(&mut self) {
        let cycle_end = self.cur.cycle + 1;
        let prev_cycle_end = self.prev.as_ref().map_or(0, |p| p.cycle_end);
        let span = cycle_end.saturating_sub(prev_cycle_end).max(1);
        let nlinks = self.cur.link_flits.len();
        let mut util_sum = 0.0;
        let mut util_max = 0.0f64;
        let mut argmax = u32::MAX;
        for (l, &cum) in self.cur.link_flits.iter().enumerate() {
            let before = self.prev.as_ref().map_or(0, |p| p.link_flits[l]);
            let util = (cum - before) as f64 / span as f64;
            util_sum += util;
            if util > util_max {
                util_max = util;
                argmax = l as u32;
            }
        }
        let delta = |cum: u64, prev: u64| cum - prev;
        let p = self.prev.as_ref();
        let mut stalls = [0u64; 5];
        for (i, s) in stalls.iter_mut().enumerate() {
            *s = delta(self.stalls[i], p.map_or(0, |p| p.stalls[i]));
        }
        let tenant_stalls: Vec<[u64; 5]> = self
            .tenant_stalls
            .iter()
            .enumerate()
            .map(|(t, lane)| {
                let mut d = [0u64; 5];
                for (i, v) in d.iter_mut().enumerate() {
                    *v = delta(lane[i], p.map_or(0, |p| p.tenant_stalls[t][i]));
                }
                d
            })
            .collect();
        let prev_edges = p.map_or(&[][..], |p| &p.mailbox_edges[..]);
        let mailbox_edges: Vec<(u16, u16, u64, u64)> = self
            .mailbox_edges
            .iter()
            .map(|&(f, t, fl, cr)| {
                let (pf, pc) = prev_edges
                    .iter()
                    .find(|&&(ef, et, _, _)| ef == f && et == t)
                    .map_or((0, 0), |&(_, _, fl, cr)| (fl, cr));
                (f, t, fl - pf, cr - pc)
            })
            .filter(|&(_, _, fl, cr)| fl > 0 || cr > 0)
            .collect();
        self.samples.push(MetricsSample {
            cycle: self.cur.cycle,
            span,
            injected: delta(self.cur.injected, p.map_or(0, |p| p.injected)),
            delivered: delta(self.cur.delivered, p.map_or(0, |p| p.delivered)),
            stalls,
            link_util_mean: if nlinks == 0 {
                0.0
            } else {
                util_sum / nlinks as f64
            },
            link_util_max: util_max,
            link_util_argmax: argmax,
            vc_occupancy: self.cur.vc_occupancy.clone(),
            buffered_flits: self.cur.buffered,
            calendar_flits: self.cur.calendar_flits,
            calendar_buckets: self.cur.calendar_buckets,
            window_outstanding: self.cur.window,
            mailbox_flits: delta(self.mailbox_flits, p.map_or(0, |p| p.mailbox_flits)),
            mailbox_credits: delta(self.mailbox_credits, p.map_or(0, |p| p.mailbox_credits)),
            mailbox_edges,
            tenant_stalls,
        });
        self.prev = Some(MetricsPrev {
            cycle_end,
            injected: self.cur.injected,
            delivered: self.cur.delivered,
            link_flits: self.cur.link_flits.clone(),
            stalls: self.stalls,
            tenant_stalls: self.tenant_stalls.clone(),
            mailbox_flits: self.mailbox_flits,
            mailbox_credits: self.mailbox_credits,
            mailbox_edges: self.mailbox_edges.clone(),
        });
        // Align the next boundary to the interval grid past this sample.
        self.next_boundary = (cycle_end / self.interval + 1) * self.interval;
    }
}

impl Probe for MetricsSampler {
    fn on_stall(&mut self, cause: StallCause, node: NodeId, _now: u64) {
        self.stalls[cause.index()] += 1;
        if let Some(&t) = self.tenant_of_node.get(usize::from(node.0)) {
            self.tenant_stalls[usize::from(t)][cause.index()] += 1;
        }
    }

    fn on_exchange(&mut self, from: usize, to: usize, flits: usize, credits: usize, _now: u64) {
        self.mailbox_flits += flits as u64;
        self.mailbox_credits += credits as u64;
        let (from, to) = (from as u16, to as u16);
        match self
            .mailbox_edges
            .iter_mut()
            .find(|e| e.0 == from && e.1 == to)
        {
            Some(e) => {
                e.2 += flits as u64;
                e.3 += credits as u64;
            }
            None => {
                self.mailbox_edges
                    .push((from, to, flits as u64, credits as u64));
                self.mailbox_edges.sort_unstable_by_key(|e| (e.0, e.1));
            }
        }
    }

    fn on_cycle_end(&mut self, view: EngineView<'_>, now: u64) {
        if self.cur.shards_seen == 0 || self.cur.cycle != now {
            // First shard of a fresh cycle (fast-forward may have skipped
            // many): reset the gauge accumulators.
            self.cur = CycleGauges {
                cycle: now,
                shards_seen: 0,
                link_flits: vec![0; view.num_links()],
                vc_occupancy: vec![0; view.vcs()],
                ..CycleGauges::default()
            };
        }
        let stats = view.stats();
        self.cur.injected += stats.flits_injected;
        self.cur.delivered += stats.flits_delivered;
        for (acc, &v) in self.cur.link_flits.iter_mut().zip(&stats.link_flits) {
            *acc += v;
        }
        self.cur.buffered += view.buffered_flits();
        self.cur.calendar_flits += view.calendar_flits();
        self.cur.calendar_buckets += view.calendar_buckets();
        self.cur.window += view.window_outstanding();
        for (acc, v) in self.cur.vc_occupancy.iter_mut().zip(view.vc_occupancy()) {
            *acc += v;
        }
        self.cur.shards_seen += 1;
        if self.cur.shards_seen == view.num_shards() && now + 1 >= self.next_boundary {
            self.record_sample();
        }
    }
}

// ---- packet tracer ------------------------------------------------------

/// Ring-buffered packet lifecycle tracer. Keeps the most recent
/// `capacity` events; older ones are dropped (and counted), so tracing
/// a long run keeps bounded memory and the *end* of the run — which is
/// where a stall or crash bisection usually needs to look.
#[derive(Debug, Clone)]
pub struct PacketTracer {
    capacity: usize,
    events: VecDeque<PacketEvent>,
    dropped: u64,
}

impl PacketTracer {
    /// A tracer retaining at most `capacity` events (≥ 1).
    pub fn new(capacity: usize) -> Self {
        PacketTracer {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &PacketEvent> {
        self.events.iter()
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The ring's capacity (events retained before eviction starts).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn push(&mut self, ev: PacketEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    fn event_json(ev: &PacketEvent) -> Json {
        Obj::new()
            .field("event", ev.kind.name())
            .field("cycle", ev.cycle)
            .field("src", ev.key.src.0)
            .field("dst", ev.dst.0)
            .field(
                "inject_cycle",
                if ev.key.inject_cycle == u64::MAX {
                    Json::Null
                } else {
                    Json::UInt(ev.key.inject_cycle)
                },
            )
            .field(
                "node",
                if ev.node == u16::MAX {
                    Json::Null
                } else {
                    Json::UInt(u64::from(ev.node))
                },
            )
            .field(
                "link",
                if ev.link == u32::MAX {
                    Json::Null
                } else {
                    Json::UInt(u64::from(ev.link))
                },
            )
            .field(
                "vc",
                if ev.vc == u8::MAX {
                    Json::Null
                } else {
                    Json::UInt(u64::from(ev.vc))
                },
            )
            .build()
    }

    /// Renders the retained events as JSONL, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&Self::event_json(ev).render_compact());
            out.push('\n');
        }
        out
    }

    /// Renders the retained events in Chrome `trace_event` format
    /// (load in `about://tracing` or <https://ui.perfetto.dev>). Each
    /// packet is a nestable async span (`b`…`e`) on its source node's
    /// track, with VC-allocate and hop instants (`n`) riding the span;
    /// one simulated cycle maps to one microsecond.
    pub fn to_chrome_trace(&self) -> String {
        let events: Vec<Json> = self
            .events
            .iter()
            .map(|ev| {
                let ph = match ev.kind {
                    PacketEventKind::Inject => "b",
                    PacketEventKind::Eject => "e",
                    PacketEventKind::VcAlloc | PacketEventKind::Hop => "n",
                };
                let mut args = Obj::new().field("dst", ev.dst.0);
                if ev.link != u32::MAX {
                    args = args.field("link", ev.link);
                }
                if ev.vc != u8::MAX {
                    args = args.field("vc", ev.vc);
                }
                if ev.node != u16::MAX {
                    args = args.field("node", ev.node);
                }
                Obj::new()
                    .field(
                        "name",
                        match ev.kind {
                            PacketEventKind::VcAlloc => "vc_alloc".to_string(),
                            PacketEventKind::Hop => "hop".to_string(),
                            _ => format!("pkt {}->{}", ev.key.src.0, ev.dst.0),
                        },
                    )
                    .field("cat", "packet")
                    .field("ph", ph)
                    .field("id", ev.key.id())
                    .field("ts", ev.cycle)
                    .field("pid", 0u64)
                    .field("tid", ev.key.src.0)
                    .field("args", args)
                    .build()
            })
            .collect();
        Obj::new()
            .field("traceEvents", Json::Arr(events))
            .field("displayTimeUnit", "ns")
            .field(
                "otherData",
                Obj::new()
                    .field("time_unit", "1 cycle = 1 us")
                    .field("dropped_events", self.dropped),
            )
            .build()
            .render()
    }
}

impl Probe for PacketTracer {
    fn on_inject(&mut self, key: PacketKey, dst: NodeId, _flits: u32, now: u64) {
        self.push(PacketEvent {
            kind: PacketEventKind::Inject,
            key,
            dst,
            cycle: now,
            node: key.src.0,
            link: u32::MAX,
            vc: u8::MAX,
        });
    }

    fn on_vc_alloc(&mut self, key: PacketKey, node: NodeId, out_vc: u8, now: u64) {
        self.push(PacketEvent {
            kind: PacketEventKind::VcAlloc,
            key,
            dst: NodeId(u16::MAX),
            cycle: now,
            node: node.0,
            link: u32::MAX,
            vc: out_vc,
        });
    }

    fn on_hop(&mut self, key: PacketKey, link: u32, now: u64) {
        self.push(PacketEvent {
            kind: PacketEventKind::Hop,
            key,
            dst: NodeId(u16::MAX),
            cycle: now,
            node: u16::MAX,
            link,
            vc: u8::MAX,
        });
    }

    fn on_eject(&mut self, key: PacketKey, node: NodeId, now: u64) {
        self.push(PacketEvent {
            kind: PacketEventKind::Eject,
            key,
            dst: NodeId(node.0),
            cycle: now,
            node: node.0,
            link: u32::MAX,
            vc: u8::MAX,
        });
    }
}

// ---- flight recorder ----------------------------------------------------

/// Composite probe bundling an optional [`MetricsSampler`] and an
/// optional [`PacketTracer`] — the one-stop probe the `--metrics` /
/// `--trace` driver flags attach.
#[derive(Debug, Default, Clone)]
pub struct FlightRecorder {
    /// Time-series sampler, when metrics were requested.
    pub sampler: Option<MetricsSampler>,
    /// Lifecycle tracer, when a packet trace was requested.
    pub tracer: Option<PacketTracer>,
}

impl FlightRecorder {
    /// Default sampling interval, cycles.
    pub const DEFAULT_INTERVAL: u64 = 100;
    /// Default trace ring capacity, events.
    pub const DEFAULT_TRACE_CAPACITY: usize = 200_000;

    /// A recorder with nothing attached (equivalent to an enabled probe
    /// that records nothing — use [`NoopProbe`] for zero cost instead).
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// Attaches a metrics sampler with the given interval.
    #[must_use]
    pub fn with_metrics(mut self, interval: u64) -> Self {
        self.sampler = Some(MetricsSampler::new(interval));
        self
    }

    /// Attaches a packet tracer with the given ring capacity.
    #[must_use]
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.tracer = Some(PacketTracer::new(capacity));
        self
    }
}

impl Probe for FlightRecorder {
    fn on_inject(&mut self, key: PacketKey, dst: NodeId, flits: u32, now: u64) {
        if let Some(t) = &mut self.tracer {
            t.on_inject(key, dst, flits, now);
        }
    }

    fn on_vc_alloc(&mut self, key: PacketKey, node: NodeId, out_vc: u8, now: u64) {
        if let Some(t) = &mut self.tracer {
            t.on_vc_alloc(key, node, out_vc, now);
        }
    }

    fn on_hop(&mut self, key: PacketKey, link: u32, now: u64) {
        if let Some(t) = &mut self.tracer {
            t.on_hop(key, link, now);
        }
    }

    fn on_eject(&mut self, key: PacketKey, node: NodeId, now: u64) {
        if let Some(t) = &mut self.tracer {
            t.on_eject(key, node, now);
        }
    }

    fn on_stall(&mut self, cause: StallCause, node: NodeId, now: u64) {
        if let Some(s) = &mut self.sampler {
            s.on_stall(cause, node, now);
        }
    }

    fn on_exchange(&mut self, from: usize, to: usize, flits: usize, credits: usize, now: u64) {
        if let Some(s) = &mut self.sampler {
            s.on_exchange(from, to, flits, credits, now);
        }
    }

    fn on_cycle_end(&mut self, view: EngineView<'_>, now: u64) {
        if let Some(s) = &mut self.sampler {
            s.on_cycle_end(view, now);
        }
    }
}

// ---- driver wiring ------------------------------------------------------

/// Parsed `--metrics PATH` / `--trace PATH` / `--trace-cap N` options,
/// threaded through the `repro` drivers and `perfcheck`.
#[derive(Debug, Default, Clone)]
pub struct TelemetryOpts {
    /// Metrics JSONL output path (`--metrics PATH`).
    pub metrics: Option<String>,
    /// Packet trace output path (`--trace PATH`). A `.jsonl` extension
    /// selects JSONL; anything else gets Chrome `trace_event` JSON.
    pub trace: Option<String>,
    /// Packet-trace ring capacity (`--trace-cap N`); 0 keeps
    /// [`FlightRecorder::DEFAULT_TRACE_CAPACITY`]. Long runs overflow
    /// the default ring by orders of magnitude — raise this (or expect
    /// the loud drop warning from [`TelemetryOpts::write`]).
    pub trace_cap: usize,
}

impl TelemetryOpts {
    /// True when any telemetry output was requested.
    pub fn enabled(&self) -> bool {
        self.metrics.is_some() || self.trace.is_some()
    }

    /// Builds the recorder matching the requested outputs (default
    /// interval; `--trace-cap` or the default ring capacity).
    pub fn recorder(&self) -> FlightRecorder {
        let mut r = FlightRecorder::new();
        if self.metrics.is_some() {
            r = r.with_metrics(FlightRecorder::DEFAULT_INTERVAL);
        }
        if self.trace.is_some() {
            let cap = if self.trace_cap > 0 {
                self.trace_cap
            } else {
                FlightRecorder::DEFAULT_TRACE_CAPACITY
            };
            r = r.with_trace(cap);
        }
        r
    }

    /// Writes the recorder's artifacts to the requested paths. A trace
    /// ring that overflowed warns loudly on stderr with the drop ratio —
    /// a silently truncated trace reads as a complete one.
    pub fn write(&self, rec: &FlightRecorder) -> std::io::Result<Vec<String>> {
        let mut written = Vec::new();
        if let (Some(path), Some(s)) = (&self.metrics, &rec.sampler) {
            std::fs::write(path, s.to_jsonl())?;
            written.push(path.clone());
        }
        if let (Some(path), Some(t)) = (&self.trace, &rec.tracer) {
            if t.dropped() > 0 {
                let kept = t.events().count() as u64;
                eprintln!(
                    "WARNING: packet trace ring overflowed: {} events dropped, {} kept \
                     ({:.1}% of the run lost — only the run's tail was retained). \
                     Raise the ring with --trace-cap N (current: {}).",
                    t.dropped(),
                    kept,
                    100.0 * t.dropped() as f64 / (t.dropped() + kept) as f64,
                    kept,
                );
            }
            let body = if path.ends_with(".jsonl") {
                t.to_jsonl()
            } else {
                t.to_chrome_trace()
            };
            std::fs::write(path, body)?;
            written.push(path.clone());
        }
        Ok(written)
    }
}

// ---- engine self-profiling ----------------------------------------------

/// Per-superstep-phase wall time of a sharded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineProfile {
    /// Nanoseconds in the step phase (the five pipeline stages), summed
    /// over workers.
    pub step_ns: u64,
    /// Nanoseconds posting/collecting mailboxes and publishing activity.
    pub exchange_ns: u64,
    /// Nanoseconds blocked in the superstep barriers.
    pub barrier_ns: u64,
    /// Supersteps (stepped cycles) executed, summed over workers — with
    /// W workers each stepped cycle counts W times.
    pub supersteps: u64,
    /// Worker threads that contributed.
    pub workers: usize,
}

impl EngineProfile {
    /// Total accounted nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.step_ns + self.exchange_ns + self.barrier_ns
    }

    /// Fraction of accounted time spent in `phase_ns`.
    pub fn fraction(&self, phase_ns: u64) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            phase_ns as f64 / total as f64
        }
    }
}

/// Thread-safe accumulator the workers of one sharded run flush their
/// phase timings into, one flush per worker. Independent of the
/// [`Probe`] machinery, so it composes with multi-threaded runs.
#[derive(Debug, Default)]
pub struct ProfileSink {
    step_ns: AtomicU64,
    exchange_ns: AtomicU64,
    barrier_ns: AtomicU64,
    supersteps: AtomicU64,
    workers: AtomicUsize,
}

impl ProfileSink {
    /// An empty sink.
    pub fn new() -> Self {
        ProfileSink::default()
    }

    /// Adds one worker's accumulated phase times.
    pub(crate) fn add(&self, step_ns: u64, exchange_ns: u64, barrier_ns: u64, supersteps: u64) {
        self.step_ns.fetch_add(step_ns, Ordering::Relaxed);
        self.exchange_ns.fetch_add(exchange_ns, Ordering::Relaxed);
        self.barrier_ns.fetch_add(barrier_ns, Ordering::Relaxed);
        self.supersteps.fetch_add(supersteps, Ordering::Relaxed);
        self.workers.fetch_add(1, Ordering::Relaxed);
    }

    /// The accumulated profile (call after the run joined its workers);
    /// `workers` counts the workers that flushed.
    pub fn profile(&self) -> EngineProfile {
        EngineProfile {
            step_ns: self.step_ns.load(Ordering::Relaxed),
            exchange_ns: self.exchange_ns.load(Ordering::Relaxed),
            barrier_ns: self.barrier_ns.load(Ordering::Relaxed),
            supersteps: self.supersteps.load(Ordering::Relaxed),
            workers: self.workers.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_names_and_indices_are_stable() {
        for (i, c) in StallCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(StallCause::CreditStarved.name(), "credit_starved");
    }

    #[test]
    fn packet_key_id_separates_sources_and_cycles() {
        let a = PacketKey {
            src: NodeId(1),
            inject_cycle: 100,
        };
        let b = PacketKey {
            src: NodeId(2),
            inject_cycle: 100,
        };
        let c = PacketKey {
            src: NodeId(1),
            inject_cycle: 101,
        };
        assert_ne!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn tracer_ring_drops_oldest() {
        let mut t = PacketTracer::new(2);
        for cycle in 0..5u64 {
            t.on_inject(
                PacketKey {
                    src: NodeId(0),
                    inject_cycle: cycle,
                },
                NodeId(1),
                1,
                cycle,
            );
        }
        assert_eq!(t.dropped(), 3);
        let cycles: Vec<u64> = t.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![3, 4]);
        // Both exports stay well-formed on the partial ring.
        assert_eq!(t.to_jsonl().lines().count(), 2);
        let chrome = t.to_chrome_trace();
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"dropped_events\": 3"));
    }

    #[test]
    fn trace_cap_sizes_the_ring_and_accounts_drops() {
        // `--trace-cap N` must actually size the recorder's ring…
        let opts = TelemetryOpts {
            trace: Some("unused.jsonl".into()),
            trace_cap: 3,
            ..TelemetryOpts::default()
        };
        let mut rec = opts.recorder();
        let t = rec.tracer.as_mut().expect("tracer attached");
        for cycle in 0..10u64 {
            t.on_inject(
                PacketKey {
                    src: NodeId(0),
                    inject_cycle: cycle,
                },
                NodeId(1),
                1,
                cycle,
            );
        }
        // …and kept + dropped must account for every event pushed, so
        // the overflow warning's drop ratio is exact.
        let t = rec.tracer.as_ref().expect("tracer attached");
        assert_eq!(t.events().count(), 3);
        assert_eq!(t.dropped(), 7);
        assert_eq!(t.events().count() as u64 + t.dropped(), 10);
        // trace_cap = 0 keeps the default capacity.
        let default_opts = TelemetryOpts {
            trace: Some("unused.jsonl".into()),
            ..TelemetryOpts::default()
        };
        let rec = default_opts.recorder();
        assert_eq!(
            rec.tracer.expect("tracer attached").capacity(),
            FlightRecorder::DEFAULT_TRACE_CAPACITY
        );
    }

    #[test]
    fn chrome_trace_pairs_async_begin_end() {
        let mut t = PacketTracer::new(16);
        let key = PacketKey {
            src: NodeId(3),
            inject_cycle: 10,
        };
        t.on_inject(key, NodeId(7), 1, 10);
        t.on_hop(key, 42, 12);
        t.on_eject(key, NodeId(7), 20);
        let chrome = t.to_chrome_trace();
        assert!(chrome.contains("\"ph\": \"b\""));
        assert!(chrome.contains("\"ph\": \"n\""));
        assert!(chrome.contains("\"ph\": \"e\""));
        assert!(chrome.contains("\"link\": 42"));
        // The async span id ties begin to end.
        assert_eq!(chrome.matches(&format!("\"id\": {}", key.id())).count(), 3);
    }

    #[test]
    fn sampler_delta_conversion() {
        let mut s = MetricsSampler::new(10);
        s.on_stall(StallCause::VaLoss, NodeId(0), 3);
        s.on_stall(StallCause::VaLoss, NodeId(1), 4);
        s.on_exchange(0, 1, 5, 2, 4);
        // Drive record_sample directly (the engine path is covered by
        // tests/telemetry_parity.rs): two intervals of fake gauges.
        s.cur = CycleGauges {
            cycle: 9,
            shards_seen: 1,
            injected: 100,
            delivered: 60,
            link_flits: vec![40, 0],
            buffered: 7,
            calendar_flits: 3,
            calendar_buckets: 2,
            window: 0,
            vc_occupancy: vec![4, 3],
        };
        s.record_sample();
        s.on_stall(StallCause::SaLoss, NodeId(2), 15);
        s.on_exchange(0, 1, 1, 0, 15);
        s.cur = CycleGauges {
            cycle: 19,
            shards_seen: 1,
            injected: 150,
            delivered: 140,
            link_flits: vec![60, 10],
            buffered: 1,
            calendar_flits: 0,
            calendar_buckets: 0,
            window: 0,
            vc_occupancy: vec![1, 0],
        };
        s.record_sample();
        let [a, b] = s.samples() else {
            panic!("two samples expected");
        };
        assert_eq!((a.cycle, a.span), (9, 10));
        assert_eq!((a.injected, a.delivered), (100, 60));
        assert_eq!(a.stalls[StallCause::VaLoss.index()], 2);
        assert_eq!(a.mailbox_flits, 5);
        assert_eq!(a.mailbox_edges, vec![(0, 1, 5, 2)]);
        assert!((a.link_util_max - 4.0).abs() < 1e-9);
        assert_eq!(a.link_util_argmax, 0);
        // Second sample reports deltas, not cumulative values.
        assert_eq!((b.injected, b.delivered), (50, 80));
        assert_eq!(b.stalls[StallCause::VaLoss.index()], 0);
        assert_eq!(b.stalls[StallCause::SaLoss.index()], 1);
        assert_eq!(b.mailbox_flits, 1);
        assert_eq!(b.mailbox_edges, vec![(0, 1, 1, 0)]);
        assert_eq!(b.vc_occupancy, vec![1, 0]);
        // JSONL export: one line per sample, parseable keys present.
        let jsonl = s.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"stall_va_loss\": 2"));
        assert!(jsonl.contains("\"mailbox_edges\""));
    }

    #[test]
    fn profile_sink_accumulates_and_fractions() {
        let sink = ProfileSink::new();
        sink.add(600, 300, 100, 50);
        sink.add(400, 200, 400, 50);
        let p = sink.profile();
        assert_eq!(p.workers, 2);
        assert_eq!(p.step_ns, 1000);
        assert_eq!(p.exchange_ns, 500);
        assert_eq!(p.barrier_ns, 500);
        assert_eq!(p.supersteps, 100);
        assert_eq!(p.total_ns(), 2000);
        assert!((p.fraction(p.step_ns) - 0.5).abs() < 1e-12);
        let empty = ProfileSink::new().profile();
        assert_eq!(empty.workers, 0);
        assert_eq!(empty.fraction(0), 0.0);
    }

    #[test]
    fn telemetry_opts_build_matching_recorder() {
        let none = TelemetryOpts::default();
        assert!(!none.enabled());
        let r = none.recorder();
        assert!(r.sampler.is_none() && r.tracer.is_none());
        let both = TelemetryOpts {
            metrics: Some("m.jsonl".into()),
            trace: Some("t.json".into()),
            trace_cap: 0,
        };
        assert!(both.enabled());
        let r = both.recorder();
        assert!(r.sampler.is_some() && r.tracer.is_some());
    }
}
