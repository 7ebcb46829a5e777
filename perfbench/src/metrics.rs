//! Metric names and units, the value store, and the output digest.
//!
//! The two tables below must list the same names, in the same order, as
//! `BENCHMARK.json` at the repository root (a test checks this).

use std::collections::BTreeMap;

/// Host-time metrics a user of the simulator sees, from untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, from traced runs. The prefix before the first `.`
/// names the layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.build_s", "s"),
    ("topology.routes_s", "s"),
    ("topology.routes_rss_mb", "MiB"),
    ("topology.nodes", "count"),
    ("topology.links", "count"),
    ("traffic.gen_s", "s"),
    ("traffic.packets", "count"),
    ("traffic.flits", "count"),
    ("sim.construct_s", "s"),
    ("sim.run_s", "s"),
    ("sim.ns_per_flit_hop", "ns"),
    ("sim.cycles_per_s", "1/s"),
    ("sim.ft.run_s", "s"),
    ("sim.cg.run_s", "s"),
    ("sim.mg.run_s", "s"),
    ("sim.lu.run_s", "s"),
    ("shard.construct_s", "s"),
    ("shard.window", "cycles"),
    ("shard.workers", "count"),
    ("shard.supersteps", "count"),
    ("shard.step_s", "s"),
    ("shard.exchange_s", "s"),
    ("shard.barrier_s", "s"),
    ("shard.barrier_frac", "ratio"),
    ("shard.mailbox_flits", "count"),
    ("shard.mailbox_credits", "count"),
    ("shard.p1_run_s", "s"),
    ("shard.speedup_vs_p1", "ratio"),
    ("sweep.grid_s", "s"),
    ("sweep.saturation_s", "s"),
    ("sweep.runs", "count"),
    ("sweep.grid_cycles", "cycles"),
    ("sweep.threads", "count"),
    ("snapshot.save_us", "us"),
    ("snapshot.decode_us", "us"),
    ("snapshot.restore_us", "us"),
    ("snapshot.bytes", "bytes"),
    ("model.packets", "count"),
    ("model.sim_cycles", "cycles"),
    ("model.flit_hops", "count"),
    ("model.mean_latency_clk", "cycles"),
    ("model.p99_clk", "cycles"),
    ("model.stall.va_loss", "count"),
    ("model.stall.sa_loss", "count"),
    ("model.stall.credit_starved", "count"),
    ("model.stall.window_closed", "count"),
    ("model.link_util_mean", "flits/cycle"),
    ("model.saturation_load", "flits/node/cycle"),
    ("model.zero_load_latency_clk", "cycles"),
    ("model.accepted_throughput", "flits/node/cycle"),
    ("model.hyppi_latency_gain", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Metric values set by name. Setting a name twice is a bug in the
/// workload code, as is setting one no table lists.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "{name} is not a declared metric"
        );
        assert!(self.0.insert(name, value).is_none(), "{name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Median of a non-empty sample.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of a simulation result: FNV-1a over its `Debug` rendering,
/// which prints every field (histograms, per-link and per-router counts)
/// and prints floats exactly, so equal digests mean bit-equal results.
pub fn digest<T: std::fmt::Debug>(value: &T) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric name: 1–64 of `[A-Za-z0-9_.-]`,
    /// starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name {name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading-dot"));
    }

    #[test]
    fn digest_sees_every_field() {
        let a = (vec![1u64, 2, 3], 0.5f64);
        let b = (vec![1u64, 2, 4], 0.5f64);
        let c = (vec![1u64, 2, 3], 0.5f64 + f64::EPSILON);
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
    }
}
