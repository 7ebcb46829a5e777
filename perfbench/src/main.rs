//! Two-commit benchmark of the HyPPI NoC simulator.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload npb16_p1 --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` repeats the workload (set-up, then the timed phase) until
//! `--seconds` have passed, at least three times, and reports the medians
//! of the end-to-end metrics. `--trace 1` runs a fixed traced sequence and
//! reports the per-layer metrics. Either way the last stdout line is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! README.md for the workloads and metrics.

mod host;
mod metrics;
mod spans;
mod workloads;

use hyppi_netsim::json::{Json, Obj};
use metrics::{median, END_TO_END, PER_LAYER};
use spans::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;
use workloads::{Check, Inputs, Kind, Rep, Size, Workload};

/// Fewest repetitions an untraced run takes, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Directory (relative to the working directory) for per-run records.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}; expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Output accounting. The first output seen under a label is the
/// reference; every later output under that label must repeat its digest.
#[derive(Default)]
struct Ledger {
    reference: BTreeMap<String, u64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ledger {
    fn record(&mut self, checks: &[Check]) {
        for c in checks {
            self.attempted += c.ops;
            let problem = match &c.outcome {
                Err(why) => Some(why.clone()),
                Ok(d) => match self.reference.get(&c.label) {
                    None => {
                        self.reference.insert(c.label.clone(), *d);
                        None
                    }
                    Some(r) if r == d => None,
                    Some(r) => Some(format!("digest {d:016x} != reference {r:016x}")),
                },
            };
            if let Some(why) = problem {
                self.failed += c.ops;
                self.failures.push(format!("{}: {why}", c.label));
            }
        }
    }

    fn digests(&self) -> Json {
        self.reference
            .iter()
            .fold(Obj::new(), |o, (label, d)| {
                o.field(label, format!("{d:016x}"))
            })
            .build()
    }
}

/// What one invocation produced.
struct Outcome {
    metrics: Vec<(&'static str, &'static str, f64)>,
    ledger: Ledger,
    /// One row per repetition, in [`END_TO_END`] order.
    reps: Vec<[f64; 4]>,
    spans: Json,
}

/// Runs one repetition and returns it with its [`END_TO_END`] row. The
/// peak RSS is the repetition's own where the kernel can reset the
/// high-water mark, and the process's so far otherwise.
fn measured_rep(w: &Workload, tr: &Tracer) -> (Rep, Inputs, [f64; 4]) {
    host::reset_peak_rss();
    let (rep, inp) = w.rep(tr);
    let row = [rep.setup_s, rep.wall_s, rep.cpu_s, host::peak_rss_mib()];
    (rep, inp, row)
}

/// End-to-end run: repeat set-up + timed phase, report medians.
fn untraced(w: &Workload, seconds: f64) -> Outcome {
    let mut ledger = Ledger::default();
    let mut reps = Vec::new();
    let mut inputs: Option<Inputs> = None;
    let start = Instant::now();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        // The previous inputs are dropped first, so the peak RSS is one
        // repetition's.
        drop(inputs.take());
        let (rep, inp, row) = measured_rep(w, &Tracer::new(false));
        ledger.record(&rep.checks);
        reps.push(row);
        inputs = Some(inp);
    }
    let inp = inputs.expect("at least one repetition ran");
    ledger.record(&w.oracle(&inp, &Tracer::new(false)));
    Outcome {
        metrics: END_TO_END
            .iter()
            .enumerate()
            .map(|(i, &(n, u))| (n, u, median(reps.iter().map(|r| r[i]).collect())))
            .collect(),
        ledger,
        reps,
        spans: Json::Null,
    }
}

/// Per-layer run: a traced repetition in a fresh process (peak-RSS
/// growth), an untraced one and a traced one (tracing overhead), then the
/// oracle and the layer probes, traced together with the last repetition.
fn traced(w: &Workload) -> Outcome {
    let mut ledger = Ledger::default();
    let first = Tracer::new(true);
    let (rep_a, inp, row_a) = measured_rep(w, &first);
    ledger.record(&rep_a.checks);
    drop(inp);
    let (rep_b, inp, row_b) = measured_rep(w, &Tracer::new(false));
    ledger.record(&rep_b.checks);
    drop(inp);
    let tr = Tracer::new(true);
    let (rep_c, inp, row_c) = measured_rep(w, &tr);
    ledger.record(&rep_c.checks);
    ledger.record(&w.oracle(&inp, &tr));

    let mut m = rep_c.counts.clone();
    ledger.record(&w.layers(&inp, &tr, &mut m));
    m.set("topology.build_s", tr.total_s("topology.build", None));
    m.set("topology.routes_s", tr.total_s("topology.routes", None));
    m.set(
        "topology.routes_rss_mb",
        first.total_rss_growth_mib("topology.routes"),
    );
    m.set("traffic.gen_s", tr.total_s("traffic.gen", None));
    m.set("trace.overhead", rep_c.wall_s / rep_b.wall_s);

    let metrics = PER_LAYER
        .iter()
        .map(|&(n, u)| {
            let v = match (w.kind.measures(n), m.get(n)) {
                (true, Some(v)) => v,
                (false, None) => 0.0,
                (true, None) => panic!("{} measures {n} but did not set it", w.kind.name()),
                (false, Some(_)) => panic!("{} set {n}, which it bypasses", w.kind.name()),
            };
            (n, u, v)
        })
        .collect();
    Outcome {
        metrics,
        ledger,
        reps: vec![row_a, row_b, row_c],
        spans: Obj::new()
            .field("first_rep", first.to_json())
            .field("last_rep", tr.to_json())
            .build(),
    }
}

fn run(w: &Workload, seconds: f64, trace: bool) -> Outcome {
    if trace {
        traced(w)
    } else {
        untraced(w, seconds)
    }
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(out: &Outcome) -> String {
    let metrics = out
        .metrics
        .iter()
        .fold(Obj::new(), |o, &(name, unit, value)| {
            o.field(
                name,
                Obj::new().field("value", value).field("unit", unit).build(),
            )
        })
        .build();
    Obj::new()
        .field("correct", out.ledger.failed == 0)
        .field("attempted", out.ledger.attempted)
        .field("failed", out.ledger.failed)
        .field("metrics", metrics)
        .build()
        .render_compact()
}

/// Writes the full record of a run (provenance, digests, per-repetition
/// times, spans) under [`OUT_DIR`].
fn write_record(args: &Args, provenance: &Json, out: &Outcome, line: &str) -> std::io::Result<()> {
    let reps = out
        .reps
        .iter()
        .map(|row| {
            END_TO_END
                .iter()
                .zip(row)
                .fold(Obj::new(), |o, (&(name, _), &v)| o.field(name, v))
                .build()
        })
        .collect::<Vec<Json>>();
    let record = Obj::new()
        .field("provenance", provenance.clone())
        .field("digests", out.ledger.digests())
        .field(
            "failures",
            out.ledger
                .failures
                .iter()
                .map(|f| Json::from(f.as_str()))
                .collect::<Vec<_>>(),
        )
        .field("reps", reps)
        .field("result", Json::Raw(line.to_string()))
        .field("spans", out.spans.clone())
        .build();
    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(path, record.render())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let nproc = host::nproc();
    let available = host::available_parallelism();
    let threads: Vec<(&str, usize)> = Kind::ALL
        .iter()
        .map(|k| (k.name(), k.threads(nproc, available)))
        .collect();
    if let Some((name, t)) = threads.iter().find(|&&(_, t)| t > nproc) {
        eprintln!("perfbench: {name} would use {t} threads on a {nproc}-CPU host");
        std::process::exit(1);
    }
    let provenance = host::provenance(args.kind.name(), args.seed, &threads);
    println!(
        "{}",
        Obj::new()
            .field("provenance", provenance.clone())
            .build()
            .render_compact()
    );

    let w = Workload {
        kind: args.kind,
        size: Size::Full,
        seed: args.seed,
        nproc,
    };
    let out = run(&w, args.seconds, args.trace);
    for (label, d) in &out.ledger.reference {
        println!("digest {label} {d:016x}");
    }
    for f in &out.ledger.failures {
        println!("FAILED {f}");
    }
    let line = result_line(&out);
    if let Err(e) = write_record(&args, &provenance, &out, &line) {
        eprintln!("perfbench: could not write the run record: {e}");
    }
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: Kind) -> Workload {
        Workload {
            kind,
            size: Size::Tiny,
            seed: 7,
            nproc: host::nproc(),
        }
    }

    #[test]
    fn every_workload_runs_tiny_and_emits_its_metrics() {
        for kind in Kind::ALL {
            let w = tiny(kind);
            let e2e = run(&w, 0.0, false);
            assert_eq!(e2e.ledger.failed, 0, "{:?}", e2e.ledger.failures);
            let names: Vec<&str> = e2e.metrics.iter().map(|m| m.0).collect();
            let expected: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
            assert_eq!(names, expected);
            assert!(e2e.metrics.iter().all(|m| m.2 > 0.0), "{:?}", e2e.metrics);

            // `traced` panics if a measured metric is missing.
            let layers = run(&w, 0.0, true);
            assert_eq!(layers.ledger.failed, 0, "{:?}", layers.ledger.failures);
            let names: Vec<&str> = layers.metrics.iter().map(|m| m.0).collect();
            let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
            assert_eq!(names, expected);
            for &(name, _, v) in &layers.metrics {
                assert!(v.is_finite(), "{} {name} = {v}", kind.name());
            }
            // Both runs saw the same outputs.
            for (label, d) in &e2e.ledger.reference {
                if let Some(t) = layers.ledger.reference.get(label) {
                    assert_eq!(d, t, "{} {label}", kind.name());
                }
            }
        }
    }

    #[test]
    fn doctored_digest_fails_the_run() {
        let w = tiny(Kind::Closed32Shard2);
        let (rep, inp) = w.rep(&Tracer::new(false));
        let mut ledger = Ledger::default();
        ledger.record(&rep.checks);
        ledger.record(&w.oracle(&inp, &Tracer::new(false)));
        assert_eq!(ledger.failed, 0);
        let mut doctored = rep.checks.clone();
        if let Ok(d) = &mut doctored[0].outcome {
            *d ^= 1;
        }
        ledger.record(&doctored);
        assert_eq!(ledger.failed, doctored[0].ops);
        let out = Outcome {
            metrics: Vec::new(),
            ledger,
            reps: Vec::new(),
            spans: Json::Null,
        };
        assert!(result_line(&out).starts_with("{\"correct\": false,"));
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload sweep16_uniform --seed 9 --seconds 4 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.kind, Kind::Sweep16Uniform);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 4.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload npb16_p1 --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload npb16_p1 --seed")).is_err());
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let listed: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        let mut expected: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        expected.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.0));
        assert_eq!(listed, expected);
    }
}
