//! `repro` — regenerates every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p hyppi-bench --bin repro            # everything
//! cargo run --release -p hyppi-bench --bin repro fig6       # one artefact
//! cargo run --release -p hyppi-bench --bin repro load_sweep # latency-load curves
//! cargo run --release -p hyppi-bench --bin repro load_sweep -- --json curves.json
//! cargo run --release -p hyppi-bench --bin repro load_sweep32 -- --shards 4
//! cargo run --release -p hyppi-bench --bin repro npb32 -- --kernel CG --shards 4
//! cargo run --release -p hyppi-bench --bin repro npb32 -- --kernel CG --save cg.snap
//! cargo run --release -p hyppi-bench --bin repro npb32 -- --kernel CG --resume cg.snap
//! cargo run --release -p hyppi-bench --bin repro fault_sweep -- --json faults.json
//! cargo run --release -p hyppi-bench --bin repro load_sweep -- --metrics m.jsonl --trace t.json
//! cargo run --release -p hyppi-bench --bin repro sweep-span # ablation
//! ```

use hyppi::experiments::{fig3, fig5, fig8, table1, table2, table3, table4, table5, table6};
use hyppi::prelude::*;

/// Value of a `--flag VALUE` pair anywhere in the argument list.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Writes a dataset's JSON export when `--json PATH` was given.
fn maybe_write_json_str(args: &[String], json: &str) {
    if let Some(path) = flag_value(args, "--json") {
        match std::fs::write(&path, json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Writes the JSON export of a load-sweep dataset when `--json PATH` was
/// given.
fn maybe_write_json(args: &[String], result: &hyppi::experiments::LoadSweepResult) {
    maybe_write_json_str(args, &result.to_json());
}

/// Parsed `--burst SPEC` temporal-burstiness option: `steady` (the
/// default), `onoff:B` or `mmpp:B` with burstiness factor `B >= 1`
/// (peak-to-mean rate ratio — see `hyppi_traffic::BurstSpec`).
fn burst_flag(args: &[String]) -> BurstSpec {
    let Some(s) = flag_value(args, "--burst") else {
        return BurstSpec::Steady;
    };
    let parse = |s: &str| -> Option<BurstSpec> {
        let s = s.to_ascii_lowercase();
        if s == "steady" {
            return Some(BurstSpec::Steady);
        }
        let (kind, b) = s.split_once(':')?;
        let b: f64 = b.parse().ok()?;
        if !(b >= 1.0 && b.is_finite()) {
            return None;
        }
        match kind {
            "onoff" => Some(BurstSpec::onoff(b)),
            "mmpp" => Some(BurstSpec::mmpp(b)),
            _ => None,
        }
    };
    parse(&s).unwrap_or_else(|| {
        eprintln!("bad --burst value '{s}' (steady, onoff:B or mmpp:B with B >= 1)");
        std::process::exit(2);
    })
}

/// Parsed `--metrics PATH` / `--trace PATH` / `--trace-cap N`
/// flight-recorder options.
fn telemetry_opts(args: &[String]) -> TelemetryOpts {
    TelemetryOpts {
        metrics: flag_value(args, "--metrics"),
        trace: flag_value(args, "--trace"),
        trace_cap: flag_value(args, "--trace-cap")
            .map(|s| {
                s.parse().unwrap_or_else(|_| {
                    eprintln!("bad --trace-cap value '{s}'");
                    std::process::exit(2);
                })
            })
            .unwrap_or(0),
    }
}

/// Parsed `--shards N` (default 4). Every sharded experiment cuts a
/// 32×32 mesh (`tenant_sweep` adds 64×64), so N must be at least 1 and
/// its `ShardSpec::for_count` grid must fit 32×32.
fn shards_flag(args: &[String]) -> Result<usize, String> {
    let Some(s) = flag_value(args, "--shards") else {
        return Ok(4);
    };
    let shards: usize = s.parse().map_err(|_| format!("bad --shards value '{s}'"))?;
    if shards == 0 {
        return Err("--shards must be >= 1".into());
    }
    // Bounding N first keeps `for_count`'s u16 tile counts from wrapping.
    let fits = shards <= 32 * 32 && {
        let grid = ShardSpec::for_count(shards);
        grid.sx <= 32 && grid.sy <= 32
    };
    if !fits {
        return Err(format!(
            "--shards {shards}: its shard grid does not fit the 32x32 mesh"
        ));
    }
    Ok(shards)
}

/// Unwraps a `*_recorded` driver result and reports its artifacts.
fn report_recorded<T>(result: std::io::Result<(T, Vec<String>)>) -> T {
    match result {
        Ok((value, written)) => {
            for path in &written {
                println!("wrote {path}");
            }
            value
        }
        Err(e) => {
            eprintln!("could not write telemetry artifact: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // First token that is neither a --flag nor a --flag's value.
    let arg = args
        .iter()
        .enumerate()
        .find(|(i, a)| !a.starts_with("--") && (*i == 0 || !args[i - 1].starts_with("--")))
        .map(|(_, a)| a.clone())
        .unwrap_or_else(|| "all".into());
    let all = arg == "all";
    let mut ran = false;
    let shard_count = || {
        shards_flag(&args).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    };

    if all || arg == "table1" {
        ran = true;
        println!(
            "## Table I — device parameters (model inputs)\n{}",
            table1()
        );
    }
    if all || arg == "table2" {
        ran = true;
        println!("## Table II — network parameters\n{}", table2());
    }
    if all || arg == "fig3" {
        ran = true;
        println!("## Fig. 3 — link-level CLEAR\n{}", fig3().render());
    }
    if all || arg == "table3" {
        ran = true;
        println!(
            "## Table III — capability C and utilization growth R\n{}",
            table3()
        );
    }
    if all || arg == "fig5" {
        ran = true;
        let r = fig5();
        println!("## Fig. 5 — hybrid NoC design space\n{}", r.render());
        println!(
            "Electronic base + HyPPI express CLEAR gain: {:.2}x (paper: up to 1.8x)\n",
            r.headline_gain()
        );
    }
    if all || arg == "table4" {
        ran = true;
        println!(
            "## Table IV — static power, electronic base + express\n{}",
            table4()
        );
    }
    if all || arg == "fig6" {
        ran = true;
        println!("## Fig. 6 — NPB average latency (cycle-accurate)");
        println!("{}", run_fig6().render());
    }
    if all || arg == "table5" {
        ran = true;
        println!(
            "## Table V — FT total dynamic energy\n{}",
            table5().render()
        );
    }
    if all || arg == "table6" {
        ran = true;
        println!("## Table VI — optical router comparison\n{}", table6());
    }
    if all || arg == "fig8" {
        ran = true;
        let r = fig8();
        println!("## Fig. 8 — all-optical radar projection\n{}", r.render());
        println!(
            "Electronic / all-HyPPI energy: {:.0}x (paper: ~255x)\n",
            r.electronic_over_hyppi_energy()
        );
    }
    if arg == "load_sweep" {
        // Cycle-accurate and ~200 simulations deep: on-demand only, like
        // the ablations.
        ran = true;
        let cold = args.iter().any(|a| a == "--cold");
        let burst = burst_flag(&args);
        match burst {
            BurstSpec::Steady => {
                println!("## Load sweep — latency-throughput curves + saturation loads")
            }
            _ => println!(
                "## Load sweep — latency-throughput curves + saturation loads ({burst} injection)"
            ),
        }
        let r = report_recorded(hyppi::experiments::load_sweep_recorded(
            cold,
            burst,
            &telemetry_opts(&args),
        ));
        println!("{}", r.render());
        maybe_write_json(&args, &r);
    }
    if arg == "load_sweep32" {
        // The 32×32 scale-up through the sharded engine; minutes of
        // runtime, on-demand only. `--closed-loop WINDOW` switches every
        // run to credit-limited NICs (accepted-load curves flatten at
        // the plateau instead of tracking offered load).
        ran = true;
        let shards = shard_count();
        let closed_loop: Option<usize> = flag_value(&args, "--closed-loop").map(|s| {
            let window = s.parse().unwrap_or_else(|_| {
                eprintln!("bad --closed-loop value '{s}'");
                std::process::exit(2);
            });
            if window == 0 {
                eprintln!("--closed-loop window must be >= 1");
                std::process::exit(2);
            }
            window
        });
        match closed_loop {
            Some(w) => println!(
                "## Load sweep 32x32 — sharded engine, {shards} shards, closed loop (window {w})"
            ),
            None => println!("## Load sweep 32x32 — sharded engine, {shards} shards"),
        }
        let cold = args.iter().any(|a| a == "--cold");
        let burst = burst_flag(&args);
        let r = report_recorded(hyppi::experiments::load_sweep32_recorded(
            shards,
            closed_loop,
            cold,
            burst,
            &telemetry_opts(&args),
        ));
        println!("{}", r.render());
        maybe_write_json(&args, &r);
    }
    if arg == "npb32" {
        // A rescaled 1024-rank NPB window on the 32×32 mesh through the
        // sharded engine, bit-for-bit shard parity asserted inside.
        ran = true;
        let shards = shard_count();
        let kernels: Vec<NpbKernel> = match flag_value(&args, "--kernel") {
            None => vec![NpbKernel::Cg],
            Some(k) if k.eq_ignore_ascii_case("all") => NpbKernel::ALL.to_vec(),
            Some(k) => vec![NpbKernel::ALL
                .into_iter()
                .find(|c| c.name().eq_ignore_ascii_case(&k))
                .unwrap_or_else(|| {
                    eprintln!("unknown --kernel '{k}' (FT, CG, MG, LU or all)");
                    std::process::exit(2);
                })],
        };
        let save = flag_value(&args, "--save");
        let resume = flag_value(&args, "--resume");
        if (save.is_some() || resume.is_some()) && kernels.len() != 1 {
            eprintln!("--save/--resume checkpoint a single kernel (pass --kernel FT|CG|MG|LU)");
            std::process::exit(2);
        }
        println!("## NPB 32x32 — rescaled 1024-rank windows, sharded engine ({shards} shards)");
        for kernel in kernels {
            if let Some(path) = &save {
                // Run to the window's midpoint, write the checkpoint, stop.
                let (snap, stop) = hyppi::experiments::npb32_save(kernel, shards);
                if let Err(e) = std::fs::write(path, snap.bytes()) {
                    eprintln!("could not write {path}: {e}");
                    std::process::exit(1);
                }
                println!(
                    "saved {kernel} 32x32 checkpoint at cycle {stop} to {path} ({} bytes); \
                     complete it with: repro npb32 --kernel {kernel} --resume {path}",
                    snap.size_bytes()
                );
            } else if let Some(path) = &resume {
                // Restore a --save checkpoint (any shard count) and finish.
                let bytes = std::fs::read(path).unwrap_or_else(|e| {
                    eprintln!("could not read {path}: {e}");
                    std::process::exit(1);
                });
                let snap = Snapshot::from_bytes(bytes).unwrap_or_else(|e| {
                    eprintln!("{path} is not a simulator snapshot: {e}");
                    std::process::exit(1);
                });
                let from = snap.now();
                let cell =
                    hyppi::experiments::npb32_resume(kernel, shards, &snap).unwrap_or_else(|e| {
                        eprintln!("{path} does not checkpoint this run: {e}");
                        std::process::exit(1);
                    });
                println!(
                    "{} 32x32 ({} shards, resumed from cycle {from}): lat {:.2} clks \
                     (p50 {} p99 {}) | {} pkts | {} flits | {} cycles",
                    cell.kernel,
                    cell.shards,
                    cell.latency_clks,
                    cell.p50,
                    cell.p99,
                    cell.packets,
                    cell.flits,
                    cell.cycles
                );
            } else {
                let cell = report_recorded(hyppi::experiments::npb32_recorded(
                    kernel,
                    shards,
                    &telemetry_opts(&args),
                ));
                println!("{}", cell.render());
            }
        }
    }
    if arg == "fault_sweep" {
        // Resilience sweep: K seeded fault samples per fault count, open
        // and closed loop, 16x16 plus the sharded 32x32 scale-up; minutes
        // of runtime, on-demand only.
        ran = true;
        let shards = shard_count();
        let cold = args.iter().any(|a| a == "--cold");
        println!("## Fault sweep — saturation + tails vs. fault count ({shards} shards on 32x32)");
        let r = report_recorded(hyppi::experiments::fault_sweep_recorded(
            shards,
            cold,
            &telemetry_opts(&args),
        ));
        println!("{}", r.render());
        maybe_write_json_str(&args, &r.to_json());
    }
    if arg == "tenant_sweep" {
        // Multi-tenant interference: a CG-shaped victim tenant's tail
        // latency versus a uniform aggressor tenant's offered load, on
        // the 32x32 and 64x64 meshes, open and closed loop; minutes of
        // runtime, on-demand only.
        ran = true;
        let shards = shard_count();
        println!(
            "## Tenant sweep — victim tails vs. aggressor load ({shards} shards, 32x32 + 64x64)"
        );
        let r = hyppi::experiments::tenant_sweep(shards);
        println!("{}", r.render());
        maybe_write_json_str(&args, &r.to_json());
    }
    if arg == "sweep-span" {
        ran = true;
        sweep_span();
    }
    if arg == "sweep-rate" {
        ran = true;
        sweep_rate();
    }
    if arg == "sweep-vcs" {
        ran = true;
        println!("## Ablation — VC-count sensitivity (CG window)");
        println!("{}", hyppi::experiments::vc_sensitivity());
    }
    if arg == "sweep-buffers" {
        ran = true;
        println!("## Ablation — buffer-depth sensitivity (CG window)");
        println!("{}", hyppi::experiments::buffer_sensitivity());
    }
    if arg == "sweep-routing" {
        ran = true;
        println!("## Ablation — routing policy (plain mesh)");
        println!("{}", hyppi::experiments::routing_policy_comparison());
    }

    if !ran {
        eprintln!(
            "unknown artefact '{arg}'. Known: all, table1..table6, fig3, fig5, fig6, fig8, \
             load_sweep, load_sweep32, npb32, fault_sweep, tenant_sweep, sweep-span, \
             sweep-rate, sweep-vcs, sweep-buffers, sweep-routing \
             (load_sweep/load_sweep32/fault_sweep/tenant_sweep accept --json PATH; \
             load_sweep32/npb32/fault_sweep/tenant_sweep accept --shards N; load_sweep32 \
             accepts --closed-loop WINDOW; load_sweep/load_sweep32 accept \
             --burst steady|onoff:B|mmpp:B bursty injection; sweeps accept --cold to \
             disable warm-start anchoring; npb32 accepts --kernel FT|CG|MG|LU|all and \
             --save/--resume PATH checkpointing; load_sweep/load_sweep32/npb32/fault_sweep \
             accept --metrics PATH and --trace PATH flight-recorder output — .jsonl for \
             JSONL, anything else for Chrome trace_event JSON — and --trace-cap N to size \
             the packet-trace ring; an overflowing ring warns with its drop ratio)"
        );
        std::process::exit(2);
    }
}

/// Fig. 6 driver (kept here rather than in the library test path because it
/// runs 16 full cycle-accurate simulations).
fn run_fig6() -> hyppi::experiments::Fig6Result {
    hyppi::experiments::fig6()
}

/// Ablation: CLEAR across every express span 2..=15 (the paper only probes
/// 3, 5 and 15).
fn sweep_span() {
    println!("## Ablation — CLEAR vs express span (electronic base + HyPPI express)");
    let cfg = SoteriouConfig::paper();
    let base = {
        let model = NocModel::new(mesh(MeshSpec::paper(LinkTechnology::Electronic)));
        let t = cfg.matrix(&model.topo);
        model.evaluate(&t, cfg.max_injection_rate).clear
    };
    println!("span  0 (plain): CLEAR {base:.4} (1.00x)");
    for span in 2u16..=15 {
        let model = NocModel::new(express_mesh(
            MeshSpec::paper(LinkTechnology::Electronic),
            ExpressSpec {
                span,
                tech: LinkTechnology::Hyppi,
            },
        ));
        let t = cfg.matrix(&model.topo);
        let eval = model.evaluate(&t, cfg.max_injection_rate);
        println!(
            "span {span:2}: CLEAR {:.4} ({:.2}x)  latency {:5.2}  R {:.3}",
            eval.clear,
            eval.clear / base,
            eval.latency_clks,
            eval.r_factor
        );
    }
}

/// Ablation: CLEAR vs injection rate 0.01–0.1 (the paper mentions "only a
/// small reduction in CLEAR value with the injection rate" without a plot).
fn sweep_rate() {
    println!("## Ablation — CLEAR vs injection rate (plain meshes)");
    for base_tech in [
        LinkTechnology::Electronic,
        LinkTechnology::Hyppi,
        LinkTechnology::Photonic,
    ] {
        let model = NocModel::new(mesh(MeshSpec::paper(base_tech)));
        print!("{:11}", base_tech.name());
        for rate in [0.01, 0.02, 0.05, 0.1] {
            let cfg = SoteriouConfig::paper().with_rate(rate);
            let t = cfg.matrix(&model.topo);
            let eval = model.evaluate(&t, rate);
            print!("  r={rate:<4} CLEAR {:>8.4}", eval.clear);
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::shards_flag;

    fn shards(value: &str) -> Result<usize, String> {
        shards_flag(&["--shards".to_string(), value.to_string()])
    }

    #[test]
    fn shards_flag_accepts_fitting_counts_and_rejects_the_rest() {
        assert_eq!(shards_flag(&[]), Ok(4));
        assert_eq!(shards("4"), Ok(4));
        assert_eq!(shards("1024"), Ok(1024));
        for bad in ["0", "abc", "-1", "37", "1025", "99999999999"] {
            assert!(shards(bad).is_err(), "--shards {bad} accepted");
        }
    }
}
