//! Deadlock-regression demonstrator.
//!
//! Runs the configuration that deadlocks a stock 4-VC wormhole router —
//! the span-15 express mesh (whose minimal routes wrap around each row)
//! under the FT all-to-all window. With the express-dateline VC
//! discipline the run completes; the run's `RunOpts::dump_on_stall`
//! would print a wait-for-graph cycle to stderr if it ever stopped doing
//! so.
//!
//! ```sh
//! cargo run --release -p hyppi-netsim --example deadlock_debug
//! ```

use hyppi_netsim::{NoopProbe, RunOpts, SimConfig, Simulator, Workload};
use hyppi_phys::LinkTechnology;
use hyppi_topology::{express_mesh, ExpressSpec, MeshSpec, RoutingTable};
use hyppi_traffic::{NpbKernel, NpbTraceSpec};

fn main() {
    let trace = NpbTraceSpec::paper(NpbKernel::Ft).default_window();
    let topo = express_mesh(
        MeshSpec::paper(LinkTechnology::Electronic),
        ExpressSpec {
            span: 15,
            tech: LinkTechnology::Hyppi,
        },
    );
    let routes = RoutingTable::compute_xy(&topo);
    let mut cfg = SimConfig::paper();
    cfg.max_cycles = 2_000_000;
    let opts = RunOpts {
        dump_on_stall: true,
        ..RunOpts::default()
    };
    let run =
        Simulator::new(&topo, &routes, cfg).run(Workload::Trace(&trace), opts, &mut NoopProbe);
    match run.map(|out| out.expect_finished()) {
        Ok(s) => println!(
            "ok: {} packets, mean latency {:.2} clks (no deadlock)",
            s.all.count,
            s.mean_latency()
        ),
        Err(e) => {
            eprintln!("DEADLOCK REGRESSION: {e} (wait-for cycle above)");
            std::process::exit(1);
        }
    }
}
