//! Conservative-lookahead parity: the sharded engine running W-cycle
//! superstep windows must reproduce the P=1 `Simulator`'s `SimStats`
//! **bit-for-bit** — and equal its own per-cycle (`with_lookahead(1)`)
//! protocol — on every cell of the unified catalog, on every shard
//! grid, sequential and threaded, including mid-window snapshot
//! splices.
//!
//! The all-optical (`hyppi`) cells are the ones that actually open a
//! window: every link is 2 cycles, so every cut classifies at W=2 and
//! the engine halves its barrier count. The electronic cells pin the
//! other side of the contract — a 1-cycle boundary link anywhere on the
//! cut (or a closed-loop config) must force the per-cycle protocol.
//!
//! The property block runs random partition shapes × window caps ×
//! seeds, splicing at random (odd, mid-window) cycles.

mod common;

use common::cells::{self, resuming, until, CellWorkload, GRIDS};
use hyppi_netsim::{NoopProbe, ShardedSimulator, SimConfig, Simulator, Workload};
use hyppi_topology::{RoutingTable, ShardSpec};
use proptest::prelude::*;

/// Every catalog cell × every grid × {sequential, threaded} ×
/// {derived window, forced per-cycle}: all bit-for-bit equal to P=1,
/// and the derived window matches the cell's cut classification.
#[test]
fn catalog_windowed_matches_p1_on_all_grids() {
    for cell in cells::catalog() {
        let single = cell.run_single();
        for grid in GRIDS {
            let derived = cell.sharded(grid, 0).lookahead();
            assert_eq!(
                derived, cell.expected_lookahead,
                "{}: grid {}x{} derived window",
                cell.name, grid.sx, grid.sy
            );
            for threads in [1, 0] {
                for lookahead in [0u64, 1] {
                    let sharded = cell.run_sharded(grid, threads, lookahead);
                    assert_eq!(
                        sharded, single,
                        "{}: grid {}x{}, threads {threads}, lookahead cap {lookahead}",
                        cell.name, grid.sx, grid.sy
                    );
                }
            }
        }
    }
}

/// Strip and row partitions (the shapes added for lookahead cuts) on the
/// windowed cells: vertical strips, horizontal strips, and per-row
/// slices all derive W=2 on the all-optical mesh and stay bit-for-bit.
#[test]
fn strip_and_row_partitions_window_correctly() {
    for cell in cells::catalog() {
        if cell.expected_lookahead < 2 {
            continue;
        }
        let single = cell.run_single();
        for spec in [
            ShardSpec::vstrips(4),
            ShardSpec::hstrips(4),
            ShardSpec::rows(8),
        ] {
            assert_eq!(
                cell.sharded(spec, 0).lookahead(),
                2,
                "{}: {}x{} grid derived window",
                cell.name,
                spec.sx,
                spec.sy
            );
            let sharded = cell.run_sharded(spec, 0, 0);
            assert_eq!(
                sharded, single,
                "{}: strips {}x{}",
                cell.name, spec.sx, spec.sy
            );
        }
    }
}

/// Mid-window splices: pause boundaries that fall on odd cycles land
/// inside a W=2 window; the snapshot must canonicalize to the same
/// bytes as the P=1 engine's and resume bit-for-bit under any engine.
#[test]
fn mid_window_splices_match_whole_runs() {
    for cell in cells::catalog() {
        if cell.expected_lookahead < 2 {
            continue;
        }
        let single = cell.run_single();
        // 57 and 301 are odd: with W=2 windows starting at even cycles
        // these stops land mid-window. 300 pins the boundary case.
        for stop in [57u64, 300, 301] {
            let spliced = cell.run_sharded_spliced(ShardSpec::quadrants(), 0, 0, stop);
            assert_eq!(spliced, single, "{}: windowed splice at {stop}", cell.name);
            // Cross-protocol splice: windowed pause resumed per-cycle
            // and vice versa — the snapshot bytes carry no window state.
            let cross = cell.run_sharded_spliced(ShardSpec::quadrants(), 0, 1, stop);
            assert_eq!(cross, single, "{}: per-cycle splice at {stop}", cell.name);
        }
    }
}

/// Windowed snapshots are byte-identical to P=1 snapshots at the same
/// pause cycle — the lookahead engine's state canonicalizes.
#[test]
fn windowed_snapshot_bytes_match_p1() {
    let topo = cells::hyppi_mesh(8, 8);
    let routes = RoutingTable::compute_xy(&topo);
    let cfg = SimConfig::paper();
    let trace = cells::fixture_trace(&topo, 4242, 400);
    for stop in [57u64, 301] {
        let p1 = Simulator::new(&topo, &routes, cfg)
            .run(Workload::Trace(&trace), until(stop), &mut NoopProbe)
            .expect("bounded run completes")
            .expect_paused();
        for (spec, threads) in [
            (ShardSpec::quadrants(), 0),
            (ShardSpec::vstrips(4), 1),
            (ShardSpec { sx: 2, sy: 1 }, 0),
        ] {
            let sim = ShardedSimulator::new(&topo, &routes, cfg, spec).with_threads(threads);
            assert_eq!(sim.lookahead(), 2);
            let snap = sim
                .run(Workload::Trace(&trace), until(stop), &mut NoopProbe)
                .expect("bounded run completes")
                .expect_paused();
            assert_eq!(
                snap.bytes(),
                p1.bytes(),
                "windowed snapshot bytes diverge at {stop}: grid {}x{} t{threads}",
                spec.sx,
                spec.sy
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random partition shape × lookahead cap × seed ⇒ sharded == P=1
    /// bit-for-bit in `SimStats` (latency histograms included), with a
    /// random mid-run splice thrown in.
    #[test]
    fn random_shape_window_seed_parity(
        shape in prop_oneof![
            Just(ShardSpec { sx: 2, sy: 1 }),
            Just(ShardSpec { sx: 2, sy: 2 }),
            Just(ShardSpec { sx: 4, sy: 1 }),
            Just(ShardSpec { sx: 1, sy: 4 }),
            Just(ShardSpec { sx: 4, sy: 2 }),
            Just(ShardSpec { sx: 1, sy: 8 }),
        ],
        lookahead in prop_oneof![Just(0u64), Just(1), Just(2)],
        threads in prop_oneof![Just(1usize), Just(0)],
        synthetic in prop_oneof![Just(false), Just(true)],
        seed in 0u64..1000,
        split in 1u64..600,
    ) {
        let topo = cells::hyppi_mesh(8, 8);
        let routes = RoutingTable::compute_xy(&topo);
        let cfg = SimConfig::paper();
        if synthetic {
            let m = cells::uniform_matrix(&topo, 0.02 + (seed % 7) as f64 * 0.02);
            let workload = Workload::Synthetic { matrix: &m, warmup: 100, measure: 400, seed };
            let single = Simulator::new(&topo, &routes, cfg)
                .run_synthetic(&m, 100, 400, seed)
                .expect("P=1 run completes");
            let sharded = ShardedSimulator::new(&topo, &routes, cfg, shape)
                .with_threads(threads)
                .with_lookahead(lookahead)
                .run_synthetic(&m, 100, 400, seed)
                .expect("sharded run completes");
            prop_assert_eq!(&sharded, &single);
            let spliced = match ShardedSimulator::new(&topo, &routes, cfg, shape)
                .with_threads(threads)
                .with_lookahead(lookahead)
                .run(workload, until(split), &mut NoopProbe)
                .expect("bounded run completes")
            {
                hyppi_netsim::RunOutcome::Finished(stats) => stats,
                hyppi_netsim::RunOutcome::Paused(snap) => {
                    ShardedSimulator::new(&topo, &routes, cfg, shape)
                        .with_threads(threads)
                        .with_lookahead(lookahead)
                        .run(workload, resuming(&snap), &mut NoopProbe)
                        .expect("resumed run completes")
                        .expect_finished()
                }
            };
            prop_assert_eq!(&spliced, &single);
        } else {
            let trace = cells::fixture_trace(&topo, seed, 300);
            let single = Simulator::new(&topo, &routes, cfg)
                .run_trace(&trace)
                .expect("P=1 run completes");
            let sharded = ShardedSimulator::new(&topo, &routes, cfg, shape)
                .with_threads(threads)
                .with_lookahead(lookahead)
                .run_trace(&trace)
                .expect("sharded run completes");
            prop_assert_eq!(&sharded, &single);
            let spliced = match ShardedSimulator::new(&topo, &routes, cfg, shape)
                .with_threads(threads)
                .with_lookahead(lookahead)
                .run(Workload::Trace(&trace), until(split), &mut NoopProbe)
                .expect("bounded run completes")
            {
                hyppi_netsim::RunOutcome::Finished(stats) => stats,
                hyppi_netsim::RunOutcome::Paused(snap) => {
                    ShardedSimulator::new(&topo, &routes, cfg, shape)
                        .with_threads(threads)
                        .with_lookahead(lookahead)
                        .run(Workload::Trace(&trace), resuming(&snap), &mut NoopProbe)
                        .expect("resumed run completes")
                        .expect_finished()
                }
            };
            prop_assert_eq!(&spliced, &single);
        }
    }
}

/// The catalog itself is well-formed: 20 base cells plus the bursty and
/// multi-tenant cells, every (family, loop, workload) combination
/// present exactly once, windowed cells exist — including bursty and
/// tenant cells under W=2 windows.
#[test]
fn catalog_shape() {
    let cells = cells::catalog();
    assert_eq!(cells.len(), 26);
    let names: std::collections::BTreeSet<_> = cells.iter().map(|c| c.name.clone()).collect();
    assert_eq!(names.len(), 26, "cell names are unique");
    for family in ["plain", "express", "faulted", "hyppi", "hyppi-faulted"] {
        for lp in ["open", "closed"] {
            for wl in ["trace", "synthetic"] {
                assert!(
                    names.contains(&format!("{family}/{lp}/{wl}")),
                    "missing cell {family}/{lp}/{wl}"
                );
            }
        }
    }
    for extra in [
        "plain/open/synthetic-onoff",
        "hyppi/open/synthetic-mmpp",
        "hyppi-faulted/open/synthetic-onoff",
        "plain/open/tenant",
        "plain/closed/tenant",
        "hyppi/open/tenant-mmpp",
    ] {
        assert!(names.contains(extra), "missing cell {extra}");
    }
    assert!(
        cells.iter().filter(|c| c.expected_lookahead == 2).count() == 7,
        "open-loop all-optical cells (incl. bursty and tenant) open a W=2 window"
    );
    // Tenant cells carry per-tenant stats lanes; bursty and tenant
    // windowed cells see non-steady arrivals under windowed exchange.
    for cell in cells.iter().filter(|c| c.tenants.is_some()) {
        let stats = cell.run_single();
        assert_eq!(stats.tenants.len(), 2, "{}: tenant lanes", cell.name);
        let lane_sum: u64 = stats.tenants.iter().map(|t| t.flits_delivered).sum();
        assert_eq!(
            lane_sum, stats.flits_delivered,
            "{}: tenant lanes partition the aggregate",
            cell.name
        );
    }
    // Windowed cells are not vacuous: they deliver traffic.
    for cell in cells.iter().filter(|c| c.expected_lookahead == 2) {
        let stats = match cell.workload {
            CellWorkload::Trace { .. } => cell.run_single(),
            CellWorkload::Synthetic { .. } => cell.run_single(),
        };
        assert!(stats.flits_delivered > 0, "{}: vacuous cell", cell.name);
    }
}
