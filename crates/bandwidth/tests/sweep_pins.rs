//! `sweep_family` pinned to recorded bits on seven families at the quick
//! estimator (multipliers `[2, 4]`, two trials), targets `[64, 256]`. Each
//! row pins its measured rate, flux bound and mean distance as `to_bits()`
//! plus its diameter; each sweep pins its β, λ and flux class strings. The
//! families cover every planner branch: BFS (mesh2, global_bus,
//! mesh_of_trees1), prefix-restricted BFS (pyramid2), and the arithmetic
//! policies (de_bruijn, shuffle_exchange, xtree). Two more pins cover
//! Valiant planning and a faulted degraded-β point whose plan repairs and
//! drops demands. Every pin must hold at one worker and at two, so a change
//! to how the sweep schedules its work cannot move a bit.

use fcn_bandwidth::{sweep_family, BandwidthEstimator, DegradedSweep};
use fcn_routing::Strategy;
use fcn_topology::{Family, Machine};

/// The seed `table4` sweeps with.
const SEED: u64 = 0x7ab1e4;
const TARGETS: [usize; 2] = [64, 256];

struct Row {
    machine: &'static str,
    measured: u64,
    flux_bound: u64,
    avg_distance: u64,
    diameter: u32,
}

struct Pin {
    family: Family,
    /// β, λ and flux class strings.
    classes: [&'static str; 3],
    rows: [Row; 2],
}

fn pins() -> Vec<Pin> {
    vec![
        Pin {
            family: Family::Mesh(2),
            classes: ["lg^2 n", "n^(1/2)", "n^(1/2)"],
            rows: [
                Row {
                    machine: "mesh2(side=8)",
                    measured: 0x4025555555555555,
                    flux_bound: 0x403f800000000000,
                    avg_distance: 0x4015555555555555,
                    diameter: 14,
                },
                Row {
                    machine: "mesh2(side=16)",
                    measured: 0x4033b13b13b13b14,
                    flux_bound: 0x404fe00000000000,
                    avg_distance: 0x4025555555555555,
                    diameter: 30,
                },
            ],
        },
        Pin {
            family: Family::DeBruijn,
            classes: ["n^(2/3)", "n^(1/4)", "n^(3/4)"],
            rows: [
                Row {
                    machine: "de_bruijn(g=6)",
                    measured: 0x402999999999999a,
                    flux_bound: 0x4051b80000000000,
                    avg_distance: 0x400ba08208208208,
                    diameter: 6,
                },
                Row {
                    machine: "de_bruijn(g=8)",
                    measured: 0x403f07c1f07c1f08,
                    flux_bound: 0x4069610224f71db7,
                    avg_distance: 0x40141cb4b4b4b4b5,
                    diameter: 8,
                },
            ],
        },
        Pin {
            family: Family::GlobalBus,
            classes: ["1", "1", "1"],
            rows: [
                Row {
                    machine: "global_bus(64)",
                    measured: 0x3fefe01fe01fe020,
                    flux_bound: 0x3ff0000000000000,
                    avg_distance: 0x3fff81f81f81f820,
                    diameter: 2,
                },
                Row {
                    machine: "global_bus(256)",
                    measured: 0x3feff801ff801ff8,
                    flux_bound: 0x3ff0000000000000,
                    avg_distance: 0x3fffe01fe01fe020,
                    diameter: 2,
                },
            ],
        },
        Pin {
            family: Family::MeshOfTrees(1),
            classes: ["1", "n^(1/3)", "1"],
            rows: [
                Row {
                    machine: "mesh_of_trees1(side=32)",
                    measured: 0x400ccccccccccccd,
                    flux_bound: 0x400f800000000000,
                    avg_distance: 0x401a58df5c69637d,
                    diameter: 10,
                },
                Row {
                    machine: "mesh_of_trees1(side=128)",
                    measured: 0x400fa0be82fa0be8,
                    flux_bound: 0x400fe00000000000,
                    avg_distance: 0x40246912650a54ea,
                    diameter: 14,
                },
            ],
        },
        Pin {
            family: Family::XTree,
            classes: ["n^(1/3)", "n^(1/3)", "lg n"],
            rows: [
                Row {
                    machine: "xtree(depth=5)",
                    measured: 0x401f800000000000,
                    flux_bound: 0x4037a00000000000,
                    avg_distance: 0x4012d954cf1b6553,
                    diameter: 9,
                },
                Row {
                    machine: "xtree(depth=7)",
                    measured: 0x4028492492492492,
                    flux_bound: 0x403fe00000000000,
                    avg_distance: 0x401fc913a8d327d1,
                    diameter: 13,
                },
            ],
        },
        Pin {
            family: Family::ShuffleExchange,
            classes: ["n^(3/4)", "n^(1/4)", "n * lg^-1 n"],
            rows: [
                Row {
                    machine: "shuffle_exchange(g=6)",
                    measured: 0x401bacf914c1bad0,
                    flux_bound: 0x4041b80000000000,
                    avg_distance: 0x40122baebaebaebb,
                    diameter: 11,
                },
                Row {
                    machine: "shuffle_exchange(g=8)",
                    measured: 0x4033521cfb2b78c1,
                    flux_bound: 0x405cb8e22ee576c9,
                    avg_distance: 0x401aa3d3d3d3d3d4,
                    diameter: 15,
                },
            ],
        },
        Pin {
            family: Family::Pyramid(2),
            classes: ["n^(1/2)", "n^(1/4)", "n^(1/2)"],
            rows: [
                Row {
                    machine: "pyramid2(side=8)",
                    measured: 0x40247ae147ae147b,
                    flux_bound: 0x404f800000000000,
                    avg_distance: 0x400d9fe90d9fe90e,
                    diameter: 6,
                },
                Row {
                    machine: "pyramid2(side=16)",
                    measured: 0x40347ae147ae147b,
                    flux_bound: 0x405fe00000000000,
                    avg_distance: 0x4015d1988a46b5d2,
                    diameter: 8,
                },
            ],
        },
    ]
}

fn quick(jobs: usize) -> BandwidthEstimator {
    BandwidthEstimator {
        multipliers: vec![2, 4],
        trials: 2,
        jobs,
        ..Default::default()
    }
}

fn check(jobs: usize) {
    let estimator = quick(jobs);
    for pin in pins() {
        let sweep = sweep_family(pin.family, &TARGETS, &estimator, SEED);
        let id = pin.family.id();
        assert_eq!(
            [
                sweep.beta_class.theta_string(),
                sweep.lambda_class.theta_string(),
                sweep.flux_class.theta_string(),
            ],
            pin.classes,
            "{id} at jobs={jobs}: β/λ/flux classes"
        );
        assert_eq!(sweep.rows.len(), pin.rows.len(), "{id} at jobs={jobs}");
        for (row, want) in sweep.rows.iter().zip(&pin.rows) {
            assert_eq!(
                (
                    row.machine.as_str(),
                    row.measured.to_bits(),
                    row.flux_bound.to_bits(),
                    row.avg_distance.to_bits(),
                    row.diameter,
                ),
                (
                    want.machine,
                    want.measured,
                    want.flux_bound,
                    want.avg_distance,
                    want.diameter,
                ),
                "{id} at jobs={jobs}: {row:?}"
            );
        }
    }
}

/// Valiant planning on a prefix-restricted machine: both legs stay in the
/// base mesh, and the intermediates come from the oracle's sequential RNG.
fn check_valiant(jobs: usize) {
    let estimator = BandwidthEstimator {
        strategy: Strategy::Valiant,
        ..quick(jobs)
    };
    let e = estimator.estimate_symmetric(&Machine::pyramid(2, 8));
    assert_eq!(
        (e.rate.to_bits(), e.mean_rate.to_bits(), e.complete_trials),
        (0x4015c9882b931057, 0x40152234b9a09269, 2),
        "pyramid2(side=8) Valiant at jobs={jobs}"
    );
}

/// One faulted degraded-β point on de Bruijn: bit-correction routes that
/// cross a fault are re-planned by BFS, and demands with a dead endpoint
/// are dropped as unreachable.
fn check_degraded(jobs: usize) {
    let sweep = DegradedSweep {
        fault_rates: vec![0.1],
        multipliers: vec![2, 4],
        trials: 2,
        jobs,
        ..Default::default()
    };
    let points = sweep.sweep_symmetric(&Machine::de_bruijn(6));
    let p = &points[0];
    assert_eq!(
        (
            p.rate.to_bits(),
            p.mean_rate.to_bits(),
            p.stranded,
            p.unreachable,
            p.replans,
            p.aborted_cells,
            p.complete_trials,
            (p.dead_nodes, p.dead_links, p.outages),
        ),
        (
            0x40284ccccccccccd,
            0x40274af8af8af8b0,
            0,
            60,
            414,
            0,
            2,
            (3, 23, 10)
        ),
        "de_bruijn(g=6) at fault rate 0.1, jobs={jobs}"
    );
}

#[test]
fn sweeps_match_recorded_bits_on_one_worker() {
    check(1);
}

#[test]
fn sweeps_match_recorded_bits_on_two_workers() {
    check(2);
}

#[test]
fn valiant_estimate_matches_recorded_bits() {
    check_valiant(1);
    check_valiant(2);
}

#[test]
fn faulted_point_matches_recorded_bits() {
    check_degraded(1);
    check_degraded(2);
}
