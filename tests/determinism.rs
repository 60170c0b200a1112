//! Reproducibility suite for the parallel sweep engine.
//!
//! Every measurement grid in the workspace fans out over
//! [`fcn_exec::Pool`] with seeds derived purely from job indices, so the
//! numbers must be *bit-identical* for every worker count. These tests pin
//! that contract end-to-end: estimator grids, family sweeps, and bottleneck
//! audits across four machine families, parallel vs `jobs = 1`, compared
//! through their full serialized records (not just the headline rates).

use fcn_emu::bandwidth::{audit_bottleneck_freeness, sweep_family, BandwidthEstimator};
use fcn_emu::prelude::*;

/// The four families the suite pins (one per Table 4 β class shape).
const FAMILIES: [Family; 4] = [
    Family::Mesh(2),
    Family::Tree,
    Family::DeBruijn,
    Family::XTree,
];

fn estimator(jobs: usize) -> BandwidthEstimator {
    BandwidthEstimator {
        multipliers: vec![2, 4],
        trials: 2,
        jobs,
        ..Default::default()
    }
}

/// Serialize to the JSON-lines form the bench binaries write; equality here
/// is equality of the published record, field for field.
fn record<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("record serializes")
}

#[test]
fn estimates_are_bit_identical_across_worker_counts() {
    for family in FAMILIES {
        let machine = family.build_near(64, 0xd5);
        let baseline = estimator(1).estimate_symmetric(&machine);
        for jobs in [2, 3, 8, 0] {
            let parallel = estimator(jobs).estimate_symmetric(&machine);
            assert_eq!(
                record(&baseline),
                record(&parallel),
                "{}: estimate differs at jobs={jobs}",
                family.id()
            );
        }
    }
}

#[test]
fn family_sweeps_are_bit_identical_across_worker_counts() {
    let targets = [64usize, 128, 256];
    for family in FAMILIES {
        let baseline = record(&sweep_family(family, &targets, &estimator(1), 0x5eed));
        for jobs in [2, 3, 0] {
            let parallel = sweep_family(family, &targets, &estimator(jobs), 0x5eed);
            assert_eq!(
                baseline,
                record(&parallel),
                "{}: sweep differs between jobs=1 and jobs={jobs}",
                family.id()
            );
        }
    }
}

#[test]
fn bottleneck_audits_are_bit_identical_across_worker_counts() {
    for family in FAMILIES {
        let machine = family.build_near(64, 0xa0);
        let baseline = audit_bottleneck_freeness(&machine, &estimator(1), 0xa1);
        let parallel = audit_bottleneck_freeness(&machine, &estimator(4), 0xa1);
        assert_eq!(
            record(&baseline),
            record(&parallel),
            "{}: audit differs between jobs=1 and jobs=4",
            family.id()
        );
    }
}

#[test]
fn estimates_are_bit_identical_with_telemetry_on_and_off() {
    // Observability must be a read-only lens: enabling the global
    // fcn-telemetry registry changes no simulated bit, sequentially or
    // under the worker pool (whose shard merge rides the same fan-out).
    let reg = fcn_telemetry::global();
    let machine = Family::Mesh(2).build_near(64, 0xd5);
    reg.set_enabled(false);
    let baseline = record(&estimator(1).estimate_symmetric(&machine));
    for jobs in [1, 4] {
        reg.set_enabled(true);
        let on = record(&estimator(jobs).estimate_symmetric(&machine));
        reg.set_enabled(false);
        let off = record(&estimator(jobs).estimate_symmetric(&machine));
        assert_eq!(baseline, on, "jobs={jobs}: telemetry-on estimate differs");
        assert_eq!(baseline, off, "jobs={jobs}: telemetry-off estimate differs");
    }
    let _ = fcn_telemetry::take_shard();
}

#[test]
fn pool_results_are_index_ordered_regardless_of_schedule() {
    // The job bodies finish in scrambled order (longer work for lower
    // indices); the pool must still return results slot-by-slot.
    let pool = Pool::new(0);
    let out = pool.run(64, |i| {
        // Unbalanced busywork so threads interleave unpredictably.
        let mut acc = i as u64;
        for _ in 0..((64 - i) * 1000) {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        // Fold the busywork through black_box so it cannot be optimized
        // away, then discard it: the result is the index alone.
        (i, std::hint::black_box(acc).wrapping_sub(acc))
    });
    for (slot, (i, z)) in out.iter().enumerate() {
        assert_eq!(slot, *i);
        assert_eq!(*z, 0);
    }
}

#[test]
fn job_seeds_are_pure_functions_of_index() {
    use fcn_emu::exec::job_seed;
    // Same (base, index) -> same seed; distinct indices -> distinct seeds.
    let base = 0xfeed_f00d;
    let seeds: Vec<u64> = (0..256).map(|i| job_seed(base, i)).collect();
    let again: Vec<u64> = (0..256).map(|i| job_seed(base, i)).collect();
    assert_eq!(seeds, again);
    let mut sorted = seeds.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), seeds.len(), "seed collision across indices");
}
