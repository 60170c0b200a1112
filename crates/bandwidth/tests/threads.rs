//! `jobs = 1` starts no thread: an estimate on one worker plans, compiles
//! and routes every cell, and runs its side task, on the calling thread.
//!
//! The probe counts this process's threads from inside the side task,
//! which runs in the estimate's last route run. It is the only test in its
//! binary, so no other test's threads come and go while it counts. A run
//! on two workers is the control: there the count must rise, or the probe
//! could not see a thread at all.

use fcn_bandwidth::BandwidthEstimator;
use fcn_routing::{CompiledNet, PlanCache};
use fcn_topology::Machine;

/// This process's live threads.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists the process's threads")
        .count()
}

#[test]
#[cfg_attr(not(target_os = "linux"), ignore = "counts threads through /proc")]
fn one_worker_runs_everything_on_the_calling_thread() {
    let m = Machine::mesh(2, 8);
    let t = m.symmetric_traffic();
    let net = CompiledNet::shared(&m);
    let caller = std::thread::current().id();
    let before = threads();
    for (jobs, extra) in [(1, false), (2, true)] {
        let est = BandwidthEstimator {
            trials: 3,
            jobs,
            ..Default::default()
        };
        let cache = PlanCache::with_capacity(0);
        let (estimate, (during, on_caller)) =
            est.try_estimate_with(&m, &net, &t, &cache, None, || {
                (threads(), std::thread::current().id() == caller)
            });
        estimate.expect("an intact grid completes");
        assert_eq!(
            during > before,
            extra,
            "jobs={jobs}: {during} threads, {before} before"
        );
        if jobs == 1 {
            assert!(on_caller, "the side task left the calling thread");
        }
    }
}
