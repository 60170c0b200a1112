//! `MetricsSnapshot::without_wall_clock` promises a snapshot that is the
//! same on every run of one workload at one worker count. Checked on the
//! real binary at two workers, where the thread schedule differs run to
//! run: which worker runs which job, and the order in which the workers'
//! shards merge, follow it, and the stripped snapshot must not.

use fcn_telemetry::MetricsSnapshot;

#[test]
fn stripped_snapshots_of_repeated_parallel_runs_are_equal() {
    let dir = std::env::temp_dir().join(format!("fcn-cli-metrics-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // The four runs share the host's cores, so their thread schedules
    // differ more than those of runs one after another.
    let paths: Vec<_> = (0..4)
        .map(|run| dir.join(format!("run{run}.jsonl")))
        .collect();
    let children: Vec<_> = paths
        .iter()
        .map(|path| {
            std::process::Command::new(env!("CARGO_BIN_EXE_fcnemu"))
                .args(["faults", "mesh2", "64", "--quick", "--jobs", "2"])
                .arg("--metrics-out")
                .arg(path)
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .spawn()
                .unwrap()
        })
        .collect();
    for (run, mut child) in children.into_iter().enumerate() {
        assert!(child.wait().unwrap().success(), "run {run} failed");
    }
    let snapshots: Vec<MetricsSnapshot> = paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).unwrap();
            MetricsSnapshot::from_jsonl(&text)
                .unwrap()
                .without_wall_clock()
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!snapshots[0].counters.is_empty());
    for (run, snap) in snapshots.iter().enumerate().skip(1) {
        assert_eq!(snap, &snapshots[0], "run {run} differs from run 0");
    }
}
