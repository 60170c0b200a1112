//! Ablation E-X5: batch vs steady-state bandwidth estimation.
//!
//! The paper's β is a limit (`m → ∞` delivery rate). We approximate it two
//! ways — growing finite batches, and open-loop injection ramped to
//! saturation — and check the two estimators agree within constants across
//! machine families.

use std::io::Write;

use fcn_bandwidth::BandwidthEstimator;
use fcn_bench::{fmt, write_records, Failure, Report, RunOpts, Scale};
use fcn_routing::{saturation_throughput, SteadyConfig};
use fcn_topology::Family;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    family: String,
    n: usize,
    batch_rate: f64,
    steady_rate: f64,
    ratio: f64,
}

fcn_bench::repro_main!(report);

fn report(opts: &RunOpts, out: &mut dyn Write) -> Result<(), Failure> {
    let target = if opts.scale == Scale::Quick { 128 } else { 256 };
    let estimator = BandwidthEstimator {
        trials: 2,
        ..opts.estimator()
    };

    out.banner("Batch vs steady-state bandwidth estimates")?;
    writeln!(
        out,
        "{:<18} {:>6} {:>12} {:>12} {:>8}",
        "family", "n", "batch β̂", "steady β̂", "ratio"
    )?;
    let mut rows = Vec::new();
    for family in [
        Family::LinearArray,
        Family::Tree,
        Family::XTree,
        Family::Mesh(2),
        Family::Mesh(3),
        Family::DeBruijn,
        Family::Butterfly,
        Family::GlobalBus,
    ] {
        let machine = family.build_near(target, 0x5d);
        let t = machine.symmetric_traffic();
        let batch = estimator.estimate(&machine, &t).rate;
        let (steady, _) = saturation_throughput(&machine, &t, SteadyConfig::default());
        let ratio = steady / batch;
        writeln!(
            out,
            "{:<18} {:>6} {:>12} {:>12} {:>8}",
            family.id(),
            machine.processors(),
            fmt(batch),
            fmt(steady),
            fmt(ratio)
        )?;
        rows.push(Row {
            family: family.id(),
            n: machine.processors(),
            batch_rate: batch,
            steady_rate: steady,
            ratio,
        });
    }
    writeln!(
        out,
        "\nagreement within a small constant validates both estimators."
    )?;
    write_records(out, "ablation_steady", &rows)
}
