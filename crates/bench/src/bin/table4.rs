//! Regenerate Table 4: β and λ for every machine family.
//!
//! For each family, sweeps sizes, measures the delivery rate under
//! symmetric traffic (operational β), the flux upper bound, and the
//! diameter (λ side), then classifies the measured series into the
//! best-fitting Table 4 growth class. Prints paper-vs-measured rows and
//! writes `target/repro/table4.jsonl`.

use std::io::Write;

use fcn_bandwidth::{sweep_family, FamilySweep};
use fcn_bench::{fmt, write_records, Failure, Report, RunOpts};
use fcn_topology::Family;

fcn_bench::repro_main!(report);

fn report(opts: &RunOpts, out: &mut dyn Write) -> Result<(), Failure> {
    let estimator = opts.estimator();
    let targets = opts.scale.sweep_targets();

    out.banner("Table 4: β and λ per machine family (paper vs measured vs flux-certified)")?;
    writeln!(
        out,
        "{:<18} {:>16} {:>16} {:>8} {:>14} {:>12} {:>12} {:>8}",
        "family", "paper β", "measured β̂", "rms", "flux class", "paper λ", "measured λ̂", "rms"
    )?;

    let mut sweeps: Vec<FamilySweep> = Vec::new();
    for family in Family::all_with_dims(&[1, 2, 3]) {
        let sweep = sweep_family(family, &targets, &estimator, 0x7ab1e4);
        writeln!(
            out,
            "{:<18} {:>16} {:>16} {:>8} {:>14} {:>12} {:>12} {:>8}",
            family.id(),
            family.beta().theta_string(),
            sweep.beta_class.theta_string(),
            fmt(sweep.beta_class_residual),
            sweep.flux_class.theta_string(),
            family.lambda().theta_string(),
            sweep.lambda_class.theta_string(),
            fmt(sweep.lambda_class_residual),
        )?;
        sweeps.push(sweep);
    }

    out.banner("raw rows (measured rate | flux bound | analytic | diameter)")?;
    for sweep in &sweeps {
        for r in &sweep.rows {
            writeln!(
                out,
                "{:<28} n={:<6} β̂={:<10} flux≤{:<10} Θ={:<10} diam={}",
                r.machine,
                r.n,
                fmt(r.measured),
                fmt(r.flux_bound),
                fmt(r.analytic),
                r.diameter
            )?;
        }
    }

    write_records(out, "table4", &sweeps)
}
