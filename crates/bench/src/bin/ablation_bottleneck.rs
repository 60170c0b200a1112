//! Ablation E-X2: the bottleneck-freeness premise.
//!
//! The Efficient Emulation Theorem assumes the host is bottleneck-free; the
//! paper asserts (without proof) that the classical machines are. This
//! audit measures, for every family, the worst ratio of quasi-symmetric to
//! symmetric delivery rate — the empirical bottleneck constant.

use std::io::Write;

use fcn_bandwidth::audit_bottleneck_freeness;
use fcn_bench::{fmt, write_records, Failure, Report, RunOpts};
use fcn_topology::Family;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    family: String,
    n: usize,
    symmetric_rate: f64,
    worst_ratio: f64,
    distributions: Vec<(String, f64)>,
}

fcn_bench::repro_main!(report);

fn report(opts: &RunOpts, out: &mut dyn Write) -> Result<(), Failure> {
    let target = opts.scale.pick(128, 256, 512);
    let estimator = opts.estimator();

    out.banner("Bottleneck-freeness audit (worst quasi-symmetric/symmetric ratio)")?;
    writeln!(
        out,
        "{:<18} {:>6} {:>12} {:>12}  verdict",
        "family", "n", "β̂ (sym)", "worst ratio"
    )?;
    let mut rows = Vec::new();
    for family in Family::all_with_dims(&[1, 2, 3]) {
        let machine = family.build_near(target, 0xb0);
        let audit = audit_bottleneck_freeness(&machine, &estimator, 0xb1);
        let verdict = if audit.is_bottleneck_free(4.0) {
            "bottleneck-free (c <= 4)"
        } else {
            "SUSPECT"
        };
        writeln!(
            out,
            "{:<18} {:>6} {:>12} {:>12}  {verdict}",
            family.id(),
            machine.processors(),
            fmt(audit.symmetric_rate),
            fmt(audit.worst_ratio)
        )?;
        rows.push(Row {
            family: family.id(),
            n: machine.processors(),
            symmetric_rate: audit.symmetric_rate,
            worst_ratio: audit.worst_ratio,
            distributions: audit.quasi_rates.clone(),
        });
    }

    write_records(out, "ablation_bottleneck", &rows)
}
