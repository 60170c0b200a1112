//! Regenerate Figure 1: communication-induced vs load-induced slowdown.
//!
//! The analytic curves for the introduction's pair (de Bruijn guest, 2-d
//! mesh host) at several guest sizes, plus measured direct-emulation
//! slowdowns on small concrete hosts overlaid against the predicted lower
//! bound.

use std::io::Write;

use fcn_bench::{fmt, write_records, Failure, Report, RunOpts, Scale};
use fcn_core::{empirical_host_size, fig1_data, fig1_measured, EmulationConfig};
use fcn_topology::{Family, Machine};

fcn_bench::repro_main!(report);

fn report(opts: &RunOpts, out: &mut dyn Write) -> Result<(), Failure> {
    out.banner("Figure 1 analytic curves: de Bruijn guest on 2-d mesh hosts")?;
    let mut datasets = Vec::new();
    for lgn in [14u32, 17, 20] {
        let n = (1u64 << lgn) as f64;
        let d = fig1_data(&Family::DeBruijn, &Family::Mesh(2), n, 24);
        writeln!(
            out,
            "n = 2^{lgn}: crossover at m* = {:.1} (lg²n = {:.1}), min slowdown = {}",
            d.crossover_m,
            (lgn * lgn) as f64,
            fmt(d.crossover_slowdown)
        )?;
        writeln!(
            out,
            "  {:>12} {:>14} {:>14}",
            "m", "load n/m", "comm β_G/β_H"
        )?;
        for p in d.points.iter().step_by(4) {
            writeln!(
                out,
                "  {:>12.1} {:>14} {:>14}",
                p.m,
                fmt(p.load_bound),
                fmt(p.comm_bound)
            )?;
        }
        datasets.push(d);
    }

    out.banner("measured direct-emulation slowdowns (small sizes)")?;
    let guest = Machine::de_bruijn(if opts.scale == Scale::Quick { 7 } else { 9 });
    let host_sizes: Vec<usize> = if opts.scale == Scale::Quick {
        vec![4, 9, 16]
    } else {
        vec![4, 9, 16, 36, 64]
    };
    let cfg = EmulationConfig::default();
    let rows = fig1_measured(&guest, &Family::Mesh(2), &host_sizes, 8, &cfg);
    writeln!(out, "guest {} (n = {}):", guest.name(), guest.processors())?;
    writeln!(
        out,
        "  {:>6} {:>18} {:>18} {:>8}",
        "m", "measured slowdown", "predicted bound", "ratio"
    )?;
    for r in &rows {
        writeln!(
            out,
            "  {:>6} {:>18} {:>18} {:>8}",
            r.m,
            fmt(r.measured_slowdown),
            fmt(r.predicted_lower_bound),
            fmt(r.measured_slowdown / r.predicted_lower_bound)
        )?;
    }

    out.banner("empirical crossover (measured β̂ on both sides)")?;
    // Measure mesh-host bandwidths at several sizes, then solve the
    // crossover from the data alone — closing the loop between the
    // measured Table 4 and the derived Figure 1.
    let est = opts.estimator();
    let host_samples: Vec<(f64, f64)> = [4usize, 6, 8, 12, 16, 24]
        .iter()
        .map(|&side| {
            let h = Machine::mesh(2, side);
            (h.processors() as f64, est.estimate_symmetric(&h).rate)
        })
        .collect();
    let guest_beta = est.estimate_symmetric(&guest).rate;
    let n = guest.processors() as f64;
    let m_emp = empirical_host_size(guest_beta, n, &host_samples);
    let lg2 = n.log2().powi(2);
    writeln!(
        out,
        "guest {} (β̂ = {:.1}): empirical m* = {:.1}  (analytic lg²n = {:.1}, \
         ratio {:.2})",
        guest.name(),
        guest_beta,
        m_emp,
        lg2,
        m_emp / lg2
    )?;

    write_records(out, "fig1", &datasets)?;
    write_records(out, "fig1_measured", &rows)
}
