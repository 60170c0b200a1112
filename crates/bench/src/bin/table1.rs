//! Regenerate Table 1: maximum host sizes for efficient emulation of
//! j-dimensional Meshes, Tori, and X-Grids.

use std::io::Write;

use fcn_bench::{write_records, Failure, Report, RunOpts};
use fcn_core::{generate_table, table1_spec};

fcn_bench::repro_main!(report);

fn report(opts: &RunOpts, out: &mut dyn Write) -> Result<(), Failure> {
    let table = generate_table(table1_spec(&[1, 2, 3]), &opts.scale.table_guest_sizes());
    out.banner("Table 1 (symbolic cells re-derived from the Efficient Emulation Theorem)")?;
    write!(out, "{}", table.render())?;
    out.banner("numeric crossovers (guest size -> max host size)")?;
    for cell in &table.cells {
        let samples: Vec<String> = cell
            .samples
            .iter()
            .map(|(n, m)| format!("n=2^{} -> m*={:.1}", (*n as f64).log2() as u32, m))
            .collect();
        writeln!(
            out,
            "{:<12} on {:<16} {:<18} {}",
            cell.guest,
            cell.host,
            cell.bound,
            samples.join("  ")
        )?;
    }
    write_records(out, "table1", &table.cells)
}
