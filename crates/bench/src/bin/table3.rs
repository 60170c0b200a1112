//! Regenerate Table 3: maximum host sizes for efficient emulation of
//! Butterflies, de Bruijn graphs, CCCs, Shuffle-Exchanges,
//! Multibutterflies, Expanders, and Weak Hypercubes.

use std::io::Write;

use fcn_bench::{write_records, Failure, Report, RunOpts};
use fcn_core::{generate_table, table3_spec};

fcn_bench::repro_main!(report);

fn report(opts: &RunOpts, out: &mut dyn Write) -> Result<(), Failure> {
    let table = generate_table(table3_spec(&[1, 2, 3]), &opts.scale.table_guest_sizes());
    out.banner("Table 3 (symbolic cells re-derived from the Efficient Emulation Theorem)")?;
    write!(out, "{}", table.render())?;
    out.banner("spot check: the introduction's example")?;
    for cell in &table.cells {
        if cell.guest == "de_bruijn" && cell.host == "mesh2" {
            writeln!(
                out,
                "de Bruijn on 2-d mesh: {} (paper: only meshes of size O(lg² n) \
                 can efficiently emulate a de Bruijn graph)",
                cell.bound
            )?;
            for (n, m) in &cell.samples {
                let lg = (*n as f64).log2();
                writeln!(
                    out,
                    "  n=2^{:<2} -> m*={:<8.1} lg²n={:<8.1} ratio={:.2}",
                    lg as u32,
                    m,
                    lg * lg,
                    m / (lg * lg)
                )?;
            }
        }
    }
    write_records(out, "table3", &table.cells)
}
