//! Regenerate Table 2: maximum host sizes for efficient emulation of
//! j-dimensional Mesh-of-Trees, Multigrids, and Pyramids.
//!
//! Theorems 3 and 4 differ in the required guest time (`T ≥ Ω(|G|^{1/j})`
//! vs `T ≥ Ω(lg|G|)`); the bound itself comes from the same β ratio, so the
//! cells match Table 1's for equal dimensions. We print both time premises.

use std::io::Write;

use fcn_bench::{write_records, Failure, Report, RunOpts};
use fcn_core::{generate_table, table2_spec};
use fcn_topology::Family;

fcn_bench::repro_main!(report);

fn report(opts: &RunOpts, out: &mut dyn Write) -> Result<(), Failure> {
    let table = generate_table(table2_spec(&[1, 2, 3]), &opts.scale.table_guest_sizes());
    out.banner("Table 2 (symbolic cells re-derived from the Efficient Emulation Theorem)")?;
    write!(out, "{}", table.render())?;

    out.banner("guest-time premises (Theorem 4 uses T = Ω(λ(G)) = Ω(lg |G|))")?;
    for j in [1u8, 2, 3] {
        for fam in [
            Family::MeshOfTrees(j),
            Family::Multigrid(j),
            Family::Pyramid(j),
        ] {
            writeln!(
                out,
                "{:<18} λ = {} (minimal efficient-emulation guest time)",
                fam.id(),
                fam.lambda().theta_string()
            )?;
        }
    }
    write_records(out, "table2", &table.cells)
}
