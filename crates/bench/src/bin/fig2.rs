//! Regenerate Figure 2: the Lemma 9 cone construction, measured.
//!
//! For a series of guests, builds the S-sets / cones / Q-sets / γ-edges
//! witness and reports the quantities the proof claims: γ ∈ K_{Θ(nt),1}
//! density, Ω(n²) cone paths per level, congestion within
//! O(max(nt², t·C(G,K_n))), and bandwidth preservation
//! β(circuit, γ) ≥ Ω(t·β(G)).

use std::io::Write;

use fcn_bench::{fmt, write_records, Failure, Report, RunOpts, Scale};
use fcn_core::{fig2_series, Lemma9Config};
use fcn_topology::Machine;

fcn_bench::repro_main!(report);

fn report(opts: &RunOpts, out: &mut dyn Write) -> Result<(), Failure> {
    let guests: Vec<Machine> = match opts.scale {
        Scale::Quick => vec![
            Machine::ring(16),
            Machine::mesh(2, 5),
            Machine::de_bruijn(4),
        ],
        _ => vec![
            Machine::ring(24),
            Machine::mesh(2, 5),
            Machine::mesh(2, 8),
            Machine::de_bruijn(5),
            Machine::tree(4),
            Machine::xtree(4),
        ],
    };
    let series = fig2_series(&guests, Lemma9Config::default());

    out.banner("Figure 2: cone-construction witnesses (Lemma 9, measured)")?;
    writeln!(
        out,
        "{:<22} {:>5} {:>4} {:>4} {:>8} {:>10} {:>12} {:>10} {:>10} {:>9} {:>9}",
        "guest",
        "n",
        "Λ",
        "t",
        "S-nodes",
        "cones",
        "γ-edges",
        "congest",
        "cap",
        "cong/cap",
        "preserve"
    )?;
    for (name, w) in &series {
        writeln!(
            out,
            "{:<22} {:>5} {:>4} {:>4} {:>8} {:>10} {:>12} {:>10} {:>10} {:>9} {:>9}",
            name,
            w.n,
            w.lambda,
            w.t,
            w.s_nodes,
            w.cone_paths,
            w.gamma_edges,
            w.congestion,
            w.congestion_cap,
            fmt(w.congestion_ratio()),
            fmt(w.preservation_ratio())
        )?;
    }
    writeln!(
        out,
        "\ninterpretation: cong/cap = O(1) and preserve = Ω(1) across sizes are \
         exactly Lemma 9's claims."
    )?;

    let records: Vec<_> = series.iter().map(|(_, w)| w.clone()).collect();
    write_records(out, "fig2", &records)
}
