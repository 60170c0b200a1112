//! `faults` — regenerate the degraded-β example curves: how the measured
//! bandwidth of a strongly-connected host (mesh2) and a hypercubic host
//! (butterfly) decays under the deterministic fault plane.
//!
//! For each machine and fault rate, runs the full `trials × multipliers`
//! estimator grid against a seeded `fcn_faults::FaultPlan`, reports the
//! β-vs-fault-rate curve, and records rows:
//!
//! * default: writes `BENCH_faults.json` at the repo root — the committed
//!   example curve referenced by README and EXPERIMENTS.md;
//! * `--quick`: CI smoke scale, writes `target/BENCH_faults.quick.json` so
//!   a smoke run never clobbers the committed numbers.
//!
//! Rows are schema-tagged ([`fcn_bench::FAULTS_SCHEMA`]) and merged through
//! the shared line-numbered validation of `fcn_bench::validate`. All
//! output is bit-identical for every `--jobs` value.

use std::io::Write;

use fcn_bandwidth::{BandwidthEstimator, DegradedPoint, DegradedSweep};
use fcn_bench::{fmt, write_records, Failure, Report, RunOpts, Scale, FAULTS_SCHEMA};
use fcn_topology::Machine;
use serde::Serialize;

/// One recorded point of a degraded-β curve (see EXPERIMENTS.md).
#[derive(Debug, Serialize)]
struct Row {
    /// Row-format version ([`FAULTS_SCHEMA`]).
    schema: String,
    /// Row key: `<machine>@<fault-rate>`.
    bench: String,
    /// Machine the curve was measured on.
    machine: String,
    /// Processor count.
    n: usize,
    /// Fault rate the plan was generated at.
    fault_rate: f64,
    /// Best plateau rate across trials (β̂ of the degraded host).
    rate: f64,
    /// Mean of per-trial plateau rates.
    mean_rate: f64,
    /// Fraction of issued demands that were deliverable.
    delivery_fraction: f64,
    /// Processors killed by the plan.
    dead_nodes: usize,
    /// Links killed by the plan.
    dead_links: usize,
    /// Transient outage windows.
    outages: usize,
    /// Packets stranded at injection across all cells.
    stranded: usize,
    /// Unreachable demands across all cells.
    unreachable: usize,
    /// Successful BFS replans across all cells.
    replans: u64,
    /// Cells that hit the tick budget.
    aborted_cells: usize,
}

impl Row {
    fn new(machine: &Machine, p: &DegradedPoint) -> Row {
        Row {
            schema: FAULTS_SCHEMA.to_string(),
            bench: format!("{}@{:.3}", machine.name(), p.fault_rate),
            machine: machine.name().to_string(),
            n: machine.processors(),
            fault_rate: p.fault_rate,
            rate: p.rate,
            mean_rate: p.mean_rate,
            delivery_fraction: p.delivery_fraction(),
            dead_nodes: p.dead_nodes,
            dead_links: p.dead_links,
            outages: p.outages,
            stranded: p.stranded,
            unreachable: p.unreachable,
            replans: p.replans,
            aborted_cells: p.aborted_cells,
        }
    }
}

fcn_bench::repro_main!(report);

fn report(opts: &RunOpts, out: &mut dyn Write) -> Result<(), Failure> {
    let quick = opts.scale == Scale::Quick;
    let fault_rates = opts.scale.pick(
        vec![0.0, 0.05, 0.10],
        vec![0.0, 0.02, 0.05, 0.10, 0.20],
        vec![0.0, 0.02, 0.05, 0.10, 0.20, 0.30],
    );
    let machines = if quick {
        vec![Machine::mesh(2, 8), Machine::butterfly(3)]
    } else {
        vec![Machine::mesh(2, 16), Machine::butterfly(4)]
    };
    let sweep = DegradedSweep {
        fault_rates,
        estimator: BandwidthEstimator {
            multipliers: opts.scale.multipliers(),
            trials: opts.scale.trials(),
            jobs: opts.jobs,
            ..Default::default()
        },
        ..Default::default()
    };

    out.banner("degraded β: delivery rate vs fault rate (deterministic fault plane)")?;
    let mut rows: Vec<Row> = Vec::new();
    for machine in &machines {
        writeln!(
            out,
            "\n{} (n = {}), fault seed {:#x}:",
            machine.name(),
            machine.processors(),
            sweep.fault_seed
        )?;
        writeln!(
            out,
            "{:>6} {:>10} {:>10} {:>9} {:>7} {:>7} {:>8} {:>8} {:>8} {:>8} {:>7}",
            "rate",
            "β̂",
            "mean",
            "deliver",
            "dead-n",
            "dead-l",
            "outages",
            "strand",
            "unreach",
            "replans",
            "aborts"
        )?;
        for p in sweep.sweep_symmetric(machine) {
            writeln!(
                out,
                "{:>6.3} {:>10} {:>10} {:>8.1}% {:>7} {:>7} {:>8} {:>8} {:>8} {:>8} {:>7}",
                p.fault_rate,
                fmt(p.rate),
                fmt(p.mean_rate),
                100.0 * p.delivery_fraction(),
                p.dead_nodes,
                p.dead_links,
                p.outages,
                p.stranded,
                p.unreachable,
                p.replans,
                p.aborted_cells
            )?;
            rows.push(Row::new(machine, &p));
        }
    }

    write_records(out, "faults", &rows)?;

    // The committed curve (or its quick shadow), merged under the same
    // schema-validated discipline as `fcn-serve-load`.
    fcn_bench::commit_bench_rows(
        out,
        "BENCH_faults",
        quick,
        &rows,
        |r| &r.bench,
        |body| fcn_bench::validate_rows(body, FAULTS_SCHEMA),
    )
}
