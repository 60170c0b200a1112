//! Ablation E-X1: router design choices.
//!
//! How much do the queue discipline (FIFO / farthest-first / random-rank)
//! and the routing strategy (shortest-path vs Valiant) change the measured
//! bandwidth? The paper's Theorem 6 invokes the universal O(c + Λ) router,
//! whose scheduling idea `RandomRank` mirrors; this ablation shows the
//! measured β is robust to the choice (constants move, exponents don't).

use std::io::Write;

use fcn_bench::{fmt, write_records, Failure, Report, RunOpts, Scale};
use fcn_routing::{measure_rate, QueueDiscipline, RouterConfig, Strategy};
use fcn_topology::Machine;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    machine: String,
    n: usize,
    discipline: String,
    strategy: String,
    rate: f64,
}

fcn_bench::repro_main!(report);

fn report(opts: &RunOpts, out: &mut dyn Write) -> Result<(), Failure> {
    let machines: Vec<Machine> = match opts.scale {
        Scale::Quick => vec![Machine::mesh(2, 8), Machine::de_bruijn(6)],
        _ => vec![
            Machine::mesh(2, 16),
            Machine::de_bruijn(8),
            Machine::butterfly(5),
            Machine::xtree(6),
            Machine::shuffle_exchange(8),
        ],
    };
    let disciplines = [
        QueueDiscipline::Fifo,
        QueueDiscipline::FarthestFirst,
        QueueDiscipline::RandomRank,
    ];
    let strategies = [Strategy::ShortestPath, Strategy::Valiant];

    out.banner("Ablation: queue discipline x routing strategy -> measured rate")?;
    let mut rows = Vec::new();
    for m in &machines {
        let t = m.symmetric_traffic();
        writeln!(out, "\n{} (n = {}):", m.name(), m.processors())?;
        for d in disciplines {
            for s in strategies {
                let cfg = RouterConfig {
                    discipline: d,
                    ..Default::default()
                };
                let sample = measure_rate(m, &t, 8 * t.n(), s, cfg, 0xab1);
                if !sample.completed {
                    let name = m.name();
                    return Err(Failure::Check(format!(
                        "{name} {d:?} + {s:?}: routing incomplete"
                    )));
                }
                writeln!(out, "  {d:?} + {s:?}: rate {}", fmt(sample.rate))?;
                rows.push(Row {
                    machine: m.name().to_string(),
                    n: m.processors(),
                    discipline: format!("{d:?}"),
                    strategy: format!("{s:?}"),
                    rate: sample.rate,
                });
            }
        }
    }

    // Spread summary: max/min rate ratio per machine.
    out.banner("spread per machine (max/min over the 6 configurations)")?;
    for m in &machines {
        let rates: Vec<f64> = rows
            .iter()
            .filter(|r| r.machine == m.name())
            .map(|r| r.rate)
            .collect();
        let (lo, hi) = (
            rates.iter().cloned().fold(f64::MAX, f64::min),
            rates.iter().cloned().fold(0.0f64, f64::max),
        );
        writeln!(out, "{:<24} spread x{}", m.name(), fmt(hi / lo))?;
    }

    write_records(out, "ablation_routing", &rows)
}
