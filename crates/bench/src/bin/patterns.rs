//! Extension experiment E-X4: algorithm communication patterns (the
//! paper's conclusion sketch). For each classic pattern and host family,
//! record the Lemma 8 execution floor, the measured routed execution, and
//! the pattern-bandwidth sandwich.

use std::io::Write;

use fcn_bench::{fmt, write_records, Failure, Report, RunOpts, Scale};
use fcn_core::{execute_pattern, pattern_bandwidth, CommPattern};
use fcn_routing::RouterConfig;
use fcn_topology::Machine;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    pattern: String,
    host: String,
    messages: u64,
    flux_floor: f64,
    measured_ticks: u64,
    slowdown_vs_rounds: f64,
    beta_lower: f64,
    beta_upper: f64,
}

fcn_bench::repro_main!(report);

fn report(opts: &RunOpts, out: &mut dyn Write) -> Result<(), Failure> {
    let g = if opts.scale == Scale::Quick { 5 } else { 6 };
    let n = 1usize << g;
    let patterns = vec![
        CommPattern::fft(g),
        CommPattern::odd_even_sort(n),
        CommPattern::stencil2d((n as f64).sqrt() as usize, 4),
        CommPattern::all_to_all(n),
        CommPattern::broadcast(n),
        CommPattern::random_permutations(n, 8, 0xa1),
    ];
    let hosts = vec![
        Machine::linear_array(n),
        Machine::mesh(2, (n as f64).sqrt().ceil() as usize),
        Machine::de_bruijn(g),
        Machine::weak_hypercube(g),
    ];

    out.banner("Algorithm patterns: Lemma 8 floors vs measured executions")?;
    let mut rows = Vec::new();
    for p in &patterns {
        writeln!(out, "\n{} ({} messages):", p.name, p.message_count())?;
        for h in &hosts {
            if h.processors() < p.n {
                continue;
            }
            let ex = execute_pattern(p, h, RouterConfig::default(), 0xeb);
            let (lo, hi) = pattern_bandwidth(p, h, 0xeb);
            writeln!(
                out,
                "  {:<24} floor {:>9} measured {:>8} slowdown {:>8} β∈[{}, {}]",
                h.name(),
                fmt(ex.ticks_lower),
                ex.ticks_measured,
                fmt(ex.slowdown_vs_rounds(p.rounds)),
                fmt(lo),
                fmt(hi)
            )?;
            if (ex.ticks_measured as f64 + 1.0) < ex.ticks_lower {
                let (pattern, host) = (&p.name, h.name());
                return Err(Failure::Check(format!(
                    "{pattern} on {host}: measured below the certified floor"
                )));
            }
            rows.push(Row {
                pattern: p.name.clone(),
                host: h.name().to_string(),
                messages: p.message_count(),
                flux_floor: ex.ticks_lower,
                measured_ticks: ex.ticks_measured,
                slowdown_vs_rounds: ex.slowdown_vs_rounds(p.rounds),
                beta_lower: lo,
                beta_upper: hi,
            });
        }
    }
    write_records(out, "patterns", &rows)
}
