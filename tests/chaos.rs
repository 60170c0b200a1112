//! Chaos tests for the fault plane and the resilient harness.
//!
//! Three contracts, exercised with randomized inputs:
//!
//! * **No panics, typed termination** — an arbitrary seeded [`FaultPlan`]
//!   (any rate, any graph) never panics the planner or the router, and
//!   every routed batch ends in a typed [`AbortCause`] whose accounting is
//!   internally consistent (no silent spinning to `max_ticks`).
//! * **Worker-count byte-identity under faults** — a degraded-β sweep is
//!   bit-identical at `jobs = 1` and `jobs = 4`, faults enabled.
//! * **Transparency** — applying an *empty* fault plan yields a compiled
//!   net equal to the original, and routing on it reproduces the intact
//!   outcome exactly.

use fcn_emu::bandwidth::DegradedSweep;
use fcn_emu::exec::Pool;
use fcn_emu::faults::{FaultPlan, FaultSpec};
use fcn_emu::routing::{
    plan_trial, route_compiled_pooled, AbortCause, CompiledNet, DegradedPlan, Faults, PacketBatch,
    RouterConfig, Strategy,
};
use fcn_emu::topology::{Family, Machine};
use proptest::prelude::*;

/// Qualitatively different route policies: BFS mesh, root-heavy tree,
/// arithmetic de Bruijn (bit-correction), level-walk X-tree.
const FAMILIES: [Family; 4] = [
    Family::Mesh(2),
    Family::Tree,
    Family::DeBruijn,
    Family::XTree,
];

fn machine_for(pick: usize, size: usize) -> Machine {
    FAMILIES[pick % FAMILIES.len()].build_near(size, 0x11)
}

/// Plan `demands` as one batch around `plan` (an empty plan: the intact
/// machine).
fn plan_one(
    machine: &Machine,
    demands: &[(u32, u32)],
    strategy: Strategy,
    plan_seed: u64,
    plan: &FaultPlan,
) -> DegradedPlan {
    let faults = Faults::new(machine, plan);
    let batches = [demands];
    plan_trial(
        machine,
        &batches,
        strategy,
        plan_seed,
        faults.as_ref(),
        None,
        Pool::sequential(),
    )
    .swap_remove(0)
}

fn demands_on(machine: &Machine, raw: &[(u64, u64)]) -> Vec<(u32, u32)> {
    let n = machine.processors() as u64;
    raw.iter()
        .map(|&(s, d)| ((s % n) as u32, (d % n) as u32))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary fault plans never panic, and the router always terminates
    /// with a typed outcome whose delivered/stranded accounting matches the
    /// abort cause.
    #[test]
    fn chaos_router_terminates_with_typed_outcome(
        pick in 0usize..4,
        size in 16usize..80,
        fault_seed in any::<u64>(),
        rate in 0.0f64..0.6,
        plan_seed in any::<u64>(),
        valiant in any::<bool>(),
        raw in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..48),
    ) {
        let machine = machine_for(pick, size);
        let spec = FaultSpec::uniform(fault_seed, rate);
        let plan = FaultPlan::generate(machine.graph(), &spec);
        let demands = demands_on(&machine, &raw);
        let strategy = if valiant { Strategy::Valiant } else { Strategy::ShortestPath };

        let dp = plan_one(&machine, &demands, strategy, plan_seed, &plan);
        // Every demand is either planned or reported unreachable.
        prop_assert_eq!(dp.paths.len() + dp.unreachable.len(), demands.len());
        prop_assert!(dp.unreachable.windows(2).all(|w| w[0] < w[1]), "sorted, unique");

        let net = CompiledNet::compile(&machine).apply_faults(&plan);
        let batch = PacketBatch::compile(&net, &dp.paths).expect("degraded paths are walks");
        let cfg = RouterConfig { max_ticks: 200_000, ..RouterConfig::default() };
        let out = route_compiled_pooled(&net, &batch, cfg);

        // Typed termination: the tick budget is respected and the abort
        // cause agrees with the delivery accounting.
        prop_assert!(out.ticks <= cfg.max_ticks);
        prop_assert_eq!(out.total, dp.paths.len());
        match out.abort {
            AbortCause::Completed => {
                prop_assert_eq!(out.stranded, 0);
                prop_assert_eq!(out.delivered, out.total);
                prop_assert!(out.completed);
            }
            AbortCause::Stranded => {
                prop_assert!(out.stranded > 0);
                prop_assert_eq!(out.delivered, out.total - out.stranded);
            }
            AbortCause::MaxTicks => {
                prop_assert!(out.delivered < out.total - out.stranded);
                prop_assert!(!out.completed);
            }
            AbortCause::Cancelled => prop_assert!(false, "nothing cancels this run"),
        }
    }

    /// An empty fault plan is byte-transparent: the faulted compile equals
    /// the intact one and routing reproduces the intact outcome bit-for-bit.
    #[test]
    fn chaos_empty_plan_is_byte_transparent(
        pick in 0usize..4,
        size in 16usize..64,
        plan_seed in any::<u64>(),
        raw in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..32),
    ) {
        let machine = machine_for(pick, size);
        let base = CompiledNet::compile(&machine);
        let applied = base.apply_faults(&FaultPlan::none());
        prop_assert!(!applied.is_faulted());

        let demands = demands_on(&machine, &raw);
        let dp = plan_one(&machine, &demands, Strategy::ShortestPath, plan_seed, &FaultPlan::none());
        prop_assert!(dp.unreachable.is_empty());
        prop_assert_eq!(dp.replans, 0);
        let cfg = RouterConfig::default();
        let b1 = PacketBatch::compile(&base, &dp.paths).expect("walks");
        let b2 = PacketBatch::compile(&applied, &dp.paths).expect("walks");
        let o1 = route_compiled_pooled(&base, &b1, cfg);
        let o2 = route_compiled_pooled(&applied, &b2, cfg);
        prop_assert_eq!(o1, o2);
        prop_assert_eq!(o1.abort, if o1.completed { AbortCause::Completed } else { AbortCause::MaxTicks });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Degraded-β sweeps are bit-identical for any worker count, faults on.
    #[test]
    fn chaos_degraded_sweep_is_worker_count_invariant(
        fault_seed in any::<u64>(),
        seed in any::<u64>(),
        rate in 0.05f64..0.35,
    ) {
        let machine = Machine::mesh(2, 8);
        let sweep = DegradedSweep {
            fault_rates: vec![0.0, rate],
            fault_seed,
            multipliers: vec![2, 4],
            trials: 2,
            seed,
            jobs: 1,
            ..Default::default()
        };
        let seq = sweep.sweep_symmetric(&machine);
        let par = DegradedSweep { jobs: 4, ..sweep }.sweep_symmetric(&machine);
        prop_assert_eq!(&seq, &par);
    }
}
