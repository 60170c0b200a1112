//! The router's budgeted send arm on weak machines.
//!
//! Weak machines (the bus hub, the weak hypercube) cap how many packets a
//! node may send per tick, so each tick's send events are gated by a
//! per-node budget rather than by wire capacity alone. This is the subtle
//! half of the wire model. [`fcn_routing::route_compiled`] must produce the
//! identical [`fcn_routing::RoutingOutcome`] as the retained reference
//! simulator `engine::reference::route_batch` under every queue discipline,
//! with one [`RouterScratch`] reused across machines and runs.

use fcn_routing::engine::reference;
use fcn_routing::{
    plan_routes, route_compiled, CompiledNet, PacketBatch, PacketPath, QueueDiscipline,
    RouterConfig, RouterScratch, Strategy,
};
use fcn_topology::Machine;

const DISCIPLINES: [QueueDiscipline; 3] = [
    QueueDiscipline::Fifo,
    QueueDiscipline::FarthestFirst,
    QueueDiscipline::RandomRank,
];

fn symmetric_batch(
    machine: &Machine,
    mult: usize,
    demand_seed: u64,
    plan_seed: u64,
) -> Vec<PacketPath> {
    let traffic = machine.symmetric_traffic();
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(demand_seed);
    let demands: Vec<_> = (0..mult * traffic.n())
        .map(|_| traffic.sample(&mut rng))
        .collect();
    plan_routes(machine, &demands, Strategy::ShortestPath, plan_seed)
}

#[test]
fn event_pin_weak_machine_send_budgets() {
    let mut scratch = RouterScratch::new();
    for machine in [Machine::global_bus(16), Machine::weak_hypercube(4)] {
        let paths = symmetric_batch(&machine, 3, 7, 23);
        let net = CompiledNet::compile(&machine);
        let batch = PacketBatch::compile(&net, &paths).unwrap();
        for discipline in DISCIPLINES {
            let cfg = RouterConfig {
                discipline,
                ..RouterConfig::default()
            };
            let expected = reference::route_batch(&machine, paths.clone(), cfg);
            assert!(expected.completed, "{} / {discipline:?}", machine.name());
            for run in 0..2 {
                assert_eq!(
                    route_compiled(&net, &batch, cfg, &mut scratch, None),
                    expected,
                    "{} / {discipline:?} / run {run}",
                    machine.name()
                );
            }
        }
    }
}
