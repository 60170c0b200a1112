//! `flux_upper_bound` pinned to recorded bits on the machines whose flux
//! layer used to be slowest: auxiliary-node machines (prefix-symmetric
//! traffic on the full vertex set) and large distance-bound machines. Each
//! pin is the winning bound's `to_bits()` and witness, plus the generated
//! cut's rate bits, capacity and |S|, so the cut search stays pinned where a
//! canonical or capacity bound wins.

use fcn_bandwidth::flux_upper_bound;
use fcn_multigraph::best_flux_bound;
use fcn_topology::Machine;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Pin {
    machine: Machine,
    rate_bits: u64,
    witness: &'static str,
    generated: (u64, u64, usize),
}

fn pins() -> Vec<Pin> {
    vec![
        Pin {
            machine: Machine::global_bus(1024),
            rate_bits: 0x3ff0000000000000,
            witness: "bus hub capacity",
            generated: (0x4090000000000000, 1, 1),
        },
        Pin {
            machine: Machine::pyramid(2, 32),
            rate_bits: 0x406ff80000000000,
            witness: "canonical cut #0",
            generated: (0x407c31cec12d9fb9, 100, 439),
        },
        Pin {
            machine: Machine::multigrid(3, 8),
            rate_bits: 0x4075356000000000,
            witness: "canonical cut #0",
            generated: (0x407c638e38e38e39, 112, 288),
        },
        Pin {
            machine: Machine::weak_hypercube(10),
            rate_bits: 0x4069926622514475,
            witness: "capacitated distance bound (avg d = 5.01)",
            generated: (0x409ff80000000000, 512, 512),
        },
        Pin {
            machine: Machine::de_bruijn(12),
            rate_bits: 0x409dc68c9f3d13c3,
            witness: "distance bound (avg d = 8.59)",
            generated: (0x40a7354ec961771a, 408, 673),
        },
        Pin {
            machine: Machine::mesh(2, 48),
            rate_bits: 0x4067fd5555555556,
            witness: "canonical cut #0",
            generated: (0x4067fd5555555556, 48, 1152),
        },
    ]
}

#[test]
fn flux_bounds_match_recorded_bits() {
    for pin in pins() {
        let m = &pin.machine;
        let traffic = m.symmetric_traffic();
        let bound = flux_upper_bound(m, &traffic, 7, 4, 2);
        assert_eq!(
            (bound.rate_bound.to_bits(), bound.witness.as_str()),
            (pin.rate_bits, pin.witness),
            "{}: flux bound {}",
            m.name(),
            bound.rate_bound
        );

        let padded = traffic.padded(m.node_count());
        let mut rng = StdRng::seed_from_u64(7);
        let (stats, _) = best_flux_bound(m.graph(), &padded, &mut rng, 4, 2)
            .unwrap_or_else(|| panic!("{}: no generated cut", m.name()));
        assert_eq!(
            (stats.rate_bound.to_bits(), stats.capacity, stats.size_s),
            pin.generated,
            "{}: generated cut {stats:?}",
            m.name()
        );
    }
}
