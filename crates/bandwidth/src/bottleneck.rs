//! Bottleneck-freeness audit.
//!
//! The paper's definition: machine `H` is *bottleneck-free* if the delivery
//! rate under any quasi-symmetric distribution on `m ≤ |H|` nodes is at most
//! a constant factor *higher* than the rate under the symmetric distribution
//! `β(M)`. (A machine failing this could "cheat" an emulation: route the
//! induced pattern through a high-throughput sub-structure and beat the
//! bandwidth lower bound.) The paper asserts without proof that the
//! classical machines are bottleneck-free; this module checks it
//! empirically by measuring the rate under a family of adversarial
//! quasi-symmetric distributions and reporting the worst observed ratio.

use fcn_multigraph::Traffic;
use fcn_routing::{RouterConfig, Strategy};
use fcn_topology::Machine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::operational::BandwidthEstimator;

/// Result of auditing one machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BottleneckAudit {
    /// Measured symmetric rate β̂(M).
    pub symmetric_rate: f64,
    /// Per-distribution measured rates, labeled.
    pub quasi_rates: Vec<(String, f64)>,
    /// `max(quasi) / symmetric` — the empirical bottleneck constant.
    pub worst_ratio: f64,
}

impl BottleneckAudit {
    /// True when no quasi-symmetric distribution beat the symmetric rate by
    /// more than `allowed_constant`.
    pub fn is_bottleneck_free(&self, allowed_constant: f64) -> bool {
        self.worst_ratio <= allowed_constant
    }
}

/// The audit's distribution family: adversarial quasi-symmetric patterns on
/// the full machine and on sub-populations.
fn audit_distributions(n: usize, seed: u64) -> Vec<(String, Traffic)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![
        ("halves".to_string(), Traffic::bipartite_halves(n)),
        (
            "random_half_density".to_string(),
            Traffic::quasi_symmetric_random(n, 0.5, &mut rng),
        ),
        (
            "random_quarter_density".to_string(),
            Traffic::quasi_symmetric_random(n, 0.25, &mut rng),
        ),
    ];
    // Sub-population: symmetric among the first n/2 processors ("m <= |H|
    // nodes" in the definition).
    if n >= 8 {
        out.push((
            "prefix_half_population".to_string(),
            Traffic::symmetric_on_prefix(n, n / 2),
        ));
    }
    out
}

/// Audit `machine` for bottleneck-freeness.
///
/// The symmetric baseline and every quasi-symmetric distribution are
/// independent estimates, so they run as parallel cells on one
/// [`fcn_exec::Pool`] sized by `estimator.jobs` (the inner estimates run
/// sequentially to keep the thread tree flat). Results are bit-identical
/// for any worker count.
pub fn audit_bottleneck_freeness(
    machine: &Machine,
    estimator: &BandwidthEstimator,
    seed: u64,
) -> BottleneckAudit {
    let n = machine.processors();
    let mut cells: Vec<(String, Traffic)> =
        vec![("symmetric".to_string(), machine.symmetric_traffic())];
    cells.extend(audit_distributions(n, seed));
    let pool = fcn_exec::Pool::new(estimator.jobs);
    let inner = estimator.clone().with_jobs(1);
    // One wire-graph compilation serves every distribution's estimate (the
    // net depends only on the machine, not on the traffic).
    let net = fcn_routing::CompiledNet::shared(machine);
    let rates: Vec<f64> = pool.run(cells.len(), |i| {
        inner.estimate_on(machine, &net, &cells[i].1).rate
    });
    let symmetric = rates[0];
    let mut quasi_rates = Vec::new();
    let mut worst: f64 = 0.0;
    for ((label, _), &rate) in cells.into_iter().zip(&rates).skip(1) {
        worst = worst.max(rate / symmetric);
        quasi_rates.push((label, rate));
    }
    BottleneckAudit {
        symmetric_rate: symmetric,
        quasi_rates,
        worst_ratio: worst,
    }
}

/// Convenience wrapper with a small default estimator (used by tests and the
/// audit example).
pub fn quick_audit(machine: &Machine, seed: u64) -> BottleneckAudit {
    let estimator = BandwidthEstimator {
        multipliers: vec![2, 4],
        strategy: Strategy::ShortestPath,
        router: RouterConfig::default(),
        trials: 2,
        seed,
        ..Default::default()
    };
    audit_bottleneck_freeness(machine, &estimator, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcn_topology::Machine;

    #[test]
    fn mesh_is_bottleneck_free() {
        let audit = quick_audit(&Machine::mesh(2, 8), 5);
        assert!(
            audit.is_bottleneck_free(4.0),
            "worst ratio {}",
            audit.worst_ratio
        );
        assert_eq!(audit.quasi_rates.len(), 4);
    }

    #[test]
    fn tree_is_bottleneck_free() {
        let audit = quick_audit(&Machine::tree(5), 6);
        assert!(
            audit.is_bottleneck_free(4.0),
            "worst ratio {}",
            audit.worst_ratio
        );
    }

    #[test]
    fn de_bruijn_is_bottleneck_free() {
        let audit = quick_audit(&Machine::de_bruijn(5), 7);
        assert!(
            audit.is_bottleneck_free(4.0),
            "worst ratio {}",
            audit.worst_ratio
        );
    }

    #[test]
    fn audit_reports_positive_rates() {
        let audit = quick_audit(&Machine::xtree(4), 8);
        assert!(audit.symmetric_rate > 0.0);
        for (label, r) in &audit.quasi_rates {
            assert!(*r > 0.0, "{label} rate zero");
        }
    }
}
