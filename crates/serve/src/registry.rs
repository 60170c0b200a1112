//! The warm compiled-net registry.
//!
//! Inline `fcnemu` pays net compilation and plan-cache warmup on every
//! invocation; the service pays them once per distinct machine graph and
//! reuses the artifacts across requests. Entries are keyed by the graph's
//! structural fingerprint, so two requests for the same family/size share
//! one [`CompiledNet`] and one warm [`PlanCache`] even when they arrive on
//! different connections.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use fcn_exec::sync::Lock;
use fcn_routing::{CompiledNet, PlanCache};
use fcn_topology::Machine;

/// One warm entry: the compiled net plus its plan cache.
#[derive(Debug, Clone)]
pub struct RegistryEntry {
    /// The compiled net, shareable across request threads.
    pub net: Arc<CompiledNet>,
    /// The warm plan cache for that net; hits accumulate across requests.
    pub cache: Arc<PlanCache>,
}

/// A fingerprint-keyed registry of warm [`RegistryEntry`]s.
#[derive(Debug, Default)]
pub struct Registry {
    /// Warm entries by graph fingerprint. `Lock` recovers from poison,
    /// which is sound here: a poisoned map only means another request
    /// thread panicked while holding the lock, and each edit is a single
    /// insert that leaves the map structurally valid.
    entries: Lock<BTreeMap<u64, RegistryEntry>>,
}

impl Registry {
    /// An empty (cold) registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Number of distinct graphs currently held warm.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the registry is still cold.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch the warm entry for `machine`'s graph, compiling it on first
    /// use. The second return is `true` on a warm hit. Telemetry
    /// (`serve_registry_*`) flows into the caller's thread shard and merges
    /// with the rest of the request's counters.
    pub fn get_or_compile(&self, machine: &Machine) -> (RegistryEntry, bool) {
        use fcn_telemetry::names;
        let key = machine.graph().fingerprint();
        if let Some(entry) = self.entries.lock().get(&key).cloned() {
            record(names::SERVE_REGISTRY_HITS_TOTAL);
            return (entry, true);
        }
        // Compile outside the lock: compilation is the expensive step and
        // must not serialize unrelated requests. Two racing requests for a
        // brand-new graph may both compile; the first to insert wins and
        // the loser adopts the winner's entry, so all requests for one
        // fingerprint still share a single plan cache.
        let fresh = RegistryEntry {
            net: CompiledNet::shared(machine),
            cache: Arc::new(PlanCache::default()),
        };
        let (entry, won) = match self.entries.lock().entry(key) {
            Entry::Vacant(slot) => (slot.insert(fresh).clone(), true),
            Entry::Occupied(slot) => (slot.get().clone(), false),
        };
        record(names::SERVE_REGISTRY_MISSES_TOTAL);
        if won {
            record(names::SERVE_REGISTRY_NETS_TOTAL);
        }
        (entry, false)
    }
}

/// Count one `serve_registry_*` event in the thread's shard, when the
/// global registry is enabled.
fn record(name: &'static str) {
    if fcn_telemetry::global().enabled() {
        fcn_telemetry::with_shard(|s| s.inc(name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh(side: usize) -> Machine {
        Machine::mesh(2, side)
    }

    #[test]
    fn second_request_for_the_same_graph_is_a_hit() {
        let reg = Registry::new();
        assert!(reg.is_empty());
        let (a, hit_a) = reg.get_or_compile(&mesh(4));
        assert!(!hit_a, "cold registry must report a miss");
        let (b, hit_b) = reg.get_or_compile(&mesh(4));
        assert!(hit_b, "second lookup must be warm");
        assert!(Arc::ptr_eq(&a.net, &b.net), "warm hit must share the net");
        assert!(
            Arc::ptr_eq(&a.cache, &b.cache),
            "warm hit must share the plan cache"
        );
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn distinct_graphs_get_distinct_entries() {
        let reg = Registry::new();
        let (a, _) = reg.get_or_compile(&mesh(4));
        let (b, _) = reg.get_or_compile(&mesh(8));
        assert!(!Arc::ptr_eq(&a.net, &b.net));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn concurrent_lookups_converge_on_one_entry() {
        let reg = Arc::new(Registry::new());
        let nets: Vec<Arc<CompiledNet>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let reg = Arc::clone(&reg);
                    scope.spawn(move || reg.get_or_compile(&mesh(6)).0.net)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(reg.len(), 1);
        for net in &nets[1..] {
            assert!(
                Arc::ptr_eq(&nets[0], net),
                "every racer must adopt the single registered net"
            );
        }
    }
}
