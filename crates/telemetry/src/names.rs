//! The single const table of telemetry metric and span names.
//!
//! Every instrumented crate refers to these consts instead of inline string
//! literals, so a metric name cannot drift between its emitter, its tests,
//! and the rendered snapshot. `fcn-analyze`'s `TEL-NAME` rule enforces this
//! at the token level: a string literal fed directly to a shard/registry
//! call is a finding, and duplicate values *in this table* are findings too
//! (two consts silently aliasing one name is how drift starts).
//!
//! Naming conventions (Prometheus-compatible, checked by the table test):
//! counters end in `_total`, histograms and spans are bare nouns, gauges
//! describe a last-observed state.

// --- exec pool ----------------------------------------------------------

/// Pool invocations (sequential or parallel).
pub const EXEC_RUNS_TOTAL: &str = "exec_runs_total";
/// Jobs executed across all pool runs.
pub const EXEC_JOBS_TOTAL: &str = "exec_jobs_total";
/// Worker count of the most recent pool run (gauge).
pub const EXEC_WORKERS_LAST: &str = "exec_workers_last";
/// Wall-clock nanoseconds workers spent running jobs.
pub const EXEC_WORKER_BUSY_NANOS_TOTAL: &str = "exec_worker_busy_nanos_total";
/// Wall-clock nanoseconds workers spent waiting for work.
pub const EXEC_WORKER_IDLE_NANOS_TOTAL: &str = "exec_worker_idle_nanos_total";
/// Watchdog deadline expiries that triggered cancellation.
pub const EXEC_WATCHDOG_FIRED_TOTAL: &str = "exec_watchdog_fired_total";

// --- plan cache ---------------------------------------------------------

/// BFS-tree cache hits.
pub const PLAN_CACHE_HITS_TOTAL: &str = "plan_cache_hits_total";
/// BFS-tree cache misses (tree computed fresh).
pub const PLAN_CACHE_MISSES_TOTAL: &str = "plan_cache_misses_total";
/// Fresh trees not stored because the cache was full.
pub const PLAN_CACHE_REFUSALS_TOTAL: &str = "plan_cache_refusals_total";
/// Resident entries at publish time (gauge).
pub const PLAN_CACHE_ENTRIES: &str = "plan_cache_entries";

// --- compiled router ----------------------------------------------------

/// Router batch runs.
pub const ROUTER_RUNS_TOTAL: &str = "router_runs_total";
/// Simulated ticks across all runs.
pub const ROUTER_TICKS_TOTAL: &str = "router_ticks_total";
/// Packets delivered.
pub const ROUTER_DELIVERED_TOTAL: &str = "router_delivered_total";
/// Packets injected.
pub const ROUTER_PACKETS_TOTAL: &str = "router_packets_total";
/// Hops traversed by delivered packets.
pub const ROUTER_HOPS_TOTAL: &str = "router_hops_total";
/// Packet-ticks spent stalled in queues.
pub const ROUTER_STALLED_PACKET_TICKS_TOTAL: &str = "router_stalled_packet_ticks_total";
/// Runs that terminated without completing delivery.
pub const ROUTER_ABORTS_TOTAL: &str = "router_aborts_total";
/// Aborts attributed to the max-ticks bound.
pub const ROUTER_ABORT_MAX_TICKS_TOTAL: &str = "router_abort_max_ticks_total";
/// Aborts attributed to permanently stranded packets.
pub const ROUTER_ABORT_STRANDED_TOTAL: &str = "router_abort_stranded_total";
/// Aborts attributed to cooperative cancellation.
pub const ROUTER_ABORT_CANCELLED_TOTAL: &str = "router_abort_cancelled_total";
/// Packets stranded by dead wires at injection.
pub const ROUTER_STRANDED_PACKETS_TOTAL: &str = "router_stranded_packets_total";
/// Send attempts gated off by fault outage windows.
pub const ROUTER_FAULTS_GATED_TOTAL: &str = "router_faults_gated_total";
/// Per-run maximum queue depth (histogram).
pub const ROUTER_RUN_MAX_QUEUE: &str = "router_run_max_queue";
/// Queue occupancy samples (histogram).
pub const ROUTER_QUEUE_OCCUPANCY: &str = "router_queue_occupancy";
/// Scratch arenas created (first run on a pooled scratch).
pub const ROUTER_SCRATCH_CREATED_TOTAL: &str = "router_scratch_created_total";
/// Scratch arenas reused without reallocation.
pub const ROUTER_SCRATCH_REUSED_TOTAL: &str = "router_scratch_reused_total";

// --- fault plane --------------------------------------------------------

/// Fault plans overlaid onto compiled nets.
pub const FAULT_PLANS_APPLIED_TOTAL: &str = "fault_plans_applied_total";
/// Wires killed permanently by applied plans.
pub const FAULT_DEAD_WIRES_TOTAL: &str = "fault_dead_wires_total";
/// Processors killed permanently by applied plans.
pub const FAULT_DEAD_NODES_TOTAL: &str = "fault_dead_nodes_total";
/// Transient outage windows scheduled by applied plans.
pub const FAULT_OUTAGE_WINDOWS_TOTAL: &str = "fault_outage_windows_total";

// --- fault-aware planner ------------------------------------------------

/// Demands re-planned by BFS around dead wires.
pub const PLANNER_REPLANS_TOTAL: &str = "planner_replans_total";
/// Demands with no surviving route.
pub const PLANNER_UNREACHABLE_TOTAL: &str = "planner_unreachable_total";
/// Vertices dequeued by the route-tree BFS of every tree computed.
pub const PLAN_TREE_VERTICES_TOTAL: &str = "plan_tree_vertices_total";

// --- bandwidth estimator ------------------------------------------------

/// Span around one full β estimate.
pub const SPAN_BANDWIDTH_ESTIMATE: &str = "bandwidth_estimate";
/// Completed β estimates.
pub const BANDWIDTH_ESTIMATES_TOTAL: &str = "bandwidth_estimates_total";
/// Trials attempted across estimates.
pub const BANDWIDTH_TRIALS_TOTAL: &str = "bandwidth_trials_total";
/// Trials whose batches all completed.
pub const BANDWIDTH_COMPLETE_TRIALS_TOTAL: &str = "bandwidth_complete_trials_total";
/// Saturation-grid cells measured.
pub const BANDWIDTH_CELLS_TOTAL: &str = "bandwidth_cells_total";
/// Ticks consumed reaching saturation.
pub const BANDWIDTH_SATURATION_TICKS_TOTAL: &str = "bandwidth_saturation_ticks_total";
/// Per-cell tick counts (histogram).
pub const BANDWIDTH_CELL_TICKS: &str = "bandwidth_cell_ticks";
/// Span around one trial's plan phase (every cell's routes planned).
pub const SPAN_ESTIMATE_PLAN: &str = "estimate_plan";
/// Span around one trial's route phase (every cell's batch routed).
pub const SPAN_ESTIMATE_ROUTE: &str = "estimate_route";
/// Span around one machine's distance statistics (`distance_stats`).
pub const SPAN_DISTANCE: &str = "distance";
/// Span around one flux upper bound (`flux_upper_bound`).
pub const SPAN_FLUX: &str = "flux";

// --- degraded sweeps ----------------------------------------------------

/// Span around one β-vs-fault-rate sweep.
pub const SPAN_DEGRADED_BETA_SWEEP: &str = "degraded_beta_sweep";
/// Fault-rate points measured.
pub const DEGRADED_POINTS_TOTAL: &str = "degraded_points_total";
/// Grid cells measured across all points.
pub const DEGRADED_CELLS_TOTAL: &str = "degraded_cells_total";
/// Packets stranded during degraded runs.
pub const DEGRADED_STRANDED_TOTAL: &str = "degraded_stranded_total";
/// Demands unreachable during degraded planning.
pub const DEGRADED_UNREACHABLE_TOTAL: &str = "degraded_unreachable_total";
/// BFS replans during degraded planning.
pub const DEGRADED_REPLANS_TOTAL: &str = "degraded_replans_total";
/// Cells that ended in a non-Completed abort.
pub const DEGRADED_ABORTED_CELLS_TOTAL: &str = "degraded_aborted_cells_total";
/// Ticks consumed by degraded cells.
pub const DEGRADED_CELL_TICKS_TOTAL: &str = "degraded_cell_ticks_total";

// --- emulation service --------------------------------------------------

/// Requests accepted by the service's admission gate.
pub const SERVE_REQUESTS_TOTAL: &str = "serve_requests_total";
/// Requests rejected with a framed `Overloaded` error.
pub const SERVE_OVERLOADED_TOTAL: &str = "serve_overloaded_total";
/// Requests aborted by their per-request deadline.
pub const SERVE_DEADLINE_CANCELLED_TOTAL: &str = "serve_deadline_cancelled_total";
/// Requests that returned a framed error of any kind.
pub const SERVE_ERRORS_TOTAL: &str = "serve_errors_total";
/// Compiled nets resident in the service registry (gauge).
pub const SERVE_REGISTRY_NETS: &str = "serve_registry_nets";
/// Requests served from an already-compiled registry net.
pub const SERVE_REGISTRY_HITS_TOTAL: &str = "serve_registry_hits_total";
/// Requests that compiled a net into the registry.
pub const SERVE_REGISTRY_MISSES_TOTAL: &str = "serve_registry_misses_total";
/// Connections accepted by the listener.
pub const SERVE_CONNECTIONS_TOTAL: &str = "serve_connections_total";
/// Requests still in flight when a drain began (gauge).
pub const SERVE_DRAIN_INFLIGHT: &str = "serve_drain_inflight";
/// Heavy requests that waited in the admission queue before running.
pub const SERVE_QUEUED_TOTAL: &str = "serve_queued_total";
/// Requests shed because the admission queue was full.
pub const SERVE_SHED_FULL_TOTAL: &str = "serve_shed_full_total";
/// Requests shed because their queue-wait budget (or deadline) expired.
pub const SERVE_SHED_DEADLINE_TOTAL: &str = "serve_shed_deadline_total";
/// Retried requests answered from the idempotent reply cache.
pub const SERVE_REPLAYED_TOTAL: &str = "serve_replayed_total";
/// Client-side retry attempts after a transport or overload failure.
pub const SERVE_RETRY_ATTEMPTS_TOTAL: &str = "serve_retry_attempts_total";
/// Client-side requests that exhausted their retry budget.
pub const SERVE_RETRY_EXHAUSTED_TOTAL: &str = "serve_retry_exhausted_total";

// --- wire chaos ---------------------------------------------------------

/// Connection resets injected by a seeded chaos plan.
pub const CHAOS_RESETS_TOTAL: &str = "chaos_resets_total";
/// Write stalls injected by a seeded chaos plan.
pub const CHAOS_STALLS_TOTAL: &str = "chaos_stalls_total";
/// Truncated frames injected by a seeded chaos plan.
pub const CHAOS_TRUNCATIONS_TOTAL: &str = "chaos_truncations_total";
/// Corrupted frames injected by a seeded chaos plan.
pub const CHAOS_CORRUPTIONS_TOTAL: &str = "chaos_corruptions_total";

/// Every name above, for exhaustive tests (uniqueness, conventions).
pub const ALL: &[&str] = &[
    EXEC_RUNS_TOTAL,
    EXEC_JOBS_TOTAL,
    EXEC_WORKERS_LAST,
    EXEC_WORKER_BUSY_NANOS_TOTAL,
    EXEC_WORKER_IDLE_NANOS_TOTAL,
    EXEC_WATCHDOG_FIRED_TOTAL,
    PLAN_CACHE_HITS_TOTAL,
    PLAN_CACHE_MISSES_TOTAL,
    PLAN_CACHE_REFUSALS_TOTAL,
    PLAN_CACHE_ENTRIES,
    ROUTER_RUNS_TOTAL,
    ROUTER_TICKS_TOTAL,
    ROUTER_DELIVERED_TOTAL,
    ROUTER_PACKETS_TOTAL,
    ROUTER_HOPS_TOTAL,
    ROUTER_STALLED_PACKET_TICKS_TOTAL,
    ROUTER_ABORTS_TOTAL,
    ROUTER_ABORT_MAX_TICKS_TOTAL,
    ROUTER_ABORT_STRANDED_TOTAL,
    ROUTER_ABORT_CANCELLED_TOTAL,
    ROUTER_STRANDED_PACKETS_TOTAL,
    ROUTER_FAULTS_GATED_TOTAL,
    ROUTER_RUN_MAX_QUEUE,
    ROUTER_QUEUE_OCCUPANCY,
    ROUTER_SCRATCH_CREATED_TOTAL,
    ROUTER_SCRATCH_REUSED_TOTAL,
    FAULT_PLANS_APPLIED_TOTAL,
    FAULT_DEAD_WIRES_TOTAL,
    FAULT_DEAD_NODES_TOTAL,
    FAULT_OUTAGE_WINDOWS_TOTAL,
    PLANNER_REPLANS_TOTAL,
    PLANNER_UNREACHABLE_TOTAL,
    PLAN_TREE_VERTICES_TOTAL,
    SPAN_BANDWIDTH_ESTIMATE,
    BANDWIDTH_ESTIMATES_TOTAL,
    BANDWIDTH_TRIALS_TOTAL,
    BANDWIDTH_COMPLETE_TRIALS_TOTAL,
    BANDWIDTH_CELLS_TOTAL,
    BANDWIDTH_SATURATION_TICKS_TOTAL,
    BANDWIDTH_CELL_TICKS,
    SPAN_ESTIMATE_PLAN,
    SPAN_ESTIMATE_ROUTE,
    SPAN_DISTANCE,
    SPAN_FLUX,
    SPAN_DEGRADED_BETA_SWEEP,
    DEGRADED_POINTS_TOTAL,
    DEGRADED_CELLS_TOTAL,
    DEGRADED_STRANDED_TOTAL,
    DEGRADED_UNREACHABLE_TOTAL,
    DEGRADED_REPLANS_TOTAL,
    DEGRADED_ABORTED_CELLS_TOTAL,
    DEGRADED_CELL_TICKS_TOTAL,
    SERVE_REQUESTS_TOTAL,
    SERVE_OVERLOADED_TOTAL,
    SERVE_DEADLINE_CANCELLED_TOTAL,
    SERVE_ERRORS_TOTAL,
    SERVE_REGISTRY_NETS,
    SERVE_REGISTRY_HITS_TOTAL,
    SERVE_REGISTRY_MISSES_TOTAL,
    SERVE_CONNECTIONS_TOTAL,
    SERVE_DRAIN_INFLIGHT,
    SERVE_QUEUED_TOTAL,
    SERVE_SHED_FULL_TOTAL,
    SERVE_SHED_DEADLINE_TOTAL,
    SERVE_REPLAYED_TOTAL,
    SERVE_RETRY_ATTEMPTS_TOTAL,
    SERVE_RETRY_EXHAUSTED_TOTAL,
    CHAOS_RESETS_TOTAL,
    CHAOS_STALLS_TOTAL,
    CHAOS_TRUNCATIONS_TOTAL,
    CHAOS_CORRUPTIONS_TOTAL,
];

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for n in ALL {
            assert!(seen.insert(*n), "duplicate metric name `{n}`");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "non-snake-case metric name `{n}`"
            );
            assert!(!n.starts_with('_') && !n.ends_with('_'), "bad edges `{n}`");
        }
    }
}
