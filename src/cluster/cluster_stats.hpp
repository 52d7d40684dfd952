// Result types of a cluster run: per-request outcomes, autoscaler events,
// per-node and per-deadline-class scorecards, and the aggregate ClusterStats
// with ASCII / JSON / CSV renderers.
//
// Everything here is computed from the simulated timeline's integers only
// (doubles are printed at fixed precision from those integers), so the
// rendered table, the JSON report and the per-request CSV are byte-identical
// across machines and DFCNN_SWEEP_THREADS settings — the same contract every
// prior report type in this repo keeps, and what lets CI gate on exact
// sustained-rate and shed counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/activity.hpp"

namespace dfc::cluster {

/// What happened to one request at cluster scope. All cycles are simulated
/// fabric cycles; a shed request only has its arrival/delivery times.
struct ClusterOutcome {
  std::uint64_t id = 0;
  std::size_t deadline_class = 0;  ///< index into ClusterStats::classes
  std::size_t node = 0;            ///< routing decision (valid even when shed)

  std::uint64_t arrival_cycle = 0;     ///< at the front-end load balancer
  std::uint64_t delivery_cycle = 0;    ///< after the ingress network hop
  std::uint64_t dispatch_cycle = 0;    ///< batch close on the node
  std::uint64_t completion_cycle = 0;  ///< replica finished the batch
  std::uint64_t response_cycle = 0;    ///< after the egress hop back

  enum class Shed : std::uint8_t { kNone = 0, kOverflow = 1, kDeadline = 2 };
  Shed shed = Shed::kNone;

  std::size_t replica = 0;
  std::size_t batch_id = 0;

  /// End-to-end latency including both network hops (valid when not shed).
  std::uint64_t latency_cycles() const { return response_cycle - arrival_cycle; }
};

/// One autoscaler action: delta is +1 (spin up a replica, ready after the
/// warm-up) or -1 (drain the highest-index active replica).
struct ScaleEvent {
  std::uint64_t cycle = 0;
  std::size_t node = 0;
  int delta = 0;
  std::size_t replicas_after = 0;  ///< active + warming replicas post-action
};

/// Per-deadline-class scorecard. Classes are ordered as configured
/// (conventionally tightest deadline first).
struct ClassStats {
  std::string name;
  std::uint64_t deadline_cycles = 0;  ///< 0 = best-effort (no SLO)

  std::size_t offered = 0;
  std::size_t completed = 0;
  std::uint64_t shed_overflow = 0;  ///< node queue full
  std::uint64_t shed_deadline = 0;  ///< admission predicted an SLO miss

  std::uint64_t p50_latency_cycles = 0;
  std::uint64_t p95_latency_cycles = 0;
  std::uint64_t p99_latency_cycles = 0;
  std::uint64_t p999_latency_cycles = 0;
  double mean_latency_cycles = 0.0;

  /// Completed requests whose end-to-end latency still exceeded the class
  /// deadline (admission is an estimate, not a guarantee).
  std::size_t deadline_misses = 0;
};

/// One directed network hop's transfer volume and cycle attribution
/// (wire_busy + credit_stall + idle == makespan; see net_model.hpp).
struct HopStats {
  std::string name;
  std::uint64_t words = 0;
  dfc::obs::LinkActivity activity{};
};

/// Per-node scorecard.
struct NodeStats {
  std::size_t node = 0;
  std::size_t boards = 1;  ///< devices per replica (>1 = multi-board pipeline)

  std::size_t routed = 0;  ///< requests the balancer sent this way
  std::size_t completed = 0;
  std::uint64_t shed_overflow = 0;
  std::uint64_t shed_deadline = 0;
  std::size_t batches = 0;

  std::size_t replicas_start = 0;
  std::size_t replicas_peak = 0;
  std::size_t replicas_final = 0;
  std::size_t scale_ups = 0;
  std::size_t scale_downs = 0;

  std::uint64_t busy_cycles = 0;  ///< summed replica service cycles
  /// busy_cycles / (makespan * replicas_peak): fleet-level utilization of the
  /// node's peak provisioned capacity.
  double utilization = 0.0;

  HopStats ingress;  ///< front end -> node
  HopStats egress;   ///< node -> front end
};

/// Aggregate scorecard of a cluster scenario.
struct ClusterStats {
  std::string name;    ///< scenario label (e.g. "diurnal")
  std::string design;  ///< network design name
  std::string policy;  ///< routing policy name
  std::string shape;   ///< arrival process name

  std::size_t offered_requests = 0;
  std::size_t completed_requests = 0;
  std::uint64_t shed_overflow = 0;
  std::uint64_t shed_deadline = 0;

  double offered_rps = 0.0;    ///< requests/s over the arrival span (100 MHz)
  double sustained_rps = 0.0;  ///< completions/s, first arrival -> last response

  std::uint64_t p50_latency_cycles = 0;
  std::uint64_t p99_latency_cycles = 0;
  std::uint64_t p999_latency_cycles = 0;

  std::uint64_t makespan_cycles = 0;  ///< first arrival -> last response
  std::size_t scale_events = 0;

  std::vector<ClassStats> classes;
  std::vector<NodeStats> node_stats;

  /// ASCII tables for the CLI: cluster summary, per-class SLO table,
  /// per-node table with hop attribution.
  std::string render() const;

  /// One-line human verdict, e.g.
  /// "sustained 2.41 Mreq/s across 4 nodes; interactive p99 21.3 us; shed 1.2% (deadline 0.9%)".
  std::string verdict() const;

  /// Deterministic JSON object (integers exact, doubles at fixed precision)
  /// — the payload CI gates on and `dfcnn cluster --out` writes.
  std::string to_json() const;
};

/// The planner loop's work (DESIGN.md §14): exact counts for its host-time
/// accounting, kept beside the reports and rendered into none of them.
struct PlannerWork {
  std::uint64_t iterations = 0;   ///< event cycles the loop stopped at
  std::uint64_t node_visits = 0;  ///< per-node phases run, one per node per phase
};

/// Everything a cluster run produces. Outcomes are indexed by request id.
struct ClusterReport {
  ClusterStats stats;
  std::vector<ClusterOutcome> outcomes;
  std::vector<ScaleEvent> scale_events;
  PlannerWork planner;

  /// Per-request CSV (header + one row per request, id order) — the
  /// byte-identity artifact the determinism tests hash.
  std::string csv() const;
};

}  // namespace dfc::cluster
