// The one serving planner (DESIGN.md §14): a deterministic discrete-event
// loop over nodes, each of which owns queue -> batch -> replica -> recovery.
//
// plan_cluster composes N nodes behind routing, network hops, deadline
// classes and the autoscaler; plan_serving runs the same loop with one node
// and no hops, so a delivery lands in the cycle of its arrival. The loop is
// pure, single-threaded arithmetic over measured service tables: the same
// load and configuration give byte-identical reports on any machine with
// any DFCNN_SWEEP_THREADS.
//
// Event order within one cycle (fixed, hence deterministic):
//   1. completions and verdicts: a clean batch's responses take the egress
//      hop home; a failed or corrupted one sends its riders to retry and
//      feeds the quarantine count; draining and dead replicas retire;
//   2. autoscaler evaluations, node index order;
//   3. arrivals, routed onto their node's ingress hop (or straight to the
//      node when there is no hop);
//   4. deliveries: admission sheds on queue overflow, then on a predicted
//      deadline miss;
//   5. retries whose backoff has elapsed re-enter the queue;
//   6. dispatch: batches close (DynamicBatcher) onto the lowest-index free
//      active replica of each node.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/cluster_stats.hpp"
#include "common/metrics.hpp"
#include "fault/fault_plan.hpp"
#include "serve/server.hpp"

namespace dfc::cluster {

/// The metrics one node keeps current; null ones are not kept. Each front
/// end registers its own schema: the fleet the gauges that routing and the
/// autoscaler read, serve its admission, batch and recovery metrics.
struct NodeMetrics {
  dfc::Gauge* depth = nullptr;     ///< queued requests
  dfc::Gauge* inflight = nullptr;  ///< routed, on the wire or in service
  dfc::Gauge* active = nullptr;    ///< active replicas
  dfc::Counter* routed = nullptr;
  dfc::Counter* admitted = nullptr;
  dfc::Counter* shed = nullptr;  ///< refused by admission (retries too)
  dfc::Counter* batches = nullptr;
  dfc::Counter* completed = nullptr;
  dfc::Counter* busy = nullptr;  ///< replica service cycles
  dfc::Histogram* batch_size = nullptr;
  dfc::Histogram* latency = nullptr;
  dfc::Counter* retries = nullptr;
  dfc::Counter* failed_requests = nullptr;
  dfc::Counter* failed_batches = nullptr;
  dfc::Counter* corrupted = nullptr;
  dfc::Gauge* quarantined = nullptr;
};

/// Per-node accumulators: the fleet's scorecard (all but utilization, which
/// needs the makespan) and the queue and pool figures serve reports.
struct NodeTally {
  NodeStats stats;  ///< hop attribution over [first arrival, last response]
  std::size_t quarantined = 0;
  std::size_t max_queue_depth = 0;
  double queue_depth_area = 0.0;  ///< queue depth integrated over cycles
};

/// Everything one run of the loop produces. Outcomes are indexed by
/// request id.
template <class Outcome>
struct FleetRun {
  std::vector<Outcome> outcomes;
  std::vector<dfc::serve::BatchRecord> batch_records;  ///< serve only
  std::vector<ScaleEvent> scale_events;
  std::vector<NodeTally> nodes;
  std::uint64_t last_response = 0;  ///< hops only
  std::string metrics_csv;          ///< serve's metric snapshots
};

/// True when `plan` kills or corrupts serving replicas; its FIFO faults are
/// the campaign runner's business.
bool plans_replica_faults(const fault::FaultPlan* plan);

/// Plans `requests` (sorted by arrival, ids equal to their index) on the
/// nodes of `fleet`, node i priced by `tables[i]` (entry n-1 = cycles of a
/// size-n batch, every size up to the batcher max present) and keeping
/// `metrics[i]` current.
///
/// Outcome is ClusterOutcome for the fleet: requests of `class_of[id]` take
/// network hops and `serve` is null. Outcome is serve::RequestOutcome for
/// plan_serving: one node, no hops, `class_of` empty (one best-effort
/// class), and `serve` supplies the fault plan, recovery policy, span sink
/// and metric snapshots.
template <class Outcome>
FleetRun<Outcome> plan_fleet(const std::vector<dfc::serve::Request>& requests,
                             const std::vector<std::size_t>& class_of,
                             const ClusterConfig& fleet,
                             const std::vector<std::vector<std::uint64_t>>& tables,
                             const std::vector<NodeMetrics>& metrics,
                             const dfc::serve::ServeConfig* serve);

}  // namespace dfc::cluster
