// Cluster-scale serving: a simulated multi-node fleet in front of the serve
// stack (ROADMAP north star — "a production-scale serving system for
// millions of users", built from the paper's scalable dataflow device).
//
// Topology: a front-end load balancer connected to N nodes by directed
// network hops (net_model.hpp — interlink-law bandwidth/latency/credits,
// cycles attributed via obs::LinkActivity). Each node hosts a pool of
// identical replicas; a replica is a single-device accelerator or a
// multi-board src/multifpga pipeline, reduced to a measured service-time
// table (service_table.hpp) exactly like src/serve reduces its replicas.
//
// The timeline is planned by plan_cluster on the one planner loop
// (fleet.hpp), which plan_serving runs with one node and no hops: pure,
// single-threaded arithmetic over those tables, same load + config =>
// byte-identical ClusterReport on any machine with any DFCNN_SWEEP_THREADS.
// fleet.hpp lists the fixed event order within a cycle. Admission control
// runs where the queue lives, at ingress delivery: shed on queue overflow,
// then on a predicted SLO miss (deadline class), so under overload the
// tightest classes shed first because their deadlines bust first.
// Ingress/egress latency >= 1 guarantees a delivery never lands in the
// cycle it was sent, the same argument that makes the lockstep multi-board
// executor order-independent (DESIGN.md §11).
//
// Load balancing policies are deterministic:
//   * round-robin   — requests cycle through nodes in index order;
//   * least-loaded  — reads each node's queue-depth + in-flight gauges from
//     the common/metrics registry (the same gauges the autoscaler watches);
//     ties break on the lowest node index;
//   * weighted      — smooth weighted round-robin over NodeConfig::weight
//     (each pick: add weights, take the largest current value, subtract the
//     total), which interleaves maximally and is deterministic.
//
// Autoscaling: per node, driven by the queue-depth gauge sampled every
// eval_interval_cycles. Depth per active replica above scale_up_depth adds
// a replica that becomes usable only after warmup_cycles (modeled bitstream
// load / weight push); below scale_down_depth drains the highest-index
// active replica (it finishes its in-flight batch, then retires). Warming
// replicas count towards capacity in the scale-up test and a cooldown
// separates actions, so a load step triggers one decisive action instead of
// a thrash train — the hysteresis property tests assert.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "core/builder.hpp"
#include "core/interlink.hpp"
#include "core/network_spec.hpp"
#include "cluster/cluster_stats.hpp"
#include "cluster/net_model.hpp"
#include "serve/batcher.hpp"
#include "serve/load_generator.hpp"

namespace dfc::cluster {

enum class RoutePolicy {
  kRoundRobin,
  kLeastLoaded,  ///< queue depth + in-flight via the metrics gauges
  kWeighted,     ///< smooth weighted round-robin over NodeConfig::weight
};

const char* route_policy_name(RoutePolicy p);

/// An SLO tier. Requests are assigned to classes by seeded weighted draw
/// (assign_classes); admission sheds a request when its predicted completion
/// would miss `deadline_cycles` (0 = best-effort: never deadline-shed).
struct DeadlineClass {
  std::string name = "default";
  std::uint64_t deadline_cycles = 0;
  std::uint32_t traffic_weight = 1;  ///< share of offered traffic
};

/// The standard three-tier mix used by the CLI and the reference scenario:
/// interactive 25k cycles (250 us), standard 100k, batch best-effort.
std::vector<DeadlineClass> default_deadline_classes();

struct NodeConfig {
  std::size_t boards = 1;    ///< devices per replica (>1 = multi-board)
  std::size_t replicas = 2;  ///< initial pool size; autoscaler floor
  std::size_t queue_capacity = 256;
  std::uint32_t weight = 1;  ///< kWeighted routing share
  HopModel ingress{};        ///< front end -> node
  HopModel egress{};         ///< node -> front end
};

struct AutoscalerConfig {
  bool enabled = true;
  std::size_t max_replicas = 6;  ///< ceiling per node (floor = NodeConfig::replicas)
  /// Queue depth per active replica that triggers a scale-up / allows a
  /// scale-down. Hysteresis needs up > down.
  double scale_up_depth = 8.0;
  double scale_down_depth = 1.0;
  std::uint64_t eval_interval_cycles = 10'000;
  /// Modeled provisioning cost (bitstream load + weight push): a new replica
  /// serves no batch until warmup_cycles after its scale-up event.
  std::uint64_t warmup_cycles = 100'000;
  /// Minimum gap between two autoscaler actions on the same node.
  std::uint64_t cooldown_cycles = 50'000;
};

struct ClusterConfig {
  std::vector<NodeConfig> nodes;
  RoutePolicy policy = RoutePolicy::kLeastLoaded;
  dfc::serve::BatcherPolicy batcher{};
  AutoscalerConfig autoscaler{};
  /// SLO tiers (empty = one best-effort class). Order is reporting order;
  /// convention: tightest deadline first.
  std::vector<DeadlineClass> classes;
  /// Request/response payload sizes in link words. Defaults model descriptor
  /// dispatch (images pre-staged node-side, like the serve image pool), so
  /// the fabric prices coordination, not bulk image movement.
  std::uint64_t request_words = 16;
  std::uint64_t response_words = 16;
  std::uint64_t class_seed = 23;  ///< seeded class assignment

  /// Inter-board link of multi-board replicas (feeds the measured table).
  dfc::core::InterLinkModel board_link{};
  dfc::core::BuildOptions build{};
  /// Optional external metrics sink (non-owning; must outlive the run).
  /// The planner registers cluster_node<i>_queue_depth / _inflight /
  /// _replicas_active gauges and routed/shed counters either way (an
  /// internal registry is used when null) — the least-loaded policy and the
  /// autoscaler read the gauges, they never peek at planner internals.
  dfc::MetricsRegistry* metrics = nullptr;

  void validate() const;
};

/// Seeded weighted class assignment for `count` requests (index = request
/// id). Deterministic per (classes, seed); an empty class list yields all
/// zeros (the implicit best-effort class).
std::vector<std::size_t> assign_classes(std::size_t count,
                                        const std::vector<DeadlineClass>& classes,
                                        std::uint64_t seed);

/// Plans the cluster timeline for `requests` (sorted by arrival, ids equal
/// to their index) with `class_of[id]` the request's deadline class and
/// `tables[node]` the node's measured service table (entry n-1 = cycles of
/// a size-n batch; every size up to the batcher max must be present). Pure
/// and single-threaded — the determinism anchor everything above rides on.
ClusterReport plan_cluster(const std::vector<dfc::serve::Request>& requests,
                           const std::vector<std::size_t>& class_of,
                           const ClusterConfig& config,
                           const std::vector<std::vector<std::uint64_t>>& tables);

/// Owns the measured service tables and runs complete load scenarios.
class Cluster {
 public:
  /// Measures one service table per distinct NodeConfig::boards value
  /// (measure_service_table: interlink timing lands in the planner's
  /// service times).
  Cluster(const dfc::core::NetworkSpec& spec, const ClusterConfig& config);

  /// Assigns classes, plans the timeline and fills the scenario labels.
  ClusterReport run(const dfc::serve::Load& load, const std::string& scenario_name,
                    const std::string& shape_name);

  const ClusterConfig& config() const { return config_; }
  /// The measured table node `i` plans with.
  const std::vector<std::uint64_t>& table(std::size_t node) const { return tables_.at(node); }

 private:
  dfc::core::NetworkSpec spec_;
  ClusterConfig config_;
  std::vector<std::vector<std::uint64_t>> tables_;  ///< per node
};

}  // namespace dfc::cluster
