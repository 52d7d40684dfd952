#include "cluster/cluster.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/harness.hpp"
#include "cluster/fleet.hpp"
#include "cluster/service_table.hpp"

namespace dfc::cluster {

const char* route_policy_name(RoutePolicy p) {
  switch (p) {
    case RoutePolicy::kRoundRobin: return "round-robin";
    case RoutePolicy::kLeastLoaded: return "least-loaded";
    case RoutePolicy::kWeighted: return "weighted";
  }
  return "?";
}

std::vector<DeadlineClass> default_deadline_classes() {
  return {
      {"interactive", 25'000, 3},  // 250 us end-to-end SLO
      {"standard", 100'000, 5},    // 1 ms
      {"batch", 0, 2},             // best-effort
  };
}

void ClusterConfig::validate() const {
  DFC_REQUIRE(!nodes.empty(), "cluster needs at least one node");
  DFC_REQUIRE(batcher.max_batch_size > 0, "batcher max batch size must be positive");
  DFC_REQUIRE(request_words > 0 && response_words > 0, "payload word counts must be positive");
  for (const NodeConfig& n : nodes) {
    DFC_REQUIRE(n.replicas > 0, "every node needs at least one replica");
    DFC_REQUIRE(n.queue_capacity > 0, "node queue capacity must be positive");
    DFC_REQUIRE(n.weight > 0, "node weight must be positive");
    n.ingress.validate();
    n.egress.validate();
  }
  if (autoscaler.enabled) {
    DFC_REQUIRE(autoscaler.eval_interval_cycles > 0, "autoscaler eval interval must be positive");
    DFC_REQUIRE(autoscaler.scale_up_depth > autoscaler.scale_down_depth,
                "autoscaler hysteresis needs scale_up_depth > scale_down_depth");
    for (const NodeConfig& n : nodes) {
      DFC_REQUIRE(n.replicas <= autoscaler.max_replicas,
                  "node starts above the autoscaler replica ceiling");
    }
  }
  for (const DeadlineClass& c : classes) {
    DFC_REQUIRE(c.traffic_weight > 0, "deadline class traffic weight must be positive");
  }
  board_link.validate();
}

std::vector<std::size_t> assign_classes(std::size_t count,
                                        const std::vector<DeadlineClass>& classes,
                                        std::uint64_t seed) {
  std::vector<std::size_t> out(count, 0);
  if (classes.size() <= 1) return out;
  std::uint64_t total = 0;
  for (const DeadlineClass& c : classes) total += c.traffic_weight;
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t draw = rng.next_below(total);
    for (std::size_t c = 0; c < classes.size(); ++c) {
      if (draw < classes[c].traffic_weight) {
        out[i] = c;
        break;
      }
      draw -= classes[c].traffic_weight;
    }
  }
  return out;
}

ClusterReport plan_cluster(const std::vector<dfc::serve::Request>& requests,
                           const std::vector<std::size_t>& class_of,
                           const ClusterConfig& config,
                           const std::vector<std::vector<std::uint64_t>>& tables) {
  // The gauges the least-loaded policy and the autoscaler read. An internal
  // registry backs them when the caller does not supply one; either way the
  // values are pure functions of the simulated timeline, hence deterministic.
  dfc::MetricsRegistry local_metrics;
  dfc::MetricsRegistry& metrics =
      config.metrics != nullptr ? *config.metrics : local_metrics;
  std::vector<NodeMetrics> node_metrics(config.nodes.size());
  for (std::size_t i = 0; i < config.nodes.size(); ++i) {
    NodeMetrics& m = node_metrics[i];
    const std::string prefix = "cluster_node" + std::to_string(i) + "_";
    m.depth = &metrics.gauge(prefix + "queue_depth", "Requests queued on the node");
    m.inflight = &metrics.gauge(prefix + "inflight",
                                "Routed requests on the wire or in service (not queued)");
    m.active = &metrics.gauge(prefix + "replicas_active", "Active replicas");
    m.active->set(static_cast<double>(config.nodes[i].replicas));
    m.routed = &metrics.counter(prefix + "routed_total", "Requests routed to the node");
    m.shed = &metrics.counter(prefix + "shed_total", "Requests shed by the node");
  }
  FleetRun<ClusterOutcome> run =
      plan_fleet<ClusterOutcome>(requests, class_of, config, tables, node_metrics, nullptr);

  ClusterReport report;
  report.outcomes = std::move(run.outcomes);
  report.scale_events = std::move(run.scale_events);
  report.planner = run.work;
  const std::vector<DeadlineClass> classes =
      config.classes.empty() ? std::vector<DeadlineClass>{DeadlineClass{}} : config.classes;
  const std::uint64_t first_arrival = requests.front().arrival_cycle;

  // ---- Scorecard -----------------------------------------------------------
  ClusterStats& stats = report.stats;
  stats.policy = route_policy_name(config.policy);
  stats.offered_requests = requests.size();
  stats.makespan_cycles = run.last_response - first_arrival;
  stats.scale_events = report.scale_events.size();

  std::vector<std::uint64_t> all_latencies;
  all_latencies.reserve(requests.size());
  std::vector<std::vector<std::uint64_t>> class_latencies(classes.size());
  std::vector<double> class_latency_sums(classes.size(), 0.0);
  stats.classes.resize(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    stats.classes[c].name = classes[c].name;
    stats.classes[c].deadline_cycles = classes[c].deadline_cycles;
  }
  for (const ClusterOutcome& o : report.outcomes) {
    ClassStats& cs = stats.classes[o.deadline_class];
    ++cs.offered;
    if (o.shed == ClusterOutcome::Shed::kOverflow) {
      ++cs.shed_overflow;
      ++stats.shed_overflow;
      continue;
    }
    if (o.shed == ClusterOutcome::Shed::kDeadline) {
      ++cs.shed_deadline;
      ++stats.shed_deadline;
      continue;
    }
    ++stats.completed_requests;
    ++cs.completed;
    const std::uint64_t lat = o.latency_cycles();
    all_latencies.push_back(lat);
    class_latencies[o.deadline_class].push_back(lat);
    class_latency_sums[o.deadline_class] += static_cast<double>(lat);
    if (cs.deadline_cycles > 0 && lat > cs.deadline_cycles) ++cs.deadline_misses;
  }
  for (std::size_t c = 0; c < classes.size(); ++c) {
    ClassStats& cs = stats.classes[c];
    const LatencyPercentiles lp = latency_percentiles(std::move(class_latencies[c]));
    cs.p50_latency_cycles = lp.p50;
    cs.p95_latency_cycles = lp.p95;
    cs.p99_latency_cycles = lp.p99;
    cs.p999_latency_cycles = lp.p999;
    cs.mean_latency_cycles =
        cs.completed > 0 ? class_latency_sums[c] / static_cast<double>(cs.completed) : 0.0;
  }
  const LatencyPercentiles lp = latency_percentiles(std::move(all_latencies));
  stats.p50_latency_cycles = lp.p50;
  stats.p99_latency_cycles = lp.p99;
  stats.p999_latency_cycles = lp.p999;

  const std::uint64_t last_arrival = requests.back().arrival_cycle;
  const double arrival_span =
      static_cast<double>(std::max<std::uint64_t>(last_arrival - first_arrival, 1));
  const double total_span = static_cast<double>(std::max<std::uint64_t>(stats.makespan_cycles, 1));
  stats.offered_rps =
      static_cast<double>(stats.offered_requests) / dfc::core::cycles_to_seconds(arrival_span);
  stats.sustained_rps =
      static_cast<double>(stats.completed_requests) / dfc::core::cycles_to_seconds(total_span);

  std::uint64_t shed_overflow = 0;
  std::uint64_t shed_deadline = 0;
  for (const NodeTally& t : run.nodes) {
    NodeStats& out = stats.node_stats.emplace_back(t.stats);
    out.utilization =
        static_cast<double>(out.busy_cycles) /
        (total_span * static_cast<double>(std::max<std::size_t>(out.replicas_peak, 1)));
    shed_overflow += out.shed_overflow;
    shed_deadline += out.shed_deadline;
  }
  DFC_CHECK(stats.shed_overflow == shed_overflow && stats.shed_deadline == shed_deadline,
            "outcome shed flags disagree with the nodes' shed counts");
  return report;
}

Cluster::Cluster(const dfc::core::NetworkSpec& spec, const ClusterConfig& config)
    : spec_(spec), config_(config) {
  config_.validate();
  // One measured table per distinct boards value; nodes with the same board
  // count share the measurement (replicas are identical by construction).
  std::map<std::size_t, std::vector<std::uint64_t>> by_boards;
  for (const NodeConfig& n : config_.nodes) {
    if (by_boards.find(n.boards) == by_boards.end()) {
      by_boards[n.boards] = measure_service_table(
          spec_, n.boards, config_.batcher.max_batch_size, config_.board_link, config_.build);
    }
  }
  tables_.reserve(config_.nodes.size());
  for (const NodeConfig& n : config_.nodes) tables_.push_back(by_boards[n.boards]);
}

ClusterReport Cluster::run(const dfc::serve::Load& load, const std::string& scenario_name,
                           const std::string& shape_name) {
  const std::vector<std::size_t> class_of =
      assign_classes(load.requests.size(), config_.classes, config_.class_seed);
  ClusterReport report = plan_cluster(load.requests, class_of, config_, tables_);
  report.stats.name = scenario_name;
  report.stats.design = spec_.name;
  report.stats.shape = shape_name;
  return report;
}

}  // namespace dfc::cluster
