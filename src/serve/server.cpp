#include "serve/server.hpp"

#include <algorithm>
#include <utility>

#include "cluster/fleet.hpp"
#include "cluster/service_table.hpp"
#include "common/math_util.hpp"
#include "core/harness.hpp"

namespace dfc::serve {

namespace {

ServeStats summarize(const std::vector<Request>& requests,
                     const std::vector<RequestOutcome>& outcomes,
                     const std::vector<BatchRecord>& batches, std::size_t max_queue_depth,
                     double depth_cycle_area, std::size_t quarantined_replicas) {
  ServeStats s;
  s.offered_requests = requests.size();
  s.batches = batches.size();
  s.max_queue_depth = max_queue_depth;
  s.quarantined_replicas = quarantined_replicas;

  const std::uint64_t first_arrival = requests.front().arrival_cycle;
  const std::uint64_t last_arrival = requests.back().arrival_cycle;
  std::uint64_t last_completion = last_arrival;

  std::vector<std::uint64_t> latencies;
  latencies.reserve(outcomes.size());
  double latency_sum = 0.0;
  std::size_t batched_requests = 0;
  for (const RequestOutcome& o : outcomes) {
    if (o.retries > 0) {
      ++s.retried_requests;
      s.retry_attempts += o.retries;
    }
    if (o.shed) {
      ++s.shed_requests;
      continue;
    }
    if (o.failed) {
      ++s.failed_requests;
      continue;
    }
    ++s.completed_requests;
    latencies.push_back(o.latency_cycles());
    latency_sum += static_cast<double>(o.latency_cycles());
    last_completion = std::max(last_completion, o.completion_cycle);
  }
  for (const BatchRecord& b : batches) {
    batched_requests += b.size();
    if (b.failed) ++s.failed_batches;
    if (b.corrupted) ++s.corrupted_batches;
  }
  s.mean_batch_size =
      s.batches > 0 ? static_cast<double>(batched_requests) / static_cast<double>(s.batches)
                    : 0.0;

  s.makespan_cycles = last_completion - first_arrival;
  const double arrival_span =
      static_cast<double>(std::max<std::uint64_t>(last_arrival - first_arrival, 1));
  const double total_span = static_cast<double>(std::max<std::uint64_t>(s.makespan_cycles, 1));
  s.offered_rps = static_cast<double>(s.offered_requests) /
                  dfc::core::cycles_to_seconds(arrival_span);
  s.sustained_rps = static_cast<double>(s.completed_requests) /
                    dfc::core::cycles_to_seconds(total_span);
  s.mean_queue_depth = depth_cycle_area / total_span;

  const LatencyPercentiles lp = latency_percentiles(std::move(latencies));
  s.p50_latency_cycles = lp.p50;
  s.p95_latency_cycles = lp.p95;
  s.p99_latency_cycles = lp.p99;
  s.p999_latency_cycles = lp.p999;
  s.mean_latency_cycles = s.completed_requests == 0
                              ? 0.0
                              : latency_sum / static_cast<double>(s.completed_requests);
  return s;
}

}  // namespace

ServeReport plan_serving(const std::vector<Request>& requests, const ServeConfig& config,
                         const std::vector<std::uint64_t>& service_table) {
  // The fleet planner's one-node case: no hops, no autoscaler, one
  // best-effort class.
  cluster::ClusterConfig node;
  node.nodes.resize(1);
  node.nodes[0].replicas = config.replicas;
  node.nodes[0].queue_capacity = config.queue_capacity;
  node.batcher = config.batcher;
  node.autoscaler.enabled = false;

  // Every figure below is derived from the simulated timeline (no wall
  // clock), so the registry contents are deterministic.
  cluster::NodeMetrics m;
  if (config.metrics != nullptr) {
    dfc::MetricsRegistry& r = *config.metrics;
    m.admitted = &r.counter("serve_requests_admitted_total",
                            "Requests accepted into the admission queue");
    m.shed = &r.counter("serve_requests_shed_total", "Requests rejected because the queue was full");
    m.depth = &r.gauge("serve_queue_depth", "Current admission queue depth");
    m.batches = &r.counter("serve_batches_total", "Batches dispatched");
    m.completed = &r.counter("serve_requests_completed_total", "Requests completed");
    m.busy = &r.counter("serve_replica_busy_cycles_total", "Cycles replicas spent executing batches");
    m.batch_size = &r.histogram("serve_batch_size", "Dispatched batch sizes",
                                dfc::linear_buckets(1.0, 1.0, config.batcher.max_batch_size));
    m.latency = &r.histogram("serve_latency_cycles",
                             "Request latency (arrival to completion) in fabric cycles",
                             dfc::exponential_buckets(256.0, 2.0, 16));
    if (cluster::plans_replica_faults(config.faults)) {
      // Registered only in fault mode so fault-free registries (and their
      // snapshot CSV columns) stay byte-identical to the pre-fault system.
      m.retries = &r.counter("serve_retry_attempts_total", "Requests re-enqueued");
      m.failed_requests =
          &r.counter("serve_failed_requests_total", "Requests whose retry budget ran out");
      m.failed_batches = &r.counter("serve_failed_batches_total", "Batches killed mid-service");
      m.corrupted =
          &r.counter("serve_corrupted_batches_total", "Batches rejected by output detection");
      m.quarantined = &r.gauge("serve_quarantined_replicas", "Replicas removed from the pool");
    }
  }

  cluster::FleetRun<RequestOutcome> run =
      cluster::plan_fleet<RequestOutcome>(requests, {}, node, {service_table}, {m}, &config);
  const cluster::NodeTally& tally = run.nodes.front();
  ServeReport report;
  report.stats = summarize(requests, run.outcomes, run.batch_records, tally.max_queue_depth,
                           tally.queue_depth_area, tally.quarantined);
  DFC_CHECK(report.stats.shed_requests == tally.stats.shed_overflow,
            "outcome shed flags disagree with the node's shed count");
  report.outcomes = std::move(run.outcomes);
  report.batch_records = std::move(run.batch_records);
  report.metrics_csv = std::move(run.metrics_csv);
  return report;
}

InferenceServer::InferenceServer(const dfc::core::NetworkSpec& spec, const ServeConfig& config,
                                 std::size_t boards)
    : config_(config), boards_(boards), pool_(spec, config.replicas, config.build, boards) {}

ServeReport InferenceServer::run(const Load& load) {
  if (config_.metrics != nullptr) {
    config_.metrics->gauge("serve_replicas", "Replica accelerators behind the endpoint")
        .set(static_cast<double>(pool_.size()));
  }
  if (table_.empty()) {
    table_ = cluster::measure_service_table(pool_.spec(), boards_, config_.batcher.max_batch_size,
                                            {}, config_.build);
  }
  ServeReport report = plan_serving(load.requests, config_, table_);
  report.stats.name = pool_.spec().name;

  if (config_.compute_outputs) {
    std::vector<std::size_t> request_image_index(load.requests.size());
    for (const Request& r : load.requests) request_image_index[r.id] = r.image_index;
    report.logits =
        pool_.execute(report.batch_records, load.images, request_image_index, config_.threads);
  }
  return report;
}

}  // namespace dfc::serve
