// Result types of a serving run: per-request outcomes, per-batch records,
// and the aggregate ServeStats scorecard (offered vs sustained throughput,
// queue behaviour, shed count, latency percentiles in cycles).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_stats.hpp"

namespace dfc::serve {

/// What happened to one request. Cycles are simulated fabric cycles; a shed
/// request has only its arrival. A run keeps one per request, so it holds
/// plain data only (56 bytes); logits live in ServeReport::logits.
struct RequestOutcome {
  std::uint64_t id = 0;
  std::uint64_t arrival_cycle = 0;
  std::uint64_t dispatch_cycle = 0;    ///< batch close / replica start
  std::uint64_t completion_cycle = 0;  ///< last output word of its batch
  std::size_t batch_id = 0;
  std::size_t replica = 0;
  std::uint32_t retries = 0;  ///< fault mode: re-enqueues after a failed/corrupted batch
  bool shed = false;          ///< refused at arrival by a full queue
  bool failed = false;        ///< fault mode: retry budget exhausted or pool fully dead

  /// Queueing + service latency (valid when !shed && !failed); the arrival is
  /// the original one, so retried requests pay their wasted attempts.
  std::uint64_t latency_cycles() const { return completion_cycle - arrival_cycle; }
};

/// One dispatched batch: which requests ran where, and for how long.
struct BatchRecord {
  std::size_t id = 0;
  std::size_t replica = 0;
  std::uint64_t dispatch_cycle = 0;
  std::uint64_t completion_cycle = 0;  ///< kill cycle for a failed batch
  std::vector<std::uint64_t> request_ids;

  // Fault-mode flags: a failed batch died with its replica mid-service; a
  // corrupted batch completed on time but detection rejected its outputs.
  bool failed = false;
  bool corrupted = false;

  std::size_t size() const { return request_ids.size(); }
  std::uint64_t service_cycles() const { return completion_cycle - dispatch_cycle; }
};

/// Aggregate scorecard of a load scenario.
struct ServeStats {
  std::string name;

  std::size_t offered_requests = 0;
  std::size_t completed_requests = 0;
  std::uint64_t shed_requests = 0;

  double offered_rps = 0.0;    ///< requests/s over the arrival span (100 MHz)
  double sustained_rps = 0.0;  ///< completions/s from first arrival to last completion

  std::size_t batches = 0;
  double mean_batch_size = 0.0;

  std::size_t max_queue_depth = 0;
  double mean_queue_depth = 0.0;  ///< time-weighted over the whole run

  std::uint64_t p50_latency_cycles = 0;
  std::uint64_t p95_latency_cycles = 0;
  std::uint64_t p99_latency_cycles = 0;
  /// Nearest-rank p99.9 (degenerates to the max below 1000 samples).
  std::uint64_t p999_latency_cycles = 0;
  double mean_latency_cycles = 0.0;

  std::uint64_t makespan_cycles = 0;  ///< first arrival -> last completion

  // Fault-mode counters (all zero in fault-free runs; render() hides them
  // then, keeping fault-free output byte-identical to the pre-fault system).
  std::uint64_t retried_requests = 0;    ///< requests re-enqueued at least once
  std::uint64_t retry_attempts = 0;      ///< total re-enqueues
  std::size_t failed_requests = 0;       ///< retry budget exhausted / pool dead
  std::size_t failed_batches = 0;        ///< batches killed mid-service
  std::size_t corrupted_batches = 0;     ///< batches rejected by detection
  std::size_t quarantined_replicas = 0;  ///< replicas removed from the pool

  /// ASCII table for the CLI (latency shown in both cycles and us).
  std::string render() const;
};

/// Everything a serving run produces. Outcomes are indexed by request id.
struct ServeReport {
  ServeStats stats;
  std::vector<RequestOutcome> outcomes;
  /// Per-request logits, indexed by request id; empty unless
  /// ServeConfig::compute_outputs is set, and empty for a request that never
  /// completed.
  std::vector<std::vector<float>> logits;
  std::vector<BatchRecord> batch_records;
  /// Periodic metric snapshots (CSV text, header + one row per sample);
  /// empty unless ServeConfig::metrics_snapshot_cycles is set.
  std::string metrics_csv;
  cluster::PlannerWork planner;  ///< the fleet loop's work on its one node
};

}  // namespace dfc::serve
