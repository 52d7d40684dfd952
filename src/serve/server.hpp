// The serving engine: request queue -> dynamic batcher -> replica pool.
//
// Serving is simulated as a deterministic discrete-event timeline in fabric
// cycles. The heavy cycle-level accelerator simulations are reduced to a
// memoized service-time table (batch size -> cycles; exact because the
// design's timing is data-independent), so the timeline itself is pure
// arithmetic: same load + same config => identical ServeStats on any
// machine with any DFCNN_SWEEP_THREADS. Worker threads are used where they
// cannot affect results — warming the table and replaying batches for real
// logits, one replica harness per worker.
//
// Event ordering within one cycle (fixed, hence deterministic):
//   1. arrivals are admitted or shed (admission sees the queue before any
//      dispatch in the same cycle, so a just-in-time arrival can still join
//      a closing batch);
//   2. batches close (size or timeout trigger) onto free replicas, lowest
//      replica index first.
#pragma once

#include <cstdint>
#include <vector>

#include "common/metrics.hpp"
#include "core/builder.hpp"
#include "fault/fault_plan.hpp"
#include "obs/trace.hpp"
#include "serve/batcher.hpp"
#include "serve/load_generator.hpp"
#include "serve/replica_pool.hpp"
#include "serve/serve_stats.hpp"

namespace dfc::serve {

/// Recovery policy for fault-mode serving (active when ServeConfig::faults
/// carries replica kills or batch corruptions): requests of a failed or
/// corrupted batch are re-enqueued with capped retry and exponential backoff,
/// while the offending replica is quarantined — drained and never dispatched
/// to again — so the pool degrades gracefully instead of wedging.
struct RecoveryPolicy {
  std::size_t max_retries = 2;         ///< re-enqueues per request before it fails
  std::uint64_t backoff_cycles = 256;  ///< first retry delay; doubles per attempt
  std::size_t quarantine_after_corruptions = 2;  ///< corrupted batches per replica
};

struct ServeConfig {
  std::size_t replicas = 2;
  std::size_t queue_capacity = 64;
  BatcherPolicy batcher{};
  /// Replay every planned batch on its replica to produce per-request
  /// logits in ServeReport::logits (and cross-check planned vs measured
  /// cycles). Off by default: load studies only need the timeline.
  bool compute_outputs = false;
  /// Worker threads for warm()/execute() (0 = auto). Never changes results.
  std::size_t threads = 0;
  dfc::core::BuildOptions build{};

  /// Optional metrics sink (non-owning; must outlive the run). When set, the
  /// planner records admission/shed counters, queue depth, a batch-size
  /// histogram, a latency histogram in cycles, and replica busy cycles.
  /// Metric values are functions of the simulated timeline only, so they are
  /// identical across runs and DFCNN_SWEEP_THREADS settings.
  dfc::MetricsRegistry* metrics = nullptr;
  /// With `metrics` set and this nonzero, sample every metric into a CSV row
  /// (stamped with the fabric cycle) each time the timeline crosses a
  /// multiple of this many cycles; the rows land in ServeReport::metrics_csv.
  std::uint64_t metrics_snapshot_cycles = 0;

  /// Optional trace sink (non-owning; must outlive the run). When set, the
  /// planner emits request-lifecycle spans: a `queued` span per admission
  /// (arrival -> dispatch) and an `execute` span (dispatch -> completion) on
  /// the shared request track, `assemble`/`batch` spans on the batcher and
  /// per-replica tracks, and 1-cycle `shed` markers. Spans carry only
  /// timeline integers, so a trace of the same load + config is
  /// byte-identical across runs and DFCNN_SWEEP_THREADS; in the fault-free
  /// system each request's queued + execute span cycles sum exactly to its
  /// measured latency (retry backoff gaps appear as holes between spans).
  obs::TraceSink* trace = nullptr;

  /// Optional fault plan (non-owning; must outlive the run). The planner
  /// consumes its replica_kills and batch_corruptions; with it null or empty
  /// the timeline, metrics and stats are byte-identical to the fault-free
  /// system. Fifo faults in the plan are the campaign runner's business.
  const fault::FaultPlan* faults = nullptr;
  RecoveryPolicy recovery{};
};

/// Plans the serving timeline for `requests` (sorted by arrival, ids equal
/// to their index) against a service-time table where entry n-1 holds the
/// cycles of a size-n batch (all sizes up to the batcher's max must be
/// present). Pure and single-threaded; this is the function rate sweeps
/// fan out over.
ServeReport plan_serving(const std::vector<Request>& requests, const ServeConfig& config,
                         const std::vector<std::uint64_t>& service_table);

/// Owns the replica pool and runs complete load scenarios against it.
class InferenceServer {
 public:
  InferenceServer(const dfc::core::NetworkSpec& spec, const ServeConfig& config);

  /// Warm (if needed) + plan; with config.compute_outputs also replays the
  /// plan on the replicas to fill ServeReport::logits.
  ServeReport run(const Load& load);

  ReplicaPool& pool() { return pool_; }
  const ServeConfig& config() const { return config_; }

 private:
  ServeConfig config_;
  ReplicaPool pool_;
};

}  // namespace dfc::serve
