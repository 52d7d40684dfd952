// A pool of identical simulated FPGAs behind one serving endpoint.
//
// Each replica is a full harness (its own SimContexts, FIFOs and cores)
// built by cluster::build_replica from the same NetworkSpec, so replicas are
// interchangeable and a batch's cycle cost is a pure function of its size:
// the simulator is deterministic and the design's timing is data-independent
// (README "Timing ≠ weights"). The planner prices batches with a service
// table measured on the same build (cluster::measure_service_table), so the
// simulated timeline never depends on host scheduling. The pool only
// replays: execute() runs a planned timeline for real logits, replicas in
// parallel on worker threads (common/thread_pool), and cross-checks that
// every batch's measured cycles match the plan — a built-in determinism
// audit.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/builder.hpp"
#include "core/harness.hpp"
#include "serve/serve_stats.hpp"
#include "tensor/tensor.hpp"

namespace dfc::serve {

class ReplicaPool {
 public:
  /// Builds `replicas` accelerators from `spec`, each spanning `boards`
  /// boards. Throws ConfigError on replicas == 0, boards == 0 or an invalid
  /// spec.
  ReplicaPool(const dfc::core::NetworkSpec& spec, std::size_t replicas,
              const dfc::core::BuildOptions& options = {}, std::size_t boards = 1);

  std::size_t size() const { return harnesses_.size(); }
  const dfc::core::NetworkSpec& spec() const { return spec_; }

  /// Replays a planned timeline for real: every batch in `batch_records`
  /// runs on its assigned replica (same-replica batches in plan order,
  /// replicas in parallel on `threads` workers, 0 = auto). Returns
  /// per-request logits indexed by request id, one entry per
  /// `request_image_index` entry; requests of no clean batch get none.
  /// Throws InternalError if a batch's measured cycles disagree with the
  /// plan's service window.
  std::vector<std::vector<float>> execute(const std::vector<BatchRecord>& batch_records,
                                          const std::vector<Tensor>& images,
                                          const std::vector<std::size_t>& request_image_index,
                                          std::size_t threads = 0);

 private:
  dfc::core::NetworkSpec spec_;
  std::vector<std::unique_ptr<dfc::core::Harness>> harnesses_;
};

}  // namespace dfc::serve
