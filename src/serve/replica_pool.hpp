// A pool of identical simulated FPGAs behind one serving endpoint.
//
// Each replica is a full AcceleratorHarness (its own SimContext, FIFOs and
// cores) built from the same NetworkSpec, so replicas are interchangeable
// and a batch's cycle cost is a pure function of its size: the simulator is
// deterministic and the design's timing is data-independent (README
// "Timing ≠ weights"). That purity is what keeps serving results
// reproducible while still running the heavy cycle-level simulations on
// worker threads (common/thread_pool):
//   * warm() measures service_cycles(1..max_batch) by fanning the batch
//     sizes out across the replica harnesses, one worker per replica;
//   * the serve event loop then consumes the memoized table, so the
//     simulated timeline never depends on host scheduling;
//   * execute() replays a planned timeline to produce real logits, replicas
//     in parallel, and cross-checks that every batch's measured cycles
//     match the plan — a built-in determinism audit.
#pragma once

#include <cstdint>
#include <vector>

#include "core/builder.hpp"
#include "core/harness.hpp"
#include "serve/serve_stats.hpp"
#include "tensor/tensor.hpp"

namespace dfc::serve {

class ReplicaPool {
 public:
  /// Builds `replicas` accelerators from `spec`. Throws ConfigError on
  /// replicas == 0 or an invalid spec.
  ReplicaPool(const dfc::core::NetworkSpec& spec, std::size_t replicas,
              const dfc::core::BuildOptions& options = {});

  std::size_t size() const { return harnesses_.size(); }
  const dfc::core::NetworkSpec& spec() const { return spec_; }

  /// Cycles a replica needs to run a back-to-back batch of `n` images,
  /// memoized (first call per size simulates on replica 0).
  std::uint64_t service_cycles(std::size_t n);

  /// Pre-measures batch sizes 1..max_batch across the replica harnesses on
  /// `threads` workers (0 = auto, capped at the replica count — a harness
  /// is never shared between workers).
  void warm(std::size_t max_batch, std::size_t threads = 0);

  /// Largest batch size with a memoized service time (0 = nothing warmed).
  std::size_t warmed_batch_limit() const;

  /// Replays a planned timeline for real: every batch in `batch_records`
  /// runs on its assigned replica (same-replica batches in plan order,
  /// replicas in parallel). Returns per-request logits indexed by request
  /// id, one entry per `request_image_index` entry; requests of no clean
  /// batch get none. Throws InternalError if a batch's measured cycles
  /// disagree with the plan's service window.
  std::vector<std::vector<float>> execute(const std::vector<BatchRecord>& batch_records,
                                          const std::vector<Tensor>& images,
                                          const std::vector<std::size_t>& request_image_index,
                                          std::size_t threads = 0);

 private:
  std::uint64_t measure(std::size_t replica, std::size_t n);

  dfc::core::NetworkSpec spec_;
  std::vector<std::unique_ptr<dfc::core::AcceleratorHarness>> harnesses_;
  std::vector<std::uint64_t> service_cycles_;  ///< index n-1; 0 = unmeasured
};

}  // namespace dfc::serve
