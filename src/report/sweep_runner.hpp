// Parallel sweep runner for independent measurement points.
//
// Every bench sweep (Fig. 6 batch sizes, port-scaling ablations, DSE
// candidates) simulates several configurations that share no state: each
// point builds its own Accelerator, hence its own SimContext, processes and
// FIFOs. run_sweep executes such jobs on a thread pool and returns the
// results in job order, so bench output is byte-identical to a sequential
// run — only the wall clock changes.
//
// Thread count: explicit argument > DFCNN_SWEEP_THREADS env var >
// std::thread::hardware_concurrency(). Set DFCNN_SWEEP_THREADS=1 to force
// sequential execution (e.g. when profiling a single simulation).
//
// The worker-pool machinery itself lives in common/thread_pool.{hpp,cpp};
// this header keeps the sweep-flavoured API the benches use.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/thread_pool.hpp"

namespace dfc::report {

/// Executes independent jobs concurrently; result i is jobs[i]'s return
/// value. Each job must be self-contained (build its own accelerator — a
/// SimContext must never be shared across sweep points), which makes the
/// results deterministic regardless of scheduling.
template <typename R>
std::vector<R> run_sweep(const std::vector<std::function<R()>>& jobs,
                         std::size_t threads = 0) {
  std::vector<R> results(jobs.size());
  dfc::run_indexed(jobs.size(), threads, [&](std::size_t i) { results[i] = jobs[i](); });
  return results;
}

}  // namespace dfc::report
