// Shared worker-pool primitives.
//
// Originally private to the report sweep runner, hoisted here so that
// run_sweep (independent measurement points), the serve replica pool
// (independent simulated FPGAs) and the compiled path's functional model
// (independent images of one batch) fan work out the same way. The contract
// that makes callers deterministic is unchanged: work items are independent,
// results are stored by index, and exceptions are captured per index with
// the lowest-index one rethrown after all workers join — so any run is
// byte-identical to a sequential one regardless of the worker count.
//
// The calling thread is one of the workers: a call on N workers spawns N-1
// threads and joins them before it returns. One fan-out level: a run_indexed
// call made from inside a worker runs its bodies inline on that worker, in
// index order. A sweep point or replica that runs a compiled batch therefore
// never spawns a second pool, and no more workers than the outer call asked
// for are ever alive.
//
// Worker count resolution: explicit argument > DFCNN_SWEEP_THREADS env var >
// std::thread::hardware_concurrency(). Set DFCNN_SWEEP_THREADS=1 to force
// sequential execution (e.g. when profiling a single simulation).
#pragma once

#include <cstddef>
#include <functional>

namespace dfc {

/// Worker count used when a `threads` argument is 0: the
/// DFCNN_SWEEP_THREADS env var if set (>= 1), else hardware concurrency.
std::size_t default_worker_count();

/// Runs body(i) for every i in [0, count) on `threads` workers (0 = auto,
/// clamped to `count`). With one worker, or when called from a pool worker,
/// the bodies run inline in index order. Exceptions are captured per index
/// and, after all workers have joined, the lowest-index one is rethrown —
/// matching sequential behaviour.
void run_indexed(std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t)>& body);

}  // namespace dfc
