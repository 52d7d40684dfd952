#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

namespace dfc {

namespace {
/// Set on pool worker threads: a nested run_indexed runs inline.
thread_local bool t_pool_worker = false;
}  // namespace

std::size_t default_worker_count() {
  if (const char* env = std::getenv("DFCNN_SWEEP_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void run_indexed(std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (threads == 0) threads = default_worker_count();
  threads = std::min(threads, count);

  if (threads <= 1 || t_pool_worker) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    t_pool_worker = true;
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
    t_pool_worker = false;
  };

  // The calling thread is one of the `threads` workers.
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();

  for (std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace dfc
