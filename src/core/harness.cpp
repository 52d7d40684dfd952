#include "core/harness.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "core/functional_model.hpp"
#include "core/schedule.hpp"

namespace dfc::core {

const char* run_status_name(RunStatus status) {
  switch (status) {
    case RunStatus::kOk: return "ok";
    case RunStatus::kTimeout: return "timeout";
    case RunStatus::kDeadlock: return "deadlock";
  }
  return "unknown";
}

std::vector<std::uint64_t> BatchResult::completion_intervals() const {
  std::vector<std::uint64_t> intervals;
  if (completion_cycles.size() < 2) return intervals;
  intervals.reserve(completion_cycles.size() - 1);
  for (std::size_t i = 1; i < completion_cycles.size(); ++i) {
    intervals.push_back(completion_cycles[i] - completion_cycles[i - 1]);
  }
  return intervals;
}

std::uint64_t BatchResult::steady_interval_cycles() const {
  if (completion_cycles.size() < 2) return 0;
  std::vector<std::uint64_t> intervals = completion_intervals();
  // Trailing window capped at half the intervals: the first intervals of a
  // short batch are pipeline-fill transients, and a window that reaches into
  // them reports an inflated steady rate.
  const std::size_t k = std::min<std::size_t>(8, (intervals.size() + 1) / 2);
  std::vector<std::uint64_t> tail(intervals.end() - static_cast<std::ptrdiff_t>(k),
                                  intervals.end());
  std::sort(tail.begin(), tail.end());
  if (k % 2 == 1) return tail[k / 2];
  return (tail[k / 2 - 1] + tail[k / 2]) / 2;
}

std::int64_t BatchResult::predicted_class(std::size_t i) const {
  const auto& logits = outputs.at(i);
  return static_cast<std::int64_t>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

AcceleratorHarness::~AcceleratorHarness() = default;

bool AcceleratorHarness::compiled_mode_legal() const {
  if (acc_.options.execution_mode != ExecutionMode::kCompiledSchedule) return false;
  const dfc::df::SimContext& ctx = *acc_.ctx;
  return ctx.cycle_hook() == nullptr && !ctx.observing() && !ctx.paranoid() &&
         !ctx.integrity_guards_active() && !acc_.sink->stream_guard_enabled();
}

BatchResult AcceleratorHarness::collect(std::uint64_t start_cycle,
                                        std::size_t requested) const {
  BatchResult r;
  r.start_cycle = start_cycle;
  r.requested = requested;
  r.inject_cycles = acc_.source->inject_cycles();
  r.completion_cycles = acc_.sink->completion_cycles();
  r.outputs = acc_.sink->outputs();
  r.end_cycle = r.completion_cycles.empty() ? start_cycle : r.completion_cycles.back();
  return r;
}

BatchResult AcceleratorHarness::run_engine(const std::vector<Tensor>& images,
                                           std::uint64_t max_cycles, bool sequential) {
  if (compiled_mode_legal()) return run_compiled(images, max_cycles, sequential);

  reset();
  const std::uint64_t start = acc_.ctx->cycle();
  RunStatus status = RunStatus::kOk;
  std::string error;
  try {
    if (sequential) {
      for (std::size_t n = 0; n < images.size(); ++n) {
        acc_.source->enqueue(images[n]);
        const std::size_t want = n + 1;
        acc_.ctx->run_until([&] { return acc_.sink->images_completed() >= want; },
                            max_cycles);
      }
    } else {
      for (const Tensor& img : images) acc_.source->enqueue(img);
      const std::size_t want = images.size();
      acc_.ctx->run_until([&] { return acc_.sink->images_completed() >= want; },
                          max_cycles);
    }
  } catch (const TimeoutError& e) {
    status = RunStatus::kTimeout;
    error = e.what();
  } catch (const DeadlockError& e) {
    status = RunStatus::kDeadlock;
    error = e.what();
  }

  BatchResult r = collect(start, images.size());
  r.status = status;
  r.error = std::move(error);
  // A partial run's span is the cycles actually burnt, not the last
  // completion before the abort.
  if (!r.ok()) r.end_cycle = acc_.ctx->cycle();
  return r;
}

BatchResult AcceleratorHarness::run_compiled(const std::vector<Tensor>& images,
                                             std::uint64_t max_cycles, bool sequential) {
  auto& slot = sequential ? sequential_schedule_ : batch_schedule_;
  if (slot == nullptr) {
    slot = shared_schedule(acc_.spec, acc_.options,
                           sequential ? ScheduleMode::kSequential : ScheduleMode::kBatch);
  }
  if (functional_ == nullptr) functional_ = shared_functional_model(acc_.spec);
  const CompiledSchedule& sched = *slot;

  // Leave the context in the same power-on state a cycle-level run starts
  // from, so mixing engines on one harness never sees stale sink data.
  reset();

  BatchResult r;
  r.start_cycle = 0;
  r.requested = images.size();

  // Replay the schedule, applying the same cycle budget run_until enforces:
  // in batch mode one budget spans the whole run; in sequential mode each
  // image gets its own budget starting one cycle after the previous drain.
  std::uint64_t abort_cycle = 0;
  std::size_t completed = images.size();
  for (std::size_t i = 0; i < images.size(); ++i) {
    const std::uint64_t window_start = !sequential ? 0
                                       : i == 0    ? 0
                                                   : sched.completion_cycle(i - 1) + 1;
    if (sched.completion_cycle(i) - window_start >= max_cycles) {
      r.status = RunStatus::kTimeout;
      abort_cycle = window_start + max_cycles;
      completed = i;
      r.error = "run_until exceeded " + std::to_string(max_cycles) +
                " cycles (compiled schedule: image " + std::to_string(i) +
                " completes at cycle " + std::to_string(sched.completion_cycle(i)) + ")";
      break;
    }
  }

  for (std::size_t i = 0; i < images.size(); ++i) {
    if (!r.ok() && sched.inject_cycle(i) >= abort_cycle) break;
    r.inject_cycles.push_back(sched.inject_cycle(i));
  }
  for (std::size_t i = 0; i < completed; ++i) {
    r.completion_cycles.push_back(sched.completion_cycle(i));
    r.outputs.push_back(functional_->infer(images[i]));
  }
  r.end_cycle = r.ok() ? sched.completion_cycle(images.size() - 1) : abort_cycle;
  return r;
}

BatchResult AcceleratorHarness::run_batch(const std::vector<Tensor>& images,
                                          std::uint64_t max_cycles) {
  DFC_REQUIRE(!images.empty(), "run_batch needs at least one image");
  return run_engine(images, max_cycles, /*sequential=*/false);
}

BatchResult AcceleratorHarness::run_sequential(const std::vector<Tensor>& images,
                                               std::uint64_t max_cycles) {
  DFC_REQUIRE(!images.empty(), "run_sequential needs at least one image");
  return run_engine(images, max_cycles, /*sequential=*/true);
}

std::vector<float> AcceleratorHarness::run_image(const Tensor& image) {
  const BatchResult r = run_batch({image});
  DFC_CHECK(r.ok(), std::string("run_image did not complete: ") + run_status_name(r.status));
  return r.outputs.front();
}

void AcceleratorHarness::reset() {
  acc_.ctx->reset();
  // Each run is an independent measurement: without this, FIFO occupancy and
  // stall statistics accumulate across batches and every report after the
  // first describes a mixture of runs.
  acc_.ctx->reset_fifo_stats();
}

}  // namespace dfc::core
