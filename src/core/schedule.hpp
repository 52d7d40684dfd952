// Compiled static schedule of a built accelerator (DESIGN.md §10).
//
// The paper's central property — dataflow timing is data-independent and
// fully determined by the design (Eq. 4) — means the cycle engine re-derives
// the same handshake pattern for every image. This pass lowers that pattern
// into a flat schedule once: a fill-phase prefix of per-image inject and
// completion cycles measured on the cycle engine, plus a repeating steady
// interval (`period_images` images every `period_cycles` cycles) detected at
// the calibration tail. Replaying a batch is then pure arithmetic —
// cycle-identical to the engine — and the logits come from the bit-exact
// functional model (core/functional_model.hpp).
//
// Compilation is per (structural design, build options, board cut and credit
// window, schedule mode) and cached process-wide, because sweeps build a
// fresh accelerator per point:
// the first point pays one short calibration run, every other point replays.
// Weights are deliberately not part of the cache key — timing does not
// depend on them, which is exactly the property the DSE consistency test
// (tests/test_dse.cpp) pins against this schedule.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/builder.hpp"
#include "core/network_spec.hpp"

namespace dfc::core {

enum class ScheduleMode {
  kBatch,       ///< images stream back to back (run_batch)
  kSequential,  ///< each image drains before the next (run_sequential)
};

class CompiledSchedule {
 public:
  /// Inject/completion cycle of image i (counted from reset at cycle 0):
  /// prefix lookup for calibrated images, steady-interval extrapolation
  /// beyond them. The prefix-stability of the dataflow network (earlier
  /// images are never delayed by later ones; the shared DMA bus gives the
  /// sink priority) makes these valid for any batch size.
  std::uint64_t inject_cycle(std::size_t i) const {
    return extrapolate(inject_prefix_, i);
  }
  std::uint64_t completion_cycle(std::size_t i) const {
    return extrapolate(complete_prefix_, i);
  }

  /// Total cycles of a size-n batch from reset (== run's end_cycle).
  std::uint64_t batch_cycles(std::size_t n) const { return completion_cycle(n - 1); }

  ScheduleMode mode() const { return mode_; }
  std::size_t calibration_images() const { return inject_prefix_.size(); }
  std::size_t period_images() const { return period_images_; }
  std::uint64_t period_cycles() const { return period_cycles_; }

  /// Steady-state cycles per image (period averaged over its images).
  double steady_interval() const {
    return static_cast<double>(period_cycles_) / static_cast<double>(period_images_);
  }

 private:
  friend CompiledSchedule compile_schedule(const NetworkSpec&, const BuildOptions&,
                                           ScheduleMode, const std::vector<std::size_t>&, int);

  std::uint64_t extrapolate(const std::vector<std::uint64_t>& prefix, std::size_t i) const {
    if (i < prefix.size()) return prefix[i];
    // The last period_images_ calibrated images are the steady template.
    const std::size_t base = prefix.size() - period_images_;
    const std::size_t k = i - base;
    return prefix[base + k % period_images_] +
           static_cast<std::uint64_t>(k / period_images_) * period_cycles_;
  }

  ScheduleMode mode_ = ScheduleMode::kBatch;
  std::vector<std::uint64_t> inject_prefix_;
  std::vector<std::uint64_t> complete_prefix_;
  std::size_t period_images_ = 1;
  std::uint64_t period_cycles_ = 0;
};

/// Lowers the design of build_design(spec, options, cut, link_credits) into
/// a CompiledSchedule: runs a growing calibration batch through the harness's
/// cycle engine on a twin until both the inject and completion streams repeat
/// with a common period, and records prefix + period. Throws SimError if a
/// calibration run does not finish, InternalError if no steady period
/// emerges (which would contradict the data-independent static schedule the
/// whole design is built on).
CompiledSchedule compile_schedule(const NetworkSpec& spec, const BuildOptions& options,
                                  ScheduleMode mode, const std::vector<std::size_t>& cut = {},
                                  int link_credits = 0);

/// Structural fingerprint of everything that determines timing: shapes,
/// ports, operator latencies, FIFO capacities, DMA/link parameters, the cut
/// and credit window, and the schedule mode — but not weights or biases.
std::string schedule_cache_key(const NetworkSpec& spec, const BuildOptions& options,
                               ScheduleMode mode, const std::vector<std::size_t>& cut = {},
                               int link_credits = 0);

/// Process-wide memoized compile_schedule. Thread-safe; a cache hit is a
/// shared_ptr copy, a miss compiles while holding the cache lock (sweep
/// workers asking for the same design compile it exactly once).
std::shared_ptr<const CompiledSchedule> shared_schedule(
    const NetworkSpec& spec, const BuildOptions& options, ScheduleMode mode,
    const std::vector<std::size_t>& cut = {}, int link_credits = 0);

/// Drops every cached schedule (tests; also frees memory after large DSE runs).
void clear_schedule_cache();

/// Number of distinct designs currently cached.
std::size_t schedule_cache_size();

}  // namespace dfc::core
