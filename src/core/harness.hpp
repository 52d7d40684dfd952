// Host-side measurement harness (the simulated MicroBlaze + AXI Timer).
//
// Two execution modes reproduce the paper's evaluation:
//  * run_batch: images stream back to back, so at steady state every layer
//    works concurrently (the high-level pipeline, Fig. 6);
//  * run_sequential: each image is fully processed (drained) before the next
//    is injected — the no-pipeline baseline the batch mode is compared to.
//
// Orthogonally, BuildOptions::execution_mode selects the engine: the
// cycle-accurate two-phase scheduler (ground truth), or the compiled static
// schedule (core/schedule.hpp) that replays per-image inject/completion
// cycles and bit-identical logits without per-cycle FIFO handshakes. The
// compiled path falls back to the cycle engine automatically whenever any
// board is observed or perturbed (fault hook, trace or stall accounting,
// paranoid mode, integrity/stream guards, link attribution) — see
// cycle_engine_guard(). Both work for any board count, and every
// BatchResult records the engine that ran and the guard that forced a
// fallback.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/builder.hpp"
#include "obs/activity.hpp"
#include "obs/trace.hpp"
#include "tensor/tensor.hpp"

namespace dfc::core {

class CompiledSchedule;
class FunctionalModel;

/// Fabric clock of the paper's designs (100 MHz on the VC707).
constexpr double kClockHz = 100e6;

inline double cycles_to_seconds(double cycles, double clock_hz = kClockHz) {
  return cycles / clock_hz;
}
inline double cycles_to_us(double cycles, double clock_hz = kClockHz) {
  return cycles / clock_hz * 1e6;
}

/// How a harness run ended. kTimeout/kDeadlock results are partial — they
/// carry whatever completed before the watchdog fired, so fault campaigns
/// and DSE validation loops can classify a hang without losing the run.
enum class RunStatus { kOk, kTimeout, kDeadlock };

const char* run_status_name(RunStatus status);

/// What forces cycle-level stepping on a design (DESIGN.md §10), in the
/// order the harness checks: a fault-injection cycle hook, observation (a
/// trace sink or stall accounting), paranoid mode or FIFO integrity guards
/// on any board, the DMA sink's stream guard, link attribution.
enum class CycleGuard {
  kNone,
  kCycleHook,
  kObservation,
  kParanoid,
  kIntegrityGuards,
  kStreamGuard,
  kLinkAttribution,
};

const char* cycle_guard_name(CycleGuard guard);

struct BatchResult {
  std::uint64_t start_cycle = 0;
  std::uint64_t end_cycle = 0;  ///< completion of the last image (kOk), or
                                ///< the cycle the watchdog aborted at
  std::vector<std::uint64_t> inject_cycles;
  std::vector<std::uint64_t> completion_cycles;
  std::vector<std::vector<float>> outputs;  ///< classifier logits per image

  RunStatus status = RunStatus::kOk;
  std::size_t requested = 0;  ///< images the run was asked to process
  std::string error;          ///< watchdog detail when !ok()

  /// The engine that ran, whatever the design was built for.
  ExecutionMode engine = ExecutionMode::kCycleAccurate;
  /// On a compiled-mode build that ran on the cycle engine, the guard that
  /// forced it; kNone otherwise.
  CycleGuard fallback = CycleGuard::kNone;

  bool ok() const { return status == RunStatus::kOk; }
  std::size_t completed() const { return completion_cycles.size(); }

  std::size_t batch_size() const { return outputs.size(); }
  std::uint64_t total_cycles() const { return end_cycle - start_cycle; }

  /// The paper's Fig. 6 metric: batch wall time divided by batch size.
  /// An empty batch (possible for a default-constructed result) yields 0
  /// rather than dividing by zero.
  double mean_cycles_per_image() const {
    if (batch_size() == 0) return 0.0;
    return static_cast<double>(total_cycles()) / static_cast<double>(batch_size());
  }

  /// End-to-end latency of image i (injection to last output word).
  std::uint64_t image_latency_cycles(std::size_t i) const {
    return completion_cycles.at(i) - inject_cycles.at(i);
  }

  /// Completion-to-completion intervals: element i is the gap between the
  /// completions of images i and i+1 (size batch_size() - 1).
  std::vector<std::uint64_t> completion_intervals() const;

  /// Steady-state initiation interval: the median over a trailing window of
  /// completion intervals. The window holds min(8, ceil(intervals/2))
  /// intervals — never more than the trailing half, so for short batches it
  /// cannot reach back into the pipeline-fill transients (whose inflated
  /// intervals used to leak into the reported steady rate); within the
  /// window the median still rejects one-off hiccups such as a FIFO refill
  /// after a drain. Batches of fewer than two images have no interval and
  /// yield 0; the serve path legitimately produces size-1 batches under
  /// light load.
  std::uint64_t steady_interval_cycles() const;

  /// Predicted class of image i (argmax over its logits).
  std::int64_t predicted_class(std::size_t i) const;
};

/// The one harness (DESIGN.md §11): drives a DesignInstance of any board
/// count through run_lockstep() — a single board is one context in the
/// lockstep — and owns everything between runs: reset of every context,
/// FIFO statistic, DMA bus and wire; batch and sequential modes;
/// observation (observe()) and integrity guards; and the compiled path with
/// the guards that force the cycle engine. AcceleratorHarness and
/// mfpga::MultiFpgaHarness only name the design type.
class Harness {
 public:
  explicit Harness(std::unique_ptr<DesignInstance> design);
  ~Harness();
  Harness(Harness&&) noexcept;
  Harness& operator=(Harness&&) noexcept;

  /// Streams the whole batch back to back (pipelined mode). A run that
  /// exhausts `max_cycles` or deadlocks returns a partial BatchResult with
  /// status kTimeout/kDeadlock instead of throwing — check ok() when a hang
  /// is a possible outcome.
  BatchResult run_batch(const std::vector<Tensor>& images,
                        std::uint64_t max_cycles = dfc::df::SimContext::kDefaultMaxCycles);

  /// Processes images one at a time, draining the design between images
  /// (no high-level pipeline); each image gets its own `max_cycles` budget.
  /// Same partial-result semantics as run_batch.
  BatchResult run_sequential(const std::vector<Tensor>& images,
                             std::uint64_t max_cycles = dfc::df::SimContext::kDefaultMaxCycles);

  /// Single-image convenience returning the logits. Throws InternalError if
  /// the image does not complete (use run_batch for classifiable timeouts).
  std::vector<float> run_image(const Tensor& image);

  const NetworkSpec& spec() const { return design_->spec; }
  DesignInstance& design() { return *design_; }

  /// The first CycleGuard, in enum order, armed on any board or link of the
  /// design; kNone when nothing forces cycle-level stepping. Independent of
  /// the execution mode the design was built for.
  CycleGuard cycle_engine_guard() const;

  /// True when the next run would take the compiled-schedule fast path: the
  /// design was built with ExecutionMode::kCompiledSchedule and no guard is
  /// armed.
  bool compiled_mode_legal() const;

  /// Resets the whole design to its power-on state.
  void reset();

  std::size_t device_count() const { return design_->contexts.size(); }
  dfc::df::SimContext& device_context(std::size_t d) { return *design_->contexts.at(d); }

  /// Consecutive cycles without FIFO activity on any board tolerated before
  /// kDeadlock. Defaults to idle_watchdog_cycles() of the design.
  void set_idle_limit(std::uint64_t cycles) { idle_limit_ = cycles; }

  /// Looks a FIFO up by name across all boards.
  dfc::df::FifoBase* find_fifo(const std::string& name);

  /// Per-board FIFO occupancy/stall report plus the board crossings.
  std::string fifo_report() const;

  /// Arms observation on every board of the design: stall accounting on
  /// every context (per-core activity splits, empty-stall counts) and link
  /// attribution on every wire. Given a sink, which must be fresh and outlive
  /// every later run, the harness also traces: the sink gets every board's
  /// FIFOs and processes in board order, then one kLink entity per wire, and
  /// after each run that run's events of every board and link, each entity's
  /// in cycle order. Observation stays armed for the harness's lifetime.
  void observe(obs::TraceSink* trace = nullptr);

  /// Per-link cycle attribution: classifies every global cycle of the next
  /// run into credit_stall / wire_busy / rx_backpressure / idle per wire
  /// (see obs::LinkState). Classification reads start-of-cycle state —
  /// lockstep-stable, so the splits are byte-identical across thread counts
  /// — and the buckets sum exactly to link_observed_cycles(). While enabled,
  /// fast-forward is off so no cycle escapes classification. A traced
  /// harness keeps it on: its link events come from the classification.
  void set_link_attribution(bool on) { link_attr_ = on || trace_ != nullptr; }
  bool link_attribution() const { return link_attr_; }

  /// Attribution results for wire `i` (parallel to the design's wires),
  /// accumulated over the cycles of the last run.
  const obs::LinkActivity& link_activity(std::size_t i) const {
    return trackers_.at(i).counts();
  }
  /// Global cycles classified during the last run (0 when attribution was
  /// off or the design has no wire). Every classified cycle lands in exactly
  /// one bucket per link.
  std::uint64_t link_observed_cycles() const { return link_cycles_; }

  /// Arms/disarms checksum+sequence integrity guards on every FIFO of every
  /// board (link ingress FIFOs included).
  void enable_integrity_guards(dfc::df::FaultListener* listener, float range_bound);
  void disable_integrity_guards();

 private:
  BatchResult run(const std::vector<Tensor>& images, std::uint64_t max_cycles,
                  bool sequential);
  BatchResult run_compiled(const std::vector<Tensor>& images, std::uint64_t max_cycles,
                           bool sequential);
  void classify_links(std::uint64_t now);

  std::unique_ptr<DesignInstance> design_;
  std::vector<dfc::df::SimContext*> contexts_;  ///< lockstep order: board order
  std::uint64_t idle_limit_ = 0;

  bool link_attr_ = false;
  obs::TraceSink* trace_ = nullptr;  ///< observe()'s sink, or null
  /// Per board: the sink its context records into (the context primitive
  /// takes only a fresh sink), appended to trace_ after each run at the
  /// board's first entity id there.
  std::vector<obs::TraceSink> board_traces_;
  std::vector<std::uint32_t> board_trace_bases_;
  std::vector<std::uint32_t> link_ids_;     ///< entity ids in trace_
  std::vector<obs::LinkTracker> trackers_;  ///< parallel to the wires
  std::uint64_t link_cycles_ = 0;

  // Lazily fetched state of the fast path; absent until first used. Both are
  // process-wide shared: the schedule by timing fingerprint, the functional
  // model (with its logits memo) by full network content.
  std::shared_ptr<const CompiledSchedule> batch_schedule_;
  std::shared_ptr<const CompiledSchedule> sequential_schedule_;
  std::shared_ptr<const FunctionalModel> functional_;
};

/// The idle watchdog of a design: a legal design is silent (no FIFO moves on
/// any board) at most while one core's operator pipeline drains — a conv
/// position's multiply, adder tree and accumulate, or an FCN's lane
/// reduction — so the limit is twice the deepest such pipeline, and never
/// below 100 000 cycles.
std::uint64_t idle_watchdog_cycles(const DesignInstance& design);

/// The harness of a build_accelerator design.
class AcceleratorHarness final : public Harness {
 public:
  explicit AcceleratorHarness(Accelerator acc)
      : Harness(std::make_unique<Accelerator>(std::move(acc))) {}
  Accelerator& accelerator() { return static_cast<Accelerator&>(design()); }
};

}  // namespace dfc::core
