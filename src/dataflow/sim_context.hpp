// Two-phase synchronous simulation scheduler.
//
// SimContext owns all processes and FIFOs of one accelerator design and
// advances them cycle by cycle:
//
//   phase 1: every process runs on_clock() (order-independent: FIFO pushes
//            only become visible at commit);
//   phase 2: every FIFO commits.
//
// Activity-aware mode (the default) keeps those semantics bit-identical but
// skips provably idle work:
//   * phase 1 skips processes that declared connected_fifos() and whose
//     cached wake_cycle() has not arrived while none of their FIFOs moved
//     data since their last run;
//   * phase 2 commits only FIFOs that saw a push or pop this cycle (a commit
//     on an idle FIFO is an idempotent no-op);
//   * after a cycle with zero FIFO activity, fast_forward() jumps the clock
//     straight to the earliest cached wake instead of stepping through dead
//     cycles (drains, throttled DMA, pipeline latency bubbles).
// set_paranoid(true) runs the naive loop while asserting every skip decision
// the activity-aware scheduler would have made — the lockstep equivalence
// check used by tests; set_activity_aware(false) selects the plain naive
// loop.
//
// run_lockstep() is the one run loop, for one context or several clock
// domains in lockstep (one per board); run_until() is its one-context case.
// A watchdog detects deadlocks/livelocks: if no FIFO transfers at all for
// `idle_limit` consecutive cycles while the predicate is still unsatisfied,
// the loop throws DeadlockError with an occupancy dump — this catches
// mis-sized FIFOs and protocol bugs the same way a hung HLS cosim would.
// Fast-forwarded cycles count as idle, so the watchdog and the cycle budget
// fire at exactly the same cycle as under the naive loop.
//
// Observation mode (attach_trace / set_stall_accounting) layers cycle-exact
// visibility on top: every FIFO push/pop/stall emits a TraceSink event and
// every compute core classifies every cycle (working / starved /
// back-pressured / idle). Observation forces the naive every-process-every-
// cycle scheduler — skipped cycles cannot be classified — and disables
// fast_forward, trading speed for completeness. With nothing attached the
// only cost on the hot path is a null-pointer branch per FIFO operation,
// keeping the disabled-mode overhead within noise.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "dataflow/fifo.hpp"
#include "dataflow/process.hpp"
#include "obs/trace.hpp"

namespace dfc::df {

/// Start-of-cycle callback, attached via SimContext::attach_cycle_hook — the
/// injection point of the fault subsystem. A hook may mutate FIFO state in
/// ways processes cannot predict (jams, dropped flits), which would break the
/// wake_cycle() no-op contract, so an attached hook forces the naive
/// every-process-every-cycle scheduler and disables fast_forward — the same
/// policy observation uses.
class CycleHook {
 public:
  virtual ~CycleHook() = default;
  /// Called once per step(), before phase 1, with the cycle about to run.
  virtual void on_cycle_start(std::uint64_t cycle) = 0;
};

class SimContext {
 public:
  SimContext() = default;

  // Fifo/Process registration hands out stable pointers into this context
  // (dirty lists, watcher lists), so the context must never move.
  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;
  SimContext(SimContext&&) = delete;
  SimContext& operator=(SimContext&&) = delete;

  /// Constructs a process of type P in place and registers it.
  template <typename P, typename... Args>
  P& add_process(Args&&... args) {
    auto owned = std::make_unique<P>(std::forward<Args>(args)...);
    P& ref = *owned;
    ref.ctx_ = this;
    processes_.push_back(std::move(owned));
    schedule_prepared_ = false;
    if (trace_ != nullptr) obs_register(ref);
    ref.obs_enabled_ = observing();
    return ref;
  }

  /// Constructs a FIFO with element type T and registers it for commit.
  template <typename T>
  Fifo<T>& add_fifo(std::string name, std::size_t capacity) {
    auto owned = std::make_unique<Fifo<T>>(std::move(name), capacity);
    Fifo<T>& ref = *owned;
    ref.dirty_list_ = &dirty_fifos_;
    fifos_.push_back(std::move(owned));
    schedule_prepared_ = false;
    if (trace_ != nullptr) obs_register(ref);
    return ref;
  }

  /// Advances exactly one clock cycle.
  void step();

  /// run_lockstep() over this context alone, with its own idle limit and
  /// fifo_report(); returns cycles elapsed during this call. Throws
  /// TimeoutError/DeadlockError (SimErrors).
  std::uint64_t run_until(const std::function<bool()>& finished,
                          std::uint64_t max_cycles = kDefaultMaxCycles);

  /// If the last step() had no FIFO activity and every process is skippable
  /// and quiescent, jumps the clock to the earliest cached wake_cycle()
  /// (clamped to `limit_cycle`), counting the jumped cycles as idle. Returns
  /// the number of cycles jumped (0 when no jump is possible). The watchdog
  /// clamp is run_lockstep()'s.
  std::uint64_t fast_forward(std::uint64_t limit_cycle = Process::kNeverWake);

  /// The cycle fast_forward() would jump to right now, or 0 when no jump is
  /// possible (some process may act, the scheduler mode forbids skipping, or
  /// the last cycle saw FIFO activity). Does not advance the clock; may fill
  /// lazy wake caches. run_lockstep() uses this to pick a common jump target
  /// across its contexts before committing any of them.
  std::uint64_t fast_forward_candidate();

  /// Current simulation time in cycles since construction/reset.
  std::uint64_t cycle() const { return cycle_; }

  /// Consecutive cycles without FIFO activity ending at cycle()
  /// (fast-forwarded cycles count as idle); 0 after a step that moved data.
  std::uint64_t idle_cycles() const { return idle_cycles_; }

  /// Clears all FIFOs, resets all processes, and rewinds the clock.
  /// FIFO statistics are kept (see reset_fifo_stats()).
  void reset();

  /// Zeroes the per-measurement statistics of every FIFO (lifetime stats are
  /// kept for the deadlock reporter). Harnesses call this between batches.
  void reset_fifo_stats();

  /// Selects between the activity-aware scheduler (default) and the naive
  /// run-everything loop. Results are bit-identical either way.
  void set_activity_aware(bool on) { activity_aware_ = on; }
  bool activity_aware() const { return activity_aware_; }

  /// Lockstep checking mode: steps with the naive loop but asserts that every
  /// process the activity-aware scheduler would have skipped performs no FIFO
  /// operation (push/pop/stall) and that dirty tracking matches commit
  /// activity. Throws InternalError on any violation. Slow; for tests.
  void set_paranoid(bool on) { paranoid_ = on; }
  bool paranoid() const { return paranoid_; }

  /// Attaches an event sink: every FIFO and process is registered as a trace
  /// entity and all push/pop/stall/state events are recorded until detach
  /// (attach_trace(nullptr)). The sink must be fresh (no entities yet) and
  /// must outlive the attachment. Tracing implies observation: the context
  /// steps every process every cycle while a sink is attached.
  void attach_trace(obs::TraceSink* sink);
  obs::TraceSink* trace() const { return trace_; }

  /// Turns on cycle-exact stall accounting (empty-stall counts, per-core
  /// activity classification) without recording events. Like tracing this
  /// forces the every-process-every-cycle scheduler.
  void set_stall_accounting(bool on);
  bool stall_accounting() const { return stall_accounting_; }

  /// True while either a trace sink is attached or stall accounting is on.
  bool observing() const { return trace_ != nullptr || stall_accounting_; }

  /// Attaches the single start-of-cycle hook (attach_cycle_hook(nullptr)
  /// detaches). See CycleHook for the scheduling consequences.
  void attach_cycle_hook(CycleHook* hook);
  CycleHook* cycle_hook() const { return cycle_hook_; }

  /// Mutable lookup of a FIFO by name (nullptr when absent) — fault targets
  /// are addressed by the builder's stable channel names.
  FifoBase* find_fifo(const std::string& name);

  /// Arms/disarms the checksum/range integrity guard on every registered
  /// FIFO (see FifoBase::enable_integrity_guard).
  void enable_integrity_guards(FaultListener* listener, float range_bound);
  void disable_integrity_guards();

  /// True while FIFO integrity guards are armed. Like cycle_hook() and
  /// observing(), this marks the context as "being watched": the compiled-
  /// schedule fast path consults it and falls back to cycle-level stepping.
  bool integrity_guards_active() const { return integrity_guards_; }

  /// Cycles stepped while observing (since construction/reset). Per-core
  /// activity buckets sum to exactly this value.
  std::uint64_t observed_cycles() const { return observed_cycles_; }

  std::size_t process_count() const { return processes_.size(); }
  std::size_t fifo_count() const { return fifos_.size(); }

  /// Read-only view of FIFO i in registration order (stats comparisons in
  /// tests and reports).
  const FifoBase& fifo(std::size_t i) const { return *fifos_.at(i); }

  /// Read-only view of process i in registration order.
  const Process& process(std::size_t i) const { return *processes_.at(i); }

  /// Multi-line occupancy report of every FIFO (for diagnostics). Reports
  /// lifetime statistics so the numbers survive harness resets.
  std::string fifo_report() const;

  /// Cycles with zero FIFO activity run_until() tolerates before declaring
  /// deadlock.
  void set_idle_limit(std::uint64_t cycles) { idle_limit_ = cycles; }

  static constexpr std::uint64_t kDefaultMaxCycles = 2'000'000'000ULL;

 private:
  void prepare_schedule();
  void step_naive();
  void step_active();
  void step_checked();
  void step_observed();
  void finish_cycle(bool any_activity);
  std::uint64_t total_fifo_side_effects() const;
  void obs_register(FifoBase& f);
  void obs_register(Process& p);
  void sync_obs_flags();

  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<std::unique_ptr<FifoBase>> fifos_;
  std::vector<FifoBase*> dirty_fifos_;  ///< FIFOs with a push/pop this cycle
  std::uint64_t cycle_ = 0;
  std::uint64_t idle_cycles_ = 0;
  std::uint64_t idle_limit_ = 100'000;
  bool activity_aware_ = true;
  bool paranoid_ = false;
  bool schedule_prepared_ = false;

  obs::TraceSink* trace_ = nullptr;     ///< non-owning; null = tracing off
  bool stall_accounting_ = false;
  bool integrity_guards_ = false;
  std::uint64_t observed_cycles_ = 0;
  CycleHook* cycle_hook_ = nullptr;     ///< non-owning; null = no injection
};

/// The one run loop. Steps `contexts` (one clock domain per board, in any
/// order: with link latency >= 1 nothing sent in a cycle is visible before
/// the next) in lockstep, one global cycle at a time, until `finished()`
/// holds, and returns the cycles elapsed. The clocks must agree on entry.
///  * Budget: TimeoutError once `max_cycles` cycles have elapsed.
///  * Watchdog: DeadlockError after more than `idle_limit` consecutive
///    cycles without FIFO activity on any context.
///  * Fast-forward: after a cycle idle on every context, all of them jump to
///    the earliest wake any declares, clamped so the budget and the
///    watchdog fire at exactly the cycles stepping would reach.
///  * `observe` (may be empty) sees every global cycle before it steps, and
///    its presence turns fast-forward off so no cycle escapes it.
/// Errors carry `report()`. `finished` must be a pure function of
/// simulation state: it is not evaluated inside fast-forwarded windows.
std::uint64_t run_lockstep(const std::vector<SimContext*>& contexts,
                           const std::function<bool()>& finished, std::uint64_t max_cycles,
                           std::uint64_t idle_limit, const std::function<std::string()>& report,
                           const std::function<void(std::uint64_t)>& observe = {});

}  // namespace dfc::df
