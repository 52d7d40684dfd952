// Simulated hardware FIFO channels.
//
// The simulation advances in two phases per clock cycle:
//   1. every Process runs on_clock(): it observes FIFO contents as they were
//      at the start of the cycle, may pop() at most one element and push()
//      at most one element per FIFO end;
//   2. the SimContext commits all FIFOs: pushes become visible, per-cycle
//      bookkeeping resets.
//
// This makes the simulation deterministic and independent of process
// evaluation order, matching registered (flip-flop based) handshakes in the
// RTL the paper's HLS flow generates. A consequence faithful to hardware: a
// capacity-1 FIFO (a single register with no skid buffer) sustains at most
// one transfer every two cycles; inter-stage channels therefore default to
// capacity >= 2 to stream at full rate.
//
// Tokens never leave the ring: a push is built in the slot it will occupy
// (push_slot(); push(v) assigns it) and commit() publishes that slot; a pop
// hands out the slot it vacated (take(); pop() copies it). So a window token
// travels from its producer to its consumer without a copy.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/ring_buffer.hpp"
#include "obs/trace.hpp"

namespace dfc::df {

class Process;
class SimContext;
class FifoBase;

/// Receives integrity-guard reports (checksum/range mismatches found at pop
/// time). Implemented by fault::FaultInjector; a null listener means the
/// guard only bumps the FIFO's error counters.
class FaultListener {
 public:
  virtual ~FaultListener() = default;
  /// `what` names the failed check ("checksum" or "range").
  virtual void on_integrity_violation(const FifoBase& fifo, const char* what) = 0;
};

/// Trace `value` payloads carried by kFaultInject / kFaultDetect events.
constexpr std::uint32_t kFaultTraceBitFlip = 0;
constexpr std::uint32_t kFaultTraceJam = 1;
constexpr std::uint32_t kFaultTraceDrop = 2;
constexpr std::uint32_t kFaultTraceDuplicate = 3;
constexpr std::uint32_t kDetectTraceChecksum = 0;
constexpr std::uint32_t kDetectTraceRange = 1;
constexpr std::uint32_t kDetectTraceFraming = 2;  ///< used by core::DmaSink

/// Fault-payload customization points, resolved by ADL against the FIFO's
/// element type. Token types opt in by providing overloads next to their
/// definition (axis::Flit, sst::Window); these fallbacks make FIFOs of any
/// other element type safely un-faultable (flips refuse to land) and
/// un-guardable (constant checksum, range always passes).
template <typename T>
inline bool fault_flip_payload_bit(T& /*value*/, std::uint32_t /*bit*/) {
  return false;
}
template <typename T>
inline std::uint32_t fault_payload_checksum(const T& /*value*/) {
  return 0;
}
template <typename T>
inline bool fault_payload_in_range(const T& /*value*/, float /*bound*/) {
  return true;
}

/// Occupancy and traffic statistics of one FIFO, for reports and tests.
struct FifoStats {
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::size_t max_occupancy = 0;
  std::uint64_t full_stall_cycles = 0;   ///< cycles where a push was refused
  /// Cycles where a consumer wanted to pop but the FIFO was empty. Only
  /// counted while the owning SimContext observes (stall accounting or
  /// tracing on): consumers with nothing to read are allowed to sleep under
  /// the activity-aware scheduler, so an always-on count could not be exact.
  /// Observation forces the every-process-every-cycle scheduler, making the
  /// starvation count complete.
  std::uint64_t empty_stall_cycles = 0;
};

/// Type-erased base so the scheduler can commit FIFOs of any element type.
class FifoBase {
 public:
  FifoBase(std::string name, std::size_t capacity) : name_(std::move(name)), capacity_(capacity) {
    DFC_REQUIRE(capacity_ > 0, "FIFO capacity must be positive: " + name_);
  }
  virtual ~FifoBase() = default;

  FifoBase(const FifoBase&) = delete;
  FifoBase& operator=(const FifoBase&) = delete;

  const std::string& name() const { return name_; }
  std::size_t capacity() const { return capacity_; }

  /// Statistics since construction or the last reset_stats() call — the
  /// per-measurement (e.g. per-batch) view.
  const FifoStats& stats() const { return stats_; }

  /// Statistics since construction, never cleared; the deadlock reporter uses
  /// these so a dump stays meaningful across harness resets.
  const FifoStats& lifetime_stats() const { return lifetime_; }

  /// Zeroes the per-measurement statistics (lifetime_stats() is kept).
  void reset_stats() { stats_ = FifoStats{}; }

  /// Visible (start-of-cycle) occupancy.
  virtual std::size_t size() const = 0;

  /// Phase-2 hook: makes this cycle's pushes visible, resets per-cycle flags.
  /// Returns true if any transfer (push or pop) happened this cycle.
  virtual bool commit() = 0;

  /// Clears contents and per-cycle state (not statistics).
  virtual void reset() = 0;

  /// Records that a consumer wanted to pop but the FIFO was empty. Callers
  /// must invoke this only while the owning context observes (see
  /// FifoStats::empty_stall_cycles); instrumented consumers gate the call on
  /// their observation flag.
  void note_empty_stall() {
    ++stats_.empty_stall_cycles;
    ++lifetime_.empty_stall_cycles;
    trace_record(obs::EventKind::kEmptyStall);
  }

  // --- Fault injection & integrity guards (src/fault) -----------------------
  // All hooks below are driven by fault::FaultInjector through a
  // SimContext::CycleHook at cycle boundaries; with no injector attached the
  // only hot-path cost is the fault_jammed_ check in can_pop/can_push.

  /// Jams/unjams the ready/valid handshake: while jammed the FIFO refuses
  /// both pops and pushes, modelling a wedged AXI-Stream link. The injector
  /// forces the naive scheduler while attached, so the flag is honoured
  /// cycle-exactly.
  void set_fault_jammed(bool on) {
    if (on && !fault_jammed_) trace_record(obs::EventKind::kFaultInject, kFaultTraceJam);
    fault_jammed_ = on;
  }
  bool fault_jammed() const { return fault_jammed_; }

  /// Flips payload bit `bit` of the element nearest the consumer (the visible
  /// front, else the uncommitted pending slot). Returns false when nothing is
  /// stored or the element type exposes no payload bits.
  virtual bool fault_corrupt_payload(std::uint32_t bit) = 0;

  /// Discards the front element without a pop handshake (a lost flit). Its
  /// checksum sidecar entry goes with it: the loss is detectable only through
  /// framing or the watchdog, exactly as in hardware.
  virtual bool fault_drop_front() = 0;

  /// Re-enqueues a bitwise copy of the front element (a beat delivered
  /// twice). Refuses when no physical slot is free for the copy.
  virtual bool fault_duplicate_front() = 0;

  /// Arms the checksum/range sidecar: every push records a payload checksum,
  /// every pop verifies it plus the payload range and reports mismatches to
  /// `listener` (null: counters only). Purely host-side observation — guards
  /// never change simulated timing or data.
  virtual void enable_integrity_guard(FaultListener* listener, float range_bound) = 0;
  virtual void disable_integrity_guard() = 0;
  bool integrity_guard_enabled() const { return guard_enabled_; }

  /// Checksum / range violations found at pop since construction.
  std::uint64_t guard_checksum_errors() const { return guard_checksum_errors_; }
  std::uint64_t guard_range_errors() const { return guard_range_errors_; }

 protected:
  /// Registers this FIFO on its context's dirty list the first time it sees a
  /// push or pop in the current cycle, so the scheduler only commits FIFOs
  /// that actually moved data. FIFOs outside a SimContext (unit tests) have
  /// no dirty list and are unaffected.
  void mark_pending() {
    if (!pending_commit_) {
      pending_commit_ = true;
      if (dirty_list_ != nullptr) dirty_list_->push_back(this);
    }
  }

  /// Emits a trace event when the owning context has a sink attached; one
  /// predicted-not-taken branch otherwise.
  void trace_record(obs::EventKind kind, std::uint32_t value = 0) {
    if (obs_trace_ != nullptr) obs_trace_->record(obs_id_, kind, *obs_cycle_, value);
  }

  /// Bumps the right error counter, traces the detection and notifies the
  /// listener. `detector` is one of the kDetectTrace* values.
  void report_guard_violation(const char* what, std::uint32_t detector) {
    if (detector == kDetectTraceChecksum) {
      ++guard_checksum_errors_;
    } else {
      ++guard_range_errors_;
    }
    trace_record(obs::EventKind::kFaultDetect, detector);
    if (fault_listener_ != nullptr) fault_listener_->on_integrity_violation(*this, what);
  }

  std::string name_;
  std::size_t capacity_;
  FifoStats stats_;
  FifoStats lifetime_;

  bool fault_jammed_ = false;
  bool guard_enabled_ = false;
  FaultListener* fault_listener_ = nullptr;
  float guard_range_bound_ = 0.0f;
  std::uint64_t guard_checksum_errors_ = 0;
  std::uint64_t guard_range_errors_ = 0;

 private:
  friend class SimContext;
  /// Owned by the registering SimContext: commit queue + wakeup targets.
  std::vector<FifoBase*>* dirty_list_ = nullptr;
  std::vector<Process*> watchers_;
  bool pending_commit_ = false;

  // Observability hookup, maintained by SimContext::attach_trace.
  obs::TraceSink* obs_trace_ = nullptr;
  const std::uint64_t* obs_cycle_ = nullptr;
  std::uint32_t obs_id_ = 0;
};

template <typename T>
class Fifo final : public FifoBase {
 public:
  Fifo(std::string name, std::size_t capacity)
      : FifoBase(std::move(name), capacity), items_(capacity) {}

  /// True if a pop() is allowed this cycle (an element was present at the
  /// start of the cycle, none has been popped yet this cycle, and the
  /// handshake is not jammed by a fault).
  bool can_pop() const { return !fault_jammed_ && !popped_this_cycle_ && !items_.empty(); }

  /// True if a push() is allowed this cycle. Occupancy is evaluated as of
  /// the start of the cycle (a pop in the same cycle does not free the slot
  /// until commit), so the answer does not depend on process ordering.
  bool can_push() const {
    if (fault_jammed_) return false;
    const std::size_t start_occupancy = items_.size() + (popped_this_cycle_ ? 1 : 0);
    return !pushed_this_cycle_ && start_occupancy + pending_count_ < capacity_;
  }

  /// Front element without consuming it (peek). Requires can_pop().
  const T& front() const {
    DFC_ASSERT(can_pop(), "Fifo::front without can_pop: " + name_);
    return items_.front();
  }

  /// Consumes the front element and returns its ring slot, valid until this
  /// cycle's commit(). The integrity guard checks the element before the
  /// caller sees it. Requires can_pop().
  const T& take() {
    DFC_ASSERT(can_pop(), "Fifo::take without can_pop: " + name_);
    popped_this_cycle_ = true;
    ++stats_.pops;
    ++lifetime_.pops;
    mark_pending();
    trace_record(obs::EventKind::kPop);
    const T& value = items_.take();
    if (guard_enabled_) guard_check(value);
    return value;
  }

  /// Consumes and returns the front element. Requires can_pop().
  T pop() { return take(); }

  /// Reserves this cycle's push and returns the ring slot it occupies, still
  /// holding an earlier token: the producer must write every field it relies
  /// on before its on_clock() returns. The token becomes visible to consumers
  /// next cycle. Requires can_push().
  T& push_slot() {
    DFC_ASSERT(can_push(), "Fifo::push_slot without can_push: " + name_);
    pushed_this_cycle_ = true;
    pending_count_ = 1;
    ++stats_.pushes;
    ++lifetime_.pushes;
    mark_pending();
    trace_record(obs::EventKind::kPush);
    return items_.back_slot();
  }

  /// Enqueues `value`; it becomes visible to consumers next cycle.
  /// Requires can_push().
  void push(T value) { push_slot() = std::move(value); }

  /// Records that a producer wanted to push but could not (for stall stats).
  void note_full_stall() {
    ++stats_.full_stall_cycles;
    ++lifetime_.full_stall_cycles;
    trace_record(obs::EventKind::kFullStall);
  }

  std::size_t size() const override { return items_.size() + pending_count_; }

  bool commit() override {
    const bool active = pushed_this_cycle_ || popped_this_cycle_;
    if (pending_count_ > 0) {
      seal_pending();
      items_.publish();
      pending_count_ = 0;
      pending_sealed_ = false;
    }
    const std::size_t occ = items_.size();
    stats_.max_occupancy = std::max(stats_.max_occupancy, occ);
    lifetime_.max_occupancy = std::max(lifetime_.max_occupancy, occ);
    pushed_this_cycle_ = false;
    popped_this_cycle_ = false;
    return active;
  }

  void reset() override {
    items_.clear();
    pending_count_ = 0;
    pending_sealed_ = false;
    pushed_this_cycle_ = false;
    popped_this_cycle_ = false;
    guard_sums_.clear();
    guard_push_seq_ = 0;
    guard_pop_seq_ = 0;
  }

  bool fault_corrupt_payload(std::uint32_t bit) override {
    bool landed = false;
    if (!items_.empty()) {
      landed = fault_flip_payload_bit(items_.front_mut(), bit);
    } else if (pending_count_ > 0) {
      seal_pending();  // the sidecar keeps the token as its producer wrote it
      landed = fault_flip_payload_bit(items_.back_slot(), bit);
    }
    if (landed) trace_record(obs::EventKind::kFaultInject, kFaultTraceBitFlip);
    return landed;
  }

  bool fault_drop_front() override {
    if (items_.empty()) return false;
    (void)items_.take();
    if (guard_enabled_ && !guard_sums_.empty()) guard_sums_.pop_front();
    trace_record(obs::EventKind::kFaultInject, kFaultTraceDrop);
    return true;
  }

  bool fault_duplicate_front() override {
    if (items_.empty() || items_.size() + pending_count_ >= capacity_) return false;
    // The copy goes in ahead of the front, so an uncommitted push keeps its
    // slot at the back.
    items_.push_front(items_.front());
    // The copy is bitwise faithful, so its sidecar entry is a copy too — a
    // duplicated beat evades pure per-flit parity. The sequence number mixed
    // into each checksum is what catches it: the original lands one pop
    // position late and fails the compare.
    if (guard_enabled_ && !guard_sums_.empty()) guard_sums_.push_front(guard_sums_.front());
    trace_record(obs::EventKind::kFaultInject, kFaultTraceDuplicate);
    return true;
  }

  void enable_integrity_guard(FaultListener* listener, float range_bound) override {
    guard_enabled_ = true;
    fault_listener_ = listener;
    guard_range_bound_ = range_bound;
    // Checksum whatever is already in flight so mid-run arming stays in sync;
    // an uncommitted push is checksummed when commit() publishes it.
    guard_sums_.clear();
    guard_pop_seq_ = 0;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      guard_sums_.push_back(guard_seq_mix(fault_payload_checksum(items_.at(i)),
                                          static_cast<std::uint32_t>(i)));
    }
    guard_push_seq_ = static_cast<std::uint32_t>(items_.size());
    pending_sealed_ = false;
  }

  void disable_integrity_guard() override {
    guard_enabled_ = false;
    fault_listener_ = nullptr;
    guard_sums_.clear();
    guard_push_seq_ = 0;
    guard_pop_seq_ = 0;
    pending_sealed_ = false;
  }

 private:
  /// Folds the link-local sequence number into a payload checksum. Bit-flips
  /// fail the payload part; drops and duplicates shift every later element to
  /// the wrong pop position and fail the sequence part.
  static std::uint32_t guard_seq_mix(std::uint32_t sum, std::uint32_t seq) {
    return sum ^ (seq * 0x9E3779B9u + 0x85EBCA6Bu);
  }

  /// Appends the pending push's checksum to the sidecar, once: at commit(),
  /// or earlier when a fault is about to land on the uncommitted slot.
  void seal_pending() {
    if (!guard_enabled_ || pending_sealed_) return;
    guard_sums_.push_back(
        guard_seq_mix(fault_payload_checksum(items_.back_slot()), guard_push_seq_++));
    pending_sealed_ = true;
  }

  void guard_check(const T& value) {
    DFC_ASSERT(!guard_sums_.empty(), "integrity guard sidecar out of sync: " + name_);
    const std::uint32_t expect = guard_sums_.front();
    guard_sums_.pop_front();
    const std::uint32_t actual =
        guard_seq_mix(fault_payload_checksum(value), guard_pop_seq_++);
    // A drop/duplicate skews the sequence for every later pop on this link;
    // one report is enough to trigger recovery, so the violation latches
    // instead of flooding the trace.
    if (actual != expect && guard_checksum_errors_ == 0) {
      report_guard_violation("checksum", kDetectTraceChecksum);
    }
    if (!fault_payload_in_range(value, guard_range_bound_)) {
      report_guard_violation("range", kDetectTraceRange);
    }
  }

  RingBuffer<T> items_;  ///< committed tokens; an uncommitted push sits in back_slot()
  std::size_t pending_count_ = 0;
  bool pending_sealed_ = false;  ///< the pending push's checksum is already in guard_sums_
  bool pushed_this_cycle_ = false;
  bool popped_this_cycle_ = false;
  std::deque<std::uint32_t> guard_sums_;  ///< seq-mixed checksums aligned with items_
  std::uint32_t guard_push_seq_ = 0;
  std::uint32_t guard_pop_seq_ = 0;
};

}  // namespace dfc::df
