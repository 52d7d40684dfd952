// Credit-based inter-FPGA serial link for multi-context execution.
//
// core/link.hpp's LinkChannel forwards flits between two FIFOs of *one*
// SimContext — enough to price a partition, but not to execute one: a real
// multi-board system runs one clock domain per device. This header provides
// the cross-context version used by src/multifpga/exec: the boundary is
// split into a transmitter process (upstream context), a passive wire object
// (owned by the executor, belonging to neither context) and a receiver
// process (downstream context), with credit-based flow control layered on
// the same AXIS valid/ready handshake the on-chip FIFOs use.
//
// Protocol (DESIGN.md §11):
//   * the Tx holds `credits` send credits; transmitting one flit consumes
//     one credit and puts the flit on the wire, arriving latency_cycles
//     later (LinkModel is the timing source: one word accepted every
//     cycles_per_word cycles, latency_cycles of traversal);
//   * the Rx moves an arrived flit into the downstream ingress FIFO only
//     when that FIFO can accept it (valid/ready), then returns the credit
//     over the reverse wire — another latency_cycles of flight;
//   * the Tx therefore never overruns the receiver: at most `credits` flits
//     are unacknowledged, and a full ingress FIFO stalls credit returns,
//     back-pressuring the sender across the board boundary.
//
// Deadlock freedom: credits are conserved (available + in flight + pending
// returns == total), the Rx returns a credit for every flit it delivers, and
// delivery only waits on downstream FIFO space — so as long as the
// downstream device drains its ingress (the dataflow design consumes every
// value it is sent), every credit eventually comes home and the link cannot
// wedge. A credit count of ceil(2*latency/cycles_per_word)+2 covers the full
// round trip, sustaining the serializer's one-word-per-cycles_per_word rate.
//
// Determinism across contexts: latency_cycles >= 1 guarantees nothing sent
// at global cycle t is visible before t+1, so the order in which the
// executor steps the device contexts within one global cycle cannot change
// behaviour. Wire mutations from the peer context are invisible to a
// context's cached wake hints, so both endpoints notify their peer through
// Process::notify_external_event() whenever they change wire state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>

#include "axis/flit.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "core/link.hpp"
#include "dataflow/fifo.hpp"
#include "dataflow/process.hpp"

namespace dfc::core {

class InterLinkTx;
class InterLinkRx;

/// LinkModel timing plus the credit window of the flow-control protocol.
struct InterLinkModel {
  LinkModel link{};
  /// Send credits held by the Tx; 0 selects the smallest window that never
  /// throttles the serializer rate (full round trip + handshake slack).
  int credits = 0;

  int effective_credits() const {
    if (credits > 0) return credits;
    return static_cast<int>(dfc::ceil_div(2 * link.latency_cycles, link.cycles_per_word)) + 2;
  }

  /// The credit law: at most `credits` words fit in one 2*latency round
  /// trip, so a window sustains one word per max(cycles_per_word,
  /// ceil(2*latency/credits)) cycles; the auto-sized one never throttles.
  std::int64_t effective_cycles_per_word() const {
    if (credits <= 0) return link.cycles_per_word;
    return std::max<std::int64_t>(link.cycles_per_word,
                                  dfc::ceil_div(2 * link.latency_cycles, credits));
  }

  void validate() const {
    link.validate();
    DFC_REQUIRE(credits >= 0, "interlink credits must be non-negative");
  }
};

/// The serial lanes between two devices: flits in flight towards the Rx and
/// credit returns in flight towards the Tx. Not a Process — it belongs to
/// neither clock domain and is owned by the multi-FPGA executor; both
/// endpoints see the same global cycle, so timestamps are unambiguous.
class InterLinkWire {
 public:
  InterLinkWire(std::string name, InterLinkModel model);

  const std::string& name() const { return name_; }
  const InterLinkModel& model() const { return model_; }

  /// Wires up the peer-notification targets (executor calls this once).
  void bind(InterLinkTx* tx, InterLinkRx* rx) {
    tx_ = tx;
    rx_ = rx;
  }

  // --- Tx side ---------------------------------------------------------------

  /// Credits usable at cycle `now`: the absorbed pool plus every return that
  /// has landed. Pure (no pruning) so wake hints can evaluate it on cycles
  /// the scheduler later proves idle.
  int credits_available(std::uint64_t now) const;

  /// Earliest cycle a pending credit return lands (kNever when none).
  std::uint64_t next_credit_ready() const {
    return credit_returns_.empty() ? kNever : credit_returns_.front();
  }

  /// Consumes one credit and launches `flit`, arriving latency_cycles later.
  /// Requires credits_available(now) > 0. Wakes the receiver.
  void tx_send(dfc::axis::Flit flit, std::uint64_t now);

  // --- Rx side ---------------------------------------------------------------

  bool has_data() const { return !data_.empty(); }

  /// Earliest cycle the head flit is deliverable (kNever when empty).
  std::uint64_t next_data_ready() const {
    return data_.empty() ? kNever : data_.front().ready_cycle;
  }

  bool rx_ready(std::uint64_t now) const {
    return !data_.empty() && now >= data_.front().ready_cycle;
  }

  /// Takes the head flit off the wire and launches its credit return.
  /// Requires rx_ready(now). Wakes the transmitter.
  dfc::axis::Flit rx_take(std::uint64_t now);

  /// Flits delivered to the receiver since construction/reset.
  std::uint64_t words_transferred() const { return words_; }

  /// True when nothing is in flight in either direction at cycle `now`: no
  /// data towards the Rx and no credit return still travelling back (landed
  /// returns are part of the pool again even before a send folds them in).
  bool idle(std::uint64_t now) const {
    return data_.empty() && (credit_returns_.empty() || credit_returns_.back() <= now);
  }

  void reset();

  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

 private:
  struct InFlight {
    std::uint64_t ready_cycle;
    dfc::axis::Flit flit;
  };

  std::string name_;
  InterLinkModel model_;
  InterLinkTx* tx_ = nullptr;
  InterLinkRx* rx_ = nullptr;

  std::deque<InFlight> data_;                 ///< towards the Rx
  std::deque<std::uint64_t> credit_returns_;  ///< landing cycles, monotone
  int credits_absorbed_ = 0;                  ///< returns folded into the pool
  std::uint64_t words_ = 0;
};

/// Upstream endpoint: pops the boundary FIFO at the serializer rate while a
/// credit is available.
class InterLinkTx final : public dfc::df::Process {
 public:
  InterLinkTx(std::string name, dfc::df::Fifo<dfc::axis::Flit>& in, InterLinkWire& wire);

  void on_clock() override;
  void reset() override;
  bool done() const override { return !in_.can_pop(); }
  std::uint64_t wake_cycle() const override;
  std::vector<dfc::df::FifoBase*> connected_fifos() const override { return {&in_}; }

  /// Cross-context wakeup: the wire calls this when a credit return lands on
  /// it from the receiver's clock domain.
  void external_event() { notify_external_event(); }

  std::uint64_t words_sent() const { return words_; }

  /// True when a flit is ready to serialize at `now` (input available and the
  /// serializer pacing allows a send) — attribution probes, start-of-cycle.
  bool wants_send(std::uint64_t now) const {
    return in_.can_pop() && now >= next_send_cycle_;
  }

  /// True while the serializer is still clocking out the previous word.
  bool serializing(std::uint64_t now) const {
    return words_ > 0 && now < next_send_cycle_;
  }

  /// Cycles the Tx sat on a ready flit with zero credits. Counted only while
  /// the owning context observes (exact under the forced per-cycle
  /// scheduler); the activity-aware mode sleeps through these cycles.
  std::uint64_t credit_stall_cycles() const { return credit_stalls_; }

  const dfc::df::FifoBase& input() const { return in_; }

 private:
  dfc::df::Fifo<dfc::axis::Flit>& in_;
  InterLinkWire& wire_;
  std::uint64_t next_send_cycle_ = 0;
  std::uint64_t words_ = 0;
  std::uint64_t credit_stalls_ = 0;
};

/// Downstream endpoint: moves arrived flits into the device-local ingress
/// FIFO and returns the credit.
class InterLinkRx final : public dfc::df::Process {
 public:
  InterLinkRx(std::string name, InterLinkWire& wire, dfc::df::Fifo<dfc::axis::Flit>& out);

  void on_clock() override;
  void reset() override { words_ = 0; }
  bool done() const override { return !wire_.has_data(); }
  std::uint64_t wake_cycle() const override;
  std::vector<dfc::df::FifoBase*> connected_fifos() const override { return {&out_}; }

  /// Cross-context wakeup: the wire calls this when the transmitter launches
  /// a flit from the sender's clock domain.
  void external_event() { notify_external_event(); }

  std::uint64_t words_delivered() const { return words_; }

  /// True when an arrived flit cannot be delivered because the ingress FIFO
  /// is full — attribution probes, start-of-cycle.
  bool backpressured(std::uint64_t now) const {
    return wire_.rx_ready(now) && !out_.can_push();
  }

  const dfc::df::FifoBase& output() const { return out_; }

 private:
  InterLinkWire& wire_;
  dfc::df::Fifo<dfc::axis::Flit>& out_;
  std::uint64_t words_ = 0;
};

}  // namespace dfc::core
