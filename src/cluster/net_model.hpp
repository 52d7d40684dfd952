// Deterministic network-hop model for the simulated cluster fabric.
//
// The cluster front end does not run flit-level InterLinkWire objects per
// request — at millions of requests per second that would itself become the
// simulation bottleneck — but every hop is priced with the SAME timing law
// the flit-level interlink obeys (core/interlink, mirrored analytically by
// mfpga::estimate_multi_timing):
//
//   * serialization: one word per link.cycles_per_word cycles;
//   * credit flow control: at most `credits` unacknowledged words, so the
//     sustained rate degrades to one word per
//     max(cycles_per_word, ceil(2*latency/credits)) cycles — exactly the
//     credit law the wire-level executor measures (DESIGN.md §11);
//   * traversal: latency_cycles of flight after serialization completes.
//
// Transfers queue FIFO on the hop: a request cannot start serializing while
// an earlier one still owns the serializer, which is what creates network
// queueing (and therefore network-visible tail latency) under bursts.
//
// Attribution reuses obs::LinkActivity, the inter-board links' bucket type:
// every cycle of the observation window lands in exactly one of wire_busy
// (the serializer moved a word), credit_stall (the credit window — not the
// serializer — withheld the word) or idle, so cluster network hops are
// attributable in reports the same way inter-board link cycles already are.
// Flight (latency) cycles overlap serialization of later words and appear
// in request latency, not in hop occupancy.
#pragma once

#include <cstdint>
#include <string>

#include "core/interlink.hpp"
#include "obs/activity.hpp"

namespace dfc::cluster {

/// Timing of one directed network hop (front end -> node or node -> front
/// end), expressed with the interlink's own model so bandwidth, latency and
/// the credit window mean the same thing they mean for inter-board links.
struct HopModel {
  dfc::core::InterLinkModel link{};

  std::uint64_t cycles_per_word() const {
    return static_cast<std::uint64_t>(link.link.cycles_per_word);
  }

  /// Sustained serialization cost per word under credit flow control
  /// (InterLinkModel's credit law).
  std::uint64_t effective_cycles_per_word() const {
    return static_cast<std::uint64_t>(link.effective_cycles_per_word());
  }

  void validate() const { link.validate(); }
};

/// One directed hop with FIFO serializer occupancy and LinkActivity
/// attribution. Transfers must be scheduled in non-decreasing `ready` order
/// (the cluster event loop processes events in time order, so this holds by
/// construction and is asserted).
class NetHop {
 public:
  NetHop(std::string name, HopModel model);

  const std::string& name() const { return name_; }
  const HopModel& model() const { return model_; }

  /// Schedules a transfer of `words` that is ready to enter the hop at cycle
  /// `ready`; returns the delivery cycle at the far end. Serialization
  /// starts at max(ready, serializer-free) — FIFO occupancy.
  std::uint64_t transfer(std::uint64_t ready, std::uint64_t words);

  std::uint64_t words_transferred() const { return words_; }
  /// Cycle the serializer frees up after everything scheduled so far.
  std::uint64_t busy_until() const { return busy_until_; }

  /// Attribution over an observation window of `horizon` cycles (which must
  /// cover busy_until()): wire_busy + credit_stall + idle == horizon, the
  /// same exactness contract the inter-board LinkTracker keeps.
  dfc::obs::LinkActivity activity(std::uint64_t horizon) const;

 private:
  std::string name_;
  HopModel model_;
  std::uint64_t busy_until_ = 0;
  std::uint64_t last_ready_ = 0;
  std::uint64_t words_ = 0;
  std::uint64_t wire_cycles_ = 0;    ///< words * cycles_per_word
  std::uint64_t credit_cycles_ = 0;  ///< words * (effective - cycles_per_word)
};

}  // namespace dfc::cluster
