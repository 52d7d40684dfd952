// Fully-connected (linear) layer core (paper Sec. IV-B).
//
// A fully-connected layer is a 1x1 convolution with one input and one output
// channel per value, implemented as a single-input-port/single-output-port
// core to bound DSP usage: for each input value, the 1x1 MACs of all output
// neurons execute in the same cycle; the outputs are streamed sequentially
// after all inputs have been processed.
//
// Floating-point accumulation has an 11-cycle latency, which would force an
// initiation interval of 11 on a single accumulator. The core therefore
// interleaves `num_accumulators` partial accumulators per output neuron
// (the paper's partial-unrolling workaround): with at least `fadd` lanes the
// input stream is consumed at one value per cycle, at the cost of a final
// lane-reduction tree and extra resources.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "axis/flit.hpp"
#include "dataflow/fifo.hpp"
#include "dataflow/process.hpp"
#include "hlscore/activation.hpp"
#include "hlscore/mac_kernel.hpp"
#include "hlscore/op_latency.hpp"
#include "obs/activity.hpp"

namespace dfc::hls {

struct FcnCoreConfig {
  std::int64_t in_count = 1;
  std::int64_t out_count = 1;

  /// Weights laid out [out][in]; biases one per output.
  std::vector<float> weights;
  std::vector<float> biases;

  Activation activation = Activation::kNone;
  OpLatency latency{};

  /// Interleaved accumulator lanes per output neuron. Defaults to the float
  /// add latency so the input stream is consumed at II = 1.
  int num_accumulators = 11;

  void validate() const;

  /// Cycles from the acceptance of the last input of an image to the first
  /// output being available: the in-flight multiply+add plus the lane
  /// reduction tree.
  std::int64_t drain_latency() const;
};

class FcnCore final : public dfc::df::Process {
 public:
  FcnCore(std::string name, FcnCoreConfig config, dfc::df::Fifo<dfc::axis::Flit>& in,
          dfc::df::Fifo<dfc::axis::Flit>& out);

  void on_clock() override;
  void reset() override;
  bool done() const override { return in_flight_.empty() && input_index_ == 0; }
  std::uint64_t wake_cycle() const override;
  std::vector<dfc::df::FifoBase*> connected_fifos() const override { return {&in_, &out_}; }

  /// The construction config minus its weights and biases, which the MAC
  /// kernel holds in its own layout.
  const FcnCoreConfig& config() const { return cfg_; }
  std::uint64_t images_completed() const { return images_completed_; }

  /// Cycles the input stream stalled because the target accumulator lane was
  /// still busy (II > 1 when num_accumulators < fadd); for the A3 ablation.
  std::uint64_t lane_stall_cycles() const { return lane_stalls_; }

  /// Per-cycle activity attribution (only while the context observes). A
  /// lane-hazard wait counts as working: the arithmetic pipeline, not a
  /// neighbour, is the limiter.
  const obs::CoreActivity& activity() const { return activity_.counts(); }

 private:
  void try_emit();
  void try_accumulate();

  FcnCoreConfig cfg_;
  FcnMacKernel kernel_;  ///< 1x1 MACs + accumulator lanes; owns the weights
  dfc::df::Fifo<dfc::axis::Flit>& in_;
  dfc::df::Fifo<dfc::axis::Flit>& out_;

  std::vector<float> acc_;  ///< accumulator lanes of every output (kernel_ layout)
  std::vector<std::uint64_t> lane_busy_until_;
  std::int64_t input_index_ = 0;

  // Completed images travelling through the drain pipeline (multiply+add in
  // flight plus the lane-reduction tree), activated at drain; sized so drain
  // latency does not throttle the input stream.
  struct InFlight {
    std::vector<float> values;
    std::uint64_t ready_cycle = 0;
  };
  std::deque<InFlight> in_flight_;
  std::size_t in_flight_limit_ = 2;
  std::int64_t emit_index_ = 0;

  std::uint64_t images_completed_ = 0;
  std::uint64_t lane_stalls_ = 0;
  bool worked_this_cycle_ = false;

  // Observation-only bookkeeping (obs_enabled_ gated; see process.hpp).
  obs::ActivityTracker activity_;
  bool blocked_output_ = false;  ///< emit refused by the full output FIFO this cycle
  bool blocked_retire_ = false;  ///< last input refused by a full drain queue this cycle
  bool lane_wait_ = false;       ///< input waited on a busy accumulator lane this cycle
};

}  // namespace dfc::hls
