// Convolutional-layer computation core (paper Sec. IV-A, Algorithm 1).
//
// The core reads IN_PORTS windows per beat from the SST memory structures,
// multiplies them with design-time weights, reduces via a tree adder into
// OUT_FM partial-sum registers, and — once all IN_FM/IN_PORTS input groups
// of an output position are accumulated — streams the OUT_FM results over
// OUT_PORTS output channels, OUT_PORTS values per beat.
//
// Gather and emission overlap through a ping-pong output register bank, so
// the steady-state initiation interval per output position is
//     II = max(OUT_FM/OUT_PORTS, IN_FM/IN_PORTS)            (paper Eq. 4).
// Results become available for emission only `pipeline_latency()` cycles
// after the last gather beat, modelling the mul + adder-tree + accumulate
// pipeline depth of the HLS kernel.
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
#include "sst/window.hpp"

namespace dfc::hls {

struct ConvCoreConfig {
  int in_ports = 1;
  int out_ports = 1;
  std::int64_t in_fm = 1;
  std::int64_t out_fm = 1;
  int kh = 1;
  int kw = 1;
  std::int64_t out_positions = 0;  ///< output positions (out_w * out_h) per image

  /// Weights laid out [out_fm][in_fm][kh*kw]; biases one per output FM.
  std::vector<float> weights;
  std::vector<float> biases;

  Activation activation = Activation::kNone;
  OpLatency latency{};

  /// First absolute output-channel index (0 for whole-layer cores).
  std::int64_t out_channel_base = 0;

  void validate() const;

  std::int64_t taps() const { return static_cast<std::int64_t>(kh) * kw; }
  std::int64_t gather_beats() const { return in_fm / in_ports; }
  std::int64_t emit_beats() const { return out_fm / out_ports; }

  /// Paper Eq. 4.
  std::int64_t initiation_interval() const {
    return std::max(emit_beats(), gather_beats());
  }

  /// Cycles between the last gather beat of a position and the availability
  /// of its outputs: multiplier depth, adder-tree depth over the per-beat
  /// products, and the final accumulate into the partial-sum register.
  std::int64_t pipeline_latency() const;
};

class ConvCore final : public dfc::df::Process {
 public:
  ConvCore(std::string name, ConvCoreConfig config,
           std::vector<dfc::df::Fifo<sst::Window>*> window_in,
           std::vector<dfc::df::Fifo<dfc::axis::Flit>*> stream_out);

  void on_clock() override;
  void reset() override;
  bool done() const override { return in_flight_.empty() && group_ == 0; }
  std::uint64_t wake_cycle() const override;
  std::vector<dfc::df::FifoBase*> connected_fifos() const override;

  /// The construction config minus its weights and biases, which the MAC
  /// kernel holds in its own layout.
  const ConvCoreConfig& config() const { return cfg_; }
  std::uint64_t positions_completed() const { return positions_completed_; }

  /// Cycles the core wanted to start a position but both register banks were
  /// busy (emission-bound back-pressure); used by ablation benches.
  std::uint64_t gather_stall_cycles() const { return gather_stalls_; }

  /// Per-cycle activity attribution; populated only while the owning context
  /// observes (see obs/activity.hpp).
  const obs::CoreActivity& activity() const { return activity_.counts(); }

 private:
  void try_emit();
  void try_gather();

  ConvCoreConfig cfg_;
  ConvMacKernel kernel_;  ///< multiplier bank + tree adder; owns the weights
  std::vector<dfc::df::Fifo<sst::Window>*> win_in_;
  std::vector<dfc::df::Fifo<dfc::axis::Flit>*> out_;

  // Accumulation bank for the position being gathered.
  std::vector<float> acc_;
  std::int64_t group_ = 0;  ///< next gather beat within the current position
  std::int64_t position_in_image_ = 0;

  // Completed positions travelling through the core's pipeline registers,
  // activated: each becomes emittable `pipeline_latency()` cycles after its
  // last gather beat. The queue depth models the pipeline stages, so latency never
  // throttles the steady-state initiation interval.
  struct InFlight {
    std::vector<float> values;
    bool last_of_image = false;
    std::uint64_t ready_cycle = 0;
  };
  std::deque<InFlight> in_flight_;
  std::size_t in_flight_limit_ = 2;
  std::int64_t emit_beat_ = 0;

  std::vector<float> beat_taps_;  ///< one beat's popped window taps, port-major

  std::uint64_t positions_completed_ = 0;
  std::uint64_t gather_stalls_ = 0;
  bool worked_this_cycle_ = false;

  // Observation-only bookkeeping (obs_enabled_ gated; see process.hpp).
  obs::ActivityTracker activity_;
  bool blocked_output_ = false;  ///< emit refused by a full output port this cycle
  bool blocked_retire_ = false;  ///< gather refused by a full pipeline queue this cycle
};

}  // namespace dfc::hls
