#include "hlscore/conv_core.hpp"

#include <algorithm>

#include "common/math_util.hpp"
#include "hlscore/tree_reduce.hpp"

namespace dfc::hls {

using dfc::axis::Flit;
using dfc::sst::Window;

namespace {

// Validates the whole configuration before the kernel re-lays its weights.
ConvMacKernel make_kernel(const ConvCoreConfig& cfg) {
  cfg.validate();
  return {cfg.in_fm, cfg.out_fm, cfg.in_ports, cfg.taps(), cfg.weights, cfg.biases};
}

}  // namespace

void ConvCoreConfig::validate() const {
  latency.validate();
  DFC_REQUIRE(in_ports >= 1 && out_ports >= 1, "port counts must be >= 1");
  DFC_REQUIRE(in_fm >= 1 && out_fm >= 1, "feature-map counts must be >= 1");
  DFC_REQUIRE(in_fm % in_ports == 0,
              "IN_FM must be a multiple of IN_PORTS (got " + std::to_string(in_fm) + "/" +
                  std::to_string(in_ports) + ")");
  DFC_REQUIRE(out_fm % out_ports == 0,
              "OUT_FM must be a multiple of OUT_PORTS (got " + std::to_string(out_fm) + "/" +
                  std::to_string(out_ports) + ")");
  DFC_REQUIRE(kh >= 1 && kw >= 1 && kh * kw <= sst::WindowGeometry::kMaxTaps,
              "window size unsupported");
  DFC_REQUIRE(out_positions >= 1, "out_positions must be set");
  DFC_REQUIRE(static_cast<std::int64_t>(weights.size()) == out_fm * in_fm * taps(),
              "weights size mismatch");
  DFC_REQUIRE(static_cast<std::int64_t>(biases.size()) == out_fm, "biases size mismatch");
}

std::int64_t ConvCoreConfig::pipeline_latency() const {
  const auto products = static_cast<std::size_t>(in_ports) * static_cast<std::size_t>(taps());
  return latency.fmul + static_cast<std::int64_t>(tree_depth(products)) * latency.fadd +
         latency.fadd;  // final accumulate into the partial-sum register
}

ConvCore::ConvCore(std::string name, ConvCoreConfig config,
                   std::vector<dfc::df::Fifo<Window>*> window_in,
                   std::vector<dfc::df::Fifo<Flit>*> stream_out)
    : Process(std::move(name)),
      cfg_(std::move(config)),
      kernel_(make_kernel(cfg_)),
      win_in_(std::move(window_in)),
      out_(std::move(stream_out)),
      acc_(static_cast<std::size_t>(cfg_.out_fm), 0.0f),
      beat_taps_(static_cast<std::size_t>(kernel_.beat_inputs())) {
  // The kernel keeps its own re-laid copy; release the config's.
  cfg_.weights = std::vector<float>();
  cfg_.biases = std::vector<float>();
  // Enough pipeline slots to hide the operator latency at the steady-state
  // initiation interval (the depth of the synthesized pipeline).
  in_flight_limit_ = static_cast<std::size_t>(
      dfc::ceil_div(cfg_.pipeline_latency(), cfg_.initiation_interval()) + 2);
  DFC_REQUIRE(static_cast<int>(win_in_.size()) == cfg_.in_ports,
              "ConvCore needs one window channel per input port");
  DFC_REQUIRE(static_cast<int>(out_.size()) == cfg_.out_ports,
              "ConvCore needs one stream per output port");
}

void ConvCore::on_clock() {
  // Emission and gather share the cycle; the pipeline queue decouples them so
  // the position interval is max(gather_beats, emit_beats) at steady state.
  worked_this_cycle_ = false;
  blocked_output_ = false;
  blocked_retire_ = false;
  try_emit();
  try_gather();
  if (obs_enabled_) {
    // Exactly one bucket per observed cycle, working > back-pressured >
    // starved > idle. "In progress" means a position is mid-gather, data is
    // in the pipeline, or an emission is half done — empty inputs then count
    // as starvation; with nothing in progress they are plain idle.
    obs::CoreState s;
    const bool in_progress = group_ != 0 || !in_flight_.empty() || emit_beat_ != 0;
    if (worked_this_cycle_) {
      s = obs::CoreState::kWorking;
    } else if (blocked_output_ || blocked_retire_) {
      s = obs::CoreState::kBackPressured;
    } else if (in_progress) {
      s = obs::CoreState::kStarved;
    } else {
      s = obs::CoreState::kIdle;
    }
    activity_.tick(s, now(), obs_trace_, obs_id_);
  }
}

void ConvCore::try_emit() {
  if (in_flight_.empty() || now() < in_flight_.front().ready_cycle) return;
  // One beat pushes OUT_PORTS values in lockstep; all ports must be ready.
  for (auto* port : out_) {
    if (!port->can_push()) {
      port->note_full_stall();
      blocked_output_ = true;
      return;
    }
  }
  const InFlight& head = in_flight_.front();
  const bool last_beat = (emit_beat_ == cfg_.emit_beats() - 1);
  for (int p = 0; p < cfg_.out_ports; ++p) {
    const std::int64_t k = emit_beat_ * cfg_.out_ports + p;
    Flit f;
    f.data = head.values[static_cast<std::size_t>(k)];
    f.channel = static_cast<std::int32_t>(cfg_.out_channel_base + k);
    f.last = last_beat && head.last_of_image;
    out_[static_cast<std::size_t>(p)]->push(f);
  }
  if (last_beat) {
    in_flight_.pop_front();
    emit_beat_ = 0;
  } else {
    ++emit_beat_;
  }
  worked_this_cycle_ = true;
}

void ConvCore::try_gather() {
  // The final beat of a position needs a free pipeline slot to retire into.
  const bool completing = (group_ == cfg_.gather_beats() - 1);
  if (completing && in_flight_.size() >= in_flight_limit_) {
    ++gather_stalls_;
    blocked_retire_ = true;
    return;
  }
  for (auto* port : win_in_) {
    if (!port->can_pop()) {
      if (obs_enabled_) {
        for (auto* q : win_in_) {
          if (!q->can_pop()) q->note_empty_stall();
        }
      }
      return;
    }
  }

  if (group_ == 0) kernel_.seed(acc_);

  // Pop one window per input port; port p at beat g carries input channel
  // g*IN_PORTS + p under the round-robin interleave.
  bool last_of_image = false;
  const std::int64_t taps = cfg_.taps();
  for (int p = 0; p < cfg_.in_ports; ++p) {
    const Window& w = win_in_[static_cast<std::size_t>(p)]->take();
    DFC_ASSERT(w.count == taps, "window tap count mismatch in " + name());
    DFC_ASSERT(w.slot == group_, "window slot out of order in " + name());
    last_of_image |= w.last_of_image;
    std::copy_n(w.taps.begin(), taps, beat_taps_.begin() + p * taps);
  }

  worked_this_cycle_ = true;
  // Multiplier bank: IN_PORTS * taps products per output FM, reduced by the
  // tree adder, accumulated into the partial-sum registers (Algorithm 1).
  kernel_.beat(group_, beat_taps_, acc_);

  if (!completing) {
    ++group_;
    return;
  }
  group_ = 0;
  // The position's OUT_FM values are activated as one vector as they retire;
  // the next position reseeds acc_.
  apply_activation(cfg_.activation, acc_);
  in_flight_.push_back(InFlight{
      acc_, last_of_image, now() + static_cast<std::uint64_t>(cfg_.pipeline_latency())});
  ++positions_completed_;
  if (++position_in_image_ == cfg_.out_positions) {
    DFC_ASSERT(last_of_image, "image boundary mismatch in " + name());
    position_in_image_ = 0;
  }
}

std::uint64_t ConvCore::wake_cycle() const {
  std::uint64_t wake = kNeverWake;
  // Emit side: the head position becomes emittable at its ready_cycle; once
  // ready, a blocked output port notes a stall every cycle (stay awake).
  if (!in_flight_.empty()) wake = std::max(in_flight_.front().ready_cycle, now());
  // Gather side: a completing beat with no free pipeline slot counts a
  // gather stall every cycle regardless of window availability — that state
  // must stay awake. Otherwise the core only acts when every window port has
  // data.
  const bool completing = (group_ == cfg_.gather_beats() - 1);
  if (completing && in_flight_.size() >= in_flight_limit_) return now();
  bool windows_ready = true;
  for (const auto* port : win_in_) {
    if (!port->can_pop()) {
      windows_ready = false;
      break;
    }
  }
  if (windows_ready) return now();
  return wake;
}

std::vector<dfc::df::FifoBase*> ConvCore::connected_fifos() const {
  std::vector<dfc::df::FifoBase*> fifos;
  fifos.reserve(win_in_.size() + out_.size());
  for (auto* f : win_in_) fifos.push_back(f);
  for (auto* f : out_) fifos.push_back(f);
  return fifos;
}

void ConvCore::reset() {
  group_ = 0;
  position_in_image_ = 0;
  in_flight_.clear();
  emit_beat_ = 0;
  positions_completed_ = 0;
  gather_stalls_ = 0;
  worked_this_cycle_ = false;
  activity_.reset();
  blocked_output_ = false;
  blocked_retire_ = false;
}

}  // namespace dfc::hls
