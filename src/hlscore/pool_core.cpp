#include "hlscore/pool_core.hpp"

#include <algorithm>

namespace dfc::hls {

using dfc::axis::Flit;
using dfc::sst::Window;

PoolCore::PoolCore(std::string name, PoolCoreConfig config, dfc::df::Fifo<Window>& window_in,
                   dfc::df::Fifo<Flit>& stream_out)
    : Process(std::move(name)), cfg_(std::move(config)), in_(window_in), out_(stream_out) {
  cfg_.validate();
}

void PoolCore::on_clock() {
  if (!in_.can_pop()) {
    if (obs_enabled_) activity_.tick(obs::CoreState::kIdle, now(), obs_trace_, obs_id_);
    return;
  }
  if (!out_.can_push()) {
    out_.note_full_stall();
    if (obs_enabled_) activity_.tick(obs::CoreState::kBackPressured, now(), obs_trace_, obs_id_);
    return;
  }
  const Window& w = in_.take();
  DFC_ASSERT(w.count == cfg_.taps(), "pool window tap count mismatch in " + name());

  float value;
  if (cfg_.mode == PoolMode::kMax) {
    value = w.taps[0];
    for (std::size_t i = 1; i < w.count; ++i) value = std::max(value, w.taps[i]);
  } else {
    float sum = 0.0f;
    for (std::size_t i = 0; i < w.count; ++i) sum += w.taps[i];
    value = sum / static_cast<float>(w.count);
  }

  Flit f;
  f.data = value;
  f.channel = w.abs_channel;
  f.last = w.last_of_image;
  out_.push(f);
  ++outputs_produced_;
  if (obs_enabled_) activity_.tick(obs::CoreState::kWorking, now(), obs_trace_, obs_id_);
}

}  // namespace dfc::hls
