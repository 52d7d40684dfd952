#include "hlscore/fcn_core.hpp"

#include "hlscore/tree_reduce.hpp"

namespace dfc::hls {

using dfc::axis::Flit;

namespace {

// Validates the whole configuration before the kernel re-lays its weights.
FcnMacKernel make_kernel(const FcnCoreConfig& cfg) {
  cfg.validate();
  return {cfg.in_count, cfg.out_count, cfg.num_accumulators, cfg.weights, cfg.biases};
}

}  // namespace

void FcnCoreConfig::validate() const {
  latency.validate();
  DFC_REQUIRE(in_count >= 1 && out_count >= 1, "FCN sizes must be >= 1");
  DFC_REQUIRE(num_accumulators >= 1, "need at least one accumulator lane");
  DFC_REQUIRE(static_cast<std::int64_t>(weights.size()) == in_count * out_count,
              "FCN weights size mismatch");
  DFC_REQUIRE(static_cast<std::int64_t>(biases.size()) == out_count,
              "FCN biases size mismatch");
}

std::int64_t FcnCoreConfig::drain_latency() const {
  return latency.fmul + latency.fadd +
         static_cast<std::int64_t>(tree_depth(static_cast<std::size_t>(num_accumulators))) *
             latency.fadd;
}

FcnCore::FcnCore(std::string name, FcnCoreConfig config, dfc::df::Fifo<Flit>& in,
                 dfc::df::Fifo<Flit>& out)
    : Process(std::move(name)),
      cfg_(std::move(config)),
      kernel_(make_kernel(cfg_)),
      in_(in),
      out_(out),
      acc_(kernel_.acc_size(), 0.0f),
      lane_busy_until_(static_cast<std::size_t>(cfg_.num_accumulators), 0) {
  // The kernel keeps its own re-laid copy; release the config's.
  cfg_.weights = std::vector<float>();
  cfg_.biases = std::vector<float>();
  const std::int64_t interval = std::max(cfg_.in_count, cfg_.out_count);
  in_flight_limit_ =
      static_cast<std::size_t>((cfg_.drain_latency() + interval - 1) / interval + 2);
}

void FcnCore::on_clock() {
  worked_this_cycle_ = false;
  blocked_output_ = false;
  blocked_retire_ = false;
  lane_wait_ = false;
  try_emit();
  try_accumulate();
  if (obs_enabled_) {
    // Exactly one bucket per observed cycle; lane-hazard waits count as
    // working (see activity() doc), a blocked emit or drain queue as
    // back-pressure, and empty input as starvation only while an image is in
    // progress somewhere in the core.
    obs::CoreState s;
    const bool in_progress = input_index_ != 0 || !in_flight_.empty() || emit_index_ != 0;
    if (worked_this_cycle_ || lane_wait_) {
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

void FcnCore::try_emit() {
  if (in_flight_.empty() || now() < in_flight_.front().ready_cycle) return;
  if (!out_.can_push()) {
    out_.note_full_stall();
    blocked_output_ = true;
    return;
  }
  Flit f;
  f.data = apply_activation(cfg_.activation,
                            in_flight_.front().values[static_cast<std::size_t>(emit_index_)]);
  f.channel = static_cast<std::int32_t>(emit_index_);
  f.last = (emit_index_ == cfg_.out_count - 1);
  out_.push(f);
  if (++emit_index_ == cfg_.out_count) {
    emit_index_ = 0;
    in_flight_.pop_front();
  }
  worked_this_cycle_ = true;
}

void FcnCore::try_accumulate() {
  if (!in_.can_pop()) {
    if (obs_enabled_) in_.note_empty_stall();
    return;
  }

  // The image retires into a drain-pipeline slot on its last input.
  const bool completing = (input_index_ == cfg_.in_count - 1);
  if (completing && in_flight_.size() >= in_flight_limit_) {
    blocked_retire_ = true;
    return;
  }

  // The accumulator lane for this input must have finished its previous add.
  const auto lane = static_cast<std::size_t>(input_index_ % cfg_.num_accumulators);
  if (now() < lane_busy_until_[lane]) {
    ++lane_stalls_;
    lane_wait_ = true;
    return;
  }

  if (input_index_ == 0) kernel_.seed(acc_);  // lane 0 from the bias, the rest from zero

  const Flit f = in_.pop();
  worked_this_cycle_ = true;
  kernel_.accumulate(input_index_, std::span<const float>(&f.data, 1), acc_);
  lane_busy_until_[lane] = now() + static_cast<std::uint64_t>(cfg_.latency.fadd);

  if (!completing) {
    ++input_index_;
    return;
  }
  input_index_ = 0;
  InFlight slot;
  slot.values.resize(static_cast<std::size_t>(cfg_.out_count));
  kernel_.drain(acc_, slot.values);
  slot.ready_cycle = now() + static_cast<std::uint64_t>(cfg_.drain_latency());
  in_flight_.push_back(std::move(slot));
  ++images_completed_;
}

std::uint64_t FcnCore::wake_cycle() const {
  std::uint64_t wake = kNeverWake;
  if (!in_flight_.empty()) wake = std::max(in_flight_.front().ready_cycle, now());
  // Accumulate side: with input available the core either consumes it, waits
  // on a busy lane (counting a lane stall every cycle), or — when completing
  // with a full drain pipeline — waits silently on emission, which the emit
  // wake above already schedules.
  if (in_.can_pop()) {
    const bool completing = (input_index_ == cfg_.in_count - 1);
    if (!(completing && in_flight_.size() >= in_flight_limit_)) wake = now();
  }
  return wake;
}

void FcnCore::reset() {
  input_index_ = 0;
  in_flight_.clear();
  emit_index_ = 0;
  images_completed_ = 0;
  lane_stalls_ = 0;
  worked_this_cycle_ = false;
  activity_.reset();
  blocked_output_ = false;
  blocked_retire_ = false;
  lane_wait_ = false;
  std::fill(lane_busy_until_.begin(), lane_busy_until_.end(), 0);
}

}  // namespace dfc::hls
