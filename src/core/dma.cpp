#include "core/dma.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace dfc::core {

using dfc::axis::Flit;

DmaBus::DmaBus(int cycles_per_word) : cycles_per_word_(cycles_per_word) {
  DFC_REQUIRE(cycles_per_word_ >= 1, "DMA rate must be >= 1 cycle/word");
}

DmaBus::Grant DmaBus::arbitrate(std::uint64_t now) {
  if (decided_cycle_ == now) return grant_;
  decided_cycle_ = now;
  if (now < next_free_cycle_) {
    grant_ = Grant::kNone;
  } else if (sink_ != nullptr && sink_->wants_bus(now)) {
    grant_ = Grant::kSink;  // output drain has priority over input injection
  } else if (source_ != nullptr && source_->wants_bus(now)) {
    grant_ = Grant::kSource;
  } else {
    grant_ = Grant::kNone;
  }
  return grant_;
}

bool DmaBus::grant_source(std::uint64_t now) { return arbitrate(now) == Grant::kSource; }
bool DmaBus::grant_sink(std::uint64_t now) { return arbitrate(now) == Grant::kSink; }

void DmaBus::consume(std::uint64_t now) {
  DFC_ASSERT(decided_cycle_ == now && grant_ != Grant::kNone,
             "DmaBus::consume without a grant this cycle");
  next_free_cycle_ = now + static_cast<std::uint64_t>(cycles_per_word_);
  ++words_;
}

void DmaBus::reset() {
  next_free_cycle_ = 0;
  decided_cycle_ = ~std::uint64_t{0};
  grant_ = Grant::kNone;
  words_ = 0;
}

DmaSource::DmaSource(std::string name, dfc::df::Fifo<Flit>& out, Shape3 image_shape,
                     int cycles_per_word, DmaBus* bus)
    : Process(std::move(name)),
      out_(out),
      image_shape_(image_shape),
      cycles_per_word_(cycles_per_word),
      bus_(bus) {
  DFC_REQUIRE(cycles_per_word_ >= 1, "DMA rate must be >= 1 cycle/word");
  if (bus_ != nullptr) bus_->attach_source(this);
}

void DmaSource::enqueue(const Tensor& image) {
  DFC_REQUIRE(image.shape() == image_shape_,
              "DMA image shape mismatch: " + image.shape().str() + " vs " +
                  image_shape_.str());
  const auto flits = dfc::axis::pack_port_stream(image, 1, 0);
  buffer_.insert(buffer_.end(), flits.begin(), flits.end());
  notify_external_event();
}

void DmaSource::on_clock() {
  if (!wants_bus(now())) return;
  if (bus_ != nullptr && !bus_->grant_source(now())) return;
  if (!out_.can_push()) {
    out_.note_full_stall();
    return;
  }
  if (words_into_image_ == 0) {
    if (obs_trace_ != nullptr) {
      obs_trace_->record(obs_id_, obs::EventKind::kImageStart, now(),
                         static_cast<std::uint32_t>(images_started_));
    }
    inject_cycles_.push_back(now());
    ++images_started_;
  }
  out_.push(buffer_.front());
  buffer_.pop_front();
  next_send_cycle_ = now() + static_cast<std::uint64_t>(cycles_per_word_);
  if (bus_ != nullptr) bus_->consume(now());
  if (++words_into_image_ == image_shape_.volume()) {
    words_into_image_ = 0;
    ++images_sent_;
  }
}

std::uint64_t DmaSource::wake_cycle() const {
  if (buffer_.empty()) return kNeverWake;
  // Pacing/bus-busy waits are silent; once due, a full FIFO means a stall is
  // noted every cycle, which max(..., now) keeps awake.
  std::uint64_t wake = std::max(next_send_cycle_, now());
  if (bus_ != nullptr) wake = std::max(wake, bus_->next_free_cycle());
  return wake;
}

void DmaSource::reset() {
  buffer_.clear();
  words_into_image_ = 0;
  next_send_cycle_ = 0;
  images_started_ = 0;
  images_sent_ = 0;
  inject_cycles_.clear();
}

DmaSink::DmaSink(std::string name, dfc::df::Fifo<Flit>& in, std::int64_t values_per_image,
                 int cycles_per_word, DmaBus* bus)
    : Process(std::move(name)),
      in_(in),
      values_per_image_(values_per_image),
      cycles_per_word_(cycles_per_word),
      bus_(bus) {
  DFC_REQUIRE(values_per_image_ >= 1, "DMA sink needs at least one value per image");
  DFC_REQUIRE(cycles_per_word_ >= 1, "DMA rate must be >= 1 cycle/word");
  current_.reserve(static_cast<std::size_t>(values_per_image_));
  if (bus_ != nullptr) bus_->attach_sink(this);
}

void DmaSink::on_clock() {
  if (!wants_bus(now())) {
    // The sink is ready for a word (pacing satisfied) but the result stream
    // is empty: record the starvation. Only while observing — an empty input
    // otherwise lets the sink sleep under the activity-aware scheduler.
    if (obs_enabled_ && now() >= next_recv_cycle_ && !in_.can_pop()) in_.note_empty_stall();
    return;
  }
  if (bus_ != nullptr && !bus_->grant_sink(now())) return;
  const Flit flit = in_.pop();
  if (guard_enabled_) guard_check(flit);
  current_.push_back(flit.data);
  next_recv_cycle_ = now() + static_cast<std::uint64_t>(cycles_per_word_);
  if (bus_ != nullptr) bus_->consume(now());
  if (static_cast<std::int64_t>(current_.size()) == values_per_image_) {
    if (obs_trace_ != nullptr) {
      obs_trace_->record(obs_id_, obs::EventKind::kImageDone, now(),
                         static_cast<std::uint32_t>(completion_cycles_.size()));
    }
    completion_cycles_.push_back(now());
    outputs_.push_back(std::move(current_));
    current_.clear();
    current_.reserve(static_cast<std::size_t>(values_per_image_));
  }
}

std::uint64_t DmaSink::wake_cycle() const {
  if (!in_.can_pop()) return kNeverWake;
  std::uint64_t wake = std::max(next_recv_cycle_, now());
  if (bus_ != nullptr) wake = std::max(wake, bus_->next_free_cycle());
  return wake;
}

void DmaSink::guard_check(const Flit& flit) {
  const bool expect_last =
      static_cast<std::int64_t>(current_.size()) + 1 == values_per_image_;
  bool violated = false;
  if (flit.last != expect_last) {
    ++guard_framing_errors_;
    violated = true;
  }
  if (!(std::isfinite(flit.data) && std::fabs(flit.data) <= guard_bound_)) {
    ++guard_range_errors_;
    violated = true;
  }
  if (violated) {
    if (first_guard_error_cycle_ == kNoError) first_guard_error_cycle_ = now();
    if (obs_trace_ != nullptr) {
      obs_trace_->record(obs_id_, obs::EventKind::kFaultDetect, now(),
                         flit.last != expect_last ? dfc::df::kDetectTraceFraming
                                                  : dfc::df::kDetectTraceRange);
    }
  }
}

void DmaSink::reset() {
  current_.clear();
  next_recv_cycle_ = 0;
  completion_cycles_.clear();
  outputs_.clear();
  guard_framing_errors_ = 0;
  guard_range_errors_ = 0;
  first_guard_error_cycle_ = kNoError;
}

}  // namespace dfc::core
