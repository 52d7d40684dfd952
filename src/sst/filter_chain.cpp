#include "sst/filter_chain.hpp"

#include <algorithm>

namespace dfc::sst {

using dfc::axis::Flit;

TapFilter::TapFilter(std::string name, const WindowGeometry& geom, int dy, int dx,
                     dfc::df::Fifo<Flit>& upstream, dfc::df::Fifo<Flit>* downstream,
                     dfc::df::Fifo<Flit>& tap_out)
    : Process(std::move(name)),
      geom_(geom),
      dy_(dy),
      dx_(dx),
      upstream_(upstream),
      downstream_(downstream),
      tap_out_(tap_out) {}

void TapFilter::on_clock() {
  if (!upstream_.can_pop()) return;

  // Decide what the front element requires before consuming it, so a stalled
  // destination leaves the element untouched for the next cycle.
  const std::int64_t pixel = elem_ / geom_.channels;
  const std::int64_t y = pixel / geom_.in_w;
  const std::int64_t x = pixel % geom_.in_w;
  const bool is_tap = geom_.is_tap_of_valid_origin(y, x, dy_, dx_);

  if (is_tap && !tap_out_.can_push()) {
    tap_out_.note_full_stall();
    return;
  }
  if (downstream_ != nullptr && !downstream_->can_push()) {
    downstream_->note_full_stall();
    return;
  }

  Flit f = upstream_.pop();
  if (downstream_ != nullptr) downstream_->push(f);
  if (is_tap) tap_out_.push(f);

  if (++elem_ == geom_.values_per_image()) elem_ = 0;
}

void TapFilter::reset() { elem_ = 0; }

WindowAssembler::WindowAssembler(std::string name, const WindowGeometry& geom,
                                 std::vector<dfc::df::Fifo<Flit>*> taps_row_major,
                                 dfc::df::Fifo<Window>& out)
    : Process(std::move(name)), geom_(geom), taps_(std::move(taps_row_major)), out_(out) {
  DFC_REQUIRE(static_cast<std::int64_t>(taps_.size()) == geom_.taps(),
              "assembler needs one tap channel per window element");
}

void WindowAssembler::on_clock() {
  if (!out_.can_push()) {
    out_.note_full_stall();
    return;
  }
  for (auto* tap : taps_) {
    if (!tap->can_pop()) return;  // blocking read on all taps
  }
  Window& w = out_.push_slot();
  w.count = static_cast<std::uint16_t>(geom_.taps());
  for (std::size_t i = 0; i < taps_.size(); ++i) {
    const Flit f = taps_[i]->pop();
    w.taps[i] = f.data;
    if (i == 0) w.abs_channel = f.channel;
  }
  w.slot = static_cast<std::uint16_t>(cur_slot_);
  w.ox = static_cast<std::int32_t>(cur_ox_);
  w.oy = static_cast<std::int32_t>(cur_oy_);
  const std::int64_t last_oy = ((geom_.in_h - geom_.kh) / geom_.stride_y) * geom_.stride_y;
  const std::int64_t last_ox = ((geom_.in_w - geom_.kw) / geom_.stride_x) * geom_.stride_x;
  w.last_of_image =
      (cur_oy_ == last_oy) && (cur_ox_ == last_ox) && (cur_slot_ == geom_.channels - 1);
  advance_position();
}

std::uint64_t WindowAssembler::wake_cycle() const {
  // A full output is checked before the taps and stalls every cycle; with
  // room, the blocking read only proceeds once every tap channel has data.
  if (!out_.can_push()) return now();
  for (const auto* tap : taps_) {
    if (!tap->can_pop()) return kNeverWake;
  }
  return now();
}

std::vector<dfc::df::FifoBase*> WindowAssembler::connected_fifos() const {
  std::vector<dfc::df::FifoBase*> fifos;
  fifos.reserve(taps_.size() + 1);
  for (auto* f : taps_) fifos.push_back(f);
  fifos.push_back(&out_);
  return fifos;
}

void WindowAssembler::advance_position() {
  if (++cur_slot_ < geom_.channels) return;
  cur_slot_ = 0;
  cur_ox_ += geom_.stride_x;
  if (cur_ox_ <= geom_.in_w - geom_.kw) return;
  cur_ox_ = 0;
  cur_oy_ += geom_.stride_y;
  if (cur_oy_ <= geom_.in_h - geom_.kh) return;
  cur_oy_ = 0;
}

void WindowAssembler::reset() { cur_oy_ = cur_ox_ = cur_slot_ = 0; }

FilterChainHandle build_filter_chain(dfc::df::SimContext& ctx, const std::string& name,
                                     const WindowGeometry& geom,
                                     dfc::df::Fifo<Flit>& in, dfc::df::Fifo<Window>& out) {
  geom.validate();
  DFC_REQUIRE(geom.pad == 0,
              "the element-level filter chain supports only unpadded windows; "
              "use the fused WindowBuffer for padded layers");
  FilterChainHandle handle;

  // Taps ordered by descending element offset: the filter closest to the
  // input handles the newest (largest-offset) tap.
  struct TapDesc {
    int dy, dx;
    std::int64_t offset_elems;
  };
  std::vector<TapDesc> taps;
  taps.reserve(static_cast<std::size_t>(geom.taps()));
  for (int dy = 0; dy < geom.kh; ++dy) {
    for (int dx = 0; dx < geom.kw; ++dx) {
      taps.push_back({dy, dx, (static_cast<std::int64_t>(dy) * geom.in_w + dx) * geom.channels});
    }
  }
  std::sort(taps.begin(), taps.end(),
            [](const TapDesc& a, const TapDesc& b) { return a.offset_elems > b.offset_elems; });

  // Tap channels, addressed row-major for the assembler.
  std::vector<dfc::df::Fifo<Flit>*> tap_by_row_major(
      static_cast<std::size_t>(geom.taps()), nullptr);
  for (const auto& t : taps) {
    auto& f = ctx.add_fifo<Flit>(
        name + ".tap" + std::to_string(t.dy) + "_" + std::to_string(t.dx), 2);
    tap_by_row_major[static_cast<std::size_t>(t.dy * geom.kw + t.dx)] = &f;
    handle.tap_fifos.push_back(&f);
  }

  // Inter-filter FIFOs sized to the tap distance (full buffering) plus one
  // slot of slack so a registered handshake sustains one element per cycle.
  dfc::df::Fifo<Flit>* upstream = &in;
  for (std::size_t k = 0; k < taps.size(); ++k) {
    dfc::df::Fifo<Flit>* downstream = nullptr;
    if (k + 1 < taps.size()) {
      const std::int64_t gap = taps[k].offset_elems - taps[k + 1].offset_elems;
      DFC_CHECK(gap >= 1, "tap offsets must be strictly decreasing");
      auto& f = ctx.add_fifo<Flit>(name + ".chain" + std::to_string(k),
                                   static_cast<std::size_t>(gap) + 1);
      handle.chain_fifos.push_back(&f);
      handle.total_chain_capacity += f.capacity();
      downstream = &f;
    }
    auto* tap_fifo =
        tap_by_row_major[static_cast<std::size_t>(taps[k].dy * geom.kw + taps[k].dx)];
    ctx.add_process<TapFilter>(name + ".filter" + std::to_string(k), geom, taps[k].dy,
                               taps[k].dx, *upstream, downstream, *tap_fifo);
    upstream = downstream;
  }

  ctx.add_process<WindowAssembler>(name + ".assembler", geom, tap_by_row_major, out);
  return handle;
}

}  // namespace dfc::sst
