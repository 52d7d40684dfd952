#include "core/interlink.hpp"

#include <algorithm>
#include <limits>

namespace dfc::core {

using dfc::axis::Flit;

LinkModel link_model_for_gbps(double gbps) {
  DFC_REQUIRE(gbps > 0.0, "the link rate must be a positive number of Gbps");
  const double cycles_per_word = 3.2 / gbps + 0.5;
  // Casting to int is defined only below 2^31.
  DFC_REQUIRE(cycles_per_word < static_cast<double>(std::numeric_limits<int>::max()) + 1.0,
              "the link rate is too slow: a word would take more than INT_MAX cycles");
  return LinkModel{40, std::max(1, static_cast<int>(cycles_per_word))};
}

InterLinkWire::InterLinkWire(std::string name, InterLinkModel model)
    : name_(std::move(name)), model_(model) {
  model_.validate();
  credits_absorbed_ = model_.effective_credits();
}

int InterLinkWire::credits_available(std::uint64_t now) const {
  int landed = 0;
  for (std::uint64_t ready : credit_returns_) {
    if (ready > now) break;  // monotone: later entries can't have landed
    ++landed;
  }
  return credits_absorbed_ + landed;
}

void InterLinkWire::tx_send(Flit flit, std::uint64_t now) {
  // Fold landed returns into the pool, then spend one credit. Mutation only
  // happens here and in rx_take — i.e. on cycles an endpoint actively moves a
  // word — so skipped cycles leave the wire bit-identical.
  while (!credit_returns_.empty() && credit_returns_.front() <= now) {
    ++credits_absorbed_;
    credit_returns_.pop_front();
  }
  DFC_CHECK(credits_absorbed_ > 0, "interlink tx_send without an available credit");
  --credits_absorbed_;
  data_.push_back(InFlight{now + static_cast<std::uint64_t>(model_.link.latency_cycles), flit});
  if (rx_ != nullptr) rx_->external_event();
}

Flit InterLinkWire::rx_take(std::uint64_t now) {
  DFC_CHECK(rx_ready(now), "interlink rx_take before the head flit arrived");
  Flit flit = data_.front().flit;
  data_.pop_front();
  credit_returns_.push_back(now + static_cast<std::uint64_t>(model_.link.latency_cycles));
  ++words_;
  if (tx_ != nullptr) tx_->external_event();
  return flit;
}

void InterLinkWire::reset() {
  data_.clear();
  credit_returns_.clear();
  credits_absorbed_ = model_.effective_credits();
  words_ = 0;
}

InterLinkTx::InterLinkTx(std::string name, dfc::df::Fifo<Flit>& in, InterLinkWire& wire)
    : Process(std::move(name)), in_(in), wire_(wire) {}

void InterLinkTx::on_clock() {
  if (!in_.can_pop() || now() < next_send_cycle_) return;
  if (wire_.credits_available(now()) <= 0) {
    // Flit ready, window exhausted: the link itself is the limiter. Counted
    // only while observing — the activity-aware scheduler would legally
    // sleep through these cycles, so the counter is exact only then.
    if (obs_enabled_) ++credit_stalls_;
    return;
  }
  wire_.tx_send(in_.pop(), now());
  next_send_cycle_ = now() + static_cast<std::uint64_t>(wire_.model().link.cycles_per_word);
  ++words_;
}

std::uint64_t InterLinkTx::wake_cycle() const {
  if (!in_.can_pop()) return kNeverWake;
  std::uint64_t pace = std::max(next_send_cycle_, now());
  if (wire_.credits_available(pace) > 0) return pace;
  // Out of credits even at the pace cycle: the next chance is the first
  // pending return landing after it (external_event() re-evaluates on
  // arrivals from the receiver's domain either way).
  std::uint64_t ready = wire_.next_credit_ready();
  if (ready == InterLinkWire::kNever) return kNeverWake;
  return std::max(ready, pace);
}

void InterLinkTx::reset() {
  next_send_cycle_ = 0;
  words_ = 0;
  credit_stalls_ = 0;
}

InterLinkRx::InterLinkRx(std::string name, InterLinkWire& wire, dfc::df::Fifo<Flit>& out)
    : Process(std::move(name)), wire_(wire), out_(out) {}

void InterLinkRx::on_clock() {
  if (!wire_.rx_ready(now())) return;
  if (!out_.can_push()) {
    out_.note_full_stall();
    return;
  }
  out_.push(wire_.rx_take(now()));
  ++words_;
}

std::uint64_t InterLinkRx::wake_cycle() const {
  // Once the head flit is deliverable, stay awake: a full ingress FIFO notes
  // a stall every cycle until space frees.
  std::uint64_t ready = wire_.next_data_ready();
  if (ready == InterLinkWire::kNever) return kNeverWake;
  return std::max(ready, now());
}

}  // namespace dfc::core
