#include "core/harness.hpp"

#include <algorithm>
#include <functional>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "core/functional_model.hpp"
#include "core/schedule.hpp"

namespace dfc::core {

const char* run_status_name(RunStatus status) {
  switch (status) {
    case RunStatus::kOk: return "ok";
    case RunStatus::kTimeout: return "timeout";
    case RunStatus::kDeadlock: return "deadlock";
  }
  return "unknown";
}

const char* cycle_guard_name(CycleGuard guard) {
  switch (guard) {
    case CycleGuard::kNone: return "none";
    case CycleGuard::kCycleHook: return "cycle hook";
    case CycleGuard::kObservation: return "observation";
    case CycleGuard::kParanoid: return "paranoid";
    case CycleGuard::kIntegrityGuards: return "integrity guards";
    case CycleGuard::kStreamGuard: return "stream guard";
    case CycleGuard::kLinkAttribution: return "link attribution";
  }
  return "unknown";
}

std::vector<std::uint64_t> BatchResult::completion_intervals() const {
  std::vector<std::uint64_t> intervals;
  if (completion_cycles.size() < 2) return intervals;
  intervals.reserve(completion_cycles.size() - 1);
  for (std::size_t i = 1; i < completion_cycles.size(); ++i) {
    intervals.push_back(completion_cycles[i] - completion_cycles[i - 1]);
  }
  return intervals;
}

std::uint64_t BatchResult::steady_interval_cycles() const {
  if (completion_cycles.size() < 2) return 0;
  std::vector<std::uint64_t> intervals = completion_intervals();
  // Trailing window capped at half the intervals: the first intervals of a
  // short batch are pipeline-fill transients, and a window that reaches into
  // them reports an inflated steady rate.
  const std::size_t k = std::min<std::size_t>(8, (intervals.size() + 1) / 2);
  std::vector<std::uint64_t> tail(intervals.end() - static_cast<std::ptrdiff_t>(k),
                                  intervals.end());
  std::sort(tail.begin(), tail.end());
  if (k % 2 == 1) return tail[k / 2];
  return (tail[k / 2 - 1] + tail[k / 2]) / 2;
}

std::int64_t BatchResult::predicted_class(std::size_t i) const {
  const auto& logits = outputs.at(i);
  return static_cast<std::int64_t>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

std::uint64_t idle_watchdog_cycles(const DesignInstance& design) {
  std::uint64_t deepest = 0;
  for (const auto* core : design.conv_cores) {
    deepest = std::max(deepest, static_cast<std::uint64_t>(core->config().pipeline_latency()));
  }
  for (const auto* core : design.fcn_cores) {
    deepest = std::max(deepest, static_cast<std::uint64_t>(core->config().drain_latency()));
  }
  return std::max<std::uint64_t>(100'000, 2 * deepest);
}

Harness::Harness(std::unique_ptr<DesignInstance> design)
    : design_(std::move(design)), idle_limit_(idle_watchdog_cycles(*design_)) {
  for (const auto& ctx : design_->contexts) contexts_.push_back(ctx.get());
  trackers_.resize(design_->wires.size());
}

Harness::~Harness() = default;
Harness::Harness(Harness&&) noexcept = default;
Harness& Harness::operator=(Harness&&) noexcept = default;

CycleGuard Harness::cycle_engine_guard() const {
  const auto any_board = [this](bool (*armed)(const dfc::df::SimContext&)) {
    return std::any_of(contexts_.begin(), contexts_.end(),
                       [armed](const dfc::df::SimContext* ctx) { return armed(*ctx); });
  };
  if (any_board([](const auto& c) { return c.cycle_hook() != nullptr; })) {
    return CycleGuard::kCycleHook;
  }
  if (any_board([](const auto& c) { return c.observing(); })) return CycleGuard::kObservation;
  if (any_board([](const auto& c) { return c.paranoid(); })) return CycleGuard::kParanoid;
  if (any_board([](const auto& c) { return c.integrity_guards_active(); })) {
    return CycleGuard::kIntegrityGuards;
  }
  if (design_->sink->stream_guard_enabled()) return CycleGuard::kStreamGuard;
  if (link_attr_) return CycleGuard::kLinkAttribution;
  return CycleGuard::kNone;
}

bool Harness::compiled_mode_legal() const {
  return design_->options.execution_mode == ExecutionMode::kCompiledSchedule &&
         cycle_engine_guard() == CycleGuard::kNone;
}

void Harness::reset() {
  // Each run is an independent measurement: without the statistics reset,
  // FIFO occupancy and stall counts accumulate across batches.
  for (dfc::df::SimContext* ctx : contexts_) {
    ctx->reset();
    ctx->reset_fifo_stats();
  }
  for (const auto& bus : design_->buses) {
    if (bus != nullptr) bus->reset();
  }
  for (const auto& w : design_->wires) w->reset();
  for (auto& t : trackers_) t.reset();
  link_cycles_ = 0;
}

BatchResult Harness::run(const std::vector<Tensor>& images, std::uint64_t max_cycles,
                         bool sequential) {
  DFC_REQUIRE(!images.empty(), "a run needs at least one image");
  if (compiled_mode_legal()) return run_compiled(images, max_cycles, sequential);

  reset();
  DesignInstance& d = *design_;
  BatchResult r;
  r.requested = images.size();
  if (d.options.execution_mode == ExecutionMode::kCompiledSchedule) {
    r.fallback = cycle_engine_guard();
  }
  std::function<void(std::uint64_t)> observe;
  if (link_attr_ && !d.wires.empty()) {
    observe = [this](std::uint64_t now) { classify_links(now); };
  }
  const auto run_to = [&](std::size_t want) {
    dfc::df::run_lockstep(
        contexts_, [&] { return d.sink->images_completed() >= want; }, max_cycles, idle_limit_,
        [this] { return fifo_report(); }, observe);
  };
  try {
    if (sequential) {
      for (std::size_t n = 0; n < images.size(); ++n) {
        d.source->enqueue(images[n]);
        run_to(n + 1);
      }
    } else {
      for (const Tensor& img : images) d.source->enqueue(img);
      run_to(images.size());
    }
  } catch (const TimeoutError& e) {
    r.status = RunStatus::kTimeout;
    r.error = e.what();
  } catch (const DeadlockError& e) {
    r.status = RunStatus::kDeadlock;
    r.error = e.what();
  }
  for (std::size_t b = 0; b < board_traces_.size(); ++b) {
    trace_->append(board_traces_[b], board_trace_bases_[b]);
    board_traces_[b].clear_events();
  }

  r.inject_cycles = d.source->inject_cycles();
  r.completion_cycles = d.sink->completion_cycles();
  r.outputs = d.sink->outputs();
  // A partial run's span is the cycles actually burnt, not the last
  // completion before the abort.
  r.end_cycle = r.ok() ? r.completion_cycles.back() : contexts_.front()->cycle();
  return r;
}

BatchResult Harness::run_compiled(const std::vector<Tensor>& images, std::uint64_t max_cycles,
                                  bool sequential) {
  const DesignInstance& d = *design_;
  auto& slot = sequential ? sequential_schedule_ : batch_schedule_;
  if (slot == nullptr) {
    slot = shared_schedule(d.spec, d.options,
                           sequential ? ScheduleMode::kSequential : ScheduleMode::kBatch, d.cut,
                           d.link_credits);
  }
  if (functional_ == nullptr) functional_ = shared_functional_model(d.spec);
  const CompiledSchedule& sched = *slot;

  // Leave the contexts in the same power-on state a cycle-level run starts
  // from, so mixing engines on one harness never sees stale sink data.
  reset();

  BatchResult r;
  r.start_cycle = 0;
  r.requested = images.size();
  r.engine = ExecutionMode::kCompiledSchedule;

  // Replay the schedule, applying the same cycle budget run_lockstep
  // enforces: in batch mode one budget spans the whole run; in sequential
  // mode each image gets its own budget starting one cycle after the
  // previous drain.
  std::uint64_t abort_cycle = 0;
  std::size_t completed = images.size();
  for (std::size_t i = 0; i < images.size(); ++i) {
    const std::uint64_t window_start = !sequential ? 0
                                       : i == 0    ? 0
                                                   : sched.completion_cycle(i - 1) + 1;
    if (sched.completion_cycle(i) - window_start >= max_cycles) {
      r.status = RunStatus::kTimeout;
      abort_cycle = window_start + max_cycles;
      completed = i;
      r.error = "run exceeded " + std::to_string(max_cycles) +
                " cycles (compiled schedule: image " + std::to_string(i) +
                " completes at cycle " + std::to_string(sched.completion_cycle(i)) + ")";
      break;
    }
  }

  for (std::size_t i = 0; i < images.size(); ++i) {
    if (!r.ok() && sched.inject_cycle(i) >= abort_cycle) break;
    r.inject_cycles.push_back(sched.inject_cycle(i));
  }
  for (std::size_t i = 0; i < completed; ++i) {
    r.completion_cycles.push_back(sched.completion_cycle(i));
  }
  r.outputs = functional_->infer_batch(std::span<const Tensor>(images).first(completed));
  r.end_cycle = r.ok() ? sched.completion_cycle(images.size() - 1) : abort_cycle;
  return r;
}

BatchResult Harness::run_batch(const std::vector<Tensor>& images, std::uint64_t max_cycles) {
  return run(images, max_cycles, /*sequential=*/false);
}

BatchResult Harness::run_sequential(const std::vector<Tensor>& images,
                                    std::uint64_t max_cycles) {
  return run(images, max_cycles, /*sequential=*/true);
}

std::vector<float> Harness::run_image(const Tensor& image) {
  const BatchResult r = run_batch({image});
  DFC_CHECK(r.ok(), std::string("run_image did not complete: ") + run_status_name(r.status));
  return r.outputs.front();
}

dfc::df::FifoBase* Harness::find_fifo(const std::string& name) {
  for (dfc::df::SimContext* ctx : contexts_) {
    if (dfc::df::FifoBase* f = ctx->find_fifo(name)) return f;
  }
  return nullptr;
}

std::string Harness::fifo_report() const {
  const DesignInstance& d = *design_;
  std::string report;
  for (std::size_t b = 0; b < contexts_.size(); ++b) {
    // The layer range of the board's compute cores (a cut is contiguous).
    std::vector<std::size_t> layers;
    for (const GraphNode& node : d.graph.nodes) {
      if (node.device == b && is_compute_core(node.kind)) layers.push_back(node.layer);
    }
    report += "device " + std::to_string(b);
    if (!layers.empty()) {
      report += " (layers " + std::to_string(layers.front()) + ".." +
                std::to_string(layers.back()) + ")";
    }
    report += ":\n" + contexts_[b]->fifo_report();
  }
  const std::uint64_t now = contexts_.front()->cycle();
  if (!d.wires.empty()) {
    report += "interlink channels (" + std::to_string(d.wires.size()) + " wires):\n";
  }
  auto fifo_line = [](const char* role, const dfc::df::FifoBase& f) {
    const dfc::df::FifoStats& st = f.lifetime_stats();
    return std::string("    ") + role + " " + f.name() + ": " + std::to_string(f.size()) +
           "/" + std::to_string(f.capacity()) + " (pushes=" + std::to_string(st.pushes) +
           " pops=" + std::to_string(st.pops) + " max=" + std::to_string(st.max_occupancy) +
           " full_stalls=" + std::to_string(st.full_stall_cycles) +
           " empty_stalls=" + std::to_string(st.empty_stall_cycles) + ")\n";
  };
  for (std::size_t i = 0; i < d.wires.size(); ++i) {
    const auto& w = *d.wires[i];
    report += "  wire " + w.name() + ": words=" + std::to_string(w.words_transferred()) +
              " credits=" + std::to_string(w.credits_available(now)) + "/" +
              std::to_string(w.model().effective_credits()) +
              " tx_credit_stalls=" + std::to_string(d.txs[i]->credit_stall_cycles()) +
              (w.idle(now) ? "" : " (in flight)") + "\n";
    // The boundary FIFOs either side of the wire, with the same stall columns
    // as the per-board tables: the Tx drains the upstream egress FIFO, the
    // Rx fills the downstream ingress FIFO.
    report += fifo_line("tx_fifo", d.txs[i]->input());
    report += fifo_line("rx_fifo", d.rxs[i]->output());
  }
  if (link_cycles_ > 0) {
    report += "interlink attribution (" + std::to_string(link_cycles_) + " cycles):\n";
    for (std::size_t i = 0; i < d.wires.size(); ++i) {
      const obs::LinkActivity& a = trackers_[i].counts();
      report += "  " + d.wires[i]->name() + ": wire_busy=" + std::to_string(a.wire_busy) +
                " credit_stall=" + std::to_string(a.credit_stall) +
                " rx_backpressure=" + std::to_string(a.rx_backpressure) +
                " idle=" + std::to_string(a.idle) + "\n";
    }
  }
  return report;
}

void Harness::observe(obs::TraceSink* trace) {
  for (dfc::df::SimContext* ctx : contexts_) ctx->set_stall_accounting(true);
  link_attr_ = true;
  if (trace == nullptr) return;
  DFC_REQUIRE(trace_ == nullptr, "observe: a trace sink is already attached");
  DFC_REQUIRE(trace->entities().empty(), "observe requires a fresh TraceSink");
  // Checked before any state changes, so a refused call leaves none behind.
  for (const dfc::df::SimContext* ctx : contexts_) {
    DFC_REQUIRE(ctx->trace() == nullptr, "observe: a board already records into another sink");
  }
  trace_ = trace;
  board_traces_.assign(contexts_.size(), obs::TraceSink(trace->capacity()));
  for (std::size_t b = 0; b < contexts_.size(); ++b) {
    contexts_[b]->attach_trace(&board_traces_[b]);
    board_trace_bases_.push_back(static_cast<std::uint32_t>(trace->entities().size()));
    for (const obs::TraceEntity& e : board_traces_[b].entities()) {
      trace->register_entity(e.name, e.kind, e.capacity);
    }
  }
  for (const auto& w : design_->wires) {
    link_ids_.push_back(trace->register_entity(w->name(), obs::EntityKind::kLink));
  }
}

void Harness::classify_links(std::uint64_t now) {
  const DesignInstance& d = *design_;
  for (std::size_t i = 0; i < d.wires.size(); ++i) {
    const InterLinkWire& wire = *d.wires[i];
    const InterLinkTx& tx = *d.txs[i];
    const InterLinkRx& rx = *d.rxs[i];
    const int credits = wire.credits_available(now);

    // Priority rx_backpressure > credit_stall > wire_busy: exactly one bucket
    // per cycle, so the per-link splits sum to link_observed_cycles().
    obs::LinkState s = obs::LinkState::kIdle;
    if (rx.backpressured(now)) {
      s = obs::LinkState::kRxBackpressure;
    } else if (tx.wants_send(now) && credits <= 0) {
      s = obs::LinkState::kCreditStall;
    } else if (tx.wants_send(now) || tx.serializing(now) || wire.has_data()) {
      s = obs::LinkState::kWireBusy;
    }
    const std::uint32_t id = link_ids_.empty() ? 0 : link_ids_[i];
    trackers_[i].tick(s, now, trace_, id);
    trackers_[i].credits(static_cast<std::uint32_t>(credits < 0 ? 0 : credits), now, trace_,
                         id);
  }
  ++link_cycles_;
}

void Harness::enable_integrity_guards(dfc::df::FaultListener* listener, float range_bound) {
  for (dfc::df::SimContext* ctx : contexts_) ctx->enable_integrity_guards(listener, range_bound);
}

void Harness::disable_integrity_guards() {
  for (dfc::df::SimContext* ctx : contexts_) ctx->disable_integrity_guards();
}

}  // namespace dfc::core
