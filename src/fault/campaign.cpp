#include "fault/campaign.hpp"

#include <algorithm>
#include <sstream>

#include "axis/flit.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/builder.hpp"
#include "core/harness.hpp"
#include "dse/throughput_model.hpp"
#include "fault/injector.hpp"

namespace dfc::fault {

namespace {

// Fixed image seed: trial randomness covers sites/cycles/bits, not data —
// every trial must share the golden run's inputs.
constexpr std::uint64_t kImageSeed = 7;

std::vector<Tensor> campaign_images(const core::NetworkSpec& spec, std::size_t count) {
  Rng rng(kImageSeed);
  std::vector<Tensor> images;
  images.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Tensor t(spec.input_shape);
    for (float& v : t.flat()) v = rng.uniform(-1.0f, 1.0f);
    images.push_back(std::move(t));
  }
  return images;
}

/// A fresh harness over the design the campaign attacks.
core::Harness campaign_harness(const core::NetworkSpec& spec, const CampaignConfig& config) {
  auto design = std::make_unique<core::DesignInstance>();
  core::build_design(*design, spec, config.build, config.cut);
  return core::Harness(std::move(design));
}

FaultSpec draw_fault(Rng& rng, const std::vector<std::string>& sites,
                     std::uint64_t window_cycles) {
  FaultSpec spec;
  spec.kind = static_cast<FaultKind>(rng.next_below(4));
  spec.fifo = sites[rng.next_below(sites.size())];
  // Fire strictly inside the fault-free run so the injection always happens
  // before the unfaulted design would have finished.
  spec.cycle = 1 + rng.next_below(std::max<std::uint64_t>(1, window_cycles - 1));
  spec.bit = static_cast<std::uint32_t>(rng.next_below(axis::kFlitFaultBits));
  spec.jam_cycles = 8 + rng.next_below(2041);
  return spec;
}

}  // namespace

const char* trial_outcome_name(TrialOutcome outcome) {
  switch (outcome) {
    case TrialOutcome::kMasked: return "masked";
    case TrialOutcome::kDetectedRecovered: return "detected_recovered";
    case TrialOutcome::kSdc: return "sdc";
    case TrialOutcome::kHang: return "hang";
  }
  return "unknown";
}

std::uint64_t hang_budget_cycles(const core::NetworkSpec& spec, std::size_t batch,
                                 double factor) {
  const dse::TimingEstimate est = dse::estimate_timing(spec);
  std::int64_t fill = 0;
  for (const auto& stage : est.stages) fill += stage.cycles_per_image;
  const double budget =
      factor * (static_cast<double>(fill) +
                static_cast<double>(est.interval_cycles) * static_cast<double>(batch)) +
      10'000.0;
  return static_cast<std::uint64_t>(budget);
}

CampaignResult run_campaign(const core::NetworkSpec& spec, const CampaignConfig& config) {
  DFC_REQUIRE(config.trials > 0, "campaign needs at least one trial");
  DFC_REQUIRE(config.batch > 0, "campaign batch must be positive");

  CampaignResult result;
  result.design = spec.name;
  result.config = config;

  const std::vector<Tensor> images = campaign_images(spec, config.batch);

  // Golden reference: one fault-free run fixes the expected outputs, the
  // injection window and the list of injectable sites.
  std::vector<std::vector<float>> golden;
  {
    core::Harness harness = campaign_harness(spec, config);
    const core::BatchResult r = harness.run_batch(images);
    result.fault_free_cycles = r.total_cycles();
    golden = r.outputs;
    for (std::size_t b = 0; b < harness.device_count(); ++b) {
      const df::SimContext& ctx = harness.device_context(b);
      for (std::size_t i = 0; i < ctx.fifo_count(); ++i) {
        result.sites.push_back(ctx.fifo(i).name());
      }
    }
  }
  result.hang_budget = hang_budget_cycles(spec, config.batch, config.budget_factor);
  if (!config.cut.empty()) {
    // The analytic budget knows nothing about link traversal/serialization
    // fill time; anchor a partitioned design's budget to its measured
    // fault-free run so slow links cannot misclassify clean trials as hangs.
    result.hang_budget = std::max(
        result.hang_budget,
        static_cast<std::uint64_t>(config.budget_factor *
                                   static_cast<double>(result.fault_free_cycles)) +
            10'000);
  }

  result.trials.resize(config.trials);
  dfc::run_indexed(config.trials, config.threads, [&](std::size_t t) {
    TrialResult& tr = result.trials[t];
    tr.trial = t;
    Rng rng((config.seed << 20) ^ (t + 1));
    tr.fault = draw_fault(rng, result.sites, result.fault_free_cycles);

    core::Harness harness = campaign_harness(spec, config);
    core::DmaSink& sink = *harness.design().sink;

    // The injector hooks the board owning the target FIFO; the guards watch
    // every board, the stream guard the sink.
    FaultPlan plan;
    plan.fifo_faults.push_back(tr.fault);
    plan.integrity_guards = false;
    FaultInjector injector(std::move(plan));
    std::size_t owner = 0;
    while (harness.device_context(owner).find_fifo(tr.fault.fifo) == nullptr) ++owner;
    injector.attach(harness.device_context(owner));
    if (config.detection) {
      harness.enable_integrity_guards(&injector, injector.plan().range_bound);
      sink.set_stream_guard(true, injector.plan().range_bound);
    }

    bool aborted = false;
    std::vector<std::vector<float>> outputs;
    try {
      const core::BatchResult r = harness.run_batch(images, result.hang_budget);
      // Timeouts and deadlocks now come back as a classified partial result
      // (RunStatus) instead of an exception; total_cycles() of a partial run
      // is the cycles burnt up to the watchdog abort.
      tr.run_cycles = r.total_cycles();
      if (r.ok()) {
        outputs = r.outputs;
      } else {
        aborted = true;
      }
    } catch (const dfc::Error&) {
      // Stream-protocol assertions (integrity/framing guards tripping inside
      // the simulation) still abort by throwing.
      aborted = true;
      tr.run_cycles = harness.device_context(0).cycle();
    }

    tr.landed = injector.any_injection_landed();
    tr.detected = injector.any_detection() || sink.guard_framing_errors() > 0 ||
                  sink.guard_range_errors() > 0 || (config.detection && aborted);
    if (injector.any_detection()) {
      tr.detector = injector.detections().front().what;
    } else if (sink.guard_framing_errors() > 0) {
      tr.detector = "framing";
    } else if (sink.guard_range_errors() > 0) {
      tr.detector = "range";
    } else if (config.detection && aborted) {
      tr.detector = "watchdog";
    }

    if (aborted) {
      tr.outcome = config.detection ? TrialOutcome::kDetectedRecovered : TrialOutcome::kHang;
    } else if (outputs == golden) {
      tr.outcome = TrialOutcome::kMasked;
    } else {
      tr.outcome = tr.detected ? TrialOutcome::kDetectedRecovered : TrialOutcome::kSdc;
    }
    if (tr.outcome == TrialOutcome::kDetectedRecovered) {
      tr.recovery_latency_cycles = tr.run_cycles;
    }
  });

  for (const TrialResult& tr : result.trials) {
    switch (tr.outcome) {
      case TrialOutcome::kMasked: ++result.masked; break;
      case TrialOutcome::kDetectedRecovered: ++result.detected_recovered; break;
      case TrialOutcome::kSdc: ++result.sdc; break;
      case TrialOutcome::kHang: ++result.hang; break;
    }
  }
  return result;
}

double CampaignResult::sdc_rate() const {
  return trials.empty() ? 0.0 : static_cast<double>(sdc) / static_cast<double>(trials.size());
}

double CampaignResult::mean_recovery_latency_cycles() const {
  std::uint64_t sum = 0;
  std::size_t n = 0;
  for (const TrialResult& tr : trials) {
    if (tr.outcome == TrialOutcome::kDetectedRecovered) {
      sum += tr.recovery_latency_cycles;
      ++n;
    }
  }
  return n == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(n);
}

std::uint64_t CampaignResult::max_recovery_latency_cycles() const {
  std::uint64_t worst = 0;
  for (const TrialResult& tr : trials) {
    worst = std::max(worst, tr.recovery_latency_cycles);
  }
  return worst;
}

std::string CampaignResult::csv() const {
  CsvWriter csv({"trial", "kind", "fifo", "cycle", "bit", "jam_cycles", "landed", "detected",
                 "detector", "outcome", "run_cycles", "recovery_latency_cycles"});
  for (const TrialResult& tr : trials) {
    csv.row_values(tr.trial, fault_kind_name(tr.fault.kind), tr.fault.fifo, tr.fault.cycle,
                   tr.fault.bit, tr.fault.jam_cycles, tr.landed ? 1 : 0, tr.detected ? 1 : 0,
                   tr.detector, trial_outcome_name(tr.outcome), tr.run_cycles,
                   tr.recovery_latency_cycles);
  }
  return csv.str();
}

std::string CampaignResult::summary_table() const {
  const double n = static_cast<double>(trials.size());
  const auto rate = [n](std::size_t count) { return fmt_percent(static_cast<double>(count) / n); };
  AsciiTable table({"outcome", "trials", "rate"});
  table.add_row({"masked", std::to_string(masked), rate(masked)});
  table.add_row({"detected_recovered", std::to_string(detected_recovered),
                 rate(detected_recovered)});
  table.add_row({"sdc", std::to_string(sdc), rate(sdc)});
  table.add_row({"hang", std::to_string(hang), rate(hang)});

  std::ostringstream os;
  os << table.render();
  os << "fault-free batch: " << fault_free_cycles << " cycles over " << sites.size()
     << " injectable sites (hang budget " << hang_budget << " cycles)\n";
  os << "recovery latency: mean " << fmt_fixed(mean_recovery_latency_cycles(), 0)
     << " cycles, max " << max_recovery_latency_cycles() << " cycles\n";
  return os.str();
}

std::string CampaignResult::classification_line() const {
  std::ostringstream os;
  os << "classification: masked=" << masked << " detected_recovered=" << detected_recovered
     << " sdc=" << sdc << " hang=" << hang;
  return os.str();
}

}  // namespace dfc::fault
