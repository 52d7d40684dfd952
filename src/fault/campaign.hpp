// Seeded fault-injection campaigns: sweep sites × cycles, classify outcomes.
//
// A campaign measures how the compiled design behaves under the FaultPlan
// fault model: one golden (fault-free) run fixes the reference outputs and
// the injection window, then `trials` independent runs each inject a single
// randomly drawn fault and compare against the golden batch. Outcomes follow
// the standard SEU taxonomy:
//
//   masked              — outputs byte-identical to the golden run;
//   detected_recovered  — wrong outputs or an aborted run, but a detector
//                         (checksum, range, framing, watchdog) fired, so a
//                         retry recovers the correct result;
//   sdc                 — silent data corruption: wrong outputs, no detector;
//   hang                — the run blew its cycle budget with detection off.
//
// Trials are seeded from (seed, trial index) and run on the shared worker
// pool with results stored by index, so a campaign's CSV is byte-identical
// across machines and DFCNN_SWEEP_THREADS settings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/builder.hpp"
#include "core/network_spec.hpp"
#include "fault/fault_plan.hpp"

namespace dfc::fault {

enum class TrialOutcome : std::uint8_t {
  kMasked = 0,
  kDetectedRecovered = 1,
  kSdc = 2,
  kHang = 3,
};

const char* trial_outcome_name(TrialOutcome outcome);

struct CampaignConfig {
  std::size_t trials = 64;
  std::uint64_t seed = 1;
  std::size_t batch = 4;       ///< images streamed per trial
  bool detection = true;       ///< integrity guards + stream guard + watchdog
  std::size_t threads = 0;     ///< worker pool size (0 = auto)
  double budget_factor = 3.0;  ///< hang budget = factor × analytic fill+drain

  /// Design variant to attack.
  core::BuildOptions build{};
  /// Device per layer (empty = one board): a cut builds the partitioned
  /// design of mfpga::build_multi_fpga, whose every board's FIFOs — the
  /// link ingress FIFOs fpga<d>.L<i>.xfpga<p> included — are injectable
  /// sites, so the campaign covers link bit-flips/drops/jams with the same
  /// detectors.
  std::vector<std::size_t> cut;
};

struct TrialResult {
  std::size_t trial = 0;
  FaultSpec fault;
  bool landed = false;    ///< the fault actually mutated simulated state
  bool detected = false;  ///< any detector fired during the run
  std::string detector;   ///< "", "checksum", "range", "framing", "watchdog"
  TrialOutcome outcome = TrialOutcome::kMasked;
  std::uint64_t run_cycles = 0;
  /// Added latency of recover-by-retry: the retry is a fresh deterministic
  /// run costing exactly the fault-free cycles again, so the recovery cost
  /// is the cycles burnt on the faulty attempt before abort/mismatch.
  std::uint64_t recovery_latency_cycles = 0;
};

struct CampaignResult {
  std::string design;
  CampaignConfig config;
  std::uint64_t fault_free_cycles = 0;
  std::uint64_t hang_budget = 0;
  std::vector<std::string> sites;  ///< injectable FIFO names, board by board
  std::vector<TrialResult> trials;

  std::size_t masked = 0;
  std::size_t detected_recovered = 0;
  std::size_t sdc = 0;
  std::size_t hang = 0;

  double sdc_rate() const;
  /// Mean/max recovery latency over detected-recovered trials (0 when none).
  double mean_recovery_latency_cycles() const;
  std::uint64_t max_recovery_latency_cycles() const;

  std::string csv() const;
  std::string summary_table() const;
  /// Grep-friendly one-liner for CI assertions.
  std::string classification_line() const;
};

/// Cycle budget after which a faulted run is declared hung, derived from the
/// DSE throughput model (Eq. 4 pipeline interval): fill (sum of per-stage
/// cycles) plus batch × interval, scaled by `factor` plus fixed slack. The
/// fault-free run always fits; a wedged pipeline always trips it.
std::uint64_t hang_budget_cycles(const core::NetworkSpec& spec, std::size_t batch,
                                 double factor = 3.0);

CampaignResult run_campaign(const core::NetworkSpec& spec, const CampaignConfig& config);

}  // namespace dfc::fault
