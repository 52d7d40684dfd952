// Observation of a design of any board count: the one reader of per-core
// activity and FIFO pressure after a run armed with core::Harness::observe(),
// its table, and profile assembly — the Eq. 4 prediction, core splits, FIFO
// pressure and link splits collected into an obs::AnalyzeInput for the
// bottleneck analyzer. This is the engine behind `dfcnn profile` and
// `dfcnn trace`.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/builder.hpp"
#include "multifpga/exec.hpp"
#include "obs/activity.hpp"
#include "obs/analyze.hpp"

namespace dfc::report {

/// One compute core's observed cycles, split into working / starved /
/// back-pressured / idle (obs/activity.hpp).
struct CoreSample {
  std::string name;
  std::size_t layer = 0;
  obs::CoreActivity activity;
};

/// What an observed run left on a design: every compute core in graph order
/// (each core's buckets sum to its board's observed cycles), and the most
/// stalled FIFOs of every board (at most 8; stall total descending, then
/// name).
struct DesignObservation {
  std::vector<CoreSample> cores;
  std::vector<obs::FifoSample> fifos;
};

/// Reads the observation off `design`'s graph. Valid after a run of a
/// harness armed with observe(); on an unobserved design every split is 0.
DesignObservation read_observation(const dfc::core::DesignInstance& design);

/// ASCII table of every core's split as percentages of its observed cycles,
/// rows sorted by name: a starved core points the finger upstream, a
/// back-pressured one downstream.
std::string format_core_activity(const DesignObservation& observation);

/// `spec` as `dfcnn profile` and `dfcnn trace` observe it on `devices`
/// boards: one board keeps build_accelerator's unprefixed names; more boards
/// take the exact cut (mfpga::partition_network_exact) over `options.link`.
dfc::mfpga::MultiFpgaAccelerator build_observed_design(const dfc::core::NetworkSpec& spec,
                                                       std::size_t devices,
                                                       const dfc::core::BuildOptions& options,
                                                       int link_credits = 0);

struct ProfileOptions {
  std::size_t devices = 1;
  std::size_t batch = 16;
  /// Inter-device line rate; 3.2 Gbps = one 32-bit word per 100 MHz cycle.
  double link_gbps = 3.2;
  int link_credits = 0;  ///< 0 = auto-sized window
  /// Build options for the design (shared DMA bus on by default, as in the
  /// paper reproduction). `build.link` is overridden from link_gbps for
  /// multi-device runs.
  dfc::core::BuildOptions build{};
};

/// Runs `spec` under observation and explains what limits its initiation
/// interval. Deterministic: same spec + options give a byte-identical report
/// on any machine and DFCNN_SWEEP_THREADS setting.
obs::BottleneckReport profile_design(const dfc::core::NetworkSpec& spec,
                                     const ProfileOptions& options = {});

}  // namespace dfc::report
