// Extension bench: pipeline balance as stall attribution.
//
// Runs a batch under cycle-exact observation and splits each compute core's
// cycles into working / starved / back-pressured / idle (obs/activity.hpp) —
// the quantitative version of the paper's "at steady state, all the
// different layers of the network will be concurrently active and
// computing" (Sec. IV-C). The split covers the whole batch, pipeline fill
// and drain included. Underutilized stages show where a DSE should *remove*
// parallelism, and the attribution says whether the bottleneck's neighbours
// are waiting on it (starved downstream, back-pressured upstream).
#include <cstdio>

#include "common/table.hpp"
#include "core/harness.hpp"
#include "core/presets.hpp"
#include "report/experiments.hpp"
#include "report/profile.hpp"

namespace {

void profile(const dfc::core::NetworkSpec& spec, std::size_t batch) {
  using namespace dfc;
  core::AcceleratorHarness harness(core::build_accelerator(spec));
  harness.observe();
  const auto result = harness.run_batch(report::random_images(spec, batch));
  const report::DesignObservation observation = report::read_observation(harness.accelerator());

  std::printf("%s, batch %zu (%llu cycles total)\n", spec.name.c_str(), batch,
              static_cast<unsigned long long>(result.total_cycles()));
  std::printf("%s", report::format_core_activity(observation).c_str());
  const report::CoreSample* busiest = &observation.cores.front();
  for (const report::CoreSample& core : observation.cores) {
    if (core.activity.working > busiest->activity.working) busiest = &core;
  }
  std::printf("  bottleneck core: %s at %s working\n\n", busiest->name.c_str(),
              fmt_percent(static_cast<double>(busiest->activity.working) /
                              static_cast<double>(busiest->activity.total()),
                          1)
                  .c_str());
}

}  // namespace

int main() {
  std::printf("=== Extension: pipeline balance and stall attribution ===\n\n");
  profile(dfc::core::make_usps_spec(), 32);
  profile(dfc::core::make_cifar_spec(), 16);
  std::printf(
      "Reading: every core is concurrently active (nonzero working share) — the\n"
      "high-level pipeline at work. Cores far below the bottleneck's working\n"
      "share are over-provisioned: candidates for narrower ports in a\n"
      "resource-driven redesign (cf. the DSE bench). Starved cores wait on an\n"
      "upstream stage, back-pressured ones on a downstream stage.\n");
  return 0;
}
