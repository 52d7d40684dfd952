// Example: design reporting — block diagrams (paper Figs. 4/5), Graphviz
// export with simulated FIFO pressure on the edges, resource utilization
// (paper Table I) and the analytic timing breakdown for any compiled network.
#include <cstdio>
#include <fstream>

#include "core/block_design.hpp"
#include "core/harness.hpp"
#include "core/presets.hpp"
#include "dse/throughput_model.hpp"
#include "hwmodel/cost_model.hpp"
#include "hwmodel/power.hpp"
#include "report/experiments.hpp"

namespace {

void report(const dfc::core::NetworkSpec& spec) {
  using namespace dfc;
  std::printf("%s\n", core::block_design_ascii(spec).c_str());

  const hw::Device dev = hw::virtex7_485t();
  std::printf("%s\n", hw::utilization_row(spec, dev).c_str());

  const auto timing = dse::estimate_timing(spec);
  std::printf("stage timing (cycles/image):\n");
  for (std::size_t i = 0; i < timing.stages.size(); ++i) {
    std::printf("  %-10s %8lld%s\n", timing.stages[i].name.c_str(),
                static_cast<long long>(timing.stages[i].cycles_per_image),
                static_cast<std::int64_t>(i) == timing.bottleneck_stage
                    ? "  <- pipeline bottleneck"
                    : "");
  }
  const hw::PowerModel power;
  std::printf("throughput: %.0f images/s @100 MHz, est. power %.1f W\n\n",
              timing.images_per_second(),
              power.estimate_watts(hw::estimate_design(spec).total));

  // Simulate a short batch under observation, so the exported graph colours
  // each stage boundary by its observed pressure (back-pressure vs
  // starvation) instead of showing bare topology.
  core::AcceleratorHarness harness(core::build_accelerator(spec));
  harness.observe();
  harness.run_batch(report::random_images(spec, 8));

  const std::string dot_path = spec.name + ".dot";
  std::ofstream dot(dot_path);
  dot << core::block_design_dot(spec, harness.accelerator());
  std::printf("Graphviz file written to %s (render: dot -Tpng %s -o %s.png)\n\n",
              dot_path.c_str(), dot_path.c_str(), spec.name.c_str());
}

}  // namespace

int main() {
  report(dfc::core::make_usps_spec());
  report(dfc::core::make_cifar_spec());
  return 0;
}
