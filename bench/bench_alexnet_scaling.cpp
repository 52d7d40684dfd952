// Extension bench: a bigger, AlexNet-shaped network (paper Sec. VI future
// work: "test the proposed approach on bigger and more popular CNN models
// like AlexNet").
//
// Shows, for the alexnet-mini preset (64x64 RGB, 9 layers, ~41 MFLOP/image):
//  1. the Eq. 4 operator floor exceeds a single xc7vx485t — the methodology
//     cannot deploy it on the paper's board at all;
//  2. a contiguous multi-FPGA partition restores feasibility; the resulting
//     pipeline is input-bandwidth-bound, quantifying exactly why the paper
//     lists both multi-FPGA mapping and better off-chip bandwidth usage as
//     future work;
//  3. cycle-level simulation of the partitioned design, validated against
//     the golden model.
#include <cstdio>

#include "common/table.hpp"
#include "core/harness.hpp"
#include "core/presets.hpp"
#include "dse/throughput_model.hpp"
#include "hwmodel/cost_model.hpp"
#include "multifpga/exec.hpp"
#include "multifpga/partition.hpp"
#include "report/experiments.hpp"

int main() {
  using namespace dfc;
  std::printf("=== Extension: AlexNet-mini feasibility and multi-FPGA mapping ===\n\n");

  core::Preset preset = core::make_alexnet_mini_preset();
  const core::NetworkSpec spec = preset.compile_spec();
  std::printf("%s", spec.describe().c_str());
  std::printf("\n");

  // 1. Single-board feasibility.
  const auto virtex = hw::virtex7_485t();
  const auto est = hw::estimate_design(spec);
  std::printf("resource estimate: %s\n", est.total.str().c_str());
  std::printf("single %s: %s\n\n", virtex.name.c_str(),
              virtex.fits(est.total) ? "fits" : "does NOT fit (Eq. 4 operator floor)");

  // 2. Multi-FPGA partition (try 2..4 boards).
  const core::LinkModel link{40, 1};
  for (std::size_t boards = 2; boards <= 4; ++boards) {
    std::vector<hw::Device> devices(boards, virtex);
    try {
      const auto plan = mfpga::partition_network(spec, devices, link);
      std::printf("%zu boards: feasible, predicted interval %lld cycles (%0.f images/s)\n",
                  boards, static_cast<long long>(plan.timing.interval_cycles),
                  plan.timing.images_per_second());
      if (boards == plan.num_devices_used()) {
        std::printf("%s", plan.describe(spec).c_str());

        // 3. Simulate and validate.
        core::BuildOptions opts;
        opts.link = link;
        mfpga::MultiFpgaHarness harness(mfpga::build_multi_fpga(spec, plan.layer_device, opts));
        const auto images = report::random_images(spec, 6);
        const auto r = harness.run_batch(images);
        std::printf("simulated interval: %llu cycles (%.0f images/s, %.1f GFLOPS)\n",
                    static_cast<unsigned long long>(r.steady_interval_cycles()),
                    100e6 / static_cast<double>(r.steady_interval_cycles()),
                    static_cast<double>(spec.flops_per_image()) * 100e6 /
                        static_cast<double>(r.steady_interval_cycles()) / 1e9);

        const Tensor sw = preset.net.infer(images[0]);
        double worst = 0.0;
        for (std::int64_t j = 0; j < sw.size(); ++j) {
          worst = std::max(worst, static_cast<double>(std::abs(
                                      r.outputs[0][static_cast<std::size_t>(j)] - sw[j])));
        }
        std::printf("golden-model max deviation: %.2e\n", worst);

        const auto timing = dse::estimate_timing(spec);
        std::int64_t fabric_max = 0;
        std::string fabric_name;
        for (const auto& st : timing.stages) {
          if (st.name.rfind("dma", 0) == 0) continue;
          if (st.cycles_per_image > fabric_max) {
            fabric_max = st.cycles_per_image;
            fabric_name = st.name;
          }
        }
        std::printf(
            "bottleneck analysis: DMA ingest needs %lld cycles/image vs %lld for the\n"
            "slowest fabric stage (%s) -> the partitioned design is input-bandwidth\n"
            "bound, which is precisely the paper's other future-work axis.\n",
            static_cast<long long>(spec.input_shape.volume()),
            static_cast<long long>(fabric_max), fabric_name.c_str());
        break;
      }
    } catch (const ConfigError&) {
      std::printf("%zu boards: infeasible (some single layer exceeds one device)\n", boards);
    }
  }
  return 0;
}
