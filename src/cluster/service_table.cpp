#include "cluster/service_table.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"
#include "multifpga/exec.hpp"
#include "multifpga/partition.hpp"

namespace dfc::cluster {

namespace {

// Timing is data-independent, so any seeded content works; seed 7 keeps the
// measurement reproducible.
std::vector<Tensor> timing_images(const dfc::core::NetworkSpec& spec, std::size_t count) {
  Rng rng(7);
  std::vector<Tensor> images;
  images.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Tensor t(spec.input_shape);
    for (float& v : t.flat()) v = rng.uniform(-1.0f, 1.0f);
    images.push_back(std::move(t));
  }
  return images;
}

}  // namespace

std::unique_ptr<dfc::core::Harness> build_replica(const dfc::core::NetworkSpec& spec,
                                                  std::size_t boards,
                                                  const dfc::core::InterLinkModel& link,
                                                  const dfc::core::BuildOptions& options) {
  DFC_REQUIRE(boards > 0, "a replica spans at least one board");
  link.validate();
  // One path for any board count: a one-board "partition" is the whole net
  // on board 0, built and timed like any other cut.
  const mfpga::MultiFpgaPlan plan =
      mfpga::partition_network_exact(spec, boards, link.link, link.credits);
  dfc::core::BuildOptions opts = options;
  opts.link = link.link;
  return std::make_unique<mfpga::MultiFpgaHarness>(
      mfpga::build_multi_fpga(spec, plan.layer_device, opts, link.credits));
}

std::vector<std::uint64_t> measure_service_table(const dfc::core::NetworkSpec& spec,
                                                 std::size_t boards, std::size_t max_batch,
                                                 const dfc::core::InterLinkModel& link,
                                                 const dfc::core::BuildOptions& options) {
  DFC_REQUIRE(max_batch > 0, "service table needs a positive max batch size");
  const std::unique_ptr<dfc::core::Harness> harness = build_replica(spec, boards, link, options);
  std::vector<std::uint64_t> table(max_batch, 0);
  for (std::size_t n = 1; n <= max_batch; ++n) {
    const dfc::core::BatchResult res = harness->run_batch(timing_images(spec, n));
    if (!res.ok()) {
      throw SimError("service measurement of " + std::to_string(boards) +
                     "-board replica did not finish (batch size " + std::to_string(n) +
                     "): " + res.error);
    }
    table[n - 1] = res.total_cycles();
  }
  return table;
}

}  // namespace dfc::cluster
