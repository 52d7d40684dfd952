#include "report/profile.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/harness.hpp"
#include "dse/throughput_model.hpp"
#include "multifpga/exec.hpp"
#include "multifpga/partition.hpp"
#include "report/experiments.hpp"

namespace dfc::report {

namespace {

const dfc::obs::CoreActivity& core_activity(dfc::core::NodeKind kind,
                                           const dfc::df::Process& core) {
  switch (kind) {
    case dfc::core::NodeKind::kConv:
      return static_cast<const dfc::hls::ConvCore&>(core).activity();
    case dfc::core::NodeKind::kPool:
      return static_cast<const dfc::hls::PoolCore&>(core).activity();
    default:
      return static_cast<const dfc::hls::FcnCore&>(core).activity();
  }
}

// Maps Eq. 4 stages to measured cores: stage "L<i>.<kind>" (est.stages[i+1],
// after "dma-in") is every compute core of layer i. A pool layer fans out to
// several parallel cores; the slowest (most working cycles) one represents
// the stage — parallel units split the work, so the busiest port is the
// stage's real pace-setter. contexts[d] is device d's context.
std::vector<dfc::obs::StageSample> build_stage_samples(
    const dfc::dse::TimingEstimate& est, const dfc::core::DesignInstance& design,
    const std::vector<const dfc::df::SimContext*>& contexts) {
  std::vector<dfc::obs::StageSample> stages;
  stages.reserve(est.stages.size());
  for (std::size_t s = 0; s < est.stages.size(); ++s) {
    dfc::obs::StageSample sample;
    sample.name = est.stages[s].name;
    sample.predicted_cycles = est.stages[s].cycles_per_image;
    for (std::size_t n = 0; n < design.graph.nodes.size(); ++n) {
      const dfc::core::GraphNode& node = design.graph.nodes[n];
      if (!dfc::core::is_compute_core(node.kind) || node.layer + 1 != s) continue;
      const dfc::obs::CoreActivity& activity = core_activity(node.kind, *design.processes[n]);
      if (!sample.has_activity || activity.working > sample.activity.working) {
        sample.has_activity = true;
        sample.activity = activity;
        sample.observed_cycles = contexts[node.device]->observed_cycles();
      }
    }
    stages.push_back(std::move(sample));
  }
  return stages;
}

// FIFO pressure evidence: the most-stalled channels, capped so the report
// stays readable. Deterministic order (stall total desc, then name).
std::vector<dfc::obs::FifoSample> build_fifo_samples(
    const std::vector<const dfc::df::SimContext*>& contexts) {
  std::vector<dfc::obs::FifoSample> fifos;
  for (const dfc::df::SimContext* ctx : contexts) {
    for (std::size_t i = 0; i < ctx->fifo_count(); ++i) {
      const dfc::df::FifoBase& f = ctx->fifo(i);
      const auto& st = f.lifetime_stats();
      if (st.full_stall_cycles + st.empty_stall_cycles == 0) continue;
      fifos.push_back({f.name(), f.capacity(), st.max_occupancy, st.full_stall_cycles,
                       st.empty_stall_cycles});
    }
  }
  std::sort(fifos.begin(), fifos.end(),
            [](const dfc::obs::FifoSample& a, const dfc::obs::FifoSample& b) {
              const std::uint64_t sa = a.full_stall_cycles + a.empty_stall_cycles;
              const std::uint64_t sb = b.full_stall_cycles + b.empty_stall_cycles;
              if (sa != sb) return sa > sb;
              return a.name < b.name;
            });
  if (fifos.size() > 8) fifos.resize(8);
  return fifos;
}

}  // namespace

obs::BottleneckReport profile_design(const dfc::core::NetworkSpec& spec,
                                     const ProfileOptions& options) {
  DFC_REQUIRE(options.batch > 0, "profile needs a positive batch");
  DFC_REQUIRE(options.devices >= 1, "profile needs at least one device");
  DFC_REQUIRE(options.link_gbps > 0.0, "link_gbps must be positive");

  const dfc::dse::TimingEstimate est = dfc::dse::estimate_timing(spec);
  const std::vector<Tensor> images = random_images(spec, options.batch);

  obs::AnalyzeInput in;
  in.design = spec.name;
  in.batch = options.batch;
  in.predicted_interval = est.interval_cycles;

  // One path for any board count: every board under stall accounting, every
  // link attributed. One board keeps build_accelerator's unprefixed names.
  const int cycles_per_word = std::max(1, static_cast<int>(3.2 / options.link_gbps + 0.5));
  dfc::core::BuildOptions build = options.build;
  build.link = dfc::core::LinkModel{40, cycles_per_word};
  std::vector<std::size_t> cut;
  if (options.devices > 1) {
    cut = dfc::mfpga::partition_network_exact(spec, options.devices, build.link,
                                              options.link_credits)
              .layer_device;
  }
  dfc::mfpga::MultiFpgaHarness harness(
      dfc::mfpga::build_multi_fpga(spec, cut, build, options.link_credits));
  for (std::size_t d = 0; d < harness.device_count(); ++d) {
    harness.device_context(d).set_stall_accounting(true);
  }
  harness.set_link_attribution(true);
  const dfc::core::BatchResult result = harness.run_batch(images);
  DFC_REQUIRE(result.ok(), "profile run did not complete: " + result.error);

  const dfc::mfpga::MultiFpgaAccelerator& acc = harness.accelerator();
  in.devices = harness.device_count();
  // Boards get private DMA buses (source on the first, sink on the last), so
  // the shared-bus contention verdict only applies to the single-device case.
  in.shared_dma_bus = options.build.dma_shared_bus && in.devices == 1;
  in.observed_interval = result.steady_interval_cycles();

  std::vector<const dfc::df::SimContext*> contexts;
  for (const auto& ctx : acc.contexts) contexts.push_back(ctx.get());
  in.stages = build_stage_samples(est, acc, contexts);
  in.fifos = build_fifo_samples(contexts);

  const double gbps = 3.2 / cycles_per_word;
  for (std::size_t i = 0; i < acc.wires.size(); ++i) {
    obs::LinkSample ls;
    ls.name = acc.wires[i]->name();
    ls.gbps = gbps;
    ls.predicted_cycles = static_cast<std::int64_t>(
        acc.wires[i]->words_transferred() / options.batch * cycles_per_word);
    ls.activity = harness.link_activity(i);
    ls.observed_cycles = harness.link_observed_cycles();
    in.links.push_back(std::move(ls));
  }
  return obs::analyze_bottleneck(std::move(in));
}

}  // namespace dfc::report
