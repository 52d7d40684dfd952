#include "report/profile.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "core/harness.hpp"
#include "dse/throughput_model.hpp"
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
// stage's real pace-setter.
std::vector<dfc::obs::StageSample> build_stage_samples(const dfc::dse::TimingEstimate& est,
                                                       const std::vector<CoreSample>& cores) {
  std::vector<dfc::obs::StageSample> stages;
  stages.reserve(est.stages.size());
  for (std::size_t s = 0; s < est.stages.size(); ++s) {
    dfc::obs::StageSample sample;
    sample.name = est.stages[s].name;
    sample.predicted_cycles = est.stages[s].cycles_per_image;
    for (const CoreSample& core : cores) {
      if (core.layer + 1 != s) continue;
      if (!sample.has_activity || core.activity.working > sample.activity.working) {
        sample.has_activity = true;
        sample.activity = core.activity;
        sample.observed_cycles = core.activity.total();
      }
    }
    stages.push_back(std::move(sample));
  }
  return stages;
}

// FIFO pressure evidence: the most-stalled channels, capped so the report
// stays readable. Deterministic order (stall total desc, then name).
std::vector<dfc::obs::FifoSample> build_fifo_samples(const dfc::core::DesignInstance& design) {
  std::vector<dfc::obs::FifoSample> fifos;
  for (const auto& ctx : design.contexts) {
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

DesignObservation read_observation(const dfc::core::DesignInstance& design) {
  DesignObservation observation;
  for (std::size_t n = 0; n < design.graph.nodes.size(); ++n) {
    const dfc::core::GraphNode& node = design.graph.nodes[n];
    if (!dfc::core::is_compute_core(node.kind)) continue;
    const dfc::df::Process& core = *design.processes[n];
    observation.cores.push_back({core.name(), node.layer, core_activity(node.kind, core)});
  }
  observation.fifos = build_fifo_samples(design);
  return observation;
}

std::string format_core_activity(const DesignObservation& observation) {
  std::vector<CoreSample> rows = observation.cores;
  std::sort(rows.begin(), rows.end(),
            [](const CoreSample& a, const CoreSample& b) { return a.name < b.name; });
  AsciiTable t({"core", "cycles", "working", "starved", "back-pressured", "idle"});
  for (const CoreSample& row : rows) {
    const std::uint64_t total = row.activity.total();
    const double denom = total > 0 ? static_cast<double>(total) : 1.0;
    t.add_row({row.name, std::to_string(total),
               fmt_percent(static_cast<double>(row.activity.working) / denom, 1),
               fmt_percent(static_cast<double>(row.activity.starved) / denom, 1),
               fmt_percent(static_cast<double>(row.activity.back_pressured) / denom, 1),
               fmt_percent(static_cast<double>(row.activity.idle) / denom, 1)});
  }
  return t.render();
}

dfc::mfpga::MultiFpgaAccelerator build_observed_design(const dfc::core::NetworkSpec& spec,
                                                       std::size_t devices,
                                                       const dfc::core::BuildOptions& options,
                                                       int link_credits) {
  DFC_REQUIRE(devices >= 1, "a design needs at least one board");
  std::vector<std::size_t> cut;
  if (devices > 1) {
    cut = dfc::mfpga::partition_network_exact(spec, devices, options.link, link_credits)
              .layer_device;
  }
  return dfc::mfpga::build_multi_fpga(spec, cut, options, link_credits);
}

obs::BottleneckReport profile_design(const dfc::core::NetworkSpec& spec,
                                     const ProfileOptions& options) {
  DFC_REQUIRE(options.batch > 0, "profile needs a positive batch");

  const dfc::dse::TimingEstimate est = dfc::dse::estimate_timing(spec);
  const std::vector<Tensor> images = random_images(spec, options.batch);

  obs::AnalyzeInput in;
  in.design = spec.name;
  in.batch = options.batch;
  in.predicted_interval = est.interval_cycles;

  dfc::core::BuildOptions build = options.build;
  build.link = dfc::core::link_model_for_gbps(options.link_gbps);
  const int cycles_per_word = build.link.cycles_per_word;
  dfc::mfpga::MultiFpgaHarness harness(
      build_observed_design(spec, options.devices, build, options.link_credits));
  harness.observe();
  const dfc::core::BatchResult result = harness.run_batch(images);
  DFC_REQUIRE(result.ok(), "profile run did not complete: " + result.error);

  const dfc::mfpga::MultiFpgaAccelerator& acc = harness.accelerator();
  in.devices = harness.device_count();
  // Boards get private DMA buses (source on the first, sink on the last), so
  // the shared-bus contention verdict only applies to the single-device case.
  in.shared_dma_bus = options.build.dma_shared_bus && in.devices == 1;
  in.observed_interval = result.steady_interval_cycles();

  DesignObservation observation = read_observation(acc);
  in.stages = build_stage_samples(est, observation.cores);
  in.fifos = std::move(observation.fifos);

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
