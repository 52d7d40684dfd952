#include "multifpga/exec.hpp"

#include "common/error.hpp"

namespace dfc::mfpga {

MultiFpgaAccelerator build_multi_fpga(const dfc::core::NetworkSpec& spec,
                                      const std::vector<std::size_t>& layer_device,
                                      const dfc::core::BuildOptions& options,
                                      int link_credits) {
  MultiFpgaAccelerator acc;
  dfc::core::build_design(acc, spec, options, layer_device, link_credits);
  return acc;
}

void merge_traces(const std::vector<const obs::TraceSink*>& sinks, obs::TraceSink& out) {
  DFC_REQUIRE(out.entities().empty() && out.events().empty(),
              "merge_traces needs a fresh output sink");
  std::vector<std::uint32_t> base;
  base.reserve(sinks.size());
  for (const obs::TraceSink* sink : sinks) {
    base.push_back(static_cast<std::uint32_t>(out.entities().size()));
    for (const obs::TraceEntity& e : sink->entities()) {
      out.register_entity(e.name, e.kind, e.capacity);
    }
  }
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    for (const obs::TraceEvent& ev : sinks[i]->events()) {
      out.record(ev.entity + base[i], ev.kind, ev.cycle, ev.value);
    }
  }
}

}  // namespace dfc::mfpga
