#include "multifpga/exec.hpp"

namespace dfc::mfpga {

MultiFpgaAccelerator build_multi_fpga(const dfc::core::NetworkSpec& spec,
                                      const std::vector<std::size_t>& layer_device,
                                      const dfc::core::BuildOptions& options,
                                      int link_credits) {
  MultiFpgaAccelerator acc;
  dfc::core::build_design(acc, spec, options, layer_device, link_credits);
  return acc;
}

}  // namespace dfc::mfpga
