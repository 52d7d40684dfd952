// Multi-FPGA partitioning of a network design (paper future work, Sec. IV-C
// and VI: "investigate scalability by implementing bigger networks on a
// multi-FPGA system").
//
// A partition assigns each layer to one device; consecutive layers on
// different devices communicate through credit-based interlinks
// (core/interlink.hpp, built by mfpga::build_multi_fpga). The
// partitioner enumerates contiguous splits (layers never migrate backwards —
// the design is a pipeline), prices each segment with the hwmodel estimator,
// includes one base design (MicroBlaze/DMA shell) per device, and picks the
// split that fits all devices with the best predicted throughput (link
// bandwidth included).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/interlink.hpp"
#include "core/network_spec.hpp"
#include "dse/throughput_model.hpp"
#include "hwmodel/cost_model.hpp"

namespace dfc::mfpga {

struct MultiFpgaPlan {
  std::vector<std::size_t> layer_device;               ///< device per layer
  std::vector<dfc::hw::ResourceUsage> device_usage;    ///< calibrated, incl. base
  std::vector<bool> device_fits;
  dse::TimingEstimate timing;  ///< with link stages inserted
  bool fits = false;

  std::size_t num_devices_used() const {
    return layer_device.empty()
               ? 0
               : *std::max_element(layer_device.begin(), layer_device.end()) + 1;
  }
  std::string describe(const dfc::core::NetworkSpec& spec) const;
};

/// Resource usage of each device under a given assignment (calibrated,
/// including one base design per device that hosts at least one layer).
std::vector<dfc::hw::ResourceUsage> usage_per_device(
    const dfc::core::NetworkSpec& spec, const std::vector<std::size_t>& layer_device,
    std::size_t num_devices, const dfc::hw::CostModel& cost = {});

/// Timing estimate with inter-FPGA link stages for boundary crossings, each
/// sustaining one word per InterLinkModel{link, credits}'s effective cycles
/// per word (the credit law; credits = 0 is the auto-sized window).
dse::TimingEstimate estimate_multi_timing(const dfc::core::NetworkSpec& spec,
                                          const std::vector<std::size_t>& layer_device,
                                          const dfc::core::LinkModel& link,
                                          int credits = 0);

/// Finds the best contiguous partition of `spec` over `devices` (in pipeline
/// order). Throws ConfigError if no contiguous split fits. Ties (equal
/// predicted interval and device count) break on the lexicographically
/// smallest layer_device vector, so results are deterministic and
/// independent of enumeration order.
MultiFpgaPlan partition_network(const dfc::core::NetworkSpec& spec,
                                const std::vector<dfc::hw::Device>& devices,
                                const dfc::core::LinkModel& link = {},
                                const dfc::hw::CostModel& cost = {});

/// Best contiguous partition using *exactly* `num_devices` devices, each
/// hosting at least one layer, ignoring resource fit (for scaling studies
/// and tests that force a device count regardless of utilisation). Same
/// objective and deterministic tie-breaking as partition_network. Throws
/// ConfigError when num_devices exceeds the layer count.
MultiFpgaPlan partition_network_exact(const dfc::core::NetworkSpec& spec,
                                      std::size_t num_devices,
                                      const dfc::core::LinkModel& link = {},
                                      int credits = 0,
                                      const dfc::hw::CostModel& cost = {});

}  // namespace dfc::mfpga
