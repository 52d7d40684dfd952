#include "multifpga/partition.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "core/interlink.hpp"

namespace dfc::mfpga {

using dfc::core::LayerSpec;
using dfc::core::LinkModel;
using dfc::core::NetworkSpec;

std::vector<dfc::hw::ResourceUsage> usage_per_device(
    const NetworkSpec& spec, const std::vector<std::size_t>& layer_device,
    std::size_t num_devices, const dfc::hw::CostModel& cost) {
  DFC_REQUIRE(layer_device.size() == spec.layers.size(),
              "layer_device must cover every layer");
  std::vector<dfc::hw::ResourceUsage> usage(num_devices);
  std::vector<bool> hosts_layer(num_devices, false);
  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    const std::size_t d = layer_device[i];
    DFC_REQUIRE(d < num_devices, "layer mapped to unknown device");
    usage[d] += dfc::hw::estimate_layer(spec.layers[i], cost);
    hosts_layer[d] = true;
  }
  for (std::size_t d = 0; d < num_devices; ++d) {
    usage[d].lut *= cost.lut_calibration;
    usage[d].ff *= cost.ff_calibration;
    if (hosts_layer[d]) usage[d] += cost.base_design;
  }
  return usage;
}

dse::TimingEstimate estimate_multi_timing(const NetworkSpec& spec,
                                          const std::vector<std::size_t>& layer_device,
                                          const LinkModel& link, int credits) {
  DFC_REQUIRE(layer_device.size() == spec.layers.size(),
              "layer_device must cover every layer");
  dse::TimingEstimate est = dse::estimate_timing(spec);

  const std::int64_t cycles_per_word =
      dfc::core::InterLinkModel{link, credits}.effective_cycles_per_word();

  // Insert a link stage for every device boundary: the crossing carries the
  // producing layer's full output volume per image, split over its ports.
  Shape3 shape = spec.input_shape;
  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    shape = dfc::core::layer_out_shape(spec.layers[i]);
    if (i + 1 < spec.layers.size() && layer_device[i + 1] != layer_device[i]) {
      const int ports = dfc::core::layer_out_ports(spec.layers[i]);
      dse::StageTiming st;
      st.name = "link" + std::to_string(i) + "->" + std::to_string(i + 1);
      st.cycles_per_image = dfc::ceil_div(shape.volume(), ports) * cycles_per_word;
      est.stages.push_back(st);
    }
  }
  est.interval_cycles = 0;
  for (std::size_t i = 0; i < est.stages.size(); ++i) {
    if (est.stages[i].cycles_per_image > est.interval_cycles) {
      est.interval_cycles = est.stages[i].cycles_per_image;
      est.bottleneck_stage = static_cast<std::int64_t>(i);
    }
  }
  return est;
}

MultiFpgaPlan partition_network(const NetworkSpec& spec,
                                const std::vector<dfc::hw::Device>& devices,
                                const LinkModel& link, const dfc::hw::CostModel& cost) {
  spec.validate();
  link.validate();
  const std::size_t layers = spec.layers.size();
  const std::size_t k = devices.size();
  DFC_REQUIRE(k >= 1, "need at least one device");

  // Enumerate contiguous assignments: cut positions are increasing indices;
  // devices are used in order (a pipeline flows forward across boards).
  // Represent as the first layer index of each segment s (segment s may be
  // empty, meaning the device is skipped).
  MultiFpgaPlan best;
  bool have_best = false;

  std::vector<std::size_t> cuts(k + 1, 0);
  cuts[k] = layers;

  // Recursive enumeration of monotone cut vectors.
  auto evaluate = [&](const std::vector<std::size_t>& cut) {
    std::vector<std::size_t> layer_device(layers);
    for (std::size_t d = 0; d < k; ++d) {
      for (std::size_t i = cut[d]; i < cut[d + 1]; ++i) layer_device[i] = d;
    }
    MultiFpgaPlan plan;
    plan.layer_device = layer_device;
    plan.device_usage = usage_per_device(spec, layer_device, k, cost);
    plan.device_fits.resize(k);
    plan.fits = true;
    for (std::size_t d = 0; d < k; ++d) {
      plan.device_fits[d] = devices[d].fits(plan.device_usage[d]);
      plan.fits = plan.fits && plan.device_fits[d];
    }
    if (!plan.fits) return;
    plan.timing = estimate_multi_timing(spec, layer_device, link);
    // Deterministic total order: best interval, then fewest devices, then
    // the lexicographically smallest assignment — so equal-quality plans
    // resolve identically no matter how the cut space is enumerated.
    const bool better =
        !have_best || plan.timing.interval_cycles < best.timing.interval_cycles ||
        (plan.timing.interval_cycles == best.timing.interval_cycles &&
         (plan.num_devices_used() < best.num_devices_used() ||
          (plan.num_devices_used() == best.num_devices_used() &&
           plan.layer_device < best.layer_device)));
    if (better) {
      best = std::move(plan);
      have_best = true;
    }
  };

  // Iterative odometer over cut[1..k-1] with cut monotone non-decreasing.
  std::vector<std::size_t> cut(k + 1, 0);
  cut[k] = layers;
  while (true) {
    bool monotone = true;
    for (std::size_t d = 1; d < k; ++d) monotone &= (cut[d] >= cut[d - 1]);
    if (monotone) evaluate(cut);
    // Advance odometer.
    std::size_t d = k - 1;
    while (d >= 1) {
      if (++cut[d] <= layers) break;
      cut[d] = 0;
      --d;
    }
    if (d == 0) break;
    if (k == 1) break;
  }
  if (k == 1) {
    std::vector<std::size_t> single(k + 1, 0);
    single[k] = layers;
    evaluate(single);
  }

  DFC_REQUIRE(have_best,
              "no contiguous partition of '" + spec.name + "' fits the given devices");
  return best;
}

MultiFpgaPlan partition_network_exact(const NetworkSpec& spec, std::size_t num_devices,
                                      const LinkModel& link, int credits,
                                      const dfc::hw::CostModel& cost) {
  spec.validate();
  link.validate();
  const std::size_t layers = spec.layers.size();
  DFC_REQUIRE(num_devices >= 1, "need at least one device");
  DFC_REQUIRE(num_devices <= layers,
              "cannot split " + std::to_string(layers) + " layer(s) of '" + spec.name +
                  "' across " + std::to_string(num_devices) + " devices");

  MultiFpgaPlan best;
  bool have_best = false;

  const auto evaluate = [&](const std::vector<std::size_t>& layer_device) {
    MultiFpgaPlan plan;
    plan.layer_device = layer_device;
    plan.device_usage = usage_per_device(spec, layer_device, num_devices, cost);
    plan.device_fits.assign(num_devices, true);  // fit is not a constraint here
    plan.fits = true;
    plan.timing = estimate_multi_timing(spec, layer_device, link, credits);
    const bool better =
        !have_best || plan.timing.interval_cycles < best.timing.interval_cycles ||
        (plan.timing.interval_cycles == best.timing.interval_cycles &&
         plan.layer_device < best.layer_device);
    if (better) {
      best = std::move(plan);
      have_best = true;
    }
  };

  // Strictly increasing interior cuts: cut[d] is the first layer of device
  // d+1, so every device hosts at least one layer.
  std::vector<std::size_t> cut(num_devices - 1);
  for (std::size_t d = 0; d + 1 < num_devices; ++d) cut[d] = d + 1;
  while (true) {
    std::vector<std::size_t> layer_device(layers, 0);
    std::size_t dev = 0;
    for (std::size_t i = 0; i < layers; ++i) {
      while (dev < cut.size() && i >= cut[dev]) ++dev;
      layer_device[i] = dev;
    }
    evaluate(layer_device);

    // Next strictly-increasing combination of interior cuts in 1..layers-1.
    std::size_t d = cut.size();
    while (d > 0) {
      --d;
      if (++cut[d] <= layers - (cut.size() - d)) {
        for (std::size_t e = d + 1; e < cut.size(); ++e) cut[e] = cut[e - 1] + 1;
        break;
      }
      if (d == 0) {
        DFC_CHECK(have_best, "partition_network_exact found no assignment");
        return best;
      }
    }
    if (cut.empty()) break;
  }
  DFC_CHECK(have_best, "partition_network_exact found no assignment");
  return best;
}

std::string MultiFpgaPlan::describe(const NetworkSpec& spec) const {
  std::ostringstream os;
  os << "multi-FPGA plan for '" << spec.name << "' (" << num_devices_used()
     << " device(s)):\n";
  for (std::size_t i = 0; i < layer_device.size(); ++i) {
    os << "  device " << layer_device[i] << " <- ["
       << i << "] " << dfc::core::layer_describe(spec.layers[i]) << "\n";
  }
  for (std::size_t d = 0; d < device_usage.size(); ++d) {
    os << "  device " << d << " usage: " << device_usage[d].str()
       << (device_fits[d] ? " (fits)" : " (DOES NOT FIT)") << "\n";
  }
  os << "  predicted interval: " << timing.interval_cycles << " cycles/image\n";
  return os.str();
}

}  // namespace dfc::mfpga
