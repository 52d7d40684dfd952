// Automated design-space exploration over per-layer port counts.
//
// The paper chooses port counts empirically ("we did not perform any DSE...
// Future work will address the automation of the DSE"). This module
// implements that future work: it enumerates the per-convolution-layer
// (IN_PORTS, OUT_PORTS) assignments that satisfy the interleave divisibility
// rules and the adapter constraints, prices each candidate with the hwmodel
// resource estimator, and selects the highest-throughput design that fits
// the device (ties broken by fewer resources).
//
// Exhaustive enumeration is exponential in the number of conv layers with
// many divisors, so a beam search bounds the frontier; for the paper-scale
// networks the exhaustive path is exact and fast.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/compile.hpp"
#include "core/network_spec.hpp"
#include "dse/throughput_model.hpp"
#include "hwmodel/cost_model.hpp"
#include "nn/sequential.hpp"

namespace dfc::dse {

struct DseOptions {
  dfc::hw::Device device = dfc::hw::virtex7_485t();
  dfc::hw::CostModel cost_model{};
  /// Keep at most this many partial candidates per layer during the search;
  /// 0 means exhaustive.
  std::size_t beam_width = 0;
  /// Cap on ports per interface (fully parallel designs can explode).
  int max_ports = 64;
};

struct DseCandidate {
  dfc::core::PortPlan plan;
  dfc::core::NetworkSpec spec;
  TimingEstimate timing;
  dfc::hw::ResourceUsage resources;
  bool fits = false;
};

struct DseResult {
  DseCandidate best;
  std::size_t candidates_evaluated = 0;
  std::size_t candidates_fitting = 0;
  /// Candidates compile() rejected: its validate() applies every spec rule
  /// (DF1xx), so illegal plans are dropped before they are priced.
  std::size_t candidates_rejected = 0;
  /// The full Pareto frontier (throughput vs DSP usage) among fitting designs.
  std::vector<DseCandidate> pareto;
};

/// Explores port plans for `net` and returns the best fitting design.
/// Throws ConfigError if no candidate fits the device.
DseResult explore(const nn::Sequential& net, const Shape3& input_shape,
                  const DseOptions& options = {});

}  // namespace dfc::dse
