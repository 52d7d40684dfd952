// Block-design export of a network (reproduces Figs. 4 and 5).
//
// Each block reports, as in the paper's figures, the window size, the number
// of input and output channels, the number of windows taken as input
// (= input ports), and the port counts; the ASCII rendering goes to the
// bench output and the DOT form can be rendered with Graphviz.
#pragma once

#include <string>

#include "core/builder.hpp"
#include "core/network_spec.hpp"

namespace dfc::core {

/// Multi-line ASCII block diagram of the dataflow design.
std::string block_design_ascii(const NetworkSpec& spec);

/// Graphviz DOT description of the dataflow design.
std::string block_design_dot(const NetworkSpec& spec);

/// DOT description annotated with simulated FIFO pressure. Each inter-stage
/// edge carries the channel capacity and, once `design` has seen traffic,
/// the max occupancy plus full/empty stall cycles summed over the parallel
/// port FIFOs of that boundary — the outputs of the graph nodes producing it
/// (lifetime stats, so resets between measurements do not erase them).
/// Edges are coloured by the dominant stall direction: red = back-pressure
/// (full stalls), blue = starvation (empty stalls, counted only while stall
/// accounting or tracing was enabled), green = traffic with no stalls.
/// `design` must be built from `spec`.
std::string block_design_dot(const NetworkSpec& spec, const DesignInstance& design);

}  // namespace dfc::core
