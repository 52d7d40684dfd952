#include "core/block_design.hpp"

#include <sstream>

namespace dfc::core {

namespace {

struct BlockInfo {
  std::string title;
  std::vector<std::string> lines;
};

BlockInfo block_info(const LayerSpec& layer, const Shape3& in_shape) {
  BlockInfo b;
  if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) {
    b.title = "Convolution";
    b.lines.push_back("window " + std::to_string(conv->kh) + "x" + std::to_string(conv->kw));
    b.lines.push_back("channels " + std::to_string(in_shape.c) + " in / " +
                      std::to_string(conv->out_fm) + " out");
    b.lines.push_back("windows in: " + std::to_string(conv->in_ports));
    b.lines.push_back("ports " + std::to_string(conv->in_ports) + "/" +
                      std::to_string(conv->out_ports) + "  II=" +
                      std::to_string(conv->initiation_interval()));
  } else if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) {
    b.title = std::string(dfc::hls::pool_mode_name(pool->mode)) + "-pool";
    b.lines.push_back("window " + std::to_string(pool->kh) + "x" + std::to_string(pool->kw) +
                      ", stride " + std::to_string(pool->stride));
    b.lines.push_back("channels " + std::to_string(in_shape.c));
    b.lines.push_back("parallel cores: " + std::to_string(pool->ports));
  } else {
    const auto& fcn = std::get<FcnLayerSpec>(layer);
    b.title = "Fully-connected";
    b.lines.push_back("window 1x1");
    b.lines.push_back("channels " + std::to_string(fcn.in_count) + " in / " +
                      std::to_string(fcn.out_count) + " out");
    b.lines.push_back("single in/out port");
  }
  return b;
}

// Aggregate pressure of the parallel port FIFOs crossing one stage boundary:
// every FIFO produced by the nodes feeding layer `layer` — the DMA source
// for the first layer, otherwise the compute cores of the layer before
// (layer == spec.layers.size() is the boundary into the DMA sink).
struct EdgePressure {
  std::size_t capacity = 0;  ///< per-channel capacity (max across ports)
  std::size_t max_occupancy = 0;
  std::uint64_t pushes = 0;
  std::uint64_t full_stalls = 0;
  std::uint64_t empty_stalls = 0;
};

EdgePressure edge_pressure(const DesignInstance& design, std::size_t layer) {
  EdgePressure e;
  for (const GraphNode& node : design.graph.nodes) {
    const bool feeds = layer == 0 ? node.kind == NodeKind::kDmaSource
                                  : is_compute_core(node.kind) && node.layer + 1 == layer;
    if (!feeds) continue;
    for (int c : node.outputs) {
      const dfc::df::FifoBase& f = *design.fifos[static_cast<std::size_t>(c)];
      const dfc::df::FifoStats& s = f.lifetime_stats();
      e.capacity = std::max(e.capacity, f.capacity());
      e.max_occupancy = std::max(e.max_occupancy, s.max_occupancy);
      e.pushes += s.pushes;
      e.full_stalls += s.full_stall_cycles;
      e.empty_stalls += s.empty_stall_cycles;
    }
  }
  return e;
}

// DOT attribute list for one annotated edge. Before any traffic only the
// capacity is shown; afterwards the label gains occupancy and stall counts
// and the edge takes the colour of whichever stall direction dominates.
std::string pressure_attrs(const EdgePressure& e, int channels) {
  std::ostringstream os;
  os << "label=\"" << channels << " ch\\ncap " << e.capacity;
  if (e.pushes > 0) {
    os << "\\nmax occ " << e.max_occupancy << "/" << e.capacity << "\\nfull "
       << e.full_stalls << " / empty " << e.empty_stalls;
  }
  os << "\"";
  if (e.pushes > 0) {
    if (e.full_stalls > 0 && e.full_stalls >= e.empty_stalls) {
      os << ", color=\"#c0392b\", fontcolor=\"#c0392b\", penwidth=2.0";
    } else if (e.empty_stalls > 0) {
      os << ", color=\"#2980b9\", fontcolor=\"#2980b9\"";
    } else {
      os << ", color=\"#27ae60\"";
    }
  }
  return os.str();
}

std::string box(const BlockInfo& b) {
  std::size_t width = b.title.size();
  for (const auto& l : b.lines) width = std::max(width, l.size());
  width += 2;
  std::ostringstream os;
  os << "  +" << std::string(width, '-') << "+\n";
  os << "  | " << b.title << std::string(width - b.title.size() - 1, ' ') << "|\n";
  os << "  +" << std::string(width, '-') << "+\n";
  for (const auto& l : b.lines) {
    os << "  | " << l << std::string(width - l.size() - 1, ' ') << "|\n";
  }
  os << "  +" << std::string(width, '-') << "+\n";
  return os.str();
}

}  // namespace

std::string block_design_ascii(const NetworkSpec& spec) {
  std::ostringstream os;
  os << "Block design: " << spec.name << "  (input " << spec.input_shape.str() << ")\n\n";
  os << "  [DMA source: 1x 32-bit stream @ 400 MB/s]\n";
  Shape3 shape = spec.input_shape;
  for (const LayerSpec& layer : spec.layers) {
    const int in_p = layer_in_ports(layer);
    os << "        |  x" << in_p << (in_p > 1 ? " parallel streams\n" : "\n");
    os << "        v\n";
    os << box(block_info(layer, shape));
    shape = layer_out_shape(layer);
  }
  os << "        |\n        v\n  [DMA sink: " << shape.volume() << " class scores]\n";
  return os.str();
}

namespace {

// Shared body of the plain and pressure-annotated DOT exports.
std::string block_design_dot_impl(const NetworkSpec& spec, const DesignInstance* design) {
  std::ostringstream os;
  os << "digraph \"" << spec.name << "\" {\n";
  os << "  rankdir=TB;\n  node [shape=record, fontname=\"Helvetica\"];\n";
  os << "  dma_in [label=\"DMA source|32-bit stream\\n400 MB/s\"];\n";
  Shape3 shape = spec.input_shape;
  std::string prev = "dma_in";
  int prev_ports = 1;
  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    const LayerSpec& layer = spec.layers[i];
    const BlockInfo b = block_info(layer, shape);
    const std::string id = "l" + std::to_string(i);
    os << "  " << id << " [label=\"" << b.title;
    for (const auto& l : b.lines) os << "|" << l;
    os << "\"];\n";
    const int in_p = layer_in_ports(layer);
    const int channels = std::max(prev_ports, in_p);
    if (design != nullptr) {
      os << "  " << prev << " -> " << id << " ["
         << pressure_attrs(edge_pressure(*design, i), channels) << "];\n";
    } else {
      os << "  " << prev << " -> " << id << " [label=\"" << channels << " ch\"];\n";
    }
    prev = id;
    prev_ports = layer_out_ports(layer);
    shape = layer_out_shape(layer);
  }
  os << "  dma_out [label=\"DMA sink|" << shape.volume() << " class scores\"];\n";
  if (design != nullptr) {
    os << "  " << prev << " -> dma_out ["
       << pressure_attrs(edge_pressure(*design, spec.layers.size()), prev_ports) << "];\n";
  } else {
    os << "  " << prev << " -> dma_out;\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace

std::string block_design_dot(const NetworkSpec& spec) {
  return block_design_dot_impl(spec, nullptr);
}

std::string block_design_dot(const NetworkSpec& spec, const DesignInstance& design) {
  return block_design_dot_impl(spec, &design);
}

}  // namespace dfc::core
