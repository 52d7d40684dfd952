#include "core/elaborate.hpp"

#include <algorithm>
#include <utility>
#include <variant>

#include "core/builder.hpp"

namespace dfc::core {

using dfc::verify::Code;
using dfc::verify::Diagnostic;

int DesignGraph::add_node(std::string name, NodeKind kind, std::size_t device) {
  nodes.push_back({.name = std::move(name), .kind = kind, .device = device});
  return static_cast<int>(nodes.size()) - 1;
}

int DesignGraph::add_channel(std::string name, std::size_t capacity) {
  channels.push_back({.name = std::move(name), .capacity = capacity});
  return static_cast<int>(channels.size()) - 1;
}

void DesignGraph::bind_producer(int channel, int node) {
  channels.at(static_cast<std::size_t>(channel)).producer = node;
  nodes.at(static_cast<std::size_t>(node)).outputs.push_back(channel);
}

void DesignGraph::bind_consumer(int channel, int node) {
  channels.at(static_cast<std::size_t>(channel)).consumer = node;
  nodes.at(static_cast<std::size_t>(node)).inputs.push_back(channel);
}

std::vector<Diagnostic> check_partition(const NetworkSpec& spec,
                                        const std::vector<std::size_t>& layer_device) {
  if (layer_device.size() != spec.layers.size()) {
    return {{Code::DF403, "partition",
             "layer_device has " + std::to_string(layer_device.size()) + " entries for " +
                 std::to_string(spec.layers.size()) + " layer(s)"}};
  }
  for (std::size_t i = 1; i < layer_device.size(); ++i) {
    if (layer_device[i] < layer_device[i - 1]) {
      return {{Code::DF403, "L" + std::to_string(i),
               "device assignment goes backwards (" + std::to_string(layer_device[i - 1]) +
                   " -> " + std::to_string(layer_device[i]) +
                   "); the design is a forward pipeline"}};
    }
  }
  return {};
}

namespace {

/// (name, capacity) of a channel a node produces.
using ChannelDecl = std::pair<std::string, std::size_t>;

std::string numbered(const std::string& base, std::size_t i) { return base + std::to_string(i); }

/// Grows the graph along the pipeline, carrying the stream bundle between
/// stages: one channel per port, feature maps interleaved round-robin.
struct Walk {
  DesignGraph& g;
  const BuildOptions& options;
  std::string prefix;  ///< "fpga<d>." in multi-context designs
  std::size_t device = 0;
  std::vector<int> streams;
  Shape3 shape;

  /// Adds a node and its output channels, the channels first, and returns
  /// the outputs. `inputs` is a copy: callers pass another node's port list,
  /// which growing g.nodes would invalidate.
  std::vector<int> add(std::string name, NodeKind kind, std::size_t layer, std::size_t port,
                       std::vector<int> inputs, const std::vector<ChannelDecl>& outputs,
                       std::int64_t slots = 0) {
    std::vector<int> outs;
    for (const auto& [cname, capacity] : outputs) outs.push_back(g.add_channel(cname, capacity));
    const int id = g.add_node(std::move(name), kind, device);
    g.nodes.back().layer = layer;
    g.nodes.back().port = static_cast<int>(port);
    g.nodes.back().slots = slots;
    for (int c : inputs) g.bind_consumer(c, id);
    for (int c : outs) g.bind_producer(c, id);
    return outs;
  }

  /// Adapts the bundle to `target` ports with PortDemux/PortMerge nodes (the
  /// three cases of Sec. IV-A); validate() guarantees the divisibility.
  void adapt(std::size_t layer, const std::string& name, std::size_t target) {
    const std::size_t up = streams.size();
    if (up == target) return;
    const std::int64_t slots = shape.c / static_cast<std::int64_t>(up);
    const std::size_t capacity = options.stream_fifo_capacity;
    std::vector<int> out(target, -1);
    if (up < target) {
      for (std::size_t p = 0; p < up; ++p) {
        std::vector<ChannelDecl> decls;
        for (std::size_t q = p; q < target; q += up) {  // ports congruent to p (mod up)
          decls.emplace_back(numbered(numbered(name + ".demux", p) + "_", q), capacity);
        }
        const std::vector<int> outs = add(numbered(name + ".demux", p), NodeKind::kDemux, layer,
                                          p, {streams[p]}, decls, slots);
        for (std::size_t i = 0; i < outs.size(); ++i) out[p + i * up] = outs[i];
      }
    } else {
      for (std::size_t q = 0; q < target; ++q) {
        std::vector<int> sources;
        for (std::size_t p = q; p < up; p += target) sources.push_back(streams[p]);
        out[q] = add(numbered(name + ".merge", q), NodeKind::kMerge, layer, q, sources,
                     {{numbered(name + ".merged", q), capacity}}, slots)[0];
      }
    }
    streams = std::move(out);
  }

  /// The SST memory structure of port `p`; returns its window channel.
  int memory(std::size_t layer, const std::string& lname, std::size_t p) {
    return add(numbered(lname + ".mem", p), NodeKind::kMemory, layer, p, {streams[p]},
               {{numbered(lname + ".win", p), options.window_fifo_capacity}})[0];
  }

  void append_layer(std::size_t li, const LayerSpec& layer) {
    const std::string lname = numbered(prefix + "L", li);
    const std::size_t capacity = options.stream_fifo_capacity;
    if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) {
      adapt(li, lname, static_cast<std::size_t>(conv->in_ports));
      std::vector<int> windows;
      for (std::size_t p = 0; p < streams.size(); ++p) windows.push_back(memory(li, lname, p));
      std::vector<ChannelDecl> outs;
      for (std::size_t p = 0; p < static_cast<std::size_t>(conv->out_ports); ++p) {
        outs.emplace_back(numbered(lname + ".out", p), capacity);
      }
      streams = add(lname + ".conv", NodeKind::kConv, li, 0, windows, outs);
    } else if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) {
      adapt(li, lname, static_cast<std::size_t>(pool->ports));
      for (std::size_t p = 0; p < streams.size(); ++p) {
        streams[p] = add(numbered(lname + ".pool", p), NodeKind::kPool, li, p,
                         {memory(li, lname, p)}, {{numbered(lname + ".out", p), capacity}})[0];
      }
    } else {
      adapt(li, lname, 1);  // FCN cores are single-port in and out (Sec. IV-B)
      streams = add(lname + ".fcn", NodeKind::kFcn, li, 0, streams, {{lname + ".out", capacity}});
    }
    shape = layer_out_shape(layer);
  }

  /// Board crossing into layer `li`: per port, a Tx on this board drains
  /// the bundle onto a wire whose Rx, on the next board, fills an ingress
  /// FIFO.
  void cross_boards(std::size_t li, std::size_t credit_window) {
    const std::string lname = numbered("L", li);
    const std::string next = numbered("fpga", device + 1) + ".";
    for (std::size_t p = 0; p < streams.size(); ++p) {
      const std::vector<int> wire = add(numbered(prefix + lname + ".tx", p), NodeKind::kLinkTx,
                                        li, p, {streams[p]},
                                        {{numbered(lname + ".wire", p), credit_window}});
      streams[p] = add(numbered(next + lname + ".rx", p), NodeKind::kLinkRx, li, p, wire,
                       {{numbered(next + lname + ".xfpga", p), options.stream_fifo_capacity}})[0];
      g.nodes.back().device = device + 1;
    }
    ++device;
    prefix = next;
  }
};

}  // namespace

DesignGraph elaborate(const NetworkSpec& spec, const BuildOptions& options,
                      const std::vector<std::size_t>& cut, int link_credits) {
  spec.validate();
  if (!cut.empty()) {
    std::vector<Diagnostic> errors = check_partition(spec, cut);
    if (!errors.empty()) throw dfc::verify::VerifyError(std::move(errors));
  }

  DesignGraph g;
  Walk w{g, options, cut.empty() ? "" : "fpga0.", 0, {}, spec.input_shape};
  w.streams = w.add(w.prefix + "dma.source", NodeKind::kDmaSource, 0, 0, {},
                    {{w.prefix + "dma.in", options.stream_fifo_capacity}});
  const InterLinkModel link{options.link, link_credits};
  for (std::size_t li = 0; li < spec.layers.size(); ++li) {
    if (li > 0 && !cut.empty() && cut[li] != cut[li - 1]) {
      w.cross_boards(li, static_cast<std::size_t>(std::max(1, link.effective_credits())));
    }
    w.append_layer(li, spec.layers[li]);
  }

  // The DMA S2MM channel is a single 32-bit stream; merge multi-port outputs.
  const std::size_t sink_side = spec.layers.size();
  w.adapt(sink_side, w.prefix + "dma", 1);
  w.add(w.prefix + "dma.sink", NodeKind::kDmaSink, sink_side, 0, w.streams, {});
  g.nodes.back().demand_per_image = g.delivered_per_image = w.shape.volume();
  return g;
}

}  // namespace dfc::core
