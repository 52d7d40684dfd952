#include "core/builder.hpp"

#include <algorithm>
#include <variant>

#include "axis/flit.hpp"
#include "sst/filter_chain.hpp"
#include "sst/port_adapters.hpp"
#include "sst/window_buffer.hpp"

namespace dfc::core {

using dfc::axis::Flit;
using dfc::df::Fifo;
using dfc::df::SimContext;
using dfc::sst::Window;

namespace {

/// Instantiates one port's memory structure: the fused window buffer, or
/// the element-level filter chain (whose processes are not one node).
dfc::df::Process* build_memory(SimContext& ctx, const std::string& name, const LayerSpec& layer,
                               Fifo<Flit>& in, Fifo<Window>& out) {
  const auto* conv = std::get_if<ConvLayerSpec>(&layer);
  const auto* pool = std::get_if<PoolLayerSpec>(&layer);
  const Shape3 shape = conv ? conv->in_shape : pool->in_shape;
  dfc::sst::WindowGeometry geom;
  geom.in_w = shape.w;
  geom.in_h = shape.h;
  geom.kh = conv ? conv->kh : pool->kh;
  geom.kw = conv ? conv->kw : pool->kw;
  geom.stride_y = geom.stride_x = conv ? conv->stride : pool->stride;
  geom.channels = shape.c / layer_in_ports(layer);
  geom.pad = conv ? conv->pad : 0;
  if (conv ? conv->use_filter_chain : pool->use_filter_chain) {
    dfc::sst::build_filter_chain(ctx, name, geom, in, out);
    return nullptr;
  }
  return &ctx.add_process<dfc::sst::WindowBuffer>(name, geom, in, out);
}

}  // namespace

std::uint64_t DesignInstance::link_words_transferred() const {
  std::uint64_t total = 0;
  for (const auto& w : wires) total += w->words_transferred();
  return total;
}

void build_design(DesignInstance& design, const NetworkSpec& spec, const BuildOptions& options,
                  const std::vector<std::size_t>& cut, int link_credits) {
  const InterLinkModel link{options.link, link_credits};
  link.validate();
  design.spec = spec;
  design.options = options;
  design.cut = cut;
  design.link_credits = link_credits;
  design.graph = elaborate(spec, options, cut, link_credits);
  const DesignGraph& graph = design.graph;

  for (const GraphNode& node : graph.nodes) {
    while (design.contexts.size() <= node.device) {
      design.contexts.push_back(std::make_unique<SimContext>());
      design.buses.emplace_back();
    }
    const bool dma = node.kind == NodeKind::kDmaSource || node.kind == NodeKind::kDmaSink;
    if (dma && options.dma_shared_bus && design.buses[node.device] == nullptr) {
      design.buses[node.device] = std::make_unique<DmaBus>(options.dma_cycles_per_word);
    }
  }

  design.processes.assign(graph.nodes.size(), nullptr);
  design.fifos.assign(graph.channels.size(), nullptr);
  std::vector<InterLinkWire*> wires(graph.channels.size(), nullptr);
  auto fifo = [&](int c) { return design.fifos[static_cast<std::size_t>(c)]; };
  auto flit = [&](int c) -> Fifo<Flit>& { return static_cast<Fifo<Flit>&>(*fifo(c)); };
  auto window = [&](int c) { return &static_cast<Fifo<Window>&>(*fifo(c)); };
  auto flits = [&](const std::vector<int>& cs) {
    std::vector<Fifo<Flit>*> out;
    for (int c : cs) out.push_back(&flit(c));
    return out;
  };

  for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
    const GraphNode& node = graph.nodes[n];
    SimContext& ctx = *design.contexts[node.device];
    DmaBus* bus = design.buses[node.device].get();
    for (int c : node.outputs) {
      const GraphChannel& ch = graph.channels[static_cast<std::size_t>(c)];
      if (node.kind == NodeKind::kLinkTx) {
        wires[static_cast<std::size_t>(c)] =
            design.wires.emplace_back(std::make_unique<InterLinkWire>(ch.name, link)).get();
      } else if (node.kind == NodeKind::kMemory) {
        design.fifos[static_cast<std::size_t>(c)] = &ctx.add_fifo<Window>(ch.name, ch.capacity);
      } else {
        design.fifos[static_cast<std::size_t>(c)] = &ctx.add_fifo<Flit>(ch.name, ch.capacity);
      }
    }
    const int in = node.inputs.empty() ? -1 : node.inputs[0];
    const int out = node.outputs.empty() ? -1 : node.outputs[0];

    dfc::df::Process*& proc = design.processes[n];
    switch (node.kind) {
      case NodeKind::kDmaSource:
        proc = design.source = &ctx.add_process<DmaSource>(
            node.name, flit(out), spec.input_shape, options.dma_cycles_per_word, bus);
        if (bus != nullptr) bus->attach_source(design.source);
        break;
      case NodeKind::kDmaSink:
        proc = design.sink = &ctx.add_process<DmaSink>(
            node.name, flit(in), node.demand_per_image, options.dma_cycles_per_word, bus);
        if (bus != nullptr) bus->attach_sink(design.sink);
        break;
      case NodeKind::kDemux:
        proc = &ctx.add_process<dfc::sst::PortDemux>(node.name, node.slots, flit(in),
                                                     flits(node.outputs));
        break;
      case NodeKind::kMerge:
        proc = &ctx.add_process<dfc::sst::PortMerge>(
            node.name, std::max<std::int64_t>(node.slots, 1), flits(node.inputs), flit(out));
        break;
      case NodeKind::kMemory:
        proc = build_memory(ctx, node.name, spec.layers[node.layer], flit(in), *window(out));
        break;
      case NodeKind::kConv: {
        const auto& conv = std::get<ConvLayerSpec>(spec.layers[node.layer]);
        dfc::hls::ConvCoreConfig cfg;
        cfg.in_ports = conv.in_ports;
        cfg.out_ports = conv.out_ports;
        cfg.in_fm = conv.in_shape.c;
        cfg.out_fm = conv.out_fm;
        cfg.kh = conv.kh;
        cfg.kw = conv.kw;
        cfg.out_positions = conv.out_shape().plane();
        cfg.weights = conv.weights;
        cfg.biases = conv.biases;
        cfg.activation = conv.act;
        cfg.latency = spec.latency;
        std::vector<Fifo<Window>*> windows;
        for (int c : node.inputs) windows.push_back(window(c));
        proc = design.conv_cores.emplace_back(&ctx.add_process<dfc::hls::ConvCore>(
            node.name, std::move(cfg), windows, flits(node.outputs)));
        break;
      }
      case NodeKind::kPool: {
        const auto& pool = std::get<PoolLayerSpec>(spec.layers[node.layer]);
        dfc::hls::PoolCoreConfig cfg;
        cfg.mode = pool.mode;
        cfg.kh = pool.kh;
        cfg.kw = pool.kw;
        cfg.latency = spec.latency;
        proc = &ctx.add_process<dfc::hls::PoolCore>(node.name, cfg, *window(in), flit(out));
        break;
      }
      case NodeKind::kFcn: {
        const auto& fcn = std::get<FcnLayerSpec>(spec.layers[node.layer]);
        dfc::hls::FcnCoreConfig cfg;
        cfg.in_count = fcn.in_count;
        cfg.out_count = fcn.out_count;
        cfg.weights = fcn.weights;
        cfg.biases = fcn.biases;
        cfg.activation = fcn.act;
        cfg.num_accumulators = fcn.num_accumulators;
        cfg.latency = spec.latency;
        proc = design.fcn_cores.emplace_back(&ctx.add_process<dfc::hls::FcnCore>(
            node.name, std::move(cfg), flit(in), flit(out)));
        break;
      }
      case NodeKind::kLinkTx:
        proc = design.txs.emplace_back(&ctx.add_process<InterLinkTx>(
            node.name, flit(in), *wires[static_cast<std::size_t>(out)]));
        break;
      case NodeKind::kLinkRx: {
        InterLinkWire& wire = *wires[static_cast<std::size_t>(in)];
        auto* rx =
            design.rxs.emplace_back(&ctx.add_process<InterLinkRx>(node.name, wire, flit(out)));
        const int tx = graph.channels[static_cast<std::size_t>(in)].producer;
        wire.bind(static_cast<InterLinkTx*>(design.processes[static_cast<std::size_t>(tx)]), rx);
        proc = rx;
        break;
      }
    }
  }
}

Accelerator build_accelerator(const NetworkSpec& spec, const BuildOptions& options) {
  Accelerator acc;
  build_design(acc, spec, options);
  acc.ctx = acc.contexts.front().get();
  return acc;
}

}  // namespace dfc::core
