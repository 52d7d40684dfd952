// The one elaborated design graph of a NetworkSpec (paper Figs. 4/5: SST
// memory structures, compute cores and port adapters joined by streams).
//
// elaborate() derives every process and every FIFO (or inter-device wire)
// of the design, with the names fifo reports, traces and fault plans use,
// without instantiating anything. The builders instantiate exactly this
// graph (core::instantiate), the static verifier checks it, and the profiler
// and DOT export find stages and edges in it by node kind and layer. Nodes
// are stored in construction order, each node's outputs right before it:
// the FIFO and process registration order of a built design.
//
// A filter-chain memory structure is one kMemory node; its taps and
// assembler are internal processes named "<node name>.<...>". A wire is a
// forward channel whose capacity is the credit window; the reverse credit
// lane is not an edge (credits are conserved, so it cannot add a deadlock
// cycle of its own — DESIGN.md §13).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/network_spec.hpp"
#include "verify/diagnostics.hpp"

namespace dfc::core {

struct BuildOptions;  // core/builder.hpp

enum class NodeKind {
  kDmaSource,
  kDmaSink,
  kDemux,   ///< PortDemux: one upstream port fanned out round-robin
  kMerge,   ///< PortMerge: upstream ports merged round-robin
  kMemory,  ///< SST memory structure (fused window buffer or filter chain)
  kConv,
  kPool,
  kFcn,
  kLink,    ///< single-context LinkChannel board crossing
  kLinkTx,  ///< multi-context crossing: transmitter on the upstream board
  kLinkRx,  ///< multi-context crossing: receiver on the downstream board
};

/// Conv, pool and fcn nodes: the cores Eq. 4 prices per stage.
inline bool is_compute_core(NodeKind kind) {
  return kind == NodeKind::kConv || kind == NodeKind::kPool || kind == NodeKind::kFcn;
}

struct GraphChannel {
  std::string name;
  std::size_t capacity = 0;
  int producer = -1;  ///< node index; -1 = unbound (dangling input)
  int consumer = -1;  ///< node index; -1 = unbound (dangling output)
};

/// One process, with what it takes to construct it from the spec.
struct GraphNode {
  std::string name;
  NodeKind kind = NodeKind::kConv;
  /// The layer it belongs to; adapters and links carry the layer they feed,
  /// the sink side (DMA sink and its merge) spec.layers.size().
  std::size_t layer = 0;
  int port = 0;                       ///< port index within its layer
  std::size_t device = 0;             ///< index of the context (board) it runs in
  std::vector<int> inputs{};          ///< channel indices this node consumes
  std::vector<int> outputs{};         ///< channel indices this node produces
  std::int64_t slots = 0;             ///< demux/merge: FM slots per pixel per upstream port
  std::int64_t demand_per_image = 0;  ///< sink: words it insists on per image
};

struct DesignGraph {
  std::vector<GraphNode> nodes;
  std::vector<GraphChannel> channels;
  /// Words per image the pipeline delivers to the sink (0 = unknown; a
  /// hand-built graph may leave it unset to skip the DF301 demand check).
  std::int64_t delivered_per_image = 0;

  int add_node(std::string name, NodeKind kind, std::size_t device = 0);
  int add_channel(std::string name, std::size_t capacity);
  /// Bind `node` as the producer/consumer of `channel`, recording the
  /// channel on the node's port list.
  void bind_producer(int channel, int node);
  void bind_consumer(int channel, int node);
};

/// Partition legality (DF403): `layer_device` covers every layer and, when
/// `require_monotone` (the multi-context contract), never goes backwards.
/// Empty when legal.
std::vector<dfc::verify::Diagnostic> check_partition(
    const NetworkSpec& spec, const std::vector<std::size_t>& layer_device,
    bool require_monotone);

/// The single-context design build_accelerator creates: a LinkChannel on
/// every stream port where options.layer_device (if set) changes device.
/// Throws verify::VerifyError on an invalid spec or partition.
DesignGraph elaborate(const NetworkSpec& spec, const BuildOptions& options);

/// The multi-context design mfpga::build_multi_fpga creates: one context per
/// maximal same-device run of `layer_device`, names prefixed "fpga<d>.", and
/// a Tx/wire/Rx triple per stream port crossing each boundary, the wire's
/// capacity being the credit window of InterLinkModel{options.link,
/// link_credits}. Throws verify::VerifyError on an invalid spec or partition.
DesignGraph elaborate(const NetworkSpec& spec, const BuildOptions& options,
                      const std::vector<std::size_t>& layer_device, int link_credits = 0);

}  // namespace dfc::core
