// Assembles a NetworkSpec into a simulated accelerator: instantiates the
// design graph core::elaborate derives (SST memory structures, compute cores,
// port adapters and the DMA endpoints, wired with FIFO channels) inside one
// SimContext — or, through mfpga::build_multi_fpga, one context per board.
#pragma once

#include <memory>
#include <vector>

#include "core/dma.hpp"
#include "core/elaborate.hpp"
#include "core/interlink.hpp"
#include "core/link.hpp"
#include "core/network_spec.hpp"
#include "dataflow/sim_context.hpp"
#include "hlscore/conv_core.hpp"
#include "hlscore/fcn_core.hpp"
#include "hlscore/pool_core.hpp"

namespace dfc::core {

/// How the harness executes a batch (DESIGN.md §10).
///
///  * kCycleAccurate: the two-phase process-stepping engine — the ground
///    truth, required whenever something watches or perturbs the simulation.
///  * kCompiledSchedule: lower the design's static schedule once (fill-phase
///    prefix + repeating steady interval, measured on the cycle engine) and
///    replay batches against it: completion cycles come from the schedule,
///    logits from the bit-exact functional model. Falls back to
///    kCycleAccurate automatically when a fault hook, trace sink, stall
///    accounting, integrity guards, the stream guard or paranoid mode is
///    active — those need real per-cycle state.
enum class ExecutionMode { kCycleAccurate, kCompiledSchedule };

struct BuildOptions {
  std::size_t stream_fifo_capacity = 8;  ///< inter-module value channels
  std::size_t window_fifo_capacity = 4;  ///< memory structure -> compute core
  int dma_cycles_per_word = 1;           ///< 1 = 32-bit @ 100 MHz = 400 MB/s

  /// Arbitrate MM2S and S2MM over one shared 400 MB/s datapath with sink
  /// priority (DESIGN.md §5, the paper's single AXI DMA). `false` gives each
  /// direction a private channel — 2x the paper's bandwidth — for ablations.
  bool dma_shared_bus = true;

  /// Multi-FPGA mapping: device index per layer (empty = all on device 0).
  /// Wherever consecutive layers sit on different devices, every stream port
  /// crossing the boundary goes through a LinkChannel. The DMA endpoints live
  /// with the first/last layer's device.
  std::vector<std::size_t> layer_device;
  LinkModel link{};

  /// Execution engine the harness selects for run_batch/run_sequential.
  /// The built design is identical either way; this only chooses how batches
  /// are executed (see ExecutionMode).
  ExecutionMode execution_mode = ExecutionMode::kCycleAccurate;
};

/// A DesignGraph made real: the graph itself, the simulator entity behind
/// each node and channel, and typed views of the interesting ones. Raw
/// pointers are stable views into the owning context(s).
struct DesignInstance {
  NetworkSpec spec;
  BuildOptions options;  ///< the options this design was built with
  DesignGraph graph;     ///< elaborated from spec and options
  std::vector<dfc::df::Process*> processes;  ///< per node; null for a filter-chain mem node
  std::vector<dfc::df::FifoBase*> fifos;     ///< per channel; null for an inter-device wire

  DmaSource* source = nullptr;
  DmaSink* sink = nullptr;
  std::vector<dfc::hls::ConvCore*> conv_cores;
  std::vector<dfc::hls::FcnCore*> fcn_cores;
  std::vector<dfc::hls::PoolCore*> pool_cores;

  /// Multi-context board crossings, owned here (a wire belongs to neither
  /// clock domain); txs/rxs are parallel to wires.
  std::vector<std::unique_ptr<InterLinkWire>> wires;
  std::vector<InterLinkTx*> txs;
  std::vector<InterLinkRx*> rxs;
};

/// Instantiates `design.graph` in stored order: each node's output FIFOs —
/// a Tx's inter-device wire — and then the node's process, in
/// contexts[node.device]. This is the FIFO and process registration order
/// that fault-site draws and trace entity ids follow. buses[d] (may be null)
/// arbitrates device d's DMA endpoints; `link` times every wire.
void instantiate(DesignInstance& design, const InterLinkModel& link,
                 const std::vector<dfc::df::SimContext*>& contexts,
                 const std::vector<DmaBus*>& buses);

/// A built single-context accelerator. The SimContext owns all processes and
/// FIFOs.
struct Accelerator : DesignInstance {
  std::unique_ptr<dfc::df::SimContext> ctx;
  std::unique_ptr<DmaBus> bus;  ///< shared DMA arbiter (null in private mode)
};

/// Builds the full design: instantiates elaborate(spec, options) in one
/// context. Throws verify::VerifyError (a ConfigError) on invalid specs.
Accelerator build_accelerator(const NetworkSpec& spec, const BuildOptions& options = {});

}  // namespace dfc::core
