// Assembles a NetworkSpec into a simulated accelerator: instantiates the
// design graph core::elaborate derives (SST memory structures, compute cores,
// port adapters and the DMA endpoints, wired with FIFO channels) in one
// SimContext per board — one for build_accelerator, one per segment of the
// cut for mfpga::build_multi_fpga.
#pragma once

#include <memory>
#include <vector>

#include "core/dma.hpp"
#include "core/elaborate.hpp"
#include "core/interlink.hpp"
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

  /// Timing of every board crossing of a design cut over several boards
  /// (mfpga::build_multi_fpga).
  LinkModel link{};

  /// Execution engine the harness selects for run_batch/run_sequential.
  /// The built design is identical either way; this only chooses how batches
  /// are executed (see ExecutionMode).
  ExecutionMode execution_mode = ExecutionMode::kCycleAccurate;
};

/// A DesignGraph made real: the graph itself, one clock domain per board,
/// the simulator entity behind each node and channel, and typed views of the
/// interesting ones. Raw pointers are stable views into the owning contexts.
/// The harness owns a design through this base, whatever its builder.
struct DesignInstance {
  DesignInstance() = default;
  virtual ~DesignInstance() = default;
  DesignInstance(DesignInstance&&) = default;
  DesignInstance& operator=(DesignInstance&&) = default;
  DesignInstance(const DesignInstance&) = delete;
  DesignInstance& operator=(const DesignInstance&) = delete;

  NetworkSpec spec;
  BuildOptions options;  ///< the options this design was built with
  /// Device per layer as given to mfpga::build_multi_fpga; empty for
  /// build_accelerator's single board (whose names carry no fpga prefix).
  std::vector<std::size_t> cut;
  int link_credits = 0;  ///< Tx credit window of every wire (0 = auto)
  DesignGraph graph;     ///< elaborated from spec, options and the cut

  /// One clock domain per board (GraphNode::device), stepped in lockstep.
  std::vector<std::unique_ptr<dfc::df::SimContext>> contexts;
  /// Per board: the shared DMA arbiter of its endpoints (null on a board
  /// without one, or when options.dma_shared_bus is off).
  std::vector<std::unique_ptr<DmaBus>> buses;

  std::vector<dfc::df::Process*> processes;  ///< per node; null for a filter-chain mem node
  std::vector<dfc::df::FifoBase*> fifos;     ///< per channel; null for an inter-device wire

  DmaSource* source = nullptr;
  DmaSink* sink = nullptr;
  std::vector<dfc::hls::ConvCore*> conv_cores;
  std::vector<dfc::hls::FcnCore*> fcn_cores;

  /// Board crossings, owned here (a wire belongs to neither clock domain);
  /// txs/rxs are parallel to wires.
  std::vector<std::unique_ptr<InterLinkWire>> wires;
  std::vector<InterLinkTx*> txs;
  std::vector<InterLinkRx*> rxs;

  /// Total flits delivered across all board crossings (this batch).
  std::uint64_t link_words_transferred() const;
};

/// Elaborates `spec` on `cut` (see DesignInstance::cut) into `design` and
/// instantiates the graph in stored order: each node's output FIFOs — a Tx's
/// wire, timed by InterLinkModel{options.link, link_credits} — and then the
/// node's process, in contexts[node.device]. This is the FIFO and process
/// registration order that fault-site draws and trace entity ids follow.
/// With options.dma_shared_bus, each board holding a DMA endpoint gets one
/// arbiter for its endpoints. Throws verify::VerifyError (a ConfigError) on
/// an invalid spec or cut.
void build_design(DesignInstance& design, const NetworkSpec& spec, const BuildOptions& options,
                  const std::vector<std::size_t>& cut = {}, int link_credits = 0);

/// A built single-board accelerator; `ctx` is its one context.
struct Accelerator : DesignInstance {
  dfc::df::SimContext* ctx = nullptr;
};

/// Builds the full design: instantiates elaborate(spec, options) in one
/// context. Throws verify::VerifyError (a ConfigError) on invalid specs.
Accelerator build_accelerator(const NetworkSpec& spec, const BuildOptions& options = {});

}  // namespace dfc::core
