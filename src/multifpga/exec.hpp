// Multi-FPGA execution: one simulated device per partition segment, joined
// by credit-based serial links (paper Sec. IV-C / VI future work, run for
// real instead of only priced).
//
// build_multi_fpga materialises a `layer_device` mapping as D independent
// SimContexts by instantiating the multi-context core::elaborate graph: each
// context holds the processes and FIFOs of its contiguous layer range, and
// core/interlink Tx/wire/Rx triples, one per stream port crossing a
// boundary, connect consecutive devices. The DMA source lives on the first
// device, the sink on the last, each with its own shared-bus arbiter (two
// boards do not share a DMA — which is exactly why a partitioned USPS design
// reaches the ideal 256-cycle interval the shared single-device bus holds
// at 266).
//
// MultiFpgaHarness is the one core::Harness under its multi-board name: it
// drives all device clocks in lockstep at one global cycle
// (df::run_lockstep), with the compiled path and sequential mode of any
// design. With link latency >= 1 no flit crosses a boundary within the cycle
// it was sent, so lockstep stepping order is irrelevant and the partitioned
// run is bit-deterministic — logits are byte-identical to the single-device
// engine.
#pragma once

#include <cstdint>
#include <vector>

#include "core/builder.hpp"
#include "core/harness.hpp"

namespace dfc::mfpga {

/// A built multi-device design: the instantiated graph (source on board 0,
/// sink on the last board, one wire per boundary port), one context per
/// board.
struct MultiFpgaAccelerator : dfc::core::DesignInstance {};

/// Builds the partitioned design. `layer_device` must cover every layer and
/// be monotone non-decreasing (the design is a pipeline; layers never
/// migrate backwards). `options.link` is the serial-link timing model;
/// `link_credits` the Tx credit window (0 = auto, see InterLinkModel).
/// Every FIFO/process name is prefixed with "fpga<d>." where d is the
/// owning device's index, so trace entities and fault targets of different
/// boards stay unambiguous in one view.
MultiFpgaAccelerator build_multi_fpga(const dfc::core::NetworkSpec& spec,
                                      const std::vector<std::size_t>& layer_device,
                                      const dfc::core::BuildOptions& options = {},
                                      int link_credits = 0);

/// The harness of a build_multi_fpga design.
class MultiFpgaHarness final : public dfc::core::Harness {
 public:
  explicit MultiFpgaHarness(MultiFpgaAccelerator acc)
      : Harness(std::make_unique<MultiFpgaAccelerator>(std::move(acc))) {}
  MultiFpgaAccelerator& accelerator() { return static_cast<MultiFpgaAccelerator&>(design()); }
};

}  // namespace dfc::mfpga
