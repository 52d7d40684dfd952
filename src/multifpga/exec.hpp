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
// MultiFpgaHarness mirrors AcceleratorHarness: it drives all device clocks
// in lockstep at one global cycle, converts watchdog trips into partial
// BatchResults (kTimeout/kDeadlock), and keeps the run fast by coordinating
// fast-forward across contexts — when every device is idle it jumps all of
// them to the earliest wake any device (or link endpoint) declares. With
// link latency >= 1 no flit crosses a boundary within the cycle it was sent,
// so lockstep stepping order is irrelevant and the partitioned run is
// bit-deterministic — logits are byte-identical to the single-device engine.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/builder.hpp"
#include "core/harness.hpp"
#include "core/interlink.hpp"
#include "obs/activity.hpp"
#include "obs/trace.hpp"
#include "tensor/tensor.hpp"

namespace dfc::mfpga {

/// One simulated board: its own clock domain holding a contiguous layer
/// range [first_layer, last_layer) of the network.
struct DeviceSim {
  std::size_t device = 0;       ///< board index (GraphNode::device)
  std::size_t first_layer = 0;  ///< inclusive
  std::size_t last_layer = 0;   ///< exclusive
  std::unique_ptr<dfc::df::SimContext> ctx;
  std::unique_ptr<dfc::core::DmaBus> bus;  ///< only on DMA endpoint devices
};

/// A built multi-device design: the instantiated graph (source on
/// devices.front(), sink on devices.back(), one wire per boundary port) plus
/// the per-device contexts that own its processes and FIFOs.
struct MultiFpgaAccelerator : dfc::core::DesignInstance {
  std::vector<DeviceSim> devices;

  std::size_t device_count() const { return devices.size(); }

  /// Total flits delivered across all inter-device wires (this batch).
  std::uint64_t link_words_transferred() const;
};

/// Builds the partitioned design. `layer_device` must cover every layer and
/// be monotone non-decreasing (the design is a pipeline; layers never
/// migrate backwards). `options.link` is the serial-link timing model;
/// `link_credits` the Tx credit window (0 = auto, see InterLinkModel).
/// Every FIFO/process name is prefixed with "fpga<d>." where d is the
/// owning device's index, so per-device traces and fault targets stay
/// unambiguous when merged.
MultiFpgaAccelerator build_multi_fpga(const dfc::core::NetworkSpec& spec,
                                      const std::vector<std::size_t>& layer_device,
                                      const dfc::core::BuildOptions& options = {},
                                      int link_credits = 0);

/// Lockstep batch harness over a MultiFpgaAccelerator. Reuses the
/// single-device BatchResult (statuses, steady-interval metrics) so
/// measurement code is engine-agnostic.
class MultiFpgaHarness {
 public:
  explicit MultiFpgaHarness(MultiFpgaAccelerator acc);

  /// Streams the whole batch back to back through the partitioned pipeline.
  /// Exhausting `max_cycles` or a global idle window returns a partial
  /// BatchResult with status kTimeout/kDeadlock, like AcceleratorHarness.
  dfc::core::BatchResult run_batch(
      const std::vector<Tensor>& images,
      std::uint64_t max_cycles = dfc::df::SimContext::kDefaultMaxCycles);

  /// Single-image convenience returning the logits; throws if incomplete.
  std::vector<float> run_image(const Tensor& image);

  MultiFpgaAccelerator& accelerator() { return acc_; }
  const dfc::core::NetworkSpec& spec() const { return acc_.spec; }
  std::size_t device_count() const { return acc_.devices.size(); }
  dfc::df::SimContext& device_context(std::size_t d) { return *acc_.devices.at(d).ctx; }

  /// Consecutive all-device-idle cycles tolerated before kDeadlock.
  void set_idle_limit(std::uint64_t cycles) { idle_limit_ = cycles; }

  /// Looks a FIFO up by its (fpga-prefixed) name across all devices.
  dfc::df::FifoBase* find_fifo(const std::string& name);

  /// Per-device FIFO occupancy/stall report plus per-wire transfer counts.
  std::string fifo_report() const;

  /// Attaches one fresh TraceSink per device (sinks.size() must equal
  /// device_count()); entity names carry the fpga<d>. prefix, so merged
  /// traces keep per-device track names. Pass empty sinks again after
  /// detach_traces() to re-trace.
  void attach_traces(const std::vector<obs::TraceSink*>& sinks);
  void detach_traces();

  /// Per-link cycle attribution: classifies every global cycle of the next
  /// run_batch into credit_stall / wire_busy / rx_backpressure / idle per
  /// wire (see obs::LinkState). Classification reads start-of-cycle state —
  /// lockstep-stable, so the splits are byte-identical across thread counts
  /// — and the buckets sum exactly to link_observed_cycles(). While enabled,
  /// coordinated fast-forward is suppressed (like SimContext observation) so
  /// no cycle escapes classification.
  void set_link_attribution(bool on) { link_attr_ = on || link_trace_ != nullptr; }
  bool link_attribution() const { return link_attr_; }

  /// Attaches a sink for kLinkState/kLinkCredits events (one kLink entity
  /// per wire, registered on attach); implies link attribution. The sink may
  /// be merged with per-device sinks via merge_traces for the cross-board
  /// Perfetto view.
  void attach_link_trace(obs::TraceSink* sink);
  void detach_link_trace();

  /// Attribution results for wire `i` (parallel to accelerator().wires),
  /// accumulated over the cycles of the last run_batch.
  const obs::LinkActivity& link_activity(std::size_t i) const {
    return trackers_.at(i).counts();
  }
  /// Global cycles classified during the last run_batch (0 when attribution
  /// was off). Every classified cycle lands in exactly one bucket per link.
  std::uint64_t link_observed_cycles() const { return link_cycles_; }

  /// Arms/disarms checksum+sequence integrity guards on every FIFO of every
  /// device (link ingress FIFOs included — the fault subsystem's detection
  /// surface for inter-FPGA transfers).
  void enable_integrity_guards(dfc::df::FaultListener* listener, float range_bound);
  void disable_integrity_guards();

  /// Resets every device context, wire and per-batch FIFO statistic.
  void reset();

 private:
  dfc::core::BatchResult collect(std::size_t requested) const;
  void classify_links(std::uint64_t now);

  MultiFpgaAccelerator acc_;
  std::uint64_t idle_limit_ = 100'000;

  bool link_attr_ = false;
  obs::TraceSink* link_trace_ = nullptr;
  std::vector<std::uint32_t> link_ids_;      ///< entity ids in link_trace_
  std::vector<obs::LinkTracker> trackers_;   ///< parallel to acc_.wires
  std::uint64_t link_cycles_ = 0;
};

/// Merges per-device trace sinks (recorded in lockstep, so cycle stamps are
/// directly comparable) into `out`: entities are re-registered in device
/// order and events appended with remapped ids. The Perfetto exporter
/// indexes events per entity, so per-sink concatenation order is exactly as
/// valid as single-context record order.
void merge_traces(const std::vector<const obs::TraceSink*>& sinks, obs::TraceSink& out);

}  // namespace dfc::mfpga
