// Static design verifier: `dfcnn check` without a single simulated cycle.
//
// The paper's pipeline is *statically schedulable* — FIFO depths, Eq. 4
// initiation intervals and Table I resource costs are all knowable before
// simulation — so an undersized FIFO, an illegal partition cut or a
// budget-busting port plan should be a named diagnostic, not a runtime
// kDeadlock or a DFC_CHECK abort deep in the builder. verify_design runs
// five check families (DESIGN.md §13 catalogs every code):
//
//   1. graph structure    — dangling/unbound channels, duplicate names,
//                           unreachable stages (DF001–DF004);
//   2. shape propagation  — tensor shapes, interleave divisibility, weight
//                           table widths, core parameters (DF101–DF106);
//   3. rate consistency   — per-stage Eq. 4 cycles, FIFOs/links that
//                           statically throttle the design II (DF201–DF203);
//   4. deadlock freedom   — sink word demand vs delivery, feedback cycles
//                           with empty FIFOs; inter-device links are covered
//                           by the credit-conservation argument (DF301–DF302);
//   5. resource budget    — Table I model vs the device, per partition
//                           segment (DF401–DF403).
//
// Every check reads the one source of truth for its concept: the spec and
// partition rules in core (check_spec, check_partition — the same rules
// NetworkSpec::validate() throws), the graph core::elaborate derives and the
// builders instantiate, the Eq. 4 model (dse::estimate_timing and
// mfpga::estimate_multi_timing) and the Table I model
// (mfpga::usage_per_device). The verifier never throws on a bad design — it
// *reports*; `dfcnn check` is its CLI.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/builder.hpp"
#include "core/elaborate.hpp"
#include "core/network_spec.hpp"
#include "hwmodel/cost_model.hpp"
#include "hwmodel/device.hpp"
#include "verify/diagnostics.hpp"

namespace dfc::verify {

struct VerifyOptions {
  dfc::hw::Device device = dfc::hw::virtex7_485t();
  dfc::hw::CostModel cost_model{};
  /// Utilization fraction above which DF402 warns (errors start at 1.0).
  double headroom_warn_fraction = 0.90;
};

/// The machine-readable verdict: every diagnostic plus the design facts the
/// checks derived on the way (deterministic; byte-identical JSON across runs
/// and thread counts).
struct VerifyReport {
  std::string design;
  std::size_t devices = 1;
  std::int64_t predicted_interval_cycles = 0;  ///< Eq. 4 design II (0 if shapes broken)
  std::size_t channels_checked = 0;
  std::size_t stages_checked = 0;
  std::vector<Diagnostic> diagnostics;

  std::size_t errors() const;
  std::size_t warnings() const;
  /// No error-severity diagnostics (warnings/infos allowed).
  bool clean() const { return errors() == 0; }
  bool has(Code code) const;

  /// Human-readable rendering: one line per diagnostic plus a summary.
  std::string render() const;
  /// Deterministic JSON for tooling and CI gates.
  std::string to_json() const;
};

/// Verifies a single-board design (build_accelerator topology).
VerifyReport verify_design(const dfc::core::NetworkSpec& spec,
                           const dfc::core::BuildOptions& options = {},
                           const VerifyOptions& vopts = {});

/// Verifies a partitioned multi-FPGA design (build_multi_fpga topology):
/// partition legality, per-device Table I budgets, link rate and credit
/// windows, plus every single-design check.
VerifyReport verify_design_multi(const dfc::core::NetworkSpec& spec,
                                 const std::vector<std::size_t>& layer_device,
                                 const dfc::core::BuildOptions& options = {},
                                 int link_credits = 0, const VerifyOptions& vopts = {});

/// Structural checks only (DF001–DF004, DF301–DF302) over an arbitrary
/// graph — the entry point for hand-built topologies in tests.
VerifyReport verify_graph(const dfc::core::DesignGraph& graph);

}  // namespace dfc::verify
