// Measured service-time tables for single- and multi-board replicas.
//
// The serve planner consumes a table mapping batch size -> cycles (entry n-1
// = cycles of a size-n back-to-back batch), measured on the cycle engine.
// Until now that table always came from a single-device ReplicaPool, so a
// replica that is really a multi-board pipeline (src/multifpga) was planned
// with single-board timings — the "PR 7 -> serve gap" named in ROADMAP.
//
// measure_service_table closes it: the design is partitioned with
// partition_network_exact (contiguous split, best predicted interval; one
// board is the whole net on board 0) and each batch size is measured on the
// one harness, so the interlink's bandwidth, latency and credit window land
// in the planner's per-image service times exactly as the wire-level
// executor charges them.
// The measurement is bit-deterministic (lockstep multi-context execution,
// DESIGN.md §11), so planner timelines built on these tables stay
// byte-identical across hosts and DFCNN_SWEEP_THREADS.
#pragma once

#include <cstdint>
#include <vector>

#include "core/builder.hpp"
#include "core/interlink.hpp"
#include "core/network_spec.hpp"

namespace dfc::cluster {

/// Measures cycles for back-to-back batches of size 1..max_batch on a
/// replica of `spec` spanning `boards` devices (a contiguous partition over
/// `boards` boards joined by `link`-timed credit-based interlinks), on the
/// engine options.execution_mode selects. Throws ConfigError when boards
/// exceeds the layer count and SimError if a batch fails to complete.
std::vector<std::uint64_t> measure_service_table(
    const dfc::core::NetworkSpec& spec, std::size_t boards, std::size_t max_batch,
    const dfc::core::InterLinkModel& link = {},
    const dfc::core::BuildOptions& options = {});

}  // namespace dfc::cluster
