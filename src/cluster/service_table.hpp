// Measured service-time tables for single- and multi-board replicas.
//
// Both planners consume a table mapping batch size -> cycles (entry n-1 =
// cycles of a size-n back-to-back batch), measured on the cycle engine or
// the compiled path; this file is the one place it is measured.
//
// The design is partitioned with partition_network_exact (contiguous split,
// best predicted interval; one board is the whole net on board 0) and each
// batch size is measured on the one harness, so the interlink's bandwidth,
// latency and credit window land in the planner's per-image service times
// exactly as the wire-level executor charges them. The measurement is
// bit-deterministic (lockstep multi-context execution, DESIGN.md §11), so
// planner timelines built on these tables stay byte-identical across hosts
// and DFCNN_SWEEP_THREADS.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/builder.hpp"
#include "core/harness.hpp"
#include "core/interlink.hpp"
#include "core/network_spec.hpp"

namespace dfc::cluster {

/// One replica of `spec` spanning `boards` devices: the contiguous partition
/// with the best predicted interval over `boards` boards joined by
/// `link`-timed credit-based interlinks (one board is the whole net on board
/// 0), on the engine options.execution_mode selects. measure_service_table
/// times this harness and serve's ReplicaPool replays batches on it. Throws
/// ConfigError when boards is 0 or exceeds the layer count.
std::unique_ptr<dfc::core::Harness> build_replica(const dfc::core::NetworkSpec& spec,
                                                  std::size_t boards,
                                                  const dfc::core::InterLinkModel& link = {},
                                                  const dfc::core::BuildOptions& options = {});

/// Measures cycles for back-to-back batches of size 1..max_batch on a
/// build_replica harness: the service table both planners price batches
/// with. Throws ConfigError as build_replica does and SimError if a batch
/// fails to complete.
std::vector<std::uint64_t> measure_service_table(
    const dfc::core::NetworkSpec& spec, std::size_t boards, std::size_t max_batch,
    const dfc::core::InterLinkModel& link = {},
    const dfc::core::BuildOptions& options = {});

}  // namespace dfc::cluster
