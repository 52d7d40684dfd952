// Shared experiment drivers for the benchmark harness.
//
// Every paper table/figure bench builds on these: they run the simulated
// accelerator on random images (performance is data-independent), convert
// cycles to wall time at the 100 MHz design clock, and derive the metrics of
// Table II (GFLOPS, GFLOPS/W via the hwmodel power estimate, image latency,
// images/s) and Fig. 6 (mean time per image vs batch size).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/harness.hpp"
#include "core/network_spec.hpp"
#include "hwmodel/cost_model.hpp"
#include "hwmodel/power.hpp"

namespace dfc::report {

/// Random images with the spec's input shape (deterministic per seed).
std::vector<Tensor> random_images(const dfc::core::NetworkSpec& spec, std::size_t count,
                                  std::uint64_t seed = 7);

struct PerformanceMetrics {
  std::string name;
  std::size_t batch = 0;
  std::uint64_t total_cycles = 0;
  double mean_us_per_image = 0.0;        ///< batch time / batch size (Fig. 6 metric)
  double end_to_end_latency_us = 0.0;    ///< inject -> last output of one image
  double steady_interval_us = 0.0;       ///< completion spacing at steady state
  double images_per_second = 0.0;
  double gflops = 0.0;
  double watts = 0.0;
  double gflops_per_watt = 0.0;
  // Distribution of per-image end-to-end latencies over the batch
  // (nearest-rank percentiles) — the mean alone hides the pipeline-fill tail.
  double p50_latency_us = 0.0;
  double p95_latency_us = 0.0;
  double p99_latency_us = 0.0;
};

/// Runs a pipelined batch and derives all Table II metrics. `options`
/// selects the engine: the default cycle-accurate scheduler, or
/// ExecutionMode::kCompiledSchedule for the fast path (identical numbers,
/// see tests/test_schedule.cpp). Throws SimError if the batch does not
/// finish.
PerformanceMetrics measure_performance(const dfc::core::NetworkSpec& spec, std::size_t batch,
                                       std::uint64_t seed = 7,
                                       const dfc::hw::CostModel& cost = {},
                                       const dfc::hw::PowerModel& power = {},
                                       const dfc::core::BuildOptions& options = {});

struct BatchPoint {
  std::size_t batch = 0;
  double mean_us_per_image = 0.0;
  std::uint64_t total_cycles = 0;
  double p50_latency_us = 0.0;  ///< median per-image end-to-end latency
  double p99_latency_us = 0.0;  ///< tail latency — what batching trades away
};

/// Fig. 6 sweep: mean time per image for each batch size. Every point builds
/// its accelerator with `options`, so a compiled-schedule sweep pays one
/// calibration (shared via the schedule cache) and replays the rest.
std::vector<BatchPoint> batch_sweep(const dfc::core::NetworkSpec& spec,
                                    const std::vector<std::size_t>& batches,
                                    std::uint64_t seed = 7,
                                    const dfc::core::BuildOptions& options = {});

/// Sequential (non-pipelined) counterpart for the A1 ablation.
std::vector<BatchPoint> batch_sweep_sequential(const dfc::core::NetworkSpec& spec,
                                               const std::vector<std::size_t>& batches,
                                               std::uint64_t seed = 7,
                                               const dfc::core::BuildOptions& options = {});

}  // namespace dfc::report
