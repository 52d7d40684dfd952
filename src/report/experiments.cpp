#include "report/experiments.hpp"

#include <algorithm>
#include <functional>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "report/sweep_runner.hpp"

namespace dfc::report {

using dfc::core::AcceleratorHarness;
using dfc::core::BatchResult;
using dfc::core::NetworkSpec;

std::vector<Tensor> random_images(const NetworkSpec& spec, std::size_t count,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> images;
  images.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Tensor t(spec.input_shape);
    for (float& v : t.flat()) v = rng.uniform(-1.0f, 1.0f);
    images.push_back(std::move(t));
  }
  return images;
}

namespace {
std::vector<std::uint64_t> image_latencies(const BatchResult& r) {
  std::vector<std::uint64_t> lat;
  lat.reserve(r.batch_size());
  for (std::size_t i = 0; i < r.batch_size(); ++i) lat.push_back(r.image_latency_cycles(i));
  return lat;
}
}  // namespace

PerformanceMetrics measure_performance(const NetworkSpec& spec, std::size_t batch,
                                       std::uint64_t seed, const dfc::hw::CostModel& cost,
                                       const dfc::hw::PowerModel& power,
                                       const dfc::core::BuildOptions& options) {
  AcceleratorHarness harness(dfc::core::build_accelerator(spec, options));
  const auto images = random_images(spec, batch, seed);
  const BatchResult r = harness.run_batch(images);
  if (!r.ok()) {
    throw SimError("measure_performance: " + spec.name + " batch " + std::to_string(batch) +
                   " did not finish (" + dfc::core::run_status_name(r.status) + "): " + r.error);
  }

  PerformanceMetrics m;
  m.name = spec.name;
  m.batch = batch;
  m.total_cycles = r.total_cycles();
  m.mean_us_per_image = dfc::core::cycles_to_us(r.mean_cycles_per_image());
  m.end_to_end_latency_us =
      dfc::core::cycles_to_us(static_cast<double>(r.image_latency_cycles(batch - 1)));
  if (batch >= 2) {
    m.steady_interval_us =
        dfc::core::cycles_to_us(static_cast<double>(r.steady_interval_cycles()));
  }
  const double seconds = dfc::core::cycles_to_seconds(static_cast<double>(r.total_cycles()));
  m.images_per_second = static_cast<double>(batch) / seconds;
  m.gflops = static_cast<double>(spec.flops_per_image()) * static_cast<double>(batch) /
             seconds / 1e9;
  m.watts = power.estimate_watts(dfc::hw::estimate_design(spec, cost).total);
  m.gflops_per_watt = m.gflops / m.watts;
  const LatencyPercentiles lp = latency_percentiles(image_latencies(r));
  m.p50_latency_us = dfc::core::cycles_to_us(static_cast<double>(lp.p50));
  m.p95_latency_us = dfc::core::cycles_to_us(static_cast<double>(lp.p95));
  m.p99_latency_us = dfc::core::cycles_to_us(static_cast<double>(lp.p99));
  return m;
}

namespace {
std::vector<BatchPoint> sweep_impl(const NetworkSpec& spec,
                                   const std::vector<std::size_t>& batches,
                                   std::uint64_t seed, bool sequential,
                                   const dfc::core::BuildOptions& options) {
  std::size_t max_batch = 0;
  for (std::size_t b : batches) max_batch = std::max(max_batch, b);
  const auto images = random_images(spec, max_batch, seed);

  // Each point simulates an independent accelerator instance, so the sweep
  // fans out across cores; images are shared read-only.
  std::vector<std::function<BatchPoint()>> jobs;
  jobs.reserve(batches.size());
  for (std::size_t b : batches) {
    jobs.push_back([&spec, &images, &options, b, sequential] {
      AcceleratorHarness harness(dfc::core::build_accelerator(spec, options));
      const std::vector<Tensor> slice(images.begin(),
                                      images.begin() + static_cast<std::ptrdiff_t>(b));
      const BatchResult r =
          sequential ? harness.run_sequential(slice) : harness.run_batch(slice);
      const LatencyPercentiles lp = latency_percentiles(image_latencies(r));
      return BatchPoint{b, dfc::core::cycles_to_us(r.mean_cycles_per_image()),
                        r.total_cycles(),
                        dfc::core::cycles_to_us(static_cast<double>(lp.p50)),
                        dfc::core::cycles_to_us(static_cast<double>(lp.p99))};
    });
  }
  return run_sweep<BatchPoint>(jobs);
}
}  // namespace

std::vector<BatchPoint> batch_sweep(const NetworkSpec& spec,
                                    const std::vector<std::size_t>& batches,
                                    std::uint64_t seed,
                                    const dfc::core::BuildOptions& options) {
  return sweep_impl(spec, batches, seed, false, options);
}

std::vector<BatchPoint> batch_sweep_sequential(const NetworkSpec& spec,
                                               const std::vector<std::size_t>& batches,
                                               std::uint64_t seed,
                                               const dfc::core::BuildOptions& options) {
  return sweep_impl(spec, batches, seed, true, options);
}

}  // namespace dfc::report
