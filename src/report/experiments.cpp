#include "report/experiments.hpp"

#include <algorithm>
#include <functional>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
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

std::vector<StageUtilization> pipeline_profile(const dfc::core::Accelerator& acc,
                                               std::uint64_t elapsed_cycles) {
  std::vector<StageUtilization> rows;
  const double denom = elapsed_cycles > 0 ? static_cast<double>(elapsed_cycles) : 1.0;
  for (const auto* core : acc.conv_cores) {
    rows.push_back({core->name(), core->work_cycles(),
                    static_cast<double>(core->work_cycles()) / denom});
  }
  for (const auto* core : acc.pool_cores) {
    rows.push_back({core->name(), core->work_cycles(),
                    static_cast<double>(core->work_cycles()) / denom});
  }
  for (const auto* core : acc.fcn_cores) {
    rows.push_back({core->name(), core->work_cycles(),
                    static_cast<double>(core->work_cycles()) / denom});
  }
  std::sort(rows.begin(), rows.end(),
            [](const StageUtilization& a, const StageUtilization& b) { return a.name < b.name; });
  return rows;
}

SteadyProfile pipeline_profile_steady(dfc::core::AcceleratorHarness& harness,
                                      const std::vector<Tensor>& images,
                                      std::uint64_t max_cycles) {
  DFC_REQUIRE(!images.empty(), "pipeline_profile_steady needs at least one image");
  auto& acc = harness.accelerator();
  harness.reset();
  const std::uint64_t start = acc.ctx->cycle();
  for (const Tensor& img : images) acc.source->enqueue(img);

  // Run to the first completion, snapshot every core's work counter (rows are
  // sorted by name, so warm-up and final rows align index-wise), then finish
  // the batch and profile only the steady window.
  acc.ctx->run_until([&] { return acc.sink->images_completed() >= 1; }, max_cycles);
  const auto warm = pipeline_profile(acc, 1);
  const std::uint64_t first_done = acc.sink->completion_cycles().front();
  const std::size_t want = images.size();
  acc.ctx->run_until([&] { return acc.sink->images_completed() >= want; }, max_cycles);

  SteadyProfile p;
  p.result.start_cycle = start;
  p.result.inject_cycles = acc.source->inject_cycles();
  p.result.completion_cycles = acc.sink->completion_cycles();
  p.result.outputs = acc.sink->outputs();
  p.result.end_cycle = p.result.completion_cycles.back();
  p.steady_cycles = p.result.end_cycle - first_done;

  const auto final_rows = pipeline_profile(acc, 1);
  const double denom = p.steady_cycles > 0 ? static_cast<double>(p.steady_cycles) : 1.0;
  p.rows.reserve(final_rows.size());
  for (std::size_t i = 0; i < final_rows.size(); ++i) {
    const std::uint64_t work = final_rows[i].work_cycles - warm[i].work_cycles;
    p.rows.push_back({final_rows[i].name, work, static_cast<double>(work) / denom});
  }
  return p;
}

std::vector<StageAttribution> stall_attribution(const dfc::core::Accelerator& acc) {
  std::vector<StageAttribution> rows;
  for (const auto* core : acc.conv_cores) rows.push_back({core->name(), core->activity()});
  for (const auto* core : acc.pool_cores) rows.push_back({core->name(), core->activity()});
  for (const auto* core : acc.fcn_cores) rows.push_back({core->name(), core->activity()});
  std::sort(rows.begin(), rows.end(),
            [](const StageAttribution& a, const StageAttribution& b) { return a.name < b.name; });
  return rows;
}

std::string format_stall_attribution(const dfc::core::Accelerator& acc) {
  const auto rows = stall_attribution(acc);
  AsciiTable t({"core", "cycles", "working", "starved", "back-pressured", "idle"});
  for (const auto& row : rows) {
    const std::uint64_t total = row.activity.total();
    const double denom = total > 0 ? static_cast<double>(total) : 1.0;
    t.add_row({row.name, std::to_string(total),
               fmt_percent(static_cast<double>(row.activity.working) / denom, 1),
               fmt_percent(static_cast<double>(row.activity.starved) / denom, 1),
               fmt_percent(static_cast<double>(row.activity.back_pressured) / denom, 1),
               fmt_percent(static_cast<double>(row.activity.idle) / denom, 1)});
  }
  return t.render();
}

}  // namespace dfc::report
