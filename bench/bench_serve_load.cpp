// Serving under open-loop load: offered rate x batcher policy.
//
// The serving counterpart of Fig. 6: batch pipelining amortizes per-image
// cost once the batch approaches the number of layers, and a dynamic
// batcher has to buy that amortization online without unbounded tail
// latency. This bench sweeps a Poisson arrival rate across the saturation
// point for three policies (no batching, dynamic batch 8, dynamic batch 16)
// and reports offered vs sustained throughput, shed counts and latency
// percentiles; serve_load_<name>.csv holds the full grid for plotting.
//
// Expected shapes:
//   * p99 latency rises sharply as the offered rate crosses the sustained
//     rate (queueing), and the sustained rate saturates;
//   * dynamic batching sustains a higher rate than batch=1 at high load —
//     the Fig. 6 amortization exploited online;
//   * batch=1 pays less latency at light load (no wait for peers).
#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/harness.hpp"
#include "core/presets.hpp"
#include "core/schedule.hpp"
#include "cluster/service_table.hpp"
#include "report/sweep_runner.hpp"
#include "serve/load_generator.hpp"
#include "serve/server.hpp"

int main() {
  using namespace dfc;

  const core::NetworkSpec spec = core::make_usps_spec();
  constexpr std::size_t kReplicas = 2;
  constexpr std::size_t kRequests = 3000;
  constexpr std::size_t kMaxBatch = 16;

  // One measured service table serves every scenario: entry n-1 is the
  // exact cycle cost of a size-n batch. Measuring is where the serve bench
  // spends its simulation time, so it runs on the compiled-schedule fast
  // path — after checking, once, that the fast path reproduces the cycle
  // engine's table exactly.
  core::BuildOptions compiled_options;
  compiled_options.execution_mode = core::ExecutionMode::kCompiledSchedule;
  core::clear_schedule_cache();

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<std::uint64_t> cycle_table =
      cluster::measure_service_table(spec, 1, kMaxBatch);
  const auto t1 = std::chrono::steady_clock::now();
  const std::vector<std::uint64_t> table =
      cluster::measure_service_table(spec, 1, kMaxBatch, {}, compiled_options);
  const auto t2 = std::chrono::steady_clock::now();
  const double warm_cycle_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double warm_compiled_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
  const bool tables_identical = table == cycle_table;

  // Nominal capacity: every replica serving back-to-back full batches.
  const double batch16_rps =
      static_cast<double>(kMaxBatch) / core::cycles_to_seconds(static_cast<double>(table[kMaxBatch - 1]));
  const double capacity_rps = static_cast<double>(kReplicas) * batch16_rps;

  struct Policy {
    const char* name;
    serve::BatcherPolicy batcher;
  };
  const std::vector<Policy> policies = {
      {"batch1", {1, 0}},
      {"dyn8", {8, table[7]}},     // wait at most one batch-8 service time
      {"dyn16", {16, table[15]}},  // wait at most one batch-16 service time
  };
  const std::vector<double> rate_multiples = {0.5, 0.7, 0.85, 0.95, 1.05, 1.2, 1.5, 2.0};

  std::printf("=== Serving under load: %s, %zu replicas, capacity ~%.0f req/s ===\n\n",
              spec.name.c_str(), kReplicas, capacity_rps);

  struct Point {
    std::string policy;
    double mult = 0.0;
    serve::ServeStats stats;
  };
  std::vector<std::function<Point()>> jobs;
  for (const Policy& p : policies) {
    for (const double mult : rate_multiples) {
      jobs.push_back([&spec, &table, &p, mult, capacity_rps] {
        serve::LoadSpec load_spec;
        load_spec.arrivals = serve::ArrivalProcess::kPoisson;
        load_spec.rate_images_per_second = mult * capacity_rps;
        load_spec.request_count = kRequests;
        load_spec.seed = 7;
        const serve::Load load = serve::generate_load(spec, load_spec);

        serve::ServeConfig config;
        config.replicas = kReplicas;
        config.queue_capacity = 64;
        config.batcher = p.batcher;
        const serve::ServeReport report = serve::plan_serving(load.requests, config, table);
        return Point{p.name, mult, report.stats};
      });
    }
  }
  const auto points = report::run_sweep<Point>(jobs);

  AsciiTable t({"policy", "rate x cap", "offered req/s", "sustained req/s", "shed",
                "mean batch", "p50 us", "p99 us"});
  CsvWriter csv("serve_load_" + spec.name + ".csv",
                {"policy", "max_batch", "max_wait_cycles", "rate_multiple", "offered_rps",
                 "sustained_rps", "completed", "shed", "mean_batch_size", "max_queue_depth",
                 "p50_latency_us", "p95_latency_us", "p99_latency_us"});
  auto us = [](std::uint64_t cycles) {
    return core::cycles_to_us(static_cast<double>(cycles));
  };
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& pt = points[i];
    const serve::ServeStats& s = pt.stats;
    const serve::BatcherPolicy& b = policies[i / rate_multiples.size()].batcher;
    t.add_row({pt.policy, fmt_fixed(pt.mult, 2), fmt_fixed(s.offered_rps, 0),
               fmt_fixed(s.sustained_rps, 0), std::to_string(s.shed_requests),
               fmt_fixed(s.mean_batch_size, 2), fmt_fixed(us(s.p50_latency_cycles), 2),
               fmt_fixed(us(s.p99_latency_cycles), 2)});
    csv.row_values(pt.policy, b.max_batch_size, b.max_wait_cycles, pt.mult, s.offered_rps,
                   s.sustained_rps, s.completed_requests, s.shed_requests, s.mean_batch_size,
                   s.max_queue_depth, us(s.p50_latency_cycles), us(s.p95_latency_cycles),
                   us(s.p99_latency_cycles));
  }
  csv.flush();
  std::printf("%s\n", t.render().c_str());

  // Shape checks.
  auto stats_of = [&](const char* policy, double mult) -> const serve::ServeStats& {
    for (const Point& pt : points) {
      if (pt.policy == policy && pt.mult == mult) return pt.stats;
    }
    std::fprintf(stderr, "missing sweep point %s x%.2f\n", policy, mult);
    std::abort();
  };
  const auto& dyn16_light = stats_of("dyn16", 0.5);
  const auto& dyn16_sat = stats_of("dyn16", 1.5);
  const auto& dyn16_over = stats_of("dyn16", 2.0);
  const auto& batch1_over = stats_of("batch1", 2.0);

  std::printf("Shape checks:\n");
  std::printf("  p99 rises as offered crosses sustained (dyn16 0.5x vs 1.5x): %s "
              "(%.1f -> %.1f us)\n",
              dyn16_sat.p99_latency_cycles > dyn16_light.p99_latency_cycles ? "yes" : "NO",
              us(dyn16_light.p99_latency_cycles), us(dyn16_sat.p99_latency_cycles));
  const double sat_ratio = dyn16_over.sustained_rps / dyn16_sat.sustained_rps;
  std::printf("  throughput saturates past capacity (2.0x vs 1.5x within 10%%): %s "
              "(ratio %.3f)\n",
              sat_ratio < 1.1 ? "yes" : "NO", sat_ratio);
  std::printf("  dynamic batching beats batch=1 at high load (2.0x): %s "
              "(%.0f vs %.0f req/s)\n",
              dyn16_over.sustained_rps > batch1_over.sustained_rps ? "yes" : "NO",
              dyn16_over.sustained_rps, batch1_over.sustained_rps);
  std::printf("  batch=1 sheds more than dyn16 at overload: %s (%llu vs %llu)\n",
              batch1_over.shed_requests > dyn16_over.shed_requests ? "yes" : "NO",
              static_cast<unsigned long long>(batch1_over.shed_requests),
              static_cast<unsigned long long>(dyn16_over.shed_requests));
  std::printf("  service table identical on both engines: %s\n",
              tables_identical ? "yes" : "NO");
  std::printf("  warm wall clock: cycle engine %.0f ms, compiled %.0f ms (%.1fx)\n",
              warm_cycle_ms, warm_compiled_ms, warm_cycle_ms / warm_compiled_ms);

  // Machine-readable summary for the CI regression gate: deterministic
  // metrics (service cycles, sustained rates) plus the wall-clock cost of
  // warming on each engine.
  if (std::FILE* json = std::fopen("BENCH_serve.json", "w")) {
    std::fprintf(json,
                 "{\n  \"design\": \"%s\",\n  \"replicas\": %zu,\n"
                 "  \"batch16_service_cycles\": %llu,\n"
                 "  \"capacity_rps\": %.1f,\n"
                 "  \"sustained_rps_dyn16_overload\": %.1f,\n"
                 "  \"sustained_rps_batch1_overload\": %.1f,\n"
                 "  \"warm_cycle_engine_wall_ms\": %.1f,\n"
                 "  \"warm_compiled_wall_ms\": %.1f,\n  \"warm_speedup\": %.2f,\n"
                 "  \"tables_identical\": %s\n}\n",
                 spec.name.c_str(), kReplicas,
                 static_cast<unsigned long long>(table[kMaxBatch - 1]), capacity_rps,
                 dyn16_over.sustained_rps, batch1_over.sustained_rps, warm_cycle_ms,
                 warm_compiled_ms, warm_cycle_ms / warm_compiled_ms,
                 tables_identical ? "true" : "false");
    std::fclose(json);
  } else {
    std::fprintf(stderr, "cannot open BENCH_serve.json\n");
    return 1;
  }
  return tables_identical ? 0 : 1;
}
