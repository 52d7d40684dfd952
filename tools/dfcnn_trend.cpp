// dfcnn_trend — per-PR performance-trajectory tool (see src/report/trend.hpp).
//
// Usage:
//   dfcnn_trend measure --label <name> [--out snapshot.json]
//       Run the hot benches on this machine, print the snapshot JSON (and
//       write it to --out). Committed under bench/history/<pr>.json.
//   dfcnn_trend check --baseline <snapshot.json> [--current <snapshot.json>]
//       [--max-regress F=0.10] [--simulate-regression F]
//       Compare a current run (measured now unless --current is given)
//       against a committed baseline on calibration-normalized wall time.
//       Exit 0 when no hot bench regressed more than the threshold, 1
//       otherwise. --simulate-regression inflates the current wall times by
//       the given fraction — CI uses it to prove the gate actually fails.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "cluster/cluster.hpp"
#include "cluster/service_table.hpp"
#include "common/error.hpp"

#include "core/harness.hpp"
#include "core/presets.hpp"
#include "multifpga/exec.hpp"
#include "multifpga/partition.hpp"
#include "report/experiments.hpp"
#include "report/trend.hpp"
#include "serve/server.hpp"

namespace {

using namespace dfc;

// Best-of-3 wall time: the minimum is the least noisy estimator of the true
// cost on a shared machine (scheduler hiccups only ever add time).
double wall_ms_of(const std::function<void()>& fn) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

// Runs one batch of a hot bench; a batch that does not finish is no
// measurement.
void run_finished(core::Harness& h, const std::vector<Tensor>& images) {
  const core::BatchResult r = h.run_batch(images);
  if (!r.ok()) {
    throw SimError(std::string("trend bench batch did not finish (") +
                   core::run_status_name(r.status) + "): " + r.error);
  }
}

// The hot benches: the paths whose speed the repo actually cares about —
// cycle engine, compiled fast path, lockstep multi-board executor, serving
// planner. Fixed seeds and sizes so every PR measures the same work.
report::TrendSnapshot measure_benches(const std::string& label) {
  report::TrendSnapshot snap;
  snap.label = label;
  snap.calibration_ms = report::run_calibration();

  // Workloads are sized so each bench clears the compare_trend noise floor
  // (~20 ms on a current machine) — a bench the floor exempts can never
  // trip the gate, so it would only be decoration.
  const core::NetworkSpec usps = core::make_usps_preset().compile_spec();
  const auto images = report::random_images(usps, 128);

  snap.benches.push_back({"usps_cycle_batch128", wall_ms_of([&] {
    core::AcceleratorHarness h(core::build_accelerator(usps));
    run_finished(h, images);
  })});

  snap.benches.push_back({"usps_compiled_batch64_x300", wall_ms_of([&] {
    core::BuildOptions opts;
    opts.execution_mode = core::ExecutionMode::kCompiledSchedule;
    core::AcceleratorHarness h(core::build_accelerator(usps, opts));
    const auto batch = report::random_images(usps, 64);
    for (int i = 0; i < 300; ++i) run_finished(h, batch);
  })});

  snap.benches.push_back({"usps_multifpga_2dev_batch128", wall_ms_of([&] {
    const core::LinkModel link{40, 1};
    const auto plan = mfpga::partition_network_exact(usps, 2, link);
    core::BuildOptions opts;
    opts.link = link;
    mfpga::MultiFpgaHarness h(mfpga::build_multi_fpga(usps, plan.layer_device, opts));
    run_finished(h, images);
  })});

  snap.benches.push_back({"usps_serve_5k", wall_ms_of([&] {
    serve::ServeConfig config;
    config.replicas = 2;
    config.queue_capacity = 64;
    config.batcher.max_batch_size = 16;
    config.batcher.max_wait_cycles = 4096;
    serve::LoadSpec load_spec;
    load_spec.arrivals = serve::ArrivalProcess::kPoisson;
    load_spec.rate_images_per_second = 4000.0;
    load_spec.request_count = 5000;
    load_spec.seed = 7;
    serve::InferenceServer server(usps, config);
    server.run(serve::generate_load(usps, load_spec));
  })});

  // Cluster planner steady state: tables and load are built once outside the
  // timed region, so the bench isolates plan_cluster — the per-request event
  // loop every fleet scenario rides on.
  {
    core::BuildOptions compiled;
    compiled.execution_mode = core::ExecutionMode::kCompiledSchedule;
    const auto table = cluster::measure_service_table(usps, 1, 16, {}, compiled);
    cluster::ClusterConfig config;
    config.policy = cluster::RoutePolicy::kLeastLoaded;
    config.batcher.max_batch_size = 16;
    config.batcher.max_wait_cycles = table[15];
    config.classes = cluster::default_deadline_classes();
    for (int i = 0; i < 4; ++i) config.nodes.push_back(cluster::NodeConfig{});
    serve::LoadSpec load_spec;
    load_spec.arrivals = serve::ArrivalProcess::kDiurnal;
    load_spec.rate_images_per_second = 2'000'000.0;
    load_spec.request_count = 60'000;
    load_spec.seed = 7;
    load_spec.distinct_images = 4;
    const serve::Load load = serve::generate_load(usps, load_spec);
    const auto class_of =
        cluster::assign_classes(load.requests.size(), config.classes, config.class_seed);
    const std::vector<std::vector<std::uint64_t>> tables(4, table);
    snap.benches.push_back({"usps_cluster_plan_60k_x4", wall_ms_of([&] {
      for (int i = 0; i < 4; ++i) {
        cluster::plan_cluster(load.requests, class_of, config, tables);
      }
    })});
  }

  return snap;
}

report::TrendSnapshot load_snapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DFC_REQUIRE(in.good(), "cannot open snapshot '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return report::TrendSnapshot::from_json(ss.str());
}

int usage() {
  std::fprintf(stderr,
               "usage: dfcnn_trend measure --label <name> [--out snapshot.json]\n"
               "       dfcnn_trend check --baseline <snapshot.json> [--current "
               "<snapshot.json>]\n"
               "                   [--max-regress F=0.10] [--simulate-regression F]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "measure") {
      std::string label = "snapshot";
      std::string out_path;
      for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
          label = argv[++i];
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
          out_path = argv[++i];
        } else {
          return usage();
        }
      }
      const report::TrendSnapshot snap = measure_benches(label);
      const std::string json = snap.to_json();
      std::printf("%s", json.c_str());
      if (!out_path.empty()) {
        std::ofstream out(out_path, std::ios::binary);
        DFC_REQUIRE(out.good(), "cannot open '" + out_path + "' for writing");
        out << json;
        out.flush();
        DFC_REQUIRE(out.good(), "failed writing snapshot to '" + out_path + "'");
        std::fprintf(stderr, "wrote snapshot to %s\n", out_path.c_str());
      }
      return 0;
    }
    if (cmd == "check") {
      std::string baseline_path;
      std::string current_path;
      double max_regress = 0.10;
      double simulate = 0.0;
      for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
          baseline_path = argv[++i];
        } else if (std::strcmp(argv[i], "--current") == 0 && i + 1 < argc) {
          current_path = argv[++i];
        } else if (std::strcmp(argv[i], "--max-regress") == 0 && i + 1 < argc) {
          max_regress = std::stod(argv[++i]);
        } else if (std::strcmp(argv[i], "--simulate-regression") == 0 && i + 1 < argc) {
          simulate = std::stod(argv[++i]);
        } else {
          return usage();
        }
      }
      if (baseline_path.empty()) return usage();
      const report::TrendSnapshot base = load_snapshot(baseline_path);
      report::TrendSnapshot current =
          current_path.empty() ? measure_benches("current") : load_snapshot(current_path);
      if (simulate > 0.0) {
        for (auto& b : current.benches) b.wall_ms *= 1.0 + simulate;
        std::fprintf(stderr, "simulating a %.0f%% regression on every bench\n",
                     simulate * 100.0);
      }
      const report::TrendComparison cmp =
          report::compare_trend(base, current, max_regress);
      std::printf("baseline %s (calibration %.1f ms) vs current %s (calibration %.1f ms)\n",
                  base.label.c_str(), base.calibration_ms, current.label.c_str(),
                  current.calibration_ms);
      std::printf("%s", cmp.render().c_str());
      return cmp.ok ? 0 : 1;
    }
  } catch (const dfc::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return usage();
}
