// dfcnn — command-line front end to the library.
//
// Usage:
//   dfcnn info      <design>                 describe, resources, timing
//   dfcnn dot       <design> [batch]         Graphviz block design to stdout;
//                                            with a batch count the design is
//                                            simulated first and edges carry
//                                            FIFO pressure annotations
//   dfcnn simulate  <design> [batch]         cycle-level batch simulation
//   dfcnn trace     <design> [batch] [--out trace.json] [--devices N]
//                   [--link-gbps X]          simulate under observation, write
//                                            a Perfetto JSON trace and print
//                                            every core's working / starved /
//                                            back-pressured / idle split; with
//                                            --devices N the design is cut
//                                            across N boards and the trace
//                                            holds every board plus one track
//                                            per inter-board link
//   dfcnn serve     <design> [requests] [rate] [replicas] [--metrics]
//                   [--seed S] [--rate R] [--boards B]
//                                            open-loop serving scenario
//                                            (rate in req/s, 0 = 80% of
//                                            estimated capacity); --metrics
//                                            prints the Prometheus-style
//                                            registry after the run; --seed
//                                            reseeds the arrival process;
//                                            --boards B > 1 serves from
//                                            multi-board replicas whose
//                                            service times are measured on
//                                            the partitioned interlink engine
//   dfcnn cluster   <design> [--nodes N] [--policy P] [--shape S]
//                   [--requests N] [--rate R] [--seed S] [--out report.json]
//                                            simulated multi-node fleet: load
//                                            balancer (round-robin |
//                                            least-loaded | weighted) over
//                                            interlink-priced network hops,
//                                            per-node autoscaled replica
//                                            pools (node 0 runs two-board
//                                            replicas), SLO-aware admission
//                                            with per-deadline-class tails;
//                                            S is a comma list of arrival
//                                            shapes (poisson | uniform |
//                                            diurnal | bursty), one scenario
//                                            each
//   dfcnn faults    <design> [--seed S] [--trials N] [--batch B]
//                   [--no-detect] [--out faults.csv]
//                                            fault-injection campaign: random
//                                            bit-flip/jam/drop/duplicate
//                                            faults on every FIFO, trials
//                                            classified masked / detected /
//                                            SDC / hang
//   dfcnn dse       <preset> [device]        automated port-plan exploration
//   dfcnn partition <design> <boards> [device]  multi-FPGA mapping
//   dfcnn multifpga <design> [--devices N] [--link-gbps X] [--batch B]
//                                            partition across N simulated
//                                            boards joined by credit-based
//                                            serial links and run the batch
//                                            end to end, checking logits
//                                            against the single-device engine
//   dfcnn profile   <design> [--devices N] [--batch B] [--link-gbps X]
//                   [--out report.json]      run under observation and print
//                                            the ranked bottleneck report
//                                            (Eq. 4 predicted vs observed II
//                                            per stage, link splits, verdict)
//   dfcnn check     <design> [--devices N] [--link-gbps X] [--credits C]
//                   [--json] [device]        static design verification: graph
//                                            structure, shape/port propagation,
//                                            Eq. 4 rate consistency, deadlock
//                                            freedom and the Table I resource
//                                            budget, without simulating a
//                                            cycle; exit 0 when clean, 1 when
//                                            any error-severity diagnostic
//                                            fires (codes DF001.., DESIGN.md
//                                            §13)
//   dfcnn export    <preset> <out.dfcnn>     save a compiled design artifact
//
// <design> is a preset name (usps | cifar | alexnet) or a .dfcnn file saved
// by `export` / core::save_spec_file. <device> is one of
// virtex7-485t (default) | virtex7-330t | kintex7-325t.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/metrics.hpp"
#include "common/table.hpp"
#include "core/block_design.hpp"
#include "core/harness.hpp"
#include "core/presets.hpp"
#include "core/spec_io.hpp"
#include "dse/explorer.hpp"
#include "hwmodel/power.hpp"
#include "multifpga/exec.hpp"
#include "multifpga/partition.hpp"
#include "obs/perfetto.hpp"
#include "obs/trace.hpp"
#include "fault/campaign.hpp"
#include "report/experiments.hpp"
#include "report/profile.hpp"
#include "serve/server.hpp"
#include "verify/verifier.hpp"

namespace {

using namespace dfc;

int usage() {
  std::fprintf(stderr,
               "usage: dfcnn <info|dot|simulate|trace|serve|cluster|faults|dse|partition|"
               "multifpga|profile|check|export> <design> [args]\n"
               "  designs: usps | cifar | alexnet | <path to .dfcnn file>\n"
               "  devices: virtex7-485t | virtex7-330t | kintex7-325t\n"
               "  dot:     dfcnn dot <design> [batch=0]   (batch > 0 simulates first and\n"
               "           annotates edges with FIFO pressure)\n"
               "  simulate: dfcnn simulate <design> [batch=32] [--compiled]\n"
               "           (--compiled replays the static schedule instead of stepping\n"
               "           cycles; identical results)\n"
               "  trace:   dfcnn trace <design> [batch=4] [--out trace.json]\n"
               "           [--devices N=1] [--link-gbps X=3.2]   (N > 1 cuts the design over\n"
               "           N boards; the trace adds one track per inter-board link)\n"
               "  serve:   dfcnn serve <design> [requests=2000] [rate_rps=0(auto)] "
               "[replicas=2]\n"
               "           [--metrics] [--seed S=7] [--rate R] [--trace spans.json]\n"
               "           [--boards B=1]   (B > 1 plans with multi-board replica timings)\n"
               "  cluster: dfcnn cluster <design> [--nodes N=4] [--policy "
               "round-robin|least-loaded|weighted]\n"
               "           [--shape diurnal,bursty] [--requests N=40000] [--rate R=2000000]\n"
               "           [--seed S=7] [--out report.json]\n"
               "  profile: dfcnn profile <design> [--devices N=1] [--batch B=16]\n"
               "           [--link-gbps X=3.2] [--out report.json]\n"
               "  faults:  dfcnn faults <design> [--seed S=1] [--trials N=64] [--batch B=4]\n"
               "           [--no-detect] [--out faults.csv]\n"
               "  multifpga: dfcnn multifpga <design> [--devices N=2] [--link-gbps X=3.2]\n"
               "           [--batch B=8]   (1 word/cycle = 3.2 Gbps @100 MHz)\n"
               "  check:   dfcnn check <design> [--devices N=1] [--link-gbps X=3.2]\n"
               "           [--credits C=0(auto)] [--json] [device]   static verification;\n"
               "           exit 0 clean, 1 on error diagnostics\n");
  return 2;
}

bool is_preset(const std::string& name) {
  return name == "usps" || name == "cifar" || name == "alexnet";
}

core::Preset load_preset(const std::string& name) {
  if (name == "usps") return core::make_usps_preset();
  if (name == "cifar") return core::make_cifar_preset();
  if (name == "alexnet") return core::make_alexnet_mini_preset();
  throw ConfigError("unknown preset '" + name + "'");
}

core::NetworkSpec load_design(const std::string& name) {
  if (is_preset(name)) return load_preset(name).compile_spec();
  return core::load_spec_file(name);
}

hw::Device load_device(const std::string& name) {
  if (name == "virtex7-485t" || name.empty()) return hw::virtex7_485t();
  if (name == "virtex7-330t") return hw::virtex7_330t();
  if (name == "kintex7-325t") return hw::kintex7_325t();
  throw ConfigError("unknown device '" + name + "'");
}

int cmd_info(const core::NetworkSpec& spec) {
  std::printf("%s\n", spec.describe().c_str());
  std::printf("%s\n", core::block_design_ascii(spec).c_str());
  const hw::Device dev = hw::virtex7_485t();
  const auto est = hw::estimate_design(spec);
  std::printf("resources: %s\n", est.total.str().c_str());
  std::printf("%s\n", hw::utilization_row(spec, dev).c_str());
  const auto timing = dse::estimate_timing(spec);
  std::printf("predicted interval: %lld cycles/image (%.0f images/s @100 MHz)\n",
              static_cast<long long>(timing.interval_cycles), timing.images_per_second());
  const hw::PowerModel power;
  std::printf("estimated power: %.1f W\n", power.estimate_watts(est.total));
  return 0;
}

int cmd_simulate(const core::NetworkSpec& spec, std::size_t batch, bool compiled) {
  core::BuildOptions options;
  if (compiled) options.execution_mode = core::ExecutionMode::kCompiledSchedule;
  const auto m = report::measure_performance(spec, batch, 7, {}, {}, options);
  AsciiTable t({"metric", "value"});
  t.add_row({"engine", compiled ? "compiled schedule" : "cycle accurate"});
  t.add_row({"batch", std::to_string(m.batch)});
  t.add_row({"total cycles", std::to_string(m.total_cycles)});
  t.add_row({"mean us/image", fmt_fixed(m.mean_us_per_image, 3)});
  t.add_row({"end-to-end latency (us)", fmt_fixed(m.end_to_end_latency_us, 3)});
  t.add_row({"steady interval (us)", fmt_fixed(m.steady_interval_us, 3)});
  t.add_row({"images/s", fmt_fixed(m.images_per_second, 0)});
  t.add_row({"GFLOPS", fmt_fixed(m.gflops, 2)});
  t.add_row({"GFLOPS/W", fmt_fixed(m.gflops_per_watt, 2)});
  std::printf("%s", t.render().c_str());
  return 0;
}

int cmd_dot(const core::NetworkSpec& spec, std::size_t batch) {
  if (batch == 0) {
    std::printf("%s", core::block_design_dot(spec).c_str());
    return 0;
  }
  core::AcceleratorHarness harness(core::build_accelerator(spec));
  // Observation makes consumers count empty-stall cycles on their input
  // FIFOs, so the annotated edges can show starvation, not just back-pressure.
  harness.observe();
  harness.run_batch(report::random_images(spec, batch));
  std::printf("%s", core::block_design_dot(spec, harness.accelerator()).c_str());
  return 0;
}

void write_trace_file(const obs::TraceSink& sink, const std::string& out_path) {
  std::ofstream out(out_path, std::ios::binary);
  DFC_REQUIRE(out.good(), "cannot open '" + out_path + "' for writing");
  obs::write_perfetto_trace(sink, out);
  out.flush();
  DFC_REQUIRE(out.good(), "failed writing trace to '" + out_path + "'");
}

int cmd_trace(const core::NetworkSpec& spec, std::size_t batch, std::size_t devices,
              double link_gbps, const std::string& out_path) {
  core::BuildOptions opts;
  opts.link = core::link_model_for_gbps(link_gbps);
  mfpga::MultiFpgaHarness harness(report::build_observed_design(spec, devices, opts));
  obs::TraceSink sink;
  harness.observe(&sink);
  const auto result = harness.run_batch(report::random_images(spec, batch));
  DFC_REQUIRE(result.ok(), "trace run did not complete: " + result.error);

  write_trace_file(sink, out_path);
  std::fprintf(stderr,
               "traced %s on %zu board(s): batch %zu, %llu cycles, %zu events (%llu dropped) "
               "-> %s\n",
               spec.name.c_str(), harness.device_count(), batch,
               static_cast<unsigned long long>(result.total_cycles()), sink.events().size(),
               static_cast<unsigned long long>(sink.dropped()), out_path.c_str());
  std::printf("%s",
              report::format_core_activity(report::read_observation(harness.accelerator()))
                  .c_str());
  return 0;
}

int cmd_profile(const core::NetworkSpec& spec, const report::ProfileOptions& options,
                const std::string& out_path) {
  const obs::BottleneckReport rep = report::profile_design(spec, options);
  std::printf("%s", rep.render().c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    DFC_REQUIRE(out.good(), "cannot open '" + out_path + "' for writing");
    out << rep.to_json();
    out.flush();
    DFC_REQUIRE(out.good(), "failed writing profile JSON to '" + out_path + "'");
    std::fprintf(stderr, "wrote profile JSON to %s\n", out_path.c_str());
  }
  return 0;
}

int cmd_serve(const core::NetworkSpec& spec, std::size_t requests, double rate_rps,
              std::size_t replicas, bool metrics, std::uint64_t seed,
              const std::string& trace_path, std::size_t boards) {
  serve::ServeConfig config;
  config.replicas = replicas;
  config.queue_capacity = 64;
  config.batcher.max_batch_size = 16;
  // Let the batcher wait at most the analytic time a full batch needs to
  // accumulate at capacity (Eq. 4 interval x batch size): near capacity the
  // size trigger closes batches first, under light load the timeout bounds
  // queueing delay.
  const auto timing = dse::estimate_timing(spec);
  config.batcher.max_wait_cycles =
      static_cast<std::uint64_t>(timing.interval_cycles) * config.batcher.max_batch_size;

  if (rate_rps <= 0.0) {
    rate_rps = 0.8 * static_cast<double>(replicas) * timing.images_per_second();
  }

  serve::LoadSpec load_spec;
  load_spec.arrivals = serve::ArrivalProcess::kPoisson;
  load_spec.rate_images_per_second = rate_rps;
  load_spec.request_count = requests;
  load_spec.seed = seed;

  dfc::MetricsRegistry registry;
  if (metrics) config.metrics = &registry;
  obs::TraceSink span_sink;
  if (!trace_path.empty()) config.trace = &span_sink;

  // One path for any board count: each replica spans `boards` boards, and
  // its service times are measured on that partition, so link
  // bandwidth/latency lands in the plan.
  serve::InferenceServer server(spec, config, boards);
  const serve::ServeReport report = server.run(serve::generate_load(spec, load_spec));

  if (!trace_path.empty()) {
    write_trace_file(span_sink, trace_path);
    std::fprintf(stderr, "wrote %zu request-span events to %s\n", span_sink.events().size(),
                 trace_path.c_str());
  }

  std::printf("serving %s: %zu requests, Poisson @ %.0f req/s, %zu replicas (%zu board%s), "
              "max_batch %zu, max_wait %llu cycles, queue %zu\n\n",
              spec.name.c_str(), requests, rate_rps, replicas, boards, boards == 1 ? "" : "s",
              config.batcher.max_batch_size,
              static_cast<unsigned long long>(config.batcher.max_wait_cycles),
              config.queue_capacity);
  std::printf("%s", report.stats.render().c_str());
  if (metrics) std::printf("\n%s", registry.expose_text().c_str());
  return 0;
}

serve::ArrivalProcess parse_shape(const std::string& name) {
  if (name == "poisson") return serve::ArrivalProcess::kPoisson;
  if (name == "uniform") return serve::ArrivalProcess::kUniform;
  if (name == "diurnal") return serve::ArrivalProcess::kDiurnal;
  if (name == "bursty") return serve::ArrivalProcess::kBursty;
  throw ConfigError("unknown arrival shape '" + name + "'");
}

cluster::RoutePolicy parse_policy(const std::string& name) {
  if (name == "round-robin" || name == "rr") return cluster::RoutePolicy::kRoundRobin;
  if (name == "least-loaded" || name == "ll") return cluster::RoutePolicy::kLeastLoaded;
  if (name == "weighted") return cluster::RoutePolicy::kWeighted;
  throw ConfigError("unknown routing policy '" + name + "'");
}

/// The reference fleet: node 0 serves from two-board replicas (and carries
/// weight 2 under the weighted policy), the rest are single-board; every
/// node sits behind symmetric interlink-priced hops.
cluster::ClusterConfig reference_cluster_config(const core::NetworkSpec& spec,
                                                std::size_t nodes,
                                                cluster::RoutePolicy policy) {
  cluster::ClusterConfig config;
  config.policy = policy;
  config.batcher.max_batch_size = 16;
  const auto timing = dse::estimate_timing(spec);
  config.batcher.max_wait_cycles =
      static_cast<std::uint64_t>(timing.interval_cycles) * config.batcher.max_batch_size;
  config.classes = cluster::default_deadline_classes();
  cluster::HopModel hop;
  hop.link.link = core::LinkModel{200, 1};  // 3.2 Gbps serializer, 2 us of flight
  for (std::size_t i = 0; i < nodes; ++i) {
    cluster::NodeConfig nc;
    nc.boards = i == 0 ? 2 : 1;
    nc.replicas = 2;
    nc.queue_capacity = 256;
    nc.weight = i == 0 ? 2 : 1;
    nc.ingress = hop;
    nc.egress = hop;
    config.nodes.push_back(nc);
  }
  return config;
}

int cmd_cluster(const core::NetworkSpec& spec, std::size_t nodes, cluster::RoutePolicy policy,
                const std::vector<serve::ArrivalProcess>& shapes, std::size_t requests,
                double rate_rps, std::uint64_t seed, const std::string& out_path) {
  DFC_REQUIRE(nodes > 0, "--nodes must be positive");
  DFC_REQUIRE(!shapes.empty(), "--shape needs at least one arrival shape");
  cluster::ClusterConfig config = reference_cluster_config(spec, nodes, policy);
  cluster::Cluster fleet(spec, config);

  std::string json = "{\n  \"design\": \"" + spec.name + "\",\n  \"scenarios\": [\n";
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    serve::LoadSpec load_spec;
    load_spec.arrivals = shapes[s];
    load_spec.rate_images_per_second = rate_rps;
    load_spec.request_count = requests;
    load_spec.seed = seed;
    const serve::Load load = serve::generate_load(spec, load_spec);
    const char* shape = serve::arrival_process_name(shapes[s]);
    const cluster::ClusterReport report = fleet.run(load, shape, shape);

    std::printf("cluster %s / %s: %zu nodes, policy %s, %zu requests @ %.0f req/s\n\n",
                spec.name.c_str(), shape, nodes, cluster::route_policy_name(policy), requests,
                rate_rps);
    std::printf("%s", report.stats.render().c_str());
    std::printf("\nverdict: %s\n\n", report.stats.verdict().c_str());

    std::string scenario = report.stats.to_json();
    json += "    " + scenario;
    json += s + 1 < shapes.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    DFC_REQUIRE(out.good(), "cannot open '" + out_path + "' for writing");
    out << json;
    out.flush();
    DFC_REQUIRE(out.good(), "failed writing cluster JSON to '" + out_path + "'");
    std::fprintf(stderr, "wrote cluster report to %s\n", out_path.c_str());
  }
  return 0;
}

int cmd_faults(const core::NetworkSpec& spec, const fault::CampaignConfig& config,
               const std::string& out_path) {
  const fault::CampaignResult result = fault::run_campaign(spec, config);
  std::printf("fault campaign on %s: %zu trials, seed %llu, batch %zu, detection %s\n\n",
              result.design.c_str(), config.trials,
              static_cast<unsigned long long>(config.seed), config.batch,
              config.detection ? "on" : "off");
  std::printf("%s", result.summary_table().c_str());
  std::printf("%s\n", result.classification_line().c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    DFC_REQUIRE(out.good(), "cannot open '" + out_path + "' for writing");
    out << result.csv();
    out.flush();
    DFC_REQUIRE(out.good(), "failed writing campaign CSV to '" + out_path + "'");
    std::fprintf(stderr, "wrote %zu trial rows to %s\n", result.trials.size(),
                 out_path.c_str());
  }
  return 0;
}

int cmd_dse(const std::string& preset_name, const std::string& device_name) {
  const core::Preset preset = load_preset(preset_name);
  dse::DseOptions opts;
  opts.device = load_device(device_name);
  const dse::DseResult res = dse::explore(preset.net, preset.input_shape, opts);
  std::printf("evaluated %zu plans, %zu fit %s\n", res.candidates_evaluated,
              res.candidates_fitting, opts.device.name.c_str());
  AsciiTable t({"plan (in/out per conv)", "interval (cy)", "images/s", "DSP"});
  for (const auto& cand : res.pareto) {
    std::string plan;
    for (std::size_t i = 0; i < cand.plan.conv.size(); ++i) {
      if (i) plan += ", ";
      plan += std::to_string(cand.plan.conv[i].in_ports) + "/" +
              std::to_string(cand.plan.conv[i].out_ports);
    }
    t.add_row({plan, std::to_string(cand.timing.interval_cycles),
               fmt_fixed(cand.timing.images_per_second(), 0),
               fmt_fixed(cand.resources.dsp, 0)});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}

int cmd_partition(const core::NetworkSpec& spec, std::size_t boards,
                  const std::string& device_name) {
  const hw::Device dev = load_device(device_name);
  const std::vector<hw::Device> devices(boards, dev);
  const auto plan = mfpga::partition_network(spec, devices);
  std::printf("%s", plan.describe(spec).c_str());
  return 0;
}

int cmd_multifpga(const core::NetworkSpec& spec, std::size_t devices, double link_gbps,
                  std::size_t batch) {
  const core::LinkModel link = core::link_model_for_gbps(link_gbps);

  const auto plan = mfpga::partition_network_exact(spec, devices, link);
  std::printf("%s", plan.describe(spec).c_str());
  std::printf("link: %.2f Gbps -> 1 word per %d cycle(s), latency %d cycles\n\n",
              link_gbps, link.cycles_per_word, link.latency_cycles);

  core::BuildOptions opts;
  opts.link = link;
  mfpga::MultiFpgaHarness multi(mfpga::build_multi_fpga(spec, plan.layer_device, opts));
  core::AcceleratorHarness single(core::build_accelerator(spec));

  const auto images = report::random_images(spec, batch);
  const auto rm = multi.run_batch(images);
  const auto rs = single.run_batch(images);
  DFC_REQUIRE(rm.ok(), "multi-FPGA run did not complete: " + rm.error);
  DFC_REQUIRE(rs.ok(), "single-device run did not complete");

  const bool identical = rm.outputs == rs.outputs;
  AsciiTable t({"metric", "multi-FPGA", "single device"});
  t.add_row({"devices", std::to_string(multi.device_count()), "1"});
  t.add_row({"total cycles", std::to_string(rm.total_cycles()),
             std::to_string(rs.total_cycles())});
  t.add_row({"steady interval (cy)", std::to_string(rm.steady_interval_cycles()),
             std::to_string(rs.steady_interval_cycles())});
  t.add_row({"image 0 latency (cy)", std::to_string(rm.image_latency_cycles(0)),
             std::to_string(rs.image_latency_cycles(0))});
  t.add_row({"link words/image",
             std::to_string(multi.accelerator().link_words_transferred() / batch), "-"});
  std::printf("%s", t.render().c_str());
  std::printf("predicted interval: %lld cycles/image, measured: %llu\n",
              static_cast<long long>(plan.timing.interval_cycles),
              static_cast<unsigned long long>(rm.steady_interval_cycles()));
  std::printf("logits identical to single-device: %s\n", identical ? "yes" : "NO");

  // The same cut on the compiled schedule: calibrated once on the cycle
  // engine, then replayed; cycles and logits must not move.
  core::BuildOptions compiled_opts = opts;
  compiled_opts.execution_mode = core::ExecutionMode::kCompiledSchedule;
  mfpga::MultiFpgaHarness replay(
      mfpga::build_multi_fpga(spec, plan.layer_device, compiled_opts));
  const auto rc = replay.run_batch(images);
  const bool replayed = rc.ok() && rc.inject_cycles == rm.inject_cycles &&
                        rc.completion_cycles == rm.completion_cycles && rc.outputs == rm.outputs;
  std::printf("compiled replay identical to cycle engine: %s\n", replayed ? "yes" : "NO");
  return identical && replayed ? 0 : 1;
}

int cmd_check(const core::NetworkSpec& spec, std::size_t devices, double link_gbps,
              int credits, bool json, const std::string& device_name) {
  DFC_REQUIRE(devices >= 1, "--devices must be at least 1");
  const core::LinkModel link = core::link_model_for_gbps(link_gbps);

  verify::VerifyOptions vopts;
  vopts.device = load_device(device_name);

  verify::VerifyReport rep;
  if (devices <= 1) {
    rep = verify::verify_design(spec, {}, vopts);
  } else {
    // Same partitioner as `dfcnn multifpga`: verify exactly the cut that
    // command would execute.
    core::BuildOptions opts;
    opts.link = link;
    const auto plan = mfpga::partition_network_exact(spec, devices, link, credits);
    rep = verify::verify_design_multi(spec, plan.layer_device, opts, credits, vopts);
  }
  if (json) {
    std::printf("%s\n", rep.to_json().c_str());
  } else {
    std::printf("%s", rep.render().c_str());
  }
  return rep.clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  const std::string design = argv[2];
  try {
    if (cmd == "info") return cmd_info(load_design(design));
    if (cmd == "dot") {
      const std::size_t batch = argc > 3 ? std::stoul(argv[3]) : 0;
      return cmd_dot(load_design(design), batch);
    }
    if (cmd == "simulate") {
      std::size_t batch = 32;
      bool compiled = false;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--compiled") == 0) {
          compiled = true;
        } else {
          batch = std::stoul(argv[i]);
        }
      }
      return cmd_simulate(load_design(design), batch, compiled);
    }
    if (cmd == "trace") {
      std::size_t batch = 4;
      std::size_t devices = 1;
      double link_gbps = 3.2;
      std::string out_path = "trace.json";
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
          out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--devices") == 0 && i + 1 < argc) {
          devices = std::stoul(argv[++i]);
        } else if (std::strcmp(argv[i], "--link-gbps") == 0 && i + 1 < argc) {
          link_gbps = std::stod(argv[++i]);
        } else {
          batch = std::stoul(argv[i]);
        }
      }
      return cmd_trace(load_design(design), batch, devices, link_gbps, out_path);
    }
    if (cmd == "serve") {
      bool metrics = false;
      std::uint64_t seed = 7;
      double flag_rate = -1.0;
      std::size_t boards = 1;
      std::string trace_path;
      std::vector<std::string> positional;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--metrics") == 0) {
          metrics = true;
        } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
          seed = std::stoull(argv[++i]);
        } else if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc) {
          flag_rate = std::stod(argv[++i]);
        } else if (std::strcmp(argv[i], "--boards") == 0 && i + 1 < argc) {
          boards = std::stoul(argv[++i]);
        } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
          trace_path = argv[++i];
        } else {
          positional.emplace_back(argv[i]);
        }
      }
      const std::size_t requests = positional.size() > 0 ? std::stoul(positional[0]) : 2000;
      double rate = positional.size() > 1 ? std::stod(positional[1]) : 0.0;
      if (flag_rate >= 0.0) rate = flag_rate;
      const std::size_t replicas = positional.size() > 2 ? std::stoul(positional[2]) : 2;
      return cmd_serve(load_design(design), requests, rate, replicas, metrics, seed,
                       trace_path, boards);
    }
    if (cmd == "cluster") {
      std::size_t nodes = 4;
      std::string policy = "least-loaded";
      std::string shape_list = "diurnal,bursty";
      std::size_t requests = 40'000;
      double rate = 2'000'000.0;
      std::uint64_t seed = 7;
      std::string out_path;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
          nodes = std::stoul(argv[++i]);
        } else if (std::strcmp(argv[i], "--policy") == 0 && i + 1 < argc) {
          policy = argv[++i];
        } else if (std::strcmp(argv[i], "--shape") == 0 && i + 1 < argc) {
          shape_list = argv[++i];
        } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
          requests = std::stoul(argv[++i]);
        } else if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc) {
          rate = std::stod(argv[++i]);
        } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
          seed = std::stoull(argv[++i]);
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
          out_path = argv[++i];
        } else {
          return usage();
        }
      }
      std::vector<serve::ArrivalProcess> shapes;
      std::size_t start = 0;
      while (start <= shape_list.size()) {
        const std::size_t comma = shape_list.find(',', start);
        const std::size_t end = comma == std::string::npos ? shape_list.size() : comma;
        if (end > start) shapes.push_back(parse_shape(shape_list.substr(start, end - start)));
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      return cmd_cluster(load_design(design), nodes, parse_policy(policy), shapes, requests,
                         rate, seed, out_path);
    }
    if (cmd == "faults") {
      fault::CampaignConfig config;
      std::string out_path;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
          config.seed = std::stoull(argv[++i]);
        } else if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) {
          config.trials = std::stoul(argv[++i]);
        } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
          config.batch = std::stoul(argv[++i]);
        } else if (std::strcmp(argv[i], "--no-detect") == 0) {
          config.detection = false;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
          out_path = argv[++i];
        } else {
          return usage();
        }
      }
      return cmd_faults(load_design(design), config, out_path);
    }
    if (cmd == "dse") return cmd_dse(design, argc > 3 ? argv[3] : "");
    if (cmd == "partition") {
      if (argc < 4) return usage();
      return cmd_partition(load_design(design), std::stoul(argv[3]),
                           argc > 4 ? argv[4] : "");
    }
    if (cmd == "multifpga") {
      std::size_t devices = 2;
      double link_gbps = 3.2;
      std::size_t batch = 8;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--devices") == 0 && i + 1 < argc) {
          devices = std::stoul(argv[++i]);
        } else if (std::strcmp(argv[i], "--link-gbps") == 0 && i + 1 < argc) {
          link_gbps = std::stod(argv[++i]);
        } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
          batch = std::stoul(argv[++i]);
        } else {
          return usage();
        }
      }
      return cmd_multifpga(load_design(design), devices, link_gbps, batch);
    }
    if (cmd == "profile") {
      report::ProfileOptions options;
      std::string out_path;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--devices") == 0 && i + 1 < argc) {
          options.devices = std::stoul(argv[++i]);
        } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
          options.batch = std::stoul(argv[++i]);
        } else if (std::strcmp(argv[i], "--link-gbps") == 0 && i + 1 < argc) {
          options.link_gbps = std::stod(argv[++i]);
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
          out_path = argv[++i];
        } else {
          return usage();
        }
      }
      return cmd_profile(load_design(design), options, out_path);
    }
    if (cmd == "check") {
      std::size_t devices = 1;
      double link_gbps = 3.2;
      int credits = 0;
      bool json = false;
      std::string device_name;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--devices") == 0 && i + 1 < argc) {
          devices = std::stoul(argv[++i]);
        } else if (std::strcmp(argv[i], "--link-gbps") == 0 && i + 1 < argc) {
          link_gbps = std::stod(argv[++i]);
        } else if (std::strcmp(argv[i], "--credits") == 0 && i + 1 < argc) {
          credits = std::stoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--json") == 0) {
          json = true;
        } else {
          device_name = argv[i];
        }
      }
      return cmd_check(load_design(design), devices, link_gbps, credits, json, device_name);
    }
    if (cmd == "export") {
      if (argc < 4 || !is_preset(design)) return usage();
      core::save_spec_file(load_preset(design).compile_spec(), argv[3]);
      std::printf("saved %s design to %s\n", design.c_str(), argv[3]);
      return 0;
    }
  } catch (const dfc::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
