// Tests for the cluster subsystem: network-hop timing and attribution,
// routing policies, deadline-class admission ordering under overload,
// autoscaler hysteresis on a step load, multi-board service tables,
// byte-determinism of the full report across DFCNN_SWEEP_THREADS, and pinned
// report bytes of the CLI's reference fleet under every routing policy.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/net_model.hpp"
#include "cluster/service_table.hpp"
#include "common/error.hpp"
#include "core/presets.hpp"
#include "dse/throughput_model.hpp"
#include "multifpga/exec.hpp"
#include "multifpga/partition.hpp"
#include "report/experiments.hpp"
#include "serve/load_generator.hpp"

namespace dfc::cluster {
namespace {

core::NetworkSpec usps_spec() { return core::make_usps_spec(3); }

// Restores DFCNN_SWEEP_THREADS on scope exit.
class ScopedSweepThreads {
 public:
  explicit ScopedSweepThreads(const char* value) {
    if (const char* old = std::getenv("DFCNN_SWEEP_THREADS")) old_ = old;
    ::setenv("DFCNN_SWEEP_THREADS", value, 1);
  }
  ~ScopedSweepThreads() {
    if (old_.empty()) {
      ::unsetenv("DFCNN_SWEEP_THREADS");
    } else {
      ::setenv("DFCNN_SWEEP_THREADS", old_.c_str(), 1);
    }
  }

 private:
  std::string old_;
};

std::vector<dfc::serve::Request> make_requests(std::size_t n, std::uint64_t gap,
                                               std::uint64_t start = 0) {
  std::vector<dfc::serve::Request> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    dfc::serve::Request r;
    r.id = i;
    r.arrival_cycle = start + gap * i;
    out.push_back(r);
  }
  return out;
}

/// Cheap synthetic fleet: 1-word payloads (hop occupancy stays tiny), no
/// autoscaler, one best-effort class, deep queues.
ClusterConfig synth_config(std::size_t nodes, std::size_t replicas = 1) {
  ClusterConfig config;
  for (std::size_t i = 0; i < nodes; ++i) {
    NodeConfig nc;
    nc.replicas = replicas;
    nc.queue_capacity = 8192;
    config.nodes.push_back(nc);
  }
  config.policy = RoutePolicy::kRoundRobin;
  config.batcher.max_batch_size = 1;
  config.autoscaler.enabled = false;
  config.request_words = 1;
  config.response_words = 1;
  return config;
}

/// One table per node: a size-n batch costs n * base cycles.
std::vector<std::vector<std::uint64_t>> synth_tables(std::size_t nodes, std::size_t max_batch,
                                                     std::uint64_t base) {
  std::vector<std::uint64_t> table;
  for (std::size_t n = 1; n <= max_batch; ++n) table.push_back(base * n);
  return std::vector<std::vector<std::uint64_t>>(nodes, table);
}

// --- network-hop model ---------------------------------------------------------

TEST(NetHopTest, UncreditedSerializationAndLatency) {
  HopModel model;
  model.link.link = core::LinkModel{10, 4};  // latency 10, 1 word / 4 cycles
  EXPECT_EQ(model.effective_cycles_per_word(), 4u);  // auto credits never throttle

  NetHop hop("h", model);
  // 4 words: first at the raw rate, rest at the (equal) effective rate.
  EXPECT_EQ(hop.transfer(0, 4), 16u + 10u);
  EXPECT_EQ(hop.busy_until(), 16u);
  const obs::LinkActivity a = hop.activity(100);
  EXPECT_EQ(a.wire_busy, 16u);
  EXPECT_EQ(a.credit_stall, 0u);
  EXPECT_EQ(a.idle, 84u);
  EXPECT_EQ(a.total(), 100u);
}

TEST(NetHopTest, CreditWindowThrottlesSustainedRate) {
  HopModel model;
  model.link.link = core::LinkModel{10, 1};
  model.link.credits = 4;  // round trip 20 / 4 credits -> 1 word per 5 cycles
  EXPECT_EQ(model.effective_cycles_per_word(), 5u);

  NetHop hop("h", model);
  // occupancy = 1 + 3 * 5 = 16; delivery adds the flight latency.
  EXPECT_EQ(hop.transfer(0, 4), 16u + 10u);
  const obs::LinkActivity a = hop.activity(16);
  EXPECT_EQ(a.wire_busy, 4u);       // 4 words at the raw serializer rate
  EXPECT_EQ(a.credit_stall, 12u);   // the rest is the credit window's fault
  EXPECT_EQ(a.idle, 0u);
  EXPECT_EQ(a.total(), 16u);
}

TEST(NetHopTest, FifoOccupancyQueuesTransfers) {
  HopModel model;
  model.link.link = core::LinkModel{5, 2};
  NetHop hop("h", model);
  EXPECT_EQ(hop.transfer(0, 3), 6u + 5u);   // busy until 6
  EXPECT_EQ(hop.transfer(2, 3), 12u + 5u);  // starts at 6, not 2
  EXPECT_EQ(hop.words_transferred(), 6u);
}

TEST(NetHopTest, RejectsOutOfOrderSchedules) {
  NetHop hop("h", HopModel{});
  hop.transfer(100, 1);
  EXPECT_THROW(hop.transfer(50, 1), dfc::Error);
}

// --- class assignment ----------------------------------------------------------

TEST(AssignClassesTest, DeterministicAndWeighted) {
  const std::vector<DeadlineClass> classes = {{"a", 0, 1}, {"b", 0, 3}};
  const auto c1 = assign_classes(4000, classes, 5);
  const auto c2 = assign_classes(4000, classes, 5);
  EXPECT_EQ(c1, c2);
  const auto c3 = assign_classes(4000, classes, 6);
  EXPECT_NE(c1, c3);
  std::size_t b = 0;
  for (const std::size_t c : c1) b += c;
  // Weight 3/4 of the traffic goes to class b (binomial, wide tolerance).
  EXPECT_GT(b, 4000u * 6 / 10);
  EXPECT_LT(b, 4000u * 9 / 10);
}

TEST(AssignClassesTest, EmptyOrSingleClassIsAllZeros) {
  EXPECT_EQ(assign_classes(8, {}, 7), std::vector<std::size_t>(8, 0));
  EXPECT_EQ(assign_classes(8, {DeadlineClass{}}, 7), std::vector<std::size_t>(8, 0));
}

// --- routing policies ----------------------------------------------------------

TEST(RoutingTest, RoundRobinSplitsEvenly) {
  const auto requests = make_requests(8, 1000);
  const ClusterConfig config = synth_config(2);
  const auto report = plan_cluster(requests, std::vector<std::size_t>(8, 0), config,
                                   synth_tables(2, 1, 500));
  EXPECT_EQ(report.stats.node_stats[0].routed, 4u);
  EXPECT_EQ(report.stats.node_stats[1].routed, 4u);
  EXPECT_EQ(report.stats.completed_requests, 8u);
}

TEST(RoutingTest, LeastLoadedSpreadsASimultaneousBurst) {
  // All 10 requests arrive in the same cycle: only the in-flight gauge can
  // tell the nodes apart, so reading it at each pick spreads the burst 5/5.
  const auto requests = make_requests(10, 0);
  ClusterConfig config = synth_config(2);
  config.policy = RoutePolicy::kLeastLoaded;
  const auto report = plan_cluster(requests, std::vector<std::size_t>(10, 0), config,
                                   synth_tables(2, 1, 500));
  EXPECT_EQ(report.stats.node_stats[0].routed, 5u);
  EXPECT_EQ(report.stats.node_stats[1].routed, 5u);
}

TEST(RoutingTest, WeightedFollowsNodeWeights) {
  const auto requests = make_requests(8, 1000);
  ClusterConfig config = synth_config(3);
  config.policy = RoutePolicy::kWeighted;
  config.nodes[0].weight = 2;
  const auto report = plan_cluster(requests, std::vector<std::size_t>(8, 0), config,
                                   synth_tables(3, 1, 500));
  EXPECT_EQ(report.stats.node_stats[0].routed, 4u);
  EXPECT_EQ(report.stats.node_stats[1].routed, 2u);
  EXPECT_EQ(report.stats.node_stats[2].routed, 2u);
}

// --- timeline invariants -------------------------------------------------------

TEST(PlanClusterTest, HopLatencyAndAttributionInvariants) {
  const auto requests = make_requests(64, 600);
  ClusterConfig config = synth_config(2);
  config.request_words = 4;
  config.response_words = 4;
  const auto report = plan_cluster(requests, std::vector<std::size_t>(64, 0), config,
                                   synth_tables(2, 1, 500));

  const auto latency =
      static_cast<std::uint64_t>(config.nodes[0].ingress.link.link.latency_cycles);
  for (const ClusterOutcome& o : report.outcomes) {
    ASSERT_EQ(o.shed, ClusterOutcome::Shed::kNone);
    EXPECT_GE(o.delivery_cycle, o.arrival_cycle + latency);
    EXPECT_GE(o.dispatch_cycle, o.delivery_cycle);
    EXPECT_EQ(o.completion_cycle - o.dispatch_cycle, 500u);
    EXPECT_GE(o.response_cycle, o.completion_cycle + latency);
  }
  for (const NodeStats& ns : report.stats.node_stats) {
    // Buckets sum exactly to the attribution window (the makespan), and the
    // words match the routed/completed payloads — the interlink contract.
    EXPECT_EQ(ns.ingress.activity.total(), report.stats.makespan_cycles);
    EXPECT_EQ(ns.egress.activity.total(), report.stats.makespan_cycles);
    EXPECT_EQ(ns.ingress.words, ns.routed * config.request_words);
    EXPECT_EQ(ns.egress.words, ns.completed * config.response_words);
    EXPECT_EQ(ns.ingress.activity.wire_busy,
              ns.ingress.words * static_cast<std::uint64_t>(
                                     config.nodes[0].ingress.link.link.cycles_per_word));
  }
}

TEST(PlanClusterTest, CreditStarvedHopsShowCreditStall) {
  const auto requests = make_requests(32, 100);
  ClusterConfig config = synth_config(1);
  config.request_words = 8;
  config.nodes[0].ingress.link.link = core::LinkModel{20, 1};
  config.nodes[0].ingress.link.credits = 1;  // 1 word per 40 cycles sustained
  const auto report = plan_cluster(requests, std::vector<std::size_t>(32, 0), config,
                                   synth_tables(1, 1, 50));
  const HopStats& in = report.stats.node_stats[0].ingress;
  EXPECT_GT(in.activity.credit_stall, 0u);
  EXPECT_EQ(in.activity.total(), report.stats.makespan_cycles);
}

TEST(PlanClusterTest, RejectsUnmeasuredTable) {
  const auto requests = make_requests(4, 100);
  ClusterConfig config = synth_config(1);
  config.batcher.max_batch_size = 4;
  EXPECT_THROW(plan_cluster(requests, std::vector<std::size_t>(4, 0), config,
                            {std::vector<std::uint64_t>{500, 900, 0, 1500}}),
               dfc::Error);
}

// --- SLO admission -------------------------------------------------------------

TEST(AdmissionTest, DeadlineClassesShedTightestFirstUnderOverload) {
  // One replica at 1000 cycles/request fed every 100 cycles: the backlog
  // grows ~900 cycles per arrival, so the 3k-cycle class busts first, the
  // 30k class later, and best-effort never deadline-sheds.
  const std::size_t n = 600;
  const auto requests = make_requests(n, 100);
  std::vector<std::size_t> class_of(n);
  for (std::size_t i = 0; i < n; ++i) class_of[i] = i % 3;
  ClusterConfig config = synth_config(1);
  config.classes = {{"tight", 3'000, 1}, {"mid", 30'000, 1}, {"loose", 0, 1}};
  const auto report =
      plan_cluster(requests, class_of, config, synth_tables(1, 1, 1000));

  const ClassStats& tight = report.stats.classes[0];
  const ClassStats& mid = report.stats.classes[1];
  const ClassStats& loose = report.stats.classes[2];
  EXPECT_EQ(tight.shed_overflow + mid.shed_overflow + loose.shed_overflow, 0u);
  EXPECT_GT(tight.shed_deadline, 0u);
  EXPECT_GT(mid.shed_deadline, 0u);
  EXPECT_EQ(loose.shed_deadline, 0u);
  const double tight_frac =
      static_cast<double>(tight.shed_deadline) / static_cast<double>(tight.offered);
  const double mid_frac =
      static_cast<double>(mid.shed_deadline) / static_cast<double>(mid.offered);
  EXPECT_GT(tight_frac, mid_frac);
  EXPECT_EQ(report.stats.shed_deadline, tight.shed_deadline + mid.shed_deadline);
}

TEST(AdmissionTest, QueueOverflowShedsWhenCapacityIsTiny) {
  const auto requests = make_requests(64, 10);
  ClusterConfig config = synth_config(1);
  config.nodes[0].queue_capacity = 2;
  const auto report = plan_cluster(requests, std::vector<std::size_t>(64, 0), config,
                                   synth_tables(1, 1, 10'000));
  EXPECT_GT(report.stats.shed_overflow, 0u);
  EXPECT_EQ(report.stats.shed_deadline, 0u);
  EXPECT_EQ(report.stats.completed_requests + report.stats.shed_overflow, 64u);
}

// --- autoscaler ----------------------------------------------------------------

TEST(AutoscalerTest, StepLoadScalesUpOnceWithoutThrash) {
  // Permanent overload at max scale: every scale-up is justified, and no
  // scale-down may fire while arrivals continue — so per node every +1
  // event must precede every -1 event (no up/down/up thrash train).
  const std::size_t n = 2000;
  const auto requests = make_requests(n, 150);
  ClusterConfig config = synth_config(1);
  config.autoscaler.enabled = true;
  config.autoscaler.max_replicas = 4;
  config.autoscaler.eval_interval_cycles = 5'000;
  config.autoscaler.warmup_cycles = 20'000;
  config.autoscaler.cooldown_cycles = 10'000;
  config.autoscaler.scale_up_depth = 4.0;
  config.autoscaler.scale_down_depth = 0.5;
  const auto report =
      plan_cluster(requests, std::vector<std::size_t>(n, 0), config, synth_tables(1, 1, 1000));

  const NodeStats& node = report.stats.node_stats[0];
  EXPECT_EQ(node.scale_ups, 3u);  // 1 -> 4, each step gated by the cooldown
  EXPECT_EQ(node.replicas_peak, 4u);
  bool saw_down = false;
  for (const ScaleEvent& ev : report.scale_events) {
    if (ev.delta < 0) saw_down = true;
    EXPECT_FALSE(saw_down && ev.delta > 0) << "scale-up after a scale-down: thrash";
  }
  EXPECT_EQ(report.stats.scale_events, report.scale_events.size());
  EXPECT_EQ(report.stats.completed_requests, n);  // overload queues, never drops
}

TEST(AutoscalerTest, SteadyLightLoadNeverScales) {
  const auto requests = make_requests(500, 2'000);  // far below one replica's capacity
  ClusterConfig config = synth_config(1);
  config.autoscaler.enabled = true;
  const auto report = plan_cluster(requests, std::vector<std::size_t>(500, 0), config,
                                   synth_tables(1, 1, 1000));
  EXPECT_EQ(report.stats.scale_events, 0u);
  EXPECT_EQ(report.stats.node_stats[0].replicas_peak, 1u);
}

// --- measured service tables ---------------------------------------------------

TEST(ServiceTableTest, MultiBoardTablesPriceTheInterlink) {
  const auto spec = usps_spec();
  const auto single = measure_service_table(spec, 1, 2);
  ASSERT_EQ(single.size(), 2u);
  EXPECT_GT(single[0], 0u);
  EXPECT_GE(single[1], single[0]);

  core::InterLinkModel fast;  // default: 1 word / 4 cycles, latency 40
  const auto two_fast = measure_service_table(spec, 2, 2, fast);
  core::InterLinkModel slow;
  slow.link = core::LinkModel{40, 16};
  const auto two_slow = measure_service_table(spec, 2, 2, slow);
  // The partitioned pipeline's batch time moves with link bandwidth — the
  // serve planner now sees interlink timing in its service tables.
  EXPECT_GT(two_slow[0], two_fast[0]);
  EXPECT_NE(two_fast[0], single[0]);
}

TEST(ServiceTableTest, MultiBoardTableMatchesAFreshHarnessPerSize) {
  // The table measures every batch size on one reused harness; each entry
  // must equal a freshly built design's run, which for a dataflow pipeline
  // is a fill latency plus one steady interval per further image.
  const struct {
    core::NetworkSpec spec;
    std::uint64_t fill;
    std::uint64_t interval;
  } cases[] = {{usps_spec(), 778, 256}, {core::make_cifar_spec(3), 10619, 9752}};
  const core::InterLinkModel link;
  constexpr std::size_t kMaxBatch = 16;
  for (const auto& c : cases) {
    const auto table = measure_service_table(c.spec, 2, kMaxBatch, link);
    ASSERT_EQ(table.size(), kMaxBatch);
    const auto plan = mfpga::partition_network_exact(c.spec, 2, link.link, link.credits);
    core::BuildOptions opts;
    opts.link = link.link;
    for (std::size_t n = 1; n <= kMaxBatch; ++n) {
      mfpga::MultiFpgaHarness fresh(
          mfpga::build_multi_fpga(c.spec, plan.layer_device, opts, link.credits));
      const auto r = fresh.run_batch(dfc::report::random_images(c.spec, n));
      ASSERT_TRUE(r.ok()) << r.error;
      EXPECT_EQ(table[n - 1], r.total_cycles()) << c.spec.name << " batch " << n;
      EXPECT_EQ(table[n - 1], c.fill + c.interval * (n - 1)) << c.spec.name << " batch " << n;
    }
  }
}

// --- end-to-end determinism ----------------------------------------------------

TEST(ClusterDeterminismTest, ReportBytesIdenticalAcrossSweepThreads) {
  const auto spec = usps_spec();
  ClusterConfig config;
  NodeConfig multi;
  multi.boards = 2;
  multi.replicas = 1;
  NodeConfig single;
  single.replicas = 1;
  config.nodes = {multi, single};
  config.policy = RoutePolicy::kLeastLoaded;
  config.batcher.max_batch_size = 4;
  config.classes = default_deadline_classes();
  config.autoscaler.enabled = true;
  config.autoscaler.max_replicas = 3;

  dfc::serve::LoadSpec load_spec;
  load_spec.arrivals = dfc::serve::ArrivalProcess::kDiurnal;
  load_spec.rate_images_per_second = 500'000.0;
  load_spec.request_count = 1'500;
  load_spec.distinct_images = 4;
  const dfc::serve::Load load = dfc::serve::generate_load(spec, load_spec);

  auto run_once = [&] {
    Cluster fleet(spec, config);
    return fleet.run(load, "determinism", "diurnal");
  };
  std::string csv1, csv4, json1, json4;
  {
    ScopedSweepThreads threads("1");
    const auto report = run_once();
    csv1 = report.csv();
    json1 = report.stats.to_json();
    EXPECT_GT(report.stats.completed_requests, 0u);
  }
  {
    ScopedSweepThreads threads("4");
    const auto report = run_once();
    csv4 = report.csv();
    json4 = report.stats.to_json();
  }
  EXPECT_EQ(csv1, csv4);
  EXPECT_EQ(json1, json4);
}

// --- pinned report bytes -------------------------------------------------------

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The fleet `dfcnn cluster` plans (tools/dfcnn_cli.cpp): four nodes, node 0
/// on two-board replicas with routing weight 2, least-loaded routing, the
/// three default SLO classes and 3.2 Gbps / 2 us hops.
ClusterConfig reference_fleet_config(const core::NetworkSpec& spec) {
  ClusterConfig config;
  config.policy = RoutePolicy::kLeastLoaded;
  config.batcher.max_batch_size = 16;
  config.batcher.max_wait_cycles =
      static_cast<std::uint64_t>(dse::estimate_timing(spec).interval_cycles) * 16;
  config.classes = default_deadline_classes();
  HopModel hop;
  hop.link.link = core::LinkModel{200, 1};
  for (std::size_t i = 0; i < 4; ++i) {
    NodeConfig nc;
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

TEST(ClusterPinTest, ReferenceFleetReportsMatchPinnedHashes) {
  // `dfcnn cluster usps` with its defaults: 40k requests per shape at
  // 2 Mreq/s, seed 7. Both runs scale nodes down as well as up (the diurnal
  // one has 93 scale events), so the pins cover replica retirement as well
  // as the timeline. They are the per-request CSV plus the scorecard JSON of
  // the planner before its event loop learned to skip retired replicas.
  const core::NetworkSpec spec = core::make_usps_preset().compile_spec();
  Cluster fleet(spec, reference_fleet_config(spec));
  const struct {
    dfc::serve::ArrivalProcess shape;
    std::uint64_t hash;
  } pins[] = {{dfc::serve::ArrivalProcess::kDiurnal, 0x2dca3a0427d1dc8dULL},
              {dfc::serve::ArrivalProcess::kBursty, 0xe876038c5f546b75ULL}};
  for (const auto& pin : pins) {
    dfc::serve::LoadSpec ls;
    ls.arrivals = pin.shape;
    ls.rate_images_per_second = 2'000'000.0;
    ls.request_count = 40'000;
    ls.seed = 7;
    const char* shape = dfc::serve::arrival_process_name(pin.shape);
    const ClusterReport report = fleet.run(dfc::serve::generate_load(spec, ls), shape, shape);
    std::size_t scale_downs = 0;
    for (const NodeStats& n : report.stats.node_stats) scale_downs += n.scale_downs;
    EXPECT_GT(scale_downs, 0u) << shape;
    EXPECT_EQ(fnv1a(report.csv() + report.stats.to_json()), pin.hash) << shape;
  }
}

TEST(ClusterPinTest, RoutingPoliciesMatchPinnedHashes) {
  // The same fleet and load under the other two routing policies: weighted
  // diurnal is the one reference run that sheds on queue overflow, and
  // round-robin bursty sheds on deadlines while the autoscaler works hard.
  const core::NetworkSpec spec = core::make_usps_preset().compile_spec();
  const struct {
    RoutePolicy policy;
    dfc::serve::ArrivalProcess shape;
    std::uint64_t shed_overflow;
    std::uint64_t shed_deadline;
    std::size_t scale_events;
    std::uint64_t hash;
  } pins[] = {
      {RoutePolicy::kWeighted, dfc::serve::ArrivalProcess::kDiurnal, 239, 1156, 30,
       0x73959a595d3e37a4ULL},
      {RoutePolicy::kRoundRobin, dfc::serve::ArrivalProcess::kBursty, 0, 1018, 91,
       0x254a319865549f33ULL}};
  for (const auto& pin : pins) {
    ClusterConfig config = reference_fleet_config(spec);
    config.policy = pin.policy;
    Cluster fleet(spec, config);
    dfc::serve::LoadSpec ls;
    ls.arrivals = pin.shape;
    ls.rate_images_per_second = 2'000'000.0;
    ls.request_count = 40'000;
    ls.seed = 7;
    const char* shape = dfc::serve::arrival_process_name(pin.shape);
    const ClusterReport report = fleet.run(dfc::serve::generate_load(spec, ls), shape, shape);
    EXPECT_EQ(report.stats.shed_overflow, pin.shed_overflow) << shape;
    EXPECT_EQ(report.stats.shed_deadline, pin.shed_deadline) << shape;
    EXPECT_EQ(report.stats.scale_events, pin.scale_events) << shape;
    EXPECT_EQ(fnv1a(report.csv() + report.stats.to_json()), pin.hash) << shape;
  }
}

}  // namespace
}  // namespace dfc::cluster
