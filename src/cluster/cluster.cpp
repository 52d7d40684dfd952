#include "cluster/cluster.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/harness.hpp"
#include "cluster/service_table.hpp"

namespace dfc::cluster {

namespace {

constexpr std::uint64_t kNever = dfc::serve::DynamicBatcher::kNever;
constexpr std::size_t kNoBatch = ~std::size_t{0};

enum class ReplicaState : std::uint8_t { kActive, kWarming, kDraining, kRetired };

struct ReplicaSlot {
  ReplicaState state = ReplicaState::kActive;
  std::uint64_t busy_until = 0;
  std::uint64_t ready_at = 0;          ///< kWarming: promotion cycle
  std::size_t batch = kNoBatch;        ///< in-flight batch id
  std::vector<std::uint64_t> riders;   ///< request ids of the in-flight batch
};

struct WireDelivery {
  std::uint64_t cycle = 0;  ///< arrival at the node (monotone per hop)
  std::uint64_t id = 0;
};

struct QueuedRequest {
  std::uint64_t id = 0;
  std::uint64_t queued_at = 0;  ///< delivery cycle — the batcher ages from here
};

struct NodeState {
  NodeState(NetHop ingress, NetHop egress) : in(std::move(ingress)), out(std::move(egress)) {}

  NetHop in;
  NetHop out;
  std::deque<WireDelivery> wire;    ///< routed, still in flight towards the node
  std::deque<QueuedRequest> queue;  ///< delivered, waiting for a batch
  /// Every slot the node ever had. A slot's index is the `replica` the CSV
  /// reports, so retired slots stay in place and the vector never shrinks.
  std::vector<ReplicaSlot> replicas;
  /// Ascending indices of the slots not yet retired: every per-event walk
  /// goes through these, so a long run's retired slots cost nothing.
  std::vector<std::size_t> live;

  std::uint64_t next_eval = kNever;
  std::uint64_t last_action = 0;
  bool acted = false;  ///< last_action is meaningful

  dfc::Gauge* depth_gauge = nullptr;
  dfc::Gauge* inflight_gauge = nullptr;
  dfc::Gauge* active_gauge = nullptr;
  dfc::Counter* routed_counter = nullptr;
  dfc::Counter* shed_counter = nullptr;

  // Scorecard accumulators.
  std::size_t routed = 0;
  std::size_t completed = 0;
  std::uint64_t shed_overflow = 0;
  std::uint64_t shed_deadline = 0;
  std::size_t batches = 0;
  std::uint64_t busy_cycles = 0;
  std::size_t peak_replicas = 0;
  std::size_t scale_ups = 0;
  std::size_t scale_downs = 0;

  void add_slot(ReplicaSlot slot) {
    live.push_back(replicas.size());
    replicas.push_back(std::move(slot));
  }
  void retire(std::size_t r) {
    replicas[r].state = ReplicaState::kRetired;
    live.erase(std::find(live.begin(), live.end(), r));
  }

  std::size_t active_count() const {
    std::size_t n = 0;
    for (const std::size_t r : live) n += replicas[r].state == ReplicaState::kActive ? 1 : 0;
    return n;
  }
  std::size_t usable_count() const {  ///< active + warming (provisioned capacity)
    std::size_t n = 0;
    for (const std::size_t r : live) n += replicas[r].state != ReplicaState::kDraining ? 1 : 0;
    return n;
  }
};

/// Smooth weighted round-robin (deterministic, maximally interleaved): each
/// pick adds every node's weight to its current score, takes the highest
/// score (ties: lowest index), then subtracts the weight total from it.
class SmoothWrr {
 public:
  explicit SmoothWrr(const std::vector<NodeConfig>& nodes) : current_(nodes.size(), 0) {
    for (const NodeConfig& n : nodes) {
      weights_.push_back(static_cast<std::int64_t>(n.weight));
      total_ += static_cast<std::int64_t>(n.weight);
    }
  }

  std::size_t pick() {
    std::size_t best = 0;
    for (std::size_t i = 0; i < current_.size(); ++i) {
      current_[i] += weights_[i];
      if (current_[i] > current_[best]) best = i;
    }
    current_[best] -= total_;
    return best;
  }

 private:
  std::vector<std::int64_t> weights_;
  std::vector<std::int64_t> current_;
  std::int64_t total_ = 0;
};

}  // namespace

const char* route_policy_name(RoutePolicy p) {
  switch (p) {
    case RoutePolicy::kRoundRobin: return "round-robin";
    case RoutePolicy::kLeastLoaded: return "least-loaded";
    case RoutePolicy::kWeighted: return "weighted";
  }
  return "?";
}

std::vector<DeadlineClass> default_deadline_classes() {
  return {
      {"interactive", 25'000, 3},  // 250 us end-to-end SLO
      {"standard", 100'000, 5},    // 1 ms
      {"batch", 0, 2},             // best-effort
  };
}

void ClusterConfig::validate() const {
  DFC_REQUIRE(!nodes.empty(), "cluster needs at least one node");
  DFC_REQUIRE(batcher.max_batch_size > 0, "batcher max batch size must be positive");
  DFC_REQUIRE(request_words > 0 && response_words > 0, "payload word counts must be positive");
  for (const NodeConfig& n : nodes) {
    DFC_REQUIRE(n.replicas > 0, "every node needs at least one replica");
    DFC_REQUIRE(n.queue_capacity > 0, "node queue capacity must be positive");
    DFC_REQUIRE(n.weight > 0, "node weight must be positive");
    n.ingress.validate();
    n.egress.validate();
  }
  if (autoscaler.enabled) {
    DFC_REQUIRE(autoscaler.eval_interval_cycles > 0, "autoscaler eval interval must be positive");
    DFC_REQUIRE(autoscaler.scale_up_depth > autoscaler.scale_down_depth,
                "autoscaler hysteresis needs scale_up_depth > scale_down_depth");
    for (const NodeConfig& n : nodes) {
      DFC_REQUIRE(n.replicas <= autoscaler.max_replicas,
                  "node starts above the autoscaler replica ceiling");
    }
  }
  for (const DeadlineClass& c : classes) {
    DFC_REQUIRE(c.traffic_weight > 0, "deadline class traffic weight must be positive");
  }
  board_link.validate();
}

std::vector<std::size_t> assign_classes(std::size_t count,
                                        const std::vector<DeadlineClass>& classes,
                                        std::uint64_t seed) {
  std::vector<std::size_t> out(count, 0);
  if (classes.size() <= 1) return out;
  std::uint64_t total = 0;
  for (const DeadlineClass& c : classes) total += c.traffic_weight;
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t draw = rng.next_below(total);
    for (std::size_t c = 0; c < classes.size(); ++c) {
      if (draw < classes[c].traffic_weight) {
        out[i] = c;
        break;
      }
      draw -= classes[c].traffic_weight;
    }
  }
  return out;
}

ClusterReport plan_cluster(const std::vector<dfc::serve::Request>& requests,
                           const std::vector<std::size_t>& class_of,
                           const ClusterConfig& config,
                           const std::vector<std::vector<std::uint64_t>>& tables) {
  config.validate();
  DFC_REQUIRE(!requests.empty(), "plan_cluster needs at least one request");
  DFC_REQUIRE(class_of.size() == requests.size(), "class_of must cover every request");
  DFC_REQUIRE(tables.size() == config.nodes.size(), "one service table per node");
  const std::vector<DeadlineClass> classes =
      config.classes.empty() ? std::vector<DeadlineClass>{DeadlineClass{}} : config.classes;
  const std::size_t max_batch = config.batcher.max_batch_size;
  for (std::size_t node = 0; node < tables.size(); ++node) {
    DFC_REQUIRE(tables[node].size() >= max_batch,
                "node " + std::to_string(node) + " service table must cover the max batch size");
    for (std::size_t n = 0; n < max_batch; ++n) {
      DFC_REQUIRE(tables[node][n] > 0, "node " + std::to_string(node) +
                                           " service table entry for batch size " +
                                           std::to_string(n + 1) + " is unmeasured");
    }
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    DFC_REQUIRE(requests[i].id == i, "request ids must equal their index");
    DFC_REQUIRE(i == 0 || requests[i - 1].arrival_cycle <= requests[i].arrival_cycle,
                "requests must be sorted by arrival cycle");
    DFC_REQUIRE(class_of[i] < classes.size(), "request assigned to unknown deadline class");
  }

  // The gauges the least-loaded policy and the autoscaler read. An internal
  // registry backs them when the caller does not supply one; either way the
  // values are pure functions of the simulated timeline, hence deterministic.
  dfc::MetricsRegistry local_metrics;
  dfc::MetricsRegistry& metrics =
      config.metrics != nullptr ? *config.metrics : local_metrics;

  const dfc::serve::DynamicBatcher batcher(config.batcher);
  const std::uint64_t first_arrival = requests.front().arrival_cycle;

  std::vector<NodeState> nodes;
  nodes.reserve(config.nodes.size());
  for (std::size_t i = 0; i < config.nodes.size(); ++i) {
    const NodeConfig& nc = config.nodes[i];
    NodeState ns(NetHop("node" + std::to_string(i) + ".in", nc.ingress),
                 NetHop("node" + std::to_string(i) + ".out", nc.egress));
    for (std::size_t r = 0; r < nc.replicas; ++r) ns.add_slot(ReplicaSlot{});
    ns.peak_replicas = nc.replicas;
    if (config.autoscaler.enabled) {
      ns.next_eval = first_arrival + config.autoscaler.eval_interval_cycles;
    }
    const std::string prefix = "cluster_node" + std::to_string(i) + "_";
    ns.depth_gauge = &metrics.gauge(prefix + "queue_depth", "Requests queued on the node");
    ns.inflight_gauge = &metrics.gauge(
        prefix + "inflight", "Routed requests on the wire or in service (not queued)");
    ns.active_gauge = &metrics.gauge(prefix + "replicas_active", "Active replicas");
    ns.active_gauge->set(static_cast<double>(nc.replicas));
    ns.routed_counter = &metrics.counter(prefix + "routed_total", "Requests routed to the node");
    ns.shed_counter = &metrics.counter(prefix + "shed_total", "Requests shed by the node");
    nodes.push_back(std::move(ns));
  }

  ClusterReport report;
  report.outcomes.resize(requests.size());
  for (const dfc::serve::Request& r : requests) {
    report.outcomes[r.id].id = r.id;
    report.outcomes[r.id].deadline_class = class_of[r.id];
    report.outcomes[r.id].arrival_cycle = r.arrival_cycle;
  }

  std::size_t rr_next = 0;
  SmoothWrr wrr(config.nodes);
  auto route = [&]() -> std::size_t {
    switch (config.policy) {
      case RoutePolicy::kRoundRobin: {
        const std::size_t n = rr_next;
        rr_next = (rr_next + 1) % nodes.size();
        return n;
      }
      case RoutePolicy::kLeastLoaded: {
        // Queue depth plus wire/service in-flight = everything already
        // committed to the node; read through the gauges, not the planner
        // state, so any external controller sees the same signal.
        std::size_t best = 0;
        double best_score = 0.0;
        for (std::size_t i = 0; i < nodes.size(); ++i) {
          const double score =
              nodes[i].depth_gauge->value() + nodes[i].inflight_gauge->value();
          if (i == 0 || score < best_score) {
            best = i;
            best_score = score;
          }
        }
        return best;
      }
      case RoutePolicy::kWeighted: return wrr.pick();
    }
    return 0;
  };

  std::size_t batch_counter = 0;
  std::size_t next_arrival = 0;
  std::uint64_t now = first_arrival;
  std::uint64_t last_response = first_arrival;

  // 1. Finalize batches whose service interval ended: each rider's response
  // takes the egress hop home (one serialized transfer per response, rider
  // id order); draining replicas retire once their last batch lands.
  auto finalize_completions = [&](NodeState& ns) {
    std::size_t i = 0;
    while (i < ns.live.size()) {
      const std::size_t r = ns.live[i];
      ReplicaSlot& slot = ns.replicas[r];
      if (slot.batch != kNoBatch && slot.busy_until <= now) {
        for (const std::uint64_t id : slot.riders) {
          ClusterOutcome& o = report.outcomes[id];
          o.response_cycle = ns.out.transfer(now, config.response_words);
          last_response = std::max(last_response, o.response_cycle);
          ++ns.completed;
        }
        ns.inflight_gauge->add(-static_cast<double>(slot.riders.size()));
        slot.riders.clear();
        slot.batch = kNoBatch;
        if (slot.state == ReplicaState::kDraining) {
          ns.retire(r);  // the next live slot moves into position i
          continue;
        }
      }
      ++i;
    }
  };

  auto record_scale = [&](std::size_t node, int delta) {
    NodeState& ns = nodes[node];
    report.scale_events.push_back(ScaleEvent{now, node, delta, ns.usable_count()});
    ns.last_action = now;
    ns.acted = true;
    ns.peak_replicas = std::max(ns.peak_replicas, ns.usable_count());
    ns.active_gauge->set(static_cast<double>(ns.active_count()));
  };

  // 2. Promote warmed replicas, then run due autoscaler evaluations. The
  // scale-up test counts warming replicas as capacity and a cooldown gates
  // consecutive actions — together the hysteresis that keeps a load step
  // from triggering a thrash train.
  auto autoscale = [&](std::size_t node) {
    NodeState& ns = nodes[node];
    for (const std::size_t r : ns.live) {
      ReplicaSlot& slot = ns.replicas[r];
      if (slot.state == ReplicaState::kWarming && slot.ready_at <= now) {
        slot.state = ReplicaState::kActive;
        ns.active_gauge->set(static_cast<double>(ns.active_count()));
      }
    }
    if (!config.autoscaler.enabled || ns.next_eval > now) return;
    while (ns.next_eval <= now) ns.next_eval += config.autoscaler.eval_interval_cycles;
    if (ns.acted && now - ns.last_action < config.autoscaler.cooldown_cycles) return;

    const double depth = static_cast<double>(ns.queue.size());
    const std::size_t active = ns.active_count();
    const std::size_t usable = ns.usable_count();
    if (depth > config.autoscaler.scale_up_depth * static_cast<double>(usable) &&
        usable < config.autoscaler.max_replicas) {
      ReplicaSlot slot;
      slot.state = ReplicaState::kWarming;
      slot.ready_at = now + config.autoscaler.warmup_cycles;
      ns.add_slot(std::move(slot));
      ++ns.scale_ups;
      record_scale(node, +1);
    } else if (depth < config.autoscaler.scale_down_depth * static_cast<double>(active) &&
               active == usable && active > config.nodes[node].replicas) {
      // Drain the highest-index active replica: no new batches; it retires
      // when the in-flight one lands (immediately when idle).
      for (auto it = ns.live.rbegin(); it != ns.live.rend(); ++it) {
        ReplicaSlot& slot = ns.replicas[*it];
        if (slot.state != ReplicaState::kActive) continue;
        if (slot.batch == kNoBatch) {
          ns.retire(*it);
        } else {
          slot.state = ReplicaState::kDraining;
        }
        break;
      }
      ++ns.scale_downs;
      record_scale(node, -1);
    }
  };

  // 4. Deliveries off the ingress wire: admission runs where the queue
  // lives. Queue overflow sheds first; then the SLO check predicts this
  // request's completion from the node's current backlog and sheds it if the
  // prediction misses its class deadline — so under overload the tightest
  // class sheds first (its deadline busts at the smallest backlog).
  auto deliver_due = [&](std::size_t node) {
    NodeState& ns = nodes[node];
    const std::vector<std::uint64_t>& table = tables[node];
    while (!ns.wire.empty() && ns.wire.front().cycle <= now) {
      const WireDelivery d = ns.wire.front();
      ns.wire.pop_front();
      ClusterOutcome& o = report.outcomes[d.id];
      o.delivery_cycle = d.cycle;
      if (ns.queue.size() >= config.nodes[node].queue_capacity) {
        o.shed = ClusterOutcome::Shed::kOverflow;
        ++ns.shed_overflow;
        ns.shed_counter->inc();
        ns.inflight_gauge->add(-1.0);
        continue;
      }
      const DeadlineClass& cls = classes[o.deadline_class];
      if (cls.deadline_cycles > 0) {
        const std::size_t active = std::max<std::size_t>(ns.active_count(), 1);
        double backlog = 0.0;
        for (const std::size_t r : ns.live) {
          const ReplicaSlot& slot = ns.replicas[r];
          if (slot.state == ReplicaState::kActive && slot.busy_until > now) {
            backlog += static_cast<double>(slot.busy_until - now);
          }
        }
        // Queued work amortizes at the max-batch per-request rate; this
        // request then pays one full service interval and the trip home.
        backlog += static_cast<double>(ns.queue.size()) *
                   (static_cast<double>(table[max_batch - 1]) / static_cast<double>(max_batch));
        const double est_completion =
            static_cast<double>(now) + backlog / static_cast<double>(active) +
            static_cast<double>(table[0]) +
            static_cast<double>(config.response_words * ns.out.model().effective_cycles_per_word() +
                                static_cast<std::uint64_t>(ns.out.model().link.link.latency_cycles));
        if (est_completion > static_cast<double>(o.arrival_cycle + cls.deadline_cycles)) {
          o.shed = ClusterOutcome::Shed::kDeadline;
          ++ns.shed_deadline;
          ns.shed_counter->inc();
          ns.inflight_gauge->add(-1.0);
          continue;
        }
      }
      ns.queue.push_back(QueuedRequest{d.id, d.cycle});
      ns.depth_gauge->add(1.0);
      ns.inflight_gauge->add(-1.0);
    }
  };

  // 5. Close ready batches onto free active replicas, lowest index first
  // (serve's dispatch rule, per node).
  auto dispatch_ready = [&](std::size_t node) {
    NodeState& ns = nodes[node];
    const std::vector<std::uint64_t>& table = tables[node];
    while (!ns.queue.empty()) {
      std::size_t free = ns.replicas.size();
      for (const std::size_t r : ns.live) {
        if (ns.replicas[r].state == ReplicaState::kActive && ns.replicas[r].batch == kNoBatch) {
          free = r;
          break;
        }
      }
      if (free == ns.replicas.size()) return;
      if (!batcher.should_close(ns.queue.size(), ns.queue.front().queued_at, now)) return;

      const std::size_t k = batcher.take_count(ns.queue.size());
      ReplicaSlot& slot = ns.replicas[free];
      slot.batch = batch_counter++;
      slot.busy_until = now + table[k - 1];
      slot.riders.reserve(k);
      for (std::size_t j = 0; j < k; ++j) {
        const QueuedRequest q = ns.queue.front();
        ns.queue.pop_front();
        slot.riders.push_back(q.id);
        ClusterOutcome& o = report.outcomes[q.id];
        o.dispatch_cycle = now;
        o.completion_cycle = slot.busy_until;
        o.replica = free;
        o.batch_id = slot.batch;
      }
      ns.depth_gauge->add(-static_cast<double>(k));
      ns.inflight_gauge->add(static_cast<double>(k));
      ++ns.batches;
      ns.busy_cycles += table[k - 1];
    }
  };

  auto work_pending = [&] {
    if (next_arrival < requests.size()) return true;
    for (const NodeState& ns : nodes) {
      if (!ns.wire.empty() || !ns.queue.empty()) return true;
      for (const std::size_t r : ns.live) {
        if (ns.replicas[r].batch != kNoBatch) return true;
      }
    }
    return false;
  };

  while (work_pending()) {
    std::uint64_t t = kNever;
    if (next_arrival < requests.size()) t = std::min(t, requests[next_arrival].arrival_cycle);
    for (const NodeState& ns : nodes) {
      if (!ns.wire.empty()) t = std::min(t, ns.wire.front().cycle);
      bool has_free_active = false;
      for (const std::size_t r : ns.live) {
        const ReplicaSlot& slot = ns.replicas[r];
        if (slot.batch != kNoBatch) t = std::min(t, slot.busy_until);
        if (slot.state == ReplicaState::kWarming) t = std::min(t, slot.ready_at);
        if (slot.state == ReplicaState::kActive && slot.batch == kNoBatch) {
          has_free_active = true;
        }
      }
      if (!ns.queue.empty() && has_free_active) {
        t = std::min(t, batcher.close_deadline(ns.queue.front().queued_at));
      }
      if (config.autoscaler.enabled) t = std::min(t, ns.next_eval);
    }
    DFC_CHECK(t != kNever && t >= now, "cluster event loop lost its next event");
    now = t;

    // Fixed per-cycle order (see the header comment): completions free
    // replicas and retire drains, the autoscaler sees post-completion state,
    // arrivals route on this cycle's gauges, deliveries run admission, and
    // dispatch fills whatever capacity remains.
    for (NodeState& ns : nodes) finalize_completions(ns);
    for (std::size_t i = 0; i < nodes.size(); ++i) autoscale(i);
    while (next_arrival < requests.size() && requests[next_arrival].arrival_cycle == now) {
      const dfc::serve::Request& r = requests[next_arrival];
      const std::size_t node = route();
      NodeState& ns = nodes[node];
      report.outcomes[r.id].node = node;
      ++ns.routed;
      ns.routed_counter->inc();
      ns.inflight_gauge->add(1.0);
      ns.wire.push_back(WireDelivery{ns.in.transfer(now, config.request_words), r.id});
      ++next_arrival;
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) deliver_due(i);
    for (std::size_t i = 0; i < nodes.size(); ++i) dispatch_ready(i);
  }

  // ---- Scorecard -----------------------------------------------------------
  ClusterStats& stats = report.stats;
  stats.policy = route_policy_name(config.policy);
  stats.offered_requests = requests.size();
  stats.makespan_cycles = last_response - first_arrival;
  stats.scale_events = report.scale_events.size();

  std::vector<std::uint64_t> all_latencies;
  all_latencies.reserve(requests.size());
  std::vector<std::vector<std::uint64_t>> class_latencies(classes.size());
  std::vector<double> class_latency_sums(classes.size(), 0.0);
  stats.classes.resize(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    stats.classes[c].name = classes[c].name;
    stats.classes[c].deadline_cycles = classes[c].deadline_cycles;
  }
  for (const ClusterOutcome& o : report.outcomes) {
    ClassStats& cs = stats.classes[o.deadline_class];
    ++cs.offered;
    if (o.shed == ClusterOutcome::Shed::kOverflow) {
      ++cs.shed_overflow;
      ++stats.shed_overflow;
      continue;
    }
    if (o.shed == ClusterOutcome::Shed::kDeadline) {
      ++cs.shed_deadline;
      ++stats.shed_deadline;
      continue;
    }
    ++stats.completed_requests;
    ++cs.completed;
    const std::uint64_t lat = o.latency_cycles();
    all_latencies.push_back(lat);
    class_latencies[o.deadline_class].push_back(lat);
    class_latency_sums[o.deadline_class] += static_cast<double>(lat);
    if (cs.deadline_cycles > 0 && lat > cs.deadline_cycles) ++cs.deadline_misses;
  }
  for (std::size_t c = 0; c < classes.size(); ++c) {
    ClassStats& cs = stats.classes[c];
    const LatencyPercentiles lp = latency_percentiles(std::move(class_latencies[c]));
    cs.p50_latency_cycles = lp.p50;
    cs.p95_latency_cycles = lp.p95;
    cs.p99_latency_cycles = lp.p99;
    cs.p999_latency_cycles = lp.p999;
    cs.mean_latency_cycles =
        cs.completed > 0 ? class_latency_sums[c] / static_cast<double>(cs.completed) : 0.0;
  }
  const LatencyPercentiles lp = latency_percentiles(std::move(all_latencies));
  stats.p50_latency_cycles = lp.p50;
  stats.p99_latency_cycles = lp.p99;
  stats.p999_latency_cycles = lp.p999;

  const std::uint64_t last_arrival = requests.back().arrival_cycle;
  const double arrival_span =
      static_cast<double>(std::max<std::uint64_t>(last_arrival - first_arrival, 1));
  const double total_span = static_cast<double>(std::max<std::uint64_t>(stats.makespan_cycles, 1));
  stats.offered_rps =
      static_cast<double>(stats.offered_requests) / dfc::core::cycles_to_seconds(arrival_span);
  stats.sustained_rps =
      static_cast<double>(stats.completed_requests) / dfc::core::cycles_to_seconds(total_span);

  stats.node_stats.resize(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    NodeState& ns = nodes[i];
    NodeStats& out = stats.node_stats[i];
    out.node = i;
    out.boards = config.nodes[i].boards;
    out.routed = ns.routed;
    out.completed = ns.completed;
    out.shed_overflow = ns.shed_overflow;
    out.shed_deadline = ns.shed_deadline;
    out.batches = ns.batches;
    out.replicas_start = config.nodes[i].replicas;
    out.replicas_peak = ns.peak_replicas;
    out.replicas_final = ns.usable_count();
    out.scale_ups = ns.scale_ups;
    out.scale_downs = ns.scale_downs;
    out.busy_cycles = ns.busy_cycles;
    out.utilization =
        static_cast<double>(ns.busy_cycles) /
        (total_span * static_cast<double>(std::max<std::size_t>(ns.peak_replicas, 1)));
    // Attribution window: [first_arrival, last_response]. Every hop's
    // serializer finished by last_response (a response lands latency cycles
    // after its serialization ends), so the buckets sum exactly.
    out.ingress.name = ns.in.name();
    out.ingress.words = ns.in.words_transferred();
    out.ingress.activity = ns.in.activity(last_response);
    out.ingress.activity.idle -= first_arrival;  // window starts at first arrival
    out.egress.name = ns.out.name();
    out.egress.words = ns.out.words_transferred();
    out.egress.activity = ns.out.activity(last_response);
    out.egress.activity.idle -= first_arrival;
  }
  return report;
}

Cluster::Cluster(const dfc::core::NetworkSpec& spec, const ClusterConfig& config)
    : spec_(spec), config_(config) {
  config_.validate();
  // One measured table per distinct boards value; nodes with the same board
  // count share the measurement (replicas are identical by construction).
  std::map<std::size_t, std::vector<std::uint64_t>> by_boards;
  for (const NodeConfig& n : config_.nodes) {
    if (by_boards.find(n.boards) == by_boards.end()) {
      by_boards[n.boards] = measure_service_table(
          spec_, n.boards, config_.batcher.max_batch_size, config_.board_link, config_.build);
    }
  }
  tables_.reserve(config_.nodes.size());
  for (const NodeConfig& n : config_.nodes) tables_.push_back(by_boards[n.boards]);
}

ClusterReport Cluster::run(const dfc::serve::Load& load, const std::string& scenario_name,
                           const std::string& shape_name) {
  const std::vector<std::size_t> class_of =
      assign_classes(load.requests.size(), config_.classes, config_.class_seed);
  ClusterReport report = plan_cluster(load.requests, class_of, config_, tables_);
  report.stats.name = scenario_name;
  report.stats.design = spec_.name;
  report.stats.shape = shape_name;
  return report;
}

}  // namespace dfc::cluster
