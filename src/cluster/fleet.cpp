#include "cluster/fleet.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/csv.hpp"
#include "common/error.hpp"

namespace dfc::cluster {

namespace {

using dfc::serve::Request;
using dfc::serve::RequestOutcome;

constexpr std::uint64_t kNever = dfc::serve::DynamicBatcher::kNever;
constexpr std::size_t kNoBatch = ~std::size_t{0};

enum class ReplicaState : std::uint8_t { kActive, kWarming, kDraining, kRetired };

struct ReplicaSlot {
  ReplicaState state = ReplicaState::kActive;
  std::uint64_t ready_at = 0;         ///< kWarming: promotion cycle
  std::uint64_t kill_cycle = kNever;  ///< fault-plan kill, or quarantine
  std::size_t dispatches = 0;         ///< batches so far: the fault plan's nth_batch
  std::size_t corruptions = 0;
  // The in-flight batch; batch == kNoBatch when the replica is idle.
  std::size_t batch = kNoBatch;
  std::uint64_t started = 0;
  std::uint64_t busy_until = 0;  ///< completion, or the kill of a failed batch
  bool failed = false;           ///< dies with its replica mid-service
  bool corrupted = false;        ///< completes, but detection rejects it
  std::vector<std::uint64_t> riders;
};

struct WireDelivery {
  std::uint64_t cycle = 0;  ///< arrival at the node (monotone per hop)
  std::uint64_t id = 0;
};

struct QueuedRequest {
  std::uint64_t id = 0;
  std::uint64_t queued_at = 0;  ///< delivery or re-admission: the batcher ages from here
};

/// One node: its hops, queue, replica slots and their recovery state.
struct Node {
  Node(NetHop ingress, NetHop egress) : in(std::move(ingress)), out(std::move(egress)) {}

  NetHop in;
  NetHop out;
  std::deque<WireDelivery> wire;    ///< routed, not yet delivered
  std::deque<QueuedRequest> queue;  ///< delivered, waiting for a batch
  /// Every slot the node ever had. A slot's index is the `replica` the
  /// reports carry, so retired slots stay in place and the vector never
  /// shrinks.
  std::vector<ReplicaSlot> replicas;
  /// Ascending indices of the slots not yet retired: every per-event walk
  /// goes through these, so a long run's retired slots cost nothing.
  std::vector<std::size_t> live;
  std::set<std::pair<std::uint64_t, std::uint64_t>> retries;  ///< (ready cycle, id)
  std::set<std::pair<std::size_t, std::size_t>> corrupt;      ///< (replica, nth batch)
  std::size_t inflight = 0;  ///< routed requests on the wire or in service

  std::uint64_t next_eval = kNever;
  std::uint64_t last_action = 0;
  bool acted = false;  ///< last_action is meaningful

  NodeMetrics metrics;
  NodeStats score;  ///< utilization aside
  std::size_t quarantined = 0;
  std::size_t max_depth = 0;
  double depth_area = 0.0;  ///< queue depth integrated over cycles

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
  void set_depth() {
    if (metrics.depth != nullptr) metrics.depth->set(static_cast<double>(queue.size()));
  }
  void set_inflight() {
    if (metrics.inflight != nullptr) metrics.inflight->set(static_cast<double>(inflight));
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

template <class Outcome>
class FleetLoop {
  /// Serve's records: one node without hops, under a fault plan's recovery.
  static constexpr bool kServe = std::is_same_v<Outcome, RequestOutcome>;

 public:
  FleetLoop(const std::vector<Request>& requests, const std::vector<std::size_t>& class_of,
            const ClusterConfig& fleet, const std::vector<std::vector<std::uint64_t>>& tables,
            const std::vector<NodeMetrics>& metrics, const dfc::serve::ServeConfig* serve)
      : requests_(requests),
        config_(fleet),
        tables_(tables),
        classes_(fleet.classes.empty() ? std::vector<DeadlineClass>{DeadlineClass{}}
                                       : fleet.classes),
        batcher_(fleet.batcher),
        wrr_(fleet.nodes),
        serve_(serve),
        recovery_(kServe && plans_replica_faults(serve->faults)),
        trace_(kServe ? serve->trace : nullptr) {
    validate(class_of);
    const std::uint64_t first_arrival = requests.front().arrival_cycle;
    now_ = first_arrival;
    out_.last_response = first_arrival;

    nodes_.reserve(fleet.nodes.size());
    for (std::size_t i = 0; i < fleet.nodes.size(); ++i) {
      const NodeConfig& nc = fleet.nodes[i];
      Node ns(NetHop("node" + std::to_string(i) + ".in", nc.ingress),
              NetHop("node" + std::to_string(i) + ".out", nc.egress));
      for (std::size_t r = 0; r < nc.replicas; ++r) ns.add_slot(ReplicaSlot{});
      ns.score.node = i;
      ns.score.boards = nc.boards;
      ns.score.replicas_start = nc.replicas;
      ns.score.replicas_peak = nc.replicas;
      if (fleet.autoscaler.enabled) {
        ns.next_eval = first_arrival + fleet.autoscaler.eval_interval_cycles;
      }
      ns.metrics = metrics[i];
      nodes_.push_back(std::move(ns));
    }
    if (recovery_) {
      // A scheduled kill is known up front; a quarantine lowers the kill
      // cycle to "now" once a replica crosses the corrupted-batch threshold.
      Node& ns = nodes_.front();
      for (const fault::ReplicaKillSpec& k : serve->faults->replica_kills) {
        DFC_REQUIRE(k.replica < ns.replicas.size(), "replica kill targets unknown replica");
        ns.replicas[k.replica].kill_cycle = std::min(ns.replicas[k.replica].kill_cycle, k.cycle);
      }
      for (const fault::BatchCorruptSpec& c : serve->faults->batch_corruptions) {
        DFC_REQUIRE(c.replica < ns.replicas.size(), "batch corruption targets unknown replica");
        ns.corrupt.insert({c.replica, c.nth_batch});
      }
    }

    // Request-lifecycle spans: one shared track for request phases (async
    // begin/end pairs keyed by phase + id, so overlapping requests coexist),
    // one for batch assembly, one per replica.
    if (trace_ != nullptr) {
      req_entity_ = trace_->register_entity("serve.requests", obs::EntityKind::kServe);
      batcher_entity_ = trace_->register_entity("serve.batcher", obs::EntityKind::kServe);
      for (std::size_t r = 0; r < nodes_.front().replicas.size(); ++r) {
        replica_entities_.push_back(
            trace_->register_entity("serve.replica" + std::to_string(r), obs::EntityKind::kServe));
      }
    }
    // Periodic CSV snapshots of the registry, stamped with the fabric cycle.
    if (kServe && serve->metrics != nullptr && serve->metrics_snapshot_cycles > 0) {
      std::vector<std::string> columns{"cycle"};
      for (const auto& [name, value] : serve->metrics->snapshot()) columns.push_back(name);
      snapshots_ = std::make_unique<CsvWriter>(columns);
      next_snapshot_ = first_arrival;
    }

    out_.outcomes.resize(requests.size());
    for (const Request& r : requests) {
      Outcome& o = out_.outcomes[r.id];
      o.id = r.id;
      o.arrival_cycle = r.arrival_cycle;
      if constexpr (!kServe) o.deadline_class = class_of[r.id];
    }
  }

  FleetRun<Outcome> run() {
    while (work_pending()) {
      const std::uint64_t t = next_event();
      if (t == kNever) {
        // Only possible once every replica is dead: nothing can ever
        // complete, so fail what is left instead of wedging.
        DFC_CHECK(recovery_, "planner event loop lost its next event");
        drain();
        break;
      }
      DFC_CHECK(t >= now_, "planner event loop lost its next event");
      // Snapshot points strictly before t see the state after all events <= t-1.
      if (t > 0) take_snapshots_up_to(t - 1);
      for (Node& ns : nodes_) {
        ns.depth_area +=
            static_cast<double>(ns.queue.size()) * static_cast<double>(t - now_);
      }
      now_ = t;

      // The fixed per-cycle order (see the header comment): completions
      // free replicas, the autoscaler sees post-completion state, arrivals
      // route on this cycle's gauges, deliveries and due retries run
      // admission, and dispatch fills whatever capacity remains.
      for (Node& ns : nodes_) complete(ns);
      if (config_.autoscaler.enabled) {
        for (std::size_t i = 0; i < nodes_.size(); ++i) autoscale(i);
      }
      arrive();
      for (std::size_t i = 0; i < nodes_.size(); ++i) deliver(i);
      for (std::size_t i = 0; i < nodes_.size(); ++i) readmit_retries(i);
      for (std::size_t i = 0; i < nodes_.size(); ++i) dispatch(i);
    }

    // An in-flight batch is an event, so the loop outlives every batch and
    // each one has its verdict.
    for (const Node& ns : nodes_) {
      for (const std::size_t r : ns.live) {
        DFC_CHECK(ns.replicas[r].batch == kNoBatch, "planner exited with unfinalized batches");
      }
    }
    take_snapshots_up_to(now_);

    if (snapshots_ != nullptr) out_.metrics_csv = snapshots_->str();
    for (Node& ns : nodes_) {
      ns.score.replicas_final = ns.usable_count();
      if constexpr (!kServe) {
        // Every hop's serializer finished by the last response (a response
        // lands latency cycles after its serialization ends), so the
        // buckets sum exactly over [first arrival, last response].
        for (auto [hop, stats] :
             {std::pair{&ns.in, &ns.score.ingress}, std::pair{&ns.out, &ns.score.egress}}) {
          stats->name = hop->name();
          stats->words = hop->words_transferred();
          stats->activity = hop->activity(out_.last_response);
          stats->activity.idle -= requests_.front().arrival_cycle;
        }
      }
      out_.nodes.push_back(NodeTally{ns.score, ns.quarantined, ns.max_depth, ns.depth_area});
    }
    return std::move(out_);
  }

 private:
  void validate(const std::vector<std::size_t>& class_of) const {
    config_.validate();
    DFC_REQUIRE(!requests_.empty(), "planning needs at least one request");
    DFC_REQUIRE(kServe || class_of.size() == requests_.size(), "class_of must cover every request");
    DFC_REQUIRE(tables_.size() == config_.nodes.size(), "one service table per node");
    const std::size_t max_batch = config_.batcher.max_batch_size;
    for (std::size_t node = 0; node < tables_.size(); ++node) {
      DFC_REQUIRE(tables_[node].size() >= max_batch,
                  "node " + std::to_string(node) + " service table must cover the max batch size");
      for (std::size_t n = 0; n < max_batch; ++n) {
        DFC_REQUIRE(tables_[node][n] > 0, "node " + std::to_string(node) +
                                              " service table entry for batch size " +
                                              std::to_string(n + 1) + " is unmeasured");
      }
    }
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      DFC_REQUIRE(requests_[i].id == i, "request ids must equal their index");
      DFC_REQUIRE(i == 0 || requests_[i - 1].arrival_cycle <= requests_[i].arrival_cycle,
                  "requests must be sorted by arrival cycle");
      DFC_REQUIRE(kServe || class_of[i] < classes_.size(),
                  "request assigned to unknown deadline class");
    }
  }

  bool work_pending() const {
    if (next_arrival_ < requests_.size()) return true;
    for (const Node& ns : nodes_) {
      if (!ns.wire.empty() || !ns.queue.empty() || !ns.retries.empty()) return true;
      for (const std::size_t r : ns.live) {
        if (ns.replicas[r].batch != kNoBatch) return true;
      }
    }
    return false;
  }

  /// The next event: an arrival, a delivery, a completion, a warm-up, a
  /// retry coming off its backoff, an autoscaler evaluation, or — when a
  /// replica is free and the queue is merely waiting to fill — the
  /// batcher's timeout deadline.
  std::uint64_t next_event() const {
    std::uint64_t t = kNever;
    if (next_arrival_ < requests_.size()) t = requests_[next_arrival_].arrival_cycle;
    for (const Node& ns : nodes_) {
      if (!ns.wire.empty()) t = std::min(t, ns.wire.front().cycle);
      if (!ns.retries.empty()) t = std::min(t, ns.retries.begin()->first);
      bool has_free_active = false;
      for (const std::size_t r : ns.live) {
        const ReplicaSlot& slot = ns.replicas[r];
        if (slot.batch != kNoBatch) {
          t = std::min(t, slot.busy_until);
        } else if (slot.state == ReplicaState::kActive) {
          has_free_active = true;
        }
        if (slot.state == ReplicaState::kWarming) t = std::min(t, slot.ready_at);
      }
      if (!ns.queue.empty() && has_free_active) {
        t = std::min(t, batcher_.close_deadline(ns.queue.front().queued_at));
      }
      if (config_.autoscaler.enabled) t = std::min(t, ns.next_eval);
    }
    return t;
  }

  // 1. Batches whose service interval ended get their verdict; draining
  // replicas retire once their last batch lands, dead ones at once.
  void complete(Node& ns) {
    std::size_t i = 0;
    while (i < ns.live.size()) {
      const std::size_t r = ns.live[i];
      ReplicaSlot& slot = ns.replicas[r];
      if (slot.batch != kNoBatch && slot.busy_until <= now_) {
        finish(ns, slot);
        if (slot.state == ReplicaState::kDraining) {
          ns.retire(r);  // the next live slot moves into position i
          continue;
        }
      }
      if (slot.kill_cycle <= now_) {
        // Killed or quarantined: never dispatched to again.
        ns.retire(r);
        ++ns.quarantined;
        if (ns.metrics.quarantined != nullptr) {
          ns.metrics.quarantined->set(static_cast<double>(ns.quarantined));
        }
        continue;
      }
      ++i;
    }
  }

  void finish(Node& ns, ReplicaSlot& slot) {
    const NodeMetrics& m = ns.metrics;
    if constexpr (kServe) {
      // Without a fault plan every verdict was known, and counted, at
      // dispatch. Otherwise a failed or corrupted batch sends every rider
      // back through retry_or_fail and feeds the quarantine count.
      if (recovery_) {
        if (m.busy != nullptr) m.busy->inc(slot.busy_until - slot.started);
        if (slot.failed || slot.corrupted) {
          if (slot.failed && m.failed_batches != nullptr) m.failed_batches->inc();
          if (slot.corrupted) {
            if (m.corrupted != nullptr) m.corrupted->inc();
            if (++slot.corruptions >= serve_->recovery.quarantine_after_corruptions) {
              slot.kill_cycle = std::min(slot.kill_cycle, now_);
            }
          }
          for (const std::uint64_t id : slot.riders) retry_or_fail(ns, id);
        } else {
          count_completions(m, slot.riders);
        }
      }
    } else {
      // Each rider's response takes the egress hop home: one serialized
      // transfer per response, in rider id order.
      for (const std::uint64_t id : slot.riders) {
        Outcome& o = out_.outcomes[id];
        o.response_cycle = ns.out.transfer(now_, config_.response_words);
        out_.last_response = std::max(out_.last_response, o.response_cycle);
      }
      ns.score.completed += slot.riders.size();
    }
    ns.inflight -= slot.riders.size();
    ns.set_inflight();
    slot.riders.clear();
    slot.batch = kNoBatch;
    slot.failed = false;
    slot.corrupted = false;
  }

  void count_completions(const NodeMetrics& m, const std::vector<std::uint64_t>& riders) {
    if (m.completed == nullptr) return;
    m.completed->inc(riders.size());
    for (const std::uint64_t id : riders) {
      m.latency->observe(static_cast<double>(out_.outcomes[id].latency_cycles()));
    }
  }

  /// Request-level recovery: re-enqueue with exponential backoff until the
  /// retry budget is spent, then give up on the request.
  void retry_or_fail(Node& ns, std::uint64_t id) {
    if constexpr (kServe) {
      RequestOutcome& o = out_.outcomes[id];
      if (o.retries >= serve_->recovery.max_retries) {
        fail(ns, id);
        return;
      }
      ++o.retries;
      const std::uint64_t backoff = serve_->recovery.backoff_cycles
                                    << std::min<std::uint32_t>(o.retries - 1, 32);
      ns.retries.insert({now_ + backoff, id});
      if (ns.metrics.retries != nullptr) ns.metrics.retries->inc();
    }
  }

  void fail(Node& ns, std::uint64_t id) {
    if constexpr (kServe) {
      out_.outcomes[id].failed = true;
      if (ns.metrics.failed_requests != nullptr) ns.metrics.failed_requests->inc();
    }
  }

  void record_scale(std::size_t node, int delta) {
    Node& ns = nodes_[node];
    out_.scale_events.push_back(ScaleEvent{now_, node, delta, ns.usable_count()});
    ns.last_action = now_;
    ns.acted = true;
    ns.score.replicas_peak = std::max(ns.score.replicas_peak, ns.usable_count());
    ns.metrics.active->set(static_cast<double>(ns.active_count()));
  }

  // 2. Promote warmed replicas, then run a due evaluation. The scale-up test
  // counts warming replicas as capacity and a cooldown gates consecutive
  // actions: together the hysteresis that keeps a load step from
  // triggering a thrash train.
  void autoscale(std::size_t node) {
    Node& ns = nodes_[node];
    const AutoscalerConfig& as = config_.autoscaler;
    for (const std::size_t r : ns.live) {
      ReplicaSlot& slot = ns.replicas[r];
      if (slot.state == ReplicaState::kWarming && slot.ready_at <= now_) {
        slot.state = ReplicaState::kActive;
        ns.metrics.active->set(static_cast<double>(ns.active_count()));
      }
    }
    if (ns.next_eval > now_) return;
    while (ns.next_eval <= now_) ns.next_eval += as.eval_interval_cycles;
    if (ns.acted && now_ - ns.last_action < as.cooldown_cycles) return;

    const double depth = static_cast<double>(ns.queue.size());
    const std::size_t active = ns.active_count();
    const std::size_t usable = ns.usable_count();
    if (depth > as.scale_up_depth * static_cast<double>(usable) && usable < as.max_replicas) {
      ReplicaSlot slot;
      slot.state = ReplicaState::kWarming;
      slot.ready_at = now_ + as.warmup_cycles;
      ns.add_slot(std::move(slot));
      ++ns.score.scale_ups;
      record_scale(node, +1);
    } else if (depth < as.scale_down_depth * static_cast<double>(active) && active == usable &&
               active > config_.nodes[node].replicas) {
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
      ++ns.score.scale_downs;
      record_scale(node, -1);
    }
  }

  std::size_t route() {
    if (nodes_.size() == 1) return 0;
    switch (config_.policy) {
      case RoutePolicy::kRoundRobin: {
        const std::size_t n = rr_next_;
        rr_next_ = (rr_next_ + 1) % nodes_.size();
        return n;
      }
      case RoutePolicy::kLeastLoaded: {
        // Queue depth plus wire/service in-flight = everything already
        // committed to the node; read through the gauges, not the planner
        // state, so any external controller sees the same signal.
        std::size_t best = 0;
        double best_score = 0.0;
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
          const double score =
              nodes_[i].metrics.depth->value() + nodes_[i].metrics.inflight->value();
          if (i == 0 || score < best_score) {
            best = i;
            best_score = score;
          }
        }
        return best;
      }
      case RoutePolicy::kWeighted: return wrr_.pick();
    }
    return 0;
  }

  // 3. Arrivals take their node's ingress hop; without hops the delivery
  // lands in the arrival's own cycle.
  void arrive() {
    while (next_arrival_ < requests_.size() &&
           requests_[next_arrival_].arrival_cycle == now_) {
      const Request& r = requests_[next_arrival_++];
      const std::size_t node = route();
      Node& ns = nodes_[node];
      ++ns.score.routed;
      if (ns.metrics.routed != nullptr) ns.metrics.routed->inc();
      std::uint64_t delivery = now_;
      if constexpr (!kServe) {
        out_.outcomes[r.id].node = node;
        delivery = ns.in.transfer(now_, config_.request_words);
      }
      ++ns.inflight;
      ns.set_inflight();
      ns.wire.push_back(WireDelivery{delivery, r.id});
    }
  }

  // 4. Admission runs where the queue lives. Queue overflow sheds first;
  // then the SLO check predicts this request's completion from the node's
  // current backlog and sheds it if the prediction misses its class
  // deadline — so under overload the tightest class sheds first (its
  // deadline busts at the smallest backlog).
  void deliver(std::size_t node) {
    Node& ns = nodes_[node];
    while (!ns.wire.empty() && ns.wire.front().cycle <= now_) {
      const WireDelivery d = ns.wire.front();
      ns.wire.pop_front();
      --ns.inflight;
      ns.set_inflight();
      Outcome& o = out_.outcomes[d.id];
      if constexpr (!kServe) o.delivery_cycle = d.cycle;
      if (ns.queue.size() >= config_.nodes[node].queue_capacity) {
        shed(ns, o, ClusterOutcome::Shed::kOverflow);
      } else if (misses_deadline(node, o)) {
        shed(ns, o, ClusterOutcome::Shed::kDeadline);
      } else {
        enqueue(ns, d.id, d.cycle);
      }
    }
  }

  bool misses_deadline(std::size_t node, const Outcome& o) const {
    if constexpr (kServe) {
      return false;  // one best-effort class
    } else {
      const DeadlineClass& cls = classes_[o.deadline_class];
      if (cls.deadline_cycles == 0) return false;
      const Node& ns = nodes_[node];
      const std::vector<std::uint64_t>& table = tables_[node];
      const std::size_t max_batch = config_.batcher.max_batch_size;
      const std::size_t active = std::max<std::size_t>(ns.active_count(), 1);
      double backlog = 0.0;
      for (const std::size_t r : ns.live) {
        const ReplicaSlot& slot = ns.replicas[r];
        if (slot.state == ReplicaState::kActive && slot.busy_until > now_) {
          backlog += static_cast<double>(slot.busy_until - now_);
        }
      }
      // Queued work amortizes at the max-batch per-request rate; this
      // request then pays one full service interval and the trip home.
      backlog += static_cast<double>(ns.queue.size()) *
                 (static_cast<double>(table[max_batch - 1]) / static_cast<double>(max_batch));
      const double est_completion =
          static_cast<double>(now_) + backlog / static_cast<double>(active) +
          static_cast<double>(table[0]) +
          static_cast<double>(config_.response_words * ns.out.model().effective_cycles_per_word() +
                              static_cast<std::uint64_t>(ns.out.model().link.link.latency_cycles));
      return est_completion > static_cast<double>(o.arrival_cycle + cls.deadline_cycles);
    }
  }

  void shed(Node& ns, Outcome& o, ClusterOutcome::Shed cause) {
    if constexpr (kServe) {
      o.shed = true;
    } else {
      o.shed = cause;
    }
    ++(cause == ClusterOutcome::Shed::kOverflow ? ns.score.shed_overflow
                                                : ns.score.shed_deadline);
    if (ns.metrics.shed != nullptr) ns.metrics.shed->inc();
    span(req_entity_, obs::EventKind::kSpanBegin, now_, obs::SpanPhase::kShed, o.id);
  }

  void enqueue(Node& ns, std::uint64_t id, std::uint64_t queued_at) {
    ns.queue.push_back(QueuedRequest{id, queued_at});
    ns.set_depth();
    if (ns.metrics.admitted != nullptr) ns.metrics.admitted->inc();
    span(req_entity_, obs::EventKind::kSpanBegin, now_, obs::SpanPhase::kQueued, id);
    ns.max_depth = std::max(ns.max_depth, ns.queue.size());
  }

  // 5. Retries off their backoff re-enter the queue; one shed by a full
  // queue is terminal: the request failed.
  void readmit_retries(std::size_t node) {
    Node& ns = nodes_[node];
    while (!ns.retries.empty() && ns.retries.begin()->first <= now_) {
      const std::uint64_t id = ns.retries.begin()->second;
      ns.retries.erase(ns.retries.begin());
      if (ns.queue.size() < config_.nodes[node].queue_capacity) {
        enqueue(ns, id, now_);
        continue;
      }
      fail(ns, id);
      if (ns.metrics.shed != nullptr) ns.metrics.shed->inc();
      span(req_entity_, obs::EventKind::kSpanBegin, now_, obs::SpanPhase::kShed, id);
    }
  }

  // 6. Close ready batches onto free active replicas, lowest index first.
  void dispatch(std::size_t node) {
    Node& ns = nodes_[node];
    const NodeMetrics& m = ns.metrics;
    const std::vector<std::uint64_t>& table = tables_[node];
    while (!ns.queue.empty()) {
      std::size_t free = kNoBatch;
      for (const std::size_t r : ns.live) {
        if (ns.replicas[r].state == ReplicaState::kActive && ns.replicas[r].batch == kNoBatch) {
          free = r;
          break;
        }
      }
      if (free == kNoBatch) return;
      const std::uint64_t assemble_from = ns.queue.front().queued_at;
      if (!batcher_.should_close(ns.queue.size(), assemble_from, now_)) return;

      const std::size_t k = batcher_.take_count(ns.queue.size());
      ReplicaSlot& slot = ns.replicas[free];
      slot.batch = batch_counter_++;
      slot.started = now_;
      slot.busy_until = now_ + table[k - 1];
      if (recovery_) {
        if (slot.kill_cycle <= slot.busy_until) {
          // The replica dies mid-service: the batch is lost at the kill
          // cycle and the replica never comes back.
          slot.failed = true;
          slot.busy_until = slot.kill_cycle;
        } else if (ns.corrupt.count({free, slot.dispatches}) > 0) {
          slot.corrupted = true;  // on time, but output detection rejects it
        }
        ++slot.dispatches;
      }
      slot.riders.reserve(k);
      for (std::size_t j = 0; j < k; ++j) {
        const std::uint64_t id = ns.queue.front().id;
        ns.queue.pop_front();
        slot.riders.push_back(id);
        Outcome& o = out_.outcomes[id];
        o.dispatch_cycle = now_;
        o.completion_cycle = slot.busy_until;
        o.replica = free;
        o.batch_id = slot.batch;
        // The queued span closes at dispatch and execute runs to the known
        // completion (or kill) cycle: together they cover arrival ->
        // completion with no gap, the span-exactness contract.
        span(req_entity_, obs::EventKind::kSpanEnd, now_, obs::SpanPhase::kQueued, id);
        span(req_entity_, obs::EventKind::kSpanBegin, now_, obs::SpanPhase::kExecute, id);
        span(req_entity_, obs::EventKind::kSpanEnd, slot.busy_until, obs::SpanPhase::kExecute,
             id);
      }
      if (trace_ != nullptr) {
        // Assembly: the oldest rider's wait defines how long the batch took
        // to fill; the replica track shows the service interval.
        span(batcher_entity_, obs::EventKind::kSpanBegin, assemble_from,
             obs::SpanPhase::kAssemble, slot.batch);
        span(batcher_entity_, obs::EventKind::kSpanEnd, now_, obs::SpanPhase::kAssemble,
             slot.batch);
        span(replica_entities_[free], obs::EventKind::kSpanBegin, now_, obs::SpanPhase::kBatch,
             slot.batch);
        span(replica_entities_[free], obs::EventKind::kSpanEnd, slot.busy_until,
             obs::SpanPhase::kBatch, slot.batch);
      }
      ns.set_depth();
      ns.inflight += k;
      ns.set_inflight();
      ++ns.score.batches;
      ns.score.busy_cycles += slot.busy_until - now_;
      if (m.batches != nullptr) {
        m.batches->inc();
        m.batch_size->observe(static_cast<double>(k));
        if (!recovery_) {
          // Without a fault plan the verdict is known at dispatch, so the
          // completion metrics land here.
          m.busy->inc(slot.busy_until - now_);
          count_completions(m, slot.riders);
        }
      }
      if constexpr (kServe) {
        out_.batch_records.push_back(dfc::serve::BatchRecord{slot.batch, free, now_, slot.busy_until,
                                                         slot.riders, slot.failed,
                                                         slot.corrupted});
      }
    }
  }

  /// The pool is dead: everything still queued or backing off fails. The
  /// queued span of a request that dies in the queue closes at the drain.
  void drain() {
    for (Node& ns : nodes_) {
      for (const QueuedRequest& q : ns.queue) {
        fail(ns, q.id);
        span(req_entity_, obs::EventKind::kSpanEnd, now_, obs::SpanPhase::kQueued, q.id);
      }
      ns.queue.clear();
      ns.set_depth();
      for (const auto& [ready, id] : ns.retries) fail(ns, id);
      ns.retries.clear();
    }
  }

  void span(std::uint32_t entity, obs::EventKind kind, std::uint64_t cycle,
            obs::SpanPhase phase, std::uint64_t id) {
    if (trace_ != nullptr) trace_->record(entity, kind, cycle, obs::span_value(phase, id));
  }

  void take_snapshots_up_to(std::uint64_t cycle) {
    if (snapshots_ == nullptr) return;
    while (next_snapshot_ <= cycle) {
      std::vector<std::string> cells;
      cells.push_back(std::to_string(next_snapshot_));
      for (const auto& [name, value] : serve_->metrics->snapshot()) {
        std::ostringstream os;
        os << value;
        cells.push_back(os.str());
      }
      snapshots_->row(cells);
      next_snapshot_ += serve_->metrics_snapshot_cycles;
    }
  }

  const std::vector<Request>& requests_;
  const ClusterConfig& config_;
  const std::vector<std::vector<std::uint64_t>>& tables_;
  const std::vector<DeadlineClass> classes_;
  const dfc::serve::DynamicBatcher batcher_;
  SmoothWrr wrr_;
  std::size_t rr_next_ = 0;
  const dfc::serve::ServeConfig* serve_;
  const bool recovery_;

  std::vector<Node> nodes_;
  FleetRun<Outcome> out_;
  std::size_t next_arrival_ = 0;
  std::size_t batch_counter_ = 0;
  std::uint64_t now_ = 0;

  obs::TraceSink* trace_;
  std::uint32_t req_entity_ = 0;
  std::uint32_t batcher_entity_ = 0;
  std::vector<std::uint32_t> replica_entities_;
  std::unique_ptr<CsvWriter> snapshots_;
  std::uint64_t next_snapshot_ = 0;
};

}  // namespace

bool plans_replica_faults(const fault::FaultPlan* plan) {
  return plan != nullptr && (!plan->replica_kills.empty() || !plan->batch_corruptions.empty());
}

template <class Outcome>
FleetRun<Outcome> plan_fleet(const std::vector<Request>& requests,
                             const std::vector<std::size_t>& class_of,
                             const ClusterConfig& fleet,
                             const std::vector<std::vector<std::uint64_t>>& tables,
                             const std::vector<NodeMetrics>& metrics,
                             const dfc::serve::ServeConfig* serve) {
  DFC_REQUIRE(metrics.size() == fleet.nodes.size(), "one metrics set per node");
  DFC_REQUIRE((serve != nullptr) == (std::is_same_v<Outcome, RequestOutcome>),
              "serve options go with serve's outcome records");
  return FleetLoop<Outcome>(requests, class_of, fleet, tables, metrics, serve).run();
}

template FleetRun<RequestOutcome> plan_fleet(const std::vector<Request>&,
                                             const std::vector<std::size_t>&,
                                             const ClusterConfig&,
                                             const std::vector<std::vector<std::uint64_t>>&,
                                             const std::vector<NodeMetrics>&,
                                             const dfc::serve::ServeConfig*);
template FleetRun<ClusterOutcome> plan_fleet(const std::vector<Request>&,
                                             const std::vector<std::size_t>&,
                                             const ClusterConfig&,
                                             const std::vector<std::vector<std::uint64_t>>&,
                                             const std::vector<NodeMetrics>&,
                                             const dfc::serve::ServeConfig*);

}  // namespace dfc::cluster
