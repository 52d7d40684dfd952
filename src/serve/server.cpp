#include "serve/server.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "common/csv.hpp"
#include "common/math_util.hpp"
#include "core/harness.hpp"
#include "serve/request_queue.hpp"

namespace dfc::serve {

namespace {

constexpr std::uint64_t kNever = DynamicBatcher::kNever;

ServeStats summarize(const std::vector<Request>& requests,
                     const std::vector<RequestOutcome>& outcomes,
                     const std::vector<BatchRecord>& batches, std::size_t max_queue_depth,
                     double depth_cycle_area, std::size_t quarantined_replicas) {
  ServeStats s;
  s.offered_requests = requests.size();
  s.batches = batches.size();
  s.max_queue_depth = max_queue_depth;
  s.quarantined_replicas = quarantined_replicas;

  const std::uint64_t first_arrival = requests.front().arrival_cycle;
  const std::uint64_t last_arrival = requests.back().arrival_cycle;
  std::uint64_t last_completion = last_arrival;

  std::vector<std::uint64_t> latencies;
  latencies.reserve(outcomes.size());
  double latency_sum = 0.0;
  std::size_t batched_requests = 0;
  for (const RequestOutcome& o : outcomes) {
    if (o.retries > 0) {
      ++s.retried_requests;
      s.retry_attempts += o.retries;
    }
    if (o.shed) {
      ++s.shed_requests;
      continue;
    }
    if (o.failed) {
      ++s.failed_requests;
      continue;
    }
    ++s.completed_requests;
    latencies.push_back(o.latency_cycles());
    latency_sum += static_cast<double>(o.latency_cycles());
    last_completion = std::max(last_completion, o.completion_cycle);
  }
  for (const BatchRecord& b : batches) {
    batched_requests += b.size();
    if (b.failed) ++s.failed_batches;
    if (b.corrupted) ++s.corrupted_batches;
  }
  s.mean_batch_size =
      s.batches > 0 ? static_cast<double>(batched_requests) / static_cast<double>(s.batches)
                    : 0.0;

  s.makespan_cycles = last_completion - first_arrival;
  const double arrival_span =
      static_cast<double>(std::max<std::uint64_t>(last_arrival - first_arrival, 1));
  const double total_span = static_cast<double>(std::max<std::uint64_t>(s.makespan_cycles, 1));
  s.offered_rps = static_cast<double>(s.offered_requests) /
                  dfc::core::cycles_to_seconds(arrival_span);
  s.sustained_rps = static_cast<double>(s.completed_requests) /
                    dfc::core::cycles_to_seconds(total_span);
  s.mean_queue_depth = depth_cycle_area / total_span;

  const LatencyPercentiles lp = latency_percentiles(std::move(latencies));
  s.p50_latency_cycles = lp.p50;
  s.p95_latency_cycles = lp.p95;
  s.p99_latency_cycles = lp.p99;
  s.p999_latency_cycles = lp.p999;
  s.mean_latency_cycles = s.completed_requests == 0
                              ? 0.0
                              : latency_sum / static_cast<double>(s.completed_requests);
  return s;
}

}  // namespace

ServeReport plan_serving(const std::vector<Request>& requests, const ServeConfig& config,
                         const std::vector<std::uint64_t>& service_table) {
  DFC_REQUIRE(!requests.empty(), "plan_serving needs at least one request");
  DFC_REQUIRE(config.replicas > 0, "plan_serving needs at least one replica");
  DFC_REQUIRE(service_table.size() >= config.batcher.max_batch_size,
              "service table must cover batch sizes up to max_batch_size");
  for (std::size_t n = 0; n < config.batcher.max_batch_size; ++n) {
    DFC_REQUIRE(service_table[n] > 0, "service table entry for batch size " +
                                          std::to_string(n + 1) + " is unmeasured");
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    DFC_REQUIRE(requests[i].id == i, "request ids must equal their index");
    DFC_REQUIRE(i == 0 || requests[i - 1].arrival_cycle <= requests[i].arrival_cycle,
                "requests must be sorted by arrival cycle");
  }

  // Fault mode is active only when the plan actually targets serving; the
  // fault-free path below is then byte-identical to the pre-fault planner
  // (same events, same metrics, same stats).
  const bool fault_mode =
      config.faults != nullptr && (!config.faults->replica_kills.empty() ||
                                   !config.faults->batch_corruptions.empty());

  const DynamicBatcher batcher(config.batcher);
  RequestQueue queue(config.queue_capacity);
  std::vector<std::uint64_t> busy_until(config.replicas, 0);

  // Per-replica death cycle (kNever = healthy). A scheduled kill from the
  // fault plan sets it up front; a corruption quarantine lowers it to "now"
  // the moment the replica crosses the corrupted-batch threshold.
  std::vector<std::uint64_t> kill_cycle(config.replicas, kNever);
  std::vector<bool> dead(config.replicas, false);
  std::vector<std::size_t> corruptions(config.replicas, 0);
  std::vector<std::size_t> dispatch_ordinal(config.replicas, 0);
  std::set<std::pair<std::size_t, std::size_t>> corrupt_batches;  // (replica, nth dispatch)
  if (fault_mode) {
    for (const fault::ReplicaKillSpec& k : config.faults->replica_kills) {
      DFC_REQUIRE(k.replica < config.replicas, "replica kill targets unknown replica");
      kill_cycle[k.replica] = std::min(kill_cycle[k.replica], k.cycle);
    }
    for (const fault::BatchCorruptSpec& c : config.faults->batch_corruptions) {
      DFC_REQUIRE(c.replica < config.replicas, "batch corruption targets unknown replica");
      corrupt_batches.insert({c.replica, c.nth_batch});
    }
  }
  std::size_t quarantined = 0;

  // Optional metrics hookup: every figure below is derived from the simulated
  // timeline (no wall clock), so the registry contents are deterministic.
  dfc::Counter* batches_metric = nullptr;
  dfc::Counter* completed_metric = nullptr;
  dfc::Counter* replica_busy_metric = nullptr;
  dfc::Histogram* batch_size_metric = nullptr;
  dfc::Histogram* latency_metric = nullptr;
  dfc::Counter* retry_metric = nullptr;
  dfc::Counter* failed_requests_metric = nullptr;
  dfc::Counter* failed_batches_metric = nullptr;
  dfc::Counter* corrupted_batches_metric = nullptr;
  dfc::Gauge* quarantined_metric = nullptr;
  if (config.metrics != nullptr) {
    queue.attach_metrics(*config.metrics);
    batches_metric = &config.metrics->counter("serve_batches_total", "Batches dispatched");
    completed_metric =
        &config.metrics->counter("serve_requests_completed_total", "Requests completed");
    replica_busy_metric = &config.metrics->counter(
        "serve_replica_busy_cycles_total", "Cycles replicas spent executing batches");
    batch_size_metric = &config.metrics->histogram(
        "serve_batch_size", "Dispatched batch sizes",
        dfc::linear_buckets(1.0, 1.0, config.batcher.max_batch_size));
    latency_metric = &config.metrics->histogram(
        "serve_latency_cycles", "Request latency (arrival to completion) in fabric cycles",
        dfc::exponential_buckets(256.0, 2.0, 16));
    if (fault_mode) {
      // Registered only in fault mode so fault-free registries (and their
      // snapshot CSV columns) stay byte-identical to the pre-fault system.
      retry_metric =
          &config.metrics->counter("serve_retry_attempts_total", "Requests re-enqueued");
      failed_requests_metric = &config.metrics->counter(
          "serve_failed_requests_total", "Requests whose retry budget ran out");
      failed_batches_metric = &config.metrics->counter("serve_failed_batches_total",
                                                       "Batches killed mid-service");
      corrupted_batches_metric = &config.metrics->counter(
          "serve_corrupted_batches_total", "Batches rejected by output detection");
      quarantined_metric = &config.metrics->gauge("serve_quarantined_replicas",
                                                  "Replicas removed from the pool");
    }
  }

  // Optional request-lifecycle spans. One shared track for request phases
  // (async begin/end pairs keyed by phase + id, so overlapping requests
  // coexist), one for batch assembly, one per replica. Entities are
  // registered lazily here so an unused sink stays empty.
  obs::TraceSink* trace = config.trace;
  std::uint32_t req_entity = 0;
  std::uint32_t batcher_entity = 0;
  std::vector<std::uint32_t> replica_entities;
  if (trace != nullptr) {
    req_entity = trace->register_entity("serve.requests", obs::EntityKind::kServe);
    batcher_entity = trace->register_entity("serve.batcher", obs::EntityKind::kServe);
    replica_entities.reserve(config.replicas);
    for (std::size_t r = 0; r < config.replicas; ++r) {
      replica_entities.push_back(
          trace->register_entity("serve.replica" + std::to_string(r), obs::EntityKind::kServe));
    }
  }
  auto span = [&](std::uint32_t entity, obs::EventKind kind, std::uint64_t cycle,
                  obs::SpanPhase phase, std::uint64_t id) {
    if (trace != nullptr) trace->record(entity, kind, cycle, obs::span_value(phase, id));
  };

  // Periodic CSV snapshots of the registry, stamped with the fabric cycle.
  std::unique_ptr<CsvWriter> snapshot_csv;
  std::uint64_t next_snapshot = 0;
  if (config.metrics != nullptr && config.metrics_snapshot_cycles > 0) {
    std::vector<std::string> columns{"cycle"};
    for (const auto& [name, value] : config.metrics->snapshot()) columns.push_back(name);
    snapshot_csv = std::make_unique<CsvWriter>(columns);
    next_snapshot = requests.front().arrival_cycle;
  }
  auto take_snapshots_up_to = [&](std::uint64_t cycle) {
    if (snapshot_csv == nullptr) return;
    while (next_snapshot <= cycle) {
      std::vector<std::string> cells;
      cells.push_back(std::to_string(next_snapshot));
      for (const auto& [name, value] : config.metrics->snapshot()) {
        std::ostringstream os;
        os << value;
        cells.push_back(os.str());
      }
      snapshot_csv->row(cells);
      next_snapshot += config.metrics_snapshot_cycles;
    }
  };

  ServeReport report;
  report.outcomes.resize(requests.size());
  for (const Request& r : requests) {
    report.outcomes[r.id].id = r.id;
    report.outcomes[r.id].arrival_cycle = r.arrival_cycle;
  }

  std::size_t next_arrival = 0;
  std::uint64_t now = requests.front().arrival_cycle;
  std::size_t max_depth = 0;
  double depth_cycle_area = 0.0;
  std::uint64_t retry_shed = 0;

  // Fault-mode bookkeeping: batches awaiting their verdict (finalize cycle,
  // batch id) and requests waiting out a retry backoff (ready cycle, id).
  // Both std::set — event order is deterministic by construction.
  std::set<std::pair<std::uint64_t, std::size_t>> pending_verdicts;
  std::set<std::pair<std::uint64_t, std::uint64_t>> retry_backlog;

  auto replica_dead = [&](std::size_t r) { return fault_mode && kill_cycle[r] <= now; };

  auto lowest_free_replica = [&]() -> std::size_t {
    for (std::size_t r = 0; r < busy_until.size(); ++r) {
      if (busy_until[r] <= now && !replica_dead(r)) return r;
    }
    return busy_until.size();  // none free
  };

  auto mark_dead_replicas = [&] {
    if (!fault_mode) return;
    for (std::size_t r = 0; r < kill_cycle.size(); ++r) {
      if (kill_cycle[r] <= now && !dead[r]) {
        dead[r] = true;
        ++quarantined;
        if (quarantined_metric != nullptr) {
          quarantined_metric->set(static_cast<double>(quarantined));
        }
      }
    }
  };

  // Request-level recovery: re-enqueue with exponential backoff until the
  // retry budget is spent, then give up on the request.
  auto retry_or_fail = [&](std::uint64_t id) {
    RequestOutcome& o = report.outcomes[id];
    if (o.retries >= config.recovery.max_retries) {
      o.failed = true;
      if (failed_requests_metric != nullptr) failed_requests_metric->inc();
      return;
    }
    ++o.retries;
    const std::uint64_t backoff =
        config.recovery.backoff_cycles << std::min<std::uint32_t>(o.retries - 1, 32);
    retry_backlog.insert({now + backoff, id});
    if (retry_metric != nullptr) retry_metric->inc();
  };

  // Deliver verdicts for batches whose service interval has elapsed: clean
  // batches complete their requests; failed/corrupted ones send every rider
  // back through retry_or_fail and feed the quarantine counter.
  auto finalize_due_batches = [&] {
    while (!pending_verdicts.empty() && pending_verdicts.begin()->first <= now) {
      const std::size_t bid = pending_verdicts.begin()->second;
      pending_verdicts.erase(pending_verdicts.begin());
      const BatchRecord& rec = report.batch_records[bid];
      if (replica_busy_metric != nullptr) replica_busy_metric->inc(rec.service_cycles());
      if (rec.failed || rec.corrupted) {
        if (rec.failed && failed_batches_metric != nullptr) failed_batches_metric->inc();
        if (rec.corrupted) {
          if (corrupted_batches_metric != nullptr) corrupted_batches_metric->inc();
          if (++corruptions[rec.replica] >= config.recovery.quarantine_after_corruptions) {
            kill_cycle[rec.replica] = std::min(kill_cycle[rec.replica], now);
          }
        }
        for (const std::uint64_t id : rec.request_ids) retry_or_fail(id);
      } else if (config.metrics != nullptr) {
        completed_metric->inc(rec.size());
        for (const std::uint64_t id : rec.request_ids) {
          latency_metric->observe(static_cast<double>(report.outcomes[id].latency_cycles()));
        }
      }
    }
  };

  auto dispatch_ready_batches = [&] {
    while (true) {
      const auto oldest = queue.oldest_arrival_cycle();
      if (!oldest) return;
      const std::size_t replica = lowest_free_replica();
      if (replica == busy_until.size()) return;
      if (!batcher.should_close(queue.size(), *oldest, now)) return;

      BatchRecord rec;
      rec.id = report.batch_records.size();
      rec.replica = replica;
      rec.dispatch_cycle = now;
      const std::uint64_t assemble_from = *oldest;
      const std::size_t k = batcher.take_count(queue.size());
      rec.completion_cycle = now + service_table[k - 1];
      if (fault_mode) {
        if (kill_cycle[replica] <= rec.completion_cycle) {
          // The replica dies mid-service: the batch is lost at the kill
          // cycle and the replica never comes back.
          rec.failed = true;
          rec.completion_cycle = kill_cycle[replica];
        } else if (corrupt_batches.count({replica, dispatch_ordinal[replica]}) > 0) {
          // Service completes on time but output detection rejects it.
          rec.corrupted = true;
        }
        ++dispatch_ordinal[replica];
      }
      rec.request_ids.reserve(k);
      for (std::size_t j = 0; j < k; ++j) {
        const Request r = *queue.try_pop();
        rec.request_ids.push_back(r.id);
        RequestOutcome& o = report.outcomes[r.id];
        o.dispatch_cycle = now;
        o.completion_cycle = rec.completion_cycle;
        o.batch_id = rec.id;
        o.replica = replica;
        // The queued span closes at dispatch and execute runs to the known
        // completion (or kill) cycle — together they cover arrival ->
        // completion with no gap, the span-exactness contract.
        span(req_entity, obs::EventKind::kSpanEnd, now, obs::SpanPhase::kQueued, r.id);
        span(req_entity, obs::EventKind::kSpanBegin, now, obs::SpanPhase::kExecute, r.id);
        span(req_entity, obs::EventKind::kSpanEnd, rec.completion_cycle,
             obs::SpanPhase::kExecute, r.id);
      }
      if (trace != nullptr) {
        // Assembly: the oldest rider's wait defines how long the batch took
        // to fill; the replica track shows the service interval.
        span(batcher_entity, obs::EventKind::kSpanBegin, assemble_from,
             obs::SpanPhase::kAssemble, rec.id);
        span(batcher_entity, obs::EventKind::kSpanEnd, now, obs::SpanPhase::kAssemble, rec.id);
        span(replica_entities[replica], obs::EventKind::kSpanBegin, now,
             obs::SpanPhase::kBatch, rec.id);
        span(replica_entities[replica], obs::EventKind::kSpanEnd, rec.completion_cycle,
             obs::SpanPhase::kBatch, rec.id);
      }
      busy_until[replica] = rec.completion_cycle;
      if (config.metrics != nullptr) {
        batches_metric->inc();
        batch_size_metric->observe(static_cast<double>(k));
        if (!fault_mode) {
          // Fault-free fast path: the verdict is known at dispatch, so the
          // completion metrics land here exactly as before faults existed.
          completed_metric->inc(k);
          replica_busy_metric->inc(rec.service_cycles());
          for (const std::uint64_t id : rec.request_ids) {
            latency_metric->observe(
                static_cast<double>(report.outcomes[id].latency_cycles()));
          }
        }
      }
      if (fault_mode) pending_verdicts.insert({rec.completion_cycle, rec.id});
      report.batch_records.push_back(std::move(rec));
    }
  };

  auto any_replica_busy = [&] {
    return std::any_of(busy_until.begin(), busy_until.end(),
                       [&](std::uint64_t b) { return b > now; });
  };

  while (next_arrival < requests.size() || !queue.empty() || any_replica_busy() ||
         !retry_backlog.empty()) {
    // Next event: an arrival, a replica completion, a retry coming off its
    // backoff, or — when a replica is already free and the queue is merely
    // waiting to fill — the batcher's timeout deadline.
    std::uint64_t t = kNever;
    if (next_arrival < requests.size()) {
      t = std::min(t, requests[next_arrival].arrival_cycle);
    }
    for (const std::uint64_t b : busy_until) {
      if (b > now) t = std::min(t, b);
    }
    if (!retry_backlog.empty()) t = std::min(t, retry_backlog.begin()->first);
    if (const auto oldest = queue.oldest_arrival_cycle();
        oldest && lowest_free_replica() < busy_until.size()) {
      t = std::min(t, batcher.close_deadline(*oldest));
    }
    if (t == kNever) {
      // Only possible once every replica is dead: nothing can ever complete,
      // so drain what is left and degrade gracefully instead of wedging.
      DFC_CHECK(fault_mode, "serve event loop lost its next event");
      while (const auto r = queue.try_pop()) {
        report.outcomes[r->id].failed = true;
        if (failed_requests_metric != nullptr) failed_requests_metric->inc();
        // The request dies in the queue: close its span at the drain cycle.
        span(req_entity, obs::EventKind::kSpanEnd, now, obs::SpanPhase::kQueued, r->id);
      }
      for (const auto& [ready, id] : retry_backlog) {
        (void)ready;
        report.outcomes[id].failed = true;
        if (failed_requests_metric != nullptr) failed_requests_metric->inc();
      }
      retry_backlog.clear();
      while (next_arrival < requests.size()) {
        report.outcomes[requests[next_arrival].id].failed = true;
        if (failed_requests_metric != nullptr) failed_requests_metric->inc();
        ++next_arrival;
      }
      break;
    }
    DFC_CHECK(t >= now, "serve event loop lost its next event");

    // Snapshot points strictly before t see the state after all events <= t-1.
    if (t > 0) take_snapshots_up_to(t - 1);

    depth_cycle_area += static_cast<double>(queue.size()) * static_cast<double>(t - now);
    now = t;

    // Fixed per-cycle order: verdicts first (frees replicas, schedules
    // retries), then fresh arrivals, then due retries, then dispatch.
    finalize_due_batches();
    mark_dead_replicas();

    while (next_arrival < requests.size() &&
           requests[next_arrival].arrival_cycle == now) {
      const Request& r = requests[next_arrival];
      if (queue.try_push(r) == Admission::kShed) {
        report.outcomes[r.id].shed = true;
        span(req_entity, obs::EventKind::kSpanBegin, now, obs::SpanPhase::kShed, r.id);
      } else {
        span(req_entity, obs::EventKind::kSpanBegin, now, obs::SpanPhase::kQueued, r.id);
      }
      ++next_arrival;
      max_depth = std::max(max_depth, queue.size());
    }
    while (!retry_backlog.empty() && retry_backlog.begin()->first <= now) {
      const std::uint64_t id = retry_backlog.begin()->second;
      retry_backlog.erase(retry_backlog.begin());
      const Request retry{id, now, requests[id].image_index};
      if (queue.try_push(retry) == Admission::kShed) {
        // A retry shed by a full queue is terminal — the request failed.
        report.outcomes[id].failed = true;
        ++retry_shed;
        if (failed_requests_metric != nullptr) failed_requests_metric->inc();
        span(req_entity, obs::EventKind::kSpanBegin, now, obs::SpanPhase::kShed, id);
      } else {
        span(req_entity, obs::EventKind::kSpanBegin, now, obs::SpanPhase::kQueued, id);
      }
      max_depth = std::max(max_depth, queue.size());
    }
    dispatch_ready_batches();
  }

  // An in-flight batch keeps its replica busy, and a busy replica keeps the
  // loop alive until its completion event — so every batch has its verdict.
  DFC_CHECK(pending_verdicts.empty(), "serve loop exited with unfinalized batches");
  mark_dead_replicas();

  take_snapshots_up_to(now);
  if (snapshot_csv != nullptr) report.metrics_csv = snapshot_csv->str();

  report.stats = summarize(requests, report.outcomes, report.batch_records, max_depth,
                           depth_cycle_area, quarantined);
  DFC_CHECK(report.stats.shed_requests + retry_shed == queue.shed_count(),
            "outcome shed flags disagree with the queue's shed counter");
  return report;
}

InferenceServer::InferenceServer(const dfc::core::NetworkSpec& spec, const ServeConfig& config)
    : config_(config), pool_(spec, config.replicas, config.build) {}

ServeReport InferenceServer::run(const Load& load) {
  if (config_.metrics != nullptr) {
    config_.metrics->gauge("serve_replicas", "Replica accelerators behind the endpoint")
        .set(static_cast<double>(pool_.size()));
  }
  if (pool_.warmed_batch_limit() < config_.batcher.max_batch_size) {
    pool_.warm(config_.batcher.max_batch_size, config_.threads);
  }
  std::vector<std::uint64_t> table;
  table.reserve(config_.batcher.max_batch_size);
  for (std::size_t n = 1; n <= config_.batcher.max_batch_size; ++n) {
    table.push_back(pool_.service_cycles(n));
  }

  ServeReport report = plan_serving(load.requests, config_, table);
  report.stats.name = pool_.spec().name;

  if (config_.compute_outputs) {
    std::vector<std::size_t> request_image_index(load.requests.size());
    for (const Request& r : load.requests) request_image_index[r.id] = r.image_index;
    report.logits =
        pool_.execute(report.batch_records, load.images, request_image_index, config_.threads);
  }
  return report;
}

}  // namespace dfc::serve
