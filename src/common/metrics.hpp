// Prometheus-style metrics primitives for the serving layer.
//
// Counter (monotonic), Gauge (set/add) and Histogram (fixed upper bounds,
// cumulative bucket counts) registered by name in a MetricsRegistry. The
// registry renders the standard text exposition format (one scrape = one
// string, no sockets — callers decide where it goes) and flat name/value
// snapshots for periodic CSV rows via the existing CsvWriter.
//
// Determinism: metrics carry no wall-clock timestamps — the serving
// simulation stamps snapshots with fabric cycles — so two runs of the same
// load produce byte-identical expositions. Counters and gauges are atomic,
// so any thread may update them; histograms take a small mutex on
// observe(). Registration order is exposition order.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dfc {

/// Monotonically increasing count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A value that can go up and down (queue depth, replicas busy).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) { value_.fetch_add(d, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. `bounds` are inclusive upper bounds in ascending
/// order; an implicit +Inf bucket catches the rest (Prometheus convention).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  std::uint64_t count() const;
  double sum() const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts (bounds().size() + 1 entries, last = +Inf), not
  /// cumulative; the exposition accumulates them.
  std::vector<std::uint64_t> bucket_counts() const;

 private:
  std::vector<double> bounds_;
  mutable std::mutex mu_;
  std::vector<std::uint64_t> buckets_;  ///< bounds_.size() + 1, last = +Inf
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// `count` upper bounds starting at `start`, each `factor` times the last —
/// the standard coverage for quantities spanning decades (latency in cycles).
std::vector<double> exponential_buckets(double start, double factor, std::size_t count);

/// Linear upper bounds: start, start+width, ... (`count` entries).
std::vector<double> linear_buckets(double start, double width, std::size_t count);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the metric registered under `name`, creating it on first use.
  /// Re-registration with the same name returns the existing instance
  /// (the help text of the first registration wins); registering the same
  /// name as a different metric type throws ConfigError.
  Counter& counter(const std::string& name, const std::string& help);
  Gauge& gauge(const std::string& name, const std::string& help);
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds);

  /// Prometheus text exposition (HELP/TYPE lines, histogram `_bucket` series
  /// with cumulative counts and `le` labels, `_sum`/`_count`). Metrics appear
  /// in registration order. Numbers are printed as integers where exact, so
  /// the output is byte-stable.
  std::string expose_text() const;

  /// Flat name -> value view for CSV snapshot rows: counters and gauges by
  /// name, histograms as `<name>_count` and `<name>_sum`.
  std::vector<std::pair<std::string, double>> snapshot() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    std::string help;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* find(const std::string& name);
  Entry& add(const std::string& name, const std::string& help, Kind kind);

  mutable std::mutex mu_;
  std::vector<Entry> entries_;  ///< registration order = exposition order
};

}  // namespace dfc
