// Shared pieces of the two-clock benchmark program: the span tracer, the
// workload interface and small statistics helpers.
//
// Every layer is timed from outside, around calls into its public functions.
// A Span always measures its own host time (that is how ops are timed); it is
// recorded as a trace span only while the Tracer is enabled, so the untraced
// runs that produce the end-to-end metrics pay two clock reads per layer call
// and nothing else.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded span. `parent` indexes Tracer::spans() (-1 = root); `op` is
/// the closed-loop op the span belongs to (-1 = set-up or probe work).
struct SpanRecord {
  std::string name;  ///< "<workload>.<layer call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::int64_t op = -1;
  std::int64_t child_ns = 0;  ///< time covered by direct children

  std::int64_t self_ns() const { return end_ns - start_ns - child_ns; }
};

/// In-memory span store; written out once, when the run ends.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_scope(std::string scope) { scope_ = std::move(scope); }
  void set_op(std::int64_t op) { op_ = op; }

  std::int64_t open(const std::string& name, std::int64_t start_ns);
  void close(std::int64_t id, std::int64_t end_ns);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self times (ms) of the spans called `<scope>.<name>`: set-up spans
  /// (op id -1) when `setup`, loop spans otherwise.
  std::vector<double> self_ms(const std::string& scope, const std::string& name,
                              bool setup) const;

  /// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  std::string to_json() const;

 private:
  bool enabled_ = false;
  std::string scope_;
  std::int64_t op_ = -1;
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> open_;  ///< stack of open span ids
};

/// RAII layer-call timer; see the file comment.
class Span {
 public:
  Span(Tracer& tracer, const std::string& name)
      : tracer_(tracer), start_(now_ns()),
        id_(tracer.enabled() ? tracer.open(name, start_) : -1) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in ns.
  std::int64_t stop() {
    if (end_ == 0) {
      end_ = now_ns();
      if (id_ >= 0) tracer_.close(id_, end_);
    }
    return end_ - start_;
  }

 private:
  Tracer& tracer_;
  std::int64_t start_;
  std::int64_t id_;
  std::int64_t end_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one closed-loop op did.
struct OpResult {
  std::int64_t host_ns = 0;   ///< inside the timed layer call(s) only
  std::size_t items = 0;      ///< images (engine) or planned requests (fleet)
  bool ok = true;             ///< false: a non-kOk RunStatus or broken invariant
  const char* engine = "";    ///< which engine ran the op
};

/// Simulated-clock results of a workload (exact, seed-determined).
struct SimResult {
  double interval_cycles = 0.0;
  double latency_cycles_p50 = 0.0;
  double latency_cycles_p99 = 0.0;
  double rate_per_s = 0.0;
  double served_pct = 0.0;
};

struct WorkloadOptions {
  std::uint64_t seed = 1;
  std::size_t threads = 1;       ///< DFCNN_SWEEP_THREADS and ServeConfig::threads
  std::int64_t corrupt_op = -1;  ///< test hook: corrupt one logit of this op
};

/// One benchmark workload. main.cpp calls setup() several times (each call
/// starts from cleared caches and replaces the previous state), then op(k)
/// in a closed loop, then check() once.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;

  virtual void setup(Tracer& tracer) = 0;
  virtual OpResult op(std::size_t k, Tracer& tracer) = 0;

  /// Verifies the outputs recorded by op(); returns the ids of failed ops.
  virtual std::vector<std::size_t> check() = 0;

  virtual SimResult sim() const = 0;

  /// Traced-run only: probes that perturb the engine (link attribution) or
  /// time a layer outside the loop, run after the traced loop.
  virtual void probe(Tracer& /*tracer*/) {}

  /// Per-layer metrics, named without the `<workload>.` prefix main.cpp
  /// adds. Span timings come from `tracer` (set-up spans have op id -1, loop
  /// spans the op id; only traced ops record spans).
  virtual std::vector<Metric> layer_metrics(const Tracer& tracer) const = 0;
};

/// The four workloads, in the order a traced run visits them.
std::vector<const char*> workload_names();
std::unique_ptr<Workload> make_workload(const std::string& name, const WorkloadOptions& opts);

// --- statistics ---------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
template <typename T>
T percentile(std::vector<T> v, double p) {
  if (v.empty()) return T{};
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size());
  std::size_t idx = static_cast<std::size_t>(rank);
  if (static_cast<double>(idx) < rank) ++idx;  // ceil
  if (idx > 0) --idx;
  return v[std::min(idx, v.size() - 1)];
}

template <typename T>
double median(const std::vector<T>& v) {
  if (v.empty()) return 0.0;
  std::vector<T> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? static_cast<double>(s[n / 2])
                    : (static_cast<double>(s[n / 2 - 1]) + static_cast<double>(s[n / 2])) / 2.0;
}

}  // namespace perfbench
