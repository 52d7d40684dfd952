#include "core/schedule.hpp"

#include <map>
#include <mutex>
#include <sstream>
#include <variant>

#include "common/error.hpp"
#include "core/builder.hpp"
#include "core/harness.hpp"

namespace dfc::core {

namespace {

// Calibration sizing. The fill phase is bounded by the layer count (each
// stage must see its first window), so 3 periods of steady state are
// comfortably inside a few-images-per-layer batch; if the tail is not yet
// periodic the batch doubles, up to a bound that would only be hit if the
// design had data- or history-dependent timing — which the whole dataflow
// construction rules out.
std::size_t initial_calibration_batch(const NetworkSpec& spec) {
  return std::max<std::size_t>(8, 3 * spec.size() + 4);
}
constexpr std::size_t kMaxCalibrationBatch = 512;
constexpr std::size_t kMinRepeats = 3;

/// Smallest image period p such that the last kMinRepeats periods of both
/// the inject and the completion streams repeat with one common cycle
/// length. Returns 0 when no period fits in the calibrated tail.
std::size_t detect_period(const BatchResult& cal, std::uint64_t& period_cycles_out) {
  const std::vector<std::uint64_t>& inject = cal.inject_cycles;
  const std::vector<std::uint64_t>& complete = cal.completion_cycles;
  const std::size_t n = inject.size();
  for (std::size_t p = 1; kMinRepeats * p + 1 <= n; ++p) {
    const std::uint64_t period_cycles = complete[n - 1] - complete[n - 1 - p];
    bool ok = true;
    for (std::size_t i = n - 1 - kMinRepeats * p; ok && i + p <= n - 1; ++i) {
      ok = complete[i + p] - complete[i] == period_cycles &&
           inject[i + p] - inject[i] == period_cycles;
    }
    if (ok) {
      period_cycles_out = period_cycles;
      return p;
    }
  }
  return 0;
}

}  // namespace

CompiledSchedule compile_schedule(const NetworkSpec& spec, const BuildOptions& options,
                                  ScheduleMode mode, const std::vector<std::size_t>& cut,
                                  int link_credits) {
  // A cycle-accurate twin, calibrated on the one harness; timing is
  // data-independent, so the images are all-zero tensors.
  BuildOptions cycle_options = options;
  cycle_options.execution_mode = ExecutionMode::kCycleAccurate;
  auto twin = std::make_unique<DesignInstance>();
  build_design(*twin, spec, cycle_options, cut, link_credits);
  Harness harness(std::move(twin));
  for (std::size_t n = initial_calibration_batch(spec); n <= kMaxCalibrationBatch; n *= 2) {
    const std::vector<Tensor> zeros(n, Tensor(spec.input_shape));
    BatchResult cal = mode == ScheduleMode::kBatch ? harness.run_batch(zeros)
                                                   : harness.run_sequential(zeros);
    if (!cal.ok()) {
      throw SimError("compile_schedule: calibration of '" + spec.name + "' did not finish (" +
                     run_status_name(cal.status) + "): " + cal.error);
    }
    std::uint64_t period_cycles = 0;
    const std::size_t period_images = detect_period(cal, period_cycles);
    if (period_images == 0) continue;

    CompiledSchedule sched;
    sched.mode_ = mode;
    sched.inject_prefix_ = std::move(cal.inject_cycles);
    sched.complete_prefix_ = std::move(cal.completion_cycles);
    sched.period_images_ = period_images;
    sched.period_cycles_ = period_cycles;
    return sched;
  }
  // Unreachable for any design this builder can produce: the network is a
  // static-schedule Kahn process network, so a steady period must emerge.
  throw InternalError("compile_schedule: no steady period within " +
                      std::to_string(kMaxCalibrationBatch) + " calibration images for '" +
                      spec.name + "'");
}

std::string schedule_cache_key(const NetworkSpec& spec, const BuildOptions& options,
                               ScheduleMode mode, const std::vector<std::size_t>& cut,
                               int link_credits) {
  std::ostringstream key;
  key << "mode=" << static_cast<int>(mode) << ";in=" << spec.input_shape.str()
      << ";lat=" << spec.latency.fmul << ',' << spec.latency.fadd
      << ";fifo=" << options.stream_fifo_capacity << ',' << options.window_fifo_capacity
      << ";dma=" << options.dma_cycles_per_word << ',' << (options.dma_shared_bus ? 1 : 0)
      << ";link=" << options.link.latency_cycles << ',' << options.link.cycles_per_word << ','
      << link_credits << ";cut=";
  for (const std::size_t d : cut) key << d << '.';
  for (const LayerSpec& layer : spec.layers) {
    if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) {
      key << ";conv(" << conv->in_shape.str() << ',' << conv->out_fm << ',' << conv->kh << 'x'
          << conv->kw << ",s" << conv->stride << ",p" << conv->pad << ',' << conv->in_ports
          << '/' << conv->out_ports << ",a" << static_cast<int>(conv->act)
          << (conv->use_filter_chain ? ",fc" : "") << ')';
    } else if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) {
      key << ";pool(" << pool->in_shape.str() << ',' << static_cast<int>(pool->mode) << ','
          << pool->kh << 'x' << pool->kw << ",s" << pool->stride << ',' << pool->ports
          << (pool->use_filter_chain ? ",fc" : "") << ')';
    } else {
      const auto& fcn = std::get<FcnLayerSpec>(layer);
      key << ";fcn(" << fcn.in_count << ',' << fcn.out_count << ',' << fcn.num_accumulators
          << ",a" << static_cast<int>(fcn.act) << ')';
    }
  }
  return key.str();
}

namespace {
std::mutex g_schedule_cache_mutex;
std::map<std::string, std::shared_ptr<const CompiledSchedule>>& schedule_cache() {
  static std::map<std::string, std::shared_ptr<const CompiledSchedule>> cache;
  return cache;
}
}  // namespace

std::shared_ptr<const CompiledSchedule> shared_schedule(const NetworkSpec& spec,
                                                        const BuildOptions& options,
                                                        ScheduleMode mode,
                                                        const std::vector<std::size_t>& cut,
                                                        int link_credits) {
  const std::string key = schedule_cache_key(spec, options, mode, cut, link_credits);
  // The compile runs under the lock on purpose: sweep workers asking for the
  // same design serialize on one calibration instead of each paying it.
  std::lock_guard<std::mutex> lock(g_schedule_cache_mutex);
  auto& cache = schedule_cache();
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  auto sched = std::make_shared<const CompiledSchedule>(
      compile_schedule(spec, options, mode, cut, link_credits));
  cache.emplace(key, sched);
  return sched;
}

void clear_schedule_cache() {
  std::lock_guard<std::mutex> lock(g_schedule_cache_mutex);
  schedule_cache().clear();
}

std::size_t schedule_cache_size() {
  std::lock_guard<std::mutex> lock(g_schedule_cache_mutex);
  return schedule_cache().size();
}

}  // namespace dfc::core
