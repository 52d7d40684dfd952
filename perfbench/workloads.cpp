// The four benchmark workloads. Each drives the repository's public API the
// way a user would and times every layer call from outside (see bench.hpp).
//
//   cifar_cycle     CIFAR-10 TC2 on one board, cycle-accurate engine, batches
//                   of 16 fresh images.
//   cifar_compiled  the same design and image stream on the compiled static
//                   schedule: 8 fresh images + 8 repeats (logits-memo hits)
//                   per batch of 16.
//   alexnet_4board  AlexNet-mini cut over 4 boards by the exact partitioner,
//                   lockstep MultiFpgaHarness over credit interlinks, batches
//                   of 8.
//   usps_fleet      USPS TC1 on the reference 4-node cluster (diurnal and
//                   bursty open-loop arrivals at 2 Mreq/s) plus one
//                   InferenceServer scenario per op.
#include <cstring>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "cluster/cluster.hpp"
#include "core/compile.hpp"
#include "core/functional_model.hpp"
#include "core/harness.hpp"
#include "core/presets.hpp"
#include "core/schedule.hpp"
#include "dse/throughput_model.hpp"
#include "multifpga/exec.hpp"
#include "multifpga/partition.hpp"
#include "report/experiments.hpp"
#include "serve/server.hpp"
#include "verify/verifier.hpp"

namespace perfbench {
namespace {

using namespace dfc;

/// Seed of stream element `index` under workload seed `seed` (splitmix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Warm-up images come from their own stream so they never alias op inputs.
constexpr std::uint64_t kWarmStream = 1ULL << 40;

/// Op id of the set-up warm-up batch (never a loop op).
constexpr std::size_t kWarmUp = ~std::size_t{0};

/// Image `first + i` of the workload's seeded stream, i < count. cifar_cycle
/// and cifar_compiled draw from the same stream, so under one seed they see
/// the same images.
std::vector<Tensor> stream_images(const core::NetworkSpec& spec, std::uint64_t seed,
                                  std::uint64_t first, std::size_t count) {
  std::vector<Tensor> images;
  images.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    images.push_back(std::move(report::random_images(spec, 1, derive_seed(seed, first + i))[0]));
  }
  return images;
}

bool bit_identical(const std::vector<std::vector<float>>& a,
                   const std::vector<std::vector<float>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

bool same_timing(const core::BatchResult& a, const core::BatchResult& b) {
  return a.inject_cycles == b.inject_cycles && a.completion_cycles == b.completion_cycles;
}

/// A batch that ran to completion with one output per image.
bool complete(const core::BatchResult& r, std::size_t images) {
  return r.ok() && r.outputs.size() == images && r.completion_cycles.size() == images;
}

/// The test hook: flips the low mantissa bit of the first logit.
void corrupt_first_logit(core::BatchResult& r) {
  if (r.outputs.empty() || r.outputs[0].empty()) return;
  std::uint32_t bits = 0;
  std::memcpy(&bits, &r.outputs[0][0], sizeof bits);
  bits ^= 1U;
  std::memcpy(&r.outputs[0][0], &bits, sizeof bits);
}

/// Push + pop + stall events over every FIFO of `ctx` since it was built:
/// the engine's unit of work.
std::uint64_t fifo_side_effects(const df::SimContext& ctx) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < ctx.fifo_count(); ++i) {
    const df::FifoStats& s = ctx.fifo(i).lifetime_stats();
    total += s.pushes + s.pops + s.full_stall_cycles + s.empty_stall_cycles;
  }
  return total;
}

SimResult engine_sim(const core::BatchResult& r) {
  SimResult s;
  std::vector<std::uint64_t> latency;
  for (std::size_t i = 0; i < r.completed(); ++i) latency.push_back(r.image_latency_cycles(i));
  s.interval_cycles = static_cast<double>(r.steady_interval_cycles());
  s.latency_cycles_p50 = static_cast<double>(percentile(latency, 50.0));
  s.latency_cycles_p99 = static_cast<double>(percentile(latency, 99.0));
  s.rate_per_s = s.interval_cycles > 0 ? core::kClockHz / s.interval_cycles : 0.0;
  s.served_pct = r.requested == 0 ? 0.0
                                  : 100.0 * static_cast<double>(r.completed()) /
                                        static_cast<double>(r.requested);
  return s;
}

double span_median_ms(const Tracer& t, const char* scope, const char* span, bool setup) {
  return median(t.self_ms(scope, span, setup));
}

core::NetworkSpec compile_preset(const core::Preset& preset, Tracer& t) {
  Span s(t, "core.compile");
  return core::compile(preset.net, preset.input_shape, preset.plan, preset.name);
}

verify::VerifyReport verify_single(const core::NetworkSpec& spec, Tracer& t) {
  Span s(t, "verify.verify_design");
  return verify::verify_design(spec);
}

void clear_caches() {
  core::clear_schedule_cache();
  core::clear_functional_model_cache();
}

void add_verify_metrics(std::vector<Metric>& m, const verify::VerifyReport& rep) {
  m.push_back({"verify.errors", static_cast<double>(rep.errors()), "count"});
  m.push_back({"verify.warnings", static_cast<double>(rep.warnings()), "count"});
}

void add_dse_metrics(std::vector<Metric>& m, double predicted, double observed) {
  m.push_back({"dse.predicted_interval_cycles", predicted, "cycles"});
  m.push_back({"dse.interval_gap_pct",
               observed > 0 ? 100.0 * (observed - predicted) / observed : 0.0, "%"});
}

// --- cifar_cycle / cifar_compiled ---------------------------------------------

/// Shared state of the two CIFAR workloads: one design, one image stream,
/// and the per-op outputs kept for the after-loop checks.
class CifarBase : public Workload {
 public:
  static constexpr std::size_t kBatch = 16;

  explicit CifarBase(const WorkloadOptions& opts)
      : opts_(opts), preset_(core::make_cifar_preset()) {}

  SimResult sim() const override { return engine_sim(reference_); }

 protected:
  /// Compile, verify and build; `compiled` selects the compiled schedule.
  void build(Tracer& t, bool compiled) {
    clear_caches();
    spec_ = compile_preset(preset_, t);
    verify_ = verify_single(spec_, t);
    predicted_interval_ = static_cast<double>(dse::estimate_timing(spec_).interval_cycles);
    core::BuildOptions options;
    if (compiled) options.execution_mode = core::ExecutionMode::kCompiledSchedule;
    harness_.reset();  // one accelerator alive at a time
    Span s(t, "core.build_accelerator");
    harness_ = std::make_unique<core::AcceleratorHarness>(core::build_accelerator(spec_, options));
  }

  /// Runs one batch through the harness inside a `span` and applies the
  /// test hook; counts the engine the harness chose.
  core::BatchResult run(std::size_t k, const std::vector<Tensor>& images, Tracer& t,
                        const char* span, OpResult& out) {
    const bool compiled = harness_->compiled_mode_legal();
    ++(compiled ? compiled_ops_ : cycle_ops_);
    out.engine = compiled ? "compiled" : "cycle";
    core::BatchResult r;
    {
      Span s(t, span);
      r = harness_->run_batch(images);
      out.host_ns = s.stop();
    }
    out.items = images.size();
    if (k == kWarmUp) return r;
    if (static_cast<std::int64_t>(k) == opts_.corrupt_op) corrupt_first_logit(r);
    return r;
  }

  /// The images of op k (identical on every call).
  virtual std::vector<Tensor> op_images(std::size_t k) const = 0;

  /// Reference outputs and timing of `images` on the other engine.
  virtual core::BatchResult other_engine(const std::vector<Tensor>& images) = 0;

  /// Checks sampled ops (every `every`-th and the last) bit-for-bit against
  /// the other engine, and the reference timing once.
  std::vector<std::size_t> cross_check(std::size_t every) {
    std::vector<std::size_t> failed;
    if (outputs_.empty()) return failed;
    const std::size_t last = outputs_.size() - 1;
    for (std::size_t k = 0; k <= last; ++k) {
      if (k % every != 0 && k != last) continue;
      if (outputs_[k].empty()) continue;  // the op itself already failed
      const core::BatchResult ref = other_engine(op_images(k));
      const bool timing = same_timing(ref, reference_);
      if (!timing || !bit_identical(ref.outputs, outputs_[k])) failed.push_back(k);
      if (!timing) {
        // Every op was compared with the reference timing in the loop, so a
        // wrong reference makes every op wrong.
        for (std::size_t j = 0; j <= last; ++j) failed.push_back(j);
        break;
      }
    }
    return failed;
  }

  void record(std::size_t k, std::vector<std::vector<float>> outputs) {
    if (outputs_.size() <= k) outputs_.resize(k + 1);
    outputs_[k] = std::move(outputs);
  }

  std::vector<Metric> common_metrics(const Tracer& t, const char* scope) const {
    std::vector<Metric> m;
    m.push_back({"core.compile.ms", span_median_ms(t, scope, "core.compile", true), "ms"});
    m.push_back({"verify.verify_design.ms",
                 span_median_ms(t, scope, "verify.verify_design", true), "ms"});
    m.push_back({"core.build_accelerator.ms",
                 span_median_ms(t, scope, "core.build_accelerator", true), "ms"});
    add_verify_metrics(m, verify_);
    m.push_back({"core.engine_cycle_ops", static_cast<double>(cycle_ops_), "count"});
    m.push_back({"core.engine_compiled_ops", static_cast<double>(compiled_ops_), "count"});
    return m;
  }

  WorkloadOptions opts_;
  core::Preset preset_;
  core::NetworkSpec spec_;
  verify::VerifyReport verify_;
  double predicted_interval_ = 0.0;
  std::unique_ptr<core::AcceleratorHarness> harness_;
  core::BatchResult reference_;  ///< the set-up warm-up batch
  std::vector<std::vector<std::vector<float>>> outputs_;  ///< per op
  std::size_t cycle_ops_ = 0;
  std::size_t compiled_ops_ = 0;
};

class CifarCycle final : public CifarBase {
 public:
  using CifarBase::CifarBase;
  const char* name() const override { return "cifar_cycle"; }

  void setup(Tracer& t) override {
    build(t, false);
    OpResult warm;
    reference_ = run(kWarmUp, stream_images(spec_, opts_.seed, kWarmStream, kBatch), t,
                     "core.run_batch", warm);
    if (!complete(reference_, kBatch)) throw std::runtime_error("cifar_cycle warm-up failed");
    outputs_.clear();
    cycle_ops_ = compiled_ops_ = 0;
    host_ns_.clear();
  }

  OpResult op(std::size_t k, Tracer& t) override {
    const std::vector<Tensor> images = op_images(k);
    const df::SimContext& ctx = *harness_->accelerator().ctx;
    const std::uint64_t effects_before = fifo_side_effects(ctx);
    OpResult out;
    core::BatchResult r = run(k, images, t, "core.run_batch", out);
    sim_cycles_ = ctx.cycle();
    effects_per_op_ = fifo_side_effects(ctx) - effects_before;
    if (t.enabled()) host_ns_.push_back(out.host_ns);
    out.ok = complete(r, kBatch) && same_timing(r, reference_);
    record(k, std::move(r.outputs));
    return out;
  }

  // Every 8th op's logits against the functional model (the compiled path's
  // logits) and the timing against the compiled schedule.
  std::vector<std::size_t> check() override { return cross_check(8); }

  std::vector<Metric> layer_metrics(const Tracer& t) const override {
    std::vector<Metric> m = common_metrics(t, name());
    const double ns = median(host_ns_);
    const double cycles = static_cast<double>(sim_cycles_);
    const double effects = static_cast<double>(effects_per_op_);
    const df::SimContext& ctx = *harness_->accelerator().ctx;
    m.push_back({"core.run_batch.ms", span_median_ms(t, name(), "core.run_batch", false), "ms"});
    m.push_back({"dataflow.host_ns_per_sim_cycle", cycles > 0 ? ns / cycles : 0.0, "ns"});
    m.push_back({"dataflow.host_ns_per_fifo_side_effect", effects > 0 ? ns / effects : 0.0, "ns"});
    m.push_back({"dataflow.fifo_side_effects_per_image", effects / kBatch, "count"});
    m.push_back({"dataflow.sim_cycles", cycles, "cycles"});
    m.push_back({"dataflow.processes", static_cast<double>(ctx.process_count()), "count"});
    m.push_back({"dataflow.fifos", static_cast<double>(ctx.fifo_count()), "count"});
    add_dse_metrics(m, predicted_interval_,
                    static_cast<double>(reference_.steady_interval_cycles()));
    return m;
  }

 private:
  std::vector<Tensor> op_images(std::size_t k) const override {
    return stream_images(spec_, opts_.seed, k * kBatch, kBatch);
  }

  core::BatchResult other_engine(const std::vector<Tensor>& images) override {
    if (functional_ == nullptr) {
      functional_ = std::make_unique<core::FunctionalModel>(spec_);
      core::BuildOptions compiled;
      compiled.execution_mode = core::ExecutionMode::kCompiledSchedule;
      schedule_ = core::shared_schedule(spec_, compiled, core::ScheduleMode::kBatch);
    }
    core::BatchResult r;
    r.requested = images.size();
    for (std::size_t i = 0; i < images.size(); ++i) {
      r.outputs.push_back(functional_->infer(images[i]));
      r.inject_cycles.push_back(schedule_->inject_cycle(i));
      r.completion_cycles.push_back(schedule_->completion_cycle(i));
    }
    return r;
  }

  std::unique_ptr<core::FunctionalModel> functional_;
  std::shared_ptr<const core::CompiledSchedule> schedule_;
  std::vector<std::int64_t> host_ns_;  ///< traced ops
  std::uint64_t sim_cycles_ = 0;       ///< per op (identical on every op)
  std::uint64_t effects_per_op_ = 0;
};

class CifarCompiled final : public CifarBase {
 public:
  static constexpr std::size_t kFresh = kBatch / 2;

  using CifarBase::CifarBase;
  const char* name() const override { return "cifar_compiled"; }

  void setup(Tracer& t) override {
    build(t, true);
    core::BuildOptions compiled;
    compiled.execution_mode = core::ExecutionMode::kCompiledSchedule;
    {
      Span s(t, "core.shared_schedule");
      schedule_ = core::shared_schedule(spec_, compiled, core::ScheduleMode::kBatch);
    }
    OpResult warm;
    reference_ = run(kWarmUp, stream_images(spec_, opts_.seed, kWarmStream, kBatch), t,
                     "core.run_batch_compiled", warm);
    if (!complete(reference_, kBatch)) throw std::runtime_error("cifar_compiled warm-up failed");
    // The harness fetched this same shared model on its first run.
    functional_ = core::shared_functional_model(spec_);
    outputs_.clear();
    passed_.clear();
    cycle_ops_ = compiled_ops_ = 0;
    memo_hits_ = memo_lookups_ = 0;
  }

  OpResult op(std::size_t k, Tracer& t) override {
    const std::vector<Tensor> images = op_images(k);
    const std::size_t memo_before = functional_->memo_size();
    OpResult out;
    core::BatchResult r = run(k, images, t, "core.run_batch_compiled", out);
    const std::size_t memo_after = functional_->memo_size();
    if (memo_after >= memo_before) {  // else the memo reset mid-op: not counted
      memo_lookups_ += images.size();
      memo_hits_ += images.size() - (memo_after - memo_before);
    }
    out.ok = complete(r, kBatch) && same_timing(r, reference_) && repeats_match(k, r.outputs);
    if (passed_.size() <= k) passed_.resize(k + 1, false);
    passed_[k] = out.ok;
    record(k, std::move(r.outputs));
    return out;
  }

  // Every 32nd op against the cycle-accurate engine (outputs and timing).
  std::vector<std::size_t> check() override { return cross_check(32); }

  void probe(Tracer& t) override {
    // Uncached forward passes on fresh images: the functional model's own
    // cost, which memo hits hide in the loop.
    core::FunctionalModel model(spec_);
    for (const Tensor& image : stream_images(spec_, opts_.seed, 2 * kWarmStream, kFresh)) {
      Span s(t, "core.functional_model.infer");
      model.infer(image);
      infer_ns_.push_back(s.stop());
    }
  }

  std::vector<Metric> layer_metrics(const Tracer& t) const override {
    std::vector<Metric> m = common_metrics(t, name());
    m.push_back({"core.shared_schedule.ms",
                 span_median_ms(t, name(), "core.shared_schedule", true), "ms"});
    m.push_back({"core.schedule.calibration_images",
                 static_cast<double>(schedule_->calibration_images()), "count"});
    m.push_back({"core.schedule.period_cycles", static_cast<double>(schedule_->period_cycles()),
                 "cycles"});
    m.push_back({"core.run_batch_compiled.ms",
                 span_median_ms(t, name(), "core.run_batch_compiled", false), "ms"});
    m.push_back({"core.functional_model.infer_us", median(infer_ns_) / 1e3, "us"});
    m.push_back({"core.functional_model.memo_hit_pct",
                 memo_lookups_ == 0 ? 0.0
                                    : 100.0 * static_cast<double>(memo_hits_) /
                                          static_cast<double>(memo_lookups_),
                 "%"});
    return m;
  }

 private:
  /// Op k: the 8 fresh images of stream slot k, then the 8 of slot k-1
  /// (slot 0 repeats itself), which the logits memo still holds.
  std::vector<Tensor> op_images(std::size_t k) const override {
    std::vector<Tensor> images = stream_images(spec_, opts_.seed, k * kFresh, kFresh);
    std::vector<Tensor> repeats =
        stream_images(spec_, opts_.seed, (k == 0 ? 0 : k - 1) * kFresh, kFresh);
    for (Tensor& img : repeats) images.push_back(std::move(img));
    return images;
  }

  /// Repeated images must give the logits they gave when they were fresh.
  bool repeats_match(std::size_t k, const std::vector<std::vector<float>>& out) const {
    if (out.size() != kBatch) return false;
    const std::vector<std::vector<float>> repeats(out.begin() + kFresh, out.end());
    if (k == 0) return bit_identical(repeats, {out.begin(), out.begin() + kFresh});
    // A failed previous op is no reference (its own failure is counted).
    if (passed_.size() < k || !passed_[k - 1]) return true;
    const auto& prev = outputs_[k - 1];
    return bit_identical(repeats, {prev.begin(), prev.begin() + kFresh});
  }

  core::BatchResult other_engine(const std::vector<Tensor>& images) override {
    if (cycle_twin_ == nullptr) {
      cycle_twin_ = std::make_unique<core::AcceleratorHarness>(core::build_accelerator(spec_));
    }
    return cycle_twin_->run_batch(images);
  }

  std::shared_ptr<const core::CompiledSchedule> schedule_;
  std::shared_ptr<const core::FunctionalModel> functional_;
  std::unique_ptr<core::AcceleratorHarness> cycle_twin_;
  std::vector<bool> passed_;  ///< per op: its in-loop checks passed
  std::size_t memo_hits_ = 0;
  std::size_t memo_lookups_ = 0;
  std::vector<std::int64_t> infer_ns_;
};

// --- alexnet_4board -------------------------------------------------------------

class Alexnet4Board final : public Workload {
 public:
  static constexpr std::size_t kBoards = 4;
  static constexpr std::size_t kBatch = 8;
  static constexpr std::size_t kPoolBatches = 8;  ///< distinct input batches, cycled

  explicit Alexnet4Board(const WorkloadOptions& opts)
      : opts_(opts), preset_(core::make_alexnet_mini_preset()) {
    options_.link = kLink;
  }
  const char* name() const override { return "alexnet_4board"; }

  void setup(Tracer& t) override {
    clear_caches();
    spec_ = compile_preset(preset_, t);
    {
      Span s(t, "multifpga.partition_network_exact");
      plan_ = mfpga::partition_network_exact(spec_, kBoards, kLink);
    }
    {
      Span s(t, "verify.verify_design_multi");
      verify_ = verify::verify_design_multi(spec_, plan_.layer_device, options_, 0);
    }
    {
      Span s(t, "multifpga.build_multi_fpga");
      build_harness();
    }
    pool_ = stream_images(spec_, opts_.seed, 0, kBatch * kPoolBatches);
    reference_ = harness_->run_batch(stream_images(spec_, opts_.seed, kWarmStream, kBatch));
    if (!complete(reference_, kBatch)) throw std::runtime_error("alexnet_4board warm-up failed");
    outputs_.clear();
    host_ns_.clear();
  }

  OpResult op(std::size_t k, Tracer& t) override {
    // A reused MultiFpgaHarness does not reset the last board's DMA bus, so
    // its second batch completes with skewed timing; every op therefore runs
    // on a freshly built design (a sub-millisecond build outside the timer).
    build_harness();
    const std::vector<Tensor> images = batch(k);
    OpResult out;
    out.engine = "multifpga";
    out.items = kBatch;
    core::BatchResult r;
    {
      Span s(t, "multifpga.run_batch");
      r = harness_->run_batch(images);
      out.host_ns = s.stop();
    }
    if (static_cast<std::int64_t>(k) == opts_.corrupt_op) corrupt_first_logit(r);
    sim_cycles_ = harness_->device_context(0).cycle();
    for (std::size_t d = 0; d < kBoards; ++d) {
      effects_[d] = fifo_side_effects(harness_->device_context(d));
    }
    if (t.enabled()) host_ns_.push_back(out.host_ns);
    out.ok = complete(r, kBatch) && same_timing(r, reference_);
    if (outputs_.size() <= k) outputs_.resize(k + 1);
    outputs_[k] = std::move(r.outputs);
    return out;
  }

  // Every op's logits against FunctionalModel::infer on the same images.
  std::vector<std::size_t> check() override {
    core::FunctionalModel model(spec_);
    std::vector<std::vector<std::vector<float>>> expected(kPoolBatches);
    std::vector<std::size_t> failed;
    for (std::size_t k = 0; k < outputs_.size(); ++k) {
      if (outputs_[k].empty()) continue;  // the op itself already failed
      auto& want = expected[k % kPoolBatches];
      if (want.empty()) {
        for (const Tensor& img : batch(k)) want.push_back(model.infer(img));
      }
      if (!bit_identical(outputs_[k], want)) failed.push_back(k);
    }
    return failed;
  }

  SimResult sim() const override { return engine_sim(reference_); }

  void probe(Tracer& /*tracer*/) override {
    // Link attribution classifies every global cycle and so turns off the
    // coordinated fast-forward: a separate, traced-only batch.
    build_harness();
    harness_->set_link_attribution(true);
    const core::BatchResult r = harness_->run_batch(batch(0));
    if (!complete(r, kBatch) || !same_timing(r, reference_)) {
      throw std::runtime_error("alexnet_4board link-attribution batch diverged");
    }
    links_ = {};
    for (std::size_t i = 0; i < harness_->accelerator().wires.size(); ++i) {
      const obs::LinkActivity& a = harness_->link_activity(i);
      links_.wire_busy += a.wire_busy;
      links_.credit_stall += a.credit_stall;
      links_.rx_backpressure += a.rx_backpressure;
      links_.idle += a.idle;
    }
  }

  std::vector<Metric> layer_metrics(const Tracer& t) const override {
    std::vector<Metric> m;
    const char* w = name();
    m.push_back({"core.compile.ms", span_median_ms(t, w, "core.compile", true), "ms"});
    m.push_back({"multifpga.partition_network_exact.ms",
                 span_median_ms(t, w, "multifpga.partition_network_exact", true), "ms"});
    m.push_back({"verify.verify_design_multi.ms",
                 span_median_ms(t, w, "verify.verify_design_multi", true), "ms"});
    add_verify_metrics(m, verify_);
    m.push_back({"multifpga.build_multi_fpga.ms",
                 span_median_ms(t, w, "multifpga.build_multi_fpga", true), "ms"});
    m.push_back({"multifpga.run_batch.ms", span_median_ms(t, w, "multifpga.run_batch", false),
                 "ms"});
    const double cycles = static_cast<double>(sim_cycles_);
    m.push_back({"multifpga.host_ns_per_sim_cycle", cycles > 0 ? median(host_ns_) / cycles : 0.0,
                 "ns"});
    for (std::size_t d = 0; d < kBoards; ++d) {
      m.push_back({"multifpga.fpga" + std::to_string(d) + ".fifo_side_effects_per_image",
                   static_cast<double>(effects_[d]) / kBatch, "count"});
    }
    const double total = static_cast<double>(links_.total());
    const auto pct = [&](std::uint64_t v) {
      return total > 0 ? 100.0 * static_cast<double>(v) / total : 0.0;
    };
    m.push_back({"interlink.wire_busy_pct", pct(links_.wire_busy), "%"});
    m.push_back({"interlink.credit_stall_pct", pct(links_.credit_stall), "%"});
    m.push_back({"interlink.rx_backpressure_pct", pct(links_.rx_backpressure), "%"});
    add_dse_metrics(m, static_cast<double>(plan_.timing.interval_cycles),
                    static_cast<double>(reference_.steady_interval_cycles()));
    return m;
  }

 private:
  static constexpr core::LinkModel kLink{40, 1};

  void build_harness() {
    harness_.reset();
    harness_ = std::make_unique<mfpga::MultiFpgaHarness>(
        mfpga::build_multi_fpga(spec_, plan_.layer_device, options_));
  }

  std::vector<Tensor> batch(std::size_t k) const {
    const auto first = pool_.begin() + static_cast<std::ptrdiff_t>((k % kPoolBatches) * kBatch);
    return {first, first + kBatch};
  }

  WorkloadOptions opts_;
  core::Preset preset_;
  core::BuildOptions options_;
  core::NetworkSpec spec_;
  mfpga::MultiFpgaPlan plan_;
  verify::VerifyReport verify_;
  std::unique_ptr<mfpga::MultiFpgaHarness> harness_;
  std::vector<Tensor> pool_;
  core::BatchResult reference_;
  std::vector<std::vector<std::vector<float>>> outputs_;
  std::vector<std::int64_t> host_ns_;
  std::uint64_t sim_cycles_ = 0;
  std::uint64_t effects_[kBoards] = {};
  obs::LinkActivity links_{};
};

// --- usps_fleet -------------------------------------------------------------------

class UspsFleet final : public Workload {
 public:
  /// Per arrival shape. At 2 Mreq/s this is 12 M cycles: 24 diurnal periods
  /// and ~120 ON/OFF bursts at the reference 50k-cycle dwells, enough that
  /// the fleet's simulated results move only a few % from seed to seed.
  static constexpr std::size_t kClusterRequests = 240'000;
  /// Sized so that serve takes about a third of each planner round.
  static constexpr std::size_t kServeRequests = 1'500'000;
  static constexpr double kClusterRate = 2'000'000.0;
  /// ~1.2x the 2-replica pool's batch-16 capacity (2 x 16 images per
  /// 4528-cycle batch at 100 MHz is ~0.71 Mreq/s), so the shed path runs.
  static constexpr double kServeRate = 850'000.0;

  explicit UspsFleet(const WorkloadOptions& opts)
      : opts_(opts), preset_(core::make_usps_preset()) {}
  const char* name() const override { return "usps_fleet"; }

  void setup(Tracer& t) override {
    clear_caches();
    fleet_.reset();  // one fleet and one server alive at a time
    server_.reset();
    spec_ = compile_preset(preset_, t);
    verify_ = verify_single(spec_, t);
    {
      Span s(t, "serve.generate_load");
      diurnal_ = serve::generate_load(spec_, load_spec(serve::ArrivalProcess::kDiurnal,
                                                       kClusterRate, kClusterRequests, 1));
      bursty_ = serve::generate_load(spec_, load_spec(serve::ArrivalProcess::kBursty,
                                                      kClusterRate, kClusterRequests, 2));
      poisson_ = serve::generate_load(spec_, load_spec(serve::ArrivalProcess::kPoisson,
                                                       kServeRate, kServeRequests, 3));
    }
    {
      Span s(t, "cluster.service_tables");
      fleet_ = std::make_unique<cluster::Cluster>(spec_, cluster_config());
    }
    server_ = std::make_unique<serve::InferenceServer>(spec_, serve_config());
    bool serve_conserved = false;
    {
      Span s(t, "serve.warm");
      const serve::ServeReport report = server_->run(poisson_);
      serve_conserved = conserved(report);
      ref_serve_ = report.stats;  // the per-request outcomes are not kept
    }
    ref_diurnal_ = fleet_->run(diurnal_, "diurnal", "diurnal");
    ref_bursty_ = fleet_->run(bursty_, "bursty", "bursty");
    ref_json_ = fleet_json(ref_diurnal_, ref_bursty_, ref_serve_);
    if (!conserved(ref_diurnal_) || !conserved(ref_bursty_) || !serve_conserved) {
      throw std::runtime_error("usps_fleet warm-up reports do not conserve requests");
    }
    last_ok_ = true;
    ran_ops_ = false;
  }

  OpResult op(std::size_t k, Tracer& t) override {
    OpResult out;
    out.engine = "planner";
    cluster::ClusterReport d;
    cluster::ClusterReport b;
    serve::ServeReport s;
    {
      Span round(t, "planner.round");
      {
        Span c(t, "cluster.run");
        d = fleet_->run(diurnal_, "diurnal", "diurnal");
      }
      {
        Span c(t, "cluster.run");
        b = fleet_->run(bursty_, "bursty", "bursty");
      }
      {
        Span c(t, "serve.run");
        s = server_->run(poisson_);
      }
      out.host_ns = round.stop();
    }
    out.items = 2 * kClusterRequests + kServeRequests;
    // Called again on the same load, every planner must reproduce the
    // set-up reports byte for byte and account for every request.
    out.ok = conserved(d) && conserved(b) && conserved(s) && fleet_json(d, b, s.stats) == ref_json_;
    last_diurnal_ = std::move(d);
    last_bursty_ = std::move(b);
    last_ok_ = out.ok;
    last_op_ = k;
    ran_ops_ = true;
    return out;
  }

  std::vector<std::size_t> check() override {
    // The per-request CSV is the byte-identity artifact; compare the last
    // op's against the set-up call's once (rendering it per op would dwarf
    // the planner).
    if (!ran_ops_ || !last_ok_) return {};
    if (last_diurnal_.csv() != ref_diurnal_.csv() || last_bursty_.csv() != ref_bursty_.csv()) {
      return {last_op_};
    }
    return {};
  }

  SimResult sim() const override {
    SimResult r;
    const std::vector<std::uint64_t>& table = fleet_->table(1);  // a 1-board node
    r.interval_cycles = static_cast<double>(table[15] - table[14]);
    std::vector<std::uint64_t> interactive;
    std::size_t offered = 0;
    std::size_t completed = 0;
    std::uint64_t makespan = 0;
    for (const cluster::ClusterReport* rep : {&ref_diurnal_, &ref_bursty_}) {
      for (const cluster::ClusterOutcome& o : rep->outcomes) {
        if (o.deadline_class == 0 && o.shed == cluster::ClusterOutcome::Shed::kNone) {
          interactive.push_back(o.latency_cycles());
        }
      }
      offered += rep->stats.offered_requests;
      completed += rep->stats.completed_requests;
      makespan += rep->stats.makespan_cycles;
    }
    r.latency_cycles_p50 = static_cast<double>(percentile(interactive, 50.0));
    r.latency_cycles_p99 = static_cast<double>(percentile(interactive, 99.0));
    r.rate_per_s = makespan == 0 ? 0.0
                                 : static_cast<double>(completed) /
                                       core::cycles_to_seconds(static_cast<double>(makespan));
    r.served_pct = offered == 0 ? 0.0
                                : 100.0 * static_cast<double>(completed) /
                                      static_cast<double>(offered);
    return r;
  }

  std::vector<Metric> layer_metrics(const Tracer& t) const override {
    std::vector<Metric> m;
    const char* w = name();
    m.push_back({"core.compile.ms", span_median_ms(t, w, "core.compile", true), "ms"});
    m.push_back({"verify.verify_design.ms", span_median_ms(t, w, "verify.verify_design", true),
                 "ms"});
    add_verify_metrics(m, verify_);
    m.push_back({"serve.generate_load.ms", span_median_ms(t, w, "serve.generate_load", true),
                 "ms"});
    m.push_back({"cluster.service_tables.ms",
                 span_median_ms(t, w, "cluster.service_tables", true), "ms"});
    m.push_back({"serve.warm.ms", span_median_ms(t, w, "serve.warm", true), "ms"});
    m.push_back({"serve.plan.ns_per_request",
                 span_median_ms(t, w, "serve.run", false) * 1e6 / kServeRequests, "ns"});
    m.push_back({"cluster.plan.ns_per_request",
                 span_median_ms(t, w, "cluster.run", false) * 1e6 / kClusterRequests, "ns"});
    const serve::ServeStats& ss = ref_serve_;
    m.push_back({"serve.shed_pct",
                 100.0 * static_cast<double>(ss.shed_requests) /
                     static_cast<double>(ss.offered_requests),
                 "%"});
    m.push_back({"serve.latency_cycles_p99", static_cast<double>(ss.p99_latency_cycles),
                 "cycles"});
    std::uint64_t scale = 0;
    std::uint64_t overflow = 0;
    std::uint64_t deadline = 0;
    std::uint64_t stall = 0;
    std::uint64_t hop_cycles = 0;
    for (const cluster::ClusterReport* rep : {&ref_diurnal_, &ref_bursty_}) {
      scale += rep->stats.scale_events;
      overflow += rep->stats.shed_overflow;
      deadline += rep->stats.shed_deadline;
      for (const cluster::NodeStats& n : rep->stats.node_stats) {
        for (const cluster::HopStats* h : {&n.ingress, &n.egress}) {
          stall += h->activity.credit_stall;
          hop_cycles += h->activity.total();
        }
      }
    }
    m.push_back({"cluster.scale_events", static_cast<double>(scale), "count"});
    m.push_back({"cluster.shed_overflow", static_cast<double>(overflow), "count"});
    m.push_back({"cluster.shed_deadline", static_cast<double>(deadline), "count"});
    m.push_back({"cluster.hop_credit_stall_pct",
                 hop_cycles == 0 ? 0.0
                                 : 100.0 * static_cast<double>(stall) /
                                       static_cast<double>(hop_cycles),
                 "%"});
    return m;
  }

 private:
  serve::LoadSpec load_spec(serve::ArrivalProcess shape, double rate, std::size_t requests,
                            std::uint64_t salt) const {
    serve::LoadSpec spec;
    spec.arrivals = shape;
    spec.rate_images_per_second = rate;
    spec.request_count = requests;
    spec.seed = derive_seed(opts_.seed, salt);
    return spec;
  }

  /// The CLI's reference fleet (`dfcnn cluster`): node 0 serves from
  /// two-board replicas, three SLO classes, least-loaded routing, every node
  /// behind 3.2 Gbps / 2 us interlink-priced hops.
  cluster::ClusterConfig cluster_config() const {
    cluster::ClusterConfig config;
    config.policy = cluster::RoutePolicy::kLeastLoaded;
    config.batcher.max_batch_size = 16;
    config.batcher.max_wait_cycles = batch_wait_cycles();
    config.classes = cluster::default_deadline_classes();
    cluster::HopModel hop;
    hop.link.link = core::LinkModel{200, 1};
    for (std::size_t i = 0; i < 4; ++i) {
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

  /// `dfcnn serve`'s configuration with 2 replicas and pinned threads.
  serve::ServeConfig serve_config() const {
    serve::ServeConfig config;
    config.replicas = 2;
    config.queue_capacity = 64;
    config.batcher.max_batch_size = 16;
    config.batcher.max_wait_cycles = batch_wait_cycles();
    config.threads = opts_.threads;
    return config;
  }

  /// The batcher waits at most the Eq. 4 time a full batch needs at capacity.
  std::uint64_t batch_wait_cycles() const {
    return static_cast<std::uint64_t>(dse::estimate_timing(spec_).interval_cycles) * 16;
  }

  static bool conserved(const cluster::ClusterReport& r) {
    const cluster::ClusterStats& s = r.stats;
    return s.completed_requests + s.shed_overflow + s.shed_deadline == s.offered_requests &&
           r.outcomes.size() == s.offered_requests;
  }
  static bool conserved(const serve::ServeReport& r) {
    const serve::ServeStats& s = r.stats;
    return s.completed_requests + s.shed_requests + s.failed_requests == s.offered_requests &&
           r.outcomes.size() == s.offered_requests;
  }

  static std::string fleet_json(const cluster::ClusterReport& d, const cluster::ClusterReport& b,
                                const serve::ServeStats& s) {
    return d.stats.to_json() + b.stats.to_json() + s.render();
  }

  WorkloadOptions opts_;
  core::Preset preset_;
  core::NetworkSpec spec_;
  verify::VerifyReport verify_;
  serve::Load diurnal_;
  serve::Load bursty_;
  serve::Load poisson_;
  std::unique_ptr<cluster::Cluster> fleet_;
  std::unique_ptr<serve::InferenceServer> server_;
  cluster::ClusterReport ref_diurnal_;
  cluster::ClusterReport ref_bursty_;
  serve::ServeStats ref_serve_;
  std::string ref_json_;
  cluster::ClusterReport last_diurnal_;
  cluster::ClusterReport last_bursty_;
  bool last_ok_ = true;
  bool ran_ops_ = false;
  std::size_t last_op_ = 0;
};

}  // namespace

std::vector<const char*> workload_names() {
  return {"cifar_cycle", "cifar_compiled", "alexnet_4board", "usps_fleet"};
}

std::unique_ptr<Workload> make_workload(const std::string& name, const WorkloadOptions& opts) {
  if (name == "cifar_cycle") return std::make_unique<CifarCycle>(opts);
  if (name == "cifar_compiled") return std::make_unique<CifarCompiled>(opts);
  if (name == "alexnet_4board") return std::make_unique<Alexnet4Board>(opts);
  if (name == "usps_fleet") return std::make_unique<UspsFleet>(opts);
  return nullptr;
}

}  // namespace perfbench
