#include "core/functional_model.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <variant>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "hlscore/activation.hpp"

namespace dfc::core {

using dfc::hls::apply_activation;

namespace {

// Bounded memo: enough for every sweep/serve/test image set in the repo (a
// sweep replays at most 50 images, a serve load cycles 16, an AlexNet-mini
// bench at most 10); when a workload exceeds it the memo resets rather than
// growing without bound (replays degrade to recomputation, results are
// unchanged). The image copies are capped in bytes as well as in count, so
// a design with large inputs cannot pin a thousand of them: 1024 USPS
// images, 170 CIFAR, 42 AlexNet-mini.
constexpr std::size_t kMemoCapacity = 1024;
constexpr std::size_t kMemoImageBytes = std::size_t{2} << 20;

std::size_t memo_capacity(const Shape3& input) {
  const auto image_bytes = static_cast<std::size_t>(input.volume()) * sizeof(float);
  return std::clamp<std::size_t>(kMemoImageBytes / image_bytes, 1, kMemoCapacity);
}

// Memo key of an image: its bytes taken as 64-bit words (a trailing half
// word zero-extended), each xored in, multiplied and folded. Every hit is
// confirmed bytewise, so the hash only has to spread the buckets; a word at
// a time it costs about an eighth of byte-wise FNV-1a.
std::uint64_t image_hash(std::span<const float> image) {
  const auto* p = reinterpret_cast<const unsigned char*>(image.data());
  const std::size_t bytes = image.size_bytes();
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ bytes;
  const auto mix = [&h](std::uint64_t word) {
    h = (h ^ word) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  };
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= bytes; i += sizeof(std::uint64_t)) {
    std::uint64_t word;
    std::memcpy(&word, p + i, sizeof(word));
    mix(word);
  }
  if (i < bytes) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, bytes - i);
    mix(word);
  }
  return h;
}

bool same_bytes(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

void append_bytes(std::string& out, const void* data, std::size_t bytes) {
  out.append(static_cast<const char*>(data), bytes);
}

template <typename T>
void append_pod(std::string& out, const T& v) {
  append_bytes(out, &v, sizeof(v));
}

// Full-content fingerprint of a design: structure AND parameters. Unlike the
// schedule cache key (timing only), two designs share a functional model only
// if every weight bit matches.
std::string content_key(const NetworkSpec& spec) {
  std::string key;
  append_pod(key, spec.input_shape);
  for (const LayerSpec& layer : spec.layers) {
    if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) {
      append_pod(key, 'c');
      append_pod(key, conv->in_shape);
      append_pod(key, conv->out_fm);
      append_pod(key, conv->kh);
      append_pod(key, conv->kw);
      append_pod(key, conv->stride);
      append_pod(key, conv->pad);
      append_pod(key, conv->in_ports);
      append_pod(key, conv->act);
      append_bytes(key, conv->weights.data(), conv->weights.size() * sizeof(float));
      append_bytes(key, conv->biases.data(), conv->biases.size() * sizeof(float));
    } else if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) {
      append_pod(key, 'p');
      append_pod(key, pool->in_shape);
      append_pod(key, pool->mode);
      append_pod(key, pool->kh);
      append_pod(key, pool->kw);
      append_pod(key, pool->stride);
    } else {
      const auto& fcn = std::get<FcnLayerSpec>(layer);
      append_pod(key, 'f');
      append_pod(key, fcn.in_count);
      append_pod(key, fcn.out_count);
      append_pod(key, fcn.act);
      append_pod(key, fcn.num_accumulators);
      append_bytes(key, fcn.weights.data(), fcn.weights.size() * sizeof(float));
      append_bytes(key, fcn.biases.data(), fcn.biases.size() * sizeof(float));
    }
  }
  return key;
}

std::mutex g_model_cache_mutex;

std::map<std::string, std::shared_ptr<const FunctionalModel>>& model_cache() {
  static std::map<std::string, std::shared_ptr<const FunctionalModel>> cache;
  return cache;
}

}  // namespace

FunctionalModel::FunctionalModel(const NetworkSpec& spec) : spec_(spec) {
  spec_.validate();
  memo_capacity_ = memo_capacity(spec_.input_shape);
  // Each kernel keeps its own re-laid copy, so the spec copy releases its.
  for (LayerSpec& layer : spec_.layers) {
    if (auto* conv = std::get_if<ConvLayerSpec>(&layer)) {
      conv_kernels_.emplace_back(conv->in_shape.c, conv->out_fm, conv->in_ports,
                                 static_cast<std::int64_t>(conv->kh) * conv->kw, conv->weights,
                                 conv->biases);
      conv->weights = std::vector<float>();
      conv->biases = std::vector<float>();
    } else if (auto* fcn = std::get_if<FcnLayerSpec>(&layer)) {
      fcn_kernels_.emplace_back(fcn->in_count, fcn->out_count, fcn->num_accumulators,
                                fcn->weights, fcn->biases);
      fcn->weights = std::vector<float>();
      fcn->biases = std::vector<float>();
    }
  }
}

Tensor FunctionalModel::eval_conv(const ConvLayerSpec& conv, const hls::ConvMacKernel& kernel,
                                  const Tensor& in) const {
  const Shape3 is = conv.in_shape;
  DFC_CHECK(in.shape() == is, "conv input shape mismatch");
  const Shape3 os = conv.out_shape();
  Tensor out(os);

  const std::int64_t groups = is.c / conv.in_ports;
  std::vector<float> beat_taps(static_cast<std::size_t>(kernel.beat_inputs()));
  std::vector<float> acc(static_cast<std::size_t>(conv.out_fm));
  const float* in_data = in.flat().data();
  float* out_data = out.flat().data();

  // Feeds the kernel ConvCore's beats: in gather beat g, port p carries the
  // window of input channel g*IN_PORTS + p, taps in row-major order, with 0
  // for taps in the zero padding. Input reads go through raw channel-major
  // pointers ((c*H + y)*W + x), not the assert-checked Tensor::at.
  for (std::int64_t oyi = 0; oyi < os.h; ++oyi) {
    const std::int64_t oy = -conv.pad + oyi * conv.stride;
    for (std::int64_t oxi = 0; oxi < os.w; ++oxi) {
      const std::int64_t ox = -conv.pad + oxi * conv.stride;
      kernel.seed(acc);
      for (std::int64_t g = 0; g < groups; ++g) {
        float* tap = beat_taps.data();
        for (int p = 0; p < conv.in_ports; ++p) {
          const std::int64_t c = g * conv.in_ports + p;
          for (std::int64_t y = oy; y < oy + conv.kh; ++y) {
            for (std::int64_t x = ox; x < ox + conv.kw; ++x) {
              const bool inside = y >= 0 && y < is.h && x >= 0 && x < is.w;
              *tap++ = inside ? in_data[(c * is.h + y) * is.w + x] : 0.0f;
            }
          }
        }
        kernel.beat(g, beat_taps, acc);
      }
      apply_activation(conv.act, acc);
      for (std::int64_t k = 0; k < conv.out_fm; ++k) {
        out_data[(k * os.h + oyi) * os.w + oxi] = acc[static_cast<std::size_t>(k)];
      }
    }
  }
  return out;
}

Tensor FunctionalModel::eval_pool(const PoolLayerSpec& pool, const Tensor& in) const {
  const Shape3 is = pool.in_shape;
  DFC_CHECK(in.shape() == is, "pool input shape mismatch");
  const Shape3 os = pool.out_shape();
  Tensor out(os);

  const int count = pool.kh * pool.kw;
  const float* in_data = in.flat().data();
  float* out_data = out.flat().data();
  // PoolCore folds the window taps in row-major (dy, dx) order: sequential
  // max, or a sequential sum divided by the tap count.
  for (std::int64_t c = 0; c < is.c; ++c) {
    for (std::int64_t oyi = 0; oyi < os.h; ++oyi) {
      const std::int64_t oy = oyi * pool.stride;
      for (std::int64_t oxi = 0; oxi < os.w; ++oxi) {
        const std::int64_t ox = oxi * pool.stride;
        const float* win = in_data + (c * is.h + oy) * is.w + ox;
        float value = 0.0f;
        if (pool.mode == PoolMode::kMax) {
          value = win[0];
          for (int t = 1; t < count; ++t) {
            value = std::max(value, win[(t / pool.kw) * is.w + t % pool.kw]);
          }
        } else {
          float sum = 0.0f;
          for (int t = 0; t < count; ++t) {
            sum += win[(t / pool.kw) * is.w + t % pool.kw];
          }
          value = sum / static_cast<float>(count);
        }
        out_data[(c * os.h + oyi) * os.w + oxi] = value;
      }
    }
  }
  return out;
}

Tensor FunctionalModel::eval_fcn(const FcnLayerSpec& fcn, const hls::FcnMacKernel& kernel,
                                 const Tensor& in) const {
  const Shape3 is = in.shape();
  DFC_CHECK(is.volume() == fcn.in_count, "fcn input size mismatch");

  // FcnCore consumes the single merged stream, pixel-major with channels
  // interleaved (spec weights are already permuted to that order).
  std::vector<float> stream;
  stream.reserve(static_cast<std::size_t>(fcn.in_count));
  const float* in_data = in.flat().data();
  for (std::int64_t y = 0; y < is.h; ++y) {
    for (std::int64_t x = 0; x < is.w; ++x) {
      for (std::int64_t c = 0; c < is.c; ++c) stream.push_back(in_data[(c * is.h + y) * is.w + x]);
    }
  }

  std::vector<float> acc(kernel.acc_size());
  kernel.seed(acc);
  kernel.accumulate(0, stream, acc);
  Tensor out(Shape3{fcn.out_count, 1, 1});
  kernel.drain(acc, out.flat());
  apply_activation(fcn.act, out.flat());
  return out;
}

std::vector<float> FunctionalModel::infer_uncached(const Tensor& image) const {
  Tensor cur = image;
  auto conv_kernel = conv_kernels_.begin();
  auto fcn_kernel = fcn_kernels_.begin();
  for (const LayerSpec& layer : spec_.layers) {
    if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) {
      cur = eval_conv(*conv, *conv_kernel++, cur);
    } else if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) {
      cur = eval_pool(*pool, cur);
    } else {
      cur = eval_fcn(std::get<FcnLayerSpec>(layer), *fcn_kernel++, cur);
    }
  }

  // DMA sink order: the output volume streams pixel-major with channels
  // interleaved (a {c,1,1} FCN tail degenerates to the plain logit vector).
  const Shape3 os = cur.shape();
  std::vector<float> words;
  words.reserve(static_cast<std::size_t>(os.volume()));
  for (std::int64_t y = 0; y < os.h; ++y) {
    for (std::int64_t x = 0; x < os.w; ++x) {
      for (std::int64_t c = 0; c < os.c; ++c) words.push_back(cur.at(c, y, x));
    }
  }
  return words;
}

std::vector<std::vector<float>> FunctionalModel::infer_batch(
    std::span<const Tensor> images) const {
  const std::size_t n = images.size();
  std::vector<std::uint64_t> hashes(n);
  for (std::size_t i = 0; i < n; ++i) {
    DFC_REQUIRE(images[i].shape() == spec_.input_shape,
                "image shape " + images[i].shape().str() + " does not match spec input " +
                    spec_.input_shape.str());
    hashes[i] = image_hash(images[i].flat());
  }

  // Every lookup first. An image that misses takes the logits of the first
  // image with the same bytes in this batch: `misses` lists the distinct
  // ones in index order, `from[i]` is image i's slot in it.
  constexpr std::size_t kHit = static_cast<std::size_t>(-1);
  std::vector<std::vector<float>> out(n);
  std::vector<std::size_t> misses;
  std::vector<std::size_t> from(n, kHit);
  std::unordered_multimap<std::uint64_t, std::size_t> pending;  // hash -> slot
  {
    std::lock_guard<std::mutex> lock(memo_mutex_);
    for (std::size_t i = 0; i < n; ++i) {
      const std::span<const float> flat = images[i].flat();
      if (auto bucket = memo_.find(hashes[i]); bucket != memo_.end()) {
        // Bitwise compare — a hash collision must recompute, not alias.
        const auto hit = std::find_if(bucket->second.begin(), bucket->second.end(),
                                      [&](const MemoEntry& e) { return same_bytes(e.image, flat); });
        if (hit != bucket->second.end()) {
          out[i] = hit->logits;
          continue;
        }
      }
      const auto [first, last] = pending.equal_range(hashes[i]);
      for (auto it = first; it != last && from[i] == kHit; ++it) {
        if (same_bytes(images[misses[it->second]].flat(), flat)) from[i] = it->second;
      }
      if (from[i] == kHit) {
        from[i] = misses.size();
        pending.emplace(hashes[i], misses.size());
        misses.push_back(i);
      }
    }
  }

  std::vector<std::vector<float>> computed(misses.size());
  dfc::run_indexed(misses.size(), 0,
                   [&](std::size_t j) { computed[j] = infer_uncached(images[misses[j]]); });

  {
    std::lock_guard<std::mutex> lock(memo_mutex_);
    for (std::size_t j = 0; j < misses.size(); ++j) {
      if (memo_entries_ >= memo_capacity_) {
        memo_.clear();
        memo_entries_ = 0;
      }
      const std::span<const float> flat = images[misses[j]].flat();
      memo_[hashes[misses[j]]].push_back(MemoEntry{{flat.begin(), flat.end()}, computed[j]});
      ++memo_entries_;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (from[i] != kHit) out[i] = computed[from[i]];
  }
  return out;
}

std::vector<float> FunctionalModel::infer(const Tensor& image) const {
  return std::move(infer_batch({&image, 1}).front());
}

std::size_t FunctionalModel::memo_size() const {
  std::lock_guard<std::mutex> lock(memo_mutex_);
  return memo_entries_;
}

std::shared_ptr<const FunctionalModel> shared_functional_model(const NetworkSpec& spec) {
  std::string key = content_key(spec);
  std::lock_guard<std::mutex> lock(g_model_cache_mutex);
  auto& cache = model_cache();
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(std::move(key), std::make_shared<const FunctionalModel>(spec)).first;
  }
  return it->second;
}

void clear_functional_model_cache() {
  std::lock_guard<std::mutex> lock(g_model_cache_mutex);
  model_cache().clear();
}

}  // namespace dfc::core
