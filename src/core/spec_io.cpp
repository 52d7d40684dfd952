#include "core/spec_io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/error.hpp"

namespace dfc::core {

namespace {

constexpr char kMagic[] = "DFCNNSPEC";
constexpr std::uint32_t kVersion = 1;

enum class LayerTag : std::uint8_t { kConv = 1, kPool = 2, kFcn = 3 };

// --- primitive writers/readers ----------------------------------------------

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  DFC_REQUIRE(is.good(), "spec stream truncated");
  return value;
}

void write_string(std::ostream& os, const std::string& s) {
  write_pod(os, static_cast<std::uint64_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is) {
  const auto n = read_pod<std::uint64_t>(is);
  DFC_REQUIRE(n <= (1u << 20), "unreasonable string length in spec stream");
  std::string s(n, '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  DFC_REQUIRE(is.good(), "spec stream truncated");
  return s;
}

void write_floats(std::ostream& os, const std::vector<float>& v) {
  write_pod(os, static_cast<std::uint64_t>(v.size()));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(float)));
}

std::vector<float> read_floats(std::istream& is) {
  const auto n = read_pod<std::uint64_t>(is);
  DFC_REQUIRE(n <= (1ull << 28), "unreasonable weight array length in spec stream");
  // Read in fixed chunks, so the length field alone allocates nothing: a
  // stream that ends early fails one chunk past the bytes it holds, having
  // allocated in proportion to those bytes (std::vector's doubling).
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 16;  // floats
  std::vector<float> v;
  while (v.size() < n) {
    const std::size_t at = v.size();
    const auto len = static_cast<std::size_t>(std::min(kChunk, n - at));
    v.resize(at + len);
    is.read(reinterpret_cast<char*>(v.data() + at),
            static_cast<std::streamsize>(len * sizeof(float)));
    DFC_REQUIRE(is.good(), "spec stream truncated");
  }
  return v;
}

void write_shape(std::ostream& os, const Shape3& s) {
  write_pod(os, s.c);
  write_pod(os, s.h);
  write_pod(os, s.w);
}

Shape3 read_shape(std::istream& is) {
  Shape3 s;
  s.c = read_pod<std::int64_t>(is);
  s.h = read_pod<std::int64_t>(is);
  s.w = read_pod<std::int64_t>(is);
  return s;
}

}  // namespace

void save_spec(const NetworkSpec& spec, std::ostream& os) {
  spec.validate();
  os.write(kMagic, sizeof(kMagic));
  write_pod(os, kVersion);
  write_string(os, spec.name);
  write_shape(os, spec.input_shape);
  write_pod(os, static_cast<std::int32_t>(spec.latency.fmul));
  write_pod(os, static_cast<std::int32_t>(spec.latency.fadd));
  write_pod(os, static_cast<std::uint64_t>(spec.layers.size()));

  for (const LayerSpec& layer : spec.layers) {
    if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) {
      write_pod(os, LayerTag::kConv);
      write_shape(os, conv->in_shape);
      write_pod(os, conv->out_fm);
      write_pod(os, static_cast<std::int32_t>(conv->kh));
      write_pod(os, static_cast<std::int32_t>(conv->kw));
      write_pod(os, static_cast<std::int32_t>(conv->stride));
      write_pod(os, static_cast<std::int32_t>(conv->pad));
      write_pod(os, static_cast<std::int32_t>(conv->in_ports));
      write_pod(os, static_cast<std::int32_t>(conv->out_ports));
      write_pod(os, static_cast<std::uint8_t>(conv->act));
      write_pod(os, static_cast<std::uint8_t>(conv->use_filter_chain));
      write_floats(os, conv->weights);
      write_floats(os, conv->biases);
    } else if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) {
      write_pod(os, LayerTag::kPool);
      write_shape(os, pool->in_shape);
      write_pod(os, static_cast<std::uint8_t>(pool->mode));
      write_pod(os, static_cast<std::int32_t>(pool->kh));
      write_pod(os, static_cast<std::int32_t>(pool->kw));
      write_pod(os, static_cast<std::int32_t>(pool->stride));
      write_pod(os, static_cast<std::int32_t>(pool->ports));
      write_pod(os, static_cast<std::uint8_t>(pool->use_filter_chain));
    } else {
      const auto& fcn = std::get<FcnLayerSpec>(layer);
      write_pod(os, LayerTag::kFcn);
      write_pod(os, fcn.in_count);
      write_pod(os, fcn.out_count);
      write_pod(os, static_cast<std::uint8_t>(fcn.act));
      write_pod(os, static_cast<std::int32_t>(fcn.num_accumulators));
      write_floats(os, fcn.weights);
      write_floats(os, fcn.biases);
    }
  }
  DFC_REQUIRE(os.good(), "spec stream write failure");
}

NetworkSpec load_spec(std::istream& is) {
  char magic[sizeof(kMagic)] = {};
  is.read(magic, sizeof(kMagic));
  DFC_REQUIRE(is.good() && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
              "not a dfcnn spec stream (bad magic)");
  const auto version = read_pod<std::uint32_t>(is);
  DFC_REQUIRE(version == kVersion,
              "unsupported spec version " + std::to_string(version));

  NetworkSpec spec;
  spec.name = read_string(is);
  spec.input_shape = read_shape(is);
  spec.latency.fmul = read_pod<std::int32_t>(is);
  spec.latency.fadd = read_pod<std::int32_t>(is);
  const auto layer_count = read_pod<std::uint64_t>(is);
  DFC_REQUIRE(layer_count >= 1 && layer_count <= 4096, "unreasonable layer count");

  for (std::uint64_t i = 0; i < layer_count; ++i) {
    const auto tag = read_pod<LayerTag>(is);
    switch (tag) {
      case LayerTag::kConv: {
        ConvLayerSpec conv;
        conv.in_shape = read_shape(is);
        conv.out_fm = read_pod<std::int64_t>(is);
        conv.kh = read_pod<std::int32_t>(is);
        conv.kw = read_pod<std::int32_t>(is);
        conv.stride = read_pod<std::int32_t>(is);
        conv.pad = read_pod<std::int32_t>(is);
        conv.in_ports = read_pod<std::int32_t>(is);
        conv.out_ports = read_pod<std::int32_t>(is);
        conv.act = static_cast<Activation>(read_pod<std::uint8_t>(is));
        conv.use_filter_chain = read_pod<std::uint8_t>(is) != 0;
        conv.weights = read_floats(is);
        conv.biases = read_floats(is);
        spec.layers.emplace_back(std::move(conv));
        break;
      }
      case LayerTag::kPool: {
        PoolLayerSpec pool;
        pool.in_shape = read_shape(is);
        pool.mode = static_cast<PoolMode>(read_pod<std::uint8_t>(is));
        pool.kh = read_pod<std::int32_t>(is);
        pool.kw = read_pod<std::int32_t>(is);
        pool.stride = read_pod<std::int32_t>(is);
        pool.ports = read_pod<std::int32_t>(is);
        pool.use_filter_chain = read_pod<std::uint8_t>(is) != 0;
        spec.layers.emplace_back(std::move(pool));
        break;
      }
      case LayerTag::kFcn: {
        FcnLayerSpec fcn;
        fcn.in_count = read_pod<std::int64_t>(is);
        fcn.out_count = read_pod<std::int64_t>(is);
        fcn.act = static_cast<Activation>(read_pod<std::uint8_t>(is));
        fcn.num_accumulators = read_pod<std::int32_t>(is);
        fcn.weights = read_floats(is);
        fcn.biases = read_floats(is);
        spec.layers.emplace_back(std::move(fcn));
        break;
      }
      default:
        throw ConfigError("unknown layer tag in spec stream");
    }
  }
  spec.validate();
  return spec;
}

void save_spec_file(const NetworkSpec& spec, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  DFC_REQUIRE(os.good(), "cannot open " + path + " for writing");
  save_spec(spec, os);
}

NetworkSpec load_spec_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DFC_REQUIRE(is.good(), "cannot open " + path + " for reading");
  return load_spec(is);
}

}  // namespace dfc::core
