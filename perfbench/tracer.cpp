#include <cstdio>

#include "bench.hpp"

namespace perfbench {

std::int64_t Tracer::open(const std::string& name, std::int64_t start_ns) {
  SpanRecord r;
  r.name = scope_.empty() ? name : scope_ + "." + name;
  r.start_ns = start_ns;
  r.parent = open_.empty() ? -1 : open_.back();
  r.op = op_;
  spans_.push_back(std::move(r));
  const auto id = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id, std::int64_t end_ns) {
  SpanRecord& r = spans_.at(static_cast<std::size_t>(id));
  r.end_ns = end_ns;
  if (r.parent >= 0) spans_.at(static_cast<std::size_t>(r.parent)).child_ns += end_ns - r.start_ns;
  // Spans are strictly nested (RAII), so the closing span is on top.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::self_ms(const std::string& scope, const std::string& name,
                                    bool setup) const {
  const std::string full = scope + "." + name;
  std::vector<double> ms;
  for (const SpanRecord& r : spans_) {
    if (r.name == full && (r.op < 0) == setup) {
      ms.push_back(static_cast<double>(r.self_ns()) / 1e6);
    }
  }
  return ms;
}

std::string Tracer::to_json() const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& r = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %lld, \"op\": %lld, "
                  "\"self_us\": %.3f}}%s\n",
                  r.name.c_str(), static_cast<double>(r.start_ns - origin) / 1e3,
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3, i,
                  static_cast<long long>(r.parent), static_cast<long long>(r.op),
                  static_cast<double>(r.self_ns()) / 1e3, i + 1 < spans_.size() ? "," : "");
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
