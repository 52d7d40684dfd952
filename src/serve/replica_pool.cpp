#include "serve/replica_pool.hpp"

#include <algorithm>
#include <string>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace dfc::serve {

namespace {
// Random images for timing measurements. The design's cycle counts are
// data-independent, so any deterministic content works; seeded generation
// keeps warm() reproducible byte for byte.
std::vector<Tensor> timing_images(const dfc::core::NetworkSpec& spec, std::size_t count) {
  Rng rng(7);
  std::vector<Tensor> images;
  images.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Tensor t(spec.input_shape);
    for (float& v : t.flat()) v = rng.uniform(-1.0f, 1.0f);
    images.push_back(std::move(t));
  }
  return images;
}
}  // namespace

ReplicaPool::ReplicaPool(const dfc::core::NetworkSpec& spec, std::size_t replicas,
                         const dfc::core::BuildOptions& options)
    : spec_(spec) {
  DFC_REQUIRE(replicas > 0, "replica pool needs at least one replica");
  harnesses_.reserve(replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    harnesses_.push_back(std::make_unique<dfc::core::AcceleratorHarness>(
        dfc::core::build_accelerator(spec_, options)));
  }
}

std::uint64_t ReplicaPool::measure(std::size_t replica, std::size_t n) {
  const auto images = timing_images(spec_, n);
  return harnesses_[replica]->run_batch(images).total_cycles();
}

std::uint64_t ReplicaPool::service_cycles(std::size_t n) {
  DFC_REQUIRE(n > 0, "service_cycles needs a non-empty batch");
  if (n > service_cycles_.size()) service_cycles_.resize(n, 0);
  if (service_cycles_[n - 1] == 0) service_cycles_[n - 1] = measure(0, n);
  return service_cycles_[n - 1];
}

void ReplicaPool::warm(std::size_t max_batch, std::size_t threads) {
  DFC_REQUIRE(max_batch > 0, "warm needs a positive max batch size");
  if (service_cycles_.size() < max_batch) service_cycles_.resize(max_batch, 0);
  // One worker per replica harness (a SimContext must never run on two
  // threads); worker w measures the sizes congruent to it. The table slots
  // are disjoint and the vector is pre-sized, so no synchronization is
  // needed, and the measured values are identical for any worker count.
  const std::size_t workers = std::min(threads == 0 ? default_worker_count() : threads, size());
  dfc::run_indexed(workers, workers, [&](std::size_t w) {
    for (std::size_t n = w + 1; n <= max_batch; n += workers) {
      if (service_cycles_[n - 1] == 0) service_cycles_[n - 1] = measure(w, n);
    }
  });
}

std::size_t ReplicaPool::warmed_batch_limit() const {
  std::size_t limit = 0;
  for (std::size_t n = 1; n <= service_cycles_.size(); ++n) {
    if (service_cycles_[n - 1] == 0) break;
    limit = n;
  }
  return limit;
}

std::vector<std::vector<float>> ReplicaPool::execute(
    const std::vector<BatchRecord>& batch_records, const std::vector<Tensor>& images,
    const std::vector<std::size_t>& request_image_index, std::size_t threads) {
  std::vector<std::vector<float>> logits(request_image_index.size());
  // Batches grouped per replica in plan order; replicas run in parallel.
  std::vector<std::vector<std::size_t>> per_replica(size());
  for (std::size_t b = 0; b < batch_records.size(); ++b) {
    DFC_REQUIRE(batch_records[b].replica < size(), "batch assigned to unknown replica");
    per_replica[batch_records[b].replica].push_back(b);
  }

  dfc::run_indexed(size(), threads, [&](std::size_t r) {
    for (const std::size_t b : per_replica[r]) {
      const BatchRecord& rec = batch_records[b];
      // A failed batch died mid-service (no outputs to replay) and a
      // corrupted one was rejected by detection; their requests get logits
      // from the retry batch, or none if the retry budget ran out.
      if (rec.failed || rec.corrupted) continue;
      std::vector<Tensor> batch_images;
      batch_images.reserve(rec.size());
      for (const std::uint64_t id : rec.request_ids) {
        batch_images.push_back(images.at(request_image_index.at(id)));
      }
      const dfc::core::BatchResult res = harnesses_[r]->run_batch(batch_images);
      // The plan was laid out from the memoized service table; a mismatch
      // here means the simulation is not reproducible — fail loudly.
      DFC_CHECK(res.total_cycles() == rec.service_cycles(),
                "replica " + std::to_string(r) + " batch " + std::to_string(rec.id) +
                    " took " + std::to_string(res.total_cycles()) + " cycles, planned " +
                    std::to_string(rec.service_cycles()));
      for (std::size_t j = 0; j < rec.request_ids.size(); ++j) {
        logits.at(rec.request_ids[j]) = res.outputs[j];
      }
    }
  });
  return logits;
}

}  // namespace dfc::serve
