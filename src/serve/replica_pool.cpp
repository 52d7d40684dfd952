#include "serve/replica_pool.hpp"

#include <string>

#include "cluster/service_table.hpp"
#include "common/thread_pool.hpp"

namespace dfc::serve {

ReplicaPool::ReplicaPool(const dfc::core::NetworkSpec& spec, std::size_t replicas,
                         const dfc::core::BuildOptions& options, std::size_t boards)
    : spec_(spec) {
  DFC_REQUIRE(replicas > 0, "replica pool needs at least one replica");
  harnesses_.reserve(replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    harnesses_.push_back(cluster::build_replica(spec_, boards, {}, options));
  }
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
