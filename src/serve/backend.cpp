#include "serve/backend.hpp"

#include <utility>

namespace mera::serve {

Backend::Backend(core::IndexedReference ref, core::SessionConfig cfg)
    : session_(shard::ShardedReference::of(std::move(ref)), std::move(cfg)) {}

Backend::Backend(shard::ShardedReference ref, shard::ShardedSessionConfig cfg)
    : session_(std::move(ref), std::move(cfg)) {}

BatchSummary Backend::align_batch(pgas::Runtime& rt,
                                  std::vector<seq::SeqRecord>&& reads,
                                  core::AlignmentSink& sink) {
  shard::ShardedBatchResult res =
      session_.align_batch(rt, std::move(reads), sink);
  BatchSummary out;
  out.stats = res.stats;
  out.report = std::move(res.report);
  for (const core::BatchResult& b : res.per_shard) {
    out.seed_cache += b.seed_cache;
    out.target_cache += b.target_cache;
  }
  out.lane_stats = res.lane_stats;
  out.wall_s = res.wall_s;
  return out;
}

const std::vector<core::SamTarget>& Backend::sam_targets() const {
  return session_.reference().sam_targets();
}

const core::SessionConfig& Backend::config() const {
  return session_.config();
}

int Backend::num_shards() const noexcept { return session_.num_shards(); }

void Backend::save_caches(const pgas::Runtime& rt,
                          const std::string& dir) const {
  session_.save_caches(rt, dir);
}

void Backend::load_caches(const pgas::Runtime& rt, const std::string& dir) {
  session_.load_caches(rt, dir);
}

}  // namespace mera::serve
