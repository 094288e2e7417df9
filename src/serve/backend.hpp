// One alignment engine behind the daemon.
//
// The daemon serves every tenant from ONE warm engine: one reference, one
// ShardedAlignSession whose software caches all tenants share (arbitrated
// by the admission policy), one cache-snapshot directory. An unsharded
// reference is a K=1 ShardedReference (ShardedReference::of), so there is
// one session shape. Backend narrows it to the surface the daemon needs —
// align a handed-over batch into a sink, report a per-batch summary,
// enumerate the SAM target catalog, save/load the cache snapshot
// directory — so daemon.cpp contains serving logic only.
#pragma once

#include <string>
#include <vector>

#include "core/align_session.hpp"
#include "shard/sharded_session.hpp"

namespace mera::serve {

/// Outcome of one batch. Cache counters are the batch's own activity,
/// summed over the K shard sessions; stats are the reconciled totals, so
/// reads are counted once, not per shard.
struct BatchSummary {
  core::PipelineStats stats;
  pgas::PhaseReport report;
  cache::CacheCounters seed_cache;
  cache::CacheCounters target_cache;
  align::LaneStats lane_stats;
  double wall_s = 0.0;  ///< measured real seconds of the batch
};

class Backend {
 public:
  /// Unsharded: runs `ref` as a one-shard ShardedReference.
  Backend(core::IndexedReference ref, core::SessionConfig cfg);
  Backend(shard::ShardedReference ref, shard::ShardedSessionConfig cfg);

  /// Align one handed-over batch. NOT safe to call concurrently — the
  /// daemon's fair gate serializes tenants in front of this.
  BatchSummary align_batch(pgas::Runtime& rt,
                           std::vector<seq::SeqRecord>&& reads,
                           core::AlignmentSink& sink);

  /// The global SAM target catalog (for per-connection SamStreamSinks).
  [[nodiscard]] const std::vector<core::SamTarget>& sam_targets() const;
  [[nodiscard]] const core::SessionConfig& config() const;
  [[nodiscard]] int num_shards() const noexcept;

  /// Snapshot / warm-load the cache directory, in the layout the CLI uses:
  /// `dir/session.mcache` for one shard, `dir/shard-NNNN.mcache` for K >= 2
  /// (cache::shard_snapshot_path). Both sides throw cache::CacheSnapshotError
  /// on failure. save_caches is safe concurrently with an in-flight
  /// align_batch (each cache shard is snapshotted under its lock) — this is
  /// what the autosave thread calls.
  void save_caches(const pgas::Runtime& rt, const std::string& dir) const;
  void load_caches(const pgas::Runtime& rt, const std::string& dir);

 private:
  shard::ShardedAlignSession session_;
};

}  // namespace mera::serve
