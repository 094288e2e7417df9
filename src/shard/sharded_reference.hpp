// Composing per-runtime IndexedReference shards into one logical reference.
//
// core::IndexedReference is an immutable shared handle precisely so several
// of them can be composed: a ShardedReference owns K independently built
// shards — each a complete distributed index over a subset of the target
// collection — plus the global target-id mapping and the merged SAM header
// that make the K shards look like ONE reference to everything downstream.
//
// Shards model per-runtime indexes (the "GenBank-scale" conclusion scenario:
// a collection too large for one machine's aggregate memory is split across
// several runtimes). In this simulated-PGAS repo every shard is built on the
// same Runtime, one collective run per shard; what is exercised is the
// composition layer — id translation, header merging, per-shard build
// accounting — not multi-process placement.
//
// Global target ids are positions in the planned collection, i.e. exactly
// the ids a single IndexedReference over the whole collection would assign.
// ShardedAlignSession rewrites shard-local record ids through this mapping,
// which is what makes K-shard output comparable record-for-record with the
// monolithic equivalent.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/indexed_reference.hpp"
#include "core/sam_writer.hpp"
#include "shard/shard_planner.hpp"

namespace mera::shard {

namespace detail {
struct ShardedReferenceState;
}

class ShardedReference {
 public:
  /// Collective build of one IndexedReference per plan shard (shards are
  /// built one after another on `rt`). The plan must partition
  /// [0, targets.size()).
  [[nodiscard]] static ShardedReference build(
      pgas::Runtime& rt, const std::vector<seq::SeqRecord>& targets,
      const ShardPlan& plan, core::IndexConfig cfg = {});

  /// Auto-planned build: partition `targets` into `shards` balanced shards
  /// with plan_shards() (cost-model weights, k taken from cfg).
  [[nodiscard]] static ShardedReference build(
      pgas::Runtime& rt, const std::vector<seq::SeqRecord>& targets,
      int shards, core::IndexConfig cfg = {});

  /// Pre-sharded input: one FASTA file per shard. Global target ids follow
  /// file order (file 0's records first), matching a single reference built
  /// over the concatenation of the files.
  [[nodiscard]] static ShardedReference build_from_fastas(
      pgas::Runtime& rt, const std::vector<std::string>& fastas,
      core::IndexConfig cfg = {});

  /// One-shard composition of an already-built index: the returned handle
  /// shares `ref`'s state (same fingerprint, same snapshots), and global
  /// target ids are `ref`'s own ids. This is how an unsharded reference runs
  /// through ShardedAlignSession.
  [[nodiscard]] static ShardedReference of(core::IndexedReference ref);

  [[nodiscard]] int num_shards() const noexcept;
  [[nodiscard]] const core::IndexedReference& shard(int s) const;
  [[nodiscard]] const ShardPlan& plan() const noexcept;
  [[nodiscard]] const core::IndexConfig& config() const noexcept;
  [[nodiscard]] const pgas::Topology& topology() const noexcept;

  // --- global target-id mapping --------------------------------------------
  [[nodiscard]] std::uint32_t num_targets() const noexcept;
  /// Shard-local id -> global id.
  [[nodiscard]] std::uint32_t to_global(int s, std::uint32_t local_id) const;
  /// Global id -> (shard, shard-local id).
  [[nodiscard]] std::pair<int, std::uint32_t> to_shard(
      std::uint32_t global_id) const;
  [[nodiscard]] const std::string& target_name(std::uint32_t global_id) const;
  [[nodiscard]] std::size_t target_length(std::uint32_t global_id) const;

  /// Merged @SQ catalog in global-id order — byte-identical header input to
  /// what the monolithic reference would produce. Feed to SamStreamSink /
  /// SamFileSink (catalog constructors) or core::write_sam_header.
  [[nodiscard]] const std::vector<core::SamTarget>& sam_targets() const noexcept;

  // --- build diagnostics ----------------------------------------------------
  /// All shards' build phases appended in shard order (serial composition).
  [[nodiscard]] const pgas::PhaseReport& build_report() const noexcept;
  /// Build time if every shard ran on its own runtime: max over shards.
  [[nodiscard]] double build_time_parallel_s() const;
  /// Build time as actually executed here: sum over shards.
  [[nodiscard]] double build_time_serial_s() const;
  /// Summed index entries over all shards.
  [[nodiscard]] std::size_t index_entries() const;
  [[nodiscard]] bool exact_match_marked() const noexcept;

 private:
  explicit ShardedReference(
      std::shared_ptr<const detail::ShardedReferenceState> st);
  std::shared_ptr<const detail::ShardedReferenceState> state_;
};

}  // namespace mera::shard
