// The aligning flags meraligner and meralignerd share: index and session
// configuration, topology and shard layout. One copy, so the two binaries
// accept, default and reject exactly the same values.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "cli_util.hpp"
#include "core/align_session.hpp"
#include "core/indexed_reference.hpp"
#include "obs/log.hpp"
#include "pgas/runtime.hpp"
#include "seq/fasta.hpp"
#include "shard/shard_planner.hpp"
#include "shard/sharded_reference.hpp"

namespace mera::tools {

/// Every flag parse_align_flags reads (plus --quiet and --help), for
/// Args::check_known.
inline constexpr std::string_view kAlignFlags[] = {
    "targets",        "k",          "ranks",           "ppn",
    "S",              "max-hits",   "fragment-len",    "sw",
    "sw-isa",         "no-exact",   "no-seed-cache",   "no-target-cache",
    "no-aggregation", "no-permute", "cache-admission", "shards",
    "shard-by",       "shard-parallel", "quiet",       "help"};

inline align::SwKernel parse_kernel(const std::string& name) {
  using align::SwKernel;
  if (name == "full") return SwKernel::kFullDP;
  if (name == "banded") return SwKernel::kBanded;
  if (name == "batch") return SwKernel::kBatch;
  throw UsageError("--sw expects full|banded|batch, got '" + name + "'");
}

/// --sw-isa: validated here so a typo or a tier this machine can't run is a
/// usage error up front, not a mid-run exception from the first batch.
inline align::SwIsa parse_sw_isa(const std::string& name) {
  const auto isa = align::parse_isa(name);
  if (!isa)
    throw UsageError("--sw-isa expects auto|scalar|sse2|avx2|avx512, got '" +
                     name + "'");
  if (!align::isa_supported(*isa))
    throw UsageError(
        "--sw-isa " + name +
        ": tier not available (not compiled in or not supported by this CPU)");
  return *isa;
}

inline shard::ShardWeight parse_shard_weight(const std::string& name) {
  using shard::ShardWeight;
  if (name == "cost") return ShardWeight::kCostModel;
  if (name == "bases") return ShardWeight::kBases;
  throw UsageError("--shard-by expects cost|bases, got '" + name + "'");
}

struct AlignFlags {
  std::vector<std::string> target_files;
  core::IndexConfig index;
  core::SessionConfig session;
  int nranks = 8;
  int ppn = 4;
  /// --shards K over one --targets collection (0 = not given); repeated
  /// --targets make one shard per file instead.
  int shards = 0;
  shard::ShardWeight shard_weight = shard::ShardWeight::kCostModel;
  int shard_parallel = 0;  ///< 0 = auto: min(K, hardware threads / ranks)
};

inline AlignFlags parse_align_flags(const Args& args) {
  AlignFlags f;
  f.target_files = args.get_all("targets");
  if (f.target_files.empty())
    throw UsageError("missing required flag --targets");

  core::IndexConfig& icfg = f.index;
  icfg.k = args.get_int<int>("k", 51);
  icfg.buffer_S = static_cast<std::size_t>(args.get_int("S", 1000));
  icfg.fragment_len =
      static_cast<std::size_t>(args.get_int("fragment-len", 1024));
  icfg.exact_match = !args.has("no-exact");
  icfg.aggregating_stores = !args.has("no-aggregation");

  core::SessionConfig& scfg = f.session;
  scfg.max_hits_per_seed =
      static_cast<std::size_t>(args.get_int("max-hits", 32));
  scfg.exact_match = icfg.exact_match;
  scfg.seed_cache = !args.has("no-seed-cache");
  scfg.target_cache = !args.has("no-target-cache");
  scfg.permute_queries = !args.has("no-permute");
  scfg.extension.kernel = parse_kernel(args.get("sw", "full"));
  if (args.has("sw-isa")) {
    // Only the batch kernel dispatches on ISA; elsewhere the flag would be
    // a silent no-op.
    if (scfg.extension.kernel != align::SwKernel::kBatch)
      throw UsageError("--sw-isa requires --sw batch");
    scfg.extension.isa = parse_sw_isa(args.get("sw-isa"));
  }
  scfg.cache_admission = args.has("cache-admission");

  f.nranks = args.get_int<int>("ranks", 8);
  f.ppn = args.get_int<int>("ppn", 4);

  f.shards = args.get_int<int>("shards", 0);
  if (args.has("shards") && f.shards < 1)
    throw UsageError("--shards must be >= 1");
  const std::size_t nfiles = f.target_files.size();
  if (nfiles > 1 && f.shards != 0 &&
      static_cast<std::size_t>(f.shards) != nfiles)
    throw UsageError(
        "--shards conflicts with repeated --targets (one shard per file)");
  // --shard-by steers the planner, which only runs when one collection is
  // being split; anywhere else the flag would be a silent no-op.
  if (args.has("shard-by") && (nfiles > 1 || f.shards < 2))
    throw UsageError(
        "--shard-by requires --shards K (K >= 2) with a single --targets "
        "collection");
  f.shard_weight = parse_shard_weight(args.get("shard-by", "cost"));
  // --shard-parallel sizes the shard executor; without shards it would be a
  // silent no-op. 0/negative (and non-numeric, via get_int) are errors —
  // "no parallelism" is spelled --shard-parallel 1.
  if (args.has("shard-parallel")) {
    if (nfiles < 2 && f.shards < 2)
      throw UsageError(
          "--shard-parallel requires a sharded reference (--shards K or "
          "repeated --targets)");
    f.shard_parallel = args.get_int<int>("shard-parallel", 0);
    if (f.shard_parallel < 1)
      throw UsageError("--shard-parallel must be >= 1, got " +
                       args.get("shard-parallel"));
  }
  return f;
}

/// The reference the flags describe: one shard per --targets file (a single
/// file with no --shards K >= 2 is the one-shard reference, built exactly
/// like IndexedReference::build_from_fasta), or --shards K planned over one
/// collection.
inline shard::ShardedReference build_reference(pgas::Runtime& rt,
                                               const AlignFlags& f) {
  if (f.target_files.size() > 1 || f.shards < 2)
    return shard::ShardedReference::build_from_fastas(rt, f.target_files,
                                                      f.index);
  shard::ShardPlanOptions popt;
  popt.shards = f.shards;
  popt.weight = f.shard_weight;
  popt.k = f.index.k;
  const auto targets = seq::read_fasta(f.target_files[0]);
  auto ref = shard::ShardedReference::build(
      rt, targets, shard::plan_shards(targets, popt), f.index);
  if (ref.num_shards() != popt.shards)
    obs::Log::warn(
        "warning: --shards %d clamped to %d (one shard per target is the "
        "maximum)",
        popt.shards, ref.num_shards());
  return ref;
}

}  // namespace mera::tools
