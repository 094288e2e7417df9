// One timed pass of a file-stream workload: a fresh session (cold caches,
// as one CLI invocation would have) streams every FASTQ batch file through
// align_batch_files, with prefetch on, into a SAM file.
#pragma once

#include <atomic>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/align_session.hpp"
#include "core/alignment_sink.hpp"
#include "obs/clock.hpp"
#include "shard/sharded_session.hpp"

namespace perfbench {

/// Wraps the SAM sink and times every call into it (traced runs only).
class TimedSink final : public mera::core::AlignmentSink {
 public:
  TimedSink(mera::core::AlignmentSink& inner, SpanLog& spans)
      : inner_(&inner), spans_(&spans) {}
  void emit(int rank, const SeqRecord& read,
            mera::core::AlignmentRecord&& rec) override {
    const auto t0 = mera::obs::wall_now();
    inner_->emit(rank, read, std::move(rec));
    const auto ns = static_cast<std::uint64_t>(
        mera::obs::seconds_since(t0) * 1e9);
    emit_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  void batch_end() override {
    LayerSpan span(*spans_, "core.sam_batch_end");
    inner_->batch_end();
  }
  /// Seconds inside the sink: rank-thread emit() time plus batch_end().
  [[nodiscard]] double seconds() const {
    return static_cast<double>(emit_ns_.load()) * 1e-9 +
           spans_->total("core.sam_batch_end");
  }

 private:
  mera::core::AlignmentSink* inner_;
  SpanLog* spans_;
  std::atomic<std::uint64_t> emit_ns_{0};
};

struct PassResult {
  double wall_s = 0.0;
  std::vector<double> batch_s;  ///< per batch file, completion to completion
  mera::core::PipelineStats stats;
  mera::pgas::PhaseReport report;
  mera::cache::CacheCounters seed_cache, target_cache;
  mera::align::LaneStats lanes;
  double load_wall_s = 0.0, stall_s = 0.0;
  std::uint64_t records = 0, sam_bytes = 0;
  double sink_s = 0.0;
  // Sharded sessions only.
  std::vector<double> imbalance, dispatch_reconcile_s;
  int parallelism = 1;
};

/// Only the hit/miss fields feed metrics.
inline void add_hits(mera::cache::CacheCounters& a,
                     const mera::cache::CacheCounters& b) {
  a.hits += b.hits;
  a.misses += b.misses;
}

inline void accumulate(PassResult& p, const mera::core::BatchResult& b) {
  add_hits(p.seed_cache, b.seed_cache);
  add_hits(p.target_cache, b.target_cache);
  p.lanes += b.lane_stats;
}

inline void accumulate(PassResult& p, const mera::shard::ShardedBatchResult& b) {
  for (const auto& s : b.per_shard) {
    add_hits(p.seed_cache, s.seed_cache);
    add_hits(p.target_cache, s.target_cache);
  }
  p.lanes += b.lane_stats;
  double max_shard = 0.0;
  for (const double w : b.shard_wall_s) max_shard = std::max(max_shard, w);
  p.imbalance.push_back(b.imbalance_measured());
  p.dispatch_reconcile_s.push_back(b.wall_s - max_shard);
  p.parallelism = b.shard_parallelism;
}

/// `session` is freshly constructed by the caller for this pass. With
/// `spans` set, the sink is timed and the call is recorded as a span.
template <typename Session>
PassResult stream_pass(Session& session, mera::pgas::Runtime& rt,
                       const std::vector<std::string>& files,
                       const std::string& sam_path,
                       std::vector<mera::core::SamTarget> catalog,
                       SpanLog* spans) {
  PassResult p;
  std::ofstream out(sam_path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + sam_path);
  mera::core::SamStreamSink sam(out, std::move(catalog), rt.nranks());
  SpanLog local;
  TimedSink timed(sam, spans ? *spans : local);
  mera::core::AlignmentSink& sink =
      spans ? static_cast<mera::core::AlignmentSink&>(timed) : sam;
  const mera::obs::StopWatch watch;
  double last = 0.0;
  auto on_batch = [&](std::size_t, const auto& b) {
    const double now = watch.elapsed_s();
    p.batch_s.push_back(now - last);
    if (spans) spans->add("core.align_batch", now - last);
    last = now;
    accumulate(p, b);
  };
  mera::core::FileStreamOptions fo;
  fo.prefetch = true;
  auto res = [&] {
    mera::obs::Span span("core.align_batch_files", "perfbench");
    return session.align_batch_files(rt, files, sink, fo, on_batch);
  }();
  out.flush();
  p.wall_s = watch.elapsed_s();
  if (!out) throw std::runtime_error("write failed: " + sam_path);
  p.stats = res.stats;
  p.report = res.report;
  p.load_wall_s = res.load_wall_s;
  p.stall_s = res.stall_s;
  p.records = sam.records_written();
  p.sam_bytes = static_cast<std::uint64_t>(out.tellp());
  p.sink_s = spans ? timed.seconds() : 0.0;
  return p;
}

/// Per-layer metrics every file-stream pass yields from the library's own
/// result structs.
void report_pass_layers(Report& rep, const PassResult& p);
void report_shard(Report& rep, const std::vector<double>& imbalance,
                  const std::vector<double>& dispatch, int parallelism);
/// shard layer on a workload that does not shard: the same reference as a
/// K=1 ShardedReference, aligning `sample` in five batches. This is the cost
/// the shard layer adds when one session type serves every path.
void replay_shard_k1(Report& rep, SpanLog& spans, mera::pgas::Runtime& rt,
                     const std::vector<SeqRecord>& contigs,
                     const mera::core::IndexConfig& icfg,
                     const mera::core::SessionConfig& scfg,
                     const std::vector<SeqRecord>& sample);

}  // namespace perfbench
