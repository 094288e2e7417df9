// Per-layer replays for traced runs: each one times the benchmark's own calls
// into one layer's public functions on the workload's data.
#include <algorithm>
#include <fstream>
#include <mutex>

#include "align/batch_sw.hpp"
#include "align/extension.hpp"
#include "align/scoring.hpp"
#include "align/smith_waterman.hpp"
#include "bench.hpp"
#include "core/batch_prefetcher.hpp"
#include "dht/seed_index.hpp"
#include "obs/metrics.hpp"
#include "pgas/runtime.hpp"
#include "seq/dna.hpp"
#include "seq/fastq.hpp"
#include "seq/kmer.hpp"
#include "seq/packed_seq.hpp"

namespace perfbench {

namespace {

void report_parse(Report& rep, const std::vector<double>& secs,
                  std::uint64_t bytes) {
  double total = 0.0;
  for (const double s : secs) total += s;
  rep.set("seq.fastq_parse_s", median(secs), "s", secs.size());
  rep.set("seq.fastq_mb_per_s", total > 0 ? bytes / 1e6 / total : 0.0, "MB/s",
          secs.size());
}

}  // namespace

void replay_fastq_files(Report& rep, SpanLog& spans,
                        const std::vector<std::string>& paths) {
  std::uint64_t bytes = 0;
  std::size_t records = 0;
  for (const auto& p : paths) {
    bytes += file_bytes(p);
    LayerSpan span(spans, "seq.load_read_batch");
    records += mera::core::load_read_batch(p).size();
  }
  report_parse(rep, spans.samples("seq.load_read_batch"), bytes);
  rep.note("seq: load_read_batch over %zu files, %zu records", paths.size(),
           records);
}

void replay_fastq_payloads(Report& rep, SpanLog& spans,
                           const std::vector<std::string>& payloads) {
  std::uint64_t bytes = 0;
  for (const auto& p : payloads) {
    bytes += p.size();
    LayerSpan span(spans, "seq.parse_fastq");
    if (mera::seq::parse_fastq(p).empty()) rep.fail("parse_fastq: empty batch");
  }
  report_parse(rep, spans.samples("seq.parse_fastq"), bytes);
}

void replay_lookups(LookupReplay& acc, SpanLog& spans,
                    const mera::pgas::Topology& topo,
                    const mera::dht::SeedIndex& index,
                    const std::vector<SeqRecord>& reads, std::size_t max_hits) {
  mera::pgas::Runtime rt(topo);
  std::mutex mu;
  LayerSpan span(spans, "dht.lookup_replay");
  rt.run([&](mera::pgas::Rank& rank) {
    std::uint64_t lookups = 0, hits = 0;
    std::vector<mera::dht::SeedHit> out;
    const mera::obs::StopWatch watch;
    for (std::size_t i = static_cast<std::size_t>(rank.id()); i < reads.size();
         i += static_cast<std::size_t>(rank.nranks())) {
      const std::string& fwd = reads[i].seq;
      const std::string rc = mera::seq::reverse_complement(fwd);
      for (const std::string* s : {&fwd, &rc}) {
        mera::seq::for_each_seed(
            std::string_view(*s), index.k(),
            [&](std::size_t, const mera::seq::Kmer& m) {
              out.clear();
              ++lookups;
              hits += index.lookup(rank, m, max_hits, out) > 0 ? 1 : 0;
            });
      }
    }
    const double secs = watch.elapsed_s();
    const std::lock_guard lock(mu);
    acc.lookups += lookups;
    acc.hits += hits;
    acc.rank_seconds += secs;
  });
}

void report_lookups(Report& rep, const LookupReplay& acc) {
  rep.set("dht.lookup_ns",
          acc.lookups ? acc.rank_seconds * 1e9 / static_cast<double>(acc.lookups)
                      : 0.0,
          "ns", acc.lookups);
  rep.set("dht.lookup_hit_fraction",
          acc.lookups ? static_cast<double>(acc.hits) / static_cast<double>(acc.lookups)
                      : 0.0,
          "ratio", acc.lookups);
}

std::vector<SwPair> sw_pairs(const std::vector<mera::core::AlignmentRecord>& records,
                             const std::vector<SeqRecord>& reads,
                             const std::vector<SeqRecord>& targets,
                             std::size_t count) {
  std::map<std::string_view, const SeqRecord*> by_name;
  for (const auto& r : reads) by_name[r.name] = &r;
  std::vector<SwPair> pairs;
  const std::size_t step = std::max<std::size_t>(1, records.size() / count);
  for (std::size_t i = 0; i < records.size() && pairs.size() < count; i += step) {
    const auto& rec = records[i];
    const auto it = by_name.find(rec.query_name);
    if (it == by_name.end()) continue;
    SwPair p;
    p.query = rec.reverse ? mera::seq::reverse_complement(it->second->seq)
                          : it->second->seq;
    p.target = targets[rec.target_id].seq;
    p.q_off = rec.q_begin;
    p.t_off = rec.t_begin;
    pairs.push_back(std::move(p));
  }
  return pairs;
}

void replay_sw(Report& rep, SpanLog& spans, const std::vector<SwPair>& pairs) {
  using namespace mera::align;
  const ExtensionConfig base;
  std::vector<mera::seq::PackedSeq> packed;
  std::vector<std::vector<std::uint8_t>> queries, windows;
  double cells = 0.0;
  for (const auto& p : pairs) {
    packed.emplace_back(p.target);
    const SeedWindow w = project_seed_window(p.query.size(), packed.back(),
                                             p.q_off, p.t_off, base.window_pad);
    queries.push_back(dna_codes(p.query));
    windows.push_back(dna_codes(packed.back(), w.begin, w.end - w.begin));
    cells += static_cast<double>(p.query.size()) *
             static_cast<double>(w.end - w.begin);
  }
  // Full-DP traceback kernel, one call per reported (read, window) pair.
  int checksum = 0;
  {
    LayerSpan span(spans, "align.smith_waterman");
    for (std::size_t i = 0; i < pairs.size(); ++i)
      checksum += smith_waterman(queries[i], windows[i], base.scoring).score;
  }
  const double tb_s = spans.total("align.smith_waterman");
  rep.set("align.traceback_gcups", tb_s > 0 ? cells / tb_s / 1e9 : 0.0, "GCUPS",
          pairs.size());
  // Score-only screen of the batch engine on every supported tier, in the
  // multi-query form the session's pooled kBatch path runs: every window is
  // queued against its read, then one flush packs them into lane groups.
  rep.note("align: ISA tier table over %zu windows (%.3g cells), traceback "
           "%.3f GCUPS",
           pairs.size(), cells, tb_s > 0 ? cells / tb_s / 1e9 : 0.0);
  for (const SwIsa isa :
       {SwIsa::kScalar, SwIsa::kSse2, SwIsa::kAvx2, SwIsa::kAvx512}) {
    const std::string name = std::string("align.screen_gcups.") + isa_name(isa);
    if (!isa_supported(isa)) {
      rep.set(name, 0.0, "GCUPS", 0);
      rep.note("  %-7s unsupported on this host", isa_name(isa));
      continue;
    }
    LaneStats lanes;
    {
      LayerSpan span(spans, name);
      BatchSwScorer scorer(base.scoring, isa);
      for (std::size_t i = 0; i < pairs.size(); ++i)
        scorer.add(scorer.add_query(queries[i]), windows[i]);
      for (const auto& r : scorer.flush()) checksum += r.score;
      lanes = scorer.lane_stats();
    }
    const double s = spans.total(name);
    rep.set(name, s > 0 ? cells / s / 1e9 : 0.0, "GCUPS", pairs.size());
    rep.note("  %-7s %.3f GCUPS, lane occupancy %.3f", isa_name(isa),
             s > 0 ? cells / s / 1e9 : 0.0, lanes.mean_occupancy());
  }
  const SwIsa auto_isa = resolve_isa(SwIsa::kAuto);
  rep.set("align.auto_isa", static_cast<double>(isa_lanes8(auto_isa)), "lanes");
  rep.note("  auto resolves to %s (%zu 8-bit lanes); checksum %d",
           isa_name(auto_isa), isa_lanes8(auto_isa), checksum);
}

void replay_launch(Report& rep, SpanLog& spans,
                   const mera::pgas::Topology& topo) {
  mera::pgas::Runtime rt(topo);
  for (int i = 0; i < 50; ++i) {
    LayerSpan span(spans, "pgas.run_launch");
    rt.run([](mera::pgas::Rank&) {});
  }
  rep.set("pgas.run_launch_s", median(spans.samples("pgas.run_launch")), "s",
          spans.samples("pgas.run_launch").size());
}

void write_observability(Report& rep, const Options& opt) {
  const std::string stem =
      opt.outdir + "/" + opt.workload + "-seed" + std::to_string(opt.seed);
  {
    std::ofstream out(stem + ".trace.json", std::ios::trunc);
    mera::obs::Tracer::global().write_chrome_trace(out);
    out.flush();
    if (!out) rep.fail("cannot write " + stem + ".trace.json");
  }
  {
    std::ofstream out(stem + ".metrics.json", std::ios::trunc);
    mera::obs::MetricsRegistry::global().write_json(out);
    out.flush();
    if (!out) rep.fail("cannot write " + stem + ".metrics.json");
  }
  rep.note("obs: %zu trace events -> %s.trace.json, registry -> %s.metrics.json",
           mera::obs::Tracer::global().event_count(), stem.c_str(), stem.c_str());
}

}  // namespace perfbench
