// Shared pieces of the end-to-end benchmark: run options, the metric report
// every workload fills in, span/timing helpers, input generation, SAM
// parsing and the correctness gate.
//
// The benchmark drives the library through the same public API the tools use
// (IndexedReference / ShardedReference, AlignSession / ShardedAlignSession,
// serve::Daemon over its UNIX socket). It never reaches inside src/: every
// per-layer number comes from the library's own result structs or from
// timing the benchmark's calls into a layer's public functions.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/alignment.hpp"
#include "core/evaluation.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "pgas/topology.hpp"
#include "seq/fasta.hpp"

namespace mera::dht {
class SeedIndex;
}

namespace perfbench {

using mera::seq::SeqRecord;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< per-run scratch: generated inputs, SAM output
  std::string outdir;   ///< trace / metrics files of traced runs
  double floor_precision = 0.0;
  double floor_recall = 0.0;
  /// Gate self-test: corrupt one output record before the gate sees it; the
  /// run must then fail.
  bool corrupt_record = false;
};

/// Everything one run reports: the JSON metrics, the operation counts and
/// the verdict of the correctness gate.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1);
  /// A human-readable line on stdout (before the final JSON line).
  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  /// A failed operation or gate check: counts in `failed`, clears `correct`.
  void fail(const std::string& why);

  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 1;
  };
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
};

// ---- statistics -------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
[[nodiscard]] double percentile(std::vector<double> v, double p);
/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

// ---- spans ------------------------------------------------------------------

/// Benchmark-side spans around calls into a layer. Each span is recorded in
/// the process tracer (so it lands in the Chrome trace next to the
/// program's own phase spans when tracing is on) and its duration is kept
/// here, so per-layer metrics are derived from the same spans.
class SpanLog {
 public:
  void add(const std::string& name, double seconds);
  [[nodiscard]] const std::vector<double>& samples(const std::string& name) const;
  [[nodiscard]] double total(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> spans_;
};

class LayerSpan {
 public:
  LayerSpan(SpanLog& log, std::string name)
      : log_(&log), name_(std::move(name)), span_(name_, "perfbench") {}
  ~LayerSpan() { log_->add(name_, watch_.elapsed_s()); }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  SpanLog* log_;
  std::string name_;
  mera::obs::Span span_;
  mera::obs::StopWatch watch_;
};

// ---- inputs -----------------------------------------------------------------

struct Genome {
  std::string seq;
  std::vector<SeqRecord> contigs;
};

/// Low-repeat ("human-like", 3% repeats) genome chopped into contigs.
[[nodiscard]] Genome make_genome(std::size_t length, std::uint64_t seed);
/// Genome seeds of the workloads' references. References are fixed, like a
/// real reference assembly; --seed draws the reads. A genome's repeat layout
/// decides how many reads take the exact-match path, and across genome seeds
/// that alone moved map_human throughput by ~20%.
inline constexpr std::uint64_t kHumanGenomeSeed = 101;
inline constexpr std::uint64_t kScreenGenomeSeed = 404;
/// 101 bp reads at `depth` with the simulator's default error model.
[[nodiscard]] std::vector<SeqRecord> make_reads(const std::string& genome,
                                                double depth,
                                                std::uint64_t seed,
                                                bool grouped);
/// Split `reads` into `n` contiguous FASTQ files `dir/stem-<i>.fastq`.
[[nodiscard]] std::vector<std::string> write_fastq_batches(
    const std::string& dir, const std::string& stem,
    const std::vector<SeqRecord>& reads, std::size_t n);
/// FASTQ text of reads[begin, end).
[[nodiscard]] std::string fastq_text(const std::vector<SeqRecord>& reads,
                                     std::size_t begin, std::size_t end);
[[nodiscard]] std::uint64_t file_bytes(const std::string& path);
[[nodiscard]] std::string slurp(const std::string& path);

// ---- SAM --------------------------------------------------------------------

/// Body lines (no '@' header lines) of SAM text.
[[nodiscard]] std::vector<std::string_view> sam_body(std::string_view sam);
/// Parse SAM body lines back into alignment records; target ids are looked
/// up by RNAME in `target_ids`. Throws on a malformed line.
[[nodiscard]] std::vector<mera::core::AlignmentRecord> parse_sam_records(
    const std::vector<std::string_view>& lines,
    const std::map<std::string, std::uint32_t, std::less<>>& target_ids);
[[nodiscard]] std::map<std::string, std::uint32_t, std::less<>> target_id_map(
    const std::vector<SeqRecord>& targets);
/// Body lines whose QNAME is in `names`, sorted.
[[nodiscard]] std::vector<std::string> select_sorted(
    const std::vector<std::string_view>& lines,
    const std::set<std::string, std::less<>>& names);
/// Order-insensitive digest of a set of lines.
[[nodiscard]] std::uint64_t multiset_digest(
    const std::vector<std::string_view>& lines);
/// multiset_digest of a SAM file's body, streamed line by line.
[[nodiscard]] std::uint64_t sam_file_digest(const std::string& path);

// ---- correctness gate ---------------------------------------------------------

/// Precision / recall of `records` for `reads` against the simulated truth
/// (core::evaluate_alignments); fails the report below the floors. Reports
/// the two end-to-end ratios.
void gate_accuracy(Report& rep, const Options& opt, const Genome& genome,
                   const std::vector<SeqRecord>& targets,
                   const std::vector<SeqRecord>& reads,
                   const std::vector<mera::core::AlignmentRecord>& records,
                   int k);
/// Equality of two sorted record-line sets; fails the report on a mismatch.
/// Before trusting the comparison it checks itself on a corrupted copy of
/// `want` (which must NOT compare equal).
void gate_equal(Report& rep, const std::string& what,
                const std::vector<std::string>& got,
                const std::vector<std::string>& want);
/// Flip one field of one record (the --corrupt-record self-test).
void corrupt_one(std::vector<std::string>& lines);
/// Every `step`-th read of `reads` (the fixed oracle sample).
[[nodiscard]] std::vector<SeqRecord> sample_reads(
    const std::vector<SeqRecord>& reads, std::size_t count);
[[nodiscard]] std::set<std::string, std::less<>> names_of(
    const std::vector<SeqRecord>& reads);

// ---- layer replays (traced runs) ---------------------------------------------

/// seq: time core::load_read_batch on each batch file.
void replay_fastq_files(Report& rep, SpanLog& spans,
                        const std::vector<std::string>& paths);
/// seq: time seq::parse_fastq on in-memory payloads.
void replay_fastq_payloads(Report& rep, SpanLog& spans,
                           const std::vector<std::string>& payloads);
/// dht: SeedIndex::lookup over every seed (both strands) of `reads`, inside
/// Runtime::run on `topo`. Accumulates into the two sums.
struct LookupReplay {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;  ///< lookups that found the seed
  double rank_seconds = 0.0;
};
void replay_lookups(LookupReplay& acc, SpanLog& spans,
                    const mera::pgas::Topology& topo,
                    const mera::dht::SeedIndex& index,
                    const std::vector<SeqRecord>& reads,
                    std::size_t max_hits);
void report_lookups(Report& rep, const LookupReplay& acc);
/// align: smith_waterman and the kBatch screen over the (read, window) pairs
/// of reported records.
struct SwPair {
  std::string query;   ///< oriented read (reverse-complemented when reverse)
  std::string target;  ///< the whole target the window lies in
  std::size_t q_off = 0, t_off = 0;  ///< a point on the alignment's diagonal
};
[[nodiscard]] std::vector<SwPair> sw_pairs(
    const std::vector<mera::core::AlignmentRecord>& records,
    const std::vector<SeqRecord>& reads, const std::vector<SeqRecord>& targets,
    std::size_t count);
void replay_sw(Report& rep, SpanLog& spans, const std::vector<SwPair>& pairs);
/// pgas: median real time of an empty Runtime::run on `topo`.
void replay_launch(Report& rep, SpanLog& spans,
                   const mera::pgas::Topology& topo);
/// obs: write the Chrome trace and the metrics registry dump.
void write_observability(Report& rep, const Options& opt);

// ---- workloads ------------------------------------------------------------------

void run_map_human(const Options& opt, Report& rep);
void run_screen_sharded(const Options& opt, Report& rep);
void run_serve_mixed(const Options& opt, Report& rep);

}  // namespace perfbench
