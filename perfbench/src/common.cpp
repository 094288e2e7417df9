// Report, statistics, spans, input generation and SAM parsing.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "seq/fastq.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"

namespace perfbench {

// ---- Report -------------------------------------------------------------------

void Report::set(const std::string& name, double value, const std::string& unit,
                 std::size_t samples) {
  for (auto& m : metrics) {
    if (m.name == name) {
      m = {name, value, unit, samples};
      return;
    }
  }
  metrics.push_back({name, value, unit, samples});
}

void Report::note(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
  std::fflush(stdout);
}

void Report::fail(const std::string& why) {
  correct = false;
  ++failed;
  note("FAIL: %s", why.c_str());
}

// ---- statistics ---------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- spans --------------------------------------------------------------------

void SpanLog::add(const std::string& name, double seconds) {
  spans_[name].push_back(seconds);
}

const std::vector<double>& SpanLog::samples(const std::string& name) const {
  static const std::vector<double> kNone;
  const auto it = spans_.find(name);
  return it == spans_.end() ? kNone : it->second;
}

double SpanLog::total(const std::string& name) const {
  double sum = 0.0;
  for (const double s : samples(name)) sum += s;
  return sum;
}

// ---- inputs -------------------------------------------------------------------

Genome make_genome(std::size_t length, std::uint64_t seed) {
  mera::seq::GenomeParams gp;
  gp.length = length;
  gp.repeat_fraction = 0.03;
  gp.rng_seed = seed;
  Genome g;
  g.seq = mera::seq::simulate_genome(gp);
  mera::seq::ContigParams cp;
  cp.min_len = 800;
  cp.max_len = 4000;
  cp.rng_seed = seed + 1;
  g.contigs = mera::seq::chop_into_contigs(g.seq, cp);
  return g;
}

std::vector<SeqRecord> make_reads(const std::string& genome, double depth,
                                  std::uint64_t seed, bool grouped) {
  mera::seq::ReadSimParams rp;
  rp.read_len = 101;
  rp.depth = depth;
  rp.error_rate = 0.004;
  rp.junk_fraction = 0.01;
  rp.grouped = grouped;
  rp.rng_seed = seed;
  return mera::seq::simulate_reads(genome, rp);
}

std::string fastq_text(const std::vector<SeqRecord>& reads, std::size_t begin,
                       std::size_t end) {
  std::string out;
  out.reserve((end - begin) * 240);
  for (std::size_t i = begin; i < end; ++i) {
    const SeqRecord& r = reads[i];
    out += '@';
    out += r.name;
    out += '\n';
    out += r.seq;
    out += "\n+\n";
    out += r.qual.empty() ? std::string(r.seq.size(), 'I') : r.qual;
    out += '\n';
  }
  return out;
}

std::vector<std::string> write_fastq_batches(const std::string& dir,
                                             const std::string& stem,
                                             const std::vector<SeqRecord>& reads,
                                             std::size_t n) {
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t b = reads.size() * i / n;
    const std::size_t e = reads.size() * (i + 1) / n;
    const std::string path = dir + "/" + stem + "-" + std::to_string(i) + ".fastq";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << fastq_text(reads, b, e);
    out.flush();
    if (!out) throw std::runtime_error("cannot write " + path);
    paths.push_back(path);
  }
  return paths;
}

std::uint64_t file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open " + path);
  return static_cast<std::uint64_t>(in.tellg());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---- SAM ----------------------------------------------------------------------

std::vector<std::string_view> sam_body(std::string_view sam) {
  std::vector<std::string_view> lines;
  std::size_t pos = 0;
  while (pos < sam.size()) {
    std::size_t nl = sam.find('\n', pos);
    if (nl == std::string_view::npos) nl = sam.size();
    const std::string_view line = sam.substr(pos, nl - pos);
    if (!line.empty() && line[0] != '@') lines.push_back(line);
    pos = nl + 1;
  }
  return lines;
}

namespace {

std::vector<std::string_view> split_tabs(std::string_view line) {
  std::vector<std::string_view> f;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t tab = line.find('\t', pos);
    f.push_back(line.substr(pos, tab == std::string_view::npos ? tab : tab - pos));
    if (tab == std::string_view::npos) break;
    pos = tab + 1;
  }
  return f;
}

std::uint64_t to_u64(std::string_view s, std::string_view line) {
  std::uint64_t v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size())
    throw std::runtime_error("bad SAM number in: " + std::string(line));
  return v;
}

int tag_int(const std::vector<std::string_view>& f, std::string_view tag,
            std::string_view line) {
  for (std::size_t i = 11; i < f.size(); ++i) {
    if (f[i].substr(0, 5) == tag) {
      std::string_view v = f[i].substr(5);
      const bool neg = !v.empty() && v[0] == '-';
      if (neg) v.remove_prefix(1);
      const auto u = static_cast<int>(to_u64(v, line));
      return neg ? -u : u;
    }
  }
  throw std::runtime_error("SAM record lacks " + std::string(tag) + ": " +
                           std::string(line));
}

}  // namespace

std::map<std::string, std::uint32_t, std::less<>> target_id_map(
    const std::vector<SeqRecord>& targets) {
  std::map<std::string, std::uint32_t, std::less<>> ids;
  for (std::uint32_t i = 0; i < targets.size(); ++i) ids[targets[i].name] = i;
  return ids;
}

std::vector<mera::core::AlignmentRecord> parse_sam_records(
    const std::vector<std::string_view>& lines,
    const std::map<std::string, std::uint32_t, std::less<>>& target_ids) {
  std::vector<mera::core::AlignmentRecord> recs;
  recs.reserve(lines.size());
  for (const std::string_view line : lines) {
    const auto f = split_tabs(line);
    if (f.size() < 11) throw std::runtime_error("short SAM line: " + std::string(line));
    mera::core::AlignmentRecord r;
    r.query_name = std::string(f[0]);
    r.reverse = (to_u64(f[1], line) & 0x10u) != 0;
    const auto it = target_ids.find(f[2]);
    if (it == target_ids.end())
      throw std::runtime_error("SAM record names an unknown target: " +
                               std::string(line));
    r.target_id = it->second;
    const std::uint64_t pos = to_u64(f[3], line);
    if (pos == 0) throw std::runtime_error("SAM POS 0: " + std::string(line));
    r.t_begin = pos - 1;
    r.exact = f[4] == "60";
    r.cigar = std::string(f[5]);
    const std::size_t qlen = f[9].size();
    std::size_t qpos = 0, tspan = 0, num = 0, trailing = 0;
    bool leading = true;
    for (const char c : r.cigar) {
      if (c >= '0' && c <= '9') {
        num = num * 10 + static_cast<std::size_t>(c - '0');
        continue;
      }
      switch (c) {
        case 'S':
          if (leading) r.q_begin = num;
          else trailing = num;
          qpos += num;
          break;
        case 'M': case '=': case 'X':
          qpos += num;
          tspan += num;
          break;
        case 'I': qpos += num; break;
        case 'D': tspan += num; break;
        default:
          throw std::runtime_error("bad CIGAR op in: " + std::string(line));
      }
      if (c != 'S') leading = false;
      num = 0;
    }
    if (qpos != qlen)
      throw std::runtime_error("CIGAR/SEQ length mismatch: " + std::string(line));
    r.q_end = qlen - trailing;
    r.t_end = r.t_begin + tspan;
    r.score = tag_int(f, "AS:i:", line);
    r.mismatches = tag_int(f, "NM:i:", line);
    recs.push_back(std::move(r));
  }
  return recs;
}

std::vector<std::string> select_sorted(
    const std::vector<std::string_view>& lines,
    const std::set<std::string, std::less<>>& names) {
  std::vector<std::string> out;
  for (const std::string_view line : lines) {
    const std::string_view qname = line.substr(0, line.find('\t'));
    if (names.count(qname)) out.emplace_back(line);
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

/// splitmix-finalized std::hash: summed over lines it is order-insensitive
/// but still sensitive to any single-line change.
std::uint64_t line_hash(std::string_view line) {
  std::uint64_t h = std::hash<std::string_view>{}(line);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace

std::uint64_t multiset_digest(const std::vector<std::string_view>& lines) {
  std::uint64_t sum = 0;
  for (const std::string_view line : lines) sum += line_hash(line);
  return sum ^ lines.size();
}

std::uint64_t sam_file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::uint64_t sum = 0, n = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '@') continue;
    sum += line_hash(line);
    ++n;
  }
  return sum ^ n;
}

}  // namespace perfbench
