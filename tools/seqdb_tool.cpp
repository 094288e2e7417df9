// seqdb_tool — convert and inspect SeqDB containers (Section V-A).
//
// Usage:
//   seqdb_tool convert in.fastq out.sdb [--no-quality]
//   seqdb_tool info    file.sdb
//   seqdb_tool dump    file.sdb [--n 10] [--fastq]
//   seqdb_tool partition file.sdb --ranks 8      (show per-rank record ranges)
#include <cstdio>
#include <string>

#include "cli_util.hpp"
#include "seq/fastq.hpp"
#include "seq/seqdb.hpp"

namespace {

int cmd_convert(const mera::tools::Args& args) {
  const auto& pos = args.positional();
  if (pos.size() != 3) {
    std::fprintf(stderr, "usage: seqdb_tool convert in.fastq out.sdb\n");
    return 1;
  }
  mera::seq::fastq_to_seqdb(pos[1], pos[2], !args.has("no-quality"));
  mera::seq::SeqDBReader db(pos[2]);
  std::printf("wrote %zu records to %s (quality %s)\n", db.size(),
              pos[2].c_str(), db.has_quality() ? "kept" : "dropped");
  return 0;
}

int cmd_info(const mera::tools::Args& args) {
  const auto& pos = args.positional();
  if (pos.size() != 2) {
    std::fprintf(stderr, "usage: seqdb_tool info file.sdb\n");
    return 1;
  }
  mera::seq::SeqDBReader db(pos[1]);
  std::size_t bases = 0, with_n = 0;
  std::size_t min_len = SIZE_MAX, max_len = 0;
  for (std::size_t i = 0; i < db.size(); ++i) {
    const auto r = db.read_packed(i);
    bases += r.seq.size();
    with_n += r.n_pos.empty() ? 0u : 1u;
    min_len = std::min(min_len, r.seq.size());
    max_len = std::max(max_len, r.seq.size());
  }
  std::printf("records:       %zu\n", db.size());
  std::printf("bases:         %zu\n", bases);
  std::printf("read length:   %zu-%zu\n", db.size() ? min_len : 0, max_len);
  std::printf("reads with N:  %zu\n", with_n);
  std::printf("qualities:     %s\n", db.has_quality() ? "stored" : "absent");
  return 0;
}

int cmd_dump(const mera::tools::Args& args) {
  const auto& pos = args.positional();
  if (pos.size() != 2) {
    std::fprintf(stderr, "usage: seqdb_tool dump file.sdb [--n 10]\n");
    return 1;
  }
  mera::seq::SeqDBReader db(pos[1]);
  const auto n = std::min<std::size_t>(
      db.size(), static_cast<std::size_t>(args.get_int("n", 10)));
  const bool as_fastq = args.has("fastq");
  for (std::size_t i = 0; i < n; ++i) {
    const auto rec = db.read(i);
    if (as_fastq)
      std::printf("@%s\n%s\n+\n%s\n", rec.name.c_str(), rec.seq.c_str(),
                  rec.qual.empty() ? std::string(rec.seq.size(), 'I').c_str()
                                   : rec.qual.c_str());
    else
      std::printf("%-30s %zu bp  %s\n", rec.name.c_str(), rec.seq.size(),
                  rec.seq.substr(0, 60).c_str());
  }
  return 0;
}

int cmd_partition(const mera::tools::Args& args) {
  const auto& pos = args.positional();
  if (pos.size() != 2) {
    std::fprintf(stderr, "usage: seqdb_tool partition file.sdb --ranks 8\n");
    return 1;
  }
  mera::seq::SeqDBReader db(pos[1]);
  const int nranks = args.get_int<int>("ranks", 8);
  std::printf("%zu records over %d ranks:\n", db.size(), nranks);
  for (int r = 0; r < nranks; ++r) {
    const auto [lo, hi] = db.partition(r, nranks);
    std::printf("  rank %3d: [%zu, %zu)  %zu records\n", r, lo, hi, hi - lo);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const mera::tools::Args args(argc, argv);
    const auto& pos = args.positional();
    if (pos.empty()) {
      std::fprintf(stderr,
                   "usage: seqdb_tool {convert|info|dump|partition} ...\n");
      return 1;
    }
    if (pos[0] == "convert") return cmd_convert(args);
    if (pos[0] == "info") return cmd_info(args);
    if (pos[0] == "dump") return cmd_dump(args);
    if (pos[0] == "partition") return cmd_partition(args);
    std::fprintf(stderr, "unknown subcommand '%s'\n", pos[0].c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "seqdb_tool: error: %s\n", e.what());
    return 1;
  }
}
