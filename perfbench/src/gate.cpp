// The correctness gate every run passes through.
#include <algorithm>
#include <string>

#include "bench.hpp"

namespace perfbench {

void gate_accuracy(Report& rep, const Options& opt, const Genome& genome,
                   const std::vector<SeqRecord>& targets,
                   const std::vector<SeqRecord>& reads,
                   const std::vector<mera::core::AlignmentRecord>& records,
                   int k) {
  mera::core::EvalOptions eo;
  eo.k = k;
  const auto ev =
      mera::core::evaluate_alignments(targets, reads, records, eo, genome.seq);
  rep.note("gate: %zu reads, %zu findable, %zu aligned, %zu placed correctly, "
           "%zu misplaced, %zu junk aligned",
           ev.total_reads, ev.findable_reads, ev.aligned_reads,
           ev.correctly_placed, ev.misplaced, ev.junk_aligned);
  const double precision = ev.placement_precision();
  const double recall = ev.recall_vs_findable();
  rep.set("placement_precision", precision, "ratio", ev.aligned_reads);
  rep.set("recall_vs_findable", recall, "ratio", ev.findable_reads);
  if (precision < opt.floor_precision)
    rep.fail("placement_precision " + std::to_string(precision) +
             " below floor " + std::to_string(opt.floor_precision));
  if (recall < opt.floor_recall)
    rep.fail("recall_vs_findable " + std::to_string(recall) + " below floor " +
             std::to_string(opt.floor_recall));
}

void corrupt_one(std::vector<std::string>& lines) {
  if (lines.empty()) return;
  // Shift the POS field (4th column) of the middle record by one base.
  std::string& line = lines[lines.size() / 2];
  std::size_t pos = 0;
  for (int tabs = 0; tabs < 3; ++tabs) pos = line.find('\t', pos) + 1;
  const std::size_t end = line.find('\t', pos);
  const unsigned long v = std::stoul(line.substr(pos, end - pos));
  line.replace(pos, end - pos, std::to_string(v + 1));
}

void gate_equal(Report& rep, const std::string& what,
                const std::vector<std::string>& got,
                const std::vector<std::string>& want) {
  // The comparison must be able to fail: a corrupted copy of the reference
  // side may never compare equal to the reference.
  std::vector<std::string> broken = want;
  corrupt_one(broken);
  if (want.empty() || broken == want) {
    rep.fail(what + ": gate self-check could not build a failing input");
    return;
  }
  if (got == want) {
    rep.note("gate: %s: %zu records identical", what.c_str(), want.size());
    return;
  }
  std::size_t shown = 0;
  for (std::size_t i = 0; i < std::max(got.size(), want.size()) && shown < 3; ++i) {
    const std::string a = i < got.size() ? got[i] : "<none>";
    const std::string b = i < want.size() ? want[i] : "<none>";
    if (a != b) {
      rep.note("  got : %s\n  want: %s", a.c_str(), b.c_str());
      ++shown;
    }
  }
  rep.fail(what + ": " + std::to_string(got.size()) + " records differ from " +
           std::to_string(want.size()) + " expected");
}

std::vector<SeqRecord> sample_reads(const std::vector<SeqRecord>& reads,
                                    std::size_t count) {
  std::vector<SeqRecord> out;
  const std::size_t step = std::max<std::size_t>(1, reads.size() / count);
  for (std::size_t i = 0; i < reads.size() && out.size() < count; i += step)
    out.push_back(reads[i]);
  return out;
}

std::set<std::string, std::less<>> names_of(const std::vector<SeqRecord>& reads) {
  std::set<std::string, std::less<>> names;
  for (const auto& r : reads) names.insert(r.name);
  return names;
}

}  // namespace perfbench
