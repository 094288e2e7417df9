// perfbench: the end-to-end benchmark binary.
//
//   perfbench --workload map_human|screen_sharded|serve_mixed --seed N
//             --seconds S --trace 0|1 --workdir DIR --outdir DIR
//             [--floor-precision P] [--floor-recall R] [--corrupt-record]
//
// Human-readable lines go to stdout; the last line is one JSON object with
// every metric the run measured:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name:
//    {"value": .., "unit": .., "samples": ..}}}
// perfbench/run.py builds this binary and selects the metrics BENCHMARK.json
// lists for the requested mode. Exit status is 0 only when the run completed
// and its correctness gate passed.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "obs/log.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR --outdir DIR "
               "[--floor-precision P] [--floor-recall R] [--corrupt-record]\n",
               why);
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_json(const perfbench::Report& rep) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              rep.correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const auto& m = rep.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"samples\": %zu}",
                i ? ", " : "", json_escape(m.name).c_str(), m.value,
                json_escape(m.unit).c_str(), m.samples);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed") opt.seed = std::stoull(value());
      else if (a == "--seconds") opt.seconds = std::stod(value());
      else if (a == "--trace") opt.trace = std::stoi(value()) != 0;
      else if (a == "--workdir") opt.workdir = value();
      else if (a == "--outdir") opt.outdir = value();
      else if (a == "--floor-precision") opt.floor_precision = std::stod(value());
      else if (a == "--floor-recall") opt.floor_recall = std::stod(value());
      else if (a == "--corrupt-record") opt.corrupt_record = true;
      else usage(("unknown argument " + a).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (opt.workdir.empty() || opt.outdir.empty()) usage("--workdir and --outdir are required");
  if (opt.seconds <= 0) usage("--seconds must be positive");
  mera::obs::Log::set_level(mera::obs::LogLevel::kError);

  perfbench::Report rep;
  try {
    if (opt.workload == "map_human") perfbench::run_map_human(opt, rep);
    else if (opt.workload == "screen_sharded") perfbench::run_screen_sharded(opt, rep);
    else if (opt.workload == "serve_mixed") perfbench::run_serve_mixed(opt, rep);
    else usage(("unknown workload " + opt.workload).c_str());
  } catch (const std::exception& e) {
    ++rep.attempted;
    rep.fail(std::string("exception: ") + e.what());
  }
  if (rep.attempted == 0) rep.attempted = 1;
  for (const auto& m : rep.metrics)
    std::printf("metric %-30s %.6g %s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  print_json(rep);
  return rep.correct ? 0 : 1;
}
