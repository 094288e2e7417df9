// The two file-stream workloads: map_human (the CLI path on one index) and
// screen_sharded (a contamination screen against a K=4 sharded reference).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <type_traits>

#include "core/indexed_reference.hpp"
#include "serve.hpp"
#include "shard/sharded_reference.hpp"
#include "stream.hpp"

namespace perfbench {

namespace mc = mera::core;
namespace ms = mera::shard;

void report_pass_layers(Report& rep, const PassResult& p) {
  const auto& st = p.stats;
  rep.set("dht.seed_lookups", static_cast<double>(st.seed_lookups), "count");
  rep.set("dht.hits_truncated", static_cast<double>(st.hits_truncated), "count");
  rep.set("cache.seed_hit_rate", p.seed_cache.hit_rate(), "ratio",
          p.seed_cache.hits + p.seed_cache.misses);
  rep.set("cache.target_hit_rate", p.target_cache.hit_rate(), "ratio",
          p.target_cache.hits + p.target_cache.misses);
  rep.set("core.align_batch_s", median(p.batch_s), "s", p.batch_s.size());
  rep.set("core.exact_match_fraction", st.exact_fraction(), "ratio",
          st.reads_aligned);
  rep.set("core.prefetch_stall_s", p.stall_s, "s");
  rep.set("core.load_wall_s", p.load_wall_s, "s");
  rep.set("core.sam_write_s", p.sink_s, "s");
  rep.set("core.records", static_cast<double>(p.records), "count");
  rep.set("core.sam_bytes", static_cast<double>(p.sam_bytes), "bytes");
  rep.set("align.sw_calls", static_cast<double>(st.sw_calls), "count");
  rep.set("align.sw_cells", static_cast<double>(st.sw_cells), "count");
  rep.set("align.lane_occupancy", p.lanes.mean_occupancy(), "ratio",
          p.lanes.lanes_filled + p.lanes.lanes_wasted);
  double cpu = 0.0, comm = 0.0;
  for (const auto& ph : p.report.phases) {
    cpu += ph.cpu_max();
    comm += ph.comm_max();
  }
  rep.set("pgas.comm_modeled_s", comm, "s");
  rep.set("pgas.cpu_modeled_s", cpu, "s");
  rep.note("counts: reads %llu aligned %llu exact %llu lookups %llu truncated "
           "%llu sw_calls %llu sw_cells %llu records %llu",
           static_cast<unsigned long long>(st.reads_processed),
           static_cast<unsigned long long>(st.reads_aligned),
           static_cast<unsigned long long>(st.exact_match_reads),
           static_cast<unsigned long long>(st.seed_lookups),
           static_cast<unsigned long long>(st.hits_truncated),
           static_cast<unsigned long long>(st.sw_calls),
           static_cast<unsigned long long>(st.sw_cells),
           static_cast<unsigned long long>(p.records));
}

void report_shard(Report& rep, const std::vector<double>& imbalance,
                  const std::vector<double>& dispatch, int parallelism) {
  rep.set("shard.imbalance", median(imbalance), "ratio", imbalance.size());
  rep.set("shard.dispatch_reconcile_s", median(dispatch), "s", dispatch.size());
  rep.set("shard.parallelism", parallelism, "shards");
}

void replay_shard_k1(Report& rep, SpanLog& spans, mera::pgas::Runtime& rt,
                     const std::vector<SeqRecord>& contigs,
                     const mc::IndexConfig& icfg, const mc::SessionConfig& scfg,
                     const std::vector<SeqRecord>& sample) {
  const auto sref = ms::ShardedReference::build(rt, contigs, 1, icfg);
  ms::ShardedSessionConfig sc;
  sc.session = scfg;
  sc.shard_parallelism = 1;
  ms::ShardedAlignSession session(sref, sc);
  mc::CountingSink sink;
  PassResult p;
  for (std::size_t i = 0; i < 5; ++i) {
    const std::vector<SeqRecord> batch(
        sample.begin() + static_cast<std::ptrdiff_t>(sample.size() * i / 5),
        sample.begin() + static_cast<std::ptrdiff_t>(sample.size() * (i + 1) / 5));
    LayerSpan span(spans, "shard.k1_batch");
    accumulate(p, session.align_batch(rt, batch, sink));
  }
  report_shard(rep, p.imbalance, p.dispatch_reconcile_s, p.parallelism);
}

namespace {

/// Everything both one-shot workloads share once setup is done.
template <typename Ref, typename MakeSession>
void measure_and_check(const Options& opt, Report& rep, const Genome& genome,
                       const std::vector<SeqRecord>& targets,
                       const std::vector<SeqRecord>& reads,
                       const std::vector<std::string>& files, const Ref& ref,
                       mera::pgas::Runtime& rt, MakeSession make_session,
                       MakeSession make_oracle,
                       std::vector<mc::SamTarget> catalog, int k) {
  const std::string sam_path = opt.workdir + "/out.sam";
  // ---- timed passes (untraced) ----
  std::vector<double> rates, pass_walls, batch_s, pass_p99;
  std::uint64_t digest = 0;
  std::uint64_t records = 0;
  const mera::obs::StopWatch window;
  do {
    auto session = make_session();
    const PassResult p =
        stream_pass(*session, rt, files, sam_path, catalog, nullptr);
    rep.attempted += files.size();
    rates.push_back(static_cast<double>(p.stats.reads_processed) / p.wall_s);
    pass_walls.push_back(p.wall_s);
    batch_s.insert(batch_s.end(), p.batch_s.begin(), p.batch_s.end());
    pass_p99.push_back(percentile(p.batch_s, 99));
    // Every pass over one reference handle must write the same records.
    const std::uint64_t d = sam_file_digest(sam_path);
    if (pass_walls.size() == 1) {
      digest = d;
      records = p.records;
    } else if (d != digest || p.records != records) {
      rep.fail("pass " + std::to_string(pass_walls.size()) +
               " wrote different SAM records than pass 1");
    }
    std::string per_batch;
    for (const double b : p.batch_s) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " %.3f", b);
      per_batch += buf;
    }
    rep.note("pass %zu: %.3f s, %.1f reads/s, %llu records, batches:%s",
             pass_walls.size(), p.wall_s, rates.back(),
             static_cast<unsigned long long>(p.records), per_batch.c_str());
    // Stop when one more pass would overrun the window by more than half.
  } while (window.elapsed_s() + 0.5 * pass_walls.back() < opt.seconds);
  rep.set("peak_rss_mb", peak_rss_mb(), "MB");
  rep.set("reads_per_s", median(rates), "reads/s", rates.size());
  rep.set("batch_latency_p50_s", median(batch_s), "s", batch_s.size());
  // A pass has only 4 batches, so its p99 is its slowest batch; a run's p99
  // over ~20 batches would be one outlier. Report the median pass's p99.
  rep.set("batch_latency_p99_s", median(pass_p99), "s", batch_s.size());
  rep.set("bulk_latency_p50_s", median(pass_walls), "s", pass_walls.size());

  // ---- correctness gate on the last pass's SAM ----
  const std::string sam = slurp(sam_path);
  const auto lines = sam_body(sam);
  const auto eval_reads = sample_reads(reads, 10000);
  const auto eval_names = names_of(eval_reads);
  std::vector<std::string_view> eval_lines;
  for (const auto line : lines)
    if (eval_names.count(line.substr(0, line.find('\t'))))
      eval_lines.push_back(line);
  const auto tids = target_id_map(targets);
  gate_accuracy(rep, opt, genome, targets, eval_reads,
                parse_sam_records(eval_lines, tids), k);
  const auto oracle_reads = sample_reads(reads, 2000);
  std::vector<std::string> got = select_sorted(lines, names_of(oracle_reads));
  if (opt.corrupt_record) corrupt_one(got);
  {
    std::ostringstream os;
    mc::SamStreamSink oracle_sink(os, catalog, rt.nranks());
    auto oracle = make_oracle();
    oracle->align_batch(rt, oracle_reads, oracle_sink);
    const std::string text = os.str();
    gate_equal(rep, "engine vs full-DP oracle on " +
                        std::to_string(oracle_reads.size()) + " reads",
               got, select_sorted(sam_body(text), names_of(oracle_reads)));
  }
  if (!opt.trace) return;

  // ---- traced pass + layer replays ----
  SpanLog spans;
  mera::obs::Tracer::global().enable();
  auto session = make_session();
  const PassResult p = stream_pass(*session, rt, files, sam_path, catalog, &spans);
  rep.attempted += files.size();
  report_pass_layers(rep, p);
  rep.set("obs.trace_overhead_fraction", p.wall_s / median(pass_walls) - 1.0,
          "ratio");
  {
    // cache: reload the traced pass's caches into a fresh session.
    const std::string snap = opt.workdir + "/snapshot";
    std::filesystem::create_directories(snap);
    const std::string path =
        std::is_same_v<Ref, mc::IndexedReference> ? snap + "/session.mcache" : snap;
    session->save_caches(rt, path);
    auto fresh = make_session();
    {
      LayerSpan span(spans, "cache.load_caches");
      fresh->load_caches(rt, path);
    }
    rep.set("cache.snapshot_load_s", spans.total("cache.load_caches"), "s");
  }
  replay_fastq_files(rep, spans, files);
  replay_sw(rep, spans,
            sw_pairs(parse_sam_records(eval_lines, tids), eval_reads, targets, 3000));
  replay_launch(rep, spans, rt.topo());
  if constexpr (std::is_same_v<Ref, mc::IndexedReference>) {
    LookupReplay acc;
    replay_lookups(acc, spans, rt.topo(), ref.index(), oracle_reads,
                   mc::SessionConfig{}.max_hits_per_seed);
    report_lookups(rep, acc);
    replay_shard_k1(rep, spans, rt, targets, ref.config(), mc::SessionConfig{},
                    oracle_reads);
    serve_probe(rep, spans, opt, mera::serve::Backend(ref, mc::SessionConfig{}),
                mera::serve::Backend(ref, mc::SessionConfig{}), rt.topo(),
                payloads_of(oracle_reads, 50));
  } else {
    LookupReplay acc;
    for (int s = 0; s < ref.num_shards(); ++s)
      replay_lookups(acc, spans, rt.topo(), ref.shard(s).index(), oracle_reads,
                     session->config().max_hits_per_seed);
    report_lookups(rep, acc);
    report_shard(rep, p.imbalance, p.dispatch_reconcile_s, p.parallelism);
    serve_probe(rep, spans, opt,
                mera::serve::Backend(ref, session->sharded_config()),
                mera::serve::Backend(ref, session->sharded_config()), rt.topo(),
                payloads_of(oracle_reads, 50));
  }
  mera::obs::Tracer::global().disable();
  write_observability(rep, opt);
}

}  // namespace

void run_map_human(const Options& opt, Report& rep) {
  const Genome genome = make_genome(2'000'000, kHumanGenomeSeed);
  const auto reads = make_reads(genome.seq, 5.0, opt.seed + 2, /*grouped=*/true);
  const std::string fasta = opt.workdir + "/ref.fa";
  mera::seq::write_fasta(fasta, genome.contigs);
  const auto files = write_fastq_batches(opt.workdir, "reads", reads, 4);
  rep.note("map_human: %zu contigs, %zu reads in %zu FASTQ batches",
           genome.contigs.size(), reads.size(), files.size());

  // 4 ranks on 2 simulated nodes: off-node lookups go through the caches.
  mera::pgas::Runtime rt(mera::pgas::Topology(4, 2));
  const mc::IndexConfig icfg;
  std::vector<double> setup, build;
  std::optional<mc::IndexedReference> ref;
  for (int i = 0; i < 5; ++i) {
    const mera::obs::StopWatch w;
    ref.emplace(mc::IndexedReference::build_from_fasta(rt, fasta, icfg));
    build.push_back(w.elapsed_s());
    mc::AlignSession warm(*ref, mc::SessionConfig{});
    setup.push_back(w.elapsed_s());
  }
  rep.set("setup_s", median(setup), "s", setup.size());
  rep.set("dht.build_s", median(build), "s", build.size());
  rep.set("dht.index_entries", static_cast<double>(ref->index_entries()), "count");

  auto make_session = [&] {
    return std::make_unique<mc::AlignSession>(*ref, mc::SessionConfig{});
  };
  auto make_oracle = [&] {
    mc::SessionConfig oc;
    oc.extension.kernel = mera::align::SwKernel::kFullDP;
    return std::make_unique<mc::AlignSession>(*ref, oc);
  };
  measure_and_check(opt, rep, genome, genome.contigs, reads, files, *ref, rt,
                    std::function(make_session), std::function(make_oracle),
                    mc::sam_targets(ref->targets()), icfg.k);
}

void run_screen_sharded(const Options& opt, Report& rep) {
  const Genome genome = make_genome(4'000'000, kScreenGenomeSeed);
  // The reference holds every fourth contig; three quarters of the reads
  // come from contigs it lacks.
  std::vector<SeqRecord> targets;
  for (std::size_t i = 0; i < genome.contigs.size(); i += 4)
    targets.push_back(genome.contigs[i]);
  const auto reads = make_reads(genome.seq, 3.0, opt.seed + 2, /*grouped=*/true);
  const std::string fasta = opt.workdir + "/ref.fa";
  mera::seq::write_fasta(fasta, targets);
  const auto files = write_fastq_batches(opt.workdir, "reads", reads, 4);
  rep.note("screen_sharded: %zu of %zu contigs in the reference, %zu reads in "
           "%zu FASTQ batches",
           targets.size(), genome.contigs.size(), reads.size(), files.size());

  // One rank per shard; the session clones this topology per shard.
  mera::pgas::Runtime rt(mera::pgas::Topology(1, 1));
  const mc::IndexConfig icfg;
  ms::ShardedSessionConfig scfg;
  scfg.session.extension.kernel = mera::align::SwKernel::kBatch;
  scfg.shard_parallelism = 4;
  std::vector<double> setup, build;
  std::optional<ms::ShardedReference> ref;
  for (int i = 0; i < 5; ++i) {
    const mera::obs::StopWatch w;
    ref.emplace(ms::ShardedReference::build(rt, mera::seq::read_fasta(fasta), 4, icfg));
    build.push_back(w.elapsed_s());
    ms::ShardedAlignSession warm(*ref, scfg);
    setup.push_back(w.elapsed_s());
  }
  rep.set("setup_s", median(setup), "s", setup.size());
  rep.set("dht.build_s", median(build), "s", build.size());
  rep.set("dht.index_entries", static_cast<double>(ref->index_entries()), "count");

  auto make_session = [&] {
    return std::make_unique<ms::ShardedAlignSession>(*ref, scfg);
  };
  auto make_oracle = [&] {
    ms::ShardedSessionConfig oc = scfg;
    oc.session.extension.kernel = mera::align::SwKernel::kFullDP;
    return std::make_unique<ms::ShardedAlignSession>(*ref, oc);
  };
  measure_and_check(opt, rep, genome, targets, reads, files, *ref, rt,
                    std::function(make_session), std::function(make_oracle),
                    ref->sam_targets(), icfg.k);
}

}  // namespace perfbench
