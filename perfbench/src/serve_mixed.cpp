// serve_mixed: the daemon, warm-started, under three interactive tenants and
// one bulk tenant; plus the client and serve-layer probe the other workloads
// use in traced runs.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <sstream>
#include <thread>

#include "core/indexed_reference.hpp"
#include "seq/fastq.hpp"
#include "serve.hpp"
#include "serve/daemon.hpp"
#include "stream.hpp"

namespace perfbench {

namespace mc = mera::core;
namespace sv = mera::serve;

// ---- client -------------------------------------------------------------------

Client::Client(const std::string& socket_path, const std::string& tenant)
    : fd_(sv::connect_unix(socket_path)) {
  sv::write_frame(fd_, sv::FrameType::kHello, tenant);
}

Client::~Client() {
  try {
    sv::write_frame(fd_, sv::FrameType::kGoodbye, "");
  } catch (...) {
    // The daemon may already be gone; closing is all that is left to do.
  }
  ::close(fd_);
}

sv::Frame Client::request(sv::FrameType type, const std::string& payload) {
  sv::write_frame(fd_, type, payload);
  auto reply = sv::read_frame(fd_);
  if (!reply) throw sv::FramingError("daemon closed the connection");
  return std::move(*reply);
}

double stats_rtt(Client& client, std::size_t n) {
  std::vector<double> rtt;
  for (std::size_t i = 0; i < n; ++i) {
    const mera::obs::StopWatch w;
    const auto reply = client.request(sv::FrameType::kStatsReq, "");
    rtt.push_back(w.elapsed_s());
    if (reply.type != sv::FrameType::kStats)
      throw std::runtime_error("StatsReq answered with another frame type");
  }
  return median(rtt);
}

std::vector<std::string> payloads_of(const std::vector<SeqRecord>& reads,
                                     std::size_t batch_reads) {
  std::vector<std::string> out;
  for (std::size_t b = 0; b + batch_reads <= reads.size(); b += batch_reads)
    out.push_back(fastq_text(reads, b, b + batch_reads));
  return out;
}

namespace {

void add_summary(PassResult& p, const sv::BatchSummary& s) {
  p.stats += s.stats;
  p.report.append(s.report);
  add_hits(p.seed_cache, s.seed_cache);
  add_hits(p.target_cache, s.target_cache);
  p.lanes += s.lane_stats;
}

/// Per-call seconds of Backend::align_batch over `payloads` (each parsed
/// before its timer starts) into a SAM stream like the daemon's: the
/// in-process cost of a batch without framing, parsing or the gate. With
/// `acc`, the batches' counters and SAM output are summed into it.
std::vector<double> backend_replay(sv::Backend& backend,
                                   const mera::pgas::Topology& topo,
                                   const std::vector<std::string>& payloads,
                                   SpanLog& spans, PassResult* acc) {
  mera::pgas::Runtime rt(topo);
  std::ostringstream os;
  mc::SamStreamSink sam(os, backend.sam_targets(), rt.nranks());
  TimedSink sink(sam, spans);
  std::vector<double> secs;
  for (const auto& payload : payloads) {
    auto reads = mera::seq::parse_fastq(payload);
    const mera::obs::StopWatch w;
    const sv::BatchSummary s = [&] {
      LayerSpan span(spans, "serve.backend_align_batch");
      return backend.align_batch(rt, std::move(reads), sink);
    }();
    secs.push_back(w.elapsed_s());
    if (acc) {
      add_summary(*acc, s);
      acc->batch_s.push_back(secs.back());
      acc->sam_bytes += os.str().size();
    }
    os.str("");
  }
  if (acc) {
    acc->records += sam.records_written();
    acc->sink_s = sink.seconds();
  }
  return secs;
}

void report_serve(Report& rep, const std::map<std::string, sv::TenantStats>& stats,
                  double frame_rtt, double client_p50, double align_p50) {
  double gate = 0.0;
  std::uint64_t batches = 0, errors = 0, bytes = 0;
  for (const auto& [tenant, t] : stats) {
    gate += t.gate_wait_s;
    batches += t.batches;
    errors += t.errors;
    bytes += t.sam_bytes;
  }
  rep.set("serve.gate_wait_s", batches ? gate / static_cast<double>(batches) : 0.0,
          "s", batches);
  rep.set("serve.frame_rtt_s", frame_rtt, "s");
  rep.set("serve.overhead_s", client_p50 - align_p50, "s");
  rep.set("serve.errors", static_cast<double>(errors), "count");
  rep.set("serve.bytes_out", static_cast<double>(bytes), "bytes");
  rep.note("serve: %llu batches, mean gate wait %.6f s, client p50 %.6f s vs "
           "in-process %.6f s",
           static_cast<unsigned long long>(batches),
           batches ? gate / static_cast<double>(batches) : 0.0, client_p50,
           align_p50);
}

}  // namespace

void serve_probe(Report& rep, SpanLog& spans, const Options& opt,
                 sv::Backend daemon_backend, sv::Backend replay_backend,
                 const mera::pgas::Topology& topo,
                 const std::vector<std::string>& payloads) {
  sv::DaemonConfig dc;
  dc.socket_path = opt.workdir + "/probe.sock";
  sv::Daemon daemon(std::move(daemon_backend), topo, dc);
  daemon.start();
  std::vector<double> latency;
  double rtt = 0.0;
  {
    Client client(dc.socket_path, "probe");
    for (const auto& p : payloads) {
      LayerSpan span(spans, "serve.probe_batch");
      const mera::obs::StopWatch w;
      const auto reply = client.request(sv::FrameType::kBatch, p);
      latency.push_back(w.elapsed_s());
      ++rep.attempted;
      if (reply.type != sv::FrameType::kSam) rep.fail("probe batch: " + reply.payload);
    }
    rtt = stats_rtt(client, 20);
  }
  daemon.request_stop();
  daemon.wait();
  const auto align = backend_replay(replay_backend, topo, payloads, spans, nullptr);
  report_serve(rep, daemon.tenant_stats(), rtt, median(latency), median(align));
}

// ---- serve_mixed ----------------------------------------------------------------

namespace {

constexpr std::size_t kInteractiveTenants = 3;
constexpr std::size_t kInteractiveReads = 50;
constexpr std::size_t kInteractivePayloads = 200;  ///< per tenant
/// Every interactive batch queues behind at most one bulk batch in the FIFO
/// gate, so the bulk size sets interactive latency. 500 reads keeps 1000
/// interactive batches inside one run; 2000 held them to ~18 batches/s.
constexpr std::size_t kBulkReads = 500;
constexpr std::size_t kBulkPayloads = 80;
constexpr std::size_t kMinInteractive = 1000;

/// One closed-loop tenant: sends its payloads round-robin until told to stop.
/// Every reply must be a Sam frame, and a payload sent twice must get the
/// same records both times.
struct Tenant {
  std::string name;
  const std::vector<std::string>* payloads = nullptr;
  std::vector<double> latency;
  std::uint64_t reads = 0;
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;
  double last_reply_s = 0.0;
  std::string error;

  void run(const std::string& socket, const std::atomic<bool>& stop,
           std::atomic<std::uint64_t>& interactive_done, bool interactive,
           const mera::obs::StopWatch& window, std::size_t reads_per_batch) {
    try {
      Client client(socket, name);
      std::vector<std::uint64_t> digest(payloads->size(), 0);
      for (std::size_t i = 0; !stop.load(); ++i) {
        const std::size_t idx = i % payloads->size();
        const mera::obs::StopWatch w;
        const auto reply = client.request(sv::FrameType::kBatch, (*payloads)[idx]);
        latency.push_back(w.elapsed_s());
        last_reply_s = window.elapsed_s();
        if (reply.type != sv::FrameType::kSam) {
          ++errors;
          continue;
        }
        reads += reads_per_batch;
        if (interactive) interactive_done.fetch_add(1);
        const std::uint64_t d = multiset_digest(sam_body(reply.payload));
        if (digest[idx] == 0) digest[idx] = d;
        else if (digest[idx] != d) ++mismatches;
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
  }
};

struct Traffic {
  double wall_s = 0.0;
  std::uint64_t reads = 0;
  std::vector<double> interactive, bulk;
};

Traffic run_traffic(Report& rep, const Options& opt, const std::string& socket,
                    const std::vector<std::vector<std::string>>& interactive,
                    const std::vector<std::string>& bulk) {
  std::vector<Tenant> tenants(kInteractiveTenants + 1);
  for (std::size_t t = 0; t < kInteractiveTenants; ++t) {
    tenants[t].name = "interactive" + std::to_string(t);
    tenants[t].payloads = &interactive[t];
  }
  tenants.back().name = "bulk";
  tenants.back().payloads = &bulk;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> interactive_done{0};
  const mera::obs::StopWatch window;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const bool is_interactive = t < kInteractiveTenants;
    threads.emplace_back([&, t, is_interactive] {
      tenants[t].run(socket, stop, interactive_done, is_interactive, window,
                     is_interactive ? kInteractiveReads : kBulkReads);
    });
  }
  // Measure for the requested seconds, and longer if needed for p99 to have
  // at least ten samples beyond it (capped, so a stalled daemon still ends).
  const double cap = std::max(3.0 * opt.seconds, 60.0);
  while (window.elapsed_s() < cap &&
         (window.elapsed_s() < opt.seconds ||
          interactive_done.load() < kMinInteractive)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& th : threads) th.join();
  Traffic tr;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const Tenant& ten = tenants[t];
    if (!ten.error.empty()) rep.fail("tenant " + ten.name + ": " + ten.error);
    if (ten.mismatches)
      rep.fail("tenant " + ten.name + ": " + std::to_string(ten.mismatches) +
               " repeated batches got different records");
    for (std::uint64_t e = 0; e < ten.errors; ++e)
      rep.fail("tenant " + ten.name + ": Error frame");
    rep.attempted += ten.latency.size();
    tr.reads += ten.reads;
    tr.wall_s = std::max(tr.wall_s, ten.last_reply_s);
    auto& dst = t < kInteractiveTenants ? tr.interactive : tr.bulk;
    dst.insert(dst.end(), ten.latency.begin(), ten.latency.end());
  }
  rep.note("traffic: %.3f s, %llu reads, %zu interactive + %zu bulk batches",
           tr.wall_s, static_cast<unsigned long long>(tr.reads),
           tr.interactive.size(), tr.bulk.size());
  return tr;
}

/// SAM text without its @PG line (it differs between daemon and session).
std::string without_pg(const std::string& sam) {
  std::string out;
  std::istringstream in(sam);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("@PG", 0) != 0) out += line + '\n';
  return out;
}

}  // namespace

void run_serve_mixed(const Options& opt, Report& rep) {
  // Same reference as map_human; warm-up and traffic reads are disjoint
  // samples of the same genome, shuffled as independent clients send them.
  const Genome genome = make_genome(2'000'000, kHumanGenomeSeed);
  const std::string fasta = opt.workdir + "/ref.fa";
  mera::seq::write_fasta(fasta, genome.contigs);
  const auto warm_reads = make_reads(genome.seq, 1.0, opt.seed + 11, false);
  const auto warm_files = write_fastq_batches(opt.workdir, "warm", warm_reads, 4);
  const auto traffic_reads = make_reads(genome.seq, 3.6, opt.seed + 13, false);
  const std::size_t n_inter = kInteractiveTenants * kInteractivePayloads * kInteractiveReads;
  if (traffic_reads.size() < n_inter + kBulkPayloads * kBulkReads)
    throw std::runtime_error("serve_mixed: too few simulated reads");
  const std::vector<SeqRecord> inter_reads(traffic_reads.begin(),
                                           traffic_reads.begin() + n_inter);
  const std::vector<SeqRecord> bulk_reads(
      traffic_reads.begin() + n_inter,
      traffic_reads.begin() + n_inter + kBulkPayloads * kBulkReads);
  std::vector<std::vector<std::string>> interactive(kInteractiveTenants);
  const auto all_inter = payloads_of(inter_reads, kInteractiveReads);
  for (std::size_t i = 0; i < all_inter.size(); ++i)
    interactive[i % kInteractiveTenants].push_back(all_inter[i]);
  const auto bulk = payloads_of(bulk_reads, kBulkReads);
  rep.note("serve_mixed: %zu contigs, %zu warm-up reads, %zu interactive "
           "payloads x %zu reads, %zu bulk payloads x %zu reads",
           genome.contigs.size(), warm_reads.size(), all_inter.size(),
           kInteractiveReads, bulk.size(), kBulkReads);

  const mera::pgas::Topology topo(4, 2);
  mera::pgas::Runtime rt(topo);
  const mc::IndexConfig icfg;
  const mc::SessionConfig scfg;
  SpanLog spans;
  // ---- setup: build, (untimed) warm-up + save, load, listen ----
  std::vector<double> build, load;
  std::optional<mc::IndexedReference> ref;
  for (int i = 0; i < 5; ++i) {
    const mera::obs::StopWatch w;
    ref.emplace(mc::IndexedReference::build_from_fasta(rt, fasta, icfg));
    build.push_back(w.elapsed_s());
  }
  const std::string cache_dir = opt.workdir + "/cache";
  std::filesystem::create_directories(cache_dir);
  PassResult warm;
  {
    mc::AlignSession session(*ref, scfg);
    warm = stream_pass(session, rt, warm_files, opt.workdir + "/warm.sam",
                       mc::sam_targets(ref->targets()), nullptr);
    session.save_caches(rt, cache_dir + "/session.mcache");
  }
  std::optional<sv::Backend> backend;
  for (int i = 0; i < 5; ++i) {
    const mera::obs::StopWatch w;
    backend.emplace(*ref, scfg);
    {
      LayerSpan span(spans, "cache.load_caches");
      backend->load_caches(rt, cache_dir);
    }
    load.push_back(w.elapsed_s());
  }
  sv::DaemonConfig dc;
  dc.socket_path = opt.workdir + "/daemon.sock";
  const mera::obs::StopWatch listen_watch;
  sv::Daemon daemon(std::move(*backend), topo, dc);
  daemon.start();
  const double listen_s = listen_watch.elapsed_s();
  rep.set("setup_s", median(build) + median(load) + listen_s, "s", build.size());
  rep.set("dht.build_s", median(build), "s", build.size());
  rep.set("dht.index_entries", static_cast<double>(ref->index_entries()), "count");
  rep.set("cache.snapshot_load_s", median(spans.samples("cache.load_caches")), "s",
          load.size());

  // ---- closed-loop traffic (untraced) ----
  const Traffic tr = run_traffic(rep, opt, dc.socket_path, interactive, bulk);
  rep.set("peak_rss_mb", peak_rss_mb(), "MB");
  rep.set("reads_per_s", static_cast<double>(tr.reads) / tr.wall_s, "reads/s",
          tr.interactive.size() + tr.bulk.size());
  rep.set("batch_latency_p50_s", median(tr.interactive), "s", tr.interactive.size());
  rep.set("batch_latency_p99_s", percentile(tr.interactive, 99), "s",
          tr.interactive.size());
  rep.set("bulk_latency_p50_s", median(tr.bulk), "s", tr.bulk.size());

  // ---- correctness gate: a check tenant vs an in-process session ----
  std::vector<std::string> check(interactive[0].begin(), interactive[0].begin() + 20);
  check.insert(check.end(), bulk.begin(), bulk.begin() + 4);
  std::string daemon_sam;
  double frame_rtt = 0.0;
  {
    Client client(dc.socket_path, "check");
    for (const auto& p : check) {
      const auto reply = client.request(sv::FrameType::kBatch, p);
      ++rep.attempted;
      if (reply.type != sv::FrameType::kSam) rep.fail("check batch: " + reply.payload);
      daemon_sam += reply.payload;
    }
    LayerSpan span(spans, "serve.stats_rtt");
    frame_rtt = stats_rtt(client, 20);
  }
  std::vector<SeqRecord> check_reads;
  std::string session_sam;
  {
    std::ostringstream os;
    mc::SessionConfig oc = scfg;
    oc.extension.kernel = mera::align::SwKernel::kFullDP;
    mc::AlignSession oracle(*ref, oc);
    mc::SamStreamSink sink(os, mc::sam_targets(ref->targets()), rt.nranks());
    for (const auto& p : check) {
      auto batch = mera::seq::parse_fastq(p);
      check_reads.insert(check_reads.end(), batch.begin(), batch.end());
      oracle.align_batch(rt, std::move(batch), sink);
    }
    session_sam = os.str();
  }
  {
    auto got_lines = sam_body(daemon_sam);
    std::vector<std::string> got(got_lines.begin(), got_lines.end());
    if (opt.corrupt_record) corrupt_one(got);
    const auto want_lines = sam_body(session_sam);
    const std::vector<std::string> want(want_lines.begin(), want_lines.end());
    // Records in order, then the whole byte stream including the header: the
    // daemon promises exactly what a one-shot run would write.
    gate_equal(rep, "check tenant vs in-process full-DP session", got, want);
    if (!opt.corrupt_record && without_pg(daemon_sam) != without_pg(session_sam))
      rep.fail("check tenant SAM bytes differ from the in-process session");
    gate_accuracy(rep, opt, genome, genome.contigs, check_reads,
                  parse_sam_records(want_lines, target_id_map(genome.contigs)),
                  icfg.k);
  }
  if (!opt.trace) {
    daemon.request_stop();
    daemon.wait();
    return;
  }

  // ---- traced traffic + layer replays ----
  mera::obs::Tracer::global().enable();
  const Traffic traced = run_traffic(rep, opt, dc.socket_path, interactive, bulk);
  rep.set("obs.trace_overhead_fraction",
          (static_cast<double>(tr.reads) / tr.wall_s) /
                  (static_cast<double>(traced.reads) / traced.wall_s) -
              1.0,
          "ratio");
  daemon.request_stop();
  daemon.wait();
  rep.set("core.prefetch_stall_s", warm.stall_s, "s");
  rep.set("core.load_wall_s", warm.load_wall_s, "s");
  // Backend::align_batch on serve_mixed's own batches, warm like the daemon.
  sv::Backend replay(*ref, scfg);
  replay.load_caches(rt, cache_dir);
  std::vector<std::string> replay_payloads(interactive[0].begin(),
                                           interactive[0].begin() + 100);
  PassResult pr;
  const auto align = backend_replay(replay, topo, replay_payloads, spans, &pr);
  pr.stall_s = warm.stall_s;  // serve has no file stream; its warm-up does
  pr.load_wall_s = warm.load_wall_s;
  report_pass_layers(rep, pr);
  report_serve(rep, daemon.tenant_stats(), frame_rtt, median(traced.interactive),
               median(align));
  replay_fastq_payloads(rep, spans, replay_payloads);
  const auto sample = sample_reads(inter_reads, 2000);
  LookupReplay acc;
  replay_lookups(acc, spans, topo, ref->index(), sample, scfg.max_hits_per_seed);
  report_lookups(rep, acc);
  replay_sw(rep, spans,
            sw_pairs(parse_sam_records(sam_body(session_sam),
                                       target_id_map(genome.contigs)),
                     check_reads, genome.contigs, 3000));
  replay_launch(rep, spans, topo);
  replay_shard_k1(rep, spans, rt, genome.contigs, icfg, scfg, check_reads);
  mera::obs::Tracer::global().disable();
  write_observability(rep, opt);
}

}  // namespace perfbench
