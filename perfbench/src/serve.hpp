// Client side of the daemon protocol, plus the serve-layer probe traced runs
// use on the workloads that do not serve.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "serve/backend.hpp"
#include "serve/framing.hpp"

namespace perfbench {

/// One tenant connection (Hello on open, Goodbye on close).
class Client {
 public:
  Client(const std::string& socket_path, const std::string& tenant);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  /// Send one request frame and return the reply frame.
  mera::serve::Frame request(mera::serve::FrameType type,
                             const std::string& payload);

 private:
  int fd_ = -1;
};

/// Median real seconds of `n` StatsReq round trips.
[[nodiscard]] double stats_rtt(Client& client, std::size_t n);

/// Traced runs of the non-serving workloads: one tenant sends `payloads`
/// through a daemon over `daemon_backend`; `replay_backend` times the same
/// batches in-process. Reports every serve.* metric.
void serve_probe(Report& rep, SpanLog& spans, const Options& opt,
                 mera::serve::Backend daemon_backend,
                 mera::serve::Backend replay_backend,
                 const mera::pgas::Topology& topo,
                 const std::vector<std::string>& payloads);

/// 50-read FASTQ payloads cut from `reads`.
[[nodiscard]] std::vector<std::string> payloads_of(
    const std::vector<SeqRecord>& reads, std::size_t batch_reads);

}  // namespace perfbench
