// Seed extension: turn a located seed (query offset / target offset) into a
// full local alignment (Section II-D).
//
// The seed fixes the alignment's diagonal, so only a small target window
// around the implied query placement needs to be examined: the window is the
// query's projected span padded by `window_pad` bases on each side. Within
// the window the full-DP (or banded) kernel produces score + CIGAR; the batch
// SIMD engine screens pooled candidates before that (core::AlignSession).
#pragma once

#include <cstdint>
#include <span>

#include "align/banded_sw.hpp"
#include "align/batch_sw.hpp"
#include "align/smith_waterman.hpp"
#include "seq/packed_seq.hpp"

namespace mera::align {

/// Which Smith-Waterman engine extends a candidate. Selectable per
/// ExtensionConfig (and therefore per aligning batch) without rebuilding
/// anything.
enum class SwKernel : std::uint8_t {
  /// Exact full-window DP with affine-gap traceback (sw_engine) — the
  /// scalar oracle every other engine is checked against.
  kFullDP = 0,
  /// Banded DP around the seed diagonal (band = max(window_pad, 8)).
  kBanded,
  /// Inter-candidate batch SIMD score pass (batch_sw) as a pre-screen:
  /// candidates are pooled across reads, packed one-per-lane and screened on
  /// the widest available ISA (see ExtensionConfig::isa). The screen score is
  /// exact, so it rejects precisely what full DP would reject; survivors get
  /// the full-DP traceback, so records equal kFullDP's.
  kBatch,
};

struct ExtensionConfig {
  Scoring scoring{};
  /// Extra target bases examined on each side of the query's projected span
  /// (allows for indels near the read ends).
  std::size_t window_pad = 16;
  /// In-window alignment kernel.
  SwKernel kernel = SwKernel::kFullDP;
  /// Dispatch tier for SwKernel::kBatch (kAuto = MERA_SW_ISA env override or
  /// the widest the CPU supports). Ignored by the other kernels.
  SwIsa isa = SwIsa::kAuto;
};

struct Extension {
  LocalAlignment aln;        ///< coordinates within query / full target
  std::size_t window_begin = 0;  ///< target window used (diagnostics)
  std::size_t window_end = 0;
};

/// Target window implied by a seed: the query's projected span on the seed
/// diagonal, padded by window_pad and clipped to the target. begin >= end
/// means no window (query projects entirely off the target).
struct SeedWindow {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Compute the seed's target window — the same projection extend_seed
/// performs internally, exposed so deferred-extension callers
/// (core::AlignSession's kBatch path) can cut the window and account
/// sw_cells without extending yet.
[[nodiscard]] SeedWindow project_seed_window(std::size_t query_len,
                                             const seq::PackedSeq& target,
                                             std::size_t q_off,
                                             std::size_t t_off,
                                             std::size_t window_pad) noexcept;

/// Stable lowercase kernel tag for reports and metric labels.
[[nodiscard]] constexpr const char* kernel_name(SwKernel k) noexcept {
  switch (k) {
    case SwKernel::kFullDP: return "full_dp";
    case SwKernel::kBanded: return "banded";
    case SwKernel::kBatch: return "batch";
  }
  return "unknown";
}

/// Extend a seed match: query[q_off..q_off+k) == target[t_off..t_off+k).
/// Returns an alignment whose t_begin/t_end are in full-target coordinates.
/// Always exact: the banded kernel when cfg.kernel is kBanded, full DP
/// otherwise (kBatch's screen runs before this, in PooledExtensionQueue).
[[nodiscard]] Extension extend_seed(std::span<const std::uint8_t> query,
                                    const seq::PackedSeq& target,
                                    std::size_t q_off, std::size_t t_off,
                                    int k, const ExtensionConfig& cfg = {});

}  // namespace mera::align
