#include "cache/seed_cache.hpp"

#include <algorithm>
#include <numeric>

#include "cache/cache_snapshot.hpp"

namespace mera::cache {

namespace {

/// Clock probes per admission attempt: bounds insert() cost while still
/// decaying hot entries fast enough that nothing is protected forever.
constexpr std::size_t kAdmissionProbes = 8;

}  // namespace

SeedIndexCache::SeedIndexCache(const pgas::Topology& topo, Options opt)
    : capacity_(opt.capacity_per_node),
      admission_(opt.eviction_aware_admission),
      shards_(static_cast<std::size_t>(topo.nnodes())) {}

bool SeedIndexCache::lookup(int node, const seq::Kmer& seed,
                            std::size_t max_hits,
                            std::vector<dht::SeedHit>& out,
                            std::size_t& total) {
  Shard& sh = shards_[static_cast<std::size_t>(node)];
  const std::scoped_lock lk(sh.mu);
  const auto it = sh.map.find(seed);
  if (it == sh.map.end()) {
    ++sh.counters.misses;
    return false;
  }
  ++sh.counters.hits;
  ++it->second.use_count;
  total = it->second.total;
  const std::size_t n = std::min(max_hits, it->second.hits.size());
  out.insert(out.end(), it->second.hits.begin(),
             it->second.hits.begin() + static_cast<std::ptrdiff_t>(n));
  return true;
}

void SeedIndexCache::insert(int node, const seq::Kmer& seed,
                            const std::vector<dht::SeedHit>& hits,
                            std::size_t total) {
  if (capacity_ == 0) return;
  Shard& sh = shards_[static_cast<std::size_t>(node)];
  const std::scoped_lock lk(sh.mu);
  if (sh.map.contains(seed)) return;
  if (sh.map.size() >= capacity_) {
    if (admission_) {
      // Eviction-aware admission: the newcomer has no recorded hits, so it
      // may only displace an entry that is just as cold. Probe a few slots
      // under the clock hand, halving each survivor's hit count; if every
      // probed entry is still warmer, refuse the insert.
      bool evicted = false;
      const std::size_t probes = std::min(kAdmissionProbes, sh.ring.size());
      for (std::size_t p = 0; p < probes; ++p) {
        const seq::Kmer cand = sh.ring[sh.cursor];
        const auto it = sh.map.find(cand);
        if (it->second.use_count == 0) {
          sh.map.erase(it);
          sh.ring[sh.cursor] = seed;
          sh.cursor = (sh.cursor + 1) % sh.ring.size();
          ++sh.counters.evictions;
          evicted = true;
          break;
        }
        it->second.use_count /= 2;
        sh.cursor = (sh.cursor + 1) % sh.ring.size();
      }
      if (!evicted) {
        ++sh.counters.admission_rejects;
        return;
      }
    } else {
      // Clock eviction: overwrite the slot under the cursor.
      const seq::Kmer victim = sh.ring[sh.cursor];
      sh.map.erase(victim);
      sh.ring[sh.cursor] = seed;
      sh.cursor = (sh.cursor + 1) % sh.ring.size();
      ++sh.counters.evictions;
    }
  } else {
    sh.ring.push_back(seed);
  }
  sh.map.emplace(seed, Value{hits, static_cast<std::uint32_t>(total), 0});
  ++sh.counters.insertions;
}

CacheCounters SeedIndexCache::counters() const {
  CacheCounters c;
  for (const auto& sh : shards_) {
    const std::scoped_lock lk(sh.mu);
    c += sh.counters;
  }
  return c;
}

std::size_t SeedIndexCache::entries() const {
  std::size_t n = 0;
  for (const auto& sh : shards_) {
    const std::scoped_lock lk(sh.mu);
    n += sh.map.size();
  }
  return n;
}

// --- snapshot serialization --------------------------------------------------
//
// Per-shard layout (ring order preserves the clock's eviction schedule):
//   nnodes u64
//   per node: counters 5 x u64 | cursor u64 | nentries u64
//     per entry: k u32 | kmer 2 x u64 | use_count u32 | total u32 | nhits u32
//                | nhits x (3 x u32)

void SeedIndexCache::save(std::ostream& os) const {
  using snapio::put;
  put<std::uint64_t>(os, shards_.size());
  for (const auto& sh : shards_) {
    const std::scoped_lock lk(sh.mu);
    snapio::put_counters(os, sh.counters);
    put<std::uint64_t>(os, sh.cursor);
    put<std::uint64_t>(os, sh.ring.size());
    for (const seq::Kmer& seed : sh.ring) {
      const Value& v = sh.map.at(seed);
      put<std::uint32_t>(os, static_cast<std::uint32_t>(seed.k()));
      put<std::uint64_t>(os, seed.words()[0]);
      put<std::uint64_t>(os, seed.words()[1]);
      put<std::uint32_t>(os, v.use_count);
      put<std::uint32_t>(os, v.total);
      put<std::uint32_t>(os, static_cast<std::uint32_t>(v.hits.size()));
      for (const dht::SeedHit& h : v.hits) {
        put<std::uint32_t>(os, h.fragment_id);
        put<std::uint32_t>(os, h.target_id);
        put<std::uint32_t>(os, h.t_pos);
      }
    }
  }
}

void SeedIndexCache::load(std::istream& is) {
  using snapio::get;
  const auto nnodes = get<std::uint64_t>(is);
  if (nnodes != shards_.size())
    throw CacheSnapshotError(
        "cache snapshot: seed section has " + std::to_string(nnodes) +
        " node shards, this topology has " + std::to_string(shards_.size()));
  for (auto& sh : shards_) {
    const CacheCounters counters = snapio::get_counters(is);
    const auto cursor = get<std::uint64_t>(is);
    const auto nentries = get<std::uint64_t>(is);
    if (nentries == 0 ? cursor != 0 : cursor >= nentries)
      throw CacheSnapshotError("cache snapshot: seed ring cursor out of range");

    struct Loaded {
      seq::Kmer seed;
      Value value;
    };
    // File order is ring-slot order; with the saved cursor it encodes the
    // clock's age sequence (oldest entry sits at the cursor).
    std::vector<Loaded> slots(static_cast<std::size_t>(nentries));
    for (std::uint64_t e = 0; e < nentries; ++e) {
      const auto k = get<std::uint32_t>(is);
      std::array<std::uint64_t, 2> w;
      w[0] = get<std::uint64_t>(is);
      w[1] = get<std::uint64_t>(is);
      const auto seed = seq::Kmer::from_words(static_cast<int>(k), w);
      if (!seed)
        throw CacheSnapshotError("cache snapshot: invalid seed encoding");
      Loaded& entry = slots[static_cast<std::size_t>(e)];
      entry.seed = *seed;
      entry.value.use_count = get<std::uint32_t>(is);
      entry.value.total = get<std::uint32_t>(is);
      const auto nhits = get<std::uint32_t>(is);
      entry.value.hits.reserve(nhits);
      for (std::uint32_t h = 0; h < nhits; ++h) {
        dht::SeedHit hit;
        hit.fragment_id = get<std::uint32_t>(is);
        hit.target_id = get<std::uint32_t>(is);
        hit.t_pos = get<std::uint32_t>(is);
        entry.value.hits.push_back(hit);
      }
    }

    std::uint64_t dropped = 0;
    std::size_t new_cursor = static_cast<std::size_t>(cursor);
    if (slots.size() > capacity_) {
      // The snapshot was taken by a bigger cache: admit the warmest entries
      // (persisted hit count, age breaking ties toward the younger entry) —
      // the eviction-aware admission policy applied wholesale at load time.
      // Survivors are laid out oldest-first with the cursor at 0, which
      // reproduces the saved clock schedule over the surviving entries.
      const auto age_of = [&](std::size_t slot) {
        return (slot + slots.size() - static_cast<std::size_t>(cursor)) %
               slots.size();  // 0 = oldest
      };
      std::vector<std::size_t> order(slots.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (slots[a].value.use_count != slots[b].value.use_count)
          return slots[a].value.use_count > slots[b].value.use_count;
        return age_of(a) > age_of(b);  // warm tie: most recently inserted
      });
      order.resize(capacity_);
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  return age_of(a) < age_of(b);
                });
      std::vector<Loaded> kept;
      kept.reserve(order.size());
      for (const std::size_t i : order) kept.push_back(std::move(slots[i]));
      dropped = slots.size() - kept.size();
      slots = std::move(kept);
      new_cursor = 0;
    }

    // Stage outside the lock, then swap in: a shard is either fully
    // replaced or (on a malformed snapshot) left exactly as it was.
    std::vector<seq::Kmer> ring;
    std::unordered_map<seq::Kmer, Value, KmerHasher> map;
    ring.reserve(slots.size());
    map.reserve(slots.size());
    for (Loaded& entry : slots) {
      ring.push_back(entry.seed);
      if (!map.emplace(entry.seed, std::move(entry.value)).second)
        throw CacheSnapshotError("cache snapshot: duplicate seed entry");
    }

    const std::scoped_lock lk(sh.mu);
    sh.map = std::move(map);
    sh.ring = std::move(ring);
    sh.cursor = new_cursor;
    sh.counters = counters;
    sh.counters.admission_rejects += dropped;
  }
}

}  // namespace mera::cache
