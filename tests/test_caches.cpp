#include <gtest/gtest.h>

#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cache/seed_cache.hpp"
#include "cache/target_cache.hpp"

namespace {

using namespace mera::cache;
using mera::dht::SeedHit;
using mera::pgas::Topology;
using mera::seq::Kmer;

Kmer kmer_of(const std::string& s) { return *Kmer::from_ascii(s); }

TEST(CacheCounters, AddThenSubtractRestoresEveryField) {
  // Distinct values per field, so a field summed into the wrong slot (or
  // skipped by one operator but not the other) cannot cancel out.
  const CacheCounters a{1, 20, 300, 4000, 50000};
  const CacheCounters b{7, 11, 13, 17, 19};
  CacheCounters sum = a;
  sum += b;
  EXPECT_EQ(sum, (CacheCounters{8, 31, 313, 4017, 50019}));
  EXPECT_EQ(sum - b, a);
  EXPECT_EQ(sum - a, b);
}

TEST(SeedIndexCache, MissThenHit) {
  SeedIndexCache cache(Topology(8, 4), {16});
  std::vector<SeedHit> out;
  std::size_t total = 0;
  const Kmer m = kmer_of("ACGTACGTACG");
  EXPECT_FALSE(cache.lookup(0, m, 10, out, total));
  cache.insert(0, m, {{1, 1, 5}, {2, 2, 9}}, 2);
  ASSERT_TRUE(cache.lookup(0, m, 10, out, total));
  EXPECT_EQ(total, 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].t_pos, 5u);
  const auto c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
}

TEST(SeedIndexCache, NodesAreIndependent) {
  SeedIndexCache cache(Topology(8, 4), {16});
  const Kmer m = kmer_of("TTTTTTT");
  cache.insert(0, m, {{1, 1, 0}}, 1);
  std::vector<SeedHit> out;
  std::size_t total = 0;
  EXPECT_TRUE(cache.lookup(0, m, 5, out, total));
  EXPECT_FALSE(cache.lookup(1, m, 5, out, total));  // other node: cold
}

TEST(SeedIndexCache, MaxHitsLimitsCopiedResults) {
  SeedIndexCache cache(Topology(2, 2), {16});
  const Kmer m = kmer_of("ACACACA");
  cache.insert(0, m, {{1, 1, 0}, {2, 2, 0}, {3, 3, 0}}, 7);
  std::vector<SeedHit> out;
  std::size_t total = 0;
  ASSERT_TRUE(cache.lookup(0, m, 2, out, total));
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(total, 7u);  // the seed's true frequency survives truncation
}

TEST(SeedIndexCache, EvictsWhenFull) {
  SeedIndexCache cache(Topology(2, 2), {4});
  std::vector<SeedHit> out;
  std::size_t total = 0;
  for (int i = 0; i < 8; ++i) {
    std::string s = "AAAAAAA";
    s[0] = "ACGT"[i % 4];
    s[1] = "ACGT"[i / 4];
    cache.insert(0, kmer_of(s), {{static_cast<std::uint32_t>(i), 0, 0}}, 1);
  }
  const auto c = cache.counters();
  EXPECT_EQ(c.insertions, 8u);
  EXPECT_EQ(c.evictions, 4u);
  // Exactly 4 of the 8 remain.
  int present = 0;
  for (int i = 0; i < 8; ++i) {
    std::string s = "AAAAAAA";
    s[0] = "ACGT"[i % 4];
    s[1] = "ACGT"[i / 4];
    out.clear();
    if (cache.lookup(0, kmer_of(s), 4, out, total)) ++present;
  }
  EXPECT_EQ(present, 4);
}

TEST(SeedIndexCache, DuplicateInsertIsIgnored) {
  SeedIndexCache cache(Topology(2, 2), {8});
  const Kmer m = kmer_of("GGGGGGG");
  cache.insert(0, m, {{1, 1, 0}}, 1);
  cache.insert(0, m, {{9, 9, 9}}, 9);  // should not overwrite
  std::vector<SeedHit> out;
  std::size_t total = 0;
  ASSERT_TRUE(cache.lookup(0, m, 4, out, total));
  EXPECT_EQ(total, 1u);
  EXPECT_EQ(out[0].fragment_id, 1u);
}

TEST(SeedIndexCache, ZeroCapacityNeverStores) {
  SeedIndexCache cache(Topology(2, 2), {0});
  const Kmer m = kmer_of("CCCCCCC");
  cache.insert(0, m, {{1, 1, 0}}, 1);
  std::vector<SeedHit> out;
  std::size_t total = 0;
  EXPECT_FALSE(cache.lookup(0, m, 4, out, total));
}

TEST(SeedIndexCache, ConcurrentMixedAccessIsSafe) {
  SeedIndexCache cache(Topology(8, 4), {1024});
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t));
      std::vector<SeedHit> out;
      std::size_t total = 0;
      for (int i = 0; i < 2000; ++i) {
        std::string s(9, 'A');
        for (auto& c : s) c = "ACGT"[rng() & 3u];
        const Kmer m = kmer_of(s);
        const int node = t / 4;
        if (rng() & 1u) {
          cache.insert(node, m, {{0, 0, 0}}, 1);
        } else {
          out.clear();
          cache.lookup(node, m, 4, out, total);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto c = cache.counters();
  EXPECT_GT(c.insertions, 0u);
  EXPECT_EQ(c.hits + c.misses, c.hits + c.misses);  // no crash/tsan issues
}

TEST(TargetCache, MissInsertHit) {
  TargetCache cache(Topology(4, 2), {1 << 20});
  EXPECT_FALSE(cache.contains(0, 42));
  cache.insert(0, 42, 1000);
  EXPECT_TRUE(cache.contains(0, 42));
  EXPECT_FALSE(cache.contains(1, 42));  // per-node
}

TEST(TargetCache, EvictsLeastRecentlyUsedByBytes) {
  TargetCache cache(Topology(2, 2), {3000});
  cache.insert(0, 1, 1000);
  cache.insert(0, 2, 1000);
  cache.insert(0, 3, 1000);
  EXPECT_TRUE(cache.contains(0, 1));  // touch 1 -> MRU
  cache.insert(0, 4, 1000);           // evicts LRU = 2
  EXPECT_FALSE(cache.contains(0, 2));
  EXPECT_TRUE(cache.contains(0, 1));
  EXPECT_TRUE(cache.contains(0, 3));
  EXPECT_TRUE(cache.contains(0, 4));
}

TEST(TargetCache, ObjectLargerThanCapacityIsNotCached) {
  TargetCache cache(Topology(2, 2), {100});
  cache.insert(0, 7, 500);
  EXPECT_FALSE(cache.contains(0, 7));
}

TEST(TargetCache, MultiEvictionToFitLargeEntry) {
  TargetCache cache(Topology(2, 2), {1000});
  cache.insert(0, 1, 400);
  cache.insert(0, 2, 400);
  cache.insert(0, 3, 900);  // must evict both
  EXPECT_FALSE(cache.contains(0, 1));
  EXPECT_FALSE(cache.contains(0, 2));
  EXPECT_TRUE(cache.contains(0, 3));
  EXPECT_EQ(cache.counters().evictions, 2u);
}

TEST(TargetCache, DuplicateInsertKeepsOneCopy) {
  TargetCache cache(Topology(2, 2), {1000});
  cache.insert(0, 5, 300);
  cache.insert(0, 5, 300);
  cache.insert(0, 6, 700);  // fits only if id 5 counted once
  EXPECT_TRUE(cache.contains(0, 5));
  EXPECT_TRUE(cache.contains(0, 6));
}

// ---------------------------------------------------------------------------
// Eviction-aware admission (multi-tenant streams; persisted hit counters)
// ---------------------------------------------------------------------------

TEST(SeedIndexCache, AdmissionProtectsWarmEntriesFromColdFloods) {
  SeedIndexCache cache(Topology(2, 2),
                       {.capacity_per_node = 4, .eviction_aware_admission = true});
  std::vector<SeedHit> out;
  std::size_t total = 0;
  for (int i = 0; i < 4; ++i) {
    std::string s = "AAAAAAA";
    s[0] = "ACGT"[i];
    cache.insert(0, kmer_of(s), {{static_cast<std::uint32_t>(i), 0, 0}}, 1);
  }
  // One proven-hot entry; the other three stay hitless.
  const Kmer hot = kmer_of("GAAAAAA");
  for (int rep = 0; rep < 100; ++rep) {
    out.clear();
    ASSERT_TRUE(cache.lookup(0, hot, 4, out, total));
  }
  // A cold multi-tenant flood cycles through the hitless slots...
  for (int i = 0; i < 16; ++i) {
    std::string s = "CCCCCCC";
    s[0] = "ACGT"[i % 4];
    s[1] = "ACGT"[i / 4];
    cache.insert(0, kmer_of(s), {{0, 0, 0}}, 1);
  }
  // ...but the warm working set survives it.
  out.clear();
  EXPECT_TRUE(cache.lookup(0, hot, 4, out, total));
  EXPECT_GT(cache.counters().evictions, 0u);  // cold entries did cycle
}

TEST(SeedIndexCache, AdmissionRejectsWhenEverythingIsWarmer) {
  SeedIndexCache cache(Topology(2, 2),
                       {.capacity_per_node = 2, .eviction_aware_admission = true});
  std::vector<SeedHit> out;
  std::size_t total = 0;
  cache.insert(0, kmer_of("AAAAAAA"), {{1, 0, 0}}, 1);
  cache.insert(0, kmer_of("CAAAAAA"), {{2, 0, 0}}, 1);
  for (int rep = 0; rep < 64; ++rep) {
    out.clear();
    cache.lookup(0, kmer_of("AAAAAAA"), 4, out, total);
    out.clear();
    cache.lookup(0, kmer_of("CAAAAAA"), 4, out, total);
  }
  cache.insert(0, kmer_of("GAAAAAA"), {{3, 0, 0}}, 1);  // colder than both
  out.clear();
  EXPECT_FALSE(cache.lookup(0, kmer_of("GAAAAAA"), 4, out, total));
  EXPECT_EQ(cache.counters().admission_rejects, 1u);
  EXPECT_EQ(cache.counters().evictions, 0u);
  EXPECT_TRUE(cache.lookup(0, kmer_of("AAAAAAA"), 4, out, total));

  // The probe decays hit counts, so a persistent newcomer is admitted
  // eventually — warm entries are protected, not immortal.
  for (int i = 0; i < 16; ++i) {
    std::string s = "GGGGGGG";
    s[1] = "ACGT"[i % 4];
    s[2] = "ACGT"[i / 4];
    cache.insert(0, kmer_of(s), {{4, 0, 0}}, 1);
  }
  EXPECT_GT(cache.counters().evictions, 0u);
}

TEST(TargetCache, AdmissionGivesWarmTailEntriesASecondChance) {
  TargetCache cache(Topology(2, 2), {.capacity_bytes_per_node = 1000,
                                     .eviction_aware_admission = true});
  cache.insert(0, 1, 500);
  cache.insert(0, 2, 500);
  for (int rep = 0; rep < 3; ++rep) EXPECT_TRUE(cache.contains(0, 1));
  // Tail is the hitless id 2; it is sacrificed, the warm id 1 survives.
  cache.insert(0, 3, 500);
  EXPECT_TRUE(cache.contains(0, 1));
  EXPECT_FALSE(cache.contains(0, 2));
  EXPECT_TRUE(cache.contains(0, 3));
}

TEST(TargetCache, AdmissionRejectsWhenEverythingIsWarmer) {
  TargetCache cache(Topology(2, 2), {.capacity_bytes_per_node = 1000,
                                     .eviction_aware_admission = true});
  cache.insert(0, 1, 500);
  cache.insert(0, 2, 500);
  for (int rep = 0; rep < 200; ++rep) {
    cache.contains(0, 1);
    cache.contains(0, 2);
  }
  cache.insert(0, 3, 500);  // both residents are far warmer: refused
  EXPECT_FALSE(cache.contains(0, 3));
  EXPECT_TRUE(cache.contains(0, 1));
  EXPECT_TRUE(cache.contains(0, 2));
  EXPECT_EQ(cache.counters().admission_rejects, 1u);
}

TEST(TargetCache, ConcurrentAccessIsSafe) {
  TargetCache cache(Topology(8, 4), {1 << 16});
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) + 100);
      for (int i = 0; i < 3000; ++i) {
        const auto gid = static_cast<std::uint32_t>(rng() % 256);
        const int node = t / 4;
        if (cache.contains(node, gid)) continue;
        cache.insert(node, gid, 64 + rng() % 512);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(cache.counters().insertions, 0u);
}

}  // namespace
