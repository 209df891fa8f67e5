#include "cache/segment_cache.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace evostore::cache {
namespace {

using common::SegmentKey;
using compress::CompressedSegment;

SegmentKey key_of(uint64_t owner, uint32_t vertex) {
  SegmentKey k;
  k.owner.value = owner;
  k.vertex = vertex;
  return k;
}

CompressedSegment env_of(uint64_t bytes) {
  CompressedSegment env;
  env.logical_bytes = bytes;
  env.physical_bytes = bytes;
  return env;
}

TEST(SegmentCache, InsertLookupAndByteAccounting) {
  SegmentCache cache(CacheConfig{.capacity_bytes = 1000});
  cache.insert(key_of(1, 0), env_of(100), /*version=*/7, /*now=*/0.0);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.charged_bytes(), 100u);
  const auto* e = cache.lookup(key_of(1, 0));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->version, 7u);
  EXPECT_EQ(e->envelope.physical_bytes, 100u);
  EXPECT_EQ(cache.lookup(key_of(1, 1)), nullptr);
}

TEST(SegmentCache, ClockEvictionGivesSecondChance) {
  SegmentCache cache(CacheConfig{.capacity_bytes = 300});
  cache.insert(key_of(1, 0), env_of(100), 1, 0.0);  // a
  cache.insert(key_of(1, 1), env_of(100), 1, 0.0);  // b
  cache.insert(key_of(1, 2), env_of(100), 1, 0.0);  // c
  // Touch a: its reference bit spares it one sweep; the hand clears the bit
  // and evicts the first cold entry behind it (b).
  ASSERT_NE(cache.lookup(key_of(1, 0)), nullptr);
  cache.insert(key_of(1, 3), env_of(100), 1, 0.0);  // d
  EXPECT_NE(cache.lookup(key_of(1, 0)), nullptr);
  EXPECT_EQ(cache.lookup(key_of(1, 1)), nullptr);
  EXPECT_NE(cache.lookup(key_of(1, 2)), nullptr);
  EXPECT_NE(cache.lookup(key_of(1, 3)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.charged_bytes(), 300u);
}

TEST(SegmentCache, EvictionSweepsInRingOrder) {
  SegmentCache cache(CacheConfig{.capacity_bytes = 300});
  cache.insert(key_of(1, 0), env_of(100), 1, 0.0);  // a
  cache.insert(key_of(1, 1), env_of(100), 1, 0.0);  // b
  cache.insert(key_of(1, 2), env_of(100), 1, 0.0);  // c
  ASSERT_NE(cache.lookup(key_of(1, 0)), nullptr);
  cache.insert(key_of(1, 3), env_of(100), 1, 0.0);  // evicts b; hand at c
  ASSERT_NE(cache.lookup(key_of(1, 2)), nullptr);   // c referenced
  cache.insert(key_of(1, 4), env_of(100), 1, 0.0);  // c spared -> d evicted
  EXPECT_NE(cache.lookup(key_of(1, 2)), nullptr);
  EXPECT_EQ(cache.lookup(key_of(1, 3)), nullptr);
  EXPECT_NE(cache.lookup(key_of(1, 4)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(SegmentCache, OversizedEnvelopeIsNotCached) {
  SegmentCache cache(CacheConfig{.capacity_bytes = 100});
  cache.insert(key_of(1, 0), env_of(50), 1, 0.0);
  cache.insert(key_of(1, 1), env_of(101), 1, 0.0);  // larger than the budget
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.lookup(key_of(1, 1)), nullptr);
  // The resident entry survives (no pointless full eviction).
  EXPECT_NE(cache.lookup(key_of(1, 0)), nullptr);
}

TEST(SegmentCache, ReplaceInPlaceAdjustsCharge) {
  SegmentCache cache(CacheConfig{.capacity_bytes = 1000});
  cache.insert(key_of(1, 0), env_of(100), 1, 0.0);
  cache.insert(key_of(1, 0), env_of(300), 2, 1.0);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.charged_bytes(), 300u);
  const auto* e = cache.lookup(key_of(1, 0));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->version, 2u);
  EXPECT_EQ(e->validated_at, 1.0);
}

TEST(SegmentCache, RevalidateRefreshesTrustWindow) {
  SegmentCache cache(CacheConfig{.capacity_bytes = 1000,
                                 .trust_seconds = 5.0});
  cache.insert(key_of(1, 0), env_of(10), 3, 0.0);
  const auto* e = cache.lookup(key_of(1, 0));
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(cache.trusted(*e, 5.0));
  EXPECT_FALSE(cache.trusted(*e, 5.1));
  EXPECT_TRUE(cache.revalidate(key_of(1, 0), 3, 6.0));
  EXPECT_TRUE(cache.trusted(*e, 11.0));
  EXPECT_EQ(cache.stats().invalidations, 0u);
}

TEST(SegmentCache, RevalidateVersionMismatchInvalidates) {
  SegmentCache cache(CacheConfig{.capacity_bytes = 1000});
  cache.insert(key_of(1, 0), env_of(10), 3, 0.0);
  // A re-created key carries a strictly newer version: the stale entry must
  // go, never be served.
  EXPECT_FALSE(cache.revalidate(key_of(1, 0), 4, 1.0));
  EXPECT_EQ(cache.lookup(key_of(1, 0)), nullptr);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_FALSE(cache.revalidate(key_of(1, 0), 4, 1.0));  // absent -> false
}

TEST(SegmentCache, InvalidateCountsOnlyRealDrops) {
  SegmentCache cache(CacheConfig{.capacity_bytes = 1000});
  cache.insert(key_of(1, 0), env_of(10), 1, 0.0);
  cache.invalidate(key_of(1, 0));
  cache.invalidate(key_of(1, 0));  // already gone
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.charged_bytes(), 0u);
}

TEST(SegmentCache, BudgetHoldsUnderChurn) {
  SegmentCache cache(CacheConfig{.capacity_bytes = 512});
  for (uint32_t i = 0; i < 100; ++i) {
    cache.insert(key_of(1, i), env_of(64 + i % 32), 1, 0.0);
    if (i % 3 == 0) cache.lookup(key_of(1, i / 2));
    EXPECT_LE(cache.charged_bytes(), 512u);
  }
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(SegmentCache, MetricsMirrorTracksCountersAndGauge) {
  obs::MetricsRegistry registry;
  SegmentCache cache(CacheConfig{.capacity_bytes = 200});
  cache.bind_metrics(&registry, "client.cache");
  cache.insert(key_of(1, 0), env_of(100), 1, 0.0);
  cache.insert(key_of(1, 1), env_of(100), 1, 0.0);
  cache.insert(key_of(1, 2), env_of(100), 1, 0.0);  // forces one eviction
  cache.count_hit(100);
  cache.count_miss();
  cache.count_revalidation(50);
  cache.count_peer_hit();
  cache.count_peer_miss();
  cache.invalidate(key_of(1, 2));
  EXPECT_EQ(registry.counter("client.cache.inserts")->value(), 3u);
  EXPECT_EQ(registry.counter("client.cache.evictions")->value(), 1u);
  EXPECT_EQ(registry.counter("client.cache.hits")->value(), 1u);
  EXPECT_EQ(registry.counter("client.cache.misses")->value(), 1u);
  EXPECT_EQ(registry.counter("client.cache.revalidations")->value(), 1u);
  EXPECT_EQ(registry.counter("client.cache.peer_hits")->value(), 1u);
  EXPECT_EQ(registry.counter("client.cache.peer_misses")->value(), 1u);
  EXPECT_EQ(registry.counter("client.cache.invalidations")->value(), 1u);
  EXPECT_EQ(registry.counter("client.cache.bytes_saved")->value(), 150u);
  EXPECT_EQ(registry.gauge("client.cache.cached_bytes")->value(),
            static_cast<double>(cache.charged_bytes()));
  EXPECT_EQ(cache.stats().bytes_saved, 150u);
}

// Caches of several clients bind one registry gauge: it holds their summed
// resident bytes, each cache adding its own changes.
TEST(SegmentCache, SharedGaugeSumsEveryCache) {
  obs::MetricsRegistry registry;
  SegmentCache a(CacheConfig{.capacity_bytes = 1000});
  SegmentCache b(CacheConfig{.capacity_bytes = 1000});
  a.bind_metrics(&registry, "client.cache");
  b.bind_metrics(&registry, "client.cache");
  const obs::Gauge* gauge = registry.gauge("client.cache.cached_bytes");
  a.insert(key_of(1, 0), env_of(100), 1, 0.0);
  b.insert(key_of(2, 0), env_of(40), 1, 0.0);
  a.insert(key_of(1, 1), env_of(60), 1, 0.0);
  EXPECT_EQ(gauge->value(), 200.0);
  b.invalidate(key_of(2, 0));
  EXPECT_EQ(gauge->value(), 160.0);
  a.clear();
  EXPECT_EQ(gauge->value(), 0.0);
  b.insert(key_of(2, 1), env_of(30), 1, 0.0);
  EXPECT_EQ(gauge->value(),
            static_cast<double>(a.charged_bytes() + b.charged_bytes()));
}

TEST(SegmentCache, ClearDropsEverything) {
  SegmentCache cache(CacheConfig{.capacity_bytes = 1000});
  cache.insert(key_of(1, 0), env_of(10), 1, 0.0);
  cache.insert(key_of(1, 1), env_of(10), 1, 0.0);
  cache.clear();
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.charged_bytes(), 0u);
  EXPECT_EQ(cache.lookup(key_of(1, 0)), nullptr);
  // Still usable after clear.
  cache.insert(key_of(1, 2), env_of(10), 1, 0.0);
  EXPECT_EQ(cache.entry_count(), 1u);
}

}  // namespace
}  // namespace evostore::cache
