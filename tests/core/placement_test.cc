// Static hash placement (paper §4.1): stateless, deterministic, and
// well-balanced across providers.
#include "core/placement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

namespace evostore::core {
namespace {

using common::ModelId;

TEST(Placement, DeterministicAndStateless) {
  for (uint32_t i = 1; i < 100; ++i) {
    ModelId id = ModelId::make(3, i);
    EXPECT_EQ(provider_for(id, 16), provider_for(id, 16));
  }
}

TEST(Placement, InRange) {
  for (size_t providers : {1ul, 2ul, 7ul, 64ul, 1000ul}) {
    for (uint32_t i = 1; i < 200; ++i) {
      EXPECT_LT(provider_for(ModelId::make(1, i), providers), providers);
    }
  }
}

TEST(Placement, SingleProviderAlwaysZero) {
  for (uint32_t i = 1; i < 50; ++i) {
    EXPECT_EQ(provider_for(ModelId::make(2, i), 1), 0u);
  }
}

// Property sweep: sequential ids (the common allocation pattern) spread
// evenly over any provider count.
class PlacementBalance : public ::testing::TestWithParam<size_t> {};

TEST_P(PlacementBalance, SequentialIdsBalance) {
  size_t providers = GetParam();
  constexpr int kModels = 20000;
  std::map<common::ProviderId, int> counts;
  for (uint32_t i = 1; i <= kModels; ++i) {
    ++counts[provider_for(ModelId::make(0, i), providers)];
  }
  EXPECT_EQ(counts.size(), providers);  // every provider used
  double expected = static_cast<double>(kModels) / providers;
  // The max over many multinomial bins wanders ~sqrt(expected) * a few; a
  // flat 25% band is too tight once expected counts drop into the hundreds
  // (128 providers -> expected 156, and a ~4-sigma bin is a routine event
  // across 128 draws). Widen with a sqrt(n) term.
  double tol = std::max(expected * 0.25, 4.5 * std::sqrt(expected));
  for (auto [p, n] : counts) {
    EXPECT_NEAR(n, expected, tol) << "provider " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(ProviderCounts, PlacementBalance,
                         ::testing::Values(2, 3, 16, 64, 128));

TEST(Replicas, DeterministicDistinctAndLive) {
  const std::vector<bool> live = {true, false, true, true, true, false,
                                  true, true};
  for (uint32_t i = 1; i < 200; ++i) {
    ModelId id = ModelId::make(4, i);
    auto reps = replicas_for(id, live.size(), 3, live);
    EXPECT_EQ(reps, replicas_for(id, live.size(), 3, live));
    ASSERT_EQ(reps.size(), 3u);
    std::set<common::ProviderId> uniq(reps.begin(), reps.end());
    EXPECT_EQ(uniq.size(), reps.size());  // k distinct providers
    for (common::ProviderId p : reps) {
      ASSERT_LT(p, live.size());
      EXPECT_TRUE(live[p]);  // never a retired provider
    }
  }
}

TEST(Replicas, PrimaryMatchesProviderFor) {
  std::vector<bool> live(16, true);
  for (size_t p : {1, 4, 7, 11}) live[p] = false;
  for (uint32_t i = 1; i < 200; ++i) {
    ModelId id = ModelId::make(5, i);
    auto reps = replicas_for(id, 16, 2);
    ASSERT_FALSE(reps.empty());
    EXPECT_EQ(reps.front(), provider_for(id, 16));
    EXPECT_EQ(replicas_for(id, 16, 1, live).front(),
              provider_for(id, 16, live));
  }
  // With no live provider there is no primary: the provider count.
  EXPECT_EQ(provider_for(ModelId::make(5, 1), 4, std::vector<bool>(4, false)),
            4u);
}

TEST(Replicas, ClampsToLiveCount) {
  std::vector<bool> live = {false, true, false, true};
  auto reps = replicas_for(ModelId::make(6, 1), live.size(), 3, live);
  EXPECT_EQ(reps.size(), 2u);  // only two live providers remain
}

// Every k ranks the same way: the top min(k, live) of the full ranking, which
// is in strictly descending rendezvous score.
TEST(Replicas, EveryKIsAPrefixOfTheFullRanking) {
  const std::vector<std::vector<bool>> views = {
      {}, {true, false, true, true, true, false, true, true},
      {false, true, false, true}, {false, false, false}};
  for (const std::vector<bool>& live : views) {
    const size_t n = live.empty() ? 8 : live.size();
    const size_t live_count =
        live.empty() ? n : static_cast<size_t>(
                               std::count(live.begin(), live.end(), true));
    for (uint32_t i = 1; i < 100; ++i) {
      const ModelId id = ModelId::make(8, i);
      const std::vector<common::ProviderId> full =
          replicas_for(id, n, n, live);
      ASSERT_EQ(full.size(), live_count);
      for (size_t j = 1; j < full.size(); ++j) {
        EXPECT_GT(placement_score(id, full[j - 1]),
                  placement_score(id, full[j]));
      }
      for (size_t k = 0; k <= n + 1; ++k) {
        const size_t m = std::min(k, live_count);
        EXPECT_EQ(replicas_for(id, n, k, live),
                  std::vector<common::ProviderId>(
                      full.begin(), full.begin() + static_cast<long>(m)))
            << "id " << i << " k " << k;
      }
    }
  }
}

// The HRW property drain depends on: retiring one provider moves ONLY the
// keys that provider replicated — every other key's replica set (and its
// order) is unchanged.
TEST(Replicas, MinimalMovementOnRetire) {
  constexpr size_t kProviders = 10;
  constexpr common::ProviderId kRetired = 3;
  Membership before(kProviders, 2);
  Membership after(kProviders, 2);
  after.retire_provider(kRetired);
  for (uint32_t i = 1; i <= 2000; ++i) {
    ModelId id = ModelId::make(7, i);
    auto old_reps = before.replicas(id);
    auto new_reps = after.replicas(id);
    bool held = std::find(old_reps.begin(), old_reps.end(), kRetired) !=
                old_reps.end();
    if (!held) {
      EXPECT_EQ(new_reps, old_reps) << "id " << i;
      continue;
    }
    // The survivors keep their relative order; exactly one successor joins.
    ASSERT_EQ(new_reps.size(), old_reps.size());
    std::vector<common::ProviderId> survivors;
    for (common::ProviderId p : old_reps) {
      if (p != kRetired) survivors.push_back(p);
    }
    std::vector<common::ProviderId> kept;
    for (common::ProviderId p : new_reps) {
      if (std::find(old_reps.begin(), old_reps.end(), p) != old_reps.end()) {
        kept.push_back(p);
      }
    }
    EXPECT_EQ(kept, survivors) << "id " << i;
  }
}

TEST(Membership, RetireAndAdmitRoundTrip) {
  Membership m(4, 2);
  EXPECT_EQ(m.live_count(), 4u);
  EXPECT_EQ(m.replication(), 2u);
  m.retire_provider(2);
  EXPECT_FALSE(m.is_live(2));
  EXPECT_EQ(m.live_count(), 3u);
  m.retire_provider(2);  // idempotent
  EXPECT_EQ(m.live_count(), 3u);
  ModelId id = ModelId::make(8, 1);
  for (common::ProviderId p : m.replicas(id)) EXPECT_NE(p, 2u);
  m.admit_provider(2);
  EXPECT_TRUE(m.is_live(2));
  Membership fresh(4, 2);
  EXPECT_EQ(m.replicas(id), fresh.replicas(id));
  // Out-of-range ids are ignored, not UB.
  m.retire_provider(99);
  EXPECT_EQ(m.live_count(), 4u);
  EXPECT_FALSE(m.is_live(99));
}

TEST(Placement, AllocatorBitsDoNotBias) {
  // Ids from different allocators (clients) must not collide onto the same
  // provider systematically.
  constexpr size_t kProviders = 8;
  std::map<common::ProviderId, int> counts;
  for (uint32_t alloc = 0; alloc < 50; ++alloc) {
    for (uint32_t seq = 1; seq <= 50; ++seq) {
      ++counts[provider_for(ModelId::make(alloc, seq), kProviders)];
    }
  }
  for (auto [p, n] : counts) {
    EXPECT_NEAR(n, 2500.0 / kProviders, 2500.0 / kProviders * 0.3)
        << "provider " << p;
  }
}

}  // namespace
}  // namespace evostore::core
