// Deterministic k-way replica placement of models onto providers.
//
// The paper's placement (§4.1) is a stateless hash of model id → one
// provider: the owner map fully describes a model's composition, so no
// directory service is needed. This file generalizes that to rendezvous
// (highest-random-weight, HRW) hashing over the current membership:
// every (model, provider) pair gets a deterministic score, and the model's
// replica set is the top-k live providers by score. HRW gives the property
// single-owner mod-hash lacks and drain/decommission requires: removing a
// provider from the ring moves ONLY the keys that provider held — every
// other key's replica set is unchanged, because the relative order of the
// surviving providers' scores never changes.
//
// Segments are placed by their OWNER model id (same as the owner-map
// metadata), so a model's meta and its self-owned segments always share one
// replica set.
#pragma once

#include <algorithm>
#include <vector>

#include "common/hash.h"
#include "common/types.h"

namespace evostore::core {

/// Rendezvous score for (model, provider). Pure function of the two ids:
/// any node computes the same ranking with no coordination.
constexpr uint64_t placement_score(common::ModelId id,
                                   common::ProviderId provider) {
  return common::hash_combine(common::mix64(id.value), provider);
}

/// Top-k live providers for `id` by descending rendezvous score (ties broken
/// toward the lower provider id, which cannot happen with distinct ids but
/// keeps the sort total). `live` may be empty, meaning "all provider_count
/// providers are in the ring"; otherwise live[p] == false excludes provider
/// p from placement (drained or decommissioned). Returns fewer than k
/// providers only when fewer than k are live.
inline std::vector<common::ProviderId> replicas_for(
    common::ModelId id, size_t provider_count, size_t k,
    const std::vector<bool>& live = {}) {
  std::vector<common::ProviderId> ranked;
  ranked.reserve(provider_count);
  for (size_t p = 0; p < provider_count; ++p) {
    if (!live.empty() && !live[p]) continue;
    ranked.push_back(static_cast<common::ProviderId>(p));
  }
  // The comparator is a strict total order, so the top min(k, live) come
  // out in the same order whichever k asks.
  const size_t top = std::min(k, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + static_cast<long>(top),
                    ranked.end(),
                    [id](common::ProviderId a, common::ProviderId b) {
                      uint64_t sa = placement_score(id, a);
                      uint64_t sb = placement_score(id, b);
                      return sa != sb ? sa > sb : a < b;
                    });
  ranked.resize(top);
  return ranked;
}

/// Primary (top-1 HRW) provider for `id` among the live providers (`live`
/// as in replicas_for), or `provider_count` when none is live. Equal to
/// replicas_for(id, provider_count, 1, live).front() without the ranking
/// vector: a provider's LCP share is the models this names it for
/// (DESIGN.md §15).
inline common::ProviderId provider_for(common::ModelId id,
                                       size_t provider_count,
                                       const std::vector<bool>& live = {}) {
  auto best = static_cast<common::ProviderId>(provider_count);
  uint64_t best_score = 0;
  for (size_t p = 0; p < provider_count; ++p) {
    if (!live.empty() && !live[p]) continue;
    uint64_t s = placement_score(id, static_cast<common::ProviderId>(p));
    if (best == provider_count || s > best_score) {
      best = static_cast<common::ProviderId>(p);
      best_score = s;
    }
  }
  return best;
}

/// Shared ring-membership view: which providers participate in placement and
/// how many replicas each key gets. One instance is shared (by shared_ptr)
/// between the repository and every client it hands out, so a drain observed
/// by the repository immediately redirects all clients' placement. Drained
/// providers stay addressable on the wire (their node ids remain valid) but
/// receive no new placements.
class Membership {
 public:
  Membership(size_t provider_count, size_t replication)
      : live_(provider_count, true),
        replication_(replication == 0 ? 1 : replication) {}

  size_t provider_count() const { return live_.size(); }
  size_t replication() const { return replication_; }

  bool is_live(common::ProviderId p) const {
    return p < live_.size() && live_[p];
  }
  size_t live_count() const {
    return static_cast<size_t>(std::count(live_.begin(), live_.end(), true));
  }

  /// Remove a provider from placement (drain/decommission). Idempotent.
  void retire_provider(common::ProviderId p) {
    if (p < live_.size()) live_[p] = false;
  }
  /// Re-admit a provider (used by repair once a rebuilt provider rejoins).
  void admit_provider(common::ProviderId p) {
    if (p < live_.size()) live_[p] = true;
  }

  const std::vector<bool>& live() const { return live_; }
  /// live() in the wire encoding of a ring view (DrainRequest,
  /// RepairRequest, LcpQueryRequest): one byte per provider, 1 = live.
  std::vector<uint8_t> live_bytes() const {
    return {live_.begin(), live_.end()};
  }

  /// Replica set for `id` under the current membership, clamped to the live
  /// provider count.
  std::vector<common::ProviderId> replicas(common::ModelId id) const {
    return replicas_for(id, live_.size(), replication_, live_);
  }

 private:
  std::vector<bool> live_;
  size_t replication_;
};

}  // namespace evostore::core
