#include "cache/segment_cache.h"

#include <utility>

namespace evostore::cache {

const SegmentCache::Entry* SegmentCache::lookup(
    const common::SegmentKey& key) {
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  it->second->referenced = true;
  return &it->second->entry;
}

void SegmentCache::insert(const common::SegmentKey& key,
                          compress::CompressedSegment envelope,
                          uint64_t version, double now) {
  uint64_t bytes = envelope.physical_bytes;
  if (bytes > config_.capacity_bytes) return;  // would evict everything
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Replace in place (re-created key or refreshed fill): adjust the byte
    // charge, keep the ring position.
    Slot& slot = *it->second;
    charged_bytes_ -= slot.entry.envelope.physical_bytes;
    slot.entry = Entry{std::move(envelope), version, now};
    slot.referenced = true;
    charged_bytes_ += bytes;
    evict_until_fits(0);
    ++stats_.inserts;
    if (m_inserts_ != nullptr) m_inserts_->add();
    report_bytes();
    return;
  }
  evict_until_fits(bytes);
  ring_.push_back(Slot{key, Entry{std::move(envelope), version, now}, false});
  auto slot_it = std::prev(ring_.end());
  index_.emplace(key, slot_it);
  if (hand_ == ring_.end()) hand_ = slot_it;
  charged_bytes_ += bytes;
  ++stats_.inserts;
  if (m_inserts_ != nullptr) m_inserts_->add();
  report_bytes();
}

bool SegmentCache::revalidate(const common::SegmentKey& key, uint64_t version,
                              double now) {
  auto it = index_.find(key);
  if (it == index_.end()) return false;
  Slot& slot = *it->second;
  if (slot.entry.version != version) {
    invalidate(key);
    return false;
  }
  slot.entry.validated_at = now;
  slot.referenced = true;
  return true;
}

void SegmentCache::invalidate(const common::SegmentKey& key) {
  auto it = index_.find(key);
  if (it == index_.end()) return;
  erase_slot(it->second);
  ++stats_.invalidations;
  if (m_invalidations_ != nullptr) m_invalidations_->add();
  report_bytes();
}

void SegmentCache::clear() {
  ring_.clear();
  index_.clear();
  hand_ = ring_.end();
  charged_bytes_ = 0;
  report_bytes();
}

void SegmentCache::evict_until_fits(uint64_t incoming_bytes) {
  while (!ring_.empty() &&
         charged_bytes_ + incoming_bytes > config_.capacity_bytes) {
    // CLOCK sweep: give referenced entries a second chance, evict the first
    // cold one. Bounded: each pass over the ring clears every bit, so a
    // victim is found within two laps.
    if (hand_ == ring_.end()) hand_ = ring_.begin();
    if (hand_->referenced) {
      hand_->referenced = false;
      ++hand_;
      continue;
    }
    index_.erase(hand_->key);
    charged_bytes_ -= hand_->entry.envelope.physical_bytes;
    hand_ = ring_.erase(hand_);
    ++stats_.evictions;
    if (m_evictions_ != nullptr) m_evictions_->add();
  }
}

void SegmentCache::erase_slot(Ring::iterator it) {
  charged_bytes_ -= it->entry.envelope.physical_bytes;
  index_.erase(it->key);
  if (hand_ == it) ++hand_;
  ring_.erase(it);
  if (hand_ == ring_.end() && !ring_.empty()) hand_ = ring_.begin();
}

void SegmentCache::report_bytes() {
  if (m_cached_bytes_ == nullptr) return;
  m_cached_bytes_->add(static_cast<double>(charged_bytes_) -
                       static_cast<double>(reported_bytes_));
  reported_bytes_ = charged_bytes_;
}

void SegmentCache::bind_metrics(obs::MetricsRegistry* registry,
                                const std::string& prefix) {
  if (registry == nullptr) return;
  m_hits_ = registry->counter(prefix + ".hits");
  m_misses_ = registry->counter(prefix + ".misses");
  m_inserts_ = registry->counter(prefix + ".inserts");
  m_evictions_ = registry->counter(prefix + ".evictions");
  m_invalidations_ = registry->counter(prefix + ".invalidations");
  m_revalidations_ = registry->counter(prefix + ".revalidations");
  m_peer_hits_ = registry->counter(prefix + ".peer_hits");
  m_peer_misses_ = registry->counter(prefix + ".peer_misses");
  m_bytes_saved_ = registry->counter(prefix + ".bytes_saved");
  reported_bytes_ = 0;  // nothing of this cache is in the new gauge yet
  m_cached_bytes_ = registry->gauge(prefix + ".cached_bytes");
  report_bytes();
}

void SegmentCache::count_hit(uint64_t bytes_saved) {
  ++stats_.hits;
  stats_.bytes_saved += bytes_saved;
  if (m_hits_ != nullptr) m_hits_->add();
  if (m_bytes_saved_ != nullptr) m_bytes_saved_->add(bytes_saved);
}

void SegmentCache::count_miss() {
  ++stats_.misses;
  if (m_misses_ != nullptr) m_misses_->add();
}

void SegmentCache::count_revalidation(uint64_t bytes_saved) {
  ++stats_.revalidations;
  stats_.bytes_saved += bytes_saved;
  if (m_revalidations_ != nullptr) m_revalidations_->add();
  if (m_bytes_saved_ != nullptr) m_bytes_saved_->add(bytes_saved);
}

void SegmentCache::count_peer_hit() {
  ++stats_.peer_hits;
  if (m_peer_hits_ != nullptr) m_peer_hits_->add();
}

void SegmentCache::count_peer_miss() {
  ++stats_.peer_misses;
  if (m_peer_misses_ != nullptr) m_peer_misses_->add();
}

}  // namespace evostore::cache
