#include "storage/chunk_store.h"

#include <algorithm>
#include <charconv>
#include <string>
#include <utility>

#include "common/log.h"
#include "common/serde.h"

namespace evostore::storage {

namespace {
// Chunk records: key `chunk/<record seq>`; value digest (hi u64, lo u64),
// modeled cost, payload bytes. The digest lives in the value, not the key —
// a numeric key avoids parsing 32 hex digits on restore, and record identity
// does not matter (restore re-keys by the digest inside).
constexpr char kRecordPrefix[] = "chunk/";
}  // namespace

ChunkStore::ChunkStore(KvStore* backend) : backend_(backend) {}

std::string ChunkStore::record_key(uint64_t seq) {
  return kRecordPrefix + std::to_string(seq);
}

void ChunkStore::persist(const common::Hash128& digest, const Chunk& chunk) {
  if (backend_ == nullptr) return;
  common::Serializer s;
  s.u64(digest.hi);
  s.u64(digest.lo);
  s.u64(chunk.cost);
  s.bytes(chunk.bytes);
  std::string key = record_key(chunk.record_seq);
  Status st = backend_->put(key, common::Buffer::dense(std::move(s).take()));
  if (!st.ok()) EVO_WARN << "persist '" << key << "': " << st.to_string();
}

void ChunkStore::restore(std::vector<std::string>* keys) {
  const std::string_view prefix = kRecordPrefix;
  // Sorted keys: the chunk records form one contiguous run.
  auto first = std::lower_bound(keys->begin(), keys->end(), prefix);
  auto last = first;
  for (; last != keys->end() && last->starts_with(prefix); ++last) {
    Status st = restore_record(*last);
    if (!st.ok()) {
      EVO_WARN << "restore: skipped record '" << *last
               << "': " << st.to_string();
    }
  }
  keys->erase(first, last);
}

Status ChunkStore::restore_record(std::string_view key) {
  uint64_t seq = 0;
  const char* end = key.data() + key.size();
  auto [p, ec] = std::from_chars(key.data() + sizeof(kRecordPrefix) - 1, end,
                                 seq);
  if (ec != std::errc{} || p != end) return Status::Corruption("malformed key");
  Result<Buffer> value = backend_->get(key);
  if (!value.ok()) return value.status();
  Buffer buf = value.value().materialize();
  common::Deserializer d(buf.dense_span());
  common::Hash128 digest;
  digest.hi = d.u64();
  digest.lo = d.u64();
  uint64_t cost = d.u64();
  common::Bytes bytes = d.bytes();
  if (Status st = d.finish(); !st.ok()) return st;
  (void)install(digest, std::move(bytes), cost, seq);
  return Status::Ok();
}

bool ChunkStore::add_ref(const common::Hash128& digest,
                         std::span<const std::byte> bytes, uint64_t cost) {
  auto it = chunks_.find(digest);
  if (it != chunks_.end()) {
    ++it->second.refs;
    ++stats_.hits;
    stats_.saved_bytes += cost;
    return false;
  }
  Chunk chunk;
  chunk.bytes.assign(bytes.begin(), bytes.end());
  chunk.cost = cost;
  chunk.refs = 1;
  chunk.record_seq = ++record_seq_;
  physical_bytes_ += cost;
  payload_bytes_ += chunk.bytes.size();
  ++stats_.misses;
  persist(digest, chunk);
  chunks_.emplace(digest, std::move(chunk));
  return true;
}

bool ChunkStore::add_ref_existing(const common::Hash128& digest) {
  auto it = chunks_.find(digest);
  if (it == chunks_.end()) return false;
  ++it->second.refs;
  return true;
}

uint64_t ChunkStore::release(const common::Hash128& digest) {
  auto it = chunks_.find(digest);
  if (it == chunks_.end()) return 0;
  if (--it->second.refs > 0) return 0;
  uint64_t cost = it->second.cost;
  ++stats_.freed;
  erase_chunk(it);
  return cost;
}

ChunkStore::ChunkMap::iterator ChunkStore::erase_chunk(ChunkMap::iterator it) {
  physical_bytes_ -= it->second.cost;
  payload_bytes_ -= it->second.bytes.size();
  if (backend_ != nullptr) {
    (void)backend_->erase(record_key(it->second.record_seq));
  }
  return chunks_.erase(it);
}

const ChunkStore::Chunk* ChunkStore::find(
    const common::Hash128& digest) const {
  auto it = chunks_.find(digest);
  return it == chunks_.end() ? nullptr : &it->second;
}

void ChunkStore::clear() {
  chunks_.clear();
  physical_bytes_ = 0;
  payload_bytes_ = 0;
}

bool ChunkStore::install(const common::Hash128& digest, common::Bytes bytes,
                         uint64_t cost, uint64_t record_seq) {
  Chunk chunk;
  chunk.bytes = std::move(bytes);
  chunk.cost = cost;
  chunk.refs = 0;
  chunk.record_seq = record_seq;
  auto [it, inserted] = chunks_.emplace(digest, std::move(chunk));
  if (!inserted) return false;
  physical_bytes_ += cost;
  payload_bytes_ += it->second.bytes.size();
  record_seq_ = std::max(record_seq_, record_seq);
  return true;
}

size_t ChunkStore::drop_unreferenced() {
  size_t dropped = 0;
  for (auto it = chunks_.begin(); it != chunks_.end();) {
    if (it->second.refs > 0) {
      ++it;
      continue;
    }
    it = erase_chunk(it);
    ++dropped;
  }
  return dropped;
}

}  // namespace evostore::storage
