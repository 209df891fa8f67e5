// Wire messages of the EvoStore client/provider protocol.
//
// Every request/response is a plain aggregate whose layout is written once,
// as a `fields` list in wire order. The small codec below derives everything
// else from that list: `serialize`, `deserialize` (with count checks bounded
// by the element types), and merge_stats' counter sums — so the two
// directions of a message cannot drift apart. Payload tensors ride inside
// `Segment`s whose buffers keep their representation (synthetic descriptors
// stay tiny on the wire; their byte cost is charged through the separate
// bulk/RDMA path, mirroring Mercury's RPC-vs-bulk split).
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "common/status.h"
#include "common/types.h"
#include "compress/codec.h"
#include "compress/compressed_segment.h"
#include "core/owner_map.h"
#include "core/provider_stats.h"
#include "model/arch_graph.h"
#include "model/model.h"
#include "obs/metrics.h"
#include "storage/chunk_store.h"

namespace evostore::core::wire {

using common::Deserializer;
using common::ModelId;
using common::SegmentKey;
using common::Serializer;
using common::VertexId;
using compress::CompressedSegment;
using model::ArchGraph;
using model::Segment;

// ---- codec ---------------------------------------------------------------
//
// Codec<T> encodes one value, decodes one value in place, and gives the
// fewest bytes any encoding of T takes: the `check_count` bound that stops a
// lying length prefix from forcing a huge allocation.
//
// A message declares `static auto fields(auto& m)` returning a tuple of its
// members in wire order — std::tie for a plain layout, `list` when the
// layout needs one of the descriptors (`when`, `parallel`, `local`) — and
// EVOSTORE_WIRE_SERDE for its `serialize`/`deserialize` members.

template <typename T>
struct Codec;

template <typename T>
void put(Serializer& s, const T& v) {
  Codec<T>::put(s, v);
}
template <typename T>
void get(Deserializer& d, T& v) {
  Codec<T>::get(d, v);
}
template <typename T>
size_t min_bytes() {
  return Codec<T>::min_bytes();
}

/// Decode one `T` from the stream (sticky-error: check `d.ok()` after). A
/// codec with a `read` of its own builds the value outright instead of
/// default-constructing it and decoding into it.
template <typename T>
T read(Deserializer& d) {
  if constexpr (requires { Codec<T>::read(d); }) {
    return Codec<T>::read(d);
  } else {
    T v{};
    wire::get(d, v);
    return v;
  }
}

/// The canonical encoding of `v`.
template <typename T>
common::Bytes encode(const T& v) {
  Serializer s;
  wire::put(s, v);
  return std::move(s).take();
}

/// Decode one `T` that must span all of `bytes`: the first corruption, or
/// trailing input, fails the result.
template <typename T>
common::Result<T> decode(std::span<const std::byte> bytes) {
  Deserializer d(bytes);
  T v = read<T>(d);
  common::Status st = d.finish();
  if (!st.ok()) return st;
  return v;
}

/// The `serialize`/`deserialize` members each message keeps for typed_call,
/// the typed handlers and the benches; both follow its `fields`.
#define EVOSTORE_WIRE_SERDE(Type)                                 \
  void serialize(::evostore::common::Serializer& s) const {       \
    ::evostore::core::wire::put(s, *this);                        \
  }                                                               \
  static Type deserialize(::evostore::common::Deserializer& d) {  \
    return ::evostore::core::wire::read<Type>(d);                 \
  }

template <typename T, auto kPut, auto kGet, size_t kMin>
struct PrimitiveCodec {
  static void put(Serializer& s, const T& v) { (s.*kPut)(v); }
  static void get(Deserializer& d, T& v) { v = (d.*kGet)(); }
  static constexpr size_t min_bytes() { return kMin; }
};
template <>
struct Codec<bool>
    : PrimitiveCodec<bool, &Serializer::boolean, &Deserializer::boolean, 1> {};
template <>
struct Codec<uint8_t>
    : PrimitiveCodec<uint8_t, &Serializer::u8, &Deserializer::u8, 1> {};
template <>
struct Codec<uint32_t>
    : PrimitiveCodec<uint32_t, &Serializer::u32, &Deserializer::u32, 1> {};
template <>
struct Codec<uint64_t>
    : PrimitiveCodec<uint64_t, &Serializer::u64, &Deserializer::u64, 1> {};
template <>
struct Codec<double>
    : PrimitiveCodec<double, &Serializer::f64, &Deserializer::f64, 8> {};
template <>
struct Codec<std::string>
    : PrimitiveCodec<std::string, &Serializer::str, &Deserializer::str, 1> {};
template <>
struct Codec<common::Bytes>
    : PrimitiveCodec<common::Bytes, &Serializer::bytes, &Deserializer::bytes,
                     1> {};

/// Signed values travel zig-zag encoded.
template <>
struct Codec<int32_t> {
  static void put(Serializer& s, int32_t v) { s.i64(v); }
  static void get(Deserializer& d, int32_t& v) {
    v = static_cast<int32_t>(d.i64());
  }
  static constexpr size_t min_bytes() { return 1; }
};

/// Enums travel as their one-byte underlying value.
template <typename E>
  requires std::is_enum_v<E>
struct Codec<E> {
  static_assert(sizeof(E) == 1, "wire enums are one byte");
  static void put(Serializer& s, E v) { s.u8(static_cast<uint8_t>(v)); }
  static void get(Deserializer& d, E& v) { v = static_cast<E>(d.u8()); }
  static constexpr size_t min_bytes() { return 1; }
};

template <>
struct Codec<common::Status> {
  static void put(Serializer& s, const common::Status& st) {
    s.u8(static_cast<uint8_t>(st.code()));
    s.str(st.message());
  }
  static void get(Deserializer& d, common::Status& st) {
    auto code = static_cast<common::ErrorCode>(d.u8());
    st = common::Status(code, d.str());
  }
  static constexpr size_t min_bytes() { return 2; }
};

template <typename A, typename B>
struct Codec<std::pair<A, B>> {
  static void put(Serializer& s, const std::pair<A, B>& p) {
    wire::put(s, p.first);
    wire::put(s, p.second);
  }
  static void get(Deserializer& d, std::pair<A, B>& p) {
    wire::get(d, p.first);
    wire::get(d, p.second);
  }
  static size_t min_bytes() {
    return wire::min_bytes<A>() + wire::min_bytes<B>();
  }
};

/// Count prefix, then the elements.
template <typename T>
struct Codec<std::vector<T>> {
  static void put(Serializer& s, const std::vector<T>& v) {
    s.u64(v.size());
    for (const T& e : v) wire::put(s, e);
  }
  static void get(Deserializer& d, std::vector<T>& v) {
    uint64_t n = d.u64();
    if (!d.check_count(n, wire::min_bytes<T>())) return;
    v.reserve(n);
    for (uint64_t i = 0; i < n && d.ok(); ++i) v.push_back(wire::read<T>(d));
  }
  static constexpr size_t min_bytes() { return 1; }
};

/// Encoded as the vector of its (key, value) pairs, so in ascending key
/// order; keys that do not ascend fail the decode.
template <typename K, typename V>
struct Codec<std::map<K, V>> {
  static void put(Serializer& s, const std::map<K, V>& m) {
    s.u64(m.size());
    for (const auto& entry : m) wire::put(s, entry);
  }
  static void get(Deserializer& d, std::map<K, V>& m) {
    for (auto& [k, v] : wire::read<std::vector<std::pair<K, V>>>(d)) {
      if (!m.empty() && k <= m.rbegin()->first) d.corrupt("keys not ascending");
      m.emplace_hint(m.end(), std::move(k), std::move(v));
    }
  }
  static constexpr size_t min_bytes() { return 1; }
};

/// The field list of T: its own `fields` for the messages below and the
/// counter structs they carry, or a specialization for the common/ value
/// types that travel inside them.
template <typename T>
struct Schema {
  template <typename M>
  static auto fields(M& m) -> decltype(std::remove_const_t<M>::fields(m)) {
    return std::remove_const_t<M>::fields(m);
  }
};
template <>
struct Schema<ModelId> {
  static auto fields(auto& m) { return std::tie(m.value); }
};
template <>
struct Schema<SegmentKey> {
  static auto fields(auto& m) { return std::tie(m.owner, m.vertex); }
};
template <>
struct Schema<common::Hash128> {
  static auto fields(auto& m) { return std::tie(m.hi, m.lo); }
};
/// A fixed array: its N elements, no count.
template <typename T, size_t N>
struct Schema<std::array<T, N>> {
  static auto fields(auto& a) {
    return std::apply([](auto&... e) { return std::tie(e...); }, a);
  }
};

/// A counter struct lists every member it holds, so none can miss the wire
/// or the cluster sum.
template <typename T>
constexpr bool kListsEveryCounter =
    sizeof(T) ==
    sizeof(uint64_t) *
        std::tuple_size_v<decltype(Schema<T>::fields(std::declval<T&>()))>;
static_assert(kListsEveryCounter<ProviderStats> &&
              kListsEveryCounter<storage::ChunkStoreStats> &&
              kListsEveryCounter<compress::CodecUsage>);

template <typename T>
concept HasFields = requires(T& m) { Schema<T>::fields(m); };

/// A type with a field list: its fields, in order.
template <typename T>
  requires HasFields<T>
struct Codec<T> {
  static void put(Serializer& s, const T& m) {
    std::apply([&](const auto&... f) { (wire::put(s, f), ...); },
               Schema<T>::fields(m));
  }
  static void get(Deserializer& d, T& m) {
    auto fields = Schema<T>::fields(m);
    std::apply([&](auto&... f) { (wire::get(d, f), ...); }, fields);
  }
  static size_t min_bytes() {
    using List = decltype(Schema<T>::fields(std::declval<T&>()));
    return []<size_t... I>(std::index_sequence<I...>) {
      return (size_t{0} + ... +
              wire::min_bytes<std::remove_cvref_t<
                  std::tuple_element_t<I, List>>>());
    }(std::make_index_sequence<std::tuple_size_v<List>>{});
  }
};

/// Types that bring their own serde (ArchGraph, OwnerMap, CompressedSegment,
/// QueryGraph).
template <typename T>
  requires(!HasFields<T>) && requires(const T& v, Serializer& s,
                                      Deserializer& d) {
    v.serialize(s);
    { T::deserialize(d) } -> std::same_as<T>;
  }
struct Codec<T> {
  static void put(Serializer& s, const T& v) { v.serialize(s); }
  static void get(Deserializer& d, T& v) { v = T::deserialize(d); }
  static T read(Deserializer& d) { return T::deserialize(d); }
  /// An empty value (zero counts, zero scalars) encodes in the fewest
  /// bytes, so its size bounds every encoding of T from below.
  static size_t min_bytes() {
    static const size_t n = encode(T{}).size();
    return n;
  }
};

// ---- descriptors for irregular layouts -----------------------------------

/// A `fields` tuple: members bind by reference, descriptors by value.
template <typename... F>
std::tuple<F...> list(F&&... f) {
  return std::tuple<F...>(std::forward<F>(f)...);
}

/// The `fields` travel only while `flag` — a bool listed EARLIER in the
/// same list — is set; otherwise they are absent and decode to defaults.
template <typename Flag, typename Fields>
struct When {
  Flag& flag;
  Fields fields;
};
template <typename Flag, typename Fields>
When<Flag, Fields> when(Flag& flag, Fields fields) {
  return {flag, fields};
}
template <typename Flag, typename Fields>
struct Codec<When<Flag, Fields>> {
  static void put(Serializer& s, const When<Flag, Fields>& w) {
    if (!w.flag) return;
    std::apply([&](const auto&... f) { (wire::put(s, f), ...); }, w.fields);
  }
  static void get(Deserializer& d, When<Flag, Fields>& w) {
    if (!w.flag) return;
    std::apply([&](auto&... f) { (wire::get(d, f), ...); }, w.fields);
  }
  static constexpr size_t min_bytes() { return 0; }
};

/// Two vectors of equal length sharing one count prefix: `lead`'s elements,
/// then `follow`'s.
template <typename Lead, typename Follow>
struct Parallel {
  Lead& lead;
  Follow& follow;
};
template <typename Lead, typename Follow>
Parallel<Lead, Follow> parallel(Lead& lead, Follow& follow) {
  return {lead, follow};
}
template <typename Lead, typename Follow>
struct Codec<Parallel<Lead, Follow>> {
  using L = typename std::remove_const_t<Lead>::value_type;
  using F = typename std::remove_const_t<Follow>::value_type;
  static void put(Serializer& s, const Parallel<Lead, Follow>& p) {
    s.u64(p.lead.size());
    for (const L& e : p.lead) wire::put(s, e);
    for (const F& e : p.follow) wire::put(s, e);
  }
  static void get(Deserializer& d, Parallel<Lead, Follow>& p) {
    uint64_t n = d.u64();
    if (!d.check_count(n, wire::min_bytes<L>() + wire::min_bytes<F>())) {
      return;
    }
    p.lead.resize(n);
    p.follow.resize(n);
    for (L& e : p.lead) wire::get(d, e);
    for (F& e : p.follow) wire::get(d, e);
  }
  static constexpr size_t min_bytes() { return 1; }
};

/// A member listed for completeness that never travels (process-local).
template <typename T>
struct Local {
  T& field;
};
template <typename T>
Local<T> local(T& field) {
  return {field};
}
template <typename T>
struct Codec<Local<T>> {
  static void put(Serializer&, const Local<T>&) {}
  static void get(Deserializer&, Local<T>&) {}
  static constexpr size_t min_bytes() { return 0; }
};

/// Add `part` into `total`: a uint64_t adds, and a type with a field list (a
/// fixed array lists its elements) adds field by field; anything else (a
/// status, a histogram map) is left alone. In the stats messages every
/// uint64_t is a counter or a gauge that sums across providers.
template <typename T>
void sum_counters(T& total, const T& part) {
  if constexpr (std::is_same_v<T, uint64_t>) {
    total += part;
  } else if constexpr (HasFields<T>) {
    auto to = Schema<T>::fields(total);
    auto from = Schema<T>::fields(part);
    [&]<size_t... I>(std::index_sequence<I...>) {
      (sum_counters(std::get<I>(to), std::get<I>(from)), ...);
    }(std::make_index_sequence<std::tuple_size_v<decltype(to)>>{});
  }
}

inline void serialize_status(Serializer& s, const common::Status& st) {
  wire::put(s, st);
}
inline common::Status deserialize_status(Deserializer& d) {
  return read<common::Status>(d);
}

inline void serialize_key(Serializer& s, const SegmentKey& k) {
  wire::put(s, k);
}
inline SegmentKey deserialize_key(Deserializer& d) {
  return read<SegmentKey>(d);
}

/// The model-metadata block: GetMetaResponse's found branch and, byte for
/// byte, the provider's durable meta/<id> record (core::ModelMeta).
template <typename M>
auto meta_fields(M& m) {
  return std::tie(m.graph, m.owners, m.quality, m.ancestor, m.store_time,
                  m.store_seq);
}

/// Move the metadata block of `from` into `to`: the graph and owner map
/// change hands instead of being copied.
template <typename To, typename From>
void move_meta(To& to, From& from) {
  meta_fields(to) = std::apply(
      [](auto&... f) { return std::forward_as_tuple(std::move(f)...); },
      meta_fields(from));
}

// ---- put_model -----------------------------------------------------------

struct PutModelRequest {
  ModelId id;
  ModelId ancestor;  // invalid() for from-scratch models
  double quality = 0;
  ArchGraph graph;
  OwnerMap owners;
  /// Compressed segment envelopes this model owns, keyed by local vertex id.
  std::vector<std::pair<VertexId, CompressedSegment>> new_segments;
  /// Idempotency token (see ModifyRefsRequest::token). Puts are naturally
  /// idempotent (model ids are globally unique), but the embedded epoch lets
  /// the provider reap stale-epoch transfer pins on ANY mutation — even in a
  /// workload that only ever stores from-scratch models.
  uint64_t token = 0;

  static auto fields(auto& m) {
    return std::tie(m.id, m.ancestor, m.token, m.quality, m.graph, m.owners,
                    m.new_segments);
  }
  EVOSTORE_WIRE_SERDE(PutModelRequest)
};

struct PutModelResponse {
  common::Status status;
  uint64_t store_seq = 0;

  static auto fields(auto& m) { return std::tie(m.status, m.store_seq); }
  EVOSTORE_WIRE_SERDE(PutModelResponse)
};

// ---- get_meta ------------------------------------------------------------

struct GetMetaRequest {
  ModelId id;

  static auto fields(auto& m) { return std::tie(m.id); }
  EVOSTORE_WIRE_SERDE(GetMetaRequest)
};

struct GetMetaResponse {
  bool found = false;
  ArchGraph graph;
  OwnerMap owners;
  double quality = 0;
  ModelId ancestor;
  double store_time = 0;
  uint64_t store_seq = 0;

  static auto fields(auto& m) {
    return list(m.found, when(m.found, meta_fields(m)));
  }
  EVOSTORE_WIRE_SERDE(GetMetaResponse)
};

/// A GetMetaResponse, byte for byte, encoded straight from a meta record
/// the sender keeps (`meta`; null when not found) rather than from a copy
/// of its graph and owner map. Encode-only: the receiver decodes a
/// GetMetaResponse. `*meta` must outlive the encode.
template <typename M>
struct GetMetaView {
  const M* meta = nullptr;

  void serialize(Serializer& s) const {
    wire::put(s, meta != nullptr);
    if (meta == nullptr) return;
    std::apply([&](const auto&... f) { (wire::put(s, f), ...); },
               meta_fields(*meta));
  }
};

// ---- read_segments -------------------------------------------------------

struct ReadSegmentsRequest {
  std::vector<SegmentKey> keys;
  /// Cache-validation handshake (DESIGN.md §14): when non-empty, parallel to
  /// `keys` — cached_versions[i] is the provider version the client already
  /// holds for keys[i] (0 = not cached). A match lets the provider answer
  /// kNotModified instead of shipping payload bytes.
  std::vector<uint64_t> cached_versions;
  /// The reader's fabric node. Meaningful iff `caching`: the provider
  /// records it in its cache directory so later readers can be redirected
  /// to this client's cache.
  common::NodeId reader_node = 0;
  /// Reader fills a local segment cache from this response.
  bool caching = false;
  /// Reader is willing to chase kRedirect hints to a peer cache. Fallback
  /// re-fetches set this false to guarantee termination.
  bool accept_redirect = false;

  static auto fields(auto& m) {
    return std::tie(m.keys, m.cached_versions, m.reader_node, m.caching,
                    m.accept_redirect);
  }
  EVOSTORE_WIRE_SERDE(ReadSegmentsRequest)
};

/// Per-key disposition of a read (parallel to the request's `keys`).
enum class ReadEntryState : uint8_t {
  kFresh = 0,        ///< envelope shipped in `segments`
  kNotModified = 1,  ///< cached version still current; no bytes moved
  kRedirect = 2,     ///< fetch from the peer cache named in `redirect`
};

struct ReadEntryInfo {
  ReadEntryState state = ReadEntryState::kFresh;
  /// Provider's current version of the segment (all states) — the version a
  /// peer read must match exactly.
  uint64_t version = 0;
  /// Peer node last known to cache this segment (kRedirect only).
  common::NodeId redirect = 0;

  friend bool operator==(const ReadEntryInfo&, const ReadEntryInfo&) = default;
  static auto fields(auto& m) {
    return std::tie(m.state, m.version, m.redirect);
  }
};

struct ReadSegmentsResponse {
  common::Status status;
  /// Per-key dispositions in request-key order (empty on error).
  std::vector<ReadEntryInfo> info;
  /// Compressed envelopes for the kFresh entries only, in request-key order
  /// (empty on error). Decoding — including resolving delta base
  /// dependencies — is the client's job.
  std::vector<CompressedSegment> segments;
  /// Physical bytes moved over the bulk path (post-compression); counts the
  /// kFresh envelopes only — NotModified and redirected keys cost nothing
  /// here.
  uint64_t payload_bytes = 0;

  static auto fields(auto& m) {
    return std::tie(m.status, m.info, m.segments, m.payload_bytes);
  }
  EVOSTORE_WIRE_SERDE(ReadSegmentsResponse)
};

// ---- peer_read (client-to-client cooperative cache) ----------------------

/// Fetch segments from a peer client's cache after a provider kRedirect
/// hint. Versions are mandatory and must match exactly — a peer serving
/// anything else could resurrect stale bytes the provider already replaced.
struct PeerReadRequest {
  std::vector<SegmentKey> keys;
  std::vector<uint64_t> versions;  // parallel to keys; required match

  static auto fields(auto& m) { return list(parallel(m.keys, m.versions)); }
  EVOSTORE_WIRE_SERDE(PeerReadRequest)
};

struct PeerReadResponse {
  common::Status status;
  /// Parallel to the request keys: 1 when the peer held the exact version.
  std::vector<uint8_t> found;
  /// Envelopes for the found keys, in request-key order.
  std::vector<CompressedSegment> segments;
  /// Physical bytes the requester pulls over the bulk path.
  uint64_t payload_bytes = 0;

  static auto fields(auto& m) {
    return std::tie(m.status, m.found, m.segments, m.payload_bytes);
  }
  EVOSTORE_WIRE_SERDE(PeerReadResponse)
};

// ---- modify_refs ---------------------------------------------------------

struct ModifyRefsRequest {
  std::vector<SegmentKey> keys;
  bool increment = true;
  /// Idempotency token: non-zero tokens identify one logical request across
  /// retries. A provider that already applied the token replays its cached
  /// response instead of re-applying the refcount deltas (exactly-once
  /// semantics under message loss). 0 disables deduplication.
  uint64_t token = 0;
  /// Transfer-pin bookkeeping (DESIGN.md §14): non-zero marks this request
  /// as pin traffic from the given client incarnation epoch. Increments
  /// record pins in the provider's durable pin ledger; decrements release
  /// them. When the client incarnation restarts, the provider reaps every
  /// ledger entry of older epochs — the fix for pins leaked by a client
  /// crash mid-transfer. 0 = plain reference traffic, no ledger entry.
  uint64_t pin_epoch = 0;
  /// With pin_epoch set: remove the ledger entries WITHOUT touching
  /// refcounts — the pin just became a stored model's permanent reference
  /// (put_model consumed it).
  bool pin_consume = false;

  static auto fields(auto& m) {
    return std::tie(m.increment, m.token, m.pin_epoch, m.pin_consume, m.keys);
  }
  EVOSTORE_WIRE_SERDE(ModifyRefsRequest)
};

struct ModifyRefsResponse {
  common::Status status;
  uint32_t missing = 0;
  uint64_t freed_bytes = 0;
  /// Base keys whose delta-dependency reference was released because a
  /// dependent envelope was freed by this request. The caller must decrement
  /// these in turn (the release can cascade down a delta chain).
  std::vector<SegmentKey> freed_bases;
  /// The request keys this provider did not hold (parallel data for
  /// `missing`). With k-way replication a key is only globally missing when
  /// EVERY replica reports it here — one replica lagging (repairing,
  /// freshly rebuilt) must not fail the whole operation.
  std::vector<SegmentKey> missing_keys;

  static auto fields(auto& m) {
    return std::tie(m.status, m.missing, m.freed_bytes, m.freed_bases,
                    m.missing_keys);
  }
  EVOSTORE_WIRE_SERDE(ModifyRefsResponse)
};

// ---- retire --------------------------------------------------------------

struct RetireRequest {
  ModelId id;
  /// Idempotency token (see ModifyRefsRequest::token): a retried retire must
  /// return the original owner map instead of NotFound, or the caller could
  /// never run the reference decrements.
  uint64_t token = 0;

  static auto fields(auto& m) { return std::tie(m.id, m.token); }
  EVOSTORE_WIRE_SERDE(RetireRequest)
};

struct RetireResponse {
  common::Status status;
  OwnerMap owners;  // the retired model's owner map (for ref decrements)

  static auto fields(auto& m) { return std::tie(m.status, m.owners); }
  EVOSTORE_WIRE_SERDE(RetireResponse)
};

// ---- store_hint (hinted handoff, DESIGN.md §15) --------------------------

/// One write a down replica missed, parked durably on a live peer until the
/// target recovers. The payload is the ORIGINAL serialized request (put /
/// modify_refs / retire), token and all — replay simply re-sends it, and the
/// embedded idempotency token makes the replay exactly-once even when the
/// target had in fact applied the write before crashing.
struct HintRecord {
  common::ProviderId target = 0;  ///< replica the write was aimed at
  std::string method;             ///< RPC method to replay
  common::Bytes payload;          ///< serialized original request

  friend bool operator==(const HintRecord&, const HintRecord&) = default;

  static auto fields(auto& m) {
    return std::tie(m.target, m.method, m.payload);
  }
  EVOSTORE_WIRE_SERDE(HintRecord)
};

struct StoreHintRequest {
  HintRecord hint;

  static auto fields(auto& m) { return std::tie(m.hint); }
  EVOSTORE_WIRE_SERDE(StoreHintRequest)
};

struct StoreHintResponse {
  common::Status status;

  static auto fields(auto& m) { return std::tie(m.status); }
  EVOSTORE_WIRE_SERDE(StoreHintResponse)
};

// ---- replicate (anti-entropy push: drain migration + peer repair) --------

/// One stored segment travelling provider-to-provider. Unlike put_model,
/// kChunked envelopes travel AS MANIFESTS here — the receiver re-references
/// chunks it already holds and pulls only missing bodies via fetch_chunks
/// (cross-provider dedup-aware rebuild). The source's refcount travels too:
/// replication copies GC state, so later symmetric decrements balance.
struct ReplicateSegment {
  SegmentKey key;
  CompressedSegment segment;
  uint32_t refs = 0;

  static auto fields(auto& m) { return std::tie(m.key, m.segment, m.refs); }
  EVOSTORE_WIRE_SERDE(ReplicateSegment)
};

struct ReplicateRequest {
  /// Metadata present? Orphan segments (owner meta already retired, payload
  /// alive through inherited references) replicate with has_meta = false.
  bool has_meta = false;
  ModelId id;
  ArchGraph graph;
  OwnerMap owners;
  double quality = 0;
  ModelId ancestor;
  double store_time = 0;
  std::vector<ReplicateSegment> segments;
  /// Where missing chunk bodies live: the pushing provider first, then any
  /// other replica peer (whoever has the content-addressed chunk serves it).
  common::NodeId source_node = 0;
  std::vector<common::NodeId> peer_nodes;

  static auto fields(auto& m) {
    return list(m.has_meta, m.id,
                when(m.has_meta, std::tie(m.graph, m.owners, m.quality,
                                          m.ancestor, m.store_time)),
                m.segments, m.source_node, m.peer_nodes);
  }
  EVOSTORE_WIRE_SERDE(ReplicateRequest)
};

struct ReplicateResponse {
  common::Status status;
  bool installed_meta = false;
  uint32_t installed_segments = 0;
  uint32_t fetched_chunks = 0;

  static auto fields(auto& m) {
    return std::tie(m.status, m.installed_meta, m.installed_segments,
                    m.fetched_chunks);
  }
  EVOSTORE_WIRE_SERDE(ReplicateResponse)
};

// ---- fetch_chunks (content-addressed chunk bodies by digest) -------------

struct FetchChunksRequest {
  std::vector<common::Hash128> digests;

  static auto fields(auto& m) { return std::tie(m.digests); }
  EVOSTORE_WIRE_SERDE(FetchChunksRequest)
};

/// One chunk body with the modeled storage cost it carries at the source
/// (the telescoping per-chunk share — see DESIGN.md §13); the cost travels
/// so the receiver's byte accounting replicates exactly.
struct ChunkBodyEntry {
  common::Hash128 digest;
  common::Bytes bytes;
  uint64_t cost = 0;

  static auto fields(auto& m) { return std::tie(m.digest, m.bytes, m.cost); }
  EVOSTORE_WIRE_SERDE(ChunkBodyEntry)
};

struct FetchChunksResponse {
  common::Status status;
  /// Bodies for the digests this provider holds (request order, absent ones
  /// skipped — the requester retries the remainder against another peer).
  std::vector<ChunkBodyEntry> chunks;
  uint64_t payload_bytes = 0;

  static auto fields(auto& m) {
    return std::tie(m.status, m.chunks, m.payload_bytes);
  }
  EVOSTORE_WIRE_SERDE(FetchChunksResponse)
};

// ---- drain (decommission: migrate catalog to successor replicas) ---------

/// Self-contained ring view: the post-drain membership, the replication
/// factor, and every provider's fabric node, so the drained provider can
/// compute successor replica sets and push without any directory service.
struct DrainRequest {
  uint32_t replication = 0;
  std::vector<common::NodeId> provider_nodes;  ///< ProviderId -> NodeId
  std::vector<uint8_t> live;  ///< post-drain membership (self already 0)

  static auto fields(auto& m) {
    return std::tie(m.replication, m.provider_nodes, m.live);
  }
  EVOSTORE_WIRE_SERDE(DrainRequest)
};

struct DrainResponse {
  common::Status status;
  uint64_t models_moved = 0;
  uint64_t segments_moved = 0;
  uint64_t hints_moved = 0;

  static auto fields(auto& m) {
    return std::tie(m.status, m.models_moved, m.segments_moved,
                    m.hints_moved);
  }
  EVOSTORE_WIRE_SERDE(DrainResponse)
};

// ---- repair_peer (anti-entropy rebuild of a lost provider) ---------------

/// Ask a live peer to push every model it is first-live-replica for whose
/// replica set includes `target` (the provider being rebuilt). Carries the
/// full ring view so responsibility is computed identically everywhere —
/// exactly one peer pushes each model.
struct RepairRequest {
  common::ProviderId target = 0;
  uint32_t replication = 0;
  std::vector<common::NodeId> provider_nodes;
  std::vector<uint8_t> live;  ///< full membership, target included

  static auto fields(auto& m) {
    return std::tie(m.target, m.replication, m.provider_nodes, m.live);
  }
  EVOSTORE_WIRE_SERDE(RepairRequest)
};

struct RepairResponse {
  common::Status status;
  uint64_t models_pushed = 0;
  uint64_t segments_pushed = 0;

  static auto fields(auto& m) {
    return std::tie(m.status, m.models_pushed, m.segments_pushed);
  }
  EVOSTORE_WIRE_SERDE(RepairResponse)
};

// ---- lcp_query (provider-side collective piece) --------------------------

/// An LCP query's graph: its shape alone, the only part Algorithm 1 and
/// the prefix index read (DESIGN.md §7). The client copies the shape of
/// its ArchGraph in (a request never borrows the caller's graph, and the
/// layers stay behind); it travels as GraphShape::serialize_shape's
/// signature table, and a provider decodes it without parsing or hashing
/// any layer. A decoded query encodes to the same bytes.
class QueryGraph {
 public:
  QueryGraph() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): a query is its graph's shape
  QueryGraph(model::GraphShape shape) : shape_(std::move(shape)) {}

  const model::GraphShape& shape() const { return shape_; }

  void serialize(Serializer& s) const { shape_.serialize_shape(s); }
  static QueryGraph deserialize(Deserializer& d) {
    return model::GraphShape::deserialize_shape(d);
  }

 private:
  model::GraphShape shape_;
};

/// One round of the collective LCP query (DESIGN.md §15). Each provider
/// scans only its share of the catalog: the models it is the first live
/// replica of under `live`, the client's ring view in DrainRequest's
/// encoding. A cover round names in `cover` the providers that failed
/// round 1 (cleared in `live`), and a provider then scans only the part
/// of their round-1 shares that now falls to it. `cover` is empty in
/// round 1.
struct LcpQueryRequest {
  QueryGraph graph;
  std::vector<uint8_t> live{};
  std::vector<common::ProviderId> cover{};

  static auto fields(auto& m) { return std::tie(m.graph, m.live, m.cover); }
  EVOSTORE_WIRE_SERDE(LcpQueryRequest)
};

struct LcpQueryResponse {
  bool found = false;
  ModelId ancestor;
  double quality = 0;
  std::vector<std::pair<VertexId, VertexId>> matches;  // (G vertex, A vertex)
  /// Set by the client's broadcast+reduce when at least one provider could
  /// not be reached within the retry budget — the reduction covers the
  /// responders only (graceful degradation).
  bool partial = false;

  size_t lcp_len() const { return matches.size(); }

  /// The LCP answer order, shared by the provider scan, the client reduce
  /// and the Redis baseline: the longest prefix wins, then the higher
  /// quality, then the lower model id; any candidate beats "not found".
  /// Takes the candidate and returns true when it ranks above this answer.
  bool offer(ModelId id, double q,
             std::vector<std::pair<VertexId, VertexId>>&& m) {
    const bool better = !found                  ? true
                        : m.size() != lcp_len() ? m.size() > lcp_len()
                        : q != quality          ? q > quality
                                                : id < ancestor;
    if (!better) return false;
    found = true;
    ancestor = id;
    quality = q;
    matches = std::move(m);
    return true;
  }

  static auto fields(auto& m) {
    return list(m.found,
                when(m.found, std::tie(m.ancestor, m.quality, m.matches)),
                local(m.partial));
  }
  EVOSTORE_WIRE_SERDE(LcpQueryResponse)
};

// ---- get_stats -----------------------------------------------------------

struct StatsRequest {
  static auto fields(auto&) { return std::tuple<>(); }
  EVOSTORE_WIRE_SERDE(StatsRequest)
};

/// A histogram travels whole, as its obs::Histogram::Parts. Bucket indexes
/// past the range or not ascending, counts that do not add up to `count`,
/// or a min above the max fail the decode with Corruption.
template <>
struct Codec<obs::Histogram> {
  using Parts = obs::Histogram::Parts;
  static void put(Serializer& s, const obs::Histogram& h) {
    wire::put(s, h.parts());
  }
  static obs::Histogram read(Deserializer& d) {
    const Parts p = wire::read<Parts>(d);
    // The values no count has claimed yet: a claim never takes more than
    // that, so no sum can wrap.
    uint64_t left = p.count;
    auto claim = [&](uint64_t n) {
      if (n > left) d.corrupt("histogram counts past its count");
      left -= std::min(n, left);
    };
    claim(p.underflow);
    uint64_t next = 0;  // the lowest index the next bucket may take
    for (const auto& [b, n] : p.buckets) {
      if (b < next || b >= uint64_t{obs::Histogram::kBucketCount}) {
        d.corrupt("histogram bucket indexes not ascending in range");
      }
      next = uint64_t{b} + 1;
      claim(n);
    }
    if (left != 0) d.corrupt("histogram counts short of its count");
    if (p.count > 0 && p.min > p.max) d.corrupt("histogram min above max");
    return d.ok() ? obs::Histogram::from_parts(p) : obs::Histogram{};
  }
  static void get(Deserializer& d, obs::Histogram& h) { h = read(d); }
  static size_t min_bytes() { return wire::min_bytes<Parts>(); }
};

/// One provider's stats as it keeps them: its own counters, its chunk
/// store's counters and its per-codec stored volume, each struct whole; the
/// live-state gauges; and its local histograms whole, by name. Every
/// uint64_t sums across providers (merge_stats), so a new counter needs only
/// its declaration and its place in its struct's field list.
struct StatsResponse {
  common::Status status;
  ProviderStats provider;
  storage::ChunkStoreStats chunks;
  compress::CodecUsageTable codecs{};
  // Live stored state.
  uint64_t live_models = 0;
  uint64_t live_segments = 0;
  uint64_t logical_bytes = 0;   // decoded payload the provider serves
  uint64_t physical_bytes = 0;  // at-rest payload: inline + deduped chunks
  // Chunk dedup (DESIGN.md §13). `physical_bytes` above is the deduped
  // at-rest footprint; `pre_dedup_physical_bytes` is what the same live
  // segments would cost with the delta codec alone (every chunk charged at
  // every occurrence). Their ratio is the cross-model dedup factor.
  uint64_t pre_dedup_physical_bytes = 0;
  uint64_t live_chunks = 0;
  uint64_t chunk_physical_bytes = 0;  // the chunk-store share of physical
  // Catalog prefix index (DESIGN.md §16).
  uint64_t lcp_index_nodes = 0;  // distinct indexed hashes
  uint64_t lcp_index_bytes = 0;  // index memory footprint model
  std::map<std::string, obs::Histogram> histograms;

  static auto fields(auto& m) {
    return std::tie(m.status, m.provider, m.chunks, m.codecs, m.live_models,
                    m.live_segments, m.logical_bytes, m.physical_bytes,
                    m.pre_dedup_physical_bytes, m.live_chunks,
                    m.chunk_physical_bytes, m.lcp_index_nodes,
                    m.lcp_index_bytes, m.histograms);
  }
  EVOSTORE_WIRE_SERDE(StatsResponse)
};

/// The cluster view of per-provider stats (Client::collect_stats): every
/// counter and gauge sums, and each histogram merges by name into the one
/// histogram that every provider's values would have fed.
inline StatsResponse merge_stats(const std::vector<StatsResponse>& parts) {
  StatsResponse total;
  for (const StatsResponse& p : parts) {
    sum_counters(total, p);
    for (const auto& [name, h] : p.histograms) total.histograms[name].merge(h);
  }
  return total;
}

}  // namespace evostore::core::wire
