#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <unordered_set>

#include "cache/segment_cache.h"
#include "common/serde.h"
#include "compress/compressed_segment.h"
#include "core/lcp.h"
#include "core/prefix_index.h"
#include "core/wire.h"

namespace perfbench {

// ---- clocks ----------------------------------------------------------------

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- deployment ------------------------------------------------------------

Cluster::Cluster(int gpus)
    : fabric(sim, net::FabricConfig{.latency = 1.5e-6, .local_latency = 2e-7}),
      rpc(fabric) {
  controller = fabric.add_node(25e9, 25e9, "controller");
  int n_nodes = (gpus + 3) / 4;
  for (int n = 0; n < n_nodes; ++n) {
    common::NodeId node = fabric.add_node(25e9, 25e9);
    nodes.push_back(node);
    provider_nodes.push_back(node);
    for (int g = 0; g < 4 && static_cast<int>(workers.size()) < gpus; ++g) {
      workers.push_back(node);
    }
  }
}

core::ProviderConfig deployment_provider_config() {
  core::ProviderConfig p;
  p.lcp_index = true;
  // Chunk sizes proportioned to the simulation's serialized-descriptor
  // payloads (the real-deployment defaults never fire on them).
  p.chunker = compress::ChunkerConfig{/*min_bytes=*/32, /*avg_bytes=*/64,
                                      /*max_bytes=*/256};
  return p;
}

core::ClientConfig deployment_client_config() {
  core::ClientConfig c;
  c.put_codec = compress::CodecId::kDeltaVsAncestor;
  return c;  // replication: library default (2)
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kPut: return "put";
    case Op::kTransfer: return "transfer";
    case Op::kRead: return "read";
    case Op::kLcp: return "lcp";
    case Op::kRetire: return "retire";
  }
  return "?";
}

// ---- Trial -----------------------------------------------------------------

void Trial::record(Op op, double seconds, bool ok) {
  ++ops;
  lat[static_cast<int>(op)].add(seconds);
  if (!ok) fail(std::string(op_name(op)) + " failed");
}

void Trial::fail(std::string what) {
  ++failed;
  if (errors.size() < 8) errors.push_back(std::move(what));
}

namespace {

void hash_summary(common::Hasher128& h, const obs::HistogramSummary& s) {
  h.u64(s.count).f64(s.sum).f64(s.min).f64(s.max).f64(s.p50).f64(s.p95).f64(
      s.p99);
}

}  // namespace

void Trial::seal() {
  common::Hasher128 h(0xbe7c);
  for (const sim::Samples& s : lat) {
    h.u64(s.count());
    for (double v : s.values()) h.f64(v);
  }
  hash_summary(h, lcp);
  hash_summary(h, rpc_call);
  hash_summary(h, fabric_transfer);
  h.u64(ops).u64(failed).f64(sim_seconds).u64(steps);
  h.u64(rpc.calls).u64(rpc.bulk_transfers).f64(rpc.bulk_bytes);
  h.f64(rpc.request_bytes).f64(rpc.response_bytes);
  h.u64(rpc.deadline_exceeded).u64(rpc.unavailable);
  h.f64(stored_physical).f64(stored_logical);
  fingerprint = h.finish();
}

double Trial::total_latency() const {
  double sum = 0;
  for (const sim::Samples& s : lat) {
    for (double v : s.values()) sum += v;
  }
  return sum;
}

// ---- TimedPhase ------------------------------------------------------------

void TimedPhase::begin(Cluster& c, obs::MetricsRegistry* registry,
                       obs::Tracer* tracer) {
  c.rpc.set_metrics(registry);
  c.fabric.set_metrics(registry);
  c.rpc.set_tracer(tracer);
  rpc0_ = c.rpc.stats();
  steps0_ = c.sim.steps();
  sim0_ = c.sim.now();
  cpu0_ = cpu_seconds();
}

void TimedPhase::end(Cluster& c, const obs::MetricsRegistry& registry,
                     Trial& t) {
  t.host_timed_cpu_s = cpu_seconds() - cpu0_;
  t.sim_seconds = c.sim.now() - sim0_;
  t.steps = c.sim.steps() - steps0_;
  const net::RpcStats& now = c.rpc.stats();
  t.rpc.calls = now.calls - rpc0_.calls;
  t.rpc.bulk_transfers = now.bulk_transfers - rpc0_.bulk_transfers;
  t.rpc.bulk_bytes = now.bulk_bytes - rpc0_.bulk_bytes;
  t.rpc.request_bytes = now.request_bytes - rpc0_.request_bytes;
  t.rpc.response_bytes = now.response_bytes - rpc0_.response_bytes;
  t.rpc.deadline_exceeded = now.deadline_exceeded - rpc0_.deadline_exceeded;
  t.rpc.unavailable = now.unavailable - rpc0_.unavailable;
  for (const auto& [name, hist] : registry.histograms()) {
    if (name == "client.lcp_query_seconds") t.lcp = hist->summary();
    if (name == "rpc.call_seconds") t.rpc_call = hist->summary();
    if (name == "fabric.transfer_seconds") t.fabric_transfer = hist->summary();
  }
  c.rpc.set_tracer(nullptr);
  c.rpc.set_metrics(nullptr);
  c.fabric.set_metrics(nullptr);
}

// ---- TimedRepository -------------------------------------------------------

std::vector<common::Hash128> identities_of(const model::Model& m) {
  std::vector<common::Hash128> out;
  out.reserve(m.vertex_count());
  for (common::VertexId v = 0; v < m.vertex_count(); ++v) {
    out.push_back(m.segment(v).identity());
  }
  return out;
}

sim::CoTask<common::Result<std::optional<core::TransferContext>>>
// NOLINTNEXTLINE(cppcoreguidelines-avoid-reference-coroutine-parameters)
TimedRepository::prepare_transfer(common::NodeId client,
                                  const model::ArchGraph& g,
                                  bool fetch_payload) {
  double t0 = sim_->now();
  auto r = co_await inner_->prepare_transfer(client, g, fetch_payload);
  trial_->record(Op::kTransfer, sim_->now() - t0, r.ok());
  co_return r;
}

sim::CoTask<common::Status> TimedRepository::store(
    // NOLINTNEXTLINE(cppcoreguidelines-avoid-reference-coroutine-parameters)
    common::NodeId client, const model::Model& m,
    const core::TransferContext* tc) {
  double t0 = sim_->now();
  common::Status st = co_await inner_->store(client, m, tc);
  trial_->record(Op::kPut, sim_->now() - t0, st.ok());
  if (st.ok()) {
    identities_[m.id()] = identities_of(m);
    graphs_.push_back(m.graph());
    quality_.push_back(m.quality());
    if (sample_.size() < 8) sample_.push_back(m);
  }
  co_return st;
}

sim::CoTask<common::Result<model::Model>> TimedRepository::load(
    common::NodeId client, common::ModelId id) {
  double t0 = sim_->now();
  auto r = co_await inner_->load(client, id);
  trial_->record(Op::kRead, sim_->now() - t0, r.ok());
  if (r.ok()) {
    auto it = identities_.find(id);
    if (it == identities_.end() || identities_of(r.value()) != it->second) {
      trial_->fail("read of " + id.to_string() +
                   " returned segments other than those stored");
    }
  }
  co_return r;
}

sim::CoTask<common::Status> TimedRepository::retire(common::NodeId client,
                                                    common::ModelId id) {
  double t0 = sim_->now();
  common::Status st = co_await inner_->retire(client, id);
  trial_->record(Op::kRetire, sim_->now() - t0, st.ok());
  co_return st;
}

// ---- CountingKv ------------------------------------------------------------

storage::Status CountingKv::put(std::string_view key, common::Buffer value) {
  double c0 = cpu_seconds();
  storage::Status st = inner_->put(key, std::move(value));
  counts_.put_s += cpu_seconds() - c0;
  ++counts_.puts;
  return st;
}

storage::Result<common::Buffer> CountingKv::get(std::string_view key) const {
  double c0 = cpu_seconds();
  auto r = inner_->get(key);
  counts_.get_s += cpu_seconds() - c0;
  ++counts_.gets;
  return r;
}

storage::Status CountingKv::erase(std::string_view key) {
  double c0 = cpu_seconds();
  storage::Status st = inner_->erase(key);
  counts_.erase_s += cpu_seconds() - c0;
  ++counts_.erases;
  return st;
}

// ---- layer metrics ---------------------------------------------------------

std::vector<core::ProviderStats> provider_stats(
    const core::EvoStoreRepository& repo) {
  std::vector<core::ProviderStats> out;
  for (size_t p = 0; p < repo.provider_count(); ++p) {
    out.push_back(repo.provider(p).stats());
  }
  return out;
}

std::vector<storage::ChunkStoreStats> chunk_stats(
    const core::EvoStoreRepository& repo) {
  std::vector<storage::ChunkStoreStats> out;
  for (size_t p = 0; p < repo.provider_count(); ++p) {
    out.push_back(repo.provider(p).chunk_store().stats());
  }
  return out;
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Span families reported with self times (README.md, layer `obs`).
constexpr const char* kSpanFamilies[] = {
    "attempt",  "rpc",    "serve",   "segment_write", "segment_read",
    "kv_commit", "encode", "decode", "lcp_leg",       "lcp_scan",
    "lcp_index", "modify_refs", "peer_read"};

std::string span_family(const std::string& name) {
  size_t colon = name.find(':');
  return colon == std::string::npos ? name : name.substr(0, colon);
}

/// Self time of every complete span: its duration minus the part of its
/// interval covered by its (complete) children.
void span_self_times(const obs::Tracer& tracer,
                     std::map<std::string, sim::Samples>& self_us,
                     std::map<std::string, sim::Samples>& serve_us) {
  const std::vector<obs::SpanRecord>& recs = tracer.records();
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(recs.size());
  for (size_t i = 0; i < recs.size(); ++i) index[recs[i].span_id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(recs.size());
  for (const obs::SpanRecord& r : recs) {
    if (!r.complete() || r.parent_span_id == 0) continue;
    auto it = index.find(r.parent_span_id);
    if (it != index.end()) children[it->second].emplace_back(r.start, r.end);
  }
  for (size_t i = 0; i < recs.size(); ++i) {
    const obs::SpanRecord& r = recs[i];
    if (!r.complete()) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, r.start);
      hi = std::min(hi, r.end);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    double dur = r.end - r.start;
    self_us[span_family(r.name)].add((dur - covered) * 1e6);
    if (r.name.rfind("serve:", 0) == 0) serve_us[r.name].add(dur * 1e6);
  }
}

}  // namespace

void common_layer_metrics(core::EvoStoreRepository& repo,
                          const std::vector<common::NodeId>& clients,
                          const obs::Tracer& tracer,
                          const std::vector<core::ProviderStats>& before,
                          const std::vector<storage::ChunkStoreStats>& chunks0,
                          Trial& t, std::map<std::string, double>& out) {
  // core.provider + obs: handler latencies and span self times.
  std::map<std::string, sim::Samples> self_us;
  std::map<std::string, sim::Samples> serve_us;
  span_self_times(tracer, self_us, serve_us);
  auto serve_q = [&](const char* method, double q) {
    auto it = serve_us.find(std::string("serve:") + method);
    return it == serve_us.end() ? 0.0 : it->second.quantile(q);
  };
  out["provider.put_p50_us"] = serve_q(core::Provider::kPutModel, 0.5);
  out["provider.put_p99_us"] = serve_q(core::Provider::kPutModel, 0.99);
  out["provider.read_p50_us"] = serve_q(core::Provider::kReadSegments, 0.5);
  out["provider.read_p99_us"] = serve_q(core::Provider::kReadSegments, 0.99);
  out["provider.lcp_p50_us"] = serve_q(core::Provider::kLcpQuery, 0.5);
  out["provider.lcp_p99_us"] = serve_q(core::Provider::kLcpQuery, 0.99);
  out["provider.refs_p99_us"] = serve_q(core::Provider::kModifyRefs, 0.99);
  std::string absent;
  for (const char* family : kSpanFamilies) {
    auto it = self_us.find(family);
    bool seen = it != self_us.end();
    if (!seen) absent += std::string(absent.empty() ? "" : ", ") + family;
    out[std::string("span.") + family + ".self_p50_us"] =
        seen ? it->second.quantile(0.5) : 0.0;
    out[std::string("span.") + family + ".self_p99_us"] =
        seen ? it->second.quantile(0.99) : 0.0;
  }
  if (!absent.empty()) {
    t.notes.push_back("span families with no spans here (reported as 0): " +
                      absent);
  }

  // core.lcp + core.prefix_index: provider counters over the timed phase.
  double queries = 0, scanned = 0, visits = 0, answers = 0;
  double hits = 0, misses = 0;
  double index_bytes = 0;
  for (size_t p = 0; p < repo.provider_count(); ++p) {
    const core::ProviderStats& s = repo.provider(p).stats();
    queries += static_cast<double>(s.lcp_queries - before[p].lcp_queries);
    scanned += static_cast<double>(s.lcp_models_scanned -
                                   before[p].lcp_models_scanned);
    visits += static_cast<double>(s.lcp_vertex_visits -
                                  before[p].lcp_vertex_visits);
    answers += static_cast<double>(s.lcp_index_answers -
                                   before[p].lcp_index_answers);
    const storage::ChunkStoreStats& cs = repo.provider(p).chunk_store().stats();
    hits += static_cast<double>(cs.hits - chunks0[p].hits);
    misses += static_cast<double>(cs.misses - chunks0[p].misses);
    index_bytes +=
        static_cast<double>(repo.provider(p).prefix_index().memory_bytes());
  }
  double broadcasts = static_cast<double>(t.lcp.count);
  out["lcp.models_scanned_per_query"] = ratio(scanned, broadcasts);
  out["lcp.vertex_visits_per_query"] = ratio(visits, broadcasts);
  out["prefix_index.answer_ratio"] = ratio(answers, queries);
  out["prefix_index.bytes"] = index_bytes;
  out["chunk.dedup_hit_ratio"] = ratio(hits, hits + misses);

  // compress + cache: the participating clients' own counters.
  double encodes = 0, decodes = 0, fallbacks = 0, in = 0, phys = 0;
  double enc_s = 0, dec_s = 0;
  cache::CacheStats cache{};
  std::unordered_set<common::NodeId> seen;
  for (common::NodeId node : clients) {
    if (!seen.insert(node).second) continue;
    core::Client& cl = repo.client(node);
    for (const compress::CodecStats& s : cl.codec_stats()) {
      encodes += static_cast<double>(s.encodes);
      decodes += static_cast<double>(s.decodes);
      fallbacks += static_cast<double>(s.fallbacks);
      in += static_cast<double>(s.bytes_in);
      phys += static_cast<double>(s.bytes_out);
      enc_s += s.encode_seconds.sum();
      dec_s += s.decode_seconds.sum();
    }
    if (const cache::SegmentCache* sc = cl.segment_cache()) {
      const cache::CacheStats& s = sc->stats();
      cache.hits += s.hits;
      cache.misses += s.misses;
      cache.revalidations += s.revalidations;
      cache.peer_hits += s.peer_hits;
      cache.evictions += s.evictions;
      cache.bytes_saved += s.bytes_saved;
    }
  }
  out["codec.encode_cpu_us"] = ratio(enc_s * 1e6, encodes);
  out["codec.decode_cpu_us"] = ratio(dec_s * 1e6, decodes);
  out["codec.physical_per_logical"] = ratio(phys, in);
  out["codec.fallback_ratio"] = ratio(fallbacks, encodes);
  double served = static_cast<double>(cache.hits + cache.revalidations +
                                      cache.peer_hits);
  double reads = static_cast<double>(t.lat[static_cast<int>(Op::kRead)].count());
  out["cache.hit_ratio"] =
      ratio(served, served + static_cast<double>(cache.misses));
  out["cache.evictions_per_read"] =
      ratio(static_cast<double>(cache.evictions), reads);
  out["cache.bytes_saved_per_read"] =
      ratio(static_cast<double>(cache.bytes_saved), reads);

  core::ClientFaultStats faults = repo.total_client_fault_stats();
  out["client.retries"] = static_cast<double>(faults.retries);
  out["client.read_failovers"] = static_cast<double>(faults.read_failovers);
}

// ---- replays ---------------------------------------------------------------

namespace {

// Keeps replayed results observable so the optimizer cannot drop the work.
std::atomic<uint64_t> g_sink{0};

/// Mean host CPU microseconds per call of `run(i)` for i in [0, n).
template <typename Fn>
double replay_cpu_us(size_t n, Fn&& run) {
  if (n == 0) return 0;
  double c0 = cpu_seconds();
  for (size_t i = 0; i < n; ++i) run(i);
  return (cpu_seconds() - c0) / static_cast<double>(n) * 1e6;
}

template <typename Msg>
double serde_ns_per_kib(const std::vector<Msg>& msgs, int rounds) {
  if (msgs.empty()) return 0;
  double bytes = 0;
  double c0 = cpu_seconds();
  for (int r = 0; r < rounds; ++r) {
    for (const Msg& m : msgs) {
      common::Serializer s;
      m.serialize(s);
      common::Bytes wire = std::move(s).take();
      common::Deserializer d(wire);
      Msg back = Msg::deserialize(d);
      g_sink.fetch_add(d.ok() ? wire.size() : 1, std::memory_order_relaxed);
      bytes += static_cast<double>(wire.size());
      (void)back;
    }
  }
  double ns = (cpu_seconds() - c0) * 1e9;
  return ratio(ns, bytes / 1024.0);
}

}  // namespace

void replay_layers(const ReplayInputs& in, std::map<std::string, double>& out) {
  // core.lcp: Algorithm 1 over catalog x query sample.
  {
    core::LcpWorkspace ws;
    core::LcpCost cost;
    double pairs = 0;
    double c0 = cpu_seconds();
    for (const model::ArchGraph& q : in.queries) {
      for (const model::ArchGraph& a : in.catalog) {
        g_sink.fetch_add(ws.run(q, a, &cost).length(),
                         std::memory_order_relaxed);
        pairs += 1;
      }
    }
    out["lcp.scan_cpu_ns_per_model"] = ratio((cpu_seconds() - c0) * 1e9, pairs);
  }
  // core.prefix_index: lookups on an index over the same catalog.
  {
    core::PrefixIndex idx;
    for (size_t i = 0; i < in.catalog.size(); ++i) {
      idx.insert(common::ModelId{i + 1}, in.catalog_quality[i], in.catalog[i]);
    }
    double lookups = 0;
    double c0 = cpu_seconds();
    for (int r = 0; r < 64 && !in.queries.empty(); ++r) {
      for (const model::ArchGraph& q : in.queries) {
        g_sink.fetch_add(idx.lookup(q).depth, std::memory_order_relaxed);
        lookups += 1;
      }
    }
    out["prefix_index.lookup_cpu_ns"] =
        ratio((cpu_seconds() - c0) * 1e9, lookups);
  }
  // core.wire: the workload's own messages, serialize + deserialize.
  {
    std::vector<core::wire::LcpQueryRequest> lcp;
    for (const model::ArchGraph& q : in.queries) lcp.push_back({q});
    std::vector<core::wire::PutModelRequest> puts;
    std::vector<core::wire::ReadSegmentsResponse> reads;
    for (const model::Model& m : in.models) {
      core::wire::PutModelRequest req;
      req.id = m.id();
      req.quality = m.quality();
      req.graph = m.graph();
      core::wire::ReadSegmentsResponse resp;
      for (common::VertexId v = 0; v < m.vertex_count(); ++v) {
        auto env = compress::compress_segment(m.segment(v),
                                              compress::CodecId::kRaw);
        if (!env.ok()) continue;
        req.new_segments.emplace_back(v, env.value());
        resp.info.push_back(core::wire::ReadEntryInfo{});
        resp.payload_bytes += env->physical_bytes;
        resp.segments.push_back(std::move(env).value());
      }
      puts.push_back(std::move(req));
      reads.push_back(std::move(resp));
    }
    out["wire.lcp_query_serde_ns_per_kib"] = serde_ns_per_kib(lcp, 64);
    out["wire.put_model_serde_ns_per_kib"] = serde_ns_per_kib(puts, 64);
    out["wire.read_segments_serde_ns_per_kib"] = serde_ns_per_kib(reads, 64);
  }
  // cache: SegmentCache lookup + insert-on-miss over the recorded key stream.
  {
    uint64_t capacity = in.cache_capacity;
    if (capacity == 0) {
      std::unordered_map<common::SegmentKey, uint64_t> distinct;
      for (size_t i = 0; i < in.read_keys.size(); ++i) {
        distinct[in.read_keys[i]] = in.read_key_bytes[i];
      }
      for (const auto& [key, bytes] : distinct) capacity += bytes;
      capacity = std::max<uint64_t>(1, capacity / 8);
    }
    cache::SegmentCache sc(cache::CacheConfig{.capacity_bytes = capacity});
    double c0 = cpu_seconds();
    for (size_t i = 0; i < in.read_keys.size(); ++i) {
      if (sc.lookup(in.read_keys[i]) == nullptr) {
        compress::CompressedSegment env;
        env.logical_bytes = in.read_key_bytes[i];
        env.physical_bytes = in.read_key_bytes[i];
        sc.insert(in.read_keys[i], std::move(env), 1, 0.0);
      }
    }
    out["cache.lookup_cpu_ns"] = ratio((cpu_seconds() - c0) * 1e9,
                                       static_cast<double>(in.read_keys.size()));
  }
}

void storage_layer_metrics(const std::vector<const CountingKv*>& kvs,
                           double dead_bytes, double disk_bytes, uint64_t ops,
                           std::map<std::string, double>& out) {
  CountingKv::Counts sum;
  for (const CountingKv* kv : kvs) {
    const CountingKv::Counts& c = kv->counts();
    sum.puts += c.puts;
    sum.gets += c.gets;
    sum.erases += c.erases;
    sum.put_s += c.put_s;
    sum.get_s += c.get_s;
    sum.erase_s += c.erase_s;
  }
  out["kv.ops_per_op"] = ratio(static_cast<double>(sum.puts + sum.gets +
                                                   sum.erases),
                               static_cast<double>(ops));
  out["kv.put_cpu_ns"] = ratio(sum.put_s * 1e9, static_cast<double>(sum.puts));
  out["kv.get_cpu_ns"] = ratio(sum.get_s * 1e9, static_cast<double>(sum.gets));
  out["kv.erase_cpu_ns"] =
      ratio(sum.erase_s * 1e9, static_cast<double>(sum.erases));
  out["kv.dead_byte_ratio"] = ratio(dead_bytes, disk_bytes);
}

void replay_client(Cluster& c, core::Client& client, const ClientReplay& in,
                   std::map<std::string, double>& out) {
  sim::Simulation& sim = c.sim;
  out["client.lcp_cpu_us"] = replay_cpu_us(in.queries.size(), [&](size_t i) {
    (void)sim.run_until_complete(client.query_lcp(in.queries[i]));
  });
  std::vector<std::optional<core::TransferContext>> pinned;
  out["client.transfer_cpu_us"] =
      replay_cpu_us(in.queries.size(), [&](size_t i) {
        auto r = sim.run_until_complete(
            client.prepare_transfer(in.queries[i], true));
        if (r.ok()) pinned.push_back(std::move(r).value());
      });
  for (const auto& tc : pinned) {
    if (tc.has_value()) (void)sim.run_until_complete(client.abandon_transfer(*tc));
  }
  out["client.read_cpu_us"] = replay_cpu_us(in.reads.size(), [&](size_t i) {
    (void)sim.run_until_complete(client.get_model(in.reads[i]));
  });
  out["client.put_cpu_us"] = replay_cpu_us(in.put_models.size(), [&](size_t i) {
    (void)sim.run_until_complete(client.put_model(in.put_models[i], nullptr));
  });
  out["client.retire_cpu_us"] =
      replay_cpu_us(in.put_models.size(), [&](size_t i) {
        (void)sim.run_until_complete(client.retire(in.put_models[i].id()));
      });
}

void read_keys_of(const core::EvoStoreRepository& repo, common::ModelId id,
                  std::vector<common::SegmentKey>* keys,
                  std::vector<uint64_t>* bytes) {
  const core::Membership& m = repo.membership();
  for (common::ProviderId p : m.replicas(id)) {
    const core::OwnerMap* owners = repo.provider(p).owner_map(id);
    if (owners == nullptr) continue;
    for (const common::SegmentKey& key : owners->entries()) {
      uint64_t size = 0;
      for (common::ProviderId q : m.replicas(key.owner)) {
        if (const auto* env = repo.provider(q).segment_envelope(key)) {
          size = env->physical_bytes;
          break;
        }
      }
      keys->push_back(key);
      bytes->push_back(size);
    }
    return;
  }
}

// ---- ScratchDir ------------------------------------------------------------

namespace {
std::filesystem::path& scratch_root() {
  static std::filesystem::path root = ".bench_build/perfbench-scratch";
  return root;
}
}  // namespace

void ScratchDir::set_root(std::filesystem::path root) {
  scratch_root() = std::move(root);
}

ScratchDir::ScratchDir(const std::string& name) {
  static uint64_t counter = 0;
  path_ = scratch_root() / (name + "-" + std::to_string(::getpid()) + "-" +
                            std::to_string(counter++));
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::create_directories(path_, ec);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench
