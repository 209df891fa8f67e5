// Workload `hub_zipf`: model-hub serving (the shape TStore and ZipLLM
// describe): a few base models with large fine-tune families and skewed,
// open-loop reads.
//
// 32 GPUs (8 providers). Set-up stores four 64 MiB chain bases of 31 to 33
// layers (workload::generate_chain) and 64 fine-tunes per base whose last
// four layers are delta-coded against the base. The timed phase is an open-loop
// Poisson arrival stream in simulated time: 90 % get_model with zipf(1.0)
// popularity over the preloaded models, 10 % fine-tune writes
// (prepare_transfer + put_model of a new transient fine-tune, after which
// the family's previous transient is retired). Each compute node's client
// keeps a segment cache of about an eighth of the distinct stored bytes.
// Reads are timed from their arrival's due time and every result's
// segment identities are checked against those recorded at write time.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "harness.h"
#include "workload/arch_generator.h"

namespace perfbench {

namespace {

constexpr int kGpus = 32;
constexpr int kFamilies = 4;
constexpr int kFinetunes = 64;
constexpr int kLayers = 32;
constexpr size_t kModelBytes = 64ull << 20;
constexpr size_t kFinetunedLayers = 4;
constexpr double kUpdateFraction = 0.25;
constexpr size_t kArrivals = 18000;
constexpr double kRate = 150;  // arrivals per simulated second
constexpr double kReadFraction = 0.9;
constexpr double kZipfExponent = 1.0;
constexpr uint64_t kCacheBytes = 96ull << 20;

struct Arrival {
  double due = 0;
  bool read = true;
  size_t node = 0;    // index into Cluster::nodes
  size_t target = 0;  // read: model rank; write: family
};

struct Inputs {
  std::vector<model::ArchGraph> family_graph;
  std::vector<size_t> rank_to_model;  // popularity rank -> preload index
  std::vector<Arrival> arrivals;
};

Inputs make_inputs(uint64_t seed, size_t nodes) {
  Inputs in;
  for (int f = 0; f < kFamilies; ++f) {
    workload::ArchGenConfig cfg;
    cfg.total_bytes = kModelBytes;
    cfg.seed = common::hash_combine(seed, static_cast<uint64_t>(f));
    // 31..33 layers: the seed moves LCP work a little.
    cfg.leaf_layers = kLayers - 1 + static_cast<int>(cfg.seed % 3);
    cfg.variation = 0.25;
    in.family_graph.push_back(workload::generate_chain(cfg));
  }
  // Popularity ranks interleave the families, bases first: rank r is
  // member r / 4 of family r % 4 (member 0 = the base).
  size_t models = kFamilies * (1 + kFinetunes);
  in.rank_to_model.resize(models);
  for (size_t r = 0; r < models; ++r) {
    size_t family = r % kFamilies;
    size_t member = r / kFamilies;
    in.rank_to_model[r] =
        member == 0 ? family : kFamilies + family * kFinetunes + (member - 1);
  }
  common::Xoshiro256 rng(common::hash_combine(seed, 0x4b));
  std::vector<double> cdf(models);
  double total = 0;
  for (size_t k = 0; k < models; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    cdf[k] = total;
  }
  double now = 0;
  for (size_t i = 0; i < kArrivals; ++i) {
    Arrival a;
    now += rng.exponential(1.0 / kRate);
    a.due = now;
    a.node = rng.below(nodes);
    a.read = rng.uniform() < kReadFraction;
    if (a.read) {
      double u = rng.uniform() * total;
      a.target = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      a.target = std::min(a.target, models - 1);
    } else {
      a.target = rng.below(kFamilies);
    }
    in.arrivals.push_back(a);
  }
  return in;
}

/// A fine-tune of `tc`'s ancestor: inherited prefix, last layers perturbed.
model::Model make_finetune(common::ModelId id, const model::ArchGraph& g,
                           core::TransferContext& tc, uint64_t seed,
                           double quality) {
  model::Model m(id, g);
  size_t n = tc.matches.size();
  size_t ft = std::min(kFinetunedLayers, n);
  for (size_t i = 0; i < n; ++i) {
    common::VertexId v = tc.matches[i].first;
    if (i + ft >= n) {
      m.segment(v) = model::finetune_segment(
          tc.prefix_segments[i], common::hash_combine(seed, v),
          kUpdateFraction);
      tc.finetuned.push_back(v);
    } else {
      m.segment(v) = tc.prefix_segments[i];
    }
  }
  std::sort(tc.finetuned.begin(), tc.finetuned.end());
  m.set_quality(quality);
  return m;
}

}  // namespace

Trial run_hub_zipf(uint64_t seed, bool traced) {
  Trial t;
  obs::MetricsRegistry registry;  // outlives the clients that bind it
  double c0 = cpu_seconds();
  Cluster c(kGpus);
  Inputs in = make_inputs(seed, c.nodes.size());
  core::ClientConfig ccfg = deployment_client_config();
  ccfg.cache.capacity_bytes = kCacheBytes;
  core::EvoStoreRepository repo(c.rpc, c.provider_nodes,
                                deployment_provider_config(), {}, ccfg);

  // Preload bases and fine-tunes from the controller's client.
  std::vector<common::ModelId> ids;
  std::vector<std::vector<common::Hash128>> identities;
  std::vector<model::Model> samples;
  auto preload = [&]() -> sim::CoTask<void> {
    core::Client& client = repo.client(c.controller);
    std::vector<common::ModelId> bases;
    for (int f = 0; f < kFamilies; ++f) {
      model::Model base = workload::make_base_model(
          repo.allocate_id(), in.family_graph[f],
          common::hash_combine(seed, 0xba5e + static_cast<uint64_t>(f)));
      base.set_quality(0.9);
      common::Status st = co_await client.put_model(base, nullptr);
      if (!st.ok()) t.fail("preload base: " + st.to_string());
      ids.push_back(base.id());
      bases.push_back(base.id());
      identities.push_back(identities_of(base));
      samples.push_back(std::move(base));
    }
    for (int f = 0; f < kFamilies; ++f) {
      for (int j = 0; j < kFinetunes; ++j) {
        auto tc = co_await client.prepare_transfer(in.family_graph[f], true);
        if (!tc.ok() || !tc->has_value() || (*tc)->ancestor != bases[f]) {
          t.fail("preload transfer did not derive from the family base");
          continue;
        }
        model::Model m = make_finetune(
            repo.allocate_id(), in.family_graph[f], **tc,
            common::hash_combine(seed, ids.size()), 0.5);
        common::Status st = co_await client.put_model(m, &**tc);
        if (!st.ok()) t.fail("preload fine-tune: " + st.to_string());
        ids.push_back(m.id());
        identities.push_back(identities_of(m));
        if (samples.size() < 8) samples.push_back(std::move(m));
      }
    }
  };
  c.sim.run_until_complete(preload());
  t.host_setup_s = cpu_seconds() - c0;
  double distinct = static_cast<double>(repo.stored_pre_dedup_physical_bytes()) /
                    static_cast<double>(ccfg.replication);
  char note[256];
  std::snprintf(note, sizeof(note),
                "hub_zipf: %d GPUs, %zu providers, %d bases x %d fine-tunes "
                "(64 MiB, %d+-1 layers, last %zu delta-coded), %zu open-loop "
                "arrivals at %.0f/s, %.0f%% zipf(%.1f) reads, cache %.0f MiB "
                "per client = 1/%.1f of distinct stored bytes",
                kGpus, c.provider_nodes.size(), kFamilies, kFinetunes, kLayers,
                kFinetunedLayers, kArrivals, kRate, kReadFraction * 100,
                kZipfExponent, static_cast<double>(kCacheBytes) / (1 << 20),
                distinct / static_cast<double>(kCacheBytes));
  t.notes.push_back(note);

  std::optional<obs::Tracer> tracer;
  if (traced) tracer.emplace(c.sim);
  auto before = provider_stats(repo);
  auto chunks0 = chunk_stats(repo);
  std::vector<common::ModelId> transient(kFamilies);
  std::vector<common::ModelId> read_order;
  uint64_t writes = 0;
  TimedPhase phase;
  phase.begin(c, &registry, traced ? &*tracer : nullptr);
  auto serve = [&](size_t i) -> sim::CoTask<void> {
    const Arrival& a = in.arrivals[i];
    core::Client& client = repo.client(c.nodes[a.node]);
    double due = a.due;
    if (a.read) {
      size_t idx = in.rank_to_model[a.target];
      read_order.push_back(ids[idx]);
      auto r = co_await client.get_model(ids[idx]);
      t.record(Op::kRead, c.sim.now() - due, r.ok());
      if (r.ok() && identities_of(r.value()) != identities[idx]) {
        t.fail("read of " + ids[idx].to_string() +
               " returned segments other than those stored");
      }
      co_return;
    }
    const model::ArchGraph& g = in.family_graph[a.target];
    auto tc = co_await client.prepare_transfer(g, true);
    t.record(Op::kTransfer, c.sim.now() - due, tc.ok() && tc->has_value());
    if (!tc.ok() || !tc->has_value()) co_return;
    model::Model m = make_finetune(client.allocate_id(), g, **tc,
                                   common::hash_combine(seed, ~i), 0.1);
    double t1 = c.sim.now();
    common::Status st = co_await client.put_model(m, &**tc);
    t.record(Op::kPut, c.sim.now() - t1, st.ok());
    if (!st.ok()) co_return;
    ++writes;
    common::ModelId previous = transient[a.target];
    transient[a.target] = m.id();
    if (!previous.valid()) co_return;
    double t2 = c.sim.now();
    common::Status rs = co_await client.retire(previous);
    t.record(Op::kRetire, c.sim.now() - t2, rs.ok());
  };
  auto generator = [&]() -> sim::CoTask<void> {
    std::vector<sim::Future<void>> inflight;
    inflight.reserve(in.arrivals.size());
    for (size_t i = 0; i < in.arrivals.size(); ++i) {
      co_await c.sim.delay(std::max(0.0, in.arrivals[i].due - c.sim.now()));
      inflight.push_back(c.sim.spawn(serve(i)));
    }
    for (auto& f : inflight) co_await f;
  };
  double start = c.sim.now();
  for (Arrival& a : in.arrivals) a.due += start;
  c.sim.run_until_complete(generator());
  t.stored_physical = static_cast<double>(repo.stored_physical_bytes());
  t.stored_logical = static_cast<double>(repo.stored_payload_bytes());
  phase.end(c, registry, t);

  if (traced) {
    common_layer_metrics(repo, c.nodes, *tracer, before, chunks0, t, t.layer);
    storage_layer_metrics({}, 0, 0, t.ops, t.layer);
    ReplayInputs rin;
    for (size_t i = 0; i < ids.size(); ++i) {
      rin.catalog.push_back(in.family_graph[i < kFamilies
                                                ? i
                                                : (i - kFamilies) / kFinetunes]);
      rin.catalog_quality.push_back(i < kFamilies ? 0.9 : 0.5);
    }
    for (size_t i = 0; i < 16; ++i) {
      rin.queries.push_back(in.family_graph[i % kFamilies]);
    }
    rin.models = samples;
    for (size_t i = 0; i < read_order.size() && i < 2000; ++i) {
      read_keys_of(repo, read_order[i], &rin.read_keys, &rin.read_key_bytes);
    }
    rin.cache_capacity = kCacheBytes;
    replay_layers(rin, t.layer);

    ClientReplay cr;
    cr.queries = rin.queries;
    for (size_t r = 0; r < 16; ++r) {
      cr.reads.push_back(ids[in.rank_to_model[r % ids.size()]]);
    }
    core::Client& client = repo.client(c.nodes[0]);
    for (size_t i = 0; i < cr.queries.size(); ++i) {
      cr.put_models.push_back(workload::make_base_model(
          client.allocate_id(), cr.queries[i], common::hash_combine(seed, i)));
    }
    replay_client(c, client, cr, t.layer);
  }
  if (writes == 0) t.fail("no fine-tune write completed");
  t.seal();
  return t;
}

}  // namespace perfbench
