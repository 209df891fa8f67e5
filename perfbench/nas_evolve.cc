// Workload `nas_evolve`: the paper's NAS loop (§5.6), kept write-heavy.
//
// The runner on the CANDLE-ATTN search space with 128 simulated GPUs
// (32 providers), half-epoch training and half of every transferred prefix
// fine-tuned, so repository calls from many workers overlap. Candidates are
// sampled at random (sample_size 0) and the population keeps the last 200:
// aged evolution converges to seed-specific regions of the space whose
// model sizes differ several-fold, which made every simulated latency swing
// with the seed. Set-up stores and retires a previous search's last
// population (200 random candidates), so the logs are not fresh. Dropped
// candidates are retired; the segment cache is off as in the paper; every
// provider persists to its own LogKv (no fsync). The runner talks to the
// repository through TimedRepository, which times put / transfer / retire
// on the simulated clock. After the search, ten nodes read the surviving
// population back at once (checked against the stored segment identities);
// then the survivors are retired and the repository must drain to zero
// models, segments and payload bytes.
#include <optional>
#include <string>

#include "harness.h"
#include "nas/attn_space.h"
#include "nas/runner.h"
#include "storage/log_kv.h"

namespace perfbench {

namespace {

constexpr int kGpus = 128;
constexpr size_t kCandidates = 1500;
constexpr size_t kPopulation = 400;
constexpr size_t kReaders = 10;
constexpr size_t kPreviousSearch = 200;

/// The deployment: the cluster, one LogKv per provider (wrapped in a
/// CountingKv when traced) and the repository over them.
struct Deployment {
  Cluster c{kGpus};
  ScratchDir dir{"nas_evolve"};
  std::vector<std::unique_ptr<storage::LogKv>> logs;
  std::vector<std::unique_ptr<CountingKv>> counting;
  std::unique_ptr<core::EvoStoreRepository> repo;
  std::string error;

  explicit Deployment(bool traced) {
    storage::LogKvOptions kv_options;
    kv_options.sync_every_write = false;
    std::vector<storage::KvStore*> backends;
    for (size_t p = 0; p < c.provider_nodes.size(); ++p) {
      std::string name = std::to_string(p);
      name.insert(0, 1, 'p');
      auto kv = storage::LogKv::open(dir.path() / name, kv_options);
      if (!kv.ok()) {
        error = "LogKv open: " + kv.status().to_string();
        return;
      }
      logs.push_back(std::move(kv).value());
      if (traced) {
        counting.push_back(std::make_unique<CountingKv>(*logs.back()));
        backends.push_back(counting.back().get());
      } else {
        backends.push_back(logs.back().get());
      }
    }
    repo = std::make_unique<core::EvoStoreRepository>(
        c.rpc, c.provider_nodes, deployment_provider_config(), backends,
        deployment_client_config());
  }
};

}  // namespace

Trial run_nas_evolve(uint64_t seed, bool traced) {
  Trial t;
  obs::MetricsRegistry registry;  // outlives the clients that bind it
  double c0 = cpu_seconds();
  Deployment d(traced);
  if (!d.error.empty()) {
    t.fail(d.error);
    t.seal();
    return t;
  }
  Cluster& c = d.c;
  core::EvoStoreRepository& repo = *d.repo;
  nas::AttnSearchSpace space;

  // The logs start where a previous search left them: its last population
  // is stored and then retired (from the controller's client, before the
  // timed-phase registry exists), so the search begins on an empty catalog
  // over logs that already hold live and dead records.
  auto previous_search = [&]() -> sim::CoTask<void> {
    core::Client& client = repo.client(c.controller);
    common::Xoshiro256 rng(common::hash_combine(seed, 0x9e10ad));
    std::vector<common::ModelId> stored;
    for (size_t i = 0; i < kPreviousSearch; ++i) {
      model::Model m = model::Model::random(repo.allocate_id(),
                                            space.decode(space.random(rng)),
                                            common::hash_combine(seed, ~i));
      common::Status st = co_await client.put_model(m, nullptr);
      if (st.ok()) {
        stored.push_back(m.id());
      } else {
        t.fail("previous search put: " + st.to_string());
      }
    }
    for (common::ModelId id : stored) {
      common::Status st = co_await client.retire(id);
      if (!st.ok()) t.fail("previous search retire: " + st.to_string());
    }
  };
  c.sim.run_until_complete(previous_search());
  t.host_setup_s = cpu_seconds() - c0;
  TimedRepository timed(repo, c.sim, t);
  nas::NasConfig cfg;
  cfg.total_candidates = kCandidates;
  cfg.population_cap = kPopulation;
  cfg.sample_size = 0;
  cfg.seed = seed;
  cfg.train_fraction = 0.5;
  cfg.finetune_lcp_fraction = 0.5;
  cfg.retire_dropped = true;
  t.notes.push_back("nas_evolve: " + std::to_string(kGpus) + " GPUs, " +
                    std::to_string(c.provider_nodes.size()) + " providers, " +
                    std::to_string(kCandidates) + " candidates, population " +
                    std::to_string(kPopulation) +
                    ", random-search sampling, train_fraction 0.5, "
                    "finetune_lcp_fraction 0.5; set-up stores and retires " +
                    std::to_string(kPreviousSearch) + " models of a previous search");
  t.notes.push_back(
      "LogKv flush policy: one log per provider, sync_every_write=false "
      "(appends reach the OS page cache, never fsync'd)");

  std::optional<obs::Tracer> tracer;
  if (traced) tracer.emplace(c.sim);
  auto before = provider_stats(repo);
  auto chunks0 = chunk_stats(repo);
  TimedPhase phase;
  phase.begin(c, &registry, traced ? &*tracer : nullptr);
  nas::NasResult result = nas::run_nas(c.sim, c.fabric, space, &timed,
                                       c.workers, c.controller, cfg);
  const std::vector<common::ModelId>& survivors = result.final_population;
  std::vector<common::ModelId> read_order;
  auto reader = [&](size_t k) -> sim::CoTask<void> {
    size_t n = survivors.size();
    for (size_t i = 0; i < n; ++i) {
      common::ModelId id = survivors[(i + k * n / kReaders) % n];
      read_order.push_back(id);
      (void)co_await timed.load(c.nodes[k], id);
    }
  };
  std::vector<sim::Future<void>> readers;
  for (size_t k = 0; k < kReaders; ++k) readers.push_back(c.sim.spawn(reader(k)));
  c.sim.run();
  t.stored_physical = static_cast<double>(repo.stored_physical_bytes());
  t.stored_logical = static_cast<double>(repo.stored_payload_bytes());
  phase.end(c, registry, t);
  if (survivors.size() != kPopulation) {
    t.fail("population ended with " + std::to_string(survivors.size()) +
           " stored models");
  }

  if (traced) {
    common_layer_metrics(repo, c.nodes, *tracer, before, chunks0, t, t.layer);
    std::vector<const CountingKv*> kvs;
    double dead = 0, disk = 0;
    for (size_t p = 0; p < d.logs.size(); ++p) {
      kvs.push_back(d.counting[p].get());
      dead += static_cast<double>(d.logs[p]->dead_bytes());
      disk += static_cast<double>(d.logs[p]->disk_bytes());
    }
    storage_layer_metrics(kvs, dead, disk, t.ops, t.layer);

    ReplayInputs in;
    const auto& graphs = timed.stored_graphs();
    for (size_t i = 0; i < graphs.size() && i < 1000; ++i) {
      in.catalog.push_back(graphs[i]);
      in.catalog_quality.push_back(timed.stored_quality()[i]);
    }
    for (size_t i = 0; i < 16 && !graphs.empty(); ++i) {
      in.queries.push_back(graphs[(i * 7919) % graphs.size()]);
    }
    in.models = timed.sample_models();
    for (size_t i = 0; i < read_order.size() && i < 2000; ++i) {
      read_keys_of(repo, read_order[i], &in.read_keys, &in.read_key_bytes);
    }
    replay_layers(in, t.layer);

    ClientReplay cr;
    cr.queries = in.queries;
    for (size_t i = 0; i < 16 && i < survivors.size(); ++i) {
      cr.reads.push_back(survivors[i]);
    }
    core::Client& client = repo.client(c.nodes[0]);
    for (size_t i = 0; i < cr.queries.size(); ++i) {
      cr.put_models.push_back(model::Model::random(
          client.allocate_id(), cr.queries[i], common::hash_combine(seed, i)));
    }
    replay_client(c, client, cr, t.layer);
  }

  // Drain to zero: retire every survivor; nothing may be left behind.
  auto drain = [&]() -> sim::CoTask<void> {
    for (common::ModelId id : survivors) {
      common::Status st = co_await repo.retire(c.workers[0], id);
      if (!st.ok()) t.fail("drain retire: " + st.to_string());
    }
  };
  c.sim.run_until_complete(drain());
  if (repo.total_models() != 0 || repo.total_segments() != 0 ||
      repo.stored_payload_bytes() != 0) {
    t.fail("drain left " + std::to_string(repo.total_models()) + " models, " +
           std::to_string(repo.total_segments()) + " segments, " +
           std::to_string(repo.stored_payload_bytes()) + " payload bytes");
  }
  t.seal();
  return t;
}

}  // namespace perfbench
