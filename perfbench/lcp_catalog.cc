// Workload `lcp_catalog`: the paper's §5.5 LCP query storm with catalog
// maintenance running between the reads.
//
// 32 GPUs (8 providers) with pool modelling off (pool_bandwidth 0). Set-up
// preloads a catalog of branchy DeepSpace architectures. The timed phase
// runs 32 closed-loop workers; each op is drawn from the seed: 84 %
// query_lcp on a mutation of a catalog member, 8 % a new architecture
// stored through prepare_transfer + put_model, 4 % get_model of a member
// (segment identities checked), 4 % retire of a member. DeepSpace graphs
// are branchy, so the prefix index falls back to the Algorithm 1 scan.
//
// Correctness: after the timed phase a fixed query sample is answered by
// the cluster and recomputed with core::longest_common_prefix over the
// whole live catalog; (length, quality, id) must agree.
#include <optional>

#include "core/lcp.h"
#include "harness.h"
#include "workload/deepspace.h"

namespace perfbench {

namespace {

constexpr int kGpus = 32;
constexpr size_t kCatalog = 2000;
constexpr size_t kOps = 2400;
constexpr size_t kOracleQueries = 48;

enum class Kind { kLcp, kDerive, kRead, kRetire };

struct OpSpec {
  Kind kind = Kind::kLcp;
  size_t graph = 0;   // index into Inputs::graphs (kLcp, kDerive)
  size_t member = 0;  // catalog index (kRead, kRetire)
};

struct Inputs {
  std::vector<model::ArchGraph> graphs;  // catalog first, then queries
  std::vector<double> quality;           // catalog members only
  std::vector<std::vector<OpSpec>> per_worker;
  std::vector<size_t> oracle;            // indices into graphs
};

double member_quality(uint64_t seed, size_t i) {
  // Coarse levels so equal-length ties are broken by quality and id.
  return 0.125 * static_cast<double>(common::hash_combine(seed, i) % 8);
}

/// DeepSpace with narrow layers: the graphs keep their branchy shape (the
/// scan's cost), while tensors stay a few KiB so the maintenance ops are
/// metadata-bound like the queries.
workload::DeepSpace make_space() {
  workload::DeepSpaceConfig cfg;
  cfg.input_dim = 8;
  cfg.widths = {8, 16, 24, 32};
  return workload::DeepSpace(cfg);
}

Inputs make_inputs(uint64_t seed, size_t workers) {
  workload::DeepSpace space = make_space();
  common::Xoshiro256 rng(common::hash_combine(seed, 0x1c9));
  Inputs in;
  std::vector<workload::DeepSpaceSeq> seqs;
  for (size_t i = 0; i < kCatalog; ++i) {
    seqs.push_back(space.random(rng));
    in.graphs.push_back(space.decode_graph(seqs.back()));
    in.quality.push_back(member_quality(seed, i));
  }
  auto mutation = [&]() {
    in.graphs.push_back(
        space.decode_graph(space.mutate(seqs[rng.below(seqs.size())], rng)));
    return in.graphs.size() - 1;
  };
  // Members split into a retire pool and a read pool so no read races a
  // retire of the same model.
  std::vector<size_t> members(kCatalog);
  for (size_t i = 0; i < kCatalog; ++i) members[i] = i;
  for (size_t i = kCatalog - 1; i > 0; --i) {
    std::swap(members[i], members[rng.below(i + 1)]);
  }
  size_t retire_pool = kCatalog / 4;
  size_t next_retire = 0;
  in.per_worker.resize(workers);
  for (size_t op = 0; op < kOps; ++op) {
    OpSpec spec;
    double u = rng.uniform();
    if (u < 0.84) {
      spec.kind = Kind::kLcp;
      spec.graph = mutation();
    } else if (u < 0.92) {
      spec.kind = Kind::kDerive;
      spec.graph = mutation();
    } else if (u < 0.96 || next_retire == retire_pool) {
      spec.kind = Kind::kRead;
      spec.member = members[retire_pool + rng.below(kCatalog - retire_pool)];
    } else {
      spec.kind = Kind::kRetire;
      spec.member = members[next_retire++];
    }
    in.per_worker[op % workers].push_back(spec);
  }
  for (size_t q = 0; q < kOracleQueries; ++q) in.oracle.push_back(mutation());
  return in;
}

struct Live {
  const model::ArchGraph* graph;
  double quality;
};

}  // namespace

Trial run_lcp_catalog(uint64_t seed, bool traced) {
  Trial t;
  obs::MetricsRegistry registry;  // outlives the clients that bind it
  double c0 = cpu_seconds();
  Cluster c(kGpus);
  Inputs in = make_inputs(seed, c.workers.size());
  core::ProviderConfig pcfg = deployment_provider_config();
  pcfg.pool_bandwidth = 0;
  core::EvoStoreRepository repo(c.rpc, c.provider_nodes, pcfg, {},
                                deployment_client_config());

  // Preload from the controller's client (timed-phase clients are created
  // later, bound to the timed-phase registry).
  std::vector<common::ModelId> ids(kCatalog);
  std::vector<std::vector<common::Hash128>> identities(kCatalog);
  std::map<common::ModelId, Live> live;
  auto weight_seed = [&](size_t i) { return common::hash_combine(seed, ~i); };
  auto preload = [&]() -> sim::CoTask<void> {
    core::Client& client = repo.client(c.controller);
    for (size_t i = 0; i < kCatalog; ++i) {
      model::Model m =
          model::Model::random(repo.allocate_id(), in.graphs[i], weight_seed(i));
      m.set_quality(in.quality[i]);
      ids[i] = m.id();
      identities[i] = identities_of(m);
      common::Status st = co_await client.put_model(m, nullptr);
      if (!st.ok()) {
        t.fail("preload: " + st.to_string());
        continue;
      }
      live[m.id()] = Live{&in.graphs[i], in.quality[i]};
    }
  };
  c.sim.run_until_complete(preload());
  t.host_setup_s = cpu_seconds() - c0;
  t.notes.push_back("lcp_catalog: " + std::to_string(kGpus) + " GPUs, " +
                    std::to_string(c.provider_nodes.size()) +
                    " providers, DeepSpace catalog " +
                    std::to_string(kCatalog) + ", " + std::to_string(kOps) +
                    " ops from " + std::to_string(c.workers.size()) +
                    " closed-loop workers (84% lcp, 8% derive, 4% read, "
                    "4% retire), pool_bandwidth 0");

  std::optional<obs::Tracer> tracer;
  if (traced) tracer.emplace(c.sim);
  auto before = provider_stats(repo);
  auto chunks0 = chunk_stats(repo);
  std::vector<common::ModelId> read_order;
  TimedPhase phase;
  phase.begin(c, &registry, traced ? &*tracer : nullptr);
  auto worker = [&](size_t w) -> sim::CoTask<void> {
    core::Client& client = repo.client(c.workers[w]);
    for (const OpSpec& op : in.per_worker[w]) {
      double t0 = c.sim.now();
      switch (op.kind) {
        case Kind::kLcp: {
          auto r = co_await client.query_lcp(in.graphs[op.graph]);
          t.record(Op::kLcp, c.sim.now() - t0, r.ok());
          break;
        }
        case Kind::kDerive: {
          const model::ArchGraph& g = in.graphs[op.graph];
          auto tc = co_await client.prepare_transfer(g, true);
          t.record(Op::kTransfer, c.sim.now() - t0, tc.ok());
          if (!tc.ok()) break;
          model::Model m = model::Model::random(
              client.allocate_id(), g, common::hash_combine(seed, op.graph));
          m.set_quality(0.0625);
          const core::TransferContext* ctx = nullptr;
          if (tc->has_value()) {
            ctx = &tc->value();
            for (size_t i = 0; i < ctx->matches.size(); ++i) {
              m.segment(ctx->matches[i].first) = ctx->prefix_segments[i];
            }
          }
          double t1 = c.sim.now();
          common::Status st = co_await client.put_model(m, ctx);
          t.record(Op::kPut, c.sim.now() - t1, st.ok());
          if (st.ok()) live[m.id()] = Live{&g, m.quality()};
          break;
        }
        case Kind::kRead: {
          read_order.push_back(ids[op.member]);
          auto r = co_await client.get_model(ids[op.member]);
          t.record(Op::kRead, c.sim.now() - t0, r.ok());
          if (r.ok() && identities_of(r.value()) != identities[op.member]) {
            t.fail("read of " + ids[op.member].to_string() +
                   " returned segments other than those stored");
          }
          break;
        }
        case Kind::kRetire: {
          live.erase(ids[op.member]);
          common::Status st = co_await client.retire(ids[op.member]);
          t.record(Op::kRetire, c.sim.now() - t0, st.ok());
          break;
        }
      }
    }
  };
  std::vector<sim::Future<void>> workers;
  for (size_t w = 0; w < c.workers.size(); ++w) {
    workers.push_back(c.sim.spawn(worker(w)));
  }
  c.sim.run();
  t.stored_physical = static_cast<double>(repo.stored_physical_bytes());
  t.stored_logical = static_cast<double>(repo.stored_payload_bytes());
  phase.end(c, registry, t);

  // Oracle: the served answer must equal Algorithm 1 over the live catalog
  // under the scan's tie-break (length, then quality, then lower id).
  core::Client& checker = repo.client(c.nodes[0]);
  for (size_t q : in.oracle) {
    const model::ArchGraph& g = in.graphs[q];
    auto served = c.sim.run_until_complete(checker.query_lcp(g));
    bool found = false;
    size_t len = 0;
    double quality = 0;
    common::ModelId best = common::ModelId::invalid();
    for (const auto& [id, member] : live) {
      size_t l = core::longest_common_prefix(g, *member.graph).length();
      if (l == 0) continue;
      bool better = !found || l > len ||
                    (l == len && (member.quality > quality ||
                                  (member.quality == quality && id < best)));
      if (better) {
        found = true;
        len = l;
        quality = member.quality;
        best = id;
      }
    }
    if (!served.ok() || served->found != found ||
        (found && (served->lcp_len() != len || served->quality != quality ||
                   served->ancestor != best))) {
      t.fail("lcp oracle mismatch on query " + std::to_string(q));
    }
  }

  if (traced) {
    common_layer_metrics(repo, c.workers, *tracer, before, chunks0, t,
                         t.layer);
    storage_layer_metrics({}, 0, 0, t.ops, t.layer);
    ReplayInputs rin;
    for (size_t i = 0; i < kCatalog && i < 1000; ++i) {
      rin.catalog.push_back(in.graphs[i]);
      rin.catalog_quality.push_back(in.quality[i]);
    }
    for (size_t i = 0; i < 16 && i < in.oracle.size(); ++i) {
      rin.queries.push_back(in.graphs[in.oracle[i]]);
    }
    for (size_t i = 0; i < 8; ++i) {
      rin.models.push_back(
          model::Model::random(ids[i], in.graphs[i], weight_seed(i)));
    }
    for (common::ModelId id : read_order) {
      read_keys_of(repo, id, &rin.read_keys, &rin.read_key_bytes);
    }
    replay_layers(rin, t.layer);

    ClientReplay cr;
    cr.queries = rin.queries;
    cr.reads.assign(read_order.begin(),
                    read_order.begin() +
                        static_cast<std::ptrdiff_t>(
                            std::min<size_t>(16, read_order.size())));
    for (size_t i = 0; i < cr.queries.size(); ++i) {
      cr.put_models.push_back(model::Model::random(
          checker.allocate_id(), cr.queries[i], common::hash_combine(seed, i)));
    }
    replay_client(c, checker, cr, t.layer);
  }
  t.seal();
  return t;
}

}  // namespace perfbench
