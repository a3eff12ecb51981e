// lwdc-sharded-serve: an LWDC-like lake JSD-partitioned into 8 parts, two
// shard executors behind a scatter-gather coordinator, all on loopback in
// this process; two client connections send threshold queries with
// mappings.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/thresholds.h"
#include "net/client.h"
#include "net/server.h"
#include "partition/partitioned_pexeso.h"
#include "serve/index_cache.h"
#include "serve/serve_session.h"
#include "shard/coordinator.h"
#include "shard/part_subset.h"
#include "shard/remote.h"
#include "shard/shard_map.h"
#include "workload.h"

namespace perfbench {

using namespace pexeso;
namespace fs = std::filesystem;

namespace {

constexpr uint32_t kParts = 8;
constexpr size_t kShards = 2;
constexpr size_t kClients = 2;
constexpr size_t kQuerySet = 96;
constexpr size_t kQuerySize = 24;

/// One shard executor: its own engine over the lake directory, its own
/// cache, the subset of parts it owns, and its server.
struct ShardNode {
  std::unique_ptr<PartitionedPexeso> engine;
  std::unique_ptr<serve::IndexCache> cache;
  std::unique_ptr<shard::PartSubsetEngine> subset;
  std::unique_ptr<net::PexesoServer> server;
};

/// Everything the serving path needs; members are declared in start order
/// and torn down in reverse.
struct Fleet {
  std::vector<ShardNode> shards;
  std::unique_ptr<shard::RemoteShardRouter> router;
  std::unique_ptr<shard::ShardedEngine> sharded;
  std::unique_ptr<net::PexesoServer> coordinator;
  std::vector<std::unique_ptr<net::PexesoClient>> clients;

  ~Fleet() {
    for (auto& c : clients) c->Close();
    if (coordinator) coordinator->Shutdown();
    for (auto& s : shards) {
      if (s.server) s.server->Shutdown();
    }
  }
};

Status OpenCached(const std::string& dir, const Metric* metric,
                  std::unique_ptr<PartitionedPexeso>* engine,
                  std::unique_ptr<serve::IndexCache>* cache) {
  auto opened = PartitionedPexeso::Open(dir, metric);
  if (!opened.ok()) return opened.status();
  *engine = std::make_unique<PartitionedPexeso>(std::move(opened).ValueOrDie());
  // Large enough to hold every part: the cache always hits after warm-up.
  *cache = std::make_unique<serve::IndexCache>(serve::IndexCacheOptions{
      .budget_bytes = 4 * (*engine)->DiskBytes() + (64u << 20)});
  (*engine)->AttachCache(cache->get());
  return Status::OK();
}

/// Starts the shard executors, probes them and starts the coordinator,
/// as `pexeso_server --shards 2 --shard-of I` and `--coordinator` do.
Status StartFleet(const std::string& dir, const Metric* metric, Fleet* f) {
  f->shards.resize(kShards);
  std::vector<std::vector<shard::RemoteShardRouter::Endpoint>> topology;
  for (size_t s = 0; s < kShards; ++s) {
    ShardNode& node = f->shards[s];
    PEXESO_RETURN_NOT_OK(OpenCached(dir, metric, &node.engine, &node.cache));
    const shard::ShardMap map =
        shard::ShardMap::RoundRobin(node.engine->NumParts(), kShards);
    node.subset = std::make_unique<shard::PartSubsetEngine>(
        node.engine.get(), map.OwnedParts(s));
    net::ServerOptions so;
    so.worker_threads = 2;
    so.expected_dim = 50;
    so.cache = node.cache.get();
    so.shards_total = static_cast<uint32_t>(kShards);
    so.shard_of = static_cast<uint32_t>(s);
    node.server = std::make_unique<net::PexesoServer>(node.subset.get(), so);
    PEXESO_RETURN_NOT_OK(node.server->Start());
    topology.push_back({{"127.0.0.1", node.server->port()}});
  }
  auto probed = shard::RemoteShardRouter::Probe(std::move(topology));
  if (!probed.ok()) return probed.status();
  f->router = std::move(probed).ValueOrDie();
  f->sharded = std::make_unique<shard::ShardedEngine>(f->router.get());
  net::ServerOptions co;
  co.worker_threads = kClients;
  co.expected_dim = f->router->dim();
  f->coordinator = std::make_unique<net::PexesoServer>(f->sharded.get(), co);
  PEXESO_RETURN_NOT_OK(f->coordinator->Start());
  for (size_t c = 0; c < kClients; ++c) {
    f->clients.push_back(std::make_unique<net::PexesoClient>());
    PEXESO_RETURN_NOT_OK(f->clients.back()->Connect(
        "127.0.0.1", f->coordinator->port(), "bench"));
  }
  return Status::OK();
}

uint64_t CacheMisses(const Fleet& f) {
  uint64_t n = 0;
  for (const ShardNode& s : f.shards) n += s.cache->stats().misses;
  return n;
}

struct ClientTally {
  std::vector<double> latency_s;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  uint64_t distances = 0;
  uint64_t shard_bytes = 0;
};

}  // namespace

void RunShardedServe(const Args& args, Report* report) {
  L2Metric metric;
  VectorLakeOptions profile = BenchProfiles::LwdcLike(1.0);
  const ColumnCatalog catalog = GenerateVectorLake(profile);
  const std::vector<VectorStore> queries =
      MakeQueries(profile, kQuerySet, kQuerySize, Mix(args.seed, 12));
  const SearchThresholds th =
      FractionalThresholds{0.06, 0.5}.Resolve(metric, profile.dim, kQuerySize);
  JoinQuery proto;
  proto.thresholds = th;
  proto.collect_mappings = true;
  const double raw_bytes =
      static_cast<double>(catalog.num_vectors()) * profile.dim * sizeof(float);
  std::printf("lake: %zu columns, %zu vectors, dim %u; %zu queries |Q| %zu "
              "tau %.4f T %u\n",
              catalog.num_columns(), catalog.num_vectors(), profile.dim,
              queries.size(), kQuerySize, th.tau, th.t_abs);

  // ---- set-up: partition, build, start the fleet, warm up.
  std::vector<double> setup_s;
  PartitionAssignment assignment;
  auto set_up = [&](const std::string& dir, std::unique_ptr<Fleet>* out) {
    const double t0 = Now();
    Partitioner::Options popts;
    popts.k = kParts;
    assignment = Partitioner::JsdClustering(catalog, popts);
    const double tj = Now();
    auto built = PartitionedPexeso::Build(catalog, assignment, dir, &metric,
                                          PexesoOptions{});
    if (!built.ok()) {
      report->CheckFailed("partitioned build: " + built.status().ToString());
      return false;
    }
    const double t1 = Now();
    *out = std::make_unique<Fleet>();
    const Status st = StartFleet(dir, &metric, out->get());
    if (!st.ok()) {
      report->CheckFailed("fleet start: " + st.ToString());
      return false;
    }
    // Warm-up: one query per connection touches every part once.
    for (size_t c = 0; c < kClients; ++c) {
      const auto res = (*out)->clients[c]->Query(BindQuery(c, proto, queries));
      if (!res.status.ok()) {
        report->CheckFailed("warm-up: " + res.status.ToString());
        return false;
      }
    }
    const double t2 = Now();
    setup_s.push_back(t2 - t0);
    std::printf("setup %zu: %.4f s (partition %.4f s, build %.4f s, serve "
                "%.4f s)\n",
                setup_s.size() - 1, t2 - t0, tj - t0, t1 - tj, t2 - t1);
    return true;
  };
  auto dir_of = [&](int rep) {
    return args.work_dir + "/lwdc-" + std::to_string(rep);
  };
  const int before = args.trace ? 1 : kSetupsBefore;
  std::unique_ptr<Fleet> fleet;
  for (int rep = 0; rep < before; ++rep) {
    fleet.reset();
    if (rep > 0) fs::remove_all(dir_of(rep - 1));
    if (!set_up(dir_of(rep), &fleet)) return;
  }
  const std::string dir = dir_of(before - 1);
  const double disk_bytes = static_cast<double>(DirBytes(dir, ".pxso"));

  // ---- reference answers: in-process Execute on the unsharded engine.
  std::unique_ptr<PartitionedPexeso> local;
  std::unique_ptr<serve::IndexCache> local_cache;
  if (const Status st = OpenCached(dir, &metric, &local, &local_cache);
      !st.ok()) {
    report->CheckFailed("open: " + st.ToString());
    return;
  }
  std::vector<std::vector<JoinableColumn>> ref(queries.size());
  std::atomic<bool> ref_ok{true};
  ThreadPool(4).ParallelFor(queries.size(), [&](size_t i) {
    auto got = ExecuteCollect(*local, BindQuery(i, proto, queries));
    if (!got.ok()) {
      ref_ok = false;
      return;
    }
    ref[i] = std::move(got).ValueOrDie();
  });
  if (!ref_ok) {
    report->CheckFailed("a reference query failed");
    return;
  }
  const std::vector<OracleColumn> cols = OracleColumns(catalog, assignment);
  const Oracle oracle(profile.dim, Distance::kL2, th.tau, kBand, &cols);
  OracleCheck(oracle, queries, ref, Expectation{false, 0, th.t_abs, true},
              "lwdc", report);

  if (args.trace) {
    // A direct server and an in-process session over the whole lake, with
    // the coordinator's total worker count, give the per-hop differences.
    serve::ServeSession session(local.get(),
                                serve::ServeSessionOptions{.num_threads = 4});
    net::ServerOptions dopts;
    dopts.worker_threads = 4;
    dopts.expected_dim = profile.dim;
    dopts.cache = local_cache.get();
    net::PexesoServer direct(local.get(), dopts);
    net::PexesoClient direct_client;
    if (!direct.Start().ok() ||
        !direct_client.Connect("127.0.0.1", direct.port(), "bench").ok()) {
      report->CheckFailed("direct server start");
      return;
    }
    Tracer tracer;
    LayerInputs in;
    in.tracer = &tracer;
    in.index_build_s = ReplayIndexBuilds(catalog, assignment, &metric);
    net::PexesoClient& coord = *fleet->clients[0];
    const serve::IndexCacheStats c0 = local_cache->stats();
    double untraced_s = 0.0;
    double traced_s = 0.0;
    const double start = Now();
    uint64_t qid = 0;
    do {
      for (size_t i = 0; i < queries.size(); ++i) {
        ++qid;
        const JoinQuery jq = BindQuery(i, proto, queries);
        bool ok = true;
        double t0 = Now();
        auto plain = ExecuteCollect(*local, jq);
        untraced_s += Now() - t0;
        ok = ok && plain.ok() && SameAnswer(plain.value(), ref[i]);

        const uint64_t b0 = coord.bytes_sent() + coord.bytes_received();
        t0 = Now();
        net::ClientQueryResult via_coord;
        {
          Tracer::Scope span(&tracer, "shard.rtt", qid);
          via_coord = coord.Query(jq);
        }
        in.coordinator_s += Now() - t0;
        in.net_bytes += coord.bytes_sent() + coord.bytes_received() - b0;
        in.shard_bytes += via_coord.stats.shard_bytes_moved;
        ok = ok && via_coord.status.ok() &&
             SameAnswer(via_coord.columns, ref[i]);

        t0 = Now();
        net::ClientQueryResult via_direct;
        {
          Tracer::Scope span(&tracer, "net.rtt", qid);
          via_direct = direct_client.Query(jq);
        }
        in.direct_s += Now() - t0;
        ok = ok && via_direct.status.ok() &&
             SameAnswer(via_direct.columns, ref[i]);

        t0 = Now();
        serve::QueryOutcome outcome;
        {
          Tracer::Scope span(&tracer, "serve.session", qid);
          outcome = session.Submit(jq).get();
        }
        in.session_s += Now() - t0;
        ok = ok && outcome.status.ok() && SameAnswer(outcome.results, ref[i]);

        t0 = Now();
        std::vector<JoinableColumn> merged;
        {
          Tracer::Scope root(&tracer, "query", qid);
          for (size_t p = 0; p < local->NumParts(); ++p) {
            PartHandle handle;
            {
              Tracer::Scope span(&tracer, "serve.acquire", qid);
              auto got = local->AcquirePart(p, nullptr);
              ok = ok && got.ok();
              if (got.ok()) handle = std::move(got).ValueOrDie();
            }
            if (handle == nullptr) continue;
            const auto* index = static_cast<const PexesoIndex*>(handle.get());
            std::vector<JoinableColumn> part;
            Tracer::Scope span(&tracer, "partition.part_search", qid);
            ok = ok &&
                 TracedSearch(*index, jq, &tracer, qid, &in.counters, &part)
                     .ok();
            ToGlobalIds(*index, &part);
            merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                          std::make_move_iterator(part.end()));
          }
          FinishQueryMerge(jq, &merged);
        }
        traced_s += Now() - t0;
        in.counters.result_columns += merged.size();
        ok = ok && SameAnswer(merged, ref[i]);
        report->Attempt("query", ok);
        if (!ok) report->CheckFailed("traced replay differs, query " +
                                     std::to_string(i));
      }
    } while (Now() - start < args.seconds);
    const serve::IndexCacheStats c1 = local_cache->stats();
    in.queries = qid;
    in.cache_hits = c1.hits - c0.hits;
    in.cache_misses = c1.misses - c0.misses;
    EmitLayerMetrics(in, report);
    PrintTraceSummary(tracer, qid, "query", untraced_s, traced_s);
    if (!tracer.Write(args.trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_path.c_str());
    }
    direct_client.Close();
    direct.Shutdown();
    return;
  }

  // ---- measured phase: two closed-loop client connections.
  const uint64_t misses0 = CacheMisses(*fleet);
  uint64_t bytes0 = 0;
  for (const auto& c : fleet->clients) {
    bytes0 += c->bytes_sent() + c->bytes_received();
  }
  std::vector<ClientTally> tally(kClients);
  const double start = Now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      net::PexesoClient& client = *fleet->clients[c];
      ClientTally& t = tally[c];
      // Whole rounds over this connection's half of the query set.
      do {
        for (size_t i = c; i < queries.size(); i += kClients) {
          const JoinQuery jq = BindQuery(i, proto, queries);
          const double t0 = Now();
          net::ClientQueryResult res = client.Query(jq);
          const double t1 = Now();
          if (!res.status.ok()) {
            ++t.failed;
            continue;
          }
          t.latency_s.push_back(t1 - t0);
          t.distances += res.stats.distance_computations;
          t.shard_bytes += res.stats.shard_bytes_moved;
          if (!SameAnswer(res.columns, ref[i])) ++t.mismatched;
        }
      } while (Now() - start < args.seconds ||
               t.latency_s.size() + t.failed < kMinQueries / kClients);
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall = Now() - start;

  std::vector<double> lat;
  uint64_t distances = 0;
  uint64_t shard_bytes = 0;
  for (const ClientTally& t : tally) {
    lat.insert(lat.end(), t.latency_s.begin(), t.latency_s.end());
    distances += t.distances;
    shard_bytes += t.shard_bytes;
    report->Attempts("query", t.latency_s.size() + t.failed,
                     t.failed + t.mismatched);
    if (t.mismatched > 0) {
      report->CheckFailed(std::to_string(t.mismatched) +
                          " coordinator answers differ from in-process "
                          "Execute");
    }
  }
  uint64_t bytes1 = 0;
  for (const auto& c : fleet->clients) {
    bytes1 += c->bytes_sent() + c->bytes_received();
  }
  const uint64_t misses = CacheMisses(*fleet) - misses0;
  fleet.reset();
  for (int rep = 0; rep < kSetupsAfter; ++rep) {
    std::unique_ptr<Fleet> spare;
    if (!set_up(dir_of(before + rep), &spare)) return;
    spare.reset();
    fs::remove_all(dir_of(before + rep));
  }
  const double n = static_cast<double>(std::max<size_t>(1, lat.size()));
  report->Work("float_distances_per_query", distances / n);
  report->Work("cache_misses", static_cast<double>(misses));
  report->Work("client_bytes_per_query", (bytes1 - bytes0) / n);
  report->Work("shard_bytes_moved_per_query", shard_bytes / n);
  report->Work("measured_queries", static_cast<double>(lat.size()));
  report->Work("throughput_qps", static_cast<double>(lat.size()) / wall);

  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("query_p50_ms", Quantile(lat, 0.50) * 1e3, "ms");
  report->Metric("query_p95_ms", Quantile(lat, 0.95) * 1e3, "ms");
  report->Metric("space_amp", disk_bytes / raw_bytes, "ratio");
  report->Metric("peak_rss_mb", static_cast<double>(PeakRssBytes()) / 1048576.0,
                 "MB");
}

}  // namespace perfbench
