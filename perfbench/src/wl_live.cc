// swdc-live-ooc: an SWDC-like live lake created in 8 parts from the first
// half of its columns, closed and reopened (recovery + CRC pass), served
// through a cache holding a third of its base snapshots, with one
// background merge thread. One caller interleaves appends (24 columns, then
// 2 drops) with threshold queries until the second half is ingested, then
// runs MergeAll and Vacuum.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <unordered_set>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/thresholds.h"
#include "lake/lake_manager.h"
#include "serve/index_cache.h"
#include "workload.h"

namespace perfbench {

using namespace pexeso;
namespace fs = std::filesystem;

namespace {

constexpr uint32_t kParts = 8;
constexpr size_t kQuerySet = 80;
constexpr size_t kQuerySize = 20;
constexpr size_t kAppendColumns = 24;
constexpr size_t kDropsPerAppend = 2;

ColumnCatalog Slice(const ColumnCatalog& all, size_t begin, size_t end) {
  ColumnCatalog out(all.dim());
  for (ColumnId c = static_cast<ColumnId>(begin); c < end; ++c) {
    const ColumnMeta& m = all.column(c);
    out.AddColumn(m, all.store().View(m.first), m.count);
  }
  return out;
}

/// Snapshot files seen so far and their summed size: new generations
/// written by merges show up as new names.
struct WriteTally {
  std::map<std::string, uint64_t> seen;
  uint64_t written = 0;

  void Scan(const std::string& dir) {
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(dir, ec)) {
      const std::string name = e.path().filename().string();
      if (!e.is_regular_file() || name.size() < 5 ||
          name.compare(name.size() - 5, 5, ".pxso") != 0) {
        continue;
      }
      if (seen.emplace(name, e.file_size()).second) written += e.file_size();
    }
  }
};

uint64_t MergesSoFar(const lake::LakeManager& lake) {
  uint64_t n = 0;
  for (size_t p = 0; p < lake.NumParts(); ++p) n += lake.generation(p) - 1;
  return n;
}

}  // namespace

void RunLiveOoc(const Args& args, Report* report) {
  L2Metric metric;
  VectorLakeOptions profile = BenchProfiles::SwdcLike(2.0);
  const ColumnCatalog all = GenerateVectorLake(profile);
  const size_t half = all.num_columns() / 2;
  const ColumnCatalog first = Slice(all, 0, half);
  std::vector<ColumnCatalog> batches;
  for (size_t b = half; b < all.num_columns(); b += kAppendColumns) {
    batches.push_back(
        Slice(all, b, std::min(all.num_columns(), b + kAppendColumns)));
  }
  const std::vector<VectorStore> queries =
      MakeQueries(profile, kQuerySet, kQuerySize, Mix(args.seed, 32));
  JoinQuery proto;
  proto.thresholds =
      FractionalThresholds{0.06, 0.5}.Resolve(metric, profile.dim, kQuerySize);
  std::printf("lake: %zu columns (%zu at start, %zu appended in %zu batches), "
              "%zu vectors, dim %u; %zu queries |Q| %zu tau %.4f T %u\n",
              all.num_columns(), half, all.num_columns() - half,
              batches.size(), all.num_vectors(), profile.dim, queries.size(),
              kQuerySize, proto.thresholds.tau, proto.thresholds.t_abs);

  // ---- set-up: partition, create, close, reopen (recovery + CRC pass),
  // attach the cache, warm up.
  ThreadPool merge_pool(1);
  lake::LakeOptions lopts;
  lopts.merge_pool = &merge_pool;
  std::vector<double> setup_s;
  std::vector<double> open_s;
  PartitionAssignment assignment;
  uint64_t base_bytes = 0;
  /// A lake and the cache it reads through; the lake is destroyed first.
  struct Served {
    std::unique_ptr<serve::IndexCache> cache;
    std::unique_ptr<lake::LakeManager> lake;
  };
  auto set_up = [&](const std::string& dir, Served* out) {
    const double t0 = Now();
    Partitioner::Options popts;
    popts.k = kParts;
    assignment = Partitioner::JsdClustering(first, popts);
    {
      auto created =
          lake::LakeManager::Create(first, assignment, dir, &metric, lopts);
      if (!created.ok()) {
        report->CheckFailed("lake create: " + created.status().ToString());
        return false;
      }
    }
    const double t1 = Now();
    auto opened = lake::LakeManager::Open(dir, &metric, lopts);
    if (!opened.ok()) {
      report->CheckFailed("lake open: " + opened.status().ToString());
      return false;
    }
    out->lake = std::move(opened).ValueOrDie();
    const double t2 = Now();
    base_bytes = out->lake->DiskBytes();
    out->cache = std::make_unique<serve::IndexCache>(
        serve::IndexCacheOptions{.budget_bytes = base_bytes / 3});
    out->lake->AttachCache(out->cache.get());
    for (size_t i = 0; i < 2; ++i) {
      if (!ExecuteCollect(*out->lake, BindQuery(i, proto, queries)).ok()) {
        report->CheckFailed("warm-up query failed");
        return false;
      }
    }
    const double t3 = Now();
    setup_s.push_back(t3 - t0);
    open_s.push_back(t2 - t1);
    std::printf("setup %zu: %.4f s (create %.4f s, reopen %.4f s, warm-up "
                "%.4f s)\n",
                setup_s.size() - 1, t3 - t0, t1 - t0, t2 - t1, t3 - t2);
    return true;
  };
  auto dir_of = [&](int rep) {
    return args.work_dir + "/swdc-" + std::to_string(rep);
  };
  const int before = args.trace ? 1 : kSetupsBefore;
  Served served;
  for (int rep = 0; rep < before; ++rep) {
    served.lake.reset();
    served.cache.reset();
    if (rep > 0) fs::remove_all(dir_of(rep - 1));
    if (!set_up(dir_of(rep), &served)) return;
  }
  const std::string dir = dir_of(before - 1);
  lake::LakeManager* const lake = served.lake.get();
  serve::IndexCache* const cache = served.cache.get();
  std::printf("cache budget %zu bytes = 1/3 of %llu base snapshot bytes\n",
              cache->budget_bytes(), static_cast<unsigned long long>(base_bytes));

  // Global ids: the initial columns keep their catalog ids; appends get the
  // ids AppendColumns returns.
  std::vector<OracleColumn> live;
  for (ColumnId c = 0; c < first.num_columns(); ++c) {
    const ColumnMeta& m = first.column(c);
    live.push_back({c, first.store().View(m.first), m.count, 0});
  }
  std::unordered_set<uint32_t> dropped;
  uint32_t next_id = static_cast<uint32_t>(first.num_columns());
  Rng drop_rng(Mix(args.seed, 33));

  Tracer tracer;
  Tracer* const tr = args.trace ? &tracer : nullptr;
  LayerInputs in;
  in.tracer = &tracer;
  in.open_s = Median(open_s);
  if (args.trace) {
    in.index_build_s = ReplayIndexBuilds(first, assignment, &metric);
  }
  WriteTally writes;
  writes.Scan(dir);
  writes.written = 0;
  uint64_t vector_bytes_in = 0;

  double ingest_s = 0.0;
  size_t appended = 0;
  auto append_step = [&]() {
    const ColumnCatalog& batch = batches[appended++];
    double t0 = Now();
    std::vector<uint32_t> ids;
    {
      Tracer::Scope span(tr, "lake.append", 0);
      ids = lake->AppendColumns(batch);
    }
    double t1 = Now();
    in.append_s.push_back(t1 - t0);
    ingest_s += t1 - t0;
    const bool ok = ids.size() == batch.num_columns() &&
                    (ids.empty() || ids.front() == next_id);
    report->Attempt("append", ok);
    for (size_t j = 0; j < ids.size(); ++j) {
      const ColumnMeta& m = batch.column(static_cast<ColumnId>(j));
      live.push_back({ids[j], batch.store().View(m.first), m.count, 0});
      vector_bytes_in += uint64_t{m.count} * batch.dim() * sizeof(float);
    }
    next_id += static_cast<uint32_t>(ids.size());
    std::vector<uint32_t> drop;
    for (size_t d = 0; d < kDropsPerAppend && !live.empty(); ++d) {
      const size_t at = drop_rng.Uniform(live.size());
      drop.push_back(live[at].id);
      dropped.insert(live[at].id);
      live[at] = live.back();
      live.pop_back();
    }
    t0 = Now();
    {
      Tracer::Scope span(tr, "lake.drop", 0);
      lake->DropColumns(drop);
    }
    t1 = Now();
    in.drop_s.push_back(t1 - t0);
    ingest_s += t1 - t0;
    report->Attempt("drop", true);
    if (args.trace) writes.Scan(dir);
  };

  // Every answer: ascending, known ids, never a dropped column.
  uint64_t bad_answers = 0;
  auto plausible = [&](const std::vector<JoinableColumn>& got) {
    for (size_t j = 0; j < got.size(); ++j) {
      const uint32_t id = got[j].column;
      if (id >= next_id || dropped.count(id) != 0 ||
          (j > 0 && got[j - 1].column >= id) ||
          got[j].match_count < proto.thresholds.t_abs) {
        return false;
      }
    }
    return true;
  };

  // The traced replay of one lake query: per part, the published snapshot,
  // its base through the cache, then base and deltas stage by stage.
  auto traced_query = [&](const JoinQuery& jq, uint64_t qid,
                          std::vector<JoinableColumn>* merged) {
    bool ok = true;
    Tracer::Scope root(&tracer, "query", qid);
    for (size_t p = 0; p < lake->NumParts(); ++p) {
      std::shared_ptr<const lake::PartSnapshot> snap;
      {
        Tracer::Scope span(&tracer, "lake.snapshot", qid);
        snap = lake->Snapshot(p);
      }
      std::vector<JoinableColumn> chunk;
      std::vector<JoinableColumn> part;
      if (!snap->base_path.empty()) {
        ++in.snapshots_searched;
        serve::IndexCache::IndexPtr base;
        bool missed = false;
        {
          Tracer::Scope span(&tracer, "serve.acquire", qid);
          const uint64_t m0 = cache->stats().misses;
          auto got = cache->Get(snap->base_path, &metric, snap->generation);
          missed = cache->stats().misses != m0;
          ok = ok && got.ok();
          if (got.ok()) base = std::move(got).ValueOrDie();
        }
        if (missed) in.bytes_loaded += fs::file_size(snap->base_path);
        if (base == nullptr) continue;
        Tracer::Scope span(&tracer, "partition.part_search", qid);
        ok = ok && TracedSearch(*base, jq, &tracer, qid, &in.counters, &part)
                       .ok();
        ToGlobalIds(*base, &part);
        chunk.insert(chunk.end(), part.begin(), part.end());
      }
      for (const lake::DeltaPtr& delta : snap->deltas) {
        ++in.snapshots_searched;
        Tracer::Scope span(&tracer, "partition.part_search", qid);
        ok = ok && TracedSearch(delta->index(), jq, &tracer, qid,
                                &in.counters, &part)
                       .ok();
        ToGlobalIds(delta->index(), &part);
        chunk.insert(chunk.end(), part.begin(), part.end());
      }
      {
        Tracer::Scope span(&tracer, "lake.snapshot", qid);
        lake::MaskTombstones(*snap->tombstones, &chunk, nullptr);
      }
      merged->insert(merged->end(), chunk.begin(), chunk.end());
    }
    FinishQueryMerge(jq, merged);
    return ok;
  };

  // ---- measured phase: appends are due at an even pace over the run
  // (the whole second half by its end); queries fill the time between.
  const serve::IndexCacheStats cache0 = cache->stats();
  std::vector<double> lat;
  uint64_t failed = 0;
  uint64_t distances = 0;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  uint64_t qid = 0;
  const double start = Now();
  for (;;) {
    for (size_t i = 0; i < queries.size(); ++i) {
      const double frac = (Now() - start) / args.seconds;
      const size_t due = std::min(
          batches.size(),
          static_cast<size_t>(std::ceil(frac * static_cast<double>(
                                                   batches.size()))));
      while (appended < due) append_step();
      ++qid;
      const JoinQuery jq = BindQuery(i, proto, queries);
      SearchStats stats;
      const double t0 = Now();
      auto got = ExecuteCollect(*lake, jq, &stats);
      const double t1 = Now();
      if (!got.ok()) {
        ++failed;
        continue;
      }
      lat.push_back(t1 - t0);
      distances += stats.distance_computations;
      bool ok = plausible(got.value());
      if (args.trace) {
        untraced_s += t1 - t0;
        std::vector<JoinableColumn> replayed;
        const double t2 = Now();
        ok = traced_query(jq, qid, &replayed) && ok;
        traced_s += Now() - t2;
        in.counters.result_columns += replayed.size();
        ok = ok && SameAnswer(replayed, got.value());
      }
      if (!ok) ++bad_answers;
    }
    if (appended == batches.size() && Now() - start >= args.seconds &&
        lat.size() + failed >= (args.trace ? 1 : kMinQueries)) {
      break;
    }
  }
  const double wall = Now() - start;
  const serve::IndexCacheStats cache1 = cache->stats();
  const uint64_t background_merges = MergesSoFar(*lake);
  const uint64_t bytes_before_vacuum = DirBytes(dir, ".pxso");

  double t0 = Now();
  Status merged;
  {
    Tracer::Scope span(tr, "lake.merge_all", 0);
    merged = lake->MergeAll();
  }
  const double merge_all_s = Now() - t0;
  ingest_s += merge_all_s;
  report->Attempt("merge", merged.ok());
  if (args.trace) writes.Scan(dir);
  t0 = Now();
  const Status vacuumed = lake->Vacuum();
  const double vacuum_s = Now() - t0;
  report->Attempt("vacuum", vacuumed.ok());
  report->Attempts("query", lat.size() + failed, failed + bad_answers);
  if (bad_answers > 0) {
    report->CheckFailed(std::to_string(bad_answers) +
                        " live-lake answers with an unknown, dropped or "
                        "unordered column" +
                        (args.trace ? " or a replay that differs" : ""));
  }

  // ---- after MergeAll the answers must equal the oracle's over the live
  // columns.
  std::vector<std::vector<JoinableColumn>> answers;
  for (size_t i = 0; i < std::min(kOracleSample, queries.size()); ++i) {
    auto got = ExecuteCollect(*lake, BindQuery(i, proto, queries));
    answers.push_back(got.ok() ? std::move(got).ValueOrDie()
                               : std::vector<JoinableColumn>{});
    if (!got.ok()) report->CheckFailed("post-merge query failed");
  }
  const Oracle oracle(profile.dim, Distance::kL2, proto.thresholds.tau, kBand,
                      &live);
  OracleCheck(oracle, queries, answers,
              Expectation{false, 0, proto.thresholds.t_abs, false}, "swdc",
              report);

  uint64_t live_vectors = 0;
  for (const OracleColumn& c : live) live_vectors += c.count;
  const double live_bytes =
      static_cast<double>(live_vectors) * profile.dim * sizeof(float);
  const double disk_after = static_cast<double>(DirBytes(dir, ".pxso"));
  const uint64_t misses = cache1.misses - cache0.misses;
  const uint64_t hits = cache1.hits - cache0.hits;
  std::printf("snapshot bytes: %llu at start, %llu before Vacuum, %.0f "
              "after; merges %llu in the background + %llu by MergeAll; "
              "MergeAll %.4f s, Vacuum %.4f s\n",
              static_cast<unsigned long long>(base_bytes),
              static_cast<unsigned long long>(bytes_before_vacuum),
              disk_after, static_cast<unsigned long long>(background_merges),
              static_cast<unsigned long long>(MergesSoFar(*lake) -
                                              background_merges),
              merge_all_s, vacuum_s);

  const double ingest_cols_per_s =
      static_cast<double>(all.num_columns() - half) / ingest_s;
  if (args.trace) {
    in.queries = qid;
    in.ingest_cols_per_s = ingest_cols_per_s;
    in.cache_hits = hits;
    in.cache_misses = misses;
    in.merge_all_s = merge_all_s;
    in.write_amp = static_cast<double>(writes.written) /
                   static_cast<double>(std::max<uint64_t>(1, vector_bytes_in));
    EmitLayerMetrics(in, report);
    PrintTraceSummary(tracer, qid, "query", untraced_s, traced_s);
    if (!tracer.Write(args.trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_path.c_str());
    }
    return;
  }

  const uint64_t merges = MergesSoFar(*lake);
  for (int rep = 0; rep < kSetupsAfter; ++rep) {
    Served spare;
    if (!set_up(dir_of(before + rep), &spare)) return;
  }
  const double n = static_cast<double>(std::max<size_t>(1, lat.size()));
  report->Work("float_distances_per_query", distances / n);
  report->Work("cache_misses", static_cast<double>(misses));
  report->Work("cache_hit_ratio",
               hits + misses > 0 ? static_cast<double>(hits) / (hits + misses)
                                 : 0.0);
  report->Work("merges", static_cast<double>(merges));
  report->Work("snapshot_bytes_before_vacuum",
               static_cast<double>(bytes_before_vacuum));
  report->Work("columns_appended", static_cast<double>(all.num_columns() - half));
  report->Work("ingest_cols_per_s", ingest_cols_per_s);
  report->Work("measured_queries", static_cast<double>(lat.size()));
  report->Work("throughput_qps", static_cast<double>(lat.size()) / wall);

  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("query_p50_ms", Quantile(lat, 0.50) * 1e3, "ms");
  report->Metric("query_p95_ms", Quantile(lat, 0.95) * 1e3, "ms");
  report->Metric("space_amp", disk_after / live_bytes, "ratio");
  report->Metric("peak_rss_mb", static_cast<double>(PeakRssBytes()) / 1048576.0,
                 "MB");
}

}  // namespace perfbench
