// open-cosine-topk: an OPEN-like cosine index built once, saved, and loaded
// back by mmap (as `pexeso_cli search --index FILE` uses it); one caller
// sends kTopK queries through PexesoSearcher::Execute with two intra-query
// verification threads.
#include <cstdio>
#include <filesystem>
#include <optional>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/pexeso_index.h"
#include "core/searcher.h"
#include "core/thresholds.h"
#include "workload.h"

namespace perfbench {

using namespace pexeso;

namespace {

constexpr size_t kQuerySet = 50;
constexpr size_t kQuerySize = 60;
constexpr size_t kTopK = 10;
constexpr size_t kIntraThreads = 2;

}  // namespace

void RunCosineTopK(const Args& args, Report* report) {
  CosineMetric metric;
  VectorLakeOptions profile = BenchProfiles::OpenLike(2.0);
  const ColumnCatalog catalog = GenerateVectorLake(profile);
  const std::vector<VectorStore> queries =
      MakeQueries(profile, kQuerySet, kQuerySize, Mix(args.seed, 22));
  ThreadPool intra_pool(kIntraThreads);
  JoinQuery proto;
  proto.mode = QueryMode::kTopK;
  proto.k = kTopK;
  proto.thresholds =
      FractionalThresholds{0.06, 0.5}.Resolve(metric, profile.dim, kQuerySize);
  proto.intra_query_threads = kIntraThreads;
  proto.intra_query_pool = &intra_pool;
  const double raw_bytes =
      static_cast<double>(catalog.num_vectors()) * profile.dim * sizeof(float);
  std::printf("lake: %zu columns, %zu vectors, dim %u; %zu queries |Q| %zu "
              "tau %.4f k %zu intra %zu\n",
              catalog.num_columns(), catalog.num_vectors(), profile.dim,
              queries.size(), kQuerySize, proto.thresholds.tau, kTopK,
              kIntraThreads);

  // ---- set-up: build, save, load back by mmap, warm up.
  std::vector<double> setup_s;
  std::vector<double> index_build_s;
  auto set_up = [&](const std::string& path, std::optional<PexesoIndex>* out) {
    out->reset();
    ColumnCatalog copy = catalog;  // Build consumes its catalog
    const double t0 = Now();
    PexesoIndex built = PexesoIndex::Build(std::move(copy), &metric,
                                           PexesoOptions{});
    const double t1 = Now();
    const Status saved = built.Save(path);
    const double t2 = Now();
    built = PexesoIndex();
    if (!saved.ok()) {
      report->CheckFailed("save: " + saved.ToString());
      return false;
    }
    auto loaded = PexesoIndex::Load(path, &metric);
    if (!loaded.ok()) {
      report->CheckFailed("load: " + loaded.status().ToString());
      return false;
    }
    out->emplace(std::move(loaded).ValueOrDie());
    const PexesoSearcher warm(&**out);
    for (size_t i = 0; i < 2; ++i) {
      if (!ExecuteCollect(warm, BindQuery(i, proto, queries)).ok()) {
        report->CheckFailed("warm-up query failed");
        return false;
      }
    }
    const double t3 = Now();
    setup_s.push_back(t3 - t0);
    index_build_s.push_back(t1 - t0);
    std::printf("setup %zu: %.4f s (build %.4f s, save %.4f s, load + "
                "warm-up %.4f s)\n",
                setup_s.size() - 1, t3 - t0, t1 - t0, t2 - t1, t3 - t2);
    return true;
  };
  auto path_of = [&](int rep) {
    return args.work_dir + "/open-" + std::to_string(rep) + ".pxso";
  };
  const int before = args.trace ? 1 : kSetupsBefore;
  std::optional<PexesoIndex> index;
  for (int rep = 0; rep < before; ++rep) {
    if (!set_up(path_of(rep), &index)) return;
  }
  const PexesoSearcher searcher(&*index);
  const double disk_bytes =
      static_cast<double>(std::filesystem::file_size(path_of(before - 1)));

  // The first answer to each query is its reference: every later answer
  // must be identical, and a fixed sample is checked against the oracle
  // after the timed phase.
  std::vector<std::vector<JoinableColumn>> ref(queries.size());
  std::vector<bool> have_ref(queries.size(), false);
  auto consistent = [&](size_t i, const std::vector<JoinableColumn>& got) {
    if (!have_ref[i]) {
      ref[i] = got;
      have_ref[i] = true;
      return true;
    }
    return SameAnswer(got, ref[i]);
  };
  auto oracle_check = [&] {
    const std::vector<OracleColumn> cols =
        OracleColumns(catalog, PartitionAssignment(catalog.num_columns(), 0));
    const Oracle oracle(profile.dim, Distance::kCosine, proto.thresholds.tau,
                        kBand, &cols);
    OracleCheck(oracle, queries, ref, Expectation{true, kTopK, 1, false},
                "open", report);
  };

  if (args.trace) {
    Tracer tracer;
    LayerInputs in;
    in.tracer = &tracer;
    in.index_build_s = Median(index_build_s);
    double untraced_s = 0.0;
    double traced_s = 0.0;
    const double start = Now();
    uint64_t qid = 0;
    do {
      for (size_t i = 0; i < queries.size(); ++i) {
        ++qid;
        const JoinQuery jq = BindQuery(i, proto, queries);
        double t0 = Now();
        auto plain = ExecuteCollect(searcher, jq);
        untraced_s += Now() - t0;
        bool ok = plain.ok() && consistent(i, plain.value());
        t0 = Now();
        std::vector<JoinableColumn> got;
        {
          Tracer::Scope root(&tracer, "query", qid);
          ok = ok && TracedSearch(*index, jq, &tracer, qid, &in.counters, &got)
                         .ok();
        }
        traced_s += Now() - t0;
        in.counters.result_columns += got.size();
        ok = ok && SameAnswer(got, ref[i]);
        report->Attempt("query", ok);
        if (!ok) {
          report->CheckFailed("traced replay differs, query " +
                              std::to_string(i));
        }
      }
    } while (Now() - start < args.seconds);
    in.queries = qid;
    oracle_check();
    EmitLayerMetrics(in, report);
    PrintTraceSummary(tracer, qid, "query", untraced_s, traced_s);
    if (!tracer.Write(args.trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_path.c_str());
    }
    return;
  }

  // ---- measured phase: one closed-loop caller, whole rounds.
  std::vector<double> lat;
  uint64_t mismatched = 0;
  uint64_t failed = 0;
  uint64_t distances = 0;
  uint64_t pruned = 0;
  const double start = Now();
  do {
    for (size_t i = 0; i < queries.size(); ++i) {
      SearchStats stats;
      const double t0 = Now();
      auto got = ExecuteCollect(searcher, BindQuery(i, proto, queries), &stats);
      const double t1 = Now();
      if (!got.ok()) {
        ++failed;
        continue;
      }
      lat.push_back(t1 - t0);
      distances += stats.distance_computations;
      pruned += stats.columns_pruned_topk;
      if (!consistent(i, got.value())) ++mismatched;
    }
  } while (Now() - start < args.seconds || lat.size() + failed < kMinQueries);
  const double wall = Now() - start;
  report->Attempts("query", lat.size() + failed, failed + mismatched);
  if (mismatched > 0) {
    report->CheckFailed(std::to_string(mismatched) +
                        " answers differ from the first answer to the "
                        "same query");
  }
  oracle_check();
  for (int rep = 0; rep < kSetupsAfter; ++rep) {
    std::optional<PexesoIndex> spare;
    if (!set_up(path_of(before + rep), &spare)) return;
  }
  const double n = static_cast<double>(std::max<size_t>(1, lat.size()));
  report->Work("float_distances_per_query", distances / n);
  report->Work("topk_pruned_per_query", pruned / n);
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
