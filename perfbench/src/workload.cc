#include "workload.h"

#include <cstdio>
#include <cstring>
#include <map>

#include "core/pexeso_index.h"

namespace perfbench {

using pexeso::ColumnCatalog;
using pexeso::ColumnId;
using pexeso::ColumnMeta;

std::vector<pexeso::VectorStore> MakeQueries(
    const pexeso::VectorLakeOptions& profile, size_t n, size_t size,
    uint64_t seed) {
  std::vector<pexeso::VectorStore> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(pexeso::GenerateVectorQuery(profile, size,
                                              Mix(seed, 1000 + i)));
  }
  return out;
}

std::vector<OracleColumn> OracleColumns(
    const ColumnCatalog& catalog,
    const pexeso::PartitionAssignment& assignment) {
  std::map<uint32_t, uint32_t> next_local;
  std::vector<OracleColumn> out;
  out.reserve(catalog.num_columns());
  for (ColumnId c = 0; c < catalog.num_columns(); ++c) {
    const ColumnMeta& m = catalog.column(c);
    uint32_t& local = next_local[assignment[c]];
    out.push_back({c, catalog.store().View(m.first), m.count, local});
    local += m.count;
  }
  return out;
}

void OracleCheck(const Oracle& oracle,
                 const std::vector<pexeso::VectorStore>& queries,
                 const std::vector<std::vector<pexeso::JoinableColumn>>& answers,
                 const Expectation& expect, const char* what, Report* report) {
  const size_t n = std::min(kOracleSample, queries.size());
  for (size_t i = 0; i < n; ++i) {
    const pexeso::VectorStore& q = queries[i];
    const std::vector<CountRange> counts = oracle.Count(q.View(0), q.size());
    const std::string why =
        oracle.Check(q.View(0), q.size(), counts, expect, answers[i]);
    if (!why.empty()) {
      report->CheckFailed(std::string(what) + " query " + std::to_string(i) +
                          ": " + why);
    }
  }
}

double ReplayIndexBuilds(const ColumnCatalog& catalog,
                         const pexeso::PartitionAssignment& assignment,
                         const pexeso::Metric* metric) {
  uint32_t k = 0;
  for (uint32_t a : assignment) k = std::max(k, a + 1);
  double total = 0.0;
  for (uint32_t part = 0; part < k; ++part) {
    ColumnCatalog part_catalog(catalog.dim());
    for (ColumnId c = 0; c < catalog.num_columns(); ++c) {
      if (assignment[c] != part) continue;
      ColumnMeta meta = catalog.column(c);
      meta.source_id = c;
      part_catalog.AddColumn(meta, catalog.store().View(meta.first),
                             meta.count);
    }
    if (part_catalog.num_columns() == 0) continue;
    const double t0 = Now();
    const pexeso::PexesoIndex index = pexeso::PexesoIndex::Build(
        std::move(part_catalog), metric, pexeso::PexesoOptions{});
    total += Now() - t0;
  }
  return total;
}

void EmitLayerMetrics(const LayerInputs& in, Report* r) {
  const double q = static_cast<double>(std::max<uint64_t>(1, in.queries));
  std::map<std::string, double> tot;
  if (in.tracer != nullptr) tot = in.tracer->TotalSeconds();
  auto ms = [&](const char* name) { return tot[name] * 1e3 / q; };
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  const pexeso::SearchStats& s = in.counters.stats;
  const double dist = static_cast<double>(s.distance_computations);
  const double skips = static_cast<double>(s.quant_tile_skips);

  r->Metric("vec.float_distances_per_query", dist / q, "count");
  r->Metric("vec.quant_skip_share", ratio(skips, dist + skips), "ratio");
  // Verification time per pair it decided, by a float distance or by the
  // int8 tier.
  r->Metric("vec.ns_per_distance",
            ratio((tot["core.verify"] + tot["core.mappings"]) * 1e9,
                  dist + skips),
            "ns");
  r->Metric("pivot.map_ms", ms("pivot.map"), "ms");
  r->Metric("grid.query_build_ms", ms("grid.query_build"), "ms");
  r->Metric("core.block_ms", ms("core.block"), "ms");
  r->Metric("core.candidate_pairs_per_query",
            static_cast<double>(s.candidate_pairs) / q, "count");
  r->Metric("core.candgen_ms", ms("core.candgen"), "ms");
  r->Metric("core.candidate_blocks_per_query",
            static_cast<double>(s.candidate_blocks) / q, "count");
  r->Metric("core.verify_ms", ms("core.verify"), "ms");
  r->Metric("core.tiles_per_query",
            static_cast<double>(s.tiles_evaluated) / q, "count");
  r->Metric("core.mappings_ms", ms("core.mappings"), "ms");
  r->Metric("core.useful_candidate_ratio",
            ratio(static_cast<double>(in.counters.result_columns),
                  static_cast<double>(in.counters.verified_columns)),
            "ratio");
  r->Metric("core.topk_pruned_per_query",
            static_cast<double>(s.columns_pruned_topk) / q, "count");
  // One verification shard (no intra-query threads) is balanced by
  // definition.
  r->Metric("core.intra_imbalance",
            in.counters.imbalance_calls > 0
                ? in.counters.imbalance_sum /
                      static_cast<double>(in.counters.imbalance_calls)
                : 1.0,
            "ratio");
  r->Metric("core.index_build_s", in.index_build_s, "s");
  r->Metric("partition.part_search_ms", ms("partition.part_search"), "ms");
  r->Metric("serve.cache_hit_ratio",
            ratio(static_cast<double>(in.cache_hits),
                  static_cast<double>(in.cache_hits + in.cache_misses)),
            "ratio");
  r->Metric("serve.load_ms", ms("serve.acquire"), "ms");
  r->Metric("serve.bytes_loaded_per_query",
            static_cast<double>(in.bytes_loaded) / q, "bytes");
  r->Metric("serve.session_ms", in.session_s * 1e3 / q, "ms");
  r->Metric("lake.append_ms", mean(in.append_s) * 1e3, "ms");
  r->Metric("lake.drop_ms", mean(in.drop_s) * 1e3, "ms");
  r->Metric("lake.merge_all_s", in.merge_all_s, "s");
  r->Metric("lake.ingest_cols_per_s", in.ingest_cols_per_s, "1/s");
  r->Metric("lake.write_amp", in.write_amp, "ratio");
  r->Metric("lake.snapshots_per_query",
            static_cast<double>(in.snapshots_searched) / q, "count");
  r->Metric("lake.open_s", in.open_s, "s");
  r->Metric("net.hop_ms", (in.direct_s - in.session_s) * 1e3 / q, "ms");
  r->Metric("net.bytes_per_query", static_cast<double>(in.net_bytes) / q,
            "bytes");
  r->Metric("shard.hop_ms", (in.coordinator_s - in.direct_s) * 1e3 / q,
            "ms");
  r->Metric("shard.bytes_moved_per_query",
            static_cast<double>(in.shard_bytes) / q, "bytes");
}

void PrintTraceSummary(const Tracer& tracer, uint64_t queries,
                       const char* root, double untraced_s,
                       double traced_s) {
  const double q = static_cast<double>(std::max<uint64_t>(1, queries));
  const std::vector<Span>& spans = tracer.spans();
  // Which spans sit inside a query replay rooted at a span named `root`.
  std::vector<uint32_t> root_of(spans.size() + 1, 0);
  for (const Span& s : spans) {
    if (std::strcmp(s.name, root) == 0 && s.parent == 0) {
      root_of[s.id] = s.id;
    } else if (s.parent != 0) {
      root_of[s.id] = root_of[s.parent];
    }
  }
  std::vector<double> child(spans.size() + 1, 0.0);
  for (const Span& s : spans) {
    if (s.parent != 0) child[s.parent] += s.end - s.start;
  }
  std::map<std::string, double> self;
  double root_total = 0.0;
  double layers = 0.0;
  for (const Span& s : spans) {
    if (root_of[s.id] == 0) continue;
    const double own = (s.end - s.start) - child[s.id];
    if (s.id == root_of[s.id]) {
      root_total += s.end - s.start;
    } else {
      self[s.name] += own;
      layers += own;
    }
  }
  std::printf("trace: %llu replayed queries under '%s'\n",
              static_cast<unsigned long long>(queries), root);
  for (const auto& [name, secs] : self) {
    std::printf("trace-self %-24s %.4f ms/query\n", name.c_str(),
                secs * 1e3 / q);
  }
  std::printf("trace-sum layers %.4f ms/query vs traced latency %.4f "
              "ms/query (gap %.2f%%)\n",
              layers * 1e3 / q, root_total * 1e3 / q,
              root_total > 0.0 ? 100.0 * (root_total - layers) / root_total
                               : 0.0);
  std::printf("trace-overhead untraced %.4f ms/query traced %.4f ms/query "
              "(%+.2f%%)\n",
              untraced_s * 1e3 / q, traced_s * 1e3 / q,
              untraced_s > 0.0 ? 100.0 * (traced_s / untraced_s - 1.0) : 0.0);
}

}  // namespace perfbench
