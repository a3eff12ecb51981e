// The three workloads and what they share: generated inputs, the oracle's
// view of a lake, and the per-layer metrics a traced run reports.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "oracle.h"
#include "partition/partitioner.h"
#include "replay.h"
#include "trace.h"
#include "core/query.h"
#include "datagen/vector_lake.h"
#include "vec/column_catalog.h"

namespace perfbench {

/// Set-ups per run: some before the measured phase (the last one serves
/// it) and some after, so that they sample the host at different times.
/// setup_s is their median.
constexpr int kSetupsBefore = 3;
constexpr int kSetupsAfter = 2;
/// Measured queries per run, at least: enough that ten lie beyond p95.
constexpr size_t kMinQueries = 200;
/// Queries per workload checked against the oracle, outside the timed phase.
constexpr size_t kOracleSample = 4;
/// Distance band around tau inside which a pair may count either way.
constexpr double kBand = 2e-5;

void RunShardedServe(const Args& args, Report* report);
void RunCosineTopK(const Args& args, Report* report);
void RunLiveOoc(const Args& args, Report* report);

/// `proto` pointed at query `i`.
inline pexeso::JoinQuery BindQuery(size_t i, const pexeso::JoinQuery& proto,
                                   const std::vector<pexeso::VectorStore>& qs) {
  pexeso::JoinQuery jq = proto;
  jq.vectors = &qs[i];
  return jq;
}

/// `n` query columns of `size` vectors drawn from `profile`'s clusters,
/// seeded from the run seed.
std::vector<pexeso::VectorStore> MakeQueries(
    const pexeso::VectorLakeOptions& profile, size_t n, size_t size,
    uint64_t seed);

/// The oracle's view of `catalog` split by `assignment` into part
/// snapshots built in ascending column order (PartitionedPexeso::Build's
/// layout): global id = catalog column id, local_first = the column's first
/// vector inside its part.
std::vector<OracleColumn> OracleColumns(
    const pexeso::ColumnCatalog& catalog,
    const pexeso::PartitionAssignment& assignment);

/// Checks `answers[i]` against the oracle for a fixed sample of queries and
/// records each failure in `report`.
void OracleCheck(const Oracle& oracle,
                 const std::vector<pexeso::VectorStore>& queries,
                 const std::vector<std::vector<pexeso::JoinableColumn>>& answers,
                 const Expectation& expect, const char* what, Report* report);

/// Builds `catalog`'s part indexes one by one with PexesoIndex::Build, as
/// the partitioned and lake builds do, and returns the summed build time.
/// The indexes are dropped; only the time is kept.
double ReplayIndexBuilds(const pexeso::ColumnCatalog& catalog,
                         const pexeso::PartitionAssignment& assignment,
                         const pexeso::Metric* metric);

/// What a traced run measured, turned into the per-layer metrics.
struct LayerInputs {
  uint64_t queries = 0;
  const Tracer* tracer = nullptr;
  ReplayCounters counters;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t bytes_loaded = 0;
  /// lwdc-sharded-serve: summed round trips and session times.
  double session_s = 0.0;
  double direct_s = 0.0;
  double coordinator_s = 0.0;
  uint64_t net_bytes = 0;
  uint64_t shard_bytes = 0;
  /// swdc-live-ooc.
  std::vector<double> append_s;
  std::vector<double> drop_s;
  double merge_all_s = 0.0;
  double ingest_cols_per_s = 0.0;
  double write_amp = 0.0;
  uint64_t snapshots_searched = 0;
  double open_s = 0.0;
  double index_build_s = 0.0;
};

/// Emits every per-layer metric; a layer the workload does not reach
/// reports 0.
void EmitLayerMetrics(const LayerInputs& in, Report* report);

/// Prints the traced run's per-layer self times per query, the summed
/// self time against the traced query latency, and the tracing overhead
/// (traced replay against the untraced call, same queries).
void PrintTraceSummary(const Tracer& tracer, uint64_t queries,
                       const char* root, double untraced_s, double traced_s);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
