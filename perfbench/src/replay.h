// The traced replay of one query against one index snapshot: the stages of
// PexesoSearcher::Execute called one by one through the layers' public
// entry points, each inside a span.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <vector>

#include "core/join_result.h"
#include "core/pexeso_index.h"
#include "core/query.h"
#include "trace.h"
#include "vec/search_stats.h"

namespace perfbench {

/// Work counts read at the replay's stage boundaries, summed over queries.
struct ReplayCounters {
  pexeso::SearchStats stats;
  /// Columns that reached verification (at least one candidate block).
  uint64_t verified_columns = 0;
  /// Columns returned by the query, after its final merge.
  uint64_t result_columns = 0;
  /// Per verification call with intra-query shards: the largest shard's
  /// candidate blocks over the mean shard's.
  double imbalance_sum = 0.0;
  uint64_t imbalance_calls = 0;
};

/// Runs `jq` against `index` stage by stage, as PexesoSearcher::Execute
/// does, and returns the joinable columns with the index's own column ids
/// (the caller maps them to global ids). Stage spans are recorded under the
/// tracer's open span.
pexeso::Status TracedSearch(const pexeso::PexesoIndex& index,
                            const pexeso::JoinQuery& jq, Tracer* tracer,
                            uint64_t qid, ReplayCounters* counters,
                            std::vector<pexeso::JoinableColumn>* out);

/// Replaces each column's snapshot-local id with its global id
/// (ColumnMeta::source_id), as SearchIndexSnapshot does.
void ToGlobalIds(const pexeso::PexesoIndex& index,
                 std::vector<pexeso::JoinableColumn>* columns);

/// True when two answers are identical field by field, mappings included.
bool SameAnswer(const std::vector<pexeso::JoinableColumn>& a,
                const std::vector<pexeso::JoinableColumn>& b);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
