#include "replay.h"

#include "core/blocker.h"
#include "core/verify_pipeline.h"
#include "grid/hierarchical_grid.h"

namespace perfbench {

using pexeso::JoinableColumn;

pexeso::Status TracedSearch(const pexeso::PexesoIndex& index,
                            const pexeso::JoinQuery& jq, Tracer* tracer,
                            uint64_t qid, ReplayCounters* counters,
                            std::vector<JoinableColumn>* out) {
  using namespace pexeso;
  out->clear();
  const VectorStore& query = *jq.vectors;
  const uint32_t num_q = static_cast<uint32_t>(query.size());
  const size_t num_cols = index.catalog().num_columns();
  const uint32_t t_abs = jq.EffectiveT();
  const bool topk_mode = jq.mode == QueryMode::kTopK;
  if (num_q == 0 || (topk_mode && jq.k == 0)) return Status::OK();
  SearchStats stats;

  const PivotSpace& ps = index.pivots();
  std::vector<double> mapped_q;
  {
    Tracer::Scope span(tracer, "pivot.map", qid);
    mapped_q = ps.MapAll(query.View(0), query.size());
  }
  HierarchicalGrid hgq;
  {
    Tracer::Scope span(tracer, "grid.query_build", qid);
    HierarchicalGrid::Options gopts;
    gopts.levels = index.grid().levels();
    gopts.store_leaf_items = true;
    hgq.Build(mapped_q.data(), query.size(), ps.num_pivots(),
              ps.AxisExtent(), gopts);
  }
  BlockResult blocks;
  {
    Tracer::Scope span(tracer, "core.block", qid);
    blocks = GridBlocker(&index.grid())
                 .Run(hgq, mapped_q, jq.thresholds.tau, jq.ablation, &stats);
  }
  VerifyPipeline pipeline(&index);
  CandidateSet cands;
  {
    Tracer::Scope span(tracer, "core.candgen", qid);
    pipeline.GenerateCandidates(blocks, num_q, &cands, &stats);
  }
  if (!cands.empty()) {
    for (ColumnId c = 0; c < num_cols; ++c) {
      if (cands.block_begin[c + 1] > cands.block_begin[c]) {
        ++counters->verified_columns;
      }
    }
  }

  TopKBound topk_bound(jq.k, jq.topk_floor);
  std::vector<uint8_t> pruned;
  if (topk_mode) pruned.assign(num_cols, 0);
  std::vector<uint32_t> match_map(num_cols, 0);
  SearchStats verify_stats;
  Status st;
  {
    Tracer::Scope span(tracer, "core.verify", qid);
    st = pipeline.VerifyCandidates(
        cands, query, mapped_q, jq, topk_mode ? &topk_bound : nullptr,
        &match_map, topk_mode ? &pruned : nullptr, &verify_stats);
  }
  if (jq.intra_query_threads > 1 && !cands.empty()) {
    counters->imbalance_sum +=
        static_cast<double>(verify_stats.shard_max_blocks) *
        static_cast<double>(jq.intra_query_threads) /
        static_cast<double>(cands.blocks.size());
    ++counters->imbalance_calls;
  }
  stats += verify_stats;
  if (!st.ok()) return st;

  for (ColumnId col = 0; col < num_cols; ++col) {
    if (index.IsDeleted(col)) continue;
    if (topk_mode && pruned[col]) continue;
    if (match_map[col] >= t_abs) {
      JoinableColumn jc;
      jc.column = col;
      jc.match_count = match_map[col];
      jc.joinability =
          static_cast<double>(jc.match_count) / static_cast<double>(num_q);
      out->push_back(std::move(jc));
    }
  }
  if (topk_mode) RankTopK(out, jq.k);
  if (jq.collect_mappings) {
    Tracer::Scope span(tracer, "core.mappings", qid);
    st = pipeline.CollectMappings(query, mapped_q, jq, out, &stats);
  }
  counters->stats += stats;
  return st;
}

void ToGlobalIds(const pexeso::PexesoIndex& index,
                 std::vector<JoinableColumn>* columns) {
  for (JoinableColumn& jc : *columns) {
    jc.column = index.catalog().column(jc.column).source_id;
  }
}

bool SameAnswer(const std::vector<JoinableColumn>& a,
                const std::vector<JoinableColumn>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const JoinableColumn& x = a[i];
    const JoinableColumn& y = b[i];
    if (x.column != y.column || x.match_count != y.match_count ||
        x.joinability != y.joinability ||
        x.mapping.size() != y.mapping.size()) {
      return false;
    }
    for (size_t p = 0; p < x.mapping.size(); ++p) {
      if (x.mapping[p].query_index != y.mapping[p].query_index ||
          x.mapping[p].target_vec != y.mapping[p].target_vec) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace perfbench
