// Determinism and correctness suite for the staged verification pipeline
// (src/core/verify_pipeline.{h,cc}): the column-sharded tiled search must
// return byte-identical results to its own serial execution at every
// intra-query thread count, across every lemma-ablation combination, with
// exact-joinability mode on and off, and with record-mapping collection — and
// the whole thing must agree with a brute-force scalar oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/pexeso_index.h"
#include "core/searcher.h"
#include "core/verify_pipeline.h"
#include "invindex/inverted_index.h"
#include "test_util.h"
#include "vec/metric.h"

namespace pexeso {
namespace {

using testing::MustSearch;
using testing::MakeClusteredCatalog;
using testing::MakeClusteredQuery;

/// Brute-force join with exact counts and first-match mappings, spelled out
/// with the double-accumulating virtual Metric::Dist oracle.
std::vector<JoinableColumn> OracleJoin(const ColumnCatalog& catalog,
                                       const Metric& metric,
                                       const VectorStore& query,
                                       const SearchThresholds& t,
                                       bool with_mappings) {
  const VectorStore& rstore = catalog.store();
  const uint32_t dim = rstore.dim();
  std::vector<JoinableColumn> out;
  for (ColumnId col = 0; col < catalog.num_columns(); ++col) {
    const ColumnMeta& meta = catalog.column(col);
    JoinableColumn jc;
    jc.column = col;
    for (uint32_t q = 0; q < query.size(); ++q) {
      for (VecId v = meta.first; v < meta.end(); ++v) {
        if (metric.Dist(query.View(q), rstore.View(v), dim) <= t.tau) {
          ++jc.match_count;
          if (with_mappings) jc.mapping.push_back(RecordMatch{q, v});
          break;
        }
      }
    }
    if (jc.match_count >= std::max<uint32_t>(1, t.t_abs)) {
      jc.joinability = static_cast<double>(jc.match_count) /
                       static_cast<double>(query.size());
      out.push_back(std::move(jc));
    }
  }
  return out;
}

void ExpectByteIdentical(const std::vector<JoinableColumn>& a,
                         const std::vector<JoinableColumn>& b,
                         const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].column, b[i].column) << label;
    EXPECT_EQ(a[i].match_count, b[i].match_count) << label;
    EXPECT_EQ(a[i].joinability, b[i].joinability) << label;
    ASSERT_EQ(a[i].mapping.size(), b[i].mapping.size()) << label;
    for (size_t m = 0; m < a[i].mapping.size(); ++m) {
      EXPECT_EQ(a[i].mapping[m].query_index, b[i].mapping[m].query_index)
          << label;
      EXPECT_EQ(a[i].mapping[m].target_vec, b[i].mapping[m].target_vec)
          << label;
    }
  }
}

/// Counter fields must be identical at any intra-query thread count. The
/// *_seconds fields are wall-clock and shard_max_blocks is the (thread-count
/// dependent) imbalance diagnostic, so both stay out of the comparison.
void ExpectSameCounters(const SearchStats& a, const SearchStats& b,
                        const std::string& label) {
  EXPECT_EQ(a.distance_computations, b.distance_computations) << label;
  EXPECT_EQ(a.sqrt_free_comparisons, b.sqrt_free_comparisons) << label;
  EXPECT_EQ(a.lemma1_filtered, b.lemma1_filtered) << label;
  EXPECT_EQ(a.lemma2_matched, b.lemma2_matched) << label;
  EXPECT_EQ(a.cells_filtered, b.cells_filtered) << label;
  EXPECT_EQ(a.cells_matched, b.cells_matched) << label;
  EXPECT_EQ(a.candidate_pairs, b.candidate_pairs) << label;
  EXPECT_EQ(a.matching_pairs, b.matching_pairs) << label;
  EXPECT_EQ(a.lemma7_kills, b.lemma7_kills) << label;
  EXPECT_EQ(a.early_joinable, b.early_joinable) << label;
  EXPECT_EQ(a.candidate_blocks, b.candidate_blocks) << label;
  EXPECT_EQ(a.tiles_evaluated, b.tiles_evaluated) << label;
}

std::vector<ColumnId> Columns(const std::vector<JoinableColumn>& r) {
  std::vector<ColumnId> out;
  for (const auto& jc : r) out.push_back(jc.column);
  return out;
}

/// Re-runs blocking exactly as the searcher does, so stage 1 can be driven
/// directly.
BlockResult RunBlocking(const PexesoIndex& index, const VectorStore& query,
                        double tau, SearchStats* stats) {
  const PivotSpace& ps = index.pivots();
  const std::vector<double> mapped_q =
      ps.MapAll(query.raw().data(), query.size());
  HierarchicalGrid hgq;
  HierarchicalGrid::Options gopts;
  gopts.levels = index.grid().levels();
  gopts.store_leaf_items = true;
  hgq.Build(mapped_q.data(), query.size(), ps.num_pivots(), ps.AxisExtent(),
            gopts);
  GridBlocker blocker(&index.grid());
  return blocker.Run(hgq, mapped_q, tau, AblationConfig{}, stats);
}

/// The reference stage 1: a document-at-a-time heap merge of the record's
/// postings cursors (match cells first, then candidate cells, in blocking
/// order), emitting each (record, column) pair in ascending column order
/// with its ranges in cursor order, then the same CSR scatter by column.
/// GenerateCandidates must reproduce its output field by field.
void HeapMergeCandidates(const PexesoIndex& index, const BlockResult& blocks,
                         uint32_t num_q, CandidateSet* out,
                         SearchStats* stats) {
  const InvertedIndex& inv = index.inverted_index();
  const size_t ncols = index.catalog().num_columns();
  out->blocks.clear();
  out->ranges.clear();
  out->block_begin.assign(ncols + 1, 0);
  out->weight.assign(ncols, 0);
  out->total_weight = 0;
  if (num_q == 0) return;

  struct Cursor {
    std::span<const InvertedIndex::Posting> postings;
    size_t pos = 0;
    bool is_match = false;
  };
  struct TmpBlock {
    ColumnId column;
    uint32_t query;
    uint32_t range_begin;
    uint32_t range_count;
    uint8_t cell_matched;
  };
  std::vector<Cursor> cursors;
  std::vector<TmpBlock> tmp;
  std::vector<VecIdRange> tmp_ranges;
  using HeapEntry = std::pair<ColumnId, uint32_t>;  // (current column, cursor)
  std::vector<HeapEntry> heap;
  std::vector<uint32_t> active;
  auto advance = [&](uint32_t c) {
    if (++cursors[c].pos < cursors[c].postings.size()) {
      heap.emplace_back(cursors[c].postings[cursors[c].pos].column, c);
      std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    }
  };

  for (uint32_t q = 0; q < num_q; ++q) {
    cursors.clear();
    for (uint32_t cell : blocks.match_cells[q]) {
      auto span = inv.PostingsOf(cell);
      if (!span.empty()) cursors.push_back(Cursor{span, 0, true});
    }
    for (uint32_t cell : blocks.cand_cells[q]) {
      auto span = inv.PostingsOf(cell);
      if (!span.empty()) cursors.push_back(Cursor{span, 0, false});
    }
    heap.clear();
    for (uint32_t c = 0; c < cursors.size(); ++c) {
      heap.emplace_back(cursors[c].postings[0].column, c);
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<>{});
    while (!heap.empty()) {
      const ColumnId col = heap.front().first;
      active.clear();
      while (!heap.empty() && heap.front().first == col) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
        active.push_back(heap.back().second);
        heap.pop_back();
      }
      if (index.IsDeleted(col)) {
        for (uint32_t c : active) advance(c);
        continue;
      }
      bool cell_matched = false;
      for (uint32_t c : active) cell_matched |= cursors[c].is_match;
      const uint32_t rb = static_cast<uint32_t>(tmp_ranges.size());
      uint32_t rc = 0;
      if (!cell_matched) {
        for (uint32_t c : active) {
          const auto& p = cursors[c].postings[cursors[c].pos];
          if (p.vec_count > 0) {
            tmp_ranges.push_back(VecIdRange{p.vec_begin, p.vec_count});
            ++rc;
          }
        }
      }
      tmp.push_back(
          TmpBlock{col, q, rb, rc, static_cast<uint8_t>(cell_matched)});
      for (uint32_t c : active) advance(c);
    }
  }
  stats->candidate_blocks += tmp.size();

  for (const TmpBlock& b : tmp) ++out->block_begin[b.column + 1];
  for (size_t c = 1; c <= ncols; ++c) {
    out->block_begin[c] += out->block_begin[c - 1];
  }
  std::vector<uint32_t> range_begin(ncols + 1, 0);
  for (const TmpBlock& b : tmp) range_begin[b.column + 1] += b.range_count;
  for (size_t c = 1; c <= ncols; ++c) range_begin[c] += range_begin[c - 1];
  out->blocks.resize(tmp.size());
  out->ranges.resize(tmp_ranges.size());
  std::vector<uint32_t> next_block(out->block_begin.begin(),
                                   out->block_begin.end() - 1);
  std::vector<uint32_t> next_range(range_begin.begin(), range_begin.end() - 1);
  for (const TmpBlock& b : tmp) {
    const uint32_t dst = next_block[b.column]++;
    const uint32_t rdst = next_range[b.column];
    next_range[b.column] += b.range_count;
    uint64_t w = b.cell_matched ? 1 : 0;
    for (uint32_t r = 0; r < b.range_count; ++r) {
      out->ranges[rdst + r] = tmp_ranges[b.range_begin + r];
      w += tmp_ranges[b.range_begin + r].count;
    }
    out->blocks[dst] =
        CandidateBlock{b.query, rdst, b.range_count, b.cell_matched};
    out->weight[b.column] += w;
    out->total_weight += w;
  }
}

/// Field-by-field CandidateSet equality against the reference heap merge,
/// candidate_blocks counter included. Returns the block count.
size_t ExpectMatchesHeapMerge(const PexesoIndex& index,
                              const BlockResult& blocks, uint32_t num_q,
                              const std::string& label) {
  CandidateSet got, want;
  SearchStats got_stats, want_stats;
  VerifyPipeline(&index).GenerateCandidates(blocks, num_q, &got, &got_stats);
  HeapMergeCandidates(index, blocks, num_q, &want, &want_stats);
  EXPECT_EQ(got_stats.candidate_blocks, want_stats.candidate_blocks) << label;
  EXPECT_EQ(got.block_begin, want.block_begin) << label;
  EXPECT_EQ(got.weight, want.weight) << label;
  EXPECT_EQ(got.total_weight, want.total_weight) << label;
  EXPECT_EQ(got.blocks.size(), want.blocks.size()) << label;
  EXPECT_EQ(got.ranges.size(), want.ranges.size()) << label;
  for (size_t i = 0; i < std::min(got.blocks.size(), want.blocks.size());
       ++i) {
    const CandidateBlock& a = got.blocks[i];
    const CandidateBlock& b = want.blocks[i];
    EXPECT_TRUE(a.query == b.query && a.range_begin == b.range_begin &&
                a.range_count == b.range_count &&
                a.cell_matched == b.cell_matched)
        << label << " block " << i;
  }
  for (size_t i = 0; i < std::min(got.ranges.size(), want.ranges.size());
       ++i) {
    EXPECT_TRUE(got.ranges[i].begin == want.ranges[i].begin &&
                got.ranges[i].count == want.ranges[i].count)
        << label << " range " << i;
  }
  return got.blocks.size();
}

class PipelineDeterminismTest : public ::testing::TestWithParam<const char*> {
};

/// The tentpole acceptance matrix: serial pipeline == sharded pipeline at
/// 1/2/8 intra-query threads, across the lemma-ablation lattice, exact
/// joinability on/off, and with mapping collection — and the serial run
/// matches the brute-force oracle.
TEST_P(PipelineDeterminismTest, ShardedEqualsSerialAcrossAblations) {
  auto metric = MakeMetric(GetParam());
  ASSERT_NE(metric, nullptr);
  const uint32_t dim = 17;  // odd: exercises SIMD remainder lanes end to end
  ColumnCatalog catalog = MakeClusteredCatalog(77, dim, 28, 14);
  VectorStore query = MakeClusteredQuery(77, dim, 20);
  FractionalThresholds ft{0.08, 0.4};

  PexesoOptions popts;
  popts.num_pivots = 4;
  popts.levels = 4;
  ColumnCatalog copy = catalog;
  PexesoIndex index = PexesoIndex::Build(std::move(copy), metric.get(), popts);
  PexesoSearcher searcher(&index);

  for (bool use_l1 : {true, false}) {
    for (bool use_l2 : {true, false}) {
      for (bool use_l7 : {true, false}) {
        for (bool exact : {false, true}) {
          for (bool mappings : {false, true}) {
            JoinQuery sopts;
            sopts.thresholds = ft.Resolve(*metric, dim, query.size());
            sopts.ablation.use_lemma1 = use_l1;
            sopts.ablation.use_lemma2 = use_l2;
            sopts.ablation.use_lemma7 = use_l7;
            sopts.mode = exact ? QueryMode::kExactJoinability
                               : QueryMode::kThreshold;
            sopts.collect_mappings = mappings;
            const std::string label =
                std::string(GetParam()) + " l1=" + std::to_string(use_l1) +
                " l2=" + std::to_string(use_l2) +
                " l7=" + std::to_string(use_l7) +
                " exact=" + std::to_string(exact) +
                " map=" + std::to_string(mappings);

            SearchStats serial_stats;
            const auto serial = MustSearch(searcher, query, sopts, &serial_stats);

            // Oracle agreement: the joinable set is always identical; the
            // counts are exact whenever the search reports exact counts
            // (exact mode, or the mapping post-pass upgrade).
            const auto oracle = OracleJoin(catalog, *metric, query,
                                           sopts.thresholds, mappings);
            ASSERT_EQ(Columns(serial), Columns(oracle)) << label;
            if (exact || mappings) {
              for (size_t i = 0; i < serial.size(); ++i) {
                EXPECT_EQ(serial[i].match_count, oracle[i].match_count)
                    << label;
              }
            }
            if (mappings) {
              ExpectByteIdentical(serial, oracle, label + " vs oracle");
            }

            for (size_t threads : {1, 2, 8}) {
              JoinQuery topts = sopts;
              topts.intra_query_threads = threads;
              SearchStats tstats;
              const auto threaded = MustSearch(searcher, query, topts, &tstats);
              ExpectByteIdentical(
                  threaded, serial,
                  label + " threads=" + std::to_string(threads));
              ExpectSameCounters(
                  tstats, serial_stats,
                  label + " threads=" + std::to_string(threads));
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, PipelineDeterminismTest,
                         ::testing::Values("l2", "cosine", "l1"));

TEST(PipelineTest, SharedIntraPoolMatchesTransientPool) {
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(78, 12, 30, 16);
  VectorStore query = MakeClusteredQuery(78, 12, 24);
  PexesoOptions popts;
  popts.num_pivots = 3;
  popts.levels = 4;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, popts);
  PexesoSearcher searcher(&index);

  FractionalThresholds ft{0.08, 0.4};
  JoinQuery sopts;
  sopts.thresholds = ft.Resolve(metric, 12, query.size());
  sopts.collect_mappings = true;
  const auto serial = MustSearch(searcher, query, sopts, nullptr);

  // Transient pool (no intra_query_pool) vs a caller-provided shared pool
  // driven through a TaskGroup: same results either way.
  sopts.intra_query_threads = 4;
  const auto transient = MustSearch(searcher, query, sopts, nullptr);
  ThreadPool shared(4);
  sopts.intra_query_pool = &shared;
  const auto pooled = MustSearch(searcher, query, sopts, nullptr);
  ExpectByteIdentical(transient, serial, "transient pool");
  ExpectByteIdentical(pooled, serial, "shared pool");
}

/// Satellite bugfix regression: the mapping post-pass must route its
/// distance computations and Lemma-1 filter hits through the same counters
/// as verification (it used to report nothing).
TEST(PipelineTest, CollectMappingsRoutesStatsThroughSearchCounters) {
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(79, 10, 25, 15);
  VectorStore query = MakeClusteredQuery(79, 10, 20);
  PexesoOptions popts;
  popts.num_pivots = 3;
  popts.levels = 4;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, popts);
  PexesoSearcher searcher(&index);
  FractionalThresholds ft{0.08, 0.3};
  JoinQuery sopts;
  sopts.thresholds = ft.Resolve(metric, 10, query.size());

  SearchStats without;
  const auto r0 = MustSearch(searcher, query, sopts, &without);
  ASSERT_FALSE(r0.empty());
  sopts.collect_mappings = true;
  SearchStats with;
  const auto r1 = MustSearch(searcher, query, sopts, &with);
  ASSERT_FALSE(r1.empty());
  // The mapping sweep re-verifies every (query record, column row) pair of
  // each joinable column, so both counters must strictly grow.
  EXPECT_GT(with.distance_computations, without.distance_computations);
  EXPECT_GT(with.lemma1_filtered, without.lemma1_filtered);
}

/// Regression for the Lemma-7 batch headroom clamp: an unreachable T
/// (t_abs > |Q|) kills every column on its first mismatch; the batched
/// state machine must take pairs one at a time there, not underflow.
TEST(PipelineTest, UnreachableThresholdIsSafeAtAnyThreadCount) {
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(80, 8, 15, 10);
  VectorStore query = MakeClusteredQuery(80, 8, 12);
  PexesoOptions popts;
  popts.num_pivots = 3;
  popts.levels = 3;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, popts);
  PexesoSearcher searcher(&index);
  JoinQuery sopts;
  sopts.thresholds.tau = 0.08;
  sopts.thresholds.t_abs = static_cast<uint32_t>(query.size()) + 5;
  SearchStats s1, s8;
  const auto serial = MustSearch(searcher, query, sopts, &s1);
  EXPECT_TRUE(serial.empty());
  sopts.intra_query_threads = 8;
  const auto threaded = MustSearch(searcher, query, sopts, &s8);
  EXPECT_TRUE(threaded.empty());
  ExpectSameCounters(s8, s1, "unreachable T");
}

/// Structural invariants of stage 1: CSR grouping by column with each
/// column's pairs in ascending query order, and weights consistent with the
/// emitted ranges.
TEST(PipelineTest, CandidateSetIsColumnGroupedAndQueryOrdered) {
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(81, 10, 20, 12);
  VectorStore query = MakeClusteredQuery(81, 10, 16);
  PexesoOptions popts;
  popts.num_pivots = 3;
  popts.levels = 4;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, popts);

  FractionalThresholds ft{0.08, 0.4};
  const SearchThresholds th = ft.Resolve(metric, 10, query.size());

  SearchStats stats;
  const BlockResult blocks = RunBlocking(index, query, th.tau, &stats);
  VerifyPipeline pipeline(&index);
  CandidateSet cands;
  pipeline.GenerateCandidates(blocks, static_cast<uint32_t>(query.size()),
                              &cands, &stats);

  ASSERT_EQ(cands.block_begin.size(), index.catalog().num_columns() + 1);
  EXPECT_EQ(cands.block_begin.front(), 0u);
  EXPECT_EQ(cands.block_begin.back(), cands.blocks.size());
  EXPECT_EQ(stats.candidate_blocks, cands.blocks.size());
  EXPECT_GT(cands.blocks.size(), 0u);

  uint64_t weight_sum = 0;
  for (ColumnId c = 0; c + 1 < cands.block_begin.size(); ++c) {
    EXPECT_LE(cands.block_begin[c], cands.block_begin[c + 1]);
    uint64_t col_weight = 0;
    for (size_t b = cands.block_begin[c]; b < cands.block_begin[c + 1]; ++b) {
      if (b > cands.block_begin[c]) {
        // Ascending query order within the column — the ordering the
        // stage-2 state machine relies on.
        EXPECT_LT(cands.blocks[b - 1].query, cands.blocks[b].query);
      }
      const CandidateBlock& blk = cands.blocks[b];
      if (blk.cell_matched) {
        EXPECT_EQ(blk.range_count, 0u);
        col_weight += 1;
      } else {
        EXPECT_GT(blk.range_count, 0u);
        for (uint32_t r = 0; r < blk.range_count; ++r) {
          const VecIdRange& range = cands.ranges[blk.range_begin + r];
          EXPECT_GT(range.count, 0u);
          col_weight += range.count;
        }
      }
    }
    EXPECT_EQ(cands.weight[c], col_weight);
    weight_sum += col_weight;
  }
  EXPECT_EQ(cands.total_weight, weight_sum);
}

/// Stage 1 reproduces the reference heap merge byte for byte on a built
/// index and on the same index loaded back by mmap (view postings), over
/// every metric.
TEST(PipelineTest, CandidatesMatchHeapMergeOnBuiltAndMappedIndex) {
  for (const char* name : {"l2", "cosine", "l1"}) {
    auto metric = MakeMetric(name);
    ColumnCatalog catalog = MakeClusteredCatalog(83, 12, 40, 14);
    PexesoOptions popts;
    popts.num_pivots = 4;
    popts.levels = 4;
    PexesoIndex built = PexesoIndex::Build(std::move(catalog), metric.get(),
                                           popts);
    const std::string path =
        ::testing::TempDir() + "/pipeline_parity_" + name + ".pxso";
    ASSERT_TRUE(built.Save(path).ok());
    auto loaded = PexesoIndex::Load(path, metric.get());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE(loaded.value().inverted_index().is_view());

    for (uint64_t seed : {83u, 84u, 85u}) {
      VectorStore query = MakeClusteredQuery(seed, 12, 18);
      FractionalThresholds ft{0.08, 0.4};
      const SearchThresholds th = ft.Resolve(*metric, 12, query.size());
      SearchStats stats;
      const BlockResult blocks = RunBlocking(built, query, th.tau, &stats);
      const uint32_t num_q = static_cast<uint32_t>(query.size());
      const std::string label =
          std::string(name) + " seed=" + std::to_string(seed);
      EXPECT_GT(ExpectMatchesHeapMerge(built, blocks, num_q, label), 0u);
      ExpectMatchesHeapMerge(loaded.value(), blocks, num_q, label + " mmap");
    }
    std::remove(path.c_str());
  }
}

/// Appended columns (growable postings) and tombstoned columns (skipped,
/// never emitted) keep the byte-identical output.
TEST(PipelineTest, CandidatesMatchHeapMergeWithAppendsAndTombstones) {
  L2Metric metric;
  const uint32_t dim = 10;
  ColumnCatalog catalog = MakeClusteredCatalog(86, dim, 24, 12);
  ColumnCatalog extra = MakeClusteredCatalog(86, dim, 36, 12);
  PexesoOptions popts;
  popts.num_pivots = 3;
  popts.levels = 4;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, popts);
  // Columns 24..35 of the same clusters arrive by AppendColumn.
  for (ColumnId c = 24; c < extra.num_columns(); ++c) {
    const ColumnMeta& meta = extra.column(c);
    index.AppendColumn(meta, extra.store().View(meta.first), meta.count);
  }

  VectorStore query = MakeClusteredQuery(86, dim, 30);
  FractionalThresholds ft{0.08, 0.4};
  const SearchThresholds th = ft.Resolve(metric, dim, query.size());
  SearchStats stats;
  const BlockResult blocks = RunBlocking(index, query, th.tau, &stats);
  const uint32_t num_q = static_cast<uint32_t>(query.size());
  EXPECT_GT(ExpectMatchesHeapMerge(index, blocks, num_q, "append"), 0u);

  const std::vector<ColumnId> doomed = {1, 7, 25, 30};
  CandidateSet before;
  VerifyPipeline(&index).GenerateCandidates(blocks, num_q, &before, &stats);
  size_t appended_blocks = 0, doomed_blocks = 0;
  for (ColumnId c = 24; c < index.catalog().num_columns(); ++c) {
    appended_blocks += before.block_begin[c + 1] - before.block_begin[c];
  }
  for (ColumnId c : doomed) {
    doomed_blocks += before.block_begin[c + 1] - before.block_begin[c];
  }
  EXPECT_GT(appended_blocks, 0u);
  EXPECT_GT(doomed_blocks, 0u);  // the tombstones below drop real pairs

  for (ColumnId c : doomed) index.DeleteColumn(c);
  EXPECT_GT(ExpectMatchesHeapMerge(index, blocks, num_q, "append+delete"),
            0u);
  CandidateSet after;
  VerifyPipeline(&index).GenerateCandidates(blocks, num_q, &after, &stats);
  EXPECT_EQ(after.blocks.size(), before.blocks.size() - doomed_blocks);
  for (ColumnId c : doomed) {
    EXPECT_EQ(after.block_begin[c], after.block_begin[c + 1]) << c;
  }
}

/// A hand-made blocking output that lists one cell twice and one cell as
/// both a match cell and a candidate cell: duplicates yield repeated ranges
/// in cursor order, and any match cell decides the pair with no ranges.
TEST(PipelineTest, CandidatesMatchHeapMergeOnRepeatedAndMatchedCells) {
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(87, 8, 20, 12);
  PexesoOptions popts;
  popts.num_pivots = 3;
  popts.levels = 3;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, popts);
  const InvertedIndex& inv = index.inverted_index();
  std::vector<uint32_t> busy;  // cells with postings, most-populated first
  for (uint32_t cell = 0; cell < inv.num_cells(); ++cell) {
    if (!inv.PostingsOf(cell).empty()) busy.push_back(cell);
  }
  std::stable_sort(busy.begin(), busy.end(), [&](uint32_t a, uint32_t b) {
    return inv.PostingsOf(a).size() > inv.PostingsOf(b).size();
  });
  ASSERT_GE(busy.size(), 4u);

  BlockResult blocks;
  blocks.match_cells = {{}, {busy[0]}, {busy[2], busy[2]}};
  blocks.cand_cells = {{busy[0], busy[1], busy[0]},
                       {busy[1], busy[0], busy[3]},
                       {busy[2], busy[3], busy[3]}};
  EXPECT_GT(ExpectMatchesHeapMerge(index, blocks, 3, "hand-made"), 0u);

  CandidateSet cands;
  SearchStats stats;
  VerifyPipeline(&index).GenerateCandidates(blocks, 3, &cands, &stats);
  // Record 0: a column of busy[0] carries busy[0]'s range twice.
  const InvertedIndex::Posting& p = inv.PostingsOf(busy[0])[0];
  bool found = false;
  for (uint32_t b = cands.block_begin[p.column];
       b < cands.block_begin[p.column + 1]; ++b) {
    const CandidateBlock& blk = cands.blocks[b];
    if (blk.query != 0) continue;
    found = true;
    EXPECT_FALSE(blk.cell_matched);
    uint32_t hits = 0;
    for (uint32_t r = 0; r < blk.range_count; ++r) {
      hits += cands.ranges[blk.range_begin + r].begin == p.vec_begin;
    }
    EXPECT_EQ(hits, 2u);
  }
  EXPECT_TRUE(found);
  // Record 1: every column of match cell busy[0] is cell-matched.
  for (const auto& mp : inv.PostingsOf(busy[0])) {
    for (uint32_t b = cands.block_begin[mp.column];
         b < cands.block_begin[mp.column + 1]; ++b) {
      if (cands.blocks[b].query != 1) continue;
      EXPECT_TRUE(cands.blocks[b].cell_matched);
      EXPECT_EQ(cands.blocks[b].range_count, 0u);
    }
  }
}

/// A deleted column's candidate blocks are skipped by every shard layout.
TEST(PipelineTest, DeletedColumnStaysDeletedUnderSharding) {
  L2Metric metric;
  ColumnCatalog catalog = MakeClusteredCatalog(82, 8, 15, 12);
  VectorStore query = MakeClusteredQuery(82, 8, 15);
  PexesoOptions popts;
  popts.num_pivots = 3;
  popts.levels = 3;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, popts);
  PexesoSearcher searcher(&index);
  FractionalThresholds ft{0.08, 0.3};
  JoinQuery sopts;
  sopts.thresholds = ft.Resolve(metric, 8, query.size());
  auto before = MustSearch(searcher, query, sopts, nullptr);
  ASSERT_FALSE(before.empty());
  index.DeleteColumn(before[0].column);
  sopts.intra_query_threads = 4;
  auto after = MustSearch(searcher, query, sopts, nullptr);
  for (const auto& r : after) EXPECT_NE(r.column, before[0].column);
  EXPECT_EQ(after.size(), before.size() - 1);
}

}  // namespace
}  // namespace pexeso
