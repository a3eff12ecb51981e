// BatchQueryRunner determinism and correctness: the batch fan-out must
// return byte-identical results to a serial Search loop at every thread
// count, with stats merged deterministically.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <vector>

#include "baseline/naive_searcher.h"
#include "core/batch_runner.h"
#include "core/pexeso_index.h"
#include "core/searcher.h"
#include "partition/partitioned_pexeso.h"
#include "test_util.h"

namespace pexeso {
namespace {

using testing::BindQueries;
using testing::MustSearch;
using testing::MakeClusteredCatalog;
using testing::MakeClusteredQuery;
using testing::MakeJoiningQuery;

/// Field-by-field equality of two result sets, mapping included — the
/// "byte-identical" contract of the runner.
void ExpectIdentical(const std::vector<std::vector<JoinableColumn>>& a,
                     const std::vector<std::vector<JoinableColumn>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "query " << i;
    for (size_t j = 0; j < a[i].size(); ++j) {
      EXPECT_EQ(a[i][j].column, b[i][j].column) << "query " << i;
      EXPECT_EQ(a[i][j].match_count, b[i][j].match_count) << "query " << i;
      EXPECT_EQ(a[i][j].joinability, b[i][j].joinability) << "query " << i;
      ASSERT_EQ(a[i][j].mapping.size(), b[i][j].mapping.size())
          << "query " << i;
      for (size_t m = 0; m < a[i][j].mapping.size(); ++m) {
        EXPECT_EQ(a[i][j].mapping[m].query_index,
                  b[i][j].mapping[m].query_index);
        EXPECT_EQ(a[i][j].mapping[m].target_vec,
                  b[i][j].mapping[m].target_vec);
      }
    }
  }
}

class BatchRunnerTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kDim = 10;
  static constexpr size_t kNumQueries = 32;

  void SetUp() override {
    catalog_ = MakeClusteredCatalog(3000, kDim, 40, 12);
    ColumnCatalog copy = catalog_;
    PexesoOptions opts;
    opts.num_pivots = 3;
    opts.levels = 4;
    index_ = std::make_unique<PexesoIndex>(
        PexesoIndex::Build(std::move(copy), &metric_, opts));
    for (size_t i = 0; i < kNumQueries; ++i) {
      queries_.push_back(MakeJoiningQuery(catalog_, 3100 + i, 10 + i % 7));
    }
    FractionalThresholds ft{0.07, 0.4};
    options_.thresholds = ft.Resolve(metric_, kDim, 12);
    options_.collect_mappings = true;  // exercise the full result payload
    // Every fixture query reaches the catalog, so the parity checks below
    // compare real answers, not empty ones.
    PexesoSearcher searcher(index_.get());
    for (size_t i = 0; i < kNumQueries; ++i) {
      ASSERT_FALSE(MustSearch(searcher, queries_[i], options_).empty())
          << "query " << i;
    }
  }

  L2Metric metric_;
  ColumnCatalog catalog_;
  std::unique_ptr<PexesoIndex> index_;
  std::vector<VectorStore> queries_;
  JoinQuery options_;
};

TEST_F(BatchRunnerTest, OneAndEightThreadsAreIdenticalToSerialLoop) {
  PexesoSearcher searcher(index_.get());

  // The oracle: a plain serial Search loop, no runner involved.
  std::vector<std::vector<JoinableColumn>> serial;
  SearchStats serial_stats;
  for (const auto& q : queries_) {
    serial.push_back(MustSearch(searcher, q, options_, &serial_stats));
  }

  BatchQueryRunner one(&searcher, {.num_threads = 1});
  BatchQueryRunner eight(&searcher, {.num_threads = 8});
  BatchResult r1 = one.Run(BindQueries(queries_, options_));
  BatchResult r8 = eight.Run(BindQueries(queries_, options_));

  ExpectIdentical(r1.results, serial);
  ExpectIdentical(r8.results, serial);
  ExpectIdentical(r8.results, r1.results);

  // Stats merge in input order, so they are deterministic across thread
  // counts — including the floating-point fields.
  EXPECT_EQ(r1.stats.distance_computations, serial_stats.distance_computations);
  EXPECT_EQ(r8.stats.distance_computations, r1.stats.distance_computations);
  EXPECT_EQ(r8.stats.candidate_pairs, r1.stats.candidate_pairs);
  EXPECT_EQ(r8.stats.lemma1_filtered, r1.stats.lemma1_filtered);
  EXPECT_EQ(r8.stats.block_seconds > 0.0, r1.stats.block_seconds > 0.0);
}

TEST_F(BatchRunnerTest, WorksOverTheNaiveEngineToo) {
  NaiveSearcher naive(&catalog_, &metric_);
  BatchQueryRunner one(&naive, {.num_threads = 1});
  BatchQueryRunner four(&naive, {.num_threads = 4});
  ExpectIdentical(four.Run(BindQueries(queries_, options_)).results,
                  one.Run(BindQueries(queries_, options_)).results);
}

TEST_F(BatchRunnerTest, PerQueryOptionsResolveIndividually) {
  PexesoSearcher searcher(index_.get());
  FractionalThresholds ft{0.07, 0.4};
  std::vector<JoinQuery> per_query(queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    per_query[i].thresholds = ft.Resolve(metric_, kDim, queries_[i].size());
  }
  BatchQueryRunner runner(&searcher, {.num_threads = 4});
  BatchResult batched = runner.Run(BindQueries(queries_, per_query));
  ASSERT_EQ(batched.results.size(), queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    auto serial = MustSearch(searcher, queries_[i], per_query[i], nullptr);
    ASSERT_EQ(batched.results[i].size(), serial.size()) << "query " << i;
    for (size_t j = 0; j < serial.size(); ++j) {
      EXPECT_EQ(batched.results[i][j].column, serial[j].column);
    }
  }
}

TEST_F(BatchRunnerTest, EmptyBatchIsFine) {
  PexesoSearcher searcher(index_.get());
  BatchQueryRunner runner(&searcher, {.num_threads = 4});
  BatchResult r = runner.Run({});
  EXPECT_TRUE(r.results.empty());
  EXPECT_EQ(r.stats.distance_computations, 0u);
}

TEST_F(BatchRunnerTest, ZeroThreadsMeansHardwareConcurrency) {
  PexesoSearcher searcher(index_.get());
  BatchQueryRunner runner(&searcher, {.num_threads = 0});
  EXPECT_GE(runner.num_threads(), 1u);
  ExpectIdentical(runner.Run(BindQueries(queries_, options_)).results,
                  BatchQueryRunner(&searcher, {.num_threads = 1})
                      .Run(BindQueries(queries_, options_))
                      .results);
}

TEST_F(BatchRunnerTest, IntraQueryShardsComposeWithBatchFanout) {
  // Batch-major fan-out times intra-query verification shards: the runner
  // provisions one shared intra pool and divides its budget, and the output
  // must stay byte-identical to the plain serial loop (including the
  // per-query stats counters).
  PexesoSearcher searcher(index_.get());
  BatchQueryRunner serial(&searcher, {.num_threads = 1});
  const BatchResult expect = serial.Run(BindQueries(queries_, options_));

  JoinQuery intra = options_;
  intra.intra_query_threads = 2;
  std::vector<JoinQuery> per_query(queries_.size(), intra);
  for (size_t outer : {1, 4}) {
    BatchQueryRunner runner(&searcher, {.num_threads = outer});
    const BatchResult got = runner.Run(BindQueries(queries_, per_query));
    ExpectIdentical(got.results, expect.results);
    EXPECT_EQ(got.stats.distance_computations,
              expect.stats.distance_computations)
        << "outer=" << outer;
    EXPECT_EQ(got.stats.lemma1_filtered, expect.stats.lemma1_filtered)
        << "outer=" << outer;
    EXPECT_EQ(got.stats.tiles_evaluated, expect.stats.tiles_evaluated)
        << "outer=" << outer;
  }
}

TEST_F(BatchRunnerTest, TruncatedPartDegradesPartitionMajorLikeExecute) {
  // A part file truncated on disk must not abort a partition-major batch:
  // the failed load goes through the part executor's gather, so every
  // query answers exactly as its own Execute does — the other parts'
  // columns, OK status, the broken part reported.
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/batch_truncated_part";
  fs::remove_all(dir);
  PartitionAssignment assign(catalog_.num_columns());
  for (uint32_t c = 0; c < catalog_.num_columns(); ++c) assign[c] = c % 3;
  PexesoOptions opts;
  opts.num_pivots = 3;
  opts.levels = 4;
  ASSERT_TRUE(
      PartitionedPexeso::Build(catalog_, assign, dir, &metric_, opts).ok());
  fs::resize_file(dir + "/part-1.pxso", 64);
  auto opened = PartitionedPexeso::Open(dir, &metric_);
  ASSERT_TRUE(opened.ok());
  const PartitionedPexeso& parts = opened.value();

  // Queries near the catalog's clusters (its seed), so answers are real.
  std::vector<VectorStore> queries;
  for (uint32_t i = 0; i < 8; ++i) {
    queries.push_back(MakeClusteredQuery(3000, kDim, 8 + i));
  }
  const auto jqs = BindQueries(queries, options_);
  std::vector<std::vector<JoinableColumn>> expected;
  for (const JoinQuery& jq : jqs) {
    auto r = ExecuteCollect(parts, jq);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(std::move(r).ValueOrDie());
  }
  size_t answered = 0;
  for (const auto& cols : expected) answered += cols.empty() ? 0 : 1;
  ASSERT_GT(answered, 0u);  // a vacuous parity proves nothing

  for (size_t threads : {size_t{1}, size_t{4}}) {
    BatchQueryRunner runner(
        &parts, {.num_threads = threads,
                 .partition_mode = BatchPartitionMode::kPartitionMajor});
    BatchResult batch = runner.Run(jqs);
    ExpectIdentical(batch.results, expected);
    for (size_t i = 0; i < jqs.size(); ++i) {
      EXPECT_TRUE(batch.statuses[i].ok()) << batch.statuses[i].ToString();
      ASSERT_EQ(batch.part_statuses[i].size(), 1u);
      EXPECT_EQ(batch.part_statuses[i][0].first, 1u);
    }
    EXPECT_EQ(batch.stats.partial_responses, jqs.size());
  }
  fs::remove_all(dir);
}

TEST_F(BatchRunnerTest, EngineExceptionPropagatesToCaller) {
  // An engine that throws mid-batch must surface the exception to Run's
  // caller instead of wedging the pool (the ThreadPool Wait() contract).
  class ThrowingEngine : public JoinSearchEngine {
   public:
    const char* name() const override { return "throwing"; }
    Status Execute(const JoinQuery&, ResultSink*,
                   SearchStats*) const override {
      throw std::runtime_error("engine exploded");
    }
  };
  ThrowingEngine bad;
  BatchQueryRunner runner(&bad, {.num_threads = 4});
  EXPECT_THROW(runner.Run(BindQueries(queries_, options_)), std::runtime_error);
}

}  // namespace
}  // namespace pexeso
