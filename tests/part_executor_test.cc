// The part-failure doctrine matrix: every schedule over a partitioned
// lake — the serial part engines (PartitionedPexeso, the live lake), a
// two-shard coordinator over PartSubsetEngines, ServeSession at 1 and 4
// threads, and BatchQueryRunner in both partition modes — must give the
// same answer when parts break: the same columns, the same final status
// and the same set of (global part, status code) reports.
//
// Three fixtures: one part unloadable (degraded answer, that part
// reported), every part unloadable (the query fails), and a query
// cancelled after its first part (part 0's columns as partial results).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/batch_runner.h"
#include "core/part_executor.h"
#include "lake/lake_manager.h"
#include "partition/partitioned_pexeso.h"
#include "serve/serve_session.h"
#include "shard/coordinator.h"
#include "shard/virtual_node.h"
#include "test_util.h"

namespace pexeso {
namespace {

namespace fs = std::filesystem;
using testing::MakeClusteredCatalog;
using testing::MakeClusteredQuery;

constexpr uint32_t kDim = 8;
constexpr uint32_t kParts = 4;
constexpr uint64_t kSeed = 5100;

/// One schedule's answer, normalized for comparison.
struct Answer {
  Status status;
  std::vector<JoinableColumn> columns;
  std::vector<std::pair<size_t, Status::Code>> parts;  ///< sorted
};

Answer MakeAnswer(const Status& status, std::vector<JoinableColumn> columns,
                  const std::vector<std::pair<size_t, Status>>& parts) {
  Answer a;
  a.status = status;
  a.columns = std::move(columns);
  for (const auto& [part, st] : parts) a.parts.emplace_back(part, st.code());
  std::sort(a.parts.begin(), a.parts.end());
  return a;
}

Answer ViaEngine(const JoinSearchEngine& engine, const JoinQuery& jq) {
  CollectSink sink;
  const Status st = engine.Execute(jq, &sink, nullptr);
  EXPECT_EQ(st.code(), sink.status().code());
  return MakeAnswer(st, sink.TakeColumns(), sink.part_statuses());
}

Answer ViaSession(const JoinSearchEngine& engine, const JoinQuery& jq,
                  size_t threads) {
  serve::ServeSession session(&engine, {.num_threads = threads});
  serve::QueryOutcome outcome = session.Submit(jq).get();
  return MakeAnswer(outcome.status, std::move(outcome.results),
                    outcome.part_statuses);
}

Answer ViaBatch(const JoinSearchEngine& engine, const JoinQuery& jq,
                BatchPartitionMode mode) {
  BatchQueryRunner runner(&engine,
                          {.num_threads = 2, .partition_mode = mode});
  BatchResult batch = runner.Run({jq});
  return MakeAnswer(batch.statuses[0], std::move(batch.results[0]),
                    batch.part_statuses[0]);
}

void ExpectSameAnswer(const Answer& got, const Answer& want,
                      const std::string& label) {
  EXPECT_EQ(got.status.code(), want.status.code())
      << label << ": " << got.status.ToString();
  EXPECT_EQ(got.parts, want.parts) << label;
  ASSERT_EQ(got.columns.size(), want.columns.size()) << label;
  for (size_t i = 0; i < got.columns.size(); ++i) {
    EXPECT_EQ(got.columns[i].column, want.columns[i].column) << label;
    EXPECT_EQ(got.columns[i].match_count, want.columns[i].match_count)
        << label;
    EXPECT_EQ(got.columns[i].joinability, want.columns[i].joinability)
        << label;
  }
}

/// A part engine that cancels `token` once part 0 has answered, and holds
/// every later part until the query it was handed sees a cancellation — so
/// every schedule, serial or concurrent, stops exactly after part 0. (A
/// coordinator hands each shard attempt its own token and propagates the
/// original one's cancellation to it, hence the wait on the handed query.)
class CancelAfterFirstPart : public JoinSearchEngine,
                             public PartitionedJoinEngine {
 public:
  CancelAfterFirstPart(const PartitionedJoinEngine* base, CancelToken token)
      : base_(base), token_(std::move(token)) {}

  const char* name() const override { return "cancel-after-first-part"; }
  Status Execute(const JoinQuery& query, ResultSink* sink,
                 SearchStats* stats) const override {
    return ExecuteParts(*this, query, sink, stats);
  }
  size_t NumParts() const override { return base_->NumParts(); }
  Result<PartHandle> AcquirePart(size_t part,
                                 double* io_seconds) const override {
    return base_->AcquirePart(part, io_seconds);
  }
  Result<PartAnswer> SearchPart(size_t part, const JoinQuery& query,
                                SearchStats* stats, double* io_seconds,
                                const PartHandle& preloaded) const override {
    if (part == 0) {
      auto got = base_->SearchPart(part, query, stats, io_seconds, preloaded);
      token_.Cancel();
      return got;
    }
    for (int i = 0; i < 5000 && !query.cancel.cancelled(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return base_->SearchPart(part, query, stats, io_seconds, preloaded);
  }
  bool PartsStayResident() const override {
    return base_->PartsStayResident();
  }

 private:
  const PartitionedJoinEngine* base_;
  CancelToken token_;
};

class PartDoctrineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/part_doctrine";
    fs::remove_all(root_);
    catalog_ = MakeClusteredCatalog(kSeed, kDim, 40, 10);
    assignment_.resize(catalog_.num_columns());
    for (uint32_t c = 0; c < catalog_.num_columns(); ++c) {
      assignment_[c] = c % kParts;
    }
    options_.num_pivots = 3;
    options_.levels = 4;
    ASSERT_TRUE(PartitionedPexeso::Build(catalog_, assignment_,
                                         root_ + "/parts", &metric_, options_)
                    .ok());
    query_ = MakeClusteredQuery(kSeed, kDim, 16);
  }

  void TearDown() override { fs::remove_all(root_); }

  /// A copy of the partition dir with the listed parts truncated.
  std::unique_ptr<PartitionedPexeso> BrokenParts(
      const std::string& name, const std::vector<size_t>& broken) {
    const std::string dir = root_ + "/" + name;
    fs::copy(root_ + "/parts", dir);
    for (size_t part : broken) {
      fs::resize_file(dir + "/part-" + std::to_string(part) + ".pxso", 64);
    }
    auto opened = PartitionedPexeso::Open(dir, &metric_);
    EXPECT_TRUE(opened.ok());
    return std::make_unique<PartitionedPexeso>(std::move(opened).ValueOrDie());
  }

  /// A live lake over the same columns and assignment, with the listed
  /// parts' bases truncated after creation (unloadable at query time).
  std::unique_ptr<lake::LakeManager> BrokenLake(
      const std::string& name, const std::vector<size_t>& broken) {
    lake::LakeOptions opts;
    opts.index_options = options_;
    auto created = lake::LakeManager::Create(
        catalog_, assignment_, root_ + "/" + name, &metric_, opts);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    auto lake = std::move(created).ValueOrDie();
    for (size_t part : broken) fs::resize_file(lake->PartPath(part, 1), 64);
    return lake;
  }

  std::vector<JoinQuery> Modes() const {
    JoinQuery threshold;
    threshold.thresholds =
        FractionalThresholds{0.07, 0.4}.Resolve(metric_, kDim, query_.size());
    threshold.vectors = &query_;
    JoinQuery topk = threshold;
    topk.mode = QueryMode::kTopK;
    topk.k = 5;
    return {threshold, topk};
  }

  /// Runs `jq` through every schedule and checks each against the serial
  /// partitioned engine's answer, which it returns. `parts` and `lake`
  /// hold the same columns (and the same broken parts).
  Answer ExpectAllSchedulesAgree(const JoinSearchEngine& parts,
                                 const JoinSearchEngine& lake,
                                 const JoinQuery& jq) {
    const Answer want = ViaEngine(parts, jq);
    ExpectSameAnswer(ViaEngine(lake, jq), want, "lake");
    shard::VirtualShardRouter router(&parts, 2);
    shard::ShardedEngine sharded(&router);
    ExpectSameAnswer(ViaEngine(sharded, jq), want, "sharded");
    ExpectSameAnswer(ViaSession(parts, jq, 1), want, "session x1");
    ExpectSameAnswer(ViaSession(parts, jq, 4), want, "session x4");
    ExpectSameAnswer(ViaBatch(parts, jq, BatchPartitionMode::kQueryMajor),
                     want, "batch query-major");
    ExpectSameAnswer(ViaBatch(parts, jq, BatchPartitionMode::kPartitionMajor),
                     want, "batch partition-major");
    return want;
  }

  std::string root_;
  L2Metric metric_;
  ColumnCatalog catalog_{kDim};
  PartitionAssignment assignment_;
  PexesoOptions options_;
  VectorStore query_{kDim};
};

TEST_F(PartDoctrineTest, OneBrokenPartDegradesEverySchedule) {
  auto parts = BrokenParts("one", {1});
  auto lake = BrokenLake("one_lake", {1});
  for (const JoinQuery& jq : Modes()) {
    const Answer want = ExpectAllSchedulesAgree(*parts, *lake, jq);
    EXPECT_TRUE(want.status.ok()) << want.status.ToString();
    ASSERT_EQ(want.parts.size(), 1u);
    EXPECT_EQ(want.parts[0].first, 1u);
    EXPECT_FALSE(want.columns.empty());
  }
}

TEST_F(PartDoctrineTest, EveryPartBrokenFailsEverySchedule) {
  auto parts = BrokenParts("all", {0, 1, 2, 3});
  auto lake = BrokenLake("all_lake", {0, 1, 2, 3});
  for (const JoinQuery& jq : Modes()) {
    const Answer want = ExpectAllSchedulesAgree(*parts, *lake, jq);
    EXPECT_FALSE(want.status.ok());
    EXPECT_FALSE(want.status.interrupted());
    EXPECT_EQ(want.parts.size(), size_t{kParts});
    EXPECT_TRUE(want.columns.empty());
  }
}

TEST_F(PartDoctrineTest, CancelAfterFirstPartKeepsItsColumns) {
  auto healthy = BrokenParts("healthy", {});
  auto lake = BrokenLake("healthy_lake", {});
  for (JoinQuery jq : Modes()) {
    // Part 0's own answer is what every schedule must return as partial.
    auto first = healthy->SearchPart(0, jq, nullptr, nullptr, nullptr);
    ASSERT_TRUE(first.ok());
    std::vector<JoinableColumn> part0 = first.value().columns;
    FinishQueryMerge(jq, &part0);
    ASSERT_FALSE(part0.empty());

    // Each schedule gets a fresh token (a cancelled one stays cancelled)
    // and its own wrapper over `base`.
    auto run = [&](const PartitionedJoinEngine* base, auto&& schedule) {
      jq.cancel = CancelToken::Create();
      const CancelAfterFirstPart parts(base, jq.cancel);
      return schedule(parts);
    };
    const auto serial = [&](const CancelAfterFirstPart& p) {
      return ViaEngine(p, jq);
    };
    const Answer want = run(healthy.get(), serial);
    EXPECT_EQ(want.status.code(), Status::Code::kCancelled);
    EXPECT_TRUE(want.parts.empty());
    ExpectSameAnswer(want, MakeAnswer(want.status, part0, {}), "part 0");

    ExpectSameAnswer(run(lake.get(), serial), want, "lake");
    ExpectSameAnswer(run(healthy.get(),
                         [&](const CancelAfterFirstPart& p) {
                           shard::VirtualShardRouter router(&p, 2);
                           shard::ShardedEngine sharded(&router);
                           return ViaEngine(sharded, jq);
                         }),
                     want, "sharded");
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ExpectSameAnswer(run(healthy.get(),
                           [&](const CancelAfterFirstPart& p) {
                             return ViaSession(p, jq, threads);
                           }),
                       want, "session x" + std::to_string(threads));
    }
    for (auto mode : {BatchPartitionMode::kQueryMajor,
                      BatchPartitionMode::kPartitionMajor}) {
      ExpectSameAnswer(run(healthy.get(),
                           [&](const CancelAfterFirstPart& p) {
                             return ViaBatch(p, jq, mode);
                           }),
                       want, "batch mode " + std::to_string(int(mode)));
    }
  }
}

}  // namespace
}  // namespace pexeso
