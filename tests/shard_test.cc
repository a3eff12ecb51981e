// Scatter-gather sharding tests: the coordinator's results must be
// byte-identical to the single-node partitioned engine at every shard
// count, replication factor, and kill/straggler schedule — across query
// modes, with floor sharing on or off. Faults are injected through the
// virtual routers' "shard:attempt:<shard>:<replica>" failpoints (kIoError
// = dead replica, kDelay = straggler); the remote section runs the same
// parity check over real pexeso_server shard executors and the wire
// protocol's shard metadata + floor-update frames.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "net/server.h"
#include "partition/partitioned_pexeso.h"
#include "partition/partitioner.h"
#include "shard/coordinator.h"
#include "shard/part_subset.h"
#include "shard/remote.h"
#include "shard/shard_map.h"
#include "shard/virtual_node.h"
#include "test_util.h"

namespace pexeso {
namespace {

using shard::PartSubsetEngine;
using shard::RemoteShardRouter;
using shard::ShardedEngine;
using shard::ShardedOptions;
using shard::ShardMap;
using shard::VirtualShardRouter;
using testing::MakeClusteredCatalog;
using testing::MakeClusteredQuery;

/// Field-by-field equality, mapping included — the byte-parity contract.
void ExpectIdenticalResults(const std::vector<JoinableColumn>& a,
                            const std::vector<JoinableColumn>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].column, b[j].column);
    EXPECT_EQ(a[j].match_count, b[j].match_count);
    EXPECT_EQ(a[j].joinability, b[j].joinability);
    ASSERT_EQ(a[j].mapping.size(), b[j].mapping.size());
    for (size_t m = 0; m < a[j].mapping.size(); ++m) {
      EXPECT_EQ(a[j].mapping[m].query_index, b[j].mapping[m].query_index);
      EXPECT_EQ(a[j].mapping[m].target_vec, b[j].mapping[m].target_vec);
    }
  }
}

TEST(ShardMapTest, RoundRobinBothDirectionsAgree) {
  const ShardMap map = ShardMap::RoundRobin(7, 3);
  EXPECT_EQ(map.OwnedCount(0), 3u);  // parts 0, 3, 6
  EXPECT_EQ(map.OwnedCount(1), 2u);  // parts 1, 4
  EXPECT_EQ(map.OwnedCount(2), 2u);  // parts 2, 5
  size_t total = 0;
  for (size_t s = 0; s < 3; ++s) {
    const auto owned = map.OwnedParts(s);
    EXPECT_EQ(owned.size(), map.OwnedCount(s));
    for (size_t local = 0; local < owned.size(); ++local) {
      EXPECT_EQ(map.GlobalPart(s, local), owned[local]);
      EXPECT_EQ(map.PartShard(owned[local]), s);
    }
    total += owned.size();
  }
  EXPECT_EQ(total, 7u);
}

// ---------------------------------------------------------------- fixture

/// One partitioned repository under a temp dir, shared read-only by every
/// test. Five parts so 2- and 4-shard maps are UNEVEN (ownership imbalance
/// is the common production case, and GlobalPart bugs hide in even splits).
class ShardTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kDim = 8;
  static constexpr size_t kParts = 5;

  static void SetUpTestSuite() {
    namespace fs = std::filesystem;
    dir_ = new std::string(::testing::TempDir() + "/shard_parts");
    fs::remove_all(*dir_);
    metric_ = new L2Metric();
    ColumnCatalog catalog = MakeClusteredCatalog(8800, kDim, 40, 10);
    Partitioner::Options popts;
    popts.k = kParts;
    auto assign = Partitioner::Random(catalog, popts);
    PexesoOptions opts;
    opts.num_pivots = 3;
    opts.levels = 4;
    auto built =
        PartitionedPexeso::Build(catalog, assign, *dir_, metric_, opts);
    ASSERT_TRUE(built.ok());
    ASSERT_EQ(built.value().num_partitions(), kParts);
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    delete metric_;
    dir_ = nullptr;
    metric_ = nullptr;
  }

  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }

  static PartitionedPexeso OpenParts() {
    auto opened = PartitionedPexeso::Open(*dir_, metric_);
    EXPECT_TRUE(opened.ok());
    return std::move(opened).ValueOrDie();
  }

  static JoinQuery MakeJoinQuery(size_t query_size) {
    FractionalThresholds ft{0.07, 0.4};
    JoinQuery jq;
    jq.thresholds = ft.Resolve(*metric_, kDim, query_size);
    return jq;
  }

  /// The three query shapes every parity check runs: threshold with full
  /// mappings, exact joinability, and top-k (the floor-sharing path).
  static std::vector<JoinQuery> ParityModes(size_t query_size) {
    JoinQuery threshold = MakeJoinQuery(query_size);
    threshold.collect_mappings = true;
    JoinQuery exact = MakeJoinQuery(query_size);
    exact.mode = QueryMode::kExactJoinability;
    JoinQuery topk = MakeJoinQuery(query_size);
    topk.mode = QueryMode::kTopK;
    topk.k = 5;
    return {threshold, exact, topk};
  }

  static std::string* dir_;
  static L2Metric* metric_;
};

std::string* ShardTest::dir_ = nullptr;
L2Metric* ShardTest::metric_ = nullptr;

TEST_F(ShardTest, VirtualParityAcrossShardAndReplicationMatrix) {
  PartitionedPexeso parts = OpenParts();
  const VectorStore query = MakeClusteredQuery(8800, kDim, 20, 10);

  for (const JoinQuery& base : ParityModes(query.size())) {
    JoinQuery jq = base;
    jq.vectors = &query;
    CollectSink oracle;
    ASSERT_TRUE(parts.Execute(jq, &oracle, nullptr).ok());
    ASSERT_FALSE(oracle.columns().empty());  // vacuous parity proves nothing

    for (size_t shards : {1, 2, 4}) {
      for (size_t replication : {1, 2}) {
        VirtualShardRouter::Options vopts;
        vopts.replication = replication;
        VirtualShardRouter router(&parts, shards, vopts);
        ShardedEngine sharded(&router);
        SearchStats stats;
        CollectSink sink;
        const Status st = sharded.Execute(jq, &sink, &stats);
        ASSERT_TRUE(st.ok()) << st.ToString();
        EXPECT_TRUE(sink.part_statuses().empty());
        ExpectIdenticalResults(oracle.columns(), sink.columns());
        EXPECT_EQ(stats.scatters, shards);  // healthy: one attempt per shard
        EXPECT_EQ(stats.failovers, 0u);
        EXPECT_EQ(stats.hedged_requests, 0u);
        EXPECT_EQ(stats.shards_degraded, 0u);
      }
    }
  }
}

TEST_F(ShardTest, MoreShardsThanPartsServesEmptyShardsCleanly) {
  // 7 shards over 5 parts: shards 5 and 6 own nothing. An empty shard must
  // contribute an empty OK answer — not a crash, not a degraded status.
  PartitionedPexeso parts = OpenParts();
  const VectorStore query = MakeClusteredQuery(8800, kDim, 20, 10);

  for (const JoinQuery& base : ParityModes(query.size())) {
    JoinQuery jq = base;
    jq.vectors = &query;
    CollectSink oracle;
    ASSERT_TRUE(parts.Execute(jq, &oracle, nullptr).ok());

    VirtualShardRouter router(&parts, 7);
    ShardedEngine sharded(&router);
    SearchStats stats;
    CollectSink sink;
    const Status st = sharded.Execute(jq, &sink, &stats);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(sink.part_statuses().empty());
    ExpectIdenticalResults(oracle.columns(), sink.columns());
    EXPECT_EQ(stats.scatters, 7u);
    EXPECT_EQ(stats.shards_degraded, 0u);
  }
}

TEST_F(ShardTest, FloorSharingOnOrOffNeverChangesTopKResults) {
  PartitionedPexeso parts = OpenParts();
  const VectorStore query = MakeClusteredQuery(8800, kDim, 20, 10);
  JoinQuery jq = MakeJoinQuery(query.size());
  jq.mode = QueryMode::kTopK;
  jq.k = 3;
  jq.vectors = &query;

  CollectSink oracle;
  ASSERT_TRUE(parts.Execute(jq, &oracle, nullptr).ok());

  VirtualShardRouter router(&parts, 4);
  for (bool share : {true, false}) {
    ShardedOptions sopts;
    sopts.share_floor = share;
    ShardedEngine sharded(&router, sopts);
    SearchStats stats;
    CollectSink sink;
    ASSERT_TRUE(sharded.Execute(jq, &sink, &stats).ok());
    ExpectIdenticalResults(oracle.columns(), sink.columns());
    if (!share) {
      EXPECT_EQ(stats.floor_updates_sent, 0u);
      EXPECT_EQ(stats.floor_updates_received, 0u);
    }
  }
}

TEST_F(ShardTest, KilledReplicaFailsOverWithFullParity) {
  PartitionedPexeso parts = OpenParts();
  const VectorStore query = MakeClusteredQuery(8800, kDim, 20, 10);
  FailpointRegistry::Instance().Arm("shard:attempt:1:0",
                                    {FailAction::kIoError, 0, -1, 0});

  for (const JoinQuery& base : ParityModes(query.size())) {
    JoinQuery jq = base;
    jq.vectors = &query;
    CollectSink oracle;
    ASSERT_TRUE(parts.Execute(jq, &oracle, nullptr).ok());

    VirtualShardRouter::Options vopts;
    vopts.replication = 2;
    VirtualShardRouter router(&parts, 2, vopts);
    ShardedEngine sharded(&router);
    SearchStats stats;
    CollectSink sink;
    const Status st = sharded.Execute(jq, &sink, &stats);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(sink.part_statuses().empty());
    ExpectIdenticalResults(oracle.columns(), sink.columns());
    EXPECT_EQ(stats.failovers, 1u);  // shard 1 replica 0 died, replica 1 won
    EXPECT_EQ(stats.scatters, 3u);
    EXPECT_EQ(stats.shards_degraded, 0u);
  }
}

TEST_F(ShardTest, DeadShardWithoutReplicaServesDegraded) {
  PartitionedPexeso parts = OpenParts();
  const VectorStore query = MakeClusteredQuery(8800, kDim, 20, 10);
  FailpointRegistry::Instance().Arm("shard:attempt:1:0",
                                    {FailAction::kIoError, 0, -1, 0});

  JoinQuery jq = MakeJoinQuery(query.size());
  jq.collect_mappings = true;
  jq.vectors = &query;

  // The surviving answer is exactly what shard 0's part subset produces.
  const ShardMap map = ShardMap::RoundRobin(kParts, 2);
  PartSubsetEngine survivors(&parts, map.OwnedParts(0));
  CollectSink expected;
  ASSERT_TRUE(survivors.Execute(jq, &expected, nullptr).ok());

  VirtualShardRouter router(&parts, 2);
  ShardedEngine sharded(&router);
  SearchStats stats;
  CollectSink sink;
  const Status st = sharded.Execute(jq, &sink, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();  // degraded, not failed
  ExpectIdenticalResults(expected.columns(), sink.columns());

  // Shard 1's owned parts {1, 3} surface as per-part errors, global ids.
  ASSERT_EQ(sink.part_statuses().size(), map.OwnedCount(1));
  for (size_t local = 0; local < sink.part_statuses().size(); ++local) {
    EXPECT_EQ(sink.part_statuses()[local].first, map.GlobalPart(1, local));
    EXPECT_EQ(sink.part_statuses()[local].second.code(),
              Status::Code::kIoError);
  }
  EXPECT_EQ(stats.shards_degraded, 1u);
  EXPECT_EQ(stats.partial_responses, 1u);
  EXPECT_EQ(stats.failovers, 0u);  // no replica to fail over to
}

TEST_F(ShardTest, EveryShardDeadFailsTheQuery) {
  // No shard answered: a failed query (with shard 0's error), not an OK
  // answer with zero columns — the part executor's all-parts-failed rule.
  PartitionedPexeso parts = OpenParts();
  const VectorStore query = MakeClusteredQuery(8800, kDim, 20, 10);
  FailpointRegistry::Instance().Arm("shard:attempt:0:0",
                                    {FailAction::kIoError, 0, -1, 0});
  FailpointRegistry::Instance().Arm("shard:attempt:1:0",
                                    {FailAction::kIoError, 0, -1, 0});
  JoinQuery jq = MakeJoinQuery(query.size());
  jq.vectors = &query;

  VirtualShardRouter router(&parts, 2);
  ShardedEngine sharded(&router);
  SearchStats stats;
  CollectSink sink;
  const Status st = sharded.Execute(jq, &sink, &stats);
  EXPECT_EQ(st.code(), Status::Code::kIoError) << st.ToString();
  EXPECT_EQ(sink.status().code(), Status::Code::kIoError);
  EXPECT_TRUE(sink.columns().empty());
  EXPECT_EQ(sink.part_statuses().size(), kParts);  // every part reported
  EXPECT_EQ(stats.shards_degraded, 2u);
}

TEST_F(ShardTest, StragglerIsHedgedAndResultsStayIdentical) {
  PartitionedPexeso parts = OpenParts();
  const VectorStore query = MakeClusteredQuery(8800, kDim, 20, 10);
  // Shard 0 replica 0 stalls well past the hedge threshold; replica 1 races
  // ahead and wins. Results must not depend on who finished first.
  FailpointRegistry::Instance().Arm("shard:attempt:0:0",
                                    {FailAction::kDelay, 0, -1, 400});

  JoinQuery jq = MakeJoinQuery(query.size());
  jq.mode = QueryMode::kTopK;
  jq.k = 5;
  jq.vectors = &query;
  CollectSink oracle;
  ASSERT_TRUE(parts.Execute(jq, &oracle, nullptr).ok());

  VirtualShardRouter::Options vopts;
  vopts.replication = 2;
  VirtualShardRouter router(&parts, 2, vopts);
  ShardedOptions sopts;
  sopts.hedge_after_ms = 30;
  ShardedEngine sharded(&router, sopts);
  SearchStats stats;
  CollectSink sink;
  const Status st = sharded.Execute(jq, &sink, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectIdenticalResults(oracle.columns(), sink.columns());
  EXPECT_GE(stats.hedged_requests, 1u);
  EXPECT_EQ(stats.shards_degraded, 0u);
}

TEST_F(ShardTest, CancelledQueryInterruptsEveryShard) {
  PartitionedPexeso parts = OpenParts();
  const VectorStore query = MakeClusteredQuery(8800, kDim, 20, 10);
  JoinQuery jq = MakeJoinQuery(query.size());
  jq.vectors = &query;
  jq.cancel = CancelToken::Create();
  jq.cancel.Cancel();  // cancelled before dispatch: every attempt trips

  VirtualShardRouter router(&parts, 2);
  ShardedEngine sharded(&router);
  SearchStats stats;
  CollectSink sink;
  const Status st = sharded.Execute(jq, &sink, &stats);
  EXPECT_TRUE(st.interrupted()) << st.ToString();
}

// ----------------------------------------------------------------- remote

TEST_F(ShardTest, RemoteShardsMatchSingleNodeByteForByte) {
  PartitionedPexeso parts = OpenParts();
  const ShardMap map = ShardMap::RoundRobin(kParts, 2);

  // Two real shard servers, each the ordinary pexeso_server stack over its
  // part subset, advertising the shard metadata a coordinator validates.
  PartSubsetEngine shard0(&parts, map.OwnedParts(0));
  PartSubsetEngine shard1(&parts, map.OwnedParts(1));
  net::ServerOptions sopts0;
  sopts0.expected_dim = kDim;
  sopts0.shards_total = 2;
  sopts0.shard_of = 0;
  net::ServerOptions sopts1 = sopts0;
  sopts1.shard_of = 1;
  net::PexesoServer server0(&shard0, sopts0);
  net::PexesoServer server1(&shard1, sopts1);
  ASSERT_TRUE(server0.Start().ok());
  ASSERT_TRUE(server1.Start().ok());

  auto probed = RemoteShardRouter::Probe(
      {{{"127.0.0.1", server0.port()}}, {{"127.0.0.1", server1.port()}}});
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  auto router = std::move(probed).ValueOrDie();
  EXPECT_EQ(router->map().num_parts(), kParts);
  EXPECT_EQ(router->dim(), kDim);

  ShardedEngine sharded(router.get());
  const VectorStore query = MakeClusteredQuery(8800, kDim, 20, 10);
  for (const JoinQuery& base : ParityModes(query.size())) {
    JoinQuery jq = base;
    jq.vectors = &query;
    CollectSink oracle;
    ASSERT_TRUE(parts.Execute(jq, &oracle, nullptr).ok());
    ASSERT_FALSE(oracle.columns().empty());

    SearchStats stats;
    CollectSink sink;
    const Status st = sharded.Execute(jq, &sink, &stats);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(sink.part_statuses().empty());
    ExpectIdenticalResults(oracle.columns(), sink.columns());
    EXPECT_EQ(stats.scatters, 2u);
    EXPECT_GT(stats.shard_bytes_moved, 0u);  // real wire traffic
  }
  server0.Shutdown();
  server1.Shutdown();
}

TEST_F(ShardTest, RemoteReplicaWithBrokenPartFailsOver) {
  // Shard 0's replica 0 serves a copy of the partition dir whose part 2 (a
  // shard-0 part) is truncated: it answers OK with a gap, which is not a
  // whole answer while replica 1 is left — the coordinator fails over and
  // the result is the full single-node answer.
  namespace fs = std::filesystem;
  const std::string broken_dir = ::testing::TempDir() + "/shard_broken";
  fs::remove_all(broken_dir);
  fs::copy(*dir_, broken_dir);
  fs::resize_file(broken_dir + "/part-2.pxso", 64);
  auto opened = PartitionedPexeso::Open(broken_dir, metric_);
  ASSERT_TRUE(opened.ok());
  PartitionedPexeso broken = std::move(opened).ValueOrDie();
  PartitionedPexeso parts = OpenParts();
  const ShardMap map = ShardMap::RoundRobin(kParts, 2);
  ASSERT_EQ(map.PartShard(2), 0u);

  PartSubsetEngine shard0_bad(&broken, map.OwnedParts(0));
  PartSubsetEngine shard0_good(&parts, map.OwnedParts(0));
  PartSubsetEngine shard1(&parts, map.OwnedParts(1));
  net::ServerOptions sopts0;
  sopts0.expected_dim = kDim;
  sopts0.shards_total = 2;
  sopts0.shard_of = 0;
  net::ServerOptions sopts1 = sopts0;
  sopts1.shard_of = 1;
  net::PexesoServer server0a(&shard0_bad, sopts0);
  net::PexesoServer server0b(&shard0_good, sopts0);
  net::PexesoServer server1(&shard1, sopts1);
  ASSERT_TRUE(server0a.Start().ok());
  ASSERT_TRUE(server0b.Start().ok());
  ASSERT_TRUE(server1.Start().ok());

  auto probed = RemoteShardRouter::Probe(
      {{{"127.0.0.1", server0a.port()}, {"127.0.0.1", server0b.port()}},
       {{"127.0.0.1", server1.port()}}});
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  auto router = std::move(probed).ValueOrDie();
  ShardedEngine sharded(router.get());
  const VectorStore query = MakeClusteredQuery(8800, kDim, 20, 10);
  for (const JoinQuery& base : ParityModes(query.size())) {
    JoinQuery jq = base;
    jq.vectors = &query;
    CollectSink oracle;
    ASSERT_TRUE(parts.Execute(jq, &oracle, nullptr).ok());
    ASSERT_FALSE(oracle.columns().empty());

    SearchStats stats;
    CollectSink sink;
    const Status st = sharded.Execute(jq, &sink, &stats);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(sink.part_statuses().empty());
    ExpectIdenticalResults(oracle.columns(), sink.columns());
    EXPECT_EQ(stats.failovers, 1u);
    EXPECT_EQ(stats.scatters, 3u);
    EXPECT_EQ(stats.shards_degraded, 0u);
  }
  server0a.Shutdown();
  server0b.Shutdown();
  server1.Shutdown();
  fs::remove_all(broken_dir);
}

TEST_F(ShardTest, ProbeRejectsMiswiredTopology) {
  PartitionedPexeso parts = OpenParts();
  const ShardMap map = ShardMap::RoundRobin(kParts, 2);
  PartSubsetEngine shard0(&parts, map.OwnedParts(0));
  PartSubsetEngine shard1(&parts, map.OwnedParts(1));
  net::ServerOptions sopts0;
  sopts0.expected_dim = kDim;
  sopts0.shards_total = 2;
  sopts0.shard_of = 0;
  net::ServerOptions sopts1 = sopts0;
  sopts1.shard_of = 1;
  net::PexesoServer server0(&shard0, sopts0);
  net::PexesoServer server1(&shard1, sopts1);
  ASSERT_TRUE(server0.Start().ok());
  ASSERT_TRUE(server1.Start().ok());

  // Shards listed in swapped order: every endpoint reachable, topology
  // still wrong — the probe must refuse rather than scatter to it.
  auto swapped = RemoteShardRouter::Probe(
      {{{"127.0.0.1", server1.port()}}, {{"127.0.0.1", server0.port()}}});
  EXPECT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.status().code(), Status::Code::kInvalidArgument);

  // A standalone (unsharded) server claims shards_total=1: also refused.
  net::ServerOptions plain;
  plain.expected_dim = kDim;
  net::PexesoServer standalone(&parts, plain);
  ASSERT_TRUE(standalone.Start().ok());
  auto lying = RemoteShardRouter::Probe(
      {{{"127.0.0.1", standalone.port()}}, {{"127.0.0.1", server1.port()}}});
  EXPECT_FALSE(lying.ok());

  standalone.Shutdown();
  server0.Shutdown();
  server1.Shutdown();
}

}  // namespace
}  // namespace pexeso
