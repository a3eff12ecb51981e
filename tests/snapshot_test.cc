// Snapshot format v2 (disk version 3) tests: flat mmap round trips, the
// v1/v2/v3 byte-parity matrix across engines and intra-query thread counts,
// the quant pre-filter's exactness contract (identical results AND the
// counter invariant dc(on) + skips(on) == dc(off)), the corruption corpus
// against the mmap load path, the upgrade round trip, and the cache's
// mapped-bytes accounting.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "baseline/pexeso_h.h"
#include "core/pexeso_index.h"
#include "core/searcher.h"
#include "serve/index_cache.h"
#include "test_util.h"

namespace pexeso {
namespace {

using serve::IndexCache;
using testing::MakeClusteredCatalog;
using testing::MakeClusteredQuery;
using testing::MustSearch;

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

/// One built index saved in every on-disk format the loader accepts:
/// flat v3 (Save), streamed v2 (SaveLegacy), and a synthesized v1 (the v2
/// stream with the footer dropped and the version word rewritten — exactly
/// what a pre-footer release wrote).
class SnapshotTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kDim = 8;

  static void SetUpTestSuite() {
    namespace fs = std::filesystem;
    dir_ = new std::string(::testing::TempDir() + "/snapshot_fmt");
    fs::remove_all(*dir_);
    fs::create_directories(*dir_);
    metric_ = new L2Metric();
    ColumnCatalog catalog = MakeClusteredCatalog(7301, kDim, 40, 16);
    PexesoOptions opts;
    opts.num_pivots = 3;
    opts.levels = 4;
    built_ = new PexesoIndex(
        PexesoIndex::Build(std::move(catalog), metric_, opts));
    ASSERT_TRUE(built_->Save(V3Path()).ok());
    ASSERT_TRUE(built_->SaveLegacy(V2Path()).ok());
    fs::copy_file(V2Path(), V1Path());
    fs::resize_file(V1Path(), fs::file_size(V1Path()) - 8);
    std::fstream f(V1Path(), std::ios::in | std::ios::out | std::ios::binary);
    const uint32_t v1 = 1;
    f.seekp(4);
    f.write(reinterpret_cast<const char*>(&v1), sizeof(v1));
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete built_;
    delete metric_;
    delete dir_;
    built_ = nullptr;
    metric_ = nullptr;
    dir_ = nullptr;
  }

  static std::string V3Path() { return *dir_ + "/flat.pxso"; }
  static std::string V2Path() { return *dir_ + "/legacy.pxso"; }
  static std::string V1Path() { return *dir_ + "/ancient.pxso"; }

  static PexesoIndex MustLoad(const std::string& path) {
    auto loaded = PexesoIndex::Load(path, metric_);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return std::move(loaded).ValueOrDie();
  }

  static JoinQuery MakeJoinQuery(size_t query_size, bool quant,
                                 size_t threads) {
    FractionalThresholds ft{0.07, 0.4};
    JoinQuery jq;
    jq.thresholds = ft.Resolve(*metric_, kDim, query_size);
    jq.collect_mappings = true;
    jq.ablation.use_quant_prefilter = quant;
    jq.intra_query_threads = threads;
    return jq;
  }

  static std::string* dir_;
  static L2Metric* metric_;
  static PexesoIndex* built_;
};

std::string* SnapshotTest::dir_ = nullptr;
L2Metric* SnapshotTest::metric_ = nullptr;
PexesoIndex* SnapshotTest::built_ = nullptr;

TEST_F(SnapshotTest, FlatRoundTripIsMapped) {
  PexesoIndex flat = MustLoad(V3Path());
  EXPECT_TRUE(flat.is_mapped());
  EXPECT_EQ(flat.loaded_version(), 3u);
  EXPECT_GT(flat.MappedBytes(), 0u);

  PexesoIndex legacy = MustLoad(V2Path());
  EXPECT_FALSE(legacy.is_mapped());
  EXPECT_EQ(legacy.loaded_version(), 2u);
  EXPECT_EQ(legacy.MappedBytes(), 0u);

  PexesoIndex ancient = MustLoad(V1Path());
  EXPECT_FALSE(ancient.is_mapped());
  EXPECT_EQ(ancient.loaded_version(), 1u);
}

TEST_F(SnapshotTest, MaterializeDropsTheMapping) {
  PexesoIndex flat = MustLoad(V3Path());
  ASSERT_TRUE(flat.is_mapped());
  VectorStore query = MakeClusteredQuery(7301, kDim, 12);
  PexesoSearcher before(&flat);
  auto reference = MustSearch(before, query, MakeJoinQuery(12, true, 0));

  flat.Materialize();
  EXPECT_FALSE(flat.is_mapped());
  EXPECT_EQ(flat.MappedBytes(), 0u);
  PexesoSearcher after(&flat);
  auto owned = MustSearch(after, query, MakeJoinQuery(12, true, 0));
  ExpectIdenticalResults(reference, owned);
}

/// The acceptance matrix: every snapshot version x {pexeso, pexeso-h} x
/// intra thread count x quant on/off answers byte-identically to the
/// freshly-built in-memory index with everything off.
TEST_F(SnapshotTest, FormatParityMatrixAcrossEnginesAndThreads) {
  VectorStore query = MakeClusteredQuery(7301, kDim, 14);
  PexesoSearcher ref_engine(built_);
  auto reference =
      MustSearch(ref_engine, query, MakeJoinQuery(14, false, 0));
  ASSERT_FALSE(reference.empty());  // the matrix must compare real matches

  for (const auto& path : {V1Path(), V2Path(), V3Path()}) {
    PexesoIndex index = MustLoad(path);
    PexesoSearcher pexeso(&index);
    PexesoHSearcher pexeso_h(&index);
    for (const JoinSearchEngine* engine :
         {static_cast<const JoinSearchEngine*>(&pexeso),
          static_cast<const JoinSearchEngine*>(&pexeso_h)}) {
      for (size_t threads : {size_t{0}, size_t{2}, size_t{4}}) {
        for (bool quant : {false, true}) {
          auto got = MustSearch(*engine, query,
                                MakeJoinQuery(14, quant, threads));
          ExpectIdenticalResults(reference, got);
        }
      }
    }
  }
}

/// The quant tier is a pure pre-filter: identical results, and every float
/// distance it skips is accounted for — dc(on) + skips(on) == dc(off).
TEST_F(SnapshotTest, QuantCounterInvariant) {
  PexesoIndex index = MustLoad(V3Path());
  PexesoSearcher engine(&index);
  VectorStore query = MakeClusteredQuery(7301, kDim, 14);

  SearchStats off_stats;
  auto off = MustSearch(engine, query, MakeJoinQuery(14, false, 0),
                        &off_stats);
  EXPECT_EQ(off_stats.quant_tile_skips, 0u);
  ASSERT_GT(off_stats.distance_computations, 0u);

  SearchStats on_stats;
  auto on = MustSearch(engine, query, MakeJoinQuery(14, true, 0), &on_stats);
  ExpectIdenticalResults(off, on);
  EXPECT_GT(on_stats.quant_tile_skips, 0u);  // the tier must actually fire
  EXPECT_EQ(on_stats.distance_computations + on_stats.quant_tile_skips,
            off_stats.distance_computations);

  // The counters themselves are part of the determinism contract: same
  // totals at any intra-query thread count.
  for (size_t threads : {size_t{2}, size_t{4}}) {
    SearchStats t_stats;
    auto got =
        MustSearch(engine, query, MakeJoinQuery(14, true, threads), &t_stats);
    ExpectIdenticalResults(off, got);
    EXPECT_EQ(t_stats.distance_computations, on_stats.distance_computations);
    EXPECT_EQ(t_stats.quant_tile_skips, on_stats.quant_tile_skips);
  }
}

/// A legacy load rebuilds the quant tier from the float vectors, so a
/// pre-quant snapshot answers identically with the pre-filter on.
TEST_F(SnapshotTest, LegacyLoadRebuildsQuantTier) {
  PexesoIndex ancient = MustLoad(V1Path());
  PexesoSearcher engine(&ancient);
  VectorStore query = MakeClusteredQuery(7301, kDim, 14);
  SearchStats on_stats;
  auto on = MustSearch(engine, query, MakeJoinQuery(14, true, 0), &on_stats);
  EXPECT_GT(on_stats.quant_tile_skips, 0u);
  auto off = MustSearch(engine, query, MakeJoinQuery(14, false, 0));
  ExpectIdenticalResults(off, on);
}

/// Truncation / bit-flip corpus against the flat load path: every mutant
/// must be rejected (by the CRC footer or a structural check), never
/// crash, and never load.
TEST_F(SnapshotTest, CorruptFlatSnapshotsAreRejected) {
  namespace fs = std::filesystem;
  const auto size = fs::file_size(V3Path());
  const std::string mutant = *dir_ + "/mutant.pxso";

  // Bit flips: header, section table, early payload, mid payload, last
  // payload byte, and both footer words.
  const uint64_t flip_offsets[] = {0,        4,        16,       80,
                                   size / 3, size / 2, size - 9, size - 8,
                                   size - 1};
  for (const uint64_t off : flip_offsets) {
    fs::copy_file(V3Path(), mutant, fs::copy_options::overwrite_existing);
    {
      std::fstream f(mutant, std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(static_cast<std::streamoff>(off));
      char b = 0;
      f.read(&b, 1);
      b = static_cast<char>(b ^ 0x40);
      f.seekp(static_cast<std::streamoff>(off));
      f.write(&b, 1);
    }
    auto loaded = PexesoIndex::Load(mutant, metric_);
    EXPECT_FALSE(loaded.ok()) << "bit flip at offset " << off << " loaded";
  }

  // Truncations: everywhere from "nothing" to "footer clipped".
  const uint64_t trunc_sizes[] = {0,        7,        8,       64,
                                  size / 2, size - 9, size - 8, size - 1};
  for (const uint64_t sz : trunc_sizes) {
    fs::copy_file(V3Path(), mutant, fs::copy_options::overwrite_existing);
    fs::resize_file(mutant, sz);
    auto loaded = PexesoIndex::Load(mutant, metric_);
    EXPECT_FALSE(loaded.ok()) << "truncation to " << sz << " loaded";
  }
  fs::remove(mutant);
}

/// Rewrites one posting's column in a copy of snapshot `src` and re-seals
/// its CRC footer, so only the loader's structural checks stand between the
/// crafted file and a query. The posting is the last one of the first cell
/// holding two, found by its bytes (its vec_begin is unique in the index);
/// `pick` receives that cell's postings and returns the new column.
template <typename Pick>
void CraftPosting(const PexesoIndex& built, const std::string& src,
                  const std::string& dst, Pick pick) {
  std::ifstream in(src, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const InvertedIndex& inv = built.inverted_index();
  uint32_t cell = 0;
  while (cell < inv.num_cells() && inv.PostingsOf(cell).size() < 2) ++cell;
  ASSERT_LT(cell, inv.num_cells());
  const auto postings = inv.PostingsOf(cell);
  InvertedIndex::Posting p = postings.back();
  const std::string needle(reinterpret_cast<const char*>(&p), sizeof(p));
  const size_t at = bytes.find(needle);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.find(needle, at + 1), std::string::npos);
  p.column = pick(postings);
  std::memcpy(bytes.data() + at, &p, sizeof(p));
  const uint32_t crc = Crc32Update(0, bytes.data(), bytes.size() - 8);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
  std::ofstream out(dst, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// A snapshot with a valid CRC whose postings name a column outside the
/// catalog, or one column twice in a cell, is rejected at load by both the
/// streamed (v2) and the flat (v3) loader: such a file would index the
/// per-column candidate arrays out of bounds during the first query.
TEST_F(SnapshotTest, CraftedPostingsAreRejected) {
  const std::string mutant = *dir_ + "/crafted.pxso";
  const ColumnId ncols = static_cast<ColumnId>(built_->catalog().num_columns());
  for (const std::string& src : {V2Path(), V3Path()}) {
    SCOPED_TRACE(src);
    // Control: re-sealing an unchanged posting loads fine.
    CraftPosting(*built_, src, mutant,
                 [](auto postings) { return postings.back().column; });
    EXPECT_TRUE(PexesoIndex::Load(mutant, metric_).ok());

    CraftPosting(*built_, src, mutant, [&](auto) { return ncols; });
    auto out_of_range = PexesoIndex::Load(mutant, metric_);
    EXPECT_EQ(out_of_range.status().code(), Status::Code::kCorruption)
        << out_of_range.status().ToString();

    CraftPosting(*built_, src, mutant, [](auto postings) {
      return postings[postings.size() - 2].column;
    });
    auto duplicated = PexesoIndex::Load(mutant, metric_);
    EXPECT_EQ(duplicated.status().code(), Status::Code::kCorruption)
        << duplicated.status().ToString();
  }
  std::filesystem::remove(mutant);
}

/// The upgrade path (`pexeso_cli snapshot --upgrade` does exactly this):
/// load a streamed snapshot, Save rewrites it flat, and the flat file
/// answers byte-identically.
TEST_F(SnapshotTest, UpgradeRoundTripIsIdentical) {
  const std::string upgraded = *dir_ + "/upgraded.pxso";
  {
    PexesoIndex legacy = MustLoad(V2Path());
    ASSERT_TRUE(legacy.Save(upgraded).ok());
  }
  PexesoIndex flat = MustLoad(upgraded);
  EXPECT_TRUE(flat.is_mapped());
  EXPECT_EQ(flat.loaded_version(), 3u);

  PexesoIndex legacy = MustLoad(V2Path());
  VectorStore query = MakeClusteredQuery(7301, kDim, 14);
  PexesoSearcher flat_engine(&flat);
  PexesoSearcher legacy_engine(&legacy);
  for (bool quant : {false, true}) {
    auto a = MustSearch(flat_engine, query, MakeJoinQuery(14, quant, 0));
    auto b = MustSearch(legacy_engine, query, MakeJoinQuery(14, quant, 0));
    ExpectIdenticalResults(a, b);
  }
  std::filesystem::remove(upgraded);
}

/// Cache accounting: a mapped snapshot is charged by bytes mapped, the
/// load-kind gauges tell v1 from v2 loads, and eviction returns the mapped
/// bytes.
TEST_F(SnapshotTest, CacheChargesAndReportsMappedBytes) {
  IndexCache cache({.budget_bytes = size_t{1} << 30});

  auto flat_r = cache.Get(V3Path(), metric_);
  ASSERT_TRUE(flat_r.ok());
  IndexCache::IndexPtr flat = flat_r.value();
  ASSERT_TRUE(flat->is_mapped());
  auto stats = cache.stats();
  EXPECT_EQ(stats.v2_loads, 1u);
  EXPECT_EQ(stats.v1_loads, 0u);
  EXPECT_EQ(stats.bytes_mapped, flat->MappedBytes());
  EXPECT_GT(stats.bytes_mapped, 0u);
  EXPECT_GE(stats.bytes_resident, stats.bytes_mapped);
  EXPECT_EQ(stats.bytes_resident, IndexCache::ResidentBytes(*flat));

  auto legacy = cache.Get(V2Path(), metric_);
  ASSERT_TRUE(legacy.ok());
  stats = cache.stats();
  EXPECT_EQ(stats.v2_loads, 1u);
  EXPECT_EQ(stats.v1_loads, 1u);
  EXPECT_EQ(stats.bytes_mapped, flat->MappedBytes());  // unchanged

  cache.Erase(V3Path());
  stats = cache.stats();
  EXPECT_EQ(stats.bytes_mapped, 0u);
  EXPECT_GT(stats.bytes_resident, 0u);  // the heap entry is still resident

  cache.Clear();
  stats = cache.stats();
  EXPECT_EQ(stats.bytes_resident, 0u);
  EXPECT_EQ(stats.bytes_mapped, 0u);
}

}  // namespace
}  // namespace pexeso
