// Snapshot format v2 (disk version 3) tests: flat mmap round trips, the
// v1/v2/v3 byte-parity matrix across engines and intra-query thread counts,
// the corruption corpus against the mmap load path, the upgrade round trip,
// the checked-in older flat file that still carries the retired int8 tier
// sections, and the cache's mapped-bytes accounting.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
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

  static JoinQuery MakeJoinQuery(size_t query_size, size_t threads) {
    FractionalThresholds ft{0.07, 0.4};
    JoinQuery jq;
    jq.thresholds = ft.Resolve(*metric_, kDim, query_size);
    jq.collect_mappings = true;
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
  auto reference = MustSearch(before, query, MakeJoinQuery(12, 0));

  flat.Materialize();
  EXPECT_FALSE(flat.is_mapped());
  EXPECT_EQ(flat.MappedBytes(), 0u);
  PexesoSearcher after(&flat);
  auto owned = MustSearch(after, query, MakeJoinQuery(12, 0));
  ExpectIdenticalResults(reference, owned);
}

/// The acceptance matrix: every snapshot version x {pexeso, pexeso-h} x
/// intra thread count answers byte-identically to the freshly-built
/// in-memory index, and each engine's work counters are the same at every
/// thread count.
TEST_F(SnapshotTest, FormatParityMatrixAcrossEnginesAndThreads) {
  VectorStore query = MakeClusteredQuery(7301, kDim, 14);
  PexesoSearcher ref_engine(built_);
  auto reference = MustSearch(ref_engine, query, MakeJoinQuery(14, 0));
  ASSERT_FALSE(reference.empty());  // the matrix must compare real matches

  for (const auto& path : {V1Path(), V2Path(), V3Path()}) {
    PexesoIndex index = MustLoad(path);
    PexesoSearcher pexeso(&index);
    PexesoHSearcher pexeso_h(&index);
    for (const JoinSearchEngine* engine :
         {static_cast<const JoinSearchEngine*>(&pexeso),
          static_cast<const JoinSearchEngine*>(&pexeso_h)}) {
      SearchStats serial;
      for (size_t threads : {size_t{0}, size_t{2}, size_t{4}}) {
        SearchStats stats;
        auto got = MustSearch(*engine, query, MakeJoinQuery(14, threads),
                              &stats);
        ExpectIdenticalResults(reference, got);
        if (threads == 0) {
          ASSERT_GT(stats.distance_computations, 0u);
          serial = stats;
          continue;
        }
        EXPECT_EQ(stats.distance_computations, serial.distance_computations)
            << path << " threads=" << threads;
        EXPECT_EQ(stats.tiles_evaluated, serial.tiles_evaluated)
            << path << " threads=" << threads;
      }
    }
  }
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
  auto a = MustSearch(flat_engine, query, MakeJoinQuery(14, 0));
  auto b = MustSearch(legacy_engine, query, MakeJoinQuery(14, 0));
  ExpectIdenticalResults(a, b);
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

/// A flat snapshot written by the last release that carried the int8
/// pre-filter tier: MakeClusteredCatalog(9101, dim 8, 6 columns of 8 rows)
/// under L2 with 3 pivots and 3 grid levels. Its prelude quant byte is 1
/// and it carries section kinds 10-12 (the tier's metadata, codes and error
/// norms), which today's loader skips unread.
const std::string kOldQuantFixture =
    std::string(PEXESO_TEST_DATA_DIR) + "/l2_quant_v3.pxso";

/// Offsets in the flat prelude: the retired quant byte follows magic,
/// version, options, dim and the three counts; the section count and the
/// 24-byte table entries (kind, reserved, offset, length) follow it.
constexpr size_t kQuantByteOffset = 53;
constexpr size_t kSectionCountOffset = 54;
constexpr size_t kSectionTableOffset = 58;

struct SectionEntry {
  uint32_t kind;
  uint64_t offset;
  uint64_t length;
};

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

std::vector<SectionEntry> SectionTable(const std::string& bytes) {
  uint32_t n = 0;
  std::memcpy(&n, bytes.data() + kSectionCountOffset, sizeof(n));
  std::vector<SectionEntry> table(n);
  for (uint32_t i = 0; i < n; ++i) {
    const char* e = bytes.data() + kSectionTableOffset + 24 * size_t{i};
    std::memcpy(&table[i].kind, e, sizeof(uint32_t));
    std::memcpy(&table[i].offset, e + 8, sizeof(uint64_t));
    std::memcpy(&table[i].length, e + 16, sizeof(uint64_t));
  }
  return table;
}

bool HasRetiredSection(const std::string& bytes) {
  for (const SectionEntry& e : SectionTable(bytes)) {
    if (e.kind >= 10 && e.kind <= 12) return true;
  }
  return false;
}

/// Runs pexeso_cli with `args`, returning its exit status and output.
int RunCli(const std::string& args, std::string* out) {
  const std::string cmd = std::string(PEXESO_CLI_PATH) + " " + args + " 2>&1";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out->append(buf);
  return pclose(pipe);
}

class OldQuantSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/old_quant_snapshot";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  PexesoIndex MustLoad(const std::string& path) {
    auto loaded = PexesoIndex::Load(path, &metric_);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return std::move(loaded).ValueOrDie();
  }

  /// The index's own column-0 vectors as a query, so column 0 must join.
  static VectorStore Column0Query(const PexesoIndex& index) {
    const ColumnCatalog& catalog = index.catalog();
    const ColumnMeta& c0 = catalog.column(0);
    VectorStore query(catalog.dim());
    for (uint32_t i = 0; i < c0.count; ++i) {
      query.Add(std::span<const float>(catalog.store().View(c0.first + i),
                                       catalog.dim()));
    }
    return query;
  }

  std::vector<JoinableColumn> Answer(const PexesoIndex& index,
                                     const VectorStore& query) {
    FractionalThresholds ft{0.07, 0.4};
    JoinQuery jq;
    jq.thresholds = ft.Resolve(metric_, query.dim(), query.size());
    jq.collect_mappings = true;
    PexesoSearcher engine(&index);
    return MustSearch(engine, query, jq);
  }

  L2Metric metric_;
  std::string dir_;
};

/// The old file verifies, loads mapped, and answers byte-identically to the
/// same index re-saved by today's writer, which drops the retired sections
/// and writes the quant byte as 0.
TEST_F(OldQuantSnapshotTest, LoadsAndMatchesItsResave) {
  const std::string old_bytes = ReadBytes(kOldQuantFixture);
  ASSERT_GT(old_bytes.size(), kSectionTableOffset);
  ASSERT_EQ(old_bytes[kQuantByteOffset], 1);
  ASSERT_TRUE(HasRetiredSection(old_bytes));
  ASSERT_TRUE(PexesoIndex::VerifySnapshot(kOldQuantFixture).ok());

  PexesoIndex old = MustLoad(kOldQuantFixture);
  EXPECT_TRUE(old.is_mapped());
  EXPECT_TRUE(old.loaded_retired_sections());
  const VectorStore query = Column0Query(old);
  const auto reference = Answer(old, query);
  ASSERT_FALSE(reference.empty());

  const std::string resaved = dir_ + "/resaved.pxso";
  {
    PexesoIndex copy = MustLoad(kOldQuantFixture);
    copy.Materialize();
    ASSERT_TRUE(copy.Save(resaved).ok());
  }
  const std::string new_bytes = ReadBytes(resaved);
  EXPECT_EQ(new_bytes[kQuantByteOffset], 0);
  EXPECT_FALSE(HasRetiredSection(new_bytes));
  EXPECT_LT(new_bytes.size(), old_bytes.size());

  PexesoIndex fresh = MustLoad(resaved);
  EXPECT_TRUE(fresh.is_mapped());
  EXPECT_FALSE(fresh.loaded_retired_sections());
  ExpectIdenticalResults(reference, Answer(fresh, query));
}

/// Flipping every byte of the retired codes section (kind 11) and
/// re-sealing the footer changes nothing: the loader never reads it.
TEST_F(OldQuantSnapshotTest, RetiredSectionBytesAreNeverRead) {
  PexesoIndex old = MustLoad(kOldQuantFixture);
  const VectorStore query = Column0Query(old);
  const auto reference = Answer(old, query);
  ASSERT_FALSE(reference.empty());

  std::string bytes = ReadBytes(kOldQuantFixture);
  bool flipped = false;
  for (const SectionEntry& e : SectionTable(bytes)) {
    if (e.kind != 11) continue;
    ASSERT_GT(e.length, 0u);
    ASSERT_LE(e.offset + e.length, bytes.size() - 8);
    for (uint64_t i = e.offset; i < e.offset + e.length; ++i) {
      bytes[i] = static_cast<char>(bytes[i] ^ 0xFF);
    }
    flipped = true;
  }
  ASSERT_TRUE(flipped);
  const uint32_t crc = Crc32Update(0, bytes.data(), bytes.size() - 8);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
  const std::string mutant = dir_ + "/flipped.pxso";
  WriteBytes(mutant, bytes);

  ASSERT_TRUE(PexesoIndex::VerifySnapshot(mutant).ok());
  PexesoIndex loaded = MustLoad(mutant);
  EXPECT_TRUE(loaded.loaded_retired_sections());
  ExpectIdenticalResults(reference, Answer(loaded, query));
}

/// `pexeso_cli snapshot --upgrade` rewrites an old flat file without its
/// retired sections, the result answers the same, and a second upgrade
/// skips the now-current file.
TEST_F(OldQuantSnapshotTest, CliUpgradeDropsRetiredSections) {
  PexesoIndex old = MustLoad(kOldQuantFixture);
  const VectorStore query = Column0Query(old);
  const auto reference = Answer(old, query);
  ASSERT_FALSE(reference.empty());

  const std::string path = dir_ + "/upgrade.pxso";
  std::filesystem::copy_file(kOldQuantFixture, path);
  const auto old_size = std::filesystem::file_size(path);

  const std::string args = "snapshot --index '" + path + "' --upgrade";
  std::string out;
  ASSERT_EQ(RunCli(args, &out), 0) << out;
  EXPECT_NE(out.find("retired sections dropped"), std::string::npos) << out;
  const auto new_size = std::filesystem::file_size(path);
  EXPECT_LT(new_size, old_size);
  EXPECT_FALSE(HasRetiredSection(ReadBytes(path)));
  {
    PexesoIndex upgraded = MustLoad(path);
    EXPECT_FALSE(upgraded.loaded_retired_sections());
    ExpectIdenticalResults(reference, Answer(upgraded, query));
  }

  out.clear();
  ASSERT_EQ(RunCli(args, &out), 0) << out;
  EXPECT_NE(out.find("skipped"), std::string::npos) << out;
  EXPECT_EQ(std::filesystem::file_size(path), new_size);
}

}  // namespace
}  // namespace pexeso
