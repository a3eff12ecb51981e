#include "core/pexeso_index.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "core/cost_model.h"
#include "pivot/pivot_selector.h"
#include "vec/kernels.h"

namespace pexeso {

namespace {
constexpr uint32_t kMagic = 0x5058534Fu;  // "PXSO"
// v1: streamed, no checksum footer. v2: streamed, CRC-32 footer required
// (so a truncation that removes exactly the footer cannot masquerade as a
// legacy file). v3: flat section-table layout (snapshot format v2 in the
// docs): page-aligned sections the loader mmaps and binds zero-copy, same
// CRC-32 footer over every payload byte.
constexpr uint32_t kVersion = 3;
constexpr uint32_t kLegacyVersion = 2;
constexpr uint32_t kMinVersion = 1;

/// Section starts are aligned so every element type that is served
/// zero-copy (double, uint64_t, Posting, float) lands on a multiple of its
/// alignment; 64 also keeps sections cache-line clean.
constexpr uint64_t kSectionAlign = 64;

/// Section kinds of the flat layout. Values are on-disk; never renumber.
enum SectionKind : uint32_t {
  kSecColMeta = 1,      ///< parsed: column metadata (no vectors)
  kSecPivots = 2,       ///< parsed: PivotSpace image
  kSecGrid = 3,         ///< parsed: HierarchicalGrid image
  kSecTombstones = 4,   ///< copied: u8 per column
  kSecVectors = 5,      ///< viewed: float[num_vectors * dim]
  kSecMapped = 6,       ///< viewed: double[num_vectors * num_pivots]
  kSecCellOffsets = 7,  ///< viewed: u64[num_cells + 1] CSR offsets
  kSecPostings = 8,     ///< viewed: Posting[num_postings]
  kSecVecIds = 9,       ///< viewed: u32[num_vec_ids]
  // 10-12 are retired: the int8 pre-filter tier's metadata, codes and
  // error norms. Older files may still carry them; the loader skips them
  // unread. Never reuse these numbers.
};
constexpr uint32_t kMaxSectionKind = kSecVecIds;

uint64_t Align64(uint64_t n) {
  return (n + (kSectionAlign - 1)) & ~(kSectionAlign - 1);
}

/// Reads just magic + version, outside the failpoint-instrumented
/// backends, so version dispatch does not change how many injectable
/// opens/reads one Load performs.
Status PeekHeaderWords(const std::string& path, uint32_t* magic,
                       uint32_t* version) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open index file: " + path);
  uint32_t words[2] = {0, 0};
  in.read(reinterpret_cast<char*>(words), sizeof(words));
  if (!in) return Status::Corruption("snapshot too small for header");
  *magic = words[0];
  *version = words[1];
  return Status::OK();
}
}  // namespace

PexesoIndex PexesoIndex::Build(ColumnCatalog catalog, const Metric* metric,
                               const PexesoOptions& options) {
  PEXESO_CHECK(metric != nullptr);
  PEXESO_CHECK(catalog.num_vectors() > 0);
  PexesoIndex index;
  index.catalog_ = std::move(catalog);
  index.metric_ = metric;
  index.options_ = options;
  // The grid supports at most kMaxPivots axes; more pivots add no filtering
  // power it could exploit.
  index.options_.num_pivots =
      std::max<uint32_t>(1, std::min(options.num_pivots, kMaxPivots));

  const VectorStore& store = index.catalog_.store();
  std::vector<float> pivots;
  if (options.pivot_strategy == PexesoOptions::PivotStrategy::kPca) {
    pivots = PivotSelector::SelectPca(store.raw().data(), store.size(),
                                      store.dim(), index.options_.num_pivots,
                                      metric, options.seed);
  } else {
    pivots = PivotSelector::SelectRandom(store.raw().data(), store.size(),
                                         store.dim(),
                                         index.options_.num_pivots,
                                         options.seed);
  }
  const uint32_t actual_pivots =
      static_cast<uint32_t>(pivots.size() / store.dim());
  index.pivots_ = PivotSpace(pivots.data(), actual_pivots, store.dim(), metric);

  index.mapped_ = index.pivots_.MapAll(store.raw().data(), store.size());

  uint32_t levels = options.levels;
  if (levels == 0) {
    // Pick m by the Section III-E cost model over a sampled workload.
    CostModel model(index.mapped_.data(), store.size(), actual_pivots,
                    index.pivots_.AxisExtent());
    Rng rng(options.seed ^ 0xC057ULL);
    auto workload = CostModel::SampleWorkload(
        index.catalog_, index.mapped_.data(), actual_pivots,
        index.pivots_.AxisExtent(), /*num_queries=*/32, &rng);
    levels = model.OptimalM(workload);
    index.options_.levels = levels;
  }

  HierarchicalGrid::Options gopts;
  gopts.levels = levels;
  gopts.store_leaf_items = true;
  index.grid_.Build(index.mapped_.data(), store.size(), actual_pivots,
                    index.pivots_.AxisExtent(), gopts);
  index.inv_.Build(index.grid_, index.catalog_);
  index.tombstones_.assign(index.catalog_.num_columns(), 0);
  return index;
}

void PexesoIndex::Materialize() {
  catalog_.mutable_store()->Materialize();
  inv_.Materialize();
  if (mapped_ext_ != nullptr) {
    mapped_.assign(mapped_ext_, mapped_ext_ + catalog_.num_vectors() *
                                                  pivots_.num_pivots());
    mapped_ext_ = nullptr;
  }
  mapping_.reset();
}

ColumnId PexesoIndex::AppendColumn(ColumnMeta meta, const float* packed,
                                   size_t count) {
  Materialize();  // appends mutate every structure a mapping would share
  const ColumnId col = catalog_.AddColumn(std::move(meta), packed, count);
  const uint32_t np = pivots_.num_pivots();
  const VecId first = catalog_.column(col).first;

  // Pivot-map the new vectors and insert them into the grid chain.
  std::vector<double> mapped_new(count * np);
  std::unordered_map<uint32_t, std::vector<VecId>> by_leaf;
  for (size_t i = 0; i < count; ++i) {
    const VecId v = first + static_cast<VecId>(i);
    pivots_.Map(catalog_.store().View(v), mapped_new.data() + i * np);
    mapped_.insert(mapped_.end(), mapped_new.begin() + i * np,
                   mapped_new.begin() + (i + 1) * np);
    const uint32_t leaf =
        grid_.Insert(mapped_new.data() + i * np, v, /*store_item=*/true);
    by_leaf[leaf].push_back(v);
  }
  inv_.EnsureCells(grid_.LeafCells().size());
  for (auto& [leaf, vecs] : by_leaf) {
    inv_.Append(leaf, col, vecs);
  }
  tombstones_.push_back(0);
  return col;
}

void PexesoIndex::DeleteColumn(ColumnId column) {
  PEXESO_CHECK(column < tombstones_.size());
  tombstones_[column] = 1;
}

size_t PexesoIndex::Compact() {
  size_t dropped = 0;
  for (uint8_t t : tombstones_) dropped += t;
  if (dropped == 0) return 0;

  ColumnCatalog survivors(catalog_.dim());
  for (ColumnId c = 0; c < catalog_.num_columns(); ++c) {
    if (tombstones_[c]) continue;
    const ColumnMeta& meta = catalog_.column(c);
    survivors.AddColumn(meta, catalog_.store().View(meta.first), meta.count);
  }
  PEXESO_CHECK_MSG(survivors.num_columns() > 0,
                   "compacting away every column is not supported");
  *this = Build(std::move(survivors), metric_, options_);
  return dropped;
}

size_t PexesoIndex::IndexSizeBytes() const {
  return pivots_.MemoryBytes() + mapped_.capacity() * sizeof(double) +
         grid_.MemoryBytes() + inv_.MemoryBytes() + tombstones_.capacity();
}

Status PexesoIndex::SaveLegacy(const std::string& path) const {
  auto wr = BinaryWriter::Open(path);
  if (!wr.ok()) return wr.status();
  BinaryWriter w = std::move(wr).ValueOrDie();
  w.Write<uint32_t>(kMagic);
  w.Write<uint32_t>(kLegacyVersion);
  w.Write<uint32_t>(options_.num_pivots);
  w.Write<uint32_t>(options_.levels);
  w.Write<uint64_t>(options_.seed);
  w.Write<uint8_t>(
      options_.pivot_strategy == PexesoOptions::PivotStrategy::kPca ? 0 : 1);
  catalog_.Serialize(&w);
  pivots_.Serialize(&w);
  if (mapped_ext_ != nullptr) {
    const size_t n = catalog_.num_vectors() * pivots_.num_pivots();
    w.Write<uint64_t>(n);
    w.WriteBytes(mapped_ext_, n * sizeof(double));
  } else {
    w.WriteVector(mapped_);
  }
  grid_.Serialize(&w);
  inv_.Serialize(&w);
  w.WriteVector(tombstones_);
  w.WriteChecksumFooter();
  return w.Close();
}

Status PexesoIndex::Save(const std::string& path) const {
  // Pre-serialize the variable-length (parsed) sections so every section
  // length — and hence every offset — is known before the table is written;
  // the CRC is a forward-only stream, so the table cannot be patched later.
  std::string colmeta, pivots_img, grid_img;
  {
    BinaryWriter b = BinaryWriter::ToBuffer(&colmeta);
    catalog_.SerializeMeta(&b);
  }
  {
    BinaryWriter b = BinaryWriter::ToBuffer(&pivots_img);
    pivots_.Serialize(&b);
  }
  {
    BinaryWriter b = BinaryWriter::ToBuffer(&grid_img);
    grid_.Serialize(&b);
  }

  const VectorStore& store = catalog_.store();
  const uint64_t nvec = store.size();
  const uint32_t dim = store.dim();
  const uint64_t ncells = inv_.num_cells();
  const uint64_t nvecids = inv_.vec_ids_size();
  const uint32_t np = pivots_.num_pivots();

  // Flat CSR offsets for the postings sections.
  std::vector<uint64_t> cell_offsets(ncells + 1, 0);
  for (uint64_t c = 0; c < ncells; ++c) {
    cell_offsets[c + 1] =
        cell_offsets[c] + inv_.PostingsOf(static_cast<uint32_t>(c)).size();
  }
  const uint64_t npost = cell_offsets[ncells];

  struct Section {
    uint32_t kind;
    uint64_t length;
    uint64_t offset;
  };
  std::vector<Section> sections = {
      {kSecColMeta, colmeta.size(), 0},
      {kSecPivots, pivots_img.size(), 0},
      {kSecGrid, grid_img.size(), 0},
      {kSecTombstones, tombstones_.size(), 0},
      {kSecVectors, nvec * dim * sizeof(float), 0},
      {kSecMapped, nvec * np * sizeof(double), 0},
      {kSecCellOffsets, (ncells + 1) * sizeof(uint64_t), 0},
      {kSecPostings, npost * sizeof(InvertedIndex::Posting), 0},
      {kSecVecIds, nvecids * sizeof(VecId), 0},
  };

  // Header: prelude (identical to v1/v2 through the strategy byte, plus dim
  // so PeekDim stays version-blind), counts, then the section table.
  const uint64_t header_bytes = 4 + 4 +            // magic, version
                                4 + 4 + 8 + 1 +    // options
                                4 +                // dim
                                8 + 8 + 8 +        // nvec, ncells, nvecids
                                1 +                // retired quant flag
                                4 +                // section count
                                24 * sections.size();
  uint64_t cursor = Align64(header_bytes);
  for (auto& s : sections) {
    s.offset = cursor;
    cursor = Align64(s.offset + s.length);
  }

  auto wr = BinaryWriter::Open(path);
  if (!wr.ok()) return wr.status();
  BinaryWriter w = std::move(wr).ValueOrDie();
  w.Write<uint32_t>(kMagic);
  w.Write<uint32_t>(kVersion);
  w.Write<uint32_t>(options_.num_pivots);
  w.Write<uint32_t>(options_.levels);
  w.Write<uint64_t>(options_.seed);
  w.Write<uint8_t>(
      options_.pivot_strategy == PexesoOptions::PivotStrategy::kPca ? 0 : 1);
  w.Write<uint32_t>(dim);
  w.Write<uint64_t>(nvec);
  w.Write<uint64_t>(ncells);
  w.Write<uint64_t>(nvecids);
  w.Write<uint8_t>(0);  // retired quant flag: always written 0
  w.Write<uint32_t>(static_cast<uint32_t>(sections.size()));
  for (const auto& s : sections) {
    w.Write<uint32_t>(s.kind);
    w.Write<uint32_t>(0);  // reserved
    w.Write<uint64_t>(s.offset);
    w.Write<uint64_t>(s.length);
  }

  const std::array<char, kSectionAlign> zeros{};
  auto pad_to = [&](uint64_t offset) {
    PEXESO_CHECK(w.bytes_written() <= offset);
    uint64_t gap = offset - w.bytes_written();
    while (gap > 0) {
      const uint64_t chunk = std::min<uint64_t>(gap, zeros.size());
      w.WriteBytes(zeros.data(), chunk);
      gap -= chunk;
    }
  };

  for (const auto& s : sections) {
    pad_to(s.offset);
    switch (s.kind) {
      case kSecColMeta:
        w.WriteBytes(colmeta.data(), colmeta.size());
        break;
      case kSecPivots:
        w.WriteBytes(pivots_img.data(), pivots_img.size());
        break;
      case kSecGrid:
        w.WriteBytes(grid_img.data(), grid_img.size());
        break;
      case kSecTombstones:
        w.WriteBytes(tombstones_.data(), tombstones_.size());
        break;
      case kSecVectors:
        if (nvec > 0) w.WriteBytes(store.View(0), s.length);
        break;
      case kSecMapped:
        if (nvec > 0) w.WriteBytes(MappedVec(0), s.length);
        break;
      case kSecCellOffsets:
        w.WriteBytes(cell_offsets.data(), s.length);
        break;
      case kSecPostings:
        for (uint64_t c = 0; c < ncells; ++c) {
          const auto postings = inv_.PostingsOf(static_cast<uint32_t>(c));
          w.WriteBytes(postings.data(),
                       postings.size() * sizeof(InvertedIndex::Posting));
        }
        break;
      case kSecVecIds:
        w.WriteBytes(inv_.vec_ids_data(), s.length);
        break;
    }
    PEXESO_CHECK(w.bytes_written() == s.offset + s.length);
  }
  w.WriteChecksumFooter();
  return w.Close();
}

Result<uint32_t> PexesoIndex::PeekDim(const std::string& path) {
  auto rd = BinaryReader::Open(path);
  if (!rd.ok()) return rd.status();
  BinaryReader r = std::move(rd).ValueOrDie();
  uint32_t magic = 0, version = 0;
  PEXESO_RETURN_NOT_OK(r.Read(&magic));
  if (magic != kMagic) return Status::Corruption("bad index magic");
  PEXESO_RETURN_NOT_OK(r.Read(&version));
  if (version < kMinVersion || version > kVersion) {
    return Status::NotSupported("index version");
  }
  // Skip the options block; dim is the next u32 in every version (v1/v2:
  // the store's leading field, v3: an explicit header word).
  uint32_t u32 = 0;
  uint64_t seed = 0;
  uint8_t strat = 0;
  PEXESO_RETURN_NOT_OK(r.Read(&u32));    // num_pivots
  PEXESO_RETURN_NOT_OK(r.Read(&u32));    // levels
  PEXESO_RETURN_NOT_OK(r.Read(&seed));   // seed
  PEXESO_RETURN_NOT_OK(r.Read(&strat));  // pivot strategy
  uint32_t dim = 0;
  PEXESO_RETURN_NOT_OK(r.Read(&dim));
  return dim;
}

Status PexesoIndex::VerifySnapshot(const std::string& path) {
  auto rd = BinaryReader::Open(path);
  if (!rd.ok()) return rd.status();
  BinaryReader r = std::move(rd).ValueOrDie();
  uint32_t magic = 0, version = 0;
  PEXESO_RETURN_NOT_OK(r.Read(&magic));
  if (magic != kMagic) return Status::Corruption("bad index magic");
  PEXESO_RETURN_NOT_OK(r.Read(&version));
  if (version < kMinVersion || version > kVersion) {
    return Status::NotSupported("index version");
  }
  return VerifyFileChecksum(path, /*require_footer=*/version >= 2);
}

Result<PexesoIndex> PexesoIndex::Load(const std::string& path,
                                      const Metric* metric) {
  // FIFOs and other non-regular files can be read exactly once and cannot
  // be mmap'd, so snapshot bytes served through a pipe take a single
  // sequential read into a heap buffer and dispatch from there.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IoError("cannot open index file: " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string buf = std::move(ss).str();
    if (buf.size() < 8) return Status::Corruption("snapshot too small for header");
    const uint8_t* data = reinterpret_cast<const uint8_t*>(buf.data());
    uint32_t smagic = 0, sversion = 0;
    std::memcpy(&smagic, data, sizeof(smagic));
    std::memcpy(&sversion, data + 4, sizeof(sversion));
    if (smagic != kMagic) return Status::Corruption("bad index magic");
    if (sversion < kMinVersion || sversion > kVersion) {
      return Status::NotSupported("index version");
    }
    if (sversion >= 3) {
      auto loaded = LoadFlat(data, buf.size(), metric);
      if (!loaded.ok()) return loaded.status();
      PexesoIndex index = std::move(loaded).ValueOrDie();
      // The flat loader bound views into `buf`; copy them to owned storage
      // before the buffer goes out of scope.
      index.Materialize();
      return index;
    }
    BinaryReader r = BinaryReader::FromBuffer(data, buf.size());
    uint32_t m2 = 0, v2 = 0;
    PEXESO_RETURN_NOT_OK(r.Read(&m2));
    PEXESO_RETURN_NOT_OK(r.Read(&v2));
    return LoadStream(std::move(r), sversion, metric);
  }

  uint32_t magic = 0, version = 0;
  PEXESO_RETURN_NOT_OK(PeekHeaderWords(path, &magic, &version));
  if (magic != kMagic) return Status::Corruption("bad index magic");
  if (version < kMinVersion || version > kVersion) {
    return Status::NotSupported("index version");
  }
  if (version >= 3) {
    auto mf = MappedFile::Open(path);
    if (!mf.ok()) return mf.status();
    return LoadMapped(std::move(mf).ValueOrDie(), metric);
  }
  auto rd = BinaryReader::Open(path);
  if (!rd.ok()) return rd.status();
  BinaryReader r = std::move(rd).ValueOrDie();
  uint32_t m2 = 0, v2 = 0;
  PEXESO_RETURN_NOT_OK(r.Read(&m2));
  PEXESO_RETURN_NOT_OK(r.Read(&v2));
  if (m2 != kMagic || v2 != version) {
    return Status::Corruption("index header changed between reads");
  }
  return LoadStream(std::move(r), version, metric);
}

Result<PexesoIndex> PexesoIndex::LoadStream(BinaryReader r, uint32_t version,
                                            const Metric* metric) {
  PexesoIndex index;
  index.metric_ = metric;
  PEXESO_RETURN_NOT_OK(r.Read(&index.options_.num_pivots));
  PEXESO_RETURN_NOT_OK(r.Read(&index.options_.levels));
  PEXESO_RETURN_NOT_OK(r.Read(&index.options_.seed));
  uint8_t strat = 0;
  PEXESO_RETURN_NOT_OK(r.Read(&strat));
  index.options_.pivot_strategy = strat == 0
                                      ? PexesoOptions::PivotStrategy::kPca
                                      : PexesoOptions::PivotStrategy::kRandom;
  PEXESO_RETURN_NOT_OK(index.catalog_.Deserialize(&r));
  PEXESO_RETURN_NOT_OK(index.pivots_.Deserialize(&r, metric));
  PEXESO_RETURN_NOT_OK(r.ReadVector(&index.mapped_));
  PEXESO_RETURN_NOT_OK(index.grid_.Deserialize(&r));
  PEXESO_RETURN_NOT_OK(
      index.inv_.Deserialize(&r, index.catalog_.num_columns()));
  PEXESO_RETURN_NOT_OK(r.ReadVector(&index.tombstones_));
  // Reject snapshots whose payload parsed but was silently corrupted (a
  // flipped byte in vector data leaves every length plausible). v1 files
  // predate the footer and end exactly at the payload; v2 files must carry
  // one.
  PEXESO_RETURN_NOT_OK(r.VerifyChecksum(/*require_footer=*/version >= 2));
  index.loaded_version_ = version;
  return index;
}

Result<PexesoIndex> PexesoIndex::LoadMapped(std::shared_ptr<MappedFile> file,
                                            const Metric* metric) {
  auto loaded = LoadFlat(static_cast<const uint8_t*>(file->data()),
                         file->size(), metric);
  if (!loaded.ok()) return loaded.status();
  PexesoIndex index = std::move(loaded).ValueOrDie();
  index.mapping_ = std::move(file);
  return index;
}

Result<PexesoIndex> PexesoIndex::LoadFlat(const uint8_t* data, uint64_t size,
                                          const Metric* metric) {
  if (size < 66 + 8) return Status::Corruption("flat snapshot too small");

  // Integrity first: one slice-by-8 CRC pass over the buffer against the
  // footer, so a corrupted section table is rejected before it is trusted.
  uint32_t fmagic = 0, fcrc = 0;
  std::memcpy(&fmagic, data + size - 8, sizeof(fmagic));
  std::memcpy(&fcrc, data + size - 4, sizeof(fcrc));
  if (fmagic != kChecksumFooterMagic) {
    return Status::Corruption("flat snapshot missing checksum footer");
  }
  const uint64_t payload = size - 8;
  if (Crc32Update(0, data, payload) != fcrc) {
    return Status::Corruption("flat snapshot checksum mismatch");
  }

  BinaryReader r = BinaryReader::FromBuffer(data, payload);
  PexesoIndex index;
  index.metric_ = metric;
  uint32_t magic = 0, version = 0;
  PEXESO_RETURN_NOT_OK(r.Read(&magic));
  PEXESO_RETURN_NOT_OK(r.Read(&version));
  if (magic != kMagic || version != kVersion) {
    return Status::Corruption("flat snapshot header mismatch");
  }
  PEXESO_RETURN_NOT_OK(r.Read(&index.options_.num_pivots));
  PEXESO_RETURN_NOT_OK(r.Read(&index.options_.levels));
  PEXESO_RETURN_NOT_OK(r.Read(&index.options_.seed));
  uint8_t strat = 0;
  PEXESO_RETURN_NOT_OK(r.Read(&strat));
  index.options_.pivot_strategy = strat == 0
                                      ? PexesoOptions::PivotStrategy::kPca
                                      : PexesoOptions::PivotStrategy::kRandom;
  uint32_t dim = 0;
  uint64_t nvec = 0, ncells = 0, nvecids = 0;
  uint8_t retired_quant = 0;
  uint32_t num_sections = 0;
  PEXESO_RETURN_NOT_OK(r.Read(&dim));
  PEXESO_RETURN_NOT_OK(r.Read(&nvec));
  PEXESO_RETURN_NOT_OK(r.Read(&ncells));
  PEXESO_RETURN_NOT_OK(r.Read(&nvecids));
  PEXESO_RETURN_NOT_OK(r.Read(&retired_quant));
  PEXESO_RETURN_NOT_OK(r.Read(&num_sections));
  if (dim == 0 || nvec == 0) {
    return Status::Corruption("flat snapshot with empty repository");
  }
  if (num_sections > 2 * kMaxSectionKind) {
    return Status::Corruption("flat snapshot section count implausible");
  }

  std::array<uint64_t, kMaxSectionKind + 1> sec_off{};
  std::array<uint64_t, kMaxSectionKind + 1> sec_len{};
  std::array<bool, kMaxSectionKind + 1> sec_present{};
  for (uint32_t i = 0; i < num_sections; ++i) {
    uint32_t kind = 0, reserved = 0;
    uint64_t off = 0, len = 0;
    PEXESO_RETURN_NOT_OK(r.Read(&kind));
    PEXESO_RETURN_NOT_OK(r.Read(&reserved));
    PEXESO_RETURN_NOT_OK(r.Read(&off));
    PEXESO_RETURN_NOT_OK(r.Read(&len));
    // Retired kinds (10-12) and unknown future ones are skipped unread;
    // the footer CRC above still covered their bytes.
    if (kind == 0 || kind > kMaxSectionKind) continue;
    if (sec_present[kind]) {
      return Status::Corruption("flat snapshot duplicates a section");
    }
    if (off % kSectionAlign != 0 || off > payload || len > payload - off) {
      return Status::Corruption("flat snapshot section out of bounds");
    }
    sec_present[kind] = true;
    sec_off[kind] = off;
    sec_len[kind] = len;
  }
  const uint32_t required[] = {kSecColMeta,     kSecPivots,   kSecGrid,
                               kSecTombstones,  kSecVectors,  kSecMapped,
                               kSecCellOffsets, kSecPostings, kSecVecIds};
  for (uint32_t kind : required) {
    if (!sec_present[kind]) {
      return Status::Corruption("flat snapshot missing a required section");
    }
  }
  auto section_reader = [&](uint32_t kind) {
    return BinaryReader::FromBuffer(data + sec_off[kind], sec_len[kind]);
  };

  // Parsed sections.
  {
    BinaryReader pr = section_reader(kSecPivots);
    PEXESO_RETURN_NOT_OK(index.pivots_.Deserialize(&pr, metric));
  }
  {
    BinaryReader gr = section_reader(kSecGrid);
    PEXESO_RETURN_NOT_OK(index.grid_.Deserialize(&gr));
  }
  {
    BinaryReader cr = section_reader(kSecColMeta);
    PEXESO_RETURN_NOT_OK(index.catalog_.DeserializeMeta(&cr));
  }
  const uint64_t ncols = index.catalog_.num_columns();
  if (sec_len[kSecTombstones] != ncols) {
    return Status::Corruption("tombstone section length mismatch");
  }
  const uint8_t* tomb = data + sec_off[kSecTombstones];
  index.tombstones_.assign(tomb, tomb + ncols);

  // Fixed-shape sections: exact length checks, then zero-copy binds.
  const uint32_t np = index.pivots_.num_pivots();
  if (sec_len[kSecVectors] != nvec * dim * sizeof(float) ||
      sec_len[kSecMapped] != nvec * np * sizeof(double) ||
      sec_len[kSecCellOffsets] != (ncells + 1) * sizeof(uint64_t) ||
      sec_len[kSecPostings] % sizeof(InvertedIndex::Posting) != 0 ||
      sec_len[kSecVecIds] != nvecids * sizeof(VecId)) {
    return Status::Corruption("flat snapshot section shape mismatch");
  }
  const auto* cell_offsets =
      reinterpret_cast<const uint64_t*>(data + sec_off[kSecCellOffsets]);
  const auto* postings = reinterpret_cast<const InvertedIndex::Posting*>(
      data + sec_off[kSecPostings]);
  const uint64_t npost =
      sec_len[kSecPostings] / sizeof(InvertedIndex::Posting);
  if (cell_offsets[0] != 0 || cell_offsets[ncells] != npost) {
    return Status::Corruption("postings offsets do not cover the postings");
  }
  // One pass over the cells validates the offsets and every posting: its
  // column and vec-id range, and the strictly-ascending column order the
  // inverted index's one-posting-per-(cell, column) invariant requires.
  for (uint64_t c = 0; c < ncells; ++c) {
    const uint64_t lo = cell_offsets[c];
    const uint64_t hi = cell_offsets[c + 1];
    if (lo > hi || hi > npost) {
      return Status::Corruption("postings offsets not monotone");
    }
    for (uint64_t p = lo; p < hi; ++p) {
      if (postings[p].column >= ncols ||
          postings[p].vec_begin +
                  static_cast<uint64_t>(postings[p].vec_count) >
              nvecids) {
        return Status::Corruption("posting references out-of-range data");
      }
      if (p > lo && postings[p - 1].column >= postings[p].column) {
        return Status::Corruption("postings not strictly ascending by column");
      }
    }
  }

  index.catalog_.mutable_store()->BindView(
      reinterpret_cast<const float*>(data + sec_off[kSecVectors]), nvec, dim);
  index.mapped_.clear();
  index.mapped_ext_ =
      reinterpret_cast<const double*>(data + sec_off[kSecMapped]);
  index.inv_.BindView(cell_offsets, ncells, postings,
                      reinterpret_cast<const VecId*>(data + sec_off[kSecVecIds]),
                      nvecids);

  index.loaded_version_ = 3;
  index.loaded_retired_sections_ = retired_quant != 0;
  return index;
}

}  // namespace pexeso
