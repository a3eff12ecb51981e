#ifndef PEXESO_CORE_PEXESO_INDEX_H_
#define PEXESO_CORE_PEXESO_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mmap_file.h"
#include "common/status.h"
#include "grid/hierarchical_grid.h"
#include "invindex/inverted_index.h"
#include "pivot/pivot_space.h"
#include "vec/column_catalog.h"
#include "vec/metric.h"

namespace pexeso {

/// \brief Index construction options.
struct PexesoOptions {
  /// |P|: number of pivots. Paper tunes 1..9; defaults to the OPEN optimum.
  uint32_t num_pivots = 5;
  /// m: number of hierarchical-grid levels. 0 = pick via the cost model.
  uint32_t levels = 6;
  /// Pivot selection strategy: PCA-based [22] (paper choice) or random.
  enum class PivotStrategy { kPca, kRandom } pivot_strategy = PivotStrategy::kPca;
  /// Seed for pivot selection sampling.
  uint64_t seed = 17;
};

/// \brief The offline side of PEXESO: the embedded repository plus every
/// search structure of Section III (pivot space, mapped vectors, HGRV, and
/// the inverted index). Owns the catalog it was built over.
class PexesoIndex {
 public:
  PexesoIndex() = default;
  PexesoIndex(PexesoIndex&&) = default;
  PexesoIndex& operator=(PexesoIndex&&) = default;

  /// Builds the index over `catalog` (moved in; vectors should already be
  /// unit-normalized). `metric` is borrowed and must outlive the index.
  static PexesoIndex Build(ColumnCatalog catalog, const Metric* metric,
                           const PexesoOptions& options);

  /// Appends a new column (Section III-E): pivot-maps its vectors, inserts
  /// them into the grid chain and the postings lists. Returns the ColumnId.
  ColumnId AppendColumn(ColumnMeta meta, const float* packed, size_t count);

  /// Logically deletes a column: it is tombstoned and skipped by every
  /// searcher. Postings stay in place until Compact().
  void DeleteColumn(ColumnId column);

  /// Rebuilds the index without tombstoned columns, reclaiming their space.
  /// Column ids are compacted (survivors keep their relative order and their
  /// ColumnMeta::source_id, which callers should use for stable identity).
  /// Returns the number of columns dropped.
  size_t Compact();

  bool IsDeleted(ColumnId column) const {
    return column < tombstones_.size() && tombstones_[column] != 0;
  }

  const ColumnCatalog& catalog() const { return catalog_; }
  const PivotSpace& pivots() const { return pivots_; }
  const HierarchicalGrid& grid() const { return grid_; }
  const InvertedIndex& inverted_index() const { return inv_; }
  const Metric* metric() const { return metric_; }
  const PexesoOptions& options() const { return options_; }

  /// Mapped repository vector v (|P| doubles).
  const double* MappedVec(VecId v) const {
    const double* base = mapped_ext_ != nullptr ? mapped_ext_ : mapped_.data();
    return base + static_cast<size_t>(v) * pivots_.num_pivots();
  }
  /// Owned pivot-space coordinates; only meaningful for built indexes
  /// (mapped snapshots serve MappedVec from the mapping instead).
  const std::vector<double>& mapped() const {
    PEXESO_DCHECK(mapped_ext_ == nullptr);
    return mapped_;
  }

  /// True when this index serves reads zero-copy out of an mmapped
  /// snapshot (format v2 / disk version 3).
  bool is_mapped() const { return mapping_ != nullptr; }

  /// Bytes of the backing snapshot mapping (0 for heap indexes). This is
  /// the budget IndexCache charges for a mapped snapshot instead of heap
  /// bytes it never allocated.
  size_t MappedBytes() const {
    return mapping_ != nullptr ? mapping_->size() : 0;
  }

  /// Snapshot disk version this index was loaded from (0 for built ones).
  uint32_t loaded_version() const { return loaded_version_; }

  /// True when the flat snapshot this index was loaded from sets the
  /// retired quant prelude byte, i.e. still carries the unread int8 tier
  /// sections (kinds 10-12) that `pexeso_cli snapshot --upgrade` drops.
  bool loaded_retired_sections() const { return loaded_retired_sections_; }

  /// Copies every mapped section onto the heap and releases the mapping;
  /// no-op for heap indexes. Mutators call this, so a mapped snapshot is
  /// copy-on-write as a whole.
  void Materialize();

  /// Index footprint (pivots + mapped vectors + grid + inverted index),
  /// excluding the raw repository vectors; reproduces Figure 6b/10b sizing.
  size_t IndexSizeBytes() const;

  /// Serializes index + catalog to `path` in the flat, mmap-friendly v2
  /// snapshot format (disk version 3): page-aligned sections behind a
  /// section table, CRC-32 footer last. Used by partition files and the
  /// lake merge path.
  Status Save(const std::string& path) const;

  /// Serializes in the legacy streamed format (disk version 2) — the format
  /// every release before the flat layout wrote. Kept for format-parity
  /// tests and for `pexeso_cli snapshot --upgrade` fixtures.
  Status SaveLegacy(const std::string& path) const;

  /// Loads an index previously written by Save. `metric` must match the one
  /// used at build time.
  static Result<PexesoIndex> Load(const std::string& path,
                                  const Metric* metric);

  /// Reads just the snapshot header and returns the repository
  /// dimensionality — a cheap sanity check against an embedding model that
  /// avoids deserializing (and then discarding) a whole partition.
  static Result<uint32_t> PeekDim(const std::string& path);

  /// Validates a snapshot file without deserializing it: header magic +
  /// version, then a streamed CRC-32 pass over the payload against the
  /// footer. Corruption/NotSupported mean the BYTES are bad (quarantine
  /// material); IoError means the environment failed (retry material).
  /// This is the integrity pass lake recovery and fsck run per snapshot.
  static Status VerifySnapshot(const std::string& path);

 private:
  /// Legacy streamed loader (disk versions 1 and 2); `r` is positioned
  /// right after the magic/version words.
  static Result<PexesoIndex> LoadStream(BinaryReader r, uint32_t version,
                                        const Metric* metric);
  /// Flat loader (disk version 3): CRC pass over the buffer, section-table
  /// validation, then zero-copy view binding into `data`. The caller owns
  /// keeping `data` alive (LoadMapped attaches the mapping; the stream path
  /// materializes before its buffer dies).
  static Result<PexesoIndex> LoadFlat(const uint8_t* data, uint64_t size,
                                      const Metric* metric);
  /// LoadFlat over an mmap'd file; the returned index keeps the mapping
  /// alive and reports is_mapped().
  static Result<PexesoIndex> LoadMapped(std::shared_ptr<MappedFile> file,
                                        const Metric* metric);

  ColumnCatalog catalog_;
  PivotSpace pivots_;
  std::vector<double> mapped_;  ///< |RV| x |P| pivot-space coordinates
  const double* mapped_ext_ = nullptr;  ///< non-null => mapped-snapshot view
  HierarchicalGrid grid_;
  InvertedIndex inv_;
  std::vector<uint8_t> tombstones_;
  const Metric* metric_ = nullptr;
  PexesoOptions options_;
  std::shared_ptr<MappedFile> mapping_;  ///< keeps viewed sections alive
  uint32_t loaded_version_ = 0;
  bool loaded_retired_sections_ = false;
};

}  // namespace pexeso

#endif  // PEXESO_CORE_PEXESO_INDEX_H_
