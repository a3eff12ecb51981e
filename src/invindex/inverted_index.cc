#include "invindex/inverted_index.h"

#include <algorithm>

namespace pexeso {

void InvertedIndex::Build(const HierarchicalGrid& grid,
                          const ColumnCatalog& catalog) {
  const auto& leaves = grid.LeafCells();
  cells_.assign(leaves.size(), {});
  vec_ids_.clear();
  vec_ids_.reserve(grid.num_vectors());

  // Scratch: (column, vec) pairs of one cell, sorted by column then vec.
  std::vector<std::pair<ColumnId, VecId>> scratch;
  for (size_t cell = 0; cell < leaves.size(); ++cell) {
    const auto& items = leaves[cell].items;
    PEXESO_CHECK_MSG(!items.empty(),
                     "repository grid leaves must carry vector ids");
    scratch.clear();
    scratch.reserve(items.size());
    for (VecId v : items) {
      scratch.emplace_back(catalog.ColumnOf(v), v);
    }
    std::sort(scratch.begin(), scratch.end());
    size_t i = 0;
    while (i < scratch.size()) {
      const ColumnId col = scratch[i].first;
      const uint32_t begin = static_cast<uint32_t>(vec_ids_.size());
      uint32_t count = 0;
      while (i < scratch.size() && scratch[i].first == col) {
        vec_ids_.push_back(scratch[i].second);
        ++count;
        ++i;
      }
      cells_[cell].push_back(Posting{col, begin, count});
    }
  }
}

void InvertedIndex::Materialize() {
  if (!is_view()) return;
  cells_.assign(view_num_cells_, {});
  for (size_t cell = 0; cell < view_num_cells_; ++cell) {
    const uint64_t begin = view_offsets_[cell];
    const uint64_t end = view_offsets_[cell + 1];
    cells_[cell].assign(view_postings_ + begin, view_postings_ + end);
  }
  vec_ids_.assign(view_vec_ids_, view_vec_ids_ + view_num_vec_ids_);
  view_offsets_ = nullptr;
  view_postings_ = nullptr;
  view_vec_ids_ = nullptr;
  view_num_cells_ = 0;
  view_num_vec_ids_ = 0;
}

void InvertedIndex::Append(uint32_t cell, ColumnId column,
                           std::span<const VecId> vecs) {
  Materialize();
  PEXESO_CHECK(cell < cells_.size());
  PEXESO_CHECK(!vecs.empty());
  auto& postings = cells_[cell];
  const uint32_t begin = static_cast<uint32_t>(vec_ids_.size());
  const bool extends = !postings.empty() && postings.back().column == column &&
                       postings.back().vec_begin + postings.back().vec_count ==
                           begin;
  // One posting per (cell, column): a repeated column must continue its
  // posting's vec-id run, which then grows in place.
  PEXESO_CHECK_MSG(
      extends || postings.empty() || postings.back().column < column,
      "appends must use increasing column ids");
  vec_ids_.insert(vec_ids_.end(), vecs.begin(), vecs.end());
  if (extends) {
    postings.back().vec_count += static_cast<uint32_t>(vecs.size());
  } else {
    postings.push_back(
        Posting{column, begin, static_cast<uint32_t>(vecs.size())});
  }
}

size_t InvertedIndex::MemoryBytes() const {
  size_t bytes = vec_ids_.capacity() * sizeof(VecId) +
                 cells_.capacity() * sizeof(std::vector<Posting>);
  for (const auto& c : cells_) bytes += c.capacity() * sizeof(Posting);
  return bytes;
}

void InvertedIndex::Serialize(BinaryWriter* w) const {
  // Mode-agnostic and byte-identical to the historical per-cell WriteVector
  // layout (u64 length + raw postings per cell, then the vec-id pool).
  const size_t n = num_cells();
  w->Write<uint64_t>(n);
  for (size_t cell = 0; cell < n; ++cell) {
    const auto postings = PostingsOf(static_cast<uint32_t>(cell));
    w->Write<uint64_t>(postings.size());
    w->WriteBytes(postings.data(), postings.size() * sizeof(Posting));
  }
  w->Write<uint64_t>(vec_ids_size());
  w->WriteBytes(vec_ids_data(), vec_ids_size() * sizeof(VecId));
}

Status InvertedIndex::Deserialize(BinaryReader* r, size_t num_columns) {
  uint64_t n = 0;
  PEXESO_RETURN_NOT_OK(r->Read(&n));
  view_offsets_ = nullptr;
  view_postings_ = nullptr;
  view_vec_ids_ = nullptr;
  view_num_cells_ = 0;
  view_num_vec_ids_ = 0;
  cells_.assign(n, {});
  for (auto& c : cells_) PEXESO_RETURN_NOT_OK(r->ReadVector(&c));
  PEXESO_RETURN_NOT_OK(r->ReadVector(&vec_ids_));
  for (const auto& c : cells_) {
    for (size_t i = 0; i < c.size(); ++i) {
      const Posting& p = c[i];
      if (p.column >= num_columns ||
          static_cast<size_t>(p.vec_begin) + p.vec_count > vec_ids_.size()) {
        return Status::Corruption("posting references out-of-range data");
      }
      if (i > 0 && c[i - 1].column >= p.column) {
        return Status::Corruption("postings not strictly ascending by column");
      }
    }
  }
  return Status::OK();
}

}  // namespace pexeso
