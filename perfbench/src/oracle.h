// The benchmark's answer checker: a brute-force scalar oracle that shares no
// code with the program under test (no kernels, metric classes or index),
// and the rules an answer must satisfy against it.
//
// Distances are computed in double precision. A pair whose distance lies
// within `band` of tau may count either way, so every column gets a range
// [lo, hi] of acceptable match counts rather than one number.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/join_result.h"

namespace perfbench {

enum class Distance { kL2, kCosine };

/// One live column as the oracle sees it.
struct OracleColumn {
  uint32_t id = 0;            ///< global column id the program reports
  const float* data = nullptr;  ///< count x dim, row-major
  uint32_t count = 0;
  /// First vector id of this column inside the snapshot that holds it; a
  /// mapping pair's target must fall in [local_first, local_first + count).
  uint32_t local_first = 0;
};

struct CountRange {
  uint32_t lo = 0;  ///< records with a pair surely within tau
  uint32_t hi = 0;  ///< records with a pair within tau + band
};

/// What the answer to one query must look like.
struct Expectation {
  bool topk = false;
  size_t k = 0;        ///< topk only
  uint32_t t_abs = 1;  ///< threshold only
  /// Threshold mode with mappings: counts are exact and every matched
  /// record carries one pair. Without mappings a joinable column's count
  /// may stop anywhere in [t_abs, hi] (early termination).
  bool mappings = false;
};

class Oracle {
 public:
  /// `columns` (and the vectors they point at) must outlive the oracle.
  Oracle(uint32_t dim, Distance distance, double tau, double band,
         const std::vector<OracleColumn>* columns);

  double Dist(const float* a, const float* b) const;

  /// Exact match-count ranges of query `q` (nq x dim) against every column.
  std::vector<CountRange> Count(const float* q, size_t nq) const;

  /// Empty when `got` is a correct answer to query `q`; otherwise the first
  /// rule it breaks.
  std::string Check(const float* q, size_t nq,
                    const std::vector<CountRange>& counts,
                    const Expectation& expect,
                    const std::vector<pexeso::JoinableColumn>& got) const;

 private:
  /// Squared distance (cosine: 2 - 2 cos), norms supplied.
  double Sq(const float* a, double na, const float* b, double nb) const;

  uint32_t dim_;
  Distance distance_;
  double tau_;
  double band_;
  const std::vector<OracleColumn>* columns_;
  std::vector<std::vector<double>> norms_;  ///< per column, per vector
};

/// The checker's own test: corrupts correct answers four ways (a dropped
/// column, an added column, a count off by one, a mapping pair beyond tau)
/// on a small fixed lake and returns the cases the checker failed to catch.
/// Empty means every corruption was caught and the true answers passed.
std::vector<std::string> CheckerSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
