#ifndef PEXESO_CORE_PART_EXECUTOR_H_
#define PEXESO_CORE_PART_EXECUTOR_H_

#include <atomic>
#include <cstddef>
#include <vector>

#include "core/engine.h"

namespace pexeso {

/// What one part step of one query produced.
struct PartResult {
  /// OK, an interruption (Cancelled / DeadlineExceeded), or the failure
  /// that kept this part from answering.
  Status status;
  /// The part's answer; valid when `status` is OK.
  PartAnswer answer;
  SearchStats stats;
  double io_seconds = 0.0;
};

/// \brief The one part-scatter executor: the per-part step and the gather
/// every schedule over a PartitionedJoinEngine shares — the serial Execute
/// of each part engine (ExecuteParts below), ServeSession's pool tasks and
/// BatchQueryRunner's partition-major waves.
///
/// Step(part) may run in any order and from any threads (distinct parts
/// concurrently); Gather() runs once after every scheduled step. Parts the
/// schedule never stepped (a serial loop stops at an interruption) count as
/// answered-empty.
///
/// The failure doctrine, owned by Gather:
///  - a failed part degrades the answer: its status goes to
///    ResultSink::OnPartStatus and the other parts are still delivered;
///  - a part that answered incompletely (PartAnswer::gap) delivers its
///    columns and reports the gap the same way;
///  - an interruption returns the completed parts as partial results with
///    the first interrupted part's status (in part order);
///  - when every part failed, the query fails with the first failure and
///    no columns;
///  - any reported part bumps SearchStats::partial_responses once.
/// Columns are concatenated in part order and finished with
/// FinishQueryMerge, so the answer is identical under every schedule.
///
/// kTopK: every step seeds its part search with the max of the running
/// cross-part bound (one TopKBound shared by the query's parts, seeded
/// with JoinQuery::topk_floor) and the linked floor (JoinQuery::floor_link),
/// offers the part's columns to the bound and raises the link to it.
/// Pruning is strict-beat, so this only removes work, never results.
class PartScatter {
 public:
  /// `engine` and `query` are borrowed and must outlive the scatter.
  PartScatter(const PartitionedJoinEngine* engine, const JoinQuery* query);

  PartScatter(const PartScatter&) = delete;
  PartScatter& operator=(const PartScatter&) = delete;

  /// Searches part `part` into its slot. A query already interrupted (its
  /// controls tripped, or a sibling step saw an interruption) is not
  /// searched: the slot records the interruption and deadline_expired.
  /// `preloaded` is an AcquirePart handle of this part, or null.
  void Step(size_t part, const PartHandle& preloaded = nullptr);

  /// Part `part`'s slot. Schedules write it directly only to record a
  /// failure that happened outside Step (a shared load, a thrown task).
  PartResult& slot(size_t part) { return parts_[part]; }

  size_t num_parts() const { return parts_.size(); }

  /// Applies the doctrine above: merges the slots in part order into
  /// `sink` (OnPartStatus..., OnColumn..., OnDone) and returns the final
  /// status. Per-part counters are added to `stats` and IO time to
  /// `io_seconds` (both optional). Moves the columns out of the slots.
  Status Gather(ResultSink* sink, SearchStats* stats,
                double* io_seconds = nullptr);

 private:
  const PartitionedJoinEngine& engine_;
  const JoinQuery& query_;
  TopKBound bound_;
  std::atomic<bool> interrupted_{false};
  std::vector<PartResult> parts_;
};

/// The serial schedule: steps every part in order, stopping at the first
/// interruption, then gathers. The whole Execute of a part engine.
Status ExecuteParts(const PartitionedJoinEngine& engine,
                    const JoinQuery& query, ResultSink* sink,
                    SearchStats* stats);

}  // namespace pexeso

#endif  // PEXESO_CORE_PART_EXECUTOR_H_
