#include "core/part_executor.h"

#include <iterator>
#include <utility>

#include "common/check.h"

namespace pexeso {

PartScatter::PartScatter(const PartitionedJoinEngine* engine,
                         const JoinQuery* query)
    : engine_(*engine),
      query_(*query),
      bound_(query->k, query->topk_floor),
      parts_(engine->NumParts()) {
  PEXESO_CHECK(query->vectors != nullptr);
}

void PartScatter::Step(size_t part, const PartHandle& preloaded) {
  PartResult& r = parts_[part];
  r.status = query_.CheckLive();
  if (r.status.ok() && interrupted_.load(std::memory_order_relaxed)) {
    // A sibling saw an interruption the clock/flag no longer reports here;
    // its result will be paired with an interrupted status anyway.
    r.status = Status::Cancelled("query interrupted by sibling part");
  }
  if (!r.status.ok()) {
    ++r.stats.deadline_expired;
    interrupted_.store(true, std::memory_order_relaxed);
    return;
  }
  const bool topk = query_.mode == QueryMode::kTopK;
  JoinQuery part_jq = query_;
  if (topk) {
    part_jq.topk_floor = bound_.bound();
    if (query_.floor_link != nullptr) {
      const uint32_t linked = query_.floor_link->load();
      if (linked > part_jq.topk_floor) {
        part_jq.topk_floor = linked;
        ++r.stats.floor_updates_received;
      }
    }
  }
  auto got = engine_.SearchPart(part, part_jq, &r.stats, &r.io_seconds,
                                preloaded);
  if (!got.ok()) {
    r.status = got.status();
    if (r.status.interrupted()) {
      interrupted_.store(true, std::memory_order_relaxed);
    }
    return;
  }
  r.answer = std::move(got).ValueOrDie();
  if (topk) {
    for (const auto& jc : r.answer.columns) bound_.Offer(jc.match_count);
    if (query_.floor_link != nullptr &&
        query_.floor_link->RaiseTo(bound_.bound())) {
      ++r.stats.floor_updates_sent;
    }
  }
}

Status PartScatter::Gather(ResultSink* sink, SearchStats* stats,
                           double* io_seconds) {
  PEXESO_CHECK(sink != nullptr);
  SearchStats local;
  if (stats == nullptr) stats = &local;
  std::vector<JoinableColumn> merged;
  Status first_interruption;
  Status first_failure;
  size_t failed = 0;
  bool partial = false;
  for (size_t part = 0; part < parts_.size(); ++part) {
    PartResult& r = parts_[part];
    *stats += r.stats;
    if (io_seconds != nullptr) *io_seconds += r.io_seconds;
    if (r.status.interrupted()) {
      if (first_interruption.ok()) first_interruption = r.status;
      continue;
    }
    const Status& reported = r.status.ok() ? r.answer.gap : r.status;
    if (!reported.ok()) {
      sink->OnPartStatus(part, reported);
      partial = true;
    }
    if (!r.status.ok()) {
      if (failed++ == 0) first_failure = r.status;
      continue;
    }
    merged.insert(merged.end(),
                  std::make_move_iterator(r.answer.columns.begin()),
                  std::make_move_iterator(r.answer.columns.end()));
  }
  if (partial) ++stats->partial_responses;
  Status final_st = first_interruption;
  if (failed > 0 && failed == parts_.size()) {
    final_st = first_failure;  // nothing answered: a failed query
  } else {
    FinishQueryMerge(query_, &merged);
    for (auto& jc : merged) sink->OnColumn(std::move(jc));
  }
  sink->OnDone(final_st);
  return final_st;
}

Status ExecuteParts(const PartitionedJoinEngine& engine,
                    const JoinQuery& query, ResultSink* sink,
                    SearchStats* stats) {
  PartScatter scatter(&engine, &query);
  for (size_t part = 0; part < scatter.num_parts(); ++part) {
    scatter.Step(part);
    if (scatter.slot(part).status.interrupted()) break;
  }
  return scatter.Gather(sink, stats);
}

}  // namespace pexeso
