#include "shard/coordinator.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"

namespace pexeso::shard {

namespace {

/// Request-class failures: retrying them on a replica would return the
/// same answer (they describe the query, not the node), and degrading
/// would mask a caller bug — they fail the whole query.
bool IsFatalStatus(const Status& s) {
  return s.code() == Status::Code::kInvalidArgument ||
         s.code() == Status::Code::kNotSupported ||
         s.code() == Status::Code::kNotFound;
}

/// What one shard's dispatch loop concluded.
struct ShardResult {
  ShardAttemptOutcome outcome;  ///< valid when won == true
  bool won = false;
  bool fatal = false;
  Status last_error;  ///< the error that exhausted the replicas / was fatal
  uint64_t hedges = 0;
  uint64_t failovers = 0;
  uint64_t attempts = 0;
};

/// Synchronizes one shard's racing replica attempts with its dispatch loop.
struct HedgeState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;  ///< a winner committed its outcome
  ShardAttemptOutcome outcome;
  /// The most complete OK answer that came back with part gaps: used only
  /// when no replica answers whole.
  std::optional<ShardAttemptOutcome> degraded;
  size_t outstanding = 0;
  Status last_error;
  bool fatal = false;
};

}  // namespace

ShardedEngine::ShardedEngine(ShardRouter* router, ShardedOptions options)
    : router_(router), options_(options) {
  PEXESO_CHECK(router != nullptr);
}

Status ShardedEngine::Execute(const JoinQuery& query, ResultSink* sink,
                              SearchStats* stats) const {
  PEXESO_CHECK(query.vectors != nullptr);
  PEXESO_CHECK(sink != nullptr);
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  // Same entry checkpoint as every other engine: a query that is already
  // cancelled or past its deadline must not scatter at all.
  if (const Status live = query.CheckLive(); !live.ok()) {
    ++stats->deadline_expired;
    sink->OnDone(live);
    return live;
  }
  const ShardMap& map = router_->map();
  const size_t num_shards = map.num_shards();

  // The query's shared global floor (kTopK + sharing on). Seeded with any
  // caller-provided floor; shard attempts link it in and the routers move
  // raises between nodes.
  std::shared_ptr<TopKFloorCell> floor;
  if (query.mode == QueryMode::kTopK && options_.share_floor) {
    floor = std::make_shared<TopKFloorCell>(query.topk_floor);
  }

  // Every attempt gets its own CancelToken, registered here so the main
  // thread can propagate the ORIGINAL query's cancellation/deadline to all
  // in-flight attempts (one engine-level token cannot be reused per
  // attempt — hedge losers must be cancellable individually).
  std::mutex live_mu;
  std::vector<CancelToken> live_tokens;
  std::atomic<bool> killed{false};
  auto new_attempt_token = [&]() {
    CancelToken token = CancelToken::Create();
    std::lock_guard<std::mutex> lock(live_mu);
    if (killed.load(std::memory_order_relaxed)) token.Cancel();
    live_tokens.push_back(token);
    return token;
  };

  std::atomic<uint64_t> floor_sent{0};
  std::atomic<uint64_t> floor_received{0};
  std::atomic<uint64_t> bytes_moved{0};

  std::vector<ShardResult> results(num_shards);
  std::atomic<size_t> shards_remaining{num_shards};
  std::mutex done_mu;
  std::condition_variable done_cv;

  // One dispatch loop per shard: launch replica 0, hedge/fail over through
  // the remaining replicas as the schedule demands, commit the first
  // usable outcome.
  auto run_shard = [&](size_t shard) {
    ShardResult& sr = results[shard];
    const size_t replicas = router_->replication(shard);
    size_t next_replica = 0;
    HedgeState hs;
    std::vector<std::thread> attempt_threads;
    std::vector<CancelToken> attempt_tokens;

    auto launch = [&](size_t replica) {
      CancelToken token = new_attempt_token();
      attempt_tokens.push_back(token);
      {
        std::lock_guard<std::mutex> lock(hs.mu);
        ++hs.outstanding;
      }
      ++sr.attempts;
      attempt_threads.emplace_back([&, replica, token] {
        AttemptContext ctx;
        ctx.cancel = token;
        ctx.floor = floor;
        ctx.floor_sent = &floor_sent;
        ctx.floor_received = &floor_received;
        ctx.bytes_moved = &bytes_moved;
        ShardAttemptOutcome out =
            router_->RunAttempt(shard, replica, query, ctx);
        std::lock_guard<std::mutex> lock(hs.mu);
        --hs.outstanding;
        if (hs.done) {
          // A hedge loser finishing after the winner: discarded.
        } else if (out.status.interrupted() ||
                   (out.status.ok() && out.part_statuses.empty())) {
          // First finisher with a whole (or interrupted) outcome wins.
          hs.done = true;
          hs.outcome = std::move(out);
        } else if (out.status.ok()) {
          // Answered with part gaps: counts as a failed attempt for
          // failover, but is kept as the fallback answer.
          if (!hs.degraded ||
              out.part_statuses.size() < hs.degraded->part_statuses.size()) {
            hs.degraded = std::move(out);
          }
        } else {
          hs.last_error = out.status;
          if (IsFatalStatus(out.status)) hs.fatal = true;
        }
        hs.cv.notify_all();
      });
    };

    launch(next_replica++);

    {
      std::unique_lock<std::mutex> lock(hs.mu);
      for (;;) {
        if (hs.done) break;
        if (hs.outstanding == 0) {
          // Every launched attempt failed. Fatal errors and exhausted
          // replica lists end the loop; otherwise fail over.
          if (hs.fatal || next_replica >= replicas) break;
          ++sr.failovers;
          lock.unlock();
          launch(next_replica++);
          lock.lock();
          continue;
        }
        const bool can_hedge = options_.hedge_after_ms > 0 &&
                               next_replica < replicas && !hs.fatal;
        if (can_hedge) {
          const bool finished = hs.cv.wait_for(
              lock, std::chrono::milliseconds(options_.hedge_after_ms),
              [&] { return hs.done || hs.outstanding == 0; });
          if (!finished) {
            // The attempt is straggling: re-dispatch on the next replica
            // and let them race.
            ++sr.hedges;
            lock.unlock();
            launch(next_replica++);
            lock.lock();
          }
        } else {
          hs.cv.wait(lock,
                     [&] { return hs.done || hs.outstanding == 0; });
        }
      }
    }
    // Cancel whatever is still running (hedge losers after a win; stale
    // attempts after a fatal error) and wait for the threads — attempts
    // borrow this frame's state, so they must not outlive it.
    for (const CancelToken& token : attempt_tokens) token.Cancel();
    for (std::thread& t : attempt_threads) t.join();

    if (!hs.done && hs.degraded && !hs.fatal) {
      // No replica answered whole: the best degraded answer serves.
      hs.done = true;
      hs.outcome = std::move(*hs.degraded);
    }
    if (hs.done) {
      sr.won = true;
      sr.outcome = std::move(hs.outcome);
    } else {
      sr.fatal = hs.fatal;
      sr.last_error = hs.last_error.ok()
                          ? Status::Internal("shard produced no outcome")
                          : hs.last_error;
    }
    if (shards_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(done_mu);
      done_cv.notify_all();
    }
  };

  std::vector<std::thread> shard_threads;
  shard_threads.reserve(num_shards);
  for (size_t shard = 0; shard < num_shards; ++shard) {
    shard_threads.emplace_back(run_shard, shard);
  }

  // The gather side: wait for every shard while propagating the original
  // query's cancellation/deadline into the live attempts at checkpoint
  // granularity (the attempts also carry the deadline themselves; this
  // loop just makes an engine-level Cancel() reach them promptly).
  {
    std::unique_lock<std::mutex> lock(done_mu);
    while (shards_remaining.load(std::memory_order_acquire) != 0) {
      done_cv.wait_for(lock, std::chrono::milliseconds(5));
      if (!killed.load(std::memory_order_relaxed) && !query.CheckLive().ok()) {
        std::lock_guard<std::mutex> live_lock(live_mu);
        killed.store(true, std::memory_order_relaxed);
        for (const CancelToken& token : live_tokens) token.Cancel();
      }
    }
  }
  for (std::thread& t : shard_threads) t.join();

  // Request-class failures veto everything (first such shard in shard
  // order), before any column or part status is emitted.
  for (size_t shard = 0; shard < num_shards; ++shard) {
    if (!results[shard].won && results[shard].fatal) {
      const Status st = results[shard].last_error;
      sink->OnDone(st);
      return st;
    }
  }

  // Deterministic gather in shard order: stats, the parts missing from
  // the answer (a dead shard's whole range, a degraded answer's gaps),
  // first interruption, and the concatenated columns for the one canonical
  // merge — the part executor's doctrine at shard granularity.
  std::vector<JoinableColumn> merged;
  std::vector<std::pair<size_t, Status>> gaps;
  Status first_interruption;
  size_t dead_shards = 0;
  for (size_t shard = 0; shard < num_shards; ++shard) {
    ShardResult& sr = results[shard];
    stats->scatters += sr.attempts;
    stats->hedged_requests += sr.hedges;
    stats->failovers += sr.failovers;
    if (!sr.won) {
      ++stats->shards_degraded;
      ++dead_shards;
      for (size_t local = 0; local < map.OwnedCount(shard); ++local) {
        gaps.emplace_back(map.GlobalPart(shard, local), sr.last_error);
      }
      continue;
    }
    // The coordinator's answer counts as one response, partial or not.
    sr.outcome.stats.partial_responses = 0;
    *stats += sr.outcome.stats;
    for (const auto& [local, st] : sr.outcome.part_statuses) {
      gaps.emplace_back(map.GlobalPart(shard, local), st);
    }
    if (sr.outcome.status.interrupted() && first_interruption.ok()) {
      first_interruption = sr.outcome.status;
    }
    merged.insert(merged.end(),
                  std::make_move_iterator(sr.outcome.columns.begin()),
                  std::make_move_iterator(sr.outcome.columns.end()));
  }
  for (const auto& [part, st] : gaps) sink->OnPartStatus(part, st);
  if (!gaps.empty()) ++stats->partial_responses;
  stats->floor_updates_sent += floor_sent.load(std::memory_order_relaxed);
  stats->floor_updates_received +=
      floor_received.load(std::memory_order_relaxed);
  stats->shard_bytes_moved += bytes_moved.load(std::memory_order_relaxed);

  if (dead_shards == num_shards) {
    // No shard answered: a failed query, not a degraded one.
    const Status st = results[0].last_error;
    sink->OnDone(st);
    return st;
  }
  FinishQueryMerge(query, &merged);
  for (auto& jc : merged) sink->OnColumn(std::move(jc));
  sink->OnDone(first_interruption);
  return first_interruption;
}

}  // namespace pexeso::shard
