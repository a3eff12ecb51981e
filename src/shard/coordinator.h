#ifndef PEXESO_SHARD_COORDINATOR_H_
#define PEXESO_SHARD_COORDINATOR_H_

#include <cstddef>

#include "core/engine.h"
#include "shard/router.h"

namespace pexeso::shard {

/// Coordinator knobs. Results are byte-identical at every setting — these
/// trade latency/robustness against duplicated work.
struct ShardedOptions {
  /// Straggler re-dispatch: when an attempt has not finished after this
  /// many milliseconds and the shard has an unused replica, a hedged
  /// duplicate is dispatched; the first finisher wins and the loser is
  /// cancelled. 0 = off.
  size_t hedge_after_ms = 0;
  /// Share the global top-k floor across shards (kTopK): each shard's local
  /// k-th best tightens a CAS-max cell pushed to still-running shards, so
  /// they prune against the global k-th best instead of only their own.
  /// Off exists for the bench ablation; results are identical either way.
  bool share_floor = true;
};

/// \brief The scatter-gather coordinator: a JoinSearchEngine that fans one
/// JoinQuery out to every shard of a ShardRouter, streams topk_floor raises
/// between them, and gathers the shard results through the same
/// deterministic merge every other engine uses.
///
/// Robustness: an attempt failing with a transient/environment status
/// (IoError, Corruption, Internal, ResourceExhausted) fails over to the
/// shard's next replica, and so does an attempt that answered OK with part
/// gaps (a replica with an unreadable part). When no replica is left the
/// shard serves its most complete gapped answer, or — no replica answered
/// at all — is served degraded: OnPartStatus for each of its parts, the
/// other shards' results delivered. When every shard is dead the query
/// fails with shard 0's error: the part executor's doctrine
/// (core/part_executor.h) at shard granularity. A request-class failure
/// (InvalidArgument, NotSupported, NotFound) fails the whole query
/// instead: a malformed query must not be masked as a degraded answer.
/// Interruptions (Cancelled / DeadlineExceeded) keep the completed shards'
/// columns as partial results, the first interrupted shard in shard order
/// deciding the final status.
///
/// Determinism: shard results are concatenated in shard order and merged
/// with one FinishQueryMerge, so the output is byte-identical to the
/// single-node partitioned engine at any shard count, replication factor,
/// and kill/straggler schedule (prune counters legitimately vary; columns
/// never do).
class ShardedEngine : public JoinSearchEngine {
 public:
  /// `router` is borrowed and must outlive the engine.
  explicit ShardedEngine(ShardRouter* router, ShardedOptions options = {});

  const char* name() const override { return "sharded"; }

  Status Execute(const JoinQuery& query, ResultSink* sink,
                 SearchStats* stats) const override;

  const ShardRouter* router() const { return router_; }

 private:
  ShardRouter* router_;
  ShardedOptions options_;
};

}  // namespace pexeso::shard

#endif  // PEXESO_SHARD_COORDINATOR_H_
