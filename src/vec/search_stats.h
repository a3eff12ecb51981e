#ifndef PEXESO_VEC_SEARCH_STATS_H_
#define PEXESO_VEC_SEARCH_STATS_H_

#include <algorithm>
#include <cstdint>

namespace pexeso {

/// \brief Instrumentation counters shared by every searcher. Figure 6a of
/// the paper compares the number of exact distance computations per method;
/// each searcher fills these in so the benchmark can reproduce that figure.
struct SearchStats {
  /// Exact d(.,.) evaluations in the original (embedding) space. The tiled
  /// verification pipeline counts every tile slot it evaluates (a tile may
  /// cover slots the per-pair scan would have skipped after an early match);
  /// the count is deterministic for a given (query, options) at any thread
  /// count, but not comparable pair-for-pair with the pre-pipeline scan.
  uint64_t distance_computations = 0;
  /// Of those, evaluations answered in the squared-distance comparison
  /// space (kernel shortcut): the inequality against tau^2 saved the
  /// per-pair sqrt that a full distance would have cost.
  uint64_t sqrt_free_comparisons = 0;
  /// Vector pairs ruled out by Lemma 1 (pivot filtering) during verification.
  uint64_t lemma1_filtered = 0;
  /// Vector pairs confirmed by Lemma 2 (pivot matching) without distance.
  uint64_t lemma2_matched = 0;
  /// Cell pairs pruned by Lemmas 3/4 during blocking.
  uint64_t cells_filtered = 0;
  /// Cell pairs fully matched by Lemmas 5/6 during blocking.
  uint64_t cells_matched = 0;
  /// Candidate (query vector, leaf cell) pairs emitted by blocking.
  uint64_t candidate_pairs = 0;
  /// Matching (query vector, leaf cell) pairs emitted by blocking.
  uint64_t matching_pairs = 0;
  /// Columns skipped by the Lemma 7 early-termination rule.
  uint64_t lemma7_kills = 0;
  /// Columns confirmed joinable before exhausting their candidates.
  uint64_t early_joinable = 0;
  /// (query record, column) pairs emitted by stage 1 of the verification
  /// pipeline (candidate generation).
  uint64_t candidate_blocks = 0;
  /// Many-to-many kernel tiles dispatched by stage 2 (tiled verification).
  /// Tile shapes depend only on the candidate set and the search options,
  /// never on the shard layout, so the count is identical at any
  /// intra-query thread count.
  uint64_t tiles_evaluated = 0;
  /// Retired: counted float tile slots the int8 pre-filter tier skipped.
  /// That tier is gone, so this always reads 0. The field stays because
  /// DONE frames carry sizeof(SearchStats) and the decoder rejects any
  /// other size; dropping it would break a coordinator and a shard built
  /// from adjacent releases.
  uint64_t quant_tile_skips = 0;
  /// Largest number of candidate blocks any one verification shard owned —
  /// a shard-imbalance diagnostic. Unlike every other counter this merges
  /// by MAX (a sum would be meaningless across shards/queries) and it
  /// naturally varies with intra_query_threads.
  uint64_t shard_max_blocks = 0;
  /// Columns abandoned by the kTopK pushdown because they provably could
  /// not beat the running k-th-best joinability bound. The bound evolves
  /// with execution order, so unlike the pipeline counters above this one
  /// legitimately varies with the intra-query thread count (results never
  /// do — a pruned column is outside the top-k under any schedule).
  uint64_t columns_pruned_topk = 0;
  /// Checkpoints at which a search stage stopped because the query's
  /// deadline had passed or its CancelToken fired (engine entry, shard
  /// column loops, per-partition and per-part-task checks all count one
  /// each when they trip).
  uint64_t deadline_expired = 0;
  /// Columns searched in live-lake delta indexes (appended-but-unmerged
  /// data) rather than base snapshots — how much of the answer came from
  /// fresh ingest.
  uint64_t delta_columns_searched = 0;
  /// Result columns removed by tombstone masking (dropped columns still
  /// present in a base/delta snapshot awaiting merge).
  uint64_t tombstones_masked = 0;
  /// Transient-IO retries taken while loading base snapshots for this
  /// search (each backoff-then-retry counts one; a search that needed none
  /// reads 0).
  uint64_t io_retries = 0;
  /// Snapshot loads that failed with Corruption during this search — bad
  /// bytes detected by the CRC/bounds checks, not environment flakiness.
  uint64_t corruption_detected = 0;
  /// Quarantined parts this search encountered (served from deltas only;
  /// their base was moved aside by recovery or fsck).
  uint64_t parts_quarantined = 0;
  /// Degraded parts this search encountered (merge retries exhausted; the
  /// part keeps serving its base+deltas while parked).
  uint64_t degraded_merges = 0;
  /// Queries answered with results known to be partial: some part failed
  /// to load or was quarantined, its error was surfaced per-part, and the
  /// rest of the answer was returned anyway.
  uint64_t partial_responses = 0;
  /// Shard attempts dispatched by a scatter-gather coordinator (initial
  /// scatters plus failover retries plus hedged duplicates all count one
  /// each) — total remote/virtual work fanned out, not queries.
  uint64_t scatters = 0;
  /// Cross-shard topk_floor raises published: a local k-th-best raised the
  /// shared global floor cell (on a shard: publishes into its floor link;
  /// on a coordinator's remote router: floor-update frames pushed to
  /// still-running shards). Like columns_pruned_topk this legitimately
  /// varies with scheduling; results never do.
  uint64_t floor_updates_sent = 0;
  /// Cross-shard topk_floor raises adopted: a part/attempt seeded its local
  /// bound from a global floor value above what it knew locally (on the
  /// coordinator's remote router: floor-update frames received from shards).
  uint64_t floor_updates_received = 0;
  /// Hedged (straggler re-dispatch) attempts: a replica was dispatched as a
  /// duplicate because the primary attempt exceeded the hedge latency
  /// threshold; first finisher wins and the loser is cancelled.
  uint64_t hedged_requests = 0;
  /// Failovers: a shard attempt failed with a transient/internal error and
  /// the coordinator retried the shard on the next replica.
  uint64_t failovers = 0;
  /// Shards with no healthy replica left: their parts were surfaced as
  /// per-part errors via OnPartStatus and the answer returned degraded.
  uint64_t shards_degraded = 0;
  /// Wire bytes the coordinator's remote attempts moved (sent + received
  /// across all shard connections of the queries summed here; 0 for
  /// virtual/in-process shards).
  uint64_t shard_bytes_moved = 0;
  /// Wall-clock split (seconds) of the two search phases.
  double block_seconds = 0.0;
  double verify_seconds = 0.0;

  void Reset() { *this = SearchStats{}; }

  SearchStats& operator+=(const SearchStats& o) {
    distance_computations += o.distance_computations;
    sqrt_free_comparisons += o.sqrt_free_comparisons;
    lemma1_filtered += o.lemma1_filtered;
    lemma2_matched += o.lemma2_matched;
    cells_filtered += o.cells_filtered;
    cells_matched += o.cells_matched;
    candidate_pairs += o.candidate_pairs;
    matching_pairs += o.matching_pairs;
    lemma7_kills += o.lemma7_kills;
    early_joinable += o.early_joinable;
    candidate_blocks += o.candidate_blocks;
    tiles_evaluated += o.tiles_evaluated;
    quant_tile_skips += o.quant_tile_skips;
    shard_max_blocks = std::max(shard_max_blocks, o.shard_max_blocks);
    columns_pruned_topk += o.columns_pruned_topk;
    deadline_expired += o.deadline_expired;
    delta_columns_searched += o.delta_columns_searched;
    tombstones_masked += o.tombstones_masked;
    io_retries += o.io_retries;
    corruption_detected += o.corruption_detected;
    parts_quarantined += o.parts_quarantined;
    degraded_merges += o.degraded_merges;
    partial_responses += o.partial_responses;
    scatters += o.scatters;
    floor_updates_sent += o.floor_updates_sent;
    floor_updates_received += o.floor_updates_received;
    hedged_requests += o.hedged_requests;
    failovers += o.failovers;
    shards_degraded += o.shards_degraded;
    shard_bytes_moved += o.shard_bytes_moved;
    block_seconds += o.block_seconds;
    verify_seconds += o.verify_seconds;
    return *this;
  }
};

}  // namespace pexeso

#endif  // PEXESO_VEC_SEARCH_STATS_H_
