#ifndef FUNGUSDB_FUNGUS_SLIDING_WINDOW_FUNGUS_H_
#define FUNGUSDB_FUNGUS_SLIDING_WINDOW_FUNGUS_H_

#include <cstdint>
#include <map>
#include <string>

#include "fungus/fungus.h"

namespace fungusdb {

/// Count-based sliding window, the streaming-systems baseline the paper
/// nods to ("fundamental to streaming database systems"): keep only the
/// newest `max_rows` tuples; each tick evicts the oldest surplus.
/// Freshness reflects position in the window (newest = 1.0, about to be
/// evicted = near 0).
///
/// The begin step ranks the live rows along the global time axis (live
/// counts per segment, in segment order), so each shard evicts and
/// re-ranks its own rows with the same arithmetic at any shard count.
class SlidingWindowFungus : public Fungus {
 public:
  explicit SlidingWindowFungus(uint64_t max_rows);

  std::string_view name() const override { return "sliding_window"; }
  void BeginTick(const Table& table, Timestamp now) override;
  void PlanShard(ShardPlanContext& ctx) override;
  std::string Describe() const override;

  uint64_t max_rows() const { return max_rows_; }

 private:
  uint64_t max_rows_;
  // Live rows in all earlier segments, keyed by segment number: the
  // global rank of a segment's first live row this tick.
  std::map<uint64_t, uint64_t> rank_base_;
  uint64_t surplus_ = 0;    // oldest live rows evicted this tick
  uint64_t in_window_ = 0;  // live rows left after the eviction
};

}  // namespace fungusdb

#endif  // FUNGUSDB_FUNGUS_SLIDING_WINDOW_FUNGUS_H_
