#include "fungus/sliding_window_fungus.h"

#include <cassert>

namespace fungusdb {

SlidingWindowFungus::SlidingWindowFungus(uint64_t max_rows)
    : max_rows_(max_rows) {
  assert(max_rows > 0);
}

void SlidingWindowFungus::BeginTick(const Table& table, Timestamp now) {
  (void)now;
  rank_base_.clear();
  uint64_t live = 0;
  for (const auto& [seg_no, seg] : table.segment_index()) {
    rank_base_[seg_no] = live;
    live += seg->live_count();
  }
  surplus_ = live > max_rows_ ? live - max_rows_ : 0;
  in_window_ = live - surplus_;
}

void SlidingWindowFungus::PlanShard(ShardPlanContext& ctx) {
  for (const auto& [seg_no, seg] : ctx.shard().segments()) {
    if (seg->live_count() == 0) continue;
    uint64_t rank = rank_base_.at(seg_no);  // 0 = oldest live row
    const size_t n = seg->num_rows();
    for (size_t off = 0; off < n; ++off) {
      if (!seg->IsLive(off)) continue;
      const RowId row = seg->first_row() + off;
      if (rank < surplus_) {
        ctx.Kill(row);  // the oldest surplus leaves the window
      } else {
        // Freshness = fraction of the window still ahead of this tuple.
        const uint64_t position = rank - surplus_;  // 0 = oldest in window
        ctx.SetFreshness(row, static_cast<double>(position + 1) /
                                  static_cast<double>(in_window_));
      }
      ++rank;
    }
  }
}

std::string SlidingWindowFungus::Describe() const {
  return "sliding_window(max_rows=" + std::to_string(max_rows_) + ")";
}

}  // namespace fungusdb
