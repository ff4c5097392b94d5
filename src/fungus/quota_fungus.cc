#include "fungus/quota_fungus.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "common/string_util.h"

namespace fungusdb {

QuotaFungus::QuotaFungus(size_t max_bytes) : max_bytes_(max_bytes) {
  assert(max_bytes > 0);
}

void QuotaFungus::BeginTick(const Table& table, Timestamp now) {
  (void)now;
  evict_through_.reset();
  size_t bytes = table.MemoryUsage();
  if (bytes <= max_bytes_) return;
  const std::map<uint64_t, Segment*>& segments = table.segment_index();
  // Full segments already without live rows go with the first reclaim.
  for (const auto& [seg_no, seg] : segments) {
    if (seg->full() && seg->live_count() == 0) bytes -= seg->MemoryUsage();
  }
  // Evict stride by stride, oldest live rows first, until the segments
  // that survive reclamation fit. `it` is the segment the next eviction
  // lands in, `taken` counts its live rows evicted so far and `size` is
  // its footprint (plain once an eviction thawed it).
  const uint64_t stride = table.options().rows_per_segment;
  auto it = segments.begin();
  uint64_t taken = 0;
  size_t size = it == segments.end() ? 0 : it->second->MemoryUsage();
  const Segment* last_seg = nullptr;  // holds the newest evicted row
  uint64_t last_taken = 0;            // live rows evicted from last_seg
  do {
    for (uint64_t left = stride; left > 0 && it != segments.end();) {
      const Segment& seg = *it->second;
      const uint64_t live = seg.live_count();
      const uint64_t take = std::min(left, live - taken);
      if (take > 0) {
        if (taken == 0 && seg.is_frozen()) {
          bytes = bytes - size + seg.frozen().plain_bytes;
          size = seg.frozen().plain_bytes;
        }
        taken += take;
        left -= take;
        last_seg = &seg;
        last_taken = taken;
      }
      if (taken < live) continue;
      if (live > 0 && seg.full()) bytes -= size;
      ++it;
      taken = 0;
      size = it == segments.end() ? 0 : it->second->MemoryUsage();
    }
  } while (it != segments.end() && bytes > max_bytes_);
  if (last_seg == nullptr) return;
  for (size_t off = 0, seen = 0;; ++off) {
    if (last_seg->IsLive(off) && ++seen == last_taken) {
      evict_through_ = last_seg->first_row() + off;
      return;
    }
  }
}

void QuotaFungus::PlanShard(ShardPlanContext& ctx) {
  if (!evict_through_.has_value()) return;
  for (const auto& [seg_no, seg] : ctx.shard().segments()) {
    if (seg->first_row() > *evict_through_) break;
    const size_t n = seg->num_rows();
    for (size_t off = 0; off < n; ++off) {
      const RowId row = seg->first_row() + off;
      if (row > *evict_through_) break;
      if (seg->IsLive(off)) ctx.Kill(row);
    }
  }
}

std::string QuotaFungus::Describe() const {
  return "quota(" + FormatBytes(max_bytes_) + ")";
}

}  // namespace fungusdb
