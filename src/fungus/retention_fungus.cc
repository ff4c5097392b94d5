#include "fungus/retention_fungus.h"

#include <cassert>

namespace fungusdb {
namespace {

/// Plans the decay of one segment under a fixed retention.
///
/// Zone-map skips, cheapest first:
///  * live_count == 0 — nothing left to decay;
///  * frozen-fresh — every row was inserted at or after `now`
///    (min_ts >= now) and every live effective freshness is exactly 1.0
///    (the conservative [min_f, max_f] collapses to [1, 1], and the
///    storage layer never lets freshness exceed 1), so every write this
///    tick would set the value it already has. The EFFECTIVE bounds make
///    this decision identical with lazy decay on or off.
/// When max_ts is at least `retention` old, every row is expired and the
/// segment bulk-kills without computing per-row ages. Otherwise, a
/// segment whose rows all predate `prev_tick` already had its
/// per-row formula pass, and since then every row aged by exactly
/// now - prev_tick — one uniform decrement, the foldable shape.
/// Everything else (first tick, segments with rows newer than the
/// previous tick) takes the formula pass.
void PlanSegment(uint64_t seg_no, const Segment& seg, Timestamp now,
                 Duration retention, std::optional<Timestamp> prev_tick,
                 ShardPlanContext& ctx) {
  if (seg.live_count() == 0) {
    ctx.NoteSegmentSkipped();
    return;
  }
  const ZoneMap& zone = seg.zone_map();
  if (zone.min_ts >= now && seg.EffectiveMinFreshness() == 1.0 &&
      seg.EffectiveMaxFreshness() == 1.0) {
    ctx.NoteSegmentSkipped();
    return;
  }
  const bool all_expired = now - zone.max_ts >= retention;
  if (!all_expired && prev_tick.has_value() && zone.max_ts <= *prev_tick) {
    const double delta = static_cast<double>(now - *prev_tick) /
                         static_cast<double>(retention);
    ctx.DecaySegmentUniform(seg_no, seg, delta);
    return;
  }
  const size_t n = seg.num_rows();
  for (size_t off = 0; off < n; ++off) {
    if (!seg.IsLive(off)) continue;
    const RowId row = seg.first_row() + off;
    if (all_expired) {
      ctx.Kill(row);
      continue;
    }
    const Duration age = now - seg.InsertTime(off);
    if (age >= retention) {
      ctx.Kill(row);
      continue;
    }
    const double f =
        age <= 0 ? 1.0
                 : 1.0 - static_cast<double>(age) /
                             static_cast<double>(retention);
    ctx.SetFreshness(row, f);
  }
}

}  // namespace

RetentionFungus::RetentionFungus(Duration retention) : retention_(retention) {
  assert(retention > 0);
}

void RetentionFungus::BeginTick(const Table& table, Timestamp now) {
  (void)table;
  plan_prev_tick_ = last_tick_;
  last_tick_ = now;
}

void RetentionFungus::PlanShard(ShardPlanContext& ctx) {
  const Timestamp now = ctx.now();
  const Shard& shard = ctx.shard();
  for (const auto& [seg_no, seg] : shard.segments()) {
    PlanSegment(seg_no, *seg, now, retention_, plan_prev_tick_, ctx);
  }
}

std::string RetentionFungus::Describe() const {
  return "retention(" + FormatDuration(retention_) + ")";
}

}  // namespace fungusdb
