#include "fungus/fungus.h"

#include <cassert>
#include <cmath>

namespace fungusdb {

ShardPlanContext::ShardPlanContext(const Table* table, uint32_t shard_id,
                                   Timestamp now, uint64_t tick_index)
    : table_(table),
      shard_id_(shard_id),
      now_(now),
      tick_index_(tick_index) {}

uint64_t ShardPlanContext::StreamSeed(uint64_t base_seed) const {
  return SplitSeed(SplitSeed(base_seed, tick_index_), shard_id_);
}

void ShardPlanContext::Record(RowId row, ShardAction::Op op,
                              double amount) {
  assert(table_->ShardIdOf(row) == shard_id_ &&
         "planned action targets a foreign shard");
  // Rows dead at plan time stay untouched. Liveness is stable during
  // planning — nothing mutates the table until every planner passed the
  // barrier.
  if (!table_->shard(shard_id_).IsLive(row)) return;
  plan_.actions.push_back(ShardAction{row, op, amount});
}

void ShardPlanContext::Decay(RowId row, double delta) {
  Record(row, ShardAction::Op::kDecay, delta);
}

void ShardPlanContext::SetFreshness(RowId row, double f) {
  Record(row, ShardAction::Op::kSet, f);
}

void ShardPlanContext::Kill(RowId row) {
  Record(row, ShardAction::Op::kKill, 0.0);
}

void ShardPlanContext::DecaySegmentUniform(uint64_t seg_no,
                                           const Segment& seg,
                                           double delta) {
  assert(table_->ShardIdOf(seg.first_row()) == shard_id_ &&
         "planned fold targets a foreign shard");
  // Foldability is stable between here and the apply phase: nothing
  // mutates the table until every planner passed the barrier, and the
  // apply worker handles a shard's folds before its row actions.
  if (table_->options().lazy_decay && seg.CanFoldUniformDecay(delta)) {
    plan_.folds.push_back(ShardFold{seg_no, delta});
    return;
  }
  const size_t n = seg.num_rows();
  for (size_t off = 0; off < n; ++off) {
    if (seg.IsLive(off)) Decay(seg.first_row() + off, delta);
  }
}

std::optional<RowId> SampleLiveRowInShard(const Shard& shard, Rng& rng,
                                          double age_bias) {
  const std::optional<RowId> lo = shard.OldestLive();
  const std::optional<RowId> hi = shard.NewestLive();
  if (!lo.has_value()) return std::nullopt;
  const RowId span = *hi - *lo + 1;
  // Row ids are insertion-ordered, so position == age rank; u^bias skews
  // the draw toward 0 (the oldest end). Candidates landing in a gap (a
  // row owned by another shard, or a dead stretch) are rejected, and
  // after 64 misses snapped to the nearest live row of THIS shard.
  RowId candidate = *lo;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const double u = std::pow(rng.NextDouble(), age_bias);
    candidate = *lo + static_cast<RowId>(u * static_cast<double>(span));
    if (candidate > *hi) candidate = *hi;
    if (shard.IsLive(candidate)) return candidate;
  }
  std::optional<RowId> next = shard.NextLiveInShard(candidate);
  if (next.has_value()) return next;
  return shard.PrevLiveInShard(candidate);
}

uint64_t ShardShare(double per_tick, size_t num_shards, Rng& rng) {
  const double expected = per_tick / static_cast<double>(num_shards);
  uint64_t share = static_cast<uint64_t>(expected);
  if (rng.NextBernoulli(expected - static_cast<double>(share))) ++share;
  return share;
}

}  // namespace fungusdb
