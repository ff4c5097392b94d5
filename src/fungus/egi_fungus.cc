#include "fungus/egi_fungus.h"

#include <cassert>
#include <vector>

#include "common/string_util.h"

namespace fungusdb {

EgiFungus::EgiFungus(Params params) : params_(params) {
  assert(params_.seeds_per_tick >= 0.0);
  assert(params_.decay_step > 0.0 && params_.decay_step <= 1.0);
  assert(params_.spread_probability >= 0.0 &&
         params_.spread_probability <= 1.0);
  assert(params_.age_bias >= 1.0);
}

void EgiFungus::BeginTick(const Table& table, Timestamp now) {
  (void)now;
  if (shard_states_.size() != table.num_shards()) {
    shard_states_.assign(table.num_shards(), ShardState{});
  }
}

void EgiFungus::PlanShard(ShardPlanContext& ctx) {
  ShardState& state = shard_states_[ctx.shard_id()];
  state.outbox.clear();
  const Table& table = ctx.table();
  Rng rng(ctx.StreamSeed(params_.rng_seed));

  // Phase 1: seed new infections, age-biased within the shard. The
  // table-wide expected seeding rate is preserved by splitting it evenly
  // across shards (fractional share resolved by Bernoulli draw).
  const uint64_t seeds =
      ShardShare(params_.seeds_per_tick, table.num_shards(), rng);
  for (uint64_t i = 0; i < seeds; ++i) {
    std::optional<RowId> seed =
        SampleLiveRowInShard(ctx.shard(), rng, params_.age_bias);
    if (!seed.has_value()) break;
    if (state.infected.insert(*seed).second) ctx.NoteSeed();
  }

  // Phase 2: spread to direct neighbours along the GLOBAL time axis.
  // Neighbours may belong to another shard, so targets go through the
  // outbox and join their shard's infection set after the barrier —
  // they start decaying next tick.
  if (params_.spread_probability > 0.0) {
    for (RowId row : state.infected) {
      if (rng.NextBernoulli(params_.spread_probability)) {
        const std::optional<RowId> prev = table.PrevLive(row);
        if (prev.has_value()) state.outbox.push_back(*prev);
      }
      if (rng.NextBernoulli(params_.spread_probability)) {
        const std::optional<RowId> next = table.NextLive(row);
        if (next.has_value()) state.outbox.push_back(*next);
      }
    }
  }

  // Phase 3: every infected tuple of this shard decays at equal rate.
  // Rows that died since last tick are skipped here and pruned in
  // FinishTick (planning must not mutate shared state).
  for (RowId row : state.infected) {
    ctx.Decay(row, params_.decay_step);
  }
}

void EgiFungus::FinishTick(const Table& table,
                           const std::vector<RowId>& killed) {
  (void)killed;
  // Prune dead tuples from the infection sets (killed this tick by the
  // applied plans, or earlier by other fungi / consuming queries); the
  // rot boundary lives on in the still-live infected neighbours.
  for (ShardState& state : shard_states_) {
    for (auto it = state.infected.begin(); it != state.infected.end();) {
      if (!table.IsLive(*it)) {
        it = state.infected.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Merge outboxes in shard order — deterministic, and by now all kills
  // are applied, so only still-live targets join the infection front.
  for (ShardState& source : shard_states_) {
    for (RowId target : source.outbox) {
      if (!table.IsLive(target)) continue;
      shard_states_[table.ShardIdOf(target)].infected.insert(target);
    }
    source.outbox.clear();
  }
}

std::set<RowId> EgiFungus::infected() const {
  std::set<RowId> all;
  for (const ShardState& state : shard_states_) {
    all.insert(state.infected.begin(), state.infected.end());
  }
  return all;
}

std::string EgiFungus::Describe() const {
  return "egi(seeds=" + FormatDouble(params_.seeds_per_tick, 2) +
         "/tick, step=" + FormatDouble(params_.decay_step, 3) +
         ", spread=" + FormatDouble(params_.spread_probability, 2) +
         ", age_bias=" + FormatDouble(params_.age_bias, 1) + ")";
}

void EgiFungus::Reset() { shard_states_.clear(); }

}  // namespace fungusdb
