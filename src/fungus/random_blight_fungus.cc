#include "fungus/random_blight_fungus.h"

#include <cassert>

#include "common/string_util.h"

namespace fungusdb {

RandomBlightFungus::RandomBlightFungus(Params params) : params_(params) {
  assert(params_.decay_step > 0.0 && params_.decay_step <= 1.0);
}

void RandomBlightFungus::PlanShard(ShardPlanContext& ctx) {
  Rng rng(ctx.StreamSeed(params_.rng_seed));
  const uint64_t picks =
      ShardShare(static_cast<double>(params_.tuples_per_tick),
                 ctx.table().num_shards(), rng);
  for (uint64_t i = 0; i < picks; ++i) {
    const std::optional<RowId> pick =
        SampleLiveRowInShard(ctx.shard(), rng, /*age_bias=*/1.0);
    if (!pick.has_value()) return;
    ctx.Decay(*pick, params_.decay_step);
  }
}

std::string RandomBlightFungus::Describe() const {
  return "random_blight(n=" + std::to_string(params_.tuples_per_tick) +
         "/tick, step=" + FormatDouble(params_.decay_step, 3) + ")";
}

}  // namespace fungusdb
