#include "fungus/importance_fungus.h"

#include <cassert>
#include <cmath>

#include "common/string_util.h"

namespace fungusdb {

ImportanceFungus::ImportanceFungus(Params params) : params_(params) {
  assert(params_.decay_step > 0.0 && params_.decay_step <= 1.0);
  assert(params_.access_weight >= 0.0);
}

void ImportanceFungus::PlanShard(ShardPlanContext& ctx) {
  const Table& table = ctx.table();
  ctx.shard().ForEachLive([&](RowId row) {
    const uint32_t accesses = table.AccessCount(row);
    const double protection =
        1.0 + params_.access_weight * std::log2(1.0 + accesses);
    ctx.Decay(row, params_.decay_step / protection);
  });
}

std::string ImportanceFungus::Describe() const {
  return "importance(step=" + FormatDouble(params_.decay_step, 3) +
         ", access_weight=" + FormatDouble(params_.access_weight, 2) + ")";
}

}  // namespace fungusdb
