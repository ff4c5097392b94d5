#include "fungus/exponential_fungus.h"

#include <cassert>
#include <cmath>

#include "common/string_util.h"

namespace fungusdb {

ExponentialFungus::ExponentialFungus(Params params)
    : params_(params), last_tick_(params.start_time) {
  assert(params_.lambda_per_second > 0.0);
  assert(params_.kill_threshold >= 0.0 && params_.kill_threshold < 1.0);
}

ExponentialFungus::Params ExponentialFungus::FromHalfLife(
    Duration half_life, Timestamp start_time) {
  assert(half_life > 0);
  Params p;
  p.lambda_per_second =
      std::log(2.0) / (static_cast<double>(half_life) / kSecond);
  p.start_time = start_time;
  return p;
}

void ExponentialFungus::BeginTick(const Table& table, Timestamp now) {
  (void)table;
  const double dt_seconds =
      static_cast<double>(now - last_tick_) / static_cast<double>(kSecond);
  last_tick_ = now;
  tick_factor_ = dt_seconds <= 0.0
                     ? 1.0
                     : std::exp(-params_.lambda_per_second * dt_seconds);
}

void ExponentialFungus::PlanShard(ShardPlanContext& ctx) {
  if (tick_factor_ >= 1.0) return;
  const Shard& shard = ctx.shard();
  for (const auto& [seg_no, seg] : shard.segments()) {
    if (seg->live_count() == 0) continue;
    const size_t n = seg->num_rows();
    for (size_t off = 0; off < n; ++off) {
      if (!seg->IsLive(off)) continue;
      const double f = seg->Freshness(off) * tick_factor_;
      ctx.SetFreshness(seg->first_row() + off,
                       f <= params_.kill_threshold ? 0.0 : f);
    }
  }
}

std::string ExponentialFungus::Describe() const {
  return "exponential(lambda=" + FormatDouble(params_.lambda_per_second, 6) +
         "/s, kill<=" + FormatDouble(params_.kill_threshold, 3) + ")";
}

void ExponentialFungus::Reset() { last_tick_ = params_.start_time; }

}  // namespace fungusdb
