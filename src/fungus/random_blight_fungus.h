#ifndef FUNGUSDB_FUNGUS_RANDOM_BLIGHT_FUNGUS_H_
#define FUNGUSDB_FUNGUS_RANDOM_BLIGHT_FUNGUS_H_

#include <string>

#include "fungus/fungus.h"

namespace fungusdb {

/// Spotless comparator for EGI: on each tick it decays `tuples_per_tick`
/// uniformly random live tuples by `decay_step`, with no spreading and no
/// age bias. Under this fungus dead tuples are scattered — it produces no
/// contiguous rotting spots, which is exactly what experiment F2 contrasts
/// against the Blue-Cheese pattern of EGI.
///
/// Each shard draws its share (tuples_per_tick / num_shards, fractional
/// part by Bernoulli draw) from its own per-(tick, shard) stream, using
/// EGI's in-shard sampler at age bias 1.0. A tuple picked twice in one
/// tick decays twice.
class RandomBlightFungus : public Fungus {
 public:
  struct Params {
    /// Live tuples decayed per tick.
    uint64_t tuples_per_tick = 16;

    /// Freshness lost by each selected tuple.
    double decay_step = 0.34;

    uint64_t rng_seed = 0xB116887;
  };

  explicit RandomBlightFungus(Params params);

  std::string_view name() const override { return "random_blight"; }
  void PlanShard(ShardPlanContext& ctx) override;
  std::string Describe() const override;

  const Params& params() const { return params_; }

 private:
  Params params_;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_FUNGUS_RANDOM_BLIGHT_FUNGUS_H_
