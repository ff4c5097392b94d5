#ifndef FUNGUSDB_FUNGUS_EGI_FUNGUS_H_
#define FUNGUSDB_FUNGUS_EGI_FUNGUS_H_

#include <set>
#include <string>
#include <vector>

#include "fungus/fungus.h"

namespace fungusdb {

/// EGI — "Evict Grouped Individuals", the fungus defined in the paper.
/// At each clock tick:
///
///   1. *Seed.* Select live tuples with probability biased by age
///      (the paper: "inversely randomly correlated with its age" — old
///      tuples are more likely to be picked; decay starts where data is
///      stale) and infect them.
///   2. *Spread & decay.* Every infected tuple loses `decay_step`
///      freshness, and infects its direct live neighbours along the time
///      axis (previous/next row in insertion order) with probability
///      `spread_probability`, "at equal rate".
///
/// An infected region therefore grows bidirectionally while its interior
/// dies — contiguous "rotting spots", the Blue-Cheese effect. Once a
/// whole segment (insertion range) has died the table reclaims it.
class EgiFungus : public Fungus {
 public:
  struct Params {
    /// Expected new infections per tick (fractional part is Bernoulli).
    double seeds_per_tick = 1.0;

    /// Freshness lost per tick by each infected tuple.
    double decay_step = 0.1;

    /// Probability that an infected tuple infects each direct live
    /// neighbour on a given tick (1.0 = deterministic bidirectional
    /// growth, 0.0 = no spreading — isolated pinpricks).
    double spread_probability = 1.0;

    /// Age bias exponent for seeding, >= 1. Seed position is drawn as
    /// u^age_bias scaled over the live row-id range, so larger values
    /// concentrate seeds on older tuples; 1.0 is uniform.
    double age_bias = 2.0;

    /// PRNG seed; EGI runs are fully deterministic given this.
    uint64_t rng_seed = 0xE61FA57;
  };

  explicit EgiFungus(Params params);

  std::string_view name() const override { return "egi"; }
  std::string Describe() const override;
  void Reset() override;

  // Each shard keeps its own infection set and plans with an RNG stream
  // derived from (rng_seed, tick, shard), so outcomes depend on the
  // shard count but never on the thread count. Seeding draws an
  // age-biased position within the shard's own slice of the time axis
  // (shards interleave segments, so every shard sees the full age
  // spectrum); expected seeds per shard are seeds_per_tick / num_shards.
  // Spread looks up direct time-axis neighbours through the *global*
  // table — safe because planning is read-only — and routes every spread
  // target (own-shard or foreign) through a per-shard outbox that
  // FinishTick merges after the barrier, so neighbour infection crosses
  // shard boundaries and newly spread-to tuples start decaying on the
  // next tick.
  void BeginTick(const Table& table, Timestamp now) override;
  void PlanShard(ShardPlanContext& ctx) override;
  void FinishTick(const Table& table,
                  const std::vector<RowId>& killed) override;

  const Params& params() const { return params_; }

  /// Currently infected, still-live tuples across all shards (exposed
  /// for tests and the blue-cheese visualizer).
  std::set<RowId> infected() const;

 private:
  /// Per-shard infection bookkeeping.
  struct ShardState {
    std::set<RowId> infected;
    // Spread targets discovered while planning (any shard's rows);
    // merged into the owning shards' infection sets after the barrier.
    std::vector<RowId> outbox;
  };

  Params params_;
  std::vector<ShardState> shard_states_;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_FUNGUS_EGI_FUNGUS_H_
