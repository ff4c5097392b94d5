#ifndef FUNGUSDB_FUNGUS_IMPORTANCE_FUNGUS_H_
#define FUNGUSDB_FUNGUS_IMPORTANCE_FUNGUS_H_

#include <string>

#include "fungus/fungus.h"

namespace fungusdb {

/// Access-aware decay — the paper's "what to decay" axis. Tuples the
/// workload keeps touching decay slowly; tuples nobody reads rot at the
/// base rate. Per tick, a live tuple with access count `a` loses
///
///     decay_step / (1 + access_weight * log2(1 + a))
///
/// freshness. Requires the table to be created with
/// TableOptions::track_access = true (access counts are bumped by the
/// query engine); without tracking it degrades to uniform linear decay.
class ImportanceFungus : public Fungus {
 public:
  struct Params {
    /// Base freshness lost per tick by a never-accessed tuple.
    double decay_step = 0.05;

    /// How strongly accesses protect a tuple (0 disables protection).
    double access_weight = 1.0;
  };

  explicit ImportanceFungus(Params params);

  std::string_view name() const override { return "importance"; }
  void PlanShard(ShardPlanContext& ctx) override;
  std::string Describe() const override;

  const Params& params() const { return params_; }

 private:
  Params params_;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_FUNGUS_IMPORTANCE_FUNGUS_H_
