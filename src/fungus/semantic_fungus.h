#ifndef FUNGUSDB_FUNGUS_SEMANTIC_FUNGUS_H_
#define FUNGUSDB_FUNGUS_SEMANTIC_FUNGUS_H_

#include <optional>
#include <string>

#include "fungus/fungus.h"
#include "query/binder.h"
#include "query/expr.h"

namespace fungusdb {

/// Content-aware decay — the paper's "what to decay" axis taken to its
/// logical end: tuples matching a predicate rot at one rate, everything
/// else at another. Setting matched_step = 0 makes the predicate a
/// preservation order ("keep all FAULT readings"); setting
/// unmatched_step = 0 makes it a targeted purge.
///
/// The predicate is an ordinary query expression (it may reference
/// `__ts` and `__freshness`); it is bound against the table's schema once,
/// in the first tick's serial begin step. Tuples on which the predicate
/// errors or evaluates to null decay at the unmatched rate.
class SemanticFungus : public Fungus {
 public:
  struct Params {
    /// Freshness lost per tick by tuples satisfying the predicate.
    double matched_step = 0.2;

    /// Freshness lost per tick by every other live tuple.
    double unmatched_step = 0.02;
  };

  /// `predicate` must be a boolean expression over the target table's
  /// columns; it is validated lazily at the first tick.
  SemanticFungus(ExprPtr predicate, Params params);

  std::string_view name() const override { return "semantic"; }
  void BeginTick(const Table& table, Timestamp now) override;
  void PlanShard(ShardPlanContext& ctx) override;
  std::string Describe() const override;
  void Reset() override;

  /// Binding failure (unknown column, non-bool predicate) detected on a
  /// previous tick; OK before the first tick and on healthy fungi.
  const Status& bind_status() const { return bind_status_; }

 private:
  ExprPtr predicate_;
  Params params_;
  std::optional<BoundExpr> bound_;
  Status bind_status_;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_FUNGUS_SEMANTIC_FUNGUS_H_
