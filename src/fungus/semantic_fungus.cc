#include "fungus/semantic_fungus.h"

#include <cassert>

#include "common/logging.h"
#include "common/string_util.h"
#include "query/evaluator.h"

namespace fungusdb {

SemanticFungus::SemanticFungus(ExprPtr predicate, Params params)
    : predicate_(std::move(predicate)), params_(params) {
  assert(predicate_ != nullptr);
  assert(params_.matched_step >= 0.0 && params_.matched_step <= 1.0);
  assert(params_.unmatched_step >= 0.0 && params_.unmatched_step <= 1.0);
}

void SemanticFungus::BeginTick(const Table& table, Timestamp now) {
  (void)now;
  if (bound_.has_value() || !bind_status_.ok()) return;
  Result<BoundExpr> bound = Bind(*predicate_, table.schema());
  if (bound.ok() && bound->result_type.has_value() &&
      bound->result_type != DataType::kBool) {
    bound = Status::TypeMismatch("semantic fungus predicate must be boolean");
  }
  if (!bound.ok()) {
    // Permanently broken: logged once, and every later tick is inert.
    bind_status_ = bound.status();
    FUNGUSDB_LOG(Error) << "semantic fungus disabled on table '"
                        << table.name() << "': " << bind_status_.ToString();
    return;
  }
  bound_ = std::move(bound).value();
}

void SemanticFungus::PlanShard(ShardPlanContext& ctx) {
  if (!bound_.has_value()) return;
  const Table& table = ctx.table();
  ctx.shard().ForEachLive([&](RowId row) {
    Result<bool> matched = EvalPredicate(*bound_, table, row);
    const double step = (matched.ok() && *matched)
                            ? params_.matched_step
                            : params_.unmatched_step;
    if (step > 0.0) ctx.Decay(row, step);
  });
}

std::string SemanticFungus::Describe() const {
  return "semantic(" + predicate_->ToString() +
         " ? " + FormatDouble(params_.matched_step, 3) + " : " +
         FormatDouble(params_.unmatched_step, 3) + "/tick)";
}

void SemanticFungus::Reset() {
  bound_.reset();
  bind_status_ = Status::OK();
}

}  // namespace fungusdb
