#ifndef FUNGUSDB_FUNGUS_QUOTA_FUNGUS_H_
#define FUNGUSDB_FUNGUS_QUOTA_FUNGUS_H_

#include <optional>
#include <string>

#include "fungus/fungus.h"

namespace fungusdb {

/// A hard fridge-size cap: when the table's heap footprint exceeds
/// `max_bytes`, the oldest tuples are evicted (and their segments
/// reclaimed) until the footprint fits again. The paper's chess-board
/// lesson applied literally — the fridge simply refuses to grow.
///
/// Memory is reclaimed at segment granularity, so the fungus evicts in
/// whole strides of `rows_per_segment` live rows from the old end of the
/// time axis. The begin step walks the pre-tick segments oldest-first
/// and picks the fewest strides after which the remaining segments fit
/// the quota: a full segment left without live rows is reclaimed, and
/// a partly evicted frozen segment counts at its plain size, since the
/// kill thaws it. The evicted rows die through the normal plan/apply
/// path — death observers cook them before the scheduler reclaims their
/// segments — so the footprint lands at or below the quota after the
/// tick.
class QuotaFungus : public Fungus {
 public:
  explicit QuotaFungus(size_t max_bytes);

  std::string_view name() const override { return "quota"; }
  void BeginTick(const Table& table, Timestamp now) override;
  void PlanShard(ShardPlanContext& ctx) override;
  std::string Describe() const override;

  size_t max_bytes() const { return max_bytes_; }

 private:
  size_t max_bytes_;
  /// Newest row evicted this tick; every live row up to it dies.
  std::optional<RowId> evict_through_;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_FUNGUS_QUOTA_FUNGUS_H_
