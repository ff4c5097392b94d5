#ifndef FUNGUSDB_FUNGUS_RETENTION_FUNGUS_H_
#define FUNGUSDB_FUNGUS_RETENTION_FUNGUS_H_

#include <optional>
#include <string>

#include "fungus/fungus.h"

namespace fungusdb {

/// The paper's "old-fashioned decay function": a fixed retention time.
/// On each tick every tuple older than `retention` is discarded outright.
/// Freshness degrades linearly with age in between, so dashboards can
/// still rank tuples by remaining life.
///
/// Tick shape (what makes lazy decay pay off): a row's first tick sets
/// its freshness from the formula 1 - age/retention. From then on age
/// grows uniformly for every row, so any segment whose rows all predate
/// the previous tick decays by ONE uniform decrement
/// (now - prev_tick) / retention — the foldable shape
/// DecaySegmentUniform turns into an O(1) segment-metadata write when
/// the table runs lazy decay. Accumulated decrements track the formula
/// to within float rounding; a row dies when its freshness reaches 0 or
/// its segment ages past retention wholesale. Both execution modes take
/// identical branches, so outcomes stay bit-identical across them.
///
/// Age-based decay is a pure per-row function of (now, insert time,
/// previous tick time), so shards plan independently with outcomes
/// identical for any shard count.
class RetentionFungus : public Fungus {
 public:
  explicit RetentionFungus(Duration retention);

  std::string_view name() const override { return "retention"; }
  void BeginTick(const Table& table, Timestamp now) override;
  void PlanShard(ShardPlanContext& ctx) override;
  std::string Describe() const override;

  /// Drops the previous-tick marker; the next tick runs formula passes
  /// everywhere, exactly like a freshly attached fungus.
  void Reset() override { last_tick_.reset(); }

  Duration retention() const { return retention_; }

 private:
  Duration retention_;
  /// Time of the last executed tick; nullopt before the first one.
  /// Segments entirely older than this already had their formula pass,
  /// making them candidates for the uniform-decrement branch.
  std::optional<Timestamp> last_tick_;
  /// last_tick_ as of the start of the in-flight tick — what the
  /// (possibly concurrent) planners read.
  std::optional<Timestamp> plan_prev_tick_;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_FUNGUS_RETENTION_FUNGUS_H_
