#ifndef FUNGUSDB_FUNGUS_FUNGUS_H_
#define FUNGUSDB_FUNGUS_FUNGUS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "storage/table.h"

namespace fungusdb {

/// Outcome of one fungus application (one clock tick).
struct DecayStats {
  uint64_t tuples_touched = 0;    // freshness updates applied (folds
                                  // count their covered live rows — the
                                  // tick logically decayed them)
  uint64_t tuples_killed = 0;     // tuples whose freshness reached 0
  uint64_t seeds_planted = 0;     // new infections (EGI-style fungi)
  uint64_t segments_skipped = 0;  // segments bypassed via zone maps
  uint64_t segments_folded = 0;   // uniform decays folded as pending
                                  // decrements instead of row rewrites
  uint64_t rows_materialized = 0; // deferred decrements later applied
                                  // to rows (the lazy path's true cost;
                                  // filled in by the scheduler)

  DecayStats& operator+=(const DecayStats& other) {
    tuples_touched += other.tuples_touched;
    tuples_killed += other.tuples_killed;
    seeds_planted += other.seeds_planted;
    segments_skipped += other.segments_skipped;
    segments_folded += other.segments_folded;
    rows_materialized += other.rows_materialized;
    return *this;
  }
};

/// One planned freshness action against a row of a single shard,
/// recorded during the read-only planning phase of a parallel tick and
/// applied by the scheduler after the barrier.
struct ShardAction {
  enum class Op : uint8_t { kDecay, kSet, kKill };

  RowId row = 0;
  Op op = Op::kDecay;
  double amount = 0.0;  // delta for kDecay, target freshness for kSet
};

/// One planned segment-uniform decrement (lazy decay): the whole
/// segment proved foldable at plan time, so the apply worker records a
/// pending decrement instead of row writes.
struct ShardFold {
  uint64_t seg_no = 0;
  double delta = 0.0;
};

/// Everything one shard's planner produced for one tick.
struct ShardPlan {
  std::vector<ShardAction> actions;  // own-shard rows, in plan order
  std::vector<ShardFold> folds;      // own-shard segments, in plan order
  uint64_t seeds_planted = 0;
  uint64_t segments_skipped = 0;  // segments bypassed via zone maps
};

/// Planning context for one (tick, shard) pair of a decay tick.
///
/// Every tick is a strict two-phase protocol, at any shard count: during
/// planning the whole table is frozen — PlanShard may *read* any shard
/// (so EGI can look across shard boundaries for time-axis neighbours)
/// but records mutations here instead of applying them, and may only
/// target rows of its own shard (cross-shard effects go through
/// fungus-private state merged in FinishTick). After a barrier the tick
/// applies every shard's plan with one worker per shard, so writes are
/// disjoint and outcomes are independent of thread count by
/// construction. A 1-shard table is simply one plan.
class ShardPlanContext {
 public:
  ShardPlanContext(const Table* table, uint32_t shard_id, Timestamp now,
                   uint64_t tick_index);

  const Table& table() const { return *table_; }
  const Shard& shard() const { return table_->shard(shard_id_); }
  uint32_t shard_id() const { return shard_id_; }
  Timestamp now() const { return now_; }

  /// Ticks this attachment has executed before this one; combined with
  /// the shard id it identifies the RNG stream.
  uint64_t tick_index() const { return tick_index_; }

  /// Deterministic per-(tick, shard) stream seed derived from the
  /// fungus's own base seed: SplitSeed(SplitSeed(base, tick), shard).
  uint64_t StreamSeed(uint64_t base_seed) const;

  /// Plans a freshness decrease by `delta` >= 0 (dies at 0).
  /// Ignores rows that are dead at plan time; a row killed by an earlier
  /// action of the same plan is skipped at apply time. `row` must belong
  /// to this shard.
  void Decay(RowId row, double delta);

  /// Plans setting freshness outright (clamped to [0, 1]; 0 kills).
  void SetFreshness(RowId row, double f);

  /// Plans an immediate kill.
  void Kill(RowId row);

  /// Plans a uniform decrement over every live row of segment `seg_no`
  /// (which must belong to this shard). Folds when the table allows it,
  /// otherwise expands into per-row Decay actions — the apply phase
  /// then produces bit-identical state either way (DESIGN.md §14). A
  /// fungus must not mix this with per-row ops against the same segment
  /// in one tick.
  void DecaySegmentUniform(uint64_t seg_no, const Segment& seg,
                           double delta);

  /// Records a seed planted (bookkeeping only).
  void NoteSeed() { ++plan_.seeds_planted; }

  /// Records one segment bypassed whole because its zone map proved the
  /// tick cannot change it (bookkeeping only).
  void NoteSegmentSkipped() { ++plan_.segments_skipped; }

  ShardPlan TakePlan() { return std::move(plan_); }

 private:
  void Record(RowId row, ShardAction::Op op, double amount);

  const Table* table_;
  uint32_t shard_id_;
  Timestamp now_;
  uint64_t tick_index_;
  ShardPlan plan_;
};

/// Age-biased draw of one live row of `shard`: a position u^age_bias
/// scaled over the shard's live row-id range (age_bias >= 1; 1.0 is
/// uniform, larger values favour older rows), rejection-sampled onto a
/// live row of this shard and snapped to the nearest one after 64
/// misses. nullopt when the shard has no live row.
std::optional<RowId> SampleLiveRowInShard(const Shard& shard, Rng& rng,
                                          double age_bias);

/// One shard's share of `per_tick` (>= 0) table-wide events, e.g. EGI
/// seeds: per_tick / num_shards, whose fractional part becomes one more
/// event with that probability (one Bernoulli draw from `rng`).
uint64_t ShardShare(double per_tick, size_t num_shards, Rng& rng);

/// A data fungus: the decay operator applied to a relation on each tick
/// of the periodic clock `T` (the paper's first natural law). A fungus
/// decides *what* to decay, *how*, and at what *rate*; the Table enforces
/// that freshness only moves downward through fungi and that tuples are
/// discarded exactly when freshness reaches zero.
///
/// A fungus never writes to the table. Each tick (RunDecayTick in
/// fungus/scheduler.h) calls BeginTick (serial), then PlanShard once per
/// shard (possibly concurrently), applies the recorded plans (one worker
/// per shard), and ends with FinishTick (serial, receiving the tick's
/// merged death list in insertion order). PlanShard must be read-only
/// apart from the context and state keyed by its own shard id; any RNG
/// use must flow through streams derived from
/// ShardPlanContext::StreamSeed so outcomes depend only on the
/// (seed, tick, shard) triple, never on thread scheduling.
///
/// Implementations may keep per-table state (e.g. EGI's infection set)
/// but must tolerate tuples dying or being reclaimed between ticks.
class Fungus {
 public:
  virtual ~Fungus() = default;

  Fungus(const Fungus&) = delete;
  Fungus& operator=(const Fungus&) = delete;

  /// Stable identifier, e.g. "egi", "retention".
  virtual std::string_view name() const = 0;

  /// Serial prologue: compute whole-tick values, size per-shard state.
  virtual void BeginTick(const Table& table, Timestamp now) {
    (void)table;
    (void)now;
  }

  /// Plans one shard's share of the tick (see class comment above).
  virtual void PlanShard(ShardPlanContext& ctx) = 0;

  /// Serial epilogue after all plans were applied; `killed` holds every
  /// row that died this tick, sorted by RowId (== insertion order).
  virtual void FinishTick(const Table& table,
                          const std::vector<RowId>& killed) {
    (void)table;
    (void)killed;
  }

  /// Human-readable parameterization, e.g. "retention(7d)".
  virtual std::string Describe() const = 0;

  /// Drops any per-table state (used when a table is rebuilt).
  virtual void Reset() {}

 protected:
  Fungus() = default;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_FUNGUS_FUNGUS_H_
