#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "fungus/importance_fungus.h"
#include "fungus/random_blight_fungus.h"
#include "fungus/retention_fungus.h"
#include "fungus/rot_analysis.h"
#include "fungus/scheduler.h"
#include "fungus/sliding_window_fungus.h"

namespace fungusdb {
namespace {

Schema OneColSchema() {
  return Schema::Make({{"v", DataType::kInt64, false}}).value();
}

Table FilledTable(int rows, bool track_access = false) {
  TableOptions opts;
  opts.rows_per_segment = 64;
  opts.track_access = track_access;
  Table t("t", OneColSchema(), opts);
  for (int i = 0; i < rows; ++i) {
    t.Append({Value::Int64(i)}, i).value();
  }
  return t;
}

// --- SlidingWindowFungus ---

TEST(SlidingWindowFungusTest, EnforcesMaxRows) {
  Table t = FilledTable(100);
  SlidingWindowFungus fungus(30);
  RunDecayTick(t, fungus, 0, /*tick_index=*/0, nullptr);
  EXPECT_EQ(t.live_rows(), 30u);
  // The survivors are the newest 30.
  EXPECT_EQ(t.OldestLive().value(), 70u);
}

TEST(SlidingWindowFungusTest, UnderfullWindowUntouched) {
  Table t = FilledTable(10);
  SlidingWindowFungus fungus(30);
  RunDecayTick(t, fungus, 0, /*tick_index=*/0, nullptr);
  EXPECT_EQ(t.live_rows(), 10u);
}

TEST(SlidingWindowFungusTest, FreshnessReflectsWindowPosition) {
  Table t = FilledTable(4);
  SlidingWindowFungus fungus(4);
  RunDecayTick(t, fungus, 0, /*tick_index=*/0, nullptr);
  // Oldest gets 1/4, newest 4/4.
  EXPECT_NEAR(t.Freshness(0), 0.25, 1e-9);
  EXPECT_NEAR(t.Freshness(3), 1.0, 1e-9);
}

TEST(SlidingWindowFungusTest, Describe) {
  SlidingWindowFungus fungus(500);
  EXPECT_EQ(fungus.Describe(), "sliding_window(max_rows=500)");
}

// --- RandomBlightFungus ---

TEST(RandomBlightFungusTest, DecaysRequestedNumberPerTick) {
  Table t = FilledTable(1000);
  RandomBlightFungus::Params p;
  p.tuples_per_tick = 10;
  p.decay_step = 1.0;  // kill on first touch
  RandomBlightFungus fungus(p);
  const DecayTick tick =
      RunDecayTick(t, fungus, 0, /*tick_index=*/0, nullptr);
  // Each pick is distinct-with-high-probability; allow some overlap.
  EXPECT_GE(tick.stats.tuples_killed, 8u);
  EXPECT_LE(tick.stats.tuples_killed, 10u);
}

TEST(RandomBlightFungusTest, ProducesScatteredDeath) {
  Table t = FilledTable(4000);
  RandomBlightFungus::Params p;
  p.tuples_per_tick = 8;
  p.decay_step = 1.0;
  RandomBlightFungus fungus(p);
  for (int tick = 0; tick < 100; ++tick) {
    RunDecayTick(t, fungus, tick, /*tick_index=*/tick, nullptr);
  }
  RotStructure rot = AnalyzeRot(t);
  ASSERT_GT(rot.dead_tuples + rot.reclaimed_tuples, 400u);
  // Scattered: mean spot length stays small (no epidemic clustering).
  EXPECT_LT(rot.mean_spot, 3.0);
}

TEST(RandomBlightFungusTest, DeterministicGivenSeed) {
  RandomBlightFungus::Params p;
  p.tuples_per_tick = 5;
  p.decay_step = 0.5;
  Table t1 = FilledTable(300);
  Table t2 = FilledTable(300);
  RandomBlightFungus f1(p), f2(p);
  for (int tick = 0; tick < 20; ++tick) {
    RunDecayTick(t1, f1, tick, /*tick_index=*/tick, nullptr);
    RunDecayTick(t2, f2, tick, /*tick_index=*/tick, nullptr);
  }
  EXPECT_EQ(t1.LiveRows(), t2.LiveRows());
}

// --- ImportanceFungus ---

TEST(ImportanceFungusTest, UnaccessedTuplesDecayAtBaseRate) {
  Table t = FilledTable(10, /*track_access=*/true);
  ImportanceFungus::Params p;
  p.decay_step = 0.2;
  ImportanceFungus fungus(p);
  RunDecayTick(t, fungus, 0, /*tick_index=*/0, nullptr);
  EXPECT_NEAR(t.Freshness(0), 0.8, 1e-9);
}

TEST(ImportanceFungusTest, AccessedTuplesDecaySlower) {
  Table t = FilledTable(10, /*track_access=*/true);
  for (int i = 0; i < 7; ++i) t.RecordAccess(3);
  ImportanceFungus::Params p;
  p.decay_step = 0.2;
  p.access_weight = 1.0;
  ImportanceFungus fungus(p);
  RunDecayTick(t, fungus, 0, /*tick_index=*/0, nullptr);
  // 7 accesses: protection = 1 + log2(8) = 4 -> decay 0.05.
  EXPECT_NEAR(t.Freshness(3), 0.95, 1e-9);
  EXPECT_NEAR(t.Freshness(0), 0.8, 1e-9);
}

TEST(ImportanceFungusTest, ZeroWeightIgnoresAccesses) {
  Table t = FilledTable(4, /*track_access=*/true);
  t.RecordAccess(1);
  ImportanceFungus::Params p;
  p.decay_step = 0.1;
  p.access_weight = 0.0;
  ImportanceFungus fungus(p);
  RunDecayTick(t, fungus, 0, /*tick_index=*/0, nullptr);
  EXPECT_NEAR(t.Freshness(0), t.Freshness(1), 1e-12);
}

// --- RunDecayTick ---

/// Plans through a caller-supplied function, to drive the tick function
/// with hand-picked actions.
class ScriptedFungus : public Fungus {
 public:
  explicit ScriptedFungus(std::function<void(ShardPlanContext&)> plan)
      : plan_(std::move(plan)) {}
  std::string_view name() const override { return "scripted"; }
  void PlanShard(ShardPlanContext& ctx) override { plan_(ctx); }
  std::string Describe() const override { return "scripted"; }

 private:
  std::function<void(ShardPlanContext&)> plan_;
};

TEST(RunDecayTickTest, TracksKilledRows) {
  Table t = FilledTable(5);
  ScriptedFungus fungus([](ShardPlanContext& ctx) {
    ctx.SetFreshness(4, 0.0);
    ctx.Decay(0, 1.0);
    ctx.Kill(2);
  });
  const DecayTick tick =
      RunDecayTick(t, fungus, 0, /*tick_index=*/0, nullptr);
  EXPECT_EQ(tick.killed, (std::vector<RowId>{0, 2, 4}));  // RowId order
  EXPECT_EQ(tick.stats.tuples_killed, 3u);
  EXPECT_EQ(tick.stats.tuples_touched, 3u);
  EXPECT_EQ(t.live_rows(), 2u);
}

TEST(RunDecayTickTest, IgnoresDeadRows) {
  Table t = FilledTable(2);
  ASSERT_TRUE(t.Kill(0).ok());
  ScriptedFungus fungus([](ShardPlanContext& ctx) {
    ctx.Decay(0, 0.5);
    ctx.Kill(0);
    ctx.SetFreshness(0, 0.5);
  });
  const DecayTick tick =
      RunDecayTick(t, fungus, 0, /*tick_index=*/0, nullptr);
  EXPECT_EQ(tick.stats.tuples_touched, 0u);
  EXPECT_TRUE(tick.killed.empty());
}

TEST(RunDecayTickTest, PartialDecayDoesNotKill) {
  Table t = FilledTable(1);
  ScriptedFungus fungus(
      [](ShardPlanContext& ctx) { ctx.Decay(0, 0.3); });
  const DecayTick tick =
      RunDecayTick(t, fungus, 0, /*tick_index=*/0, nullptr);
  EXPECT_EQ(tick.stats.tuples_touched, 1u);
  EXPECT_EQ(tick.stats.tuples_killed, 0u);
  EXPECT_TRUE(t.IsLive(0));
  EXPECT_NEAR(t.Freshness(0), 0.7, 1e-12);
}

}  // namespace
}  // namespace fungusdb
