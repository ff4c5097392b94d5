#include "fungus/retention_fungus.h"

#include <gtest/gtest.h>

#include "fungus/scheduler.h"

namespace fungusdb {
namespace {

Schema OneColSchema() {
  return Schema::Make({{"v", DataType::kInt64, false}}).value();
}

TEST(RetentionFungusTest, KillsTuplesPastRetention) {
  Table t("t", OneColSchema());
  // Rows inserted at t=0, 1h, 2h.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(t.Append({Value::Int64(i)}, i * kHour).ok());
  }
  RetentionFungus fungus(/*retention=*/90 * kMinute);
  const DecayTick tick =
      RunDecayTick(t, fungus, 2 * kHour, /*tick_index=*/0, nullptr);
  // Row 0 is 2h old (>= 90m): dead. Row 1 is 1h old: alive. Row 2: fresh.
  EXPECT_FALSE(t.IsLive(0));
  EXPECT_TRUE(t.IsLive(1));
  EXPECT_TRUE(t.IsLive(2));
  EXPECT_EQ(tick.stats.tuples_killed, 1u);
}

TEST(RetentionFungusTest, FreshnessIsRemainingLifeFraction) {
  Table t("t", OneColSchema());
  ASSERT_TRUE(t.Append({Value::Int64(0)}, 0).ok());
  RetentionFungus fungus(10 * kSecond);
  RunDecayTick(t, fungus, 4 * kSecond, /*tick_index=*/0, nullptr);
  EXPECT_NEAR(t.Freshness(0), 0.6, 1e-9);
}

TEST(RetentionFungusTest, BrandNewTupleStaysFullyFresh) {
  Table t("t", OneColSchema());
  ASSERT_TRUE(t.Append({Value::Int64(0)}, 100).ok());
  RetentionFungus fungus(kMinute);
  RunDecayTick(t, fungus, 100, /*tick_index=*/0, nullptr);
  EXPECT_DOUBLE_EQ(t.Freshness(0), 1.0);
}

TEST(RetentionFungusTest, EventuallyEmptiesTheTable) {
  // The paper: decay proceeds "until it has been completely disappeared".
  Table t("t", OneColSchema());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(t.Append({Value::Int64(i)}, i * kSecond).ok());
  }
  RetentionFungus fungus(10 * kSecond);
  RunDecayTick(t, fungus, 1000 * kSecond, /*tick_index=*/0, nullptr);
  EXPECT_EQ(t.live_rows(), 0u);
}

TEST(RetentionFungusTest, Describe) {
  RetentionFungus fungus(7 * kDay);
  EXPECT_EQ(fungus.Describe(), "retention(7d)");
  EXPECT_EQ(fungus.name(), "retention");
}

TEST(RetentionFungusTest, TickOnEmptyTableIsHarmless) {
  Table t("t", OneColSchema());
  RetentionFungus fungus(kDay);
  const DecayTick tick =
      RunDecayTick(t, fungus, kDay, /*tick_index=*/0, nullptr);
  EXPECT_EQ(tick.stats.tuples_killed, 0u);
}

TEST(RetentionFungusTest, SkipsFullyDeadSegmentsViaZoneMap) {
  TableOptions opts;
  opts.rows_per_segment = 4;
  Table t("t", OneColSchema(), opts);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(t.Append({Value::Int64(i)}, /*now=*/0).ok());
  }
  for (RowId r = 0; r < 4; ++r) {
    ASSERT_TRUE(t.Kill(r).ok());  // segment 0 fully dead
  }
  RetentionFungus fungus(/*retention=*/kHour);
  const DecayTick tick =
      RunDecayTick(t, fungus, kMinute, /*tick_index=*/0, nullptr);
  EXPECT_EQ(tick.stats.segments_skipped, 1u);
  // The survivors still decayed normally.
  EXPECT_EQ(tick.stats.tuples_touched, 8u);
  EXPECT_NEAR(t.Freshness(5), 1.0 - 1.0 / 60.0, 1e-9);
}

TEST(RetentionFungusTest, SkipsFrozenFreshSegmentsViaZoneMap) {
  TableOptions opts;
  opts.rows_per_segment = 4;
  Table t("t", OneColSchema(), opts);
  // Segment 0: old rows (will decay). Segment 1: rows inserted at the
  // tick instant with untouched freshness 1.0 — every write this tick
  // would be a no-op, so the zone map lets the fungus skip it whole.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(t.Append({Value::Int64(i)}, /*now=*/0).ok());
  }
  for (int i = 4; i < 8; ++i) {
    ASSERT_TRUE(t.Append({Value::Int64(i)}, /*now=*/10 * kMinute).ok());
  }
  RetentionFungus fungus(/*retention=*/kHour);
  const DecayTick tick =
      RunDecayTick(t, fungus, 10 * kMinute, /*tick_index=*/0, nullptr);
  EXPECT_EQ(tick.stats.segments_skipped, 1u);
  EXPECT_EQ(tick.stats.tuples_touched, 4u);
  for (RowId r = 4; r < 8; ++r) {
    EXPECT_DOUBLE_EQ(t.Freshness(r), 1.0);
  }
  // Once a skipped segment's rows age past `now`, the next tick must
  // stop skipping it (min_ts < now) and decay normally.
  const DecayTick later =
      RunDecayTick(t, fungus, 20 * kMinute, /*tick_index=*/0, nullptr);
  EXPECT_EQ(later.stats.segments_skipped, 0u);
  EXPECT_NEAR(t.Freshness(4), 1.0 - 10.0 / 60.0, 1e-9);
}

TEST(RetentionFungusTest, OneAndThreeShardTicksSkipIdentically) {
  // The determinism contract: every shard's planner takes the same
  // zone-map skip decisions, so a 3-shard tick produces the same stats
  // and freshness as a 1-shard tick over identical rows.
  auto build = [](size_t num_shards) {
    TableOptions opts;
    opts.rows_per_segment = 4;
    opts.num_shards = num_shards;
    Table t("t", OneColSchema(), opts);
    for (int i = 0; i < 24; ++i) {
      FUNGUSDB_CHECK_OK(
          t.Append({Value::Int64(i)}, (i / 4) * kMinute).status());
    }
    for (RowId r = 8; r < 12; ++r) {
      FUNGUSDB_CHECK_OK(t.Kill(r));  // one fully dead segment
    }
    return t;
  };
  const Timestamp now = 5 * kMinute;

  Table one = build(1);
  RetentionFungus one_fungus(kHour);
  const DecayTick one_tick =
      RunDecayTick(one, one_fungus, now, /*tick_index=*/0, nullptr);

  Table three = build(3);
  RetentionFungus three_fungus(kHour);
  const DecayTick three_tick =
      RunDecayTick(three, three_fungus, now, /*tick_index=*/0, nullptr);

  EXPECT_GT(one_tick.stats.segments_skipped, 0u);
  EXPECT_EQ(three_tick.stats.segments_skipped,
            one_tick.stats.segments_skipped);
  EXPECT_EQ(three_tick.stats.tuples_touched, one_tick.stats.tuples_touched);
  EXPECT_EQ(three_tick.stats.tuples_killed, one_tick.stats.tuples_killed);
  EXPECT_EQ(three_tick.killed, one_tick.killed);
  EXPECT_EQ(three.LiveRows(), one.LiveRows());
  for (RowId row : one.LiveRows()) {
    EXPECT_EQ(three.Freshness(row), one.Freshness(row)) << row;
  }
}

}  // namespace
}  // namespace fungusdb
