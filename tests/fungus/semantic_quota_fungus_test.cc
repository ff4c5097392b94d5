#include <gtest/gtest.h>

#include "core/database.h"
#include "fungus/quota_fungus.h"
#include "fungus/scheduler.h"
#include "fungus/semantic_fungus.h"
#include "query/parser.h"
#include "summary/count_min_sketch.h"

namespace fungusdb {
namespace {

Schema EventSchema() {
  return Schema::Make({{"level", DataType::kString, false},
                       {"size", DataType::kInt64, false}})
      .value();
}

Table FilledTable(int rows, size_t rows_per_segment = 16) {
  TableOptions opts;
  opts.rows_per_segment = rows_per_segment;
  Table t("t", EventSchema(), opts);
  for (int i = 0; i < rows; ++i) {
    t.Append({Value::String(i % 5 == 0 ? "DEBUG" : "ERROR"),
              Value::Int64(i)},
             i)
        .value();
  }
  return t;
}

// --- SemanticFungus ---

TEST(SemanticFungusTest, MatchedTuplesDecayFaster) {
  Table t = FilledTable(20);
  SemanticFungus::Params p;
  p.matched_step = 0.5;
  p.unmatched_step = 0.1;
  SemanticFungus fungus(ParseExpression("level = 'DEBUG'").value(), p);
  RunDecayTick(t, fungus, 0, /*tick_index=*/0, nullptr);
  EXPECT_TRUE(fungus.bind_status().ok());
  EXPECT_NEAR(t.Freshness(0), 0.5, 1e-9);  // DEBUG row
  EXPECT_NEAR(t.Freshness(1), 0.9, 1e-9);  // ERROR row
}

TEST(SemanticFungusTest, ZeroStepPreservesMatchedTuples) {
  Table t = FilledTable(20);
  SemanticFungus::Params p;
  p.matched_step = 0.0;   // preservation order for ERROR rows
  p.unmatched_step = 1.0;
  SemanticFungus fungus(ParseExpression("level = 'ERROR'").value(), p);
  RunDecayTick(t, fungus, 0, /*tick_index=*/0, nullptr);
  // Only DEBUG rows (every 5th) died.
  EXPECT_EQ(t.live_rows(), 16u);
  EXPECT_FALSE(t.IsLive(0));
  EXPECT_TRUE(t.IsLive(1));
}

TEST(SemanticFungusTest, PredicateMaySeeSystemColumns) {
  Table t = FilledTable(10);
  SemanticFungus::Params p;
  p.matched_step = 1.0;
  p.unmatched_step = 0.0;
  SemanticFungus fungus(ParseExpression("__ts < 5").value(), p);
  RunDecayTick(t, fungus, 100, /*tick_index=*/0, nullptr);
  EXPECT_EQ(t.live_rows(), 5u);
  EXPECT_FALSE(t.IsLive(4));
  EXPECT_TRUE(t.IsLive(5));
}

TEST(SemanticFungusTest, BadPredicateDisablesFungusGracefully) {
  Table t = FilledTable(5);
  SemanticFungus fungus(ParseExpression("no_such_column > 1").value(),
                        SemanticFungus::Params{});
  RunDecayTick(t, fungus, 0, /*tick_index=*/0, nullptr);
  EXPECT_FALSE(fungus.bind_status().ok());
  EXPECT_EQ(t.live_rows(), 5u);  // nothing decayed
  // Subsequent ticks stay inert rather than spamming errors.
  RunDecayTick(t, fungus, 1, /*tick_index=*/1, nullptr);
  EXPECT_EQ(t.live_rows(), 5u);
}

TEST(SemanticFungusTest, NonBooleanPredicateRejected) {
  Table t = FilledTable(5);
  SemanticFungus fungus(ParseExpression("size + 1").value(),
                        SemanticFungus::Params{});
  RunDecayTick(t, fungus, 0, /*tick_index=*/0, nullptr);
  EXPECT_EQ(fungus.bind_status().code(), StatusCode::kTypeMismatch);
}

TEST(SemanticFungusTest, ResetRebinds) {
  Table t = FilledTable(5);
  SemanticFungus fungus(ParseExpression("size >= 0").value(),
                        SemanticFungus::Params{});
  RunDecayTick(t, fungus, 0, /*tick_index=*/0, nullptr);
  fungus.Reset();
  EXPECT_TRUE(fungus.bind_status().ok());
  // Must not crash after reset.
  RunDecayTick(t, fungus, 1, /*tick_index=*/1, nullptr);
}

TEST(SemanticFungusTest, DescribeShowsPredicate) {
  SemanticFungus fungus(ParseExpression("size > 3").value(),
                        SemanticFungus::Params{});
  EXPECT_NE(fungus.Describe().find("size > 3"), std::string::npos);
}

// --- QuotaFungus ---

TEST(QuotaFungusTest, EvictsOldestUntilUnderQuota) {
  Table t = FilledTable(1000, /*rows_per_segment=*/64);
  const size_t full = t.MemoryUsage();
  QuotaFungus fungus(full / 2);
  const DecayTick tick =
      RunDecayTick(t, fungus, 0, /*tick_index=*/0, nullptr);
  // Evicted rows stay readable until the caller reclaims them.
  EXPECT_GT(t.MemoryUsage(), full / 2);
  EXPECT_EQ(tick.killed.size(), 1000u - t.live_rows());
  t.ReclaimDeadSegments();
  EXPECT_LE(t.MemoryUsage(), full / 2);
  EXPECT_LT(t.live_rows(), 1000u);
  EXPECT_GT(t.live_rows(), 0u);
  // Survivors are the newest tuples.
  EXPECT_EQ(t.NewestLive().value(), 999u);
  EXPECT_GT(t.OldestLive().value(), 0u);
}

TEST(QuotaFungusTest, UnderQuotaIsNoop) {
  Table t = FilledTable(100);
  QuotaFungus fungus(t.MemoryUsage() * 2);
  RunDecayTick(t, fungus, 0, /*tick_index=*/0, nullptr);
  EXPECT_EQ(t.live_rows(), 100u);
}

TEST(QuotaFungusTest, TinyQuotaEmptiesTable) {
  Table t = FilledTable(200, /*rows_per_segment=*/16);
  QuotaFungus fungus(1);
  RunDecayTick(t, fungus, 0, /*tick_index=*/0, nullptr);
  EXPECT_EQ(t.live_rows(), 0u);
}

TEST(QuotaFungusTest, FrozenTableLandsUnderQuotaAfterOneTick) {
  // Evicting part of a frozen segment thaws it, so the plan must count
  // that segment at its plain size to land under the quota in one tick.
  Table t = FilledTable(1000, /*rows_per_segment=*/64);
  ASSERT_GT(t.FreezeColdSegments(/*min_idle_epochs=*/0), 0u);
  const size_t frozen = t.MemoryUsage();
  const size_t quota = frozen * 2 / 3;
  DecayScheduler scheduler;
  scheduler.Attach(&t, std::make_unique<QuotaFungus>(quota), kSecond, 0)
      .value();
  ASSERT_EQ(scheduler.AdvanceTo(kSecond), 1u);
  EXPECT_LE(t.MemoryUsage(), quota);
  EXPECT_GT(t.live_rows(), 0u);
  EXPECT_EQ(t.NewestLive().value(), 999u);
}

TEST(QuotaFungusTest, EvictedRowsAreCooked) {
  // Cooking exists so rotting tuples leave a summary behind: the death
  // observers must see every evicted row before reclamation frees it.
  Database db;
  TableOptions opts;
  opts.rows_per_segment = 16;
  ASSERT_TRUE(db.CreateTable("events", EventSchema(), opts).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.Insert("events", {Value::String("INFO"), Value::Int64(i)})
                    .ok());
  }
  CookSpec spec;
  spec.table_name = "events";
  spec.trigger = CookTrigger::kOnRot;
  spec.cellar_name = "evicted";
  spec.column = "size";
  spec.factory = [] { return std::make_unique<CountMinSketch>(64, 4); };
  ASSERT_TRUE(db.AddCookSpec(spec).ok());
  const size_t full = db.GetTable("events").value().table().MemoryUsage();
  ASSERT_TRUE(db.AttachFungus("events",
                              std::make_unique<QuotaFungus>(full / 2), kSecond)
                  .ok());
  ASSERT_TRUE(db.AdvanceTime(kSecond).ok());

  const uint64_t evicted = 200 - db.GetTable("events").value().live_rows();
  ASSERT_GT(evicted, 0u);
  EXPECT_EQ(db.kitchen().rows_cooked(), evicted);
  const Summary* cooked = db.cellar().Find("evicted");
  ASSERT_NE(cooked, nullptr);
  EXPECT_EQ(cooked->observations(), evicted);
}

TEST(QuotaFungusTest, Describe) {
  QuotaFungus fungus(10 * 1024 * 1024);
  EXPECT_EQ(fungus.Describe(), "quota(10.0 MiB)");
}

}  // namespace
}  // namespace fungusdb
