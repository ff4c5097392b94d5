#include "fungus/scheduler.h"

#include <gtest/gtest.h>

#include "fungus/retention_fungus.h"
#include "fungus/sliding_window_fungus.h"

namespace fungusdb {
namespace {

Schema OneColSchema() {
  return Schema::Make({{"v", DataType::kInt64, false}}).value();
}

TEST(DecaySchedulerTest, AttachValidates) {
  DecayScheduler scheduler;
  Table t("t", OneColSchema());
  EXPECT_FALSE(scheduler
                   .Attach(nullptr, std::make_unique<RetentionFungus>(kDay),
                           kSecond, 0)
                   .ok());
  EXPECT_FALSE(scheduler.Attach(&t, nullptr, kSecond, 0).ok());
  EXPECT_FALSE(scheduler
                   .Attach(&t, std::make_unique<RetentionFungus>(kDay), 0, 0)
                   .ok());
  EXPECT_TRUE(scheduler
                  .Attach(&t, std::make_unique<RetentionFungus>(kDay),
                          kSecond, 0)
                  .ok());
  EXPECT_EQ(scheduler.num_attachments(), 1u);
}

TEST(DecaySchedulerTest, TicksAtPeriodBoundaries) {
  DecayScheduler scheduler;
  Table t("t", OneColSchema());
  auto id = scheduler
                .Attach(&t, std::make_unique<RetentionFungus>(kDay),
                        /*period=*/kSecond, /*start_time=*/0)
                .value();
  EXPECT_EQ(scheduler.AdvanceTo(kSecond - 1), 0u);
  EXPECT_EQ(scheduler.AdvanceTo(kSecond), 1u);
  EXPECT_EQ(scheduler.AdvanceTo(kSecond), 0u);  // no double firing
  EXPECT_EQ(scheduler.AdvanceTo(5 * kSecond), 4u);
  EXPECT_EQ(scheduler.StatsFor(id).ticks, 5u);
}

TEST(DecaySchedulerTest, AttachmentsOnOneTableApplyInOrder) {
  // Fungi attached to one table tick in attachment order at equal times,
  // each seeing the previous one's writes: the window keeps the newest
  // 50 rows, then retention (10us, everything is older) wipes the rest.
  TableOptions opts;
  opts.rows_per_segment = 64;
  Table t("t", OneColSchema(), opts);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.Append({Value::Int64(i)}, i).ok());
  }
  DecayScheduler scheduler;
  const auto window =
      scheduler
          .Attach(&t, std::make_unique<SlidingWindowFungus>(50), 200, 0)
          .value();
  const auto retention =
      scheduler.Attach(&t, std::make_unique<RetentionFungus>(10), 200, 0)
          .value();
  EXPECT_EQ(scheduler.AdvanceTo(200), 2u);
  EXPECT_EQ(t.live_rows(), 0u);
  EXPECT_EQ(scheduler.StatsFor(window).decay.tuples_killed, 50u);
  EXPECT_EQ(scheduler.StatsFor(retention).decay.tuples_killed, 50u);
}

TEST(DecaySchedulerTest, MultipleAttachmentsInterleaveChronologically) {
  DecayScheduler scheduler;
  Table t1("t1", OneColSchema());
  Table t2("t2", OneColSchema());
  scheduler.Attach(&t1, std::make_unique<RetentionFungus>(kDay), 2 * kSecond,
                   0)
      .value();
  scheduler
      .Attach(&t2, std::make_unique<RetentionFungus>(kDay), 3 * kSecond, 0)
      .value();
  // Ticks due by t=6s: t1 at 2,4,6; t2 at 3,6 -> 5 ticks.
  EXPECT_EQ(scheduler.AdvanceTo(6 * kSecond), 5u);
}

TEST(DecaySchedulerTest, DecayActuallyKills) {
  DecayScheduler scheduler;
  Table t("t", OneColSchema());
  for (int i = 0; i < 10; ++i) {
    t.Append({Value::Int64(i)}, i * kSecond).value();
  }
  auto id =
      scheduler
          .Attach(&t, std::make_unique<RetentionFungus>(5 * kSecond),
                  kSecond, 0)
          .value();
  scheduler.AdvanceTo(20 * kSecond);
  EXPECT_EQ(t.live_rows(), 0u);
  EXPECT_EQ(scheduler.StatsFor(id).decay.tuples_killed, 10u);
}

TEST(DecaySchedulerTest, DeathObserverSeesDyingTuplesWithValues) {
  DecayScheduler scheduler;
  Table t("t", OneColSchema());
  for (int i = 0; i < 5; ++i) {
    t.Append({Value::Int64(100 + i)}, i).value();
  }
  std::vector<int64_t> observed;
  scheduler.AddDeathObserver(
      [&](Table& table, const std::vector<RowId>& rows, Timestamp now) {
        EXPECT_GT(now, 0);
        for (RowId r : rows) {
          // Values must still be readable at observation time.
          observed.push_back(table.GetValue(r, 0).value().AsInt64());
        }
      });
  scheduler
      .Attach(&t, std::make_unique<RetentionFungus>(kSecond), kSecond, 0)
      .value();
  scheduler.AdvanceTo(10 * kSecond);
  ASSERT_EQ(observed.size(), 5u);
  EXPECT_EQ(observed[0], 100);
  EXPECT_EQ(observed[4], 104);
}

TEST(DecaySchedulerTest, ReclaimsDeadSegmentsAfterTicks) {
  DecayScheduler scheduler;
  TableOptions opts;
  opts.rows_per_segment = 4;
  Table t("t", OneColSchema(), opts);
  for (int i = 0; i < 16; ++i) t.Append({Value::Int64(i)}, i).value();
  scheduler
      .Attach(&t, std::make_unique<SlidingWindowFungus>(4), kSecond, 0)
      .value();
  scheduler.AdvanceTo(kSecond);
  EXPECT_EQ(t.live_rows(), 4u);
  // 12 dead tuples = 3 full dead segments, reclaimed by the scheduler.
  EXPECT_EQ(t.num_segments(), 1u);
}

TEST(DecaySchedulerTest, DetachStopsTicking) {
  DecayScheduler scheduler;
  Table t("t", OneColSchema());
  t.Append({Value::Int64(1)}, 0).value();
  auto id = scheduler
                .Attach(&t, std::make_unique<RetentionFungus>(kSecond),
                        kSecond, 0)
                .value();
  ASSERT_TRUE(scheduler.Detach(id).ok());
  EXPECT_EQ(scheduler.AdvanceTo(10 * kSecond), 0u);
  EXPECT_TRUE(t.IsLive(0));
  EXPECT_EQ(scheduler.num_attachments(), 0u);
  EXPECT_EQ(scheduler.Detach(id).code(), StatusCode::kNotFound);
}

TEST(DecaySchedulerTest, MetricsFlow) {
  DecayScheduler scheduler;
  MetricsRegistry metrics;
  scheduler.set_metrics(&metrics);
  Table t("t", OneColSchema());
  t.Append({Value::Int64(1)}, 0).value();
  scheduler
      .Attach(&t, std::make_unique<RetentionFungus>(kSecond), kSecond, 0)
      .value();
  scheduler.AdvanceTo(3 * kSecond);
  EXPECT_EQ(metrics.GetCounter("fungusdb.decay.ticks"), 3);
  EXPECT_EQ(metrics.GetCounter("fungusdb.decay.tuples_killed"), 1);
}

}  // namespace
}  // namespace fungusdb
