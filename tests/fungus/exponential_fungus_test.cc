#include "fungus/exponential_fungus.h"

#include <cmath>

#include <gtest/gtest.h>

#include "fungus/scheduler.h"

namespace fungusdb {
namespace {

Schema OneColSchema() {
  return Schema::Make({{"v", DataType::kInt64, false}}).value();
}

TEST(ExponentialFungusTest, DecaysByElapsedTime) {
  Table t("t", OneColSchema());
  ASSERT_TRUE(t.Append({Value::Int64(0)}, 0).ok());
  ExponentialFungus::Params p;
  p.lambda_per_second = std::log(2.0);  // halves every second
  p.kill_threshold = 0.0001;
  ExponentialFungus fungus(p);

  RunDecayTick(t, fungus, kSecond, /*tick_index=*/0, nullptr);
  EXPECT_NEAR(t.Freshness(0), 0.5, 1e-9);

  RunDecayTick(t, fungus, 2 * kSecond, /*tick_index=*/0, nullptr);
  EXPECT_NEAR(t.Freshness(0), 0.25, 1e-9);
}

TEST(ExponentialFungusTest, FromHalfLifeHalvesPerHalfLife) {
  Table t("t", OneColSchema());
  ASSERT_TRUE(t.Append({Value::Int64(0)}, 0).ok());
  ExponentialFungus fungus(ExponentialFungus::FromHalfLife(kHour));
  RunDecayTick(t, fungus, kHour, /*tick_index=*/0, nullptr);
  EXPECT_NEAR(t.Freshness(0), 0.5, 1e-9);
}

TEST(ExponentialFungusTest, KillsBelowThreshold) {
  Table t("t", OneColSchema());
  ASSERT_TRUE(t.Append({Value::Int64(0)}, 0).ok());
  ExponentialFungus::Params p;
  p.lambda_per_second = 1.0;
  p.kill_threshold = 0.05;
  ExponentialFungus fungus(p);
  // After 4 seconds freshness would be e^-4 ~= 0.018 < 0.05.
  RunDecayTick(t, fungus, 4 * kSecond, /*tick_index=*/0, nullptr);
  EXPECT_FALSE(t.IsLive(0));
}

TEST(ExponentialFungusTest, ZeroElapsedIsNoop) {
  Table t("t", OneColSchema());
  ASSERT_TRUE(t.Append({Value::Int64(0)}, 0).ok());
  ExponentialFungus::Params p;
  p.lambda_per_second = 10.0;
  ExponentialFungus fungus(p);
  RunDecayTick(t, fungus, 0, /*tick_index=*/0, nullptr);
  EXPECT_DOUBLE_EQ(t.Freshness(0), 1.0);
}

TEST(ExponentialFungusTest, ResetRestartsTheClock) {
  Table t("t", OneColSchema());
  ASSERT_TRUE(t.Append({Value::Int64(0)}, 0).ok());
  ExponentialFungus::Params p;
  p.lambda_per_second = std::log(2.0);
  ExponentialFungus fungus(p);
  RunDecayTick(t, fungus, kSecond, /*tick_index=*/0, nullptr);
  fungus.Reset();
  // After reset, the next tick decays from start_time again: 2 more
  // halvings on top of the existing 0.5.
  RunDecayTick(t, fungus, 2 * kSecond, /*tick_index=*/0, nullptr);
  EXPECT_NEAR(t.Freshness(0), 0.125, 1e-9);
}

TEST(ExponentialFungusTest, NewerTuplesNotSpared) {
  // Uniform decay hits every live tuple equally, regardless of age —
  // that is what distinguishes it from retention.
  Table t("t", OneColSchema());
  ASSERT_TRUE(t.Append({Value::Int64(0)}, 0).ok());
  ExponentialFungus::Params p;
  p.lambda_per_second = std::log(2.0);
  ExponentialFungus fungus(p);
  // Append a new tuple just before the tick: it is decayed too.
  ASSERT_TRUE(t.Append({Value::Int64(1)}, kSecond).ok());
  RunDecayTick(t, fungus, kSecond, /*tick_index=*/0, nullptr);
  EXPECT_NEAR(t.Freshness(1), 0.5, 1e-9);
}

TEST(ExponentialFungusTest, DescribeMentionsParameters) {
  ExponentialFungus::Params p;
  p.lambda_per_second = 0.5;
  ExponentialFungus fungus(p);
  EXPECT_NE(fungus.Describe().find("exponential"), std::string::npos);
  EXPECT_EQ(fungus.name(), "exponential");
}

}  // namespace
}  // namespace fungusdb
