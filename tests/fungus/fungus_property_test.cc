// Property-style tests: invariants every fungus must satisfy, run as a
// parameterized sweep over all fungus kinds and several decay regimes.
//
//  P1. Freshness is monotone non-increasing between ticks (no fungus may
//      refresh a tuple beyond its previous value, except the documented
//      window-position semantics of sliding_window — checked separately).
//  P2. A tuple is live iff its freshness is > 0.
//  P3. live_rows + rows_killed == total_appended at every step.
//  P4. Fungi never alter attribute values.
//  P5. Decay is deterministic given (fungus seed, tick schedule).

#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fungus/egi_fungus.h"
#include "fungus/exponential_fungus.h"
#include "fungus/importance_fungus.h"
#include "fungus/quota_fungus.h"
#include "fungus/random_blight_fungus.h"
#include "fungus/retention_fungus.h"
#include "fungus/scheduler.h"
#include "fungus/semantic_fungus.h"
#include "fungus/sliding_window_fungus.h"
#include "query/parser.h"

namespace fungusdb {
namespace {

struct FungusCase {
  std::string label;
  std::function<std::unique_ptr<Fungus>()> make;
  // Sliding-window freshness encodes window position, which may go up
  // when older tuples leave; exempt from strict monotonicity (P1).
  bool monotone_freshness = true;
};

std::vector<FungusCase> AllFungi() {
  std::vector<FungusCase> cases;
  cases.push_back({"retention",
                   [] { return std::make_unique<RetentionFungus>(40); },
                   true});
  cases.push_back({"exponential",
                   [] {
                     ExponentialFungus::Params p;
                     p.lambda_per_second = 2000.0;  // fast on micro scale
                     p.kill_threshold = 0.02;
                     return std::make_unique<ExponentialFungus>(p);
                   },
                   true});
  cases.push_back({"egi",
                   [] {
                     EgiFungus::Params p;
                     p.seeds_per_tick = 2.0;
                     p.decay_step = 0.3;
                     p.spread_probability = 0.8;
                     return std::make_unique<EgiFungus>(p);
                   },
                   true});
  cases.push_back({"random_blight",
                   [] {
                     RandomBlightFungus::Params p;
                     p.tuples_per_tick = 4;
                     p.decay_step = 0.4;
                     return std::make_unique<RandomBlightFungus>(p);
                   },
                   true});
  cases.push_back({"importance",
                   [] {
                     ImportanceFungus::Params p;
                     p.decay_step = 0.15;
                     return std::make_unique<ImportanceFungus>(p);
                   },
                   true});
  cases.push_back({"sliding_window",
                   [] { return std::make_unique<SlidingWindowFungus>(40); },
                   false});
  cases.push_back({"semantic",
                   [] {
                     SemanticFungus::Params p;
                     p.matched_step = 0.4;
                     p.unmatched_step = 0.05;
                     return std::make_unique<SemanticFungus>(
                         ParseExpression("v % 2 = 0").value(), p);
                   },
                   true});
  cases.push_back({"quota",
                   // ~25 rows of int64 payload fit in 4 KiB with the
                   // per-segment overhead at 16 rows/segment.
                   [] { return std::make_unique<QuotaFungus>(4096); },
                   true});
  return cases;
}

Schema OneColSchema() {
  return Schema::Make({{"v", DataType::kInt64, false}}).value();
}

class FungusPropertyTest : public ::testing::TestWithParam<size_t> {
 protected:
  const FungusCase& Case() const {
    static const std::vector<FungusCase>* cases =
        new std::vector<FungusCase>(AllFungi());
    return (*cases)[GetParam()];
  }
};

TEST_P(FungusPropertyTest, CoreInvariantsHoldOverManyTicks) {
  const FungusCase& c = Case();
  SCOPED_TRACE(c.label);

  TableOptions opts;
  opts.rows_per_segment = 16;
  opts.track_access = true;
  Table t("t", OneColSchema(), opts);
  std::unique_ptr<Fungus> fungus = c.make();

  Rng rng(0xF00D);
  std::map<RowId, double> last_freshness;
  std::map<RowId, int64_t> original_value;

  Timestamp now = 0;
  int64_t next_value = 0;
  for (int step = 0; step < 80; ++step) {
    // Interleave ingestion with decay, as a live system would.
    const int inserts = static_cast<int>(rng.NextBounded(5));
    for (int i = 0; i < inserts; ++i) {
      const RowId row = t.Append({Value::Int64(next_value)}, now).value();
      original_value[row] = next_value;
      last_freshness[row] = 1.0;
      ++next_value;
    }
    now += 1 + static_cast<Timestamp>(rng.NextBounded(10));
    RunDecayTick(t, *fungus, now, /*tick_index=*/step, nullptr);

    // P2 + P1 + P4 over every tuple ever appended.
    for (auto& [row, prev] : last_freshness) {
      const double f = t.Freshness(row);
      if (t.IsLive(row)) {
        EXPECT_GT(f, 0.0) << "live tuple with zero freshness, row " << row;
        Result<Value> v = t.GetValue(row, 0);
        ASSERT_TRUE(v.ok());
        EXPECT_EQ(v->AsInt64(), original_value[row])
            << "fungus mutated attribute of row " << row;
      } else {
        EXPECT_DOUBLE_EQ(f, 0.0)
            << "dead/reclaimed tuple with freshness, row " << row;
      }
      if (c.monotone_freshness) {
        EXPECT_LE(f, prev + 1e-9)
            << c.label << " increased freshness of row " << row;
      }
      prev = f;
    }

    // P3: conservation.
    EXPECT_EQ(t.live_rows() + t.rows_killed(), t.total_appended());

    t.ReclaimDeadSegments();
    EXPECT_EQ(t.live_rows() + t.rows_killed(), t.total_appended());
  }
}

TEST_P(FungusPropertyTest, DeterministicReplay) {
  const FungusCase& c = Case();
  SCOPED_TRACE(c.label);

  auto run = [&]() -> std::vector<RowId> {
    TableOptions opts;
    opts.rows_per_segment = 16;
    opts.track_access = true;
    Table t("t", OneColSchema(), opts);
    std::unique_ptr<Fungus> fungus = c.make();
    Timestamp now = 0;
    for (int step = 0; step < 50; ++step) {
      for (int i = 0; i < 3; ++i) {
        t.Append({Value::Int64(step * 3 + i)}, now).value();
      }
      now += 7;
      RunDecayTick(t, *fungus, now, /*tick_index=*/step, nullptr);
    }
    return t.LiveRows();
  };
  EXPECT_EQ(run(), run());
}

TEST_P(FungusPropertyTest, SustainedDecayBoundsOrEmptiesTheTable) {
  // The first natural law: with no further insertions, the extent keeps
  // shrinking "until it has completely disappeared" (or, for purely
  // rate-limited fungi, at least halves within the horizon).
  const FungusCase& c = Case();
  SCOPED_TRACE(c.label);

  TableOptions opts;
  opts.rows_per_segment = 16;
  opts.track_access = true;
  Table t("t", OneColSchema(), opts);
  for (int i = 0; i < 200; ++i) {
    t.Append({Value::Int64(i)}, i).value();
  }
  std::unique_ptr<Fungus> fungus = c.make();
  Timestamp now = 200;
  for (int tick = 0; tick < 400; ++tick) {
    now += 10;
    RunDecayTick(t, *fungus, now, /*tick_index=*/tick, nullptr);
  }
  EXPECT_LE(t.live_rows(), 100u) << c.label;
}

INSTANTIATE_TEST_SUITE_P(
    AllFungi, FungusPropertyTest,
    ::testing::Range<size_t>(0, 8), [](const auto& info) {
      return AllFungi()[info.param].label;
    });

}  // namespace
}  // namespace fungusdb
