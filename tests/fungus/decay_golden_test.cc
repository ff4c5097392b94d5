#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

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

// Golden digests of whole decay runs. Each digest folds, tick by tick,
// the RowId-sorted death list, the tick's DecayStats, and the live rows
// with their freshness bits into one FNV-1a hash. A refactor of the
// decay kernel that moves any outcome by a single ulp changes a digest.

class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void AddDouble(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

std::unique_ptr<Fungus> MakeFungus(const std::string& kind) {
  if (kind == "retention") {
    return std::make_unique<RetentionFungus>(10 * kMinute);
  }
  if (kind == "exponential") {
    return std::make_unique<ExponentialFungus>(
        ExponentialFungus::FromHalfLife(4 * kMinute));
  }
  if (kind == "importance") {
    ImportanceFungus::Params p;
    p.decay_step = 0.07;
    p.access_weight = 1.0;
    return std::make_unique<ImportanceFungus>(p);
  }
  if (kind == "semantic") {
    SemanticFungus::Params p;
    p.matched_step = 0.2;
    p.unmatched_step = 0.03;
    return std::make_unique<SemanticFungus>(
        ParseExpression("level = 'DEBUG'").value(), p);
  }
  if (kind == "sliding_window") {
    return std::make_unique<SlidingWindowFungus>(300);
  }
  if (kind == "quota") return std::make_unique<QuotaFungus>(12 * 1024);
  if (kind == "egi") {
    EgiFungus::Params p;
    p.seeds_per_tick = 2.5;
    p.decay_step = 0.25;
    p.spread_probability = 0.7;
    return std::make_unique<EgiFungus>(p);
  }
  if (kind == "random_blight") {
    RandomBlightFungus::Params p;
    p.tuples_per_tick = 13;
    p.decay_step = 0.4;
    return std::make_unique<RandomBlightFungus>(p);
  }
  return nullptr;
}

struct Scenario {
  std::string fungus;
  size_t shards;
  bool lazy;
  bool freeze;
  uint64_t digest;
};

/// 30 one-minute ticks over a 16-row-segment table that receives 40
/// rows per minute; every 7th row is read each minute so access counts
/// differ. Returns the digest and the total deaths.
uint64_t RunScenario(const Scenario& s, uint64_t* total_killed) {
  const Schema schema = Schema::Make({{"v", DataType::kInt64, false},
                                      {"level", DataType::kString, false}})
                            .value();
  TableOptions opts;
  opts.rows_per_segment = 16;
  opts.num_shards = s.shards;
  opts.lazy_decay = s.lazy;
  opts.freeze_after_idle_ticks = s.freeze ? 2 : 0;
  opts.track_access = s.fungus == "importance";
  Table table("t", schema, opts);

  DecayScheduler scheduler;
  std::vector<RowId> tick_killed;
  scheduler.AddDeathObserver(
      [&](Table&, const std::vector<RowId>& killed, Timestamp) {
        tick_killed = killed;
      });
  const DecayScheduler::AttachmentId id =
      scheduler.Attach(&table, MakeFungus(s.fungus), kMinute, 0).value();

  Digest digest;
  DecayStats before;
  *total_killed = 0;
  int64_t v = 0;
  for (int tick = 0; tick < 30; ++tick) {
    const Timestamp base = tick * kMinute;
    for (int i = 0; i < 40; ++i, ++v) {
      table
          .Append({Value::Int64(v), Value::String(v % 4 == 0 ? "DEBUG"
                                                             : "INFO")},
                  base + i * (kMinute / 40))
          .value();
    }
    table.ForEachLive([&](RowId row) {
      if (row % 7 == 0) table.RecordAccess(row);
    });
    tick_killed.clear();
    EXPECT_EQ(scheduler.AdvanceTo(base + kMinute), 1u);
    const DecayStats after = scheduler.StatsFor(id).decay;
    digest.Add(tick_killed.size());
    for (RowId row : tick_killed) digest.Add(row);
    digest.Add(after.tuples_touched - before.tuples_touched);
    digest.Add(after.tuples_killed - before.tuples_killed);
    digest.Add(after.seeds_planted - before.seeds_planted);
    digest.Add(after.segments_skipped - before.segments_skipped);
    digest.Add(after.segments_folded - before.segments_folded);
    digest.Add(after.rows_materialized - before.rows_materialized);
    before = after;
    *total_killed += tick_killed.size();
    table.ForEachLive([&](RowId row) {
      digest.Add(row);
      digest.AddDouble(table.Freshness(row));
    });
  }
  return digest.value();
}

std::string Name(const Scenario& s) {
  return s.fungus + "/" + std::to_string(s.shards) + "sh/" +
         (s.lazy ? "lazy" : "eager") + (s.freeze ? "/freeze" : "");
}

// All digests but EGI at 1 shard and random_blight also equal those of
// the serial tick that wrote to the table directly before plan/apply
// became the only protocol. EGI at 1 shard and random_blight draw from
// per-(tick, shard) RNG streams, which no single persistent generator
// reproduces.
const Scenario kScenarios[] = {
    {"retention", 1, true, false, 0x8D0740884B016A3CULL},
    {"retention", 1, true, true, 0x8D0740884B016A3CULL},
    {"retention", 1, false, false, 0x89449A520ACDDAFEULL},
    {"retention", 1, false, true, 0x89449A520ACDDAFEULL},
    {"retention", 4, true, false, 0x8D0740884B016A3CULL},
    {"retention", 4, true, true, 0x8D0740884B016A3CULL},
    {"retention", 4, false, false, 0x89449A520ACDDAFEULL},
    {"retention", 4, false, true, 0x89449A520ACDDAFEULL},
    {"exponential", 1, true, false, 0xD6115E014E9C9B7BULL},
    {"exponential", 1, true, true, 0xD6115E014E9C9B7BULL},
    {"exponential", 1, false, false, 0xD6115E014E9C9B7BULL},
    {"exponential", 1, false, true, 0xD6115E014E9C9B7BULL},
    {"exponential", 4, true, false, 0xD6115E014E9C9B7BULL},
    {"exponential", 4, true, true, 0xD6115E014E9C9B7BULL},
    {"exponential", 4, false, false, 0xD6115E014E9C9B7BULL},
    {"exponential", 4, false, true, 0xD6115E014E9C9B7BULL},
    {"importance", 1, true, false, 0x655A6E5C8D50AC60ULL},
    {"importance", 1, true, true, 0x655A6E5C8D50AC60ULL},
    {"importance", 1, false, false, 0x655A6E5C8D50AC60ULL},
    {"importance", 1, false, true, 0x655A6E5C8D50AC60ULL},
    {"importance", 4, true, false, 0x655A6E5C8D50AC60ULL},
    {"importance", 4, true, true, 0x655A6E5C8D50AC60ULL},
    {"importance", 4, false, false, 0x655A6E5C8D50AC60ULL},
    {"importance", 4, false, true, 0x655A6E5C8D50AC60ULL},
    {"semantic", 1, true, false, 0xDCC86D5FF78908FFULL},
    {"semantic", 1, true, true, 0xDCC86D5FF78908FFULL},
    {"semantic", 1, false, false, 0xDCC86D5FF78908FFULL},
    {"semantic", 1, false, true, 0xDCC86D5FF78908FFULL},
    {"semantic", 4, true, false, 0xDCC86D5FF78908FFULL},
    {"semantic", 4, true, true, 0xDCC86D5FF78908FFULL},
    {"semantic", 4, false, false, 0xDCC86D5FF78908FFULL},
    {"semantic", 4, false, true, 0xDCC86D5FF78908FFULL},
    {"sliding_window", 1, true, false, 0xFEAFD2C1DE90BB56ULL},
    {"sliding_window", 1, true, true, 0xFEAFD2C1DE90BB56ULL},
    {"sliding_window", 1, false, false, 0xFEAFD2C1DE90BB56ULL},
    {"sliding_window", 1, false, true, 0xFEAFD2C1DE90BB56ULL},
    {"sliding_window", 4, true, false, 0xFEAFD2C1DE90BB56ULL},
    {"sliding_window", 4, true, true, 0xFEAFD2C1DE90BB56ULL},
    {"sliding_window", 4, false, false, 0xFEAFD2C1DE90BB56ULL},
    {"sliding_window", 4, false, true, 0xFEAFD2C1DE90BB56ULL},
    {"quota", 1, true, false, 0x539EF97329F32A4DULL},
    {"quota", 1, false, false, 0x539EF97329F32A4DULL},
    {"quota", 4, true, false, 0xF1CD2F8461503B7DULL},
    {"quota", 4, false, false, 0xF1CD2F8461503B7DULL},
    {"egi", 1, true, false, 0x4F2F90C45BD19A12ULL},
    {"egi", 1, true, true, 0x4F2F90C45BD19A12ULL},
    {"egi", 1, false, false, 0x4F2F90C45BD19A12ULL},
    {"egi", 1, false, true, 0x4F2F90C45BD19A12ULL},
    {"egi", 4, true, false, 0x56F57285969A0E71ULL},
    {"egi", 4, true, true, 0x56F57285969A0E71ULL},
    {"egi", 4, false, false, 0x56F57285969A0E71ULL},
    {"egi", 4, false, true, 0x56F57285969A0E71ULL},
    {"random_blight", 1, true, false, 0x22CACEF63AB2B755ULL},
    {"random_blight", 1, true, true, 0x22CACEF63AB2B755ULL},
    {"random_blight", 1, false, false, 0x22CACEF63AB2B755ULL},
    {"random_blight", 1, false, true, 0x22CACEF63AB2B755ULL},
    {"random_blight", 4, true, false, 0xA827CA9501189CB5ULL},
    {"random_blight", 4, true, true, 0xA827CA9501189CB5ULL},
    {"random_blight", 4, false, false, 0xA827CA9501189CB5ULL},
    {"random_blight", 4, false, true, 0xA827CA9501189CB5ULL},
};

TEST(DecayGoldenTest, EveryScenarioReproducesItsDigest) {
  for (const Scenario& s : kScenarios) {
    uint64_t killed = 0;
    const uint64_t digest = RunScenario(s, &killed);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llXULL",
                  static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, s.digest) << Name(s) << " digest " << hex;
    EXPECT_GT(killed, 0u) << Name(s) << " never killed a row";
  }
}

}  // namespace
}  // namespace fungusdb
