// Composing decay policies: a log table where
//   * DEBUG entries rot fast while ERROR entries are preserved
//     (SemanticFungus — the "what to decay" axis),
//   * a hard byte quota caps the fridge regardless (QuotaFungus),
// and dashboards read freshness-weighted aggregates (FAVG/FCOUNT), so
// answers fade in proportion to how much of their evidence has rotted.
//
//   ./build/examples/decay_policies

#include <cstdio>
#include <memory>

#include "fungusdb/common.h"
#include "fungusdb/database.h"
#include "fungusdb/fungi.h"
#include "fungusdb/query.h"

using namespace fungusdb;

int main() {
  Database db;
  Schema schema = Schema::Make({{"level", DataType::kString, false},
                                {"latency_ms", DataType::kFloat64, false}})
                      .value();
  TableOptions topts;
  topts.rows_per_segment = 512;
  db.CreateTable("logs", schema, topts).value();

  // Policy 1: DEBUG lines lose freshness steadily (gone after ~6h of
  // one-minute ticks), ERROR lines are immortal (step 0 — a
  // preservation order).
  SemanticFungus::Params sp;
  sp.matched_step = 1.0 / 360.0;
  sp.unmatched_step = 0.0;
  auto semantic = std::make_unique<SemanticFungus>(
      ParseExpression("level = 'DEBUG'").value(), sp);

  // Policy 2: whatever else happens, the table may not exceed 1 MiB.
  auto quota = std::make_unique<QuotaFungus>(1 << 20);

  // Two attachments on one table tick in attachment order at equal
  // times, so the quota sees what the semantic fungus left.
  db.AttachFungus("logs", std::move(semantic), /*period=*/kMinute).value();
  db.AttachFungus("logs", std::move(quota), /*period=*/kMinute).value();

  // Two days of logs: mostly DEBUG noise, occasional slow ERRORs.
  Rng rng(2026);
  for (int hour = 0; hour < 48; ++hour) {
    for (int i = 0; i < 500; ++i) {
      const bool is_error = rng.NextBernoulli(0.04);
      db.Insert("logs",
                {Value::String(is_error ? "ERROR" : "DEBUG"),
                 Value::Float64(is_error ? 250.0 + 300.0 * rng.NextDouble()
                                         : 5.0 + 20.0 * rng.NextDouble())})
          .value();
    }
    db.AdvanceTime(kHour).value();
  }

  const TableHandle logs = db.GetTable("logs").value();
  std::printf("after 48h: %llu of %llu log lines survive, %s\n",
              static_cast<unsigned long long>(logs.live_rows()),
              static_cast<unsigned long long>(logs.total_appended()),
              FormatBytes(logs.memory_bytes()).c_str());

  ResultSet by_level =
      db.ExecuteSql("SELECT level, count(*) AS n FROM logs "
                    "GROUP BY level ORDER BY level")
          .value();
  std::printf("%s\n", by_level.ToString().c_str());

  // Freshness-weighted dashboards: the DEBUG contribution fades as it
  // rots, so FAVG tracks the *fresh* latency picture while AVG is
  // dominated by whatever happens to still be tombstone-free.
  ResultSet latency =
      db.ExecuteSql("SELECT count(*) AS rows, fcount(*) AS effective, "
                    "avg(latency_ms) AS avg_ms, favg(latency_ms) AS favg_ms "
                    "FROM logs")
          .value();
  std::printf("latency picture:\n%s\n", latency.ToString().c_str());
  std::printf("(effective < rows because partially-rotten DEBUG lines "
              "count fractionally)\n");
  return 0;
}
