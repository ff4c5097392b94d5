// The Blue-Cheese view: watch EGI eat a relation along its time axis.
// Each frame is one strip of the table in insertion order ('#' = live,
// '.' = dead, digits = partially rotten ranges) — "portions of the
// cheese turn into its rotting equivalent over time. It remains edible
// for a long time though."
//
//   ./build/examples/blue_cheese

#include <cstdio>

#include "fungusdb/fungi.h"

using namespace fungusdb;

int main() {
  TableOptions opts;
  opts.rows_per_segment = 512;
  Table cheese("cheese",
               Schema::Make({{"v", DataType::kInt64, false}}).value(),
               opts);
  constexpr uint64_t kRows = 40000;
  for (uint64_t i = 0; i < kRows; ++i) {
    cheese
        .Append({Value::Int64(static_cast<int64_t>(i))},
                static_cast<Timestamp>(i))
        .value();
  }

  EgiFungus::Params p;
  p.seeds_per_tick = 1.0;
  p.decay_step = 0.12;
  p.spread_probability = 1.0;
  p.age_bias = 2.0;
  EgiFungus egi(p);

  std::printf("EGI %s on %llu tuples\n\n", egi.Describe().c_str(),
              static_cast<unsigned long long>(kRows));
  std::printf("%-6s %-7s %-6s %s\n", "tick", "live", "spots", "time axis");
  for (int tick = 0; tick <= 280; ++tick) {
    RunDecayTick(cheese, egi, tick, /*tick_index=*/tick, nullptr);
    cheese.ReclaimDeadSegments();
    if (tick % 20 == 0) {
      RotStructure rot = AnalyzeRot(cheese);
      std::printf("%-6d %-7llu %-6llu %s\n", tick,
                  static_cast<unsigned long long>(cheese.live_rows()),
                  static_cast<unsigned long long>(rot.num_spots),
                  RenderTimeAxis(cheese, 64).c_str());
    }
  }
  std::printf("\nstill edible: %llu of %llu tuples remain\n",
              static_cast<unsigned long long>(cheese.live_rows()),
              static_cast<unsigned long long>(kRows));
  return 0;
}
