// Experiment F5 — EGI parameter sweep.
//
// Claim (paper §2): the decay speed "comes both from the initial
// infection at a certain time stamp, but also the bi-directional growth
// along the time axes". We sweep seed rate x spread x decay step over a
// static 50k-tuple table and report the extent half-life (ticks until
// half the tuples are gone) and the spot structure at that point.
// spread=0 is the ablation: seeding alone, no epidemic growth.

#include "bench/bench_util.h"
#include "fungus/egi_fungus.h"
#include "fungus/rot_analysis.h"
#include "fungus/scheduler.h"

namespace fungusdb {
namespace {

constexpr uint64_t kRows = 50000;
constexpr int kMaxTicks = 4000;

Table FilledTable() {
  TableOptions opts;
  opts.rows_per_segment = 1024;
  Table t("t", Schema::Make({{"v", DataType::kInt64, false}}).value(),
          opts);
  for (uint64_t i = 0; i < kRows; ++i) {
    t.Append({Value::Int64(static_cast<int64_t>(i))},
             static_cast<Timestamp>(i))
        .value();
  }
  return t;
}

void Run() {
  bench::Banner("F5", "EGI sweep: seeds x spread x decay step");
  bench::JsonReport report("F5");

  bench::TablePrinter printer({"seeds/tick", "spread", "step",
                               "half_life_ticks", "spots@half",
                               "max_spot@half"},
                              17);
  printer.MirrorTo(&report);
  printer.PrintHeader();

  for (double seeds : {0.5, 2.0, 8.0}) {
    for (double spread : {0.0, 0.5, 1.0}) {
      for (double step : {0.1, 0.34}) {
        Table t = FilledTable();
        EgiFungus::Params p;
        p.seeds_per_tick = seeds;
        p.spread_probability = spread;
        p.decay_step = step;
        EgiFungus fungus(p);
        int half_life = -1;
        for (int tick = 1; tick <= kMaxTicks; ++tick) {
          RunDecayTick(t, fungus, tick, /*tick_index=*/tick - 1, nullptr);
          if (t.live_rows() <= kRows / 2) {
            half_life = tick;
            break;
          }
        }
        RotStructure rot = AnalyzeRot(t);
        printer.PrintRow(
            {bench::Fmt(seeds, 1), bench::Fmt(spread, 1),
             bench::Fmt(step, 2),
             half_life < 0 ? (">" + std::to_string(kMaxTicks))
                           : std::to_string(half_life),
             bench::Fmt(rot.num_spots), bench::Fmt(rot.max_spot)});
      }
    }
  }
  std::printf("\nexpected shape: spread>0 shortens half-life and grows "
              "max_spot; spread=0 leaves isolated pinpricks\n");
  report.Write();
}

}  // namespace
}  // namespace fungusdb

int main() {
  fungusdb::Run();
  return 0;
}
