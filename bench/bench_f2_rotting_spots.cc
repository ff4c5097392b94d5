// Experiment F2 — rotting-spot structure: EGI vs uniform random decay.
//
// Claim (paper §2): EGI "creates rotting spots in R, which leads to
// removing complete insertion ranges" — the Blue-Cheese effect. A
// spotless comparator killing the same number of tuples uniformly at
// random produces scattered pinpricks instead.
//
// Setup: a static table of 100k tuples; both fungi tick 300 times with
// kill rates tuned to match. We report the dead-run structure over time
// and the contiguous-run length distribution at the end.

#include "bench/bench_util.h"
#include "fungus/egi_fungus.h"
#include "fungus/random_blight_fungus.h"
#include "fungus/rot_analysis.h"
#include "fungus/scheduler.h"

namespace fungusdb {
namespace {

constexpr uint64_t kRows = 100000;
constexpr int kTicks = 300;

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

void Report(const std::string& label, const Table& t, int tick,
            const bench::TablePrinter& printer) {
  RotStructure rot = AnalyzeRot(t);
  const uint64_t dead = rot.dead_tuples + rot.reclaimed_tuples;
  printer.PrintRow({std::to_string(tick), label, bench::Fmt(dead),
                    bench::Fmt(rot.num_spots),
                    bench::Fmt(rot.mean_spot, 1),
                    bench::Fmt(rot.max_spot)});
}

void Run() {
  bench::Banner("F2", "rotting spots: EGI vs uniform random decay");
  bench::JsonReport report("F2");

  Table egi_table = FilledTable();
  Table blight_table = FilledTable();

  EgiFungus::Params ep;
  ep.seeds_per_tick = 2.0;
  ep.decay_step = 0.34;
  ep.spread_probability = 1.0;
  EgiFungus egi(ep);

  // Blight kill rate roughly matched to EGI's mature kill rate.
  RandomBlightFungus::Params bp;
  bp.tuples_per_tick = 40;
  bp.decay_step = 1.0;
  RandomBlightFungus blight(bp);

  bench::TablePrinter printer(
      {"tick", "fungus", "dead", "spots", "mean_spot", "max_spot"}, 12);
  printer.MirrorTo(&report);
  printer.PrintHeader();
  for (int tick = 1; tick <= kTicks; ++tick) {
    RunDecayTick(egi_table, egi, tick, /*tick_index=*/tick - 1, nullptr);
    RunDecayTick(blight_table, blight, tick, /*tick_index=*/tick - 1,
                 nullptr);
    if (tick % 60 == 0) {
      Report("egi", egi_table, tick, printer);
      Report("random", blight_table, tick, printer);
    }
  }

  // Spot-length distribution at the end (the figure's series).
  auto quantile = [](const std::vector<uint64_t>& sorted, double q) {
    if (sorted.empty()) return uint64_t{0};
    size_t idx = static_cast<size_t>(q * (sorted.size() - 1));
    return sorted[idx];
  };
  std::printf("\nspot-length distribution after %d ticks\n", kTicks);
  bench::TablePrinter dist(
      {"fungus", "spots", "p50", "p90", "p99", "max"}, 10);
  dist.MirrorTo(&report);
  dist.PrintHeader();
  for (const auto* pair :
       {&egi_table, &blight_table}) {
    RotStructure rot = AnalyzeRot(*pair);
    const std::string label = pair == &egi_table ? "egi" : "random";
    dist.PrintRow({label, bench::Fmt(rot.num_spots),
                   bench::Fmt(quantile(rot.spot_lengths, 0.5)),
                   bench::Fmt(quantile(rot.spot_lengths, 0.9)),
                   bench::Fmt(quantile(rot.spot_lengths, 0.99)),
                   bench::Fmt(rot.max_spot)});
  }

  std::printf("\ntime axis (one char per %llu tuples; '#'=live, '.'=dead)\n",
              static_cast<unsigned long long>(kRows / 72));
  std::printf("  egi:    %s\n", RenderTimeAxis(egi_table, 72).c_str());
  std::printf("  random: %s\n", RenderTimeAxis(blight_table, 72).c_str());
  report.Write();
}

}  // namespace
}  // namespace fungusdb

int main() {
  fungusdb::Run();
  return 0;
}
